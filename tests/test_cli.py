"""CLI commands run in-process: asm, disasm, analyze, and the walkthrough
fixture -> train -> protect -> run -> approve."""

import json
import re

import pytest

from pathguard import cli, workflow
from pathguard.asm import assemble
from pathguard.bundle import analyze_bundle
from pathguard.fixtures import ALL_SCENARIOS, PROXY_SRC


def _main(capsys, *argv) -> str:
    code = cli.main([str(a) for a in argv])
    out, err = capsys.readouterr()
    assert code == cli.EXIT_OK, f"{argv[0]} exited {code}: {err}"
    return out


def _walk(tmp_path, capsys, name: str) -> tuple[int, set[int]]:
    """fixture -> train -> protect -> run; returns (printed index, alarmed txs).

    The run's report must balance: no gas reconciliation failure, guard gas
    per point kind summing to the reconciled txs' gas delta, and point bytes
    equal to each contract's size delta."""
    out = _main(capsys, "fixture", name, "-o", tmp_path)
    index = int(re.search(r"at tx (\d+)", out).group(1))
    bundle = tmp_path / f"{name}.bundle.json"
    _main(capsys, "train", bundle, tmp_path / f"{name}.train.jsonl", "-o", tmp_path / "snap.json")
    _main(capsys, "protect", bundle, tmp_path / "snap.json", "-o", tmp_path / "guarded.json")
    out = _main(
        capsys, "run", tmp_path / "guarded.json", tmp_path / f"{name}.detect.jsonl",
        "--alarms", tmp_path / "alarms.jsonl", "--report", tmp_path / "report.json",
        "--world", tmp_path / "world.json",
    )
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["gas_reconciliation_failures"] == []
    reconciled = [t for t in report["transactions"] if t["gas_orig"] is not None]
    assert reconciled
    assert f"reconciled {len(reconciled)} txs, 0 gas reconciliation failures" in out
    contracts = report["contracts"].values()
    assert sum(
        kind["runtime_gas"] for info in contracts for kind in info["points"].values()
    ) == sum(t["gas_instr"] - t["gas_orig"] for t in reconciled)
    for info in contracts:
        assert info["point_bytes_total"] == info["instrumented_size"] - info["original_size"]
    lines = (tmp_path / "alarms.jsonl").read_text().splitlines()
    return index, {json.loads(line)["tx_index"] for line in lines}


@pytest.mark.parametrize("scenario", ALL_SCENARIOS, ids=lambda s: s.name)
def test_walkthrough_alarms_exactly_at_printed_index(tmp_path, capsys, scenario):
    index, alarmed = _walk(tmp_path, capsys, scenario.name)
    assert alarmed == ({index} if scenario.detected else set())


def test_approve_round_trips_the_world(tmp_path, capsys):
    # overflow runs at an 8-bit word width, so the guarded bundle must
    # carry its config for run and approve to rebuild the same labeling
    index, _ = _walk(tmp_path, capsys, "overflow")
    approve = [
        "approve", tmp_path / "guarded.json", tmp_path / "world.json",
        tmp_path / "alarms.jsonl", "--index", index, "--admin", "0xAD",
    ]
    first = _main(capsys, *approve)
    assert int(re.search(r"approved (\d+) paths", first).group(1)) > 0
    again = _main(capsys, *approve)
    assert again.startswith("approved 0 paths")


def test_approve_builds_only_the_guarded_world(tmp_path, capsys, monkeypatch):
    index, _ = _walk(tmp_path, capsys, "overflow")
    built = []
    real = workflow.build_world

    def counting(*args, **kwargs):
        built.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(workflow, "build_world", counting)
    _main(
        capsys, "approve", tmp_path / "guarded.json", tmp_path / "world.json",
        tmp_path / "alarms.jsonl", "--index", index, "--admin", "0xAD",
    )
    # the guarded world is loaded from --world, and review_and_approve
    # reads no mirror, so no world is deployed
    assert built == []


def test_simulate_false_alarms(tmp_path, capsys):
    _main(capsys, "fixture", "visibility", "-o", tmp_path)
    out = _main(
        capsys, "simulate-false-alarms",
        tmp_path / "visibility.bundle.json", tmp_path / "visibility.train.jsonl",
    )
    assert int(re.search(r"false alarms: (\d+)", out).group(1)) > 0


def test_asm_then_disasm_reassembles(tmp_path, capsys):
    source = tmp_path / "proxy.src"
    source.write_text(PROXY_SRC)
    out = _main(capsys, "asm", source, "-o", tmp_path / "proxy.json")
    assert out.startswith("proxy: 2 functions")
    saved = json.loads((tmp_path / "proxy.json").read_text())
    text = _main(capsys, "disasm", tmp_path / "proxy.json")
    assert assemble(text).to_json() == saved


def test_asm_rejects_bad_source(tmp_path, capsys):
    source = tmp_path / "bad.src"
    source.write_text("contract bad { fn f external { NOSUCHOP } }")
    code = cli.main(["asm", str(source), "-o", str(tmp_path / "bad.json")])
    assert code == cli.EXIT_VALIDATION
    assert capsys.readouterr().err.startswith("error:")
    assert not (tmp_path / "bad.json").exists()


def test_protect_rejects_an_invalid_program_entry(tmp_path, capsys):
    """A bundle whose serialized program ICALLs a missing function exits
    with the validation code before anything is protected."""
    (tmp_path / "snap.json").write_text("{}")
    fn = {"id": 0, "name": "f", "visibility": "external", "body": [["ICALL", 5], ["STOP", None]]}
    bad = tmp_path / "bad.bundle.json"
    bad.write_text(json.dumps(
        {"contracts": [{"program": {"name": "bad", "functions": [fn], "selector_table": {"0x1": 0}}}]}
    ))
    code = cli.main(["protect", str(bad), str(tmp_path / "snap.json"), "-o", str(tmp_path / "g.json")])
    assert code == cli.EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("error:") and "ICALL to unknown function 5" in err
    assert not (tmp_path / "g.json").exists()


@pytest.mark.parametrize(
    "flags", [(), ("--dump-cfg",), ("--dump-callgraph",), ("--dump-cfg", "--dump-callgraph")]
)
def test_analyze_prints_the_bundle_fingerprint(tmp_path, capsys, flags):
    _main(capsys, "fixture", "delegatecall", "-o", tmp_path)
    path = tmp_path / "delegatecall.bundle.json"
    out = json.loads(_main(capsys, "analyze", path, *flags))
    bundle = workflow.Bundle.load(path)
    analysis = analyze_bundle(bundle.programs, bundle.boundary, bundle.config)
    assert out["fingerprint"] == analysis.fingerprint()
    # no flag dumps both graphs; a flag selects its own
    assert ("cfgs" in out) == ("--dump-cfg" in flags or not flags)
    assert ("callgraph" in out) == ("--dump-callgraph" in flags or not flags)


@pytest.mark.parametrize(
    "text, key",
    [
        ('{"gas": {"sload_cost": 50}}', "sload_cost"),
        ('{"reserved": {"no_such_tag": 1}}', "no_such_tag"),
        ('{"word_width": 12}', "word_width"),
        ('{"word_width": ', "bad.json"),
    ],
    ids=["gas-key", "reserved-key", "width", "not-json"],
)
def test_bad_config_file_is_a_validation_error(tmp_path, capsys, text, key):
    _main(capsys, "fixture", "delegatecall", "-o", tmp_path)
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    bundle = tmp_path / "delegatecall.bundle.json"
    code = cli.main(["--config", str(bad), "analyze", str(bundle)])
    assert code == cli.EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("error:") and key in err


@pytest.mark.parametrize("command", ["run", "approve"])
def test_run_and_approve_reject_a_stale_guarded_program(tmp_path, capsys, command):
    """``run`` and ``approve`` protect the saved originals again; a saved
    program that differs from that build (here one edited instruction)
    exits with the validation code and names its contract."""
    index, _ = _walk(tmp_path, capsys, "overflow")
    path = tmp_path / "guarded.json"
    raw = json.loads(path.read_text())
    name = sorted(raw["contracts"])[0]
    body = raw["contracts"][name]["program"]["functions"][0]["body"]
    off = next(i for i, (op, _imm) in enumerate(body) if op == "PUSH")
    body[off][1] += 1
    path.write_text(json.dumps(raw))
    argv = {
        "run": ["run", path, tmp_path / "overflow.detect.jsonl"],
        "approve": [
            "approve", path, tmp_path / "world.json", tmp_path / "alarms.jsonl",
            "--index", index, "--admin", "0xAD",
        ],
    }[command]
    code = cli.main([str(a) for a in argv])
    assert code == cli.EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("error:") and f"saved program of {name} differs" in err


def test_protect_prints_why_a_set_moved_to_the_mapping(tmp_path, capsys, monkeypatch):
    """A demoted set is named with its reason in ``protect``'s output, and
    the guarded bundle still runs with its keys in the mapping."""
    from pathguard import instrument
    from pathguard.pathset import ConstructionFailed

    def failing(*args, **kwargs):
        raise ConstructionFailed("no seed found after 16 tries (n=1)")

    monkeypatch.setattr(instrument, "choose_strategy", lambda n: instrument.STRATEGY_MPHT)
    monkeypatch.setattr(instrument, "build_mpht", failing)
    _main(capsys, "fixture", "visibility", "-o", tmp_path)
    bundle = tmp_path / "visibility.bundle.json"
    training = tmp_path / "visibility.train.jsonl"
    _main(capsys, "train", bundle, training, "-o", tmp_path / "snap.json")
    out = _main(capsys, "protect", bundle, tmp_path / "snap.json", "-o", tmp_path / "guarded.json")
    guarded = json.loads((tmp_path / "guarded.json").read_text())
    demoted = re.findall(
        r"^  (\w+)\.(\w+): safe paths moved to the dynamic mapping "
        r"\(mpht construction failed: no seed found after 16 tries \(n=1\)\)$",
        out, re.M,
    )
    assert demoted and {c for c, _fn in demoted} == set(guarded["contracts"])
    out = _main(capsys, "run", tmp_path / "guarded.json", training)
    assert "alarms: 0 on 0 txs" in out
