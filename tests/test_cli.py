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
    """fixture -> train -> protect -> run; returns (printed index, alarmed txs)."""
    out = _main(capsys, "fixture", name, "-o", tmp_path)
    index = int(re.search(r"at tx (\d+)", out).group(1))
    bundle = tmp_path / f"{name}.bundle.json"
    _main(capsys, "train", bundle, tmp_path / f"{name}.train.jsonl", "-o", tmp_path / "snap.json")
    _main(capsys, "protect", bundle, tmp_path / "snap.json", "-o", tmp_path / "guarded.json")
    _main(
        capsys, "run", tmp_path / "guarded.json", tmp_path / f"{name}.detect.jsonl",
        "--alarms", tmp_path / "alarms.jsonl", "--report", tmp_path / "report.json",
        "--world", tmp_path / "world.json",
    )
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
    # review_and_approve reads no mirror, so none is built
    assert len(built) == 1


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
