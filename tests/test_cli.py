"""CLI commands run in-process: asm, disasm, analyze, and the walkthrough
fixture -> train -> protect -> run -> approve."""

import copy
import functools
import json
import random
import re
from pathlib import Path

import pytest
from conftest import branches_fn
from hypothesis import given, settings
from hypothesis import strategies as st

from pathguard import cli, workflow
from pathguard.asm import assemble
from pathguard.bundle import analyze_bundle
from pathguard.config import ConfigError, config_to_json
from pathguard.program import ValidationError
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


def test_asm_names_the_line_of_a_duplicate_function(tmp_path, capsys):
    """An assembler error exits 2 and prints the line it names."""
    source = tmp_path / "dup.src"
    source.write_text("contract dup {\n fn f external { STOP }\n fn f internal { IRET }\n}\n")
    code = cli.main(["asm", str(source), "-o", str(tmp_path / "dup.json")])
    assert code == 2
    assert capsys.readouterr().err.strip() == "error: line 3: duplicate function name 'f'"
    assert not (tmp_path / "dup.json").exists()


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


@pytest.mark.parametrize("imm", ["5", 1.5], ids=["str", "float"])
def test_protect_rejects_a_non_int_immediate(tmp_path, capsys, imm):
    (tmp_path / "snap.json").write_text("{}")
    body = [["PUSH", imm], ["POP", None], ["STOP", None]]
    fn = {"id": 0, "name": "f", "visibility": "external", "body": body}
    program = {"name": "bad", "functions": [fn], "selector_table": {"0x1": 0}}
    bad = tmp_path / "bad.bundle.json"
    bad.write_text(json.dumps({"contracts": [{"program": program}]}))
    out = tmp_path / "g.json"
    code = cli.main(["protect", str(bad), str(tmp_path / "snap.json"), "-o", str(out)])
    assert code == cli.EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("error:") and f"immediate {imm!r} is not an int" in err
    assert not out.exists()


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
        ('{"reserved": {"call_marker": 1}}', "unknown key 'reserved'"),
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


def test_protect_names_a_direct_set_and_the_table_it_replaced(tmp_path, capsys):
    """A function of eight paths trained on all of them gets a direct set:
    the snapshot, the plan listing and ``protect``'s output name it, with
    its id space and the bytes and check gas of the table it replaced."""
    bundle, training = tmp_path / "d.bundle.json", tmp_path / "d.train.jsonl"
    source = f"contract d {{\n{branches_fn('f', 1, 3)}}}"
    bundle.write_text(json.dumps({"contracts": [{"source": source}]}))
    arms = [[a, b, c] for a in (0, 1) for b in (0, 1) for c in (0, 1)]
    training.write_text("".join(
        json.dumps({"origin": 1, "to": "d", "fn": "f", "calldata": arm}) + "\n" for arm in arms
    ))
    _main(capsys, "train", bundle, training, "-o", tmp_path / "snap.json")
    snapshot = json.loads((tmp_path / "snap.json").read_text())
    assert snapshot["contracts"]["d"]["0"]["strategy"] == "Direct"
    out = _main(capsys, "protect", bundle, tmp_path / "snap.json", "-o", tmp_path / "guarded.json")
    assert out.splitlines()[1:] == [
        "  d.f: Direct r=8, 186 bytes and 55 gas per check "
        "(the table it replaced: 406 bytes, 163 gas)"
    ]
    plan = json.loads((tmp_path / "guarded.json").read_text())["contracts"]["d"]["plan"]
    assert (
        "f@checker  bytes=186 entries=8 gas=55 r=8 strategy=Direct table_bytes=406 table_gas=163"
        in plan
    )
    assert "alarms: 0 on 0 txs" in _main(capsys, "run", tmp_path / "guarded.json", training)


@pytest.mark.parametrize(
    "field, word", [("value", -7), ("calldata", [-1]), ("calldata", [1 << 80])],
    ids=["negative-value", "negative-calldata", "wide-calldata"],
)
def test_run_rejects_a_transaction_word_out_of_range(tmp_path, capsys, field, word):
    _main(capsys, "fixture", "visibility", "-o", tmp_path)
    bundle = tmp_path / "visibility.bundle.json"
    training = tmp_path / "visibility.train.jsonl"
    _main(capsys, "train", bundle, training, "-o", tmp_path / "snap.json")
    _main(capsys, "protect", bundle, tmp_path / "snap.json", "-o", tmp_path / "guarded.json")
    record = json.loads(training.read_text().splitlines()[0])
    record[field] = word
    bad = tmp_path / "bad.jsonl"
    bad.write_text(json.dumps(record) + "\n")
    code = cli.main(["run", str(tmp_path / "guarded.json"), str(bad)])
    assert code == cli.EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("error:") and "not a word" in err


def test_train_rejects_a_transaction_word_out_of_range(tmp_path, capsys):
    _main(capsys, "fixture", "visibility", "-o", tmp_path)
    training = tmp_path / "visibility.train.jsonl"
    record = json.loads(training.read_text().splitlines()[0])
    bad = tmp_path / "bad.jsonl"
    bad.write_text(json.dumps(dict(record, value=-1)) + "\n")
    bundle = tmp_path / "visibility.bundle.json"
    code = cli.main(["train", str(bundle), str(bad), "-o", str(tmp_path / "snap.json")])
    assert code == cli.EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("error:") and "not a word" in err


def test_train_on_a_reverting_transaction_exits_4(tmp_path, capsys):
    """A training tx that does not end Accepted is a training failure:
    exit 4, a ``training failure:`` line naming the tx, and no snapshot."""
    bundle = tmp_path / "r.bundle.json"
    source = (
        "contract r { fn ok external selector=0x1 { STOP }"
        " fn no external selector=0x2 { PUSH 0 REVERT } }"
    )
    bundle.write_text(json.dumps({"contracts": [{"source": source}]}))
    stream = tmp_path / "r.train.jsonl"
    stream.write_text("".join(
        json.dumps({"origin": 1, "to": "r", "fn": fn}) + "\n" for fn in ("ok", "no")
    ))
    snapshot = tmp_path / "snap.json"
    code = cli.main(["train", str(bundle), str(stream), "-o", str(snapshot)])
    err = capsys.readouterr().err
    assert code == cli.EXIT_TRAINING, err
    assert err.startswith("training failure:") and "training tx 1" in err and "Reverted" in err
    assert not snapshot.exists()


def test_protect_past_the_size_limit_exits_3(tmp_path, capsys):
    """A contract that fits the size limit unguarded but not guarded: protect
    exits 3 with a ``size limit:`` line and writes no guarded file."""
    body = "PUSH 1 POP " * 2350 + "STOP"
    bundle = tmp_path / "big.bundle.json"
    bundle.write_text(json.dumps(
        {"contracts": [{"source": "contract big { fn f external selector=0x1 { %s } }" % body}]}
    ))
    stream = tmp_path / "big.train.jsonl"
    stream.write_text(json.dumps({"origin": 1, "to": "big", "fn": "f"}) + "\n")
    _main(capsys, "train", bundle, stream, "-o", tmp_path / "snap.json")
    guarded = tmp_path / "guarded.json"
    code = cli.main(["protect", str(bundle), str(tmp_path / "snap.json"), "-o", str(guarded)])
    err = capsys.readouterr().err
    assert code == cli.EXIT_SIZE, err
    assert err.startswith("size limit:") and "big" in err
    assert not guarded.exists()


def test_train_past_the_combined_index_space_exits_2(tmp_path, capsys):
    """At width 8 a combined index must fit 7 bits. ``h`` is four diamonds
    in sequence (16 paths) and ``f`` calls it from 9 sites (9 calling
    contexts), so h's combined index space is 144: train exits 2 naming
    the function and the bound, and writes no snapshot."""
    diamonds = "".join(
        f"PUSH {i} CALLDATALOAD JUMPI t{i} JUMP j{i} t{i}: JUMPDEST j{i}: JUMPDEST "
        for i in range(4)
    )
    source = (
        "contract c { fn f external selector=0x1 { " + "ICALL h " * 9 + "STOP }"
        " fn h internal { " + diamonds + "IRET } }"
    )
    bundle = tmp_path / "c.bundle.json"
    bundle.write_text(json.dumps({"config": {"word_width": 8}, "contracts": [{"source": source}]}))
    stream = tmp_path / "c.train.jsonl"
    stream.write_text(json.dumps({"origin": 1, "to": "c", "fn": "f"}) + "\n")
    snapshot = tmp_path / "snap.json"
    code = cli.main(["train", str(bundle), str(stream), "-o", str(snapshot)])
    err = capsys.readouterr().err
    assert code == cli.EXIT_VALIDATION, err
    assert err == "error: c.fn1: combined index space 144 exceeds 2**7\n"
    assert not snapshot.exists()


def _exit_2(capsys, argv, *needles) -> None:
    code = cli.main([str(a) for a in argv])
    err = capsys.readouterr().err
    assert code == cli.EXIT_VALIDATION, err
    assert err.startswith("error:") and all(n in err for n in needles), err


@pytest.mark.parametrize("place", ["storage", "balance"])
@pytest.mark.parametrize("above_mask", [False, True], ids=["negative", "above-mask"])
def test_approve_rejects_a_world_word_out_of_range(tmp_path, capsys, place, above_mask):
    """A saved world's storage words and balances are read as words of the
    bundle's width (overflow runs at 8 bits): one outside it exits with the
    validation code, and the world file is left as it was."""
    index, _ = _walk(tmp_path, capsys, "overflow")
    path = tmp_path / "world.json"
    raw = json.loads(path.read_text())
    acct = next(iter(raw["accounts"].values()))
    if place == "storage":
        acct["storage"]["0x0"] = hex(0x100) if above_mask else "-0x1"
    else:
        acct["balance"] = 0x100 if above_mask else -1
    path.write_text(json.dumps(raw))
    _exit_2(
        capsys,
        ["approve", tmp_path / "guarded.json", path, tmp_path / "alarms.jsonl",
         "--index", index, "--admin", "0xAD"],
        "world account", "not a word",
    )
    assert json.loads(path.read_text()) == raw


@pytest.mark.parametrize("key", ["-0x5", hex(1 << 80)], ids=["negative", "above-mask"])
def test_protect_rejects_a_safe_key_out_of_range(tmp_path, capsys, key):
    """A snapshot's safe keys are words of its width: a negative key (which
    once became pool word -4) or one above the mask exits with the
    validation code before anything is written."""
    _main(capsys, "fixture", "reentrancy", "-o", tmp_path)
    bundle = tmp_path / "reentrancy.bundle.json"
    snap = tmp_path / "snap.json"
    _main(capsys, "train", bundle, tmp_path / "reentrancy.train.jsonl", "-o", snap)
    raw = json.loads(snap.read_text())
    assert raw["width"] == 64
    entry = next(iter(raw["contracts"]["vault"].values()))
    entry["safe"].append(key)
    snap.write_text(json.dumps(raw))
    out = tmp_path / "guarded.json"
    _exit_2(capsys, ["protect", bundle, snap, "-o", out], "safe key", "not a word")
    assert not out.exists()


@pytest.mark.parametrize(
    "word, needle",
    [("-0x1", "not a word: '-0x1'"), (hex(1 << 80), "is not a word in [0, 0xffffffffffffffff]")],
    ids=["negative", "above-mask"],
)
def test_protect_rejects_a_pool_word_out_of_range(tmp_path, capsys, word, needle):
    (tmp_path / "snap.json").write_text("{}")
    body = [["PUSH", 0], ["CODELOAD", None], ["POP", None], ["STOP", None]]
    fn = {"id": 0, "name": "f", "visibility": "external", "body": body}
    program = {"name": "bad", "functions": [fn], "selector_table": {"0x1": 0}, "data_pool": [word]}
    bad = tmp_path / "bad.bundle.json"
    bad.write_text(json.dumps({"contracts": [{"program": program}]}))
    out = tmp_path / "g.json"
    _exit_2(capsys, ["protect", bad, tmp_path / "snap.json", "-o", out], "data_pool[0]", needle)
    assert not out.exists()


def _protect(tmp_path, capsys, name: str):
    """fixture -> train -> protect; returns the guarded file's path."""
    _main(capsys, "fixture", name, "-o", tmp_path)
    bundle = tmp_path / f"{name}.bundle.json"
    snap = tmp_path / "snap.json"
    _main(capsys, "train", bundle, tmp_path / f"{name}.train.jsonl", "-o", snap)
    _main(capsys, "protect", bundle, snap, "-o", tmp_path / "guarded.json")
    return tmp_path / "guarded.json"


@pytest.mark.parametrize(
    "record",
    [
        {"origin": 1.7, "to": "vault", "fn": "deposit", "value": 0.9},
        {"origin": True, "to": "vault", "fn": "deposit"},
        {"origin": hex(1 << 64), "to": "vault", "fn": "deposit"},
        {"origin": 1, "to": 256.0, "fn": "0x11"},
        {"origin": 1, "to": "vault", "fn": hex(1 << 64)},
        {"origin": 1, "to": "vault", "fn": "deposit", "calldata": [2.5]},
        {"origin": 1, "to": "vault", "fn": "deposit", "gas_limit": 1e6},
    ],
    ids=[
        "float-origin-and-value", "bool-origin", "above-mask-origin", "float-to",
        "above-mask-fn", "float-calldata", "float-gas-limit",
    ],
)
def test_run_rejects_a_transaction_field_that_is_not_a_word(tmp_path, capsys, record):
    """Every word of a transaction record is read as a word of the bundle's
    width: a float or a bool is no longer truncated to an int in silence."""
    guarded = _protect(tmp_path, capsys, "reentrancy")
    bad = tmp_path / "bad.jsonl"
    bad.write_text(json.dumps(record) + "\n")
    _exit_2(capsys, ["run", guarded, bad], "transaction", "not a word")


def test_run_rejects_a_transaction_naming_no_function(tmp_path, capsys):
    guarded = _protect(tmp_path, capsys, "reentrancy")
    bad = tmp_path / "bad.jsonl"
    bad.write_text(json.dumps({"origin": 1, "to": "vault", "fn": "no_such_fn"}) + "\n")
    _exit_2(capsys, ["run", guarded, bad], "vault.no_such_fn has no selector")


@pytest.mark.parametrize(
    "account",
    [{"address": 1.5, "balance": 5}, {"address": "0x1", "balance": True},
     {"address": "0x1", "balance": -1}],
    ids=["float-address", "bool-balance", "negative-balance"],
)
def test_bundle_account_words_are_read_as_words(tmp_path, capsys, account):
    _main(capsys, "fixture", "visibility", "-o", tmp_path)
    path = tmp_path / "visibility.bundle.json"
    raw = json.loads(path.read_text())
    raw["accounts"] = [account]
    path.write_text(json.dumps(raw))
    _exit_2(capsys, ["analyze", path], "bundle account", "not a word")


def _add_entry(raw: dict, contract: str, fid: str) -> dict:
    """``raw`` with a well-formed entry for ``contract``'s function ``fid``."""
    contracts = {name: dict(per_fn) for name, per_fn in raw["contracts"].items()}
    contracts.setdefault(contract, {})[fid] = {"safe": ["0x1"], "hits": [3]}
    return dict(raw, contracts=contracts)


@pytest.mark.parametrize(
    "edit, needle",
    [
        (lambda raw: {}, "trained against different code"),
        (lambda raw: [raw], "trained against different code"),
        (lambda raw: dict(raw, width=8), "snapshot width 8"),
        (lambda raw: {k: v for k, v in raw.items() if k != "contracts"}, "no contracts"),
        (lambda raw: dict(raw, contracts={"vault": []}), "snapshot vault: not a JSON object"),
        (lambda raw: dict(raw, contracts={"vault": {"0": {}}}), "no list of safe keys"),
        (lambda raw: dict(raw, contracts={"vault": {"0": {"safe": "0x1"}}}), "no list of safe"),
        (lambda raw: dict(raw, contracts={"vault": {"x": {"safe": []}}}), "fnx id"),
        (lambda raw: dict(raw, contracts={"vault": {"0": {"safe": []}}}), "fn0: no list of hits"),
        (
            lambda raw: dict(raw, contracts={"vault": {"0": {"safe": ["0x1"], "hits": {}}}}),
            "fn0: no list of hits",
        ),
        (
            lambda raw: dict(raw, contracts={"vault": {"0": {"safe": ["0x1"], "hits": []}}}),
            "fn0: no list of hits as long as the safe keys",
        ),
        (
            lambda raw: dict(raw, contracts={"vault": {"0": {"safe": ["0x1"], "hits": [-1]}}}),
            "fn0 hits: not a non-negative int: -1",
        ),
        (
            lambda raw: dict(raw, contracts={"vault": {"0": {"safe": ["0x1"], "hits": [True]}}}),
            "fn0 hits: not a non-negative int: True",
        ),
        (
            lambda raw: dict(raw, contracts={"vault": {"0": {"safe": ["0x1"], "hits": ["3"]}}}),
            "fn0 hits: not a non-negative int: '3'",
        ),
        (lambda raw: _add_entry(raw, "vault", "99"), "snapshot vault.fn99: vault has no such"),
        (lambda raw: _add_entry(raw, "vault", "-7"), "snapshot vault.fn-7: vault has no such"),
        (lambda raw: _add_entry(raw, "nosuch", "0"), "snapshot nosuch: no protected contract"),
    ],
    ids=[
        "empty", "not-an-object", "width", "no-contracts", "contract-not-an-object",
        "no-safe", "safe-not-a-list", "bad-function-id", "no-hits", "hits-not-a-list",
        "hits-short", "hits-negative", "hits-bool", "hits-string", "no-such-function",
        "negative-function-id", "no-such-contract",
    ],
)
def test_protect_rejects_a_malformed_snapshot(tmp_path, capsys, edit, needle):
    """The snapshot's fingerprint, width, contracts and each entry's safe
    keys and hits are checked where protection reads them: a malformed one
    exits with the validation code, never a KeyError, and nothing is
    written. Snapshots written before training counted hits have none and
    are refused, and so is a well-formed entry for a function or contract
    that protection has no place for."""
    _main(capsys, "fixture", "reentrancy", "-o", tmp_path)
    bundle = tmp_path / "reentrancy.bundle.json"
    snap = tmp_path / "snap.json"
    _main(capsys, "train", bundle, tmp_path / "reentrancy.train.jsonl", "-o", snap)
    snap.write_text(json.dumps(edit(json.loads(snap.read_text()))))
    out = tmp_path / "guarded.json"
    _exit_2(capsys, ["protect", bundle, snap, "-o", out], needle)
    assert not out.exists()


@pytest.mark.parametrize(
    "edit, needle",
    [
        (lambda raw: dict(raw, note="x"), "unknown field 'note'"),
        (lambda raw: dict(raw, combined_id="0xzz"), "combined_id: not a word"),
        (lambda raw: dict(raw, combined_id=hex(0x100)), "combined_id: '0x100' is not a word"),
        (lambda raw: dict(raw, contract=-1), "contract: -1 is not a word"),
        (lambda raw: {k: v for k, v in raw.items() if k != "function"}, "function: not a word"),
        (lambda raw: dict(raw, inner="no"), "inner: not a bool"),
        (lambda raw: dict(raw, context_chain=[1]), "context_chain: not a list of strings"),
        (lambda raw: dict(raw, contract="0x1"), "no protected contract"),
        (lambda raw: [raw], "alarm record is not a JSON object"),
    ],
    ids=[
        "extra-key", "non-hex-combined", "above-mask-combined", "negative-contract",
        "missing-function", "non-bool-inner", "non-string-chain", "unprotected-contract",
        "not-an-object",
    ],
)
def test_approve_rejects_a_malformed_alarm_record(tmp_path, capsys, edit, needle):
    """Each field of an alarm-log line is read by name, its words as words of
    the bundle's width (overflow runs at 8 bits): a malformed line exits with
    the validation code and the world file is left as it was."""
    index, _ = _walk(tmp_path, capsys, "overflow")
    log = tmp_path / "alarms.jsonl"
    lines = log.read_text().splitlines()
    lines[0] = json.dumps(edit(json.loads(lines[0])))
    log.write_text("\n".join(lines) + "\n")
    world = tmp_path / "world.json"
    before = world.read_text()
    _exit_2(
        capsys,
        ["approve", tmp_path / "guarded.json", world, log, "--index", index, "--admin", "0xAD"],
        needle,
    )
    assert world.read_text() == before


_DOORS = {
    # file -> (the command that reads it, file name, lines before the bad one)
    "bundle": (["train", "{bundle}", "{train}", "-o", "{tmp}/s.json"], "{bundle}", 0),
    "tx-stream": (["train", "{bundle}", "{train}", "-o", "{tmp}/s.json"], "{train}", 2),
    "snapshot": (["protect", "{bundle}", "{snap}", "-o", "{tmp}/g.json"], "{snap}", 0),
    "guarded": (["run", "{guarded}", "{detect}"], "{guarded}", 0),
    "world": (["approve", "{guarded}", "{world}", "{alarms}", "--index", "{index}",
               "--admin", "0xAD"], "{world}", 0),
    "alarm-log": (["approve", "{guarded}", "{world}", "{alarms}", "--index", "{index}",
                   "--admin", "0xAD"], "{alarms}", 1),
    "disasm": (["disasm", "{tmp}/prog.json"], "{tmp}/prog.json", 0),
    "config": (["--config", "{tmp}/c.json", "analyze", "{bundle}"], "{tmp}/c.json", 0),
}


@pytest.mark.parametrize("door", sorted(_DOORS))
def test_unparseable_json_exits_2_naming_file_and_line(tmp_path, capsys, door):
    """Every JSON file the CLI reads goes through one reader: text that does
    not parse exits with the validation code and a one-line error naming the
    file and line, not a JSONDecodeError traceback. In a JSON-lines file the
    line is the bad record's own."""
    index, _ = _walk(tmp_path, capsys, "overflow")
    names = {
        "tmp": tmp_path, "bundle": tmp_path / "overflow.bundle.json",
        "train": tmp_path / "overflow.train.jsonl", "detect": tmp_path / "overflow.detect.jsonl",
        "snap": tmp_path / "snap.json", "guarded": tmp_path / "guarded.json",
        "world": tmp_path / "world.json", "alarms": tmp_path / "alarms.jsonl", "index": index,
    }
    argv, target, keep = _DOORS[door]
    path = target.format(**names)
    kept = Path(path).read_text().splitlines()[:keep] if Path(path).exists() else []
    Path(path).write_text("\n".join(kept + ["{not json"]) + "\n")
    world = Path(names["world"]).read_text()
    code = cli.main([a.format(**names) for a in argv])
    err = capsys.readouterr().err
    assert code == cli.EXIT_VALIDATION, err
    assert err.startswith("error:") and err.count("\n") == 1, err
    assert f"{path}:{keep + 1}: not JSON" in err, err
    assert Path(names["world"]).read_text() == world


def test_a_json_file_that_cannot_be_read_exits_2(tmp_path, capsys):
    """The same reader turns a missing file into the validation code."""
    _main(capsys, "fixture", "visibility", "-o", tmp_path)
    missing = tmp_path / "missing.json"
    out = tmp_path / "guarded.json"
    _exit_2(
        capsys, ["protect", tmp_path / "visibility.bundle.json", missing, "-o", out],
        f"{missing}: cannot read",
    )
    assert not out.exists()


def test_an_assembly_source_that_cannot_be_read_exits_2(tmp_path, capsys):
    """``asm`` reads its source through the JSON reader's door: a missing
    file is the validation code and one error line, not a traceback."""
    missing = tmp_path / "missing.src"
    out = tmp_path / "x.json"
    code = cli.main(["asm", str(missing), "-o", str(out)])
    err = capsys.readouterr().err
    assert code == cli.EXIT_VALIDATION, err
    assert err.startswith("error:") and err.count("\n") == 1, err
    assert f"{missing}: cannot read" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "edit, needle",
    [
        (lambda raw: {}, "bundle: no 'contracts' field"),
        (lambda raw: [], "bundle: not a JSON object"),
        (lambda raw: dict(raw, contracts="x"), "bundle: field 'contracts' is not a list"),
        (lambda raw: dict(raw, contracts=[{}]), "bundle contracts[0]: no 'program' field"),
        (lambda raw: dict(raw, contracts=[7]), "bundle contracts[0]: not a JSON object"),
        (
            lambda raw: dict(raw, contracts=[{"program": {}}]),
            "bundle contracts[0]: no 'name' field",
        ),
        (
            lambda raw: dict(raw, contracts=[{"program": {"name": "p", "functions": [{}]}}]),
            "bundle contracts[0] p functions[0]: no 'id' field",
        ),
        (lambda raw: dict(raw, deploy=["nobody"]), "field 'deploy' names no contract"),
        (lambda raw: dict(raw, boundary="vault"), "bundle: field 'boundary' is not a list"),
        (lambda raw: dict(raw, accounts=[5]), "bundle accounts[0]: not a JSON object"),
        (lambda raw: dict(raw, accounts=[{}]), "bundle accounts[0]: no 'address' field"),
        (lambda raw: dict(raw, setup={}), "bundle: field 'setup' is not a list"),
    ],
    ids=[
        "empty", "not-an-object", "contracts-not-a-list", "empty-entry", "entry-not-an-object",
        "empty-program", "empty-function", "unknown-deploy", "boundary-not-a-list",
        "account-not-an-object", "account-without-address", "setup-not-a-list",
    ],
)
def test_a_malformed_bundle_exits_2_naming_file_and_field(tmp_path, capsys, edit, needle):
    """A bundle's structure is checked where it is read: a missing field or
    one of the wrong type exits with the validation code and one error line
    that names the file and the field, never a KeyError."""
    _main(capsys, "fixture", "reentrancy", "-o", tmp_path)
    path = tmp_path / "reentrancy.bundle.json"
    path.write_text(json.dumps(edit(json.loads(path.read_text()))))
    code = cli.main(["analyze", str(path)])
    err = capsys.readouterr().err
    assert code == cli.EXIT_VALIDATION, err
    assert err.startswith(f"error: {path}: ") and err.count("\n") == 1, err
    assert needle in err, err


@pytest.mark.parametrize(
    "target, edit, needle",
    [
        ("world", lambda raw: {k: v for k, v in raw.items() if k != "next_address"},
         "world: no 'next_address' field"),
        ("world", lambda raw: dict(raw, accounts=[]), "world: field 'accounts' is not a JSON"),
        ("world", lambda raw: dict(raw, addresses=None),
         "world: field 'addresses' is not a JSON object: None"),
        ("world", lambda raw: {**raw, "accounts": {"0x1": {"balance": 0}}},
         "world account 0x1: no 'storage' field"),
        ("world", lambda raw: {**raw, "accounts": {"0x1": {"balance": 0, "storage": {},
                                                          "code": "ghost"}}},
         "world account 0x1: field 'code' names no contract: 'ghost'"),
        ("guarded", lambda raw: {k: v for k, v in raw.items() if k != "originals"},
         "guarded: no 'originals' field"),
        ("guarded", lambda raw: dict(raw, contracts={}), "guarded contracts: no 'token8' field"),
        ("guarded", lambda raw: dict(raw, snapshot=[]), "guarded: field 'snapshot' is not a"),
        ("guarded", lambda raw: dict(raw, originals={"x": {}}),
         "guarded contracts[0]: no 'name' field"),
        # guarded files written while the guard's protocol words were config
        ("guarded", lambda raw: {**raw, "config": {**raw["config"], "reserved": {}}},
         "guarded: config: unknown key 'reserved'"),
    ],
    ids=[
        "world-without-next-address", "world-accounts-not-an-object", "world-null-addresses",
        "world-account-without-storage", "world-unknown-code", "guarded-without-originals",
        "guarded-without-contract", "guarded-snapshot-not-an-object", "guarded-empty-original",
        "guarded-config-with-reserved",
    ],
)
def test_a_malformed_world_or_guarded_file_exits_2(tmp_path, capsys, target, edit, needle):
    """``approve`` checks the structure of the guarded file and the saved
    world where it reads them: a missing field or one of the wrong type
    exits with the validation code and one error line naming the file and
    the field, and the world file is left as it was."""
    index, _ = _walk(tmp_path, capsys, "overflow")
    path = tmp_path / f"{target}.json"
    path.write_text(json.dumps(edit(json.loads(path.read_text()))))
    world = (tmp_path / "world.json").read_text()
    code = cli.main([
        "approve", str(tmp_path / "guarded.json"), str(tmp_path / "world.json"),
        str(tmp_path / "alarms.jsonl"), "--index", str(index), "--admin", "0xAD",
    ])
    err = capsys.readouterr().err
    assert code == cli.EXIT_VALIDATION, err
    assert err.startswith(f"error: {path}: ") and err.count("\n") == 1, err
    assert needle in err, err
    assert (tmp_path / "world.json").read_text() == world


# -- mutated files -------------------------------------------------------------
# Each file the CLI reads, made valid by the walkthrough, then mutated at one
# place: a field or element dropped, or given a value of another type or out
# of range. Its loader either loads it or raises the file's typed error.

_ODD = [
    None, True, 1.5, "x", "0x", "-0x5", [], {}, -1, 0, 1 << 70, hex(1 << 70), "@nobody",
]
_TYPED = (workflow.WorkflowError, ValidationError, ConfigError)


@functools.cache
def _valid_files() -> dict:
    """A valid bundle (programs in JSON form), snapshot, world dump and alarm
    log of the reentrancy walkthrough, and the guarded bundle they belong to."""
    scenario = next(s for s in ALL_SCENARIOS if s.name == "reentrancy")
    bundle = scenario.bundle()
    snapshot = workflow.train(bundle, scenario.training)
    guarded = workflow.protect(bundle, snapshot)
    records, _index = scenario.test_sequence(random.Random(1))
    run = workflow.run_detection(guarded, records)
    assert run.alarm_log
    return {
        "bundle": {
            "contracts": [{"program": p.to_json()} for p in bundle.programs.values()],
            "boundary": sorted(bundle.boundary),
            "deploy": bundle.deploy_order,
            "accounts": [{"address": hex(a), "balance": b} for a, b in bundle.accounts.items()],
            "setup": bundle.setup,
            "config": config_to_json(bundle.config),
        },
        "snapshot": snapshot,
        "world": cli._dump_world(run.deployed),
        "alarms": [a.to_json() for a in run.alarm_log],
        "guarded": guarded,
    }


@st.composite
def _mutated(draw, name: str):
    """A copy of the valid ``name`` file with one place dropped or replaced;
    each step goes one level deeper with probability 4/5."""
    doc = copy.deepcopy(_valid_files()[name])
    parent, key, node = None, None, doc
    while isinstance(node, (dict, list)) and node and (
        parent is None or draw(st.integers(0, 4)) > 0
    ):
        key = draw(st.sampled_from(sorted(node) if isinstance(node, dict) else range(len(node))))
        parent, node = node, node[key]
    if draw(st.booleans()):
        del parent[key]
    else:
        parent[key] = draw(st.sampled_from(_ODD))
    return doc


def _load_alarms(doc) -> None:
    mask = _valid_files()["guarded"].bundle.config.mask
    for raw in doc:
        workflow.AlarmRecord.from_json(raw, mask)


_LOADERS = {
    "bundle": lambda doc: workflow.Bundle.from_json(doc),
    "snapshot": lambda doc: workflow.protect(_valid_files()["guarded"].bundle, doc),
    "world": lambda doc: cli._restore_world(doc, _valid_files()["guarded"], "world.json"),
    "alarms": _load_alarms,
}


@pytest.mark.parametrize("name", sorted(_LOADERS))
def test_a_valid_file_loads(name):
    _LOADERS[name](_valid_files()[name])


def _loads_or_raises_typed(name: str, doc) -> None:
    try:
        _LOADERS[name](doc)
    except _TYPED:
        pass


@settings(max_examples=40, deadline=None)
@given(doc=_mutated("bundle"))
def test_a_mutated_bundle_loads_or_raises_a_typed_error(doc):
    _loads_or_raises_typed("bundle", doc)


@settings(max_examples=40, deadline=None)
@given(doc=_mutated("snapshot"))
def test_a_mutated_snapshot_loads_or_raises_a_typed_error(doc):
    _loads_or_raises_typed("snapshot", doc)


@settings(max_examples=40, deadline=None)
@given(doc=_mutated("world"))
def test_a_mutated_world_loads_or_raises_a_typed_error(doc):
    _loads_or_raises_typed("world", doc)


@settings(max_examples=40, deadline=None)
@given(doc=_mutated("alarms"))
def test_a_mutated_alarm_log_loads_or_raises_a_typed_error(doc):
    _loads_or_raises_typed("alarms", doc)


def _drop_last_function(doc: dict) -> None:
    doc["contracts"][1]["program"]["functions"].pop()  # thief's fallback


def _selector_past_the_functions(doc: dict) -> None:
    table = doc["contracts"][0]["program"]["selector_table"]
    table[next(iter(table))] = 1 << 70


def _fallback_past_the_functions(doc: dict) -> None:
    doc["contracts"][0]["program"]["fallback_id"] = 9


@pytest.mark.parametrize(
    "edit, needle",
    [
        pytest.param(
            lambda doc: doc["boundary"].__setitem__(0, {}), "names no contract: {}",
            id="boundary-entry-not-a-name",
        ),
        pytest.param(
            _drop_last_function, "thief: fallback is no function: 2",
            id="fallback-to-a-dropped-function",
        ),
        pytest.param(
            _selector_past_the_functions, f"maps to no function: {1 << 70}",
            id="selector-past-the-functions",
        ),
        pytest.param(
            _fallback_past_the_functions, "fallback is no function: 9",
            id="fallback-past-the-functions",
        ),
    ],
)
def test_a_mutated_bundle_found_by_the_property_raises_a_typed_error(edit, needle):
    """Mutations that once escaped as TypeError or IndexError."""
    doc = copy.deepcopy(_valid_files()["bundle"])
    edit(doc)
    with pytest.raises(_TYPED, match=re.escape(needle)):
        _LOADERS["bundle"](doc)
