"""End-to-end CLI walkthrough, run in-process: fixture, train, protect, run, approve."""

import json
import re

import pytest

from pathguard import cli
from pathguard.fixtures import ALL_SCENARIOS


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


def test_simulate_false_alarms(tmp_path, capsys):
    _main(capsys, "fixture", "visibility", "-o", tmp_path)
    out = _main(
        capsys, "simulate-false-alarms",
        tmp_path / "visibility.bundle.json", tmp_path / "visibility.train.jsonl",
    )
    assert int(re.search(r"false alarms: (\d+)", out).group(1)) > 0
