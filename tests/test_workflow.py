"""Train / protect / detect / review driver behavior."""

import json
import random

import pytest

from pathguard.fixtures import DELEGATECALL, REENTRANCY, VISIBILITY, by_name
from pathguard.workflow import (
    Bundle,
    FingerprintMismatch,
    NotAdmin,
    TrainingTxFailed,
    false_alarm_simulation,
    overhead_report,
    protect,
    review_and_approve,
    run_detection,
    run_transaction,
    runtime_overhead_pct,
    start_detection,
    train,
)


@pytest.fixture(scope="module")
def visibility_setup():
    scenario = VISIBILITY
    bundle = scenario.bundle()
    snapshot = train(bundle, scenario.training)
    return scenario, bundle, snapshot


def test_training_is_deterministic(visibility_setup):
    scenario, bundle, snapshot = visibility_setup
    again = train(scenario.bundle(), scenario.training)
    assert json.dumps(snapshot, sort_keys=True) == json.dumps(again, sort_keys=True)


def test_training_rejects_reverting_tx():
    scenario = VISIBILITY
    bundle = scenario.bundle()
    bad = scenario.training + [
        {"origin": 9, "to": "registry", "fn": "governed", "calldata": [5]}
    ]
    with pytest.raises(TrainingTxFailed):
        train(bundle, bad)


def test_fingerprint_mismatch_rejected(visibility_setup):
    scenario, bundle, snapshot = visibility_setup
    stale = dict(snapshot)
    stale["fingerprint"] = "0" * 16
    with pytest.raises(FingerprintMismatch):
        protect(bundle, stale)


def test_duplicate_training_adds_no_paths(visibility_setup):
    scenario, bundle, snapshot = visibility_setup
    doubled = train(scenario.bundle(), scenario.training * 2)
    assert doubled["contracts"] == snapshot["contracts"]


def test_empty_corpus_trains_empty_sets():
    scenario = VISIBILITY
    raw = dict(scenario.bundle_json)
    raw = json.loads(json.dumps(raw))
    raw["setup"] = []
    bundle = Bundle.from_json(raw)
    snapshot = train(bundle, [])
    assert all(
        entry["safe"] == []
        for per_fn in snapshot["contracts"].values()
        for entry in per_fn.values()
    )


def test_alarm_approve_then_replay_accepts(visibility_setup):
    scenario, bundle, snapshot = visibility_setup
    guarded = protect(bundle, snapshot)
    run = start_detection(guarded)
    attack = scenario.attack[0]
    outcome = run_transaction(run, attack)
    assert outcome.status == "GuardReverted"
    assert outcome.alarms
    result = review_and_approve(run, outcome.index, bundle.config.admin)
    assert result["approved"] >= 1
    # administration gas: one fresh store per path plus bounded overhead
    assert result["gas"] >= 20000 * result["approved"]
    assert result["gas"] < 20000 * result["approved"] + 2000
    replay = run_transaction(run, attack)
    assert replay.status == "Accepted" and not replay.alarms
    # idempotent: nothing left to append
    again = review_and_approve(run, outcome.index, bundle.config.admin)
    assert again["approved"] == 0 and again["gas"] == 0


def test_not_admin_rejected(visibility_setup):
    scenario, bundle, snapshot = visibility_setup
    guarded = protect(bundle, snapshot)
    run = start_detection(guarded)
    outcome = run_transaction(run, scenario.attack[0])
    with pytest.raises(NotAdmin):
        review_and_approve(run, outcome.index, 0xDEAD)


def test_false_alarm_stream_of_identical_txs():
    scenario = VISIBILITY
    raw = json.loads(json.dumps(scenario.bundle_json))
    raw["setup"] = []
    bundle = Bundle.from_json(raw)
    same = {"origin": 2, "to": "registry", "fn": "read"}
    result = false_alarm_simulation(bundle, [same] * 8)
    assert result["alarms"] == 1


def test_false_alarm_monotone_in_stream_length():
    scenario = VISIBILITY
    raw = json.loads(json.dumps(scenario.bundle_json))
    rng = random.Random(3)
    state = scenario.fresh_state()
    stream = [scenario.sample_normal(rng, state) for _ in range(20)]
    short = false_alarm_simulation(Bundle.from_json(raw), stream[:10])["alarms"]
    full = false_alarm_simulation(Bundle.from_json(raw), stream)["alarms"]
    assert full >= short


def test_runtime_overhead_formula():
    assert round(100 * runtime_overhead_pct(22258, 41400), 1) == 86.0
    assert runtime_overhead_pct(100, 100) == 0.0


def test_overhead_report_shape(visibility_setup):
    scenario, bundle, snapshot = visibility_setup
    guarded = protect(bundle, snapshot)
    rng = random.Random(11)
    state = scenario.fresh_state()
    records = [scenario.sample_normal(rng, state) for _ in range(12)]
    run = run_detection(guarded, records)
    report = overhead_report(run)
    assert not report["gas_reconciliation_failures"]
    assert report["false_alarm_count"] == 0
    contract = report["contracts"]["registry"]
    assert contract["instrumented_size"] > contract["original_size"]
    assert contract["point_bytes_total"] == (
        contract["instrumented_size"] - contract["original_size"]
    )
    for entry in report["transactions"]:
        assert entry["status"] == "Accepted"
        assert entry["runtime_overhead_pct"] > 0
    assert report["aggregate"]["avg_runtime_overhead_pct"] > 0


def test_guarded_bundle_round_trips_to_json(visibility_setup):
    scenario, bundle, snapshot = visibility_setup
    guarded = protect(bundle, snapshot)
    raw = guarded.to_json()
    assert raw["fingerprint"] == snapshot["fingerprint"]
    assert "registry" in raw["contracts"]
    assert raw["contracts"]["registry"]["plan"]


def test_config_round_trips_through_json():
    from pathguard.config import config_from_json, config_to_json, load_config

    config = load_config(None, width=8, admin=0xBE, gas={"sload": 50}, guard={"mpht_lambda": 5})
    assert config_from_json(json.loads(json.dumps(config_to_json(config)))) == config


def test_bundle_config_load_leaves_no_temp_files(tmp_path, monkeypatch):
    import tempfile

    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    raw = dict(by_name("overflow").bundle_json)
    assert raw["config"]
    for _ in range(3):
        assert Bundle.from_json(raw).config.width == 8
    assert list(tmp_path.iterdir()) == []


def test_guarded_bundle_persists_its_config():
    scenario = by_name("overflow")
    bundle = scenario.bundle()
    guarded = protect(bundle, train(bundle, scenario.training))
    raw = json.loads(json.dumps(guarded.to_json()))
    assert Bundle.from_json({"contracts": [], "config": raw["config"]}).config == bundle.config


def _mpht_snapshot(monkeypatch, error):
    from pathguard import instrument, workflow
    from pathguard.bundle import analyze_bundle

    def failing_build(*args, **kwargs):
        raise error

    monkeypatch.setattr(instrument, "choose_strategy", lambda n: instrument.STRATEGY_MPHT)
    monkeypatch.setattr(instrument, "build_mpht", failing_build)
    bundle = VISIBILITY.bundle()
    analysis = analyze_bundle(bundle.programs, bundle.boundary, bundle.config)
    name = sorted(analysis.boundary)[0]
    return workflow.make_snapshot(analysis, {(name, 0): {0}}, bundle.config), name


def test_make_snapshot_falls_back_to_list_when_mpht_construction_fails(monkeypatch):
    from pathguard.pathset import STRATEGY_LIST, ConstructionFailed

    snapshot, name = _mpht_snapshot(monkeypatch, ConstructionFailed("no seed"))
    assert snapshot["contracts"][name]["0"]["strategy"] == STRATEGY_LIST


def test_make_snapshot_propagates_unexpected_errors(monkeypatch):
    with pytest.raises(RuntimeError):
        _mpht_snapshot(monkeypatch, RuntimeError("bug"))
