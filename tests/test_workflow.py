"""Train / protect / detect / review driver behavior."""

import itertools
import json
import math
import random
import re

import pytest
from conftest import branches_fn

from pathguard.bundle import analyze_bundle
from pathguard.config import Config
from pathguard.fixtures import (
    DELEGATECALL,
    DETECTION_SCENARIOS,
    REENTRANCY,
    TX_ORIGIN,
    VISIBILITY,
    by_name,
)
from pathguard.guardcode import CALL_MARKER, CALLEE_ALARM, GUARD_MARKER, MARKER_WORDS, Layout
from pathguard.isa import Op
from pathguard.oracle import checked_pairs_from_receipt, trace_oracle
from pathguard.pathset import MphtSpec, build_mpht, mapping_slot
from pathguard.program import ValidationError
from pathguard.vm import TRACE_FULL, TRACE_NONE, VM, WorldState
from pathguard.workflow import (
    AlarmRecord,
    Bundle,
    FingerprintMismatch,
    NotAdmin,
    TrainingTxFailed,
    WorkflowError,
    build_world,
    false_alarm_simulation,
    make_snapshot,
    overhead_report,
    parse_tx,
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
    # the width bounds the snapshot's safe keys, so it must be the bundle's
    with pytest.raises(FingerprintMismatch, match="width 128"):
        protect(bundle, dict(snapshot, width=128))


def test_duplicate_training_adds_no_paths(visibility_setup):
    """Training twice on the same stream finds the same safe keys; only
    their hits grow, by what the stream (not the setup txs) checked."""
    scenario, bundle, snapshot = visibility_setup
    doubled = train(scenario.bundle(), scenario.training * 2)
    for name, per_fn in snapshot["contracts"].items():
        for fid, entry in per_fn.items():
            twice = doubled["contracts"][name][fid]
            assert dict(twice, hits=entry["hits"]) == entry
            assert len(entry["hits"]) == len(entry["safe"])
            assert all(0 < n <= m <= 2 * n for n, m in zip(entry["hits"], twice["hits"]))


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


@pytest.mark.parametrize("scenario", [REENTRANCY, VISIBILITY], ids=lambda s: s.name)
def test_review_runs_only_the_admin_transactions(scenario, monkeypatch):
    """Review forks no world and re-runs nothing: it executes one admin
    transaction per contract the alarms name, on the live world. The
    reentrancy attack is accepted with an inner alarm; the visibility attack
    is guard-reverted."""
    bundle = scenario.bundle()
    guarded = protect(bundle, train(bundle, scenario.training))
    run = start_detection(guarded, mirror=False)
    for record in scenario.attack:
        outcome = run_transaction(run, record)
        if outcome.alarms:
            break
    assert outcome.alarms
    executed, clones = [], []
    real_execute, real_clone = VM.execute_transaction, WorldState.clone

    def execute(vm, tx):
        executed.append(tx)
        return real_execute(vm, tx)

    def clone(world):
        clones.append(world)
        return real_clone(world)

    monkeypatch.setattr(VM, "execute_transaction", execute)
    monkeypatch.setattr(WorldState, "clone", clone)
    result = review_and_approve(run, outcome.index, bundle.config.admin)
    assert clones == []
    assert sorted(tx.to for tx in executed) == sorted({a.contract for a in outcome.alarms})
    assert set(result) == {"approved", "gas"} and result["approved"] > 0
    for tx in executed:
        inst = guarded.instrumented[run.deployed.names[tx.to]]
        assert (tx.origin, tx.selector) == (bundle.config.admin, inst.admin_selector)


@pytest.mark.parametrize("scenario", [REENTRANCY, VISIBILITY], ids=lambda s: s.name)
def test_alarm_record_round_trips_through_json(scenario):
    """Every alarm of a detection run, the reentrancy fixture's inner one
    included, survives the alarm-log JSON that ``pathguard approve`` reads."""
    bundle = scenario.bundle()
    guarded = protect(bundle, train(bundle, scenario.training))
    alarms = run_detection(guarded, scenario.attack, mirror=False).alarm_log
    assert alarms and any(a.inner for a in alarms) == (scenario is REENTRANCY)
    for a in alarms:
        assert AlarmRecord.from_json(json.loads(json.dumps(a.to_json())), bundle.config.mask) == a


def test_mirror_must_share_the_guarded_world_addresses(visibility_setup, monkeypatch):
    """A stream record is parsed once, against the guarded world, and its
    transaction also runs on the mirror; so a mirror whose contracts sit at
    other addresses is refused before any transaction runs."""
    from pathguard import workflow

    _scenario, bundle, snapshot = visibility_setup
    guarded = protect(bundle, snapshot)
    deploy_guarded = workflow.deploy_guarded

    def shifted(g):
        deployed = deploy_guarded(g)
        deployed.addresses = {n: a + 1 for n, a in deployed.addresses.items()}
        return deployed

    monkeypatch.setattr(workflow, "deploy_guarded", shifted)
    with pytest.raises(WorkflowError, match="mirror addresses"):
        start_detection(guarded)
    start_detection(guarded, mirror=False)


def _state_outside_mappings(world: WorldState, skip: dict[int, set[int]]) -> dict:
    """Every account's balance and its storage but the ``skip`` slots."""
    return {
        addr: (acct.balance, {k: v for k, v in acct.storage.items() if k not in skip.get(addr, ())})
        for addr, acct in world.accounts.items()
    }


@pytest.mark.parametrize("scenario", [REENTRANCY, TX_ORIGIN], ids=lambda s: s.name)
def test_mirror_keeps_step_with_the_guarded_world(scenario):
    """An attack that alarms inside a region but is Accepted commits on the
    guarded world, so the mirror takes its state over: after every tx of a
    test sequence, both worlds hold the same balances and the same storage
    outside the guard's mapping slots."""
    bundle = scenario.bundle()
    guarded = protect(bundle, train(bundle, scenario.training))
    records, _alarm_index = scenario.test_sequence(random.Random(1), 100)
    run = start_detection(guarded)
    config = bundle.config
    skip = {
        run.deployed.addresses[name]: {
            mapping_slot(fid, key, config) for fid, key in inst.plan.preseed
        }
        for name, inst in guarded.instrumented.items()
    }
    alarmed_accepted = 0
    for index, record in enumerate(records):
        outcome = run_transaction(run, record)
        alarmed_accepted += outcome.status == "Accepted" and bool(outcome.alarms)
        assert _state_outside_mappings(run.mirror.world, skip) == _state_outside_mappings(
            run.deployed.world, skip
        ), index
    assert alarmed_accepted  # the sequence holds a tx the mirror does not run


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
    assert report["alarmed_txs"] == 0
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
    from pathguard.config import Config, GasSchedule, config_from_json, config_to_json

    config = Config(width=8, gas=GasSchedule(sload=50), admin=0xBE, mpht_lambda=5)
    raw = json.loads(json.dumps(config_to_json(config)))
    assert sorted(raw) == ["admin", "gas", "lambda", "word_width"]
    assert config_from_json(raw) == config


@pytest.mark.parametrize(
    "raw, message",
    [
        ({"word_widht": 8}, "config: unknown key 'word_widht'"),
        ({"gas": {"sload_cost": 50}}, "gas: unknown key 'sload_cost'"),
        ({"gas": {"sload": "cheap"}}, "gas.sload: not a word"),
        ({"lambda": "x"}, "lambda: not a word"),
        ({"reserved": {"no_such_tag": 1}}, "config: unknown key 'reserved'"),
        ({"reserved": {"call_marker": "0xzz"}}, "config: unknown key 'reserved'"),
        ({"admin": "ad"}, "admin: not a word"),
        ({"word_width": 12}, "word_width: unsupported width 12"),
        ([64], "config: not a JSON object"),
        ({"gas": 5}, "gas: not a JSON object"),
        ({"reserved": [1]}, "config: unknown key 'reserved'"),
        ({"gas": {"sload": 2.5}}, "gas.sload: not a word"),
        ({"word_width": 64.0}, "word_width: not a word"),
        ({"admin": True}, "admin: not a word"),
        ({"reserved": {"ctx_slot_offset": 1}}, "config: unknown key 'reserved'"),
        ({"lambda": 0}, "lambda: 0 keys per bucket"),
    ],
    ids=["top-key", "gas-key", "gas-word", "lambda-word", "reserved-key", "reserved-word",
         "admin-word", "width", "top-object", "gas-object", "reserved-object", "float-word",
         "float-width", "bool-word", "removed-ctx-slot", "lambda-zero"],
)
def test_config_errors_name_section_and_key(raw, message):
    from pathguard.config import ConfigError, config_from_json

    with pytest.raises(ConfigError) as info:
        config_from_json(raw)
    assert str(info.value).startswith(message)


def test_bundle_config_load_leaves_no_temp_files(tmp_path, monkeypatch):
    import tempfile

    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    raw = dict(by_name("overflow").bundle_json)
    assert raw["config"]
    for _ in range(3):
        assert Bundle.from_json(raw).config.width == 8
    assert list(tmp_path.iterdir()) == []


def test_bundle_validates_preassembled_programs():
    """A serialized program entry is validated at load like an assembled
    one: an ICALL to a function that does not exist is a ValidationError,
    not an IndexError when the call runs."""
    body = [["ICALL", 5], ["STOP", None]]
    fn = {"id": 0, "name": "f", "visibility": "external", "body": body}
    raw = {"contracts": [{"program": {"name": "bad", "functions": [fn], "selector_table": {"0x1": 0}}}]}
    with pytest.raises(ValidationError, match="ICALL to unknown function 5"):
        Bundle.from_json(raw)
    fn["body"] = [["STOP", None]]
    assert list(Bundle.from_json(raw).programs) == ["bad"]


def test_guarded_bundle_persists_its_config():
    scenario = by_name("overflow")
    bundle = scenario.bundle()
    guarded = protect(bundle, train(bundle, scenario.training))
    raw = json.loads(json.dumps(guarded.to_json()))
    assert Bundle.from_json({"contracts": [], "config": raw["config"]}).config == bundle.config


XOR_SRC = """
contract mask {
  fn toggle external selector=0x01 {
    PUSH 0
    SLOAD
    PUSH 0
    CALLDATALOAD
    XOR
    DUP 1
    PUSH 0
    SSTORE
    PUSH 0xF0
    AND
    JUMPI high
    PUSH 0
    PUSH 1
    RETURN
  high: JUMPDEST
    PUSH 1
    PUSH 1
    RETURN
  }
}
"""


@pytest.mark.parametrize(
    "field, patch",
    [
        ("contracts", {"contracts": [{"source": XOR_SRC}, {"source": XOR_SRC}]}),
        ("deploy", {"deploy": ["mask", "mask"]}),
        ("boundary", {"boundary": ["mask", "mask"]}),
        ("accounts", {"accounts": [{"address": 1, "balance": 5}, {"address": "0x1"}]}),
    ],
    ids=["contracts", "deploy", "boundary", "accounts"],
)
def test_bundle_refuses_a_name_or_address_listed_twice(field, patch):
    """A bundle that lists a contract, a deployed or protected name or an
    account address twice is refused, not read as its last entry."""
    raw = dict({"contracts": [{"source": XOR_SRC}]}, **patch)
    with pytest.raises(WorkflowError, match=f"field '{field}' .* twice"):
        Bundle.from_json(raw)


@pytest.mark.parametrize(
    "annotation, needle",
    [
        ("target=ghost fn=f", "field 'target' names no contract: 'ghost'"),
        ("target=callee fn=h", "field 'fn' names no function of callee: 'h'"),
        ("target=callee fn=g", "field 'fn' names an internal function of callee: 'g'"),
    ],
    ids=["unknown-target", "unknown-fn", "internal-fn"],
)
def test_bundle_refuses_a_call_annotation_that_names_nothing_callable(annotation, needle):
    """A call annotation is checked when the bundle loads: a target that is
    no contract of the bundle (once treated as unprotected in silence), a
    function its target lacks (once a KeyError in the call graph) or an
    internal one (once a call edge no selector reaches) is refused, naming
    the contract, the function, the call's offset and the field."""
    caller = (
        "contract caller { fn go external selector=0x1 "
        f"{{ PUSH 0 PUSH 0x1 PUSH 0 PUSH 0x81 CALL {annotation} POP STOP }} }}"
    )
    callee = "contract callee { fn f external selector=0x1 { STOP } fn g internal { IRET } }"
    raw = {"contracts": [{"source": caller}, {"source": callee}]}
    with pytest.raises(WorkflowError, match=f"bundle: caller.go@4: {needle}"):
        Bundle.from_json(raw)
    raw["contracts"][0]["source"] = caller.replace(annotation, "target=callee fn=f")
    assert sorted(Bundle.from_json(raw).programs) == ["callee", "caller"]


# 64 paths: a table over eight of them deploys fewer bytes than a direct one
BRANCHY_SRC = f"contract branchy {{\n{branches_fn('f', 1, 6)}}}\n"


@pytest.mark.parametrize(
    "config", [{"lambda": 2}, {"lambda": 4}, {"word_width": 16}], ids=["lambda2", "lambda4", "w16"]
)
def test_protect_builds_tables_with_the_bundles_lambda_and_width(config):
    """An embedded table has ceil(n / lambda) buckets for the bundle's
    lambda and is built at the bundle's width, not at the defaults."""
    bundle = Bundle.from_json({"contracts": [{"source": BRANCHY_SRC}], "config": config})
    analysis = analyze_bundle(bundle.programs, bundle.boundary, bundle.config)
    assert analysis.num_paths("branchy", 0) >= 8
    keys = range(8)
    snapshot = make_snapshot(analysis, {("branchy", 0): dict.fromkeys(keys, 1)})
    spec = protect(bundle, snapshot).instrumented["branchy"].plan.specs[0]
    lam, width = bundle.config.mpht_lambda, bundle.config.width
    assert isinstance(spec, MphtSpec) and spec.m == math.ceil(8 / lam)
    assert spec.seed < 1 << width
    assert spec == build_mpht(keys, lam, width=width)


@pytest.mark.parametrize(
    "lists,t_branches,demoted",
    [
        (62, 6, {62: "248..260"}),
        (63, 3, {63: "252..259"}),
        (70, 3, {**dict.fromkeys(range(64, 70), "256..259"), 70: "256..263"}),
    ],
    ids=["table-wraps", "direct-wraps", "list-immediate"],
)
def test_width8_pool_words_past_the_top_address_go_to_the_mapping(lists, t_branches, demoted):
    """At width 8 a checker addresses its pool words with 8-bit PUSHes and
    ADDs. ``lists`` two-branch functions trained on their 4 paths fill 4
    words each; ``t`` trained on 8 paths is a table over 64 paths or a
    direct table over 8. A set whose words would pass word 255 goes to the
    mapping, so protect succeeds and no trained tx alarms."""
    src = "contract many {\n" + "".join(branches_fn(f"f{i}", i + 1, 2) for i in range(lists))
    src += branches_fn("t", lists + 1, t_branches) + "}\n"
    bundle = Bundle.from_json({"contracts": [{"source": src}], "config": {"word_width": 8}})

    def txs(fn, branches, n):
        arms = itertools.islice(itertools.product((0, 1), repeat=branches), n)
        return [{"origin": 1, "to": "many", "fn": fn, "calldata": list(a)} for a in arms]

    trained = [tx for i in range(lists) for tx in txs(f"f{i}", 2, 4)] + txs("t", t_branches, 8)
    guarded = protect(bundle, train(bundle, trained))
    inst = guarded.instrumented["many"]
    assert len(inst.program.data_pool) <= 256
    assert inst.plan.demoted == {
        fid: f"pool words {words} lie past the top address 255" for fid, words in demoted.items()
    }
    run = run_detection(guarded, trained)
    assert {(o.status, len(o.alarms)) for o in run.outcomes} == {("Accepted", 0)}


# ``JUMPI a`` and ``JUMPI z`` target their own fall-through: both arms of
# each reach the same block.
SAME_TARGET_SRC = """
contract same {
  fn probe external selector=0x1 {
    PUSH 0
    CALLDATALOAD
    JUMPI a
  a: JUMPDEST
    STOP
  }
  fn f external selector=0x2 {
    PUSH 0
    CALLDATALOAD
    JUMPI x
    JUMP y
  x: JUMPDEST
    PUSH 1
    POP
    JUMP z
  y: JUMPDEST
    PUSH 1
    CALLDATALOAD
    JUMPI z
  z: JUMPDEST
    STOP
  }
}
"""


@pytest.mark.parametrize("width", [8, 64])
def test_jumpi_to_its_own_fall_through_trains_and_detects_alike(width):
    """A JUMPI whose target is its fall-through is one path edge, and its
    increment runs on both arms. ``probe`` trained on both arms has one
    safe path, and both are accepted. In ``f`` the path through ``y`` is
    trained less than the one through ``x``, so the increment lands on
    ``JUMPI z``; an arm of it that training never took is accepted, and an
    untrained path still alarms."""
    config = {"word_width": width}
    bundle = Bundle.from_json({"contracts": [{"source": SAME_TARGET_SRC}], "config": config})

    def tx(fn, *calldata):
        return {"origin": 1, "to": "same", "fn": fn, "calldata": list(calldata)}

    probe = [tx("probe", 0), tx("probe", 1)]
    snapshot = train(bundle, probe + [tx("f", 1, 0)] * 3 + [tx("f", 0, 0)])
    assert [len(fn["safe"]) for fn in snapshot["contracts"]["same"].values()] == [1, 2]
    guarded = protect(bundle, snapshot)
    points = guarded.instrumented["same"].points
    assert [p.payload for p in points if p.kind == "Branch"] == [{"val": (1 << width) - 1}]
    assert [p.site for p in points if p.kind == "Branch"] == [("f", 11)]  # JUMPI z
    run = run_detection(guarded, probe + [tx("f", a, b) for a in (0, 1) for b in (0, 1)])
    assert [(o.status, len(o.alarms)) for o in run.outcomes] == [("Accepted", 0)] * 6
    guarded = protect(bundle, train(bundle, [tx("f", 1, 0)]))
    run = run_detection(guarded, [tx("f", 0, 0), tx("f", 0, 1)])
    assert [(o.status, len(o.alarms)) for o in run.outcomes] == [("GuardReverted", 1)] * 2


def test_make_snapshot_refuses_a_config_not_the_analysis():
    bundle = Bundle.from_json({"contracts": [{"source": XOR_SRC}]})
    analysis = analyze_bundle(bundle.programs, bundle.boundary, bundle.config)
    with pytest.raises(WorkflowError, match="not the analysis's config"):
        make_snapshot(analysis, {}, Config(width=16))
    assert make_snapshot(analysis, {}, bundle.config) == make_snapshot(analysis, {})


def test_contract_using_xor_is_protected_and_reconciles():
    """XOR is an ordinary ALU op: a contract that uses it is analyzed,
    trained, rewritten and run with exact gas reconciliation, and an
    untrained arm behind it still alarms."""
    bundle = Bundle.from_json({"contracts": [{"source": XOR_SRC}]})
    assert any(i.op is Op.XOR for i in bundle.programs["mask"].functions[0].body)
    toggle = [{"origin": 1, "to": "mask", "fn": "toggle", "calldata": [v]} for v in (1, 2, 6, 0x10)]
    guarded = protect(bundle, train(bundle, toggle[:2]))
    run = run_detection(guarded, toggle)
    assert [o.status for o in run.outcomes] == ["Accepted"] * 3 + ["GuardReverted"]
    assert [o.receipt.return_data for o in run.outcomes[:3]] == [[0], [0], [0]]
    assert [len(o.alarms) for o in run.outcomes] == [0, 0, 0, 1]
    assert run.deployed.world.accounts[run.deployed.addresses["mask"]].storage == {0: 5}
    report = overhead_report(run)
    assert not report["gas_reconciliation_failures"]
    assert [t["gas_orig"] is not None for t in report["transactions"]] == [True] * 3 + [False]


def test_delegatecall_guard_gas_lands_on_library_points():
    """A DELEGATECALL runs the library's code in the proxy's account. Guard
    gas is attributed by code, not by account, so the library frame's gas
    lands on the library's points, and the totals reconcile exactly. A
    point's hits count the txs in which it charged gas."""
    bundle = DELEGATECALL.bundle()
    guarded = protect(bundle, train(bundle, DELEGATECALL.training))
    run = run_detection(guarded, DELEGATECALL.training * 3)
    reconciled = [o for o in run.outcomes if o.gas_orig is not None]
    assert len(reconciled) == 6 and not run.recon_failures
    assert sum(run.point_gas.values()) == sum(o.gas_instr - o.gas_orig for o in reconciled)
    # no tx targets the library, so its points charge only in proxy frames
    library = {kind: gas for (name, kind), gas in run.point_gas.items() if name == "dlib"}
    assert library["ContractWrapper"] > 0 and library["PathSetCheck"] > 0
    for (name, kind), hits in run.point_hits.items():
        points = sum(p.kind == kind for p in guarded.instrumented[name].points)
        # every tx takes the same path, so each charges the same points
        assert hits % len(reconciled) == 0 and 0 < hits <= points * len(reconciled)


def _mpht_snapshot(monkeypatch, error):
    from pathguard import instrument, workflow
    from pathguard.bundle import analyze_bundle

    def failing_build(*args, **kwargs):
        raise error

    monkeypatch.setattr(instrument, "choose_strategy", lambda n: instrument.STRATEGY_MPHT)
    monkeypatch.setattr(instrument, "build_mpht", failing_build)
    bundle = VISIBILITY.bundle()
    analysis = analyze_bundle(bundle.programs, bundle.boundary, bundle.config)
    name = analysis.code_names[0]
    return workflow.make_snapshot(analysis, {(name, 0): {0: 1}}, bundle.config), name


def test_make_snapshot_falls_back_to_list_when_mpht_construction_fails(monkeypatch):
    from pathguard.pathset import STRATEGY_LIST, ConstructionFailed

    snapshot, name = _mpht_snapshot(monkeypatch, ConstructionFailed("no seed"))
    assert snapshot["contracts"][name]["0"]["strategy"] == STRATEGY_LIST


def test_make_snapshot_propagates_unexpected_errors(monkeypatch):
    with pytest.raises(RuntimeError):
        _mpht_snapshot(monkeypatch, RuntimeError("bug"))


def _thief_reentering_with(calldata: list[int]) -> str:
    """The reentrancy fixture's thief, its fallback re-entering ``withdraw``
    with ``calldata`` instead of none."""
    from pathguard.fixtures import THIEF_SRC

    head, fallback = THIEF_SRC.split("fn fallback")
    pushes = "".join(f"    PUSH {word:#x}\n" for word in reversed(calldata))
    call = "    PUSH 0\n    PUSH 0x12\n"
    assert call in fallback
    return head + "fn fallback" + fallback.replace(
        call, f"{pushes}    PUSH {len(calldata)}\n    PUSH 0x12\n", 1
    )


@pytest.mark.parametrize(
    "forged",
    [
        False,
        pytest.param(
            True,
            marks=pytest.mark.xfail(
                strict=True,
                raises=AssertionError,
                reason="the entry routine trusts any caller whose calldata starts with "
                "the call marker, so a forged marker entry is never reentrant",
            ),
        ),
    ],
    ids=["plain", "forged-marker"],
)
def test_reentry_through_unprotected_contract_alarms(forged):
    """The thief's reentry into the vault alarms and the vault keeps its
    funds, also when the thief prefixes its calldata with the call marker."""
    raw = json.loads(json.dumps(REENTRANCY.bundle_json))
    marker = CALL_MARKER
    if forged:
        raw["contracts"][1]["source"] = _thief_reentering_with(
            [marker] + [0] * (MARKER_WORDS - 1)
        )
    bundle = Bundle.from_json(raw)
    guarded = protect(bundle, train(bundle, REENTRANCY.training))
    run = start_detection(guarded, mirror=False)
    assert not run_transaction(run, REENTRANCY.training[0]).alarms  # a user deposit
    world, vault = run.deployed.world, run.deployed.addresses["vault"]
    before = world.accounts[vault].balance
    outcome = run_transaction(run, REENTRANCY.attack[-1])
    assert outcome.alarms
    assert world.accounts[vault].balance >= before


# ROADMAP item 1: the entry routine enters marker mode for any calldata that
# starts with the marker, so the forged entry is never classified
_FORGED_MARKER_BYPASS = {"delegatecall", "overflow", "unchecked_send", "visibility"}


@pytest.mark.parametrize(
    "scenario",
    [
        pytest.param(
            s,
            id=s.name,
            marks=[
                pytest.mark.xfail(
                    strict=True,
                    raises=AssertionError,
                    reason="a direct tx with a forged marker prefix enters marker mode, "
                    "which never guard-reverts (ROADMAP item 1)",
                )
            ] if s.name in _FORGED_MARKER_BYPASS else [],
        )
        for s in DETECTION_SCENARIOS
    ],
)
def test_forged_marker_prefix_gains_a_direct_attack_nothing(scenario):
    """From the same trained, protected start, the scenario's last attack tx
    sent with the protocol's own prefix, [CALL_MARKER, 0], in front of its
    calldata alarms whenever the plain attack does, and leaves the world as
    the plain attack does."""
    bundle = scenario.bundle()
    guarded = protect(bundle, train(bundle, scenario.training))
    *lead, last = scenario.attack
    prefix = [CALL_MARKER & bundle.config.mask] + [0] * (MARKER_WORDS - 1)
    forged = dict(last, calldata=prefix + list(last.get("calldata", [])))
    ends = []
    for record in (last, forged):
        run = start_detection(guarded, mirror=False)
        for earlier in lead:
            run_transaction(run, earlier)
        outcome = run_transaction(run, record)
        ends.append((bool(outcome.alarms), run.deployed.world.dump()))
    (plain_alarmed, plain_world), (forged_alarmed, forged_world) = ends
    assert plain_alarmed
    assert forged_alarmed
    assert forged_world == plain_world


BOX_SRC = """
contract box {
  fn put external selector=0x31 {
    PUSH 1
    CALLDATALOAD
    PUSH 2
    CALLDATALOAD
    MSTORE
    PUSH 0
    CALLDATALOAD
    JUMPI keep
    STOP
  keep: JUMPDEST
    PUSH 1
    PUSH 0
    SSTORE
    STOP
  }
}
"""


@pytest.mark.parametrize(
    "guard_word",
    [
        False,
        pytest.param(
            True,
            marks=pytest.mark.xfail(
                strict=True,
                raises=AssertionError,
                reason="original code can store to any computed memory address, guard "
                "words included; only literal pushes are refused (ROADMAP item 11)",
            ),
        ),
    ],
    ids=["plain-address", "cdoff-word"],
)
def test_original_code_cannot_reach_guard_memory(guard_word):
    """``box.put`` stores calldata[1] at the memory address calldata[2] and
    writes storage only when calldata[0] is set, a path training never took.
    Taking that path guard-reverts and keeps storage empty, also when the
    stored word lands on the guard's calldata-offset word: setting it, the
    one record of a marker entry, must not turn the guard revert into a
    marker return."""
    bundle = Bundle.from_json({"contracts": [{"source": BOX_SRC}]})
    put = {"origin": 1, "to": "box", "fn": "put"}
    guarded = protect(bundle, train(bundle, [dict(put, calldata=[0, 7, 5])]))
    run = start_detection(guarded, mirror=False)
    address = Layout(bundle.config.width).cdoff if guard_word else 5
    outcome = run_transaction(run, dict(put, calldata=[1, 1, address]))
    assert (outcome.status, len(outcome.alarms)) == ("GuardReverted", 1)
    assert run.deployed.world.accounts[run.deployed.addresses["box"]].storage == {}


@pytest.mark.parametrize(
    "scenario, chain_mark",
    [
        # the mark is the chain's first entry (reentrancy) or its last
        pytest.param(REENTRANCY, "<reentry via unprotected call>", id="reentrancy"),
        pytest.param(DELEGATECALL, "proxy.fn1@5 -> dlib.fn0", id="delegatecall"),
    ],
)
def test_same_account_frame_alarm_reaches_boundary_payload(scenario, chain_mark):
    """The attack's anomaly is raised in a frame sharing the boundary frame's
    account (a reentrant vault frame, a DELEGATECALL-reached library), and
    the boundary frame's guard revert reports that frame's own pair, read
    from the one transient alarm buffer."""
    bundle = scenario.bundle()
    guarded = protect(bundle, train(bundle, scenario.training))
    run = start_detection(guarded, mirror=False)
    outcome = run_transaction(run, scenario.attack[-1])
    boundary = "vault" if scenario is REENTRANCY else "proxy"
    (alarm,) = outcome.alarms
    assert alarm.contract == run.deployed.addresses[boundary]
    assert chain_mark in (alarm.context_chain[0], alarm.context_chain[-1])
    assert alarm.combined_id != CALLEE_ALARM & bundle.config.mask


def test_top_level_delegatecall_frame_takes_the_direct_band():
    """A frame reached by DELEGATECALL from the transaction's entry frame
    runs with the origin as CALLER, so its entry routine takes the direct band,
    and so does the oracle. With only the library protected, detection
    checks the pairs training recorded: no alarm, and the proxy's storage
    matches the unguarded world's."""
    raw = json.loads(json.dumps(DELEGATECALL.bundle_json))
    raw["boundary"] = ["dlib"]
    bundle = Bundle.from_json(raw)
    work = [
        {"origin": o, "to": "proxy", "fn": "fallback", "calldata": [0x32]} for o in (1, 2, 3)
    ]
    guarded = protect(bundle, train(bundle, work))
    run = start_detection(guarded, mirror=False)
    plain = build_world(bundle)
    for record in bundle.setup:
        VM(plain.world, TRACE_NONE).execute_transaction(parse_tx(record, plain, bundle))
    for record in work:
        ref = VM(plain.world, TRACE_FULL).execute_transaction(parse_tx(record, plain, bundle))
        outcome = run_transaction(run, record)
        expected = trace_oracle(ref.trace, guarded.analysis, ref.status)
        assert checked_pairs_from_receipt(outcome.receipt) == expected
        assert (outcome.status, outcome.alarms) == ("Accepted", [])
    proxy = hex(plain.addresses["proxy"])
    assert run.deployed.world.dump()[proxy]["storage"] == plain.world.dump()[proxy]["storage"]


TWO_HOP_JSON = {
    "contracts": [
        {
            "source": """
contract front {
  fn set_back external selector=0x3f {
    PUSH 0
    CALLDATALOAD
    PUSH 0
    SSTORE
    STOP
  }
  fn go external selector=0x01 {
    PUSH 0
    CALLDATALOAD
    PUSH 1
    PUSH 0x02
    PUSH 0
    PUSH 0
    SLOAD
    CALL target=back
    POP
    STOP
  }
}
"""
        },
        {
            "source": """
contract back {
  fn step external selector=0x02 {
    PUSH 0
    CALLDATALOAD
    JUMPI big
    STOP
  big: JUMPDEST
    PUSH 1
    PUSH 0
    SSTORE
    STOP
  }
}
"""
        },
    ],
    "boundary": ["front", "back"],
    "setup": [{"origin": 1, "to": "front", "fn": "set_back", "calldata": ["@back"]}],
}


def test_call_reached_callee_miss_reports_labelled_sentinel():
    """A protected callee reached by CALL misses: its entry stays in its own
    account's buffer, so the caller's guard revert carries the all-ones
    sentinel, labelled as the callee's anomaly."""
    bundle = Bundle.from_json(json.loads(json.dumps(TWO_HOP_JSON)))
    go = [{"origin": 1, "to": "front", "fn": "go", "calldata": [v]} for v in (0, 0, 1)]
    guarded = protect(bundle, train(bundle, go[:1]))
    run = start_detection(guarded, mirror=False)
    outcomes = [run_transaction(run, record) for record in go[1:]]
    assert [o.status for o in outcomes] == ["Accepted", "GuardReverted"]
    (alarm,) = outcomes[1].alarms
    assert alarm.contract == run.deployed.addresses["front"]
    assert alarm.function == 1  # go
    assert alarm.combined_id == CALLEE_ALARM & bundle.config.mask
    assert alarm.context_chain == ["<protected callee reached by CALL raised the anomaly>"]


FORGER_SRC = """
contract p {
  fn go external selector=0x1 {
    PUSH 0
    PUSH 0x5
    PUSH 0
    PUSH 0
    CALLDATALOAD
    CALL target=evil
    POP
    STOP
  }
}
"""


def _evil_src(payload: list[int]) -> str:
    pushes = "".join(f"    PUSH {word:#x}\n" for word in reversed(payload))
    body = f"{pushes}    PUSH {len(payload)}\n    REVERT\n"
    return "contract evil {\n  fn f external selector=0x5 {\n%s  }\n}\n" % body


@pytest.mark.parametrize(
    "code_id, fid", [(99, 0), (0, 7), (0, 0)], ids=["bad-code-id", "bad-fid", "valid-ids"]
)
def test_forged_guard_payload_raises_no_alarm(code_id, fid):
    """An unprotected contract that reverts with the guard marker and a made-up
    alarm entry is no guard revert: only the exit routine of instrumented
    code raises alarms. Caught by the protected caller, or ending the tx, the
    forged payload gives no alarm and no exception."""
    marker = GUARD_MARKER
    evil = _evil_src([marker, 1, 0x100, code_id, fid, 5])
    bundle = Bundle.from_json(
        {"contracts": [{"source": FORGER_SRC}, {"source": evil}], "boundary": ["p"]}
    )
    call = {"origin": 1, "to": "p", "fn": "go", "calldata": ["@evil"]}
    guarded = protect(bundle, train(bundle, [call]))
    run = start_detection(guarded)
    caught = run_transaction(run, call)
    assert (caught.status, caught.alarms) == ("Accepted", [])
    assert caught.receipt.trace[0].get("data")[0] == marker  # the forged revert was seen
    direct = run_transaction(run, {"origin": 1, "to": "evil", "fn": "f"})
    assert (direct.status, direct.alarms) == ("Reverted", []) and not run.alarm_log
    with pytest.raises(WorkflowError, match="no alarms recorded"):
        review_and_approve(run, caught.index, bundle.config.admin)


P_SRC = """
contract p {
  fn go external selector=0x1 {
    PUSH 0
    PUSH 0x5
    PUSH 0
    CALLDATALOAD    ; lib's address
    DELEGATECALL target=lib
    POP
    PUSH 1
    CALLDATALOAD
    JUMPI odd
    STOP
  odd: JUMPDEST
    STOP
  }
}
"""

LIB_SRC = """
contract lib {
  fn f external selector=0x5 {
    PUSH 1
    PUSH 1
    TSTORE          ; one alarm entry in the buffer
    PUSH 99
    PUSH 2
    TSTORE          ; code id 99
    PUSH 5
    PUSH 4
    TSTORE          ; fid 0, combined 5
    STOP
  }
}
"""


def test_alarm_entry_naming_no_protected_function_is_labelled():
    """An unprotected library reached by DELEGATECALL runs in the protected
    account and writes a made-up entry (code id 99) into its alarm buffer.
    The frame's genuine miss still guard-reverts the tx with its own alarm,
    and the made-up entry becomes a labelled record instead of an error."""
    bundle = Bundle.from_json(
        {"contracts": [{"source": P_SRC}, {"source": LIB_SRC}], "boundary": ["p"]}
    )
    calls = [{"origin": 1, "to": "p", "fn": "go", "calldata": ["@lib", v]} for v in (0, 1)]
    guarded = protect(bundle, train(bundle, calls[:1]))
    run = start_detection(guarded, mirror=False)
    outcome = run_transaction(run, calls[1])
    assert outcome.status == "GuardReverted"
    forged, genuine = outcome.alarms
    p = run.deployed.addresses["p"]
    assert (forged.contract, forged.function, forged.combined_id) == (p, 0, 5)
    assert forged.context_chain == ["<alarm entry names no protected function>"]
    assert (genuine.contract, genuine.function) == (p, 0)
    assert genuine.context_chain == ["entry -> p.fn0"] and genuine.path_blocks


@pytest.mark.parametrize("stage", ["setup", "training", "stream"])
def test_tx_whose_origin_is_a_contract_address_is_refused(stage):
    """A setup, training or stream record sent from a deployed contract's
    address raises WorkflowError naming the record and the contract: the
    guard would take a call from that contract as direct, since CALLER is
    ORIGIN, and the trace oracle as foreign."""
    import dataclasses

    bundle = REENTRANCY.bundle()
    thief = build_world(bundle).addresses["thief"]
    record = dict(REENTRANCY.training[0], origin=hex(thief))
    refused = pytest.raises(
        WorkflowError,
        match=rf"^transaction {re.escape(str(record))}: origin {hex(thief)} is the "
        "address of contract 'thief'$",
    )
    if stage == "stream":
        run = start_detection(protect(bundle, train(bundle, REENTRANCY.training)), mirror=False)
        with refused:
            run_transaction(run, record)
        return
    setup = [record] if stage == "setup" else []
    with refused:
        train(dataclasses.replace(bundle, setup=setup), [] if setup else [record])


def test_mirror_setup_failure_is_raised(visibility_setup, monkeypatch):
    """The mirror world replays the bundle's setup as the guarded world
    does, and a setup tx that is not accepted there raises WorkflowError
    naming it instead of leaving the mirror in a different state. The
    guarded deploy is stubbed to skip setup, so only the mirror runs it."""
    import dataclasses

    from pathguard import workflow

    scenario, bundle, snapshot = visibility_setup
    starved = dict(scenario.training[0], gas_limit=1)
    guarded = protect(dataclasses.replace(bundle, setup=[starved]), snapshot)
    monkeypatch.setattr(
        workflow, "deploy_guarded",
        lambda g: workflow.build_world(g.bundle, g.programs()),
    )
    with pytest.raises(WorkflowError, match=r"setup tx 0 .* on the mirror world"):
        start_detection(guarded)
    assert start_detection(guarded, mirror=False).mirror is None
