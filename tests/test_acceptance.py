"""Acceptance suite: one test per exit criterion, strict tolerances.

Each test prints a `[criterion N] PASS` line (visible with `pytest -s`);
under plain `pytest -v` the per-test PASSED/FAILED lines serve the same
purpose. Criteria are pinned: no tolerance is deferred to calibration.
"""

import random
import time

import pytest

from pathguard.asm import assemble
from pathguard.bundle import analyze_bundle
from pathguard.ccp import context_to_id, enumerate_contexts, label_ccp
from pathguard.config import Config, MAX_CODE_BYTES
from pathguard.epp import enumerate_paths, label_epp, path_to_index
from pathguard.fixtures import ALL_SCENARIOS, DETECTION_SCENARIOS, LOGIC_ERROR, by_name
from pathguard.guardcode import Layout
from pathguard.oracle import checked_pairs_from_receipt, trace_oracle
from pathguard.pathset import (
    STRATEGY_LIST,
    STRATEGY_MPHT,
    build_mpht,
    choose_strategy,
    estimate_gas,
    mpht_lookup,
)
from pathguard.program import SizeLimitExceeded
from pathguard.vm import (
    TRACE_FULL,
    TRACE_NONE,
    Transaction,
    VM,
    WorldState,
    deploy,
)
from pathguard.workflow import (
    GuardedBundle,
    build_world,
    false_alarm_simulation,
    parse_tx,
    protect,
    run_detection,
    run_transaction,
    start_detection,
    train,
)

from test_ccp import random_callgraph
from test_epp import random_dag


def _trained(scenario):
    bundle = scenario.bundle()
    snapshot = train(bundle, scenario.training)
    return bundle, protect(bundle, snapshot)


def _plain_twin(run, guarded: GuardedBundle):
    """Uninstrumented world equivalent to the guarded world's current state."""
    config = guarded.bundle.config
    reserved_lo = (1 << config.width) - 160
    world = WorldState(config)
    world.next_address = run.deployed.world.next_address
    for addr, acct in run.deployed.world.accounts.items():
        twin = world.account(addr)
        twin.balance = acct.balance
        twin.storage = {k: v for k, v in acct.storage.items() if k < reserved_lo}
        if acct.code is not None:
            twin.code = guarded.bundle.programs[acct.code.name]
    world.commit(0)
    return world


# -- criterion 1 --------------------------------------------------------------


def test_criterion_1_bijection_suites(loopy, diamond, figcg):
    """Path/context index sets equal {0..N-1} on fixtures and random graphs."""
    started = time.time()
    from pathguard.cfg import acyclicize, build_cfg

    for prog in (loopy, diamond, figcg):
        for fn in prog.functions:
            cfg = acyclicize(build_cfg(fn))
            lab = label_epp(cfg)
            ids = sorted(path_to_index(lab, p) for p in enumerate_paths(cfg))
            assert ids == list(range(lab.total_paths))
    rng = random.Random(2024)
    for _ in range(1000):
        cfg = random_dag(rng, max_vertices=12)
        lab = label_epp(cfg)
        ids = sorted(path_to_index(lab, p) for p in enumerate_paths(cfg))
        assert ids == list(range(lab.total_paths))
    from pathguard.callgraph import acyclicize_callgraph

    for _ in range(200):
        cg = acyclicize_callgraph(random_callgraph(rng, max_fns=8))
        lab = label_ccp(cg)
        for node in cg.nodes:
            ids = sorted(
                context_to_id(lab, chain) for chain in enumerate_contexts(cg, node)
            )
            assert ids == list(range(lab.num_ccs[node]))
    elapsed = time.time() - started
    assert elapsed < 10.0, f"bijection suites took {elapsed:.1f}s"
    print(f"\n[criterion 1] PASS - bijections exact on 1000 DAGs + 200 call graphs "
          f"({elapsed:.1f}s)")


# -- criterion 2 --------------------------------------------------------------


def test_criterion_2_paper_anchored_constants(figcg):
    from pathguard.callgraph import acyclicize_callgraph, build_call_graph

    cg = acyclicize_callgraph(build_call_graph({"figcg": figcg}, {"figcg"}))
    lab = label_ccp(cg)
    assert lab.num_ccs[("figcg", 2)] == 4  # shared callee on the reference shape

    config = Config()
    for n in range(11):
        assert estimate_gas(STRATEGY_LIST, n, config).deploy_gas == 1600 * n + 2800
    assert choose_strategy(5) == STRATEGY_LIST
    assert choose_strategy(6) == STRATEGY_MPHT
    assert config.gas.sstore_cost(0, 7) == 20000
    assert config.gas.sstore_cost(5, 7) == 5000
    assert config.gas.code_deposit_per_byte == 200
    assert MAX_CODE_BYTES == 24576
    world = WorldState(config)
    prog = assemble("contract t { fn f external { STOP } }")
    deploy(world, prog, 0xD0)
    assert world.deploy_log[-1][1] == prog.byte_size * 200
    big = assemble(
        "contract b { fn f external { %s STOP } }" % ("PUSH 0 POP " * 2500)
    )
    with pytest.raises(SizeLimitExceeded):
        deploy(world, big, 0xD0)
    print("\n[criterion 2] PASS - NumCCs=4, 1600n+2800, boundary 6, 20000/5000, "
          "200/byte, 24576 limit")


# -- criteria 3 and 7 ------------------------------------------------------------


@pytest.mark.parametrize("scenario", ALL_SCENARIOS, ids=lambda s: s.name)
def test_criterion_3_oracle_equivalence(scenario):
    """Instrumented check sequence equals the trace oracle on every tx.

    Every transaction (attack included) is replayed from an equivalent
    uninstrumented pre-state; the comparison is exact.
    """
    bundle, guarded = _trained(scenario)
    run = start_detection(guarded, mirror=False)
    records, _ = scenario.test_sequence(random.Random(31337), 100)
    analysis = guarded.analysis
    mismatches = 0
    for record in records:
        twin = _plain_twin(run, guarded)
        twin_deployed = type(run.deployed)(
            twin, dict(run.deployed.addresses), dict(run.deployed.names)
        )
        tx = parse_tx(record, twin_deployed, bundle)
        plain = VM(twin, TRACE_FULL).execute_transaction(tx)
        expected = trace_oracle(plain.trace, analysis, plain.status)
        outcome = run_transaction(run, record)
        got = checked_pairs_from_receipt(outcome.receipt)
        if got != expected:
            mismatches += 1
    assert mismatches == 0
    print(f"\n[criterion 3] PASS - {scenario.name}: 100/100 transactions match the "
          "oracle exactly")


@pytest.mark.parametrize("scenario", DETECTION_SCENARIOS + [LOGIC_ERROR], ids=lambda s: s.name)
def test_criterion_7_observational_equivalence(scenario):
    """Accepted alarm-free txs agree on status, return data, non-reserved
    storage; the gas delta reconciles per-point to the exact unit."""
    bundle, guarded = _trained(scenario)
    run = start_detection(guarded, mirror=True)
    records, _ = scenario.test_sequence(random.Random(777), 100)
    reserved_lo = (1 << bundle.config.width) - 160
    checked = 0
    for record in records:
        twin = _plain_twin(run, guarded)
        twin_deployed = type(run.deployed)(
            twin, dict(run.deployed.addresses), dict(run.deployed.names)
        )
        tx = parse_tx(record, twin_deployed, bundle)
        plain = VM(twin, TRACE_FULL).execute_transaction(tx)
        outcome = run_transaction(run, record)
        if outcome.status == "Accepted" and not outcome.alarms:
            checked += 1
            assert plain.status == "Accepted"
            assert outcome.receipt.return_data == plain.return_data
            for addr, acct in twin.accounts.items():
                guarded_acct = run.deployed.world.accounts.get(addr)
                g_storage = {
                    k: v
                    for k, v in (guarded_acct.storage if guarded_acct else {}).items()
                    if k < reserved_lo
                }
                assert g_storage == acct.storage, f"storage diverged at {addr:#x}"
    assert not run.recon_failures, f"gas reconciliation failed: {run.recon_failures}"
    assert checked >= 90
    print(f"\n[criterion 7] PASS - {scenario.name}: {checked} accepted txs "
          "equivalent, gas reconciled exactly")


# -- criterion 4 --------------------------------------------------------------


@pytest.mark.parametrize("scenario", DETECTION_SCENARIOS, ids=lambda s: s.name)
def test_criterion_4_detection_recall(scenario):
    """100% recall over 100 randomized sequences; byte-exact rollback on
    every guard-reverted transaction."""
    started = time.time()
    bundle, guarded = _trained(scenario)
    detected = 0
    sequences = 100
    for seq in range(sequences):
        rng = random.Random(10_000 + seq)
        records, alarm_index = scenario.test_sequence(rng, 100)
        run = start_detection(guarded, mirror=False)
        hit = False
        for i, record in enumerate(records):
            snapshot = run.deployed.world.dump() if i == alarm_index else None
            outcome = run_transaction(run, record)
            if outcome.alarms and i == alarm_index:
                hit = True
            if outcome.status == "GuardReverted":
                assert run.deployed.world.dump() == snapshot or snapshot is None
                if snapshot is not None:
                    assert run.deployed.world.dump() == snapshot
            assert not (outcome.alarms and i != alarm_index), (
                f"false alarm at tx {i} in sequence {seq}"
            )
        if hit:
            detected += 1
    assert detected == sequences, f"{scenario.name}: recall {detected}/{sequences}"
    print(f"\n[criterion 4] PASS - {scenario.name}: recall 100/100 "
          f"({time.time() - started:.1f}s)")


# -- criterion 5 --------------------------------------------------------------


def test_criterion_5_known_miss_honesty():
    """Coincidentally correct logic error is NOT detected (expected miss)."""
    scenario = LOGIC_ERROR
    bundle, guarded = _trained(scenario)
    for seq in range(25):
        records, alarm_index = scenario.test_sequence(random.Random(500 + seq), 100)
        run = run_detection(guarded, records, mirror=False)
        assert not run.alarm_log, "logic-error fixture unexpectedly detected"
        attack = run.outcomes[alarm_index]
        assert attack.status == "Accepted"
    # the attack really corrupts state: the grant lands despite intent
    run = start_detection(guarded, mirror=False)
    gate = run.deployed.addresses["gate"]
    run_transaction(run, scenario.attack[0])
    assert run.deployed.world.sload(gate, 3) == 1
    print("\n[criterion 5] PASS - logic-error attack rides a trained path "
          "(expected miss, asserted)")


# -- criterion 6 --------------------------------------------------------------


def test_criterion_6_mpht_properties():
    rng = random.Random(64)
    space = 1 << 16
    keys = set(rng.sample(range(space), 6000))
    spec = build_mpht(keys)
    false_neg = sum(1 for k in keys if not mpht_lookup(spec, k))
    false_pos = sum(1 for k in range(space) if k not in keys and mpht_lookup(spec, k))
    assert false_neg == 0 and false_pos == 0
    assert build_mpht(sorted(keys)) == spec  # deterministic rebuild

    # constant check gas in the VM across three sizes
    from test_guardcode import _call_checker

    gases = set()
    for n in (10, 100, 1000):
        members = list(range(7_000_000, 7_000_000 + n))
        table = build_mpht(members)
        _, gas = _call_checker(table, members[n // 2])
        gases.add(gas)
    assert len(gases) == 1
    print(f"\n[criterion 6] PASS - 0 FN / 0 FP over 2^16 space; check gas "
          f"constant ({gases.pop()}) for n in 10/100/1000")


# -- criterion 8 --------------------------------------------------------------


def test_criterion_8_overhead_reporting():
    from pathguard.workflow import deploy_overhead_pct, overhead_report, runtime_overhead_pct

    assert abs(deploy_overhead_pct(1000, 1360) - 0.360) < 1e-12
    assert round(100 * runtime_overhead_pct(22258, 41400), 1) == 86.0

    scenario = by_name("delegatecall")
    bundle, guarded = _trained(scenario)
    records, _ = scenario.test_sequence(random.Random(88), 60)
    run = run_detection(guarded, records)
    report = overhead_report(run)
    assert not report["gas_reconciliation_failures"]
    agg = report["aggregate"]
    assert 0 < agg["avg_deploy_overhead_pct"]
    assert 0 < agg["avg_runtime_overhead_pct"]
    for name, info in report["contracts"].items():
        assert info["point_bytes_total"] == (
            info["instrumented_size"] - info["original_size"]
        )
        assert info["instrumented_size"] <= MAX_CODE_BYTES
    print(f"\n[criterion 8] PASS - formulas exact; corpus deploy "
          f"{agg['avg_deploy_overhead_pct']}% / runtime "
          f"{agg['avg_runtime_overhead_pct']}% with per-point breakdown")


# -- criterion 9 --------------------------------------------------------------


@pytest.mark.parametrize("scenario", DETECTION_SCENARIOS, ids=lambda s: s.name)
def test_criterion_9_false_alarm_workflow(scenario):
    """Cold-start alarm count equals the derived distinct-shape count;
    approve-then-replay accepts every time (enforced inside the simulation)."""
    bundle = scenario.bundle()
    rng = random.Random(4242)
    state = scenario.fresh_state()
    stream = [scenario.sample_normal(rng, state) for _ in range(60)]

    # derived expectation: replay uninstrumented, count new-pair transactions
    analysis = analyze_bundle(bundle.programs, bundle.boundary, bundle.config)
    deployed = build_world(bundle)
    seen: set = set()
    expected = 0
    for record in bundle.setup + stream:
        tx = parse_tx(record, deployed, bundle)
        receipt = VM(deployed.world, TRACE_FULL).execute_transaction(tx)
        assert receipt.status == "Accepted"
        pairs = {
            (code, fid, combined)
            for _a, code, fid, combined in trace_oracle(receipt.trace, analysis, receipt.status)
        }
        if pairs - seen:
            expected += 1
            seen |= pairs
    result = false_alarm_simulation(bundle, stream)
    assert result["alarms"] == expected
    print(f"\n[criterion 9] PASS - {scenario.name}: cold start raised exactly "
          f"{expected} alarms; every approval replayed clean")
