"""Per-scenario smoke: one short randomized run each, detailed assertions."""

import random

import pytest

from pathguard.bundle import analyze_bundle
from pathguard.ccp import context_to_id, id_to_context
from pathguard.epp import index_to_path, path_to_index
from pathguard.fixtures import ALL_SCENARIOS, DELEGATECALL, REENTRANCY, by_name
from pathguard.workflow import protect, run_detection, train


@pytest.mark.parametrize("scenario", ALL_SCENARIOS, ids=lambda s: s.name)
def test_scenario_detects_as_expected(scenario):
    bundle = scenario.bundle()
    guarded = protect(bundle, train(bundle, scenario.training))
    records, alarm_index = scenario.test_sequence(random.Random(99), 40)
    run = run_detection(guarded, records)
    alarmed = sorted({a.tx_index for a in run.alarm_log})
    if scenario.detected:
        assert alarmed == [alarm_index]
        if scenario.guard_reverts_tx:
            assert run.outcomes[alarm_index].status == "GuardReverted"
    else:
        assert alarmed == []
    assert not run.recon_failures


def test_reentrancy_attack_nets_nothing():
    """The thief contract's balance never grows past its own deposit."""
    scenario = REENTRANCY
    bundle = scenario.bundle()
    guarded = protect(bundle, train(bundle, scenario.training))
    from pathguard.workflow import start_detection, run_transaction

    run = start_detection(guarded, mirror=False)
    thief = run.deployed.addresses["thief"]
    before = run.deployed.world.balance_of(thief)
    outcome = run_transaction(run, scenario.attack[0])
    assert outcome.alarms
    after = run.deployed.world.balance_of(thief)
    # the deposit (a trained shape) commits; both payouts roll back with the
    # guarded withdraw frame, so the attacker ends down its own deposit
    assert after == before - 1


def test_reentrancy_succeeds_without_guard():
    """Sanity: the unprotected vault actually loses funds to the attack."""
    scenario = REENTRANCY
    bundle = scenario.bundle()
    from pathguard.workflow import build_world, parse_tx
    from pathguard.vm import TRACE_NONE, VM

    deployed = build_world(bundle)
    for record in bundle.setup + scenario.training:
        VM(deployed.world, TRACE_NONE).execute_transaction(
            parse_tx(record, deployed, bundle)
        )
    thief = deployed.addresses["thief"]
    before = deployed.world.balance_of(thief)
    receipt = VM(deployed.world, TRACE_NONE).execute_transaction(
        parse_tx(scenario.attack[0], deployed, bundle)
    )
    assert receipt.status == "Accepted"
    gained = deployed.world.balance_of(thief) - before
    assert gained == 1  # deposited 1, withdrew 2


def test_delegatecall_alarm_names_the_library_function():
    scenario = DELEGATECALL
    bundle = scenario.bundle()
    guarded = protect(bundle, train(bundle, scenario.training))
    from pathguard.workflow import start_detection, run_transaction

    run = start_detection(guarded, mirror=False)
    outcome = run_transaction(run, scenario.attack[0])
    assert outcome.status == "GuardReverted"
    alarm = outcome.alarms[0]
    init_fid = bundle.programs["dlib"].function_by_name("init").id
    assert alarm.function == init_fid
    assert any("dlib" in step for step in alarm.context_chain)


def test_overflow_attack_blocked_state_intact():
    scenario = by_name("overflow")
    bundle = scenario.bundle()
    guarded = protect(bundle, train(bundle, scenario.training))
    from pathguard.workflow import start_detection, run_transaction

    run = start_detection(guarded, mirror=False)
    token = run.deployed.addresses["token8"]
    before = dict(run.deployed.world.accounts[token].storage)
    outcome = run_transaction(run, scenario.attack[0])
    assert outcome.status == "GuardReverted"
    assert dict(run.deployed.world.accounts[token].storage) == before


def test_token8_mapping_slots_clear_of_business_storage():
    """8-bit probe slots for every reachable pair avoid the balance slots.

    Reachable keys span the base space plus the foreign band (the fixture
    never re-enters batch/transfer, so deeper bands cannot occur).
    """
    from pathguard.asm import assemble
    from pathguard.bundle import analyze_bundle
    from pathguard.config import Config
    from pathguard.fixtures import TOKEN8_SRC
    from pathguard.pathset import mapping_slot

    config = Config(width=8)
    prog = assemble(TOKEN8_SRC, config)
    analysis = analyze_bundle({"token8": prog}, {"token8"}, config)
    business = {1, 2, 3, 0xB}
    for fn in prog.functions:
        space = analysis.index_space("token8", fn.id)
        for key in range(2 * space):
            assert mapping_slot(fn.id, key, config) not in business


@pytest.mark.parametrize("scenario", ALL_SCENARIOS, ids=lambda s: s.name)
def test_every_path_and_context_index_round_trips(scenario):
    """Index -> path -> index over every acyclic path of every protected
    function, and id -> context -> id over every calling context of every
    call-graph node: the decoders alarm review uses are exact inverses."""
    bundle = scenario.bundle()
    analysis = analyze_bundle(bundle.programs, bundle.boundary, bundle.config)
    paths = 0
    for key, cfg in analysis.cfgs.items():
        lab = analysis.epp[key]
        for index in range(lab.total_paths):
            assert path_to_index(lab, index_to_path(cfg, lab, index)) == index, (key, index)
        paths += lab.total_paths
    contexts = 0
    cg, ccp = analysis.callgraph, analysis.ccp
    for node in cg.nodes:
        for ctx in range(ccp.num_ccs[node]):
            assert context_to_id(ccp, id_to_context(cg, ccp, node, ctx)) == ctx, (node, ctx)
        contexts += ccp.num_ccs[node]
    assert paths and contexts
