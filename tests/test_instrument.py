"""Rewriting: observational equivalence, size accounting, plan content, spill."""

import hashlib
import json
import random

import pytest

from pathguard.asm import assemble
from pathguard.bundle import analyze_bundle
from pathguard.config import Config
from pathguard.guardcode import Layout
from pathguard.isa import Op
from pathguard.instrument import (
    InstrumentationError,
    instrument_contract,
)
from pathguard.oracle import checked_pairs_from_receipt, trace_oracle
from pathguard.program import SizeLimitExceeded
from pathguard.vm import (
    TRACE_CHECKS,
    TRACE_FULL,
    Transaction,
    VM,
    WorldState,
    deploy,
)

CONFIG = Config()


def _pair(prog, safe_sets, config=CONFIG, boundary=None):
    name = prog.name
    analysis = analyze_bundle({name: prog}, boundary or {name}, config)
    inst = instrument_contract(name, analysis, safe_sets, config)
    return analysis, inst


def _run_both(prog, inst, tx_args, config=CONFIG):
    w1 = WorldState(config)
    a1 = deploy(w1, prog, 0xD0)
    r1 = VM(w1, TRACE_FULL).execute_transaction(Transaction(to=a1, **tx_args))
    w2 = WorldState(config)
    a2 = deploy(w2, inst.program, 0xD0)
    vm = VM(w2, TRACE_CHECKS, Layout(config.width).check_log)
    r2 = vm.execute_transaction(Transaction(to=a2, **tx_args))
    return (w1, a1, r1), (w2, a2, r2)


def _nonreserved(world, addr, config=CONFIG):
    lay = Layout(config.width)
    reserved_lo = lay.reserved_low
    return {
        k: v
        for k, v in world.accounts[addr].storage.items()
        if k < reserved_lo
    }


def test_safe_run_observationally_equivalent(loopy):
    analysis, inst = _pair(loopy, {0: {0, 1, 2, 3, 4}})
    for word in (0, 2, 8, 64):
        (w1, a1, r1), (w2, a2, r2) = _run_both(
            loopy, inst, dict(origin=1, selector=0x10, calldata=[word])
        )
        assert r2.status == r1.status == "Accepted"
        assert r2.return_data == r1.return_data
        assert _nonreserved(w1, a1) == _nonreserved(w2, a2)


def test_gas_delta_equals_injected_attribution(loopy):
    analysis, inst = _pair(loopy, {0: {0, 1, 2, 3, 4}})
    attribution = {}

    def probe(code, fid, off, amount):
        attribution[(fid, off)] = attribution.get((fid, off), 0) + amount

    w1 = WorldState(CONFIG)
    a1 = deploy(w1, loopy, 0xD0)
    r1 = VM(w1, TRACE_FULL).execute_transaction(Transaction(1, a1, 0x10, [8]))
    w2 = WorldState(CONFIG)
    a2 = deploy(w2, inst.program, 0xD0)
    r2 = VM(
        w2, TRACE_CHECKS, Layout(CONFIG.width).check_log, gas_probe=probe
    ).execute_transaction(Transaction(1, a2, 0x10, [8]))
    assert r2.status == "Accepted"
    injected_gas = sum(
        amount for key, amount in attribution.items() if key in inst.injected
    )
    assert r2.gas_used - r1.gas_used == injected_gas


def test_size_accounting_reconciles(loopy, diamond, figcg):
    """instrumented - original == sum of per-point code and blob bytes."""
    for prog in (loopy, diamond, figcg):
        analysis, inst = _pair(prog, {})
        point_bytes = sum(p.code_bytes + p.blob_bytes for p in inst.points)
        assert inst.instrumented_size - inst.original_size == point_bytes


def test_deploy_overhead_formula():
    assert abs((1360 / 1000 - 1) - 0.36) < 1e-12


def test_loopy_plan_covers_all_nonzero_values(loopy):
    """Every nonzero edge value is realized: the real edge 1->5 as a Branch
    point, the surrogate values as backedge reset/exit payloads."""
    analysis, inst = _pair(loopy, {0: set()})
    branches = [p for p in inst.points if p.kind == "Branch"]
    assert [p.payload["val"] for p in branches] == [2]  # the 1->5 edge
    backedges = [p for p in inst.points if p.kind == "Backedge"]
    assert len(backedges) == 2
    assert {p.payload["reset"] for p in backedges} == {0, 3}  # ENTRY->1, ENTRY->3
    assert {p.payload["exit_val"] for p in backedges} == {0, 1}  # 4->EXIT, 3->EXIT


def test_straight_line_plan_minimal():
    prog = assemble("contract t { fn f external selector=0x1 { PUSH 1 POP STOP } }")
    analysis, inst = _pair(prog, {0: set()})
    kinds = [p.kind for p in inst.points]
    assert kinds.count("Branch") == 0
    assert kinds.count("Backedge") == 0
    assert kinds.count("ContractWrapper") >= 1
    assert kinds.count("PathSetCheck") >= 1
    listing = inst.plan_listing()
    assert "ContractWrapper" in listing and "PathSetCheck" in listing


def test_instrumented_program_disassembles(loopy):
    from pathguard.asm import assemble as asm2, disassemble

    analysis, inst = _pair(loopy, {0: {0, 1, 2, 3, 4}})
    text = disassemble(inst.program)
    again = asm2(text)
    assert again.to_json()["functions"] == inst.program.to_json()["functions"]


def test_reserved_literal_collision_rejected():
    top = (1 << 64) - 20
    prog = assemble(
        "contract t { fn f external { PUSH %d POP STOP } }" % top
    )
    with pytest.raises(InstrumentationError, match="reserved"):
        _pair(prog, {0: set()})


def test_randomized_safe_transactions_equivalent(loopy):
    analysis, inst = _pair(loopy, {0: {0, 1, 2, 3, 4}})
    rng = random.Random(5)
    for _ in range(25):
        word = rng.randrange(0, 1 << 16)
        args = dict(origin=rng.choice([1, 2, 3]), selector=0x10, calldata=[word])
        (w1, a1, r1), (w2, a2, r2) = _run_both(loopy, inst, args)
        assert r2.status == r1.status
        assert r2.return_data == r1.return_data
        assert _nonreserved(w1, a1) == _nonreserved(w2, a2)


def test_spill_to_mapping_keeps_acceptance():
    """A safe set too large to embed moves to the mapping preseed."""
    prog = assemble(
        """
        contract fat { fn f external selector=0x1 {
          PUSH 0
          CALLDATALOAD
          JUMPI one
          STOP
        one: JUMPDEST
          STOP
        } }
        """
    )
    config = CONFIG
    analysis = analyze_bundle({"fat": prog}, {"fat"}, config)
    space = analysis.index_space("fat", 0)
    assert space == 2
    # force a spill by faking a byte budget: instrument with a huge set via
    # a low-level call into the planner
    from pathguard import instrument as instr_mod

    real_limit = instr_mod.MAX_CODE_BYTES
    inst = instrument_contract("fat", analysis, {0: {0, 1}}, config)
    assert not inst.mapping_preseed
    try:
        instr_mod.MAX_CODE_BYTES = inst.instrumented_size - 1
        spilled = instrument_contract("fat", analysis, {0: {0, 1}}, config)
    finally:
        instr_mod.MAX_CODE_BYTES = real_limit
    assert spilled.mapping_preseed == [(0, 0), (0, 1)]
    assert spilled.instrumented_size < inst.instrumented_size
    # the spilled bundle still accepts both trained paths via the mapping
    world = WorldState(config)
    addr = deploy(world, spilled.program, 0xD0)
    from pathguard.vm import execute_transaction

    admin_tx = Transaction(
        config.admin, addr, spilled.admin_selector, spilled.preseed_calldata(config)
    )
    assert execute_transaction(world, admin_tx).status == "Accepted"
    for word in (0, 1):
        receipt = execute_transaction(world, Transaction(1, addr, 0x1, [word]))
        assert receipt.status == "Accepted"


def test_size_limit_spill_failure():
    body = "PUSH 1 POP " * 2350 + "STOP"
    prog = assemble("contract big { fn f external selector=0x1 { %s } }" % body)
    analysis = analyze_bundle({"big": prog}, {"big"}, CONFIG)
    with pytest.raises(SizeLimitExceeded):
        instrument_contract("big", analysis, {0: set()}, CONFIG)


def test_attack_transaction_guard_reverts(loopy):
    """Anything outside the trained set rolls the transaction back."""
    analysis, inst = _pair(loopy, {0: {0, 2}})  # train only two paths
    w = WorldState(CONFIG)
    addr = deploy(w, inst.program, 0xD0)
    before = w.dump()
    vm = VM(w, TRACE_CHECKS, Layout(CONFIG.width).check_log)
    receipt = vm.execute_transaction(Transaction(1, addr, 0x10, [8]))
    assert receipt.status == "GuardReverted"
    assert receipt.alarms
    assert w.dump() == before


FRONT_SRC = """
contract front {
  fn go external selector=0x1 {
    PUSH 0
    CALLDATALOAD
    JUMPI a         ; both arms meet at a: two paths per branch
  a: JUMPDEST
    PUSH 1
    CALLDATALOAD
    JUMPI b
  b: JUMPDEST
    PUSH 2
    CALLDATALOAD
    JUMPI c
  c: JUMPDEST
    PUSH 7
    PUSH 1
    PUSH 0x2
    CALLVALUE
    PUSH 0
    SLOAD
    CALL target=back
    POP
    STOP
  }
}
"""

BACK_SRC = """
contract back {
  fn step external selector=0x2 {
    PUSH 0
    CALLDATALOAD
    PUSH 3
    GT
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

FAT_SRC = """
contract fat { fn f external selector=0x1 {
  PUSH 0
  CALLDATALOAD
  JUMPI one
  STOP
one: JUMPDEST
  STOP
} }
"""


def _guarded(sources, safe):
    from pathguard.workflow import Bundle, make_snapshot, protect

    bundle = Bundle.from_json({"contracts": [{"source": s} for s in sources]})
    analysis = analyze_bundle(bundle.programs, bundle.boundary, bundle.config)
    return protect(bundle, make_snapshot(analysis, safe, bundle.config))


def _pinned_bundles(monkeypatch):
    """Guarded bundles covering every emitted shape: the seven fixtures, a
    protected CALL site, an Mpht checker and a forced spill to the mapping."""
    from pathguard import instrument as instr_mod
    from pathguard.fixtures import ALL_SCENARIOS
    from pathguard.workflow import protect, train

    for scenario in ALL_SCENARIOS:
        bundle = scenario.bundle()
        yield protect(bundle, train(bundle, scenario.training))
    call = _guarded((FRONT_SRC, BACK_SRC), {})
    assert any(
        p.kind == "ExternalCallProtected" and p.payload.get("site_gid") is not None
        for p in call.instrumented["front"].points
    )
    assert any(i.op is Op.CALL for i in call.instrumented["front"].program.functions[0].body)
    yield call
    mpht = _guarded((FRONT_SRC, BACK_SRC), {("front", 0): set(range(6))})
    assert any(p.payload.get("strategy") == "Mpht" for p in mpht.instrumented["front"].points)
    yield mpht
    fat = _guarded((FAT_SRC,), {("fat", 0): {0, 1}})
    monkeypatch.setattr(instr_mod, "MAX_CODE_BYTES", fat.instrumented["fat"].instrumented_size - 1)
    spilled = _guarded((FAT_SRC,), {("fat", 0): {0, 1}})
    assert spilled.instrumented["fat"].mapping_preseed == [(0, 0), (0, 1)]
    yield spilled


def test_guarded_output_pinned(monkeypatch):
    """sha256 over the guarded bundles' JSON: any change to emitted code,
    plans, sizes or preseeds moves it. Snapshots once carried an unread
    per-function "mpht" field; it is stripped so the digest covers only
    what every snapshot form shares."""
    h = hashlib.sha256()
    for guarded in _pinned_bundles(monkeypatch):
        raw = guarded.to_json()
        for per_fn in raw["snapshot"]["contracts"].values():
            for entry in per_fn.values():
                entry.pop("mpht", None)
        h.update(json.dumps(raw, sort_keys=True).encode())
    assert h.hexdigest() == (
        "9e436dc61729ec83c980c9d4974b4a5cac0acb1c2278ab36dd945c882dda7fbf"
    )
