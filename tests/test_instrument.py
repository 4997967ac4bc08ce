"""Rewriting: observational equivalence, size accounting, plan content, spill."""

import hashlib
import importlib.util
import json
import random
import sys
from pathlib import Path

import pytest
from conftest import branches_fn

from pathguard.asm import assemble
from pathguard.bundle import analyze_bundle
from pathguard.config import Config
from pathguard.fixtures import ALL_SCENARIOS, by_name
from pathguard.guardcode import (
    ALARM_CNT_SLOT,
    CALL_MARKER,
    CTX_SLOT,
    GUARD_MARKER,
    SLOT_POISON,
    Layout,
    admin_calldata,
    checker_cost,
    decode_guard_revert,
    flatten,
    seq_enter_routine,
    seq_exit_routine,
    seq_miss,
)
from pathguard.isa import Op
from pathguard.instrument import (
    InstrumentationError,
    instrument_contract,
)
from pathguard.oracle import checked_pairs_from_receipt, trace_oracle
from pathguard.pathset import MAPPING_TAG, DirectSpec, build_mpht
from pathguard.program import SizeLimitExceeded, Visibility
from pathguard.vm import (
    TRACE_CHECKS,
    TRACE_FULL,
    Transaction,
    VM,
    WorldState,
    deploy,
)
from pathguard.workflow import Bundle, deploy_overhead_pct, protect, train

CONFIG = Config()


def _profile(safe_sets):
    """Safe sets (by function) as a training profile: each key checked once."""
    return {fn: dict.fromkeys(keys, 1) for fn, keys in safe_sets.items()}


def _pair(prog, safe_sets, config=CONFIG, boundary=None):
    name = prog.name
    analysis = analyze_bundle({name: prog}, boundary or {name}, config)
    inst = instrument_contract(name, analysis, _profile(safe_sets))
    return analysis, inst


def _run_both(prog, inst, tx_args, config=CONFIG):
    w1 = WorldState(config)
    a1 = deploy(w1, prog)
    r1 = VM(w1, TRACE_FULL).execute_transaction(Transaction(to=a1, **tx_args))
    w2 = WorldState(config)
    a2 = deploy(w2, inst.program)
    vm = VM(w2, TRACE_CHECKS, {inst.name: inst.checkers})
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


def _point_gas(inst) -> tuple[dict, list[int]]:
    """VM gas points for ``inst`` alone, and the accumulator they fill."""
    acc = [0] * len(inst.points)
    return {inst.name: (inst.owners, acc)}, acc


def test_gas_delta_equals_injected_attribution(loopy):
    analysis, inst = _pair(loopy, {0: {0, 1, 2, 3, 4}})
    points, acc = _point_gas(inst)
    w1 = WorldState(CONFIG)
    a1 = deploy(w1, loopy)
    r1 = VM(w1, TRACE_FULL).execute_transaction(Transaction(1, a1, 0x10, [8]))
    w2 = WorldState(CONFIG)
    a2 = deploy(w2, inst.program)
    r2 = VM(
        w2, TRACE_CHECKS, {inst.name: inst.checkers}, gas_points=points
    ).execute_transaction(Transaction(1, a2, 0x10, [8]))
    assert r2.status == "Accepted"
    assert r2.gas_used - r1.gas_used == sum(acc)
    # the loop's backedges ran, and each ICALLed the checker
    kinds = {inst.points[pid].kind for pid, gas in enumerate(acc) if gas}
    assert {"Backedge", "PathSetCheck"} <= kinds


def test_size_accounting_reconciles(loopy, diamond, figcg):
    """instrumented - original == sum of per-point code and blob bytes."""
    for prog in (loopy, diamond, figcg):
        analysis, inst = _pair(prog, {})
        point_bytes = sum(p.code_bytes + p.blob_bytes for p in inst.points)
        assert inst.instrumented_size - inst.original_size == point_bytes


def test_slow_paths_emitted_once_per_contract(figcg, loopy):
    """The exit routine (ctx-slot poison, guard revert and the marker
    return), the miss routine (mapping probe plus alarm append) and the
    entry routine (caller classification) each live in one shared function,
    and only the first two touch the transient alarm buffer. Only the entry
    routine reads CALLER, ORIGIN, CALLDATASIZE or the ctx slot (the admin
    entry's caller gate aside), and every external function ICALLs it. No
    exit or backedge stub carries append, poison, payload or marker-return
    code or branches on a checker's answer, no guard function RETURNs, no
    checker probes storage, and only checkers reach the miss routine."""
    gm = GUARD_MARKER & CONFIG.mask
    tag = MAPPING_TAG & CONFIG.mask
    poison = (SLOT_POISON & CONFIG.mask, CTX_SLOT)
    marker = CALL_MARKER & CONFIG.mask
    for prog in (figcg, loopy):  # two externals and an internal; backedges
        analysis, inst = _pair(prog, {0: {0, 1, 2}})
        functions = inst.program.functions
        # the originals, one checker each, the admin entry, three routines
        assert len(functions) == 2 * len(prog.functions) + 4
        bodies = [fn.body for fn in functions]
        shared = []
        for seq in (
            seq_exit_routine(0, CONFIG),
            seq_miss(0, CONFIG),
            seq_enter_routine(CONFIG),
        ):
            assert bodies.count(flatten(seq.items, base=0)) == 1
            shared.append(bodies.index(flatten(seq.items, base=0)))
        exit_fid, miss_fid, enter_fid = shared
        checkers = {fn.id for fn in functions if fn.name.startswith("__chk_")}
        for fn in functions:
            calls = {i.imm for i in fn.body if i.op is Op.ICALL}
            if miss_fid in calls:
                assert fn.id in checkers, fn.name
            if fn.id < len(prog.functions):
                assert (enter_fid in calls) == (fn.visibility is Visibility.EXTERNAL), fn.name
            classifies = [
                i for i in fn.body if i.op in (Op.CALLER, Op.ORIGIN, Op.CALLDATASIZE)
            ] + [
                a for a, b in zip(fn.body, fn.body[1:])
                if a.op is Op.PUSH and a.imm == CTX_SLOT and b.op is Op.TLOAD
            ]
            if fn.id == enter_fid:
                assert len(classifies) == 4
            elif fn.name != "__guard_admin":
                assert classifies == [], fn.name
            for i, nxt in zip(fn.body, fn.body[1:]):
                if i.op is Op.ICALL and i.imm in checkers:
                    assert nxt.op is not Op.JUMPI, fn.name
            slots = {
                a.imm
                for a, b in zip(fn.body, fn.body[1:])
                if a.op is Op.PUSH and b.op in (Op.TLOAD, Op.TSTORE)
            }
            stores = {
                (a.imm, b.imm)
                for a, b, c in zip(fn.body, fn.body[1:], fn.body[2:])
                if a.op is b.op is Op.PUSH and c.op is Op.TSTORE
            }
            pushed = {i.imm for i in fn.body if i.op is Op.PUSH}
            marker_return = any(
                a.op is Op.PUSH and a.imm == marker and b.op is Op.SWAP
                for a, b in zip(fn.body, fn.body[1:])
            )
            if fn.id >= len(prog.functions):
                assert all(i.op is not Op.RETURN for i in fn.body), fn.name
            if fn.id == exit_fid:
                assert ALARM_CNT_SLOT in slots and poison in stores and gm in pushed
                assert marker_return
                continue
            assert not marker_return, fn.name
            assert poison not in stores, fn.name
            assert gm not in pushed, fn.name
            if fn.id == miss_fid:
                assert ALARM_CNT_SLOT in slots and tag in pushed
                continue
            assert ALARM_CNT_SLOT not in slots, fn.name
            assert tag not in pushed, fn.name
            if fn.id in checkers:
                assert all(i.op is not Op.SLOAD for i in fn.body), fn.name
        sites = [(p.kind, p.site) for p in inst.points if p.site[1] == "shared"]
        assert sites == [
            (kind, (functions[fid].name, "shared"))
            for kind, fid in zip(("PathSetCheck", "PathSetCheck", "ContractWrapper"), shared)
        ]
        point_bytes = sum(p.code_bytes + p.blob_bytes for p in inst.points)
        assert inst.instrumented_size - inst.original_size == point_bytes


def test_reentry_bit_is_stored_only_by_the_entry_routines_reentrant_arm():
    """In every guarded fixture and the wide pair, the one store to the
    reentry bit is ``PUSH 1`` in the arm of ``__guard_enter`` that the set
    ctx slot jumps to, ended by that arm's IRET. A marker entry is recorded
    by the calldata offset alone, and no function compares a fixed guard
    word with a constant: the exit stub and the exit routine test the words
    for zero."""
    for bundle in [s.bundle() for s in ALL_SCENARIOS] + [_wide_pair()]:
        analysis = analyze_bundle(bundle.programs, bundle.boundary, bundle.config)
        lay = Layout(bundle.config.width)
        fixed = {
            lay.ctx, lay.flag, lay.cdoff, lay.reentrant, lay.depth, lay.retoff, lay.tmp_slot
        }
        for name in sorted(bundle.boundary):
            for fn in instrument_contract(name, analysis, {}).program.functions:
                body = fn.body
                for a, b, c, d in zip(body, body[1:], body[2:], body[3:]):
                    if d.op is Op.EQ and [a.op, b.op, c.op] == [Op.PUSH, Op.MLOAD, Op.PUSH]:
                        assert a.imm not in fixed, (name, fn.name)
                    if d.op is Op.EQ and [a.op, b.op, c.op] == [Op.PUSH, Op.PUSH, Op.MLOAD]:
                        assert b.imm not in fixed, (name, fn.name)
                stores = [
                    k for k in range(1, len(body))
                    if body[k].op is Op.MSTORE and body[k - 1].imm == lay.reentrant
                ]
                if fn.name != "__guard_enter":
                    assert stores == [], (name, fn.name)
                    continue
                tload = next(
                    k for k, (a, b) in enumerate(zip(body, body[1:]))
                    if a.op is Op.PUSH and a.imm == CTX_SLOT and b.op is Op.TLOAD
                )
                arm = next(i.imm for i in body[tload:] if i.op is Op.JUMPI)
                end = next(k for k in range(arm, len(body)) if body[k].op is Op.IRET)
                (store,) = stores
                assert arm < store < end, name
                assert (body[store - 2].op, body[store - 2].imm) == (Op.PUSH, 1), name


def _widegen():
    """``perfbench/widegen.py``, the generator of the wide workloads' pair."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "widegen.py"
    spec = importlib.util.spec_from_file_location("widegen", path)
    widegen = sys.modules["widegen"] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(widegen)  # its dataclass looks itself up there
    return widegen


def _wide_pair() -> Bundle:
    """The generated pair the wide workloads run (shape seed 0)."""
    widegen = _widegen()
    return Bundle.from_json(widegen.bundle_json(widegen.make_shape(0), "0"))


def test_guarded_programs_keep_each_call_annotation_at_its_call():
    """The rewriter moves every call-site annotation to its call's new
    offset: in the guarded delegatecall proxy and the wide pair's caller,
    each annotation names the CALL or DELEGATECALL it annotated before, in
    the same order."""

    def calls(prog):
        return [
            (fid, prog.functions[fid].body[off].op, info)
            for (fid, off), info in sorted(prog.callsites.items())
        ]

    for bundle in (by_name("delegatecall").bundle(), _wide_pair()):
        analysis = analyze_bundle(bundle.programs, bundle.boundary, bundle.config)
        annotated = [name for name in sorted(bundle.boundary) if bundle.programs[name].callsites]
        assert len(annotated) == 1  # the proxy's DELEGATECALL, the front's CALL
        for name in sorted(bundle.boundary):
            guarded = instrument_contract(name, analysis, {}).program
            assert calls(guarded) == calls(bundle.programs[name]), name


def test_external_entries_hold_only_the_routine_call_and_the_entry_store():
    """In every guarded fixture and the wide pair, an external function's
    entry is PUSH N; ICALL __guard_enter, with only an ICALL target's depth
    test around it and the entry-value store after it. A protected call
    applies its call edge at the call site, so no entry reads the entry
    routine's words (the calldata offset, the reentry bit) or the
    calldata."""
    depth_test = [Op.PUSH, Op.MLOAD, Op.JUMPI]
    store = [Op.PUSH, Op.PUSH, Op.MLOAD, Op.PUSH, Op.ADD, Op.MSTORE]  # Asm.epp_set
    for bundle in [s.bundle() for s in ALL_SCENARIOS] + [_wide_pair()]:
        analysis = analyze_bundle(bundle.programs, bundle.boundary, bundle.config)
        lay = Layout(bundle.config.width)
        for name in sorted(bundle.boundary):
            inst = instrument_contract(name, analysis, {})
            functions = inst.program.functions
            enter = next(fn.id for fn in functions if fn.name == "__guard_enter")
            inner = {i.imm for fn in functions[:enter] for i in fn.body if i.op is Op.ICALL}
            for fn in analysis.programs[name].external_functions():
                pid = next(
                    k for k, p in enumerate(inst.points)
                    if p.site == (fn.name, 0) and "num_ccs" in p.payload
                )
                entry = [i for i, o in zip(functions[fn.id].body, inst.owners[fn.id]) if o == pid]
                call = [Op.PUSH, Op.ICALL]
                if fn.id in inner:
                    assert [i.op for i in entry] == depth_test + call + [Op.JUMPDEST] + store
                else:
                    assert [i.op for i in entry] in (call, call + store), (name, fn.name)
                at = 3 if fn.id in inner else 0
                num_ccs = analysis.num_ccs(name, fn.id) & bundle.config.mask
                assert entry[at].imm == num_ccs and entry[at + 1].imm == enter
                entry_words = (lay.cdoff, lay.reentrant)
                assert all(i.imm not in entry_words for i in entry if i.op is Op.PUSH)


def test_flagged_marker_exit_reconciles():
    """A flagged marker-mode exit that returns (here a call carrying the call
    marker straight from the origin) adds exactly the gas of the offsets
    the points own: the exit routine prepares the return and the stub's
    RETURN after its call stands in for the original STOP."""
    prog = assemble("contract t { fn f external selector=0x1 { PUSH 1 PUSH 0 SSTORE STOP } }")
    analysis, inst = _pair(prog, {0: set()})  # untrained: the exit check misses
    points, acc = _point_gas(inst)
    w1 = WorldState(CONFIG)
    r1 = VM(w1).execute_transaction(Transaction(1, deploy(w1, prog), 0x1))
    w2 = WorldState(CONFIG)
    marker = CALL_MARKER & CONFIG.mask
    r2 = VM(
        w2, TRACE_CHECKS, {inst.name: inst.checkers}, gas_points=points
    ).execute_transaction(
        Transaction(1, deploy(w2, inst.program), 0x1, [marker, 0, 0])
    )
    assert (r2.status, r2.return_data) == ("Accepted", [marker, 1])
    assert r2.gas_used - r1.gas_used == sum(acc)


_EXITS = (Op.STOP, Op.RETURN, Op.IRET)


@pytest.mark.parametrize("scenario", ALL_SCENARIOS, ids=lambda s: s.name)
def test_owner_tables_cover_every_offset(scenario):
    """One table per function, as long as its body. A guard function belongs
    to its one point at every offset; in a rewritten function every owned
    offset belongs to a point sited in it, and the unowned offsets are the
    original code in order, give or take exits. Every point owns code."""
    bundle = scenario.bundle()
    guarded = protect(bundle, train(bundle, scenario.training))
    for name, inst in guarded.instrumented.items():
        original = bundle.programs[name].functions
        functions = inst.program.functions
        assert len(inst.owners) == len(functions)
        owned = set()
        for fn, table in zip(functions, inst.owners):
            assert len(table) == len(fn.body), fn.name
            owned |= set(table) - {-1}
            if fn.id >= len(original):
                (pid,) = {pid for pid in table if pid >= 0}
                assert inst.points[pid].site[1] in ("checker", "admin", "shared")
                assert table == [pid] * len(fn.body), fn.name
                continue
            assert all(inst.points[pid].site[0] == fn.name for pid in table if pid >= 0)
            kept = [i.op for i, pid in zip(fn.body, table) if pid < 0]
            assert [op for op in kept if op not in _EXITS] == [
                i.op for i in original[fn.id].body if i.op not in _EXITS
            ], fn.name
        assert owned == set(range(len(inst.points))), name


def test_deploy_overhead_formula():
    assert abs(deploy_overhead_pct(1000, 1360) - 0.36) < 1e-12


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


@pytest.mark.parametrize("body", ["PUSH 0 TLOAD POP STOP", "PUSH 1 PUSH 0 TSTORE STOP"])
def test_transient_storage_use_rejected(body):
    """Transient storage holds the guard's ctx slot and alarm buffer; a contract
    that reads or writes it cannot be protected."""
    prog = assemble("contract t { fn f external { %s } }" % body)
    with pytest.raises(InstrumentationError, match=r"t.f@\d: T(LOAD|STORE) uses transient"):
        _pair(prog, {0: set()})


@pytest.mark.parametrize(
    "name",
    [
        "__guard_admin",
        "__guard_alarm",
        "__guard_probe",
        "__guard_miss",
        "__guard_exit",
        "__chk_f",
        "__chk_other",
    ],
)
def test_guard_name_collision_rejected(name):
    """Contract functions may not use the guard functions' name prefixes."""
    prog = assemble(
        "contract t { fn f external selector=0x1 { STOP } "
        "fn %s external selector=0x2 { STOP } }" % name
    )
    with pytest.raises(InstrumentationError, match=f"t.{name}: function name"):
        _pair(prog, {})


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
    inst = instrument_contract("fat", analysis, _profile({0: {0, 1}}))
    assert not inst.plan.preseed
    try:
        instr_mod.MAX_CODE_BYTES = inst.instrumented_size - 1
        spilled = instrument_contract("fat", analysis, _profile({0: {0, 1}}))
    finally:
        instr_mod.MAX_CODE_BYTES = real_limit
    assert spilled.plan.preseed == [(0, 0), (0, 1)]
    assert spilled.instrumented_size < inst.instrumented_size
    # the spilled bundle still accepts both trained paths via the mapping
    world = WorldState(config)
    addr = deploy(world, spilled.program)
    from pathguard.vm import execute_transaction

    admin_tx = Transaction(
        config.admin, addr, spilled.admin_selector, admin_calldata(spilled.plan.preseed, config)
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
        instrument_contract("big", analysis, {0: {}})


def test_attack_transaction_guard_reverts(loopy):
    """Anything outside the trained set rolls the transaction back."""
    analysis, inst = _pair(loopy, {0: {0, 2}})  # train only two paths
    w = WorldState(CONFIG)
    addr = deploy(w, inst.program)
    before = w.dump()
    vm = VM(w, TRACE_CHECKS, {inst.name: inst.checkers})
    receipt = vm.execute_transaction(Transaction(1, addr, 0x10, [8]))
    assert receipt.status == "Reverted"
    assert decode_guard_revert(receipt.return_data, CONFIG.width)
    assert w.dump() == before


FRONT_SRC = """
contract front {
  fn go external selector=0x1 {
    PUSH 0
    CALLDATALOAD
    JUMPI a         ; a real op on the fall-through: two paths per branch
    PUSH 0
    POP
  a: JUMPDEST
    PUSH 1
    CALLDATALOAD
    JUMPI b
    PUSH 1
    POP
  b: JUMPDEST
    PUSH 2
    CALLDATALOAD
    JUMPI c
    PUSH 2
    POP
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

# 64 paths: a table over six of them deploys fewer bytes than a direct one
MANY_PATHS_SRC = f"contract many {{\n{branches_fn('f', 1, 6)}}}\n"

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
    return protect(bundle, make_snapshot(analysis, _profile(safe), bundle.config))


def _pinned_bundles(monkeypatch):
    """Guarded bundles covering every emitted shape: the seven fixtures, a
    protected CALL site, a direct checker, an Mpht checker and a forced
    spill to the mapping."""
    from pathguard import instrument as instr_mod
    from pathguard.fixtures import ALL_SCENARIOS, by_name
    from pathguard.workflow import protect, train

    for scenario in ALL_SCENARIOS:
        bundle = scenario.bundle()
        yield protect(bundle, train(bundle, scenario.training))
    call = _guarded((FRONT_SRC, BACK_SRC), {})
    assert any(
        p.kind == "ExternalCallProtected" and "cases" in p.payload
        for p in call.instrumented["front"].points
    )
    assert any(i.op is Op.CALL for i in call.instrumented["front"].program.functions[0].body)
    yield call
    direct = _guarded((FRONT_SRC, BACK_SRC), {("front", 0): set(range(6))})
    assert any(p.payload.get("strategy") == "Direct" for p in direct.instrumented["front"].points)
    yield direct
    mpht = _guarded((MANY_PATHS_SRC,), {("many", 0): set(range(6))})
    assert any(p.payload.get("strategy") == "Mpht" for p in mpht.instrumented["many"].points)
    yield mpht
    fat = _guarded((FAT_SRC,), {("fat", 0): {0, 1}})
    monkeypatch.setattr(instr_mod, "MAX_CODE_BYTES", fat.instrumented["fat"].instrumented_size - 1)
    spilled = _guarded((FAT_SRC,), {("fat", 0): {0, 1}})
    assert spilled.instrumented["fat"].plan.preseed == [(0, 0), (0, 1)]
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
        "9edba79043dd37e03243b25d84f81023319e369e6e9d3a1280c7659131f5e190"
    )


@pytest.mark.parametrize(
    "sources,name,keys,strategy",
    [
        ((FRONT_SRC, BACK_SRC), "front", range(6), "Direct"),  # 8 paths x 2 contexts
        ((MANY_PATHS_SRC,), "many", range(6), "Mpht"),  # 64 paths x 1 context
        ((FRONT_SRC, BACK_SRC), "front", range(5), "List"),
    ],
)
def test_a_table_goes_direct_only_when_that_deploys_no_more_bytes(sources, name, keys, strategy):
    """A table becomes a direct set when the direct form deploys no more
    bytes and checks for less gas; a list stays a list. A direct checker
    point carries the figures the choice compared, and its own are the
    bytes it deploys and the gas a member pays."""
    guarded = _guarded(sources, {(name, 0): set(keys)})
    inst = guarded.instrumented[name]
    spec = inst.plan.specs[0]
    assert spec.strategy == guarded.snapshot["contracts"][name]["0"]["strategy"] == strategy
    point = next(p for p in inst.points if p.site == (inst.program.functions[0].name, "checker"))
    if strategy == "List":
        assert set(point.payload) == {"strategy", "entries"}
        return
    table = build_mpht(keys, CONFIG.mpht_lambda, width=CONFIG.width)
    entry = guarded.snapshot["contracts"][name]["0"]
    direct = DirectSpec(sorted(keys), entry["num_paths"] * entry["num_ccs"])
    cost, table_cost = checker_cost(direct, CONFIG), checker_cost(table, CONFIG)
    assert (cost[0] <= table_cost[0]) == (strategy == "Direct")
    assert cost[1] < table_cost[1]
    if strategy == "Direct":
        assert spec == direct
        assert point.payload == {
            "strategy": "Direct", "entries": 6, "r": 16, "bytes": cost[0], "gas": cost[1],
            "table_bytes": table_cost[0], "table_gas": table_cost[1],
        }
        assert point.code_bytes + point.blob_bytes == cost[0]
        report = guarded.deployment_report()[name]
        assert report["direct"] == {"go": {"r": 16, **inst.plan.replaced[0]}}


@pytest.mark.parametrize("cause", ["construction", "size"])
def test_demotion_says_why(monkeypatch, cause):
    """A table that cannot be built and a contract over the size limit go
    through one demotion: the keys move to the preseed, the function keeps
    no embedded set, and the plan listing and the deployment report both
    say why."""
    from pathguard import instrument as instr_mod
    from pathguard.pathset import ConstructionFailed, ListSpec

    if cause == "construction":
        def failing(*args, **kwargs):
            raise ConstructionFailed("no seed found after 16 tries (n=6)")

        monkeypatch.setattr(instr_mod, "build_mpht", failing)
        sources, name, keys = (FRONT_SRC, BACK_SRC), "front", set(range(6))
        reason = "mpht construction failed: no seed found after 16 tries (n=6)"
    else:
        sources, name, keys = (FAT_SRC,), "fat", {0, 1}
        size = _guarded(sources, {(name, 0): keys}).instrumented[name].instrumented_size
        monkeypatch.setattr(instr_mod, "MAX_CODE_BYTES", size - 1)
        reason = f"size limit: {size} > {size - 1} bytes"
    guarded = _guarded(sources, {(name, 0): keys})
    inst = guarded.instrumented[name]
    assert inst.plan.preseed == [(0, k) for k in sorted(keys)]
    assert inst.plan.specs[0] == ListSpec([])
    assert f"demoted={reason} entries=0 strategy=List" in inst.plan_listing()
    fn = inst.program.functions[0].name
    assert guarded.deployment_report()[name]["demoted"] == {fn: reason}
    for other, info in guarded.deployment_report().items():
        assert info["demoted"] == ({fn: reason} if other == name else {})


SHIM_FRONT_SRC = """
contract sfront {
  fn go external selector=0x1 {
    PUSH 9
    PUSH 8
    PUSH 2          ; two argument words
    PUSH 0x2
    PUSH 0
    PUSH 0
    CALLDATALOAD    ; the callee's address
    CALL target=sback
    POP
    RETURNDATASIZE
    PUSH 0
    SSTORE
    STOP
  }
}
"""

SHIM_BACK_SRC = """
contract sback {
  fn echo external selector=0x2 {
    CALLDATASIZE
    PUSH 0
    SSTORE
    PUSH 7
    PUSH 6
    PUSH 5
    PUSH 3          ; three return words
    RETURN
  }
}
"""


def test_size_shims_hide_the_call_protocol_words():
    """A marker-entered callee reads the size of the calldata its caller
    sent, not of the marker prefix with it; after a protected call the
    caller reads the size of the callee's own return data."""
    from pathguard.workflow import Bundle, run_detection

    sources = (SHIM_FRONT_SRC, SHIM_BACK_SRC)
    bundle = Bundle.from_json({"contracts": [{"source": s} for s in sources]})
    records = [{"to": "sfront", "fn": "go", "calldata": ["@sback"]}]
    guarded = protect(bundle, train(bundle, records))
    run = run_detection(guarded, records)
    (outcome,) = run.outcomes
    assert (outcome.status, outcome.alarms, run.recon_failures) == ("Accepted", [], [])
    for deployed in (run.deployed, run.mirror):
        world, addresses = deployed.world, deployed.addresses
        assert {name: world.sload(addresses[name], 0) for name in addresses} == {
            "sfront": 3, "sback": 2
        }


_RD_CALLS = {
    "back": """
    PUSH 1
    CALLDATALOAD    ; back's argument: zero reverts
    PUSH 1          ; one argument word
    PUSH 0x2
    PUSH 0
    PUSH 2
    CALLDATALOAD    ; back's address
    CALL target=back
    POP""",
    "plain": """
    PUSH 0
    PUSH 0x3
    PUSH 0
    PUSH 3
    CALLDATALOAD    ; plain's address
    CALL target=plain
    POP""",
}


def _rd_front_src(first: str) -> str:
    """front.go calls ``first`` (back or plain) unless its first word says
    to call the other one, which comes later in the body; either way it
    then stores RETURNDATASIZE and RETURNDATALOAD 1."""
    second = "plain" if first == "back" else "back"
    pick = 0 if first == "back" else 1
    return f"""
contract front {{
  fn go external selector=0x1 {{
    PUSH 0
    CALLDATALOAD
    PUSH {pick}
    EQ
    ISZERO
    JUMPI other{_RD_CALLS[first]}
    JUMP read
  other: JUMPDEST{_RD_CALLS[second]}
  read: JUMPDEST
    RETURNDATASIZE
    PUSH 0
    SSTORE
    PUSH 1
    RETURNDATALOAD
    PUSH 1
    SSTORE
    STOP
  }}
}}
"""


RD_BACK_SRC = """
contract back {
  fn f external selector=0x2 {
    PUSH 0
    CALLDATALOAD
    JUMPI ok
    PUSH 9
    PUSH 5
    PUSH 2
    REVERT
  ok: JUMPDEST
    PUSH 7
    PUSH 6
    PUSH 5
    PUSH 3
    RETURN
  }
}
"""

RD_PLAIN_SRC = """
contract plain {
  fn g external selector=0x3 {
    PUSH 4
    PUSH 3
    PUSH 2
    PUSH 3
    RETURN
  }
}
"""


@pytest.mark.parametrize("first", ["back", "plain"])
@pytest.mark.parametrize(
    "which, arg, seen",
    [(0, 0, (2, 9)), (0, 1, (3, 6)), (1, 0, (3, 3))],
    ids=["protected-reverted", "protected-returned", "unprotected"],
)
def test_return_data_shims_follow_the_call_that_ran(first, which, arg, seen):
    """The return-data shims skip the [MARKER, flag] prefix only when the
    call that ran left one: not after a protected callee reverted with its
    raw data, and not after an unprotected call, whichever call comes last
    in the body. The guarded world reads what the mirror reads."""
    from pathguard.workflow import Bundle, run_detection

    sources = (_rd_front_src(first), RD_BACK_SRC, RD_PLAIN_SRC)
    bundle = Bundle.from_json(
        {"contracts": [{"source": s} for s in sources], "boundary": ["front", "back"]}
    )
    record = {"to": "front", "fn": "go", "calldata": [which, arg, "@back", "@plain"]}
    guarded = protect(bundle, train(bundle, [record]))
    run = run_detection(guarded, [record])
    (outcome,) = run.outcomes
    assert (outcome.status, outcome.alarms, run.recon_failures) == ("Accepted", [], [])
    for deployed in (run.deployed, run.mirror):
        front = deployed.addresses["front"]
        assert (deployed.world.sload(front, 0), deployed.world.sload(front, 1)) == seen


ROTATED_SRC = """
contract rot { fn f external selector=0x1 {
  PUSH 0
  CALLDATALOAD
  JUMP cond
body: JUMPDEST
  PUSH 1
  SUB
cond: JUMPDEST
  DUP 1
  JUMPI body
  POP
  STOP
} }
"""


@pytest.mark.parametrize("n", [0, 1, 3])
def test_rotated_loop_fallthrough_backedge(n):
    """A rotated loop's body falls through into its test, so its backedge
    leaves at no jump and the closer follows the body's last instruction.
    The checked pairs equal the oracle's, and the gas reconciles exactly."""
    prog = assemble(ROTATED_SRC)
    analysis = analyze_bundle({"rot": prog}, {"rot"}, CONFIG)
    body = prog.functions[0].body
    assert [body[off].op for off, _ in analysis.cfgs[("rot", 0)].backedges] == [Op.SUB]
    w1 = WorldState(CONFIG)
    r1 = VM(w1, TRACE_FULL).execute_transaction(Transaction(1, deploy(w1, prog), 0x1, [n]))
    oracle = trace_oracle(r1.trace, analysis, r1.status)
    assert r1.status == "Accepted" and len(oracle) == n + 1
    inst = instrument_contract("rot", analysis, _profile({0: {p[3] for p in oracle}}))
    points, acc = _point_gas(inst)
    w2 = WorldState(CONFIG)
    vm = VM(w2, TRACE_CHECKS, {inst.name: inst.checkers}, gas_points=points)
    r2 = vm.execute_transaction(Transaction(1, deploy(w2, inst.program), 0x1, [n]))
    assert r2.status == "Accepted"
    assert checked_pairs_from_receipt(r2) == oracle
    assert r2.gas_used - r1.gas_used == sum(acc)
    backedge = sum(gas for pid, gas in enumerate(acc) if inst.points[pid].kind == "Backedge")
    assert (backedge > 0) == (n > 0)


# A loop whose body branches at offset 8 on calldata word 1: its taken arm
# goes to as many paths as the fall arm, so the labeling puts the arm's
# value on the taken edge. The fall arm calls an internal function and
# falls through to the loop's tail.
HOT_SRC = """
contract hot {
  fn run external selector=0x1 {
        PUSH 0
        CALLDATALOAD      ; [n]
  top:  JUMPDEST
        DUP 1
        ISZERO
        JUMPI out
        PUSH 1
        CALLDATALOAD
        JUMPI odd
        ICALL side
  next: JUMPDEST
        PUSH 1
        SUB
        JUMP top
  odd:  JUMPDEST
        PUSH 7
        POP
        JUMP next
  out:  JUMPDEST
        POP
        STOP
  }
  fn side internal {
        IRET
  }
}
"""


def _checks_and_branch_gas(guarded, txs):
    """Per tx of ``txs`` (calldata lists) on the original and on a fresh
    deployment of ``guarded``: the oracle's pairs, the checked pairs, and
    the gas of the guarded run's Branch points."""
    from pathguard.workflow import build_world

    bundle, analysis = guarded.bundle, guarded.analysis
    inst = guarded.instrumented["hot"]
    out = []
    for calldata in txs:
        original = build_world(bundle)
        addr = original.addresses["hot"]
        r1 = VM(original.world, TRACE_FULL).execute_transaction(Transaction(1, addr, 0x1, calldata))
        points, acc = _point_gas(inst)
        world = build_world(bundle, guarded.programs())
        r2 = VM(world.world, TRACE_CHECKS, guarded.checkers, gas_points=points).execute_transaction(
            Transaction(1, addr, 0x1, calldata)
        )
        branch = sum(gas for pid, gas in enumerate(acc) if inst.points[pid].kind == "Branch")
        out.append((trace_oracle(r1.trace, analysis, r1.status), checked_pairs_from_receipt(r2), branch))
    return out


def test_profiled_placement_takes_gas_off_a_hot_taken_arm():
    """Trained on the taken arm, protect moves the arm's increment to the
    chords that training ran least, here the return edge of the cold arm's
    ICALL. Every checked pair still equals the oracle's on the original,
    under the profiled placement and under the one from an empty snapshot,
    and the hot stream pays less Branch gas."""
    from pathguard.workflow import Bundle, make_snapshot

    bundle = Bundle.from_json({"contracts": [{"source": HOT_SRC}]})
    analysis = analyze_bundle(bundle.programs, bundle.boundary, bundle.config)
    lab = analysis.epp[("hot", 0)]
    cfg = analysis.cfgs[("hot", 0)]
    taken = next(e for e in cfg.edges if e.origin == ("branch", 8, True))
    assert lab.edge_val[taken.eid]  # the labeling puts a value on the hot arm
    training = [{"to": "hot", "fn": "run", "calldata": [n, 1]} for n in (1, 2, 3, 4)]
    training.append({"to": "hot", "fn": "run", "calldata": [1, 0]})
    profiled = protect(bundle, train(bundle, training))
    empty = protect(bundle, make_snapshot(analysis, {}, bundle.config))
    txs = [[n, 1] for n in range(6)] + [[n, 0] for n in range(3)]
    hot_gas = []
    for guarded in (profiled, empty):
        runs = _checks_and_branch_gas(guarded, txs)
        for oracle, checked, _branch in runs:
            assert checked == oracle and oracle
        hot_gas.append(sum(branch for _o, _c, branch in runs[:6]))
    assert hot_gas[0] < hot_gas[1]
    listing = profiled.instrumented["hot"].plan_listing()
    assert "Branch                   run@9  val=" in listing  # the ICALL's return edge
    assert "run@8  arm=taken" not in listing
    assert "run@8  arm=taken" in empty.instrumented["hot"].plan_listing()


def test_empty_snapshot_output_pinned():
    """With no training hits the placement leaves every increment on its
    labeling edge: the guarded JSON of every fixture protected from an
    empty snapshot hashes as it did before placement read hits. The
    snapshot's (empty) hits lists, which that code did not write, are
    stripped."""
    from pathguard.workflow import make_snapshot

    h = hashlib.sha256()
    for scenario in ALL_SCENARIOS:
        bundle = scenario.bundle()
        analysis = analyze_bundle(bundle.programs, bundle.boundary, bundle.config)
        raw = protect(bundle, make_snapshot(analysis, {}, bundle.config)).to_json()
        for per_fn in raw["snapshot"]["contracts"].values():
            for entry in per_fn.values():
                assert entry.pop("hits") == []
        h.update(json.dumps(raw, sort_keys=True).encode())
    assert h.hexdigest() == (
        "751dfda14a0598a32dd4f2b2e81fdcbf923f7eff59c59a3f9835dd34bd12e83b"
    )


def test_an_external_function_entered_by_icall_gets_its_entry_value():
    """An ICALL enters an external function below depth 0, so the wrapper
    stores a placed entry value into the register of the frame's depth:
    the trained ICALL is accepted, and its checks equal the oracle's."""
    from pathguard.workflow import Bundle

    src = """
    contract c {
      fn a external selector=0x1 {
        PUSH 0
        CALLDATALOAD
        JUMPI skip
        ICALL b
      skip: JUMPDEST
        STOP
      }
      fn b external selector=0x2 {
        PUSH 1
        CALLDATALOAD
        JUMPI x
        IRET
      x: JUMPDEST
        IRET
      }
    }
    """
    bundle = Bundle.from_json({"contracts": [{"source": src}]})
    record = {"to": "c", "fn": "a", "calldata": [0, 1]}
    guarded = protect(bundle, train(bundle, [record]))
    status, checked, oracle = _checks_against_oracle(guarded, record)
    assert status == "Accepted"
    assert checked == oracle


def _checks_against_oracle(guarded, record):
    """(status, checked pairs, oracle pairs) of ``record`` run on the
    guarded world and, traced in full, on the original one."""
    from pathguard.workflow import build_world, guard_verdict, parse_tx

    bundle = guarded.bundle
    original = build_world(bundle)
    r1 = VM(original.world, TRACE_FULL).execute_transaction(parse_tx(record, original, bundle))
    deployed = build_world(bundle, guarded.programs())
    vm = VM(deployed.world, TRACE_CHECKS, guarded.checkers)
    r2 = vm.execute_transaction(parse_tx(record, deployed, bundle))
    oracle = trace_oracle(r1.trace, guarded.analysis, r1.status)
    return guard_verdict(guarded, r2)[0], checked_pairs_from_receipt(r2), oracle


# lib.g is entered by ICALL from lib.f, and lib is listed before user, so
# that in-edge ranks first: g's edge from user.go's call site differs from
# f's and the fallback's. The call has no fn=, so its selector word, taken
# from calldata, picks the callee. The fallback is not lib's last function,
# so the default row is the fallback's by rule, not by position.
CASED_LIB_SRC = """
contract lib {
  fn fallback external {
    STOP
  }
  fn f external selector=0x51 {
    ICALL g
    STOP
  }
  fn g external selector=0x52 {
    PUSH 1
    PUSH 0
    SSTORE
    STOP
  }
}
"""

CASED_USER_SRC = """
contract user {
  fn go external selector=0x61 {
    PUSH 0
    PUSH 0
    CALLDATALOAD
    PUSH 0
    PUSH 1
    CALLDATALOAD
    CALL target=lib
    POP
    STOP
  }
}
"""


@pytest.mark.parametrize("selector", [0x51, 0x52, 0, 0x5F], ids=["f", "g", "zero", "lacking"])
def test_site_table_case_sends_each_callee_its_call_edge(selector):
    """A dynamic protected call site whose callees' call edges differ has a
    case for the odd one out (g) and the fallback's row as its default.
    Through each selector, selector 0 into the fallback and a selector lib
    lacks, the checked pairs equal the trace oracle's, and the guard accepts
    the tx exactly when training saw every pair the oracle gives it."""
    bundle = Bundle.from_json(
        {"contracts": [{"source": CASED_LIB_SRC}, {"source": CASED_USER_SRC}]}
    )
    trained = [{"to": "user", "fn": "go", "calldata": [sel, "@lib"]} for sel in (0x51, 0x52)]
    guarded = protect(bundle, train(bundle, trained))
    (table,) = guarded.analysis.site_tables.values()
    assert table.default == (1, False) and table.cases == {0x52: (3, False)}
    seen = {pair for record in trained for pair in _checks_against_oracle(guarded, record)[2]}
    record = {"to": "user", "fn": "go", "calldata": [selector, "@lib"]}
    status, checked, oracle = _checks_against_oracle(guarded, record)
    assert checked == oracle
    assert (status == "Accepted") == (set(oracle) <= seen) == (selector in (0x51, 0x52))


ICALL_ENTRY_SRC = """
contract c {
  fn a external selector=0x1 {
    ICALL b
    STOP
  }
  fn b external selector=0x2 {
    IRET
  }
}
"""

MARKER_CALLER_SRC = """
contract p {
  fn go external selector=0x1 {
    PUSH 0
    PUSH 0x1
    PUSH 0
    PUSH 0
    CALLDATALOAD
    CALL target=c fn=a
    POP
    STOP
  }
}
"""


def test_an_icall_into_an_external_function_keeps_the_marker_context():
    """Protected ``p`` CALLs ``c.a``, which ICALLs external ``c.b``. The
    ICALL enters ``b`` as an internal function: its wrapper does not
    classify the caller again from the marker calldata, so ``b``'s context
    is ``a``'s plus the call edge's, and the trained transaction is
    accepted with the oracle's checks."""
    from pathguard.workflow import Bundle

    bundle = Bundle.from_json(
        {"contracts": [{"source": MARKER_CALLER_SRC}, {"source": ICALL_ENTRY_SRC}]}
    )
    record = {"to": "p", "fn": "go", "calldata": ["@c"]}
    guarded = protect(bundle, train(bundle, [record]))
    status, checked, oracle = _checks_against_oracle(guarded, record)
    assert status == "Accepted"
    assert checked == oracle and len(oracle) == 3


def test_an_external_function_icalled_twice_starts_each_path_afresh():
    """``a`` ICALLs external ``b`` twice at the same depth; ``b`` branches.
    Protected with zero hits, so ``b``'s entry value is 0, its wrapper
    still stores it: the second call does not add to the first call's
    path sum, and the trained transaction is accepted."""
    from pathguard.workflow import Bundle

    src = """
    contract c {
      fn a external selector=0x1 {
        ICALL b
        ICALL b
        STOP
      }
      fn b external selector=0x2 {
        PUSH 1
        CALLDATALOAD
        JUMPI x
        IRET
      x: JUMPDEST
        IRET
      }
    }
    """
    bundle = Bundle.from_json({"contracts": [{"source": src}]})
    record = {"to": "c", "fn": "a", "calldata": [0, 1]}
    snapshot = train(bundle, [record])
    for per_fn in snapshot["contracts"].values():
        for entry in per_fn.values():
            entry["hits"] = [0] * len(entry["hits"])
    guarded = protect(bundle, snapshot)
    status, checked, oracle = _checks_against_oracle(guarded, record)
    assert status == "Accepted"
    assert checked == oracle and len(oracle) == 3


# figcg's shape (tests/conftest.py): B calls C and itself, here down to the
# depth calldata word 0 names; a nested B returns, the outermost one stops.
FIG_B_SRC = """
contract figcg {
  fn A external selector=0x0a {
    ICALL C
    ICALL C
    STOP
  }
  fn B external selector=0x0b {
    ICALL C
    PUSH 0
    MLOAD
    PUSH 0
    CALLDATALOAD
    EQ
    JUMPI unwind    ; deep enough
    PUSH 0
    MLOAD
    PUSH 1
    ADD
    PUSH 0
    MSTORE          ; one level deeper
    ICALL B
  unwind: JUMPDEST
    PUSH 0
    MLOAD
    JUMPI nested
    STOP
  nested: JUMPDEST
    PUSH 0
    MLOAD
    PUSH 1
    SUB
    PUSH 0
    MSTORE
    IRET
  }
  fn C internal {
    IRET
  }
}
"""

RELAY_SRC = """
contract relay {
  fn go external selector=0x1 {
    PUSH 0
    CALLDATALOAD
    PUSH 1
    PUSH 0x0b
    PUSH 0
    PUSH 1
    CALLDATALOAD
    CALL target=figcg fn=B
    POP
    STOP
  }
}
"""


def test_a_self_icalling_external_function_keeps_the_surrogate_context():
    """figcg's B ICALLs itself through a surrogate edge. Entered by an
    unprotected contract, the outermost B is in the foreign band; each
    nested B keeps the context the surrogate set and does not classify its
    caller again, so every check of B and C equals the oracle's and the
    trained transaction is accepted."""
    from pathguard.workflow import Bundle

    bundle = Bundle.from_json(
        {"contracts": [{"source": FIG_B_SRC}, {"source": RELAY_SRC}], "boundary": ["figcg"]}
    )
    record = {"to": "relay", "fn": "go", "calldata": [2, "@figcg"]}
    guarded = protect(bundle, train(bundle, [record]))
    status, checked, oracle = _checks_against_oracle(guarded, record)
    assert status == "Accepted"
    assert checked == oracle and len(oracle) == 6
