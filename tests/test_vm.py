"""VM semantics: modular arithmetic, revert atomicity, gas, determinism."""

import dataclasses
import hashlib
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pathguard.vm as vm_module
from pathguard.asm import assemble
from pathguard.config import OPERAND_STACK_LIMIT, Config, GasSchedule
from pathguard.fixtures import ALL_SCENARIOS
from pathguard.isa import Instruction, Op
from pathguard.oracle import TraceOracle
from pathguard.program import (
    ContractProgram,
    FunctionDef,
    SizeLimitExceeded,
    ValidationError,
    Visibility,
    validate_program,
)
from pathguard.vm import (
    STATUS_ACCEPTED,
    STATUS_OUT_OF_GAS,
    STATUS_REVERTED,
    STEP_ADD,
    STEP_BLOCK,
    STEP_IRET,
    TRACE_CHECKS,
    TRACE_FULL,
    TRACE_NONE,
    Transaction,
    UnknownSelectorError,
    VM,
    VmError,
    WorldState,
    _OPS,
    _Node,
    _compile,
    _source,
    _tables,
    _unit,
    deploy,
    execute_transaction,
    price_table,
    region_step,
    step_fields,
)
from pathguard.workflow import (
    build_world,
    deploy_guarded,
    guard_verdict,
    parse_tx,
    protect,
    run_transaction,
    start_detection,
    train,
)
from trace_steps import per_block
from vm_reference import ReferenceVM

STORE_SRC = """
contract store {
  fn put external selector=0x01 {
    PUSH 1
    CALLDATALOAD     ; value
    PUSH 0
    CALLDATALOAD     ; slot
    SSTORE
    STOP
  }
  fn put_then_revert external selector=0x02 {
    PUSH 7
    PUSH 5
    SSTORE
    PUSH 0
    REVERT
  }
  fn add8 external selector=0x03 {
    PUSH 1
    CALLDATALOAD
    PUSH 0
    CALLDATALOAD
    ADD
    PUSH 0
    MSTORE
    PUSH 0
    MLOAD
    PUSH 1
    RETURN
  }
}
"""


def _world(width=64):
    return WorldState(Config(width=width))


def test_fresh_store_costs_sstore_set():
    w = _world()
    addr = deploy(w, assemble(STORE_SRC))
    r = execute_transaction(w, Transaction(1, addr, 0x01, [5, 7]))
    assert r.status == STATUS_ACCEPTED
    assert w.sload(addr, 5) == 7
    # PUSH, CALLDATALOAD, PUSH, CALLDATALOAD, SSTORE(set), STOP
    assert r.gas_used == 3 * 5 + 20000


def test_update_costs_sstore_update():
    w = _world()
    addr = deploy(w, assemble(STORE_SRC))
    execute_transaction(w, Transaction(1, addr, 0x01, [5, 7]))
    r = execute_transaction(w, Transaction(1, addr, 0x01, [5, 9]))
    assert r.gas_used == 3 * 5 + 5000


def test_revert_restores_storage():
    w = _world()
    addr = deploy(w, assemble(STORE_SRC))
    before = w.dump()
    r = execute_transaction(w, Transaction(1, addr, 0x02))
    assert r.status == STATUS_REVERTED
    assert w.dump() == before


def test_width8_add_wraps_with_overflow_event():
    w = _world(width=8)
    addr = deploy(w, assemble(STORE_SRC, Config(width=8)))
    r = execute_transaction(w, Transaction(1, addr, 0x03, [200, 100]))
    assert r.status == STATUS_ACCEPTED
    assert r.return_data == [44]
    checked = [e for e in per_block(r.trace) if e.kind == "ArithChecked"]
    assert checked and checked[0].get("overflow") is True


@settings(max_examples=60, deadline=None)
@given(
    a=st.integers(min_value=0, max_value=(1 << 64) - 1),
    b=st.integers(min_value=0, max_value=(1 << 64) - 1),
    width=st.sampled_from([8, 16, 32, 64]),
    op=st.sampled_from(["ADD", "SUB", "MUL"]),
)
def test_modular_arithmetic_property(a, b, width, op):
    mod = 1 << width
    a, b = a % mod, b % mod
    src = f"""
    contract t {{ fn f external selector=0x01 {{
      PUSH {a}
      PUSH {b}
      {op}
      PUSH 1
      RETURN
    }} }}
    """
    w = _world(width)
    addr = deploy(w, assemble(src, Config(width=width)))
    r = execute_transaction(w, Transaction(1, addr, 0x01))
    exact = {"ADD": a + b, "SUB": a - b, "MUL": a * b}[op]
    assert r.return_data == [exact % mod]
    event = next(e for e in per_block(r.trace) if e.kind == "ArithChecked")
    expected_flag = exact >= mod if op != "SUB" else a < b
    assert event.get("overflow") == expected_flag


def test_deployment_gas_200_per_byte():
    w = _world()
    prog = assemble(STORE_SRC)
    deploy(w, prog)
    addr, gas = w.deploy_log[-1]
    assert gas == prog.byte_size * 200


def test_size_limit_rejected():
    w = _world()
    body = "PUSH 0 POP " * 2500 + "STOP"
    big = assemble("contract big { fn f external { %s } }" % body)
    assert big.byte_size > 24576
    with pytest.raises(SizeLimitExceeded):
        deploy(w, big)


def test_unknown_selector_without_fallback():
    """A tx to a selector that ``store`` lacks, with no fallback, is refused.
    A CALL to it returns 0, runs no frame and moves no value, and its
    ExternalCallEnter names the reason, in the block engine and the
    reference alike."""
    w = _world()
    addr = deploy(w, assemble(STORE_SRC))
    with pytest.raises(UnknownSelectorError):
        execute_transaction(w, Transaction(1, addr, 0x77))
    caller = deploy(w, _one_fn(f"PUSH 0 PUSH 0x77 PUSH 1 PUSH {addr} CALL PUSH 1 RETURN"))
    w.set_balance(caller, 5)
    w.commit(0)
    before = w.dump()
    for vm_cls in (VM, ReferenceVM):
        r = vm_cls(w, TRACE_FULL).execute_transaction(Transaction(1, caller, 0x01))
        assert (r.status, r.return_data) == (STATUS_ACCEPTED, [0])
        assert w.dump() == before
        calls = [e for e in r.trace if e.kind.startswith("ExternalCall")]
        assert [(e.kind, e.detail) for e in calls] == [
            ("ExternalCallEnter", {
                "kind": "call", "target": addr, "code": "store", "fn": None, "site": (0, 4),
                "selector": 0x77, "reason": "selector",
            }),
            ("ExternalCallReturn", {"success": False}),
        ]


def test_transaction_to_no_contract_or_with_no_gas_is_refused():
    """The harness refuses a tx to an address without code, and a tx whose
    gas limit is not positive, before any frame runs."""
    w = _world()
    addr = deploy(w, assemble(STORE_SRC))
    before = w.dump()
    with pytest.raises(VmError, match="is not a contract"):
        execute_transaction(w, Transaction(1, addr + 1, 0x01))
    assert w.dump() == before
    with pytest.raises(VmError, match="gas_limit must be positive"):
        Transaction(1, addr, 0x01, gas_limit=0)


def test_out_of_gas_rolls_back_and_charges_limit():
    w = _world()
    addr = deploy(w, assemble(STORE_SRC))
    before = w.dump()
    r = execute_transaction(w, Transaction(1, addr, 0x01, [5, 7], gas_limit=100))
    assert r.status == STATUS_OUT_OF_GAS
    assert r.gas_used == 100
    assert w.dump() == before


def test_determinism_identical_receipts():
    w1, w2 = _world(), _world()
    for w in (w1, w2):
        deploy(w, assemble(STORE_SRC))
    tx = Transaction(1, 0x100, 0x01, [3, 4])
    r1 = execute_transaction(w1, tx)
    r2 = execute_transaction(w2, tx)
    assert dataclasses.asdict(r1) == dataclasses.asdict(r2)
    assert w1.dump() == w2.dump()


def test_gas_additivity_against_charge_log():
    """With each offset its own gas point, every offset of these straight-line
    functions is charged once, at the schedule's price of its op."""
    sstore_costs = []

    class LoggingSchedule(GasSchedule):
        def sstore_cost(self, prev, new):
            cost = super().sstore_cost(prev, new)
            sstore_costs.append(cost)
            return cost

    gas = LoggingSchedule()
    cfg = Config(gas=gas)
    w = WorldState(cfg)
    prog = assemble(STORE_SRC, cfg)
    addr = deploy(w, prog)
    price = {
        Op.JUMPI: gas.jumpi,
        Op.MLOAD: gas.memory_op,
        Op.MSTORE: gas.memory_op,
        Op.SLOAD: gas.sload,
        Op.CALL: gas.call_base,
        Op.DELEGATECALL: gas.call_base,
    }
    txs = [(0x01, [5, 7]), (0x01, [5, 9]), (0x02, []), (0x03, [10, 20])]
    for selector, calldata in txs:
        sstore_costs.clear()
        points = _offset_points(w)
        vm = VM(w, gas_points=points)
        r = vm.execute_transaction(Transaction(1, addr, selector, calldata))
        assert r.status != STATUS_OUT_OF_GAS
        charges = _offset_charges(points)
        fid = prog.selector_table[selector]
        assert [(f, off) for _, f, off, _ in charges] == [
            (fid, off) for off in range(len(prog.functions[fid].body))
        ]
        stored = iter(sstore_costs)
        for _, fid, off, amount in charges:
            op = prog.functions[fid].body[off].op
            expected = next(stored) if op is Op.SSTORE else price.get(op, gas.base_op)
            assert amount == expected, (selector, fid, off, op)
        assert next(stored, None) is None
        assert sum(amount for *_, amount in charges) == r.gas_used


SNAPSHOT_SRC = """
contract snap {
  fn multi external selector=0x05 {
    PUSH 1
    PUSH 10
    SSTORE
    PUSH 2
    PUSH 11
    SSTORE
    PUSH 3
    PUSH 12
    SSTORE
    STOP
  }
}
"""


def test_snapshot_rollback_three_stores():
    w = _world()
    addr = deploy(w, assemble(SNAPSHOT_SRC))
    token = w.snapshot()
    w.sstore(addr, 10, 1)
    w.sstore(addr, 11, 2)
    w.sstore(addr, 12, 3)
    w.rollback(token)
    assert all(w.sload(addr, s) == 0 for s in (10, 11, 12))


def test_stale_snapshot_is_assertion():
    w = _world()
    token = w.snapshot()
    with pytest.raises(AssertionError):
        w.rollback(token + 5)


CALLS_SRC = """
contract outer {
  fn run external selector=0x0a {
    PUSH 9
    PUSH 1
    SSTORE           ; outer write
    PUSH 0           ; nargs
    PUSH 0x0b        ; selector
    PUSH 0           ; value
    PUSH 0
    CALLDATALOAD     ; callee address from calldata
    CALL
    PUSH 0
    MSTORE
    STOP
  }
}
"""

INNER_SRC = """
contract inner {
  fn poke external selector=0x0b {
    PUSH 5
    PUSH 2
    SSTORE
    PUSH 0
    REVERT
  }
}
"""


def test_nested_frame_revert_keeps_outer_writes():
    w = _world()
    outer = deploy(w, assemble(CALLS_SRC))
    inner = deploy(w, assemble(INNER_SRC))
    r = execute_transaction(w, Transaction(1, outer, 0x0a, [inner]))
    assert r.status == STATUS_ACCEPTED
    assert w.sload(outer, 1) == 9  # outer write kept
    assert w.sload(inner, 2) == 0  # inner write rolled back
    ret = [e for e in r.trace if e.kind == "ExternalCallReturn"]
    assert ret and ret[0].get("success") is False


def test_call_to_eoa_transfers_value():
    src = """
    contract payer {
      fn pay external selector=0x0c {
        PUSH 0
        PUSH 0
        PUSH 40       ; value
        PUSH 0x999    ; recipient
        CALL
        POP
        STOP
      }
    }
    """
    w = _world()
    addr = deploy(w, assemble(src))
    w.set_balance(addr, 100)
    w.commit(0)
    r = execute_transaction(w, Transaction(1, addr, 0x0c))
    assert r.status == STATUS_ACCEPTED
    assert w.balance_of(0x999) == 40
    assert w.balance_of(addr) == 60


def test_value_above_the_origin_balance_reverts_before_any_op():
    """A tx whose value exceeds its origin's balance runs no op: it reverts
    with no gas and no trace, and the world is unchanged."""
    w = _world()
    addr = deploy(w, _one_fn("PUSH 1 PUSH 0 SSTORE STOP"))
    w.set_balance(1, 4)
    w.commit(0)
    before = w.dump()
    r = VM(w, TRACE_FULL).execute_transaction(Transaction(1, addr, 0x01, value=5))
    assert (r.status, r.gas_used, r.trace, r.return_data) == (STATUS_REVERTED, 0, [], [])
    assert w.dump() == before


@pytest.mark.parametrize("end, kept", [("STOP", True), ("PUSH 0 REVERT", False)])
def test_reverted_tx_removes_the_account_its_call_created(end, kept):
    """A value CALL to a fresh address creates its account; a REVERT after
    it rolls the creation back, and no account is left behind."""
    w = _world()
    addr = deploy(w, _one_fn(f"PUSH 0 PUSH 0 PUSH 1 PUSH 0x999 CALL POP {end}"))
    w.set_balance(1, 10)
    w.commit(0)
    before = w.dump()
    r = VM(w, TRACE_FULL).execute_transaction(Transaction(1, addr, 0x01, value=1))
    assert (r.status == STATUS_ACCEPTED) == kept
    assert (0x999 in w.accounts) == kept
    if not kept:
        assert w.dump() == before


@pytest.mark.parametrize("vm_cls", [VM, ReferenceVM], ids=["block-engine", "reference"])
def test_calldata_count_must_fit_a_word(vm_cls):
    """At width 8 CALLDATASIZE of 256 words would be no word: both VMs
    refuse the tx, and read 255 words as 255, with no overflow on a checked
    SUB of it."""
    prog = _one_fn("CALLDATASIZE PUSH 0 SUB PUSH 1 RETURN")
    w = _world(width=8)
    addr = deploy(w, prog)
    with pytest.raises(VmError, match="256 calldata words"):
        vm_cls(w, TRACE_FULL).execute_transaction(Transaction(1, addr, 0x01, [0] * 256))
    r = vm_cls(w, TRACE_FULL).execute_transaction(Transaction(1, addr, 0x01, [0] * 255))
    assert (r.status, r.return_data) == (STATUS_ACCEPTED, [255])
    checked = [e.get("overflow") for e in per_block(r.trace) if e.kind == "ArithChecked"]
    assert checked == [False]


DELEGATE_LIB_SRC = """
contract lib {
  fn setowner external selector=0x31 {
    CALLER
    PUSH 0
    SSTORE
    STOP
  }
}
"""

DELEGATE_HOST_SRC = """
contract host {
  fn run external selector=0x40 {
    PUSH 0           ; nargs
    PUSH 0x31        ; selector
    PUSH 0
    CALLDATALOAD     ; lib address
    DELEGATECALL
    POP
    STOP
  }
}
"""


def test_delegatecall_writes_caller_storage():
    """Library code runs against the calling contract's storage and caller."""
    w = _world()
    host = deploy(w, assemble(DELEGATE_HOST_SRC))
    lib = deploy(w, assemble(DELEGATE_LIB_SRC))
    r = execute_transaction(w, Transaction(0x77, host, 0x40, [lib]))
    assert r.status == STATUS_ACCEPTED
    # CALLER inside the delegated frame is the host's caller (the origin)
    assert w.sload(host, 0) == 0x77
    assert w.sload(lib, 0) == 0


TSTASH_SRC = """
contract tstash {
  fn put external selector=0x61 {
    PUSH 1
    CALLDATALOAD     ; value
    PUSH 0
    CALLDATALOAD     ; slot
    TSTORE
    STOP
  }
  fn get external selector=0x62 {
    PUSH 0
    CALLDATALOAD
    TLOAD
    PUSH 1
    RETURN
  }
  fn put_then_revert external selector=0x63 {
    PUSH 9
    PUSH 5
    TSTORE
    PUSH 0
    REVERT
  }
}
"""

# Host: set its slot 1 to 41, call the library (DELEGATECALL for 0x70, CALL
# for 0x71) with the selector in calldata word 1, return its slot 1.
TRANSIENT_HOST_SRC = """
contract thost {
  fn delegate external selector=0x70 {
    PUSH 41
    PUSH 1
    TSTORE
    PUSH 0           ; nargs
    PUSH 1
    CALLDATALOAD     ; selector
    PUSH 0
    CALLDATALOAD     ; lib address
    DELEGATECALL
    POP
    PUSH 1
    TLOAD
    PUSH 1
    RETURN
  }
  fn call external selector=0x71 {
    PUSH 41
    PUSH 1
    TSTORE
    PUSH 0           ; nargs
    PUSH 1
    CALLDATALOAD     ; selector
    PUSH 0           ; value
    PUSH 0
    CALLDATALOAD     ; lib address
    CALL
    POP
    PUSH 1
    TLOAD
    PUSH 1
    RETURN
  }
}
"""

# Library: slot 1 += 1 in the executing account's transient storage; 0x73
# then reverts its frame.
TRANSIENT_LIB_SRC = """
contract tlib {
  fn bump external selector=0x72 {
    PUSH 1
    TLOAD
    PUSH 1
    ADD
    PUSH 1
    TSTORE
    STOP
  }
  fn bump_then_revert external selector=0x73 {
    PUSH 1
    TLOAD
    PUSH 1
    ADD
    PUSH 1
    TSTORE
    PUSH 0
    REVERT
  }
}
"""


def test_transient_value_gone_in_next_tx():
    """A transient write is readable for the rest of its tx and the world
    keeps it until the next tx, which starts with empty transient storage."""
    w = _world()
    addr = deploy(w, assemble(TSTASH_SRC))
    assert execute_transaction(w, Transaction(1, addr, 0x61, [5, 9])).status == STATUS_ACCEPTED
    assert w.tload(addr, 5) == 9
    r = execute_transaction(w, Transaction(1, addr, 0x62, [5]))
    assert (r.status, r.return_data) == (STATUS_ACCEPTED, [0])
    assert w.tload(addr, 5) == 0


def test_transient_write_rolled_back_by_tx_revert():
    w = _world()
    addr = deploy(w, assemble(TSTASH_SRC))
    r = execute_transaction(w, Transaction(1, addr, 0x63))
    assert r.status == STATUS_REVERTED
    assert w.tload(addr, 5) == 0


@pytest.mark.parametrize(
    "host_sel, lib_sel, host_sees, lib_keeps",
    [
        (0x70, 0x72, 42, 0),  # DELEGATECALL: the library bumps the host's map
        (0x70, 0x73, 41, 0),  # ... and its frame revert undoes the bump
        (0x71, 0x72, 41, 1),  # CALL: the library sees only its own map
        (0x71, 0x73, 41, 0),
    ],
    ids=["delegatecall", "delegatecall-frame-revert", "call", "call-frame-revert"],
)
def test_transient_storage_follows_executing_account(host_sel, lib_sel, host_sees, lib_keeps):
    w = _world()
    host = deploy(w, assemble(TRANSIENT_HOST_SRC))
    lib = deploy(w, assemble(TRANSIENT_LIB_SRC))
    r = execute_transaction(w, Transaction(1, host, host_sel, [lib, lib_sel]))
    assert (r.status, r.return_data) == (STATUS_ACCEPTED, [host_sees])
    assert (w.tload(host, 1), w.tload(lib, 1)) == (host_sees, lib_keeps)


def test_transient_ops_charge_their_schedule_fields():
    """TLOAD and TSTORE cost ``gas.tload`` and ``gas.tstore`` flat, in the
    VM and in guardcode's static pricing."""
    from pathguard.guardcode import Asm, seq_gas

    for gas in (GasSchedule(), GasSchedule(tload=7, tstore=11)):
        config = Config(gas=gas)
        w = WorldState(config)
        addr = deploy(w, assemble(TSTASH_SRC, config))
        # PUSH, CALLDATALOAD, PUSH, CALLDATALOAD, TSTORE, STOP
        put = execute_transaction(w, Transaction(1, addr, 0x61, [5, 9]))
        assert put.gas_used == 5 * gas.base_op + gas.tstore
        # PUSH, CALLDATALOAD, TLOAD, PUSH, RETURN
        get = execute_transaction(w, Transaction(1, addr, 0x62, [5]))
        assert get.gas_used == 4 * gas.base_op + gas.tload
        seq = Asm().push(0).emit(Op.TLOAD).push(1).emit(Op.TSTORE)
        assert seq_gas(seq.items, config) == 2 * gas.base_op + gas.tload + gas.tstore


def test_transient_storage_not_in_dump_or_clone():
    w = _world()
    addr = deploy(w, assemble(TSTASH_SRC))
    execute_transaction(w, Transaction(1, addr, 0x61, [5, 9]))
    assert w.tload(addr, 5) == 9
    assert w.dump()[hex(addr)]["storage"] == {}
    assert w.clone().transient == {}


def test_empty_calldata_no_selector_runs_fallback():
    src = """
    contract t {
      fn named external selector=0x9 { STOP }
      fn fallback external { PUSH 7 PUSH 1 SSTORE STOP }
    }
    """
    w = _world()
    addr = deploy(w, assemble(src))
    r = execute_transaction(w, Transaction(1, addr, None))
    assert r.status == STATUS_ACCEPTED
    assert w.sload(addr, 1) == 7


def test_unmatched_selector_falls_back():
    src = """
    contract t {
      fn named external selector=0x9 { STOP }
      fn fallback external { PUSH 7 PUSH 1 SSTORE STOP }
    }
    """
    w = _world()
    addr = deploy(w, assemble(src))
    r = execute_transaction(w, Transaction(1, addr, 0x1234))
    assert r.status == STATUS_ACCEPTED
    assert w.sload(addr, 1) == 7


def test_call_depth_limit_fails_not_aborts():
    """A call tower past depth 64 fails the call; the caller continues."""
    src = """
    contract deep {
      fn dig external selector=0x50 {
        PUSH 0           ; nargs
        PUSH 0x50        ; recurse
        PUSH 0           ; value
        ADDRESS          ; self
        CALL
        PUSH 2
        SSTORE           ; storage[2] = success of inner call
        STOP
      }
    }
    """
    w = _world()
    addr = deploy(w, assemble(src))
    r = execute_transaction(w, Transaction(1, addr, 0x50, gas_limit=10_000_000))
    assert r.status == STATUS_ACCEPTED
    enters = [e for e in r.trace if e.kind == "ExternalCallEnter"]
    results = [e.get("success") for e in r.trace if e.kind == "ExternalCallReturn"]
    assert len(enters) == 64  # 63 nested frames plus the rejected attempt
    assert results.count(False) == 1  # only the depth-limited call fails


def _offset_points(world, first=0):
    """Gas points for every code deployed in ``world``: each offset is its
    own point, numbered in (fid, offset) order from ``first``."""
    points = {}
    for acct in world.accounts.values():
        code = acct.code
        if code is not None and code.name not in points:
            owners, n = [], first
            for fn in code.functions:
                owners.append(list(range(n, n + len(fn.body))))
                n += len(fn.body)
            points[code.name] = (owners, [0] * n)
    return points


def _offset_charges(points) -> list[tuple[str, int, int, int]]:
    """Sorted (code, fid, offset, gas) rows of the nonzero totals in ``points``."""
    return sorted(
        (code, fid, off, acc[pid])
        for code, (owners, acc) in points.items()
        for fid, table in enumerate(owners)
        for off, pid in enumerate(table)
        if acc[pid]
    )


def _vm_runs(charges=False, vm_cls=VM, plain_levels=(TRACE_FULL,)):
    """Run the pinned corpus under ``vm_cls``; yield (scenario, guarded,
    receipt, world, charges) per tx, ``guarded`` the protected bundle of a
    protected tx and None for an original one.

    Each fixture runs its training stream plus one 30-tx test sequence:
    uninstrumented at each of ``plain_levels``, and protected at
    TRACE_CHECKS. With ``charges``, a protected tx also yields its
    ``_offset_charges``.
    """
    for scenario in ALL_SCENARIOS:
        bundle = scenario.bundle()
        records = scenario.training + scenario.test_sequence(random.Random(0), 30)[0]
        for level in plain_levels:
            plain = build_world(bundle)
            for record in bundle.setup + records:
                tx = parse_tx(record, plain, bundle)
                receipt = vm_cls(plain.world, level).execute_transaction(tx)
                yield scenario.name, None, receipt, plain.world, None
        guarded = protect(bundle, train(bundle, scenario.training))
        deployed = deploy_guarded(guarded)
        for record in records:
            tx = parse_tx(record, deployed, bundle)
            points = _offset_points(deployed.world) if charges else None
            vm = vm_cls(deployed.world, TRACE_CHECKS, guarded.checkers, gas_points=points)
            receipt = vm.execute_transaction(tx)
            rows = _offset_charges(points) if charges else None
            yield scenario.name, guarded, receipt, deployed.world, rows


def _vm_digest() -> str:
    """sha256 over every receipt, trace event and per-offset gas total of the
    corpus run by ``_vm_runs``. Any change to the interpreter's observable
    behaviour moves it."""
    h = hashlib.sha256()
    current = None
    for name, _guarded, receipt, _world, charges in _vm_runs(charges=True):
        if name != current:
            current = name
            h.update(name.encode())
        if charges is not None:
            h.update(repr(charges).encode())
        h.update(
            repr((receipt.status, receipt.gas_used, receipt.return_data)).encode()
        )
        for ev in per_block(receipt.trace):
            h.update(repr((ev.kind, ev.contract, ev.fn, ev.offset, ev.detail)).encode())
    return h.hexdigest()


def _vm_records():
    """Per-tx records of the ``_vm_runs`` corpus that do not depend on code
    layout: status, gas, return data, alarms, the PathChecked (contract, fn,
    combined) sequence and a digest of every account's storage after the
    tx. A protected tx's status and alarms are read as detection reads
    them (``workflow.guard_verdict``): the payload of an exit routine's
    revert that ends the tx, else those of its inner guard reverts. Two
    builds can be compared record by record when emitted code changes."""
    count: dict[tuple[str, bool], int] = {}
    for name, guarded, receipt, world, _charges in _vm_runs():
        protected = guarded is not None
        index = count[(name, protected)] = count.get((name, protected), -1) + 1
        status, alarms = receipt.status, []
        if protected:
            status, raws = guard_verdict(guarded, receipt)
            alarms = [tuple(raw) for raw in raws]
        storage = {
            hex(addr): sorted(acct.storage.items()) for addr, acct in world.accounts.items()
        }
        yield {
            "scenario": name,
            "protected": protected,
            "index": index,
            "status": status,
            "gas_used": receipt.gas_used,
            "return_data": receipt.return_data,
            "alarms": alarms,
            "checked": [
                (ev.contract, ev.fn, ev.get("combined"))
                for ev in receipt.trace
                if ev.kind == "PathChecked"
            ],
            "storage": hashlib.sha256(repr(sorted(storage.items())).encode()).hexdigest(),
        }


def test_observable_behaviour_pinned_on_corpus():
    assert _vm_digest() == (
        "95a57257763059168d1a3b02045ba402e6e81e5cb5e9edd1727eb2d6c0a89d30"
    )


def test_every_trace_event_has_a_reader():
    """An uninstrumented TRACE_FULL trace holds only events the trace oracle
    handles, its control flow as Region events alone: a tail IRET is a
    one-step Region event, no CallReturn. A protected TRACE_CHECKS trace
    holds only the two detection reads."""
    full: set[str] = set()
    checks: set[str] = set()
    first_steps = set()
    for _name, guarded, receipt, _world, _charges in _vm_runs():
        (full if guarded is None else checks).update(ev.kind for ev in receipt.trace)
        first_steps.update(
            step_fields(ev.get("steps")[0])[0] for ev in receipt.trace if ev.kind == "Region"
        )
    assert {"Region", "ExternalCallEnter", "ExternalCallReturn"} <= full
    assert not {"CallEnter", "CallReturn"} & full
    assert [k for k in sorted(full) if k not in TraceOracle._HANDLERS] == []
    assert STEP_IRET in first_steps
    assert checks == {"PathChecked", "Revert"}


def _one_fn(body: str):
    return assemble("contract t { fn f external selector=0x01 { %s } }" % body)


@pytest.mark.parametrize(
    "body, offset, gas_used",
    [
        ("ISZERO STOP", 0, 3),  # unary
        ("PUSH 1 ADD STOP", 1, 6),  # checked binary
        ("PUSH 1 LT STOP", 1, 6),  # plain binary
        ("JUMPI end end: JUMPDEST STOP", 0, 10),
        ("PUSH 1 MSTORE STOP", 1, 6),
        ("PUSH 1 SWAP 1 STOP", 1, 6),
        ("DUP 1 STOP", 0, 3),
        ("PUSH 1 PUSH 2 RETURN", 2, 9),  # fewer words than RETURN's count
        ("PUSH 1 JUMP l l: JUMPDEST POP POP STOP", 4, 15),  # block needs 2, gets 1
        # fewer words than the call's argument count
        ("PUSH 2 PUSH 1 PUSH 0 PUSH 0x999 CALL STOP", 4, 712),
        ("PUSH 1 PUSH 7 PUSH 0 DELEGATECALL STOP", 3, 709),
    ],
)
def test_stack_underflow_reason_and_charge(body, offset, gas_used):
    w = _world()
    prog = _one_fn(body)
    addr = deploy(w, prog)
    r = execute_transaction(w, Transaction(1, addr, 0x01))
    assert r.status == STATUS_REVERTED
    # the failing instruction is charged before its operands are popped
    assert r.gas_used == gas_used
    revert = r.trace[-1]
    assert (revert.kind, revert.offset, revert.detail) == (
        "Revert", offset, {"reason": "stack underflow", "code": "t", "data": []}
    )
    _assert_matches_reference(Config(), prog, [([], 0, 10_000)])


@pytest.mark.parametrize(
    "body, first, per_push",
    [
        ("loop: JUMPDEST PUSH 1 JUMP loop", 0, 9),  # PUSH at offset 1
        ("PUSH 1 loop: JUMPDEST DUP 1 JUMP loop", 1, 9),  # DUP at offset 2
    ],
)
def test_stack_overflow_at_limit(body, first, per_push):
    w = _world()
    addr = deploy(w, _one_fn(body))
    r = execute_transaction(w, Transaction(1, addr, 0x01))
    assert r.status == STATUS_REVERTED
    revert = r.trace[-1]
    assert (revert.kind, revert.offset, revert.detail) == (
        "Revert", first + 1, {"reason": "stack overflow", "code": "t", "data": []}
    )
    # the stack holds exactly OPERAND_STACK_LIMIT words before the failing
    # push; the leading PUSH of the DUP variant supplies one of them
    pushes = OPERAND_STACK_LIMIT - first
    assert r.gas_used == 3 * first + per_push * pushes + 6


def _program(*bodies: list[Instruction]) -> ContractProgram:
    """A contract built without validation: function 0 is external under
    selector 0x01, the rest are internal."""
    fns = [
        FunctionDef(
            fid, f"f{fid}", Visibility.EXTERNAL if fid == 0 else Visibility.INTERNAL, body
        )
        for fid, body in enumerate(bodies)
    ]
    return ContractProgram("t", fns, {0x01: 0})


def _failure(prog: ContractProgram, width=64) -> tuple[str, int, tuple]:
    """(status, gas used, (fn, offset, detail) of the last trace event)."""
    w = _world(width)
    addr = deploy(w, prog)
    r = execute_transaction(w, Transaction(1, addr, 0x01))
    last = r.trace[-1]
    assert last.kind == "Revert"
    return r.status, r.gas_used, (last.fn, last.offset, last.detail)


def _ins(op: Op, imm: int | None = None) -> Instruction:
    return Instruction(op, imm)


def test_fall_off_after_not_taken_final_jumpi():
    # one block of seven ops whose final JUMPI is not taken
    body = [
        _ins(Op.JUMPDEST), _ins(Op.PUSH, 5), _ins(Op.PUSH, 7), _ins(Op.ADD),
        _ins(Op.POP), _ins(Op.PUSH, 0), _ins(Op.JUMPI, 0),
    ]
    assert _failure(_program(body)) == (
        STATUS_REVERTED, 6 * 3 + 10,
        (0, 7, {"reason": "fell off function body", "code": "t", "data": []}),
    )


def test_internal_call_depth_exceeded():
    # the entry's ICALL, then 64 rounds of PUSH POP ICALL; the last ICALL
    # finds INTERNAL_DEPTH_LIMIT frames open and fails, charged
    entry = [_ins(Op.ICALL, 1), _ins(Op.STOP)]
    rec = [_ins(Op.PUSH, 1), _ins(Op.POP), _ins(Op.ICALL, 1), _ins(Op.IRET)]
    assert _failure(_program(entry, rec)) == (
        STATUS_REVERTED, 3 + 64 * 9,
        (1, 2, {"reason": "internal call depth exceeded", "code": "t", "data": []}),
    )


def test_iret_outside_internal_call():
    body = [_ins(Op.PUSH, 1), _ins(Op.POP), _ins(Op.IRET)]
    assert _failure(_program(body)) == (
        STATUS_REVERTED, 9, (0, 2, {"reason": "IRET outside internal call", "code": "t", "data": []}),
    )


@pytest.mark.parametrize(
    "body", ["PUSH 1 PUSH 2 DUP 0 STOP", "PUSH 1 PUSH 2 SWAP 0 POP STOP"]
)
def test_zero_dup_and_swap_fail_mid_block(body):
    # depth 0 never names a stack word, whatever the stack holds
    assert _failure(_one_fn(body)) == (
        STATUS_REVERTED, 9, (0, 2, {"reason": "stack underflow", "code": "t", "data": []})
    )


OOG_SRC = """
contract oog { fn f external selector=0x01 {
  PUSH 200
  PUSH 100
  ADD            ; wraps at width 8
  PUSH 7
  ADD
  JUMP next
next: JUMPDEST
  PUSH 3
  MUL
  PUSH 1
  SUB
  PUSH 0
  MSTORE
  STOP
} }
"""


def test_out_of_gas_at_every_limit_keeps_the_trace_prefix():
    """Every op of this straight-line program costs 3, so the op at offset p
    has been charged once 3 * (p + 1) gas is spent. Under any smaller limit
    the trace holds each BlockEnter whose predecessors were paid for and
    each ArithChecked whose op was, and no other event."""
    config = Config(width=8)
    prog = assemble(OOG_SRC, config)
    cost = 3 * len(prog.functions[0].body)

    def run(limit):
        w = WorldState(config)
        addr = deploy(w, prog)
        r = VM(w, TRACE_FULL).execute_transaction(Transaction(1, addr, 0x01, gas_limit=limit))
        return r, [(e.kind, e.fn, e.offset, e.detail) for e in per_block(r.trace)]

    done, full = run(cost)
    assert (done.status, done.gas_used) == (STATUS_ACCEPTED, cost)
    assert [k for k, *_ in full] == [
        "BlockEnter", "ArithChecked", "ArithChecked", "BlockEnter", "ArithChecked",
        "ArithChecked",
    ]
    paid = {"BlockEnter": 0, "ArithChecked": 1}
    for limit in range(1, cost):
        r, trace = run(limit)
        assert (r.status, r.gas_used) == (STATUS_OUT_OF_GAS, limit)
        assert trace == [ev for ev in full if 3 * (ev[2] + paid[ev[0]]) <= limit], limit


def test_gas_limit_equal_to_cost_is_enough():
    w = _world()
    addr = deploy(w, assemble(STORE_SRC))
    cost = 3 * 5 + 20000
    r = execute_transaction(w, Transaction(1, addr, 0x01, [5, 7], gas_limit=cost))
    assert (r.status, r.gas_used) == (STATUS_ACCEPTED, cost)
    w2 = _world()
    addr = deploy(w2, assemble(STORE_SRC))
    r = execute_transaction(w2, Transaction(1, addr, 0x01, [5, 7], gas_limit=cost - 1))
    assert (r.status, r.gas_used) == (STATUS_OUT_OF_GAS, cost - 1)
    assert w2.sload(addr, 5) == 0


def test_failed_inner_call_gas_counts_toward_outer():
    w = _world()
    outer = deploy(w, assemble(CALLS_SRC))
    inner = deploy(w, assemble(INNER_SRC))
    r = execute_transaction(w, Transaction(1, outer, 0x0a, [inner]))
    assert r.status == STATUS_ACCEPTED
    # outer: 2 PUSH, SSTORE set, 4 PUSH, CALLDATALOAD, CALL, PUSH, MSTORE, STOP
    outer_gas = 6 + 20000 + 15 + 700 + 6 + 3
    # inner: 2 PUSH, SSTORE set (rolled back, still paid), PUSH, REVERT
    inner_gas = 6 + 20000 + 6
    assert r.gas_used == outer_gas + inner_gas


FAILING_LIB_SRC = """
contract lib {
  fn setowner external selector=0x31 {
    CALLER
    PUSH 0
    SSTORE
    PUSH 0
    REVERT
  }
}
"""


def test_failed_inner_delegatecall_gas_counts_toward_outer():
    w = _world()
    host = deploy(w, assemble(DELEGATE_HOST_SRC))
    lib = deploy(w, assemble(FAILING_LIB_SRC))
    r = execute_transaction(w, Transaction(0x77, host, 0x40, [lib]))
    assert r.status == STATUS_ACCEPTED
    assert w.sload(host, 0) == 0
    # host: 3 PUSH, CALLDATALOAD, DELEGATECALL, POP, STOP
    host_gas = 12 + 700 + 6
    # lib: CALLER, PUSH, SSTORE set (rolled back), PUSH, REVERT
    lib_gas = 6 + 20000 + 6
    assert r.gas_used == host_gas + lib_gas


# Ops whose top operand a compiled block reads as a literal after a PUSH.
_FUSED = [Op.MLOAD, Op.MSTORE] + [op for op in Op if Op.ADD.code <= op.code <= Op.XOR.code]
# Ops that take a PUSHed word as a slot, index or count (the ones that end
# a block read it from the stack).
_READ_PUSH = [
    Op.SSTORE, Op.TSTORE, Op.SLOAD, Op.TLOAD, Op.CODELOAD, Op.CALLDATALOAD, Op.BALANCE,
    Op.RETURNDATALOAD, Op.RETURN, Op.REVERT,
]
_DIFF_ORIGIN = 0x11


@st.composite
def _diff_cases(draw):
    """A random unvalidated program over the whole ISA, one to three txs,
    and the functions traced as checkers.

    Function 0 is the external entry. It may open with a run of PUSHes that
    fills the stack, up to near OPERAND_STACK_LIMIT. Each function has a
    JUMPDEST, and every jump targets one. Fragments pair a PUSH with an op
    that reads its word, as a literal or not. A diamond is a JUMPI whose two
    straight arms rejoin; a chain is 6 to 10 diamonds in sequence, whose
    joins a region copies into each arm until its op budget ends it. The
    last function is shaped like a checker: a straight run, a JUMPI, and
    two arms that each IRET; a check site PUSHes a word and ICALLs it. A
    body may end in an exit or run off its end.
    """
    width = draw(st.sampled_from([8, 64]))
    # cheap storage and calls, so that they complete under small gas limits
    gas = GasSchedule(
        memory_op=4, sload=7, sstore_set=40, sstore_update=20, tload=5, tstore=6, call_base=30
    )
    config = Config(width=width, gas=gas)
    mask = config.mask
    # mask + 2 is wider than a word; an unvalidated PUSH of it pushes 1, and
    # a transaction may not carry it
    tx_words = st.one_of(st.integers(0, 6), st.sampled_from([mask, 0x80, 1 << (width - 1)]))
    words = st.one_of(tx_words, st.just(mask + 2))
    nfns = draw(st.integers(1, 3))
    checker = nfns  # the checker-shaped function's id
    plain = [op for op in Op if op not in (Op.JUMP, Op.JUMPI, Op.ICALL, Op.JUMPDEST)]
    pair = st.tuples(st.just("pair"), words, st.sampled_from(_FUSED + _READ_PUSH))
    # ops that neither jump nor end a block but SSTORE's pair
    straight = st.lists(
        st.one_of(
            st.sampled_from([op for op in plain if op.code < Op.SSTORE.code]),
            pair,
        ),
        max_size=4,
    )
    maybe_word = st.one_of(st.none(), words)
    diamond = st.tuples(st.just("diamond"), maybe_word, straight, straight)
    items = st.lists(
        st.one_of(
            st.sampled_from(plain),
            st.sampled_from([Op.PUSH, Op.DUP, Op.SWAP]),
            st.sampled_from([Op.JUMPDEST, Op.JUMP, Op.JUMPI, Op.ICALL]),
            pair,
            diamond,
            st.tuples(st.just("chain"), st.lists(diamond, min_size=6, max_size=10)),
            st.tuples(st.just("site"), words),
        ),
        min_size=1, max_size=20,
    )

    def expand(item) -> list:
        """Body entries: an Op to complete, ("i", Instruction), ("jump", op,
        label), ("dest", label) or ("call", fid)."""
        if not isinstance(item, tuple):
            return [item]
        if item[0] == "pair":
            return [("i", Instruction(Op.PUSH, item[1])), ("i", Instruction(item[2]))]
        if item[0] == "site":
            return [("i", Instruction(Op.PUSH, item[1])), ("call", checker)]
        out = []
        for entry in item:
            if isinstance(entry, list):
                out += [part for sub in entry for part in expand(sub)]
        return out

    def branch(cond, taken: list, other: list, rejoin: bool) -> list:
        """A JUMPI over ``cond`` (a PUSHed word, or the stack's top) to
        ``taken``, falling through to ``other``; with ``rejoin`` both arms
        go on after it, else each ends in an IRET."""
        head = [] if cond is None else [("i", Instruction(Op.PUSH, cond))]
        a, b = object(), object()
        fall = [part for sub in other for part in expand(sub)]
        jump = [("jump", Op.JUMP, b)] if rejoin else [Op.IRET]
        arm = [part for sub in taken for part in expand(sub)]
        tail = [("dest", b)] if rejoin else [Op.IRET]
        return head + [("jump", Op.JUMPI, a)] + fall + jump + [("dest", a)] + arm + tail

    def is_dest(item) -> bool:
        return item is Op.JUMPDEST or (isinstance(item, tuple) and item[0] == "dest")

    bodies = []
    for fid in range(nfns + 1):
        if fid == checker:
            run = [part for sub in draw(straight) for part in expand(sub)]
            body = run + branch(draw(maybe_word), draw(straight), draw(straight), False)
        else:
            body = []
            for item in draw(items):
                chain = item[1] if isinstance(item, tuple) and item[0] == "chain" else [item]
                for part in chain:
                    if isinstance(part, tuple) and part[0] == "diamond":
                        body += branch(part[1], part[2], part[3], True)
                    else:
                        body += expand(part)
            body += draw(st.sampled_from([[], [Op.STOP], [Op.RETURN], [Op.REVERT], [Op.IRET]]))
        if not any(map(is_dest, body)):
            body.insert(draw(st.integers(0, len(body))), Op.JUMPDEST)
        if fid == 0:
            fill = draw(
                st.sampled_from([0, 8, 32, OPERAND_STACK_LIMIT - 2, OPERAND_STACK_LIMIT])
            )
            body = [("i", Instruction(Op.PUSH, 1))] * fill + body
        labels = {item[1]: off for off, item in enumerate(body)
                  if isinstance(item, tuple) and item[0] == "dest"}
        dests = [off for off, item in enumerate(body) if is_dest(item)]
        out = []
        for item in body:
            if isinstance(item, tuple):
                kind = item[0]
                if kind == "i":
                    out.append(item[1])
                elif kind == "jump":
                    out.append(Instruction(item[1], labels[item[2]]))
                elif kind == "dest":
                    out.append(Instruction(Op.JUMPDEST))
                else:
                    out.append(Instruction(Op.ICALL, item[1]))
            elif item in (Op.JUMP, Op.JUMPI):
                out.append(Instruction(item, draw(st.sampled_from(dests))))
            elif item is Op.ICALL:
                out.append(Instruction(item, draw(st.integers(0, checker))))
            elif item in (Op.DUP, Op.SWAP):
                out.append(Instruction(item, draw(st.integers(0, 3))))
            elif item is Op.PUSH:
                out.append(Instruction(item, draw(words)))
            else:
                out.append(Instruction(item))
        bodies.append(out)
    txs = draw(st.lists(
        st.tuples(
            st.lists(tx_words, max_size=3),  # calldata
            st.integers(0, 2),  # value
            st.one_of(st.integers(1, 300), st.integers(3_000, 20_000), st.just(20_000)),  # gas
        ),
        min_size=1, max_size=3,
    ))
    checkers = draw(st.frozensets(st.integers(0, checker)))
    return config, _program(*bodies), txs, checkers


def _diff_run(vm_cls, config, prog, txs, level, mirrored, checkers):
    world = WorldState(config)
    world.set_balance(_DIFF_ORIGIN, 100)
    addr = deploy(world, prog)
    runs = []
    for i, (calldata, value, gas_limit) in enumerate(txs):
        # a new owner table per tx, numbered apart from the last one's
        points = _offset_points(world, first=i) if mirrored else None
        # only TRACE_CHECKS takes checkers
        traced = {prog.name: checkers} if level == TRACE_CHECKS else None
        vm = vm_cls(world, level, traced, gas_points=points)
        r = vm.execute_transaction(
            Transaction(_DIFF_ORIGIN, addr, 0x01, calldata, value, gas_limit)
        )
        runs.append((
            (r.status, r.gas_used, r.return_data),
            [(e.kind, e.contract, e.fn, e.offset, e.detail) for e in per_block(r.trace)],
            _offset_charges(points) if mirrored else None,
            world.dump(),
            world.transient,
        ))
    return runs


@settings(max_examples=200, deadline=None)
@given(case=_diff_cases())
def test_block_engine_matches_per_instruction_reference(case):
    """Receipts, traces, per-offset charges and world state equal those of the
    per-instruction loop in tests/vm_reference.py, at TRACE_FULL, at
    TRACE_CHECKS with every offset its own gas point and the drawn
    checkers, and at TRACE_NONE."""
    _assert_matches_reference(*case)


_LEVELS = ((TRACE_FULL, False), (TRACE_CHECKS, True), (TRACE_NONE, False))


def _assert_matches_reference(config, prog, txs, checkers=frozenset()) -> None:
    for level, mirrored in _LEVELS:
        got = _diff_run(VM, config, prog, txs, level, mirrored, checkers)
        want = _diff_run(ReferenceVM, config, prog, txs, level, mirrored, checkers)
        assert got == want, level


_MASK64 = (1 << 64) - 1


@pytest.mark.parametrize(
    "body, calldata, returned",
    [
        pytest.param(
            "PUSH 10 PUSH 20 PUSH 30 JUMP l l: JUMPDEST DUP 3 SWAP 2 ADD SWAP 2 PUSH 3 RETURN",
            [], [10, 10, 50], id="dup-swap-below-entry",
        ),
        pytest.param(
            "PUSH 7 PUSH 5 MSTORE PUSH 5 MLOAD PUSH 9 PUSH 5 TSTORE PUSH 5 TLOAD "
            "PUSH 8 PUSH 0 CALLDATALOAD MSTORE PUSH 5 MLOAD PUSH 3 RETURN",
            [5], [8, 9, 7], id="load-after-store",
        ),
        pytest.param(
            "PUSH 5 PUSH 0 DIV PUSH 6 PUSH 0 CALLDATALOAD DIV PUSH 7 PUSH 2 DIV PUSH 3 RETURN",
            [0], [3, 0, 0], id="div-by-zero",
        ),
        pytest.param(
            "PUSH 3 PUSH 4 ADD PUSH 1 MSTORE PUSH 1 MLOAD PUSH 2 MUL PUSH 1 SUB "
            "PUSH 0 PUSH 1 SUB PUSH 2 RETURN",
            [], [_MASK64, 13], id="push-into-memory-and-alu",
        ),
    ],
)
def test_compiled_block_matches_reference(body, calldata, returned):
    """Each body's ops up to RETURN form one or two blocks; their compiled
    code returns these words and matches the reference at every level."""
    prog = _one_fn(body)
    w = _world()
    addr = deploy(w, prog)
    r = VM(w, TRACE_FULL).execute_transaction(Transaction(1, addr, 0x01, calldata))
    assert (r.status, r.return_data) == (STATUS_ACCEPTED, returned)
    _assert_matches_reference(Config(), prog, [(calldata, 0, 10_000)])


def test_checker_calls_are_traced_at_checks_and_full():
    """At TRACE_CHECKS each ICALL of a function named as a checker is one
    PathChecked event, at the ICALL's offset in its caller, carrying the top
    word. Other ICALLs and memory stores raise none. TRACE_NONE and
    TRACE_FULL refuse checkers; TRACE_NONE traces nothing, and TRACE_FULL
    traces every ICALL as a step, checker or not. The reference VM traces
    the same events."""
    prog = assemble("""
contract t {
  fn f external selector=0x01 {
    PUSH 42 ICALL chk PUSH 0 CALLDATALOAD ICALL chk PUSH 7 PUSH 0 MSTORE PUSH 9 ICALL other STOP
  }
  fn chk internal { PUSH 5 PUSH 1 MSTORE POP IRET }
  fn other internal { POP IRET }
}
""")
    checkers = frozenset({1})
    traced = {}
    for level in (TRACE_NONE, TRACE_CHECKS, TRACE_FULL):
        w = _world()
        addr = deploy(w, prog)
        if level == TRACE_CHECKS:
            vm = VM(w, level, {"t": checkers})
        else:
            with pytest.raises(VmError, match="checkers are traced at TRACE_CHECKS only"):
                VM(w, level, {"t": checkers})
            vm = VM(w, level)
        r = vm.execute_transaction(Transaction(1, addr, 0x01, [43]))
        assert r.status == STATUS_ACCEPTED
        traced[level] = [
            (e.kind, e.fn, e.offset, e.get("combined"), e.get("code"))
            for e in per_block(r.trace)
            if e.kind in ("PathChecked", "CallEnter")
        ]
    assert traced[TRACE_NONE] == []
    assert traced[TRACE_CHECKS] == [
        ("PathChecked", 0, 1, 42, "t"), ("PathChecked", 0, 4, 43, "t")
    ]
    assert traced[TRACE_FULL] == [
        ("CallEnter", 0, 1, None, None), ("CallEnter", 0, 4, None, None),
        ("CallEnter", 0, 9, None, None),
    ]
    _assert_matches_reference(Config(), prog, [([43], 0, 10_000)], checkers)


@pytest.mark.parametrize(
    "gas_limit, status, trace",
    [
        (10_000, STATUS_REVERTED, [("BlockEnter", 0), ("ArithChecked", 2), ("Revert", 4)]),
        (8, STATUS_OUT_OF_GAS, [("BlockEnter", 0)]),
    ],
    ids=["underflow-at-second-pop", "out-of-gas-at-add"],
)
def test_block_failing_its_entry_check_runs_its_prefix(gas_limit, status, trace):
    """The ops before the one that fails run, with their events."""
    prog = _one_fn("PUSH 1 PUSH 2 ADD POP POP STOP")
    w = _world()
    addr = deploy(w, prog)
    r = VM(w, TRACE_FULL).execute_transaction(Transaction(1, addr, 0x01, gas_limit=gas_limit))
    assert (r.status, [(e.kind, e.offset) for e in per_block(r.trace)]) == (status, trace)
    _assert_matches_reference(Config(), prog, [([], 0, gas_limit)])


@pytest.mark.parametrize("op", ["DUP", "SWAP"])
def test_dup_or_swap_past_the_stack_limit_underflows(op):
    """A DUP or SWAP immediate past OPERAND_STACK_LIMIT is a valid word at
    width 64. No stack holds that many words, so its block fails its entry
    check there; only the ops before it are compiled."""
    prog = _one_fn(f"PUSH 1 PUSH 2 {op} {1 << 40} STOP")
    validate_program(prog, Config())
    w = _world()
    addr = deploy(w, prog)
    r = VM(w, TRACE_CHECKS).execute_transaction(Transaction(1, addr, 0x01))
    assert r.status == STATUS_REVERTED
    assert [(e.kind, e.offset, e.get("reason")) for e in r.trace] == [
        ("Revert", 2, "stack underflow")
    ]
    _assert_matches_reference(Config(), prog, [([], 0, 10_000)])


def _region(prog: ContractProgram, fid: int = 0, pc: int = 0) -> tuple:
    """The region decoded at ``pc`` of function ``fid`` under the default
    schedule: (gas, need, room, deep, exits), each exit as (tail op or None,
    next pc, internal frames it leaves open)."""
    config = Config()
    gas, need, room, deep, _run, exits = _unit(
        prog.functions, fid, pc, price_table(config.gas), config.mask
    )
    rows = [(tail and _OPS[tail[0]].value, nxt, frames) for _g, nxt, tail, frames, *_ in exits]
    return gas, need, room, deep, rows


def test_region_runs_both_arms_of_a_jumpi():
    """A region goes through both arms of a JUMPI into the blocks each arm
    reaches; each arm ends at its own RETURN exit."""
    prog = _one_fn(
        "PUSH 0 CALLDATALOAD JUMPI yes PUSH 7 PUSH 1 RETURN "
        "yes: JUMPDEST PUSH 9 PUSH 1 RETURN"
    )
    gas, need, room, deep, exits = _region(prog)
    assert exits == [("RETURN", 10, ()), ("RETURN", 6, ())]
    # the costlier path is the taken arm's: 3 + 3 + 10 then 4 ops of 3
    assert (gas, need, room, deep) == (28, 0, OPERAND_STACK_LIMIT - 2, 64)
    for word, returned in ((0, [7]), (1, [9])):
        w = _world()
        addr = deploy(w, prog)
        r = VM(w, TRACE_NONE).execute_transaction(Transaction(1, addr, 0x01, [word]))
        assert (r.status, r.return_data) == (STATUS_ACCEPTED, returned)
    _assert_matches_reference(Config(), prog, [([0], 0, 10_000), ([1], 0, 10_000)])


def _record_fallbacks(monkeypatch) -> list:
    """A list that gets the (fid, pc) of each region entry that fails its
    entry check, and so is decoded again, in every later VM run."""
    fallbacks = []

    def unit(functions, fid, pc, prices, mask, entry=None):
        if entry is not None:
            fallbacks.append((fid, pc))
        return _unit(functions, fid, pc, prices, mask, entry)

    monkeypatch.setattr(vm_module, "_unit", unit)
    return fallbacks


def _diamonds(n: int) -> ContractProgram:
    """``n`` diamonds in sequence, then a RETURN of the ``n`` words they
    pushed, the last first: calldata word i takes diamond i's arm that
    pushes 2i + 1 when nonzero, else the one that pushes 2i. Each diamond
    after the first starts at the join of the one before it."""
    arms = "".join(
        f"PUSH {i} CALLDATALOAD JUMPI t{i} PUSH {2 * i} JUMP j{i} "
        f"t{i}: JUMPDEST PUSH {2 * i + 1} j{i}: JUMPDEST "
        for i in range(n)
    )
    return _one_fn(arms + f"PUSH {n} RETURN")


def test_region_runs_through_joins():
    """Three diamonds in sequence are one region: each arm carries its own
    copy of the blocks after its join, so the region has one RETURN exit
    per path, 8 in all, and no exit at a join."""
    prog = _diamonds(3)
    exits = _region(prog)[4]
    end = len(prog.functions[0].body)
    assert exits == [("RETURN", end, ())] * 8
    inputs = [list(bits) for bits in itertools.product((0, 1), repeat=3)]
    for bits in inputs:
        w = _world()
        addr = deploy(w, prog)
        r = VM(w, TRACE_NONE).execute_transaction(Transaction(1, addr, 0x01, bits))
        returned = [2 * i + bit for i, bit in reversed(list(enumerate(bits)))]
        assert (r.status, r.return_data) == (STATUS_ACCEPTED, returned)
    _assert_matches_reference(Config(), prog, [(bits, 0, 10_000) for bits in inputs])


def test_region_through_joins_ends_at_its_op_budget():
    """Four diamonds duplicated into every arm would take 164 ops, past
    ``_REGION_OPS``: the region ends 12 of its 16 paths at the budget, at
    the last join, where the next region goes on; the 4 copies of that
    join's block that fit end at its RETURN. Every input runs as in the
    reference."""
    prog = _diamonds(4)
    body = prog.functions[0].body
    exits = _region(prog)[4]
    tails = [tail for tail, _nxt, _frames in exits]
    assert (tails.count(None), tails.count("RETURN"), len(tails)) == (12, 4, 16)
    assert {nxt for tail, nxt, _ in exits if tail is None} == {len(body) - 3}
    assert body[-3].op is Op.JUMPDEST
    inputs = [list(bits) for bits in itertools.product((0, 1), repeat=4)]
    _assert_matches_reference(Config(), prog, [(bits, 0, 10_000) for bits in inputs])


def test_region_through_a_join_checks_its_costliest_path(monkeypatch):
    """The region's entry check prices the costly arm with the join's copy
    after it, so under a limit that pays for the cheap path alone the check
    fails and the first block runs alone; the cheap arm's region then
    completes. At every limit up to the costly path's gas, both inputs end
    with the reference's status, gas and trace."""
    prog = _one_fn(
        "PUSH 0 CALLDATALOAD JUMPI costly PUSH 7 JUMP join "
        "costly: JUMPDEST " + "PUSH 1 POP " * 10 + "PUSH 9 "
        "join: JUMPDEST PUSH 1 RETURN"
    )
    cheap, costly = 31, 91
    assert _region(prog)[0] == costly
    fallbacks = _record_fallbacks(monkeypatch)
    limits = range(1, costly + 1)
    for word, full in ((0, cheap), (1, costly)):
        statuses = []
        for limit in limits:
            w = _world()
            addr = deploy(w, prog)
            tx = Transaction(1, addr, 0x01, [word], gas_limit=limit)
            r = VM(w, TRACE_NONE).execute_transaction(tx)
            statuses.append((r.status, r.gas_used))
        assert statuses == [(STATUS_OUT_OF_GAS, n) for n in range(1, full)] + [
            (STATUS_ACCEPTED, full)
        ] * (costly + 1 - full)
        _assert_matches_reference(Config(), prog, [([word], 0, limit) for limit in limits])
    w = _world()
    addr = deploy(w, prog)
    fallbacks.clear()
    r = VM(w, TRACE_NONE).execute_transaction(Transaction(1, addr, 0x01, [0], gas_limit=cheap))
    assert (r.status, fallbacks) == (STATUS_ACCEPTED, [(0, 0)])


def test_region_through_a_join_checks_its_highest_arm():
    """Entered near ``OPERAND_STACK_LIMIT``, the region at ``l`` has room
    for the arm that pushes nothing but not for the one that pushes two
    words before the join's copy pushes two more. Its entry check fails,
    its blocks run one at a time: the low arm returns and the high arm
    overflows in its copy of the join, as in the reference."""
    fill = OPERAND_STACK_LIMIT - 2
    prog = _one_fn(
        "PUSH 1 " * fill + "JUMP l l: JUMPDEST PUSH 0 CALLDATALOAD JUMPI high JUMP join "
        "high: JUMPDEST PUSH 1 PUSH 1 join: JUMPDEST PUSH 1 PUSH 1 STOP"
    )
    _gas, _need, room, _deep, exits = _region(prog, pc=fill + 1)
    assert exits == [("STOP", fill + 13, ())] * 2
    assert room == OPERAND_STACK_LIMIT - 4 < fill
    outcomes = []
    for word in (0, 1):
        w = _world()
        addr = deploy(w, prog)
        r = VM(w, TRACE_CHECKS).execute_transaction(Transaction(1, addr, 0x01, [word]))
        outcomes.append((r.status, [(e.get("reason"), e.offset) for e in r.trace]))
    assert outcomes == [(STATUS_ACCEPTED, []), (STATUS_REVERTED, [("stack overflow", fill + 10)])]
    _assert_matches_reference(Config(), prog, [([0], 0, 10_000), ([1], 0, 10_000)])


def test_region_out_of_gas_in_its_second_block():
    """Under a limit that pays for the first block but not the second, the
    region fails its entry check, its first block runs alone, and the
    second runs out of gas at the op the reference stops at."""
    prog = _one_fn(
        "PUSH 1 PUSH 2 ADD JUMP next next: JUMPDEST PUSH 3 MUL PUSH 0 MSTORE STOP"
    )
    assert _region(prog)[4] == [("STOP", 10, ())]
    cost = 3 * 10
    limits = range(1, cost + 1)
    statuses = []
    for limit in limits:
        w = _world()
        addr = deploy(w, prog)
        r = VM(w, TRACE_FULL).execute_transaction(Transaction(1, addr, 0x01, gas_limit=limit))
        statuses.append((r.status, r.gas_used))
    assert statuses == [(STATUS_OUT_OF_GAS, n) for n in range(1, cost)] + [
        (STATUS_ACCEPTED, cost)
    ]
    _assert_matches_reference(Config(), prog, [([], 0, limit) for limit in limits])


@pytest.mark.parametrize(
    "body, reason, offset",
    [
        pytest.param(
            "PUSH 1 JUMP next next: JUMPDEST POP POP STOP", "stack underflow", 4,
            id="underflow",
        ),
        pytest.param(
            "PUSH 1 " * (OPERAND_STACK_LIMIT - 2)
            + "JUMP next next: JUMPDEST PUSH 1 PUSH 2 PUSH 3 STOP",
            "stack overflow", OPERAND_STACK_LIMIT + 2, id="overflow",
        ),
    ],
)
def test_region_stack_failure_in_its_second_block(body, reason, offset):
    """A stack failure partway through a region fails the region's entry
    check; its blocks then run one at a time, and the second fails at the
    reference's op with the reference's gas."""
    prog = _one_fn(body)
    assert len(_region(prog)[4]) == 1  # both blocks are one region
    w = _world()
    addr = deploy(w, prog)
    r = VM(w, TRACE_CHECKS).execute_transaction(Transaction(1, addr, 0x01))
    assert (r.status, r.trace[-1].offset, r.trace[-1].get("reason")) == (
        STATUS_REVERTED, offset, reason
    )
    _assert_matches_reference(Config(), prog, [([], 0, 10_000)])


DEEP_SRC = """
contract t {
  fn f external selector=0x01 { PUSH 0 CALLDATALOAD ICALL rec STOP }
  fn rec internal {
    DUP 1 ISZERO JUMPI base
    PUSH 1 SUB ICALL rec IRET
  base: JUMPDEST POP ICALL a IRET
  }
  fn a internal { ICALL b IRET }
  fn b internal { IRET }
}
"""


def test_region_internal_depth_limit_at_an_inlined_icall():
    """``rec`` recurses n times, then calls ``a``, which calls ``b``; the
    region at ``rec``'s entry inlines both. At n = 62 the 64th frame is
    ``b``'s, so ``a``'s ICALL fails: the region's depth check sends its
    blocks to run one at a time, and the ICALL fails as in the reference."""
    prog = assemble(DEEP_SRC)
    _gas, _need, _room, deep, exits = _region(prog, fid=1)
    assert deep == 64 - 2
    assert exits == [(None, 0, ((1, 6),)), ("IRET", 11, ())]
    outcomes = []
    for n in (60, 61, 62):
        w = _world()
        addr = deploy(w, prog)
        r = VM(w, TRACE_CHECKS).execute_transaction(Transaction(1, addr, 0x01, [n]))
        outcomes.append((r.status, r.trace[-1].fn if r.trace else None))
    assert outcomes == [(STATUS_ACCEPTED, None), (STATUS_ACCEPTED, None), (STATUS_REVERTED, 2)]
    assert r.trace[-1].get("reason") == "internal call depth exceeded"
    _assert_matches_reference(Config(), prog, [([n], 0, 100_000) for n in (60, 61, 62)])


def test_deep_recursion_failing_the_depth_check_runs_uncached_blocks(monkeypatch):
    """At n = 62 ``rec``'s regions fail their depth check near the bottom of
    the recursion. Each such entry decodes its first block again, uncached:
    a second run decodes as many, the region tables keep the same entries,
    and every level matches the reference."""
    prog = assemble(DEEP_SRC)
    fallbacks = _record_fallbacks(monkeypatch)
    w = _world()
    addr = deploy(w, prog)
    tx = Transaction(1, addr, 0x01, [62], gas_limit=100_000)
    runs = []
    for _ in range(2):
        fallbacks.clear()
        vm = VM(w, TRACE_FULL)
        r = vm.execute_transaction(tx)
        assert r.trace[-1].get("reason") == "internal call depth exceeded"
        tables = prog.units(vm.key, None)
        runs.append((list(fallbacks), [sorted(regions) for regions in tables]))
    assert runs[0] == runs[1]
    assert runs[0][0] == [(1, 0), (1, 7), (2, 0)]
    _assert_matches_reference(Config(), prog, [([62], 0, 100_000)])


_INLINED_CALL_SRC = """
contract t {
  fn f external selector=0x01 { PUSH 42 ICALL chk PUSH 1 PUSH 2 ADD POP STOP }
  fn chk internal { POP IRET }
}
"""


def _full_trace(prog, gas_limit=10_000) -> list[tuple]:
    """(kind, fn, offset) of each event of one TRACE_FULL run of ``prog``."""
    w = _world()
    addr = deploy(w, prog)
    r = VM(w, TRACE_FULL).execute_transaction(
        Transaction(1, addr, 0x01, gas_limit=gas_limit)
    )
    return [(e.kind, e.fn, e.offset) for e in per_block(r.trace)]


def test_full_trace_of_an_inlined_checker_call():
    """At TRACE_FULL the region runs ``chk`` inlined, and its ICALL traces
    CallEnter, then ``chk``'s BlockEnter; the PathChecked of a checker
    ICALL is traced at TRACE_CHECKS only."""
    prog = assemble(_INLINED_CALL_SRC)
    assert _region(prog)[4] == [("STOP", 7, ())]
    assert _full_trace(prog)[:3] == [
        ("BlockEnter", 0, 0), ("CallEnter", 0, 1), ("BlockEnter", 1, 0),
    ]
    _assert_matches_reference(Config(), prog, [([], 0, 10_000)], frozenset({1}))


def test_full_trace_of_an_inlined_iret():
    """The inlined IRET traces CallReturn, then the BlockEnter of the
    caller's block after the ICALL."""
    prog = assemble(_INLINED_CALL_SRC)
    assert _full_trace(prog)[2:] == [
        ("BlockEnter", 1, 0), ("CallReturn", 1, 1), ("BlockEnter", 0, 2), ("ArithChecked", 0, 4),
    ]
    _assert_matches_reference(Config(), prog, [([], 0, 10_000)])


def test_region_rooted_after_an_sstore_traces_no_block_enter():
    """The op after an SSTORE tail is no leader: the region rooted there
    traces no BlockEnter for its root."""
    prog = _one_fn("PUSH 1 PUSH 0 SSTORE PUSH 2 PUSH 1 SSTORE STOP")
    assert 3 not in prog.functions[0].leaders
    assert _region(prog, pc=3)[4] == [("SSTORE", 6, ())]
    assert _full_trace(prog) == [("BlockEnter", 0, 0)]
    _assert_matches_reference(Config(), prog, [([], 0, 100_000)])


@pytest.mark.parametrize(
    "body, gas_limit, trace",
    [
        ("PUSH 1 PUSH 2 ADD POP POP STOP", 2, [("BlockEnter", 0, 0)]),
        ("PUSH 1 JUMP next next: JUMPDEST PUSH 2 STOP", 6,
         [("BlockEnter", 0, 0), ("BlockEnter", 0, 2)]),
    ],
    ids=["entry-block", "jump-target"],
)
def test_gas_below_a_leader_blocks_first_op_traces_its_block_enter(body, gas_limit, trace):
    """The block cut short before its first op has no ops, and still traces
    the BlockEnter the reference traces before running out of gas."""
    prog = _one_fn(body)
    assert _full_trace(prog, gas_limit=gas_limit) == trace
    _assert_matches_reference(Config(), prog, [([], 0, gas_limit)])


def test_region_leaf_inside_an_inlined_callee_returns_by_iret():
    """A region that inlines ``g`` ends at the SSTORE inside it and leaves
    ``g``'s frame open; the next region runs the rest of ``g``, whose IRET
    then returns through that frame."""
    prog = assemble("""
contract t {
  fn f external selector=0x01 { PUSH 5 ICALL g PUSH 1 RETURN }
  fn g internal { PUSH 3 PUSH 0 SSTORE PUSH 2 ADD IRET }
}
""")
    assert _region(prog)[4] == [("SSTORE", 3, ((0, 2),))]
    assert _region(prog, fid=1, pc=3)[4] == [("IRET", 6, ())]
    w = _world()
    addr = deploy(w, prog)
    r = VM(w, TRACE_NONE).execute_transaction(Transaction(1, addr, 0x01))
    assert (r.status, r.return_data, w.sload(addr, 0)) == (STATUS_ACCEPTED, [7], 3)
    _assert_matches_reference(Config(), prog, [([], 0, 100_000)])


def test_region_ends_at_a_recursive_icall():
    """``f``'s region inlines ``r``; at ``r``'s own ICALL of ``r`` it stops
    with ``r``'s second frame open, and the next region starts at ``r``'s
    entry."""
    prog = assemble("""
contract t {
  fn f external selector=0x01 { PUSH 3 ICALL r PUSH 1 RETURN }
  fn r internal {
    DUP 1 ISZERO JUMPI done
    PUSH 1 SUB ICALL r IRET
  done: JUMPDEST IRET
  }
}
""")
    assert _region(prog)[4] == [(None, 0, ((0, 2), (1, 6))), ("RETURN", 4, ())]
    w = _world()
    addr = deploy(w, prog)
    r = VM(w, TRACE_NONE).execute_transaction(Transaction(1, addr, 0x01))
    assert (r.status, r.return_data) == (STATUS_ACCEPTED, [0])
    _assert_matches_reference(Config(), prog, [([], 0, 100_000)])


def test_region_inlined_checker_calls_are_traced():
    """Each inlined ICALL of a checker is one PathChecked event with the
    reference's fields: its caller's id (``g`` for the call ``g`` makes), the
    ICALL's offset there, the word on top of the stack (None on an empty
    stack) and the code's name. An ICALL of another function raises none."""
    prog = assemble("""
contract t {
  fn f external selector=0x01 {
    ICALL chk PUSH 0 CALLDATALOAD ICALL chk ICALL g PUSH 8 ICALL other STOP
  }
  fn chk internal { PUSH 1 JUMPI hit IRET hit: JUMPDEST IRET }
  fn g internal { PUSH 6 ICALL chk POP IRET }
  fn other internal { POP IRET }
}
""")
    exits = _region(prog)[4]
    assert [tail for tail, _nxt, _frames in exits] == ["STOP"] * len(exits)
    w = _world()
    addr = deploy(w, prog)
    checkers = frozenset({1})
    r = VM(w, TRACE_CHECKS, {"t": checkers}).execute_transaction(
        Transaction(1, addr, 0x01, [42])
    )
    assert r.status == STATUS_ACCEPTED
    assert [(e.kind, e.fn, e.offset, e.detail) for e in r.trace] == [
        ("PathChecked", 0, 0, {"combined": None, "code": "t"}),
        ("PathChecked", 0, 3, {"combined": 42, "code": "t"}),
        ("PathChecked", 2, 1, {"combined": 6, "code": "t"}),
    ]
    _assert_matches_reference(Config(), prog, [([42], 0, 10_000)], checkers)


def test_untraced_and_checked_runs_share_one_decode():
    """Regions that a TRACE_NONE run decodes serve TRACE_CHECKS and TRACE_FULL
    runs of the same program, which decode and compile nothing more and
    still trace their inlined call's events (its PathChecked at
    TRACE_CHECKS, its steps at TRACE_FULL): the trace level is read from
    the frame."""
    prog = assemble("""
contract t {
  fn f external selector=0x01 { PUSH 0 CALLDATALOAD ICALL chk STOP }
  fn chk internal { POP IRET }
}
""")
    w = _world()
    addr = deploy(w, prog)
    tx = Transaction(1, addr, 0x01, [5])
    VM(w, TRACE_NONE).execute_transaction(tx)
    tables = prog.units(VM(w).key, None)
    decoded = [len(regions) for regions in tables]
    compiled = _compile.cache_info().misses
    checkers = {"t": frozenset({1})}
    r = VM(w, TRACE_CHECKS, checkers).execute_transaction(tx)
    assert [(e.kind, e.get("combined")) for e in r.trace] == [("PathChecked", 5)]
    r = VM(w, TRACE_FULL).execute_transaction(tx)
    assert [(e.kind, e.fn, e.offset) for e in per_block(r.trace)] == [
        ("BlockEnter", 0, 0), ("CallEnter", 0, 2),
        ("BlockEnter", 1, 0), ("CallReturn", 1, 1), ("BlockEnter", 0, 3),
    ]
    assert [len(regions) for regions in tables] == decoded == [1, 0]
    assert _compile.cache_info().misses == compiled


def test_functions_with_one_body_share_one_compiled_region(monkeypatch):
    """Two external functions with the same body decode to regions of one
    source, compiled once: a path's steps sit in its exit record, so the
    source names no step, no Region call and no function, and renders one
    overflow-bit line for its one checked op. Their Region events differ
    only in ``fn``."""
    prog = assemble("""
contract t {
  fn f external selector=0x01 { PUSH 0 CALLDATALOAD PUSH 1 ADD PUSH 1 RETURN }
  fn g external selector=0x02 { PUSH 0 CALLDATALOAD PUSH 1 ADD PUSH 1 RETURN }
}
""")
    sources = []

    def source(root, mask):
        sources.append(_source(root, mask))
        return sources[-1]

    monkeypatch.setattr(vm_module, "_source", source)
    _tables.cache_clear()
    _compile.cache_clear()
    w = _world()
    addr = deploy(w, prog)
    events = []
    for selector in (0x01, 0x02):
        tx = Transaction(1, addr, selector, [_MASK64])
        r = VM(w, TRACE_FULL).execute_transaction(tx)
        assert (r.status, r.return_data) == (STATUS_ACCEPTED, [0])
        events.append([(e.kind, e.contract, e.fn, e.offset, e.detail) for e in r.trace])
    assert _compile.cache_info().misses == 1
    assert len(sources) == 2 and sources[0] == sources[1]
    assert "region" not in sources[0] and sources[0].count("B.append(") == 1
    steps = (region_step(STEP_BLOCK, 0), region_step(STEP_ADD, 3))
    detail = {"code": "t", "steps": steps, "bits": (True,)}
    assert events == [[("Region", addr, 0, 0, detail)], [("Region", addr, 1, 0, detail)]]
    _assert_matches_reference(Config(), prog, [([_MASK64], 0, 10_000)])


def test_region_leaves_add_their_own_point_charges():
    """The two arms of one region charge each executed op's gas to its
    offset, in the function it ran in: the inlined ICALL to ``f``, ``g``'s
    ops and IRET to ``g``; no op of the other arm is charged."""
    prog = assemble("""
contract t {
  fn f external selector=0x01 {
    PUSH 0 CALLDATALOAD JUMPI yes
    PUSH 4 ICALL g STOP
  yes: JUMPDEST PUSH 1 PUSH 0 MSTORE STOP
  }
  fn g internal { POP IRET }
}
""")
    assert [tail for tail, _nxt, _frames in _region(prog)[4]] == ["STOP", "STOP"]
    charged = []
    for word in (0, 1):
        w = _world()
        addr = deploy(w, prog)
        points = _offset_points(w)
        VM(w, TRACE_CHECKS, gas_points=points).execute_transaction(
            Transaction(1, addr, 0x01, [word])
        )
        charged.append([(fid, off, gas) for _code, fid, off, gas in _offset_charges(points)])
    head = [(0, 0, 3), (0, 1, 3), (0, 2, 10)]
    assert charged == [
        head + [(0, 3, 3), (0, 4, 3), (0, 5, 3), (1, 0, 3), (1, 1, 3)],
        head + [(0, 6, 3), (0, 7, 3), (0, 8, 3), (0, 9, 3), (0, 10, 3)],
    ]
    _assert_matches_reference(Config(), prog, [([0], 0, 10_000), ([1], 0, 10_000)])


def _corpus_observed(vm_cls):
    """Per tx of ``_vm_runs`` under ``vm_cls``, originals at TRACE_FULL and
    TRACE_NONE: receipt, trace, per-offset charges and the world's dump."""
    for name, guarded, r, world, charges in _vm_runs(True, vm_cls, (TRACE_FULL, TRACE_NONE)):
        trace = [(e.kind, e.contract, e.fn, e.offset, e.detail) for e in per_block(r.trace)]
        receipt = (r.status, r.gas_used, r.return_data)
        yield name, guarded is not None, receipt, trace, charges, world.dump()


def test_block_engine_matches_reference_on_corpus():
    """Every fixture's training and test streams, on its original and its
    protected contracts, run alike under the block engine and the
    per-instruction reference."""
    got = list(_corpus_observed(VM))
    want = list(_corpus_observed(ReferenceVM))
    assert len(got) == len(want)
    for mine, reference in zip(got, want):
        assert mine == reference, mine[:2]


def _word_world():
    w = _world()
    w.set_balance(5, 10)
    return w, deploy(w, _one_fn("PUSH 0 CALLDATALOAD CODELOAD PUSH 1 RETURN"))


@pytest.mark.parametrize(
    "calldata, value",
    [([-1], -7), ([1 << 80], 0), ([-1], 0)],
    ids=["negative-value", "wide-calldata", "negative-codeload-index"],
)
def test_transaction_words_out_of_range_are_refused(calldata, value):
    w, addr = _word_world()
    before = w.dump()
    with pytest.raises(VmError, match="not a word"):
        VM(w).execute_transaction(Transaction(5, addr, 0x01, calldata, value))
    assert w.dump() == before


@pytest.mark.parametrize("imm", ["1\nimport os", 1.5, True])
def test_non_int_immediates_never_reach_the_compiler(imm):
    """Validation refuses the program; the compiler itself renders only ints."""
    prog = _one_fn("PUSH 1 POP STOP")
    prog.functions[0].body[0] = Instruction(Op.PUSH, imm)
    misses = _compile.cache_info().misses
    with pytest.raises(ValidationError, match="not an int"):
        validate_program(prog, Config())
    assert _compile.cache_info().misses == misses
    if not isinstance(imm, bool):
        node = _Node(0)
        node.ops.append((Op.PUSH.code, imm, 0))
        node.kids.append(0)
        with pytest.raises(TypeError):
            _source(node, _MASK64)


@pytest.mark.parametrize("op", [Op.JUMP, Op.SSTORE, Op.CALL, Op.RETURN, Op.STOP])
def test_source_refuses_an_op_that_is_not_straight_line(op):
    """A block-ending op other than a JUMPI, ICALL or IRET never sits in a
    region's node (``_unit`` makes it an edge or a tail); the compiler
    refuses one rather than render it."""
    node = _Node(0)
    node.ops.append((op.code, 0, 0))
    node.kids.append(0)
    with pytest.raises(ValueError, match=f"{op.value} is not a straight-line op"):
        _source(node, _MASK64)


@pytest.mark.parametrize("word", [-1, 1 << 64, "5", 1.5, True])
def test_validation_refuses_a_pool_word_that_is_no_word(word):
    prog = _one_fn("PUSH 1 CODELOAD POP STOP")
    prog.data_pool = [7, word]
    with pytest.raises(ValidationError, match=r"data_pool\[1\]"):
        validate_program(prog, Config())


def test_protecting_again_compiles_no_new_block():
    """A second training, protect and detection of the same bundle builds
    new programs, which find the first one's decoded regions by content: no
    region is decoded or compiled again, the snapshot and receipts are the
    same either way, every program keeps one region table per function, and
    both caches are bounded."""
    scenario = ALL_SCENARIOS[0]
    records = scenario.test_sequence(random.Random(0), 30)[0]

    def detect():
        bundle = scenario.bundle()
        snapshot = train(bundle, scenario.training)
        run = start_detection(protect(bundle, snapshot))
        outcomes = [
            (o.status, o.gas_instr, o.gas_orig, o.receipt.return_data, o.receipt.trace)
            for o in (run_transaction(run, rec) for rec in records)
        ]
        key = VM(run.deployed.world).key
        for acct in run.deployed.world.accounts.values():
            if acct.code is not None:
                regions = acct.code.units(key, vm_module._decoded)
                assert len(regions) == len(acct.code.functions)
                assert all(type(table) is dict for table in regions)
        return snapshot, outcomes

    _tables.cache_clear()
    _compile.cache_clear()
    first = detect()
    info, tables = _compile.cache_info(), _tables.cache_info()
    assert info.misses > 0 and tables.misses > 0
    assert detect() == first
    assert _compile.cache_info().misses == info.misses
    assert _tables.cache_info().misses == tables.misses
    for cache in (info, tables):
        assert cache.maxsize is not None and cache.currsize <= cache.maxsize


# Record fields compared by ``diff_records``, in column order; gas last.
_DIFF_FIELDS = ("status", "return_data", "alarms", "checked", "storage", "gas_used")


def diff_records(parent: list[dict], change: list[dict]) -> str:
    """Per-scenario count of records whose fields differ between two
    ``_vm_records`` dumps, then each scenario's gas deltas (change minus
    parent) as ``delta x count``. Records pair by (scenario, protected,
    index); a record that has no pair is counted under ``unpaired``."""
    key = lambda rec: (rec["scenario"], rec["protected"], rec["index"])  # noqa: E731
    old = {key(rec): rec for rec in parent}
    new = {key(rec): rec for rec in change}
    rows: dict[str, dict] = {}
    for k in sorted(old.keys() | new.keys(), key=lambda k: (k[0], k[1], k[2])):
        row = rows.setdefault(k[0], {"records": 0, "unpaired": 0, "deltas": {}})
        row["records"] += 1
        if k not in old or k not in new:
            row["unpaired"] += 1
            continue
        for field in _DIFF_FIELDS:
            row[field] = row.get(field, 0) + (old[k][field] != new[k][field])
        delta = new[k]["gas_used"] - old[k]["gas_used"]
        row["deltas"][delta] = row["deltas"].get(delta, 0) + 1
    columns = ("records", "unpaired") + _DIFF_FIELDS
    lines = ["scenario".ljust(18) + "".join(c.rjust(12) for c in columns)]
    for name, row in rows.items():
        lines.append(name.ljust(18) + "".join(str(row.get(c, 0)).rjust(12) for c in columns))
    lines.append("gas deltas (change - parent), delta x records:")
    for name, row in rows.items():
        hist = ", ".join(f"{d:+d} x {n}" for d, n in sorted(row["deltas"].items()))
        lines.append(f"  {name}: {hist}")
    return "\n".join(lines)


def test_diff_records_counts_each_field_and_gas_delta():
    base = {"scenario": "s", "protected": True, "status": "Accepted", "return_data": [1],
            "alarms": [], "checked": [["c", 0, 5]], "storage": "ab", "gas_used": 100}
    parent = [dict(base, index=i) for i in range(3)]
    change = [dict(base, index=0, gas_used=90), dict(base, index=1, status="Reverted"),
              dict(base, index=3)]
    out = diff_records(parent, change).splitlines()
    assert out[1].split() == ["s", "4", "2", "1", "0", "0", "0", "0", "1"]
    assert out[-1] == "  s: -10 x 1, +0 x 1"


if __name__ == "__main__":
    # Dump the corpus records as JSON lines, then compare two builds' dumps:
    #   PYTHONPATH=src python tests/test_vm.py --records FILE
    #   PYTHONPATH=src python tests/test_vm.py --diff PARENT CHANGE
    import argparse
    import json

    parser = argparse.ArgumentParser(description=__doc__)
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--records", metavar="FILE", help="output file (JSON lines)")
    mode.add_argument("--diff", nargs=2, metavar=("PARENT", "CHANGE"), help="two --records files")
    args = parser.parse_args()
    if args.diff:
        dumps = []
        for path in args.diff:
            with open(path) as fh:
                dumps.append([json.loads(line) for line in fh])
        print(diff_records(*dumps))
    else:
        with open(args.records, "w") as fh:
            for rec in _vm_records():
                fh.write(json.dumps(rec) + "\n")
