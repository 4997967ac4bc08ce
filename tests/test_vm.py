"""VM semantics: modular arithmetic, revert atomicity, gas, determinism."""

import dataclasses
import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathguard.asm import assemble
from pathguard.config import OPERAND_STACK_LIMIT, Config, GasSchedule
from pathguard.fixtures import ALL_SCENARIOS
from pathguard.guardcode import Layout
from pathguard.isa import Op
from pathguard.program import SizeLimitExceeded
from pathguard.vm import (
    STATUS_ACCEPTED,
    STATUS_OUT_OF_GAS,
    STATUS_REVERTED,
    TRACE_CHECKS,
    TRACE_FULL,
    Transaction,
    UnknownSelectorError,
    VM,
    WorldState,
    deploy,
    execute_transaction,
)
from pathguard.workflow import build_world, deploy_guarded, parse_tx, protect, train

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
    addr = deploy(w, assemble(STORE_SRC), 0xD0)
    r = execute_transaction(w, Transaction(1, addr, 0x01, [5, 7]))
    assert r.status == STATUS_ACCEPTED
    assert w.sload(addr, 5) == 7
    # PUSH, CALLDATALOAD, PUSH, CALLDATALOAD, SSTORE(set), STOP
    assert r.gas_used == 3 * 5 + 20000


def test_update_costs_sstore_update():
    w = _world()
    addr = deploy(w, assemble(STORE_SRC), 0xD0)
    execute_transaction(w, Transaction(1, addr, 0x01, [5, 7]))
    r = execute_transaction(w, Transaction(1, addr, 0x01, [5, 9]))
    assert r.gas_used == 3 * 5 + 5000


def test_revert_restores_storage():
    w = _world()
    addr = deploy(w, assemble(STORE_SRC), 0xD0)
    before = w.dump()
    r = execute_transaction(w, Transaction(1, addr, 0x02))
    assert r.status == STATUS_REVERTED
    assert w.dump() == before


def test_width8_add_wraps_with_overflow_event():
    w = _world(width=8)
    addr = deploy(w, assemble(STORE_SRC, Config(width=8)), 0xD0)
    r = execute_transaction(w, Transaction(1, addr, 0x03, [200, 100]))
    assert r.status == STATUS_ACCEPTED
    assert r.return_data == [44]
    checked = [e for e in r.trace if e.kind == "ArithChecked"]
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
    addr = deploy(w, assemble(src, Config(width=width)), 0xD0)
    r = execute_transaction(w, Transaction(1, addr, 0x01))
    exact = {"ADD": a + b, "SUB": a - b, "MUL": a * b}[op]
    assert r.return_data == [exact % mod]
    event = next(e for e in r.trace if e.kind == "ArithChecked")
    expected_flag = exact >= mod if op != "SUB" else a < b
    assert event.get("overflow") == expected_flag


def test_deployment_gas_200_per_byte():
    w = _world()
    prog = assemble(STORE_SRC)
    deploy(w, prog, 0xD0)
    addr, gas = w.deploy_log[-1]
    assert gas == prog.byte_size * 200


def test_size_limit_rejected():
    w = _world()
    body = "PUSH 0 POP " * 2500 + "STOP"
    big = assemble("contract big { fn f external { %s } }" % body)
    assert big.byte_size > 24576
    with pytest.raises(SizeLimitExceeded):
        deploy(w, big, 0xD0)


def test_unknown_selector_without_fallback():
    w = _world()
    addr = deploy(w, assemble(STORE_SRC), 0xD0)
    with pytest.raises(UnknownSelectorError):
        execute_transaction(w, Transaction(1, addr, 0x77))


def test_out_of_gas_rolls_back_and_charges_limit():
    w = _world()
    addr = deploy(w, assemble(STORE_SRC), 0xD0)
    before = w.dump()
    r = execute_transaction(w, Transaction(1, addr, 0x01, [5, 7], gas_limit=100))
    assert r.status == STATUS_OUT_OF_GAS
    assert r.gas_used == 100
    assert w.dump() == before


def test_determinism_identical_receipts():
    w1, w2 = _world(), _world()
    for w in (w1, w2):
        deploy(w, assemble(STORE_SRC), 0xD0)
    tx = Transaction(1, 0x100, 0x01, [3, 4])
    r1 = execute_transaction(w1, tx)
    r2 = execute_transaction(w2, tx)
    assert dataclasses.asdict(r1) == dataclasses.asdict(r2)
    assert w1.dump() == w2.dump()


def test_gas_additivity_against_charge_log():
    """Every probed charge equals the schedule's price of the op at its offset."""
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
    addr = deploy(w, prog, 0xD0)
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
        charges = []
        sstore_costs.clear()
        vm = VM(w, gas_probe=lambda code, fid, off, amount: charges.append((fid, off, amount)))
        r = vm.execute_transaction(Transaction(1, addr, selector, calldata))
        assert charges and r.status != STATUS_OUT_OF_GAS
        stored = iter(sstore_costs)
        for fid, off, amount in charges:
            op = prog.functions[fid].body[off].op
            expected = next(stored) if op is Op.SSTORE else price.get(op, gas.base_op)
            assert amount == expected, (selector, fid, off, op)
        assert next(stored, None) is None
        assert sum(amount for _, _, amount in charges) == r.gas_used


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
    addr = deploy(w, assemble(SNAPSHOT_SRC), 0xD0)
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
    outer = deploy(w, assemble(CALLS_SRC), 0xD0)
    inner = deploy(w, assemble(INNER_SRC), 0xD0)
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
    addr = deploy(w, assemble(src), 0xD0)
    w.set_balance(addr, 100)
    w.commit(0)
    r = execute_transaction(w, Transaction(1, addr, 0x0c))
    assert r.status == STATUS_ACCEPTED
    assert w.balance_of(0x999) == 40
    assert w.balance_of(addr) == 60


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
    host = deploy(w, assemble(DELEGATE_HOST_SRC), 0xD0)
    lib = deploy(w, assemble(DELEGATE_LIB_SRC), 0xD0)
    r = execute_transaction(w, Transaction(0x77, host, 0x40, [lib]))
    assert r.status == STATUS_ACCEPTED
    # CALLER inside the delegated frame is the host's caller (the origin)
    assert w.sload(host, 0) == 0x77
    assert w.sload(lib, 0) == 0


def test_empty_calldata_no_selector_runs_fallback():
    src = """
    contract t {
      fn named external selector=0x9 { STOP }
      fn fallback external { PUSH 7 PUSH 1 SSTORE STOP }
    }
    """
    w = _world()
    addr = deploy(w, assemble(src), 0xD0)
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
    addr = deploy(w, assemble(src), 0xD0)
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
    addr = deploy(w, assemble(src), 0xD0)
    r = execute_transaction(w, Transaction(1, addr, 0x50, gas_limit=10_000_000))
    assert r.status == STATUS_ACCEPTED
    enters = [e for e in r.trace if e.kind == "ExternalCallEnter"]
    results = [e.get("success") for e in r.trace if e.kind == "ExternalCallReturn"]
    assert len(enters) == 64  # 63 nested frames plus the rejected attempt
    assert results.count(False) == 1  # only the depth-limited call fails


def _vm_digest() -> str:
    """sha256 over every receipt, trace event and probe charge of the corpus.

    Each fixture runs its training stream plus one 30-tx test sequence twice:
    uninstrumented at TRACE_FULL, and protected at TRACE_CHECKS with a gas
    probe. Any change to the interpreter's observable behaviour moves it.
    """
    h = hashlib.sha256()

    def feed(receipt):
        h.update(
            repr((receipt.status, receipt.gas_used, receipt.return_data, receipt.alarms)).encode()
        )
        for ev in receipt.trace:
            h.update(repr((ev.kind, ev.contract, ev.fn, ev.offset, ev.detail)).encode())

    def probe(code, fid, off, amount):
        h.update(repr((code, fid, off, amount)).encode())

    for scenario in ALL_SCENARIOS:
        bundle = scenario.bundle()
        records = scenario.training + scenario.test_sequence(random.Random(0), 30)[0]
        h.update(scenario.name.encode())
        plain = build_world(bundle)
        for record in bundle.setup + records:
            tx = parse_tx(record, plain, bundle)
            feed(VM(plain.world, TRACE_FULL).execute_transaction(tx))
        guarded = protect(bundle, train(bundle, scenario.training))
        deployed = deploy_guarded(guarded)
        config = bundle.config
        check_log = Layout(config.width, config.guard.alarm_buffer_cap).check_log
        for record in records:
            tx = parse_tx(record, deployed, bundle)
            vm = VM(deployed.world, TRACE_CHECKS, check_log, gas_probe=probe)
            feed(vm.execute_transaction(tx))
    return h.hexdigest()


def test_observable_behaviour_pinned_on_corpus():
    assert _vm_digest() == (
        "5d5d463358100ec2dd016a7639409e61a1d33a6d2d82aaeddf63af601c2ce8eb"
    )


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
    ],
)
def test_stack_underflow_reason_and_charge(body, offset, gas_used):
    w = _world()
    addr = deploy(w, _one_fn(body), 0xD0)
    r = execute_transaction(w, Transaction(1, addr, 0x01))
    assert r.status == STATUS_REVERTED
    # the failing instruction is charged before its operands are popped
    assert r.gas_used == gas_used
    revert = r.trace[-1]
    assert (revert.kind, revert.offset, revert.detail) == (
        "Revert", offset, {"reason": "stack underflow"}
    )


@pytest.mark.parametrize(
    "body, first, per_push",
    [
        ("loop: JUMPDEST PUSH 1 JUMP loop", 0, 9),  # PUSH at offset 1
        ("PUSH 1 loop: JUMPDEST DUP 1 JUMP loop", 1, 9),  # DUP at offset 2
    ],
)
def test_stack_overflow_at_limit(body, first, per_push):
    w = _world()
    addr = deploy(w, _one_fn(body), 0xD0)
    r = execute_transaction(w, Transaction(1, addr, 0x01))
    assert r.status == STATUS_REVERTED
    revert = r.trace[-1]
    assert (revert.kind, revert.offset, revert.detail) == (
        "Revert", first + 1, {"reason": "stack overflow"}
    )
    # the stack holds exactly OPERAND_STACK_LIMIT words before the failing
    # push; the leading PUSH of the DUP variant supplies one of them
    pushes = OPERAND_STACK_LIMIT - first
    assert r.gas_used == 3 * first + per_push * pushes + 6


def test_gas_limit_equal_to_cost_is_enough():
    w = _world()
    addr = deploy(w, assemble(STORE_SRC), 0xD0)
    cost = 3 * 5 + 20000
    r = execute_transaction(w, Transaction(1, addr, 0x01, [5, 7], gas_limit=cost))
    assert (r.status, r.gas_used) == (STATUS_ACCEPTED, cost)
    w2 = _world()
    addr = deploy(w2, assemble(STORE_SRC), 0xD0)
    r = execute_transaction(w2, Transaction(1, addr, 0x01, [5, 7], gas_limit=cost - 1))
    assert (r.status, r.gas_used) == (STATUS_OUT_OF_GAS, cost - 1)
    assert w2.sload(addr, 5) == 0


def test_failed_inner_call_gas_counts_toward_outer():
    w = _world()
    outer = deploy(w, assemble(CALLS_SRC), 0xD0)
    inner = deploy(w, assemble(INNER_SRC), 0xD0)
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
    host = deploy(w, assemble(DELEGATE_HOST_SRC), 0xD0)
    lib = deploy(w, assemble(FAILING_LIB_SRC), 0xD0)
    r = execute_transaction(w, Transaction(0x77, host, 0x40, [lib]))
    assert r.status == STATUS_ACCEPTED
    assert w.sload(host, 0) == 0
    # host: 3 PUSH, CALLDATALOAD, DELEGATECALL, POP, STOP
    host_gas = 12 + 700 + 6
    # lib: CALLER, PUSH, SSTORE set (rolled back), PUSH, REVERT
    lib_gas = 6 + 20000 + 6
    assert r.gas_used == host_gas + lib_gas
