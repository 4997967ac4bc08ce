"""Deterministic gas-metered stack machine with contracts, calls and revert.

One WorldState is owned by one executor at a time; transactions run strictly
serially against it. All state changes go through an undo journal so that
frame failures and transaction failures restore the exact prior state.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .config import (
    CALL_DEPTH_LIMIT,
    Config,
    DEFAULT_CONFIG,
    INTERNAL_DEPTH_LIMIT,
    MAX_CODE_BYTES,
    OPERAND_STACK_LIMIT,
)
from .isa import CHECKED_ARITH, Op
from .program import ContractProgram, SizeLimitExceeded

# Trace detail levels.
TRACE_NONE = 0
TRACE_CHECKS = 1  # PathChecked, Revert, external call boundaries
TRACE_FULL = 2


class VmError(Exception):
    """Harness-level misuse of the VM (not a contract-level failure)."""


class UnknownSelectorError(VmError):
    pass


class StaleSnapshotError(AssertionError):
    pass


@dataclass(slots=True)
class TraceEvent:
    kind: str
    contract: int
    fn: int
    offset: int
    detail: dict | None = None

    def get(self, key, default=None):
        return self.detail.get(key, default) if self.detail else default


@dataclass(slots=True)
class RawAlarm:
    """Unenriched alarm as emitted by guard code: the anomalous pair."""

    contract: int
    code_id: int  # index into the sorted protection boundary
    fn: int
    combined: int


@dataclass
class Account:
    balance: int = 0
    storage: dict[int, int] = field(default_factory=dict)
    code: ContractProgram | None = None


@dataclass
class Transaction:
    origin: int
    to: int
    selector: int | None  # None selects the fallback
    calldata: list[int] = field(default_factory=list)
    value: int = 0
    gas_limit: int = 10_000_000

    def __post_init__(self) -> None:
        if self.gas_limit <= 0:
            raise VmError("gas_limit must be positive")


STATUS_ACCEPTED = "Accepted"
STATUS_REVERTED = "Reverted"
STATUS_GUARD_REVERTED = "GuardReverted"
STATUS_OUT_OF_GAS = "OutOfGas"


@dataclass
class Receipt:
    status: str
    gas_used: int
    trace: list[TraceEvent]
    alarms: list[RawAlarm]
    return_data: list[int]


class WorldState:
    """Accounts with balances, storage and code, behind an undo journal."""

    def __init__(self, config: Config = DEFAULT_CONFIG):
        self.config = config
        self.accounts: dict[int, Account] = {}
        # contract addresses must fit a machine word
        self.next_address = 0x100 if config.width > 8 else 0x80
        self.deploy_log: list[tuple[int, int]] = []  # (address, deploy gas)
        self._journal: list[tuple] = []

    # -- accounts ----------------------------------------------------------

    def account(self, addr: int) -> Account:
        acct = self.accounts.get(addr)
        if acct is None:
            acct = Account()
            self.accounts[addr] = acct
            self._journal.append(("new", addr))
        return acct

    def balance_of(self, addr: int) -> int:
        acct = self.accounts.get(addr)
        return acct.balance if acct else 0

    def set_balance(self, addr: int, value: int) -> None:
        acct = self.account(addr)
        self._journal.append(("bal", addr, acct.balance))
        acct.balance = value & self.config.mask

    def transfer(self, src: int, dst: int, value: int) -> bool:
        if value == 0:
            return True
        if self.balance_of(src) < value:
            return False
        self.set_balance(src, self.balance_of(src) - value)
        self.set_balance(dst, self.balance_of(dst) + value)
        return True

    def sload(self, addr: int, slot: int) -> int:
        acct = self.accounts.get(addr)
        return acct.storage.get(slot, 0) if acct else 0

    def sstore(self, addr: int, slot: int, value: int) -> int:
        acct = self.account(addr)
        prev = acct.storage.get(slot, 0)
        self._journal.append(("sto", addr, slot, prev))
        if value == 0:
            acct.storage.pop(slot, None)
        else:
            acct.storage[slot] = value
        return prev

    # -- snapshot / rollback -------------------------------------------------

    def snapshot(self) -> int:
        return len(self._journal)

    def rollback(self, token: int) -> None:
        if token > len(self._journal):
            raise StaleSnapshotError(f"token {token} beyond journal {len(self._journal)}")
        while len(self._journal) > token:
            entry = self._journal.pop()
            tag = entry[0]
            if tag == "sto":
                _, addr, slot, prev = entry
                storage = self.accounts[addr].storage
                if prev == 0:
                    storage.pop(slot, None)
                else:
                    storage[slot] = prev
            elif tag == "bal":
                _, addr, prev = entry
                self.accounts[addr].balance = prev
            elif tag == "new":
                del self.accounts[entry[1]]

    def commit(self, token: int) -> None:
        """Forget undo entries past token (keeps the journal bounded)."""
        del self._journal[token:]

    def dump(self) -> dict:
        """Canonical snapshot of observable state, for deep comparison."""
        return {
            hex(addr): {
                "balance": acct.balance,
                "storage": {hex(k): v for k, v in sorted(acct.storage.items())},
                "code": acct.code.name if acct.code else None,
            }
            for addr, acct in sorted(self.accounts.items())
        }

    def clone(self) -> "WorldState":
        """Independent deep copy (journal not carried over)."""
        other = WorldState(self.config)
        other.next_address = self.next_address
        other.deploy_log = list(self.deploy_log)
        for addr, acct in self.accounts.items():
            other.accounts[addr] = Account(
                balance=acct.balance, storage=dict(acct.storage), code=acct.code
            )
        return other


def deploy(world: WorldState, program: ContractProgram, deployer: int) -> int:
    """Create a contract account; charges code-deposit gas per byte."""
    size = program.compute_byte_size(world.config.word_bytes)
    if size > MAX_CODE_BYTES:
        raise SizeLimitExceeded(program.name, size)
    addr = world.next_address
    world.next_address += 1
    acct = world.account(addr)
    acct.code = program
    gas = size * world.config.gas.code_deposit_per_byte
    for slot, value in program.storage_init.items():
        world.sstore(addr, slot, value)
        gas += world.config.gas.sstore_set if value != 0 else 0
    world.deploy_log.append((addr, gas))
    world.commit(0)
    return addr


class _FrameFailure(Exception):
    """Internal control flow: the current message frame failed."""

    def __init__(self, reason: str, data: list[int] | None = None):
        super().__init__(reason)
        self.reason = reason
        self.data = data or []


class _OutOfGas(Exception):
    pass


class VM:
    """Executes transactions against a world. Not reentrant."""

    def __init__(
        self,
        world: WorldState,
        trace_level: int = TRACE_FULL,
        check_log_addr: int | None = None,
        gas_probe=None,
    ):
        self.world = world
        self.config = world.config
        self.trace_level = trace_level
        self.check_log_addr = check_log_addr
        # gas_probe(code name, fid, offset, gas) attributes charges to
        # instructions; call sites are charged call_base, callees self-report.
        self.gas_probe = gas_probe

    # -- public entry ---------------------------------------------------------

    def execute_transaction(self, tx: Transaction) -> Receipt:
        world = self.world
        acct = world.accounts.get(tx.to)
        if acct is None or acct.code is None:
            raise VmError(f"transaction target {tx.to:#x} is not a contract")
        fid = self._dispatch(acct.code, tx.selector)
        if fid is None:
            raise UnknownSelectorError(
                f"{acct.code.name}: no selector match and no fallback"
            )
        self.trace: list[TraceEvent] = []
        self.gas_used = 0
        self.gas_limit = tx.gas_limit
        token = world.snapshot()
        if not world.transfer(tx.origin, tx.to, tx.value):
            world.rollback(token)
            return Receipt(STATUS_REVERTED, 0, self.trace, [], [])
        try:
            success, data = self._run_frame(
                code=acct.code,
                self_addr=tx.to,
                caller=tx.origin,
                origin=tx.origin,
                value=tx.value,
                calldata=list(tx.calldata),
                fid=fid,
                depth=1,
            )
        except _OutOfGas:
            world.rollback(token)
            return Receipt(STATUS_OUT_OF_GAS, tx.gas_limit, self.trace, [], [])
        if success:
            world.commit(token)
            return Receipt(STATUS_ACCEPTED, self.gas_used, self.trace, [], data)
        world.rollback(token)
        status = STATUS_REVERTED
        alarms: list[RawAlarm] = []
        if data and data[0] == (self.config.guard.guard_marker & self.config.mask):
            status = STATUS_GUARD_REVERTED
            alarms = _parse_guard_payload(data)
        return Receipt(status, self.gas_used, self.trace, alarms, data)

    # -- internals --------------------------------------------------------------

    def _dispatch(self, code: ContractProgram, selector: int | None) -> int | None:
        if selector is not None and selector in code.selector_table:
            return code.selector_table[selector]
        return code.fallback_id

    def _charge(self, amount: int) -> None:
        self.gas_used += amount
        if self.gas_used > self.gas_limit:
            raise _OutOfGas()

    def _emit(self, kind: str, contract: int, fn: int, offset: int, detail=None) -> None:
        self.trace.append(TraceEvent(kind, contract, fn, offset, detail))

    def _run_frame(
        self,
        code: ContractProgram,
        self_addr: int,
        caller: int,
        origin: int,
        value: int,
        calldata: list[int],
        fid: int,
        depth: int,
    ) -> tuple[bool, list[int]]:
        """Run one message-call frame; returns (success, return data)."""
        world = self.world
        config = self.config
        gas = config.gas
        mask = config.mask
        token = world.snapshot()
        full = self.trace_level >= TRACE_FULL

        stack: list[int] = []
        memory: dict[int, int] = {}
        last_ret: list[int] = []
        # Internal call frames: (function id, return pc). The operand stack
        # and memory are shared across internal frames.
        ifid = fid
        fn = code.functions[ifid]
        body = fn.body
        istack: list[tuple[int, int]] = []
        pc = 0

        if full:
            self._emit("BlockEnter", self_addr, ifid, 0, {"code": code.name})

        def fail(reason: str, data: list[int] | None = None):
            raise _FrameFailure(reason, data)

        def push(v: int) -> None:
            if len(stack) >= OPERAND_STACK_LIMIT:
                fail("stack overflow")
            stack.append(v)

        def pop() -> int:
            if not stack:
                fail("stack underflow")
            return stack.pop()

        probe = self.gas_probe
        try:
            while True:
                if pc >= len(body):
                    fail("fell off function body")
                instr = body[pc]
                op = instr.op
                next_pc = pc + 1
                gas_before = self.gas_used
                probe_fid = ifid

                if op is Op.PUSH:
                    self._charge(gas.base_op)
                    push(instr.imm & mask)
                elif op is Op.POP:
                    self._charge(gas.base_op)
                    pop()
                elif op is Op.DUP:
                    self._charge(gas.base_op)
                    n = instr.imm
                    if n < 1 or n > len(stack):
                        fail("stack underflow")
                    push(stack[-n])
                elif op is Op.SWAP:
                    self._charge(gas.base_op)
                    n = instr.imm
                    if n < 1 or n + 1 > len(stack):
                        fail("stack underflow")
                    stack[-1], stack[-1 - n] = stack[-1 - n], stack[-1]
                elif op in CHECKED_ARITH:
                    self._charge(gas.base_op)
                    y, x = pop(), pop()
                    if op is Op.ADD:
                        exact = x + y
                        overflow = exact > mask
                    elif op is Op.SUB:
                        exact = x - y
                        overflow = x < y
                    else:
                        exact = x * y
                        overflow = exact > mask
                    push(exact & mask)
                    if full:
                        self._emit(
                            "ArithChecked",
                            self_addr,
                            ifid,
                            pc,
                            {"op": op.value, "overflow": overflow},
                        )
                elif op is Op.DIV:
                    self._charge(gas.base_op)
                    y, x = pop(), pop()
                    push(x // y if y else 0)
                elif op is Op.LT:
                    self._charge(gas.base_op)
                    y, x = pop(), pop()
                    push(1 if x < y else 0)
                elif op is Op.GT:
                    self._charge(gas.base_op)
                    y, x = pop(), pop()
                    push(1 if x > y else 0)
                elif op is Op.EQ:
                    self._charge(gas.base_op)
                    y, x = pop(), pop()
                    push(1 if x == y else 0)
                elif op is Op.ISZERO:
                    self._charge(gas.base_op)
                    push(1 if pop() == 0 else 0)
                elif op is Op.AND:
                    self._charge(gas.base_op)
                    y, x = pop(), pop()
                    push(x & y)
                elif op is Op.OR:
                    self._charge(gas.base_op)
                    y, x = pop(), pop()
                    push(x | y)
                elif op is Op.NOT:
                    self._charge(gas.base_op)
                    push(pop() ^ mask)
                elif op is Op.JUMPDEST:
                    self._charge(gas.base_op)
                elif op is Op.JUMP:
                    self._charge(gas.base_op)
                    next_pc = instr.imm
                elif op is Op.JUMPI:
                    self._charge(gas.jumpi)
                    cond = pop()
                    taken = cond != 0
                    if taken:
                        next_pc = instr.imm
                    if full:
                        self._emit("BranchTaken", self_addr, ifid, pc, {"taken": taken})
                elif op is Op.MLOAD:
                    self._charge(gas.memory_op)
                    push(memory.get(pop(), 0))
                elif op is Op.MSTORE:
                    self._charge(gas.memory_op)
                    addr = pop()
                    val = pop()
                    memory[addr] = val
                    if addr == self.check_log_addr and self.trace_level >= TRACE_CHECKS:
                        self._emit(
                            "PathChecked",
                            self_addr,
                            ifid,
                            pc,
                            {"combined": val, "code": code.name},
                        )
                elif op is Op.SLOAD:
                    self._charge(gas.sload)
                    push(world.sload(self_addr, pop()))
                elif op is Op.SSTORE:
                    slot = pop()
                    val = pop()
                    prev = world.sload(self_addr, slot)
                    self._charge(gas.sstore_cost(prev, val))
                    world.sstore(self_addr, slot, val)
                    if full:
                        self._emit(
                            "Sstore", self_addr, ifid, pc, {"slot": slot, "value": val, "prev": prev}
                        )
                elif op is Op.CALLDATALOAD:
                    self._charge(gas.base_op)
                    i = pop()
                    push(calldata[i] if i < len(calldata) else 0)
                elif op is Op.CALLDATASIZE:
                    self._charge(gas.base_op)
                    push(len(calldata))
                elif op is Op.CALLER:
                    self._charge(gas.base_op)
                    push(caller & mask)
                elif op is Op.ORIGIN:
                    self._charge(gas.base_op)
                    push(origin & mask)
                elif op is Op.ADDRESS:
                    self._charge(gas.base_op)
                    push(self_addr & mask)
                elif op is Op.CALLVALUE:
                    self._charge(gas.base_op)
                    push(value & mask)
                elif op is Op.BALANCE:
                    self._charge(gas.base_op)
                    push(world.balance_of(pop()))
                elif op is Op.CODELOAD:
                    self._charge(gas.base_op)
                    i = pop()
                    pool = code.data_pool
                    push((pool[i] if i < len(pool) else 0) & mask)
                elif op is Op.RETURNDATALOAD:
                    self._charge(gas.base_op)
                    i = pop()
                    push(last_ret[i] if i < len(last_ret) else 0)
                elif op is Op.RETURNDATASIZE:
                    self._charge(gas.base_op)
                    push(len(last_ret))
                elif op is Op.ICALL:
                    self._charge(gas.base_op)
                    if len(istack) >= INTERNAL_DEPTH_LIMIT:
                        fail("internal call depth exceeded")
                    callee = instr.imm
                    if full:
                        self._emit(
                            "CallEnter", self_addr, ifid, pc, {"callee": callee}
                        )
                    istack.append((ifid, pc + 1))
                    ifid = callee
                    fn = code.functions[ifid]
                    body = fn.body
                    next_pc = 0
                elif op is Op.IRET:
                    self._charge(gas.base_op)
                    if not istack:
                        fail("IRET outside internal call")
                    if full:
                        self._emit("CallReturn", self_addr, ifid, pc, None)
                    ifid, next_pc = istack.pop()
                    fn = code.functions[ifid]
                    body = fn.body
                elif op is Op.CALL or op is Op.DELEGATECALL:
                    self._charge(gas.call_base)
                    is_delegate = op is Op.DELEGATECALL
                    target = pop()
                    call_value = 0 if is_delegate else pop()
                    sel = pop()
                    nargs = pop()
                    if nargs > len(stack):
                        fail("stack underflow")
                    args = [pop() for _ in range(nargs)]
                    ok, last_ret = self._message_call(
                        kind="delegatecall" if is_delegate else "call",
                        caller_code=code,
                        caller_self=self_addr,
                        caller_caller=caller,
                        caller_value=value,
                        origin=origin,
                        site=(ifid, pc),
                        target=target,
                        selector=sel if sel != 0 else None,
                        call_value=call_value,
                        calldata=args,
                        depth=depth,
                    )
                    push(1 if ok else 0)
                elif op is Op.RETURN:
                    self._charge(gas.base_op)
                    n = pop()
                    if n > len(stack):
                        fail("stack underflow")
                    data = [pop() for _ in range(n)]
                    if probe is not None:
                        probe(code.name, ifid, pc, gas.base_op)
                    return True, data
                elif op is Op.STOP:
                    self._charge(gas.base_op)
                    if probe is not None:
                        probe(code.name, ifid, pc, gas.base_op)
                    return True, []
                elif op is Op.REVERT:
                    self._charge(gas.base_op)
                    n = pop()
                    if n > len(stack):
                        fail("stack underflow")
                    data = [pop() for _ in range(n)]
                    if probe is not None:
                        probe(code.name, ifid, pc, gas.base_op)
                    fail("revert", data)
                else:  # pragma: no cover - exhaustive over Op
                    fail(f"unimplemented opcode {op}")

                if probe is not None:
                    if op is Op.CALL or op is Op.DELEGATECALL:
                        probe(code.name, probe_fid, pc, gas.call_base)
                    else:
                        probe(code.name, probe_fid, pc, self.gas_used - gas_before)
                if full and (next_pc != pc + 1 or next_pc in fn.leaders) and next_pc < len(body):
                    self._emit("BlockEnter", self_addr, ifid, next_pc, {"code": code.name})
                pc = next_pc
        except _FrameFailure as failure:
            world.rollback(token)
            if self.trace_level >= TRACE_CHECKS:
                detail: dict = {"reason": failure.reason}
                if failure.data and failure.data[0] == (
                    config.guard.guard_marker & mask
                ):
                    detail["guard"] = True
                    detail["alarms"] = _parse_guard_payload(failure.data)
                self._emit("Revert", self_addr, ifid, pc, detail)
            return False, failure.data

    def _message_call(
        self,
        kind: str,
        caller_code: ContractProgram,
        caller_self: int,
        caller_caller: int,
        caller_value: int,
        origin: int,
        site: tuple[int, int],
        target: int,
        selector: int | None,
        call_value: int,
        calldata: list[int],
        depth: int,
    ) -> tuple[bool, list[int]]:
        world = self.world
        trace_boundary = self.trace_level >= TRACE_CHECKS
        acct = world.accounts.get(target)
        code = acct.code if acct else None
        fid = self._dispatch(code, selector) if code else None

        def boundary(detail_fid, extra=None):
            if trace_boundary:
                detail = {
                    "kind": kind,
                    "target": target,
                    "code": code.name if code else None,
                    "fn": detail_fid,
                    "site": site,
                    "selector": selector,
                }
                if extra:
                    detail.update(extra)
                self._emit("ExternalCallEnter", caller_self, site[0], site[1], detail)

        if depth >= CALL_DEPTH_LIMIT:
            boundary(None, {"reason": "depth"})
            ok = False
        elif code is None:
            # Plain value transfer to a code-less account.
            boundary(None)
            ok = kind == "delegatecall" or world.transfer(caller_self, target, call_value)
            if trace_boundary:
                self._emit(
                    "ExternalCallReturn", caller_self, site[0], site[1], {"success": ok}
                )
            return ok, []
        elif fid is None:
            boundary(None, {"reason": "selector"})
            ok = False
        else:
            boundary(fid)
            if kind == "delegatecall":
                ok, data = self._run_frame(
                    code=code,
                    self_addr=caller_self,
                    caller=caller_caller,
                    origin=origin,
                    value=caller_value,
                    calldata=calldata,
                    fid=fid,
                    depth=depth + 1,
                )
            else:
                token = world.snapshot()
                if not world.transfer(caller_self, target, call_value):
                    world.rollback(token)
                    ok, data = False, []
                else:
                    ok, data = self._run_frame(
                        code=code,
                        self_addr=target,
                        caller=caller_self,
                        origin=origin,
                        value=call_value,
                        calldata=calldata,
                        fid=fid,
                        depth=depth + 1,
                    )
                    if not ok:
                        world.rollback(token)
            if trace_boundary:
                self._emit(
                    "ExternalCallReturn", caller_self, site[0], site[1], {"success": ok}
                )
            return ok, data
        if trace_boundary:
            self._emit(
                "ExternalCallReturn", caller_self, site[0], site[1], {"success": ok}
            )
        return ok, []


def _parse_guard_payload(data: list[int]) -> list[RawAlarm]:
    """Decode [marker, count, (contract, code id, fn, combined) * count]."""
    alarms = []
    if len(data) >= 2:
        count = data[1]
        for i in range(count):
            base = 2 + 4 * i
            if base + 3 < len(data):
                alarms.append(
                    RawAlarm(data[base], data[base + 1], data[base + 2], data[base + 3])
                )
    return alarms


def execute_transaction(
    world: WorldState,
    tx: Transaction,
    trace_level: int = TRACE_FULL,
    check_log_addr: int | None = None,
) -> Receipt:
    """Convenience wrapper creating a fresh VM per transaction."""
    return VM(world, trace_level, check_log_addr).execute_transaction(tx)
