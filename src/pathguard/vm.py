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
    GasSchedule,
    INTERNAL_DEPTH_LIMIT,
    MAX_CODE_BYTES,
    OPERAND_STACK_LIMIT,
)
from .isa import Op
from .program import ContractProgram, SizeLimitExceeded

# Trace detail levels.
TRACE_NONE = 0
TRACE_CHECKS = 1  # PathChecked, Revert, external call boundaries
TRACE_FULL = 2

# Dispatch codes (``Op.code``), one line per range that ``_run_frame`` splits.
_OPS = tuple(Op)
_PUSH, _DUP, _SWAP = Op.PUSH.code, Op.DUP.code, Op.SWAP.code
_ADD, _SUB, _DIV, _LT, _GT = Op.ADD.code, Op.SUB.code, Op.DIV.code, Op.LT.code, Op.GT.code
_EQ, _AND, _OR, _ISZERO = Op.EQ.code, Op.AND.code, Op.OR.code, Op.ISZERO.code
_JUMPDEST, _JUMP, _JUMPI = Op.JUMPDEST.code, Op.JUMP.code, Op.JUMPI.code
_MLOAD, _MSTORE = Op.MLOAD.code, Op.MSTORE.code
_SLOAD, _CODELOAD, _CALLDATALOAD = Op.SLOAD.code, Op.CODELOAD.code, Op.CALLDATALOAD.code
_BALANCE = Op.BALANCE.code
_CALLDATASIZE, _CALLER, _ORIGIN = Op.CALLDATASIZE.code, Op.CALLER.code, Op.ORIGIN.code
_ADDRESS, _CALLVALUE = Op.ADDRESS.code, Op.CALLVALUE.code
_SSTORE, _ICALL, _IRET = Op.SSTORE.code, Op.ICALL.code, Op.IRET.code
_CALL, _DELEGATECALL = Op.CALL.code, Op.DELEGATECALL.code
_RETURN, _STOP, _REVERT = Op.RETURN.code, Op.STOP.code, Op.REVERT.code


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


def price_table(gas: GasSchedule) -> list[int]:
    """Gas per opcode, indexed by ``Op.code``; SSTORE is priced by its operands."""
    prices = [gas.base_op] * len(_OPS)
    prices[_JUMPI] = gas.jumpi
    prices[_MLOAD] = prices[_MSTORE] = gas.memory_op
    prices[_SLOAD] = gas.sload
    prices[_CALL] = prices[_DELEGATECALL] = gas.call_base
    prices[_SSTORE] = 0
    return prices


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
        """Run one message-call frame; returns (success, return data).

        Dispatches on ``FunctionDef.decoded``. The gas used so far lives in
        the local ``gas_used``; it is written back to ``self.gas_used`` before
        every exit from the frame and around every message call.
        """
        world = self.world
        config = self.config
        mask = config.mask
        token = world.snapshot()
        gas = config.gas
        prices = price_table(gas)
        gas_limit = self.gas_limit
        gas_used = self.gas_used
        limit = OPERAND_STACK_LIMIT
        full = self.trace_level >= TRACE_FULL
        check_log = self.check_log_addr if self.trace_level >= TRACE_CHECKS else None
        emit = self._emit
        name = code.name
        pool = code.data_pool

        stack: list[int] = []
        memory: dict[int, int] = {}
        last_ret: list[int] = []
        # Internal call frames: (function id, return pc). The operand stack
        # and memory are shared across internal frames.
        ifid = fid
        fn = code.functions[ifid]
        ops, imms = fn.decoded
        n = len(ops)
        istack: list[tuple[int, int]] = []
        pc = 0

        if full:
            emit("BlockEnter", self_addr, ifid, 0, {"code": name})

        # gas_probe(code name, fid, offset, gas) gets each instruction's
        # charge after it completes; probe_fid is the function it ran in.
        probe = self.gas_probe
        gas_before = gas_used
        probe_fid = ifid
        try:
            while True:
                if pc >= n:
                    raise _FrameFailure("fell off function body")
                op = ops[pc]
                next_pc = pc + 1
                gas_used += prices[op]
                if gas_used > gas_limit:
                    self.gas_used = gas_used
                    raise _OutOfGas()

                if op < _ADD:  # PUSH POP DUP SWAP
                    if op == _PUSH:
                        if len(stack) >= limit:
                            raise _FrameFailure("stack overflow")
                        stack.append(imms[pc] & mask)
                    elif op == _DUP:
                        i = imms[pc]
                        if i < 1 or i > len(stack):
                            raise _FrameFailure("stack underflow")
                        if len(stack) >= limit:
                            raise _FrameFailure("stack overflow")
                        stack.append(stack[-i])
                    elif op == _SWAP:
                        i = imms[pc]
                        if i < 1 or i >= len(stack):
                            raise _FrameFailure("stack underflow")
                        stack[-1], stack[-1 - i] = stack[-1 - i], stack[-1]
                    else:
                        if not stack:
                            raise _FrameFailure("stack underflow")
                        stack.pop()
                elif op < _ISZERO:  # binary ALU: result replaces x
                    if len(stack) < 2:
                        raise _FrameFailure("stack underflow")
                    y = stack.pop()
                    x = stack[-1]
                    if op < _DIV:  # wraparound is profiled
                        if op == _ADD:
                            exact = x + y
                            overflow = exact > mask
                        elif op == _SUB:
                            exact = x - y
                            overflow = x < y
                        else:
                            exact = x * y
                            overflow = exact > mask
                        stack[-1] = exact & mask
                        if full:
                            emit(
                                "ArithChecked",
                                self_addr,
                                ifid,
                                pc,
                                {"op": _OPS[op].value, "overflow": overflow},
                            )
                    elif op == _EQ:
                        stack[-1] = 1 if x == y else 0
                    elif op == _AND:
                        stack[-1] = x & y
                    elif op == _LT:
                        stack[-1] = 1 if x < y else 0
                    elif op == _GT:
                        stack[-1] = 1 if x > y else 0
                    elif op == _OR:
                        stack[-1] = x | y
                    else:
                        stack[-1] = x // y if y else 0
                elif op < _JUMPDEST:  # ISZERO NOT
                    if not stack:
                        raise _FrameFailure("stack underflow")
                    if op == _ISZERO:
                        stack[-1] = 1 if stack[-1] == 0 else 0
                    else:
                        stack[-1] ^= mask
                elif op < _SLOAD:  # JUMPDEST JUMP JUMPI MLOAD MSTORE
                    if op == _JUMPI:
                        if not stack:
                            raise _FrameFailure("stack underflow")
                        taken = stack.pop() != 0
                        if taken:
                            next_pc = imms[pc]
                        if full:
                            emit("BranchTaken", self_addr, ifid, pc, {"taken": taken})
                    elif op == _MLOAD:
                        if not stack:
                            raise _FrameFailure("stack underflow")
                        stack[-1] = memory.get(stack[-1], 0)
                    elif op == _MSTORE:
                        if len(stack) < 2:
                            raise _FrameFailure("stack underflow")
                        addr = stack.pop()
                        val = stack.pop()
                        memory[addr] = val
                        if addr == check_log:
                            emit(
                                "PathChecked",
                                self_addr,
                                ifid,
                                pc,
                                {"combined": val, "code": name},
                            )
                    elif op == _JUMP:
                        next_pc = imms[pc]
                elif op < _CALLDATASIZE:  # one-operand reads: result replaces it
                    if not stack:
                        raise _FrameFailure("stack underflow")
                    i = stack[-1]
                    if op == _SLOAD:
                        stack[-1] = world.sload(self_addr, i)
                    elif op == _CODELOAD:
                        stack[-1] = (pool[i] if i < len(pool) else 0) & mask
                    elif op == _CALLDATALOAD:
                        stack[-1] = calldata[i] if i < len(calldata) else 0
                    elif op == _BALANCE:
                        stack[-1] = world.balance_of(i)
                    else:
                        stack[-1] = last_ret[i] if i < len(last_ret) else 0
                elif op < _SSTORE:  # zero-operand reads
                    if len(stack) >= limit:
                        raise _FrameFailure("stack overflow")
                    if op == _CALLDATASIZE:
                        stack.append(len(calldata))
                    elif op == _CALLER:
                        stack.append(caller & mask)
                    elif op == _ORIGIN:
                        stack.append(origin & mask)
                    elif op == _ADDRESS:
                        stack.append(self_addr & mask)
                    elif op == _CALLVALUE:
                        stack.append(value & mask)
                    else:
                        stack.append(len(last_ret))
                elif op == _SSTORE:  # charged after its operands are read
                    if len(stack) < 2:
                        raise _FrameFailure("stack underflow")
                    slot = stack.pop()
                    val = stack.pop()
                    prev = world.sload(self_addr, slot)
                    gas_used += gas.sstore_cost(prev, val)
                    if gas_used > gas_limit:
                        self.gas_used = gas_used
                        raise _OutOfGas()
                    world.sstore(self_addr, slot, val)
                    if full:
                        emit(
                            "Sstore", self_addr, ifid, pc, {"slot": slot, "value": val, "prev": prev}
                        )
                elif op == _ICALL:
                    if len(istack) >= INTERNAL_DEPTH_LIMIT:
                        raise _FrameFailure("internal call depth exceeded")
                    callee = imms[pc]
                    if full:
                        emit("CallEnter", self_addr, ifid, pc, {"callee": callee})
                    istack.append((ifid, pc + 1))
                    ifid = callee
                    fn = code.functions[ifid]
                    ops, imms = fn.decoded
                    n = len(ops)
                    next_pc = 0
                elif op == _IRET:
                    if not istack:
                        raise _FrameFailure("IRET outside internal call")
                    if full:
                        emit("CallReturn", self_addr, ifid, pc, None)
                    ifid, next_pc = istack.pop()
                    fn = code.functions[ifid]
                    ops, imms = fn.decoded
                    n = len(ops)
                elif op == _CALL or op == _DELEGATECALL:
                    is_delegate = op == _DELEGATECALL
                    if len(stack) < (3 if is_delegate else 4):
                        raise _FrameFailure("stack underflow")
                    target = stack.pop()
                    call_value = 0 if is_delegate else stack.pop()
                    sel = stack.pop()
                    nargs = stack.pop()
                    if nargs > len(stack):
                        raise _FrameFailure("stack underflow")
                    args = [stack.pop() for _ in range(nargs)]
                    self.gas_used = gas_used
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
                    gas_used = self.gas_used
                    # the call site is charged call_base; callees self-report
                    gas_before = gas_used - prices[op]
                    stack.append(1 if ok else 0)
                elif op == _STOP:
                    if probe is not None:
                        probe(name, ifid, pc, prices[op])
                    self.gas_used = gas_used
                    return True, []
                elif op == _RETURN or op == _REVERT:
                    if not stack:
                        raise _FrameFailure("stack underflow")
                    i = stack.pop()
                    if i > len(stack):
                        raise _FrameFailure("stack underflow")
                    data = [stack.pop() for _ in range(i)]
                    if probe is not None:
                        probe(name, ifid, pc, prices[op])
                    if op == _REVERT:
                        raise _FrameFailure("revert", data)
                    self.gas_used = gas_used
                    return True, data
                else:  # pragma: no cover - exhaustive over Op
                    raise _FrameFailure(f"unimplemented opcode {_OPS[op]}")

                if probe is not None:
                    probe(name, probe_fid, pc, gas_used - gas_before)
                    gas_before = gas_used
                    probe_fid = ifid
                if full and (next_pc != pc + 1 or next_pc in fn.leaders) and next_pc < n:
                    emit("BlockEnter", self_addr, ifid, next_pc, {"code": name})
                pc = next_pc
        except _FrameFailure as failure:
            self.gas_used = gas_used
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
