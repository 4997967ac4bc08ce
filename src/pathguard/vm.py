"""Deterministic gas-metered stack machine with contracts, calls and revert.

One WorldState is owned by one executor at a time; transactions run strictly
serially against it. All state changes go through an undo journal so that
frame failures and transaction failures restore the exact prior state.
"""

from __future__ import annotations

import functools
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
TRACE_CHECKS = 1  # PathChecked, Revert
TRACE_FULL = 2

# Dispatch codes (``Op.code``), one line per range that ``_run_frame`` splits.
_OPS = tuple(Op)
_PUSH, _DUP, _SWAP = Op.PUSH.code, Op.DUP.code, Op.SWAP.code
_ADD, _SUB, _DIV, _LT = Op.ADD.code, Op.SUB.code, Op.DIV.code, Op.LT.code
_EQ, _AND, _OR, _XOR = Op.EQ.code, Op.AND.code, Op.OR.code, Op.XOR.code
_ISZERO = Op.ISZERO.code
_JUMPDEST, _JUMP, _JUMPI = Op.JUMPDEST.code, Op.JUMP.code, Op.JUMPI.code
_MLOAD, _MSTORE = Op.MLOAD.code, Op.MSTORE.code
_SLOAD, _CODELOAD, _CALLDATALOAD = Op.SLOAD.code, Op.CODELOAD.code, Op.CALLDATALOAD.code
_TLOAD, _BALANCE = Op.TLOAD.code, Op.BALANCE.code
_CALLDATASIZE, _CALLER, _ORIGIN = Op.CALLDATASIZE.code, Op.CALLER.code, Op.ORIGIN.code
_ADDRESS, _CALLVALUE = Op.ADDRESS.code, Op.CALLVALUE.code
_SSTORE, _TSTORE = Op.SSTORE.code, Op.TSTORE.code
_ICALL, _IRET = Op.ICALL.code, Op.IRET.code
_CALL, _DELEGATECALL = Op.CALL.code, Op.DELEGATECALL.code
_STOP, _REVERT = Op.STOP.code, Op.REVERT.code
# Ends a block cut short by its entry check: charges the first op that
# fails and raises its failure.
_FAIL = len(_OPS)

# (stack words an op reads, its net stack change), by ``Op.code``. Only ops
# with a net change of +1 check for overflow. DUP and SWAP read as deep as
# their immediate; CALL and DELEGATECALL also pop a runtime argument count.
_EFFECTS = [(0, 0)] * len(_OPS)  # SWAP JUMPDEST JUMP ICALL IRET STOP
for _ops, _effect in (
    ("PUSH DUP CALLDATASIZE CALLER ORIGIN ADDRESS CALLVALUE RETURNDATASIZE", (0, 1)),
    ("POP JUMPI RETURN REVERT", (1, -1)),
    ("ADD SUB MUL DIV LT GT EQ AND OR XOR", (2, -1)),
    ("ISZERO NOT MLOAD SLOAD TLOAD CODELOAD CALLDATALOAD BALANCE RETURNDATALOAD", (1, 0)),
    ("MSTORE SSTORE TSTORE", (2, -2)),
    ("CALL", (4, -3)),
    ("DELEGATECALL", (3, -2)),
):
    for _name in _ops.split():
        _EFFECTS[Op[_name].code] = _effect
del _ops, _effect, _name
# DUP 0 and SWAP 0 name no stack word: they fail at any height.
_NEVER = float("inf")

# A block ends after one of these, or before a JUMPDEST.
_ENDS = frozenset(
    op.code
    for op in (
        Op.JUMP, Op.JUMPI, Op.ICALL, Op.IRET, Op.CALL, Op.DELEGATECALL,
        Op.SSTORE, Op.RETURN, Op.STOP, Op.REVERT,
    )
)
# Block-ending ops that check runtime values. Each adds its own charge to a
# mirrored point once its check passes; every other op's charge is added
# with its block's at entry.
_SELF_CHARGED = frozenset(
    op.code for op in (Op.ICALL, Op.IRET, Op.CALL, Op.DELEGATECALL, Op.RETURN, Op.REVERT)
)
# Ops a directly preceding PUSH is fused into: its word becomes their
# immediate, read in place of the top of the stack.
_FUSES = frozenset([_MLOAD, _MSTORE, *range(_ADD, _ISZERO)])


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
    """Accounts with balances, storage and code, behind an undo journal.

    Transient storage (EIP-1153) is one map per executing account that
    lives for one transaction: ``execute_transaction`` swaps in an empty
    ``transient`` at the start of each, and the last transaction's maps stay
    readable until the next begins. The journal undoes transient writes like
    storage writes; ``dump`` and ``clone`` leave transient storage out.
    """

    def __init__(self, config: Config = DEFAULT_CONFIG):
        self.config = config
        self.accounts: dict[int, Account] = {}
        self.transient: dict[int, dict[int, int]] = {}
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
        return self._store(self.account(addr).storage, slot, value)

    def tload(self, addr: int, slot: int) -> int:
        slots = self.transient.get(addr)
        return slots.get(slot, 0) if slots else 0

    def tstore(self, addr: int, slot: int, value: int) -> int:
        return self._store(self.transient.setdefault(addr, {}), slot, value)

    def _store(self, slots: dict[int, int], slot: int, value: int) -> int:
        """Journaled write of one storage or transient slot (zero deletes)."""
        prev = slots.get(slot, 0)
        self._journal.append(("sto", slots, slot, prev))
        if value == 0:
            slots.pop(slot, None)
        else:
            slots[slot] = value
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
                _, slots, slot, prev = entry
                if prev == 0:
                    slots.pop(slot, None)
                else:
                    slots[slot] = prev
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


@functools.lru_cache(maxsize=64)
def price_table(gas: GasSchedule) -> tuple[int, ...]:
    """Gas per opcode, indexed by ``Op.code``; SSTORE is priced by its operands.

    One tuple per schedule, shared by every VM that runs under it.
    """
    prices = [gas.base_op] * len(_OPS)
    prices[_JUMPI] = gas.jumpi
    prices[_MLOAD] = prices[_MSTORE] = gas.memory_op
    prices[_SLOAD] = gas.sload
    prices[_TLOAD] = gas.tload
    prices[_TSTORE] = gas.tstore
    prices[_CALL] = prices[_DELEGATECALL] = gas.call_base
    prices[_SSTORE] = 0
    return tuple(prices)


@functools.lru_cache(maxsize=64)
def _engine_key(gas: GasSchedule, mask: int) -> tuple:
    """What a decoded block depends on: the price table and the word mask.

    One object per (schedule, mask), so that ``FunctionDef.blocks`` can tell
    its cache is current by identity.
    """
    return price_table(gas), mask


def _block(
    body: list, start: int, prices: tuple, mask: int, entry: tuple[int, int] | None = None
) -> list:
    """Decode the basic block at ``start``.

    A block ends after a jump, call, SSTORE, IRET or exit, or before a
    JUMPDEST; validation makes every jump target one. Returns ``[gas, need,
    room, ops, end, None, ()]``:

    - ``gas``: the static gas of all its ops;
    - ``need``, ``room``: the least and greatest stack height at which it
      can be entered without a stack failure;
    - ``ops``: ``(op, imm, pc)`` tuples. JUMPDEST is dropped, a PUSH is
      fused into a following op of ``_FUSES``, which then carries its word
      as ``imm``, and DUP/SWAP carry the negative index they read;
    - ``end``: the pc after the block.

    The last two slots cache the block's ``_point_totals`` for one owner
    table. Given ``entry``, a (stack height, gas left) at which the
    block fails its entry check, decoding stops before the first op that
    fails there and ends in a ``_FAIL`` op for it: the ops before it run as
    in any block, and ``_FAIL`` charges the op and raises where it would.
    """
    if start >= len(body):
        raise _FrameFailure("fell off function body")
    gas = need = height = peak = 0
    ops: list[tuple] = []
    pc, n = start, len(body)
    while pc < n:
        ins = body[pc]
        op = ins.op.code
        if op == _JUMPDEST and pc > start:
            break
        price = prices[op]
        reads, delta = _EFFECTS[op]
        imm = ins.imm
        if imm is not None:
            if op == _PUSH:
                imm &= mask
            elif op == _DUP:
                reads, imm = (imm if imm > 0 else _NEVER), -imm
            elif op == _SWAP:
                reads, imm = (imm + 1 if imm > 0 else _NEVER), -1 - imm
        if entry is not None:
            words = entry[0] + height
            if (
                gas + price > entry[1]
                or words < reads
                or (delta > 0 and words >= OPERAND_STACK_LIMIT)
            ):
                reason = "stack underflow" if words < reads else "stack overflow"
                ops.append((_FAIL, (price, reason), pc))
                break
        gas += price
        if reads - height > need:
            need = reads - height
        height += delta
        if height > peak:
            peak = height
        if op in _FUSES and ops and ops[-1][0] == _PUSH:
            ops[-1] = (op, ops[-1][1], pc)
        elif op != _JUMPDEST:
            ops.append((op, imm, pc))
        pc += 1
        if op in _ENDS:
            break
    return [gas, need, OPERAND_STACK_LIMIT - peak, tuple(ops), pc, None, ()]


def _point_totals(
    body: list, start: int, end: int, prices: tuple, own: list[int]
) -> tuple[tuple[int, int], ...]:
    """``(point, gas)`` sums, under one owner table, of the charges that the
    block over ``body[start:end]`` adds at entry: those of all its ops but a
    ``_SELF_CHARGED`` last one."""
    totals: dict[int, int] = {}
    for pc in range(start, end):
        pid = own[pc]
        op = body[pc].op.code
        if pid >= 0 and op not in _SELF_CHARGED:
            totals[pid] = totals.get(pid, 0) + prices[op]
    return tuple(totals.items())


class VM:
    """Executes transactions against a world. Not reentrant."""

    def __init__(
        self,
        world: WorldState,
        trace_level: int = TRACE_FULL,
        check_log_addr: int | None = None,
        gas_points: dict[str, tuple[list[list[int]], list[int]]] | None = None,
    ):
        self.world = world
        self.config = world.config
        self.trace_level = trace_level
        self.check_log_addr = check_log_addr
        # gas_points maps a code name to (owners, acc): owners[fid][offset] is
        # the point that owns the offset, or -1, and each charge at an owned
        # offset is added into acc[point]. Call sites are charged call_base;
        # callees report their own gas.
        self.gas_points = gas_points
        self.key = _engine_key(self.config.gas, self.config.mask)
        self.prices = self.key[0]

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
        world.transient = {}
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

        Runs basic blocks, each decoded once and cached on its
        ``FunctionDef`` (``_block``). At block entry it checks the gas left
        and both stack bounds, charges the block's static gas, adds its
        per-point totals when mirrored and then runs its ops without per-op
        checks. Only checks on runtime values stay at their op: the
        RETURN/REVERT word count, the CALL argument count, the SSTORE price,
        the ICALL depth and IRET. Each of those ops ends its block and adds
        its own charge to a mirrored point once its check passes. A block
        that fails its entry check is decoded again for that entry: its
        failure-free prefix runs as an ordinary block, then a ``_FAIL`` op
        charges the first failing op and raises there. So gas, trace and
        point totals match a machine that checked every op. The gas used so
        far lives in the local ``gas_used``; it is written back to
        ``self.gas_used`` before every exit from the frame and around every
        message call.
        """
        world = self.world
        config = self.config
        mask = config.mask
        token = world.snapshot()
        gas = config.gas
        key = self.key
        prices = self.prices
        gas_limit = self.gas_limit
        gas_used = self.gas_used
        full = self.trace_level >= TRACE_FULL
        check_log = self.check_log_addr if self.trace_level >= TRACE_CHECKS else None
        emit = self._emit
        name = code.name
        pool = code.data_pool
        functions = code.functions

        stack: list[int] = []
        memory: dict[int, int] = {}
        last_ret: list[int] = []
        # Internal call frames: (function id, return pc). The operand stack
        # and memory are shared across internal frames.
        ifid = fid
        fn = functions[ifid]
        blocks = fn.blocks(key)
        istack: list[tuple[int, int]] = []
        pc = 0

        # each charge is added at its offset in ``own``, the owner table of
        # the function it ran in
        points = self.gas_points.get(name) if self.gas_points else None
        acc = own = owners = None
        if points is not None:
            owners, acc = points
            own = owners[ifid]
        try:
            while True:
                try:
                    blk = blocks[pc]
                except KeyError:
                    blk = blocks[pc] = _block(fn.body, pc, prices, mask)
                cost, need, room, ops, nxt, seen, totals = blk
                height = len(stack)
                if gas_used + cost > gas_limit or height < need or height > room:
                    blk = _block(fn.body, pc, prices, mask, (height, gas_limit - gas_used))
                    cost, need, room, ops, nxt, seen, totals = blk
                gas_used += cost
                if acc is not None:
                    if seen is not own:
                        totals = _point_totals(fn.body, pc, nxt, prices, own)
                        blk[5], blk[6] = own, totals
                    for pid, charge in totals:
                        acc[pid] += charge
                if full and pc in fn.leaders:
                    emit("BlockEnter", self_addr, ifid, pc, {"code": name})

                for op, imm, pc in ops:
                    if op < _ISZERO:
                        if op >= _ADD:  # binary ALU: result replaces x
                            y = stack.pop() if imm is None else imm
                            x = stack[-1]
                            if op < _DIV:  # wraparound is profiled
                                if op == _ADD:
                                    exact = x + y
                                elif op == _SUB:
                                    exact = x - y
                                else:
                                    exact = x * y
                                stack[-1] = exact & mask
                                if full:
                                    emit(
                                        "ArithChecked",
                                        self_addr,
                                        ifid,
                                        pc,
                                        {
                                            "op": _OPS[op].value,
                                            "overflow": x < y if op == _SUB else exact > mask,
                                        },
                                    )
                            elif op == _AND:
                                stack[-1] = x & y
                            elif op == _DIV:
                                stack[-1] = x // y if y else 0
                            elif op == _OR:
                                stack[-1] = x | y
                            elif op == _XOR:
                                stack[-1] = x ^ y
                            elif op == _EQ:
                                stack[-1] = 1 if x == y else 0
                            elif op == _LT:
                                stack[-1] = 1 if x < y else 0
                            else:
                                stack[-1] = 1 if x > y else 0
                        elif op == _PUSH:
                            stack.append(imm)
                        elif op == _DUP:
                            stack.append(stack[imm])
                        elif op == _SWAP:
                            stack[-1], stack[imm] = stack[imm], stack[-1]
                        else:
                            stack.pop()
                    elif op == _MLOAD:
                        if imm is None:
                            stack[-1] = memory.get(stack[-1], 0)
                        else:
                            stack.append(memory.get(imm, 0))
                    elif op == _MSTORE:
                        addr = stack.pop() if imm is None else imm
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
                    elif op < _SLOAD:  # ISZERO NOT JUMP JUMPI
                        if op == _JUMPI:
                            if stack.pop():
                                nxt = imm
                        elif op == _JUMP:
                            nxt = imm
                        elif op == _ISZERO:
                            stack[-1] = 1 if stack[-1] == 0 else 0
                        else:
                            stack[-1] ^= mask
                    elif op < _CALLDATASIZE:  # one-operand reads: result replaces it
                        i = stack[-1]
                        if op == _CALLDATALOAD:
                            stack[-1] = calldata[i] if i < len(calldata) else 0
                        elif op == _CODELOAD:
                            stack[-1] = (pool[i] if i < len(pool) else 0) & mask
                        elif op == _SLOAD:
                            stack[-1] = world.sload(self_addr, i)
                        elif op == _TLOAD:
                            stack[-1] = world.tload(self_addr, i)
                        elif op == _BALANCE:
                            stack[-1] = world.balance_of(i)
                        else:
                            stack[-1] = last_ret[i] if i < len(last_ret) else 0
                    elif op < _SSTORE:  # zero-operand reads
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
                    elif op == _ICALL:
                        if len(istack) >= INTERNAL_DEPTH_LIMIT:
                            raise _FrameFailure("internal call depth exceeded")
                        if full:
                            emit("CallEnter", self_addr, ifid, pc, {"callee": imm})
                        if acc is not None:
                            if own[pc] >= 0:
                                acc[own[pc]] += prices[op]
                            own = owners[imm]
                        istack.append((ifid, pc + 1))
                        ifid = imm
                        fn = functions[ifid]
                        blocks = fn.blocks(key)
                        nxt = 0
                    elif op == _IRET:
                        if not istack:
                            raise _FrameFailure("IRET outside internal call")
                        if full:
                            emit("CallReturn", self_addr, ifid, pc, None)
                        ifid, nxt = istack.pop()
                        if acc is not None:
                            if own[pc] >= 0:
                                acc[own[pc]] += prices[op]
                            own = owners[ifid]
                        fn = functions[ifid]
                        blocks = fn.blocks(key)
                    elif op == _SSTORE:  # charged after its operands are read
                        slot = stack.pop()
                        val = stack.pop()
                        charge = gas.sstore_cost(world.sload(self_addr, slot), val)
                        gas_used += charge
                        if gas_used > gas_limit:
                            self.gas_used = gas_used
                            raise _OutOfGas()
                        if acc is not None and own[pc] >= 0:
                            acc[own[pc]] += charge
                        world.sstore(self_addr, slot, val)
                    elif op == _TSTORE:
                        slot = stack.pop()
                        world.tstore(self_addr, slot, stack.pop())
                    elif op == _CALL or op == _DELEGATECALL:
                        is_delegate = op == _DELEGATECALL
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
                        if acc is not None and own[pc] >= 0:
                            acc[own[pc]] += prices[op]
                        stack.append(1 if ok else 0)
                    elif op < _FAIL:  # RETURN STOP REVERT
                        data = []
                        if op != _STOP:
                            i = stack.pop()
                            if i > len(stack):
                                raise _FrameFailure("stack underflow")
                            data = [stack.pop() for _ in range(i)]
                            if acc is not None and own[pc] >= 0:
                                acc[own[pc]] += prices[op]
                        if op == _REVERT:
                            raise _FrameFailure("revert", data)
                        self.gas_used = gas_used
                        return True, data
                    else:  # _FAIL
                        charge, reason = imm
                        gas_used += charge
                        if gas_used > gas_limit:
                            self.gas_used = gas_used
                            raise _OutOfGas()
                        raise _FrameFailure(reason)
                pc = nxt
        except _FrameFailure as failure:
            self.gas_used = gas_used
            world.rollback(token)
            if self.trace_level >= TRACE_CHECKS:
                detail: dict = {"reason": failure.reason}
                if failure.data and failure.data[0] == (
                    config.guard.guard_marker & mask
                ):
                    # named by its code, as PathChecked is: detection
                    # trusts only the payload of a guard routine
                    detail.update(
                        guard=True, code=name, alarms=_parse_guard_payload(failure.data)
                    )
                self._emit("Revert", self_addr, ifid, pc, detail)
            return False, failure.data

    def _message_call(
        self,
        kind: str,
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
        full = self.trace_level >= TRACE_FULL
        acct = world.accounts.get(target)
        code = acct.code if acct else None
        fid = self._dispatch(code, selector) if code else None
        reason = None
        if depth >= CALL_DEPTH_LIMIT:
            fid, reason = None, "depth"
        elif code is not None and fid is None:
            reason = "selector"
        if full:
            detail = {
                "kind": kind,
                "target": target,
                "code": code.name if code else None,
                "fn": fid,
                "site": site,
                "selector": selector,
            }
            if reason:
                detail["reason"] = reason
            self._emit("ExternalCallEnter", caller_self, site[0], site[1], detail)

        ok, data = False, []
        if reason:
            pass  # refused: no frame runs and no value moves
        elif code is None:
            # Plain value transfer to a code-less account.
            ok = kind == "delegatecall" or world.transfer(caller_self, target, call_value)
        elif kind == "delegatecall":
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
            if world.transfer(caller_self, target, call_value):
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
        if full:
            self._emit("ExternalCallReturn", caller_self, site[0], site[1], {"success": ok})
        return ok, data


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
