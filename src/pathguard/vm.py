"""Deterministic gas-metered stack machine with contracts, calls and revert.

One WorldState is owned by one executor at a time; transactions run strictly
serially against it. All state changes go through an undo journal so that
frame failures and transaction failures restore the exact prior state.
"""

from __future__ import annotations

import collections
import functools
import operator
import re
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
TRACE_CHECKS = 1  # PathChecked (one per checker call), Revert
TRACE_FULL = 2

# Kinds of the static steps a Region event carries (``region_step``): a block
# that starts at a leader, an ICALL, an inlined IRET, and a checked op, which
# also takes the event's next overflow bit.
STEP_BLOCK, STEP_ICALL, STEP_IRET, STEP_ADD, STEP_SUB, STEP_MUL = range(6)
# every pc of deployable code fits in this many bits
_PC_BITS = MAX_CODE_BYTES.bit_length()
_PC_MASK = (1 << _PC_BITS) - 1


def region_step(kind: int, pc: int, callee: int = 0) -> int:
    """One step as one int: ``kind`` in the low three bits, then ``pc``,
    then an ICALL's ``callee``."""
    return kind | pc << 3 | callee << (3 + _PC_BITS)


def step_fields(step: int) -> tuple[int, int, int]:
    """``(kind, pc, callee)`` of a ``region_step``."""
    return step & 7, step >> 3 & _PC_MASK, step >> (3 + _PC_BITS)


# Dispatch codes (``Op.code``).
_OPS = tuple(Op)
_PUSH, _POP, _DUP, _SWAP = Op.PUSH.code, Op.POP.code, Op.DUP.code, Op.SWAP.code
_ADD, _SUB, _MUL, _DIV = Op.ADD.code, Op.SUB.code, Op.MUL.code, Op.DIV.code
_LT, _GT, _EQ = Op.LT.code, Op.GT.code, Op.EQ.code
_AND, _OR, _XOR = Op.AND.code, Op.OR.code, Op.XOR.code
_ISZERO, _NOT = Op.ISZERO.code, Op.NOT.code
_JUMPDEST, _JUMP, _JUMPI = Op.JUMPDEST.code, Op.JUMP.code, Op.JUMPI.code
_MLOAD, _MSTORE = Op.MLOAD.code, Op.MSTORE.code
_SLOAD, _CODELOAD, _CALLDATALOAD = Op.SLOAD.code, Op.CODELOAD.code, Op.CALLDATALOAD.code
_TLOAD, _BALANCE, _RETURNDATALOAD = Op.TLOAD.code, Op.BALANCE.code, Op.RETURNDATALOAD.code
_CALLDATASIZE, _CALLER, _ORIGIN = Op.CALLDATASIZE.code, Op.CALLER.code, Op.ORIGIN.code
_ADDRESS, _CALLVALUE = Op.ADDRESS.code, Op.CALLVALUE.code
_RETURNDATASIZE = Op.RETURNDATASIZE.code
_SSTORE, _TSTORE = Op.SSTORE.code, Op.TSTORE.code
_ICALL, _IRET = Op.ICALL.code, Op.IRET.code
_CALL, _DELEGATECALL = Op.CALL.code, Op.DELEGATECALL.code
_RETURN, _STOP, _REVERT = Op.RETURN.code, Op.STOP.code, Op.REVERT.code
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
# A region stops before a block that would take its ops past this budget,
# or nest more than this many JUMPIs: each indents its taken arm's source,
# and CPython allows 100 levels.
_REGION_OPS = 128
_REGION_NEST = 32
# Block-ending ops that check runtime values. As a tail, each adds its own
# charge to a mirrored point once its check passes; every other op's charge,
# an ICALL's included (it opens its frame in an exit), is added with its
# exit's totals.
_SELF_CHARGED = frozenset(
    op.code for op in (Op.IRET, Op.CALL, Op.DELEGATECALL, Op.RETURN, Op.REVERT)
)

# Source templates of the compiled straight-line ops, by ``Op.code``. Each
# names its operands ``{x}`` (second from top) and ``{y}`` (top), or ``{i}``,
# and reads frame state through the locals of ``_LOCALS``.
_BINARY = {
    _DIV: "{x} // {y} if {y} else 0",
    _LT: "1 if {x} < {y} else 0",
    _GT: "1 if {x} > {y} else 0",
    _EQ: "1 if {x} == {y} else 0",
    _AND: "{x} & {y}",
    _OR: "{x} | {y}",
    _XOR: "{x} ^ {y}",
}
# wraparound is profiled: a Region event's overflow bit says whether the
# exact result leaves [0, mask]
_CHECKED = {_ADD: "+", _SUB: "-", _MUL: "*"}
_CHECKED_STEP = {_ADD: STEP_ADD, _SUB: STEP_SUB, _MUL: STEP_MUL}
_UNARY = {
    _ISZERO: "0 if {i} else 1",
    _NOT: "{i} ^ {mask}",
    _MLOAD: "M.get({i}, 0)",
    _SLOAD: "W.sload(A, {i})",
    _TLOAD: "W.tload(A, {i})",
    _CODELOAD: "(P[{i}] if {i} < len(P) else 0) & {mask}",
    _CALLDATALOAD: "C[{i}] if {i} < len(C) else 0",
    _BALANCE: "W.balance_of({i})",
    _RETURNDATALOAD: "R[{i}] if {i} < len(R) else 0",
}
_NULLARY = {
    _CALLDATASIZE: "len(C)",
    _CALLER: "X.caller",
    _ORIGIN: "X.origin",
    _ADDRESS: "X.address",
    _CALLVALUE: "X.value",
    _RETURNDATASIZE: "len(R)",
}
# Frame locals a compiled unit may read, loaded from its ``_Frame`` once
# at the top when its source uses them.
_LOCALS = {
    "W": "X.world", "A": "X.addr", "C": "X.calldata", "P": "X.pool", "R": "X.ret",
    "F": "X.full", "B": "X.bits", "K": "X.checkers",
}
# the frame locals each op's source reads
_READS = {_TSTORE: ("W", "A")}
for _op, _template in {**_UNARY, **_NULLARY}.items():
    _READS[_op] = tuple(name for name in _LOCALS if re.search(rf"\b{name}\b", _template))
del _op, _template


class VmError(Exception):
    """Harness-level misuse of the VM (not a contract-level failure)."""


class UnknownSelectorError(VmError):
    pass


class StaleSnapshotError(AssertionError):
    pass


@dataclass(slots=True)
class TraceEvent:
    """One traced event; readers must not mutate its ``detail``.

    At TRACE_FULL control flow is traced as ``Region`` events alone: one
    per region path with steps, and one of a single step per tail
    ``IRET``; an ``ICALL`` is always a step of its region's path. ``fn`` is
    the function its first step runs in and ``offset`` that step's pc; its
    detail holds the frame's ``code``, ``steps``, its exit's tuple of
    ``region_step`` ints in trace order (see ``_unit``), and ``bits``, the
    overflow bits of its checked ops in the same order, recorded by the
    compiled code."""

    kind: str
    contract: int
    fn: int
    offset: int
    detail: dict | None = None

    def get(self, key, default=None):
        return self.detail.get(key, default) if self.detail else default


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


def check_words(tx: Transaction, mask: int) -> None:
    """Raise VmError unless ``tx``'s value and every calldata word is an int
    in [0, mask], and their count is at most mask: the VM reads them, and
    CALLDATASIZE, as words, unmasked."""
    if type(tx.value) is not int or not 0 <= tx.value <= mask:
        raise VmError(f"transaction value {tx.value!r} is not a word in [0, {mask:#x}]")
    if len(tx.calldata) > mask:
        count = len(tx.calldata)
        raise VmError(f"{count} calldata words: CALLDATASIZE fits no word above {mask:#x}")
    for word in tx.calldata:
        if type(word) is not int or not 0 <= word <= mask:
            raise VmError(f"calldata word {word!r} is not a word in [0, {mask:#x}]")


STATUS_ACCEPTED = "Accepted"
STATUS_REVERTED = "Reverted"
STATUS_OUT_OF_GAS = "OutOfGas"


@dataclass
class Receipt:
    status: str
    gas_used: int
    trace: list[TraceEvent]
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
        # the key of the decoded units every VM on this world runs
        # (``_engine_key``), made once here and not per VM
        self.engine_key = _engine_key(config.gas, config.mask)
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


def deploy(world: WorldState, program: ContractProgram) -> int:
    """Create a contract account at ``world.next_address``; charges
    code-deposit gas per byte."""
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
    """What a decoded unit depends on: the price table and the word mask.

    One object per (schedule, mask), so that ``ContractProgram.units`` can
    tell its tables are current by identity. The trace level is not part
    of it: a region path's steps sit in its exit table, and compiled code
    reads from its ``_Frame`` whether to record overflow bits, so the
    regions that setup transactions decode untraced serve training and
    detection too.
    """
    return price_table(gas), mask


class _Frame:
    """What compiled code reads of its message frame besides the stack and
    memory: ``ret`` holds the last message call's return data, and
    ``checkers`` the ids of the functions whose ``ICALL`` is a PathChecked
    event (only at TRACE_CHECKS). The environment words are masked.
    ``full`` asks for the TRACE_FULL events; then ``bits`` gets the overflow
    bit of each checked op a region path runs, until ``_run_frame`` traces
    them with the path's steps. Its methods trace PathChecked and Region
    events."""

    __slots__ = (
        "world", "addr", "code", "calldata", "pool", "ret", "trace", "checkers",
        "caller", "origin", "address", "value", "full", "bits",
    )

    def __init__(
        self, vm: "VM", code: ContractProgram, addr, calldata, caller, origin, value, checkers
    ):
        mask = vm.config.mask
        self.world, self.addr, self.code, self.ret = vm.world, addr, code.name, []
        self.calldata, self.pool = calldata, code.data_pool
        self.trace, self.checkers = vm.trace, checkers or frozenset()
        self.caller, self.origin = caller & mask, origin & mask
        self.address, self.value = addr & mask, value & mask
        self.full, self.bits = vm.trace_level >= TRACE_FULL, []

    def path_checked(self, fid: int, pc: int, combined: int | None) -> None:
        detail = {"combined": combined, "code": self.code}
        self.trace.append(TraceEvent("PathChecked", self.addr, fid, pc, detail))

    def region(self, fid: int, steps: tuple, bits: tuple) -> None:
        """Trace the Region event of ``steps`` and ``bits``, which start in
        function ``fid``."""
        detail = {"code": self.code, "steps": steps, "bits": bits}
        self.trace.append(TraceEvent("Region", self.addr, fid, steps[0] >> 3 & _PC_MASK, detail))


def _scan(body: list, start: int, prices: tuple, mask: int, entry=None) -> tuple:
    """The basic block at ``start``: ``(ops, end, fail)``.

    A block ends after one of ``_ENDS``, or before a JUMPDEST; validation
    makes every jump target one. ``ops`` holds each op as ``(op, imm, pc,
    price, reads, delta)``, a PUSH immediate masked, and ``end`` is the pc
    after the block. Given ``entry``, a (stack height, gas left, internal
    frames open) at which the block fails its entry check, the scan stops
    before the first op that fails there (an ``ICALL`` fails with
    ``INTERNAL_DEPTH_LIMIT`` frames open), and ``fail`` is the ``_FAIL``
    tail that charges that op and raises its failure; else ``fail`` is None.
    """
    if start >= len(body):
        raise _FrameFailure("fell off function body")
    ops: list[tuple] = []
    gas = height = 0
    pc, n = start, len(body)
    while pc < n:
        ins = body[pc]
        op = ins.op.code
        if op == _JUMPDEST and pc > start:
            break
        price = prices[op]
        reads, delta = _EFFECTS[op]
        imm = ins.imm
        if op == _PUSH:
            imm &= mask
        elif op == _DUP:
            reads = imm if imm > 0 else _NEVER
        elif op == _SWAP:
            reads = imm + 1 if imm > 0 else _NEVER
        if entry is not None:
            words = entry[0] + height
            if (
                gas + price > entry[1]
                or words < reads
                or (delta > 0 and words >= OPERAND_STACK_LIMIT)
                or (op == _ICALL and entry[2] >= INTERNAL_DEPTH_LIMIT)
            ):
                reason = "stack underflow" if words < reads else "stack overflow"
                if op == _ICALL:  # reads no word and pushes none
                    reason = "internal call depth exceeded"
                return ops, pc, (_FAIL, (price, reason), pc)
            gas += price
            height += delta
        ops.append((op, imm, pc, price, reads, delta))
        pc += 1
        if op in _ENDS:
            break
    return ops, pc, None


class _Node:
    """One block of a region: the ops its compiled code runs, in function
    ``fid``, and what follows them. Each of ``kids`` is a ``_Node`` or an
    exit id; a block with two kids ends in a ``JUMPI``, taken arm first."""

    __slots__ = ("fid", "ops", "kids")

    def __init__(self, fid: int):
        self.fid, self.ops, self.kids = fid, [], []


def _unit(
    functions: list, fid: int, start: int, prices: tuple, mask: int,
    entry: tuple[int, int] | None = None,
) -> tuple:
    """Decode the region entered at ``start`` of function ``fid``.

    A region is a tree of basic blocks. From each block it goes on through a
    fall-through, a ``JUMP`` and both arms of a ``JUMPI`` into the next
    block, however many predecessors that block has, and through an
    ``ICALL`` into its callee, back to the caller at the matching ``IRET``.
    So a block that both arms of a ``JUMPI`` reach (a join) is decoded once
    per arm, and each copy, with the blocks after it, is a subtree of its
    own, with its own exits. It ends at any other tail (an ``IRET`` with no
    matching ``ICALL`` among them), at a block already on its path (a back
    edge), at a block of a function already running in it (a recursive
    ``ICALL``), and where the next block would take the ops of all its
    blocks, copies included, past ``_REGION_OPS`` or nest more than
    ``_REGION_NEST`` branches. Blocks are decoded breadth first, so the
    budget cuts every arm at about the same depth. An ``ICALL`` is never a
    tail: where the region stops at its callee, its exit leaves the
    callee's frame open. Given ``entry`` (see ``_scan``), the state at
    which the region fails its entry check, it is its first block alone
    (a budget of no more ops), cut short before its first op that fails
    there.

    Returns ``(gas, need, room, deep, run, exits)``: ``gas`` is the gas of its
    costliest path; ``need`` and ``room`` the least and greatest stack height
    at which no path fails; ``deep`` the most internal frames open at entry
    at which none of its ``ICALL``s fails; ``run`` its code, built by
    ``_compile`` from ``_source`` (None when no stack can pass its entry
    check), which returns an exit id. Exit ``i`` is ``[gas, next pc, tail,
    frames, fid, segments, steps, None, ()]``: the gas of the path to it; the
    pc it leaves to; its last op as ``(op, imm, pc)`` when ``_run_frame``
    runs that op (a tail: any block-ending op but a ``JUMP``, a ``JUMPI``,
    an ``ICALL`` or an inlined ``IRET``, or ``_FAIL``), else None; the internal
    frames ``(fid, return pc)`` that it leaves open and the function it
    leaves in; the ``(fid, start, end)`` op ranges whose charges it adds
    (all ops on its path but a ``_SELF_CHARGED`` tail); and its path's
    Region steps, ``region_step`` ints in trace order. The last two slots
    cache its ``_point_totals`` for one owner table.
    """
    budget = _REGION_OPS if entry is None else 0
    exits: list[list] = []
    need = peak = depth = cost = 0
    root = _Node(fid)
    ops, end, fail = _scan(functions[fid].body, start, prices, mask, entry)
    # per block: its node and scan, its function and start, then the gas,
    # stack height, open frames and nested branches at its entry, the
    # (frames, pc) of each block before it, their op ranges and their steps
    queue = collections.deque(
        [(root, ops, end, fail, fid, start, 0, 0, (), 0, frozenset(), (), ())]
    )

    def leave(gas, nxt, tail, frames, at, segs, steps) -> int:
        nonlocal cost
        cost = max(cost, gas)
        exits.append([gas, nxt, tail, frames, at, segs, steps, None, ()])
        return len(exits) - 1

    def go(gas, height, at, pc, frames, nest, path, segs, steps):
        """The kid that goes on at ``pc`` of function ``at``: a block of the
        region, or an exit to it."""
        nonlocal budget
        body = functions[at].body
        if (
            0 <= pc < len(body)
            and nest <= _REGION_NEST
            and (frames, pc) not in path
            and all(caller != at for caller, _back in frames)
        ):
            ops, end, _ = _scan(body, pc, prices, mask)
            if len(ops) <= budget:
                budget -= len(ops)
                node = _Node(at)
                queue.append(
                    (node, ops, end, None, at, pc, gas, height, frames, nest, path, segs, steps)
                )
                return node
        return leave(gas, pc, None, frames, at, segs, steps)

    while queue:
        node, ops, end, fail, at, pc, gas, height, frames, nest, path, segs, steps = (
            queue.popleft()
        )
        path = path | {(frames, pc)}
        # a block after an SSTORE tail starts at no leader, and is no step
        steps += (region_step(STEP_BLOCK, pc),) if pc in functions[at].leaders else ()
        for op, imm, opc, price, reads, delta in ops:
            gas += price
            need = max(need, reads - height)
            height += delta
            peak = max(peak, height)
            if op not in _ENDS and op != _JUMPDEST:
                node.ops.append((op, imm, opc))
                if op in _CHECKED_STEP:
                    steps += (region_step(_CHECKED_STEP[op], opc),)
        segs += ((at, pc, end),)
        kids = node.kids
        if fail is not None:  # cut short before its failing op
            kids.append(leave(gas, end, fail, frames, at, segs, steps))
            continue
        op, imm, opc = ops[-1][:3]
        if op not in _ENDS:  # a fall-through
            kids.append(go(gas, height, at, end, frames, nest, path, segs, steps))
        elif op == _JUMP:
            kids.append(go(gas, height, at, imm, frames, nest, path, segs, steps))
        elif op == _JUMPI:
            node.ops.append((op, imm, opc))
            kids.append(go(gas, height, at, imm, frames, nest + 1, path, segs, steps))
            kids.append(go(gas, height, at, end, frames, nest, path, segs, steps))
        elif op == _IRET and frames:
            node.ops.append((op, imm, opc))
            steps += (region_step(STEP_IRET, opc),)
            caller, back = frames[-1]
            kids.append(go(gas, height, caller, back, frames[:-1], nest, path, segs, steps))
        elif op == _ICALL:
            node.ops.append((op, imm, opc))
            steps += (region_step(STEP_ICALL, opc, imm),)
            inner = frames + ((at, end),)
            depth = max(depth, len(inner))
            kids.append(go(gas, height, imm, 0, inner, nest, path, segs, steps))
        else:
            if op in _SELF_CHARGED:
                segs = segs[:-1] + ((at, pc, end - 1),)
            kids.append(leave(gas, end, (op, imm, opc), frames, at, segs, steps))
    run = None
    # a region that needs more words than the stack can hold (DUP 0, SWAP 0,
    # or an immediate past OPERAND_STACK_LIMIT) always fails its entry check
    if need <= OPERAND_STACK_LIMIT:
        run = _compile(_source(root, mask))
    return cost, need, OPERAND_STACK_LIMIT - peak, INTERNAL_DEPTH_LIMIT - depth, run, exits


def _source(root: _Node, mask: int) -> str:
    """Python source of ``run(S, M, X)``, the region whose first block is
    ``root``; ``run`` returns the id of the exit its path reaches.

    ``S`` is the operand stack, ``M`` the memory and ``X`` the ``_Frame``.
    Operands live in locals over a symbolic stack: ``e1``, ``e2``, ... are
    the words the region found on top of ``S`` at entry, read where it used
    them, ``v0``, ``v1``, ... each op's result, and an int a PUSHed word. A
    ``JUMPI`` whose arms are not both exits is an ``if`` over its condition,
    and each arm goes on with its own copy of the symbolic stack. Reads and
    writes of memory, storage and the environment run in op order at their
    own pc, as does the PathChecked event of a checker ``ICALL`` (traced at
    TRACE_CHECKS only). Of the TRACE_FULL trace, a region's
    code renders only what it alone knows: before each checked op's
    result, under a test of the frame's ``full`` flag, it appends the op's
    overflow bit to the frame's ``bits``. A path's static steps sit in its
    exit record (see ``_unit``). Each exit writes ``S`` once with its
    path's net change. Only ints from the ops and the arguments, each
    through ``operator.index``, are rendered into the source; it names no
    other value.
    """
    index = operator.index
    mask = index(mask)
    lines: list[str] = []
    used: set[str] = set()  # entry words and frame locals the source reads
    count = deepest = 0

    def leave(stack: list, taken: int, pad: str, kids: list, cond=None) -> None:
        # write back the words above the deepest entry word still in place
        keep = 0
        while keep < min(taken, len(stack)) and stack[keep] == f"e{taken - keep}":
            keep += 1
        drop = taken - keep
        out = [str(w) if isinstance(w, int) else w for w in stack[keep:]]
        used.update(w for w in out if w.startswith("e"))
        if drop == len(out) == 1:
            lines.append(f"{pad}S[-1] = {out[0]}")
        elif drop and out:
            lines.append(f"{pad}S[-{drop}:] = {', '.join(out)},")
        elif drop:
            lines.append(f"{pad}del S[-{drop}:]")
        elif len(out) == 1:
            lines.append(f"{pad}S.append({out[0]})")
        elif out:
            lines.append(f"{pad}S += {', '.join(out)},")
        if cond is None:
            lines.append(f"{pad}return {index(kids[0])}")
        else:
            lines.append(f"{pad}return {index(kids[0])} if {cond} else {index(kids[1])}")

    def walk(node, stack: list, taken: int, pad: str) -> None:
        """Render ``node`` and the blocks after it; recurses only into the
        taken arm of a ``JUMPI``."""

        def take(k: int) -> None:
            nonlocal taken, deepest
            while len(stack) < k:
                taken += 1
                stack.insert(0, f"e{taken}")
            deepest = max(deepest, taken)

        def pop() -> str:
            word = stack.pop()
            if isinstance(word, int):
                return str(word)
            used.add(word)
            return word

        def result(expr: str) -> None:
            nonlocal count
            lines.append(f"{pad}v{count} = {expr}")
            stack.append(f"v{count}")
            count += 1

        while not isinstance(node, int):
            fid = index(node.fid)
            cond = None
            for op, imm, pc in node.ops:
                pc = index(pc)
                used.update(_READS.get(op, ()))
                if op == _PUSH:
                    stack.append(index(imm))
                elif op == _POP:
                    take(1)
                    stack.pop()
                elif op == _DUP:
                    k = index(imm)
                    take(k)
                    stack.append(stack[-k])
                elif op == _SWAP:
                    k = index(imm) + 1
                    take(k)
                    stack[-1], stack[-k] = stack[-k], stack[-1]
                elif op in _CHECKED:
                    take(2)
                    y, x = pop(), pop()
                    sign = _CHECKED[op]
                    used.update(("F", "B"))
                    lines.append(f"{pad}if F: B.append(not 0 <= {x} {sign} {y} <= {mask})")
                    result(f"({x} {sign} {y}) & {mask}")
                elif op in _BINARY:
                    take(2)
                    y, x = pop(), pop()
                    result(_BINARY[op].format(x=x, y=y))
                elif op in _UNARY:
                    take(1)
                    result(_UNARY[op].format(i=pop(), mask=mask))
                elif op in _NULLARY:
                    result(_NULLARY[op])
                elif op == _MSTORE or op == _TSTORE:
                    take(2)
                    addr, word = pop(), pop()
                    if op == _TSTORE:
                        lines.append(f"{pad}W.tstore(A, {addr}, {word})")
                    else:
                        lines.append(f"{pad}M[{addr}] = {word}")
                elif op == _ICALL:  # traced when its callee is a checker
                    if stack:
                        top = stack[-1]
                        if isinstance(top, str):
                            used.add(top)
                    else:
                        top = f"S[-{taken + 1}] if len(S) > {taken} else None"
                    used.add("K")
                    lines.append(f"{pad}if {index(imm)} in K: X.path_checked({fid}, {pc}, {top})")
                elif op == _JUMPI:
                    take(1)
                    cond = pop()
                elif op != _IRET:  # an inlined IRET runs nothing
                    raise ValueError(f"{_OPS[op].value} is not a straight-line op")
            kids = node.kids
            if cond is None:
                node = kids[0]
            elif all(isinstance(kid, int) for kid in kids):
                leave(stack, taken, pad, kids, cond)
                return
            else:
                lines.append(f"{pad}if {cond}:")
                walk(kids[0], list(stack), taken, pad + "    ")
                node = kids[1]
        leave(stack, taken, pad, [node])

    walk(root, [], 0, "    ")
    head = [f"    {name} = {load}" for name, load in _LOCALS.items() if name in used]
    head += [f"    e{k} = S[-{k}]" for k in range(1, deepest + 1) if f"e{k}" in used]
    return "def run(S, M, X):\n" + "".join(f"{line}\n" for line in head + lines)


@functools.lru_cache(maxsize=1024)
def _compile(source: str):
    """``run`` built from ``source``, one per source text, shared by every
    program (and every VM) that runs that region."""
    namespace = {"__builtins__": {"len": len}}
    exec(compile(source, "<region>", "exec"), namespace)
    return namespace["run"]


def _point_totals(
    functions: list, segs: tuple, prices: tuple, owners: list[list[int]]
) -> tuple[tuple[int, int], ...]:
    """``(point, gas)`` sums, under the owner tables ``owners`` (one per
    function), of the charges an exit adds: those of the ops in its
    ``(fid, start, end)`` segments."""
    totals: dict[int, int] = {}
    for fid, start, end in segs:
        own, body = owners[fid], functions[fid].body
        for pc in range(start, end):
            pid = own[pc]
            if pid >= 0:
                totals[pid] = totals.get(pid, 0) + prices[body[pc].op.code]
    return tuple(totals.items())


@functools.lru_cache(maxsize=64)
def _tables(content: tuple, key: tuple) -> list[dict]:
    """Empty region tables, one dict by start pc for each function, for a
    program of this content under this engine key. Every program of equal
    content shares them, so a program protected again decodes and compiles
    nothing new."""
    return [{} for _ in content]


def _decoded(code: ContractProgram, key: tuple) -> list[dict]:
    """The ``_tables`` of ``code``'s content."""
    content = tuple(tuple((i.op.code, i.imm) for i in fn.body) for fn in code.functions)
    return _tables(content, key)


class VM:
    """Executes transactions against a world. Not reentrant."""

    def __init__(
        self,
        world: WorldState,
        trace_level: int = TRACE_FULL,
        checkers: dict[str, frozenset[int]] | None = None,
        gas_points: dict[str, tuple[list[list[int]], list[int]]] | None = None,
    ):
        """A machine on ``world`` at ``trace_level``. It runs the units
        decoded under the world's engine key (``WorldState.engine_key``),
        made once per world: a VM is made per transaction, and hashing the
        gas schedule again for ``_engine_key``'s cache would cost more than
        the rest of this."""
        self.world = world
        self.config = world.config
        self.trace_level = trace_level
        # checkers maps a code name to its checker function ids: at
        # TRACE_CHECKS, each ICALL of one is a PathChecked event that
        # carries the word on top of the stack as ``combined``. TRACE_FULL
        # traces uninstrumented runs for the trace oracle and TRACE_NONE
        # traces nothing, so they take none.
        if trace_level != TRACE_CHECKS and checkers and any(checkers.values()):
            raise VmError("checkers are traced at TRACE_CHECKS only")
        self.checkers = checkers
        # gas_points maps a code name to (owners, acc): owners[fid][offset] is
        # the point that owns the offset, or -1, and each charge at an owned
        # offset is added into acc[point]. Call sites are charged call_base;
        # callees report their own gas.
        self.gas_points = gas_points
        self.key = world.engine_key
        self.prices = self.key[0]

    # -- public entry ---------------------------------------------------------

    def execute_transaction(self, tx: Transaction) -> Receipt:
        world = self.world
        check_words(tx, self.config.mask)
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
            return Receipt(STATUS_REVERTED, 0, self.trace, [])
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
            return Receipt(STATUS_OUT_OF_GAS, tx.gas_limit, self.trace, [])
        if success:
            world.commit(token)
            return Receipt(STATUS_ACCEPTED, self.gas_used, self.trace, data)
        world.rollback(token)
        return Receipt(STATUS_REVERTED, self.gas_used, self.trace, data)

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

        Runs regions (``_unit``), each decoded once per program content and
        engine key (``_decoded``) and run alike at every trace level: its
        compiled code reads from the frame which events to trace. At region
        entry it checks the gas left against the region's costliest path,
        both stack bounds, and the internal frames open against the
        region's calls. Then the region's compiled code runs; no op in it
        can fail, and it returns the exit its path took. The loop charges
        that exit's gas, adds its per-point totals when mirrored, opens the
        internal frames it leaves open (every ``ICALL`` opens its callee's
        frame so), and runs its tail: the ops whose checks read values met
        only there (the RETURN/REVERT word count, the CALL argument count,
        the SSTORE price and an IRET's frame), and STOP. At TRACE_FULL,
        first, an exit with steps traces them as its path's Region event, in
        the function the region was entered in, with the overflow bits its
        code recorded in the frame; a tail IRET traces its own one-step
        Region event, where an inlined one is a step of its region's. Each
        tail adds its own charge to a mirrored point once its check passes.
        A region that fails its entry check is decoded again for that
        entry, uncached: its first block alone, cut short before the first
        op that fails there (an ``ICALL`` at the depth limit included),
        whose ``_FAIL`` tail charges that op and raises. Since a region runs
        on through joins, its costliest path and its bounds cover every arm
        of every branch in it, so the check can also fail where the arms
        the frame takes would fit; the first block then runs alone as well,
        and the next region is entered after it. So gas, trace and point
        totals match a machine that checked every op. The gas used so far
        lives in the local ``gas_used``; it is written back to
        ``self.gas_used`` before every exit from the frame and around every
        message call.
        """
        world = self.world
        config = self.config
        mask = config.mask
        token = world.snapshot()
        gas = config.gas
        prices = self.prices
        gas_limit = self.gas_limit
        gas_used = self.gas_used
        name = code.name
        functions = code.functions
        checkers = self.checkers.get(name) if self.checkers else None

        stack: list[int] = []
        memory: dict[int, int] = {}
        frame = _Frame(self, code, self_addr, calldata, caller, origin, value, checkers)
        full, bits = frame.full, frame.bits
        # Internal call frames: (function id, return pc). The operand stack
        # and memory are shared across internal frames.
        ifid = fid
        tables = code.units(self.key, _decoded)
        table = tables[ifid]
        istack: list[tuple[int, int]] = []
        pc = 0

        # each charge is added at its offset in its function's owner table
        points = self.gas_points.get(name) if self.gas_points else None
        acc = own = owners = None
        if points is not None:
            owners, acc = points
            own = owners[ifid]
        try:
            while True:
                try:
                    unit = table[pc]
                except KeyError:
                    unit = table[pc] = _unit(functions, ifid, pc, prices, mask)
                cost, need, room, deep, run, exits = unit
                height = len(stack)
                if (
                    gas_used + cost > gas_limit
                    or height < need
                    or height > room
                    or len(istack) > deep
                ):
                    entry = (height, gas_limit - gas_used, len(istack))
                    cost, need, room, deep, run, exits = _unit(
                        functions, ifid, pc, prices, mask, entry
                    )
                out = exits[run(stack, memory, frame)]
                cost, nxt, tail, frames, at, segs, steps, seen, totals = out
                if full and steps:
                    frame.region(ifid, steps, tuple(bits))
                    bits.clear()
                gas_used += cost
                if acc is not None:
                    if seen is not owners:
                        totals = _point_totals(functions, segs, prices, owners)
                        out[7], out[8] = owners, totals
                    for pid, charge in totals:
                        acc[pid] += charge
                if frames:
                    istack += frames
                    ifid = at
                    table = tables[ifid]
                    if acc is not None:
                        own = owners[ifid]
                if tail is not None:
                    op, imm, pc = tail
                    if op == _IRET:
                        if not istack:
                            raise _FrameFailure("IRET outside internal call")
                        if full:
                            frame.region(ifid, (region_step(STEP_IRET, pc),), ())
                        if acc is not None and own[pc] >= 0:
                            acc[own[pc]] += prices[op]
                        ifid, nxt = istack.pop()
                        if acc is not None:
                            own = owners[ifid]
                        table = tables[ifid]
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
                        ok, frame.ret = self._message_call(
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
                # named by its code, as PathChecked is: detection decodes
                # only the data of a guard routine's revert
                detail = {"reason": failure.reason, "code": name, "data": failure.data}
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


def execute_transaction(
    world: WorldState,
    tx: Transaction,
    trace_level: int = TRACE_FULL,
    checkers: dict[str, frozenset[int]] | None = None,
) -> Receipt:
    """Convenience wrapper creating a fresh VM per transaction."""
    return VM(world, trace_level, checkers).execute_transaction(tx)
