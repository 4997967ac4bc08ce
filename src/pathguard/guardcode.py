"""Generated guard runtime: reserved layout, wire protocol, instruction sequences.

Everything the instrumented code computes at runtime (context bands, slot
encoding, hashes, membership) is defined here exactly once, as both a Python
function (used by the trace oracle and the harness) and an emitted
instruction sequence (used by the rewriter). A cross-validation test runs
the emitted sequences in the VM against the Python versions.

Sequences are ``Asm`` item lists. Only this module reads items: ``resolve``
turns one into an instruction at layout and ``seq_gas`` prices them.
"""

from __future__ import annotations

from itertools import count
from typing import NamedTuple

from .config import Config, INTERNAL_DEPTH_LIMIT
from .isa import Instruction, Op
from .pathset import (
    STRATEGY_LIST,
    STRATEGY_MAPPING,
    STRATEGY_MPHT,
    MAPPING_TAG,
    ListSpec,
    MphtSpec,
    build_list,
    build_mpht,
    disp_bits,
    mapping_fn_seed,
    mapping_slot,
    mapping_value,
    field_bits,
    mix_constant,
    mpht_position,
)
from .vm import price_table

# Protocol words, each masked to the word width where it is used. Calldata
# and code are public, so none of them is a secret.
CALL_MARKER = 0xC0DE_CA11_C0DE_CA11  # heads calls and returns between protected contracts
GUARD_MARKER = 0xA1A7_A1A7_A1A7_A1A7  # heads a guard-revert payload
SLOT_POISON = 0xFFFF_FFFF_FFFF_FFFF  # ctx slot: "anomaly seen in a reentrant frame"
ALARM_BUFFER_CAP = 8  # alarm entries a contract keeps per transaction

# Calldata prefix sent between protected contracts: [MARKER, ctx_base, site].
MARKER_WORDS = 3
# Return-data prefix sent back to protected callers: [MARKER, flag].
RET_PREFIX_WORDS = 2

# Wrapper entry modes (reserved MODE word; memory zero-init means boundary).
MODE_BOUNDARY = 0
MODE_MARKER = 1
MODE_REENTRANT = 2

# Transient slots (EIP-1153). Transient storage belongs to the guard alone
# and is empty at the start of every transaction, so the ctx slot reads 0
# while no unprotected call is in flight. The alarm buffer is one per
# executing account per transaction: every frame of the contract (and every
# DELEGATECALL-reached callee running in its account) appends to it, and the
# revert journal drops a reverted frame's appends.
CTX_SLOT = 0  # encoded ctx of a frame whose call left the boundary
ALARM_CNT_SLOT = 1  # alarm entries appended so far
ALARM_ENTRY_SLOT = 2  # word w of entry j sits at ALARM_ENTRY_SLOT + 3j + w


class Layout:
    """Reserved memory words, the top 14 + 2 * INTERNAL_DEPTH_LIMIT (142)
    words of the address space."""

    def __init__(self, width: int):
        top = 1 << width
        self.width = width
        self.ctx = top - 1
        self.flag = top - 2
        self.cdoff = top - 3
        self.mode = top - 4
        self.depth = top - 5
        self.retoff = top - 6  # return-data prefix words of the frame's last external call
        self.tmp_n = top - 7
        self.tmp_sel = top - 8
        self.tmp_val = top - 9
        self.tmp_addr = top - 10
        self.tmp_slot = top - 11
        self.tmp_x = top - 12
        self.tmp_y = top - 13
        # path accumulators, one per internal depth 0 .. INTERNAL_DEPTH_LIMIT
        self.epp_base = self.tmp_y - 1 - INTERNAL_DEPTH_LIMIT
        self.ctxsave_base = self.epp_base - INTERNAL_DEPTH_LIMIT
        self.reserved_low = self.ctxsave_base
        self.reserved_range = (self.reserved_low, top)


# -- protocol arithmetic (python side, mirrored by emitted code) --------------


def slot_encode(ctx: int, width: int) -> int:
    """Ctx-slot content while an unprotected call is in flight (nonzero)."""
    return (ctx + 1) & ((1 << width) - 1)


def slot_decode(stored: int, width: int) -> int:
    return (stored - 1) & ((1 << width) - 1)


def band_foreign(num_ccs: int) -> int:
    """Entry context: markerless call from some contract. (A call from the
    origin has context 0, the value of the function's first in-edge.)"""
    return num_ccs


def band_reentrant(outer_ctx: int, num_ccs: int, width: int) -> int:
    """Entry context: self-reentry through an unprotected contract.

    Shifting by 2*NumCCs keeps every reentry depth disjoint from the trained
    range [0, N) and the foreign band [N, 2N); this disjointness is what
    makes reentrant flows distinguishable from trained ones.
    """
    return (outer_ctx + 2 * num_ccs) & ((1 << width) - 1)


def marker_ctx(base: int, edge_val: int, surrogate: bool, width: int) -> int:
    """Callee-side context on a marker entry through a known call edge."""
    if surrogate:
        return edge_val & ((1 << width) - 1)
    return (base + edge_val) & ((1 << width) - 1)


# -- sequence assembler --------------------------------------------------------


class Asm:
    """Collects instructions with symbolic labels.

    Items: ("i", Instruction) | ("mark", label) | ("jump", label)
    | ("jumpi", label). Only this module reads them: ``resolve`` turns one
    into an instruction at final layout; offsets are instruction indices so
    sizing is trivial.
    """

    _uid = 0

    def __init__(self):
        self.items: list[tuple] = []

    def emit(self, op: Op, imm: int | None = None) -> "Asm":
        self.items.append(("i", Instruction(op, imm)))
        return self

    def push(self, value: int) -> "Asm":
        return self.emit(Op.PUSH, value)

    @classmethod
    def fresh(cls, stem: str) -> str:
        cls._uid += 1
        return f"{stem}.{cls._uid}"

    def mark(self, label: str) -> "Asm":
        self.items.append(("mark", label))
        return self

    def jump(self, label: str) -> "Asm":
        self.items.append(("jump", label))
        return self

    def jumpi(self, label: str) -> "Asm":
        self.items.append(("jumpi", label))
        return self

    def extend(self, other: "Asm") -> "Asm":
        self.items.extend(other.items)
        return self

    # -- macros ----------------------------------------------------------------

    def mload(self, addr: int) -> "Asm":
        return self.push(addr).emit(Op.MLOAD)

    def mstore(self, addr: int) -> "Asm":
        """Store top of stack to a constant address."""
        return self.push(addr).emit(Op.MSTORE)

    def mstore_const(self, addr: int, value: int) -> "Asm":
        return self.push(value).mstore(addr)

    def add_mem(self, addr: int, value: int) -> "Asm":
        """mem[addr] += value (modular)."""
        return self.mload(addr).push(value).emit(Op.ADD).mstore(addr)

    def epp_addr(self, lay: Layout) -> "Asm":
        """Push the current frame's path-accumulator address."""
        return self.mload(lay.depth).push(lay.epp_base).emit(Op.ADD)

    def epp_add(self, lay: Layout, value: int) -> "Asm":
        self.epp_addr(lay)
        self.emit(Op.DUP, 1).emit(Op.MLOAD).push(value).emit(Op.ADD)
        return self.emit(Op.SWAP, 1).emit(Op.MSTORE)

    def epp_set(self, lay: Layout, value: int) -> "Asm":
        self.push(value)
        self.epp_addr(lay)
        return self.emit(Op.MSTORE)

    def mix_top(self, width: int) -> "Asm":
        """pathset.mix over the top word, bit-identical: multiply, xorshift."""
        self.push(mix_constant(width)).emit(Op.MUL)
        self.emit(Op.DUP, 1).push(1 << field_bits(width)).emit(Op.DIV)
        return self.emit(Op.XOR)

    def mod_const(self, modulus: int) -> "Asm":
        """x mod m for constant m over the top word."""
        if modulus & (modulus - 1) == 0:
            return self.push(modulus - 1).emit(Op.AND)
        self.emit(Op.DUP, 1).push(modulus).emit(Op.DIV)
        self.push(modulus).emit(Op.MUL)
        return self.emit(Op.SUB)


# -- membership checker --------------------------------------------------------


def seq_checker(
    spec: ListSpec | MphtSpec, fid: int, miss_fid: int, pool_base: int, config: Config
) -> Asm:
    """Body of function ``fid``'s checker: consumes [combined], IRETs [].

    Embedded structure only: a hit returns at once, so trained paths pay no
    storage read. An embedded miss hands [combined, fid, fn_seed] to the
    contract's shared miss routine, which accepts the pair or raises the
    alarm. Pool entries store key+1: zero-padded pool reads can never match
    a real key. Working words stay on the stack.

    A list compares combined+1 with its entries in key order and returns
    at the first match, so a hit on entry i costs i entry steps. A table
    probes one slot: bucket g % m gives the packed displacements, and the
    slot (f1 + d0*f2 + d1) % r holds key+1 (pathset.mpht_position).
    """
    width = config.width
    a = Asm()
    miss = Asm().push(fid).push(mapping_fn_seed(fid, config)).emit(Op.ICALL, miss_fid)
    if not spec.n:
        # no embedded set: every check goes to the miss routine
        return a.extend(miss).emit(Op.IRET)
    found = Asm.fresh("hit")
    if isinstance(spec, ListSpec):
        a.push(1).emit(Op.ADD)  # [combined+1]
        for i in range(spec.n):
            a.emit(Op.DUP, 1).push(pool_base + i).emit(Op.CODELOAD).emit(Op.EQ)
            a.jumpi(found)
        a.push(1).emit(Op.SUB)  # [combined]
    else:  # MphtSpec
        t = field_bits(width)
        tmask = (1 << t) - 1
        s = disp_bits(width)
        r, m = spec.size, spec.m
        a.emit(Op.DUP, 1).push(spec.seed & config.mask).emit(Op.XOR)
        a.mix_top(width)  # [c, h]
        # displacement word of bucket g % m, g = h >> 2t
        if m == 1:
            a.push(pool_base)
        else:
            a.emit(Op.DUP, 1).push(1 << (2 * t)).emit(Op.DIV)
            a.mod_const(m)
            a.push(pool_base).emit(Op.ADD)
        a.emit(Op.CODELOAD)  # [c, h, (d0 << s) | d1]
        # the position sum stays below the word at every width: d0, d1 < 2**s
        a.emit(Op.DUP, 1).push(1 << s).emit(Op.DIV)  # d0
        a.emit(Op.DUP, 3).push(tmask).emit(Op.AND)  # f2
        a.emit(Op.MUL)
        a.emit(Op.DUP, 3).push(1 << t).emit(Op.DIV).push(tmask).emit(Op.AND)  # f1
        a.emit(Op.ADD)  # [c, h, dw, d0*f2 + f1]
        a.emit(Op.SWAP, 2).emit(Op.POP)  # [c, sum, dw]
        a.push((1 << s) - 1).emit(Op.AND).emit(Op.ADD)  # + d1
        a.mod_const(r)
        a.push(pool_base + m).emit(Op.ADD).emit(Op.CODELOAD)  # [c, slot word]
        a.emit(Op.DUP, 2).push(1).emit(Op.ADD).emit(Op.EQ)
        a.jumpi(found)
    a.extend(miss).emit(Op.IRET)
    a.mark(found).emit(Op.POP).emit(Op.IRET)
    return a


def seq_miss(code_id: int, config: Config) -> Asm:
    """Shared miss routine: consumes [combined, fid, fn_seed], IRETs [].

    Accepts the pair when the dynamic mapping holds it
    (SLOAD(mapping_slot) == combined + 1). Otherwise it sets the flag and
    appends (code id, fid, combined) to the transient alarm buffer while it
    holds fewer than ``ALARM_BUFFER_CAP`` entries.
    """
    lay = Layout(config.width)
    a = Asm()
    full = Asm.fresh("missfull")
    done = Asm.fresh("missdone")
    a.emit(Op.DUP, 3).emit(Op.XOR).push(mix_constant(config.width)).emit(Op.MUL)
    a.push(MAPPING_TAG & config.mask).emit(Op.XOR)
    a.emit(Op.SLOAD)  # [c, fid, stored]
    a.emit(Op.DUP, 3).push(1).emit(Op.ADD).emit(Op.EQ)
    a.jumpi(done)  # in the mapping: accepted
    a.mstore_const(lay.flag, 1)
    a.push(ALARM_CNT_SLOT).emit(Op.TLOAD)  # [c, fid, count]
    a.emit(Op.DUP, 1).push(ALARM_BUFFER_CAP).emit(Op.LT).emit(Op.ISZERO)
    a.jumpi(full)  # buffer full: flagged only
    a.emit(Op.DUP, 1).push(1).emit(Op.ADD).push(ALARM_CNT_SLOT).emit(Op.TSTORE)
    a.push(3).emit(Op.MUL).push(ALARM_ENTRY_SLOT).emit(Op.ADD)  # [c, fid, base]
    a.push(code_id).emit(Op.DUP, 2).emit(Op.TSTORE)
    a.push(1).emit(Op.ADD).emit(Op.SWAP, 1).emit(Op.DUP, 2).emit(Op.TSTORE)  # [c, base+1]
    a.push(1).emit(Op.ADD).emit(Op.TSTORE)
    a.emit(Op.IRET)
    a.mark(full)
    a.emit(Op.POP)
    a.mark(done)
    a.emit(Op.POP).emit(Op.POP)
    return a.emit(Op.IRET)


def checker_pool(spec: ListSpec | MphtSpec, width: int) -> list[int]:
    """Constant-pool words backing a checker: entries stored as key+1, an
    empty table slot as 0.

    key+1 wraps to 0 at combined = 2**width - 1, which then probes for 0,
    as the checker's own ADD does. An empty slot that this combined lands on
    holds x+1 instead, for some x that lands elsewhere: no combined that
    probes the slot matches.
    """
    mask = (1 << width) - 1
    if isinstance(spec, ListSpec):
        return [(k + 1) & mask for k in spec.keys]
    s = disp_bits(width)
    packed = [(d0 << s) | d1 for d0, d1 in spec.displacements]
    slots = [0 if k is None else (k + 1) & mask for k in spec.slots]
    top = mpht_position(spec, mask, width)
    if spec.slots[top] is None:
        slots[top] = next(x + 1 for x in count() if mpht_position(spec, x, width) != top)
    return packed + slots


# -- per-point sequences ---------------------------------------------------------


class SlowPaths(NamedTuple):
    """Function ids of a contract's shared slow paths, reached only on an
    exit that is not a clean boundary exit, or on a check miss."""

    exit: int
    miss: int


def seq_check_fragment(chk_fid: int, lay: Layout, num_paths: int) -> Asm:
    """Compute combined and hand it to the function's checker. The VM
    traces the checker call, with combined on top of the stack, as the
    check's PathChecked event."""
    a = Asm()
    a.mload(lay.ctx).push(num_paths).emit(Op.MUL)
    a.epp_addr(lay).emit(Op.MLOAD).emit(Op.ADD)  # [combined]
    return a.emit(Op.ICALL, chk_fid)


def seq_prologue(
    num_ccs: int,
    entry_epp: int,
    site_rows: list[tuple[int, int, bool]],
    config: Config,
    icall_target: bool = False,
) -> Asm:
    """External-function wrapper entry: classify the caller, set ctx/mode.

    site_rows: (site gid, edge value, via_surrogate) for every call edge that
    can reach this function with a marker. An ``icall_target``, which some
    ICALL enters too, skips the classification below depth 0, keeping the
    ctx the caller's ICALL set, and always stores its entry value.
    """
    lay = Layout(config.width)
    a = Asm()
    l_mark = Asm.fresh("mark")
    l_reentrant = Asm.fresh("reentrant")
    l_direct = Asm.fresh("direct")
    l_done = Asm.fresh("entry_done")

    if icall_target:
        a.mload(lay.depth)
        a.jumpi(l_done)
    a.emit(Op.CALLDATASIZE).push(MARKER_WORDS).emit(Op.LT).emit(Op.ISZERO)
    a.push(0).emit(Op.CALLDATALOAD).push(CALL_MARKER & config.mask).emit(Op.EQ)
    a.emit(Op.AND)
    a.jumpi(l_mark)
    # markerless: a set ctx slot means reentry through an unprotected call
    a.push(CTX_SLOT).emit(Op.TLOAD)
    a.emit(Op.DUP, 1)
    a.jumpi(l_reentrant)
    a.emit(Op.POP)
    a.emit(Op.CALLER).emit(Op.ORIGIN).emit(Op.EQ)
    a.jumpi(l_direct)
    a.mstore_const(lay.ctx, band_foreign(num_ccs) & config.mask)
    a.jump(l_done)
    a.mark(l_direct)  # direct band: ctx stays 0
    a.jump(l_done)
    a.mark(l_reentrant)
    # ctx = (slot - 1) + 2 * NumCCs, in one addition
    a.push((2 * num_ccs - 1) & config.mask).emit(Op.ADD)
    a.mstore(lay.ctx)
    a.mstore_const(lay.mode, MODE_REENTRANT)
    a.jump(l_done)
    a.mark(l_mark)
    # marker entry: ctx = base + val(site -> this fn); surrogate rows replace
    a.push(2).emit(Op.CALLDATALOAD)  # [site]
    l_sum = Asm.fresh("sum")
    for gid, val, via_surrogate in site_rows:
        nxt = Asm.fresh("nxt")
        a.emit(Op.DUP, 1).push(gid).emit(Op.EQ).emit(Op.ISZERO)
        a.jumpi(nxt)
        a.emit(Op.POP)
        if via_surrogate:
            a.push(val & config.mask)
        else:
            a.push(1).emit(Op.CALLDATALOAD).push(val & config.mask).emit(Op.ADD)
        a.jump(l_sum)
        a.mark(nxt)
    a.emit(Op.POP)
    a.push(1).emit(Op.CALLDATALOAD)  # unknown site: base alone
    a.mark(l_sum)
    a.mstore(lay.ctx)
    a.mstore_const(lay.cdoff, MARKER_WORDS)
    a.mstore_const(lay.mode, MODE_MARKER)
    a.mark(l_done)
    if entry_epp or icall_target:
        a.epp_set(lay, entry_epp)  # an ICALL enters deeper than depth 0
    return a


def seq_external_epilogue(
    fid: int, chk_fid: int, exit_fid: int, num_paths: int, lay: Layout
) -> Asm:
    """Shared exit stub for an external function.

    Expects the stack shaped for RETURN ([values..., n]); exit sites jump
    here (STOP sites push 0 first). Runs the path-set check, then tests
    flag | mode once: a clean boundary frame returns as it is. Any other
    frame pushes fid and ICALLs the contract's shared exit routine, which
    guard-reverts or prepares the return; the stub's last RETURN then
    returns what the routine left.
    """
    a = Asm()
    a.extend(seq_check_fragment(chk_fid, lay, num_paths))
    l_slow = Asm.fresh("xslow")
    a.mload(lay.flag).mload(lay.mode).emit(Op.OR)
    a.jumpi(l_slow)
    a.emit(Op.RETURN)
    a.mark(l_slow)
    return a.push(fid).emit(Op.ICALL, exit_fid).emit(Op.RETURN)


def seq_exit_routine(code_id: int, config: Config) -> Asm:
    """Shared exit routine: consumes [vals..., n, fid], IRETs the stack the
    stub's RETURN returns.

    Reached by every exit but a clean boundary one. A boundary entry is
    flagged and guard-reverts (``_guard_revert``). Marker and reentrant
    entries leave their alarm entries in the transient buffer, where a frame
    of the same account reads them: a marker entry returns its values under
    the [MARKER, flag] prefix, and a flagged reentrant one poisons the ctx
    slot so the outer frame of the same contract reverts the whole
    transaction. The marker test comes first: marker exits are the
    routine's common case.
    """
    lay = Layout(config.width)
    a = Asm()
    l_marker = Asm.fresh("xmark")
    l_reentrant = Asm.fresh("xreent")
    l_done = Asm.fresh("xdone")
    a.mload(lay.mode).push(MODE_MARKER).emit(Op.EQ)
    a.jumpi(l_marker)
    a.mload(lay.mode)  # MODE_BOUNDARY is 0
    a.jumpi(l_reentrant)
    a.extend(_guard_revert(code_id, config))
    a.mark(l_reentrant)
    a.emit(Op.POP)  # fid: only a guard revert reports it
    a.mload(lay.flag).emit(Op.ISZERO)
    a.jumpi(l_done)
    a.push(SLOT_POISON & config.mask).push(CTX_SLOT).emit(Op.TSTORE)
    a.mark(l_done)
    a.emit(Op.IRET)
    a.mark(l_marker)
    # [vals..., n, fid] -> [vals..., flag, MARKER, n + 2]
    a.emit(Op.POP).mload(lay.flag).emit(Op.SWAP, 1)
    a.push(CALL_MARKER & config.mask).emit(Op.SWAP, 1)
    return a.push(RET_PREFIX_WORDS).emit(Op.ADD).emit(Op.IRET)


def _guard_revert(code_id: int, config: Config) -> Asm:
    """Guard revert: consumes [fid], never returns.

    Reverts with [GUARD_MARKER, count, (addr, code id, fid, combined) * count]
    from the transient alarm buffer, in append order. A flag with an empty
    buffer means a protected callee reached by CALL flagged and its entries
    stayed in its own account's buffer; that is reported as the all-ones
    sentinel pair of fid.
    """
    lay = Layout(config.width)
    a = Asm()
    guard_marker = GUARD_MARKER & config.mask
    loop = Asm.fresh("rev")
    done = Asm.fresh("revdone")
    have = Asm.fresh("have")
    a.push(ALARM_CNT_SLOT).emit(Op.TLOAD)  # [fid, count]
    a.emit(Op.DUP, 1)
    a.jumpi(have)
    a.emit(Op.POP)
    a.push(config.mask).emit(Op.SWAP, 1).push(code_id).emit(Op.ADDRESS)
    a.push(1)
    a.push(guard_marker)
    a.push(6)
    a.emit(Op.REVERT)
    a.mark(have)
    a.emit(Op.SWAP, 1).emit(Op.POP)  # [count]
    a.emit(Op.DUP, 1).mstore(lay.tmp_y)  # count, for the payload head
    a.mstore(lay.tmp_x)  # entries left to push, last first
    a.mark(loop)
    a.mload(lay.tmp_x).emit(Op.ISZERO)
    a.jumpi(done)
    a.mload(lay.tmp_x).push(1).emit(Op.SUB)
    a.emit(Op.DUP, 1).mstore(lay.tmp_x)
    a.push(3).emit(Op.MUL).push(ALARM_ENTRY_SLOT).emit(Op.ADD)  # [entry base]
    a.emit(Op.DUP, 1).push(2).emit(Op.ADD).emit(Op.TLOAD)  # [base, combined]
    a.emit(Op.SWAP, 1)  # [combined, base]
    a.emit(Op.DUP, 1).push(1).emit(Op.ADD).emit(Op.TLOAD)  # [combined, base, fid]
    a.emit(Op.SWAP, 1).emit(Op.TLOAD)  # [combined, fid, code id]
    a.emit(Op.ADDRESS)  # [combined, fid, code id, addr]
    a.jump(loop)
    a.mark(done)
    a.mload(lay.tmp_y)
    a.push(guard_marker)
    a.mload(lay.tmp_y).push(4).emit(Op.MUL).push(2).emit(Op.ADD)
    a.emit(Op.REVERT)
    return a


class RawAlarm(NamedTuple):
    """One entry of a guard-revert payload: the anomalous pair."""

    contract: int
    code_id: int  # index into the sorted protection boundary
    fn: int
    combined: int


def decode_guard_revert(data: list[int], width: int) -> list[RawAlarm] | None:
    """The entries of revert data ``_guard_revert`` emits, or None when
    ``data`` does not start with the guard marker. Entries past the data's
    end are dropped. Any code can revert with the marker: only the caller
    knows whether an exit routine reverted."""
    if not data or data[0] != GUARD_MARKER & ((1 << width) - 1):
        return None
    end = min(2 + 4 * data[1], len(data) - 3) if len(data) > 1 else 0
    return [RawAlarm(*data[base:base + 4]) for base in range(2, end, 4)]


def seq_backedge(
    chk_fid: int, num_paths: int, exit_val: int, reset_val: int, lay: Layout
) -> Asm:
    """Backedge stub: close the current acyclic path, reset, continue."""
    a = Asm()
    if exit_val:
        a.epp_add(lay, exit_val)
    a.extend(seq_check_fragment(chk_fid, lay, num_paths))
    a.epp_set(lay, reset_val)
    return a


def seq_arith_check(op: Op, vt_val: int, lay: Layout) -> tuple[Asm, Asm]:
    """Pre/post fragments realizing the wraparound virtual branch.

    pre runs just before the arithmetic op ([a, b] on the stack, b on top)
    and saves the operands the test needs under them; post runs right after
    it, consumes them and leaves [r]. Both arms fall through to the same
    continuation.
    """
    pre = Asm()
    post = Asm()
    skip = Asm.fresh("novf")
    if op is Op.MUL:
        # no overflow iff a = 0 or r / a = b
        pre.emit(Op.DUP, 2).emit(Op.DUP, 2)  # [a, b, a, b]
        post.emit(Op.SWAP, 2).emit(Op.SWAP, 1)  # [r, a, b]
        post.emit(Op.DUP, 3).emit(Op.DUP, 3).emit(Op.DIV)  # [r, a, b, r / a] (0 when a=0)
        post.emit(Op.EQ).emit(Op.SWAP, 1).emit(Op.ISZERO).emit(Op.OR)
        post.jumpi(skip)
    else:
        pre.emit(Op.DUP, 2)  # [a, b, a]
        if op is Op.SUB:
            pre.emit(Op.SWAP, 1)  # [a, a, b]
        post.emit(Op.SWAP, 1).emit(Op.DUP, 2)  # [r, a, r]
        # ADD overflows iff r < a; SUB underflows iff a < b iff r > a
        post.emit(Op.GT if op is Op.ADD else Op.LT).emit(Op.ISZERO)
        post.jumpi(skip)
    post.epp_add(lay, vt_val)
    post.mark(skip)
    return pre, post


def seq_call_result(vt_val: int, lay: Layout) -> Asm:
    """Virtual branch on an external call's success flag (zero means failed)."""
    a = Asm()
    skip = Asm.fresh("callok")
    a.emit(Op.DUP, 1)
    a.jumpi(skip)
    if vt_val:
        a.epp_add(lay, vt_val)
    a.mark(skip)
    return a


def seq_protected_call_pre(op: Op, site_gid: int, config: Config) -> Asm:
    """Rebuild the arg block with the [MARKER, ctx, site] calldata prefix.

    Runs immediately before ``op`` with the stack at [args..., nargs,
    selector, addr] for DELEGATECALL and [args..., nargs, selector, value,
    addr] for CALL; stashes the head words, injects the prefix, and restores
    the head with nargs + 3.
    """
    lay = Layout(config.width)
    if op is Op.CALL:
        head = [lay.tmp_addr, lay.tmp_val, lay.tmp_sel, lay.tmp_n]
    else:
        head = [lay.tmp_addr, lay.tmp_sel, lay.tmp_n]
    a = Asm()
    for addr in head:
        a.mstore(addr)
    a.push(site_gid)
    a.mload(lay.ctx)
    a.push(CALL_MARKER & config.mask)
    a.mload(lay.tmp_n).push(MARKER_WORDS).emit(Op.ADD)
    for addr in reversed(head[:-1]):
        a.mload(addr)
    return a


def seq_protected_call_post(config: Config, shims: bool) -> Asm:
    """Merge the callee's anomaly flag from the return-data prefix.

    A call that failed, or returned no [MARKER, flag] prefix, left raw
    return data. With ``shims`` (the contract reads return data), the
    prefix length is recorded in ``Layout.retoff`` for the return-data shims.
    """
    lay = Layout(config.width)
    a = Asm()
    skip = Asm.fresh("nomerge")
    if shims:
        a.mstore_const(lay.retoff, 0)
    a.emit(Op.DUP, 1).emit(Op.ISZERO)
    a.jumpi(skip)
    a.emit(Op.RETURNDATASIZE).push(RET_PREFIX_WORDS).emit(Op.LT)
    a.jumpi(skip)
    a.push(0).emit(Op.RETURNDATALOAD).push(CALL_MARKER & config.mask)
    a.emit(Op.EQ).emit(Op.ISZERO)
    a.jumpi(skip)
    a.push(1).emit(Op.RETURNDATALOAD)
    a.mload(lay.flag).emit(Op.OR).mstore(lay.flag)
    if shims:
        a.mstore_const(lay.retoff, RET_PREFIX_WORDS)
    a.mark(skip)
    return a


def seq_unprotected_call_pre(lay: Layout) -> Asm:
    """Keep ctx (encoded, nonzero) in the ctx slot across a call leaving the
    boundary, saving the slot's previous content."""
    a = Asm()
    a.push(CTX_SLOT).emit(Op.TLOAD).mstore(lay.tmp_slot)
    a.mload(lay.ctx).push(1).emit(Op.ADD)
    a.push(CTX_SLOT).emit(Op.TSTORE)
    return a


def seq_unprotected_call_post(config: Config, shims: bool) -> Asm:
    """Pick up a poison signal from a reentrant frame, then restore the slot.
    With ``shims``, record that the return data has no prefix."""
    lay = Layout(config.width)
    a = Asm()
    if shims:
        a.mstore_const(lay.retoff, 0)
    skip = Asm.fresh("nopoison")
    a.push(CTX_SLOT).emit(Op.TLOAD).push(SLOT_POISON & config.mask)
    a.emit(Op.EQ).emit(Op.ISZERO)
    a.jumpi(skip)
    a.mstore_const(lay.flag, 1)
    a.mark(skip)
    a.mload(lay.tmp_slot).push(CTX_SLOT).emit(Op.TSTORE)
    return a


def seq_icall_pre(val: int, surrogate: bool, config: Config) -> Asm:
    """Context and depth bookkeeping before an internal call: ctx += val
    on a call edge, or saved and replaced by val through a surrogate."""
    lay = Layout(config.width)
    a = Asm()
    if surrogate:
        a.mload(lay.ctx)
        a.mload(lay.depth).push(lay.ctxsave_base).emit(Op.ADD)
        a.emit(Op.MSTORE)
        a.mstore_const(lay.ctx, val & config.mask)
    elif val:
        a.add_mem(lay.ctx, val & config.mask)
    return a.add_mem(lay.depth, 1)


def seq_icall_post(val: int, surrogate: bool, config: Config) -> Asm:
    """Undo ``seq_icall_pre`` after the call returns."""
    lay = Layout(config.width)
    a = Asm()
    a.mload(lay.depth).push(1).emit(Op.SUB).mstore(lay.depth)
    if surrogate:
        a.mload(lay.depth).push(lay.ctxsave_base).emit(Op.ADD).emit(Op.MLOAD)
        a.mstore(lay.ctx)
    elif val:
        a.add_mem(lay.ctx, (-val) & config.mask)
    return a


def seq_admin_body(config: Config) -> Asm:
    """Administration entry: append (slot, value) pairs, caller-gated.

    Calldata: [n, slot1, value1, ..., slotN, valueN], built by
    ``admin_calldata``.
    """
    lay = Layout(config.width)
    a = Asm()
    ok = Asm.fresh("adm_ok")
    loop = Asm.fresh("adm_loop")
    done = Asm.fresh("adm_done")
    a.emit(Op.CALLER).push(config.admin).emit(Op.EQ)
    a.jumpi(ok)
    a.push(0).emit(Op.REVERT)
    a.mark(ok)
    a.push(0).emit(Op.CALLDATALOAD).mstore(lay.tmp_x)  # remaining
    a.mstore_const(lay.tmp_y, 1)  # cursor
    a.mark(loop)
    a.mload(lay.tmp_x).emit(Op.ISZERO)
    a.jumpi(done)
    a.mload(lay.tmp_y).push(1).emit(Op.ADD).emit(Op.CALLDATALOAD)  # value
    a.mload(lay.tmp_y).emit(Op.CALLDATALOAD)  # slot
    a.emit(Op.SSTORE)
    a.mload(lay.tmp_y).push(2).emit(Op.ADD).mstore(lay.tmp_y)
    a.mload(lay.tmp_x).push(1).emit(Op.SUB).mstore(lay.tmp_x)
    a.jump(loop)
    a.mark(done)
    a.emit(Op.STOP)
    return a


def admin_calldata(pairs: list[tuple[int, int]], config: Config) -> list[int]:
    """Admin-call payload appending (fid, key) safe pairs to the dynamic mapping."""
    words = [len(pairs)]
    for fid, key in pairs:
        words += [mapping_slot(fid, key, config), mapping_value(key, config.width)]
    return words


# -- layout --------------------------------------------------------------------

# The instruction each label item stands for; labels become JUMPDESTs.
_LABEL_OPS = {"mark": Op.JUMPDEST, "jump": Op.JUMP, "jumpi": Op.JUMPI}


def orig_label(offset: int) -> tuple:
    """Label of an instruction of the code being rewritten, by old offset."""
    return ("orig", offset)


def relocatable(instr: Instruction) -> tuple:
    """Item for an instruction of the code being rewritten: a jump's target
    becomes ``orig_label(target)``, so the layout can move it."""
    if instr.op is Op.JUMP:
        return ("jump", orig_label(instr.imm))
    if instr.op is Op.JUMPI:
        return ("jumpi", orig_label(instr.imm))
    return ("i", instr)


def label_offsets(items: list[tuple], base: int = 0) -> dict:
    """Offset of every label marked in an item list laid out from ``base``."""
    return {item[1]: base + pos for pos, item in enumerate(items) if item[0] == "mark"}


def resolve(item: tuple, labels: dict) -> Instruction:
    """The instruction an item stands for, jump targets looked up in ``labels``."""
    kind, arg = item
    if kind == "i":
        return arg
    op = _LABEL_OPS[kind]
    return Instruction(op) if op is Op.JUMPDEST else Instruction(op, labels[arg])


def flatten(items: list[tuple], base: int) -> list[Instruction]:
    """Lay out an item list at a base instruction offset, resolving labels."""
    labels = label_offsets(items, base)
    return [resolve(item, labels) for item in items]


def seq_gas(items: list[tuple], config: Config) -> int:
    """Static gas of an item list assuming every instruction executes once.

    Prices come from the VM's table; SSTORE, priced there by its operands,
    counts as an update of a nonzero slot.
    """
    prices = list(price_table(config.gas))
    prices[Op.SSTORE.code] = config.gas.sstore_update
    return sum(
        prices[(item[1].op if item[0] == "i" else _LABEL_OPS[item[0]]).code]
        for item in items
    )


def _taken_path(items: list[tuple], branch: int) -> list[tuple]:
    """Items run when the branch at ``branch`` is the first one taken: up to
    it, then from its target."""
    return items[: branch + 1] + items[label_offsets(items)[items[branch][1]]:]


def check_gas(strategy: str, n: int, config: Config) -> int:
    """Analytic per-check gas of the generated membership code.

    With an embedded set this is the most a member pays: a hit on the last
    branch (a list's last entry, the table's one probe), then the found arm.
    With none (the mapping, an empty list) every check is the checker's
    call into the shared miss routine plus that routine's accept path.
    """
    if strategy == STRATEGY_LIST:
        spec = build_list(range(n))
    elif strategy == STRATEGY_MPHT:
        spec = build_mpht(range(max(1, n)), config.mpht_lambda, width=config.width)
    elif strategy == STRATEGY_MAPPING:
        spec = ListSpec([])
    else:
        raise ValueError(strategy)
    items = seq_checker(spec, 0, 0, 0, config).items
    branches = [pos for pos, item in enumerate(items) if item[0] == "jumpi"]
    if branches:
        return seq_gas(_taken_path(items, branches[-1]), config)
    miss = seq_miss(0, config).items
    accept = next(pos for pos, item in enumerate(miss) if item[0] == "jumpi")
    return seq_gas(items + _taken_path(miss, accept), config)
