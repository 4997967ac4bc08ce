"""Generated guard runtime: reserved layout, wire protocol, instruction sequences.

Everything the instrumented code computes at runtime is defined here
exactly once, as both a Python function (used by the trace oracle and the
alarm decoder) and an emitted instruction sequence (used by the rewriter),
each next to the other: the combined word (``combined_word``,
``seq_check_fragment``), the context bands of an external entry
(``entry_ctx``; the contract's ``seq_enter_routine``, which each external
function's ``seq_entry`` calls), the context across an internal call
(``icall_ctx``/``iret_ctx``, ``seq_icall_pre``/``seq_icall_post``), the
context a protected call sends, its call edge applied at the call site as
an internal call does (``marker_ctx``, ``seq_protected_call_pre``) and the
ctx slot (``slot_encode``, ``seq_unprotected_call_pre``). Hashes and
membership mirror ``pathset``. Cross-validation tests run the emitted
sequences in the VM against the Python versions.

Sequences are ``Asm`` item lists. Only this module reads items: ``resolve``
turns one into an instruction at layout and ``seq_gas`` prices them.
"""

from __future__ import annotations

from itertools import count
from typing import NamedTuple

from .config import Config, INTERNAL_DEPTH_LIMIT
from .isa import Instruction, Op
from .pathset import (
    MAPPING_TAG,
    DirectSpec,
    ListSpec,
    Spec,
    disp_bits,
    mapping_fn_seed,
    mapping_slot,
    mapping_value,
    field_bits,
    mix_constant,
    mpht_position,
)
from .program import FUNCTION_ENTRY_BYTES
from .vm import price_table

# Protocol words, each masked to the word width where it is used. Calldata
# and code are public, so none of them is a secret.
CALL_MARKER = 0xC0DE_CA11_C0DE_CA11  # heads calls and returns between protected contracts
GUARD_MARKER = 0xA1A7_A1A7_A1A7_A1A7  # heads a guard-revert payload
SLOT_POISON = 0xFFFF_FFFF_FFFF_FFFF  # ctx slot: "anomaly seen in a reentrant frame"
# Combined word of a guard-revert entry whose flag came from a protected
# callee reached by CALL: the callee's own entries stayed in its account.
CALLEE_ALARM = 0xFFFF_FFFF_FFFF_FFFF
ALARM_BUFFER_CAP = 8  # alarm entries a contract keeps per transaction

# Calldata prefix sent between protected contracts: [MARKER, callee's ctx].
MARKER_WORDS = 2
# Return-data prefix sent back to protected callers: [MARKER, flag].
RET_PREFIX_WORDS = 2

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
    """Reserved memory words, the top 8 + 2 * INTERNAL_DEPTH_LIMIT (136)
    words of the address space: seven fixed words, then the path
    accumulators and the saved contexts. The entry routine writes cdoff,
    the one record of a marker entry, and the reentry bit, the one record
    of a reentrant entry; a frame's memory starts zeroed, so both read 0
    in any other frame. Guard sequences keep every other working word on
    the operand stack."""

    def __init__(self, width: int):
        top = 1 << width
        self.width = width
        self.ctx = top - 1
        self.flag = top - 2
        self.cdoff = top - 3  # calldata prefix words: MARKER_WORDS on a marker entry, else 0
        self.reentrant = top - 4  # 1 on a reentrant entry, else 0
        self.depth = top - 5
        self.retoff = top - 6  # return-data prefix words of the frame's last external call
        self.tmp_slot = top - 7  # the ctx slot's word from before an unprotected call
        # path accumulators, one per internal depth 0 .. INTERNAL_DEPTH_LIMIT
        self.epp_base = self.tmp_slot - 1 - INTERNAL_DEPTH_LIMIT
        self.ctxsave_base = self.epp_base - INTERNAL_DEPTH_LIMIT
        self.reserved_low = self.ctxsave_base
        self.reserved_range = (self.reserved_low, top)


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


def seq_checker(spec: Spec, fid: int, miss_fid: int, pool_base: int, config: Config) -> Asm:
    """Body of function ``fid``'s checker: consumes [combined], IRETs [].

    Embedded structure only: a hit returns at once, so trained paths pay no
    storage read. An embedded miss hands [combined, fid, fn_seed] to the
    contract's shared miss routine, which accepts the pair or raises the
    alarm. Pool entries store key+1: zero-padded pool reads can never match
    a real key. Working words stay on the stack.

    A list compares combined+1 with its entries in key order and returns
    at the first match, so a hit on entry i costs i entry steps. A table
    probes one slot: bucket g % m gives the packed displacements, and the
    slot (f1 + d0*f2 + d1) % r holds key+1 (pathset.mpht_position). A
    direct table tests combined < r and reads pool word base + combined;
    both must hold, so a word past the table, which may wrap onto another
    function's pool, never hits.
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
    elif isinstance(spec, DirectSpec):
        a.emit(Op.DUP, 1).push(spec.r).emit(Op.LT)  # [c, c < r]
        a.emit(Op.DUP, 2).push(pool_base).emit(Op.ADD).emit(Op.CODELOAD)
        a.emit(Op.DUP, 3).push(1).emit(Op.ADD).emit(Op.EQ)  # [c, c < r, word == c+1]
        a.emit(Op.AND)
        a.jumpi(found)
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

    Accepts the pair when the dynamic mapping holds it: SLOAD(mapping_slot)
    is nonzero and equals combined + 1. An empty slot reads 0, which is
    combined + 1 for the all-ones word, so that word always alarms; approval
    cannot record it either (``mapping_value`` is 0). Otherwise the routine
    sets the flag and appends (code id, fid, combined) to the transient
    alarm buffer while it holds fewer than ``ALARM_BUFFER_CAP`` entries.
    """
    lay = Layout(config.width)
    a = Asm()
    full = Asm.fresh("missfull")
    done = Asm.fresh("missdone")
    a.emit(Op.DUP, 3).emit(Op.XOR).push(mix_constant(config.width)).emit(Op.MUL)
    a.push(MAPPING_TAG & config.mask).emit(Op.XOR)
    a.emit(Op.SLOAD)  # [c, fid, stored]
    a.emit(Op.DUP, 1).emit(Op.DUP, 4).push(1).emit(Op.ADD).emit(Op.EQ)
    a.emit(Op.MUL)  # stored if stored == c + 1, else 0
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


def checker_pool(spec: Spec, width: int) -> list[int]:
    """Constant-pool words backing a checker: entries stored as key+1, an
    empty table slot or a direct table's unsafe id as 0.

    key+1 wraps to 0 at combined = 2**width - 1, which then probes for 0,
    as the checker's own ADD does. An empty slot that this combined lands on
    holds x+1 instead, for some x that lands elsewhere: no combined that
    probes the slot matches.
    """
    mask = (1 << width) - 1
    if isinstance(spec, ListSpec):
        return [(k + 1) & mask for k in spec.keys]
    if isinstance(spec, DirectSpec):
        words = [0] * spec.r
        for k in spec.keys:
            words[k] = k + 1
        return words
    s = disp_bits(width)
    packed = [(d0 << s) | d1 for d0, d1 in spec.displacements]
    slots = [0 if k is None else (k + 1) & mask for k in spec.slots]
    top = mpht_position(spec, mask, width)
    if spec.slots[top] is None:
        slots[top] = next(x + 1 for x in count() if mpht_position(spec, x, width) != top)
    return packed + slots


# -- per-point sequences ---------------------------------------------------------


class SlowPaths(NamedTuple):
    """Function ids of a contract's shared routines: the slow paths, reached
    only on a marker exit, a flagged exit or a check miss, and the caller
    classification of every external entry."""

    exit: int
    miss: int
    enter: int


def combined_word(ctx: int, num_paths: int, epp: int, width: int) -> int:
    """The word a path check hands to the checker: one integer for the
    (context, acyclic path) pair, ctx * NumPaths + epp in the word."""
    return (ctx * num_paths + epp) & ((1 << width) - 1)


def split_index(combined: int, num_paths: int) -> tuple[int, int]:
    """(ctx, epp) of a combined word that did not wrap."""
    return divmod(combined, num_paths)


def seq_check_fragment(chk_fid: int, lay: Layout, num_paths: int) -> Asm:
    """Compute combined (``combined_word``) and hand it to the function's
    checker. The VM traces the checker call, with combined on top of the
    stack, as the check's PathChecked event."""
    a = Asm()
    a.mload(lay.ctx).push(num_paths).emit(Op.MUL)
    a.epp_addr(lay).emit(Op.MLOAD).emit(Op.ADD)  # [combined]
    return a.emit(Op.ICALL, chk_fid)


# Context bands of an external entry, for a function with N = NumCCs
# contexts. A call from the origin takes 0, the value of the function's
# first in-edge; a markerless call from some contract takes N. A self-reentry
# through an unprotected contract adds 2N to the outer frame's ctx, so every
# reentry depth stays disjoint from the trained range [0, N) and the foreign
# band [N, 2N): that disjointness is what tells reentrant flows from trained
# ones.


def entry_ctx(
    num_ccs: int, width: int, marker: int | None, slot: int, direct: bool
) -> int:
    """The ctx an external entry at depth 0 takes: ``seq_enter_routine``'s.

    ``marker`` is the ctx word a marker prefix carries, or None; ``slot`` is
    the ctx slot's content and ``direct`` whether CALLER is ORIGIN. A marker
    entry takes the word as it arrives: the caller already applied the call
    edge (``marker_ctx``). A reentrant one decodes the slot (-1, see
    ``slot_encode``) and shifts it by 2N.
    """
    if marker is not None:
        return marker
    if slot:
        return (slot + 2 * num_ccs - 1) & ((1 << width) - 1)
    return 0 if direct else num_ccs & ((1 << width) - 1)


def band_split(ctx: int, num_ccs: int) -> tuple[int, bool, int]:
    """Inverse of the entry bands: (reentry depth, entered from an
    unprotected contract, context id within [0, N))."""
    depth, rest = divmod(ctx, 2 * num_ccs)
    foreign, base = divmod(rest, num_ccs)
    return depth, bool(foreign), base


def seq_enter_routine(config: Config) -> Asm:
    """Shared entry routine: consumes [N], IRETs []; sets ctx (``entry_ctx``)
    for a function with N = NumCCs contexts. A marker entry takes the
    prefix's ctx word as it arrives and sets cdoff, its one record; a set
    ctx slot means reentry through an unprotected call and sets the
    reentry bit; the rest take the band N * (CALLER != ORIGIN) without a
    branch.
    """
    lay = Layout(config.width)
    a = Asm()
    l_mark, l_reentrant = Asm.fresh("mark"), Asm.fresh("reentrant")
    a.emit(Op.CALLDATASIZE).push(MARKER_WORDS).emit(Op.LT).emit(Op.ISZERO)
    a.push(0).emit(Op.CALLDATALOAD).push(CALL_MARKER & config.mask).emit(Op.EQ)
    a.emit(Op.AND).jumpi(l_mark)
    a.push(CTX_SLOT).emit(Op.TLOAD).emit(Op.DUP, 1)  # [N, slot, slot]
    a.jumpi(l_reentrant)
    a.emit(Op.POP).emit(Op.CALLER).emit(Op.ORIGIN).emit(Op.EQ).emit(Op.ISZERO)
    a.emit(Op.MUL).mstore(lay.ctx).emit(Op.IRET)
    a.mark(l_reentrant)  # slot + 2N - 1
    a.emit(Op.DUP, 2).emit(Op.ADD).emit(Op.ADD).push(1).emit(Op.SUB).mstore(lay.ctx)
    a.mstore_const(lay.reentrant, 1).emit(Op.IRET)
    a.mark(l_mark)
    a.emit(Op.POP).push(1).emit(Op.CALLDATALOAD).mstore(lay.ctx)
    return a.mstore_const(lay.cdoff, MARKER_WORDS).emit(Op.IRET)


def seq_entry(
    num_ccs: int, entry_epp: int, enter_fid: int, config: Config, icall_target: bool = False
) -> Asm:
    """External-function wrapper entry: ICALL the shared entry routine, then
    store the entry value.

    An ``icall_target``, which some ICALL enters too, skips the routine
    below depth 0, keeping the ctx the caller's ICALL set, and always stores
    its entry value.
    """
    lay = Layout(config.width)
    a = Asm()
    l_done = Asm.fresh("entry_done")
    if icall_target:
        a.mload(lay.depth).jumpi(l_done)
    a.push(num_ccs & config.mask).emit(Op.ICALL, enter_fid)
    if icall_target:
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
    flag | cdoff once: a clean frame not entered by marker returns as it
    is. A marker frame or a flagged one pushes fid and ICALLs the
    contract's shared exit routine, which guard-reverts or prepares the
    return; the stub's last RETURN then returns what the routine left.
    """
    a = Asm()
    a.extend(seq_check_fragment(chk_fid, lay, num_paths))
    l_slow = Asm.fresh("xslow")
    a.mload(lay.flag).mload(lay.cdoff).emit(Op.OR)
    a.jumpi(l_slow)
    a.emit(Op.RETURN)
    a.mark(l_slow)
    return a.push(fid).emit(Op.ICALL, exit_fid).emit(Op.RETURN)


def seq_exit_routine(code_id: int, config: Config) -> Asm:
    """Shared exit routine: consumes [vals..., n, fid], IRETs the stack the
    stub's RETURN returns.

    Reached by every marker exit and every flagged one: a frame with cdoff
    0 comes here only flagged. Marker and reentrant entries leave their
    alarm entries in the transient buffer, where a frame of the same
    account reads them: a marker entry (cdoff set) returns its values under
    the [MARKER, flag] prefix, and a reentrant one (the reentry bit set)
    poisons the ctx slot so the outer frame of the same contract reverts
    the whole transaction. Any other entry guard-reverts
    (``_guard_revert``). The marker test comes first: marker exits are the
    routine's common case.
    """
    lay = Layout(config.width)
    a = Asm()
    l_marker = Asm.fresh("xmark")
    l_reentrant = Asm.fresh("xreent")
    a.mload(lay.cdoff)
    a.jumpi(l_marker)
    a.mload(lay.reentrant)
    a.jumpi(l_reentrant)
    a.extend(_guard_revert(code_id, config))
    a.mark(l_reentrant)
    a.emit(Op.POP)  # fid: only a guard revert reports it
    a.push(SLOT_POISON & config.mask).push(CTX_SLOT).emit(Op.TSTORE)
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
    stayed in its own account's buffer; that is reported as the pair of fid
    with the ``CALLEE_ALARM`` word.

    The loop pushes the entries last first. Its one working word, q = 3 *
    (entries left), stays on top: entry j = q / 3 - 1 holds word w at
    ALARM_ENTRY_SLOT + 3j + w = q + ALARM_ENTRY_SLOT - 3 + w.
    """
    a = Asm()
    guard_marker = GUARD_MARKER & config.mask
    loop = Asm.fresh("rev")

    def entry_word(w: int, depth: int) -> None:
        """Push word w of the entry below q, q being ``depth`` deep."""
        a.emit(Op.DUP, depth)
        off = ALARM_ENTRY_SLOT - 3 + w
        if off:
            a.push(abs(off)).emit(Op.ADD if off > 0 else Op.SUB)
        a.emit(Op.TLOAD)

    a.push(ALARM_CNT_SLOT).emit(Op.TLOAD).push(3).emit(Op.MUL)  # [fid, q]
    a.emit(Op.DUP, 1)
    a.jumpi(loop)
    a.emit(Op.POP)
    a.push(CALLEE_ALARM & config.mask).emit(Op.SWAP, 1).push(code_id).emit(Op.ADDRESS)
    a.push(1)
    a.push(guard_marker)
    a.push(6)
    a.emit(Op.REVERT)
    a.mark(loop)  # [fid, entries after j..., q]
    entry_word(1, 1)  # [q, fid]
    entry_word(0, 2)  # [q, fid, code id]
    a.emit(Op.ADDRESS)
    entry_word(2, 4)  # [q, fid, code id, addr, combined]
    a.emit(Op.SWAP, 4)  # [combined, fid, code id, addr, q]
    a.push(3).emit(Op.SUB)
    a.emit(Op.DUP, 1)
    a.jumpi(loop)
    a.emit(Op.POP)  # [fid, entries...]
    a.push(ALARM_CNT_SLOT).emit(Op.TLOAD)
    a.push(guard_marker)
    a.emit(Op.DUP, 2).push(4).emit(Op.MUL).push(2).emit(Op.ADD)
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


class SiteTable(NamedTuple):
    """The call edges of a protected call site, by the call's selector word:
    ``cases`` maps a selector to its callee's (edge value, via surrogate)
    where that row differs from ``default``, the row every other selector
    takes."""

    default: tuple[int, bool]
    cases: dict[int, tuple[int, bool]]


def marker_ctx(ctx: int, selector: int, table: SiteTable, width: int) -> int:
    """The ctx a protected call sends its callee (``seq_protected_call_pre``):
    ``icall_ctx`` through the row that the call's selector word picks."""
    return icall_ctx(ctx, *table.cases.get(selector, table.default), width)


def seq_protected_call_pre(op: Op, table: SiteTable, config: Config) -> Asm:
    """Rebuild the arg block with the [MARKER, ctx] calldata prefix.

    Runs immediately before ``op`` with the stack at [args..., nargs,
    selector, addr] for DELEGATECALL and [args..., nargs, selector, value,
    addr] for CALL, and leaves [args..., ctx, MARKER, nargs + 2, ...] with
    the head words as they were; ctx is ``marker_ctx`` of the frame's ctx
    and the selector word, computed with the selector on top.
    """
    lay = Layout(config.width)
    marker = CALL_MARKER & config.mask
    a = Asm().emit(Op.SWAP, 2)
    if op is Op.CALL:  # [n, addr, val, sel]
        _site_ctx(a, table, lay, config).emit(Op.SWAP, 4)  # [ctx, addr, val, sel, n]
        a.push(MARKER_WORDS).emit(Op.ADD).emit(Op.SWAP, 2)  # [ctx, addr, n + 2, sel, val]
        return a.push(marker).emit(Op.SWAP, 4)
    # [addr, sel, n]
    a.push(MARKER_WORDS).emit(Op.ADD).push(marker).emit(Op.SWAP, 2)  # [addr, MARKER, n + 2, sel]
    return _site_ctx(a, table, lay, config).emit(Op.SWAP, 4)


def _site_ctx(a: Asm, table: SiteTable, lay: Layout, config: Config) -> Asm:
    """Push ``marker_ctx`` of the frame's ctx, the selector word on top."""

    def arm(row: tuple[int, bool]) -> Asm:  # icall_ctx through the edge ``row``
        val, surrogate = row[0] & config.mask, row[1]
        if surrogate:
            return a.push(val)
        a.mload(lay.ctx)
        return a.push(val).emit(Op.ADD) if val else a

    cases = [(Asm.fresh("case"), row) for row in table.cases.values()]
    for sel, (label, _row) in zip(table.cases, cases):
        a.emit(Op.DUP, 1).push(sel).emit(Op.EQ).jumpi(label)
    done = Asm.fresh("site_done")
    arm(table.default)
    for label, row in cases:
        a.jump(done).mark(label)
        arm(row)
    return a.mark(done) if cases else a


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


def slot_encode(ctx: int, width: int) -> int:
    """Ctx-slot content while an unprotected call is in flight (nonzero)."""
    return (ctx + 1) & ((1 << width) - 1)


def seq_unprotected_call_pre(lay: Layout) -> Asm:
    """Keep ctx, encoded (``slot_encode``), in the ctx slot across a call
    leaving the boundary, saving the slot's previous content."""
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


def icall_ctx(ctx: int, val: int, surrogate: bool, width: int) -> int:
    """The callee's ctx through a call edge of value ``val``: the running
    sum, or ``val`` alone through a surrogate."""
    return (val if surrogate else ctx + val) & ((1 << width) - 1)


def iret_ctx(ctx: int, saved: int, val: int, surrogate: bool, width: int) -> int:
    """The caller's ctx back from that call: the sum's delta undone, or the
    ``saved`` ctx the surrogate replaced."""
    return saved if surrogate else (ctx - val) & ((1 << width) - 1)


def seq_icall_pre(val: int, surrogate: bool, config: Config) -> Asm:
    """Context and depth bookkeeping before an internal call (``icall_ctx``):
    ctx += val on a call edge, or saved and replaced by val through a
    surrogate."""
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
    """Undo ``seq_icall_pre`` after the call returns (``iret_ctx``)."""
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
    ``admin_calldata``. The loop keeps [pairs left, cursor] on the stack.
    """
    a = Asm()
    ok = Asm.fresh("adm_ok")
    loop = Asm.fresh("adm_loop")
    done = Asm.fresh("adm_done")
    a.emit(Op.CALLER).push(config.admin).emit(Op.EQ)
    a.jumpi(ok)
    a.push(0).emit(Op.REVERT)
    a.mark(ok)
    a.push(0).emit(Op.CALLDATALOAD).push(1)  # [left, cursor]
    a.mark(loop)
    a.emit(Op.DUP, 2).emit(Op.ISZERO)
    a.jumpi(done)
    a.emit(Op.DUP, 1).push(1).emit(Op.ADD).emit(Op.CALLDATALOAD)  # value
    a.emit(Op.DUP, 2).emit(Op.CALLDATALOAD)  # slot
    a.emit(Op.SSTORE)
    a.push(2).emit(Op.ADD)
    a.emit(Op.SWAP, 1).push(1).emit(Op.SUB).emit(Op.SWAP, 1)
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


def check_gas(spec: Spec, config: Config) -> int:
    """Analytic per-check gas of the checker of an embedded set.

    With a nonempty set this is the most a member pays: a hit on the last
    branch (a list's last entry, a table's one probe), then the found arm.
    With none (the mapping's empty list) every check is the checker's call
    into the shared miss routine plus that routine's accept path.
    """
    return checker_cost(spec, config)[1]


def checker_cost(spec: Spec, config: Config) -> tuple[int, int]:
    """Deployed bytes and ``check_gas`` of an embedded set. The bytes are
    its checker function's, with the function-table entry, and its blob's."""
    items = seq_checker(spec, 0, 0, 0, config).items
    code = sum(i.size(config.word_bytes) for i in flatten(items, base=0))
    deployed = code + FUNCTION_ENTRY_BYTES + spec.blob_bytes
    branches = [pos for pos, item in enumerate(items) if item[0] == "jumpi"]
    if branches:
        return deployed, seq_gas(_taken_path(items, branches[-1]), config)
    miss = seq_miss(0, config).items
    accept = next(pos for pos, item in enumerate(miss) if item[0] == "jumpi")
    return deployed, seq_gas(items + _taken_path(miss, accept), config)
