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

from dataclasses import dataclass

from .config import Config, INTERNAL_DEPTH_LIMIT
from .isa import Instruction, Op
from .pathset import (
    STRATEGY_LIST,
    STRATEGY_MAPPING,
    STRATEGY_MPHT,
    build_list,
    build_mpht,
    mapping_slot,
    mapping_value,
    mix,
    mix_constants,
    mix_shifts,
)
from .vm import price_table

# Calldata prefix sent between protected contracts: [MARKER, ctx_base, site].
MARKER_WORDS = 3
# Return-data prefix sent back to protected callers: [MARKER, flag].
RET_PREFIX_WORDS = 2

# Wrapper entry modes (reserved MODE word; memory zero-init means boundary).
MODE_BOUNDARY = 0
MODE_MARKER = 1
MODE_REENTRANT = 2

# Ctx-slot content when no unprotected call is in flight (kept nonzero so
# both slot writes around a call are updates, not fresh sets).
SLOT_EMPTY = 1


def relay_cnt_slot(config: Config) -> int:
    """Storage slot counting alarm entries relayed by flagged inner frames."""
    return config.mask - 1


def relay_entry_slot(config: Config, index: int, word: int) -> int:
    """Slot of one relayed alarm word; entries grow downward, 3 words each."""
    return config.mask - 2 - 3 * index - word


@dataclass(frozen=True)
class Layout:
    """Reserved memory words, the top 160 words of the address space."""

    width: int
    alarm_cap: int = 8

    def _top(self) -> int:
        return 1 << self.width

    @property
    def ctx(self) -> int:
        return self._top() - 1

    @property
    def flag(self) -> int:
        return self._top() - 2

    @property
    def cdoff(self) -> int:
        return self._top() - 3

    @property
    def mode(self) -> int:
        return self._top() - 4

    @property
    def depth(self) -> int:
        return self._top() - 5

    @property
    def tmp_a(self) -> int:
        return self._top() - 6

    @property
    def tmp_n(self) -> int:
        return self._top() - 7

    @property
    def tmp_sel(self) -> int:
        return self._top() - 8

    @property
    def tmp_val(self) -> int:
        return self._top() - 9

    @property
    def tmp_addr(self) -> int:
        return self._top() - 10

    @property
    def tmp_slot(self) -> int:
        return self._top() - 11

    @property
    def tmp_x(self) -> int:
        return self._top() - 12

    @property
    def tmp_y(self) -> int:
        return self._top() - 13

    @property
    def check_log(self) -> int:
        return self._top() - 14

    @property
    def acnt(self) -> int:
        return self._top() - 15

    @property
    def abuf(self) -> int:
        # (code id, function id, combined) per alarm entry
        return self._top() - 15 - 3 * self.alarm_cap

    @property
    def epp_base(self) -> int:
        return self.abuf - INTERNAL_DEPTH_LIMIT

    @property
    def ctxsave_base(self) -> int:
        return self.epp_base - INTERNAL_DEPTH_LIMIT

    @property
    def reserved_low(self) -> int:
        return self.ctxsave_base

    def reserved_range(self) -> tuple[int, int]:
        return self.reserved_low, self._top()


# -- protocol arithmetic (python side, mirrored by emitted code) --------------


def slot_encode(ctx: int, width: int) -> int:
    """Ctx-slot content while an unprotected call is in flight."""
    return (ctx + 2) & ((1 << width) - 1)


def slot_decode(stored: int, width: int) -> int:
    return (stored - 2) & ((1 << width) - 1)


def band_direct(sval: int) -> int:
    """Entry context: called straight from the transaction origin."""
    return sval


def band_foreign(num_ccs: int, sval: int) -> int:
    """Entry context: markerless call from some contract."""
    return num_ccs + sval


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

    def xor(self) -> "Asm":
        """x ^ y over the top two words: (x|y) - (x&y)."""
        self.emit(Op.DUP, 2).emit(Op.DUP, 2).emit(Op.AND)
        self.emit(Op.SWAP, 2).emit(Op.OR)
        return self.emit(Op.SWAP, 1).emit(Op.SUB)

    def mix_top(self, width: int) -> "Asm":
        """pathset.mix over the top word, bit-identical."""
        s1, s2, s3 = mix_shifts(width)
        c1, c2 = mix_constants(width)
        for shift, mult in ((s1, c1), (s2, c2)):
            self.emit(Op.DUP, 1).push(1 << shift).emit(Op.DIV)
            self.xor()
            self.push(mult).emit(Op.MUL)
        self.emit(Op.DUP, 1).push(1 << s3).emit(Op.DIV)
        return self.xor()

    def mod_const(self, modulus: int) -> "Asm":
        """x mod m for constant m over the top word."""
        if modulus & (modulus - 1) == 0:
            return self.push(modulus - 1).emit(Op.AND)
        self.emit(Op.DUP, 1).push(modulus).emit(Op.DIV)
        self.push(modulus).emit(Op.MUL)
        return self.emit(Op.SUB)


# -- membership checker --------------------------------------------------------


def seq_checker(
    strategy: str,
    spec,
    fn_seed: int,
    mapping_tag: int,
    pool_base: int,
    config: Config,
) -> Asm:
    """Body of a per-function checker: consumes [combined], IRETs [member].

    Embedded structure first; the dynamic mapping probe (one SLOAD) runs only
    on an embedded miss, so trained paths pay no storage read. Pool entries
    store key+1: zero-padded pool reads can never match a real key.
    """
    width = config.width
    lay = Layout(width)
    a = Asm()
    found = Asm.fresh("hit")
    out = Asm.fresh("out")

    a.mstore(lay.tmp_a)  # stash combined
    if strategy == STRATEGY_LIST and spec is not None and spec.entries:
        a.mload(lay.tmp_a).push(1).emit(Op.ADD).mstore(lay.tmp_x)
        a.mstore_const(lay.tmp_y, 0)
        for i in range(len(spec.entries)):
            a.push(pool_base + i).emit(Op.CODELOAD)
            a.mload(lay.tmp_x).emit(Op.EQ)
            a.mload(lay.tmp_y).emit(Op.OR)
            a.mstore(lay.tmp_y)
        a.mload(lay.tmp_y)
        a.jumpi(found)
    elif strategy == STRATEGY_MPHT:
        t = max(2, width // 3)
        tmask = (1 << t) - 1
        n, m = spec.n, spec.m
        a.mload(lay.tmp_a).push(spec.seed & config.mask)
        a.xor()
        a.mix_top(width)
        a.mstore(lay.tmp_x)  # h
        # displacement word for bucket g % m, g = h >> 2t
        if m == 1:
            a.push(pool_base).emit(Op.CODELOAD)
        else:
            a.mload(lay.tmp_x).push(1 << (2 * t)).emit(Op.DIV)
            a.mod_const(m)
            a.push(pool_base).emit(Op.ADD).emit(Op.CODELOAD)
        a.mstore(lay.tmp_y)  # packed (d0 << 16) | d1
        # position sum; fields fit W >= 32 without inner reduction
        inner = width < 32
        a.mload(lay.tmp_y).push(1 << 16).emit(Op.DIV)  # d0
        a.mload(lay.tmp_x).push(tmask).emit(Op.AND)  # f2
        if inner:
            a.mod_const(n)
        a.emit(Op.MUL)
        if inner:
            a.mod_const(n)
        a.mload(lay.tmp_x).push(1 << t).emit(Op.DIV).push(tmask).emit(Op.AND)  # f1
        if inner:
            a.mod_const(n)
        a.emit(Op.ADD)
        a.mload(lay.tmp_y).push((1 << 16) - 1).emit(Op.AND)  # d1
        a.emit(Op.ADD)
        a.mod_const(n)
        a.push(pool_base + m).emit(Op.ADD).emit(Op.CODELOAD)
        a.mload(lay.tmp_a).push(1).emit(Op.ADD).emit(Op.EQ)
        a.jumpi(found)
    # dynamic mapping probe: SLOAD(tag ^ mix(fn_seed ^ c)) == c + 1
    a.mload(lay.tmp_a).push(fn_seed)
    a.xor()
    a.mix_top(width)
    a.push(mapping_tag & config.mask)
    a.xor()
    a.emit(Op.SLOAD)
    a.mload(lay.tmp_a).push(1).emit(Op.ADD).emit(Op.EQ)
    a.jumpi(found)
    a.push(0)
    a.jump(out)
    a.mark(found)
    a.push(1)
    a.mark(out)
    a.emit(Op.IRET)
    return a


def checker_pool(strategy: str, spec) -> list[int]:
    """Constant-pool words backing a checker (entries stored as key+1)."""
    if strategy == STRATEGY_LIST:
        return [k + 1 for k in spec.entries] if spec else []
    if strategy == STRATEGY_MPHT:
        packed = [(d0 << 16) | d1 for d0, d1 in spec.displacements]
        return packed + [k + 1 for k in spec.slots]
    return []


# -- per-point sequences ---------------------------------------------------------


def seq_check_fragment(chk_fid: int, lay: Layout, num_paths: int, code_id: int, fid: int) -> Asm:
    """Compute combined, log it, test membership, set flag/alarm on a miss."""
    a = Asm()
    ok = Asm.fresh("ok")
    done = Asm.fresh("cont")
    a.mload(lay.ctx).push(num_paths).emit(Op.MUL)
    a.epp_addr(lay).emit(Op.MLOAD).emit(Op.ADD)  # [combined]
    a.emit(Op.DUP, 1).mstore(lay.check_log)
    a.emit(Op.DUP, 1)
    a.emit(Op.ICALL, chk_fid)  # [combined, member]
    a.jumpi(ok)
    # miss: append (code id, fid, combined) to the alarm buffer, set the flag
    full = Asm.fresh("full")
    a.mload(lay.acnt).push(lay.alarm_cap).emit(Op.LT).emit(Op.ISZERO)
    a.jumpi(full)
    a.mload(lay.acnt).push(3).emit(Op.MUL).push(lay.abuf).emit(Op.ADD)  # [c, base]
    a.emit(Op.DUP, 1).push(code_id).emit(Op.SWAP, 1).emit(Op.MSTORE)
    a.push(1).emit(Op.ADD)
    a.emit(Op.DUP, 1).push(fid).emit(Op.SWAP, 1).emit(Op.MSTORE)
    a.push(1).emit(Op.ADD)  # [c, base+2]
    a.emit(Op.DUP, 2).emit(Op.SWAP, 1).emit(Op.MSTORE)
    a.mload(lay.acnt).push(1).emit(Op.ADD).mstore(lay.acnt)
    a.mark(full)
    a.mstore_const(lay.flag, 1)
    a.emit(Op.POP)
    a.jump(done)
    a.mark(ok)
    a.emit(Op.POP)
    a.mark(done)
    return a


def seq_prologue(
    fid: int,
    num_ccs: int,
    sval: int,
    entry_epp: int,
    site_rows: list[tuple[int, int, bool]],
    ctx_slot: int,
    marker: int,
    config: Config,
) -> Asm:
    """External-function wrapper entry: classify the caller, set ctx/mode.

    site_rows: (site gid, edge value, via_surrogate) for every call edge that
    can reach this function with a marker.
    """
    width = config.width
    lay = Layout(width)
    a = Asm()
    l_mark = Asm.fresh("mark")
    l_fresh = Asm.fresh("fresh")
    l_direct = Asm.fresh("direct")
    l_done = Asm.fresh("entry_done")

    a.emit(Op.CALLDATASIZE).push(MARKER_WORDS).emit(Op.LT).emit(Op.ISZERO)
    a.push(0).emit(Op.CALLDATALOAD).push(marker & config.mask).emit(Op.EQ)
    a.emit(Op.AND)
    a.jumpi(l_mark)
    # markerless: inspect the persisted ctx slot
    a.push(ctx_slot).emit(Op.SLOAD)
    a.emit(Op.DUP, 1).push(SLOT_EMPTY).emit(Op.EQ)
    a.jumpi(l_fresh)
    # reentrant: ctx = (slot - 2) + 2 * NumCCs
    a.push(2).emit(Op.SUB)
    a.push((2 * num_ccs) & config.mask).emit(Op.ADD)
    a.mstore(lay.ctx)
    a.mstore_const(lay.mode, MODE_REENTRANT)
    a.jump(l_done)
    a.mark(l_fresh)
    a.emit(Op.POP)
    a.emit(Op.CALLER).emit(Op.ORIGIN).emit(Op.EQ)
    a.jumpi(l_direct)
    a.mstore_const(lay.ctx, band_foreign(num_ccs, sval) & config.mask)
    a.jump(l_done)
    a.mark(l_direct)
    if band_direct(sval):
        a.mstore_const(lay.ctx, band_direct(sval) & config.mask)
    a.jump(l_done)
    a.mark(l_mark)
    # marker entry: ctx = base + val(site -> this fn); surrogate rows replace
    a.push(2).emit(Op.CALLDATALOAD)  # [site]
    l_sum = Asm.fresh("sum")
    for gid, val, via_surrogate in site_rows:
        l_row = Asm.fresh("row")
        nxt = Asm.fresh("nxt")
        a.emit(Op.DUP, 1).push(gid).emit(Op.EQ)
        a.jumpi(l_row)
        a.jump(nxt)
        a.mark(l_row)
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
    if entry_epp:
        a.mstore_const(lay.epp_base, entry_epp)  # depth is 0 at external entry
    return a


def seq_internal_entry(entry_epp: int, lay: Layout) -> Asm:
    """Internal-function entry: reset the frame's path accumulator."""
    return Asm().epp_set(lay, entry_epp)


def seq_external_epilogue(
    code_id: int,
    fid: int,
    chk_fid: int,
    num_paths: int,
    ctx_slot: int,
    marker: int,
    guard_marker: int,
    poison: int,
    lay: Layout,
    config: Config,
) -> Asm:
    """Shared exit stub for an external function.

    Expects the stack shaped for RETURN ([values..., n]); exit sites jump
    here (STOP sites push 0 first). Runs the path-set check, then the mode
    dispatch: marker entries prefix return data with [MARKER, flag]; boundary
    entries guard-revert when flagged; reentrant boundary entries poison the
    ctx slot instead so the outer frame of the same contract reverts the
    whole transaction.
    """
    a = Asm()
    a.extend(seq_check_fragment(chk_fid, lay, num_paths, code_id, fid))
    l_marker = Asm.fresh("xmark")
    l_mflag = Asm.fresh("xmflag")
    l_reent = Asm.fresh("xreent")
    l_guard = Asm.fresh("xguard")
    l_poison = Asm.fresh("xpoison")
    rcnt = relay_cnt_slot(config)
    a.mload(lay.mode).push(MODE_MARKER).emit(Op.EQ)
    a.jumpi(l_marker)
    a.mload(lay.mode).push(MODE_REENTRANT).emit(Op.EQ)
    a.jumpi(l_reent)
    a.mload(lay.flag)
    a.jumpi(l_guard)
    a.emit(Op.RETURN)
    a.mark(l_marker)  # [vals..., n] -> [vals..., flag, MARKER, n+2]
    a.mload(lay.flag)
    a.jumpi(l_mflag)
    a.push(0).emit(Op.SWAP, 1)
    a.push(marker & config.mask).emit(Op.SWAP, 1)
    a.push(RET_PREFIX_WORDS).emit(Op.ADD)
    a.emit(Op.RETURN)
    a.mark(l_mflag)
    # hand local alarm entries to the boundary frame through the relay
    _emit_relay_append(a, lay, config)
    a.push(1).emit(Op.SWAP, 1)
    a.push(marker & config.mask).emit(Op.SWAP, 1)
    a.push(RET_PREFIX_WORDS).emit(Op.ADD)
    a.emit(Op.RETURN)
    a.mark(l_reent)
    a.mload(lay.flag)
    a.jumpi(l_poison)
    a.emit(Op.RETURN)
    a.mark(l_poison)
    _emit_relay_append(a, lay, config)
    a.push(poison).push(ctx_slot).emit(Op.SSTORE)
    a.emit(Op.RETURN)
    a.mark(l_guard)
    # build [GUARD_MARKER, count, (addr, code id, fid, combined) * count]
    # from the local buffer plus relayed entries; a flag with no entries at
    # all means an unreadable inner region, reported as a sentinel
    loop = Asm.fresh("rev")
    done = Asm.fresh("revdone")
    rloop = Asm.fresh("rrev")
    rdone = Asm.fresh("rrevdone")
    have = Asm.fresh("have")
    a.mload(lay.acnt)
    a.push(rcnt).emit(Op.SLOAD)
    a.emit(Op.OR)
    a.jumpi(have)
    a.push((1 << config.width) - 1).push(fid).push(code_id).emit(Op.ADDRESS)
    a.push(1)
    a.push(guard_marker & config.mask)
    a.push(6)
    a.emit(Op.REVERT)
    a.mark(have)
    a.mload(lay.acnt).mstore(lay.tmp_x)
    a.mark(loop)
    a.mload(lay.tmp_x).emit(Op.ISZERO)
    a.jumpi(done)
    a.mload(lay.tmp_x).push(1).emit(Op.SUB)
    a.emit(Op.DUP, 1).mstore(lay.tmp_x)
    a.push(3).emit(Op.MUL).push(lay.abuf).emit(Op.ADD)  # [entry base]
    a.emit(Op.DUP, 1).push(2).emit(Op.ADD).emit(Op.MLOAD)  # [base, combined]
    a.emit(Op.SWAP, 1)  # [combined, base]
    a.emit(Op.DUP, 1).push(1).emit(Op.ADD).emit(Op.MLOAD)  # [combined, base, fid]
    a.emit(Op.SWAP, 1).emit(Op.MLOAD)  # [combined, fid, code id]
    a.emit(Op.ADDRESS)  # [combined, fid, code id, addr]
    a.jump(loop)
    a.mark(done)
    a.push(rcnt).emit(Op.SLOAD).mstore(lay.tmp_y)  # relayed count
    a.mload(lay.tmp_y).mstore(lay.tmp_x)
    a.mark(rloop)
    a.mload(lay.tmp_x).emit(Op.ISZERO)
    a.jumpi(rdone)
    a.mload(lay.tmp_x).push(1).emit(Op.SUB).mstore(lay.tmp_x)
    for word in (2, 1, 0):  # combined, fid, code id
        a.push(relay_entry_slot(config, 0, word))
        a.mload(lay.tmp_x).push(3).emit(Op.MUL)
        a.emit(Op.SUB).emit(Op.SLOAD)
    a.emit(Op.ADDRESS)
    a.jump(rloop)
    a.mark(rdone)
    a.mload(lay.acnt).mload(lay.tmp_y).emit(Op.ADD)
    a.push(guard_marker & config.mask)
    a.mload(lay.acnt).mload(lay.tmp_y).emit(Op.ADD).push(4).emit(Op.MUL)
    a.push(2).emit(Op.ADD)
    a.emit(Op.REVERT)
    return a


def _emit_relay_append(a: Asm, lay: Layout, config: Config) -> None:
    """Copy local alarm entries into the storage relay (flagged exits only)."""
    rel = Asm.fresh("rel")
    reldone = Asm.fresh("reldone")
    a.push(0).mstore(lay.tmp_x)  # i: local index
    a.push(relay_cnt_slot(config)).emit(Op.SLOAD).mstore(lay.tmp_y)  # j: relay index
    a.mark(rel)
    a.mload(lay.tmp_x).mload(lay.acnt).emit(Op.LT).emit(Op.ISZERO)
    a.jumpi(reldone)
    a.mload(lay.tmp_y).push(lay.alarm_cap).emit(Op.LT).emit(Op.ISZERO)
    a.jumpi(reldone)
    for word in range(3):
        # value = mem[abuf + 3i + word]
        a.push(word)
        a.mload(lay.tmp_x).push(3).emit(Op.MUL).emit(Op.ADD)
        a.push(lay.abuf).emit(Op.ADD).emit(Op.MLOAD)
        # slot = relay_entry_slot(j, word)
        a.push(relay_entry_slot(config, 0, word))
        a.mload(lay.tmp_y).push(3).emit(Op.MUL)
        a.emit(Op.SUB)
        a.emit(Op.SSTORE)
    a.add_mem(lay.tmp_x, 1)
    a.add_mem(lay.tmp_y, 1)
    a.jump(rel)
    a.mark(reldone)
    a.mload(lay.tmp_y).push(relay_cnt_slot(config)).emit(Op.SSTORE)
    return a


def seq_internal_epilogue(
    code_id: int, fid: int, chk_fid: int, num_paths: int, lay: Layout
) -> Asm:
    """Exit stub for an internal function: check, then IRET."""
    a = Asm()
    a.extend(seq_check_fragment(chk_fid, lay, num_paths, code_id, fid))
    a.emit(Op.IRET)
    return a


def seq_backedge(
    code_id: int,
    fid: int,
    chk_fid: int,
    num_paths: int,
    exit_val: int,
    reset_val: int,
    lay: Layout,
) -> Asm:
    """Backedge stub: close the current acyclic path, reset, continue."""
    a = Asm()
    if exit_val:
        a.epp_add(lay, exit_val)
    a.extend(seq_check_fragment(chk_fid, lay, num_paths, code_id, fid))
    a.epp_set(lay, reset_val)
    return a


def seq_branch_add(val: int, lay: Layout) -> Asm:
    return Asm().epp_add(lay, val)


def seq_arith_check(op: Op, vt_val: int, lay: Layout) -> tuple[Asm, Asm]:
    """Pre/post fragments realizing the wraparound virtual branch.

    pre runs just before the arithmetic op (operands on stack), post right
    after it; both arms fall through to the same continuation.
    """
    pre = Asm()
    post = Asm()
    skip = Asm.fresh("novf")
    if op is Op.ADD:
        # overflow iff result < a; save a (second from top)
        pre.emit(Op.DUP, 2).mstore(lay.tmp_a)
        post.emit(Op.DUP, 1).mload(lay.tmp_a).emit(Op.LT)  # r < a
    elif op is Op.SUB:
        # underflow iff a < b iff result > a; save a
        pre.emit(Op.DUP, 2).mstore(lay.tmp_a)
        post.emit(Op.DUP, 1).mload(lay.tmp_a).emit(Op.GT)  # r > a
    else:  # MUL: overflow iff a != 0 and r / a != b; save both
        pre.emit(Op.DUP, 2).mstore(lay.tmp_a)
        pre.emit(Op.DUP, 1).mstore(lay.tmp_x)
        post.emit(Op.DUP, 1).mload(lay.tmp_a).emit(Op.DIV)  # r / a (0 when a=0)
        post.mload(lay.tmp_x).emit(Op.EQ).emit(Op.ISZERO)
        post.mload(lay.tmp_a).emit(Op.ISZERO).emit(Op.ISZERO).emit(Op.AND)
    post.emit(Op.ISZERO)
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


def seq_protected_call_pre(
    op: Op, site_gid: int, marker: int, lay: Layout, config: Config
) -> Asm:
    """Rebuild the arg block with the [MARKER, ctx, site] calldata prefix.

    Runs immediately before ``op`` with the stack at [args..., nargs,
    selector, addr] for DELEGATECALL and [args..., nargs, selector, value,
    addr] for CALL; stashes the head words, injects the prefix, and restores
    the head with nargs + 3.
    """
    if op is Op.CALL:
        head = [lay.tmp_addr, lay.tmp_val, lay.tmp_sel, lay.tmp_n]
    else:
        head = [lay.tmp_addr, lay.tmp_sel, lay.tmp_n]
    a = Asm()
    for addr in head:
        a.mstore(addr)
    a.push(site_gid)
    a.mload(lay.ctx)
    a.push(marker & config.mask)
    a.mload(lay.tmp_n).push(MARKER_WORDS).emit(Op.ADD)
    for addr in reversed(head[:-1]):
        a.mload(addr)
    return a


def seq_protected_call_post(marker: int, lay: Layout, config: Config) -> Asm:
    """Merge the callee's anomaly flag from the return-data prefix."""
    a = Asm()
    skip = Asm.fresh("nomerge")
    a.emit(Op.DUP, 1).emit(Op.ISZERO)
    a.jumpi(skip)
    a.emit(Op.RETURNDATASIZE).push(RET_PREFIX_WORDS).emit(Op.LT)
    a.jumpi(skip)
    a.push(0).emit(Op.RETURNDATALOAD).push(marker & config.mask).emit(Op.EQ).emit(Op.ISZERO)
    a.jumpi(skip)
    a.push(1).emit(Op.RETURNDATALOAD)
    a.mload(lay.flag).emit(Op.OR).mstore(lay.flag)
    a.mark(skip)
    return a


def seq_unprotected_call_pre(ctx_slot: int, lay: Layout, config: Config) -> Asm:
    """Persist ctx (encoded, nonzero) across a call leaving the boundary."""
    a = Asm()
    a.push(ctx_slot).emit(Op.SLOAD).mstore(lay.tmp_slot)
    a.mload(lay.ctx).push(2).emit(Op.ADD)
    a.push(ctx_slot).emit(Op.SSTORE)
    return a


def seq_unprotected_call_post(ctx_slot: int, poison: int, lay: Layout) -> Asm:
    """Pick up a poison signal from a reentrant frame, then restore the slot."""
    a = Asm()
    skip = Asm.fresh("nopoison")
    a.push(ctx_slot).emit(Op.SLOAD).push(poison).emit(Op.EQ).emit(Op.ISZERO)
    a.jumpi(skip)
    a.mstore_const(lay.flag, 1)
    a.mark(skip)
    a.mload(lay.tmp_slot).push(ctx_slot).emit(Op.SSTORE)
    return a


def seq_icall_pre(val: int, surrogate_val: int | None, lay: Layout, config: Config) -> Asm:
    """Context and depth bookkeeping before an internal call."""
    a = Asm()
    if surrogate_val is not None:
        a.mload(lay.ctx)
        a.mload(lay.depth).push(lay.ctxsave_base).emit(Op.ADD)
        a.emit(Op.MSTORE)
        a.mstore_const(lay.ctx, surrogate_val & config.mask)
    elif val:
        a.add_mem(lay.ctx, val & config.mask)
    a.add_mem(lay.depth, 1)
    return a


def seq_icall_post(val: int, surrogate: bool, lay: Layout, config: Config) -> Asm:
    a = Asm()
    a.mload(lay.depth).push(1).emit(Op.SUB).mstore(lay.depth)
    if surrogate:
        a.mload(lay.depth).push(lay.ctxsave_base).emit(Op.ADD).emit(Op.MLOAD)
        a.mstore(lay.ctx)
    elif val:
        a.add_mem(lay.ctx, (-val) & config.mask)
    return a


def seq_calldata_load_shim(lay: Layout) -> Asm:
    """Replacement prefix for CALLDATALOAD: shift the index by the marker offset."""
    return Asm().mload(lay.cdoff).emit(Op.ADD)


def seq_calldata_size_shim(lay: Layout) -> Asm:
    """Emitted after CALLDATASIZE: subtract the marker offset."""
    return Asm().mload(lay.cdoff).emit(Op.SWAP, 1).emit(Op.SUB)


def seq_returndata_load_shim() -> Asm:
    return Asm().push(RET_PREFIX_WORDS).emit(Op.ADD)


def seq_returndata_size_shim() -> Asm:
    return Asm().push(RET_PREFIX_WORDS).emit(Op.SWAP, 1).emit(Op.SUB)


def seq_admin_body(admin_addr: int, lay: Layout) -> Asm:
    """Administration entry: append (slot, value) pairs, caller-gated.

    Calldata: [n, slot1, value1, ..., slotN, valueN], built by
    ``admin_calldata``.
    """
    a = Asm()
    ok = Asm.fresh("adm_ok")
    loop = Asm.fresh("adm_loop")
    done = Asm.fresh("adm_done")
    a.emit(Op.CALLER).push(admin_addr).emit(Op.EQ)
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
    prices = price_table(config.gas)
    prices[Op.SSTORE.code] = config.gas.sstore_update
    return sum(
        prices[(item[1].op if item[0] == "i" else _LABEL_OPS[item[0]]).code]
        for item in items
    )


def check_gas(strategy: str, n: int, config: Config) -> int:
    """Analytic per-check gas of the generated membership code.

    For the embedded strategies this is the hit cost of the checker body
    (mapping probe not reached); for the mapping it is the probe cost.
    """
    if strategy == STRATEGY_LIST:
        spec = build_list(range(n))
        body = seq_checker(STRATEGY_LIST, spec, 0, 0, 0, config)
        return _hit_gas(body, config)
    if strategy == STRATEGY_MPHT:
        spec = build_mpht(range(max(1, n)), config.guard.mpht_lambda, width=config.width)
        body = seq_checker(STRATEGY_MPHT, spec, 0, 0, 0, config)
        return _hit_gas(body, config)
    if strategy == STRATEGY_MAPPING:
        body = seq_checker(STRATEGY_MAPPING, None, 0, 0, 0, config)
        return seq_gas(body.items, config)
    raise ValueError(strategy)


def _hit_gas(body: Asm, config: Config) -> int:
    """Gas along the embedded-hit path: up to the first branch, then from
    its target (the found arm) to the IRET."""
    items = body.items
    branch = next(pos for pos, item in enumerate(items) if item[0] == "jumpi")
    found = label_offsets(items)[items[branch][1]]
    return seq_gas(items[: branch + 1] + items[found:], config)
