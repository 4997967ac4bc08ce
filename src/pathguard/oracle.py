"""Trace oracle: replays an uninstrumented execution trace through the
labeled graphs and emits the sequence of (contract, function, combined index)
pairs that instrumented code would check.

This is the independent reference implementation for the profiling
equivalence tests and the source of truth during training. It forms each
word the way the guard does, through ``guardcode``'s Python mirrors: the
entry classification (marker, direct, foreign, reentrant), the context
across internal calls and the one a protected call sends (by the call's
selector), the transient ctx slot around unprotected calls
(empty at the start of every transaction) and the combined word. What it
tracks itself is what the trace shows: frames, path decomposition at
backedges, and which frames run with the origin as CALLER. It sees no
calldata, so it takes a marker to come only from a protected call site.
Membership outcomes are irrelevant here, only the checked pairs.

At TRACE_FULL the VM traces control flow as Region events alone
(``vm._source``): each the static steps of one region path (block starts,
ICALLs, inlined IRETs, and checked ops with their overflow bits), or the
one step of a tail IRET, the only one-step event: every ICALL is a step of
its region's path, even where the region stops at the callee. One walker, ``TraceOracle._walk``, takes
each step along a path edge by one lookup in the function's step table
(``bundle.step_table``): a block start by its offset, a checked op by its
offset and overflow bit, and a path's end by the vertex's one terminator
edge. A block start that misses the table is a recorded backedge (the path
ends and a new one starts at the loop header) or the confirmation of a
vertex entered through a virtual edge; anything else raises TraceMismatch.
An ExternalCallReturn takes its virtual edge by the same lookup.

The walk of a Region event is memoized on the ``BundleAnalysis``
(``region_effects``), keyed by (contract, function, start vertex, steps,
overflow bits). Its effect is stored affine in the frame's ctx ``c`` and
the path sum ``e`` at the event's start: each checked word as ``(a_c * c +
a_e * e + k) & mask``, the end vertex and path sum, the internal frames
left open and the final ctx. That holds because ``icall_ctx``,
``iret_ctx`` and ``combined_word`` are linear mod 2**width but for a
constant. A region's IRETs return only from its own ICALLs, so the one
event that returns below the function it starts in is a tail IRET's: it
reads frames that the key does not name, and runs the same walker over the
frame's real state, unmemoized.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .bundle import BundleAnalysis, Steps
from .cfg import Cfg, VIRTUAL_FALSE, VIRTUAL_TRUE
from .guardcode import combined_word, entry_ctx, icall_ctx, iret_ctx, marker_ctx, slot_encode
from .isa import Op
from .vm import (
    STATUS_ACCEPTED,
    STEP_ADD,
    STEP_BLOCK,
    STEP_ICALL,
    STEP_IRET,
    STEP_MUL,
    STEP_SUB,
    Receipt,
    TraceEvent,
    step_fields,
)

Pair = tuple[int, str, int, int]  # (self address, code name, function id, combined)

_CHECKED_KINDS = frozenset({STEP_ADD, STEP_SUB, STEP_MUL})


class TraceMismatch(AssertionError):
    """The trace does not fit the labeled graphs (malformed or stale)."""


@dataclass(slots=True)
class _IFrame:
    """One internal function activation: the path walked so far is
    ``vertex`` (None before the first block) and the sum ``epp`` of its
    edge values. A step out of ``vertex`` is ``steps[vertex]``'s entry for
    what the trace shows next, see ``bundle.step_table``."""

    fid: int
    cfg: Cfg
    steps: dict[int, Steps]
    lab: object
    vertex: int | None
    epp: int
    caller_ctx: int  # the calling function's ctx, for a surrogate's return


@dataclass(slots=True)
class _Frame:
    self_addr: int
    code: str | None  # None marks an unprotected frame
    direct: bool  # CALLER is ORIGIN
    ctx: int = 0
    aborted: bool = False
    istack: list[_IFrame] = field(default_factory=list)
    slot_saves: list[tuple[int, int]] = field(default_factory=list)

    @property
    def top(self) -> _IFrame | None:
        return self.istack[-1] if self.istack else None


def _term_step(steps: dict[int, Steps], vertex: int | None, name: str, where: str):
    """(edge value, offset) of the one terminator edge leaving ``vertex``."""
    term = None if vertex is None else steps[vertex].get("term")
    if term is None:
        raise TraceMismatch(f"{name}: {where}")
    return term


def _affine_word(fid: int, lab, ctx: tuple, ae: int, k: int, width: int) -> tuple:
    """The emit of a path whose sum is ``ae * e + k`` under the ctx pair
    ``ctx``: ``combined_word`` of each coefficient, ``e``'s passing
    through."""
    paths = lab.total_paths
    return fid, combined_word(ctx[0], paths, 0, width), ae, combined_word(ctx[1], paths, k, width)


def _virtual_step(steps: dict[int, Steps], vertex, kind: str, offset: int, want: str):
    """(edge value, dst) of the virtual ``kind`` edge of the op at
    ``offset`` out of ``vertex``."""
    step = steps.get(vertex, {}).get((kind, offset, want))
    if step is None:
        raise TraceMismatch(f"no virtual {kind} edge at offset {offset}")
    return step


class TraceOracle:
    """Replays one transaction's trace. A Region event's walk is memoized
    on the analysis (``BundleAnalysis.region_effects``), but for a tail
    IRET's, unless ``memo`` is False; then each event walks the frame's
    real state, the reference that the memo is tested against."""

    def __init__(self, analysis: BundleAnalysis, memo: bool = True):
        self.analysis = analysis
        self.config = analysis.config
        self.mask = analysis.config.mask
        self.boundary = analysis.boundary
        self.memo = analysis.region_effects if memo else None

    # -- public ------------------------------------------------------------

    def pairs(self, trace: list[TraceEvent], status: str = STATUS_ACCEPTED) -> list[Pair]:
        """Checked pairs for one transaction's uninstrumented trace."""
        self.out: list[Pair] = []
        self.frames: list[_Frame] = []
        self.slots: dict[int, int] = {}
        handlers = self._HANDLERS
        for ev in trace:
            handler = handlers.get(ev.kind)
            if handler:
                handler(self, ev)
        # transaction-entry frame returns when the trace ends
        if self.frames:
            frame = self.frames.pop()
            if self.frames:
                raise TraceMismatch("unbalanced call frames at end of trace")
            if status == STATUS_ACCEPTED and not frame.aborted and frame.code:
                self._emit_exit(frame)
        return self.out

    # -- frame plumbing -------------------------------------------------------

    def _enter_frame(
        self, self_addr: int, code: str, fid: int, direct: bool, marker: int | None
    ) -> None:
        """Push a protected frame entered at external function ``fid``."""
        frame = _Frame(self_addr, code, direct)
        frame.ctx = entry_ctx(
            self.analysis.num_ccs(code, fid),
            self.config.width,
            marker,
            self.slots.get(self_addr, 0),
            direct,
        )
        self.frames.append(frame)
        lab = self.analysis.epp[(code, fid)]
        frame.istack.append(_IFrame(
            fid, self.analysis.cfgs[(code, fid)], self.analysis.steps(code, fid), lab, None,
            lab.entry_val, frame.ctx,
        ))

    def _site_val(self, site: tuple[str, int, int], callee: int | None) -> tuple[int, bool]:
        """(call edge value, via surrogate) of the ICALL at ``site``."""
        edge = self.analysis.site_val.get((site, (site[0], callee)))
        if edge is None:
            raise TraceMismatch(f"no call edge from {site} to fn {callee}")
        return edge

    def _emit_exit(self, frame: _Frame) -> None:
        """Close the final pending path of the frame's active function."""
        iframe = frame.top
        if iframe is None or iframe.vertex is None:
            return
        where = "frame ended away from a terminator"
        val, off = _term_step(iframe.steps, iframe.vertex, iframe.cfg.fn_name, where)
        prog = self.analysis.programs[frame.code]
        if prog.functions[iframe.fid].body[off].op is Op.REVERT:
            return  # reverting exits emit no check
        epp = iframe.epp + val
        combined = combined_word(frame.ctx, iframe.lab.total_paths, epp, self.config.width)
        self.out.append((frame.self_addr, frame.code, iframe.fid, combined))

    # -- steps ---------------------------------------------------------------

    def _walked(self, frame: _Frame, steps: tuple, bits: tuple, key: tuple) -> tuple:
        """``(base, effect)`` of ``region_step`` ints that the memo does not
        hold: the effect of their walk over the frames from ``base`` up.
        With the memo, the walk runs from a symbolic state, the frame's ctx
        ``c`` and the active function's path sum ``e``, and is memoized
        under ``key``; without it, or for a tail IRET, which returns below
        its function to frames that no key names, it walks the frame's real
        state."""
        istack = frame.istack
        tail_return = steps and step_fields(steps[0])[0] == STEP_IRET
        if self.memo is not None and not tail_return:
            start = istack[-1]
            walked = [[start.fid, start.cfg, start.steps, start.lab, start.vertex, (1, 0), None]]
            effect = self.memo[key] = self._walk(frame.code, walked, (1, 0), steps, bits)
            return len(istack) - 1, effect
        walked = [
            [f.fid, f.cfg, f.steps, f.lab, f.vertex, (0, f.epp), (0, f.caller_ctx)] for f in istack
        ]
        effect = self._walk(frame.code, walked, (0, frame.ctx), steps, bits)
        del istack[1:]  # the walk's frames above the bottom replace them
        return 0, effect

    def _walk(self, code: str, frames: list, ctx: tuple, steps, bits: tuple):
        """The effect of ``steps`` (``region_step`` ints) and ``bits`` on
        the internal frames ``frames``, each ``[fid, cfg, steps, lab,
        vertex, path sum, caller ctx]``: the oracle's one step walker.

        Each value is a pair of coefficients: a path sum ``(a, k)`` stands
        for ``a * e + k`` and a ctx ``(a, k)`` for ``(a * c + k) & mask``.
        ``icall_ctx``, ``iret_ctx`` and ``combined_word`` are linear mod
        2**width but for their constant, so each is applied to the two
        coefficients apart, the constant going with ``k``. Returns
        ``(emits, vertex, a, k, pushed, ctx a, ctx k)``: each emit ``(fid,
        a_c, a_e, k)`` is the combined word ``(a_c * c + a_e * e + k) &
        mask``; then the bottom frame's end vertex and path sum, the frames
        above it as ``(fid, cfg, steps, lab, vertex, path sum, caller ctx
        a, caller ctx k)`` (their path sums never read ``e``), and the
        final ctx. A pop of the last frame raises TraceMismatch.
        """
        width = self.config.width
        emits = []
        bit = iter(bits)
        for kind, pc, callee in map(step_fields, steps):
            top = frames[-1]
            fid, cfg, table, lab, vertex, (ae, k), _caller = top
            if kind == STEP_BLOCK:
                if vertex is None:
                    if pc != 0:
                        raise TraceMismatch("function did not start at offset 0")
                    top[4] = cfg.block_at(0)
                    continue
                step = table[vertex].get(pc)
                if step is not None:
                    val, top[4] = step
                    top[5] = (ae, k + val)
                    continue
                # not a DAG edge: must be a recorded backedge
                src_block = cfg.blocks[vertex]
                if (src_block.end - 1, pc) in cfg.backedges:
                    exit_val = lab.exit_val.get(vertex, 0)
                    emits.append(_affine_word(fid, lab, ctx, ae, k + exit_val, width))
                    target = cfg.block_at(pc)
                    top[4], top[5] = target, (0, lab.reset_val[target])
                    continue
                if not src_block.empty and src_block.start == pc:
                    # confirmation of a vertex already entered through a
                    # virtual edge (external call return); DAGs have no self edges
                    continue
                raise TraceMismatch(f"{cfg.fn_name}: no edge from block {vertex} to offset {pc}")
            elif kind in _CHECKED_KINDS:
                overflow = next(bit, None)
                if overflow is None:
                    raise TraceMismatch(f"fewer overflow bits than checked ops at offset {pc}")
                want = VIRTUAL_TRUE if overflow else VIRTUAL_FALSE
                val, top[4] = _virtual_step(table, vertex, "arith", pc, want)
                top[5] = (ae, k + val)
            elif kind == STEP_ICALL:
                val, surrogate = self._site_val((code, fid, pc), callee)
                lab = self.analysis.epp[(code, callee)]
                frames.append([
                    callee, self.analysis.cfgs[(code, callee)], self.analysis.steps(code, callee),
                    lab, None, (0, lab.entry_val), ctx,
                ])
                ctx = (
                    icall_ctx(ctx[0], 0, surrogate, width),
                    icall_ctx(ctx[1], val, surrogate, width),
                )
            elif kind == STEP_IRET:
                frames.pop()
                # the IRET's terminator edge closes the callee's last path
                val, _off = _term_step(table, vertex, cfg.fn_name, "CallReturn away from IRET")
                emits.append(_affine_word(fid, lab, ctx, ae, k + val, width))
                # undo the context delta; the call site is the caller's
                # current vertex terminator (an ICALL instruction)
                caller = frames[-1] if frames else None
                if caller is None or caller[4] is None:
                    raise TraceMismatch(f"CallReturn from fn {fid} with no calling function")
                site = (code, caller[0], caller[1].blocks[caller[4]].end - 1)
                val, surrogate = self._site_val(site, fid)
                saved = top[6]
                ctx = (
                    iret_ctx(ctx[0], saved[0], 0, surrogate, width),
                    iret_ctx(ctx[1], saved[1], val, surrogate, width),
                )
            else:
                raise TraceMismatch(f"unknown step kind {kind} at offset {pc}")
        if next(bit, None) is not None:
            raise TraceMismatch("more overflow bits than checked ops")
        bottom = frames[0]
        pushed = tuple(
            (fid, cfg, table, lab, vertex, epp[1], *caller)
            for fid, cfg, table, lab, vertex, epp, caller in frames[1:]
        )
        return (tuple(emits), bottom[4], *bottom[5], pushed, *ctx)

    # -- event handlers ---------------------------------------------------------

    def _on_Region(self, ev: TraceEvent) -> None:
        if not self.frames:
            # transaction entry: markerless, and the caller is the origin
            code = ev.get("code")
            if code in self.boundary:
                self._enter_frame(ev.contract, code, ev.fn, True, None)
            else:
                self.frames.append(_Frame(ev.contract, None, True))
        frame = self.frames[-1]
        if not frame.code or frame.aborted:
            return
        istack = frame.istack
        if not istack or istack[-1].fid != ev.fn:
            raise TraceMismatch(f"unexpected Region event in fn {ev.fn}")
        try:
            steps, bits = ev.detail["steps"], ev.detail["bits"]
        except (KeyError, TypeError):
            raise TraceMismatch(f"{ev.kind} event at offset {ev.offset} carries no steps") from None
        key = (frame.code, ev.fn, istack[-1].vertex, steps, bits)
        effect = self.memo.get(key) if self.memo is not None else None
        if effect is None:
            base, effect = self._walked(frame, steps, bits, key)
        else:
            base = len(istack) - 1
        emits, vertex, ae, k, pushed, ca, ck = effect
        bottom = istack[base]
        c, e, mask = frame.ctx, bottom.epp, self.mask
        if emits:
            out, addr, code = self.out, frame.self_addr, frame.code
            for fid, emit_c, emit_e, emit_k in emits:
                out.append((addr, code, fid, (emit_c * c + emit_e * e + emit_k) & mask))
        bottom.vertex, bottom.epp = vertex, ae * e + k
        for fid, cfg, table, lab, v, epp, caller_a, caller_k in pushed:
            istack.append(_IFrame(fid, cfg, table, lab, v, epp, (caller_a * c + caller_k) & mask))
        frame.ctx = (ca * c + ck) & mask

    def _on_ExternalCallEnter(self, ev: TraceEvent) -> None:
        if not self.frames:
            raise TraceMismatch(f"external call at offset {ev.offset} with no calling frame")
        caller = self.frames[-1]
        code = ev.get("code")
        kind = ev.get("kind")
        fid = ev.get("fn")
        target = ev.get("target")
        self_addr = caller.self_addr if kind == "delegatecall" else target
        table = self.analysis.site_tables.get((caller.code, ev.fn, ev.offset))

        # caller side: keep ctx in the ctx slot across calls leaving the boundary
        if caller.code and not caller.aborted and not table:
            prev = self.slots.get(caller.self_addr, 0)
            caller.slot_saves.append((caller.self_addr, prev))
            self.slots[caller.self_addr] = slot_encode(caller.ctx, self.config.width)

        # a DELEGATECALL frame runs with its delegating frame's caller
        direct = kind == "delegatecall" and caller.direct
        if fid is None or code not in self.boundary:
            self.frames.append(_Frame(self_addr, None, direct))
            return
        marker = None
        if table and not caller.aborted:
            selector = ev.get("selector") or 0  # the VM reports selector 0 as None
            marker = marker_ctx(caller.ctx, selector, table, self.config.width)
        self._enter_frame(self_addr, code, fid, direct, marker)

    def _on_ExternalCallReturn(self, ev: TraceEvent) -> None:
        success = ev.get("success")
        callee = self.frames.pop() if len(self.frames) > 1 else None
        if callee and callee.code and success and not callee.aborted:
            self._emit_exit(callee)
        caller = self.frames[-1] if self.frames else None
        if caller is None or not caller.code or caller.aborted:
            return
        # restore the ctx slot if this was an unprotected-site call
        if (caller.code, ev.fn, ev.offset) not in self.analysis.site_tables:
            if not caller.slot_saves:
                raise TraceMismatch(
                    f"return at offset {ev.offset} with no unprotected call in flight"
                )
            addr, prev = caller.slot_saves.pop()
            self.slots[addr] = prev
        # virtual branch on the success flag
        iframe = caller.top
        want = VIRTUAL_FALSE if success else VIRTUAL_TRUE
        val, iframe.vertex = _virtual_step(iframe.steps, iframe.vertex, "callret", ev.offset, want)
        iframe.epp += val

    def _on_Revert(self, ev: TraceEvent) -> None:
        if self.frames:
            self.frames[-1].aborted = True
            self.frames[-1].istack.clear()

    _HANDLERS = {
        "Region": _on_Region,
        "ExternalCallEnter": _on_ExternalCallEnter,
        "ExternalCallReturn": _on_ExternalCallReturn,
        "Revert": _on_Revert,
    }


def trace_oracle(
    trace: list[TraceEvent], analysis: BundleAnalysis, status: str = STATUS_ACCEPTED
) -> list[Pair]:
    return TraceOracle(analysis).pairs(trace, status)


def checked_pairs_from_receipt(receipt: Receipt) -> list[Pair]:
    """The instrumented run's check sequence, read off PathChecked events."""
    return [
        (ev.contract, ev.get("code"), ev.fn, ev.get("combined"))
        for ev in receipt.trace
        if ev.kind == "PathChecked"
    ]
