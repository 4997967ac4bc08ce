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

Each step along a path edge is one lookup in the function's step table
(``bundle.step_table``): a BlockEnter by its offset, an ArithChecked or an
ExternalCallReturn by its op's offset and outcome, and a path's end by the
vertex's one terminator edge. A BlockEnter that misses the table is a
recorded backedge (the path ends and a new one starts at the loop header)
or the confirmation of a vertex entered through a virtual edge; anything
else raises TraceMismatch.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .bundle import BundleAnalysis, Steps
from .cfg import Cfg, VIRTUAL_FALSE, VIRTUAL_TRUE
from .guardcode import combined_word, entry_ctx, icall_ctx, iret_ctx, marker_ctx, slot_encode
from .isa import Op
from .vm import Receipt, STATUS_ACCEPTED, TraceEvent

Pair = tuple[int, str, int, int]  # (self address, code name, function id, combined)


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


class TraceOracle:
    def __init__(self, analysis: BundleAnalysis):
        self.analysis = analysis
        self.config = analysis.config
        self.boundary = analysis.boundary

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

    def _enter_function(self, frame: _Frame, fid: int) -> None:
        key = (frame.code, fid)
        cfg = self.analysis.cfgs[key]
        lab = self.analysis.epp[key]
        steps = self.analysis.steps(frame.code, fid)
        frame.istack.append(_IFrame(fid, cfg, steps, lab, None, lab.entry_val, frame.ctx))

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
        self._enter_function(frame, fid)

    def _emit(self, frame: _Frame, iframe: _IFrame, epp: int) -> None:
        combined = combined_word(frame.ctx, iframe.lab.total_paths, epp, self.config.width)
        self.out.append((frame.self_addr, frame.code, iframe.fid, combined))

    @staticmethod
    def _term_step(iframe: _IFrame, where: str) -> tuple[int, int]:
        """(edge value, offset) of the one terminator edge leaving the
        function's current vertex."""
        term = None if iframe.vertex is None else iframe.steps[iframe.vertex].get("term")
        if term is None:
            raise TraceMismatch(f"{iframe.cfg.fn_name}: {where}")
        return term

    @staticmethod
    def _virtual_step(iframe: _IFrame, kind: str, offset: int, want: str) -> None:
        """Take the virtual ``kind`` edge of the op at ``offset`` out of the
        function's current vertex."""
        step = iframe.steps.get(iframe.vertex, {}).get((kind, offset, want))
        if step is None:
            raise TraceMismatch(f"no virtual {kind} edge at offset {offset}")
        val, iframe.vertex = step
        iframe.epp += val

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
        val, off = self._term_step(iframe, "frame ended away from a terminator")
        prog = self.analysis.programs[frame.code]
        if prog.functions[iframe.fid].body[off].op is Op.REVERT:
            return  # reverting exits emit no check
        self._emit(frame, iframe, iframe.epp + val)

    # -- event handlers ---------------------------------------------------------

    def _on_BlockEnter(self, ev: TraceEvent) -> None:
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
        iframe = frame.top
        if iframe is None or iframe.fid != ev.fn:
            raise TraceMismatch(f"unexpected BlockEnter in fn {ev.fn}")
        if iframe.vertex is None:
            if ev.offset != 0:
                raise TraceMismatch("function did not start at offset 0")
            iframe.vertex = iframe.cfg.block_at(0)
            return
        step = iframe.steps[iframe.vertex].get(ev.offset)
        if step is not None:
            val, iframe.vertex = step
            iframe.epp += val
            return
        cfg, lab = iframe.cfg, iframe.lab
        # not a DAG edge: must be a recorded backedge
        src_block = cfg.blocks[iframe.vertex]
        if (src_block.end - 1, ev.offset) in cfg.backedges:
            exit_val = lab.exit_val.get(iframe.vertex, 0)
            self._emit(self.frames[-1], iframe, iframe.epp + exit_val)
            target = cfg.block_at(ev.offset)
            iframe.epp = lab.reset_val[target]
            iframe.vertex = target
            return
        if not src_block.empty and src_block.start == ev.offset:
            # confirmation of a vertex already entered through a virtual
            # edge (external call return); DAGs have no self edges
            return
        raise TraceMismatch(
            f"{cfg.fn_name}: no edge from block {iframe.vertex} to offset {ev.offset}"
        )

    def _on_ArithChecked(self, ev: TraceEvent) -> None:
        frame = self._active()
        if frame is None:
            return
        want = VIRTUAL_TRUE if ev.get("overflow") else VIRTUAL_FALSE
        self._virtual_step(frame.top, "arith", ev.offset, want)

    def _on_CallEnter(self, ev: TraceEvent) -> None:
        frame = self._active()
        if frame is None:
            return
        callee = ev.get("callee")
        val, surrogate = self._site_val((frame.code, ev.fn, ev.offset), callee)
        self._enter_function(frame, callee)
        frame.ctx = icall_ctx(frame.ctx, val, surrogate, self.config.width)

    def _on_CallReturn(self, ev: TraceEvent) -> None:
        frame = self._active()
        if frame is None:
            return
        iframe = frame.istack.pop()
        # the IRET's terminator edge closes the callee's last path
        val, _off = self._term_step(iframe, "CallReturn away from IRET")
        self._emit(frame, iframe, iframe.epp + val)
        # undo the context delta; the call site is the caller's current
        # vertex terminator (an ICALL instruction)
        caller = frame.top
        if caller is None or caller.vertex is None:
            raise TraceMismatch(f"CallReturn from fn {iframe.fid} with no calling function")
        site = (frame.code, caller.fid, caller.cfg.blocks[caller.vertex].end - 1)
        val, surrogate = self._site_val(site, iframe.fid)
        frame.ctx = iret_ctx(frame.ctx, iframe.caller_ctx, val, surrogate, self.config.width)

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
        want = VIRTUAL_FALSE if success else VIRTUAL_TRUE
        self._virtual_step(caller.top, "callret", ev.offset, want)

    def _on_Revert(self, ev: TraceEvent) -> None:
        if self.frames:
            self.frames[-1].aborted = True
            self.frames[-1].istack.clear()

    # -- misc ------------------------------------------------------------------

    def _active(self) -> _Frame | None:
        if not self.frames:
            return None
        frame = self.frames[-1]
        if not frame.code or frame.aborted or not frame.istack:
            return None
        return frame

    _HANDLERS = {
        "BlockEnter": _on_BlockEnter,
        "ArithChecked": _on_ArithChecked,
        "CallEnter": _on_CallEnter,
        "CallReturn": _on_CallReturn,
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
