"""Per-block view of a trace, for tests that compare or list trace events.

At TRACE_FULL the VM traces control flow as ``Region`` events alone: one
per region path, every ICALL among its steps, and one of a single step per
tail IRET, whose steps the trace oracle walks. ``per_block`` expands each into the
events the per-instruction reference (``tests/vm_reference.py``) traces for
those steps, so traces compare with the reference and with listings, and the
corpus digest reads the events it always read.
"""

from __future__ import annotations

from pathguard.vm import (
    STEP_ADD,
    STEP_BLOCK,
    STEP_ICALL,
    STEP_IRET,
    STEP_MUL,
    STEP_SUB,
    TraceEvent,
    step_fields,
)

_CHECKED = {STEP_ADD: "ADD", STEP_SUB: "SUB", STEP_MUL: "MUL"}


def per_block(trace: list[TraceEvent]) -> list[TraceEvent]:
    """``trace`` with each Region event replaced by its steps' BlockEnter,
    ArithChecked, CallEnter and CallReturn events.

    A step's function is the event's ``fn``, then each ICALL's callee, and
    the caller again after each IRET; a tail IRET's one-step event returns
    below the function it started in, so the functions each message frame
    runs are tracked across events.
    """
    out: list[TraceEvent] = []
    frames: list[list[int]] = []  # per message frame, its internal call stack
    for ev in trace:
        if not frames:  # the transaction's entry frame
            frames.append([ev.fn])
        if ev.kind == "ExternalCallEnter":
            frames.append([ev.get("fn")])
        elif ev.kind == "ExternalCallReturn":
            frames.pop()
        if ev.kind != "Region":
            out.append(ev)
            continue
        calls, addr, code = frames[-1], ev.contract, ev.get("code")
        assert calls[-1] == ev.fn, (calls, ev)
        bits = iter(ev.get("bits"))
        for step in ev.get("steps"):
            kind, pc, callee = step_fields(step)
            fid = calls[-1]
            if kind == STEP_BLOCK:
                out.append(TraceEvent("BlockEnter", addr, fid, pc, {"code": code}))
            elif kind == STEP_ICALL:
                out.append(TraceEvent("CallEnter", addr, fid, pc, {"callee": callee}))
                calls.append(callee)
            elif kind == STEP_IRET:
                out.append(TraceEvent("CallReturn", addr, fid, pc, None))
                calls.pop()
            else:
                detail = {"op": _CHECKED[kind], "overflow": next(bits)}
                out.append(TraceEvent("ArithChecked", addr, fid, pc, detail))
        assert next(bits, None) is None, ev
    return out
