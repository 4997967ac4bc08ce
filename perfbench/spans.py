"""In-memory spans around the pathguard layer entry points.

The benchmark installs wrappers on the module attributes that ``workflow``
and ``bundle`` call, so no program file changes. Each span records its name,
start, end, parent span and transaction id, plus counts read off the call's
arguments or result. Spans stay in memory until the run ends.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path

from pathguard import bundle, instrument, vm, workflow

_VM_LEVELS = {vm.TRACE_NONE: "vm.none", vm.TRACE_CHECKS: "vm.checks", vm.TRACE_FULL: "vm.full"}


class Span:
    __slots__ = ("name", "start", "end", "parent", "tx", "counts")

    def __init__(self, name, start, parent, tx):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.tx = tx
        self.counts = None


class Tracer:
    """Span recorder; records only between ``install`` and ``uninstall``."""

    def __init__(self):
        self.spans: list[Span] = []
        self.enabled = False
        self._open: list[int] = []
        self._next_tx = 0
        self._patches: list[tuple[object, str, object]] = []

    def open(self, name: str, new_tx: bool = False) -> int | None:
        if not self.enabled:
            return None
        parent = self._open[-1] if self._open else None
        tx = self.spans[parent].tx if parent is not None else None
        # a VM run outside any transaction span (training, deployment) is one
        if new_tx or (tx is None and name.startswith("vm.")):
            self._next_tx += 1
            tx = self._next_tx
        self.spans.append(Span(name, time.perf_counter(), parent, tx))
        index = len(self.spans) - 1
        self._open.append(index)
        return index

    def close(self, index: int | None, **counts) -> None:
        if index is None:
            return
        span = self.spans[index]
        span.end = time.perf_counter()
        if counts:
            span.counts = counts
        self._open.pop()

    @contextmanager
    def paused(self):
        """Record nothing inside: the benchmark's own checks and forks."""
        enabled, self.enabled = self.enabled, False
        try:
            yield
        finally:
            self.enabled = enabled

    @contextmanager
    def span(self, name: str, new_tx: bool = False):
        index = self.open(name, new_tx)
        try:
            yield
        finally:
            self.close(index)

    # -- wrappers ------------------------------------------------------------

    def _wrap(self, owner, attr: str, name, counts=None) -> None:
        original = getattr(owner, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            label = name(args) if callable(name) else name
            index = tracer.open(label)
            try:
                result = original(*args, **kwargs)
            except BaseException:
                tracer.close(index)
                raise
            tracer.close(index, **(counts(args, result) if counts and index is not None else {}))
            return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def install(self) -> None:
        """Wrap the layer entry points the workflow and bundle modules call."""
        w = self._wrap
        w(workflow, "assemble", "asm.assemble")
        w(workflow, "analyze_bundle", "bundle.analyze")
        for attr in ("build_cfg", "acyclicize"):
            w(bundle, attr, "cfg.build")
        w(
            bundle, "insert_virtual_branches", "cfg.build",
            lambda a, r: {"blocks": len(r.blocks), "edges": len(r.edges)},
        )
        w(bundle, "label_epp", "epp.label", lambda a, r: {"paths": r.total_paths})
        for attr in ("build_call_graph", "acyclicize_callgraph"):
            w(bundle, attr, "callgraph.build")
        w(bundle, "label_ccp", "ccp.label", lambda a, r: {"contexts": sum(r.num_ccs.values())})
        w(workflow, "trace_oracle", "oracle", lambda a, r: {"events": len(a[0])})
        for owner in (workflow, instrument):
            w(owner, "build_mpht", "pathset.build_mpht", lambda a, r: {"keys": r.n})
        w(workflow, "make_snapshot", "workflow.make_snapshot")
        w(
            workflow, "instrument_contract", "instrument.rewrite",
            lambda a, r: {"points": len(r.points)},
        )
        w(
            vm.VM, "execute_transaction", lambda a: _VM_LEVELS[a[0].trace_level],
            lambda a, r: {"gas": r.gas_used, "events": len(r.trace)},
        )
        w(vm.WorldState, "clone", "vm.world_clone")
        self.enabled = True

    def uninstall(self) -> None:
        self.enabled = False
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- summaries -------------------------------------------------------------

    def by_name(self) -> dict[str, dict]:
        """Per span name: calls, total and self seconds, summed counts."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                child_time[span.parent] += span.end - span.start
        table: dict[str, dict] = {}
        for span, children in zip(self.spans, child_time):
            row = table.setdefault(span.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            duration = span.end - span.start
            row["calls"] += 1
            row["total_s"] += duration
            row["self_s"] += duration - children
            for key, value in (span.counts or {}).items():
                row[key] = row.get(key, 0) + value
        return table

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        fields = ["name", "start", "end", "parent", "tx", "counts"]
        rows = [[getattr(span, f) for f in fields] for span in self.spans]
        path.write_text(json.dumps({"fields": fields, "spans": rows}))


def self_time_table(table: dict[str, dict], reps: int) -> str:
    """One row per span name, sorted by self time, per traced rep."""
    lines = [f"{'span':28s} {'calls/rep':>10s} {'total ms/rep':>13s} {'self ms/rep':>12s}"]
    for name, row in sorted(table.items(), key=lambda kv: -kv[1]["self_s"]):
        lines.append(
            f"{name:28s} {row['calls'] / reps:10.1f} {1e3 * row['total_s'] / reps:13.2f}"
            f" {1e3 * row['self_s'] / reps:12.2f}"
        )
    return "\n".join(lines)
