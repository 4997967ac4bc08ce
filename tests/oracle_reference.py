"""Out-edge scans for differential tests of the trace oracle's step tables.

These are the linear scans over a vertex's out-edges that the trace oracle
ran per event before ``bundle.step_table`` indexed its steps: each returns
the first matching edge in eid order, as ``(edge value, dst)``, or for a
terminator ``(edge value, terminator offset)``, and None on no match. They
are kept here as the reference the step tables are compared against.
"""

from __future__ import annotations

from pathguard.cfg import EXIT, REAL, VIRTUAL_FALSE, VIRTUAL_TRUE


def enter_step(cfg, lab, succ, v, offset):
    """The first real edge from ``v`` into the nonempty block at ``offset``."""
    for e in succ[v]:
        if e.kind == REAL and e.dst != EXIT:
            dst = cfg.blocks[e.dst]
            if not dst.empty and dst.start == offset:
                return lab.edge_val[e.eid], e.dst
    return None


def virtual_step(lab, succ, v, origin, offset, kind):
    """The first ``kind`` virtual edge from ``v`` of the ``origin`` op
    ("arith" or "callret") at ``offset``."""
    for e in succ[v]:
        if e.kind == kind and e.origin[0] == origin and e.origin[1] == offset:
            return lab.edge_val[e.eid], e.dst
    return None


def term_step(lab, succ, v):
    """The terminator edge leaving ``v``, when it has exactly one."""
    term = [e for e in succ[v] if e.origin and e.origin[0] == "term"]
    if len(term) != 1:
        return None
    return lab.edge_val[term[0].eid], term[0].origin[1]


def scan_table(cfg, lab, offsets) -> dict[int, dict]:
    """Every step the scans find out of each vertex but EXIT, for a trace
    event at any of ``offsets``, keyed as ``bundle.step_table`` keys it."""
    succ = cfg.successors()
    table = {}
    for v in cfg.vertices():
        if v == EXIT:
            continue
        steps = {}
        for off in offsets:
            steps[off] = enter_step(cfg, lab, succ, v, off)
            for origin in ("arith", "callret"):
                for kind in (VIRTUAL_FALSE, VIRTUAL_TRUE):
                    steps[(origin, off, kind)] = virtual_step(lab, succ, v, origin, off, kind)
        steps["term"] = term_step(lab, succ, v)
        table[v] = {key: step for key, step in steps.items() if step is not None}
    return table
