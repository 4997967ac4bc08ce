"""Acyclic path index labeling over a DAG-form CFG.

NumPaths(v) counts ENTRY-to-EXIT paths from v; edge values make the sum of
values along any complete path a unique index in [0, NumPaths(ENTRY)).
Edge ordering puts the heaviest successor first so it gets value zero, a
static stand-in for placing increments off the hot edge.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import dag
from .cfg import ENTRY, EXIT, Cfg, Edge, SURROGATE_ENTRY, SURROGATE_EXIT


class IndexSpaceOverflow(Exception):
    pass


@dataclass
class EppLabeling:
    num_paths: dict[int, int]
    edge_val: dict[int, int]  # eid -> value
    edge_order: dict[int, list[int]]  # vertex -> out-edge eids, value order
    entry_val: int  # value on the real ENTRY edge
    reset_val: dict[int, int]  # loop header bid -> value of ENTRY->header
    exit_val: dict[int, int]  # backedge source bid -> value of src->EXIT

    @property
    def total_paths(self) -> int:
        return self.num_paths[ENTRY]

    def fingerprint_data(self) -> list:
        return [
            sorted((v, n) for v, n in self.num_paths.items()),
            sorted(self.edge_val.items()),
        ]


def minimize_nonzero(cfg: Cfg, num_paths: dict[int, int], outs: list[Edge]) -> list[Edge]:
    """One vertex's out-edges in value order: descending NumPaths(dst), ties by offset."""
    return sorted(outs, key=lambda e: (-num_paths[e.dst], cfg.block_sort_key(e.dst), e.eid))


def label_epp(cfg: Cfg, width: int = 64) -> EppLabeling:
    """Label the acyclic CFG; raises IndexSpaceOverflow past 2**(width-1) paths."""
    dst = {e.eid: e.dst for e in cfg.edges}
    succ = cfg.successors()

    def ranked(v: int, num_paths: dict[int, int]) -> list[int]:
        outs = minimize_nonzero(cfg, num_paths, succ[v])
        if not outs:
            raise ValueError(f"{cfg.fn_name}: vertex {v} cannot reach EXIT")
        return [e.eid for e in outs]

    num_paths, edge_val, edge_order = dag.number(
        reversed(cfg.topo_order()), EXIT, ranked, dst.__getitem__
    )
    if num_paths[ENTRY] > 1 << (width - 1):
        raise IndexSpaceOverflow(
            f"{cfg.fn_name}: {num_paths[ENTRY]} paths exceed the index space"
        )

    # reset_val covers every ENTRY successor; loop headers consult it when a
    # backedge resets the path accumulator (the entry edge may be shared).
    entry_val = 0
    reset_val: dict[int, int] = {}
    exit_val: dict[int, int] = {}
    for e in cfg.edges:
        if e.src == ENTRY:
            reset_val[e.dst] = edge_val[e.eid]
            if e.kind != SURROGATE_ENTRY:
                entry_val = edge_val[e.eid]
        if e.kind == SURROGATE_EXIT:
            exit_val[e.src] = edge_val[e.eid]

    return EppLabeling(
        num_paths=num_paths,
        edge_val=edge_val,
        edge_order=edge_order,
        entry_val=entry_val,
        reset_val=reset_val,
        exit_val=exit_val,
    )


def path_to_index(lab: EppLabeling, path: list[Edge]) -> int:
    if not path or path[0].src != ENTRY or path[-1].dst != EXIT:
        raise ValueError("not a complete ENTRY->EXIT path")
    for a, b in zip(path, path[1:]):
        if a.dst != b.src:
            raise ValueError("path edges do not chain")
    return sum(lab.edge_val[e.eid] for e in path)


def index_to_path(cfg: Cfg, lab: EppLabeling, index: int) -> list[Edge]:
    """Regenerate the unique path with the given index (greedy decode)."""
    if not 0 <= index < lab.total_paths:
        raise ValueError(f"path index {index} out of range 0..{lab.total_paths - 1}")
    edge = cfg.edge
    eids = dag.decode(ENTRY, EXIT, lab.edge_order, lab.edge_val, lambda eid: edge(eid).dst, index)
    return [edge(eid) for eid in eids]


def enumerate_paths(cfg: Cfg) -> list[list[Edge]]:
    """All ENTRY->EXIT paths by exhaustive DFS; the independent test oracle."""
    paths: list[list[Edge]] = []
    succ = cfg.successors()

    def walk(v: int, acc: list[Edge]) -> None:
        if v == EXIT:
            paths.append(list(acc))
            return
        for e in succ[v]:
            acc.append(e)
            walk(e.dst, acc)
            acc.pop()

    walk(ENTRY, [])
    return paths
