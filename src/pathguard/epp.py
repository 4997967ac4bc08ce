"""Acyclic path index labeling over a DAG-form CFG, and where its
increments run.

NumPaths(v) counts ENTRY-to-EXIT paths from v; edge values make the sum of
values along any complete path a unique index in [0, NumPaths(ENTRY)).
Edge ordering (``minimize_nonzero``) fixes the values, and so the indices,
and nothing else. Which edges carry code is decided by ``place_increments``:
Ball & Larus (TOPLAS 1994) move the values onto the chords of a maximum
spanning tree weighted by how often each edge runs, keeping every path's
sum; with no weights it keeps the values where they are.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import dag
from .cfg import ENTRY, EXIT, Cfg, Edge, SURROGATE_ENTRY, SURROGATE_EXIT, VIRTUAL_FALSE


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
    order: list[int]  # vertices in topological order, ENTRY first

    @property
    def total_paths(self) -> int:
        return self.num_paths[ENTRY]

    def fingerprint_data(self) -> list:
        return [
            sorted((v, n) for v, n in self.num_paths.items()),
            sorted(self.edge_val.items()),
        ]


def minimize_nonzero(cfg: Cfg, num_paths: dict[int, int], outs: list[Edge]) -> list[Edge]:
    """One vertex's out-edges in value order: descending NumPaths(dst), ties by offset.

    The first edge gets value zero. This fixes the path indices only; the
    edge it zeroes carries no code only while ``place_increments`` has no
    training hits to weigh.
    """
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

    order = cfg.topo_order()
    num_paths, edge_val, edge_order = dag.number(
        reversed(order), EXIT, ranked, dst.__getitem__
    )
    if num_paths[ENTRY] > 1 << (width - 1):
        raise IndexSpaceOverflow(
            f"{cfg.fn_name}: {num_paths[ENTRY]} paths exceed the index space"
        )

    entry_val, reset_val, exit_val = endpoint_values(cfg, edge_val)
    return EppLabeling(
        num_paths=num_paths,
        edge_val=edge_val,
        edge_order=edge_order,
        entry_val=entry_val,
        reset_val=reset_val,
        exit_val=exit_val,
        order=order,
    )


def endpoint_values(cfg: Cfg, values: dict[int, int]):
    """(entry value, reset values, exit values) of per-edge ``values``.

    The entry value is the real ENTRY edge's. Reset values cover every ENTRY
    successor; loop headers consult them when a backedge resets the path
    accumulator (the entry edge may be shared). Exit values are the
    surrogate EXIT edges', by backedge source.
    """
    entry_val = 0
    reset_val: dict[int, int] = {}
    exit_val: dict[int, int] = {}
    for e in cfg.edges:
        if e.src == ENTRY:
            reset_val[e.dst] = values[e.eid]
            if e.kind != SURROGATE_ENTRY:
                entry_val = values[e.eid]
        if e.kind == SURROGATE_EXIT:
            exit_val[e.src] = values[e.eid]
    return entry_val, reset_val, exit_val


def place_increments(
    cfg: Cfg, lab: EppLabeling, weight: dict[int, int], width: int
) -> dict[int, int]:
    """Per-edge increments whose sum along every ENTRY->EXIT path is that
    path's index mod 2**width, zero on a maximum spanning tree by ``weight``.

    Kruskal picks the tree over the undirected graph plus a closing edge
    EXIT->ENTRY of value 0; the closing edge and every VIRTUAL_FALSE arm
    (its sequence adds only on the other arm) are in the tree first. Ties
    go to the first edge of each ``edge_order``: those edges carry value 0,
    so with no weight the increments are the labeling's values. Potentials
    phi, 0 at ENTRY and hence at EXIT, make each tree edge's increment
    val + phi(src) - phi(dst) zero; a path's sum is its index plus
    phi(ENTRY) - phi(EXIT).
    """
    mask = (1 << width) - 1
    val = lab.edge_val
    root = {v: v for v in lab.order}

    def find(v: int) -> int:
        while root[v] != v:
            root[v] = v = root[root[v]]
        return v

    first = {order[0] for order in lab.edge_order.values()}
    ranked = sorted(
        cfg.edges,
        key=lambda e: (
            e.kind != VIRTUAL_FALSE, -weight.get(e.eid, 0), e.eid not in first, e.eid
        ),
    )
    root[EXIT] = ENTRY
    tree: dict[int, list[tuple[int, int]]] = {v: [] for v in root}
    for e in ranked:
        a, b = find(e.src), find(e.dst)
        if a != b:
            root[a] = b
            tree[e.src].append((e.dst, val[e.eid]))
            tree[e.dst].append((e.src, -val[e.eid]))
    phi = {ENTRY: 0, EXIT: 0}
    work = [ENTRY, EXIT]
    while work:
        v = work.pop()
        for w, delta in tree[v]:
            if w not in phi:
                phi[w] = phi[v] + delta
                work.append(w)
    return {e.eid: (val[e.eid] + phi[e.src] - phi[e.dst]) & mask for e in cfg.edges}


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
