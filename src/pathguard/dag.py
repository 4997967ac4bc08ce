"""Graph algorithms shared by the per-function CFGs and the call graph.

Callers describe a graph by ``succs(v)``, the edges leaving v in visiting
order, and ``head(e)``, the vertex edge e enters. Ball-Larus numbering
(MICRO 1996) runs backward from EXIT over a CFG to index acyclic paths; run
forward from the program entry over the call graph, the same numbering
indexes calling contexts (Sumner et al., ICSE 2010).
"""

from __future__ import annotations

import heapq
from typing import Callable, Hashable, Iterable

Succs = Callable[[Hashable], Iterable]
Head = Callable[[object], Hashable]


def topo_order(vertices: Iterable, succs: Succs, head: Head, key: Callable, name: str) -> list:
    """Kahn's algorithm taking the least-key ready vertex; key is unique per vertex."""
    indeg = {v: 0 for v in vertices}
    for v in indeg:
        for e in succs(v):
            indeg[head(e)] += 1
    ready = [(key(v), v) for v, d in indeg.items() if d == 0]
    heapq.heapify(ready)
    order = []
    while ready:
        v = heapq.heappop(ready)[1]
        order.append(v)
        for e in succs(v):
            w = head(e)
            indeg[w] -= 1
            if indeg[w] == 0:
                heapq.heappush(ready, (key(w), w))
    if len(order) != len(indeg):
        raise ValueError(f"{name} has a cycle")
    return order


def backedges(root: Hashable, succs: Succs, head: Head) -> list:
    """DFS edges into a vertex on the stack, in discovery order."""
    found = []
    visited, onstack = {root}, {root}
    stack = [(root, iter(succs(root)))]
    while stack:
        v, it = stack[-1]
        for e in it:
            w = head(e)
            if w in onstack:
                found.append(e)
            elif w not in visited:
                visited.add(w)
                onstack.add(w)
                stack.append((w, iter(succs(w))))
                break
        else:
            onstack.discard(v)
            stack.pop()
    return found


def reachable(root: Hashable, succs: Succs, head: Head) -> set:
    seen = {root}
    work = [root]
    while work:
        for w in map(head, succs(work.pop())):
            if w not in seen:
                seen.add(w)
                work.append(w)
    return seen


def number(order: Iterable, root: Hashable, ranked: Callable, head: Head):
    """Ball-Larus numbering; returns (path count, edge value, ranked edges).

    ``order`` visits every edge's head before the edge's own vertex, and
    ``ranked(v, count)`` lists v's edge ids in value order once their heads
    are counted. An edge's value counts the paths through the edges ranked
    before it, so values summed along the paths from v to the root are
    exactly 0 .. count[v] - 1.
    """
    count = {root: 1}
    value = {}
    edge_order = {}
    for v in order:
        if v != root:
            edge_order[v] = ranked(v, count)
            count[v] = 0
            for e in edge_order[v]:
                value[e] = count[v]
                count[v] += count[head(e)]
    return count, value, edge_order


def decode(start, root, edge_order: dict, value: dict, head: Head, index: int) -> list:
    """Edge ids from start to the root whose values sum to index (greedy).

    At each vertex it takes the edge of greatest value that fits what is
    left of the index, the first such edge in ``edge_order`` on a tie.
    Values never fall along ``edge_order`` (``number`` builds them so), so
    the scan runs from the top down and stops at the first fit.

    Raises ValueError when the labeling is inconsistent with the index.
    """
    path = []
    v, rest = start, index
    while v != root:
        edges = edge_order[v]
        i = len(edges) - 1
        while i >= 0 and value[edges[i]] > rest:
            i -= 1
        if i < 0:
            raise ValueError(f"labeling invariant violated: no edge of {v} fits {rest}")
        fit = value[edges[i]]
        while i > 0 and value[edges[i - 1]] == fit:
            i -= 1
        best = edges[i]
        rest -= fit
        path.append(best)
        v = head(best)
    if rest:
        raise ValueError(f"labeling invariant violated: {rest} left at the root")
    return path
