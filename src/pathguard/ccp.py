"""Calling-context indexing: the path labeling scheme run forward over the call graph.

NumCCs(f) counts call-edge paths from the program entry S to f. Values on
call edges make the sum along any pending-callsite chain a unique context id
in [0, NumCCs(f)); return edges carry the negated value so a running counter
telescopes back on return.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import dag
from .callgraph import CallEdge, CallGraph, Node, S
from .epp import IndexSpaceOverflow


@dataclass
class CcLabeling:
    num_ccs: dict[Node, int]
    call_val: dict[int, int]  # ceid -> value
    in_order: dict[Node, list[int]]  # callee -> in-edge ceids, value order

    def fingerprint_data(self) -> list:
        return [
            sorted((list(n), c) for n, c in self.num_ccs.items()),
            sorted(self.call_val.items()),
        ]


def label_ccp(cg: CallGraph, width: int = 64) -> CcLabeling:
    """Label the acyclic call graph in topological order.

    In-edges are ordered by callsite id; entry edges precede real callsites
    and surrogates come last by construction of the id space.
    """
    caller = {e.ceid: e.caller for e in cg.edges}
    in_edges: dict[Node, list[int]] = {}
    for e in cg.edges:  # in ceid order
        in_edges.setdefault(e.callee, []).append(e.ceid)
    topo = cg.topo_order()
    num_ccs, call_val, in_order = dag.number(
        topo, S, lambda node, _: in_edges.get(node, []), caller.__getitem__
    )
    for node in topo:
        if num_ccs[node] > 1 << (width - 1):
            raise IndexSpaceOverflow(f"{node}: {num_ccs[node]} contexts exceed the index space")
    return CcLabeling(num_ccs=num_ccs, call_val=call_val, in_order=in_order)


def context_to_id(lab: CcLabeling, chain: list[CallEdge]) -> int:
    """Id of a pending-callsite chain from S (outermost first)."""
    if not chain or chain[0].caller != S:
        raise ValueError("context chain must start at the program entry")
    for a, b in zip(chain, chain[1:]):
        if a.callee != b.caller:
            raise ValueError("context chain does not link")
    return sum(lab.call_val[e.ceid] for e in chain)


def id_to_context(cg: CallGraph, lab: CcLabeling, node: Node, ctx_id: int) -> list[CallEdge]:
    """Regenerate the callsite chain for a context id (greedy decode, backward)."""
    if not 0 <= ctx_id < lab.num_ccs[node]:
        raise ValueError(f"context id {ctx_id} out of range 0..{lab.num_ccs[node] - 1}")
    edge = cg.edge
    ceids = dag.decode(node, S, lab.in_order, lab.call_val, lambda ceid: edge(ceid).caller, ctx_id)
    return [edge(ceid) for ceid in reversed(ceids)]


def enumerate_contexts(cg: CallGraph, node: Node) -> list[list[CallEdge]]:
    """All call-edge paths S -> node by exhaustive DFS; the test oracle."""
    out: list[list[CallEdge]] = []
    succ = cg.successors()

    def walk(cur: Node, acc: list[CallEdge]) -> None:
        if cur == node:
            out.append(list(acc))
            return  # acyclic: no path revisits node
        for e in succ[cur]:
            acc.append(e)
            walk(e.callee, acc)
            acc.pop()

    walk(S, [])
    return out

