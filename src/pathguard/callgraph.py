"""Inter-contract call graph over the protection boundary, with cycle removal.

Nodes are (contract name, function id) pairs plus the synthetic program
entry ``S``. Transactions may enter any external function, so each one gets
an entry edge from S. Recursive callsites are replaced by surrogate edges
S => callee, mirroring the CFG treatment of backedges.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter

from . import dag
from .isa import EXTERNAL_CALLS, Op
from .program import ContractProgram, Visibility

S = ("<S>", -1)

K_ENTRY = "entry"
K_INTERNAL = "internal"
K_EXTERNAL = "external_protected"
K_SURROGATE = "surrogate"

Node = tuple[str, int]

_callee = attrgetter("callee")


@dataclass
class CallEdge:
    ceid: int  # dense id, also the callsite ordering key
    caller: Node
    callee: Node
    kind: str
    # (contract, caller fid, offset) for real callsites and the surrogates
    # that replace them; () for entry edges.
    site: tuple = ()


@dataclass
class CallGraph:
    nodes: list[Node]
    edges: list[CallEdge]
    warnings: list[str] = field(default_factory=list)

    def out_edges(self, node: Node) -> list[CallEdge]:
        return sorted((e for e in self.edges if e.caller == node), key=lambda e: e.ceid)

    def in_edges(self, node: Node) -> list[CallEdge]:
        return [e for e in self.edges if e.callee == node]

    def topo_order(self) -> list[Node]:
        return dag.topo_order([S, *self.nodes], self.out_edges, _callee, lambda n: n, "call graph")

    def to_json(self) -> dict:
        return {
            "nodes": [list(n) for n in [S, *self.nodes]],
            "edges": [
                {
                    "id": e.ceid,
                    "caller": list(e.caller),
                    "callee": list(e.callee),
                    "kind": e.kind,
                    "site": list(e.site),
                }
                for e in sorted(self.edges, key=lambda e: e.ceid)
            ],
            "warnings": self.warnings,
        }


def build_call_graph(
    programs: dict[str, ContractProgram], boundary: set[str]
) -> CallGraph:
    """Call graph of the protected programs.

    ``boundary`` lists protected contract names; calls to anything else are
    boundary events, not edges. External callsites annotated with a protected
    target but no callee function fan out to every external function of the
    target (the selector is forwarded dynamically).
    """
    order = [name for name in programs if name in boundary]
    nodes: list[Node] = []
    for name in order:
        for f in programs[name].functions:
            nodes.append((name, f.id))

    raw: list[tuple[tuple, Node, Node, str]] = []  # (sort key, caller, callee, kind)
    warnings: list[str] = []
    for ci, name in enumerate(order):
        prog = programs[name]
        for f in prog.functions:
            if f.visibility is Visibility.EXTERNAL:
                raw.append(((0, ci, f.id), S, (name, f.id), K_ENTRY))
    for ci, name in enumerate(order):
        prog = programs[name]
        for f in prog.functions:
            for off, instr in enumerate(f.body):
                if instr.op is Op.ICALL:
                    raw.append(
                        ((1, ci, f.id, off, 0), (name, f.id), (name, instr.imm), K_INTERNAL)
                    )
                elif instr.op in EXTERNAL_CALLS:
                    info = prog.callsites.get((f.id, off))
                    if info is None or info.target is None:
                        warnings.append(
                            f"{name}.{f.name}@{off}: unannotated external call "
                            "treated as unprotected"
                        )
                        continue
                    if info.target not in boundary:
                        continue
                    target = programs[info.target]
                    if info.callee_fn is not None:
                        callee = target.function_by_name(info.callee_fn)
                        callees = [callee]
                    else:
                        callees = target.external_functions()
                    for k, callee in enumerate(sorted(callees, key=lambda g: g.id)):
                        raw.append(
                            (
                                (1, ci, f.id, off, k),
                                (name, f.id),
                                (info.target, callee.id),
                                K_EXTERNAL,
                            )
                        )

    raw.sort(key=lambda item: item[0])
    edges = [
        CallEdge(
            ceid,
            caller,
            callee,
            kind,
            site=() if kind == K_ENTRY else (caller[0], caller[1], key[3]),
        )
        for ceid, (key, caller, callee, kind) in enumerate(raw)
    ]
    cg = CallGraph(nodes, edges, warnings)
    _cover_dead_functions(cg)
    return cg


def _cover_dead_functions(cg: CallGraph) -> None:
    """Give never-called functions an entry edge so labeling stays total."""
    reachable = dag.reachable(S, cg.out_edges, _callee)
    next_id = len(cg.edges)
    for node in cg.nodes:
        if node not in reachable:
            cg.warnings.append(f"{node[0]}.fn{node[1]}: unreachable, treated as entry")
            cg.edges.append(CallEdge(next_id, S, node, K_ENTRY))
            next_id += 1


def acyclicize_callgraph(cg: CallGraph) -> CallGraph:
    """Replace every DFS backedge (callsite-id order) with a surrogate S => callee."""
    backedges = dag.backedges(S, cg.out_edges, _callee)
    if not backedges:
        return cg
    removed = {e.ceid for e in backedges}
    cg.edges = [e for e in cg.edges if e.ceid not in removed]
    next_id = max((e.ceid for e in cg.edges), default=-1) + 1
    for be in sorted(backedges, key=lambda e: e.ceid):
        cg.edges.append(
            CallEdge(next_id, S, be.callee, K_SURROGATE, site=be.site)
        )
        next_id += 1
    cg.topo_order()  # raises if a cycle survived
    return cg
