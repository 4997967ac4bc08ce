"""Per-function control flow graphs: construction, backedge removal, virtual branches.

The acyclic form replaces every backedge w -> v with surrogate edges
ENTRY -> v and w -> EXIT (deduplicated). Virtual branches split blocks at
checked arithmetic and fork the fallthrough of external calls, so that
wraparound and failed-call outcomes become path-distinguishing edges.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property
from operator import attrgetter

from . import dag
from .isa import CHECKED_ARITH, EXTERNAL_CALLS, TERMINATORS, Op
from .program import FunctionDef

ENTRY = -1
EXIT = -2

REAL = "real"
SURROGATE_ENTRY = "surrogate_entry"
SURROGATE_EXIT = "surrogate_exit"
VIRTUAL_TRUE = "virtual_true"
VIRTUAL_FALSE = "virtual_false"

_dst = attrgetter("dst")


@dataclass(frozen=True)
class Block:
    bid: int
    start: int  # first instruction offset; synthetic blocks may be empty
    end: int

    @property
    def empty(self) -> bool:
        return self.start >= self.end


@dataclass
class Edge:
    eid: int
    src: int
    dst: int
    kind: str = REAL
    # Provenance tag driving the oracle and the instrumenter:
    #   ("fall", off) ("jump", off) ("branch", off, taken) ("term", off)
    #   ("callret", off) ("arith", off, opname) ("backedge", (w_bid, v_bid))
    #   ("surrogate", ((w, v), ...))
    origin: tuple = ()


@dataclass
class Cfg:
    fn_name: str
    fid: int
    blocks: dict[int, Block]
    edges: list[Edge]
    warnings: list[str] = field(default_factory=list)
    # (jump offset, target start offset) of removed backedges; stable across
    # later block splits, used by the oracle and the instrumenter.
    backedges: list[tuple[int, int]] = field(default_factory=list)
    _next_bid: int = 0
    _next_eid: int = 0

    # -- structure helpers -------------------------------------------------

    def block_sort_key(self, bid: int):
        if bid == ENTRY:
            return (-1, -1)
        if bid == EXIT:
            return (1 << 60, 1 << 60)
        b = self.blocks[bid]
        return (b.start, bid)

    def successors(self) -> dict[int, list[Edge]]:
        """Out-edges of every vertex in ``edges`` order (eid order), built in
        one pass.

        A snapshot: later edge changes do not reach it, so build it only
        once the edges it must see are in place.
        """
        succ: dict[int, list[Edge]] = {v: [] for v in self.vertices()}
        for e in self.edges:
            succ[e.src].append(e)
        return succ

    def block_at(self, start: int) -> int:
        """Id of the nonempty block starting at offset ``start``.

        Indexed on first use, so call it only on a finished graph.
        """
        return self._block_starts[start]

    @cached_property
    def _block_starts(self) -> dict[int, int]:
        return {b.start: bid for bid, b in self.blocks.items() if not b.empty}

    def edge(self, eid: int) -> Edge:
        """The edge with id ``eid``; indexed on first use, like ``block_at``."""
        return self._edges_by_id[eid]

    @cached_property
    def _edges_by_id(self) -> dict[int, Edge]:
        return {e.eid: e for e in self.edges}

    def new_block(self, start: int, end: int) -> Block:
        b = Block(self._next_bid, start, end)
        self._next_bid += 1
        self.blocks[b.bid] = b
        return b

    def add_edge(self, src: int, dst: int, kind: str = REAL, origin: tuple = ()) -> Edge:
        e = Edge(self._next_eid, src, dst, kind, origin)
        self._next_eid += 1
        self.edges.append(e)
        return e

    def vertices(self) -> list[int]:
        return [ENTRY, *sorted(self.blocks, key=self.block_sort_key), EXIT]

    def topo_order(self) -> list[int]:
        """Deterministic topological order; raises ValueError on a cycle."""
        return dag.topo_order(
            self.vertices(),
            self.successors().__getitem__,
            _dst,
            self.block_sort_key,
            f"{self.fn_name}: graph",
        )

    def to_json(self) -> dict:
        names = {ENTRY: "ENTRY", EXIT: "EXIT"}
        return {
            "function": self.fn_name,
            "vertices": [
                {
                    "id": names.get(v, v),
                    "start": None if v in names else self.blocks[v].start,
                    "end": None if v in names else self.blocks[v].end,
                }
                for v in self.vertices()
            ],
            "edges": [
                {
                    "src": names.get(e.src, e.src),
                    "dst": names.get(e.dst, e.dst),
                    "kind": e.kind,
                    "origin": list(e.origin),
                }
                for e in sorted(
                    self.edges,
                    key=lambda e: (
                        self.block_sort_key(e.src),
                        self.block_sort_key(e.dst),
                        e.kind,
                        e.eid,
                    ),
                )
            ],
            "warnings": self.warnings,
        }


def build_cfg(fn: FunctionDef) -> Cfg:
    """Raw CFG with real edges only; blocks split at jumps, calls and terminators."""
    body = fn.body
    leaders = sorted(fn.leaders)
    cfg = Cfg(fn.name, fn.id, {}, [])
    by_start: dict[int, Block] = {}
    bounds = leaders + [len(body)]
    for i, start in enumerate(leaders):
        blk = cfg.new_block(start, bounds[i + 1])
        by_start[start] = blk

    cfg.add_edge(ENTRY, by_start[0].bid, REAL, ("entry",))
    for blk in list(cfg.blocks.values()):
        last_off = blk.end - 1
        last = body[last_off]
        op = last.op
        if op is Op.JUMP:
            cfg.add_edge(blk.bid, by_start[last.imm].bid, REAL, ("jump", last_off))
        elif op is Op.JUMPI:
            fall = by_start[blk.end]
            cfg.add_edge(blk.bid, fall.bid, REAL, ("branch", last_off, False))
            cfg.add_edge(blk.bid, by_start[last.imm].bid, REAL, ("branch", last_off, True))
        elif op in TERMINATORS:
            cfg.add_edge(blk.bid, EXIT, REAL, ("term", last_off))
        elif op in EXTERNAL_CALLS or op is Op.ICALL:
            cfg.add_edge(blk.bid, by_start[blk.end].bid, REAL, ("callret", last_off))
        else:
            cfg.add_edge(blk.bid, by_start[blk.end].bid, REAL, ("fall", last_off))

    _prune_unreachable(cfg)
    return cfg


def _prune_unreachable(cfg: Cfg) -> None:
    seen = dag.reachable(ENTRY, cfg.successors().__getitem__, _dst)
    dead = [b for b in cfg.blocks if b not in seen]
    if dead:
        cfg.warnings.append(f"{cfg.fn_name}: unreachable blocks pruned: {sorted(dead)}")
        cfg.edges = [e for e in cfg.edges if e.src in seen]
        for b in dead:
            del cfg.blocks[b]


def find_backedges(cfg: Cfg) -> list[Edge]:
    """DFS backedges; successors visited in ascending block-offset order."""
    succ = cfg.successors()
    for outs in succ.values():
        outs.sort(key=lambda e: (cfg.block_sort_key(e.dst), e.eid))
    return dag.backedges(ENTRY, succ.__getitem__, _dst)


def acyclicize(cfg: Cfg, backedges: list[Edge] | None = None) -> Cfg:
    """Replace backedges with deduplicated surrogate edges; result is a DAG."""
    if backedges is None:
        backedges = find_backedges(cfg)
    if not backedges:
        return cfg
    _warn_irreducible(cfg, backedges)
    removed = {e.eid for e in backedges}
    for e in backedges:
        jump_off = cfg.blocks[e.src].end - 1
        cfg.backedges.append((jump_off, cfg.blocks[e.dst].start))
    cfg.edges = [e for e in cfg.edges if e.eid not in removed]
    by_header: dict[int, list[tuple[int, int]]] = {}
    by_source: dict[int, list[tuple[int, int]]] = {}
    for e in sorted(backedges, key=lambda e: e.eid):
        by_header.setdefault(e.dst, []).append((e.src, e.dst))
        by_source.setdefault(e.src, []).append((e.src, e.dst))
    # Surrogates are deduplicated, including against the existing real
    # ENTRY edge when the loop header is the entry block.
    pairs = {(e.src, e.dst) for e in cfg.edges}
    for header in sorted(by_header, key=cfg.block_sort_key):
        if (ENTRY, header) not in pairs:
            cfg.add_edge(ENTRY, header, SURROGATE_ENTRY, ("surrogate", tuple(by_header[header])))
    for source in sorted(by_source, key=cfg.block_sort_key):
        if (source, EXIT) not in pairs:
            cfg.add_edge(source, EXIT, SURROGATE_EXIT, ("surrogate", tuple(by_source[source])))
    cfg.topo_order()  # raises if the removal missed a cycle
    return cfg


def _warn_irreducible(cfg: Cfg, backedges: list[Edge]) -> None:
    dom = _dominators(cfg)
    for e in backedges:
        if e.dst not in dom.get(e.src, set()):
            cfg.warnings.append(
                f"{cfg.fn_name}: irreducible loop at backedge {e.src}->{e.dst}; "
                "trace decomposition depends on DFS order"
            )


def _dominators(cfg: Cfg) -> dict[int, set[int]]:
    verts = cfg.vertices()
    dom = {v: set(verts) for v in verts}
    dom[ENTRY] = {ENTRY}
    preds: dict[int, list[int]] = {v: [] for v in verts}
    for e in cfg.edges:
        preds[e.dst].append(e.src)
    changed = True
    while changed:
        changed = False
        for v in verts:
            if v == ENTRY or not preds[v]:
                continue
            new = set.intersection(*(dom[p] for p in preds[v])) | {v}
            if new != dom[v]:
                dom[v] = new
                changed = True
    return dom


def insert_virtual_branches(cfg: Cfg, fn: FunctionDef) -> Cfg:
    """Split blocks at ADD/SUB/MUL and fork external-call returns.

    Must run on the acyclic CFG. Virtual edge pairs share src and dst; the
    true arm means "wraparound happened" or "call returned false".
    """
    body = fn.body
    for bid in sorted(list(cfg.blocks), key=cfg.block_sort_key):
        blk = cfg.blocks[bid]
        checked = [
            off for off in range(blk.start, blk.end) if body[off].op in CHECKED_ARITH
        ]
        cur = blk
        for off in checked:
            opname = body[off].op.value
            # Split cur into [start, off+1) and [off+1, end); the tail keeps
            # the original out-edges.
            tail = cfg.new_block(off + 1, cur.end)
            for e in cfg.edges:
                if e.src == cur.bid:
                    e.src = tail.bid
            cfg.blocks[cur.bid] = replace(cur, end=off + 1)
            # false arm first: no-wraparound is the hot case and gets value 0
            cfg.add_edge(cur.bid, tail.bid, VIRTUAL_FALSE, ("arith", off, opname))
            cfg.add_edge(cur.bid, tail.bid, VIRTUAL_TRUE, ("arith", off, opname))
            cur = tail
    for e in list(cfg.edges):
        if e.origin and e.origin[0] == "callret":
            off = e.origin[1]
            if body[off].op in EXTERNAL_CALLS:
                cfg.edges.remove(e)
                cfg.add_edge(e.src, e.dst, VIRTUAL_FALSE, ("callret", off))
                cfg.add_edge(e.src, e.dst, VIRTUAL_TRUE, ("callret", off))
    cfg.topo_order()
    return cfg
