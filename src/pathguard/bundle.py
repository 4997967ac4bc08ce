"""Whole-bundle analysis: per-function graphs, labelings, the call-edge
tables of protected call sites, fingerprints."""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

from .callgraph import (
    CallGraph,
    K_SURROGATE,
    Node,
    acyclicize_callgraph,
    build_call_graph,
)
from .ccp import CcLabeling, label_ccp
from .cfg import (
    ENTRY,
    EXIT,
    REAL,
    VIRTUAL_FALSE,
    VIRTUAL_TRUE,
    Cfg,
    acyclicize,
    build_cfg,
    insert_virtual_branches,
)
from .config import Config, DEFAULT_CONFIG
from .epp import EppLabeling, IndexSpaceOverflow, label_epp
from .guardcode import SiteTable
from .isa import EXTERNAL_CALLS
from .program import ContractProgram

Site = tuple[str, int, int]  # (contract, function id, offset)
# a vertex's steps: lookup key -> (edge value, dst or terminator offset)
Steps = dict[object, tuple[int, int]]


@dataclass
class BundleAnalysis:
    programs: dict[str, ContractProgram]
    boundary: set[str]
    # code id -> protected contract: the boundary, sorted; guard code and
    # the alarms it raises name a contract by its code id
    code_names: tuple[str, ...]
    config: Config
    cfgs: dict[tuple[str, int], Cfg] = field(default_factory=dict)
    epp: dict[tuple[str, int], EppLabeling] = field(default_factory=dict)
    callgraph: CallGraph | None = None
    ccp: CcLabeling | None = None
    # (site, callee node) -> (call edge value, via surrogate), every sited edge
    site_val: dict[tuple[Site, Node], tuple[int, bool]] = field(default_factory=dict)
    # protected external call site -> its call edges by selector (built in
    # ``analyze_bundle``); a call site is protected when it has one
    site_tables: dict[Site, SiteTable] = field(default_factory=dict)
    # (contract, function id) -> its step table, built on first use
    _steps: dict[tuple[str, int], dict[int, Steps]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    # the trace oracle's memo: (contract, function id, start vertex, steps,
    # overflow bits) of a Region event -> the walk's effect, affine in the
    # frame's ctx and the path sum (``oracle.TraceOracle._walk``)
    region_effects: dict[tuple, tuple] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    # detection's alarm memo: (code id, function id, combined) of an alarm
    # entry -> its (ctx id, epp id, context chain, block path), as tuples
    # (``workflow._enrich_alarm``); one entry per distinct alarmed pair,
    # whatever contract address the entry names
    alarm_decodes: dict[tuple[int, int, int], tuple] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def steps(self, contract: str, fid: int) -> dict[int, Steps]:
        """The function's step table (``step_table``), the trace oracle's
        successor index; built on first use, so that only trace replay pays
        for it."""
        key = (contract, fid)
        table = self._steps.get(key)
        if table is None:
            table = self._steps[key] = step_table(self.cfgs[key], self.epp[key].edge_val)
        return table

    def num_paths(self, contract: str, fid: int) -> int:
        return self.epp[(contract, fid)].total_paths

    def num_ccs(self, contract: str, fid: int) -> int:
        return self.ccp.num_ccs[(contract, fid)]

    def index_space(self, contract: str, fid: int) -> int:
        return self.num_paths(contract, fid) * self.num_ccs(contract, fid)

    def fingerprint(self) -> str:
        data = {
            "boundary": list(self.code_names),
            "width": self.config.width,
            "epp": {
                f"{c}:{f}": lab.fingerprint_data() for (c, f), lab in sorted(self.epp.items())
            },
            "ccp": self.ccp.fingerprint_data(),
            "sites": repr(sorted(self.site_tables.items())),
        }
        blob = json.dumps(data, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]


def step_table(cfg: Cfg, edge_val: dict[int, int]) -> dict[int, Steps]:
    """Every step out of every vertex of a finished CFG, keyed by what a
    trace shows of it, so that the trace oracle takes each by one lookup:

    - a block start offset: the real edge into the nonempty block there;
    - ``("arith" | "callret", offset, virtual kind)``: the virtual edge of
      that checked op or external call outcome;
    - ``"term"``: the vertex's terminator edge, if any (a block ends in one
      op, so it has at most one); its value is paired with the terminator's
      offset.

    Each other key maps to the edge's value and destination. Where several
    edges share a key, the first in eid order wins, as in a scan of the
    vertex's out-edges. Built in one pass over the edges.
    """
    steps: dict[int, Steps] = {v: {} for v in (ENTRY, *cfg.blocks)}
    for e in cfg.edges:
        kind, origin = e.kind, e.origin
        if kind == REAL:
            if e.dst != EXIT:
                dst = cfg.blocks[e.dst]
                if not dst.empty:
                    steps[e.src].setdefault(dst.start, (edge_val[e.eid], e.dst))
        elif kind == VIRTUAL_FALSE or kind == VIRTUAL_TRUE:
            key = (origin[0], origin[1], kind)
            steps[e.src].setdefault(key, (edge_val[e.eid], e.dst))
        if origin and origin[0] == "term":
            steps[e.src]["term"] = (edge_val[e.eid], origin[1])
    return steps


def analyze_bundle(
    programs: dict[str, ContractProgram],
    boundary: set[str] | None = None,
    config: Config = DEFAULT_CONFIG,
) -> BundleAnalysis:
    """Run the full analysis pipeline over every protected contract."""
    boundary = set(boundary) if boundary is not None else set(programs)
    ba = BundleAnalysis(programs, boundary, tuple(sorted(boundary)), config)
    for name in programs:
        if name not in boundary:
            continue
        prog = programs[name]
        for fn in prog.functions:
            cfg = insert_virtual_branches(acyclicize(build_cfg(fn)), fn)
            ba.cfgs[(name, fn.id)] = cfg
            ba.epp[(name, fn.id)] = label_epp(cfg, config.width)
    cg = acyclicize_callgraph(build_call_graph(programs, boundary))
    ba.callgraph = cg
    ba.ccp = label_ccp(cg, config.width)
    reached: dict[Site, dict[int, tuple[int, bool]]] = {}  # callee fid -> edge
    for e in cg.edges:
        if e.site:
            edge = (ba.ccp.call_val[e.ceid], e.kind == K_SURROGATE)
            ba.site_val[(e.site, e.callee)] = edge
            name, fid, off = e.site
            if programs[name].functions[fid].body[off].op in EXTERNAL_CALLS:
                reached.setdefault(e.site, {})[e.callee[1]] = edge
    for (name, fid, off), rows in reached.items():
        # a selector outside the cases runs the fallback: the default is the
        # fallback's row when the site reaches it, else its last callee's; a
        # case is a selector whose callee's row differs from the default
        target = programs[programs[name].callsites[(fid, off)].target]
        default = rows.get(target.fallback_id) or rows[max(rows)]
        cases = {
            sel: rows[callee]
            for sel, callee in sorted(target.selector_table.items())
            if rows.get(callee, default) != default
        }
        ba.site_tables[(name, fid, off)] = SiteTable(default, cases)
    # combined index space must leave sign headroom in a machine word
    for (name, fid), lab in ba.epp.items():
        space = lab.total_paths * ba.ccp.num_ccs[(name, fid)]
        if space > 1 << (config.width - 1):
            raise IndexSpaceOverflow(
                f"{name}.fn{fid}: combined index space {space} exceeds "
                f"2**{config.width - 1}"
            )
    return ba
