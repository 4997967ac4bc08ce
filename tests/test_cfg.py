"""CFG construction, backedge detection and the acyclic transform."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathguard.asm import assemble
from pathguard.bundle import analyze_bundle
from pathguard.cfg import (
    ENTRY,
    EXIT,
    REAL,
    SURROGATE_ENTRY,
    SURROGATE_EXIT,
    VIRTUAL_FALSE,
    VIRTUAL_TRUE,
    Cfg,
    acyclicize,
    build_cfg,
    find_backedges,
    insert_virtual_branches,
)
from pathguard.fixtures import ALL_SCENARIOS

from oracle_reference import scan_table


def _names(cfg):
    """Map block ids to 1-based numbers in offset order, ENTRY/EXIT kept."""
    ordered = sorted(cfg.blocks, key=cfg.block_sort_key)
    num = {bid: i + 1 for i, bid in enumerate(ordered)}
    num[ENTRY] = "ENTRY"
    num[EXIT] = "EXIT"
    return num


def _edge_set(cfg):
    num = _names(cfg)
    return {(num[e.src], num[e.dst], e.kind) for e in cfg.edges}


def test_straight_line_single_block():
    prog = assemble(
        "contract t { fn f external { PUSH 1 PUSH 2 ADD POP STOP } }"
    )
    cfg = build_cfg(prog.functions[0])
    assert len(cfg.blocks) == 1
    assert _edge_set(cfg) == {("ENTRY", 1, REAL), (1, "EXIT", REAL)}


def test_diamond_four_blocks_six_edges(diamond):
    cfg = build_cfg(diamond.functions[0])
    assert len(cfg.blocks) == 4
    assert len(cfg.edges) == 6
    assert find_backedges(cfg) == []


def test_loopy_matches_reference_shape(loopy):
    cfg = build_cfg(loopy.functions[0])
    assert len(cfg.blocks) == 5
    assert _edge_set(cfg) == {
        ("ENTRY", 1, REAL),
        (1, 2, REAL),
        (1, 5, REAL),
        (2, 3, REAL),
        (3, 4, REAL),
        (3, 1, REAL),
        (4, 3, REAL),
        (5, "EXIT", REAL),
    }


def test_loopy_backedges(loopy):
    cfg = build_cfg(loopy.functions[0])
    num = _names(cfg)
    bes = {(num[e.src], num[e.dst]) for e in find_backedges(cfg)}
    assert bes == {(3, 1), (4, 3)}


def test_loopy_acyclic_form(loopy):
    """Nine distinct edges; the header shared with the entry block keeps one edge."""
    cfg = acyclicize(build_cfg(loopy.functions[0]))
    assert len(cfg.edges) == 9
    assert _edge_set(cfg) == {
        ("ENTRY", 1, REAL),
        ("ENTRY", 3, SURROGATE_ENTRY),
        (1, 2, REAL),
        (1, 5, REAL),
        (2, 3, REAL),
        (3, 4, REAL),
        (3, "EXIT", SURROGATE_EXIT),
        (4, "EXIT", SURROGATE_EXIT),
        (5, "EXIT", REAL),
    }
    cfg.topo_order()  # must not raise


def test_acyclic_cfg_unchanged(diamond):
    cfg = build_cfg(diamond.functions[0])
    before = _edge_set(cfg)
    assert _edge_set(acyclicize(cfg)) == before


def test_self_loop_surrogates():
    prog = assemble(
        """
        contract t { fn f external {
               PUSH 0
               POP
          top: JUMPDEST
               PUSH 0
               CALLDATALOAD
               JUMPI top
               STOP
        } }
        """
    )
    cfg = build_cfg(prog.functions[0])
    bes = find_backedges(cfg)
    assert len(bes) == 1 and bes[0].src == bes[0].dst
    acyclicize(cfg, bes)
    loop_bid = bes[0].src
    kinds = {(e.src, e.dst, e.kind) for e in cfg.edges}
    assert (ENTRY, loop_bid, SURROGATE_ENTRY) in kinds
    assert (loop_bid, EXIT, SURROGATE_EXIT) in kinds
    cfg.topo_order()


def test_virtual_branch_on_arith_doubles_paths():
    from pathguard.epp import label_epp

    prog = assemble("contract t { fn f external { PUSH 1 PUSH 2 ADD POP STOP } }")
    fn = prog.functions[0]
    plain = label_epp(acyclicize(build_cfg(fn)))
    assert plain.total_paths == 1
    augmented = label_epp(insert_virtual_branches(acyclicize(build_cfg(fn)), fn))
    assert augmented.total_paths == 2


def test_two_checked_ops_four_paths():
    from pathguard.epp import label_epp

    prog = assemble(
        "contract t { fn f external { PUSH 1 PUSH 2 ADD PUSH 3 MUL POP STOP } }"
    )
    fn = prog.functions[0]
    cfg = insert_virtual_branches(acyclicize(build_cfg(fn)), fn)
    assert label_epp(cfg).total_paths == 4


def test_unreachable_block_pruned():
    prog = assemble(
        """
        contract t { fn f external {
          JUMP out
          PUSH 1
          POP
          STOP
        out: JUMPDEST
          STOP
        } }
        """
    )
    cfg = build_cfg(prog.functions[0])
    assert cfg.warnings
    cfg.topo_order()


def random_cfg(rng: random.Random, max_blocks: int = 8) -> Cfg:
    """Random single-entry digraph shaped like a CFG (1 or 2 successors)."""
    n = rng.randint(1, max_blocks)
    cfg = Cfg("rand", 0, {}, [])
    for i in range(n):
        cfg.new_block(i, i + 1)
    cfg.add_edge(ENTRY, 0, REAL, ("entry",))
    for b in range(n):
        succs = rng.sample(range(n), k=min(n, rng.choice([1, 1, 2])))
        if b == n - 1 or rng.random() < 0.2:
            cfg.add_edge(b, EXIT, REAL, ("term", b))
            succs = succs[:1] if rng.random() < 0.5 else []
        for s in succs:
            cfg.add_edge(b, s, REAL, ("fall", b))
    from pathguard.cfg import _prune_unreachable

    _prune_unreachable(cfg)
    return cfg


@pytest.mark.parametrize("seed", range(200))
def test_backedge_removal_always_yields_dag(seed):
    rng = random.Random(seed)
    cfg = random_cfg(rng)
    acyclicize(cfg)
    cfg.topo_order()  # raises on a cycle


NESTED_LOOPS_SRC = """
contract nest {
  fn f external {
    outer: JUMPDEST
        PUSH 10
        MLOAD
        JUMPI done
    inner: JUMPDEST
        PUSH 11
        MLOAD
        JUMPI outer_step
        JUMP inner
    outer_step: JUMPDEST
        JUMP outer
    done: JUMPDEST
        STOP
  }
}
"""


def _simple_cycles(cfg):
    """All simple cycles over real edges, by DFS path enumeration."""
    cycles = []
    blocks = sorted(cfg.blocks, key=cfg.block_sort_key)
    succ = cfg.successors()

    def walk(start, node, path_edges, seen):
        for e in succ[node]:
            if e.dst == start:
                cycles.append(tuple(path_edges + [e.eid]))
            elif e.dst not in seen and e.dst in cfg.blocks:
                walk(start, e.dst, path_edges + [e.eid], seen | {e.dst})

    for b in blocks:
        walk(b, b, [], {b})
    # canonicalize rotations: keep each cycle once by its sorted edge set
    unique = {}
    for cyc in cycles:
        unique[frozenset(cyc)] = cyc
    return list(unique.values())


def test_nested_loops_each_cycle_has_exactly_one_backedge():
    prog = assemble(NESTED_LOOPS_SRC)
    cfg = build_cfg(prog.functions[0])
    backedges = {e.eid for e in find_backedges(cfg)}
    assert len(backedges) == 2  # inner and outer
    cycles = _simple_cycles(cfg)
    assert cycles, "fixture must actually contain cycles"
    for cycle in cycles:
        assert len(set(cycle) & backedges) == 1


def _assert_steps_match_scan(ba):
    """Every function's step table, the trace oracle's successor index,
    equals the first match of the out-edge scans in tests/oracle_reference.py
    for every vertex, at every offset of the body and one past its end."""
    for (name, fid), cfg in ba.cfgs.items():
        offsets = range(len(ba.programs[name].functions[fid].body) + 1)
        assert ba.steps(name, fid) == scan_table(cfg, ba.epp[(name, fid)], offsets)


@pytest.mark.parametrize("scenario", ALL_SCENARIOS, ids=lambda s: s.name)
def test_bundle_successor_index_matches_edge_scan(scenario):
    bundle = scenario.bundle()
    _assert_steps_match_scan(analyze_bundle(bundle.programs, bundle.boundary, bundle.config))


_PEER_SRC = """
contract p {
  fn g external selector=0x2 {
    STOP
  }
}
"""


@st.composite
def _generated_bundles(draw):
    """Contract ``t`` with one to three functions, ``f0`` external and the
    rest internal, each a run of labelled segments. A segment holds PUSHes,
    checked arithmetic, CALLs and DELEGATECALLs into contract ``p``, ICALLs,
    JUMPIs and JUMPs to any label (so loops too) and terminators. ``p`` is
    protected or not."""
    nfns = draw(st.integers(1, 3))
    ops = st.sampled_from(
        ["PUSH 1", "ADD", "SUB", "MUL", "CALL target=p fn=g",
         "DELEGATECALL target=p fn=g", "ICALL", "JUMPI", "JUMP", "exit"]
    )
    lines = ["contract t {"]
    for fid in range(nfns):
        exits = ["STOP", "RETURN", "REVERT"] if fid == 0 else ["IRET"]
        segments = draw(st.lists(st.lists(ops, max_size=6), min_size=1, max_size=4))
        head = "external selector=0x1" if fid == 0 else "internal"
        lines.append(f"  fn f{fid} {head} {{")
        for i, segment in enumerate(segments):
            lines.append(f"  l{i}: JUMPDEST")
            for op in segment:
                if op == "ICALL":
                    if nfns == 1:
                        continue
                    op = f"ICALL f{draw(st.integers(1, nfns - 1))}"
                elif op in ("JUMPI", "JUMP"):
                    op = f"{op} l{draw(st.integers(0, len(segments) - 1))}"
                elif op == "exit":
                    op = draw(st.sampled_from(exits))
                lines.append(f"    {op}")
        lines.append(f"    {draw(st.sampled_from(exits))}")
        lines.append("  }")
    lines.append("}")
    programs = {"t": assemble("\n".join(lines)), "p": assemble(_PEER_SRC)}
    return programs, draw(st.sampled_from([{"t"}, {"t", "p"}]))


@settings(max_examples=100, deadline=None)
@given(case=_generated_bundles())
def test_step_table_matches_edge_scan_on_generated_bodies(case):
    programs, boundary = case
    _assert_steps_match_scan(analyze_bundle(programs, boundary))
