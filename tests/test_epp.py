"""Path index labeling: frozen reference values plus brute-force bijection."""

import random

import pytest

from pathguard import dag
from pathguard.cfg import ENTRY, EXIT, REAL, Cfg, acyclicize, build_cfg
from pathguard.epp import (
    IndexSpaceOverflow,
    enumerate_paths,
    index_to_path,
    label_epp,
    minimize_nonzero,
    path_to_index,
)


def _block_nums(cfg):
    ordered = sorted(cfg.blocks, key=cfg.block_sort_key)
    return {bid: i + 1 for i, bid in enumerate(ordered)}


def test_loopy_numpaths_frozen(loopy):
    cfg = acyclicize(build_cfg(loopy.functions[0]))
    lab = label_epp(cfg)
    num = _block_nums(cfg)
    by_name = {num.get(v, v): n for v, n in lab.num_paths.items()}
    assert by_name == {EXIT: 1, 5: 1, 4: 1, 3: 2, 2: 2, 1: 3, ENTRY: 5}


def test_loopy_nonzero_vals_frozen(loopy):
    cfg = acyclicize(build_cfg(loopy.functions[0]))
    lab = label_epp(cfg)
    num = _block_nums(cfg)
    nonzero = {
        (num.get(e.src, "ENTRY" if e.src == ENTRY else "EXIT"),
         num.get(e.dst, "EXIT" if e.dst == EXIT else "ENTRY"),
         e.kind): lab.edge_val[e.eid]
        for e in cfg.edges
        if lab.edge_val[e.eid]
    }
    assert nonzero == {
        ("ENTRY", 3, "surrogate_entry"): 3,
        (1, 5, "real"): 2,
        (3, "EXIT", "surrogate_exit"): 1,
    }
    # reset and surrogate-exit values used by backedge instrumentation
    assert {num[v]: val for v, val in lab.reset_val.items()} == {1: 0, 3: 3}
    assert {num[v]: val for v, val in lab.exit_val.items()} == {3: 1, 4: 0}
    assert lab.entry_val == 0


def test_loopy_reference_path_indexes(loopy):
    """The five canonical paths index to 0..4; the all-first path to 0."""
    cfg = acyclicize(build_cfg(loopy.functions[0]))
    lab = label_epp(cfg)
    got = sorted(path_to_index(lab, p) for p in enumerate_paths(cfg))
    assert got == [0, 1, 2, 3, 4]
    num = _block_nums(cfg)
    for path in enumerate_paths(cfg):
        names = [num.get(e.dst, "EXIT") for e in path[:-1]]
        if names == [1, 2, 3, 4]:
            assert path_to_index(lab, path) == 0


def test_minimize_nonzero_ordering_rule():
    # successors with NumPaths {3, 1}: the heavy one gets value 0
    cfg = Cfg("t", 0, {}, [])
    for i in range(4):
        cfg.new_block(i, i + 1)
    cfg.add_edge(ENTRY, 0, REAL, ("entry",))
    heavy, light = 1, 2
    cfg.add_edge(0, light, REAL, ("fall", 0))
    cfg.add_edge(0, heavy, REAL, ("branch", 0, True))
    for _ in range(3):
        tail = cfg.new_block(10 + _, 11 + _)
        cfg.add_edge(heavy, tail.bid, REAL, ("fall", heavy))
        cfg.add_edge(tail.bid, EXIT, REAL, ("term", tail.bid))
    cfg.add_edge(light, EXIT, REAL, ("term", light))
    cfg.add_edge(3, EXIT, REAL, ("term", 3))
    from pathguard.cfg import _prune_unreachable

    _prune_unreachable(cfg)
    lab = label_epp(cfg)
    assert lab.num_paths[heavy] == 3 and lab.num_paths[light] == 1
    vals = {
        e.dst: lab.edge_val[e.eid] for e in cfg.successors()[0]
    }
    assert vals[heavy] == 0 and vals[light] == 3


def test_equal_successors_tie_by_offset():
    cfg = Cfg("t", 0, {}, [])
    for i in range(3):
        cfg.new_block(i, i + 1)
    cfg.add_edge(ENTRY, 0, REAL, ("entry",))
    cfg.add_edge(0, 2, REAL, ("branch", 0, True))
    cfg.add_edge(0, 1, REAL, ("branch", 0, False))
    cfg.add_edge(1, EXIT, REAL, ("term", 1))
    cfg.add_edge(2, EXIT, REAL, ("term", 2))
    lab = label_epp(cfg)
    vals = {e.dst: lab.edge_val[e.eid] for e in cfg.successors()[0]}
    assert vals[1] == 0 and vals[2] == 1  # lower offset wins the zero


def test_index_round_trip(loopy, diamond):
    for prog in (loopy, diamond):
        cfg = acyclicize(build_cfg(prog.functions[0]))
        lab = label_epp(cfg)
        for pid in range(lab.total_paths):
            path = index_to_path(cfg, lab, pid)
            assert path_to_index(lab, path) == pid
        with pytest.raises(ValueError):
            index_to_path(cfg, lab, lab.total_paths)


def test_single_block_all_zero():
    from pathguard.asm import assemble

    prog = assemble("contract t { fn f external { STOP } }")
    cfg = acyclicize(build_cfg(prog.functions[0]))
    lab = label_epp(cfg)
    assert lab.total_paths == 1
    assert all(v == 0 for v in lab.edge_val.values())


def test_index_space_overflow():
    # width 8 allows at most 128 paths; a 256-path ladder must be rejected
    cfg = Cfg("t", 0, {}, [])
    n = 9
    for i in range(n):
        cfg.new_block(i, i + 1)
    cfg.add_edge(ENTRY, 0, REAL, ("entry",))
    for i in range(n - 1):
        cfg.add_edge(i, i + 1, REAL, ("branch", i, False))
        cfg.add_edge(i, i + 1, REAL, ("branch", i, True))
    cfg.add_edge(n - 1, EXIT, REAL, ("term", n - 1))
    with pytest.raises(IndexSpaceOverflow):
        label_epp(cfg, width=8)


def random_dag(rng: random.Random, max_vertices: int = 12) -> Cfg:
    """Random DAG with every vertex on some ENTRY->EXIT path."""
    n = rng.randint(1, max_vertices)
    cfg = Cfg("rand", 0, {}, [])
    for i in range(n):
        cfg.new_block(i, i + 1)
    cfg.add_edge(ENTRY, 0, REAL, ("entry",))
    for i in range(n):
        later = list(range(i + 1, n))
        rng.shuffle(later)
        targets = later[: rng.randint(0, min(3, len(later)))]
        for t in targets:
            cfg.add_edge(i, t, REAL, ("fall", i))
        if not targets or rng.random() < 0.25:
            cfg.add_edge(i, EXIT, REAL, ("term", i))
    # make every vertex reachable: pull orphans from ENTRY
    reached = set()
    work = [ENTRY]
    succ = cfg.successors()
    while work:
        v = work.pop()
        for e in succ[v]:
            if e.dst not in (EXIT,) and e.dst not in reached:
                reached.add(e.dst)
                work.append(e.dst)
    for i in range(n):
        if i not in reached:
            cfg.add_edge(ENTRY, i, REAL, ("entry",))
    return cfg


@pytest.mark.parametrize("chunk", range(10))
def test_bijection_on_random_dags(chunk):
    """Index multiset equals {0..NumPaths-1} exactly on 100 random DAGs."""
    rng = random.Random(1000 + chunk)
    for _ in range(100):
        cfg = random_dag(rng)
        lab = label_epp(cfg)
        ids = sorted(path_to_index(lab, p) for p in enumerate_paths(cfg))
        assert ids == list(range(lab.total_paths))


def test_zero_edge_counts_on_reference_dag(loopy):
    """Each branching vertex donates one zero edge; nonzero values are at
    most edges minus vertices with successors."""
    cfg = acyclicize(build_cfg(loopy.functions[0]))
    lab = label_epp(cfg)
    succ = cfg.successors()
    branching = [v for v in [ENTRY, *cfg.blocks] if len(succ[v]) >= 1]
    zero_edges = [e for e in cfg.edges if lab.edge_val[e.eid] == 0]
    nonzero_edges = [e for e in cfg.edges if lab.edge_val[e.eid] != 0]
    assert len(zero_edges) >= len([v for v in branching if len(succ[v]) >= 2])
    assert len(nonzero_edges) <= len(cfg.edges) - len(branching)


def test_tampered_labeling_raises_value_error(diamond):
    cfg = acyclicize(build_cfg(diamond.functions[0]))
    lab = label_epp(cfg)
    assert lab.total_paths == 2
    nonzero = next(eid for eid, val in lab.edge_val.items() if val)
    lab.edge_val[nonzero] = 5  # the index-1 path no longer sums to 1
    with pytest.raises(ValueError, match="invariant"):
        index_to_path(cfg, lab, 1)
    for eid in lab.edge_order[ENTRY]:
        lab.edge_val[eid] = 7  # nothing fits index 0 at the entry
    with pytest.raises(ValueError, match="invariant"):
        index_to_path(cfg, lab, 0)


def test_decode_takes_the_first_of_tied_fitting_edges():
    """Two edges of equal value both fit: decode takes the one first in
    value order, as a max over the fitting edges would."""
    order = {"a": ["x", "y", "z"], "b": ["w"]}
    value = {"x": 0, "y": 2, "z": 2, "w": 0}
    head = {"x": "r", "y": "b", "z": "r", "w": "r"}.__getitem__
    assert dag.decode("a", "r", order, value, head, 2) == ["y", "w"]
    assert dag.decode("a", "r", order, value, head, 0) == ["x"]
    with pytest.raises(ValueError, match="left at the root"):
        dag.decode("a", "r", order, value, head, 3)
