"""Call graph, cycle removal, and context index labeling."""

import random

import pytest

from pathguard.asm import assemble
from pathguard.callgraph import (
    CallEdge,
    CallGraph,
    K_ENTRY,
    K_EXTERNAL,
    K_INTERNAL,
    K_SURROGATE,
    S,
    acyclicize_callgraph,
    build_call_graph,
)
from pathguard.ccp import (
    combined_index,
    context_to_id,
    enumerate_contexts,
    id_to_context,
    label_ccp,
    split_index,
)


def _graph(figcg):
    cg = build_call_graph({"figcg": figcg}, {"figcg"})
    return acyclicize_callgraph(cg)


def test_reference_shape(figcg):
    cg = build_call_graph({"figcg": figcg}, {"figcg"})
    non_surrogate = [e for e in cg.edges if e.kind != K_SURROGATE]
    assert len(non_surrogate) == 6  # 2 entry + 3 internal to C + 1 recursive
    acyclicize_callgraph(cg)
    kinds = sorted(e.kind for e in cg.edges)
    assert kinds.count(K_SURROGATE) == 1
    assert len([e for e in cg.edges if e.kind != K_SURROGATE]) == 5
    surr = next(e for e in cg.edges if e.kind == K_SURROGATE)
    assert surr.caller == S and surr.callee == ("figcg", 1)  # S => B


def test_numccs_of_shared_callee_is_four(figcg):
    cg = _graph(figcg)
    lab = label_ccp(cg)
    assert lab.num_ccs[("figcg", 2)] == 4  # C
    assert lab.num_ccs[("figcg", 1)] == 2  # B: entry + surrogate
    assert lab.num_ccs[("figcg", 0)] == 1  # A


def test_call_vals_frozen(figcg):
    cg = _graph(figcg)
    lab = label_ccp(cg)
    c = ("figcg", 2)
    ins = [next(e for e in cg.edges if e.ceid == i) for i in lab.in_order[c]]
    vals = [lab.call_val[e.ceid] for e in ins]
    assert vals == [0, 1, 2]
    surr = next(e for e in cg.edges if e.kind == K_SURROGATE)
    assert lab.call_val[surr.ceid] == 1
    # context sums for C: via (a1,c1)=0, (a1,c2)=1, (b1,c3)=2, (surr,c3)=3
    ids = sorted(context_to_id(lab, chain) for chain in enumerate_contexts(cg, c))
    assert ids == [0, 1, 2, 3]


def test_id_three_is_surrogate_chain(figcg):
    cg = _graph(figcg)
    lab = label_ccp(cg)
    chain = id_to_context(cg, lab, ("figcg", 2), 3)
    assert [e.kind for e in chain] == [K_SURROGATE, K_INTERNAL]


def test_context_round_trip(figcg):
    cg = _graph(figcg)
    lab = label_ccp(cg)
    for node in cg.nodes:
        for ctx in range(lab.num_ccs[node]):
            chain = id_to_context(cg, lab, node, ctx)
            assert context_to_id(lab, chain) == ctx
        with pytest.raises(ValueError):
            id_to_context(cg, lab, node, lab.num_ccs[node])


def test_id_zero_is_all_first_chain(figcg):
    cg = _graph(figcg)
    lab = label_ccp(cg)
    chain = id_to_context(cg, lab, ("figcg", 2), 0)
    assert all(lab.call_val[e.ceid] == 0 for e in chain)


def test_leaf_called_once():
    prog = assemble(
        "contract t { fn main external { ICALL leaf STOP } fn leaf internal { IRET } }"
    )
    cg = acyclicize_callgraph(build_call_graph({"t": prog}, {"t"}))
    lab = label_ccp(cg)
    assert lab.num_ccs[("t", 1)] == 1
    leaf_in = [e for e in cg.edges if e.callee == ("t", 1)]
    assert len(leaf_in) == 1 and lab.call_val[leaf_in[0].ceid] == 0


def test_single_contract_no_calls_entry_edges_only():
    prog = assemble(
        "contract t { fn a external { STOP } fn b external { STOP } }"
    )
    cg = build_call_graph({"t": prog}, {"t"})
    assert all(e.kind == K_ENTRY for e in cg.edges)
    assert len(cg.edges) == 2


def test_cross_contract_protected_edge():
    a = assemble(
        """
        contract a { fn f external {
          PUSH 0        ; nargs
          PUSH 0x22     ; selector of b.g
          PUSH 0        ; value
          PUSH 0x101    ; address (runtime value)
          CALL target=b fn=g
          POP
          STOP
        } }
        """
    )
    b = assemble("contract b { fn g external selector=0x22 { STOP } }")
    cg = build_call_graph({"a": a, "b": b}, {"a", "b"})
    ext = [e for e in cg.edges if e.kind == K_EXTERNAL]
    assert len(ext) == 1
    assert ext[0].caller == ("a", 0) and ext[0].callee == ("b", 0)


def test_unannotated_call_warns_and_is_boundary():
    a = assemble(
        """
        contract a { fn f external {
          PUSH 0
          PUSH 0
          PUSH 0
          PUSH 0x999
          CALL
          POP
          STOP
        } }
        """
    )
    cg = build_call_graph({"a": a}, {"a"})
    assert not [e for e in cg.edges if e.kind == K_EXTERNAL]
    assert any("unannotated" in w for w in cg.warnings)


def test_fanout_callsite_edges():
    lib = assemble(
        "contract lib { fn init external selector=0x30 { STOP } "
        "fn work external selector=0x31 { STOP } }"
    )
    shell = assemble(
        """
        contract shell { fn fallback external {
          PUSH 0
          PUSH 0
          CALLDATALOAD
          PUSH 0x200
          DELEGATECALL target=lib
          POP
          STOP
        } }
        """
    )
    cg = build_call_graph({"shell": shell, "lib": lib}, {"shell", "lib"})
    ext = [e for e in cg.edges if e.kind == K_EXTERNAL]
    assert {e.callee for e in ext} == {("lib", 0), ("lib", 1)}
    assert len({e.ceid for e in ext}) == 2


def test_mutual_recursion_yields_dag():
    prog = assemble(
        """
        contract t {
          fn main external { ICALL f STOP }
          fn f internal { ICALL g IRET }
          fn g internal { ICALL f IRET }
        }
        """
    )
    cg = acyclicize_callgraph(build_call_graph({"t": prog}, {"t"}))
    cg.topo_order()
    surr = [e for e in cg.edges if e.kind == K_SURROGATE]
    assert len(surr) == 1
    lab = label_ccp(cg)
    for node in cg.nodes:
        ids = sorted(context_to_id(lab, ch) for ch in enumerate_contexts(cg, node))
        assert ids == list(range(lab.num_ccs[node]))


def test_combined_index_arithmetic():
    assert combined_index(3, 4, 5) == 19
    assert combined_index(0, 7, 5) == 7
    assert split_index(19, 5) == (3, 4)


def random_callgraph(rng: random.Random, max_fns: int = 8) -> CallGraph:
    n = rng.randint(1, max_fns)
    nodes = [("r", i) for i in range(n)]
    edges = []
    ceid = 0
    externals = [i for i in range(n) if rng.random() < 0.6] or [0]
    for i in externals:
        edges.append(CallEdge(ceid, S, ("r", i), K_ENTRY))
        ceid += 1
    for i in range(n):
        for _ in range(rng.randint(0, 3)):
            j = rng.randrange(n)
            edges.append(CallEdge(ceid, ("r", i), ("r", j), K_INTERNAL, ("r", i, ceid)))
            ceid += 1
    cg = CallGraph(nodes, edges)
    from pathguard.callgraph import _cover_dead_functions

    _cover_dead_functions(cg)
    return cg


@pytest.mark.parametrize("chunk", range(5))
def test_bijection_on_random_callgraphs(chunk):
    """Context ids equal {0..NumCCs-1} exactly on 60 random call graphs."""
    rng = random.Random(7000 + chunk)
    for _ in range(60):
        cg = acyclicize_callgraph(random_callgraph(rng))
        lab = label_ccp(cg)
        for node in cg.nodes:
            ids = sorted(context_to_id(lab, ch) for ch in enumerate_contexts(cg, node))
            assert ids == list(range(lab.num_ccs[node]))


def test_tampered_labeling_raises_value_error(figcg):
    cg = _graph(figcg)
    lab = label_ccp(cg)
    c = ("figcg", 2)
    for ceid in lab.in_order[c]:
        lab.call_val[ceid] += 9  # no in-edge fits any id
    with pytest.raises(ValueError, match="invariant"):
        id_to_context(cg, lab, c, 0)
