"""Trace oracle: the canonical loop walkthrough and oracle/instrumented equality."""

import dataclasses
import random

import pytest
from hypothesis import assume, given, settings

from pathguard.asm import assemble
from pathguard.bundle import analyze_bundle
from pathguard.callgraph import K_ENTRY, K_SURROGATE, acyclicize_callgraph
from pathguard.ccp import label_ccp
from pathguard.config import Config
from pathguard.epp import IndexSpaceOverflow
from pathguard.fixtures import ALL_SCENARIOS
from pathguard.instrument import instrument_contract
from pathguard.oracle import TraceMismatch, TraceOracle, checked_pairs_from_receipt, trace_oracle
from pathguard.vm import (
    STEP_ADD,
    STEP_BLOCK,
    STEP_ICALL,
    STEP_IRET,
    STEP_MUL,
    STEP_SUB,
    TRACE_CHECKS,
    TRACE_FULL,
    Transaction,
    VM,
    WorldState,
    deploy,
    region_step,
    step_fields,
)
from pathguard.workflow import Bundle, build_world, parse_tx
from test_instrument import _widegen
from test_vm import _DIFF_ORIGIN, _diff_cases

CONFIG = Config()


def _original_run(prog, tx, config=CONFIG):
    world = WorldState(config)
    addr = deploy(world, prog)
    tx.to = addr
    return VM(world, TRACE_FULL).execute_transaction(tx)


def _instrumented_run(analysis, name, safe_sets, tx, config=CONFIG):
    profile = {fid: dict.fromkeys(keys, 1) for fid, keys in safe_sets.items()}
    inst = instrument_contract(name, analysis, profile)
    world = WorldState(config)
    addr = deploy(world, inst.program)
    tx.to = addr
    vm = VM(world, TRACE_CHECKS, {name: inst.checkers})
    return vm.execute_transaction(tx)


def test_three_iteration_loop_decomposes_into_five_paths(loopy):
    """The canonical walkthrough: indices p1..p5 = [0, 3, 3, 4, 2]."""
    receipt = _original_run(loopy, Transaction(1, 0, 0x10, [8]))
    analysis = analyze_bundle({"loopy": loopy}, {"loopy"}, CONFIG)
    pairs = trace_oracle(receipt.trace, analysis, receipt.status)
    assert [p[3] for p in pairs] == [0, 3, 3, 4, 2]
    assert all(p[1] == "loopy" and p[2] == 0 for p in pairs)


def test_straight_line_single_zero_index():
    prog = assemble("contract t { fn f external selector=0x1 { PUSH 1 POP STOP } }")
    receipt = _original_run(prog, Transaction(1, 0, 0x1))
    analysis = analyze_bundle({"t": prog}, {"t"}, CONFIG)
    pairs = trace_oracle(receipt.trace, analysis, receipt.status)
    assert [p[3] for p in pairs] == [0]


@pytest.mark.parametrize("seed_word", [0, 1, 2, 3, 5, 8, 21, 64, 255])
def test_loopy_oracle_equals_instrumented(loopy, seed_word):
    analysis = analyze_bundle({"loopy": loopy}, {"loopy"}, CONFIG)
    tx = Transaction(1, 0, 0x10, [seed_word])
    original = _original_run(loopy, Transaction(1, 0, 0x10, [seed_word]))
    oracle = trace_oracle(original.trace, analysis, original.status)
    instrumented = _instrumented_run(analysis, "loopy", {0: set()}, tx)
    assert checked_pairs_from_receipt(instrumented) == oracle


RECURSIVE_SRC = """
contract rec {
  fn run external selector=0x10 {
    PUSH 0
    CALLDATALOAD
    ICALL down
    STOP
  }
  fn down internal {
    DUP 1
    ISZERO
    JUMPI base
    PUSH 1
    SUB
    ICALL down
    IRET
  base: JUMPDEST
    POP
    IRET
  }
}
"""


@pytest.mark.parametrize("depth", [0, 1, 2, 5])
def test_recursive_internal_calls_match(depth):
    """Recursion goes through the surrogate callsite in code and oracle alike."""
    prog = assemble(RECURSIVE_SRC)
    analysis = analyze_bundle({"rec": prog}, {"rec"}, CONFIG)
    assert analysis.num_ccs("rec", 1) == 2  # entry chain + recursion surrogate
    tx = Transaction(1, 0, 0x10, [depth])
    original = _original_run(prog, Transaction(1, 0, 0x10, [depth]))
    oracle = trace_oracle(original.trace, analysis, original.status)
    instrumented = _instrumented_run(
        analysis, "rec", {0: set(), 1: set()}, tx
    )
    assert checked_pairs_from_receipt(instrumented) == oracle
    assert len(oracle) == depth + 2  # one per down frame plus run's exit


CROSS_SRC_A = """
contract alpha {
  fn ping external selector=0x77 {
    PUSH 0
    PUSH 0x78
    PUSH 0
    PUSH 0
    CALLDATALOAD
    CALL target=beta fn=pong
    POP
    PUSH 0
    RETURNDATALOAD
    PUSH 1
    RETURN
  }
}
"""

CROSS_SRC_B = """
contract beta {
  fn pong external selector=0x78 {
    PUSH 9
    PUSH 3
    SSTORE
    PUSH 123
    PUSH 1
    RETURN
  }
}
"""


def test_cross_contract_marker_protocol_matches():
    """Protected-to-protected calls carry ctx in calldata; business return
    data stays visible through the prefix shims."""
    a, b = assemble(CROSS_SRC_A), assemble(CROSS_SRC_B)
    programs = {"alpha": a, "beta": b}
    analysis = analyze_bundle(programs, {"alpha", "beta"}, CONFIG)

    world = WorldState(CONFIG)
    addr_a = deploy(world, a)
    addr_b = deploy(world, b)
    original = VM(world, TRACE_FULL).execute_transaction(
        Transaction(1, addr_a, 0x77, [addr_b])
    )
    assert original.status == "Accepted"
    assert original.return_data == [123]
    oracle = trace_oracle(original.trace, analysis, original.status)

    world2 = WorldState(CONFIG)
    inst_a = instrument_contract("alpha", analysis, {0: {}})
    inst_b = instrument_contract("beta", analysis, {0: {}})
    addr_a2 = deploy(world2, inst_a.program)
    addr_b2 = deploy(world2, inst_b.program)
    vm = VM(world2, TRACE_CHECKS, {"alpha": inst_a.checkers, "beta": inst_b.checkers})
    instrumented = vm.execute_transaction(Transaction(1, addr_a2, 0x77, [addr_b2]))
    assert checked_pairs_from_receipt(instrumented) == oracle
    # beta's context is alpha's plus the callsite edge value
    assert {p[1] for p in oracle} == {"alpha", "beta"}


PINGPONG_SRC = """
contract {name} {{
  fn {fn} external selector={sel} {{
    PUSH 0
    CALLDATALOAD
    ISZERO
    JUMPI done
    PUSH 1
    CALLDATALOAD
    PUSH 0
    CALLDATALOAD
    PUSH 1
    SUB
    PUSH 2
    PUSH {peer_sel}
    PUSH 0
    {peer_addr}
    CALL target={peer} fn={peer_fn}
    POP
  done: JUMPDEST
    STOP
  }}
}}
"""


def _pingpong():
    """alpha.ping([depth, beta]) CALLs beta.pong([depth - 1, beta]), which
    CALLs its caller back, until depth reaches 0."""
    alpha = PINGPONG_SRC.format(
        name="alpha", fn="ping", sel="0x77", peer="beta", peer_fn="pong",
        peer_sel="0x78", peer_addr="PUSH 1\n    CALLDATALOAD",
    )
    beta = PINGPONG_SRC.format(
        name="beta", fn="pong", sel="0x78", peer="alpha", peer_fn="ping",
        peer_sel="0x77", peer_addr="CALLER",
    )
    return {"alpha": assemble(alpha), "beta": assemble(beta)}


@pytest.mark.parametrize("depth", [0, 1, 2, 3])
def test_cross_contract_recursion_matches(depth):
    """The call cycle alpha -> beta -> alpha is cut by a surrogate, so beta's
    call applies a via-surrogate call edge: the inner alpha frames enter
    with that edge's value alone."""
    programs = _pingpong()
    analysis = analyze_bundle(programs, set(programs), CONFIG)
    tables = sorted(analysis.site_tables.items())
    assert [(site[0], t.default[1], t.cases) for site, t in tables] == [
        ("alpha", False, {}), ("beta", True, {})
    ]

    def run(progs, trace_mode, checkers=None):
        world = WorldState(CONFIG)
        addr_a = deploy(world, progs["alpha"])
        addr_b = deploy(world, progs["beta"])
        vm = VM(world, trace_mode, checkers)
        return vm.execute_transaction(Transaction(1, addr_a, 0x77, [depth, addr_b]))

    original = run(programs, TRACE_FULL)
    assert original.status == "Accepted"
    oracle = trace_oracle(original.trace, analysis, original.status)
    insts = {name: instrument_contract(name, analysis, {0: {}}) for name in programs}
    instrumented = run(
        {name: inst.program for name, inst in insts.items()},
        TRACE_CHECKS,
        {name: inst.checkers for name, inst in insts.items()},
    )
    assert checked_pairs_from_receipt(instrumented) == oracle
    assert [p[1] for p in oracle] == (["beta", "alpha"] * 2)[-(depth + 1):]
    if depth == 3:
        assert [(p[1], p[3]) for p in oracle] == [
            ("beta", 14), ("alpha", 5), ("beta", 5), ("alpha", 0)
        ]


@pytest.mark.parametrize(
    "make",
    [
        pytest.param(lambda: (_pingpong(), None), id="pingpong"),
        pytest.param(lambda: ({"rec": assemble(RECURSIVE_SRC)}, None), id="recursive"),
        *(
            pytest.param(lambda s=s: (s.bundle().programs, s.bundle().boundary), id=s.name)
            for s in ALL_SCENARIOS
        ),
    ],
)
def test_analysis_indexes_match_edge_scan(make):
    """The call-site and block-start indexes equal brute-force scans of the
    finished graphs, and every external function enters with context 0."""
    programs, boundary = make()
    analysis = analyze_bundle(programs, boundary, CONFIG)
    cg, ccp = analysis.callgraph, analysis.ccp
    assert analysis.site_val == {
        (e.site, e.callee): (ccp.call_val[e.ceid], e.kind == K_SURROGATE)
        for e in cg.edges
        if e.site
    }
    # the direct band is context 0: an external function's program-entry
    # edge has the lowest callsite id among its in-edges, so its value is 0
    for name in analysis.boundary:
        for fn in programs[name].external_functions():
            entry = [e for e in cg.edges if e.callee == (name, fn.id) and e.kind == K_ENTRY]
            assert [ccp.call_val[e.ceid] for e in entry] == [0]
    for cfg in analysis.cfgs.values():
        for b in cfg.blocks.values():
            scan = [c.bid for c in cfg.blocks.values() if c.start == b.start and not c.empty]
            if scan:
                assert cfg.block_at(b.start) == scan[0]
            else:
                with pytest.raises(KeyError):
                    cfg.block_at(b.start)


def test_leading_entry_edges_have_value_zero_on_random_callgraphs():
    """``build_call_graph`` numbers the external functions' entry edges
    before every callsite, as ``random_callgraph`` does; such an edge is its
    callee's first in-edge, so it always has context value 0. (An entry edge
    given later to a dead function need not.)"""
    from test_ccp import random_callgraph

    rng = random.Random(11)
    for _ in range(300):
        cg = acyclicize_callgraph(random_callgraph(rng))
        ccp = label_ccp(cg)
        first_site = min((e.ceid for e in cg.edges if e.kind != K_ENTRY), default=len(cg.edges))
        leading = [e for e in cg.edges if e.kind == K_ENTRY and e.ceid < first_site]
        assert leading and all(ccp.call_val[e.ceid] == 0 for e in leading)


def test_reverting_exit_emits_no_check():
    prog = assemble(
        """
        contract t { fn f external selector=0x1 {
          PUSH 0
          CALLDATALOAD
          JUMPI bad
          STOP
        bad: JUMPDEST
          PUSH 0
          REVERT
        } }
        """
    )
    analysis = analyze_bundle({"t": prog}, {"t"}, CONFIG)
    ok = _original_run(prog, Transaction(1, 0, 0x1, [0]))
    assert len(trace_oracle(ok.trace, analysis, ok.status)) == 1
    bad = _original_run(prog, Transaction(1, 0, 0x1, [1]))
    assert bad.status == "Reverted"
    assert trace_oracle(bad.trace, analysis, bad.status) == []


def test_oracle_pairs_decode_to_real_paths(loopy):
    """Every emitted index lies inside the function's combined index space."""
    from pathguard.guardcode import split_index
    from pathguard.epp import index_to_path

    analysis = analyze_bundle({"loopy": loopy}, {"loopy"}, CONFIG)
    receipt = _original_run(loopy, Transaction(1, 0, 0x10, [64]))
    for addr, code, fid, combined in trace_oracle(receipt.trace, analysis, receipt.status):
        lab = analysis.epp[(code, fid)]
        ctx, epp = split_index(combined, lab.total_paths)
        assert ctx < analysis.num_ccs(code, fid)
        index_to_path(analysis.cfgs[(code, fid)], lab, epp)  # must not raise


def _fixture_traces(scenario, count: int):
    """The analysis and the TRACE_FULL receipts of the scenario's first
    ``count`` setup-then-training txs, run in order on a fresh world."""
    bundle = scenario.bundle()
    deployed = build_world(bundle)
    receipts = [
        VM(deployed.world, TRACE_FULL).execute_transaction(parse_tx(record, deployed, bundle))
        for record in (bundle.setup + scenario.training)[:count]
    ]
    return analyze_bundle(bundle.programs, bundle.boundary, bundle.config), receipts


def _fixture_trace(name: str, index: int):
    """The analysis and TRACE_FULL receipt of the scenario's ``index``-th
    setup-then-training tx, run in order on a fresh world."""
    scenario = next(s for s in ALL_SCENARIOS if s.name == name)
    analysis, receipts = _fixture_traces(scenario, index + 1)
    return analysis, receipts[-1]


# the step kinds of a Region event, by the per-block event each stands for
_STEP_KINDS = {
    "BlockEnter": (STEP_BLOCK,),
    "ArithChecked": (STEP_ADD, STEP_SUB, STEP_MUL),
    "CallEnter": (STEP_ICALL,),
    "CallReturn": (STEP_IRET,),
}
_CHECKED = _STEP_KINDS["ArithChecked"]


def _edit_step(ev, j: int, kind=None, offset=None, fn=None) -> list:
    """The Region event ``ev`` with its ``j``-th step moved to pc
    ``offset``, or given a new ``kind`` (a checked op's overflow bit kept,
    dropped or added as False to match), or dropped when neither is given;
    with ``fn``, the events that split it there, the step and those after
    it in function ``fn``."""
    steps, bits = list(ev.get("steps")), list(ev.get("bits"))
    old, pc, callee = step_fields(steps[j])
    b = sum(1 for step in steps[:j] if step_fields(step)[0] in _CHECKED)
    if offset is not None:
        steps[j] = region_step(old, offset, callee)
    elif fn is None:
        bit = bits.pop(b) if old in _CHECKED else False
        if kind is None:
            del steps[j]
        else:
            steps[j] = region_step(kind, pc, callee)
            if kind in _CHECKED:
                bits.insert(b, bit)

    def region(fid, steps, bits):
        if not steps:
            return []
        detail = dict(ev.detail, steps=tuple(steps), bits=tuple(bits))
        return [dataclasses.replace(ev, fn=fid, offset=step_fields(steps[0])[1], detail=detail)]

    if fn is None:
        return region(ev.fn, steps, bits)
    return region(ev.fn, steps[:j], bits[:b]) + region(fn, steps[j:], bits[b:])


def _corrupt(of_kind: str, nth: int, **changes):
    """Replace the ``nth`` event of kind ``of_kind`` by a copy with
    ``changes``, or drop it when there are none. A per-block kind names the
    ``nth`` such step of the trace's Region events, which ``_edit_step``
    changes: ``kind`` re-kinds it (to another per-block kind), ``offset``
    moves it and ``fn`` puts it and the steps after it in that function."""

    def apply(trace):
        if of_kind not in _STEP_KINDS:
            i = [i for i, ev in enumerate(trace) if ev.kind == of_kind][nth]
            new = [dataclasses.replace(trace[i], **changes)] if changes else []
            return trace[:i] + new + trace[i + 1:]
        hits = [
            (i, j)
            for i, ev in enumerate(trace)
            if ev.kind == "Region"
            for j, step in enumerate(ev.get("steps"))
            if step_fields(step)[0] in _STEP_KINDS[of_kind]
        ]
        i, j = hits[nth]
        edit = dict(changes)
        if "kind" in edit:
            edit["kind"] = _STEP_KINDS[edit["kind"]][0]
        return trace[:i] + _edit_step(trace[i], j, **edit) + trace[i + 1:]

    return apply


@pytest.mark.parametrize(
    "name, index, corrupt, message",
    [
        pytest.param(
            "logic_error", 0, _corrupt("BlockEnter", 1, fn=1),
            "unexpected Region event in fn 1", id="block-in-wrong-fn",
        ),
        pytest.param(
            "logic_error", 0, _corrupt("BlockEnter", 0, offset=1),
            "function did not start at offset 0", id="first-block-not-at-0",
        ),
        pytest.param(
            "logic_error", 0, _corrupt("BlockEnter", 1, offset=999),
            r"grant: no edge from block \d+ to offset 999", id="no-edge-to-offset",
        ),
        pytest.param(
            "overflow", 0, _corrupt("ArithChecked", 0, offset=999),
            "no virtual arith edge at offset 999", id="no-arith-edge",
        ),
        pytest.param(
            "unchecked_send", 2, _corrupt("ExternalCallReturn", 0, offset=999),
            "no virtual callret edge at offset 999", id="no-callret-edge",
        ),
        pytest.param(
            # the caller's BlockEnter before its ICALL read as the return
            "visibility", 1, _corrupt("BlockEnter", 1, kind="CallReturn"),
            "governed: CallReturn away from IRET", id="callreturn-away-from-iret",
        ),
        pytest.param(
            "unchecked_send", 2, _corrupt("ExternalCallReturn", 0),
            "unbalanced call frames at end of trace", id="unbalanced-frames",
        ),
        pytest.param(
            # the return to the proxy's protected site read as one from an
            # unprotected site, which left no ctx slot word to restore
            "delegatecall", 1, _corrupt("ExternalCallReturn", 0, offset=999),
            "return at offset 999 with no unprotected call in flight",
            id="callret-without-unprotected-call",
        ),
        pytest.param(
            # a CallReturn before the callee entered its first block
            "visibility", 1, _corrupt("BlockEnter", 2, kind="CallReturn"),
            "CallReturn away from IRET", id="callreturn-before-first-block",
        ),
    ],
)
def test_corrupted_fixture_trace_raises_trace_mismatch(name, index, corrupt, message):
    """A fixture trace replays cleanly; with one event corrupted, the
    oracle raises TraceMismatch naming what does not fit."""
    analysis, receipt = _fixture_trace(name, index)
    assert receipt.status == "Accepted"
    assert trace_oracle(receipt.trace, analysis, receipt.status)
    with pytest.raises(TraceMismatch, match=message):
        trace_oracle(corrupt(receipt.trace), analysis, receipt.status)


@pytest.mark.parametrize("scenario", ALL_SCENARIOS, ids=lambda s: s.name)
def test_every_single_event_corruption_raises_only_trace_mismatch(scenario):
    """Each event of a fixture trace dropped, re-kinded to every other kind
    the oracle reads, or moved to offset 999; each step of each Region
    event dropped, moved to offset 999 or re-kinded to every other step
    kind; and each of its overflow bits flipped: the oracle returns pairs
    or raises TraceMismatch, never a lookup or attribute error."""
    kinds = list(TraceOracle._HANDLERS)
    analysis, receipts = _fixture_traces(scenario, 4)
    for receipt in receipts:
        trace = receipt.trace
        for i, ev in enumerate(trace):
            variants = [[], [dataclasses.replace(ev, offset=999)]]
            variants += [[dataclasses.replace(ev, kind=k)] for k in kinds if k != ev.kind]
            if ev.kind == "Region":
                steps, bits = ev.get("steps"), ev.get("bits")
                for j, step in enumerate(steps):
                    variants += [_edit_step(ev, j), _edit_step(ev, j, offset=999)]
                    variants += [
                        _edit_step(ev, j, kind=kind)
                        for kinds_of in _STEP_KINDS.values()
                        for kind in kinds_of
                        if kind != step_fields(step)[0]
                    ]
                for b in range(len(bits)):
                    flipped = bits[:b] + (not bits[b],) + bits[b + 1:]
                    variants.append([dataclasses.replace(ev, detail=dict(ev.detail, bits=flipped))])
            for new in variants:
                try:
                    trace_oracle(trace[:i] + new + trace[i + 1:], analysis, receipt.status)
                except TraceMismatch:
                    pass


def _outcome(oracle: TraceOracle, trace, status):
    """The oracle's pairs for ``trace``, or the message it raised."""
    try:
        return oracle.pairs(trace, status)
    except TraceMismatch as mismatch:
        return str(mismatch)


def _assert_memo_matches_cold_walks(make_analysis, runs, monkeypatch) -> int:
    """Replay each of ``runs``, (trace, status) pairs in run order, through
    one warm analysis, whose memo the runs before it filled, and through a
    fresh one, memo on and memo off (each event walked over its real
    state): all three give the same pairs, or raise the same mismatch.
    Returns how many memo keys the warm replays met in more than one
    (ctx, path sum) state."""
    states: dict[tuple, set] = {}
    region = TraceOracle._HANDLERS["Region"]

    def record(oracle, ev):
        frame = oracle.frames[-1] if oracle.frames else None
        if frame and frame.code and frame.istack and oracle.memo is warm.region_effects:
            top = frame.istack[-1]
            key = (frame.code, ev.fn, top.vertex, ev.get("steps"), ev.get("bits"))
            states.setdefault(key, set()).add((frame.ctx, top.epp))
        region(oracle, ev)

    monkeypatch.setitem(TraceOracle._HANDLERS, "Region", record)
    warm = make_analysis()
    for trace, status in runs:
        fresh = make_analysis()
        cold = _outcome(TraceOracle(fresh, memo=False), trace, status)
        assert _outcome(TraceOracle(fresh), trace, status) == cold
        assert _outcome(TraceOracle(warm), trace, status) == cold
    return sum(len(seen) > 1 for seen in states.values())


def _wide_runs(seed: int):
    """The wide pair (``perfbench/widegen.py``, shape seed 0) and the
    TRACE_FULL runs of its setup and of the bench's training stream at
    ``seed``."""
    widegen = _widegen()
    shape = widegen.make_shape(0)
    bundle = Bundle.from_json(widegen.bundle_json(shape, "0"))
    records = widegen.training_stream(random.Random(seed * 1009), shape, "0")
    deployed = build_world(bundle)
    runs = []
    for record in bundle.setup + records:
        receipt = VM(deployed.world, TRACE_FULL).execute_transaction(
            parse_tx(record, deployed, bundle)
        )
        runs.append((receipt.trace, receipt.status))
    return bundle, runs


@pytest.mark.parametrize(
    "source",
    [
        *(pytest.param(s, id=s.name) for s in ALL_SCENARIOS),
        pytest.param(1, id="wide-seed-1"),
        pytest.param(2, id="wide-seed-2"),
    ],
)
def test_memo_applied_in_another_state_matches_a_cold_walk(source, monkeypatch):
    """A Region event's memoized effect, built in one (ctx, path sum)
    state, gives the pairs of a cold walk in every state it is applied in,
    over the fixtures' setup and training traces and the wide pair's at
    bench seeds 1 and 2."""
    if isinstance(source, int):
        bundle, runs = _wide_runs(source)
    else:
        bundle = source.bundle()
        _analysis, receipts = _fixture_traces(source, len(bundle.setup + source.training))
        runs = [(r.trace, r.status) for r in receipts]

    def make():
        return analyze_bundle(bundle.programs, bundle.boundary, bundle.config)

    reused = _assert_memo_matches_cold_walks(make, runs, monkeypatch)
    # the wide pair's loop and protected call enter one region in many states
    assert reused > 0 or not isinstance(source, int)


@settings(max_examples=40, deadline=None)
@given(case=_diff_cases())
def test_memo_matches_a_cold_walk_on_generated_programs(case):
    """The same on ``test_vm``'s generated programs, run at TRACE_FULL,
    whose tail IRETs return below the function their event starts in. A
    program that the analysis refuses is skipped."""
    config, prog, txs, _checkers = case
    try:
        analyze_bundle({prog.name: prog}, {prog.name}, config)
    except (KeyError, IndexSpaceOverflow):  # e.g. a jump to no block, or too many paths
        assume(False)
    world = WorldState(config)
    world.set_balance(_DIFF_ORIGIN, 100)
    addr = deploy(world, prog)
    runs = []
    for calldata, value, gas_limit in txs:
        receipt = VM(world, TRACE_FULL).execute_transaction(
            Transaction(_DIFF_ORIGIN, addr, 0x01, calldata, value, gas_limit)
        )
        runs.append((receipt.trace, receipt.status))
    with pytest.MonkeyPatch.context() as monkeypatch:
        _assert_memo_matches_cold_walks(
            lambda: analyze_bundle({prog.name: prog}, {prog.name}, config), runs, monkeypatch
        )
