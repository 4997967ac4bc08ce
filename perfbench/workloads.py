"""Workload inputs and one repetition of the train/protect/detect/review loop.

Each workload is a list of cases: one bundle with its training stream and
detection sequences. A repetition runs every case through the public
workflow API, times each stage, and checks every outcome. The checks count
attempted and failed operations; a failure never stops the run.
"""

from __future__ import annotations

import random
import statistics
import time
from collections import Counter
from dataclasses import dataclass, field

from pathguard import fixtures, workflow
from pathguard.bundle import analyze_bundle
from pathguard.instrument import POINT_BACKEDGE
from pathguard.oracle import trace_oracle
from pathguard.pathset import STRATEGY_MPHT
from pathguard.vm import TRACE_FULL, VM
from pathguard.workflow import Bundle, DeployedWorld, DetectionRun

import widegen

WORKLOADS = ("corpus", "wide", "cold-review")
CORPUS_TRAINING = 100
CORPUS_SEQUENCES = 2
CORPUS_SEQUENCE_LENGTH = 100
# one generated pair: a second one's MPHT builds would double a repetition
WIDE_SHAPE_SEEDS = (0,)
WIDE_DETECT_LENGTH = 300
# shorter: nearly every transaction of a cold start is reviewed
COLD_DETECT_LENGTH = 200
# review rounds for one alarmed transaction before it counts as stalled
MAX_REVIEW_ROUNDS = 32


@dataclass
class Case:
    """One bundle, its training stream and its detection sequences.

    ``expected`` holds, per sequence, the one index that must alarm, or
    None when verdicts come from the reference twin instead.
    """

    name: str
    bundle: Bundle
    training: list[dict]
    sequences: list[list[dict]]
    expected: list[int | None]
    never_alarms: bool = False


def make_cases(workload: str, seed: int) -> list[Case]:
    """Assemble the bundles and generate the streams of one workload."""
    if workload == "corpus":
        cases = []
        for i, scenario in enumerate(fixtures.ALL_SCENARIOS):
            rng = random.Random(seed * 1009 + i)
            # sampled from fresh_state(): prefixing scenario.training breaks
            # the overflow token's balance model (a known fixture defect)
            state = scenario.fresh_state()
            training = [scenario.sample_normal(rng, state) for _ in range(CORPUS_TRAINING)]
            sequences, expected = [], []
            for _ in range(CORPUS_SEQUENCES):
                records, alarm_index = scenario.test_sequence(rng, CORPUS_SEQUENCE_LENGTH)
                sequences.append(records)
                expected.append(alarm_index)
            cases.append(
                Case(scenario.name, scenario.bundle(), training, sequences, expected,
                     never_alarms=not scenario.detected)
            )
        return cases
    cases = []
    for shape_seed in WIDE_SHAPE_SEEDS:
        shape = widegen.make_shape(shape_seed)
        tag = str(shape_seed)
        rng = random.Random(seed * 1009 + shape_seed)
        bundle = Bundle.from_json(widegen.bundle_json(shape, tag))
        training = widegen.training_stream(rng, shape, tag)
        length = WIDE_DETECT_LENGTH if workload == "wide" else COLD_DETECT_LENGTH
        stream = widegen.detect_stream(rng, shape, tag, length)
        cases.append(Case(f"wide{tag}", bundle, training, [stream], [None]))
    return cases


@dataclass
class RepStats:
    """Timings, counts and check results of one repetition."""

    train_s: float = 0.0
    train_txs: int = 0
    protect_s: float = 0.0
    detect_s: float = 0.0
    detect_txs: int = 0
    report_s: float = 0.0
    report_txs: int = 0
    review_s: float = 0.0
    reviewed: int = 0
    review_rounds: int = 0
    alarmed_txs: int = 0
    alarm_entries: int = 0
    unique_pairs: int = 0
    approved_paths: int = 0
    admin_gas: int = 0
    live_appends: int = 0
    stalled_reviews: int = 0
    latencies_us: list[float] = field(default_factory=list)
    size_orig: int = 0
    size_instr: int = 0
    gas_orig: int = 0
    gas_instr: int = 0
    reconciled_txs: int = 0
    point_bytes: Counter = field(default_factory=Counter)
    point_gas: Counter = field(default_factory=Counter)
    point_hits: Counter = field(default_factory=Counter)
    strategies: Counter = field(default_factory=Counter)
    functions: list[tuple] = field(default_factory=list)  # trained snapshot rows
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    slowdown: float = 1.0  # mean host slowdown sampled during the repetition

    @property
    def wall_s(self) -> float:
        return self.train_s + self.protect_s + self.detect_s + self.report_s + self.review_s

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)

    def exact(self) -> tuple:
        """Guest-side figures that must repeat exactly in every repetition."""
        return (
            self.size_orig, self.size_instr, self.gas_orig, self.gas_instr,
            self.approved_paths, self.admin_gas, self.stalled_reviews,
            sorted(self.point_bytes.items()), sorted(self.point_gas.items()),
            sorted(self.strategies.items()),
        )


class Reference:
    """Verdicts from the trace oracle over an uninstrumented twin world.

    A transaction is anomalous when any pair the oracle extracts is missing
    from the known set; the twin then rolls it back, as the guard would.
    """

    def __init__(self, bundle: Bundle, analysis, known: set[tuple[str, int, int]]):
        self.bundle = bundle
        self.analysis = analysis
        self.known = known
        self.twin = workflow.build_world(bundle)

    def anomalous(self, record: dict) -> bool:
        before = self.twin.world.clone()
        tx = workflow.parse_tx(record, self.twin, self.bundle)
        receipt = VM(self.twin.world, TRACE_FULL).execute_transaction(tx)
        pairs = trace_oracle(receipt.trace, self.analysis, receipt.status)
        anomaly = any((code, fid, key) not in self.known for _, code, fid, key in pairs)
        if anomaly:
            self.twin.world = before
        return anomaly


def known_pairs(snapshot: dict) -> set[tuple[str, int, int]]:
    return {
        (name, fid, key)
        for name in snapshot["contracts"]
        for fid, keys in workflow.snapshot_safe_sets(snapshot, name).items()
        for key in keys
    }


def run_rep(cases: list[Case], workload: str, tracer, clock, stats: RepStats) -> None:
    """One repetition; every stage time is scaled by ``clock``'s slowdown."""
    cold = workload == "cold-review"
    first = len(clock.samples)
    for case in cases:
        _run_case(case, cold, tracer, clock, stats)
    stats.slowdown = statistics.fmean(clock.samples[first:])


def _run_case(case: Case, cold: bool, tracer, clock, stats: RepStats) -> None:
    bundle, config = case.bundle, case.bundle.config
    mark = clock.mark()
    t0 = time.perf_counter()
    try:
        with tracer.span("workflow.train"):
            snapshot = workflow.train(bundle, case.training)
    except workflow.TrainingTxFailed as exc:
        stats.check(False, f"{case.name}: {exc}")
        return
    stats.train_s += (time.perf_counter() - t0) / clock.since(mark)
    stats.train_txs += len(bundle.setup) + len(case.training)
    stats.check(True, "training")
    for name, per_fn in snapshot["contracts"].items():
        for entry in per_fn.values():
            stats.functions.append((
                name, entry["name"], entry["num_paths"], entry["num_ccs"],
                len(entry["safe"]), entry["strategy"],
            ))
    if cold:
        with tracer.paused():
            analysis = analyze_bundle(bundle.programs, bundle.boundary, config)
        snapshot = workflow.make_snapshot(analysis, {}, config)

    mark = clock.mark()
    t0 = time.perf_counter()
    with tracer.span("workflow.protect"):
        guarded = workflow.protect(bundle, snapshot)
        workflow.deploy_guarded(guarded)
    stats.protect_s += (time.perf_counter() - t0) / clock.since(mark)
    for entry in (e for per_fn in snapshot["contracts"].values() for e in per_fn.values()):
        stats.strategies[entry["strategy"]] += 1
    for inst in guarded.instrumented.values():
        stats.size_orig += inst.original_size
        stats.size_instr += inst.instrumented_size
        for p in inst.points:
            stats.point_bytes[p.kind] += p.code_bytes + p.blob_bytes

    known = known_pairs(snapshot)
    for records, expected in zip(case.sequences, case.expected):
        verdicts = None
        for mirror in (False, True):
            verdicts = _run_sequence(
                case, guarded, records, expected, mirror, cold, known, verdicts,
                tracer, clock, stats,
            )


def _run_sequence(
    case, guarded, records, expected, mirror, cold, known, verdicts, tracer, clock, stats
):
    """Run one detection sequence; returns the verdict of each first attempt.

    Without ``verdicts`` the reference twin judges every transaction; with
    them, as on the mirrored pass, each verdict must repeat the earlier one.
    """
    run = workflow.start_detection(guarded, mirror=mirror)
    reference = None
    if expected is None and verdicts is None:
        reference = Reference(guarded.bundle, guarded.analysis, set(known))
    seen = []
    admin = guarded.bundle.config.admin
    alarmed = []
    latencies = []
    review_s = 0.0
    mark = clock.mark()
    for i, record in enumerate(records):
        t0 = time.perf_counter()
        with tracer.span("workflow.run_tx", new_tx=True):
            outcome = workflow.run_transaction(run, record)
        latencies.append(time.perf_counter() - t0)
        if outcome.alarms:
            alarmed.append(outcome.index)
            stats.alarmed_txs += 1
            stats.alarm_entries += len(outcome.alarms)
            stats.unique_pairs += len(
                {(a.contract, a.function, a.combined_id) for a in outcome.alarms}
            )
        seen.append(bool(outcome.alarms))
        if reference is not None:
            with tracer.paused():
                verdict = reference.anomalous(record)
            stats.check(verdict == seen[-1], f"{case.name} tx {outcome.index}: verdict")
        elif verdicts is not None:
            stats.check(
                verdicts[i] == seen[-1], f"{case.name} tx {outcome.index}: mirrored verdict"
            )
        else:
            stats.attempted += 1
        # a cold start reviews on both passes, or the mirror would see no
        # accepted transaction; fork reviews repeat the same work, so run once
        if outcome.alarms and (cold or not mirror):
            review_s += _review(run, outcome, record, admin, cold, reference, tracer, stats)
        clock.tick()

    elapsed = sum(latencies)
    if mirror:
        t0 = time.perf_counter()
        report = workflow.overhead_report(run)
        elapsed += time.perf_counter() - t0
    slowdown = clock.since(mark)
    stats.review_s += review_s / slowdown
    if mirror:
        stats.report_s += elapsed / slowdown
        stats.report_txs += len(records)
        stats.check(not run.recon_failures, f"{case.name}: gas reconciliation {run.recon_failures}")
        for name, info in report["contracts"].items():
            delta = info["instrumented_size"] - info["original_size"]
            stats.check(info["point_bytes_total"] == delta, f"{name}: point bytes")
        for out in run.outcomes:
            if out.gas_orig is not None:
                stats.gas_orig += out.gas_orig
                stats.gas_instr += out.gas_instr
                stats.reconciled_txs += 1
        for (_, kind), amount in run.point_gas.items():
            stats.point_gas[kind] += amount
        for (_, kind), hits in run.point_hits.items():
            stats.point_hits[kind] += hits
    else:
        stats.detect_s += elapsed / slowdown
        stats.detect_txs += len(records)
        stats.latencies_us += [1e6 * dt / slowdown for dt in latencies]
    if expected is not None:
        want = [] if case.never_alarms else [expected]
        stats.check(alarmed == want, f"{case.name}: alarms at {alarmed}, expected {want}")
    return seen


def _review(run, outcome, record, admin, live, reference, tracer, stats) -> float:
    """Review, approve and replay one alarmed transaction until it is accepted.

    ``live`` reviews on the detection world, as a cold start does; otherwise
    on a fork, so the detection stream goes on as if the alarm stood. The
    loop stops early, and counts the transaction as stalled, when a round
    approves nothing new: the alarm payload then lacks the pairs that still
    fail, and no number of further rounds can get the transaction accepted.
    """
    if not live:
        with tracer.paused():
            deployed = run.deployed
            fork = DeployedWorld(deployed.world.clone(), deployed.addresses, deployed.names)
            run = DetectionRun(run.guarded, fork, None, list(run.outcomes), list(run.alarm_log))
    index = outcome.index
    elapsed = 0.0
    for rounds in range(1, MAX_REVIEW_ROUNDS + 1):
        t0 = time.perf_counter()
        with tracer.span("workflow.review", new_tx=True):
            result = workflow.review_and_approve(run, index, admin)
        with tracer.span("workflow.run_tx", new_tx=True):
            replay = workflow.run_transaction(run, record)
        elapsed += time.perf_counter() - t0
        stats.approved_paths += result["approved"]
        stats.admin_gas += result.get("gas", 0)
        if live:
            stats.live_appends += result["approved"]
        if live and reference is not None:
            reference.known |= {
                (run.deployed.names[a.contract], a.function, a.combined_id)
                for a in run.alarm_log if a.tx_index == index
            }
            with tracer.paused():
                verdict = reference.anomalous(record)
            stats.check(verdict == bool(replay.alarms), f"replay of tx {index}: verdict")
        if not replay.alarms or not result["approved"]:
            break
        index = replay.index
    stats.reviewed += 1
    stats.review_rounds += rounds
    if replay.alarms:
        stats.stalled_reviews += 1
    return elapsed


def wide_coverage_ok(stats: RepStats) -> bool:
    """``wide`` must reach the MPHT strategy and fire Backedge checks."""
    return stats.strategies[STRATEGY_MPHT] > 0 and stats.point_hits[POINT_BACKEDGE] > 0
