"""pathguard benchmark: train, protect, detect and review on three workloads.

Usage, from the repository root::

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 20 --trace 0

One process, one thread, one caller: transactions run strictly one after
another against a world (a closed loop with a single client). Set-up builds
the workload's bundles and streams from ``--seed`` several times and reports
the median. Then the train -> protect -> detect -> report -> review loop
repeats over the same inputs until ``--seconds`` have passed. Every
repetition checks its outcomes; each failed check counts as one failed
operation. Every timing is scaled to a reference host speed (see calib.py).

With ``--trace 0`` the last line holds every end-to-end metric. With
``--trace 1`` repetitions alternate untraced and traced, the traced ones
record spans around the layer entry points, and the last line holds the
per-layer metrics; a self-time table per span name is printed above it and
the spans are written to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPS = 15
MIN_REPS = 2


def _load_program() -> None:
    if not (ROOT / "src" / "pathguard" / "__init__.py").is_file():
        sys.exit(f"pathguard sources not found under {ROOT / 'src'}")
    sys.path.insert(0, str(ROOT / "src"))


_load_program()

import calib  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from pathguard.instrument import (  # noqa: E402
    POINT_BACKEDGE, POINT_BRANCH, POINT_CHECK, POINT_ENTRY, POINT_EXIT,
    POINT_EXT_PROT, POINT_EXT_UNPROT, POINT_ICALL, POINT_IRETURN, POINT_WRAPPER,
)

POINT_KINDS = (
    POINT_WRAPPER, POINT_ENTRY, POINT_BRANCH, POINT_BACKEDGE, POINT_ICALL,
    POINT_IRETURN, POINT_EXT_UNPROT, POINT_EXT_PROT, POINT_EXIT, POINT_CHECK,
)


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def end_to_end(setup_times: list[float], reps: list[workloads.RepStats]) -> dict:
    first = reps[0]
    latencies = [us for r in reps for us in r.latencies_us]
    # p99 per repetition, then the median: a host stall in one repetition
    # would otherwise fill the pooled tail
    p99 = [statistics.quantiles(r.latencies_us, n=100, method="inclusive")[98] for r in reps]
    reviewed = [r for r in reps if r.reviewed]
    median = statistics.median
    return {
        "setup_s": _metric(median(setup_times), "s"),
        "train_tx_per_s": _metric(median(r.train_txs / r.train_s for r in reps), "tx/s"),
        "protect_ms": _metric(median(1e3 * r.protect_s for r in reps), "ms"),
        "detect_tx_per_s": _metric(median(r.detect_txs / r.detect_s for r in reps), "tx/s"),
        "detect_tx_p50_us": _metric(median(latencies), "us"),
        "detect_tx_p99_us": _metric(median(p99), "us"),
        "report_tx_per_s": _metric(median(r.report_txs / r.report_s for r in reps), "tx/s"),
        "review_ms_per_alarm": _metric(
            median(1e3 * r.review_s / r.reviewed for r in reviewed) if reviewed else 0.0,
            "ms",
        ),
        "deploy_overhead_pct": _metric(100 * (first.size_instr / first.size_orig - 1), "%"),
        "runtime_gas_overhead_pct": _metric(
            100 * _ratio(first.gas_instr - first.gas_orig, first.gas_orig), "%"
        ),
        "approve_gas_per_path": _metric(_ratio(first.admin_gas, first.approved_paths), "gas"),
        "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(
    table: dict, setup_ms: float, reps: list[workloads.RepStats], overhead_pct: float
) -> dict:
    """Per-layer figures of the traced repetitions, timings at reference speed."""
    n = len(reps)
    slowdown = statistics.median(r.slowdown for r in reps)
    # span seconds at reference speed
    table = {
        name: {**row, "total_s": row["total_s"] / slowdown, "self_s": row["self_s"] / slowdown}
        for name, row in table.items()
    }

    def row(name):
        return table.get(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})

    def ms_per_rep(name):
        return 1e3 * row(name)["total_s"] / n

    def count_per_rep(name, key):
        return row(name).get(key, 0) / n

    def vm_level(level):
        r = row(f"vm.{level}")
        return r, _ratio(1e3 * r["total_s"], r["calls"]), _ratio(r.get("gas", 0), r["total_s"])

    full, full_ms, full_gas = vm_level("full")
    _, checks_ms, checks_gas = vm_level("checks")
    _, none_ms, _ = vm_level("none")
    oracle, mpht, run_tx = row("oracle"), row("pathset.build_mpht"), row("workflow.run_tx")
    first = reps[0]
    alarmed = sum(r.alarmed_txs for r in reps)
    reviewed = sum(r.reviewed for r in reps)
    metrics = {
        "asm.assemble_ms": _metric(setup_ms, "ms"),
        "bundle.analyze_ms": _metric(ms_per_rep("bundle.analyze"), "ms"),
        "cfg.build_ms": _metric(ms_per_rep("cfg.build"), "ms"),
        "cfg.blocks": _metric(count_per_rep("cfg.build", "blocks"), "count"),
        "cfg.edges": _metric(count_per_rep("cfg.build", "edges"), "count"),
        "epp.label_ms": _metric(ms_per_rep("epp.label"), "ms"),
        "epp.paths": _metric(count_per_rep("epp.label", "paths"), "count"),
        "callgraph.build_ms": _metric(ms_per_rep("callgraph.build"), "ms"),
        "ccp.label_ms": _metric(ms_per_rep("ccp.label"), "ms"),
        "ccp.contexts": _metric(count_per_rep("ccp.label", "contexts"), "count"),
        "vm.full.busy_ms_per_tx": _metric(full_ms, "ms"),
        "vm.full.gas_per_s": _metric(full_gas, "gas/s"),
        "vm.full.events_per_tx": _metric(_ratio(full.get("events", 0), full["calls"]), "count"),
        "vm.checks.busy_ms_per_tx": _metric(checks_ms, "ms"),
        "vm.checks.gas_per_s": _metric(checks_gas, "gas/s"),
        "vm.none.busy_ms_per_tx": _metric(none_ms, "ms"),
        "vm.world_clone_ms": _metric(ms_per_rep("vm.world_clone"), "ms"),
        "oracle.busy_ms": _metric(ms_per_rep("oracle"), "ms"),
        "oracle.events_per_s": _metric(_ratio(oracle.get("events", 0), oracle["total_s"]), "1/s"),
        "pathset.build_mpht_ms": _metric(ms_per_rep("pathset.build_mpht"), "ms"),
        "pathset.mpht_keys_per_s": _metric(_ratio(mpht.get("keys", 0), mpht["total_s"]), "1/s"),
        "pathset.functions.Mpht": _metric(first.strategies["Mpht"], "count"),
        "pathset.functions.List": _metric(first.strategies["List"], "count"),
        "workflow.make_snapshot_ms": _metric(ms_per_rep("workflow.make_snapshot"), "ms"),
        "instrument.rewrite_ms": _metric(ms_per_rep("instrument.rewrite"), "ms"),
        "instrument.points": _metric(count_per_rep("instrument.rewrite", "points"), "count"),
        "workflow.run_tx.self_us": _metric(1e6 * _ratio(run_tx["self_s"], run_tx["calls"]), "us"),
        "workflow.alarm_entries_per_alarmed_tx": _metric(
            _ratio(sum(r.alarm_entries for r in reps), alarmed), "count"
        ),
        "workflow.review_ms": _metric(
            1e3 * _ratio(row("workflow.review")["total_s"], row("workflow.review")["calls"]), "ms"
        ),
        "review.rounds_per_alarmed_tx": _metric(
            _ratio(sum(r.review_rounds for r in reps), reviewed), "count"
        ),
        "review.unique_pair_ratio": _metric(
            _ratio(sum(r.unique_pairs for r in reps), sum(r.alarm_entries for r in reps)), "ratio"
        ),
        "review.admin_gas_per_path": _metric(_ratio(first.admin_gas, first.approved_paths), "gas"),
        "review.live_appends": _metric(first.live_appends, "count"),
        "review.stalled_txs": _metric(first.stalled_reviews, "count"),
        "trace.overhead_pct": _metric(overhead_pct, "%"),
        "host.slowdown": _metric(slowdown, "ratio"),
    }
    for kind in POINT_KINDS:
        metrics[f"instrument.bytes.{kind}"] = _metric(first.point_bytes[kind], "bytes")
    for kind in POINT_KINDS:
        metrics[f"guard.gas_per_tx.{kind}"] = _metric(
            _ratio(first.point_gas[kind], first.reconciled_txs), "gas"
        )
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    setup_tracer = spans.Tracer()
    if args.trace:
        setup_tracer.install()
    clock = calib.HostClock()
    setup_times = []
    for _ in range(SETUP_REPS):
        mark = clock.mark()
        t0 = time.perf_counter()
        cases = workloads.make_cases(args.workload, args.seed)
        setup_times.append((time.perf_counter() - t0) / clock.since(mark))
    setup_slowdown = statistics.fmean(clock.samples)
    setup_tracer.uninstall()
    # keep the benchmark's own long-lived objects out of the cyclic
    # collector, so its pauses scale with pathguard's live objects only
    gc.collect()
    gc.freeze()

    tracer = spans.Tracer()
    untraced: list[workloads.RepStats] = []
    traced: list[workloads.RepStats] = []
    deadline = time.perf_counter() + args.seconds
    while time.perf_counter() < deadline or len(untraced) + len(traced) < MIN_REPS:
        trace_this = bool(args.trace) and len(untraced) > len(traced)
        stats = workloads.RepStats()
        if trace_this:
            tracer.install()
        try:
            workloads.run_rep(cases, args.workload, tracer, clock, stats)
        finally:
            tracer.uninstall()
        (traced if trace_this else untraced).append(stats)

    reps = untraced + traced
    attempted = sum(r.attempted for r in reps)
    failed = sum(r.failed for r in reps)
    first = reps[0]
    # the guest-side figures must repeat exactly in every repetition
    for rep in reps[1:]:
        attempted += 1
        if rep.exact() != first.exact():
            failed += 1
            rep.failures.append("guest-side figures differ between repetitions")
    if args.workload == "wide":
        attempted += 1
        if not workloads.wide_coverage_ok(first):
            failed += 1
            first.failures.append("wide reached no Mpht function or no Backedge hit")

    print(f"workload {args.workload}, seed {args.seed}: {len(reps)} repetitions"
          f" ({len(traced)} traced), {attempted} operations, {failed} failed;"
          f" host slowdown {statistics.median(r.slowdown for r in reps):.3f}")
    for rep in reps:
        for failure in rep.failures:
            print(f"  FAILED {failure}")
    print(f"{'contract':10s} {'function':10s} {'NumPaths':>9s} {'NumCCs':>7s}"
          f" {'safe':>5s}  strategy")
    for name, fn, paths, ccs, safe, strategy in first.functions:
        print(f"{name:10s} {fn:10s} {paths:9d} {ccs:7d} {safe:5d}  {strategy}")

    if args.trace:
        table = tracer.by_name()
        overhead = 100 * (
            statistics.median(r.wall_s for r in traced)
            / statistics.median(r.wall_s for r in untraced) - 1
        )
        assemble = setup_tracer.by_name().get("asm.assemble", {"total_s": 0.0})
        setup_ms = 1e3 * assemble["total_s"] / setup_slowdown / SETUP_REPS
        metrics = per_layer(table, setup_ms, traced, overhead)
        metrics["bench.failed_op_share"] = _metric(failed / attempted, "ratio")
        print(f"self time per traced repetition, raw host time ({len(traced)} repetitions):")
        print(spans.self_time_table(table, len(traced)))
        tracer.write(ROOT / ".bench_out" / f"spans-{args.workload}-{args.seed}.json")
    else:
        metrics = end_to_end(setup_times, untraced)
        per_rep = len(untraced[0].latencies_us)
        samples = {
            "setup_s": f"{len(setup_times)}",
            "detect_tx_p50_us": f"{len(untraced) * per_rep}",
            "detect_tx_p99_us": f"{len(untraced)}x{per_rep}",
        }
        for name, metric in metrics.items():
            print(f"{name:26s} {metric['value']:14.4f} {metric['unit']:5s}"
                  f" samples={samples.get(name, len(untraced))}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
