"""Benchmark entry point: one workload, one seed, end-to-end or traced.

Run from the repository root::

    python3 perfbench/run.py --workload paper-certify --seed 1 --seconds 25 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
are the human-readable report.  ``--trace 0`` reports the end-to-end
metrics, ``--trace 1`` the per-layer metrics of a traced run.  See
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKDIR = os.path.join(ROOT, ".perfbench")

#: Units of the end-to-end metrics (``--trace 0``).
END_TO_END_UNITS = {
    "setup_s": "s",
    "round_s": "s",
    "cached_s": "s",
    "peak_rss_mb": "MB",
    "passed_share": "ratio",
    "certified_share": "ratio",
    "lifetime_gain": "ratio",
}


def _layer_unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith(("ratio", "share")):
        return "ratio"
    if name.endswith("bytes_written"):
        return "bytes"
    return "count"


def _op_lines(measurement):
    import bench_core

    lines = []
    for name, values in measurement.wall.items():
        q1, median, q3 = bench_core.quartiles(values)
        lines.append(
            f"  {name:28s} {measurement.kinds[name]:6s} n={len(values):3d} "
            f"median={median:.4f}s q1={q1:.4f}s q3={q3:.4f}s"
        )
    return lines


def _trace_consistency(spans) -> float:
    """Largest gap between an operation's time and the self times inside it."""
    import bench_trace

    own = bench_trace.self_times(spans)
    op_time, covered = {}, {}
    for (name, start, end, _, op_id), self_s in zip(spans, own):
        covered[op_id] = covered.get(op_id, 0.0) + self_s
        if name == "op":
            op_time[op_id] = end - start
    return max((abs(op_time[k] - covered[k]) for k in op_time), default=0.0)


def run_benchmark(workload: str, seed: int, seconds: float, trace: bool, tiny: bool = False):
    """Set up, measure and check one workload; returns (result, report lines)."""
    import bench_core
    import bench_trace
    import bench_workloads

    if workload not in bench_workloads.WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    workdir = os.path.join(WORKDIR, f"run-{os.getpid()}")
    setup_s, setup_wall_s, wl = bench_core.setup(
        lambda: bench_workloads.make(workload, seed, workdir, tiny=tiny), ROOT
    )
    report = []
    tracer = None
    try:
        if trace:
            plain = bench_core.measure(wl, seconds / 2.0, seed, min_rounds=1)
            tracer = bench_trace.install()
            try:
                traced = bench_core.measure(wl, seconds / 2.0, seed + 1, tracer, min_rounds=1)
            finally:
                tracer.uninstall()
            runs = [plain, traced]
        else:
            plain = bench_core.measure(wl, seconds, seed)
            runs = [plain]
        problems = wl.verify()
        quality = wl.quality()
    finally:
        wl.close()

    attempted = sum(m.attempted for m in runs)
    failed = sum(m.failed for m in runs)
    errors = [error for m in runs for error in m.errors]
    for op_name, problem in problems.items():
        failed += sum(m.passed.get(op_name, 0) for m in runs)
        errors.append(f"{op_name}: {problem}")
    correct = failed == 0

    round_s = plain.total("round")
    has_cached = "cached" in plain.kinds.values()
    if not trace:
        values = {
            "setup_s": setup_s,
            "round_s": round_s,
            # Only the Monte-Carlo path has a result store; elsewhere serving
            # the same requests again recomputes them.
            "cached_s": plain.total("cached") if has_cached else round_s,
            "peak_rss_mb": bench_core.peak_rss_mb(),
            "passed_share": 1.0 - failed / max(attempted, 1),
            "certified_share": quality["certified_share"],
            "lifetime_gain": quality["lifetime_gain"],
        }
        metrics = {
            name: {"value": values[name], "unit": unit}
            for name, unit in END_TO_END_UNITS.items()
        }
        # The same times unscaled, for comparing spreads with and without
        # the calibration (``spread.py`` summarizes these lines too).
        unscaled = {
            "setup_s": setup_wall_s,
            "round_s": plain.total_wall("round"),
            "cached_s": plain.total_wall("cached") if has_cached else plain.total_wall("round"),
        }
        report.extend(f"unscaled {name} {value!r} s" for name, value in unscaled.items())
    else:
        table = bench_trace.layer_table(tracer.spans)
        values = bench_trace.layer_metrics(table, tracer.counters, traced.rounds)
        per_round = 1.0 / max(traced.rounds, 1)
        values["store.bytes_written"] = tracer.counters["store.bytes_written"] * per_round
        plain_rounds = max(plain.rounds, 1)
        values["proc.cpu_s"] = plain.cpu_s / plain_rounds
        values["proc.cpu_share"] = plain.cpu_s / plain.wall_s if plain.wall_s else 0.0
        values["gc.collections"] = plain.gc_collections / plain_rounds
        values["gc.pause_s"] = plain.gc_pause_s / plain_rounds
        values["proc.calibration_s"] = statistics.median(plain.calibration)
        traced_round_s = traced.total("round")
        values["trace.overhead_ratio"] = traced_round_s / round_s if round_s else 0.0
        gap = _trace_consistency(tracer.spans)
        if gap > 1e-6:
            correct = False
            errors.append(f"self times miss the operation time by {gap:.3g}s")
        metrics = {
            name: {"value": value, "unit": _layer_unit(name)}
            for name, value in values.items()
        }
        os.makedirs(WORKDIR, exist_ok=True)
        tracer.write(os.path.join(WORKDIR, f"spans-{workload}.jsonl"))
        report.append(f"layer table ({traced.rounds} traced rounds, per round):")
        report.append(f"  {'span':24s} {'calls':>9s} {'total_s':>9s} {'self_s':>9s}")
        for name, row in sorted(table.items(), key=lambda item: -item[1]["self_s"]):
            report.append(
                f"  {name:24s} {row['calls'] * per_round:9.1f} "
                f"{row['s'] * per_round:9.4f} {row['self_s'] * per_round:9.4f}"
            )
        report.append(f"  self times add up to each operation's time within {gap:.2e}s")

    meta = dict(bench_core.metadata(ROOT, seed), workload=workload,
                rounds=[m.rounds for m in runs], trace=int(trace))
    report.insert(0, "meta " + json.dumps(meta, sort_keys=True))
    for m in runs:
        report.append(
            f"operations ({m.rounds} rounds, wall times; the run's median "
            f"speed factor to the reference speed is {m.scale():.4f}):"
        )
        report.extend(_op_lines(m))
    for error in errors[:20]:
        report.append(f"FAILED {error}")
    report.append(f"failed_share {failed / max(attempted, 1):.6f} ({failed} of {attempted})")
    for name, metric in metrics.items():
        report.append(f"{name:32s} {metric['value']:.6g} {metric['unit']}")
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    return result, report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # One BLAS/OpenMP thread, set before NumPy is first imported: the
    # benchmark measures one single-threaded process.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    source = os.path.join(ROOT, "src")
    sys.path.insert(0, source)
    try:
        import repro
    except ImportError as error:
        print(f"cannot import the program from {source}: {error}", file=sys.stderr)
        return 2
    if not os.path.abspath(repro.__file__).startswith(source + os.sep):
        print(f"imported repro from {repro.__file__}, not from {source}", file=sys.stderr)
        return 2

    result, report = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    for line in report:
        print(line)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
