"""Run-to-run spread: run one workload over several seeds and summarize.

    python3 perfbench/spread.py --workload paper-certify --seeds 1-10 --seconds 25

Each run is a separate ``perfbench/run.py`` process, started only after
the previous one ended.  For every metric the summary gives the median
and the quartiles of its values over the runs (``statistics.quantiles``
with ``n=4``) and their distance as a share of the median, the number a
metric's ``bound`` in ``BENCHMARK.json`` has to cover.  The times before
scaling to the reference speed are summarized too, as ``unscaled.*``,
so the spreads with and without the calibration can be compared.  ``--out`` also
writes every run's result as JSON lines.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text: str):
    """``"1-5"`` or ``"1,4,9"`` to a list of ints."""
    if "-" in text:
        first, last = text.split("-")
        return list(range(int(first), int(last) + 1))
    return [int(part) for part in text.split(",")]


def summarize(results):
    """metric -> (median, q1, q3, (q3 - q1) / median) over the results."""
    values = {}
    for result in results:
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    out = {}
    for name, series in values.items():
        if len(series) >= 2:
            q1, median, q3 = statistics.quantiles(series, n=4)
        else:
            q1 = median = q3 = series[0]
        spread = (q3 - q1) / median if median else float("nan")
        out[name] = (median, q1, q3, spread)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-5")
    parser.add_argument("--seconds", default="25")
    parser.add_argument("--trace", default="0")
    parser.add_argument("--out", help="append every run's result to this JSONL file")
    args = parser.parse_args(argv)

    results = []
    for seed in parse_seeds(args.seeds):
        started = time.perf_counter()
        completed = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", args.seconds, "--trace", args.trace],
            cwd=ROOT, capture_output=True, text=True,
        )
        if completed.returncode != 0:
            print(completed.stdout + completed.stderr, file=sys.stderr)
            return completed.returncode
        lines = completed.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        result["seed"] = seed
        # ``run.py`` prints the times before scaling as "unscaled <name> <value> s".
        for line in lines[:-1]:
            if line.startswith("unscaled "):
                _, name, value, unit = line.split()
                result["metrics"][f"unscaled.{name}"] = {"value": float(value), "unit": unit}
        results.append(result)
        if args.out:
            with open(args.out, "a") as handle:
                handle.write(json.dumps(dict(result, workload=args.workload)) + "\n")
        brief = " ".join(
            f"{name}={metric['value']:.4g}" for name, metric in result["metrics"].items()
        )
        elapsed = time.perf_counter() - started
        print(f"seed {seed} ({elapsed:.1f}s): correct={result['correct']} {brief}", flush=True)
    print(f"{'metric':32s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s}")
    for name, (median, q1, q3, spread) in summarize(results).items():
        print(f"{name:32s} {median:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.2%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
