#!/usr/bin/env python3
"""Fleet-scale Monte-Carlo sweep on the batch execution engine.

Samples many random ILs-like loads, sweeps the deterministic scheduling
policies over all of them through :func:`repro.run_montecarlo` on the
vectorized batch engine, and prints the lifetime distributions plus the
achieved throughput.  With ``--compare`` it also runs the scalar
golden-reference loop on a subset and reports the agreement and the
speedup; with ``--cache-dir`` the sweep routes through the
:mod:`repro.sweep` result store, so repeating the same seed/sample count is
a cache read (see ``examples/parameter_sweep.py`` for full declarative
campaigns).

Usage::

    python examples/batch_sweep.py                 # 1000 samples, batch engine
    python examples/batch_sweep.py --samples 200 --compare
    python examples/batch_sweep.py --cache-dir .sweep-store
"""

import argparse
import time

from repro import B1, run_montecarlo, simulate_policy
from repro.analysis.montecarlo import render_distributions
from repro.engine import ScenarioSet
from repro.workloads.generator import ILS_LIKE_RANDOM_CONFIG

POLICIES = ("sequential", "round-robin", "best-of-two")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--samples", type=int, default=1000, help="number of random loads")
    parser.add_argument("--seed", type=int, default=0, help="base seed for the loads")
    parser.add_argument(
        "--compare",
        action="store_true",
        help="also run the scalar reference loop on a subset and report the speedup",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        help="route the sweep through a repro.sweep result store at this path",
    )
    args = parser.parse_args()

    config = ILS_LIKE_RANDOM_CONFIG
    params = [B1, B1]

    start = time.perf_counter()
    summary = run_montecarlo(
        params,
        n_samples=args.samples,
        policies=POLICIES,
        config=config,
        seed=args.seed,
        engine="auto",
        cache_dir=args.cache_dir,
    )
    sweep_seconds = time.perf_counter() - start

    print(f"{args.samples} random loads x {len(POLICIES)} policies on 2 x B1\n")
    print(render_distributions(summary))
    rate = args.samples * len(POLICIES) / sweep_seconds
    print(
        f"\nbatch sweep    : {sweep_seconds:6.2f} s"
        f"  ({rate:,.0f} scenario-policies/sec, engine={summary.engine})"
    )
    if args.cache_dir:
        print(f"result store   : {args.cache_dir} (re-run for a cache hit)")
    gain = summary.mean_gain_percent("best-of-two", "round-robin")
    print(f"mean gain of best-of-two over round robin: {gain:.2f} %")

    if args.compare:
        # Sample i is drawn with seed + i, so generating just the subset
        # reproduces the first `subset` loads of the sweep above exactly.
        subset = min(args.samples, 30)
        loads = ScenarioSet.random(subset, config, seed=args.seed).loads
        start = time.perf_counter()
        scalar = {
            policy: [
                simulate_policy(params, load, policy).lifetime
                for load in loads
            ]
            for policy in POLICIES
        }
        scalar_seconds = time.perf_counter() - start
        worst = max(
            abs(scalar_value - summary.per_sample[policy][index])
            for policy in POLICIES
            for index, scalar_value in enumerate(scalar[policy])
        )
        scalar_rate = subset * len(POLICIES) / scalar_seconds
        print(
            f"\nscalar reference on {subset} samples: {scalar_seconds:.2f} s "
            f"({scalar_rate:,.0f} scenario-policies/sec)"
            f"\nworst |scalar - batch| deviation: {worst:.2e} min"
            f"\nbatch speedup: {rate / scalar_rate:.1f}x"
        )


if __name__ == "__main__":
    main()
