"""Experiment E8 (extension, Section 7 outlook): random-load analysis.

The paper's conclusion calls for analysing realistic random loads, which the
Cora toolchain cannot express.  This harness samples random ILs-like loads,
runs the deterministic schedulers and the (capped) optimal scheduler on each
sample, and reports the lifetime distributions -- the Monte-Carlo companion
of Table 5.
"""

import time

import pytest

from benchmarks.conftest import emit, write_bench_record
from repro.analysis.montecarlo import render_distributions, run_montecarlo
from repro.core.simulator import simulate_policy
from repro.engine import BatchSimulator, ScenarioSet
from repro.kibam.parameters import B1
from repro.workloads.generator import ILS_LIKE_RANDOM_CONFIG


@pytest.mark.benchmark(group="random-loads")
def test_random_load_distribution(benchmark, b1):
    config = ILS_LIKE_RANDOM_CONFIG

    def sweep():
        return run_montecarlo(
            [B1, B1],
            n_samples=20,
            policies=("sequential", "round-robin", "best-of-two", "optimal"),
            config=config,
            seed=42,
            optimal_max_nodes=4000,
        )

    result = benchmark.pedantic(sweep, rounds=1, iterations=1)
    emit(
        "Extension -- lifetime distribution over 20 random ILs-like loads (2 x B1)",
        render_distributions(result)
        + "\n\nmean gain of best-of-two over round robin: "
        + f"{result.mean_gain_percent('best-of-two', 'round-robin'):.1f} %"
        + "\nmean gain of the (capped) optimal search over best-of-two: "
        + f"{result.mean_gain_percent('optimal', 'best-of-two'):.1f} %",
    )

    # The optimal search starts from the best-of-two incumbent, so it can
    # never lose to it on any sample.
    for best, optimal in zip(result.per_sample["best-of-two"], result.per_sample["optimal"]):
        assert best <= optimal + 1e-9
    assert result.engine == "batch"  # auto engine vectorizes this sweep
    # The qualitative Table 5 ordering survives randomization on average:
    # sequential is the weakest scheme and battery-state-aware picks beat the
    # blind round robin on non-uniform loads.
    distributions = result.distributions
    assert distributions["sequential"].mean <= distributions["round-robin"].mean + 1e-9
    assert result.mean_gain_percent("best-of-two", "round-robin") > 0.0
    assert result.mean_gain_percent("optimal", "round-robin") > 0.0


@pytest.mark.benchmark(group="engine")
def test_engine_throughput_1000_samples(benchmark, b1):
    """Extension E9: fleet-scale Monte-Carlo throughput, scalar vs batch.

    Runs the acceptance sweep of the batch engine PR -- 1000 random-load
    samples x 3 policies on 2 x B1 -- through ``BatchSimulator`` and
    measures the scalar loop on a subset (the full scalar sweep would take
    minutes), then records both rates in ``BENCH_engine.json`` so the perf
    trajectory is tracked from this PR onward.
    """
    config = ILS_LIKE_RANDOM_CONFIG
    policies = ("sequential", "round-robin", "best-of-two")
    n_samples = 1000
    scalar_subset = 30
    scenarios = ScenarioSet.random(n_samples, config, seed=0)
    simulator = BatchSimulator([b1, b1])

    # Scalar reference loop (the pre-engine Monte-Carlo hot path), timed on
    # the first ``scalar_subset`` of the same samples: one warmup pass, then
    # the best of two timed repeats, mirroring the min-of-rounds treatment
    # the batch side gets so one scheduler hiccup cannot skew the ratio.
    def scalar_sweep():
        return {
            policy: [
                simulate_policy([b1, b1], load, policy).lifetime
                for load in scenarios.loads[:scalar_subset]
            ]
            for policy in policies
        }

    scalar_sweep()
    scalar_samples = []
    for _ in range(2):
        start = time.perf_counter()
        scalar_lifetimes = scalar_sweep()
        scalar_samples.append(time.perf_counter() - start)
    scalar_seconds = min(scalar_samples)
    scalar_rate = scalar_subset * len(policies) / scalar_seconds

    def sweep():
        return simulator.run_many(scenarios, policies)

    results = benchmark.pedantic(sweep, rounds=3, iterations=1, warmup_rounds=1)
    batch_samples = list(benchmark.stats.stats.data)
    batch_seconds = min(batch_samples)
    batch_rate = n_samples * len(policies) / batch_seconds
    speedup = batch_rate / scalar_rate

    # The batch engine must agree with the scalar loop sample for sample...
    for policy in policies:
        for index, scalar_value in enumerate(scalar_lifetimes[policy]):
            assert abs(results[policy].lifetimes[index] - scalar_value) <= 1e-9
    # ... and clearly beat the scalar loop.  The engine's bar is 10x and it
    # measures ~19x on a quiet single core, but wall-clock ratios on shared
    # CI runners are noisy, so the hard gate sits at half the bar; the true
    # measured ratio is recorded in BENCH_engine.json either way.
    assert speedup >= 5.0, f"batch engine speedup {speedup:.1f}x fell below 5x"

    record = {
        "experiment": "montecarlo-random-loads",
        "batteries": "2 x B1",
        "n_samples": n_samples,
        "policies": list(policies),
        "scalar_subset": scalar_subset,
        "scalar_scenarios_per_sec": round(scalar_rate, 1),
        "batch_scenarios_per_sec": round(batch_rate, 1),
        "batch_seconds_per_sweep": round(batch_seconds, 4),
        "speedup": round(speedup, 1),
    }
    write_bench_record(
        "BENCH_engine.json",
        record,
        timings={"scalar_subset": scalar_samples, "batch_sweep": batch_samples},
    )
    emit(
        "Extension E9 -- batch engine throughput (1000 samples x 3 policies, 2 x B1)",
        f"scalar loop : {scalar_rate:10.1f} scenario-policies/sec "
        f"(measured on {scalar_subset} samples)\n"
        f"batch engine: {batch_rate:10.1f} scenario-policies/sec "
        f"(full {n_samples}-sample sweep)\n"
        f"speedup     : {speedup:10.1f} x   -> BENCH_engine.json",
    )
