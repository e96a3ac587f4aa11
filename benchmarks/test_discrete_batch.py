"""Extension E11: vectorized dKiBaM throughput, batch engine vs scalar ticks.

The discrete-time KiBaM (Section 2.3) has no closed form: the scalar
golden-reference path walks every battery one 0.01-minute tick at a time in
pure Python, which is why discrete columns used to be the slowest part of
every campaign.  This harness measures the event-jumping batch dKiBaM
(``model="discrete"``) against that scalar tick loop on the reference
Monte-Carlo sweep -- random ILs-like loads x 3 policies on 2 x B1 -- checks
the exact tick-for-tick parity contract on the measured subset, and records
both rates in ``BENCH_dkibam.json`` next to the other throughput records.

The acceptance bar of the dKiBaM-vectorization PR is a 10x batch-vs-scalar
throughput ratio on one core (observed: well above 20x; wall-clock ratios
on shared runners are noisy, so the hard in-test gate sits at half the bar
while ``scripts/check_bench.py`` tracks the recorded ratio against the
committed baseline).
"""

import time

import pytest

from benchmarks.conftest import emit, write_bench_record
from repro.core.simulator import simulate_policy
from repro.engine import BatchSimulator, ScenarioSet
from repro.workloads.generator import ILS_LIKE_RANDOM_CONFIG


@pytest.mark.benchmark(group="dkibam")
def test_dkibam_batch_throughput(benchmark, b1):
    config = ILS_LIKE_RANDOM_CONFIG
    policies = ("sequential", "round-robin", "best-of-two")
    n_samples = 600
    scalar_subset = 6
    scenarios = ScenarioSet.random(n_samples, config, seed=0)
    simulator = BatchSimulator([b1, b1], model="discrete")
    time_step = simulator.time_step

    # Scalar reference: the per-tick Python loop, timed on the first
    # ``scalar_subset`` samples (the full scalar sweep would take minutes);
    # one warmup pass, then the best of two timed repeats, mirroring the
    # min-of-rounds treatment the batch side gets.
    def scalar_sweep():
        return {
            policy: [
                simulate_policy([b1, b1], load, policy, backend="discrete")
                for load in scenarios.loads[:scalar_subset]
            ]
            for policy in policies
        }

    scalar_sweep()
    scalar_samples = []
    for _ in range(2):
        start = time.perf_counter()
        scalar_results = scalar_sweep()
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

    # The batch dKiBaM's contract is *exact* integer parity with the scalar
    # tick loop -- lifetimes in ticks and final charge units, not a float
    # tolerance -- verified here on every measured scalar sample.
    for policy in policies:
        for index, scalar in enumerate(scalar_results[policy]):
            assert results[policy].lifetime_ticks[index] == round(
                scalar.lifetime / time_step
            )
            for battery, state in enumerate(scalar.final_states):
                assert results[policy].charge_units[index, battery, 0] == state.n
                assert results[policy].charge_units[index, battery, 1] == state.m

    assert speedup >= 5.0, f"batch dKiBaM speedup {speedup:.1f}x fell below 5x"

    record = {
        "experiment": "dkibam-batch-vs-scalar-ticks",
        "batteries": "2 x B1",
        "model": "discrete",
        "n_samples": n_samples,
        "policies": list(policies),
        "scalar_subset": scalar_subset,
        "scalar_scenarios_per_sec": round(scalar_rate, 1),
        "batch_scenarios_per_sec": round(batch_rate, 1),
        "batch_seconds_per_sweep": round(batch_seconds, 4),
        "speedup": round(speedup, 1),
    }
    write_bench_record(
        "BENCH_dkibam.json",
        record,
        timings={"scalar_subset": scalar_samples, "batch_sweep": batch_samples},
    )
    emit(
        "Extension E11 -- batch dKiBaM throughput (600 samples x 3 policies, 2 x B1)",
        f"scalar ticks: {scalar_rate:10.1f} scenario-policies/sec "
        f"(measured on {scalar_subset} samples)\n"
        f"batch dKiBaM: {batch_rate:10.1f} scenario-policies/sec "
        f"(full {n_samples}-sample sweep)\n"
        f"speedup     : {speedup:10.1f} x   -> BENCH_dkibam.json",
    )
