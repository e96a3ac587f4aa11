"""Extension E11: vectorized dKiBaM throughput, batch engine vs scalar ticks.

The discrete-time KiBaM (Section 2.3) has no closed form: the scalar
golden-reference path walks every battery one 0.01-minute tick at a time in
pure Python, which is why discrete columns used to be the slowest part of
every campaign.  This harness measures the batch dKiBaM
(``model="discrete"``, which steps each scenario segment by segment on the
shared segment kernel) against that scalar tick loop on the reference
Monte-Carlo sweep -- random ILs-like loads x 3 policies on 2 x B1 -- checks
the exact tick-for-tick parity contract on the measured subset, and records
both rates in ``BENCH_dkibam.json`` next to the other throughput records.

The acceptance bar of the dKiBaM-vectorization PR is a 10x batch-vs-scalar
throughput ratio on one core (observed: well above 20x; wall-clock ratios
on shared runners are noisy, so the hard in-test gate sits at half the bar
while ``scripts/check_bench.py`` tracks the recorded ratio against the
committed baseline).

A second harness times that dKiBaM segment kernel
(:func:`repro.engine.kernels.discrete_segment_array`) against the per-tick
scalar ``run_segment`` on one fixed lane batch taken from the certified
``ILs 250`` search (recorded through the search's own binding,
``optimal_batch.discrete_segment_array``), and records that search's wall
time.
"""

import time

import numpy as np
import pytest

from benchmarks.conftest import emit, write_bench_record
from repro.core.simulator import simulate_policy
from repro.engine import BatchSimulator, ScenarioSet
from repro.engine import optimal_batch
from repro.kibam.discrete import DischargeSpec, DiscreteBatteryState, DiscreteKibam
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


def _certified_search_with_calls(b1, load):
    """The certified dKiBaM search on 2 x B1, with every kernel call's inputs."""
    calls = []
    kernel = optimal_batch.discrete_segment_array

    def recording(*args):
        calls.append(args)
        return kernel(*args)

    optimal_batch.discrete_segment_array = recording
    try:
        result = optimal_batch.find_optimal_schedule_batched(
            [b1, b1], load, model="discrete"
        )
    finally:
        optimal_batch.discrete_segment_array = kernel
    return result, calls


@pytest.mark.benchmark(group="dkibam")
def test_dkibam_segment_kernel_vs_scalar_ticks(b1, loads):
    """The search's dKiBaM kernel against per-tick ``run_segment`` calls.

    The lane batch is fixed: the serving call and the idle call with the
    most lane-ticks of the certified ``ILs 250`` search (the search is
    deterministic), joined into one mixed call.  Both sides must agree
    exactly on every lane; the recorded ratio is scalar seconds over
    kernel seconds.
    """
    load = loads["ILs 250"]
    result, calls = _certified_search_with_calls(b1, load)
    assert result.complete

    def lane_ticks(args):
        return int(args[-1].sum())

    serving = max((a for a in calls if (a[10] > 0).all()), key=lane_ticks)
    idle = max((a for a in calls if (a[10] == 0).all()), key=lane_ticks)
    # Tables are shared; every other argument is one value per lane.
    batch = serving[:2] + tuple(
        np.concatenate([s, i]) for s, i in zip(serving[2:], idle[2:])
    )
    model = DiscreteKibam(b1)
    _, _, _, _, n, m, recov, acc, rate_cur, rate_ct, cur, cur_times, ticks = batch
    lanes = [
        (
            DiscreteBatteryState(
                n=int(n[i]),
                m=int(m[i]),
                disch_ticks=int(acc[i]),
                disch_rate=(int(rate_cur[i]), int(rate_ct[i])),
                recov_ticks=int(recov[i]),
            ),
            DischargeSpec(int(cur[i]), int(cur_times[i])).current(
                model.charge_unit, model.time_step
            ),
            int(ticks[i]) * model.time_step,
        )
        for i in range(n.size)
    ]

    # The host's speed drifts within seconds, so the two sides alternate:
    # each round times one scalar pass and the best of ten kernel calls,
    # and the recorded ratio is the median of the per-round ratios.
    scalar_samples, kernel_samples, ratios = [], [], []
    for _ in range(5):
        start = time.perf_counter()
        scalar = [model.run_segment(*lane) for lane in lanes]
        scalar_samples.append(time.perf_counter() - start)
        for _ in range(10):
            start = time.perf_counter()
            out = optimal_batch.discrete_segment_array(*batch)
            kernel_samples.append(time.perf_counter() - start)
        ratios.append(scalar_samples[-1] / min(kernel_samples[-10:]))
    for i, (state, empty_tick) in enumerate(scalar):
        assert tuple(int(array[i]) for array in out) == (
            state.n,
            state.m,
            state.recov_ticks,
            state.disch_ticks,
            *state.disch_rate,
            -1 if empty_tick is None else empty_tick,
        )
    kernel_speedup = float(np.median(ratios))

    search_samples = []
    for _ in range(2):
        start = time.perf_counter()
        again = optimal_batch.find_optimal_schedule_batched(
            [b1, b1], load, model="discrete"
        )
        search_samples.append(time.perf_counter() - start)
    assert (again.lifetime, again.nodes_expanded) == (
        result.lifetime, result.nodes_expanded
    )

    record = {
        "segment_kernel_batch": {
            "source": "certified dKiBaM ILs 250 search, 2 x B1",
            "serving_lanes": int(serving[2].size),
            "idle_lanes": int(idle[2].size),
            "lane_ticks": int(ticks.sum()),
        },
        "segment_kernel_speedup": round(kernel_speedup, 1),
        "ils250_certified_search_seconds": round(min(search_samples), 4),
        "ils250_certified_search_nodes": int(result.nodes_expanded),
    }
    write_bench_record(
        "BENCH_dkibam.json",
        record,
        timings={
            "segment_kernel_scalar": scalar_samples,
            "segment_kernel": kernel_samples,
            "ils250_certified_search": search_samples,
        },
    )
    emit(
        "dKiBaM segment kernel vs per-tick run_segment (ILs 250 lanes, 2 x B1)",
        f"lanes        : {n.size} ({serving[2].size} serving, {idle[2].size} idle), "
        f"{int(ticks.sum())} lane-ticks\n"
        f"scalar ticks : {min(scalar_samples) * 1e3:10.2f} ms\n"
        f"kernel       : {min(kernel_samples) * 1e3:10.2f} ms\n"
        f"speedup      : {kernel_speedup:10.1f} x   -> BENCH_dkibam.json\n"
        f"certified ILs 250 search: {min(search_samples):.3f} s, "
        f"{result.nodes_expanded} nodes",
    )
