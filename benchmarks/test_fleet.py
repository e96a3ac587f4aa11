"""Fleet-scale scheduling: N-battery search throughput and symmetry pruning.

The fleet extension takes the optimal search beyond the paper's two
batteries.  This harness measures two things and records them in
``BENCH_fleet.json`` (gated by ``scripts/check_bench.py``):

* **node throughput at fleet width** -- the batched best-first search on
  the 4- and 8-battery mixed-B1-scale fleets of the ``fleet``/``fleet-8``
  sweep specs, under the duty-cycled sensor load that drives both searches
  into their node budget, in expanded nodes per second
  (``fleet4_nodes_per_sec``, ``fleet8_nodes_per_sec``) and in seconds per
  1500-node search (``fleet4_seconds_per_search``,
  ``fleet8_seconds_per_search``) -- a bound that prunes more changes what
  each node costs, so nodes per second alone can mislead;
* **group-wise symmetry pruning** -- certified searches on fleets with
  identical subgroups (2+2, 3+1 and 4+4), with the group-wise symmetry
  reduction on vs off, recorded as the expanded-node ratio
  (``group_symmetry_nodes_ratio``).  Node counts are deterministic, so the
  ratio is exactly reproducible for a given revision; the result-identity
  check (bitwise-equal lifetimes) runs inside the benchmark.

Both harnesses merge their keys into ``BENCH_fleet.json`` so either can
run alone without clobbering the other's gated record.
"""

import time

import pytest

from benchmarks.conftest import emit, write_bench_record
from repro.engine.optimal_batch import find_optimal_schedule_batched
from repro.kibam.parameters import B1, BatteryParameters
from repro.workloads.generator import duty_cycled_sensor_load
from repro.workloads.load import Epoch, Load


#: The ``fleet`` / ``fleet-8`` sweep-spec batteries (mixed B1 scales).
HALF = B1.scaled(0.5)
SMALL = B1.scaled(0.375)
FLEET4 = [HALF, HALF, SMALL, SMALL]
FLEET8 = [HALF] * 4 + [SMALL] * 4

#: Node budget for the timed searches (both fleet widths exceed it under
#: the sensor load, so each timed search does exactly this much work).
MEASURE_NODES = 1500

#: The sweep-column state-merge tolerance.
TOLERANCE = 0.005


def _sensor_load() -> Load:
    """The fleet specs' duty-cycled sensor load (DCS 500)."""
    return duty_cycled_sensor_load(
        sense_current=0.1,
        transmit_current=0.5,
        sense_duration=0.5,
        transmit_duration=0.5,
        period=2.0,
        transmit_every=2,
        cycles=80,
    )


@pytest.mark.benchmark(group="fleet")
def test_fleet_node_throughput(benchmark):
    """Batched-search node throughput at 4 and 8 batteries."""
    load = _sensor_load()

    def fleet4_search():
        return find_optimal_schedule_batched(
            FLEET4, load, dominance_tolerance=TOLERANCE, max_nodes=MEASURE_NODES
        )

    def fleet8_search():
        return find_optimal_schedule_batched(
            FLEET8, load, dominance_tolerance=TOLERANCE, max_nodes=MEASURE_NODES
        )

    result4 = benchmark.pedantic(
        fleet4_search, rounds=3, iterations=1, warmup_rounds=1
    )
    samples4 = list(benchmark.stats.stats.data)
    seconds4 = min(samples4)
    rate4 = result4.nodes_expanded / seconds4

    # The 8-battery side: one warmup, then the best of two timed repeats
    # (one pedantic call per test; mirrors the min-of-rounds treatment).
    fleet8_search()
    samples8 = []
    for _ in range(2):
        start = time.perf_counter()
        result8 = fleet8_search()
        samples8.append(time.perf_counter() - start)
    seconds8 = min(samples8)
    rate8 = result8.nodes_expanded / seconds8

    # Both widths did exactly the budgeted amount of expansion work.
    assert result4.nodes_expanded == MEASURE_NODES
    assert result8.nodes_expanded == MEASURE_NODES

    write_bench_record(
        "BENCH_fleet.json",
        {
            "experiment": "fleet-scale-optimal-search",
            "load": "DCS 500 (duty-cycled sensor)",
            "max_nodes": MEASURE_NODES,
            "dominance_tolerance": TOLERANCE,
            "fleet4_batteries": "2 x B1x0.5 + 2 x B1x0.375",
            "fleet8_batteries": "4 x B1x0.5 + 4 x B1x0.375",
            "fleet4_nodes_per_sec": round(rate4, 1),
            "fleet8_nodes_per_sec": round(rate8, 1),
            "fleet4_seconds_per_search": round(seconds4, 4),
            "fleet8_seconds_per_search": round(seconds8, 4),
        },
        timings={"fleet4_search": samples4, "fleet8_search": samples8},
    )
    emit(
        "Fleet extension -- batched optimal search throughput at fleet width",
        f"4-battery fleet: {rate4:10.1f} nodes/sec, {seconds4:.3f} s per "
        f"{MEASURE_NODES}-node search\n"
        f"8-battery fleet: {rate8:10.1f} nodes/sec, {seconds8:.3f} s per "
        f"{MEASURE_NODES}-node search -> BENCH_fleet.json",
    )


#: Symmetry-ratio fleets: small identical-subgroup fleets whose certified
#: searches finish quickly even with the reduction disabled.
SYM_A = BatteryParameters(capacity=1.2, c=0.166, k_prime=0.122)
SYM_B = BatteryParameters(capacity=0.9, c=0.166, k_prime=0.122)
SYM_FLEETS = {
    "4 (2+2)": [SYM_A, SYM_A, SYM_B, SYM_B],
    "4 (3+1)": [SYM_A, SYM_A, SYM_A, SYM_B],
    "8 (4+4)": [SYM_A] * 4 + [SYM_B] * 4,
}


def _symmetry_load(n_cycles: int = 20) -> Load:
    """A job/idle alternation deep enough for non-trivial fleet searches."""
    epochs = []
    for index in range(n_cycles):
        epochs.append(
            Epoch(current=0.5 if index % 2 == 0 else 0.25, duration=1.0)
        )
        epochs.append(Epoch(current=0.0, duration=0.5))
    return Load(name="fleet-deep", epochs=tuple(epochs))


@pytest.mark.benchmark(group="fleet")
def test_group_symmetry_prunes_nodes_with_identical_results():
    """Group-wise symmetry: certified node counts with the reduction on/off.

    Node counts are deterministic (no timing noise); the gated ratio is
    total nodes without the reduction over total nodes with it, and the
    invariant checked inside the benchmark is bitwise result identity --
    permuting identical batteries yields the same float trajectory, so
    pruning permuted duplicates must not move the lifetime at all.
    """
    load = _symmetry_load()
    per_fleet = {}
    with_total = without_total = 0
    for label, fleet in SYM_FLEETS.items():
        pruned = find_optimal_schedule_batched(fleet, load, max_nodes=60_000)
        full = find_optimal_schedule_batched(
            fleet, load, max_nodes=60_000, use_symmetry=False
        )
        assert pruned.complete and full.complete
        assert pruned.lifetime == full.lifetime
        assert pruned.nodes_expanded < full.nodes_expanded
        per_fleet[label] = (pruned.nodes_expanded, full.nodes_expanded)
        with_total += pruned.nodes_expanded
        without_total += full.nodes_expanded

    ratio = without_total / with_total
    assert ratio > 1.0

    write_bench_record(
        "BENCH_fleet.json",
        {
            "symmetry_fleets": {
                label: {"with_symmetry": with_n, "without_symmetry": without_n}
                for label, (with_n, without_n) in per_fleet.items()
            },
            "symmetry_nodes_with": with_total,
            "symmetry_nodes_without": without_total,
            "group_symmetry_nodes_ratio": round(ratio, 3),
        }
    )
    emit(
        "Fleet extension -- group-wise symmetry pruning (certified searches)",
        "\n".join(
            f"{label:8s}: {with_n:6d} nodes with symmetry, "
            f"{without_n:6d} without"
            for label, (with_n, without_n) in per_fleet.items()
        )
        + f"\nnodes ratio: {ratio:.3f} x fewer -> BENCH_fleet.json\n"
        "results bitwise identical with and without the reduction",
    )
