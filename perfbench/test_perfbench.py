"""Tests of the benchmark itself: aggregation, failure accounting, span
arithmetic, and a tiny-size smoke run of every workload (end to end and
traced).  Run with ``PYTHONPATH=src python -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import os
import time

import pytest

import bench_core
import bench_trace
import bench_workloads
import run
from bench_core import Group, Op


# --------------------------------------------------------------------- #
# aggregation
# --------------------------------------------------------------------- #
def test_sum_of_medians_takes_each_operations_median():
    samples = {"a": [1.0, 5.0, 3.0], "b": [2.0, 2.0], "never-passed": []}
    assert bench_core.sum_of_medians(samples) == pytest.approx(3.0 + 2.0)


def test_one_stall_moves_one_sample_not_the_total():
    steady = {"a": [1.0, 1.0, 1.0], "b": [2.0, 2.0, 2.0]}
    stalled = {"a": [1.0, 30.0, 1.0], "b": [2.0, 2.0, 2.0]}
    assert bench_core.sum_of_medians(stalled) == bench_core.sum_of_medians(steady)


def test_totals_are_split_by_operation_kind():
    measurement = bench_core.Measurement()
    measurement.wall.update({"cold": [2.0, 4.0, 3.0], "cached": [0.1, 0.3, 0.2]})
    measurement.kinds.update({"cold": "round", "cached": "cached"})
    assert measurement.total("round") == pytest.approx(3.0)
    assert measurement.total("cached") == pytest.approx(0.2)


def test_times_are_scaled_by_the_calibrations_around_them():
    measurement = bench_core.Measurement()
    measurement.calibration = [0.025, 0.05, 0.05, 0.05, 0.05, 0.05, 0.025, 0.025, 0.025, 0.025]
    measurement.wall["op"] = [1.0, 1.0]
    measurement.positions["op"] = [2, 9]
    measurement.kinds["op"] = "round"
    slow, fast = measurement.scaled("op")
    ratio = bench_core.REFERENCE_CALIBRATION_S / 0.05
    assert slow == pytest.approx(ratio ** bench_core.SPEED_EXPONENT)
    assert fast == pytest.approx(1.0)


def test_each_setup_is_scaled_by_the_calibrations_around_it(monkeypatch):
    class Stub:
        def warmup(self):
            pass

        def close(self):
            pass

    ref = bench_core.REFERENCE_CALIBRATION_S
    around = 2 * bench_core.SETUP_CALIBRATIONS
    # One warm-up calibration; then the first set-up runs at half the
    # reference speed and the others at the reference speed.
    speeds = iter([ref] + [2 * ref] * around + [ref] * around * (bench_core.SETUP_REPEATS - 1))
    monkeypatch.setattr(bench_core, "timed_calibration", lambda: next(speeds))
    monkeypatch.setattr(bench_core, "import_seconds", lambda root: 1.0)
    scaled, wall, _ = bench_core.setup(Stub, "unused")
    assert scaled == pytest.approx(1.0, abs=0.05) and wall == pytest.approx(1.0, abs=0.05)
    monkeypatch.setattr(bench_core, "SETUP_REPEATS", 1)
    speeds = iter([ref] + [2 * ref] * around)
    scaled, _, _ = bench_core.setup(Stub, "unused")
    assert scaled == pytest.approx(0.5 ** bench_core.SPEED_EXPONENT, abs=0.05)


def test_quartiles_match_statistics_quantiles():
    assert bench_core.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (1.5, 3.0, 4.5)
    assert bench_core.quartiles([7.0]) == (7.0, 7.0, 7.0)


# --------------------------------------------------------------------- #
# failure accounting
# --------------------------------------------------------------------- #
class _FakeWorkload(bench_workloads.Workload):
    def __init__(self):
        super().__init__()
        self.groups = [
            Group([Op("ok", lambda: 1)]),
            Group([Op("raises", lambda: 1 / 0)]),
            Group([Op("wrong", lambda: -1)]),
            Group([Op("hangs", lambda: time.sleep(30))]),
        ]

    def fingerprint(self, op_name, result):
        return result

    def check(self, op_name, result):
        return "negative result" if result == -1 else super().check(op_name, result)


def test_failed_operations_are_counted_and_leave_no_sample():
    started = time.perf_counter()
    measurement = bench_core.measure(
        _FakeWorkload(), seconds=0.0, seed=3, deadline_s=0.2, min_rounds=2
    )
    assert time.perf_counter() - started < 5.0, "the deadline did not stop the hang"
    assert measurement.rounds == 2
    assert measurement.attempted == 8
    assert measurement.failed == 6
    assert set(measurement.wall) == {"ok"}
    assert len(measurement.wall["ok"]) == 2
    reasons = " ".join(measurement.errors)
    assert "ZeroDivisionError" in reasons
    assert "negative result" in reasons
    assert "deadline" in reasons


def test_deadline_is_not_swallowed_by_a_broad_except():
    def stubborn():
        try:
            time.sleep(30)
        except Exception:
            return "swallowed"

    with pytest.raises(bench_core.OpDeadline):
        bench_core.call_with_deadline(stubborn, 0.1)


# --------------------------------------------------------------------- #
# span arithmetic
# --------------------------------------------------------------------- #
def test_self_time_subtracts_nested_children():
    spans = [
        ("op", 0.0, 10.0, -1, 1),
        ("search", 1.0, 4.0, 0, 1),
        ("archive.admit", 2.0, 3.0, 1, 1),
        ("fallback", 5.0, 6.0, 0, 1),
    ]
    own = bench_trace.self_times(spans)
    assert own == pytest.approx([6.0, 2.0, 1.0, 1.0])
    assert sum(own) == pytest.approx(10.0)


def test_self_time_counts_overlapping_children_once():
    spans = [("op", 0.0, 10.0, -1, 1), ("a", 1.0, 3.0, 0, 1), ("b", 2.0, 4.0, 0, 1)]
    assert bench_trace.self_times(spans)[0] == pytest.approx(7.0)


def test_layer_table_counts_a_reentered_layer_once():
    spans = [
        ("op", 0.0, 10.0, -1, 1),
        ("engine.simulate", 1.0, 9.0, 0, 1),
        ("engine.simulate", 2.0, 5.0, 1, 1),
    ]
    table = bench_trace.layer_table(spans)
    assert table["engine.simulate"]["calls"] == 1
    assert table["engine.simulate"]["s"] == pytest.approx(8.0)
    assert table["engine.simulate"]["self_s"] == pytest.approx(8.0)


def test_install_patches_every_call_site_and_uninstall_restores_them():
    import repro.engine.optimal_batch as optimal_batch
    import repro.kibam.bounds as bounds
    import repro.core.optimal as core_optimal

    original = bounds.build_pooled_job_table
    tracer = bench_trace.install()
    try:
        assert optimal_batch.build_pooled_job_table is not original
        assert core_optimal.build_pooled_job_table is original
    finally:
        tracer.uninstall()
    assert optimal_batch.build_pooled_job_table is original
    assert bounds.build_pooled_job_table is original


# --------------------------------------------------------------------- #
# tiny smoke runs of every workload
# --------------------------------------------------------------------- #
@pytest.fixture
def one_setup(monkeypatch):
    monkeypatch.setattr(bench_core, "SETUP_REPEATS", 1)


def _declared(section):
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as handle:
        return {m["name"]: m["unit"] for m in json.load(handle)[section]}


@pytest.mark.parametrize("workload", bench_workloads.WORKLOADS)
def test_tiny_end_to_end_run(workload, one_setup):
    result, report = run.run_benchmark(workload, seed=2, seconds=0.0, trace=False, tiny=True)
    assert result["correct"], "\n".join(report)
    assert result["failed"] == 0 and result["attempted"] >= 3
    assert {name: m["unit"] for name, m in result["metrics"].items()} == _declared("end_to_end")
    assert all(metric["value"] > 0 for metric in result["metrics"].values())


@pytest.mark.parametrize("workload", bench_workloads.WORKLOADS)
def test_tiny_traced_run_bypasses_what_it_should(workload, one_setup):
    result, report = run.run_benchmark(workload, seed=2, seconds=0.0, trace=True, tiny=True)
    assert result["correct"], "\n".join(report)
    assert {name: m["unit"] for name, m in result["metrics"].items()} == _declared("per_layer")
    values = {name: metric["value"] for name, metric in result["metrics"].items()}
    if workload == "montecarlo":
        assert values["search.calls"] == 0
        assert values["store.load_calls"] > 0
    else:
        assert values["search.calls"] > 0
    if workload == "fleet-capped":
        assert values["fallback.calls"] > 0
    else:
        assert values["fallback.calls"] == 0
    if workload == "paper-certify":
        assert values["bounds.job_table_s"] > 0
    if workload == "dkibam-certify":
        assert values["bounds.job_table_s"] == 0
