"""Tests for the CI benchmark-regression gate (scripts/check_bench.py).

The gate's contract: compare the throughput *ratios* of freshly written
``BENCH_*.json`` records against committed baselines, tolerate noise up to
the allowed fraction, and fail hard beyond it -- demonstrated here with an
injected 50% synthetic regression, the scenario the CI step must catch.
"""

import importlib.util
import json
import pathlib
import sys

import pytest

SCRIPT = (
    pathlib.Path(__file__).resolve().parents[1] / "scripts" / "check_bench.py"
)


@pytest.fixture(scope="module")
def check_bench():
    spec = importlib.util.spec_from_file_location("check_bench", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    sys.modules["check_bench"] = module
    spec.loader.exec_module(module)
    return module


def write_records(directory, speedups):
    directory.mkdir(parents=True, exist_ok=True)
    # A record file may carry several gated keys (BENCH_optimal.json holds
    # both the node-throughput speedup and the seeded-sweep node ratio), so
    # group by file before writing.
    contents = {}
    for (name, key), value in speedups.items():
        contents.setdefault(name, {"noise": "x"})[key] = value
    for name, payload in contents.items():
        (directory / name).write_text(json.dumps(payload))


def all_checks(check_bench, value):
    return {pair: value for pair in check_bench.CHECKS}


class TestGateDecisions:
    def test_matching_ratios_pass(self, check_bench, tmp_path):
        write_records(tmp_path / "fresh", all_checks(check_bench, 20.0))
        write_records(tmp_path / "base", all_checks(check_bench, 20.0))
        assert check_bench.main(
            ["--fresh-dir", str(tmp_path / "fresh"),
             "--baseline-dir", str(tmp_path / "base")]
        ) == 0

    def test_noise_within_tolerance_passes(self, check_bench, tmp_path):
        # 25% below baseline: inside the 30% envelope.
        write_records(tmp_path / "fresh", all_checks(check_bench, 15.0))
        write_records(tmp_path / "base", all_checks(check_bench, 20.0))
        assert check_bench.main(
            ["--fresh-dir", str(tmp_path / "fresh"),
             "--baseline-dir", str(tmp_path / "base")]
        ) == 0

    def test_injected_50_percent_regression_fails(self, check_bench, tmp_path):
        """The acceptance demonstration: a synthetic 50% throughput
        regression (every ratio halved) must fail the gate."""
        write_records(tmp_path / "fresh", all_checks(check_bench, 10.0))
        write_records(tmp_path / "base", all_checks(check_bench, 20.0))
        assert check_bench.main(
            ["--fresh-dir", str(tmp_path / "fresh"),
             "--baseline-dir", str(tmp_path / "base")]
        ) == 1

    def test_single_record_regression_fails(self, check_bench, tmp_path):
        fresh = all_checks(check_bench, 20.0)
        fresh[("BENCH_dkibam.json", "speedup")] = 9.0  # 55% drop
        write_records(tmp_path / "fresh", fresh)
        write_records(tmp_path / "base", all_checks(check_bench, 20.0))
        assert check_bench.main(
            ["--fresh-dir", str(tmp_path / "fresh"),
             "--baseline-dir", str(tmp_path / "base")]
        ) == 1

    def test_optimal_record_is_gated(self, check_bench, tmp_path):
        """The batched-optimal node-throughput ratio sits under the same
        gate as the other records: halving it alone must fail."""
        assert ("BENCH_optimal.json", "speedup") in check_bench.CHECKS
        fresh = all_checks(check_bench, 20.0)
        fresh[("BENCH_optimal.json", "speedup")] = 10.0  # 50% drop
        write_records(tmp_path / "fresh", fresh)
        write_records(tmp_path / "base", all_checks(check_bench, 20.0))
        assert check_bench.main(
            ["--fresh-dir", str(tmp_path / "fresh"),
             "--baseline-dir", str(tmp_path / "base")]
        ) == 1

    def test_seeded_sweep_nodes_ratio_is_gated(self, check_bench, tmp_path):
        """The seeded-vs-fresh sweep node ratio is gated too: if seeding
        stops pruning (ratio collapses toward 1x from a 20x synthetic
        baseline), the gate must fail on that key alone."""
        assert ("BENCH_optimal.json", "sweep_nodes_ratio") in check_bench.CHECKS
        fresh = all_checks(check_bench, 20.0)
        fresh[("BENCH_optimal.json", "sweep_nodes_ratio")] = 1.0
        write_records(tmp_path / "fresh", fresh)
        write_records(tmp_path / "base", all_checks(check_bench, 20.0))
        assert check_bench.main(
            ["--fresh-dir", str(tmp_path / "fresh"),
             "--baseline-dir", str(tmp_path / "base")]
        ) == 1

    def test_certification_nodes_ratio_is_gated(self, check_bench, tmp_path):
        """The certification-floor node ratio is gated: if the admissible
        bound loosens (ratio collapses toward 1x from the committed
        baseline), the gate must fail on that key alone."""
        assert (
            "BENCH_optimal.json",
            "certification_nodes_ratio",
        ) in check_bench.CHECKS
        fresh = all_checks(check_bench, 20.0)
        fresh[("BENCH_optimal.json", "certification_nodes_ratio")] = 1.0
        write_records(tmp_path / "fresh", fresh)
        write_records(tmp_path / "base", all_checks(check_bench, 20.0))
        assert check_bench.main(
            ["--fresh-dir", str(tmp_path / "fresh"),
             "--baseline-dir", str(tmp_path / "base")]
        ) == 1

    def test_fleet_symmetry_ratio_is_gated(self, check_bench, tmp_path):
        """The group-symmetry node ratio is gated: if the reduction stops
        pruning permuted duplicates (ratio collapses toward 1x from the
        committed baseline), the gate must fail on that key alone."""
        assert (
            "BENCH_fleet.json",
            "group_symmetry_nodes_ratio",
        ) in check_bench.CHECKS
        fresh = all_checks(check_bench, 20.0)
        fresh[("BENCH_fleet.json", "group_symmetry_nodes_ratio")] = 1.0
        write_records(tmp_path / "fresh", fresh)
        write_records(tmp_path / "base", all_checks(check_bench, 20.0))
        assert check_bench.main(
            ["--fresh-dir", str(tmp_path / "fresh"),
             "--baseline-dir", str(tmp_path / "base")]
        ) == 1

    def test_dkibam_segment_kernel_ratio_is_gated(self, check_bench, tmp_path):
        """The dKiBaM segment kernel's ratio over the per-tick scalar ticks
        is gated next to the batch-engine ratio of the same record: halving
        it alone must fail, and a record that lacks it fails too."""
        pair = ("BENCH_dkibam.json", "segment_kernel_speedup")
        assert pair in check_bench.CHECKS
        fresh = all_checks(check_bench, 20.0)
        fresh[pair] = 10.0
        write_records(tmp_path / "fresh", fresh)
        write_records(tmp_path / "base", all_checks(check_bench, 20.0))
        args = ["--fresh-dir", str(tmp_path / "fresh"),
                "--baseline-dir", str(tmp_path / "base")]
        assert check_bench.main(args) == 1
        del fresh[pair]
        write_records(tmp_path / "fresh", fresh)
        assert check_bench.main(args) == 1

    def test_sweep_cache_hit_is_gated_against_scalar(self, check_bench, tmp_path):
        """The sweep record is gated on the cache-hit time against the
        scalar reference: halving that ratio alone must fail."""
        assert ("BENCH_sweep.json", "cache_hit_vs_scalar") in check_bench.CHECKS
        fresh = all_checks(check_bench, 20.0)
        fresh[("BENCH_sweep.json", "cache_hit_vs_scalar")] = 10.0
        write_records(tmp_path / "fresh", fresh)
        write_records(tmp_path / "base", all_checks(check_bench, 20.0))
        assert check_bench.main(
            ["--fresh-dir", str(tmp_path / "fresh"),
             "--baseline-dir", str(tmp_path / "base")]
        ) == 1

    def test_faster_cold_sweep_is_not_a_cache_regression(
        self, check_bench, tmp_path
    ):
        """A faster cold run shrinks the cold-over-cached ratio (78x -> 25x
        with the cache hit unchanged); that ratio stays in the record but
        must not fail the gate."""
        assert ("BENCH_sweep.json", "cache_hit_speedup") not in check_bench.CHECKS
        write_records(tmp_path / "fresh", all_checks(check_bench, 20.0))
        write_records(tmp_path / "base", all_checks(check_bench, 20.0))
        for directory, cold_over_cached in (("fresh", 25.0), ("base", 78.0)):
            path = tmp_path / directory / "BENCH_sweep.json"
            record = json.loads(path.read_text())
            record["cache_hit_speedup"] = cold_over_cached
            path.write_text(json.dumps(record))
        assert check_bench.main(
            ["--fresh-dir", str(tmp_path / "fresh"),
             "--baseline-dir", str(tmp_path / "base")]
        ) == 0

    def test_missing_fresh_record_fails(self, check_bench, tmp_path):
        (tmp_path / "fresh").mkdir()
        write_records(tmp_path / "base", all_checks(check_bench, 20.0))
        assert check_bench.main(
            ["--fresh-dir", str(tmp_path / "fresh"),
             "--baseline-dir", str(tmp_path / "base")]
        ) == 1

    def test_missing_baseline_skips(self, check_bench, tmp_path):
        """A brand-new benchmark has no committed baseline yet: no failure."""
        write_records(tmp_path / "fresh", all_checks(check_bench, 20.0))
        (tmp_path / "base").mkdir()
        assert check_bench.main(
            ["--fresh-dir", str(tmp_path / "fresh"),
             "--baseline-dir", str(tmp_path / "base")]
        ) == 0

    def test_wider_tolerance_accepts_half(self, check_bench, tmp_path):
        write_records(tmp_path / "fresh", all_checks(check_bench, 10.0))
        write_records(tmp_path / "base", all_checks(check_bench, 20.0))
        assert check_bench.main(
            ["--fresh-dir", str(tmp_path / "fresh"),
             "--baseline-dir", str(tmp_path / "base"),
             "--max-regression", "0.6"]
        ) == 0

    def test_ratios_not_absolute_seconds(self, check_bench, tmp_path):
        """A uniformly slower machine (same ratios, 10x the seconds) passes."""
        fresh_dir, base_dir = tmp_path / "fresh", tmp_path / "base"
        for directory, seconds in ((fresh_dir, 50.0), (base_dir, 5.0)):
            directory.mkdir()
            payloads = {}
            for name, key in check_bench.CHECKS:
                payloads.setdefault(
                    name, {"batch_seconds_per_sweep": seconds}
                )[key] = 20.0
            for name, payload in payloads.items():
                (directory / name).write_text(json.dumps(payload))
        assert check_bench.main(
            ["--fresh-dir", str(fresh_dir), "--baseline-dir", str(base_dir)]
        ) == 0

    def test_git_baseline_against_head(self, check_bench):
        """The CI default path: baselines from `git show HEAD:...`."""
        baseline = check_bench.load_baseline("BENCH_engine.json", "HEAD", None)
        assert baseline is not None and "speedup" in baseline


class TestRecordMetadata:
    """Every written record says which revision and toolchain measured it."""

    def test_written_records_carry_a_meta_block(self, tmp_path, monkeypatch):
        import platform

        import numpy as np

        import benchmarks.conftest as bench

        monkeypatch.setattr(bench, "REPO_ROOT", tmp_path)
        monkeypatch.setenv(bench.RECORD_ENV, "1")
        bench.write_bench_record("BENCH_x.json", {"speedup": 2.0})
        bench.write_bench_record("BENCH_x.json", {"other": 1})
        record = json.loads((tmp_path / "BENCH_x.json").read_text())
        assert record["speedup"] == 2.0 and record["other"] == 1
        meta = record["meta"]
        assert meta["python"] == platform.python_version()
        assert meta["numpy"] == np.__version__
        assert meta["git_sha"] is None or len(meta["git_sha"]) == 40

    def test_nothing_is_written_without_opting_in(self, tmp_path, monkeypatch):
        import benchmarks.conftest as bench

        monkeypatch.setattr(bench, "REPO_ROOT", tmp_path)
        monkeypatch.delenv(bench.RECORD_ENV, raising=False)
        bench.write_bench_record("BENCH_x.json", {"speedup": 2.0})
        assert not (tmp_path / "BENCH_x.json").exists()

    def test_timings_record_repeat_count_and_spread(self, tmp_path, monkeypatch):
        import benchmarks.conftest as bench

        monkeypatch.setattr(bench, "REPO_ROOT", tmp_path)
        monkeypatch.setenv(bench.RECORD_ENV, "1")
        bench.write_bench_record(
            "BENCH_x.json", {"rate": 5.0}, timings={"search": [0.2, 0.1, 0.3]}
        )
        # A second harness of the same record adds its own entry ...
        bench.write_bench_record(
            "BENCH_x.json", {"ratio": 2.0}, timings={"other": [1.0, 1.5]}
        )
        # ... and a write without samples keeps both.
        bench.write_bench_record("BENCH_x.json", {"more": 1})
        timings = json.loads((tmp_path / "BENCH_x.json").read_text())["meta"][
            "timings"
        ]
        assert timings["search"] == {
            "repeats": 3, "min_s": 0.1, "median_s": 0.2, "spread": 1.0
        }
        assert timings["other"] == {
            "repeats": 2, "min_s": 1.0, "median_s": 1.25, "spread": 0.25
        }

    def test_timing_summary_needs_a_sample(self):
        import benchmarks.conftest as bench

        with pytest.raises(ValueError):
            bench.timing_summary([])

    def test_gate_reads_ratios_not_the_meta_block(self, check_bench, tmp_path):
        """A record's timing metadata never enters the gate's decision."""
        write_records(tmp_path / "fresh", all_checks(check_bench, 20.0))
        write_records(tmp_path / "base", all_checks(check_bench, 20.0))
        for name, _ in check_bench.CHECKS:
            path = tmp_path / "fresh" / name
            record = json.loads(path.read_text())
            record["meta"] = {
                "timings": {"search": {"repeats": 3, "min_s": 9.0, "spread": 5.0}}
            }
            path.write_text(json.dumps(record))
        assert check_bench.main(
            ["--fresh-dir", str(tmp_path / "fresh"),
             "--baseline-dir", str(tmp_path / "base")]
        ) == 0
