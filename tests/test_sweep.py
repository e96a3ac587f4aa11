"""Tests for the sweep subsystem (repro.sweep).

The contracts under test:

* **hash stability** -- a spec's content hash is identical across processes
  (and ``PYTHONHASHSEED`` values), changes when code-relevant content
  changes, and ignores the free-text name/description;
* **cache and resume** -- a completed sweep re-runs as pure cache reads
  with bit-identical arrays, and a sweep missing chunks (interrupt,
  partial run) recomputes exactly the missing chunks;
* **per-scenario parameters** -- mixed battery-parameter batches match the
  scalar golden-reference simulator to 1e-9 minutes, the same bar the
  shared-parameter engine is held to;
* **Monte-Carlo integration** -- ``run_montecarlo(cache_dir=...)`` routes
  through the store and repeated calls reproduce the first result exactly.
"""

import dataclasses
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import repro
from repro.analysis.montecarlo import run_montecarlo
from repro.core.simulator import simulate_policy
from repro.engine import BatchSimulator, ScenarioSet
from repro.kibam.parameters import B1, B2, BatteryParameters
from repro.sweep import (
    BatteryConfig,
    LoadAxis,
    ResultStore,
    SweepRunner,
    SweepSpec,
    battery_grid,
    builtin_specs,
)
from repro.sweep import runner as sweep_runner
from repro.sweep.cli import main as sweep_cli
from repro.workloads.generator import RandomLoadConfig
from repro.workloads.load import Load

#: Short loads keep every sweep in this module well under a second.
FAST_CONFIG = RandomLoadConfig(
    levels=(0.25, 0.5),
    job_duration_range=(0.5, 1.0),
    idle_duration_range=(0.0, 1.0),
    total_duration=30.0,
    duration_step=0.25,
)

SMALL = BatteryParameters(capacity=1.0, c=0.166, k_prime=0.122, name="small")


def small_spec(chunk_size=4, n_samples=10, policies=("sequential", "best-of-two")):
    return SweepSpec(
        name="unit-test",
        batteries=(BatteryConfig(label="2xSMALL", params=(SMALL, SMALL)),),
        loads=(LoadAxis.random(n_samples, seed=3, config=FAST_CONFIG),),
        policies=tuple(policies),
        chunk_size=chunk_size,
    )


def small_optimal_spec(n_samples=4, **optimal_kwargs):
    """A tiny campaign with the optimal-schedule column appended."""
    return small_spec(n_samples=n_samples).with_optimal(**optimal_kwargs)


class TestSpecHash:
    def test_hash_is_stable_across_processes(self):
        """The content hash must not depend on the process that computes it."""
        spec = small_spec()
        code = (
            "from tests.test_sweep import small_spec;"
            "print(small_spec().spec_hash())"
        )
        env = dict(os.environ)
        repo_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(repo_root, "src"), repo_root]
        )
        for hash_seed in ("0", "12345"):
            env["PYTHONHASHSEED"] = hash_seed
            result = subprocess.run(
                [sys.executable, "-c", code],
                capture_output=True,
                text=True,
                env=env,
                cwd=repo_root,
                check=True,
            )
            assert result.stdout.strip() == spec.spec_hash()

    def test_hash_ignores_name_and_description(self):
        spec = small_spec()
        renamed = SweepSpec.from_dict(
            {**spec.to_dict(), "name": "other", "description": "different words"}
        )
        assert renamed.spec_hash() == spec.spec_hash()

    def test_hash_ignores_cosmetic_battery_and_load_names(self):
        """Renaming a battery triple or an embedded load must not orphan caches."""
        spec = small_spec()
        nameless = BatteryParameters(
            capacity=SMALL.capacity, c=SMALL.c, k_prime=SMALL.k_prime, name="renamed"
        )
        renamed = SweepSpec(
            name=spec.name,
            batteries=(BatteryConfig(label="2xSMALL", params=(nameless, nameless)),),
            loads=spec.loads,
            policies=spec.policies,
            chunk_size=spec.chunk_size,
        )
        assert renamed.spec_hash() == spec.spec_hash()

        loads = ScenarioSet.random(2, FAST_CONFIG, seed=1).loads
        relabelled = [
            Load(name=f"other-{i}", epochs=load.epochs) for i, load in enumerate(loads)
        ]
        spec_a = SweepSpec(
            name="a", batteries=spec.batteries,
            loads=(LoadAxis.explicit(loads, label="mc"),), policies=spec.policies,
        )
        spec_b = SweepSpec(
            name="b", batteries=spec.batteries,
            loads=(LoadAxis.explicit(relabelled, label="mc"),), policies=spec.policies,
        )
        assert spec_a.spec_hash() == spec_b.spec_hash()

    @pytest.mark.parametrize(
        "mutation",
        [
            {"policies": ["sequential"]},
            {"chunk_size": 7},
            {"backend": "discrete"},
        ],
    )
    def test_hash_changes_with_content(self, mutation):
        spec = small_spec()
        changed = SweepSpec.from_dict({**spec.to_dict(), **mutation})
        assert changed.spec_hash() != spec.spec_hash()

    def test_hash_changes_with_battery_parameters(self):
        spec = small_spec()
        other = SweepSpec(
            name=spec.name,
            batteries=(BatteryConfig(label="2xSMALL", params=(SMALL, B1)),),
            loads=spec.loads,
            policies=spec.policies,
            chunk_size=spec.chunk_size,
        )
        assert other.spec_hash() != spec.spec_hash()

    def test_mixed_battery_widths_rejected(self):
        with pytest.raises(ValueError, match="same number of batteries"):
            SweepSpec(
                name="bad",
                batteries=(
                    BatteryConfig(label="one", params=(SMALL,)),
                    BatteryConfig(label="two", params=(SMALL, SMALL)),
                ),
                loads=(LoadAxis.random(2, seed=0, config=FAST_CONFIG),),
                policies=("sequential",),
            )

    def test_round_trips_through_dict(self):
        spec = small_spec()
        clone = SweepSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert clone.spec_hash() == spec.spec_hash()
        assert clone.n_scenarios == spec.n_scenarios
        assert [p.load_label for p in clone.expand()] == [
            p.load_label for p in spec.expand()
        ]


class TestLoadAxes:
    def test_random_axis_matches_montecarlo_sampling(self):
        """Sample i uses seed + i, exactly like ScenarioSet.random."""
        axis = LoadAxis.random(5, seed=11, config=FAST_CONFIG)
        resolved = [load for _, load in axis.resolve()]
        reference = ScenarioSet.random(5, FAST_CONFIG, seed=11).loads
        assert [l.epochs for l in resolved] == [l.epochs for l in reference]

    def test_paper_axis_subset_and_unknown_name(self):
        axis = LoadAxis.paper(["CL 250", "ILs alt"])
        assert [label for label, _ in axis.resolve()] == ["CL 250", "ILs alt"]
        with pytest.raises(ValueError):
            LoadAxis.paper(["no such load"])

    def test_generator_axis(self):
        axis = LoadAxis.generator(
            "duty-cycle", label="dc", current=0.3, period=2.0, duty_cycle=0.5, cycles=4
        )
        [(label, load)] = axis.resolve()
        assert label == "dc"
        assert load.total_duration == pytest.approx(8.0)

    def test_explicit_axis_round_trips_epochs(self):
        loads = ScenarioSet.random(3, FAST_CONFIG, seed=0).loads
        axis = LoadAxis.explicit(loads, label="mc")
        resolved = [load for _, load in axis.resolve()]
        assert [
            [(e.current, e.duration) for e in load.epochs] for load in resolved
        ] == [[(e.current, e.duration) for e in load.epochs] for load in loads]

    def test_labels_agree_with_resolution(self):
        for axis in (
            LoadAxis.paper(["CL 250", "CL 500"]),
            LoadAxis.random(4, seed=2, config=FAST_CONFIG),
            LoadAxis.generator("bursty", burst_current=0.5, burst_jobs=2,
                               rest_duration=1.0, cycles=2),
        ):
            assert axis.labels() == [label for label, _ in axis.resolve()]


class TestRunnerCaching:
    def test_cold_run_then_cache_hit(self, tmp_path):
        spec = small_spec()
        runner = SweepRunner(ResultStore(tmp_path / "store"))
        cold = runner.run(spec)
        assert cold.stats.chunks_run == spec.n_chunks
        assert cold.stats.chunks_cached == 0

        warm = runner.run(spec)
        assert warm.stats.chunks_run == 0
        assert warm.stats.chunks_cached == spec.n_chunks
        for policy in spec.policies:
            np.testing.assert_array_equal(
                warm.lifetimes[policy], cold.lifetimes[policy]
            )
            np.testing.assert_array_equal(
                warm.decisions[policy], cold.decisions[policy]
            )
            np.testing.assert_array_equal(
                warm.residual_charge[policy], cold.residual_charge[policy]
            )

    def test_resume_after_interrupt(self, tmp_path):
        """Deleting a chunk (interrupt mid-campaign) reruns only that chunk."""
        spec = small_spec(chunk_size=3, n_samples=10)  # 4 chunks
        store = ResultStore(tmp_path / "store")
        runner = SweepRunner(store)
        full = runner.run(spec)
        spec_hash = spec.spec_hash()

        victim = store._chunk_path(spec_hash, 1)
        victim.unlink()
        resumed = runner.run(spec)
        assert resumed.stats.chunks_run == 1
        assert resumed.stats.chunks_cached == spec.n_chunks - 1
        assert resumed.stats.scenarios_run == 3  # exactly the missing chunk
        for policy in spec.policies:
            np.testing.assert_array_equal(
                resumed.lifetimes[policy], full.lifetimes[policy]
            )

    def test_resume_draws_only_the_missing_random_loads(
        self, tmp_path, monkeypatch
    ):
        """A resume materializes the pending chunks' loads, not the axis:
        with 1 of 4 chunks gone, 256 of 1000 random samples are drawn."""
        from repro.sweep import spec as sweep_spec

        spec = small_spec(chunk_size=256, n_samples=1000)
        store = ResultStore(tmp_path / "store")
        runner = SweepRunner(store)
        full = runner.run(spec)
        store._chunk_path(spec.spec_hash(), 1).unlink()
        drawn = []
        original = sweep_spec.generate_random_load

        def counting(seed, config):
            drawn.append(seed)
            return original(seed, config)

        monkeypatch.setattr(sweep_spec, "generate_random_load", counting)
        resumed = runner.run(spec)
        assert resumed.stats.chunks_run == 1
        assert sorted(drawn) == [3 + index for index in range(256, 512)]
        assert_same_results(resumed, full)
        # A full cache hit draws nothing at all.
        drawn.clear()
        runner.run(spec)
        assert drawn == []

    def test_resume_keeps_seeded_optimal_chains(self, tmp_path):
        """Seeding chains run inside a chunk, so a resumed chunk seeds its
        searches exactly as the fresh run did: every optimal field --
        nodes and seeded flags included -- is bitwise equal."""
        spec = SweepSpec(
            name="resume-chains",
            batteries=battery_grid([0.8, 0.9, 1.0], c=0.166, k_prime=0.122),
            loads=(LoadAxis.random(3, seed=5, config=FAST_CONFIG),),
            policies=("sequential",),
            chunk_size=5,
        ).with_optimal()
        store = ResultStore(tmp_path / "store")
        fresh = SweepRunner(store).run(spec)
        assert fresh.seeded["optimal"].any()
        store._chunk_path(spec.spec_hash(), 0).unlink()
        resumed = SweepRunner(store).run(spec)
        assert resumed.stats.chunks_run == 1
        assert_same_results(resumed, fresh)
        for field in ("complete", "nodes", "seeded"):
            np.testing.assert_array_equal(
                getattr(resumed, field)["optimal"], getattr(fresh, field)["optimal"]
            )

    def test_half_written_chunk_is_ignored(self, tmp_path):
        """A truncated temp file from a killed run never poisons the store."""
        spec = small_spec(chunk_size=5, n_samples=10)
        store = ResultStore(tmp_path / "store")
        spec_hash = store.ensure_entry(spec)
        stray = store._chunk_path(spec_hash, 0).with_suffix(".tmp.npz")
        stray.parent.mkdir(parents=True, exist_ok=True)
        stray.write_bytes(b"not an npz")
        result = SweepRunner(store).run(spec)
        assert result.stats.chunks_run == spec.n_chunks

    def test_force_recomputes(self, tmp_path):
        spec = small_spec()
        runner = SweepRunner(ResultStore(tmp_path / "store"))
        runner.run(spec)
        forced = runner.run(spec, force=True)
        assert forced.stats.chunks_run == spec.n_chunks
        assert forced.stats.chunks_cached == 0

    def test_runner_without_store_computes_in_memory(self):
        spec = small_spec(n_samples=4)
        result = SweepRunner().run(spec)
        assert result.stats.chunks_run == spec.n_chunks
        assert all(np.isfinite(result.lifetimes[p]).all() for p in spec.policies)

    def test_load_requires_complete_store(self, tmp_path):
        spec = small_spec(chunk_size=3, n_samples=10)
        store = ResultStore(tmp_path / "store")
        runner = SweepRunner(store)
        with pytest.raises(FileNotFoundError):
            runner.load(spec)
        runner.run(spec)
        store._chunk_path(spec.spec_hash(), 2).unlink()
        with pytest.raises(FileNotFoundError):
            runner.load(spec)

    def test_store_find_and_entries(self, tmp_path):
        spec = small_spec()
        store = ResultStore(tmp_path / "store")
        SweepRunner(store).run(spec)
        [entry] = store.entries()
        assert entry.complete
        assert entry.n_scenarios == spec.n_scenarios
        assert store.find(spec.spec_hash()[:6]).spec_hash == spec.spec_hash()
        assert store.find("unit-test").spec_hash == spec.spec_hash()
        assert store.find("nonexistent") is None


def assert_same_results(got, expected):
    """Every per-scenario array of two sweep results is bitwise equal."""
    for policy in expected.spec.policies:
        for field in ("lifetimes", "decisions", "residual_charge"):
            np.testing.assert_array_equal(
                getattr(got, field)[policy], getattr(expected, field)[policy]
            )


class TestPasses:
    """A chunk is the store and resume unit; a pass is the compute unit.

    Pending chunks are simulated together, one ``run_many`` call per pass.
    Results must not depend on which chunks shared a pass.
    """

    @pytest.fixture
    def run_many_calls(self, monkeypatch):
        calls = []
        original = BatchSimulator.run_many

        def counting(simulator, scenarios, policies):
            calls.append(scenarios.n_scenarios)
            return original(simulator, scenarios, policies)

        monkeypatch.setattr(BatchSimulator, "run_many", counting)
        return calls

    @pytest.mark.parametrize("model", ["analytical", "discrete"])
    def test_several_chunks_equal_chunk_size_one_run(self, model, monkeypatch):
        spec = small_spec(chunk_size=3, n_samples=10).with_model(model)
        pooled = SweepRunner().run(spec)
        monkeypatch.setattr(sweep_runner, "_PASS_SCENARIOS", 1)
        alone = SweepRunner().run(dataclasses.replace(spec, chunk_size=1))
        assert_same_results(pooled, alone)

    def test_one_run_many_call_per_pass(self, tmp_path, run_many_calls):
        spec = small_spec(chunk_size=3, n_samples=10)  # 4 chunks
        result = SweepRunner(ResultStore(tmp_path / "store")).run(spec)
        assert run_many_calls == [10]
        assert result.stats.chunks_run == 4
        # Each chunk is stored on its own, timed by its scenario share.
        events = ResultStore(tmp_path / "store").read_log(spec.spec_hash())
        chunks = [event for event in events if event["event"] == "chunk"]
        assert sorted(event["chunk"] for event in chunks) == [0, 1, 2, 3]
        assert all(event["elapsed_seconds"] > 0.0 for event in chunks)

    def test_pass_size_is_capped(self, monkeypatch, run_many_calls):
        monkeypatch.setattr(sweep_runner, "_PASS_SCENARIOS", 6)
        SweepRunner().run(small_spec(chunk_size=3, n_samples=10))
        assert run_many_calls == [6, 4]

    @pytest.mark.parametrize("model", ["analytical", "discrete"])
    def test_resume_with_non_adjacent_missing_chunks(self, tmp_path, model):
        spec = small_spec(chunk_size=2, n_samples=10).with_model(model)
        store = ResultStore(tmp_path / "store")
        runner = SweepRunner(store)
        fresh = runner.run(spec)
        for index in (1, 3):
            store._chunk_path(spec.spec_hash(), index).unlink()
        resumed = runner.run(spec)
        assert resumed.stats.chunks_run == 2
        assert resumed.stats.scenarios_run == 4
        assert_same_results(resumed, fresh)

    def test_passes_never_mix_execution_paths(self, monkeypatch):
        # Two capacities x 5 loads, chunks of 3: chunk 0 is all 2x0.8,
        # chunk 1 mixes both configurations, chunks 2-3 are all 2x1.2.
        spec = SweepSpec(
            name="paths",
            batteries=battery_grid([0.8, 1.2], c=0.166, k_prime=0.122),
            loads=(LoadAxis.random(5, seed=4, config=FAST_CONFIG),),
            policies=("sequential", "best-of-two"),
            chunk_size=3,
        )
        passes = sweep_runner._plan_passes(
            spec.expand(), spec.chunk_bounds(), range(spec.n_chunks)
        )
        assert [chunks for _, chunks in passes] == [[0], [1], [2, 3]]
        assert [key is None for key, _ in passes] == [False, True, False]
        pooled = SweepRunner().run(spec)
        monkeypatch.setattr(sweep_runner, "_PASS_SCENARIOS", 1)
        alone = SweepRunner().run(spec)
        assert_same_results(pooled, alone)


class TestPerScenarioParameters:
    """The sweep lever: parameter grids vectorized at the 1e-9 parity bar."""

    def test_mixed_parameter_chunk_matches_scalar(self, tmp_path):
        grid = battery_grid(
            capacities=(0.6, 0.8, 1.0, 1.3), c=0.166, k_prime=0.122
        ) + (BatteryConfig(label="B1+B2", params=(B1, B2)),)
        spec = SweepSpec(
            name="grid",
            batteries=grid,
            loads=(LoadAxis.random(3, seed=5, config=FAST_CONFIG),),
            policies=("sequential", "round-robin", "best-of-two"),
            chunk_size=64,  # one mixed chunk covering the whole grid
        )
        result = SweepRunner(ResultStore(tmp_path / "store")).run(spec)
        for point in spec.expand():
            for policy in spec.policies:
                scalar = simulate_policy(
                    list(point.battery_params), point.load, policy
                )
                batch_value = result.lifetimes[policy][point.index]
                if scalar.lifetime is None:
                    assert np.isnan(batch_value)
                else:
                    assert batch_value == pytest.approx(
                        scalar.lifetime, abs=1e-9
                    )
                assert result.decisions[policy][point.index] == scalar.decisions

    def test_per_scenario_rows_match_shared_simulator(self):
        """Identical rows through the per-scenario path equal the shared path."""
        loads = ScenarioSet.random(6, FAST_CONFIG, seed=9)
        shared = BatchSimulator([SMALL, B1]).run_many(
            loads, ("sequential", "best-of-two")
        )
        nested = BatchSimulator([(SMALL, B1)] * 6).run_many(
            loads, ("sequential", "best-of-two")
        )
        for policy in ("sequential", "best-of-two"):
            np.testing.assert_allclose(
                nested[policy].lifetimes,
                shared[policy].lifetimes,
                atol=1e-9,
                equal_nan=True,
            )

    def test_row_count_mismatch_rejected(self):
        simulator = BatchSimulator([(SMALL, SMALL)] * 3)
        loads = ScenarioSet.random(2, FAST_CONFIG, seed=0)
        with pytest.raises(ValueError, match="per-scenario parameters"):
            simulator.run(loads, "sequential")

    def test_ragged_rows_rejected(self):
        with pytest.raises(ValueError, match="same number of batteries"):
            BatchSimulator([(SMALL, SMALL), (SMALL,)])


class TestMonteCarloCache:
    def test_repeated_distribution_is_cache_hit(self, tmp_path):
        cache = str(tmp_path / "mc")
        kwargs = dict(
            n_samples=25, seed=13, config=FAST_CONFIG, engine="auto",
            cache_dir=cache,
        )
        first = run_montecarlo([SMALL, SMALL], **kwargs)
        second = run_montecarlo([SMALL, SMALL], **kwargs)
        assert first.engine == second.engine == "batch"
        assert second.per_sample == first.per_sample
        assert second.distributions == first.distributions
        # The store actually holds the sweep.
        [entry] = ResultStore(cache).entries()
        assert entry.complete and entry.n_scenarios == 25

    def test_cached_result_matches_direct_batch_run(self, tmp_path):
        cached = run_montecarlo(
            [SMALL, SMALL], n_samples=25, seed=13, config=FAST_CONFIG,
            engine="auto", cache_dir=str(tmp_path / "mc"),
        )
        direct = run_montecarlo(
            [SMALL, SMALL], n_samples=25, seed=13, config=FAST_CONFIG,
            engine="auto",
        )
        assert cached.per_sample == direct.per_sample

    def test_explicit_loads_are_cacheable(self, tmp_path):
        loads = ScenarioSet.random(6, FAST_CONFIG, seed=21).loads
        cache = str(tmp_path / "mc")
        first = run_montecarlo([SMALL, SMALL], loads=loads, engine="auto",
                               cache_dir=cache)
        second = run_montecarlo([SMALL, SMALL], loads=loads, engine="auto",
                                cache_dir=cache)
        assert second.per_sample == first.per_sample


class TestCli:
    def spec_file(self, tmp_path, **overrides):
        spec = small_spec(**overrides)
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec.to_dict()))
        return spec, str(path)

    def test_run_status_show_roundtrip(self, tmp_path, capsys):
        spec, spec_path = self.spec_file(tmp_path)
        store = str(tmp_path / "store")

        assert sweep_cli(["run", "--spec-file", spec_path, "--store", store]) == 0
        out = capsys.readouterr().out
        assert f"{spec.n_chunks} run, 0 cached" in out

        assert sweep_cli(["run", "--spec-file", spec_path, "--store", store]) == 0
        out = capsys.readouterr().out
        assert f"0 run, {spec.n_chunks} cached" in out

        assert sweep_cli(["status", "--store", store]) == 0
        out = capsys.readouterr().out
        assert spec.spec_hash() in out and "complete" in out

        assert sweep_cli(["show", "--spec-file", spec_path, "--store", store]) == 0
        out = capsys.readouterr().out
        assert "2xSMALL" in out

        assert sweep_cli(["show", "--hash", spec.spec_hash()[:8],
                          "--store", store]) == 0
        assert "2xSMALL" in capsys.readouterr().out

    def test_show_incomplete_sweep_fails_cleanly(self, tmp_path, capsys):
        spec, spec_path = self.spec_file(tmp_path)
        store = str(tmp_path / "store")
        with pytest.raises(SystemExit):
            sweep_cli(["show", "--spec-file", spec_path, "--store", store])

    def test_builtin_specs_listed(self, capsys):
        assert sweep_cli(["specs"]) == 0
        out = capsys.readouterr().out
        for name in builtin_specs():
            assert name in out

    def test_unknown_builtin_exits_2_with_spec_hint(self, tmp_path, capsys):
        """A typo'd spec name exits with code 2 and a one-line name list."""
        with pytest.raises(SystemExit) as excinfo:
            sweep_cli(["run", "--spec", "nope", "--store", str(tmp_path)])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        for name in builtin_specs():
            assert name in err

    def test_show_empty_store_exits_2_with_hint(self, tmp_path, capsys):
        """`show --spec` against an empty store: exit 2, hint, no traceback."""
        with pytest.raises(SystemExit) as excinfo:
            sweep_cli(["show", "--spec", "table5",
                       "--store", str(tmp_path / "empty")])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "is empty" in err and "table5" in err

    def test_show_lists_known_specs_when_sweep_missing(self, tmp_path, capsys):
        """The hint names what the store *does* hold."""
        spec, spec_path = self.spec_file(tmp_path)
        store = str(tmp_path / "store")
        assert sweep_cli(["run", "--spec-file", spec_path, "--store", store]) == 0
        capsys.readouterr()
        with pytest.raises(SystemExit) as excinfo:
            sweep_cli(["show", "--spec", "table5", "--store", store])
        assert excinfo.value.code == 2
        assert "unit-test" in capsys.readouterr().err

    def test_show_unmatched_hash_exits_2(self, tmp_path, capsys):
        spec, spec_path = self.spec_file(tmp_path)
        store = str(tmp_path / "store")
        assert sweep_cli(["run", "--spec-file", spec_path, "--store", store]) == 0
        capsys.readouterr()
        with pytest.raises(SystemExit) as excinfo:
            sweep_cli(["show", "--hash", "ffff", "--store", store])
        assert excinfo.value.code == 2

    def test_table5_smoke_cold_then_cached(self, tmp_path, capsys):
        """The CI smoke gate, run locally: cold run -> pure cache re-run ->
        status/show, asserting the `0 run, N cached` line."""
        store = str(tmp_path / "store")
        assert sweep_cli(["run", "--spec", "table5", "--store", store]) == 0
        out = capsys.readouterr().out
        assert "1 run, 0 cached" in out

        assert sweep_cli(["run", "--spec", "table5", "--store", store]) == 0
        out = capsys.readouterr().out
        assert "0 run, 1 cached" in out

        assert sweep_cli(["status", "--store", store]) == 0
        out = capsys.readouterr().out
        assert "complete" in out and "table5" in out

        assert sweep_cli(["show", "--spec", "table5", "--store", store]) == 0
        assert "2xB1" in capsys.readouterr().out

    def test_model_flag_creates_distinct_store_entry(self, tmp_path, capsys):
        """`run --spec table5 --model discrete` must not alias the
        analytical entry: two store hashes, both individually cached."""
        from repro.sweep import ResultStore

        store = str(tmp_path / "store")
        assert sweep_cli(["run", "--spec", "table5", "--quiet",
                          "--store", store]) == 0
        capsys.readouterr()
        assert sweep_cli(["run", "--spec", "table5", "--model", "discrete",
                          "--store", store]) == 0
        out = capsys.readouterr().out
        assert "model=discrete" in out and "1 run, 0 cached" in out

        entries = {e.spec_hash: e for e in ResultStore(store).entries()}
        assert len(entries) == 2
        analytical = builtin_specs()["table5"]
        assert analytical.spec_hash() in entries
        assert analytical.with_model("discrete").spec_hash() in entries

        # The discrete entry re-runs as a pure cache read too.
        assert sweep_cli(["run", "--spec", "table5", "--model", "discrete",
                          "--quiet", "--store", store]) == 0
        assert "0 run, 1 cached" in capsys.readouterr().out

    def test_with_model_changes_hash_and_is_idempotent(self):
        spec = small_spec()
        discrete = spec.with_model("discrete")
        assert discrete.spec_hash() != spec.spec_hash()
        assert discrete.model == "discrete"
        assert spec.with_model("analytical") is spec

    def test_module_entry_point(self):
        """`python -m repro sweep specs` dispatches through repro.__main__."""
        env = dict(os.environ)
        src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        env["PYTHONPATH"] = src
        result = subprocess.run(
            [sys.executable, "-m", "repro", "sweep", "specs"],
            capture_output=True,
            text=True,
            env=env,
            check=True,
        )
        assert "table5" in result.stdout


class TestOptimalColumn:
    """The optimal-schedule column as a first-class sweep citizen."""

    def test_optimal_hash_is_stable_across_processes(self):
        spec = small_optimal_spec()
        code = (
            "from tests.test_sweep import small_optimal_spec;"
            "print(small_optimal_spec().spec_hash())"
        )
        env = dict(os.environ)
        repo_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(repo_root, "src"), repo_root]
        )
        for hash_seed in ("0", "9876"):
            env["PYTHONHASHSEED"] = hash_seed
            result = subprocess.run(
                [sys.executable, "-c", code],
                capture_output=True,
                text=True,
                env=env,
                cwd=repo_root,
                check=True,
            )
            assert result.stdout.strip() == spec.spec_hash()

    def test_optimal_settings_enter_the_hash(self):
        base = small_optimal_spec()
        assert base.spec_hash() != small_spec(n_samples=4).spec_hash()
        assert (
            small_optimal_spec(max_nodes=123).spec_hash() != base.spec_hash()
        )
        assert (
            small_optimal_spec(dominance_tolerance=0.25).spec_hash()
            != base.spec_hash()
        )
        assert small_optimal_spec().spec_hash() == base.spec_hash()

    def test_search_revision_enters_the_hash(self, monkeypatch):
        """Stores never serve an optimal column computed by an older search."""
        import repro.sweep.spec as spec_module

        spec = small_optimal_spec()
        payload = spec.to_dict()["optimal"]
        assert payload["revision"] == spec_module.OPTIMAL_SEARCH_REVISION
        optimal_hash = spec.spec_hash()
        assert SweepSpec.from_dict(spec.to_dict()).spec_hash() == optimal_hash
        plain_hash = small_spec().spec_hash()
        monkeypatch.setattr(
            spec_module,
            "OPTIMAL_SEARCH_REVISION",
            spec_module.OPTIMAL_SEARCH_REVISION + 1,
        )
        assert spec.spec_hash() != optimal_hash
        assert small_spec().spec_hash() == plain_hash

    def test_specs_without_optimal_ignore_the_optimal_settings(self):
        """Pre-optimal hashes must survive: old stores stay addressable."""
        import dataclasses

        spec = small_spec()
        assert "optimal" not in spec.to_dict()
        tweaked = dataclasses.replace(spec, optimal_max_nodes=5)
        assert tweaked.spec_hash() == spec.spec_hash()

    def test_with_optimal_validation(self):
        with pytest.raises(ValueError, match="optimal_max_nodes"):
            small_optimal_spec(max_nodes=0)
        with pytest.raises(ValueError, match="non-negative"):
            small_optimal_spec(dominance_tolerance=-0.5)
        # None means an uncapped, certified search.
        assert small_optimal_spec(max_nodes=None).optimal_max_nodes is None

    def test_cold_run_then_cache_hit_round_trips_the_optimal_column(self, tmp_path):
        spec = small_optimal_spec()
        runner = SweepRunner(ResultStore(tmp_path / "store"))
        cold = runner.run(spec)
        assert cold.stats.chunks_run == spec.n_chunks
        warm = runner.run(spec)
        assert warm.stats.chunks_run == 0
        assert warm.stats.chunks_cached == spec.n_chunks
        np.testing.assert_array_equal(
            warm.lifetimes["optimal"], cold.lifetimes["optimal"]
        )
        np.testing.assert_array_equal(
            warm.complete["optimal"], cold.complete["optimal"]
        )
        assert cold.complete["optimal"].all()
        # The optimal column dominates every policy column per sample.
        for policy in ("sequential", "best-of-two"):
            assert (
                cold.lifetimes["optimal"] >= cold.lifetimes[policy] - 1e-9
            ).all()

    def test_incomplete_searches_annotate_the_rendered_table(self, tmp_path):
        # An ILs-alt style load where the heuristics are suboptimal, so a
        # one-node budget must leave the search incomplete.
        from repro.workloads.profiles import intermittent_alternating_load

        alt = intermittent_alternating_load(total_duration=60.0)
        medium = B1.scaled(0.75)
        spec = SweepSpec(
            name="capped",
            batteries=(BatteryConfig(label="2xM", params=(medium, medium)),),
            loads=(LoadAxis.explicit([alt]),),
            policies=("sequential", "best-of-two"),
        ).with_optimal(max_nodes=1, dominance_tolerance=0.0)
        result = SweepRunner(ResultStore(tmp_path / "store")).run(spec)
        incomplete = result.incomplete_counts()["optimal"]
        assert incomplete > 0
        rendered = result.render()
        assert f"!{incomplete}" in rendered
        assert "max_nodes" in rendered
        # Capped lifetimes are still at least the heuristic incumbent.
        for policy in ("sequential", "best-of-two"):
            assert (
                result.lifetimes["optimal"] >= result.lifetimes[policy] - 1e-9
            ).all()
        # The annotation survives a cache read too.
        warm = SweepRunner(ResultStore(tmp_path / "store")).run(spec)
        assert warm.incomplete_counts()["optimal"] == incomplete
        assert f"!{incomplete}" in warm.render()

    def test_cli_optimal_flag_cold_then_cached(self, tmp_path, capsys):
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(json.dumps(small_spec(n_samples=3).to_dict()))
        store = str(tmp_path / "store")
        assert sweep_cli(
            ["run", "--spec-file", str(spec_file), "--optimal", "--store", store]
        ) == 0
        out = capsys.readouterr().out
        assert "optimal" in out
        assert "1 run, 0 cached" in out
        assert sweep_cli(
            ["run", "--spec-file", str(spec_file), "--optimal", "--store", store]
        ) == 0
        assert "0 run, 1 cached" in capsys.readouterr().out
        # Same flags address the same entry through `show`.
        assert sweep_cli(
            ["show", "--spec-file", str(spec_file), "--optimal", "--store", store]
        ) == 0
        assert "optimal" in capsys.readouterr().out
        # Without --optimal the spec addresses a different (absent) entry.
        assert sweep_cli(
            ["run", "--spec-file", str(spec_file), "--store", store, "--quiet"]
        ) == 0
        assert "1 run, 0 cached" in capsys.readouterr().out

    def test_cli_optimal_settings_change_the_store_entry(self, tmp_path, capsys):
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(json.dumps(small_spec(n_samples=2).to_dict()))
        store = str(tmp_path / "store")
        args = ["run", "--spec-file", str(spec_file), "--optimal", "--store", store,
                "--quiet"]
        assert sweep_cli(args) == 0
        capsys.readouterr()
        assert sweep_cli(args + ["--optimal-max-nodes", "77"]) == 0
        assert "1 run, 0 cached" in capsys.readouterr().out

    def test_cli_optimal_flag_validation_exits_2(self, tmp_path, capsys):
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(json.dumps(small_spec(n_samples=2).to_dict()))
        store = str(tmp_path / "store")
        with pytest.raises(SystemExit) as excinfo:
            sweep_cli(["run", "--spec-file", str(spec_file), "--store", store,
                       "--optimal-max-nodes", "10"])
        assert excinfo.value.code == 2
        assert "--optimal" in capsys.readouterr().err
        with pytest.raises(SystemExit) as excinfo:
            sweep_cli(["run", "--spec-file", str(spec_file), "--store", store,
                       "--optimal", "--optimal-max-nodes", "0"])
        assert excinfo.value.code == 2
        with pytest.raises(SystemExit) as excinfo:
            sweep_cli(["run", "--spec-file", str(spec_file), "--store", store,
                       "--optimal", "--dominance-tolerance", "-0.1"])
        assert excinfo.value.code == 2
        # Also when the spec already carries the optimal column (no --optimal
        # flag): still a clean exit-2 usage error, not a traceback.
        with pytest.raises(SystemExit) as excinfo:
            sweep_cli(["run", "--spec", "table5-optimal", "--store", store,
                       "--optimal-max-nodes", "0"])
        assert excinfo.value.code == 2
        with pytest.raises(SystemExit) as excinfo:
            sweep_cli(["show", "--spec", "table5-optimal", "--store", store,
                       "--dominance-tolerance", "-2"])
        assert excinfo.value.code == 2

    def test_builtin_table5_optimal_matches_the_flag_spelling(self):
        specs = builtin_specs()
        from_flag = specs["table5"].with_optimal()
        assert specs["table5-optimal"].spec_hash() == from_flag.spec_hash()

    def test_montecarlo_accepts_optimal_as_policy(self):
        result = run_montecarlo(
            [SMALL, SMALL],
            n_samples=3,
            policies=("sequential", "optimal"),
            config=FAST_CONFIG,
            seed=7,
            engine="auto",
        )
        assert list(result.per_sample) == ["sequential", "optimal"]
        for optimal, sequential in zip(
            result.per_sample["optimal"], result.per_sample["sequential"]
        ):
            assert optimal >= sequential - 1e-9
        first = run_montecarlo(
            [SMALL, SMALL],
            n_samples=3,
            policies=("optimal", "sequential"),
            config=FAST_CONFIG,
            seed=7,
            engine="auto",
        )
        assert list(first.per_sample) == ["optimal", "sequential"]
        assert first.per_sample["optimal"] == result.per_sample["optimal"]

    def test_montecarlo_optimal_column_is_cacheable(self, tmp_path):
        kwargs = dict(
            n_samples=3,
            policies=("sequential", "optimal"),
            config=FAST_CONFIG,
            seed=5,
            engine="auto",
            cache_dir=str(tmp_path / "store"),
        )
        cold = run_montecarlo([SMALL, SMALL], **kwargs)
        warm = run_montecarlo([SMALL, SMALL], **kwargs)
        assert warm.per_sample == cold.per_sample
        # One store entry, all chunks complete.
        [entry] = ResultStore(tmp_path / "store").entries()
        assert entry.complete
        assert "optimal" in entry.policies

    def test_montecarlo_optimal_column_matches_with_and_without_store(self, tmp_path):
        """Capped or not, the optimal column must not depend on whether a
        cache_dir was supplied (both paths share the scalar-DFS fallback)."""
        kwargs = dict(
            n_samples=3,
            policies=("sequential", "optimal"),
            config=FAST_CONFIG,
            seed=3,
            engine="auto",
            optimal_max_nodes=10,
        )
        direct = run_montecarlo([SMALL, SMALL], **kwargs)
        stored = run_montecarlo(
            [SMALL, SMALL], cache_dir=str(tmp_path / "store"), **kwargs
        )
        assert stored.per_sample["optimal"] == direct.per_sample["optimal"]

    def test_montecarlo_scalar_engine_agrees_with_batch(self):
        batch = run_montecarlo(
            [SMALL, SMALL],
            n_samples=2,
            policies=("sequential", "optimal"),
            config=FAST_CONFIG,
            seed=9,
            engine="auto",
        )
        scalar = run_montecarlo(
            [SMALL, SMALL],
            n_samples=2,
            policies=("sequential", "optimal"),
            config=FAST_CONFIG,
            seed=9,
            engine="scalar",
        )
        for policy in ("sequential", "optimal"):
            for a, b in zip(batch.per_sample[policy], scalar.per_sample[policy]):
                assert a == pytest.approx(b, abs=1e-6)


class TestOptimalSeeding:
    """Spec-level dominance pruning of the optimal column.

    The contract: seeded (default) and unseeded sweeps return *bitwise
    identical* lifetimes, completeness masks, decision counts and residual
    charge -- only the expanded-node accounting may differ -- and on a
    monotone capacity grid the seeding strictly reduces the total node
    count."""

    def grid_spec(self, scales=(0.9, 0.95, 1.0), load_names=("CL alt", "ILs alt")):
        medium = B1.scaled(0.75)
        return SweepSpec(
            name="seed-grid",
            batteries=battery_grid(
                [round(medium.capacity * s, 6) for s in scales],
                c=medium.c,
                k_prime=medium.k_prime,
            ),
            loads=(LoadAxis.paper(list(load_names)),),
            policies=("sequential",),
        ).with_optimal()

    def run_pair(self, spec, store=None):
        seeded = SweepRunner(store, seed_optimal=True).run(spec)
        fresh = SweepRunner(None, seed_optimal=False).run(spec)
        return seeded, fresh

    def test_seeded_sweep_is_bitwise_identical_to_fresh(self):
        seeded, fresh = self.run_pair(self.grid_spec())
        for field in ("lifetimes", "decisions", "residual_charge"):
            np.testing.assert_array_equal(
                getattr(seeded, field)["optimal"], getattr(fresh, field)["optimal"]
            )
        np.testing.assert_array_equal(
            seeded.complete["optimal"], fresh.complete["optimal"]
        )

    def test_seeding_strictly_reduces_expanded_nodes(self):
        """Pinned on a table5-style capacity grid (2-battery B1-family
        configurations under paper loads): the seeded optimal column must
        expand strictly fewer nodes in total than fresh searches."""
        seeded, fresh = self.run_pair(self.grid_spec())
        seeded_nodes = int(seeded.nodes["optimal"].sum())
        fresh_nodes = int(fresh.nodes["optimal"].sum())
        assert seeded_nodes < fresh_nodes
        # Only chain-interior points are seeded; the first capacity of each
        # load's chain runs fresh.
        flags = seeded.seeded["optimal"]
        assert flags.any()
        assert not fresh.seeded["optimal"].any()

    def test_seeded_sweep_remains_identical_under_node_caps(self):
        """Capped searches re-run without the seed before the scalar-DFS
        fallback, so the bitwise contract holds even where max_nodes
        bites."""
        spec = self.grid_spec().with_optimal(max_nodes=3, dominance_tolerance=0.0)
        seeded, fresh = self.run_pair(spec)
        for field in ("lifetimes", "decisions", "residual_charge"):
            np.testing.assert_array_equal(
                getattr(seeded, field)["optimal"], getattr(fresh, field)["optimal"]
            )
        np.testing.assert_array_equal(
            seeded.complete["optimal"], fresh.complete["optimal"]
        )

    def test_nodes_and_seeded_flags_round_trip_the_store(self, tmp_path):
        spec = self.grid_spec()
        store = ResultStore(tmp_path / "store")
        cold = SweepRunner(store).run(spec)
        warm = SweepRunner(store).run(spec)
        assert warm.stats.chunks_run == 0
        np.testing.assert_array_equal(
            warm.nodes["optimal"], cold.nodes["optimal"]
        )
        np.testing.assert_array_equal(
            warm.seeded["optimal"], cold.seeded["optimal"]
        )
        assert (cold.nodes["optimal"] > 0).all()

    def test_render_reports_seeded_node_counts(self):
        seeded, _ = self.run_pair(self.grid_spec())
        rendered = seeded.render()
        n_seeded = int(seeded.seeded["optimal"].sum())
        assert "optimal search:" in rendered
        assert f"{n_seeded} seeded" in rendered
        # Sweeps without an optimal column stay footer-free.
        plain = SweepRunner(None).run(small_spec(n_samples=2))
        assert "optimal search:" not in plain.render()

    def test_render_reports_legacy_chunks_as_unknown(self, tmp_path):
        """Chunks persisted before per-scenario ``nodes``/``seeded`` existed
        load back without those fields; the footer must report their node
        counts as unknown instead of folding zeros into the totals."""
        spec = self.grid_spec()
        store = ResultStore(tmp_path / "store")
        SweepRunner(store).run(spec)
        spec_hash = spec.spec_hash()
        for index in range(spec.n_chunks):
            chunk = store.load_chunk(spec_hash, index, spec.policies)
            for fields in chunk.values():
                fields.pop("nodes", None)
                fields.pop("seeded", None)
            store.save_chunk(spec_hash, index, chunk, 0.0)
        warm = SweepRunner(store).run(spec)
        assert warm.stats.chunks_run == 0
        assert not warm.nodes_known["optimal"].any()
        rendered = warm.render()
        assert "node counts unknown" in rendered
        assert "nodes expanded" not in rendered

    def test_render_separates_legacy_and_measured_chunks(self):
        """A mixed store (legacy + current chunks) totals only the measured
        scenarios and annotates how many searches predate the accounting."""
        seeded, _ = self.run_pair(self.grid_spec())
        known = seeded.nodes_known["optimal"]
        assert known.all()
        known[0] = False
        rendered = seeded.render()
        measured = int(seeded.nodes["optimal"][known].sum())
        assert f"{measured:,} nodes expanded" in rendered
        assert "1 searches predate per-scenario node accounting" in rendered

    def test_seed_chains_group_by_load_and_sort_by_capacity(self):
        from repro.sweep import optimal_seed_chains

        spec = self.grid_spec(scales=(1.0, 0.9, 0.95), load_names=("CL alt",))
        points = spec.expand()
        chains = optimal_seed_chains(points)
        assert sorted(sum(chains, [])) == list(range(len(points)))
        [chain] = chains
        capacities = [points[i].battery_params[0].capacity for i in chain]
        assert capacities == sorted(capacities)

    def test_seed_chains_break_on_non_monotone_axes(self):
        from repro.sweep import optimal_seed_chains

        a = BatteryParameters(capacity=1.0, c=0.166, k_prime=0.122)
        b = BatteryParameters(capacity=2.0, c=0.25, k_prime=0.2)  # other chemistry
        spec = SweepSpec(
            name="mixed",
            batteries=(
                BatteryConfig(label="A", params=(a, a)),
                BatteryConfig(label="B", params=(b, b)),
            ),
            loads=(LoadAxis.paper(["CL alt"]),),
            policies=("sequential",),
        ).with_optimal()
        points = spec.expand()
        chains = optimal_seed_chains(points)
        # Different (c, k') cannot chain: two singleton chains.
        assert sorted(len(chain) for chain in chains) == [1, 1]

    def test_cli_no_optimal_seeding_flag(self, tmp_path, capsys):
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(json.dumps(self.grid_spec().to_dict()))
        store = str(tmp_path / "store")
        assert sweep_cli(
            ["run", "--spec-file", str(spec_file), "--store", store,
             "--no-optimal-seeding", "--quiet"]
        ) == 0
        out = capsys.readouterr().out
        assert "0 seeded" in out


class TestAggregation:
    def test_table_groups_random_samples(self, tmp_path):
        spec = small_spec(n_samples=8)
        result = SweepRunner(ResultStore(tmp_path / "store")).run(spec)
        [row] = result.table()
        assert row.n_samples == 8
        assert row.battery_label == "2xSMALL"
        assert set(row.mean_lifetimes) == set(spec.policies)

    def test_distributions_are_analysis_ready(self, tmp_path):
        spec = small_spec(n_samples=8)
        result = SweepRunner(ResultStore(tmp_path / "store")).run(spec)
        distributions = result.distributions()
        key = ("2xSMALL", "random(seed=3)", "sequential")
        assert distributions[key].samples == 8
        assert distributions[key].minimum <= distributions[key].median
        assert distributions[key].median <= distributions[key].maximum

    def test_survivors_render_without_crashing(self):
        spec = SweepSpec(
            name="survive",
            batteries=(BatteryConfig(label="2xB2", params=(B2, B2)),),
            loads=(
                LoadAxis.generator(
                    "duty-cycle", label="light", current=0.05, period=2.0,
                    duty_cycle=0.5, cycles=5,
                ),
            ),
            policies=("sequential",),
        )
        result = SweepRunner().run(spec)
        assert np.isnan(result.lifetimes["sequential"]).all()
        assert "survived" in result.render()
