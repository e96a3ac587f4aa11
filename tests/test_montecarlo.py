"""Tests for the Monte-Carlo random-load analysis."""

import pytest

from repro.analysis.montecarlo import (
    LifetimeDistribution,
    render_distributions,
    run_montecarlo,
)
from repro.kibam.parameters import BatteryParameters
from repro.workloads.generator import RandomLoadConfig

SMALL = BatteryParameters(capacity=1.0, c=0.166, k_prime=0.122, name="small")

#: A compact configuration so every sampled load exhausts the small batteries
#: quickly and the whole sweep stays fast.
FAST_CONFIG = RandomLoadConfig(
    levels=(0.25, 0.5),
    job_duration_range=(0.5, 1.0),
    idle_duration_range=(0.0, 1.0),
    total_duration=40.0,
    duration_step=0.25,
)


class TestLifetimeDistribution:
    def test_summary_statistics(self):
        dist = LifetimeDistribution.from_samples("demo", [1.0, 2.0, 3.0, 4.0, 5.0])
        assert dist.samples == 5
        assert dist.mean == pytest.approx(3.0)
        assert dist.minimum == 1.0 and dist.maximum == 5.0
        assert dist.median == pytest.approx(3.0)

    def test_requires_samples(self):
        with pytest.raises(ValueError):
            LifetimeDistribution.from_samples("demo", [])


class TestMonteCarloSweep:
    @pytest.fixture(scope="class")
    def result(self):
        return run_montecarlo(
            [SMALL, SMALL], n_samples=8, config=FAST_CONFIG, seed=11
        )

    def test_every_policy_gets_one_lifetime_per_sample(self, result):
        for lifetimes in result.per_sample.values():
            assert len(lifetimes) == result.n_samples

    def test_policy_ordering_holds_in_distribution(self, result):
        sequential = result.distributions["sequential"]
        best = result.distributions["best-of-two"]
        assert sequential.mean <= best.mean + 1e-9

    def test_gain_metric(self, result):
        gain = result.mean_gain_percent("best-of-two", "sequential")
        assert gain >= -1e-9

    def test_reproducibility(self):
        first = run_montecarlo([SMALL, SMALL], n_samples=3, config=FAST_CONFIG, seed=5)
        second = run_montecarlo([SMALL, SMALL], n_samples=3, config=FAST_CONFIG, seed=5)
        assert first.per_sample == second.per_sample

    def test_optional_optimal_column(self):
        result = run_montecarlo(
            [SMALL, SMALL],
            n_samples=2,
            config=FAST_CONFIG,
            seed=3,
            policies=("sequential", "round-robin", "best-of-two", "optimal"),
            optimal_max_nodes=500,
        )
        assert "optimal" in result.distributions
        for optimal, best in zip(result.per_sample["optimal"], result.per_sample["best-of-two"]):
            assert optimal >= best - 1e-6

    def test_rendering(self, result):
        text = render_distributions(result)
        assert "best-of-two" in text and "median" in text

    def test_rejects_zero_samples(self):
        with pytest.raises(ValueError):
            run_montecarlo([SMALL], n_samples=0)

    def test_rejects_policy_objects(self):
        from repro.core.policies import make_policy

        with pytest.raises(ValueError, match="BatchSimulator.run_many"):
            run_montecarlo(
                [SMALL, SMALL], n_samples=2, config=FAST_CONFIG,
                policies=("sequential", make_policy("best-of-two")),
            )


class TestOnePath:
    """``run_montecarlo`` is a ``SweepSpec`` run through ``SweepRunner``."""

    @staticmethod
    def _spec(model, loads_axis, policies=("sequential", "best-of-two")):
        from repro.sweep import BatteryConfig, SweepSpec

        return SweepSpec(
            name="montecarlo",
            batteries=(BatteryConfig(label="batteries", params=(SMALL, SMALL)),),
            loads=(loads_axis,),
            policies=policies,
            backend=model,
        )

    @pytest.mark.parametrize("model", ["analytical", "discrete"])
    def test_equals_a_direct_sweep_run(self, model):
        from repro.sweep import LoadAxis, SweepRunner

        result = run_montecarlo(
            [SMALL, SMALL], n_samples=6, config=FAST_CONFIG, seed=40,
            policies=("sequential", "best-of-two"), model=model,
        )
        spec = self._spec(model, LoadAxis.random(6, seed=40, config=FAST_CONFIG))
        direct = SweepRunner(None).run(spec).per_sample
        assert result.engine == "batch"
        for policy, lifetimes in result.per_sample.items():
            assert lifetimes == [float(value) for value in direct[policy]]

    def test_explicit_loads_equal_a_direct_sweep_run(self):
        from repro.engine.scenarios import ScenarioSet
        from repro.sweep import LoadAxis, SweepRunner

        loads = ScenarioSet.random(5, FAST_CONFIG, seed=9).loads
        result = run_montecarlo(
            [SMALL, SMALL], loads=loads, policies=("sequential", "best-of-two")
        )
        spec = self._spec(
            "analytical", LoadAxis.explicit(list(loads), label="montecarlo")
        )
        direct = SweepRunner(None).run(spec).per_sample
        for policy, lifetimes in result.per_sample.items():
            assert lifetimes == [float(value) for value in direct[policy]]

    def test_resume_after_a_lost_chunk_is_bitwise_equal(self, tmp_path):
        from repro.sweep import ResultStore

        cache = str(tmp_path / "mc")
        # Two store chunks (256 scenarios each), the first one then lost.
        kwargs = dict(
            n_samples=300, config=FAST_CONFIG, seed=2, cache_dir=cache,
            policies=("sequential",),
        )
        first = run_montecarlo([SMALL, SMALL], **kwargs)
        [entry] = ResultStore(cache).entries()
        assert entry.n_chunks == 2 and entry.complete
        chunks = sorted((tmp_path / "mc").glob("*/chunks/chunk_*.npz"))
        assert len(chunks) == 2
        chunks[0].unlink()
        [entry] = ResultStore(cache).entries()
        assert not entry.complete
        resumed = run_montecarlo([SMALL, SMALL], **kwargs)
        [entry] = ResultStore(cache).entries()
        assert entry.complete
        assert resumed.per_sample == first.per_sample
