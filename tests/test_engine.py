"""Tests for the batch execution engine (repro.engine).

The central contract is scalar/batch equivalence: the vectorized
``BatchSimulator`` must reproduce the scalar ``MultiBatterySimulator``
lifetimes within 1e-9 minutes across random loads, policies and battery
counts -- including mid-job switchovers, asymmetric batteries and loads the
batteries survive.  The scalar path stays the golden reference.
"""

import math

import numpy as np
import pytest

from repro.analysis.montecarlo import LifetimeDistribution, run_montecarlo
from repro.core.simulator import simulate_policy
from repro.engine import (
    BatchSimulator,
    KernelParams,
    ScenarioSet,
    VectorPolicy,
    VectorPolicyStack,
    available_charge_array,
    initial_state_array,
    make_vector_policy,
    step_constant_current_array,
    time_to_empty_array,
)
from repro.kibam.analytical import KibamState, initial_state, step_constant_current
from repro.kibam.lifetime import time_to_empty
from repro.kibam.parameters import B1, B2, BatteryParameters
from repro.workloads.generator import RandomLoadConfig, generate_random_load
from repro.workloads.load import Load, idle_epoch, job_epoch

SMALL = BatteryParameters(capacity=1.0, c=0.166, k_prime=0.122, name="small")
SMALLER = BatteryParameters(capacity=0.7, c=0.166, k_prime=0.122, name="smaller")


FAST_CONFIG = RandomLoadConfig(
    levels=(0.25, 0.5),
    job_duration_range=(0.5, 1.0),
    idle_duration_range=(0.0, 1.0),
    total_duration=40.0,
    duration_step=0.25,
)

ALL_POLICIES = ("sequential", "round-robin", "best-of-two", "worst-of-two")


def assert_equivalent(params, loads, policy, tolerance=1e-9):
    """Batch lifetimes/decisions must match per-load scalar simulations."""
    batch = BatchSimulator(params).run(ScenarioSet.from_loads(loads), policy)
    for index, load in enumerate(loads):
        scalar = simulate_policy(params, load, policy)
        if scalar.lifetime is None:
            assert math.isnan(batch.lifetimes[index])
        else:
            assert batch.lifetimes[index] == pytest.approx(
                scalar.lifetime, abs=tolerance
            )
        assert batch.decisions[index] == scalar.decisions
        assert batch.residual_charge[index] == pytest.approx(
            scalar.residual_charge, abs=1e-8
        )


class TestKernels:
    def test_step_matches_scalar(self):
        kp = KernelParams.from_parameters([B1, B2])
        state = initial_state_array(kp, 1)
        currents = np.array([[0.5, 0.25]])
        durations = np.array([[2.0, 2.0]])
        stepped = step_constant_current_array(kp, state, currents, durations)
        for battery, (params, current) in enumerate([(B1, 0.5), (B2, 0.25)]):
            scalar = step_constant_current(params, initial_state(params), current, 2.0)
            assert stepped[0, battery, 0] == scalar.gamma
            assert stepped[0, battery, 1] == scalar.delta

    def test_time_to_empty_matches_brentq(self):
        # A spread of states, currents and horizons against the scalar solver.
        rng = np.random.default_rng(7)
        for _ in range(50):
            gamma = float(rng.uniform(0.2, 1.0)) * B1.capacity
            delta = float(rng.uniform(0.0, 0.5))
            current = float(rng.uniform(0.1, 0.9))
            horizon = float(rng.uniform(0.5, 40.0))
            scalar = time_to_empty(
                B1, KibamState(gamma=gamma, delta=delta), current, horizon=horizon
            )
            crossing, crossed = time_to_empty_array(
                np.array([B1.c]),
                np.array([B1.k_prime]),
                np.array([gamma]),
                np.array([delta]),
                np.array([current]),
                np.array([horizon]),
            )
            if scalar is None:
                assert not crossed[0]
            else:
                assert crossed[0]
                assert crossing[0] == pytest.approx(scalar, abs=1e-10)

    def test_available_charge_matches_scalar_view(self):
        from repro.core.battery import AnalyticalBattery

        kp = KernelParams.from_parameters([B1, B2])
        state = initial_state_array(kp, 1)
        state = step_constant_current_array(
            kp, state, np.array([[0.5, 0.25]]), np.array([[3.0, 3.0]])
        )
        avail = available_charge_array(kp, state)
        for battery, (params, current) in enumerate([(B1, 0.5), (B2, 0.25)]):
            model = AnalyticalBattery(params)
            scalar = model.step(model.initial_state(), current, 3.0).state
            assert avail[0, battery] == model.available_charge(scalar)

    def test_idle_never_crosses(self):
        crossing, crossed = time_to_empty_array(
            np.array([B1.c]),
            np.array([B1.k_prime]),
            np.array([B1.capacity]),
            np.array([0.0]),
            np.array([0.0]),
            np.array([1000.0]),
        )
        assert not crossed[0]

    def test_already_empty_crosses_at_zero(self):
        crossing, crossed = time_to_empty_array(
            np.array([B1.c]),
            np.array([B1.k_prime]),
            np.array([0.0]),
            np.array([1.0]),
            np.array([0.5]),
            np.array([10.0]),
        )
        assert crossed[0] and crossing[0] == 0.0


class TestScenarioSet:
    def test_padding_and_counts(self):
        short = Load.from_segments("short", [(0.5, 1.0)])
        longer = Load.from_segments("long", [(0.25, 1.0), (0.0, 2.0), (0.5, 3.0)])
        scen = ScenarioSet.from_loads([short, longer])
        assert scen.n_scenarios == 2 and scen.max_epochs == 3
        assert scen.n_epochs.tolist() == [1, 3]
        assert scen.currents[0].tolist() == [0.5, 0.0, 0.0]
        assert scen.durations[1].tolist() == [1.0, 2.0, 3.0]

    def test_padded_arrays_equal_an_element_loop(self):
        loads = [generate_random_load(40 + i, FAST_CONFIG) for i in range(30)]
        loads.append(Load.from_segments("ints", [(1, 2), (0, 1)]))
        scen = ScenarioSet.from_loads(loads)
        width = max(len(load.epochs) for load in loads)
        currents = np.zeros((len(loads), width))
        durations = np.zeros((len(loads), width))
        for row, load in enumerate(loads):
            for col, epoch in enumerate(load.epochs):
                currents[row, col] = epoch.current
                durations[row, col] = epoch.duration
        np.testing.assert_array_equal(scen.currents, currents)
        np.testing.assert_array_equal(scen.durations, durations)
        assert scen.currents.dtype == scen.durations.dtype == np.float64

    def test_random_matches_seeded_generator(self):
        scen = ScenarioSet.random(3, FAST_CONFIG, seed=9)
        for index in range(3):
            expected = generate_random_load(9 + index, FAST_CONFIG)
            assert scen.loads[index].epochs == expected.epochs

    def test_random_with_numpy_generator_reproducible(self):
        first = ScenarioSet.random(3, FAST_CONFIG, rng=np.random.default_rng(4))
        second = ScenarioSet.random(3, FAST_CONFIG, rng=np.random.default_rng(4))
        for a, b in zip(first.loads, second.loads):
            assert a.epochs == b.epochs

    def test_chunked_partitions_in_order(self):
        scen = ScenarioSet.random(5, FAST_CONFIG, seed=2)
        chunks = list(scen.chunked(2))
        assert [c.n_scenarios for c in chunks] == [2, 2, 1]
        assert chunks[2].loads[0].epochs == scen.loads[4].epochs

    @staticmethod
    def _discretized_by_inverse(scen, time_step=0.01, charge_unit=0.01):
        """The earlier ``discretized``: gathers through ``np.unique``'s
        full-size inverse indices."""
        from repro.kibam.discrete import discharge_spec_for, duration_ticks

        currents, cur_inverse = np.unique(scen.currents, return_inverse=True)
        specs = [discharge_spec_for(float(c), time_step, charge_unit) for c in currents]
        cur_map = np.array([spec.cur for spec in specs], dtype=np.int64)
        ct_map = np.array([spec.cur_times for spec in specs], dtype=np.int64)
        durations, dur_inverse = np.unique(scen.durations, return_inverse=True)
        tick_map = np.array(
            [duration_ticks(float(d), time_step) for d in durations], dtype=np.int64
        )
        shape = scen.currents.shape
        return (
            cur_map[cur_inverse].reshape(shape),
            ct_map[cur_inverse].reshape(shape),
            tick_map[dur_inverse].reshape(shape),
        )

    @pytest.mark.parametrize("loads", ["ils-like", "paper"])
    def test_discretized_equals_the_inverse_gather_bitwise(self, loads):
        from repro.workloads.generator import ILS_LIKE_RANDOM_CONFIG
        from repro.workloads.profiles import paper_loads

        if loads == "paper":
            scen = ScenarioSet.from_loads(list(paper_loads().values()))
        else:
            scen = ScenarioSet.from_loads(
                [generate_random_load(seed, ILS_LIKE_RANDOM_CONFIG) for seed in range(256)]
            )
        for grid in (0.01, 0.05):
            got = scen.discretized(grid, grid)
            expected = self._discretized_by_inverse(scen, grid, grid)
            for array, reference in zip((got.cur, got.cur_times, got.ticks), expected):
                assert array.dtype == reference.dtype == np.int64
                assert array.shape == reference.shape == scen.currents.shape
                assert array.tobytes() == reference.tobytes()

    def test_discretized_peak_stays_near_its_output(self):
        """1024 ILs-like loads: the conversion holds at most half its
        output size on top of it (the inverse gather held twice that)."""
        import tracemalloc

        from repro.workloads.generator import ILS_LIKE_RANDOM_CONFIG

        scen = ScenarioSet.from_loads(
            [generate_random_load(seed, ILS_LIKE_RANDOM_CONFIG) for seed in range(1000, 2024)]
        )
        scen.discretized()
        tracemalloc.start()
        try:
            out = scen.discretized()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        output_bytes = out.cur.nbytes + out.cur_times.nbytes + out.ticks.nbytes
        assert peak < 1.5 * output_bytes

    def test_subset(self):
        scen = ScenarioSet.random(4, FAST_CONFIG, seed=3)
        sub = scen.subset([2, 0])
        assert sub.n_scenarios == 2
        assert sub.loads[0].epochs == scen.loads[2].epochs
        assert sub.loads[1].epochs == scen.loads[0].epochs


class TestScalarBatchEquivalence:
    @pytest.mark.parametrize("policy", ALL_POLICIES)
    def test_random_loads_two_batteries(self, policy):
        loads = [generate_random_load(100 + i, FAST_CONFIG) for i in range(12)]
        assert_equivalent([SMALL, SMALL], loads, policy)

    @pytest.mark.parametrize("policy", ALL_POLICIES)
    def test_asymmetric_batteries(self, policy):
        loads = [generate_random_load(200 + i, FAST_CONFIG) for i in range(8)]
        assert_equivalent([SMALL, SMALLER], loads, policy)

    @pytest.mark.parametrize("n_batteries", [1, 2, 3, 4, 8])
    def test_battery_counts(self, n_batteries):
        loads = [generate_random_load(300 + i, FAST_CONFIG) for i in range(6)]
        assert_equivalent([SMALL] * n_batteries, loads, "best-of-two")

    @pytest.mark.parametrize("policy", ALL_POLICIES)
    @pytest.mark.parametrize("n_batteries", [3, 4, 8])
    def test_mixed_fleets_all_policies(self, policy, n_batteries):
        """The fleet parity matrix: mixed identical-subgroup fleets at
        N in {3, 4, 8} under every heuristic policy."""
        fleet = [SMALL] * (n_batteries - n_batteries // 2) + [SMALLER] * (
            n_batteries // 2
        )
        loads = [generate_random_load(350 + i, FAST_CONFIG) for i in range(4)]
        assert_equivalent(fleet, loads, policy)

    def test_continuous_loads_force_switchovers(self):
        # Back-to-back jobs with no idle: batteries empty mid-job and the
        # policy must hand over within the epoch.
        config = RandomLoadConfig(
            levels=(0.4, 0.6),
            job_duration_range=(1.0, 3.0),
            idle_duration_range=(0.0, 0.0),
            total_duration=30.0,
            duration_step=0.25,
        )
        loads = [generate_random_load(400 + i, config) for i in range(8)]
        scen = ScenarioSet.from_loads(loads)
        batch = BatchSimulator([SMALL, SMALL]).run(scen, "sequential")
        scalars = [simulate_policy([SMALL, SMALL], load, "sequential") for load in loads]
        # The scenario must actually exercise switchovers for the test to
        # mean anything.
        assert any(
            entry.switchover for result in scalars for entry in result.schedule.entries
        )
        for index, scalar in enumerate(scalars):
            assert batch.lifetimes[index] == pytest.approx(scalar.lifetime, abs=1e-9)

    def test_single_long_job(self):
        load = Load.from_segments("drain", [(0.5, 1000.0)])
        assert_equivalent([SMALL, SMALL], [load], "sequential")

    def test_all_idle_load_survives(self):
        load = Load(name="nap", epochs=(idle_epoch(5.0), idle_epoch(3.0)))
        batch = BatchSimulator([SMALL]).run(ScenarioSet.from_loads([load]), "sequential")
        assert bool(batch.survived[0])
        assert batch.decisions[0] == 0
        with pytest.raises(RuntimeError):
            batch.lifetimes_or_raise()
        scalar = simulate_policy([SMALL], load, "sequential")
        assert scalar.lifetime is None

    def test_mixed_survival_masks_dead_scenarios(self):
        # One scenario dies, one survives: the dead lane must not keep the
        # surviving lane from finishing (or vice versa).
        dies = Load.from_segments("dies", [(0.5, 1000.0)])
        survives = Load(name="survives", epochs=(job_epoch(0.1, 0.5), idle_epoch(1.0)))
        batch = BatchSimulator([SMALL]).run(
            ScenarioSet.from_loads([dies, survives]), "sequential"
        )
        assert not np.isnan(batch.lifetimes[0])
        assert math.isnan(batch.lifetimes[1])

    def test_idle_head_and_tail(self):
        load = Load(
            name="padded",
            epochs=(idle_epoch(2.0), job_epoch(0.5, 50.0), idle_epoch(2.0)),
        )
        assert_equivalent([SMALL, SMALL], [load], "round-robin")

    def test_run_many_rejects_duplicate_policy_names(self):
        scen = ScenarioSet.random(2, FAST_CONFIG, seed=1)
        sim = BatchSimulator([SMALL, SMALL])
        with pytest.raises(ValueError, match="unique"):
            sim.run_many(scen, ["sequential", make_vector_policy("sequential")])

    def test_run_many_matches_individual_runs(self):
        loads = [generate_random_load(500 + i, FAST_CONFIG) for i in range(6)]
        scen = ScenarioSet.from_loads(loads)
        sim = BatchSimulator([SMALL, SMALL])
        stacked = sim.run_many(scen, ALL_POLICIES)
        for policy in ALL_POLICIES:
            single = sim.run(scen, policy)
            # Bitwise: lanes are independent (the crossing solver freezes
            # each row at its own convergence), so stacking changes nothing.
            np.testing.assert_array_equal(
                stacked[policy].lifetimes, single.lifetimes
            )
            assert np.array_equal(stacked[policy].decisions, single.decisions)

    def test_policy_stack_isolates_stateful_lanes(self):
        loads = [generate_random_load(600 + i, FAST_CONFIG) for i in range(4)]
        scen = ScenarioSet.from_loads(loads)
        stack = VectorPolicyStack(
            [make_vector_policy("round-robin"), make_vector_policy("round-robin")], 4
        )
        sim = BatchSimulator([SMALL, SMALL])
        stacked = sim._run_vectorized(scen, stack, np.tile(np.arange(4), 2))
        single = sim.run(scen, "round-robin")
        np.testing.assert_array_equal(stacked.lifetimes[:4], single.lifetimes)
        np.testing.assert_array_equal(stacked.lifetimes[4:], single.lifetimes)


class TestLaneIndependence:
    """A lane's result never depends on which other lanes share its batch.

    The sweep runner simulates all pending chunks of a pass in one batch,
    so a chunk's rows must be the same bits whether it runs alone, in a
    pass, or in a resumed run.
    """

    BATCH_FIELDS = (
        "lifetimes",
        "decisions",
        "residual_charge",
        "final_states",
        "lifetime_ticks",
        "charge_units",
    )

    @pytest.mark.parametrize("model", ["analytical", "discrete"])
    def test_shuffled_subset_equals_full_batch_rows(self, model):
        loads = [generate_random_load(900 + i, FAST_CONFIG) for i in range(24)]
        scenarios = ScenarioSet.from_loads(loads)
        sim = BatchSimulator([SMALL, SMALLER], model=model)
        full = sim.run_many(scenarios, ALL_POLICIES)
        rows = np.random.default_rng(5).permutation(24)[:9]
        part = sim.run_many(scenarios.subset(rows), ALL_POLICIES)
        for policy in ALL_POLICIES:
            for field in self.BATCH_FIELDS:
                expected = getattr(full[policy], field)
                got = getattr(part[policy], field)
                if expected is None:
                    assert got is None
                else:
                    np.testing.assert_array_equal(got, expected[rows])

    def test_time_to_empty_rows_equal_one_row_calls(self):
        rng = np.random.default_rng(11)
        n = 200
        c = rng.uniform(0.1, 0.9, n)
        k_prime = rng.uniform(0.01, 0.5, n)
        gamma = rng.uniform(0.05, 6.0, n)
        delta = rng.uniform(0.0, 2.0, n)
        current = rng.choice([0.0, 0.1, 0.25, 0.5, 1.0], n)
        horizon = rng.uniform(0.1, 50.0, n)
        crossing, crossed = time_to_empty_array(
            c, k_prime, gamma, delta, current, horizon
        )
        assert crossed.sum() > 50  # many rows really run the Newton loop
        for row in range(n):
            one = slice(row, row + 1)
            alone, alone_crossed = time_to_empty_array(
                c[one], k_prime[one], gamma[one], delta[one], current[one],
                horizon[one],
            )
            np.testing.assert_array_equal(alone, crossing[one])
            np.testing.assert_array_equal(alone_crossed, crossed[one])


class TestFallbacks:
    def test_linear_backend_falls_back_to_scalar(self):
        loads = [generate_random_load(700 + i, FAST_CONFIG) for i in range(2)]
        batch = BatchSimulator([SMALL, SMALL], model="linear").run(
            ScenarioSet.from_loads(loads), "best-of-two"
        )
        for index, load in enumerate(loads):
            scalar = simulate_policy(
                [SMALL, SMALL], load, "best-of-two", backend="linear"
            )
            assert batch.lifetimes[index] == scalar.lifetime

    def test_discrete_with_unvectorizable_policy_falls_back(self):
        from repro.core.policies import RandomPolicy

        loads = [generate_random_load(705, FAST_CONFIG)]
        batch = BatchSimulator([SMALL, SMALL], model="discrete").run(
            ScenarioSet.from_loads(loads), RandomPolicy(seed=5)
        )
        scalar = simulate_policy(
            [SMALL, SMALL], loads[0], RandomPolicy(seed=5), backend="discrete"
        )
        assert batch.lifetimes[0] == scalar.lifetime
        assert batch.lifetime_ticks is None  # scalar fallback, no tick record

    def test_unvectorizable_policy_falls_back(self):
        from repro.core.policies import RandomPolicy

        loads = [generate_random_load(800, FAST_CONFIG)]
        batch = BatchSimulator([SMALL, SMALL]).run(
            ScenarioSet.from_loads(loads), RandomPolicy(seed=3)
        )
        scalar = simulate_policy([SMALL, SMALL], loads[0], RandomPolicy(seed=3))
        assert batch.lifetimes[0] == scalar.lifetime


class TestMonteCarloEngines:
    def test_batch_matches_scalar_sample_for_sample(self):
        kwargs = dict(
            n_samples=6,
            policies=("sequential", "round-robin", "best-of-two"),
            config=FAST_CONFIG,
            seed=21,
        )
        scalar = run_montecarlo([SMALL, SMALL], engine="scalar", **kwargs)
        batch = run_montecarlo([SMALL, SMALL], engine="auto", **kwargs)
        assert scalar.engine == "scalar" and batch.engine == "batch"
        for policy in kwargs["policies"]:
            for a, b in zip(scalar.per_sample[policy], batch.per_sample[policy]):
                assert b == pytest.approx(a, abs=1e-9)

    def test_auto_prefers_batch_when_vectorizable(self):
        result = run_montecarlo(
            [SMALL, SMALL], n_samples=3, config=FAST_CONFIG, seed=1, engine="auto"
        )
        assert result.engine == "batch"
        result = run_montecarlo(
            [SMALL, SMALL],
            n_samples=2,
            config=FAST_CONFIG,
            seed=1,
            engine="auto",
            model="linear",
        )
        assert result.engine == "scalar"

    def test_explicit_rng_reproducible_across_engines(self):
        # One generator stream drawn by the caller: both engines see the
        # same explicit loads.
        def stream_loads():
            return ScenarioSet.random(
                4, FAST_CONFIG, rng=np.random.default_rng(33)
            ).loads

        scalar = run_montecarlo(
            [SMALL, SMALL], loads=stream_loads(), engine="scalar"
        )
        batch = run_montecarlo([SMALL, SMALL], loads=stream_loads(), engine="auto")
        assert scalar.engine == "scalar" and batch.engine == "batch"
        for policy in scalar.per_sample:
            for a, b in zip(scalar.per_sample[policy], batch.per_sample[policy]):
                assert b == pytest.approx(a, abs=1e-9)

    def test_engine_label_reports_executed_path(self):
        # Requesting "auto" on a non-vectorizable model still works but
        # runs through the scalar fallback -- and the label must say so.
        result = run_montecarlo(
            [SMALL, SMALL],
            n_samples=2,
            config=FAST_CONFIG,
            seed=6,
            engine="auto",
            model="linear",
        )
        assert result.engine == "scalar"

    def test_explicit_loads_override_sampling(self):
        loads = [generate_random_load(77, FAST_CONFIG)]
        result = run_montecarlo([SMALL, SMALL], loads=loads, policies=("sequential",))
        assert result.n_samples == 1

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError):
            run_montecarlo([SMALL], engine="warp")
        # "batch" was a second spelling of "auto"; the error points there.
        with pytest.raises(ValueError, match="'auto'"):
            run_montecarlo([SMALL], engine="batch")

    def test_generator_rejects_seed_and_rng_together(self):
        with pytest.raises(ValueError):
            generate_random_load(1, FAST_CONFIG, rng=np.random.default_rng(0))
        with pytest.raises(ValueError):
            generate_random_load()


class TestLifetimeDistributionEdgeCases:
    def test_single_sample_has_zero_stdev(self):
        dist = LifetimeDistribution.from_samples("solo", [12.5])
        assert dist.samples == 1
        assert dist.stdev == 0.0
        assert dist.mean == dist.minimum == dist.maximum == 12.5

    def test_empty_samples_rejected_with_clear_error(self):
        with pytest.raises(ValueError, match="empty set of lifetime samples"):
            LifetimeDistribution.from_samples("none", [])

    def test_accepts_numpy_arrays(self):
        dist = LifetimeDistribution.from_samples("array", np.array([1.0, 3.0]))
        assert dist.mean == pytest.approx(2.0)

    def test_single_sample_montecarlo_sweep(self):
        result = run_montecarlo(
            [SMALL, SMALL], n_samples=1, config=FAST_CONFIG, seed=8
        )
        for dist in result.distributions.values():
            assert dist.samples == 1 and dist.stdev == 0.0


class TestDiscreteBatch:
    """``model="discrete"``: exact integer parity with the scalar dKiBaM.

    The analytical engine is pinned to the scalar path at 1e-9 minutes; the
    discrete engine's contract is stronger -- the batch state is the same
    integer charge/height units the scalar tick loop advances, so lifetimes
    (in ticks), final ``(n, m)`` states and decision counts must match the
    golden-reference :class:`MultiBatterySimulator` *exactly*, not merely
    within a float tolerance.
    """

    @staticmethod
    def assert_tick_exact(
        params, loads, policy, time_step=0.01, charge_unit=0.01, rows=None
    ):
        simulator = BatchSimulator(
            params if rows is None else rows,
            model="discrete",
            time_step=time_step,
            charge_unit=charge_unit,
        )
        batch = simulator.run(ScenarioSet.from_loads(loads), policy)
        assert batch.lifetime_ticks is not None and batch.charge_units is not None
        for index, load in enumerate(loads):
            scalar_params = list(params if rows is None else rows[index])
            scalar = simulate_policy(
                scalar_params,
                load,
                policy,
                backend="discrete",
                time_step=time_step,
                charge_unit=charge_unit,
            )
            if scalar.lifetime is None:
                assert batch.lifetime_ticks[index] == -1
                assert math.isnan(batch.lifetimes[index])
            else:
                assert batch.lifetime_ticks[index] == round(
                    scalar.lifetime / time_step
                )
                assert batch.lifetimes[index] == pytest.approx(
                    scalar.lifetime, abs=1e-9
                )
            assert batch.decisions[index] == scalar.decisions
            for battery, state in enumerate(scalar.final_states):
                assert batch.charge_units[index, battery, 0] == state.n
                assert batch.charge_units[index, battery, 1] == state.m
            assert batch.residual_charge[index] == pytest.approx(
                scalar.residual_charge, abs=1e-12
            )

    @pytest.mark.parametrize("policy", ("sequential", "round-robin", "best-of-two"))
    def test_paper_loads_tick_for_tick(self, policy):
        """The acceptance pin: exact parity on all ten paper loads, 2 x B1."""
        from repro.workloads.profiles import paper_loads

        self.assert_tick_exact([B1, B1], list(paper_loads().values()), policy)

    def test_single_battery_matches_lifetime_under_segments(self):
        from repro.kibam.discrete import DiscreteKibam
        from repro.workloads.profiles import paper_loads

        load = paper_loads()["ILs 500"]
        segments = [(epoch.current, epoch.duration) for epoch in load.epochs]
        reference = DiscreteKibam(B1).lifetime_under_segments(segments)
        batch = BatchSimulator([B1], model="discrete").run(
            ScenarioSet.from_loads([load]), "sequential"
        )
        assert reference is not None
        assert batch.lifetime_ticks[0] == round(reference / 0.01)

    @pytest.mark.parametrize("policy", ALL_POLICIES)
    def test_random_loads_with_switchovers(self, policy):
        config = RandomLoadConfig(
            levels=(0.4, 0.6),
            job_duration_range=(1.0, 3.0),
            idle_duration_range=(0.0, 0.0),
            total_duration=30.0,
            duration_step=0.25,
        )
        loads = [generate_random_load(400 + i, config) for i in range(6)]
        self.assert_tick_exact([SMALL, SMALL], loads, policy)

    def test_awkward_currents_with_bresenham_spread(self):
        # 0.124 A is 31 units per 250 ticks (cur > 1, the PR 2 accumulator
        # pathology) and 1.5 A is 3 units per 2 ticks (several draws per
        # tick); both must spread exactly like the scalar accumulator.
        config = RandomLoadConfig(
            levels=(0.124, 0.5, 1.5),
            job_duration_range=(0.5, 1.0),
            idle_duration_range=(0.0, 1.0),
            total_duration=20.0,
            duration_step=0.25,
        )
        loads = [generate_random_load(900 + i, config) for i in range(6)]
        self.assert_tick_exact([SMALL, SMALL], loads, "best-of-two")

    def test_coarser_discretization(self):
        loads = [generate_random_load(150 + i, FAST_CONFIG) for i in range(4)]
        self.assert_tick_exact(
            [SMALL, SMALL], loads, "best-of-two", time_step=0.05, charge_unit=0.05
        )

    @pytest.mark.parametrize("policy", ALL_POLICIES)
    @pytest.mark.parametrize("n_batteries", [3, 4, 8])
    def test_mixed_fleets_tick_for_tick(self, policy, n_batteries):
        """The discrete half of the fleet parity matrix: exact integer
        parity for mixed fleets at N in {3, 4, 8}, every policy."""
        fleet = [SMALL] * (n_batteries - n_batteries // 2) + [SMALLER] * (
            n_batteries // 2
        )
        loads = [generate_random_load(370 + i, FAST_CONFIG) for i in range(3)]
        self.assert_tick_exact(
            fleet, loads, policy, time_step=0.05, charge_unit=0.05
        )

    def test_per_scenario_parameter_rows(self):
        loads = [generate_random_load(seed, FAST_CONFIG) for seed in range(5)]
        rows = [
            (
                BatteryParameters(capacity=0.5 + 0.1 * i, c=0.166, k_prime=0.122),
                BatteryParameters(capacity=0.9, c=0.2, k_prime=0.15),
            )
            for i in range(5)
        ]
        for policy in ("sequential", "best-of-two"):
            self.assert_tick_exact(None, loads, policy, rows=rows)

    def test_run_many_stack_is_bitwise_identical_to_solo(self):
        # Unlike the analytical stack (whose np.exp SIMD paths vary with
        # array size), the discrete state is integer arithmetic: stacked
        # and solo runs must agree exactly, field for field.
        loads = [generate_random_load(320 + i, FAST_CONFIG) for i in range(6)]
        scen = ScenarioSet.from_loads(loads)
        sim = BatchSimulator([SMALL, SMALL], model="discrete")
        stacked = sim.run_many(scen, ALL_POLICIES)
        for policy in ALL_POLICIES:
            solo = sim.run(scen, policy)
            assert np.array_equal(stacked[policy].lifetime_ticks, solo.lifetime_ticks)
            assert np.array_equal(stacked[policy].charge_units, solo.charge_units)
            assert np.array_equal(stacked[policy].decisions, solo.decisions)
            assert np.array_equal(
                stacked[policy].residual_charge, solo.residual_charge
            )

    #: sha256 of the ``lifetime_ticks``, ``decisions`` and ``charge_units``
    #: bytes of ``run_many`` over 256 ILs-like loads x the four vector
    #: policies (policy order of ``ALL_POLICIES``), recorded with the
    #: earlier event-jumping batch loop, which also matched the scalar
    #: dKiBaM tick for tick.
    PINNED_DIGESTS = {
        "2xB1": "5e0884ddff86595f74412ae954d7ca6c09a0500007e6b55f78ec3116eaecadc0",
        "B1+B1/2+B2@0.05": "e0aabd08a2fdd1bc4b9b77ba863c1f1dde4cc01d0972359cbc42e5b9845e1638",
    }

    @pytest.mark.parametrize("fleet", sorted(PINNED_DIGESTS))
    def test_ils_like_digest_is_pinned(self, fleet):
        import hashlib

        from repro.workloads.generator import ILS_LIKE_RANDOM_CONFIG

        params, grid = {
            "2xB1": ([B1, B1], 0.01),
            "B1+B1/2+B2@0.05": ([B1, B1.scaled(0.5), B2], 0.05),
        }[fleet]
        loads = [generate_random_load(seed, ILS_LIKE_RANDOM_CONFIG) for seed in range(256)]
        simulator = BatchSimulator(
            params, model="discrete", time_step=grid, charge_unit=grid
        )
        results = simulator.run_many(ScenarioSet.from_loads(loads), ALL_POLICIES)
        digest = hashlib.sha256()
        for policy in ALL_POLICIES:
            result = results[policy]
            for array in (result.lifetime_ticks, result.decisions, result.charge_units):
                digest.update(np.ascontiguousarray(array, dtype=np.int64).tobytes())
        assert digest.hexdigest() == self.PINNED_DIGESTS[fleet]

    def test_served_battery_emptying_on_the_last_tick_takes_no_switchover(self):
        long_job = Load.from_segments("long", [(0.5, 100.0)])
        solo = BatchSimulator([SMALL], model="discrete").run(
            ScenarioSet.from_loads([long_job]), "sequential"
        )
        empty_tick = int(solo.lifetime_ticks[0])
        assert empty_tick > 0

        def load(job_ticks):
            return Load(
                name=f"job-{job_ticks}",
                epochs=(
                    job_epoch(0.5, job_ticks * 0.01),
                    idle_epoch(1.0),
                    job_epoch(0.5, 1.0),
                ),
            )

        exact, longer = load(empty_tick), load(empty_tick + 1)
        self.assert_tick_exact([SMALL, SMALL], [exact, longer], "sequential")
        batch = BatchSimulator([SMALL, SMALL], model="discrete").run(
            ScenarioSet.from_loads([exact, longer]), "sequential"
        )
        # Emptying on the job's last tick ends the job: the next decision is
        # the next job's.  One tick more forces a mid-job switchover.
        assert batch.decisions.tolist() == [2, 3]

    def test_zero_tick_job_advances_job_index_without_a_decision(self):
        class Recording(VectorPolicy):
            name = "recording"

            def __init__(self):
                self.job_indices = []

            def choose(self, context):
                self.job_indices.extend(context.job_index.tolist())
                return np.argmax(context.alive, axis=1)

        # 1e-10 min is a positive duration that rounds to zero ticks.
        load = Load(
            name="blink",
            epochs=(
                job_epoch(0.25, 0.2),
                job_epoch(0.5, 1e-10),
                idle_epoch(0.5),
                job_epoch(0.25, 0.2),
            ),
        )
        self.assert_tick_exact([SMALL, SMALL], [load], "sequential")
        policy = Recording()
        batch = BatchSimulator([SMALL, SMALL], model="discrete").run(
            ScenarioSet.from_loads([load]), policy
        )
        assert batch.decisions.tolist() == [2]
        assert policy.job_indices == [0, 2]

    def test_three_chunks_equal_one_pass_bitwise(self):
        loads = [generate_random_load(500 + i, FAST_CONFIG) for i in range(30)]
        scen = ScenarioSet.from_loads(loads)
        sim = BatchSimulator([SMALL, SMALLER], model="discrete")
        whole = sim.run_many(scen, ALL_POLICIES)
        chunks = [sim.run_many(chunk, ALL_POLICIES) for chunk in scen.chunked(10)]
        assert len(chunks) == 3
        for policy in ALL_POLICIES:
            for field in (
                "lifetimes",
                "lifetime_ticks",
                "decisions",
                "charge_units",
                "residual_charge",
                "final_states",
            ):
                joined = np.concatenate(
                    [getattr(chunk[policy], field) for chunk in chunks]
                )
                assert np.array_equal(
                    joined, getattr(whole[policy], field), equal_nan=True
                ), (policy, field)

    def test_survivors_and_dead_lanes_coexist(self):
        dies = Load.from_segments("dies", [(0.5, 1000.0)])
        survives = Load(
            name="survives", epochs=(job_epoch(0.1, 0.5), idle_epoch(1.0))
        )
        nap = Load(name="nap", epochs=(idle_epoch(5.0), idle_epoch(3.0)))
        self.assert_tick_exact([SMALL], [dies, survives, nap], "sequential")
        batch = BatchSimulator([SMALL], model="discrete").run(
            ScenarioSet.from_loads([dies, survives, nap]), "sequential"
        )
        assert not np.isnan(batch.lifetimes[0])
        assert batch.lifetime_ticks[1] == -1 and batch.lifetime_ticks[2] == -1

    def test_model_keyword(self):
        assert BatchSimulator([SMALL], model="discrete").model == "discrete"
        assert BatchSimulator([SMALL], "discrete").model == "discrete"
        assert BatchSimulator([SMALL]).model == "analytical"

    def test_unrepresentable_current_rejected(self):
        # The scalar dKiBaM rejects currents that have no exact integer
        # (cur, cur_times) pair; the batch conversion must do the same.
        load = Load.from_segments("bad", [(0.1234567, 1.0)])
        sim = BatchSimulator([SMALL], model="discrete")
        with pytest.raises(ValueError, match="not representable"):
            sim.run(ScenarioSet.from_loads([load]), "sequential")

    def test_montecarlo_discrete_auto_vectorizes(self):
        kwargs = dict(n_samples=4, config=FAST_CONFIG, seed=21)
        batch = run_montecarlo(
            [SMALL, SMALL], engine="auto", model="discrete", **kwargs
        )
        scalar = run_montecarlo(
            [SMALL, SMALL], engine="scalar", model="discrete", **kwargs
        )
        assert batch.engine == "batch" and scalar.engine == "scalar"
        for policy in batch.per_sample:
            for a, b in zip(scalar.per_sample[policy], batch.per_sample[policy]):
                assert b == pytest.approx(a, abs=1e-9)


class TestPerScenarioKernelParams:
    """Per-scenario battery-parameter arrays (the sweep lever) at the kernel level."""

    def test_from_parameter_rows_shapes_and_lane_helpers(self):
        rows = [(B1, B2), (SMALL, SMALLER), (B1, SMALL)]
        kp = KernelParams.from_parameter_rows(rows)
        assert kp.per_scenario
        assert kp.capacity.shape == (3, 2)
        assert kp.n_scenarios == 3 and kp.n_batteries == 2

        taken = kp.take(np.array([2, 0]))
        assert taken.capacity[0, 1] == SMALL.capacity
        assert taken.capacity[1, 0] == B1.capacity

        c, k = taken.battery(np.array([1, 0]))
        assert c[0] == SMALL.c and k[1] == B1.k_prime

    def test_shared_params_pass_through_lane_helpers(self):
        kp = KernelParams.from_parameters([B1, B2])
        assert not kp.per_scenario and kp.n_scenarios is None
        assert kp.take(np.array([0])) is kp

    def test_initial_state_uses_per_scenario_capacity(self):
        kp = KernelParams.from_parameter_rows([(B1, B1), (B2, B2)])
        state = initial_state_array(kp, 2)
        assert state[0, 0, 0] == B1.capacity
        assert state[1, 1, 0] == B2.capacity
        with pytest.raises(ValueError, match="per-scenario parameters"):
            initial_state_array(kp, 3)

    def test_ragged_rows_rejected(self):
        with pytest.raises(ValueError, match="same number of batteries"):
            KernelParams.from_parameter_rows([(B1, B2), (B1,)])

    def test_heterogeneous_batch_matches_scalar_per_row(self):
        loads = [generate_random_load(seed, FAST_CONFIG) for seed in range(8)]
        rows = [
            (
                BatteryParameters(capacity=0.5 + 0.1 * i, c=0.166, k_prime=0.122),
                BatteryParameters(capacity=0.9, c=0.2, k_prime=0.15),
            )
            for i in range(8)
        ]
        simulator = BatchSimulator(rows)
        for policy in ALL_POLICIES:
            batch = simulator.run(ScenarioSet.from_loads(loads), policy)
            for index, load in enumerate(loads):
                scalar = simulate_policy(list(rows[index]), load, policy)
                if scalar.lifetime is None:
                    assert math.isnan(batch.lifetimes[index])
                else:
                    assert batch.lifetimes[index] == pytest.approx(
                        scalar.lifetime, abs=1e-9
                    )
                assert batch.decisions[index] == scalar.decisions
