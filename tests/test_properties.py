"""Property-based tests (hypothesis) for the core invariants."""

import dataclasses
import math

from hypothesis import given, settings, strategies as st

import pytest

from repro.core.optimal import OptimalScheduler, find_optimal_schedule
from repro.core.simulator import simulate_policy
from repro.engine.optimal_batch import find_optimal_schedule_batched
from repro.kibam.analytical import (
    KibamState,
    available_charge,
    initial_state,
    step_constant_current,
)
from repro.kibam.discrete import DiscreteKibam
from repro.kibam.lifetime import lifetime_constant_current, lifetime_under_segments
from repro.kibam.parameters import BatteryParameters
from repro.kibam.transformed import from_wells, to_wells
from repro.workloads.load import Epoch, Load

#: Strategy for physically plausible battery parameters.
battery_parameters = st.builds(
    BatteryParameters,
    capacity=st.floats(min_value=0.5, max_value=20.0),
    c=st.floats(min_value=0.05, max_value=0.95),
    k_prime=st.floats(min_value=0.01, max_value=2.0),
)

currents = st.floats(min_value=0.01, max_value=1.0)
durations = st.floats(min_value=0.0, max_value=10.0)


@st.composite
def short_loads(draw):
    """Small random job/idle loads with representable durations."""
    n_epochs = draw(st.integers(min_value=1, max_value=8))
    epochs = []
    for _ in range(n_epochs):
        current = draw(st.sampled_from([0.0, 0.25, 0.5]))
        duration = draw(st.sampled_from([0.5, 1.0, 2.0]))
        if current == 0.0:
            epochs.append(Epoch(current=0.0, duration=duration))
        else:
            epochs.append(Epoch(current=current, duration=duration))
    return Load(name="hypothesis", epochs=tuple(epochs))


def _discrete_root_bound(pair, load, grid):
    """The scalar search's remaining-lifetime bound at the root (dKiBaM)."""
    from repro.core.battery import make_battery_models

    scheduler = OptimalScheduler(
        make_battery_models(pair, backend="discrete", **grid), load
    )
    states = tuple(model.initial_state() for model in scheduler.models)
    return scheduler._remaining_lifetime_bound(states, 0, 0.0)


def _exact_discrete_optimum(pair, load, grid, max_nodes):
    """Exact dKiBaM optimum: a tolerance-0 scalar search that never prunes
    by bound, so only dominance and symmetry cut the tree."""
    original = OptimalScheduler._remaining_lifetime_bound
    OptimalScheduler._remaining_lifetime_bound = lambda self, *a, **k: math.inf
    try:
        return find_optimal_schedule(
            pair, load, backend="discrete", max_nodes=max_nodes, **grid
        )
    finally:
        OptimalScheduler._remaining_lifetime_bound = original


class TestKibamStateProperties:
    @given(params=battery_parameters, current=currents, duration=durations)
    @settings(max_examples=80, deadline=None)
    def test_total_charge_conservation(self, params, current, duration):
        state = step_constant_current(params, initial_state(params), current, duration)
        assert state.gamma == pytest.approx(params.capacity - current * duration, rel=1e-9, abs=1e-9)

    @given(params=battery_parameters, current=currents, duration=st.floats(min_value=0.01, max_value=10.0))
    @settings(max_examples=80, deadline=None)
    def test_height_difference_stays_below_steady_state(self, params, current, duration):
        state = step_constant_current(params, initial_state(params), current, duration)
        assert -1e-9 <= state.delta <= params.steady_state_height_difference(current) + 1e-9

    @given(params=battery_parameters, gamma=st.floats(0.1, 10.0), delta=st.floats(0.0, 5.0))
    @settings(max_examples=80, deadline=None)
    def test_well_transform_round_trip(self, params, gamma, delta):
        state = KibamState(gamma=gamma, delta=delta)
        y1, y2 = to_wells(params, state)
        back = from_wells(params, y1, y2)
        assert back.gamma == pytest.approx(gamma, rel=1e-9, abs=1e-9)
        assert back.delta == pytest.approx(delta, rel=1e-9, abs=1e-9)

    @given(params=battery_parameters, delta=st.floats(0.0, 5.0), duration=st.floats(0.0, 20.0))
    @settings(max_examples=80, deadline=None)
    def test_idle_recovery_never_increases_height_difference(self, params, delta, duration):
        state = KibamState(gamma=params.capacity, delta=delta)
        rested = step_constant_current(params, state, 0.0, duration)
        assert rested.delta <= delta + 1e-12
        assert available_charge(params, rested) >= available_charge(params, state) - 1e-9


class TestLifetimeProperties:
    @given(params=battery_parameters, low=currents, high=currents)
    @settings(max_examples=60, deadline=None)
    def test_lifetime_is_monotone_in_current(self, params, low, high):
        if math.isclose(low, high):
            return
        low, high = min(low, high), max(low, high)
        assert lifetime_constant_current(params, low) >= lifetime_constant_current(params, high)

    @given(params=battery_parameters, current=currents)
    @settings(max_examples=60, deadline=None)
    def test_kibam_never_beats_the_ideal_battery(self, params, current):
        assert lifetime_constant_current(params, current) <= params.capacity / current + 1e-9

    @given(load=short_loads())
    @settings(max_examples=40, deadline=None)
    def test_discrete_model_tracks_the_analytical_model(self, load):
        """The dKiBaM lifetime lies in the analytical margin-sensitivity bracket.

        Comparing lifetimes against a fixed relative tolerance is ill-posed:
        the lifetime is a *discontinuous* functional of the load (a crossing
        that barely grazes the empty threshold can move the death to a later
        job epoch, or past the end of the load), so any discretization --
        however fine -- occasionally shows large lifetime deviations on
        grazing loads.  The principled comparison bounds the discrete state
        error in *margin* space instead: the dKiBaM tracks the continuous
        margin ``gamma - (1 - c) * delta`` to within a few charge/height
        units (empirically under one height unit per job epoch), and since
        delta's dynamics are independent of gamma, shifting the empty
        threshold by ``+-eps`` Amin is exactly a capacity shift of ``-+eps``.
        The discrete lifetime must therefore lie between the analytical
        lifetimes of batteries with capacity ``C - eps`` and ``C + eps``
        (plus a small tick-granularity slack).  Where the load crosses the
        threshold steeply the bracket is tight (median width ~0.26 min on
        these loads); where it grazes, the bracket widens exactly as much as
        the lifetime is genuinely ill-conditioned.
        """
        params = BatteryParameters(capacity=2.0, c=0.166, k_prime=0.122)
        model = DiscreteKibam(params, time_step=0.01, charge_unit=0.01)
        segments = load.segments()
        discrete = model.lifetime_under_segments(segments)
        eps = model.height_unit * (1 + load.job_count)
        early = lifetime_under_segments(
            dataclasses.replace(params, capacity=params.capacity - eps), segments
        )
        late = lifetime_under_segments(
            dataclasses.replace(params, capacity=params.capacity + eps), segments
        )
        tick_slack = 0.05
        if discrete is None:
            # The discrete battery survived: the optimistic analytical
            # battery must survive too (or die within slack of the end).
            assert late is None or late >= load.total_duration - tick_slack
        else:
            lower = (early if early is not None else load.total_duration) - tick_slack
            assert lower <= discrete
            if late is not None:
                assert discrete <= late + tick_slack
            if early is None:
                # Even the pessimistic battery survives: the discrete one
                # may only die within slack of the end of the load.
                assert discrete >= load.total_duration - tick_slack


class TestSchedulingProperties:
    @given(load=short_loads(), seed=st.integers(min_value=0, max_value=3))
    @settings(max_examples=10, deadline=None)
    def test_policy_hierarchy_and_pooling_bound(self, load, seed):
        """sequential <= best-of-two <= optimal <= pooled single battery.

        The optimal search is capped (node budget + merge tolerance) to keep
        the property test cheap; the inequalities hold for capped searches
        too because the incumbent already includes best-of-two and any found
        schedule respects the pooling bound.
        """
        params = BatteryParameters(capacity=1.0, c=0.166, k_prime=0.122)
        if load.job_count == 0:
            return
        # Extend the load so that the batteries are exhausted.
        long_load = load.repeated(20)
        sequential = simulate_policy([params, params], long_load, "sequential")
        best = simulate_policy([params, params], long_load, "best-of-two")
        if sequential.survived or best.survived:
            return
        optimal = find_optimal_schedule(
            [params, params], long_load, dominance_tolerance=0.01, max_nodes=2000
        )
        pooled = lifetime_under_segments(params.scaled(2.0), long_load.segments())
        assert sequential.lifetime <= best.lifetime + 1e-6
        assert best.lifetime <= optimal.lifetime + 1e-6
        assert pooled is None or optimal.lifetime <= pooled + 1e-6

    @given(
        load=short_loads(),
        cap_a=st.floats(min_value=0.5, max_value=2.0),
        cap_b=st.floats(min_value=0.5, max_value=2.0),
        c=st.floats(min_value=0.1, max_value=0.4),
        k_prime=st.floats(min_value=0.05, max_value=0.5),
    )
    @settings(max_examples=10, deadline=None)
    def test_batched_optimal_is_bracketed_by_heuristics_and_pooling(
        self, load, cap_a, cap_b, c, k_prime
    ):
        """Batched-optimal >= every heuristic policy, <= the pooling bound.

        Random loads x random battery pairs (shared ``c``/``k'`` so the
        perfect-pooling bound applies; the capacities differ).  The batched
        search is capped like the sweep default; the inequalities hold for
        capped searches too, because the incumbent already includes every
        heuristic and any found schedule respects the pooling bound.
        """
        if load.job_count == 0:
            return
        pair = [
            BatteryParameters(capacity=cap_a, c=c, k_prime=k_prime),
            BatteryParameters(capacity=cap_b, c=c, k_prime=k_prime),
        ]
        long_load = load.repeated(20)
        heuristics = {}
        for policy in ("sequential", "round-robin", "best-of-two"):
            result = simulate_policy(pair, long_load, policy)
            if result.survived:
                return
            heuristics[policy] = result.lifetime
        optimal = find_optimal_schedule_batched(
            pair, long_load, dominance_tolerance=0.01, max_nodes=2000
        )
        for policy, lifetime in heuristics.items():
            assert optimal.lifetime >= lifetime - 1e-6, policy
        pooled = lifetime_under_segments(
            BatteryParameters(capacity=cap_a + cap_b, c=c, k_prime=k_prime),
            long_load.segments(),
        )
        assert pooled is None or optimal.lifetime <= pooled + 1e-6

    @given(load=short_loads(), cap=st.floats(min_value=0.5, max_value=2.0))
    @settings(max_examples=6, deadline=None)
    def test_batched_discrete_optimal_is_bracketed(self, load, cap):
        """The dKiBaM batched-optimal lies between the heuristics and the
        draw-budget root bound, and a certified batched search equals the
        exact optimum (a tolerance-0 search that never prunes by bound).

        The analytical pooling bound is no upper bracket here: on this
        coarse grid (T = Gamma = 0.1) the dKiBaM outlives it by far more
        than any fixed margin (cap 1.375, epochs ``(0, 0.5), (0, 0.5),
        (0.5, 1.0)`` repeated 20 times: optimum 3.2 min, pooling bound
        1.96 min)."""
        if load.job_count == 0:
            return
        pair = [
            BatteryParameters(capacity=cap, c=0.166, k_prime=0.122),
            BatteryParameters(capacity=cap, c=0.166, k_prime=0.122),
        ]
        coarse = dict(time_step=0.1, charge_unit=0.1)
        long_load = load.repeated(20)
        heuristics = {}
        for policy in ("sequential", "best-of-two"):
            result = simulate_policy(pair, long_load, policy, backend="discrete", **coarse)
            if result.survived:
                return
            heuristics[policy] = result.lifetime
        optimal = find_optimal_schedule_batched(
            pair,
            long_load,
            model="discrete",
            dominance_tolerance=0.01,
            max_nodes=2000,
            **coarse,
        )
        for policy, lifetime in heuristics.items():
            assert optimal.lifetime >= lifetime - 1e-6, policy
        assert optimal.lifetime <= _discrete_root_bound(pair, long_load, coarse) + 1e-9
        certified = find_optimal_schedule_batched(
            pair, long_load, model="discrete", max_nodes=20000, **coarse
        )
        exact = _exact_discrete_optimum(pair, long_load, coarse, max_nodes=20000)
        if certified.complete and exact.complete:
            assert round(certified.lifetime / 0.1) == round(exact.lifetime / 0.1)
            assert optimal.lifetime <= exact.lifetime + 1e-9

    @given(
        load=short_loads(),
        scales=st.lists(
            st.sampled_from([0.6, 0.7, 0.8, 0.9, 1.0, 1.1]),
            min_size=2,
            max_size=4,
            unique=True,
        ),
        base=st.floats(min_value=0.8, max_value=1.6),
    )
    @settings(max_examples=8, deadline=None)
    def test_seeded_optimal_sweeps_match_fresh_sweeps_exactly(
        self, load, scales, base
    ):
        """Spec-level dominance pruning never changes sweep results.

        Over random capacity grids x random loads, the seeded optimal
        column (cross-grid-point incumbent seeding, the SweepRunner
        default) must return *bitwise identical* lifetimes, completeness
        masks, decision counts and residual charge to an unseeded run --
        only the expanded-node accounting may differ.  This holds for
        capped searches too, because a seeded search that hits its node
        cap is re-run without the seed before the scalar-DFS fallback.
        """
        import numpy as np

        from repro.sweep import LoadAxis, SweepRunner, SweepSpec, battery_grid

        if load.job_count == 0:
            return
        long_load = load.repeated(12)
        spec = SweepSpec(
            name="property-grid",
            batteries=battery_grid(
                [round(base * scale, 6) for scale in sorted(scales)],
                c=0.166,
                k_prime=0.122,
            ),
            loads=(LoadAxis.explicit([long_load]),),
            policies=("sequential",),
        ).with_optimal(max_nodes=1500, dominance_tolerance=0.005)
        seeded = SweepRunner(None, seed_optimal=True).run(spec)
        fresh = SweepRunner(None, seed_optimal=False).run(spec)
        for field in ("lifetimes", "decisions", "residual_charge"):
            np.testing.assert_array_equal(
                getattr(seeded, field)["optimal"],
                getattr(fresh, field)["optimal"],
            )
        np.testing.assert_array_equal(
            seeded.complete["optimal"], fresh.complete["optimal"]
        )


class TestRecoveryLimitedBoundProperties:
    """The recovery-limited refinement of the pooling bound stays admissible.

    Random loads x random battery pairs (shared ``c``/``k'`` so pooling
    applies; capacities differ).  Admissibility is checked the strong way:
    a certified (tolerance-0, uncapped-within-budget) search with the
    refinement enabled must return exactly the lifetime of a certified
    search with the refinement disabled -- if the bound ever dipped below
    the true remaining optimum at *any* node, the refined search would
    prune the optimal schedule and come back lower.
    """

    @staticmethod
    def _without_refinement(run):
        from repro.core.optimal import OptimalScheduler

        original = OptimalScheduler._recovery_limited_bound
        OptimalScheduler._recovery_limited_bound = lambda self, *a, **k: None
        try:
            return run()
        finally:
            OptimalScheduler._recovery_limited_bound = original

    @given(
        load=short_loads(),
        cap_a=st.floats(min_value=0.4, max_value=1.2),
        cap_b=st.floats(min_value=0.4, max_value=1.2),
        c=st.floats(min_value=0.1, max_value=0.4),
        k_prime=st.floats(min_value=0.05, max_value=0.5),
    )
    @settings(max_examples=10, deadline=None)
    def test_analytical_bound_is_admissible_and_no_looser_than_pooling(
        self, load, cap_a, cap_b, c, k_prime
    ):
        from repro.core.battery import make_battery_models
        from repro.core.optimal import OptimalScheduler

        if load.job_count == 0:
            return
        pair = [
            BatteryParameters(capacity=cap_a, c=c, k_prime=k_prime),
            BatteryParameters(capacity=cap_b, c=c, k_prime=k_prime),
        ]
        long_load = load.repeated(10)
        refined_search = find_optimal_schedule(pair, long_load, max_nodes=3000)
        baseline = self._without_refinement(
            lambda: find_optimal_schedule(pair, long_load, max_nodes=3000)
        )
        if not (refined_search.complete and baseline.complete):
            return
        assert refined_search.lifetime == pytest.approx(
            baseline.lifetime, abs=1e-9
        )
        # Root-bound hierarchy: recovery-limited <= perfect pooling, and
        # both stay above the certified optimum.
        scheduler = OptimalScheduler(make_battery_models(pair), long_load)
        states = tuple(model.initial_state() for model in scheduler.models)
        pooled = scheduler._pooled_bound(states, 0, 0.0)
        refined = scheduler._recovery_limited_bound(states, 0, 0.0)
        assert pooled >= baseline.lifetime - 1e-9
        if refined is not None:
            assert refined <= pooled + 1e-9
            assert refined >= baseline.lifetime - 1e-9

    @given(load=short_loads(), cap=st.floats(min_value=0.4, max_value=1.2))
    @settings(max_examples=6, deadline=None)
    def test_coarse_discrete_bound_falls_back_to_admissible_pooling(
        self, load, cap
    ):
        """dKiBaM searches skip the recovery-limited refinement and prune
        with the draw-budget bound instead: the chain-feasibility half of
        the refinement is a theorem of the continuous dynamics only (tick
        rounding can keep a marginal burst alive), and the analytical
        pooling bound is no bound on the dKiBaM either (cap 0.75, epochs
        ``(0.25, 0.5), (0, 2.0)`` repeated 10 times: certified optimum
        7.9 min, slack-inflated pooling root bound 6.45 min).  The
        refinement must gate itself off and the root bound must cover the
        certified discrete optimum."""
        from repro.core.battery import make_battery_models
        from repro.core.optimal import OptimalScheduler

        if load.job_count == 0:
            return
        pair = [
            BatteryParameters(capacity=cap, c=0.166, k_prime=0.122),
            BatteryParameters(capacity=cap, c=0.166, k_prime=0.122),
        ]
        coarse = dict(time_step=0.1, charge_unit=0.1)
        long_load = load.repeated(10)
        result = find_optimal_schedule(
            pair, long_load, backend="discrete", max_nodes=3000, **coarse
        )
        if not result.complete:
            return
        scheduler = OptimalScheduler(
            make_battery_models(pair, backend="discrete", **coarse), long_load
        )
        states = tuple(model.initial_state() for model in scheduler.models)
        assert scheduler._recovery_limited_bound(states, 0, 0.0) is None
        root_bound = scheduler._remaining_lifetime_bound(states, 0, 0.0)
        assert root_bound >= result.lifetime - 1e-9

    @given(load=short_loads())
    @settings(max_examples=20, deadline=None)
    def test_schedule_segments_cover_the_lifetime(self, load):
        params = BatteryParameters(capacity=1.0, c=0.166, k_prime=0.122)
        if load.job_count == 0:
            return
        long_load = load.repeated(20)
        result = simulate_policy([params, params], long_load, "round-robin")
        if result.survived:
            return
        for segments in result.schedule.per_battery_segments(horizon=result.lifetime):
            assert sum(duration for _, duration in segments) == pytest.approx(result.lifetime)


#: Random fleet capacities: 2-6 batteries, each between a third and a full
#: unit, so short heavy loads exhaust the whole fleet quickly.
fleet_capacities = st.lists(
    st.floats(min_value=0.3, max_value=1.0), min_size=2, max_size=6
)


class TestFleetProperties:
    """Random 2-6-battery fleets: bracketing, bound hierarchy, generators.

    The N>2 generalization of the pair properties above.  Fleets share
    ``c``/``k'`` (so the pooling family of bounds applies) but draw each
    capacity independently, which covers homogeneous, grouped and fully
    heterogeneous fleets -- and thereby every code path of the group-wise
    symmetry reduction.
    """

    @given(
        load=short_loads(),
        caps=fleet_capacities,
        c=st.floats(min_value=0.1, max_value=0.4),
        k_prime=st.floats(min_value=0.05, max_value=0.5),
    )
    @settings(max_examples=8, deadline=None)
    def test_fleet_optimal_is_bracketed_by_heuristics_and_pooling(
        self, load, caps, c, k_prime
    ):
        """Fleet-optimal >= every heuristic policy, <= the pooling bound."""
        if load.job_count == 0:
            return
        fleet = [
            BatteryParameters(capacity=cap, c=c, k_prime=k_prime) for cap in caps
        ]
        long_load = load.repeated(12)
        heuristics = {}
        for policy in ("sequential", "round-robin", "best-of-two"):
            result = simulate_policy(fleet, long_load, policy)
            if result.survived:
                return
            heuristics[policy] = result.lifetime
        optimal = find_optimal_schedule_batched(
            fleet, long_load, dominance_tolerance=0.01, max_nodes=1500
        )
        for policy, lifetime in heuristics.items():
            assert optimal.lifetime >= lifetime - 1e-6, policy
        pooled = lifetime_under_segments(
            BatteryParameters(capacity=sum(caps), c=c, k_prime=k_prime),
            long_load.segments(),
        )
        assert pooled is None or optimal.lifetime <= pooled + 1e-6

    @given(
        load=short_loads(),
        caps=fleet_capacities,
        c=st.floats(min_value=0.1, max_value=0.4),
        k_prime=st.floats(min_value=0.05, max_value=0.5),
    )
    @settings(max_examples=8, deadline=None)
    def test_fleet_root_bound_hierarchy(self, load, caps, c, k_prime):
        """total-charge >= pooling >= recovery-limited >= found schedule.

        The root-bound hierarchy of the search, asserted on random fleets:
        the ideal-battery total-charge bound dominates the KiBaM pooling
        bound, which dominates its recovery-limited refinement (when it
        applies), and every bound covers any schedule the capped search
        finds (a lower bound on the true optimum).
        """
        from repro.core.battery import make_battery_models
        from repro.core.optimal import OptimalScheduler

        if load.job_count == 0:
            return
        fleet = [
            BatteryParameters(capacity=cap, c=c, k_prime=k_prime) for cap in caps
        ]
        long_load = load.repeated(12)
        best = simulate_policy(fleet, long_load, "best-of-two")
        if best.survived:
            return
        scheduler = OptimalScheduler(make_battery_models(fleet), long_load)
        states = tuple(model.initial_state() for model in scheduler.models)
        total = scheduler._total_charge_bound(states, 0, 0.0)
        pooled = scheduler._pooled_bound(states, 0, 0.0)
        refined = scheduler._recovery_limited_bound(states, 0, 0.0)
        assert pooled <= total + 1e-9
        if refined is not None:
            assert refined <= pooled + 1e-9
        tightest = pooled if refined is None else min(pooled, refined)
        found = find_optimal_schedule_batched(
            fleet, long_load, dominance_tolerance=0.01, max_nodes=1500
        )
        assert found.lifetime <= tightest + 1e-6

    @given(seed=st.integers(min_value=0, max_value=2**16))
    @settings(max_examples=20, deadline=None)
    def test_fleet_generators_are_seed_deterministic(self, seed):
        """The sweep-facing generators rebuild bit-identical loads from
        their seeds -- the property behind stable sweep content hashes."""
        from repro.workloads.generator import duty_cycled_sensor_load, mmpp_load

        first = mmpp_load(seed=seed, total_duration=40.0)
        second = mmpp_load(seed=seed, total_duration=40.0)
        assert first.segments() == second.segments()
        jittered = duty_cycled_sensor_load(jitter=0.3, seed=seed, cycles=12)
        again = duty_cycled_sensor_load(jitter=0.3, seed=seed, cycles=12)
        assert jittered.segments() == again.segments()
