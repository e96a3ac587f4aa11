"""Unit tests for the shared bound layer, :mod:`repro.kibam.bounds`.

* **Exact screens.**  ``segment_may_cross`` / ``segments_may_cross`` skip a
  crossing solver only where the solver would report no crossing, so a
  job table built with the screen equals one built by asking the solver on
  every segment, field by field and bit for bit -- on paper loads, fleet
  loads and pooled states whose segment-end margin is within 1e-12 of zero.
* **One-pass tail solve.**  ``_tail_crossings`` (all rows of a group at
  once, closed-form Lambert-W root) agrees with the per-node bisection it
  replaced to 1e-12, for one row and for 64 rows, and every time it returns
  short of the pooled crossing has a positive margin, so the bound stays
  admissible.
* **Draw budget.**  ``DrawBudgetBound`` answers its inequality exactly (a
  tick-by-tick walk agrees on random loads) and covers the exact dKiBaM
  optimum on the coarse-grid loads where the slack-inflated pooling bound
  it replaced fell short of it.
"""

import dataclasses
import math

import numpy as np
import pytest

import repro.kibam.bounds as bounds
from repro.engine.optimal_batch import _BoundEvaluator
from repro.kibam.analytical import KibamState, step_constant_current
from repro.kibam.lifetime import time_to_empty
from repro.kibam.parameters import B1, BatteryParameters
from repro.sweep.builtin import builtin_specs
from repro.workloads.profiles import paper_loads


def _scalar_solver(params, gamma, delta, current, horizon):
    """The scalar search's segment solver (Brent)."""
    return time_to_empty(
        params, KibamState(gamma=gamma, delta=delta), current, horizon=horizon
    )


#: The batched search's segment solver (one-element ``time_to_empty_array``).
_VECTOR_SOLVER = _BoundEvaluator._segment_crossing
SOLVERS = {"scalar": _scalar_solver, "vector": _VECTOR_SOLVER}


def _pooled(params):
    return BatteryParameters(
        capacity=sum(p.capacity for p in params),
        c=params[0].c,
        k_prime=params[0].k_prime,
        name="pooled",
    )


def _load_arrays(load):
    currents = np.array([e.current for e in load.epochs])
    durations = np.array([e.duration for e in load.epochs])
    return currents, durations


def _decision_points(params, load, every):
    """Pooled ``(epoch, gamma, delta)`` at every ``every``-th job start."""
    state = KibamState(gamma=params.capacity, delta=0.0)
    points = []
    for index, epoch in enumerate(load.epochs):
        if epoch.current > 0.0 and index % every == 0:
            points.append((index, state.gamma, state.delta))
        if time_to_empty(params, state, epoch.current, horizon=epoch.duration) is not None:
            break
        state = step_constant_current(params, state, epoch.current, epoch.duration)
    return points


def _cases():
    """(label, pooled params, load) for paper loads and fleet loads."""
    loads = paper_loads()
    cases = [
        (name, _pooled([B1, B1]), loads[name])
        for name in ("CL 250", "CL alt", "ILs 250", "ILs alt", "ILs r1", "IL` 500")
    ]
    specs = builtin_specs()
    for spec_name in ("fleet", "fleet-8"):
        for point in specs[spec_name].expand():
            cases.append(
                (
                    f"{point.battery_label} / {point.load_label}",
                    _pooled(point.battery_params),
                    point.load,
                )
            )
    return cases


CASES = _cases()


def _assert_tables_equal(screened, unscreened):
    for field in dataclasses.fields(bounds.PooledJobTable):
        a = getattr(screened, field.name)
        b = getattr(unscreened, field.name)
        if isinstance(a, np.ndarray):
            assert a.shape == b.shape and a.dtype == b.dtype, field.name
            assert a.tobytes() == b.tobytes(), field.name
        else:
            assert a == b, field.name


def _build(params, load, epoch, offset, gamma, delta, solver):
    currents, durations = _load_arrays(load)
    return bounds.build_pooled_job_table(
        params, currents, durations, epoch, offset, gamma, delta, solver
    )


def _unscreened(monkeypatch, *args):
    with monkeypatch.context() as patch:
        patch.setattr(bounds, "segment_may_cross", lambda *_: True)
        return _build(*args)


class TestJobTableScreen:
    @pytest.mark.parametrize("solver", sorted(SOLVERS))
    @pytest.mark.parametrize("label,params,load", CASES, ids=[c[0] for c in CASES])
    def test_screened_table_equals_unscreened(
        self, monkeypatch, solver, label, params, load
    ):
        points = _decision_points(params, load, every=7)
        assert points
        for epoch, gamma, delta in points:
            for offset in (0.0, 0.25 * load.epochs[epoch].duration):
                args = (params, load, epoch, offset, gamma, delta, SOLVERS[solver])
                _assert_tables_equal(_build(*args), _unscreened(monkeypatch, *args))

    @pytest.mark.parametrize("solver", sorted(SOLVERS))
    @pytest.mark.parametrize("margin", [-1e-12, -1e-13, 0.0, 1e-13, 1e-12])
    def test_near_zero_end_margin(self, monkeypatch, solver, margin):
        """Pooled states whose first segment ends within 1e-12 of empty."""
        params = _pooled([B1, B1])
        load = paper_loads()["ILs alt"]
        c, k_prime = params.c, params.k_prime
        for epoch in range(0, 12, 2):
            current = load.epochs[epoch].current
            duration = load.epochs[epoch].duration
            for delta in (0.0, 0.3, 1.7):
                delta_inf = current / (c * k_prime)
                end_delta = delta_inf + (delta - delta_inf) * math.exp(-k_prime * duration)
                gamma = current * duration + (1.0 - c) * end_delta + margin
                args = (params, load, epoch, 0.0, gamma, delta, SOLVERS[solver])
                screened = _build(*args)
                _assert_tables_equal(screened, _unscreened(monkeypatch, *args))

    def test_screen_never_hides_a_crossing(self):
        """Wherever the screen says no, both solvers find no crossing."""
        rng = np.random.default_rng(7)
        params = _pooled([B1, B1])
        c, k_prime = params.c, params.k_prime
        gamma = rng.uniform(0.0, 11.0, 4000)
        delta = rng.uniform(0.0, 4.0, 4000)
        current = rng.choice([0.0, 0.1, 0.25, 0.5, 1.0], 4000)
        horizon = rng.uniform(0.01, 5.0, 4000)
        # Every fourth state sits within 1e-12 of empty at its bracket end.
        near = np.arange(0, 4000, 4)
        busy = near[current[near] > 0.0]
        end = np.minimum(gamma[busy] / current[busy], horizon[busy])
        delta_inf = current[busy] / (c * k_prime)
        end_delta = delta_inf + (delta[busy] - delta_inf) * np.exp(-k_prime * end)
        gamma[busy] = current[busy] * end + (1.0 - c) * end_delta + rng.uniform(
            -1e-12, 1e-12, busy.size
        )
        screen = bounds.segments_may_cross(c, k_prime, gamma, delta, current, horizon)
        skipped = 0
        for i in range(4000):
            args = (float(gamma[i]), float(delta[i]), float(current[i]), float(horizon[i]))
            assert screen[i] == bounds.segment_may_cross(c, k_prime, *args)
            if not screen[i]:
                skipped += 1
                assert _scalar_solver(params, *args) is None
                assert _VECTOR_SOLVER(params, *args) is None
        assert 0 < skipped < 4000


def _reference_tail_crossing(table, kc, y1_total, y2_total, y2_min, deadline):
    """Per-node reference: the scan-and-bisect loop the one-pass solve replaced."""
    flat = y1_total + y2_total - y2_min * math.exp(-kc * deadline)
    sag = y2_total - y2_min
    for seg in range(table.seg_start.shape[0]):
        end = float(table.seg_end[seg])
        if end <= deadline:
            continue
        seg_t0 = float(table.seg_start[seg])
        start = max(seg_t0, deadline)
        current = float(table.seg_current[seg])
        base = float(table.seg_demand[seg])
        if base + current * (start - seg_t0) - flat + sag * math.exp(-kc * start) > 0.0:
            return start
        if base + current * (end - seg_t0) - flat + sag * math.exp(-kc * end) <= 0.0:
            continue
        lo, hi = start, end
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if base + current * (mid - seg_t0) - flat + sag * math.exp(-kc * mid) > 0.0:
                hi = mid
            else:
                lo = mid
        return hi
    return table.crossing


def _tail_problems(n_rows, seed):
    """Tail problems on real decision-point tables, pooled wells consistent.

    Each row keeps its table's pooled wells ``(Y1, Y2)`` and draws the
    stranded ``y2_min`` and the first unservable job.
    """
    rng = np.random.default_rng(seed)
    problems = []
    for _, params, load in CASES:
        kc = params.k_prime * params.c
        c = params.c
        for epoch, gamma, delta in _decision_points(params, load, every=5):
            table = _build(params, load, epoch, 0.0, gamma, delta, _scalar_solver)
            n_jobs = table.job_deadline.shape[0]
            y1 = c * (gamma - (1.0 - c) * delta)
            y2 = gamma - y1
            problems.append(
                (
                    table,
                    kc,
                    np.full(n_rows, y1),
                    np.full(n_rows, y2),
                    y2 * rng.uniform(0.0, 0.5, n_rows),
                    rng.integers(0, n_jobs, n_rows),
                )
            )
    return problems


def _margin(table, kc, y1_total, y2_total, y2_min, first_bad, t):
    """Demand minus envelope at ``t``, in the solver's own arithmetic."""
    seg = min(int(np.searchsorted(table.seg_end, t)), table.seg_end.shape[0] - 1)
    flat = y1_total + y2_total - y2_min * table.job_deadline_fade[first_bad]
    return (
        table.seg_demand[seg]
        + table.seg_current[seg] * (t - table.seg_start[seg])
        - flat
        + (y2_total - y2_min) * np.exp(-kc * t)
    )


class TestOnePassTailSolve:
    @pytest.mark.parametrize("n_rows", [1, 64])
    def test_agrees_with_the_per_node_reference(self, n_rows):
        outcomes = {"crossing": 0, "root": 0}
        for table, kc, y1, y2, y2_min, first_bad in _tail_problems(n_rows, seed=n_rows):
            solved = bounds._tail_crossings(table, kc, y1, y2, y2_min, first_bad)
            assert solved.shape == (n_rows,)
            for row in range(n_rows):
                deadline = float(table.job_deadline[first_bad[row]])
                reference = min(
                    table.crossing,
                    _reference_tail_crossing(
                        table, kc, float(y1[row]), float(y2[row]),
                        float(y2_min[row]), deadline,
                    ),
                )
                assert abs(solved[row] - reference) <= 1e-12
                outcomes["crossing" if reference == table.crossing else "root"] += 1
        # Both the crossing and the closed-form root branch were exercised.
        assert outcomes["crossing"] > 0 and outcomes["root"] > 0

    @pytest.mark.parametrize("n_rows", [1, 64])
    def test_returned_time_has_a_positive_margin(self, n_rows):
        refined = 0
        for table, kc, y1, y2, y2_min, first_bad in _tail_problems(n_rows, seed=3):
            solved = bounds._tail_crossings(table, kc, y1, y2, y2_min, first_bad)
            deadline = table.job_deadline[first_bad]
            assert np.all(solved >= deadline) and np.all(solved <= table.crossing)
            for row in np.flatnonzero(solved < table.crossing):
                refined += 1
                margin = _margin(
                    table, kc, y1[row], y2[row], y2_min[row], first_bad[row], solved[row]
                )
                assert margin > 0.0
        assert refined > 0

    def test_never_before_the_deadline(self):
        """Even wells that the demand beats before the deadline (no search
        state looks like that) get a time at or past the deadline."""
        for table, kc, y1, y2, y2_min, first_bad in _tail_problems(8, seed=5):
            zero = np.zeros_like(y1)
            solved = bounds._tail_crossings(table, kc, zero, zero, zero, first_bad)
            assert np.all(solved >= table.job_deadline[first_bad])

    def test_tail_memo_solves_each_key_once(self):
        params = _pooled([B1, B1])
        load = paper_loads()["ILs alt"]
        epoch, gamma, delta = _decision_points(params, load, every=1)[-3]
        table = _build(params, load, epoch, 0.0, gamma, delta, _scalar_solver)
        c = params.c
        y1_pool = c * (gamma - (1.0 - c) * delta)
        y2_pool = gamma - y1_pool
        # Two batteries sharing the pooled wells unevenly: every row strands
        # charge, and rows 0/2 and 1/3 are the same node.
        share = np.array([[0.9, 0.1], [0.7, 0.3], [0.9, 0.1], [0.7, 0.3]])
        y1 = y1_pool * share
        y2 = y2_pool * share[:, ::-1]
        alive = np.ones_like(y1, dtype=bool)
        first = bounds.recovery_limited_refinements(table, params, y1, y2, alive)
        assert first[0] == first[2] and first[1] == first[3]
        assert first[0] != first[1] and np.all(first <= table.crossing)
        # Each row gets what a one-row call on a fresh table gives it.
        for row in range(4):
            fresh = _build(params, load, epoch, 0.0, gamma, delta, _scalar_solver)
            alone = bounds.recovery_limited_refinements(
                fresh, params, y1[row:row + 1], y2[row:row + 1], alive[row:row + 1]
            )
            assert alone[0] == first[row]
        entries = len(table.tail_cache)
        assert 0 < entries <= 2
        again = bounds.recovery_limited_refinements(table, params, y1, y2, alive)
        assert again.tobytes() == first.tobytes()
        assert len(table.tail_cache) == entries

    def test_tail_memo_overflow_keeps_every_result(self, monkeypatch):
        """A memo that overflows mid-call (clear-on-overflow) still answers
        every row of that call, with the same values as an unbounded one."""
        params = _pooled([B1, B1])
        load = paper_loads()["ILs alt"]
        epoch, gamma, delta = _decision_points(params, load, every=1)[-3]
        c = params.c
        y1_pool = c * (gamma - (1.0 - c) * delta)
        y2_pool = gamma - y1_pool
        share = np.linspace(0.55, 0.95, 6)[:, None] * np.array([1.0, -1.0]) + [0.0, 1.0]
        y1 = y1_pool * share
        y2 = y2_pool * share[:, ::-1]
        alive = np.ones_like(y1, dtype=bool)

        def refine():
            table = _build(params, load, epoch, 0.0, gamma, delta, _scalar_solver)
            return table, bounds.recovery_limited_refinements(table, params, y1, y2, alive)

        _, unbounded = refine()
        monkeypatch.setattr(bounds, "_TAIL_CACHE_LIMIT", 2)
        table, capped = refine()
        assert capped.tobytes() == unbounded.tobytes()
        assert 0 < len(table.tail_cache) <= 2
        assert np.any(unbounded < table.crossing)


#: Coarse-grid dKiBaM instances on which the slack-inflated analytical
#: pooling bound fell below the exact optimum: (capacity, epochs, repeats).
POOLING_COUNTEREXAMPLES = {
    "cap1.375-job-last": (1.375, [(0.0, 0.5), (0.0, 0.5), (0.5, 1.0)], 20),
    "cap0.75-one-job": (0.75, [(0.0, 0.5)] * 3 + [(0.25, 0.5)] + [(0.0, 0.5)] * 2, 10),
    "cap0.75-long-idle": (0.75, [(0.25, 0.5), (0.0, 2.0)], 10),
}
COARSE = dict(time_step=0.1, charge_unit=0.1)


def _coarse_case(name):
    from repro.workloads.load import Epoch, Load

    capacity, epochs, repeats = POOLING_COUNTEREXAMPLES[name]
    load = Load(
        name=name,
        epochs=tuple(Epoch(current=c, duration=d) for c, d in epochs),
    ).repeated(repeats)
    pair = [BatteryParameters(capacity=capacity, c=0.166, k_prime=0.122)] * 2
    return pair, load


def _scalar_root_bound(pair, load, grid):
    from repro.core.battery import make_battery_models
    from repro.core.optimal import OptimalScheduler

    scheduler = OptimalScheduler(
        make_battery_models(pair, backend="discrete", **grid), load
    )
    states = tuple(model.initial_state() for model in scheduler.models)
    return scheduler._remaining_lifetime_bound(states, 0, 0.0)


def _exact_optimum(pair, load, grid):
    """Tolerance-0 scalar search with bound pruning switched off."""
    from repro.core.optimal import OptimalScheduler, find_optimal_schedule

    original = OptimalScheduler._remaining_lifetime_bound
    OptimalScheduler._remaining_lifetime_bound = lambda self, *a, **k: math.inf
    try:
        return find_optimal_schedule(pair, load, backend="discrete", **grid)
    finally:
        OptimalScheduler._remaining_lifetime_bound = original


class TestDrawBudgetBound:
    @staticmethod
    def _walk(bound, units, alive, epoch, offset):
        """Tick-by-tick reference: the last tick the inequality allows."""
        budget = units + bound.allowance * alive
        used = 0
        elapsed = 0
        for e in range(epoch, bound.epoch_ticks.shape[0]):
            length = int(bound.epoch_ticks[e]) - (offset if e == epoch else 0)
            cur, cur_times = int(bound.cur[e]), int(bound.cur_times[e])
            for tick in range(1, length + 1):
                if used + tick * cur // cur_times > budget:
                    return elapsed + tick - 1
            used += length * cur // cur_times
            elapsed += length
        return elapsed

    def test_matches_a_tick_by_tick_walk(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            n_epochs = int(rng.integers(1, 12))
            cur = rng.integers(0, 4, n_epochs)
            cur_times = np.where(cur > 0, rng.integers(1, 6, n_epochs), 1)
            ticks = rng.integers(1, 15, n_epochs)
            bound = bounds.DrawBudgetBound(cur, cur_times, ticks)
            rows = 16
            epoch = rng.integers(0, n_epochs + 1, rows)
            offset = np.array(
                [
                    int(rng.integers(0, ticks[e])) if e < n_epochs else 0
                    for e in epoch
                ]
            )
            units = rng.integers(0, 40, rows)
            alive = rng.integers(1, 4, rows)
            got = bound.ticks(units, alive, epoch, offset)
            expected = [
                self._walk(bound, int(u), int(a), int(e), int(o))
                for u, a, e, o in zip(units, alive, epoch, offset)
            ]
            assert got.tolist() == expected

    def test_small_budgets_by_hand(self):
        bound = bounds.DrawBudgetBound([1, 0, 1], [2, 1, 4], [10, 5, 8])
        # 5 + 0 + 2 whole draws fit a budget of 6 units + 1 allowance.
        assert bound.ticks([6], [1], [0], [0]).tolist() == [23]
        assert bound.ticks([0], [1], [1], [2]).tolist() == [3 + 7]
        assert bound.ticks([5], [2], [3], [0]).tolist() == [0]

    def test_allowance_is_the_most_draws_in_one_tick(self):
        assert bounds.DrawBudgetBound([3, 1], [2, 4], [5, 5]).allowance == 2
        assert bounds.DrawBudgetBound([1], [4], [5]).allowance == 1
        assert bounds.DrawBudgetBound([0], [1], [5]).allowance == 1

    def test_covers_single_battery_lifetimes_at_several_draws_per_tick(self):
        from repro.core.battery import make_battery_models
        from repro.core.optimal import OptimalScheduler
        from repro.core.simulator import simulate_policy
        from repro.workloads.load import Epoch, Load

        load = Load(
            name="heavy",
            epochs=(Epoch(current=1.5, duration=0.3), Epoch(current=0.0, duration=0.2)),
        ).repeated(30)
        for capacity in (0.5, 0.8, 1.3):
            params = [BatteryParameters(capacity=capacity, c=0.166, k_prime=0.122)]
            models = make_battery_models(params, backend="discrete", **COARSE)
            scheduler = OptimalScheduler(models, load)
            assert scheduler._draw_budget.allowance == 2
            lifetime = simulate_policy(
                params, load, "sequential", backend="discrete", **COARSE
            ).lifetime
            assert lifetime is not None
            assert _scalar_root_bound(params, load, COARSE) >= lifetime - 1e-9

    def test_applies_only_to_one_coarse_dkibam_grid(self):
        from repro.core.battery import AnalyticalBattery, DiscreteBattery
        from repro.core.optimal import discrete_draw_budget
        from repro.workloads.load import Epoch, Load

        load = Load(name="one", epochs=(Epoch(current=0.5, duration=1.0),))
        fine = DiscreteBattery(B1)
        coarse = DiscreteBattery(B1, time_step=0.1, charge_unit=0.1)
        half = DiscreteBattery(B1, time_step=0.05, charge_unit=0.05)
        assert discrete_draw_budget([coarse, coarse], load) is not None
        assert discrete_draw_budget([fine, fine], load) is None
        assert discrete_draw_budget([half, coarse], load) is None
        assert discrete_draw_budget([coarse, AnalyticalBattery(B1)], load) is None
        assert discrete_draw_budget([AnalyticalBattery(B1)], load) is None

    def test_pooling_margin_only_on_the_paper_grid_and_finer(self):
        from repro.core.optimal import discrete_pooling_margin

        assert discrete_pooling_margin(0.01, 0.01) == 0.02
        assert discrete_pooling_margin(0.005, 0.01) == 0.02
        assert discrete_pooling_margin(0.05, 0.05) is None
        assert discrete_pooling_margin(0.01, 0.02) is None

    @pytest.mark.parametrize("name", sorted(POOLING_COUNTEREXAMPLES))
    def test_root_bound_covers_the_exact_optimum(self, name):
        pair, load = _coarse_case(name)
        exact = _exact_optimum(pair, load, COARSE)
        assert exact.complete
        assert _scalar_root_bound(pair, load, COARSE) >= exact.lifetime - 1e-9

    @pytest.mark.parametrize("name", sorted(POOLING_COUNTEREXAMPLES))
    def test_certified_searches_find_the_exact_optimum(self, name):
        from repro.core.optimal import find_optimal_schedule
        from repro.engine.optimal_batch import find_optimal_schedule_batched

        pair, load = _coarse_case(name)
        exact = _exact_optimum(pair, load, COARSE)
        scalar = find_optimal_schedule(pair, load, backend="discrete", **COARSE)
        batched = find_optimal_schedule_batched(
            pair, load, model="discrete", **COARSE
        )
        ticks = round(exact.lifetime / COARSE["time_step"])
        assert scalar.complete and batched.complete
        assert round(scalar.lifetime / COARSE["time_step"]) == ticks
        assert round(batched.lifetime / COARSE["time_step"]) == ticks

    def test_root_bound_on_a_constant_load_by_hand(self):
        # CL 250 on 2 x B1 at T = Gamma = 0.1: 2 x 55 units plus one unit
        # of allowance per battery.  At 250 mA a unit takes 4 ticks, so a
        # 10-tick epoch (one a battery may serve from a fresh accumulator)
        # surely draws 2 units: the budget of 112 lasts 56 epochs, and 3
        # more ticks before a 57th unit would be due.
        load = paper_loads()["CL 250"]
        assert _scalar_root_bound([B1, B1], load, COARSE) == pytest.approx(56.3)

    @pytest.mark.parametrize("name", ["CL 250", "ILs alt"])
    def test_batched_root_bound_matches_the_scalar_bound(self, name):
        from repro.engine.optimal_batch import BatchOptimalScheduler

        pair = [B1, B1]
        load = paper_loads()[name]
        ops = BatchOptimalScheduler(pair, load, model="discrete", **COARSE)._ops
        root = ops.root_batch()
        alive = ops.model.alive(root["state"], root["empty"])
        batched = ops.model.remaining_bounds(
            root["state"], alive, root["epoch"], root["offset"] * 0.1,
            np.zeros(1), 0.0,
        )[0]
        assert batched == pytest.approx(_scalar_root_bound(pair, load, COARSE))
