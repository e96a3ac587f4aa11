"""Tests for the batched branch-and-bound optimal search.

The contract under test (see ``repro.engine.optimal_batch``):

* **parity** -- on certified searches (``dominance_tolerance=0``, no node
  cap) the batched search returns the same lifetime as the scalar
  :class:`repro.core.optimal.OptimalScheduler` (within 1e-9 minutes for the
  analytical model, in *exact ticks* for the discrete model) and the same
  ``complete`` flag, on all ten paper loads;
* **bounded node inflation** -- best-first expansion against a per-batch
  incumbent may expand more nodes than the depth-first scalar search, but
  only by a small factor (documented bound: 3x + one batch);
* **shared pruning semantics** -- the vectorized dominance archive takes
  exactly the same admit/reject decisions as the scalar reference archive;
* **exact dKiBaM stepping** -- the lane-parallel segment kernel reproduces
  ``DiscreteKibam.run_segment`` unit for unit, tick for tick.

Searches use reduced-capacity batteries (0.75x B1) and, for the discrete
backend, a coarser ``T = Gamma = 0.05`` grid so the scalar reference stays
fast; the parity contract is discretization-independent (both searches
prune dKiBaM nodes with the same draw-budget bound).
"""

import numpy as np
import pytest

from repro.core.battery import make_battery_models
from repro.core.optimal import (
    DominanceArchive,
    OptimalScheduler,
    find_optimal_schedule,
    group_permutations,
    model_symmetry_groups,
    parameter_symmetry_groups,
)
from repro.core.policies import FixedAssignmentPolicy
from repro.core.simulator import simulate_policy
from repro.engine.optimal_batch import (
    BatchOptimalScheduler,
    DecisionTrace,
    FrontierArrays,
    VectorDominanceArchive,
    discrete_segment_array,
    find_optimal_schedule_batched,
    optimal_schedules_batch,
)
from repro.engine.kernels import DISCRETE_UNREACHABLE, KernelParams
from repro.kibam.discrete import DiscreteBatteryState, DiscreteKibam, DischargeSpec
from repro.kibam.parameters import B1, B2, BatteryParameters
from repro.workloads.load import Epoch, Load
from repro.workloads.profiles import PAPER_LOAD_NAMES, paper_loads

#: Reduced-capacity pair: same dynamics as 2xB1, much smaller searches.
SCALED = B1.scaled(0.75)

#: Coarse dKiBaM grid for the discrete parity runs (scalar reference cost).
COARSE = dict(time_step=0.05, charge_unit=0.05)

#: Documented node-inflation bound of the batched best-first expansion:
#: a batch is popped against one incumbent while the scalar depth-first
#: search re-checks an (often improved) incumbent at every node.
NODE_FACTOR = 3
NODE_SLACK = 64

#: Small-fleet building blocks: two distinct parameter groups sharing the
#: B1 chemistry, sized so N-battery fleets die within a short heavy load
#: and certified scalar searches stay fast at every fleet width.
FLEET_A = BatteryParameters(capacity=0.5, c=0.166, k_prime=0.122)
FLEET_B = BatteryParameters(capacity=0.35, c=0.166, k_prime=0.122)

#: The fleet parity matrix: identical subgroups at every width, so the
#: group-wise symmetry reduction is exercised (not just tolerated).
FLEETS = {
    3: (FLEET_A, FLEET_A, FLEET_B),
    4: (FLEET_A, FLEET_A, FLEET_B, FLEET_B),
    8: (FLEET_A,) * 4 + (FLEET_B,) * 4,
}


def fleet_load(n_epochs=12):
    """A heavy job/idle alternation that exhausts every FLEETS fleet."""
    epochs = []
    for index in range(n_epochs):
        epochs.append(Epoch(current=1.0 if index % 2 == 0 else 0.5, duration=1.0))
        epochs.append(Epoch(current=0.0, duration=0.5))
    return Load(name="fleet-alt", epochs=tuple(epochs))


@pytest.fixture(scope="module")
def all_loads():
    return paper_loads()


class TestAnalyticalParity:
    @pytest.mark.parametrize("load_name", PAPER_LOAD_NAMES)
    def test_lifetime_complete_and_nodes_match_scalar(self, all_loads, load_name):
        load = all_loads[load_name]
        scalar = find_optimal_schedule([SCALED, SCALED], load)
        batched = find_optimal_schedule_batched([SCALED, SCALED], load)
        assert batched.lifetime == pytest.approx(scalar.lifetime, abs=1e-9)
        assert batched.complete == scalar.complete
        assert batched.complete
        assert batched.backend == "analytical"
        assert (
            batched.nodes_expanded
            <= NODE_FACTOR * scalar.nodes_expanded + NODE_SLACK
        )

    def test_batched_assignment_replays_to_the_reported_lifetime(self, all_loads):
        load = all_loads["ILs alt"]
        batched = find_optimal_schedule_batched([SCALED, SCALED], load)
        replay = simulate_policy(
            [SCALED, SCALED], load, FixedAssignmentPolicy(batched.assignment)
        )
        assert replay.lifetime_or_raise() == pytest.approx(batched.lifetime)

    def test_batch_size_does_not_change_the_result(self, all_loads):
        load = all_loads["CL 250"]
        results = [
            BatchOptimalScheduler(
                [SCALED, SCALED], load, batch_size=batch_size
            ).search()
            for batch_size in (1, 4, 64)
        ]
        lifetimes = {round(result.lifetime, 12) for result in results}
        assert len(lifetimes) == 1

    def test_heterogeneous_capacities_share_the_pooling_bound(self, all_loads):
        small = BatteryParameters(capacity=2.0, c=0.166, k_prime=0.122)
        large = BatteryParameters(capacity=4.0, c=0.166, k_prime=0.122)
        load = all_loads["ILs 500"]
        scalar = find_optimal_schedule([small, large], load)
        batched = find_optimal_schedule_batched([small, large], load)
        assert batched.lifetime == pytest.approx(scalar.lifetime, abs=1e-9)
        assert batched.complete == scalar.complete

    def test_heterogeneous_chemistry_uses_the_total_charge_bound(self):
        # Different c/k' pairs cannot pool; both searches must fall back to
        # the total-charge bound and still agree.
        a = BatteryParameters(capacity=1.5, c=0.166, k_prime=0.122)
        b = BatteryParameters(capacity=1.5, c=0.25, k_prime=0.2)
        epochs = tuple(
            Epoch(current=0.5 if i % 2 == 0 else 0.0, duration=1.0)
            for i in range(24)
        )
        load = Load(name="hetero", epochs=epochs)
        scalar = find_optimal_schedule([a, b], load)
        batched = find_optimal_schedule_batched([a, b], load)
        assert batched.lifetime == pytest.approx(scalar.lifetime, abs=1e-9)

    def test_single_battery_degenerates_to_sequential(self, all_loads):
        load = all_loads["ILs 500"]
        batched = find_optimal_schedule_batched([SCALED], load)
        sequential = simulate_policy([SCALED], load, "sequential").lifetime_or_raise()
        assert batched.lifetime == pytest.approx(sequential)

    def test_linear_model_falls_back_to_the_scalar_search(self, all_loads):
        load = all_loads["CL 500"]
        scalar = find_optimal_schedule([SCALED, SCALED], load, backend="linear")
        batched = find_optimal_schedule_batched([SCALED, SCALED], load, model="linear")
        assert batched.backend == "linear"
        assert batched.lifetime == pytest.approx(scalar.lifetime, abs=1e-9)


class TestDiscreteParity:
    @pytest.mark.parametrize("load_name", PAPER_LOAD_NAMES)
    def test_exact_tick_parity_with_the_scalar_search(self, all_loads, load_name):
        load = all_loads[load_name]
        scalar = find_optimal_schedule(
            [SCALED, SCALED], load, backend="discrete", **COARSE
        )
        batched = find_optimal_schedule_batched(
            [SCALED, SCALED], load, model="discrete", **COARSE
        )
        # Both lifetimes come from a scalar replay of the winning
        # assignment, so the exact contract is equal *tick counts* (two
        # co-optimal assignments may split the same ticks into different
        # float spans).
        time_step = COARSE["time_step"]
        assert round(batched.lifetime / time_step) == round(
            scalar.lifetime / time_step
        )
        assert batched.complete == scalar.complete
        assert batched.complete
        assert batched.backend == "discrete"
        assert (
            batched.nodes_expanded
            <= NODE_FACTOR * scalar.nodes_expanded + NODE_SLACK
        )

    def test_discrete_result_replays_exactly(self, all_loads):
        load = all_loads["ILs alt"]
        batched = find_optimal_schedule_batched(
            [SCALED, SCALED], load, model="discrete", **COARSE
        )
        replay = simulate_policy(
            [SCALED, SCALED],
            load,
            FixedAssignmentPolicy(batched.assignment),
            backend="discrete",
            **COARSE,
        )
        assert replay.lifetime_or_raise() == batched.lifetime

    @pytest.mark.parametrize(
        "params, trace, repeat, ticks",
        [
            (
                (B1.scaled(0.6),) * 2,
                [[0.5, 1], [0, 1], [0.25, 0.5], [0, 2], [0.25, 1.5], [0, 1]],
                15,
                928,
            ),
            ((B1.scaled(0.3),) * 3, [[0.5, 0.5], [0, 2], [0.5, 1], [0, 2]], 15, 812),
            ((B1.scaled(0.5), B1.scaled(0.3)), [[0.25, 1], [0, 1]], 60, 820),
        ],
    )
    def test_probe_never_raises_the_cutoff_past_the_optimum(
        self, params, trace, repeat, ticks
    ):
        # Loads where a greedy rollout empties its last battery exactly at
        # the end of a job: a probe that kept rolling through the next idle
        # epoch reported a lifetime its own schedule never reaches, and that
        # overestimate pruned the optimum out of a "certified" search.
        epochs = tuple(Epoch(current=c, duration=d) for c, d in trace) * repeat
        load = Load(name="probe-death", epochs=epochs)
        scalar = find_optimal_schedule(params, load, backend="discrete")
        batched = find_optimal_schedule_batched(params, load, model="discrete")
        assert round(batched.lifetime / 0.01) == round(scalar.lifetime / 0.01) == ticks
        assert batched.complete and scalar.complete


class TestGreedyProbe:
    """The lower-bound probe reports the lifetimes of real schedules."""

    PARAMS = (B1, B1.scaled(0.8), B1)

    @pytest.mark.parametrize("model", ["analytical", "discrete"])
    def test_probe_lifetimes_match_a_replay_of_their_schedules(
        self, all_loads, model
    ):
        load = all_loads["ILs alt"]
        ops = BatchOptimalScheduler(self.PARAMS, load, model=model)._ops
        _, ready = ops.prepare(ops.root_batch(), float("-inf"))
        for _depth in range(3):
            slots = ready[0]
            lower, tails = ops.greedy_lifetimes(slots)
            for slot, lifetime, tail in zip(slots, lower, tails):
                assignment = ops.trace.assignment(int(ops.pool.trace[slot]))
                replay = simulate_policy(
                    self.PARAMS,
                    load,
                    FixedAssignmentPolicy(assignment + tuple(tail)),
                    backend=model,
                ).lifetime_or_raise()
                if model == "discrete":
                    assert lifetime == replay
                else:
                    assert lifetime == pytest.approx(replay, abs=1e-9)
            _, children = ops.branch(slots)
            _, ready = ops.prepare(children, float("-inf"))


class TestGroupSymmetry:
    """Group-wise symmetry reduction on fleets with identical subgroups.

    The contract: permuted-duplicate schedules are pruned (node counts
    drop) while the reported result stays *bitwise* unchanged -- permuting
    identical batteries produces the same float trajectory, so the pruned
    search's incumbent sequence is a subsequence of the unpruned one.
    """

    def fleet(self):
        # Two identical batteries plus one distinct: neither the legacy
        # all-identical fast path nor the no-symmetry path covers this.
        return [FLEET_A, FLEET_A, FLEET_B]

    def test_scalar_search_prunes_permutations_bitwise_unchanged(self):
        load = fleet_load(8)
        pruned = find_optimal_schedule(self.fleet(), load)
        full = find_optimal_schedule(self.fleet(), load, use_symmetry=False)
        assert pruned.complete and full.complete
        assert pruned.lifetime == full.lifetime
        assert pruned.residual_charge == pytest.approx(full.residual_charge)
        assert pruned.nodes_expanded < full.nodes_expanded

    def test_batched_search_prunes_permutations_bitwise_unchanged(self):
        load = fleet_load(8)
        pruned = find_optimal_schedule_batched(self.fleet(), load)
        full = find_optimal_schedule_batched(self.fleet(), load, use_symmetry=False)
        assert pruned.complete and full.complete
        assert pruned.lifetime == full.lifetime
        assert pruned.nodes_expanded < full.nodes_expanded

    def test_pruned_fleet_result_replays(self):
        load = fleet_load(8)
        result = find_optimal_schedule_batched(self.fleet(), load)
        replay = simulate_policy(
            self.fleet(), load, FixedAssignmentPolicy(result.assignment)
        )
        assert replay.lifetime_or_raise() == pytest.approx(result.lifetime)

    def test_symmetry_never_changes_an_all_distinct_fleet(self):
        distinct = [
            BatteryParameters(capacity=0.5, c=0.166, k_prime=0.122),
            BatteryParameters(capacity=0.4, c=0.166, k_prime=0.122),
            BatteryParameters(capacity=0.3, c=0.166, k_prime=0.122),
        ]
        load = fleet_load(8)
        on = find_optimal_schedule_batched(distinct, load)
        off = find_optimal_schedule_batched(distinct, load, use_symmetry=False)
        assert on.lifetime == off.lifetime
        assert on.nodes_expanded == off.nodes_expanded

    def test_group_resolution_helpers(self):
        assert parameter_symmetry_groups([FLEET_A, FLEET_A, FLEET_B]) == (0, 0, 1)
        assert parameter_symmetry_groups([FLEET_A, FLEET_B, FLEET_A]) == (0, 1, 0)
        models = make_battery_models([FLEET_A, FLEET_B, FLEET_A])
        assert model_symmetry_groups(models) == (0, 1, 0)
        # Mixed groups multiply out; oversized products fall back to the
        # identity rather than enumerating thousands of permutations.
        assert len(group_permutations((0, 0, 1))) == 2
        assert len(group_permutations((0, 0, 1, 1))) == 4
        assert group_permutations((0,) * 8) == [tuple(range(8))]


class TestFleetParity:
    """Satellite matrix: scalar/batched agreement at N in {3, 4, 8}."""

    @pytest.mark.parametrize("n_batteries", sorted(FLEETS))
    def test_analytical_fleet_parity(self, n_batteries):
        fleet = list(FLEETS[n_batteries])
        load = fleet_load()
        scalar = find_optimal_schedule(fleet, load)
        batched = find_optimal_schedule_batched(fleet, load)
        assert batched.lifetime == pytest.approx(scalar.lifetime, abs=1e-9)
        assert batched.complete == scalar.complete
        assert batched.complete
        assert (
            batched.nodes_expanded
            <= NODE_FACTOR * scalar.nodes_expanded + NODE_SLACK
        )

    @pytest.mark.parametrize("n_batteries", sorted(FLEETS))
    def test_discrete_fleet_parity_in_exact_ticks(self, n_batteries):
        fleet = list(FLEETS[n_batteries])
        load = fleet_load(8)
        scalar = find_optimal_schedule(fleet, load, backend="discrete", **COARSE)
        batched = find_optimal_schedule_batched(
            fleet, load, model="discrete", **COARSE
        )
        time_step = COARSE["time_step"]
        assert round(batched.lifetime / time_step) == round(
            scalar.lifetime / time_step
        )
        assert batched.complete == scalar.complete
        assert batched.complete

    @pytest.mark.parametrize("n_batteries", sorted(FLEETS))
    def test_fleet_optimal_dominates_heuristics(self, n_batteries):
        fleet = list(FLEETS[n_batteries])
        load = fleet_load()
        optimal = find_optimal_schedule_batched(fleet, load)
        for policy in ("sequential", "round-robin", "best-of-two"):
            heuristic = simulate_policy(fleet, load, policy).lifetime_or_raise()
            assert optimal.lifetime >= heuristic - 1e-9, policy


#: Capped fleet searches (batched, analytical, ``max_nodes=300``, tolerance
#: 0.01) on the ``fleet`` / ``fleet-8`` sweep loads, pinned exactly:
#: (fleet, load, lifetime, assignment, nodes_expanded, complete).
CAPPED_FLEET_PINS = (
    ("fleet4 2+2", "MMPP 500", 5.2486857082644125, (2, 3, 0, 1, 3), 26, True),
    ("fleet4 2+2", "DCS 500", 42.58529230952718,
     (0, 1, 0, 1, 1, 2, 1, 3, 1, 0, 3, 0, 3, 1, 2, 3, 1, 0, 1, 3, 1, 3, 3, 2,
      0, 3, 0, 1, 3, 0, 3, 0, 3, 3, 3, 3), 300, False),
    ("fleet4 2+2", "Trace mix", 5.584362851573667, (2, 3, 0, 1, 0, 1), 22, True),
    ("fleet4 3+1", "MMPP 500", 5.329007125874044, (3, 0, 1, 2, 0), 17, True),
    ("fleet4 3+1", "DCS 500", 38.66816005290334,
     (0, 1, 2, 0, 1, 0, 1, 1, 2, 1, 1, 0, 1, 1, 2, 1, 1, 0, 1, 3, 1, 2, 2, 2,
      3, 0, 2, 0, 2, 0, 0, 0, 0), 300, False),
    ("fleet4 3+1", "Trace mix", 5.589215975415982, (3, 0, 1, 2, 1, 2), 16, True),
    ("fleet8 4+4", "MMPP 500", 10.10954542300189,
     (4, 5, 6, 7, 0, 1, 2, 3, 5, 3), 300, False),
)


class TestCappedFleetPins:
    """A capped search's result depends on every pruning decision, so the
    smallest change in a bound can move it; these pins make any such move
    visible (bound refactors must keep them bit for bit)."""

    @pytest.fixture(scope="class")
    def fleet_points(self):
        from repro.sweep.builtin import builtin_specs

        specs = builtin_specs()
        return {
            (point.battery_label, point.load_label): point
            for name in ("fleet", "fleet-8")
            for point in specs[name].expand()
        }

    @pytest.mark.parametrize(
        "fleet,load,lifetime,assignment,nodes,complete",
        CAPPED_FLEET_PINS,
        ids=[f"{pin[0]}/{pin[1]}" for pin in CAPPED_FLEET_PINS],
    )
    def test_capped_result_is_pinned(
        self, fleet_points, fleet, load, lifetime, assignment, nodes, complete
    ):
        point = fleet_points[(fleet, load)]
        result = find_optimal_schedule_batched(
            point.battery_params, point.load, max_nodes=300, dominance_tolerance=0.01
        )
        assert (
            repr(result.lifetime),
            result.assignment,
            result.nodes_expanded,
            result.complete,
        ) == (repr(lifetime), assignment, nodes, complete)


class TestDominanceAblation:
    def small_load(self):
        epochs = tuple(
            Epoch(current=0.5 if i % 2 == 0 else 0.25, duration=1.0)
            for i in range(10)
        )
        return Load(name="small-alt", epochs=epochs)

    def small_pair(self):
        small = BatteryParameters(capacity=1.5, c=0.166, k_prime=0.122)
        return [small, small]

    def test_batched_search_without_dominance_matches_with(self):
        load, pair = self.small_load(), self.small_pair()
        with_dominance = find_optimal_schedule_batched(pair, load)
        without = find_optimal_schedule_batched(pair, load, use_dominance=False)
        assert without.lifetime == pytest.approx(with_dominance.lifetime, abs=1e-9)
        assert without.nodes_expanded >= with_dominance.nodes_expanded

    def test_undominated_batched_search_matches_undominated_scalar(self):
        load, pair = self.small_load(), self.small_pair()
        scalar = find_optimal_schedule(pair, load, use_dominance=False)
        batched = find_optimal_schedule_batched(pair, load, use_dominance=False)
        assert batched.lifetime == pytest.approx(scalar.lifetime, abs=1e-9)
        assert batched.complete == scalar.complete

    def test_undominated_discrete_parity(self):
        load, pair = self.small_load(), self.small_pair()
        scalar = find_optimal_schedule(
            pair, load, backend="discrete", use_dominance=False, **COARSE
        )
        batched = find_optimal_schedule_batched(
            pair, load, model="discrete", use_dominance=False, **COARSE
        )
        time_step = COARSE["time_step"]
        assert round(batched.lifetime / time_step) == round(
            scalar.lifetime / time_step
        )


class TestBatchedAdmission:
    """The search's per-key ``admit_many`` calls decide exactly like the
    scalar reference archive fed one child at a time."""

    @staticmethod
    def _one_at_a_time(tolerance):
        def admit_many(self, key, matrices):
            scalar = self.__dict__.setdefault(
                "_scalar",
                DominanceArchive(
                    symmetric=self.symmetric,
                    dominance_tolerance=tolerance,
                    archive_limit=self.archive_limit,
                    groups=self.groups,
                ),
            )
            return np.array(
                [scalar.admit(key, tuple(map(tuple, matrix))) for matrix in matrices],
                dtype=bool,
            )

        return admit_many

    @pytest.mark.parametrize(
        "load_name, model, tolerance",
        [
            ("ILs 250", "analytical", 0.005),
            ("CL 250", "analytical", 0.005),
            ("CL 250", "discrete", 0.0),
        ],
    )
    def test_search_matches_one_child_at_a_time(
        self, all_loads, monkeypatch, load_name, model, tolerance
    ):
        def run():
            result = find_optimal_schedule_batched(
                [B1, B1],
                all_loads[load_name],
                model=model,
                dominance_tolerance=tolerance,
            )
            return (
                result.lifetime,
                result.assignment,
                result.nodes_expanded,
                result.complete,
            )

        batched = run()
        monkeypatch.setattr(
            VectorDominanceArchive, "admit_many", self._one_at_a_time(tolerance)
        )
        assert run() == batched


class TestSearchControls:
    def test_max_nodes_marks_the_result_incomplete(self, all_loads):
        load = all_loads["ILs alt"]
        capped = find_optimal_schedule_batched([SCALED, SCALED], load, max_nodes=2)
        full = find_optimal_schedule_batched([SCALED, SCALED], load)
        assert not capped.complete
        assert capped.lifetime <= full.lifetime + 1e-9
        best = simulate_policy([SCALED, SCALED], load, "best-of-two").lifetime_or_raise()
        assert capped.lifetime >= best - 1e-9  # never worse than the incumbent

    def test_dominance_tolerance_stays_near_the_certified_result(self, all_loads):
        load = all_loads["ILs alt"]
        exact = find_optimal_schedule_batched([SCALED, SCALED], load)
        relaxed = find_optimal_schedule_batched(
            [SCALED, SCALED], load, dominance_tolerance=0.005
        )
        assert relaxed.lifetime == pytest.approx(exact.lifetime, rel=0.005)

    def test_parameter_validation(self, all_loads):
        load = all_loads["CL 500"]
        with pytest.raises(ValueError):
            BatchOptimalScheduler([], load)
        with pytest.raises(ValueError):
            BatchOptimalScheduler([SCALED], load, dominance_tolerance=-1.0)
        with pytest.raises(ValueError):
            BatchOptimalScheduler([SCALED], load, batch_size=0)
        with pytest.raises(ValueError):
            BatchOptimalScheduler([SCALED], load, model="linear")

    def test_batch_helper_runs_one_search_per_load(self, all_loads):
        loads = [all_loads["CL 500"], all_loads["ILs 500"]]
        results = optimal_schedules_batch(loads, [SCALED, SCALED])
        assert len(results) == 2
        singles = [
            find_optimal_schedule_batched(
                [SCALED, SCALED], load, max_nodes=20_000, dominance_tolerance=0.005
            )
            for load in loads
        ]
        for got, expected in zip(results, singles):
            assert got.lifetime == pytest.approx(expected.lifetime, abs=1e-9)

    def test_capped_searches_fall_back_to_the_scalar_dfs(self, all_loads):
        """A capped best-first frontier certifies a shallow lower bound; the
        helper must re-drive it through the depth-first scalar search and
        keep the better *whole* result (lifetime, decisions and residual
        from one schedule, not a mix)."""
        load = all_loads["ILs alt"]
        capped_raw = optimal_schedules_batch(
            [load], [SCALED, SCALED], max_nodes=2, dominance_tolerance=0.0,
            scalar_fallback=False,
        )[0]
        assert not capped_raw.complete
        with_fallback = optimal_schedules_batch(
            [load], [SCALED, SCALED], max_nodes=2, dominance_tolerance=0.0
        )[0]
        scalar = find_optimal_schedule(
            [SCALED, SCALED], load, max_nodes=2, dominance_tolerance=0.0
        )
        assert with_fallback.lifetime >= max(capped_raw.lifetime, scalar.lifetime) - 1e-9
        # Internal consistency: the reported metadata belongs to the
        # reported schedule.
        replay = simulate_policy(
            [SCALED, SCALED], load, FixedAssignmentPolicy(with_fallback.assignment)
        )
        assert replay.lifetime_or_raise() == pytest.approx(with_fallback.lifetime)
        assert with_fallback.residual_charge == pytest.approx(replay.residual_charge)
        assert len(with_fallback.assignment) == replay.decisions

    def test_fallback_upgrades_to_certified_when_the_scalar_completes(
        self, all_loads, monkeypatch
    ):
        """If the depth-first fallback *finishes* inside the node budget its
        result is the certified optimum and replaces the capped one, even
        when the lifetimes tie."""
        import repro.engine.parallel as parallel

        load = all_loads["ILs alt"]
        certified = find_optimal_schedule([SCALED, SCALED], load)
        assert certified.complete
        monkeypatch.setattr(
            parallel, "optimal_schedules_chunk", lambda *args, **kwargs: [certified]
        )
        result = optimal_schedules_batch(
            [load], [SCALED, SCALED], max_nodes=2, dominance_tolerance=0.0
        )[0]
        assert result is certified

    def test_fallback_never_discards_a_longer_batched_schedule(
        self, all_loads, monkeypatch
    ):
        """A 'complete' DFS under tolerance merging can still return a worse
        schedule than the capped batched search found; the lifetime
        comparison must win over the completeness flag."""
        import dataclasses

        import repro.engine.parallel as parallel

        load = all_loads["ILs alt"]
        capped = optimal_schedules_batch(
            [load], [SCALED, SCALED], max_nodes=2, dominance_tolerance=0.0,
            scalar_fallback=False,
        )[0]
        worse_but_certified = dataclasses.replace(
            find_optimal_schedule([SCALED, SCALED], load),
            lifetime=capped.lifetime - 0.5,
            complete=True,
        )
        monkeypatch.setattr(
            parallel,
            "optimal_schedules_chunk",
            lambda *args, **kwargs: [worse_but_certified],
        )
        result = optimal_schedules_batch(
            [load], [SCALED, SCALED], max_nodes=2, dominance_tolerance=0.0
        )[0]
        assert result.lifetime == capped.lifetime
        assert not result.complete


class TestResultMetadata:
    def test_as_simulation_result_carries_the_winning_leaf(self, all_loads):
        """Regression: optimal rows used to report nan residual charge and
        empty final states, forcing downstream tables to special-case them."""
        load = all_loads["ILs alt"]
        for result in (
            find_optimal_schedule([SCALED, SCALED], load),
            find_optimal_schedule_batched([SCALED, SCALED], load),
        ):
            simulation = result.as_simulation_result()
            assert np.isfinite(simulation.residual_charge)
            assert len(simulation.final_states) == 2
            assert simulation.decisions == len(result.assignment)
            replay = simulate_policy(
                [SCALED, SCALED], load, FixedAssignmentPolicy(result.assignment)
            )
            assert simulation.residual_charge == pytest.approx(replay.residual_charge)

    def test_incumbent_policy_is_reported(self, all_loads):
        result = find_optimal_schedule_batched([SCALED, SCALED], all_loads["ILs 500"])
        assert result.incumbent_policy in {"sequential", "round-robin", "best-of-two"}
        assert result.nodes_expanded >= 0


class TestFrontierArrays:
    """The structure-of-arrays frontier pool behind both search backends."""

    def _pool(self, capacity=4):
        return FrontierArrays(
            {"state": ((2, 2), np.float64), "epoch": ((), np.int64)},
            capacity=capacity,
        )

    def test_allocate_zero_is_a_noop(self):
        pool = self._pool(capacity=4)
        assert pool.allocate(0).shape == (0,)
        # The free-list must be untouched: all four slots still available.
        assert sorted(pool.allocate(4).tolist()) == [0, 1, 2, 3]

    def test_allocate_release_recycles_slots(self):
        pool = self._pool(capacity=4)
        first = pool.allocate(3)
        assert sorted(first.tolist()) == [0, 1, 2]
        pool.release(first[:2])
        second = pool.allocate(2)
        # Recycled slots come back before any growth happens.
        assert set(second.tolist()) <= {0, 1, 2}
        assert pool.capacity == 4

    def test_grow_by_doubling_preserves_data(self):
        pool = self._pool(capacity=2)
        slots = pool.allocate(2)
        pool.state[slots] = np.arange(8, dtype=np.float64).reshape(2, 2, 2)
        pool.epoch[slots] = [7, 9]
        more = pool.allocate(5)  # forces two doublings
        assert pool.capacity == 8
        assert more.shape[0] == 5
        np.testing.assert_array_equal(
            pool.state[slots], np.arange(8, dtype=np.float64).reshape(2, 2, 2)
        )
        np.testing.assert_array_equal(pool.epoch[slots], [7, 9])
        # No slot handed out twice.
        assert len(set(slots.tolist()) | set(more.tolist())) == 7

    def test_decision_trace_reconstructs_assignments(self):
        trace = DecisionTrace(capacity=2)
        roots = trace.append(np.array([-1, -1]), np.array([0, 1]))
        kids = trace.append(np.asarray(roots), np.array([1, 0]))
        grand = trace.append(np.array([kids[0]]), np.array([1]))
        assert trace.assignment(-1) == ()
        assert trace.assignment(roots[0]) == (0,)
        assert trace.assignment(kids[1]) == (1, 0)
        assert trace.assignment(grand[0]) == (0, 1, 1)


class TestSeededSearch:
    """Cross-grid-point incumbent seeding: prunes work, never results."""

    def test_seeded_certified_search_matches_fresh_exactly(self, all_loads):
        smaller = B1.scaled(0.7)
        for load_name in ("ILs alt", "CL alt", "CL 250"):
            load = all_loads[load_name]
            prev = find_optimal_schedule_batched([smaller, smaller], load)
            fresh = find_optimal_schedule_batched([SCALED, SCALED], load)
            seeded = find_optimal_schedule_batched(
                [SCALED, SCALED], load, seed_assignment=prev.assignment
            )
            # Bitwise equality, not approx: seeding must not change the
            # reported schedule's lifetime at all.
            assert seeded.lifetime == fresh.lifetime
            assert seeded.complete == fresh.complete
            assert seeded.residual_charge == fresh.residual_charge
            assert len(seeded.assignment) == len(fresh.assignment)
            assert seeded.nodes_expanded <= fresh.nodes_expanded

    def test_unreplayable_seed_is_ignored(self, all_loads):
        load = all_loads["ILs alt"]
        fresh = find_optimal_schedule_batched([SCALED, SCALED], load)
        # A nonsense seed that immediately picks an out-of-range... rather:
        # a seed that always picks battery 0 eventually hits it empty; the
        # truncation loop must degrade gracefully to (at worst) no seed.
        seeded = find_optimal_schedule_batched(
            [SCALED, SCALED], load, seed_assignment=(0,) * 40
        )
        assert seeded.lifetime == fresh.lifetime
        assert seeded.complete == fresh.complete

    def test_capped_seeded_search_rerenders_the_fresh_result(self, all_loads):
        """A capped search's outcome depends on which nodes fit the budget,
        so `optimal_schedules_batch` re-runs seeded-and-capped searches
        without the seed: seeded sweeps stay bitwise-identical to fresh
        sweeps even where the node cap bites."""
        load = all_loads["ILs alt"]
        prev = find_optimal_schedule_batched([B1.scaled(0.7)] * 2, load)
        fresh = optimal_schedules_batch(
            [load], [SCALED, SCALED], max_nodes=2, dominance_tolerance=0.0
        )[0]
        seeded = optimal_schedules_batch(
            [load], [SCALED, SCALED], max_nodes=2, dominance_tolerance=0.0,
            seed_assignment=prev.assignment,
        )[0]
        assert seeded.lifetime == fresh.lifetime
        assert seeded.complete == fresh.complete
        assert seeded.assignment == fresh.assignment
        # The seeded attempt's work is still accounted for.
        assert seeded.nodes_expanded >= fresh.nodes_expanded


class TestVectorDominanceArchive:
    def _random_matrices(self, rng, n, n_batteries=2, n_components=3):
        matrices = rng.integers(-3, 4, size=(n, n_batteries, n_components)) * 0.5
        # Sprinkle the scalar archive's empty-battery sentinel rows.
        for index in range(0, n, 7):
            matrices[index, rng.integers(n_batteries)] = [0.0, -np.inf, -np.inf][
                :n_components
            ]
        return matrices

    @pytest.mark.parametrize("symmetric", [True, False])
    @pytest.mark.parametrize("tolerance", [0.0, 0.25])
    def test_decisions_match_the_scalar_archive(self, symmetric, tolerance):
        rng = np.random.default_rng(11)
        scalar = DominanceArchive(
            symmetric=symmetric, dominance_tolerance=tolerance, archive_limit=8
        )
        vector = VectorDominanceArchive(
            symmetric=symmetric,
            n_batteries=2,
            dominance_tolerance=tolerance,
            archive_limit=8,
        )
        matrices = self._random_matrices(rng, 300)
        keys = rng.integers(0, 4, size=300)
        for key, matrix in zip(keys, matrices):
            expected = scalar.admit(
                (int(key),), tuple(tuple(row) for row in matrix)
            )
            got = vector.admit((int(key),), matrix)
            assert got == expected

    @pytest.mark.parametrize(
        "groups", [(0, 0, 0), (0, 0, 1), (0, 1, 1), (0, 1, 0), (0, 1, 2)]
    )
    @pytest.mark.parametrize("tolerance", [0.0, 0.25])
    def test_group_decisions_match_the_scalar_archive(self, groups, tolerance):
        """Pinned decision-for-decision at every group structure a 3-battery
        fleet can have, not just all-identical vs all-distinct."""
        rng = np.random.default_rng(17)
        scalar = DominanceArchive(
            symmetric=False,
            dominance_tolerance=tolerance,
            archive_limit=8,
            groups=groups,
        )
        vector = VectorDominanceArchive(
            symmetric=False,
            n_batteries=3,
            dominance_tolerance=tolerance,
            archive_limit=8,
            groups=groups,
        )
        matrices = self._random_matrices(rng, 300, n_batteries=3)
        keys = rng.integers(0, 4, size=300)
        for key, matrix in zip(keys, matrices):
            expected = scalar.admit(
                (int(key),), tuple(tuple(row) for row in matrix)
            )
            got = vector.admit((int(key),), matrix)
            assert got == expected

    def test_archive_limit_is_respected(self):
        vector = VectorDominanceArchive(
            symmetric=False, n_batteries=1, archive_limit=2
        )
        # Mutually non-dominating vectors: only the first two are archived,
        # later ones are still admitted (the scalar semantics).
        for value in range(5):
            matrix = np.array([[float(value), float(-value)]])
            assert vector.admit("k", matrix)
        stored = vector._entries["k"][1]
        assert stored.shape[0] == 2

    @staticmethod
    def _batches(rng, matrices, n_keys=4, max_batch=12):
        """Split a matrix stream into random-size single-key batches.

        Some batches get an exact copy of one of their rows (a duplicate
        signature inside the batch) or a strictly better / worse copy (one
        child of the batch dominating another).
        """
        batches = []
        start = 0
        while start < len(matrices):
            size = int(rng.integers(1, max_batch + 1))
            batch = list(matrices[start : start + size])
            start += size
            twist = rng.integers(4)
            if twist:
                source = batch[int(rng.integers(len(batch)))]
                copy = source + (0.0, 1.0, -1.0)[twist - 1]
                batch.insert(int(rng.integers(len(batch) + 1)), copy)
            batches.append((int(rng.integers(n_keys)), np.array(batch)))
        return batches

    @pytest.mark.parametrize(
        "n_batteries, groups",
        [
            (1, None),
            (1, (0,)),
            (2, None),
            (2, (0, 0)),
            (2, (0, 1)),
            (3, (0, 0, 0)),
            (3, (0, 0, 1)),
            (3, (0, 1, 1)),
            (3, (0, 1, 0)),
            (3, (0, 1, 2)),
        ],
    )
    @pytest.mark.parametrize("tolerance", [0.0, 0.25])
    @pytest.mark.parametrize("archive_limit", [0, 1, 2, 8, 64])
    def test_batched_decisions_match_the_scalar_archive(
        self, n_batteries, groups, tolerance, archive_limit
    ):
        """``admit_many`` over random key batches takes the scalar archive's
        row-by-row decisions, at every group shape and archive depth."""
        for symmetric in ([True, False] if groups is None else [False]):
            rng = np.random.default_rng(23 + archive_limit)
            scalar = DominanceArchive(
                symmetric=symmetric,
                dominance_tolerance=tolerance,
                archive_limit=archive_limit,
                groups=groups,
            )
            vector = VectorDominanceArchive(
                symmetric=symmetric,
                n_batteries=n_batteries,
                dominance_tolerance=tolerance,
                archive_limit=archive_limit,
                groups=groups,
            )
            matrices = self._random_matrices(rng, 300, n_batteries=n_batteries)
            for key, batch in self._batches(rng, matrices):
                expected = [
                    scalar.admit((key,), tuple(tuple(row) for row in matrix))
                    for matrix in batch
                ]
                got = vector.admit_many((key,), batch)
                assert got.dtype == bool
                assert got.tolist() == expected

    def test_batch_rows_dedupe_and_dominate_each_other(self):
        vector = VectorDominanceArchive(
            symmetric=False, n_batteries=1, archive_limit=8
        )
        low = np.array([[1.0, 2.0, -3.0]])
        high = low + 1.0
        # A duplicate of an earlier batch row is rejected by its signature,
        # a row dominated by an earlier batch row by the dominance check.
        assert vector.admit_many("k", np.stack([low, low, high, low])).tolist() == [
            True, False, True, False
        ]
        # ``high`` evicted ``low`` from the archive inside the same batch.
        np.testing.assert_array_equal(vector._entries["k"][1], high[None])
        assert vector.admit_many("j", np.stack([high, low])).tolist() == [True, False]
        assert vector.admit_many("k", np.empty((0, 1, 3))).tolist() == []

    @pytest.mark.parametrize(
        "symmetric, groups, first, second",
        [
            # Components that quantize to -0 and +0.
            (False, None, [[1.0, 0.1, -0.1]], [[1.0, -0.1, 0.1]]),
            # Rows of identical batteries swapped, in group and legacy mode.
            (False, (0, 1, 0), [[1, 2, 3], [4, 5, 6], [1, 0, 9]],
             [[1, 0, 9], [4, 5, 6], [1, 2, 3]]),
            (True, None, [[1, 2, 3], [1, 0, 9]], [[1, 0, 9], [1, 2, 3]]),
        ],
    )
    def test_equivalent_matrices_share_a_signature(
        self, symmetric, groups, first, second
    ):
        """No archive rows (``archive_limit=0``), so only the signature can
        prune the second matrix -- exactly as in the scalar archive."""
        first, second = np.array(first, dtype=float), np.array(second, dtype=float)
        scalar = DominanceArchive(
            symmetric=symmetric,
            dominance_tolerance=0.25,
            archive_limit=0,
            groups=groups,
        )
        vector = VectorDominanceArchive(
            symmetric=symmetric,
            n_batteries=first.shape[0],
            dominance_tolerance=0.25,
            archive_limit=0,
            groups=groups,
        )
        expected = [
            scalar.admit("key", tuple(map(tuple, matrix)))
            for matrix in (first, second)
        ]
        assert expected == [True, False]
        assert vector.admit_many("key", np.stack([first, second])).tolist() == expected

    def test_rows_evicted_inside_a_batch_stop_pruning(self):
        """With a tolerance dominance is not transitive: ``k`` evicts the
        archived ``a`` and ``a`` would have pruned ``j``, yet ``k`` does not
        prune ``j``, so ``j`` is admitted -- as by the scalar archive.  ``b``
        stays archived and dominates nothing."""
        a, b, k, j = np.array(
            [[[0.0, 0.0]], [[-5.0, 5.0]], [[-0.25, 1.0]], [[0.25, 0.0]]]
        )
        scalar = DominanceArchive(symmetric=False, dominance_tolerance=0.25)
        vector = VectorDominanceArchive(
            symmetric=False, n_batteries=1, dominance_tolerance=0.25
        )
        expected = [
            scalar.admit("key", tuple(map(tuple, matrix))) for matrix in (a, b, k, j)
        ]
        assert expected == [True, True, True, True]
        assert vector.admit_many("key", np.stack([a, b])).tolist() == [True, True]
        assert vector.admit_many("key", np.stack([k, j])).tolist() == [True, True]


class TestDiscreteSegmentKernel:
    """``discrete_segment_array`` against the per-tick ``DiscreteKibam.tick``.

    Every output of every lane -- counters, accumulator, rate and empty
    tick -- must equal the scalar oracle exactly, on every state the scalar
    model can reach (``n + m <= N``, no recovery counter at or below one
    height unit).  The kernel's closed forms have their own edge cases,
    each pinned here: padded multi-row tables, several draws per tick,
    lanes that start critical or fresh, zero-tick lanes, idle segments
    crossing many recovery steps, serving segments longer than the
    look-ahead window, and the recovery-counter clamp.
    """

    DISCRETIZATIONS = ((0.01, 0.01), (0.05, 0.05), (0.1, 0.1))
    BATTERIES = (B1, B2, B1.scaled(0.5))

    @staticmethod
    def _oracle(model, state, spec, ticks):
        empty_tick = None
        for tick in range(1, ticks + 1):
            state = model.tick(state, spec)
            if state.empty:
                empty_tick = tick
                break
        return state, empty_tick

    def _setup(self, time_step, charge_unit, batteries=None):
        """Padded kernel tables (one row per battery) and the scalar models."""
        batteries = self.BATTERIES if batteries is None else batteries
        dp = KernelParams.from_parameters(batteries).discretize(time_step, charge_unit)
        models = [DiscreteKibam(p, time_step, charge_unit) for p in batteries]
        return dp, models

    def _check(self, dp, models, lanes):
        """Run ``(battery, state, spec or None, ticks)`` lanes through the
        kernel, assert the oracle's result lane by lane, return the outputs."""
        battery = np.array([lane[0] for lane in lanes], dtype=np.int64)

        def column(values):
            return np.array(list(values), dtype=np.int64)

        states = [lane[1] for lane in lanes]
        specs = [lane[2] for lane in lanes]
        out = discrete_segment_array(
            dp.tables,
            dp.recovery_prefix,
            dp.table_id[battery],
            dp.c_permille[battery],
            column(s.n for s in states),
            column(s.m for s in states),
            column(s.recov_ticks for s in states),
            column(s.disch_ticks for s in states),
            column(s.disch_rate[0] for s in states),
            column(s.disch_rate[1] for s in states),
            column(spec.cur if spec else 0 for spec in specs),
            column(spec.cur_times if spec else 1 for spec in specs),
            column(lane[3] for lane in lanes),
        )
        for index, (b, state, spec, ticks) in enumerate(lanes):
            ref, ref_empty = self._oracle(models[b], state, spec, ticks)
            expected = (
                ref.n,
                ref.m,
                ref.recov_ticks,
                ref.disch_ticks,
                *ref.disch_rate,
                -1 if ref_empty is None else ref_empty,
            )
            got = tuple(int(array[index]) for array in out)
            assert got == expected, (index, b, state, spec, ticks)
        return out

    @staticmethod
    def _random_state(rng, model, spec_choices):
        """A state the scalar model can reach: ``n + m <= N`` and no
        recovery counter at or below one height unit."""
        total = model.total_units
        n = int(rng.integers(1, total + 1))
        m = int(rng.integers(0, total - n + 1))
        rate = spec_choices[int(rng.integers(len(spec_choices)))]
        if rate is None:
            return DiscreteBatteryState(n=n, m=m, recov_ticks=int(rng.integers(60)) * (m > 1))
        return DiscreteBatteryState(
            n=n,
            m=m,
            disch_ticks=int(rng.integers(rate.cur_times)),
            disch_rate=(rate.cur, rate.cur_times),
            recov_ticks=int(rng.integers(60)) * (m > 1),
        )

    @pytest.mark.parametrize("time_step,charge_unit", DISCRETIZATIONS)
    def test_padded_multi_row_tables_with_several_draws_per_tick(
        self, time_step, charge_unit
    ):
        dp, models = self._setup(time_step, charge_unit)
        # The smaller battery's row is padded past its own heights.
        assert len(models[2].recovery_steps) < dp.tables.shape[1]
        specs = [
            None,
            DischargeSpec(1, 4),
            DischargeSpec(1, 2),
            DischargeSpec(3, 2),  # several draws in one tick
            DischargeSpec(5, 3),
            DischargeSpec(2, 7),
        ]
        rng = np.random.default_rng(int(time_step * 1000))
        lanes = []
        for _ in range(60):
            b = int(rng.integers(len(models)))
            state = self._random_state(rng, models[b], specs)
            spec = specs[int(rng.integers(len(specs)))]
            lanes.append((b, state, spec, int(rng.integers(0, 400))))
        self._check(dp, models, lanes)

    def test_lanes_starting_critical_and_fresh(self):
        dp, models = self._setup(0.05, 0.05)
        model = models[0]
        cp = model.c_permille
        lanes = []
        for n in (1, 2, 5, 20):
            # The smallest height at which the battery already reads empty,
            # and one unit above it.
            m = -(-cp * n // (1000 - cp))
            for extra in (0, 1):
                state = DiscreteBatteryState(
                    n=n, m=m + extra, recov_ticks=3 * (m + extra > 1)
                )
                assert model.is_empty(state)
                for spec in (None, DischargeSpec(1, 4), DischargeSpec(3, 2)):
                    lanes.append((0, state, spec, 200))
        fresh = [DiscreteBatteryState(n=model.total_units, m=h) for h in (0, 1)]
        for state in fresh:
            for spec in (None, DischargeSpec(1, 2), DischargeSpec(5, 3)):
                lanes.append((0, state, spec, 150))
        out = self._check(dp, models, lanes)
        # Some critical lanes recover before their first draw, some do not.
        assert (out[6] > 0).any() and (out[6] == -1).any()

    def test_zero_tick_lanes_are_untouched(self):
        dp, models = self._setup(0.05, 0.05)
        state = DiscreteBatteryState(
            n=50, m=30, disch_ticks=1, disch_rate=(1, 4), recov_ticks=7
        )
        lanes = [(b, state, spec, 0) for b in (0, 2) for spec in (None, DischargeSpec(1, 2))]
        # A zero-tick lane in a batch with running lanes keeps its state,
        # its accumulator and its rate exactly.
        lanes.append((0, state, DischargeSpec(1, 2), 50))
        out = self._check(dp, models, lanes)
        assert out[3][:4].tolist() == [1] * 4 and out[4][:4].tolist() == [1] * 4

    @pytest.mark.parametrize("time_step,charge_unit", DISCRETIZATIONS)
    def test_long_idle_segments_cross_many_recovery_steps(
        self, time_step, charge_unit
    ):
        dp, models = self._setup(time_step, charge_unit)
        lanes = []
        for b, model in enumerate(models):
            total = model.total_units
            for m, recov in ((total // 2, 0), (total // 3, 5), (total // 4, 10**6), (2, 1)):
                state = DiscreteBatteryState(n=total - m, m=m, recov_ticks=recov)
                for ticks in (1000, 2500, 6000):
                    lanes.append((b, state, None, ticks))
        out = self._check(dp, models, lanes)
        start = np.array([lane[1].m for lane in lanes])
        assert (start - out[1]).max() >= 20

    def test_serving_segments_longer_than_the_window(self):
        from repro.engine.kernels import _SERVE_WINDOW

        dp, models = self._setup(0.01, 0.01)
        lanes = []
        for b in range(len(models)):
            for m in (0, 1, 2, 30, 120):
                state = DiscreteBatteryState(n=models[b].total_units - m, m=m)
                # Slow rates draw nothing for several windows in a row.
                for spec in (DischargeSpec(1, 4), DischargeSpec(1, 97), DischargeSpec(2, 250)):
                    lanes.append((b, state, spec, 7 * _SERVE_WINDOW + 5))
        self._check(dp, models, lanes)

    def test_matches_run_segment_over_random_histories(self):
        params = BatteryParameters(capacity=1.0, c=0.166, k_prime=0.122)
        dp, models = self._setup(0.05, 0.05, batteries=(params,))
        model = models[0]
        rng = np.random.default_rng(5)
        specs = {0.0: None, 0.25: model.discharge_spec(0.25), 0.5: model.discharge_spec(0.5)}
        states = [model.initial_state() for _ in range(16)]
        done = [False] * len(states)
        for _ in range(12):
            live = [i for i in range(len(states)) if not done[i]]
            if not live:
                break
            currents = rng.choice(list(specs), size=len(live))
            lanes = [
                (0, states[i], specs[current], int(rng.integers(1, 40)))
                for i, current in zip(live, currents)
            ]
            n, m, rec, acc, rcur, rct, empty_tick = self._check(dp, models, lanes)
            for row, i in enumerate(live):
                done[i] = empty_tick[row] >= 0
                states[i] = DiscreteBatteryState(
                    n=int(n[row]),
                    m=int(m[row]),
                    disch_ticks=int(acc[row]),
                    disch_rate=(int(rcur[row]), int(rct[row])),
                    recov_ticks=int(rec[row]),
                )
        assert any(done)

    def test_draw_can_outpace_the_recovery_counter(self):
        # The clamp regression from the batch engine: a draw raises m into a
        # shorter recovery step than the accumulated counter; the next
        # recovery event must fire one tick later, not steps[m]-rec later.
        params = BatteryParameters(capacity=0.5, c=0.5, k_prime=1.8)
        dp, models = self._setup(0.05, 0.05, batteries=(params,))
        spec = models[0].discharge_spec(0.5)
        self._check(dp, models, [(0, models[0].initial_state(), spec, 120)])
        # The same clamp on an idle lane whose counter already exceeds its
        # step: the first recovery fires on the first tick.
        state = DiscreteBatteryState(n=5, m=4, recov_ticks=10**4)
        self._check(dp, models, [(0, state, None, 1), (0, state, None, 30)])

    def test_recovery_prefix_sums_each_row(self):
        dp, _ = self._setup(0.05, 0.05)
        prefix = dp.recovery_prefix
        assert np.all(np.diff(prefix.ravel()) >= 0)
        for row, table in enumerate(dp.tables):
            real = table < DISCRETE_UNREACHABLE
            real[:2] = False
            heights = np.flatnonzero(real)
            sums = np.cumsum(table[heights])
            assert (prefix[row, heights] - prefix[row, 1]).tolist() == sums.tolist()
            assert prefix[row, 0] == prefix[row, 1]


class TestPoolingBoundParity:
    def test_batched_root_bound_matches_the_scalar_bound(self, all_loads):
        load = all_loads["ILs 250"]
        models = make_battery_models([SCALED, SCALED])
        scalar = OptimalScheduler(models, load)
        states = tuple(model.initial_state() for model in models)
        scalar_bound = scalar._remaining_lifetime_bound(states, 0, 0.0)

        batched = BatchOptimalScheduler([SCALED, SCALED], load)
        ops = batched._ops
        root = ops.root_batch()
        gamma = np.array([root["state"][0, :, 0].sum()])
        delta = np.array([root["state"][0, :, 1].sum()])
        bound = ops.bounds.pooled_bounds(
            gamma, delta, np.array([0]), np.array([0.0])
        )[0]
        assert bound == pytest.approx(scalar_bound, abs=1e-9)


class TestBoundCacheCaps:
    """The bound memo dicts are size-capped (clear-on-overflow): long sweep
    chains must not grow them without limit, and a tiny cap may cost repeat
    work but never changes any result."""

    CAP = 8

    def test_batched_caches_honor_the_cap_with_unchanged_results(
        self, all_loads, monkeypatch
    ):
        import repro.engine.optimal_batch as ob
        import repro.kibam.bounds as kb

        load = all_loads["ILs alt"]
        baseline = find_optimal_schedule_batched([SCALED, SCALED], load)
        monkeypatch.setattr(ob, "_BOUND_CACHE_LIMIT", self.CAP)
        monkeypatch.setattr(kb, "_TAIL_CACHE_LIMIT", self.CAP)
        scheduler = BatchOptimalScheduler([SCALED, SCALED], load)
        capped = scheduler.search()
        assert capped.lifetime == pytest.approx(baseline.lifetime, abs=1e-9)
        assert capped.assignment == baseline.assignment
        assert capped.nodes_expanded == baseline.nodes_expanded
        evaluator = scheduler._ops.bounds
        assert 0 < len(evaluator._cache) <= self.CAP
        assert len(evaluator._job_tables) <= self.CAP
        for table in evaluator._job_tables.values():
            assert len(table.tail_cache) <= self.CAP
        # The tail memo was exercised, so the cap check above is not vacuous.
        assert any(table.tail_cache for table in evaluator._job_tables.values())

    def test_scalar_caches_honor_the_cap_with_unchanged_results(
        self, all_loads, monkeypatch
    ):
        import repro.core.optimal as co

        load = all_loads["ILs alt"]
        baseline = find_optimal_schedule([SCALED, SCALED], load)
        monkeypatch.setattr(co, "_BOUND_CACHE_LIMIT", self.CAP)
        scheduler = OptimalScheduler(make_battery_models([SCALED, SCALED]), load)
        capped = scheduler.search()
        assert capped.lifetime == pytest.approx(baseline.lifetime, abs=1e-9)
        assert capped.assignment == baseline.assignment
        assert capped.nodes_expanded == baseline.nodes_expanded
        assert 0 < len(scheduler._bound_cache) <= self.CAP
        assert len(scheduler._rl_cache) <= self.CAP
        assert len(scheduler._job_table_cache) <= self.CAP
