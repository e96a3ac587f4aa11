"""Optimal battery scheduling by branch-and-bound search.

The paper obtains optimal schedules by encoding the dKiBaM as a priced
timed automata network and asking the Uppaal Cora model checker for a
minimum-cost path (Section 4).  This module provides the same capability as
a direct search over the scheduling decisions:

* decisions are taken at the start of every job and whenever the serving
  battery is observed empty mid-job -- exactly the points where the paper's
  scheduler automaton synchronises on ``new_job``;
* between decisions the battery dynamics are deterministic, so the search
  only branches over the (at most ``B``) usable batteries per decision;
* the search is exhaustive up to three sound prunings: an admissible upper
  bound on the remaining lifetime (the batteries cannot deliver more than
  the total charge they still hold), dominance pruning between states at the
  same decision point, and group-wise symmetry reduction between identical
  batteries (heterogeneous fleets prune within each identical-parameter
  group).

The search runs on any :class:`repro.core.battery.BatteryModel` backend.
The analytical backend reproduces Table 5 in seconds; the discrete backend
matches the paper's dKiBaM exactly and is cross-checked against the
TA-KiBaM route in the test suite.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
from typing import Any, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.battery import BatteryModel, make_battery_models
from repro.core.policies import FixedAssignmentPolicy, make_policy
from repro.core.schedule import Schedule, SimulationResult
from repro.core.simulator import MultiBatterySimulator
from repro.kibam.analytical import KibamState, step_constant_current
from repro.kibam.bounds import (
    DrawBudgetBound,
    build_pooled_job_table,
    recovery_limited_refinements,
)
from repro.kibam.discrete import discharge_spec_for, duration_ticks
from repro.kibam.lifetime import time_to_empty
from repro.kibam.parameters import BatteryParameters
from repro.workloads.load import Load

_TIME_EPSILON = 1e-9
#: Slack used when comparing dominance vectors built from floats.
_DOMINANCE_EPSILON = 1e-9
#: Size cap for the bound memoization dicts.  Long sweep chains reuse one
#: scheduler per scenario but run many scenarios back to back; clearing a
#: full cache costs one recomputation burst while an unbounded cache grows
#: with the number of distinct pooled states ever seen.
_BOUND_CACHE_LIMIT = 65536
#: Cap on the number of within-group battery permutations enumerated per
#: dominance check.  Beyond this the quadratic pairing cost outweighs the
#: extra pruning and the archive falls back to the identity pairing (the
#: sorted-per-group signatures still catch exact permuted duplicates).
_MAX_SYMMETRY_PERMUTATIONS = 24


def parameter_symmetry_groups(keys: Iterable[Any]) -> Tuple[int, ...]:
    """Per-battery symmetry-group ids for a sequence of hashable keys.

    Batteries with equal keys (parameter sets, for the optimal searches)
    land in the same group; group ids are assigned in first-appearance
    order, so two schedulers built from the same parameter sequence agree
    on the grouping exactly -- the property the scalar/batched
    decision-for-decision pinning relies on.
    """
    ids: dict = {}
    return tuple(ids.setdefault(key, len(ids)) for key in keys)


def model_symmetry_groups(models: Sequence[BatteryModel]) -> Tuple[int, ...]:
    """Symmetry groups for battery *models*: identical type + parameters.

    Models without a ``params`` attribute are never considered
    interchangeable; discrete models additionally key on their
    discretization so differently gridded dKiBaM instances stay distinct.
    """
    keys: List[Any] = []
    for index, model in enumerate(models):
        params = getattr(model, "params", None)
        if params is None:
            keys.append(("opaque", index))
            continue
        kibam = getattr(model, "kibam", None)
        if kibam is not None:
            keys.append(
                (type(model).__name__, params, kibam.time_step, kibam.charge_unit)
            )
        else:
            keys.append((type(model).__name__, params))
    return parameter_symmetry_groups(keys)


def group_permutations(
    groups: Sequence[int], limit: int = _MAX_SYMMETRY_PERMUTATIONS
) -> List[Tuple[int, ...]]:
    """All battery-index permutations that only shuffle within a group.

    The product of the per-group factorials is the number of sound
    pairings for the dominance check; when it exceeds ``limit`` only the
    identity is returned (checking them all would cost more than the
    pruning saves).  The identity permutation is always first.
    """
    n = len(groups)
    members: dict = {}
    for index, group in enumerate(groups):
        members.setdefault(group, []).append(index)
    total = 1
    for indices in members.values():
        total *= math.factorial(len(indices))
        if total > limit:
            return [tuple(range(n))]
    perms: List[List[int]] = [list(range(n))]
    for indices in members.values():
        if len(indices) < 2:
            continue
        extended: List[List[int]] = []
        for perm in perms:
            for ordering in itertools.permutations(indices):
                candidate = perm[:]
                for slot, source in zip(indices, ordering):
                    candidate[slot] = source
                extended.append(candidate)
        perms = extended
    return [tuple(perm) for perm in perms]


@dataclasses.dataclass(frozen=True)
class OptimalScheduleResult:
    """Result of the optimal-schedule search.

    Attributes:
        lifetime: the maximum achievable system lifetime in minutes.
        schedule: a schedule achieving that lifetime.
        assignment: the battery chosen at each scheduling decision, in order.
        nodes_expanded: number of decision nodes expanded by the search.
        complete: ``False`` when the search hit ``max_nodes`` and the result
            is only a lower bound on the optimum.
        backend: battery model backend used ("analytical" or "discrete").
        incumbent_policy: name of the heuristic policy that provided the
            initial incumbent solution.
        final_states: per-battery model states at the end of the winning
            schedule (from replaying the best assignment).
        residual_charge: total charge (Amin) left across the batteries at
            the end of the winning schedule.
    """

    lifetime: float
    schedule: Schedule
    assignment: Tuple[int, ...]
    nodes_expanded: int
    complete: bool
    backend: str
    incumbent_policy: str
    final_states: Tuple[Any, ...] = ()
    residual_charge: float = float("nan")

    def as_simulation_result(self) -> SimulationResult:
        """The optimal schedule re-expressed as a simulation result."""
        return SimulationResult(
            lifetime=self.lifetime,
            schedule=self.schedule,
            final_states=self.final_states,
            residual_charge=self.residual_charge,
            decisions=len(self.assignment),
        )


class DominanceArchive:
    """Per-decision-point dominance pruning shared by both optimal searches.

    .. note:: Keep this implementation simple and scalar -- it is the
       *golden reference* for the pruning semantics.  It accounts for ~86%
       of the scalar search's runtime, which is exactly why the batched
       search's :class:`repro.engine.optimal_batch.VectorDominanceArchive`
       exists as its array-backed hot-path counterpart -- it decides a whole
       decision point's batch of candidates per call and is pinned
       decision-for-decision against this class, row by row and batch by
       batch, in ``tests/test_optimal_batch.py`` -- and why the
       ``BENCH_optimal.json`` node-throughput ratio depends on this class
       staying the transparent baseline rather than being optimized itself.

    Two mechanisms prune revisits of a decision point:

    * an O(1) duplicate check on the quantized (and, for identical
      batteries, permutation-canonical) state signature -- this catches
      the bulk of the revisits on regular loads, where different
      assignment orders produce (nearly) identical battery states;
    * a small Pareto archive of previously admitted states, checked for
      componentwise dominance.

    A *state matrix* is one dominance vector per battery (see
    :meth:`repro.core.battery.BatteryModel.dominance_vector`); larger
    components mean a strictly better battery state, so a componentwise
    larger matrix can achieve (or better) every schedule of a smaller one.
    """

    def __init__(
        self,
        symmetric: bool,
        dominance_tolerance: float = 0.0,
        archive_limit: int = 64,
        groups: Optional[Sequence[int]] = None,
    ) -> None:
        self.symmetric = symmetric
        self.dominance_tolerance = dominance_tolerance
        self.archive_limit = archive_limit
        #: Optional per-battery symmetry-group ids (see
        #: :func:`parameter_symmetry_groups`).  When given, signatures are
        #: canonicalized per group and dominance checks enumerate the
        #: within-group permutation products, superseding the all-or-nothing
        #: ``symmetric`` flag (kept for the legacy two-state construction).
        self.groups: Optional[Tuple[int, ...]] = (
            tuple(groups) if groups is not None else None
        )
        self._group_members: Tuple[Tuple[int, ...], ...] = ()
        self._perms: List[Tuple[int, ...]] = []
        if self.groups is not None:
            members: dict = {}
            for index, group in enumerate(self.groups):
                members.setdefault(group, []).append(index)
            self._group_members = tuple(
                tuple(indices) for indices in members.values() if len(indices) > 1
            )
            self._perms = group_permutations(self.groups)
        self._archives: dict = {}

    def _vector_dominates(self, a: Tuple[float, ...], b: Tuple[float, ...]) -> bool:
        slack = _DOMINANCE_EPSILON + self.dominance_tolerance
        return all(x >= y - slack for x, y in zip(a, b))

    def _matrix_dominates(
        self,
        a: Tuple[Tuple[float, ...], ...],
        b: Tuple[Tuple[float, ...], ...],
    ) -> bool:
        """Whether battery-state matrix ``a`` dominates ``b``.

        Batteries in the same symmetry group are interchangeable, so any
        pairing of ``a``'s batteries against ``b``'s that respects the
        grouping is allowed; when the within-group permutation count stays
        under :data:`_MAX_SYMMETRY_PERMUTATIONS` they are all checked,
        otherwise only the identity pairing.
        """
        n = len(a)
        if self.groups is not None:
            for permutation in self._perms:
                if all(
                    self._vector_dominates(a[permutation[i]], b[i]) for i in range(n)
                ):
                    return True
            return False
        if self.symmetric and n <= 3:
            for permutation in itertools.permutations(range(n)):
                if all(self._vector_dominates(a[permutation[i]], b[i]) for i in range(n)):
                    return True
            return False
        return all(self._vector_dominates(a[i], b[i]) for i in range(n))

    def _canonical_signature(
        self, matrix: Tuple[Tuple[float, ...], ...]
    ) -> Tuple[Tuple[float, ...], ...]:
        """Quantized, permutation-canonical form of a dominance matrix.

        Rows are sorted *within* each symmetry group (all rows, in the
        legacy fully-symmetric mode), so assignment orders that only
        permute identical batteries collapse to one signature.
        """
        scale = max(self.dominance_tolerance, 1e-9)
        quantized = tuple(
            tuple(round(value / scale) if value not in (float("inf"), float("-inf")) else value for value in vector)
            for vector in matrix
        )
        if self.groups is not None:
            canonical = list(quantized)
            for members in self._group_members:
                for slot, row in zip(
                    members, sorted(quantized[index] for index in members)
                ):
                    canonical[slot] = row
            return tuple(canonical)
        if self.symmetric:
            return tuple(sorted(quantized))
        return quantized

    def admit(self, key, matrix: Tuple[Tuple[float, ...], ...]) -> bool:
        """Record a state matrix at a decision point; False when dominated."""
        seen, archive = self._archives.setdefault(key, (set(), []))
        signature = self._canonical_signature(matrix)
        if signature in seen:
            return False
        for existing in archive:
            if self._matrix_dominates(existing, matrix):
                return False
        # Drop archived entries that the new state dominates, to keep the
        # archive small and the checks cheap.
        archive[:] = [
            existing for existing in archive if not self._matrix_dominates(matrix, existing)
        ]
        if len(archive) < self.archive_limit:
            archive.append(matrix)
        seen.add(signature)
        return True


def discrete_pooling_margin(time_step: float, charge_unit: float) -> Optional[float]:
    """Margin on the pooling bound for a dKiBaM search, or ``None``.

    On the paper's grid (``T = Gamma = 0.01``) and finer, the dKiBaM stays
    within about 1 % of the analytical model (Tables 3 and 4), and both
    searches prune with the analytical perfect-pooling bound inflated by
    2 %.  That margin is measured, not proven.  On coarser grids the dKiBaM
    outlives the pooling bound by far more than any fixed margin (at ``T =
    Gamma = 0.1`` the exact optimum needed relative margins up to 7.9), so
    ``None`` sends both searches to the proven :class:`repro.kibam.bounds.
    DrawBudgetBound` instead (see :func:`discrete_draw_budget`).
    """
    if time_step <= 0.01 and charge_unit <= 0.01:
        return 0.02
    return None


def discrete_bound_slack(model: BatteryModel) -> float:
    """The pooling-bound margin for one battery model (0 unless dKiBaM)."""
    if model.backend != "discrete":
        return 0.0
    margin = discrete_pooling_margin(model.kibam.time_step, model.kibam.charge_unit)
    return 0.0 if margin is None else margin


def discrete_draw_budget(
    models: Sequence[BatteryModel], load: Load
) -> Optional[DrawBudgetBound]:
    """The draw-budget bound of a dKiBaM search on a coarse grid, else ``None``.

    Applies when every model is a :class:`repro.core.battery.DiscreteBattery`
    on one ``(time_step, charge_unit)`` grid that
    :func:`discrete_pooling_margin` gives no pooling margin for: the bound
    counts charge units and ticks, so the batteries must share both.
    """
    grids = {
        (model.kibam.time_step, model.kibam.charge_unit)
        if model.backend == "discrete"
        else None
        for model in models
    }
    if len(grids) != 1 or None in grids:
        return None
    ((time_step, charge_unit),) = grids
    if discrete_pooling_margin(time_step, charge_unit) is not None:
        return None
    specs = [
        discharge_spec_for(epoch.current, time_step, charge_unit)
        for epoch in load.epochs
    ]
    return DrawBudgetBound(
        [spec.cur for spec in specs],
        [spec.cur_times for spec in specs],
        [duration_ticks(epoch.duration, time_step) for epoch in load.epochs],
    )


class _SearchNode:
    """Mutable bookkeeping for one decision point during the search."""

    __slots__ = ("states", "epoch_index", "offset", "time", "assignment")

    def __init__(
        self,
        states: Tuple[Any, ...],
        epoch_index: int,
        offset: float,
        time: float,
        assignment: Tuple[int, ...],
    ) -> None:
        self.states = states
        self.epoch_index = epoch_index
        self.offset = offset
        self.time = time
        self.assignment = assignment


class OptimalScheduler:
    """Branch-and-bound search for the lifetime-maximizing schedule.

    Args:
        models: one battery model per battery.
        load: the load to schedule.
        max_nodes: optional cap on the number of expanded decision nodes;
            when reached the best schedule found so far is returned with
            ``complete=False``.
        use_dominance: enable dominance pruning (on by default; turning it
            off is only useful for the ablation benchmarks).
        use_symmetry: enable symmetry reduction between identical batteries
            (on by default; turning it off -- every battery its own
            group -- is only useful for ablation measurements such as the
            fleet benchmark's group-symmetry nodes ratio).
        archive_limit: maximum number of states kept per decision point for
            dominance checks.
    """

    def __init__(
        self,
        models: Sequence[BatteryModel],
        load: Load,
        max_nodes: Optional[int] = None,
        use_dominance: bool = True,
        archive_limit: int = 64,
        dominance_tolerance: float = 0.0,
        use_symmetry: bool = True,
    ) -> None:
        if not models:
            raise ValueError("at least one battery model is required")
        if dominance_tolerance < 0.0:
            raise ValueError("dominance_tolerance must be non-negative")
        self.models = tuple(models)
        self.load = load
        self.max_nodes = max_nodes
        self.use_dominance = use_dominance
        self.archive_limit = archive_limit
        #: Tolerance (in the units of the dominance vectors, i.e. Amin for
        #: the KiBaM backends) under which two battery states are considered
        #: interchangeable.  Zero gives a certified-optimal search; a small
        #: positive value (e.g. one charge unit) collapses near-identical
        #: states and makes long loads tractable at a negligible, documented
        #: loss of optimality certification.
        self.dominance_tolerance = dominance_tolerance
        self._epochs = load.epochs
        self._epoch_starts = load.epoch_start_times()
        self._epoch_currents = [epoch.current for epoch in self._epochs]
        self._epoch_durations = [epoch.duration for epoch in self._epochs]
        self.use_symmetry = use_symmetry
        #: Per-battery symmetry-group ids: batteries in the same group are
        #: interchangeable (identical model type + parameters).  With
        #: ``use_symmetry=False`` every battery is its own group, which
        #: turns every symmetry mechanism into a no-op.
        self._groups = (
            model_symmetry_groups(self.models)
            if use_symmetry
            else tuple(range(len(self.models)))
        )
        self._pooled_params = self._pooling_parameters()
        self._bound_slack = discrete_bound_slack(self.models[0])
        self._draw_budget = discrete_draw_budget(self.models, load)
        # Search state.
        self._best_lifetime = float("-inf")
        self._best_assignment: Tuple[int, ...] = ()
        self._nodes_expanded = 0
        self._complete = True
        self._archive = DominanceArchive(
            symmetric=len(set(self._groups)) == 1,
            dominance_tolerance=dominance_tolerance,
            archive_limit=archive_limit,
            groups=self._groups,
        )
        self._bound_cache: dict = {}
        self._job_table_cache: dict = {}
        self._rl_cache: dict = {}

    # ------------------------------------------------------------------ #
    # public entry point
    # ------------------------------------------------------------------ #
    def search(
        self,
        incumbent_policies: Sequence[str] = ("sequential", "round-robin", "best-of-two"),
    ) -> OptimalScheduleResult:
        """Run the search and return the optimal schedule."""
        incumbent_name = "none"
        incumbent_assignment: Tuple[int, ...] = ()
        simulator = MultiBatterySimulator(self.models)
        for policy_name in incumbent_policies:
            result = simulator.run(self.load, make_policy(policy_name))
            lifetime = result.lifetime if result.lifetime is not None else self.load.total_duration
            if lifetime > self._best_lifetime:
                self._best_lifetime = lifetime
                incumbent_name = policy_name
                incumbent_assignment = self._assignment_from_schedule(result.schedule)
        self._best_assignment = incumbent_assignment

        initial_states = tuple(model.initial_state() for model in self.models)
        root = _SearchNode(
            states=initial_states, epoch_index=0, offset=0.0, time=0.0, assignment=()
        )
        self._explore(root)

        replay = self._replay(self._best_assignment)
        lifetime = (
            replay.lifetime if replay.lifetime is not None else self.load.total_duration
        )
        # Replaying can only agree with (or, for incumbent fallbacks, refine)
        # the recorded value; keep the replayed number as the authoritative one.
        return OptimalScheduleResult(
            lifetime=lifetime,
            schedule=replay.schedule,
            assignment=self._best_assignment,
            nodes_expanded=self._nodes_expanded,
            complete=self._complete,
            backend=self.models[0].backend,
            incumbent_policy=incumbent_name,
            final_states=replay.final_states,
            residual_charge=replay.residual_charge,
        )

    # ------------------------------------------------------------------ #
    # search internals
    # ------------------------------------------------------------------ #
    def _pooling_parameters(self) -> Optional[BatteryParameters]:
        """Parameters of the pooled bound battery, if every model is KiBaM-shaped.

        Summing the transformed states ``(gamma_i, delta_i)`` of KiBaM
        batteries that share ``c`` and ``k'`` yields a quantity that evolves
        exactly like one KiBaM battery with those parameters, regardless of
        how the load is split across the batteries.  Any real schedule dies
        no later than that pooled battery, which gives a tight admissible
        bound for the search.
        """
        params_list = [model.kibam_parameters() for model in self.models]
        if any(p is None for p in params_list):
            return None
        first = params_list[0]
        assert first is not None
        if not all(p.c == first.c and p.k_prime == first.k_prime for p in params_list if p):
            return None
        total_capacity = sum(p.capacity for p in params_list if p is not None)
        return BatteryParameters(
            capacity=total_capacity, c=first.c, k_prime=first.k_prime, name="pooled-bound"
        )

    def _assignment_from_schedule(self, schedule: Schedule) -> Tuple[int, ...]:
        """Extract the per-decision battery choices from a simulated schedule."""
        return tuple(
            entry.battery
            for entry in schedule.entries
            if entry.battery is not None
        )

    def _explore(self, node: _SearchNode) -> None:
        """Depth-first exploration from one decision point."""
        states = node.states
        epoch_index = node.epoch_index
        offset = node.offset
        time = node.time

        # Advance deterministically through idle epochs and detect the end
        # of the load or of the system.
        while True:
            if epoch_index >= len(self._epochs):
                # The batteries survived the load; treat the load end as the
                # observed lifetime (experiments use loads long enough for
                # this not to happen).
                self._record_candidate(time, node.assignment)
                return
            epoch = self._epochs[epoch_index]
            if epoch.is_job:
                break
            span = epoch.duration - offset
            states = tuple(
                model.step(state, 0.0, span).state
                for model, state in zip(self.models, states)
            )
            time += span
            epoch_index += 1
            offset = 0.0

        epoch = self._epochs[epoch_index]
        alive = [
            index
            for index in range(len(self.models))
            if not self.models[index].is_empty(states[index])
        ]
        if not alive:
            self._record_candidate(time, node.assignment)
            return

        # Bound pruning: the system cannot outlive the perfect-pooling bound
        # (or, failing that, the point where cumulative demand exceeds the
        # total remaining charge).
        cutoff = self._best_lifetime - time + _TIME_EPSILON
        if self._remaining_lifetime_bound(states, epoch_index, offset, cutoff) <= cutoff:
            return

        # Dominance pruning among states reaching the same decision point.
        if self.use_dominance and not self._archive.admit(
            (epoch_index, round(offset, 9)), self._dominance_matrix(states)
        ):
            return

        if self.max_nodes is not None and self._nodes_expanded >= self.max_nodes:
            self._complete = False
            return
        self._nodes_expanded += 1

        remaining = epoch.duration - offset
        # Branch over usable batteries, most available charge first (the
        # greedy choice tends to be optimal, which tightens the incumbent
        # early and lets the bound prune the rest).
        ordered = sorted(
            alive, key=lambda index: -self.models[index].available_charge(states[index])
        )
        if offset == 0.0 and node.time == 0.0:
            # All batteries are full at the very first decision: within a
            # symmetry group the choices are interchangeable, so explore one
            # representative per group (a no-op when every group is a
            # singleton).  The stable sort keeps the representative the
            # first-listed battery of its group, matching the batched search.
            seen_groups = set()
            representatives = []
            for index in ordered:
                group = self._groups[index]
                if group in seen_groups:
                    continue
                seen_groups.add(group)
                representatives.append(index)
            ordered = representatives
        for choice in ordered:
            outcome = self.models[choice].step(states[choice], epoch.current, remaining)
            span = outcome.emptied_after if outcome.emptied else remaining
            new_states = list(states)
            new_states[choice] = outcome.state
            for other in range(len(self.models)):
                if other != choice:
                    new_states[other] = self.models[other].step(states[other], 0.0, span).state
            new_assignment = node.assignment + (choice,)
            if outcome.emptied and remaining - span > _TIME_EPSILON:
                child = _SearchNode(
                    states=tuple(new_states),
                    epoch_index=epoch_index,
                    offset=offset + span,
                    time=time + span,
                    assignment=new_assignment,
                )
            else:
                child = _SearchNode(
                    states=tuple(new_states),
                    epoch_index=epoch_index + 1,
                    offset=0.0,
                    time=time + remaining,
                    assignment=new_assignment,
                )
            if outcome.emptied:
                still_alive = any(
                    not self.models[i].is_empty(child.states[i]) for i in range(len(self.models))
                )
                if not still_alive:
                    self._record_candidate(time + span, new_assignment)
                    continue
            self._explore(child)

    def _record_candidate(self, lifetime: float, assignment: Tuple[int, ...]) -> None:
        if lifetime > self._best_lifetime + _TIME_EPSILON:
            self._best_lifetime = lifetime
            self._best_assignment = assignment

    # ------------------------------------------------------------------ #
    # pruning helpers
    # ------------------------------------------------------------------ #
    def _remaining_lifetime_bound(
        self,
        states: Sequence[Any],
        epoch_index: int,
        offset: float,
        cutoff: float = float("-inf"),
    ) -> float:
        """Admissible upper bound on the remaining system lifetime.

        On dKiBaM grids coarser than the paper's this is the draw-budget
        bound of :class:`repro.kibam.bounds.DrawBudgetBound`.  Otherwise,
        with KiBaM-shaped batteries sharing ``c``/``k'``, it is the
        perfect-pooling bound (with the dKiBaM's
        :func:`discrete_pooling_margin`), refined on the analytical model by
        the recovery-limited bound of :mod:`repro.kibam.bounds` (never
        looser, often tighter near the endgame); otherwise the total-charge
        fallback.  A pooled bound at or below ``cutoff`` is
        returned unrefined: the refinement never exceeds it, so the node is
        pruned either way.
        """
        if self._draw_budget is not None:
            return self._draw_budget_bound(states, epoch_index, offset)
        if self._pooled_params is not None:
            bound = self._pooled_bound(states, epoch_index, offset)
            if bound <= cutoff:
                return bound
            refined = self._recovery_limited_bound(states, epoch_index, offset)
            if refined is not None and refined < bound:
                return refined
            return bound
        return self._total_charge_bound(states, epoch_index, offset)

    def _draw_budget_bound(
        self, states: Sequence[Any], epoch_index: int, offset: float
    ) -> float:
        """Draw-budget bound in minutes (dKiBaM searches only)."""
        assert self._draw_budget is not None
        alive = [
            state
            for model, state in zip(self.models, states)
            if not model.is_empty(state)
        ]
        time_step = self.models[0].kibam.time_step
        ticks = self._draw_budget.ticks(
            [sum(state.n for state in alive)],
            [len(alive)],
            [epoch_index],
            [round(offset / time_step)],
        )
        return int(ticks[0]) * time_step

    def _pooled_bound(self, states: Sequence[Any], epoch_index: int, offset: float) -> float:
        """Perfect-pooling bound: lifetime of one battery holding all alive charge.

        Before any battery dies, the pooled ``(gamma, delta)`` state at a
        given decision point is identical across all branches, so the result
        is cached on (decision point, pooled state) and computed only a
        handful of times per search.
        """
        assert self._pooled_params is not None
        gamma = 0.0
        delta = 0.0
        alive = False
        for i in range(len(self.models)):
            if self.models[i].is_empty(states[i]):
                continue
            summary = self.models[i].kibam_summary(states[i])
            assert summary is not None
            gamma += summary[0]
            delta += summary[1]
            alive = True
        if not alive:
            return 0.0
        cache_key = (epoch_index, round(offset, 9), round(gamma, 9), round(delta, 9))
        cached = self._bound_cache.get(cache_key)
        if cached is not None:
            return cached
        pooled = KibamState(gamma=gamma, delta=delta)
        params = self._pooled_params
        elapsed = 0.0
        bound: Optional[float] = None
        for index in range(epoch_index, len(self._epochs)):
            epoch = self._epochs[index]
            duration = epoch.duration - (offset if index == epoch_index else 0.0)
            crossing = time_to_empty(params, pooled, epoch.current, horizon=duration)
            if crossing is not None:
                bound = (elapsed + crossing) * (1.0 + self._bound_slack)
                break
            pooled = step_constant_current(params, pooled, epoch.current, duration)
            elapsed += duration
        if bound is None:
            bound = elapsed * (1.0 + self._bound_slack)
        if len(self._bound_cache) >= _BOUND_CACHE_LIMIT:
            self._bound_cache.clear()
        self._bound_cache[cache_key] = bound
        return bound

    def _recovery_limited_bound(
        self, states: Sequence[Any], epoch_index: int, offset: float
    ) -> Optional[float]:
        """Recovery-limited refinement of the pooling bound (scalar reference).

        Returns ``None`` when the refinement does not apply (fewer than two
        alive batteries -- the pooled bound is already exact about a single
        server -- or no pooled parameters).  The refinement is admissible
        only for batteries sharing ``c`` and ``k'``, which is exactly the
        condition under which ``self._pooled_params`` exists, and only for
        the *analytical* model: the chain-feasibility half of the argument
        is a theorem of the continuous dynamics, and the dKiBaM grid can
        keep a marginal burst alive that the continuous threshold rules out
        (tick rounding works in the battery's favor), which no
        multiplicative margin can repair.  Discrete searches keep the
        pooling bound with :func:`discrete_pooling_margin`, or the
        draw-budget bound on coarse grids.
        """
        params = self._pooled_params
        if params is None or self.models[0].backend != "analytical":
            return None
        c = params.c
        wells = []
        alive = []
        for i in range(len(self.models)):
            if self.models[i].is_empty(states[i]):
                wells.append((0.0, 0.0))
                alive.append(False)
                continue
            summary = self.models[i].kibam_summary(states[i])
            assert summary is not None
            gamma_i, delta_i = summary
            y1_i = c * (gamma_i - (1.0 - c) * delta_i)
            wells.append((y1_i, gamma_i - y1_i))
            alive.append(True)
        if sum(alive) < 2:
            return None
        gamma = sum(w[0] + w[1] for w, ok in zip(wells, alive) if ok)
        y1_pool = sum(w[0] for w, ok in zip(wells, alive) if ok)
        delta = (gamma - y1_pool / c) / (1.0 - c)
        # The bound depends only on the *multiset* of per-battery wells
        # (all batteries share c/k' whenever pooled params exist), so the
        # cache key sorts the wells -- sound for heterogeneous fleets too.
        well_sig = tuple(
            sorted((round(w[0], 9), round(w[1], 9)) for w, ok in zip(wells, alive) if ok)
        )
        rl_key = (epoch_index, round(offset, 9), well_sig)
        cached = self._rl_cache.get(rl_key)
        if cached is not None:
            return cached
        table = self._job_table(epoch_index, offset, gamma, delta)
        y1 = np.asarray([[w[0] for w in wells]])
        y2 = np.asarray([[w[1] for w in wells]])
        mask = np.asarray([alive])
        refined = float(
            recovery_limited_refinements(table, params, y1, y2, mask)[0]
        ) * (1.0 + self._bound_slack)
        if len(self._rl_cache) >= _BOUND_CACHE_LIMIT:
            self._rl_cache.clear()
        self._rl_cache[rl_key] = refined
        return refined

    def _job_table(self, epoch_index: int, offset: float, gamma: float, delta: float):
        """Pooled job table for a decision point (cached on the pooled state)."""
        params = self._pooled_params
        assert params is not None
        cache_key = (epoch_index, round(offset, 9), round(gamma, 9), round(delta, 9))
        table = self._job_table_cache.get(cache_key)
        if table is not None:
            return table

        def solver(p, g, d, current, horizon):
            return time_to_empty(p, KibamState(gamma=g, delta=d), current, horizon=horizon)

        table = build_pooled_job_table(
            params,
            self._epoch_currents,
            self._epoch_durations,
            epoch_index,
            offset,
            gamma,
            delta,
            solver,
        )
        if len(self._job_table_cache) >= _BOUND_CACHE_LIMIT:
            self._job_table_cache.clear()
        self._job_table_cache[cache_key] = table
        return table

    def _total_charge_bound(
        self, states: Sequence[Any], epoch_index: int, offset: float
    ) -> float:
        """Fallback bound: batteries cannot deliver more charge than they hold."""
        total_charge = sum(
            self.models[i].total_charge(states[i])
            for i in range(len(self.models))
            if not self.models[i].is_empty(states[i])
        )
        elapsed = 0.0
        for index in range(epoch_index, len(self._epochs)):
            epoch = self._epochs[index]
            duration = epoch.duration - (offset if index == epoch_index else 0.0)
            demand = epoch.current * duration
            if epoch.current > 0.0 and demand >= total_charge:
                return elapsed + total_charge / epoch.current
            total_charge -= demand
            elapsed += duration
        return elapsed

    def _dominance_matrix(self, states: Sequence[Any]) -> Tuple[Tuple[float, ...], ...]:
        return tuple(
            self.models[i].dominance_vector(states[i]) for i in range(len(self.models))
        )

    # ------------------------------------------------------------------ #
    # schedule reconstruction
    # ------------------------------------------------------------------ #
    def _replay(self, assignment: Sequence[int]) -> SimulationResult:
        """Replay an assignment through the simulator to obtain a schedule."""
        simulator = MultiBatterySimulator(self.models)
        return simulator.run(self.load, FixedAssignmentPolicy(assignment))


def find_optimal_schedule(
    params: Sequence[BatteryParameters],
    load: Load,
    backend: str = "analytical",
    time_step: float = 0.01,
    charge_unit: float = 0.01,
    max_nodes: Optional[int] = None,
    use_dominance: bool = True,
    dominance_tolerance: float = 0.0,
    use_symmetry: bool = True,
) -> OptimalScheduleResult:
    """Find the schedule that maximizes the system lifetime.

    This is the library's replacement for the paper's Uppaal Cora analysis.

    Args:
        params: battery parameter sets, one per battery.
        load: the load to schedule (must be long enough to exhaust the
            batteries, otherwise the reported lifetime is the load length).
        backend: ``"analytical"`` for the continuous KiBaM (fast, used for
            Table 5) or ``"discrete"`` for the dKiBaM (faithful to the
            paper's TA-KiBaM).
        time_step: dKiBaM tick length in minutes (discrete backend only).
        charge_unit: dKiBaM charge unit in Amin (discrete backend only).
        max_nodes: optional cap on the search size.
        use_dominance: disable only for ablation experiments.
        dominance_tolerance: charge tolerance (Amin) under which two battery
            states are merged.  Zero (the default) certifies optimality; a
            small value such as one dKiBaM charge unit (0.01 Amin) makes the
            longest loads tractable with a negligible effect on the result.
        use_symmetry: disable only for ablation experiments (symmetry
            reduction between identical batteries never changes the result,
            only the node count).

    Returns:
        An :class:`OptimalScheduleResult` with the maximal lifetime, a
        schedule achieving it and search statistics.
    """
    models = make_battery_models(
        params, backend=backend, time_step=time_step, charge_unit=charge_unit
    )
    scheduler = OptimalScheduler(
        models,
        load,
        max_nodes=max_nodes,
        use_dominance=use_dominance,
        dominance_tolerance=dominance_tolerance,
        use_symmetry=use_symmetry,
    )
    return scheduler.search()
