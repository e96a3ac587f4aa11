"""Lock-step batch simulator: many scenarios, one set of NumPy calls.

:class:`BatchSimulator` is the array-native counterpart of
:class:`repro.core.simulator.MultiBatterySimulator`.  It advances a whole
:class:`repro.engine.scenarios.ScenarioSet` at once: every iteration of its
event loop moves *every* still-active scenario forward by one span (a full
idle epoch, or one served slice of a job epoch), with the KiBaM dynamics,
the empty-crossing search and the scheduling decisions all evaluated as
vectorized kernels over the scenario axis.  Scenarios that die or exhaust
their load drop out of the active set; the loop ends when none remain.

The semantics are a faithful transliteration of the scalar simulator --
same epoch walk, same ``1e-9`` span epsilon, same ``1e-12`` emptiness
tolerance, same sticky empty observation (Section 4.3 of the paper), same
mid-job switchover rule -- so batch lifetimes match scalar lifetimes to
within the root-finder tolerance (far below 1e-9 minutes; the test suite
pins this).

Two battery models run vectorized.  ``model="analytical"`` advances whole
constant-current spans through the closed-form kernels.  ``model=
"discrete"`` (the dKiBaM of Section 2.3) steps *segment by segment* on
:func:`repro.engine.kernels.discrete_segment_array`, the exact integer
kernel the batched optimal search also runs: at each decision point the
chosen battery serves the rest of its job in one kernel call, and idle
spans take all their equation-(6) recovery steps at once.  Because the
state is integers, the parity bar with the scalar dKiBaM tick loop is exact
equality -- unit for unit, tick for tick -- not a float tolerance.
Scenarios whose policy or battery model has no vectorized implementation
transparently fall back to the scalar simulator, one scenario at a time.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.battery import make_battery_models
from repro.core.policies import SchedulingPolicy
from repro.core.simulator import MultiBatterySimulator
from repro.engine.kernels import (
    DELTA,
    GAMMA,
    DiscreteKernelParams,
    KernelParams,
    _draws_to_empty,
    discrete_segment_array,
    empty_margin_array,
    initial_state_array,
    step_constant_current_array,
    time_to_empty_array,
    total_charge_array,
)
from repro.engine.policies import (
    BatchDecisionContext,
    VectorPolicy,
    VectorPolicyStack,
    has_vector_policy,
    make_vector_policy,
)
from repro.engine.scenarios import ScenarioSet
from repro.kibam.parameters import BatteryParameters
from repro.workloads.load import Load

#: Spans shorter than this (minutes) end a job epoch; identical to the
#: scalar simulator's ``_TIME_EPSILON``.
_TIME_EPSILON = 1e-9
#: Emptiness tolerance (Amin); identical to ``AnalyticalBattery.is_empty``.
_EMPTY_TOLERANCE = 1e-12

#: Battery models with a vectorized batch implementation; anything else
#: runs through the scalar fallback.
VECTOR_MODELS = ("analytical", "discrete")


@dataclasses.dataclass(frozen=True)
class BatchResult:
    """Outcome of one policy over a batch of scenarios.

    Attributes:
        policy_name: name of the policy that produced the batch.
        lifetimes: system lifetime per scenario in minutes; NaN where the
            batteries survived the whole load.
        decisions: scheduling decisions taken per scenario.
        residual_charge: total charge (Amin) left across the batteries of
            each scenario at the end of its simulation.
        final_states: transformed KiBaM states, shape
            ``(n_scenarios, n_batteries, 2)``; ``None`` when the batch ran
            through the scalar fallback.
        lifetime_ticks: ``model="discrete"`` only -- the lifetime per
            scenario as an exact tick count (``-1`` where the batteries
            survived); ``lifetimes`` is ``lifetime_ticks * time_step``.
        charge_units: ``model="discrete"`` only -- final integer dKiBaM
            state, shape ``(n_scenarios, n_batteries, 2)`` with the last
            axis holding ``(n, m)``: remaining charge units and height
            difference units.  Exactly comparable to the scalar
            :class:`repro.kibam.discrete.DiscreteBatteryState`.
    """

    policy_name: str
    lifetimes: np.ndarray
    decisions: np.ndarray
    residual_charge: np.ndarray
    final_states: Optional[np.ndarray] = None
    lifetime_ticks: Optional[np.ndarray] = None
    charge_units: Optional[np.ndarray] = None

    @property
    def n_scenarios(self) -> int:
        return self.lifetimes.shape[0]

    def take(self, lanes, policy_name: Optional[str] = None) -> "BatchResult":
        """The result restricted to a lane selection (slice or index array)."""

        def sel(array: Optional[np.ndarray]) -> Optional[np.ndarray]:
            return None if array is None else array[lanes]

        return BatchResult(
            policy_name=self.policy_name if policy_name is None else policy_name,
            lifetimes=self.lifetimes[lanes],
            decisions=self.decisions[lanes],
            residual_charge=self.residual_charge[lanes],
            final_states=sel(self.final_states),
            lifetime_ticks=sel(self.lifetime_ticks),
            charge_units=sel(self.charge_units),
        )

    @property
    def survived(self) -> np.ndarray:
        """Boolean mask of the scenarios whose batteries outlived the load."""
        return np.isnan(self.lifetimes)

    def lifetimes_or_raise(self) -> np.ndarray:
        """All lifetimes, raising if any scenario survived its load."""
        if bool(np.any(self.survived)):
            count = int(np.sum(self.survived))
            raise RuntimeError(
                f"{count} scenario(s) survived the whole load; extend the "
                "loads to measure lifetimes"
            )
        return self.lifetimes


class BatchSimulator:
    """Simulates one battery set serving many scenario loads in lock-step.

    Args:
        params: either one battery parameter set per battery (a flat
            sequence of :class:`BatteryParameters`, shared by every scenario
            in a batch) or one *row* of parameter sets per scenario (a
            sequence of sequences, all of the same width) -- the
            parameter-sweep form, where every scenario lane carries its own
            battery triples and batches must have exactly one scenario per
            row.
        model: battery model: ``"analytical"`` (closed-form KiBaM) and
            ``"discrete"`` (the dKiBaM, exact integer parity with the
            scalar tick loop) both run vectorized; any other registered
            model (``"linear"``) runs through the scalar fallback.
        time_step / charge_unit: dKiBaM discretization (``"discrete"``
            model only).
    """

    def __init__(
        self,
        params: Union[
            Sequence[BatteryParameters], Sequence[Sequence[BatteryParameters]]
        ],
        model: str = "analytical",
        time_step: float = 0.01,
        charge_unit: float = 0.01,
    ) -> None:
        params = tuple(params)
        if not params:
            raise ValueError("at least one battery parameter set is required")
        if isinstance(params[0], BatteryParameters):
            self.params: Tuple = params
            self.param_rows: Optional[Tuple[Tuple[BatteryParameters, ...], ...]] = None
            self._kernel_params = KernelParams.from_parameters(params)
        else:
            rows = tuple(tuple(row) for row in params)
            self._kernel_params = KernelParams.from_parameter_rows(rows)
            self.params = rows
            self.param_rows = rows
        self.model = model
        self.time_step = time_step
        self.charge_unit = charge_unit
        self._discrete_kernel_params: Optional[DiscreteKernelParams] = None

    @property
    def n_batteries(self) -> int:
        return self._kernel_params.n_batteries

    def _discrete_params(self) -> DiscreteKernelParams:
        if self._discrete_kernel_params is None:
            self._discrete_kernel_params = self._kernel_params.discretize(
                self.time_step, self.charge_unit
            )
        return self._discrete_kernel_params

    def _check_scenario_count(self, scenarios: ScenarioSet) -> None:
        if self.param_rows is not None and len(self.param_rows) != scenarios.n_scenarios:
            raise ValueError(
                f"per-scenario parameters cover {len(self.param_rows)} "
                f"scenarios, but the batch has {scenarios.n_scenarios}"
            )

    def run(
        self,
        scenarios: Union[ScenarioSet, Load, Sequence[Load]],
        policy: Union[str, VectorPolicy, SchedulingPolicy],
    ) -> BatchResult:
        """Simulate ``policy`` on every scenario and return the batch result."""
        if not isinstance(scenarios, ScenarioSet):
            scenarios = ScenarioSet.from_loads(scenarios)
        self._check_scenario_count(scenarios)
        vector_policy = self._resolve_vector_policy(policy)
        if vector_policy is None or self.model not in VECTOR_MODELS:
            return self._run_fallback(scenarios, policy)
        if self.model == "discrete":
            return self._run_discrete(scenarios, vector_policy)
        return self._run_vectorized(scenarios, vector_policy)

    def run_many(
        self,
        scenarios: Union[ScenarioSet, Load, Sequence[Load]],
        policies: Sequence[Union[str, VectorPolicy, SchedulingPolicy]],
    ) -> Dict[str, BatchResult]:
        """Simulate several policies over the same scenarios in one batch.

        All vectorizable policies are swept together as one stacked
        lock-step batch (policy ``p`` owning lane block ``p``), which
        amortizes the per-iteration NumPy overhead across policies; the
        rest run one by one through :meth:`run`.  Returns one
        :class:`BatchResult` per policy, keyed by policy name.
        """
        if not policies:
            raise ValueError("at least one policy is required")
        names = [
            policy if isinstance(policy, str) else policy.name for policy in policies
        ]
        if len(set(names)) != len(names):
            raise ValueError(
                f"policy names must be unique (results are keyed by name), got {names}"
            )
        if not isinstance(scenarios, ScenarioSet):
            scenarios = ScenarioSet.from_loads(scenarios)
        self._check_scenario_count(scenarios)
        resolved = [(policy, self._resolve_vector_policy(policy)) for policy in policies]
        results: Dict[str, BatchResult] = {}

        vector = [v for _, v in resolved if v is not None]
        if self.model in VECTOR_MODELS and len(vector) > 1:
            n = scenarios.n_scenarios
            stack = VectorPolicyStack(vector, n)
            # Policy p owns lanes [p*n, (p+1)*n); every lane reads its
            # scenario's row of the one shared epoch table.
            lane_scenario = np.tile(np.arange(n), len(vector))
            if self.model == "discrete":
                stacked = self._run_discrete(scenarios, stack, lane_scenario)
            else:
                stacked = self._run_vectorized(scenarios, stack, lane_scenario)
            for index, policy in enumerate(vector):
                lanes = slice(index * n, (index + 1) * n)
                results[policy.name] = stacked.take(lanes, policy_name=policy.name)
            remaining = [p for p, v in resolved if v is None]
        else:
            remaining = list(policies)
        for policy in remaining:
            result = self.run(scenarios, policy)
            results[result.policy_name] = result
        return results

    # ------------------------------------------------------------------ #
    # vectorized path
    # ------------------------------------------------------------------ #
    def _resolve_vector_policy(
        self, policy: Union[str, VectorPolicy, SchedulingPolicy]
    ) -> Optional[VectorPolicy]:
        if isinstance(policy, VectorPolicy):
            return policy
        if isinstance(policy, str) and has_vector_policy(policy):
            return make_vector_policy(policy)
        return None

    @staticmethod
    def _choose(policy: VectorPolicy, context: BatchDecisionContext) -> np.ndarray:
        """The policy's battery per deciding lane, checked for validity."""
        choice = np.asarray(policy.choose(context), dtype=np.int64)
        count = context.lanes.size
        if choice.shape != (count,):
            raise ValueError(
                f"policy {policy.name!r} returned shape {choice.shape}, "
                f"expected ({count},)"
            )
        if np.any((choice < 0) | (choice >= context.n_batteries)):
            raise ValueError(
                f"policy {policy.name!r} chose a battery that does not exist"
            )
        if not np.all(context.alive[np.arange(count), choice]):
            raise ValueError(
                f"policy {policy.name!r} chose a battery that is already empty"
            )
        return choice

    def _run_vectorized(
        self,
        scenarios: ScenarioSet,
        policy: VectorPolicy,
        lane_scenario: Optional[np.ndarray] = None,
    ) -> BatchResult:
        """Analytical lock-step loop; lane ``l`` simulates scenario
        ``lane_scenario[l]`` (several lanes may share one scenario's epochs)."""
        if lane_scenario is None:
            lane_scenario = np.arange(scenarios.n_scenarios)
        kp = self._kernel_params.take(lane_scenario)
        n_scen = lane_scenario.shape[0]
        n_bat = self.n_batteries
        currents = scenarios.currents
        durations = scenarios.durations
        n_epochs = scenarios.n_epochs[lane_scenario]

        state = initial_state_array(kp, n_scen)
        sticky = np.zeros((n_scen, n_bat), dtype=bool)
        epoch_idx = np.full(n_scen, -1, dtype=np.int64)
        cur_current = np.zeros(n_scen)
        remaining = np.zeros(n_scen)
        time = np.zeros(n_scen)
        job_index = np.full(n_scen, -1, dtype=np.int64)
        prev_choice = np.full(n_scen, -1, dtype=np.int64)
        decisions = np.zeros(n_scen, dtype=np.int64)
        lifetime = np.full(n_scen, np.nan)
        switchover = np.zeros(n_scen, dtype=bool)
        active = np.ones(n_scen, dtype=bool)

        policy.reset(n_scen, n_bat)

        act = np.flatnonzero(active)
        while act.size:
            # ---- advance scenarios whose current epoch is finished.  A job
            # epoch is finished when less than the span epsilon remains (the
            # scalar simulator's ``while remaining > eps``); an idle epoch is
            # consumed whole in one span, so it is finished when remaining
            # hits zero exactly.
            while True:
                cur_a = cur_current[act]
                rem_a = remaining[act]
                finished = np.where(
                    cur_a > 0.0, rem_a <= _TIME_EPSILON, rem_a == 0.0
                )
                adv = act[finished]
                if adv.size == 0:
                    break
                epoch_idx[adv] += 1
                exhausted = epoch_idx[adv] >= n_epochs[adv]
                # Load ran out with batteries still usable: the scenario
                # survived; its lifetime stays NaN.
                active[adv[exhausted]] = False
                live = adv[~exhausted]
                if live.size:
                    rows, cols = lane_scenario[live], epoch_idx[live]
                    cur_current[live] = currents[rows, cols]
                    remaining[live] = durations[rows, cols]
                    entered_job = cur_current[live] > 0.0
                    job_index[live[entered_job]] += 1
                    switchover[live] = False
                if exhausted.any():
                    act = act[active[act]]
            if act.size == 0:
                break

            cur = cur_current[act]
            is_idle = cur == 0.0
            idle_lanes = act[is_idle]
            job_lanes = act[~is_idle]

            # ---- scheduling decisions for the job lanes.
            deciding = job_lanes
            choice = np.empty(0, dtype=np.int64)
            crossed = np.zeros(0, dtype=bool)
            crossing = np.empty(0)
            if job_lanes.size:
                margin = empty_margin_array(kp.take(job_lanes), state[job_lanes])
                alive = (~sticky[job_lanes]) & (margin > _EMPTY_TOLERANCE)
                any_alive = np.any(alive, axis=1)
                dead = job_lanes[~any_alive]
                if dead.size:
                    # A job arrived and no battery can serve it: the system
                    # died the moment the previous span ended.
                    lifetime[dead] = time[dead]
                    active[dead] = False
                    act = act[active[act]]
                deciding = job_lanes[any_alive]
            if deciding.size:
                deciding_rows = np.flatnonzero(any_alive)
                kp_deciding = kp.take(deciding)
                # The scalar battery view's available charge is
                # ``max(0, c * margin)`` in exactly this operation order.
                context = BatchDecisionContext(
                    lanes=deciding,
                    available_charge=np.maximum(
                        0.0, kp_deciding.c * margin[deciding_rows]
                    ),
                    alive=alive[deciding_rows],
                    current=cur_current[deciding],
                    time=time[deciding],
                    job_index=job_index[deciding],
                    is_switchover=switchover[deciding],
                    previous_choice=prev_choice[deciding],
                )
                choice = self._choose(policy, context)
                decisions[deciding] += 1
                c_chosen, k_chosen = kp_deciding.battery(choice)
                crossing, crossed = time_to_empty_array(
                    c_chosen,
                    k_chosen,
                    state[deciding, choice, GAMMA],
                    state[deciding, choice, DELTA],
                    cur_current[deciding],
                    remaining[deciding],
                )

            # ---- one span per stepping lane: the whole epoch for idle
            # lanes, the served slice (up to the empty crossing) for jobs.
            stepping = np.concatenate([idle_lanes, deciding])
            if stepping.size == 0:
                continue
            span = np.concatenate(
                [
                    remaining[idle_lanes],
                    np.where(crossed, crossing, remaining[deciding]),
                ]
            )
            battery_currents = np.zeros((stepping.size, n_bat))
            if deciding.size:
                job_rows = idle_lanes.size + np.arange(deciding.size)
                battery_currents[job_rows, choice] = cur_current[deciding]

            old = state[stepping]
            new = step_constant_current_array(
                kp.take(stepping), old, battery_currents, span[:, None]
            )
            # Batteries observed empty stay frozen, exactly like the scalar
            # adapter's sticky ``_MarkedState``.
            frozen = sticky[stepping]
            state[stepping] = np.where(frozen[:, :, None], old, new)
            time[stepping] += span
            remaining[stepping] -= span

            # ---- post-span bookkeeping for the job lanes.
            if deciding.size:
                prev_choice[deciding] = choice
                hit = np.flatnonzero(crossed)
                if hit.size:
                    hit_lanes = deciding[hit]
                    sticky[hit_lanes, choice[hit]] = True
                    margin_after = empty_margin_array(
                        kp.take(hit_lanes), state[hit_lanes]
                    )
                    alive_after = (~sticky[hit_lanes]) & (
                        margin_after > _EMPTY_TOLERANCE
                    )
                    died = ~np.any(alive_after, axis=1)
                    dead_lanes = hit_lanes[died]
                    if dead_lanes.size:
                        lifetime[dead_lanes] = time[dead_lanes]
                        active[dead_lanes] = False
                        act = act[active[act]]
                    switchover[hit_lanes[~died]] = True

        residual = np.sum(total_charge_array(state), axis=1)
        return BatchResult(
            policy_name=policy.name,
            lifetimes=lifetime,
            decisions=decisions,
            residual_charge=residual,
            final_states=state,
        )

    # ------------------------------------------------------------------ #
    # vectorized discrete (dKiBaM) path
    # ------------------------------------------------------------------ #
    def _run_discrete(
        self,
        scenarios: ScenarioSet,
        policy: VectorPolicy,
        lane_scenario: Optional[np.ndarray] = None,
    ) -> BatchResult:
        """Segment-stepping batch dKiBaM, exactly matching the scalar tick loop.

        Every battery carries the integer state of
        :func:`repro.engine.kernels.discrete_segment_array` -- charge units
        ``n``, height units ``m``, recovery tick counter, draw accumulator
        and the accumulator's rate -- plus a sticky empty flag, and only
        that kernel advances it.  Each loop iteration takes every active
        lane to its next decision point (entering a job epoch with ticks
        left, or a mid-job switchover): the policy picks a battery, which
        serves the rest of the job in one kernel call, up to its empty
        tick; the lane's other live batteries idle for the span served.

        Idle ticks are not applied at once but owed: a battery's owed ticks
        are taken in one idle kernel call just before its lane's next
        decision (or at the end), so an idle epoch costs no kernel call and
        the idle span after a served job merges with the epochs that follow.
        Idle ticks never change whether a battery is alive (they only lower
        ``m``, and every emptying draw is observed and flagged), so the
        death check after an emptying serve needs no settled state.  Lane
        ``l`` simulates scenario ``lane_scenario[l]``, reading that
        scenario's row of the one shared epoch table.
        """
        if lane_scenario is None:
            lane_scenario = np.arange(scenarios.n_scenarios)
        dkp = self._discrete_params()
        n_lanes = lane_scenario.shape[0]
        n_bat = self.n_batteries
        dp = dkp.for_lanes(lane_scenario)
        prefix = dkp.recovery_prefix
        darr = scenarios.discretized(dkp.time_step, dkp.charge_unit)
        n_epochs = scenarios.n_epochs[lane_scenario]

        # Battery state, one (lane, battery) plane per kernel state field.
        state = np.zeros((6, n_lanes, n_bat), dtype=np.int64)
        state[0] = dp.total_units
        state[5] = 1
        empty = np.zeros((n_lanes, n_bat), dtype=bool)
        owed = np.zeros((n_lanes, n_bat), dtype=np.int64)

        # Lane control state.
        epoch_idx = np.full(n_lanes, -1, dtype=np.int64)
        remaining = np.zeros(n_lanes, dtype=np.int64)  # job ticks left
        time_t = np.zeros(n_lanes, dtype=np.int64)
        job_index = np.full(n_lanes, -1, dtype=np.int64)
        prev_choice = np.full(n_lanes, -1, dtype=np.int64)
        decisions = np.zeros(n_lanes, dtype=np.int64)
        lifetime_t = np.full(n_lanes, -1, dtype=np.int64)
        switchover = np.zeros(n_lanes, dtype=bool)
        active = np.ones(n_lanes, dtype=bool)

        def advance(lanes, batteries, cur, cur_times, ticks):
            """One kernel call on ``(lane, battery)`` pairs, in place."""
            *advanced, empty_tick = discrete_segment_array(
                dp.tables,
                prefix,
                dp.table_id[lanes, batteries],
                dp.c_permille[lanes, batteries],
                *state[:, lanes, batteries],
                cur,
                cur_times,
                ticks,
            )
            state[:, lanes, batteries] = advanced
            return empty_tick

        def settle(lanes):
            """Take the idle ticks the batteries of ``lanes`` owe."""
            rows, batteries = np.nonzero(owed[lanes])
            if rows.size:
                lanes = lanes[rows]
                idle = np.zeros(rows.size, dtype=np.int64)
                advance(lanes, batteries, idle, idle + 1, owed[lanes, batteries])
                owed[lanes, batteries] = 0

        def alive(lanes):
            n_units, m_units = state[0, lanes], state[1, lanes]
            draws = _draws_to_empty(n_units, m_units, dp.c_permille[lanes])
            return ~empty[lanes] & (draws > 0)

        policy.reset(n_lanes, n_bat)

        act = np.flatnonzero(active)
        while act.size:
            # ---- advance lanes whose epoch is out of ticks.  An idle epoch
            # is owed by every live battery and passed at once; a zero-tick
            # job epoch counts as a job but takes no decision (the scalar
            # ``while remaining > eps`` never runs).
            while True:
                adv = act[remaining[act] == 0]
                if adv.size == 0:
                    break
                epoch_idx[adv] += 1
                exhausted = epoch_idx[adv] >= n_epochs[adv]
                active[adv[exhausted]] = False  # survived the whole load
                live = adv[~exhausted]
                rows, e = lane_scenario[live], epoch_idx[live]
                ticks = darr.ticks[rows, e]
                is_job = darr.cur[rows, e] > 0
                job_index[live[is_job]] += 1
                switchover[live] = False
                remaining[live] = np.where(is_job, ticks, 0)
                idle, ticks = live[~is_job], ticks[~is_job]
                owed[idle] += np.where(empty[idle], 0, ticks[:, None])
                time_t[idle] += ticks
                if exhausted.any():
                    act = act[active[act]]

            # ---- decisions: every active lane is at one now.
            settle(act)
            usable = alive(act)
            any_alive = usable.any(axis=1)
            dead = act[~any_alive]
            # A job arrived and no battery can serve it: the system died the
            # moment the previous span ended.
            lifetime_t[dead] = time_t[dead]
            active[dead] = False
            deciding = act[any_alive]
            if deciding.size == 0:
                break
            usable = usable[any_alive]
            # The scalar battery view computes
            # ``max(0, c * (n * Gamma - (1 - c) * (m * Delta)))`` in exactly
            # this operation order.
            gamma = state[0, deciding] * dkp.charge_unit
            delta = state[1, deciding] * dp.height_unit[deciding]
            c_dec = dp.c[deciding]
            choice = self._choose(
                policy,
                BatchDecisionContext(
                    lanes=deciding,
                    available_charge=np.maximum(
                        0.0, c_dec * (gamma - (1.0 - c_dec) * delta)
                    ),
                    alive=usable,
                    current=scenarios.currents[
                        lane_scenario[deciding], epoch_idx[deciding]
                    ],
                    time=time_t[deciding] * dkp.time_step,
                    job_index=job_index[deciding],
                    is_switchover=switchover[deciding],
                    previous_choice=prev_choice[deciding],
                ),
            )
            decisions[deciding] += 1
            prev_choice[deciding] = choice

            # ---- the chosen battery serves the rest of the job, up to its
            # empty tick; the lane's other live batteries owe that span.
            rows, e = lane_scenario[deciding], epoch_idx[deciding]
            empty_tick = advance(
                deciding,
                choice,
                darr.cur[rows, e],
                darr.cur_times[rows, e],
                remaining[deciding],
            )
            emptied = empty_tick >= 0
            span = np.where(emptied, empty_tick, remaining[deciding])
            owed[deciding] += np.where(usable, span[:, None], 0)
            owed[deciding, choice] = 0
            time_t[deciding] += span
            remaining[deciding] -= span

            # ---- a served battery observed empty: the system dies with it,
            # or hands the rest of the job over (Section 4.3).
            hit = deciding[emptied]
            empty[hit, choice[emptied]] = True
            died = ~alive(hit).any(axis=1)
            lifetime_t[hit[died]] = time_t[hit[died]]
            active[hit[died]] = False
            handover = hit[~died]
            switchover[handover[remaining[handover] > 0]] = True
            act = act[active[act]]

        settle(np.arange(n_lanes))
        n, m = state[0], state[1]
        gamma = n * dkp.charge_unit
        delta = m * dp.height_unit
        survived = lifetime_t < 0
        lifetimes = np.where(survived, np.nan, lifetime_t * dkp.time_step)
        return BatchResult(
            policy_name=policy.name,
            lifetimes=lifetimes,
            decisions=decisions,
            residual_charge=np.sum(gamma, axis=1),
            final_states=np.stack([gamma, delta], axis=-1),
            lifetime_ticks=lifetime_t,
            charge_units=np.stack([n, m], axis=-1),
        )

    # ------------------------------------------------------------------ #
    # scalar fallback
    # ------------------------------------------------------------------ #
    def _run_fallback(
        self,
        scenarios: ScenarioSet,
        policy: Union[str, VectorPolicy, SchedulingPolicy],
    ) -> BatchResult:
        """One scalar simulation per scenario, packed into a batch result."""
        from repro.core.policies import make_policy

        if isinstance(policy, VectorPolicy):
            policy = policy.name
        if isinstance(policy, str):
            policy = make_policy(policy)

        def make_simulator(row_params: Sequence[BatteryParameters]) -> MultiBatterySimulator:
            return MultiBatterySimulator(
                make_battery_models(
                    row_params,
                    backend=self.model,
                    time_step=self.time_step,
                    charge_unit=self.charge_unit,
                )
            )

        shared_simulator = (
            make_simulator(self.params) if self.param_rows is None else None
        )
        lifetimes = np.full(scenarios.n_scenarios, np.nan)
        decisions = np.zeros(scenarios.n_scenarios, dtype=np.int64)
        residual = np.zeros(scenarios.n_scenarios)
        for index, load in enumerate(scenarios.loads):
            simulator = (
                shared_simulator
                if shared_simulator is not None
                else make_simulator(self.param_rows[index])
            )
            result = simulator.run(load, policy)
            if result.lifetime is not None:
                lifetimes[index] = result.lifetime
            decisions[index] = result.decisions
            residual[index] = result.residual_charge
        return BatchResult(
            policy_name=policy.name,
            lifetimes=lifetimes,
            decisions=decisions,
            residual_charge=residual,
            final_states=None,
        )
