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
"discrete"`` (the dKiBaM of Section 2.3) has no closed form -- the scalar
reference walks it one tick at a time -- so the batch loop advances integer
``(n, m)`` charge-unit arrays *event to event*: between draw, recovery and
epoch events every counter moves linearly, so each iteration jumps every
scenario straight to its own next event and replays that single tick
exactly (recovery before discharge, the equation-(7) Bresenham draw
accumulator per serving lane, emptiness checked per drawn unit).  Because
the state is integers, the parity bar with the scalar dKiBaM is exact
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
    DISCRETE_UNREACHABLE,
    GAMMA,
    DiscreteKernelParams,
    KernelParams,
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
                choice = np.asarray(policy.choose(context), dtype=np.int64)
                if choice.shape != (deciding.size,):
                    raise ValueError(
                        f"policy {policy.name!r} returned shape {choice.shape}, "
                        f"expected ({deciding.size},)"
                    )
                if np.any((choice < 0) | (choice >= n_bat)):
                    raise ValueError(
                        f"policy {policy.name!r} chose a battery that does not exist"
                    )
                if not np.all(alive[deciding_rows, choice]):
                    raise ValueError(
                        f"policy {policy.name!r} chose a battery that is already empty"
                    )
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
        """Event-jumping batch dKiBaM, exactly matching the scalar tick loop.

        State per battery lane is the integer quadruple of
        :class:`repro.kibam.discrete.DiscreteBatteryState` -- charge units
        ``n``, height units ``m``, recovery tick counter, sticky empty flag
        -- plus one equation-(7) draw accumulator per scenario (only the
        serving battery accumulates; every other live battery is reset by
        each idle tick, so the scenario-level accumulator with its
        owner/rate tag reproduces the per-battery scalar rule exactly).

        Between events every counter advances linearly, so each loop
        iteration (a) jumps every active scenario to one tick before its
        own next event -- next unit draw, next equation-(6) recovery step,
        or epoch end, whichever is sooner -- in O(1) and (b) replays that
        event tick with the full scalar tick semantics: recovery first,
        then the draw loop with per-unit emptiness checks, then epoch /
        switchover bookkeeping.  Dead and exhausted scenarios leave the
        active set immediately and cost nothing afterwards.  Lane ``l``
        simulates scenario ``lane_scenario[l]``, reading that scenario's row
        of the one shared epoch table.
        """
        if lane_scenario is None:
            lane_scenario = np.arange(scenarios.n_scenarios)
        dkp = self._discrete_params()
        n_scen = lane_scenario.shape[0]
        n_bat = self.n_batteries
        dp = dkp.for_lanes(lane_scenario)
        darr = scenarios.discretized(dkp.time_step, dkp.charge_unit)
        e_cur, e_ct, e_ticks = darr.cur, darr.cur_times, darr.ticks
        currents = scenarios.currents
        n_epochs = scenarios.n_epochs[lane_scenario]
        time_step = dkp.time_step
        charge_unit = dkp.charge_unit
        cp = dp.c_permille
        q = 1000 - cp
        tables = dp.tables
        table_id = dp.table_id
        BIG = DISCRETE_UNREACHABLE

        # Battery lane state (all integers; empty lanes are frozen).
        n = dp.total_units.copy()
        m = np.zeros((n_scen, n_bat), dtype=np.int64)
        recov = np.zeros((n_scen, n_bat), dtype=np.int64)
        empty = np.zeros((n_scen, n_bat), dtype=bool)

        # Scenario control state.
        epoch_idx = np.full(n_scen, -1, dtype=np.int64)
        remaining = np.zeros(n_scen, dtype=np.int64)  # ticks left in epoch
        cur_s = np.zeros(n_scen, dtype=np.int64)
        ct_s = np.ones(n_scen, dtype=np.int64)
        serving = np.full(n_scen, -1, dtype=np.int64)
        # Draw accumulator: value, owning battery and the (cur, cur_times)
        # rate it was built under (the scalar ``disch_rate`` tag).
        acc = np.zeros(n_scen, dtype=np.int64)
        acc_b = np.full(n_scen, -1, dtype=np.int64)
        acc_cur = np.zeros(n_scen, dtype=np.int64)
        acc_ct = np.ones(n_scen, dtype=np.int64)
        time_t = np.zeros(n_scen, dtype=np.int64)
        job_index = np.full(n_scen, -1, dtype=np.int64)
        prev_choice = np.full(n_scen, -1, dtype=np.int64)
        decisions = np.zeros(n_scen, dtype=np.int64)
        lifetime_t = np.full(n_scen, -1, dtype=np.int64)
        switchover = np.zeros(n_scen, dtype=bool)
        need_decide = np.zeros(n_scen, dtype=bool)
        active = np.ones(n_scen, dtype=bool)

        policy.reset(n_scen, n_bat)

        act = np.flatnonzero(active)
        while act.size:
            # ---- advance scenarios whose epoch is out of ticks.  Entering
            # a job epoch with at least one tick schedules a decision; a
            # zero-tick job epoch is skipped without one (the scalar
            # ``while remaining > eps`` never runs), and entering an idle
            # epoch resets the draw accumulator (the first idle tick would).
            while True:
                adv = act[remaining[act] == 0]
                if adv.size == 0:
                    break
                epoch_idx[adv] += 1
                exhausted = epoch_idx[adv] >= n_epochs[adv]
                done = adv[exhausted]
                active[done] = False  # survived the whole load
                live = adv[~exhausted]
                if live.size:
                    rows, e = lane_scenario[live], epoch_idx[live]
                    remaining[live] = e_ticks[rows, e]
                    cur_s[live] = e_cur[rows, e]
                    ct_s[live] = e_ct[rows, e]
                    serving[live] = -1
                    switchover[live] = False
                    is_job = cur_s[live] > 0
                    job_index[live[is_job]] += 1
                    started = remaining[live] > 0
                    need_decide[live] = is_job & started
                    idle_started = live[(~is_job) & started]
                    if idle_started.size:
                        acc[idle_started] = 0
                        acc_b[idle_started] = -1
                        acc_cur[idle_started] = 0
                        acc_ct[idle_started] = 1
                if done.size:
                    act = act[active[act]]
            if act.size == 0:
                break

            # ---- scheduling decisions (job-epoch entry or switchover).
            dec = act[need_decide[act]]
            if dec.size:
                crit = q[dec] * m[dec] >= cp[dec] * n[dec]
                alive = ~empty[dec] & ~crit
                any_alive = np.any(alive, axis=1)
                dead = dec[~any_alive]
                if dead.size:
                    # A job arrived and no battery can serve it: the system
                    # died the moment the previous span ended.
                    lifetime_t[dead] = time_t[dead]
                    active[dead] = False
                    need_decide[dead] = False
                    act = act[active[act]]
                deciding = dec[any_alive]
                if deciding.size:
                    rows = np.flatnonzero(any_alive)
                    # The scalar battery view computes
                    # ``max(0, c * (n * Gamma - (1 - c) * (m * Delta)))``
                    # in exactly this operation order.
                    gamma = n[deciding] * charge_unit
                    delta = m[deciding] * dp.height_unit[deciding]
                    c_dec = dp.c[deciding]
                    context = BatchDecisionContext(
                        lanes=deciding,
                        available_charge=np.maximum(
                            0.0, c_dec * (gamma - (1.0 - c_dec) * delta)
                        ),
                        alive=alive[rows],
                        current=currents[
                            lane_scenario[deciding], epoch_idx[deciding]
                        ],
                        time=time_t[deciding] * time_step,
                        job_index=job_index[deciding],
                        is_switchover=switchover[deciding],
                        previous_choice=prev_choice[deciding],
                    )
                    choice = np.asarray(policy.choose(context), dtype=np.int64)
                    if choice.shape != (deciding.size,):
                        raise ValueError(
                            f"policy {policy.name!r} returned shape "
                            f"{choice.shape}, expected ({deciding.size},)"
                        )
                    if np.any((choice < 0) | (choice >= n_bat)):
                        raise ValueError(
                            f"policy {policy.name!r} chose a battery that does not exist"
                        )
                    if not np.all(alive[rows, choice]):
                        raise ValueError(
                            f"policy {policy.name!r} chose a battery that is already empty"
                        )
                    decisions[deciding] += 1
                    serving[deciding] = choice
                    prev_choice[deciding] = choice
                    # The accumulator persists only when the same battery
                    # keeps serving at the same rate with no idle tick in
                    # between; any other transition restarts it (scalar
                    # ``disch_rate`` reset rule).
                    stale = (
                        (acc_b[deciding] != choice)
                        | (acc_cur[deciding] != cur_s[deciding])
                        | (acc_ct[deciding] != ct_s[deciding])
                    )
                    acc[deciding[stale]] = 0
                    acc_b[deciding] = choice
                    acc_cur[deciding] = cur_s[deciding]
                    acc_ct[deciding] = ct_s[deciding]
                    need_decide[deciding] = False
            if act.size == 0:
                break

            # ---- jump every scenario to one tick before its next event.
            recov_act = recov[act]
            m_act = m[act]
            live_rec = ~empty[act] & (m_act > 1)
            steps = tables[table_id[act], m_act]
            # A draw can raise m into a *shorter* equation-(6) step than the
            # ticks already accumulated; the scalar counter then fires on
            # the very next tick, so the distance is clamped at one.
            dt_rec = np.where(
                live_rec, np.maximum(steps - recov_act, 1), BIG
            ).min(axis=1)
            srv = serving[act]
            is_srv = srv >= 0
            cta = ct_s[act]
            cura = cur_s[act]
            acc_act = acc[act]
            dt_draw = np.where(
                is_srv, -((acc_act - cta) // np.maximum(cura, 1)), BIG
            )
            k = np.minimum(np.minimum(remaining[act], dt_rec), dt_draw)

            # ---- advance k ticks at once: the k-1 quiet ticks move every
            # counter linearly, and the k-th tick is the event tick with the
            # scalar tick's exact semantics.  Recovery first: every live
            # lane above one height unit counts k ticks, and a lane
            # reaching its equation-(6) step drops one unit (by the choice
            # of k this can only happen on the event tick itself).
            inc = recov_act + np.where(live_rec, k[:, None], 0)
            rec_hit = live_rec & (inc >= steps)
            m[act] = m_act - rec_hit
            recov[act] = np.where(rec_hit, 0, inc)
            acc_act = acc_act + np.where(is_srv, k * cura, 0)
            acc[act] = acc_act
            time_t[act] += k
            remaining[act] -= k

            # Discharge: the serving lane's accumulator gains ``cur`` per
            # tick; each time it reaches ``cur_times`` one unit moves from
            # n to m, with the per-mille emptiness criterion checked per
            # drawn unit.  Draws are events, so they land on the event tick.
            sv = act[is_srv]
            served_empty = np.zeros(sv.size, dtype=bool)
            if sv.size:
                bb = serving[sv]
                todo = np.flatnonzero(acc_act[is_srv] >= cta[is_srv])
                while todo.size:
                    lanes = sv[todo]
                    bsel = bb[todo]
                    nn = n[lanes, bsel]
                    mm = m[lanes, bsel]
                    crit_now = q[lanes, bsel] * mm >= cp[lanes, bsel] * nn
                    if crit_now.any():
                        # Already empty at the draw instant (defensive, like
                        # the scalar tick): observe, draw nothing further.
                        empty[lanes[crit_now], bsel[crit_now]] = True
                        served_empty[todo[crit_now]] = True
                    drew = ~crit_now
                    dl = lanes[drew]
                    if dl.size == 0:
                        break
                    db = bsel[drew]
                    n[dl, db] = nn[drew] - 1
                    m[dl, db] = mm[drew] + 1
                    acc[dl] -= ct_s[dl]
                    crit_after = q[dl, db] * m[dl, db] >= cp[dl, db] * n[dl, db]
                    if crit_after.any():
                        empty[dl[crit_after], db[crit_after]] = True
                        served_empty[todo[drew][crit_after]] = True
                    again = todo[drew][~crit_after]
                    todo = again[acc[sv[again]] >= ct_s[sv[again]]]

            # ---- post-tick: serving batteries observed empty this tick.
            if served_empty.any():
                hit = sv[served_empty]
                crit_all = q[hit] * m[hit] >= cp[hit] * n[hit]
                alive_after = ~empty[hit] & ~crit_all
                died = ~np.any(alive_after, axis=1)
                dead = hit[died]
                serving[hit] = -1
                if dead.size:
                    lifetime_t[dead] = time_t[dead]
                    active[dead] = False
                surv = hit[~died]
                if surv.size:
                    # Mid-job handover (Section 4.3): decide again before
                    # the next tick if the job has ticks left.
                    cont = surv[remaining[surv] > 0]
                    need_decide[cont] = True
                    switchover[cont] = True
                if dead.size:
                    act = act[active[act]]

        gamma = n * charge_unit
        delta = m * dp.height_unit
        survived = lifetime_t < 0
        lifetimes = np.where(survived, np.nan, lifetime_t * time_step)
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
