"""Vectorized NumPy kernels for the analytical KiBaM and the dKiBaM.

These kernels are the array-shaped counterpart of
:mod:`repro.kibam.analytical` and :func:`repro.kibam.lifetime.time_to_empty`.
A *batch state* is an array of shape ``(..., n_batteries, 2)`` whose last
axis holds the transformed coordinates ``(gamma, delta)`` of Section 2.2 of
the paper; the kernels advance every battery of every scenario in one NumPy
call instead of one Python call per battery per step.

Floating-point parity with the scalar path matters here: the scheduling
policies break ties on exact float equality of the available charge, so the
kernels evaluate the closed-form solutions with exactly the same operation
order as the scalar code.  The only intentional difference is the root
finder for the empty-crossing time: the scalar path uses Brent's method
(``xtol=rtol=1e-12``) while the batch path uses a fixed-point vectorized
bisection, both of which locate the crossing to well below 1e-10 minutes.

The *discrete* model (``model="discrete"``, Section 2.3's dKiBaM) is carried
by :class:`DiscreteKernelParams`: integer charge/height-unit counts, the
per-mille emptiness coefficients and the precomputed equation-(6) recovery
tables, one row per distinct battery parameter set, in either the shared
``(n_batteries,)`` or the per-scenario ``(n_scenarios, n_batteries)`` layout
of :class:`KernelParams`.  Here the parity bar is *exact*: the batch state
is integer charge units stepped by the same Bresenham draw accumulator as
:class:`repro.kibam.discrete.DiscreteKibam`, so batch and scalar dKiBaM
agree unit for unit and tick for tick, not merely to a float tolerance.
One kernel, :func:`discrete_segment_array`, advances those units for both
the batch simulator and the batched optimal search.
"""

from __future__ import annotations

import dataclasses
import functools
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.kibam.discrete import DiscreteKibam
from repro.kibam.parameters import BatteryParameters

#: Index of gamma (total charge) in the last axis of a batch state array.
GAMMA = 0
#: Index of delta (well height difference) in the last axis of a batch state.
DELTA = 1

#: Absolute accuracy (minutes) to which the crossing time is located; the
#: scalar Brent solver runs at ``xtol=1e-12``, so both paths sit orders of
#: magnitude below the 1e-9 equivalence budget.
_ROOT_TOL = 1e-12
#: Hard iteration cap for the safeguarded Newton solve (bisection steps are
#: taken whenever Newton leaves the bracket, so 80 halvings always suffice).
_ROOT_MAX_ITER = 80


@dataclasses.dataclass(frozen=True)
class KernelParams:
    """KiBaM parameters in array form.

    Two shapes are supported, distinguished by :attr:`per_scenario`:

    * ``(n_batteries,)`` -- one battery set *shared* by every scenario of a
      batch (the original engine contract); the arrays broadcast against
      ``(n_scenarios, n_batteries)`` state slices.
    * ``(n_scenarios, n_batteries)`` -- one battery set *per scenario*, the
      parameter-sweep lever: every scenario lane may carry its own
      capacity/c/k' triple and the kernels stay a single NumPy call.

    The shared form is left untouched by the lane-alignment helpers
    (:meth:`take`), so the floating-point operation order of
    shared-parameter batches is bit-identical to the pre-sweep engine.
    """

    capacity: np.ndarray
    c: np.ndarray
    k_prime: np.ndarray

    @staticmethod
    def from_parameters(params: Sequence[BatteryParameters]) -> "KernelParams":
        if not params:
            raise ValueError("at least one battery parameter set is required")
        return KernelParams(
            capacity=np.array([p.capacity for p in params], dtype=np.float64),
            c=np.array([p.c for p in params], dtype=np.float64),
            k_prime=np.array([p.k_prime for p in params], dtype=np.float64),
        )

    @staticmethod
    def from_parameter_rows(
        rows: Sequence[Sequence[BatteryParameters]],
    ) -> "KernelParams":
        """Per-scenario parameters: one row of battery sets per scenario."""
        if not rows:
            raise ValueError("at least one scenario parameter row is required")
        widths = {len(row) for row in rows}
        if widths == {0}:
            raise ValueError("at least one battery parameter set is required")
        if len(widths) != 1:
            raise ValueError(
                f"every scenario needs the same number of batteries, got row "
                f"widths {sorted(widths)}"
            )
        return KernelParams(
            capacity=np.array([[p.capacity for p in row] for row in rows]),
            c=np.array([[p.c for p in row] for row in rows]),
            k_prime=np.array([[p.k_prime for p in row] for row in rows]),
        )

    @property
    def per_scenario(self) -> bool:
        """Whether the parameters vary along a scenario axis."""
        return self.capacity.ndim == 2

    @property
    def n_batteries(self) -> int:
        return self.capacity.shape[-1]

    @property
    def n_scenarios(self) -> "int | None":
        """Scenario count of per-scenario parameters, ``None`` when shared."""
        return self.capacity.shape[0] if self.per_scenario else None

    def take(self, lanes: np.ndarray) -> "KernelParams":
        """Parameters row-aligned with the given scenario lanes.

        Shared parameters broadcast against any lane subset, so they are
        returned as-is (preserving the exact pre-sweep operation order);
        per-scenario parameters are row-indexed.
        """
        if not self.per_scenario:
            return self
        return KernelParams(
            capacity=self.capacity[lanes],
            c=self.c[lanes],
            k_prime=self.k_prime[lanes],
        )

    def battery(self, choice: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """The ``(c, k_prime)`` of one chosen battery per row, shape ``(K,)``.

        ``self`` must already be row-aligned with ``choice`` (via
        :meth:`take` for per-scenario parameters).
        """
        if self.per_scenario:
            rows = np.arange(choice.shape[0])
            return self.c[rows, choice], self.k_prime[rows, choice]
        return self.c[choice], self.k_prime[choice]

    def discretize(
        self, time_step: float = 0.01, charge_unit: float = 0.01
    ) -> "DiscreteKernelParams":
        """The dKiBaM form of these parameters (``model="discrete"``)."""
        return DiscreteKernelParams.from_kernel_params(
            self, time_step=time_step, charge_unit=charge_unit
        )


#: Recovery-table sentinel: an entry no tick counter ever reaches (the
#: scalar table uses ``2**62`` for the non-recovering heights 0 and 1).
DISCRETE_UNREACHABLE = 2**62


@dataclasses.dataclass(frozen=True)
class DiscreteKernelParams:
    """dKiBaM parameters in array form, shaped like :class:`KernelParams`.

    All per-battery arrays follow the same two layouts as the analytical
    parameters: ``(n_batteries,)`` shared by every scenario, or
    ``(n_scenarios, n_batteries)`` per-scenario.  The integer tables are
    built through the scalar :class:`repro.kibam.discrete.DiscreteKibam`
    (one instance per distinct parameter triple), so every derived quantity
    -- unit counts, per-mille coefficients, equation-(6) recovery ticks,
    the ``Gamma / c`` height unit -- is byte-identical to what the scalar
    reference computes.

    Attributes:
        time_step: tick length ``T`` in minutes.
        charge_unit: charge unit ``Gamma`` in Amin.
        total_units: full-charge unit count ``N`` per battery lane (int64).
        c_permille: integer per-mille ``c`` per lane (equation (8)'s form).
        c: float ``c`` per lane (for the policy-facing available charge).
        height_unit: height-difference step ``Gamma / c`` per lane (Amin).
        tables: recovery tick tables, shape ``(n_distinct, max_len)``,
            padded with :data:`DISCRETE_UNREACHABLE`; ``tables[k, m]`` is
            the number of ticks for the height difference to drop from
            ``m`` to ``m - 1`` units under parameter set ``k``.
        table_id: per-lane row index into ``tables`` (int64).
    """

    time_step: float
    charge_unit: float
    total_units: np.ndarray
    c_permille: np.ndarray
    c: np.ndarray
    height_unit: np.ndarray
    tables: np.ndarray
    table_id: np.ndarray

    @staticmethod
    def from_kernel_params(
        kp: KernelParams, time_step: float = 0.01, charge_unit: float = 0.01
    ) -> "DiscreteKernelParams":
        shape = kp.capacity.shape
        triples = np.stack(
            [
                kp.capacity.reshape(-1),
                kp.c.reshape(-1),
                kp.k_prime.reshape(-1),
            ],
            axis=1,
        )
        distinct: Dict[Tuple[float, float, float], int] = {}
        models: List[DiscreteKibam] = []
        table_id = np.zeros(triples.shape[0], dtype=np.int64)
        for lane, (capacity, c, k_prime) in enumerate(triples):
            key = (float(capacity), float(c), float(k_prime))
            if key not in distinct:
                distinct[key] = len(models)
                models.append(
                    DiscreteKibam(
                        BatteryParameters(capacity=key[0], c=key[1], k_prime=key[2]),
                        time_step=time_step,
                        charge_unit=charge_unit,
                    )
                )
            table_id[lane] = distinct[key]
        max_len = max(len(model.recovery_steps) for model in models)
        tables = np.full((len(models), max_len), DISCRETE_UNREACHABLE, dtype=np.int64)
        for row, model in enumerate(models):
            tables[row, : len(model.recovery_steps)] = model.recovery_steps
        flat_ids = table_id
        return DiscreteKernelParams(
            time_step=time_step,
            charge_unit=charge_unit,
            total_units=np.array(
                [models[i].total_units for i in flat_ids], dtype=np.int64
            ).reshape(shape),
            c_permille=np.array(
                [models[i].c_permille for i in flat_ids], dtype=np.int64
            ).reshape(shape),
            c=kp.c.astype(np.float64, copy=True),
            height_unit=np.array(
                [models[i].height_unit for i in flat_ids], dtype=np.float64
            ).reshape(shape),
            tables=tables,
            table_id=flat_ids.reshape(shape),
        )

    @functools.cached_property
    def recovery_prefix(self) -> np.ndarray:
        """Cumulative equation-(6) recovery ticks of :attr:`tables`, rows stacked.

        ``recovery_prefix[k, j] - recovery_prefix[k, i]`` (``1 <= i <= j``)
        is the number of idle ticks the height difference needs to fall
        from ``j`` to ``i`` units under parameter set ``k``.  Heights 0 and
        1 never recover and add nothing; the :data:`DISCRETE_UNREACHABLE`
        padding past a shorter row's heights (which no lane of that row
        reaches) counts one tick each, so the sums stay far from overflow.
        Row ``k`` is offset by ``k`` times a stride above every row's total,
        so the flattened table is sorted and one ``searchsorted`` serves
        lanes of every row at once.  Derived once per parameter set.
        """
        heights = np.arange(self.tables.shape[1])
        steps = np.where(self.tables >= DISCRETE_UNREACHABLE, 1, self.tables)
        sums = np.cumsum(np.where(heights >= 2, steps, 0), axis=1)
        stride = int(sums[:, -1].max()) + 1
        rows = np.arange(self.tables.shape[0], dtype=np.int64)
        return sums + stride * rows[:, None]

    @property
    def per_scenario(self) -> bool:
        return self.total_units.ndim == 2

    @property
    def n_batteries(self) -> int:
        return self.total_units.shape[-1]

    @property
    def n_scenarios(self) -> "int | None":
        return self.total_units.shape[0] if self.per_scenario else None

    def for_lanes(self, lane_scenario: np.ndarray) -> "DiscreteKernelParams":
        """Per-lane arrays materialized to ``(n_lanes, n_batteries)``.

        The batch dKiBaM loop indexes lanes with fancy ``(lane, battery)``
        pairs, which needs concrete 2-D arrays: shared parameters are
        broadcast to every lane, per-scenario parameters are row-indexed by
        the lane -> scenario map ``lane_scenario``.
        """
        if self.per_scenario:
            return DiscreteKernelParams(
                time_step=self.time_step,
                charge_unit=self.charge_unit,
                total_units=self.total_units[lane_scenario],
                c_permille=self.c_permille[lane_scenario],
                c=self.c[lane_scenario],
                height_unit=self.height_unit[lane_scenario],
                tables=self.tables,
                table_id=self.table_id[lane_scenario],
            )
        shape = (lane_scenario.shape[0], self.n_batteries)

        def spread(array: np.ndarray) -> np.ndarray:
            return np.ascontiguousarray(np.broadcast_to(array[None, :], shape))

        return DiscreteKernelParams(
            time_step=self.time_step,
            charge_unit=self.charge_unit,
            total_units=spread(self.total_units),
            c_permille=spread(self.c_permille),
            c=spread(self.c),
            height_unit=spread(self.height_unit),
            tables=self.tables,
            table_id=spread(self.table_id),
        )


def initial_state_array(kp: KernelParams, n_scenarios: int) -> np.ndarray:
    """Fully charged batch state of shape ``(n_scenarios, n_batteries, 2)``."""
    if n_scenarios < 1:
        raise ValueError("n_scenarios must be at least 1")
    if kp.per_scenario and kp.n_scenarios != n_scenarios:
        raise ValueError(
            f"per-scenario parameters cover {kp.n_scenarios} scenarios, "
            f"but the batch has {n_scenarios}"
        )
    state = np.zeros((n_scenarios, kp.n_batteries, 2), dtype=np.float64)
    state[:, :, GAMMA] = kp.capacity if kp.per_scenario else kp.capacity[None, :]
    return state


def step_constant_current_array(
    kp: KernelParams,
    state: np.ndarray,
    currents: np.ndarray,
    durations: np.ndarray,
) -> np.ndarray:
    """Advance a batch state by per-element constant-current spans.

    Args:
        kp: battery parameters (``(n_batteries,)`` arrays).
        state: batch state, shape ``(..., n_batteries, 2)``.
        currents: discharge current per battery, broadcastable to
            ``(..., n_batteries)``; zero means idle/recovery.
        durations: span length per scenario (or per battery), broadcastable
            to ``(..., n_batteries)``; must be non-negative.

    Returns:
        A new batch state array.  Note that a zero duration is *not* an
        exact no-op in floating point (``delta_inf + (delta - delta_inf)``
        can differ from ``delta`` in the last ulp); callers that need to
        freeze a lane should mask it out instead of passing duration 0.
    """
    gamma = state[..., GAMMA]
    delta = state[..., DELTA]
    decay = np.exp(-kp.k_prime * durations)
    delta_inf = currents / (kp.c * kp.k_prime)
    new = np.empty_like(state)
    new[..., DELTA] = delta_inf + (delta - delta_inf) * decay
    new[..., GAMMA] = gamma - currents * durations
    return new


def empty_margin_array(kp: KernelParams, state: np.ndarray) -> np.ndarray:
    """Signed distance to the empty condition, ``gamma - (1 - c) * delta``.

    Zero or negative means empty (equation (3) of the paper).
    """
    return state[..., GAMMA] - (1.0 - kp.c) * state[..., DELTA]


def available_charge_array(kp: KernelParams, state: np.ndarray) -> np.ndarray:
    """Available-well charge ``max(0, c * (gamma - (1 - c) * delta))``.

    Clamped at zero exactly like
    :meth:`repro.core.battery.AnalyticalBattery.available_charge`, whose
    values the scheduling policies compare (and tie-break) on.
    """
    return np.maximum(
        0.0, kp.c * (state[..., GAMMA] - (1.0 - kp.c) * state[..., DELTA])
    )


def total_charge_array(state: np.ndarray) -> np.ndarray:
    """Total charge left per battery, clamped at zero (``max(0, gamma)``)."""
    return np.maximum(0.0, state[..., GAMMA])


def _margin_at(
    c: np.ndarray,
    k_prime: np.ndarray,
    gamma: np.ndarray,
    delta: np.ndarray,
    current: np.ndarray,
    t: np.ndarray,
) -> np.ndarray:
    """Empty margin after discharging for ``t`` minutes at ``current``."""
    decay = np.exp(-k_prime * t)
    delta_inf = current / (c * k_prime)
    new_delta = delta_inf + (delta - delta_inf) * decay
    new_gamma = gamma - current * t
    return new_gamma - (1.0 - c) * new_delta


def time_to_empty_array(
    c: np.ndarray,
    k_prime: np.ndarray,
    gamma: np.ndarray,
    delta: np.ndarray,
    current: np.ndarray,
    horizon: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Vectorized time until the empty condition at constant current.

    All arguments are flat float64 arrays of a common shape; each element is
    an independent battery.  Semantics match
    :func:`repro.kibam.lifetime.time_to_empty` with a horizon:

    * an element whose margin is already non-positive crosses at ``0.0``,
    * a non-positive current never crosses (idle only recovers),
    * otherwise the crossing is searched in ``[0, min(gamma/I, horizon)]``
      and reported only if the margin at the bracket end is non-positive.

    Returns:
        ``(crossing, crossed)`` where ``crossed`` is a boolean mask and
        ``crossing`` holds the crossing times (NaN where ``crossed`` is
        False).
    """
    gamma = np.asarray(gamma, dtype=np.float64)
    crossing = np.full(gamma.shape, np.nan)
    crossed = np.zeros(gamma.shape, dtype=bool)

    margin0 = gamma - (1.0 - c) * delta
    already = margin0 <= 0.0
    crossing[already] = 0.0
    crossed[already] = True

    searching = (~already) & (current > 0.0)
    if not np.any(searching):
        return crossing, crossed

    idx = np.flatnonzero(searching)
    c_s = np.broadcast_to(c, gamma.shape)[idx]
    k_s = np.broadcast_to(k_prime, gamma.shape)[idx]
    g_s = gamma[idx]
    d_s = np.asarray(delta, dtype=np.float64)[idx]
    i_s = np.asarray(current, dtype=np.float64)[idx]
    h_s = np.broadcast_to(horizon, gamma.shape)[idx]

    # Hard upper bound: even if every unit of charge were available the
    # battery would be flat after gamma / current minutes.
    upper = np.minimum(g_s / i_s, h_s)
    margin_up = _margin_at(c_s, k_s, g_s, d_s, i_s, upper)
    hit = margin_up <= 0.0
    if not np.any(hit):
        return crossing, crossed

    # Newton iteration on the strictly decreasing margin, safeguarded by the
    # bracket [lo, hi] with margin(lo) > 0 >= margin(hi): any Newton step
    # that leaves the bracket (or divides by a vanishing derivative) is
    # replaced by a bisection step, so convergence is guaranteed and in
    # practice takes a handful of iterations.
    sub = np.flatnonzero(hit)
    lo = np.zeros(sub.shape[0])
    hi = upper[sub]
    k_b, g_b, i_b = k_s[sub], g_s[sub], i_s[sub]
    # The margin in Horner-friendly form: f(t) = g - i*t - a - b*exp(-k*t)
    # with a = (1-c)*delta_inf and b = (1-c)*(delta - delta_inf), so the
    # derivative is f'(t) = -i + k*b*exp(-k*t).
    delta_inf = i_b / (c_s[sub] * k_b)
    a = (1.0 - c_s[sub]) * delta_inf
    b = (1.0 - c_s[sub]) * (d_s[sub] - delta_inf)
    kb = k_b * b
    # Secant start from the known bracket values f(0) = margin0 > 0 and
    # f(upper) = margin_up <= 0: the margin is close to linear over a span
    # (the exponential's curvature is mild at KiBaM rate constants), so this
    # lands near the root and Newton converges in a handful of iterations.
    m0 = margin0[idx[sub]]
    mu = margin_up[sub]
    t = hi * (m0 / (m0 - mu))
    t = np.where((t > lo) & (t < hi), t, 0.5 * (lo + hi))
    # Each row stops at its own convergence: a converged row keeps its
    # iterate while the others go on, so a row's crossing never depends on
    # which other rows share the call (a one-row call gives the same bits).
    frozen = np.zeros(t.shape[0], dtype=bool)
    neg_k = -k_b
    with np.errstate(divide="ignore", invalid="ignore"):
        for iteration in range(_ROOT_MAX_ITER):
            decay = np.exp(neg_k * t)
            f = g_b - i_b * t - a - b * decay
            positive = f > 0.0
            lo = np.where(positive, t, lo)
            hi = np.where(positive, hi, t)
            t_new = t - f / (kb * decay - i_b)
            inside = (t_new > lo) & (t_new < hi)
            t_new = np.where(inside, t_new, 0.5 * (lo + hi))
            # Skip the convergence checks while Newton is still far from
            # its quadratic basin; afterwards one check per iteration.
            if iteration < 2:
                t = t_new
                continue
            converged = (np.abs(t_new - t) <= _ROOT_TOL) | (hi - lo <= _ROOT_TOL)
            t = np.where(frozen, t, t_new)
            frozen |= converged
            if frozen.all():
                break
    out = idx[sub]
    crossing[out] = t
    crossed[out] = True
    return crossing, crossed


# --------------------------------------------------------------------- #
# exact vectorized dKiBaM segment
# --------------------------------------------------------------------- #
#: Ticks a serving lane looks ahead, per kernel iteration, for its next
#: equation-(6) recovery step; a lane with none in sight advances the whole
#: window in closed form and looks again.
_SERVE_WINDOW = 32
_WINDOW_TICKS = np.arange(1, _SERVE_WINDOW + 1, dtype=np.int64)


def _draws_to_empty(n, m, c_permille):
    """Draws until equation (8) holds: ``<= 0`` when it already does.

    The per-mille rule ``(1000 - c)·m >= c·n`` after ``d`` more draws
    (``n - d``, ``m + d``) reads ``1000·d >= c·n - (1000 - c)·m``, so the
    emptying draw is ``ceil((c·n - (1000 - c)·m) / 1000)``.  This is the
    engine's one statement of the emptiness rule: the segment kernel's
    draws, the batch simulator's alive masks and the batched search's
    :meth:`repro.engine.optimal_batch._DiscreteModel.alive` all read it.  A
    lane whose count is ``<= 0`` is observed empty at its next draw instant
    and draws nothing.
    """
    return -(((1000 - c_permille) * m - c_permille * n) // 1000)


def _recover_idle(tables, prefix, row, m, recov, ticks):
    """``ticks`` idle ticks of equation-(6) recovery, every step at once.

    The first step down from ``m`` fires after ``max(tables[row, m] -
    recov, 1)`` ticks (a draw can raise ``m`` into a step shorter than the
    counter already holds); each later step takes its full table entry, so
    the height reached is one ``searchsorted`` over the stacked prefix sums
    of :attr:`DiscreteKernelParams.recovery_prefix`.  Heights of one unit or
    less never recover and leave the counter as it is.
    """
    live = m > 1
    first = np.maximum(tables[row, m] - recov, 1)
    m_out = m.copy()
    recov_out = np.where(live, recov + ticks, recov)
    fires = np.flatnonzero(live & (ticks >= first))
    if fires.size:
        r, top, first, ticks = row[fires], m[fires] - 1, first[fires], ticks[fires]
        # Falling from m to height h takes first + P[m-1] - P[h] ticks; the
        # lowest height h >= 1 within ``ticks`` is the first P[h] >= target.
        target = np.maximum(prefix[r, top] + first - ticks, prefix[r, 0])
        height = np.maximum(
            np.searchsorted(prefix.ravel(), target) - r * prefix.shape[1], 1
        )
        used = first + prefix[r, top] - prefix[r, height]
        m_out[fires] = height
        recov_out[fires] = np.where(height > 1, ticks - used, 0)
    return m_out, recov_out


def discrete_segment_array(
    tables: np.ndarray,
    prefix: np.ndarray,
    table_row: np.ndarray,
    c_permille: np.ndarray,
    n: np.ndarray,
    m: np.ndarray,
    recov: np.ndarray,
    acc: np.ndarray,
    rate_cur: np.ndarray,
    rate_ct: np.ndarray,
    cur: np.ndarray,
    cur_times: np.ndarray,
    ticks: np.ndarray,
) -> Tuple[np.ndarray, ...]:
    """Run one constant-current dKiBaM segment on a flat batch of lanes.

    This is the lane-parallel, closed-form counterpart of
    :meth:`repro.kibam.discrete.DiscreteKibam.run_segment`: every lane is
    one *independent* battery advancing ``ticks[i]`` ticks at the integer
    discharge rate ``cur[i]`` units per ``cur_times[i]`` ticks (``cur == 0``
    idles), with the exact scalar semantics: recovery before discharge
    within a tick, the Bresenham accumulator (restarted by the first idle
    tick or by a rate change, the scalar ``disch_rate`` rule), and the
    per-mille emptiness criterion per drawn unit (:func:`_draws_to_empty`).
    The batch simulator and the batched search both advance their dKiBaM
    batteries through it.

    * **Idle lanes** take every recovery step of the segment at once
      (:func:`_recover_idle`).
    * **Serving lanes** loop, but one iteration per equation-(6) recovery
      step rather than per event.  Draw times do not depend on ``m`` (the
      accumulator gains ``cur`` per tick), so the draws of the next
      :data:`_SERVE_WINDOW` ticks are known in advance, and with them the
      height each tick starts at and the first tick whose recovery counter
      reaches its table step.  The quiet ticks before that tick are applied
      in closed form -- their emptying draw, if any, directly -- and the
      event tick replays the scalar order: recovery first, then its draws.

    ``tables`` and ``prefix`` are a :class:`DiscreteKernelParams`'
    ``tables`` and ``recovery_prefix``; ``table_row`` picks each lane's
    row.  All state arguments are 1-D ``int64`` arrays of a common length
    and are not modified; returns the updated ``(n, m, recov, acc,
    rate_cur, rate_ct)`` plus ``empty_tick`` -- the 1-based tick at which a
    lane was observed empty, or ``-1`` (idle lanes and survivors).  Lanes
    observed empty stop advancing at that tick, exactly like the scalar
    segment.
    """
    n = n.copy()
    m = m.copy()
    recov = recov.copy()
    acc = acc.copy()
    rate_cur = rate_cur.copy()
    rate_ct = rate_ct.copy()
    ticks = np.asarray(ticks, dtype=np.int64)
    empty_tick = np.full(n.shape[0], -1, dtype=np.int64)

    started = ticks > 0
    serving = (cur > 0) & started
    idle = (cur == 0) & started
    # The first idle tick resets the draw accumulator; the first serving
    # tick restarts it when the rate changed (scalar ``disch_rate`` rule).
    acc[idle] = 0
    rate_cur[idle] = 0
    rate_ct[idle] = 1
    stale = serving & ((rate_cur != cur) | (rate_ct != cur_times))
    acc[stale] = 0
    rate_cur[serving] = cur[serving]
    rate_ct[serving] = cur_times[serving]

    lanes = np.flatnonzero(idle)
    if lanes.size:
        m[lanes], recov[lanes] = _recover_idle(
            tables, prefix, table_row[lanes], m[lanes], recov[lanes], ticks[lanes]
        )

    # One row per quantity, one column per unfinished serving lane; finished
    # lanes are written back and dropped, so each iteration works on the
    # lanes still running.
    lanes = np.flatnonzero(serving)
    width = tables.shape[1]
    work = np.stack(
        [
            n[lanes], m[lanes], recov[lanes], acc[lanes], ticks[lanes],
            np.zeros(lanes.size, dtype=np.int64),
            cur[lanes], cur_times[lanes], table_row[lanes] * width,
            c_permille[lanes], lanes,
        ]
    )
    flat_tables = tables.ravel()
    while work.shape[1]:
        n_, m_, rec, acc_, left, elapsed, cur_, ct, row_start, cp, lane = work
        # Draws before window tick t (none before tick 1), hence the height
        # each tick starts at; recovery counts only ticks starting above 1.
        # The (lanes x window) arrays dominate the kernel's memory: they are
        # built in place, at most two at a time, and dropped before the
        # next iteration allocates its own.
        window = np.multiply(cur_[:, None], _WINDOW_TICKS - 1)
        window += acc_[:, None]
        window //= ct[:, None]
        window[:, 0] = 0
        window += m_[:, None]
        counting = window > 1
        waiting = _SERVE_WINDOW - np.count_nonzero(counting, axis=1)
        np.minimum(window, width - 1, out=window)
        window += row_start[:, None]
        steps = flat_tables.take(window)
        np.subtract(_WINDOW_TICKS, waiting[:, None], out=window)
        np.maximum(window, 0, out=window)
        window += rec[:, None]
        fire = window >= steps
        del window, steps
        fire &= counting
        fire &= _WINDOW_TICKS <= left[:, None]
        event = fire.any(axis=1)
        quiet = np.where(event, fire.argmax(axis=1), np.minimum(left, _SERVE_WINDOW))
        del fire, counting

        # The quiet ticks only draw; a lane reaching its emptying draw
        # among them stops at that draw's tick.
        drawn = np.where(quiet > 0, (acc_ + cur_ * quiet) // ct, 0)
        need = _draws_to_empty(n_, m_, cp)
        fatal = np.maximum(need, 1)
        emptied = drawn >= fatal
        span = np.where(
            emptied, np.maximum(-((acc_ - fatal * ct) // cur_), 1), quiet
        )
        done = np.where(emptied, np.maximum(need, 0), drawn)
        n_ -= done
        m_ += done
        acc_ += cur_ * span - ct * done
        rec += np.maximum(span - waiting, 0)

        # The event tick: the recovery step, then that tick's draws.
        event &= ~emptied
        m_ -= event
        rec *= ~event
        acc_ += cur_ * event
        span += event
        need = _draws_to_empty(n_, m_, cp)
        due = np.where(event, acc_ // ct, 0)
        hit = due >= np.maximum(need, 1)
        done = np.where(hit, np.maximum(need, 0), due)
        n_ -= done
        m_ += done
        acc_ -= ct * done
        emptied |= hit
        elapsed += span
        left -= span

        finished = emptied | (left == 0)
        if finished.any():
            out = lane[finished]
            n[out], m[out], recov[out], acc[out] = (
                n_[finished], m_[finished], rec[finished], acc_[finished]
            )
            empty_tick[lane[emptied]] = elapsed[emptied]
            work = work[:, ~finished]
    return n, m, recov, acc, rate_cur, rate_ct, empty_tick
