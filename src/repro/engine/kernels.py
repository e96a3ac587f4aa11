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
