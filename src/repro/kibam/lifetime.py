"""Lifetime solvers for the analytical KiBaM.

The lifetime of a battery is the time from full charge until the empty
condition ``gamma(t) = (1 - c) * delta(t)`` first holds.  For a constant
current the crossing point of the transcendental equation is bracketed and
solved with Brent's method; for piecewise-constant loads the state is
stepped analytically segment by segment and the crossing is located inside
the segment where it occurs.
"""

from __future__ import annotations

import math
from typing import Iterable, List, Optional, Sequence, Tuple

from repro.kibam.analytical import (
    KibamState,
    initial_state,
    is_empty,
    step_constant_current,
)
from repro.kibam.parameters import BatteryParameters

#: A load segment: (current in Ampere, duration in minutes).
Segment = Tuple[float, float]


def _brentq(*args, **kwargs):
    """``scipy.optimize.brentq``, imported on the first call.

    SciPy is slow to import and ``import repro`` does not load it; the
    first call rebinds this module global to SciPy's function, so later
    calls reach it directly.
    """
    global _brentq
    from scipy.optimize import brentq

    _brentq = brentq
    return brentq(*args, **kwargs)


def _empty_margin(params: BatteryParameters, state: KibamState) -> float:
    """Signed distance to the empty condition; zero or negative means empty."""
    return state.gamma - (1.0 - params.c) * state.delta


def time_to_empty(
    params: BatteryParameters,
    state: KibamState,
    current: float,
    horizon: Optional[float] = None,
) -> Optional[float]:
    """Time until the empty condition is reached at constant ``current``.

    Args:
        params: battery parameters.
        state: state at time zero.
        current: constant discharge current in Ampere (may be zero).
        horizon: if given, only look for a crossing within ``[0, horizon]``.

    Returns:
        The crossing time in minutes, or ``None`` if the battery does not
        become empty within the horizon (always the case for zero current
        on a non-empty battery).
    """
    if _empty_margin(params, state) <= 0.0:
        return 0.0
    if current <= 0.0:
        # During idle periods gamma is constant and delta only decays, so the
        # margin can never decrease: the battery cannot become empty.
        return None

    def margin_at(t: float) -> float:
        return _empty_margin(params, step_constant_current(params, state, current, t))

    # A hard upper bound: even if every unit of charge were available, the
    # battery would be flat after gamma / current minutes.
    upper = state.gamma / current
    if horizon is not None:
        upper = min(upper, horizon)
        if margin_at(upper) > 0.0:
            return None
    # The margin is strictly decreasing in time for positive current, so a
    # sign change over [0, upper] brackets the unique root.  Guard against
    # the pathological case where the bound itself is the root.
    if margin_at(upper) > 0.0:
        # Expand the bracket slightly; can only happen through floating
        # point noise when the crossing is exactly at ``upper``.
        upper = upper * (1.0 + 1e-12) + 1e-12
    return float(_brentq(margin_at, 0.0, upper, xtol=1e-12, rtol=1e-12))


def lifetime_constant_current(params: BatteryParameters, current: float) -> float:
    """Lifetime of a fully charged battery under a constant discharge current."""
    if current <= 0.0:
        raise ValueError(f"current must be positive, got {current}")
    result = time_to_empty(params, initial_state(params), current)
    assert result is not None  # positive current always empties the battery
    return result


def lifetime_under_segments(
    params: BatteryParameters,
    segments: Iterable[Segment],
    state: Optional[KibamState] = None,
) -> Optional[float]:
    """Lifetime of a battery under a piecewise-constant load.

    Args:
        params: battery parameters.
        segments: iterable of ``(current, duration)`` pairs in Ampere and
            minutes, applied in order.
        state: optional starting state (defaults to a fully charged battery).

    Returns:
        The time at which the battery becomes empty, or ``None`` if it
        survives the whole load.
    """
    current_state = state if state is not None else initial_state(params)
    elapsed = 0.0
    for current, duration in segments:
        if duration < 0.0:
            raise ValueError(f"segment duration must be non-negative, got {duration}")
        if current < 0.0:
            raise ValueError(f"segment current must be non-negative, got {current}")
        crossing = time_to_empty(params, current_state, current, horizon=duration)
        if crossing is not None:
            return elapsed + crossing
        current_state = step_constant_current(params, current_state, current, duration)
        elapsed += duration
    if is_empty(params, current_state, tolerance=1e-12):
        return elapsed
    return None


def trace_under_segments(
    params: BatteryParameters,
    segments: Sequence[Segment],
    sample_interval: float = 0.05,
    stop_when_empty: bool = True,
) -> List[Tuple[float, KibamState]]:
    """Sample the state evolution under a piecewise-constant load.

    Returns a list of ``(time, state)`` samples taken every
    ``sample_interval`` minutes (plus every segment boundary), suitable for
    plotting charge curves such as Figure 6 of the paper.
    """
    if sample_interval <= 0.0:
        raise ValueError("sample_interval must be positive")
    samples: List[Tuple[float, KibamState]] = []
    state = initial_state(params)
    elapsed = 0.0
    samples.append((elapsed, state))
    for current, duration in segments:
        remaining = duration
        while remaining > 1e-12:
            step = min(sample_interval, remaining)
            state = step_constant_current(params, state, current, step)
            elapsed += step
            remaining -= step
            samples.append((elapsed, state))
            if stop_when_empty and is_empty(params, state):
                return samples
    return samples


def delivered_charge(
    params: BatteryParameters,
    segments: Iterable[Segment],
) -> float:
    """Total charge (Amin) drawn from a full battery before it goes empty.

    This quantifies the rate-capacity effect: at higher currents the battery
    goes empty with more charge still bound, so the delivered charge drops.
    """
    state = initial_state(params)
    total = 0.0
    for current, duration in segments:
        crossing = time_to_empty(params, state, current, horizon=duration)
        if crossing is not None:
            return total + current * crossing
        state = step_constant_current(params, state, current, duration)
        total += current * duration
    return total


def residual_charge_fraction(
    params: BatteryParameters,
    segments: Sequence[Segment],
) -> Optional[float]:
    """Fraction of capacity left in the battery at the moment it goes empty.

    Section 6 of the paper observes that for the B1 batteries roughly 70 %
    of the original charge is still bound when the system dies, and that the
    fraction shrinks when the capacity grows.  Returns ``None`` when the
    battery survives the load.
    """
    state = initial_state(params)
    for current, duration in segments:
        crossing = time_to_empty(params, state, current, horizon=duration)
        if crossing is not None:
            final = step_constant_current(params, state, current, crossing)
            return max(final.gamma, 0.0) / params.capacity
        state = step_constant_current(params, state, current, duration)
    return None


def gain_over_linear(params: BatteryParameters, current: float) -> float:
    """Ratio of the ideal (linear) lifetime to the KiBaM lifetime.

    The ideal battery delivers its full capacity at any rate, so the ratio
    ``(C / I) / lifetime`` expresses how strongly the rate-capacity effect
    penalises the given current (always >= 1).
    """
    ideal = params.capacity / current
    return ideal / lifetime_constant_current(params, current)


def peukert_exponent_estimate(
    params: BatteryParameters,
    low_current: float,
    high_current: float,
) -> float:
    """Estimate an effective Peukert exponent from two constant-current runs.

    Peukert's empirical law states ``I^n * t = const``.  Fitting the KiBaM
    lifetimes at two currents gives an effective exponent that quantifies
    the rate-capacity effect; for an ideal battery the exponent is 1.
    """
    if not 0.0 < low_current < high_current:
        raise ValueError("currents must satisfy 0 < low_current < high_current")
    t_low = lifetime_constant_current(params, low_current)
    t_high = lifetime_constant_current(params, high_current)
    return math.log(t_low / t_high) / math.log(high_current / low_current)
