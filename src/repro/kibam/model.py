"""The original two-well KiBaM ODE (Section 2.1) integrated numerically.

This module keeps the untransformed formulation of the Kinetic Battery
Model,

.. math::

    \\frac{dy_1}{dt} = -i(t) + k (h_2 - h_1), \\qquad
    \\frac{dy_2}{dt} = -k (h_2 - h_1),

with ``h1 = y1 / c`` and ``h2 = y2 / (1 - c)``.  It is integrated with
scipy's ``solve_ivp`` and exists primarily as an independent reference
implementation: the analytical stepping of :mod:`repro.kibam.analytical`
is validated against it in the test suite, and it accepts arbitrary
time-varying current functions, not only piecewise-constant loads.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from repro.kibam.analytical import KibamState
from repro.kibam.parameters import BatteryParameters
from repro.kibam.transformed import from_wells, to_wells

CurrentFunction = Callable[[float], float]


def _solve_ivp(*args, **kwargs):
    """``scipy.integrate.solve_ivp``, imported on the first call.

    SciPy is slow to import and ``import repro`` does not load it; the
    first call rebinds this module global to SciPy's function.
    """
    global _solve_ivp
    from scipy.integrate import solve_ivp

    _solve_ivp = solve_ivp
    return solve_ivp(*args, **kwargs)


class TwoWellKibam:
    """Numerical integrator for the two-well KiBaM ODE.

    Args:
        params: battery parameters.
        rtol: relative tolerance passed to ``solve_ivp``.
        atol: absolute tolerance passed to ``solve_ivp``.
    """

    def __init__(
        self,
        params: BatteryParameters,
        rtol: float = 1e-9,
        atol: float = 1e-12,
    ) -> None:
        self.params = params
        self.rtol = rtol
        self.atol = atol

    def _rhs(self, current: CurrentFunction) -> Callable[[float, np.ndarray], np.ndarray]:
        c = self.params.c
        k = self.params.k
        def rhs(t: float, y: np.ndarray) -> np.ndarray:
            y1, y2 = y
            flow = k * (y2 / (1.0 - c) - y1 / c)
            return np.array([-current(t) + flow, -flow])
        return rhs

    def initial_wells(self) -> Tuple[float, float]:
        """Initial well charges ``(y1, y2) = (c * C, (1 - c) * C)``."""
        return self.params.available_capacity, self.params.bound_capacity

    def integrate(
        self,
        current: CurrentFunction,
        duration: float,
        initial: Optional[Tuple[float, float]] = None,
        max_step: Optional[float] = None,
    ) -> Tuple[float, float]:
        """Integrate the ODE for ``duration`` minutes and return final wells.

        Args:
            current: function mapping time (minutes) to current (Ampere).
            duration: integration horizon in minutes.
            initial: optional initial well charges; defaults to full charge.
            max_step: optional maximum integrator step (use when the current
                function has discontinuities the solver should not skip).
        """
        if duration < 0.0:
            raise ValueError("duration must be non-negative")
        y0 = np.array(initial if initial is not None else self.initial_wells(), dtype=float)
        if duration == 0.0:
            return float(y0[0]), float(y0[1])
        kwargs = {"rtol": self.rtol, "atol": self.atol}
        if max_step is not None:
            kwargs["max_step"] = max_step
        solution = _solve_ivp(self._rhs(current), (0.0, duration), y0, **kwargs)
        if not solution.success:
            raise RuntimeError(f"ODE integration failed: {solution.message}")
        return float(solution.y[0, -1]), float(solution.y[1, -1])

    def integrate_to_state(
        self,
        current: CurrentFunction,
        duration: float,
        initial: Optional[KibamState] = None,
        max_step: Optional[float] = None,
    ) -> KibamState:
        """Like :meth:`integrate` but with transformed states in and out."""
        wells = None
        if initial is not None:
            wells = to_wells(self.params, initial)
        y1, y2 = self.integrate(current, duration, initial=wells, max_step=max_step)
        return from_wells(self.params, y1, y2)

    def lifetime_constant_current(self, current: float, tolerance: float = 1e-10) -> float:
        """Lifetime under constant current, located with an ODE terminal event.

        The battery is empty when the available charge ``y1`` reaches zero.
        """
        if current <= 0.0:
            raise ValueError("current must be positive")
        def empty_event(t: float, y: np.ndarray) -> float:
            return y[0]
        empty_event.terminal = True  # type: ignore[attr-defined]
        empty_event.direction = -1  # type: ignore[attr-defined]
        y0 = np.array(self.initial_wells())
        horizon = self.params.capacity / current * 2.0 + 1.0
        solution = _solve_ivp(
            self._rhs(lambda _t: current),
            (0.0, horizon),
            y0,
            events=empty_event,
            rtol=self.rtol,
            atol=max(self.atol, tolerance),
        )
        if not solution.success:
            raise RuntimeError(f"ODE integration failed: {solution.message}")
        if len(solution.t_events[0]) == 0:
            raise RuntimeError("battery did not become empty within the horizon")
        return float(solution.t_events[0][0])

    def lifetime_under_segments(self, segments: Sequence[Tuple[float, float]]) -> Optional[float]:
        """Lifetime under a piecewise-constant load via segment-wise integration."""
        wells = self.initial_wells()
        elapsed = 0.0
        for current, duration in segments:
            def empty_event(t: float, y: np.ndarray) -> float:
                return y[0]
            empty_event.terminal = True  # type: ignore[attr-defined]
            empty_event.direction = -1  # type: ignore[attr-defined]
            solution = _solve_ivp(
                self._rhs(lambda _t, value=current: value),
                (0.0, duration),
                np.array(wells),
                events=empty_event,
                rtol=self.rtol,
                atol=self.atol,
            )
            if not solution.success:
                raise RuntimeError(f"ODE integration failed: {solution.message}")
            if len(solution.t_events[0]) > 0:
                return elapsed + float(solution.t_events[0][0])
            wells = (float(solution.y[0, -1]), float(solution.y[1, -1]))
            elapsed += duration
        return None
