"""Rakhmatov-Vrudhula diffusion battery model.

The paper's validation section points to Rakhmatov, Vrudhula and Wallach
(references [20, 21]), whose analytical diffusion model is the other widely
used abstraction of lithium-ion cells.  It is included here as an optional
comparison model: the model-comparison example and ablation benchmarks use
it to show that the scheduling conclusions are not an artifact of the KiBaM.

For a piecewise-constant load :math:`i(t) = I_k` on :math:`[t_k, t_{k+1})`
the apparent charge lost by time :math:`t` is

.. math::

    \\sigma(t) = \\sum_k I_k (\\Delta_k)
        + 2 \\sum_{m=1}^{\\infty} \\sum_k \\frac{I_k}{\\beta^2 m^2}
          \\left( e^{-\\beta^2 m^2 (t - t_{k+1})} - e^{-\\beta^2 m^2 (t - t_k)} \\right)

and the battery is exhausted when :math:`\\sigma(t)` reaches the capacity
parameter :math:`\\alpha`.  The infinite sum is truncated; ten terms are
ample for the beta values of small lithium-ion cells.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Tuple

Segment = Tuple[float, float]


def _brentq(*args, **kwargs):
    """``scipy.optimize.brentq``, imported on the first call.

    SciPy is slow to import and ``import repro`` does not load it; the
    first call rebinds this module global to SciPy's function.
    """
    global _brentq
    from scipy.optimize import brentq

    _brentq = brentq
    return brentq(*args, **kwargs)


class DiffusionBattery:
    """Analytical Rakhmatov-Vrudhula diffusion model.

    Args:
        alpha: capacity parameter in Ampere-minutes (apparent charge the
            battery can lose before it is exhausted).
        beta: diffusion rate parameter in 1/sqrt(min); smaller values mean
            stronger rate-capacity and recovery effects.
        terms: number of terms kept from the infinite series.
    """

    def __init__(self, alpha: float, beta: float, terms: int = 10) -> None:
        if alpha <= 0.0:
            raise ValueError("alpha must be positive")
        if beta <= 0.0:
            raise ValueError("beta must be positive")
        if terms < 1:
            raise ValueError("terms must be at least 1")
        self.alpha = alpha
        self.beta = beta
        self.terms = terms

    def _sigma(self, segments: Sequence[Segment], t: float) -> float:
        """Apparent charge lost at time ``t`` under the given load."""
        sigma = 0.0
        start = 0.0
        for current, duration in segments:
            end = min(start + duration, t)
            if end <= start:
                break
            elapsed = end - start
            sigma += current * elapsed
            if current > 0.0:
                for m in range(1, self.terms + 1):
                    b2m2 = (self.beta * m) ** 2
                    sigma += (
                        2.0
                        * current
                        / b2m2
                        * (math.exp(-b2m2 * (t - end)) - math.exp(-b2m2 * (t - start)))
                    )
            start += duration
            if start >= t:
                break
        return sigma

    def apparent_charge_lost(self, segments: Sequence[Segment], t: float) -> float:
        """Public accessor for the apparent charge lost at time ``t``."""
        if t < 0.0:
            raise ValueError("t must be non-negative")
        return self._sigma(segments, t)

    def is_exhausted(self, segments: Sequence[Segment], t: float) -> bool:
        """Whether the battery is exhausted at time ``t`` under the load."""
        return self.apparent_charge_lost(segments, t) >= self.alpha

    def lifetime_constant_current(self, current: float) -> float:
        """Lifetime under a constant discharge current."""
        if current <= 0.0:
            raise ValueError("current must be positive")
        horizon = self.alpha / current * 4.0 + 1.0
        segments = [(current, horizon)]
        def margin(t: float) -> float:
            return self.alpha - self._sigma(segments, t)
        if margin(horizon) > 0.0:
            raise RuntimeError("battery did not become exhausted within the horizon")
        return float(_brentq(margin, 0.0, horizon, xtol=1e-10))

    def lifetime_under_segments(self, segments: Sequence[Segment]) -> Optional[float]:
        """Lifetime under a piecewise-constant load, or ``None`` if it survives."""
        boundaries: List[float] = [0.0]
        for _, duration in segments:
            boundaries.append(boundaries[-1] + duration)
        def margin(t: float) -> float:
            return self.alpha - self._sigma(segments, t)
        for left, right in zip(boundaries[:-1], boundaries[1:]):
            if right <= left:
                continue
            if margin(right) <= 0.0:
                lo = left
                # The margin can be non-monotone across idle periods, but
                # within a discharging segment it decreases; bracket on the
                # sub-interval where the sign changes.
                if margin(lo) <= 0.0:
                    return lo
                return float(_brentq(margin, lo, right, xtol=1e-10))
        return None
