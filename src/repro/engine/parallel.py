"""The scalar depth-first fallback of capped batched optimal searches.

A capped best-first search only certifies a (sometimes shallow) lower
bound, while the scalar depth-first search drives its incumbent much deeper
under the same node budget.  :func:`repro.engine.optimal_batch.
optimal_schedules_batch` therefore re-drives capped searches through
:func:`optimal_schedules_chunk` and keeps the better whole result.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.kibam.parameters import BatteryParameters
from repro.workloads.load import Load


def optimal_schedules_chunk(
    loads: Sequence[Load],
    params: Sequence[BatteryParameters],
    backend: str = "analytical",
    max_nodes: Optional[int] = 20_000,
    dominance_tolerance: float = 0.005,
    time_step: float = 0.01,
    charge_unit: float = 0.01,
):
    """Full scalar optimal-search results for a chunk of loads.

    The scalar depth-first search doubles as the fallback for batched
    best-first searches that hit their node cap (depth-first drives its
    incumbent much deeper under the same budget), so the full
    :class:`repro.core.optimal.OptimalScheduleResult` objects are returned
    -- a caller replacing a capped result must replace its lifetime,
    decision count and residual charge *together*.
    """
    from repro.core.optimal import find_optimal_schedule

    return [
        find_optimal_schedule(
            params,
            load,
            backend=backend,
            time_step=time_step,
            charge_unit=charge_unit,
            dominance_tolerance=dominance_tolerance,
            max_nodes=max_nodes,
        )
        for load in loads
    ]
