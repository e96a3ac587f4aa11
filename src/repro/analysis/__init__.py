"""Experiment layer: regenerates every table and figure of the paper."""

from repro.analysis.tables import (
    ValidationRow,
    SchedulingRow,
    table3,
    table4,
    table5,
    validation_table,
    scheduling_table,
)
from repro.analysis.figures import (
    ChargeTrace,
    Figure6Data,
    figure6,
    charge_trace_for_schedule,
)
from repro.analysis.report import (
    render_validation_table,
    render_scheduling_table,
    render_figure6_summary,
)
from repro.analysis.montecarlo import (
    LifetimeDistribution,
    MonteCarloResult,
    render_distributions,
    run_montecarlo,
)

__all__ = [
    "ValidationRow",
    "SchedulingRow",
    "table3",
    "table4",
    "table5",
    "validation_table",
    "scheduling_table",
    "ChargeTrace",
    "Figure6Data",
    "figure6",
    "charge_trace_for_schedule",
    "render_validation_table",
    "render_scheduling_table",
    "render_figure6_summary",
    "LifetimeDistribution",
    "MonteCarloResult",
    "render_distributions",
    "run_montecarlo",
]
