"""repro: reproduction of "Maximizing System Lifetime by Battery Scheduling".

The package reimplements the full stack of Jongerden, Haverkort, Bohnenkamp
and Katoen (DSN 2009):

* :mod:`repro.kibam` -- the Kinetic Battery Model in analytical, ODE and
  discretized form, plus alternative battery models,
* :mod:`repro.workloads` -- the paper's test loads and workload generators,
* :mod:`repro.core` -- scheduling policies, the multi-battery simulator and
  the optimal scheduler (the paper's headline contribution),
* :mod:`repro.pta` -- a linear priced timed automata substrate with a
  minimum-cost reachability engine (the stand-in for Uppaal Cora),
* :mod:`repro.takibam` -- the TA-KiBaM network of Section 4 built on that
  substrate,
* :mod:`repro.engine` -- the vectorized batch execution engine: NumPy
  KiBaM kernels, array policies and a lock-step many-scenario simulator
  for fleet-scale sweeps,
* :mod:`repro.sweep` -- declarative experiment orchestration: sweep specs
  over battery-parameter grids, loads and policies, a content-addressed
  result store with chunked resume, and the ``python -m repro sweep`` CLI,
* :mod:`repro.analysis` -- the experiment layer regenerating every table
  and figure of the paper.

Quickstart::

    from repro import B1, paper_loads, simulate_policy, find_optimal_schedule

    load = paper_loads()["ILs alt"]
    best_of_two = simulate_policy([B1, B1], load, "best-of-two")
    optimal = find_optimal_schedule([B1, B1], load)
    print(best_of_two.lifetime, optimal.lifetime)
"""

from repro.kibam import (
    B1,
    B2,
    ITSY_LIION,
    BatteryParameters,
    DiscreteKibam,
    KibamState,
    LinearBattery,
    DiffusionBattery,
    TwoWellKibam,
    lifetime_constant_current,
    lifetime_under_segments,
)
from repro.workloads import (
    Epoch,
    Load,
    paper_loads,
    PAPER_LOAD_NAMES,
)
from repro.core import (
    AnalyticalBattery,
    BestOfTwoPolicy,
    DiscreteBattery,
    MultiBatterySimulator,
    OptimalScheduleResult,
    RoundRobinPolicy,
    Schedule,
    SequentialPolicy,
    SimulationResult,
    find_optimal_schedule,
    make_policy,
    simulate_policy,
)
from repro.engine import (
    BatchOptimalScheduler,
    BatchResult,
    BatchSimulator,
    ScenarioSet,
    find_optimal_schedule_batched,
)
from repro.sweep import (
    BatteryConfig,
    LoadAxis,
    ResultStore,
    SweepRunner,
    SweepSpec,
    battery_grid,
    builtin_specs,
)
from repro.analysis.montecarlo import run_montecarlo

__version__ = "1.5.0"

__all__ = [
    "B1",
    "B2",
    "ITSY_LIION",
    "BatteryParameters",
    "DiscreteKibam",
    "KibamState",
    "LinearBattery",
    "DiffusionBattery",
    "TwoWellKibam",
    "lifetime_constant_current",
    "lifetime_under_segments",
    "Epoch",
    "Load",
    "paper_loads",
    "PAPER_LOAD_NAMES",
    "AnalyticalBattery",
    "BestOfTwoPolicy",
    "DiscreteBattery",
    "MultiBatterySimulator",
    "OptimalScheduleResult",
    "RoundRobinPolicy",
    "Schedule",
    "SequentialPolicy",
    "SimulationResult",
    "find_optimal_schedule",
    "find_optimal_schedule_batched",
    "make_policy",
    "simulate_policy",
    "BatchOptimalScheduler",
    "BatchResult",
    "BatchSimulator",
    "ScenarioSet",
    "BatteryConfig",
    "LoadAxis",
    "ResultStore",
    "SweepRunner",
    "SweepSpec",
    "battery_grid",
    "builtin_specs",
    "run_montecarlo",
    "__version__",
]
