"""Batch execution engine: array-native simulation at fleet scale.

This subsystem answers the ROADMAP's scale mandate for the hot path of the
reproduction.  Where :mod:`repro.core.simulator` walks one (battery-set,
load, policy) scenario at a time in pure Python, the engine advances
thousands of scenarios per NumPy call:

* :mod:`repro.engine.kernels` -- vectorized closed-form KiBaM stepping and
  empty-crossing search over ``(n_scenarios, n_batteries, 2)`` state arrays
  (the array form of Section 2.2 of the paper),
* :mod:`repro.engine.policies` -- array implementations of the scheduling
  policies of Section 6, bit-compatible with the scalar tie-breaking,
* :mod:`repro.engine.scenarios` -- :class:`ScenarioSet`, a batch of loads in
  padded-array form,
* :mod:`repro.engine.batch` -- :class:`BatchSimulator`, the lock-step event
  loop with masking of dead scenarios and a scalar fallback for
  non-vectorizable policies/backends,
* :mod:`repro.engine.optimal_batch` -- :class:`BatchOptimalScheduler`, the
  best-first branch-and-bound whose frontier bounds and between-decision
  battery advances run as batched kernels (Section 4's optimal schedules at
  engine speed, with exact parity against the scalar search),
* :mod:`repro.engine.parallel` -- the scalar depth-first fallback that
  re-drives capped batched optimal searches.

The scalar simulator remains the golden reference; the test suite pins the
two paths to within 1e-9 minutes on random loads.
"""

from repro.engine.batch import VECTOR_MODELS, BatchResult, BatchSimulator
from repro.engine.optimal_batch import (
    BATCH_OPTIMAL_MODELS,
    BatchOptimalScheduler,
    DecisionTrace,
    FrontierArrays,
    VectorDominanceArchive,
    find_optimal_schedule_batched,
    optimal_schedules_batch,
)
from repro.engine.kernels import (
    DiscreteKernelParams,
    KernelParams,
    available_charge_array,
    discrete_segment_array,
    empty_margin_array,
    initial_state_array,
    step_constant_current_array,
    time_to_empty_array,
    total_charge_array,
)
from repro.engine.parallel import optimal_schedules_chunk
from repro.engine.policies import (
    BatchDecisionContext,
    VECTOR_POLICY_REGISTRY,
    VectorBestOfTwoPolicy,
    VectorPolicy,
    VectorPolicyStack,
    VectorRoundRobinPolicy,
    VectorSequentialPolicy,
    VectorWorstOfTwoPolicy,
    has_vector_policy,
    make_vector_policy,
)
from repro.engine.scenarios import DiscreteScenarioArrays, ScenarioSet

__all__ = [
    "BATCH_OPTIMAL_MODELS",
    "BatchDecisionContext",
    "BatchOptimalScheduler",
    "BatchResult",
    "BatchSimulator",
    "DecisionTrace",
    "DiscreteKernelParams",
    "DiscreteScenarioArrays",
    "FrontierArrays",
    "KernelParams",
    "ScenarioSet",
    "VECTOR_MODELS",
    "VECTOR_POLICY_REGISTRY",
    "VectorBestOfTwoPolicy",
    "VectorPolicy",
    "VectorPolicyStack",
    "VectorRoundRobinPolicy",
    "VectorDominanceArchive",
    "VectorSequentialPolicy",
    "VectorWorstOfTwoPolicy",
    "available_charge_array",
    "discrete_segment_array",
    "empty_margin_array",
    "find_optimal_schedule_batched",
    "has_vector_policy",
    "initial_state_array",
    "make_vector_policy",
    "optimal_schedules_batch",
    "optimal_schedules_chunk",
    "step_constant_current_array",
    "time_to_empty_array",
    "total_charge_array",
]
