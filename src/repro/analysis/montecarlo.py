"""Monte-Carlo analysis of scheduling policies under random loads.

The paper's conclusion calls for the analysis of "realistic random loads",
which Uppaal Cora cannot express (it has no probabilities).  This module
closes that gap on the simulation side: it samples random loads, runs the
scheduling policies (and optionally the optimal scheduler) on each sample
and summarizes the lifetime distribution -- the simulation counterpart of
the lifetime-distribution work the authors reference (Cloth et al.,
DSN 2007).

:func:`run_montecarlo` is a thin front end of the sweep layer: it states
the samples as a :class:`repro.sweep.spec.SweepSpec` (a seeded random load
axis, or the caller's explicit loads) and, on the vectorized battery models
(``"analytical"`` and ``"discrete"``), runs it through
:class:`repro.sweep.runner.SweepRunner` -- with a result store when
``cache_dir`` is given, in memory otherwise.  Every other case (the
``"linear"`` model, or ``engine="scalar"``) walks the same spec's loads
through the scalar golden reference, :func:`repro.core.simulator.
simulate_policy` and :func:`repro.core.optimal.find_optimal_schedule`, so
both engines always see identical samples.  The batch engine matches the
scalar loop within the 1e-9 root-finder tolerance on the analytical model
and *exactly*, tick for tick, on the dKiBaM.
"""

from __future__ import annotations

import dataclasses
import statistics
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.optimal import find_optimal_schedule
from repro.core.simulator import simulate_policy
from repro.engine.batch import VECTOR_MODELS
from repro.kibam.parameters import BatteryParameters
from repro.sweep import BatteryConfig, LoadAxis, ResultStore, SweepRunner, SweepSpec
from repro.sweep.spec import (
    DEFAULT_OPTIMAL_MAX_NODES,
    DEFAULT_OPTIMAL_TOLERANCE,
    OPTIMAL_POLICY,
)
from repro.workloads.generator import ILS_LIKE_RANDOM_CONFIG, RandomLoadConfig
from repro.workloads.load import Load

#: Engines understood by :func:`run_montecarlo`.
ENGINES = ("auto", "scalar")


@dataclasses.dataclass(frozen=True)
class LifetimeDistribution:
    """Summary statistics of a set of lifetimes (minutes)."""

    policy: str
    samples: int
    mean: float
    stdev: float
    minimum: float
    maximum: float
    percentile_10: float
    median: float
    percentile_90: float

    @staticmethod
    def from_samples(policy: str, lifetimes: Sequence[float]) -> "LifetimeDistribution":
        """Summarize a non-empty sequence (or array) of lifetime samples.

        A single sample is a legitimate degenerate sweep and yields a zero
        standard deviation; an empty sequence is rejected with a clear
        error instead of crashing inside the statistics helpers.
        """
        values = [float(value) for value in lifetimes]
        if not values:
            raise ValueError(
                "cannot summarize an empty set of lifetime samples; "
                "at least one lifetime is required"
            )
        ordered = sorted(values)
        def percentile(fraction: float) -> float:
            index = min(len(ordered) - 1, max(0, round(fraction * (len(ordered) - 1))))
            return ordered[index]
        return LifetimeDistribution(
            policy=policy,
            samples=len(ordered),
            mean=statistics.fmean(ordered),
            stdev=statistics.pstdev(ordered) if len(ordered) > 1 else 0.0,
            minimum=ordered[0],
            maximum=ordered[-1],
            percentile_10=percentile(0.10),
            median=percentile(0.50),
            percentile_90=percentile(0.90),
        )


@dataclasses.dataclass(frozen=True)
class MonteCarloResult:
    """Lifetime distributions per policy over a common set of random loads."""

    distributions: Dict[str, LifetimeDistribution]
    per_sample: Dict[str, List[float]]
    n_samples: int
    engine: str = "scalar"

    def mean_gain_percent(self, policy: str, reference: str) -> float:
        """Mean per-sample lifetime gain of ``policy`` over ``reference`` in percent."""
        gains = [
            (a - b) / b * 100.0
            for a, b in zip(self.per_sample[policy], self.per_sample[reference])
        ]
        return statistics.fmean(gains)


def _require_lifetimes(
    lifetimes: Sequence[Optional[float]], policy: str
) -> List[float]:
    """Reject survived-the-load samples, mirroring ``lifetime_or_raise``."""
    out: List[float] = []
    for value in lifetimes:
        if value is None or (isinstance(value, float) and np.isnan(value)):
            raise RuntimeError(
                f"a sample survived the whole load under policy {policy!r}; "
                "extend the load to measure a lifetime"
            )
        out.append(float(value))
    return out


def _scalar_lifetimes(spec: SweepSpec) -> Dict[str, List[Optional[float]]]:
    """The golden-reference loop: one scalar run per (load, policy)."""
    params = spec.batteries[0].params
    loads = [point.load for point in spec.expand()]
    per_sample: Dict[str, List[Optional[float]]] = {}
    for policy in spec.policies:
        if policy == OPTIMAL_POLICY:
            per_sample[policy] = [
                find_optimal_schedule(
                    params,
                    load,
                    backend=spec.model,
                    max_nodes=spec.optimal_max_nodes,
                    dominance_tolerance=spec.optimal_dominance_tolerance,
                ).lifetime
                for load in loads
            ]
        else:
            per_sample[policy] = [
                simulate_policy(params, load, policy, backend=spec.model).lifetime
                for load in loads
            ]
    return per_sample


def run_montecarlo(
    params: Sequence[BatteryParameters],
    n_samples: int = 50,
    policies: Sequence[str] = ("sequential", "round-robin", "best-of-two"),
    config: Optional[RandomLoadConfig] = None,
    seed: int = 0,
    engine: str = "auto",
    optimal_max_nodes: Optional[int] = DEFAULT_OPTIMAL_MAX_NODES,
    loads: Optional[Sequence[Load]] = None,
    cache_dir: Optional[str] = None,
    model: str = "analytical",
    dominance_tolerance: float = DEFAULT_OPTIMAL_TOLERANCE,
) -> MonteCarloResult:
    """Sample random loads and summarize the policy lifetimes on them.

    Args:
        params: battery parameter sets, one per battery.
        n_samples: number of random loads to draw.
        policies: registry names of the policies to evaluate on every
            sample.  The pseudo-policy ``"optimal"`` is a first-class
            column: one branch-and-bound search per sample with the
            ``optimal_max_nodes`` cap and the ``dominance_tolerance``
            state-merge tolerance.  Policy objects are rejected; run them
            through :meth:`repro.engine.batch.BatchSimulator.run_many`.
        config: random-load configuration; the default produces ILs-like
            loads with mixed currents.
        seed: base seed; sample ``i`` uses ``seed + i`` (ignored when
            ``loads`` is given).
        engine: ``"auto"`` runs the sweep layer (the batch engine) on the
            vectorized models; ``"scalar"`` forces the golden-reference
            Python loop.  The result's ``engine`` field records the path
            that actually executed: ``"batch"`` or ``"scalar"``
            (non-vectorized models run scalar).
        optimal_max_nodes: node cap per optimal search.
        loads: explicit sample loads, overriding the random sampling; the
            length overrides ``n_samples``.  Draw them from one stream with
            ``ScenarioSet.random(n, config, rng=...).loads``.
        cache_dir: directory of a :class:`repro.sweep.store.ResultStore`.
            Batch runs then read and fill the store: a repeated call with
            the same samples, policies and settings is a pure cache read,
            and an interrupted sweep resumes chunk by chunk.  Scalar runs
            never touch the store.
        model: battery model.  ``"analytical"`` and ``"discrete"`` (the
            dKiBaM at the paper's reference 0.01 grid) vectorize;
            ``"linear"`` runs scalar.
        dominance_tolerance: state-merge tolerance (Amin) of the optimal
            column's searches; the long-standing sweep default is half a
            charge unit.
    """
    if engine not in ENGINES:
        raise ValueError(
            f"unknown engine {engine!r}; known engines: {ENGINES} "
            "('auto' runs the batch engine on the vectorized models)"
        )
    for policy in policies:
        if not isinstance(policy, str):
            raise ValueError(
                f"run_montecarlo takes policy names, got {policy!r}; run "
                "policy objects through BatchSimulator.run_many"
            )
    if loads is not None:
        axis = LoadAxis.explicit(list(loads), label="montecarlo")
    else:
        load_config = config if config is not None else ILS_LIKE_RANDOM_CONFIG
        axis = LoadAxis.random(n_samples, seed=seed, config=load_config)
    spec = SweepSpec(
        name="montecarlo",
        batteries=(BatteryConfig(label="batteries", params=tuple(params)),),
        loads=(axis,),
        policies=tuple(policies),
        model=model,
    )
    if spec.has_optimal:
        spec = spec.with_optimal(
            max_nodes=optimal_max_nodes, dominance_tolerance=dominance_tolerance
        )

    if model in VECTOR_MODELS and engine != "scalar":
        store = ResultStore(cache_dir) if cache_dir is not None else None
        raw = SweepRunner(store).run(spec).per_sample
        executed = "batch"
    else:
        raw = _scalar_lifetimes(spec)
        executed = "scalar"
    per_sample = {
        policy: _require_lifetimes(raw[policy], policy) for policy in spec.policies
    }
    return MonteCarloResult(
        distributions={
            policy: LifetimeDistribution.from_samples(policy, lifetimes)
            for policy, lifetimes in per_sample.items()
        },
        per_sample=per_sample,
        n_samples=spec.n_scenarios,
        engine=executed,
    )


def render_distributions(result: MonteCarloResult) -> str:
    """Plain-text table of the lifetime distributions."""
    header = (
        f"{'policy':12s} {'mean':>7s} {'stdev':>7s} {'min':>7s} {'p10':>7s} "
        f"{'median':>7s} {'p90':>7s} {'max':>7s}"
    )
    lines = [header, "-" * len(header)]
    for policy, dist in result.distributions.items():
        lines.append(
            f"{policy:12s} {dist.mean:7.2f} {dist.stdev:7.2f} {dist.minimum:7.2f} "
            f"{dist.percentile_10:7.2f} {dist.median:7.2f} {dist.percentile_90:7.2f} "
            f"{dist.maximum:7.2f}"
        )
    return "\n".join(lines)
