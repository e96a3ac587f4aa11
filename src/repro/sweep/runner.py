"""Sweep execution: expand a spec, dispatch chunks, aggregate results.

:class:`SweepRunner` turns a declarative :class:`repro.sweep.spec.SweepSpec`
into numbers.  Scenarios are cut into fixed chunks, the store and resume
unit.  The *pending* chunks are grouped into passes, the compute unit: one
pass (at most :data:`_PASS_SCENARIOS` scenarios, chunks of one execution
path only) is simulated by a single
:meth:`repro.engine.batch.BatchSimulator.run_many` call -- with
per-scenario battery-parameter arrays whenever its chunks mix battery
configurations, so a whole parameter grid advances as one vectorized batch,
under either vectorized battery model (``spec.backend`` selects
``"analytical"`` or the exact-integer ``"discrete"`` dKiBaM; the model is
part of the spec hash, so the two never alias in the store) -- and its
results are persisted chunk by chunk into the content-addressed
:class:`repro.sweep.store.ResultStore`.  Lanes of the batch kernels are
independent, so a chunk's results are the same bits whichever chunks share
its pass.  Chunks already on disk are loaded instead of recomputed, which
makes re-runs cache hits and interrupted sweeps resume from the last
completed chunk.

The pseudo-policy ``"optimal"`` (see :meth:`SweepSpec.with_optimal`) is a
first-class column: each scenario runs one batched branch-and-bound search
(:mod:`repro.engine.optimal_batch`), per-scenario ``complete`` masks are
stored alongside the lifetimes, and searches that hit the node cap fall
back to the scalar depth-first worker for a better certified lower bound.
Grid points that share a load and differ only along a monotone capacity
axis are searched in ascending order, each completed search seeding the
next point's incumbent (spec-level dominance pruning): expanded-node
counts drop -- persisted per scenario as ``nodes``/``seeded`` -- while the
reported lifetimes stay identical to an unseeded run.

The aggregated :class:`SweepResult` keeps the raw per-scenario arrays and
offers the ``analysis``-layer views: grouped rows (battery configuration x
load group, one mean lifetime column per policy) and full
:class:`repro.analysis.montecarlo.LifetimeDistribution` summaries per group.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.engine.batch import BatchResult, BatchSimulator
from repro.sweep.spec import (
    OPTIMAL_POLICY,
    ScenarioPoint,
    SweepSpec,
    optimal_seed_chains,
)
from repro.sweep.store import ResultStore
from repro.engine.scenarios import ScenarioSet


@dataclasses.dataclass
class SweepStats:
    """Execution accounting for one runner invocation."""

    n_scenarios: int = 0
    n_chunks: int = 0
    chunks_run: int = 0
    chunks_cached: int = 0
    scenarios_run: int = 0
    run_seconds: float = 0.0
    total_seconds: float = 0.0

    @property
    def scenarios_per_sec(self) -> float:
        """Scenario throughput of the freshly simulated portion (0.0 if all cached)."""
        if self.scenarios_run == 0 or self.run_seconds <= 0.0:
            return 0.0
        return self.scenarios_run / self.run_seconds


@dataclasses.dataclass(frozen=True)
class SweepTableRow:
    """One aggregated row: a battery configuration under one load group."""

    battery_label: str
    load_label: str
    n_samples: int
    mean_lifetimes: Dict[str, float]
    survived: Dict[str, int]
    incomplete: Dict[str, int] = dataclasses.field(default_factory=dict)


class SweepResult:
    """Raw and aggregated outcome of one sweep.

    Attributes:
        spec: the spec that produced the result.
        points: the expanded scenario points, in scenario order.
        lifetimes / decisions / residual_charge: per-policy arrays over the
            scenario axis (lifetimes are NaN where the batteries survived).
        stats: execution accounting (cache hits, throughput).
    """

    def __init__(
        self,
        spec: SweepSpec,
        points: Sequence[ScenarioPoint],
        lifetimes: Dict[str, np.ndarray],
        decisions: Dict[str, np.ndarray],
        residual_charge: Dict[str, np.ndarray],
        stats: SweepStats,
        complete: Optional[Dict[str, np.ndarray]] = None,
        nodes: Optional[Dict[str, np.ndarray]] = None,
        seeded: Optional[Dict[str, np.ndarray]] = None,
        nodes_known: Optional[Dict[str, np.ndarray]] = None,
    ) -> None:
        self.spec = spec
        self.points = list(points)
        self.lifetimes = lifetimes
        self.decisions = decisions
        self.residual_charge = residual_charge
        self.stats = stats
        #: Per-policy search-completeness masks; only the ``optimal`` column
        #: carries one (False where the branch-and-bound hit ``max_nodes``
        #: and its lifetime is a certified lower bound, not the optimum).
        self.complete = complete or {}
        #: Per-policy expanded-node counts and cross-grid-point seeding
        #: flags; only the ``optimal`` column carries them (``seeded`` is
        #: True where the search's incumbent was seeded by a neighboring
        #: grid point's schedule -- pure work accounting, the lifetimes are
        #: identical either way).  Chunks stored before these fields
        #: existed leave their scenarios' ``nodes_known`` mask False; their
        #: zeros are "unknown", not measurements, and must not be folded
        #: into totals.
        self.nodes = nodes or {}
        self.seeded = seeded or {}
        self.nodes_known = nodes_known or {}

    def incomplete_counts(self) -> Dict[str, int]:
        """Number of non-certified (capped) searches per policy column."""
        return {
            policy: int((~mask).sum()) for policy, mask in self.complete.items()
        }

    @property
    def per_sample(self) -> Dict[str, List[float]]:
        """Per-policy lifetime lists in scenario order (NaN = survived)."""
        return {
            policy: [float(value) for value in values]
            for policy, values in self.lifetimes.items()
        }

    def groups(self) -> List[Tuple[Tuple[str, str], List[int]]]:
        """Scenario indices grouped by (battery label, load group label)."""
        order: List[Tuple[str, str]] = []
        members: Dict[Tuple[str, str], List[int]] = {}
        for point in self.points:
            key = (point.battery_label, point.load_label)
            if key not in members:
                members[key] = []
                order.append(key)
            members[key].append(point.index)
        return [(key, members[key]) for key in order]

    def table(self) -> List[SweepTableRow]:
        """Aggregated rows, one per (battery, load group), in spec order."""
        rows: List[SweepTableRow] = []
        for (battery_label, load_label), indices in self.groups():
            idx = np.asarray(indices)
            means: Dict[str, float] = {}
            survived: Dict[str, int] = {}
            incomplete: Dict[str, int] = {}
            for policy in self.spec.policies:
                values = self.lifetimes[policy][idx]
                finite = values[~np.isnan(values)]
                means[policy] = float(finite.mean()) if finite.size else float("nan")
                survived[policy] = int(np.isnan(values).sum())
                if policy in self.complete:
                    incomplete[policy] = int((~self.complete[policy][idx]).sum())
            rows.append(
                SweepTableRow(
                    battery_label=battery_label,
                    load_label=load_label,
                    n_samples=len(indices),
                    mean_lifetimes=means,
                    survived=survived,
                    incomplete=incomplete,
                )
            )
        return rows

    def distributions(self):
        """Lifetime distributions per group and policy, ``analysis``-ready.

        Returns a mapping ``(battery_label, load_label, policy) ->
        LifetimeDistribution``; groups where a policy left survivors are
        skipped for that policy (a survived load has no lifetime sample).
        """
        from repro.analysis.montecarlo import LifetimeDistribution

        out = {}
        for (battery_label, load_label), indices in self.groups():
            idx = np.asarray(indices)
            for policy in self.spec.policies:
                values = self.lifetimes[policy][idx]
                finite = values[~np.isnan(values)]
                if finite.size == 0:
                    continue
                out[(battery_label, load_label, policy)] = (
                    LifetimeDistribution.from_samples(policy, finite)
                )
        return out

    def render(self) -> str:
        """Plain-text aggregate table (the `sweep run` / `sweep show` view)."""
        rows = self.table()
        battery_width = max([len("batteries")] + [len(r.battery_label) for r in rows])
        load_width = max([len("load")] + [len(r.load_label) for r in rows])
        header = (
            f"{'batteries':{battery_width}s}  {'load':{load_width}s}  {'n':>5s}  "
            + "  ".join(f"{policy:>12s}" for policy in self.spec.policies)
        )
        lines = [header, "-" * len(header)]
        any_incomplete = False
        for row in rows:
            cells = []
            for policy in self.spec.policies:
                mean = row.mean_lifetimes[policy]
                survivors = row.survived[policy]
                capped = row.incomplete.get(policy, 0)
                if survivors == row.n_samples:
                    # No lifetime was measured at all for this cell.
                    cells.append(f"{'survived':>12s}")
                elif survivors:
                    # Mean over the finite samples, survivors annotated,
                    # padded to the common 12-character column.
                    cells.append(f"{mean:.2f} +{survivors}s".rjust(12))
                elif capped:
                    # Some searches hit max_nodes: the mean mixes certified
                    # optima with lower bounds.
                    any_incomplete = True
                    cells.append(f"{mean:.2f} !{capped}".rjust(12))
                else:
                    cells.append(f"{mean:12.2f}")
            lines.append(
                f"{row.battery_label:{battery_width}s}  "
                f"{row.load_label:{load_width}s}  {row.n_samples:5d}  "
                + "  ".join(cells)
            )
        if any_incomplete:
            lines.append(
                "!N = N searches hit max_nodes (complete=False): those "
                "lifetimes are certified lower bounds, not proven optima"
            )
        node_counts = self.nodes.get(OPTIMAL_POLICY)
        if node_counts is not None and node_counts.shape[0]:
            known = self.nodes_known.get(OPTIMAL_POLICY)
            if known is None:
                # Results built before the mask existed: keep the legacy
                # behavior of treating every scenario as measured.
                known = np.ones(node_counts.shape[0], dtype=bool)
            n_known = int(known.sum())
            n_unknown = node_counts.shape[0] - n_known
            seeded_mask = self.seeded.get(OPTIMAL_POLICY)
            n_seeded = (
                int(seeded_mask[known].sum()) if seeded_mask is not None else 0
            )
            if n_known and int(node_counts[known].sum()) > 0:
                line = (
                    f"optimal search: {int(node_counts[known].sum()):,} "
                    f"nodes expanded over {n_known} searches, {n_seeded} "
                    "seeded by a neighboring grid point (seeding prunes "
                    "work, never results)"
                )
                if n_unknown:
                    line += (
                        f"; {n_unknown} searches predate per-scenario node "
                        "accounting (counts unknown, not zero)"
                    )
                lines.append(line)
            elif n_unknown:
                lines.append(
                    f"optimal search: node counts unknown ({n_unknown} "
                    "searches predate per-scenario node accounting)"
                )
        return "\n".join(lines)


#: Most scenarios simulated by one ``run_many`` call.  Pending chunks are
#: grouped into passes of at most this many scenarios (a larger chunk is a
#: pass of its own), which bounds the kernel arrays on huge sweeps while
#: letting a cold sweep pay the lock-step loop once, not once per chunk.
_PASS_SCENARIOS = 1024


def _param_key(points: Sequence[ScenarioPoint]):
    """The execution path of a chunk: its one parameter triple set, or None.

    A homogeneous chunk takes the shared-parameter path (bit-identical to
    the pre-sweep engine); mixed chunks use per-scenario arrays.
    Homogeneity compares only the numeric triples -- the spec hash strips
    cosmetic parameter names, so two specs sharing a store entry must also
    share the execution path.
    """
    triples = {
        tuple((p.capacity, p.c, p.k_prime) for p in point.battery_params)
        for point in points
    }
    return triples.pop() if len(triples) == 1 else None


def _plan_passes(
    points: Sequence[ScenarioPoint],
    bounds: Sequence[Tuple[int, int]],
    pending: Sequence[int],
) -> List[Tuple[object, List[int]]]:
    """Group pending chunks into ``(path key, chunk indices)`` passes, in
    chunk order.

    A pass only holds chunks of one execution path (:func:`_param_key`), so
    every chunk runs exactly the kernels it would run alone, and at most
    :data:`_PASS_SCENARIOS` scenarios.
    """
    passes: List[Tuple[object, List[int]]] = []
    open_pass: Dict[object, Tuple[List[int], int]] = {}
    for chunk_index in pending:
        start, stop = bounds[chunk_index]
        key = _param_key(points[start:stop])
        chunks, size = open_pass.get(key, (None, 0))
        if chunks is None or size + stop - start > _PASS_SCENARIOS:
            chunks, size = [], 0
            passes.append((key, chunks))
        chunks.append(chunk_index)
        open_pass[key] = (chunks, size + stop - start)
    return passes


class SweepRunner:
    """Executes sweep specs, consulting and filling a result store.

    Args:
        store: the content-addressed result store; ``None`` disables
            persistence entirely (every chunk is computed in memory).
        seed_optimal: spec-level dominance pruning for the ``optimal``
            column.  When on (the default), grid points sharing a load and
            differing only along a monotone capacity axis are searched in
            ascending order, each completed search seeding the next point's
            incumbent and pooling-bound cutoff
            (:func:`repro.sweep.spec.optimal_seed_chains`).  Seeding is an
            admissible cross-point bound: it prunes search *work* -- the
            per-scenario node counts and ``seeded`` flags are persisted
            through the store -- but the reported lifetimes, completeness
            masks and schedules are identical to an unseeded run, which is
            why the flag lives on the runner and not in the (content-
            hashed) spec.  Two consequences of that design: a cached chunk
            is served whatever the flag says (the results are the same
            either way; only the stored ``nodes``/``seeded`` accounting
            reflects the run that *computed* the chunk -- pass ``force``
            to re-measure), and the identity contract is pinned by tests
            rather than re-checked at runtime (a divergence would need two
            distinct schedules closer than the 1e-9 span epsilon yet
            replaying to different floats; the nightly hypothesis property
            and the benchmark's bitwise assertions watch for exactly
            that).
    """

    def __init__(
        self, store: Optional[ResultStore] = None, seed_optimal: bool = True
    ) -> None:
        self.store = store
        self.seed_optimal = seed_optimal

    def run(
        self,
        spec: SweepSpec,
        force: bool = False,
        progress: Optional[Callable[[str], None]] = None,
    ) -> SweepResult:
        """Run (or load) every chunk of ``spec`` and aggregate the results.

        Args:
            spec: the campaign to execute.
            force: recompute chunks even when they are already stored (the
                fresh results overwrite the stored ones).
            progress: optional callback receiving one line per chunk.
        """
        started = time.perf_counter()
        bounds = spec.chunk_bounds()

        spec_hash = None
        if self.store is not None:
            spec_hash = self.store.ensure_entry(spec)
        pending = [
            chunk_index
            for chunk_index in range(len(bounds))
            if force
            or self.store is None
            or not self.store.has_chunk(spec_hash, chunk_index)
        ]
        # Loads are materialized for the pending chunks only: a cached chunk
        # needs its labels alone, so a full cache hit costs file IO and a
        # resume draws just the random samples it recomputes.
        points = spec.expand(
            only=None
            if len(pending) == len(bounds)
            else [index for chunk in pending for index in range(*bounds[chunk])]
        )
        stats = SweepStats(n_scenarios=len(points), n_chunks=len(bounds))

        lifetimes = {
            policy: np.full(len(points), np.nan) for policy in spec.policies
        }
        decisions = {
            policy: np.zeros(len(points), dtype=np.int64) for policy in spec.policies
        }
        residual = {policy: np.zeros(len(points)) for policy in spec.policies}
        complete = (
            {OPTIMAL_POLICY: np.ones(len(points), dtype=bool)}
            if spec.has_optimal
            else {}
        )
        nodes = (
            {OPTIMAL_POLICY: np.zeros(len(points), dtype=np.int64)}
            if spec.has_optimal
            else {}
        )
        seeded = (
            {OPTIMAL_POLICY: np.zeros(len(points), dtype=bool)}
            if spec.has_optimal
            else {}
        )
        nodes_known = (
            {OPTIMAL_POLICY: np.zeros(len(points), dtype=bool)}
            if spec.has_optimal
            else {}
        )

        def collect(chunk_index: int, chunk_results) -> None:
            start, stop = bounds[chunk_index]
            for policy in spec.policies:
                fields = chunk_results[policy]
                lifetimes[policy][start:stop] = fields["lifetimes"]
                decisions[policy][start:stop] = fields["decisions"]
                residual[policy][start:stop] = fields["residual_charge"]
                if policy in complete and "complete" in fields:
                    complete[policy][start:stop] = fields["complete"].astype(bool)
                if policy in nodes and "nodes" in fields:
                    nodes[policy][start:stop] = fields["nodes"]
                    nodes_known[policy][start:stop] = True
                if policy in seeded and "seeded" in fields:
                    seeded[policy][start:stop] = fields["seeded"].astype(bool)

        for chunk_index in sorted(set(range(len(bounds))).difference(pending)):
            start, stop = bounds[chunk_index]
            collect(
                chunk_index,
                self.store.load_chunk(spec_hash, chunk_index, spec.policies),
            )
            stats.chunks_cached += 1
            if progress is not None:
                progress(
                    f"chunk {chunk_index + 1}/{len(bounds)}: "
                    f"{stop - start} scenarios (cached)"
                )

        for key, pass_chunks in _plan_passes(points, bounds, pending):
            for chunk_index, chunk_results, elapsed in self._run_pass(
                spec, points, bounds, pass_chunks, shared=key is not None
            ):
                start, stop = bounds[chunk_index]
                stats.chunks_run += 1
                stats.scenarios_run += stop - start
                stats.run_seconds += elapsed
                if self.store is not None:
                    self.store.save_chunk(
                        spec_hash, chunk_index, chunk_results, elapsed
                    )
                if progress is not None:
                    progress(
                        f"chunk {chunk_index + 1}/{len(bounds)}: "
                        f"{stop - start} scenarios in {elapsed:.2f}s"
                    )
                collect(chunk_index, chunk_results)

        stats.total_seconds = time.perf_counter() - started
        return SweepResult(
            spec=spec,
            points=points,
            lifetimes=lifetimes,
            decisions=decisions,
            residual_charge=residual,
            stats=stats,
            complete=complete,
            nodes=nodes,
            seeded=seeded,
            nodes_known=nodes_known,
        )

    def load(self, spec: SweepSpec) -> SweepResult:
        """Aggregate a fully stored sweep without computing anything.

        Raises ``FileNotFoundError`` when the store is missing chunks; use
        :meth:`run` to fill the gaps.
        """
        if self.store is None:
            raise ValueError("loading a sweep requires a result store")
        spec_hash = spec.spec_hash()
        missing = [
            index
            for index in range(spec.n_chunks)
            if not self.store.has_chunk(spec_hash, index)
        ]
        if missing:
            raise FileNotFoundError(
                f"sweep {spec_hash} is missing {len(missing)} of "
                f"{spec.n_chunks} chunks (first missing: {missing[0]}); "
                "run it to completion first"
            )
        return self.run(spec)

    # ------------------------------------------------------------------ #
    def _run_pass(
        self,
        spec: SweepSpec,
        points: Sequence[ScenarioPoint],
        bounds: Sequence[Tuple[int, int]],
        chunk_indices: Sequence[int],
        shared: bool,
    ) -> Iterator[Tuple[int, Dict[str, Dict[str, np.ndarray]], float]]:
        """Compute the pending chunks of one pass, yielding them one by one.

        ``shared`` says the pass has one parameter set (its
        :func:`_param_key` is not None) and takes the shared-parameter path.

        The heuristic columns of every chunk in the pass are simulated by one
        ``run_many`` call (lanes are independent, so a chunk's rows are the
        same bits whichever chunks share its pass); the optimal column stays
        one search per scenario, run chunk by chunk.  Each chunk is yielded
        as soon as it is complete, so the caller persists it before the next
        chunk's searches start.  A chunk's elapsed time is its scenario share
        of the pass simulation plus its own optimal searches.
        """
        started = time.perf_counter()
        pass_bounds = [bounds[index] for index in chunk_indices]
        sim_policies = [p for p in spec.policies if p != OPTIMAL_POLICY]
        simulated: Dict[str, BatchResult] = {}
        if sim_policies:
            pass_points = [
                point for start, stop in pass_bounds for point in points[start:stop]
            ]
            rows = [point.battery_params for point in pass_points]
            simulator = BatchSimulator(
                rows[0] if shared else rows, model=spec.backend
            )
            simulated = simulator.run_many(
                ScenarioSet.from_loads([point.load for point in pass_points]),
                sim_policies,
            )
        n_pass = sum(stop - start for start, stop in pass_bounds)
        shared_seconds = time.perf_counter() - started
        offset = 0
        for chunk_index, (start, stop) in zip(chunk_indices, pass_bounds):
            chunk_started = time.perf_counter()
            lanes = slice(offset, offset + stop - start)
            offset = lanes.stop
            out = {
                policy: {
                    "lifetimes": result.lifetimes[lanes],
                    "decisions": result.decisions[lanes],
                    "residual_charge": result.residual_charge[lanes],
                }
                for policy, result in simulated.items()
            }
            if spec.has_optimal:
                out[OPTIMAL_POLICY] = self._run_optimal_column(
                    spec, points[start:stop]
                )
            elapsed = shared_seconds * (stop - start) / n_pass + (
                time.perf_counter() - chunk_started
            )
            yield chunk_index, {policy: out[policy] for policy in spec.policies}, elapsed

    def _run_optimal_column(
        self, spec: SweepSpec, points: Sequence[ScenarioPoint]
    ) -> Dict[str, np.ndarray]:
        """Batched branch-and-bound per scenario, scalar-verified when capped.

        Every scenario runs one :class:`repro.engine.optimal_batch.
        BatchOptimalScheduler` search.  With :attr:`seed_optimal`, the
        scenarios are processed chain by chain in the order planned by
        :func:`repro.sweep.spec.optimal_seed_chains` (results are scattered
        back into scenario order): within a chain each completed search's
        winning assignment seeds the next search's incumbent, pruning its
        frontier against the neighboring grid point's schedule from node
        one.  The rare search that hits ``max_nodes`` only certifies a
        lower bound; `optimal_schedules_batch` first re-runs a *seeded*
        capped search without the seed (capped outcomes must not depend on
        seeding) and then re-drives capped scenarios through the scalar
        depth-first worker (:func:`repro.engine.parallel.
        optimal_schedules_chunk`, whose incumbent goes deeper under the
        same node budget), keeping the better *whole* result -- lifetime,
        decision count and residual charge stay mutually consistent --
        upgrading to ``complete=True`` when the scalar search finishes
        within the budget.
        """
        from repro.engine.optimal_batch import optimal_schedules_batch

        n = len(points)
        lifetimes = np.full(n, np.nan)
        decisions = np.zeros(n, dtype=np.int64)
        residual = np.zeros(n)
        complete = np.ones(n, dtype=bool)
        nodes = np.zeros(n, dtype=np.int64)
        seeded = np.zeros(n, dtype=bool)
        if self.seed_optimal:
            chains = optimal_seed_chains(points)
        else:
            chains = [[index] for index in range(n)]
        for chain in chains:
            seed_assignment = None
            for index in chain:
                point = points[index]
                result = optimal_schedules_batch(
                    [point.load],
                    point.battery_params,
                    model=spec.backend,
                    max_nodes=spec.optimal_max_nodes,
                    dominance_tolerance=spec.optimal_dominance_tolerance,
                    seed_assignment=seed_assignment,
                )[0]
                lifetimes[index] = result.lifetime
                decisions[index] = len(result.assignment)
                residual[index] = result.residual_charge
                complete[index] = result.complete
                nodes[index] = result.nodes_expanded
                seeded[index] = seed_assignment is not None
                # Only a completed search is worth chaining: a capped one
                # may sit well below the point's optimum and would drag the
                # next incumbent down.
                seed_assignment = result.assignment if result.complete else None
        return {
            "lifetimes": lifetimes,
            "decisions": decisions,
            "residual_charge": residual,
            "complete": complete,
            "nodes": nodes,
            "seeded": seeded,
        }
