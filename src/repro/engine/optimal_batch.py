"""Batched branch-and-bound search for optimal schedules.

:class:`BatchOptimalScheduler` is the array-native counterpart of
:class:`repro.core.optimal.OptimalScheduler`.  The scalar search walks one
decision node at a time, advancing each battery through Python calls; this
search keeps a *frontier* of unexpanded decision nodes ordered by their
admissible lifetime bound (best-first) and processes them in batches.

The search is split in two halves:

* a **battery model** holds only what differs between the models:
  :class:`_AnalyticalModel` (float ``(gamma, delta)`` states on the
  :mod:`repro.engine.kernels` closed forms, times in minutes) and
  :class:`_DiscreteModel` (the exact integer dKiBaM of
  :func:`repro.engine.kernels.discrete_segment_array`, the lane-parallel,
  closed-form version of
  :meth:`repro.kibam.discrete.DiscreteKibam.run_segment`, times in ticks:
  idle batteries take all recovery steps of a segment in one table lookup,
  serving batteries one recovery step per kernel iteration).
  Each supplies the root state, the alive mask, the available charge the
  branch ordering sorts on, the *serve* step (one battery per node up to
  its empty point, the others idling), the *idle* step, the admissible
  remaining-lifetime bound and the dominance matrices;
* one **driver**, :class:`_SearchDriver`, writes node expansion
  (``branch``), decision-point preparation (``prepare``: idle epochs,
  bound, bound prune) and the greedy lower-bound probe
  (``greedy_lifetimes``) once, on a shared serve step and a shared idle
  step -- so the probe follows exactly the search's rules, down to ending
  a rollout the instant its last battery empties.

Around them:

* the remaining-lifetime bound (the perfect-pooling bound of the scalar
  search, refined by the recovery-limited bound of
  :mod:`repro.kibam.bounds` for the analytical model, or the total-charge
  fallback for batteries that do not share ``c``/``k'``) is evaluated for
  a whole frontier batch in one vectorized epoch walk and memoized on the
  scalar search's quantized keys (:class:`_BoundEvaluator`); dKiBaM
  searches on grids coarser than the paper's use the draw-budget bound
  (:class:`repro.kibam.bounds.DrawBudgetBound`) instead;
* the greedy probe runs periodically on popped batches; an improving
  lower bound raises the incumbent (it is an achievable schedule) and
  retroactively evicts every live frontier slot whose upper bound it
  covers (free-listed immediately, heap entries invalidated lazily via
  slot stamps);
* dominance and symmetry pruning take exactly the decisions of the scalar
  search's :class:`repro.core.optimal.DominanceArchive` fed one child at a
  time, so the pruning semantics (and therefore soundness) are shared, not
  re-derived; :class:`VectorDominanceArchive` makes them one vectorized
  call per decision point per expansion round.

The frontier itself is stored structure-of-arrays (:class:`FrontierArrays`):
preallocated, grow-by-doubling column pools with a free-list of recycled
rows, plus an append-only :class:`DecisionTrace` encoding each node's
assignment as ``(parent, choice)`` integers.  The heap orders integer
*slots*, and expansion gathers and scatters index slices of the column
arrays; no per-node Python state objects or assignment tuples are built.

Searches can also be *seeded* with a neighboring problem's winning
assignment (``seed_assignment``): the seed is replayed on the search's own
batteries, so its lifetime is genuinely achievable and only raises the
incumbent cutoff -- :class:`repro.sweep.runner.SweepRunner` chains grid
points of monotone battery sweeps this way (spec-level dominance pruning:
less work, identical results).

Parity contract with the scalar search: identical ``lifetime`` (to 1e-9
minutes for the analytical model; *exactly*, tick for tick, for the
discrete model, whose search state is all-integer) and identical
``complete`` flags.  The winning ``assignment`` may differ when several
schedules are co-optimal -- best-first and depth-first tie-break
differently -- and ``nodes_expanded`` may differ by a small factor, because
a batch of nodes is popped against one incumbent while the scalar search
re-checks the (possibly improved) incumbent at every node.

The search result is replayed through the scalar simulator (exactly like
the scalar search replays it), so the reported lifetime, schedule and
final battery states are golden-reference values either way.
"""

from __future__ import annotations

import heapq
import itertools
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.battery import make_battery_models
from repro.core.optimal import (
    _BOUND_CACHE_LIMIT,
    OptimalScheduleResult,
    OptimalScheduler,
    discrete_pooling_margin,
    group_permutations,
    parameter_symmetry_groups,
)
from repro.core.policies import FixedAssignmentPolicy, make_policy
from repro.core.simulator import MultiBatterySimulator
from repro.engine.kernels import (
    DELTA,
    GAMMA,
    KernelParams,
    _draws_to_empty,
    available_charge_array,
    discrete_segment_array,
    empty_margin_array,
    initial_state_array,
    step_constant_current_array,
    time_to_empty_array,
    total_charge_array,
)
from repro.kibam.bounds import (
    DrawBudgetBound,
    build_pooled_job_table,
    recovery_limited_refinements,
    segments_may_cross,
)
from repro.kibam.discrete import discharge_spec_for, duration_ticks
from repro.kibam.parameters import BatteryParameters
from repro.workloads.load import Load

#: Same span epsilon as the scalar search and simulator.
_TIME_EPSILON = 1e-9
#: Same emptiness tolerance as ``AnalyticalBattery.is_empty``.
_EMPTY_TOLERANCE = 1e-12
#: Default number of frontier nodes expanded per vectorized round.
DEFAULT_BATCH_SIZE = 64
#: Expansion rounds between greedy-completion lower-bound probes.  Each
#: probe rolls one popped batch to system death (about the cost of one
#: expansion round), so probing every round would roughly double the
#: search; every 16th round keeps the cost under ~7% while the incumbent
#: still tightens long before the frontier drains.
_LB_PROBE_PERIOD = 16

#: Tolerance-adaptive dominance-archive depths (see
#: :class:`BatchOptimalScheduler`): certified searches merge few signatures,
#: so deep archives are pure overhead; tolerant searches merge aggressively
#: and a deep archive roughly halves the certification-floor node counts.
_CERTIFIED_ARCHIVE_LIMIT = 64
_TOLERANT_ARCHIVE_LIMIT = 1024

#: Battery models the batched search can advance; anything else must use
#: the scalar :class:`repro.core.optimal.OptimalScheduler`.
BATCH_OPTIMAL_MODELS = ("analytical", "discrete")

#: Same dominance-comparison slack as the scalar archive.
_DOMINANCE_EPSILON = 1e-9


def _group_representatives(
    ordered: Sequence[int], groups: Sequence[int]
) -> List[int]:
    """First battery of each symmetry group, in ``ordered`` order.

    Mirrors the scalar search's root-decision prune: the stable
    most-available-first sort puts the first-listed battery of each group
    first, so both searches pick identical representatives.
    """
    seen = set()
    representatives: List[int] = []
    for index in ordered:
        group = groups[index]
        if group in seen:
            continue
        seen.add(group)
        representatives.append(index)
    return representatives


def _bitmasks(relation: np.ndarray) -> List[int]:
    """Each row of a 2-D boolean array as an int (bit ``j`` = column ``j``)."""
    packed = np.packbits(relation, axis=1, bitorder="little")
    width = packed.shape[1]
    data = packed.tobytes()
    return [
        int.from_bytes(data[start : start + width], "little")
        for start in range(0, len(data), width)
    ]


def _unpack(bits: int, n: int) -> np.ndarray:
    """The low ``n`` bits of ``bits`` as a boolean mask (see :func:`_bitmasks`)."""
    data = bits.to_bytes((n + 7) // 8, "little")
    return np.unpackbits(
        np.frombuffer(data, dtype=np.uint8), count=n, bitorder="little"
    ).astype(bool)


class VectorDominanceArchive:
    """Array-backed port of :class:`repro.core.optimal.DominanceArchive`.

    Same pruning semantics -- quantized-signature deduplication, a Pareto
    archive per decision point with permutation pairing for identical
    batteries, the ``archive_limit`` cap -- but the archive is held as one
    ``(n_entries, n_batteries, n_components)`` array per decision point and
    a whole batch of candidates for one decision point is decided in one
    :meth:`admit_many` call: three vectorized dominance matrices (archive
    over candidates, candidates over archive, candidates over each other)
    followed by a short pure-Python replay of the sequential order.  The
    scalar search keeps the transparent reference implementation; this is
    its hot-path counterpart (dominance checks dominate the scalar search's
    profile), and tests pin the two to identical decisions, row by row and
    batch by batch.
    """

    def __init__(
        self,
        symmetric: bool,
        n_batteries: int,
        dominance_tolerance: float = 0.0,
        archive_limit: int = 64,
        groups: Optional[Sequence[int]] = None,
    ) -> None:
        self.symmetric = symmetric
        self.archive_limit = archive_limit
        self._slack = _DOMINANCE_EPSILON + dominance_tolerance
        self._scale = max(dominance_tolerance, 1e-9)
        #: Optional per-battery symmetry-group ids (see
        #: :func:`repro.core.optimal.parameter_symmetry_groups`).  When
        #: given they supersede the all-or-nothing ``symmetric`` flag:
        #: signatures sort rows per group, dominance pairs via the
        #: within-group permutation products -- identical semantics to the
        #: scalar archive's group mode.
        self.groups: Optional[Tuple[int, ...]] = (
            tuple(groups) if groups is not None else None
        )
        if self.groups is not None:
            self._perms = np.array(
                group_permutations(self.groups), dtype=np.int64
            )
        elif symmetric and n_batteries <= 3:
            self._perms = np.array(
                list(itertools.permutations(range(n_batteries))), dtype=np.int64
            )
        else:
            self._perms = np.arange(n_batteries, dtype=np.int64)[None, :]
        #: Signature canonicalization: each battery's group rank and the
        #: battery slots ordered by group, or ``None`` when no two
        #: batteries share a group (no rows are ever sorted).
        if self.groups is not None:
            row_groups: Sequence = self.groups
        else:
            row_groups = (0,) * n_batteries if symmetric else range(n_batteries)
        self._row_groups: Optional[np.ndarray] = None
        if len(set(row_groups)) < n_batteries:
            ranks: dict = {}
            self._row_groups = np.array(
                [ranks.setdefault(group, len(ranks)) for group in row_groups]
            )
            self._group_slots = np.argsort(self._row_groups, kind="stable")
        self._entries: dict = {}

    def _signatures(self, matrices: np.ndarray) -> List[bytes]:
        """Quantized, permutation-canonical signature of each matrix.

        Rows are sorted within each symmetry group (all rows, in the legacy
        fully-symmetric mode), exactly like the scalar archive's signature;
        the result is the matrix's raw bytes, with ``-0.0`` folded into
        ``0.0`` so that bytes compare equal exactly when the scalar
        archive's tuples of floats do.
        """
        n, n_batteries, width = matrices.shape
        quantized = (
            np.where(np.isinf(matrices), matrices, np.round(matrices / self._scale))
            + 0.0
        )
        if self._row_groups is not None:
            rows = quantized.reshape(n * n_batteries, width)
            # Primary key: the matrix, then the group, then the row's
            # components in order (lexsort reads its keys last to first).
            order = np.lexsort(
                [rows[:, column] for column in range(width - 1, -1, -1)]
                + [
                    np.tile(self._row_groups, n),
                    np.repeat(np.arange(n), n_batteries),
                ]
            )
            canonical = np.empty_like(rows)
            canonical[
                (np.arange(n)[:, None] * n_batteries + self._group_slots).ravel()
            ] = rows[order]
            quantized = canonical
        data = quantized.tobytes()
        size = len(data) // n
        return [data[start : start + size] for start in range(0, len(data), size)]

    def _dominance(self, better: np.ndarray, worse: np.ndarray) -> np.ndarray:
        """``(len(better), len(worse))``: whether ``better[i]`` dominates ``worse[j]``.

        ``a`` dominating ``b`` under some battery pairing is the same
        relation whether the permutations act on ``a`` or on ``b`` (they
        form a group), so they always act on ``worse``.  The comparison
        runs one flattened ``(battery, component)`` column at a time over
        ``(rows, n_perms * cols)`` arrays, which beats a single 5-D
        broadcast with ``np.all`` over the trailing axes; permutation-major
        columns make the final any-over-permutations a contiguous reduce.
        """
        n_perms = self._perms.shape[0]
        width = better.shape[1] * better.shape[2]
        permuted = worse[:, self._perms].swapaxes(0, 1)  # (P, cols, B, V)
        lower = (permuted.reshape(-1, width) - self._slack).T.copy()
        upper = better.reshape(-1, width).T.copy()  # (B * V, rows)
        result = upper[0][:, None] >= lower[0]
        for column in range(1, width):
            result &= upper[column][:, None] >= lower[column]
        return result.reshape(better.shape[0], n_perms, worse.shape[0]).any(axis=1)

    def admit_many(self, key, matrices: np.ndarray) -> np.ndarray:
        """Admit ``(n, n_batteries, n_components)`` state matrices in order.

        Returns one bool per matrix, False when it was pruned -- exactly
        the decisions of :meth:`admit` called on each row in turn (and so
        of the scalar archive): a row is checked against the archive as
        earlier rows of the same batch left it.
        """
        matrices = np.asarray(matrices, dtype=float)
        if not len(matrices):
            return np.zeros(0, dtype=bool)
        entry = self._entries.get(key)
        if entry is None:
            entry = self._entries[key] = [
                set(), np.empty((0,) + matrices.shape[1:])
            ]
        seen, archive = entry
        signatures = self._signatures(matrices)
        n = len(signatures)
        n_archive = archive.shape[0]
        # Bitmask rows, one Python int per batch row: bit ``i`` of
        # ``archive_dominators[j]`` says archived row ``i`` dominates batch
        # row ``j``, and so on -- the replay below is then a few integer
        # operations per row.
        if n_archive:
            archive_dominators = _bitmasks(self._dominance(archive, matrices).T)
            archive_victims = _bitmasks(self._dominance(matrices, archive))
        else:
            archive_dominators = archive_victims = [0] * n
        among = self._dominance(matrices, matrices)
        batch_dominators = _bitmasks(among.T)
        batch_victims = _bitmasks(among)

        admitted = np.zeros(n, dtype=bool)
        everyone = (1 << n_archive) - 1
        alive = everyone  # archived rows not evicted yet
        kept = 0  # batch rows archived so far
        for row, signature in enumerate(signatures):
            if signature in seen:
                continue
            if alive & archive_dominators[row] or kept & batch_dominators[row]:
                continue
            # Drop archived entries the new state dominates, original rows
            # and rows archived earlier in this batch alike.
            alive &= ~archive_victims[row]
            kept &= ~batch_victims[row]
            if alive.bit_count() + kept.bit_count() < self.archive_limit:
                kept |= 1 << row
            seen.add(signature)
            admitted[row] = True
        if alive != everyone or kept:
            # Survivors keep their order and kept rows follow in batch
            # order -- the scalar archive's list order.
            entry[1] = np.concatenate(
                [archive[_unpack(alive, n_archive)], matrices[_unpack(kept, n)]]
            )
        return admitted

    def admit(self, key, matrix: np.ndarray) -> bool:
        """Record a ``(n_batteries, n_components)`` state matrix; False when dominated."""
        return bool(self.admit_many(key, np.asarray(matrix)[None])[0])


# --------------------------------------------------------------------- #
# frontier storage: structure-of-arrays pools
# --------------------------------------------------------------------- #
#: Initial row capacity of the frontier pools; grown by doubling.
_POOL_CAPACITY = 256


class FrontierArrays:
    """Preallocated, grow-by-doubling structure-of-arrays node storage.

    Columns are declared once as ``name -> (trailing_shape, dtype)``;
    frontier nodes are *rows*, addressed by the integer slots handed out by
    :meth:`allocate` and recycled through a free-list by :meth:`release`.
    When the free-list runs dry every column doubles in place (amortized
    O(1) per node), so the search's expansion, bound evaluation and
    dominance checks all operate on index slices of a handful of stable
    flat arrays instead of stacking and re-copying per-node state objects
    every round (the former hot spot of the batched search).
    """

    def __init__(self, columns, capacity: int = _POOL_CAPACITY) -> None:
        self._names = tuple(columns)
        self.capacity = int(capacity)
        for name, (shape, dtype) in columns.items():
            setattr(
                self, name, np.zeros((self.capacity, *shape), dtype=dtype)
            )
        self._free = list(range(self.capacity - 1, -1, -1))

    def allocate(self, count: int) -> np.ndarray:
        """Hand out ``count`` free slots, growing the pool as needed."""
        if count <= 0:
            # Guard the slice arithmetic: ``self._free[-0:]`` would hand
            # out (and drop) the whole free-list.
            return np.empty(0, dtype=np.int64)
        while len(self._free) < count:
            self._grow()
        slots = self._free[-count:][::-1]
        del self._free[-count:]
        return np.asarray(slots, dtype=np.int64)

    def release(self, slots) -> None:
        """Return slots to the free-list (their rows become reusable)."""
        self._free.extend(int(slot) for slot in np.atleast_1d(slots))

    def _grow(self) -> None:
        doubled = self.capacity * 2
        for name in self._names:
            old = getattr(self, name)
            grown = np.zeros((doubled,) + old.shape[1:], dtype=old.dtype)
            grown[: self.capacity] = old
            setattr(self, name, grown)
        self._free.extend(range(doubled - 1, self.capacity - 1, -1))
        self.capacity = doubled


class DecisionTrace:
    """Append-only ``(parent, choice)`` arrays encoding node assignments.

    Every decision node references one trace entry; the entry's parent is
    the trace id of the node it was branched from (``-1`` for the root), so
    recording a child costs two int64 appends instead of copying the whole
    assignment tuple per node.  Entries are never freed -- they are two
    integers each, and candidate recording needs ancestors of pruned slots
    -- and the full assignment is only reconstructed (by walking parents
    backwards) for the rare candidate that improves the incumbent.
    """

    def __init__(self, capacity: int = _POOL_CAPACITY) -> None:
        self.parent = np.full(capacity, -1, dtype=np.int64)
        self.choice = np.full(capacity, -1, dtype=np.int64)
        self.size = 0

    def append(self, parents: np.ndarray, choices: np.ndarray) -> np.ndarray:
        count = parents.shape[0]
        while self.size + count > self.parent.shape[0]:
            self.parent = np.concatenate([self.parent, np.full_like(self.parent, -1)])
            self.choice = np.concatenate([self.choice, np.full_like(self.choice, -1)])
        ids = np.arange(self.size, self.size + count, dtype=np.int64)
        self.parent[ids] = parents
        self.choice[ids] = choices
        self.size += count
        return ids

    def assignment(self, trace_id: int) -> Tuple[int, ...]:
        """The battery-choice tuple encoded by one trace entry's ancestry."""
        choices = []
        node = int(trace_id)
        while node >= 0:
            choices.append(int(self.choice[node]))
            node = int(self.parent[node])
        return tuple(reversed(choices))


def _pooling_parameters(
    params: Sequence[BatteryParameters],
) -> Optional[Tuple[float, float, float]]:
    """``(capacity, c, k')`` of the pooled bound battery, or ``None``.

    Mirrors :meth:`repro.core.optimal.OptimalScheduler._pooling_parameters`:
    KiBaM batteries sharing ``c`` and ``k'`` pool into one battery whose
    lifetime upper-bounds every schedule.
    """
    first = params[0]
    if not all(p.c == first.c and p.k_prime == first.k_prime for p in params):
        return None
    total_capacity = sum(p.capacity for p in params)
    return (total_capacity, first.c, first.k_prime)


class _BoundEvaluator:
    """Vectorized, memoized admissible remaining-lifetime bounds.

    One instance per search; bounds are the scalar search's perfect-pooling
    bound (or the total-charge fallback when the batteries do not share
    ``c``/``k'``), evaluated for a whole batch of ``(gamma, delta)`` pooled
    states in one epoch walk and cached on the scalar search's quantized
    ``(epoch, offset, gamma, delta)`` keys.
    """

    def __init__(
        self,
        params: Sequence[BatteryParameters],
        currents: np.ndarray,
        durations: np.ndarray,
        bound_slack: float,
    ) -> None:
        self.pooled = _pooling_parameters(params)
        self.pooled_params = (
            BatteryParameters(
                capacity=self.pooled[0],
                c=self.pooled[1],
                k_prime=self.pooled[2],
                name="pooled-bound",
            )
            if self.pooled is not None
            else None
        )
        self.currents = currents
        self.durations = durations
        self.n_epochs = currents.shape[0]
        self.bound_slack = bound_slack
        self._cache: dict = {}
        self._job_tables: dict = {}

    def pooled_bounds(
        self,
        gamma: np.ndarray,
        delta: np.ndarray,
        epoch: np.ndarray,
        offset: np.ndarray,
    ) -> np.ndarray:
        """Remaining-lifetime bounds for pooled states, cache-first."""
        assert self.pooled is not None
        keys = [
            (int(e), round(float(o), 9), round(float(g), 9), round(float(d), 9))
            for e, o, g, d in zip(epoch, offset, gamma, delta)
        ]
        out = np.empty(len(keys))
        miss = [i for i, key in enumerate(keys) if key not in self._cache]
        for i, key in enumerate(keys):
            if key in self._cache:
                out[i] = self._cache[key]
        if miss:
            idx = np.asarray(miss)
            fresh = self._pooled_walk(
                gamma[idx].astype(np.float64),
                delta[idx].astype(np.float64),
                epoch[idx].astype(np.int64),
                offset[idx].astype(np.float64),
            )
            for i, value in zip(miss, fresh):
                out[i] = float(value)
                if len(self._cache) >= _BOUND_CACHE_LIMIT:
                    self._cache.clear()
                self._cache[keys[i]] = float(value)
        return out

    def _pooled_walk(
        self,
        gamma: np.ndarray,
        delta: np.ndarray,
        epoch: np.ndarray,
        offset: np.ndarray,
    ) -> np.ndarray:
        """Walk the remaining epochs for every pooled state at once."""
        _, c, k_prime = self.pooled
        e = epoch.copy()
        off = offset.copy()
        g = gamma.copy()
        d = delta.copy()
        elapsed = np.zeros(g.shape[0])
        bound = np.zeros(g.shape[0])
        done = np.zeros(g.shape[0], dtype=bool)
        scale = 1.0 + self.bound_slack
        while True:
            act = np.flatnonzero(~done)
            if act.size == 0:
                break
            past = e[act] >= self.n_epochs
            ended = act[past]
            if ended.size:
                bound[ended] = elapsed[ended] * scale
                done[ended] = True
                act = act[~past]
                if act.size == 0:
                    continue
            cur = self.currents[e[act]]
            dur = self.durations[e[act]] - off[act]
            # Only segments the screen cannot clear go to the solver.
            ask = np.flatnonzero(
                segments_may_cross(c, k_prime, g[act], d[act], cur, dur)
            )
            crossed = np.zeros(act.shape[0], dtype=bool)
            if ask.size:
                crossing, hit_mask = time_to_empty_array(
                    c, k_prime, g[act[ask]], d[act[ask]], cur[ask], dur[ask]
                )
                crossed[ask] = hit_mask
                hit = act[ask[hit_mask]]
                bound[hit] = (elapsed[hit] + crossing[hit_mask]) * scale
                done[hit] = True
            go = act[~crossed]
            if go.size:
                cur_go = cur[~crossed]
                dur_go = dur[~crossed]
                decay = np.exp(-k_prime * dur_go)
                delta_inf = cur_go / (c * k_prime)
                d[go] = delta_inf + (d[go] - delta_inf) * decay
                g[go] = g[go] - cur_go * dur_go
                elapsed[go] += dur_go
                e[go] += 1
                off[go] = 0.0
        return bound

    def recovery_limited_bounds(
        self,
        pooled_bounds: np.ndarray,
        gamma: np.ndarray,
        delta: np.ndarray,
        epoch: np.ndarray,
        offset: np.ndarray,
        y1: np.ndarray,
        y2: np.ndarray,
        alive: np.ndarray,
    ) -> np.ndarray:
        """Recovery-limited refinement of already-computed pooled bounds.

        Mirrors :meth:`repro.core.optimal.OptimalScheduler.
        _recovery_limited_bound` for a whole frontier batch: nodes sharing a
        decision point and pooled state share one
        :func:`repro.kibam.bounds.build_pooled_job_table` (cached like the
        pooled bounds), and the per-node feasibility scan runs vectorized
        over the group.  ``y1``/``y2`` are ``(n_nodes, n_batteries)``
        per-battery wells (Amin), ``alive`` the matching non-empty mask.
        Returns bounds no larger than ``pooled_bounds``; rows the
        refinement does not apply to (fewer than two alive batteries) pass
        through unchanged.
        """
        params = self.pooled_params
        assert params is not None
        out = np.asarray(pooled_bounds, dtype=np.float64).copy()
        eligible = np.asarray(alive, dtype=bool).sum(axis=1) >= 2
        if not eligible.any():
            return out
        scale = 1.0 + self.bound_slack
        groups: dict = {}
        for i in np.flatnonzero(eligible):
            key = (
                int(epoch[i]),
                round(float(offset[i]), 9),
                round(float(gamma[i]), 9),
                round(float(delta[i]), 9),
            )
            groups.setdefault(key, []).append(int(i))
        for key, rows in groups.items():
            table = self._job_tables.get(key)
            if table is None:
                e, o, g, d = key
                table = build_pooled_job_table(
                    params,
                    self.currents,
                    self.durations,
                    e,
                    float(offset[rows[0]]),
                    float(gamma[rows[0]]),
                    float(delta[rows[0]]),
                    self._segment_crossing,
                )
                if len(self._job_tables) >= _BOUND_CACHE_LIMIT:
                    self._job_tables.clear()
                self._job_tables[key] = table
            idx = np.asarray(rows, dtype=np.int64)
            refined = recovery_limited_refinements(
                table, params, y1[idx], y2[idx], alive[idx]
            )
            out[idx] = np.minimum(out[idx], refined * scale)
        return out

    @staticmethod
    def _segment_crossing(params, gamma, delta, current, horizon):
        """Single-state segment crossing via the vectorized solver."""
        crossing, crossed = time_to_empty_array(
            params.c,
            params.k_prime,
            np.asarray([gamma]),
            np.asarray([delta]),
            np.asarray([current]),
            np.asarray([horizon]),
        )
        return float(crossing[0]) if bool(crossed[0]) else None

    def total_charge_bounds(
        self, total_charge: np.ndarray, epoch: np.ndarray, offset: np.ndarray
    ) -> np.ndarray:
        """Fallback bound: batteries cannot deliver more charge than held."""
        e = epoch.astype(np.int64).copy()
        off = offset.astype(np.float64).copy()
        total = total_charge.astype(np.float64).copy()
        elapsed = np.zeros(total.shape[0])
        bound = np.zeros(total.shape[0])
        done = np.zeros(total.shape[0], dtype=bool)
        while True:
            act = np.flatnonzero(~done)
            if act.size == 0:
                break
            past = e[act] >= self.n_epochs
            ended = act[past]
            if ended.size:
                bound[ended] = elapsed[ended]
                done[ended] = True
                act = act[~past]
                if act.size == 0:
                    continue
            cur = self.currents[e[act]]
            dur = self.durations[e[act]] - off[act]
            demand = cur * dur
            exhausts = (cur > 0.0) & (demand >= total[act])
            hit = act[exhausts]
            if hit.size:
                bound[hit] = elapsed[hit] + total[hit] / cur[exhausts]
                done[hit] = True
            go = act[~exhausts]
            if go.size:
                total[go] -= demand[~exhausts]
                elapsed[go] += dur[~exhausts]
                e[go] += 1
                off[go] = 0.0
        return bound


# --------------------------------------------------------------------- #
# battery models: the per-model half of the search
# --------------------------------------------------------------------- #
class _BatteryModel:
    """What the search needs to know about one battery model.

    A node's batteries are one ``state`` row of shape ``state_shape`` each,
    plus a sticky ``empty`` flag per battery; its place in the load is an
    ``(epoch, offset, time)`` triple whose offset and time count
    ``time_unit`` minutes in ``time_dtype``.  Subclasses supply

    * ``epoch_length`` / ``is_job`` -- per-epoch span and job flag;
    * :meth:`root_state`, :meth:`alive` and :meth:`available` -- the full
      root, the alive mask and the available charge the branch ordering
      sorts on;
    * :meth:`serve` and :meth:`idle` -- the two battery advances;
    * :meth:`remaining_bounds` and :meth:`matrices` -- the admissible
      remaining-lifetime bound (tight only where it matters: on rows that
      survive the bound prune at ``cutoff``) and the dominance matrices;

    and :class:`_SearchDriver` runs the search on them, once for both.
    """

    def __init__(
        self, params: Sequence[BatteryParameters], load: Load, bound_slack: float
    ) -> None:
        self.n_batteries = len(params)
        epochs = load.epochs
        self.currents = np.array([e.current for e in epochs], dtype=np.float64)
        self.durations = np.array([e.duration for e in epochs], dtype=np.float64)
        self.bounds = _BoundEvaluator(
            params, self.currents, self.durations, bound_slack=bound_slack
        )


class _AnalyticalModel(_BatteryModel):
    """The analytical KiBaM: ``(gamma, delta)`` float states, in minutes."""

    state_dtype = np.float64
    time_dtype = np.float64
    time_unit = 1.0

    def __init__(self, params: Sequence[BatteryParameters], load: Load) -> None:
        super().__init__(params, load, bound_slack=0.0)
        self.kp = KernelParams.from_parameters(params)
        self.state_shape = (self.n_batteries, 2)
        self.epoch_length = self.durations
        self.is_job = self.currents > 0.0

    def root_state(self) -> np.ndarray:
        return initial_state_array(self.kp, 1)

    def alive(self, state: np.ndarray, empty: np.ndarray) -> np.ndarray:
        return ~empty & (empty_margin_array(self.kp, state) > _EMPTY_TOLERANCE)

    def available(self, state: np.ndarray) -> np.ndarray:
        return available_charge_array(self.kp, state)

    def serve(self, state, empty, choice, epoch, remaining):
        """Serve ``choice[i]`` on row ``i`` up to its empty crossing.

        The other batteries idle for the same span (empty ones stay
        frozen).  Returns ``(state, span, emptied)``.
        """
        rows = np.arange(choice.shape[0])
        current = self.currents[epoch]
        crossing, crossed = time_to_empty_array(
            self.kp.c[choice],
            self.kp.k_prime[choice],
            state[rows, choice, GAMMA],
            state[rows, choice, DELTA],
            current,
            remaining,
        )
        span = np.where(crossed, crossing, remaining)
        battery_currents = np.zeros(empty.shape)
        battery_currents[rows, choice] = current
        new = step_constant_current_array(
            self.kp, state, battery_currents, span[:, None]
        )
        return np.where(empty[:, :, None], state, new), span, crossed

    def idle(self, state, empty, span):
        """Every non-empty battery recovers for ``span[i]`` minutes."""
        new = step_constant_current_array(
            self.kp, state, np.zeros(empty.shape), span[:, None]
        )
        return np.where(empty[:, :, None], state, new)

    def remaining_bounds(self, state, alive, epoch, offset, elapsed, cutoff):
        """Remaining-lifetime bound in minutes per node.

        The pooling bound refined by the recovery-limited bound, or the
        total-charge bound when the batteries do not pool.  Only rows whose
        pooled bound survives the prune (``elapsed + pooled > cutoff``) are
        refined: the refinement never exceeds the pooled bound, so a row
        the pooled bound cuts stays cut either way.
        """
        if self.bounds.pooled is None:
            total = np.where(alive, total_charge_array(state), 0.0).sum(axis=1)
            return self.bounds.total_charge_bounds(total, epoch, offset)
        gamma = np.where(alive, state[:, :, GAMMA], 0.0).sum(axis=1)
        delta = np.where(alive, state[:, :, DELTA], 0.0).sum(axis=1)
        pooled = self.bounds.pooled_bounds(gamma, delta, epoch, offset)
        rows = np.flatnonzero(elapsed + pooled > cutoff)
        if rows.size == 0:
            return pooled
        state = state[rows]
        y1 = self.kp.c * empty_margin_array(self.kp, state)
        pooled[rows] = self.bounds.recovery_limited_bounds(
            pooled[rows],
            gamma[rows],
            delta[rows],
            epoch[rows],
            offset[rows],
            y1,
            state[:, :, GAMMA] - y1,
            alive[rows],
        )
        return pooled

    def matrices(self, state: np.ndarray, empty: np.ndarray) -> np.ndarray:
        """The scalar search's dominance matrices, one ``(B, 3)`` per node."""
        mat = np.empty(state.shape[:2] + (3,))
        mat[:, :, 0] = 1.0
        mat[:, :, 1] = state[:, :, GAMMA]
        mat[:, :, 2] = -state[:, :, DELTA]
        return np.where(empty[:, :, None], np.array([0.0, -np.inf, -np.inf]), mat)


#: Components of a dKiBaM battery's state row: charge units, height units,
#: recovery tick counter, draw accumulator and the accumulator's rate.
_N, _M, _REC, _ACC, _RCUR, _RCT = range(6)


class _DiscreteModel(_BatteryModel):
    """The dKiBaM: integer unit and tick counters, in ticks of ``time_step``."""

    state_dtype = np.int64
    time_dtype = np.int64

    def __init__(
        self,
        params: Sequence[BatteryParameters],
        load: Load,
        time_step: float,
        charge_unit: float,
    ) -> None:
        # The scalar search's bound: the analytical pooling bound with its
        # margin on fine grids, the draw budget on coarse ones.
        margin = discrete_pooling_margin(time_step, charge_unit)
        super().__init__(
            params, load, bound_slack=0.0 if margin is None else margin
        )
        self.time_unit = time_step
        self.charge_unit = charge_unit
        self.dp = KernelParams.from_parameters(params).discretize(
            time_step, charge_unit
        )
        self.state_shape = (self.n_batteries, 6)
        specs = [
            discharge_spec_for(e.current, time_step, charge_unit)
            if e.current > 0.0
            else None
            for e in load.epochs
        ]
        self.cur = np.array([s.cur if s else 0 for s in specs], dtype=np.int64)
        self.cur_times = np.array(
            [s.cur_times if s else 1 for s in specs], dtype=np.int64
        )
        self.epoch_length = np.array(
            [duration_ticks(e.duration, time_step) for e in load.epochs],
            dtype=np.int64,
        )
        self.is_job = self.cur > 0
        self.draw_budget = (
            DrawBudgetBound(self.cur, self.cur_times, self.epoch_length)
            if margin is None
            else None
        )

    def root_state(self) -> np.ndarray:
        state = np.zeros((1,) + self.state_shape, dtype=np.int64)
        state[:, :, _N] = self.dp.total_units
        state[:, :, _RCT] = 1
        return state

    def alive(self, state: np.ndarray, empty: np.ndarray) -> np.ndarray:
        draws_left = _draws_to_empty(state[..., _N], state[..., _M], self.dp.c_permille)
        return ~empty & (draws_left > 0)

    def available(self, state: np.ndarray) -> np.ndarray:
        c = self.dp.c
        gamma = state[..., _N] * self.charge_unit
        delta = state[..., _M] * self.dp.height_unit
        return np.maximum(0.0, c * (gamma - (1.0 - c) * delta))

    def _segment(self, lanes, battery, cur, cur_times, ticks):
        """:func:`discrete_segment_array` on ``(L, 6)`` state rows of ``battery``."""
        *advanced, empty_tick = discrete_segment_array(
            self.dp.tables,
            self.dp.recovery_prefix,
            self.dp.table_id[battery],
            self.dp.c_permille[battery],
            *lanes.T,
            cur,
            cur_times,
            ticks,
        )
        return np.stack(advanced, axis=1), empty_tick

    def serve(self, state, empty, choice, epoch, remaining):
        """Exact-tick twin of :meth:`_AnalyticalModel.serve`."""
        rows = np.arange(choice.shape[0])
        lanes, empty_tick = self._segment(
            state[rows, choice],
            choice,
            self.cur[epoch],
            self.cur_times[epoch],
            remaining,
        )
        emptied = empty_tick >= 0
        span = np.where(emptied, empty_tick, remaining)
        served = state.copy()
        served[rows, choice] = lanes
        others_frozen = empty.copy()
        others_frozen[rows, choice] = True
        return self.idle(served, others_frozen, span), span, emptied

    def idle(self, state, empty, span):
        """Every non-empty battery recovers for ``span[i]`` ticks."""
        node, battery = np.nonzero(~empty)
        out = state.copy()
        if node.size:
            out[node, battery], _ = self._segment(
                state[node, battery],
                battery,
                np.zeros(node.size, dtype=np.int64),
                np.ones(node.size, dtype=np.int64),
                span[node],
            )
        return out

    def remaining_bounds(self, state, alive, epoch, offset, elapsed, cutoff):
        """The draw-budget bound, or the margin-inflated pooling (or
        total-charge) bound, in minutes per node.

        No recovery-limited refinement here: the chain-feasibility argument
        holds for the continuous dynamics only, and dKiBaM tick rounding can
        keep a marginal burst alive that the continuous threshold rules out
        (see ``OptimalScheduler._recovery_limited_bound``).  So there is no
        refinement for ``elapsed`` / ``cutoff`` to skip.
        """
        if self.draw_budget is not None:
            ticks = self.draw_budget.ticks(
                np.where(alive, state[:, :, _N], 0).sum(axis=1),
                alive.sum(axis=1),
                epoch,
                np.rint(offset / self.time_unit).astype(np.int64),
            )
            return ticks * self.time_unit
        gamma = np.where(alive, state[:, :, _N] * self.charge_unit, 0.0).sum(axis=1)
        if self.bounds.pooled is None:
            return self.bounds.total_charge_bounds(gamma, epoch, offset)
        delta = np.where(alive, state[:, :, _M] * self.dp.height_unit, 0.0).sum(
            axis=1
        )
        return self.bounds.pooled_bounds(gamma, delta, epoch, offset)

    def matrices(self, state: np.ndarray, empty: np.ndarray) -> np.ndarray:
        """The scalar search's dominance matrices, one ``(B, 5)`` per node."""
        mat = np.empty(state.shape[:2] + (5,))
        mat[:, :, 0] = 1.0
        mat[:, :, 1] = state[:, :, _N]
        mat[:, :, 2] = -state[:, :, _M]
        mat[:, :, 3] = -state[:, :, _ACC]
        mat[:, :, 4] = state[:, :, _REC]
        empty_row = np.array([0.0] + [-np.inf] * 4)
        return np.where(empty[:, :, None], empty_row, mat)


# --------------------------------------------------------------------- #
# the model-independent search driver
# --------------------------------------------------------------------- #
#: Node columns: the model's battery states, their sticky empty flags, the
#: decision point ``(epoch, offset)``, the elapsed time and the trace id.
_COLUMNS = ("state", "empty", "epoch", "offset", "time", "trace")


class _SearchDriver:
    """Node expansion, decision-point preparation and the greedy probe.

    Frontier nodes live in a :class:`FrontierArrays` pool and are addressed
    by slot; children in flight between :meth:`branch` and :meth:`prepare`
    travel as column dicts (keys :data:`_COLUMNS`) and only claim a pool
    slot once they survive the bound prune.  All three methods advance
    nodes through two shared steps, :meth:`_serve` and :meth:`_idle`, so
    the search and its lower-bound probe follow the same rules.
    """

    def __init__(self, model: _BatteryModel, groups: Sequence[int]) -> None:
        self.model = model
        self.groups = tuple(groups)
        self.bounds = model.bounds
        self.n_epochs = model.epoch_length.shape[0]
        self.pool = FrontierArrays(
            {
                "state": (model.state_shape, model.state_dtype),
                "empty": ((model.n_batteries,), np.bool_),
                "epoch": ((), np.int64),
                "offset": ((), model.time_dtype),
                "time": ((), model.time_dtype),
                "trace": ((), np.int64),
            }
        )
        self.trace = DecisionTrace()

    def root_batch(self):
        """The root decision node as a one-row in-flight column batch."""
        model = self.model
        return {
            "state": model.root_state(),
            "empty": np.zeros((1, model.n_batteries), dtype=bool),
            "epoch": np.zeros(1, dtype=np.int64),
            "offset": np.zeros(1, dtype=model.time_dtype),
            "time": np.zeros(1, dtype=model.time_dtype),
            "trace": np.full(1, -1, dtype=np.int64),
        }

    # -- the two shared steps ------------------------------------------- #
    def _serve(self, state, empty, epoch, offset, time, choice):
        """Serve battery ``choice[i]`` on row ``i`` for the rest of its job.

        The span ends at the job's end or at the served battery's empty
        point, whichever comes first.  Returns the advanced ``(state,
        empty, epoch, offset, time)`` columns and a ``dead`` flag per row:
        the served battery emptied and no battery is left alive, so the
        system died at the returned time.
        """
        model = self.model
        remaining = model.epoch_length[epoch] - offset
        state, span, emptied = model.serve(state, empty, choice, epoch, remaining)
        empty = empty.copy()
        empty[np.arange(choice.shape[0]), choice] |= emptied
        # The battery emptied before the job ended: the next decision point
        # is inside the same epoch.
        mid = emptied & (remaining - span > _TIME_EPSILON)
        dead = emptied & ~model.alive(state, empty).any(axis=1)
        return (
            state,
            empty,
            np.where(mid, epoch, epoch + 1),
            np.where(mid, offset + span, 0),
            time + span,
            dead,
        )

    def _idle(self, state, empty, epoch, offset, time, rows) -> None:
        """Advance ``rows`` in place over the rest of their idle epoch."""
        span = self.model.epoch_length[epoch[rows]] - offset[rows]
        state[rows] = self.model.idle(state[rows], empty[rows], span)
        time[rows] += span
        epoch[rows] += 1
        offset[rows] = 0

    # -- expansion ------------------------------------------------------ #
    def branch(self, slots: np.ndarray):
        """Expand a batch of frontier slots into raw children.

        Returns ``(candidates, children)`` where candidates are
        ``(lifetime, trace_id)`` pairs for children whose last battery
        died, and children is an in-flight column batch that still needs
        :meth:`prepare` (idle-epoch advance, bound, dominance).  The
        caller releases the parent slots afterwards.
        """
        model = self.model
        state, empty, epoch, offset, time, trace = (
            getattr(self.pool, name)[slots] for name in _COLUMNS
        )
        alive = model.alive(state, empty)
        avail = model.available(state)

        parents: List[int] = []
        choices: List[int] = []
        for i in range(slots.shape[0]):
            usable = np.flatnonzero(alive[i]).tolist()
            # Most available charge first; ``sorted`` is stable, so ties
            # keep index order -- identical to the scalar ordering.
            ordered = sorted(usable, key=lambda j: -avail[i, j])
            if offset[i] == 0 and time[i] == 0:
                # All batteries are full at the very first decision: one
                # representative per symmetry group suffices (a no-op for
                # all-singleton groups), exactly like the scalar search.
                ordered = _group_representatives(ordered, self.groups)
            for j in ordered:
                parents.append(i)
                choices.append(j)
        if not parents:
            return [], None
        par = np.asarray(parents, dtype=np.int64)
        cho = np.asarray(choices, dtype=np.int64)
        state, empty, epoch, offset, time, dead = self._serve(
            state[par], empty[par], epoch[par], offset[par], time[par], cho
        )
        trace = self.trace.append(trace[par], cho)
        candidates = [
            (float(time[p]) * model.time_unit, int(trace[p]))
            for p in np.flatnonzero(dead)
        ]
        live = np.flatnonzero(~dead)
        if live.size == 0:
            return candidates, None
        columns = (state, empty, epoch, offset, time, trace)
        return candidates, {
            name: column[live] for name, column in zip(_COLUMNS, columns)
        }

    # -- decision-point preparation ------------------------------------- #
    def prepare(self, children, best_lifetime: float):
        """Advance raw children to their next decision point and bound them.

        Returns ``(candidates, ready)``: candidates for children that
        survived the load or died at a job arrival, and for the rest
        (bound-pruned already, states parked in pool slots) the columns
        ``(slots, bound_totals, keys, matrices)`` -- pool slot, node time
        plus remaining bound (minutes), decision-point key for the
        dominance archive and ``(n_batteries, n_components)`` dominance
        matrix per child -- or ``None`` when no child is left.
        """
        if children is None:
            return [], None
        model = self.model
        unit = model.time_unit
        state, empty, epoch, offset, time, trace = (
            children[name] for name in _COLUMNS
        )

        candidates = []
        decided: List[int] = []
        pending = np.arange(state.shape[0])
        while pending.size:
            exhausted = epoch[pending] >= self.n_epochs
            for p in pending[exhausted]:
                # The batteries survived the load; the load end is the
                # observed lifetime (scalar semantics).
                candidates.append((float(time[p]) * unit, int(trace[p])))
            rest = pending[~exhausted]
            if rest.size == 0:
                break
            job = model.is_job[epoch[rest]]
            decided.extend(rest[job].tolist())
            idle = rest[~job]
            if idle.size == 0:
                break
            self._idle(state, empty, epoch, offset, time, idle)
            pending = idle

        if not decided:
            return candidates, None
        d = np.asarray(decided, dtype=np.int64)
        alive = model.alive(state[d], empty[d])
        any_alive = alive.any(axis=1)
        for p in d[~any_alive]:
            # A job arrived and no battery can serve it: the system died
            # the moment the previous span ended.
            candidates.append((float(time[p]) * unit, int(trace[p])))
        live = d[any_alive]
        if live.size == 0:
            return candidates, None

        elapsed = time[live] * unit
        cutoff = best_lifetime + _TIME_EPSILON
        remaining = model.remaining_bounds(
            state[live], alive[any_alive], epoch[live], offset[live] * unit,
            elapsed, cutoff,
        )
        totals = elapsed + remaining
        keep = np.flatnonzero(totals > cutoff)
        if keep.size == 0:
            return candidates, None
        kept = live[keep]
        slots = self.pool.allocate(kept.size)
        for name in _COLUMNS:
            getattr(self.pool, name)[slots] = children[name][kept]
        # ``round`` leaves the discrete model's integer offsets unchanged.
        keys = [
            (point, round(at, 9))
            for point, at in zip(epoch[kept].tolist(), offset[kept].tolist())
        ]
        matrices = model.matrices(state[kept], empty[kept])
        return candidates, (slots, totals[keep], keys, matrices)

    # -- greedy lower bounds -------------------------------------------- #
    def greedy_lifetimes(self, slots: np.ndarray):
        """Achieved lifetime of each slot under the fixed greedy completion.

        Rolls every node forward with the most-available-charge-first rule
        (the search's own branch ordering) until system death, on the same
        serve and idle steps as :meth:`branch` and :meth:`prepare`.
        Returns ``(lifetimes, choices)`` -- the lifetime in minutes per node
        and the battery-choice list each rollout appended, so an improving
        node's full assignment can be reconstructed from its decision trace
        plus its greedy tail.  The rollouts are real schedules of these
        batteries, so each lifetime is an achievable *lower* bound on the
        node's optimum.
        """
        model = self.model
        unit = model.time_unit
        state, empty, epoch, offset, time = (
            getattr(self.pool, name)[slots] for name in _COLUMNS[:5]
        )
        lifetimes = np.zeros(slots.shape[0])
        choices: List[List[int]] = [[] for _ in range(slots.shape[0])]
        active = np.arange(slots.shape[0])
        while active.size:
            ended = epoch[active] >= self.n_epochs
            lifetimes[active[ended]] = time[active[ended]] * unit
            active = active[~ended]
            if active.size == 0:
                break
            job = model.is_job[epoch[active]]
            idle = active[~job]
            if idle.size:
                self._idle(state, empty, epoch, offset, time, idle)
            serving = active[job]
            alive = model.alive(state[serving], empty[serving])
            stuck = ~alive.any(axis=1)
            lifetimes[serving[stuck]] = time[serving[stuck]] * unit
            serving = serving[~stuck]
            if serving.size:
                avail = np.where(alive[~stuck], model.available(state[serving]), -1.0)
                cho = avail.argmax(axis=1)
                (
                    state[serving],
                    empty[serving],
                    epoch[serving],
                    offset[serving],
                    time[serving],
                    dead,
                ) = self._serve(
                    state[serving],
                    empty[serving],
                    epoch[serving],
                    offset[serving],
                    time[serving],
                    cho,
                )
                for k, j in zip(serving.tolist(), cho.tolist()):
                    choices[k].append(j)
                # The rollout ends where its last battery emptied, exactly
                # like a branched child.
                lifetimes[serving[dead]] = time[serving[dead]] * unit
                serving = serving[~dead]
            active = np.concatenate([idle, serving])
        return lifetimes, choices


# --------------------------------------------------------------------- #
# the batched scheduler
# --------------------------------------------------------------------- #
class BatchOptimalScheduler:
    """Best-first branch-and-bound with batched frontier evaluation.

    Args:
        params: battery parameter sets, one per battery.
        load: the load to schedule.
        model: ``"analytical"`` or ``"discrete"`` (the two vectorized
            battery models; anything else needs the scalar search).
        time_step / charge_unit: dKiBaM discretization (discrete only).
        max_nodes: optional cap on the number of expanded decision nodes;
            when the frontier still holds unexpanded, unpruned nodes at the
            cap the result carries ``complete=False``.
        use_dominance: enable dominance pruning (off only for ablations).
        archive_limit: maximum archived states per decision point; ``None``
            picks a tolerance-adaptive default.  Pruning more states never
            changes certified results -- dominance pruning is sound at any
            archive depth, the limit only caps how many admitted states
            later admissions are checked against.  Measured on the
            certification-floor loads: at ``dominance_tolerance=0``
            quantized signatures rarely merge, so a deep (1024) archive
            prunes *zero* extra nodes while costing ~2.5x the wall time --
            the certified default stays at the scalar search's 64.  With a
            positive tolerance the merged signatures keep archives small
            and effective, and the deep cap roughly halves the expanded
            nodes at no wall-time cost, so the tolerant default is 1024.
        dominance_tolerance: state-merge tolerance (Amin); zero certifies
            optimality, exactly like the scalar search.
        batch_size: frontier nodes expanded per vectorized round.  Larger
            batches amortize the NumPy call overhead further but expand
            against a staler incumbent; the default balances the two.
        use_symmetry: enable group-wise symmetry reduction between
            batteries with identical parameters (off only for ablation
            measurements -- symmetry never changes the result, only the
            node count).
    """

    def __init__(
        self,
        params: Sequence[BatteryParameters],
        load: Load,
        model: str = "analytical",
        time_step: float = 0.01,
        charge_unit: float = 0.01,
        max_nodes: Optional[int] = None,
        use_dominance: bool = True,
        archive_limit: Optional[int] = None,
        dominance_tolerance: float = 0.0,
        batch_size: int = DEFAULT_BATCH_SIZE,
        use_symmetry: bool = True,
    ) -> None:
        if not params:
            raise ValueError("at least one battery parameter set is required")
        if dominance_tolerance < 0.0:
            raise ValueError("dominance_tolerance must be non-negative")
        if batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        if model not in BATCH_OPTIMAL_MODELS:
            raise ValueError(
                f"the batched search supports models {BATCH_OPTIMAL_MODELS}, "
                f"got {model!r}; use repro.core.optimal.OptimalScheduler for "
                "other battery models"
            )
        self.params = tuple(params)
        self.load = load
        self.model = model
        self.time_step = time_step
        self.charge_unit = charge_unit
        self.max_nodes = max_nodes
        self.use_dominance = use_dominance
        if archive_limit is None:
            archive_limit = (
                _CERTIFIED_ARCHIVE_LIMIT
                if dominance_tolerance == 0.0
                else _TOLERANT_ARCHIVE_LIMIT
            )
        self.archive_limit = archive_limit
        self.dominance_tolerance = dominance_tolerance
        self.batch_size = batch_size
        self.use_symmetry = use_symmetry
        # Same grouping rule as the scalar search's model_symmetry_groups:
        # batteries with equal parameter sets are interchangeable (all
        # batteries of one search share the model and discretization, so
        # parameter equality is the whole key here).
        groups = (
            parameter_symmetry_groups(self.params)
            if use_symmetry
            else tuple(range(len(self.params)))
        )
        if model == "discrete":
            battery_model: _BatteryModel = _DiscreteModel(
                self.params, load, time_step, charge_unit
            )
        else:
            battery_model = _AnalyticalModel(self.params, load)
        self._ops = _SearchDriver(battery_model, groups)
        self._archive = VectorDominanceArchive(
            symmetric=len(set(groups)) == 1,
            n_batteries=len(self.params),
            dominance_tolerance=dominance_tolerance,
            archive_limit=archive_limit,
            groups=groups,
        )
        self._best_lifetime = float("-inf")
        self._best_assignment: Tuple[int, ...] = ()
        self._nodes_expanded = 0
        self._complete = True

    # ------------------------------------------------------------------ #
    def search(
        self,
        incumbent_policies: Sequence[str] = ("sequential", "round-robin", "best-of-two"),
        seed_assignment: Optional[Sequence[int]] = None,
    ) -> OptimalScheduleResult:
        """Run the batched search and return the optimal schedule.

        Args:
            incumbent_policies: heuristic policies simulated up front to
                provide the initial incumbent (and pruning cutoff).
            seed_assignment: optional battery-choice sequence from a
                neighboring search (e.g. the previous grid point of a
                capacity sweep).  It is *replayed on this search's own
                batteries* through the scalar simulator, so the resulting
                lifetime is genuinely achievable here and seeding is an
                admissible incumbent regardless of where the assignment
                came from: it can only raise the pruning cutoff, never
                change which schedules are reachable.  A seed that is not
                replayable on these batteries (its decision points do not
                line up) is silently ignored.
        """
        models = make_battery_models(
            self.params,
            backend=self.model,
            time_step=self.time_step,
            charge_unit=self.charge_unit,
        )
        simulator = MultiBatterySimulator(models)
        incumbent_name = "none"
        for policy_name in incumbent_policies:
            result = simulator.run(self.load, make_policy(policy_name))
            lifetime = (
                result.lifetime
                if result.lifetime is not None
                else self.load.total_duration
            )
            if lifetime > self._best_lifetime:
                self._best_lifetime = lifetime
                incumbent_name = policy_name
                self._best_assignment = tuple(
                    entry.battery
                    for entry in result.schedule.entries
                    if entry.battery is not None
                )
        if seed_assignment is not None:
            # The seed's decision points shift with the battery parameters,
            # so the raw assignment is not always its own best translation:
            # a few tail truncations are tried as well (the replay's
            # best-available fallback covers the dropped tail), and a seed
            # whose tail points at an already-empty battery truncates until
            # it replays.  Every variant is an actual schedule of *these*
            # batteries, so taking the best replay is always admissible.
            seed = tuple(seed_assignment)
            variants = [seed[: len(seed) - cut] for cut in range(3) if len(seed) > cut]
            best_replay = None
            while variants:
                candidate = variants.pop(0)
                try:
                    result = simulator.run(
                        self.load, FixedAssignmentPolicy(candidate)
                    )
                except ValueError as error:
                    # Cut at the failing decision (not one-by-one from the
                    # tail): the exception names where the foreign schedule
                    # stopped replaying, so one retry per failure point.
                    failed_at = getattr(error, "decision_index", len(candidate) - 1)
                    truncated = candidate[:failed_at]
                    if truncated and truncated not in variants:
                        variants.append(truncated)
                    continue
                lifetime = (
                    result.lifetime
                    if result.lifetime is not None
                    else self.load.total_duration
                )
                if best_replay is None or lifetime > best_replay[0]:
                    best_replay = (lifetime, result)
            if best_replay is not None:
                lifetime, result = best_replay
                # Strictly better only: on ties the heuristic incumbent is
                # kept, exactly as an unseeded search would report it.
                if lifetime > self._best_lifetime:
                    self._best_lifetime = lifetime
                    incumbent_name = "seed"
                    self._best_assignment = tuple(
                        entry.battery
                        for entry in result.schedule.entries
                        if entry.battery is not None
                    )

        counter = itertools.count()
        heap: List = []
        pool = self._ops.pool
        # Slot re-use stamps for lazy heap invalidation: a heap entry is
        # stale (its slot was retroactively evicted and possibly re-used)
        # when its recorded stamp no longer matches the slot's.
        stamps = np.zeros(pool.capacity, dtype=np.int64)

        def slot_stamp(slot: int) -> int:
            nonlocal stamps
            if stamps.shape[0] < pool.capacity:
                grown = np.zeros(pool.capacity, dtype=np.int64)
                grown[: stamps.shape[0]] = stamps
                stamps = grown
            return int(stamps[slot])

        def admit(ready) -> None:
            """Bound-cut, then dominance-prune one archive call per key.

            Pruned slots are released and survivors pushed in child order,
            so heap tie-break counters and slot re-use match admitting the
            children one at a time.
            """
            if ready is None:
                return
            slots, totals, keys, matrices = ready
            accepted = totals > self._best_lifetime + _TIME_EPSILON
            if self.use_dominance:
                by_key: dict = {}
                for row in np.flatnonzero(accepted).tolist():
                    by_key.setdefault(keys[row], []).append(row)
                for key, rows in by_key.items():
                    accepted[rows] = self._archive.admit_many(key, matrices[rows])
            pool.release(slots[~accepted])
            for slot, total in zip(
                slots[accepted].tolist(), totals[accepted].tolist()
            ):
                heapq.heappush(
                    heap, (-total, next(counter), total, slot, slot_stamp(slot))
                )

        def evict_frontier() -> None:
            """Retroactively drop frontier entries the incumbent now covers.

            The UB/LB dual cut of the ``fcn_BB`` exemplar: whenever the
            incumbent (a certified *lower* bound) improves, every live
            frontier slot whose upper bound can no longer beat it is
            free-listed immediately instead of waiting to be popped.  The
            pop loop would never expand those entries anyway -- the heap
            is bound-ordered and clears at the first sub-incumbent top --
            so this is frontier hygiene: the pool rows recycle sooner and
            the heap shrinks, which keeps memory flat on long searches.
            Entries are invalidated lazily via slot stamps.
            """
            nonlocal heap
            cutoff = self._best_lifetime + _TIME_EPSILON
            keep: List = []
            for entry in heap:
                _, _, bound_total, slot, stamp = entry
                if stamps[slot] != stamp:
                    continue  # already evicted and possibly re-used
                if bound_total <= cutoff:
                    stamps[slot] += 1
                    pool.release(slot)
                else:
                    keep.append(entry)
            if len(keep) != len(heap):
                heapq.heapify(keep)
                heap = keep

        candidates, ready = self._ops.prepare(
            self._ops.root_batch(), self._best_lifetime
        )
        self._record(candidates)
        admit(ready)

        rounds = 0
        while heap:
            batch: List[int] = []
            while heap and len(batch) < self.batch_size:
                _, _, bound_total, slot, stamp = heapq.heappop(heap)
                if stamps[slot] != stamp:
                    continue  # stale entry: slot was evicted
                if bound_total <= self._best_lifetime + _TIME_EPSILON:
                    # The frontier is bound-ordered: once the best bound
                    # cannot beat the incumbent, nothing on the heap can.
                    heap.clear()
                    break
                batch.append(slot)
            if not batch:
                break
            if self.max_nodes is not None:
                allowed = self.max_nodes - self._nodes_expanded
                if allowed < len(batch):
                    # Unexpanded, unpruned nodes remain: the result is only
                    # a certified lower bound from here on.
                    self._complete = False
                    batch = batch[:allowed]
                    if not batch:
                        break
            self._nodes_expanded += len(batch)
            slots = np.asarray(batch, dtype=np.int64)
            best_before = self._best_lifetime
            if rounds % _LB_PROBE_PERIOD == 0:
                # Dual-bound probe: greedy-complete the popped nodes (an
                # achievable schedule each, so a sound incumbent) before
                # branching them.  Periodic, not per-round: the rollout
                # costs about one extra expansion round, and the frontier's
                # bound order means the same strong nodes would surface
                # again next probe if skipped.
                lower, tails = self._ops.greedy_lifetimes(slots)
                best = int(np.argmax(lower))
                if lower[best] > self._best_lifetime + _TIME_EPSILON:
                    self._best_lifetime = float(lower[best])
                    self._best_assignment = self._ops.trace.assignment(
                        int(pool.trace[slots[best]])
                    ) + tuple(tails[best])
            rounds += 1
            candidates, children = self._ops.branch(slots)
            pool.release(slots)
            self._record(candidates)
            candidates, ready = self._ops.prepare(children, self._best_lifetime)
            self._record(candidates)
            admit(ready)
            if self._best_lifetime > best_before + _TIME_EPSILON:
                evict_frontier()

        replay = simulator.run(
            self.load, FixedAssignmentPolicy(self._best_assignment)
        )
        lifetime = (
            replay.lifetime
            if replay.lifetime is not None
            else self.load.total_duration
        )
        return OptimalScheduleResult(
            lifetime=lifetime,
            schedule=replay.schedule,
            assignment=self._best_assignment,
            nodes_expanded=self._nodes_expanded,
            complete=self._complete,
            backend=self.model,
            incumbent_policy=incumbent_name,
            final_states=replay.final_states,
            residual_charge=replay.residual_charge,
        )

    def _record(self, candidates) -> None:
        for lifetime, trace_id in candidates:
            if lifetime > self._best_lifetime + _TIME_EPSILON:
                self._best_lifetime = lifetime
                # Reconstructing the assignment walks the decision trace
                # backwards; it only happens for improving candidates, so
                # the cost is O(depth) a handful of times per search.
                self._best_assignment = self._ops.trace.assignment(trace_id)


# --------------------------------------------------------------------- #
# convenience entry points
# --------------------------------------------------------------------- #
def find_optimal_schedule_batched(
    params: Sequence[BatteryParameters],
    load: Load,
    model: str = "analytical",
    time_step: float = 0.01,
    charge_unit: float = 0.01,
    max_nodes: Optional[int] = None,
    use_dominance: bool = True,
    dominance_tolerance: float = 0.0,
    batch_size: int = DEFAULT_BATCH_SIZE,
    seed_assignment: Optional[Sequence[int]] = None,
    archive_limit: Optional[int] = None,
    use_symmetry: bool = True,
) -> OptimalScheduleResult:
    """Batched counterpart of :func:`repro.core.optimal.find_optimal_schedule`.

    Same semantics and result type; models without a vectorized kernel
    (``"linear"``) transparently fall back to the scalar search (which
    ignores ``seed_assignment`` -- seeding is a pure pruning optimization;
    see :meth:`BatchOptimalScheduler.search`).  ``archive_limit=None``
    picks the tolerance-adaptive archive depth documented on
    :class:`BatchOptimalScheduler`.
    """
    if model not in BATCH_OPTIMAL_MODELS:
        scheduler = OptimalScheduler(
            make_battery_models(
                params,
                backend=model,
                time_step=time_step,
                charge_unit=charge_unit,
            ),
            load,
            max_nodes=max_nodes,
            use_dominance=use_dominance,
            dominance_tolerance=dominance_tolerance,
            use_symmetry=use_symmetry,
        )
        return scheduler.search()
    scheduler = BatchOptimalScheduler(
        params,
        load,
        model=model,
        time_step=time_step,
        charge_unit=charge_unit,
        max_nodes=max_nodes,
        use_dominance=use_dominance,
        archive_limit=archive_limit,
        dominance_tolerance=dominance_tolerance,
        batch_size=batch_size,
        use_symmetry=use_symmetry,
    )
    return scheduler.search(seed_assignment=seed_assignment)


def optimal_schedules_batch(
    loads: Sequence[Load],
    params: Sequence[BatteryParameters],
    model: str = "analytical",
    time_step: float = 0.01,
    charge_unit: float = 0.01,
    max_nodes: Optional[int] = 20_000,
    dominance_tolerance: float = 0.005,
    scalar_fallback: bool = True,
    seed_assignment: Optional[Sequence[int]] = None,
) -> List[OptimalScheduleResult]:
    """One batched optimal search per load, with the sweep-friendly defaults.

    The node cap and state-merge tolerance default to the Monte-Carlo
    sweep's long-standing bounds (20k nodes, half a charge unit), so a
    sweep's ``optimal`` column stays tractable on arbitrary random loads;
    pass ``max_nodes=None`` / ``dominance_tolerance=0.0`` for certified
    searches.

    A capped best-first search only certifies a (sometimes shallow) lower
    bound, while the scalar depth-first search drives its incumbent much
    deeper under the same budget.  With ``scalar_fallback`` (the default,
    used by the sweep runner and the Monte-Carlo column alike so both
    report identical numbers), every search that hits ``max_nodes`` is
    re-driven through :func:`repro.engine.parallel.optimal_schedules_chunk`
    and the better *whole result* -- lifetime, schedule, decision count and
    residual charge together -- is kept.  The scalar result never replaces
    a longer-lived batched schedule; on (1e-9) lifetime ties a scalar
    search that completed within the budget wins, upgrading the column to
    a certified optimum.  (With ``dominance_tolerance > 0`` a "complete"
    DFS can still miss a better schedule the batched frontier found --
    tolerance merging is order-dependent -- which is why the lifetime
    comparison comes first.)

    ``seed_assignment`` (see :meth:`BatchOptimalScheduler.search`) seeds
    every search in the list with a neighboring schedule; the sweep runner
    passes one load per call, chaining each grid point's winner into the
    next.  A *seeded search that hits its node cap is re-run without the
    seed*: a capped search's outcome depends on which nodes fit in the
    budget, so the fresh re-run (whose node work is still accounted in
    ``nodes_expanded``) is what keeps the documented invariant that
    seeding prunes work but never changes reported results, capped or not.
    """
    import dataclasses

    from repro.engine.parallel import optimal_schedules_chunk

    results = []
    for load in loads:
        result = find_optimal_schedule_batched(
            params,
            load,
            model=model,
            time_step=time_step,
            charge_unit=charge_unit,
            max_nodes=max_nodes,
            dominance_tolerance=dominance_tolerance,
            seed_assignment=seed_assignment,
        )
        if seed_assignment is not None and not result.complete:
            seeded_nodes = result.nodes_expanded
            fresh = find_optimal_schedule_batched(
                params,
                load,
                model=model,
                time_step=time_step,
                charge_unit=charge_unit,
                max_nodes=max_nodes,
                dominance_tolerance=dominance_tolerance,
            )
            result = dataclasses.replace(
                fresh, nodes_expanded=fresh.nodes_expanded + seeded_nodes
            )
        if scalar_fallback and not result.complete:
            scalar = optimal_schedules_chunk(
                [load],
                params,
                backend=model,
                max_nodes=max_nodes,
                dominance_tolerance=dominance_tolerance,
                time_step=time_step,
                charge_unit=charge_unit,
            )[0]
            if scalar.lifetime > result.lifetime + _TIME_EPSILON or (
                scalar.complete
                and scalar.lifetime >= result.lifetime - _TIME_EPSILON
            ):
                result = scalar
        results.append(result)
    return results
