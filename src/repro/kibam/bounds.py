"""Admissible lifetime bounds for multi-battery KiBaM scheduling.

The perfect-pooling bound (summing the transformed states of batteries that
share ``c`` and ``k'`` and walking one pooled KiBaM through the load) is the
workhorse upper bound of both optimal searches.  It is exact about the
*aggregate* dynamics -- the pooled ``(gamma, delta)`` evolves identically
however the load is split -- but it implicitly lets every battery's bound
charge serve the load, as if charge could migrate between batteries.  Real
schedules cannot do that: one battery serves each burst (switchover happens
only when the serving battery dies), and a dead battery strands whatever
bound charge it still holds.

This module implements the *recovery-limited* refinement of the pooling
bound used by :class:`repro.core.optimal.OptimalScheduler` and the batched
:class:`repro.engine.optimal_batch.BatchOptimalScheduler`.  The argument
has two halves, both closed-form:

**Chain feasibility.**  While no battery has died, the aggregate state at
each job start equals the pooled walk exactly, and each job must be served
*whole* by a single battery (decisions happen at job starts and at server
deaths only).  Serving current ``I`` for ``d`` minutes from well state
``(y1, y2)`` succeeds iff the empty margin stays positive through the
burst, which linearizes to ``y1 >= A - B * y2`` with

.. math::

    A = \\frac{c\\,(I d + (1-E)\\,(1-c)\\,\\delta_\\infty)}{c + (1-c)E},
    \\qquad
    B = \\frac{c\\,(1-E)}{c + (1-c)E},
    \\qquad E = e^{-k'd},\\ \\delta_\\infty = I/(c k').

Per battery ``u`` the search only knows sound *caps* at job start ``s``:
``y1_u(s) <= min(y1_pool(s), y1_u^0 + y2_u^0 (1 - e^{-k'c s}))`` (no
battery's available charge exceeds the pool's while all are alive, and a
battery cannot gain available charge faster than its own bound charge
transfers) and ``y2_u(s) <= min(y2_u^0, y2_pool(s) - \\sum_{v \\ne u}
y2_v^0 e^{-k'c s})`` (per-battery bound charge never increases and decays
at most at rate ``k'c``; the pooled ``y2`` bookkeeping is exact).  ``B >
0``, so plugging the ``y2`` cap into the threshold is optimistic; if *no*
battery passes its optimistic check for some job ``j*``, every schedule
suffers its first battery death no later than that job's end ``T*``.

**Stranded-charge tail.**  A battery that dies at ``tau1 <= T*`` keeps
``y2 >= y2_min^0 e^{-k'c tau1}`` Amin forever (its gamma is frozen once it
stops serving).  The total charge delivered by the surviving batteries
through time ``t`` along the *actual* pooled trajectory obeys the
max-drain envelope ``delivered(t) <= y1_pool(tau1) + y2_pool(tau1)(1 -
e^{-k'c (t - tau1)})`` which, evaluated along the pooled walk, is
non-increasing in ``tau1`` (the envelope derivative is ``e^{-k'c(t-tau)}
k'c ((1-c)\\delta - y2) <= 0`` whenever the pooled ``y1 >= 0``).  Hence for
any first death at ``tau1 <= T* <= t``::

    demand(0, t] <= Y1 + Y2 (1 - e^{-k'c t})
                    - y2_min^0 (e^{-k'c T*} - e^{-k'c t})

with ``(Y1, Y2)`` the pooled wells at the node.  The first ``t >= T*``
where the load's cumulative demand exceeds this envelope upper-bounds the
system death; the recovery-limited bound is its minimum with the pooled
crossing.  With a single alive battery the feasibility check is exact and
the refinement degenerates to the pooled bound itself, so the bound is
admissible for every alive count.

Nothing in either half fixes the number of batteries: the per-battery caps,
the feasibility sweep and the stranded-charge envelope are rows of
``(n_nodes, n_batteries)`` arrays, so the same bounds serve 2-battery pairs
and N-battery fleets alike.  The admissibility argument is per-fleet --
"no battery passes its optimistic cap" quantifies over however many
batteries are alive -- and the nightly fleet property suite asserts the
root hierarchy ``total-charge >= pooling >= recovery-limited >= certified
optimum`` on random 2-6 battery heterogeneous fleets.

Everything here is expressed in the transformed analytical coordinates
and bounds the analytical model only.  dKiBaM searches on the paper's grid
inflate the pooled bound by a measured margin
(:func:`repro.core.optimal.discrete_pooling_margin`); on coarser grids,
where tick rounding lets the dKiBaM outlive the analytical pooled battery
by far more than any fixed relative margin, they prune with
:class:`DrawBudgetBound`, which is proven from the tick semantics.

**What the layer skips, exactly.**  Fleet searches evaluate these bounds
for thousands of nodes per round, so the layer avoids work it can prove
changes nothing:

* *Crossing screens.*  A pooled walk asks a crossing solver about every
  load segment, but almost no segment holds the crossing.
  :func:`segment_may_cross` (one segment, plain floats) and
  :func:`segments_may_cross` (arrays) clear a segment when its margin at
  the solver's own bracket end is positive by a relative ``1e-9`` -- far
  above the last-bit differences between the solvers -- so the solver runs
  only where it can report a crossing, and every table and pooled bound is
  bit for bit what asking the solver everywhere gives.
  :func:`build_pooled_job_table` screens each segment; the batched
  search's pooled walk screens all rows of an epoch step at once.
* *Refining only survivors.*  The refinement never exceeds the pooled
  bound, so both searches compute it only for nodes the pooled bound does
  not already prune.
* *One-pass tail.*  :func:`recovery_limited_refinements` deduplicates the
  stranded-charge tails of a group through the table's memo and solves the
  rest together: one ``(rows, segments)`` sweep finds each row's crossing
  segment, and a closed-form Lambert-W root places the crossing there (see
  :func:`_tail_crossings`), nudged up to where the margin is positive.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Optional

import numpy as np
from scipy import special

from repro.kibam.parameters import BatteryParameters

__all__ = [
    "DrawBudgetBound",
    "PooledJobTable",
    "burst_survival_coefficients",
    "build_pooled_job_table",
    "recovery_limited_refinements",
    "segment_may_cross",
    "segments_may_cross",
]

#: Feasibility comparisons err on the side of "feasible" by this margin so
#: float noise can only weaken (never unsoundly tighten) the bound.
_FEASIBILITY_EPSILON = 1e-9

#: Relative margin by which a segment's end margin must clear zero for the
#: crossing screens to skip the solver (scaled by ``|gamma| + |delta| + 1``).
_SCREEN_TOLERANCE = 1e-9

#: First upward step (minutes) that moves a closed-form tail crossing off
#: the rounding noise to where the margin is positive; it doubles per step.
_TAIL_NUDGE = 1e-13

#: Per-table memo cap for tail-crossing results (clear-on-overflow, same
#: policy as the searches' bound caches).
_TAIL_CACHE_LIMIT = 65536


def segment_may_cross(
    c: float,
    k_prime: float,
    gamma: float,
    delta: float,
    current: float,
    horizon: float,
) -> bool:
    """Whether one constant-current segment can hold the empty crossing.

    ``False`` is a proof that every crossing solver of the searches --
    :func:`repro.kibam.lifetime.time_to_empty` and
    :func:`repro.engine.kernels.time_to_empty_array` -- reports *no*
    crossing for the segment: the start margin is positive and the current
    is zero, or the margin at the solvers' own bracket end ``min(gamma/I,
    horizon)``, computed with the kernels' formula, clears zero by
    :data:`_SCREEN_TOLERANCE` (relative), far above the last-bit
    differences between ``math.exp`` and ``np.exp``.  ``True`` means "ask
    the solver".
    """
    if gamma - (1.0 - c) * delta <= 0.0:
        return True
    if current <= 0.0:
        return False
    t = min(gamma / current, horizon)
    decay = math.exp(-k_prime * t)
    delta_inf = current / (c * k_prime)
    margin = (gamma - current * t) - (1.0 - c) * (delta_inf + (delta - delta_inf) * decay)
    return margin <= _SCREEN_TOLERANCE * (abs(gamma) + abs(delta) + 1.0)


def segments_may_cross(
    c: float,
    k_prime: float,
    gamma: np.ndarray,
    delta: np.ndarray,
    current: np.ndarray,
    horizon: np.ndarray,
) -> np.ndarray:
    """:func:`segment_may_cross` for arrays of segments, one mask entry each."""
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.minimum(gamma / current, horizon)
        decay = np.exp(-k_prime * t)
        delta_inf = current / (c * k_prime)
        margin = (gamma - current * t) - (1.0 - c) * (
            delta_inf + (delta - delta_inf) * decay
        )
    slack = _SCREEN_TOLERANCE * (np.abs(gamma) + np.abs(delta) + 1.0)
    return (gamma - (1.0 - c) * delta <= 0.0) | (
        (current > 0.0) & (margin <= slack)
    )


def burst_survival_coefficients(
    c: float, k_prime: float, current: float, duration: float
) -> tuple:
    """``(A, B)`` of the exact single-server burst threshold ``y1 >= A - B y2``.

    A KiBaM battery with wells ``(y1, y2)`` serves ``current`` Ampere for
    ``duration`` minutes without going empty iff ``y1 >= A - B * y2``;
    the threshold is linear because both the terminal margin and the wells
    are linear in the initial state.  ``B >= 0`` always.
    """
    decay = math.exp(-k_prime * duration)
    delta_inf = current / (c * k_prime)
    denom = c + (1.0 - c) * decay
    a = c * (current * duration + (1.0 - decay) * (1.0 - c) * delta_inf) / denom
    b = c * (1.0 - decay) / denom
    return a, b


@dataclasses.dataclass
class PooledJobTable:
    """Per-decision-point pooled-walk data shared by a batch of nodes.

    The table depends only on the decision point and the pooled state --
    which, before any battery death, is identical across every search node
    at that decision point -- so both searches cache one table per pooled
    bound-cache key and evaluate many nodes against it.

    All times are relative to the decision point; ``crossing`` is the
    perfect-pooling bound (unscaled).  Segments run up to and including the
    segment containing the pooled crossing; jobs are the job segments among
    them, with the exact pooled wells at each job start.
    """

    crossing: float
    #: Segment grid (jobs and idles interleaved), clipped at the crossing.
    seg_start: np.ndarray
    seg_current: np.ndarray
    seg_end: np.ndarray
    #: Cumulative demand (Amin) from the decision point to each seg start.
    seg_demand: np.ndarray
    #: Tail-crossing columns: each segment's end time, the cumulative demand
    #: there (``-inf`` for idle segments, which never hold a tail crossing)
    #: and ``e^{-k'c t}`` there, plus a final sentinel column that always
    #: holds a crossing.
    tail_end: np.ndarray
    tail_demand: np.ndarray
    tail_fade: np.ndarray
    #: Job rows: ``e^{-k'c s}`` at the job start ``s``, the burst threshold
    #: ``(A, B)``, the pooled wells at the job start, and the stranded-charge
    #: tail's deadline ``min(job end, crossing)`` with ``e^{-k'c t}`` there.
    job_fade: np.ndarray
    job_a: np.ndarray
    job_b: np.ndarray
    job_y1_pool: np.ndarray
    job_y2_pool: np.ndarray
    job_deadline: np.ndarray
    job_deadline_fade: np.ndarray
    #: Memo for ``_tail_crossings`` results; nodes at the same decision point
    #: frequently share well totals, so the solve is worth deduplicating.
    tail_cache: dict = dataclasses.field(default_factory=dict)


def build_pooled_job_table(
    params: BatteryParameters,
    currents: np.ndarray,
    durations: np.ndarray,
    epoch_index: int,
    offset: float,
    gamma: float,
    delta: float,
    time_to_empty_fn,
) -> PooledJobTable:
    """Walk the pooled battery through the remaining load, recording jobs.

    ``time_to_empty_fn(params, gamma, delta, current, horizon)`` must return
    the crossing time within the segment or ``None`` (both searches pass
    their own solver so the walk reproduces their pooled bound exactly).
    """
    c = params.c
    k_prime = params.k_prime
    kc = k_prime * c
    elapsed = 0.0
    demand = 0.0
    seg_start = []
    seg_current = []
    seg_end = []
    seg_demand = []
    tail_demand = []
    tail_fade = []
    job_start = []
    job_a = []
    job_b = []
    job_end = []
    job_y1 = []
    job_y2 = []
    crossing: Optional[float] = None
    for index in range(epoch_index, len(currents)):
        current = float(currents[index])
        duration = float(durations[index]) - (offset if index == epoch_index else 0.0)
        if duration <= 0.0:
            continue
        end = elapsed + duration
        seg_start.append(elapsed)
        seg_current.append(current)
        seg_end.append(end)
        seg_demand.append(demand)
        tail_fade.append(math.exp(-kc * end))
        if current > 0.0:
            tail_demand.append(demand + current * (end - elapsed))
            y1 = c * (gamma - (1.0 - c) * delta)
            y2 = gamma - y1
            a, b = burst_survival_coefficients(c, k_prime, current, duration)
            job_start.append(elapsed)
            job_a.append(a)
            job_b.append(b)
            job_end.append(end)
            job_y1.append(y1)
            job_y2.append(y2)
        else:
            tail_demand.append(-math.inf)
        if segment_may_cross(c, k_prime, gamma, delta, current, duration):
            hit = time_to_empty_fn(params, gamma, delta, current, duration)
            if hit is not None:
                crossing = elapsed + hit
                break
        decay = math.exp(-k_prime * duration)
        delta = current / (c * k_prime) + (delta - current / (c * k_prime)) * decay
        gamma = gamma - current * duration
        elapsed = end
        demand += current * duration
    if crossing is None:
        crossing = elapsed
    job_deadline = [min(end, crossing) for end in job_end]

    def array(values):
        return np.asarray(values, dtype=np.float64)

    return PooledJobTable(
        crossing=crossing,
        seg_start=array(seg_start),
        seg_current=array(seg_current),
        seg_end=array(seg_end),
        seg_demand=array(seg_demand),
        tail_end=array(seg_end + [math.inf]),
        tail_demand=array(tail_demand + [math.inf]),
        tail_fade=array(tail_fade + [0.0]),
        job_fade=np.exp(-kc * array(job_start)),
        job_a=array(job_a),
        job_b=array(job_b),
        job_y1_pool=array(job_y1),
        job_y2_pool=array(job_y2),
        job_deadline=array(job_deadline),
        job_deadline_fade=array([math.exp(-kc * t) for t in job_deadline]),
    )


def _tail_crossings(
    table: PooledJobTable,
    kc: float,
    y1_total: np.ndarray,
    y2_total: np.ndarray,
    y2_min: np.ndarray,
    first_bad: np.ndarray,
) -> np.ndarray:
    """First ``t >= deadline`` where cumulative demand beats the envelope.

    One row per node, all solved together; ``deadline`` is
    ``table.job_deadline[first_bad]``, the end of the node's first job
    that no battery can serve whole.  The envelope is ``Y1 + Y2 (1 -
    e^{-kc t}) - y2_min (e^{-kc deadline} - e^{-kc t})``.  At the deadline
    the demand cannot exceed it (the pooled battery is still alive there),
    and within one segment the demand-minus-envelope margin ``q + I x + S
    e^{-kc x}`` (``x`` from the segment's low end, ``S >= 0``) is convex and
    falls while the load idles, so the crossing lies in the first job
    segment past the deadline whose end margin is positive.  Its root is
    the closed form ``x = W0(-(kc S / I) e^{kc q / I}) / kc - q / I`` (the
    principal Lambert-W branch is the rising root).  The returned time is
    the upper end of a bracket around that root: nudged up until the margin
    there is positive, so the bound stays admissible.  Rows whose demand
    never catches the envelope get ``table.crossing`` (the pooled bound
    then stands un-refined).
    """
    # margin(t) = demand(t) - envelope(t)
    #           = (base + current (t - seg_start)) - flat + sag * e^{-kc t}
    # with flat = Y1 + Y2 - y2_min e^{-kc deadline} and sag = Y2 - y2_min.
    deadline = table.job_deadline[first_bad]
    flat = y1_total + y2_total - y2_min * table.job_deadline_fade[first_bad]
    sag = y2_total - y2_min
    m_end = table.tail_demand - flat[:, None] + sag[:, None] * table.tail_fade
    seg = ((m_end > 0.0) & (table.tail_end > deadline[:, None])).argmax(axis=1)
    out = np.empty(seg.shape[0])
    out.fill(table.crossing)
    rows = (seg < table.seg_end.shape[0]).nonzero()[0]
    if rows.size == 0:
        return out
    seg = seg[rows]
    flat = flat[rows]
    sag = sag[rows]
    t0 = table.seg_start[seg]
    hi = table.seg_end[seg]
    base = table.seg_demand[seg]
    rise = table.seg_current[seg]
    lo = np.maximum(t0, deadline[rows])
    # The margin from the low end: q + I x + S e^{-kc x}.
    q = base + rise * (lo - t0) - flat
    ratio = q / rise
    lambert = special.lambertw((sag * (-kc / rise)) * np.exp(kc * (ratio - lo))).real
    t = np.minimum(np.maximum(lo + (lambert / kc - ratio) + _TAIL_NUDGE, lo), hi)
    # Any time with a positive margin is at or past the first crossing, so
    # nudging up to one keeps the bound admissible, also where rounding put
    # the Lambert-W argument just below -1/e (a tangential root).
    nudge = _TAIL_NUDGE
    while True:
        low = base + rise * (t - t0) - flat + sag * np.exp(-kc * t) <= 0.0
        if not low.any():
            break
        nudge *= 2.0
        t = np.where(low, np.minimum(t + nudge, hi), t)
    out[rows] = np.minimum(t, table.crossing)
    return out


def recovery_limited_refinements(
    table: PooledJobTable,
    params: BatteryParameters,
    y1: np.ndarray,
    y2: np.ndarray,
    alive: np.ndarray,
) -> np.ndarray:
    """Recovery-limited remaining-lifetime bounds for a batch of nodes.

    Args:
        table: the pooled job table of the shared decision point.
        params: the pooled battery parameters (shared ``c``/``k'``).
        y1 / y2: ``(n_nodes, n_batteries)`` per-battery wells at the node.
        alive: matching boolean mask of non-empty batteries.

    Returns:
        ``(n_nodes,)`` unscaled bounds, each ``<= table.crossing`` (the
        perfect-pooling bound) and admissible for the true remaining
        lifetime of the node.
    """
    y1 = np.asarray(y1, dtype=np.float64)
    y2 = np.asarray(y2, dtype=np.float64)
    alive = np.asarray(alive, dtype=bool)
    if y1.shape != y2.shape or y1.shape != alive.shape or y1.ndim != 2:
        raise ValueError(
            "y1, y2 and alive must share one (n_nodes, n_batteries) shape"
        )
    out = np.empty(y1.shape[0])
    out.fill(table.crossing)
    if table.job_fade.shape[0] == 0:
        return out

    # Dead batteries hold nothing (a signed zero changes no sum or test).
    y1 = y1 * alive
    y2 = y2 * alive
    # (N, J, B) sound caps on each battery's wells at each job start.
    fade = table.job_fade[None, :, None]  # e^{-k'c s_j}
    y2_node = y2[:, None, :]
    y2_fade = y2_node * fade
    others_floor = y2_fade.sum(axis=2, keepdims=True) - y2_fade
    y2_cap = np.minimum(y2_node, table.job_y2_pool[None, :, None] - others_floor)
    y1_cap = np.minimum(
        table.job_y1_pool[None, :, None], y1[:, None, :] + y2_node * (1.0 - fade)
    )
    required = table.job_a[None, :, None] - table.job_b[None, :, None] * y2_cap
    feasible = (y1_cap >= required - _FEASIBILITY_EPSILON) & alive[:, None, :]
    job_ok = feasible.any(axis=2)  # (N, J)

    # Rows where some job has no server and at least two batteries live.
    rows = (~job_ok.all(axis=1) & (alive.sum(axis=1) >= 2)).nonzero()[0]
    if rows.size == 0:
        return out
    first_bad = job_ok.argmin(axis=1)[rows]
    y1_total = y1.sum(axis=1)[rows]
    y2_total = y2.sum(axis=1)[rows]
    y2_node_min = y2.min(axis=1, where=alive, initial=np.inf)[rows]
    keys = [
        (bad, round(t1, 12), round(t2, 12), round(low, 12))
        for bad, t1, t2, low in zip(
            first_bad.tolist(),
            y1_total.tolist(),
            y2_total.tolist(),
            y2_node_min.tolist(),
        )
    ]
    # Memo lookups first; the misses (one row per distinct key) are then
    # solved together.
    cache = table.tail_cache
    tails: dict = {}
    pending: dict = {}
    for i, key in enumerate(keys):
        if key in tails or key in pending:
            continue
        cached = cache.get(key)
        if cached is None:
            pending[key] = i
        else:
            tails[key] = cached
    if pending:
        solve = np.fromiter(pending.values(), dtype=np.int64, count=len(pending))
        solved = _tail_crossings(
            table,
            params.k_prime * params.c,
            y1_total[solve],
            y2_total[solve],
            y2_node_min[solve],
            first_bad[solve],
        )
        for key, tail in zip(pending, solved.tolist()):
            tails[key] = tail
            if len(cache) >= _TAIL_CACHE_LIMIT:
                cache.clear()
            cache[key] = tail
    out[rows] = [tails[key] for key in keys]
    return out


class DrawBudgetBound:
    """Admissible remaining-lifetime bound of a dKiBaM system, in ticks.

    The analytical bounds above do not carry over to the dKiBaM: tick
    rounding lets a discrete battery outlive the continuous model by far
    more than any fixed relative margin on coarse grids.  This bound is
    proven from the tick semantics of :class:`repro.kibam.discrete.
    DiscreteKibam` instead.

    Cut the ticks from a search node to the system's death into *stretches*:
    one battery serving inside one epoch, ended by an epoch boundary or by
    that battery emptying.  A battery's accumulator starts a stretch at zero
    or above and gains ``cur`` per tick, so a stretch of ``l`` ticks at rate
    ``r = cur / cur_times`` draws at least ``floor(l r)`` units -- unless the
    battery empties on its last tick, which stops the draws of that tick
    after the first, costing at most ``ceil(r) - 1`` units.  Splitting an
    epoch between two batteries loses at most one more unit to the floors.
    Each battery empties at most once and can draw at most its ``n`` units
    (equation (8) holds at ``n = 0``), so through a lifetime of ``L`` ticks

    .. math::

        \\sum_{j} \\lfloor l_j r_j \\rfloor \\le
        \\sum_{\\text{alive}} n_i + B\\,q, \\qquad
        q = \\max(1, \\max_j \\lceil r_j \\rceil),

    with ``l_j`` the ticks of epoch ``j`` inside the lifetime and ``B`` the
    alive count.  The largest ``L`` satisfying it is the bound.  It uses
    only the unit counters, never the threshold or the recovery, so it is
    loose, but it holds on every grid; :meth:`ticks` answers it for many
    nodes with one ``searchsorted`` over prefix sums of per-epoch draws.

    Args:
        cur: per-epoch draw numerators (0 for idle epochs).
        cur_times: per-epoch draw denominators (1 for idle epochs).
        epoch_ticks: per-epoch lengths in ticks.
    """

    def __init__(self, cur, cur_times, epoch_ticks) -> None:
        self.cur = np.asarray(cur, dtype=np.int64)
        self.cur_times = np.asarray(cur_times, dtype=np.int64)
        self.epoch_ticks = np.asarray(epoch_ticks, dtype=np.int64)
        full_draws = self.epoch_ticks * self.cur // self.cur_times
        self.prefix_draws = np.concatenate(([0], np.cumsum(full_draws)))
        self.prefix_ticks = np.concatenate(([0], np.cumsum(self.epoch_ticks)))
        per_tick = -(-self.cur // self.cur_times)
        self.allowance = int(max(1, per_tick.max(initial=0)))

    def ticks(self, units, alive_count, epoch, offset) -> np.ndarray:
        """Bound in ticks from nodes at ``(epoch, offset)`` (offset in ticks).

        ``units`` is each node's total of charge units held by alive
        batteries and ``alive_count`` their number; all arguments are
        integer arrays of one shape.
        """
        epoch = np.asarray(epoch, dtype=np.int64)
        offset = np.asarray(offset, dtype=np.int64)
        budget = np.asarray(units, dtype=np.int64) + self.allowance * np.asarray(
            alive_count, dtype=np.int64
        )
        n_epochs = self.epoch_ticks.shape[0]
        out = np.empty(epoch.shape, dtype=np.int64)
        ended = epoch >= n_epochs
        out[ended] = 0
        live = np.flatnonzero(~ended)
        if live.size == 0:
            return out
        e = epoch[live]
        first = self.epoch_ticks[e] - offset[live]
        first_draws = first * self.cur[e] // self.cur_times[e]
        budget = budget[live]
        # Epoch the budget runs out in: the first whose whole draws exceed
        # what is left after the node's (partial) epoch.
        target = budget - first_draws + self.prefix_draws[e + 1]
        stop = np.searchsorted(self.prefix_draws, target, side="right") - 1
        stop = np.where(first_draws > budget, e, np.maximum(stop, e + 1))
        left = np.where(
            first_draws > budget, budget, target - self.prefix_draws[stop]
        )
        before = np.where(
            stop == e, 0, first + self.prefix_ticks[stop] - self.prefix_ticks[e + 1]
        )
        survives = stop >= n_epochs
        last = np.minimum(stop, n_epochs - 1)
        # Largest t with floor(t * cur / cur_times) <= left.
        inside = ((left + 1) * self.cur_times[last] - 1) // np.maximum(
            self.cur[last], 1
        )
        out[live] = np.where(survives, before, before + inside)
        return out
