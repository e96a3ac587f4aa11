"""In-memory span tracing around the public functions of each layer.

Spans are recorded only from this benchmark: :func:`install` replaces the
layer entry points listed in :data:`LAYER_FUNCTIONS` and
:func:`_layer_methods` with thin wrappers, and :meth:`Tracer.uninstall`
puts the originals back.  A module-level function is patched in every
``repro`` module that holds it under its name, because callers that did
``from x import f`` look ``f`` up in their own namespace.

A span is the tuple ``(name, start, end, parent, op_id)``; ``parent`` is
the index of the enclosing span (``-1`` for a root) and ``op_id`` the
benchmark operation that was running.  Self time is a span's duration
minus the part of it covered by its children (:func:`self_times`).
"""

from __future__ import annotations

import collections
import json
import sys
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

Span = Tuple[str, float, float, int, int]


class Tracer:
    """Records spans and counters while installed."""

    def __init__(self) -> None:
        self.spans: List[Optional[Span]] = []
        self.counters: Dict[str, float] = collections.Counter()
        self.op_id = -1
        self._stack: List[int] = []
        self._names: List[str] = []
        self._undo: List[Callable[[], None]] = []
        self._fallback_results: list = []

    # -- recording ------------------------------------------------------ #
    def call(self, name: str, fn, args, kwargs, on_result=None):
        """Run ``fn`` inside a span; ``on_result(tracer, result, args, kwargs, outer)``."""
        parent = self._stack[-1] if self._stack else -1
        outer = name not in self._names
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        self._names.append(name)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self._names.pop()
            self.spans[index] = (name, start, end, parent, self.op_id)
        if on_result is not None:
            on_result(self, result, args, kwargs, outer)
        return result

    def span(self, name: str, fn, *args, **kwargs):
        """Run ``fn(*args, **kwargs)`` as one span (used for benchmark operations)."""
        return self.call(name, fn, args, kwargs)

    # -- patching ------------------------------------------------------- #
    def patch_function(self, module_name: str, attr: str, name: str, on_result=None,
                       exclude: Sequence[str] = ()) -> int:
        """Wrap ``module.attr`` wherever a ``repro`` module holds it; returns sites."""
        original = getattr(sys.modules[module_name], attr)
        tracer = self

        def wrapper(*args, **kwargs):
            return tracer.call(name, original, args, kwargs, on_result)

        wrapper.__wrapped__ = original
        sites = 0
        for mod_name, module in list(sys.modules.items()):
            if not (mod_name == "repro" or mod_name.startswith("repro.")):
                continue
            if mod_name in exclude or getattr(module, attr, None) is not original:
                continue
            setattr(module, attr, wrapper)
            self._undo.append(lambda m=module: setattr(m, attr, original))
            sites += 1
        return sites

    def patch_method(self, cls, attr: str, name: str, on_result=None) -> None:
        """Wrap a method or staticmethod on its class."""
        raw = cls.__dict__[attr]
        tracer = self
        if isinstance(raw, staticmethod):
            original = raw.__func__

            def wrapper(*args, **kwargs):
                return tracer.call(name, original, args, kwargs, on_result)

            setattr(cls, attr, staticmethod(wrapper))
        else:
            original = raw

            def wrapper(*args, **kwargs):
                return tracer.call(name, original, args, kwargs, on_result)

            setattr(cls, attr, wrapper)
        self._undo.append(lambda: setattr(cls, attr, raw))

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    # -- output --------------------------------------------------------- #
    def write(self, path) -> None:
        """Write every span as one JSON array per line."""
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


def self_times(spans: Sequence[Span]) -> List[float]:
    """Duration of each span minus the union of its children's intervals."""
    children: Dict[int, List[Tuple[float, float]]] = collections.defaultdict(list)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for index, (name, start, end, parent, _) in enumerate(spans):
        covered = 0.0
        cursor = start
        for child_start, child_end in sorted(children.get(index, ())):
            lo = max(child_start, cursor)
            hi = min(child_end, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append((end - start) - covered)
    return out


def layer_table(spans: Sequence[Span]) -> Dict[str, Dict[str, float]]:
    """Per span name: calls, total and self seconds.

    Calls and total time count only the outermost span of a name, so an
    entry point that calls another entry point of the same layer (say
    ``run_many`` calling ``run``) is not counted twice; self time sums over
    every span, since self times never overlap.
    """
    table: Dict[str, Dict[str, float]] = {}
    for index, own in enumerate(self_times(spans)):
        name, start, end, parent, _ = spans[index]
        row = table.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        row["self_s"] += own
        while parent >= 0 and spans[parent][0] != name:
            parent = spans[parent][3]
        if parent < 0:
            row["calls"] += 1
            row["s"] += end - start
    return table


# --------------------------------------------------------------------- #
# what is wrapped, and the counters each wrapper keeps
# --------------------------------------------------------------------- #
def _count_search(tracer, result, args, kwargs, outer):
    tracer.counters["search.nodes"] += result.nodes_expanded


def _count_admit(tracer, accepted, args, kwargs, outer):
    tracer.counters["archive.accepted"] += bool(accepted)


def _count_fallback(tracer, results, args, kwargs, outer):
    for result in results:
        tracer.counters["fallback.nodes"] += result.nodes_expanded
        tracer.counters["fallback.results"] += 1
        tracer._fallback_results.append(result)


def _count_fallback_wins(tracer, results, args, kwargs, outer):
    # optimal_schedules_batch returns the fallback's own result object
    # when it keeps it, so object identity tells which fallback results won.
    for result in results:
        if any(result is kept for kept in tracer._fallback_results):
            tracer.counters["fallback.wins"] += 1
    tracer._fallback_results.clear()


def _count_loads(tracer, result, args, kwargs, outer):
    if not outer:
        return
    loads = list(result.values()) if isinstance(result, dict) else [result]
    tracer.counters["workloads.loads"] += len(loads)
    tracer.counters["workloads.epochs"] += sum(len(load.epochs) for load in loads)


def _count_simulated(tracer, result, args, kwargs, outer):
    if not outer:
        return
    results = result.values() if isinstance(result, dict) else [result]
    tracer.counters["engine.scenario_policies"] += sum(r.n_scenarios for r in results)


#: (module, function, span name, counter hook, modules left alone).
#: The recovery-limited bound functions are patched only where the batched
#: search looks them up: the scalar search of the fallback imports them too,
#: and its share belongs to ``fallback``.
LAYER_FUNCTIONS = (
    ("repro.workloads.generator", "generate_random_load", "workloads.generate", _count_loads, ()),
    ("repro.workloads.generator", "make_load", "workloads.generate", _count_loads, ()),
    ("repro.workloads.profiles", "paper_loads", "workloads.generate", _count_loads, ()),
    ("repro.kibam.bounds", "build_pooled_job_table", "bounds.job_table", None,
     ("repro.core.optimal",)),
    ("repro.kibam.bounds", "recovery_limited_refinements", "bounds.rl_refine", None,
     ("repro.core.optimal",)),
    ("repro.engine.optimal_batch", "find_optimal_schedule_batched", "optimal_batch.find", None, ()),
    ("repro.engine.optimal_batch", "optimal_schedules_batch", "optimal_batch.schedules",
     _count_fallback_wins, ()),
    ("repro.engine.parallel", "optimal_schedules_chunk", "fallback", _count_fallback, ()),
    ("repro.analysis.montecarlo", "run_montecarlo", "montecarlo", None, ()),
)


def _layer_methods():
    from repro.engine.batch import BatchSimulator
    from repro.engine.optimal_batch import BatchOptimalScheduler, VectorDominanceArchive
    from repro.engine.scenarios import ScenarioSet
    from repro.sweep.runner import SweepRunner
    from repro.sweep.spec import SweepSpec
    from repro.sweep.store import ResultStore

    return (
        (BatchOptimalScheduler, "search", "search", _count_search),
        (VectorDominanceArchive, "admit", "archive.admit", _count_admit),
        (ScenarioSet, "from_loads", "engine.scenarios_build", None),
        (ScenarioSet, "random", "engine.scenarios_build", None),
        (BatchSimulator, "run", "engine.simulate", _count_simulated),
        (BatchSimulator, "run_many", "engine.simulate", _count_simulated),
        (SweepSpec, "expand", "sweep.expand", None),
        (SweepSpec, "expand_labels", "sweep.expand", None),
        (SweepRunner, "run", "sweep.runner", None),
        (ResultStore, "ensure_entry", "store.entry", None),
        (ResultStore, "save_chunk", "store.save", None),
        (ResultStore, "load_chunk", "store.load", None),
    )


def install() -> Tracer:
    """Create a tracer and wrap every layer entry point."""
    tracer = Tracer()
    for module_name, attr, name, hook, exclude in LAYER_FUNCTIONS:
        if tracer.patch_function(module_name, attr, name, hook, exclude) == 0:
            tracer.uninstall()
            raise RuntimeError(f"no call site found for {module_name}.{attr}")
    for cls, attr, name, hook in _layer_methods():
        tracer.patch_method(cls, attr, name, hook)
    return tracer


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(table: Dict[str, Dict[str, float]], counters, n_rounds: int) -> Dict[str, float]:
    """The per-layer metrics, per round, from a layer table and counters."""
    def row(name):
        return table.get(name, {"calls": 0, "s": 0.0, "self_s": 0.0})

    per = 1.0 / max(n_rounds, 1)
    search, admit, fallback = row("search"), row("archive.admit"), row("fallback")
    simulate = row("engine.simulate")
    return {
        "search.s": search["s"] * per,
        "search.self_s": search["self_s"] * per,
        "search.calls": search["calls"] * per,
        "search.nodes": counters["search.nodes"] * per,
        "search.nodes_per_s": _ratio(counters["search.nodes"], search["s"]),
        "archive.admit_calls": admit["calls"] * per,
        "archive.admit_s": admit["s"] * per,
        "archive.admit_accept_ratio": _ratio(counters["archive.accepted"], admit["calls"]),
        "bounds.job_table_s": row("bounds.job_table")["s"] * per,
        "bounds.rl_refine_s": row("bounds.rl_refine")["s"] * per,
        "fallback.calls": fallback["calls"] * per,
        "fallback.s": fallback["s"] * per,
        "fallback.nodes": counters["fallback.nodes"] * per,
        "fallback.win_ratio": _ratio(counters["fallback.wins"], counters["fallback.results"]),
        "workloads.generate_s": row("workloads.generate")["s"] * per,
        "workloads.loads": counters["workloads.loads"] * per,
        "workloads.epochs": counters["workloads.epochs"] * per,
        "engine.scenarios_build_s": row("engine.scenarios_build")["s"] * per,
        "engine.simulate_s": simulate["s"] * per,
        "engine.scenario_policies_per_s": _ratio(
            counters["engine.scenario_policies"], simulate["s"]
        ),
        "sweep.expand_self_s": row("sweep.expand")["self_s"] * per,
        "sweep.runner_self_s": row("sweep.runner")["self_s"] * per,
        "store.save_s": row("store.save")["s"] * per,
        "store.load_s": row("store.load")["s"] * per,
        "store.load_calls": row("store.load")["calls"] * per,
        "montecarlo.self_s": row("montecarlo")["self_s"] * per,
        "harness.self_s": row("op")["self_s"] * per,
    }
