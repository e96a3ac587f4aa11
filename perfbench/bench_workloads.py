"""The benchmark's four workloads and the checks on their outputs.

Each workload builds its inputs from the seed, exposes its operations as
:class:`bench_core.Group` lists, checks every result right after its
operation (``check``: equal to the first result of the same operation) and
checks each operation's first result in depth once the rounds are over
(``verify``: replay, heuristic <= optimal, paper values, scalar oracle).
The program's functions are looked up on their modules at call time, so
the tracer's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import functools
import math
import os
import shutil
from typing import Any, Dict, List, Optional

from bench_core import Group, Op

import repro.analysis.montecarlo as montecarlo
import repro.engine.optimal_batch as optimal_batch
import repro.sweep.runner as sweep_runner
import repro.workloads.profiles as profiles
from repro.analysis.tables import PAPER_TABLE5
from repro.core.policies import FixedAssignmentPolicy
from repro.core.simulator import simulate_policy
from repro.kibam.parameters import B1
from repro.sweep.spec import BatteryConfig, LoadAxis, SweepSpec

HEURISTICS = ("sequential", "round-robin", "best-of-two")
#: Replay tolerance of the analytical model (minutes); dKiBaM replays exactly.
ANALYTICAL_TOLERANCE = 1e-9
#: dKiBaM tick length (minutes): discrete results are compared in ticks.
TIME_STEP = 0.01
#: Same relative tolerance as ``tests/test_paper_reproduction.py``.
PAPER_REL = 0.03


class Workload:
    """Shared bookkeeping: reference results and the per-result check."""

    name = ""
    warmup_op: Op

    def __init__(self) -> None:
        self.groups: List[Group] = []
        self.reference: Dict[str, Any] = {}
        #: Filled by ``verify``: per checked cell, optimal / best heuristic.
        self._gains: List[float] = []

    def warmup(self) -> None:
        self.warmup_op.run()

    def fingerprint(self, op_name: str, result) -> Any:
        raise NotImplementedError

    def check(self, op_name: str, result) -> Optional[str]:
        """Untimed check after every operation: same result as the first time."""
        print_ = self.fingerprint(op_name, result)
        if op_name not in self.reference:
            self.reference[op_name] = (print_, result)
            return None
        if print_ != self.reference[op_name][0]:
            return "result differs from the first run of the same operation"
        return None

    def verify(self) -> Dict[str, str]:
        """In-depth checks of each operation's first result; op name -> problem."""
        return {}

    def quality(self) -> Dict[str, float]:
        """``certified_share`` and ``lifetime_gain`` of the checked results."""
        return {"certified_share": 1.0, "lifetime_gain": 1.0}

    def close(self) -> None:
        """Release what the workload holds outside the process (files)."""


def _replay_problem(params, load, result, model: str) -> Optional[str]:
    """The reported lifetime must be the scalar simulator's replay of the schedule."""
    replay = simulate_policy(
        params, load, FixedAssignmentPolicy(result.assignment), backend=model
    )
    lifetime = replay.lifetime if replay.lifetime is not None else load.total_duration
    if model == "discrete":
        if _ticks(lifetime) != _ticks(result.lifetime):
            return f"dKiBaM replay gives {lifetime!r}, search reported {result.lifetime!r}"
    elif abs(lifetime - result.lifetime) > ANALYTICAL_TOLERANCE:
        return f"replay gives {lifetime!r}, search reported {result.lifetime!r}"
    return None


def _ticks(lifetime: float) -> int:
    return round(lifetime / TIME_STEP)


def _mean(values) -> float:
    return sum(values) / len(values) if values else float("nan")


# --------------------------------------------------------------------- #
# paper-certify / dkibam-certify
# --------------------------------------------------------------------- #
class CertifyWorkload(Workload):
    """Uncapped searches for the certified optimum on the Table-5 loads.

    The seed changes nothing but the rotation of the operation order.
    """

    params = (B1, B1)
    tolerance = 0.005
    warmup_load = "CL 250"

    def __init__(self, name: str, model: str, load_names) -> None:
        super().__init__()
        self.name = name
        self.model = model
        loads = profiles.paper_loads()
        self.loads = {load_name: loads[load_name] for load_name in load_names}
        self.groups = [
            Group([Op(load_name, functools.partial(self._search, load))])
            for load_name, load in self.loads.items()
        ]
        self.warmup_op = Op("warm-up", functools.partial(self._search, loads[self.warmup_load]))

    def _search(self, load):
        return optimal_batch.find_optimal_schedule_batched(
            self.params, load, model=self.model, dominance_tolerance=self.tolerance
        )

    def fingerprint(self, op_name, result):
        return (result.lifetime, result.assignment, result.complete, result.nodes_expanded)

    def _heuristics(self, load) -> Dict[str, float]:
        return {
            policy: simulate_policy(self.params, load, policy, backend=self.model).lifetime
            for policy in HEURISTICS
        }

    def verify(self) -> Dict[str, str]:
        problems = {}
        for load_name, (_, result) in self.reference.items():
            load = self.loads[load_name]
            problem = _replay_problem(self.params, load, result, self.model)
            heuristics = self._heuristics(load)
            best = max(heuristics.values())
            if problem is None and not result.complete:
                problem = "uncapped search returned complete=False"
            if problem is None and best > result.lifetime + ANALYTICAL_TOLERANCE:
                problem = f"heuristic lifetime {best!r} beats the optimum {result.lifetime!r}"
            paper = PAPER_TABLE5.get(load_name)
            if problem is None and paper is not None and self.model == "analytical":
                measured = [heuristics[p] for p in HEURISTICS] + [result.lifetime]
                for label, value, expected in zip(HEURISTICS + ("optimal",), measured, paper):
                    if abs(value - expected) > PAPER_REL * abs(expected):
                        problem = f"{label} lifetime {value:.4f} is not within 3% of Table 5's {expected}"
                        break
            if problem is not None:
                problems[load_name] = problem
            self._gains.append(result.lifetime / best)
        return problems

    def quality(self):
        results = [result for _, result in self.reference.values()]
        return {
            "certified_share": _mean([float(r.complete) for r in results]),
            "lifetime_gain": _mean(self._gains),
        }


# --------------------------------------------------------------------- #
# fleet-capped
# --------------------------------------------------------------------- #
_HALF, _SMALL, _QUARTER = B1.scaled(0.5), B1.scaled(0.375), B1.scaled(0.25)

#: The fleets of the ``fleet`` and ``fleet-8`` builtin specs.
FLEETS = {
    "fleet4 2+2": (_HALF, _HALF, _SMALL, _SMALL),
    "fleet4 3+1": (_HALF, _HALF, _HALF, _QUARTER),
    "fleet8 4+4": (_HALF,) * 4 + (_SMALL,) * 4,
}
#: Node cap of the optimal column.  The builtin specs use 3000, which puts
#: three capped cells of about 10 s each in a round; at 300 a round takes
#: about 3 s, so a run holds enough rounds for steady medians, and every
#: duty-cycled-sensor cell still hits the cap and runs the scalar fallback.
FLEET_MAX_NODES = 300
FLEET_TOLERANCE = 0.01
#: Cells left out of the rounds.  The 8-battery MMPP cell certifies within
#: the node cap for about a third of the seeds and takes about 1 s when it
#: does not, which made ``round_s`` and ``certified_share`` bimodal across
#: seeds.  The 8-battery fleet keeps its capped duty-cycled-sensor cell,
#: which always reaches the fallback.
SKIPPED_CELLS = {("fleet8 4+4", "MMPP 500")}


def fleet_load_axes(seed: int):
    """The ``fleet`` spec's loads, with the seed in MMPP and in the sensor's jitter."""
    return (
        LoadAxis.generator(
            "mmpp", label="MMPP 500", seed=seed, on_current=0.5,
            mean_on=2.0, mean_off=2.0, total_duration=120.0,
        ),
        LoadAxis.generator(
            "duty-cycled-sensor", label="DCS 500", sense_current=0.1,
            transmit_current=0.5, sense_duration=0.5, transmit_duration=0.5,
            period=2.0, transmit_every=2, cycles=80, jitter=0.2, seed=seed,
        ),
        LoadAxis.generator(
            "trace", label="Trace mix",
            trace=[[0.5, 2.0], [0.0, 1.0], [0.25, 2.0], [0.5, 3.0], [0.0, 2.0]],
            repeat=20,
        ),
    )


@contextlib.contextmanager
def _capturing_optimal(into: list):
    """Keep the optimal column's full results, which the sweep result drops."""
    original = optimal_batch.optimal_schedules_batch

    def capture(*args, **kwargs):
        results = original(*args, **kwargs)
        into.extend(results)
        return results

    optimal_batch.optimal_schedules_batch = capture
    try:
        yield
    finally:
        optimal_batch.optimal_schedules_batch = original


class FleetWorkload(Workload):
    """Capped optimal-column sweeps over 4- and 8-battery fleets, one cell per op."""

    name = "fleet-capped"

    def __init__(self, seed: int, fleets=FLEETS, max_nodes: int = FLEET_MAX_NODES) -> None:
        super().__init__()
        self.cells = {}
        for fleet, params in fleets.items():
            for axis in fleet_load_axes(seed):
                if (fleet, axis.payload["label"]) in SKIPPED_CELLS:
                    continue
                label = f"{fleet} / {axis.payload['label']}"
                self.cells[label] = SweepSpec(
                    name=label,
                    batteries=(BatteryConfig(label=fleet, params=params),),
                    loads=(axis,),
                    policies=HEURISTICS,
                ).with_optimal(max_nodes=max_nodes, dominance_tolerance=FLEET_TOLERANCE)
        self.groups = [
            Group([Op(label, functools.partial(self._cell, spec))])
            for label, spec in self.cells.items()
        ]
        warm_label = next(label for label in self.cells if "Trace" in label)
        self.warmup_op = Op("warm-up", functools.partial(self._cell, self.cells[warm_label]))

    def _cell(self, spec):
        captured: list = []
        with _capturing_optimal(captured):
            result = sweep_runner.SweepRunner(None).run(spec)
        return result, captured

    def fingerprint(self, op_name, result):
        sweep, captured = result
        lifetimes = tuple(float(sweep.lifetimes[p][0]) for p in sweep.spec.policies)
        return lifetimes, bool(sweep.complete["optimal"][0]), tuple(
            (r.lifetime, r.assignment) for r in captured
        )

    def verify(self) -> Dict[str, str]:
        problems = {}
        for label, (_, (sweep, captured)) in self.reference.items():
            spec = self.cells[label]
            point = spec.expand()[0]
            optimal = float(sweep.lifetimes["optimal"][0])
            best = max(float(sweep.lifetimes[p][0]) for p in HEURISTICS)
            problem = None
            if len(captured) != 1 or captured[0].lifetime != optimal:
                problem = "the optimal column does not hold the search's result"
            else:
                problem = _replay_problem(point.battery_params, point.load, captured[0], "analytical")
            if problem is None and not best <= optimal + ANALYTICAL_TOLERANCE:
                problem = f"heuristic lifetime {best!r} beats the optimum {optimal!r}"
            if problem is not None:
                problems[label] = problem
            self._gains.append(optimal / best)
        return problems

    def quality(self):
        complete = [
            float(sweep.complete["optimal"][0]) for _, (sweep, _) in self.reference.values()
        ]
        return {"certified_share": _mean(complete), "lifetime_gain": _mean(self._gains)}


# --------------------------------------------------------------------- #
# montecarlo
# --------------------------------------------------------------------- #
MC_MODELS = ("analytical", "discrete")
#: Cached re-reads per cold run; their median is the cached time.
MC_CACHED_READS = 5
#: Leading samples re-run on the scalar reference engine.
MC_ORACLE_SAMPLES = 20


def _tree_bytes(path: str) -> int:
    return sum(
        os.path.getsize(os.path.join(folder, name))
        for folder, _, names in os.walk(path)
        for name in names
    )


class MonteCarloWorkload(Workload):
    """Cold ``run_montecarlo`` into a fresh store, then cached re-reads."""

    name = "montecarlo"
    params = (B1, B1)

    def __init__(self, seed: int, workdir: str, n_samples: int = 1000) -> None:
        super().__init__()
        self.seed = seed * n_samples
        self.n_samples = n_samples
        self.workdir = workdir
        os.makedirs(workdir, exist_ok=True)
        self.groups = [self._group(model) for model in MC_MODELS]
        self._store_dirs = {model: None for model in MC_MODELS}
        self._round = 0

    def warmup(self) -> None:
        """One cold analytical run into its own store, outside the rounds."""
        self._fresh_store("analytical")
        self._run_stored("analytical")
        self._drop_store("analytical")

    def _group(self, model: str) -> Group:
        return Group(
            [
                Op(f"cold {model}", functools.partial(self._run_stored, model)),
                Op(
                    f"cached {model}",
                    functools.partial(self._run_stored, model),
                    kind="cached",
                    repeat=MC_CACHED_READS,
                ),
            ],
            before=functools.partial(self._fresh_store, model),
            after=functools.partial(self._drop_store, model),
        )

    def _fresh_store(self, model: str) -> None:
        self._round += 1
        self._store_dirs[model] = os.path.join(self.workdir, f"store-{model}-{self._round}")

    def _drop_store(self, model: str) -> Dict[str, float]:
        path = self._store_dirs[model]
        written = _tree_bytes(path) if os.path.isdir(path) else 0
        shutil.rmtree(path, ignore_errors=True)
        return {"store.bytes_written": written}

    def _run(self, model: str, cache_dir, **kwargs):
        return montecarlo.run_montecarlo(
            self.params,
            n_samples=self.n_samples,
            seed=self.seed,
            model=model,
            cache_dir=cache_dir,
            **kwargs,
        )

    def _run_stored(self, model: str):
        return self._run(model, self._store_dirs[model])

    def fingerprint(self, op_name, result):
        return result.engine, tuple(
            (policy, tuple(values)) for policy, values in result.per_sample.items()
        )

    def check(self, op_name, result):
        problem = super().check(op_name, result)
        if problem is None and op_name.startswith("cached"):
            cold = self.reference.get(op_name.replace("cached", "cold"))
            if cold is None or cold[0] != self.fingerprint(op_name, result):
                problem = "cached read differs from the cold results"
        return problem

    def verify(self) -> Dict[str, str]:
        problems = {}
        for model in MC_MODELS:
            op_name = f"cold {model}"
            if op_name not in self.reference:
                continue
            batch = self.reference[op_name][1]
            scalar = montecarlo.run_montecarlo(
                self.params,
                n_samples=min(MC_ORACLE_SAMPLES, self.n_samples),
                seed=self.seed,
                model=model,
                engine="scalar",
            )
            for policy, expected in scalar.per_sample.items():
                got = batch.per_sample[policy][: len(expected)]
                if model == "discrete":
                    ok = [_ticks(v) for v in got] == [_ticks(v) for v in expected]
                else:
                    ok = all(
                        abs(a - b) <= ANALYTICAL_TOLERANCE for a, b in zip(got, expected)
                    )
                if not ok or any(math.isnan(v) for v in got):
                    problems[op_name] = f"{policy} differs from the scalar engine"
                    break
        return problems

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)


def make(name: str, seed: int, workdir: str, tiny: bool = False) -> Workload:
    """Build a workload by name; ``tiny`` shrinks it for the smoke tests."""
    if name == "paper-certify":
        loads = ("CL 500", "ILs alt") if tiny else tuple(profiles.PAPER_LOAD_NAMES)
        return CertifyWorkload(name, "analytical", loads)
    if name == "dkibam-certify":
        # ``IL` 250`` alone takes about 13 s on dKiBaM, longer than a
        # steady run can spend on one sample; the other nine loads keep
        # the discrete search branch under measurement.
        loads = ("CL 500",) if tiny else tuple(
            load for load in profiles.PAPER_LOAD_NAMES if load != "IL` 250"
        )
        return CertifyWorkload(name, "discrete", loads)
    if name == "fleet-capped":
        if tiny:
            return FleetWorkload(seed, {"fleet4 2+2": FLEETS["fleet4 2+2"]}, max_nodes=40)
        return FleetWorkload(seed)
    if name == "montecarlo":
        return MonteCarloWorkload(seed, workdir, n_samples=20 if tiny else 1000)
    raise ValueError(f"unknown workload {name!r}; known: {', '.join(WORKLOADS)}")


WORKLOADS = ("paper-certify", "dkibam-certify", "fleet-capped", "montecarlo")
