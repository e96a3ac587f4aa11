"""Closed-loop rounds, per-operation deadlines and the end-to-end aggregation.

A workload is a fixed list of operation *groups*.  One round runs every
group once, in an order rotated from the seed; a group runs its operations
in sequence (so a cached read can follow the cold run it reads back).
Rounds repeat, one operation at a time and each only after the previous
one finished (a closed loop with one client), while another round still
fits in the run's measuring time.

Each operation's wall time is taken as its median across rounds, and
``round_s`` is the sum of those medians: a stall hits one sample of one
operation instead of the whole total.  Garbage collection, the output
checks and the group hooks all run outside the timed region.

The shared host this runs on changes speed by tens of percent within
seconds and over minutes, far more than the bounds a regression gate
needs.  So before every operation a fixed calibration loop
(:func:`calibration`, NumPy and the standard library only, no program
code) is timed as well, and each operation's time is scaled towards the
speed at which that loop takes :data:`REFERENCE_CALIBRATION_S`, using the
median of the calibrations taken around it (:meth:`Measurement.scaled`).
A change to the program moves the scaled times exactly as much as the wall
times.
"""

from __future__ import annotations

import collections
import dataclasses
import gc
import heapq
import os
import platform
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Sequence

import numpy as np

import bench_trace

#: Wall-clock limit of one operation; a hang counts as a failure.
OP_DEADLINE_S = 60.0
#: Past the measuring time, rounds may run this much longer before every
#: remaining operation is cut off (and counted as failed).
GRACE_S = 60.0
#: Rounds run even when the measuring time is spent sooner.
MIN_ROUNDS = 3
#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 5
#: Calibrations taken before and again after each set-up.
SETUP_CALIBRATIONS = 5
#: Median time of :func:`calibration` on the machine the constant was taken
#: on (a 2-vCPU Intel Xeon VM at 2.1 GHz, Python 3.11, NumPy 2.4).  Scaled
#: times are what the wall times would be at that speed.
REFERENCE_CALIBRATION_S = 0.025
#: An operation's speed is the median of the calibrations this many
#: positions before and after its own.
CALIBRATION_WINDOW = 4
#: Times are scaled by (reference / calibration) to this power.  The
#: calibration loop's speed swings more than the program's: over ten
#: seeds per workload the run-to-run spread of ``round_s`` was narrowest
#: at 0.75 (see ``README.md``).
SPEED_EXPONENT = 0.75


class OpDeadline(BaseException):
    """Raised inside an operation that passed its deadline.

    A ``BaseException`` so that a broad ``except Exception`` in the program
    cannot swallow it.
    """


@dataclasses.dataclass
class Op:
    """One timed operation.  ``kind`` picks the metric its time adds to."""

    name: str
    run: Callable[[], Any]
    kind: str = "round"
    repeat: int = 1


@dataclasses.dataclass
class Group:
    """Operations run back to back; ``before``/``after`` run untimed.

    ``after`` may return counters that are added to the trace.
    """

    ops: Sequence[Op]
    before: Optional[Callable[[], None]] = None
    after: Optional[Callable[[], Optional[Dict[str, float]]]] = None


@dataclasses.dataclass
class Measurement:
    """What a sequence of rounds produced."""

    rounds: int = 0
    attempted: int = 0
    failed: int = 0
    wall: Dict[str, List[float]] = dataclasses.field(
        default_factory=lambda: collections.defaultdict(list)
    )
    #: Per sample in ``wall``, the index of the calibration taken before it.
    positions: Dict[str, List[int]] = dataclasses.field(
        default_factory=lambda: collections.defaultdict(list)
    )
    passed: Dict[str, int] = dataclasses.field(default_factory=collections.Counter)
    kinds: Dict[str, str] = dataclasses.field(default_factory=dict)
    errors: List[str] = dataclasses.field(default_factory=list)
    calibration: List[float] = dataclasses.field(default_factory=list)
    cpu_s: float = 0.0
    wall_s: float = 0.0
    gc_collections: int = 0
    gc_pause_s: float = 0.0

    def total(self, kind: str) -> float:
        """Sum over the operations of ``kind`` of their median scaled time."""
        return sum_of_medians(
            {name: self.scaled(name) for name in self.wall if self.kinds[name] == kind}
        )

    def total_wall(self, kind: str) -> float:
        """:meth:`total` of the unscaled wall times."""
        return sum_of_medians(
            {name: self.wall[name] for name in self.wall if self.kinds[name] == kind}
        )

    def scaled(self, name: str) -> List[float]:
        """The operation's wall times at the reference speed."""
        if not self.calibration:
            return list(self.wall[name])
        out = []
        for wall, index in zip(self.wall[name], self.positions[name]):
            nearby = self.calibration[
                max(0, index - CALIBRATION_WINDOW): index + CALIBRATION_WINDOW + 1
            ]
            out.append(wall * speed_factor(statistics.median(nearby)))
        return out

    def scale(self) -> float:
        """Factor from this run's wall times to times at the reference speed."""
        if not self.calibration:
            return 1.0
        return speed_factor(statistics.median(self.calibration))


def speed_factor(calibration_s: float) -> float:
    """Factor from a wall time taken at this calibration time to the reference speed."""
    return (REFERENCE_CALIBRATION_S / calibration_s) ** SPEED_EXPONENT


def sum_of_medians(samples: Dict[str, Sequence[float]]) -> float:
    """Sum of each operation's median sample; operations without samples add 0."""
    return sum(statistics.median(values) for values in samples.values() if values)


def quartiles(values: Sequence[float]):
    """(first quartile, median, third quartile) as ``statistics.quantiles`` gives them."""
    if len(values) < 2:
        value = values[0] if values else float("nan")
        return value, value, value
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def calibration() -> float:
    """A fixed mix of the interpreter work and small NumPy calls the program does."""
    rng = random.Random(0)
    heap: list = []
    table: dict = {}
    values = np.linspace(0.0, 1.0, 256)
    total = 0.0
    for i in range(4000):
        heapq.heappush(heap, (rng.random(), i))
        table[(i % 211, i % 7)] = values[i % 256]
        total += float((np.minimum(values, values[i % 256]) * 1.5).sum())
        if len(heap) > 100:
            heapq.heappop(heap)
    return total


def call_with_deadline(fn: Callable[[], Any], seconds: float):
    """Run ``fn``; raise :class:`OpDeadline` in it after ``seconds`` of wall time."""
    if seconds <= 0.0:
        raise OpDeadline("no time left before the run's hard stop")

    def expire(signum, frame):
        raise OpDeadline(f"passed its {seconds:.1f}s deadline")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        return fn()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


class _GcWatch:
    """Counts collections and their pause inside the timed region."""

    def __init__(self) -> None:
        self.timing = False
        self.collections = 0
        self.pause_s = 0.0
        self._started = 0.0

    def __call__(self, phase, info) -> None:
        if phase == "start":
            self._started = time.perf_counter()
        elif self.timing:
            self.collections += 1
            self.pause_s += time.perf_counter() - self._started


def measure(
    workload,
    seconds: float,
    seed: int,
    tracer: Optional[bench_trace.Tracer] = None,
    deadline_s: float = OP_DEADLINE_S,
    min_rounds: int = MIN_ROUNDS,
) -> Measurement:
    """Run rounds of ``workload.groups`` for ``seconds`` of wall time.

    Every result goes through ``workload.check(op_name, result)`` right
    after its operation (untimed); an operation that raised, passed its
    deadline or returned a wrong result is counted as failed and leaves no
    time sample.
    """
    groups = list(workload.groups)
    rng = random.Random(seed)
    out = Measurement()
    watch = _GcWatch()
    gc.callbacks.append(watch)
    started = time.perf_counter()
    hard_stop = started + seconds + GRACE_S
    last_round = 0.0
    try:
        # After the minimum, a round starts only if one more round as long
        # as the last still ends within ``seconds``.
        while out.rounds < min_rounds or (
            time.perf_counter() - started + last_round <= seconds
        ):
            if time.perf_counter() >= hard_stop:
                break
            round_started = time.perf_counter()
            shift = rng.randrange(len(groups))
            for group in groups[shift:] + groups[:shift]:
                if group.before is not None:
                    group.before()
                for op in group.ops:
                    out.kinds[op.name] = op.kind
                    for _ in range(op.repeat):
                        _run_op(workload, op, out, watch, tracer, hard_stop, deadline_s)
                if group.after is not None:
                    counters = group.after()
                    if tracer is not None and counters:
                        tracer.counters.update(counters)
            out.rounds += 1
            last_round = time.perf_counter() - round_started
    finally:
        gc.callbacks.remove(watch)
    out.gc_collections = watch.collections
    out.gc_pause_s = watch.pause_s
    return out


def _run_op(workload, op: Op, out: Measurement, watch, tracer, hard_stop, deadline_s):
    gc.collect()
    out.calibration.append(timed_calibration())
    out.attempted += 1
    budget = min(deadline_s, hard_stop - time.perf_counter())
    run = op.run
    if tracer is not None:
        tracer.op_id = out.attempted
        run = lambda: tracer.span("op", op.run)  # noqa: E731
    watch.timing = True
    wall0, cpu0 = time.perf_counter(), time.process_time()
    try:
        result = call_with_deadline(run, budget)
    except OpDeadline as error:
        problem = f"deadline: {error}"
    except Exception as error:  # a failing operation must not stop the run
        problem = f"raised {type(error).__name__}: {error}"
    else:
        problem = None
    finally:
        wall = time.perf_counter() - wall0
        cpu = time.process_time() - cpu0
        watch.timing = False
    out.cpu_s += cpu
    out.wall_s += wall
    if problem is None:
        problem = workload.check(op.name, result)
    if problem is None:
        out.wall[op.name].append(wall)
        out.positions[op.name].append(len(out.calibration) - 1)
        out.passed[op.name] += 1
    else:
        out.failed += 1
        out.errors.append(f"{op.name}: {problem}")


def import_seconds(root: str) -> float:
    """Wall time of importing the program in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    started = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", "import numpy, repro"], env=env, cwd=root, check=True
    )
    return time.perf_counter() - started


def timed_calibration() -> float:
    """Wall time of one :func:`calibration`."""
    started = time.perf_counter()
    calibration()
    return time.perf_counter() - started


def setup(factory: Callable[[], Any], root: str):
    """Set the workload up :data:`SETUP_REPEATS` times.

    Returns (median scaled seconds, median wall seconds, last workload).
    One set-up is the program's import in a fresh interpreter, the input
    generation of ``factory`` and one warm-up operation, which is not part
    of any round.  Each set-up is scaled by the median of the
    :data:`SETUP_CALIBRATIONS` calibrations taken right before it and as
    many taken right after it.
    """

    def calibrations():
        return [timed_calibration() for _ in range(SETUP_CALIBRATIONS)]

    timed_calibration()  # the first call in a process pays NumPy's own warm-up
    scaled, walls = [], []
    workload = None
    for _ in range(SETUP_REPEATS):
        if workload is not None:
            workload.close()
        speeds = calibrations()
        imports = import_seconds(root)
        started = time.perf_counter()
        workload = factory()
        workload.warmup()
        walls.append(imports + time.perf_counter() - started)
        speeds += calibrations()
        scaled.append(walls[-1] * speed_factor(statistics.median(speeds)))
    return statistics.median(scaled), statistics.median(walls), workload


def metadata(root: str, seed: int) -> Dict[str, Any]:
    """Where and on what the numbers were taken."""
    sha = "unknown"
    if os.path.isdir(os.path.join(root, ".git")) and shutil.which("git"):
        probe = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True
        )
        if probe.returncode == 0:
            sha = probe.stdout.strip()
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "seed": seed,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
