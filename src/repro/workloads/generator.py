"""Random and application-shaped workload generators.

Beyond the paper's fixed test loads, the conclusion calls for analysing
"realistic random loads" and mentions sensor-network nodes with simple
regular workloads as a target application.  The generators in this module
cover those cases and are used by the examples and the extension
benchmarks.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import random
from typing import Callable, Dict, List, Optional, Sequence

from repro.workloads.load import Epoch, Load, idle_epoch, job_epoch


@dataclasses.dataclass(frozen=True)
class RandomLoadConfig:
    """Configuration for :func:`generate_random_load`.

    Attributes:
        levels: the current levels (Ampere) a job may use.
        job_duration_range: (min, max) job length in minutes.
        idle_duration_range: (min, max) idle length in minutes; the maximum
            may be zero to generate continuous loads.
        total_duration: approximate total load length in minutes.
        duration_step: all durations are rounded to a multiple of this value
            so that discretized models can represent the load exactly.
    """

    levels: Sequence[float] = (0.250, 0.500)
    job_duration_range: tuple = (0.5, 2.0)
    idle_duration_range: tuple = (0.0, 2.0)
    total_duration: float = 120.0
    duration_step: float = 0.25

    def __post_init__(self) -> None:
        if not self.levels:
            raise ValueError("levels must not be empty")
        if any(level <= 0.0 for level in self.levels):
            raise ValueError("all job current levels must be positive")
        if self.total_duration <= 0.0:
            raise ValueError("total_duration must be positive")
        if self.duration_step <= 0.0:
            raise ValueError("duration_step must be positive")


#: The canonical ILs-like random-load configuration: mixed 250/500 mA jobs
#: with idle gaps, the sweep the Monte-Carlo layer, the random-load
#: benchmark and the batch-sweep example all share.
ILS_LIKE_RANDOM_CONFIG = RandomLoadConfig(
    levels=(0.25, 0.5),
    job_duration_range=(0.5, 1.5),
    idle_duration_range=(0.5, 2.0),
    total_duration=120.0,
    duration_step=0.25,
)


def _round_to_step(value: float, step: float) -> float:
    return max(step, round(value / step) * step)


def _uniform(rng, low: float, high: float) -> float:
    """Uniform draw from either a ``random.Random`` or a numpy Generator."""
    return float(rng.uniform(low, high))


def _choice(rng, options: Sequence[float]) -> float:
    """Uniform pick from either a ``random.Random`` or a numpy Generator.

    numpy's ``Generator.choice`` would return a numpy scalar (and consume
    the stream differently across numpy versions), so the numpy branch
    draws an index with ``integers`` instead.
    """
    if isinstance(rng, random.Random):
        return rng.choice(list(options))
    return float(options[int(rng.integers(len(options)))])


def generate_random_load(
    seed: Optional[int] = None,
    config: Optional[RandomLoadConfig] = None,
    rng=None,
) -> Load:
    """Generate a random job/idle load according to ``config``.

    Randomness comes from exactly one of two sources:

    * ``seed`` -- a fresh ``random.Random(seed)`` stream, byte-for-byte the
      sequence this generator has always produced (the Monte-Carlo layer
      relies on this for sample-for-sample comparability between its scalar
      and batch engines);
    * ``rng`` -- an explicit ``random.Random`` or
      :class:`numpy.random.Generator`, advanced in place, for callers that
      thread one stream through a whole experiment.

    Epochs are frozen, so equal ``(current, duration)`` pairs share one
    :class:`Epoch` across loads (:func:`_shared_epoch`): random loads draw
    from a few levels and step-rounded durations, so 1000 ILs-like loads of
    about 108 epochs each hold only 17 distinct ones.
    """
    cfg = config if config is not None else RandomLoadConfig()
    rng = _resolve_rng(seed, rng)
    levels = list(cfg.levels)
    if isinstance(rng, random.Random):
        draw_current = functools.partial(rng.choice, levels)
        uniform = rng.uniform
    else:
        draw_current = functools.partial(_choice, rng, levels)
        uniform = functools.partial(_uniform, rng)
    step = cfg.duration_step
    job_low, job_high = cfg.job_duration_range
    idle_low, idle_high = cfg.idle_duration_range
    epochs: List[Epoch] = []
    elapsed = 0.0
    while elapsed < cfg.total_duration:
        current = draw_current()
        job_duration = _round_to_step(uniform(job_low, job_high), step)
        epochs.append(_shared_epoch(current, job_duration))
        elapsed += job_duration
        if idle_high > 0.0:
            idle_duration = round(uniform(idle_low, idle_high) / step) * step
            if idle_duration > 0.0:
                epochs.append(_shared_epoch(0.0, idle_duration))
                elapsed += idle_duration
    name = f"random(seed={seed})" if seed is not None else "random(rng)"
    return Load(name=name, epochs=tuple(epochs))


@functools.lru_cache(maxsize=4096, typed=True)
def _shared_epoch(current: float, duration: float) -> Epoch:
    """The shared frozen job (or, at zero current, idle) :class:`Epoch` of
    ``(current, duration)``.

    The cache is bounded, so a very fine ``duration_step`` cannot grow it
    without limit, and typed, because ``1 == 1.0`` would otherwise hand an
    integer level a float epoch.
    """
    return job_epoch(current, duration) if current > 0.0 else idle_epoch(duration)


def bursty_load(
    burst_current: float,
    burst_jobs: int,
    rest_duration: float,
    cycles: int,
    job_duration: float = 1.0,
    name: str = "bursty",
) -> Load:
    """A load of dense job bursts separated by long rests.

    Bursty loads stress the rate-capacity effect during the burst and give
    the recovery effect room to act during the rest, which is where battery
    scheduling pays off most.
    """
    if burst_jobs < 1 or cycles < 1:
        raise ValueError("burst_jobs and cycles must be at least 1")
    epochs: List[Epoch] = []
    for _ in range(cycles):
        for _ in range(burst_jobs):
            epochs.append(job_epoch(burst_current, job_duration))
        epochs.append(idle_epoch(rest_duration))
    return Load(name=name, epochs=tuple(epochs))


def duty_cycle_load(
    current: float,
    period: float,
    duty_cycle: float,
    cycles: int,
    name: str = "duty-cycle",
) -> Load:
    """A periodic on/off load with the given duty cycle (fraction of time on)."""
    if not 0.0 < duty_cycle < 1.0:
        raise ValueError("duty_cycle must lie strictly between 0 and 1")
    if period <= 0.0 or cycles < 1:
        raise ValueError("period must be positive and cycles at least 1")
    on_time = period * duty_cycle
    off_time = period - on_time
    epochs: List[Epoch] = []
    for _ in range(cycles):
        epochs.append(job_epoch(current, on_time))
        epochs.append(idle_epoch(off_time))
    return Load(name=name, epochs=tuple(epochs))


def sensor_node_load(
    sense_current: float = 0.020,
    transmit_current: float = 0.300,
    sense_duration: float = 0.5,
    transmit_duration: float = 0.25,
    sleep_duration: float = 4.0,
    cycles: int = 100,
    name: str = "sensor-node",
) -> Load:
    """A wireless-sensor-node style workload: sense, transmit, sleep.

    The paper's outlook names sensor-network nodes as a target for battery-
    aware job scheduling; this load models one measurement round per cycle
    with a low-current sensing phase, a short high-current radio burst and a
    long sleep.
    """
    if cycles < 1:
        raise ValueError("cycles must be at least 1")
    epochs: List[Epoch] = []
    for _ in range(cycles):
        epochs.append(job_epoch(sense_current, sense_duration, label="sense"))
        epochs.append(job_epoch(transmit_current, transmit_duration, label="transmit"))
        epochs.append(idle_epoch(sleep_duration, label="sleep"))
    return Load(name=name, epochs=tuple(epochs))


def _resolve_rng(seed: Optional[int], rng):
    """The seed-XOR-rng contract shared by every seedable generator here."""
    if rng is None:
        if seed is None:
            raise ValueError("provide either a seed or an rng")
        return random.Random(seed)
    if seed is not None:
        raise ValueError("provide either a seed or an rng, not both")
    return rng


def _exponential(rng, mean: float) -> float:
    """Exponential draw built from one uniform, identical for both rng kinds.

    ``random.Random.expovariate`` and numpy's ``exponential`` consume their
    streams differently, so the draw is derived from a single uniform --
    the same load comes out of ``seed=n`` whichever rng family produced it.
    """
    u = _uniform(rng, 0.0, 1.0)
    return -mean * math.log1p(-u)


def mmpp_load(
    seed: Optional[int] = None,
    on_current: float = 0.500,
    off_current: float = 0.0,
    mean_on: float = 2.0,
    mean_off: float = 4.0,
    total_duration: float = 120.0,
    duration_step: float = 0.25,
    rng=None,
    name: Optional[str] = None,
) -> Load:
    """Markov-modulated on-off traffic: exponential bursts and gaps.

    A two-state Markov-modulated process alternates between an *on* state
    drawing ``on_current`` and an *off* state drawing ``off_current``
    (zero for idle gaps, positive for low-rate background traffic), with
    exponentially distributed sojourn times of the given means -- the
    standard bursty-traffic model for network and sensor nodes.  All
    durations are rounded to ``duration_step`` so discretized models
    represent the load exactly; rounded-away off states are dropped.

    Seedable exactly like :func:`generate_random_load`: pass ``seed`` for
    the reproducible private stream or ``rng`` to thread an explicit
    ``random.Random`` / numpy ``Generator`` through an experiment.
    """
    if on_current <= 0.0:
        raise ValueError("on_current must be positive")
    if off_current < 0.0:
        raise ValueError("off_current must not be negative")
    if mean_on <= 0.0 or mean_off <= 0.0:
        raise ValueError("mean_on and mean_off must be positive")
    if total_duration <= 0.0 or duration_step <= 0.0:
        raise ValueError("total_duration and duration_step must be positive")
    rng = _resolve_rng(seed, rng)
    epochs: List[Epoch] = []
    elapsed = 0.0
    while elapsed < total_duration:
        on_duration = _round_to_step(_exponential(rng, mean_on), duration_step)
        epochs.append(job_epoch(on_current, on_duration, label="burst"))
        elapsed += on_duration
        off_duration = (
            round(_exponential(rng, mean_off) / duration_step) * duration_step
        )
        if off_duration > 0.0:
            if off_current > 0.0:
                epochs.append(job_epoch(off_current, off_duration, label="background"))
            else:
                epochs.append(idle_epoch(off_duration))
            elapsed += off_duration
    if name is None:
        name = f"mmpp(seed={seed})" if seed is not None else "mmpp(rng)"
    return Load(name=name, epochs=tuple(epochs))


def duty_cycled_sensor_load(
    sense_current: float = 0.020,
    transmit_current: float = 0.300,
    sense_duration: float = 0.5,
    transmit_duration: float = 0.25,
    period: float = 5.0,
    transmit_every: int = 4,
    cycles: int = 100,
    jitter: float = 0.0,
    seed: Optional[int] = None,
    rng=None,
    duration_step: float = 0.25,
    name: str = "duty-cycled-sensor",
) -> Load:
    """A duty-cycled sensor profile: sense every period, transmit every k-th.

    Unlike :func:`sensor_node_load` (which radios every round), this models
    the common duty-cycling firmware pattern: a low-current measurement in
    every period and a high-current transmit burst only on every
    ``transmit_every``-th round, with the rest of the period asleep.  With
    ``jitter > 0`` (a fraction of the sleep span) the sleep of each round
    is perturbed uniformly, seeded through the same seed-or-rng contract
    as the random generators; ``jitter=0`` needs no randomness at all.
    """
    if cycles < 1 or transmit_every < 1:
        raise ValueError("cycles and transmit_every must be at least 1")
    if not 0.0 <= jitter < 1.0:
        raise ValueError("jitter must lie in [0, 1)")
    if duration_step <= 0.0:
        raise ValueError("duration_step must be positive")
    if jitter > 0.0:
        rng = _resolve_rng(seed, rng)
    elif seed is not None or rng is not None:
        raise ValueError("seed/rng only apply with jitter > 0")
    epochs: List[Epoch] = []
    for cycle in range(cycles):
        busy = sense_duration
        epochs.append(job_epoch(sense_current, sense_duration, label="sense"))
        if cycle % transmit_every == transmit_every - 1:
            epochs.append(
                job_epoch(transmit_current, transmit_duration, label="transmit")
            )
            busy += transmit_duration
        sleep = period - busy
        if sleep <= 0.0:
            raise ValueError("period must exceed the sense+transmit time")
        if jitter > 0.0:
            sleep *= 1.0 + _uniform(rng, -jitter, jitter)
            sleep = round(sleep / duration_step) * duration_step
        if sleep > 0.0:
            epochs.append(idle_epoch(sleep, label="sleep"))
    return Load(name=name, epochs=tuple(epochs))


def trace_load(
    trace: Sequence[Sequence[float]],
    repeat: int = 1,
    time_scale: float = 1.0,
    name: str = "trace",
) -> Load:
    """A trace-driven load from explicit ``[current, duration]`` pairs.

    ``trace`` is JSON-plain -- a list of ``[current_ampere,
    duration_minutes]`` pairs, zero current meaning idle -- so measured
    device traces drop straight into declarative sweep specs and hash
    stably.  Consecutive pairs with equal current are coalesced into one
    epoch, ``repeat`` tiles the whole trace, and ``time_scale`` rescales
    every duration (e.g. a seconds-based trace with ``time_scale=1/60``).
    """
    if not trace:
        raise ValueError("trace must contain at least one [current, duration] pair")
    if repeat < 1:
        raise ValueError("repeat must be at least 1")
    if time_scale <= 0.0:
        raise ValueError("time_scale must be positive")
    segments: List[tuple] = []
    for pair in trace:
        if len(pair) != 2:
            raise ValueError("each trace entry must be a [current, duration] pair")
        current, duration = float(pair[0]), float(pair[1])
        if current < 0.0:
            raise ValueError("trace currents must not be negative")
        duration *= time_scale
        if duration <= 0.0:
            raise ValueError("trace durations must be positive")
        if segments and segments[-1][0] == current:
            segments[-1] = (current, segments[-1][1] + duration)
        else:
            segments.append((current, duration))
    tiled = list(segments) * repeat
    # Coalesce across the repeat seam too (last segment == first segment).
    merged: List[tuple] = []
    for current, duration in tiled:
        if merged and merged[-1][0] == current:
            merged[-1] = (current, merged[-1][1] + duration)
        else:
            merged.append((current, duration))
    epochs = tuple(
        job_epoch(current, duration) if current > 0.0 else idle_epoch(duration)
        for current, duration in merged
    )
    return Load(name=name, epochs=epochs)


def _registry() -> Dict[str, Callable[..., Load]]:
    # The profile generators live in repro.workloads.profiles, which does
    # not import this module, so the late import only avoids a hard cycle
    # if one is ever added there.
    from repro.workloads.profiles import (
        continuous_alternating_load,
        continuous_load,
        intermittent_alternating_load,
        intermittent_load,
        random_intermittent_load,
    )

    return {
        "bursty": bursty_load,
        "duty-cycle": duty_cycle_load,
        "duty-cycled-sensor": duty_cycled_sensor_load,
        "mmpp": mmpp_load,
        "sensor-node": sensor_node_load,
        "trace": trace_load,
        "continuous": continuous_load,
        "continuous-alternating": continuous_alternating_load,
        "intermittent": intermittent_load,
        "intermittent-alternating": intermittent_alternating_load,
        "random-intermittent": random_intermittent_load,
    }


#: Named load generators, addressable from declarative sweep specifications
#: (:mod:`repro.sweep`): a spec can say ``{"generator": "duty-cycle",
#: "kwargs": {...}}`` instead of embedding epochs, which keeps specs small
#: and their content hashes meaningful.
LOAD_GENERATOR_REGISTRY: Dict[str, Callable[..., Load]] = _registry()


def make_load(generator: str, **kwargs) -> Load:
    """Build a load from a registered generator by name.

    Raises ``ValueError`` for unknown generator names, listing the known
    ones -- the error surface of declarative sweep specs.
    """
    try:
        factory = LOAD_GENERATOR_REGISTRY[generator]
    except KeyError:
        known = ", ".join(sorted(LOAD_GENERATOR_REGISTRY))
        raise ValueError(
            f"unknown load generator {generator!r}; known generators: {known}"
        ) from None
    return factory(**kwargs)
