"""Scenario batches: many loads packed into padded epoch arrays.

A :class:`ScenarioSet` is the unit of work of the batch engine: a tuple of
:class:`repro.workloads.load.Load` objects plus their array form -- per-
scenario epoch currents and durations padded to a common length, which is
what lets :class:`repro.engine.batch.BatchSimulator` advance every scenario
with the same NumPy indexing.  The object form is kept alongside the arrays
so scalar fallbacks (non-vectorizable policies, the discrete backend, the
optimal scheduler) can run on exactly the same loads.
"""

from __future__ import annotations

import dataclasses
from typing import Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.kibam.discrete import discharge_spec_for, duration_ticks
from repro.workloads.generator import RandomLoadConfig, generate_random_load
from repro.workloads.load import Load


@dataclasses.dataclass(frozen=True)
class DiscreteScenarioArrays:
    """Epoch arrays of a scenario batch in dKiBaM integer form.

    For ``model="discrete"`` runs every epoch current is converted to its
    equation-(7) integer pair (``cur`` charge units per ``cur_times`` ticks)
    and every duration to a whole number of ticks, through the same
    conversions as the scalar :class:`repro.kibam.discrete.DiscreteKibam`.
    All arrays share the padded ``(n_scenarios, max_epochs)`` layout of
    :class:`ScenarioSet`; padded epochs are idle with zero ticks.
    """

    cur: np.ndarray
    cur_times: np.ndarray
    ticks: np.ndarray


@dataclasses.dataclass(frozen=True)
class ScenarioSet:
    """A batch of loads in both object and padded-array form.

    Attributes:
        loads: the scenario loads, one per row of the arrays.
        currents: epoch currents in Ampere, shape ``(n_scenarios,
            max_epochs)``, zero-padded past each scenario's last epoch.
        durations: epoch durations in minutes, same shape, zero-padded.
        n_epochs: number of real epochs per scenario, shape
            ``(n_scenarios,)``.
    """

    loads: Tuple[Load, ...]
    currents: np.ndarray
    durations: np.ndarray
    n_epochs: np.ndarray

    @staticmethod
    def from_loads(loads: Union[Load, Sequence[Load]]) -> "ScenarioSet":
        """Pack one or more loads into a scenario batch."""
        if isinstance(loads, Load):
            loads = [loads]
        loads = tuple(loads)
        if not loads:
            raise ValueError("a scenario set needs at least one load")
        counts = np.array([len(load.epochs) for load in loads], dtype=np.int64)
        width = int(counts.max())
        # Row-major True positions of the mask are exactly the epochs in
        # load order, so one flat assignment fills the padded arrays.
        filled = np.arange(width) < counts[:, None]
        epochs = [epoch for load in loads for epoch in load.epochs]
        currents = np.zeros((len(loads), width), dtype=np.float64)
        durations = np.zeros((len(loads), width), dtype=np.float64)
        currents[filled] = [epoch.current for epoch in epochs]
        durations[filled] = [epoch.duration for epoch in epochs]
        return ScenarioSet(
            loads=loads, currents=currents, durations=durations, n_epochs=counts
        )

    @staticmethod
    def random(
        n_scenarios: int,
        config: Optional[RandomLoadConfig] = None,
        seed: int = 0,
        rng: Optional[np.random.Generator] = None,
    ) -> "ScenarioSet":
        """Sample ``n_scenarios`` random loads.

        Without ``rng``, scenario ``i`` uses seed ``seed + i`` -- the exact
        sequence the scalar Monte-Carlo loop has always drawn, so batch and
        scalar sweeps see identical loads sample for sample.  With ``rng``
        (a :class:`numpy.random.Generator`), all scenarios are drawn from
        that single stream.
        """
        if n_scenarios < 1:
            raise ValueError("n_scenarios must be at least 1")
        loads: List[Load] = []
        for index in range(n_scenarios):
            if rng is not None:
                loads.append(generate_random_load(config=config, rng=rng))
            else:
                loads.append(generate_random_load(seed + index, config))
        return ScenarioSet.from_loads(loads)

    @property
    def n_scenarios(self) -> int:
        return len(self.loads)

    @property
    def max_epochs(self) -> int:
        return self.currents.shape[1]

    def __len__(self) -> int:
        return self.n_scenarios

    def subset(self, indices: Sequence[int]) -> "ScenarioSet":
        """A scenario set containing only the given scenario rows."""
        return ScenarioSet.from_loads([self.loads[i] for i in indices])

    def discretized(
        self, time_step: float = 0.01, charge_unit: float = 0.01
    ) -> DiscreteScenarioArrays:
        """The batch's epochs as dKiBaM integer arrays (``model="discrete"``).

        Raises ``ValueError`` when a current or duration is not exactly
        representable at the given discretization, exactly like the scalar
        dKiBaM would.  Conversions are cached per distinct value, so loads
        built from a few current levels and step-rounded durations (the
        paper loads, every random generator) discretize in O(distinct)
        Fraction work rather than O(epochs).
        """
        # Padded epochs carry current 0.0 / duration 0.0, which convert to
        # the idle spec and zero ticks, so the whole padded arrays convert
        # through their distinct values in one pass.  Each table gathers
        # through a ``searchsorted`` index that is dropped before the next
        # one is built, which keeps the peak near the output size.
        currents = np.unique(self.currents)
        cur_map = np.empty(currents.shape[0], dtype=np.int64)
        ct_map = np.empty(currents.shape[0], dtype=np.int64)
        for index, current in enumerate(currents):
            spec = discharge_spec_for(float(current), time_step, charge_unit)
            cur_map[index], ct_map[index] = spec.cur, spec.cur_times
        durations = np.unique(self.durations)
        tick_map = np.array(
            [duration_ticks(float(d), time_step) for d in durations], dtype=np.int64
        )
        where = np.searchsorted(currents, self.currents)
        cur, cur_times = cur_map[where], ct_map[where]
        del where
        ticks = tick_map[np.searchsorted(durations, self.durations)]
        return DiscreteScenarioArrays(cur=cur, cur_times=cur_times, ticks=ticks)

    def chunked(self, chunk_size: int) -> Iterator["ScenarioSet"]:
        """Split into consecutive chunks of at most ``chunk_size`` scenarios.

        A convenience for sharding one large sweep into smaller batches --
        e.g. to bound peak memory or to spread a sweep over several
        sessions.
        """
        if chunk_size < 1:
            raise ValueError("chunk_size must be at least 1")
        for start in range(0, self.n_scenarios, chunk_size):
            yield ScenarioSet.from_loads(self.loads[start : start + chunk_size])
