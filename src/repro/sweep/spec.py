"""Declarative sweep specifications.

A :class:`SweepSpec` describes a whole experiment campaign -- which battery
configurations to simulate, which loads to put them under, which scheduling
policies to compare -- as plain data.  Specs expand deterministically into
an ordered list of :class:`ScenarioPoint` objects (the cartesian product of
battery configurations and resolved loads), which the runner cuts into
fixed-size chunks; and they serialize to a canonical JSON form whose SHA-256
digest (:meth:`SweepSpec.spec_hash`) content-addresses the on-disk result
store.  Two processes building the same spec therefore agree on the hash,
the scenario order and the chunk boundaries, which is what makes cached
re-runs and resume-after-interrupt possible.

The hash covers everything that determines the numbers -- battery triples,
load axes (including random seeds and generator arguments), policies,
battery model, chunk size and a schema version bumped whenever the
expansion or storage semantics change.  It deliberately excludes the
free-text ``name`` and ``description``, so renaming a campaign does not
orphan its results.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
from typing import Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.kibam.parameters import BatteryParameters
from repro.workloads.generator import (
    RandomLoadConfig,
    generate_random_load,
    make_load,
)
from repro.workloads.load import Epoch, Load
from repro.workloads.profiles import PAPER_LOAD_NAMES, paper_loads

#: Bumped whenever the expansion order, chunk layout or stored record shape
#: changes incompatibly; part of the content hash so stale stores are never
#: silently reused across semantics changes.
SCHEMA_VERSION = 1

#: Default number of scenarios per stored chunk.
DEFAULT_CHUNK_SIZE = 256

#: The pseudo-policy name that requests the optimal-schedule column.
OPTIMAL_POLICY = "optimal"

#: Default node cap for optimal columns (the Monte-Carlo sweep's
#: long-standing bound; keeps arbitrary random loads tractable).
DEFAULT_OPTIMAL_MAX_NODES = 20_000

#: Default state-merge tolerance for optimal columns (half a dKiBaM charge
#: unit; does not change any reported digit on the paper loads).
DEFAULT_OPTIMAL_TOLERANCE = 0.005

#: Revision of the optimal search's results, hashed into every spec with an
#: optimal column.  Bumped whenever a search fix can change the column for
#: an unchanged spec, so stores never serve numbers of the old search.
#: Revision 2: the greedy lower-bound probe stops at system death (before,
#: a dKiBaM probe could overestimate and prune the optimum).
#: Revision 3: dKiBaM searches on grids coarser than the paper's prune with
#: the draw-budget bound (before, a margin-inflated analytical pooling bound
#: that could prune the optimum).
OPTIMAL_SEARCH_REVISION = 3


# --------------------------------------------------------------------- #
# battery axis
# --------------------------------------------------------------------- #
@dataclasses.dataclass(frozen=True)
class BatteryConfig:
    """One battery configuration: a labelled tuple of battery parameter sets.

    Attributes:
        label: human readable identifier, used as the grouping key in
            aggregated tables (e.g. ``"2xB1"`` or ``"2xB1 x5"``).
        params: the battery parameter sets, one per battery slot.
    """

    label: str
    params: Tuple[BatteryParameters, ...]

    def __post_init__(self) -> None:
        if not self.params:
            raise ValueError("a battery configuration needs at least one battery")

    def to_dict(self) -> dict:
        return {
            "label": self.label,
            "params": [
                {
                    "capacity": p.capacity,
                    "c": p.c,
                    "k_prime": p.k_prime,
                    "name": p.name,
                }
                for p in self.params
            ],
        }

    @staticmethod
    def from_dict(payload: Mapping) -> "BatteryConfig":
        return BatteryConfig(
            label=str(payload["label"]),
            params=tuple(
                BatteryParameters(
                    capacity=float(p["capacity"]),
                    c=float(p["c"]),
                    k_prime=float(p["k_prime"]),
                    name=str(p.get("name", "")),
                )
                for p in payload["params"]
            ),
        )


def battery_grid(
    capacities: Sequence[float],
    c: float,
    k_prime: float,
    n_batteries: int = 2,
    label_prefix: str = "",
) -> Tuple[BatteryConfig, ...]:
    """A capacity grid of homogeneous battery sets (the Section 6 lever).

    Each grid point is ``n_batteries`` identical batteries at one capacity;
    heterogeneous configurations are built directly as
    :class:`BatteryConfig` objects instead.
    """
    if n_batteries < 1:
        raise ValueError("n_batteries must be at least 1")
    configs: List[BatteryConfig] = []
    for capacity in capacities:
        params = BatteryParameters(capacity=capacity, c=c, k_prime=k_prime)
        label = f"{label_prefix}{n_batteries}x{capacity:g}Amin"
        configs.append(BatteryConfig(label=label, params=(params,) * n_batteries))
    return tuple(configs)


# --------------------------------------------------------------------- #
# load axis
# --------------------------------------------------------------------- #
@dataclasses.dataclass(frozen=True)
class LoadAxis:
    """One declarative source of loads for a sweep.

    ``kind`` selects the resolution rule and ``payload`` carries its
    JSON-able arguments:

    * ``"paper"`` -- the paper's named test loads (all ten, or a subset).
    * ``"random"`` -- seeded random loads: sample ``i`` is drawn with seed
      ``seed + i``, exactly the sequence the Monte-Carlo layer draws, so
      sweeps and ``run_montecarlo`` share cache entries.
    * ``"generator"`` -- one load built by a registered generator from
      :data:`repro.workloads.generator.LOAD_GENERATOR_REGISTRY`.
    * ``"explicit"`` -- loads embedded epoch by epoch (used when a caller
      already holds ``Load`` objects, e.g. ``run_montecarlo(loads=...)``).

    Resolution returns ``(group_label, load)`` pairs; all samples of a
    random axis share one group label, so aggregation naturally summarizes
    them into a distribution while deterministic loads stay one row each.
    """

    kind: str
    payload: Mapping

    def __post_init__(self) -> None:
        if self.kind not in ("paper", "random", "generator", "explicit"):
            raise ValueError(f"unknown load axis kind {self.kind!r}")

    # -- constructors --------------------------------------------------- #
    @staticmethod
    def paper(names: Optional[Sequence[str]] = None) -> "LoadAxis":
        chosen = tuple(names) if names is not None else PAPER_LOAD_NAMES
        unknown = sorted(set(chosen) - set(PAPER_LOAD_NAMES))
        if unknown:
            raise ValueError(f"unknown paper loads: {unknown}")
        return LoadAxis(kind="paper", payload={"names": list(chosen)})

    @staticmethod
    def random(
        n_samples: int,
        seed: int = 0,
        config: Optional[RandomLoadConfig] = None,
    ) -> "LoadAxis":
        if n_samples < 1:
            raise ValueError("n_samples must be at least 1")
        cfg = config if config is not None else RandomLoadConfig()
        return LoadAxis(
            kind="random",
            payload={
                "n_samples": int(n_samples),
                "seed": int(seed),
                "config": {
                    "levels": list(cfg.levels),
                    "job_duration_range": list(cfg.job_duration_range),
                    "idle_duration_range": list(cfg.idle_duration_range),
                    "total_duration": cfg.total_duration,
                    "duration_step": cfg.duration_step,
                },
            },
        )

    @staticmethod
    def generator(name: str, label: Optional[str] = None, **kwargs) -> "LoadAxis":
        return LoadAxis(
            kind="generator",
            payload={"name": name, "label": label or name, "kwargs": dict(kwargs)},
        )

    @staticmethod
    def explicit(loads: Sequence[Load], label: Optional[str] = None) -> "LoadAxis":
        if not loads:
            raise ValueError("an explicit load axis needs at least one load")
        return LoadAxis(
            kind="explicit",
            payload={
                "label": label or "explicit",
                "loads": [
                    {
                        "name": load.name,
                        "epochs": [[e.current, e.duration] for e in load.epochs],
                    }
                    for load in loads
                ],
            },
        )

    # -- resolution ----------------------------------------------------- #
    def resolve(
        self, positions: Optional[Sequence[int]] = None
    ) -> List[Tuple[str, Load]]:
        """Expand this axis into ``(group_label, load)`` pairs, in order.

        ``positions`` picks entries by index (default: all).  A random axis
        then draws only the picked samples: sample ``i`` has its own seed
        ``seed + i``, so any subset draws the same loads as the full axis.
        """
        if self.kind == "random":
            cfg_dict = dict(self.payload["config"])
            cfg = RandomLoadConfig(
                levels=tuple(cfg_dict["levels"]),
                job_duration_range=tuple(cfg_dict["job_duration_range"]),
                idle_duration_range=tuple(cfg_dict["idle_duration_range"]),
                total_duration=cfg_dict["total_duration"],
                duration_step=cfg_dict["duration_step"],
            )
            seed = self.payload["seed"]
            label = f"random(seed={seed})"
            if positions is None:
                positions = range(self.payload["n_samples"])
            return [
                (label, generate_random_load(seed + index, cfg))
                for index in positions
            ]
        pairs = self._resolve_all()
        return pairs if positions is None else [pairs[i] for i in positions]

    def _resolve_all(self) -> List[Tuple[str, Load]]:
        """Every ``(group_label, load)`` pair of a non-random axis."""
        if self.kind == "paper":
            named = paper_loads()
            return [(name, named[name]) for name in self.payload["names"]]
        if self.kind == "generator":
            load = make_load(self.payload["name"], **dict(self.payload["kwargs"]))
            return [(self.payload["label"], load)]
        label = self.payload["label"]
        loads = [
            Load(
                name=entry["name"],
                epochs=tuple(
                    Epoch(current=current, duration=duration)
                    for current, duration in entry["epochs"]
                ),
            )
            for entry in self.payload["loads"]
        ]
        if len(loads) == 1:
            return [(loads[0].name or label, loads[0])]
        return [(label, load) for load in loads]

    def labels(self) -> List[str]:
        """Group labels in resolution order, without materializing loads.

        Used by the runner when every chunk of a sweep is already stored:
        aggregation only needs the labels, and skipping the load generation
        (seeded random sampling in particular) keeps cached re-runs at pure
        read cost.
        """
        if self.kind == "paper":
            return list(self.payload["names"])
        if self.kind == "random":
            label = f"random(seed={self.payload['seed']})"
            return [label] * int(self.payload["n_samples"])
        if self.kind == "generator":
            return [self.payload["label"]]
        label = self.payload["label"]
        entries = self.payload["loads"]
        if len(entries) == 1:
            return [entries[0]["name"] or label]
        return [label] * len(entries)

    def to_dict(self) -> dict:
        return {"kind": self.kind, "payload": _plain(self.payload)}

    @staticmethod
    def from_dict(payload: Mapping) -> "LoadAxis":
        return LoadAxis(kind=str(payload["kind"]), payload=dict(payload["payload"]))


# --------------------------------------------------------------------- #
# scenario points and the spec itself
# --------------------------------------------------------------------- #
@dataclasses.dataclass(frozen=True)
class ScenarioPoint:
    """One expanded scenario: a battery configuration under one load.

    ``load`` is ``None`` where an expansion left it out (see
    :meth:`SweepSpec.expand`): the runner builds loads only for the chunks
    it computes, since stored chunks need aggregation labels alone.
    """

    index: int
    battery_label: str
    battery_params: Tuple[BatteryParameters, ...]
    load_label: str
    load: Optional[Load]


def _seedable_step(
    prev: Tuple[BatteryParameters, ...], cur: Tuple[BatteryParameters, ...]
) -> bool:
    """Whether ``prev``'s optimal schedule is a useful seed for ``cur``.

    True when the two battery sets differ only along a monotone capacity
    axis: same battery count, same ``(c, k')`` per slot, and every capacity
    non-decreasing.  Under the KiBaM dynamics the height difference evolves
    independently of the stored charge, so growing a capacity shifts the
    empty margin up uniformly: any schedule of the smaller set replays on
    the larger set at least as long, which makes the smaller point's
    optimum a strong (and always admissible -- it is re-replayed on the
    larger batteries) incumbent for the larger point's search.
    """
    if len(prev) != len(cur):
        return False
    return all(
        a.c == b.c and a.k_prime == b.k_prime and a.capacity <= b.capacity
        for a, b in zip(prev, cur)
    )


def optimal_seed_chains(points: Sequence["ScenarioPoint"]) -> List[List[int]]:
    """Group scenario positions into seed-ordered processing chains.

    Spec-level dominance pruning for the ``optimal`` column: positions of
    ``points`` (indices into the given sequence) are grouped by identical
    load, ordered by ascending capacity vector within each group, and split
    wherever consecutive battery sets are not monotone-comparable
    (:func:`_seedable_step`).  Each returned chain is processed in order by
    the runner, every completed search seeding the next one's incumbent;
    concatenated, the chains cover every position exactly once.  Ordering
    only affects *how much work* each search does -- seeded and fresh
    sweeps return identical results -- so the plan is deliberately not part
    of the spec content hash.
    """
    order: List[Tuple] = []
    groups: dict = {}
    for position, point in enumerate(points):
        if point.load is None:
            # Label-only point (its chunk is stored): nothing to run.
            key = ("label-only", position)
        else:
            key = (
                point.load_label,
                tuple((e.current, e.duration) for e in point.load.epochs),
            )
        if key not in groups:
            groups[key] = []
            order.append(key)
        groups[key].append(position)

    chains: List[List[int]] = []
    for key in order:
        members = sorted(
            groups[key],
            key=lambda position: tuple(
                p.capacity for p in points[position].battery_params
            ),
        )
        chain: List[int] = []
        for position in members:
            if chain and not _seedable_step(
                points[chain[-1]].battery_params, points[position].battery_params
            ):
                chains.append(chain)
                chain = []
            chain.append(position)
        if chain:
            chains.append(chain)
    return chains


def _plain(value):
    """Recursively convert mappings/sequences to JSON-serializable plain types."""
    if isinstance(value, Mapping):
        return {str(key): _plain(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(item) for item in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    raise TypeError(f"cannot serialize {type(value).__name__} into a sweep spec")


@dataclasses.dataclass(frozen=True)
class SweepSpec:
    """A declarative experiment campaign.

    Attributes:
        name: human readable campaign name (not part of the content hash).
        batteries: battery configurations to sweep over.
        loads: load axes; their resolved loads are concatenated in order.
        policies: scheduling policy names evaluated on every scenario.
        model: battery model (``"analytical"`` and ``"discrete"`` both
            run vectorized; ``"linear"`` runs through the scalar fallback).
            Part of the content hash (under the key ``"backend"``, which
            existing store entries were hashed with), so analytical and
            discrete results of an otherwise identical campaign never alias
            in the store.
        chunk_size: scenarios per stored chunk (the resume granularity).
        description: free text shown by the CLI (not hashed).
    """

    name: str
    batteries: Tuple[BatteryConfig, ...]
    loads: Tuple[LoadAxis, ...]
    policies: Tuple[str, ...]
    model: str = "analytical"
    chunk_size: int = DEFAULT_CHUNK_SIZE
    description: str = ""
    optimal_max_nodes: Optional[int] = DEFAULT_OPTIMAL_MAX_NODES
    optimal_dominance_tolerance: float = DEFAULT_OPTIMAL_TOLERANCE

    def __post_init__(self) -> None:
        if not self.batteries:
            raise ValueError("a sweep needs at least one battery configuration")
        if self.optimal_max_nodes is not None and self.optimal_max_nodes < 1:
            raise ValueError(
                f"optimal_max_nodes must be at least 1 (or None for an "
                f"uncapped search), got {self.optimal_max_nodes}"
            )
        if self.optimal_dominance_tolerance < 0.0:
            raise ValueError(
                "optimal_dominance_tolerance must be non-negative, got "
                f"{self.optimal_dominance_tolerance}"
            )
        widths = {len(config.params) for config in self.batteries}
        if len(widths) != 1:
            # The engine batches scenarios over a common battery axis, so a
            # mixed-width campaign would only fail chunks deep into the run
            # (and only for chunk boundaries that mix widths); reject it at
            # construction instead.
            raise ValueError(
                "all battery configurations in a sweep need the same number "
                f"of batteries, got widths {sorted(widths)}"
            )
        if not self.loads:
            raise ValueError("a sweep needs at least one load axis")
        if not self.policies:
            raise ValueError("a sweep needs at least one policy")
        if len(set(self.policies)) != len(self.policies):
            raise ValueError(f"policy names must be unique, got {list(self.policies)}")
        if self.chunk_size < 1:
            raise ValueError("chunk_size must be at least 1")

    # -- battery model -------------------------------------------------- #
    def with_model(self, model: str) -> "SweepSpec":
        """This campaign under another battery model.

        The model enters the content hash, so e.g. ``table5`` and
        ``table5.with_model("discrete")`` address different store entries
        and can never alias each other's results.
        """
        if model == self.model:
            return self
        return dataclasses.replace(self, model=model)

    # -- the optimal-schedule column ------------------------------------ #
    @property
    def has_optimal(self) -> bool:
        """Whether this campaign includes the optimal-schedule column."""
        return OPTIMAL_POLICY in self.policies

    def with_optimal(
        self,
        max_nodes: Optional[int] = DEFAULT_OPTIMAL_MAX_NODES,
        dominance_tolerance: float = DEFAULT_OPTIMAL_TOLERANCE,
    ) -> "SweepSpec":
        """This campaign with an ``optimal`` column appended.

        The optimal column is computed by the batched branch-and-bound
        search (one search per scenario) rather than by a policy
        simulation; ``max_nodes`` and ``dominance_tolerance`` bound each
        search and -- because they change the computed numbers whenever a
        search hits them -- are part of the content hash of any spec that
        carries the column.  Specs without an optimal column hash exactly
        as before, so existing stores are not orphaned.
        """
        policies = self.policies
        if OPTIMAL_POLICY not in policies:
            policies = policies + (OPTIMAL_POLICY,)
        return dataclasses.replace(
            self,
            policies=policies,
            optimal_max_nodes=max_nodes,
            optimal_dominance_tolerance=dominance_tolerance,
        )

    # -- serialization and hashing -------------------------------------- #
    def to_dict(self) -> dict:
        payload = {
            "schema": SCHEMA_VERSION,
            "name": self.name,
            "description": self.description,
            "batteries": [config.to_dict() for config in self.batteries],
            "loads": [axis.to_dict() for axis in self.loads],
            "policies": list(self.policies),
            "backend": self.model,
            "chunk_size": self.chunk_size,
        }
        if self.has_optimal:
            # Emitted (and therefore hashed) only when the optimal column is
            # requested: these settings change the computed numbers of that
            # column, but a spec without the column must keep its pre-optimal
            # hash so existing store entries stay addressable.
            payload["optimal"] = {
                "max_nodes": self.optimal_max_nodes,
                "dominance_tolerance": self.optimal_dominance_tolerance,
                "revision": OPTIMAL_SEARCH_REVISION,
            }
        return payload

    @staticmethod
    def from_dict(payload: Mapping) -> "SweepSpec":
        schema = int(payload.get("schema", SCHEMA_VERSION))
        if schema != SCHEMA_VERSION:
            raise ValueError(
                f"sweep spec schema {schema} is not supported "
                f"(this build understands schema {SCHEMA_VERSION})"
            )
        optimal = payload.get("optimal") or {}
        max_nodes = optimal.get("max_nodes", DEFAULT_OPTIMAL_MAX_NODES)
        return SweepSpec(
            name=str(payload["name"]),
            batteries=tuple(
                BatteryConfig.from_dict(entry) for entry in payload["batteries"]
            ),
            loads=tuple(LoadAxis.from_dict(entry) for entry in payload["loads"]),
            policies=tuple(str(policy) for policy in payload["policies"]),
            model=str(payload.get("backend", "analytical")),
            chunk_size=int(payload.get("chunk_size", DEFAULT_CHUNK_SIZE)),
            description=str(payload.get("description", "")),
            optimal_max_nodes=None if max_nodes is None else int(max_nodes),
            optimal_dominance_tolerance=float(
                optimal.get("dominance_tolerance", DEFAULT_OPTIMAL_TOLERANCE)
            ),
        )

    def canonical(self) -> dict:
        """The content that determines the results.

        Free text that affects no simulated number is stripped: the spec's
        ``name``/``description``, the cosmetic ``name`` of each battery
        parameter set, and the names of explicitly embedded loads.  Battery
        and axis *labels* stay -- they define the identity of the aggregated
        rows -- but renaming a battery triple or a load object must not
        orphan an already-computed store entry.
        """
        payload = self.to_dict()
        payload.pop("name")
        payload.pop("description")
        for config in payload["batteries"]:
            for params in config["params"]:
                params.pop("name", None)
        for axis in payload["loads"]:
            if axis["kind"] == "explicit":
                for load in axis["payload"]["loads"]:
                    load.pop("name", None)
        return payload

    def spec_hash(self) -> str:
        """Stable 16-hex-digit content address of this spec.

        Built from the canonical JSON form with sorted keys, so it does not
        depend on insertion order, ``PYTHONHASHSEED`` or the process that
        computes it; float round-tripping uses ``repr`` (shortest exact
        form), which is deterministic across CPython builds.
        """
        canonical = json.dumps(
            self.canonical(), sort_keys=True, separators=(",", ":")
        )
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]

    # -- expansion ------------------------------------------------------ #
    def expand(self, only: Optional[Iterable[int]] = None) -> List[ScenarioPoint]:
        """The ordered scenario list: battery-major over the resolved loads.

        ``only`` names the scenario indices whose loads are materialized
        (default: all); every other point carries its labels alone, with
        ``load=None``.  The store-backed runner passes its pending chunks'
        scenarios, so a resume draws only the random samples it computes.
        """
        if only is None:
            resolved = [pair for axis in self.loads for pair in axis.resolve()]
        else:
            labels = [axis.labels() for axis in self.loads]
            n_loads = sum(len(axis_labels) for axis_labels in labels)
            wanted = {index % n_loads for index in only}
            resolved = []
            for axis, axis_labels in zip(self.loads, labels):
                offset = len(resolved)
                picked = [i for i in range(len(axis_labels)) if offset + i in wanted]
                loads = (
                    dict(zip(picked, (load for _, load in axis.resolve(picked))))
                    if picked
                    else {}
                )
                resolved.extend(
                    (label, loads.get(i)) for i, label in enumerate(axis_labels)
                )
        return [
            ScenarioPoint(
                index=index,
                battery_label=config.label,
                battery_params=config.params,
                load_label=load_label,
                load=load,
            )
            for index, (config, (load_label, load)) in enumerate(
                itertools.product(self.batteries, resolved)
            )
        ]

    def expand_labels(self) -> List[ScenarioPoint]:
        """Label-only expansion: same order as :meth:`expand`, loads unset."""
        return self.expand(only=())

    @property
    def n_scenarios(self) -> int:
        per_axis = 0
        for axis in self.loads:
            if axis.kind == "random":
                per_axis += int(axis.payload["n_samples"])
            elif axis.kind == "paper":
                per_axis += len(axis.payload["names"])
            elif axis.kind == "explicit":
                per_axis += len(axis.payload["loads"])
            else:
                per_axis += 1
        return len(self.batteries) * per_axis

    @property
    def n_chunks(self) -> int:
        return (self.n_scenarios + self.chunk_size - 1) // self.chunk_size

    def chunk_bounds(self) -> List[Tuple[int, int]]:
        """Half-open scenario index ranges, one per chunk."""
        total = self.n_scenarios
        return [
            (start, min(start + self.chunk_size, total))
            for start in range(0, total, self.chunk_size)
        ]
