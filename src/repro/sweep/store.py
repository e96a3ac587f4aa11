"""Content-addressed on-disk store for sweep results.

Layout, under a caller-chosen root directory::

    <root>/<spec_hash>/
        manifest.json       # full spec dict + hash + chunk layout
        log.jsonl           # append-only event log (one line per chunk run)
        chunks/
            chunk_00000.npz # per-policy lifetimes/decisions/residual arrays

The directory name is the spec's content hash, so identical specs -- even
built by different processes, sessions or campaign names -- share one
entry: a re-run finds every chunk present and becomes a pure read, and an
interrupted sweep resumes from the chunks already on disk.  Chunk files are
written to a temporary name and atomically renamed, so a sweep killed
mid-write never leaves a truncated chunk behind (the half-written temp file
is simply ignored and overwritten on resume).

Arrays are stored as NPZ (exact float64 round-trip -- cache hits reproduce
the computed lifetimes bit for bit); the event log is JSONL for cheap
appends and human inspection.
"""

from __future__ import annotations

import dataclasses
import json
import os
import pathlib
import tempfile
import time
from typing import Dict, Iterator, List, Optional, Sequence

import numpy as np

from repro.sweep.spec import SweepSpec

#: Arrays every (chunk, policy) record must carry; matches the BatchResult
#: fields the analysis layer consumes.  Policies may persist additional
#: arrays (the ``optimal`` column stores its per-scenario ``complete``
#: mask plus the ``nodes``/``seeded`` search-work accounting of the
#: cross-grid-point seeding); chunks round-trip whatever fields they were
#: saved with, and chunks written before a field existed simply omit it.
RESULT_FIELDS = ("lifetimes", "decisions", "residual_charge")


@dataclasses.dataclass(frozen=True)
class StoreEntry:
    """Summary of one stored sweep, as listed by ``sweep status``."""

    spec_hash: str
    name: str
    model: str
    policies: Sequence[str]
    n_scenarios: int
    n_chunks: int
    completed_chunks: int
    path: pathlib.Path

    @property
    def complete(self) -> bool:
        return self.completed_chunks == self.n_chunks


class ResultStore:
    """Filesystem-backed, content-addressed sweep result cache."""

    def __init__(self, root) -> None:
        # The root is created lazily on first write, so read-only commands
        # (`sweep status`/`show`) against a mistyped path report a missing
        # store instead of silently materializing an empty directory.
        self.root = pathlib.Path(root)

    @property
    def exists(self) -> bool:
        return self.root.is_dir()

    # ------------------------------------------------------------------ #
    # paths
    # ------------------------------------------------------------------ #
    def entry_dir(self, spec_hash: str) -> pathlib.Path:
        return self.root / spec_hash

    def _chunk_path(self, spec_hash: str, index: int) -> pathlib.Path:
        return self.entry_dir(spec_hash) / "chunks" / f"chunk_{index:05d}.npz"

    def _manifest_path(self, spec_hash: str) -> pathlib.Path:
        return self.entry_dir(spec_hash) / "manifest.json"

    def _log_path(self, spec_hash: str) -> pathlib.Path:
        return self.entry_dir(spec_hash) / "log.jsonl"

    # ------------------------------------------------------------------ #
    # manifest
    # ------------------------------------------------------------------ #
    def ensure_entry(self, spec: SweepSpec) -> str:
        """Create (or revisit) the store entry for ``spec``; returns the hash."""
        spec_hash = spec.spec_hash()
        entry = self.entry_dir(spec_hash)
        (entry / "chunks").mkdir(parents=True, exist_ok=True)
        manifest_path = self._manifest_path(spec_hash)
        if not manifest_path.exists():
            manifest = {
                "hash": spec_hash,
                "spec": spec.to_dict(),
                "n_scenarios": spec.n_scenarios,
                "n_chunks": spec.n_chunks,
            }
            _atomic_write_text(manifest_path, json.dumps(manifest, indent=2) + "\n")
        return spec_hash

    def load_manifest(self, spec_hash: str) -> dict:
        manifest_path = self._manifest_path(spec_hash)
        if not manifest_path.exists():
            raise FileNotFoundError(
                f"no sweep {spec_hash!r} in store {self.root} "
                f"(run it first, or check `sweep status`)"
            )
        return json.loads(manifest_path.read_text())

    # ------------------------------------------------------------------ #
    # chunks
    # ------------------------------------------------------------------ #
    def has_chunk(self, spec_hash: str, index: int) -> bool:
        return self._chunk_path(spec_hash, index).exists()

    def completed_chunks(self, spec_hash: str, n_chunks: int) -> List[int]:
        return [i for i in range(n_chunks) if self.has_chunk(spec_hash, i)]

    def save_chunk(
        self,
        spec_hash: str,
        index: int,
        results: Dict[str, Dict[str, np.ndarray]],
        elapsed_seconds: float,
    ) -> None:
        """Atomically persist one chunk's per-policy result arrays."""
        arrays: Dict[str, np.ndarray] = {}
        for policy_index, (policy, fields) in enumerate(results.items()):
            missing = [field for field in RESULT_FIELDS if field not in fields]
            if missing:
                raise ValueError(
                    f"policy {policy!r} chunk record is missing required "
                    f"fields {missing}"
                )
            for field, values in fields.items():
                arrays[f"p{policy_index}__{field}"] = np.asarray(values)
        path = self._chunk_path(spec_hash, index)
        path.parent.mkdir(parents=True, exist_ok=True)
        # A per-writer temp name keeps concurrent runs of the same spec from
        # interleaving their bytes in one file; identical specs compute
        # identical arrays, so whichever rename lands last is still correct.
        fd, tmp = tempfile.mkstemp(
            prefix=path.stem + ".", suffix=".tmp.npz", dir=path.parent
        )
        try:
            with os.fdopen(fd, "wb") as handle:
                np.savez(handle, **arrays)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
        self._append_log(
            spec_hash,
            {
                "event": "chunk",
                "chunk": index,
                "elapsed_seconds": round(elapsed_seconds, 6),
                "time": time.strftime("%Y-%m-%dT%H:%M:%S"),
            },
        )

    def load_chunk(
        self, spec_hash: str, index: int, policies: Sequence[str]
    ) -> Dict[str, Dict[str, np.ndarray]]:
        """Load one chunk back into the per-policy array mapping."""
        path = self._chunk_path(spec_hash, index)
        with np.load(path) as archive:
            out: Dict[str, Dict[str, np.ndarray]] = {}
            for policy_index, policy in enumerate(policies):
                prefix = f"p{policy_index}__"
                out[policy] = {
                    name[len(prefix):]: archive[name]
                    for name in archive.files
                    if name.startswith(prefix)
                }
            return out

    # ------------------------------------------------------------------ #
    # log and listing
    # ------------------------------------------------------------------ #
    def _append_log(self, spec_hash: str, event: dict) -> None:
        with open(self._log_path(spec_hash), "a") as handle:
            handle.write(json.dumps(event, sort_keys=True) + "\n")

    def read_log(self, spec_hash: str) -> List[dict]:
        log_path = self._log_path(spec_hash)
        if not log_path.exists():
            return []
        events = []
        for line in log_path.read_text().splitlines():
            line = line.strip()
            if line:
                events.append(json.loads(line))
        return events

    def entries(self) -> Iterator[StoreEntry]:
        """All sweeps in the store, manifest order by hash."""
        if not self.exists:
            return
        for entry in sorted(self.root.iterdir()):
            manifest_path = entry / "manifest.json"
            if not entry.is_dir() or not manifest_path.exists():
                continue
            manifest = json.loads(manifest_path.read_text())
            spec_hash = manifest["hash"]
            n_chunks = int(manifest["n_chunks"])
            yield StoreEntry(
                spec_hash=spec_hash,
                name=manifest["spec"].get("name", ""),
                model=manifest["spec"].get("backend", "analytical"),
                policies=list(manifest["spec"].get("policies", [])),
                n_scenarios=int(manifest["n_scenarios"]),
                n_chunks=n_chunks,
                completed_chunks=len(self.completed_chunks(spec_hash, n_chunks)),
                path=entry,
            )

    def find(self, prefix: str) -> Optional[StoreEntry]:
        """Look up a stored sweep by hash prefix or campaign name."""
        matches = [
            entry
            for entry in self.entries()
            if entry.spec_hash.startswith(prefix) or entry.name == prefix
        ]
        if not matches:
            return None
        if len(matches) > 1:
            hashes = ", ".join(entry.spec_hash for entry in matches)
            raise ValueError(f"ambiguous sweep reference {prefix!r}: {hashes}")
        return matches[0]


def _atomic_write_text(path: pathlib.Path, text: str) -> None:
    fd, tmp = tempfile.mkstemp(prefix=path.stem + ".", suffix=".tmp", dir=path.parent)
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
