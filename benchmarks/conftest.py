"""Shared fixtures and reporting helpers for the benchmark harnesses.

Every benchmark regenerates one table or figure of the paper (see
DESIGN.md's experiment index) and, in addition to timing the computation
with ``pytest-benchmark``, prints the reproduced rows next to the published
values so ``pytest benchmarks/ --benchmark-only -s`` doubles as the
experiment runner behind EXPERIMENTS.md.

The throughput harnesses also keep ``BENCH_*.json`` records at the
repository root (gated by ``scripts/check_bench.py``).  They rewrite them
only when ``REPRO_BENCH_RECORD=1`` is set, so a plain test run leaves the
working tree clean.  Every written record carries a ``meta`` block naming
the git revision and the Python and NumPy versions that measured it, and,
for harnesses that pass their samples, each timed operation's repeat count
and min/median spread.
"""

from __future__ import annotations

import json
import os
import pathlib
import platform
import subprocess
from typing import Dict, Optional, Sequence

import numpy as np
import pytest

from repro.kibam.parameters import B1, B2
from repro.workloads.profiles import paper_loads


@pytest.fixture(scope="session")
def loads():
    """The ten test loads of the paper."""
    return paper_loads()


@pytest.fixture(scope="session")
def b1():
    return B1


@pytest.fixture(scope="session")
def b2():
    return B2


def emit(title: str, body: str) -> None:
    """Print a reproduced table with a recognizable banner."""
    banner = "=" * 72
    print(f"\n{banner}\n{title}\n{banner}\n{body}\n")


#: Environment variable that lets the harnesses rewrite ``BENCH_*.json``.
RECORD_ENV = "REPRO_BENCH_RECORD"
REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]


def bench_meta() -> dict:
    """Where a record was measured: git revision, Python and NumPy versions.

    The revision is ``None`` outside a git checkout (or without ``git``).
    """
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            check=True,
            cwd=pathlib.Path(__file__).resolve().parent,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = None
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def timing_summary(seconds: Sequence[float]) -> dict:
    """Repeat count and min/median spread of one timed operation's samples.

    ``spread`` is ``median / min - 1``: how far a typical repeat sat above
    the best one, which tells a real change from run-to-run noise.
    """
    samples = sorted(float(s) for s in seconds)
    if not samples:
        raise ValueError("at least one timing sample is required")
    best = samples[0]
    median = float(np.median(samples))
    return {
        "repeats": len(samples),
        "min_s": round(best, 6),
        "median_s": round(median, 6),
        "spread": round(median / best - 1.0, 4),
    }


def write_bench_record(
    name: str, updates: dict, timings: Optional[Dict[str, Sequence[float]]] = None
) -> None:
    """Merge ``updates`` into the root-level record ``name`` when opted in.

    Writes only when ``REPRO_BENCH_RECORD=1``.  Merging keeps the keys of
    other harnesses that share the record, so a partial run never deletes
    a gated key; the ``meta`` block is restamped on every write.
    ``timings`` maps a timed operation to its per-repeat seconds; each one
    lands in ``meta["timings"]`` as :func:`timing_summary`, next to the
    entries other harnesses of the record wrote.
    """
    if os.environ.get(RECORD_ENV) != "1":
        return
    path = REPO_ROOT / name
    record = json.loads(path.read_text()) if path.is_file() else {}
    record.update(updates)
    kept = dict(record.get("meta", {}).get("timings", {}))
    kept.update({op: timing_summary(s) for op, s in (timings or {}).items()})
    record["meta"] = bench_meta()
    if kept:
        record["meta"]["timings"] = kept
    path.write_text(json.dumps(record, indent=2) + "\n")
