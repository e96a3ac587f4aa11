#!/usr/bin/env python3
"""CI benchmark-regression gate for the BENCH_*.json throughput records.

Five records sit at the repository root: ``BENCH_engine.json``,
``BENCH_sweep.json``, ``BENCH_dkibam.json``, ``BENCH_optimal.json`` and
``BENCH_fleet.json``.  The benchmark harnesses rewrite them in the working
tree only when ``REPRO_BENCH_RECORD=1`` is set (CI sets it); the committed
copies are the baselines.  This script compares the two and fails (exit 1)
when a freshly measured record has regressed by more than the allowed
fraction (default 30%).  Without a fresh ``REPRO_BENCH_RECORD=1`` run the
working tree still holds the baselines and the comparison is trivial.

Noise tolerance: only machine-relative *ratios* are compared -- the
batch-vs-scalar speedup of the engine records, the dKiBaM segment kernel
against the scalar ticks, and the cache-hit time against the scalar
reference in the sweep record -- never absolute seconds or rates, so a slow
or busy CI runner does not trip the gate (both sides of a ratio slow down
together).

Usage::

    python scripts/check_bench.py                     # fresh: repo root,
                                                      # baseline: git HEAD
    python scripts/check_bench.py --max-regression 0.5
    python scripts/check_bench.py --baseline-ref origin/main
    python scripts/check_bench.py --fresh-dir out/ --baseline-dir base/

``--baseline-dir`` reads baseline files from a directory instead of git
(used by the self-test in ``tests/test_check_bench.py``).
"""

from __future__ import annotations

import argparse
import json
import pathlib
import subprocess
import sys
from typing import List, Optional, Tuple

#: (file name, ratio key) pairs under the gate.  Every key is a
#: dimensionless ratio, measured and baselined on the same machine class:
#: the engine/dKiBaM/optimal ``speedup`` keys are batch-vs-scalar
#: throughput ratios (the optimal one is the frontier-array search's node
#: throughput over the scalar depth-first reference), the sweep key is the
#: scalar simulator's time on a fixed load subset over the cache-hit time
#: (not cold-over-cached: a faster cold sweep would read as a cache
#: regression), and ``sweep_nodes_ratio`` is the fresh-vs-seeded
#: expanded-node ratio of the optimal sweep column (deterministic node
#: counts -- a drop means the spec-level dominance pruning stopped biting).
#: ``certification_nodes_ratio`` is the reference-over-current expanded-node
#: ratio on the certification-floor loads (also deterministic -- a drop
#: means the admissible bound got looser and the search re-expanded nodes
#: the recovery-limited bound used to prune).  ``group_symmetry_nodes_ratio``
#: is the without-over-with expanded-node ratio of the group-wise symmetry
#: reduction on identical-subgroup fleets (deterministic -- a drop means
#: permuted-duplicate schedules stopped being pruned).
#: ``segment_kernel_speedup`` is the per-tick scalar ``run_segment`` time
#: over the optimal search's dKiBaM segment kernel on one fixed lane batch
#: of the certified ``ILs 250`` search (a drop means the kernel's closed
#: forms fell back towards per-event work).
CHECKS: Tuple[Tuple[str, str], ...] = (
    ("BENCH_engine.json", "speedup"),
    ("BENCH_sweep.json", "cache_hit_vs_scalar"),
    ("BENCH_dkibam.json", "speedup"),
    ("BENCH_dkibam.json", "segment_kernel_speedup"),
    ("BENCH_optimal.json", "speedup"),
    ("BENCH_optimal.json", "sweep_nodes_ratio"),
    ("BENCH_optimal.json", "certification_nodes_ratio"),
    ("BENCH_fleet.json", "group_symmetry_nodes_ratio"),
)

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]


def load_json(path: pathlib.Path) -> Optional[dict]:
    if not path.is_file():
        return None
    return json.loads(path.read_text())


def load_baseline(
    name: str, ref: str, baseline_dir: Optional[pathlib.Path]
) -> Optional[dict]:
    """The committed baseline record: a directory copy, or ``git show``."""
    if baseline_dir is not None:
        return load_json(baseline_dir / name)
    proc = subprocess.run(
        ["git", "show", f"{ref}:{name}"],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
    )
    if proc.returncode != 0:
        return None
    return json.loads(proc.stdout)


def check_record(
    name: str,
    key: str,
    fresh: Optional[dict],
    baseline: Optional[dict],
    max_regression: float,
) -> Tuple[bool, str]:
    """One gate decision.  Returns (ok, human-readable line)."""
    if fresh is None:
        return False, f"{name}: FRESH RECORD MISSING (did the benchmarks run?)"
    if key not in fresh:
        return False, f"{name}: fresh record has no {key!r} field"
    if baseline is None:
        return True, f"{name}: no committed baseline yet; skipping"
    if key not in baseline:
        return True, f"{name}: baseline has no {key!r} field; skipping"
    fresh_ratio = float(fresh[key])
    base_ratio = float(baseline[key])
    floor = base_ratio * (1.0 - max_regression)
    ok = fresh_ratio >= floor
    verdict = "ok" if ok else f"REGRESSION (allowed floor {floor:.1f}x)"
    return ok, (
        f"{name}: {key} {fresh_ratio:.1f}x vs baseline {base_ratio:.1f}x -- {verdict}"
    )


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--max-regression",
        type=float,
        default=0.30,
        help="allowed fractional ratio drop before failing (default: 0.30)",
    )
    parser.add_argument(
        "--baseline-ref",
        default="HEAD",
        help="git ref holding the committed baselines (default: HEAD)",
    )
    parser.add_argument(
        "--fresh-dir",
        type=pathlib.Path,
        default=REPO_ROOT,
        help="directory holding the freshly written records (default: repo root)",
    )
    parser.add_argument(
        "--baseline-dir",
        type=pathlib.Path,
        default=None,
        help="read baselines from this directory instead of git",
    )
    args = parser.parse_args(argv)
    if not 0.0 <= args.max_regression < 1.0:
        parser.error("--max-regression must lie in [0, 1)")

    failures = 0
    for name, key in CHECKS:
        fresh = load_json(args.fresh_dir / name)
        baseline = load_baseline(name, args.baseline_ref, args.baseline_dir)
        ok, line = check_record(name, key, fresh, baseline, args.max_regression)
        print(line)
        if not ok:
            failures += 1
    if failures:
        print(
            f"benchmark gate: {failures} record(s) regressed more than "
            f"{args.max_regression:.0%}",
            file=sys.stderr,
        )
        return 1
    print("benchmark gate: all throughput ratios within tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
