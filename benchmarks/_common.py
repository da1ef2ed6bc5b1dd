"""Shared infrastructure for the benchmark harness.

Every bench module regenerates one table or figure from the paper's
evaluation (see DESIGN.md's experiment index).  Conventions:

* Workload sizes come from the scaled Table-1 catalog
  (:mod:`repro.workloads.catalog`).  ``REPRO_BENCH_SIZES`` (comma list)
  and ``REPRO_BENCH_DISTS`` narrow or widen the sweep;
  ``REPRO_BENCH_DISTS=all`` runs the paper's full six-distribution suite.
* Traces are generated once per (size, distribution) and cached.
* Each bench measures with ``benchmark.pedantic(rounds=1)`` — every row
  is minutes of pure-Python tree work at the largest sizes, so the
  classical many-rounds protocol is not affordable; medians over
  distributions play the paper's averaging role instead.
* Paper-style tables are rendered with
  :func:`repro.analysis.report.render_table` and written under
  ``benchmarks/results/`` as well as printed, so ``bench_output.txt``
  and EXPERIMENTS.md can quote them.
"""

from __future__ import annotations

import hashlib
import importlib.util
import os
import platform
import subprocess
from functools import lru_cache
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro import SolveConfig, solve
from repro.baselines import baseline_hit_rate_curve
from repro.core.bounded import bounded_iaf
from repro.core.engine import EngineStats, iaf_hit_rate_curve
from repro.metrics.memory import MemoryModel
from repro.workloads.catalog import DISTRIBUTIONS, SIZES, get_workload

RESULTS_DIR = Path(__file__).parent / "results"
ROOT = Path(__file__).resolve().parent.parent

#: Result files already written by this process: the first write of a
#: session replaces the file, later writes append.  (Truncating at
#: pytest session start instead would wipe every experiment's output on
#: partial or concurrent runs — including `--collect-only`.)
_written_this_session: set = set()


def bench_sizes() -> List[str]:
    """Catalog sizes to sweep (``REPRO_BENCH_SIZES`` override)."""
    raw = os.environ.get("REPRO_BENCH_SIZES", "")
    if raw.strip().lower() == "all" or not raw.strip():
        return list(SIZES)
    return [s.strip().lower() for s in raw.split(",") if s.strip()]


def bench_dists() -> List[str]:
    """Distributions to sweep (default a 2-element subset for runtime)."""
    raw = os.environ.get("REPRO_BENCH_DISTS", "uniform,zipf-0.8")
    if raw.strip().lower() == "all":
        return list(DISTRIBUTIONS)
    return [d.strip() for d in raw.split(",") if d.strip()]


@lru_cache(maxsize=64)
def load_trace(size: str, distribution: str, dtype_name: str = "int64") -> np.ndarray:
    """Generate (and cache) one catalog trace."""
    spec = get_workload(size)
    return spec.generate(distribution, seed=0, dtype=np.dtype(dtype_name))


def run_system(
    system: str,
    trace: np.ndarray,
    *,
    workers: int = 1,
    max_cache_size: Optional[int] = None,
) -> Tuple[object, MemoryModel, Optional[EngineStats]]:
    """Run one named system over ``trace`` with memory instrumentation.

    Systems: ``iaf``, ``bound-iaf``, ``parallel-iaf``, ``ost``, ``splay``,
    ``parda`` — the exact line-up of Tables 2 and 3.
    """
    memory = MemoryModel()
    stats: Optional[EngineStats] = EngineStats()
    if system == "iaf":
        curve = iaf_hit_rate_curve(trace, stats=stats, memory=memory)
    elif system == "bound-iaf":
        curve = bounded_iaf(
            trace, max_cache_size, chunk_multiplier=4,
            stats=stats, memory=memory,
        ).curve
    elif system == "parallel-iaf":
        curve = solve(trace, SolveConfig(algorithm="parallel-iaf",
                                         workers=workers),
                      stats=stats).curve
        # Same state as serial IAF: the level arrays, split across threads
        # (17 bytes per op: uint8 kind + two int64 fields).
        memory.observe(
            "engine.segments",
            max(stats.peak_level_ops * 17, int(trace.nbytes)),
        )
    elif system in ("ost", "splay", "parda"):
        stats = None
        curve = baseline_hit_rate_curve(
            trace, system, workers=workers,
            max_cache_size=max_cache_size, memory=memory,
        )
    else:
        raise ValueError(f"unknown system {system!r}")
    return curve, memory, stats


def provenance() -> Dict[str, object]:
    """The conditions every ``BENCH_*.json`` records under ``provenance``.

    The same fields ``perfbench`` prints: the checkout's commit, the core
    count, whether numba is installed, the numpy and Python versions,
    and a sha256 over every ``src/repro`` source file (which also tells
    an uncommitted tree from its commit).
    """
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    src = ROOT / "src" / "repro"
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return {
        "commit": commit,
        "nproc": os.cpu_count(),
        "numba": importlib.util.find_spec("numba") is not None,
        "numpy": np.__version__,
        "python": platform.python_version(),
        "src_sha256": digest.hexdigest(),
    }


def write_result(name: str, text: str) -> None:
    """Persist a rendered table under benchmarks/results/ and print it.

    The first write of a process replaces any stale file from earlier
    runs; subsequent writes (multi-table experiments like fig2) append.
    """
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{name}.txt"
    if name in _written_this_session and path.exists():
        path.write_text(path.read_text() + text)
    else:
        path.write_text(text)
        _written_this_session.add(name)
    print("\n" + text)


class RowCollector:
    """Accumulates rows across parametrized bench cases, renders once.

    pytest runs each (size, system) case separately; the collector keyed
    by experiment name gathers their measurements so a final "report"
    test can render the whole paper-style table.
    """

    _store: Dict[str, Dict[Tuple, Dict[str, float]]] = {}

    @classmethod
    def record(cls, experiment: str, key: Tuple, **measures: float) -> None:
        cls._store.setdefault(experiment, {}).setdefault(key, {}).update(
            measures
        )

    @classmethod
    def rows(cls, experiment: str) -> Dict[Tuple, Dict[str, float]]:
        return cls._store.get(experiment, {})


def require_rows(experiment: str) -> Dict[Tuple, Dict[str, float]]:
    """Collected rows for ``experiment``, or a *loud* pytest skip.

    Report tests must never render an empty table: that writes a
    headers-only file under ``results/`` that looks like a successful run
    (the silent-skip failure mode — a broken or deselected measurement
    test goes unnoticed for months).  Skipping with an explicit reason
    shows up as ``s`` + reason in the pytest summary instead.
    """
    import pytest

    rows = RowCollector.rows(experiment)
    if not rows:
        pytest.skip(
            f"no measurements collected for experiment {experiment!r} — "
            f"its measurement tests did not run in this session "
            f"(deselected, failed, or skipped); not writing an empty table"
        )
    return rows
