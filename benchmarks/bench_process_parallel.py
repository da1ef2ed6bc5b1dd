"""Warm shared-memory executor vs a fresh executor per call.

The measurement behind ``repro.parallel_exec``: once workers are forked
and the arena is mapped, dispatching a solve costs descriptor pickling
plus two rebasing copies — not a pool fork, not an array pickle.  Four
arms, each timed in its own subprocess (fork-heavy workloads leave the
parent's allocator and page tables in a state that skews whoever runs
second):

* **warm** — one persistent :class:`~repro.parallel_exec.ProcessExecutor`,
  per-dispatch seconds after warm-up.  This is the service steady state.
* **fresh** — a new executor per call (fork + arena map + dispatch +
  teardown).  The cold-start cost the persistent pool amortizes away.
* **threads** — :func:`~repro.core.engine.iaf_distances` with the same
  ``workers`` and no executor: the level loop's split parts on threads.
* **serial** — :func:`~repro.core.engine.iaf_distances`, one core.

Acceptance bar (recorded in ``BENCH_process_parallel.json``): warm
dispatch no slower than the fresh-pool per-call path — if the pool
stops being reused, ``overhead_ratio`` collapses below 1 and CI fails.
The ``threads`` and ``serial`` arms are unguarded context: with
``cpu_count`` (also recorded) they show what the process pool buys
over threads and over one core on the measuring machine.

Runs two ways: under pytest like the sibling benches, or as a script
(CI's perf-smoke job, under a hard ``timeout``) which writes the JSON
and exits nonzero on regression::

    PYTHONPATH=src python benchmarks/bench_process_parallel.py

``REPRO_BENCH_PROC_N`` scales the trace length (default 50_000 — small
enough that dispatch cost is a visible fraction of the call, which is
the quantity under test; CI uses a smaller value still for runtime).
``REPRO_BENCH_PROC_WORKERS`` sets the pool width (default 2).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict

import numpy as np

JSON_PATH = Path(__file__).resolve().parent.parent / "BENCH_process_parallel.json"
REGRESSION_HEADROOM = 1.10  # CI fails if warm > fresh * this
CHILD_FLAG = "--child"  # internal: one isolated timing side

UNIVERSE = 40_000
REPEATS = 5
MODES = ("warm", "fresh", "threads", "serial")


def proc_n() -> int:
    return int(os.environ.get("REPRO_BENCH_PROC_N", 50_000))


def proc_workers() -> int:
    return int(os.environ.get("REPRO_BENCH_PROC_WORKERS", 2))


def _zipf_trace(n: int, seed: int = 17) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return (rng.zipf(1.2, size=n) % UNIVERSE).astype(np.int64)


def _best_of(once) -> float:
    """Min-of-``REPEATS`` seconds after one throwaway call."""
    once()
    best = float("inf")
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        once()
        best = min(best, time.perf_counter() - t0)
    return best


def _child(mode: str, n: int, workers: int) -> float:
    """Min-of-``REPEATS`` seconds for one side, in the current process."""
    from repro.core.engine import iaf_distances
    from repro.parallel_exec import ProcessExecutor

    trace = _zipf_trace(n)

    if mode == "threads":
        return _best_of(lambda: iaf_distances(trace, workers=workers))
    if mode == "serial":
        return _best_of(lambda: iaf_distances(trace))
    if mode == "warm":
        # The throwaway call faults in worker pages and primes the
        # arena free list.
        with ProcessExecutor(workers=workers) as ex:
            return _best_of(lambda: iaf_distances(
                trace, workers=workers, executor=ex
            ))

    def once():
        with ProcessExecutor(workers=workers) as ex:
            iaf_distances(trace, workers=workers, executor=ex)

    return _best_of(once)


def measure(n: int, workers: int) -> Dict[str, float]:
    """Time the two sides in alternating subprocess rounds."""
    # Correctness gate before spending the timing budget: the executor
    # path must be bit-identical to the single-process engine.
    from repro.core.engine import iaf_distances
    from repro.parallel_exec import ProcessExecutor

    check = _zipf_trace(min(n, 50_000))
    with ProcessExecutor(workers=workers) as ex:
        got = iaf_distances(check, workers=workers, executor=ex)
    if not np.array_equal(got, iaf_distances(check)):
        raise AssertionError("executor distances diverge from the engine")

    import repro

    env = dict(os.environ)
    src_dir = str(Path(repro.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src_dir, env.get("PYTHONPATH")) if p
    )
    times = {mode: float("inf") for mode in MODES}
    for _round in range(2):
        for mode in times:
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()),
                 CHILD_FLAG, mode, str(n), str(workers)],
                capture_output=True, text=True, check=True, env=env,
            )
            times[mode] = min(times[mode], float(proc.stdout.strip()))
    warm, fresh = times["warm"], times["fresh"]
    return {
        "n": n,
        "workers": workers,
        "cpu_count": os.cpu_count() or 1,
        "warm_s": warm,
        "fresh_s": fresh,
        "threads_s": times["threads"],
        "serial_s": times["serial"],
        # How much a dispatch saves by reusing the pool.
        "overhead_ratio": fresh / warm if warm else float("inf"),
    }


def write_json(results: Dict[str, float]) -> None:
    from _common import provenance

    record = dict(results, provenance=provenance())
    JSON_PATH.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")


def _render(results: Dict[str, float]) -> str:
    from repro.analysis.report import render_table

    warm = results["warm_s"]
    rows = [
        [label, f"{results[key]:.4f}", f"{results[key] / warm:.2f}x"]
        for label, key in (
            ("warm pool (persistent)", "warm_s"),
            ("fresh executor per call", "fresh_s"),
            ("thread dispatcher", "threads_s"),
            ("serial engine", "serial_s"),
        )
    ]
    return render_table(
        f"Process dispatch overhead (n={results['n']:,}, "
        f"workers={results['workers']}, cpus={results['cpu_count']})",
        ["dispatch path", "per-call (s)", "vs warm"],
        rows,
        note=f"results recorded in {JSON_PATH.name}",
    )


# ---------------------------------------------------------------------------
# pytest entry points (same harness style as the sibling bench modules)
# ---------------------------------------------------------------------------

def test_process_dispatch_overhead(benchmark):
    results = benchmark.pedantic(
        lambda: measure(proc_n(), proc_workers()), rounds=1, iterations=1
    )
    write_json(results)
    from _common import write_result

    write_result("process_parallel", _render(results))
    assert results["warm_s"] <= results["fresh_s"] * REGRESSION_HEADROOM, (
        f"warm dispatch {results['warm_s']:.4f}s is slower than a fresh "
        f"pool per call {results['fresh_s']:.4f}s — the pool is not "
        f"being reused"
    )


def main() -> int:
    results = measure(proc_n(), proc_workers())
    write_json(results)
    print(_render(results))
    if results["warm_s"] > results["fresh_s"] * REGRESSION_HEADROOM:
        print(
            f"FAIL: warm dispatch {results['warm_s']:.4f}s is more than "
            f"{(REGRESSION_HEADROOM - 1) * 100:.0f}% slower than a fresh "
            f"pool per call {results['fresh_s']:.4f}s",
            file=sys.stderr,
        )
        return 1
    print(
        f"ok: warm dispatch {results['warm_s']:.4f}s/call; fresh pool "
        f"{results['overhead_ratio']:.2f}x slower"
    )
    return 0


if __name__ == "__main__":
    if len(sys.argv) == 5 and sys.argv[1] == CHILD_FLAG:
        print(f"{_child(sys.argv[2], int(sys.argv[3]), int(sys.argv[4])):.6f}")
        sys.exit(0)
    sys.exit(main())
