"""Fused-vs-naive partition kernels, op width, steady-state allocations,
batch solving.

Four measurements behind the engine-core rework, each against the
acceptance bars recorded in ``BENCH_engine_kernels.json``:

* **level loop** — ``solve_prepost_arrays`` on a prebuilt 1M-access zipf
  op batch stored as int64, fused vs naive backend (the prepost compile
  and the prev/next scan are identical across backends and excluded).
  Bar: fused >= 1.3x.  When numba is installed the compiled backend
  joins the A/B (bar: compiled >= 2x over fused) and a thread-scaling
  sweep records the ``prange`` speedup per ``numba.set_num_threads``
  width; without numba both record honest "unavailable" metadata
  instead.
* **chunk level loop** — the same A/B at ``DEFAULT_CHUNK_SIZE``
  accesses, the size every chunked solve (``solve()`` from four chunks
  up, every tenant) runs its loops at, on the root such a solve builds:
  int32 ops that :func:`~repro.core.engine.certify_int32` passes, so
  the fused loop accumulates in int32.  Both arms record
  ``EngineStats.work``, which every backend must match.
* **width** — the fused level loop on the same root stored as int64 and
  at the width :func:`~repro.core.engine.certify_int32` certifies
  (int32 ops and an int32 accumulator), the form every unpinned solve
  runs.  Bar: int32 no slower than int64 within the 10% headroom.
* **steady-state allocations** — tracemalloc peak bytes and live blocks
  during a solve *after* warm-up: the naive backend re-allocates every
  level's arrays, the fused backend runs inside the thread's primed
  workspace (:func:`~repro.core.engine.thread_workspace`).  Bar: fused
  >= 2x lower.
* **batch throughput** — 64 independent 16k traces solved as one
  batched level loop vs a per-trace python loop, both in the thread's
  workspace and both at the certified int32 width.  Bar: batch >= 1x
  (the 1.5x design target needs the dispatch amortization to matter,
  i.e. more than one slow core — see docs/PERFORMANCE.md).

Runs two ways: under pytest like the sibling benches (``pytest
benchmarks/bench_engine_kernels.py``), or as a script (CI's perf-smoke
job) which writes the JSON and exits nonzero when fused regresses more
than 10% behind naive on either level-loop arm, or int32 more than 10%
behind int64::

    PYTHONPATH=src python benchmarks/bench_engine_kernels.py

``REPRO_BENCH_KERNEL_N`` scales the level-loop/allocation trace length
(default 1_000_000; CI uses a smaller value for runtime).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path
from typing import Dict, List

import numpy as np

from repro.core import compiled
from repro.core.chunked import DEFAULT_CHUNK_SIZE
from repro.core.engine import (
    EngineStats,
    Segments,
    certify_int32,
    iaf_distances,
    iaf_distances_batch,
    solve_prepost_arrays,
    thread_workspace,
)
from repro.core.ops import prepost_sequence_arrays
from repro.metrics.timing import median_time

JSON_PATH = Path(__file__).resolve().parent.parent / "BENCH_engine_kernels.json"
REGRESSION_HEADROOM = 1.10  # CI fails if fused > naive * this
#                             (and if int32 > int64 * this)
COMPILED_SPEEDUP_BAR = 2.0  # compiled must beat fused by this when jitted
BATCH_CHILD_FLAG = "--batch-child"  # internal: one isolated timing side

UNIVERSE = 50_000
REPEATS = 3
CHUNK_REPEATS = 15  # a chunk's loop takes tens of ms: more samples
BATCH_K = 64
BATCH_N = 16_384


def kernel_n() -> int:
    return int(os.environ.get("REPRO_BENCH_KERNEL_N", 1_000_000))


def _zipf_trace(n: int, seed: int = 42) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return (rng.zipf(1.2, size=n) % UNIVERSE).astype(np.int64)


def _root_segments(trace: np.ndarray, dtype=np.int64) -> Segments:
    kind, t, r = prepost_sequence_arrays(trace, dtype=dtype)
    return Segments.single(kind, t, r, 0, trace.size)


def measure_level_loop(n: int, repeats: int = REPEATS,
                       dtype=np.int64) -> Dict[str, float]:
    """Median seconds of the level loop alone, per backend.

    The compiled (numba) backend is timed only when the JIT is actually
    on: timing the un-jitted pure fallback would benchmark a python
    interpreter loop, not the kernel this bar is about.  The fused and
    compiled loops run in the thread's workspace, as every solve does.
    The warm-up solve of each backend records ``EngineStats.work``,
    which must be the same for all of them.  An int32 ``dtype`` builds
    the root as an unpinned solve of ``n`` accesses does: int32 ops
    that :func:`certify_int32` must pass, so the fused loop accumulates
    in int32.
    """
    trace = _zipf_trace(n)
    seg = _root_segments(trace, dtype)
    if seg.r.dtype == np.int32 and not certify_int32(0, trace.size, seg.r):
        raise AssertionError("the int32 root must certify")
    values = np.zeros(trace.size + 1, dtype=np.int64)
    work: Dict[str, float] = {}

    def run(backend: str) -> float:
        def once():
            values.fill(0)
            solve_prepost_arrays(seg, values, engine_backend=backend)

        stats = EngineStats()  # warm up (and size the thread's workspace)
        solve_prepost_arrays(seg, values, stats=stats, engine_backend=backend)
        work[backend] = stats.work
        _res, secs = median_time(once, repeats=repeats)
        return secs

    naive_s = run("naive")
    fused_s = run("fused")
    out: Dict[str, float] = {
        "n": n,
        "dtype": str(seg.r.dtype),
        "naive_s": naive_s,
        "fused_s": fused_s,
        "speedup": naive_s / fused_s if fused_s else float("inf"),
        "work": work["naive"],
        "compiled_available": compiled.jit_enabled(),
    }
    if compiled.jit_enabled():
        compiled.warmup()  # JIT compile outside the timed region
        compiled_s = run("compiled")
        out["compiled_s"] = compiled_s
        out["compiled_speedup_vs_fused"] = (
            fused_s / compiled_s if compiled_s else float("inf")
        )
    if len(set(work.values())) != 1:
        raise AssertionError(f"EngineStats.work differs by backend: {work}")
    return out


def measure_width(n: int) -> Dict[str, object]:
    """Median seconds of the fused level loop per op width.

    The same trace's root ops, stored as int64 and as int32, solved in
    alternating rounds so drift hits both widths alike.  The int32 root
    must pass :func:`certify_int32`, and its solve must then accumulate
    in int32: that is the width rule every unpinned solve runs under.
    """
    trace = _zipf_trace(n)
    seg64 = _root_segments(trace, np.int64)
    seg32 = _root_segments(trace, np.int32)
    if not certify_int32(0, trace.size, seg32.r):
        raise AssertionError("the int32 root must certify")
    values = np.zeros(trace.size + 1, dtype=np.int64)
    times: Dict[str, List[float]] = {"int64": [], "int32": []}
    acc = {}
    for seg in (seg64, seg32):  # warm up (and size both buffer sets)
        solve_prepost_arrays(seg, values, engine_backend="fused")
    for _round in range(REPEATS):
        for name, seg in (("int64", seg64), ("int32", seg32)):
            values.fill(0)
            t0 = time.perf_counter()
            solve_prepost_arrays(seg, values, engine_backend="fused")
            times[name].append(time.perf_counter() - t0)
            acc[name] = str(thread_workspace().acc_dtype)
    int64_s = float(np.median(times["int64"]))
    int32_s = float(np.median(times["int32"]))
    return {
        "n": n,
        "int64_s": int64_s,
        "int32_s": int32_s,
        "int64_acc": acc["int64"],
        "int32_acc": acc["int32"],
        "speedup": int64_s / int32_s if int32_s else float("inf"),
    }


def measure_thread_scaling(n: int) -> Dict[str, object]:
    """Compiled level loop vs thread count (``numba.set_num_threads``).

    Records one row per thread count from 1 to the host's numba thread
    pool size, plus the parallel efficiency of the widest run.  Honest
    metadata instead of numbers when numba is absent or the host has a
    single core — the sweep is carried forward by the CI numba leg.
    """
    cpus = os.cpu_count() or 1
    if not compiled.jit_enabled():
        return {
            "available": False,
            "reason": "numba not installed; sweep runs on the CI compiled leg",
            "cpu_count": cpus,
        }
    trace = _zipf_trace(n)
    seg = _root_segments(trace)
    values = np.zeros(trace.size + 1, dtype=np.int64)
    compiled.warmup()

    def once():
        values.fill(0)
        solve_prepost_arrays(seg, values, engine_backend="compiled")

    max_t = min(cpus, compiled.max_threads())
    threads = sorted({1, 2, 4, max_t} & set(range(1, max_t + 1)))
    rows = []
    try:
        for t in threads:
            compiled.set_threads(t)
            once()  # settle the pool at the new width
            _res, secs = median_time(once, repeats=REPEATS)
            rows.append({"threads": t, "seconds": secs})
    finally:
        compiled.set_threads(max_t)
    base = rows[0]["seconds"]
    widest = rows[-1]
    return {
        "available": True,
        "cpu_count": cpus,
        "n": n,
        "rows": rows,
        "speedup_at_max": base / widest["seconds"] if widest["seconds"] else 0.0,
        "efficiency_at_max": (
            base / (widest["seconds"] * widest["threads"])
            if widest["seconds"] else 0.0
        ),
    }


def measure_allocations(n: int) -> Dict[str, float]:
    """tracemalloc peak bytes / live blocks of one post-warm-up solve."""
    trace = _zipf_trace(n)
    seg = _root_segments(trace)
    values = np.zeros(trace.size + 1, dtype=np.int64)
    out: Dict[str, float] = {"n": n}

    for backend in ("naive", "fused"):
        def once():
            values.fill(0)
            solve_prepost_arrays(seg, values, engine_backend=backend)

        once()  # steady state: workspace primed, numpy pools warm
        tracemalloc.start()
        once()
        blocks = sum(
            s.count for s in tracemalloc.take_snapshot().statistics("filename")
        )
        _current, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        out[f"{backend}_peak_bytes"] = int(peak)
        out[f"{backend}_live_blocks"] = int(blocks)

    out["peak_ratio"] = (
        out["naive_peak_bytes"] / out["fused_peak_bytes"]
        if out["fused_peak_bytes"]
        else float("inf")
    )
    return out


def _batch_traces(k: int, n: int) -> List[np.ndarray]:
    rng = np.random.default_rng(7)
    return [
        (rng.zipf(1.2, size=n) % (n // 4)).astype(np.int64) for _ in range(k)
    ]


def _batch_child(mode: str, k: int = BATCH_K, n: int = BATCH_N) -> float:
    """Min-of-``REPEATS`` seconds for one side, in the current process."""
    traces = _batch_traces(k, n)
    if mode == "batch":
        fn = lambda: iaf_distances_batch(traces)  # noqa: E731
    else:
        fn = lambda: [iaf_distances(t) for t in traces]  # noqa: E731
    fn()  # warm up (and size the thread's workspace)
    best = float("inf")
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def measure_batch(k: int = BATCH_K, n: int = BATCH_N) -> Dict[str, float]:
    """Batched solve of k independent traces vs the per-trace loop.

    Each side is timed in its own fresh subprocess (two alternating
    rounds, min taken): the per-trace loop and the batch stress the
    allocator and caches so differently that in-process A/B skews
    whichever side runs on the dirtier heap by ~10% — more than the
    effect under test (see docs/PERFORMANCE.md on measurement hygiene).
    """
    traces = _batch_traces(k, n)
    want = [iaf_distances(t) for t in traces]
    got = iaf_distances_batch(traces)
    for a, b in zip(want, got):
        if not np.array_equal(a, b):
            raise AssertionError("batched distances diverge from the loop")
    import repro

    env = dict(os.environ)
    src_dir = str(Path(repro.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src_dir, env.get("PYTHONPATH")) if p
    )
    times = {"loop": float("inf"), "batch": float("inf")}
    for _round in range(2):
        for mode in times:
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()),
                 BATCH_CHILD_FLAG, mode],
                capture_output=True, text=True, check=True, env=env,
            )
            times[mode] = min(times[mode], float(proc.stdout.strip()))
    return {
        "k": k,
        "n": n,
        "loop_s": times["loop"],
        "batch_s": times["batch"],
        "speedup": (times["loop"] / times["batch"]
                    if times["batch"] else float("inf")),
    }


def run_all(n: int) -> Dict[str, Dict[str, float]]:
    # Batch first: it is the noise-sensitive comparison, and the 1M-op
    # level-loop/allocation runs leave the allocator and caches in a
    # state that measurably skews whatever runs after them.
    batch = measure_batch()
    return {
        "level_loop": measure_level_loop(n),
        "chunk_level_loop": measure_level_loop(
            DEFAULT_CHUNK_SIZE, repeats=CHUNK_REPEATS, dtype=np.int32),
        "width": measure_width(n),
        "thread_scaling": measure_thread_scaling(n),
        "steady_state_alloc": measure_allocations(n),
        "batch": batch,
    }


def write_json(results: Dict[str, Dict[str, float]]) -> None:
    from _common import provenance

    record = dict(results, provenance=provenance())
    JSON_PATH.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")


def _render(results: Dict[str, Dict[str, float]]) -> str:
    from repro.analysis.report import render_table

    lvl = results["level_loop"]
    chunk = results["chunk_level_loop"]
    width = results["width"]
    alloc = results["steady_state_alloc"]
    batch = results["batch"]
    rows: List[List[object]] = [
        ["level loop (s)", f"{lvl['naive_s']:.3f}", f"{lvl['fused_s']:.3f}",
         f"{lvl['speedup']:.2f}x"],
        [f"level loop, n={chunk['n']:,} {chunk['dtype']} (s)",
         f"{chunk['naive_s']:.4f}",
         f"{chunk['fused_s']:.4f}", f"{chunk['speedup']:.2f}x"],
        ["fused int64 / int32 (s)", f"{width['int64_s']:.3f}",
         f"{width['int32_s']:.3f}", f"{width['speedup']:.2f}x"],
        ["peak alloc (MB)", f"{alloc['naive_peak_bytes'] / 1e6:.1f}",
         f"{alloc['fused_peak_bytes'] / 1e6:.1f}",
         f"{alloc['peak_ratio']:.1f}x"],
        ["live blocks", alloc["naive_live_blocks"],
         alloc["fused_live_blocks"], ""],
        [f"batch {batch['k']}x{batch['n']} (s)", f"{batch['loop_s']:.3f}",
         f"{batch['batch_s']:.3f}", f"{batch['speedup']:.2f}x"],
    ]
    if "compiled_s" in lvl:
        rows.insert(1, [
            "compiled level loop (s)", f"{lvl['fused_s']:.3f}",
            f"{lvl['compiled_s']:.3f}",
            f"{lvl['compiled_speedup_vs_fused']:.2f}x vs fused",
        ])
    scaling = results.get("thread_scaling", {})
    if scaling.get("available"):
        per_thread = ", ".join(
            f"{row['threads']}t={row['seconds']:.3f}s"
            for row in scaling["rows"]
        )
        rows.append([
            "compiled thread sweep", per_thread,
            f"{scaling['speedup_at_max']:.2f}x",
            f"{scaling['efficiency_at_max'] * 100:.0f}% eff",
        ])
    return render_table(
        f"Engine kernels: fused vs naive (n={lvl['n']:,})",
        ["measure", "naive / loop", "fused / batch", "gain"],
        rows,
        note=f"results recorded in {JSON_PATH.name}",
    )


# ---------------------------------------------------------------------------
# pytest entry points (same harness style as the sibling bench modules)
# ---------------------------------------------------------------------------

def test_engine_kernels(benchmark):
    results = benchmark.pedantic(
        lambda: run_all(kernel_n()), rounds=1, iterations=1
    )
    write_json(results)
    from _common import write_result

    write_result("engine_kernels", _render(results))
    lvl, alloc, batch = (results["level_loop"],
                         results["steady_state_alloc"], results["batch"])
    width = results["width"]
    for arm in (lvl, results["chunk_level_loop"]):
        assert arm["fused_s"] <= arm["naive_s"] * REGRESSION_HEADROOM, (
            f"fused level loop regressed at n={arm['n']}: "
            f"{arm['fused_s']:.4f}s vs naive {arm['naive_s']:.4f}s"
        )
    assert width["int32_acc"] == "int32"
    assert width["int32_s"] <= width["int64_s"] * REGRESSION_HEADROOM, (
        f"int32 level loop regressed: {width['int32_s']:.3f}s vs int64 "
        f"{width['int64_s']:.3f}s"
    )
    assert alloc["peak_ratio"] >= 2.0
    assert batch["speedup"] >= 1.0
    if "compiled_s" in lvl:
        assert lvl["compiled_speedup_vs_fused"] >= COMPILED_SPEEDUP_BAR, (
            f"compiled level loop only {lvl['compiled_speedup_vs_fused']:.2f}x "
            f"over fused (bar: {COMPILED_SPEEDUP_BAR}x)"
        )


def main() -> int:
    results = run_all(kernel_n())
    write_json(results)
    print(_render(results))
    lvl = results["level_loop"]
    for arm in (lvl, results["chunk_level_loop"]):
        if arm["fused_s"] > arm["naive_s"] * REGRESSION_HEADROOM:
            print(
                f"FAIL: fused level loop at n={arm['n']} "
                f"{arm['fused_s']:.4f}s is more than "
                f"{(REGRESSION_HEADROOM - 1) * 100:.0f}% slower than naive "
                f"{arm['naive_s']:.4f}s",
                file=sys.stderr,
            )
            return 1
    width = results["width"]
    if (width["int32_acc"] != "int32"
            or width["int32_s"] > width["int64_s"] * REGRESSION_HEADROOM):
        print(
            f"FAIL: int32 level loop {width['int32_s']:.3f}s "
            f"(accumulating in {width['int32_acc']}) is more than "
            f"{(REGRESSION_HEADROOM - 1) * 100:.0f}% slower than int64 "
            f"{width['int64_s']:.3f}s",
            file=sys.stderr,
        )
        return 1
    if ("compiled_s" in lvl
            and lvl["compiled_speedup_vs_fused"] < COMPILED_SPEEDUP_BAR):
        print(
            f"FAIL: compiled level loop only "
            f"{lvl['compiled_speedup_vs_fused']:.2f}x over fused "
            f"(bar: {COMPILED_SPEEDUP_BAR}x)",
            file=sys.stderr,
        )
        return 1
    print(
        f"ok: fused {lvl['speedup']:.2f}x vs naive on the level loop "
        f"({results['chunk_level_loop']['speedup']:.2f}x at "
        f"n={results['chunk_level_loop']['n']:,}); "
        f"int32 {width['speedup']:.2f}x vs int64; "
        f"peak-allocation ratio {results['steady_state_alloc']['peak_ratio']:.1f}x; "
        f"batch speedup {results['batch']['speedup']:.2f}x"
    )
    return 0


if __name__ == "__main__":
    if len(sys.argv) == 3 and sys.argv[1] == BATCH_CHILD_FLAG:
        print(f"{_batch_child(sys.argv[2]):.6f}")
        sys.exit(0)
    sys.exit(main())
