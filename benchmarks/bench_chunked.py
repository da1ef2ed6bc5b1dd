"""Chunked incremental IAF: steady-state memory and throughput.

The measurement behind ``repro.core.chunked``: the chunked engine's
working set is O(u + chunk) — living carry plus one chunk solve — while
the batch engine materializes O(n) op arrays.  The curve is bit-identical
either way (checked here before any timing), so the chunk size is purely
a memory/throughput dial.

Each side runs in its own subprocess and reports its peak RSS
(``ru_maxrss``), so the sides cannot pollute each other's allocator high
watermark:

* **batch** — ``iaf_hit_rate_curve`` over the materialized trace, at n
  and 4n.  RSS grows with n; that growth is the baseline.
* **chunked** — :class:`~repro.core.chunked.ChunkedIAF` fed the same
  stream in pushes (the trace is never materialized), at n and 4n and
  across a sweep of chunk sizes.  RSS and the engine's own
  ``state_nbytes`` must plateau: 4x the accesses, same footprint.
* **wide** — a tenant-shaped stream whose universe is far wider than a
  chunk: Zipf-0.8 over u = 65 536 in 20 000-access pushes, with a
  ``curve()`` query after every third push, at chunks 4 096 and 32 768.
  Each chunk sorts only the living entries it references, so the
  amplification ``Σ(referenced + n) / Σn`` over the ``chunked.chunk``
  spans stays at most 2 however large the carry, and the accesses
  sorted per access pushed, ``Σ(accesses sorted) / Σn`` counted by
  :func:`repro.qa.count_sorts`, equal it: one sort per chunk.  The
  level loop solves the chunk alone: the level-loop accesses per
  access pushed, ``Σn`` over the ``iaf.solve`` spans (one per
  ``iaf_distances`` call) over ``Σn`` pushed, is exactly 1.
* **solve** — :func:`repro.solve` under the default config against the
  one-shot loop (:func:`~repro.core.engine.iaf_hit_rate_curve`), one
  fresh subprocess per point, on a Zipf-0.8 trace over u = 26 800
  (``offline_solve``'s shape) and uniform traces over u = 100 000 and
  u = n.  From ``CHUNKED_THRESHOLD`` accesses on, ``solve()`` runs the
  chunked engine.  Each point records the solve's CPU seconds and the
  process's peak RSS; the curves must be equal.
* **tenants** — 16 exact tenants of one
  :class:`~repro.tenants.TenantRegistry`, all pushed from one thread:
  10 rounds of one 20 000-access Zipf-1.1 push per tenant over
  u = 65 536, every tenant queried after every third round.  One
  subprocess side records peak RSS next to Σ ``state_nbytes`` (what the
  tenant budgets charge) and the capacity of the thread's workspace
  (the chunk solves' scratch, which the tenants share; address space,
  of which only touched pages are resident), and checks every tenant's
  curve against :func:`~repro.core.engine.iaf_hit_rate_curve` over
  what it was pushed.  Fixed size; its memory figures carry no bar.

Acceptance bars (recorded in ``BENCH_chunked.json``):

* chunked and batch curves agree exactly at every measured point, wide
  arm included;
* chunked peak RSS grows < ``RSS_GROWTH_HEADROOM`` from n to 4n while
  the carried ``state_nbytes`` stays flat;
* chunked throughput at the default chunk stays within
  ``THROUGHPUT_FLOOR`` of the batch engine;
* the wide arm's amplification is at most ``AMPLIFICATION_CAP``, and
  its accesses sorted per access pushed equal its amplification (one
  sort per chunk);
* the wide arm's level-loop accesses per access pushed are exactly
  ``LEVEL_LOOP_PER_ACCESS`` (1.0);
* every ``solve()`` point's curve equals the one-shot loop's;
* every tenant's curve matches the batch engine.

Runs two ways: under pytest like the sibling benches, or as a script
(CI's perf-smoke job, under a hard ``timeout``) which writes the JSON
and exits nonzero on regression::

    PYTHONPATH=src python benchmarks/bench_chunked.py

``REPRO_BENCH_CHUNKED_N`` scales the base stream length of every arm
(default 1_000_000; CI uses a smaller value for runtime).
"""

from __future__ import annotations

import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

import numpy as np

JSON_PATH = Path(__file__).resolve().parent.parent / "BENCH_chunked.json"
CHILD_FLAG = "--child"  # internal: one isolated (mode, n, chunk) point

UNIVERSE = 8192
PUSH = 4096                  # stream granularity fed to the engine
CHUNK_SWEEP = (4096, 32768, 131072)
RSS_GROWTH_HEADROOM = 1.35   # chunked peak RSS from n to 4n
THROUGHPUT_FLOOR = 10.0      # batch may be at most this many x faster

WIDE_UNIVERSE = 65536        # the wide arm: a tenant-shaped stream
WIDE_PUSH = 20000
WIDE_QUERY_EVERY = 3         # a curve() query after every third push
WIDE_CHUNKS = (4096, 32768)
AMPLIFICATION_CAP = 2.0      # accesses sorted per access pushed
LEVEL_LOOP_PER_ACCESS = 1.0  # level-loop accesses per access pushed

SOLVE_TRACES = ("zipf", "uniform-100k", "uniform-n")  # the solve arm
SOLVE_ZIPF_UNIVERSE = 26800
SOLVE_UNIFORM_UNIVERSE = 100_000

TENANTS = 16                 # the tenants arm: exact tenants, one thread
TENANT_UNIVERSE = 65536
TENANT_ALPHA = 1.1
TENANT_PUSH = 20000
TENANT_ROUNDS = 10
TENANT_QUERY_EVERY = 3       # every tenant queried after every third round


def chunked_n() -> int:
    return int(os.environ.get("REPRO_BENCH_CHUNKED_N", 1_000_000))


def _push_stream(n: int, seed: int = 23):
    """The benchmark stream, generated push by push (never materialized)."""
    rng = np.random.default_rng(seed)
    for start in range(0, n, PUSH):
        yield rng.integers(0, UNIVERSE, size=min(PUSH, n - start))


def _wide_stream(n: int, seed: int = 29):
    """The wide arm's Zipf-0.8 stream, push by push."""
    from repro.workloads import zipfian_trace

    for i, start in enumerate(range(0, n, WIDE_PUSH)):
        yield zipfian_trace(min(WIDE_PUSH, n - start), WIDE_UNIVERSE, 0.8,
                            seed=seed + i)


def _tenant_push(tenant: int, round_: int):
    """One tenant's push in one round of the tenants arm."""
    from repro.workloads import zipfian_trace

    return zipfian_trace(TENANT_PUSH, TENANT_UNIVERSE, TENANT_ALPHA,
                         seed=1000 * tenant + round_)


def _tenants_child() -> Dict[str, float]:
    """The tenants arm: push, query, then check every curve."""
    from repro.core.engine import iaf_hit_rate_curve, thread_workspace
    from repro.tenants import TenantRegistry

    registry = TenantRegistry()
    ids = [f"t{i}" for i in range(TENANTS)]
    for tenant_id in ids:
        registry.register(tenant_id)
    t0 = time.perf_counter()
    for round_ in range(1, TENANT_ROUNDS + 1):
        for i, tenant_id in enumerate(ids):
            registry.push(tenant_id, _tenant_push(i, round_))
        if round_ % TENANT_QUERY_EVERY == 0:
            for tenant_id in ids:
                registry.curve(tenant_id)
    curves = [registry.curve(tenant_id).exact_curve for tenant_id in ids]
    seconds = time.perf_counter() - t0
    # Memory before the reference solves, which are not the arm's.
    rss_kb = float(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    workspace_nbytes = float(thread_workspace().nbytes)
    mismatched = 0
    for i, curve in enumerate(curves):
        ref = iaf_hit_rate_curve(np.concatenate(
            [_tenant_push(i, r) for r in range(1, TENANT_ROUNDS + 1)]
        ))
        if curve is None or _checksum(curve) != _checksum(ref) or not \
                np.array_equal(curve.hits_cumulative, ref.hits_cumulative):
            mismatched += 1
    return {
        "rss_kb": rss_kb,
        "seconds": seconds,
        "state_nbytes": float(registry.state_nbytes),
        "workspace_nbytes": workspace_nbytes,
        "mismatched_curves": float(mismatched),
    }


def _solve_trace(kind: str, n: int, seed: int = 31) -> np.ndarray:
    """The solve arm's trace of shape ``kind``."""
    from repro.workloads import zipfian_trace

    if kind == "zipf":
        return zipfian_trace(n, SOLVE_ZIPF_UNIVERSE, 0.8, seed=seed)
    universe = SOLVE_UNIFORM_UNIVERSE if kind == "uniform-100k" else n
    return np.random.default_rng(seed).integers(0, universe, size=n)


def _solve_child(mode: str, n: int) -> Dict[str, float]:
    """One side of the solve arm: ``solve`` or ``oneshot`` on a trace."""
    import repro
    from repro.core.api import runs_chunked
    from repro.core.engine import iaf_hit_rate_curve

    side, kind = mode.split(":")
    trace = _solve_trace(kind, n)
    t0 = time.process_time()
    if side == "solve":
        curve = repro.solve(trace).curve
    else:
        curve = iaf_hit_rate_curve(trace)
    return {
        "rss_kb": float(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss),
        "cpu_seconds": time.process_time() - t0,
        "checksum": float(_checksum(curve)),
        "chunked": float(side == "solve"
                         and runs_chunked(repro.SolveConfig(), n)),
    }


def _checksum(curve) -> int:
    return int(curve.hits_cumulative.sum()) + curve.total_accesses * 10**9


def _child(mode: str, n: int, chunk: int) -> Dict[str, float]:
    if mode == "tenants":
        return _tenants_child()
    if ":" in mode:
        return _solve_child(mode, n)
    stream = _wide_stream(n) if mode.startswith("wide") else _push_stream(n)
    extra: Dict[str, float] = {}
    t0 = time.perf_counter()
    if mode in ("batch", "wide-batch"):
        from repro.core.engine import iaf_hit_rate_curve

        trace = np.concatenate(list(stream))
        curve = iaf_hit_rate_curve(trace)
        state = int(trace.nbytes)
    elif mode == "chunked":
        from repro.core.chunked import ChunkedIAF

        engine = ChunkedIAF(chunk)
        for batch in stream:
            engine.push(batch)
        curve = engine.curve()
        state = engine.state_nbytes  # living carry + running curve
    else:
        from repro.core.chunked import ChunkedIAF
        from repro.obs import tracing
        from repro.qa import count_sorts

        engine = ChunkedIAF(chunk)
        with tracing() as tracer, count_sorts() as sorted_sizes:
            for i, batch in enumerate(stream, 1):
                engine.push(batch)
                if i % WIDE_QUERY_EVERY == 0:
                    engine.curve()
            curve = engine.curve()
        state = engine.state_nbytes
        spans = [e.attrs for e in tracer.events()
                 if e.name == "chunked.chunk"]
        pushed = sum(a["n"] for a in spans)
        looped = sum(e.attrs["n"] for e in tracer.events()
                     if e.name == "iaf.solve")
        extra = {
            "chunks": float(len(spans)),
            "amplification": (
                sum(a["referenced"] + a["n"] for a in spans) / pushed
                if pushed else 0.0
            ),
            "sorts_per_access": (
                sum(sorted_sizes) / pushed if pushed else 0.0
            ),
            "level_loop_per_access": looped / pushed if pushed else 0.0,
        }
    seconds = time.perf_counter() - t0
    return {
        "rss_kb": float(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss),
        "seconds": seconds,
        "state_nbytes": float(state),
        "checksum": float(_checksum(curve)),
        **extra,
    }


def _run_point(mode: str, n: int, chunk: int) -> Dict[str, float]:
    import repro

    env = dict(os.environ)
    src_dir = str(Path(repro.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src_dir, env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()),
         CHILD_FLAG, mode, str(n), str(chunk)],
        capture_output=True, text=True, check=True, env=env,
    )
    return json.loads(proc.stdout.strip())


def measure(n: int) -> Dict[str, object]:
    from repro.core.api import CHUNKED_THRESHOLD

    default_chunk = 32768
    batch_1 = _run_point("batch", n, 0)
    batch_4 = _run_point("batch", 4 * n, 0)
    chunked_1 = _run_point("chunked", n, default_chunk)
    chunked_4 = _run_point("chunked", 4 * n, default_chunk)
    sweep: List[Dict[str, float]] = []
    for chunk in CHUNK_SWEEP:
        point = _run_point("chunked", n, chunk)
        point["chunk"] = chunk
        sweep.append(point)
    wide: List[Dict[str, float]] = []
    for chunk in WIDE_CHUNKS:
        point = _run_point("wide", n, chunk)
        point["chunk"] = chunk
        wide.append(point)
    solves = [
        {"trace": kind, **{side: _run_point(f"{side}:{kind}", n, 0)
                           for side in ("solve", "oneshot")}}
        for kind in SOLVE_TRACES
    ]
    return {
        "n": n,
        "universe": UNIVERSE,
        "default_chunk": default_chunk,
        "batch": {"n1": batch_1, "n4": batch_4},
        "chunked": {"n1": chunked_1, "n4": chunked_4},
        "chunk_sweep": sweep,
        "wide": {
            "universe": WIDE_UNIVERSE,
            "push": WIDE_PUSH,
            "query_every": WIDE_QUERY_EVERY,
            "batch": _run_point("wide-batch", n, 0),
            "points": wide,
        },
        "solve": {
            "threshold": CHUNKED_THRESHOLD,
            "zipf_universe": SOLVE_ZIPF_UNIVERSE,
            "uniform_universe": SOLVE_UNIFORM_UNIVERSE,
            "points": solves,
        },
        "tenants": {
            "tenants": TENANTS,
            "universe": TENANT_UNIVERSE,
            "alpha": TENANT_ALPHA,
            "push": TENANT_PUSH,
            "rounds": TENANT_ROUNDS,
            "query_every": TENANT_QUERY_EVERY,
            **_run_point("tenants", 0, 0),
        },
        "batch_rss_growth": batch_4["rss_kb"] / batch_1["rss_kb"],
        "chunked_rss_growth": chunked_4["rss_kb"] / chunked_1["rss_kb"],
        "throughput_ratio": (
            (n / chunked_1["seconds"]) / (n / batch_1["seconds"])
            if chunked_1["seconds"] and batch_1["seconds"] else 0.0
        ),
    }


def verify(results: Dict[str, object]) -> List[str]:
    """Every regression-gate violation, as human-readable strings."""
    problems: List[str] = []
    batch, chunked = results["batch"], results["chunked"]
    for point in (chunked["n1"], *results["chunk_sweep"]):
        if point["checksum"] != batch["n1"]["checksum"]:
            problems.append(
                "chunked curve diverges from the batch engine at n="
                f"{results['n']}"
            )
            break
    if chunked["n4"]["checksum"] != batch["n4"]["checksum"]:
        problems.append(
            f"chunked curve diverges from batch at n={4 * results['n']}"
        )
    if results["chunked_rss_growth"] > RSS_GROWTH_HEADROOM:
        problems.append(
            f"chunked peak RSS grew {results['chunked_rss_growth']:.2f}x "
            f"from n to 4n (> {RSS_GROWTH_HEADROOM}x): the working set "
            "is no longer O(u + chunk)"
        )
    if chunked["n4"]["state_nbytes"] > chunked["n1"]["state_nbytes"]:
        problems.append(
            "carried state_nbytes grew with n after universe saturation"
        )
    if results["throughput_ratio"] < 1.0 / THROUGHPUT_FLOOR:
        problems.append(
            f"chunked throughput is {1 / results['throughput_ratio']:.1f}x "
            f"slower than batch (floor: {THROUGHPUT_FLOOR}x)"
        )
    wide = results["wide"]
    for point in wide["points"]:
        if point["checksum"] != wide["batch"]["checksum"]:
            problems.append(
                f"wide-universe curve at chunk {point['chunk']} diverges "
                "from the batch engine"
            )
        if point["amplification"] > AMPLIFICATION_CAP:
            problems.append(
                f"wide-universe chunk {point['chunk']} solved "
                f"{point['amplification']:.2f} accesses per access pushed "
                f"(cap {AMPLIFICATION_CAP})"
            )
        if point["sorts_per_access"] != point["amplification"]:
            problems.append(
                f"wide-universe chunk {point['chunk']} sorted "
                f"{point['sorts_per_access']:.4f} accesses per access "
                f"pushed, not one sort per chunk "
                f"({point['amplification']:.4f})"
            )
        if point["level_loop_per_access"] != LEVEL_LOOP_PER_ACCESS:
            problems.append(
                f"wide-universe chunk {point['chunk']} ran "
                f"{point['level_loop_per_access']:.4f} level-loop accesses "
                f"per access pushed, not {LEVEL_LOOP_PER_ACCESS} (the "
                f"level loop solves the chunk alone)"
            )
    for point in results["solve"]["points"]:
        if point["solve"]["checksum"] != point["oneshot"]["checksum"]:
            problems.append(
                f"solve() on the {point['trace']} trace diverges from the "
                "one-shot loop"
            )
    mismatched = int(results["tenants"]["mismatched_curves"])
    if mismatched:
        problems.append(
            f"{mismatched} of {TENANTS} tenant curves diverge from the "
            "batch engine"
        )
    return problems


def write_json(results: Dict[str, object]) -> None:
    from _common import provenance

    record = dict(results, provenance=provenance())
    JSON_PATH.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")


def _render(results: Dict[str, object]) -> str:
    from repro.analysis.report import render_table

    batch, chunked = results["batch"], results["chunked"]
    n = results["n"]
    rows = [
        ["batch", f"{n:,}", f"{batch['n1']['rss_kb'] / 1024:.0f}",
         f"{batch['n1']['seconds']:.2f}"],
        ["batch", f"{4 * n:,}", f"{batch['n4']['rss_kb'] / 1024:.0f}",
         f"{batch['n4']['seconds']:.2f}"],
        ["chunked", f"{n:,}", f"{chunked['n1']['rss_kb'] / 1024:.0f}",
         f"{chunked['n1']['seconds']:.2f}"],
        ["chunked", f"{4 * n:,}", f"{chunked['n4']['rss_kb'] / 1024:.0f}",
         f"{chunked['n4']['seconds']:.2f}"],
    ] + [
        [f"chunked c={p['chunk']:,}", f"{n:,}",
         f"{p['rss_kb'] / 1024:.0f}", f"{p['seconds']:.2f}"]
        for p in results["chunk_sweep"]
    ]
    narrow = render_table(
        f"Chunked vs batch (u={results['universe']:,}, "
        f"default chunk={results['default_chunk']:,})",
        ["engine", "accesses", "peak RSS (MB)", "wall (s)"],
        rows,
        note=(
            f"batch RSS growth n→4n: {results['batch_rss_growth']:.2f}x; "
            f"chunked: {results['chunked_rss_growth']:.2f}x; "
            f"results recorded in {JSON_PATH.name}"
        ),
    )
    wide = results["wide"]
    wide_rows = [
        ["batch", f"{n:,}", f"{wide['batch']['rss_kb'] / 1024:.0f}",
         f"{wide['batch']['seconds']:.2f}", "-", "-", "-"],
    ] + [
        [f"chunked c={p['chunk']:,}", f"{n:,}",
         f"{p['rss_kb'] / 1024:.0f}", f"{p['seconds']:.2f}",
         f"{p['amplification']:.2f}", f"{p['sorts_per_access']:.2f}",
         f"{p['level_loop_per_access']:.2f}"]
        for p in wide["points"]
    ]
    tenants = results["tenants"]
    tenant_table = render_table(
        f"{tenants['tenants']} exact tenants on one thread "
        f"(u={tenants['universe']:,}, {tenants['rounds']} rounds of "
        f"{tenants['push']:,}-access pushes, queried every "
        f"{tenants['query_every']} rounds)",
        ["peak RSS (MB)", "Σ state_nbytes (MB)", "workspace cap (MB)",
         "wall (s)", "curves off"],
        [[f"{tenants['rss_kb'] / 1024:.0f}",
          f"{tenants['state_nbytes'] / 2**20:.1f}",
          f"{tenants['workspace_nbytes'] / 2**20:.1f}",
          f"{tenants['seconds']:.2f}",
          f"{tenants['mismatched_curves']:.0f}"]],
    )
    solve = results["solve"]
    solve_rows = [
        [p["trace"], f"{n:,}",
         f"{p['solve']['cpu_seconds']:.2f}",
         f"{p['oneshot']['cpu_seconds']:.2f}",
         f"{p['solve']['cpu_seconds'] / p['oneshot']['cpu_seconds']:.2f}"
         if p["oneshot"]["cpu_seconds"] else "-",
         f"{p['solve']['rss_kb'] / 1024:.0f}",
         f"{p['oneshot']['rss_kb'] / 1024:.0f}",
         "yes" if p["solve"]["chunked"] else "no"]
        for p in solve["points"]
    ]
    solve_table = render_table(
        f"solve() vs the one-shot loop (rule from "
        f"{solve['threshold']:,} accesses; Zipf-0.8 over "
        f"u={solve['zipf_universe']:,}, uniform over "
        f"u={solve['uniform_universe']:,} and u=n)",
        ["trace", "accesses", "solve CPU (s)", "one-shot CPU (s)",
         "ratio", "solve RSS (MB)", "one-shot RSS (MB)", "chunked"],
        solve_rows,
    )
    return narrow + "\n" + tenant_table + "\n" + solve_table + "\n" + \
        render_table(
            f"Wide universe (u={wide['universe']:,}, "
            f"{wide['push']:,}-access pushes, a query every "
            f"{wide['query_every']} pushes)",
            ["engine", "accesses", "peak RSS (MB)", "wall (s)",
             "amplification", "sorted/pushed", "looped/pushed"],
            wide_rows,
            note=f"amplification = Σ(referenced + n) / Σn over the chunk "
                 f"spans; cap {AMPLIFICATION_CAP}; sorted/pushed = "
                 f"Σ(accesses sorted) / Σn must equal it (one sort per "
                 f"chunk); looped/pushed = Σn over the iaf.solve spans / "
                 f"Σn must be {LEVEL_LOOP_PER_ACCESS}",
        )


# ---------------------------------------------------------------------------
# pytest entry points (same harness style as the sibling bench modules)
# ---------------------------------------------------------------------------

def test_chunked_memory_plateau_and_throughput(benchmark):
    results = benchmark.pedantic(
        lambda: measure(chunked_n()), rounds=1, iterations=1
    )
    write_json(results)
    from _common import write_result

    write_result("chunked", _render(results))
    problems = verify(results)
    assert not problems, "\n".join(problems)


def main() -> int:
    results = measure(chunked_n())
    write_json(results)
    print(_render(results))
    problems = verify(results)
    for problem in problems:
        print(f"FAIL: {problem}", file=sys.stderr)
    if problems:
        return 1
    print(
        f"ok: chunked RSS growth n→4n {results['chunked_rss_growth']:.2f}x "
        f"(batch {results['batch_rss_growth']:.2f}x); throughput "
        f"{results['throughput_ratio']:.2f}x of batch; wide amplification "
        "= sorted per pushed "
        + ", ".join(f"{p['amplification']:.2f}"
                    for p in results["wide"]["points"])
        + "; level loop per pushed "
        + ", ".join(f"{p['level_loop_per_access']:.2f}"
                    for p in results["wide"]["points"])
        + "; solve() curves equal the one-shot loop's"
    )
    return 0


if __name__ == "__main__":
    if len(sys.argv) == 5 and sys.argv[1] == CHILD_FLAG:
        print(json.dumps(_child(sys.argv[2], int(sys.argv[3]),
                                int(sys.argv[4]))))
        sys.exit(0)
    sys.exit(main())
