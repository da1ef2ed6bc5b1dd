"""Public façade: one entry point per question a user actually asks.

``hit_rate_curve`` — "what would the LRU hit rate have been at every
cache size?" — dispatches across every implementation in the package, so
examples, tests, and benchmarks all drive the same surface:

==================  ========================================================
``algorithm=``      implementation
==================  ========================================================
``"iaf"``           vectorized INCREMENT-AND-FREEZE (default)
``"bounded-iaf"``   BOUNDED-IAF (Section 7; honors ``max_cache_size``)
``"chunked-iaf"``   incremental exact IAF with living-request carryover
``"parallel-iaf"``  thread-pool IAF (honors ``workers``)
``"process-iaf"``   IAF with its split parts on the process pool (``workers``)
``"external-iaf"``  EXTERNAL-IAF against a simulated block device
``"reference"``     the paper-faithful pure-Python recursion
``"ost"``           Bennett–Kruskal on a weight-balanced order-statistic tree
``"splay"``         Bennett–Kruskal on a splay tree (PARDA's serial core)
``"parda"``         PARDA chunked-parallel (honors ``workers``)
``"mattson"``       the 1970 O(n·s) stack algorithm
``"fenwick"``       Bennett–Kruskal on a binary indexed tree over time
==================  ========================================================

(The sampling heuristic lives apart — see
:func:`repro.baselines.shards.shards_hit_rate_curve` — because its output
is an estimate, not a :class:`~repro.core.hitrate.HitRateCurve`.)

**Request API.**  The canonical way to select an algorithm and its knobs
is a frozen :class:`~repro.core.config.SolveConfig`::

    from repro import SolveConfig, hit_rate_curve, solve

    cfg = SolveConfig(algorithm="parallel-iaf", workers=4)
    curve = hit_rate_curve(trace, cfg)
    result = solve(trace, cfg)          # SolveResult: curve+stats+timing

:func:`solve` / :func:`solve_batch` are the single execution path the
CLI and the :mod:`repro.service` serving layer share.  They also own
the one size rule: an ``iaf`` solve of at least
:data:`CHUNKED_THRESHOLD` accesses runs on the chunked engine
(:func:`runs_chunked`).  The keyword style of 1.x
(``hit_rate_curve(trace, algorithm=..., workers=...)``) was removed in
2.0: such calls raise :class:`TypeError`.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .._typing import TraceLike, as_trace
from ..errors import ReproError
from ..extmem.blockdevice import MemoryConfig
from .bounded import bounded_iaf
from .chunked import DEFAULT_CHUNK_SIZE, chunked_iaf
from .config import ALGORITHMS, ENGINE_ALGORITHMS, SolveConfig, SolveResult
from .engine import (
    EngineStats,
    iaf_distances,
    iaf_distances_batch,
    postprocess_curve,
    preprocess_prev,
)
from .external import external_iaf_distances
from .hitrate import HitRateCurve, forward_from_backward
from .prevnext import prev_next_arrays
from .reference import reference_distances

# ---------------------------------------------------------------------------
# The unified execution path
# ---------------------------------------------------------------------------

#: Algorithms whose distances come from the engine's op sequence: the
#: trace is sorted once, and that ``prev`` feeds both ops and curve.
_ONE_SORT_ALGORITHMS = ("iaf", "parallel-iaf", "process-iaf",
                        "external-iaf")

#: Algorithms that are one ``iaf_distances`` solve, told apart only by
#: where the level loop's split parts run (see :func:`_parallelism`).
_LEVEL_LOOP_ALGORITHMS = ("iaf", "parallel-iaf", "process-iaf")

#: Trace length from which an ``iaf`` solve runs on the chunked engine
#: (Section 7's living-request carry) at its default chunk: O(u + chunk)
#: memory instead of O(n), and the same curve bit for bit.  A chunk's
#: level loop solves the chunk alone, so from a few chunks on the
#: chunked path takes about as much CPU as the one-shot loop, or less.
CHUNKED_THRESHOLD = 4 * DEFAULT_CHUNK_SIZE


def runs_chunked(cfg: SolveConfig, n: int) -> bool:
    """Whether :func:`solve` runs an ``n``-access solve under ``cfg``
    on the chunked engine: ``iaf`` only, from :data:`CHUNKED_THRESHOLD`.

    The other level-loop algorithms keep the one-shot loop: a caller who
    asks for threads or processes gets them.
    """
    return cfg.algorithm == "iaf" and n >= CHUNKED_THRESHOLD


def _parallelism(cfg: SolveConfig) -> Dict[str, Any]:
    """The ``workers``/``executor`` keywords of ``cfg``'s engine solve.

    ``iaf`` runs one worker.  ``parallel-iaf`` splits onto threads.
    ``process-iaf`` splits onto the shared process pool, or onto threads
    when the platform has no shared memory (``default_executor`` is then
    ``None``); with one worker there is no split, so no pool is built.
    """
    if cfg.algorithm == "parallel-iaf":
        return {"workers": cfg.workers}
    if cfg.algorithm == "process-iaf" and cfg.workers > 1:
        from ..parallel_exec import default_executor

        return {"workers": cfg.workers,
                "executor": default_executor(cfg.workers)}
    return {}


def solve(
    trace: TraceLike,
    config: Optional[SolveConfig] = None,
    *,
    stats: Optional[EngineStats] = None,
) -> SolveResult:
    """Solve one trace under ``config``; the single execution path.

    Returns a :class:`~repro.core.config.SolveResult` carrying the
    curve, the backward distance vector (when the algorithm materializes
    one), the solve's instrumentation, and wall time.  An ``iaf`` trace
    of at least :data:`CHUNKED_THRESHOLD` accesses is solved by
    :func:`~repro.core.chunked.chunked_iaf` at its default chunk
    (:func:`runs_chunked`): same curve, O(u + chunk) memory, no
    ``distances``; the result keeps ``config``.  ``stats`` lets a
    caller supply its own :class:`EngineStats` accumulator (the engine
    algorithms allocate one otherwise); the same object ends up at
    ``result.stats`` and ``result.curve.stats``.
    """
    cfg = config if config is not None else SolveConfig()
    t0 = time.perf_counter()
    curve, distances, stats_obj = _solve_dispatch(trace, cfg, stats)
    curve = curve.with_stats(stats_obj) if stats_obj is not None else curve
    # bounded-iaf and parda produce their (already truncated) curve
    # themselves; everything else honors max_cache_size by post-filtering.
    if (
        cfg.max_cache_size is not None
        and cfg.algorithm not in ("bounded-iaf", "parda")
        and curve.truncated_at is None
    ):
        curve = _truncate(curve, cfg.max_cache_size)
    return SolveResult(
        curve=curve,
        config=cfg,
        stats=stats_obj,
        distances=distances,
        wall_seconds=time.perf_counter() - t0,
    )


def _solve_dispatch(
    trace: TraceLike,
    cfg: SolveConfig,
    stats: Optional[EngineStats],
) -> Tuple[HitRateCurve, Optional[np.ndarray], Optional[Any]]:
    """Dispatch one solve; returns ``(curve, distances, stats)``."""
    algorithm = cfg.algorithm
    # cfg.dtype pins the engine's width; None certifies it per solve.
    dtype = cfg.dtype
    arr = as_trace(trace, dtype=dtype)
    if stats is None and algorithm in ENGINE_ALGORITHMS:
        stats = EngineStats()
    if algorithm == "chunked-iaf" or runs_chunked(cfg, arr.size):
        # Only chunked-iaf reads chunk_size; the size rule's iaf solves
        # run at the default chunk.
        chunk = cfg.chunk_size if algorithm == "chunked-iaf" else None
        res = chunked_iaf(arr, chunk, dtype=dtype, stats=stats,
                          engine_backend=cfg.engine_backend)
        return res.curve, None, stats
    # The solve's one sort: its prev builds the ops and then picks the
    # distances the curve counts.
    prev = (preprocess_prev(arr, engine_backend=cfg.engine_backend)
            if algorithm in _ONE_SORT_ALGORITHMS else None)
    if algorithm in _LEVEL_LOOP_ALGORITHMS:
        if algorithm == "process-iaf":
            stats = None  # executor workers keep no stats
        d = iaf_distances(arr, dtype=dtype, stats=stats,
                          engine_backend=cfg.engine_backend, prev=prev,
                          **_parallelism(cfg))
        return postprocess_curve(d, prev), d, stats
    if algorithm == "bounded-iaf":
        res = bounded_iaf(arr, cfg.max_cache_size, dtype=dtype, stats=stats,
                          engine_backend=cfg.engine_backend)
        return res.curve, None, stats
    if algorithm == "external-iaf":
        mem = cfg.memory_config or MemoryConfig(
            memory_items=65536, block_items=1024
        )
        d, report = external_iaf_distances(
            arr, mem, dtype=dtype, engine_backend=cfg.engine_backend,
            prev=prev,
        )
        curve = postprocess_curve(d, prev)
        report.curve = curve
        return curve, d, report.stats
    if algorithm == "reference":
        d = reference_distances(arr)
        return postprocess_curve(d, prev_next_arrays(arr)[0]), d, None
    if algorithm in ("ost", "splay", "mattson", "parda", "fenwick"):
        from ..baselines import baseline_hit_rate_curve

        curve = baseline_hit_rate_curve(
            arr, algorithm, max_cache_size=cfg.max_cache_size,
            workers=cfg.workers,
        )
        return curve, None, None
    raise ReproError(
        f"unknown algorithm {algorithm!r}; choose from {ALGORITHMS}"
    )


def solve_batch(
    traces: Sequence[TraceLike],
    config: Optional[SolveConfig] = None,
    *,
    stats: Optional[EngineStats] = None,
) -> List[SolveResult]:
    """Solve many traces under one config; coalesce where the engine can.

    When ``config.batchable`` (``"iaf"``, ``"parallel-iaf"``) the traces
    are seeded into **one** batched level loop — identical curves to a
    per-trace loop, but every vectorized pass is shared across the batch
    (the serving-throughput form; see
    :func:`repro.core.engine.iaf_hit_rate_curves_batch`).  A member that
    :func:`runs_chunked` is solved alone, as :func:`solve` solves it.
    Other algorithms fall back to a per-trace loop for interface parity.
    Each returned :class:`SolveResult` of a coalesced solve shares the
    batch's ``stats`` and reports the batch's wall time, with
    ``batched=True``.
    """
    cfg = config if config is not None else SolveConfig()
    if not cfg.batchable:
        return [solve(t, cfg) for t in traces]
    t0 = time.perf_counter()
    arrs = [as_trace(t, dtype=cfg.dtype) for t in traces]
    results: List[Optional[SolveResult]] = [None] * len(arrs)
    small = [i for i, a in enumerate(arrs) if not runs_chunked(cfg, a.size)]
    if small:
        batch_stats = stats if stats is not None else EngineStats()
        prevs = [preprocess_prev(arrs[i], engine_backend=cfg.engine_backend)
                 for i in small]
        distances = iaf_distances_batch(
            [arrs[i] for i in small], dtype=cfg.dtype, stats=batch_stats,
            engine_backend=cfg.engine_backend, prevs=prevs,
            **_parallelism(cfg),
        )
        wall = time.perf_counter() - t0
        for i, d, prev in zip(small, distances, prevs):
            curve = postprocess_curve(d, prev).with_stats(batch_stats)
            if cfg.max_cache_size is not None:
                curve = _truncate(curve, cfg.max_cache_size)
            results[i] = SolveResult(
                curve=curve, config=cfg, stats=batch_stats, distances=d,
                wall_seconds=wall, batched=True,
            )
    return [res if res is not None else solve(arr, cfg, stats=stats)
            for arr, res in zip(arrs, results)]


# ---------------------------------------------------------------------------
# The classic façade
# ---------------------------------------------------------------------------


def hit_rate_curve(
    trace: TraceLike,
    config: Optional[SolveConfig] = None,
    *,
    return_stats: bool = False,
):
    """Exact LRU hit-rate curve of ``trace``.

    ``config`` selects the implementation and its knobs (see
    :class:`~repro.core.config.SolveConfig`); with ``return_stats=True``
    the full :class:`~repro.core.config.SolveResult` is returned instead
    of the bare curve.
    """
    result = solve(trace, config)
    return result if return_stats else result.curve


def stack_distances(
    trace: TraceLike,
    config: Optional[SolveConfig] = None,
) -> np.ndarray:
    """Forward LRU stack distance of every access (0 = first occurrence).

    ``out[i] <= k`` and nonzero exactly when access ``i`` hits an LRU
    cache of size ``k``.  Only the distance-materializing algorithms
    (``iaf``, ``parallel-iaf``, ``process-iaf``, ``reference``) are
    supported.
    """
    cfg = config if config is not None else SolveConfig()
    if cfg.algorithm not in (*_LEVEL_LOOP_ALGORITHMS, "reference"):
        raise ReproError(
            f"stack_distances supports iaf/parallel-iaf/process-iaf/"
            f"reference, got {cfg.algorithm!r}"
        )
    arr = as_trace(trace, dtype=cfg.dtype)
    prev, _ = prev_next_arrays(arr, engine_backend=cfg.engine_backend)
    if cfg.algorithm == "reference":
        d = reference_distances(arr)
    else:
        d = iaf_distances(arr, dtype=cfg.dtype,
                          engine_backend=cfg.engine_backend, prev=prev,
                          **_parallelism(cfg))
    return forward_from_backward(d, prev)


def hit_rate_curves_batch(
    traces: Sequence[TraceLike],
    config: Optional[SolveConfig] = None,
    *,
    return_stats: bool = False,
):
    """Exact LRU hit-rate curves of many traces at once.

    One coalesced engine solve where possible (see :func:`solve_batch`);
    with ``return_stats=True`` the list holds full
    :class:`~repro.core.config.SolveResult` objects instead of curves.
    """
    results = solve_batch(traces, config)
    return results if return_stats else [r.curve for r in results]


def _truncate(curve: HitRateCurve, k: int) -> HitRateCurve:
    """Cut a full curve down to its first ``k`` sizes.

    Metadata is preserved: the ``stats`` linkage rides along, and a
    curve already truncated at or below ``k`` is returned unchanged
    (its sizes past its own bound are *unknown*, so re-stamping it as
    ``truncated_at=k`` would claim knowledge the solve never had).
    """
    if k < 1:
        raise ReproError(f"max_cache_size must be >= 1, got {k}")
    if curve.truncated_at is not None and curve.truncated_at <= k:
        return curve
    return HitRateCurve(
        hits_cumulative=curve.hits_cumulative[:k],
        total_accesses=curve.total_accesses,
        truncated_at=k,
        stats=curve.stats,
    )
