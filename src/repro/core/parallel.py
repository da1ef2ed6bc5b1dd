"""PARALLEL-INCREMENT-AND-FREEZE (Sections 4 and 6).

Two layers of parallelism, mirroring the paper:

* **Subtree parallelism** (the Θ(log n) form of Theorem 4.3, which the
  paper's implementation uses): run the level-synchronous engine until
  enough independent subproblems exist, then solve disjoint groups of
  subproblems on a thread pool.  Groups write to disjoint slices of the
  output array, and the heavy numpy kernels release the GIL, so this is
  real shared-memory parallelism — on hardware with one core it still
  exercises the full code path.
* **Intra-partition parallelism** (the O(log² n)-span form of Theorem
  6.2): the engine's partition step is already expressed as maps and
  scans — the Lemma 6.1 cluster-sum — so its span under the CREW PRAM
  model is O(log n) per level.  :class:`~repro.core.engine.EngineStats`
  records both span accountings; :func:`measure_parallel_cost` exposes
  them for the Figure-2 speedup model.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from .._typing import DEFAULT_DTYPE, TraceLike, as_trace
from ..errors import CapacityError
from ..obs import NULL_SPAN, get_tracer
from ..pram.model import SpeedupCurve
from ..pram.scheduler import Cost
from .engine import EngineStats, Segments, Workspace, _partition_level, \
    _partition_level_compiled, _partition_level_fused, _solve_leaves, \
    batch_segments, resolve_engine_backend, solve_prepost_arrays
from .hitrate import HitRateCurve, curve_from_backward_distances
from .ops import prepost_sequence_arrays
from .prevnext import prev_next_arrays


def _split_segments(seg: Segments, groups: int) -> List[Segments]:
    """Cut a segment batch into ≤ ``groups`` contiguous, op-balanced parts.

    Subproblems are independent, so any partition of the segment list is
    valid; contiguous cuts keep each part's op arrays as zero-copy views.
    """
    counts = seg.counts()
    total = int(counts.sum())
    if seg.n_segments == 0 or groups <= 1:
        return [seg]
    target = max(1, total // groups)
    parts: List[Segments] = []
    s_begin = 0
    acc = 0
    for s in range(seg.n_segments):
        acc += int(counts[s])
        last = s == seg.n_segments - 1
        if acc >= target or last:
            o_begin = int(seg.starts[s_begin])
            o_end = int(seg.starts[s + 1])
            parts.append(
                Segments(
                    kind=seg.kind[o_begin:o_end],
                    t=seg.t[o_begin:o_end],
                    r=seg.r[o_begin:o_end],
                    starts=(seg.starts[s_begin : s + 2] - o_begin).copy(),
                    lo=seg.lo[s_begin : s + 1],
                    hi=seg.hi[s_begin : s + 1],
                    w=None if seg.w is None else seg.w[o_begin:o_end],
                )
            )
            s_begin = s + 1
            acc = 0
            if len(parts) == groups - 1 and not last:
                # Everything remaining goes into the final part.
                o_begin = int(seg.starts[s_begin])
                parts.append(
                    Segments(
                        kind=seg.kind[o_begin:],
                        t=seg.t[o_begin:],
                        r=seg.r[o_begin:],
                        starts=(seg.starts[s_begin:] - o_begin).copy(),
                        lo=seg.lo[s_begin:],
                        hi=seg.hi[s_begin:],
                        w=None if seg.w is None else seg.w[o_begin:],
                    )
                )
                break
    return [p for p in parts if p.n_segments]


def _warmup_levels(
    seg: Segments,
    values: np.ndarray,
    workers: int,
    stats: Optional[EngineStats],
    engine_backend: Optional[str] = None,
) -> Optional[Segments]:
    """Serial warm-up: split until there are enough independent subtrees.

    Returns the segment batch ready for splitting, or ``None`` when the
    recursion bottomed out entirely during warm-up (tiny traces).
    """
    backend = resolve_engine_backend(engine_backend)
    # The one workspace outside repro.core.engine.thread_workspace: the
    # returned batch, and so every split part, is a view of this pool's
    # last level.  The executor's degrade rung solves parts on this very
    # thread, and that solve primes the thread's workspace; sharing it
    # would overwrite the part's own backing storage mid-solve.
    workspace: Optional[Workspace] = None
    level = 0
    while 0 < seg.n_segments < 4 * workers and workers > 1:
        if stats is not None:
            stats.record_level(seg, values.nbytes)
        leaf_mask = seg.lo == seg.hi
        if leaf_mask.any():
            consumed = _solve_leaves(seg, leaf_mask, values)
            if stats is not None:
                stats.work += consumed
        internal = ~leaf_mask
        if not internal.any():
            return None
        if backend == "naive":
            seg = _partition_level(seg, internal)
        else:
            if workspace is None:
                workspace = Workspace()
                workspace.prime(seg, backend=backend)
            seg = (
                _partition_level_compiled(seg, internal, workspace, level)
                if backend == "compiled"
                else _partition_level_fused(seg, internal, workspace, level)
            )
        level += 1
    return seg


def _merge_part_stats(
    stats: EngineStats, part_stats: List[EngineStats]
) -> None:
    """Fold per-part :class:`EngineStats` into the caller's accumulator.

    Work adds up; levels/spans take the critical path (the max over the
    concurrent parts); ``peak_level_ops``/``peak_bytes`` take the max; and
    ``ops_per_level`` sums elementwise by level, so the merged profile
    reads as if the levels had run level-synchronously across all parts.
    """
    for ps in part_stats:
        stats.work += ps.work
        stats.peak_level_ops = max(stats.peak_level_ops, ps.peak_level_ops)
        stats.peak_bytes = max(stats.peak_bytes, ps.peak_bytes)
    stats.levels += max((ps.levels for ps in part_stats), default=0)
    stats.span_basic += max((ps.span_basic for ps in part_stats), default=0.0)
    stats.span_parallel += max(
        (ps.span_parallel for ps in part_stats), default=0.0
    )
    depth = max((len(ps.ops_per_level) for ps in part_stats), default=0)
    for lvl in range(depth):
        stats.ops_per_level.append(
            sum(
                ps.ops_per_level[lvl]
                for ps in part_stats
                if lvl < len(ps.ops_per_level)
            )
        )


def _solve_split_threads(
    seg: Segments,
    values: np.ndarray,
    workers: int,
    stats: Optional[EngineStats],
    engine_backend: Optional[str] = None,
) -> None:
    """Split ``seg`` and solve the parts on a thread pool.

    With tracing enabled each part emits a ``parallel.worker`` span from
    its worker thread (wall ≫ cpu there means the part was GIL-bound —
    the Section-6 scaling diagnosis at a glance).
    """
    parts = _split_segments(seg, workers)
    part_stats = [EngineStats() for _ in parts]
    tracer = get_tracer()
    traced = tracer.enabled

    def run(i: int) -> None:
        part = parts[i]
        span = (
            tracer.span("parallel.worker", worker=i,
                        n_segments=part.n_segments, n_ops=part.n_ops)
            if traced
            else NULL_SPAN
        )
        with span:
            # Disjoint cell intervals per part -> disjoint writes to
            # `values`.
            solve_prepost_arrays(part, values, stats=part_stats[i],
                                 engine_backend=engine_backend)

    with ThreadPoolExecutor(max_workers=workers) as pool:
        list(pool.map(run, range(len(parts))))

    if stats is not None:
        span = (tracer.span("parallel.merge_stats", parts=len(parts))
                if traced else NULL_SPAN)
        with span:
            _merge_part_stats(stats, part_stats)


def parallel_iaf_distances(
    trace: TraceLike,
    *,
    workers: int = 1,
    dtype: "np.typing.DTypeLike" = DEFAULT_DTYPE,
    stats: Optional[EngineStats] = None,
    engine_backend: Optional[str] = None,
    prev: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Backward distance vector with subtree parallelism over ``workers``.

    Identical output to :func:`repro.core.engine.iaf_distances`; the first
    ``ceil(log2 workers)`` levels run serially (they are a vanishing
    fraction of the work), after which each thread owns a contiguous
    group of subproblems.  ``prev`` is the trace's, when the caller
    already sorted it (as in :func:`~repro.core.engine.iaf_distances`).
    """
    if workers < 1:
        raise CapacityError(f"workers must be >= 1, got {workers}")
    arr = as_trace(trace, dtype=dtype)
    n = arr.size
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    kind, t, r = prepost_sequence_arrays(arr, dtype=dtype, prev=prev)
    values = np.zeros(n + 1, dtype=np.int64)
    seg = Segments.single(kind, t, r, 0, n)
    _solve_seg_parallel(seg, values, workers, stats, engine_backend)
    return values[1:]


def _solve_seg_parallel(
    seg: Segments,
    values: np.ndarray,
    workers: int,
    stats: Optional[EngineStats],
    engine_backend: str,
) -> None:
    """Warm up, then split across threads (common tail of the variants)."""
    tracer = get_tracer()
    warm_span = (
        tracer.span("parallel.warmup", n_ops=seg.n_ops, workers=workers)
        if tracer.enabled
        else NULL_SPAN
    )
    with warm_span:
        seg = _warmup_levels(seg, values, workers, stats, engine_backend)
    if seg is None:
        return
    if workers == 1:
        solve_prepost_arrays(seg, values, stats=stats,
                             engine_backend=engine_backend)
        return
    _solve_split_threads(seg, values, workers, stats, engine_backend)


def parallel_iaf_hit_rate_curve(
    trace: TraceLike,
    *,
    workers: int = 1,
    dtype: "np.typing.DTypeLike" = DEFAULT_DTYPE,
    stats: Optional[EngineStats] = None,
    engine_backend: Optional[str] = None,
) -> HitRateCurve:
    """Full pipeline with parallel distance computation (one sort)."""
    arr = as_trace(trace, dtype=dtype)
    prev, _ = prev_next_arrays(arr, engine_backend=engine_backend)
    d = parallel_iaf_distances(arr, workers=workers, dtype=dtype,
                               stats=stats, engine_backend=engine_backend,
                               prev=prev)
    return curve_from_backward_distances(d, prev=prev)


def parallel_iaf_distances_batch(
    traces: "List[TraceLike]",
    *,
    workers: int = 1,
    dtype: "Optional[np.typing.DTypeLike]" = None,
    stats: Optional[EngineStats] = None,
    engine_backend: Optional[str] = None,
    prevs: "Optional[List[np.ndarray]]" = None,
) -> List[np.ndarray]:
    """Batched multi-trace solve with subtree parallelism.

    The batch roots are already ``k`` independent segments, so the
    subtree split applies from level 0 — with ``k >= 4 * workers`` there
    is no serial warm-up at all, each thread immediately owning a
    contiguous group of traces.  Output matches
    :func:`repro.core.engine.iaf_distances_batch` exactly, ``prevs``
    included.
    """
    if workers < 1:
        raise CapacityError(f"workers must be >= 1, got {workers}")
    arrs, seg, bases, total_cells = batch_segments(traces, dtype=dtype,
                                                   prevs=prevs)
    if not arrs:
        return []
    values = np.zeros(total_cells, dtype=np.int64)
    _solve_seg_parallel(seg, values, workers, stats, engine_backend)
    return [
        values[base + 1 : base + 1 + arr.size]
        for arr, base in zip(arrs, bases[:-1].tolist())
    ]


def parallel_iaf_hit_rate_curves_batch(
    traces: "List[TraceLike]",
    *,
    workers: int = 1,
    dtype: "Optional[np.typing.DTypeLike]" = None,
    stats: Optional[EngineStats] = None,
    engine_backend: Optional[str] = None,
) -> List[HitRateCurve]:
    """Batched curve requests with subtree parallelism (serving form)."""
    arrs = [as_trace(t, dtype=DEFAULT_DTYPE if dtype is None else dtype)
            for t in traces]
    prevs = [prev_next_arrays(a, engine_backend=engine_backend)[0]
             for a in arrs]
    distances = parallel_iaf_distances_batch(
        arrs, workers=workers, dtype=dtype, stats=stats,
        engine_backend=engine_backend, prevs=prevs,
    )
    return [curve_from_backward_distances(d, prev=prev)
            for d, prev in zip(distances, prevs)]


def _solve_split_processes(
    seg: Segments,
    values: np.ndarray,
    workers: int,
    engine_backend: Optional[str] = None,
    executor: "Optional[object]" = None,
) -> None:
    """Split ``seg`` and solve the parts across processes.

    Parts go through the persistent shared-memory executor
    (:mod:`repro.parallel_exec`): workers are already forked, the parts
    are published into the shared arena, and only descriptors cross the
    pipe.  When that pool cannot be built (no shared memory on the
    platform) the parts run on the thread dispatcher instead, which
    writes the same cells.
    """
    if executor is None:
        from ..parallel_exec import default_executor

        executor = default_executor(workers)
    if executor is None:
        _solve_split_threads(seg, values, workers, None, engine_backend)
        return
    executor.solve_parts(_split_segments(seg, workers), values,
                         engine_backend=engine_backend)


def _merge_part_values(
    values: np.ndarray, lo: np.ndarray, hi: np.ndarray, local: np.ndarray
) -> None:
    """Copy a remote part's cells back, one slice per contiguous run.

    Sorting the part's segment intervals by ``lo`` and splitting at
    coverage breaks turns the old per-segment Python loop into a handful
    of bulk copies, while never touching cells the part does not own —
    gaps (other parts' subtrees interleaved by the level ordering, or
    leaves solved and dropped during warm-up) keep their values.
    """
    if lo.size == 0:
        return
    base = int(lo.min())
    order = np.argsort(lo)
    lo_s = lo[order]
    hi_s = hi[order]
    breaks = np.flatnonzero(lo_s[1:] != hi_s[:-1] + 1) + 1
    run_lo = lo_s[np.concatenate([np.zeros(1, dtype=np.int64), breaks])]
    run_hi = hi_s[np.concatenate([breaks - 1, [lo_s.size - 1]])]
    for a, b in zip(run_lo.tolist(), run_hi.tolist()):
        values[a : b + 1] = local[a - base : b - base + 1]


def process_parallel_iaf_distances(
    trace: TraceLike,
    *,
    workers: int = 2,
    dtype: "np.typing.DTypeLike" = DEFAULT_DTYPE,
    engine_backend: Optional[str] = None,
    executor: "Optional[object]" = None,
    prev: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Backward distances with *process*-based parallelism.

    The thread-pool variant relies on numpy kernels releasing the GIL;
    this one sidesteps the GIL entirely: after the serial warm-up levels,
    each subtree group is dispatched to a worker process.  By default the
    parts go through the persistent shared-memory pool
    (:func:`repro.parallel_exec.default_executor` — forked once, reused
    across requests, descriptors only on the pipe); pass ``executor`` to
    pin a specific :class:`~repro.parallel_exec.ProcessExecutor`.

    Output is identical to :func:`repro.core.engine.iaf_distances`,
    which takes ``prev`` the same way.
    """
    if workers < 1:
        raise CapacityError(f"workers must be >= 1, got {workers}")
    arr = as_trace(trace, dtype=dtype)
    n = arr.size
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    kind, t, r = prepost_sequence_arrays(arr, dtype=dtype, prev=prev)
    values = np.zeros(n + 1, dtype=np.int64)
    seg = Segments.single(kind, t, r, 0, n)
    seg = _warmup_levels(seg, values, workers, None, engine_backend)
    if seg is None:
        return values[1:]
    if workers == 1 or seg.n_segments == 0:
        solve_prepost_arrays(seg, values, engine_backend=engine_backend)
        return values[1:]
    _solve_split_processes(seg, values, workers, engine_backend,
                           executor=executor)
    return values[1:]


def parallel_weighted_backward_distances(
    trace: TraceLike,
    sizes: "np.typing.ArrayLike",
    *,
    workers: int = 1,
    use_processes: bool = False,
    stats: Optional[EngineStats] = None,
    engine_backend: Optional[str] = None,
    executor: "Optional[object]" = None,
) -> np.ndarray:
    """Weighted (Section 9.1) backward distances with subtree parallelism.

    Identical output to
    :func:`repro.core.weighted.weighted_backward_distances`; the engine's
    ``w`` array is carried through the warm-up levels, the subtree split,
    and (with ``use_processes``) the shared-memory process dispatch.
    """
    from .weighted import _validate_sizes, weighted_prepost_arrays

    if workers < 1:
        raise CapacityError(f"workers must be >= 1, got {workers}")
    arr = as_trace(trace)
    s = _validate_sizes(arr, np.asarray(sizes))
    n = arr.size
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    kind, t, r, w = weighted_prepost_arrays(arr, s)
    values = np.zeros(n + 1, dtype=np.int64)
    seg = Segments.single(kind, t, r, 0, n, w=w)
    seg = _warmup_levels(seg, values, workers, stats, engine_backend)
    if seg is None:
        return values[1:]
    if workers == 1 or seg.n_segments == 0:
        solve_prepost_arrays(seg, values, stats=stats,
                             engine_backend=engine_backend)
        return values[1:]
    if use_processes:
        _solve_split_processes(seg, values, workers, engine_backend,
                               executor=executor)
    else:
        _solve_split_threads(seg, values, workers, stats, engine_backend)
    return values[1:]


@dataclass(frozen=True)
class ParallelCostReport:
    """Measured work/span of one run under both span accountings."""

    basic: Cost
    parallel: Cost

    def basic_speedups(self, processors: List[int]) -> SpeedupCurve:
        """Figure-2-style curve for basic IAF (Θ(log n) parallelism)."""
        return SpeedupCurve.from_cost("iaf", self.basic, processors)

    def parallel_speedups(self, processors: List[int]) -> SpeedupCurve:
        """Curve for PARALLEL-IAF (Θ(n/log n) parallelism)."""
        return SpeedupCurve.from_cost("parallel-iaf", self.parallel, processors)


def measure_parallel_cost(
    trace: TraceLike, *, dtype: "np.typing.DTypeLike" = DEFAULT_DTYPE
) -> ParallelCostReport:
    """Run the engine once, returning its PRAM costs for speedup modeling."""
    stats = EngineStats()
    from .engine import iaf_distances  # local import avoids cycle at module load

    iaf_distances(trace, dtype=dtype, stats=stats)
    return ParallelCostReport(
        basic=stats.basic_cost(), parallel=stats.parallel_cost()
    )
