"""BOUNDED-INCREMENT-AND-FREEZE (Section 7).

Computes the first ``k`` entries of the LRU hit-rate curve in
``O(n log k)`` time and ``O(k)`` memory by cutting the trace into
``Θ(k)``-sized chunks and running the core engine on ``Q̄_i · C_i`` for
each chunk ``C_i``, where ``Q̄_i`` holds the (up to) ``k`` most recently
last-accessed distinct addresses of the prefix before ``C_i`` — exactly
the state an LRU stack of depth ``k`` would hold.  Lemma 7.1 guarantees
the per-chunk *forward* distances, truncated at ``k + 1``, agree with the
global ones.

``Q̄`` is the living-request carry of
:class:`repro.core.chunked.ChunkedIAF` truncated at ``k``, so the serial
algorithm is that engine with ``max_cache_size=k`` and
``chunk_multiplier * k``-access chunks.  That engine solves only the
``Q̄`` entries a chunk references and adds the others back exactly; the
parallel form below keeps the full ``Q̄ · C`` solve of Lemma 7.1.

Forward distances come from the reversal duality
``f(T) = reverse(d(reverse(T)))``: the backward distance vector of the
reversed trace, reversed, is the forward distance vector of the original
(``next`` of the reversal is ``prev`` of the original).

Extras beyond the headline algorithm:

* **Windowed curves** — the per-chunk hit-rate curves the paper notes IAF
  produces "at regular intervals of size O(k)"; these answer the
  introduction's how-does-the-answer-change-over-time question.
* **PARALLEL-BOUNDED-IAF** (Theorem 7.4) — all ``Q̄_i`` are computed with
  a parallel prefix scan over the associative suffix-merge operator, then
  chunks are processed concurrently on a thread pool.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .._typing import DEFAULT_DTYPE, TraceLike, as_trace, validate_dtype
from ..errors import CapacityError
from ..metrics.memory import MemoryModel
from ..obs import NULL_SPAN, get_tracer
from .chunked import ChunkedIAF
from .engine import EngineStats, iaf_distances
from .hitrate import HitRateCurve, curve_from_forward_distances, merge_curves
from .prevnext import distinct_count, prev_next_arrays


def recent_distinct_suffix(
    history: np.ndarray, chunk: np.ndarray, k: int
) -> np.ndarray:
    """``Q̄`` update: the ≤k most recent distinct addresses after ``chunk``.

    Input ``history`` must itself be a recent-distinct ordering (distinct
    addresses, least-recent first); the result has the same shape.  This
    is the associative ``∘`` of Section 7: dropping an address from the
    deep end never changes the top-k of any later combination.
    """
    if k < 1:
        raise CapacityError(f"k must be >= 1, got {k}")
    combined = np.concatenate([history, chunk])
    if combined.size == 0:
        return combined
    rev = combined[::-1]
    _, first_in_rev = np.unique(rev, return_index=True)
    # First occurrence in the reversal == last occurrence in `combined`;
    # sort by that last-access position, least-recent first.
    order = np.argsort(first_in_rev)[::-1]
    addrs = rev[first_in_rev[order]]
    return addrs[-k:] if addrs.size > k else addrs


def forward_distances_via_reversal(
    trace: np.ndarray,
    *,
    dtype: "np.typing.DTypeLike" = DEFAULT_DTYPE,
    stats: Optional[EngineStats] = None,
    engine_backend: Optional[str] = None,
) -> np.ndarray:
    """Forward distance vector through the reversal duality."""
    d_rev = iaf_distances(trace[::-1], dtype=dtype, stats=stats,
                          engine_backend=engine_backend)
    return d_rev[::-1]


@dataclass
class BoundedResult:
    """Output of one BOUNDED-IAF run.

    ``.curve`` / ``.stats`` follow the unified result-shape convention
    (see :class:`repro.core.config.SolveResult`): ``stats`` is the
    :class:`EngineStats` the run recorded into, when one was supplied.
    """

    curve: HitRateCurve
    windows: List[HitRateCurve]
    chunk_bounds: List[Tuple[int, int]]
    k: int
    stats: Optional[EngineStats] = None


def bounded_iaf(
    trace: TraceLike,
    max_cache_size: Optional[int] = None,
    *,
    chunk_multiplier: int = 1,
    dtype: Optional["np.typing.DTypeLike"] = None,
    stats: Optional[EngineStats] = None,
    memory: Optional[MemoryModel] = None,
    engine_backend: Optional[str] = None,
) -> BoundedResult:
    """Run BOUNDED-INCREMENT-AND-FREEZE over ``trace``.

    ``max_cache_size`` is the paper's ``k``; when omitted it defaults to
    the number of distinct addresses ``u`` (beyond which the curve is
    flat anyway).  ``chunk_multiplier`` scales the chunk length (chunks
    are ``chunk_multiplier * k`` accesses; the paper requires Θ(k)).

    Memory charged to ``memory`` is the algorithm's O(k) working set:
    ``Q̄``, the current chunk, and the engine state for ``Q̄ · C_i`` —
    never the whole trace.  ``dtype`` is the chunk engine's
    (:class:`~repro.core.chunked.ChunkedIAF`): ``None`` keeps int64
    addresses and certifies each chunk solve's width.
    """
    arr = as_trace(trace, dtype=dtype)
    n = arr.size
    if n == 0:
        return BoundedResult(HitRateCurve(np.zeros(0, np.int64), 0), [], [], 0)
    if max_cache_size is None:
        prev_all, _ = prev_next_arrays(arr)
        k = max(1, distinct_count(prev_all))
    else:
        k = int(max_cache_size)
    if k < 1:
        raise CapacityError(f"max_cache_size must be >= 1, got {k}")
    if chunk_multiplier < 1:
        raise CapacityError(
            f"chunk_multiplier must be >= 1, got {chunk_multiplier}"
        )
    chunk_len = chunk_multiplier * k
    engine = ChunkedIAF(
        chunk_len, max_cache_size=k, dtype=dtype, stats=stats,
        memory=memory, engine_backend=engine_backend,
        span_name="bounded.chunk",
    )
    windows = engine.push(arr)
    last = engine.flush()
    if last is not None:
        windows.append(last)
    bounds = [(start, min(start + chunk_len, n))
              for start in range(0, n, chunk_len)]
    return BoundedResult(
        curve=merge_curves(windows).with_stats(stats), windows=windows,
        chunk_bounds=bounds, k=k, stats=stats,
    )


def _process_chunk(
    qbar: np.ndarray,
    chunk: np.ndarray,
    k: int,
    dt: np.dtype,
    engine_backend: Optional[str] = None,
) -> HitRateCurve:
    """Lemma 7.1: distances for ``chunk`` from the trace ``Q̄ · chunk``."""
    r_trace = np.concatenate([qbar, chunk]).astype(dt, copy=False)
    prev_r, _ = prev_next_arrays(r_trace)
    f = forward_distances_via_reversal(r_trace, dtype=dt,
                                       engine_backend=engine_backend)
    m = qbar.size
    # Only the chunk part of R contributes; clip to the k+1 sentinel (the
    # paper's min(k+1, ·) — values past k are indistinguishable misses).
    f_chunk = np.minimum(f[m:], k + 1)
    prev_chunk = prev_r[m:]
    return curve_from_forward_distances(
        f_chunk, np.where(prev_chunk == -1, -1, 0), truncated_at=k
    )


def parallel_bounded_iaf(
    trace: TraceLike,
    max_cache_size: Optional[int] = None,
    *,
    workers: int = 1,
    chunk_multiplier: int = 1,
    dtype: "np.typing.DTypeLike" = DEFAULT_DTYPE,
    engine_backend: Optional[str] = None,
) -> BoundedResult:
    """PARALLEL-BOUNDED-INCREMENT-AND-FREEZE (Theorem 7.4).

    Phase 1 computes every ``Q̄_i`` with a prefix scan over the
    associative suffix-merge (a balanced combining tree, span
    O(polylog n) in the model); phase 2 processes all chunks concurrently
    on a thread pool (numpy kernels release the GIL).  Unlike the serial
    variant, all chunks are resident at once — the memory/parallelism
    trade-off the paper describes (parallelism O((M/k) log k)).
    """
    arr = as_trace(trace, dtype=dtype)
    dt = validate_dtype(dtype)
    n = arr.size
    if n == 0:
        return BoundedResult(HitRateCurve(np.zeros(0, np.int64), 0), [], [], 0)
    if max_cache_size is None:
        prev_all, _ = prev_next_arrays(arr)
        k = max(1, distinct_count(prev_all))
    else:
        k = int(max_cache_size)
    if k < 1:
        raise CapacityError(f"max_cache_size must be >= 1, got {k}")
    if workers < 1:
        raise CapacityError(f"workers must be >= 1, got {workers}")
    chunk_len = chunk_multiplier * k
    bounds = [
        (start, min(start + chunk_len, n)) for start in range(0, n, chunk_len)
    ]
    chunks = [arr[a:b] for a, b in bounds]

    # Phase 1: Q̄ prefix scan.  Each chunk's own suffix summary, then a
    # balanced inclusive scan under the associative combiner.
    summaries = [
        recent_distinct_suffix(np.zeros(0, dtype=dt), c, k) for c in chunks
    ]
    prefixes = _inclusive_tree_scan(summaries, k)
    qbars = [np.zeros(0, dtype=dt)] + prefixes[:-1]

    # Phase 2: all chunks in parallel.
    tracer = get_tracer()
    traced = tracer.enabled

    def run(i: int) -> HitRateCurve:
        span = (
            tracer.span("bounded.chunk", chunk=i, start=bounds[i][0],
                        stop=bounds[i][1], k=k)
            if traced
            else NULL_SPAN
        )
        with span:
            return _process_chunk(qbars[i], chunks[i], k, dt,
                                  engine_backend)

    if workers == 1:
        windows = [run(i) for i in range(len(chunks))]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            windows = list(pool.map(run, range(len(chunks))))
    return BoundedResult(
        curve=merge_curves(windows), windows=windows, chunk_bounds=bounds, k=k
    )


def _inclusive_tree_scan(
    summaries: List[np.ndarray], k: int
) -> List[np.ndarray]:
    """Balanced-tree inclusive scan of suffix summaries.

    The combiner ``a ∘ b = recent_distinct_suffix(a, b, k)`` is
    associative (Section 7), so the textbook two-sweep scan applies:
    combine adjacent pairs, recurse, expand.  Depth O(log #chunks).
    """
    m = len(summaries)
    if m == 0:
        return []
    if m == 1:
        return [summaries[0]]
    paired = [
        recent_distinct_suffix(summaries[2 * i], summaries[2 * i + 1], k)
        for i in range(m // 2)
    ]
    if m % 2:
        paired.append(summaries[-1])
    partial = _inclusive_tree_scan(paired, k)
    out: List[np.ndarray] = []
    for i in range(m):
        if i == 0:
            out.append(summaries[0])
        elif i % 2 == 1:
            out.append(partial[i // 2])
        else:
            out.append(
                recent_distinct_suffix(partial[i // 2 - 1], summaries[i], k)
            )
    return out
