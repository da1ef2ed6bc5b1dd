"""Pre-processing phase: ``prev(i)`` and ``next(i)`` (Section 3).

For each access ``i``, ``prev(i)`` is the most recent earlier position
with the same address (or -1), and ``next(i)`` the earliest later one (or
``n``).  Section 3 observes this phase "reduces straightforwardly to a
constant number of sort and prefix-sum operations"; the vectorized
implementation here is exactly that reduction — one stable argsort by
address, then neighbours within equal-address runs.

Conventions (0-based, used across the package):

* ``prev[i] == -1``  means "no previous occurrence" (paper: prev = 0).
* ``next[i] == n``   means "no next occurrence"   (paper: next = infinity).
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from .._typing import TraceLike, as_trace


def prev_next_arrays(
    trace: TraceLike, *, engine_backend: Optional[str] = None
) -> Tuple[np.ndarray, np.ndarray]:
    """Vectorized ``(prev, next)`` computation in O(n log n).

    The returned arrays are int64 regardless of the trace dtype (they hold
    positions, not addresses).

    ``engine_backend="compiled"`` (or a ``REPRO_ENGINE_BACKEND`` default
    of it) routes through :func:`prev_next_arrays_compiled` — one O(n)
    hash pass instead of the argsort — when the compiled kernels are
    available; any other value keeps the sort path.
    """
    # Lazy import: engine imports this module at load time.
    from .engine import resolve_engine_backend

    if resolve_engine_backend(engine_backend) == "compiled":
        return prev_next_arrays_compiled(trace)
    arr = as_trace(trace, dtype=np.int64) if not isinstance(trace, np.ndarray) \
        else trace
    arr = np.asarray(arr)
    n = arr.size
    prev = np.full(n, -1, dtype=np.int64)
    nxt = np.full(n, n, dtype=np.int64)
    if n == 0:
        return prev, nxt
    order = np.argsort(arr, kind="stable")
    vals = arr[order]
    same = vals[1:] == vals[:-1]
    # Stable sort keeps positions ascending within an address run, so the
    # neighbour in the run is exactly the prev/next occurrence.
    later = order[1:][same]
    earlier = order[:-1][same]
    prev[later] = earlier
    nxt[earlier] = later
    return prev, nxt


def prev_next_arrays_compiled(
    trace: TraceLike,
) -> Tuple[np.ndarray, np.ndarray]:
    """O(n) ``(prev, next)`` via the compiled open-addressing table.

    Bit-identical to :func:`prev_next_arrays` (both are exact); jitted
    when numba is importable, a plain-python dict pass otherwise.
    """
    from . import compiled as _compiled

    arr = np.asarray(as_trace(trace))
    n = arr.size
    prev = np.full(n, -1, dtype=np.int64)
    nxt = np.full(n, n, dtype=np.int64)
    _compiled.prev_next_fill(arr, prev, nxt)
    return prev, nxt


def prev_next_arrays_python(trace: TraceLike) -> Tuple[np.ndarray, np.ndarray]:
    """Hash-map reference implementation (O(n) expected), for cross-checks."""
    arr = np.asarray(as_trace(trace))
    n = arr.size
    prev = np.full(n, -1, dtype=np.int64)
    nxt = np.full(n, n, dtype=np.int64)
    last_seen: Dict[int, int] = {}
    for i, addr in enumerate(arr.tolist()):
        j = last_seen.get(addr)
        if j is not None:
            prev[i] = j
            nxt[j] = i
        last_seen[addr] = i
    return prev, nxt


def last_access_carryover(
    addrs: np.ndarray,
    last_access: np.ndarray,
    chunk: np.ndarray,
    chunk_start: int,
    k: int = 0,
    *,
    referenced: np.ndarray,
    solved_next: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Fold ``chunk`` into a living-request map (Section 7, ``k = ∞`` form).

    ``addrs``/``last_access`` describe the requests still *living* after
    some prefix: one entry per still-distinct address, ordered by its
    last-access position (ascending, i.e. least-recent first), with
    ``last_access`` holding that global position.  ``chunk`` is the next
    run of accesses, whose global positions start at ``chunk_start``.
    Returns the updated ``(addrs, last_access)`` pair.

    The chunk solve has already sorted what this needs: ``referenced``
    is the boolean mask of the entries whose address ``chunk`` touches,
    and ``solved_next`` the ``next`` array of the trace it sorted,
    ``addrs[referenced] · chunk`` (``r + n`` long).  The new map is the
    unreferenced entries in carry order followed by the chunk's last
    occurrences — positions ``>= r`` whose ``next`` is ``r + n`` — in
    position order: one linear pass over the living set, no sort.

    With ``k > 0`` only the ``k`` most recent entries survive — the
    carried form of :func:`repro.core.bounded.recent_distinct_suffix`;
    ``k = 0`` keeps everything (the chunked engine's exact mode, where
    the map is the O(u) carry between chunk solves).
    """
    size = solved_next.size
    last = np.flatnonzero(solved_next[size - chunk.size:] == size)
    unreferenced = ~referenced
    new_addrs = np.concatenate([addrs[unreferenced], chunk[last]])
    new_last = np.concatenate([last_access[unreferenced], last + chunk_start])
    if 0 < k < new_addrs.size:
        # Copies, so the carry does not pin the untruncated arrays.
        return new_addrs[-k:].copy(), new_last[-k:].copy()
    return new_addrs, new_last


def first_occurrence_mask(prev: np.ndarray) -> np.ndarray:
    """Boolean mask of compulsory (first-touch) accesses."""
    return np.asarray(prev) == -1


def distinct_count(prev: np.ndarray) -> int:
    """Number of distinct addresses, derived from ``prev`` for free."""
    return int(first_occurrence_mask(prev).sum())
