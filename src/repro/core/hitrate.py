"""Post-processing phase: distance vectors → hit-rate curves (Section 3).

The LRU hit-rate curve is assembled from the distance vector by a
histogram plus prefix sum (equation (1) of the paper):

    hits(k) = #{ i : prev(i) != -1 and d_prev(i) <= k }
            = #{ i : next(i) < n   and d_i       <= k }

:class:`HitRateCurve` is the value type the whole public API returns.  It
stores *cumulative hit counts* per cache size, supports truncation
(Section 7), merging of per-window curves (windowed Bound-IAF output),
and conversion to hit-rate / miss-ratio arrays.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional, Sequence

import numpy as np

from ..errors import ReproError


@dataclass(frozen=True)
class HitRateCurve:
    """The LRU hit-rate curve ``H_T`` of one trace (or trace window).

    ``hits_cumulative[k-1]`` is the number of accesses that hit an LRU
    cache of size ``k``.  Beyond ``len(hits_cumulative)`` the curve is
    flat (every larger cache hits the same accesses), so lookups clamp.

    ``truncated_at`` is set when the curve was computed by a k-bounded
    algorithm: sizes above it are unknown rather than flat.

    ``stats`` optionally links the curve back to the instrumentation of
    the solve that produced it (an ``EngineStats`` or ``IOStats``).  It
    is provenance, not data: it never participates in equality or
    merging, and post-processing steps (truncation) must carry it over.
    """

    hits_cumulative: np.ndarray
    total_accesses: int
    truncated_at: Optional[int] = None
    stats: Optional[Any] = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        arr = np.asarray(self.hits_cumulative, dtype=np.int64)
        object.__setattr__(self, "hits_cumulative", arr)
        if arr.ndim != 1:
            raise ReproError("hits_cumulative must be 1-D")
        if self.total_accesses < 0:
            raise ReproError("total_accesses must be >= 0")
        if arr.size:
            if arr[0] < 0 or (np.diff(arr) < 0).any():
                raise ReproError("hits_cumulative must be non-decreasing")
            if int(arr[-1]) > self.total_accesses:
                raise ReproError("hit count exceeds total accesses")
        if self.truncated_at is not None and arr.size > self.truncated_at:
            raise ReproError(
                f"curve has {arr.size} sizes but claims truncation at "
                f"{self.truncated_at}"
            )

    @property
    def max_size(self) -> int:
        """Largest cache size with an explicitly stored value."""
        return int(self.hits_cumulative.size)

    def hits(self, k: int) -> int:
        """Hit count of a size-``k`` LRU cache."""
        if k < 0:
            raise ReproError(f"cache size must be >= 0, got {k}")
        if k == 0 or self.hits_cumulative.size == 0:
            return 0
        if self.truncated_at is not None and k > self.truncated_at:
            raise ReproError(
                f"curve truncated at {self.truncated_at}; size {k} unknown"
            )
        return int(self.hits_cumulative[min(k, self.max_size) - 1])

    def hit_rate(self, k: int) -> float:
        """``H_T(k)``: fraction of accesses hitting a size-``k`` cache."""
        if self.total_accesses == 0:
            return 0.0
        return self.hits(k) / self.total_accesses

    def hit_rate_array(self) -> np.ndarray:
        """``H_T(k)`` for k = 1..max_size as a float array."""
        if self.total_accesses == 0:
            return np.zeros(self.max_size, dtype=np.float64)
        return self.hits_cumulative / float(self.total_accesses)

    def miss_ratio_array(self) -> np.ndarray:
        """The complementary miss-ratio curve, ``1 - H_T(k)``."""
        return 1.0 - self.hit_rate_array()

    def merge(self, other: "HitRateCurve") -> "HitRateCurve":
        """Combine two disjoint windows' curves into one.

        Valid because each access belongs to exactly one window and its
        hit-at-size-k status is a global property of the trace (Section 7
        computes per-chunk curves and "sums the curves together").
        """
        if (self.truncated_at is None) != (other.truncated_at is None) or (
            self.truncated_at is not None
            and self.truncated_at != other.truncated_at
        ):
            raise ReproError(
                f"cannot merge curves with different truncation: "
                f"{self.truncated_at} vs {other.truncated_at}"
            )
        size = max(self.max_size, other.max_size)
        merged = self._padded(size) + other._padded(size)
        return HitRateCurve(
            hits_cumulative=merged,
            total_accesses=self.total_accesses + other.total_accesses,
            truncated_at=self.truncated_at,
        )

    def _padded(self, size: int) -> np.ndarray:
        """Extend the cumulative array to ``size`` entries (flat tail)."""
        cur = self.hits_cumulative
        if cur.size >= size:
            return cur.astype(np.int64, copy=True)
        tail_value = int(cur[-1]) if cur.size else 0
        out = np.full(size, tail_value, dtype=np.int64)
        out[: cur.size] = cur
        return out

    def with_stats(self, stats: Optional[Any]) -> "HitRateCurve":
        """The same curve with ``stats`` attached (data arrays shared)."""
        return HitRateCurve(
            hits_cumulative=self.hits_cumulative,
            total_accesses=self.total_accesses,
            truncated_at=self.truncated_at,
            stats=stats,
        )

    def almost_equal(self, other: "HitRateCurve") -> bool:
        """Exact equality of hit counts over the common explicit range."""
        if self.total_accesses != other.total_accesses:
            return False
        size = max(self.max_size, other.max_size)
        return bool(np.array_equal(self._padded(size), other._padded(size)))


def save_curve(curve: HitRateCurve, path) -> None:
    """Persist a curve to an ``.npz`` file (exact, compact).

    Operators keep per-period curves around for trend analysis; the
    cumulative-counts representation round-trips losslessly.
    """
    np.savez_compressed(
        path,
        hits_cumulative=curve.hits_cumulative,
        total_accesses=np.int64(curve.total_accesses),
        truncated_at=np.int64(
            -1 if curve.truncated_at is None else curve.truncated_at
        ),
    )


def load_curve(path) -> HitRateCurve:
    """Load a curve written by :func:`save_curve`."""
    with np.load(path) as data:
        try:
            truncated = int(data["truncated_at"])
            return HitRateCurve(
                hits_cumulative=data["hits_cumulative"],
                total_accesses=int(data["total_accesses"]),
                truncated_at=None if truncated < 0 else truncated,
            )
        except KeyError as exc:
            raise ReproError(f"not a saved hit-rate curve: missing {exc}")


def merge_curves(curves: Sequence[HitRateCurve]) -> HitRateCurve:
    """Fold :meth:`HitRateCurve.merge` over a window sequence."""
    if not curves:
        return HitRateCurve(np.zeros(0, dtype=np.int64), 0)
    out = curves[0]
    for c in curves[1:]:
        out = out.merge(c)
    return out


def curve_from_backward_distances(
    distances: np.ndarray,
    next_arr: Optional[np.ndarray] = None,
    *,
    prev: Optional[np.ndarray] = None,
) -> HitRateCurve:
    """Build the curve from the (backward) distance vector ``d`` (Section 3).

    ``d_i`` determines a hit for the *re-access* at ``next(i)``, so only
    positions with ``next(i) < n`` contribute; the hit lands at every cache
    size >= ``d_i``.  Give exactly one of ``next_arr`` and ``prev``: the
    positions with a next occurrence are exactly the ``prev`` targets, so
    ``d[prev[prev >= 0]]`` is the same multiset, and a solve that sorted
    its trace once for ``prev`` needs no ``next``.
    """
    d = np.asarray(distances, dtype=np.int64)
    n = d.size
    if (next_arr is None) == (prev is None):
        raise ReproError("give exactly one of next_arr and prev")
    ref = np.asarray(next_arr if prev is None else prev)
    if ref.size != n:
        raise ReproError(
            f"distances and {'next' if prev is None else 'prev'} arrays "
            f"must have equal length"
        )
    if prev is None:
        has_next = ref < n
    else:
        # Scatter into a mask, then select in order: a sequential pass
        # over d instead of a random gather from it.
        has_next = np.zeros(n, dtype=bool)
        has_next[ref[ref >= 0]] = True
    return _curve_from_hit_distances(d[has_next], n)


def curve_from_forward_distances(
    forward: np.ndarray,
    prev_arr: np.ndarray,
    *,
    truncated_at: Optional[int] = None,
) -> HitRateCurve:
    """Build the curve from the forward distance vector ``f`` (Section 7).

    ``f_i`` is the stack distance of access ``i`` itself; positions with
    ``prev(i) == -1`` are compulsory misses.  When ``truncated_at=k`` is
    given, values ``> k`` are treated as misses-at-every-size (they may be
    the sentinel ``k+1``), and the curve is marked truncated.
    """
    f = np.asarray(forward, dtype=np.int64)
    prev = np.asarray(prev_arr)
    n = f.size
    if prev.size != n:
        raise ReproError("forward and prev arrays must have equal length")
    contributing = f[prev != -1]
    if truncated_at is not None:
        contributing = contributing[contributing <= truncated_at]
    curve = _curve_from_hit_distances(contributing, n)
    if truncated_at is None:
        return curve
    return HitRateCurve(
        curve.hits_cumulative, curve.total_accesses, truncated_at=truncated_at
    )


def _curve_from_hit_distances(distances: np.ndarray, total: int) -> HitRateCurve:
    """Histogram + prefix sum over the distances of hit-capable accesses.

    The stored curve ends at the largest distance present; all larger
    sizes are flat, which :class:`HitRateCurve` lookups handle by clamping
    (valid even for truncated curves: no access has a distance between the
    stored maximum and the truncation bound, by construction).
    """
    if distances.size and int(distances.min()) < 1:
        raise ReproError("stack distances of re-accessed items must be >= 1")
    size = int(distances.max()) if distances.size else 0
    hist = np.bincount(distances, minlength=size + 1) if distances.size else \
        np.zeros(size + 1, dtype=np.int64)
    return HitRateCurve(
        hits_cumulative=np.cumsum(hist[1 : size + 1]),
        total_accesses=total,
    )


def forward_from_backward(
    distances: np.ndarray, prev_arr: np.ndarray
) -> np.ndarray:
    """Convert backward ``d`` to forward ``f``: ``f_i = d_prev(i)``.

    Positions with no previous occurrence get the sentinel 0 (no finite
    forward distance; the paper leaves these to the "prev != 0" guard).
    """
    d = np.asarray(distances, dtype=np.int64)
    prev = np.asarray(prev_arr)
    out = np.zeros(d.size, dtype=np.int64)
    has_prev = prev != -1
    out[has_prev] = d[prev[has_prev]]
    return out
