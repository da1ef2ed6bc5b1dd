"""Spatial (SHARDS-style) address sampling — one implementation, shared.

Hash-sampled miss-ratio-curve estimation (SHARDS, Waldspurger et al.,
FAST '15) keeps an address iff a uniform hash of it falls below a
threshold, computes **exact** stack distances on the sampled sub-trace,
scales each distance by ``1/rate`` (a reuse window's composition is
preserved in expectation, so a window holding ``s`` sampled distinct
addresses had ``≈ s/rate`` real ones), and corrects for the realized
sample size.  The estimator is cheap and usually accurate — and carries
no guarantee; ``repro.qa.accuracy`` measures the error per workload and
the adversarial cases where it is unbounded.

This module is the **single home of the sampling math**.  Two callers
build on it:

* :func:`repro.baselines.shards.shards_hit_rate_curve` — the one-shot
  offline baseline (kept as a thin delegate for compatibility);
* the sampled tenant tier in :mod:`repro.tenants` — the same math on a
  *streamed* sub-trace, with the exact work done by the chunked
  incremental engine instead of a batch solve.

Both paths funnel through :func:`estimate_from_histogram`, so their
estimates are bit-identical given the same sample — the property the
``sampled-iaf`` oracle row enforces.

A note on the threshold: an address is sampled iff
``splitmix64(addr ^ mix(seed)) < sample_threshold(rate)``, where the
threshold is computed with **exact integer arithmetic**
(``floor(rate · 2^64)`` via :class:`fractions.Fraction`).  The previous
in-baseline formula rounded through ``float(2^64 - 1)`` and used an
inclusive compare, admitting slightly more hash values than ``rate``
prescribes — an off-by-a-few bias pinned as a regression in
``tests/qa/test_regressions.py`` when this module was extracted.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from ..errors import ReproError

#: SplitMix64 constants for the sampling hash.
SPLITMIX_GAMMA = 0x9E3779B97F4A7C15
MASK = (1 << 64) - 1


def splitmix64(values: np.ndarray) -> np.ndarray:
    """Deterministic 64-bit mixer, vectorized (SplitMix64's output mix)."""
    z = (values.astype(np.uint64) + np.uint64(SPLITMIX_GAMMA)) & np.uint64(MASK)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9) & np.uint64(MASK)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB) & np.uint64(MASK)
    return z ^ (z >> np.uint64(31))


def unmix64(hashed: int) -> int:
    """Invert :func:`splitmix64` for one value (the mix is a bijection).

    Used by the regression tests to *construct* addresses whose hash
    lands on an exact threshold boundary — the only way to make a
    one-in-2^64 sampling decision deterministic and testable.
    """
    inv1 = pow(0x94D049BB133111EB, -1, 1 << 64)
    inv2 = pow(0xBF58476D1CE4E5B9, -1, 1 << 64)
    z = hashed & MASK
    z ^= (z >> 31) ^ (z >> 62)
    z = (z * inv1) & MASK
    z ^= (z >> 27) ^ (z >> 54)
    z = (z * inv2) & MASK
    z ^= (z >> 30) ^ (z >> 60)
    return (z - SPLITMIX_GAMMA) & MASK


def _validate_rate(rate: float) -> float:
    if not 0.0 < rate <= 1.0:
        raise ReproError(f"sample_rate must be in (0, 1], got {rate}")
    return float(rate)


def sample_threshold(rate: float) -> int:
    """Number of admitted hash values in ``[0, 2^64)`` — exact.

    An address is sampled iff its hash is **strictly below** this
    threshold, so the inclusion probability is exactly
    ``floor(rate · 2^64) / 2^64`` (``rate`` read as the binary rational
    it is).  ``rate=1.0`` yields ``2^64``: everything is sampled.
    """
    return int(Fraction(_validate_rate(rate)) * (1 << 64))


def sample_hash(addrs: np.ndarray, seed: int = 0) -> np.ndarray:
    """Per-address sampling hash (uint64), perturbed by ``seed``.

    Distinct monitors (seeds) disagree on which addresses they track —
    that independence is what gives sampled estimates error bars.
    """
    arr = np.asarray(addrs)
    return splitmix64(arr.astype(np.int64).view(np.uint64)
                      ^ np.uint64((seed * 2 + 1) & MASK))


def sample_mask(addrs: np.ndarray, rate: float, seed: int = 0) -> np.ndarray:
    """Boolean mask of the accesses whose address is sampled at ``rate``."""
    arr = np.asarray(addrs)
    threshold = sample_threshold(rate)
    if threshold >= 1 << 64:
        return np.ones(arr.shape, dtype=bool)
    return sample_hash(arr, seed) < np.uint64(threshold)


@dataclass(frozen=True)
class ApproximateCurve:
    """A sampled estimate of the hit-rate curve.

    ``hits_estimate`` is cumulative *estimated* hit counts per size
    (floats: samples carry weight ``1/rate``); ``sampled_accesses`` and
    ``sample_rate`` record how much evidence backs the estimate.
    """

    hits_estimate: np.ndarray
    total_accesses: int
    sampled_accesses: int
    sample_rate: float

    @property
    def max_size(self) -> int:
        return int(self.hits_estimate.size)

    def hit_rate(self, k: int) -> float:
        if k < 1 or self.total_accesses == 0 or self.max_size == 0:
            return 0.0
        return float(
            self.hits_estimate[min(k, self.max_size) - 1]
        ) / self.total_accesses

    def hit_rate_array(self) -> np.ndarray:
        if self.total_accesses == 0:
            return np.zeros(self.max_size)
        return self.hits_estimate / self.total_accesses


def scale_distances(finite: np.ndarray, rate: float) -> np.ndarray:
    """Rescale sampled stack distances to full-trace scale (``d/rate``).

    Rounded to the nearest integer and clamped to at least 1 (a sampled
    re-access is a hit at *some* size).
    """
    scaled = np.rint(np.asarray(finite, dtype=np.float64) / rate)
    return np.maximum(scaled.astype(np.int64), 1)


def estimate_from_histogram(
    hist: np.ndarray,
    *,
    total_accesses: int,
    sampled_accesses: int,
    rate: float,
) -> ApproximateCurve:
    """Fold a scaled-distance histogram into an :class:`ApproximateCurve`.

    ``hist[s]`` counts sampled re-accesses whose *rescaled* distance is
    ``s``; each stands for ``1/rate`` real re-accesses.  The fixed-rate
    count correction is SHARDS_adj (Waldspurger et al., FAST '15 §5.2):
    the deviation of the realized sample size from its expectation,
    ``total·rate − sampled``, is credited to the smallest-distance
    bucket before scaling.  Rationale: under a skewed popularity
    distribution that deviation is dominated by the hottest addresses
    — whose reuse distances are tiny — so the missing (or excess) mass
    belongs at the head of the histogram.  The previous multiplicative
    correction (rescale by expected/realized) cancels entirely in
    ``hit_rate`` and left a systematic bias that grows with skew; the
    change is pinned in ``tests/qa/test_regressions.py``.  At rate 1.0
    the adjustment is identically zero, so exactness is untouched.

    Every estimate in the package is produced here, so the offline
    baseline and the streaming tier agree bit for bit on equal samples.
    """
    rate = _validate_rate(rate)
    hist = np.asarray(hist, dtype=np.int64)
    if sampled_accesses == 0 or hist.size <= 1 or not hist[1:].any():
        return ApproximateCurve(
            np.zeros(0), total_accesses, int(sampled_accesses), rate
        )
    adjust = total_accesses * rate - sampled_accesses
    hits = np.maximum(np.cumsum(hist[1:]) + adjust, 0.0) / rate
    return ApproximateCurve(
        hits_estimate=hits,
        total_accesses=total_accesses,
        sampled_accesses=int(sampled_accesses),
        sample_rate=rate,
    )


def estimate_from_distances(
    finite: np.ndarray,
    *,
    total_accesses: int,
    sampled_accesses: int,
    rate: float,
    max_cache_size: Optional[int] = None,
) -> ApproximateCurve:
    """Estimate from the raw finite forward distances of the sample."""
    scaled = scale_distances(finite, rate)
    if max_cache_size is not None:
        scaled = scaled[scaled <= max_cache_size]
    hist = (np.bincount(scaled) if scaled.size
            else np.zeros(1, dtype=np.int64))
    return estimate_from_histogram(
        hist, total_accesses=total_accesses,
        sampled_accesses=sampled_accesses, rate=rate,
    )


def distance_histogram(curve) -> np.ndarray:
    """Per-distance hit counts of an exact curve (inverse of the cumsum).

    ``out[d]`` is the number of accesses whose stack distance is exactly
    ``d`` (``out[0]`` unused) — the representation the rescaling needs,
    recovered losslessly from ``hits_cumulative``.
    """
    hits = np.asarray(curve.hits_cumulative, dtype=np.int64)
    out = np.zeros(hits.size + 1, dtype=np.int64)
    if hits.size:
        out[1:] = np.diff(hits, prepend=0)
    return out


def rescale_curve(
    curve,
    *,
    total_accesses: int,
    sampled_accesses: int,
    rate: float,
    max_cache_size: Optional[int] = None,
) -> ApproximateCurve:
    """SHARDS-rescale an **exact** curve computed on a sampled sub-trace.

    This is the streaming tier's query path: the chunked engine keeps an
    exact curve over the sampled accesses; rescaling its distance
    histogram is equivalent to rescaling per-access distances (the
    histogram partitions them), so the result is bit-identical to
    :func:`estimate_from_distances` on the same sample.
    """
    rate = _validate_rate(rate)
    hist = distance_histogram(curve)
    if not hist[1:].any():
        return estimate_from_histogram(
            np.zeros(1, dtype=np.int64), total_accesses=total_accesses,
            sampled_accesses=sampled_accesses, rate=rate,
        )
    sizes = np.arange(hist.size, dtype=np.int64)
    scaled_sizes = scale_distances(sizes[1:], rate)
    counts = hist[1:]
    if max_cache_size is not None:
        keep = scaled_sizes <= max_cache_size
        scaled_sizes, counts = scaled_sizes[keep], counts[keep]
    if counts.size == 0 or not counts.any():
        scaled_hist = np.zeros(1, dtype=np.int64)
    else:
        scaled_hist = np.bincount(
            scaled_sizes, weights=counts.astype(np.float64)
        ).astype(np.int64)
    return estimate_from_histogram(
        scaled_hist, total_accesses=total_accesses,
        sampled_accesses=sampled_accesses, rate=rate,
    )


def sampled_hit_rate_curve(
    trace,
    rate: float,
    *,
    seed: int = 0,
    max_cache_size: Optional[int] = None,
) -> ApproximateCurve:
    """One-shot fixed-rate SHARDS estimate (the offline baseline's core).

    ``rate=1.0`` degenerates to the exact computation: every access is
    sampled, distances scale by 1, and the correction is unity.
    """
    from .._typing import as_trace
    from .engine import iaf_distances
    from .hitrate import forward_from_backward
    from .prevnext import prev_next_arrays

    rate = _validate_rate(rate)
    arr = as_trace(trace)
    n = arr.size
    if n == 0:
        return ApproximateCurve(np.zeros(0), 0, 0, rate)
    sample = arr[sample_mask(arr, rate, seed)]
    if sample.size == 0:
        return ApproximateCurve(np.zeros(0), n, 0, rate)
    prev, _ = prev_next_arrays(sample)
    d = iaf_distances(sample, prev=prev)
    f = forward_from_backward(d, prev)
    return estimate_from_distances(
        f[prev != -1], total_accesses=n, sampled_accesses=int(sample.size),
        rate=rate, max_cache_size=max_cache_size,
    )


def estimate_error(
    approx: ApproximateCurve, exact_hit_rates: np.ndarray
) -> float:
    """Mean absolute error of the estimate over ``1..len(exact)`` sizes."""
    sizes = np.arange(1, np.asarray(exact_hit_rates).size + 1)
    est = np.array([approx.hit_rate(int(k)) for k in sizes])
    return float(np.mean(np.abs(est - exact_hit_rates)))


__all__ = [
    "ApproximateCurve",
    "MASK",
    "SPLITMIX_GAMMA",
    "distance_histogram",
    "estimate_error",
    "estimate_from_distances",
    "estimate_from_histogram",
    "rescale_curve",
    "sample_hash",
    "sample_mask",
    "sample_threshold",
    "sampled_hit_rate_curve",
    "scale_distances",
    "splitmix64",
    "unmix64",
]
