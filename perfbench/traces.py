"""Seeded trace generation (the program only ever sees the output).

The generator is the benchmark's own, not ``repro.workloads``, so a
change to the program cannot change the benchmark's inputs.
"""

from __future__ import annotations

import zlib

import numpy as np


def rng_for(seed: int, *stream: str) -> np.random.Generator:
    """An independent generator per (seed, named stream)."""
    tags = [zlib.crc32(s.encode()) for s in stream]
    return np.random.default_rng([seed, *tags])


class ZipfStream:
    """Accesses over ``u`` addresses, rank ``k`` drawn with p ~ k^-alpha.

    Ranks map to addresses through one random permutation, so popular
    addresses are scattered over ``[0, u)`` and stay the same from one
    :meth:`draw` to the next: successive draws continue one stream.
    """

    def __init__(self, rng: np.random.Generator, u: int, alpha: float):
        weights = np.arange(1, u + 1, dtype=np.float64) ** -alpha
        self._cdf = np.cumsum(weights) / weights.sum()
        self._perm = rng.permutation(u)
        self._rng = rng

    def draw(self, n: int) -> np.ndarray:
        ranks = np.searchsorted(self._cdf, self._rng.random(n), side="right")
        np.minimum(ranks, self._perm.size - 1, out=ranks)
        return self._perm[ranks].astype(np.int64)


def zipf(rng: np.random.Generator, n: int, u: int,
         alpha: float) -> np.ndarray:
    """One trace of ``n`` accesses from a fresh :class:`ZipfStream`."""
    return ZipfStream(rng, u, alpha).draw(n)


def relabel(rng: np.random.Generator, trace: np.ndarray,
            u: int) -> np.ndarray:
    """``trace`` with its addresses renamed by a random bijection of [0, u).

    LRU behaviour depends only on which accesses share an address, so a
    renamed trace is a distinct input with exactly the same hit-rate
    curve.  The correctness gate solves the base trace once in-process
    and checks every renamed copy the program answered against it.
    """
    return rng.permutation(u)[trace]
