"""Seeded generators of adversarial traces and configurations.

Every fuzz case is a pure function of ``(seed, profile)``: the seed feeds
one :class:`numpy.random.Generator`, which draws first the trace strategy
and its parameters, then the configuration knobs.  That makes every
failure replayable from a single integer — the property the shrinker and
the committed regression tests rely on.

The strategies are chosen to hit the places stack-distance bookkeeping
historically breaks:

* ``zipfian`` / ``uniform``      — generic skewed / unstructured reuse.
* ``scan_loop``                  — cyclic scans, LRU's worst case; every
  distance equals the loop length, stressing the curve's step edges.
* ``phase_shift``                — disjoint working sets, stressing the
  windowed/bounded variants across chunk boundaries.
* ``duplicate_heavy``            — tiny universes, maximal merge/shrink
  activity inside the engine.
* ``single_address``             — the degenerate all-hits trace.
* ``empty``                      — the n = 0 edge everywhere.
* ``near_dtype_limit``           — addresses adjacent to the dtype's max,
  catching silent-overflow/lossy-cast paths (Section 9.5's int32 mode).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from .._typing import validate_dtype
from ..workloads.synthetic import (
    sequential_scan_trace,
    uniform_trace,
    working_set_trace,
    zipfian_trace,
)

#: Fuzz profiles: trace-size ceilings and how often the expensive
#: implementations (process pools, quadratic oracles) join the matrix.
PROFILES = ("quick", "deep")

#: Thread/process worker counts the oracle cycles through.
WORKER_CHOICES = (1, 2, 3, 7)


@dataclass(frozen=True)
class FuzzConfig:
    """Knobs shared by every implementation in one oracle run."""

    workers: int = 2              #: thread workers for the parallel paths
    process_workers: int = 0      #: process workers (0 = skip process pools)
    k: int = 8                    #: bounded/streaming max cache size
    chunk_multiplier: int = 1     #: chunk length scale for bounded/streaming
    chunk_size: int = 0           #: chunked-iaf chunk length (0 = default)
    dtype: str = "int64"          #: address dtype ("int32" | "int64")
    push_seed: int = 0            #: seed for streaming push batch sizes
    sizes_seed: int = 0           #: seed for weighted object sizes
    max_object_size: int = 8      #: object sizes drawn from [1, this]
    check_reference: bool = True  #: include the pure-python recursion
    check_naive: bool = True      #: include the O(n^2) oracles
    sample_rate: float = 1.0      #: sampled-iaf rate (1.0 = degenerate/exact)
    sample_seed: int = 0          #: sampled-iaf hash-perturbation seed

    def numpy_dtype(self) -> np.dtype:
        return validate_dtype(self.dtype)


@dataclass(frozen=True)
class FuzzCase:
    """One differential-testing input: a trace plus a configuration."""

    seed: int
    strategy: str
    trace: np.ndarray = field(repr=False)
    config: FuzzConfig = field(default_factory=FuzzConfig)

    def summary(self) -> str:
        u = int(self.trace.max()) + 1 if self.trace.size else 0
        return (
            f"seed={self.seed} strategy={self.strategy} "
            f"n={self.trace.size} u<={u} workers={self.config.workers} "
            f"procs={self.config.process_workers} k={self.config.k} "
            f"mult={self.config.chunk_multiplier} "
            f"chunk={self.config.chunk_size} dtype={self.config.dtype}"
        )


TraceStrategy = Callable[[np.random.Generator, int, int, np.dtype], np.ndarray]


def _zipfian(rng, n, universe, dt):
    alpha = float(rng.uniform(0.1, 1.2))
    return zipfian_trace(n, universe, alpha, seed=int(rng.integers(2**31)),
                         dtype=dt)


def _uniform(rng, n, universe, dt):
    return uniform_trace(n, universe, seed=int(rng.integers(2**31)), dtype=dt)


def _scan_loop(rng, n, universe, dt):
    # A cyclic scan over a loop smaller than the trace, so it wraps.
    loop = int(rng.integers(1, max(2, universe)))
    return sequential_scan_trace(n, loop, dtype=dt)


def _phase_shift(rng, n, universe, dt):
    phases = int(rng.integers(2, 6))
    wss = max(1, universe // phases)
    return working_set_trace(n, universe, phases=phases,
                             working_set_size=wss,
                             seed=int(rng.integers(2**31)), dtype=dt)


def _duplicate_heavy(rng, n, universe, dt):
    few = int(rng.integers(1, 5))
    return uniform_trace(n, few, seed=int(rng.integers(2**31)), dtype=dt)


def _single_address(rng, n, universe, dt):
    addr = int(rng.integers(0, universe))
    return np.full(n, addr, dtype=dt)


def _empty(rng, n, universe, dt):
    return np.zeros(0, dtype=dt)


def _near_dtype_limit(rng, n, universe, dt):
    # Sparse addresses hugging iinfo(dtype).max: position bookkeeping must
    # never be confused with address magnitude.
    top = np.iinfo(dt).max
    base = top - int(universe)
    offsets = rng.integers(0, max(1, universe), size=n)
    return (base + offsets).astype(dt)


STRATEGIES: Dict[str, TraceStrategy] = {
    "zipfian": _zipfian,
    "uniform": _uniform,
    "scan_loop": _scan_loop,
    "phase_shift": _phase_shift,
    "duplicate_heavy": _duplicate_heavy,
    "single_address": _single_address,
    "empty": _empty,
    "near_dtype_limit": _near_dtype_limit,
}

#: Sampling weights: structured strategies dominate; degenerate ones
#: appear often enough to keep the edge cases hot.
_STRATEGY_WEIGHTS: Tuple[Tuple[str, float], ...] = (
    ("zipfian", 0.22),
    ("uniform", 0.14),
    ("scan_loop", 0.16),
    ("phase_shift", 0.14),
    ("duplicate_heavy", 0.16),
    ("single_address", 0.06),
    ("empty", 0.04),
    ("near_dtype_limit", 0.08),
)


def sample_config(
    rng: np.random.Generator, n: int, *, profile: str = "quick"
) -> FuzzConfig:
    """Draw one configuration; expensive knobs scale with the profile."""
    # Every case also pins one unconditional process-iaf oracle row
    # (see oracle.py), the only end-to-end check of the executor through
    # solve(); this knob additionally covers the process-pool *distance*
    # oracles.  Only the comparison threshold changed — the draw itself
    # stays in the historical rng stream position, so seeded cases keep
    # their traces.
    proc_p = 0.2 if profile == "quick" else 0.5
    return FuzzConfig(
        workers=int(rng.choice(WORKER_CHOICES)),
        process_workers=2 if rng.random() < proc_p else 0,
        k=int(rng.integers(1, max(2, min(64, n + 1)))),
        chunk_multiplier=int(rng.integers(1, 5)),
        dtype=str(rng.choice(("int32", "int64"))),
        push_seed=int(rng.integers(2**31)),
        sizes_seed=int(rng.integers(2**31)),
        max_object_size=int(rng.integers(1, 10)),
        check_reference=True,
        check_naive=True,
        # Drawn last so earlier draws keep their historical rng stream
        # (committed regression seeds stay replayable).  New knobs MUST
        # be appended after the existing tail draws, same reason.
        chunk_size=int(rng.integers(1, max(2, n + 1))),
        sample_rate=float(rng.choice((1.0, 0.5, 0.25, 0.05))),
        sample_seed=int(rng.integers(2**31)),
    )


def sample_case(
    rng: np.random.Generator, *, seed: int = 0, profile: str = "quick"
) -> FuzzCase:
    """Draw one full fuzz case from ``rng`` (see :func:`case_from_seed`)."""
    if profile not in PROFILES:
        raise ValueError(f"unknown profile {profile!r}; one of {PROFILES}")
    names = [n for n, _w in _STRATEGY_WEIGHTS]
    weights = np.array([w for _n, w in _STRATEGY_WEIGHTS])
    strategy = str(rng.choice(names, p=weights / weights.sum()))
    max_n = 200 if profile == "quick" else 3000
    n = int(rng.integers(1, max_n + 1))
    universe = int(rng.integers(1, max(2, n)))
    dt = validate_dtype(str(rng.choice(("int32", "int64"))))
    trace = STRATEGIES[strategy](rng, n, universe, dt)
    config = sample_config(rng, trace.size, profile=profile)
    config = replace(config, dtype=str(trace.dtype))
    return FuzzCase(seed=seed, strategy=strategy, trace=trace, config=config)


def case_from_seed(seed: int, *, profile: str = "quick") -> FuzzCase:
    """The deterministic case for ``(seed, profile)`` — fully replayable."""
    rng = np.random.default_rng(seed)
    return sample_case(rng, seed=seed, profile=profile)


def object_sizes_for(case: FuzzCase) -> np.ndarray:
    """Per-address object sizes for the weighted oracle, from the config.

    Length covers every address in the trace; values in
    ``[1, max_object_size]``.  Deterministic given ``sizes_seed``.
    """
    u = int(case.trace.max()) + 1 if case.trace.size else 1
    rng = np.random.default_rng(case.config.sizes_seed)
    return rng.integers(1, case.config.max_object_size + 1, size=u,
                        dtype=np.int64)


def push_plan_for(case: FuzzCase) -> np.ndarray:
    """Streaming push batch sizes covering the trace, from the config."""
    rng = np.random.default_rng(case.config.push_seed)
    n = case.trace.size
    cuts: list[int] = []
    pos = 0
    while pos < n:
        step = int(rng.integers(1, max(2, min(n - pos, 3 * case.config.k)) + 1))
        step = min(step, n - pos)
        cuts.append(step)
        pos += step
    return np.asarray(cuts, dtype=np.int64)
