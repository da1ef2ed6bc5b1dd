"""Unified request/response types for every solve entry point.

Before this module, each façade function grew its own keyword sprawl
(``algorithm=``, ``max_cache_size=``, ``workers=``, ``dtype=``,
``memory_config=``, ``engine_backend=``, ...) and each variant returned
a different ad-hoc shape (a bare curve, a ``(distances, report)`` tuple,
a ``BoundedResult``).  The serving layer (:mod:`repro.service`) needs
one value it can queue, hash into a batching key, and hand to any
worker — so the request side is a frozen :class:`SolveConfig` and the
response side a :class:`SolveResult`:

* :class:`SolveConfig` — everything that selects *how* to solve, with
  validation at construction.  Immutable, so a config can be shared by
  many concurrent requests and used as (part of) a coalescing key.
* :class:`SolveResult` — curve + distances + stats + timing in one
  object with stable attribute names (``.curve`` / ``.stats``), the
  same names :class:`~repro.core.bounded.BoundedResult` and
  :class:`~repro.core.external.ExternalRunReport` carry.

The 1.x keyword style (``hit_rate_curve(trace, algorithm=...)``) was
removed in 2.0; see docs/API.md.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Dict, Optional, Tuple

import numpy as np

from .._typing import SUPPORTED_DTYPES
from ..errors import CapacityError, ReproError
from ..extmem.blockdevice import MemoryConfig
from .engine import ENGINE_BACKENDS, EngineStats, resolve_engine_backend
from .hitrate import HitRateCurve

#: Algorithms usable with :func:`repro.core.api.hit_rate_curve` /
#: :func:`repro.core.api.solve`.
ALGORITHMS = (
    "iaf",
    "bounded-iaf",
    "chunked-iaf",
    "parallel-iaf",
    "process-iaf",
    "external-iaf",
    "reference",
    "ost",
    "splay",
    "parda",
    "mattson",
    "fenwick",
)

#: Algorithms built on the vectorized engine (honor ``stats=`` and
#: ``engine_backend=``).
ENGINE_ALGORITHMS = ("iaf", "bounded-iaf", "chunked-iaf", "parallel-iaf")

#: Algorithms whose requests may be coalesced into one batched level
#: loop by :func:`repro.core.api.solve_batch` / the serving layer.
BATCHABLE_ALGORITHMS = ("iaf", "parallel-iaf")


@dataclass(frozen=True)
class SolveConfig:
    """How to solve one hit-rate-curve request.

    ``dtype=None`` means "the library default": int64 addresses, and
    every engine solve — single, batched, chunked, bounded — runs int32
    ops and an int32 accumulator wherever
    :func:`repro.core.engine.certify_int32` proves them exact, int64
    otherwise.  An explicit ``dtype`` pins addresses and counters alike
    (the Section 9.5 width knob).  ``chunk_size`` is the
    per-chunk run length of ``chunked-iaf`` (``None`` means the module default,
    :data:`repro.core.chunked.DEFAULT_CHUNK_SIZE`); the result is
    bit-identical for every value, only the working set changes.  Other
    algorithms ignore it.  ``engine_backend=None`` means "the process
    default" (``REPRO_ENGINE_BACKEND`` or ``"fused"``); ``"compiled"``
    degrades to ``"fused"`` with one warning when numba is unavailable
    (see :func:`repro.core.engine.resolve_engine_backend`).

    A config holds values only, never scratch state: the engine's level
    buffers belong to the solving thread
    (:func:`repro.core.engine.thread_workspace`), so one config can be
    shared by any number of concurrent solves.
    """

    algorithm: str = "iaf"
    max_cache_size: Optional[int] = None
    workers: int = 1
    dtype: Optional["np.typing.DTypeLike"] = None
    memory_config: Optional[MemoryConfig] = None
    engine_backend: Optional[str] = None
    chunk_size: Optional[int] = None

    def __post_init__(self) -> None:
        if self.algorithm not in ALGORITHMS:
            raise ReproError(
                f"unknown algorithm {self.algorithm!r}; "
                f"choose from {ALGORITHMS}"
            )
        if self.engine_backend is not None and \
                self.engine_backend not in ENGINE_BACKENDS:
            raise ReproError(
                f"unknown engine backend {self.engine_backend!r}; "
                f"choose from {ENGINE_BACKENDS}"
            )
        if self.workers < 1:
            raise CapacityError(
                f"workers must be >= 1, got {self.workers}"
            )
        if self.max_cache_size is not None and self.max_cache_size < 1:
            raise ReproError(
                f"max_cache_size must be >= 1, got {self.max_cache_size}"
            )
        if self.chunk_size is not None and self.chunk_size < 1:
            raise ReproError(
                f"chunk_size must be >= 1, got {self.chunk_size}"
            )
        if self.dtype is not None and np.dtype(self.dtype) not in \
                SUPPORTED_DTYPES:
            raise ReproError(
                f"unsupported dtype {self.dtype!r}; supported: "
                + ", ".join(str(d) for d in SUPPORTED_DTYPES)
            )

    def replace(self, **changes: Any) -> "SolveConfig":
        """A copy with the given fields changed (validated again)."""
        return replace(self, **changes)

    def batch_key(self) -> Tuple[str, str, str, int]:
        """Coalescing key: requests with equal keys may share one batch.

        Batched solves share the level loop's dtype and kernel, so only
        those knobs partition the batch; ``max_cache_size`` is a
        per-request post-processing step and deliberately excluded.
        ``workers`` only matters for ``parallel-iaf`` (plain ``iaf``
        batches ignore it, so it must not split them).
        """
        return (
            self.algorithm,
            "auto" if self.dtype is None else str(np.dtype(self.dtype)),
            # The *effective* kernel, so compiled requests degraded to
            # fused (numba absent) still coalesce with fused ones.
            resolve_engine_backend(self.engine_backend),
            self.workers if self.algorithm == "parallel-iaf" else 0,
        )

    @property
    def batchable(self) -> bool:
        """Whether requests with this config can ride a coalesced solve."""
        return self.algorithm in BATCHABLE_ALGORITHMS


@dataclass
class SolveResult:
    """Everything one solve produced, under one set of attribute names.

    ``stats`` is the solve's instrumentation: an
    :class:`~repro.core.engine.EngineStats` for the engine algorithms,
    an :class:`~repro.extmem.iostats.IOStats` for ``external-iaf``,
    ``None`` for the baselines.  ``distances`` is the backward distance
    vector when the algorithm materializes one (``iaf``,
    ``parallel-iaf``, ``process-iaf``, ``external-iaf``,
    ``reference``); curve-only algorithms leave it ``None``, and so
    does an ``iaf`` solve that :func:`repro.core.api.runs_chunked`.
    For batched solves, ``wall_seconds`` is the whole batch's wall time
    (the per-request marginal cost is not separable from a coalesced
    level loop).
    """

    curve: HitRateCurve
    config: SolveConfig
    stats: Optional[Any] = None
    distances: Optional[np.ndarray] = field(default=None, repr=False)
    wall_seconds: float = 0.0
    batched: bool = False

    @property
    def algorithm(self) -> str:
        return self.config.algorithm

    def summary(self) -> Dict[str, Any]:
        """Small JSON-friendly digest (used by ``repro serve``)."""
        return {
            "algorithm": self.algorithm,
            "total_accesses": int(self.curve.total_accesses),
            "max_size": int(self.curve.max_size),
            "truncated_at": self.curve.truncated_at,
            "wall_seconds": self.wall_seconds,
            "batched": self.batched,
        }


__all__ = [
    "ALGORITHMS",
    "BATCHABLE_ALGORITHMS",
    "ENGINE_ALGORITHMS",
    "EngineStats",
    "SolveConfig",
    "SolveResult",
]
