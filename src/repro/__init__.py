"""repro — a Python reproduction of "Increment-and-Freeze: Every Cache,
Everywhere, All of the Time" (Bender, DeLayo, Kuszmaul, Kuszmaul, West;
SPAA 2023).

Quick start::

    import numpy as np
    from repro import SolveConfig, hit_rate_curve, solve

    trace = np.random.default_rng(0).integers(0, 10_000, size=1_000_000)
    curve = hit_rate_curve(trace)            # exact LRU hit-rate curve
    print(curve.hit_rate(4096))              # H_T(4096)

    cfg = SolveConfig(algorithm="parallel-iaf", workers=4)
    result = solve(trace, cfg)               # SolveResult: curve+stats+time
    print(result.wall_seconds, result.stats.levels)

For many concurrent requests, :class:`repro.service.CurveService` runs a
batching solve service with admission control (``python -m repro serve``;
see docs/SERVICE.md).

The package layout mirrors DESIGN.md:

- :mod:`repro.core` — INCREMENT-AND-FREEZE and its bounded / external /
  parallel variants (the paper's contribution).
- :mod:`repro.baselines` — Mattson, OST, SPLAY, PARDA.
- :mod:`repro.workloads` — synthetic trace generators and the Table-1
  catalog.
- :mod:`repro.cache` — direct LRU/OPT/FIFO simulators (ground truth).
- :mod:`repro.extmem` — the simulated external-memory model.
- :mod:`repro.pram` — the CREW PRAM work/span cost model.
- :mod:`repro.metrics` / :mod:`repro.analysis` — measurement and report
  plumbing for the benchmark harness.
- :mod:`repro.obs` — span tracing, unified counters, and exporters
  behind ``python -m repro profile`` (see docs/OBSERVABILITY.md).
- :mod:`repro.qa` — randomized differential testing and fuzzing across
  every implementation (``python -m repro fuzz``; see docs/FUZZING.md).
- :mod:`repro.tenants` — multi-tenant streaming MRCs: per-tenant
  always-queryable curves in exact and hash-sampled tiers with memory
  budgets and tier demotion (see docs/TENANTS.md).
"""

from ._typing import DEFAULT_DTYPE, SUPPORTED_DTYPES, as_trace
from .core import (
    ALGORITHMS,
    ENGINE_BACKENDS,
    ApproximateCurve,
    BoundedResult,
    ChunkedIAF,
    ChunkedResult,
    EngineStats,
    HitRateCurve,
    OnlineCurveAnalyzer,
    SolveConfig,
    SolveResult,
    analyze_stream,
    bounded_iaf,
    chunked_iaf,
    external_iaf_distances,
    hit_rate_curve,
    hit_rate_curves_batch,
    iaf_distances,
    iaf_distances_batch,
    iaf_hit_rate_curve,
    iaf_hit_rate_curves_batch,
    parallel_bounded_iaf,
    sampled_hit_rate_curve,
    solve,
    solve_batch,
    stack_distances,
    weighted_hit_rate_curve,
    weighted_stack_distances,
)
from .errors import ReproError
from .obs import Counters, Tracer, get_tracer, tracing

__version__ = "7.0.0"

__all__ = [
    "ALGORITHMS",
    "ENGINE_BACKENDS",
    "BoundedResult",
    "ChunkedIAF",
    "ChunkedResult",
    "chunked_iaf",
    "DEFAULT_DTYPE",
    "EngineStats",
    "HitRateCurve",
    "OnlineCurveAnalyzer",
    "SolveConfig",
    "SolveResult",
    "analyze_stream",
    "ReproError",
    "SUPPORTED_DTYPES",
    "as_trace",
    "bounded_iaf",
    "Counters",
    "external_iaf_distances",
    "get_tracer",
    "hit_rate_curve",
    "hit_rate_curves_batch",
    "Tracer",
    "tracing",
    "iaf_distances",
    "iaf_distances_batch",
    "iaf_hit_rate_curve",
    "iaf_hit_rate_curves_batch",
    "parallel_bounded_iaf",
    "ApproximateCurve",
    "sampled_hit_rate_curve",
    "solve",
    "solve_batch",
    "stack_distances",
    "weighted_hit_rate_curve",
    "weighted_stack_distances",
    "__version__",
]
