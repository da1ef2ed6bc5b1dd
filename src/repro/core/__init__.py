"""Core contribution: INCREMENT-AND-FREEZE and its variants."""

from .api import ALGORITHMS, hit_rate_curve, hit_rate_curves_batch, \
    solve, solve_batch, stack_distances
from .config import BATCHABLE_ALGORITHMS, ENGINE_ALGORITHMS, SolveConfig, \
    SolveResult
from .bounded import (
    BoundedResult,
    bounded_iaf,
    forward_distances_via_reversal,
    parallel_bounded_iaf,
    recent_distinct_suffix,
)
from .chunked import ChunkedIAF, ChunkedResult, chunked_iaf
from .engine import (
    ENGINE_BACKENDS,
    EngineStats,
    Segments,
    batch_segments,
    iaf_distances,
    iaf_distances_batch,
    iaf_hit_rate_curve,
    iaf_hit_rate_curves_batch,
    solve_prepost_arrays,
)
from .external import (
    ExternalRunReport,
    external_iaf_distances,
    external_io_bound_blocks,
)
from .hitrate import (
    HitRateCurve,
    curve_from_backward_distances,
    curve_from_forward_distances,
    forward_from_backward,
    load_curve,
    merge_curves,
    save_curve,
)
from .parallel import ParallelCostReport, measure_parallel_cost
from .partition import (
    partition_prepost,
    partition_prepost_simple,
    prepost_distances,
    solve_prepost,
)
from .prevnext import (
    distinct_count,
    first_occurrence_mask,
    prev_next_arrays,
    prev_next_arrays_python,
)
from .reference import reference_distances, reference_hit_curve_counts
from .sampling import (
    ApproximateCurve,
    estimate_error,
    rescale_curve,
    sample_mask,
    sampled_hit_rate_curve,
    splitmix64,
)
from .streaming import OnlineCurveAnalyzer, analyze_stream
from .weighted import (
    WeightedCurve,
    simulate_weighted_lru,
    weighted_hit_rate_curve,
    weighted_stack_distances,
)

__all__ = [
    "ALGORITHMS",
    "BATCHABLE_ALGORITHMS",
    "ENGINE_ALGORITHMS",
    "SolveConfig",
    "SolveResult",
    "hit_rate_curve",
    "hit_rate_curves_batch",
    "solve",
    "solve_batch",
    "stack_distances",
    "BoundedResult",
    "bounded_iaf",
    "forward_distances_via_reversal",
    "parallel_bounded_iaf",
    "recent_distinct_suffix",
    "ChunkedIAF",
    "ChunkedResult",
    "chunked_iaf",
    "ENGINE_BACKENDS",
    "EngineStats",
    "Segments",
    "batch_segments",
    "iaf_distances",
    "iaf_distances_batch",
    "iaf_hit_rate_curve",
    "iaf_hit_rate_curves_batch",
    "solve_prepost_arrays",
    "ExternalRunReport",
    "external_iaf_distances",
    "external_io_bound_blocks",
    "HitRateCurve",
    "curve_from_backward_distances",
    "curve_from_forward_distances",
    "forward_from_backward",
    "load_curve",
    "merge_curves",
    "save_curve",
    "ParallelCostReport",
    "measure_parallel_cost",
    "partition_prepost",
    "partition_prepost_simple",
    "prepost_distances",
    "solve_prepost",
    "distinct_count",
    "first_occurrence_mask",
    "prev_next_arrays",
    "prev_next_arrays_python",
    "reference_distances",
    "reference_hit_curve_counts",
    "ApproximateCurve",
    "estimate_error",
    "rescale_curve",
    "sample_mask",
    "sampled_hit_rate_curve",
    "splitmix64",
    "OnlineCurveAnalyzer",
    "analyze_stream",
    "WeightedCurve",
    "simulate_weighted_lru",
    "weighted_hit_rate_curve",
    "weighted_stack_distances",
]
