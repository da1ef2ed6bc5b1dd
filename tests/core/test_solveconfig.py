"""The unified SolveConfig/SolveResult request API (PR 4 satellites).

Covers: config validation, the removed keyword style (2.0),
``return_stats`` result shapes, the ``_truncate`` metadata-preservation
regression, and the unified ``.curve``/``.stats`` attribute names on
``BoundedResult`` and ``ExternalRunReport``.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from repro import (
    SolveConfig,
    SolveResult,
    hit_rate_curve,
    hit_rate_curves_batch,
    solve,
    solve_batch,
    stack_distances,
)
from repro.baselines.naive import naive_stack_distances
from repro.core.api import _truncate
from repro.core.bounded import bounded_iaf
from repro.core.engine import EngineStats, iaf_hit_rate_curve
from repro.core.external import external_iaf_distances
from repro.core.hitrate import HitRateCurve
from repro.errors import CapacityError, ReproError
from repro.extmem.blockdevice import MemoryConfig


@pytest.fixture
def trace(rng):
    return rng.integers(0, 64, size=1500)


class TestSolveConfigValidation:
    def test_defaults_are_valid(self):
        cfg = SolveConfig()
        assert cfg.algorithm == "iaf"
        assert cfg.dtype is None

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(ReproError, match="unknown algorithm"):
            SolveConfig(algorithm="magic")

    def test_unknown_backend_rejected(self):
        with pytest.raises(ReproError, match="engine backend"):
            SolveConfig(engine_backend="cuda")

    def test_bad_workers_rejected(self):
        with pytest.raises(CapacityError):
            SolveConfig(workers=0)

    def test_bad_max_cache_size_rejected(self):
        with pytest.raises(ReproError):
            SolveConfig(max_cache_size=0)

    def test_unsupported_dtype_rejected(self):
        with pytest.raises(ReproError, match="dtype"):
            SolveConfig(dtype=np.float64)

    def test_replace_revalidates(self):
        cfg = SolveConfig()
        assert cfg.replace(workers=3).workers == 3
        with pytest.raises(CapacityError):
            cfg.replace(workers=-1)

    def test_frozen(self):
        with pytest.raises(Exception):
            SolveConfig().algorithm = "ost"  # type: ignore[misc]


class TestBatchKey:
    def test_iaf_ignores_workers(self):
        a = SolveConfig(workers=1)
        b = SolveConfig(workers=8)
        assert a.batch_key() == b.batch_key()

    def test_parallel_iaf_splits_on_workers(self):
        a = SolveConfig(algorithm="parallel-iaf", workers=2)
        b = SolveConfig(algorithm="parallel-iaf", workers=4)
        assert a.batch_key() != b.batch_key()

    def test_max_cache_size_not_in_key(self):
        assert SolveConfig(max_cache_size=8).batch_key() == \
            SolveConfig(max_cache_size=999).batch_key()

    def test_dtype_partitions(self):
        assert SolveConfig(dtype=np.int32).batch_key() != \
            SolveConfig().batch_key()

    def test_batchable(self):
        assert SolveConfig().batchable
        assert SolveConfig(algorithm="parallel-iaf").batchable
        assert not SolveConfig(algorithm="ost").batchable
        assert not SolveConfig(algorithm="chunked-iaf").batchable


class TestSolve:
    def test_result_shape(self, trace):
        result = solve(trace, SolveConfig())
        assert isinstance(result, SolveResult)
        assert isinstance(result.curve, HitRateCurve)
        assert isinstance(result.stats, EngineStats)
        assert result.curve.stats is result.stats
        assert result.distances is not None
        assert result.distances.size == trace.size
        assert result.wall_seconds > 0
        assert not result.batched
        assert result.algorithm == "iaf"

    def test_default_config(self, trace):
        assert solve(trace).curve.almost_equal(iaf_hit_rate_curve(trace))

    def test_caller_supplied_stats(self, trace):
        stats = EngineStats()
        result = solve(trace, stats=stats)
        assert result.stats is stats
        assert stats.levels > 0

    def test_baseline_has_no_stats(self, trace):
        result = solve(trace, SolveConfig(algorithm="ost"))
        assert result.stats is None
        assert result.distances is None

    def test_summary_is_json_friendly(self, trace):
        import json

        payload = solve(trace, SolveConfig(max_cache_size=32)).summary()
        parsed = json.loads(json.dumps(payload))
        assert parsed["truncated_at"] == 32
        assert parsed["algorithm"] == "iaf"

    def test_truncation_matches_legacy(self, trace):
        result = solve(trace, SolveConfig(max_cache_size=16))
        assert result.curve.truncated_at == 16
        with pytest.raises(ReproError):
            result.curve.hits(17)


class TestDeprecationShim:
    """The 1.x keyword shim was removed in 2.0: keywords are TypeErrors."""

    def test_config_style_never_warns(self, trace):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("error", DeprecationWarning)
            hit_rate_curve(trace, SolveConfig(max_cache_size=8))
            stack_distances(trace, SolveConfig())
            hit_rate_curves_batch([trace], SolveConfig())
        assert not caught

    def test_legacy_keyword_is_a_typeerror(self, trace):
        with pytest.raises(TypeError, match="unexpected keyword"):
            hit_rate_curve(trace, algorithm="iaf")

    def test_unknown_keyword_is_a_typeerror(self, trace):
        with pytest.raises(TypeError, match="unexpected keyword"):
            hit_rate_curve(trace, algorithmm="iaf")  # typo

    def test_return_stats_returns_result(self, trace):
        result = hit_rate_curve(trace, SolveConfig(), return_stats=True)
        assert isinstance(result, SolveResult)
        assert result.curve.almost_equal(hit_rate_curve(trace))


class TestSolveBatch:
    def test_bit_identical_to_singles(self, rng):
        traces = [rng.integers(0, 32, size=int(n))
                  for n in rng.integers(1, 400, size=8)]
        batch = solve_batch(traces)
        singles = [solve(t) for t in traces]
        for b, s in zip(batch, singles):
            assert np.array_equal(b.curve.hits_cumulative,
                                  s.curve.hits_cumulative)
            assert np.array_equal(b.distances, s.distances)
            assert b.batched and not s.batched

    def test_shared_stats_and_wall(self, rng):
        traces = [rng.integers(0, 16, size=100) for _ in range(3)]
        batch = solve_batch(traces)
        assert batch[0].stats is batch[1].stats is batch[2].stats
        assert batch[0].wall_seconds == batch[1].wall_seconds

    def test_truncation_applied_per_result(self, rng):
        traces = [rng.integers(0, 64, size=500) for _ in range(2)]
        batch = solve_batch(traces, SolveConfig(max_cache_size=8))
        assert all(r.curve.truncated_at == 8 for r in batch)

    def test_non_batchable_algorithm_falls_back(self, rng):
        traces = [rng.integers(0, 16, size=120) for _ in range(2)]
        batch = solve_batch(traces, SolveConfig(algorithm="ost"))
        assert all(not r.batched for r in batch)
        direct = solve(traces[0], SolveConfig(algorithm="ost"))
        assert batch[0].curve.almost_equal(direct.curve)


class TestTruncateMetadata:
    """Regression: _truncate used to drop curve metadata."""

    def test_preserves_stats_linkage(self, trace):
        result = solve(trace)
        cut = _truncate(result.curve, 8)
        assert cut.stats is result.stats
        assert cut.truncated_at == 8

    def test_already_truncated_curve_unchanged(self):
        curve = HitRateCurve(np.array([1, 2, 3]), 10, truncated_at=3)
        assert _truncate(curve, 5) is curve
        assert _truncate(curve, 3) is curve

    def test_tighter_bound_still_cuts(self):
        curve = HitRateCurve(np.array([1, 2, 3]), 10, truncated_at=3,
                             stats="marker")
        cut = _truncate(curve, 2)
        assert cut.truncated_at == 2
        assert cut.max_size == 2
        assert cut.stats == "marker"

    def test_rejects_nonpositive(self):
        with pytest.raises(ReproError):
            _truncate(HitRateCurve(np.array([1]), 1), 0)


class TestUnifiedResultShapes:
    def test_bounded_result_has_stats(self, trace):
        stats = EngineStats()
        res = bounded_iaf(trace, 16, stats=stats)
        assert res.stats is stats
        assert res.curve.stats is stats

    def test_external_report_gains_curve(self, trace):
        result = solve(trace, SolveConfig(algorithm="external-iaf"))
        assert result.stats is not None  # the IOStats
        assert result.stats.total_blocks > 0

    def test_external_report_curve_attribute(self, trace):
        _d, report = external_iaf_distances(
            trace, MemoryConfig(memory_items=4096, block_items=64)
        )
        assert report.curve is None  # only solve() attaches it
        assert hasattr(report, "stats")

    def test_curve_stats_never_compared(self):
        import dataclasses

        stats_field = next(f for f in dataclasses.fields(HitRateCurve)
                           if f.name == "stats")
        assert stats_field.compare is False
        assert stats_field.repr is False


class TestStackDistancesConfig:
    def test_config_style(self, trace):
        d = stack_distances(trace, SolveConfig())
        assert np.array_equal(d, naive_stack_distances(trace))

    def test_unsupported_algorithm(self, trace):
        with pytest.raises(ReproError, match="stack_distances supports"):
            stack_distances(trace, SolveConfig(algorithm="ost"))

    def test_curve_kwargs_rejected(self, trace):
        with pytest.raises(TypeError):
            stack_distances(trace, max_cache_size=4)
