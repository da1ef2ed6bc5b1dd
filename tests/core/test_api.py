"""Tests for the public façade (repro.core.api)."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro import ALGORITHMS, SolveConfig, hit_rate_curve, stack_distances
from repro.baselines.naive import naive_hit_counts, naive_stack_distances
from repro.errors import ReproError
from repro.extmem.blockdevice import MemoryConfig

from ..conftest import nonempty_traces


class TestHitRateCurveDispatch:
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_every_algorithm_agrees_with_naive(self, algorithm, rng):
        tr = rng.integers(0, 12, size=120)
        want = naive_hit_counts(tr)
        kwargs = {}
        if algorithm in ("parallel-iaf", "parda"):
            kwargs["workers"] = 3
        if algorithm == "bounded-iaf":
            kwargs["max_cache_size"] = 12
        curve = hit_rate_curve(tr, SolveConfig(algorithm=algorithm, **kwargs))
        for k in (1, 3, 12):
            w = int(want[min(k, len(want)) - 1]) if len(want) else 0
            assert curve.hits(k) == w, algorithm

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(ReproError):
            hit_rate_curve([1, 2], SolveConfig(algorithm="magic"))

    def test_truncation_applies_to_full_algorithms(self):
        tr = np.array([1, 2, 3, 1, 2, 3])
        c = hit_rate_curve(tr, SolveConfig(max_cache_size=2))
        assert c.truncated_at == 2
        assert c.max_size <= 2
        with pytest.raises(ReproError):
            c.hits(3)

    def test_bad_truncation_rejected(self):
        with pytest.raises(ReproError):
            hit_rate_curve([1, 2], SolveConfig(max_cache_size=0))

    def test_external_accepts_memory_config(self):
        tr = np.random.default_rng(0).integers(0, 10, size=50)
        c = hit_rate_curve(tr, SolveConfig(
            algorithm="external-iaf", memory_config=MemoryConfig(64, 8),
        ))
        assert np.array_equal(c.hits_cumulative, naive_hit_counts(tr))

    def test_dtype_knob(self):
        tr = np.random.default_rng(0).integers(0, 10, size=50)
        c32 = hit_rate_curve(tr, SolveConfig(dtype=np.int32))
        c64 = hit_rate_curve(tr, SolveConfig(dtype=np.int64))
        assert c32.almost_equal(c64)


class TestStackDistances:
    @given(nonempty_traces())
    def test_matches_naive(self, trace):
        assert np.array_equal(
            stack_distances(trace), naive_stack_distances(trace)
        )

    def test_parallel_variant(self):
        tr = np.random.default_rng(0).integers(0, 9, size=200)
        assert np.array_equal(
            stack_distances(tr, SolveConfig(algorithm="parallel-iaf",
                                            workers=3)),
            naive_stack_distances(tr),
        )

    def test_reference_variant(self):
        tr = np.random.default_rng(0).integers(0, 9, size=60)
        assert np.array_equal(
            stack_distances(tr, SolveConfig(algorithm="reference")),
            naive_stack_distances(tr),
        )

    def test_unsupported_algorithm_rejected(self):
        with pytest.raises(ReproError):
            stack_distances([1], SolveConfig(algorithm="ost"))

    def test_distance_defines_hit(self):
        """out[i] <= k and nonzero iff access i hits a size-k LRU cache."""
        from repro.cache import LRUCache

        tr = np.random.default_rng(4).integers(0, 7, size=150)
        dist = stack_distances(tr)
        k = 3
        cache = LRUCache(k)
        for i, addr in enumerate(tr.tolist()):
            hit = cache.access(addr)
            assert hit == (0 < dist[i] <= k), i
