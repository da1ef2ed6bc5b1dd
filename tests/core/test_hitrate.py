"""Tests for hit-rate-curve construction and the HitRateCurve type."""

import numpy as np
import pytest
from hypothesis import given

from repro.baselines.naive import naive_hit_counts, naive_stack_distances
from repro.core.engine import iaf_distances
from repro.core.hitrate import (
    HitRateCurve,
    curve_from_backward_distances,
    curve_from_forward_distances,
    forward_from_backward,
    merge_curves,
)
from repro.core.prevnext import prev_next_arrays
from repro.errors import ReproError

from ..conftest import small_traces


def _curve(counts, total, truncated=None):
    return HitRateCurve(np.asarray(counts, dtype=np.int64), total, truncated)


class TestHitRateCurveType:
    def test_lookup_clamps_to_flat_tail(self):
        c = _curve([1, 3, 4], 10)
        assert c.hits(3) == 4
        assert c.hits(99) == 4
        assert c.hit_rate(99) == 0.4

    def test_size_zero_cache_never_hits(self):
        assert _curve([1], 10).hits(0) == 0

    def test_negative_size_rejected(self):
        with pytest.raises(ReproError):
            _curve([1], 10).hits(-1)

    def test_empty_curve(self):
        c = _curve([], 0)
        assert c.hit_rate(5) == 0.0
        assert c.hit_rate_array().size == 0

    def test_monotonicity_enforced(self):
        with pytest.raises(ReproError):
            _curve([3, 1], 10)

    def test_hits_cannot_exceed_total(self):
        with pytest.raises(ReproError):
            _curve([3, 11], 10)

    def test_truncated_lookup_beyond_k_rejected(self):
        c = _curve([1, 2], 10, truncated=4)
        assert c.hits(4) == 2  # flat within the truncation bound
        with pytest.raises(ReproError):
            c.hits(5)

    def test_miss_ratio_is_complement(self):
        c = _curve([2, 5], 10)
        assert np.allclose(c.miss_ratio_array() + c.hit_rate_array(), 1.0)


class TestMerge:
    def test_merge_pads_flat_tails(self):
        a = _curve([1, 2], 10)
        b = _curve([1, 1, 5], 10)
        m = a.merge(b)
        assert m.hits_cumulative.tolist() == [2, 3, 7]
        assert m.total_accesses == 20

    def test_merge_mismatched_truncation_rejected(self):
        with pytest.raises(ReproError):
            _curve([1], 5, truncated=3).merge(_curve([1], 5))

    def test_merge_curves_empty(self):
        m = merge_curves([])
        assert m.total_accesses == 0

    @given(small_traces(max_len=30))
    def test_windowed_merge_equals_global(self, trace):
        """Summing per-window curves (global distances) = whole curve."""
        n = trace.size
        if n < 2:
            return
        d = iaf_distances(trace)
        prev, nxt = prev_next_arrays(trace)
        f = forward_from_backward(d, prev)
        cut = n // 2
        parts = []
        for sl in (slice(0, cut), slice(cut, n)):
            parts.append(curve_from_forward_distances(f[sl], prev[sl]))
        merged = merge_curves(parts)
        whole = curve_from_backward_distances(d, nxt)
        assert merged.almost_equal(whole)


class TestConstruction:
    @given(small_traces())
    def test_backward_and_forward_agree(self, trace):
        d = iaf_distances(trace)
        prev, nxt = prev_next_arrays(trace)
        via_backward = curve_from_backward_distances(d, nxt)
        via_forward = curve_from_forward_distances(
            forward_from_backward(d, prev), prev
        )
        assert via_backward.almost_equal(via_forward)

    @given(small_traces())
    def test_forward_from_backward_matches_naive(self, trace):
        d = iaf_distances(trace)
        prev, _ = prev_next_arrays(trace)
        assert np.array_equal(
            forward_from_backward(d, prev), naive_stack_distances(trace)
        )

    def test_truncated_construction_drops_large_distances(self):
        f = np.array([0, 1, 5, 2])
        prev = np.array([-1, 0, 1, 2])
        c = curve_from_forward_distances(f, prev, truncated_at=3)
        assert c.truncated_at == 3
        assert c.hits(3) == 2  # distances 1 and 2; the 5 is out of range

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ReproError):
            curve_from_backward_distances(np.array([1]), np.array([1, 2]))
        with pytest.raises(ReproError):
            curve_from_backward_distances(np.array([1]),
                                          prev=np.array([-1, 0]))

    @given(small_traces())
    def test_prev_selects_the_same_distances_as_next(self, trace):
        """``d[prev[prev >= 0]]`` is the multiset ``d[next < n]``."""
        d = iaf_distances(trace)
        prev, nxt = prev_next_arrays(trace)
        via_next = curve_from_backward_distances(d, nxt)
        via_prev = curve_from_backward_distances(d, prev=prev)
        assert np.array_equal(via_prev.hits_cumulative,
                              via_next.hits_cumulative)
        assert via_prev.total_accesses == via_next.total_accesses

    def test_exactly_one_of_next_and_prev(self):
        d, prev, nxt = np.array([1, 1]), np.array([-1, 0]), np.array([1, 2])
        with pytest.raises(ReproError, match="exactly one"):
            curve_from_backward_distances(d)
        with pytest.raises(ReproError, match="exactly one"):
            curve_from_backward_distances(d, nxt, prev=prev)

    @given(small_traces())
    def test_curve_is_naive_curve(self, trace):
        d = iaf_distances(trace)
        _, nxt = prev_next_arrays(trace)
        got = curve_from_backward_distances(d, nxt)
        want = naive_hit_counts(trace)
        assert np.array_equal(got.hits_cumulative, want)


class TestPersistence:
    def test_round_trip(self, tmp_path):
        from repro.core.hitrate import load_curve, save_curve

        c = _curve([2, 5, 9], 20)
        path = tmp_path / "c.npz"
        save_curve(c, path)
        loaded = load_curve(path)
        assert loaded.almost_equal(c)
        assert loaded.truncated_at is None

    def test_round_trip_truncated(self, tmp_path):
        from repro.core.hitrate import load_curve, save_curve

        c = _curve([2, 5], 20, truncated=4)
        path = tmp_path / "c.npz"
        save_curve(c, path)
        loaded = load_curve(path)
        assert loaded.truncated_at == 4
        assert loaded.hits(4) == 5

    def test_bad_file_rejected(self, tmp_path):
        import numpy as np

        from repro.core.hitrate import load_curve

        path = tmp_path / "junk.npz"
        np.savez(path, something=np.arange(3))
        with pytest.raises(ReproError):
            load_curve(path)
