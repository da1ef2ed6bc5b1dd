"""Tests for BOUNDED-INCREMENT-AND-FREEZE (Section 7)."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.baselines.naive import naive_hit_counts, naive_stack_distances
from repro.core.bounded import (
    bounded_iaf,
    forward_distances_via_reversal,
    parallel_bounded_iaf,
    recent_distinct_suffix,
)
from repro.core.engine import iaf_hit_rate_curve
from repro.errors import CapacityError
from repro.metrics.memory import MemoryModel

from ..conftest import nonempty_traces, small_traces


class TestRecentDistinctSuffix:
    def test_orders_by_last_access(self):
        empty = np.zeros(0, dtype=np.int64)
        out = recent_distinct_suffix(empty, np.array([1, 2, 1, 3]), 10)
        assert out.tolist() == [2, 1, 3]  # least-recent first

    def test_truncates_to_k(self):
        empty = np.zeros(0, dtype=np.int64)
        out = recent_distinct_suffix(empty, np.array([1, 2, 3, 4]), 2)
        assert out.tolist() == [3, 4]

    def test_history_refreshes_recency(self):
        hist = np.array([5, 6])  # 6 most recent
        out = recent_distinct_suffix(hist, np.array([5]), 10)
        assert out.tolist() == [6, 5]

    def test_rejects_bad_k(self):
        with pytest.raises(CapacityError):
            recent_distinct_suffix(np.zeros(0, np.int64), np.array([1]), 0)

    @given(small_traces(max_len=30), st.integers(1, 10), st.integers(1, 15))
    def test_associativity_of_chunked_updates(self, trace, cut_frac, k):
        """Q̄ built incrementally equals Q̄ built in one shot (Section 7's ∘)."""
        empty = np.zeros(0, dtype=trace.dtype)
        whole = recent_distinct_suffix(empty, trace, k)
        cut = (trace.size * cut_frac) // 10
        step1 = recent_distinct_suffix(empty, trace[:cut], k)
        step2 = recent_distinct_suffix(step1, trace[cut:], k)
        assert whole.tolist() == step2.tolist()


class TestForwardDistances:
    @given(small_traces())
    def test_reversal_duality(self, trace):
        """f(T) = reverse(d(reverse(T))) equals the naive stack distance
        on re-accessed items."""
        f = forward_distances_via_reversal(trace)
        want = naive_stack_distances(trace)
        has_prev = want > 0
        assert np.array_equal(f[has_prev], want[has_prev])


class TestBoundedIAF:
    @given(nonempty_traces(max_len=40, max_addr=10), st.integers(1, 12),
           st.integers(1, 3))
    def test_truncated_curve_matches_naive(self, trace, k, mult):
        res = bounded_iaf(trace, k, chunk_multiplier=mult)
        want = naive_hit_counts(trace)
        for kk in range(1, k + 1):
            w = int(want[min(kk, len(want)) - 1]) if len(want) else 0
            assert res.curve.hits(kk) == w

    def test_defaults_k_to_universe(self):
        tr = np.array([1, 2, 3, 1, 2, 3])
        res = bounded_iaf(tr)
        assert res.k == 3
        full = iaf_hit_rate_curve(tr)
        for kk in range(1, 4):
            assert res.curve.hits(kk) == full.hits(kk)

    def test_empty_trace(self):
        res = bounded_iaf(np.array([], dtype=np.int64))
        assert res.curve.total_accesses == 0
        assert res.windows == []

    def test_rejects_bad_parameters(self):
        with pytest.raises(CapacityError):
            bounded_iaf([1, 2], 0)
        with pytest.raises(CapacityError):
            bounded_iaf([1, 2], 1, chunk_multiplier=0)

    def test_chunk_bounds_cover_trace(self):
        tr = np.arange(10) % 3
        res = bounded_iaf(tr, 2)
        assert res.chunk_bounds[0][0] == 0
        assert res.chunk_bounds[-1][1] == tr.size
        for (a0, b0), (a1, _b1) in zip(res.chunk_bounds, res.chunk_bounds[1:]):
            assert b0 == a1

    def test_windows_sum_to_curve(self):
        tr = np.random.default_rng(0).integers(0, 8, size=100)
        res = bounded_iaf(tr, 4)
        total = sum(w.total_accesses for w in res.windows)
        assert total == tr.size
        merged_hits = sum(w.hits(4) for w in res.windows)
        assert merged_hits == res.curve.hits(4)

    def test_memory_is_order_k_not_order_n(self):
        """The whole point of Section 7: O(k) working state."""
        rng = np.random.default_rng(0)
        k = 16
        small = bounded_iaf(rng.integers(0, 1000, 2_000), k,
                            memory=(m1 := MemoryModel()))
        large = bounded_iaf(rng.integers(0, 1000, 20_000), k,
                            memory=(m2 := MemoryModel()))
        assert small.curve is not None and large.curve is not None
        # 10x the trace should not inflate the peak working set much.
        assert m2.peak_bytes <= 2 * m1.peak_bytes

    def test_windowed_curves_reflect_phase_change(self):
        """Two disjoint working sets: per-window curves differ sharply."""
        a = np.tile(np.arange(4), 50)          # hot set {0..3}
        b = np.tile(np.arange(100, 104), 50)   # hot set {100..103}
        tr = np.concatenate([a, b])
        res = bounded_iaf(tr, 8, chunk_multiplier=25)
        assert len(res.windows) == 2
        # Both windows are self-similar; each has high hit rate at k=4.
        assert res.windows[0].hit_rate(4) > 0.9
        assert res.windows[1].hit_rate(4) > 0.9


class TestParallelBounded:
    @given(nonempty_traces(max_len=40, max_addr=10), st.integers(1, 8),
           st.integers(1, 4))
    def test_matches_serial(self, trace, k, workers):
        """The Q̄ prefix scan and the serial living carry agree window
        by window, array for array."""
        serial = bounded_iaf(trace, k)
        par = parallel_bounded_iaf(trace, k, workers=workers)
        assert par.chunk_bounds == serial.chunk_bounds
        assert len(par.windows) == len(serial.windows)
        for got, want in zip(par.windows, serial.windows):
            assert np.array_equal(got.hits_cumulative, want.hits_cumulative)
            assert got.total_accesses == want.total_accesses
            assert got.truncated_at == want.truncated_at
        assert np.array_equal(par.curve.hits_cumulative,
                              serial.curve.hits_cumulative)

    def test_rejects_bad_workers(self):
        with pytest.raises(CapacityError):
            parallel_bounded_iaf([1, 2], 1, workers=0)

    def test_empty(self):
        res = parallel_bounded_iaf(np.array([], dtype=np.int64), 3)
        assert res.curve.total_accesses == 0
