"""Tests for the online streaming analyzer."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.baselines.naive import naive_hit_counts
from repro.core.bounded import bounded_iaf
from repro.core.chunked import _restate_truncation
from repro.core.hitrate import HitRateCurve
from repro.core.streaming import OnlineCurveAnalyzer, analyze_stream
from repro.errors import CapacityError, ReproError

from ..conftest import nonempty_traces


class TestPushSemantics:
    def test_counts_ingested(self):
        a = OnlineCurveAnalyzer(4)
        a.push([1, 2, 3])
        a.push(7)
        assert a.accesses_ingested == 4

    def test_windows_complete_on_chunk_boundary(self):
        a = OnlineCurveAnalyzer(2, chunk_multiplier=2)  # chunk length 4
        assert a.push([1, 2, 3]) == 0
        assert a.windows == []
        assert a.push([4]) == 1
        assert len(a.windows) == 1

    def test_large_push_completes_many_windows(self):
        a = OnlineCurveAnalyzer(2, chunk_multiplier=1)
        completed = a.push(np.arange(11) % 3)
        assert completed == 5
        assert a.flush()
        assert len(a.windows) == 6

    def test_flush_empty_is_noop(self):
        a = OnlineCurveAnalyzer(4)
        assert not a.flush()

    def test_validation(self):
        with pytest.raises(CapacityError):
            OnlineCurveAnalyzer(0)
        with pytest.raises(CapacityError):
            OnlineCurveAnalyzer(2, chunk_multiplier=0)


class TestEquivalenceWithOffline:
    @given(nonempty_traces(max_addr=8), st.integers(1, 8),
           st.integers(1, 3), st.data())
    def test_matches_bounded_iaf(self, trace, k, mult, data):
        """Arbitrary batch boundaries, and queries that commit the
        pending accesses mid-window, never change the result: windows
        stay bit-identical (arrays, lengths and truncation)."""
        offline = bounded_iaf(trace, k, chunk_multiplier=mult)
        analyzer = OnlineCurveAnalyzer(k, chunk_multiplier=mult)
        pos = 0
        while pos < trace.size:
            step = data.draw(st.integers(1, trace.size - pos))
            analyzer.push(trace[pos : pos + step])
            pos += step
            if data.draw(st.booleans()):
                analyzer.curve()
        analyzer.flush()
        assert analyzer.curve().almost_equal(offline.curve)
        assert len(analyzer.windows) == len(offline.windows)
        for got, want in zip(analyzer.windows, offline.windows):
            assert np.array_equal(got.hits_cumulative, want.hits_cumulative)
            assert got.total_accesses == want.total_accesses
            assert got.truncated_at == want.truncated_at

    @given(nonempty_traces(max_addr=8), st.integers(1, 8))
    def test_curve_exact_mid_stream(self, trace, k):
        """curve() answers exactly for every prefix, pending included."""
        analyzer = OnlineCurveAnalyzer(k, chunk_multiplier=2)
        for i in range(trace.size):
            analyzer.push(trace[i])
            prefix = trace[: i + 1]
            want = naive_hit_counts(prefix)
            got = analyzer.curve()
            for kk in range(1, k + 1):
                w = int(want[min(kk, len(want)) - 1]) if len(want) else 0
                assert got.hits(kk) == w, (i, kk)

    def test_analyze_stream_helper(self):
        trace = np.random.default_rng(0).integers(0, 9, size=300)
        batches = [trace[i : i + 37] for i in range(0, trace.size, 37)]
        curve, windows = analyze_stream(batches, 9)
        offline = bounded_iaf(trace, 9, chunk_multiplier=4)
        assert curve.almost_equal(offline.curve)
        assert windows


class TestExpandK:
    def test_grow_only(self):
        a = OnlineCurveAnalyzer(4)
        with pytest.raises(CapacityError):
            a.expand_k(3)

    def test_merged_curve_keeps_smallest_truncation(self):
        tr = np.random.default_rng(1).integers(0, 12, size=64)
        a = OnlineCurveAnalyzer(3, chunk_multiplier=4)
        a.push(tr[:32])
        a.flush()
        a.expand_k(8)
        a.push(tr[32:])
        a.flush()
        curve = a.curve()
        assert curve.truncated_at == 3
        want = naive_hit_counts(tr)
        for kk in (1, 2, 3):
            w = int(want[min(kk, len(want)) - 1]) if len(want) else 0
            assert curve.hits(kk) == w

    def test_preserves_chunk_multiplier(self):
        """Regression: expand_k used to clamp the chunk to ≈k, silently
        discarding chunk_multiplier and the bounded-IAF amortization."""
        a = OnlineCurveAnalyzer(2, chunk_multiplier=4)  # chunk 8
        assert a.chunk_length == 8
        a.expand_k(16)
        assert a.chunk_multiplier == 4
        assert a.chunk_length == 64  # old code: max(8, 16) == 16

    def test_preserves_pending_buffer(self):
        """The partial chunk survives the grow: windows only complete on
        the *new* multiplier·k boundary, with nothing lost or replayed."""
        a = OnlineCurveAnalyzer(2, chunk_multiplier=4)
        a.push([1, 2, 3])  # 3 pending of chunk 8
        a.expand_k(16)     # chunk becomes 64
        assert a.accesses_ingested == 3
        # 61 more fill the window exactly once (old code with chunk 16
        # would have completed four windows here).
        completed = a.push(np.arange(61) % 5)
        assert completed == 1
        assert len(a.windows) == 1
        assert a.accesses_ingested == 64

    def test_windows_after_expand_match_offline_run(self):
        """Post-expansion behavior equals a fresh analyzer at the new k
        fed the same remaining stream against the same Q̄ suffix."""
        tr = np.random.default_rng(3).integers(0, 10, size=48)
        a = OnlineCurveAnalyzer(2, chunk_multiplier=2)
        a.push(tr[:16])   # 4 windows at chunk 4
        a.expand_k(4)     # chunk 8
        a.push(tr[16:])   # 32 more -> 4 windows of 8
        assert len(a.windows) == 8
        want = naive_hit_counts(tr)
        curve = a.curve()
        for kk in (1, 2):  # smallest truncation still rules the merge
            assert curve.hits(kk) == int(want[min(kk, len(want)) - 1])


    def test_window_spanning_query_and_expand_keeps_smaller_k(self):
        """The accesses a query solved at the old k cannot be solved
        again, so their window stays truncated at the smaller k."""
        tr = np.random.default_rng(4).integers(0, 10, size=16)
        queried = OnlineCurveAnalyzer(2, chunk_multiplier=4)  # window 8
        plain = OnlineCurveAnalyzer(2, chunk_multiplier=4)
        for a in (queried, plain):
            a.push(tr[:3])
            if a is queried:
                a.curve()  # commits 3 accesses at k = 2
            a.expand_k(4)  # window 16
            assert a.push(tr[3:]) == 1
        assert plain.windows[0].truncated_at == 4
        window = queried.windows[0]
        assert window.truncated_at == 2
        assert window.total_accesses == 16
        want = naive_hit_counts(tr)
        for kk in (1, 2):
            assert window.hits(kk) == int(want[min(kk, len(want)) - 1])


class TestRetruncate:
    def test_short_window_padded_to_full_length(self):
        """Regression: a window curve shorter than k was sliced by a
        no-op ``[:k]`` yet labeled ``truncated_at=k`` — the merged curve
        claimed k explicit sizes while storing fewer."""
        a = OnlineCurveAnalyzer(5)
        a.push([1, 1])  # max reuse distance 1 -> stored curve length 1
        curve = a.curve()
        assert curve.truncated_at == 5
        assert curve.max_size == 5  # old code: max_size == 1
        assert curve.hits(5) == 1

    def test_padding_is_exact_flat_tail(self):
        got = _restate_truncation(
            HitRateCurve(np.array([3], dtype=np.int64), 10,
                         truncated_at=8),
            5,
        )
        assert got.truncated_at == 5
        assert np.array_equal(got.hits_cumulative, [3, 3, 3, 3, 3])

    def test_long_curve_cut_to_k(self):
        got = _restate_truncation(
            HitRateCurve(np.array([1, 2, 3, 4], dtype=np.int64), 10,
                         truncated_at=4),
            2,
        )
        assert got.truncated_at == 2
        assert np.array_equal(got.hits_cumulative, [1, 2])

    def test_refuses_to_extend_past_truncation(self):
        short = HitRateCurve(np.array([2], dtype=np.int64), 4,
                             truncated_at=2)
        with pytest.raises(ReproError, match="truncated at 2"):
            _restate_truncation(short, 5)

    def test_mixed_length_windows_merge_cleanly(self):
        """Windows with different stored lengths (hot window: short
        curve; scan window: full length) merge into one full-length,
        correctly labeled curve."""
        a = OnlineCurveAnalyzer(4, chunk_multiplier=1)
        a.push([7, 7, 7, 7])          # window 0: all distance-1 hits
        a.push([1, 2, 3, 4])          # window 1: compulsory misses
        merged = a.curve()
        assert merged.truncated_at == 4
        assert merged.max_size == 4
        want = naive_hit_counts(np.array([7, 7, 7, 7, 1, 2, 3, 4]))
        for kk in range(1, 5):
            assert merged.hits(kk) == int(want[min(kk, len(want)) - 1])
