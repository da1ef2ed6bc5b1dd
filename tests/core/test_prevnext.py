"""Tests for the pre-processing phase (prev/next computation)."""

import numpy as np
import pytest
from hypothesis import given

from repro._typing import as_trace
from repro.core.prevnext import (
    distinct_count,
    first_occurrence_mask,
    prev_next_arrays,
    prev_next_arrays_python,
)
from repro.errors import TraceError

from ..conftest import small_traces


class TestPrevNextBasics:
    def test_empty_trace(self):
        prev, nxt = prev_next_arrays(np.array([], dtype=np.int64))
        assert prev.size == 0 and nxt.size == 0

    def test_single_access(self):
        prev, nxt = prev_next_arrays(np.array([7]))
        assert prev.tolist() == [-1]
        assert nxt.tolist() == [1]

    def test_repeated_single_address(self):
        prev, nxt = prev_next_arrays(np.array([3, 3, 3]))
        assert prev.tolist() == [-1, 0, 1]
        assert nxt.tolist() == [1, 2, 3]

    def test_all_distinct(self):
        prev, nxt = prev_next_arrays(np.arange(5))
        assert prev.tolist() == [-1] * 5
        assert nxt.tolist() == [5] * 5

    def test_interleaved(self):
        # a b a b -> prev: [-1,-1,0,1], next: [2,3,4,4]
        prev, nxt = prev_next_arrays(np.array([10, 20, 10, 20]))
        assert prev.tolist() == [-1, -1, 0, 1]
        assert nxt.tolist() == [2, 3, 4, 4]

    def test_works_on_int32(self):
        prev, nxt = prev_next_arrays(np.array([1, 2, 1], dtype=np.int32))
        assert prev.tolist() == [-1, -1, 0]

    def test_accepts_python_list(self):
        prev, _ = prev_next_arrays([5, 5])
        assert prev.tolist() == [-1, 0]


class TestPrevNextInvariants:
    @given(small_traces())
    def test_matches_python_reference(self, trace):
        pv, nv = prev_next_arrays(trace)
        pp, np_ = prev_next_arrays_python(trace)
        assert np.array_equal(pv, pp)
        assert np.array_equal(nv, np_)

    @given(small_traces())
    def test_prev_next_duality(self, trace):
        """next(prev(i)) == i and prev(next(i)) == i where defined."""
        prev, nxt = prev_next_arrays(trace)
        n = trace.size
        for i in range(n):
            if prev[i] != -1:
                assert nxt[prev[i]] == i
            if nxt[i] < n:
                assert prev[nxt[i]] == i

    @given(small_traces())
    def test_prev_points_at_same_address(self, trace):
        prev, nxt = prev_next_arrays(trace)
        for i in range(trace.size):
            if prev[i] != -1:
                assert trace[prev[i]] == trace[i]
                # No occurrence strictly between prev(i) and i.
                assert not (trace[prev[i] + 1 : i] == trace[i]).any()

    @given(small_traces())
    def test_distinct_count_equals_unique(self, trace):
        prev, _ = prev_next_arrays(trace)
        assert distinct_count(prev) == np.unique(trace).size

    @given(small_traces())
    def test_first_occurrence_mask(self, trace):
        prev, _ = prev_next_arrays(trace)
        mask = first_occurrence_mask(prev)
        seen = set()
        for i, addr in enumerate(trace.tolist()):
            assert mask[i] == (addr not in seen)
            seen.add(addr)


class TestTraceValidation:
    def test_rejects_negative_addresses(self):
        with pytest.raises(TraceError):
            as_trace(np.array([1, -2, 3]))

    def test_rejects_floats(self):
        with pytest.raises(TraceError):
            as_trace(np.array([1.5, 2.0]))

    def test_rejects_2d(self):
        with pytest.raises(TraceError):
            as_trace(np.zeros((2, 2), dtype=np.int64))

    def test_rejects_unsupported_dtype(self):
        with pytest.raises(TraceError):
            as_trace(np.array([1]), dtype=np.int16)

    def test_rejects_overflowing_addresses(self):
        with pytest.raises(TraceError):
            as_trace(np.array([2**40]), dtype=np.int32)
