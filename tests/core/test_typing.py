"""Tests for trace validation and the dtype policy (_typing)."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro._typing import (
    DEFAULT_DTYPE,
    SUPPORTED_DTYPES,
    as_trace,
    validate_dtype,
)
from repro.errors import TraceError


class TestValidateDtype:
    def test_accepts_supported(self):
        assert validate_dtype(np.int32) == np.dtype(np.int32)
        assert validate_dtype("int64") == np.dtype(np.int64)

    def test_default_is_supported(self):
        assert DEFAULT_DTYPE in SUPPORTED_DTYPES

    def test_none_is_the_default_address_width(self):
        """An unpinned width reads addresses at the default dtype."""
        assert validate_dtype(None) == DEFAULT_DTYPE
        assert as_trace(np.array([3, 1], dtype=np.int32),
                        dtype=None).dtype == DEFAULT_DTYPE

    @pytest.mark.parametrize("bad", [np.int8, np.int16, np.uint32,
                                     np.float64, bool])
    def test_rejects_unsupported(self, bad):
        with pytest.raises(TraceError):
            validate_dtype(bad)


class TestAsTrace:
    def test_list_conversion(self):
        out = as_trace([1, 2, 3])
        assert out.dtype == DEFAULT_DTYPE
        assert out.flags["C_CONTIGUOUS"]

    def test_empty_ok(self):
        assert as_trace([]).size == 0

    def test_preserves_values_across_widths(self):
        data = [0, 5, 2**20]
        assert as_trace(data, np.int32).tolist() == data
        assert as_trace(data, np.int64).tolist() == data

    def test_noncontiguous_input_made_contiguous(self):
        arr = np.arange(20)[::2]
        out = as_trace(arr)
        assert out.flags["C_CONTIGUOUS"]
        assert out.tolist() == arr.tolist()

    def test_generator_input(self):
        # Iterables materialize through np.asarray(object) -> rejected as
        # non-integer unless they form a clean array; tuples work.
        assert as_trace((1, 2)).tolist() == [1, 2]

    @given(st.lists(st.integers(0, 2**31 - 1), max_size=20))
    def test_round_trip_int32(self, xs):
        assert as_trace(xs, np.int32).tolist() == xs

    def test_boolean_array_rejected(self):
        with pytest.raises(TraceError):
            as_trace(np.array([True, False]))
