"""Tests for the exception hierarchy contract."""

import pytest

from repro.errors import (
    BlockDeviceError,
    CapacityError,
    ExternalMemoryError,
    FrozenCellError,
    OperationError,
    ReproError,
    SchedulerError,
    TraceError,
    TraceFileError,
    WorkloadError,
)


class TestHierarchy:
    @pytest.mark.parametrize(
        "exc",
        [
            TraceError,
            OperationError,
            CapacityError,
            ExternalMemoryError,
            SchedulerError,
            WorkloadError,
            TraceFileError,
        ],
    )
    def test_all_derive_from_repro_error(self, exc):
        assert issubclass(exc, ReproError)

    def test_nested_relationships(self):
        assert issubclass(FrozenCellError, OperationError)
        assert issubclass(BlockDeviceError, ExternalMemoryError)

    def test_catching_the_base_catches_library_failures(self):
        """The documented contract: one except clause for library errors."""
        from repro import SolveConfig, hit_rate_curve

        with pytest.raises(ReproError):
            hit_rate_curve([1, 2], SolveConfig(algorithm="nope"))
        with pytest.raises(ReproError):
            hit_rate_curve([-1, 2])

    def test_plain_misuse_is_not_wrapped(self):
        """TypeErrors from the API surface stay TypeErrors."""
        from repro.core.hitrate import HitRateCurve

        with pytest.raises(TypeError):
            HitRateCurve()  # missing required arguments
