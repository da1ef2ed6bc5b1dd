"""Tests for PARALLEL-INCREMENT-AND-FREEZE."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro import SolveConfig, hit_rate_curve
from repro.baselines.naive import naive_backward_distances
from repro.core.engine import EngineStats, Segments, _split_segments, \
    iaf_distances
from repro.core.ops import prepost_sequence_arrays
from repro.core.parallel import measure_parallel_cost
from repro.core.weighted import weighted_backward_distances
from repro.errors import CapacityError
from repro.parallel_exec import default_executor

from ..conftest import small_traces


class TestSplitSegments:
    def _make(self, trace):
        kind, t, r = prepost_sequence_arrays(np.asarray(trace))
        return Segments.single(kind, t, r, 0, len(trace))

    def test_single_group_is_identity(self):
        seg = self._make([1, 2, 1])
        parts = _split_segments(seg, 1)
        assert len(parts) == 1
        assert parts[0].n_ops == seg.n_ops

    def test_partition_covers_all_segments(self):
        from repro.core.engine import _partition_level

        seg = self._make(list(range(64)) * 2)
        for _ in range(4):
            seg = _partition_level(seg, np.ones(seg.n_segments, dtype=bool))
        parts = _split_segments(seg, 4)
        assert sum(p.n_segments for p in parts) == seg.n_segments
        assert sum(p.n_ops for p in parts) == seg.n_ops
        assert len(parts) <= 4

    def test_parts_own_their_arrays(self):
        """A part must survive its source level being overwritten."""
        from repro.core.engine import _partition_level

        seg = self._make(list(range(64)) * 2)
        for _ in range(4):
            seg = _partition_level(seg, np.ones(seg.n_segments, dtype=bool))
        for part in _split_segments(seg, 4):
            for name in ("kind", "t", "r", "starts", "lo", "hi"):
                assert not np.shares_memory(getattr(part, name),
                                            getattr(seg, name)), name


class TestParallelDistances:
    @given(small_traces(), st.integers(1, 5))
    def test_matches_serial_engine(self, trace, workers):
        got = iaf_distances(trace, workers=workers)
        want = iaf_distances(trace)
        assert np.array_equal(got, want)

    def test_larger_trace_many_workers(self):
        tr = np.random.default_rng(0).integers(0, 100, size=5000)
        for w in (2, 4, 8):
            assert np.array_equal(
                iaf_distances(tr, workers=w),
                naive_backward_distances(tr),
            )

    def test_rejects_bad_workers(self):
        with pytest.raises(CapacityError):
            iaf_distances([1], workers=0)

    def test_empty(self):
        assert iaf_distances(np.array([], dtype=np.int64),
                             workers=4).size == 0

    def test_curve_wrapper(self):
        tr = np.random.default_rng(0).integers(0, 20, size=300)
        c1 = hit_rate_curve(tr, SolveConfig(algorithm="parallel-iaf",
                                            workers=3))
        from repro.core.engine import iaf_hit_rate_curve

        assert c1.almost_equal(iaf_hit_rate_curve(tr))

    def test_stats_work_collected_across_threads(self):
        tr = np.random.default_rng(0).integers(0, 60, size=3000)
        s_ser, s_par = EngineStats(), EngineStats()
        iaf_distances(tr, stats=s_ser)
        iaf_distances(tr, workers=4, stats=s_par)
        # Same asymptotic work: within 30% of the serial engine's count.
        assert abs(s_par.work - s_ser.work) <= 0.3 * s_ser.work


class TestCostReport:
    def test_speedup_curves_shape(self):
        tr = np.random.default_rng(0).integers(0, 200, size=8000)
        report = measure_parallel_cost(tr)
        procs = [1, 2, 4, 8, 16]
        basic = report.basic_speedups(procs)
        par = report.parallel_speedups(procs)
        # Speedups are monotone in p and PARALLEL-IAF dominates basic IAF.
        assert list(basic.speedups) == sorted(basic.speedups)
        assert list(par.speedups) == sorted(par.speedups)
        assert par.speedups[-1] >= basic.speedups[-1]
        # Basic IAF saturates near its Theta(log n) parallelism.
        assert basic.saturation() <= 4 * np.log2(tr.size)


class TestProcessParallel:
    def test_matches_serial_engine(self):
        tr = np.random.default_rng(5).integers(0, 80, size=4_000)
        want = iaf_distances(tr)
        for w in (1, 2, 3):
            got = iaf_distances(tr, workers=w, executor=default_executor(w))
            assert np.array_equal(got, want), w

    def test_rejects_bad_workers(self):
        with pytest.raises(CapacityError):
            iaf_distances([1], workers=0, executor=default_executor(2))

    def test_empty_and_tiny(self):
        ex = default_executor(2)
        assert iaf_distances(
            np.array([], dtype=np.int64), workers=2, executor=ex
        ).size == 0
        assert iaf_distances([7], workers=2, executor=ex).tolist() == [0]


#: The 5.x parallel family; ``workers=``/``executor=`` on the engine
#: entry points replace every one of them.
REMOVED_IN_6 = (
    "parallel_iaf_distances",
    "parallel_iaf_distances_batch",
    "parallel_iaf_hit_rate_curve",
    "parallel_iaf_hit_rate_curves_batch",
    "process_parallel_iaf_distances",
    "parallel_weighted_backward_distances",
)


class TestRemovedIn6:
    @pytest.mark.parametrize("name", REMOVED_IN_6)
    def test_removed_function_fails_to_import(self, name):
        for module in ("repro", "repro.core", "repro.core.parallel"):
            with pytest.raises(ImportError):
                exec(f"from {module} import {name}", {})

    @pytest.mark.parametrize("name", (
        "_warmup_levels", "_solve_seg_parallel", "_solve_split_threads",
        "_solve_split_processes",
    ))
    def test_private_dispatchers_are_gone(self, name):
        import repro.core.engine as engine
        import repro.core.parallel as parallel

        assert not hasattr(parallel, name)
        assert not hasattr(engine, name)

    def test_use_processes_keyword_is_gone(self):
        with pytest.raises(TypeError, match="use_processes"):
            weighted_backward_distances([1, 2, 1], [1, 1, 1],
                                        use_processes=True)
