"""The chunked incremental engine: exactness, carry, preview, memory.

Acceptance anchors (ISSUE 6):

* ``chunked-iaf`` is **bit-identical** to the batch engine across a
  25-seed differential for chunk sizes {1, 7, 64, n} — the chunk size
  changes the working set, never the answer;
* the living-request carry is the exact last-access map (least-recent
  first), truncated to the k most recent in the bounded regime;
* ``curve(include_pending=True)`` / ``preview()`` are side-effect free
  and cached — no window committed, no stats charged, no re-solve on
  back-to-back calls;
* carried state plateaus at O(u + chunk) while the batch engine's
  footprint grows with n.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import SolveConfig, solve
from repro.core.bounded import bounded_iaf, parallel_bounded_iaf
from repro.core.chunked import (
    ChunkedIAF,
    _restate_truncation,
    chunked_iaf,
)
from repro.core.engine import EngineStats, iaf_hit_rate_curve
from repro.errors import CapacityError, ReproError, TraceError


def make_trace(seed: int, max_len: int = 1200) -> np.ndarray:
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, max_len))
    return rng.integers(0, int(rng.integers(2, 300)), size=n)


class TestExactness:
    def test_bit_identical_across_25_seeds_and_chunk_sizes(self):
        """Acceptance: every chunk size reproduces the batch curve."""
        for seed in range(25):
            trace = make_trace(seed)
            want = iaf_hit_rate_curve(trace)
            for chunk in (1, 7, 64, trace.size):
                got = chunked_iaf(trace, chunk).curve
                assert np.array_equal(
                    got.hits_cumulative, want.hits_cumulative
                ), (seed, chunk)
                assert got.total_accesses == want.total_accesses

    def test_push_in_ragged_batches_matches(self):
        rng = np.random.default_rng(404)
        trace = make_trace(33, max_len=3000)
        engine = ChunkedIAF(57)
        pos = 0
        while pos < trace.size:
            step = int(rng.integers(1, 200))
            engine.push(trace[pos : pos + step])
            pos += step
        got = engine.finalize()
        want = iaf_hit_rate_curve(trace)
        assert np.array_equal(got.hits_cumulative, want.hits_cumulative)

    def test_naive_backend_agrees(self):
        trace = make_trace(5, max_len=400)
        got = chunked_iaf(trace, 13, engine_backend="naive").curve
        want = iaf_hit_rate_curve(trace)
        assert np.array_equal(got.hits_cumulative, want.hits_cumulative)

    def test_solve_dispatch_with_post_truncation(self):
        trace = make_trace(9)
        res = solve(
            trace,
            SolveConfig(algorithm="chunked-iaf", chunk_size=33,
                        max_cache_size=10),
        )
        want = iaf_hit_rate_curve(trace)
        assert np.array_equal(res.curve.hits_cumulative,
                              want.hits_cumulative[:10])
        assert res.curve.truncated_at == 10
        assert res.stats is not None

    def test_empty_stream(self):
        engine = ChunkedIAF(8)
        curve = engine.finalize()
        assert curve.total_accesses == 0
        assert engine.living_size == 0
        assert chunked_iaf([], 8).curve.total_accesses == 0

    def test_input_validation_matches_offline(self):
        engine = ChunkedIAF(8)
        with pytest.raises(TraceError):
            engine.push(np.array([1.5, 2.5]))
        with pytest.raises(TraceError):
            engine.push([-1])


class TestLivingCarry:
    def test_carry_is_exact_last_access_map(self):
        trace = np.array([3, 1, 4, 1, 5, 9, 2, 6, 5, 3])
        engine = ChunkedIAF(5)
        engine.push(trace[:5])
        # After the first chunk [3,1,4,1,5]: living = distinct addresses
        # with their last positions, least-recent first.
        assert engine.living.tolist() == [3, 4, 1, 5]
        assert engine.living_last_access.tolist() == [0, 2, 3, 4]
        engine.push(trace[5:])  # completes chunk [9,2,6,5,3]
        last = {int(a): i for i, a in enumerate(trace)}
        order = sorted(last, key=last.get)
        assert engine.living.tolist() == order
        assert engine.living_last_access.tolist() == [last[a] for a in order]

    def test_truncated_carry_keeps_k_most_recent(self):
        trace = np.arange(10)
        engine = ChunkedIAF(10, max_cache_size=3)
        engine.push(trace)
        assert engine.living.tolist() == [7, 8, 9]
        assert engine.living_last_access.tolist() == [7, 8, 9]

    def test_bounded_mode_matches_bounded_iaf_windows(self):
        # bounded_iaf itself runs on ChunkedIAF; the parallel form's Q̄
        # prefix scan is the independent reference.
        trace = make_trace(21, max_len=2000)
        k, mult = 8, 3
        engine = ChunkedIAF(mult * k, max_cache_size=k)
        engine.push(trace)
        engine.flush()
        ref = parallel_bounded_iaf(trace, k, workers=1,
                                   chunk_multiplier=mult)
        assert len(engine.windows) == len(ref.windows)
        for got, want in zip(engine.windows, ref.windows):
            assert np.array_equal(got.hits_cumulative,
                                  want.hits_cumulative)
            assert got.truncated_at == want.truncated_at


class TestPreview:
    def test_preview_is_cached_and_side_effect_free(self):
        trace = make_trace(3, max_len=500)
        engine = ChunkedIAF(64, stats=EngineStats())
        engine.push(trace[:100])
        engine.push(trace[100:110])  # leaves a partial chunk pending
        assert engine.preview() is engine.preview(), "preview not cached"
        windows_before = len(engine.windows)
        levels_before = engine._stats.levels if engine._stats else None
        a = engine.curve()
        b = engine.curve()
        assert np.array_equal(a.hits_cumulative, b.hits_cumulative)
        assert len(engine.windows) == windows_before
        assert (engine._stats.levels if engine._stats else None) == \
            levels_before, "preview charged the engine stats"
        want = iaf_hit_rate_curve(trace[:110])
        assert np.array_equal(a.hits_cumulative, want.hits_cumulative)

    def test_repeated_curve_emits_no_new_spans(self):
        from repro.obs import tracing

        engine = ChunkedIAF(64)
        engine.push(make_trace(11, max_len=100))
        with tracing() as tracer:
            engine.curve()
            first = len(tracer.events())
            engine.curve()
            second = len(tracer.events())
        assert first == second, "second curve() re-solved the pending chunk"

    def test_push_invalidates_preview(self):
        engine = ChunkedIAF(64)
        engine.push([1, 2, 3])
        stale = engine.preview()
        engine.push([4])
        fresh = engine.preview()
        assert fresh is not stale
        assert fresh.total_accesses == 4

    def test_preview_none_when_nothing_pending(self):
        engine = ChunkedIAF(4)
        assert engine.preview() is None
        engine.push([1, 2, 3, 4])  # exactly one full chunk, nothing over
        assert engine.preview() is None


class TestReconfigure:
    def test_chunk_resize_mid_stream_stays_exact(self):
        trace = make_trace(17, max_len=2000)
        engine = ChunkedIAF(31)
        engine.push(trace[:900])
        engine.reconfigure(chunk_size=128)
        engine.push(trace[900:])
        got = engine.finalize()
        want = iaf_hit_rate_curve(trace)
        assert np.array_equal(got.hits_cumulative, want.hits_cumulative)

    def test_k_grow_only(self):
        engine = ChunkedIAF(8, max_cache_size=4)
        engine.reconfigure(max_cache_size=6)
        with pytest.raises(CapacityError, match="grow"):
            engine.reconfigure(max_cache_size=2)
        exact = ChunkedIAF(8)
        with pytest.raises(CapacityError, match="grow"):
            exact.reconfigure(max_cache_size=4)  # exact carry was never cut

    def test_constructor_validation(self):
        with pytest.raises(CapacityError):
            ChunkedIAF(0)
        with pytest.raises(CapacityError):
            ChunkedIAF(8, max_cache_size=0)


class TestMemoryPlateau:
    def test_state_plateaus_at_u_plus_chunk(self):
        """Acceptance soak: carried state is O(u + chunk), not O(n)."""
        rng = np.random.default_rng(77)
        u, chunk = 50, 128
        engine = ChunkedIAF(chunk)
        plateau = None
        for round_ in range(40):
            engine.push(rng.integers(0, u, size=chunk))
            if round_ == 4:
                plateau = engine.state_nbytes
        assert engine.living_size <= u
        assert engine.state_nbytes == plateau, (
            "carried state grew with n after the universe saturated"
        )

    def test_chunk_bounds_partition_the_trace(self):
        trace = make_trace(2, max_len=500)
        res = chunked_iaf(trace, 37)
        assert res.chunk_bounds[0][0] == 0
        assert res.chunk_bounds[-1][1] == trace.size
        for (_, a_end), (b_start, _) in zip(res.chunk_bounds,
                                            res.chunk_bounds[1:]):
            assert a_end == b_start
        assert sum(b - a for a, b in res.chunk_bounds) == trace.size


class TestRestateTruncation:
    def test_rejects_widening(self):
        trace = np.array([1, 2, 1, 2])
        curve = bounded_iaf(trace, 2).curve
        with pytest.raises(ReproError, match="cannot restate"):
            _restate_truncation(curve, 5)

    def test_pads_and_cuts(self):
        trace = np.array([1, 2, 1, 2, 3])
        full = iaf_hit_rate_curve(trace)
        wide = _restate_truncation(full, 4)
        assert wide.truncated_at == 4
        assert wide.hits_cumulative.size == 4
        narrow = _restate_truncation(full, 1)
        assert narrow.hits_cumulative.tolist() == [0]
