"""The chunked incremental engine: exactness, carry, queries, memory.

Acceptance anchors:

* ``chunked-iaf`` is **bit-identical** to the batch engine across a
  25-seed differential for chunk sizes {1, 7, 64, n} — the chunk size
  changes the working set, never the answer;
* the living-request carry is the exact last-access map (least-recent
  first), truncated to the k most recent in the bounded regime;
* ``curve()`` commits the pending accesses: every prefix it answers is
  exact, every access is solved once, and a repeated query solves
  nothing;
* carried state plateaus at O(u + chunk), and the bytes an engine holds
  stay flat however long it runs.
"""

from __future__ import annotations

import tracemalloc

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
        got = engine.curve()
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
        curve = engine.curve()
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
        windows = engine.push(trace)
        last = engine.flush()
        if last is not None:
            windows.append(last)
        ref = parallel_bounded_iaf(trace, k, workers=1,
                                   chunk_multiplier=mult)
        assert len(windows) == len(ref.windows)
        for got, want in zip(windows, ref.windows):
            assert np.array_equal(got.hits_cumulative,
                                  want.hits_cumulative)
            assert got.truncated_at == want.truncated_at


class TestCommitOnQuery:
    def test_repeated_curve_emits_no_new_spans(self):
        """A second curve() with nothing pushed solves nothing: no span,
        no stats charged, the same answer."""
        from repro.obs import tracing

        stats = EngineStats()
        engine = ChunkedIAF(64, stats=stats)
        engine.push(make_trace(11, max_len=100))
        with tracing() as tracer:
            first = engine.curve()
            events, levels = len(tracer.events()), stats.levels
            second = engine.curve()
            assert len(tracer.events()) == events, \
                "second curve() re-solved committed accesses"
        assert stats.levels == levels, "second curve() charged the stats"
        assert second is first

    def test_query_commits_pending_accesses(self):
        engine = ChunkedIAF(64)
        engine.push(make_trace(3, max_len=50))
        assert engine.accesses_processed < engine.accesses_ingested
        engine.curve()
        assert engine.accesses_processed == engine.accesses_ingested

    def test_ragged_pushes_queried_after_each_match_every_prefix(self):
        rng = np.random.default_rng(505)
        trace = make_trace(44, max_len=3000)
        engine = ChunkedIAF(61)
        pos = 0
        while pos < trace.size:
            step = int(rng.integers(1, 150))
            engine.push(trace[pos : pos + step])
            pos += step
            got = engine.curve()
            want = iaf_hit_rate_curve(trace[:pos])
            assert np.array_equal(
                got.hits_cumulative, want.hits_cumulative
            ), pos
            assert got.total_accesses == want.total_accesses

    def test_push_and_flush_return_the_chunks_they_solve(self):
        engine = ChunkedIAF(4)
        assert engine.push([1, 2, 3]) == []
        solved = engine.push([1, 2, 3, 4, 5, 6])
        assert [c.total_accesses for c in solved] == [4, 4]
        assert engine.flush().total_accesses == 1
        assert engine.flush() is None


class TestReconfigure:
    def test_chunk_resize_mid_stream_stays_exact(self):
        trace = make_trace(17, max_len=2000)
        engine = ChunkedIAF(31)
        engine.push(trace[:900])
        engine.reconfigure(chunk_size=128)
        engine.push(trace[900:])
        got = engine.curve()
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

    @staticmethod
    def _held_bytes_growth(step, warm: int, stop: int) -> int:
        """Traced bytes still allocated after ``stop`` steps, minus those
        after ``warm``: what the engine holds on to as the stream grows."""
        tracemalloc.start()
        try:
            for i in range(1, stop + 1):
                step()
                if i == warm:
                    at_warm = tracemalloc.get_traced_memory()[0]
            return tracemalloc.get_traced_memory()[0] - at_warm
        finally:
            tracemalloc.stop()

    def test_exact_engine_holds_flat_bytes(self):
        """Regression: the exact engine kept one curve per solved chunk
        (+2.0 MB from chunk 20 to chunk 50 here)."""
        rng = np.random.default_rng(78)
        u, chunk = 8192, 2048
        engine = ChunkedIAF(chunk)

        def step() -> None:
            engine.push(rng.integers(0, u, size=chunk))

        growth = self._held_bytes_growth(step, warm=20, stop=50)
        assert growth < 512 * 1024, f"engine kept {growth} more bytes"

    def test_queried_exact_tenant_holds_flat_bytes(self):
        """The same bound for an exact tenant queried after every push
        (+1.9 MB from push 40 to push 100 when the engine kept one curve
        per solved chunk)."""
        from repro.tenants import TenantRegistry

        rng = np.random.default_rng(79)
        u = 8192
        registry = TenantRegistry()
        registry.register("t", chunk_size=2048)

        def step() -> None:
            registry.push("t", rng.integers(0, u, size=1000))
            registry.curve("t")

        growth = self._held_bytes_growth(step, warm=40, stop=100)
        assert growth < 512 * 1024, f"tenant kept {growth} more bytes"


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
