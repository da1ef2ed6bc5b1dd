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
  stay flat however long it runs;
* a chunk sorts only the living entries it references: exact for wide
  universes and every edge of the carry, and at most ``2 * chunk``
  accesses per sort whatever the carry size;
* a chunk's level loop solves the chunk alone, ``n`` accesses with its
  ``prev`` rebased into the chunk, and each carry hit's stack depth
  comes from :func:`inversions_after`, checked against a brute-force
  count;
* ``push`` keeps no view of the caller's array: reusing one buffer for
  every push leaves every entry point's curve exact;
* after every push and query the carry equals a dict replay of the
  whole pushed stream (its last k in bounded mode), for seeded carries,
  int32 engines, chunks referencing none or all of the carry, chunks of
  only new addresses and single-access chunks.
"""

from __future__ import annotations

import gc
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro import SolveConfig, solve
from repro.core import chunked as chunked_module
from repro.core.bounded import bounded_iaf, parallel_bounded_iaf
from repro.core.chunked import (
    ChunkedIAF,
    _restate_truncation,
    chunked_iaf,
    inversions_after,
)
from repro.core.engine import EngineStats, iaf_hit_rate_curve
from repro.core.streaming import OnlineCurveAnalyzer
from repro.errors import CapacityError, ReproError, TraceError
from repro.obs import tracing
from repro.workloads import zipfian_trace


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


def wide_trace(seed: int, n: int, u: int = 50_000) -> np.ndarray:
    """Half hot-set accesses, half drawn from a universe far wider than
    any chunk: chunks re-touch a few carried entries, old and new."""
    rng = np.random.default_rng(seed)
    hot = rng.integers(0, 64, size=n)
    cold = rng.integers(0, u, size=n)
    return np.where(rng.random(n) < 0.5, hot, cold)


def chunk_spans(tracer, name: str = "chunked.chunk"):
    return [e for e in tracer.events() if e.name == name]


def assert_same_curve(got, want, context=None) -> None:
    assert np.array_equal(got.hits_cumulative, want.hits_cumulative), context
    assert got.total_accesses == want.total_accesses, context
    assert got.truncated_at == want.truncated_at, context


class TestReferencedSolve:
    @pytest.mark.parametrize("dtype", [np.int32, np.int64])
    def test_wide_universe_prefix_curves_match_batch(self, dtype):
        rng = np.random.default_rng(606)
        trace = wide_trace(61, 4000).astype(dtype)
        engine = ChunkedIAF(64, dtype=dtype)
        pos = 0
        while pos < trace.size:
            step = int(rng.integers(1, 150))
            engine.push(trace[pos : pos + step])
            pos += step
            assert_same_curve(engine.curve(),
                              iaf_hit_rate_curve(trace[:pos]), pos)
        assert engine.living_size > 10 * engine.chunk_size

    @pytest.mark.parametrize("k", [1, 37, 512])
    def test_truncated_windows_match_parallel_bounded(self, k):
        rng = np.random.default_rng(k)
        trace = wide_trace(k, 6000, u=4 * k + 300)
        mult = 2
        engine = ChunkedIAF(mult * k, max_cache_size=k)
        windows, pos = [], 0
        while pos < trace.size:
            step = int(rng.integers(1, 3 * k + 50))
            windows += engine.push(trace[pos : pos + step])
            pos += step
        last = engine.flush()
        if last is not None:
            windows.append(last)
        ref = parallel_bounded_iaf(trace, k, workers=1,
                                   chunk_multiplier=mult)
        assert len(windows) == len(ref.windows)
        for i, (got, want) in enumerate(zip(windows, ref.windows)):
            assert_same_curve(got, want, i)

    @pytest.mark.parametrize(
        "chunk, referenced",
        [
            ([10, 11, 12, 10, 13], 0),           # r = 0: nothing re-touched
            ([9, 3, 0, 7, 5, 1, 8, 2, 6, 4], 10),  # r = m: all re-touched
            ([0, 20, 0, 21], 1),                 # the oldest entry, j = 0
            ([9, 20, 9, 21], 1),                 # the newest entry, j = m-1
            ([0, 9, 22, 4, 0], 3),               # both ends and the middle
        ],
    )
    @pytest.mark.parametrize("k", [None, 4])
    def test_edge_carries(self, chunk, referenced, k):
        head = np.arange(10)
        trace = np.concatenate([head, chunk])
        engine = ChunkedIAF(len(chunk), max_cache_size=k)
        engine.push(head)
        engine.flush()
        with tracing() as tracer:
            engine.push(chunk)
        (span,) = chunk_spans(tracer)
        if k is None:
            assert span.attrs["referenced"] == referenced
            assert_same_curve(engine.curve(), iaf_hit_rate_curve(trace))
        else:
            # The truncated carry holds only the k newest entries.
            assert span.attrs["referenced"] == np.isin(head[-k:], chunk).sum()
            assert_same_curve(
                _restate_truncation(engine.curve(), k),
                _restate_truncation(iaf_hit_rate_curve(trace), k),
            )

    def test_single_access_chunks(self):
        trace = wide_trace(62, 800, u=2000)
        with tracing() as tracer:
            got = chunked_iaf(trace, 1).curve
        assert_same_curve(got, iaf_hit_rate_curve(trace))
        spans = chunk_spans(tracer)
        assert len(spans) == trace.size
        assert {s.attrs["referenced"] for s in spans} == {0, 1}

    def test_chunk_solve_is_bounded_by_twice_the_chunk(self):
        """Every chunk sorts at most ``2 * chunk`` accesses, however many
        living entries it is solved against."""
        chunk = 1024
        trace = zipfian_trace(60_000, 65_536, 0.8, seed=7)
        engine = ChunkedIAF(chunk)
        with tracing() as tracer:
            for start in range(0, trace.size, 20_000):
                engine.push(trace[start : start + 20_000])
                engine.curve()
        spans = chunk_spans(tracer)
        assert len(spans) >= trace.size // chunk
        assert max(s.attrs["living"] for s in spans) > 4 * chunk
        for s in spans:
            n, r = s.attrs["n"], s.attrs["referenced"]
            assert r <= min(s.attrs["living"], n)
            assert r + n <= 2 * chunk

    def test_bounded_and_streaming_spans_carry_referenced(self):
        trace = wide_trace(63, 500, u=300)
        with tracing() as tracer:
            bounded_iaf(trace, 16)
            analyzer = OnlineCurveAnalyzer(16)
            analyzer.push(trace)
            analyzer.curve()
        for name in ("bounded.chunk", "streaming.chunk"):
            spans = chunk_spans(tracer, name)
            assert spans, name
            assert all(0 <= s.attrs["referenced"] <= min(16, s.attrs["n"])
                       for s in spans), name


def brute_inversions_after(a) -> list:
    return [sum(1 for later in a[q + 1:] if later < a[q])
            for q in range(len(a))]


@st.composite
def distinct_positions(draw):
    """Distinct first positions in a chunk of ``n``: none, one, every
    position (``r = chunk``) or a sparse few of a long chunk."""
    n = draw(st.integers(1, 5000))
    shape = draw(st.sampled_from(["any", "empty", "one", "full", "sparse"]))
    if shape == "empty":
        return []
    if shape == "one":
        return [draw(st.integers(0, n - 1))]
    if shape == "full":
        return draw(st.permutations(range(min(n, 300))))
    cap = 8 if shape == "sparse" else min(n, 300)
    return draw(st.lists(st.integers(0, n - 1), unique=True, max_size=cap))


class TestChunkOnlyLevelLoop:
    """The level loop solves each chunk alone; the carry hits' depths
    come from a rank count."""

    @given(positions=distinct_positions())
    def test_inversions_after_matches_brute_force(self, positions):
        a = np.asarray(positions, dtype=np.int64)
        got = inversions_after(a)
        assert got.dtype == np.int64
        assert got.tolist() == brute_inversions_after(positions)

    def test_inversions_after_of_a_reversed_chunk(self):
        a = np.arange(4096)[::-1].copy()
        assert inversions_after(a).tolist() == list(range(4095, -1, -1))
        assert inversions_after(a[::-1].copy()).tolist() == [0] * 4096

    @pytest.fixture
    def loops(self, monkeypatch):
        """Record the size and ``prev`` of every level-loop solve a chunk
        solve makes."""
        calls = []
        real = chunked_module.iaf_distances

        def spy(trace, **kwargs):
            calls.append((int(np.size(trace)), kwargs["prev"].copy()))
            return real(trace, **kwargs)

        monkeypatch.setattr(chunked_module, "iaf_distances", spy)
        return calls

    @pytest.mark.parametrize("k", [None, 3])
    def test_each_loop_gets_exactly_the_chunk(self, loops, k):
        """r = 0, r = m, a one-access chunk and a mixed one: every level
        loop solves n accesses, never r + n, with prev inside the chunk."""
        head = [5, 7, 9, 11]
        engine = ChunkedIAF(64, max_cache_size=k)
        engine.seed_carry(head, [2, 4, 6, 8], processed=10)
        pushed = []
        chunks = [
            lambda: [20, 21, 22, 20],              # only new: r = 0
            lambda: engine.living.tolist()[::-1],  # every entry: r = m
            lambda: [9],                           # one access
            lambda: [5, 20, 5, 30, 20, 11],        # mixed, repeats
        ]
        for make in chunks:
            piece = make()
            r = int(np.isin(engine.living, piece).sum())
            del loops[:]
            with tracing() as tracer:
                engine.push(piece)
                engine.curve()
            (span,) = chunk_spans(tracer)
            assert span.attrs["referenced"] == r
            assert [size for size, _prev in loops] == [len(piece)]
            (_size, prev), = loops
            want = [-1] * len(piece)
            last = {}
            for i, addr in enumerate(piece):
                want[i] = last.get(addr, -1)
                last[addr] = i
            assert prev.tolist() == want
            pushed += piece
        # The seeded carry is what `head` leaves behind; its four
        # accesses are misses the engine's curve does not count.
        got = engine.curve()
        want = iaf_hit_rate_curve(np.asarray(head + pushed))
        if k is not None:
            want = _restate_truncation(want, k)
        assert np.array_equal(got.hits_cumulative, want.hits_cumulative)
        assert got.total_accesses == len(pushed)

    @pytest.mark.parametrize("k", [None, 16])
    def test_level_loops_sum_to_the_stream(self, loops, k):
        """Over a wide stream, the level loops see every pushed access
        exactly once, and the curve stays the batch engine's."""
        trace = wide_trace(64, 3000, u=900)
        engine = ChunkedIAF(128, max_cache_size=k)
        for start in range(0, trace.size, 500):
            engine.push(trace[start:start + 500])
            engine.curve()
        assert sum(size for size, _prev in loops) == trace.size
        assert max(size for size, _prev in loops) <= 128
        want = iaf_hit_rate_curve(trace)
        if k is None:
            assert_same_curve(engine.curve(), want)
        else:
            assert_same_curve(engine.curve(), _restate_truncation(want, k))

    def test_one_access_chunks_in_both_modes(self, loops):
        trace = wide_trace(65, 400, u=600)
        for k in (None, 4):
            del loops[:]
            engine = ChunkedIAF(1, max_cache_size=k)
            engine.push(trace)
            assert [size for size, _prev in loops] == [1] * trace.size
            assert all(prev.tolist() == [-1] for _size, prev in loops)
            want = iaf_hit_rate_curve(trace)
            got = engine.curve()
            if k is not None:
                want = _restate_truncation(want, k)
            assert_same_curve(got, want)


class TestCallerBuffers:
    """``push`` must own what stays pending: callers reuse buffers."""

    PUSH = 97

    def _feed(self, trace: np.ndarray, push) -> None:
        buf = np.empty(self.PUSH, dtype=np.int64)
        for start in range(0, trace.size, self.PUSH):
            part = trace[start : start + self.PUSH]
            view = buf[: part.size]
            view[:] = part
            push(view)
        buf[:] = 0

    def test_engine_reusing_one_buffer(self):
        trace = make_trace(71, max_len=3000)
        engine = ChunkedIAF(64)
        self._feed(trace, engine.push)
        assert_same_curve(engine.curve(), iaf_hit_rate_curve(trace))

    def test_exact_tenant_reusing_one_buffer(self):
        from repro.tenants import TenantRegistry

        trace = make_trace(72, max_len=3000)
        registry = TenantRegistry()
        registry.register("t", chunk_size=64)
        self._feed(trace, lambda arr: registry.push("t", arr))
        snap = registry.curve("t")
        assert_same_curve(snap.exact_curve, iaf_hit_rate_curve(trace))

    def test_analyzer_reusing_one_buffer(self):
        trace = make_trace(73, max_len=3000)
        k, mult = 16, 4
        analyzer = OnlineCurveAnalyzer(k, chunk_multiplier=mult)
        self._feed(trace, analyzer.push)
        analyzer.flush()
        want = bounded_iaf(trace, k, chunk_multiplier=mult)
        assert len(analyzer.windows) == len(want.windows)
        for i, (got, ref) in enumerate(zip(analyzer.windows, want.windows)):
            assert_same_curve(got, ref, i)

    def test_pending_tail_does_not_pin_the_pushed_array(self):
        batch = np.arange(100 * 100 + 7, dtype=np.int64) % 5_000
        alive = weakref.ref(batch)
        engine = ChunkedIAF(100)
        engine.push(batch)
        del batch
        gc.collect()
        assert alive() is None, "the pending tail keeps the batch alive"
        assert engine.accesses_processed == 100 * 100


class CarryReplay:
    """The living carry recomputed from a dict replay of the stream.

    ``replay`` maps every address to its last position over everything
    the engine solved, in recency order.  ``model`` is the same map
    truncated to the engine's bound after each batch of solved accesses,
    the bound in force when they were solved (so a grown ``k`` cannot
    bring back what an earlier, smaller ``k`` dropped).
    """

    def __init__(self, k, addrs=(), last=(), processed=0):
        self.k = k
        self.replay = dict(zip(addrs, last))
        self.model = dict(self.replay)
        self.stream = []
        self.start = processed
        self.folded = 0
        self.grown = False
        self._truncate()

    def _truncate(self):
        while self.k is not None and len(self.model) > self.k:
            del self.model[next(iter(self.model))]

    def fold(self, processed):
        """Apply the accesses the engine solved since the last call."""
        for i in range(self.folded, processed - self.start):
            addr = self.stream[i]
            for table in (self.replay, self.model):
                table.pop(addr, None)
                table[addr] = self.start + i
        self.folded = processed - self.start
        self._truncate()

    def check(self, engine):
        self.fold(engine.accesses_processed)
        living = engine.living.tolist()
        last = engine.living_last_access.tolist()
        assert living == list(self.model)
        assert last == list(self.model.values())
        replay = list(self.replay.items())
        tail = replay[len(replay) - len(living):] if living else []
        assert list(zip(living, last)) == tail
        if self.k is None:
            assert len(living) == len(replay)
        elif not self.grown:
            assert len(living) == min(self.k, len(replay))


class TestCarryReplay:
    """The carry after every push and query, against a dict replay."""

    @given(data=st.data(), dtype=st.sampled_from([np.int32, np.int64]),
           bounded=st.booleans(), seeded=st.booleans(),
           chunk=st.integers(1, 12))
    def test_carry_matches_replay(self, data, dtype, bounded, seeded, chunk):
        k = data.draw(st.integers(1, 10)) if bounded else None
        universe = data.draw(st.integers(1, 30))
        fresh = iter(range(1000, 10_000))
        addrs, last, processed = [], [], 0
        if seeded:
            addrs = data.draw(st.lists(st.integers(0, universe - 1),
                                       unique=True, max_size=universe))
            last = sorted(data.draw(st.lists(
                st.integers(0, 60), unique=True,
                min_size=len(addrs), max_size=len(addrs))))
            processed = (last[-1] + 1 if last else 0) + \
                data.draw(st.integers(0, 3))
        engine = ChunkedIAF(chunk, max_cache_size=k, dtype=dtype)
        if seeded:
            engine.seed_carry(addrs, last, processed=processed)
        model = CarryReplay(k, addrs, last, processed)
        model.check(engine)
        steps = data.draw(st.lists(st.sampled_from(
            ["random", "fresh", "all-living", "single", "query", "grow"]),
            max_size=14))
        for step in steps:
            if step == "query":
                engine.curve()
            elif step == "grow":
                if k is None:
                    continue
                k += data.draw(st.integers(0, 5))
                engine.reconfigure(max_cache_size=k)
                model.k, model.grown = k, True
            else:
                # After a query nothing is pending, so a push shorter
                # than the chunk and a query solve it as one chunk:
                # "fresh" gives r = 0, "all-living" r = m, "single" a
                # single-access chunk.
                if step == "random":
                    push = data.draw(st.lists(
                        st.integers(0, universe - 1), max_size=25))
                elif step == "fresh":
                    push = [next(fresh) for _ in range(
                        data.draw(st.integers(1, 6)))]
                elif step == "all-living":
                    push = data.draw(st.permutations(engine.living.tolist()))
                else:
                    push = [data.draw(st.integers(0, universe - 1))]
                model.stream.extend(push)
                engine.push(np.asarray(push, dtype=dtype))
            model.check(engine)
        engine.curve()
        model.check(engine)
        assert engine.accesses_processed == processed + len(model.stream)

    @pytest.mark.parametrize("k", [None, 3])
    def test_each_edge_chunk_alone(self, k):
        """r = 0, r = m, only new addresses and one access, each solved as
        a chunk of its own, on an int32 engine."""
        engine = ChunkedIAF(64, max_cache_size=k, dtype=np.int32)
        engine.seed_carry([5, 7, 9, 11], [2, 4, 6, 8], processed=10)
        model = CarryReplay(k, [5, 7, 9, 11], [2, 4, 6, 8], 10)
        chunks = [
            lambda: [20, 21, 22],                  # only new: r = 0
            lambda: engine.living.tolist()[::-1],  # every entry: r = m
            lambda: [9],                           # one access
            lambda: [5, 20, 5, 30, 20],            # mixed, repeats
        ]
        for make in chunks:
            piece = make()
            model.stream.extend(piece)
            engine.push(np.asarray(piece, dtype=np.int32))
            engine.curve()
            model.check(engine)
