"""Fused-vs-naive backend equivalence, per-thread workspaces, and batch
solving.

The fused partition kernel (``engine_backend="fused"``) must be
*bit-identical* to the reference two-pass pipeline it replaced
(``engine_backend="naive"``) on every trace shape the fuzzer can draw —
unit and weighted, every dtype — and the batched multi-trace entry
points must reproduce the per-trace loop exactly.
"""

import gc
import sys
import threading
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.api import hit_rate_curves_batch
from repro.core.chunked import ChunkedIAF, chunked_iaf
from repro.core.config import SolveConfig
from repro.core import engine
from repro.core.engine import (
    ENGINE_BACKENDS,
    EngineStats,
    Segments,
    Workspace,
    _check_head_overflow,
    batch_segments,
    iaf_distances,
    iaf_distances_batch,
    iaf_hit_rate_curve,
    iaf_hit_rate_curves_batch,
    solve_prepost_arrays,
    thread_workspace,
)
from repro.core.ops import POSTFIX, PREFIX, prepost_sequence_arrays
from repro.core.weighted import weighted_backward_distances
from repro.errors import CapacityError, ReproError
from repro.parallel_exec import _merge_part_values, default_executor
from repro.qa.strategies import case_from_seed, object_sizes_for

from ..conftest import small_traces

#: Fuzz seeds driving the property sweep — each draws a different strategy
#: (zipf / scan-loop / phase-shift / duplicate-heavy / near-dtype-limit …).
SWEEP_SEEDS = list(range(16))


def _solve(trace, backend, dtype=np.int64):
    return iaf_distances(trace, dtype=dtype, engine_backend=backend)


def _on_fresh_thread(fn):
    """``fn()`` run on a new thread, so it starts with an empty workspace;
    returns its result and re-raises its exception."""
    out = {}

    def run():
        try:
            out["value"] = fn()
        except Exception as exc:  # noqa: BLE001 — re-raised below
            out["error"] = exc

    worker = threading.Thread(target=run)
    worker.start()
    worker.join(timeout=120)
    assert not worker.is_alive(), "solve thread did not finish"
    if "error" in out:
        raise out["error"]
    return out["value"]


class TestBackendEquivalence:
    @pytest.mark.parametrize("seed", SWEEP_SEEDS)
    def test_fuzz_case_bit_identical(self, seed):
        case = case_from_seed(seed)
        trace, dt = case.trace, case.config.numpy_dtype()
        fused = iaf_distances(trace, dtype=dt, engine_backend="fused")
        naive = iaf_distances(trace, dtype=dt, engine_backend="naive")
        assert fused.dtype == naive.dtype
        assert np.array_equal(fused, naive)

    @pytest.mark.parametrize("seed", SWEEP_SEEDS)
    def test_fuzz_case_weighted_bit_identical(self, seed):
        case = case_from_seed(seed)
        if case.trace.size and int(case.trace.max()) >= (1 << 16):
            pytest.skip("sizes array indexed by address")
        sizes = object_sizes_for(case)
        fused = weighted_backward_distances(case.trace, sizes,
                                            engine_backend="fused")
        naive = weighted_backward_distances(case.trace, sizes,
                                            engine_backend="naive")
        assert np.array_equal(fused, naive)

    @given(small_traces())
    def test_property_bit_identical(self, trace):
        assert np.array_equal(_solve(trace, "fused"), _solve(trace, "naive"))

    @given(small_traces(max_len=40, max_addr=6))
    def test_property_int32_bit_identical(self, trace):
        assert np.array_equal(
            _solve(trace.astype(np.int32), "fused", dtype=np.int32),
            _solve(trace.astype(np.int32), "naive", dtype=np.int32),
        )

    @given(small_traces(max_len=40, max_addr=6),
           st.integers(min_value=0, max_value=2**32 - 1))
    def test_property_weighted_bit_identical(self, trace, seed):
        sizes = np.random.default_rng(seed).integers(
            1, 17, size=int(trace.max()) + 1 if trace.size else 1
        )
        assert np.array_equal(
            weighted_backward_distances(trace, sizes, engine_backend="fused"),
            weighted_backward_distances(trace, sizes, engine_backend="naive"),
        )

    def test_stats_parity(self):
        trace = np.random.default_rng(3).integers(0, 300, size=4096)
        stats = {}
        for be in ENGINE_BACKENDS:
            s = EngineStats()
            iaf_distances(trace, engine_backend=be, stats=s)
            stats[be] = s
        f, n = stats["fused"], stats["naive"]
        assert f.levels == n.levels
        assert f.ops_per_level == n.ops_per_level
        assert f.work == n.work
        assert f.span_basic == n.span_basic
        assert f.peak_level_ops == n.peak_level_ops

    def test_unknown_backend_rejected(self):
        with pytest.raises(ReproError, match="engine backend"):
            iaf_distances([1, 2, 1], engine_backend="vectorized")

    def test_curve_backend_parity(self):
        trace = np.random.default_rng(5).integers(0, 64, size=2000)
        a = iaf_hit_rate_curve(trace, engine_backend="fused")
        b = iaf_hit_rate_curve(trace, engine_backend="naive")
        assert np.array_equal(a.hits_cumulative, b.hits_cumulative)
        assert a.total_accesses == b.total_accesses


class TestWorkspace:
    def test_views_not_copies(self):
        ws = Workspace()
        a = ws.array("x", 10, np.int64)
        a[:] = 7
        assert ws.array("x", 10, np.int64)[0] == 7

    def test_geometric_growth(self):
        ws = Workspace()
        for size in range(1, 4000, 37):
            ws.array("ramp", size, np.int64)
        # A monotone ramp must trigger O(log) reallocations, not O(n).
        assert len(ws.grow_events) <= 10

    def test_no_growth_after_level_two(self):
        """The fused level loop allocates nothing past the first levels."""
        trace = np.random.default_rng(11).integers(0, 5000, size=1 << 15)

        def solve():
            iaf_distances(trace)
            return thread_workspace()

        ws = _on_fresh_thread(solve)
        assert ws.grow_events, "primed workspace should record allocations"
        assert max(ws.grow_levels()) <= 2, (
            f"late workspace growth at levels {sorted(set(ws.grow_levels()))}"
        )

    def test_reuse_across_solves_no_new_allocations(self):
        rng = np.random.default_rng(12)
        traces = [rng.integers(0, 2000, size=1 << 14) for _ in range(4)]
        want = [iaf_distances(t, engine_backend="naive") for t in traces]

        def solve():
            ws = thread_workspace()
            iaf_distances(traces[0])
            warm = len(ws.grow_events)
            got = [iaf_distances(t) for t in traces[1:]]
            return got, len(ws.grow_events) - warm

        got, grown = _on_fresh_thread(solve)
        assert all(np.array_equal(a, b) for a, b in zip(got, want[1:]))
        assert grown == 0

    def test_dtype_switch_reallocates_once(self):
        """Each dtype keeps its own buffer: switching back costs nothing."""
        ws = Workspace()
        for dt in (np.int64, np.int32, np.int32, np.int64):
            ws.array("x", 100, dt)
        assert len(ws.grow_events) == 2


class TestThreadWorkspace:
    """Every fused/compiled solve runs in its thread's one workspace."""

    def test_concurrent_threads_solve_in_their_own_workspaces(self):
        rng = np.random.default_rng(13)
        traces = [rng.integers(0, 300 + 50 * i, size=3000 + 211 * i)
                  for i in range(24)]
        want = [iaf_distances(t) for t in traces]
        got = [None] * len(traces)
        owners = [None] * 4
        errors = []
        start = threading.Barrier(4)

        def run(w):
            try:
                start.wait()
                for i in range(w * 6, (w + 1) * 6):
                    got[i] = iaf_distances(traces[i])
                owners[w] = thread_workspace()
            except Exception as exc:  # noqa: BLE001 — asserted below
                errors.append(exc)

        workers = [threading.Thread(target=run, args=(w,))
                   for w in range(4)]
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # interleave the level loops finely
        try:
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=120)
        finally:
            sys.setswitchinterval(switch)
        assert not any(worker.is_alive() for worker in workers)
        assert not errors, errors
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and np.array_equal(a, b)
        assert len({id(ws) for ws in owners}) == 4
        assert all(ws.grow_events for ws in owners)
        assert all(ws is not thread_workspace() for ws in owners)

    def test_parallel_solve_runs_its_levels_in_the_thread_workspace(self):
        """The levels before a split run in the caller's own workspace,
        not a private pool; a second parallel solve reuses it."""
        trace = np.random.default_rng(15).integers(0, 500, size=20_000)
        want = iaf_distances(trace)

        def run():
            ws = thread_workspace()
            first = iaf_distances(trace, workers=2)
            warm = len(ws.grow_events)
            second = iaf_distances(trace, workers=2)
            return first, second, warm, len(ws.grow_events)

        first, second, warm, after = _on_fresh_thread(run)
        assert np.array_equal(first, want) and np.array_equal(second, want)
        assert warm > 0
        assert after == warm

    def test_int32_batch_and_int64_chunk_keep_their_buffers(self):
        """An int32-certified batch and an explicit int64 chunk solve
        alternating on one thread stop reallocating each other's
        buffers."""
        rng = np.random.default_rng(14)
        batch = [rng.integers(0, 400, size=3000) for _ in range(4)]
        assert batch_segments(batch)[1].r.dtype == np.int32
        chunk = rng.integers(0, 400, size=2048)

        def alternate():
            ws = thread_workspace()
            grown = []
            for _round in range(2):
                before = len(ws.grow_events)
                iaf_distances_batch(batch)
                # One int64 solve: a default chunk would certify int32.
                ChunkedIAF(chunk.size, dtype=np.int64).push(chunk)
                grown.append(len(ws.grow_events) - before)
            return grown

        first, second = _on_fresh_thread(alternate)
        assert first > 0
        assert second == 0

    def test_exact_tenants_add_no_workspaces(self):
        """Eight exact tenants pushed from one thread share that thread's
        workspace; each used to hold a pool of its own."""
        from repro.tenants import TenantRegistry

        def live_workspaces():
            return sum(isinstance(o, Workspace) for o in gc.get_objects())

        rng = np.random.default_rng(15)
        before = live_workspaces()
        registry = TenantRegistry()
        pushed = {f"t{i}": [] for i in range(8)}
        for tenant_id in pushed:
            registry.register(tenant_id, chunk_size=1024)
        for _round in range(3):
            for tenant_id, parts in pushed.items():
                part = rng.integers(0, 4096, size=1500)
                registry.push(tenant_id, part)
                parts.append(part)
        assert live_workspaces() - before <= 1
        for tenant_id, parts in pushed.items():
            ref = iaf_hit_rate_curve(np.concatenate(parts))
            got = registry.curve(tenant_id).exact_curve
            assert np.array_equal(got.hits_cumulative, ref.hits_cumulative)

    @pytest.mark.parametrize("call", [
        lambda ws: SolveConfig(workspace=ws),
        lambda ws: iaf_distances([1, 2, 1], workspace=ws),
        lambda ws: iaf_hit_rate_curve([1, 2, 1], workspace=ws),
        lambda ws: iaf_distances_batch([[1, 2, 1]], workspace=ws),
        lambda ws: iaf_hit_rate_curves_batch([[1, 2, 1]], workspace=ws),
        lambda ws: solve_prepost_arrays(
            Segments.single(*prepost_sequence_arrays(np.array([1, 2, 1])),
                            0, 3),
            np.zeros(4, dtype=np.int64), workspace=ws,
        ),
        lambda ws: ChunkedIAF(8, workspace=ws),
        lambda ws: chunked_iaf([1, 2, 1], 8, workspace=ws),
    ], ids=["SolveConfig", "iaf_distances", "iaf_hit_rate_curve",
            "iaf_distances_batch", "iaf_hit_rate_curves_batch",
            "solve_prepost_arrays", "ChunkedIAF", "chunked_iaf"])
    def test_workspace_keyword_is_gone(self, call):
        with pytest.raises(TypeError, match="workspace"):
            call(Workspace())


class TestLogicalNbytes:
    def test_single_matches_formula(self):
        kind, t, r = prepost_sequence_arrays(
            np.array([1, 2, 1, 3], dtype=np.int64)
        )
        seg = Segments.single(kind, t, r, 0, 4)
        per_op = kind.itemsize + t.itemsize + r.itemsize
        expected = seg.n_ops * per_op + 1 * (8 + 8) + 2 * 8
        assert seg.nbytes == expected

    def test_view_backed_part_reports_own_size(self):
        """A slice of a bigger batch must not report the base buffer."""
        kind, t, r = prepost_sequence_arrays(
            np.random.default_rng(0).integers(0, 9, size=64)
        )
        seg = Segments.single(kind, t, r, 0, 64)
        half = Segments(
            kind=seg.kind[: seg.n_ops // 2], t=seg.t[: seg.n_ops // 2],
            r=seg.r[: seg.n_ops // 2],
            starts=np.array([0, seg.n_ops // 2], dtype=np.int64),
            lo=seg.lo, hi=seg.hi, w=None,
        )
        assert 0 < half.nbytes < seg.nbytes


class TestHeadOverflowGuard:
    def test_int64_never_raises(self):
        _check_head_overflow(np.array([2**62], dtype=np.int64), np.int64)

    def test_int32_overflow_raises(self):
        with pytest.raises(CapacityError, match="int64"):
            _check_head_overflow(
                np.array([2**31], dtype=np.int64), np.int32
            )

    def test_int32_underflow_raises(self):
        with pytest.raises(CapacityError):
            _check_head_overflow(
                np.array([-(2**31) - 1], dtype=np.int64), np.int32
            )

    @pytest.mark.parametrize("backend", ENGINE_BACKENDS)
    def test_end_to_end_int32_head_raises(self, backend):
        """A merged head run past int32 raises instead of wrapping.

        Four leading full-interval prefixes each carrying effect 2**30
        project into both children as a mergeable leading run whose head
        sum (2**32) no int32 ``r`` can hold.
        """
        from repro.core.ops import POSTFIX, PREFIX

        n = 8
        kind = np.array([PREFIX] * 4 + [PREFIX, POSTFIX, PREFIX, POSTFIX],
                        dtype=np.uint8)
        t = np.array([n] * 4 + [0, 1, 1, 2], dtype=np.int32)
        r = np.array([2**30 - 1] * 4 + [0, 0, 0, 0], dtype=np.int32)
        seg = Segments.single(kind, t, r, 0, n)
        values = np.zeros(n + 1, dtype=np.int64)
        with pytest.raises(CapacityError, match="int64"):
            solve_prepost_arrays(seg, values, engine_backend=backend)

    @pytest.mark.parametrize("backend", ENGINE_BACKENDS)
    def test_end_to_end_int32_kept_r_raises(self, backend):
        """A kept op's ``r`` past int32 raises instead of wrapping.

        The four full-interval prefixes merge into the kept ``Prefix(0,
        0)`` of the left child, whose ``r`` becomes 2**32; an int32 solve
        used to store it as 0 and return cells ``[1, 0, 0, 0, 0, 1, 1, 1,
        1]`` where int64 gives ``[2**32 + 1, 2**32, ...]``.
        """
        from repro.core.ops import POSTFIX, PREFIX

        n = 8
        kind = np.array([POSTFIX, PREFIX] + [PREFIX] * 4, dtype=np.uint8)
        t = np.array([5, 0] + [n] * 4)
        r = np.array([0, 0] + [2**30 - 1] * 4)
        wide = np.zeros(n + 1, dtype=np.int64)
        solve_prepost_arrays(
            Segments.single(kind, t, r, 0, n), wide, engine_backend="naive"
        )
        assert wide[0] == 2**32 + 1
        seg = Segments.single(kind, t.astype(np.int32), r.astype(np.int32),
                              0, n)
        values = np.zeros(n + 1, dtype=np.int64)
        with pytest.raises(CapacityError, match="int64"):
            solve_prepost_arrays(seg, values, engine_backend=backend)


class TestBatchSolving:
    def _traces(self, sizes=(0, 1, 313, 4096, 77, 2500), universe=97):
        rng = np.random.default_rng(21)
        return [rng.integers(0, universe, size=s) for s in sizes]

    def test_batch_segments_disjoint_intervals(self):
        traces = self._traces()
        _arrs, seg, bases, total = batch_segments(traces, dtype=np.int64)
        assert seg.n_segments == len(traces)
        assert bases[0] == 0
        for i in range(len(traces) - 1):
            assert seg.hi[i] < seg.lo[i + 1]
        assert total == sum(t.size for t in traces) + len(traces)

    def test_batch_equals_per_trace_loop(self):
        traces = self._traces()
        batched = iaf_distances_batch(traces)
        assert len(batched) == len(traces)
        for t, d in zip(traces, batched):
            assert np.array_equal(d, iaf_distances(t))

    def test_batch_int32(self):
        traces = self._traces(sizes=(100, 0, 555))
        for t, d in zip(traces, iaf_distances_batch(traces, dtype=np.int32)):
            assert np.array_equal(d, iaf_distances(t, dtype=np.int32))

    def test_batch_empty_list(self):
        assert iaf_distances_batch([]) == []

    def test_batch_curves_equal_per_trace(self):
        traces = self._traces()
        curves = iaf_hit_rate_curves_batch(traces)
        for t, c in zip(traces, curves):
            ref = iaf_hit_rate_curve(t)
            assert np.array_equal(c.hits_cumulative, ref.hits_cumulative)
            assert c.total_accesses == ref.total_accesses

    def test_batch_auto_narrows_when_certified(self):
        """Default dtype narrows the op arrays to int32 when exact."""
        traces = self._traces()
        _arrs, seg, _bases, _total = batch_segments(traces)
        assert seg.t.dtype == np.int32
        assert seg.r.dtype == np.int32
        _arrs, seg64, _b, _t = batch_segments(traces, dtype=np.int64)
        assert seg64.t.dtype == np.int64

    def test_workspace_certifies_narrow_accumulator(self):
        """prime() picks int32 accumulation only under the effect bound."""
        from repro.core.ops import POSTFIX, PREFIX

        kind = np.array([PREFIX, POSTFIX], dtype=np.uint8)
        t = np.array([0, 1], dtype=np.int32)
        small = Segments.single(kind, t, np.array([3, 0], dtype=np.int32),
                                0, 2)
        ws = Workspace()
        ws.prime(small)
        assert ws.acc_dtype == np.int32
        huge = Segments.single(
            kind, t, np.array([2**31 - 2, 2], dtype=np.int32), 0, 2
        )
        ws.prime(huge)
        assert ws.acc_dtype == np.int64

    def test_prime_narrows_root_ops_with_reaccesses(self):
        """Root ops carry r = -1 on every re-access, and the width rule
        still certifies their int32 accumulator (the old ``r >= 0``
        test never did)."""
        from repro.workloads.synthetic import zipfian_trace

        traces = [zipfian_trace(2048, 400, 0.8, seed=s) for s in range(32)]
        _arrs, seg, _bases, _total = batch_segments(traces)
        assert seg.r.dtype == np.int32 and int(seg.r.min()) == -1
        ws = Workspace()
        ws.prime(seg)
        assert ws.acc_dtype == np.int32

        def solve():
            got = iaf_distances_batch(traces)
            return got, thread_workspace().acc_dtype

        got, acc = _on_fresh_thread(solve)
        assert acc == np.int32
        for t, d in zip(traces, got):
            assert np.array_equal(d, iaf_distances(t, dtype=np.int64,
                                                   engine_backend="naive"))

    def test_wrapping_running_sum_stays_exact(self, monkeypatch):
        """A trailing full-interval Prefix(n, 2**29) lands in the run of
        every segment's last kept op, so its effect recurs in every
        segment and a level chunk's running sum ``c0`` passes int32 by
        orders of magnitude; only in-segment differences are read, so
        the int32 solve still equals naive int64 bit for bit.  (A
        leading one would land in the bases, which are int64.)
        """
        from repro.core import engine
        from repro.core.ops import PREFIX
        from repro.core.prevnext import prev_next_arrays

        trace = np.random.default_rng(22).integers(0, 300, size=4096)
        n = trace.size

        def ops(dt):
            kind, t, r = prepost_sequence_arrays(trace, dtype=dt)
            return (np.concatenate([kind, [PREFIX]]).astype(np.uint8),
                    np.concatenate([t, [n]]).astype(dt),
                    np.concatenate([r, [2**29]]).astype(dt))

        true_c0 = []
        real_child = engine._fused_child

        def child_spy(kept, eff, *args):
            if eff.size:
                true_c0.append(int(np.abs(np.cumsum(eff, dtype=np.int64))
                                   .max()))
            return real_child(kept, eff, *args)

        monkeypatch.setattr(engine, "_fused_child", child_spy)

        def fused():
            values = np.zeros(n + 1, dtype=np.int64)
            solve_prepost_arrays(Segments.single(*ops(np.int32), 0, n),
                                 values, engine_backend="fused")
            return values, thread_workspace().acc_dtype

        got, acc = _on_fresh_thread(fused)
        want = np.zeros(n + 1, dtype=np.int64)
        solve_prepost_arrays(Segments.single(*ops(np.int64), 0, n), want,
                             engine_backend="naive")
        assert acc == np.int32
        assert max(true_c0) > 100 * np.iinfo(np.int32).max
        assert np.array_equal(got, want)
        # The Prefix comes last, so it adds 2**29 + 1 only to the cells
        # no Postfix froze: those whose address never recurs.
        never_again = prev_next_arrays(trace)[1] >= n
        assert np.array_equal(got[1:] - (2**29 + 1) * never_again,
                              iaf_distances(trace))

    def test_batch_int32_capacity_error(self):
        """Rebasing past the dtype max must fail loudly, not wrap."""
        traces = [np.zeros(2**20, dtype=np.int32)] * 2049
        with pytest.raises(CapacityError):
            batch_segments(traces, dtype=np.int32)

    def test_parallel_batch_matches_serial(self):
        traces = self._traces()
        serial = iaf_distances_batch(traces)
        par = iaf_distances_batch(traces, workers=4)
        for a, b in zip(serial, par):
            assert np.array_equal(a, b)
        curves = iaf_hit_rate_curves_batch(traces)
        pcurves = hit_rate_curves_batch(
            traces, SolveConfig(algorithm="parallel-iaf", workers=4))
        for a, b in zip(curves, pcurves):
            assert np.array_equal(a.hits_cumulative, b.hits_cumulative)

    def test_batch_shares_levels(self):
        """One batched solve runs log(max n) levels, not sum of logs."""
        traces = self._traces(sizes=(4096, 4096, 4096, 4096))
        stats = EngineStats()
        iaf_distances_batch(traces, stats=stats)
        solo = EngineStats()
        iaf_distances(traces[0], stats=solo)
        assert stats.levels <= solo.levels + 1


def _by_lo(seg, heads):
    """Each segment of one level keyed by ``lo``: ``(hi, base, kind, t,
    r, w)``.  With ``heads``, a naive segment's head op (a leading
    full-interval Prefix, which no kept op can be) is taken off its ops
    and its effect read as the base."""
    rows = {}
    for s in range(seg.n_segments):
        a, b = int(seg.starts[s]), int(seg.starts[s + 1])
        lo, hi = int(seg.lo[s]), int(seg.hi[s])
        kind, t, r = seg.kind[a:b], seg.t[a:b], seg.r[a:b]
        w = None if seg.w is None else seg.w[a:b]
        base = 0 if seg.base is None else int(seg.base[s])
        if heads and b > a and kind[0] == PREFIX and t[0] == hi:
            assert w is None or w[0] == 0
            base = int(r[0]) + (1 if w is None else 0)
            assert base != 0, "a head whose effect is 0 is never written"
            kind, t, r = kind[1:], t[1:], r[1:]
            w = None if w is None else w[1:]
        rows[lo] = (hi, base, kind.tolist(), t.tolist(), r.tolist(),
                    None if w is None else w.tolist(), r.dtype)
    return rows


def _step_levels(root, carried=None):
    """Step the fused and naive kernels level by level from ``root``;
    every level's fused ops must be the naive ops without their heads,
    and every fused base the effect of the naive head (0 without one).
    A carried segment index must be each op's segment.  Returns how
    many levels held a nonzero base; ``carried`` collects, per level,
    whether it carried the index."""
    ws = Workspace()
    ws.prime(root)
    fused = naive = root
    level = based = 0
    while True:
        internal = naive.lo != naive.hi
        if not internal.any():
            return based
        naive = engine._partition_level(naive, internal)
        fused = engine._partition_level_fused(fused, fused.lo != fused.hi,
                                              ws, level)
        level += 1
        assert _by_lo(fused, heads=False) == _by_lo(naive, heads=True)
        if fused.seg_of_op is not None:
            assert np.array_equal(
                fused.seg_of_op,
                np.repeat(np.arange(fused.n_segments), fused.counts()))
        if carried is not None:
            carried.append(fused.seg_of_op is not None)
        if fused.base.any():
            based += 1


@st.composite
def op_batches(draw):
    """A root batch of arbitrary ops on disjoint cell intervals: unit or
    weighted, int64 or int32 (small ``r``, so certified).  Full-interval
    Prefixes are frequent, so levels get heads, and a segment whose
    every op merges becomes one with a base and no ops, down to empty
    leaves."""
    weighted = draw(st.booleans())
    dtype = draw(st.sampled_from([np.int32, np.int64]))
    kinds, ts, rs, ws, counts, los, his = [], [], [], [], [], [], []
    lo = 0
    for _ in range(draw(st.integers(1, 4))):
        hi = lo + draw(st.integers(0, 11))
        ops = draw(st.lists(st.tuples(
            st.sampled_from([PREFIX, POSTFIX]),
            st.one_of(st.just(hi), st.integers(lo, hi)),
            st.integers(-2, 3),
            st.integers(0, 4),
        ), max_size=24))
        for kind, t, r, w in ops:
            kinds.append(kind)
            ts.append(t)
            rs.append(r)
            ws.append(w)
        counts.append(len(ops))
        los.append(lo)
        his.append(hi)
        lo = hi + 1
    starts = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=starts[1:])
    return Segments(
        kind=np.array(kinds, dtype=np.uint8), t=np.array(ts, dtype=dtype),
        r=np.array(rs, dtype=dtype), starts=starts,
        lo=np.array(los, dtype=np.int64), hi=np.array(his, dtype=np.int64),
        w=np.array(ws, dtype=dtype) if weighted else None,
    )


def _solve_with(root, backend):
    values = np.zeros(int(root.hi.max()) + 1, dtype=np.int64)
    stats = EngineStats()
    solve_prepost_arrays(root, values, stats=stats, engine_backend=backend)
    return values, stats


class TestHeadlessLevels:
    """The fused kernel writes only kept ops and keeps each head as a
    per-segment base; the naive kernel keeps the paper's head ops."""

    @given(op_batches())
    def test_levels_match_naive_without_heads(self, root):
        _step_levels(root)
        (fused, fs), (naive, ns) = (_solve_with(root, "fused"),
                                    _solve_with(root, "naive"))
        assert np.array_equal(fused, naive)
        assert (fs.work, fs.ops_per_level, fs.span_basic,
                fs.peak_level_ops) == (ns.work, ns.ops_per_level,
                                       ns.span_basic, ns.peak_level_ops)

    @pytest.mark.parametrize("dtype", [None, np.int64])
    def test_batch_levels_match_naive(self, dtype):
        rng = np.random.default_rng(41)
        traces = [rng.integers(0, 60, size=s) for s in (0, 1, 300, 77, 513)]
        _arrs, root, _bases, _total = batch_segments(traces, dtype=dtype)
        assert root.r.dtype == (np.int32 if dtype is None else np.int64)
        assert _step_levels(root) > 0

    def test_weighted_levels_match_naive(self):
        from repro.core.weighted import weighted_prepost_arrays

        rng = np.random.default_rng(42)
        trace = rng.integers(0, 50, size=600)
        sizes = rng.integers(1, 9, size=50)
        kind, t, r, w = weighted_prepost_arrays(trace, sizes)
        root = Segments.single(kind, t, r, 0, trace.size, w=w)
        assert _step_levels(root) > 0

    @pytest.mark.parametrize("carry_ops", [1, 16])
    @given(root=op_batches())
    def test_streaming_levels_match_naive(self, carry_ops, root):
        """With a cache block of 4 ops, almost every level is larger
        than one block and runs in many chunks: it carries no segment
        index while its segments average ``carry_ops`` ops or more."""
        with mock.patch.object(engine, "_LEVEL_CHUNK_OPS", 4), \
                mock.patch.object(engine, "_CARRY_OPS", carry_ops):
            _step_levels(root)
            (fused, fs), (naive, ns) = (_solve_with(root, "fused"),
                                        _solve_with(root, "naive"))
        assert np.array_equal(fused, naive)
        assert fs.work == ns.work and fs.ops_per_level == ns.ops_per_level

    @pytest.mark.parametrize("weighted", [False, True])
    @pytest.mark.parametrize("search_ops", [0, 20, 10**9])
    def test_index_is_dropped_and_rebuilt(self, weighted, search_ops):
        """A trace whose first levels stream (no index), whose deeper
        levels carry one again (rebuilt once), whose children count kept
        ops by binary search, by ``bincount`` or by both."""
        rng = np.random.default_rng(43)
        trace = rng.integers(0, 40, size=3000)
        if weighted:
            from repro.core.weighted import weighted_prepost_arrays

            kind, t, r, w = weighted_prepost_arrays(
                trace, rng.integers(1, 9, size=40))
        else:
            (kind, t, r), w = prepost_sequence_arrays(trace), None
        root = Segments.single(kind, t, r, 0, trace.size, w=w)
        carried = []
        with mock.patch.object(engine, "_LEVEL_CHUNK_OPS", 256), \
                mock.patch.object(engine, "_SEARCH_OPS", search_ops):
            _step_levels(root, carried)
            (fused, fs), (naive, ns) = (_solve_with(root, "fused"),
                                        _solve_with(root, "naive"))
        assert carried[0] is False and carried[-1] is True
        assert np.array_equal(fused, naive)
        assert fs.work == ns.work and fs.ops_per_level == ns.ops_per_level

    @pytest.mark.parametrize("weighted", [False, True])
    def test_base_without_ops_reaches_every_leaf(self, weighted):
        """Only full-interval Prefixes: level 0 leaves no op at all, and
        their effect reaches every cell through the bases."""
        n = 8
        kind = np.full(3, PREFIX, dtype=np.uint8)
        t = np.full(3, n, dtype=np.int64)
        r = np.array([1, 2, 3], dtype=np.int64)
        w = np.array([2, 0, 1], dtype=np.int64) if weighted else None
        root = Segments.single(kind, t, r, 0, n, w=w)
        assert _step_levels(root) > 0
        (fused, fs), (naive, ns) = (_solve_with(root, "fused"),
                                    _solve_with(root, "naive"))
        # Unit effects r + 1, weighted w + r: 9 either way, in every
        # cell, as nothing freezes one.
        assert fused.tolist() == naive.tolist() == [9] * (n + 1)
        assert fs.work == ns.work and fs.ops_per_level == ns.ops_per_level


class TestSplitWithBases:
    """A split level writes its nonzero bases back as head ops, so the
    parts keep the op format threads and the executor solve."""

    @staticmethod
    def _spy(monkeypatch):
        seen = {"heads": [], "parts": []}
        real_heads, real_split = engine._with_heads, engine._split_segments

        def with_heads(seg):
            seen["heads"].append(
                0 if seg.base is None else int(np.count_nonzero(seg.base)))
            return real_heads(seg)

        def split(seg, groups):
            parts = real_split(seg, groups)
            seen["parts"].extend(parts)
            return parts

        monkeypatch.setattr(engine, "_with_heads", with_heads)
        monkeypatch.setattr(engine, "_split_segments", split)
        return seen

    @staticmethod
    def _executor(on):
        if on == "threads":
            return None
        executor = default_executor(2)
        if executor is None:
            pytest.skip("no shared memory on this platform")
        return executor

    @staticmethod
    def _root(weighted, dtype):
        """A trace's ops behind a leading full-interval Prefix: its
        effect is every segment's base at every level, the split level
        included."""
        from repro.core.weighted import weighted_prepost_arrays

        rng = np.random.default_rng(43)
        trace = rng.integers(0, 900, size=30_000)
        n = trace.size
        if weighted:
            kind, t, r, w = weighted_prepost_arrays(
                trace, rng.integers(1, 17, size=900))
            w = np.concatenate([[3], w]).astype(dtype)
        else:
            kind, t, r = prepost_sequence_arrays(trace)
            w = None
        return Segments.single(
            np.concatenate([[PREFIX], kind]).astype(np.uint8),
            np.concatenate([[n], t]).astype(dtype),
            np.concatenate([[5], r]).astype(dtype), 0, n, w=w)

    @pytest.mark.parametrize("on", ["threads", "executor"])
    @pytest.mark.parametrize("weighted", [False, True],
                             ids=["unit", "weighted"])
    def test_split_matches_serial(self, monkeypatch, weighted, on):
        # Small r: the int32 root certifies, and its parts ship as int32.
        root = self._root(weighted, np.int32)
        n = int(root.hi[0])
        want = np.zeros(n + 1, dtype=np.int64)
        solve_prepost_arrays(root, want, engine_backend="naive")
        serial = np.zeros(n + 1, dtype=np.int64)
        solve_prepost_arrays(root, serial)
        seen = self._spy(monkeypatch)
        got = np.zeros(n + 1, dtype=np.int64)
        solve_prepost_arrays(root, got, workers=4,
                             executor=self._executor(on))
        assert seen["heads"] == [16]
        parts = seen["parts"]
        assert {p.r.dtype for p in parts} == {np.dtype(np.int32)}
        assert all(p.base is None for p in parts)
        assert all((p.w is not None) == weighted for p in parts)
        assert np.array_equal(serial, want)
        assert np.array_equal(got, want)


class TestCertifyOnce:
    """Every solve runs certify_int32 once: the root's builder carries
    its verdict to the accumulator rule and the span attributes."""

    @pytest.mark.parametrize("traced", [False, True])
    @pytest.mark.parametrize("solve", [
        lambda trace: iaf_distances(trace),
        lambda trace: iaf_distances(trace.astype(np.int32), dtype=np.int32),
        lambda trace: iaf_distances_batch([trace, trace[::2], trace[:77]]),
    ], ids=["unpinned", "pinned-int32", "batch"])
    def test_one_certification_per_solve(self, monkeypatch, solve, traced):
        from repro.obs import tracing

        calls = []
        real = engine.certify_int32

        def spy(*args, **kwargs):
            calls.append(args[:2])
            return real(*args, **kwargs)

        monkeypatch.setattr(engine, "certify_int32", spy)
        trace = np.random.default_rng(45).integers(0, 200, size=3000)
        if traced:
            with tracing():
                solve(trace)
        else:
            solve(trace)
        assert len(calls) == 1, calls


class TestMergePartValues:
    def test_out_of_order_noncontiguous_runs(self):
        values = np.full(20, -1, dtype=np.int64)
        # Part owns [8,11] and [2,5] (out of order), with a gap at [6,7].
        lo = np.array([8, 2], dtype=np.int64)
        hi = np.array([11, 5], dtype=np.int64)
        local = np.arange(2, 12, dtype=np.int64) * 10
        _merge_part_values(values, lo, hi, local)
        assert values[2:6].tolist() == [20, 30, 40, 50]
        assert values[8:12].tolist() == [80, 90, 100, 110]
        assert values[6:8].tolist() == [-1, -1], "gap cells must be untouched"
        assert values[0:2].tolist() == [-1, -1]

    def test_adjacent_segments_coalesce(self):
        values = np.zeros(10, dtype=np.int64)
        lo = np.array([3, 6], dtype=np.int64)
        hi = np.array([5, 8], dtype=np.int64)
        local = np.arange(3, 9, dtype=np.int64)
        _merge_part_values(values, lo, hi, local)
        assert values[3:9].tolist() == [3, 4, 5, 6, 7, 8]

    def test_empty_part(self):
        values = np.ones(4, dtype=np.int64)
        _merge_part_values(values, np.zeros(0, np.int64),
                           np.zeros(0, np.int64), np.zeros(0, np.int64))
        assert values.tolist() == [1, 1, 1, 1]

    def test_matches_process_pool_path(self):
        trace = np.random.default_rng(9).integers(0, 400, size=30_000)
        want = iaf_distances(trace)
        for be in ENGINE_BACKENDS:
            got = iaf_distances(trace, workers=3, engine_backend=be,
                                executor=default_executor(3))
            assert np.array_equal(want, got)


class TestParallelBackends:
    @pytest.mark.parametrize("backend", ENGINE_BACKENDS)
    def test_thread_pool_parity(self, backend):
        trace = np.random.default_rng(17).integers(0, 512, size=40_000)
        assert np.array_equal(
            iaf_distances(trace, workers=4, engine_backend=backend),
            iaf_distances(trace),
        )
