"""The persistent shared-memory executor: arena, dispatch, correctness.

Acceptance anchors (ISSUE 5):

* executor results bit-identical to single-process ``iaf_distances``
  across a 25-seed differential;
* a second request on a warm pool performs **no array pickling** — the
  serialization-spy test monkeypatches the executor's single
  serialization point and walks every outbound message for ndarrays;
* the pool is actually persistent: worker PIDs are stable across
  requests, and the service's ``process-iaf`` requests reuse it.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.core.engine as engine
import repro.parallel_exec as pe
from repro.core.engine import iaf_distances, iaf_hit_rate_curve
from repro.core.weighted import weighted_backward_distances
from repro.errors import ExecutorError
from repro.parallel_exec import (
    ProcessExecutor,
    SharedArena,
    default_executor,
    shutdown_default_executor,
)


def make_trace(seed: int, max_len: int = 4000) -> np.ndarray:
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, max_len))
    return rng.integers(0, int(rng.integers(2, 400)), size=n)


@pytest.fixture(scope="module")
def executor():
    with ProcessExecutor(workers=2) as ex:
        yield ex


class TestSharedArena:
    def test_alloc_free_roundtrip(self):
        arena = SharedArena(1 << 16)
        try:
            block = arena.alloc(1000)
            view = arena.view(block, np.int64, 125)
            view[:] = np.arange(125)
            assert np.array_equal(
                arena.view(block, np.int64, 125), np.arange(125)
            )
            assert arena.live_blocks == 1
            arena.free(block)
            assert arena.live_blocks == 0
        finally:
            del view  # views must not outlive the backing segment
            arena.close()

    def test_free_coalesces(self):
        arena = SharedArena(1 << 16)
        try:
            # Fill the arena, free everything, and the full size must be
            # allocatable again — fragmentation would strand capacity.
            blocks = []
            while True:
                block = arena.alloc(1 << 10)
                if block is None:
                    break
                blocks.append(block)
            assert len(blocks) > 1
            for block in blocks[::2] + blocks[1::2]:  # interleaved order
                arena.free(block)
            big = arena.alloc(arena.size - 2 * 64)
            assert big is not None
        finally:
            arena.close()

    def test_generations_are_unique_and_zeroed_on_free(self):
        arena = SharedArena(1 << 14)
        try:
            a = arena.alloc(64)
            gen_a = a.generation
            arena.free(a)
            b = arena.alloc(64)  # same offset, new generation
            assert b.offset == a.offset
            assert b.generation > gen_a
            hdr = np.frombuffer(arena._shm.buf, dtype=np.uint64, count=1,
                                offset=b.offset)
            assert int(hdr[0]) == b.generation
        finally:
            del hdr
            arena.close()

    def test_stale_descriptor_detected(self):
        arena = SharedArena(1 << 14)
        try:
            block = arena.alloc(64)
            desc = arena.describe(block, np.dtype(np.int64), 8)
            arena.free(block)
            with pytest.raises(ExecutorError, match="stale"):
                pe._resolve_array(arena._shm.buf, desc)
        finally:
            arena.close()

    def test_alloc_exhaustion_returns_none(self):
        arena = SharedArena(1 << 12)
        try:
            assert arena.alloc(1 << 20) is None
        finally:
            arena.close()


class TestDifferential:
    def test_bit_identical_across_25_seeds(self, executor):
        """Acceptance: executor curves == single-process engine, 25 seeds."""
        for seed in range(25):
            trace = make_trace(seed)
            for workers in (2, 3):
                got = iaf_distances(
                    trace, workers=workers, executor=executor
                )
                assert np.array_equal(got, iaf_distances(trace)), (
                    seed, workers
                )

    def test_weighted_dispatch_matches(self, executor):
        rng = np.random.default_rng(7)
        trace = rng.integers(0, 120, size=3000)
        sizes = rng.integers(1, 6, size=121)[trace]
        got = weighted_backward_distances(
            trace, sizes, workers=2, executor=executor
        )
        assert np.array_equal(got, weighted_backward_distances(trace, sizes))

    def test_both_backends(self, executor):
        trace = make_trace(99)
        for backend in ("fused", "naive"):
            got = iaf_distances(
                trace, workers=2, engine_backend=backend, executor=executor
            )
            assert np.array_equal(got, iaf_distances(trace))


class TestWarmPool:
    def test_workers_reused_across_requests(self, executor):
        trace = make_trace(3)
        iaf_distances(trace, workers=2, executor=executor)
        pids = executor.worker_pids()
        for seed in range(4, 8):
            iaf_distances(
                make_trace(seed), workers=2, executor=executor
            )
        assert executor.worker_pids() == pids

    def test_no_array_pickling_on_warm_dispatch(self, monkeypatch):
        """Acceptance: descriptors only — no ndarray crosses the pipe."""
        trace = make_trace(11)

        def contains_ndarray(obj) -> bool:
            if isinstance(obj, np.ndarray):
                return True
            if isinstance(obj, dict):
                return any(contains_ndarray(v) for k_v in obj.items()
                           for v in k_v)
            if isinstance(obj, (list, tuple, set)):
                return any(contains_ndarray(v) for v in obj)
            return False

        real_dumps = pe._dumps
        spied = []

        def spy(obj):
            spied.append(obj)
            assert not contains_ndarray(obj), (
                f"ndarray pickled across the pipe: {obj!r}"
            )
            return real_dumps(obj)

        with ProcessExecutor(workers=2) as ex:
            # First dispatch warms nothing further (workers exist since
            # construction), but the acceptance wording is about the
            # second request: spy from a clean slate for it.
            iaf_distances(trace, workers=2, executor=ex)
            monkeypatch.setattr(pe, "_dumps", spy)
            got = iaf_distances(
                make_trace(12), workers=2, executor=ex
            )
        assert np.array_equal(got, iaf_distances(make_trace(12)))
        jobs = [m for m in spied if m[0] == "job"]
        assert jobs, "warm dispatch sent no jobs through the executor"

    def test_counters_track_dispatches(self):
        with ProcessExecutor(workers=2) as ex:
            before = ex.metrics().get("exec.dispatch", 0)
            iaf_distances(
                make_trace(13), workers=2, executor=ex
            )
            metrics = ex.metrics()
        assert metrics["exec.dispatch"] == before + 1
        assert metrics["exec.jobs"] >= 1

    def test_dispatch_span_emitted(self, executor):
        from repro.obs import tracing

        with tracing() as tracer:
            iaf_distances(
                make_trace(14), workers=2, executor=executor
            )
        assert "exec.dispatch" in {e.name for e in tracer.events()}


class TestDefaultExecutor:
    def test_shared_and_grown(self):
        shutdown_default_executor()
        try:
            ex = default_executor(2)
            assert ex is not None
            assert default_executor(2) is ex
            default_executor(3)
            assert ex.workers >= 3
        finally:
            shutdown_default_executor()

    def test_unbuildable_pool_falls_back_to_threads(self, monkeypatch):
        from repro import SolveConfig, solve

        def no_shared_memory(*args, **kwargs):
            raise OSError("no shared memory")

        executors = []
        real_parts = engine._solve_parts

        def spy(parts, out, workers, executor, *args):
            executors.append(executor)
            return real_parts(parts, out, workers, executor, *args)

        shutdown_default_executor()
        monkeypatch.setattr(pe, "ProcessExecutor", no_shared_memory)
        monkeypatch.setattr(engine, "_solve_parts", spy)
        assert default_executor(2) is None
        # process-iaf then splits onto threads, which write the same cells.
        trace = make_trace(21, max_len=800)
        got = solve(trace, SolveConfig(algorithm="process-iaf", workers=2))
        assert np.array_equal(got.distances, iaf_distances(trace))
        assert executors == [None]

    def test_recreated_after_shutdown(self):
        ex = default_executor(2)
        shutdown_default_executor()
        ex2 = default_executor(2)
        try:
            assert ex2 is not None and ex2 is not ex and not ex2.closed
        finally:
            shutdown_default_executor()


class TestLifecycle:
    def test_close_idempotent_and_rejects_dispatch(self):
        ex = ProcessExecutor(workers=1)
        ex.close()
        ex.close()
        with pytest.raises(ExecutorError, match="closed"):
            ex.solve_parts([], np.zeros(1, dtype=np.int64))

    def test_drain_unlinks_arena(self):
        ex = ProcessExecutor(workers=1)
        name = ex._arena.name
        ex.drain()
        from multiprocessing import shared_memory

        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)

    def test_constructor_validation(self):
        for kwargs in (dict(workers=0), dict(dispatch_timeout=0),
                       dict(max_retries=-1)):
            with pytest.raises(ExecutorError):
                ProcessExecutor(**kwargs)

    def test_ensure_workers_grows(self):
        with ProcessExecutor(workers=1) as ex:
            ex.ensure_workers(3)
            assert ex.workers == 3
            ex.ensure_workers(2)  # never shrinks
            assert ex.workers == 3

    def test_tiny_arena_grows_transparently(self):
        trace = make_trace(31)
        with ProcessExecutor(workers=2, arena_bytes=1 << 12) as ex:
            got = iaf_distances(
                trace, workers=2, executor=ex
            )
            metrics = ex.metrics()
        assert np.array_equal(got, iaf_distances(trace))
        assert metrics.get("exec.arena_grow", 0) >= 1


class TestServiceIntegration:
    def test_sharded_process_requests_share_the_pool(self):
        """Per-request process-iaf solves run as asked, on the one
        shared pool, which outlives the service."""
        from repro import SolveConfig
        from repro.service import CurveService

        shutdown_default_executor()
        trace = np.random.default_rng(5).integers(0, 500, size=5000)
        cfg = SolveConfig(algorithm="process-iaf", workers=2)
        try:
            with CurveService(workers=1) as svc:
                ex = default_executor(2)
                pids = ex.worker_pids()
                r1 = svc.submit(trace, cfg).result(timeout=120)
                r2 = svc.submit(trace[::-1].copy(), cfg).result(
                    timeout=120)
                assert ex.worker_pids() == pids
            assert r1.config.algorithm == "process-iaf"
            assert np.array_equal(
                r1.curve.hits_cumulative,
                iaf_hit_rate_curve(trace).hits_cumulative,
            )
            assert np.array_equal(
                r2.curve.hits_cumulative,
                iaf_hit_rate_curve(trace[::-1].copy()).hits_cumulative,
            )
            # Service close must not tear down the shared pool.
            assert not ex.closed
        finally:
            shutdown_default_executor()

    def test_process_iaf_algorithm_dispatch(self):
        from repro import SolveConfig, hit_rate_curve

        trace = make_trace(41, max_len=2000)
        got = hit_rate_curve(trace,
                             SolveConfig(algorithm="process-iaf",
                                         workers=2))
        assert np.array_equal(got.hits_cumulative,
                              iaf_hit_rate_curve(trace).hits_cumulative)


def _make_part(seed: int, n: int = 2000, universe: int = 100,
               dtype=np.int64):
    """A root-level Segments part, the shape ``solve_parts`` receives,
    at a pinned ``dtype`` or (``None``) at the certified width."""
    from repro.core.engine import Segments, _root_ops
    from repro.core.prevnext import prev_next_arrays

    trace = np.random.default_rng(seed).integers(0, universe, size=n)
    prev = prev_next_arrays(trace)[0]
    kind, t, r = _root_ops(trace, prev, dtype)
    return trace, Segments.single(kind, t, r, 0, trace.size)


class TestConcurrentDispatch:
    """Regression for the whole-dispatch RLock (ISSUE 6 satellite 1).

    ``solve_parts`` used to hold the executor's re-entrant lock across
    publish + send + collect, so two shards dispatched from different
    threads ran strictly one after the other.  The barrier inside the
    fault hook can only be satisfied if both threads are inside their
    own dispatch at the same time — under the old lock it times out.
    """

    def test_dispatches_overlap(self):
        import threading

        from repro.obs import tracing

        barrier = threading.Barrier(2, timeout=30)
        local = threading.local()
        meets = []

        def hook(executor, worker_index, event):
            if getattr(local, "met", False):
                return  # only rendezvous on each thread's first job
            local.met = True
            try:
                meets.append(barrier.wait(timeout=30))
            except threading.BrokenBarrierError:
                meets.append(None)

        traces = [make_trace(101, max_len=3000), make_trace(102,
                                                            max_len=3000)]
        results = [None, None]

        def run(i, ex):
            results[i] = iaf_distances(
                traces[i], workers=2, executor=ex
            )

        with ProcessExecutor(workers=2) as ex:
            pe.set_fault_hook(hook)
            try:
                with tracing() as tracer:
                    threads = [
                        threading.Thread(target=run, args=(i, ex))
                        for i in range(2)
                    ]
                    for th in threads:
                        th.start()
                    for th in threads:
                        th.join(timeout=120)
            finally:
                pe.clear_fault_hook()
        assert meets == [0, 1] or meets == [1, 0], (
            f"dispatches did not overlap: {meets}"
        )
        for i in (0, 1):
            assert np.array_equal(results[i], iaf_distances(traces[i])), i
        spans = [e for e in tracer.events() if e.name == "exec.dispatch"]
        assert len(spans) == 2
        a, b = spans
        assert a.start < b.end and b.start < a.end, (
            "exec.dispatch spans must overlap in time"
        )


class TestInt32Publish:
    """Parts ship at the width of the solve they were cut from.

    An unpinned solve certifies its root ops int32 once
    (:func:`~repro.core.engine.certify_int32`), so its parts ship int32
    ``t``/``r``, half an int64 payload; a solve pinned to int64 keeps
    int64 parts all the way into the workers.
    """

    def test_small_part_ships_int32_and_halves_payload(self, executor):
        _, seg = _make_part(7, dtype=None)
        assert seg.r.dtype == np.int32
        with executor._alloc_lock:
            job = executor._try_publish(seg)
        assert job is not None
        try:
            for key in ("t", "r"):
                off, gen, dtype_str, count = job.payload[key]
                assert np.dtype(dtype_str) == np.dtype(np.int32), key
                shipped = count * np.dtype(dtype_str).itemsize
                assert shipped * 2 == count * 8, key
            # Bookkeeping arrays and the output stay int64.
            for key in ("starts", "lo", "hi", "out"):
                assert np.dtype(job.payload[key][2]) == np.dtype(np.int64)
        finally:
            with executor._alloc_lock:
                executor._release(job)

    def test_uncertifiable_r_stays_int64(self, executor):
        from repro.core.engine import Segments

        _, seg = _make_part(8)
        r = seg.r.copy()
        r[0] = 2**31  # no int32 holds it: the part must not narrow
        seg = Segments(kind=seg.kind, t=seg.t, r=r, starts=seg.starts,
                       lo=seg.lo, hi=seg.hi, w=seg.w)
        with executor._alloc_lock:
            job = executor._try_publish(seg)
        assert job is not None
        try:
            for key in ("t", "r"):
                assert np.dtype(job.payload[key][2]) == np.dtype(np.int64)
        finally:
            with executor._alloc_lock:
                executor._release(job)

    def test_narrowed_dispatch_is_bit_identical(self):
        trace = make_trace(55, max_len=3000)
        with ProcessExecutor(workers=2) as ex:
            got = iaf_distances(
                trace, workers=2, executor=ex
            )
        assert np.array_equal(got, iaf_distances(trace))


class TestInlineDegrade:
    """Parts the arena cannot hold are solved inline on the caller's
    thread — the rung whose solve primes the very workspace the split
    level was cut from, so it is exact only when parts own their arrays.
    """

    @pytest.mark.parametrize("weighted", [False, True],
                             ids=["unit", "weighted"])
    def test_arena_full_split_solves_every_part_inline(self, monkeypatch,
                                                       weighted):
        rng = np.random.default_rng(23)
        trace = rng.integers(0, 300, size=6000)
        sizes = rng.integers(1, 9, size=300)
        if weighted:
            want = weighted_backward_distances(trace, sizes)
        else:
            want = iaf_distances(trace)

        splits = []
        real_split = engine._split_segments

        def split_spy(seg, groups):
            splits.append(real_split(seg, groups))
            return splits[-1]

        inline = []
        real_inline = ProcessExecutor._solve_in_process

        def inline_spy(self, part, values, engine_backend):
            inline.append(part)
            return real_inline(self, part, values, engine_backend)

        monkeypatch.setattr(engine, "_split_segments", split_spy)
        monkeypatch.setattr(ProcessExecutor, "_solve_in_process", inline_spy)
        # No part fits, and the arena may not grow to hold one.
        monkeypatch.setattr(pe, "_MAX_ARENA_BYTES", 1 << 12)
        with ProcessExecutor(workers=2, arena_bytes=1 << 12) as ex:
            if weighted:
                got = weighted_backward_distances(trace, sizes, workers=4,
                                                  executor=ex)
            else:
                got = iaf_distances(trace, workers=4, executor=ex)
            metrics = ex.metrics()
        assert np.array_equal(got, want)
        (parts,) = splits
        assert len(parts) > 1
        assert [id(p) for p in inline] == [id(p) for p in parts]
        assert metrics["exec.arena_full"] == len(parts)
        assert metrics.get("exec.jobs", 0) == 0
