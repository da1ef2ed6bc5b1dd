"""CurveService: batching correctness and every failure mode.

The pause()/resume() gate makes the failure-mode tests deterministic:
while paused, no request leaves the admission queue, so saturation,
queued-deadline expiry, and drain scenarios can be staged exactly.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro import SolveConfig
from repro.core import api
from repro.core.engine import iaf_hit_rate_curve
from repro.errors import (
    CapacityError,
    DeadlineExceededError,
    ReproError,
    ServiceClosedError,
    ServiceOverloadedError,
)
from repro.service import CurveService
from repro.service.curve_service import TICK_SECONDS


def make_traces(seed: int, count: int, max_len: int = 1200):
    rng = np.random.default_rng(seed)
    return [
        rng.integers(0, int(u), size=int(n))
        for n, u in zip(
            rng.integers(1, max_len, size=count),
            rng.integers(2, 200, size=count),
        )
    ]


class TestDifferential:
    def test_service_bit_identical_across_25_seeds(self):
        """Acceptance: batched service results == direct iaf, 25 seeds."""
        with CurveService(workers=3, max_batch=16) as svc:
            for seed in range(25):
                traces = make_traces(seed, count=4, max_len=600)
                svc.pause()
                futures = [svc.submit(t) for t in traces]
                svc.resume()
                for t, f in zip(traces, futures):
                    served = f.result(timeout=60).curve
                    direct = iaf_hit_rate_curve(t)
                    assert np.array_equal(served.hits_cumulative,
                                          direct.hits_cumulative)
                    assert served.total_accesses == direct.total_accesses

    def test_mixed_configs_coalesce_correctly(self):
        """Different max_cache_size must share a batch yet truncate
        per-request; different dtypes/backends must not share one."""
        traces = make_traces(99, count=6)
        configs = [
            SolveConfig(max_cache_size=4),
            SolveConfig(max_cache_size=64),
            SolveConfig(),
            SolveConfig(dtype=np.int32),
            SolveConfig(algorithm="parallel-iaf", workers=2),
            SolveConfig(engine_backend="naive"),
        ]
        with CurveService(workers=2, max_batch=16) as svc:
            svc.pause()
            futures = [svc.submit(t, c) for t, c in zip(traces, configs)]
            svc.resume()
            results = [f.result(timeout=60) for f in futures]
        for trace, cfg, res in zip(traces, configs, results):
            direct = iaf_hit_rate_curve(trace)
            k = cfg.max_cache_size
            expect = direct.hits_cumulative[:k] if k else \
                direct.hits_cumulative
            assert np.array_equal(res.curve.hits_cumulative, expect)
            assert res.curve.truncated_at == k

    def test_oversize_iaf_runs_alone(self, monkeypatch):
        """With the size rule lowered, an oversize ``iaf`` request runs
        as its own unit on the chunked engine, unrewritten, while the
        small requests of the same tick coalesce."""
        monkeypatch.setattr(api, "CHUNKED_THRESHOLD", 1000)
        chunked_sizes = []
        real = api.chunked_iaf

        def spy(trace, *args, **kwargs):
            chunked_sizes.append(int(trace.size))
            return real(trace, *args, **kwargs)

        monkeypatch.setattr(api, "chunked_iaf", spy)
        rng = np.random.default_rng(5)
        big = rng.integers(0, 500, size=5000)
        small = [rng.integers(0, 50, size=300) for _ in range(3)]
        with CurveService(workers=1) as svc:
            svc.pause()
            futures = [svc.submit(t) for t in (small[0], big, *small[1:])]
            svc.resume()
            results = [f.result(timeout=60) for f in futures]
        metrics = svc.metrics()
        assert metrics["service.batches"] == 1
        assert metrics["service.batched_requests"] == 3
        assert chunked_sizes == [5000]
        for trace, res in zip((small[0], big, *small[1:]), results):
            assert np.array_equal(res.curve.hits_cumulative,
                                  iaf_hit_rate_curve(trace).hits_cumulative)
        oversize = results[1]
        assert oversize.config == SolveConfig()
        assert oversize.summary()["algorithm"] == "iaf"
        assert oversize.distances is None and not oversize.batched


class TestBackpressure:
    def test_queue_full_rejects_but_accepted_complete(self):
        """Acceptance: saturation rejects loudly; accepted requests still
        finish (within a generous deadline)."""
        traces = make_traces(7, count=12, max_len=300)
        svc = CurveService(workers=1, max_queue=4, max_batch=4)
        try:
            svc.pause()
            accepted, rejected = [], 0
            for t in traces:
                try:
                    accepted.append(svc.submit(t, deadline=30.0))
                except ServiceOverloadedError:
                    rejected += 1
            assert len(accepted) == 4
            assert rejected == len(traces) - 4
            svc.resume()
            for f in accepted:
                assert f.result(timeout=60).curve.total_accesses >= 0
        finally:
            svc.close()
        metrics = svc.metrics()
        assert metrics["service.rejected"] == rejected
        assert metrics["service.completed"] == len(accepted)

    def test_rejection_is_immediate_not_blocking(self):
        svc = CurveService(workers=1, max_queue=1)
        try:
            svc.pause()
            svc.submit([1, 2, 3])
            t0 = time.monotonic()
            with pytest.raises(ServiceOverloadedError):
                svc.submit([1, 2, 3])
            assert time.monotonic() - t0 < 1.0
        finally:
            svc.close()


class TestDeadlines:
    def test_expired_while_queued(self):
        svc = CurveService(workers=1)
        try:
            svc.pause()
            future = svc.submit([1, 2, 1, 2], deadline=0.01)
            time.sleep(0.05)
            svc.resume()
            with pytest.raises(DeadlineExceededError):
                future.result(timeout=30)
        finally:
            svc.close()
        assert svc.metrics()["service.deadline_exceeded"] == 1

    def test_default_deadline_applies(self):
        svc = CurveService(workers=1, default_deadline=0.01)
        try:
            svc.pause()
            future = svc.submit([1, 2, 3])
            time.sleep(0.05)
            svc.resume()
            with pytest.raises(DeadlineExceededError):
                future.result(timeout=30)
        finally:
            svc.close()

    def test_deadline_exceeded_mid_batch(self, monkeypatch):
        """A slow solve finishing after the deadline reports the
        overrun instead of silently returning a stale result."""
        import repro.service.curve_service as mod

        real = mod.solve_batch

        def slow_batch(arrs, cfg, **kw):
            time.sleep(0.08)
            return real(arrs, cfg, **kw)

        monkeypatch.setattr(mod, "solve_batch", slow_batch)
        svc = CurveService(workers=1)
        try:
            svc.pause()
            futures = [svc.submit([1, 2, 1], deadline=0.02)
                       for _ in range(2)]
            svc.resume()
            for f in futures:
                with pytest.raises(DeadlineExceededError):
                    f.result(timeout=30)
        finally:
            svc.close()


class TestLifecycle:
    def test_close_with_inflight_drains_cleanly(self):
        traces = make_traces(11, count=8, max_len=400)
        svc = CurveService(workers=2, max_batch=4)
        svc.pause()
        futures = [svc.submit(t) for t in traces]
        closer = threading.Thread(target=svc.close)
        svc.resume()
        closer.start()
        closer.join(timeout=60)
        assert not closer.is_alive()
        for t, f in zip(traces, futures):
            assert np.array_equal(
                f.result(timeout=1).curve.hits_cumulative,
                iaf_hit_rate_curve(t).hits_cumulative,
            )

    def test_close_without_drain_fails_queued(self):
        svc = CurveService(workers=1)
        svc.pause()
        future = svc.submit([1, 2, 3])
        svc.close(drain=False)
        with pytest.raises(ServiceClosedError):
            future.result(timeout=30)

    def test_submit_after_close_rejected(self):
        svc = CurveService(workers=1)
        svc.close()
        with pytest.raises(ServiceClosedError):
            svc.submit([1, 2, 3])

    def test_close_idempotent(self):
        svc = CurveService(workers=1)
        svc.close()
        svc.close()

    def test_context_manager_drains(self):
        with CurveService(workers=1) as svc:
            future = svc.submit([1, 2, 1, 3, 1])
        assert future.result(timeout=1).curve.hits(2) == 2

    def test_pause_resume_idempotent(self):
        svc = CurveService(workers=1)
        try:
            svc.pause()
            svc.pause()
            svc.resume()
            svc.resume()
            assert svc.submit([1, 1]).result(timeout=30).curve.hits(1) == 1
        finally:
            svc.close()

    def test_no_dequeue_starts_once_pause_is_pending(self):
        """Regression: the dispatcher released and re-took an unfair lock
        every tick, so pause() could wait indefinitely for a handoff it
        never won.  Now the dequeue in flight ends and no other starts."""
        svc = CurveService(workers=1)
        in_dequeue = threading.Event()
        release = threading.Event()
        starts = []
        real_get = svc._queue.get

        def spy_get(*args, **kwargs):
            starts.append(1)
            in_dequeue.set()
            release.wait(timeout=30)
            return real_get(*args, **kwargs)

        svc._queue.get = spy_get
        try:
            assert in_dequeue.wait(timeout=30)  # this dequeue is in flight
            pauser = threading.Thread(target=svc.pause)
            pauser.start()
            deadline = time.monotonic() + 5
            while not getattr(svc, "_paused", False) and \
                    time.monotonic() < deadline:
                time.sleep(0.001)
            release.set()
            pauser.join(timeout=30)
            assert not pauser.is_alive()
            time.sleep(10 * TICK_SECONDS)
            assert len(starts) == 1
        finally:
            release.set()
            svc.resume()
            svc.close()

    def test_constructor_validation(self):
        for bad in (
            dict(max_queue=0), dict(max_batch=0), dict(workers=0),
        ):
            with pytest.raises(CapacityError):
                CurveService(**bad)


class TestCancellation:
    def test_cancel_while_queued(self):
        svc = CurveService(workers=1)
        try:
            svc.pause()
            keep = svc.submit([1, 2, 1])
            drop = svc.submit([3, 4, 3])
            assert drop.cancel()
            svc.resume()
            assert keep.result(timeout=30).curve.total_accesses == 3
            assert drop.cancelled()
        finally:
            svc.close()
        assert svc.metrics()["service.cancelled"] == 1


class TestRetryOnCapacityError:
    def test_batch_capacity_error_retries_singly(self, monkeypatch):
        """Acceptance: a narrow-dtype batch overflow degrades to
        per-request solves instead of failing the requests."""
        import repro.service.curve_service as mod

        calls = {"batch": 0}

        def flaky_batch(arrs, cfg, **kw):
            calls["batch"] += 1
            raise CapacityError("synthetic head overflow")

        monkeypatch.setattr(mod, "solve_batch", flaky_batch)
        traces = make_traces(13, count=3, max_len=200)
        svc = CurveService(workers=1, max_batch=8)
        try:
            svc.pause()
            futures = [svc.submit(t) for t in traces]
            svc.resume()
            for t, f in zip(traces, futures):
                assert np.array_equal(
                    f.result(timeout=60).curve.hits_cumulative,
                    iaf_hit_rate_curve(t).hits_cumulative,
                )
        finally:
            svc.close()
        assert calls["batch"] == 1
        assert svc.metrics()["service.capacity_retries"] == 1

    def test_exception_inside_solve_delivered(self, monkeypatch):
        import repro.service.curve_service as mod

        def boom(arr, cfg, **kw):
            raise ReproError("synthetic failure")

        monkeypatch.setattr(mod, "solve", boom)
        svc = CurveService(workers=1)
        try:
            future = svc.submit([1, 2], SolveConfig(algorithm="ost"))
            with pytest.raises(ReproError, match="synthetic"):
                future.result(timeout=30)
        finally:
            svc.close()
        assert svc.metrics()["service.failed"] == 1


class TestMetrics:
    def test_counters_and_latency(self):
        traces = make_traces(17, count=6, max_len=300)
        with CurveService(workers=2, max_batch=4) as svc:
            svc.pause()
            futures = [svc.submit(t) for t in traces]
            svc.resume()
            for f in futures:
                f.result(timeout=60)
            metrics = svc.metrics()
        assert metrics["service.submitted"] == len(traces)
        assert metrics["service.completed"] == len(traces)
        assert metrics["service.batches"] >= 1
        assert metrics["service.batch_occupancy_peak"] <= 4
        assert metrics["service.queue_depth"] == 0
        assert 0 < metrics["service.latency_p50"] <= \
            metrics["service.latency_p99"]

    def test_tracer_spans_emitted(self):
        from repro.obs import tracing

        traces = make_traces(19, count=3, max_len=200)
        with tracing() as tracer:
            with CurveService(workers=1, max_batch=4) as svc:
                svc.pause()
                futures = [svc.submit(t) for t in traces]
                svc.resume()
                for f in futures:
                    f.result(timeout=60)
        names = {e.name for e in tracer.events()}
        assert "service.batch" in names
