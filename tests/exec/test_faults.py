"""Executor fault paths under qa fault injection.

The ladder under test: a worker SIGKILLed mid-solve is detected, a
replacement is forked, the orphaned jobs are retried with backoff, and
when the retry budget is spent the parts are solved in-process — with
results bit-identical to the single-process engine at every rung
(ISSUE 5 acceptance: 25-seed differential with ≥1 worker killed).

Also exercised by the CI service-soak job.
"""

from __future__ import annotations

import signal

import numpy as np
import pytest

from repro.core.engine import iaf_distances
from repro.parallel_exec import ProcessExecutor
from repro.qa import inject_worker_kills
from repro.qa.faults import WorkerKillPlan


def make_trace(seed: int, max_len: int = 3000) -> np.ndarray:
    rng = np.random.default_rng(seed)
    n = int(rng.integers(64, max_len))
    return rng.integers(0, int(rng.integers(2, 300)), size=n)


class TestKillRecovery:
    def test_bit_identical_across_25_seeds_with_kills(self):
        """Acceptance: every seed's dispatch loses ≥1 worker mid-solve,
        yet the recovered distances match ``iaf_distances`` exactly."""
        with ProcessExecutor(workers=2, retry_backoff=0.01) as ex:
            for seed in range(25):
                trace = make_trace(seed)
                with inject_worker_kills(kills=1) as plan:
                    got = iaf_distances(
                        trace, workers=2, executor=ex
                    )
                assert plan.events, "fault hook never fired"
                assert np.array_equal(got, iaf_distances(trace)), seed
            metrics = ex.metrics()
        # Most kills land mid-solve and force respawn+retry; a few can
        # land after the worker already replied (the corpse is then
        # collected at the next dispatch), so the floor is loose.
        assert metrics["exec.respawn"] >= 10
        assert metrics["exec.retry"] >= 10

    def test_pool_heals_after_the_fault(self):
        """The respawned pool serves later requests without degrading."""
        with ProcessExecutor(workers=2, retry_backoff=0.01) as ex:
            with inject_worker_kills(kills=1):
                iaf_distances(
                    make_trace(1), workers=2, executor=ex
                )
            trace = make_trace(2)
            got = iaf_distances(
                trace, workers=2, executor=ex
            )
            assert np.array_equal(got, iaf_distances(trace))
            # Every pool slot holds a live worker again.
            assert all(w.process.is_alive() for w in ex._workers)

    def test_retries_exhausted_degrades_in_process(self):
        """Killing every handoff starves the retry budget; the degrade
        rung still returns exact results."""
        trace = make_trace(3)
        with ProcessExecutor(workers=2, max_retries=1,
                             retry_backoff=0.01) as ex:
            with inject_worker_kills(kills=None) as plan:
                got = iaf_distances(
                    trace, workers=2, executor=ex
                )
            metrics = ex.metrics()
        assert np.array_equal(got, iaf_distances(trace))
        assert metrics["exec.degraded"] >= 1
        assert metrics["exec.retry"] >= 1
        assert any(event == "retry" for _, event in plan.events)

    def test_hung_worker_times_out_and_recovers(self):
        """SIGSTOP hangs a worker: the dispatch timeout kills and
        replaces it, and the retried job still completes exactly."""
        trace = make_trace(4)
        with ProcessExecutor(workers=2, dispatch_timeout=0.5,
                             retry_backoff=0.01) as ex:
            with inject_worker_kills(kills=1, sig=signal.SIGSTOP):
                got = iaf_distances(
                    trace, workers=2, executor=ex
                )
            metrics = ex.metrics()
        assert np.array_equal(got, iaf_distances(trace))
        assert metrics["exec.timeouts"] >= 1
        assert metrics["exec.respawn"] >= 1

    def test_fault_counters_are_spans_too(self):
        from repro.obs import tracing

        with ProcessExecutor(workers=2, retry_backoff=0.01) as ex:
            with tracing() as tracer:
                with inject_worker_kills(kills=1):
                    iaf_distances(
                        make_trace(5), workers=2, executor=ex
                    )
        names = {e.name for e in tracer.events()}
        assert "exec.dispatch" in names
        assert "exec.respawn" in names
        assert "exec.retry" in names


class TestKillPlan:
    def test_bounded_plan_stops_firing(self):
        plan = WorkerKillPlan(kills=0)

        class _FakeExecutor:
            def kill_worker(self, index, sig):  # pragma: no cover
                raise AssertionError("plan with no budget fired")

        plan(_FakeExecutor(), 0, "dispatch")
        assert plan.events == []

    def test_service_sharding_survives_worker_kills(self):
        """The soak scenario: a service running a process-iaf request on
        the process pool loses a worker mid-solve and still answers."""
        from repro import SolveConfig
        from repro.core.engine import iaf_hit_rate_curve
        from repro.parallel_exec import shutdown_default_executor
        from repro.service import CurveService

        shutdown_default_executor()
        trace = np.random.default_rng(9).integers(0, 400, size=6000)
        cfg = SolveConfig(algorithm="process-iaf", workers=2)
        try:
            with CurveService(workers=1) as svc:
                with inject_worker_kills(kills=1) as plan:
                    result = svc.submit(trace, cfg).result(timeout=120)
            assert plan.events, "fault hook never fired"
            assert np.array_equal(
                result.curve.hits_cumulative,
                iaf_hit_rate_curve(trace).hits_cumulative,
            )
        finally:
            shutdown_default_executor()
