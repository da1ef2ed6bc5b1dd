"""The in-process solve service: admission control and batching.

One dispatcher thread drains the bounded admission queue in ticks.  Each
tick's requests are *planned*: expired ones fail fast with
:class:`~repro.errors.DeadlineExceededError`, cancelled ones are
dropped, an ``iaf`` one that :func:`repro.core.api.runs_chunked` runs
as its own unit (``solve()`` puts it on the bounded-memory chunked
engine), and the remaining batchable requests are grouped by
:meth:`~repro.core.config.SolveConfig.batch_key` so each group rides
**one** coalesced level loop (see
:func:`repro.core.api.solve_batch`).  No request's config is rewritten:
each is answered as ``solve(trace, config)`` would answer it.  Work
units run on a small thread pool; a semaphore bounds the units in
flight, so when the pool falls behind, the queue fills and
:meth:`CurveService.submit` starts rejecting — backpressure reaches
producers as :class:`~repro.errors.ServiceOverloadedError`, never as
unbounded memory.

Each pool thread solves in its own engine workspace
(:func:`repro.core.engine.thread_workspace`), so consecutive solves on
one worker reuse level buffers and no two workers ever share one; the
service itself holds no scratch state.
"""

from __future__ import annotations

import queue
import threading
import time
from collections import deque
from concurrent.futures import Future, InvalidStateError, ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .._typing import TraceLike, as_trace
from ..core.api import _truncate, runs_chunked, solve, solve_batch
from ..core.config import SolveConfig, SolveResult
from ..errors import (
    CapacityError,
    DeadlineExceededError,
    ServiceClosedError,
    ServiceOverloadedError,
)
from ..obs import NULL_SPAN, Counters, get_tracer

#: Longest wait of one dispatch tick for a first request, in seconds:
#: requests that arrive within it of each other can share a solve.
TICK_SECONDS = 0.02

#: Completed requests whose submit-to-answer latency feeds the
#: ``service.latency_p50`` / ``service.latency_p99`` percentiles.
LATENCY_WINDOW = 1024


class SolveFuture(Future):
    """A :class:`concurrent.futures.Future` for one submitted request.

    ``result()`` yields the request's
    :class:`~repro.core.config.SolveResult`; failure modes surface as
    the usual exceptions (:class:`DeadlineExceededError`,
    :class:`ServiceClosedError`, or whatever the solve raised).
    ``cancel()`` works until the dispatcher dequeues the request.
    """

    def __init__(self, *, config: SolveConfig, label: str = "") -> None:
        super().__init__()
        self.config = config
        self.label = label


@dataclass
class _Request:
    """One queued unit of work (the trace is validated at submit time).

    ``work`` is the generic escape hatch: when set, the request carries a
    zero-argument callable instead of a solve (``arr``/``config`` are
    placeholders) and the planner routes it straight to a worker.  The
    tenant layer rides this path so its ingest shares the service's
    admission queue, tick, deadlines, and backpressure.
    """

    future: SolveFuture
    arr: np.ndarray
    config: SolveConfig
    submitted_at: float
    deadline: Optional[float]  # absolute time.monotonic(), or None
    label: str
    work: Optional[Callable[[], object]] = None


class CurveService:
    """A long-running solve service for hit-rate-curve requests.

    Usage::

        with CurveService(workers=4) as svc:
            futures = [svc.submit(t, SolveConfig()) for t in traces]
            curves = [f.result().curve for f in futures]

    ``max_queue`` bounds admitted-but-unplanned requests (beyond it,
    :meth:`submit` raises :class:`ServiceOverloadedError`); ``max_batch``
    bounds how many requests one dispatch tick plans together, which is
    also the largest possible coalesced batch.  ``default_deadline`` (in
    seconds) applies to requests submitted without one.  An ``iaf``
    trace that :func:`~repro.core.api.runs_chunked` stays out of every
    batch, so one giant trace cannot hold up a tick of small ones;
    ``solve()`` runs it on the chunked engine.  A request picks
    processes for itself with ``algorithm="process-iaf"``.
    """

    def __init__(
        self,
        *,
        max_queue: int = 256,
        max_batch: int = 32,
        workers: int = 2,
        default_deadline: Optional[float] = None,
    ) -> None:
        if max_queue < 1:
            raise CapacityError(f"max_queue must be >= 1, got {max_queue}")
        if max_batch < 1:
            raise CapacityError(f"max_batch must be >= 1, got {max_batch}")
        if workers < 1:
            raise CapacityError(f"workers must be >= 1, got {workers}")
        self._max_queue = max_queue
        self._max_batch = max_batch
        self._default_deadline = default_deadline
        self._queue: "queue.Queue[_Request]" = queue.Queue(maxsize=max_queue)
        self._pool = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="repro-curve"
        )
        # Bounds work units handed to the pool but not yet finished; when
        # exhausted the dispatcher stops draining, the queue fills, and
        # submit() rejects — backpressure instead of an unbounded pool
        # queue.
        self._slots = threading.Semaphore(2 * workers)
        self._closing = threading.Event()
        self._stopping = threading.Event()
        # The dispatcher checks _paused under _gate before every dequeue
        # and marks the dequeue in flight; pause() sets the flag and
        # waits out that dequeue, so once it returns no request can
        # leave the queue — a *deterministic* freeze that cannot starve
        # (a lock the dispatcher re-takes every tick would be unfair).
        self._gate = threading.Condition()
        self._paused = False
        self._dequeuing = False
        self._lock = threading.Lock()
        self._latencies: "deque[float]" = deque(maxlen=LATENCY_WINDOW)
        self.counters = Counters()
        self._dispatcher = threading.Thread(
            target=self._dispatch_loop, name="repro-curve-dispatch",
            daemon=True,
        )
        self._dispatcher.start()

    # -- producer side ------------------------------------------------

    def submit(
        self,
        trace: TraceLike,
        config: Optional[SolveConfig] = None,
        *,
        deadline: Optional[float] = None,
        label: str = "",
    ) -> SolveFuture:
        """Enqueue one request; returns immediately with its future.

        ``deadline`` is seconds from now (``None`` uses the service
        default, which may also be ``None`` = no deadline).  Raises
        :class:`ServiceOverloadedError` when the admission queue is full
        and :class:`ServiceClosedError` after :meth:`close` — both
        *before* any work is queued, so a rejected request costs the
        producer nothing but the validation.
        """
        cfg = config if config is not None else SolveConfig()
        arr = as_trace(trace, dtype=cfg.dtype)
        return self._admit(arr, cfg, deadline, label)

    def submit_work(
        self,
        fn: Callable[[], object],
        *,
        deadline: Optional[float] = None,
        label: str = "",
    ) -> SolveFuture:
        """Enqueue an arbitrary callable as one service work unit.

        The unit shares everything a solve request gets — the bounded
        admission queue (:class:`ServiceOverloadedError` on overflow),
        the dispatch tick, deadline expiry while queued, cancellation,
        and the worker pool — and its future resolves with ``fn()``'s
        return value.  This is the routing primitive the tenant layer
        builds ingest on; it is not a general thread-pool replacement
        (units still occupy the same in-flight slots as solves).
        """
        return self._admit(np.zeros(0, dtype=np.int64), SolveConfig(),
                           deadline, label, work=fn)

    def _admit(
        self,
        arr: np.ndarray,
        cfg: SolveConfig,
        deadline: Optional[float],
        label: str,
        work: Optional[Callable[[], object]] = None,
    ) -> SolveFuture:
        """Queue one request, or reject it before anything is queued."""
        if self._closing.is_set():
            raise ServiceClosedError(
                "service is closed; no new requests accepted"
            )
        if deadline is None:
            deadline = self._default_deadline
        now = time.monotonic()
        future = SolveFuture(config=cfg, label=label)
        req = _Request(
            future=future, arr=arr, config=cfg, submitted_at=now,
            deadline=None if deadline is None else now + deadline,
            label=label, work=work,
        )
        try:
            self._queue.put_nowait(req)
        except queue.Full:
            with self._lock:
                self.counters.add("service.rejected")
            raise ServiceOverloadedError(
                f"admission queue full ({self._max_queue} pending); "
                f"retry later or raise max_queue"
            ) from None
        with self._lock:
            self.counters.add("service.submitted")
            if work is not None:
                self.counters.add("service.work_units")
            self.counters.peak(
                "service.queue_depth_peak", self._queue.qsize()
            )
        return future

    def solve_many(
        self,
        traces: Sequence[TraceLike],
        config: Optional[SolveConfig] = None,
        *,
        deadline: Optional[float] = None,
        labels: Optional[Sequence[str]] = None,
    ) -> List[SolveResult]:
        """Submit every trace atomically and wait for all results.

        Submission happens under :meth:`pause`, so one dispatch tick
        sees the whole set and compatible requests coalesce maximally
        (the ``analyze --batch`` path).  The traces must fit the
        admission queue.
        """
        names = labels if labels is not None else [""] * len(traces)
        self.pause()
        try:
            futures = [
                self.submit(t, config, deadline=deadline, label=name)
                for t, name in zip(traces, names)
            ]
        finally:
            self.resume()
        return [f.result() for f in futures]

    # -- test/operator hooks ------------------------------------------

    def pause(self) -> None:
        """Stop the dispatcher from draining (admissions still accepted).

        Blocks until any in-flight dequeue finishes (at most one tick),
        after which no request leaves the queue until :meth:`resume` —
        tests and batch submitters stage queue states deterministically.
        Idempotent.
        """
        with self._gate:
            self._paused = True
            self._gate.wait_for(lambda: not self._dequeuing)

    def resume(self) -> None:
        with self._gate:
            self._paused = False
            self._gate.notify_all()

    def record_protocol_error(self) -> None:
        """Count one malformed (undecodable) request line.

        The line front ends call this for input that never reaches
        :func:`~repro.service.server.parse_request` — e.g. bytes that are
        not valid UTF-8 — so operators can tell protocol garbage apart
        from well-formed requests that failed.
        """
        with self._lock:
            self.counters.add("service.protocol_errors")

    def metrics(self) -> Dict[str, float]:
        """Counter snapshot plus queue depth and latency percentiles."""
        with self._lock:
            out = dict(self.counters.snapshot())
            lats = sorted(self._latencies)
        out["service.queue_depth"] = float(self._queue.qsize())
        if lats:
            out["service.latency_p50"] = lats[int(0.50 * (len(lats) - 1))]
            out["service.latency_p99"] = lats[int(0.99 * (len(lats) - 1))]
        return out

    # -- lifecycle ----------------------------------------------------

    def close(self, *, drain: bool = True, timeout: Optional[float] = None) -> None:
        """Shut down; idempotent.

        ``drain=True`` (default) stops admissions, lets every already
        accepted request run to completion, then stops the workers.
        ``drain=False`` additionally fails still-queued requests with
        :class:`ServiceClosedError` (requests already handed to a worker
        still complete).
        """
        self._closing.set()
        if not drain:
            while True:
                try:
                    req = self._queue.get_nowait()
                except queue.Empty:
                    break
                if req.future.set_running_or_notify_cancel():
                    self._finish(
                        req,
                        error=ServiceClosedError(
                            "service closed before the request ran"
                        ),
                    )
        self._stopping.set()
        self.resume()
        self._dispatcher.join(timeout)
        self._pool.shutdown(wait=True)

    def __enter__(self) -> "CurveService":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close(drain=True)

    # -- dispatcher ---------------------------------------------------

    def _dispatch_loop(self) -> None:
        while True:
            batch: List[_Request] = []
            with self._gate:
                self._gate.wait_for(lambda: not self._paused)
                self._dequeuing = True
            try:
                batch.append(self._queue.get(timeout=TICK_SECONDS))
            except queue.Empty:
                pass
            else:
                while len(batch) < self._max_batch:
                    try:
                        batch.append(self._queue.get_nowait())
                    except queue.Empty:
                        break
            finally:
                with self._gate:
                    self._dequeuing = False
                    self._gate.notify_all()
            if batch:
                self._plan(batch)
            elif self._stopping.is_set():
                return

    def _plan(self, reqs: List[_Request]) -> None:
        """Partition one tick's requests and hand units to the pool."""
        now = time.monotonic()
        runnable: List[_Request] = []
        for req in reqs:
            if not req.future.set_running_or_notify_cancel():
                with self._lock:
                    self.counters.add("service.cancelled")
                continue
            if req.deadline is not None and now > req.deadline:
                self._finish(req, error=DeadlineExceededError(
                    f"request {req.label or 'unnamed'!s} expired while "
                    f"queued (deadline passed "
                    f"{now - req.deadline:.3f}s ago)"
                ))
                continue
            runnable.append(req)
        groups: Dict[Tuple, List[_Request]] = {}
        singles: List[_Request] = []
        for req in runnable:
            if req.work is not None:
                self._submit_unit(self._run_work, req)
            elif req.config.batchable and \
                    not runs_chunked(req.config, req.arr.size):
                groups.setdefault(req.config.batch_key(), []).append(req)
            else:
                singles.append(req)
        for group in groups.values():
            if len(group) == 1:
                singles.append(group[0])
            else:
                self._submit_unit(self._run_batch, group)
        for req in singles:
            self._submit_unit(self._run_single, req)

    def _submit_unit(self, fn, *args) -> None:
        while not self._slots.acquire(timeout=TICK_SECONDS):
            pass  # all units in flight; wait for the pool to catch up

        def run() -> None:
            try:
                fn(*args)
            finally:
                self._slots.release()

        try:
            self._pool.submit(run)
        except RuntimeError as exc:
            # Pool already shut down (interpreter exit without close()):
            # fail the unit's requests instead of killing the dispatcher.
            self._slots.release()
            reqs = args[0] if isinstance(args[0], list) else [args[0]]
            for req in reqs:
                self._finish(req, error=ServiceClosedError(
                    f"service worker pool is shut down ({exc})"
                ))

    # -- worker side --------------------------------------------------

    def _run_single(self, req: _Request) -> None:
        tracer = get_tracer()
        span = (
            tracer.span("service.request", n=int(req.arr.size),
                        algorithm=req.config.algorithm)
            if tracer.enabled else NULL_SPAN
        )
        try:
            with span:
                result = solve(req.arr, req.config)
        except Exception as exc:  # noqa: BLE001 — delivered via the future
            self._finish(req, error=exc)
            return
        self._finish(req, result=result)

    def _run_work(self, req: _Request) -> None:
        tracer = get_tracer()
        span = (
            tracer.span("service.work", label=req.label)
            if tracer.enabled else NULL_SPAN
        )
        try:
            with span:
                result = req.work()
        except Exception as exc:  # noqa: BLE001 — delivered via the future
            self._finish(req, error=exc)
            return
        self._finish(req, result=result)

    def _run_batch(self, reqs: List[_Request]) -> None:
        base = reqs[0].config.replace(max_cache_size=None)
        arrs = [r.arr for r in reqs]
        tracer = get_tracer()
        span = (
            tracer.span("service.batch", k=len(reqs),
                        n=int(sum(a.size for a in arrs)),
                        algorithm=base.algorithm)
            if tracer.enabled else NULL_SPAN
        )
        try:
            with span:
                results = solve_batch(arrs, base)
        except CapacityError:
            # Only a pinned narrow dtype can overflow (a certified width
            # cannot): the batch's cells or a merged head outgrew what
            # its members need alone.  Retry each request alone.
            with self._lock:
                self.counters.add("service.capacity_retries")
            for req in reqs:
                self._run_single(req)
            return
        except Exception as exc:  # noqa: BLE001 — delivered via the futures
            for req in reqs:
                self._finish(req, error=exc)
            return
        with self._lock:
            self.counters.add("service.batches")
            self.counters.add("service.batched_requests", len(reqs))
            self.counters.peak("service.batch_occupancy_peak", len(reqs))
        for req, res in zip(reqs, results):
            curve = res.curve
            k = req.config.max_cache_size
            if k is not None and curve.truncated_at is None:
                curve = _truncate(curve, k)
            self._finish(req, result=SolveResult(
                curve=curve, config=req.config, stats=res.stats,
                distances=res.distances, wall_seconds=res.wall_seconds,
                batched=True,
            ))

    def _finish(
        self,
        req: _Request,
        result: object = None,  # SolveResult, or work-unit return value
        error: Optional[BaseException] = None,
    ) -> None:
        now = time.monotonic()
        if (
            error is None
            and req.deadline is not None
            and now > req.deadline
        ):
            error = DeadlineExceededError(
                f"request {req.label or 'unnamed'!s} completed "
                f"{now - req.deadline:.3f}s after its deadline"
            )
        with self._lock:
            self._latencies.append(now - req.submitted_at)
            if error is None:
                self.counters.add("service.completed")
            elif isinstance(error, DeadlineExceededError):
                self.counters.add("service.deadline_exceeded")
            else:
                self.counters.add("service.failed")
        try:
            if error is None:
                req.future.set_result(result)
            else:
                req.future.set_exception(error)
        except InvalidStateError:
            pass  # the future was cancelled under our feet
