"""repro.service — a long-running, batching hit-rate-curve solve service.

Many producers submit :class:`~repro.core.config.SolveConfig` requests;
the service coalesces compatible ones into single batched engine solves
(amortizing the per-level vectorized passes; each worker thread reuses
its own engine workspace, :func:`repro.core.engine.thread_workspace`),
keeps an ``iaf`` trace that :func:`repro.core.api.solve` runs on the
bounded-memory chunked engine out of every batch, and returns futures.
A request picks the process pool for itself with
``algorithm="process-iaf"``; the service never chooses it.

Robustness over raw throughput:

* bounded admission queue — a full queue **rejects** with
  :class:`~repro.errors.ServiceOverloadedError` instead of growing
  without bound;
* per-request deadlines and cancellation;
* retry on :class:`~repro.errors.CapacityError` (a narrow-dtype batch
  overflow falls back to per-request int64 solves);
* graceful drain on :meth:`CurveService.close`.

Front ends: the :class:`CurveService` library API, and one server
(:mod:`repro.service.server`) behind ``python -m repro serve``: the
line protocol over stdin, or a threaded TCP server speaking the line
protocol and the hello-negotiated v2 binary frames
(:mod:`repro.service.frames`).  The TCP server hands each request to a
backend — this process's service, or a shard ring
(:class:`repro.cluster.ClusterFrontend`).  The request vocabulary every
surface shares lives in :mod:`repro.service.schema`.  See
docs/SERVICE.md and docs/CLUSTER.md; :class:`repro.client.CurveClient`
is the supported caller.
"""

from .curve_service import CurveService, SolveFuture
from .server import (
    handle_tenant_request,
    parse_request,
    parse_request_obj,
    serve_binary,
    serve_stream,
    serve_tcp,
)

__all__ = [
    "CurveService",
    "SolveFuture",
    "handle_tenant_request",
    "parse_request",
    "parse_request_obj",
    "serve_binary",
    "serve_stream",
    "serve_tcp",
]
