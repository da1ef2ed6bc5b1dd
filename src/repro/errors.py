"""Exception hierarchy for the ``repro`` package.

Every error raised deliberately by this library derives from
:class:`ReproError`, so callers can catch library failures without
accidentally swallowing programming errors (``TypeError`` etc. are still
raised directly for misuse of the API surface itself).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


class TraceError(ReproError):
    """A trace is malformed (wrong dtype/shape, negative addresses, ...)."""


class OperationError(ReproError):
    """An Increment/Freeze (or Prefix/Postfix) operation is invalid."""


class FrozenCellError(OperationError):
    """An element of the distance array was frozen twice."""


class CapacityError(ReproError):
    """A cache or memory-model capacity parameter is invalid."""


class ExternalMemoryError(ReproError):
    """Invalid configuration or use of the simulated external memory."""


class BlockDeviceError(ExternalMemoryError):
    """Out-of-range block access or misaligned IO on the block device."""


class SchedulerError(ReproError):
    """Invalid fork/join structure in the PRAM cost tracer."""


class WorkloadError(ReproError):
    """Invalid workload specification (sizes, skew parameters, ...)."""


class TraceFileError(ReproError):
    """A trace file is truncated, has a bad magic number, or bad metadata."""


class ObservabilityError(ReproError):
    """Misuse of the instrumentation layer (spans, counters, timers)."""


class ExecutorError(ReproError):
    """Misuse or hard failure of the shared-memory process executor.

    Worker-side detection of a stale arena descriptor also raises this;
    the dispatch layer turns it into a retry/degrade, so callers only
    see it for unambiguous misuse (dispatching on a closed executor,
    invalid pool parameters).
    """


class ServiceError(ReproError):
    """Base class for :mod:`repro.service` failures."""


class ServiceOverloadedError(ServiceError):
    """The admission queue is full; the request was rejected, not queued.

    Backpressure by rejection: the service bounds its memory by refusing
    work it cannot buffer, instead of queueing without limit and OOMing.
    Callers should back off and retry.
    """


class ServiceClosedError(ServiceError):
    """The service is shut down (or closing) and no longer accepts work."""


class DeadlineExceededError(ServiceError):
    """A request's deadline expired before its result could be delivered."""


class ProtocolError(ServiceError):
    """A request line violates the wire protocol (e.g. invalid UTF-8).

    Distinct from a well-formed request that *parses* badly: protocol
    errors are byte-level garbage the server refuses to interpret at
    all, answered with an ``ok: false`` line instead of a silently
    mangled best-effort decode.
    """


class FrameTooLargeError(ServiceError):
    """A frame's JSON header would exceed the protocol's header cap.

    Raised before any byte of the frame is written, so the connection
    stays in sync.  A server answers the request ``ok: false`` with this
    error in place of the reply it could not send; it is deliberately
    *not* a :class:`ProtocolError`, because nothing on the wire broke.
    """


class RemoteError(ServiceError):
    """A server answered ``ok: false``; raised client-side.

    Carries the server's error class name and message plus the full
    response payload so callers can branch on the remote failure
    (``err.remote_error == "DeadlineExceededError"``) without string
    matching.
    """

    def __init__(self, payload: dict) -> None:
        self.payload = payload
        self.remote_error = payload.get("error", "UnknownError")
        super().__init__(
            f"{self.remote_error}: {payload.get('message', '')}"
        )
