"""The curve server: one TCP server, a local or a ring backend.

Every deployment — ``repro serve --port``, each shard of a ring and the
ring's frontend — runs :class:`CurveServer`: a threaded TCP server with
one thread per connection.  A connection starts on the v1 JSON line
protocol and may switch to the v2 binary frames
(:mod:`repro.service.frames`) with ``{"op": "hello", "upgrade": true}``.
Both framings decode each request into one object and hand it to the
same :class:`_Stream`, which passes it to the server's **backend**:

* :class:`LocalBackend` — this process's
  :class:`~repro.service.CurveService` and, with ``--tenants``, its
  :class:`~repro.tenants.TenantService` (:func:`serve_tcp` builds it);
* :class:`~repro.cluster.ClusterFrontend` — the shard ring, which
  forwards each request to a shard over pooled
  :class:`~repro.client.CurveClient` connections.

A request's path: the client encodes it; the connection thread decodes
it (a v2 payload lands in its own heap buffer); the backend queues it in
the service, or forwards it to a shard, where the same path repeats; the
reply goes back through the stream that took the request.
:func:`serve_stream` runs the line protocol over stdin (EOF drains and
exits).

One request per line, one JSON response per line.  A request is either a
bare path to a REPROTRC trace file::

    /data/day1.reprotrc

or a JSON object selecting the solve and its knobs::

    {"trace": "/data/day1.reprotrc", "id": "day1", "algorithm": "iaf",
     "max_cache_size": 4096, "deadline": 5.0, "sizes": [64, 1024, 4096]}

``trace`` may also be an inline list of integer addresses (handy for
tests and ad-hoc probes).  Responses arrive in *completion* order, so
tag requests with ``id`` to correlate; each is either::

    {"id": "day1", "ok": true, "algorithm": "iaf", "total_accesses": …,
     "max_size": …, "truncated_at": 4096, "wall_seconds": …,
     "batched": true, "hit_rates": {"64": 0.31, …}}

or ``{"id": …, "ok": false, "error": "DeadlineExceededError",
"message": …}``.  Malformed requests are answered immediately with an
``ok: false`` reply; they never crash the server.  A line longer than
:data:`MAX_LINE_LEN` is answered with a ``ProtocolError`` and ends the
connection, as does a v2 framing error.

With ``--tenants`` the server also speaks the multi-tenant verbs (see
docs/TENANTS.md): a request carrying an ``op`` field goes to the
tenant service instead of the solve path::

    {"op": "register", "tenant": "web", "tier": "sampled",
     "sample_rate": 0.01}
    {"op": "push", "tenant": "web", "trace": [1, 2, 1, 3], "id": "p0"}
    {"op": "curve", "tenant": "web", "sizes": [64, 4096], "id": "c0"}
    {"op": "evict", "tenant": "web"}
    {"op": "tenants"}

``push`` and ``curve`` ride the service queue (same admission control
and deadlines as solves) and answer in completion order like everything
else.  ``register``/``evict``/``tenants`` execute synchronously, but
only after every previously accepted request **on the same stream** has
been answered — so the natural register → push → curve → evict script
behaves sequentially, on one node and through a ring alike.  An evict
still takes effect immediately across *other* connections: their
queued, not-yet-drained pushes for that tenant fail with an explanatory
error instead of resurrecting it.
"""

from __future__ import annotations

import json
import socketserver
import threading
from typing import (
    TYPE_CHECKING,
    Any,
    BinaryIO,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Tuple,
)

import numpy as np

from ..core.config import SolveConfig, SolveResult
from ..errors import FrameTooLargeError, ProtocolError, ReproError
from ..workloads.traceio import read_trace
from . import frames, schema
from .curve_service import CurveService, SolveFuture

if TYPE_CHECKING:  # pragma: no cover - import cycle guard only
    from ..tenants import TenantService

_TENANT_OPS = schema.TENANT_OP_FIELDS

#: Tenant verbs that run synchronously, after this stream's earlier
#: requests are answered.
_SYNC_OPS = frozenset(("register", "evict", "tenants"))

#: Longest v1 request line: a client may ship a whole trace as one
#: inline-JSON line, but no line may pin more memory than this.
MAX_LINE_LEN = 1 << 30


def parse_request_obj(
    obj: Dict[str, Any],
    *,
    require_trace: bool = True,
) -> Tuple[Any, SolveConfig, Optional[float], Optional[str], List[int]]:
    """Parse one already-decoded solve-request object.

    Every solve parses through here, from a v1 line or a v2 frame
    (whose trace may arrive as a payload, hence
    ``require_trace=False``).  Returns ``(trace, config, deadline,
    request_id, sizes)`` — ``trace`` is ``None`` when absent and not
    required; ``config`` is ``SolveConfig(**the request's config
    fields)``.  Raises :class:`ReproError` on malformed input.
    """
    if not isinstance(obj, dict):
        raise ReproError("request JSON must be an object")
    schema.validate_fields(obj, schema.REQUEST_FIELDS, "request")
    if require_trace and "trace" not in obj:
        raise ReproError('request needs a "trace" (path or address list)')
    changes: Dict[str, Any] = {}
    for field in schema.CONFIG_FIELDS:
        if field in obj:
            changes[field] = obj[field]
    if "dtype" in obj:
        try:
            changes["dtype"] = schema.DTYPES[obj["dtype"]]
        except (KeyError, TypeError):
            raise ReproError(
                f"bad dtype {obj['dtype']!r}; use one of "
                f"{sorted(schema.DTYPES)}"
            ) from None
    try:
        cfg = SolveConfig(**changes)
    except TypeError as exc:
        raise ReproError(f"bad request field: {exc}") from None
    deadline = _check_deadline(obj.get("deadline"))
    sizes = _check_sizes(obj.get("sizes"))
    req_id = obj.get("id")
    return obj.get("trace"), cfg, deadline, req_id, sizes


def parse_request(
    line: str
) -> Tuple[Any, SolveConfig, Optional[float], Optional[str], List[int]]:
    """Parse one request line.

    Returns ``(trace, config, deadline, request_id, sizes)`` where
    ``trace`` is a path string or an inline address list.  Raises
    :class:`ReproError` on malformed input.
    """
    obj = _decode_line(line)
    if obj is None:
        raise ReproError("empty request line")
    return parse_request_obj(obj)


def _decode_line(line: Any) -> Optional[Dict[str, Any]]:
    """One v1 request line as a request object; None for a blank line.

    Bytes are decoded strictly: invalid UTF-8 raises
    :class:`ProtocolError` rather than being mangled by a lossy decode.
    A line that is not a JSON object is a bare trace path.
    """
    if isinstance(line, (bytes, bytearray)):
        try:
            line = bytes(line).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ProtocolError(
                f"request line is not valid UTF-8: {exc}"
            ) from None
    text = line.strip()
    if not text:
        return None
    if not text.startswith("{"):
        return {"trace": text}
    try:
        return json.loads(text)  # an object: the text starts with "{"
    except json.JSONDecodeError as exc:
        raise ReproError(f"bad request JSON: {exc}") from None


def _check_deadline(deadline: Any) -> Optional[float]:
    if deadline is not None and (
        not isinstance(deadline, (int, float)) or deadline <= 0
    ):
        raise ReproError(f"deadline must be a positive number, "
                         f"got {deadline!r}")
    return deadline


def _check_sizes(sizes: Any) -> List[int]:
    sizes = sizes or []
    if not isinstance(sizes, list) or not all(
        isinstance(s, int) and s >= 1 for s in sizes
    ):
        raise ReproError("sizes must be a list of positive integers")
    return sizes


def handle_tenant_request(
    obj: Dict[str, Any],
    tenants: "TenantService",
) -> Tuple[
    Optional[Dict[str, Any]],
    Optional[Tuple[SolveFuture, Callable[[Any], Dict[str, Any]]]],
]:
    """Dispatch one tenant verb.

    Returns ``(payload, None)`` for synchronous verbs (register / evict
    / tenants) or ``(None, (future, formatter))`` for queued verbs
    (push / curve) — the caller emits ``formatter(future.result())``
    when the work unit completes.  Raises :class:`ReproError` on
    malformed requests.
    """
    op = obj.get("op")
    if op not in _TENANT_OPS:
        raise ReproError(
            f"unknown op {op!r}; one of {sorted(_TENANT_OPS)}"
        )
    schema.validate_fields(obj, _TENANT_OPS[op], f"op {op!r}")
    req_id = obj.get("id")
    if op == "tenants":
        return ({"id": req_id, "ok": True, "op": op,
                 "tenants": tenants.describe()}, None)
    tenant_id = obj.get("tenant")
    if not isinstance(tenant_id, str) or not tenant_id:
        raise ReproError(
            f'op {op!r} needs a non-empty string "tenant" field'
        )
    if op == "register":
        kwargs = {
            k: obj[k]
            for k in ("tier", "sample_rate", "sample_seed",
                      "max_cache_size", "chunk_size", "memory_budget")
            if k in obj
        }
        tenant = tenants.register(tenant_id, **kwargs)
        return ({"id": req_id, "ok": True, "op": op, "tenant": tenant_id,
                 "tier": tenant.tier,
                 "sample_rate": tenant.sample_rate}, None)
    if op == "evict":
        evicted = tenants.evict(tenant_id)
        return ({"id": req_id, "ok": True, "op": op, "tenant": tenant_id,
                 "evicted": bool(evicted)}, None)
    deadline = _check_deadline(obj.get("deadline"))
    if op == "push":
        if "trace" not in obj:
            raise ReproError(
                'op "push" needs a "trace" (path or address list)'
            )
        trace = obj["trace"]
        arr = read_trace(trace) if isinstance(trace, str) else trace
        future = tenants.push_many(tenant_id, arr, deadline=deadline)

        def fmt_push(receipt: Any) -> Dict[str, Any]:
            payload = {"id": req_id, "ok": True, "op": "push"}
            payload.update(receipt)
            return payload

        return (None, (future, fmt_push))
    # op == "curve"
    sizes = _check_sizes(obj.get("sizes"))
    future = tenants.curve(tenant_id, deadline=deadline)

    def fmt_curve(snap: Any) -> Dict[str, Any]:
        payload: Dict[str, Any] = {
            "id": req_id, "ok": True, "op": "curve",
            "tenant": snap.tenant_id, "tier": snap.tier,
            "total_accesses": snap.total_accesses,
            "max_size": snap.estimate.max_size,
            "segments": snap.segments,
            "exact": snap.exact_curve is not None,
        }
        if sizes:
            payload["hit_rates"] = {
                str(k): snap.hit_rate(k) for k in sizes
            }
        return payload

    return (None, (future, fmt_curve))


def _result_payload(
    req_id: Optional[str], result: SolveResult, sizes: List[int]
) -> Dict[str, Any]:
    payload: Dict[str, Any] = {"id": req_id, "ok": True}
    payload.update(result.summary())
    if sizes:
        payload["hit_rates"] = {
            str(k): result.curve.hit_rate(k) for k in sizes
        }
    return payload


def _error_payload(
    req_id: Optional[str], exc: BaseException
) -> Dict[str, Any]:
    return {
        "id": req_id,
        "ok": False,
        "error": type(exc).__name__,
        "message": str(exc),
    }


class LocalBackend:
    """Serve requests from this process's :class:`CurveService`.

    Solves go to the service queue; tenant verbs go to ``tenants``
    (a :class:`~repro.tenants.TenantService`), when one is given.
    """

    def __init__(
        self,
        service: CurveService,
        *,
        tenants: Optional["TenantService"] = None,
    ) -> None:
        self.service = service
        self.tenants = tenants

    def hello(self, req_id: Any, *, binary_ok: bool) -> Dict[str, Any]:
        return schema.hello_payload(
            req_id, tenants_enabled=self.tenants is not None,
            binary_ok=binary_ok,
        )

    def record_protocol_error(self) -> None:
        self.service.record_protocol_error()

    def submit(self, obj: Dict[str, Any],
               payload: Optional[np.ndarray]) -> Any:
        if payload is not None and "trace" in obj:
            raise ReproError(
                "request carries both an inline trace and a payload; "
                "send one"
            )
        if "op" in obj:
            if self.tenants is None:
                raise ReproError(
                    "tenant ops are not enabled on this server "
                    "(start it with --tenants)"
                )
            if payload is not None:
                obj = dict(obj, trace=payload)
            reply, queued = handle_tenant_request(obj, self.tenants)
            return reply if queued is None else queued
        trace, cfg, deadline, req_id, sizes = parse_request_obj(
            obj, require_trace=payload is None,
        )
        if payload is not None:
            # The payload's dtype is its wire encoding, not a width pin:
            # only a request's own "dtype" field pins one.
            trace = payload
        elif isinstance(trace, str):
            trace = read_trace(trace)
        future = self.service.submit(
            trace, cfg, deadline=deadline, label=req_id or ""
        )
        return future, lambda result: _result_payload(req_id, result, sizes)


class _Stream:
    """One request stream: dispatch, ordering and replies.

    Both framings hand every decoded request to :meth:`dispatch`, which
    passes it to the backend.  The backend answers a request with its
    reply at once, or with ``(future, formatter)`` for work that
    completes later; replies then leave in completion order through
    ``write`` (a line or a frame writer), one at a time.  The
    synchronous tenant verbs first wait for every reply this stream
    owes (:meth:`barrier`), so a pipelined register → push → curve →
    evict script behaves as if it ran one request at a time.
    """

    def __init__(self, backend: Any,
                 write: Callable[[Dict[str, Any]], None]) -> None:
        self.backend = backend
        self.write = write
        self.failures = 0
        self._write_lock = threading.Lock()
        # Requests accepted but not yet answered.  A reply is counted
        # off only after it was written: waiting on the futures instead
        # would race, because result() waiters wake before
        # done-callbacks run.
        self._owed = 0
        self._answered = threading.Condition()

    def send(self, payload: Dict[str, Any]) -> None:
        with self._write_lock:
            try:
                try:
                    self.write(payload)
                except FrameTooLargeError as exc:
                    payload = _error_payload(payload.get("id"), exc)
                    self.write(payload)
            except OSError:
                pass  # the client went away; its request still ran
            if not payload.get("ok"):
                self.failures += 1

    def barrier(self) -> None:
        """Wait until every request accepted so far has been answered."""
        with self._answered:
            self._answered.wait_for(lambda: not self._owed)

    def protocol_error(self, exc: ProtocolError) -> None:
        self.backend.record_protocol_error()
        self.send(_error_payload(None, exc))

    def hello(self, obj: Dict[str, Any], *, binary_ok: bool,
              upgraded: bool) -> bool:
        """Answer a hello; False when it was malformed."""
        try:
            schema.validate_fields(obj, schema.HELLO_FIELDS, "hello")
        except ReproError as exc:
            self.send(_error_payload(obj.get("id"), exc))
            return False
        payload = self.backend.hello(obj.get("id"), binary_ok=binary_ok)
        if upgraded:
            payload["upgraded"] = schema.PROTOCOL_V2
        self.send(payload)
        return True

    def dispatch(
        self,
        obj: Dict[str, Any],
        payload: Optional[np.ndarray] = None,
    ) -> None:
        """Hand one request to the backend; its reply follows."""
        req_id = obj.get("id")
        try:
            if obj.get("op") in _SYNC_OPS:
                self.barrier()
            answer = self.backend.submit(obj, payload)
        except Exception as exc:  # noqa: BLE001 — answered on the stream
            answer = _error_payload(req_id, exc)
        if isinstance(answer, dict):
            self.send(answer)
            return
        future, formatter = answer
        with self._answered:
            self._owed += 1

        def on_done(f: Any) -> None:
            try:
                try:
                    reply = formatter(f.result())
                except Exception as exc:  # noqa: BLE001
                    reply = _error_payload(req_id, exc)
                self.send(reply)
            finally:
                with self._answered:
                    self._owed -= 1
                    self._answered.notify_all()

        future.add_done_callback(on_done)


def _serve_lines(lines: Iterable[Any], stream: _Stream, *,
                 binary_ok: bool) -> bool:
    """Serve v1 lines until EOF; True once a hello upgraded to frames."""
    for line in lines:
        if len(line) > MAX_LINE_LEN:
            stream.protocol_error(ProtocolError(
                f"request line longer than {MAX_LINE_LEN} bytes"
            ))
            break
        try:
            obj = _decode_line(line)
        except ProtocolError as exc:
            stream.protocol_error(exc)
            continue
        except ReproError as exc:
            stream.send(_error_payload(None, exc))
            continue
        if obj is None:
            continue
        if obj.get("op") == schema.HELLO_OP:
            upgrade = binary_ok and bool(obj.get("upgrade"))
            if upgrade:
                # The framing changes after this reply, so no earlier
                # reply may follow it.
                stream.barrier()
            if stream.hello(obj, binary_ok=binary_ok, upgraded=upgrade) \
                    and upgrade:
                return True
            continue
        stream.dispatch(obj)
    stream.barrier()
    return False


def _read_payload(
    rfile: BinaryIO, dtype_code: int, payload_len: int
) -> Optional[np.ndarray]:
    """Read ``payload_len`` trace bytes into a buffer of their own.

    The returned array owns its bytes for as long as anything holds it:
    a tenant's chunked engine may keep views of a push past its reply.
    """
    if not payload_len:
        return None
    buf = bytearray(payload_len)
    frames.read_payload_into(rfile, memoryview(buf), payload_len)
    return np.frombuffer(buf, dtype=frames.DTYPE_BY_CODE[dtype_code])


def _serve_frames(rfile: BinaryIO, stream: _Stream) -> None:
    """Serve v2 frames until EOF or a framing error.

    A framing error is answered once and ends the stream: a lost magic
    means the byte stream is out of sync for good.
    """
    try:
        while True:
            parsed = frames.read_frame_header(rfile)
            if parsed is None:
                break
            frame_type, dtype_code, obj, payload_len, _ = parsed
            if frame_type != frames.FRAME_REQUEST:
                raise ProtocolError(
                    f"expected a request frame, got type {frame_type}"
                )
            payload = _read_payload(rfile, dtype_code, payload_len)
            if obj.get("op") == schema.HELLO_OP:
                stream.hello(obj, binary_ok=True, upgraded=True)
                continue
            stream.dispatch(obj, payload)
    except ProtocolError as exc:
        stream.protocol_error(exc)
    finally:
        stream.barrier()


def _frame_writer(wfile: BinaryIO) -> Callable[[Dict[str, Any]], None]:
    return lambda payload: frames.write_frame(
        wfile, frames.FRAME_RESPONSE, payload
    )


def serve_stream(
    lines: "Iterable[Any]",
    emit: Callable[[str], None],
    service: CurveService,
    *,
    tenants: Optional["TenantService"] = None,
    upgrade: Optional[Callable[[], None]] = None,
) -> int:
    """Run the line protocol over one request stream (e.g. stdin).

    Reads requests from ``lines`` — ``str`` or raw ``bytes`` lines;
    bytes are decoded *strictly* as UTF-8, and an undecodable line is
    answered with a :class:`~repro.errors.ProtocolError` response (and
    counted as ``service.protocol_errors``).  Each JSON response goes
    through ``emit`` as its request completes, and the call blocks until
    every accepted request has been answered.  Returns the number of
    failed requests; the caller owns the service's lifecycle.

    ``upgrade``, when provided, lets a ``{"op": "hello", "upgrade":
    true}`` request switch the transport to v2 frames: the hello is
    answered with ``"upgraded": 2`` after every earlier reply,
    ``upgrade()`` is called and the function returns.  Without it the
    hello advertises the v1 protocol only.
    """
    stream = _Stream(
        LocalBackend(service, tenants=tenants),
        lambda payload: emit(json.dumps(payload)),
    )
    upgraded = _serve_lines(lines, stream, binary_ok=upgrade is not None)
    if upgraded and upgrade is not None:
        upgrade()
    return stream.failures


def serve_binary(
    rfile: BinaryIO,
    wfile: BinaryIO,
    service: CurveService,
    *,
    tenants: Optional["TenantService"] = None,
) -> int:
    """Run the v2 frame protocol over one byte stream.

    The frame counterpart of :func:`serve_stream`; returns the number of
    failed requests.
    """
    stream = _Stream(
        LocalBackend(service, tenants=tenants),
        _frame_writer(wfile),
    )
    _serve_frames(rfile, stream)
    return stream.failures


class _Handler(socketserver.StreamRequestHandler):
    """One client connection: v1 lines, then v2 frames after an upgrade."""

    # Replies are small writes: with Nagle's algorithm on, each would
    # wait for the client's delayed ACK of the one before.
    disable_nagle_algorithm = True

    def handle(self) -> None:  # pragma: no cover - exercised via TCP tests
        wfile = self.wfile
        stream = _Stream(
            self.server.backend,  # type: ignore[attr-defined]
            lambda payload: wfile.write(
                json.dumps(payload).encode("utf-8") + b"\n"
            ),
        )
        # readline keeps any bytes after the hello line in the buffered
        # reader, where the frame loop picks them up.
        lines = iter(lambda: self.rfile.readline(MAX_LINE_LEN + 1), b"")
        if _serve_lines(lines, stream, binary_ok=True):
            stream.write = _frame_writer(wfile)
            _serve_frames(self.rfile, stream)


class CurveServer(socketserver.ThreadingTCPServer):
    """The TCP server: one thread per connection, one shared backend.

    ``backend`` is a :class:`LocalBackend` (see :func:`serve_tcp`) or a
    :class:`~repro.cluster.ClusterFrontend`, which routes to a ring of
    shard servers.  A backend provides ``hello(req_id, *, binary_ok)``
    (the advertisement), ``submit(obj, payload)`` (a reply dict, or
    ``(future, formatter)``; ``payload`` is the v2 trace array, whose
    dtype is its wire encoding) and ``record_protocol_error()``.
    """

    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, address: Tuple[str, int], backend: Any) -> None:
        super().__init__(address, _Handler)
        self.backend = backend


def serve_tcp(
    service: CurveService,
    host: str = "127.0.0.1",
    port: int = 0,
    *,
    tenants: Optional["TenantService"] = None,
) -> CurveServer:
    """Bind a one-node :class:`CurveServer`; the caller runs
    ``serve_forever()``.

    ``port=0`` picks a free port (``server.server_address`` has the
    real one — the pattern the tests use).
    """
    return CurveServer((host, port), LocalBackend(service, tenants=tenants))
