"""``CurveClient`` — the one supported way to talk to a curve server.

Every earlier caller of the wire protocol (soak scripts, server tests,
ad-hoc probes) hand-rolled a socket, its line framing, and its response
correlation.  This module replaces all of that with a small client that
speaks to any :class:`~repro.service.server.CurveServer` the same way,
whether it serves one node or fronts a shard ring (:mod:`repro.cluster`)::

    from repro.client import CurveClient

    with CurveClient(host, port) as client:
        answer = client.solve([1, 2, 1, 3, 1], sizes=[64, 4096])
        print(answer["hit_rates"])

        client.register("web", tier="sampled", sample_rate=0.01)
        client.push("web", trace_array)          # binary bulk upload
        curve = client.curve("web", sizes=[1024])

On connect the client sends the ``{"op": "hello"}`` handshake
(:mod:`repro.service.schema`): the server advertises its protocol
versions and, when both sides support it, the connection upgrades in
place to the v2 binary framed protocol — bulk traces then ship as raw
little-endian bytes (:mod:`repro.service.frames`) instead of JSON text.
``prefer_binary=False`` pins the v1 JSON line protocol.

Request fields are validated against the same declarative schema the
server parses with, so a typo fails fast client-side with the allowed
vocabulary named.  Server-side failures raise
:class:`~repro.errors.RemoteError` (pass ``check=False`` to get the raw
``ok: false`` payload instead).  One client drives one connection and
is **not** thread-safe; open one client per thread.
"""

from __future__ import annotations

import json
import socket
import threading
from typing import Any, Dict, List, Optional, Sequence, Union

import numpy as np

from .errors import ProtocolError, RemoteError, ReproError
from .service import frames, schema

Trace = Union[str, Sequence[int], np.ndarray]

#: Solve keywords accepted by :meth:`CurveClient.solve` — the schema's
#: request vocabulary minus the positionals (trace) and bookkeeping (id).
_SOLVE_KWARGS = frozenset(schema.REQUEST_FIELDS - {"trace", "id"})


def _dtype_name(dtype: Any) -> str:
    if isinstance(dtype, str):
        name = dtype
    else:
        name = np.dtype(dtype).name
    if name not in schema.DTYPES:
        raise ReproError(
            f"bad dtype {dtype!r}; use one of {sorted(schema.DTYPES)}"
        )
    return name


class CurveClient:
    """One connection to a curve server (single service or ring)."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        prefer_binary: bool = True,
        timeout: Optional[float] = 60.0,
    ) -> None:
        self._address = (host, int(port))
        self._timeout = timeout
        self._seq = 0
        self._lock = threading.Lock()
        self._sock = socket.create_connection(self._address,
                                              timeout=timeout)
        # Requests are small writes that wait for a reply: Nagle's
        # algorithm would hold each one behind the peer's delayed ACK.
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._rfile = self._sock.makefile("rb")
        self._wfile = self._sock.makefile("wb")
        self._binary = False
        #: The server's hello advertisement (protocols, algorithms,
        #: backend availability, ``server`` kind, shard count).
        self.server_info: Dict[str, Any] = {}
        try:
            self._handshake(prefer_binary)
        except BaseException:
            self.close()
            raise

    # -- lifecycle ---------------------------------------------------------

    @property
    def binary(self) -> bool:
        """True when this connection upgraded to the v2 framed protocol."""
        return self._binary

    def close(self) -> None:
        for closer in (self._wfile.close, self._rfile.close,
                       self._sock.close):
            try:
                closer()
            except OSError:  # pragma: no cover - teardown noise
                pass

    def __enter__(self) -> "CurveClient":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    # -- wire primitives ---------------------------------------------------

    def _next_id(self) -> str:
        self._seq += 1
        return f"c{self._seq}"

    def _handshake(self, prefer_binary: bool) -> None:
        req = {"op": schema.HELLO_OP, "id": self._next_id()}
        if prefer_binary:
            req["upgrade"] = True
        self._write_json(req)
        payload = self._read_json()
        if not payload.get("ok"):
            raise RemoteError(payload)
        self.server_info = payload
        if payload.get("upgraded") == schema.PROTOCOL_V2:
            self._binary = True

    def _write_json(self, obj: Dict[str, Any]) -> None:
        self._wfile.write(json.dumps(obj).encode("utf-8") + b"\n")
        self._wfile.flush()

    def _read_json(self) -> Dict[str, Any]:
        line = self._rfile.readline()
        if not line:
            raise ProtocolError("server closed the connection")
        try:
            obj = json.loads(line.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ProtocolError(f"bad response line: {exc}") from None
        if not isinstance(obj, dict):
            raise ProtocolError("response line is not a JSON object")
        return obj

    def _send(self, header: Dict[str, Any],
              payload: Optional[np.ndarray] = None) -> None:
        """One request out, on whichever protocol this connection speaks."""
        if self._binary:
            raw = b"" if payload is None else payload.tobytes()
            frames.write_frame(self._wfile, frames.FRAME_REQUEST, header,
                               raw, frames.payload_code(payload))
            return
        if payload is not None:
            header = dict(header)
            header["trace"] = payload.tolist()
        self._write_json(header)

    def _recv(self) -> Dict[str, Any]:
        if self._binary:
            got = frames.read_frame(self._rfile)
            if got is None:
                raise ProtocolError("server closed the connection")
            _frame_type, header, _payload = got
            return header
        return self._read_json()

    def _finish(self, payload: Dict[str, Any],
                check: bool) -> Dict[str, Any]:
        if check and not payload.get("ok"):
            raise RemoteError(payload)
        return payload

    def _roundtrip(self, header: Dict[str, Any],
                   payload: Optional[np.ndarray],
                   check: bool) -> Dict[str, Any]:
        with self._lock:
            self._send(header, payload)
            return self._finish(self._recv(), check)

    @staticmethod
    def _split_trace(trace: Trace) -> Any:
        """``(header_trace, payload_array)`` — exactly one is non-None."""
        if isinstance(trace, str):
            return trace, None
        arr = np.asarray(trace)
        if arr.dtype.name not in schema.DTYPES:
            arr = arr.astype(np.int64)
        return None, arr

    # -- solves ------------------------------------------------------------

    def _solve_header(self, req_id: str, sizes: Optional[Sequence[int]],
                      kwargs: Dict[str, Any]) -> Dict[str, Any]:
        unknown = set(kwargs) - _SOLVE_KWARGS
        if unknown:
            raise ReproError(
                f"unknown solve keyword(s) {sorted(unknown)}; "
                f"allowed: {sorted(_SOLVE_KWARGS)}"
            )
        header: Dict[str, Any] = {"id": req_id}
        header.update(kwargs)
        if "dtype" in header:
            header["dtype"] = _dtype_name(header["dtype"])
        if sizes is not None:
            header["sizes"] = [int(s) for s in sizes]
        return header

    def solve(self, trace: Trace, *, sizes: Optional[Sequence[int]] = None,
              check: bool = True, **kwargs: Any) -> Dict[str, Any]:
        """Solve one trace (path string, list, or ndarray).

        Keywords are the wire schema: ``algorithm``, ``max_cache_size``,
        ``workers``, ``engine_backend``, ``chunk_size``, ``dtype``,
        ``deadline``.  Returns the response payload (``hit_rates`` maps
        stringified sizes to floats, matching the wire format).
        """
        header = self._solve_header(self._next_id(), sizes, kwargs)
        header_trace, payload = self._split_trace(trace)
        if header_trace is not None:
            header["trace"] = header_trace
        return self._roundtrip(header, payload, check)

    def solve_batch(self, traces: Sequence[Trace], *,
                    sizes: Optional[Sequence[int]] = None,
                    check: bool = True,
                    **kwargs: Any) -> List[Dict[str, Any]]:
        """Pipeline many solves on one connection.

        All requests go out before any response is read, so the server
        coalesces compatible ones into batched engine solves; responses
        arrive in completion order and are returned re-matched to the
        request order.
        """
        with self._lock:
            ids: List[str] = []
            for trace in traces:
                header = self._solve_header(self._next_id(), sizes,
                                            dict(kwargs))
                header_trace, payload = self._split_trace(trace)
                if header_trace is not None:
                    header["trace"] = header_trace
                ids.append(header["id"])
                self._send(header, payload)
            by_id: Dict[Optional[str], Dict[str, Any]] = {}
            for _ in ids:
                payload_obj = self._recv()
                by_id[payload_obj.get("id")] = payload_obj
        missing = [i for i in ids if i not in by_id]
        if missing:
            raise ProtocolError(
                f"server answered {len(by_id)} requests but ids "
                f"{missing} are missing"
            )
        return [self._finish(by_id[i], check) for i in ids]

    # -- tenant verbs ------------------------------------------------------

    def register(self, tenant: str, *, check: bool = True,
                 **kwargs: Any) -> Dict[str, Any]:
        """Register a tenant (``tier``, ``sample_rate``, budgets, ...)."""
        allowed = schema.TENANT_OP_FIELDS["register"] - {"op", "id",
                                                         "tenant"}
        unknown = set(kwargs) - allowed
        if unknown:
            raise ReproError(
                f"unknown register keyword(s) {sorted(unknown)}; "
                f"allowed: {sorted(allowed)}"
            )
        header = {"op": "register", "id": self._next_id(),
                  "tenant": tenant}
        header.update(kwargs)
        return self._roundtrip(header, None, check)

    def push(self, tenant: str, trace: Trace, *,
             deadline: Optional[float] = None,
             check: bool = True) -> Dict[str, Any]:
        """Stream accesses into a tenant (binary payload when upgraded)."""
        header: Dict[str, Any] = {"op": "push", "id": self._next_id(),
                                  "tenant": tenant}
        if deadline is not None:
            header["deadline"] = deadline
        header_trace, payload = self._split_trace(trace)
        if header_trace is not None:
            header["trace"] = header_trace
        return self._roundtrip(header, payload, check)

    def curve(self, tenant: str, *,
              sizes: Optional[Sequence[int]] = None,
              deadline: Optional[float] = None,
              check: bool = True) -> Dict[str, Any]:
        """A tenant's current curve snapshot."""
        header: Dict[str, Any] = {"op": "curve", "id": self._next_id(),
                                  "tenant": tenant}
        if sizes is not None:
            header["sizes"] = [int(s) for s in sizes]
        if deadline is not None:
            header["deadline"] = deadline
        return self._roundtrip(header, None, check)

    def evict(self, tenant: str, *, check: bool = True) -> Dict[str, Any]:
        """Drop a tenant's state."""
        return self._roundtrip(
            {"op": "evict", "id": self._next_id(), "tenant": tenant},
            None, check,
        )

    def tenants(self, *, check: bool = True) -> Dict[str, Any]:
        """Describe every registered tenant."""
        return self._roundtrip(
            {"op": "tenants", "id": self._next_id()}, None, check,
        )

    def hello(self, *, check: bool = True) -> Dict[str, Any]:
        """Re-query the server's advertisement (no transport change)."""
        return self._roundtrip(
            {"op": schema.HELLO_OP, "id": self._next_id()}, None, check,
        )


__all__ = ["CurveClient"]
