"""The v2 binary framed protocol (negotiated via ``{"op": "hello"}``).

The JSON line protocol re-encodes every access as decimal text — a
1M-access trace costs ~7 MB of JSON and a parse per digit.  The binary
framing ships the same request as a small JSON *header* (everything
except the trace) plus the trace as raw little-endian int32/int64 bytes
that can be handed to :func:`numpy.frombuffer` without ever becoming
Python objects.

Every frame is::

    +--------+------+-------+----------+------------+-------------+
    | magic  | type | dtype | reserved | header_len | payload_len |
    | 4 B    | u8   | u8    | u16      | u32        | u64         |
    +--------+------+-------+----------+------------+-------------+
    | header: UTF-8 JSON object, header_len bytes                 |
    +-------------------------------------------------------------+
    | payload: raw little-endian trace bytes, payload_len bytes   |
    +-------------------------------------------------------------+

* ``magic`` is ``b"IAF2"``; a mismatch means the peer lost framing and
  the connection is unrecoverable (the server answers once and closes).
* ``type`` is :data:`FRAME_REQUEST` or :data:`FRAME_RESPONSE`.
* ``dtype`` is :data:`DTYPE_NONE` (no payload semantics),
  :data:`DTYPE_INT32`, or :data:`DTYPE_INT64` and describes the payload
  element type.  ``payload_len`` must be a multiple of the element size.
* The header object uses the exact same schema as the v1 JSON line
  protocol (:mod:`repro.service.schema`), minus the inline ``trace``
  list when a payload carries the addresses instead.

Integers are little-endian throughout (``struct`` format ``<``), which
matches the on-wire trace bytes and every platform this runs on.
"""

from __future__ import annotations

import json
import struct
from typing import Any, BinaryIO, Dict, Optional, Tuple

import numpy as np

from ..errors import FrameTooLargeError, ProtocolError

MAGIC = b"IAF2"

FRAME_REQUEST = 1
FRAME_RESPONSE = 2

DTYPE_NONE = 0
DTYPE_INT32 = 1
DTYPE_INT64 = 2

#: dtype code <-> numpy dtype for the payload bytes.
DTYPE_BY_CODE = {DTYPE_INT32: np.dtype("<i4"), DTYPE_INT64: np.dtype("<i8")}
CODE_BY_NAME = {"int32": DTYPE_INT32, "int64": DTYPE_INT64}


def payload_code(payload: Optional[np.ndarray]) -> int:
    """The dtype code of a frame carrying ``payload`` (none: DTYPE_NONE)."""
    return DTYPE_NONE if payload is None else CODE_BY_NAME[payload.dtype.name]


#: ``<`` little-endian: magic, frame type, dtype code, reserved,
#: header_len (u32), payload_len (u64).
_HEADER = struct.Struct("<4sBBHIQ")
HEADER_SIZE = _HEADER.size  # 20 bytes

#: Caps keep a corrupt length field from allocating the host away.
MAX_HEADER_LEN = 1 << 20          # 1 MiB of JSON header is already absurd
MAX_PAYLOAD_LEN = 1 << 34         # 16 GiB of trace bytes


def _frame_prefix(
    frame_type: int, header: Dict[str, Any], payload_len: int,
    dtype_code: int,
) -> bytes:
    """The fixed header and the JSON header of one frame.

    Raises :class:`~repro.errors.FrameTooLargeError` when the JSON
    header would exceed :data:`MAX_HEADER_LEN`, which every reader
    rejects; nothing has been written at that point.
    """
    head = json.dumps(header, separators=(",", ":")).encode("utf-8")
    if len(head) > MAX_HEADER_LEN:
        raise FrameTooLargeError(
            f"frame JSON header of {len(head)} bytes exceeds the "
            f"{MAX_HEADER_LEN}-byte cap (MAX_HEADER_LEN); ask for fewer "
            f"sizes or split the request"
        )
    return _HEADER.pack(MAGIC, frame_type, dtype_code, 0, len(head),
                        payload_len) + head


def encode_frame(
    frame_type: int,
    header: Dict[str, Any],
    payload: bytes = b"",
    dtype_code: int = DTYPE_NONE,
) -> bytes:
    """One frame as bytes (small frames; bulk senders stream instead)."""
    return _frame_prefix(frame_type, header, len(payload),
                         dtype_code) + payload


def write_frame(
    wfile: BinaryIO,
    frame_type: int,
    header: Dict[str, Any],
    payload: Any = b"",
    dtype_code: int = DTYPE_NONE,
) -> None:
    """Write one frame and flush.

    Both headers leave in one write, so a header-only frame (every
    reply) is one segment on an unbuffered socket.  ``payload`` is any
    contiguous buffer (bytes, an ndarray) and is written without being
    copied into the header bytes.
    """
    payload_len = memoryview(payload).nbytes
    wfile.write(_frame_prefix(frame_type, header, payload_len, dtype_code))
    if payload_len:
        wfile.write(payload)
    wfile.flush()


def _read_exact(rfile: BinaryIO, n: int, what: str) -> bytes:
    """Read exactly ``n`` bytes or raise :class:`ProtocolError`.

    Zero bytes at a frame boundary is a clean EOF and returns ``b""``
    only when the caller asked for the fixed header (``what`` is
    ``"frame header"``); truncation anywhere else is an error.
    """
    chunks = []
    got = 0
    while got < n:
        chunk = rfile.read(n - got)
        if not chunk:
            if got == 0 and what == "frame header":
                return b""
            raise ProtocolError(
                f"connection closed mid-frame: wanted {n} bytes of "
                f"{what}, got {got}"
            )
        chunks.append(chunk)
        got += len(chunk)
    return b"".join(chunks)


def read_frame_header(
    rfile: BinaryIO,
) -> Optional[Tuple[int, int, Dict[str, Any], int, int]]:
    """Read one frame's fixed header + JSON header, *not* the payload.

    Returns ``(frame_type, dtype_code, header_obj, payload_len,
    elem_size)`` — the caller reads ``payload_len`` payload bytes into
    a buffer of its choosing — or ``None`` on clean EOF.  Raises
    :class:`ProtocolError` on garbage.
    """
    raw = _read_exact(rfile, HEADER_SIZE, "frame header")
    if not raw:
        return None
    magic, frame_type, dtype_code, _reserved, header_len, payload_len = (
        _HEADER.unpack(raw)
    )
    if magic != MAGIC:
        raise ProtocolError(
            f"bad frame magic {magic!r} (expected {MAGIC!r}); "
            "connection out of sync"
        )
    if frame_type not in (FRAME_REQUEST, FRAME_RESPONSE):
        raise ProtocolError(f"unknown frame type {frame_type}")
    if header_len > MAX_HEADER_LEN:
        raise ProtocolError(
            f"frame header length {header_len} exceeds cap {MAX_HEADER_LEN}"
        )
    if payload_len > MAX_PAYLOAD_LEN:
        raise ProtocolError(
            f"frame payload length {payload_len} exceeds cap "
            f"{MAX_PAYLOAD_LEN}"
        )
    elem_size = 0
    if payload_len:
        dt = DTYPE_BY_CODE.get(dtype_code)
        if dt is None:
            raise ProtocolError(
                f"unknown payload dtype code {dtype_code}"
            )
        elem_size = dt.itemsize
        if payload_len % elem_size:
            raise ProtocolError(
                f"payload length {payload_len} is not a multiple of the "
                f"{dt.name} element size {elem_size}"
            )
    head_raw = _read_exact(rfile, header_len, "frame JSON header")
    try:
        header = json.loads(head_raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"bad frame JSON header: {exc}") from None
    if not isinstance(header, dict):
        raise ProtocolError("frame JSON header must be an object")
    return frame_type, dtype_code, header, payload_len, elem_size


def read_frame(
    rfile: BinaryIO,
) -> Optional[Tuple[int, Dict[str, Any], Optional[np.ndarray]]]:
    """Read one whole frame; payload materialised as an ndarray.

    Returns ``(frame_type, header, payload_array_or_None)`` or ``None``
    on clean EOF.  The convenience path for clients and tests; the
    server's ingest loop uses :func:`read_frame_header` +
    :func:`read_payload_into` so bulk bytes are read into one buffer
    without an intermediate ``bytes`` object.
    """
    parsed = read_frame_header(rfile)
    if parsed is None:
        return None
    frame_type, dtype_code, header, payload_len, _elem = parsed
    payload = None
    if payload_len:
        raw = _read_exact(rfile, payload_len, "frame payload")
        payload = np.frombuffer(raw, dtype=DTYPE_BY_CODE[dtype_code])
    return frame_type, header, payload


def read_payload_into(
    rfile: BinaryIO, buf: memoryview, payload_len: int
) -> None:
    """Read exactly ``payload_len`` payload bytes into ``buf``.

    ``buf`` must be a writable memoryview of at least ``payload_len``
    bytes — the bytes go from the socket into their final resting place
    with no intermediate copies.
    """
    view = buf[:payload_len]
    got = 0
    while got < payload_len:
        n = rfile.readinto(view[got:])  # type: ignore[attr-defined]
        if not n:
            raise ProtocolError(
                f"connection closed mid-frame: wanted {payload_len} "
                f"payload bytes, got {got}"
            )
        got += n


__all__ = [
    "CODE_BY_NAME",
    "DTYPE_BY_CODE",
    "DTYPE_INT32",
    "DTYPE_INT64",
    "DTYPE_NONE",
    "FRAME_REQUEST",
    "FRAME_RESPONSE",
    "HEADER_SIZE",
    "MAGIC",
    "encode_frame",
    "read_frame",
    "read_frame_header",
    "read_payload_into",
    "write_frame",
]
