"""Bulk-upload ingest: binary framed protocol vs JSON lines.

Measures the **ingest path** — bytes on the wire to a validated int64
ndarray server-side — through the server's real decode code over a
socketpair, one writer thread and one reader thread, exactly like a
loopback connection:

* **v2 binary**: client ``tobytes`` → framed ``sendall`` → server
  :func:`~repro.service.frames.read_frame_header` +
  :func:`repro.service.server._read_payload` (one heap buffer,
  ``frombuffer``).
* **v1 JSON lines**: client ``tolist`` → ``json.dumps`` → ``sendall``
  → server ``readline`` → ``json.loads`` →
  :func:`~repro.service.server.parse_request_obj` → ``np.asarray``.

The downstream solve is transport-independent (the same chunked engine
runs either way), so it is excluded from the gated number — but the
end-to-end tenant ``push`` round trip over real TCP is recorded
alongside as unguarded context, so the file shows both the isolated
transport win and what it amounts to once solve time is added back.

Acceptance bar (recorded in ``BENCH_cluster.json``): binary ingest
wall-time at least **2x lower** than JSON for a 1M-access trace.  Run
standalone (``python benchmarks/bench_cluster_protocol.py``) — exits
nonzero when the bar is missed; CI's cluster-soak job gates on it.

Honest metadata: single host, both threads share the machine,
``cpu_count`` recorded; on 1-core boxes encode and decode serialize
instead of pipelining, which *understates* the binary win (JSON's
encode+decode are both heavy; binary's are memcpys).
"""

from __future__ import annotations

import json
import os
import socket
import statistics
import sys
import threading
import time
from pathlib import Path
from typing import Dict

import numpy as np

from _common import provenance
from repro.client import CurveClient
from repro.service import CurveService, frames, serve_tcp
from repro.service.server import _read_payload, parse_request_obj
from repro.tenants import TenantService

JSON_PATH = Path(__file__).resolve().parent.parent / "BENCH_cluster.json"

N = int(os.environ.get("REPRO_BENCH_CLUSTER_N", "1000000"))
UNIVERSE = 65_536
REPEATS = 3
REQUIRED_RATIO = 2.0


def _timed_transfer(send, recv) -> float:
    """Wall time from encode start to validated-ndarray, both threads."""
    a, b = socket.socketpair()
    done = threading.Event()
    t_ready = [0.0]

    def server() -> None:
        with b.makefile("rb") as rfile:
            arr = recv(rfile)
            assert arr.size == N and arr.dtype == np.int64
            # Touch the data: a lazy view must actually materialize.
            assert arr[:: max(1, N // 64)].sum() >= 0
            t_ready[0] = time.perf_counter()
            done.set()

    thread = threading.Thread(target=server, daemon=True)
    thread.start()
    t0 = time.perf_counter()
    send(a)
    done.wait(timeout=300.0)
    thread.join(timeout=300.0)
    a.close()
    b.close()
    return t_ready[0] - t0


def measure_binary_ingest(trace: np.ndarray) -> float:
    def send(sock: socket.socket) -> None:
        sock.sendall(frames.encode_frame(
            frames.FRAME_REQUEST, {"id": "bulk", "sizes": [64]},
            trace.tobytes(), frames.DTYPE_INT64,
        ))

    def recv(rfile):
        _type, dtype_code, _header, payload_len, _elem = \
            frames.read_frame_header(rfile)
        arr = _read_payload(rfile, dtype_code, payload_len)
        return arr.astype(np.int64, copy=False)

    times = [_timed_transfer(send, recv) for _ in range(REPEATS + 1)]
    return statistics.median(times[1:])  # first run warms the path


def measure_json_ingest(trace: np.ndarray) -> float:
    def send(sock: socket.socket) -> None:
        header = {"id": "bulk", "sizes": [64], "trace": trace.tolist()}
        sock.sendall(json.dumps(header).encode("utf-8") + b"\n")

    def recv(rfile):
        obj = json.loads(rfile.readline())
        raw, _cfg, _deadline, _rid, _sizes = parse_request_obj(obj)
        return np.asarray(raw, dtype=np.int64)

    times = [_timed_transfer(send, recv) for _ in range(REPEATS + 1)]
    return statistics.median(times[1:])


def measure_push_round_trip(trace: np.ndarray) -> Dict[str, float]:
    """Unguarded context: full tenant ``push`` over TCP, both
    transports — ingest plus the (transport-independent) incremental
    solve the tenant runs over every pushed access."""
    out: Dict[str, float] = {}
    with CurveService(workers=1) as svc:
        server = serve_tcp(svc, "127.0.0.1", 0,
                           tenants=TenantService(svc))
        host, port = server.server_address[:2]
        threading.Thread(target=server.serve_forever, daemon=True).start()
        try:
            for label, prefer in (("binary", True), ("json", False)):
                with CurveClient(host, port,
                                 prefer_binary=prefer) as client:
                    assert client.binary is prefer
                    client.register("bulk")
                    t0 = time.perf_counter()
                    resp = client.push("bulk", trace)
                    out[f"{label}_push_s"] = time.perf_counter() - t0
                    assert resp["ingested"] == trace.size
                    client.evict("bulk")
        finally:
            server.shutdown()
            server.server_close()
    return out


def main() -> int:
    rng = np.random.default_rng(0)
    trace = rng.integers(0, UNIVERSE, size=N).astype(np.int64)

    binary_s = measure_binary_ingest(trace)
    json_s = measure_json_ingest(trace)

    ratio = json_s / binary_s if binary_s else float("inf")
    results: Dict[str, object] = {
        "n": N,
        "universe": UNIVERSE,
        "repeats": REPEATS,
        "binary_ingest_s": binary_s,
        "json_ingest_s": json_s,
        "json_over_binary": ratio,
        "required_ratio": REQUIRED_RATIO,
        "binary_mb_per_s": trace.nbytes / binary_s / 1e6,
        "end_to_end_push": measure_push_round_trip(trace),
        # Honest provenance: one shared host, socketpair/loopback, both
        # endpoints competing for the same cores.
        "cpu_count": os.cpu_count() or 1,
        "single_host_loopback": True,
        "provenance": provenance(),
    }
    JSON_PATH.write_text(json.dumps(results, indent=2, sort_keys=True)
                         + "\n")
    print(json.dumps(results, indent=2, sort_keys=True))
    if ratio < REQUIRED_RATIO:
        print(f"FAIL: binary ingest only {ratio:.2f}x faster than JSON "
              f"(need >= {REQUIRED_RATIO}x)", file=sys.stderr)
        return 1
    print(f"OK: binary ingest {ratio:.2f}x faster than JSON lines")
    return 0


if __name__ == "__main__":
    sys.exit(main())
