"""Child process of the ``offline_solve`` workload: one library solve per trace.

Reads traces from stdin as an 8-byte little-endian access count followed
by the raw int64 accesses (a count of 0 ends the process), solves each
with ``repro.solve(trace)`` under the default ``SolveConfig()``, and
answers with the hit count array's length, the total access count and
the raw int64 cumulative hit counts.

Run as ``python3 perfbench/offline_worker.py`` with ``src`` on
``PYTHONPATH``.
"""

from __future__ import annotations

import struct
import sys

import numpy as np

import repro

_COUNT = struct.Struct("<q")
_REPLY = struct.Struct("<qq")


def _read_exact(stream, nbytes: int) -> bytearray:
    buf = bytearray(nbytes)
    view = memoryview(buf)
    got = 0
    while got < nbytes:
        n = stream.readinto(view[got:])
        if not n:
            raise EOFError("trace stream closed mid-trace")
        got += n
    return buf


def main() -> int:
    rin, wout = sys.stdin.buffer, sys.stdout.buffer
    while True:
        head = rin.read(_COUNT.size)
        if len(head) < _COUNT.size:
            return 0
        (count,) = _COUNT.unpack(head)
        if count == 0:
            return 0
        trace = np.frombuffer(_read_exact(rin, count * 8), dtype="<i8")
        curve = repro.solve(trace).curve
        hits = np.ascontiguousarray(curve.hits_cumulative, dtype="<i8")
        wout.write(_REPLY.pack(hits.size, int(curve.total_accesses)))
        wout.write(hits.tobytes())
        wout.flush()


if __name__ == "__main__":
    sys.exit(main())
