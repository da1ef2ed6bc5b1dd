"""The level loop's one width rule, observed where the solves run.

An engine solve whose caller pins no ``dtype`` must reach
``solve_prepost_arrays`` with int32 ops and leave its thread's workspace
accumulating in int32 (:func:`repro.core.engine.certify_int32` proves
both exact); an explicit ``dtype=np.int64`` must keep both at int64.  A
spy on ``solve_prepost_arrays`` records what every call saw, in the
thread that ran it: a library ``solve``, a default ``ChunkedIAF``
chunk, a ``solve_batch`` served through a binary ``CurveClient``, and
the parts of a ``process-iaf`` solve.  The ``iaf.solve`` and
``iaf.solve_batch`` spans report the same two widths.
"""

import threading

import numpy as np
import pytest

import repro.parallel_exec as pe
from repro import SolveConfig, solve, solve_batch
from repro.client import CurveClient
from repro.core import engine
from repro.core.chunked import ChunkedIAF
from repro.obs import tracing
from repro.parallel_exec import ProcessExecutor
from repro.service import CurveService, serve_tcp

I32, I64 = np.dtype(np.int32), np.dtype(np.int64)

pytestmark = pytest.mark.parametrize(
    "dtype, want", [(None, I32), (np.int64, I64)], ids=["auto", "int64"]
)


@pytest.fixture
def widths(monkeypatch):
    """``(ops dtype, accumulator dtype)`` of every level loop run."""
    seen = []
    real = engine.solve_prepost_arrays

    def spy(seg, out, **kwargs):
        real(seg, out, **kwargs)
        seen.append((seg.r.dtype, engine.thread_workspace().acc_dtype))

    monkeypatch.setattr(engine, "solve_prepost_arrays", spy)
    return seen


def _trace(seed=0, n=6000, universe=300):
    return np.random.default_rng(seed).integers(0, universe, size=n)


def test_library_solve(widths, dtype, want):
    trace = _trace()
    got = solve(trace, SolveConfig(dtype=dtype))
    assert widths == [(want, want)]
    ref = solve(trace, SolveConfig(engine_backend="naive"))
    assert np.array_equal(got.distances, ref.distances)


def test_chunked_engine_chunks(widths, dtype, want):
    ChunkedIAF(1024, dtype=dtype).push(_trace(n=4096))
    assert widths == [(want, want)] * 4


def test_binary_client_batch(widths, dtype, want):
    traces = [_trace(seed, n=2000) for seed in range(8)]
    pin = {} if dtype is None else {"dtype": "int64"}
    with CurveService(workers=1) as svc:
        server = serve_tcp(svc, "127.0.0.1", 0)
        threading.Thread(target=server.serve_forever, daemon=True).start()
        try:
            with CurveClient(*server.server_address[:2]) as client:
                assert client.binary
                replies = client.solve_batch(traces, sizes=[8], **pin)
        finally:
            server.shutdown()
            server.server_close()
    assert len(replies) == len(traces)
    assert widths and set(widths) == {(want, want)}


def test_process_iaf_parts(widths, monkeypatch, dtype, want):
    """No part fits the arena, so every part is solved inline on this
    thread, where the spy sees it; a worker solves the same arrays."""
    monkeypatch.setattr(pe, "_MAX_ARENA_BYTES", 1 << 12)
    with ProcessExecutor(workers=2, arena_bytes=1 << 12) as ex:
        monkeypatch.setattr(pe, "default_executor", lambda workers=2: ex)
        solve(_trace(n=20_000), SolveConfig(algorithm="process-iaf",
                                            workers=2, dtype=dtype))
        parts = int(ex.metrics()["exec.degraded"])
    assert parts >= 2
    # The parts first, then the root call that split into them.
    assert widths == [(want, want)] * (parts + 1)


def test_solve_spans_carry_width_and_acc(dtype, want):
    traces = [_trace(seed, n=3000) for seed in range(3)]
    with tracing() as tracer:
        solve(traces[0], SolveConfig(dtype=dtype))
        solve_batch(traces, SolveConfig(dtype=dtype))
    spans = {e.name: e.attrs for e in tracer.events()
             if e.name in ("iaf.solve", "iaf.solve_batch")}
    assert set(spans) == {"iaf.solve", "iaf.solve_batch"}
    for attrs in spans.values():
        assert attrs["width"] == str(want) and attrs["acc"] == str(want)
