"""The v2 binary framed protocol: frames and the server loop."""

import io

import numpy as np
import pytest

from repro.core.engine import iaf_hit_rate_curve
from repro.errors import ProtocolError
from repro.service import CurveService, serve_binary
from repro.service import frames


def run_frames(requests, service, **kwargs):
    """Feed encoded request frames through serve_binary; parse responses."""
    rfile = io.BytesIO(b"".join(requests))
    wfile = io.BytesIO()
    failures = serve_binary(rfile, wfile, service, **kwargs)
    wfile.seek(0)
    responses = []
    while True:
        got = frames.read_frame(wfile)
        if got is None:
            break
        frame_type, header, payload = got
        assert frame_type == frames.FRAME_RESPONSE
        assert payload is None
        responses.append(header)
    return failures, responses


class TestFraming:
    def test_round_trip(self):
        arr = np.arange(100, dtype=np.int64)
        raw = frames.encode_frame(
            frames.FRAME_REQUEST, {"id": "x"}, arr.tobytes(),
            frames.DTYPE_INT64,
        )
        frame_type, header, payload = frames.read_frame(io.BytesIO(raw))
        assert frame_type == frames.FRAME_REQUEST
        assert header == {"id": "x"}
        np.testing.assert_array_equal(payload, arr)

    def test_clean_eof_returns_none(self):
        assert frames.read_frame(io.BytesIO(b"")) is None

    def test_bad_magic_raises(self):
        with pytest.raises(ProtocolError, match="magic"):
            frames.read_frame(io.BytesIO(b"NOPE" + b"\x00" * 16))

    def test_truncated_frame_raises(self):
        raw = frames.encode_frame(frames.FRAME_REQUEST, {"id": "x"},
                                  b"\x00" * 64, frames.DTYPE_INT64)
        with pytest.raises(ProtocolError, match="mid-frame"):
            frames.read_frame(io.BytesIO(raw[:-10]))

    def test_misaligned_payload_raises(self):
        raw = frames.encode_frame(frames.FRAME_REQUEST, {}, b"\x00" * 7,
                                  frames.DTYPE_INT64)
        with pytest.raises(ProtocolError, match="multiple"):
            frames.read_frame(io.BytesIO(raw))

    def test_unknown_dtype_code_raises(self):
        raw = frames.encode_frame(frames.FRAME_REQUEST, {}, b"\x00" * 8,
                                  dtype_code=9)
        with pytest.raises(ProtocolError, match="dtype code"):
            frames.read_frame(io.BytesIO(raw))


class TestServeBinary:
    @pytest.mark.parametrize("np_dtype,code", [
        (np.int32, frames.DTYPE_INT32),
        (np.int64, frames.DTYPE_INT64),
    ])
    def test_solve_payload_matches_direct(self, rng, np_dtype, code):
        trace = rng.integers(0, 100, size=2000).astype(np_dtype)
        req = frames.encode_frame(
            frames.FRAME_REQUEST, {"id": "s", "sizes": [8, 32]},
            trace.tobytes(), code,
        )
        with CurveService(workers=1) as svc:
            failures, responses = run_frames([req], svc)
        assert failures == 0
        direct = iaf_hit_rate_curve(trace.astype(np.int64))
        assert responses[0]["hit_rates"]["32"] == direct.hit_rate(32)
        assert responses[0]["total_accesses"] == 2000

    def test_inline_trace_still_works(self):
        req = frames.encode_frame(
            frames.FRAME_REQUEST,
            {"id": "i", "trace": [1, 2, 1, 3], "sizes": [2]},
        )
        with CurveService(workers=1) as svc:
            failures, responses = run_frames([req], svc)
        assert failures == 0
        assert responses[0]["ok"] is True

    def test_both_trace_and_payload_rejected(self):
        req = frames.encode_frame(
            frames.FRAME_REQUEST, {"id": "x", "trace": [1]},
            np.array([1], dtype=np.int64).tobytes(), frames.DTYPE_INT64,
        )
        with CurveService(workers=1) as svc:
            failures, responses = run_frames([req], svc)
        assert failures == 1
        assert "both" in responses[0]["message"]

    def test_missing_trace_rejected(self):
        req = frames.encode_frame(frames.FRAME_REQUEST, {"id": "x"})
        with CurveService(workers=1) as svc:
            failures, responses = run_frames([req], svc)
        assert failures == 1
        assert responses[0]["ok"] is False

    def test_unknown_field_rejected(self):
        req = frames.encode_frame(
            frames.FRAME_REQUEST, {"id": "x", "trace": [1], "bogus": 1},
        )
        with CurveService(workers=1) as svc:
            failures, responses = run_frames([req], svc)
        assert failures == 1
        assert "bogus" in responses[0]["message"]

    def test_garbage_closes_with_protocol_error(self):
        good = frames.encode_frame(
            frames.FRAME_REQUEST, {"id": "ok", "trace": [1, 2]},
        )
        with CurveService(workers=1) as svc:
            failures, responses = run_frames(
                [good, b"GARBAGEGARBAGEGARBAGE"], svc
            )
            metrics = svc.metrics()
        assert failures == 1
        assert metrics["service.protocol_errors"] == 1
        by_id = {r.get("id"): r for r in responses}
        assert by_id["ok"]["ok"] is True
        assert by_id[None]["error"] == "ProtocolError"

    def test_tenant_push_via_payload(self, rng):
        from repro.tenants import TenantService

        trace = rng.integers(0, 50, size=1000).astype(np.int64)
        reqs = [
            frames.encode_frame(frames.FRAME_REQUEST,
                                {"op": "register", "tenant": "t",
                                 "id": "r"}),
            frames.encode_frame(frames.FRAME_REQUEST,
                                {"op": "push", "tenant": "t", "id": "p"},
                                trace.tobytes(), frames.DTYPE_INT64),
            frames.encode_frame(frames.FRAME_REQUEST,
                                {"op": "curve", "tenant": "t",
                                 "sizes": [16], "id": "c"}),
        ]
        with CurveService(workers=1) as svc:
            tenants = TenantService(svc)
            failures, responses = run_frames(reqs, svc, tenants=tenants)
        assert failures == 0
        by_id = {r["id"]: r for r in responses}
        assert by_id["p"]["ingested"] == 1000
        direct = iaf_hit_rate_curve(trace)
        assert by_id["c"]["hit_rates"]["16"] == direct.hit_rate(16)
