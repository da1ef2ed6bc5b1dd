"""One wire-protocol conformance suite, run against both deployments.

Every case runs twice: against a one-node server (``serve_tcp`` with
tenants) and against an in-process 2-shard ring (a ``CurveServer``
whose backend is a ``ClusterFrontend``).  A ring is the same server
with a different backend, so both must answer the same bytes the same
way.
"""

from __future__ import annotations

import contextlib
import json
import socket
import statistics
import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, Tuple

import numpy as np
import pytest

from repro.client import CurveClient
from repro.core.api import solve
from repro.core.engine import iaf_hit_rate_curve
from repro.parallel_exec import shutdown_default_executor
from repro.service import CurveService, frames, serve_tcp
from repro.service import server as server_mod
from repro.tenants import TenantService
from repro.workloads.traceio import write_trace
from tests.cluster.test_cluster import in_process_ring


@dataclass
class Deployment:
    kind: str
    address: Tuple[str, int]
    #: Counter snapshot of whoever answers the client: the service or
    #: the ring frontend.
    metrics: Callable[[], Dict[str, float]]


@pytest.fixture(params=["server", "ring"])
def deployment(request):
    if request.param == "ring":
        frontends = []
        with in_process_ring(2, frontend_out=frontends) as address:
            yield Deployment("ring", address, frontends[0].metrics)
        return
    with CurveService(workers=2) as svc:
        server = serve_tcp(svc, "127.0.0.1", 0, tenants=TenantService(svc))
        threading.Thread(target=server.serve_forever, daemon=True).start()
        try:
            yield Deployment("server", server.server_address[:2],
                             svc.metrics)
        finally:
            server.shutdown()
            server.server_close()


@contextlib.contextmanager
def raw_connection(dep):
    with socket.create_connection(dep.address, timeout=60) as sock:
        with sock.makefile("rb") as rfile:
            yield sock, rfile


def read_lines(rfile, count):
    return [json.loads(rfile.readline()) for _ in range(count)]


def upgrade(sock, rfile):
    sock.sendall(json.dumps({"op": "hello", "upgrade": True}).encode()
                 + b"\n")
    assert json.loads(rfile.readline())["upgraded"] == 2


class TestHandshake:
    def test_hello_advertisement(self, deployment):
        for prefer_binary in (True, False):
            with CurveClient(*deployment.address,
                             prefer_binary=prefer_binary) as client:
                info = client.server_info
                assert client.binary is prefer_binary
            assert info["ok"] is True
            assert info["protocols"] == [1, 2]
            assert info["tenants"] is True
            assert ("upgraded" in info) is prefer_binary
            if deployment.kind == "ring":
                assert info["server"] == "ring"
                assert info["shards"] == 2
            else:
                assert info["server"] == "curve"
                assert "shards" not in info

    def test_upgrade_with_a_frame_pipelined_behind_the_hello(
            self, deployment, rng):
        """Bytes after the hello line must survive the framing switch."""
        trace = rng.integers(0, 64, size=512).astype(np.int64)
        frame = frames.encode_frame(
            frames.FRAME_REQUEST, {"id": "b", "sizes": [8]},
            trace.tobytes(), frames.DTYPE_INT64,
        )
        with raw_connection(deployment) as (sock, rfile):
            sock.sendall(json.dumps({"op": "hello", "upgrade": True,
                                     "id": "h"}).encode() + b"\n" + frame)
            assert json.loads(rfile.readline())["upgraded"] == 2
            _type, reply, _payload = frames.read_frame(rfile)
        assert reply["hit_rates"]["8"] == iaf_hit_rate_curve(
            trace).hit_rate(8)


class TestLines:
    def test_bare_path_and_json_lines(self, deployment, tmp_path, rng):
        trace = rng.integers(0, 50, size=800)
        path = tmp_path / "t.reprotrc"
        write_trace(path, trace)
        with raw_connection(deployment) as (sock, rfile):
            sock.sendall(str(path).encode() + b"\n" + json.dumps(
                {"trace": [1, 2, 1, 2], "id": "j", "sizes": [2]}
            ).encode() + b"\n")
            replies = {r["id"]: r for r in read_lines(rfile, 2)}
        assert replies[None]["ok"] is True
        assert replies[None]["total_accesses"] == 800
        assert replies[None]["max_size"] == iaf_hit_rate_curve(
            trace).max_size
        assert replies["j"]["hit_rates"]["2"] == 0.5

    def test_invalid_utf8_line_gets_a_protocol_error(self, deployment):
        with raw_connection(deployment) as (sock, rfile):
            sock.sendall(b"\xff\xfe bad \x80\n" + json.dumps(
                {"trace": [5, 5], "id": "after", "sizes": [1]}
            ).encode() + b"\n")
            replies = {r["id"]: r for r in read_lines(rfile, 2)}
        assert replies[None]["error"] == "ProtocolError"
        assert "not valid UTF-8" in replies[None]["message"]
        assert replies["after"]["hit_rates"]["1"] == 0.5
        errors = ("ring.protocol_errors" if deployment.kind == "ring"
                  else "service.protocol_errors")
        assert deployment.metrics()[errors] == 1

    def test_over_long_line_gets_a_protocol_error_and_closes(
            self, deployment, monkeypatch):
        monkeypatch.setattr(server_mod, "MAX_LINE_LEN", 64)
        with raw_connection(deployment) as (sock, rfile):
            sock.sendall(json.dumps({"trace": list(range(100))}).encode()
                         + b"\n")
            reply = json.loads(rfile.readline())
            assert rfile.readline() == b""
        assert reply["error"] == "ProtocolError"
        assert "longer than 64 bytes" in reply["message"]


class TestRequests:
    @pytest.mark.parametrize("prefer_binary", [False, True])
    def test_unknown_fields_rejected(self, deployment, prefer_binary):
        with CurveClient(*deployment.address,
                         prefer_binary=prefer_binary) as client:
            solve = client._roundtrip(
                {"id": "s", "trace": [1], "bogus": 1}, None, False)
            register = client._roundtrip(
                {"op": "register", "id": "r", "tenant": "t",
                 "shoe_size": 9}, None, False)
        assert solve["ok"] is False and "bogus" in solve["message"]
        assert register["ok"] is False
        assert "shoe_size" in register["message"]

    @pytest.mark.parametrize("dtype", [np.int32, np.int64])
    def test_v2_solve_payload_matches_direct(self, deployment, rng, dtype):
        trace = rng.integers(0, 100, size=2000).astype(dtype)
        with CurveClient(*deployment.address) as client:
            assert client.binary
            reply = client.solve(trace, sizes=[8, 32])
        direct = iaf_hit_rate_curve(trace.astype(np.int64))
        assert reply["total_accesses"] == 2000
        assert reply["hit_rates"] == {"8": direct.hit_rate(8),
                                      "32": direct.hit_rate(32)}

    def test_process_iaf_is_chosen_per_request(self, deployment, rng):
        trace = rng.integers(0, 500, size=5000).astype(np.int64)
        try:
            with CurveClient(*deployment.address) as client:
                reply = client.solve(trace, sizes=[8, 64],
                                     algorithm="process-iaf", workers=2)
        finally:
            shutdown_default_executor()
        direct = iaf_hit_rate_curve(trace)
        assert reply["algorithm"] == "process-iaf"
        assert reply["hit_rates"] == {"8": direct.hit_rate(8),
                                      "64": direct.hit_rate(64)}

    def test_bad_magic_answered_once_then_closed(self, deployment):
        good = frames.encode_frame(frames.FRAME_REQUEST,
                                   {"id": "ok", "trace": [1, 2]})
        with raw_connection(deployment) as (sock, rfile):
            upgrade(sock, rfile)
            sock.sendall(good + b"GARBAGEGARBAGEGARBAGE")
            replies = []
            while True:
                got = frames.read_frame(rfile)
                if got is None:
                    break
                replies.append(got[1])
        by_id = {r["id"]: r for r in replies}
        assert len(replies) == 2
        assert by_id["ok"]["ok"] is True
        assert by_id[None]["error"] == "ProtocolError"
        assert "magic" in by_id[None]["message"]

    @pytest.mark.parametrize("prefer_binary", [False, True])
    def test_pipelined_tenant_script_runs_in_order(self, deployment, rng,
                                                   prefer_binary):
        """register → push → curve → evict, all sent before any reply."""
        trace = rng.integers(0, 300, size=1500).astype(np.int64)
        direct = iaf_hit_rate_curve(trace)
        sizes = [16, 128]
        with CurveClient(*deployment.address,
                         prefer_binary=prefer_binary) as client:
            for round_ in range(20):
                tenant = f"script{round_}"
                client._send({"op": "register", "id": "r",
                              "tenant": tenant})
                client._send({"op": "push", "id": "p", "tenant": tenant},
                             trace)
                client._send({"op": "curve", "id": "c", "tenant": tenant,
                              "sizes": sizes})
                client._send({"op": "evict", "id": "e", "tenant": tenant})
                replies = {}
                for _ in range(4):
                    reply = client._recv()
                    replies[reply["id"]] = reply
                assert replies["r"]["ok"] is True, round_
                assert replies["p"]["ingested"] == trace.size, round_
                assert replies["c"]["total_accesses"] == trace.size, round_
                assert replies["c"]["hit_rates"] == {
                    str(k): direct.hit_rate(k) for k in sizes}, round_
                assert replies["e"]["evicted"] is True, round_

    def test_bulk_pushes_keep_their_bytes(self, deployment):
        """Six 80 000-byte pushes, each under one chunk, then one curve.

        The tenant's chunked engine keeps the pending accesses of every
        push until its chunk fills, past each push's reply, so every
        payload must own its bytes.
        """
        rng = np.random.default_rng(3)
        pushes = [rng.integers(0, 4096, size=10_000).astype(np.int64)
                  for _ in range(6)]
        sizes = [16, 256, 1024, 4096]
        with CurveClient(*deployment.address) as client:
            assert client.binary
            client.register("bulk")
            for trace in pushes:
                assert client.push("bulk", trace)["ingested"] == 10_000
            reply = client.curve("bulk", sizes=sizes)
        direct = solve(np.concatenate(pushes)).curve
        assert reply["total_accesses"] == 60_000
        assert reply["hit_rates"] == {str(k): direct.hit_rate(k)
                                      for k in sizes}

    def test_over_cap_reply_is_a_typed_error(self, deployment):
        """A curve reply over the 1 MiB frame-header cap answers with an
        error naming the cap; the ring must not read it as a dead shard
        and re-home the tenant empty."""
        rng = np.random.default_rng(7)
        trace = rng.integers(0, 70_000, size=200_000).astype(np.int64)
        with CurveClient(*deployment.address) as client:
            client.register("big")
            assert client.push("big", trace)["ingested"] == trace.size
            before = deployment.metrics().get("ring.shard_failures", 0)
            reply = client.curve("big", sizes=range(1, 70_001),
                                 check=False)
            after = deployment.metrics().get("ring.shard_failures", 0)
            small = client.curve("big", sizes=[64, 4096])
        assert reply["ok"] is False
        assert reply["error"] == "FrameTooLargeError"
        assert str(frames.MAX_HEADER_LEN) in reply["message"]
        assert "rerouted" not in reply
        assert after == before
        assert small["total_accesses"] == trace.size
        assert "rerouted" not in small


class TestLatency:
    def test_replies_do_not_wait_for_delayed_acks(self, deployment):
        """With Nagle on at either end, each reply waited ~40 ms for the
        peer's delayed ACK; a 16 KB push (larger than the client's write
        buffer) did too."""
        trace = np.arange(2000, dtype=np.int64) % 500

        def timed(call):
            start = time.perf_counter()
            call()
            return time.perf_counter() - start

        with CurveClient(*deployment.address) as client:
            assert client.binary
            client.register("lat")
            hellos = [timed(client.hello) for _ in range(40)]
            pushes = [timed(lambda: client.push("lat", trace))
                      for _ in range(40)]
        assert statistics.median(hellos) < 0.010
        assert statistics.median(pushes) < 0.010
