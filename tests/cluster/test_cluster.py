"""Ring end-to-end: differential vs direct, fail-over, degradation.

Two harnesses:

* :func:`in_process_ring` — shards are in-process ``serve_tcp`` servers
  under one ``CurveServer`` with a ``ClusterFrontend`` backend.  Cheap,
  used for the 25-seed differential and tenant routing.
* ``spawn_ring`` — real shard subprocesses, used for the shard-kill
  drills: an in-process ``ThreadingTCPServer.shutdown()`` never severs
  the frontend's pooled connections, so only a SIGKILL'd process
  exercises the fail-over path honestly.
"""

import contextlib
import gc
import threading
import time
import warnings

import numpy as np
import pytest

from repro.client import CurveClient
from repro.cluster import ClusterFrontend, fagin_curve, spawn_ring
from repro.core.engine import iaf_hit_rate_curve
from repro.errors import RemoteError, ReproError
from repro.service import CurveService, serve_tcp
from repro.service.server import CurveServer
from repro.tenants import TenantService


def _serve_in_thread(stack, server):
    stack.callback(server.server_close)
    stack.callback(server.shutdown)
    # A short poll keeps shutdown() (one poll at most) cheap in teardown.
    threading.Thread(target=server.serve_forever, args=(0.05,),
                     daemon=True).start()
    return server.server_address[:2]


@contextlib.contextmanager
def in_process_ring(n, *, heartbeat_interval=5.0, frontend_out=None):
    """``n`` in-process TCP shards under one routing frontend.

    Yields the frontend's address; ``frontend_out`` (a list) receives
    the :class:`ClusterFrontend` for tests that read its metrics.
    """
    with contextlib.ExitStack() as stack:
        shards = {}
        for i in range(n):
            svc = stack.enter_context(CurveService(workers=1))
            shards[f"shard{i}"] = _serve_in_thread(stack, serve_tcp(
                svc, "127.0.0.1", 0, tenants=TenantService(svc)
            ))
        frontend = ClusterFrontend(shards,
                                   heartbeat_interval=heartbeat_interval)
        stack.callback(frontend.close)
        if frontend_out is not None:
            frontend_out.append(frontend)
        yield _serve_in_thread(
            stack, CurveServer(("127.0.0.1", 0), frontend)
        )


class TestRingDifferential:
    def test_25_seeds_bit_identical_both_transports(self):
        """Ring answers must be *bit-identical* to the direct engine.

        float64 survives JSON round-trips exactly, so this is ``==``,
        not approx — any drift through routing, framing, or transport
        re-encode is a bug.
        """
        sizes = [1, 8, 64, 256]
        with in_process_ring(3) as (host, port):
            with CurveClient(host, port, prefer_binary=False) as cjson, \
                 CurveClient(host, port, prefer_binary=True) as cbin:
                assert cjson.binary is False
                assert cbin.binary is True
                for seed in range(25):
                    rng = np.random.default_rng(seed)
                    trace = rng.integers(
                        0, 200, size=2000).astype(np.int64)
                    direct = iaf_hit_rate_curve(trace)
                    via_json = cjson.solve(trace, sizes=sizes)
                    via_bin = cbin.solve(trace, sizes=sizes)
                    for resp in (via_json, via_bin):
                        assert resp["ok"] is True
                        assert not resp.get("degraded")
                        assert resp["total_accesses"] == 2000
                        for s in sizes:
                            assert resp["hit_rates"][str(s)] == \
                                direct.hit_rate(s), (seed, s)
                    assert via_json["hit_rates"] == via_bin["hit_rates"]

    def test_solve_batch_through_the_ring(self, rng):
        traces = [rng.integers(0, 50, size=300).astype(np.int64)
                  for _ in range(6)]
        with in_process_ring(2) as (host, port):
            with CurveClient(host, port) as client:
                responses = client.solve_batch(traces, sizes=[16])
        for trace, resp in zip(traces, responses):
            direct = iaf_hit_rate_curve(trace)
            assert resp["hit_rates"]["16"] == direct.hit_rate(16)

    def test_tenant_sticks_to_one_shard(self, rng):
        trace = rng.integers(0, 40, size=800).astype(np.int64)
        with in_process_ring(3) as (host, port):
            with CurveClient(host, port) as client:
                client.register("acme")
                shards = set()
                for _ in range(4):
                    resp = client.push("acme", trace)
                    assert resp["ingested"] == 800
                    shards.add(resp["shard"])
                curve = client.curve("acme", sizes=[8])
                shards.add(curve["shard"])
        # Consistent hashing on the tenant key: one home shard, always.
        assert len(shards) == 1
        direct = iaf_hit_rate_curve(
            np.concatenate([trace] * 4))
        assert curve["hit_rates"]["8"] == direct.hit_rate(8)

    def test_tenants_lists_every_shard(self):
        names = [f"t{i}" for i in range(8)]
        with in_process_ring(2) as (host, port):
            with CurveClient(host, port) as client:
                homes = {name: client.register(name)["shard"]
                         for name in names}
                listing = client.tenants()
        rows = listing["tenants"]
        assert [row["tenant"] for row in rows] == names
        assert {row["tenant"]: row["shard"] for row in rows} == homes
        assert len(set(homes.values())) == 2

    def test_requests_spread_across_shards(self, rng):
        with in_process_ring(3) as (host, port):
            with CurveClient(host, port) as client:
                shards = {
                    client.solve(rng.integers(0, 20, size=50),
                                 sizes=[4])["shard"]
                    for _ in range(30)
                }
        assert len(shards) > 1


class TestShardKill:
    def test_failover_loses_no_accepted_request(self, rng):
        trace = rng.integers(0, 100, size=2000).astype(np.int64)
        with spawn_ring(3, heartbeat_interval=10.0) as cluster:
            host, port = cluster.address
            with CurveClient(host, port) as client:
                client.register("t0")
                first = client.push("t0", trace)
                assert first["ingested"] == 2000
                home = first["shard"]

                index = next(i for i, s in enumerate(cluster.shards)
                             if s.name == home)
                cluster.kill_shard(index)

                # The very next push must land: re-routed to a live
                # successor with the registration replayed — never
                # dropped, never erroring back to the caller.
                second = client.push("t0", trace)
                assert second["ingested"] == 2000
                assert second["shard"] != home
                assert second["rerouted"] is True

                # The tenant restarted cold on its new home, so the
                # curve reflects exactly the re-pushed accesses.
                curve = client.curve("t0", sizes=[32])
                direct = iaf_hit_rate_curve(trace)
                assert curve["hit_rates"]["32"] == direct.hit_rate(32)

                # Plain solves keep flowing at full fidelity.
                for _ in range(6):
                    resp = client.solve([1, 2, 1, 3, 2], sizes=[2])
                    assert resp["ok"] is True
                    assert not resp.get("degraded")

            metrics = cluster.metrics()
            assert metrics["ring.reroutes"] >= 1
            assert metrics["ring.register_replays"] >= 1
            assert metrics["ring.live_shards"] == 2.0

    def test_all_shards_down_degrades_with_flag(self, rng):
        trace = rng.integers(0, 256, size=3000).astype(np.int64)
        sizes = [16, 64, 256]
        with spawn_ring(2, heartbeat_interval=10.0) as cluster:
            host, port = cluster.address
            with CurveClient(host, port) as client:
                warm = client.solve(trace, sizes=sizes)
                assert not warm.get("degraded")

                cluster.kill_shard(0)
                cluster.kill_shard(1)

                resp = client.solve(trace, sizes=sizes)
                # Honest answer: flagged approximate, never silent.
                assert resp["ok"] is True
                assert resp["degraded"] is True
                assert resp["approximate"] is True
                assert resp["method"] == "fagin-working-set"
                expected = fagin_curve(trace, sizes)
                assert resp["hit_rates"] == expected

                # Tenant verbs can't be approximated: flagged error.
                with pytest.raises(RemoteError, match="ServiceUnavailable"):
                    client.register("late")
                raw = client.register("late2", check=False)
                assert raw["ok"] is False
                assert raw["degraded"] is True

            assert cluster.metrics()["ring.degraded"] >= 2

    def test_tenants_listing_skips_a_killed_shard(self):
        with spawn_ring(2, heartbeat_interval=10.0) as cluster:
            with CurveClient(*cluster.address) as client:
                homes = {f"t{i}": client.register(f"t{i}")["shard"]
                         for i in range(8)}
                dead = cluster.shards[0].name
                cluster.kill_shard(0)
                rows = client.tenants()["tenants"]
                metrics = cluster.metrics()
                cluster.kill_shard(1)
                gone = client.tenants(check=False)
        assert {row["tenant"]: row["shard"] for row in rows} == {
            name: shard for name, shard in homes.items() if shard != dead}
        assert metrics["ring.shard_failures"] >= 1
        assert metrics["ring.live_shards"] == 1.0
        assert gone["ok"] is False
        assert gone["degraded"] is True
        assert gone["error"] == "ServiceUnavailable"


class TestSpawnSmoke:
    def test_single_shard_ring_round_trip(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            with spawn_ring(1) as cluster:
                with CurveClient(*cluster.address) as client:
                    info = client.server_info
                    assert info["ok"] is True
                    resp = client.solve([1, 2, 1], sizes=[1, 2])
                    assert resp["total_accesses"] == 3
                assert cluster.metrics()["ring.requests"] >= 1
            # Closing the ring closes every shard's stderr pipe.
            assert all(s.proc.stderr.closed for s in cluster.shards)
            del cluster
            gc.collect()
        leaks = [str(w.message) for w in caught
                 if issubclass(w.category, ResourceWarning)]
        assert not leaks

    def test_a_shard_that_exits_at_start_fails_fast(self):
        """An unknown flag makes the shard exit at once: the ring reports
        it with the shard's own error, not after the 30 s ready wait."""
        start = time.monotonic()
        with pytest.raises(ReproError) as err:
            spawn_ring(1, extra_args=("--no-such-flag",))
        assert time.monotonic() - start < 5.0
        message = str(err.value)
        assert "shard0 exited with code 2" in message
        assert "--no-such-flag" in message
