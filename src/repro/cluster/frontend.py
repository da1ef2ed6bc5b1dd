"""The ring backend: one address, N curve shards behind it.

A ring is the same threaded :class:`~repro.service.server.CurveServer`
as a single node, with a :class:`ClusterFrontend` as its backend in
place of the local service.  Clients therefore see the same hello
handshake, v1 JSON lines and v2 binary frames; the hello says
``"server": "ring"`` and gives the shard count.  The frontend routes
each request to a shard by consistent hash
(:class:`~repro.cluster.ring.HashRing`) and forwards it over a small
pool of exclusive-checkout :class:`~repro.client.CurveClient`
connections per shard, always on binary frames (one outstanding request
per connection, so the next reply on it *is* that request's).

Tenant verbs are forwarded on the client connection's own thread, so a
shard sees one stream's tenant requests in the stream's order.  Solves
go to a forwarding pool, so a pipelined window of solves reaches the
shards together and still coalesces there.  ``{"op": "tenants"}`` goes
to every live shard and answers with the union of their listings.

Fail-over ladder, in order:

1. **Re-route** — a connect/forward failure marks the shard down and
   retries the next distinct live shard in ring order (bounded by the
   ring size).  Tenant requests re-play the tenant's ``register`` on
   the new shard first, so pushes keep landing (the re-homed tenant
   restarts cold; responses carry ``"rerouted": true`` to say so).
2. **Degrade** — with no live shard left, solves are still answered
   locally with the closed-form Fagin/working-set LRU approximation
   (:mod:`repro.cluster.approx`), flagged ``"degraded": true``; tenant
   verbs (which need shard state) degrade to a flagged error.
3. **Recover** — a heartbeat thread keeps probing every shard with the
   hello handshake and marks down ones live again on success, restoring
   their exact key ranges.

Every response gains a ``"shard"`` field naming who answered (or
``null`` when degraded) so clients and soaks can audit placement; in
the ring-wide tenants listing each row carries its own ``"shard"``.
"""

from __future__ import annotations

import itertools
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from ..client import CurveClient
from ..errors import ProtocolError
from ..obs import Counters
from ..service import frames, schema
from .approx import degraded_solve_payload
from .ring import HashRing

#: Idle pooled connections kept per shard.
_POOL_SIZE = 4
_CONNECT_TIMEOUT = 3.0
_HELLO_TIMEOUT = 5.0
#: Solves forwarded at once, across every client connection: one
#: default-size pipelined window (``max_batch``).
_FORWARD_THREADS = 32


class _ShardClient(CurveClient):
    """One pooled frontend → shard connection, on binary frames.

    Connecting may take 3 s and the hello 5 s.  Forwards then wait as
    long as the shard takes: a timed-out push that is re-sent would be
    applied twice.
    """

    def __init__(self, host: str, port: int) -> None:
        super().__init__(host, port, timeout=_CONNECT_TIMEOUT)

    def _handshake(self, prefer_binary: bool) -> None:
        self._sock.settimeout(_HELLO_TIMEOUT)
        super()._handshake(prefer_binary)
        if not self.binary:
            raise ProtocolError(
                f"shard at {self._address[0]}:{self._address[1]} refused "
                f"the binary upgrade"
            )
        self._sock.settimeout(None)

    def forward(self, header: Dict[str, Any],
                payload: Optional[np.ndarray]) -> Dict[str, Any]:
        """Send one request frame as received; returns the reply."""
        frames.write_frame(
            self._wfile, frames.FRAME_REQUEST, header,
            b"" if payload is None else payload,
            frames.payload_code(payload),
        )
        return self._recv()

    def probe(self) -> None:
        """One hello round trip within the hello timeout.

        The probe carries no id, so it never shares one with a client
        request the shard is serving.
        """
        self._sock.settimeout(_HELLO_TIMEOUT)
        self._send({"op": schema.HELLO_OP})
        self._recv()
        self._sock.settimeout(None)


class _ShardPool:
    """Exclusive-checkout connections to one shard."""

    def __init__(self, host: str, port: int) -> None:
        self.host = host
        self.port = port
        self._free: List[_ShardClient] = []
        self._lock = threading.Lock()

    def acquire(self) -> _ShardClient:
        with self._lock:
            if self._free:
                return self._free.pop()
        return _ShardClient(self.host, self.port)

    def release(self, client: _ShardClient) -> None:
        with self._lock:
            if len(self._free) < _POOL_SIZE:
                self._free.append(client)
                return
        client.close()

    def discard_all(self) -> None:
        with self._lock:
            free, self._free = self._free, []
        for client in free:
            client.close()


class ClusterFrontend:
    """Route curve requests across shards with health-checked fail-over.

    ``shards`` maps shard name to ``(host, port)`` of a running
    ``repro serve --tenants`` process.  Serve the ring with
    ``CurveServer((host, port), frontend)``
    (:class:`~repro.service.server.CurveServer`);
    :func:`~repro.cluster.spawn_ring` does both.  :meth:`close` stops
    the heartbeat and drops the pooled connections.
    """

    def __init__(
        self,
        shards: Dict[str, Tuple[str, int]],
        *,
        replicas: int = 64,
        heartbeat_interval: float = 0.5,
    ) -> None:
        if not shards:
            raise ValueError("cluster needs at least one shard")
        self._shards = dict(shards)
        self._ring = HashRing(sorted(self._shards), replicas=replicas)
        self._pools = {
            name: _ShardPool(h, p) for name, (h, p) in self._shards.items()
        }
        self._lock = threading.Lock()
        self.counters = Counters()
        self._route_seq = itertools.count(1)
        # Tenant fail-over state: the last successful register header
        # per tenant (replayed on a new shard) and current placement.
        self._registered: Dict[str, Dict[str, Any]] = {}
        self._placed: Dict[str, str] = {}
        self._forwarders = ThreadPoolExecutor(
            max_workers=_FORWARD_THREADS, thread_name_prefix="ring-forward"
        )
        self._stopping = threading.Event()
        self._heartbeat = threading.Thread(
            target=self._heartbeat_loop, args=(heartbeat_interval,),
            name="ring-heartbeat", daemon=True,
        )
        self._heartbeat.start()

    # -- backend of CurveServer ------------------------------------------

    def hello(self, req_id: Any, *, binary_ok: bool) -> Dict[str, Any]:
        return schema.hello_payload(
            req_id, tenants_enabled=True, binary_ok=binary_ok,
            server="ring", shards=len(self._shards),
        )

    def submit(self, header: Dict[str, Any],
               payload: Optional[np.ndarray]) -> Any:
        if header.get("op") == "tenants":
            return self._list_tenants(header)
        if "op" in header:
            # On the connection's thread: the shard then receives this
            # stream's tenant verbs in the stream's order.
            return self._route(header, payload)
        future = self._forwarders.submit(self._route, header, payload)
        return future, _as_is

    def record_protocol_error(self) -> None:
        self._count("ring.protocol_errors")

    # -- routing ---------------------------------------------------------

    def _count(self, name: str) -> None:
        with self._lock:
            self.counters.add(name)

    def _routing_key(self, header: Dict[str, Any]) -> str:
        tenant = header.get("tenant")
        if isinstance(tenant, str) and tenant:
            return f"tenant:{tenant}"
        req_id = header.get("id")
        if isinstance(req_id, str) and req_id:
            return f"req:{req_id}"
        return f"seq:{next(self._route_seq)}"

    def _forward_once(
        self, shard: str, header: Dict[str, Any],
        payload: Optional[np.ndarray],
    ) -> Dict[str, Any]:
        pool = self._pools[shard]
        client = pool.acquire()
        try:
            reply = client.forward(header, payload)
        except BaseException:
            client.close()
            raise
        pool.release(client)
        return reply

    def _shard_failed(self, shard: str) -> None:
        """A forward to ``shard`` failed: route around it from now on."""
        self._ring.mark_down(shard)
        self._pools[shard].discard_all()
        self._count("ring.shard_failures")

    def _replay_register(self, tenant: str, shard: str) -> None:
        """Re-home a tenant: replay its register on the new shard."""
        reg = self._registered.get(tenant)
        if reg is None:
            return
        try:
            self._forward_once(shard, reg, None)
            self._count("ring.register_replays")
        except (OSError, ProtocolError):
            # The forward itself will hit the same wall and re-route.
            pass

    def _note_tenant(self, header: Dict[str, Any], shard: str) -> None:
        tenant = header.get("tenant")
        if not isinstance(tenant, str) or not tenant:
            return
        if header.get("op") == "register":
            self._registered[tenant] = dict(header)
        elif header.get("op") == "evict":
            self._registered.pop(tenant, None)
        self._placed[tenant] = shard

    def _route(
        self, header: Dict[str, Any], payload: Optional[np.ndarray],
    ) -> Dict[str, Any]:
        """Forward with ring fail-over; degrade when nothing is live.

        A reply the shard could not fit in a frame comes back as its
        own ``ok: false`` answer, and a request too large to forward
        raises before any byte is sent: neither is a shard failure.
        """
        self._count("ring.requests")
        key = self._routing_key(header)
        primary = self._ring.primary(key)
        tenant = header.get("tenant")
        op = header.get("op")
        for shard in self._ring.successors(key):
            if isinstance(tenant, str) and op != "register" and \
                    self._placed.get(tenant) != shard:
                self._replay_register(tenant, shard)
            try:
                response = self._forward_once(shard, header, payload)
            except (OSError, ProtocolError):
                self._shard_failed(shard)
                continue
            self._note_tenant(header, shard)
            response["shard"] = shard
            if shard != primary:
                response["rerouted"] = True
                self._count("ring.reroutes")
            return response
        return self._degrade(header, payload)

    def _list_tenants(self, header: Dict[str, Any]) -> Dict[str, Any]:
        """Every live shard's tenants, each row tagged with its shard.

        A shard whose forward fails is marked down and left out; with no
        shard answering, the flagged tenant-verb error of
        :meth:`_degrade` stands.
        """
        self._count("ring.requests")
        rows: List[Dict[str, Any]] = []
        reply: Optional[Dict[str, Any]] = None
        for shard in self._ring.live_nodes:
            try:
                response = self._forward_once(shard, header, None)
            except (OSError, ProtocolError):
                self._shard_failed(shard)
                continue
            if not response.get("ok"):
                response["shard"] = shard
                return response
            rows.extend(dict(row, shard=shard)
                        for row in response.get("tenants", ()))
            reply = response
        if reply is None:
            return self._degrade(header, None)
        reply["tenants"] = sorted(rows, key=lambda row: row["tenant"])
        return reply

    def _degrade(self, header: Dict[str, Any],
                 payload: Optional[np.ndarray]) -> Dict[str, Any]:
        """Every shard is down: flagged approximate answer or error."""
        self._count("ring.degraded")
        req_id = header.get("id")
        if not isinstance(req_id, str):
            req_id = None
        if header.get("op") is not None:
            return {
                "id": req_id, "ok": False, "degraded": True,
                "shard": None, "error": "ServiceUnavailable",
                "message": "every shard is down; tenant state is "
                           "shard-resident and cannot be approximated",
            }
        trace = payload
        if trace is None and isinstance(header.get("trace"), list):
            trace = np.asarray(header["trace"], dtype=np.int64)
        reply = degraded_solve_payload(
            req_id, trace, header.get("sizes") or [],
            reason="every shard is down",
        )
        reply["shard"] = None
        return reply

    def _heartbeat_loop(self, interval: float) -> None:
        """Probe every shard; revive down ones, fell unresponsive ones."""
        while not self._stopping.wait(interval):
            for name, pool in self._pools.items():
                try:
                    client = pool.acquire()
                    try:
                        client.probe()
                    except BaseException:
                        client.close()
                        raise
                except (OSError, ProtocolError):
                    if not self._ring.is_down(name):
                        self._ring.mark_down(name)
                        pool.discard_all()
                    self._count("ring.heartbeat_failures")
                    continue
                pool.release(client)
                if self._ring.is_down(name):
                    self._ring.mark_up(name)
                    self._count("ring.recoveries")

    # -- lifecycle -------------------------------------------------------

    def close(self) -> None:
        """Stop the heartbeat and forwarding; drop pooled connections."""
        self._stopping.set()
        self._heartbeat.join(timeout=10.0)
        self._forwarders.shutdown(wait=False, cancel_futures=True)
        for pool in self._pools.values():
            pool.discard_all()

    def metrics(self) -> Dict[str, float]:
        with self._lock:
            out = dict(self.counters.snapshot())
        out["ring.live_shards"] = float(len(self._ring.live_nodes))
        return out


def _as_is(reply: Dict[str, Any]) -> Dict[str, Any]:
    return reply


__all__ = ["ClusterFrontend"]
