"""repro.cluster — consistent-hash scale-out for the curve service.

"Every cache, everywhere, all of the time" at fleet scale: N
``repro serve`` shard processes behind one frontend.  The frontend is
the same threaded :class:`~repro.service.server.CurveServer` a single
node runs, with :class:`ClusterFrontend` as its backend: it routes by
consistent hash (:mod:`repro.cluster.ring`), fails over with bounded
retry when a shard dies, degrades to flagged closed-form approximate
answers (:mod:`repro.cluster.approx`) when nothing is live, and heals
via hello heartbeats.  Clients connect with
:class:`repro.client.CurveClient` exactly as they would to a single
server — the v1 JSON line protocol and the hello-negotiated v2 binary
framed protocol both pass through.

Entry points: :func:`spawn_ring` (and ``repro serve --cluster N``)
for the whole ring in one call; ``CurveServer(address,
ClusterFrontend(shards))`` to route across externally managed shards.
See docs/CLUSTER.md.
"""

from .approx import degraded_solve_payload, fagin_curve
from .frontend import ClusterFrontend
from .ring import HashRing
from .spawn import ClusterHandle, ShardProcess, spawn_ring

__all__ = [
    "ClusterFrontend",
    "ClusterHandle",
    "HashRing",
    "ShardProcess",
    "degraded_solve_payload",
    "fagin_curve",
    "spawn_ring",
]
