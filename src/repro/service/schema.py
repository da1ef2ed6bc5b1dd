"""The wire-request schema, declared once and shared by every surface.

Two things speak the solve/tenant request vocabulary: the server's
request parser (:func:`repro.service.server.parse_request_obj`, fed by
the JSON line and the binary frame decoders alike) and the public client
(:class:`repro.client.CurveClient`).  Before this module each kept its
own field list, so adding a knob to one surface silently orphaned the
others (``chunk_size`` was reachable from the CLI but not from the wire
protocol).  Now the tables below are the *only* definition:

* :data:`CONFIG_FIELDS` — request fields copied verbatim into
  :meth:`~repro.core.config.SolveConfig.replace` (``dtype`` is special:
  the wire carries a string, validated via :data:`DTYPES`).
* :data:`REQUEST_FIELDS` — every field a solve request may carry;
  anything else is rejected (typo protection).
* :data:`TENANT_OP_FIELDS` — per-op field sets for the multi-tenant
  verbs (docs/TENANTS.md).
* :data:`HELLO_FIELDS` / :func:`hello_payload` — the version handshake:
  the server advertises protocol versions, algorithms, engine backends,
  and backend availability; clients use it to pick binary vs JSON
  transport (``upgrade``) before shipping bulk traces.

The protocol itself is versioned: v1 is the JSON line protocol (one
request per line, one JSON response per line — always supported), v2 is
the binary framed protocol (:mod:`repro.service.frames`) negotiated via
``{"op": "hello", "upgrade": true}`` on transports that support it.
"""

from __future__ import annotations

from typing import Any, Dict, FrozenSet, Optional, Tuple

import numpy as np

#: Protocol versions this build speaks.  1 = JSON lines, 2 = binary
#: frames (:mod:`repro.service.frames`).
PROTOCOL_V1 = 1
PROTOCOL_V2 = 2
PROTOCOL_VERSIONS: Tuple[int, ...] = (PROTOCOL_V1, PROTOCOL_V2)

#: Wire dtype vocabulary (JSON ``dtype`` field and binary dtype codes).
DTYPES: Dict[str, Any] = {"int32": np.int32, "int64": np.int64}

#: Solve-request fields forwarded verbatim into ``SolveConfig.replace``.
#: ``SolveConfig.__post_init__`` owns their validation, so a new config
#: knob added here is automatically range-checked on every surface.
CONFIG_FIELDS: Tuple[str, ...] = (
    "algorithm",
    "max_cache_size",
    "workers",
    "engine_backend",
    "chunk_size",
)

#: Solve-request fields with bespoke handling (not SolveConfig knobs).
SPECIAL_FIELDS: Tuple[str, ...] = ("trace", "id", "dtype", "deadline", "sizes")

#: The complete solve-request vocabulary; anything else is rejected.
REQUEST_FIELDS: FrozenSet[str] = frozenset(CONFIG_FIELDS + SPECIAL_FIELDS)

#: Tenant-verb fields, per op; anything else is rejected like above.
TENANT_OP_FIELDS: Dict[str, FrozenSet[str]] = {
    "register": frozenset(
        ("op", "id", "tenant", "tier", "sample_rate", "sample_seed",
         "max_cache_size", "chunk_size", "memory_budget")
    ),
    "push": frozenset(("op", "id", "tenant", "trace", "deadline")),
    "curve": frozenset(("op", "id", "tenant", "sizes", "deadline")),
    "evict": frozenset(("op", "id", "tenant")),
    "tenants": frozenset(("op", "id")),
}

#: The handshake verb (protocol-level, available with or without
#: ``--tenants``).  ``protocol`` is the highest version the client
#: speaks; ``upgrade`` asks the server to switch this connection to the
#: binary framing right after the hello response.
HELLO_OP = "hello"
HELLO_FIELDS: FrozenSet[str] = frozenset(("op", "id", "protocol", "upgrade"))


def hello_payload(
    req_id: Optional[str] = None,
    *,
    tenants_enabled: bool = False,
    binary_ok: bool = True,
    server: str = "curve",
    shards: Optional[int] = None,
) -> Dict[str, Any]:
    """The server's advertisement for one ``hello`` request.

    ``binary_ok`` is per-transport: stdin pipes cannot re-frame, so they
    advertise v1 only.  ``server`` names the answering tier (``"curve"``
    for one service, ``"ring"`` for the cluster frontend, which also
    reports its ``shards`` count).
    """
    from ..core.config import ALGORITHMS
    from ..core.engine import ENGINE_BACKENDS
    from ..core import compiled as compiled_kernels

    payload: Dict[str, Any] = {
        "id": req_id,
        "ok": True,
        "op": HELLO_OP,
        "server": server,
        "protocols": (
            list(PROTOCOL_VERSIONS) if binary_ok else [PROTOCOL_V1]
        ),
        "algorithms": list(ALGORITHMS),
        "engine_backends": list(ENGINE_BACKENDS),
        "compiled_available": bool(compiled_kernels.is_available()),
        "tenants": bool(tenants_enabled),
        "fields": sorted(REQUEST_FIELDS),
    }
    if shards is not None:
        payload["shards"] = int(shards)
    return payload


def validate_fields(
    obj: Dict[str, Any], allowed: FrozenSet[str], what: str
) -> None:
    """Reject unknown fields with the full allowed vocabulary named."""
    from ..errors import ReproError

    unknown = set(obj) - allowed
    if unknown:
        raise ReproError(
            f"unknown {what} field(s) {sorted(unknown)}; "
            f"allowed: {sorted(allowed)}"
        )


__all__ = [
    "CONFIG_FIELDS",
    "DTYPES",
    "HELLO_FIELDS",
    "HELLO_OP",
    "PROTOCOL_V1",
    "PROTOCOL_V2",
    "PROTOCOL_VERSIONS",
    "REQUEST_FIELDS",
    "SPECIAL_FIELDS",
    "TENANT_OP_FIELDS",
    "hello_payload",
    "validate_fields",
]
