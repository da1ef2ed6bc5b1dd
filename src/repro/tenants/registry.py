"""Tenant state, tiers, and the registry that polices their budgets.

A tenant's history is a sequence of **segments**: each tier switch
freezes the live engine's curve (exact ints, or a SHARDS-rescaled
estimate) and starts a successor engine seeded with the predecessor's
living-request carry, so reuse distances that span the switch stay
correct *within the successor's stream*.  A query combines every frozen
segment with the live engine's current curve — which makes queries
always answerable, tier switches invisible at the instant they happen,
and one tenant's curve a pure function of its own pushes (the isolation
property the stateful tests enforce).

Tier-switch seeding, precisely:

* **demote (exact → sampled)** — the sampled successor is seeded with
  the sample-*masked* living carry (positions kept, order preserved), so
  a sampled address last touched before the switch still yields an exact
  in-sample reuse distance after it.  The freeze itself is exact.
* **promote (sampled → exact)** — the exact successor is seeded with
  the sampled carry, the only history that survived sampling.  Addresses
  the sample dropped re-enter as cold misses: the post-promotion curve
  is exact *for the stream since the last demotion's sample*, a
  documented approximation (lossless at rate 1.0, and the frozen
  sampled segment keeps its own error bars either way).

Memory is governed at two levels.  A per-tenant ``memory_budget`` caps
one tenant's live state: the tenant demotes itself when its exact
engine outgrows it.  The registry-wide ``memory_budget`` caps the sum:
when total live state exceeds it, the **least-recently-pushed** exact
tenant is demoted, repeatedly, until the total fits or only sampled
tenants remain (the sampled tier is the floor — eviction is always
explicit).  Tenants registered into the exact tier promote back
automatically once they receive ``promote_after`` accesses after a
demotion, provided the budget currently has room.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from .._typing import TraceLike, as_trace, validate_dtype
from ..core.chunked import ChunkedIAF
from ..core.hitrate import HitRateCurve
from ..core.sampling import ApproximateCurve, rescale_curve, sample_mask
from ..errors import ReproError
from ..obs import NULL_SPAN, Counters, get_tracer

EXACT = "exact"
SAMPLED = "sampled"
_TIERS = (EXACT, SAMPLED)

#: Default sampling rate for the sampled tier (SHARDS' canonical 1%).
DEFAULT_SAMPLE_RATE = 0.01
#: Accesses after a demotion before an exact-registered tenant is
#: considered hot again and eligible for automatic promotion.
DEFAULT_PROMOTE_AFTER = 1 << 15


@dataclass(frozen=True)
class _Frozen:
    """One frozen history segment (the curve at a past tier switch)."""

    kind: str  # EXACT or SAMPLED
    hits: np.ndarray  # cumulative hits per size (floats; exact = ints)
    total: int  # real accesses the segment covers
    sampled: int  # accesses that reached the segment's engine

    @property
    def nbytes(self) -> int:
        return int(self.hits.nbytes)


@dataclass(frozen=True)
class TenantCurve:
    """A tenant's queryable curve: every segment plus the live engine.

    ``estimate`` is always present and covers the tenant's entire
    history.  ``exact_curve`` is set **iff** that history is fully exact
    (never demoted, exact tier live) — then it is bit-identical to
    :func:`repro.core.engine.iaf_hit_rate_curve` over the concatenation
    of everything pushed, the ``tenant-exact`` oracle-row guarantee.
    """

    tenant_id: str
    tier: str
    estimate: ApproximateCurve
    exact_curve: Optional[HitRateCurve]
    total_accesses: int
    segments: int

    def hit_rate(self, k: int) -> float:
        return self.estimate.hit_rate(k)


class Tenant:
    """One tenant's live engine, frozen history, and tier bookkeeping.

    Mutated only by the owning :class:`TenantRegistry` under
    ``self._lock``; the public attributes are read-mostly metadata.
    """

    def __init__(
        self,
        tenant_id: str,
        *,
        tier: str,
        sample_rate: float,
        sample_seed: int,
        max_cache_size: Optional[int],
        chunk_size: Optional[int],
        memory_budget: Optional[int],
        dtype: Optional["np.typing.DTypeLike"],
    ) -> None:
        self.tenant_id = tenant_id
        self.registered_tier = tier
        self.tier = tier
        self.sample_rate = float(sample_rate)
        self.sample_seed = int(sample_seed)
        self.max_cache_size = max_cache_size
        self.chunk_size = chunk_size
        self.memory_budget = memory_budget
        #: Address width pushes are read in; ``None`` means int64
        #: addresses with every chunk solve's width certified.
        self.dtype = validate_dtype(dtype)
        self._solve_dtype = None if dtype is None else self.dtype
        self.total_accesses = 0  # every access ever pushed
        self.segment_accesses = 0  # real accesses in the live segment
        self.segment_sampled = 0  # accesses the live engine ingested
        self.accesses_since_tier_change = 0
        self.last_push_ticket = 0
        self.demotions = 0
        self.promotions = 0
        self._segments: List[_Frozen] = []
        self._lock = threading.RLock()
        self.engine = self._new_engine()

    def _new_engine(self) -> ChunkedIAF:
        return ChunkedIAF(
            self.chunk_size,
            max_cache_size=self.max_cache_size,
            dtype=self._solve_dtype,
        )

    @property
    def state_nbytes(self) -> int:
        """Live + frozen state bytes.  Lock-free by design: the budget
        enforcer reads this across tenants without taking their locks
        (a stale read only shifts *when* a demotion lands, never its
        correctness), so it must never acquire ``self._lock``.
        """
        return self.engine.state_nbytes + sum(
            s.nbytes for s in self._segments
        )

    # -- internals (caller holds self._lock) ---------------------------

    def _ingest(self, arr: np.ndarray) -> int:
        """Feed validated accesses into the live tier; returns sampled n."""
        self.total_accesses += int(arr.size)
        self.segment_accesses += int(arr.size)
        self.accesses_since_tier_change += int(arr.size)
        if self.tier == EXACT:
            self.engine.push(arr)
            self.segment_sampled += int(arr.size)
            return int(arr.size)
        sub = arr[sample_mask(arr, self.sample_rate, self.sample_seed)]
        if sub.size:
            self.engine.push(sub)
        self.segment_sampled += int(sub.size)
        return int(sub.size)

    def _live_hits(self) -> Tuple[np.ndarray, int, int]:
        """The live engine's contribution: (cumulative hits, total, sampled)."""
        if self.tier == EXACT:
            curve = self.engine.curve()
            return (
                np.asarray(curve.hits_cumulative, dtype=np.float64),
                self.segment_accesses,
                self.segment_sampled,
            )
        est = rescale_curve(
            self.engine.curve(),
            total_accesses=self.segment_accesses,
            sampled_accesses=self.segment_sampled,
            rate=self.sample_rate,
            max_cache_size=self.max_cache_size,
        )
        return est.hits_estimate, self.segment_accesses, self.segment_sampled

    def _freeze_live(self) -> None:
        """Freeze the live engine's curve as a history segment (reading
        it commits the pending accesses, so the carry covers them)."""
        hits, total, sampled = self._live_hits()
        if total or hits.size:
            self._segments.append(
                _Frozen(kind=self.tier, hits=hits, total=total,
                        sampled=sampled)
            )
        self.segment_accesses = 0
        self.segment_sampled = 0
        self.accesses_since_tier_change = 0

    def _snapshot(self) -> TenantCurve:
        parts = [(s.hits, s.total) for s in self._segments]
        live_hits, live_total, _ = self._live_hits()
        parts.append((live_hits, live_total))
        length = max((h.size for h, _ in parts), default=0)
        combined = np.zeros(length, dtype=np.float64)
        total = 0
        for hits, part_total in parts:
            total += part_total
            if hits.size:
                combined[: hits.size] += hits
                combined[hits.size:] += hits[-1]
        sampled = self.segment_sampled + sum(
            s.sampled for s in self._segments
        )
        estimate = ApproximateCurve(
            hits_estimate=combined,
            total_accesses=total,
            sampled_accesses=int(sampled),
            sample_rate=self.sample_rate if self.tier == SAMPLED else 1.0,
        )
        exact = (self.engine.curve()
                 if not self._segments and self.tier == EXACT else None)
        return TenantCurve(
            tenant_id=self.tenant_id,
            tier=self.tier,
            estimate=estimate,
            exact_curve=exact,
            total_accesses=total,
            segments=len(self._segments),
        )


class TenantRegistry:
    """Registered tenants, their tiers, and the memory-budget policy.

    Thread-safe: the registry lock guards the tenant table, each tenant
    has its own lock for engine operations, and the lock order is
    strictly registry → tenant (never the reverse — budget enforcement
    snapshots the table, releases the registry lock, then takes one
    victim's lock at a time).
    """

    def __init__(
        self,
        *,
        memory_budget: Optional[int] = None,
        promote_after: int = DEFAULT_PROMOTE_AFTER,
        default_sample_rate: float = DEFAULT_SAMPLE_RATE,
        chunk_size: Optional[int] = None,
    ) -> None:
        if memory_budget is not None and memory_budget < 1:
            raise ReproError(
                f"memory_budget must be >= 1 byte, got {memory_budget}"
            )
        if promote_after < 1:
            raise ReproError(
                f"promote_after must be >= 1, got {promote_after}"
            )
        self.memory_budget = memory_budget
        self.promote_after = int(promote_after)
        self.default_sample_rate = float(default_sample_rate)
        self.default_chunk_size = chunk_size
        self._tenants: Dict[str, Tenant] = {}
        self._ticket = 0
        self._lock = threading.RLock()
        self._counter_lock = threading.Lock()
        self.counters = Counters()

    # -- bookkeeping ---------------------------------------------------

    def _count(self, name: str, value: int = 1) -> None:
        with self._counter_lock:
            self.counters.add(name, value)

    def _peak(self, name: str, value: int) -> None:
        with self._counter_lock:
            self.counters.peak(name, value)

    def _get(self, tenant_id: str) -> Tenant:
        with self._lock:
            try:
                return self._tenants[tenant_id]
            except KeyError:
                raise ReproError(
                    f"unknown tenant {tenant_id!r}; register it first"
                ) from None

    def __contains__(self, tenant_id: str) -> bool:
        with self._lock:
            return tenant_id in self._tenants

    def __len__(self) -> int:
        with self._lock:
            return len(self._tenants)

    def tenant_ids(self) -> List[str]:
        with self._lock:
            return sorted(self._tenants)

    @property
    def state_nbytes(self) -> int:
        """Total live+frozen bytes across tenants (budget's measure)."""
        with self._lock:
            tenants = list(self._tenants.values())
        return sum(t.state_nbytes for t in tenants)

    # -- lifecycle -----------------------------------------------------

    def register(
        self,
        tenant_id: str,
        *,
        tier: str = EXACT,
        sample_rate: Optional[float] = None,
        sample_seed: int = 0,
        max_cache_size: Optional[int] = None,
        chunk_size: Optional[int] = None,
        memory_budget: Optional[int] = None,
        dtype: Optional["np.typing.DTypeLike"] = None,
    ) -> Tenant:
        """Create a tenant; its curve is queryable from this point on.

        ``tier="sampled"`` pins the tenant to the sampled tier — it is
        never auto-promoted (though :meth:`promote` still works).
        ``memory_budget`` caps this tenant's own state; the registry
        budget caps the sum across tenants.  ``dtype`` is
        :class:`~repro.core.chunked.ChunkedIAF`'s: ``None`` keeps int64
        addresses and certifies each chunk solve's width.
        """
        if tier not in _TIERS:
            raise ReproError(f"tier must be one of {_TIERS}, got {tier!r}")
        rate = (self.default_sample_rate if sample_rate is None
                else float(sample_rate))
        if not 0.0 < rate <= 1.0:
            raise ReproError(f"sample_rate must be in (0, 1], got {rate}")
        if memory_budget is not None and memory_budget < 1:
            raise ReproError(
                f"memory_budget must be >= 1 byte, got {memory_budget}"
            )
        tenant = Tenant(
            tenant_id,
            tier=tier,
            sample_rate=rate,
            sample_seed=sample_seed,
            max_cache_size=max_cache_size,
            chunk_size=(self.default_chunk_size if chunk_size is None
                        else chunk_size),
            memory_budget=memory_budget,
            dtype=dtype,
        )
        with self._lock:
            if tenant_id in self._tenants:
                raise ReproError(
                    f"tenant {tenant_id!r} is already registered"
                )
            self._tenants[tenant_id] = tenant
            self._peak("tenant.count_peak", len(self._tenants))
        self._count("tenant.registered")
        return tenant

    def evict(self, tenant_id: str) -> bool:
        """Drop a tenant and all its state; False if unknown."""
        with self._lock:
            tenant = self._tenants.pop(tenant_id, None)
        if tenant is None:
            return False
        self._count("tenant.evictions")
        return True

    # -- ingest --------------------------------------------------------

    def push(self, tenant_id: str, accesses: TraceLike) -> Dict[str, object]:
        """Feed accesses to a tenant; returns an ingest receipt.

        The receipt reports the tier that absorbed the batch, how many
        accesses the live engine actually ingested (all of them in the
        exact tier, the hash-sampled subset otherwise), and any tier
        switches the push triggered — its own promotion, or demotions
        of cold tenants squeezed out by the global budget.
        """
        tenant = self._get(tenant_id)
        tracer = get_tracer()
        with self._lock:
            self._ticket += 1
            ticket = self._ticket
        with tenant._lock:
            arr = as_trace(
                np.atleast_1d(np.asarray(accesses)), dtype=tenant.dtype
            )
            span = (
                tracer.span("tenant.push", tenant=tenant_id,
                            n=int(arr.size), tier=tenant.tier)
                if tracer.enabled else NULL_SPAN
            )
            with span:
                sampled = tenant._ingest(arr)
                tenant.last_push_ticket = ticket
                tier = tenant.tier
                self_demoted = self._enforce_tenant_budget(tenant)
        self._count("tenant.pushes")
        self._count("tenant.accesses", int(arr.size))
        self._count("tenant.sampled_accesses", sampled)
        promoted = self._maybe_promote(tenant)
        demoted = self._enforce_budget()
        if self_demoted:
            demoted = [tenant_id] + demoted
        self._peak("tenant.state_bytes_peak", self.state_nbytes)
        return {
            "tenant": tenant_id,
            "accepted": int(arr.size),
            "ingested": sampled,
            "tier": tenant.tier if promoted or self_demoted else tier,
            "promoted": promoted,
            "demoted": demoted,
        }

    # -- queries -------------------------------------------------------

    def curve(self, tenant_id: str) -> TenantCurve:
        """The tenant's current curve over everything it ever pushed."""
        tenant = self._get(tenant_id)
        tracer = get_tracer()
        with tenant._lock:
            span = (
                tracer.span("tenant.curve", tenant=tenant_id,
                            tier=tenant.tier)
                if tracer.enabled else NULL_SPAN
            )
            with span:
                snap = tenant._snapshot()
        self._count("tenant.curve_queries")
        return snap

    def describe(self) -> List[Dict[str, object]]:
        """One status row per tenant (sorted by id)."""
        with self._lock:
            tenants = [self._tenants[t] for t in sorted(self._tenants)]
        rows = []
        for t in tenants:
            with t._lock:
                rows.append({
                    "tenant": t.tenant_id,
                    "tier": t.tier,
                    "total_accesses": t.total_accesses,
                    "state_nbytes": t.state_nbytes,
                    "segments": len(t._segments),
                    "sample_rate": t.sample_rate,
                    "demotions": t.demotions,
                    "promotions": t.promotions,
                })
        return rows

    def metrics(self) -> Dict[str, float]:
        with self._counter_lock:
            out = dict(self.counters.snapshot())
        out["tenant.count"] = float(len(self))
        out["tenant.state_bytes"] = float(self.state_nbytes)
        return out

    # -- tier policy ---------------------------------------------------

    def demote(self, tenant_id: str) -> bool:
        """Move a tenant exact→sampled; False if it already was sampled.

        The exact curve so far is frozen (still exact — only *future*
        accesses are estimated) and the sampled engine starts from the
        sample-masked living carry, so in-sample reuse across the switch
        keeps its exact distance.
        """
        tenant = self._get(tenant_id)
        return self._demote_locked(tenant)

    def _demote_locked(self, tenant: Tenant) -> bool:
        tracer = get_tracer()
        with tenant._lock:
            if tenant.tier != EXACT:
                return False
            span = (
                tracer.span("tenant.demote", tenant=tenant.tenant_id)
                if tracer.enabled else NULL_SPAN
            )
            with span:
                old = tenant.engine
                tenant._freeze_live()
                living = old.living
                last = old.living_last_access
                keep = sample_mask(
                    living, tenant.sample_rate, tenant.sample_seed
                )
                tenant.tier = SAMPLED
                tenant.engine = tenant._new_engine()
                tenant.engine.seed_carry(
                    living[keep], last[keep],
                    processed=old.accesses_processed,
                )
                tenant.demotions += 1
        self._count("tenant.demotions")
        return True

    def promote(self, tenant_id: str) -> bool:
        """Move a tenant sampled→exact; False if it already was exact.

        The sampled estimate so far is frozen and the exact engine is
        seeded with the sampled carry — the only history that survived
        sampling — so the curve is exact for the stream from here on
        (addresses the sample dropped re-enter as cold misses; at
        rate 1.0 the round trip is lossless).
        """
        tenant = self._get(tenant_id)
        tracer = get_tracer()
        with tenant._lock:
            if tenant.tier != SAMPLED:
                return False
            span = (
                tracer.span("tenant.promote", tenant=tenant.tenant_id)
                if tracer.enabled else NULL_SPAN
            )
            with span:
                old = tenant.engine
                tenant._freeze_live()
                tenant.tier = EXACT
                tenant.engine = tenant._new_engine()
                tenant.engine.seed_carry(
                    old.living, old.living_last_access,
                    processed=old.accesses_processed,
                )
                tenant.promotions += 1
        self._count("tenant.promotions")
        return True

    def _enforce_tenant_budget(self, tenant: Tenant) -> bool:
        """Per-tenant cap (caller holds the tenant's lock)."""
        if (
            tenant.memory_budget is None
            or tenant.tier != EXACT
            or tenant.state_nbytes <= tenant.memory_budget
        ):
            return False
        self._count("tenant.budget_demotions")
        # Reuse the switch machinery; re-entrant via the RLock.
        return self._demote_locked(tenant)

    def _maybe_promote(self, tenant: Tenant) -> bool:
        """Auto-promotion: hot again after a demotion, budget willing."""
        if (
            tenant.tier != SAMPLED
            or tenant.registered_tier != EXACT
            or tenant.accesses_since_tier_change < self.promote_after
        ):
            return False
        if (
            self.memory_budget is not None
            and self.state_nbytes >= self.memory_budget
        ):
            return False  # no headroom; stay sampled until pressure eases
        try:
            return self.promote(tenant.tenant_id)
        except ReproError:
            return False  # evicted between the push and the promotion

    def _enforce_budget(self) -> List[str]:
        """Global cap: demote least-recently-pushed exact tenants."""
        demoted: List[str] = []
        if self.memory_budget is None:
            return demoted
        while self.state_nbytes > self.memory_budget:
            with self._lock:
                exact = [
                    t for t in self._tenants.values() if t.tier == EXACT
                ]
            if not exact:
                break  # sampled everywhere: the floor — evictions are explicit
            victim = min(exact, key=lambda t: t.last_push_ticket)
            if self._demote_locked(victim):
                self._count("tenant.budget_demotions")
                demoted.append(victim.tenant_id)
            # else: raced with a concurrent demotion; the loop re-measures
            # and the now-sampled victim drops out of the candidate list.
        return demoted
