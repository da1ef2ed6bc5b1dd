"""One-shot profiling pipeline: trace one analysis run end to end.

This is the library face of the ``repro profile`` CLI subcommand: run
any :func:`repro.hit_rate_curve` algorithm under a fresh enabled tracer,
wrap the whole run in a ``profile.run`` root span, and return the curve
together with the collected events, wall time, and a unified
:class:`~repro.obs.counters.Counters` snapshot (engine stats folded in
when the algorithm exposes them).

The root span is the reconciliation anchor: its duration must agree with
``wall_seconds`` (both measure the same region), and every other span of
the run nests under it — which is what makes the exported Chrome trace's
totals meaningful.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, List, Optional

import numpy as np

from .counters import Counters
from .span import DEFAULT_CAPACITY, SpanEvent, Tracer, tracing

if TYPE_CHECKING:
    from ..core.config import SolveConfig


@dataclass
class ProfileResult:
    """Everything one profiled run produced."""

    curve: Any
    algorithm: str
    n: int
    wall_seconds: float
    events: List[SpanEvent] = field(repr=False)
    counters: Counters = field(repr=False)
    dropped_events: int = 0

    def root_events(self) -> List[SpanEvent]:
        """Spans with no parent (one per thread that opened spans)."""
        return [e for e in self.events if e.parent_id == -1]

    def root_wall_seconds(self) -> float:
        """Duration of the ``profile.run`` root span."""
        for e in self.events:
            if e.name == "profile.run":
                return e.wall
        return 0.0


def profile_hit_rate_curve(
    trace: "np.typing.ArrayLike",
    config: Optional[SolveConfig] = None,
    *,
    capacity: int = DEFAULT_CAPACITY,
    tracer: Optional[Tracer] = None,
) -> ProfileResult:
    """Run one solve with tracing on; return curve + observability.

    ``config`` is the :class:`~repro.core.config.SolveConfig` the run
    solves with (``None`` means the default config), so a profiled run
    honors every knob an unprofiled :func:`repro.solve` would.  A
    caller-supplied ``tracer`` lets long-lived monitors accumulate
    several runs into one buffer; by default each call gets a fresh ring
    of ``capacity`` events.
    """
    # Local imports: core modules import repro.obs at load time.
    from ..core.api import solve
    from ..core.config import SolveConfig
    from ..core.engine import EngineStats

    config = config if config is not None else SolveConfig()
    arr = np.asarray(trace)
    stats = EngineStats()
    with tracing(capacity=capacity, tracer=tracer) as t:
        t0 = time.perf_counter()
        with t.span("profile.run", algorithm=config.algorithm,
                    n=int(arr.size), workers=config.workers):
            curve = solve(arr, config, stats=stats).curve
        wall = time.perf_counter() - t0
    counters = Counters()
    counters.add("profile.wall_seconds", wall)
    counters.add("profile.spans", len(t))
    counters.peak("profile.dropped_spans", t.dropped)
    if stats.levels:  # the engine ran (iaf / bounded-iaf / parallel-iaf)
        counters = counters.merge(Counters.from_engine_stats(stats))
    return ProfileResult(
        curve=curve,
        algorithm=config.algorithm,
        n=int(arr.size),
        wall_seconds=wall,
        events=t.events(),
        counters=counters,
        dropped_events=t.dropped,
    )
