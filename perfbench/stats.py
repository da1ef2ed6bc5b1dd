"""Latency summaries and the op ledger behind ``attempted`` / ``failed``.

Two rules from the benchmark's notes live here so they can be tested:

* a percentile is reported only with its sample count, and a tail
  percentile only when at least :data:`MIN_BEYOND` samples lie beyond
  it — never extrapolated from a handful of points;
* every op counts once: an error reply, a flagged (degraded or
  re-routed) reply, a timeout or a wrong answer each make it failed, and
  a failed op that is later also found wrong is still one failure.
"""

from __future__ import annotations

import math
import statistics
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Set

#: Samples that must lie beyond a tail percentile for it to be reported.
MIN_BEYOND = 10


def median(values: List[float]) -> Optional[float]:
    return statistics.median(values) if values else None


def tail(values: List[float], q: float) -> Optional[float]:
    """Nearest-rank ``q`` quantile, or None when too few samples lie beyond.

    With ``n`` samples the nearest-rank quantile is the ``ceil(q*n)``-th
    smallest; the ``n - ceil(q*n)`` samples above it are the ones
    "beyond" it.
    """
    n = len(values)
    if not n:
        return None
    rank = max(1, math.ceil(q * n))
    if n - rank < MIN_BEYOND:
        return None
    return sorted(values)[rank - 1]


@dataclass
class Ledger:
    """Outcome of every op a workload attempted, by op type."""

    latencies: Dict[str, List[float]] = field(
        default_factory=lambda: defaultdict(list))
    attempted: int = 0
    accesses: int = 0
    _failed: Set[int] = field(default_factory=set)
    reasons: Dict[str, int] = field(default_factory=lambda: defaultdict(int))

    def begin(self) -> int:
        """Count one attempted op; returns its index."""
        self.attempted += 1
        return self.attempted - 1

    def fail(self, op: int, reason: str) -> None:
        if op not in self._failed:
            self._failed.add(op)
            self.reasons[reason] += 1

    def reply(self, op: int, kind: str, payload: Dict[str, Any],
              seconds: float, accesses: int = 0) -> bool:
        """Record one reply; returns True when it counts as served.

        ``ok: false``, ``degraded`` and ``rerouted`` replies fail the op
        (a re-routed tenant restarted cold, so its curve is no longer
        the whole stream's).
        """
        if not payload.get("ok"):
            self.fail(op, "error")
            return False
        if payload.get("degraded") or payload.get("rerouted"):
            self.fail(op, "flagged")
            return False
        self.latencies[kind].append(seconds)
        self.accesses += accesses
        return True

    @property
    def failed(self) -> int:
        return len(self._failed)

    @property
    def failed_ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0

    def summary(self, kind: str) -> Dict[str, Any]:
        """``{p50_ms, p90_ms, p99_ms, samples}`` with unsupported tails None."""
        values = self.latencies.get(kind, [])
        out: Dict[str, Any] = {"samples": len(values)}
        med = median(values)
        out["p50_ms"] = None if med is None else med * 1e3
        for name, q in (("p90_ms", 0.90), ("p99_ms", 0.99)):
            value = tail(values, q)
            out[name] = None if value is None else value * 1e3
        return out
