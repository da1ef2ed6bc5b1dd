"""A merging counter registry unifying the repo's metric silos.

Before this module, three disconnected accountings existed:
:class:`repro.core.engine.EngineStats` (work/span/peaks),
:class:`repro.extmem.iostats.IOStats` (block transfers), and the PRAM
:class:`repro.pram.scheduler.Cost` (work/span pairs).  Each had its own
merge story — or none, which is how the parallel paths lost
``peak_bytes`` before PR 1.  :class:`Counters` gives all of them one
``snapshot()`` / ``merge()`` surface with exactly two merge kinds:

* ``sum`` — additive quantities (work, ops, block transfers);
* ``max`` — high-water marks and critical paths (peak bytes, span,
  recursion depth).

``merge`` is **associative and commutative** (the property test in
``tests/obs/test_properties.py`` pins this): per-worker and per-chunk
counters can be folded in any order and any grouping, which is what the
thread-pool, process-pool, and streaming paths need.  Note the span
semantics: merging models *parallel* composition (``Cost.beside`` —
spans take the max), the right reading for aggregating concurrent
workers; serial composition is the caller's job.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Tuple

from ..errors import ObservabilityError

#: Merge kinds.
SUM = "sum"
MAX = "max"
_KINDS = (SUM, MAX)


class Counters:
    """Named numeric counters, each with a fixed merge kind."""

    __slots__ = ("_values", "_kinds")

    def __init__(self) -> None:
        self._values: Dict[str, float] = {}
        self._kinds: Dict[str, str] = {}

    # -- recording ----------------------------------------------------------

    def add(self, name: str, value: float = 1) -> None:
        """Accumulate into a ``sum`` counter."""
        self._bump(name, SUM, value)

    def peak(self, name: str, value: float) -> None:
        """Raise a ``max`` counter (high-water mark)."""
        self._bump(name, MAX, value)

    def _bump(self, name: str, kind: str, value: float) -> None:
        v = float(value)
        known = self._kinds.get(name)
        if known is None:
            self._kinds[name] = kind
            self._values[name] = v
        elif known != kind:
            raise ObservabilityError(
                f"counter {name!r} is {known!r}, cannot record as {kind!r}"
            )
        elif kind == SUM:
            self._values[name] += v
        else:
            self._values[name] = max(self._values[name], v)

    # -- inspection ---------------------------------------------------------

    def kind(self, name: str) -> str:
        """Merge kind of ``name`` (raises if unknown)."""
        try:
            return self._kinds[name]
        except KeyError:
            raise ObservabilityError(f"unknown counter {name!r}") from None

    def value(self, name: str) -> float:
        """Current value of ``name`` (raises if unknown)."""
        try:
            return self._values[name]
        except KeyError:
            raise ObservabilityError(f"unknown counter {name!r}") from None

    def names(self) -> List[str]:
        return sorted(self._values)

    def snapshot(self) -> Dict[str, float]:
        """A plain name → value dict (copy; safe to mutate)."""
        return dict(self._values)

    def __len__(self) -> int:
        return len(self._values)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Counters):
            return NotImplemented
        return (self._values == other._values
                and self._kinds == other._kinds)

    def __repr__(self) -> str:
        inner = ", ".join(
            f"{n}={self._values[n]:g}[{self._kinds[n]}]"
            for n in self.names()
        )
        return f"Counters({inner})"

    # -- merging ------------------------------------------------------------

    def merge(self, other: "Counters") -> "Counters":
        """A new registry combining both (parallel-composition reading).

        Union of names; ``sum`` counters add, ``max`` counters take the
        max.  Raises when the two registries disagree on a name's kind.
        """
        out = Counters()
        for src in (self, other):
            for name, value in src._values.items():
                out._bump(name, src._kinds[name], value)
        return out

    @staticmethod
    def merge_all(parts: Iterable["Counters"]) -> "Counters":
        """Fold any number of registries (order-independent by the laws)."""
        out = Counters()
        for part in parts:
            out = out.merge(part)
        return out

    # -- adapters for the pre-existing silos --------------------------------

    @classmethod
    def from_engine_stats(cls, stats: Any,
                          prefix: str = "engine") -> "Counters":
        """Counters view of an :class:`~repro.core.engine.EngineStats`.

        Scalars only (``ops_per_level`` stays on the stats object);
        kinds mirror :func:`repro.core.engine._merge_part_stats`:
        work sums, levels/spans/peaks take the concurrent max.
        """
        c = cls()
        c.add(f"{prefix}.work", stats.work)
        c.peak(f"{prefix}.levels", stats.levels)
        c.peak(f"{prefix}.span_basic", stats.span_basic)
        c.peak(f"{prefix}.span_parallel", stats.span_parallel)
        c.peak(f"{prefix}.peak_level_ops", stats.peak_level_ops)
        c.peak(f"{prefix}.peak_bytes", stats.peak_bytes)
        return c

    @classmethod
    def from_io_stats(cls, stats: Any, prefix: str = "io") -> "Counters":
        """Counters view of an :class:`~repro.extmem.iostats.IOStats`."""
        c = cls()
        c.add(f"{prefix}.read_blocks", stats.read_blocks)
        c.add(f"{prefix}.write_blocks", stats.write_blocks)
        for tag, blocks in stats.by_tag.items():
            c.add(f"{prefix}.tag.{tag}", blocks)
        return c

    @classmethod
    def from_cost(cls, cost: Any, prefix: str = "pram") -> "Counters":
        """Counters view of a PRAM :class:`~repro.pram.scheduler.Cost`.

        ``merge`` then realizes ``Cost.beside``: works add, spans max.
        """
        c = cls()
        c.add(f"{prefix}.work", cost.work)
        c.peak(f"{prefix}.span", cost.span)
        return c

    def as_cost(self, prefix: str = "pram") -> Tuple[float, float]:
        """Back out a ``(work, span)`` pair recorded by :meth:`from_cost`."""
        return (self.value(f"{prefix}.work"), self.value(f"{prefix}.span"))
