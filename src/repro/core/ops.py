"""Increment/Freeze operations and the Prefix/Postfix encoding.

Two equivalent operation languages (Sections 4 and 8):

* **Increment/Freeze** — the paper's definitional encoding.
  ``Increment(i, j, r)`` adds ``r`` to every *unfrozen* ``A[i..j]``;
  ``Freeze(i)`` makes ``A[i]`` immutable.  Null forms: ``i > j`` for
  Increment, the sentinel target for Freeze.
* **Prefix/Postfix** — the space-efficient encoding of Section 8 /
  Figure 1.  Both operate relative to the current subproblem interval
  ``[a, b]``:

  - ``Prefix(t, r)``  = Increment(a, t, 1); Increment(a, b, r)
  - ``Postfix(t, r)`` = Increment(t, b, 1); Freeze(t); Increment(a, b, r)

  The pair ``Increment(j, k, 1); Freeze(j)`` becomes
  ``Prefix(k, -1); Postfix(j, 0)``: the ±1 full-interval increments cancel
  outside ``[j, k]`` and sum to +1 inside it, then the Postfix freezes
  ``j``.  Crucially, a Postfix's trailing ``r`` applies *after* its own
  freeze, which is what makes it legal to merge later full-interval
  increments into it.

Index convention: the distance array is ``A[0..n]`` with ``A[0]`` a
sentinel cell absorbing the ops of first occurrences (``prev = 0``); it
may be frozen repeatedly and its value is never read.  This removes every
null-op special case from the Prefix/Postfix path: a trace of length
``n`` compiles to exactly ``2n`` operations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple, Union

import numpy as np

from .._typing import TraceLike, as_trace
from ..errors import OperationError
from .prevnext import prev_next_arrays

# ---------------------------------------------------------------------------
# Increment / Freeze (Section 4)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Increment:
    """Add ``r`` to each unfrozen cell of ``A[start..stop]`` (inclusive)."""

    start: int
    stop: int
    r: int

    @property
    def is_null(self) -> bool:
        """An empty range does nothing."""
        return self.start > self.stop

    def project(self, a: int, b: int) -> "Increment":
        """Projection onto ``[a, b]``: shrink the range into the interval."""
        return Increment(max(self.start, a), min(self.stop, b), self.r)


@dataclass(frozen=True)
class Freeze:
    """Make ``A[target]`` immutable; ``target = -1`` is the null form."""

    target: int

    @property
    def is_null(self) -> bool:
        return self.target < 0

    def project(self, a: int, b: int) -> "Freeze":
        """Projection onto ``[a, b]``: null out if the target falls outside."""
        if a <= self.target <= b:
            return self
        return Freeze(-1)


IncFreezeOp = Union[Increment, Freeze]


def increment_freeze_sequence(trace: TraceLike) -> List[IncFreezeOp]:
    """The paper's operation sequence ``S`` for ``trace`` (Section 4).

    Positions are 1-indexed into ``A[0..n]`` (cell 0 is the sentinel): for
    each access ``i`` the sequence contains ``Increment(prev(i), i-1, 1)``
    followed by ``Freeze(prev(i))``, where ``prev(i) = 0`` marks a first
    occurrence (its Freeze becomes the null op, matching the paper).
    """
    arr = as_trace(trace)
    prev0, _ = prev_next_arrays(arr)
    ops: List[IncFreezeOp] = []
    for i in range(1, arr.size + 1):
        p = int(prev0[i - 1]) + 1  # paper-style prev: 0 for "none"
        ops.append(Increment(p, i - 1, 1))
        ops.append(Freeze(p if p > 0 else -1))
    return ops


def apply_increment_freeze(
    ops: List[IncFreezeOp], length: int
) -> np.ndarray:
    """Directly execute an Increment/Freeze sequence on ``A[0..length-1]``.

    The O(n·m) semantic definition — the unarguable oracle against which
    every clever evaluation strategy in this package is tested.
    Double-freezing any cell other than the sentinel 0 is an error.
    """
    values = np.zeros(length, dtype=np.int64)
    frozen = np.zeros(length, dtype=bool)
    for op in ops:
        if isinstance(op, Increment):
            if op.is_null:
                continue
            lo, hi = max(op.start, 0), min(op.stop, length - 1)
            if lo > hi:
                continue
            window = slice(lo, hi + 1)
            values[window] += np.where(frozen[window], 0, op.r)
        elif isinstance(op, Freeze):
            if op.is_null:
                continue
            if op.target >= length:
                raise OperationError(
                    f"freeze target {op.target} out of range [0, {length})"
                )
            if frozen[op.target] and op.target != 0:
                raise OperationError(f"cell {op.target} frozen twice")
            frozen[op.target] = True
        else:  # pragma: no cover - defensive
            raise OperationError(f"unknown operation {op!r}")
    return values


# ---------------------------------------------------------------------------
# Prefix / Postfix (Section 8)
# ---------------------------------------------------------------------------

#: Type codes for the array encoding used by the vectorized engine.
PREFIX = 0
POSTFIX = 1


@dataclass(frozen=True)
class PrefixOp:
    """``Prefix(t, r)`` relative to the enclosing interval ``[a, b]``."""

    t: int
    r: int


@dataclass(frozen=True)
class PostfixOp:
    """``Postfix(t, r)`` relative to the enclosing interval ``[a, b]``."""

    t: int
    r: int


PrePostOp = Union[PrefixOp, PostfixOp]


def project_prepost(op: PrePostOp, a: int, b: int) -> PrePostOp:
    """Project a Prefix/Postfix op onto child interval ``[a, b]``.

    Every projection is again a single Prefix/Postfix op (this 1-to-1
    property is what makes the encoding compact):

    =========== =========== =====================================
    op          where t is  projection onto [a, b]
    =========== =========== =====================================
    Prefix(t,r) t in [a,b]  Prefix(t, r)        (unchanged)
    Prefix(t,r) t > b       Prefix(b, r)        (full effect 1+r)
    Prefix(t,r) t < a       Prefix(b, r-1)      (full effect r)
    Postfix(t,r) t in [a,b] Postfix(t, r)       (unchanged)
    Postfix(t,r) t < a      Prefix(b, r)        (full effect 1+r)
    Postfix(t,r) t > b      Prefix(b, r-1)      (full effect r)
    =========== =========== =====================================
    """
    if a > b:
        raise OperationError(f"empty interval [{a}, {b}]")
    t = op.t
    if isinstance(op, PrefixOp):
        if t > b:
            return PrefixOp(b, op.r)
        if t < a:
            return PrefixOp(b, op.r - 1)
        return op
    if t < a:
        return PrefixOp(b, op.r)
    if t > b:
        return PrefixOp(b, op.r - 1)
    return op


def is_full_interval(op: PrePostOp, b: int) -> bool:
    """True when ``op`` increments the whole interval uniformly (by 1+r).

    Exactly the ``Prefix(b, r)`` forms; these merge into any predecessor
    (Section 8: "regardless of whether that operation is a Postfix or
    Prefix operation") by adding ``1 + r`` to the predecessor's trailing
    ``r``.
    """
    return isinstance(op, PrefixOp) and op.t == b


def prepost_effect_on_cell(op: PrePostOp, cell: int, frozen: bool,
                           a: int, b: int) -> Tuple[int, bool]:
    """Semantic effect of one op on one cell: ``(delta, frozen_after)``.

    Used by the reference evaluator.  Ordering inside a Postfix matters:
    the ``+1`` suffix increment lands before its freeze, the trailing
    ``r`` after it.
    """
    if not a <= cell <= b:
        raise OperationError(f"cell {cell} outside interval [{a}, {b}]")
    if isinstance(op, PrefixOp):
        if frozen:
            return 0, True
        delta = (1 if cell <= op.t else 0) + op.r
        return delta, False
    # Postfix
    if frozen:
        return 0, True
    delta = 1 if cell >= op.t else 0
    now_frozen = cell == op.t
    if not now_frozen:
        delta += op.r
    return delta, now_frozen


def prepost_sequence(trace: TraceLike) -> List[PrePostOp]:
    """Compile ``trace`` into the Prefix/Postfix sequence on ``A[0..n]``.

    For a re-access ``i`` (1-indexed): ``Prefix(i-1, -1);
    Postfix(prev(i), 0)``.  A first occurrence has a *null* Freeze, so its
    Postfix degenerates to a full-interval increment that merges straight
    into its own Prefix: it compiles to the single op ``Prefix(i-1, 0)``.
    (Keeping sentinel-targeted Postfixes instead would pile unmergeable
    operations onto cell 0 and break Lemma 4.2's O(|I|) bound there.)
    At most ``2n`` operations, no nulls.
    """
    arr = as_trace(trace)
    prev0, _ = prev_next_arrays(arr)
    ops: List[PrePostOp] = []
    for i in range(1, arr.size + 1):
        p = int(prev0[i - 1])
        if p == -1:
            ops.append(PrefixOp(i - 1, 0))
        else:
            ops.append(PrefixOp(i - 1, -1))
            ops.append(PostfixOp(p + 1, 0))
    return ops


def prepost_sequence_arrays(
    trace: TraceLike,
    dtype: "np.typing.DTypeLike" = np.int64,
    *,
    prev: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized :func:`prepost_sequence`: ``(kind, t, r)`` arrays.

    ``kind`` holds the :data:`PREFIX`/:data:`POSTFIX` codes as uint8;
    ``t`` and ``r`` use ``dtype``, the width of the ops' positions and
    counters, whatever the width of the addresses.  First
    occurrences compile to a single ``Prefix(i-1, 0)`` (see
    :func:`prepost_sequence`), so the result has ``n + #re-accesses``
    operations.

    The ops depend on the trace only through ``prev``: a caller that
    already sorted the trace passes its ``prev`` and nothing is sorted
    again; without one, :func:`prev_next_arrays` sorts ``trace`` here.
    """
    if prev is None:
        prev0, _ = prev_next_arrays(as_trace(trace))
    else:
        prev0 = np.asarray(prev)
        if prev0.size != np.size(trace):
            raise OperationError(
                f"prev has {prev0.size} entries for a trace of "
                f"{np.size(trace)}"
            )
    n = prev0.size
    dt = np.dtype(dtype)
    first = prev0 == -1
    kind = np.empty(2 * n, dtype=np.uint8)
    kind[0::2] = PREFIX
    kind[1::2] = POSTFIX
    t = np.empty(2 * n, dtype=dt)
    t[0::2] = np.arange(n, dtype=dt)
    t[1::2] = (prev0 + 1).astype(dt)
    r = np.empty(2 * n, dtype=dt)
    r[0::2] = np.where(first, 0, -1).astype(dt)
    r[1::2] = 0
    keep = np.ones(2 * n, dtype=bool)
    keep[1::2] = ~first
    return kind[keep], t[keep], r[keep]


def apply_prepost(ops: List[PrePostOp], a: int, b: int) -> np.ndarray:
    """Directly execute a Prefix/Postfix sequence on interval ``[a, b]``.

    O(m·|I|) oracle semantics, mirroring :func:`apply_increment_freeze`.
    Returns the values of cells ``a..b`` (index 0 of the result is ``a``).
    Repeated freezing is tolerated only on the sentinel cell 0.
    """
    length = b - a + 1
    values = np.zeros(length, dtype=np.int64)
    frozen = np.zeros(length, dtype=bool)
    for op in ops:
        if not a <= op.t <= b:
            raise OperationError(
                f"op {op!r} has t outside its interval [{a}, {b}]"
            )
        if isinstance(op, PostfixOp) and frozen[op.t - a] and op.t != 0:
            raise OperationError(f"cell {op.t} frozen twice")
        for cell in range(a, b + 1):
            delta, now = prepost_effect_on_cell(
                op, cell, bool(frozen[cell - a]), a, b
            )
            values[cell - a] += delta
            frozen[cell - a] = frozen[cell - a] or now
    return values
