"""Variable-size objects: the Section 9.1 extension, made real.

The paper remarks that "INCREMENT-AND-FREEZE can be augmented to support
objects of varying size".  This module is that augmentation.  With a
size ``s(x)`` per address, the **weighted stack distance** of access
``i`` is the total size of the distinct addresses in
``trace[prev(i) .. i]`` — the bytes an LRU cache must hold for access
``i`` to hit, so ``i`` hits a byte-capacity-``C`` cache iff its weighted
distance is ``<= C`` (for caches that never evict mid-object; this is
the standard Mattson-style generalization).

The algorithm is the same operation sequence with each access's
``+1`` increments scaled by its object's size: pair ``i`` becomes
``Prefix(i-1, -s_i, w=s_i); Postfix(prev(i), 0, w=s_i)`` — Lemma 4.1's
counting argument applies verbatim with each qualifying ``t_j``
contributing ``s_j`` instead of 1.  The engine carries the ``w`` array
natively (see :class:`repro.core.engine.Segments`), so the weighted run
keeps the O(n log n) work and data-parallel structure.

Also provided, for cross-validation: a brute-force oracle, a direct
weighted-LRU simulator, and a weighted order-statistic tree baseline.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Optional, Sequence, Tuple

import numpy as np

from .._typing import TraceLike, as_trace
from ..errors import CapacityError, TraceError
from .engine import Segments, solve_prepost_arrays
from .prevnext import prev_next_arrays

if TYPE_CHECKING:
    from ..parallel_exec import ProcessExecutor


def _validate_sizes(trace: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    sizes = np.asarray(sizes)
    if sizes.ndim != 1:
        raise TraceError("object sizes must be a 1-D array indexed by address")
    if trace.size and int(trace.max()) >= sizes.size:
        raise TraceError(
            f"trace references address {int(trace.max())} but only "
            f"{sizes.size} object sizes were given"
        )
    if sizes.size and int(sizes.min()) < 1:
        raise TraceError("object sizes must be >= 1")
    return sizes.astype(np.int64, copy=False)


def weighted_prepost_arrays(
    trace: np.ndarray,
    sizes: np.ndarray,
    *,
    prev: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Compile the weighted operation sequence: ``(kind, t, r, w)``.

    Mirrors :func:`repro.core.ops.prepost_sequence_arrays` with each op's
    "+1 part" carrying the accessed object's size; first occurrences
    again collapse to a single ``Prefix(i-1, 0, w=s_i)``.  As there,
    ``prev`` is the trace's when the caller already sorted it.
    """
    from .ops import POSTFIX, PREFIX

    prev0 = prev_next_arrays(trace)[0] if prev is None else prev
    n = trace.size
    s = sizes[trace]
    first = prev0 == -1
    kind = np.empty(2 * n, dtype=np.uint8)
    kind[0::2] = PREFIX
    kind[1::2] = POSTFIX
    t = np.empty(2 * n, dtype=np.int64)
    t[0::2] = np.arange(n, dtype=np.int64)
    t[1::2] = prev0 + 1
    r = np.empty(2 * n, dtype=np.int64)
    r[0::2] = np.where(first, 0, -s)
    r[1::2] = 0
    w = np.empty(2 * n, dtype=np.int64)
    w[0::2] = s
    w[1::2] = s
    keep = np.ones(2 * n, dtype=bool)
    keep[1::2] = ~first
    return kind[keep], t[keep], r[keep], w[keep]


def weighted_backward_distances(
    trace: TraceLike,
    sizes: Sequence[int],
    *,
    engine_backend: Optional[str] = None,
    prev: Optional[np.ndarray] = None,
    workers: int = 1,
    executor: "Optional[ProcessExecutor]" = None,
) -> np.ndarray:
    """Weighted analogue of the distance vector, via the engine.

    ``out[i]`` = total size of the distinct addresses in
    ``trace[i : next(i)]`` (entries whose address never recurs hold the
    weighted distinct suffix instead, and are ignored downstream).
    ``prev`` is the trace's, when the caller already sorted it.  The
    ``w`` array rides through ``workers``/``executor``'s split like the
    other op arrays (see
    :func:`~repro.core.engine.solve_prepost_arrays`).
    """
    arr = as_trace(trace)
    s = _validate_sizes(arr, np.asarray(sizes))
    n = arr.size
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    kind, t, r, w = weighted_prepost_arrays(arr, s, prev=prev)
    values = np.zeros(n + 1, dtype=np.int64)
    solve_prepost_arrays(Segments.single(kind, t, r, 0, n, w=w), values,
                         engine_backend=engine_backend, workers=workers,
                         executor=executor)
    return values[1:]


def weighted_stack_distances(
    trace: TraceLike, sizes: Sequence[int], *, engine_backend: Optional[str] = None
) -> np.ndarray:
    """Per-access weighted stack distance (0 = first occurrence)."""
    arr = as_trace(trace)
    prev, _ = prev_next_arrays(arr, engine_backend=engine_backend)
    d = weighted_backward_distances(arr, sizes,
                                    engine_backend=engine_backend, prev=prev)
    out = np.zeros(arr.size, dtype=np.int64)
    has_prev = prev != -1
    out[has_prev] = d[prev[has_prev]]
    return out


@dataclass(frozen=True)
class WeightedCurve:
    """Hit rates at requested byte capacities."""

    capacities: np.ndarray
    hits: np.ndarray
    total_accesses: int

    def hit_rate(self, index: int) -> float:
        if self.total_accesses == 0:
            return 0.0
        return float(self.hits[index]) / self.total_accesses


def weighted_hit_rate_curve(
    trace: TraceLike,
    sizes: Sequence[int],
    capacities: Sequence[int],
) -> WeightedCurve:
    """Exact LRU hit counts at each byte capacity.

    Distances can be as large as the total catalog size, so instead of a
    dense histogram the finite distances are sorted once and each
    requested capacity answered with a binary search.
    """
    arr = as_trace(trace)
    caps = np.asarray(list(capacities), dtype=np.int64)
    if caps.size and int(caps.min()) < 0:
        raise CapacityError("capacities must be >= 0")
    dist = weighted_stack_distances(arr, sizes)
    finite = np.sort(dist[dist > 0])
    hits = np.searchsorted(finite, caps, side="right")
    return WeightedCurve(
        capacities=caps, hits=hits.astype(np.int64),
        total_accesses=int(arr.size),
    )


# ---------------------------------------------------------------------------
# Cross-validation implementations
# ---------------------------------------------------------------------------


def naive_weighted_stack_distances(
    trace: TraceLike, sizes: Sequence[int]
) -> np.ndarray:
    """O(n²) oracle, straight from the definition."""
    arr = as_trace(trace)
    s = _validate_sizes(arr, np.asarray(sizes))
    items = arr.tolist()
    last: Dict[int, int] = {}
    out = np.zeros(arr.size, dtype=np.int64)
    for i, addr in enumerate(items):
        p = last.get(addr)
        if p is not None:
            out[i] = sum(int(s[a]) for a in set(items[p : i + 1]))
        last[addr] = i
    return out


class WeightedLRUCache:
    """Mattson's generalized LRU: resident = the recency prefix that fits.

    The variable-size generalization that *is* a stack algorithm: at any
    moment the cache of capacity ``C`` holds the maximal prefix of the
    recency order whose sizes sum to at most ``C``.  An access hits iff
    the cumulative size down to (and including) its object fits — exactly
    the weighted-stack-distance rule the analytic curve computes, so all
    capacities can be answered from one recency stack.

    A *practical* byte-LRU (evict-on-insert, keep until evicted) is NOT a
    stack algorithm and can disagree with this model in both directions;
    the test suite pins an explicit example of the divergence.
    """

    def __init__(self, capacity_bytes: int) -> None:
        if capacity_bytes < 1:
            raise CapacityError(
                f"capacity must be >= 1 byte, got {capacity_bytes}"
            )
        self.capacity = capacity_bytes
        self._stack: list[int] = []  # most recent first
        self._sizes: Dict[int, int] = {}
        self.hits = 0
        self.misses = 0

    def access(self, address: int, size: int) -> bool:
        stack = self._stack
        hit = False
        if address in self._sizes:
            pos = stack.index(address)
            prefix_bytes = sum(self._sizes[a] for a in stack[: pos + 1])
            hit = prefix_bytes <= self.capacity
            del stack[pos]
        stack.insert(0, address)
        self._sizes[address] = size
        if hit:
            self.hits += 1
        else:
            self.misses += 1
        return hit


def simulate_weighted_lru(
    trace: TraceLike, sizes: Sequence[int], capacity_bytes: int
) -> Tuple[int, int]:
    """Run the stack-model weighted LRU; returns ``(hits, misses)``."""
    arr = as_trace(trace)
    s = _validate_sizes(arr, np.asarray(sizes))
    cache = WeightedLRUCache(capacity_bytes)
    for addr in arr.tolist():
        cache.access(addr, int(s[addr]))
    return cache.hits, cache.misses


class EvictOnInsertWeightedLRU:
    """A practical byte-LRU: objects stay resident until evicted by inserts.

    Used only to demonstrate that variable-size LRU is not a stack
    algorithm: its hit counts can differ from the stack model above.
    """

    def __init__(self, capacity_bytes: int) -> None:
        if capacity_bytes < 1:
            raise CapacityError(
                f"capacity must be >= 1 byte, got {capacity_bytes}"
            )
        self.capacity = capacity_bytes
        self._resident: "OrderedDict[int, int]" = OrderedDict()
        self._used = 0
        self.hits = 0
        self.misses = 0

    def access(self, address: int, size: int) -> bool:
        resident = self._resident
        if address in resident:
            resident.move_to_end(address)
            self.hits += 1
            return True
        self.misses += 1
        if size <= self.capacity:
            while self._used + size > self.capacity and resident:
                _victim, vsize = resident.popitem(last=False)
                self._used -= vsize
            resident[address] = size
            self._used += size
        return False


def ost_weighted_stack_distances(
    trace: TraceLike, sizes: Sequence[int]
) -> np.ndarray:
    """Weighted Bennett–Kruskal: the OST with per-node weights.

    The natural baseline extension: the order-statistic tree's subtree
    *size* augmentation becomes a subtree *weight* sum, and the rank
    query returns the weight of all keys >= p.
    """
    arr = as_trace(trace)
    s = _validate_sizes(arr, np.asarray(sizes))
    tree = _WeightedOST()
    last: Dict[int, int] = {}
    out = np.zeros(arr.size, dtype=np.int64)
    for i, addr in enumerate(arr.tolist()):
        weight = int(s[addr])
        p = last.get(addr)
        if p is not None:
            out[i] = tree.weight_ge(p)
            tree.delete(p)
        tree.insert(i, weight)
        last[addr] = i
    return out


class _WNode:
    __slots__ = ("key", "weight", "left", "right", "size", "wsum")

    def __init__(self, key: int, weight: int) -> None:
        self.key = key
        self.weight = weight
        self.left: Optional["_WNode"] = None
        self.right: Optional["_WNode"] = None
        self.size = 1
        self.wsum = weight


class _WeightedOST:
    """Weight-balanced BST augmented with subtree weight sums."""

    _DELTA = 3
    _GAMMA = 2

    def __init__(self) -> None:
        self._root: Optional[_WNode] = None

    @staticmethod
    def _size(n: Optional[_WNode]) -> int:
        return n.size if n is not None else 0

    @staticmethod
    def _wsum(n: Optional[_WNode]) -> int:
        return n.wsum if n is not None else 0

    def _update(self, n: _WNode) -> _WNode:
        n.size = 1 + self._size(n.left) + self._size(n.right)
        n.wsum = n.weight + self._wsum(n.left) + self._wsum(n.right)
        return n

    def _rot_l(self, n: _WNode) -> _WNode:
        r = n.right
        n.right = r.left
        r.left = self._update(n)
        return self._update(r)

    def _rot_r(self, n: _WNode) -> _WNode:
        l = n.left
        n.left = l.right
        l.right = self._update(n)
        return self._update(l)

    def _balance(self, n: _WNode) -> _WNode:
        ls, rs = self._size(n.left), self._size(n.right)
        if ls + rs <= 1:
            return self._update(n)
        if rs > self._DELTA * ls:
            if self._size(n.right.left) >= self._GAMMA * self._size(
                n.right.right
            ):
                n.right = self._rot_r(n.right)
            return self._rot_l(n)
        if ls > self._DELTA * rs:
            if self._size(n.left.right) >= self._GAMMA * self._size(
                n.left.left
            ):
                n.left = self._rot_l(n.left)
            return self._rot_r(n)
        return self._update(n)

    def insert(self, key: int, weight: int) -> None:
        def rec(node: Optional[_WNode]) -> _WNode:
            if node is None:
                return _WNode(key, weight)
            if key < node.key:
                node.left = rec(node.left)
            elif key > node.key:
                node.right = rec(node.right)
            else:
                raise KeyError(f"duplicate key {key}")
            return self._balance(node)

        self._root = rec(self._root)

    def _delete_min(self, node: _WNode) -> Optional[_WNode]:
        """Remove the leftmost node, rebalancing on the way back up."""
        if node.left is None:
            return node.right
        node.left = self._delete_min(node.left)
        return self._balance(node)

    def delete(self, key: int) -> None:
        def rec(node: Optional[_WNode]) -> Optional[_WNode]:
            if node is None:
                raise KeyError(f"key {key} not in tree")
            if key < node.key:
                node.left = rec(node.left)
            elif key > node.key:
                node.right = rec(node.right)
            else:
                if node.left is None:
                    return node.right
                if node.right is None:
                    return node.left
                succ = node.right
                while succ.left is not None:
                    succ = succ.left
                node.key, node.weight = succ.key, succ.weight
                node.right = self._delete_min(node.right)
            return self._balance(node)

        self._root = rec(self._root)

    def weight_ge(self, key: int) -> int:
        total = 0
        node = self._root
        while node is not None:
            if node.key >= key:
                total += node.weight + self._wsum(node.right)
                node = node.left
            else:
                node = node.right
        return total
