"""CHUNKED-INCREMENT-AND-FREEZE: incremental exact IAF, chunk by chunk.

The batch engine materializes full-trace ``prev``/``next`` arrays, so a
month-long trace costs O(n) memory even though the curve itself only
needs O(u) state (one entry per distinct address).  This module is the
online form the paper's Section 7 machinery makes possible *without*
giving up exactness: consume the trace chunk-by-chunk and carry only the
**living requests** between chunks — the last access of every address
that is still distinct, ordered by recency, together with its global
position (the ``living_req`` representation of the etwest exemplar).

Per chunk ``C`` with carried living set ``L`` the distances are those
of the synthetic trace ``L · C``.  This is exact, not an approximation:
every address in the global interval ``(prev(i), i)`` of a chunk access
``i`` either re-occurs inside the chunk or is living at the chunk
boundary with a last access inside the interval, so distinct counts
over ``L · C`` equal distinct counts over the full trace — Lemma 7.1
with the truncation bound removed.  BOUNDED-IAF's ``Q̄`` suffix is the
``k``-truncated special case of this carry.

The engine does not solve all of ``L``, though.  It sorts
``referenced · C``, the ``r`` living entries the chunk touches followed
by the chunk (``r`` is at most the chunk's distinct count), and runs
the engine's level loop over ``C`` alone, its ``prev`` rebased into the
chunk: a chunk access reused inside the chunk reads its stack distance
at its previous occurrence, ``d[prev(i)]``.  A carry hit's distance is
its depth in the LRU stack ``L`` seeds, which a rank count over the
``r`` referenced entries gives (a Bennett–Kruskal-style count, see
:meth:`ChunkedIAF._solve_chunk`).  So a chunk solve's level loop
covers ``n`` accesses: its cost follows the chunk, not the universe.

Consequences:

* ``ChunkedIAF.curve()`` is **bit-identical** to
  :func:`repro.core.engine.iaf_hit_rate_curve` for *every* chunk size —
  the per-chunk histograms partition the full trace's, so each solved
  chunk folds into one running curve.  A query commits the pending
  partial chunk as a chunk of its own: every access is solved once.
* Steady-state memory is O(u + chunk): the living carry, the pending
  buffer, the running curve and one chunk solve.  Nothing grows with n.
  The pending buffer is the engine's own: ``push`` copies the tail it
  leaves pending, so callers may reuse their arrays.
* With ``max_cache_size=k`` the carry is truncated to the ``k`` most
  recent living requests and chunk curves come out ``truncated_at=k``
  — the BOUNDED-IAF chunk loop itself: serial
  :func:`repro.core.bounded.bounded_iaf` and
  :class:`repro.core.streaming.OnlineCurveAnalyzer` both run on this
  engine in that mode, keeping the chunk curves ``push``/``flush`` return.

See docs/STREAMING.md for the architecture write-up.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .._typing import TraceLike, as_trace, validate_dtype
from ..errors import CapacityError, ReproError
from ..metrics.memory import MemoryModel
from ..obs import NULL_SPAN, get_tracer
from .engine import EngineStats, iaf_distances, resolve_engine_backend
from .hitrate import HitRateCurve, curve_from_forward_distances
from .prevnext import last_access_carryover, prev_next_arrays

#: Default accesses per chunk for the exact (untruncated) mode.  Large
#: enough to amortize per-chunk overhead, small enough that the chunk
#: solve's working set stays modest next to the O(u) carry.
DEFAULT_CHUNK_SIZE = 1 << 15


def _restate_truncation(curve: HitRateCurve, k: int) -> HitRateCurve:
    """Restate ``curve`` with exactly ``k`` explicit sizes.

    Valid only when ``k`` does not exceed the curve's own truncation
    bound: the curve is then exact for every size up to ``k``, so short
    arrays extend with a flat tail and long ones are cut.
    """
    if curve.truncated_at is not None and curve.truncated_at < k:
        raise ReproError(
            f"cannot restate a curve truncated at "
            f"{curve.truncated_at} for k={k}: sizes beyond the "
            f"truncation are unknown"
        )
    if curve.truncated_at == k and curve.max_size == k:
        return curve
    return HitRateCurve(
        curve._padded(k)[:k], curve.total_accesses, truncated_at=k
    )


def inversions_after(a: np.ndarray) -> np.ndarray:
    """``out[q] = #{q' > q : a[q'] < a[q]}`` for distinct ``a >= 0``.

    A bitwise wavelet sweep, most significant bit first.  Two values
    first differ at one bit, where the smaller has a 0, so every pair
    counts exactly once: at that bit, inside the group of slots sharing
    the higher bits, as a 0-slot after a 1-slot.  Each bit stably moves
    the 0-slots of every group ahead of its 1-slots, which keeps each
    group contiguous and in ``q`` order.  Per bit: one cumsum of the
    0-bits, one gather of that cumsum at each slot's group end, a few
    arithmetic passes and three scatters, so O(r log max(a)) in all.
    """
    r = a.size
    out = np.zeros(r, dtype=np.int64)
    if r < 2:
        return out
    # Each slot carries its value above its index, so one array moves both.
    shift = (r - 1).bit_length()
    key = (a.astype(np.int64) << shift) | np.arange(r, dtype=np.int64)
    end = np.full(r, r, dtype=np.int64)  # exclusive end of the slot's group
    count = np.zeros(r, dtype=np.int64)
    slots = np.arange(r, dtype=np.int64)
    zeros = np.zeros(r + 1, dtype=np.int64)  # 0-bits before each slot
    one = np.empty(r, dtype=np.int64)
    for b in range(int(a.max()).bit_length() - 1, -1, -1):
        np.right_shift(key, b + shift, out=one)
        np.bitwise_and(one, 1, out=one)
        np.cumsum(1 - one, out=zeros[1:])
        z, z_end, total = zeros[:-1], zeros[end], zeros[-1]
        count += one * (z_end - z)
        # 0-slots keep their order from slot 0; 1-slots follow them.
        to = z + one * (total + slots - 2 * z)
        new_end = z_end + one * (total + end - 2 * z_end)
        moved = np.empty((3, r), dtype=np.int64)
        moved[0, to] = key
        moved[1, to] = new_end
        moved[2, to] = count
        key, end, count = moved
    out[key & ((1 << shift) - 1)] = count
    return out


def add_curves(
    total: Optional[HitRateCurve], piece: HitRateCurve
) -> HitRateCurve:
    """``total + piece`` for two disjoint stretches of one stream, at the
    smaller truncation bound if they differ (a ``k`` grown in between)."""
    if total is None:
        return piece
    if total.truncated_at == piece.truncated_at:
        return total.merge(piece)
    k = min(total.truncated_at, piece.truncated_at)
    return _restate_truncation(total, k).merge(_restate_truncation(piece, k))


class ChunkedIAF:
    """Incremental IAF over a pushed stream, with living-request carry.

    ``max_cache_size=None`` (the default) is the exact mode: the carry
    holds *all* living requests and :meth:`curve` reproduces the batch
    engine's full curve bit for bit.  ``max_cache_size=k`` truncates the
    carry to the ``k`` most recent living requests and solves chunks
    into ``truncated_at=k`` curves — the BOUNDED-IAF regime.

    ``dtype=None`` keeps int64 addresses and solves each chunk at the
    width :func:`~repro.core.engine.certify_int32` proves exact: a
    chunk solve's positions stay below ``n <= chunk_size`` however wide
    the addresses, so that is int32 ops and an int32 accumulator for
    any chunk short of ~2³⁰ accesses.  An explicit ``dtype`` pins
    addresses and chunk solves alike.

    An engine owns no level buffers: each chunk solve runs in the
    calling thread's :func:`~repro.core.engine.thread_workspace`, so any
    number of engines (one per tenant) pushed from one thread share one
    pool, and :attr:`state_nbytes` is all the memory an engine keeps.
    """

    def __init__(
        self,
        chunk_size: Optional[int] = None,
        *,
        max_cache_size: Optional[int] = None,
        dtype: Optional["np.typing.DTypeLike"] = None,
        engine_backend: Optional[str] = None,
        stats: Optional[EngineStats] = None,
        memory: Optional[MemoryModel] = None,
        span_name: str = "chunked.chunk",
    ) -> None:
        if max_cache_size is not None and max_cache_size < 1:
            raise CapacityError(
                f"max_cache_size must be >= 1, got {max_cache_size}"
            )
        if chunk_size is None:
            chunk_size = DEFAULT_CHUNK_SIZE
        if chunk_size < 1:
            raise CapacityError(
                f"chunk_size must be >= 1, got {chunk_size}"
            )
        self._chunk_size = int(chunk_size)
        self._k = None if max_cache_size is None else int(max_cache_size)
        self._dtype = validate_dtype(dtype)
        #: The chunk solves' pinned width, or None for certified.
        self._width = None if dtype is None else self._dtype
        self._backend = resolve_engine_backend(engine_backend)
        self._stats = stats
        self._memory = memory
        self._span_name = span_name
        self._living_addrs = np.zeros(0, dtype=self._dtype)
        self._living_last = np.zeros(0, dtype=np.int64)
        self._pending: List[np.ndarray] = []
        self._pending_len = 0
        self._curve: Optional[HitRateCurve] = None
        self._solves = 0
        self._accesses = 0
        self._processed = 0

    # -- introspection ------------------------------------------------------

    @property
    def chunk_size(self) -> int:
        return self._chunk_size

    @property
    def max_cache_size(self) -> Optional[int]:
        return self._k

    @property
    def accesses_ingested(self) -> int:
        """Total accesses pushed so far (including unprocessed buffer)."""
        return self._accesses

    @property
    def accesses_processed(self) -> int:
        """Accesses already solved into the curve (excludes pending)."""
        return self._processed

    @property
    def living(self) -> np.ndarray:
        """Living addresses after the processed prefix, least-recent first."""
        return self._living_addrs.copy()

    @property
    def living_last_access(self) -> np.ndarray:
        """Global last-access position of each living address."""
        return self._living_last.copy()

    @property
    def living_size(self) -> int:
        return int(self._living_addrs.size)

    @property
    def state_nbytes(self) -> int:
        """Bytes of carried state: living map, pending buffer and curve.

        This is the quantity that plateaus at O(u + chunk) — the soak
        benchmark charts it (plus process RSS) against the batch
        engine's O(n) footprint, and the tenant budget charges it.
        """
        held = [self._living_addrs, self._living_last, *self._pending]
        if self._curve is not None:
            held.append(self._curve.hits_cumulative)
        return sum(int(a.nbytes) for a in held)

    # -- ingestion ----------------------------------------------------------

    def push(self, accesses: TraceLike) -> List[HitRateCurve]:
        """Ingest a batch of accesses; returns the curves of the chunks it
        completed.  Input is validated like the offline entry points, and
        the caller may reuse ``accesses`` once this returns."""
        arr = np.atleast_1d(np.asarray(accesses))
        arr = as_trace(arr, dtype=self._dtype)
        self._accesses += int(arr.size)
        solved: List[HitRateCurve] = []
        while arr.size:
            room = self._chunk_size - self._pending_len
            take, arr = arr[:room], arr[room:]
            if take.size < room:
                # This tail stays pending after push returns: copy it, so
                # the engine neither sees the caller reuse the buffer nor
                # keeps the whole batch alive through a short view.
                take = take.copy()
            self._pending.append(take)
            self._pending_len += int(take.size)
            if self._pending_len == self._chunk_size:
                solved.append(self._process_pending())
        return solved

    def flush(self) -> Optional[HitRateCurve]:
        """Solve a partial chunk now; returns its curve, or ``None`` when
        nothing is pending."""
        if self._pending_len == 0:
            return None
        return self._process_pending()

    def seed_carry(
        self,
        addrs: TraceLike,
        last_access: TraceLike,
        *,
        processed: int,
    ) -> None:
        """Adopt a living-request carry from another engine.

        This is the tier-switch handoff in :mod:`repro.tenants`: a
        successor engine (e.g. the sampled tier after a demotion) starts
        from the predecessor's living map so cross-boundary reuse
        distances stay exact over the successor's stream.  ``addrs``
        must be distinct, ``last_access`` strictly increasing (i.e.
        least-recent first, the engine's own carry order) with every
        position below ``processed``, the number of accesses the carry
        summarizes.  Only a pristine engine may be seeded — accepting a
        foreign carry after pushes would corrupt the running curve.
        """
        if self._accesses:
            raise ReproError(
                "seed_carry requires a pristine engine (nothing pushed)"
            )
        addr_arr = as_trace(np.atleast_1d(np.asarray(addrs)),
                            dtype=self._dtype)
        last_arr = np.atleast_1d(np.asarray(last_access)).astype(np.int64)
        if addr_arr.size != last_arr.size:
            raise ReproError(
                f"carry shape mismatch: {addr_arr.size} addresses vs "
                f"{last_arr.size} last-access positions"
            )
        if np.unique(addr_arr).size != addr_arr.size:
            raise ReproError("carry addresses must be distinct")
        if addr_arr.size:
            if (np.diff(last_arr) <= 0).any():
                raise ReproError(
                    "carry last_access must be strictly increasing "
                    "(least-recent first)"
                )
            if int(last_arr[0]) < 0 or int(last_arr[-1]) >= processed:
                raise ReproError(
                    "carry last_access positions must lie in "
                    f"[0, processed={processed})"
                )
        if processed < 0:
            raise ReproError(f"processed must be >= 0, got {processed}")
        if self._k is not None and addr_arr.size > self._k:
            # Bounded mode keeps only the k most recent living requests.
            addr_arr = addr_arr[-self._k:]
            last_arr = last_arr[-self._k:]
        self._living_addrs = addr_arr
        self._living_last = last_arr
        self._processed = int(processed)
        # The carry summarizes `processed` historical accesses; count them
        # as ingested so accesses_ingested >= accesses_processed holds.
        # They are NOT in this engine's curve — the predecessor's covers
        # them.
        self._accesses = int(processed)

    def reconfigure(
        self,
        *,
        chunk_size: Optional[int] = None,
        max_cache_size: Optional[int] = None,
    ) -> None:
        """Adjust the chunk length and/or grow the truncation bound.

        The pending buffer and the running curve are untouched; a larger
        chunk simply means more room before the next boundary.  The
        truncation bound can only grow (shrinking would claim knowledge
        about sizes the carry already discarded) — the running curve
        keeps its old bound, the living carry just stops truncating as
        hard.
        """
        if chunk_size is not None:
            if chunk_size < 1:
                raise CapacityError(
                    f"chunk_size must be >= 1, got {chunk_size}"
                )
            self._chunk_size = int(chunk_size)
        if max_cache_size is not None:
            if self._k is None or max_cache_size < self._k:
                raise CapacityError("k can only grow, never shrink")
            self._k = int(max_cache_size)

    def _process_pending(self) -> HitRateCurve:
        """Solve the pending accesses as one chunk, advance the carry and
        fold the chunk's curve into the running one; returns it."""
        chunk = (
            np.concatenate(self._pending)
            if len(self._pending) != 1
            else self._pending[0]
        )
        self._pending = []
        self._pending_len = 0
        tracer = get_tracer()
        span = (
            tracer.span(self._span_name, window=self._solves,
                        n=int(chunk.size), living=self.living_size,
                        k=0 if self._k is None else self._k)
            if tracer.enabled
            else NULL_SPAN
        )
        with span:
            if self._memory is not None:
                self._memory.observe(
                    "chunked.living",
                    int(self._living_addrs.nbytes)
                    + int(self._living_last.nbytes),
                )
            piece, referenced, solved_next = self._solve_chunk(chunk, span)
            self._living_addrs, self._living_last = last_access_carryover(
                self._living_addrs, self._living_last, chunk,
                self._processed, 0 if self._k is None else self._k,
                referenced=referenced, solved_next=solved_next,
            )
            self._processed += int(chunk.size)
            self._solves += 1
            total = add_curves(self._curve, piece)
            if total.truncated_at is not None:
                total = _restate_truncation(total, total.truncated_at)
            self._curve = total
        return piece

    def _solve_chunk(
        self, chunk: np.ndarray, span
    ) -> Tuple[HitRateCurve, np.ndarray, np.ndarray]:
        """Solve the chunk against the carry; keep its contributions.

        ``referenced`` is the ``r`` living entries whose address the chunk
        touches, in carry order; ``r`` is recorded on ``span``.  The
        trace ``referenced · chunk`` is sorted once, and its ``prev``
        and ``next`` serve everything below.

        Only the chunk goes through the level loop, with ``prev``
        rebased into it (``prev - r``, or ``-1`` where the previous
        occurrence is a carry entry).  A within-chunk reuse reads its
        distance at its previous occurrence, ``d[prev - r]``: the
        backward distance ``d[j]`` counts the distinct addresses of
        ``chunk[j : next(j)]``, the window of the access at ``next(j)``.

        A carry hit is the first chunk access ``i`` of the ``q``-th
        referenced entry, at carry index ``j`` of ``m``.  Its distance
        is its depth in the LRU stack the carry seeds, after the chunk's
        first ``i`` accesses have run::

            (m - j) + F(i) - inv(q)

        ``m - j`` counts the entry and the living entries newer than it.
        ``F(i)`` counts the chunk's first occurrences before ``i``: each
        brings a distinct address to the top.  ``inv(q)`` counts those
        that are newer referenced entries, already in ``m - j``:
        :func:`inversions_after` of ``a = next[:r] - r``, each entry's
        first position in the chunk.  So the level loop solves ``n``
        accesses however large the carry, and the depths take one
        O(r log n) rank count.

        The same ``next`` marks the chunk's last occurrences for the
        carry update.  Returns the chunk's curve, the ``referenced``
        mask over the carry and that ``next``.
        """
        living = self._living_addrs
        m = living.size
        referenced = np.isin(living, chunk)
        ref_idx = np.flatnonzero(referenced)
        r = ref_idx.size
        span.set(referenced=r)
        solved = np.concatenate([living[ref_idx], chunk]).astype(
            self._dtype, copy=False
        )
        if self._memory is not None:
            self._memory.observe("chunked.chunk", int(solved.nbytes) * 2)
        prev, nxt = prev_next_arrays(solved, engine_backend=self._backend)
        prev_chunk = prev[r:]
        local = np.maximum(prev_chunk - r, -1)
        d = iaf_distances(chunk, dtype=self._width, stats=self._stats,
                          engine_backend=self._backend, prev=local)
        # A carry hit or a compulsory miss reads d[-1]; the hits are
        # overwritten below and the curve skips the misses.
        f = d[local]
        first = nxt[:r] - r
        seen = np.cumsum(prev_chunk < r)  # F(i) + 1 at a first touch
        f[first] = (m - 1 - ref_idx) + seen[first] - inversions_after(first)
        if self._memory is not None:
            self._memory.observe("chunked.chunk", 0)
        # Only prev == -1 (a compulsory miss) matters to the curve.
        if self._k is None:
            piece = curve_from_forward_distances(f, prev_chunk)
        else:
            piece = curve_from_forward_distances(
                np.minimum(f, self._k + 1), prev_chunk, truncated_at=self._k
            )
        return piece, referenced, nxt

    # -- queries ------------------------------------------------------------

    def curve(self) -> HitRateCurve:
        """The curve over everything ingested so far.

        Commits the pending partial chunk first: the solve a query needs
        anyway, kept, so those accesses are never solved again.  With
        ``max_cache_size`` the curve states the smallest ``k`` any chunk
        was solved at.
        """
        self.flush()
        if self._curve is None:
            return HitRateCurve(
                np.zeros(0, dtype=np.int64), 0, truncated_at=self._k
            )
        return self._curve


@dataclass
class ChunkedResult:
    """Output of one :func:`chunked_iaf` run.

    ``.curve`` / ``.stats`` follow the unified result-shape convention
    (see :class:`repro.core.config.SolveResult`).
    """

    curve: HitRateCurve
    chunk_size: int
    stats: Optional[EngineStats] = None


def chunked_iaf(
    trace: TraceLike,
    chunk_size: Optional[int] = None,
    *,
    dtype: Optional["np.typing.DTypeLike"] = None,
    stats: Optional[EngineStats] = None,
    memory: Optional[MemoryModel] = None,
    engine_backend: Optional[str] = None,
) -> ChunkedResult:
    """One-shot exact chunked solve (the ``algorithm="chunked-iaf"`` tier).

    Feeds ``trace`` through :class:`ChunkedIAF` in ``chunk_size`` runs;
    the returned curve is bit-identical to the batch engine's, but the
    working set never exceeds O(u + chunk_size).  ``dtype`` is
    :class:`ChunkedIAF`'s.
    """
    arr = as_trace(trace, dtype=dtype)
    engine = ChunkedIAF(
        chunk_size, dtype=dtype, engine_backend=engine_backend,
        stats=stats, memory=memory,
    )
    size = engine.chunk_size
    # Feed in chunk-size runs so the full trace is never re-buffered.
    for start in range(0, arr.size, size):
        engine.push(arr[start : start + size])
    return ChunkedResult(
        curve=engine.curve().with_stats(stats), chunk_size=size,
        stats=stats,
    )
