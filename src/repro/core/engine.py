"""The production INCREMENT-AND-FREEZE engine (Sections 4, 6, 8).

This is the paper's algorithm realized the way the Section-6 analysis
suggests: **level-synchronously and data-parallel**.  At every recursion
depth, *all* subproblems live side by side in one set of flat numpy
arrays (``kind``/``t``/``r`` per operation, plus per-segment interval
bounds), and one partition step maps every parent segment to its two
children at once:

1. *Projection* is an elementwise map (the Prefix/Postfix projection
   rules are branch-free ``where`` expressions).
2. *Shrinking* — merging full-interval operations into their predecessors
   — is a segmented cluster-sum (Lemma 6.1): a cumulative sum of merge
   effects, run-length boundaries from the "kept" mask, one gather.

Each level is O(total ops) numpy work; Lemma 4.2 bounds the total ops per
level by O(n), and there are O(log n) levels — so this single
implementation is simultaneously the fast serial algorithm (its memory
traffic is sequential streams, the point of the paper) and a faithful
realization of PARALLEL-INCREMENT-AND-FREEZE's O(log² n)-span structure
(every numpy pass is a map or a scan).

Size-1 segments ("leaves") are solved in closed form: a leaf's cell value
is the summed effect of its operations up to and including the leading
``+1`` of the first Postfix, which freezes the cell.

Section 8's shrink turns a child's leading run of full-interval ops into
one *head* op.  Three level kernels implement the partition step, all
bit-identical:

* ``"fused"`` (default) — one pass per level computes both children's
  merge masks and cluster-sums directly from the *parent* arrays (the
  projection rules are folded into the merge-effect formula, so the
  projected child arrays are never materialized) and writes the children
  into a reusable double-buffered :class:`Workspace`.  Its levels are
  headless: a head is kept as the segment's ``base`` (the uniform
  increment it stands for, added to every cell of the segment), so a
  level writes only its kept ops (with their segment index while the
  level fits one cache block or its segments are small).
  Steady-state levels allocate no fresh op arrays.
* ``"naive"`` — the original three-function pipeline
  (:func:`_partition_level` + two :func:`_shrink_child` calls), which
  writes the paper's head ops literally; kept as a differential-testing
  oracle for the fused kernel (see :mod:`repro.qa`).
* ``"compiled"`` — the numba kernels of :mod:`repro.core.compiled`,
  which write head ops as the naive kernel does.

The module exposes three layers:

* :func:`solve_prepost_arrays` — run the level loop on an arbitrary
  initial segment list (used by the external-memory variant, whose
  recursion bottoms out in these in-memory segments).  With
  ``workers > 1`` it is also PARALLEL-INCREMENT-AND-FREEZE's subtree
  form (Theorem 4.3): once a level holds enough independent segments,
  the loop cuts it into parts and solves each part with itself at one
  worker, on threads or through a process executor.
* :func:`iaf_distances` / :func:`iaf_hit_rate_curve` — the whole pipeline
  for a trace: pre-process, solve, post-process.
* :func:`iaf_distances_batch` / :func:`iaf_hit_rate_curves_batch` — k
  independent traces seeded as k root segments on disjoint cell
  intervals, so one level loop carries all of them (the serving-
  throughput form: many small curve requests amortize every vectorized
  pass).

Scratch buffers belong to the solving thread: every fused or compiled
level loop runs in :func:`thread_workspace`, one :class:`Workspace` per
thread, created on first use and kept for the thread's life.  No caller
passes or owns one, so two threads never share a buffer and one thread's
consecutive solves (a service worker's requests, a tenant engine's
chunks) reuse the same pool.
"""

from __future__ import annotations

import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .._typing import TraceLike, as_trace, validate_dtype
from ..errors import CapacityError, ReproError
from ..metrics.memory import MemoryModel
from ..obs import NULL_SPAN, get_tracer
from ..pram.scheduler import Cost
from .hitrate import HitRateCurve, curve_from_backward_distances
from .ops import POSTFIX, PREFIX, prepost_sequence_arrays
from .prevnext import prev_next_arrays
from . import compiled as _compiled

if TYPE_CHECKING:
    from ..parallel_exec import ProcessExecutor

#: Selectable level-kernel implementations (``engine_backend=``).
ENGINE_BACKENDS = ("fused", "naive", "compiled")


def _validate_backend(backend: str) -> str:
    if backend not in ENGINE_BACKENDS:
        raise ReproError(
            f"unknown engine backend {backend!r}; "
            f"choose from {ENGINE_BACKENDS}"
        )
    return backend


def _default_backend_from_env() -> Optional[str]:
    raw = os.environ.get("REPRO_ENGINE_BACKEND", "").strip()
    if not raw:
        return None
    # Rejecting bad values here — at import — turns a typo'd deployment
    # env var into an immediate ReproError instead of a solve-time one.
    return _validate_backend(raw)


#: Backend used when a call site passes ``engine_backend=None``;
#: overridable per process via ``REPRO_ENGINE_BACKEND`` (validated at
#: import time).
DEFAULT_ENGINE_BACKEND = _default_backend_from_env() or "fused"

_fallback_warned = False


def resolve_engine_backend(backend: Optional[str]) -> str:
    """Resolve an ``engine_backend`` argument to a runnable kernel name.

    ``None`` means "the process default" (``REPRO_ENGINE_BACKEND`` or
    ``"fused"``).  ``"compiled"`` degrades to ``"fused"`` — with a
    single :class:`RuntimeWarning` per process — when the compiled
    kernels are unavailable (no numba and ``REPRO_COMPILED_PURE``
    unset), so the dependency stays optional at every call site.
    """
    global _fallback_warned
    if backend is None:
        backend = DEFAULT_ENGINE_BACKEND
    _validate_backend(backend)
    if backend == "compiled" and not _compiled.is_available():
        if not _fallback_warned:
            import warnings

            warnings.warn(
                "engine_backend='compiled' requested but numba is not "
                "installed; falling back to the fused numpy kernel "
                "(pip install 'repro[compiled]' to enable it)",
                RuntimeWarning,
                stacklevel=2,
            )
            _fallback_warned = True
        return "fused"
    return backend


@dataclass
class EngineStats:
    """Instrumentation of one engine run.

    ``work`` counts operation touches across all levels; ``span_basic``
    is the Section-4 span (levels run their segments in parallel, each
    segment serially — O(n) total), ``span_parallel`` the Section-6 span
    (each level is scans and maps, O(log n) each — O(log² n) total).
    ``peak_level_ops`` drives the memory story: the engine's working set
    is proportional to it.
    """

    levels: int = 0
    work: float = 0.0
    span_basic: float = 0.0
    span_parallel: float = 0.0
    peak_level_ops: int = 0
    peak_bytes: int = 0
    ops_per_level: List[int] = field(default_factory=list)
    #: When True, per-level segment op counts are kept (the level-barrier
    #: task structure consumed by :mod:`repro.pram.simulator`).
    record_segments: bool = False
    segment_sizes_per_level: List[np.ndarray] = field(default_factory=list)

    def record_level(self, seg: "Segments", out_nbytes: int) -> None:
        """Fold one recursion level into the counters.

        The single bookkeeping point shared by every level loop (a
        serial solve, the levels before a parallel split, each part
        after it) and every level kernel — keeping the accounting
        identical everywhere it is measured.
        """
        m = seg.n_ops
        counts = seg.counts()
        if seg.base is not None:
            # A nonzero base stands for the head op the naive and
            # compiled kernels write, and counts as one.
            heads = seg.base != 0
            m += int(np.count_nonzero(heads))
            counts += heads.view(np.uint8)
        self.levels += 1
        self.ops_per_level.append(m)
        self.work += m
        self.span_basic += float(counts.max()) if counts.size else 0.0
        self.span_parallel += math.log2(max(m, 2))
        self.peak_level_ops = max(self.peak_level_ops, m)
        self.peak_bytes = max(self.peak_bytes, seg.nbytes + out_nbytes)
        if self.record_segments:
            self.segment_sizes_per_level.append(counts.copy())

    def basic_cost(self) -> Cost:
        """Work/span of basic INCREMENT-AND-FREEZE (Theorem 4.3)."""
        return Cost(self.work, min(self.span_basic, self.work))

    def parallel_cost(self) -> Cost:
        """Work/span of PARALLEL-INCREMENT-AND-FREEZE (Theorem 6.2)."""
        return Cost(self.work, min(self.span_parallel, self.work))


@dataclass
class Segments:
    """A batch of subproblems at one recursion depth.

    ``kind``/``t``/``r`` are the concatenated operation arrays; segment
    ``s`` owns ops ``[starts[s], starts[s+1])`` and the cell interval
    ``[lo[s], hi[s]]``.

    ``w`` generalizes the encoding to **variable-size objects** (the
    Section 9.1 remark): it is the magnitude of each op's "+1 part"
    (``Increment(a, t, w)`` for a Prefix, ``Increment(t, b, w)`` for a
    Postfix).  ``w = None`` means the classic unit-weight algorithm and
    keeps the hot path free of the extra array.

    ``base`` is the fused kernel's headless form of Section 8's head op:
    segment ``s`` first adds ``base[s]`` to every one of its cells, as
    the leading full-interval Prefix the naive kernel writes would.
    ``None`` means every base is 0.  ``seg_of_op`` is each op's segment
    index when the level that wrote the batch carried it, and
    ``int32_exact`` is :func:`certify_int32`'s verdict on the ops once
    someone has run it; ``None`` means not known yet.
    """

    kind: np.ndarray
    t: np.ndarray
    r: np.ndarray
    starts: np.ndarray  # int64, length n_segments + 1
    lo: np.ndarray
    hi: np.ndarray
    w: Optional[np.ndarray] = None
    base: Optional[np.ndarray] = None  # int64, length n_segments
    seg_of_op: Optional[np.ndarray] = None  # int64, length n_ops
    int32_exact: Optional[bool] = None

    @property
    def n_segments(self) -> int:
        return self.lo.size

    @property
    def n_ops(self) -> int:
        return int(self.starts[-1])

    @property
    def nbytes(self) -> int:
        """Logical footprint: bytes of the entries this batch *owns*.

        Computed from ``n_ops``/``n_segments`` and the element widths —
        never from the backing arrays' ``nbytes`` — so workspace-backed
        levels report their own size rather than the (possibly much
        larger) base buffer's.
        """
        per_op = (
            self.kind.itemsize + self.t.itemsize + self.r.itemsize
            + (self.w.itemsize if self.w is not None else 0)
        )
        per_seg = self.lo.itemsize + self.hi.itemsize + (
            self.base.itemsize if self.base is not None else 0)
        return int(
            self.n_ops * per_op
            + self.n_segments * per_seg
            + (self.n_segments + 1) * self.starts.itemsize
        )

    def counts(self) -> np.ndarray:
        return np.diff(self.starts)

    @staticmethod
    def single(
        kind: np.ndarray, t: np.ndarray, r: np.ndarray, lo: int, hi: int,
        w: Optional[np.ndarray] = None, int32_exact: Optional[bool] = None,
    ) -> "Segments":
        """Wrap one op sequence on one interval as a batch of size 1."""
        return Segments(
            kind=np.asarray(kind, dtype=np.uint8),
            t=np.asarray(t),
            r=np.asarray(r),
            starts=np.array([0, len(kind)], dtype=np.int64),
            lo=np.array([lo], dtype=np.int64),
            hi=np.array([hi], dtype=np.int64),
            w=None if w is None else np.asarray(w),
            int32_exact=int32_exact,
        )


class Workspace:
    """Reusable, geometrically-grown buffer pool for the fused and
    compiled kernels.

    One instance double-buffers the per-level operation arrays: level
    ``L`` reads its input from side ``L % 2 ^ 1`` and writes its children
    into side ``L % 2``, so steady-state levels perform **zero** fresh
    array allocations.  Buffers are keyed by ``(name, dtype)``: an
    ``int32``-certified solve and an explicit ``int64`` one on one thread
    keep separate buffers instead of reallocating each other's.  Solves
    get their pool from :func:`thread_workspace`; a workspace must never
    serve two solves at once.

    ``grow_events`` records every allocation as ``(level, name,
    nbytes)`` — the workspace tests assert it goes quiet after the first
    levels, and benchmarks report it as the steady-state allocation
    count.
    """

    __slots__ = ("_buffers", "grow_events", "_arange_filled", "acc_dtype")

    def __init__(self) -> None:
        self._buffers: Dict[Tuple[str, np.dtype], np.ndarray] = {}
        self.grow_events: List[Tuple[int, str, int]] = []
        self._arange_filled = 0
        self.acc_dtype = np.dtype(np.int64)

    def array(self, name: str, size: int, dtype: "np.typing.DTypeLike",
              level: int = -1) -> np.ndarray:
        """A length-``size`` view of the named buffer, growing if needed.

        Growth doubles capacity (with a small floor) so a monotone ramp
        of requests triggers O(log) reallocations total.
        """
        key = (name, np.dtype(dtype))
        buf = self._buffers.get(key)
        if buf is None or buf.size < size:
            cap = size if buf is None else max(size, 2 * buf.size)
            buf = np.empty(max(cap, 64), dtype=key[1])
            self._buffers[key] = buf
            self.grow_events.append((level, name, buf.nbytes))
        return buf[:size]

    @property
    def nbytes(self) -> int:
        """Total bytes currently held by the pool."""
        return sum(b.nbytes for b in self._buffers.values())

    def grow_levels(self) -> List[int]:
        """Level indices at which any buffer (re)allocation happened."""
        return [level for level, _name, _nbytes in self.grow_events]

    def arange(self, size: int, level: int = -1) -> np.ndarray:
        """``np.arange(size)`` served from a pooled buffer.

        The backing buffer is filled in place (a prefix of an arange is
        an arange, so refills only happen after growth) — steady-state
        calls are a slice plus one comparison.
        """
        buf = self.array("arange", size, np.int64, level)
        if size > self._arange_filled:
            full = self._buffers[("arange", buf.dtype)]
            full.fill(1)
            full[0] = 0
            np.cumsum(full, out=full)
            self._arange_filled = full.size
        return buf

    def prime(self, seg: "Segments", backend: str = "fused") -> None:
        """Preallocate every level buffer from the root batch's shape.

        Op-indexed buffers are sized to the root's op count and
        segment-indexed buffers to the total cell count (an upper bound
        on live segments at *any* level, as each owns at least one
        cell).  A fused level writes only its kept ops, and the two
        children keep disjoint sets of the parent's ops, so no level
        outgrows the root; the compiled kernel writes heads as ops and
        gets 1/8 slack.  After priming, a solve's level loop grows no
        buffer; pathological growth still falls back to doubling.
        ``np.empty`` capacity is lazily backed by the OS, so the
        overshoot costs address space, not resident memory.

        ``backend`` selects the buffer set: the compiled kernels reuse
        the same gather buffers and double-buffered sides but replace
        the fused kernel's cluster-sum scratch with one slack scratch
        strip (``ck_*``) sized ops + two head slots per segment.
        """
        compiled = backend == "compiled"
        ops_cap = seg.n_ops + (seg.n_ops // 8 if compiled else 0) + 64
        cells = (
            int((seg.hi - seg.lo + 1).sum()) if seg.n_segments else 0
        )
        seg_cap = cells + 2
        t_dt, r_dt = seg.t.dtype, seg.r.dtype
        weighted = seg.w is not None
        # Narrow ops accumulate natively in their own width whenever
        # certify_int32 proves the solve exact there (its docstring has
        # the proof): no per-chunk upcast, half the traffic per pass.
        acc = _accumulator(seg, backend)
        self.acc_dtype = acc
        self.array("g_kind", ops_cap, np.uint8)
        self.array("g_t", ops_cap, t_dt)
        self.array("g_r", ops_cap, r_dt)
        if weighted:
            self.array("g_w", ops_cap, seg.w.dtype)
        if compiled:
            # Slack scratch strip: every segment's children plus two
            # head slots, then the per-segment counters, the error
            # flag, and the (2x-wide) child side buffers.
            ck_cap = ops_cap + 2 * seg_cap
            self.array("ck_kind", ck_cap, np.uint8)
            self.array("ck_t", ck_cap, t_dt)
            self.array("ck_r", ck_cap, r_dt)
            if weighted:
                self.array("ck_w", ck_cap, seg.w.dtype)
            self.array("ck_cl", seg_cap, np.int64)
            self.array("ck_cr", seg_cap, np.int64)
            self.array("ck_c2", 2 * seg_cap, np.int64)
            self.array("ck_err", 2, np.int64)
            for name in ("p_starts", "mid"):
                self.array(name, seg_cap, np.int64)
            for side in (0, 1):
                self.array(f"kind{side}", ck_cap, np.uint8)
                self.array(f"t{side}", ck_cap, t_dt)
                self.array(f"r{side}", ck_cap, r_dt)
                if weighted:
                    self.array(f"w{side}", ck_cap, seg.w.dtype)
                self.array(f"starts{side}", 2 * seg_cap + 1, np.int64)
                self.array(f"lo{side}", 2 * seg_cap, np.int64)
                self.array(f"hi{side}", 2 * seg_cap, np.int64)
            return
        self.array("c0", ops_cap + 1, acc)
        # Per-level op-indexed scratch (masks, effects, casts), and the
        # segment index a root level rebuilds (a leaf level's
        # first-Postfix positions share it).
        for name in ("isp", "ispf", "full", "mrg", "kept"):
            self.array(name, ops_cap, np.bool_)
        self.array("eff", ops_cap, acc)
        for name in ("mid_op", "hi_op", "tk"):
            self.array(name, ops_cap, t_dt)
        if r_dt != acc:
            self.array("r64", ops_cap, acc)
            self.array("rk", ops_cap, acc)
        if weighted and seg.w.dtype != acc:
            self.array("w64", ops_cap, acc)
        self.array("sidx", ops_cap + 1, np.int64)
        self.arange(ops_cap)
        # Per-child cluster-sum scratch (kept- and segment-indexed); the
        # children run one after the other and share it.
        for name in ("c0k", "r64k"):
            self.array(name, ops_cap, acc)
        for name in ("excl", "first", "leaf_cnt", "leaf_at"):
            self.array(name, seg_cap, np.int64)
        for name in ("leaf_pf", "leaf_write"):
            self.array(name, seg_cap, np.bool_)
        self.array("cse", seg_cap + 1, acc)
        self.array("lead", seg_cap, acc)
        if weighted:
            self.array("leaf_w", seg_cap, seg.w.dtype)
        # Per-level segment-indexed scratch and the double-buffered sides.
        for name in ("p_starts", "p_starts_c", "mid"):
            self.array(name, seg_cap, np.int64)
        for name in ("mid_t", "hi_t"):
            self.array(name, seg_cap, t_dt)
        for side in (0, 1):
            self.array(f"kind{side}", ops_cap, np.uint8)
            self.array(f"t{side}", ops_cap, t_dt)
            self.array(f"r{side}", ops_cap, r_dt)
            if weighted:
                self.array(f"w{side}", ops_cap, seg.w.dtype)
            self.array(f"idx{side}", ops_cap, np.int64)
            for name in ("starts", "lo", "hi", "base"):
                self.array(f"{name}{side}", seg_cap, np.int64)


def _accumulator(seg: Segments, backend: str) -> np.dtype:
    """The fused kernel's cluster-sum width for a solve of ``seg``.

    The batch's own narrow ``r`` dtype when :func:`certify_int32` proves
    the solve exact in it, ``int64`` otherwise (and always for the naive
    and compiled kernels, which sum in ``int64``).  The verdict is kept
    on ``seg``: a root certified by its builder is not certified again.
    """
    r_dt = seg.r.dtype
    if backend != "fused" or r_dt.itemsize >= 8 or not seg.n_ops:
        return np.dtype(np.int64)
    if seg.int32_exact is None:
        seg.int32_exact = certify_int32(int(seg.lo.min()),
                                        int(seg.hi.max()), seg.r, seg.w)
    return r_dt if seg.int32_exact else np.dtype(np.int64)


_THREAD = threading.local()


def thread_workspace() -> Workspace:
    """The calling thread's :class:`Workspace`, created on first use.

    Every fused or compiled level loop runs in it, so the pool lives as
    long as its thread and is sized by that thread's largest solve.
    Threads never share one, which is what makes concurrent solves safe
    without any caller coordination.
    """
    ws = getattr(_THREAD, "workspace", None)
    if ws is None:
        ws = _THREAD.workspace = Workspace()
    return ws


def _solve_leaves(
    seg: Segments,
    leaf_mask: np.ndarray,
    out: np.ndarray,
    ws: Optional[Workspace] = None,
    level: int = -1,
) -> int:
    """Evaluate all size-1 segments in one vectorized pass.

    Writes each leaf's value at ``out[lo]``; returns the number of ops
    consumed (for work accounting), a nonzero base counting as the head
    op it stands for.  A leaf's value is its base plus its ops' part;
    leaves with neither keep value 0 (only the sentinel cell can be
    empty; its value is never read).

    With a workspace, leaf-dominated levels (the deep tail, where most
    ops belong to solved segments) take a dense path that evaluates the
    leaf formula over the level's op arrays in place instead of
    compacting the leaf ops first — fewer passes and no allocations on
    the levels where leaves are the bulk of the work.
    """
    m_all = seg.n_ops
    if ws is not None and m_all:
        n_segs = seg.n_segments
        cnt = ws.array("leaf_cnt", n_segs, np.int64, level)
        np.subtract(seg.starts[1:], seg.starts[:-1], out=cnt)
        leaf_ops = int(np.add.reduce(cnt, where=leaf_mask))
        if 2 * leaf_ops >= m_all:
            return _solve_leaves_dense(seg, leaf_mask, cnt, out, ws, level)
    counts = seg.counts()[leaf_mask]
    starts = seg.starts[:-1][leaf_mask]
    lo = seg.lo[leaf_mask]
    nonempty = counts > 0
    value = np.zeros(lo.size, dtype=np.int64)
    m = 0
    if nonempty.any():
        counts, starts = counts[nonempty], starts[nonempty]
        # Compact the leaf ops into their own contiguous arrays.
        take = _gather_indices(starts, counts)
        kind = seg.kind[take]
        r = seg.r[take].astype(np.int64, copy=False)
        m = kind.size
        new_starts = np.concatenate(
            [np.zeros(1, dtype=np.int64), np.cumsum(counts)]
        )
        if seg.w is None:
            effects = 1 + r
            w_at = np.ones(m, dtype=np.int64)
        else:
            w = seg.w[take].astype(np.int64, copy=False)
            effects = w + r
            w_at = w
        c0 = np.concatenate([np.zeros(1, dtype=np.int64),
                             np.cumsum(effects)])
        pf_idx = np.where(kind == POSTFIX, np.arange(m, dtype=np.int64), m)
        first_pf = np.minimum.reduceat(pf_idx, new_starts[:-1])
        ends = new_starts[1:]
        has_pf = first_pf < ends
        # c0 has m+1 entries, and first_pf <= m always, so both branches
        # index safely even though np.where evaluates them eagerly; the
        # w_at gather clamps first_pf for the no-postfix rows whose value
        # is discarded.
        value[nonempty] = np.where(
            has_pf,
            c0[first_pf] - c0[new_starts[:-1]]
            + w_at[np.minimum(first_pf, m - 1)],
            c0[ends] - c0[new_starts[:-1]],
        )
    write = nonempty
    if seg.base is not None:
        base = seg.base[leaf_mask]
        heads = base != 0
        value += base
        write = nonempty | heads
        m += int(np.count_nonzero(heads))
    out[lo[write]] = value[write]
    return m


def _solve_leaves_dense(
    seg: Segments,
    leaf_mask: np.ndarray,
    cnt: np.ndarray,
    out: np.ndarray,
    ws: Workspace,
    level: int,
) -> int:
    """Leaf-dominated levels: evaluate every segment, write leaf rows.

    A leaf's value is its base plus the sum of its ops' effects up to
    and including the ``w`` part of its first Postfix (or of all ops
    when it has none).  Evaluating that over the level's arrays as-is —
    one effect cumsum plus a segmented first-Postfix ``reduceat`` —
    skips the per-op compaction gather entirely; values computed for
    the few internal segments are simply not written.
    """
    m = seg.n_ops
    n_segs = seg.n_segments
    starts = seg.starts
    acc = ws.acc_dtype
    eff = ws.array("eff", m, acc, level)
    if seg.w is None:
        np.add(seg.r, 1, out=eff)
    else:
        np.add(seg.r, seg.w, out=eff)
    c0 = ws.array("c0", m + 1, acc, level)
    c0[0] = 0
    np.cumsum(eff, out=c0[1:])
    # First in-segment Postfix position, m-padded so trailing empty
    # segments (whose start index equals m) reduce over the sentinel.
    isp = ws.array("isp", m, np.bool_, level)
    np.equal(seg.kind, POSTFIX, out=isp)
    pf = ws.array("sidx", m + 1, np.int64, level)
    # pf[i] = i at a Postfix, m elsewhere: m + (i - m)·[Postfix].
    np.subtract(ws.arange(m, level), m, out=pf[:m])
    np.multiply(pf[:m], isp.view(np.uint8), out=pf[:m])
    np.add(pf[:m], m, out=pf[:m])
    pf[m] = m
    fp = ws.array("mid", n_segs, np.int64, level)
    np.minimum.reduceat(pf, starts[:-1], out=fp)
    has_pf = ws.array("leaf_pf", n_segs, np.bool_, level)
    np.less(fp, starts[1:], out=has_pf)
    # The first Postfix, or the segment's end when it has none.
    sel = np.minimum(fp, starts[1:],
                     out=ws.array("excl", n_segs, np.int64, level))
    value = ws.array("lead", n_segs, acc, level)
    np.take(c0, sel, out=value, mode="wrap")
    c_start = ws.array("cse", n_segs, acc, level)
    np.take(c0, starts[:-1], out=c_start, mode="wrap")
    np.subtract(value, c_start, out=value)
    if seg.w is None:
        np.add(value, has_pf, out=value)
    else:
        np.minimum(fp, m - 1, out=fp)
        w_at = ws.array("leaf_w", n_segs, seg.w.dtype, level)
        np.take(seg.w, fp, out=w_at, mode="wrap")
        np.multiply(w_at, has_pf, out=w_at)
        np.add(value, w_at, out=value)
    # An empty segment's value is 0 here (its start and end coincide).
    write = ws.array("leaf_write", n_segs, np.bool_, level)
    np.greater(cnt, 0, out=write)
    consumed = 0
    if seg.base is not None:
        heads = has_pf  # reuse: leaves whose nonzero base is a head op
        np.not_equal(seg.base, 0, out=heads)
        np.logical_and(heads, leaf_mask, out=heads)
        consumed = int(np.count_nonzero(heads))
        np.logical_or(write, heads, out=write)
    np.logical_and(write, leaf_mask, out=write)
    idx = np.flatnonzero(write)
    lo_w = ws.array("leaf_at", idx.size, np.int64, level)
    np.take(seg.lo, idx, out=lo_w, mode="wrap")
    v_w = ws.array("cse", idx.size, acc, level)
    np.take(value, idx, out=v_w, mode="wrap")
    if seg.base is not None:
        v64 = ws.array("excl", idx.size, np.int64, level)
        np.take(seg.base, idx, out=v64, mode="wrap")
        v_w = np.add(v64, v_w, out=v64)
    out[lo_w] = v_w
    return consumed + int(np.add.reduce(cnt, where=write))


def _gather_indices(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Flat indices selecting ``counts[s]`` items from each ``starts[s]``.

    Standard prefix-sum gather: equivalent to
    ``concatenate([arange(st, st+c) for st, c in zip(starts, counts)])``
    without the Python loop.
    """
    return _gather(starts, counts)[0]


def _gather(starts: np.ndarray,
            counts: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """:func:`_gather_indices` and the ``s`` of each gathered item."""
    total = int(counts.sum())
    if total == 0:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    out_starts = np.concatenate(
        [np.zeros(1, dtype=np.int64), np.cumsum(counts)]
    )
    idx = np.arange(total, dtype=np.int64)
    seg_of = np.repeat(np.arange(starts.size, dtype=np.int64), counts)
    return starts[seg_of] + (idx - out_starts[:-1][seg_of]), seg_of


def _check_head_overflow(encoded: np.ndarray, dtype: np.dtype,
                         what: str = "shrink head effect") -> None:
    """Refuse to write shrink values a narrow ``r`` cannot hold.

    With 32-bit counters (the Section 9.5 fast path) an op batch that
    :func:`certify_int32` does not pass, under a pinned narrow dtype, can
    accumulate a merged-run effect past the dtype's range, in a head or
    in a kept op's ``r``; the silent wrap would corrupt every distance
    downstream of it.  Raising keeps the failure at the first
    unrepresentable write.  A certified solve accumulates in ``r``'s own
    width, so this returns at once.
    """
    if (encoded.size == 0
            or encoded.dtype.itemsize <= np.dtype(dtype).itemsize):
        return  # every encoded value fits by construction
    info = np.iinfo(dtype)
    mx = int(encoded.max())
    mn = int(encoded.min())
    if mx > info.max or mn < info.min:
        bad = mx if mx > info.max else mn
        raise CapacityError(
            f"{what} {bad} does not fit in {np.dtype(dtype)}; "
            f"rerun with dtype=int64 (Section 9.5)"
        )


def _shrink_child(
    kind_c: np.ndarray,
    t_c: np.ndarray,
    r_c: np.ndarray,
    child_hi_op: np.ndarray,
    child_hi_seg: np.ndarray,
    seg_of_op: np.ndarray,
    starts: np.ndarray,
    w_c: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray,
           Optional[np.ndarray]]:
    """Segmented shrink: merge full-interval ops into their predecessors.

    Inputs are one child batch (already projected): per-op arrays, the
    child's upper bound per op and per segment, the op→segment map, and
    the segment offsets.  Returns the shrunk ``(kind, t, r, counts, w)``.

    This is the vectorized cluster-sum of Lemma 6.1: ``mergeable`` ops are
    the zero-flagged pairs carrying effect ``w + r`` (``1 + r`` in the
    unit-weight case); each kept op absorbs the run of mergeable effects
    that follows it (up to the next kept op or its segment's end); a
    leading run becomes a head op unless its net effect is zero.
    """
    m = kind_c.size
    n_segs = child_hi_seg.size
    mergeable = (kind_c == PREFIX) & (t_c == child_hi_op)
    if w_c is None:
        eff = np.where(mergeable, 1 + r_c.astype(np.int64), 0)
    else:
        eff = np.where(
            mergeable, w_c.astype(np.int64) + r_c.astype(np.int64), 0
        )
    c0 = np.concatenate([np.zeros(1, dtype=np.int64), np.cumsum(eff)])
    kept = ~mergeable
    kept_idx = np.flatnonzero(kept)
    k = kept_idx.size

    kept_counts = (
        np.bincount(seg_of_op[kept_idx], minlength=n_segs)
        if k
        else np.zeros(n_segs, dtype=np.int64)
    )
    kcum = np.concatenate(
        [np.zeros(1, dtype=np.int64), np.cumsum(kept_counts)]
    )

    # Run of mergeable ops after each kept op, clipped to its segment.
    if k:
        next_kept = np.empty(k, dtype=np.int64)
        next_kept[:-1] = kept_idx[1:]
        next_kept[-1] = m
        seg_of_kept = seg_of_op[kept_idx]
        boundary = np.minimum(next_kept, starts[seg_of_kept + 1])
        run = c0[boundary] - c0[kept_idx + 1]
        r_kept = r_c[kept_idx].astype(np.int64) + run
    else:
        seg_of_kept = np.zeros(0, dtype=np.int64)
        r_kept = np.zeros(0, dtype=np.int64)

    # Leading run per segment -> head op when its net effect is nonzero.
    first_kept = starts[1:].astype(np.int64).copy()
    has_kept = kept_counts > 0
    if k:
        first_kept[has_kept] = kept_idx[kcum[:-1][has_kept]]
    head_sum = c0[first_kept] - c0[starts[:-1]]
    emit_head = head_sum != 0

    out_counts = kept_counts + emit_head
    out_starts = np.concatenate(
        [np.zeros(1, dtype=np.int64), np.cumsum(out_counts)]
    )
    total = int(out_starts[-1])
    kind_out = np.empty(total, dtype=np.uint8)
    t_out = np.empty(total, dtype=t_c.dtype)
    r_out = np.empty(total, dtype=r_c.dtype)

    w_out = None if w_c is None else np.empty(total, dtype=w_c.dtype)

    head_pos = out_starts[:-1][emit_head]
    kind_out[head_pos] = PREFIX
    t_out[head_pos] = child_hi_seg[emit_head]
    if w_c is None:
        # Unit-weight encoding: a full-interval Prefix(hi, r) has effect
        # 1 + r, so a head of net effect e is written as r = e - 1.
        head_vals = head_sum[emit_head] - 1
        _check_head_overflow(head_vals, r_c.dtype)
        r_out[head_pos] = head_vals.astype(r_c.dtype)
    else:
        # Weighted encoding: heads carry w = 0 and the whole effect in r.
        head_vals = head_sum[emit_head]
        _check_head_overflow(head_vals, r_c.dtype)
        r_out[head_pos] = head_vals.astype(r_c.dtype)
        w_out[head_pos] = 0

    if k:
        rank = np.arange(k, dtype=np.int64) - kcum[:-1][seg_of_kept]
        pos = out_starts[:-1][seg_of_kept] + emit_head[seg_of_kept] + rank
        kind_out[pos] = kind_c[kept_idx]
        t_out[pos] = t_c[kept_idx]
        _check_head_overflow(r_kept, r_c.dtype, "kept op r")
        r_out[pos] = r_kept.astype(r_c.dtype)
        if w_c is not None:
            w_out[pos] = w_c[kept_idx]

    return kind_out, t_out, r_out, out_counts, w_out


def _partition_level(seg: Segments, internal_mask: np.ndarray) -> Segments:
    """One level of the recursion: split every internal segment in half."""
    all_internal = bool(internal_mask.all())
    counts = seg.counts() if all_internal else seg.counts()[internal_mask]
    lo = seg.lo if all_internal else seg.lo[internal_mask]
    hi = seg.hi if all_internal else seg.hi[internal_mask]
    mid = (lo + hi) // 2

    if all_internal:
        # Common case away from the bottom of the recursion: every segment
        # splits, so the op arrays can be used in place (no gather copy).
        kind, t, r, w = seg.kind, seg.t, seg.r, seg.w
        new_starts = seg.starts
    else:
        starts = seg.starts[:-1][internal_mask]
        take = _gather_indices(starts, counts)
        kind = seg.kind[take]
        t = seg.t[take]
        r = seg.r[take]
        w = None if seg.w is None else seg.w[take]
        new_starts = np.concatenate(
            [np.zeros(1, dtype=np.int64), np.cumsum(counts)]
        )
    seg_of_op = np.repeat(np.arange(lo.size, dtype=np.int64), counts)

    mid_op = mid[seg_of_op].astype(t.dtype, copy=False)
    hi_op = hi[seg_of_op].astype(t.dtype, copy=False)
    is_postfix = kind == POSTFIX

    # Left child [lo, mid]: ops with t <= mid are unchanged; others become
    # full-interval Prefixes.  A projected-out Prefix keeps its w+r effect
    # (its "+w part" covered the whole child); a projected-out Postfix
    # contributes only its trailing r.  In the unit-weight encoding the
    # full-interval form Prefix(mid, r') has effect 1 + r', hence the -1s;
    # in the weighted encoding full ops carry w = 0 and the effect in r.
    inside_l = t <= mid_op
    kind_l = np.where(inside_l, kind, PREFIX).astype(np.uint8)
    t_l = np.where(inside_l, t, mid_op)
    if w is None:
        r_l = np.where(inside_l, r, np.where(is_postfix, r - 1, r))
        w_l = None
    else:
        r_l = np.where(inside_l, r, np.where(is_postfix, r, w + r))
        w_l = np.where(inside_l, w, 0)
    kl, tl, rl, counts_l, wl = _shrink_child(
        kind_l, t_l, r_l, mid_op, mid.astype(t.dtype), seg_of_op,
        new_starts, w_l,
    )

    # Right child [mid+1, hi]: mirrored rules.
    inside_r = t > mid_op
    kind_r = np.where(inside_r, kind, PREFIX).astype(np.uint8)
    t_r = np.where(inside_r, t, hi_op)
    if w is None:
        r_r = np.where(inside_r, r, np.where(is_postfix, r, r - 1))
        w_r = None
    else:
        r_r = np.where(inside_r, r, np.where(is_postfix, w + r, r))
        w_r = np.where(inside_r, w, 0)
    kr, tr, rr, counts_r, wr = _shrink_child(
        kind_r, t_r, r_r, hi_op, hi.astype(t.dtype), seg_of_op,
        new_starts, w_r,
    )

    all_counts = np.concatenate([counts_l, counts_r])
    return Segments(
        kind=np.concatenate([kl, kr]),
        t=np.concatenate([tl, tr]),
        r=np.concatenate([rl, rr]),
        starts=np.concatenate(
            [np.zeros(1, dtype=np.int64), np.cumsum(all_counts)]
        ),
        lo=np.concatenate([lo, mid + 1]),
        hi=np.concatenate([mid, hi]),
        w=None if wl is None else np.concatenate([wl, wr]),
    )


def _segment_index(starts: np.ndarray, n_segs: int, ws: Workspace,
                   level: int) -> np.ndarray:
    """Each op's segment index, rebuilt from ``starts``.

    Only a level that carries the index but was not handed one needs
    it: a root, a part of a split, or the first level to carry it after
    levels too large to (see :func:`_partition_level_fused`).
    """
    m = int(starts[-1])
    sidx = ws.array("sidx", m, np.int64, level)
    sidx.fill(0)
    if n_segs > 1 and m:
        # Ones at each later segment's first op, then an inclusive
        # scan.  Empty mid segments yield duplicate boundaries (add.at
        # accumulates); empty *trailing* segments yield boundaries == m,
        # clipped via searchsorted.
        bounds = starts[1:-1]
        nb = int(np.searchsorted(bounds, m, side="left"))
        np.add.at(sidx, bounds[:nb], 1)
        np.cumsum(sidx, out=sidx)
    return sidx


class _LevelOut:
    """One fused level's output arrays, filled child by child."""

    __slots__ = ("kind", "t", "r", "w", "idx", "starts", "base",
                 "check_bases")

    def __init__(self, kind, t, r, w, idx, starts, base, check_bases):
        self.kind = kind
        self.t = t
        self.r = r
        self.w = w
        self.idx = idx
        self.starts = starts
        self.base = base
        #: A pinned narrow ``r`` the solve did not certify: bases must
        #: be checked as the head ops they stand for.
        self.check_bases = check_bases


def _fused_child(
    kept: np.ndarray,
    eff: np.ndarray,
    r64: np.ndarray,
    starts: np.ndarray,
    sidx: np.ndarray,
    s0: int,
    parent_base: Optional[np.ndarray],
    src: Tuple[np.ndarray, np.ndarray, Optional[np.ndarray]],
    c0: np.ndarray,
    out: _LevelOut,
    op0: int,
    seg0: int,
    ws: Workspace,
    level: int,
) -> int:
    """Lemma 6.1's cluster-sum over one child, written as the child.

    ``eff`` already folds the projection rules into the merge effects
    (and is zero on kept ops), so this works directly on the parent's
    arrays.  A kept op's projection is the identity and the child's
    kept ops are ``flatnonzero(kept)`` in order, so their ``kind``,
    ``t`` and ``w`` are gathered straight into ``out`` from ``op0`` on;
    only ``r`` changes, absorbing the merged run after the op up to the
    next kept op or its segment's end.  A segment's *leading* run is a
    uniform increment over cells none of which is frozen yet (a cell's
    freezing Postfix is a kept op of its own segment), so it adds to
    the segment's base instead of becoming a head op.

    ``sidx`` is each op's segment index in the parent level (whose
    chunk starts at segment ``s0``), or ``None`` when the level carries
    no index; the child's segments land from ``seg0`` on, and so does
    the index its kept ops carry out.  Returns the number of kept ops.
    """
    nsc = starts.size - 1
    acc = c0.dtype
    c0[0] = 0
    np.cumsum(eff, out=c0[1:])
    kept_idx = np.flatnonzero(kept)
    k = kept_idx.size
    ops = slice(op0, op0 + k)
    kind, t, w = src
    np.take(kind, kept_idx, out=out.kind[ops], mode="wrap")
    np.take(t, kept_idx, out=out.t[ops], mode="wrap")
    if w is not None:
        np.take(w, kept_idx, out=out.w[ops], mode="wrap")
    idx = (None if sidx is None else
           np.take(sidx, kept_idx, out=out.idx[ops], mode="wrap"))
    # Inclusive kept count per segment, which is also the child's op
    # offsets: one binary search per segment bound while the child
    # keeps at least _SEARCH_OPS ops per segment (or has no index to
    # count), one counting pass over the kept ops' index otherwise.
    incl = out.starts[seg0 + 1:seg0 + nsc + 1]
    if idx is None or _SEARCH_OPS * nsc <= k:
        bounds = np.searchsorted(kept_idx, starts)
        np.copyto(incl, bounds[1:])
        kc = np.diff(bounds)
        if idx is not None and seg0 != s0:
            np.add(idx, seg0 - s0, out=idx)
    else:
        if s0:
            np.subtract(idx, s0, out=idx)
        kc = np.bincount(idx, minlength=nsc)
        np.cumsum(kc, out=incl)
        if seg0:
            np.add(idx, seg0, out=idx)
    # c0 at every segment bound: cse[s] starts segment s, cse[s+1] ends it.
    cse = np.take(c0, starts, out=ws.array("cse", nsc + 1, acc, level),
                  mode="wrap")
    lead = ws.array("lead", nsc, acc, level)
    if k:
        # A leading run ends at the segment's first kept op, or at the
        # segment's end when it keeps none: its next kept op lies past
        # that end, and the segments after the last kept op have none.
        excl = np.subtract(incl, kc, out=ws.array("excl", nsc, np.int64,
                                                  level))
        first = np.take(kept_idx, excl, mode="clip",
                        out=ws.array("first", nsc, np.int64, level))
        np.minimum(first, starts[1:], out=first)
        tail = int(np.searchsorted(excl, k))
        first[tail:] = starts[tail + 1:]
        np.take(c0, first, out=lead, mode="wrap")
        c0k = np.take(c0, kept_idx, out=ws.array("c0k", k, acc, level),
                      mode="wrap")
        # A kept op's run ends at the next kept op (c0 is flat across
        # kept ops, whose effect is zero), except that a segment's last
        # kept op's run ends at the segment's end.
        narrow = out.r.dtype != acc
        rk = ws.array("rk", k, acc, level) if narrow else out.r[ops]
        rk[:-1] = c0k[1:]
        with_kept = np.flatnonzero(kc)
        last = np.take(incl, with_kept)
        np.subtract(last, 1, out=last)
        rk[last] = np.take(cse[1:], with_kept)
        np.subtract(rk, c0k, out=rk)
        r64k = np.take(r64, kept_idx, out=ws.array("r64k", k, acc, level),
                       mode="wrap")
        np.add(rk, r64k, out=rk)
        if narrow:
            _check_head_overflow(rk, out.r.dtype, "kept op r")
            np.copyto(out.r[ops], rk, casting="unsafe")
    else:
        np.copyto(lead, cse[1:])
    np.subtract(lead, cse[:-1], out=lead)
    base = out.base[seg0:seg0 + nsc]
    if parent_base is None:
        np.copyto(base, lead)
    else:
        np.add(parent_base, lead, out=base)
    if out.check_bases:
        # The naive kernel writes a nonzero base as a head op whose r is
        # the base (base - 1 unweighted), and refuses one r cannot hold.
        heads = base[base != 0]
        _check_head_overflow(heads - 1 if w is None else heads, out.r.dtype)
    if op0:
        np.add(incl, op0, out=incl)
    return k


#: Target operations per cache block of the fused level kernel.  The
#: pass pipeline touches roughly a dozen live scratch arrays; blocks of
#: ~64k ops keep that working set inside a per-core L2 even on batched
#: multi-million-op levels, where unblocked passes would stream every
#: array through the last-level cache ~45 times per level.
_LEVEL_CHUNK_OPS = 1 << 16

#: A child counts its kept ops per segment by binary search (cost
#: ~ segments x log kept) while it keeps at least this many per segment,
#: and by a ``bincount`` over their segment index (cost ~ kept) below.
#: Timed per child on 29 K and 65 K kept ops, the two cross at 19-24
#: (docs/PERFORMANCE.md, "Which levels carry the segment index").
_SEARCH_OPS = 20

#: A level larger than one cache block carries each op's segment index
#: only once its segments average fewer than this many ops.  Above
#: that, the index's 8 B per op, written and read back through memory,
#: cost more than the binary searches its children count with instead
#: (a 1 M-access level loop timed per level: the two cross near 16).
_CARRY_OPS = 16


def _level_chunks(
    starts: np.ndarray, n_segs: int, m: int, chunk_ops: int
) -> Tuple[Tuple[int, int], ...]:
    """Consecutive segment ranges holding roughly ``chunk_ops`` ops each.

    Chunk boundaries always align with segment boundaries (a segment is
    the kernel's planning unit), so a single segment larger than
    ``chunk_ops`` forms its own chunk.
    """
    if n_segs <= 1 or m <= chunk_ops:
        return ((0, n_segs),)
    cuts = [0]
    while cuts[-1] < n_segs:
        target = int(starts[cuts[-1]]) + chunk_ops
        nxt = int(np.searchsorted(starts, target, side="right")) - 1
        cuts.append(min(max(nxt, cuts[-1] + 1), n_segs))
    return tuple(zip(cuts[:-1], cuts[1:]))


def _merge_effects(eff: np.ndarray, r64: np.ndarray,
                   w64: Optional[np.ndarray], covers: np.ndarray,
                   mrg: np.ndarray) -> None:
    """``eff = (r + w·covers) · mrg``: each op's merge effect in a child.

    ``covers`` marks the ops whose "+w part" (``+1`` unweighted) covers
    the child; ops outside ``mrg`` (the kept ones) get effect 0.  The
    masks enter the arithmetic as 0/1 bytes, which numpy adds and
    multiplies without a per-element cast.
    """
    covers01 = covers.view(np.uint8)
    if w64 is None:
        np.add(r64, covers01, out=eff)
    else:
        np.multiply(w64, covers01, out=eff)
        np.add(eff, r64, out=eff)
    np.multiply(eff, mrg.view(np.uint8), out=eff)


def _partition_level_fused(
    seg: Segments, internal_mask: np.ndarray, ws: Workspace, level: int
) -> Segments:
    """One recursion level as a fused, cache-blocked pass over the parent.

    Merge masks and cluster-sum effects for *both* children are derived
    directly from the parent's ``kind``/``t``/``r`` — the per-child
    projected arrays of the naive pipeline are folded into the effect
    formula and never built.  The level is *headless*: it writes only
    its kept ops, and a child's leading merged run becomes its
    per-segment ``base`` (parent base + run sum; see
    :func:`_fused_child`) instead of a head op.

    A level that fits one cache block (``chunk_ops``), or whose
    segments average fewer than ``_CARRY_OPS`` ops, carries each op's
    segment index out (``seg_of_op``): it reads each op's midpoint
    through it, its children count kept ops per segment by
    ``bincount`` over it when segments are small, and the next level
    reads it instead of rebuilding it from ``starts`` (a level that
    drops leaves gathers a fresh one).  A larger level streams through
    memory, where the index would add 8 B per op each way to every
    level: it carries none, repeats each segment's midpoint over its
    ops instead, and its children count by binary search.

    The level runs in segment-aligned chunks of ~``_LEVEL_CHUNK_OPS``
    ops (segments are mutually independent), so the scratch arrays of
    the pass pipeline stay cache-resident however large the level is;
    children land chunk-contiguously (``[left, right]`` per chunk) in
    the workspace side ``level % 2``, double-buffered against the
    parent's side.  Every intermediate runs through ``out=`` into
    workspace buffers, except a child's kept positions and, on a level
    that carries no index, the repeated midpoints, which are allocated
    per chunk (and a level that drops leaves gathers fresh indices).
    """
    side = level & 1
    acc = ws.acc_dtype
    all_internal = bool(internal_mask.all())
    base = seg.base
    if all_internal:
        n_segs = seg.n_segments
        lo, hi = seg.lo, seg.hi
        kind, t, r, w = seg.kind, seg.t, seg.r, seg.w
        starts = seg.starts
        sidx = seg.seg_of_op
    else:
        counts = seg.counts()[internal_mask]
        n_segs = counts.size
        lo = seg.lo[internal_mask]
        hi = seg.hi[internal_mask]
        if base is not None:
            base = base[internal_mask]
        take, sidx = _gather(seg.starts[:-1][internal_mask], counts)
        m_in = take.size
        kind = np.take(seg.kind, take,
                       out=ws.array("g_kind", m_in, np.uint8, level), mode="wrap")
        t = np.take(seg.t, take,
                    out=ws.array("g_t", m_in, seg.t.dtype, level), mode="wrap")
        r = np.take(seg.r, take,
                    out=ws.array("g_r", m_in, seg.r.dtype, level), mode="wrap")
        w = (None if seg.w is None else
             np.take(seg.w, take,
                     out=ws.array("g_w", m_in, seg.w.dtype, level), mode="wrap"))
        starts = ws.array("p_starts", n_segs + 1, np.int64, level)
        starts[0] = 0
        np.cumsum(counts, out=starts[1:])
    m = kind.size
    # Narrowed batches halve every op-array's footprint, so twice the
    # ops fit the same cache block.
    chunk_ops = _LEVEL_CHUNK_OPS * (2 if acc.itemsize < 8 else 1)
    carry = m <= chunk_ops or _CARRY_OPS * n_segs > m
    if not carry:
        sidx = None
    elif sidx is None:
        sidx = _segment_index(starts, n_segs, ws, level)

    mid = ws.array("mid", n_segs, np.int64, level)
    np.add(lo, hi, out=mid)
    np.floor_divide(mid, 2, out=mid)
    if t.dtype == np.int64:
        mid_t, hi_t = mid, hi
    else:
        mid_t = ws.array("mid_t", n_segs, t.dtype, level)
        np.copyto(mid_t, mid, casting="unsafe")
        hi_t = ws.array("hi_t", n_segs, t.dtype, level)
        np.copyto(hi_t, hi, casting="unsafe")

    # Each kept op lands in exactly one child (the kept sets are
    # disjoint), so a level's output never outgrows its input.
    out = _LevelOut(
        kind=ws.array(f"kind{side}", m, np.uint8, level),
        t=ws.array(f"t{side}", m, t.dtype, level),
        r=ws.array(f"r{side}", m, r.dtype, level),
        w=None if w is None else ws.array(f"w{side}", m, w.dtype, level),
        idx=ws.array(f"idx{side}", m, np.int64, level),
        starts=ws.array(f"starts{side}", 2 * n_segs + 1, np.int64, level),
        base=ws.array(f"base{side}", 2 * n_segs, np.int64, level),
        check_bases=r.dtype.itemsize < acc.itemsize,
    )
    lo_out = ws.array(f"lo{side}", 2 * n_segs, np.int64, level)
    hi_out = ws.array(f"hi{side}", 2 * n_segs, np.int64, level)
    out.starts[0] = 0

    out_op = 0
    out_seg = 0
    for s0, s1 in _level_chunks(starts, n_segs, m, chunk_ops):
        o0, o1 = int(starts[s0]), int(starts[s1])
        mc, nsc = o1 - o0, s1 - s0
        kind_c, t_c, r_c = kind[o0:o1], t[o0:o1], r[o0:o1]
        w_c = None if w is None else w[o0:o1]
        base_c = None if base is None else base[s0:s1]
        mid_c = mid[s0:s1]
        if o0:
            starts_c = ws.array("p_starts_c", nsc + 1, np.int64, level)
            np.subtract(starts[s0:s1 + 1], o0, out=starts_c)
        else:
            starts_c = starts[s0:s1 + 1]

        if carry:
            sidx_c = sidx[o0:o1]
            mid_op = np.take(mid_t, sidx_c, mode="wrap",
                             out=ws.array("mid_op", mc, t.dtype, level))
        else:
            sidx_c = None
            cnt_c = np.diff(starts_c)
            mid_op = np.repeat(mid_t[s0:s1], cnt_c)
        is_prefix = np.equal(kind_c, PREFIX,
                             out=ws.array("isp", mc, np.bool_, level))
        is_postfix = np.logical_not(
            is_prefix, out=ws.array("ispf", mc, np.bool_, level))
        if r.dtype == acc:
            r64 = r_c
        else:
            r64 = ws.array("r64", mc, acc, level)
            np.copyto(r64, r_c, casting="unsafe")
        if w is None:
            w64 = None
        elif w.dtype == acc:
            w64 = w_c
        else:
            w64 = ws.array("w64", mc, acc, level)
            np.copyto(w64, w_c, casting="unsafe")
        c0 = ws.array("c0", mc + 1, acc, level)
        eff = ws.array("eff", mc, acc, level)
        mrg = ws.array("mrg", mc, np.bool_, level)
        kept = ws.array("kept", mc, np.bool_, level)
        src = (kind_c, t_c, w_c)

        # Left child [lo, mid].  An op is kept iff it lies inside the
        # child and is not a full-interval Prefix (t == mid), that is iff
        # t - [Postfix] < mid; every other op merges.  A mergeable op's
        # effect is r plus its "+w part" when that part covers the child
        # — for the left child, iff the op is a Prefix.
        tk = np.subtract(t_c, is_postfix.view(np.uint8),
                         out=ws.array("tk", mc, t.dtype, level))
        np.less(tk, mid_op, out=kept)
        np.logical_not(kept, out=mrg)
        _merge_effects(eff, r64, w64, is_prefix, mrg)
        k_l = _fused_child(kept, eff, r64, starts_c, sidx_c, s0, base_c, src,
                           c0, out, out_op, out_seg, ws, level)

        # Right child [mid+1, hi]: an op is kept iff t > mid, unless it
        # is a full-interval Prefix (t == hi); a mergeable op's "+w part"
        # covers the child iff it is a Postfix or such a Prefix.  A batch
        # a fused level wrote holds no full-interval Prefix (it merged
        # each one, and a kept Prefix has t < its child's hi), so only a
        # root batch, which has no bases yet, pays for that test.
        np.greater(t_c, mid_op, out=kept)
        covers = is_postfix
        if seg.base is None:
            hi_op = (np.take(hi_t, sidx_c, mode="wrap",
                             out=ws.array("hi_op", mc, t.dtype, level))
                     if carry else np.repeat(hi_t[s0:s1], cnt_c))
            full = np.equal(t_c, hi_op,
                            out=ws.array("full", mc, np.bool_, level))
            np.logical_and(full, is_prefix, out=full)
            np.logical_xor(kept, full, out=kept)  # t == hi > mid: kept
            covers = np.logical_or(full, is_postfix, out=full)
        np.logical_not(kept, out=mrg)
        _merge_effects(eff, r64, w64, covers, mrg)
        k_r = _fused_child(kept, eff, r64, starts_c, sidx_c, s0, base_c, src,
                           c0, out, out_op + k_l, out_seg + nsc, ws, level)

        np.copyto(lo_out[out_seg:out_seg + nsc], lo[s0:s1])
        np.add(mid_c, 1, out=lo_out[out_seg + nsc:out_seg + 2 * nsc])
        np.copyto(hi_out[out_seg:out_seg + nsc], mid_c)
        np.copyto(hi_out[out_seg + nsc:out_seg + 2 * nsc], hi[s0:s1])
        out_op += k_l + k_r
        out_seg += 2 * nsc

    return Segments(kind=out.kind[:out_op], t=out.t[:out_op],
                    r=out.r[:out_op], starts=out.starts, lo=lo_out,
                    hi=hi_out,
                    w=None if out.w is None else out.w[:out_op],
                    base=out.base,
                    seg_of_op=out.idx[:out_op] if carry else None)


def _partition_level_compiled(
    seg: Segments, internal_mask: np.ndarray, ws: Workspace, level: int
) -> Segments:
    """One recursion level via the compiled (numba) partition kernel.

    The kernel runs one serial pass per (segment, child) and prange's
    over segments — the scalar form of the fused kernel's cluster-sum
    shrink, bit-identical by construction (same merge/effect rules,
    int64 accumulation, truncating narrow stores).  Children land in a
    slack scratch strip (two head slots of headroom per segment, so no
    counting pre-pass is needed) and are compacted into the double-
    buffered side arrays.  Unlike the fused kernel's chunk-contiguous
    ``[left…, right…]`` blocks, children interleave per segment
    (``left0, right0, left1, …``) — segment order within a level is
    free: distances are exact either way and the per-level stats are
    multiset-invariant.
    """
    side = level & 1
    all_internal = bool(internal_mask.all())
    if all_internal:
        n_segs = seg.n_segments
        lo, hi = seg.lo, seg.hi
        kind, t, r, w = seg.kind, seg.t, seg.r, seg.w
        starts = seg.starts
    else:
        counts = seg.counts()[internal_mask]
        n_segs = counts.size
        lo = seg.lo[internal_mask]
        hi = seg.hi[internal_mask]
        src_starts = seg.starts[:-1][internal_mask]
        take = _gather_indices(src_starts, counts)
        m_in = take.size
        kind = np.take(seg.kind, take,
                       out=ws.array("g_kind", m_in, np.uint8, level), mode="wrap")
        t = np.take(seg.t, take,
                    out=ws.array("g_t", m_in, seg.t.dtype, level), mode="wrap")
        r = np.take(seg.r, take,
                    out=ws.array("g_r", m_in, seg.r.dtype, level), mode="wrap")
        w = (None if seg.w is None else
             np.take(seg.w, take,
                     out=ws.array("g_w", m_in, seg.w.dtype, level), mode="wrap"))
        starts = ws.array("p_starts", n_segs + 1, np.int64, level)
        starts[0] = 0
        np.cumsum(counts, out=starts[1:])
    m = kind.size

    mid = ws.array("mid", n_segs, np.int64, level)
    np.add(lo, hi, out=mid)
    np.floor_divide(mid, 2, out=mid)
    lo = np.ascontiguousarray(lo)
    hi = np.ascontiguousarray(hi)
    starts = np.ascontiguousarray(starts)

    cap = m + 2 * n_segs
    sck = ws.array("ck_kind", cap, np.uint8, level)
    sct = ws.array("ck_t", cap, t.dtype, level)
    scr = ws.array("ck_r", cap, r.dtype, level)
    cnt_l = ws.array("ck_cl", n_segs, np.int64, level)
    cnt_r = ws.array("ck_cr", n_segs, np.int64, level)
    err = ws.array("ck_err", 2, np.int64, level)
    err[:] = 0
    if r.dtype.itemsize < 8:
        info = np.iinfo(r.dtype)
        check, r_min, r_max = True, int(info.min), int(info.max)
    else:
        check, r_min, r_max = False, 0, 0
    if w is None:
        _compiled.partition_segments(
            kind, t, r, starts, mid, hi, sck, sct, scr,
            cnt_l, cnt_r, err, check, r_min, r_max,
        )
    else:
        scw = ws.array("ck_w", cap, w.dtype, level)
        _compiled.partition_segments_w(
            kind, t, r, w, starts, mid, hi, sck, sct, scr, scw,
            cnt_l, cnt_r, err, check, r_min, r_max,
        )
    if err[0]:
        raise CapacityError(
            f"shrunk op r {int(err[1])} does not fit in "
            f"{r.dtype}; rerun with dtype=int64 (Section 9.5)"
        )

    counts2 = ws.array("ck_c2", 2 * n_segs, np.int64, level)
    counts2[0::2] = cnt_l
    counts2[1::2] = cnt_r
    starts_out = ws.array(f"starts{side}", 2 * n_segs + 1, np.int64, level)
    starts_out[0] = 0
    np.cumsum(counts2, out=starts_out[1:])
    total = int(starts_out[-1])

    kind_out = ws.array(f"kind{side}", cap, np.uint8, level)
    t_out = ws.array(f"t{side}", cap, t.dtype, level)
    r_out = ws.array(f"r{side}", cap, r.dtype, level)
    if w is None:
        w_out = None
        _compiled.compact_children(sck, sct, scr, starts, cnt_l, cnt_r,
                                   starts_out, kind_out, t_out, r_out)
    else:
        w_out = ws.array(f"w{side}", cap, w.dtype, level)
        _compiled.compact_children_w(sck, sct, scr, scw, starts, cnt_l,
                                     cnt_r, starts_out, kind_out, t_out,
                                     r_out, w_out)

    lo_out = ws.array(f"lo{side}", 2 * n_segs, np.int64, level)
    hi_out = ws.array(f"hi{side}", 2 * n_segs, np.int64, level)
    lo_out[0::2] = lo
    np.add(mid, 1, out=lo_out[1::2])
    hi_out[0::2] = mid
    hi_out[1::2] = hi
    return Segments(kind=kind_out[:total], t=t_out[:total],
                    r=r_out[:total], starts=starts_out, lo=lo_out,
                    hi=hi_out,
                    w=None if w_out is None else w_out[:total])


def _solve_leaves_compiled(seg: Segments, out: np.ndarray) -> int:
    """Leaf pass via the compiled kernel (leaves detected by lo == hi)."""
    starts = np.ascontiguousarray(seg.starts)
    lo = np.ascontiguousarray(seg.lo)
    hi = np.ascontiguousarray(seg.hi)
    if seg.w is None:
        consumed = _compiled.solve_leaf_segments(
            seg.kind, seg.r, starts, lo, hi, out,
        )
    else:
        consumed = _compiled.solve_leaf_segments_w(
            seg.kind, seg.r, seg.w, starts, lo, hi, out,
        )
    return int(consumed)


def _with_heads(seg: Segments) -> Segments:
    """``seg`` with each nonzero base written back as its head op.

    A split level hands its parts to one-worker loops on threads or to
    the process executor, whose op format has no bases: each part gets
    the leading full-interval Prefix the naive kernel keeps there, so
    the parts and the executor protocol stay as they are.  A head's
    ``r`` fits the batch's dtype: its base was certified or checked
    when its level made it.
    """
    if seg.base is None:
        return seg
    heads = seg.base != 0
    if not heads.any():
        return Segments(kind=seg.kind, t=seg.t, r=seg.r, starts=seg.starts,
                        lo=seg.lo, hi=seg.hi, w=seg.w)
    counts = seg.counts() + heads
    starts = np.zeros(counts.size + 1, dtype=np.int64)
    np.cumsum(counts, out=starts[1:])
    total = int(starts[-1])
    head_pos = starts[:-1][heads]
    is_op = np.ones(total, dtype=np.bool_)
    is_op[head_pos] = False

    def merged(ops: np.ndarray, head_vals) -> np.ndarray:
        arr = np.empty(total, dtype=ops.dtype)
        arr[is_op] = ops
        arr[head_pos] = head_vals
        return arr

    vals = seg.base[heads]
    if seg.w is None:
        vals = vals - 1  # unit-weight head: effect e is Prefix(hi, e - 1)
    return Segments(
        kind=merged(seg.kind, PREFIX),
        t=merged(seg.t, seg.hi[heads].astype(seg.t.dtype)),
        r=merged(seg.r, vals.astype(seg.r.dtype)),
        starts=starts, lo=seg.lo, hi=seg.hi,
        w=None if seg.w is None else merged(seg.w, 0),
    )


def _split_segments(seg: Segments, groups: int) -> List[Segments]:
    """Cut a segment batch into ≤ ``groups`` contiguous, op-balanced parts.

    Subproblems are independent, so any partition of the segment list is
    valid.  Each part owns copies of its slices: the batch being cut is a
    level of the calling thread's workspace, which the next solve on that
    thread (the process executor's inline rungs) overwrites.
    """
    counts = seg.counts().tolist()
    target = max(1, sum(counts) // groups)
    cuts = [0]
    acc = 0
    for s, c in enumerate(counts):
        acc += c
        # The last part takes whatever the first groups - 1 leave.
        if acc >= target and len(cuts) < groups:
            cuts.append(s + 1)
            acc = 0
    if cuts[-1] < len(counts):
        cuts.append(len(counts))
    parts = []
    for s0, s1 in zip(cuts, cuts[1:]):
        o0, o1 = int(seg.starts[s0]), int(seg.starts[s1])
        parts.append(Segments(
            kind=seg.kind[o0:o1].copy(),
            t=seg.t[o0:o1].copy(),
            r=seg.r[o0:o1].copy(),
            starts=seg.starts[s0:s1 + 1] - o0,
            lo=seg.lo[s0:s1].copy(),
            hi=seg.hi[s0:s1].copy(),
            w=None if seg.w is None else seg.w[o0:o1].copy(),
        ))
    return parts


def _merge_part_stats(
    stats: EngineStats, part_stats: List[EngineStats]
) -> None:
    """Fold per-part :class:`EngineStats` into the caller's accumulator.

    Work adds up; levels/spans take the critical path (the max over the
    concurrent parts); ``peak_level_ops``/``peak_bytes`` take the max; and
    ``ops_per_level`` sums elementwise by level, so the merged profile
    reads as if the levels had run level-synchronously across all parts.
    """
    for ps in part_stats:
        stats.work += ps.work
        stats.peak_level_ops = max(stats.peak_level_ops, ps.peak_level_ops)
        stats.peak_bytes = max(stats.peak_bytes, ps.peak_bytes)
    stats.levels += max((ps.levels for ps in part_stats), default=0)
    stats.span_basic += max((ps.span_basic for ps in part_stats), default=0.0)
    stats.span_parallel += max(
        (ps.span_parallel for ps in part_stats), default=0.0
    )
    depth = max((len(ps.ops_per_level) for ps in part_stats), default=0)
    for lvl in range(depth):
        stats.ops_per_level.append(
            sum(
                ps.ops_per_level[lvl]
                for ps in part_stats
                if lvl < len(ps.ops_per_level)
            )
        )


def _solve_parts(
    parts: List[Segments],
    out: np.ndarray,
    workers: int,
    executor: "Optional[ProcessExecutor]",
    stats: Optional[EngineStats],
    backend: str,
) -> None:
    """Solve the parts of one split level, each with a one-worker loop.

    Parts own disjoint cell intervals, so they write disjoint cells of
    ``out``.  With an executor they go through ``executor.solve_parts``
    and record no stats.  On threads, each part runs in its thread's
    own workspace, and with tracing enabled emits a ``parallel.worker``
    span from its thread (wall ≫ cpu there means the part was GIL-bound
    — the Section-6 scaling diagnosis at a glance).
    """
    if executor is not None:
        executor.solve_parts(parts, out, engine_backend=backend)
        return
    part_stats = [EngineStats() for _ in parts]
    tracer = get_tracer()
    traced = tracer.enabled

    def run(i: int) -> None:
        part = parts[i]
        span = (
            tracer.span("parallel.worker", worker=i,
                        n_segments=part.n_segments, n_ops=part.n_ops)
            if traced
            else NULL_SPAN
        )
        with span:
            solve_prepost_arrays(part, out, stats=part_stats[i],
                                 engine_backend=backend)

    with ThreadPoolExecutor(max_workers=workers) as pool:
        list(pool.map(run, range(len(parts))))
    if stats is not None:
        span = (tracer.span("parallel.merge_stats", parts=len(parts))
                if traced else NULL_SPAN)
        with span:
            _merge_part_stats(stats, part_stats)


def solve_prepost_arrays(
    seg: Segments,
    out: np.ndarray,
    *,
    stats: Optional[EngineStats] = None,
    memory: Optional[MemoryModel] = None,
    engine_backend: Optional[str] = None,
    workers: int = 1,
    executor: "Optional[ProcessExecutor]" = None,
) -> None:
    """Run the level-synchronous recursion until every segment is solved.

    ``out`` must cover all cells referenced by the segments (it is indexed
    by absolute cell positions).  Values of empty segments stay 0.

    ``engine_backend`` selects the level kernel (``"fused"``,
    ``"naive"``, or ``"compiled"``; all bit-identical — see the module
    docstring; ``None`` means the process default per
    :func:`resolve_engine_backend`).  The fused and compiled kernels run
    in the calling thread's :func:`thread_workspace`, so ``seg`` must not
    be a view of that workspace's buffers.

    ``workers > 1`` is Theorem 4.3's subtree parallelism.  Levels run
    here as usual until one holds at least ``4 * workers`` segments.
    That level's bases are written back as head ops
    (:func:`_with_heads`), it is cut into ``workers`` op-balanced parts,
    and each part is solved by this loop at one worker: on a thread
    pool, or through
    ``executor.solve_parts`` when an ``executor`` (a
    :class:`~repro.parallel_exec.ProcessExecutor`) is given.  The output
    does not depend on ``workers``; ``stats`` gets the parts' levels
    merged by :func:`_merge_part_stats` on threads, and none from an
    executor.  ``memory`` observes only the levels run here.

    When the current :mod:`repro.obs` tracer is enabled, every recursion
    level emits an ``engine.level`` span (attrs: level index, segment and
    op counts); disabled tracing costs one shared no-op context manager
    per level — O(log n) per run, not per access.
    """
    if workers < 1:
        raise CapacityError(f"workers must be >= 1, got {workers}")
    split_at = 4 * workers if workers > 1 else math.inf
    backend = resolve_engine_backend(engine_backend)
    fused = backend == "fused"
    workspace = None
    if backend != "naive" and seg.n_segments < split_at:
        workspace = thread_workspace()
        workspace.prime(seg, backend=backend)
    tracer = get_tracer()
    traced = tracer.enabled
    level = 0
    while seg.n_segments:
        if seg.n_segments >= split_at:
            _solve_parts(_split_segments(_with_heads(seg), workers), out,
                         workers, executor, stats, backend)
            break
        span = (
            tracer.span("engine.level", level=level,
                        n_segments=seg.n_segments, n_ops=seg.n_ops)
            if traced
            else NULL_SPAN
        )
        with span:
            if stats is not None:
                stats.record_level(seg, out.nbytes)
            if memory is not None:
                memory.observe("engine.segments", seg.nbytes)
            leaf_mask = seg.lo == seg.hi
            if leaf_mask.any():
                if backend == "compiled":
                    consumed = _solve_leaves_compiled(seg, out)
                else:
                    consumed = _solve_leaves(
                        seg, leaf_mask, out,
                        ws=workspace if fused else None, level=level,
                    )
                if stats is not None:
                    stats.work += consumed
            internal = ~leaf_mask
            done = not internal.any()
            if not done:
                if backend == "compiled":
                    seg = _partition_level_compiled(
                        seg, internal, workspace, level
                    )
                elif fused:
                    seg = _partition_level_fused(seg, internal, workspace,
                                                 level)
                else:
                    seg = _partition_level(seg, internal)
        if done:
            break
        level += 1
    if memory is not None:
        memory.observe("engine.segments", 0)


def _root_ops(
    arr: np.ndarray, prev: np.ndarray, dtype: Optional[np.dtype]
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``arr``'s ops at its solve's width.

    A pinned ``dtype`` is honored.  Otherwise the ops are built as int32
    and kept when :func:`certify_int32` passes, which it does for any
    trace short of ~2³⁰ accesses; past that they are rebuilt as int64.
    So unpinned ops come back int32 exactly when certified.
    """
    if dtype is not None:
        return prepost_sequence_arrays(arr, dtype=dtype, prev=prev)
    n = arr.size
    if n <= np.iinfo(np.int32).max:
        kind, t, r = prepost_sequence_arrays(arr, dtype=np.int32, prev=prev)
        if certify_int32(0, n, r):
            return kind, t, r
    return prepost_sequence_arrays(arr, dtype=np.int64, prev=prev)


def _width_attrs(seg: Segments, backend: str) -> Dict[str, str]:
    """The ``width``/``acc`` span attributes of a solve of ``seg``."""
    return {"width": str(seg.r.dtype),
            "acc": str(_accumulator(seg, backend))}


def iaf_distances(
    trace: TraceLike,
    *,
    dtype: Optional["np.typing.DTypeLike"] = None,
    stats: Optional[EngineStats] = None,
    memory: Optional[MemoryModel] = None,
    engine_backend: Optional[str] = None,
    prev: Optional[np.ndarray] = None,
    workers: int = 1,
    executor: "Optional[ProcessExecutor]" = None,
) -> np.ndarray:
    """Backward distance vector of ``trace`` via the vectorized engine.

    0-based: ``out[i]`` counts the distinct addresses in
    ``trace[i : next(i)]`` (entries whose address never recurs hold the
    distinct count of the remaining suffix instead; they are ignored by
    curve construction, mirroring Lemma 4.1's accounting).

    ``dtype=None`` reads the trace as int64 addresses and solves it in
    int32 ops and an int32 accumulator whenever :func:`certify_int32`
    proves that exact; an explicit ``dtype`` pins addresses, ops and
    accumulator alike (the Section 9.5 width knob).  The distances are
    the same either way.

    ``prev`` is the trace's ``prev`` array when the caller already holds
    it (it needs it for its curve); otherwise the trace is sorted here,
    once, by :func:`prev_next_arrays` under ``engine_backend``.
    ``workers``/``executor`` split the level loop across threads or
    processes as :func:`solve_prepost_arrays` describes; the distances
    are the same for every choice.
    """
    dt = None if dtype is None else validate_dtype(dtype)
    arr = as_trace(trace, dtype=dt)
    n = arr.size
    engine_backend = resolve_engine_backend(engine_backend)
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    tracer = get_tracer()
    traced = tracer.enabled
    with tracer.span("iaf.preprocess", n=n) if traced else NULL_SPAN:
        if prev is None:
            prev, _ = prev_next_arrays(arr, engine_backend=engine_backend)
        kind, t, r = _root_ops(arr, prev, dt)
        # Not held across the level loop: a prev sorted here is freed.
        prev = None
    if memory is not None:
        memory.allocate("engine.trace", int(arr.nbytes))
    values = np.zeros(n + 1, dtype=np.int64)  # cell 0 is the sentinel
    # The level loop gets the only reference to the root ops, so they
    # are freed once level 0 has partitioned them: the peak of a solve
    # then holds one level's ops, not the root's as well.
    root = [Segments.single(
        kind, t, r, 0, n,
        int32_exact=None if dt is not None else r.dtype == np.int32,
    )]
    del kind, t, r
    span = (tracer.span("iaf.solve", n=n, backend=engine_backend,
                        **_width_attrs(root[0], engine_backend))
            if traced else NULL_SPAN)
    with span:
        solve_prepost_arrays(root.pop(), values, stats=stats, memory=memory,
                             engine_backend=engine_backend, workers=workers,
                             executor=executor)
    if memory is not None:
        memory.free("engine.trace", int(arr.nbytes))
    return values[1:]


def iaf_hit_rate_curve(
    trace: TraceLike,
    *,
    dtype: Optional["np.typing.DTypeLike"] = None,
    stats: Optional[EngineStats] = None,
    memory: Optional[MemoryModel] = None,
    engine_backend: Optional[str] = None,
) -> HitRateCurve:
    """Full pipeline: pre-process, distance computation, post-process.

    The trace is sorted once: its ``prev`` builds the operations and
    then selects the distances the curve counts.  ``dtype`` is
    :func:`iaf_distances`'.
    """
    arr = as_trace(trace, dtype=dtype)
    prev = preprocess_prev(arr, engine_backend=engine_backend)
    d = iaf_distances(arr, dtype=dtype, stats=stats, memory=memory,
                      engine_backend=engine_backend, prev=prev)
    return postprocess_curve(d, prev)


def preprocess_prev(
    trace: np.ndarray, *, engine_backend: Optional[str] = None
) -> np.ndarray:
    """The one sort of a solve whose caller keeps ``prev`` for its curve.

    Runs :func:`prev_next_arrays` under an ``iaf.preprocess`` span and
    keeps only ``prev``; pass it to the distance function (which then
    opens a second ``iaf.preprocess`` span for the op construction) and
    to :func:`postprocess_curve`.
    """
    tracer = get_tracer()
    span = (tracer.span("iaf.preprocess", n=int(trace.size))
            if tracer.enabled else NULL_SPAN)
    with span:
        prev, _ = prev_next_arrays(trace, engine_backend=engine_backend)
    return prev


def postprocess_curve(d: np.ndarray, prev: np.ndarray) -> HitRateCurve:
    """Backward distances → curve under the ``iaf.postprocess`` span.

    Only the histogram runs here: ``prev`` comes from the solve's one
    sort, and ``d[prev[prev >= 0]]`` is the multiset ``d[next < n]``.
    """
    tracer = get_tracer()
    span = (tracer.span("iaf.postprocess", n=int(d.size))
            if tracer.enabled else NULL_SPAN)
    with span:
        return curve_from_backward_distances(d, prev=prev)


# ---------------------------------------------------------------------------
# Batched multi-trace solving (the serving-throughput form)
# ---------------------------------------------------------------------------


def certify_int32(lo: int, hi: int, r: np.ndarray,
                  w: Optional[np.ndarray] = None) -> bool:
    """Whether a batch of ops solves bit-identically in int32.

    The level loop's one width rule: when it holds, the ops may be
    stored as int32 *and* the fused kernel may accumulate in int32.
    Every position (``t`` and the cell bounds) must lie in ``[lo, hi]``,
    which must fit, and ``w`` (when weighted) must be ``>= 0``.  The
    values then stay exact in two steps:

    1. Every value the kernel stores — a kept op's ``r``, a head (a
       fused level's base), a leaf's distance — is a sum over distinct
       ops of the batch: each op lands in one run of each child
       segment, and a child op sums one run.  (A fused level reads
       a base's leading run from ``c0`` too, and adds it to the
       parent's base in int64.)  Each op contributes ``r`` or
       ``r + 1`` (``r`` or ``r + w`` when weighted), or just its
       ``+1`` (``w``) as a leaf's freezing Postfix.  So every stored
       value lies in ``[Σ min(r, 0) − 1, Σ max(r, 0) + #ops]``, with
       ``Σw`` in place of ``#ops`` when weighted; the ``− 1`` is a
       unit head's ``e − 1`` encoding.  Both ends must fit int32.  For
       a trace's own ops (``r`` is ``−1`` or ``0``) that is
       ``[−#ops − 1, #ops]``.
    2. The kernel's running sum ``c0`` spans every segment of a level
       chunk, so it can exceed int32 and wrap.  It is only read as a
       difference of two positions inside one segment, and each such
       difference is a value of step 1.  int32 arithmetic is exact
       modulo 2³², so the wrap cancels.

    Every engine solve whose caller pinned no ``dtype`` applies this
    rule to its root ops, once: the builder keeps the verdict on the
    root (``Segments.int32_exact``), and :meth:`Workspace.prime` reads
    it for the accumulator (running the rule itself only on a root
    whose builder did not).
    """
    i32 = np.iinfo(np.int32)
    if lo < i32.min or hi > i32.max:
        return False
    for arr in (r, w):
        # Wide values past int32 could overflow the int64 sums below.
        if arr is not None and arr.size and arr.dtype.itemsize > 4 and (
                int(arr.max()) > i32.max or int(arr.min()) < i32.min):
            return False
    neg = int(np.minimum(r, 0).sum(dtype=np.int64))
    pos = int(r.sum(dtype=np.int64)) - neg
    if w is None:
        pos += r.size
    else:
        if w.size and int(w.min()) < 0:
            return False
        pos += int(w.sum(dtype=np.int64))
    return neg - 1 >= i32.min and pos <= i32.max


def batch_segments(
    traces: Sequence[TraceLike],
    *,
    dtype: Optional["np.typing.DTypeLike"] = None,
    prevs: Optional[Sequence[np.ndarray]] = None,
) -> Tuple[List[np.ndarray], Segments, np.ndarray, int]:
    """Seed one :class:`Segments` batch with one root segment per trace.

    Trace ``i`` owns the disjoint cell interval ``[bases[i], bases[i] +
    n_i]`` (its own sentinel plus ``n_i`` distance cells) in one shared
    output array, and its operations' ``t`` coordinates are rebased
    accordingly — so a single level loop carries all ``k`` traces and
    every vectorized pass is amortized across them.

    When ``dtype`` is omitted, the traces are int64 addresses and the
    op arrays are int32 whenever :func:`certify_int32` certifies the
    batch's solve exact there: every position fits (``total_cells - 1``)
    and so do the batch's stored values.  Half the per-pass memory
    traffic, bit-identical distances.  An explicit ``dtype`` is always
    honored.

    ``prevs`` holds each trace's ``prev`` when the caller sorted them
    already (as :func:`iaf_distances` takes ``prev``); otherwise each
    trace is sorted here.

    Returns ``(validated traces, segments, bases, total_cells)``.
    """
    auto = dtype is None
    dt = validate_dtype(dtype)
    arrs = [as_trace(t, dtype=dt) for t in traces]
    sizes = np.array([a.size for a in arrs], dtype=np.int64)
    bases = np.zeros(len(arrs) + 1, dtype=np.int64)
    if len(arrs):
        np.cumsum(sizes + 1, out=bases[1:])
    total_cells = int(bases[-1])
    if total_cells and total_cells - 1 > np.iinfo(dt).max:
        raise CapacityError(
            f"batch of {len(arrs)} traces spans {total_cells} cells, "
            f"which does not fit in {dt}; use dtype=int64"
        )
    # Auto width builds int32 ops whenever the positions fit, then
    # certifies them (widening only a batch of ~2³⁰ accesses or more).
    narrow = auto and total_cells - 1 <= np.iinfo(np.int32).max
    op_dt = np.dtype(np.int32) if narrow else dt
    kinds: List[np.ndarray] = []
    ts: List[np.ndarray] = []
    rs: List[np.ndarray] = []
    if prevs is None:
        prevs = [None] * len(arrs)
    for arr, prev, base in zip(arrs, prevs, bases[:-1].tolist()):
        kind, t, r = prepost_sequence_arrays(arr, dtype=op_dt, prev=prev)
        if base:
            t += op_dt.type(base)
        kinds.append(kind)
        ts.append(t)
        rs.append(r)
    op_counts = np.array([k.size for k in kinds], dtype=np.int64)
    starts = np.zeros(len(arrs) + 1, dtype=np.int64)
    if len(arrs):
        np.cumsum(op_counts, out=starts[1:])
    t_all = np.concatenate(ts) if ts else np.zeros(0, dtype=op_dt)
    r_all = np.concatenate(rs) if rs else np.zeros(0, dtype=op_dt)
    certified = None
    if narrow:
        certified = certify_int32(0, total_cells - 1, r_all)
        if not certified:
            t_all = t_all.astype(np.int64)
            r_all = r_all.astype(np.int64)
    seg = Segments(
        kind=np.concatenate(kinds) if kinds else np.zeros(0, dtype=np.uint8),
        t=t_all,
        r=r_all,
        starts=starts,
        lo=bases[:-1].copy(),
        hi=bases[:-1] + sizes,
        int32_exact=certified,
    )
    return arrs, seg, bases, total_cells


def iaf_distances_batch(
    traces: Sequence[TraceLike],
    *,
    dtype: Optional["np.typing.DTypeLike"] = None,
    stats: Optional[EngineStats] = None,
    memory: Optional[MemoryModel] = None,
    engine_backend: Optional[str] = None,
    prevs: Optional[Sequence[np.ndarray]] = None,
    workers: int = 1,
) -> List[np.ndarray]:
    """Backward distance vectors of ``k`` independent traces in one solve.

    Identical output to ``[iaf_distances(t) for t in traces]`` — each
    trace's segments never interact with another's (the cluster-sums are
    segmented and the cell intervals disjoint) — but all traces share
    every level's vectorized passes, so the per-level numpy dispatch cost
    is paid once per *batch* instead of once per trace.  ``prevs`` are
    the traces' ``prev`` arrays when the caller holds them (see
    :func:`batch_segments`).  With ``workers > 1`` the roots are already
    ``k`` independent segments, so for ``k >= 4 * workers`` the split of
    :func:`solve_prepost_arrays` happens at level 0: each thread owns a
    contiguous group of traces.
    """
    engine_backend = resolve_engine_backend(engine_backend)
    arrs, seg, bases, total_cells = batch_segments(traces, dtype=dtype,
                                                   prevs=prevs)
    if not arrs:
        return []
    tracer = get_tracer()
    values = np.zeros(total_cells, dtype=np.int64)
    if memory is not None:
        memory.allocate("engine.trace",
                        int(sum(a.nbytes for a in arrs)))
    span = (
        tracer.span("iaf.solve_batch", k=len(arrs),
                    n=int(sum(a.size for a in arrs)),
                    backend=engine_backend,
                    **_width_attrs(seg, engine_backend))
        if tracer.enabled
        else NULL_SPAN
    )
    with span:
        solve_prepost_arrays(seg, values, stats=stats, memory=memory,
                             engine_backend=engine_backend, workers=workers)
    if memory is not None:
        memory.free("engine.trace", int(sum(a.nbytes for a in arrs)))
    return [
        values[base + 1 : base + 1 + arr.size]
        for arr, base in zip(arrs, bases[:-1].tolist())
    ]


def iaf_hit_rate_curves_batch(
    traces: Sequence[TraceLike],
    *,
    dtype: Optional["np.typing.DTypeLike"] = None,
    stats: Optional[EngineStats] = None,
    engine_backend: Optional[str] = None,
) -> List[HitRateCurve]:
    """Exact LRU hit-rate curves of ``k`` traces in one batched solve.

    The serving primitive: many concurrent curve requests (the SHARDS-
    style workload of many small/medium traces) ride one level loop.
    Curves are identical to ``[iaf_hit_rate_curve(t) for t in traces]``.
    """
    arrs = [as_trace(t, dtype=dtype) for t in traces]
    prevs = [preprocess_prev(a, engine_backend=engine_backend)
             for a in arrs]
    distances = iaf_distances_batch(arrs, dtype=dtype, stats=stats,
                                    engine_backend=engine_backend,
                                    prevs=prevs)
    return [postprocess_curve(d, prev) for d, prev in zip(distances, prevs)]
