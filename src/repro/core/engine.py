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

Two interchangeable level kernels implement the partition step:

* ``"fused"`` (default) — one pass per level computes both children's
  merge masks and cluster-sums directly from the *parent* arrays (the
  projection rules are folded into the merge-effect formula, so the
  projected child arrays are never materialized) and writes the children
  into a reusable double-buffered :class:`Workspace`.  Steady-state
  levels allocate no fresh op arrays.
* ``"naive"`` — the original three-function pipeline
  (:func:`_partition_level` + two :func:`_shrink_child` calls), kept
  bit-identical as a differential-testing oracle for the fused kernel
  (see :mod:`repro.qa`).

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
        self.levels += 1
        self.ops_per_level.append(m)
        self.work += m
        counts = seg.counts()
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
    """

    kind: np.ndarray
    t: np.ndarray
    r: np.ndarray
    starts: np.ndarray  # int64, length n_segments + 1
    lo: np.ndarray
    hi: np.ndarray
    w: Optional[np.ndarray] = None

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
        per_seg = self.lo.itemsize + self.hi.itemsize
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
        w: Optional[np.ndarray] = None,
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

        Op-indexed buffers are sized to the root's op count (plus 1/8
        slack — levels only shrink in practice, since every emitted head
        replaces a merged run) and segment-indexed buffers to the total
        cell count (an upper bound on live segments at *any* level, as
        each owns at least one cell).  After priming, a solve's level
        loop performs no allocations; pathological growth still falls
        back to doubling.  ``np.empty`` capacity is lazily backed by the
        OS, so the overshoot costs address space, not resident memory.

        ``backend`` selects the buffer set: the compiled kernels reuse
        the same gather buffers and double-buffered sides but replace
        the fused kernel's cluster-sum scratch with one slack scratch
        strip (``ck_*``) sized ops + two head slots per segment.
        """
        ops_cap = seg.n_ops + seg.n_ops // 8 + 64
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
        if backend == "compiled":
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
        # Per-level op-indexed scratch (masks, effects, casts, scatters).
        for name in ("isp", "insl", "tmpb", "mrg", "kept"):
            self.array(name, ops_cap, np.bool_)
        self.array("eff", ops_cap, acc)
        self.array("seg_of_op", ops_cap, np.int64)
        self.array("mid_op", ops_cap, t_dt)
        self.array("hi_op", ops_cap, t_dt)
        if r_dt != acc:
            self.array("r64", ops_cap, acc)
        if weighted and seg.w.dtype != acc:
            self.array("w64", ops_cap, acc)
        self.array("sc_kind", ops_cap, np.uint8)
        self.array("sc_t", ops_cap, t_dt)
        if weighted:
            self.array("sc_w", ops_cap, seg.w.dtype)
        self.arange(ops_cap)
        # Per-child cluster-sum scratch (k- and segment-indexed).
        for tag in ("l", "r"):
            for name in ("sok", "pos"):
                self.array(f"{tag}_{name}", ops_cap, np.int64)
            for name in ("nk", "ktmp", "rk"):
                self.array(f"{tag}_{name}", ops_cap, acc)
            for name in ("kcx", "fk", "stmp", "oc", "os", "hc", "hpos"):
                self.array(f"{tag}_{name}", seg_cap, np.int64)
            for name in ("hs", "cs", "hval"):
                self.array(f"{tag}_{name}", seg_cap, acc)
            self.array(f"{tag}_ht", seg_cap, t_dt)
            for name in ("hk", "eh"):
                self.array(f"{tag}_{name}", seg_cap, np.bool_)
        if weighted:
            self.array("l_wf", seg_cap, seg.w.dtype)
        # Per-level segment-indexed scratch and the double-buffered sides.
        # Side op arrays carry the capacity bound of a level's children
        # (every kept op plus up to two heads per segment).
        for name in ("p_starts", "p_starts_c", "mid"):
            self.array(name, seg_cap, np.int64)
        for name in ("mid_t", "hi_t"):
            self.array(name, seg_cap, t_dt)
        side_cap = ops_cap + seg_cap
        for side in (0, 1):
            self.array(f"kind{side}", side_cap, np.uint8)
            self.array(f"t{side}", side_cap, t_dt)
            self.array(f"r{side}", side_cap, r_dt)
            if weighted:
                self.array(f"w{side}", side_cap, seg.w.dtype)
            self.array(f"starts{side}", seg_cap, np.int64)
            self.array(f"lo{side}", seg_cap, np.int64)
            self.array(f"hi{side}", seg_cap, np.int64)


def _accumulator(seg: Segments, backend: str) -> np.dtype:
    """The fused kernel's cluster-sum width for a solve of ``seg``.

    The batch's own narrow ``r`` dtype when :func:`certify_int32` proves
    the solve exact in it, ``int64`` otherwise (and always for the naive
    and compiled kernels, which sum in ``int64``).
    """
    r_dt = seg.r.dtype
    if (backend == "fused" and r_dt.itemsize < 8 and seg.n_ops
            and certify_int32(int(seg.lo.min()), int(seg.hi.max()),
                              seg.r, seg.w)):
        return r_dt
    return np.dtype(np.int64)


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
    consumed (for work accounting).  Empty leaves keep value 0 (only the
    sentinel cell can be empty; its value is never read).

    With a workspace, leaf-dominated levels (the deep tail, where most
    ops belong to solved segments) take a dense path that evaluates the
    leaf formula over the level's op arrays in place instead of
    compacting the leaf ops first — fewer passes and no allocations on
    the levels where leaves are the bulk of the work.
    """
    m_all = seg.n_ops
    if ws is not None and m_all:
        n_segs = seg.n_segments
        cnt = ws.array("l_stmp", n_segs, np.int64, level)
        np.subtract(seg.starts[1:], seg.starts[:-1], out=cnt)
        leaf_ops = int(np.add.reduce(cnt, where=leaf_mask))
        if leaf_ops == 0:
            return 0
        if 2 * leaf_ops >= m_all:
            return _solve_leaves_dense(seg, leaf_mask, cnt, out, ws, level)
    counts = seg.counts()[leaf_mask]
    starts = seg.starts[:-1][leaf_mask]
    lo = seg.lo[leaf_mask]
    nonempty = counts > 0
    if not nonempty.any():
        return 0
    counts, starts, lo = counts[nonempty], starts[nonempty], lo[nonempty]
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
    c0 = np.concatenate([np.zeros(1, dtype=np.int64), np.cumsum(effects)])
    pf_idx = np.where(kind == POSTFIX, np.arange(m, dtype=np.int64), m)
    first_pf = np.minimum.reduceat(pf_idx, new_starts[:-1])
    ends = new_starts[1:]
    has_pf = first_pf < ends
    # c0 has m+1 entries, and first_pf <= m always, so both branches index
    # safely even though np.where evaluates them eagerly; the w_at gather
    # clamps first_pf for the no-postfix rows whose value is discarded.
    value = np.where(
        has_pf,
        c0[first_pf] - c0[new_starts[:-1]]
        + w_at[np.minimum(first_pf, m - 1)],
        c0[ends] - c0[new_starts[:-1]],
    )
    out[lo] = value
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

    A leaf's value is the sum of its ops' effects up to and including
    the ``w`` part of its first Postfix (or of all ops when it has
    none).  Evaluating that over the level's arrays as-is — one effect
    cumsum plus a segmented first-Postfix ``reduceat`` — skips the
    per-op compaction gather entirely; values computed for the few
    internal segments are simply not written.
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
    pf = ws.array("seg_of_op", m + 1, np.int64, level)
    pf.fill(m)
    np.copyto(pf[:m], ws.arange(m, level), where=isp)
    fp = ws.array("mid", n_segs, np.int64, level)
    np.minimum.reduceat(pf, starts[:-1], out=fp)
    has_pf = ws.array("l_hk", n_segs, np.bool_, level)
    np.less(fp, starts[1:], out=has_pf)
    sel = ws.array("l_fk", n_segs, np.int64, level)
    np.copyto(sel, starts[1:])
    np.copyto(sel, fp, where=has_pf)
    value = ws.array("l_hs", n_segs, acc, level)
    np.take(c0, sel, out=value, mode="wrap")
    c_start = ws.array("l_cs", n_segs, acc, level)
    np.take(c0, starts[:-1], out=c_start, mode="wrap")
    np.subtract(value, c_start, out=value)
    if seg.w is None:
        np.add(value, has_pf, out=value)
    else:
        np.minimum(fp, m - 1, out=fp)
        w_at = ws.array("l_wf", n_segs, seg.w.dtype, level)
        np.take(seg.w, fp, out=w_at, mode="wrap")
        np.multiply(w_at, has_pf, out=w_at)
        np.add(value, w_at, out=value)
    write = ws.array("r_hk", n_segs, np.bool_, level)
    np.greater(cnt, 0, out=write)
    np.logical_and(write, leaf_mask, out=write)
    idx = np.flatnonzero(write)
    lo_w = ws.array("l_hpos", idx.size, np.int64, level)
    np.take(seg.lo, idx, out=lo_w, mode="wrap")
    v_w = ws.array("l_hval", idx.size, acc, level)
    np.take(value, idx, out=v_w, mode="wrap")
    out[lo_w] = v_w
    return int(np.add.reduce(cnt, where=write))


def _gather_indices(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Flat indices selecting ``counts[s]`` items from each ``starts[s]``.

    Standard prefix-sum gather: equivalent to
    ``concatenate([arange(st, st+c) for st, c in zip(starts, counts)])``
    without the Python loop.
    """
    total = int(counts.sum())
    if total == 0:
        return np.zeros(0, dtype=np.int64)
    out_starts = np.concatenate(
        [np.zeros(1, dtype=np.int64), np.cumsum(counts)]
    )
    idx = np.arange(total, dtype=np.int64)
    seg_of = np.repeat(np.arange(starts.size, dtype=np.int64), counts)
    return starts[seg_of] + (idx - out_starts[:-1][seg_of])


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


class _ChildPlan:
    """Cluster-sum results for one child, pending the output write."""

    __slots__ = ("kept_idx", "seg_of_kept", "r_kept", "head_sum",
                 "emit_head", "out_counts", "total")

    def __init__(self, kept_idx, seg_of_kept, r_kept, head_sum, emit_head,
                 out_counts):
        self.kept_idx = kept_idx
        self.seg_of_kept = seg_of_kept
        self.r_kept = r_kept
        self.head_sum = head_sum
        self.emit_head = emit_head
        self.out_counts = out_counts
        self.total = int(out_counts.sum())


def _fused_plan_child(
    tag: str,
    kept: np.ndarray,
    eff: np.ndarray,
    r64: np.ndarray,
    starts: np.ndarray,
    seg_of_op: np.ndarray,
    n_segs: int,
    c0: np.ndarray,
    ws: Workspace,
    level: int,
) -> _ChildPlan:
    """Lemma 6.1's cluster-sum over one child, without materializing it.

    ``eff`` already folds the projection rules into the merge effects
    (and is zero on kept ops), so this works directly on the parent's
    arrays; every intermediate lives in a ``tag``-prefixed workspace
    buffer, so the only fresh allocations are the two whose size is the
    data (``flatnonzero`` and ``bincount``).
    """
    m = eff.size
    acc = c0.dtype
    c0[0] = 0
    np.cumsum(eff, out=c0[1:])
    kept_idx = np.flatnonzero(kept)
    k = kept_idx.size
    if k:
        seg_of_kept = np.take(
            seg_of_op, kept_idx, out=ws.array(f"{tag}_sok", k, np.int64,
                                              level)
        , mode="wrap")
        kept_counts = np.bincount(seg_of_kept, minlength=n_segs)
        kcum_excl = ws.array(f"{tag}_kcx", n_segs, np.int64, level)
        kcum_excl[0] = 0
        np.cumsum(kept_counts[:-1], out=kcum_excl[1:])
        has_kept = np.greater(
            kept_counts, 0, out=ws.array(f"{tag}_hk", n_segs, np.bool_,
                                         level)
        )
        # A kept op's merge run ends at the next kept op in its segment,
        # and c0 is flat across kept ops (their effect is zero), so the
        # run-sum is the shifted difference of c0 sampled at the kept
        # positions; only each segment's *last* kept op — whose run
        # extends to the segment end instead — needs a patch below.
        c0k = ws.array(f"{tag}_nk", k, acc, level)
        np.take(c0, kept_idx, out=c0k, mode="wrap")
        r_kept = ws.array(f"{tag}_rk", k, acc, level)
        r_kept[:-1] = c0k[1:]
        r_kept[-1] = 0
        np.subtract(r_kept, c0k, out=r_kept)
        r64k = ws.array(f"{tag}_ktmp", k, acc, level)
        np.take(r64, kept_idx, out=r64k, mode="wrap")
        np.add(r_kept, r64k, out=r_kept)
        last_rank = ws.array(f"{tag}_stmp", n_segs, np.int64, level)
        np.add(kcum_excl, kept_counts, out=last_rank)
        np.subtract(last_rank, 1, out=last_rank)
        lr = last_rank[has_kept]
        r_kept[lr] = c0[starts[1:]][has_kept] - c0k[lr] + r64k[lr]
    else:
        seg_of_kept = np.zeros(0, dtype=np.int64)
        kept_counts = np.zeros(n_segs, dtype=np.int64)
        r_kept = np.zeros(0, dtype=acc)
    first_kept = ws.array(f"{tag}_fk", n_segs, np.int64, level)
    np.copyto(first_kept, starts[1:])
    if k:
        stmp = ws.array(f"{tag}_stmp", n_segs, np.int64, level)
        np.minimum(kcum_excl, k - 1, out=stmp)
        np.take(kept_idx, stmp, out=stmp, mode="wrap")
        np.copyto(first_kept, stmp, where=has_kept)
    head_sum = ws.array(f"{tag}_hs", n_segs, acc, level)
    np.take(c0, first_kept, out=head_sum, mode="wrap")
    c_start = ws.array(f"{tag}_cs", n_segs, acc, level)
    np.take(c0, starts[:-1], out=c_start, mode="wrap")
    np.subtract(head_sum, c_start, out=head_sum)
    emit_head = np.not_equal(
        head_sum, 0, out=ws.array(f"{tag}_eh", n_segs, np.bool_, level)
    )
    out_counts = ws.array(f"{tag}_oc", n_segs, np.int64, level)
    np.add(kept_counts, emit_head, out=out_counts)
    return _ChildPlan(kept_idx, seg_of_kept, r_kept, head_sum, emit_head,
                      out_counts)


def _fused_write_child(
    plan: _ChildPlan,
    tag: str,
    kind: np.ndarray,
    t: np.ndarray,
    w: Optional[np.ndarray],
    head_t: np.ndarray,
    base: int,
    kind_out: np.ndarray,
    t_out: np.ndarray,
    r_out: np.ndarray,
    w_out: Optional[np.ndarray],
    ws: Workspace,
    level: int,
) -> None:
    """Scatter one planned child into the level's output arrays.

    Heads and kept ops land at ``base + local position``; kept ops gather
    their ``kind``/``t``/``w`` straight from the *parent* arrays (a kept
    op's projection is the identity — only its ``r`` absorbed a run).
    """
    emit_head = plan.emit_head
    n_segs = emit_head.size
    out_starts = ws.array(f"{tag}_os", n_segs, np.int64, level)
    out_starts[0] = 0
    np.cumsum(plan.out_counts[:-1], out=out_starts[1:])
    eh_idx = np.flatnonzero(emit_head)
    h = eh_idx.size
    if h:
        head_pos = ws.array(f"{tag}_hpos", h, np.int64, level)
        np.take(out_starts, eh_idx, out=head_pos, mode="wrap")
        if base:
            np.add(head_pos, base, out=head_pos)
        kind_out[head_pos] = PREFIX
        ht = ws.array(f"{tag}_ht", h, head_t.dtype, level)
        np.take(head_t, eh_idx, out=ht, mode="wrap")
        t_out[head_pos] = ht
        head_vals = ws.array(f"{tag}_hval", h, plan.head_sum.dtype, level)
        np.take(plan.head_sum, eh_idx, out=head_vals, mode="wrap")
        if w_out is None:
            # Unit-weight encoding: a full-interval Prefix(hi, r) has
            # effect 1 + r, so a head of net effect e is written r = e-1.
            np.subtract(head_vals, 1, out=head_vals)
        _check_head_overflow(head_vals, r_out.dtype)
        r_out[head_pos] = head_vals
        if w_out is not None:
            w_out[head_pos] = 0
    k = plan.kept_idx.size
    if k:
        # Position of kept op j is its global kept-rank plus the number of
        # heads emitted in segments up to and including its own.
        hcum = ws.array(f"{tag}_hc", n_segs, np.int64, level)
        np.cumsum(emit_head, out=hcum)
        pos = ws.array(f"{tag}_pos", k, np.int64, level)
        np.take(hcum, plan.seg_of_kept, out=pos, mode="wrap")
        np.add(pos, ws.arange(k, level), out=pos)
        if base:
            np.add(pos, base, out=pos)
        sc_kind = ws.array("sc_kind", k, np.uint8, level)
        np.take(kind, plan.kept_idx, out=sc_kind, mode="wrap")
        kind_out[pos] = sc_kind
        sc_t = ws.array("sc_t", k, t.dtype, level)
        np.take(t, plan.kept_idx, out=sc_t, mode="wrap")
        t_out[pos] = sc_t
        _check_head_overflow(plan.r_kept, r_out.dtype, "kept op r")
        r_out[pos] = plan.r_kept
        if w_out is not None:
            sc_w = ws.array("sc_w", k, w.dtype, level)
            np.take(w, plan.kept_idx, out=sc_w, mode="wrap")
            w_out[pos] = sc_w


#: Target operations per cache block of the fused level kernel.  The
#: pass pipeline touches roughly a dozen live scratch arrays; blocks of
#: ~64k ops keep that working set inside a per-core L2 even on batched
#: multi-million-op levels, where unblocked passes would stream every
#: array through the last-level cache ~45 times per level.
_LEVEL_CHUNK_OPS = 1 << 16


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


def _partition_level_fused(
    seg: Segments, internal_mask: np.ndarray, ws: Workspace, level: int
) -> Segments:
    """One recursion level as a fused, cache-blocked pass over the parent.

    Merge masks and cluster-sum effects for *both* children are derived
    directly from the parent's ``kind``/``t``/``r`` over one shared
    ``seg_of_op``/``starts`` set — the per-child projected arrays of the
    naive pipeline are folded into the effect formula and never built.
    The level runs in segment-aligned chunks of ~``_LEVEL_CHUNK_OPS``
    ops (segments are mutually independent), so the scratch arrays of
    the pass pipeline stay cache-resident however large the level is;
    children land chunk-contiguously (``[left, right]`` per chunk) in
    the workspace side ``level % 2``, double-buffered against the
    parent's side.  Every intermediate runs through ``out=`` into
    workspace buffers: in steady state a level allocates nothing whose
    size is O(ops).
    """
    side = level & 1
    acc = ws.acc_dtype
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
    if t.dtype == np.int64:
        mid_t, hi_t = mid, hi
    else:
        mid_t = ws.array("mid_t", n_segs, t.dtype, level)
        np.copyto(mid_t, mid, casting="unsafe")
        hi_t = ws.array("hi_t", n_segs, t.dtype, level)
        np.copyto(hi_t, hi, casting="unsafe")

    # Output capacity: each kept op lands in exactly one child (the kept
    # sets are disjoint), plus at most one head per child per segment.
    cap = m + 2 * n_segs
    kind_out = ws.array(f"kind{side}", cap, np.uint8, level)
    t_out = ws.array(f"t{side}", cap, t.dtype, level)
    r_out = ws.array(f"r{side}", cap, r.dtype, level)
    w_out = (None if w is None
             else ws.array(f"w{side}", cap, w.dtype, level))
    starts_out = ws.array(f"starts{side}", 2 * n_segs + 1, np.int64, level)
    lo_out = ws.array(f"lo{side}", 2 * n_segs, np.int64, level)
    hi_out = ws.array(f"hi{side}", 2 * n_segs, np.int64, level)
    starts_out[0] = 0

    # Narrowed batches halve every op-array's footprint, so twice the
    # ops fit the same cache block.
    chunk_ops = _LEVEL_CHUNK_OPS * (2 if acc.itemsize < 8 else 1)
    out_op = 0
    out_seg = 0
    for s0, s1 in _level_chunks(starts, n_segs, m, chunk_ops):
        o0, o1 = int(starts[s0]), int(starts[s1])
        mc, nsc = o1 - o0, s1 - s0
        kind_c, t_c, r_c = kind[o0:o1], t[o0:o1], r[o0:o1]
        w_c = None if w is None else w[o0:o1]
        mid_c = mid[s0:s1]
        mid_t_c, hi_t_c = mid_t[s0:s1], hi_t[s0:s1]
        if o0:
            starts_c = ws.array("p_starts_c", nsc + 1, np.int64, level)
            np.subtract(starts[s0:s1 + 1], o0, out=starts_c)
        else:
            starts_c = starts[s0:s1 + 1]

        seg_of_op = ws.array("seg_of_op", mc, np.int64, level)
        seg_of_op.fill(0)
        if nsc > 1 and mc:
            # Ones at each later segment's first op, then an inclusive
            # scan.  Empty mid segments yield duplicate boundaries
            # (add.at accumulates); empty *trailing* segments yield
            # boundaries == mc, clipped via searchsorted.
            bounds = starts_c[1:-1]
            nb = int(np.searchsorted(bounds, mc, side="left"))
            np.add.at(seg_of_op, bounds[:nb], 1)
            np.cumsum(seg_of_op, out=seg_of_op)
        mid_op = np.take(mid_t_c, seg_of_op,
                         out=ws.array("mid_op", mc, t.dtype, level), mode="wrap")
        hi_op = np.take(hi_t_c, seg_of_op,
                        out=ws.array("hi_op", mc, t.dtype, level), mode="wrap")
        is_prefix = np.equal(kind_c, PREFIX,
                             out=ws.array("isp", mc, np.bool_, level))
        inside_l = np.less_equal(t_c, mid_op,
                                 out=ws.array("insl", mc, np.bool_, level))
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
        tmpb = ws.array("tmpb", mc, np.bool_, level)
        kept = ws.array("kept", mc, np.bool_, level)

        # Left child [lo, mid].  Ops projected out of the child (t > mid)
        # and in-child full-interval Prefixes (t == mid) are exactly the
        # mergeable set; a mergeable op's effect is r plus its "+w part"
        # when that part covers the child — for the left child, iff the
        # op is a Prefix.
        np.equal(t_c, mid_op, out=tmpb)
        np.logical_and(tmpb, is_prefix, out=tmpb)
        np.logical_not(inside_l, out=mrg)
        np.logical_or(mrg, tmpb, out=mrg)
        np.logical_not(mrg, out=kept)
        if w64 is None:
            np.add(r64, is_prefix, out=eff)
        else:
            np.multiply(w64, is_prefix, out=eff)
            np.add(eff, r64, out=eff)
        np.multiply(eff, mrg, out=eff)
        plan_l = _fused_plan_child("l", kept, eff, r64, starts_c,
                                   seg_of_op, nsc, c0, ws, level)

        # Right child [mid+1, hi]: the "+w part" covers the child iff the
        # op is a Postfix or lives inside the child (a Prefix at t == hi).
        np.equal(t_c, hi_op, out=tmpb)
        np.logical_and(tmpb, is_prefix, out=tmpb)
        np.logical_or(inside_l, tmpb, out=mrg)
        np.logical_not(mrg, out=kept)
        covers_r = tmpb  # reuse: covers_r = ~(is_prefix & inside_l)
        np.logical_and(is_prefix, inside_l, out=covers_r)
        np.logical_not(covers_r, out=covers_r)
        if w64 is None:
            np.add(r64, covers_r, out=eff)
        else:
            np.multiply(w64, covers_r, out=eff)
            np.add(eff, r64, out=eff)
        np.multiply(eff, mrg, out=eff)
        plan_r = _fused_plan_child("r", kept, eff, r64, starts_c,
                                   seg_of_op, nsc, c0, ws, level)

        _fused_write_child(plan_l, "l", kind_c, t_c, w_c, mid_t_c, out_op,
                           kind_out, t_out, r_out, w_out, ws, level)
        _fused_write_child(plan_r, "r", kind_c, t_c, w_c, hi_t_c,
                           out_op + plan_l.total,
                           kind_out, t_out, r_out, w_out, ws, level)

        so = starts_out[out_seg:out_seg + 2 * nsc + 1]
        np.cumsum(plan_l.out_counts, out=so[1:nsc + 1])
        np.cumsum(plan_r.out_counts, out=so[nsc + 1:])
        if out_op:
            np.add(so[1:nsc + 1], out_op, out=so[1:nsc + 1])
        np.add(so[nsc + 1:], out_op + plan_l.total, out=so[nsc + 1:])
        np.copyto(lo_out[out_seg:out_seg + nsc], lo[s0:s1])
        np.add(mid_c, 1, out=lo_out[out_seg + nsc:out_seg + 2 * nsc])
        np.copyto(hi_out[out_seg:out_seg + nsc], mid_c)
        np.copyto(hi_out[out_seg + nsc:out_seg + 2 * nsc], hi[s0:s1])
        out_op += plan_l.total + plan_r.total
        out_seg += 2 * nsc

    return Segments(kind=kind_out[:out_op], t=t_out[:out_op],
                    r=r_out[:out_op], starts=starts_out, lo=lo_out,
                    hi=hi_out,
                    w=None if w_out is None else w_out[:out_op])


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
    That level is cut into ``workers`` op-balanced parts, and each part
    is solved by this loop at one worker: on a thread pool, or through
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
            _solve_parts(_split_segments(seg, workers), out, workers,
                         executor, stats, backend)
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
    root = [Segments.single(kind, t, r, 0, n)]
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

    1. Every value the kernel stores — a kept op's ``r``, a head, a
       leaf's distance — is a sum over distinct ops of the batch: each
       op lands in one run of each child segment, and a child op sums
       one run.  Each op contributes ``r`` or ``r + 1`` (``r`` or
       ``r + w`` when weighted), or just its ``+1`` (``w``) as a
       leaf's freezing Postfix.  So every stored value lies in
       ``[Σ min(r, 0) − 1, Σ max(r, 0) + #ops]``, with ``Σw`` in
       place of ``#ops`` when weighted; the ``− 1`` is a unit head's
       ``e − 1`` encoding.  Both ends must fit int32.  For a trace's own ops
       (``r`` is ``−1`` or ``0``) that is ``[−#ops − 1, #ops]``.
    2. The kernel's running sum ``c0`` spans every segment of a level
       chunk, so it can exceed int32 and wrap.  It is only read as a
       difference of two positions inside one segment, and each such
       difference is a value of step 1.  int32 arithmetic is exact
       modulo 2³², so the wrap cancels.

    Every engine solve whose caller pinned no ``dtype`` applies this
    rule to its root ops, and :meth:`Workspace.prime` to its
    accumulator.
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
    if narrow and not certify_int32(0, total_cells - 1, r_all):
        t_all = t_all.astype(np.int64)
        r_all = r_all.astype(np.int64)
    seg = Segments(
        kind=np.concatenate(kinds) if kinds else np.zeros(0, dtype=np.uint8),
        t=t_all,
        r=r_all,
        starts=starts,
        lo=bases[:-1].copy(),
        hi=bases[:-1] + sizes,
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
