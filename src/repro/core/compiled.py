"""Optional compiled (numba) kernels for the engine level loop.

The fused backend (PR 3) is one numpy pass per level, but every op still
moves through a dozen full-array temporaries.  The paper's C++
implementation instead runs tight OpenMP loops over packed 8-byte Ops;
this module is the python-side equivalent: plain-python kernels written
in nopython-compatible style, jitted with :func:`numba.njit` when numba
is importable and runnable un-jitted otherwise.

Design rules (mirrored by ``tests/core/test_engine_compiled.py``):

* **Optional dependency.**  numba is detected once at import.  Without
  it the kernels stay plain python — far too slow for production, but
  bit-identical, which is what the differential tests need.  Set
  ``REPRO_COMPILED_PURE=1`` to declare the pure kernels "available" so
  the suite can exercise the compiled code path on numba-less hosts;
  otherwise ``engine_backend="compiled"`` degrades to ``"fused"`` with
  one warning (see :func:`repro.core.engine.resolve_engine_backend`).
* **Bit identity.**  Every kernel accumulates in int64 and stores with
  numpy's unsafe-cast (two's-complement truncating) semantics, exactly
  like the fused kernel's ``np.add(..., out=narrow)`` writes, so the
  certified-int32 mode wraps identically.  An ``r`` store out of the
  narrow range (a head effect or a kept op's ``r``) is *checked* (flag
  array, raised as ``CapacityError`` by the caller) just like
  ``_check_head_overflow``.
* **prange layout.**  The partition kernel parallelizes over segments
  — independent child partitions within one level, and independent
  traces in a batched solve (``batch_segments`` seeds one segment per
  trace).  Each segment owns the disjoint scratch slice
  ``[starts[s] + 2s, starts[s+1] + 2(s+1))`` (its ops plus two head
  slots), so parallel writes never overlap; a racy write to the shared
  error flag is benign (any offending value wins).
"""

from __future__ import annotations

import os

import numpy as np

try:  # pragma: no cover - exercised by the CI numba leg
    import numba
    from numba import njit, prange

    NUMBA_AVAILABLE = True
except ImportError:  # pragma: no cover - default path in the dev container
    numba = None
    NUMBA_AVAILABLE = False
    prange = range

    def njit(*args, **kwargs):  # noqa: D103 - identity fallback
        if args and callable(args[0]):
            return args[0]

        def wrap(fn):
            return fn

        return wrap


#: Environment knob: truthy values declare the un-jitted kernels
#: available so ``engine_backend="compiled"`` runs (slowly) without
#: numba.  Read dynamically so tests can monkeypatch it.
PURE_ENV = "REPRO_COMPILED_PURE"

#: Op kinds, numerically identical to ``repro.core.ops``.
PREFIX = 0
POSTFIX = 1


def pure_mode_forced() -> bool:
    """True when ``REPRO_COMPILED_PURE`` requests the un-jitted kernels."""
    return os.environ.get(PURE_ENV, "").strip().lower() not in (
        "", "0", "false", "no",
    )


def is_available() -> bool:
    """True when ``engine_backend="compiled"`` can actually run."""
    return NUMBA_AVAILABLE or pure_mode_forced()


def jit_enabled() -> bool:
    """True when the kernels are actually jitted (numba importable)."""
    return NUMBA_AVAILABLE


def set_threads(n: int) -> None:
    """Bound the prange thread pool (no-op without numba)."""
    if NUMBA_AVAILABLE:
        numba.set_num_threads(max(1, int(n)))


def max_threads() -> int:
    """Threads prange may use (1 without numba)."""
    if NUMBA_AVAILABLE:
        return int(numba.get_num_threads())
    return 1


# ---------------------------------------------------------------------------
# Partition kernels: one serial pass per (segment, child), prange over
# segments.  Merge/effect rules are copied from _partition_level_fused
# (see that function for the derivation); the state machine below is the
# scalar form of its cluster-sum shrink:
#
#   head  — sum of merged effects before the first kept op, emitted as
#           one covering Prefix(mid|hi, ·) when nonzero
#   racc  — kept-op accumulator absorbing every merged effect that
#           follows it, flushed at the next kept op / segment end
# ---------------------------------------------------------------------------


@njit(cache=True)
def _narrow_r(v, err, check, r_min, r_max):
    """``v`` for a store into the narrow ``r`` dtype ``[r_min, r_max]``.

    A value outside it sets ``err`` (slot 0 the flag, slot 1 the value),
    and the level then raises :class:`~repro.errors.CapacityError`, as
    the fused kernel does for a head or a kept op's ``r``.  The value is
    still wrapped (two's complement), because a plain out-of-range
    store truncates under numba but raises ``OverflowError`` in the
    pure-python fallback.
    """
    if check and (v > r_max or v < r_min):
        err[0] = 1
        err[1] = v
        span = r_max - r_min + 1
        v = (v - r_min) % span + r_min
    return v


@njit(cache=True, parallel=True)
def partition_segments(kind, t, r, starts, mid, hi,
                       sck, sct, scr, cnt_l, cnt_r,
                       err, check_r, r_min, r_max):
    """Unit-weight partition of every segment into its two children.

    Children land contiguously (left then right) in the scratch arrays
    at offset ``starts[s] + 2*s``; ``cnt_l``/``cnt_r`` receive the
    child op counts.  ``err`` is a 2-slot flag array: slot 0 set when a
    stored ``r`` (a head effect minus one, or a kept op's ``r`` with its
    merged run) falls outside ``[r_min, r_max]`` (only checked when
    ``check_r``), slot 1 holds the offending value.
    """
    n_segs = mid.shape[0]
    for s in prange(n_segs):
        b = starts[s]
        e = starts[s + 1]
        base = b + 2 * s
        m_v = mid[s]
        h_v = hi[s]

        # --- left child [lo, mid] -------------------------------------
        pos = base
        head = np.int64(0)
        seen = False
        cur_k = np.uint8(0)
        cur_t = np.int64(0)
        cur_r = np.int64(0)
        for i in range(b, e):
            tv = np.int64(t[i])
            pf = kind[i] == PREFIX
            if tv > m_v or (pf and tv == m_v):
                ev = np.int64(r[i]) + (1 if pf else 0)
                if seen:
                    cur_r += ev
                else:
                    head += ev
            else:
                if seen:
                    sck[pos] = cur_k
                    sct[pos] = cur_t
                    scr[pos] = _narrow_r(cur_r, err, check_r, r_min, r_max)
                    pos += 1
                else:
                    if head != 0:
                        hv = head - 1
                        sck[pos] = PREFIX
                        sct[pos] = m_v
                        scr[pos] = _narrow_r(hv, err, check_r, r_min, r_max)
                        pos += 1
                    seen = True
                cur_k = kind[i]
                cur_t = tv
                cur_r = np.int64(r[i])
        if seen:
            sck[pos] = cur_k
            sct[pos] = cur_t
            scr[pos] = _narrow_r(cur_r, err, check_r, r_min, r_max)
            pos += 1
        elif head != 0:
            hv = head - 1
            sck[pos] = PREFIX
            sct[pos] = m_v
            scr[pos] = _narrow_r(hv, err, check_r, r_min, r_max)
            pos += 1
        cnt_l[s] = pos - base

        # --- right child (mid, hi] ------------------------------------
        rbase = pos
        head = np.int64(0)
        seen = False
        for i in range(b, e):
            tv = np.int64(t[i])
            pf = kind[i] == PREFIX
            inside_l = tv <= m_v
            if inside_l or (pf and tv == h_v):
                ev = np.int64(r[i]) + (0 if (pf and inside_l) else 1)
                if seen:
                    cur_r += ev
                else:
                    head += ev
            else:
                if seen:
                    sck[pos] = cur_k
                    sct[pos] = cur_t
                    scr[pos] = _narrow_r(cur_r, err, check_r, r_min, r_max)
                    pos += 1
                else:
                    if head != 0:
                        hv = head - 1
                        sck[pos] = PREFIX
                        sct[pos] = h_v
                        scr[pos] = _narrow_r(hv, err, check_r, r_min, r_max)
                        pos += 1
                    seen = True
                cur_k = kind[i]
                cur_t = tv
                cur_r = np.int64(r[i])
        if seen:
            sck[pos] = cur_k
            sct[pos] = cur_t
            scr[pos] = _narrow_r(cur_r, err, check_r, r_min, r_max)
            pos += 1
        elif head != 0:
            hv = head - 1
            sck[pos] = PREFIX
            sct[pos] = h_v
            scr[pos] = _narrow_r(hv, err, check_r, r_min, r_max)
            pos += 1
        cnt_r[s] = pos - rbase


@njit(cache=True, parallel=True)
def partition_segments_w(kind, t, r, w, starts, mid, hi,
                         sck, sct, scr, scw, cnt_l, cnt_r,
                         err, check_r, r_min, r_max):
    """Weighted partition; head ops carry ``r = head, w = 0``."""
    n_segs = mid.shape[0]
    for s in prange(n_segs):
        b = starts[s]
        e = starts[s + 1]
        base = b + 2 * s
        m_v = mid[s]
        h_v = hi[s]

        pos = base
        head = np.int64(0)
        seen = False
        cur_k = np.uint8(0)
        cur_t = np.int64(0)
        cur_r = np.int64(0)
        cur_w = np.int64(0)
        for i in range(b, e):
            tv = np.int64(t[i])
            pf = kind[i] == PREFIX
            if tv > m_v or (pf and tv == m_v):
                ev = np.int64(r[i]) + (np.int64(w[i]) if pf else np.int64(0))
                if seen:
                    cur_r += ev
                else:
                    head += ev
            else:
                if seen:
                    sck[pos] = cur_k
                    sct[pos] = cur_t
                    scr[pos] = _narrow_r(cur_r, err, check_r, r_min, r_max)
                    scw[pos] = cur_w
                    pos += 1
                else:
                    if head != 0:
                        sck[pos] = PREFIX
                        sct[pos] = m_v
                        scr[pos] = _narrow_r(head, err, check_r, r_min, r_max)
                        scw[pos] = 0
                        pos += 1
                    seen = True
                cur_k = kind[i]
                cur_t = tv
                cur_r = np.int64(r[i])
                cur_w = np.int64(w[i])
        if seen:
            sck[pos] = cur_k
            sct[pos] = cur_t
            scr[pos] = _narrow_r(cur_r, err, check_r, r_min, r_max)
            scw[pos] = cur_w
            pos += 1
        elif head != 0:
            sck[pos] = PREFIX
            sct[pos] = m_v
            scr[pos] = _narrow_r(head, err, check_r, r_min, r_max)
            scw[pos] = 0
            pos += 1
        cnt_l[s] = pos - base

        rbase = pos
        head = np.int64(0)
        seen = False
        for i in range(b, e):
            tv = np.int64(t[i])
            pf = kind[i] == PREFIX
            inside_l = tv <= m_v
            if inside_l or (pf and tv == h_v):
                cov = np.int64(0) if (pf and inside_l) else np.int64(1)
                ev = np.int64(r[i]) + np.int64(w[i]) * cov
                if seen:
                    cur_r += ev
                else:
                    head += ev
            else:
                if seen:
                    sck[pos] = cur_k
                    sct[pos] = cur_t
                    scr[pos] = _narrow_r(cur_r, err, check_r, r_min, r_max)
                    scw[pos] = cur_w
                    pos += 1
                else:
                    if head != 0:
                        sck[pos] = PREFIX
                        sct[pos] = h_v
                        scr[pos] = _narrow_r(head, err, check_r, r_min, r_max)
                        scw[pos] = 0
                        pos += 1
                    seen = True
                cur_k = kind[i]
                cur_t = tv
                cur_r = np.int64(r[i])
                cur_w = np.int64(w[i])
        if seen:
            sck[pos] = cur_k
            sct[pos] = cur_t
            scr[pos] = _narrow_r(cur_r, err, check_r, r_min, r_max)
            scw[pos] = cur_w
            pos += 1
        elif head != 0:
            sck[pos] = PREFIX
            sct[pos] = h_v
            scr[pos] = _narrow_r(head, err, check_r, r_min, r_max)
            scw[pos] = 0
            pos += 1
        cnt_r[s] = pos - rbase


@njit(cache=True, parallel=True)
def compact_children(sck, sct, scr, starts, cnt_l, cnt_r,
                     out_starts, out_k, out_t, out_r):
    """Copy the slack scratch layout into the dense child arrays."""
    n_segs = cnt_l.shape[0]
    for s in prange(n_segs):
        base = starts[s] + 2 * s
        ol = out_starts[2 * s]
        cl = cnt_l[s]
        for j in range(cl):
            out_k[ol + j] = sck[base + j]
            out_t[ol + j] = sct[base + j]
            out_r[ol + j] = scr[base + j]
        orr = out_starts[2 * s + 1]
        rb = base + cl
        for j in range(cnt_r[s]):
            out_k[orr + j] = sck[rb + j]
            out_t[orr + j] = sct[rb + j]
            out_r[orr + j] = scr[rb + j]


@njit(cache=True, parallel=True)
def compact_children_w(sck, sct, scr, scw, starts, cnt_l, cnt_r,
                       out_starts, out_k, out_t, out_r, out_w):
    """Weighted variant of :func:`compact_children`."""
    n_segs = cnt_l.shape[0]
    for s in prange(n_segs):
        base = starts[s] + 2 * s
        ol = out_starts[2 * s]
        cl = cnt_l[s]
        for j in range(cl):
            out_k[ol + j] = sck[base + j]
            out_t[ol + j] = sct[base + j]
            out_r[ol + j] = scr[base + j]
            out_w[ol + j] = scw[base + j]
        orr = out_starts[2 * s + 1]
        rb = base + cl
        for j in range(cnt_r[s]):
            out_k[orr + j] = sck[rb + j]
            out_t[orr + j] = sct[rb + j]
            out_r[orr + j] = scr[rb + j]
            out_w[orr + j] = scw[rb + j]


# ---------------------------------------------------------------------------
# Leaf solver: a leaf segment's cell value is the summed effect of its
# ops up to and including the first Postfix (whose own r is excluded
# but whose weight counts) — the scalar form of _solve_leaves.
# ---------------------------------------------------------------------------


@njit(cache=True, parallel=True)
def solve_leaf_segments(kind, r, starts, lo, hi, out):
    """Write every nonempty leaf cell's value; return ops consumed."""
    n_segs = lo.shape[0]
    consumed = np.int64(0)
    for s in prange(n_segs):
        if lo[s] != hi[s]:
            continue
        b = starts[s]
        e = starts[s + 1]
        if e == b:
            continue
        acc = np.int64(0)
        for i in range(b, e):
            if kind[i] == POSTFIX:
                acc += 1
                break
            acc += 1 + np.int64(r[i])
        out[lo[s]] = acc
        consumed += e - b
    return consumed


@njit(cache=True, parallel=True)
def solve_leaf_segments_w(kind, r, w, starts, lo, hi, out):
    """Weighted variant: per-op effect is ``w + r``; Postfix adds w."""
    n_segs = lo.shape[0]
    consumed = np.int64(0)
    for s in prange(n_segs):
        if lo[s] != hi[s]:
            continue
        b = starts[s]
        e = starts[s + 1]
        if e == b:
            continue
        acc = np.int64(0)
        for i in range(b, e):
            if kind[i] == POSTFIX:
                acc += np.int64(w[i])
                break
            acc += np.int64(w[i]) + np.int64(r[i])
        out[lo[s]] = acc
        consumed += e - b
    return consumed


# ---------------------------------------------------------------------------
# prev/next scan: one serial pass over the trace through an
# open-addressing table (jitted) or a dict (pure fallback).  Both are
# exact, so the outputs are identical regardless of which one runs.
# ---------------------------------------------------------------------------

#: SplitMix64's odd multiplier (0x9E3779B97F4A7C15 as signed int64).
_HASH_MULT = -7046029254386353131


if NUMBA_AVAILABLE:  # pragma: no cover - exercised by the CI numba leg

    @njit(cache=True)
    def _fill_prev_next_table(arr, prev, nxt, keys, vals):
        mask = keys.shape[0] - 1
        for i in range(arr.shape[0]):
            a = arr[i]
            h = a * np.int64(_HASH_MULT)
            h ^= h >> 31
            slot = h & mask
            while True:
                v = vals[slot]
                if v == -1:
                    keys[slot] = a
                    vals[slot] = i
                    break
                if keys[slot] == a:
                    prev[i] = v
                    nxt[v] = i
                    vals[slot] = i
                    break
                slot = (slot + 1) & mask


def _fill_prev_next_pure(arr, prev, nxt):
    last = {}
    get = last.get
    for i, a in enumerate(arr.tolist()):
        j = get(a)
        if j is not None:
            prev[i] = j
            nxt[j] = i
        last[a] = i


def prev_next_fill(trace, prev, nxt):
    """Fill preallocated prev/next arrays (already seeded -1 / n)."""
    n = trace.shape[0]
    if n == 0:
        return
    arr = np.ascontiguousarray(trace, dtype=np.int64)
    if NUMBA_AVAILABLE:
        size = 1
        while size < 2 * n:
            size *= 2
        keys = np.empty(size, dtype=np.int64)
        vals = np.full(size, -1, dtype=np.int64)
        _fill_prev_next_table(arr, prev, nxt, keys, vals)
    else:
        _fill_prev_next_pure(arr, prev, nxt)


def warmup() -> None:
    """Force-compile every kernel on a tiny input (one-time JIT cost).

    Called by the benchmarks so compilation never lands inside a timed
    region; a no-op in pure mode.
    """
    kind = np.array([PREFIX, POSTFIX], dtype=np.uint8)
    t = np.array([1, 0], dtype=np.int64)
    r = np.zeros(2, dtype=np.int64)
    w = np.ones(2, dtype=np.int64)
    starts = np.array([0, 2], dtype=np.int64)
    mid = np.zeros(1, dtype=np.int64)
    hi = np.ones(1, dtype=np.int64)
    sc = np.zeros(4, dtype=np.int64)
    sck = np.zeros(4, dtype=np.uint8)
    cnt = np.zeros(1, dtype=np.int64)
    err = np.zeros(2, dtype=np.int64)
    out_starts = np.array([0, 1, 2], dtype=np.int64)
    out = np.zeros(4, dtype=np.int64)
    partition_segments(kind, t, r, starts, mid, hi, sck, sc.copy(),
                       sc.copy(), cnt.copy(), cnt.copy(), err, False, 0, 0)
    partition_segments_w(kind, t, r, w, starts, mid, hi, sck, sc.copy(),
                         sc.copy(), sc.copy(), cnt.copy(), cnt.copy(),
                         err, False, 0, 0)
    compact_children(sck, sc, sc, starts, cnt, cnt, out_starts,
                     sck.copy(), out.copy(), out.copy())
    compact_children_w(sck, sc, sc, sc, starts, cnt, cnt, out_starts,
                       sck.copy(), out.copy(), out.copy(), out.copy())
    solve_leaf_segments(kind, r, starts, mid, mid, out)
    solve_leaf_segments_w(kind, r, w, starts, mid, mid, out)
    prev_next_fill(t, out[:2], out[2:])
