"""EXTERNAL-INCREMENT-AND-FREEZE (Section 5).

The external-memory variant with recursive fan-out ``M/B``: an internal
subproblem on interval ``I`` reads its (shrunk) operation sequence from
the simulated block device, projects it onto ``M/B`` equal sub-intervals
— keeping one block-sized output buffer per child, whose boundary merges
are the footnote-2 subtlety; here each child's full shrunk sequence is
computed before writing, which produces byte-identical files and
identical IO counts — and recurses.  Subproblems whose interval fits in
``M/c`` memory (``c = 4``; by Lemma 4.2 their op sequences then occupy at
most ``~M/2``) are solved entirely in internal memory by the vectorized
engine and their distance-vector entries written out.

Everything is charged to the device's :class:`~repro.extmem.IOStats` in
block transfers, which the ``bench_external_io`` benchmark compares
against the ``O((n/B) log_{M/B}(n/B))`` bound of Theorem 5.1.

Operation records are stored as three consecutive words (kind, t, r) in a
single integer file, so a sequence of ``m`` ops costs ``ceil(3m/B)``
transfers to stream — the same constant-factor bookkeeping a real
implementation would pay.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .._typing import DEFAULT_DTYPE, TraceLike, as_trace
from ..errors import ExternalMemoryError
from ..extmem.blockdevice import BlockDevice, ExternalFile, MemoryConfig
from ..obs import NULL_SPAN, get_tracer
from ..extmem.iostats import IOStats
from .engine import Segments, _shrink_child, resolve_engine_backend, \
    solve_prepost_arrays
from .hitrate import HitRateCurve
from .ops import POSTFIX, PREFIX, prepost_sequence_arrays

#: The base-case constant ``c`` from Section 5: subproblems on intervals
#: of at most ``M / BASE_CASE_DIVISOR`` cells are solved in memory.
BASE_CASE_DIVISOR = 4


@dataclass
class ExternalRunReport:
    """What one EXTERNAL-IAF run did, for benchmarks and tests.

    ``.curve`` / ``.stats`` follow the unified result-shape convention
    (see :class:`repro.core.config.SolveResult`): when the run was driven
    through :func:`repro.core.api.solve`, the hit-rate curve built from
    its distance vector is attached here.
    """

    stats: IOStats
    base_cases: int
    internal_nodes: int
    max_depth: int
    curve: Optional[HitRateCurve] = None

    def total_blocks(self) -> int:
        return self.stats.total_blocks


def _write_ops(
    device: BlockDevice, name: str, kind: np.ndarray, t: np.ndarray,
    r: np.ndarray,
) -> ExternalFile:
    """Pack (kind, t, r) into 3-word records and write them as one file."""
    m = kind.size
    records = np.empty(3 * m, dtype=np.int64)
    records[0::3] = kind
    records[1::3] = t
    records[2::3] = r
    return device.create_from(name, records)


def _read_ops(f: ExternalFile) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Stream a whole op file back into (kind, t, r) arrays.

    The transfer is charged per block exactly as the streaming algorithm
    would pay; only the IO *count* is modelled, so materializing the
    array in one call is equivalent.
    """
    records = f.read(0, len(f))
    return (
        records[0::3].astype(np.uint8),
        records[1::3].copy(),
        records[2::3].copy(),
    )


def _project_shrink_interval(
    kind: np.ndarray, t: np.ndarray, r: np.ndarray, a: int, b: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Shrunk projection of one op sequence onto ``[a, b]``.

    Generalizes the engine's half-split rules to an arbitrary target
    interval, then reuses its segmented shrink with a single segment.
    """
    is_postfix = kind == POSTFIX
    below = t < a
    above = t > b
    outside = below | above
    kind_c = np.where(outside, PREFIX, kind).astype(np.uint8)
    t_c = np.where(outside, b, t)
    # Effect of an out-of-interval op is uniform: 1+r when its "+1 part"
    # covers [a, b] (Prefix with t > b; Postfix with t < a), r otherwise.
    covers = np.where(is_postfix, below, above)
    r_c = np.where(outside & ~covers, r - 1, r)
    m = kind_c.size
    starts = np.array([0, m], dtype=np.int64)
    seg_of_op = np.zeros(m, dtype=np.int64)
    child_hi_seg = np.array([b], dtype=t_c.dtype)
    child_hi_op = np.full(m, b, dtype=t_c.dtype)
    k_out, t_out, r_out, _counts, _w = _shrink_child(
        kind_c, t_c, r_c, child_hi_op, child_hi_seg, seg_of_op, starts
    )
    return k_out, t_out, r_out


class _ExternalSolver:
    """Recursive driver holding the device, config, and output file."""

    def __init__(self, device: BlockDevice, out: ExternalFile,
                 values: np.ndarray, report: ExternalRunReport,
                 engine_backend: Optional[str] = None) -> None:
        self.device = device
        self.config = device.config
        self.out = out
        self.values = values
        self.report = report
        self.engine_backend = resolve_engine_backend(engine_backend)
        self._name_counter = 0

    def _fresh_name(self) -> str:
        self._name_counter += 1
        return f"iaf.ops.{self._name_counter}"

    def solve(self, ops_file: ExternalFile, lo: int, hi: int, depth: int) -> None:
        self.report.max_depth = max(self.report.max_depth, depth)
        size = hi - lo + 1
        if size <= max(1, self.config.memory_items // BASE_CASE_DIVISOR):
            self._base_case(ops_file, lo, hi)
            return
        self.report.internal_nodes += 1
        # The span's io_blocks attr is inclusive: it also counts IO
        # charged by the node's recursive children (like wall time).
        tracer = get_tracer()
        span = (
            tracer.span("external.node", depth=depth, lo=lo, hi=hi,
                        n_ops=len(ops_file) // 3)
            if tracer.enabled
            else NULL_SPAN
        )
        with span:
            io_before = self.device.stats.total_blocks
            kind, t, r = _read_ops(ops_file)
            self.device.delete(ops_file.name)
            fanout = self.config.fanout
            cuts = np.linspace(lo, hi + 1, fanout + 1).astype(np.int64)
            for ci in range(fanout):
                a, b = int(cuts[ci]), int(cuts[ci + 1]) - 1
                if a > b:
                    continue
                k_c, t_c, r_c = _project_shrink_interval(kind, t, r, a, b)
                child = _write_ops(self.device, self._fresh_name(),
                                   k_c, t_c, r_c)
                self.solve(child, a, b, depth + 1)
            span.set(io_blocks=self.device.stats.total_blocks - io_before)

    def _base_case(self, ops_file: ExternalFile, lo: int, hi: int) -> None:
        self.report.base_cases += 1
        tracer = get_tracer()
        span = (
            tracer.span("external.base_case", lo=lo, hi=hi,
                        n_ops=len(ops_file) // 3)
            if tracer.enabled
            else NULL_SPAN
        )
        with span:
            io_before = self.device.stats.total_blocks
            kind, t, r = _read_ops(ops_file)
            self.device.delete(ops_file.name)
            if kind.size > self.config.memory_items:
                raise ExternalMemoryError(
                    f"base case on [{lo}, {hi}] has {kind.size} ops, "
                    f"exceeding M={self.config.memory_items} — Lemma 4.2 "
                    f"violated?"
                )
            seg = Segments.single(kind, t, r, lo, hi)
            # Every base case fits the same M-bounded shape, so after
            # the first one the thread's workspace serves them all.
            solve_prepost_arrays(seg, self.values,
                                 engine_backend=self.engine_backend)
            # Distance entries stream to external memory (charged per
            # block).
            self.out.append(self.values[lo : hi + 1])
            span.set(io_blocks=self.device.stats.total_blocks - io_before)


def external_iaf_distances(
    trace: TraceLike,
    config: MemoryConfig,
    *,
    device: Optional[BlockDevice] = None,
    dtype: "np.typing.DTypeLike" = DEFAULT_DTYPE,
    engine_backend: Optional[str] = None,
    prev: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, ExternalRunReport]:
    """Backward distance vector via EXTERNAL-INCREMENT-AND-FREEZE.

    Returns ``(distances, report)``; the report carries the block-transfer
    counts measured against ``config``.  A caller-supplied ``device`` lets
    tests inspect the file traffic; by default a fresh one is used.
    ``prev`` is the trace's, when the caller already sorted it.
    """
    arr = as_trace(trace, dtype=dtype)
    n = arr.size
    dev = device if device is not None else BlockDevice(config)
    if dev.config != config:
        raise ExternalMemoryError("device config differs from requested config")
    report = ExternalRunReport(stats=dev.stats, base_cases=0,
                               internal_nodes=0, max_depth=0)
    if n == 0:
        return np.zeros(0, dtype=np.int64), report

    # The trace itself streams in once (charged), and S is written out.
    trace_file = dev.create_from("iaf.trace", arr)
    trace_file.read(0, n)
    kind, t, r = prepost_sequence_arrays(arr, dtype=np.int64, prev=prev)
    ops_file = _write_ops(dev, "iaf.ops.root", kind, t, r)
    dev.delete("iaf.trace")

    values = np.zeros(n + 1, dtype=np.int64)
    out_file = dev.create("iaf.distances", np.int64)
    solver = _ExternalSolver(dev, out_file, values, report,
                             engine_backend=engine_backend)
    solver.solve(ops_file, 0, n, depth=0)
    out_file.flush()
    return values[1:], report


def external_io_bound_blocks(n: int, config: MemoryConfig) -> float:
    """Theorem 5.1's bound ``(n/B) * ceil(log_{M/B}(n/B))`` in blocks.

    Benchmarks overlay this curve on measured transfer counts; the
    measured values should track it up to a constant factor.
    """
    if n <= 0:
        return 0.0
    nb = max(1.0, n / config.block_items)
    base = max(2.0, config.fanout)
    passes = max(1.0, math.ceil(math.log(nb) / math.log(base)))
    return nb * passes
