"""The pairwise oracle matrix: every implementation against ground truth.

One :func:`run_case` call pushes a single :class:`~repro.qa.strategies.FuzzCase`
through every registered implementation and demands **exact** agreement:

* backward distance vectors — vectorized engine at the case's pinned
  dtype (the hub), the same engine at its automatic width
  (``iaf-auto-width``: int64 addresses, int32 ops and accumulator where
  :func:`~repro.core.engine.certify_int32` passes), pure-python
  reference recursion, O(n²) definitional oracle, thread-pool and
  process-pool parallel variants;
* hit-rate curves — engine pipeline (the hub), the chunked incremental
  engine (``chunked-iaf`` through the :func:`repro.solve` tier, at the
  case's fuzzed chunk size), the sharded ``process-iaf`` tier,
  BOUNDED-IAF, PARALLEL-BOUNDED-IAF, the
  :class:`~repro.core.streaming.OnlineCurveAnalyzer` fed random push
  batches and queried after each (windows too, against BOUNDED-IAF's),
  and the Mattson/OST/splay/Fenwick/PARDA baselines;
* weighted (Section 9.1) distances — weighted engine (the hub), the
  brute-force weighted oracle, the weighted OST, and the weighted
  parallel paths (threads and processes).

Interpreter-speed oracles only join the matrix below size caps, so a
``deep``-profile trace of thousands of accesses still completes in
seconds while a ``quick`` trace is checked against everything.

Disagreement (or an implementation crash) is reported as a
:class:`Divergence` carrying the first diverging index — never raised, so
the fuzz loop can shrink and keep going.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator, List, Optional, Tuple

import numpy as np

from ..baselines import baseline_hit_rate_curve
from ..baselines.naive import naive_backward_distances
from ..core import compiled as compiled_kernels
from ..core.bounded import bounded_iaf, parallel_bounded_iaf
from ..core.engine import iaf_distances, iaf_distances_batch
from ..core.hitrate import HitRateCurve, curve_from_backward_distances
from ..core.prevnext import prev_next_arrays
from ..core.reference import reference_distances
from ..core.streaming import OnlineCurveAnalyzer
from ..core.weighted import (
    naive_weighted_stack_distances,
    ost_weighted_stack_distances,
    weighted_backward_distances,
    weighted_stack_distances,
)
from ..parallel_exec import default_executor
from .strategies import FuzzCase, object_sizes_for, push_plan_for

#: Size caps for the interpreter-speed oracles (per implementation).
REFERENCE_MAX_N = 160       # pure-python Section-4 recursion
NAIVE_MAX_N = 160           # O(n^2) definitional oracles
TREE_BASELINE_MAX_N = 900   # OST / splay / Fenwick python loops
MATTSON_MAX_N = 500         # O(n*u) list-scan Mattson
WEIGHTED_MAX_ADDR = 1 << 16  # weighted oracles index sizes by address


@dataclass(frozen=True)
class Divergence:
    """Two implementations disagreed on one case (or one crashed).

    ``index`` is the first diverging position: a 0-based trace index for
    distance vectors, a 1-based cache size for curves, and ``-1`` for
    shape mismatches or crashes.  ``value_a``/``value_b`` are the values
    at that index (or a length / error description).
    """

    impl_a: str
    impl_b: str
    quantity: str  # distances | curve | windows | weighted-distances | crash
    index: int
    value_a: str
    value_b: str

    def describe(self) -> str:
        if self.quantity == "crash":
            return (
                f"{self.impl_b} crashed ({self.value_b}) "
                f"while {self.impl_a} succeeded"
            )
        where = (
            f"cache size {self.index}"
            if self.quantity == "curve"
            else f"index {self.index}"
        )
        return (
            f"{self.quantity}: {self.impl_a} vs {self.impl_b} first "
            f"diverge at {where}: {self.value_a} != {self.value_b}"
        )


@dataclass
class OracleReport:
    """Everything one oracle run checked, and what disagreed."""

    case: FuzzCase
    divergences: List[Divergence] = field(default_factory=list)
    comparisons: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.divergences


def _first_diff_vec(a: np.ndarray, b: np.ndarray) -> Optional[Tuple[int, str, str]]:
    if a.size != b.size:
        return -1, f"length {a.size}", f"length {b.size}"
    if np.array_equal(a, b):
        return None
    idx = int(np.flatnonzero(a != b)[0])
    return idx, str(int(a[idx])), str(int(b[idx]))


def _hits_upto(curve: HitRateCurve, kmax: int) -> np.ndarray:
    """Hit counts at cache sizes 1..kmax (clamped flat tail included)."""
    return np.array([curve.hits(j) for j in range(1, kmax + 1)],
                    dtype=np.int64)


def _compare_curves(
    name_a: str,
    name_b: str,
    curve_a: HitRateCurve,
    curve_b: HitRateCurve,
    kmax: int,
) -> Optional[Divergence]:
    if curve_a.total_accesses != curve_b.total_accesses:
        return Divergence(
            name_a, name_b, "curve", -1,
            f"total {curve_a.total_accesses}",
            f"total {curve_b.total_accesses}",
        )
    diff = _first_diff_vec(_hits_upto(curve_a, kmax), _hits_upto(curve_b, kmax))
    if diff is None:
        return None
    idx, va, vb = diff
    return Divergence(name_a, name_b, "curve", idx + 1, va, vb)


def run_case(case: FuzzCase) -> List[Divergence]:
    """Run the full oracle matrix on one case; empty list means agreement."""
    return run_case_detailed(case).divergences


def run_case_detailed(case: FuzzCase) -> OracleReport:
    """Like :func:`run_case` but also reports which pairs were compared."""
    report = OracleReport(case)
    trace, cfg = case.trace, case.config
    n = trace.size

    # ---------------- backward distance vectors -----------------------------
    hub_name = "iaf"
    hub = iaf_distances(trace, dtype=cfg.numpy_dtype())

    def check_distances(name: str, fn: Callable[[], np.ndarray]) -> None:
        report.comparisons.append(f"{hub_name}~{name}:distances")
        try:
            got = np.asarray(fn())
        except Exception as exc:  # noqa: BLE001 — a crash IS the finding
            report.divergences.append(
                Divergence(hub_name, name, "crash", -1, "ok",
                           f"{type(exc).__name__}: {exc}")
            )
            return
        diff = _first_diff_vec(hub, got)
        if diff is not None:
            idx, va, vb = diff
            report.divergences.append(
                Divergence(hub_name, name, "distances", idx, va, vb)
            )

    check_distances("iaf-auto-width", lambda: iaf_distances(trace))
    check_distances(
        "iaf-naive-backend",
        lambda: iaf_distances(
            trace, dtype=cfg.numpy_dtype(), engine_backend="naive"
        ),
    )
    # The compiled backend joins the matrix only where it can actually
    # run (numba installed, or REPRO_COMPILED_PURE forcing the un-jitted
    # kernels) — on other hosts it would silently degrade to fused and
    # re-test the hub against itself.
    if compiled_kernels.is_available():
        check_distances(
            "compiled-iaf",
            lambda: iaf_distances(
                trace, dtype=cfg.numpy_dtype(), engine_backend="compiled"
            ),
        )
    _check_batch_split(report, case)
    if cfg.check_reference and n <= REFERENCE_MAX_N:
        check_distances("reference", lambda: reference_distances(trace))
    if cfg.check_naive and n <= NAIVE_MAX_N:
        check_distances("naive", lambda: naive_backward_distances(trace))
    check_distances(
        "parallel-threads",
        lambda: iaf_distances(
            trace, workers=cfg.workers, dtype=cfg.numpy_dtype()
        ),
    )
    if cfg.process_workers:
        check_distances(
            "parallel-procs",
            lambda: iaf_distances(
                trace, workers=cfg.process_workers, dtype=cfg.numpy_dtype(),
                executor=default_executor(cfg.process_workers),
            ),
        )

    # ---------------- hit-rate curves ---------------------------------------
    _, nxt = prev_next_arrays(trace)
    exact = curve_from_backward_distances(hub, nxt)
    full_kmax = max(1, exact.max_size)
    trunc_kmax = max(1, min(cfg.k, full_kmax))

    def check_curve(
        name: str, fn: Callable[[], HitRateCurve], kmax: int
    ) -> None:
        report.comparisons.append(f"iaf-curve~{name}:curve")
        try:
            got = fn()
        except Exception as exc:  # noqa: BLE001
            report.divergences.append(
                Divergence("iaf-curve", name, "crash", -1, "ok",
                           f"{type(exc).__name__}: {exc}")
            )
            return
        d = _compare_curves("iaf-curve", name, exact, got, kmax)
        if d is not None:
            report.divergences.append(d)

    check_curve(
        "bounded-iaf",
        lambda: bounded_iaf(
            trace, cfg.k, chunk_multiplier=cfg.chunk_multiplier,
            dtype=cfg.numpy_dtype(),
        ).curve,
        trunc_kmax,
    )
    check_curve(
        "parallel-bounded-iaf",
        lambda: parallel_bounded_iaf(
            trace, cfg.k, workers=cfg.workers,
            chunk_multiplier=cfg.chunk_multiplier, dtype=cfg.numpy_dtype(),
        ).curve,
        trunc_kmax,
    )
    check_curve(
        "online-analyzer", lambda: _streaming_curve(case, report), trunc_kmax
    )
    check_curve("chunked-iaf", lambda: _chunked_curve(case), full_kmax)
    if compiled_kernels.is_available():
        check_curve(
            "compiled-chunked-iaf",
            lambda: _chunked_curve(case, engine_backend="compiled"),
            full_kmax,
        )
    check_curve("tenant-exact", lambda: _tenant_curve(case), full_kmax)
    _check_sampled(report, case, exact)
    # Unconditional: this row is the only end-to-end check of the process
    # executor through solve() (shards rewrite oversized iaf requests to
    # chunked-iaf; processes run only when a request asks for
    # process-iaf), so it runs on *every* case, not just when the config
    # drew process workers for the distance oracles.  (With shared
    # memory unavailable the solve degrades in-process and still must
    # match.)
    check_curve("process-iaf", lambda: _process_curve(case), full_kmax)
    if n <= TREE_BASELINE_MAX_N:
        for baseline in ("ost", "splay", "fenwick"):
            check_curve(
                baseline,
                lambda b=baseline: baseline_hit_rate_curve(trace, b),
                full_kmax,
            )
        check_curve(
            "parda",
            lambda: baseline_hit_rate_curve(
                trace, "parda", max_cache_size=cfg.k, workers=cfg.workers
            ),
            trunc_kmax,
        )
    if n <= MATTSON_MAX_N:
        check_curve(
            "mattson", lambda: baseline_hit_rate_curve(trace, "mattson"),
            full_kmax,
        )

    # ---------------- weighted (Section 9.1) distances ----------------------
    max_addr = int(trace.max()) if n else 0
    if max_addr < WEIGHTED_MAX_ADDR:
        sizes = object_sizes_for(case)
        w_hub_name = "weighted-engine"
        w_hub = weighted_backward_distances(trace, sizes)

        def check_weighted(name: str, fn: Callable[[], np.ndarray]) -> None:
            report.comparisons.append(
                f"{w_hub_name}~{name}:weighted-distances"
            )
            try:
                got = np.asarray(fn())
            except Exception as exc:  # noqa: BLE001
                report.divergences.append(
                    Divergence(w_hub_name, name, "crash", -1, "ok",
                               f"{type(exc).__name__}: {exc}")
                )
                return
            diff = _first_diff_vec(w_hub, got)
            if diff is not None:
                idx, va, vb = diff
                report.divergences.append(
                    Divergence(w_hub_name, name, "weighted-distances",
                               idx, va, vb)
                )

        check_weighted(
            "weighted-naive-backend",
            lambda: weighted_backward_distances(
                trace, sizes, engine_backend="naive"
            ),
        )
        if compiled_kernels.is_available():
            check_weighted(
                "weighted-compiled-backend",
                lambda: weighted_backward_distances(
                    trace, sizes, engine_backend="compiled"
                ),
            )
        check_weighted(
            "weighted-parallel-threads",
            lambda: weighted_backward_distances(
                trace, sizes, workers=cfg.workers
            ),
        )
        if cfg.process_workers:
            check_weighted(
                "weighted-parallel-procs",
                lambda: weighted_backward_distances(
                    trace, sizes, workers=cfg.process_workers,
                    executor=default_executor(cfg.process_workers),
                ),
            )
        # Forward (stack-distance) oracles: the engine's stack view is the
        # hub; the brute-force and weighted-OST loops share nothing with
        # the engine beyond trace validation.
        w_stack = weighted_stack_distances(trace, sizes)

        def check_stack(name: str, fn: Callable[[], np.ndarray]) -> None:
            report.comparisons.append(
                f"weighted-stack~{name}:weighted-distances"
            )
            try:
                got = np.asarray(fn())
            except Exception as exc:  # noqa: BLE001
                report.divergences.append(
                    Divergence("weighted-stack", name, "crash", -1, "ok",
                               f"{type(exc).__name__}: {exc}")
                )
                return
            diff = _first_diff_vec(w_stack, got)
            if diff is not None:
                idx, va, vb = diff
                report.divergences.append(
                    Divergence("weighted-stack", name, "weighted-distances",
                               idx, va, vb)
                )

        if cfg.check_naive and n <= NAIVE_MAX_N:
            check_stack(
                "weighted-naive",
                lambda: naive_weighted_stack_distances(trace, sizes),
            )
        if n <= TREE_BASELINE_MAX_N:
            check_stack(
                "weighted-ost",
                lambda: ost_weighted_stack_distances(trace, sizes),
            )

    return report


def _check_batch_split(report: OracleReport, case: FuzzCase) -> None:
    """Split the trace into parts; a batched solve must equal per-part solves.

    Each part is an independent trace (a part's first access to an address
    is a cold miss even if the address appeared in an earlier part), so the
    per-part loop — not the whole-trace hub — is the reference here.
    """
    trace, cfg = case.trace, case.config
    name = "iaf-batch-split"
    report.comparisons.append(f"iaf-loop~{name}:distances")
    n = trace.size
    cuts = sorted({0, n // 3, (2 * n) // 3, n})
    parts = [trace[a:b] for a, b in zip(cuts, cuts[1:])] or [trace]
    try:
        batched = iaf_distances_batch(parts, dtype=cfg.numpy_dtype())
        looped = [iaf_distances(p, dtype=cfg.numpy_dtype()) for p in parts]
    except Exception as exc:  # noqa: BLE001 — a crash IS the finding
        report.divergences.append(
            Divergence("iaf-loop", name, "crash", -1, "ok",
                       f"{type(exc).__name__}: {exc}")
        )
        return
    for i, (got, want) in enumerate(zip(batched, looped)):
        diff = _first_diff_vec(np.asarray(want), np.asarray(got))
        if diff is not None:
            idx, va, vb = diff
            report.divergences.append(
                Divergence("iaf-loop", name, "distances", idx,
                           f"part {i}: {va}", f"part {i}: {vb}")
            )
            return


def _chunked_curve(
    case: FuzzCase, engine_backend: Optional[str] = None
) -> HitRateCurve:
    """The chunked incremental engine through the public solve tier.

    Exercises the ``SolveConfig(algorithm="chunked-iaf")`` dispatch with
    the case's fuzzed chunk size — the result must be bit-identical to
    the batch hub for *every* chunk size (and, with
    ``engine_backend="compiled"``, for the compiled level kernel).
    """
    from ..core.api import solve
    from ..core.config import SolveConfig

    cfg = case.config
    return solve(
        case.trace,
        SolveConfig(
            algorithm="chunked-iaf",
            chunk_size=cfg.chunk_size or None,
            dtype=cfg.numpy_dtype(),
            engine_backend=engine_backend,
        ),
    ).curve


def _process_curve(case: FuzzCase) -> HitRateCurve:
    """The ``process-iaf`` tier (persistent executor pool) end to end."""
    from ..core.api import solve
    from ..core.config import SolveConfig

    cfg = case.config
    return solve(
        case.trace,
        SolveConfig(
            algorithm="process-iaf",
            workers=cfg.process_workers or 2,
            dtype=cfg.numpy_dtype(),
        ),
    ).curve


def _tenant_curve(case: FuzzCase) -> HitRateCurve:
    """An exact-tier tenant fed the case's push plan.

    The registry's ``exact_curve`` guarantee: a never-demoted exact
    tenant's curve is bit-identical to the direct batch solve — the
    multi-tenant layer adds bookkeeping, never error.
    """
    from ..tenants import TenantRegistry

    cfg = case.config
    registry = TenantRegistry()
    registry.register(
        "fuzz", chunk_size=cfg.chunk_size or None, dtype=cfg.numpy_dtype()
    )
    pos = 0
    for step in push_plan_for(case).tolist():
        registry.push("fuzz", case.trace[pos : pos + step])
        pos += step
        registry.curve("fuzz")  # each query commits the pending accesses
    snapshot = registry.curve("fuzz")
    assert snapshot.exact_curve is not None  # never demoted: stays exact
    return snapshot.exact_curve


def _check_sampled(
    report: OracleReport, case: FuzzCase, exact: HitRateCurve
) -> None:
    """The streaming sampled tier against the one-shot SHARDS baseline.

    Both paths hash-sample with the case's fuzzed ``(sample_rate,
    sample_seed)`` and funnel through the shared estimator
    (:mod:`repro.core.sampling`), so their float estimates must be
    **bit-identical** — the streamed sub-trace is exactly the batch
    sub-trace, and the chunked engine is exact on it.  At rate 1.0 the
    estimate must additionally equal the exact hub's hit counts.
    """
    from ..baselines.shards import shards_hit_rate_curve
    from ..tenants import TenantRegistry

    cfg = case.config
    name = "sampled-iaf"
    report.comparisons.append(f"shards~{name}:curve")
    try:
        registry = TenantRegistry()
        registry.register(
            "fuzz-sampled", tier="sampled", sample_rate=cfg.sample_rate,
            sample_seed=cfg.sample_seed, chunk_size=cfg.chunk_size or None,
            dtype=cfg.numpy_dtype(),
        )
        pos = 0
        for step in push_plan_for(case).tolist():
            registry.push("fuzz-sampled", case.trace[pos : pos + step])
            pos += step
        streamed = registry.curve("fuzz-sampled").estimate
        oneshot = shards_hit_rate_curve(
            case.trace, cfg.sample_rate, seed=cfg.sample_seed
        )
    except Exception as exc:  # noqa: BLE001 — a crash IS the finding
        report.divergences.append(
            Divergence("shards", name, "crash", -1, "ok",
                       f"{type(exc).__name__}: {exc}")
        )
        return
    if (
        streamed.total_accesses != oneshot.total_accesses
        or streamed.sampled_accesses != oneshot.sampled_accesses
    ):
        report.divergences.append(Divergence(
            "shards", name, "curve", -1,
            f"total {oneshot.total_accesses}/{oneshot.sampled_accesses}",
            f"total {streamed.total_accesses}/{streamed.sampled_accesses}",
        ))
        return
    a, b = oneshot.hits_estimate, streamed.hits_estimate
    if a.size != b.size:
        report.divergences.append(Divergence(
            "shards", name, "curve", -1,
            f"length {a.size}", f"length {b.size}",
        ))
        return
    if not np.array_equal(a, b):
        idx = int(np.flatnonzero(a != b)[0])
        report.divergences.append(Divergence(
            "shards", name, "curve", idx + 1, str(a[idx]), str(b[idx])
        ))
        return
    if cfg.sample_rate == 1.0:
        # Degenerate rate: the "estimate" must be the exact answer.
        # Lengths may differ by a flat tail (both curves saturate), so
        # pad each with its final value before the bitwise compare.
        report.comparisons.append(f"iaf-curve~{name}:curve")
        want = np.asarray(exact.hits_cumulative, dtype=np.float64)
        kmax = max(want.size, b.size)
        wa, ba = _pad_flat(want, kmax), _pad_flat(b, kmax)
        if not np.array_equal(wa, ba):
            idx = int(np.flatnonzero(wa != ba)[0])
            report.divergences.append(Divergence(
                "iaf-curve", name, "curve", idx + 1,
                str(wa[idx]), str(ba[idx]),
            ))


def _pad_flat(hits: np.ndarray, kmax: int) -> np.ndarray:
    """Extend a cumulative-hits array to ``kmax`` with its flat tail."""
    if hits.size >= kmax:
        return hits[:kmax]
    tail = hits[-1] if hits.size else 0.0
    return np.concatenate([hits, np.full(kmax - hits.size, tail)])


def _streaming_curve(case: FuzzCase, report: OracleReport) -> HitRateCurve:
    """Feed the trace through the online analyzer in random batches,
    querying after each; its windows must equal BOUNDED-IAF's bit for
    bit (arrays, lengths and ``truncated_at``)."""
    cfg = case.config
    analyzer = OnlineCurveAnalyzer(
        cfg.k, chunk_multiplier=cfg.chunk_multiplier, dtype=cfg.numpy_dtype()
    )
    pos = 0
    for step in push_plan_for(case).tolist():
        analyzer.push(case.trace[pos : pos + step])
        pos += step
        analyzer.curve()  # commits the pending accesses mid-window
    analyzer.flush()
    report.comparisons.append("bounded-iaf~online-analyzer:windows")
    bounded = bounded_iaf(
        case.trace, cfg.k, chunk_multiplier=cfg.chunk_multiplier,
        dtype=cfg.numpy_dtype(),
    )
    want, got = (
        [(w.total_accesses, w.truncated_at, w.hits_cumulative.tolist())
         for w in windows]
        for windows in (bounded.windows, analyzer.windows)
    )
    if want != got:
        i = next((i for i, (a, b) in enumerate(zip(want, got)) if a != b),
                 min(len(want), len(got)))
        report.divergences.append(Divergence(
            "bounded-iaf", "online-analyzer", "windows", i,
            str(want[i : i + 1]), str(got[i : i + 1]),
        ))
    return analyzer.curve()


def iter_impl_names(case: FuzzCase) -> Iterator[str]:
    """Names the matrix would exercise for ``case`` (for reporting)."""
    for cmp_ in run_case_detailed(case).comparisons:
        yield cmp_.split("~")[1].split(":")[0]
