"""Service soak: hammer one CurveService from many clients for 30s.

CI's ``service-soak`` job runs this as a gate on the PR-4 service layer:
several client threads submit a random mix of trace sizes and
``SolveConfig`` shapes (plain iaf, parallel-iaf, narrow dtype,
truncation, one oversize trace that the size rule runs on the chunked
engine) against a single shared :class:`~repro.service.CurveService`
for a wall-clock budget, then the script asserts

* **zero errors** — every accepted request completes and its curve is
  bit-identical to a precomputed direct ``iaf_hit_rate_curve`` solve,
  and the oversize trace's result carries no ``distances`` (it ran
  chunked); ``ServiceOverloadedError`` rejections are *expected*
  backpressure and are counted, not failed;
* **bounded memory** — RSS (``/proc/self/status`` VmRSS) must
  *plateau*: the high-water mark over the first third of the run (the
  burn-in, where arenas and workspaces reach steady state under full
  concurrency) bounds the rest — the post-burn-in peak may not exceed
  it by more than ``--max-rss-growth-mb``.  A per-request leak grows
  linearly with the hundreds of requests a window completes and blows
  through the margin; the concurrency working set does not.

``--tenants N`` switches to the **multi-tenant soak** instead: N
tenants (a hot one per client plus a cold tail, every fifth pinned to
the sampled tier) stream batches through a
:class:`~repro.tenants.TenantService` under a deliberately small global
memory budget, so the registry *must* demote cold exact tenants while
the run is in flight.  At the end the script asserts

* every never-demoted exact tenant answers **bit-identically** to a
  direct ``iaf_hit_rate_curve`` over the concatenation of everything
  that tenant pushed (the tenant-exact guarantee, under concurrency);
* every pinned sampled tenant matches the one-shot
  ``sampled_hit_rate_curve`` baseline bit for bit;
* ``tenant.budget_demotions`` fired at least once and at least one hot
  tenant survived in the exact tier;
* the same RSS-plateau bound as the one-shot mode — the budget caps
  registry state, so tenant traffic must not leak either.

Usage (defaults match the CI job)::

    PYTHONPATH=src python scripts/soak_service.py --seconds 30
    PYTHONPATH=src python scripts/soak_service.py --seconds 20 --tenants 16

Exits nonzero on any solve error, curve mismatch, or RSS-growth breach.
Tune ``--clients``/``--workers`` to explore contention locally.
"""

from __future__ import annotations

import argparse
import os
import random
import sys
import threading
import time
from typing import Dict, List, Optional

# Cap glibc's per-thread malloc arenas before numpy loads: without it,
# every client/worker/shard thread can map an arena that keeps its own
# high-water mark, and RSS creeps for minutes before plateauing — noise
# the growth bound would have to absorb.  Re-exec so the cap applies.
if os.environ.get("MALLOC_ARENA_MAX") is None:
    os.environ["MALLOC_ARENA_MAX"] = "4"
    os.execv(sys.executable, [sys.executable] + sys.argv)

import numpy as np

from repro import SolveConfig
from repro.core import api
from repro.core.engine import iaf_hit_rate_curve
from repro.errors import ServiceOverloadedError
from repro.service import CurveService

#: Length of the corpus's one oversize trace: past ``solve()``'s size
#: rule (``api.CHUNKED_THRESHOLD``), so it runs on the chunked engine.
OVERSIZE = 250_000


def runs_chunked(trace: np.ndarray) -> bool:
    """Whether the default config's solve of ``trace`` runs chunked."""
    return api.runs_chunked(SolveConfig(), trace.size)


def rss_kib() -> int:
    """Resident set size in KiB from /proc (Linux CI runners)."""
    with open("/proc/self/status", "r", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmRSS:"):
                return int(line.split()[1])
    raise RuntimeError("VmRSS not found in /proc/self/status")


def build_corpus(seed: int) -> List[np.ndarray]:
    """Mixed-size traces: many small, some medium, one oversize."""
    rng = np.random.default_rng(seed)
    corpus = [
        rng.integers(0, 64, size=int(n))
        for n in rng.integers(50, 2_000, size=12)
    ]
    corpus += [
        rng.integers(0, 5_000, size=int(n))
        for n in rng.integers(20_000, 60_000, size=3)
    ]
    corpus.append(rng.integers(0, 20_000, size=OVERSIZE))
    assert runs_chunked(corpus[-1]), "the oversize trace must run chunked"
    return corpus


def config_menu() -> List[SolveConfig]:
    return [
        SolveConfig(),
        SolveConfig(max_cache_size=16),
        SolveConfig(max_cache_size=256),
        SolveConfig(dtype=np.int32),
        SolveConfig(algorithm="parallel-iaf", workers=2),
        SolveConfig(engine_backend="naive"),
    ]


def expected_curve(direct: np.ndarray, cfg: SolveConfig) -> np.ndarray:
    k = cfg.max_cache_size
    return direct[:k] if k is not None else direct


def client_loop(
    service: CurveService,
    corpus: List[np.ndarray],
    direct: List[np.ndarray],
    configs: List[SolveConfig],
    stop_at: float,
    seed: int,
    out: Dict[str, int],
    errors: List[str],
    lock: threading.Lock,
) -> None:
    rng = random.Random(seed)
    while time.monotonic() < stop_at:
        idx = rng.randrange(len(corpus))
        trace = corpus[idx]
        # The oversize trace always goes through the default config so it
        # exercises the chunked path; small traces draw from the full menu.
        oversize = runs_chunked(trace)
        cfg = SolveConfig() if oversize else rng.choice(configs)
        try:
            future = service.submit(trace, cfg, deadline=120.0)
        except ServiceOverloadedError:
            with lock:
                out["rejected"] += 1
            time.sleep(0.002)  # expected backpressure: back off, retry
            continue
        try:
            result = future.result(timeout=180.0)
        except Exception as exc:  # noqa: BLE001 — any failure fails the soak
            with lock:
                errors.append(f"{type(exc).__name__}: {exc}")
            return
        if not np.array_equal(result.curve.hits_cumulative,
                              expected_curve(direct[idx], cfg)):
            with lock:
                errors.append(
                    f"curve mismatch: trace#{idx} n={trace.size} cfg={cfg}"
                )
            return
        if oversize and result.distances is not None:
            with lock:
                errors.append(f"trace#{idx} n={trace.size} did not run "
                              f"on the chunked engine")
            return
        with lock:
            out["completed"] += 1
            out["chunked"] += int(oversize)


# -- multi-tenant soak -------------------------------------------------

HOT_UNIVERSE, HOT_LEN = 30_000, 400_000
COLD_UNIVERSE, COLD_LEN = 30_000, 80_000
SAMPLED_EVERY = 5  # every fifth tenant is pinned to the sampled tier
SAMPLED_RATE = 0.05
# Cold exact tenants are registered with a capped curve so the segment a
# demotion freezes is cheap — without the cap every churned cold tenant
# permanently banks a ~160KB frozen curve, the banked total outgrows any
# budget, and the registry spirals into demoting the hot tenants too.
COLD_CAP = 4_096
# Accesses pushed to every cold tenant before the clock starts: the cold
# working set is established up front (~0.4MB per tenant), so the hot
# tenants' growth crosses the budget deterministically early in the run
# instead of depending on how many trickle pushes the colds happen to
# receive within the wall-clock window.
COLD_PRELOAD = 40_000


def build_tenant_streams(
    n_tenants: int, clients: int, seed: int
) -> Dict[str, np.ndarray]:
    """One deterministic access stream per tenant.

    The first ``clients`` tenants are hot (big universe, long stream —
    their exact state is what squeezes the budget); the rest are cold.
    Clients push successive windows and wrap around, so the pushed
    history is reconstructable from (start, stop) offsets alone.
    """
    streams = {}
    for i in range(n_tenants):
        rng = np.random.default_rng(seed * 7919 + i)
        universe, length = (
            (HOT_UNIVERSE, HOT_LEN) if i < clients
            else (COLD_UNIVERSE, COLD_LEN)
        )
        streams[f"tenant-{i:03d}"] = rng.integers(0, universe, size=length)
    return streams


def tenant_client_loop(
    tenants,  # TenantService
    owned: List[str],
    streams: Dict[str, np.ndarray],
    logs: Dict[str, List],
    cursors: Dict[str, int],
    stop_at: float,
    seed: int,
    out: Dict[str, int],
    errors: List[str],
    lock: threading.Lock,
) -> None:
    """Push mostly to ``owned[0]`` (hot), trickle to the cold tail.

    Each tenant has exactly one owning client, so per-tenant push order
    is single-threaded and ``logs[tid]`` records the ingested history
    exactly — cross-tenant concurrency is still real (every push and
    curve query rides the shared service queue).
    """
    from repro.errors import ServiceOverloadedError as Overloaded

    rng = random.Random(seed)
    iteration = 0
    while time.monotonic() < stop_at:
        iteration += 1
        tid = (rng.choice(owned[1:])
               if owned[1:] and iteration % 16 == 0 else owned[0])
        stream = streams[tid]
        start = cursors[tid]
        stop = min(start + rng.randrange(200, 800), stream.size)
        cursors[tid] = 0 if stop >= stream.size else stop
        batch = stream[start:stop]
        try:
            future = tenants.push_many(tid, batch, deadline=120.0)
        except Overloaded:
            with lock:
                out["rejected"] += 1
            time.sleep(0.002)
            continue
        try:
            receipt = future.result(timeout=180.0)
        except Exception as exc:  # noqa: BLE001 — any failure fails the soak
            with lock:
                errors.append(f"push {tid}: {type(exc).__name__}: {exc}")
            return
        if receipt["accepted"] != batch.size:
            with lock:
                errors.append(
                    f"push {tid}: receipt accepted {receipt['accepted']} "
                    f"!= batch {batch.size}"
                )
            return
        logs[tid].append((start, stop))  # single owner: no race
        with lock:
            out["completed"] += 1
            out["accesses"] += int(batch.size)
        if iteration % 25 == 0:
            qid = rng.choice(owned)
            try:
                snap = tenants.curve(qid, deadline=120.0).result(timeout=180.0)
            except Exception as exc:  # noqa: BLE001
                with lock:
                    errors.append(
                        f"curve {qid}: {type(exc).__name__}: {exc}"
                    )
                return
            hits = np.asarray(snap.estimate.hits_estimate)
            if hits.size and ((hits < -1e-9).any()
                              or (np.diff(hits) < -1e-9).any()):
                with lock:
                    errors.append(f"curve {qid}: non-monotone hits mid-run")
                return
            with lock:
                out["curves"] += 1


def verify_tenants(
    tenants,  # TenantService
    streams: Dict[str, np.ndarray],
    logs: Dict[str, List],
    errors: List[str],
    clients_n: int,
) -> Dict[str, int]:
    """End-of-run ground-truth pass over every tenant's final curve."""
    from repro.core.sampling import sampled_hit_rate_curve

    futures = {
        tid: tenants.curve(tid, deadline=120.0) for tid in sorted(streams)
    }
    snaps = {tid: f.result(timeout=180.0) for tid, f in futures.items()}
    rows = {r["tenant"]: r for r in tenants.describe()}
    tally = {"exact_verified": 0, "sampled_verified": 0, "demoted": 0}
    for i, tid in enumerate(sorted(streams)):
        snap, row = snaps[tid], rows[tid]
        pushed = (
            np.concatenate([streams[tid][a:b] for a, b in logs[tid]])
            if logs[tid] else np.empty(0, dtype=np.int64)
        )
        if snap.total_accesses != pushed.size:
            errors.append(
                f"{tid}: total_accesses {snap.total_accesses} != "
                f"logged {pushed.size}"
            )
            continue
        if i % SAMPLED_EVERY == SAMPLED_EVERY - 1:
            # pinned sampled tenant: streaming must equal one-shot shards
            baseline = sampled_hit_rate_curve(pushed, SAMPLED_RATE, seed=i)
            if not np.array_equal(
                snap.estimate.hits_estimate, baseline.hits_estimate
            ):
                errors.append(f"{tid}: sampled curve != one-shot baseline")
                continue
            tally["sampled_verified"] += 1
        elif row["demotions"] == 0:
            if snap.exact_curve is None:
                errors.append(f"{tid}: never demoted but exact_curve gone")
                continue
            if pushed.size:
                exact = iaf_hit_rate_curve(pushed)
                got = np.asarray(snap.exact_curve.hits_cumulative)
                want = np.asarray(exact.hits_cumulative)
                expect_len = (want.size if i < clients_n
                              else min(COLD_CAP, want.size))
                if got.size != expect_len or not np.array_equal(
                    got, want[:got.size]
                ):
                    errors.append(
                        f"{tid}: exact tenant diverged from direct solve "
                        f"({pushed.size} accesses)"
                    )
                    continue
            tally["exact_verified"] += 1
        else:
            if snap.exact_curve is not None:
                errors.append(f"{tid}: demoted yet still claims exact")
                continue
            tally["demoted"] += 1
    return tally


def run_tenant_soak(args: argparse.Namespace) -> int:
    from repro.tenants import TenantRegistry, TenantService

    n_tenants = args.tenants
    clients_n = min(args.clients, n_tenants)
    streams = build_tenant_streams(n_tenants, clients_n, args.seed)
    ids = sorted(streams)
    print(f"tenants: {n_tenants} ({clients_n} hot), budget "
          f"{args.tenant_budget_mb:g}MB, every {SAMPLED_EVERY}th pinned "
          f"sampled at R={SAMPLED_RATE:g}", flush=True)

    service = CurveService(
        workers=args.workers, max_queue=args.max_queue, max_batch=16
    )
    registry = TenantRegistry(
        memory_budget=int(args.tenant_budget_mb * 1024 * 1024),
        default_sample_rate=SAMPLED_RATE,
    )
    tenants = TenantService(service, registry)
    for i, tid in enumerate(ids):
        if i % SAMPLED_EVERY == SAMPLED_EVERY - 1:
            tenants.register(tid, tier="sampled",
                             sample_rate=SAMPLED_RATE, sample_seed=i)
        elif i < clients_n:
            tenants.register(tid)  # hot: full-length exact curve
        else:
            tenants.register(tid, max_cache_size=COLD_CAP)

    counts = {"completed": 0, "rejected": 0, "accesses": 0, "curves": 0}
    errors: List[str] = []
    lock = threading.Lock()
    logs: Dict[str, List] = {tid: [] for tid in ids}
    cursors: Dict[str, int] = {tid: 0 for tid in ids}

    # Establish the cold working set before the clock starts (and warm
    # the service path): tenant state is part of burn-in, not growth.
    preload = [
        (tid, tenants.push_many(tid, streams[tid][:COLD_PRELOAD],
                                deadline=120.0))
        for i, tid in enumerate(ids) if i >= clients_n
    ]
    for tid, fut in preload:
        fut.result(timeout=180.0)
        logs[tid].append((0, COLD_PRELOAD))
        cursors[tid] = COLD_PRELOAD

    owned = {
        c: [ids[i] for i in range(c, n_tenants, clients_n)]
        for c in range(clients_n)
    }

    start = time.monotonic()
    burn_in_until = start + max(8.0, args.seconds / 3.0)
    stop_at = start + args.seconds
    burn_in_peak_kib = rss_kib()
    steady_peak_kib = 0
    threads = [
        threading.Thread(
            target=tenant_client_loop,
            args=(tenants, owned[c], streams, logs, cursors, stop_at,
                  args.seed + 1 + c, counts, errors, lock),
            name=f"tenant-client-{c}",
            daemon=True,
        )
        for c in range(clients_n)
    ]
    for t in threads:
        t.start()
    while any(t.is_alive() for t in threads):
        sample = rss_kib()
        if time.monotonic() < burn_in_until:
            burn_in_peak_kib = max(burn_in_peak_kib, sample)
        else:
            steady_peak_kib = max(steady_peak_kib, sample)
        time.sleep(0.25)
    for t in threads:
        t.join()
    # Close the RSS window before the ground-truth pass: its transient
    # concatenations and direct solves are not part of the soak.
    steady_peak_kib = max(steady_peak_kib, rss_kib())
    growth_mb = max(0.0, steady_peak_kib - burn_in_peak_kib) / 1024.0

    tally = verify_tenants(tenants, streams, logs, errors, clients_n)
    metrics = tenants.metrics()
    service.close(drain=True)

    print(f"pushes {counts['completed']}  "
          f"accesses {counts['accesses']}  "
          f"curves {counts['curves']}  "
          f"rejected(backpressure) {counts['rejected']}", flush=True)
    print(f"verified: {tally['exact_verified']} exact bit-identical, "
          f"{tally['sampled_verified']} sampled == one-shot, "
          f"{tally['demoted']} demoted; "
          f"budget demotions {metrics.get('tenant.budget_demotions', 0):g}, "
          f"promotions {metrics.get('tenant.promotions', 0):g}, "
          f"state {metrics.get('tenant.state_bytes', 0) / 2**20:.1f}MB",
          flush=True)
    print(f"rss burn-in peak {burn_in_peak_kib / 1024:.1f}MB  "
          f"steady peak {steady_peak_kib / 1024:.1f}MB  "
          f"growth {growth_mb:.1f}MB "
          f"(limit {args.max_rss_growth_mb}MB)", flush=True)

    ok = True
    if errors:
        ok = False
        for err in errors:
            print(f"ERROR: {err}", file=sys.stderr)
    for key in ("service.failed", "service.deadline_exceeded",
                "service.cancelled"):
        if metrics.get(key, 0):
            ok = False
            print(f"ERROR: {key} = {metrics[key]}", file=sys.stderr)
    if not metrics.get("tenant.budget_demotions", 0):
        ok = False
        print("ERROR: the budget never demoted anyone — the soak is not "
              "exercising tier pressure (shrink --tenant-budget-mb)",
              file=sys.stderr)
    if tally["exact_verified"] < 1:
        ok = False
        print("ERROR: no tenant survived in the exact tier", file=sys.stderr)
    if counts["completed"] < n_tenants:
        ok = False
        print(f"ERROR: only {counts['completed']} pushes completed",
              file=sys.stderr)
    if growth_mb > args.max_rss_growth_mb:
        ok = False
        print(f"ERROR: RSS grew {growth_mb:.1f}MB > "
              f"{args.max_rss_growth_mb}MB", file=sys.stderr)
    print("tenant soak PASSED" if ok else "tenant soak FAILED", flush=True)
    return 0 if ok else 1


def run_soak(args: argparse.Namespace) -> int:
    corpus = build_corpus(args.seed)
    print(f"corpus: {len(corpus)} traces, "
          f"{min(t.size for t in corpus)}..{max(t.size for t in corpus)} "
          f"accesses", flush=True)
    direct = [iaf_hit_rate_curve(t).hits_cumulative for t in corpus]

    service = CurveService(
        workers=args.workers,
        max_queue=args.max_queue,
        max_batch=16,
    )
    counts = {"completed": 0, "rejected": 0, "chunked": 0}
    errors: List[str] = []
    lock = threading.Lock()

    # Prime each config path once so first-touch allocation (imports,
    # per-worker workspaces) is out of the way before the clock starts.
    small = [t for t in corpus if not runs_chunked(t)]
    for cfg in config_menu():  # wave per config; chunked to fit the queue
        for at in range(0, len(small), args.max_queue):
            warm = [service.submit(t, cfg, deadline=120.0)
                    for t in small[at:at + args.max_queue]]
            for f in warm:
                f.result(timeout=180.0)
    service.submit(corpus[-1], deadline=120.0).result(timeout=180.0)

    # Plateau bound: the burn-in third of the run brings arenas and the
    # concurrency working set to their high-water; afterwards RSS may
    # not climb more than the margin.  Leaks grow per-request and fail;
    # steady-state churn does not.
    start = time.monotonic()
    burn_in_until = start + max(8.0, args.seconds / 3.0)
    stop_at = start + args.seconds
    burn_in_peak_kib = rss_kib()
    steady_peak_kib = 0
    clients = [
        threading.Thread(
            target=client_loop,
            args=(service, corpus, direct, config_menu(), stop_at,
                  args.seed + 1 + i, counts, errors, lock),
            name=f"soak-client-{i}",
            daemon=True,
        )
        for i in range(args.clients)
    ]
    for t in clients:
        t.start()
    while any(t.is_alive() for t in clients):
        sample = rss_kib()
        if time.monotonic() < burn_in_until:
            burn_in_peak_kib = max(burn_in_peak_kib, sample)
        else:
            steady_peak_kib = max(steady_peak_kib, sample)
        time.sleep(0.25)
    for t in clients:
        t.join()
    service.close(drain=True)
    steady_peak_kib = max(steady_peak_kib, rss_kib())

    growth_mb = max(0.0, steady_peak_kib - burn_in_peak_kib) / 1024.0
    metrics = service.metrics()
    print(f"completed {counts['completed']}  "
          f"rejected(backpressure) {counts['rejected']}  "
          f"batches {metrics.get('service.batches', 0)}  "
          f"chunked {counts['chunked']}  "
          f"p50 {metrics.get('service.latency_p50', 0.0) * 1e3:.1f}ms  "
          f"p99 {metrics.get('service.latency_p99', 0.0) * 1e3:.1f}ms",
          flush=True)
    print(f"rss burn-in peak {burn_in_peak_kib / 1024:.1f}MB  "
          f"steady peak {steady_peak_kib / 1024:.1f}MB  "
          f"growth {growth_mb:.1f}MB "
          f"(limit {args.max_rss_growth_mb}MB)", flush=True)

    ok = True
    if errors:
        ok = False
        for err in errors:
            print(f"ERROR: {err}", file=sys.stderr)
    for key in ("service.failed", "service.deadline_exceeded",
                "service.cancelled"):
        if metrics.get(key, 0):
            ok = False
            print(f"ERROR: {key} = {metrics[key]}", file=sys.stderr)
    if counts["completed"] < args.clients:
        ok = False
        print(f"ERROR: only {counts['completed']} requests completed",
              file=sys.stderr)
    if growth_mb > args.max_rss_growth_mb:
        ok = False
        print(f"ERROR: RSS grew {growth_mb:.1f}MB > "
              f"{args.max_rss_growth_mb}MB", file=sys.stderr)
    print("soak PASSED" if ok else "soak FAILED", flush=True)
    return 0 if ok else 1


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="wall-clock soak budget (default 30)")
    parser.add_argument("--clients", type=int, default=6,
                        help="concurrent client threads (default 6)")
    parser.add_argument("--workers", type=int, default=2,
                        help="service worker threads (default 2)")
    parser.add_argument("--max-queue", type=int, default=64,
                        help="admission queue bound; shrink it to force "
                             "the backpressure path (default 64)")
    parser.add_argument("--seed", type=int, default=0,
                        help="corpus + scheduling seed (default 0)")
    parser.add_argument("--max-rss-growth-mb", type=float, default=128.0,
                        help="post-burn-in RSS peak may exceed the "
                             "burn-in peak by at most this (default 128; "
                             "a per-request leak blows far past it "
                             "within the budget)")
    parser.add_argument("--tenants", type=int, default=0,
                        help="run the multi-tenant soak with this many "
                             "tenants instead of the one-shot solve soak "
                             "(default 0 = one-shot mode)")
    parser.add_argument("--tenant-budget-mb", type=float, default=4.5,
                        help="global registry memory budget for the "
                             "tenant soak; sized between the hot working "
                             "set and the full tenant population so cold "
                             "exact tenants must demote while hot ones "
                             "survive (default 3)")
    args = parser.parse_args(argv)
    if args.tenants > 0:
        return run_tenant_soak(args)
    return run_soak(args)


if __name__ == "__main__":
    sys.exit(main())
