"""Command-line interface: ``python -m repro <command>``.

Six subcommands cover the operator workflow the paper motivates:

* ``generate`` — synthesize a workload into a REPROTRC trace file.
* ``info``     — print a trace file's statistics (n, u, reuse profile).
* ``analyze``  — compute the exact LRU hit-rate curve of a trace file
  and report it at chosen (or automatically selected) cache sizes, as a
  table or CSV.
* ``compare``  — run several algorithms on the same trace, verify they
  agree, and print a runtime comparison.
* ``profile``  — run one algorithm under the :mod:`repro.obs` tracer and
  report where the time went (per-phase table, JSON lines, or a Chrome
  ``trace_event`` file for ``chrome://tracing`` / Perfetto).
* ``fuzz``     — randomized differential testing: run seeded adversarial
  traces through every implementation (:mod:`repro.qa`) until a time
  budget expires, minimizing and reporting any divergence found.
* ``serve``    — run the batching solve service
  (:mod:`repro.service`) over a line-oriented protocol: one request per
  stdin/TCP line, one JSON result per line (see docs/SERVICE.md).

The CLI works on trace files rather than in-memory arrays so it composes
with the streaming story: ``analyze --algorithm bounded-iaf`` keeps O(k)
state regardless of trace length.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import List, Optional, Sequence

from .analysis.curves import knee_points, smallest_cache_for_hit_rate
from .analysis.report import render_table, seconds
from .core.api import ALGORITHMS, solve
from .core.config import SolveConfig
from .core.engine import ENGINE_BACKENDS
from .errors import ReproError
from .workloads.stats import frequency_profile, trace_stats
from .workloads.synthetic import (
    sequential_scan_trace,
    uniform_trace,
    working_set_trace,
    zipfian_trace,
)
from .workloads.traceio import read_trace, trace_info, write_trace

PROG = "repro"


def build_parser() -> argparse.ArgumentParser:
    """The top-level argument parser (exposed for shtab-style tooling)."""
    parser = argparse.ArgumentParser(
        prog=PROG,
        description="Exact LRU hit-rate curves via Increment-and-Freeze "
                    "(SPAA 2023 reproduction).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="synthesize a trace file")
    gen.add_argument("output", help="path of the REPROTRC file to write")
    gen.add_argument("--kind", default="zipf",
                     choices=["uniform", "zipf", "scan", "phases"])
    gen.add_argument("--requests", "-n", type=int, default=100_000)
    gen.add_argument("--universe", "-u", type=int, default=10_000)
    gen.add_argument("--alpha", type=float, default=0.8,
                     help="Zipf skew (kind=zipf)")
    gen.add_argument("--phases", type=int, default=4,
                     help="phase count (kind=phases)")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--dtype", default="int64", choices=["int32", "int64"])

    info = sub.add_parser("info", help="describe a trace file")
    info.add_argument("trace", help="REPROTRC file")

    ana = sub.add_parser("analyze", help="compute the hit-rate curve")
    ana.add_argument("trace", nargs="+",
                     help="REPROTRC file (several with --batch)")
    ana.add_argument("--batch", action="store_true",
                     help="analyze several trace files in one batched "
                          "engine solve (one curve per file)")
    ana.add_argument("--algorithm", default="iaf", choices=list(ALGORITHMS))
    ana.add_argument("--max-cache-size", "-k", type=int, default=None)
    ana.add_argument("--workers", type=int, default=1)
    ana.add_argument("--chunk-size", type=int, default=None,
                     help="accesses per chunk for chunked-iaf (result is "
                          "identical for every value; memory is not)")
    ana.add_argument("--engine-backend", default=None,
                     choices=list(ENGINE_BACKENDS),
                     help="engine level kernel (naive = differential "
                          "oracle; compiled = numba JIT, falls back to "
                          "fused without numba; default: "
                          "REPRO_ENGINE_BACKEND or fused)")
    ana.add_argument("--sizes", default=None,
                     help="comma-separated cache sizes to report "
                          "(default: knees of the curve)")
    ana.add_argument("--target", type=float, action="append", default=[],
                     help="also report the smallest cache reaching this "
                          "hit rate (repeatable)")
    ana.add_argument("--format", default="table", choices=["table", "csv"])
    ana.add_argument("--save", default=None, metavar="CURVE.npz",
                     help="persist the exact curve for later comparison")
    ana.add_argument("--profile", action="store_true",
                     help="also trace the run and print a span summary")

    cmp_ = sub.add_parser("compare", help="race algorithms on one trace")
    cmp_.add_argument("trace", help="REPROTRC file")
    cmp_.add_argument("--algorithms", default="iaf,bounded-iaf,ost",
                      help="comma-separated subset of: "
                           + ",".join(ALGORITHMS))
    cmp_.add_argument("--workers", type=int, default=1)
    cmp_.add_argument("--max-cache-size", "-k", type=int, default=None)

    prof = sub.add_parser(
        "profile",
        help="trace one analysis run and report where the time went",
    )
    prof.add_argument("trace", help="REPROTRC file")
    prof.add_argument("--algorithm", default="iaf", choices=list(ALGORITHMS))
    prof.add_argument("--max-cache-size", "-k", type=int, default=None)
    prof.add_argument("--workers", type=int, default=1)
    prof.add_argument("--format", default="table",
                      choices=["table", "jsonl", "chrome"],
                      help="table: per-span summary; jsonl: one event per "
                           "line; chrome: trace_event JSON")
    prof.add_argument("--trace-out", default=None, metavar="FILE",
                      help="write the jsonl/chrome export here instead of "
                           "stdout (table is still printed)")
    prof.add_argument("--capacity", type=int, default=None,
                      help="span ring-buffer capacity (default: 65536)")

    fuzz = sub.add_parser(
        "fuzz",
        help="randomized differential testing of every implementation",
    )
    fuzz.add_argument("--seconds", type=float, default=30.0,
                      help="time budget (default: 30)")
    fuzz.add_argument("--seed", type=int, default=0,
                      help="first case seed; case i uses seed+i")
    fuzz.add_argument("--profile", default="quick",
                      choices=["quick", "deep"],
                      help="quick: small traces, cheap matrix; "
                           "deep: larger traces, process pools more often")
    fuzz.add_argument("--max-cases", type=int, default=None,
                      help="stop after this many cases even under budget")
    fuzz.add_argument("--keep-going", action="store_true",
                      help="report divergences but continue to the budget")

    srv = sub.add_parser(
        "serve",
        help="run the batching solve service (stdin lines, or TCP with "
             "--port)",
    )
    srv.add_argument("--port", type=int, default=None,
                     help="listen on TCP instead of stdin (0 = any free "
                          "port)")
    srv.add_argument("--host", default="127.0.0.1")
    srv.add_argument("--max-queue", type=int, default=256,
                     help="admission queue bound; beyond it requests are "
                          "rejected, not buffered")
    srv.add_argument("--max-batch", type=int, default=32,
                     help="most requests one dispatch tick coalesces")
    srv.add_argument("--workers", type=int, default=2,
                     help="solver threads")
    srv.add_argument("--default-deadline", type=float, default=None,
                     help="seconds granted to requests that set none")
    srv.add_argument("--metrics", action="store_true",
                     help="print service counters to stderr on exit")
    srv.add_argument("--tenants", action="store_true",
                     help="enable the multi-tenant verbs (register/push/"
                          "curve/evict lines with an \"op\" field; see "
                          "docs/TENANTS.md)")
    srv.add_argument("--tenant-budget-mb", type=float, default=None,
                     help="global tenant state budget in MiB; cold exact "
                          "tenants are demoted to the sampled tier when "
                          "the total exceeds it")
    srv.add_argument("--tenant-sample-rate", type=float, default=0.01,
                     help="default hash-sampling rate for sampled-tier "
                          "tenants")
    srv.add_argument("--cluster", type=int, default=None, metavar="N",
                     help="spawn N shard server processes behind a "
                          "consistent-hash routing frontend on "
                          "--host/--port (see docs/CLUSTER.md); shard "
                          "knobs (--workers, --max-queue, ...) apply to "
                          "every shard")

    return parser


def _cmd_generate(args: argparse.Namespace) -> int:
    if args.kind == "uniform":
        trace = uniform_trace(args.requests, args.universe, seed=args.seed,
                              dtype=args.dtype)
    elif args.kind == "zipf":
        trace = zipfian_trace(args.requests, args.universe, args.alpha,
                              seed=args.seed, dtype=args.dtype)
    elif args.kind == "scan":
        trace = sequential_scan_trace(args.requests, args.universe,
                                      dtype=args.dtype)
    else:
        trace = working_set_trace(args.requests, args.universe,
                                  phases=args.phases, seed=args.seed,
                                  dtype=args.dtype)
    write_trace(args.output, trace)
    print(f"wrote {trace.size:,} accesses ({args.kind}) to {args.output}")
    return 0


def _cmd_info(args: argparse.Namespace) -> int:
    dtype, n = trace_info(args.trace)
    trace = read_trace(args.trace)
    stats = trace_stats(trace)
    print(f"file:               {args.trace}")
    print(f"dtype:              {dtype}")
    print(f"requests:           {stats.n:,}")
    print(f"distinct ids:       {stats.unique_ids:,}")
    print(f"requests per id:    {stats.requests_per_id:.2f}")
    print(f"max id frequency:   {stats.max_frequency:,}")
    print(f"best possible H:    {stats.best_possible_hit_rate:.4f}")
    profile = frequency_profile(trace)
    if profile:
        print("frequency profile (accesses-per-id -> #ids):")
        for bucket, count in profile.items():
            print(f"  {bucket:>12}: {count:,}")
    return 0


def _parse_sizes(raw: Optional[str]) -> Optional[List[int]]:
    if raw is None:
        return None
    try:
        sizes = [int(tok) for tok in raw.split(",") if tok.strip()]
    except ValueError:
        raise ReproError(f"bad --sizes value {raw!r}") from None
    if not sizes or any(s < 1 for s in sizes):
        raise ReproError("--sizes must be positive integers")
    return sizes


def _report_curve(curve, args: argparse.Namespace, title: str,
                  csv_label: Optional[str] = None) -> None:
    """Print one curve in the requested format plus any --target lines."""
    sizes = _parse_sizes(args.sizes)
    if sizes is None:
        knees = knee_points(curve, min_gain=0.02)
        sizes = [int(k) for k in knees[:8]]
        if curve.max_size and curve.max_size not in sizes:
            sizes.append(curve.max_size)
        sizes = sizes or [max(1, curve.max_size)]
    rows = [[k, curve.hits(k), f"{curve.hit_rate(k):.4f}"] for k in sizes]
    if args.format == "csv":
        if csv_label is None:
            print("cache_size,hits,hit_rate")
            for k, hits, rate in rows:
                print(f"{k},{hits},{rate}")
        else:
            for k, hits, rate in rows:
                print(f"{csv_label},{k},{hits},{rate}")
    else:
        print(render_table(
            title, ["cache size", "hits", "hit rate"], rows,
        ))
    for target in args.target:
        k = smallest_cache_for_hit_rate(curve, target)
        if k is None:
            print(f"hit rate {target:.0%}: unreachable on this trace")
        else:
            print(f"hit rate {target:.0%}: first reached at cache size {k:,}")


def _cmd_analyze_batch(args: argparse.Namespace) -> int:
    if getattr(args, "profile", False):
        raise ReproError("--profile is not supported with --batch")
    if args.save:
        raise ReproError("--save is not supported with --batch")
    from .service import CurveService

    traces = [read_trace(path) for path in args.trace]
    cfg = SolveConfig(
        algorithm=args.algorithm,
        max_cache_size=args.max_cache_size,
        workers=args.workers,
        engine_backend=args.engine_backend,
        chunk_size=args.chunk_size,
    )
    t0 = time.perf_counter()
    # The same execution path as `repro serve`: one service, all files
    # submitted atomically so compatible ones ride one coalesced solve.
    with CurveService(
        max_queue=max(16, len(traces)), max_batch=max(1, len(traces)),
        workers=1,
    ) as svc:
        results = svc.solve_many(traces, cfg, labels=args.trace)
    curves = [r.curve for r in results]
    elapsed = time.perf_counter() - t0
    total = sum(t.size for t in traces)
    if args.format == "csv":
        print("trace,cache_size,hits,hit_rate")
    else:
        print(f"batched {len(traces)} traces ({total:,} accesses) "
              f"in {seconds(elapsed)} [{args.algorithm}]")
    for path, curve in zip(args.trace, curves):
        _report_curve(
            curve, args,
            title=f"LRU hit-rate curve of {path} ({args.algorithm})",
            csv_label=path if args.format == "csv" else None,
        )
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    if args.batch:
        return _cmd_analyze_batch(args)
    if len(args.trace) != 1:
        raise ReproError(
            "analyze takes one trace file unless --batch is given"
        )
    trace = read_trace(args.trace[0])
    cfg = SolveConfig(
        algorithm=args.algorithm,
        max_cache_size=args.max_cache_size,
        workers=args.workers,
        engine_backend=args.engine_backend,
        chunk_size=args.chunk_size,
    )
    profile_events = None
    t0 = time.perf_counter()
    if getattr(args, "profile", False):
        from .obs.profile import profile_hit_rate_curve

        result = profile_hit_rate_curve(trace, cfg)
        curve = result.curve
        profile_events = result.events
    else:
        curve = solve(trace, cfg).curve
    elapsed = time.perf_counter() - t0
    _report_curve(
        curve, args,
        title=f"LRU hit-rate curve ({args.algorithm}, {seconds(elapsed)})",
    )
    if args.save:
        from .core.hitrate import save_curve

        save_curve(curve, args.save)
        print(f"curve saved to {args.save}")
    if profile_events is not None and args.format != "csv":
        # csv output stays machine-readable; the span table would
        # corrupt downstream parsers.
        from .obs.export import summary_table

        print()
        print(summary_table(profile_events,
                            title=f"span summary ({args.algorithm})"))
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    from .obs.export import (
        chrome_trace_json,
        counters_table,
        summary_table,
        to_jsonl,
        write_chrome_trace,
        write_jsonl,
    )
    from .obs.profile import profile_hit_rate_curve
    from .obs.span import DEFAULT_CAPACITY

    trace = read_trace(args.trace)
    result = profile_hit_rate_curve(
        trace,
        SolveConfig(
            algorithm=args.algorithm,
            max_cache_size=args.max_cache_size,
            workers=args.workers,
        ),
        capacity=args.capacity or DEFAULT_CAPACITY,
    )
    if args.trace_out:
        if args.format == "chrome":
            write_chrome_trace(result.events, args.trace_out)
        elif args.format == "jsonl":
            write_jsonl(result.events, args.trace_out)
        else:
            raise ReproError(
                "--trace-out requires --format jsonl or chrome"
            )
        print(f"{len(result.events)} spans ({args.format}) written to "
              f"{args.trace_out}")
    elif args.format == "chrome":
        print(chrome_trace_json(result.events))
        return 0
    elif args.format == "jsonl":
        print(to_jsonl(result.events), end="")
        return 0
    print(summary_table(
        result.events,
        title=f"profile: {args.algorithm} on {args.trace} "
              f"(n={result.n:,}, {seconds(result.wall_seconds)})",
        note=(f"{result.dropped_events} spans dropped (ring buffer full)"
              if result.dropped_events else None),
    ))
    print()
    print(counters_table(result.counters))
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    trace = read_trace(args.trace)
    algorithms = [a.strip() for a in args.algorithms.split(",") if a.strip()]
    for algo in algorithms:
        if algo not in ALGORITHMS:
            raise ReproError(
                f"unknown algorithm {algo!r}; choose from {ALGORITHMS}"
            )
    results = []
    for algo in algorithms:
        t0 = time.perf_counter()
        curve = solve(trace, SolveConfig(
            algorithm=algo,
            max_cache_size=args.max_cache_size,
            workers=args.workers,
        )).curve
        results.append((algo, curve, time.perf_counter() - t0))
    reference = results[0][1]
    probe = max(1, min(reference.max_size or 1,
                       args.max_cache_size or reference.max_size or 1))
    agree = all(c.hits(probe) == reference.hits(probe)
                for _a, c, _t in results)
    base = results[0][2]
    print(render_table(
        f"{len(algorithms)} algorithms on {args.trace} "
        f"(n={trace.size:,})",
        ["algorithm", "runtime", "speedup vs first",
         f"hits at k={probe}"],
        [[a, seconds(t), f"{base / t:.2f}x" if t else "-", c.hits(probe)]
         for a, c, t in results],
        note="all curves agree" if agree else "CURVES DISAGREE — bug!",
    ))
    return 0 if agree else 2


def _cmd_fuzz(args: argparse.Namespace) -> int:
    from .qa import case_from_seed, run_case_detailed, shrink_case, to_pytest
    from .qa.shrink import divergence_signature

    deadline = time.perf_counter() + args.seconds
    cases = 0
    comparisons = 0
    failures = 0
    per_strategy: dict = {}
    while time.perf_counter() < deadline:
        if args.max_cases is not None and cases >= args.max_cases:
            break
        seed = args.seed + cases
        case = case_from_seed(seed, profile=args.profile)
        report = run_case_detailed(case)
        cases += 1
        comparisons += len(report.comparisons)
        per_strategy[case.strategy] = per_strategy.get(case.strategy, 0) + 1
        if report.divergences:
            failures += 1
            div = report.divergences[0]
            print(f"DIVERGENCE on {case.summary()}")
            for d in report.divergences:
                print(f"  {d.describe()}")
            print("minimizing ...")
            try:
                small = shrink_case(case, divergence_signature(div))
            except ValueError:
                small = case  # flaky failure: report the original case
            print(f"minimized to {small.trace.size} accesses: "
                  f"{small.summary()}")
            print()
            print("# ---- paste into tests/qa/test_regressions.py ----")
            print(to_pytest(small, div))
            if not args.keep_going:
                return 1
    elapsed = args.seconds - max(0.0, deadline - time.perf_counter())
    mix = ", ".join(
        f"{name}:{count}" for name, count in sorted(per_strategy.items())
    )
    print(
        f"fuzz: {cases} cases, {comparisons} comparisons, "
        f"{failures} divergences in {seconds(elapsed)} "
        f"(profile={args.profile}, seeds {args.seed}.."
        f"{args.seed + max(cases - 1, 0)})"
    )
    if mix:
        print(f"strategy mix: {mix}")
    return 1 if failures else 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from .service import CurveService, serve_stream, serve_tcp

    if args.cluster is not None:
        return _cmd_serve_cluster(args)
    service = CurveService(
        max_queue=args.max_queue,
        max_batch=args.max_batch,
        workers=args.workers,
        default_deadline=args.default_deadline,
    )
    tenants = None
    if args.tenants:
        from .tenants import TenantRegistry, TenantService

        budget = (int(args.tenant_budget_mb * (1 << 20))
                  if args.tenant_budget_mb is not None else None)
        tenants = TenantService(service, TenantRegistry(
            memory_budget=budget,
            default_sample_rate=args.tenant_sample_rate,
        ))
    failures = 0
    try:
        if args.port is not None:
            with serve_tcp(service, args.host, args.port,
                           tenants=tenants) as server:
                host, port = server.server_address[:2]
                print(f"{PROG}: serving on {host}:{port}",
                      file=sys.stderr)
                try:
                    server.serve_forever()
                except KeyboardInterrupt:
                    pass
        else:
            # Prefer the raw byte stream: serve_stream decodes strictly
            # and answers invalid UTF-8 with a ProtocolError line.  Text
            # stand-ins without a .buffer (tests, pipes) pass through.
            stdin = getattr(sys.stdin, "buffer", sys.stdin)
            failures = serve_stream(
                stdin,
                lambda text: print(text, flush=True),
                service,
                tenants=tenants,
            )
    finally:
        service.close(drain=True)
        metrics_source = tenants if tenants is not None else service
        if args.metrics:
            for name, value in sorted(metrics_source.metrics().items()):
                print(f"{name}: {value:g}", file=sys.stderr)
    return 1 if failures else 0


def _cmd_serve_cluster(args: argparse.Namespace) -> int:
    from .cluster import spawn_ring

    extra: list = ["--max-queue", str(args.max_queue),
                   "--max-batch", str(args.max_batch)]
    if args.default_deadline is not None:
        extra += ["--default-deadline", str(args.default_deadline)]
    if args.tenant_budget_mb is not None:
        extra += ["--tenant-budget-mb", str(args.tenant_budget_mb)]
    extra += ["--tenant-sample-rate", str(args.tenant_sample_rate)]
    with spawn_ring(
        args.cluster,
        host=args.host,
        port=args.port if args.port is not None else 0,
        workers=args.workers,
        extra_args=tuple(extra),
    ) as cluster:
        host, port = cluster.address
        print(f"{PROG}: serving {args.cluster}-shard ring on "
              f"{host}:{port}", file=sys.stderr)
        try:
            while True:
                time.sleep(1.0)
        except KeyboardInterrupt:
            pass
        finally:
            if args.metrics:
                for name, value in sorted(cluster.metrics().items()):
                    print(f"{name}: {value:g}", file=sys.stderr)
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "generate": _cmd_generate,
        "info": _cmd_info,
        "analyze": _cmd_analyze,
        "compare": _cmd_compare,
        "profile": _cmd_profile,
        "fuzz": _cmd_fuzz,
        "serve": _cmd_serve,
    }
    try:
        return handlers[args.command](args)
    except ReproError as exc:
        print(f"{PROG}: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
