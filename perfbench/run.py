"""Layered end-to-end benchmark of the repro program.

    python3 perfbench/run.py --workload serve_mix --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

``--trace 0`` reports the end-to-end metrics with tracing off.
``--trace 1`` runs the workload once untraced and once with the span
hook loaded into every process of the deployment, and reports the
per-layer table.  ``--workload all`` runs every workload both ways.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it give
provenance and every metric with its unit and sample count.  See
``README.md`` beside this file.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import platform
import shutil
import statistics
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

now = time.monotonic


def spec() -> Dict[str, Any]:
    """``BENCHMARK.json``: the metric names, units and bounds."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def units(section: str) -> Dict[str, str]:
    return {m["name"]: m["unit"] for m in spec()[section]}


def attribution_bound() -> float:
    """The tightest end-to-end bound in ``BENCHMARK.json``."""
    return min(m["bound"] for m in spec()["end_to_end"]
               if m["name"] != "setup_s")


def _commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def _tree_sha256(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def provenance(seed: int) -> Dict[str, Any]:
    import numpy

    import deploy
    from repro.core.engine import resolve_engine_backend

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(deploy.CPUS),
        "deploy_cpus": sorted(deploy.DEPLOY_CPUS),
        "loadgen_cpus": sorted(deploy.LOADGEN_CPUS),
        "numba": importlib.util.find_spec("numba") is not None,
        "engine_backend": resolve_engine_backend(None),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": _commit(),
        "src_sha256": _tree_sha256(SRC / "repro"),
        "seed": seed,
    }


def probe_row(wl: Any) -> tuple:
    return ("probe_ms", wl.meter.probe_s() * 1e3, "ms", len(wl.meter.probes))


def _rows_untraced(wl: Any, setups: List[float],
                   rss: float) -> Tuple[Dict[str, float], List[tuple]]:
    ledger, meter = wl.ledger, wl.meter
    metrics = {
        "setup_s": statistics.median(setups),
        "cpu_per_maccess": meter.probes_per_maccess(),
        "rss_peak_mb": rss,
    }
    unit = units("end_to_end")
    samples = {"setup_s": len(setups), "rss_peak_mb": 1,
               "cpu_per_maccess": len(meter.cycles)}
    rows = [(name, value, unit[name], samples[name])
            for name, value in metrics.items()]
    served = ledger.attempted - ledger.failed
    rows += [
        ("accesses_per_s", meter.accesses / meter.cycle_wall_s,
         "accesses/s", served),
        ("cpu_us_per_access", 1e6 * meter.cpu_s / meter.accesses, "us",
         served),
        probe_row(wl),
    ]
    for kind in ("solve", "window", "push", "query"):
        summary = ledger.summary(kind)
        if not summary["samples"]:
            continue
        for pct in ("p50", "p90", "p99"):
            value = summary[f"{pct}_ms"]
            if value is not None:
                rows.append((f"{kind}_{pct}_ms", value, "ms",
                             summary["samples"]))
    rows.append(("failed_ratio", ledger.failed_ratio, "ratio",
                 ledger.attempted))
    return metrics, rows


def run_untraced(wl: Any, seconds: float) -> Tuple[Dict[str, float],
                                                   List[tuple]]:
    setups = []
    try:
        for i in range(wl.cold_starts):
            t0 = now()
            wl.start(None)
            wl.warm()
            setups.append(now() - t0)
            if i + 1 < wl.cold_starts:
                wl.stop()
        wl.timed(seconds)
        rss = wl.peak_rss_mb()
        if not wl.aborted:
            wl.check()
    finally:
        wl.stop()
    return _rows_untraced(wl, setups, rss)


def run_traced(wl: Any, seconds: float) -> Tuple[Dict[str, float],
                                                 List[tuple]]:
    from attribution import analyse
    from layertrace import LayerTracer

    try:
        wl.start(None)
        wl.warm()
        u0, u1 = wl.timed(seconds)
    finally:
        wl.stop()
    untraced_per_access = (u1 - u0) / max(wl.ledger.accesses, 1)

    trace_dir = OUT / f"spans-{os.getpid()}"
    shutil.rmtree(trace_dir, ignore_errors=True)
    trace_dir.mkdir(parents=True)
    wl.tracer = LayerTracer("loadgen")
    try:
        wl.start(trace_dir)
        wl.warm()
        w0, w1 = wl.timed(seconds)
        if not wl.aborted:
            wl.check()
    finally:
        wl.stop()
    dumps = [json.loads(p.read_text()) for p in trace_dir.glob("*.json")]
    shutil.rmtree(trace_dir, ignore_errors=True)
    dumps.append({"pid": os.getpid(), "role": "loadgen",
                  "spans": wl.tracer.spans, "events": wl.tracer.events})
    result = analyse(dumps, w0, w1, wl.ledger.accesses)
    metrics = result["metrics"]
    traced_per_access = (w1 - w0) / max(wl.ledger.accesses, 1)
    metrics["trace_overhead"] = traced_per_access / untraced_per_access - 1

    bound = attribution_bound()
    total = result["attributed_s"] + metrics["unattributed_s"]
    if abs(total - result["wall_s"]) > bound * result["wall_s"]:
        wl.errors.append(
            f"attribution: layer self times + unattributed_s = {total:.4f}"
            f" s, traced wall = {result['wall_s']:.4f} s")
    seen: Dict[str, int] = {}
    for dump in dumps:
        if dump["pid"] in result["pids_with_spans"]:
            seen[dump["role"]] = seen.get(dump["role"], 0) + 1
    for role, want in wl.processes.items():
        if seen.get(role, 0) != want:
            wl.errors.append(f"attribution: {seen.get(role, 0)} {role} "
                             f"process(es) traced, expected {want}")
    if result["hop_missing"]:
        wl.errors.append(f"attribution: {result['hop_missing']} ring ops "
                         f"have no shard-side span")
    unit = units("per_layer")
    rows = [(name, value, unit[name], wl.ledger.attempted)
            for name, value in metrics.items()]
    return metrics, rows + [probe_row(wl)]


def run_one(name: str, seed: int, seconds: float,
            trace: bool) -> Tuple[Dict[str, Any], bool]:
    from workloads import WORKLOADS

    wl = WORKLOADS[name](seed, OUT)
    if trace:
        metrics, rows = run_traced(wl, seconds)
        declared = units("per_layer")
    else:
        metrics, rows = run_untraced(wl, seconds)
        declared = units("end_to_end")
    if set(metrics) != set(declared):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(declared))}"
                           f" differ from BENCHMARK.json")
    print(f"# {name} trace={int(trace)} seed={seed} seconds={seconds}")
    print("# provenance " + json.dumps(provenance(seed), sort_keys=True))
    print(f"# {'metric':<30} {'value':>16} {'unit':<15} samples")
    for metric, value, unit, samples in rows:
        shown = "-" if value is None else f"{value:.6g}"
        print(f"# {metric:<30} {shown:>16} {unit:<15} {samples}")
    reasons = dict(wl.ledger.reasons)
    if reasons:
        print(f"# failures by reason {json.dumps(reasons, sort_keys=True)}")
    for error in wl.errors:
        print(f"# ERROR {error}")
    correct = not wl.errors and wl.ledger.failed == 0 and all(
        v is not None for v in metrics.values())
    result = {
        "correct": correct,
        "attempted": wl.ledger.attempted,
        "failed": wl.ledger.failed,
        "metrics": {k: {"value": 0.0 if v is None else v,
                        "unit": declared[k]} for k, v in metrics.items()},
    }
    return result, correct


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        help="offline_solve, serve_mix, ring_tenants or all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"run.py: no program to measure: {SRC / 'repro'} is missing",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE / "hook")]
    from deploy import pin_loadgen

    pin_loadgen()
    from workloads import WORKLOADS

    if args.workload == "all":
        plan = [(w, t) for w in WORKLOADS for t in (False, True)]
    elif args.workload in WORKLOADS:
        plan = [(args.workload, bool(args.trace))]
    else:
        parser.error(f"unknown workload {args.workload!r}")
    OUT.mkdir(exist_ok=True)
    ok = True
    for name, trace in plan:
        result, correct = run_one(name, args.seed, args.seconds, trace)
        ok = ok and correct
        print(json.dumps(result), flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
