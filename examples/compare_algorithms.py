#!/usr/bin/env python
"""Algorithm bake-off: every implementation on the same trace.

Runs all the hit-rate-curve algorithms in this package — the paper's
contribution (IAF and variants) and the baselines it compares against —
on one workload, verifies they agree exactly, and prints their runtimes
and modelled memory footprints side by side: a miniature Table 2.

Run:  python examples/compare_algorithms.py [n]
"""

from __future__ import annotations

import sys
import time

import numpy as np

from repro import SolveConfig, hit_rate_curve
from repro.analysis.report import render_table, seconds
from repro.metrics.memory import MemoryModel, format_bytes
from repro.baselines import baseline_hit_rate_curve
from repro.core.bounded import bounded_iaf
from repro.core.engine import iaf_hit_rate_curve
from repro.workloads import zipfian_trace


def main() -> None:
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 100_000
    universe = max(2, n // 25)
    trace = zipfian_trace(n, universe, alpha=0.4, seed=3)
    print(f"trace: n={n:,}, u~{universe:,}, zipf(0.4)\n")

    runs = []

    def timed(name, fn):
        mem = MemoryModel()
        t0 = time.perf_counter()
        curve = fn(mem)
        elapsed = time.perf_counter() - t0
        runs.append((name, curve, elapsed, mem.peak_bytes))

    timed("iaf", lambda m: iaf_hit_rate_curve(trace, memory=m))
    timed("bound-iaf",
          lambda m: bounded_iaf(trace, chunk_multiplier=4, memory=m).curve)
    timed("parallel-iaf (4 threads)",
          lambda m: hit_rate_curve(
              trace, SolveConfig(algorithm="parallel-iaf", workers=4)))
    timed("ost", lambda m: baseline_hit_rate_curve(trace, "ost", memory=m))
    timed("splay",
          lambda m: baseline_hit_rate_curve(trace, "splay", memory=m))
    timed("mattson",
          lambda m: baseline_hit_rate_curve(trace, "mattson", memory=m))
    timed("parda (4 threads)",
          lambda m: baseline_hit_rate_curve(trace, "parda", workers=4,
                                            memory=m))

    # All curves must agree exactly at every probed size.
    reference = runs[0][1]
    probes = [1, 10, universe // 10 or 1, universe]
    for name, curve, _t, _m in runs[1:]:
        for k in probes:
            assert curve.hits(k) == reference.hits(k), (name, k)

    base = runs[0][2]
    rows = [
        [name, seconds(t),
         f"{t / base:.2f}x" if base else "-",
         format_bytes(peak) if peak else "(untracked)"]
        for name, _c, t, peak in runs
    ]
    print(render_table(
        "All algorithms, identical curves",
        ["algorithm", "runtime", "vs IAF", "model memory"],
        rows,
        note="curves verified equal at sizes " + str(probes),
    ))


if __name__ == "__main__":
    main()
