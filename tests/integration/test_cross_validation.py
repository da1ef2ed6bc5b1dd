"""Cross-validation: every algorithm against every other and against
directly simulated caches.

These are the tests that make the reproduction trustworthy: nine
independent implementations (five IAF evaluation strategies, three tree
baselines, the stack algorithm) must produce identical curves, and those
curves must equal what a real LRU cache does.
"""

import numpy as np
import pytest

from repro import SolveConfig, hit_rate_curve
from repro.baselines.mattson import mattson_stack_distances
from repro.baselines.naive import naive_backward_distances
from repro.baselines.ost import ost_stack_distances
from repro.baselines.splay import splay_stack_distances
from repro.cache.lru import simulate_lru
from repro.core.bounded import bounded_iaf
from repro.core.engine import iaf_distances
from repro.core.external import external_iaf_distances
from repro.core.partition import prepost_distances
from repro.core.reference import reference_distances
from repro.extmem.blockdevice import MemoryConfig
from repro.workloads.synthetic import (
    sequential_scan_trace,
    uniform_trace,
    working_set_trace,
    zipfian_trace,
)

WORKLOADS = [
    ("uniform", uniform_trace(800, 60, seed=1)),
    ("zipf-0.8", zipfian_trace(800, 60, 0.8, seed=2)),
    ("scan", sequential_scan_trace(800, 50)),
    ("phases", working_set_trace(800, 60, phases=4, seed=3)),
    ("single-addr", np.zeros(200, dtype=np.int64)),
    ("all-distinct", np.arange(300, dtype=np.int64)),
]


@pytest.mark.parametrize("name,trace", WORKLOADS, ids=[w[0] for w in WORKLOADS])
class TestDistanceVectorAgreement:
    """Five evaluation strategies for the same operation sequence."""

    def test_engine_vs_reference(self, name, trace):
        assert np.array_equal(iaf_distances(trace), reference_distances(trace))

    def test_engine_vs_partition_solver(self, name, trace):
        assert np.array_equal(iaf_distances(trace), prepost_distances(trace))

    def test_engine_vs_external(self, name, trace):
        d, _ = external_iaf_distances(trace, MemoryConfig(512, 16))
        assert np.array_equal(iaf_distances(trace), d)

    def test_engine_vs_parallel(self, name, trace):
        assert np.array_equal(
            iaf_distances(trace), iaf_distances(trace, workers=4)
        )

    def test_engine_vs_bruteforce(self, name, trace):
        assert np.array_equal(
            iaf_distances(trace), naive_backward_distances(trace)
        )


@pytest.mark.parametrize("name,trace", WORKLOADS, ids=[w[0] for w in WORKLOADS])
class TestTreeBaselineAgreement:
    def test_ost_vs_splay_vs_mattson(self, name, trace):
        a = ost_stack_distances(trace)
        b = splay_stack_distances(trace)
        c = mattson_stack_distances(trace)
        assert np.array_equal(a, b)
        assert np.array_equal(b, c)


@pytest.mark.parametrize("name,trace", WORKLOADS, ids=[w[0] for w in WORKLOADS])
class TestCurveAgreement:
    ALGOS = ["iaf", "bounded-iaf", "parallel-iaf", "ost", "splay",
             "mattson", "parda", "fenwick"]

    def test_all_algorithms_identical_curves(self, name, trace):
        u = int(np.unique(trace).size)
        reference = hit_rate_curve(trace, SolveConfig(algorithm="iaf"))
        for algo in self.ALGOS[1:]:
            kwargs = {}
            if algo in ("parallel-iaf", "parda"):
                kwargs["workers"] = 4
            if algo == "bounded-iaf":
                # u + 1 keeps every queried size within the truncation.
                kwargs["max_cache_size"] = u + 1
            curve = hit_rate_curve(trace,
                                   SolveConfig(algorithm=algo, **kwargs))
            for k in {1, 2, u // 2 or 1, u}:
                assert curve.hits(k) == reference.hits(k), (algo, k)

    def test_curve_matches_real_lru_cache(self, name, trace):
        curve = hit_rate_curve(trace)
        u = int(np.unique(trace).size)
        for k in sorted({1, 2, max(1, u // 3), u}):
            sim = simulate_lru(trace, k)
            assert curve.hits(k) == sim.hits, k


class TestBoundedWindowing:
    def test_windows_are_the_per_period_curves(self):
        """Per-chunk curves answer 'hit rate per day' exactly: each equals
        a curve built from that window's accesses with global history."""
        trace = working_set_trace(600, 60, phases=3, seed=5)
        k = 20
        res = bounded_iaf(trace, k, chunk_multiplier=10)
        # Direct check per window: replay an LRU cache over the whole
        # trace, counting hits per window.
        for kk in (1, 5, 20):
            from repro.cache.lru import LRUCache

            cache = LRUCache(kk)
            hits_per_window = [0] * len(res.windows)
            for i, addr in enumerate(trace.tolist()):
                hit = cache.access(int(addr))
                if hit:
                    w = min(i // (k * 10), len(res.windows) - 1)
                    hits_per_window[w] += 1
            got = [w.hits(kk) for w in res.windows]
            assert got == hits_per_window, kk
