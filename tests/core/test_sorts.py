"""One sort per solve: every solved trace is sorted exactly once.

The paper's pre-processing (Section 3) is one sort yielding ``prev`` and
``next``.  Every sort in the engine is a ``prev_next_arrays`` call, so
:func:`repro.qa.count_sorts` — which replaces that function under every
``repro`` module name bound to it — counts them:

* ``solve(trace)`` on the engine algorithms sorts the trace once: its
  ``prev`` builds the ops and selects the distances the curve counts;
* ``solve_batch`` of k traces sorts each trace once;
* a ``ChunkedIAF`` chunk sorts ``referenced · chunk`` (r + n accesses)
  once: its ``prev`` builds the ops and reads the chunk's distances;
* the carry update sorts nothing: no ``np.unique``, no ``argsort``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import SolveConfig, solve, solve_batch
from repro.core import chunked as chunked_module
from repro.core.api import hit_rate_curve, hit_rate_curves_batch, \
    stack_distances
from repro.core.chunked import ChunkedIAF
from repro.core.engine import iaf_hit_rate_curve, iaf_hit_rate_curves_batch
from repro.core.sampling import sampled_hit_rate_curve
from repro.core.weighted import weighted_stack_distances
from repro.qa import count_sorts
from repro.workloads import zipfian_trace


def zipf(n: int, seed: int = 3, u: int = 400) -> np.ndarray:
    return zipfian_trace(n, u, 0.8, seed=seed)


class TestSolve:
    @pytest.mark.parametrize("config", [
        SolveConfig(algorithm="iaf"),
        SolveConfig(algorithm="parallel-iaf", workers=2),
        SolveConfig(algorithm="process-iaf", workers=2),
        SolveConfig(algorithm="external-iaf"),
    ], ids=lambda c: c.algorithm)
    def test_solve_sorts_the_trace_once(self, config):
        trace = zipf(4000)
        with count_sorts() as sizes:
            result = solve(trace, config)
        assert sizes == [trace.size]
        want = iaf_hit_rate_curve(trace)
        assert np.array_equal(result.curve.hits_cumulative,
                              want.hits_cumulative)

    @pytest.mark.parametrize("algorithm", ["iaf", "parallel-iaf"])
    def test_solve_batch_sorts_each_trace_once(self, algorithm):
        traces = [zipf(n, seed=s) for s, n in enumerate((900, 1, 0, 2500))]
        config = SolveConfig(algorithm=algorithm, workers=2)
        with count_sorts() as sizes:
            results = solve_batch(traces, config)
        assert sizes == [t.size for t in traces]
        for trace, result in zip(traces, results):
            want = iaf_hit_rate_curve(trace)
            assert np.array_equal(result.curve.hits_cumulative,
                                  want.hits_cumulative)

    def test_curve_pipelines_sort_once(self):
        trace = zipf(3000)
        calls = [
            lambda: iaf_hit_rate_curve(trace),
            lambda: hit_rate_curve(
                trace, SolveConfig(algorithm="parallel-iaf", workers=2)),
            lambda: stack_distances(trace),
            lambda: stack_distances(
                trace, SolveConfig(algorithm="parallel-iaf", workers=2)),
            lambda: weighted_stack_distances(
                trace, np.arange(1, int(trace.max()) + 2)),
            lambda: sampled_hit_rate_curve(trace, 1.0),
        ]
        for call in calls:
            with count_sorts() as sizes:
                call()
            assert sizes == [trace.size]
        traces = [zipf(700, seed=1), zipf(1100, seed=2)]
        parallel = SolveConfig(algorithm="parallel-iaf", workers=2)
        for batch in (iaf_hit_rate_curves_batch,
                      lambda ts: hit_rate_curves_batch(ts, parallel)):
            with count_sorts() as sizes:
                batch(traces)
            assert sizes == [700, 1100]


class TestChunkSolve:
    def test_each_chunk_sorts_referenced_plus_chunk_once(self):
        stream = zipf(6000, seed=9, u=900)
        chunk = 512
        engine = ChunkedIAF(chunk)
        for start in range(0, stream.size, chunk):
            piece = stream[start:start + chunk]
            r = int(np.isin(engine.living, piece).sum())
            with count_sorts() as sizes:
                engine.push(piece)
            solved = [r + piece.size] if piece.size == chunk else []
            assert sizes == solved
        # The partial tail is solved, and sorted once, by the query.
        tail = stream[(stream.size // chunk) * chunk:]
        r = int(np.isin(engine.living, tail).sum())
        with count_sorts() as sizes:
            curve = engine.curve()
        assert sizes == [r + tail.size]
        assert np.array_equal(curve.hits_cumulative,
                              iaf_hit_rate_curve(stream).hits_cumulative)

    @pytest.mark.parametrize("k", [None, 16])
    def test_carry_update_sorts_nothing(self, monkeypatch, k):
        inside = []
        sorting_calls = []
        original_carry = chunked_module.last_access_carryover

        def carry(*args, **kwargs):
            inside.append(True)
            try:
                return original_carry(*args, **kwargs)
            finally:
                inside.pop()

        def spy(name, fn):
            def wrapped(*args, **kwargs):
                if inside:
                    sorting_calls.append(name)
                return fn(*args, **kwargs)
            return wrapped

        for name in ("unique", "argsort", "sort", "lexsort"):
            monkeypatch.setattr(np, name, spy(name, getattr(np, name)))
        monkeypatch.setattr(chunked_module, "last_access_carryover", carry)
        engine = ChunkedIAF(256, max_cache_size=k)
        stream = zipf(3000, seed=4, u=700)
        engine.push(stream)
        engine.curve()
        assert engine.accesses_processed == stream.size
        assert sorting_calls == []
