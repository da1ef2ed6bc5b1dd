"""Tests for the one-shot profiling pipeline (repro.obs.profile)."""

from __future__ import annotations

import numpy as np
import pytest

from repro import SolveConfig, hit_rate_curve
from repro.obs import Tracer, get_tracer, validate_span_tree
from repro.obs.profile import ProfileResult, profile_hit_rate_curve


@pytest.fixture(scope="module")
def trace() -> np.ndarray:
    rng = np.random.default_rng(3)
    return (rng.zipf(1.3, size=20_000) % 800).astype(np.int64)


@pytest.fixture(scope="module")
def result(trace) -> ProfileResult:
    return profile_hit_rate_curve(trace, SolveConfig(algorithm="iaf"))


class TestProfileRun:
    def test_curve_identical_to_untraced_run(self, trace, result):
        plain = hit_rate_curve(trace, SolveConfig(algorithm="iaf"))
        assert np.array_equal(result.curve.hits_cumulative,
                              plain.hits_cumulative)
        assert result.curve.total_accesses == plain.total_accesses

    def test_metadata(self, trace, result):
        assert result.algorithm == "iaf"
        assert result.n == trace.size
        assert result.wall_seconds > 0
        assert result.dropped_events == 0

    def test_events_form_valid_tree_under_one_root(self, result):
        validate_span_tree(result.events)
        roots = result.root_events()
        assert len(roots) == 1
        assert roots[0].name == "profile.run"
        assert roots[0].attrs["algorithm"] == "iaf"
        assert roots[0].attrs["n"] == result.n

    def test_root_span_reconciles_with_wall_time(self, result):
        # The acceptance invariant: the root span and the measured wall
        # time bracket the same region, so they agree within 5%.
        root = result.root_wall_seconds()
        assert root > 0
        assert root == pytest.approx(result.wall_seconds, rel=0.05)

    def test_child_spans_reconcile_with_root(self, result):
        root = next(e for e in result.events if e.name == "profile.run")
        children = [e for e in result.events
                    if e.parent_id == root.span_id]
        assert children
        assert sum(e.wall for e in children) <= root.wall * 1.05

    def test_counters_fold_in_engine_stats(self, result):
        snap = result.counters.snapshot()
        assert snap["profile.spans"] == len(result.events)
        assert snap["profile.wall_seconds"] == result.wall_seconds
        assert snap["engine.levels"] > 0
        assert snap["engine.work"] > 0

    def test_global_tracer_restored(self, result):
        assert not get_tracer().enabled

    def test_root_wall_zero_when_root_missing(self):
        r = ProfileResult(curve=None, algorithm="x", n=0, wall_seconds=0.0,
                          events=[], counters=None)
        assert r.root_wall_seconds() == 0.0
        assert r.root_events() == []


class TestAlgorithmMatrix:
    @pytest.mark.parametrize("algorithm,kwargs", [
        ("bounded-iaf", {"max_cache_size": 64}),
        ("parallel-iaf", {"workers": 2}),
        ("external-iaf", {}),
        ("splay", {}),
    ])
    def test_profiles_every_dispatch_family(self, trace, algorithm, kwargs):
        cfg = SolveConfig(algorithm=algorithm, **kwargs)
        res = profile_hit_rate_curve(trace, cfg)
        plain = hit_rate_curve(trace, cfg)
        assert np.array_equal(res.curve.hits_cumulative,
                              plain.hits_cumulative)
        validate_span_tree(res.events, allow_missing_parents=True)
        names = {e.name for e in res.events}
        assert "profile.run" in names
        expected = {
            "bounded-iaf": "bounded.chunk",
            "parallel-iaf": "parallel.worker",
            "external-iaf": "external.base_case",
            "splay": "baseline.splay",
        }[algorithm]
        assert expected in names

    def test_external_spans_attribute_io(self, trace):
        res = profile_hit_rate_curve(trace,
                                     SolveConfig(algorithm="external-iaf"))
        base_cases = [e for e in res.events
                      if e.name == "external.base_case"]
        assert base_cases
        assert all(e.attrs["io_blocks"] > 0 for e in base_cases)
        nodes = [e for e in res.events if e.name == "external.node"]
        if nodes:  # a node's inclusive IO covers its children's
            root_like = min(nodes, key=lambda e: e.depth)
            assert root_like.attrs["io_blocks"] >= max(
                e.attrs["io_blocks"] for e in base_cases
            )


class TestBufferAndTracerOptions:
    def test_tiny_capacity_counts_drops(self, trace):
        res = profile_hit_rate_curve(
            trace, SolveConfig(algorithm="bounded-iaf", max_cache_size=16),
            capacity=4,
        )
        assert len(res.events) == 4
        assert res.dropped_events > 0
        assert res.counters.value("profile.dropped_spans") == \
            res.dropped_events

    def test_caller_supplied_tracer_accumulates(self, trace):
        mine = Tracer(enabled=True)
        r1 = profile_hit_rate_curve(trace, tracer=mine)
        n1 = len(r1.events)
        r2 = profile_hit_rate_curve(trace, tracer=mine)
        assert len(r2.events) > n1  # both runs share the buffer


class TestConfigOnly:
    @pytest.mark.parametrize("keyword,value", [
        ("algorithm", "iaf"), ("max_cache_size", 8), ("workers", 2),
        ("dtype", np.int64),
    ])
    def test_solve_keywords_are_gone(self, keyword, value):
        """The solve knobs travel in the SolveConfig, never as keywords."""
        with pytest.raises(TypeError, match=keyword):
            profile_hit_rate_curve([1, 2, 1], **{keyword: value})
