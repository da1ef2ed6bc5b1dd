"""``solve()``'s one size rule, with its threshold lowered to test size.

An ``iaf`` solve of at least :data:`repro.core.api.CHUNKED_THRESHOLD`
accesses runs through :func:`~repro.core.chunked.chunked_iaf` at the
default chunk; shorter ones, and every other algorithm, keep their own
path.  Spies on ``chunked_iaf`` and ``iaf_distances_batch`` show which
path ran; :func:`repro.qa.count_sorts` shows that the chunked path sorts
chunk by chunk, never the whole trace.
"""

import numpy as np
import pytest

from repro import SolveConfig, solve, solve_batch
from repro.core import api, chunked
from repro.core.engine import EngineStats, iaf_hit_rate_curve
from repro.qa import count_sorts

THRESHOLD = 4096
CHUNK = 1024


@pytest.fixture
def rule(monkeypatch):
    """Lower the rule to :data:`THRESHOLD`; record ``chunked_iaf`` calls."""
    monkeypatch.setattr(api, "CHUNKED_THRESHOLD", THRESHOLD)
    monkeypatch.setattr(chunked, "DEFAULT_CHUNK_SIZE", CHUNK)
    calls = []
    real = api.chunked_iaf

    def spy(trace, chunk_size=None, **kwargs):
        calls.append((int(np.size(trace)), chunk_size))
        return real(trace, chunk_size, **kwargs)

    monkeypatch.setattr(api, "chunked_iaf", spy)
    return calls


def test_the_rule_starts_at_four_default_chunks():
    """The rule starts at four chunks: a chunk's level loop solves the
    chunk alone, so from there the chunked path costs about as much CPU
    as the one-shot loop, or less."""
    assert api.CHUNKED_THRESHOLD == 4 * chunked.DEFAULT_CHUNK_SIZE
    assert api.runs_chunked(SolveConfig(), 4 * chunked.DEFAULT_CHUNK_SIZE)
    assert not api.runs_chunked(SolveConfig(),
                                4 * chunked.DEFAULT_CHUNK_SIZE - 1)


def _trace(n, seed=0, universe=700):
    return np.random.default_rng(seed).integers(0, universe, size=n)


def _assert_same_curve(got, trace):
    want = iaf_hit_rate_curve(trace)
    assert np.array_equal(got.hits_cumulative, want.hits_cumulative)
    assert got.total_accesses == want.total_accesses


@pytest.mark.parametrize("n, runs_chunked", [
    (THRESHOLD - 1, False), (THRESHOLD, True), (THRESHOLD + 1, True),
])
def test_solve_switches_exactly_at_the_threshold(rule, n, runs_chunked):
    trace = _trace(n)
    cfg = SolveConfig()
    stats = EngineStats()
    with count_sorts() as sorts:
        result = solve(trace, cfg, stats=stats)
    _assert_same_curve(result.curve, trace)
    assert result.config is cfg and result.stats is stats
    assert stats.work > 0
    if runs_chunked:
        assert rule == [(n, None)]
        assert result.distances is None
        # One sort per solved chunk (the last one partial), each of at
        # most a chunk plus the living entries it references.
        assert len(sorts) == -(-n // CHUNK)
        assert max(sorts) <= 2 * CHUNK
    else:
        assert rule == []
        assert result.distances.size == n
        assert sorts == [n]


def test_chunk_size_field_does_not_reach_the_rule(rule):
    trace = _trace(THRESHOLD)
    result = solve(trace, SolveConfig(chunk_size=7, max_cache_size=50))
    assert rule == [(THRESHOLD, None)]
    assert result.curve.truncated_at == 50
    want = iaf_hit_rate_curve(trace).hits_cumulative[:50]
    assert np.array_equal(result.curve.hits_cumulative, want)


@pytest.mark.parametrize("cfg", [
    SolveConfig(algorithm="parallel-iaf", workers=2),
    SolveConfig(algorithm="process-iaf"),
    SolveConfig(algorithm="bounded-iaf", max_cache_size=64),
], ids=["parallel-iaf", "process-iaf", "bounded-iaf"])
def test_only_iaf_follows_the_rule(rule, cfg):
    trace = _trace(2 * THRESHOLD)
    result = solve(trace, cfg)
    assert rule == []
    k = cfg.max_cache_size
    want = iaf_hit_rate_curve(trace).hits_cumulative
    assert np.array_equal(result.curve.hits_cumulative,
                          want[:k] if k else want)


def test_solve_batch_coalesces_only_the_small_members(rule, monkeypatch):
    batched = []
    real = api.iaf_distances_batch

    def spy(traces, **kwargs):
        batched.append([int(t.size) for t in traces])
        return real(traces, **kwargs)

    monkeypatch.setattr(api, "iaf_distances_batch", spy)
    traces = [_trace(900, 1), _trace(THRESHOLD + 300, 2), _trace(700, 3),
              _trace(1200, 4)]
    results = solve_batch(traces)
    assert batched == [[900, 700, 1200]]
    assert rule == [(THRESHOLD + 300, None)]
    for trace, res in zip(traces, results):
        alone = solve(trace)
        assert np.array_equal(res.curve.hits_cumulative,
                              alone.curve.hits_cumulative)
        assert res.curve.total_accesses == trace.size
    assert [r.batched for r in results] == [True, False, True, True]
    assert results[1].distances is None
    assert results[0].stats is results[2].stats is results[3].stats
