"""Regression tests for the bugs the differential-testing work surfaced.

Five fixes are pinned here:

1. ``_split_segments`` dropped the ``Segments.w`` weight array, so the
   parallel weighted (Section 9.1) paths silently fell back to unit
   weights whenever a subtree split happened.
2. The parallel stats merge dropped ``peak_bytes`` and ``ops_per_level``
   from the per-part :class:`EngineStats`.
3. ``OnlineCurveAnalyzer.push`` cast inputs with ``astype``, silently
   truncating floats and wrapping out-of-range ints instead of raising.
4. The shards baseline's sampling threshold rounded through
   ``float(2^64 − 1)`` and compared inclusively, admitting one more
   hash value than the rate prescribes (found while extracting the
   sampling math into ``repro.core.sampling``).
5. The shards baseline's count correction was a multiplicative rescale
   that cancels identically in ``hit_rate``, leaving a systematic
   skew-dependent bias; it is now SHARDS_adj (credit the realized
   sample-size deviation to the smallest-distance bucket).

The weight-drop test also proves the qa subsystem catches the bug: it
re-introduces the drop, watches the oracle matrix fail, and checks the
shrinker minimizes the reproducer to a handful of accesses.
"""

import numpy as np
import pytest

import repro.core.engine as engine_mod
from repro.core.engine import EngineStats, Segments, iaf_distances
from repro.core.streaming import OnlineCurveAnalyzer
from repro.core.weighted import weighted_backward_distances
from repro.errors import TraceError
from repro.parallel_exec import default_executor
from repro.qa import (
    FuzzCase,
    FuzzConfig,
    case_from_seed,
    run_case,
    shrink_case,
)
from repro.qa.shrink import divergence_signature


def _weighted_inputs(n=240, universe=40, seed=3):
    rng = np.random.default_rng(seed)
    trace = rng.integers(0, universe, size=n).astype(np.int64)
    sizes = rng.integers(1, 9, size=universe).astype(np.int64)
    return trace, sizes


class TestWeightDropFix:
    def test_split_preserves_weights_threads(self):
        trace, sizes = _weighted_inputs()
        expected = weighted_backward_distances(trace, sizes)
        for workers in (1, 2, 3, 7):
            got = weighted_backward_distances(trace, sizes, workers=workers)
            assert np.array_equal(got, expected), f"workers={workers}"

    def test_split_preserves_weights_processes(self):
        trace, sizes = _weighted_inputs()
        expected = weighted_backward_distances(trace, sizes)
        got = weighted_backward_distances(
            trace, sizes, workers=2, executor=default_executor(2)
        )
        assert np.array_equal(got, expected)

    def test_oracle_catches_reintroduced_drop(self, monkeypatch):
        """Re-inject the bug: the matrix must fail and shrink to <= 16."""
        orig = engine_mod._split_segments

        def dropping_split(seg, groups):
            return [
                Segments(kind=p.kind, t=p.t, r=p.r, starts=p.starts,
                         lo=p.lo, hi=p.hi, w=None)
                for p in orig(seg, groups)
            ]

        monkeypatch.setattr(engine_mod, "_split_segments", dropping_split)

        failing = None
        for seed in range(30):
            case = case_from_seed(seed, profile="quick")
            divs = [
                d for d in run_case(case)
                if d.quantity == "weighted-distances"
            ]
            if divs:
                failing = (case, divs[0])
                break
        assert failing is not None, (
            "oracle matrix did not catch the re-introduced weight drop"
        )
        case, div = failing
        small = shrink_case(case, divergence_signature(div))
        assert small.trace.size <= 16, small.summary()
        assert run_case(small), "shrunk case no longer reproduces"

        # With the real (fixed) split restored, the reproducer passes.
        monkeypatch.setattr(engine_mod, "_split_segments", orig)
        assert run_case(small) == []


class TestStatsMergeFix:
    def _trace(self):
        rng = np.random.default_rng(11)
        return rng.integers(0, 64, size=512).astype(np.int64)

    def test_merged_stats_keep_peak_bytes_and_levels(self):
        trace = self._trace()
        stats = EngineStats()
        iaf_distances(trace, workers=4, stats=stats)
        assert stats.peak_bytes > 0
        assert stats.levels > 0
        assert len(stats.ops_per_level) == stats.levels

    def test_merged_ops_per_level_matches_serial(self):
        trace = self._trace()
        serial = EngineStats()
        iaf_distances(trace, stats=serial)
        par = EngineStats()
        iaf_distances(trace, workers=4, stats=par)
        assert par.ops_per_level == serial.ops_per_level
        assert par.work == serial.work

    def test_process_pool_still_matches_engine(self):
        trace = self._trace()
        assert np.array_equal(
            iaf_distances(trace, workers=2, executor=default_executor(2)),
            iaf_distances(trace),
        )


class TestStreamingPushValidation:
    def test_push_rejects_floats(self):
        analyzer = OnlineCurveAnalyzer(4)
        with pytest.raises(TraceError):
            analyzer.push(np.array([1.5, 2.5]))

    def test_push_rejects_negative(self):
        analyzer = OnlineCurveAnalyzer(4)
        with pytest.raises(TraceError):
            analyzer.push([1, -2, 3])

    def test_push_rejects_int32_overflow(self):
        analyzer = OnlineCurveAnalyzer(4, dtype="int32")
        with pytest.raises(TraceError):
            analyzer.push(np.array([2**40], dtype=np.int64))

    def test_scalar_and_list_push_still_work(self):
        analyzer = OnlineCurveAnalyzer(4)
        analyzer.push(7)
        analyzer.push([7, 8, 7])
        analyzer.flush()
        curve = analyzer.curve()
        assert curve.total_accesses == 4


class TestSamplingThresholdFix:
    """Pin for fix 4: exact integer thresholding with a strict compare.

    The divergence is one hash value in 2^64, so a random differential
    can never see it — the boundary address must be *constructed* by
    inverting SplitMix64.
    """

    # unmix64(2^63) ^ 1: under seed 0 this address hashes to exactly
    # 2^63 == sample_threshold(0.5).
    BOUNDARY_ADDR = 3453682501520545092

    @staticmethod
    def _legacy_mask(addrs, rate, seed=0):
        """The pre-fix formula: float-rounded threshold, inclusive <=."""
        from repro.core.sampling import MASK, sample_hash

        threshold = min(int(rate * float(MASK)), MASK)
        return sample_hash(np.asarray(addrs), seed) <= np.uint64(threshold)

    def test_boundary_address_construction(self):
        from repro.core.sampling import sample_hash, sample_threshold

        h = int(sample_hash(
            np.array([self.BOUNDARY_ADDR], dtype=np.int64), 0
        )[0])
        assert h == 1 << 63 == sample_threshold(0.5)

    def test_boundary_address_is_now_excluded(self):
        from repro.core.sampling import sample_mask

        arr = np.array([self.BOUNDARY_ADDR], dtype=np.int64)
        assert self._legacy_mask(arr, 0.5)[0]  # old: sampled (bias)
        assert not sample_mask(arr, 0.5, 0)[0]  # new: strict '<'

    @pytest.mark.parametrize("rate", [1.0, 0.5, 0.01])
    def test_masks_agree_away_from_the_boundary(self, rate):
        # The fix changes nothing for ordinary traces at any rate: the
        # admitted hash sets differ by O(1) values out of 2^64.
        from repro.core.sampling import sample_mask

        rng = np.random.default_rng(7)
        arr = rng.integers(0, 1 << 62, size=100_000)
        np.testing.assert_array_equal(
            sample_mask(arr, rate, seed=0), self._legacy_mask(arr, rate)
        )


class TestShardsCorrectionFix:
    """Pin for fix 5: the count correction must not cancel in hit_rate."""

    def test_multiplicative_correction_cancels(self):
        # The old correction multiplied every bucket by
        # (total*rate/sampled)/rate; hit_rate divides by total, so the
        # estimate equals the *uncorrected* 1 − u_s/n_s shape — i.e. the
        # "correction" had no effect at all on reported hit rates.
        from repro.core.sampling import sample_mask, scale_distances
        from repro.core.engine import iaf_distances
        from repro.core.hitrate import forward_from_backward
        from repro.core.prevnext import prev_next_arrays
        from repro.workloads.synthetic import zipfian_trace

        trace = zipfian_trace(100_000, 10_000, 0.8, seed=1)
        rate = 0.01
        sample = trace[sample_mask(trace, rate, seed=0)]
        d = iaf_distances(sample)
        prev, _ = prev_next_arrays(sample)
        f = forward_from_backward(d, prev)
        scaled = scale_distances(f[prev != -1], rate)
        hist = np.bincount(scaled)
        hits = np.cumsum(hist[1:]).astype(np.float64)
        k = hits.size
        # old estimator: hits * weight / total, with
        # weight = (n*rate/n_s)/rate = n/n_s
        old = hits[-1] * (trace.size / sample.size) / trace.size
        uncorrected = hits[-1] / sample.size
        assert old == pytest.approx(uncorrected, rel=1e-12)
        assert k > 0

    def test_adjusted_correction_beats_multiplicative(self):
        from repro.core.engine import iaf_hit_rate_curve
        from repro.core.sampling import sampled_hit_rate_curve
        from repro.workloads.synthetic import zipfian_trace

        trace = zipfian_trace(300_000, 30_000, 0.8, seed=1)
        rate = 0.01
        exact = iaf_hit_rate_curve(trace)
        grid = np.linspace(
            exact.max_size // 32, exact.max_size, 32
        ).astype(np.int64)
        exact_rates = np.array([exact.hit_rate(int(k)) for k in grid])
        errors = []
        for seed in range(3):
            approx = sampled_hit_rate_curve(trace, rate, seed=seed)
            # the old multiplicative estimate == uncorrected: strip the
            # adjustment back out to reconstruct it
            adjust = approx.total_accesses * rate - approx.sampled_accesses
            old_hits = np.maximum(
                approx.hits_estimate * rate - adjust, 0.0
            ) * (approx.total_accesses / approx.sampled_accesses) / rate
            new_est = np.array(
                [approx.hit_rate(int(k)) for k in grid]
            )
            old_est = np.array([
                old_hits[min(int(k), old_hits.size) - 1]
                / approx.total_accesses
                for k in grid
            ])
            errors.append((
                np.abs(old_est - exact_rates).mean(),
                np.abs(new_est - exact_rates).mean(),
            ))
        old_mean = np.mean([e[0] for e in errors])
        new_mean = np.mean([e[1] for e in errors])
        assert new_mean < old_mean, (old_mean, new_mean)
        assert new_mean <= 0.02, f"adjusted error {new_mean:.3%}"
        assert old_mean > 0.04, (
            f"the old estimator's bias ({old_mean:.3%}) should be "
            f"visible on a skewed workload at R=0.01"
        )


def test_fuzz_regression_seed_example():
    """Shape of a committed reproducer: a literal FuzzCase, matrix green."""
    case = FuzzCase(
        seed=1,
        strategy="duplicate_heavy-minimized",
        trace=np.array([0, 0, 0, 0, 0, 1, 1], dtype=np.int64),
        config=FuzzConfig(workers=2, k=1, max_object_size=1),
    )
    assert run_case(case) == []
