"""Unit tests for the shared SHARDS sampling math (repro.core.sampling).

The module is the single home of the sampling estimator; these tests pin
its algebraic properties — exact thresholding, hash invertibility, the
rate-1.0 degeneration to the exact curve, and the equivalence of the
batch and streaming (histogram-rescale) paths.
"""

import numpy as np
import pytest

from repro.core.engine import iaf_hit_rate_curve
from repro.core.sampling import (
    MASK,
    ApproximateCurve,
    distance_histogram,
    estimate_error,
    estimate_from_distances,
    estimate_from_histogram,
    rescale_curve,
    sample_hash,
    sample_mask,
    sample_threshold,
    sampled_hit_rate_curve,
    scale_distances,
    splitmix64,
    unmix64,
)
from repro.errors import ReproError
from repro.workloads.synthetic import zipfian_trace


class TestThreshold:
    def test_exact_integer_threshold(self):
        # floor(rate * 2^64) with no float roundoff on dyadic rates.
        assert sample_threshold(1.0) == 1 << 64
        assert sample_threshold(0.5) == 1 << 63
        assert sample_threshold(0.25) == 1 << 62
        # 0.01 is a binary fraction approximation: the threshold must be
        # floor(Fraction(0.01) * 2^64), not a float product.
        from fractions import Fraction

        assert sample_threshold(0.01) == int(Fraction(0.01) * (1 << 64))

    @pytest.mark.parametrize("rate", [0.0, -0.1, 1.5, 2.0])
    def test_rejects_out_of_range(self, rate):
        with pytest.raises(ReproError):
            sample_threshold(rate)

    def test_rate_one_samples_everything(self):
        arr = np.arange(1000, dtype=np.int64)
        assert sample_mask(arr, 1.0).all()

    def test_sampling_rate_is_close_on_uniform_addresses(self):
        arr = np.arange(200_000, dtype=np.int64)
        for rate in (0.5, 0.1, 0.01):
            frac = sample_mask(arr, rate).mean()
            assert abs(frac - rate) < 0.01

    def test_seeds_give_independent_monitors(self):
        arr = np.arange(10_000, dtype=np.int64)
        m0 = sample_mask(arr, 0.5, seed=0)
        m1 = sample_mask(arr, 0.5, seed=1)
        assert (m0 != m1).any()
        # overlap is ~rate^2, not ~rate: the monitors are uncorrelated
        both = (m0 & m1).mean()
        assert 0.15 < both < 0.35


class TestSplitMix:
    def test_unmix_inverts_mix(self):
        rng = np.random.default_rng(0)
        values = rng.integers(0, 1 << 63, size=100, dtype=np.int64)
        hashed = splitmix64(values.view(np.uint64))
        for v, h in zip(values.tolist(), hashed.tolist()):
            assert unmix64(int(h)) == v & MASK

    def test_boundary_preimage_is_constructible(self):
        # The property the regression pin relies on: we can manufacture
        # an address that hashes to any chosen value under any seed.
        seed = 0
        target = 1 << 63  # == sample_threshold(0.5)
        addr = unmix64(target) ^ ((seed * 2 + 1) & MASK)
        got = int(sample_hash(np.array([addr], dtype=np.uint64), seed)[0])
        assert got == target
        # strict '<': a hash exactly at the threshold is NOT sampled
        assert not sample_mask(
            np.array([addr], dtype=np.uint64), 0.5, seed
        )[0]


class TestScaling:
    def test_scale_distances_rounds_and_clamps(self):
        d = np.array([1, 2, 10])
        np.testing.assert_array_equal(scale_distances(d, 1.0), d)
        np.testing.assert_array_equal(
            scale_distances(np.array([1]), 0.3), [3]
        )
        # a distance that would round to 0 clamps to 1
        assert scale_distances(np.array([1]), 2.0 / 5.0).min() >= 1

    def test_shards_adj_correction(self):
        # 10 sampled accesses where rate * total expects 12: the deficit
        # of 2 is credited to the smallest-distance bucket, then the
        # whole histogram is scaled by 1/rate.
        hist = np.zeros(4, dtype=np.int64)
        hist[2] = 5  # five re-accesses at scaled distance 2
        est = estimate_from_histogram(
            hist, total_accesses=120, sampled_accesses=10, rate=0.1
        )
        adjust = 120 * 0.1 - 10  # ≈ 2: credited at distance 1 onward
        np.testing.assert_allclose(
            est.hits_estimate,
            (np.array([0.0, 5.0, 5.0]) + adjust) / 0.1,
        )

    def test_adjustment_never_goes_negative(self):
        # An over-sampled run (sampled > total*rate) must clamp at 0.
        hist = np.zeros(3, dtype=np.int64)
        hist[2] = 1
        est = estimate_from_histogram(
            hist, total_accesses=10, sampled_accesses=9, rate=0.1
        )
        assert (est.hits_estimate >= 0).all()

    def test_rate_one_adjustment_is_zero(self):
        hist = np.array([0, 3, 2, 1], dtype=np.int64)
        est = estimate_from_histogram(
            hist, total_accesses=6, sampled_accesses=6, rate=1.0
        )
        np.testing.assert_array_equal(est.hits_estimate, [3.0, 5.0, 6.0])


class TestRateOneExactness:
    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_one_shot_equals_exact_curve(self, seed):
        trace = zipfian_trace(30_000, 2_000, 0.8, seed=seed)
        exact = iaf_hit_rate_curve(trace)
        approx = sampled_hit_rate_curve(trace, 1.0, seed=seed)
        assert approx.sampled_accesses == trace.size
        kmax = max(exact.max_size, approx.max_size)
        for k in (1, 16, 256, kmax):
            assert approx.hit_rate(k) == exact.hit_rate(k)

    def test_max_cache_size_truncates(self):
        trace = zipfian_trace(20_000, 1_000, 0.8, seed=3)
        full = sampled_hit_rate_curve(trace, 0.5, seed=0)
        cut = sampled_hit_rate_curve(trace, 0.5, seed=0, max_cache_size=64)
        assert cut.max_size <= 64 < full.max_size
        assert cut.hit_rate(32) == full.hit_rate(32)


class TestStreamingEquivalence:
    """rescale_curve (streaming tier) == estimate_from_distances (batch)."""

    @pytest.mark.parametrize("rate", [1.0, 0.5, 0.05])
    def test_histogram_rescale_matches_per_distance_rescale(self, rate):
        from repro.core.chunked import ChunkedIAF
        from repro.core.engine import iaf_distances
        from repro.core.hitrate import forward_from_backward
        from repro.core.prevnext import prev_next_arrays

        trace = zipfian_trace(50_000, 5_000, 0.9, seed=11)
        sample = trace[sample_mask(trace, rate, seed=0)]
        engine = ChunkedIAF(chunk_size=1024)
        engine.push(sample)
        streamed = rescale_curve(
            engine.curve(),
            total_accesses=trace.size,
            sampled_accesses=int(sample.size),
            rate=rate,
        )
        d = iaf_distances(sample)
        prev, _ = prev_next_arrays(sample)
        f = forward_from_backward(d, prev)
        batch = estimate_from_distances(
            f[prev != -1], total_accesses=trace.size,
            sampled_accesses=int(sample.size), rate=rate,
        )
        np.testing.assert_array_equal(
            streamed.hits_estimate, batch.hits_estimate
        )
        assert streamed.total_accesses == batch.total_accesses
        assert streamed.sampled_accesses == batch.sampled_accesses

    def test_distance_histogram_roundtrip(self):
        trace = zipfian_trace(5_000, 300, 0.7, seed=5)
        curve = iaf_hit_rate_curve(trace)
        hist = distance_histogram(curve)
        np.testing.assert_array_equal(
            np.cumsum(hist[1:]), curve.hits_cumulative
        )


class TestEdgeCases:
    def test_empty_trace(self):
        approx = sampled_hit_rate_curve(np.zeros(0, dtype=np.int64), 0.5)
        assert approx.max_size == 0
        assert approx.hit_rate(100) == 0.0

    def test_empty_sample_keeps_totals(self):
        # 0.01 of three addresses: almost surely nothing is sampled.
        trace = np.array([2, 2, 2], dtype=np.int64)
        if sample_mask(trace, 0.0001, seed=0).any():
            pytest.skip("improbable: the one address was sampled")
        approx = sampled_hit_rate_curve(trace, 0.0001, seed=0)
        assert approx.total_accesses == 3
        assert approx.sampled_accesses == 0
        assert approx.max_size == 0

    def test_estimate_error_against_self_is_zero(self):
        trace = zipfian_trace(10_000, 500, 0.8, seed=2)
        exact = iaf_hit_rate_curve(trace)
        approx = sampled_hit_rate_curve(trace, 1.0)
        rates = np.array(
            [exact.hit_rate(k) for k in range(1, exact.max_size + 1)]
        )
        assert estimate_error(approx, rates) == 0.0

    def test_hit_rate_clamps_and_zero_guard(self):
        approx = ApproximateCurve(np.array([1.0, 4.0]), 10, 2, 0.5)
        assert approx.hit_rate(0) == 0.0
        assert approx.hit_rate(99) == approx.hit_rate(2) == 0.4
        empty = ApproximateCurve(np.zeros(0), 0, 0, 0.5)
        assert empty.hit_rate(5) == 0.0
        np.testing.assert_array_equal(
            approx.hit_rate_array(), [0.1, 0.4]
        )
