"""Workload distributions, generation and trace analysis."""

import numpy as np
import pytest

from repro.config import WorkloadConfig
from repro.errors import ConfigError
from repro.workload.distributions import (
    BandedSkewDistribution,
    RankPermutation,
    TABLE2_BANDS,
    fit_exponential_rate,
)
from repro.workload.generator import WorkloadGenerator
from repro.workload.trace import AccessTraceAnalyzer


class TestBandedSkew:
    def test_matches_table2_analytically(self):
        dist = BandedSkewDistribution(1_000_000)
        assert dist.top_fraction_share(0.0005) == pytest.approx(0.857)
        assert dist.top_fraction_share(0.001) == pytest.approx(0.895)
        assert dist.top_fraction_share(0.01) == pytest.approx(0.957)

    def test_matches_table2_empirically(self):
        dist = BandedSkewDistribution(100_000, seed=4)
        keys = dist.sample_keys(200_000)
        analyzer = AccessTraceAnalyzer(keys)
        assert analyzer.top_share(0.0005, of_keyspace=100_000) == pytest.approx(
            0.857, abs=0.01
        )

    def test_samples_in_range(self):
        dist = BandedSkewDistribution(1000)
        keys = dist.sample_keys(10_000)
        assert keys.min() >= 0
        assert keys.max() < 1000

    def test_temperature_one_is_identity(self):
        base = BandedSkewDistribution(10_000)
        same = base.with_temperature(1.0)
        assert same.top_fraction_share(0.001) == pytest.approx(
            base.top_fraction_share(0.001)
        )

    def test_higher_temperature_more_skew(self):
        base = BandedSkewDistribution(10_000)
        hot = base.with_temperature(1.5)
        cold = base.with_temperature(0.7)
        f = 0.0005
        assert hot.top_fraction_share(f) > base.top_fraction_share(f)
        assert cold.top_fraction_share(f) < base.top_fraction_share(f)

    def test_deterministic_by_seed(self):
        a = BandedSkewDistribution(1000, seed=5).sample_keys(100)
        b = BandedSkewDistribution(1000, seed=5).sample_keys(100)
        assert np.array_equal(a, b)

    def test_invalid_bands(self):
        with pytest.raises(ConfigError):
            BandedSkewDistribution(1000, bands=((0.5, 0.5),))
        with pytest.raises(ConfigError):
            BandedSkewDistribution(1000, temperature=0)
        with pytest.raises(ConfigError, match="one per band"):
            BandedSkewDistribution(3)  # fewer keys than Table II's four bands
        with pytest.raises(ConfigError, match="one per band"):
            BandedSkewDistribution(0)

    def test_a_thin_band_between_wide_ones_keeps_a_rank(self):
        """A band rounding to no ranks takes one from the band after it,
        and every band still holds >= 1 rank and is sampled."""
        dist = BandedSkewDistribution(
            100, bands=((0.5, 0.5), (0.0001, 0.1), (0.4999, 0.4)), seed=1
        )
        assert dist._band_lo.tolist() == [0, 50, 51]
        assert dist._band_hi.tolist() == [50, 51, 100]
        ranks = dist.sample_ranks(5000)
        assert ranks.max() < 100 and np.count_nonzero(ranks == 50) > 0
        tail = BandedSkewDistribution(5, bands=((0.8, 0.5), (0.1, 0.2), (0.1, 0.3)))
        assert tail._band_hi.tolist() == [3, 4, 5]  # the last bands keep theirs

    def test_bands_sum_checked(self):
        key_fracs = sum(b[0] for b in TABLE2_BANDS)
        masses = sum(b[1] for b in TABLE2_BANDS)
        assert key_fracs == pytest.approx(1.0)
        assert masses == pytest.approx(1.0)


class TestRankPermutation:
    def test_bijection(self):
        perm = RankPermutation(1000, seed=2)
        keys = perm.keys_for_ranks(np.arange(1000))
        assert sorted(keys.tolist()) == list(range(1000))

    def test_scatters_hot_ranks(self):
        perm = RankPermutation(100_000, seed=2)
        hot_keys = perm.keys_for_ranks(np.arange(100))
        assert hot_keys.std() > 10_000  # spread over the id space


class TestFitting:
    def test_recovers_exponential_rate(self):
        n = 2000
        ranks = np.arange(n)
        freqs = 500.0 * np.exp(-9.0 * ranks / n)
        a, b = fit_exponential_rate(freqs)
        assert a == pytest.approx(500.0, rel=0.05)
        assert b == pytest.approx(9.0, rel=0.05)

    def test_degenerate_input_rejected(self):
        with pytest.raises(ConfigError):
            fit_exponential_rate(np.array([5.0]))


class TestGenerator:
    def test_dedup_batches(self):
        gen = WorkloadGenerator(WorkloadConfig(num_keys=1000, features_per_sample=8))
        keys = gen.sample_batch_keys(64)
        assert len(keys) == len(np.unique(keys))

    def test_raw_stream_length(self):
        gen = WorkloadGenerator(WorkloadConfig(num_keys=1000, features_per_sample=8))
        raw = gen.sample_batch_keys(64, deduplicate=False)
        assert len(raw) == 64 * 8

    def test_worker_batches_independent(self):
        gen = WorkloadGenerator(WorkloadConfig(num_keys=100_000, features_per_sample=8))
        batches = gen.sample_worker_batches(4, 64)
        assert len(batches) == 4
        assert not np.array_equal(batches[0], batches[1])

    def test_access_stream(self):
        gen = WorkloadGenerator(WorkloadConfig(num_keys=1000, features_per_sample=4))
        stream = gen.access_stream(3, 32)
        assert len(stream) == 3 * 32 * 4

    def test_invalid_args(self):
        gen = WorkloadGenerator()
        with pytest.raises(ConfigError):
            gen.sample_batch_keys(0)
        with pytest.raises(ConfigError):
            gen.sample_worker_batches(0, 8)


class TestTraceAnalyzer:
    def test_top_share_of_uniform(self):
        analyzer = AccessTraceAnalyzer(np.arange(1000))
        assert analyzer.top_share(0.1) == pytest.approx(0.1)

    def test_top_share_with_keyspace_denominator(self):
        # 10 distinct keys of a 1000-key space, uniform: the "top 0.2 %
        # of the key space" is 2 keys = 20 % of accesses.
        analyzer = AccessTraceAnalyzer(np.repeat(np.arange(10), 5))
        assert analyzer.top_share(0.002, of_keyspace=1000) == pytest.approx(0.2)

    def test_skew_report(self):
        gen = WorkloadGenerator(WorkloadConfig(num_keys=100_000, features_per_sample=8, seed=2))
        analyzer = AccessTraceAnalyzer(gen.access_stream(20, 256))
        report = analyzer.skew_report(of_keyspace=100_000)
        assert report.top_shares[0.0005] == pytest.approx(0.857, abs=0.02)
        assert report.total_accesses == 20 * 256 * 8

    def test_frequency_curve_downsamples(self):
        analyzer = AccessTraceAnalyzer(np.repeat(np.arange(500), 2))
        x, y = analyzer.frequency_curve(points=50)
        assert len(x) <= 50
        assert y[0] >= y[-1]

    def test_empty_stream_rejected(self):
        with pytest.raises(ConfigError):
            AccessTraceAnalyzer(np.array([]))
