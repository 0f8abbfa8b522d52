"""Property tests for workload distributions (hypothesis)."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workload.distributions import BandedSkewDistribution


class TestBandedProperties:
    @given(
        num_keys=st.integers(100, 1_000_000),
        fraction=st.floats(1e-4, 1.0, exclude_min=False),
    )
    @settings(max_examples=100, deadline=None)
    def test_share_in_unit_interval(self, num_keys, fraction):
        dist = BandedSkewDistribution(num_keys)
        share = dist.top_fraction_share(fraction)
        assert 0.0 <= share <= 1.0 + 1e-9

    @given(
        num_keys=st.integers(1000, 100_000),
        a=st.floats(1e-3, 0.5),
        b=st.floats(1e-3, 0.5),
    )
    @settings(max_examples=80, deadline=None)
    def test_share_monotone_in_fraction(self, num_keys, a, b):
        dist = BandedSkewDistribution(num_keys)
        low, high = sorted((a, b))
        assert dist.top_fraction_share(low) <= dist.top_fraction_share(high) + 1e-9

    @given(
        temperature=st.floats(0.3, 3.0),
        num_keys=st.integers(1000, 50_000),
    )
    @settings(max_examples=60, deadline=None)
    def test_temperature_orders_head_mass(self, temperature, num_keys):
        base = BandedSkewDistribution(num_keys)
        variant = base.with_temperature(temperature)
        head = 0.0005
        if temperature > 1.0:
            assert variant.top_fraction_share(head) >= base.top_fraction_share(head) - 1e-9
        elif temperature < 1.0:
            assert variant.top_fraction_share(head) <= base.top_fraction_share(head) + 1e-9

    @given(num_keys=st.integers(10, 10_000), n=st.integers(1, 2000))
    @settings(max_examples=60, deadline=None)
    def test_samples_always_in_range(self, num_keys, n):
        keys = BandedSkewDistribution(num_keys).sample_keys(n)
        assert keys.min() >= 0
        assert keys.max() < num_keys

    @given(num_keys=st.integers(1000, 20_000), seed=st.integers(0, 100))
    @settings(max_examples=40, deadline=None)
    def test_full_fraction_is_total_mass(self, num_keys, seed):
        dist = BandedSkewDistribution(num_keys, seed=seed)
        assert dist.top_fraction_share(1.0) == np.float64(1.0)

