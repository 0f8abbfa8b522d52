"""Young's formula and the Table V cost model."""

import pytest

from repro.cost.pricing import (
    DRAM_PS_DEPLOYMENT,
    ORI_CACHE_DEPLOYMENT,
    PMEM_OE_DEPLOYMENT,
    R6E_13XLARGE,
    RE6P_13XLARGE,
    cost_per_epoch,
    deployment_for_model,
    storage_saving_vs,
)
from repro.errors import ConfigError
from repro.failure.mttf import (
    expected_lost_work_seconds,
    expected_total_overhead_seconds,
    young_interval_seconds,
)

GB = 1 << 30


class TestYoung:
    def test_formula(self):
        assert young_interval_seconds(30.0, 6 * 3600) == pytest.approx(
            (2 * 30 * 6 * 3600) ** 0.5
        )

    def test_paper_ballpark(self):
        """With minute-scale checkpoint costs and Facebook-scale MTTF the
        optimum lands near tens of minutes — the paper's 20-min pick."""
        interval = young_interval_seconds(60.0, 12 * 3600)
        assert 10 * 60 < interval < 60 * 60

    def test_lost_work(self):
        assert expected_lost_work_seconds(1200, 3600) == 600

    def test_total_overhead_tradeoff(self):
        """Too-frequent and too-rare checkpointing both cost more than a
        sensible middle."""
        run, mttf, cost, recovery = 24 * 3600.0, 6 * 3600.0, 30.0, 380.0
        best = young_interval_seconds(cost, mttf)
        mid = expected_total_overhead_seconds(run, best, cost, mttf, recovery)
        frequent = expected_total_overhead_seconds(run, best / 20, cost, mttf, recovery)
        rare = expected_total_overhead_seconds(run, best * 20, cost, mttf, recovery)
        assert mid < frequent
        assert mid < rare

    def test_invalid(self):
        with pytest.raises(ConfigError):
            young_interval_seconds(0, 1)


class TestTableV:
    def test_hourly_prices(self):
        assert DRAM_PS_DEPLOYMENT.dollars_per_hour == pytest.approx(6.07)
        assert PMEM_OE_DEPLOYMENT.dollars_per_hour == pytest.approx(3.80)

    def test_epoch_costs(self):
        assert cost_per_epoch(DRAM_PS_DEPLOYMENT, 5.75) == pytest.approx(34.9, abs=0.1)
        assert cost_per_epoch(PMEM_OE_DEPLOYMENT, 5.33) == pytest.approx(20.3, abs=0.1)
        assert cost_per_epoch(ORI_CACHE_DEPLOYMENT, 7.01) == pytest.approx(26.6, abs=0.1)

    def test_headline_savings(self):
        assert storage_saving_vs(
            PMEM_OE_DEPLOYMENT, DRAM_PS_DEPLOYMENT, 5.33, 5.75
        ) == pytest.approx(0.42, abs=0.01)
        assert storage_saving_vs(
            PMEM_OE_DEPLOYMENT, ORI_CACHE_DEPLOYMENT, 5.33, 7.01
        ) == pytest.approx(0.24, abs=0.01)

    def test_sizing_logic(self):
        assert deployment_for_model(500 * GB, R6E_13XLARGE).machines == 2
        assert deployment_for_model(500 * GB, RE6P_13XLARGE).machines == 1

    def test_capacity(self):
        assert RE6P_13XLARGE.usable_model_bytes() == 756 * GB
        assert R6E_13XLARGE.usable_model_bytes() == (384 - 32) * GB

    def test_invalid(self):
        with pytest.raises(ConfigError):
            cost_per_epoch(PMEM_OE_DEPLOYMENT, 0)
        with pytest.raises(ConfigError):
            deployment_for_model(0, R6E_13XLARGE)
