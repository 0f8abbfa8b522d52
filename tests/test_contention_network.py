"""Contention helpers and the network model."""

import pytest

from repro.config import NetworkConfig
from repro.errors import SimulationError
from repro.simulation.contention import parallel_section_time, serialized_section_time
from repro.simulation.network import NetworkModel


class TestSerializedSection:
    def test_base_is_ops_times_section(self):
        assert serialized_section_time(10, 2.0) == pytest.approx(20.0)

    def test_contention_surcharge(self):
        base = serialized_section_time(10, 2.0, contenders=1, contention_factor=0.5)
        contended = serialized_section_time(10, 2.0, contenders=5, contention_factor=0.5)
        assert contended == pytest.approx(base * (1 + 0.5 * 4))

    def test_zero_ops_free(self):
        assert serialized_section_time(0, 2.0, contenders=8, contention_factor=1.0) == 0.0

    def test_more_contenders_never_cheaper(self):
        times = [
            serialized_section_time(100, 1e-6, contenders=c, contention_factor=0.2)
            for c in (1, 2, 4, 8, 16)
        ]
        assert times == sorted(times)

    def test_invalid_inputs(self):
        with pytest.raises(SimulationError):
            serialized_section_time(-1, 1.0)
        with pytest.raises(SimulationError):
            serialized_section_time(1, -1.0)
        with pytest.raises(SimulationError):
            serialized_section_time(1, 1.0, contenders=0)


class TestParallelSection:
    def test_divides_over_threads(self):
        assert parallel_section_time(100, 1.0, 10) == pytest.approx(10.0)

    def test_ceil_division(self):
        assert parallel_section_time(11, 1.0, 10) == pytest.approx(2.0)

    def test_single_thread_serializes(self):
        assert parallel_section_time(7, 2.0, 1) == pytest.approx(14.0)


class TestNetworkModel:
    def test_transfer_latency_plus_bytes(self):
        net = NetworkModel(NetworkConfig(bandwidth_bytes_per_s=1e6, rpc_latency_s=1e-3))
        assert net.transfer_time(1_000_000) == pytest.approx(1e-3 + 1.0)

    def test_concurrent_flows_share_link(self):
        net = NetworkModel(NetworkConfig(bandwidth_bytes_per_s=1e6, rpc_latency_s=0.0))
        assert net.transfer_time(1000, concurrent_flows=4) == pytest.approx(0.004)

    def test_burst_completion_is_total_bytes(self):
        net = NetworkModel(NetworkConfig(bandwidth_bytes_per_s=1e6, rpc_latency_s=0.0))
        assert net.burst_transfer_time(8, 1000) == pytest.approx(0.008)

    def test_burst_zero_flows_free(self):
        net = NetworkModel()
        assert net.burst_transfer_time(0, 1000) == 0.0

    def test_counters(self):
        net = NetworkModel()
        net.transfer_time(100)
        net.burst_transfer_time(3, 10)
        assert net.bytes_sent == 130
        assert net.messages == 4
        net.reset_counters()
        assert net.bytes_sent == 0

    def test_negative_size_rejected(self):
        with pytest.raises(SimulationError):
            NetworkModel().transfer_time(-1)
