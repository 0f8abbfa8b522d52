"""Cluster interconnect timing model.

The paper's testbed connects GPU machines, PS machines and the NAS over
a 30 Gb intranet, with RDMA-style low-overhead RPC between the
TensorFlow operators and the PS backend. We model a single shared link
per direction: per-message latency plus bytes over (possibly shared)
bandwidth.
"""

from __future__ import annotations

from typing import NamedTuple

from repro.config import NetworkConfig
from repro.errors import SimulationError


class Delivery(NamedTuple):
    """Outcome of moving one frame across a link.

    Attributes:
        copies: frames that actually arrive, in order — empty when the
            message was dropped, two entries when it was duplicated,
            possibly corrupted bytes.
        elapsed: simulated seconds the transfer occupied the wire
            (including injected delays and duplicate transmissions).
    """

    copies: tuple[bytes, ...]
    elapsed: float


class NetworkModel:
    """Charges transfer times for PS <-> worker messages.

    Attributes:
        config: static link parameters.
        bytes_sent: cumulative payload bytes charged.
        messages: cumulative message count.
    """

    def __init__(self, config: NetworkConfig | None = None):
        self.config = config or NetworkConfig()
        self.bytes_sent = 0
        self.messages = 0

    def transfer_time(self, nbytes: int, concurrent_flows: int = 1) -> float:
        """Seconds for one ``nbytes`` message among ``concurrent_flows``.

        All flows progress together sharing the link, so each flow's
        effective bandwidth is divided by the flow count; latency is paid
        once per message.
        """
        if nbytes < 0:
            raise SimulationError(f"negative transfer size {nbytes}")
        if concurrent_flows < 1:
            raise SimulationError(f"flows must be >= 1, got {concurrent_flows}")
        self.bytes_sent += nbytes
        self.messages += 1
        share = self.config.bandwidth_bytes_per_s / concurrent_flows
        return self.config.rpc_latency_s + nbytes / share

    def burst_transfer_time(self, flows: int, bytes_per_flow: int) -> float:
        """Seconds for ``flows`` simultaneous messages to all complete.

        This is the batch-boundary pattern: every worker sends its pull
        (or push) at once. The link is fully shared, so completion time
        is one latency plus the total bytes over the full bandwidth.
        """
        if flows < 0:
            raise SimulationError(f"negative flow count {flows}")
        if bytes_per_flow < 0:
            raise SimulationError(f"negative per-flow size {bytes_per_flow}")
        if flows == 0:
            return 0.0
        self.bytes_sent += flows * bytes_per_flow
        self.messages += flows
        total = flows * bytes_per_flow
        return self.config.rpc_latency_s + total / self.config.bandwidth_bytes_per_s

    def reset_counters(self) -> None:
        """Zero the traffic counters."""
        self.bytes_sent = 0
        self.messages = 0
