"""Memory/storage device models with Table I characteristics.

The paper's Table I compares DRAM, Optane PMem and flash SSD:

==========  ==================  =================
Device      Bandwidth R/W GB/s  Latency R/W ns
==========  ==================  =================
DRAM        115 / 79            81 / 86
PMem        39 / 14             305 / 94
Flash SSD   2~3 / 1~2           >10000
==========  ==================  =================

A :class:`MemoryDevice` charges simulated time for byte-granular reads
and writes: ``latency + bytes / bandwidth``, with bandwidth shared when
multiple streams access the device concurrently. It also keeps byte/op
counters so benchmarks can report effective throughput (Table I bench).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError, SimulationError

GB = 1 << 30


@dataclass(frozen=True)
class DeviceSpec:
    """Static performance characteristics of a memory/storage device.

    Attributes:
        name: human-readable device name.
        read_bw: sequential read bandwidth, bytes per second.
        write_bw: sequential write bandwidth, bytes per second.
        read_latency: per-operation read latency, seconds.
        write_latency: per-operation write latency, seconds.
        cost_per_gb: hardware cost in dollars per GB (used by the cost
            model; approximate cloud-era street prices).
    """

    name: str
    read_bw: float
    write_bw: float
    read_latency: float
    write_latency: float
    cost_per_gb: float = 0.0

    def __post_init__(self) -> None:
        if self.read_bw <= 0 or self.write_bw <= 0:
            raise ConfigError(f"{self.name}: bandwidth must be positive")
        if self.read_latency < 0 or self.write_latency < 0:
            raise ConfigError(f"{self.name}: latency must be non-negative")

    def read_time(self, nbytes: int, streams: int = 1) -> float:
        """Seconds to read ``nbytes`` with ``streams`` concurrent readers.

        Bandwidth is divided among streams; latency is paid once per
        operation regardless of concurrency.
        """
        _check_op(nbytes, streams)
        return self.read_latency + nbytes / (self.read_bw / streams)

    def write_time(self, nbytes: int, streams: int = 1) -> float:
        """Seconds to write ``nbytes`` with ``streams`` concurrent writers."""
        _check_op(nbytes, streams)
        return self.write_latency + nbytes / (self.write_bw / streams)

    def burst_read_time(self, ops: int, bytes_per_op: int, threads: int) -> float:
        """Seconds to serve ``ops`` small reads issued as one burst.

        ``threads`` device-side threads issue operations in parallel, so
        per-op latency overlaps across threads while total bytes are
        bound by device bandwidth — the burst completes at
        ``max(latency-bound, bandwidth-bound)`` time. This models the
        paper's batch-boundary I/O bursts (Figure 2).
        """
        _check_burst(ops, bytes_per_op, threads)
        if ops == 0:
            return 0.0
        latency_bound = -(-ops // threads) * self.read_latency
        bandwidth_bound = ops * bytes_per_op / self.read_bw
        return max(latency_bound, bandwidth_bound)

    def burst_write_time(self, ops: int, bytes_per_op: int, threads: int) -> float:
        """Write-side analogue of :meth:`burst_read_time`."""
        _check_burst(ops, bytes_per_op, threads)
        if ops == 0:
            return 0.0
        latency_bound = -(-ops // threads) * self.write_latency
        bandwidth_bound = ops * bytes_per_op / self.write_bw
        return max(latency_bound, bandwidth_bound)


def _check_op(nbytes: int, streams: int) -> None:
    if nbytes < 0:
        raise SimulationError(f"negative transfer size {nbytes}")
    if streams < 1:
        raise SimulationError(f"streams must be >= 1, got {streams}")


def _check_burst(ops: int, bytes_per_op: int, threads: int) -> None:
    if ops < 0:
        raise SimulationError(f"negative op count {ops}")
    if bytes_per_op < 0:
        raise SimulationError(f"negative bytes_per_op {bytes_per_op}")
    if threads < 1:
        raise SimulationError(f"threads must be >= 1, got {threads}")


#: Table I row 1. Cost from large-DIMM server DRAM pricing.
DRAM_SPEC = DeviceSpec(
    name="DRAM",
    read_bw=115 * GB,
    write_bw=79 * GB,
    read_latency=81e-9,
    write_latency=86e-9,
    cost_per_gb=7.0,
)

#: Table I row 2. Optane PMem 100-series; roughly 40% of DRAM's $/GB.
PMEM_SPEC = DeviceSpec(
    name="PMem",
    read_bw=39 * GB,
    write_bw=14 * GB,
    read_latency=305e-9,
    write_latency=94e-9,
    cost_per_gb=2.8,
)

#: Table I row 3. Midpoints of the paper's ranges; latency ">10000 ns"
#: modelled as a typical NVMe flash read latency of ~90 us.
SSD_SPEC = DeviceSpec(
    name="Flash SSD",
    read_bw=2.5 * GB,
    write_bw=1.5 * GB,
    read_latency=90e-6,
    write_latency=30e-6,
    cost_per_gb=0.25,
)


class MemoryDevice:
    """A stateful device: a spec plus cumulative traffic counters.

    Components charge operations here so benchmarks can report both the
    simulated time and the effective throughput each device sustained.
    """

    def __init__(self, spec: DeviceSpec, capacity_bytes: int | None = None):
        self.spec = spec
        self.capacity_bytes = capacity_bytes
        self.bytes_read = 0
        self.bytes_written = 0
        self.read_ops = 0
        self.write_ops = 0
        self.busy_seconds = 0.0

    def read(self, nbytes: int, streams: int = 1, ops: int = 1) -> float:
        """Charge ``ops`` serial reads of ``nbytes`` each; returns the
        simulated seconds they took."""
        elapsed = ops * self.spec.read_time(nbytes, streams)
        self.bytes_read += ops * nbytes
        self.read_ops += ops
        self.busy_seconds += elapsed
        return elapsed

    def write(self, nbytes: int, streams: int = 1, ops: int = 1) -> float:
        """Charge ``ops`` serial writes of ``nbytes`` each; returns the
        simulated seconds they took."""
        elapsed = ops * self.spec.write_time(nbytes, streams)
        self.bytes_written += ops * nbytes
        self.write_ops += ops
        self.busy_seconds += elapsed
        return elapsed

    def burst_read(self, ops: int, bytes_per_op: int, threads: int) -> float:
        """Charge a burst of small reads (see :meth:`DeviceSpec.burst_read_time`)."""
        elapsed = self.spec.burst_read_time(ops, bytes_per_op, threads)
        self.bytes_read += ops * bytes_per_op
        self.read_ops += ops
        self.busy_seconds += elapsed
        return elapsed

    def burst_write(self, ops: int, bytes_per_op: int, threads: int) -> float:
        """Charge a burst of small writes."""
        elapsed = self.spec.burst_write_time(ops, bytes_per_op, threads)
        self.bytes_written += ops * bytes_per_op
        self.write_ops += ops
        self.busy_seconds += elapsed
        return elapsed

    def effective_read_bw(self) -> float:
        """Average achieved read bandwidth over all charged reads, B/s."""
        if self.busy_seconds == 0:
            return 0.0
        return self.bytes_read / self.busy_seconds

    def reset_counters(self) -> None:
        """Zero the traffic counters (capacity is untouched)."""
        self.bytes_read = 0
        self.bytes_written = 0
        self.read_ops = 0
        self.write_ops = 0
        self.busy_seconds = 0.0

    def __repr__(self) -> str:
        return (
            f"MemoryDevice({self.spec.name}, read={self.bytes_read}B, "
            f"written={self.bytes_written}B)"
        )
