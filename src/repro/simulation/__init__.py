"""Discrete/simulated-time substrate.

Everything performance-related in this reproduction runs on simulated
time: devices charge latency+bandwidth costs, the network charges
transfer costs, and the training loop composes them per batch. The
functional (weights) layer is independent of this package.

The training-loop simulator lives in :mod:`repro.simulation.trainer_sim`
and the per-system cost model in :mod:`repro.simulation.cluster`; they
are imported directly (not re-exported here) because they sit *above*
the core PS package in the dependency order.
"""

from repro.simulation.calibration import Calibration, DEFAULT_CALIBRATION
from repro.simulation.clock import PeriodicTimer, SimClock
from repro.simulation.device import DRAM_SPEC, PMEM_SPEC, SSD_SPEC, DeviceSpec, MemoryDevice
from repro.simulation.metrics import Metrics, PrefetchStats, RpcReliabilityStats
from repro.simulation.network import Delivery, NetworkModel
from repro.simulation.contention import serialized_section_time

__all__ = [
    "SimClock",
    "PeriodicTimer",
    "Calibration",
    "DEFAULT_CALIBRATION",
    "DeviceSpec",
    "MemoryDevice",
    "DRAM_SPEC",
    "PMEM_SPEC",
    "SSD_SPEC",
    "Metrics",
    "RpcReliabilityStats",
    "PrefetchStats",
    "NetworkModel",
    "Delivery",
    "serialized_section_time",
]
