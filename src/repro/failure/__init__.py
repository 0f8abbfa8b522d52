"""Failure injection and checkpoint-interval planning.

* :mod:`repro.failure.injection` — seeded PS-node kill schedules in
  simulated time, and hostile-worker profiles (stragglers, duplicated
  or delayed pushes, Byzantine gradients) for async chaos runs.
* :mod:`repro.failure.network_faults` — seeded message drop /
  duplicate / corrupt / delay injection on the simulated link (the
  network as a failure domain, not just processes).
* :mod:`repro.failure.mttf` — Young's formula (the paper's Section
  VI-A basis for the 20-minute default interval) and expected lost-work
  accounting.
"""

from repro.failure.injection import NodeKillInjector, NodeKillSchedule
from repro.failure.mttf import (
    expected_lost_work_seconds,
    sample_failure_times,
    young_interval_seconds,
)
from repro.failure.network_faults import FaultyLink, LinkFaultStats

__all__ = [
    "NodeKillSchedule",
    "NodeKillInjector",
    "FaultyLink",
    "LinkFaultStats",
    "young_interval_seconds",
    "expected_lost_work_seconds",
    "sample_failure_times",
]
