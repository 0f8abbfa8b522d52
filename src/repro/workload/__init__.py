"""Synthetic DLRM access workloads.

Reproduces the access characteristics of the paper's real-world trace
(Section III): a 2.1 B-entry embedding table whose sorted access
frequencies follow exponential decay (Figure 10), with the head so hot
that the top 0.05 % of entries receive 85.7 % of all accesses
(Table II). :class:`BandedSkewDistribution` generates that skew;
:class:`AccessTraceAnalyzer` measures a stream's shares and fits the
Figure 10 decay (:func:`fit_exponential_rate`).
"""

from repro.workload.drift import DriftingWorkload
from repro.workload.distributions import (
    BandedSkewDistribution,
    TABLE2_BANDS,
    fit_exponential_rate,
)
from repro.workload.generator import WorkloadGenerator
from repro.workload.trace import AccessTraceAnalyzer

__all__ = [
    "BandedSkewDistribution",
    "TABLE2_BANDS",
    "fit_exponential_rate",
    "WorkloadGenerator",
    "AccessTraceAnalyzer",
    "DriftingWorkload",
]
