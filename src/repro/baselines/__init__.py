"""Comparison systems from the paper's evaluation (Table III).

* :class:`DRAMPSNode` — 'DRAM-PS': the classic pure-DRAM parameter
  server (the paper's performance upper bound), checkpointed with the
  CheckFreq-style incremental scheme (each dump's footprint a
  :class:`CheckpointStats`) into a versioned store on its checkpoint
  pool.
* :class:`PMemHashNode` — 'PMem-Hash': entries stored directly in a
  PMem hash (libpmemobj-style), no DRAM cache, no batch consistency.
* :class:`TensorFlowPS` — the TensorFlow parameter-server baseline of
  Section VI-F (single-process, DRAM-only).

'Ori-Cache' (inline, non-pipelined LRU maintenance) is not a module
here: figures 3 / 6 / 7 / 11 model it as
:attr:`repro.simulation.cluster.SystemKind.ORI_CACHE`, a real
:class:`~repro.core.ps_node.PSNode` that the cost model prices
unpipelined.
"""

from repro.baselines.dram_ps import CheckpointStats, DRAMPSNode
from repro.baselines.pmem_hash import PMemHashNode
from repro.baselines.tensorflow_ps import TensorFlowPS

__all__ = [
    "DRAMPSNode",
    "PMemHashNode",
    "TensorFlowPS",
    "CheckpointStats",
]
