"""The 'TensorFlow' parameter-server baseline of Section VI-F.

The paper's sanity check compares OpenEmbedding against TensorFlow's
own embedding layer / parameter server on the (smaller) Criteo Kaggle
dataset, because *"TensorFlow's parameter server does not support
synchronous training in the distributed setting"* and the 500 GB model
*"exceeds the memory capacity of a single server"*.

Functionally this is a single-process DRAM store (it shares the
DRAM-PS weight semantics); what distinguishes it is the constraint set:

* single node only — the embedding table must fit in one server's DRAM
  (:class:`MemoryError` otherwise, mirroring the paper's deployment
  failure);
* no PS-side burst-optimised request path — the performance model
  charges a higher per-entry service cost with lock contention that
  grows with worker count (Figure 15's widening gap).
"""

from __future__ import annotations

from repro.baselines.dram_ps import DRAMPSNode
from repro.config import ServerConfig
from repro.core.optimizers import PSOptimizer
from repro.errors import ConfigError


class TensorFlowPS(DRAMPSNode):
    """Single-server DRAM embedding store with TF-like constraints."""

    def __init__(
        self,
        server_config: ServerConfig | None = None,
        optimizer: PSOptimizer | None = None,
        dram_capacity_bytes: int = 384 << 30,
    ):
        server_config = server_config or ServerConfig()
        if server_config.num_nodes != 1:
            raise ConfigError(
                "the TensorFlow PS baseline does not support distributed "
                "synchronous training (Section VI-F); num_nodes must be 1"
            )
        super().__init__(
            server_config,
            optimizer,
            dram_capacity_bytes=dram_capacity_bytes,
        )

    def supports_model_bytes(self, model_bytes: int) -> bool:
        """Whether a model of ``model_bytes`` can be deployed at all."""
        return (
            self.dram_capacity_bytes is not None
            and model_bytes <= self.dram_capacity_bytes
        )
