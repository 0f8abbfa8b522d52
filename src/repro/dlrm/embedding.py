"""PS-backed embedding table for functional training.

This is the client side of the paper's TensorFlow operators
(``PullWeights`` / ``PushGradients``): it turns a (batch, fields) key
matrix into a (batch, fields, dim) embedding tensor by pulling from the
distributed server, and pushes the per-lookup gradients back.

The synchronous-batch protocol is: ``pull`` at the start of the batch,
``maintain`` once every worker's pulls are in (the trainer calls it),
``push`` at the end. A key matrix crosses this layer as the flattened
``ndarray`` it already is — the server's partitioner works on arrays, so
no key becomes a Python ``int`` between the trainer and the wire.
Duplicate keys inside one batch are pulled as
duplicates (they all see the same pre-batch weights) and their
gradients are aggregated by the server on push — exactly the paired
burst pattern of Figure 2.
"""

from __future__ import annotations

import numpy as np

from repro.core.server import OpenEmbeddingServer
from repro.errors import ConfigError


class PSEmbedding:
    """Embedding lookups against an :class:`OpenEmbeddingServer`.

    Also works with any object exposing the same ``pull``/``push``
    protocol (the baselines), which is how comparison tests train the
    same model on different PS systems.
    """

    def __init__(self, server, dim: int):
        if dim <= 0:
            raise ConfigError(f"dim must be positive, got {dim}")
        self.server = server
        self.dim = dim

    def pull(self, key_matrix: np.ndarray, batch_id: int) -> np.ndarray:
        """Pull embeddings for a (batch, fields) int key matrix.

        Returns a float32 tensor of shape (batch, fields, dim).
        """
        key_matrix = np.asarray(key_matrix)
        if key_matrix.ndim != 2:
            raise ConfigError(f"key matrix must be 2-D, got shape {key_matrix.shape}")
        result = self.server.pull(key_matrix.reshape(-1), batch_id)
        return result.weights.reshape(*key_matrix.shape, self.dim)

    def push(
        self, key_matrix: np.ndarray, grads: np.ndarray, batch_id: int
    ) -> int:
        """Push per-lookup gradients of shape (batch, fields, dim)."""
        key_matrix = np.asarray(key_matrix)
        grads = np.asarray(grads, dtype=np.float32)
        expected = (*key_matrix.shape, self.dim)
        if grads.shape != expected:
            raise ConfigError(f"grads shape {grads.shape}, want {expected}")
        flat_grads = grads.reshape(-1, self.dim)
        return self.server.push(key_matrix.reshape(-1), flat_grads, batch_id)
