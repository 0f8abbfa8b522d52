"""PS-backed embedding table for functional training.

This is the client side of the paper's TensorFlow operators
(``PullWeights`` / ``PushGradients``): it turns a (batch, fields) key
matrix into a (batch, fields, dim) embedding tensor by pulling from the
distributed server, and pushes the per-lookup gradients back.

The synchronous-batch protocol is: ``pull`` at the start of the batch,
``maintain`` once every worker's pulls are in (the trainer calls it),
``push`` at the end. A key matrix is routed once: :meth:`PSEmbedding.plan`
asks the server for its :class:`~repro.core.sharding.KeyPlan`, and the
pull and the matching push both take that plan, so the keys are sorted
and split by shard once per worker step and no key becomes a Python
``int`` between the trainer and the wire. Duplicate keys inside one
batch cross the wire once each way: the server sends each shard its
distinct keys, every repeat reads its key's pulled row, and the
repeats' gradients are summed on the client, in occurrence order, into
one row per key — the paired burst pattern of Figure 2 with each row
moved once. A backend without ``plan`` (the baselines) receives the
flattened key array instead.
"""

from __future__ import annotations

import numpy as np

from repro.core.server import OpenEmbeddingServer
from repro.core.sharding import KeyPlan
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

    def plan(self, keys):
        """Route a (batch, fields) key matrix once: the server's
        :class:`~repro.core.sharding.KeyPlan` of it, or the matrix
        itself when the server builds no plans. A plan is returned as
        it is, so :meth:`pull` and :meth:`push` take either."""
        if isinstance(keys, KeyPlan):
            return keys
        keys = np.asarray(keys)
        if keys.ndim != 2:
            raise ConfigError(f"key matrix must be 2-D, got shape {keys.shape}")
        planner = getattr(self.server, "plan", None)
        return keys if planner is None else planner(keys)

    def pull(self, keys, batch_id: int) -> np.ndarray:
        """Pull embeddings for a (batch, fields) key matrix or its plan.

        Returns a float32 tensor of shape (batch, fields, dim).
        """
        keys = self.plan(keys)
        result = self.server.pull(_flat(keys), batch_id)
        return result.weights.reshape(*keys.shape, self.dim)

    def push(self, keys, grads: np.ndarray, batch_id: int) -> int:
        """Push per-lookup gradients of shape (batch, fields, dim) for a
        key matrix or its plan."""
        keys = self.plan(keys)
        grads = np.asarray(grads, dtype=np.float32)
        expected = (*keys.shape, self.dim)
        if grads.shape != expected:
            raise ConfigError(f"grads shape {grads.shape}, want {expected}")
        flat_grads = grads.reshape(-1, self.dim)
        return self.server.push(_flat(keys), flat_grads, batch_id)


def _flat(keys):
    """What the server routes: a plan as it is, a matrix flattened."""
    return keys if isinstance(keys, KeyPlan) else keys.reshape(-1)
