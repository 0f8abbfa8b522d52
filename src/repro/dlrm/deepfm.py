"""DeepFM (Guo et al. 2017) on numpy — the paper's training algorithm.

DeepFM combines, over the field embeddings ``v_f`` of one sample:

* an **FM second-order term** ``0.5 * sum_d[(sum_f v_fd)^2 - sum_f v_fd^2]``
  capturing pairwise feature interactions,
* a **first-order term** from scalar per-key weights (implemented as a
  parallel dim-1 embedding namespace on the same PS), and
* a **deep term**: the concatenated embeddings through an MLP.

``logit = fm1 + fm2 + deep``; training minimises BCE-with-logits.

The class is *stateless with respect to the embeddings*: each batch's
embeddings come in as a tensor and the gradients flow back out, so the
same model runs against any PS backend.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.dlrm.layers import MLP, binary_cross_entropy, field_sum, stable_sigmoid
from repro.errors import ConfigError


@dataclass(frozen=True)
class DeepFMGradients:
    """Backward-pass outputs of one batch."""

    loss: float
    #: gradient wrt each field embedding, shape (batch, fields, dim)
    embedding_grads: np.ndarray
    #: gradient wrt each first-order weight, shape (batch, fields, 1)
    first_order_grads: np.ndarray | None


class DeepFM:
    """The dense side of DeepFM: FM interactions + MLP over embeddings.

    Args:
        num_fields: categorical fields per sample.
        dim: embedding dimension.
        hidden: MLP hidden layer sizes.
        use_first_order: include the scalar first-order FM term (needs a
            dim-1 embedding pull alongside the main one).
        seed: dense-parameter init seed.
    """

    def __init__(
        self,
        num_fields: int,
        dim: int,
        hidden: tuple[int, ...] = (64, 32),
        use_first_order: bool = True,
        seed: int = 0,
    ):
        if num_fields <= 0 or dim <= 0:
            raise ConfigError("num_fields and dim must be positive")
        self.num_fields = num_fields
        self.dim = dim
        self.use_first_order = use_first_order
        rng = np.random.default_rng((seed, 0xDEEF))
        self.mlp = MLP([num_fields * dim, *hidden, 1], rng=rng)
        self._cache: dict | None = None

    # ------------------------------------------------------------------
    # forward / backward
    # ------------------------------------------------------------------

    def forward(
        self,
        embeddings: np.ndarray,
        first_order: np.ndarray | None = None,
    ) -> np.ndarray:
        """Compute logits for a batch.

        Args:
            embeddings: (batch, fields, dim) field embeddings.
            first_order: (batch, fields, 1) scalar weights, required iff
                ``use_first_order``.

        Returns:
            (batch,) float logits.
        """
        batch, fields, dim = self._check_shape(embeddings)
        if self.use_first_order:
            if first_order is None:
                raise ConfigError("model uses first-order term; pass first_order")
            if first_order.shape != (batch, fields, 1):
                raise ConfigError(
                    f"first_order shape {first_order.shape}, want {(batch, fields, 1)}"
                )
        sum_v = field_sum(embeddings)  # (B, D)
        sum_sq = field_sum(embeddings**2)  # (B, D)
        fm2 = 0.5 * (sum_v**2 - sum_sq).sum(axis=1)  # (B,)
        deep_in = embeddings.reshape(batch, fields * dim)
        deep = self.mlp.forward(deep_in).reshape(-1)  # (B,)
        logits = fm2 + deep
        if self.use_first_order:
            logits = logits + first_order.sum(axis=(1, 2))
        self._cache = {"embeddings": embeddings, "sum_v": sum_v, "batch": batch}
        return logits.astype(np.float32)

    def backward(self, grad_logits: np.ndarray) -> np.ndarray:
        """Backprop from logit grads; returns embedding grads (B, F, D).

        Also accumulates MLP parameter gradients (consume via
        ``mlp.gradients()`` then :meth:`zero_grad`).
        """
        if self._cache is None:
            raise ConfigError("backward called before forward")
        embeddings = self._cache["embeddings"]
        sum_v = self._cache["sum_v"]
        batch = self._cache["batch"]
        grad_logits = grad_logits.reshape(batch, 1, 1)
        # FM second-order: d/dv_fd = sum_f' v_f'd - v_fd
        fm_grad = grad_logits * (sum_v[:, None, :] - embeddings)
        deep_grad_flat = self.mlp.backward(
            grad_logits.reshape(batch, 1).astype(np.float32)
        )
        deep_grad = deep_grad_flat.reshape(batch, self.num_fields, self.dim)
        return (fm_grad + deep_grad).astype(np.float32)

    def train_batch(
        self,
        embeddings: np.ndarray,
        labels: np.ndarray,
        first_order: np.ndarray | None = None,
    ) -> DeepFMGradients:
        """One forward+backward pass; does NOT update any parameters.

        Returns the loss and the gradients the caller routes: embedding
        grads to the PS, MLP grads to the dense optimizer.
        """
        logits = self.forward(embeddings, first_order)
        loss, grad_logits = binary_cross_entropy(logits, labels)
        embedding_grads = self.backward(grad_logits)
        first_grads = None
        if self.use_first_order:
            batch = embeddings.shape[0]
            first_grads = np.broadcast_to(
                grad_logits.reshape(batch, 1, 1), (batch, self.num_fields, 1)
            ).astype(np.float32)
        return DeepFMGradients(
            loss=loss, embedding_grads=embedding_grads, first_order_grads=first_grads
        )

    def predict_proba(
        self, embeddings: np.ndarray, first_order: np.ndarray | None = None
    ) -> np.ndarray:
        """Click probabilities for a batch."""
        logits = self.forward(embeddings, first_order)
        return stable_sigmoid(logits)

    def zero_grad(self) -> None:
        self.mlp.zero_grad()

    # ------------------------------------------------------------------
    # dense checkpointing
    # ------------------------------------------------------------------

    def dense_state(self) -> list[np.ndarray]:
        """Copies of the MLP parameters (the 'dense features' of
        Table IV, checkpointed via the framework's own mechanism)."""
        return self.mlp.state()

    def load_dense_state(self, state: list[np.ndarray]) -> None:
        self.mlp.load_state(state)

    @property
    def dense_parameter_count(self) -> int:
        return self.mlp.num_parameters

    def _check_shape(self, embeddings: np.ndarray) -> tuple[int, int, int]:
        if embeddings.ndim != 3:
            raise ConfigError(f"embeddings must be 3-D, got {embeddings.shape}")
        batch, fields, dim = embeddings.shape
        if fields != self.num_fields or dim != self.dim:
            raise ConfigError(
                f"embeddings shape {embeddings.shape}, want "
                f"(B, {self.num_fields}, {self.dim})"
            )
        return batch, fields, dim
