"""Dense neural-network layers (numpy).

The dense part of a DLRM — the MLP that consumes the concatenated
embeddings — is small (<1 % of model size, Section VI-A) but compute
heavy. This module gives it a minimal, fully tested implementation:
:class:`Dense` layers with ReLU, composed by :class:`MLP`.

Forward passes cache what backward needs; ``backward`` returns the
input gradient and accumulates parameter gradients on the layer, which
a :class:`repro.dlrm.optimizers.DenseOptimizer` then consumes.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigError


def stable_sigmoid(x: np.ndarray) -> np.ndarray:
    """Overflow-free logistic function for any logit magnitude."""
    x = np.asarray(x)
    out = np.empty(x.shape, dtype=np.float64)
    positive = x >= 0
    out[positive] = 1.0 / (1.0 + np.exp(-x[positive]))
    exp_x = np.exp(x[~positive])
    out[~positive] = exp_x / (1.0 + exp_x)
    return out.astype(x.dtype if x.dtype.kind == "f" else np.float64)


def field_sum(x: np.ndarray) -> np.ndarray:
    """``x.sum(axis=1)`` of a ``(batch, fields, width)`` block, bit for bit.

    At width >= 2 numpy adds the fields one after another either way, and
    ``einsum`` does it ~4x faster than the strided reduction. At width 1
    the field axis is the contiguous one, which ``sum`` adds pairwise:
    there it stays ``sum``.
    """
    return np.einsum("bfd->bd", x) if x.shape[2] >= 2 else x.sum(axis=1)


class Dense:
    """A fully connected layer ``y = act(x @ W + b)``.

    Args:
        in_features / out_features: layer shape.
        activation: ``"relu"``, ``"sigmoid"`` or ``"linear"``.
        rng: initialiser RNG (Xavier-uniform weights, zero bias).
    """

    def __init__(
        self,
        in_features: int,
        out_features: int,
        activation: str = "relu",
        rng: np.random.Generator | None = None,
    ):
        if in_features <= 0 or out_features <= 0:
            raise ConfigError("layer dimensions must be positive")
        if activation not in ("relu", "sigmoid", "linear"):
            raise ConfigError(f"unknown activation {activation!r}")
        rng = rng or np.random.default_rng(0)
        limit = np.sqrt(6.0 / (in_features + out_features))
        self.weight = rng.uniform(-limit, limit, (in_features, out_features)).astype(
            np.float32
        )
        self.bias = np.zeros(out_features, dtype=np.float32)
        self.activation = activation
        self.grad_weight = np.zeros_like(self.weight)
        self.grad_bias = np.zeros_like(self.bias)
        self._x: np.ndarray | None = None
        self._pre: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Compute the layer output for a batch ``x`` of shape (B, in)."""
        self._x = x
        pre = x @ self.weight + self.bias
        self._pre = pre
        if self.activation == "relu":
            return np.maximum(pre, 0.0)
        if self.activation == "sigmoid":
            return stable_sigmoid(pre)
        return pre

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        """Backprop ``grad_out`` (B, out); returns grad wrt input (B, in).

        Parameter gradients accumulate into ``grad_weight``/``grad_bias``
        (call :meth:`zero_grad` between steps).
        """
        if self._x is None or self._pre is None:
            raise ConfigError("backward called before forward")
        if self.activation == "relu":
            grad_pre = grad_out * (self._pre > 0)
        elif self.activation == "sigmoid":
            sig = stable_sigmoid(self._pre)
            grad_pre = grad_out * sig * (1.0 - sig)
        else:
            grad_pre = grad_out
        self.grad_weight += self._x.T @ grad_pre
        self.grad_bias += grad_pre.sum(axis=0)
        return grad_pre @ self.weight.T

    def zero_grad(self) -> None:
        self.grad_weight.fill(0.0)
        self.grad_bias.fill(0.0)

    def parameters(self) -> list[np.ndarray]:
        return [self.weight, self.bias]

    def gradients(self) -> list[np.ndarray]:
        return [self.grad_weight, self.grad_bias]

    @property
    def num_parameters(self) -> int:
        return self.weight.size + self.bias.size


class MLP:
    """A stack of Dense layers, e.g. ``MLP([in, 128, 64, 1])``.

    The final layer is linear (the logit); hidden layers use ReLU.
    """

    def __init__(self, sizes: list[int], rng: np.random.Generator | None = None):
        if len(sizes) < 2:
            raise ConfigError("MLP needs at least input and output sizes")
        rng = rng or np.random.default_rng(0)
        self.layers: list[Dense] = []
        for i in range(len(sizes) - 1):
            last = i == len(sizes) - 2
            self.layers.append(
                Dense(
                    sizes[i],
                    sizes[i + 1],
                    activation="linear" if last else "relu",
                    rng=rng,
                )
            )

    def forward(self, x: np.ndarray) -> np.ndarray:
        for layer in self.layers:
            x = layer.forward(x)
        return x

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        for layer in reversed(self.layers):
            grad_out = layer.backward(grad_out)
        return grad_out

    def zero_grad(self) -> None:
        for layer in self.layers:
            layer.zero_grad()

    def parameters(self) -> list[np.ndarray]:
        return [p for layer in self.layers for p in layer.parameters()]

    def gradients(self) -> list[np.ndarray]:
        return [g for layer in self.layers for g in layer.gradients()]

    @property
    def num_parameters(self) -> int:
        return sum(layer.num_parameters for layer in self.layers)

    def state(self) -> list[np.ndarray]:
        """Copies of all parameters (dense checkpointing)."""
        return [np.array(p, copy=True) for p in self.parameters()]

    def load_state(self, state: list[np.ndarray]) -> None:
        """Restore parameters from :meth:`state` output."""
        params = self.parameters()
        if len(state) != len(params):
            raise ConfigError(
                f"state has {len(state)} tensors, model has {len(params)}"
            )
        for param, saved in zip(params, state):
            if param.shape != saved.shape:
                raise ConfigError(f"shape mismatch {param.shape} vs {saved.shape}")
            param[...] = saved


def binary_cross_entropy(
    logits: np.ndarray, labels: np.ndarray
) -> tuple[float, np.ndarray]:
    """Numerically stable BCE-with-logits.

    Returns ``(mean loss, dLoss/dlogits)`` for a batch; the gradient is
    already divided by the batch size.
    """
    logits = logits.reshape(-1)
    labels = labels.reshape(-1).astype(np.float64)
    if logits.shape != labels.shape:
        raise ConfigError(f"shape mismatch {logits.shape} vs {labels.shape}")
    # log(1+exp(x)) computed stably
    loss = np.maximum(logits, 0) - logits * labels + np.log1p(np.exp(-np.abs(logits)))
    probs = stable_sigmoid(logits.astype(np.float64))
    grad = (probs - labels) / len(labels)
    return float(loss.mean()), grad.astype(np.float32)
