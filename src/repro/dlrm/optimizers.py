"""Optimizers for the dense (MLP) part of the model.

The sparse embeddings are updated on the parameter server with
:mod:`repro.core.optimizers`; the dense part lives on the (simulated)
GPU workers and uses :class:`Adam`, which carries explicit state so
the dense checkpoint can capture and restore it exactly.
"""

from __future__ import annotations

import abc

import numpy as np

from repro.errors import ConfigError


class DenseOptimizer(abc.ABC):
    """Updates a list of parameter arrays in place from their grads."""

    @abc.abstractmethod
    def step(self, params: list[np.ndarray], grads: list[np.ndarray]) -> None:
        """Apply one update step."""

    @abc.abstractmethod
    def state(self) -> dict:
        """Checkpointable optimizer state (deep copies)."""

    @abc.abstractmethod
    def load_state(self, state: dict) -> None:
        """Restore from :meth:`state` output."""


class Adam(DenseOptimizer):
    """Adam (Kingma & Ba) with bias correction."""

    def __init__(
        self,
        lr: float = 1e-3,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
    ):
        if lr <= 0:
            raise ConfigError(f"learning rate must be positive, got {lr}")
        if not 0 <= beta1 < 1 or not 0 <= beta2 < 1:
            raise ConfigError("betas must be in [0, 1)")
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self._m: list[np.ndarray] | None = None
        self._v: list[np.ndarray] | None = None
        self._t = 0

    def step(self, params: list[np.ndarray], grads: list[np.ndarray]) -> None:
        if len(params) != len(grads):
            raise ConfigError("params/grads length mismatch")
        if self._m is None:
            self._m = [np.zeros_like(p) for p in params]
            self._v = [np.zeros_like(p) for p in params]
        self._t += 1
        bc1 = 1.0 - self.beta1**self._t
        bc2 = 1.0 - self.beta2**self._t
        for param, grad, m, v in zip(params, grads, self._m, self._v):
            m *= self.beta1
            m += (1 - self.beta1) * grad
            v *= self.beta2
            v += (1 - self.beta2) * grad * grad
            param -= self.lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)

    def state(self) -> dict:
        return {
            "t": self._t,
            "m": None if self._m is None else [np.array(x, copy=True) for x in self._m],
            "v": None if self._v is None else [np.array(x, copy=True) for x in self._v],
        }

    def load_state(self, state: dict) -> None:
        self._t = state["t"]
        self._m = (
            None if state["m"] is None else [np.array(x, copy=True) for x in state["m"]]
        )
        self._v = (
            None if state["v"] is None else [np.array(x, copy=True) for x in state["v"]]
        )
