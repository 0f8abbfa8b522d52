"""PS-side optimizers for sparse embedding updates.

In a DLRM parameter server the optimizer for the sparse features runs on
the PS: workers push raw gradients and the PS applies the update rule
(the paper's ``UpdateWeights`` operator). SGD is stateless; Adagrad
keeps a per-entry accumulator that must live, persist and recover with
the entry, so entries carry an ``opt_state`` vector of
``optimizer.state_width(dim)`` floats.

Both rules are elementwise, so :meth:`PSOptimizer.apply_batch` applies a
whole aggregated batch — ``(n, dim)`` weights/state/gradients — in one
vectorized call that is bitwise-identical to ``n`` single-row
:meth:`PSOptimizer.apply` calls. The cache applies every push through
``apply_batch``; ``apply`` is the row-wise definition it must match.

Dtype discipline: embedding state is float32 end to end. A float64
gradient slipping in used to make ``state += grad * grad`` compute in
float64 and truncate back on store — silently different results from
the float32 path. All entry points now coerce gradients to float32
first, so the arithmetic (and therefore the trained bits) never depends
on the caller's gradient dtype.
"""

from __future__ import annotations

import abc

import numpy as np

from repro.errors import ConfigError, ServerError


def checked_grads(grads, n: int, dim: int) -> np.ndarray:
    """``grads`` as an array, refused unless it is the ``(n, dim)`` block
    of a push of ``n`` keys.

    Raises:
        ServerError: any other shape.
    """
    grads = np.asarray(grads)
    if grads.shape != (n, dim):
        raise ServerError(f"gradient shape {grads.shape} != ({n}, {dim})")
    return grads


def coerce_f32(grad: np.ndarray) -> np.ndarray:
    """Gradient as float32 (no copy when already float32)."""
    grad = np.asarray(grad)
    if grad.dtype != np.float32:
        return grad.astype(np.float32)
    return grad


def segment_sum(grads: np.ndarray, first: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """One summed gradient per distinct id of a push, ``(len(starts), dim)``.

    ``first[i]`` is the first position holding position ``i``'s id and
    ``starts`` the positions that are first, in the order of the output
    rows (ascending for first-occurrence order). The first
    occurrence of each id seeds its row (a copy — decoded wire gradients
    may be read-only), later duplicates accumulate in occurrence order —
    per element of the flattened block, where ``add.at`` is fast. Every
    PS sums a push this one way, so their float32 bits agree.
    """
    agg = np.take(grads, starts, axis=0)
    n, dim = grads.shape
    if n != len(starts):
        at = np.empty(n, dtype=np.int64)
        at[starts] = np.arange(0, len(starts) * dim, dim)
        dup = first != np.arange(n)
        flat = at[first[dup]][:, None] + np.arange(dim)
        np.add.at(agg.reshape(-1), flat.reshape(-1), grads[dup].reshape(-1))
    return agg


class PSOptimizer(abc.ABC):
    """Update rule applied by the PS when gradients are pushed."""

    @abc.abstractmethod
    def state_width(self, dim: int) -> int:
        """Floats of per-entry state for a ``dim``-wide embedding."""

    @abc.abstractmethod
    def init_state(self, dim: int) -> np.ndarray | None:
        """Fresh per-entry state (None when stateless)."""

    @abc.abstractmethod
    def apply(
        self, weights: np.ndarray, state: np.ndarray | None, grad: np.ndarray
    ) -> None:
        """Apply one aggregated gradient in place to ``weights``/``state``."""

    def apply_batch(
        self, weights: np.ndarray, state: np.ndarray | None, grads: np.ndarray
    ) -> None:
        """Apply ``n`` aggregated gradients in place to ``(n, dim)`` blocks.

        Must be bitwise-identical to ``n`` row-wise :meth:`apply` calls;
        the default falls back to exactly that.
        """
        for i in range(len(weights)):
            self.apply(weights[i], None if state is None else state[i], grads[i])


class PSSGD(PSOptimizer):
    """Plain SGD: ``w -= lr * g``. Stateless."""

    def __init__(self, lr: float = 0.01):
        if lr <= 0:
            raise ConfigError(f"learning rate must be positive, got {lr}")
        self.lr = lr

    def state_width(self, dim: int) -> int:
        return 0

    def init_state(self, dim: int) -> np.ndarray | None:
        return None

    def apply(
        self, weights: np.ndarray, state: np.ndarray | None, grad: np.ndarray
    ) -> None:
        weights -= self.lr * coerce_f32(grad)

    def apply_batch(
        self, weights: np.ndarray, state: np.ndarray | None, grads: np.ndarray
    ) -> None:
        weights -= self.lr * coerce_f32(grads)

    def __repr__(self) -> str:
        return f"PSSGD(lr={self.lr})"


class PSAdagrad(PSOptimizer):
    """Adagrad: per-coordinate adaptive rate with a persistent accumulator.

    ``acc += g^2; w -= lr * g / (sqrt(acc) + eps)``

    The accumulator is entry state: it is cached, flushed and
    checkpointed together with the weights, so recovery restores the
    optimizer exactly.
    """

    def __init__(
        self, lr: float = 0.05, eps: float = 1e-8, initial_accumulator: float = 0.1
    ):
        if lr <= 0:
            raise ConfigError(f"learning rate must be positive, got {lr}")
        if eps <= 0:
            raise ConfigError(f"eps must be positive, got {eps}")
        if initial_accumulator < 0:
            raise ConfigError("initial_accumulator must be non-negative")
        self.lr = lr
        self.eps = eps
        self.initial_accumulator = initial_accumulator

    def state_width(self, dim: int) -> int:
        return dim

    def init_state(self, dim: int) -> np.ndarray | None:
        return np.full(dim, self.initial_accumulator, dtype=np.float32)

    def apply(
        self, weights: np.ndarray, state: np.ndarray | None, grad: np.ndarray
    ) -> None:
        assert state is not None, "Adagrad requires per-entry state"
        grad = coerce_f32(grad)
        state += grad * grad
        weights -= self.lr * grad / (np.sqrt(state) + self.eps)

    def apply_batch(
        self, weights: np.ndarray, state: np.ndarray | None, grads: np.ndarray
    ) -> None:
        assert state is not None, "Adagrad requires per-entry state"
        grads = coerce_f32(grads)
        # Same arithmetic as ``apply`` with the temporaries reused:
        # every op is elementwise, so the bits are identical.
        sq = np.multiply(grads, grads)
        state += sq
        np.sqrt(state, out=sq)
        sq += self.eps
        step = np.multiply(grads, self.lr)
        step /= sq
        weights -= step

    def __repr__(self) -> str:
        return f"PSAdagrad(lr={self.lr})"
