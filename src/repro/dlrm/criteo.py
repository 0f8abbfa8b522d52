"""Synthetic Criteo-like CTR dataset.

The paper's Section VI-F experiment uses the Criteo Kaggle display-ads
dataset (26 categorical fields); the proprietary production trace of
Section III is not available. This generator produces a deterministic
stand-in with the properties that matter:

* 26 categorical fields with per-field vocabularies and skewed
  (exponential-rank) popularity, so embedding-access patterns look like
  real CTR traffic;
* labels from a hidden ground-truth model (random field/interaction
  effects through a logistic link), so models can genuinely *learn* —
  training loss decreases — rather than fitting noise.

Keys are globally unique: field ``f``'s vocabulary occupies the id
range ``[field_offsets[f], field_offsets[f+1])``, matching how DLRMs
concatenate per-field tables into one PS key space.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.dlrm.layers import field_sum
from repro.errors import ConfigError


@dataclass(frozen=True)
class CriteoBatch:
    """One mini-batch: categorical keys, dense features, click labels."""

    keys: np.ndarray  # (batch, fields) int64 global key ids
    labels: np.ndarray  # (batch,) float32 in {0, 1}
    dense: np.ndarray  # (batch, num_dense) float32 continuous features


class CriteoSynthetic:
    """Deterministic synthetic CTR dataset.

    Args:
        num_fields: categorical fields per sample (Criteo has 26).
        vocab_per_field: vocabulary size of each field.
        skew_rate: exponential-decay rate of per-field key popularity
            (larger = hotter heads).
        seed: dataset seed; the same seed always yields the same
            samples, labels and ground truth.
    """

    def __init__(
        self,
        num_fields: int = 26,
        vocab_per_field: int = 1000,
        skew_rate: float = 8.0,
        num_dense: int = 0,
        seed: int = 0,
    ):
        if num_fields <= 0 or vocab_per_field <= 0:
            raise ConfigError("num_fields and vocab_per_field must be positive")
        if skew_rate <= 0:
            raise ConfigError("skew_rate must be positive")
        if num_dense < 0:
            raise ConfigError("num_dense must be non-negative")
        self.num_fields = num_fields
        self.vocab_per_field = vocab_per_field
        self.skew_rate = skew_rate
        self.num_dense = num_dense
        self.seed = seed
        self.field_offsets = np.arange(num_fields + 1) * vocab_per_field
        gt_rng = np.random.default_rng((seed, 0x6707))
        # Hidden ground truth: a per-key effect plus pairwise field
        # interactions through a low-rank factor, plus a linear dense
        # effect, pushed through a logistic link. Effects are scaled
        # for label balance ~40-60 %.
        self._key_effect = gt_rng.normal(0.0, 0.8, num_fields * vocab_per_field)
        self._key_factor = gt_rng.normal(0.0, 0.35, (num_fields * vocab_per_field, 4))
        self._dense_effect = gt_rng.normal(0.0, 0.6, num_dense)
        self._bias = 0.0

    @property
    def num_keys(self) -> int:
        """Total key-space size across all fields."""
        return self.num_fields * self.vocab_per_field

    def batch(self, batch_size: int, batch_index: int) -> CriteoBatch:
        """The ``batch_index``-th mini-batch (deterministic).

        The same (seed, batch_index) always yields identical data, which
        is what lets recovery tests replay training exactly.
        """
        if batch_size <= 0:
            raise ConfigError(f"batch_size must be positive, got {batch_size}")
        rng = np.random.default_rng((self.seed, 0xDA7A, batch_index))
        # Per-field skewed categorical draw via truncated exponential.
        u = rng.random((batch_size, self.num_fields))
        norm = 1.0 - np.exp(-self.skew_rate)
        x = -np.log1p(-u * norm) / self.skew_rate
        local = np.minimum(
            (x * self.vocab_per_field).astype(np.int64), self.vocab_per_field - 1
        )
        keys = local + self.field_offsets[:-1][None, :]
        dense = rng.normal(0.0, 1.0, (batch_size, self.num_dense)).astype(np.float32)
        labels = self._label(keys, dense, rng)
        return CriteoBatch(keys=keys, labels=labels, dense=dense)

    def batches(self, batch_size: int, num_batches: int):
        """Iterate ``num_batches`` consecutive mini-batches."""
        for index in range(num_batches):
            yield self.batch(batch_size, index)

    def _label(
        self, keys: np.ndarray, dense: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        effect = self._key_effect[keys].sum(axis=1)
        factors = np.take(self._key_factor, keys, axis=0)  # (B, F, 4)
        sum_fac = field_sum(factors)
        inter = 0.5 * ((sum_fac**2).sum(axis=1) - (factors**2).sum(axis=(1, 2)))
        logits = self._bias + effect + inter
        if self.num_dense:
            logits = logits + dense @ self._dense_effect
        probs = 1.0 / (1.0 + np.exp(-logits))
        return (rng.random(len(probs)) < probs).astype(np.float32)
