"""Loader for the real Criteo click-logs format.

The Criteo Kaggle / Terabyte datasets (the paper's Section VI-F
benchmark and its bigger sibling) ship as TSV lines::

    <label> \\t <I1> ... <I13> \\t <C1> ... <C26>

with integer counters ``I*`` (possibly empty) and 32-bit hex category
ids ``C*`` (possibly empty). This loader converts them into the same
:class:`~repro.dlrm.criteo.CriteoBatch` structure the synthetic
generator produces, so a real file drops into any trainer or example:

* categorical values hash into per-field buckets of size
  ``hash_buckets`` (the standard "hashing trick"; empty -> bucket 0),
  offset into the global key space field by field;
* dense counters get the standard ``log(1 + max(x, 0))`` transform
  (empty -> 0).
"""

from __future__ import annotations

import pathlib

import numpy as np

from repro.core.sharding import mix64
from repro.dlrm.criteo import CriteoBatch
from repro.errors import ConfigError

NUM_DENSE = 13
NUM_CATEGORICAL = 26


class CriteoFileDataset:
    """Batches from a Criteo-format TSV file.

    The file is parsed once into memory (use a sliced/sampled file for
    anything big — this is a reproduction harness, not an ETL system).
    Batches are indexable like the synthetic dataset: batch ``i`` is the
    ``i``-th contiguous slice, wrapping around at the end so any batch
    index is valid (deterministic replay for recovery tests).

    Args:
        path: TSV file in Criteo format.
        hash_buckets: vocabulary size per categorical field.
    """

    def __init__(self, path: str | pathlib.Path, hash_buckets: int = 10_000):
        if hash_buckets <= 0:
            raise ConfigError("hash_buckets must be positive")
        self.hash_buckets = hash_buckets
        self.num_fields = NUM_CATEGORICAL
        self.num_dense = NUM_DENSE
        labels, dense, keys = [], [], []
        with open(path, "r", encoding="utf-8") as handle:
            for line_number, line in enumerate(handle, 1):
                line = line.rstrip("\n")
                if not line:
                    continue
                parts = line.split("\t")
                if len(parts) != 1 + NUM_DENSE + NUM_CATEGORICAL:
                    raise ConfigError(
                        f"{path}:{line_number}: expected "
                        f"{1 + NUM_DENSE + NUM_CATEGORICAL} fields, got {len(parts)}"
                    )
                labels.append(self._parse_label(parts[0], line_number))
                dense.append(
                    [self._parse_dense(v) for v in parts[1 : 1 + NUM_DENSE]]
                )
                keys.append(
                    [
                        self._hash_categorical(field, value)
                        for field, value in enumerate(parts[1 + NUM_DENSE :])
                    ]
                )
        if not labels:
            raise ConfigError(f"{path} contains no samples")
        self._labels = np.array(labels, dtype=np.float32)
        self._dense = np.array(dense, dtype=np.float32)
        self._keys = np.array(keys, dtype=np.int64)

    # ------------------------------------------------------------------
    # dataset interface (mirrors CriteoSynthetic)
    # ------------------------------------------------------------------

    @property
    def num_samples(self) -> int:
        return len(self._labels)

    @property
    def num_keys(self) -> int:
        """Total key-space size across all fields."""
        return NUM_CATEGORICAL * self.hash_buckets

    def batch(self, batch_size: int, batch_index: int) -> CriteoBatch:
        """The ``batch_index``-th batch, wrapping at the end of the file."""
        if batch_size <= 0:
            raise ConfigError(f"batch_size must be positive, got {batch_size}")
        indices = (
            np.arange(batch_size) + batch_index * batch_size
        ) % self.num_samples
        return CriteoBatch(
            keys=self._keys[indices],
            labels=self._labels[indices],
            dense=self._dense[indices],
        )

    def batches(self, batch_size: int, num_batches: int):
        for index in range(num_batches):
            yield self.batch(batch_size, index)

    # ------------------------------------------------------------------
    # parsing
    # ------------------------------------------------------------------

    @staticmethod
    def _parse_label(value: str, line_number: int) -> float:
        if value not in ("0", "1"):
            raise ConfigError(f"line {line_number}: label must be 0/1, got {value!r}")
        return float(value)

    @staticmethod
    def _parse_dense(value: str) -> float:
        if value == "":
            return 0.0
        return float(np.log1p(max(int(value), 0)))

    def _hash_categorical(self, field: int, value: str) -> int:
        offset = field * self.hash_buckets
        if value == "":
            return offset  # the per-field missing-value bucket
        bucket = mix64((field << 34) ^ int(value, 16)) % (self.hash_buckets - 1)
        return offset + 1 + bucket
