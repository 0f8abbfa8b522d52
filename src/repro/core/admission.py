"""Cache admission control (extension beyond the paper).

The paper's cache admits every miss into DRAM. Under the DLRM skew
most tail keys are seen once or twice per epoch (Section III: "most of
the features appear only a few times during the whole training
process"), so admitting them evicts warmer entries and generates PMem
write-back churn for data that will not be reused.

:class:`FrequencyAdmission` is a TinyLFU-style filter: a count-min
sketch estimates each key's access frequency and a key is only promoted
to DRAM once it has been seen ``threshold`` times. ``threshold=0``
disables the filter (the paper's behaviour). The sketch halves itself
periodically so estimates track the recent window rather than all of
history.
"""

from __future__ import annotations

import numpy as np

from repro.core.sharding import mix64, mix64_array
from repro.errors import ConfigError


class CountMinSketch:
    """A count-min sketch over integer keys.

    Args:
        width: counters per row (power of two recommended).
        depth: independent hash rows.
        seed: hash seed.

    Estimates never under-count; over-counting is bounded by collisions
    (~``total_adds / width`` per row, min over rows).
    """

    def __init__(self, width: int = 4096, depth: int = 4, seed: int = 0):
        if width <= 0 or depth <= 0:
            raise ConfigError("sketch width and depth must be positive")
        self.width = width
        self.depth = depth
        self._rows = np.zeros((depth, width), dtype=np.uint32)
        self._seeds = np.array(
            [[mix64((seed << 8) | row)] for row in range(depth)], dtype=np.uint64
        )
        self.total_adds = 0

    def _cells(self, keys) -> tuple[np.ndarray, np.ndarray]:
        """``(row, column)`` of every key's counter in every row, ``[depth, n]``."""
        keys = np.asarray(keys, dtype=np.uint64)
        columns = mix64_array(keys ^ self._seeds) % np.uint64(self.width)
        return np.arange(self.depth)[:, None], columns.astype(np.intp)

    def add_many(self, keys, count: int = 1) -> None:
        """Record ``count`` occurrences of each of ``keys`` (a key listed
        twice is recorded twice)."""
        np.add.at(self._rows, self._cells(keys), count)
        self.total_adds += count * len(keys)

    def estimate_many(self, keys) -> np.ndarray:
        """Upper-biased frequency estimate of each of ``keys``."""
        return self._rows[self._cells(keys)].min(axis=0)

    def add(self, key: int, count: int = 1) -> None:
        """Record ``count`` occurrences of ``key``."""
        self.add_many([key], count)

    def estimate(self, key: int) -> int:
        """Upper-biased frequency estimate for ``key``."""
        return int(self.estimate_many([key])[0])

    def halve(self) -> None:
        """Age all counters (the TinyLFU reset), keeping recency."""
        self._rows >>= 1
        self.total_adds //= 2


class FrequencyAdmission:
    """Admit a key to the DRAM cache after ``threshold`` sightings.

    Args:
        threshold: sightings required before promotion; 1 admits on the
            second access, 0 always admits.
        sketch_width / sketch_depth: count-min sizing.
        halve_every: age the sketch after this many recorded accesses
            (keeps the estimate windowed).
    """

    def __init__(
        self,
        threshold: int = 1,
        sketch_width: int = 4096,
        sketch_depth: int = 4,
        halve_every: int = 100_000,
        seed: int = 0,
    ):
        if threshold < 0:
            raise ConfigError("threshold must be non-negative")
        if halve_every <= 0:
            raise ConfigError("halve_every must be positive")
        self.threshold = threshold
        self.halve_every = halve_every
        self.sketch = CountMinSketch(sketch_width, sketch_depth, seed)
        self.admitted = 0
        self.bypassed = 0

    def should_admit(self, key: int) -> bool:
        """Record one access of ``key``; True when it may enter DRAM."""
        return bool(self.admit_many([key])[0])

    def admit_many(self, keys) -> np.ndarray:
        """Record one access of each of ``keys``; the mask of those that
        may enter DRAM.

        Every estimate sees the whole batch's accesses, and the sketch
        halves once if they carry ``total_adds`` across a multiple of
        ``halve_every``. For one key this is :meth:`should_admit`.
        """
        if self.threshold == 0:
            self.admitted += len(keys)
            return np.ones(len(keys), dtype=bool)
        before = self.sketch.total_adds
        self.sketch.add_many(keys)
        if self.sketch.total_adds // self.halve_every > before // self.halve_every:
            self.sketch.halve()
        admit = self.sketch.estimate_many(keys) > self.threshold
        admitted = int(np.count_nonzero(admit))
        self.admitted += admitted
        self.bypassed += len(keys) - admitted
        return admit

    @property
    def bypass_rate(self) -> float:
        total = self.admitted + self.bypassed
        return self.bypassed / total if total else 0.0
