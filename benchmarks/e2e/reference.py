"""The reference kernel: a fixed piece of work timed beside the workload.

The sandbox this benchmark runs in changes speed under it, in phases of
seconds to half a minute, in wall *and* CPU time (a neighbour on the
host, not preemption). Ten runs of the same code at ten seeds spread, as
interquartile range over median, by 3-37 % in raw ``ms`` and
``samples/s`` (see README.md, "Steadiness") — wider than the widest
bound ``BENCHMARK.json`` may declare — and no estimator inside one run
can undo a run that sat wholly in a slow phase.

So a run times this kernel between the workload's operations, outside
every timed interval, and reports each block of operations twice: raw,
in ``ms`` and ``samples/s``, and relative to the kernel runs made during
that block, in ``ref`` (one ``ref`` = the time one kernel run took then).
The relative figures are the ones ``BENCHMARK.json`` gates on, under
names and a unit of their own; the raw ones are printed and stored
beside them, with the kernel's own time (``ref_ms``).

The kernel is plain Python and numpy that belongs to the benchmark —
dict and list churn, a fancy-index gather, an ``np.add.at`` — so no
change to the program under test can move it; only the machine can.
"""

from __future__ import annotations

import time

import numpy as np

INTERVAL_S = 0.02
"""A kernel run is due when this much time has passed since the last one."""


class Reference:
    """Times the kernel during a window; ``ref_s(lo, hi)`` reads a block's."""

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._dict: dict[int, int] = {}
        self._list: list[int] = []
        self._index = rng.integers(0, 50_000, 2048)
        self._matrix = rng.random((50_000, 32)).astype(np.float32)
        self._samples: list[float] = []
        self._at_op: list[int] = []
        self._last = 0.0
        self.kernel()  # first call fills the dict; not representative

    def kernel(self) -> None:
        table, scratch, total = self._dict, self._list, 0
        for i in range(3000):
            key = (i * 7919) & 4095
            value = table.get(key)
            if value is None:
                table[key] = i
            else:
                total += value
            scratch.append(total & 255)
        del scratch[:]
        rows = self._matrix[self._index]
        rows = rows * 0.5 + 1.0
        np.add.at(self._matrix, self._index[:256], rows[:256] * 0.0)

    def due(self) -> bool:
        return time.perf_counter() - self._last >= INTERVAL_S

    def sample(self, op: int) -> None:
        """Run the kernel once, before operation number ``op``."""
        start = time.perf_counter()
        self.kernel()
        self._last = time.perf_counter()
        self._samples.append(self._last - start)
        self._at_op.append(op)

    def ref_s(self, lo: int, hi: int) -> float:
        """Median kernel time of the runs made before operations ``lo..hi-1``."""
        first, last = np.searchsorted(self._at_op, [lo, hi])
        return float(np.median(self._samples[first:last]))
