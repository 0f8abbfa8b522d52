"""Byzantine-robust gradient aggregation for the asynchronous PS.

"Failure Tolerant Training with Persistent Memory Disaggregation over
CXL" (PAPERS.md) motivates treating *worker misbehavior* — not just
node death — as a fault class the parameter server must survive
without corrupting trained state. The defense layer here follows the
``blades`` benchmark-suite shape: a pluggable :class:`GradientAggregator`
folds one gradient row per contributing worker into the single row that
actually reaches ``optimizer.apply_batch``:

``mean``
    plain averaging — fast, and the baseline a single sign-flipped
    worker demonstrably poisons (the ablation in
    ``benchmarks/bench_ablation_staleness.py``).
``trimmed_mean``
    per-coordinate: sort the rows, drop the ``f`` lowest and ``f``
    highest values, average the rest. Tolerates ``f`` Byzantine rows
    out of ``m >= 2f + 1``.
``median``
    per-coordinate median; the ``f = (m - 1) // 2`` extreme of
    trimming.
``krum``
    Krum-style selection (Blanchard et al., NeurIPS 2017): score every
    row by the summed squared distance to its ``m - f - 2`` nearest
    neighbours and keep the single lowest-scoring row — a gradient
    vouched for by a majority neighbourhood.

The :class:`AggregationBuffer` supplies the rows: each push is queued
per worker as one row per distinct key, keys ascending — a facade push
already is, and any other is summed by
:func:`~repro.core.sharding.summed_per_key`, the sum every PS applies,
so a buffered-then-folded push stays *bitwise* equal to an unbuffered
one when the fold is an identity — and a fold round fires whenever a
quorum ``q = max(1, num_workers - f)`` of workers has a contribution
pending — the ``f`` workers the defense is sized for may be straggling
or dead, and must not be able to stall folding.

A round is folded **in blocks, by multiplicity class**: the popped
contributions are concatenated in worker order, and one stable argsort
merges their ascending runs into the ascending key union with each
key's rows in worker order. Keys only one worker pushed are copied
straight through, and for every multiplicity ``c >= 2`` present the
``n_c`` keys exactly ``c`` workers pushed are gathered into one
``(n_c, c, width)`` block that :meth:`GradientAggregator.fold` reduces
in a single call. The float32 bits equal a key-by-key fold of the same
rows; ``tests/harness/reference_fold.py`` keeps that per-key loop as
the oracle the property test compares against.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from dataclasses import dataclass

import numpy as np

from repro.config import DEFAULT_DEDUP_WINDOW
from repro.core.sharding import summed_per_key
from repro.errors import ConfigError
from repro.obs.tracer import NULL_TRACER, Tracer

__all__ = [
    "AGGREGATOR_NAMES",
    "AggregationBuffer",
    "FoldedPush",
    "GradientAggregator",
    "Krum",
    "Mean",
    "Median",
    "ReplayWindow",
    "TrimmedMean",
    "default_byzantine_tolerance",
    "make_aggregator",
]

AGGREGATOR_NAMES = ("none", "mean", "trimmed_mean", "median", "krum")


def default_byzantine_tolerance(num_workers: int) -> int:
    """The largest ``f`` with an honest majority at ``n >= 3f + 2``."""
    return max(0, (num_workers - 2) // 3)


class GradientAggregator:
    """Folds ``rows`` — one gradient estimate per worker — into one row."""

    name = "abstract"

    def fold(self, rows: np.ndarray) -> np.ndarray:
        """Reduce axis -2 (the ``m >= 1`` workers) of ``rows``.

        ``rows`` is ``f32[m, width]`` — one key — and yields
        ``f32[width]``, or a block ``f32[n, m, width]`` of ``n`` keys
        with ``m`` contributions each and yields ``f32[n, width]``:
        slice ``i`` of the block result carries the bits
        ``fold(rows[i])`` would.
        """
        raise NotImplementedError


class Mean(GradientAggregator):
    """Plain averaging; the identity for ``m == 1`` (bitwise)."""

    name = "mean"

    def fold(self, rows: np.ndarray) -> np.ndarray:
        if rows.shape[-2] == 1:
            # sum/1 is an exact identity, but skip the flops anyway.
            return rows[..., 0, :]
        return np.mean(rows, axis=-2, dtype=np.float32)


class TrimmedMean(GradientAggregator):
    """Per-coordinate trimmed mean: drop ``f`` values from each end."""

    name = "trimmed_mean"

    def __init__(self, f: int = 1):
        if f < 0:
            raise ConfigError(f"trimmed_mean f must be >= 0, got {f}")
        self.f = f

    def fold(self, rows: np.ndarray) -> np.ndarray:
        m = rows.shape[-2]
        if m == 1:
            return rows[..., 0, :]
        trim = min(self.f, (m - 1) // 2)
        if trim:
            rows = np.sort(rows, axis=-2)[..., trim : m - trim, :]
        return np.mean(rows, axis=-2, dtype=np.float32)


class Median(GradientAggregator):
    """Per-coordinate median."""

    name = "median"

    def fold(self, rows: np.ndarray) -> np.ndarray:
        if rows.shape[-2] == 1:
            return rows[..., 0, :]
        return np.median(rows, axis=-2).astype(np.float32, copy=False)


class Krum(GradientAggregator):
    """Krum-style selection: keep the best-vouched single row."""

    name = "krum"

    def __init__(self, f: int = 1):
        if f < 0:
            raise ConfigError(f"krum f must be >= 0, got {f}")
        self.f = f

    def fold(self, rows: np.ndarray) -> np.ndarray:
        m = rows.shape[-2]
        if m == 1:
            return rows[..., 0, :]
        # Pairwise squared distances; each row scored by its k nearest
        # *other* rows, k = m - f - 2 clamped to [1, m - 1].
        diffs = rows[..., :, None, :] - rows[..., None, :, :]
        dist2 = np.einsum("...ijk,...ijk->...ij", diffs, diffs)
        diagonal = np.arange(m)
        dist2[..., diagonal, diagonal] = np.inf
        k = min(max(1, m - self.f - 2), m - 1)
        scores = np.sort(dist2, axis=-1)[..., :k].sum(axis=-1)
        best = np.argmin(scores, axis=-1)
        return np.take_along_axis(rows, best[..., None, None], axis=-2)[..., 0, :]


def make_aggregator(name: str, f: int = 1) -> GradientAggregator | None:
    """Instantiate an aggregator by config name (``"none"`` -> None)."""
    if name == "none":
        return None
    if name == "mean":
        return Mean()
    if name == "trimmed_mean":
        return TrimmedMean(f)
    if name == "median":
        return Median()
    if name == "krum":
        return Krum(f)
    raise ConfigError(
        f"unknown aggregator {name!r} (one of {list(AGGREGATOR_NAMES)})"
    )


class ReplayWindow(OrderedDict):
    """The last ``bound`` request identities a node took, oldest first,
    each with its reply. The RPC service replays a retried request's
    reply verbatim; a node drops a push whose ``(worker_id, seq)`` it
    holds, so a copy applies once (``seq=0`` opts out).
    """

    def __init__(self, bound: int = DEFAULT_DEDUP_WINDOW):
        super().__init__()
        self.bound = bound

    def remember(self, key, reply=True):
        """Record ``reply`` for replay, forgetting the oldest beyond the bound."""
        self[key] = reply
        while len(self) > self.bound:
            self.popitem(last=False)
        return reply


@dataclass
class _Contribution:
    """One worker's push, summed per key.

    It owns both arrays: decoded wire views may not outlive their frame,
    and a contribution waits in its queue for a quorum.
    """

    keys: np.ndarray  # u64[n], unique, ascending
    grads: np.ndarray  # f32[n, width], row i summed over keys[i]'s repeats
    batch_id: int


@dataclass
class FoldedPush:
    """One fold round's result, ready for ``cache.update``."""

    keys: np.ndarray  # u64[n]
    grads: np.ndarray  # f32[n, width]
    batch_id: int
    contributors: int = 1


@dataclass
class AggregatorStats:
    pushes_buffered: int = 0
    duplicates_dropped: int = 0
    folds: int = 0
    rows_folded: int = 0
    #: Folded rows with >= 2 contributors — the ones the robust
    #: statistic actually touched (the rest were copied through).
    rows_reduced: int = 0
    #: Deepest any one worker's queue of unfolded pushes has been.
    max_queue_depth: int = 0


class AggregationBuffer:
    """Per-worker push queues + quorum-triggered robust folding.

    Pushes are buffered per worker; whenever at least
    ``q = max(1, num_workers - f)`` workers have a contribution
    pending, one contribution is popped from *every* pending worker and
    the round is folded with the aggregator, one block per multiplicity
    class (module docstring). A push whose ``(worker_id, seq)`` is in
    the buffer's :class:`ReplayWindow` is dropped (``seq=0`` opts out),
    so duplicated pushes are absorbed identically on the local and RPC
    transports.
    """

    #: Sink of the per-round ``aggregator.fold`` span; the owning
    #: :class:`~repro.core.ps_node.PSNode` points it at its own tracer.
    tracer: Tracer = NULL_TRACER

    def __init__(
        self,
        aggregator: GradientAggregator,
        num_workers: int,
        f: int = 0,
    ):
        if num_workers < 1:
            raise ConfigError("aggregation needs num_workers >= 1")
        if f < 0 or f >= num_workers:
            raise ConfigError(
                f"byzantine tolerance f={f} must be in [0, num_workers)"
            )
        self.aggregator = aggregator
        self.quorum = max(1, num_workers - f)
        #: worker id -> its unfolded pushes; kept in worker-id order.
        self._queues: dict[int, deque[_Contribution]] = {}
        self._pending = 0  # contributions queued, over every worker
        self._pending_workers = 0  # workers whose queue is not empty
        self._replays = ReplayWindow()
        self.stats = AggregatorStats()

    @property
    def pending(self) -> int:
        return self._pending

    def add(
        self,
        worker_id: int | None,
        keys: np.ndarray,
        grads: np.ndarray,
        batch_id: int,
        seq: int = 0,
    ) -> list[FoldedPush]:
        """Buffer one push; returns every fold round it unlocked."""
        wid = 0 if worker_id is None or worker_id < 0 else int(worker_id)
        if seq:
            if (wid, seq) in self._replays:
                self.stats.duplicates_dropped += 1
                return []
            self._replays.remember((wid, int(seq)))
        keys, grads = summed_per_key(keys, np.asarray(grads, dtype=np.float32))
        queue = self._queues.get(wid)
        if queue is None:
            self._queues[wid] = queue = deque()
            self._queues = dict(sorted(self._queues.items()))
        if not queue:
            self._pending_workers += 1
        queue.append(_Contribution(keys.copy(), grads.copy(), int(batch_id)))
        self._pending += 1
        self.stats.pushes_buffered += 1
        self.stats.max_queue_depth = max(self.stats.max_queue_depth, len(queue))
        folded = []
        while self._pending_workers >= self.quorum:
            folded.append(self._fold_round())
        return folded

    def flush(self) -> list[FoldedPush]:
        """Fold everything still pending, quorum or not.

        Called on quiesce/checkpoint so a batch-consistent snapshot
        captures every buffered gradient.
        """
        folded = []
        while self._pending:
            folded.append(self._fold_round())
        return folded

    # ------------------------------------------------------------------

    def _fold_round(self) -> FoldedPush:
        with self.tracer.span("aggregator.fold") as span:
            popped = []
            for queue in self._queues.values():
                if queue:
                    popped.append(queue.popleft())
                    if not queue:
                        self._pending_workers -= 1
            self._pending -= len(popped)
            # Every contribution ascends, so the stable sort of their
            # worker-order concatenation merges sorted runs, and a key's
            # rows stay in worker order (one per contribution). A lone
            # contribution's layout is the identity: its pre-summed rows
            # go through unchanged, so the single-worker path stays
            # bitwise-equal to no buffering.
            rows = np.concatenate([c.grads for c in popped])
            every = np.concatenate([c.keys for c in popped])
            order = np.argsort(every, kind="stable")
            ordered = every[order]
            head = np.empty(len(order), dtype=bool)
            head[:1] = True
            np.not_equal(ordered[1:], ordered[:-1], out=head[1:])
            starts = np.flatnonzero(head)
            keys = ordered[starts]
            counts = np.diff(starts, append=len(order))
            grads = rows[order[starts]]  # one-contributor keys are done
            shared = counts > 1
            reduced = int(shared.sum())
            for c in np.unique(counts[shared]).tolist():
                at = np.flatnonzero(counts == c)
                block = rows[order[starts[at, None] + np.arange(c)]]
                grads[at] = self.aggregator.fold(block)
            self.stats.folds += 1
            self.stats.rows_folded += len(keys)
            self.stats.rows_reduced += reduced
            span.set(rows=len(keys), contributors=len(popped), reduced=reduced)
            return FoldedPush(
                keys=keys,
                grads=grads,
                batch_id=max(c.batch_id for c in popped),
                contributors=len(popped),
            )
