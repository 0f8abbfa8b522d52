"""Hierarchical inference parameter server (the online serving tier).

Production DLRM deployments serve recommendations from the *same*
embedding tables that training keeps mutating. NVIDIA's HPS and the
paper's 4Paradigm scenarios both converge on the same read-path shape,
reproduced here as a client-side tier over any
:class:`~repro.core.backend.ReadBackend`:

1. **Per-client hot-row cache** — a set-associative cache (optionally
   frequency-gated) of the hottest embedding rows: ``S`` sets of
   :data:`WAYS` ways, least-recently-used within each set. Under the
   paper's Table-2 power-law skew, a cache holding ~1% of keys absorbs
   the vast majority of row reads without any network or device
   traffic.
2. **Replica fan-out** — misses go to the backend, which (for a
   replicated cluster) spreads them across the primary *and* backup of
   each shard (:class:`~repro.core.serving_backend.ReplicaSelector`).
3. **Authoritative shard** — the versioned store answers with rows
   pinned to a completed checkpoint.

Why set-associative: a key may live only in the ways of its set, so a
lookup is a fixed number of array operations whatever its size — one
compare of every key against its set's tags, one gather of the hits,
one backend call for the misses and one block admission — where a fully
associative LRU needs a Python step per key to keep its order. Victims
are chosen by LRU within the set; with one set (``capacity_rows <= 8``)
that is exact LRU over the whole cache.

Consistency contract (the part a cache can silently break):

* Every row this tier returns is stamped with the **Checkpointed Batch
  ID** it was read at (``LookupResult.row_snapshots``). Rows are never
  served from a torn, mid-push state — backends only serve completed
  checkpoint barriers.
* Cached rows may be *older* than the backend's newest checkpoint, but
  never older than ``staleness_bound_k`` **completed checkpoints**
  behind it. Checkpoint ids are batch ids — not consecutive — so the
  bound is enforced against the backend's monotone
  ``checkpoints_completed`` counter: each cached row remembers the
  counter value at admission, and on every request the tier re-reads
  the counter and invalidates (lazily) any row admitted more than ``k``
  completions ago — even when several checkpoints landed between two
  lookups. ``staleness_bound_k=0`` makes every row current.
* An explicitly pinned ``lookup(keys, snapshot_id=...)`` bypasses the
  cache entirely and reads the backend at that pin.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from repro.core.admission import FrequencyAdmission
from repro.core.backend import check_backend
from repro.core.serving_backend import LookupResult
from repro.core.sharding import mix64_array
from repro.errors import ConfigError
from repro.obs import NULL_TRACER

#: Ways per set: the places a key may be cached, and the width of the
#: per-key tag compare.
WAYS = 8
#: The ``ckpt`` of a way that holds no row (the valid bit).
EMPTY = -1


@dataclass
class ServingStats:
    """One hierarchical client's serving counters."""

    requests: int = 0
    rows: int = 0
    cache_hits: int = 0
    remote_rows: int = 0
    cold_rows: int = 0
    #: Cached rows dropped for staleness, or by :meth:`HierarchicalPS.invalidate`.
    invalidated: int = 0
    #: Live cached rows displaced by an admission (conflict and capacity
    #: misses to come).
    evicted: int = 0
    refreshes: int = 0

    @property
    def hit_rate(self) -> float:
        return self.cache_hits / self.rows if self.rows else 0.0


class HierarchicalPS:
    """Hot-row cache → replica fan-out → authoritative shard.

    Args:
        backend: any :class:`~repro.core.backend.ReadBackend` — an
            in-process :class:`~repro.core.server.PSServer`, a
            :class:`~repro.network.frontend.RemotePSClient` (which adds
            the replica fan-out and the simulated wire), or a baseline.
        capacity_rows: hot-row cache size in rows; 0 is no cache (a
            lookup is the backend's at the refreshed pin, every row
            remote). It is rounded up to
            whole sets of ``min(WAYS, capacity_rows)`` ways — at most 7
            rows more — and :attr:`capacity_rows` reads the rounded size.
        staleness_bound_k: max checkpoints a served row may lag the
            backend's newest completed checkpoint. 0 = always current.
        freq_admission: admit a row into the cache only on its second
            touch, as counted by a count-min sketch (CacheEmbedding-style
            frequency gating), so one-off tail keys don't evict the hot
            set.
        registry: optional :class:`~repro.obs.MetricsRegistry`; serving
            counters are published as ``repro_serving_*`` series.
        tracer: optional :class:`~repro.obs.Tracer` for ``serving.*``
            spans on the ``serving`` track.
        slo: optional :class:`~repro.obs.SLOTracker`. The tier
            registers (get-or-create) its two intrinsic objectives —
            ``serving_availability`` (a lookup that raises is a bad
            event) and ``serving_staleness`` (the bound the cache
            enforces; violations are fed by the soak auditor) — and
            records an availability event per unpinned lookup.
    """

    def __init__(
        self,
        backend,
        capacity_rows: int = 4096,
        staleness_bound_k: int = 1,
        freq_admission: bool = False,
        registry=None,
        tracer=None,
        slo=None,
    ):
        self.backend = check_backend(backend, role="read")
        if capacity_rows < 0:
            raise ConfigError(f"capacity_rows must be >= 0, got {capacity_rows}")
        if staleness_bound_k < 0:
            raise ConfigError(
                f"staleness_bound_k must be >= 0, got {staleness_bound_k}"
            )
        ways = max(1, min(WAYS, capacity_rows))
        sets = max(1, -(-capacity_rows // ways))
        self.capacity_rows = sets * ways if capacity_rows else 0
        self.staleness_bound_k = staleness_bound_k
        self.registry = registry
        self.tracer = tracer or NULL_TRACER
        self.slo = slo
        if slo is not None:
            slo.availability("serving_availability")
            slo.staleness("serving_staleness", staleness_bound_k)
        self.stats = ServingStats()
        # Way ``w`` of set ``s`` caches row ``s * ways + w`` of ``_rows``:
        # the row's key (``_tag``, kept when the way empties), the
        # backend's checkpoints_completed at its admission (``_ckpt``;
        # EMPTY: no row), its last touch (``_stamp``; -1 when empty, so
        # empty ways are the oldest) and its Checkpointed Batch ID
        # (``_pin``). The row block is sized by the first fetch, which
        # tells the row width.
        self._tag = np.zeros((sets, ways), dtype=np.uint64)
        self._ckpt = np.full((sets, ways), EMPTY, dtype=np.int64)
        self._stamp = np.full((sets, ways), -1, dtype=np.int64)
        self._pin = np.zeros((sets, ways), dtype=np.int64)
        self._rows = np.zeros((0, 0), dtype=np.float32)
        self._tick = 0
        # Second-touch gating over a window of ~8 capacities of accesses.
        window = 8 * max(1, self.capacity_rows)
        self._admission = (
            FrequencyAdmission(threshold=1, sketch_width=window, halve_every=window)
            if freq_admission
            else None
        )
        # Staleness clock: the backend's newest completed checkpoint id
        # and its monotone checkpoints_completed counter, as of the last
        # refresh. A cached row is servable iff the counter has advanced
        # at most staleness_bound_k since the row was admitted.
        self._snapshot: int = -1
        self._ckpt_count: int = -1

    # ------------------------------------------------------------------
    # staleness clock
    # ------------------------------------------------------------------

    def refresh(self) -> int:
        """Re-read the backend's checkpoint watermark and counter.

        Advancing the counter implicitly invalidates cached rows
        admitted more than ``staleness_bound_k`` completions ago (they
        are dropped lazily on their next touch). A counter *regression*
        — the backend was rebuilt or failed over to a replica whose
        counter restarted — drops the whole cache: admission clocks are
        no longer comparable, and serving conservatively is always safe.
        Called automatically at the start of every unpinned lookup.
        """
        latest = self.backend.latest_serving_snapshot
        count = self.backend.checkpoints_completed
        if count < self._ckpt_count or latest < self._snapshot:
            self.invalidate()
        if latest > self._snapshot or self._ckpt_count < 0:
            self._note(refreshes=1)
        self._snapshot = latest
        self._ckpt_count = count
        return latest

    def invalidate(self) -> int:
        """Drop every cached row; returns how many were dropped."""
        dropped = self.cached_rows
        self._ckpt.fill(EMPTY)
        self._stamp.fill(-1)
        self._note(invalidated=dropped)
        return dropped

    # ------------------------------------------------------------------
    # the read path
    # ------------------------------------------------------------------

    def lookup(
        self, keys: Sequence[int], snapshot_id: int | None = None
    ) -> LookupResult:
        """Batched hierarchical read.

        Unpinned (``snapshot_id=None``): refresh the staleness clock,
        serve cached rows still within the bound, fetch the rest from
        the backend at the newest checkpoint, and admit the fetched
        rows.

        Pinned: bypass the cache and read the backend at exactly that
        checkpoint (used by snapshot-consistent export).
        """
        if snapshot_id is not None:
            # Pinned reads must be exact — the cache may hold rows at
            # other pins, so it cannot serve any part of the request.
            return self.backend.lookup(keys, snapshot_id)
        if self.slo is None:
            return self._lookup_unpinned(keys)
        try:
            result = self._lookup_unpinned(keys)
        except Exception:
            self.slo.record("serving_availability", bad=1)
            raise
        self.slo.record("serving_availability", good=1)
        return result

    def _lookup_unpinned(self, keys: Sequence[int]) -> LookupResult:
        keys = np.asarray(keys, dtype=np.uint64)
        n = len(keys)
        with self.tracer.span("serving.lookup", track="serving", rows=n) as span:
            current = self.refresh()
            if not self.capacity_rows:  # no cache: every row is the backend's, at the pin
                fetched = self.backend.lookup(keys, current)
                self._note(requests=1, rows=n, remote_rows=n, cold_rows=fetched.cold)
                span.set(snapshot=current, hits=0, remote=n, cold=fetched.cold)
                return replace(fetched, row_snapshots=np.full(n, current, dtype=np.int64))
            sets, ways = self._tag.shape
            # One mix per key: it picks the key's set here and its shard
            # in the backend.
            mixed = mix64_array(keys)
            home = (mixed % np.uint64(sets)).view(np.intp)
            # A key is live in one way at most, and a dropped row's tag
            # stays only in ways after it (admission fills empty ways in
            # order): its first tag match is its live way, if it has one,
            # and way 0 stands in when nothing matches.
            slot = home * ways + (self._tag.take(home, axis=0) == keys[:, None]).argmax(axis=1)
            # The admission count of each key's live row, EMPTY when it has none.
            admitted = np.where(self._tag.take(slot) == keys, self._ckpt.take(slot), EMPTY)
            fresh = admitted >= max(self._ckpt_count - self.staleness_bound_k, 0)
            stale = (admitted != EMPTY) ^ fresh
            if stale.any():  # a row past the bound is dropped: its way becomes the oldest
                self._ckpt.put(slot[stale], EMPTY)
                self._stamp.put(slot[stale], -1)
            # Touch order is request order, so within a set the ways
            # keep the recency order of a per-key LRU.
            hit = fresh.nonzero()[0]
            self._stamp.put(slot[hit], self._tick + hit)
            miss = (~fresh).nonzero()[0]
            fetched = None
            if len(miss) or not self._rows.size:  # an empty first lookup asks too
                fetched = self.backend.lookup(keys[miss], current, mixed=mixed[miss])
                if not self._rows.size:  # the row width is known
                    self._rows = np.zeros((sets * ways, fetched.weights.shape[1]), np.float32)
            weights = self._rows.take(slot, axis=0)
            row_snapshots = self._pin.take(slot)
            invalidated = evicted = cold = 0
            if fetched is not None:
                weights[miss] = fetched.weights
                row_snapshots[miss] = fetched.snapshot_id
                cold = fetched.cold
                invalidated, evicted = self._admit(keys, home, miss, stale, row_snapshots, weights)
            self._tick += 2 * n
            self._note(requests=1, rows=n, cache_hits=len(hit), remote_rows=len(miss),
                       cold_rows=cold, invalidated=invalidated, evicted=evicted)
            span.set(snapshot=current, hits=len(hit), remote=len(miss), cold=cold)
        return LookupResult(
            weights=weights,
            snapshot_id=current,
            hits=len(hit) + (fetched.hits if fetched is not None else 0),
            cold=cold,
            row_snapshots=row_snapshots,
        )

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    def _admit(self, keys, home, miss, stale, row_snapshots, weights) -> tuple[int, int]:
        """Admit the distinct missed keys of a request as one block.

        Within each set the ``ways`` most recently requested of them
        replace its oldest ways (empty ones first) and are stamped after
        every hit of the request: the rows a per-key LRU admitting them
        one by one would end with. Returns how many of them had been
        dropped as stale and how many live rows they evicted.
        """
        ways = self._tag.shape[1]
        # One stable sort of the reversed misses: by set, then key, a key's
        # last request first — so a key's first row is its one admission.
        newest = miss[::-1]
        position = newest[np.lexsort((keys[newest], home[newest]))]
        admitted = keys[position]
        first = np.ones(len(position), dtype=bool)
        np.not_equal(admitted[1:], admitted[:-1], out=first[1:])
        position, admitted = position[first], admitted[first]
        invalidated = int(np.count_nonzero(stale[position]))
        if self._admission is not None:
            allowed = self._admission.admit_many(admitted)
            position, admitted = position[allowed], admitted[allowed]
        sets = home[position]
        # A set's i-th key takes its i-th oldest way (which key takes which
        # is immaterial); a set drawing more keys than ways keeps its newest.
        rank = np.arange(len(sets)) - sets.searchsorted(sets)
        if rank.max(initial=0) >= ways:
            kept, rank = np.lexsort((-position, sets))[rank < ways], rank[rank < ways]
            position, admitted, sets = position[kept], admitted[kept], sets[kept]
        # The oldest way is the first minimum stamp, and empty ways (-1)
        # go in way order, which the lookup's tag match relies on; only
        # a set's second and later keys need the ways in order.
        stamps = self._stamp.take(sets, axis=0)
        way = stamps.argmin(axis=1)
        if len(later := rank.nonzero()[0]):
            order = np.argsort(stamps[later], axis=1, kind="stable")
            way[later] = order[np.arange(len(later)), rank[later]]
        slot = sets * ways + way
        evicted = int(np.count_nonzero(self._ckpt.take(slot) != EMPTY))
        self._tag.put(slot, admitted)
        self._ckpt.put(slot, self._ckpt_count)
        self._pin.put(slot, row_snapshots[position])
        self._stamp.put(slot, self._tick + len(keys) + position)
        self._rows[slot] = weights.take(position, axis=0)
        return invalidated, evicted

    def _note(self, **counts: int) -> None:
        """Add to :attr:`stats` and to the ``repro_serving_<field>_total``
        counters."""
        for field, value in counts.items():
            vars(self.stats)[field] += value
            if value and self.registry is not None:
                self.registry.counter(f"repro_serving_{field}_total").add(value)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    @property
    def cached_rows(self) -> int:
        return int(np.count_nonzero(self._ckpt != EMPTY))

    @property
    def latest_serving_snapshot(self) -> int:
        """Delegates to the backend (this tier adds no snapshots)."""
        return self.backend.latest_serving_snapshot

    @property
    def checkpoints_completed(self) -> int:
        """Delegates to the backend (this tier adds no checkpoints)."""
        return self.backend.checkpoints_completed

    @property
    def num_entries(self) -> int:
        return self.backend.num_entries
