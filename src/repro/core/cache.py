"""The pipelined DRAM cache with co-designed checkpointing.

This module is the paper's core: Algorithm 1 (*Pull Weights*) and
Algorithm 2 (*Cache Replacement & Checkpoint*), plus the update path.

The functional contract (independent of timing):

* ``pull(keys, n)`` serves weights from DRAM or PMem and enqueues the
  accessed entries on the access queue — it never reorders the cache or
  moves data between tiers (that is deferred, the "pipeline").
* ``maintain(n)`` is one cache-maintainer round for batch ``n``: flush
  entries whose version is covered by an outstanding checkpoint, advance
  versions, reorder, load missed entries into DRAM and evict victims —
  completing the on-going checkpoint when the victim's version has moved
  past it (Algorithm 2 lines 22-28).
* ``update(keys, grads, n)`` applies pushed gradients via the PS-side
  optimizer.

Whether the *time* of ``maintain`` overlaps GPU compute is decided by
the performance model (``CacheConfig.pipelined``); the functional
behaviour — and therefore the trained weights — is identical either
way, which tests assert.

The cache supports a **metadata-only mode** (``initializer=None``) where
entries carry no weight arrays: all bookkeeping, versioning, eviction
and checkpoint logic runs identically, but pulls return None. The
performance benchmarks run in this mode to simulate billions-scale
models cheaply.

**Everything is a column.** An entry is a *slot*: one position of the
:class:`~repro.core.entry.EntryColumns` the hash index owns (``key``,
tagged ``handle``, ``version``, ``updated``, ``dirty``, ``referenced``,
arena ``row``, order ``stamp``), and its DRAM-resident payload is one row
of a contiguous :class:`~repro.core.arena.EmbeddingArena` (``weights ||
optimizer state``). ``pull`` is one vectorised index lookup, a tag-bit
mask, and one fancy-index gather; ``update`` one lookup, column writes,
a segment-sum and one ``apply_batch``. The positions that are not
resident (a key to create, a PMem row to read or read-modify-write) are
resolved as blocks; an all-hit batch is the case where there are none.

**Replacement is a stamp.** A listed (evictable) slot carries a stamp
from one monotone clock; the list the policy evicts from is the listed
slots in stamp order, oldest first. A policy is two rules
(:class:`_Rule`): does touching a listed entry restamp it (LRU yes,
FIFO / CLOCK no), and does a referenced victim candidate get a second
chance (CLOCK). ``cached_keys()`` is an ``argsort`` of the stamps.

``maintain`` is **plan-then-move** with one body. Array operations
decide everything a guaranteed hit does — flush-before-advance under a
pending checkpoint, version advance, restamp. What is left are *events*:
arrivals (an accessed slot that is not listed: created, PMem-resident,
or evicted earlier in the round) and the evictions they force. One loop
walks the arrivals in access order; each one past the free capacity
takes the next victim candidate (listed slots oldest stamp first) the
policy does not protect at that position, an evicted candidate that is
accessed later re-enters as an arrival, and checkpoint completion,
backfill and admission run per event. A round longer than the capacity
is cut into segments of at most ``capacity_entries`` accesses so that
the slots touched inside one segment can never all be needed as victims
(see :class:`_Events`). The rows then move in bulk:
gather the leaving rows from the arena, one ``store.put``, one
``store.read_latest``, one arena scatter; every planned flush is durable
before ``complete_head()`` persists the Checkpointed Batch ID.
``tests/harness/reference_cache.py`` holds the per-key, object-per-entry
oracle the equivalence suites compare this module against.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Callable, Iterator, NamedTuple, Sequence

import numpy as np

from repro.config import CacheConfig, EvictionPolicy
from repro.core.admission import FrequencyAdmission
from repro.core.arena import EmbeddingArena
from repro.core.checkpoint import CheckpointCoordinator
from repro.core.entry import EntryView, Location
from repro.core.hash_index import HashIndex
from repro.core.optimizers import PSOptimizer, PSSGD, coerce_f32
from repro.core.queues import AccessQueue
from repro.errors import KeyNotFoundError, ServerError
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.pmem.space import VersionedEntryStore
from repro.simulation.metrics import Metrics


@dataclass(frozen=True)
class PullResult:
    """Outcome of one pull request (Algorithm 1)."""

    weights: np.ndarray | None
    hits: int
    misses: int
    created: int

    @property
    def accesses(self) -> int:
        return self.hits + self.misses + self.created


@dataclass(frozen=True)
class MaintainResult:
    """Outcome of one maintenance round (Algorithm 2)."""

    processed: int
    loads: int
    flushes: int
    evictions: int
    checkpoints_completed: int


class _Rule(NamedTuple):
    """A replacement policy, as the two questions the planner asks it."""

    touch_restamps: bool  # does touching a listed entry make it the newest?
    second_chance: bool  # is a referenced candidate requeued, not evicted?


_RULES = {
    EvictionPolicy.LRU: _Rule(touch_restamps=True, second_chance=False),
    EvictionPolicy.FIFO: _Rule(touch_restamps=False, second_chance=False),
    # CLOCK keeps FIFO's insertion order; a re-accessed entry is marked
    # referenced and spared once. Fresh insertions start unreferenced
    # (standard CLOCK), so one-hit scan keys leave before warm entries.
    EvictionPolicy.CLOCK: _Rule(touch_restamps=False, second_chance=True),
}

_NEVER = 2**63 - 1
"""First-touch position of a slot the segment never accesses."""


def _round() -> SimpleNamespace:
    """What one maintenance round plans: the rows to move, the counts.

    ``out`` holds the planned flushes in plan order, as (keys, versions
    to store them under, arena rows holding them — negative when the row
    arrived this very round and never reached the arena); ``loads`` the
    slots to load, in order; ``freed`` the arena rows given up.
    """
    return SimpleNamespace(
        out=[], loads=[], freed=[], flushes=0, evictions=0, completed=0,
        transient=0, candidates=0, segments=0,
    )


class PipelinedCache:
    """DRAM cache over a versioned PMem store (Figures 4 and 5).

    Args:
        config: capacity / policy / pipelining flags.
        store: the PMem-side versioned entry store.
        coordinator: checkpoint request/completion tracking.
        dim: embedding dimension.
        initializer: ``key -> float32[dim]`` for new entries; None puts
            the cache in metadata-only mode.
        optimizer: PS-side update rule (default plain SGD).
        metrics: statistics sink (a fresh one is created if omitted).
        tracer: span/event sink — maintenance rounds become
            ``cache.maintain`` spans, every bulk move to or from PMem
            one ``pmem.store`` / ``pmem.load`` instant carrying
            ``rows=`` and ``bytes=``, and opportunistic checkpoint
            completion emits ``checkpoint.completed``.
    """

    def __init__(
        self,
        config: CacheConfig,
        store: VersionedEntryStore,
        coordinator: CheckpointCoordinator,
        dim: int,
        initializer: Callable[[int], np.ndarray] | None = None,
        optimizer: PSOptimizer | None = None,
        metrics: Metrics | None = None,
        auto_create: bool = True,
        tracer: Tracer | None = None,
    ):
        self.config = config
        self.store = store
        self.coordinator = coordinator
        self.dim = dim
        self.initializer = initializer
        self.optimizer = optimizer or PSSGD()
        self.metrics = metrics or Metrics()
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.auto_create = auto_create
        self.index = HashIndex()
        self.access_queue = AccessQueue()
        self.state_width = self.optimizer.state_width(dim)
        # Bytes one entry occupies: weights + optimizer state.
        stored_bytes = max(1, dim + self.state_width) * 4
        self.capacity_entries = config.capacity_entries(stored_bytes)
        threshold = config.admission_threshold
        self.admission = FrequencyAdmission(threshold) if threshold > 0 else None
        # The payload store; metadata-only mode has no payloads at all.
        self.arena = None if initializer is None else EmbeddingArena(dim, self.state_width)
        self._rule = _RULES[config.policy]
        self._clock = 0  # next order stamp
        self._listed = 0  # slots carrying a stamp
        # Scratch column, _NEVER outside a call: first position of each
        # slot in the batch at hand.
        self._first = np.full(256, _NEVER, dtype=np.int64)

    # ------------------------------------------------------------------
    # Algorithm 1: pull
    # ------------------------------------------------------------------

    def pull(self, keys: Sequence[int], batch_id: int) -> PullResult:
        """Serve a pull request for ``keys`` at batch ``batch_id``.

        Weights are copied out of DRAM or PMem as found; accessed
        entries are appended to the access queue for the maintainer
        (Algorithm 1 line 17). New keys are initialised in DRAM
        (lines 6-12).

        Raises:
            KeyNotFoundError: unseen key with ``auto_create`` disabled.
        """
        keys = np.asarray(keys, dtype=np.uint64)
        n = len(keys)
        slots = self.index.lookup(keys)
        created = 0
        if n and slots.min() < 0:
            created = self._create(keys, slots, batch_id)
        columns = self.index.columns
        cold = np.flatnonzero(columns.handle[slots] & 1)
        misses = len(cold)
        out = None
        if self.arena is not None:
            # A PMem-resident entry's row is -1: the gather reads some
            # valid row for it, and its stored weights overwrite that.
            out = self.arena.data[columns.row[slots], : self.dim]
            if misses:
                out[cold] = self.store.read_latest(keys[cold])[1][:, : self.dim]
        hits = n - misses - created
        self.access_queue.append(batch_id, slots)
        self.metrics.pulls += n
        self.metrics.cache.hits += hits
        self.metrics.cache.misses += misses
        self.metrics.entries_created += created
        return PullResult(weights=out, hits=hits, misses=misses, created=created)

    def _create(self, keys: np.ndarray, slots: np.ndarray, batch_id: int) -> int:
        """Create the keys of a pull the index does not hold (``slots``
        < 0), in first-occurrence order, into fresh arena rows; fills
        their positions of ``slots`` in. A repeat of a new key later in
        the same pull is then a hit. Returns the number created."""
        absent = np.flatnonzero(slots < 0)
        if not self.auto_create:
            raise KeyNotFoundError(int(keys[absent[0]]))
        new_keys = keys[absent]
        new_keys = new_keys[np.sort(np.unique(new_keys, return_index=True)[1])]
        block = None
        if self.arena is not None:
            block = np.empty((len(new_keys), self.dim), dtype=np.float32)
            for i, key in enumerate(new_keys.tolist()):
                weights = np.asarray(self.initializer(key), dtype=np.float32)
                if weights.shape != (self.dim,):
                    raise ServerError(
                        f"initializer returned shape {weights.shape}, want ({self.dim},)"
                    )
                block[i] = weights
        new_slots = self.index.insert_many(new_keys, Location.DRAM)
        columns = self.index.columns
        columns.version[new_slots] = columns.updated[new_slots] = batch_id
        columns.dirty[new_slots] = True
        if block is not None:
            rows = columns.row[new_slots] = self.arena.alloc_many(len(new_keys))
            self.arena.data[rows, : self.dim] = block
            if self.state_width:
                self.arena.data[rows, self.dim :] = self.optimizer.init_state(self.dim)
        slots[absent] = self.index.lookup(keys[absent])
        return len(new_keys)

    # ------------------------------------------------------------------
    # Algorithm 2: deferred cache maintenance + checkpointing
    # ------------------------------------------------------------------

    def maintain(self, batch_id: int) -> MaintainResult:
        """Run the cache-maintainer round for batch ``batch_id``.

        Must be called after all pulls of the batch completed and before
        the batch's updates are applied — the write lock in Algorithm 2
        enforces exactly this ordering in the real system.

        The round is a left fold over its accesses, so it is planned in
        consecutive segments. One segment suffices unless an eviction is
        possible; then a segment holds at most ``capacity_entries``
        accesses, which is what :class:`_Events` needs. A round at or
        below a pending checkpoint's batch id (a checkpoint of a batch
        not trained yet) would flush a row again on every repeated touch:
        its segments are single accesses.
        """
        with self.tracer.span("cache.maintain", batch=batch_id) as span:
            accessed = self.access_queue.pop_batch(batch_id)
            plan, n = _round(), len(accessed)
            # Local view of the request queue: planned completions pop
            # its head, and the flush barrier (its tail) changes only then.
            pending = self.coordinator.queue.pending()
            columns = self.index.columns
            unlisted = accessed[columns.stamp[accessed] < 0]
            room = self.capacity_entries - self._listed
            step = max(n, 1)
            if pending and batch_id <= pending[-1]:
                step = 1
            elif len(unlisted) > room and len(np.unique(unlisted)) > room:
                step = self.capacity_entries
            for lo in range(0, n, step):
                self._plan_segment(accessed[lo : lo + step], batch_id, pending, plan)
                plan.segments += 1
            result = self._move(plan, n)
            span.set(
                processed=n, loads=result.loads, flushes=result.flushes,
                evictions=result.evictions, candidates=plan.candidates,
                segments=plan.segments,
            )
            return result

    def _plan_segment(
        self, accessed: np.ndarray, batch_id: int, pending: list[int], plan: SimpleNamespace
    ) -> None:
        """Algorithm 2 for the accesses ``accessed`` (slots, in order), on
        metadata alone: decide, move nothing.

        Array operations apply what a hit — an access to a listed slot —
        does: flush before the version advances if a pending checkpoint
        still needs the current one (Alg. 2 lines 13-15), stamp the batch
        id, touch. That flush test is independent of position: a listed
        row with ``version <= B`` keeps checkpoint ``B`` from completing,
        so ``B`` is still the barrier when the row is reached (a created
        row not listed yet does not; the walk strikes it if every
        checkpoint completes before its touch). Accesses
        to slots that are not listed, and a list already over capacity,
        are events and go through :class:`_Events` first (it reads the
        columns as the segment found them, and its results overwrite the
        defaults written here).
        """
        columns, rule = self.index.columns, self._rule
        listed = columns.stamp[accessed] >= 0
        hits = accessed if listed.all() else accessed[listed]
        due = hits[:0]
        if pending:
            resident = accessed[(columns.handle[accessed] & 1) == 0]
            due = np.unique(resident[columns.version[resident] <= pending[-1]])
        events = None
        if len(hits) < len(accessed) or self._listed > self.capacity_entries:
            first = self._first_touch(accessed)
            arrivals = np.flatnonzero(~listed & (first == np.arange(len(accessed))))
            try:
                events = _Events(self, accessed, due, batch_id, pending, plan)
                events.walk(arrivals)
            finally:
                self._first[accessed] = _NEVER
            if len(due):  # less the slots evicted before that touch
                due = due[[slot in events.flush_due for slot in due.tolist()]]
        if len(due):
            # Ahead of the events' flushes: a slot's touch precedes any
            # eviction that does not cancel it.
            plan.out.append((columns.key[due], columns.version[due], columns.row[due]))
            columns.dirty[due] = False
            plan.flushes += len(due)
        if events is not None and events.flushes:
            plan.out.append(tuple(zip(*events.flushes)))
        columns.version[accessed] = batch_id
        if rule.second_chance:
            columns.referenced[hits] = True
        self._stamp(accessed if rule.touch_restamps else events.inserted if events else ())
        if events is not None:
            events.write_back()

    def _candidates(self, chunk: int) -> Iterator[tuple]:
        """Listed slots, oldest stamp first, each as ``(slot, first touch
        in the segment being planned, version, dirty, row, key, updated,
        referenced)`` — fetched ``chunk`` at a time (then twice that, …),
        so a round pays for the candidates it examines, not for sorting
        the cache."""
        columns = self.index.columns
        after = -1
        while True:
            slots = np.flatnonzero(columns.stamp > after)
            if not len(slots):
                return
            stamps = columns.stamp[slots]
            if len(slots) > chunk:
                oldest = np.argpartition(stamps, chunk - 1)[:chunk]
                slots, stamps = slots[oldest], stamps[oldest]
            slots = slots[np.argsort(stamps)]
            after = int(columns.stamp[slots[-1]])
            yield from self._describe(slots)
            chunk *= 2

    def _describe(self, slots: np.ndarray) -> Iterator[tuple]:
        columns = self.index.columns
        fields = (self._first, columns.version, columns.dirty, columns.row,
                  columns.key, columns.updated, columns.referenced)
        return zip(slots.tolist(), *(field[slots].tolist() for field in fields))

    def _move(self, plan: SimpleNamespace, processed: int) -> MaintainResult:
        """Move the rows a round planned, in blocks.

        The plan left list order, versions, dirty bits and counters
        exactly as if each row had moved the moment it was planned. A
        row's bytes cannot change inside a round (no update runs), which
        is what lets the moves be reordered:

        1. gather the rows that leave from the arena, ``store.put``;
        2. ``store.read_latest`` the rows that arrive (after the put,
           so a key evicted and re-loaded in the round reads what it
           just wrote);
        3. ``store.put`` the rare flushes of rows that arrived in this
           very round (loaded and evicted again: their bytes are in the
           block just read, never in the arena);
        4. only now ``complete_head()`` for every completion the plan
           reached — no flush a checkpoint depends on is still pending;
        5. scatter the arrived rows into freshly allocated arena rows.
        """
        columns, value_mode = self.index.columns, self.arena is not None
        loads = np.asarray(plan.loads, dtype=np.int64)
        load_keys = columns.key[loads]
        late = None
        if plan.out:
            keys, versions, rows = (
                np.concatenate([np.asarray(part[i], dtype=dtype) for part in plan.out])
                for i, dtype in enumerate((np.uint64, np.int64, np.int64))
            )
            if value_mode and rows.min() < 0:
                late = rows < 0
                late_keys, late_versions = keys[late], versions[late]
                keys, versions, rows = keys[~late], versions[~late], rows[~late]
            if len(keys):
                self._store_rows(keys, versions, self._gather(rows))
        block = None
        if len(loads):
            block = self.store.read_latest(load_keys)[1]
            self._moved("pmem.load", len(loads))
        if late is not None or plan.transient:
            # key -> index of its last load (any of its loads read the
            # same bytes; the last one is the one that may land).
            loaded_at = {key: i for i, key in enumerate(load_keys.tolist())}
        if late is not None:
            at = [loaded_at[key] for key in late_keys.tolist()]
            self._store_rows(late_keys, late_versions, block[at])
        for __ in range(plan.completed):
            head = self.coordinator.complete_head()
            self.metrics.checkpoints_completed += 1
            self.tracer.instant("checkpoint.completed", track="checkpoint", batch=head)
        if value_mode:
            self.arena.free_many(np.asarray(plan.freed, dtype=np.int64))
            if plan.transient:
                # Some row arrived and left again inside the round: only
                # an entry's last load, and only if it stayed, lands.
                stayed = (columns.handle[loads] & 1) == 0
                last = [
                    i
                    for i, key in enumerate(load_keys.tolist())
                    if stayed[i] and loaded_at[key] == i
                ]
                loads, block = loads[last], block[last]
            if len(loads):
                rows = columns.row[loads] = self.arena.alloc_many(len(loads))
                self.arena.data[rows] = block
        self.metrics.pmem_load_entries += len(plan.loads)
        self.metrics.cache.loads += len(plan.loads)
        self.metrics.pmem_flush_entries += plan.flushes
        self.metrics.cache.flushes += plan.flushes
        self.metrics.cache.evictions += plan.evictions
        return MaintainResult(
            processed, len(plan.loads), plan.flushes, plan.evictions, plan.completed
        )

    # ------------------------------------------------------------------
    # update (push) path
    # ------------------------------------------------------------------

    def update(self, keys: Sequence[int], grads: np.ndarray | None, batch_id: int) -> int:
        """Apply pushed gradients for batch ``batch_id``.

        Duplicate keys within one push have their gradients summed
        before a single optimizer application — standard sparse-gradient
        aggregation. Returns the number of distinct entries updated;
        ``metrics.updates`` counts the same distinct entries (duplicate
        keys in one push are one update, not several).

        Gradients are coerced to float32 here, at the aggregation
        boundary, so a float64 gradient cannot change the arithmetic
        (and the trained bits) relative to the float32 path. Decoded
        wire gradients may be read-only views; this path never mutates
        them (aggregation copies).

        Raises:
            KeyNotFoundError: a key that was never pulled.
            ServerError: gradient shape mismatch.
        """
        n = len(keys)
        if self.arena is not None:
            if grads is None:
                raise ServerError("value-mode cache requires gradients on update")
            grads = np.asarray(grads)
            if grads.shape != (n, self.dim):
                raise ServerError(f"gradient shape {grads.shape} != ({n}, {self.dim})")
            grads = coerce_f32(grads)
        if n == 0:
            return 0
        keys = np.asarray(keys, dtype=np.uint64)
        every = self.index.lookup(keys)
        if every.min() < 0:
            raise KeyNotFoundError(int(keys[every < 0][0]))
        # Distinct slots in first-occurrence order (the order a push
        # ahead of its rows touches them in).
        first = self._first_touch(every)
        self._first[every] = _NEVER
        first_idx = np.flatnonzero(first == np.arange(n))
        slots = every[first_idx]
        columns = self.index.columns
        # Not expected in the normal pull -> maintain -> update order
        # (maintenance loads every accessed entry) but reachable behind
        # the admission filter or a lookahead: a PMem-resident key is
        # updated by read-modify-write through the store, which retains
        # checkpoint-protected versions.
        cold = np.flatnonzero(columns.handle[slots] & 1)
        columns.dirty[slots] = True
        columns.updated[slots] = np.maximum(columns.updated[slots], batch_id)
        behind = batch_id > columns.version[slots]
        if behind.any():
            # No maintenance round advanced these entries to
            # ``batch_id``. That is the normal case in async training —
            # a delayed push carries the scheduler step it is applied
            # in, ahead of the last round that maintained its rows —
            # and the lookahead case, where the pull was served from a
            # prefetch buffer. Apply maintain's flush-before-advance
            # rule here instead: persist the pre-update state if a
            # pending checkpoint still needs it, then advance the
            # version and touch, so stamp order keeps its version order
            # under LRU (the one-comparison checkpoint-completion test
            # depends on it). A cold key's version stays behind.
            behind[cold] = False
            advancing = slots[behind]
            flushed = advancing[:0]
            flush_barrier = self.coordinator.max_pending()
            if flush_barrier is not None:
                flushed = advancing[columns.version[advancing] <= flush_barrier]
                self._flush_slots(flushed, backfill=False)
            columns.version[advancing] = batch_id
            fresh = advancing[columns.stamp[advancing] < 0]
            self._listed += len(fresh)
            if self._rule.second_chance:
                columns.referenced[advancing] = True
                columns.referenced[fresh] = False
            self._stamp(advancing if self._rule.touch_restamps else fresh)
            columns.dirty[flushed] = True  # the flush cleared it; final state is dirty
        block = None
        if self.arena is not None:
            # Segment-sum: the first occurrence of each key seeds its
            # row (a copy — decoded wire gradients may be read-only),
            # later duplicates accumulate in occurrence order — per
            # element of the flattened block, where ``add.at`` is fast.
            agg = grads[first_idx]
            if n != len(slots):
                at = np.empty(n, dtype=np.int64)
                at[first_idx] = np.arange(0, len(slots) * self.dim, self.dim)
                dup = first != np.arange(n)
                flat = at[first[dup]][:, None] + np.arange(self.dim)
                np.add.at(agg.reshape(-1), flat.reshape(-1), grads[dup].reshape(-1))
            rows = columns.row[slots]
            block = self.arena.data[rows]
            if len(cold):
                block[cold] = self.store.read_latest(columns.key[slots[cold]])[1]
            self.optimizer.apply_batch(
                block[:, : self.dim],
                block[:, self.dim :] if self.state_width else None,
                agg,
            )
            resident = rows >= 0 if len(cold) else slice(None)
            self.arena.data[rows[resident]] = block[resident]
        if len(cold):
            self.store.put(
                columns.key[slots[cold]], batch_id, None if block is None else block[cold]
            )
            columns.dirty[slots[cold]] = False  # the store holds this state
            self.metrics.pmem_flush_entries += len(cold)
        self.metrics.updates += len(slots)
        return len(slots)

    # ------------------------------------------------------------------
    # barriers / draining
    # ------------------------------------------------------------------

    def flush_all(self) -> int:
        """Durably flush every cached entry at its current version.

        Used at training barriers (epoch end, clean shutdown). Returns
        the number of entries flushed.
        """
        with self.tracer.span("cache.flush_all") as span:
            cached = np.flatnonzero(self.index.columns.stamp >= 0)
            self._flush_slots(cached, backfill=True)
            span.set(flushed=len(cached))
            return len(cached)

    def complete_pending_checkpoints(self) -> list[int]:
        """Flush the cache and complete every queued checkpoint.

        The paper's system completes checkpoints opportunistically via
        evictions; at a barrier (or in tests) we force completion: after
        ``flush_all`` every pending snapshot is durable, so all queued
        requests can finish.
        """
        if self.coordinator.head() is not None:
            self.flush_all()
        return self.coordinator.complete_all_pending()

    def drop_cache(self) -> int:
        """Flush and evict everything (leaves an empty, consistent cache)."""
        columns = self.index.columns
        cached = np.flatnonzero(columns.stamp >= 0)
        self._flush_slots(cached, backfill=True)
        columns.stamp[cached] = -1
        columns.handle[cached] |= 1
        self._release(cached)
        self._listed = 0
        return len(cached)

    def adopt(self, key: int, version: int) -> None:
        """:meth:`adopt_many` for one key."""
        self.adopt_many([key], [version])

    def adopt_many(self, keys: Sequence[int], versions: Sequence[int]) -> None:
        """Register ``keys`` as existing and PMem-resident at ``versions``.

        For keys whose durable rows reached the store from outside the
        training path (a migration transfer, a recovery scan, a restored
        checkpoint): the first pull is a miss and maintenance loads it.

        Raises:
            ServerError: a key is already indexed (or repeated).
        """
        keys = np.asarray(keys, dtype=np.uint64)
        known = self.index.lookup(keys) >= 0
        if known.any() or len(np.unique(keys)) != len(keys):
            raise ServerError(f"keys {keys[known].tolist()} already indexed, or one repeats")
        slots = self.index.insert_many(keys, Location.PMEM)
        columns = self.index.columns
        columns.version[slots] = columns.updated[slots] = versions

    def drop_entry(self, entry: EntryView) -> None:
        """Remove ``entry`` from every cache structure (ownership drop).

        Used when a key leaves the node entirely (shard migration): the
        stamp, arena row, index cell and slot all go at once, so a batch
        probe can never resolve a departed key — and the slot is scrubbed
        from the access queue, so a pull still waiting for its
        maintenance round cannot resurrect it (or touch whichever key
        the recycled slot belongs to by then). The caller drops the
        durable versions from the store.
        """
        slot = np.array([entry.slot], dtype=np.int64)
        self._listed -= int(self.index.columns.stamp[entry.slot] >= 0)
        self._release(slot)
        self.access_queue.discard(slot)
        self.index.remove(entry.key)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    @property
    def cached_entries(self) -> int:
        return self._listed

    def cached_keys(self) -> list[int]:
        """Keys currently DRAM-resident, MRU first."""
        columns = self.index.columns
        listed = np.flatnonzero(columns.stamp >= 0)
        return columns.key[listed[np.argsort(-columns.stamp[listed])]].tolist()

    def read_current_state(self, key: int) -> np.ndarray | None:
        """The live packed ``weights || optimizer state`` of ``key``
        regardless of tier, as a copy (None in metadata-only mode).

        Raises:
            KeyNotFoundError: unknown key.
        """
        entry = self.index.find(key)
        if entry is None:
            raise KeyNotFoundError(key)
        if not entry.in_dram:
            rows = self.store.read_latest([key])[1]
            return None if rows is None else rows[0]
        return None if self.arena is None else self.arena.data[entry.row].copy()

    def read_current_weights(self, key: int) -> np.ndarray:
        """The live weights of ``key`` regardless of tier (testing aid).

        Raises:
            KeyNotFoundError: unknown key.
        """
        return self.read_current_state(key)[: self.dim]

    def state_snapshot(self) -> dict[int, np.ndarray]:
        """Copy of every key's live weights, any tier: one arena gather
        plus one store read of the PMem-resident keys."""
        columns = self.index.columns
        slots = columns.live()
        keys = columns.key[slots]
        weights = self.arena.data[columns.row[slots], : self.dim]
        cold = np.flatnonzero(columns.handle[slots] & 1)
        if len(cold):
            weights[cold] = self.store.read_latest(keys[cold])[1][:, : self.dim]
        return dict(zip(keys.tolist(), weights))

    def validate(self) -> None:
        """Check cross-structure invariants; used by tests."""
        self.index.validate()
        columns = self.index.columns
        live = columns.live()
        cold = (columns.handle[live] & 1) != 0
        dram, listed = live[~cold], np.flatnonzero(columns.stamp >= 0)
        ordered = listed[np.argsort(columns.stamp[listed])]
        stamps, versions = columns.stamp[ordered], columns.version[ordered]
        rows = np.unique(columns.row[dram])
        problems = {
            "a listed entry is marked PMEM": np.any(columns.handle[listed] & 1),
            f"{len(dram)} DRAM entries but {len(listed)} listed in LRU":
                len(dram) != len(listed) or len(listed) != self._listed,
            "order stamps repeat or run ahead of the clock":
                np.any(stamps[1:] == stamps[:-1]) or np.any(stamps >= self._clock),
            "version inversion: stamp order is not version order":
                self._rule.touch_restamps and np.any(versions[1:] < versions[:-1]),
            "scratch column left dirty": np.any(self._first != _NEVER),
            "a PMem-resident entry holds an arena row":
                np.any(columns.row[live[cold]] >= 0),
            f"{len(dram)} DRAM entries hold {len(rows)} distinct arena rows":
                self.arena is not None
                and not (len(rows) == len(dram) == len(self.arena) and -1 not in rows),
        }
        for problem in (problem for problem, found in problems.items() if found):
            raise ServerError(problem)

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    def _first_touch(self, slots: np.ndarray) -> np.ndarray:
        """For each position of ``slots``, the first position holding the
        same slot. Leaves those positions in the ``_first`` scratch
        column (by slot); the caller resets them to ``_NEVER``."""
        if len(self._first) < len(self.index.columns.handle):
            self._first = np.full(len(self.index.columns.handle), _NEVER, np.int64)
        np.minimum.at(self._first, slots, np.arange(len(slots)))
        return self._first[slots]

    def _stamp(self, slots) -> None:
        """Make ``slots`` the newest of the list, in order. A slot that
        repeats ends where its last occurrence puts it (``a[i] = v`` with
        repeated ``i`` is unspecified in numpy; the maximum is not)."""
        if len(slots):
            stamps = np.arange(self._clock, self._clock + len(slots))
            np.maximum.at(self.index.columns.stamp, slots, stamps)
            self._clock += len(slots)

    def _gather(self, rows: np.ndarray) -> np.ndarray | None:
        """Copy of arena rows ``rows`` (None in metadata-only mode)."""
        return None if self.arena is None else self.arena.data[rows]

    def _store_rows(self, keys, versions, block: np.ndarray | None) -> None:
        """One bulk move DRAM -> PMem: ``block[i]`` becomes version
        ``versions[i]`` of ``keys[i]``."""
        self.store.put(keys, versions, block)
        self._moved("pmem.store", len(keys))

    def _moved(self, event: str, rows: int) -> None:
        self.tracer.instant(
            event, track="pmem", rows=rows, bytes=rows * self.store.entry_bytes
        )

    def _flush_slots(self, slots: np.ndarray, backfill: bool) -> None:
        """Persist resident ``slots`` at their current versions, as one
        put; ``backfill`` adds the row a pending checkpoint still lacks
        (see :func:`_backfill`)."""
        if not len(slots):
            return
        columns = self.index.columns
        keys, versions, rows = columns.key[slots], columns.version[slots], columns.row[slots]
        pending = self.coordinator.queue.pending() if backfill else ()
        if pending:
            behind, at = _backfill(versions, columns.updated[slots], pending)
            keys = np.concatenate([keys, keys[behind]])
            versions = np.concatenate([versions, at[behind]])
            rows = np.concatenate([rows, rows[behind]])
        self._store_rows(keys, versions, self._gather(rows))
        columns.dirty[slots] = False
        self.metrics.pmem_flush_entries += len(slots)
        self.metrics.cache.flushes += len(slots)

    def _release(self, slots: np.ndarray) -> None:
        """Free the arena rows of ``slots``."""
        columns = self.index.columns
        rows = columns.row[slots]
        if self.arena is not None:
            self.arena.free_many(rows[rows >= 0])
        columns.row[slots] = -1


class _Events:
    """The part of a segment that is not a hit: arrivals and evictions.

    Arrivals are the first positions of the accessed slots that are not
    listed. Walking them in order (merged with a heap of positions that
    become arrivals on the way: a later access of a slot evicted here, or
    of a PMem-resident slot the admission filter turned away), each one
    loads or adopts its slot and lists it; whenever the list is over
    capacity the next victim candidate — listed slots, oldest stamp
    first — is examined, and the policy either protects it at this
    position (LRU: it was touched earlier in the segment and is no longer
    old; CLOCK: it is referenced — clear the bit and requeue it as the
    newest) or it is evicted.

    A segment is at most ``capacity_entries`` accesses long, so when the
    list is over capacity the slots touched so far cannot fill it: an
    untouched slot listed before the segment is always left, and under
    LRU and FIFO it is older than everything the segment listed. Only
    CLOCK, which requeues, can walk past them into this segment's own
    insertions (``requeue``).

    The walk reads the columns as the segment found them and writes none;
    :meth:`write_back` applies what it decided.
    """

    def __init__(self, cache, accessed, due, batch_id, pending, plan):
        self.cache, self.accessed, self.batch_id = cache, accessed, batch_id
        self.pending, self.plan = pending, plan
        self.size = cache._listed
        # Slots to flush before their version advances, if they are
        # still resident (and a checkpoint pending) when first touched.
        self.flush_due = set(due.tolist())
        self.flushes: list[tuple[int, int, int]] = []  # (key, version, row)
        # slot -> version it was evicted (or turned away) with: slots the
        # walk leaves PMem-resident and unlisted.
        self.gone: dict[int, int] = {}
        self.loaded: set[int] = set()  # loaded here and still listed
        self.inserted: list[int] = []  # FIFO / CLOCK: (re)insertions, in order
        # CLOCK: position a slot was last (re)inserted at — its bit was
        # cleared there and is set by any access after it — and the bits
        # of the slots the walk inserted, when it ends.
        self.since: dict[int, int] = {}
        self.referenced: dict[int, bool] = {}
        self.next = None  # see later()

    def walk(self, arrivals: np.ndarray) -> None:
        cache, plan, accessed, pending = self.cache, self.plan, self.accessed, self.pending
        columns, rule, capacity = cache.index.columns, cache._rule, cache.capacity_entries
        admission, value_mode = cache.admission, cache.arena is not None
        flush_clean = not cache.config.track_dirty
        batch_id, later, first = self.batch_id, self.later, cache._first
        gone, loaded, flush_due = self.gone, self.loaded, self.flush_due
        inserted, since = self.inserted, self.since
        loads, freed, flush = plan.loads, plan.freed, self.flushes.append
        examined = flushes = evictions = 0
        slots = accessed[arrivals]
        cold, versions = columns.handle[slots] & 1, columns.version[slots]
        static = list(zip(*(a.tolist() for a in (arrivals, slots, cold, versions))))
        static.reverse()
        candidates = cache._candidates(len(static) + 64)
        reloads: list[int] = []
        size, requeued = self.size, 0  # requeued: how far into ``inserted``
        if size > capacity and not (static and static[-1][0] == 0):
            reloads.append(0)  # over capacity before the round: evict at once
        # (a slot never accessed again "reloads" at _NEVER: the heap's dregs)
        while static or (reloads and reloads[0] < _NEVER):
            if static and (not reloads or static[-1][0] < reloads[0]):
                position, slot, cold, version = static.pop()
            else:
                position = heapq.heappop(reloads)
                slot = int(accessed[position])
                # Not gone: nothing arrives, the list is just too long.
                cold, version = slot in gone, gone.pop(slot, None)
            if cold and admission is not None:
                if not admission.should_admit(int(columns.key[slot])):
                    # Admission filter (extension): a cold key stays in
                    # PMem — its durable copy remains authoritative and
                    # its version does not advance, so checkpoint
                    # bookkeeping is untouched. Its next access asks again.
                    gone[slot] = version
                    heapq.heappush(reloads, later(slot, position))
                    continue
            if cold:  # Algorithm 2 ``loadToDRAM``: promote the newest version
                loads.append(slot)
                loaded.add(slot)
            if version is not None:
                size += 1
                if not rule.touch_restamps:
                    inserted.append(slot)
                    since[slot] = position
            while size > capacity:
                while True:  # next victim the policy does not protect
                    examined += 1
                    victim = next(candidates, None)
                    if victim is None:
                        # Past every slot listed before the segment: on
                        # to its own insertions, in order.
                        if requeued == len(inserted):
                            raise ServerError("cache is over capacity with no victim")
                        (victim,) = cache._describe(np.array([inserted[requeued]]))
                        requeued += 1
                    slot, touch, version, dirty, row, key, updated, spared = victim
                    touched = touch <= position
                    if touched and rule.touch_restamps:
                        continue
                    if rule.second_chance:
                        if slot in since:
                            spared = later(slot, since[slot]) <= position
                        if spared or (touched and slot not in since):
                            inserted.append(slot)
                            since[slot] = position
                            continue
                    break
                if slot in loaded:
                    loaded.discard(slot)
                    dirty, row = False, -1
                again = touch
                if touched:
                    version, again = batch_id, later(slot, position)
                    dirty = dirty and slot not in flush_due
                elif flush_due:
                    flush_due.discard(slot)  # evicted before its touch
                if pending and version > pending[0]:
                    # Algorithm 2 lines 23-28: once the oldest cached
                    # version has moved past the on-going checkpoint,
                    # every entry it needs is (planned) durable. The
                    # paper's one-comparison test is sound ONLY under
                    # LRU, where stamp order equals version order; FIFO
                    # and CLOCK keep insertion order, so they scan for
                    # the true minimum cached version instead.
                    floor = version
                    if not rule.touch_restamps:
                        floor = self._min_listed_version(position, size)
                    while pending and floor > pending[0]:
                        del pending[0]
                        plan.completed += 1
                    if not pending:  # no barrier left for later touches
                        flush_due -= {due for due in flush_due if first[due] > position}
                size -= 1
                if dirty or flush_clean:
                    flush((key, version, row))
                    flushes += 1
                if pending:  # _backfill, for one row
                    at = bisect_left(pending, updated)
                    if at < len(pending) and pending[at] < version:
                        flush((key, pending[at], row))
                if row >= 0:
                    freed.append(row)
                elif value_mode:
                    plan.transient += 1
                gone[slot] = version
                evictions += 1
                heapq.heappush(reloads, again)
        self.size = size
        plan.candidates += examined
        plan.flushes += flushes
        plan.evictions += evictions
        if rule.second_chance:
            self.referenced = {
                slot: slot not in gone and later(slot, position) < _NEVER
                for slot, position in since.items()
            }

    def later(self, slot: int, position: int) -> int:
        """The first access of ``slot`` after ``position`` in the
        segment, or ``_NEVER``: follows the slot's accesses from its
        first, each linked to the next (one sort, on the first call)."""
        if self.next is None:
            accessed = self.accessed
            order = np.argsort(accessed, kind="stable")
            repeat = np.flatnonzero(accessed[order[1:]] == accessed[order[:-1]])
            following = np.full(len(order), _NEVER, dtype=np.int64)
            following[order[repeat]] = order[repeat + 1]
            self.next = following.tolist()
        at = int(self.cache._first[slot])
        while at <= position:
            at = self.next[at]
        return at

    def _min_listed_version(self, position: int, size: int) -> int:
        """Minimum version across the list as the walk stands at
        ``position`` (policy-agnostic scan): the slots listed before the
        segment that have not left, at the batch id if touched by now,
        plus — at the batch id — whatever the segment listed."""
        cache, gone = self.cache, self.gone
        columns = cache.index.columns
        slots = np.flatnonzero(columns.stamp >= 0)
        slots = slots[~np.isin(slots, np.fromiter(gone, np.int64, len(gone)))]
        versions = np.where(
            cache._first[slots] <= position, self.batch_id, columns.version[slots]
        )
        if size > len(slots):
            versions = np.append(versions, self.batch_id)
        return int(versions.min())

    def write_back(self) -> None:
        """Apply the walk to the columns (after the hits' defaults)."""
        cache = self.cache
        columns = cache.index.columns
        loaded = np.fromiter(self.loaded, np.int64, len(self.loaded))
        columns.handle[loaded] = loaded << 1
        columns.row[loaded] = -1  # lands when the round moves its rows
        columns.dirty[loaded] = False
        gone = np.fromiter(self.gone, np.int64, len(self.gone))
        columns.handle[gone] = (gone << 1) | 1
        columns.version[gone] = np.fromiter(self.gone.values(), np.int64, len(gone))
        if cache._rule.second_chance:
            # Whatever was evicted had its bit clear; accesses after that
            # (hits by the defaults) did not set it.
            columns.referenced[gone[columns.stamp[gone] >= 0]] = False
            slots = np.fromiter(self.referenced, np.int64, len(self.referenced))
            columns.referenced[slots] = list(self.referenced.values())
        columns.stamp[gone] = columns.row[gone] = -1
        columns.dirty[gone] = False
        cache._listed = self.size


def _backfill(version, updated, pending: Sequence[int]):
    """The pending checkpoint a flush must also be stamped at, if any.

    Read-only traffic (evaluation pulls, serving warm-up) advances an
    entry's ``version`` without changing state. A checkpoint then
    requested at a barrier ``B < version`` finds the flush stamped too
    new — ``read_at_most(key, B)`` misses the row even though the bytes
    *are* the state at ``B``, because nothing updated the entry since
    ``updated <= B``. One extra version at the smallest such barrier
    fixes that; reads pinned to every higher pending barrier resolve to
    it too. Barriers below ``updated`` were already served by
    flush-before-advance when the update landed.

    Takes scalars or arrays; returns ``(needed, barrier)``.
    """
    pending = np.asarray(pending)
    at = np.searchsorted(pending, updated)  # smallest barrier >= updated
    barrier = pending[np.minimum(at, len(pending) - 1)]
    return (at < len(pending)) & (barrier < version), barrier
