"""The pipelined DRAM cache with co-designed checkpointing.

This module is the paper's core: Algorithm 1 (*Pull Weights*) and
Algorithm 2 (*Cache Replacement & Checkpoint*), plus the update path.

The functional contract (independent of timing):

* ``pull(keys, n)`` serves weights from DRAM or PMem and enqueues the
  accessed entries on the access queue — it never reorders the cache or
  moves data between tiers (that is deferred, the "pipeline").
* ``maintain(n)`` is one cache-maintainer round for batch ``n``: flush
  entries whose state an outstanding checkpoint still needs, advance
  versions, reorder, load missed entries into DRAM and evict victims —
  then complete every pending checkpoint below ``n`` that no resident
  entry still owes (Algorithm 2 lines 22-28, as a predicate; see below).
* ``update(keys, grads, n)`` applies pushed gradients via the PS-side
  optimizer.

Whether the *time* of ``maintain`` overlaps GPU compute is decided by
the performance model (``CacheConfig.pipelined``); the functional
behaviour — and therefore the trained weights — is identical either
way, which tests assert.

**Everything is a column.** An entry is a *slot*: one position of the
:class:`~repro.core.entry.EntryColumns` the hash index owns (``key``,
tagged ``handle``, ``version``, ``updated``, ``dirty``, ``referenced``,
arena ``row``, PMem ``head``, order ``stamp``), and its DRAM-resident
payload is one row of a contiguous
:class:`~repro.core.arena.EmbeddingArena` (``weights || optimizer
state``). The index is the node's **one** key map (Section V-A): the
slot's tag bit says DRAM or PMem, ``row`` is the DRAM pointer and
``head`` the PMem pointer — the slab slot of the key's newest durable
version. The store owns no map: every call into it passes
``columns.head[slots]`` and the writing ones hand the new heads back.
``pull`` is one vectorised index lookup, a tag-bit mask, and one
fancy-index gather; ``update`` one lookup, column writes, a segment-sum
and one ``apply_batch``. The positions that are not
resident (a key to create, a PMem row to read or read-modify-write) are
resolved as blocks; an all-hit batch is the case where there are none.
Creation is a block too: the initializer is a function of the key
column (:mod:`repro.core.initializer`), so a pull of unseen keys
draws, indexes and fills their rows without a Python step per key.

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
or evicted earlier in the round) and the evictions they owe. The ``k``-th
arrival past the free room takes the next victim candidate (listed
slots oldest stamp first) the policy does not protect at that position,
and an evicted candidate that is accessed later re-enters as an arrival.
One loop (:class:`_Events`) visits the candidates whose fate depends on
where the walk stands — touched in the segment, or second-chance; the
runs of candidates between them, and the arrivals that pay for those,
are counted, and what the evictions produce (flushes, freed rows,
loads) is gathered from the columns afterwards. A round longer
than the capacity is cut into segments of at most ``capacity_entries``
accesses so that the slots touched inside one segment can never all be
needed as victims. The rows then move in bulk: gather the leaving rows
from the arena, one ``store.put`` (heads in, heads out), one
``store.read_latest`` at the heads, one arena scatter. A segment whose
flushes the pool cannot hold is refused before it writes anything, and
stays queued. The request queue does not change while a round runs.

**Completion is one predicate after the round.** Every flush stores a
row under ``updated``, the batch whose state its bytes are — not under
``version``, the last access, which read-only traffic (evaluation,
serving warm-up) advances without changing the state. So a clean
resident slot's newest stored version is its state at every checkpoint
from ``updated`` on, and a slot *owes* checkpoint ``cp`` exactly when it
is dirty with ``updated <= cp`` (:meth:`PipelinedCache._owing`): one
column predicate. ``cp`` is complete when no slot owes it. (Algorithm 2
asks instead whether the LRU victim's ``version`` is past ``cp``; that
test never fires in a cache that does not evict, and ``version`` is no
evidence of durability.) The same predicate is the flush before a
change: a round flushes a row it touches that owes a pending checkpoint
(Algorithm 2 lines 13-15), and so does a push ahead of its rows'
rounds. Once the round's rows have moved, ``maintain(n)`` completes the
pending checkpoints below ``n`` that nothing owes; while one is owed, a
*drain* flushes the owing rows, oldest stamp first and at most as many
as the round processed, and the test runs again. The barrier
(:meth:`PipelinedCache.complete_pending_checkpoints`) is the same drain
with no bound.

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
from repro.core.entry import Location
from repro.core.hash_index import HashIndex
from repro.core.initializer import block_min
from repro.core.optimizers import PSOptimizer, PSSGD, checked_grads, coerce_f32, segment_sum
from repro.core.queues import AccessQueue
from repro.errors import KeyNotFoundError, OutOfSpaceError, ServerError
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.pmem.space import VersionedEntryStore
from repro.simulation.metrics import Metrics


@dataclass(frozen=True)
class PullResult:
    """Outcome of one pull request (Algorithm 1)."""

    weights: np.ndarray
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


class PipelinedCache:
    """DRAM cache over a versioned PMem store (Figures 4 and 5).

    Args:
        config: capacity / policy / pipelining flags.
        store: the PMem-side versioned entry store.
        coordinator: checkpoint request/completion tracking.
        dim: embedding dimension.
        initializer: ``uint64[n] keys -> float32[n, dim]`` for new
            entries, as one block.
        optimizer: PS-side update rule (default plain SGD).
        metrics: statistics sink (a fresh one is created if omitted).
        tracer: span/event sink — maintenance rounds become
            ``cache.maintain`` spans, a pull that creates keys one
            ``cache.create`` span (``rows=``, and ``block=`` whether the
            block reached the size the key-seeded initializer draws in
            its array form), every bulk move to or from PMem one
            ``pmem.store`` / ``pmem.load`` instant carrying ``rows=``
            and ``bytes=``, and the completion test, while a checkpoint
            it may complete is pending, one ``checkpoint.drain`` span
            (``rows=`` flushed, ``budget=``, ``completed=``) with a
            ``checkpoint.completed`` instant per checkpoint.
    """

    def __init__(
        self,
        config: CacheConfig,
        store: VersionedEntryStore,
        coordinator: CheckpointCoordinator,
        dim: int,
        initializer: Callable[[np.ndarray], np.ndarray],
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
        self.arena = EmbeddingArena(dim, self.state_width)
        self._rule = _RULES[config.policy]
        self._clock = 0  # next order stamp
        self._listed = 0  # slots carrying a stamp
        self._newest = -1  # newest version an access (round or push) gave
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
        # A PMem-resident entry's row is -1: the gather reads some valid
        # row for it, and its stored weights overwrite that.
        out = self.arena.data[columns.row[slots], : self.dim]
        if misses:
            out[cold] = self.store.read_latest(columns.head[slots[cold]])[1][:, : self.dim]
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
        arrays = len(new_keys) >= block_min(self.dim)
        with self.tracer.span("cache.create", track="cache", rows=len(new_keys), block=arrays):
            block = self.initial_rows(new_keys)
            new_slots = self.index.insert_many(new_keys, Location.DRAM)
            columns = self.index.columns
            columns.version[new_slots] = columns.updated[new_slots] = batch_id
            columns.dirty[new_slots] = True
            rows = columns.row[new_slots] = self.arena.alloc_many(len(new_keys))
            self.arena.data[rows, : self.dim] = block
            if self.state_width:
                self.arena.data[rows, self.dim :] = self.optimizer.init_state(self.dim)
            slots[absent] = self.index.lookup(keys[absent])
        return len(new_keys)

    def initial_rows(self, keys: np.ndarray) -> np.ndarray:
        """The initializer's weights for ``keys``, as one block."""
        block = np.asarray(self.initializer(keys), dtype=np.float32)
        if block.shape != (want := (len(keys), self.dim)):
            raise ServerError(f"initializer returned shape {block.shape}, want {want}")
        return block

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
        accesses, which is what :class:`_Events` needs. Once the rows
        have moved, :meth:`_drain` completes the checkpoints below
        ``batch_id`` that nothing owes, flushing at most ``processed``
        owing rows.

        Raises:
            OutOfSpaceError: the pool cannot hold the rows a segment
                would flush. The round is all or nothing about space per
                segment: what earlier segments planned has moved, the
                refused segment changed nothing, and its accesses and
                every later one stay queued for the same batch id — once
                room exists, ``maintain(batch_id)`` finishes the round.
                (An admission filter has by then counted the refused
                segment's cold arrivals once more.)
        """
        with self.tracer.span("cache.maintain", batch=batch_id) as span:
            accessed = self.access_queue.pop_batch(batch_id)
            # What the round plans: ``out`` holds the planned flushes in
            # plan order, one ``(slots, versions to store them under, arena
            # rows holding them — negative when the row arrived this very
            # round and never reached the arena)`` block per segment part;
            # ``loads`` the slots to load, in order; ``freed`` the arena
            # rows given up; ``rows`` how many rows it flushes so far (what
            # the pool must have room for); and the counts.
            plan, n = SimpleNamespace(
                out=[], loads=[], freed=[], rows=0, flushes=0, evictions=0,
                examined=0, steps=0, segments=0,
            ), len(accessed)
            # Nothing completes before the rows have moved: the request
            # queue is fixed for the whole plan.
            pending = self.coordinator.queue.pending()
            unlisted = np.count_nonzero(self.index.columns.stamp[accessed] < 0)
            step = max(n, 1)
            if unlisted > self.capacity_entries - self._listed:
                step = self.capacity_entries
            lo = 0
            # (A segment the walk cut short leaves evictions owed: the
            # next one, empty if need be, starts by paying them.)
            while lo < n or (lo and self._listed > self.capacity_entries):
                segment = accessed[lo : lo + step]
                try:
                    lo += self._plan_segment(segment, batch_id, pending, plan, lo > 0)
                except OutOfSpaceError:
                    self.access_queue.requeue(batch_id, accessed[lo:])
                    self._move(plan)
                    raise
                plan.segments += 1
            loads = self._move(plan)
            drained, completed = self._drain(n, below=batch_id)
            result = MaintainResult(n, loads, plan.flushes + drained, plan.evictions, len(completed))
            span.set(
                processed=n, loads=loads, flushes=result.flushes, evictions=plan.evictions,
                candidates=plan.examined, decisions=plan.steps, segments=plan.segments,
            )
            return result

    def _plan_segment(
        self, accessed: np.ndarray, batch_id: int, pending: list[int],
        plan: SimpleNamespace, follows: bool,
    ) -> int:
        """Algorithm 2 for the accesses ``accessed`` (slots, in order), on
        metadata alone: decide, move nothing. Returns how many of them it
        planned — all, unless the walk ended the segment early; a
        segment that ``follows`` another and finds the list over capacity
        follows such a cut, and evicts before its first access.

        Array operations apply what a hit — an access to a listed slot —
        does: flush before the version advances if a pending checkpoint
        still needs the current state (Alg. 2 lines 13-15: the row owes
        one, :meth:`_owing`), stamp the batch id, touch. The test needs
        no position: the request queue is fixed for the round, and the
        flush clears the row's dirty bit, so a later touch finds nothing
        owed. Accesses
        to slots that are not listed, and a list already over capacity,
        are events and go through :class:`_Events` first (it reads the
        columns as the segment found them, and its results overwrite the
        defaults written here). Nothing is written — no column, no
        planned move — before the pool is known to have room for every
        row the round flushes so far (counting a row that merely
        restates a stored version, which ``put`` would not charge).
        """
        columns, rule = self.index.columns, self._rule
        listed = columns.stamp[accessed] >= 0
        hits = accessed if listed.all() else accessed[listed]
        due = hits[:0]
        if pending:
            resident = np.unique(accessed[(columns.handle[accessed] & 1) == 0])
            due = resident[self._owing(resident, pending[-1])]
        events = None
        if len(hits) < len(accessed) or self._listed > self.capacity_entries:
            first = self._first_touch(accessed)
            arrivals = np.flatnonzero(~listed & (first == np.arange(len(accessed))))
            try:
                carried = follows and self._listed > self.capacity_entries
                events = _Events(self, accessed, arrivals, due, batch_id, carried)
            finally:
                self._first[accessed] = _NEVER
            # A prefix, if the walk cut the segment; what is still due in it.
            accessed, due = events.accessed, events.due
            hits = accessed[listed[: len(accessed)]]
        plan.rows += len(due) + (len(events.out[0]) if events is not None else 0)
        self.store.pool.require_free(plan.rows * self.store.entry_bytes)
        if len(due):
            # Ahead of the events' flushes: a slot's touch precedes any
            # eviction that does not cancel it.
            plan.out.append((due, columns.updated[due], columns.row[due]))
            columns.dirty[due] = False
            plan.flushes += len(due)
        columns.version[accessed] = batch_id
        self._newest = max(self._newest, batch_id)
        if rule.second_chance:
            columns.referenced[hits] = True
        self._stamp(accessed if rule.touch_restamps else events.inserted if events else ())
        if events is not None:
            events.write_back(plan)
        return len(accessed)

    def _candidates(self, chunk: int) -> Iterator[tuple]:
        """Listed slots, oldest stamp first, as column blocks (see
        :meth:`_describe`) — ``chunk`` of them, then twice that, …, so a
        round pays for the candidates it examines, not for sorting the
        cache."""
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
            yield self._describe(slots)
            chunk *= 2

    def _describe(self, slots: np.ndarray) -> tuple:
        """``(slots, first touch in the segment being planned, version,
        referenced, dirty, row, updated)`` of victim candidates."""
        columns = self.index.columns
        fields = (self._first, columns.version, columns.referenced, columns.dirty,
                  columns.row, columns.updated)
        return (slots, *(field[slots] for field in fields))

    def _move(self, plan: SimpleNamespace) -> int:
        """Move the rows a round planned, in blocks; returns the rows
        loaded.

        The plan left list order, versions, dirty bits and counters
        exactly as if each row had moved the moment it was planned. A
        row's bytes cannot change inside a round (no update runs), which
        is what lets the moves be reordered:

        1. gather the rows that leave from the arena, ``store.put`` —
           from the heads the slots carry to the heads it returns;
        2. ``store.read_latest`` the rows that arrive (after the put,
           so a key evicted and re-loaded in the round reads, at the
           head that put just returned, what it just wrote);
        3. ``store.put`` the rare flushes of rows that arrived in this
           very round (loaded and evicted again: their bytes are in the
           block just read, never in the arena);
        4. scatter the arrived rows into freshly allocated arena rows.

        Whether a checkpoint completes is decided afterwards, once every
        planned flush is durable (:meth:`_drain`).
        """
        columns = self.index.columns
        loads = np.concatenate(plan.loads) if plan.loads else np.empty(0, np.int64)
        late = None
        if plan.out:
            slots, versions, rows = (np.concatenate(column) for column in zip(*plan.out))
            if len(rows) and rows.min() < 0:
                late = rows < 0
                late_slots, late_versions = slots[late], versions[late]
                slots, versions, rows = slots[~late], versions[~late], rows[~late]
            if len(slots):
                self._store_rows(slots, versions, self.arena.data[rows])
        block = None
        if len(loads):
            block = self.store.read_latest(columns.head[loads])[1]
            self._moved("pmem.load", len(loads))
        # Position in ``loads`` of each slot's last load (any of its
        # loads read the same bytes; the last is the one that may land).
        last = len(loads) - 1 - self._first_touch(loads[::-1])[::-1]
        if late is not None:
            at = len(loads) - 1 - self._first[late_slots]
            self._store_rows(late_slots, late_versions, block[at])
        self._first[loads] = _NEVER
        loaded = len(loads)
        if plan.freed:
            self.arena.free_many(np.concatenate(plan.freed))
        # A row may arrive and leave again inside the round: only an
        # entry's last load, and only if it stayed, lands.
        stayed = (columns.handle[loads] & 1) == 0
        lands = np.flatnonzero(stayed & (last == np.arange(loaded)))
        if len(lands) < loaded:
            loads, block = loads[lands], block[lands]
        if len(loads):
            rows = columns.row[loads] = self.arena.alloc_many(len(loads))
            self.arena.data[rows] = block
        self.metrics.pmem_load_entries += loaded
        self.metrics.cache.loads += loaded
        self.metrics.pmem_flush_entries += plan.flushes
        self.metrics.cache.flushes += plan.flushes
        self.metrics.cache.evictions += plan.evictions
        return loaded

    # ------------------------------------------------------------------
    # update (push) path
    # ------------------------------------------------------------------

    def update(self, keys: Sequence[int], grads: np.ndarray, batch_id: int) -> int:
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
        grads = coerce_f32(checked_grads(grads, n, self.dim))
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
        if pending := self.coordinator.queue.pending():
            # Flush before the gradient lands what a pending checkpoint
            # still needs of a resident row (:meth:`_owing`). In the
            # serial flow its maintenance round already has; a push ahead
            # of its rows' rounds (async, lookahead) has not.
            warm = np.delete(slots, cold)
            self._flush_slots(warm[self._owing(warm, pending[-1])])
        columns.dirty[slots] = True
        columns.updated[slots] = np.maximum(columns.updated[slots], batch_id)
        behind = batch_id > columns.version[slots]
        if behind.any():
            # No maintenance round advanced these entries to
            # ``batch_id``. That is the normal case in async training —
            # a delayed push carries the scheduler step it is applied
            # in, ahead of the last round that maintained its rows —
            # and the lookahead case, where the pull was served from a
            # prefetch buffer. Advance the version and touch here
            # instead, so stamp order keeps its version order under LRU:
            # the touch is the newest, so is the version — a fold of old
            # contributions lands after later rounds, not under its batch.
            # A cold key's version stays behind.
            behind[cold] = False
            advancing = slots[behind]
            columns.version[advancing] = self._newest = max(self._newest, batch_id)
            fresh = advancing[columns.stamp[advancing] < 0]
            self._listed += len(fresh)
            if self._rule.second_chance:
                columns.referenced[advancing] = True
                columns.referenced[fresh] = False
            self._stamp(advancing if self._rule.touch_restamps else fresh)
        rows = columns.row[slots]
        block = self.arena.data[rows]
        if len(cold):
            block[cold] = self.store.read_latest(columns.head[slots[cold]])[1]
        self.optimizer.apply_batch(
            block[:, : self.dim],
            block[:, self.dim :] if self.state_width else None,
            segment_sum(grads, first, first_idx),
        )
        resident = rows >= 0 if len(cold) else slice(None)
        self.arena.data[rows[resident]] = block[resident]
        if len(cold):
            self._store_rows(slots[cold], columns.updated[slots[cold]], block[cold], traced=False)
            columns.dirty[slots[cold]] = False  # the store holds this state
            self.metrics.pmem_flush_entries += len(cold)
        self.metrics.updates += len(slots)
        return len(slots)

    # ------------------------------------------------------------------
    # barriers / draining
    # ------------------------------------------------------------------

    def complete_pending_checkpoints(self) -> list[int]:
        """The training barrier (epoch end, clean shutdown, a reshard's
        quiesce): :meth:`_drain` with no bound. Every row a queued
        checkpoint still waits for is flushed and every queued
        checkpoint completes. Returns their batch ids, oldest first."""
        return self._drain(None)[1]

    def _drain(self, budget: int | None, below: int = _NEVER) -> tuple[int, list[int]]:
        """Complete the head checkpoint while no resident slot owes it.

        Listed slots that owe it (:meth:`_owing`) are flushed first —
        oldest stamp first, at most ``budget`` rows over the call (None:
        all); a flushed row owes nothing. Stops at the first checkpoint
        still owed, or not below ``below``: a round at batch ``n`` runs
        before that batch's updates, so a checkpoint at or past ``n`` may
        still change. A flush the pool cannot hold is skipped (the
        checkpoint waits). Returns ``(rows flushed, checkpoints
        completed)``.
        """
        coordinator, drained, completed = self.coordinator, 0, []
        if (head := coordinator.head()) is None or head >= below:
            return drained, completed
        stamp = self.index.columns.stamp
        listed = np.flatnonzero(stamp >= 0)  # a flush moves no row in or out
        with self.tracer.span("checkpoint.drain", track="checkpoint") as span:
            while (cp := coordinator.head()) is not None and cp < below:
                owing = listed[self._owing(listed, cp)]
                room = len(owing) if budget is None else min(len(owing), budget - drained)
                if room:
                    try:
                        self._flush_slots(owing[np.argsort(stamp[owing])][:room])
                    except OutOfSpaceError:
                        break
                    drained += room
                if room < len(owing):
                    break
                completed.append(coordinator.complete_head())
                self.metrics.checkpoints_completed += 1
                self.tracer.instant("checkpoint.completed", track="checkpoint", batch=cp)
            self.metrics.checkpoint_drained_rows += drained
            span.set(rows=drained, budget=budget, completed=len(completed))
        return drained, completed

    def _owing(self, slots: np.ndarray, cp: int) -> np.ndarray:
        """Which resident ``slots`` owe checkpoint ``cp`` (asked of the
        newest pending one: which owe any): their state at it — the
        state since ``updated`` — is not durable. Every flush stores a
        row under its ``updated``, the batch its bytes are the state of,
        so a clean row's newest stored version is its state at every
        checkpoint from ``updated`` on, and a dirty one's is nowhere.
        (``version`` is no evidence: read-only traffic advances it and
        flushes nothing.)"""
        columns = self.index.columns
        return columns.dirty[slots] & (columns.updated[slots] <= cp)

    def drop_cache(self) -> int:
        """Flush and evict everything (leaves an empty, consistent cache)."""
        columns = self.index.columns
        cached = np.flatnonzero(columns.stamp >= 0)
        self._flush_slots(cached)
        columns.stamp[cached] = -1
        columns.handle[cached] |= 1
        self._release(cached)
        self._listed = 0
        return len(cached)

    def adopt_many(self, keys: Sequence[int], versions, heads) -> None:
        """Register ``keys`` as existing and PMem-resident at ``versions``,
        their newest durable versions being the store's slots ``heads``.

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
        columns.head[slots] = heads

    def drop_slots(self, slots: np.ndarray) -> None:
        """Remove the entries at ``slots`` from every cache structure
        (ownership drop), as one block.

        Used when keys leave the node entirely (shard migration): the
        stamps, arena rows, index cells and slots all go at once, so a
        batch probe can never resolve a departed key — and the slots are
        scrubbed from the access queue, so a pull still waiting for its
        maintenance round cannot resurrect one (or touch whichever key a
        recycled slot belongs to by then). The caller drops the durable
        versions from the store first: a freed slot's ``head`` is gone.
        """
        columns = self.index.columns
        self._listed -= int(np.count_nonzero(columns.stamp[slots] >= 0))
        self._release(slots)
        self.access_queue.discard(slots)
        self.index.remove_many(columns.key[slots])

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

    def read_current_state(self, key: int) -> np.ndarray:
        """The live packed ``weights || optimizer state`` of ``key``
        regardless of tier, as a copy.

        Raises:
            KeyNotFoundError: unknown key.
        """
        entry = self.index.find(key)
        if entry is None:
            raise KeyNotFoundError(key)
        if not entry.in_dram:
            return self.store.read_latest([entry.head])[1][0]
        return self.arena.data[entry.row].copy()

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
            weights[cold] = self.store.read_latest(columns.head[slots[cold]])[1][:, : self.dim]
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
                not (len(rows) == len(dram) == len(self.arena) and -1 not in rows),
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

    def _store_rows(self, slots: np.ndarray, versions, block, traced: bool = True) -> None:
        """One bulk move DRAM -> PMem: ``block[i]`` becomes version
        ``versions[i]`` of the entry at ``slots[i]`` — one ``store.put``
        from the slots' heads to their new ones (a slot may repeat: all
        its positions then report its final head)."""
        columns = self.index.columns
        heads = self.store.put(columns.key[slots], columns.head[slots], versions, block)
        columns.head[slots] = heads
        if traced:
            self._moved("pmem.store", len(slots))

    def _moved(self, event: str, rows: int) -> None:
        self.tracer.instant(event, track="pmem", rows=rows, bytes=rows * self.store.entry_bytes)

    def _flush_slots(self, slots: np.ndarray) -> None:
        """Persist resident ``slots`` as one put, each under its
        ``updated`` (see :meth:`_owing`)."""
        if not len(slots):
            return
        columns = self.index.columns
        self._store_rows(slots, columns.updated[slots], self.arena.data[columns.row[slots]])
        columns.dirty[slots] = False
        self.metrics.pmem_flush_entries += len(slots)
        self.metrics.cache.flushes += len(slots)

    def _release(self, slots: np.ndarray) -> None:
        """Free the arena rows of ``slots``."""
        columns = self.index.columns
        rows = columns.row[slots]
        self.arena.free_many(rows[rows >= 0])
        columns.row[slots] = -1


class _Events:
    """The part of a segment that is not a hit: arrivals and evictions.

    Arrivals are the first positions of the accessed slots that are not
    listed, merged in position order with a heap of positions that become
    arrivals on the way: a later access of a slot evicted here, or of a
    PMem-resident slot the admission filter turned away. Each one loads
    or adopts its slot and lists it; the ``k``-th arrival past the free
    room owes the ``k``-th eviction, which takes the next victim
    candidate — listed slots, oldest stamp first — the policy does not
    protect at that arrival's position (LRU: it was touched earlier in
    the segment and is no longer old; CLOCK: it is referenced — clear
    the bit and requeue it as the newest).

    **The walk visits decisions, not rows.** A candidate needs to know
    where the walk stands only if it is touched in the segment (protected
    or not, what it is evicted with, when it comes back) or if CLOCK may
    spare it. Every other candidate is evicted
    whenever its turn comes, with no side effect on the walk, so a *run*
    of ``u`` of them between two decisions is not walked: it absorbs the
    next ``u`` evictions owed, and the arrivals that owe them are
    *counted* — the sorted static arrivals are jumped with one ``bisect``
    up to the next reload, and only reloads are stepped through.
    Eviction ``j`` is owed by arrival number ``j + free + 1`` (``free``,
    the room before the segment, may be negative: a list over capacity
    evicts at position 0), which is all the arithmetic there is. What the
    evictions produce — flushes, freed rows — is computed
    afterwards as column gathers over the examined candidates less the
    protected ones: candidate order *is* eviction order, because every
    eviction takes the first candidate not yet consumed.

    A segment is at most ``capacity_entries`` accesses long, so when the
    list is over capacity the slots touched so far cannot fill it: an
    untouched slot listed before the segment is always left, and under
    LRU it is older than everything the segment listed. FIFO and CLOCK
    (which requeues) can run out of slots listed before the segment; the
    walk then *ends the segment* after the arrival it stands at
    (``accessed`` is cut there) with evictions still owed, and the next
    segment — for which this one's listings are ordinary candidates —
    starts by paying them, before its first access (``carried``).

    The walk reads the columns as the segment found them and writes
    nothing; :meth:`write_back` applies what it decided once the pool is
    known to hold the flushes. It completes no checkpoint.
    """

    def __init__(self, cache, accessed, arrivals, due, batch_id, carried):
        """Walk the segment ``accessed`` (whose ``arrivals`` are the
        first positions of its unlisted slots); ``due`` are the slots to
        flush before their version advances, if they are still resident
        when first touched."""
        self.cache, self.accessed = cache, accessed
        self.carried, self.due, self.next = carried, due, None  # later()
        columns, rule = cache.index.columns, cache._rule
        admission, later = cache.admission, self.later
        arrived = accessed[arrivals]
        cold = (columns.handle[arrived] & 1) != 0
        # ``gone``: slot -> the candidate it was evicted as (-1: it was
        # never listed), for the slots that are to arrive again — at the
        # positions in the ``reloads`` heap.
        gone, reloads = {}, []
        if admission is not None:
            # Every cold arrival asks the filter: it is walked as the
            # reload of a slot that is gone from the start.
            gone = dict.fromkeys(arrived[cold].tolist(), -1)
            reloads = arrivals[cold].tolist()
            arrivals, arrived, cold = arrivals[~cold], arrived[~cold], cold[~cold]
        static, free = arrivals.tolist(), cache.capacity_entries - cache._listed
        # (2 * position, + 1 for a requeued candidate: it follows the
        # arrival at its position; slot) of what the walk lists one at a
        # time. The static arrivals list themselves.
        listings: list[tuple] = []
        blocks = [cache._describe(arrivals[:0])]  # candidates examined, in order
        protected, returned, advanced = [], [], []  # candidates by what was decided
        taken = at = examined = evicted = steps = 0
        position = -1 if self.carried else 0

        def take(target: int) -> bool:
            """Let arrivals in, in position order, until ``target`` of
            them are listed; False when they run out first."""
            nonlocal taken, at, position, steps
            while taken < target:
                stop = bisect_left(static, reloads[0], at) if reloads else len(static)
                if stop > at:  # static arrivals up to the next reload: counted
                    jump = min(stop - at, target - taken)
                    at, taken = at + jump, taken + jump
                    position = static[at - 1]
                    continue
                if not reloads:
                    return False
                steps += 1
                position = heapq.heappop(reloads)
                slot = int(accessed[position])
                if admission is not None and not admission.should_admit(int(columns.key[slot])):
                    # Admission filter (extension): a cold key stays in
                    # PMem — its durable copy remains authoritative and
                    # its version does not advance, so checkpoint
                    # bookkeeping is untouched. Its next access asks again.
                    if (again := later(slot, position)) < _NEVER:
                        heapq.heappush(reloads, again)
                    continue
                if (index := gone.pop(slot)) >= 0:
                    returned.append(index)
                listings.append((2 * position, slot))  # ``loadToDRAM``
                taken += 1
            return True

        def decisions() -> Iterator[tuple]:
            """The candidates that need a decision, each as ``(index among
            the candidates, slot, first touch, referenced)``; a negative
            slot is no candidate: -1 closes a block of candidates (a run
            may end there), -2 says none is left."""
            total = 0
            for block in cache._candidates(2 * (len(static) + len(reloads)) + 64):
                blocks.append(block)
                slots, touch, __, referenced = block[:4]
                ask = np.flatnonzero((touch < _NEVER) | (referenced & rule.second_chance))
                yield from zip((ask + total).tolist(), slots[ask].tolist(), touch[ask].tolist(),
                               referenced[ask].tolist())
                total += len(slots)
                yield total, -1, 0, False
            yield total, -2, 0, False

        if free < 0 and not self.carried and 0 in (static[:1] + reloads[:1]):
            take(1)  # the arrival at position 0 is in before its evictions
        for index, slot, touch, referenced in decisions():
            # The candidates before this one concern no decision: the next
            # evictions owed take them, as far as the arrivals go; one more
            # arrival owes the eviction this decision is about.
            run = index - examined
            short = evicted + run + free + 1 - taken
            if short > 0:
                stop = bisect_left(static, reloads[0], at) if reloads else len(static)
                if stop - at >= short:  # static arrivals, all of them: counted
                    at, taken = at + short, taken + short
                    position = static[at - 1]
                elif not take(taken + short):
                    run = max(0, min(run, taken - free - evicted))
                    examined, evicted = examined + run, evicted + run
                    break  # no eviction is owed any more: the arrivals are all in
            examined, evicted, steps = index, evicted + run, steps + 1
            if slot < 0:
                if slot == -1:
                    continue
                # Every slot listed before the segment is spoken for: it
                # ends here, after the arrival the walk stands at.
                self.accessed = accessed[: position + 1]
                break
            examined += 1
            touched = touch <= position
            if touched and rule.touch_restamps or rule.second_chance and (referenced or touched):
                protected.append(index)
                if rule.second_chance:  # requeued as the newest, its bit cleared
                    listings.append((2 * position + 1, slot))
                continue
            again = touch
            if touched:
                again = later(slot, position)
                advanced.append(index)
            evicted += 1
            if again < _NEVER:
                gone[slot] = index
                heapq.heappush(reloads, again)
        if self.accessed is accessed:
            take(_NEVER)
        self.size, self.examined, self.steps = cache._listed + taken - evicted, examined, steps

        # What the decisions produce, as arrays over the candidates.
        slots, __, version, __, dirty, row, updated = (
            np.concatenate(column)[:examined] for column in zip(*blocks)
        )
        evicted, late = np.ones(examined, dtype=bool), np.zeros(examined, dtype=bool)
        evicted[protected], late[advanced] = False, True
        version[late] = batch_id
        # A due slot is not flushed at its touch if it was evicted before
        # it or if the walk cut the segment before it; one evicted after
        # that flush leaves clean.
        if len(due := self.due):
            kept = (cache._first[due] < len(self.accessed)) & ~np.isin(due, slots[evicted & ~late])
            self.due = due = due[kept]
            dirty[late & np.isin(slots, due)] = False
        stays = evicted.copy()  # gone for good: evicted and not let in again
        stays[returned] = False
        # ... and the cold slots the admission filter never let in.
        barred = np.array([slot for slot, index in gone.items() if index < 0], dtype=np.int64)
        self.gone = np.concatenate([slots[stays], barred])
        self.gone_version = np.concatenate([version[stays], columns.version[barred]])
        # Every eviction flushes its row under ``updated`` (unless clean
        # and tracked); candidate order is eviction order.
        order = np.flatnonzero(evicted)
        flushed = order[dirty[order] | (not cache.config.track_dirty)]
        self.out = slots[flushed], updated[flushed], row[flushed]
        self.flushes, self.evictions = len(flushed), len(order)
        self.freed = row[order][row[order] >= 0]
        # What the segment listed, in order: the static arrivals let in
        # and the one-at-a-time listings, an arrival ahead of the
        # candidates requeued at its position. All of it is still listed.
        when, listed = np.array(listings, dtype=np.int64).reshape(-1, 2).T
        when = np.concatenate([2 * arrivals[:at], when])
        order = np.argsort(when, kind="stable")
        self.inserted = np.concatenate([arrived[:at], listed])[order]
        self.inserted_at = when[order] >> 1
        self.loads = self.inserted[np.concatenate([cold[:at], when[at:] & 1 == 0])[order]]

    def later(self, slot: int, position: int) -> int:
        """The first access of ``slot`` after ``position`` in the
        segment, or ``_NEVER``: follows the slot's accesses from its
        first, each linked to the next (one sort, on the first call)."""
        if self.next is None:
            accessed = self.accessed
            order = np.argsort(accessed, kind="stable")
            repeated = np.flatnonzero(accessed[order[1:]] == accessed[order[:-1]])
            following = np.full(len(order), _NEVER, dtype=np.int64)
            following[order[repeated]] = order[repeated + 1]
            self.next = following.tolist()
        at = int(self.cache._first[slot])
        while at <= position:
            at = self.next[at]
        return at

    def write_back(self, plan: SimpleNamespace) -> None:
        """Apply the walk: its share of the round's plan, the columns
        (after the hits' defaults)."""
        cache, columns = self.cache, self.cache.index.columns
        for name in ("out", "loads", "freed"):
            getattr(plan, name).append(getattr(self, name))
        for name in ("flushes", "evictions", "examined", "steps"):
            setattr(plan, name, getattr(plan, name) + getattr(self, name))
        columns.handle[self.loads] = self.loads << 1
        columns.row[self.loads] = -1  # lands when the round moves its rows
        columns.dirty[self.loads] = False
        gone = self.gone
        columns.version[gone] = self.gone_version
        columns.handle[gone] = (gone << 1) | 1
        if cache._rule.second_chance:
            # Whatever was evicted had its bit clear; accesses after that
            # (hits by the defaults) did not set it. What the segment
            # listed has it set by any access after the listing.
            columns.referenced[gone[columns.stamp[gone] >= 0]] = False
            last = np.full(len(columns.stamp), -1)
            np.maximum.at(last, self.accessed, np.arange(len(self.accessed)))
            columns.referenced[self.inserted] = last[self.inserted] > self.inserted_at
        columns.stamp[gone] = columns.row[gone] = -1
        columns.dirty[gone] = False
        cache._listed = self.size
