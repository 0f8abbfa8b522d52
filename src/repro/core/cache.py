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
``take`` of the rows; ``update`` is column writes, one ``take`` and one
``apply_batch`` on contiguous weight and state blocks. A push is one
row per distinct key, keys ascending (one whose keys do not ascend is
summed per key by :func:`~repro.core.sharding.summed_per_key` on
entry); one of
exactly the keys an ascending pull of its batch sent reuses the slots
that pull resolved (:meth:`PipelinedCache.update`), any other resolves
its keys with one lookup. The positions that
are not resident (a key to create, a PMem row to read or
read-modify-write) are resolved as blocks; an all-hit batch is the case
where there are none.
Creation is a block too: the initializer is a function of the key
column (:mod:`repro.core.initializer`), so a pull of unseen keys
draws, indexes and fills their rows without a Python step per key.

**Replacement is a stamp.** A listed (evictable) slot carries a stamp
from one monotone clock; the list the policy evicts from is the listed
slots in stamp order, oldest first. A policy is two rules
(:class:`_Rule`): does touching a listed entry restamp it (LRU yes,
FIFO / CLOCK no), and does a referenced victim candidate get a second
chance (CLOCK). ``cached_keys()`` is an ``argsort`` of the stamps.

``maintain`` is **plan-then-move**. A round whose slots do not fit the
cache is cut into segments of ``capacity_entries`` accesses, and each
segment is planned on metadata in two steps. First every access is
applied as if nothing left: flush-before-advance under a pending
checkpoint, version advance, restamp; a slot that is not listed (created,
or PMem-resident) *arrives* at its first access, loaded if it was in
PMem. Then the segment chooses its victims: the listed slots it does
**not** touch, oldest stamp first (CLOCK spares a referenced one once,
clears its bit and requeues it after the segment's own listings), as
many as its arrivals overfill the cache by. A segment therefore never
evicts a row it touches, so no row leaves and comes back inside it, and
a batch's rows are resident for its update — the point of Algorithm 2's
write lock. Under LRU this is the per-access rule exactly, minus those
evict→reload pairs: every touch restamps, so by stack inclusion the
per-access loop's untouched victims are the oldest ones and its touched
victims all come back within the segment; the resident set, stamp
order, versions and checkpoints match. Under FIFO and CLOCK the victim
choice differs from per-access replacement on purpose. The choice is a
few array operations over the candidates in stamp order, and the
evictions' flushes and freed rows are column gathers. The rows then move
in bulk: gather the leaving rows from the arena, one ``store.put`` (heads
in, heads out), one ``store.read_latest`` at the heads, one arena
scatter. A segment whose flushes the pool cannot hold is refused before
it writes anything, and stays queued. The request queue does not change
while a round runs.

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
*drain* flushes the owing rows, at most as many as the round processed
(oldest stamp first when that bound cuts them), and the test runs
again. The barrier (:meth:`PipelinedCache.complete_pending_checkpoints`)
is the same drain with no bound: every owing row in one put, in slot
order, with no sort.

``tests/harness/reference_cache.py`` holds the per-key, object-per-entry
oracle the equivalence suites compare this module against.
"""

from __future__ import annotations

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
from repro.core.optimizers import PSOptimizer, PSSGD, checked_grads, coerce_f32
from repro.core.queues import AccessQueue
from repro.core.sharding import summed_per_key
from repro.errors import KeyNotFoundError, OutOfSpaceError, ServerError
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.pmem.space import VersionedEntryStore
from repro.simulation.metrics import Metrics


@dataclass(frozen=True)
class PullResult:
    """Outcome of one pull request (Algorithm 1).

    It is also the reply to a ``PullRequest`` as it crosses the wire
    (``network/messages.py`` registers it as a kind), so a shard's
    counters reach the client. A backend's ``pull`` returns fresh
    ``weights`` (the cluster places its shards' replies into a new
    matrix); a shard reply decoded off the wire holds a read-only view
    of its frame.
    """

    weights: np.ndarray
    hits: int
    misses: int
    created: int

    @property
    def accesses(self) -> int:
        return self.hits + self.misses + self.created


@dataclass(frozen=True)
class MaintainResult:
    """Outcome of one maintenance round (Algorithm 2); also the reply to
    a ``MaintainRequest`` as it crosses the wire."""

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
        # The current batch's ascending pulls, by (length, first key, last
        # key): ``(their keys, the slots they resolved, index.removals
        # then)``. Both arrays are copies: a record neither sees the
        # caller reuse its key buffer nor keeps the access queue's slot
        # array alive past its round. A push of the same keys takes the
        # slots (:meth:`update`).
        self._pulled, self._pulled_batch = {}, None

    # ------------------------------------------------------------------
    # Algorithm 1: pull
    # ------------------------------------------------------------------

    def pull(self, keys: Sequence[int], batch_id: int) -> PullResult:
        """Serve a pull request for ``keys`` at batch ``batch_id``.

        Weights are copied out of DRAM or PMem as found; accessed
        entries are appended to the access queue for the maintainer
        (Algorithm 1 line 17). New keys are initialised in DRAM
        (lines 6-12).
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
        out = np.take(self.arena.data, columns.row[slots], axis=0)[:, : self.dim]
        if misses:
            out[cold] = self.store.read_latest(columns.head[slots[cold]])[1][:, : self.dim]
        hits = n - misses - created
        self.access_queue.append(batch_id, slots)
        if batch_id != self._pulled_batch:
            self._pulled, self._pulled_batch = {}, batch_id
        if n and (keys[1:] > keys[:-1]).all():  # strictly ascending: distinct
            record = keys.copy(), slots.copy(), self.index.removals
            self._pulled[n, int(keys[0]), int(keys[-1])] = record
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

        The round is planned in consecutive segments
        (:meth:`_segments`): one if its slots fit the cache, else
        ``capacity_entries`` accesses each, so the slots a segment
        touches can never all be needed as victims. Once the rows have moved,
        :meth:`_drain` completes the checkpoints below ``batch_id`` that
        nothing owes, flushing at most ``processed`` owing rows.

        Raises:
            OutOfSpaceError: the pool cannot hold the rows a segment
                would flush. The round is all or nothing about space per
                segment: what earlier segments planned has moved, the
                refused segment changed nothing, and its accesses and
                every later one stay queued for the same batch id — once
                room exists, ``maintain(batch_id)`` finishes the round.
                (An admission filter has by then counted the refused
                segment's cold accesses once more.)
        """
        with self.tracer.span("cache.maintain", batch=batch_id) as span:
            accessed = self.access_queue.pop_batch(batch_id)
            # What the round plans: ``out`` holds the planned flushes in
            # plan order, one ``(slots, versions to store them under, arena
            # rows holding them — negative when the row arrived earlier in
            # this very round and never reached the arena)`` block per
            # segment part; ``loads`` the slots to load, in order; ``freed``
            # the arena rows given up; ``rows`` how many rows it flushes so
            # far (what the pool must have room for); and the counts.
            plan, n = SimpleNamespace(
                out=[], loads=[], freed=[], rows=0, flushes=0, evictions=0,
                candidates=0, segments=0,
            ), len(accessed)
            # Nothing completes before the rows have moved: the request
            # queue is fixed for the whole plan.
            pending = self.coordinator.queue.pending()
            lo = 0
            for end in self._segments(accessed):
                try:
                    self._plan_segment(accessed[lo:end], batch_id, pending, plan)
                except OutOfSpaceError:
                    self.access_queue.requeue(batch_id, accessed[lo:])
                    self._move(plan)
                    raise
                lo, plan.segments = end, plan.segments + 1
            loads = self._move(plan)
            drained, completed = self._drain(n, below=batch_id)
            result = MaintainResult(n, loads, plan.flushes + drained, plan.evictions, len(completed))
            span.set(
                processed=n, loads=loads, flushes=result.flushes, evictions=plan.evictions,
                candidates=plan.candidates, segments=plan.segments,
            )
            return result

    def _segments(self, accessed: np.ndarray) -> list[int]:
        """Where the round's segments end: the whole round if its slots
        fit the cache (then no row it touches leaves), else every
        ``capacity_entries`` accesses — a segment then always leaves
        enough listed slots it does not touch to evict."""
        n, capacity = len(accessed), self.capacity_entries
        unlisted = np.count_nonzero(self.index.columns.stamp[accessed] < 0)
        if unlisted > capacity - self._listed and n > capacity:
            first = self._first_touch(accessed)
            self._first[accessed] = _NEVER
            if np.count_nonzero(first == np.arange(n)) > capacity:
                return list(range(capacity, n, capacity)) + [n]
        return [n] if n else []

    def _plan_segment(
        self, accessed: np.ndarray, batch_id: int, pending: list[int], plan: SimpleNamespace
    ) -> None:
        """Algorithm 2 for the accesses ``accessed`` (slots, in order), on
        metadata alone: decide, move nothing.

        Every access is applied as if the segment held no eviction: flush
        before the version advances if a pending checkpoint still needs
        the current state (Alg. 2 lines 13-15: the row owes one,
        :meth:`_owing`), stamp the batch id, touch; a slot that is not
        listed *arrives* at its first access — loaded if PMem-resident,
        listed either way. With an admission filter, the accesses of the
        slots that are PMem-resident when the segment starts ask it once,
        together; a slot it turns away stays in PMem, untouched. Only
        then are the evictions the arrivals owe chosen
        (:meth:`_victims`): listed slots the segment does not touch, so
        none of its rows leaves and comes back. Nothing is written — no
        column, no planned move — before the pool is known to have room
        for every row the round flushes so far (counting a row that
        merely restates a stored version, which ``put`` would not charge).
        """
        columns, rule, admission = self.index.columns, self._rule, self.admission
        listed = columns.stamp[accessed] >= 0
        every = bool(listed.all())
        cold = ~listed if every else (columns.handle[accessed] & 1) != 0
        due = accessed[:0]
        if pending:
            resident = np.unique(accessed[~cold])
            due = resident[self._owing(resident, pending[-1])]
        if admission is not None and cold.any():
            # Admission filter (extension): a cold key it turns away stays
            # in PMem — its durable copy remains authoritative and its
            # version does not advance, so checkpoint bookkeeping is
            # untouched. Its next segment asks again.
            asked = np.flatnonzero(cold)
            barred = asked[~admission.admit_many(columns.key[accessed[asked]])]
            if len(barred):
                accessed, listed, cold = (
                    np.delete(column, barred) for column in (accessed, listed, cold)
                )
        arrivals = loads = victims = spared = accessed[:0]
        again = None  # CLOCK: the accesses after a slot's first, if any slot arrives
        if not every or self._listed > self.capacity_entries:
            first = self._first_touch(accessed)
            try:
                new = ~listed & (first == np.arange(len(accessed)))
                arrivals, loads, again = accessed[new], accessed[new & cold], accessed[~new]
                need = self._listed + len(arrivals) - self.capacity_entries
                if need > 0:
                    victims, spared = self._victims(need)
            finally:
                self._first[accessed] = _NEVER
        flushed = victims
        if len(victims) and self.config.track_dirty:
            flushed = victims[columns.dirty[victims]]
        plan.rows += len(due) + len(flushed)
        self.store.pool.require_free(plan.rows * self.store.entry_bytes)
        for slots in (due, flushed):  # the touches' flushes ahead of the evictions'
            if len(slots):
                plan.out.append((slots, columns.updated[slots], columns.row[slots]))
                columns.dirty[slots] = False
        plan.flushes += len(due) + len(flushed)
        columns.version[accessed] = batch_id
        self._newest = max(self._newest, batch_id)
        if len(loads):
            plan.loads.append(loads)
            columns.handle[loads] = loads << 1
            columns.row[loads] = -1  # lands when the round moves its rows
            columns.dirty[loads] = False
        if len(victims):
            rows = columns.row[victims]
            plan.freed.append(rows[rows >= 0])
            plan.evictions += len(victims)
            plan.candidates += len(victims) + len(spared)
            columns.handle[victims] = (victims << 1) | 1
            columns.stamp[victims] = columns.row[victims] = -1
        if rule.second_chance:
            # Set by every access but an arrival's own; spent by a
            # victim and by a candidate spared for it.
            columns.referenced[arrivals] = False
            columns.referenced[accessed if again is None else again] = True
            columns.referenced[victims] = columns.referenced[spared] = False
        self._stamp(accessed if rule.touch_restamps else np.concatenate([arrivals, spared]))
        self._listed += len(arrivals) - len(victims)

    def _victims(self, need: int) -> tuple[np.ndarray, np.ndarray]:
        """The ``need`` listed slots a segment evicts, in eviction order,
        and the ones CLOCK spares on the way, in the order it spares them.

        The candidates are the listed slots the segment does not touch
        (``_first`` is ``_NEVER``), oldest stamp first. LRU and FIFO take
        the oldest ``need``. CLOCK sweeps them: a referenced one is spared
        (its bit cleared, requeued as the newest, after what the segment
        lists) and the next one is asked; if the sweep passes every
        candidate, the spared ones come round again, unreferenced, in the
        order they were spared. A segment touches at most
        ``capacity_entries`` slots, so at least ``need`` candidates
        exist.
        """
        referenced = self.index.columns.referenced
        victims, spared, short = [], [], need
        for slots in self._candidates(2 * need + 64):
            slots = slots[self._first[slots] == _NEVER]
            if self._rule.second_chance:
                bits = referenced[slots]
                if len(free := np.flatnonzero(~bits)) >= short:
                    slots, bits = slots[: free[short - 1] + 1], bits[: free[short - 1] + 1]
                spared.append(slots[bits])
                slots = slots[~bits]
            victims.append(slots[:short])
            if not (short := short - len(victims[-1])):
                break
        victims = np.concatenate(victims)
        spared = np.concatenate(spared) if spared else victims[:0]
        if short:  # CLOCK came round to the candidates it spared
            victims, spared = np.concatenate([victims, spared[:short]]), spared[short:]
        return victims, spared

    def _candidates(self, chunk: int) -> Iterator[np.ndarray]:
        """Listed slots, oldest stamp first, in blocks — ``chunk`` of
        them, then twice that, …, so a round pays for the candidates it
        examines, not for sorting the cache."""
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
            yield slots
            chunk *= 2

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
                self._store_rows(slots, versions, np.take(self.arena.data, rows, axis=0))
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

        A push is first made one row per distinct key, keys ascending
        (:func:`~repro.core.sharding.summed_per_key`; one that already
        is, as every facade push and fold is, costs the order check), so
        each distinct entry takes one optimizer step and a push ahead of
        its rows touches them in ascending key order.
        A push of exactly the keys an ascending pull of this batch sent
        applies to the slots that pull resolved, unless a key has left
        the index since (the index's ``removals`` moved); any other push
        resolves its keys with one lookup. Returns the number of
        distinct entries updated, which ``metrics.updates`` counts too.

        Gradients are coerced to float32 here, at the aggregation
        boundary, so a float64 gradient cannot change the arithmetic
        (and the trained bits) relative to the float32 path. Decoded
        wire gradients may be read-only views; this path never mutates
        them.

        Raises:
            KeyNotFoundError: a key that was never pulled.
            ServerError: gradient shape mismatch.
        """
        grads = coerce_f32(checked_grads(grads, len(keys), self.dim))
        if len(keys) == 0:
            return 0
        keys, grads = summed_per_key(keys, grads)
        slots = self._pulled_slots(keys)
        if slots is None:
            slots = self.index.lookup(keys)
            if slots.min() < 0:
                raise KeyNotFoundError(int(keys[slots < 0][0]))
        columns = self.index.columns
        # Not expected in the normal pull -> maintain -> update order (a
        # round whose keys fit the cache leaves every one it admitted
        # resident) but reachable behind the admission filter, a round
        # larger than the cache or a lookahead: a PMem-resident key is
        # updated by read-modify-write through the store, which retains
        # checkpoint-protected versions.
        cold = np.flatnonzero(columns.handle[slots] & 1)
        if pending := self.coordinator.queue.pending():
            # Flush before the gradient lands what a pending checkpoint
            # still needs of a resident row (:meth:`_owing`). In the
            # serial flow its maintenance round already has; a push ahead
            # of its rows' rounds (async, lookahead) has not.
            warm = np.delete(slots, cold)
            self.flush_slots(warm[self._owing(warm, pending[-1])])
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
        block = np.take(self.arena.data, rows, axis=0)
        if len(cold):
            block[cold] = self.store.read_latest(columns.head[slots[cold]])[1]
        # The optimizer is elementwise: on contiguous copies of the two
        # halves it runs ~3x faster than on the block's strided ones.
        weights, state = block[:, : self.dim].copy(), block[:, self.dim :].copy()
        self.optimizer.apply_batch(weights, state if self.state_width else None, grads)
        block = np.concatenate([weights, state], axis=1)
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

        Resident slots that owe it (:meth:`_owing`), listed or not (a
        row a pull created is dirty before any round lists it), are
        flushed first, at most ``budget`` rows over the call (None:
        all); a flushed row owes nothing. When the budget cuts the owing
        rows, the oldest stamps go first; otherwise all of them go in
        one put, in slot order, since their order changes nothing. Stops at the first
        checkpoint still owed, or not below ``below``: a round at batch
        ``n`` runs before that batch's updates, so a checkpoint at or
        past ``n`` may still change. A flush the pool cannot hold is skipped (the
        checkpoint waits). Returns ``(rows flushed, checkpoints
        completed)``.
        """
        coordinator, drained, completed = self.coordinator, 0, []
        if (head := coordinator.head()) is None or head >= below:
            return drained, completed
        stamp = self.index.columns.stamp
        resident = np.flatnonzero(self.index.columns.row >= 0)  # a flush moves no row in or out
        with self.tracer.span("checkpoint.drain", track="checkpoint") as span:
            while (cp := coordinator.head()) is not None and cp < below:
                owing = resident[self._owing(resident, cp)]
                room = len(owing) if budget is None else min(len(owing), budget - drained)
                if room < len(owing):  # the budget cuts: oldest stamps first
                    owing = owing[np.argsort(stamp[owing])]
                try:
                    self.flush_slots(owing[:room])
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
        self.flush_slots(cached)
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
        weights = np.take(self.arena.data, columns.row[slots], axis=0)[:, : self.dim]
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

    def _pulled_slots(self, keys: np.ndarray) -> np.ndarray | None:
        """The slots this batch's ascending pull of exactly ``keys``
        resolved, if no key has left the index since; else None. The
        record goes either way: a push uses its pull's once."""
        record = self._pulled.pop((len(keys), int(keys[0]), int(keys[-1])), None)
        if record is None or record[2] != self.index.removals:
            return None
        return record[1] if np.array_equal(record[0], keys) else None

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

    def flush_slots(self, slots: np.ndarray) -> None:
        """Persist resident ``slots`` as one put, each under its
        ``updated`` (see :meth:`_owing`)."""
        if not len(slots):
            return
        columns = self.index.columns
        block = np.take(self.arena.data, columns.row[slots], axis=0)
        self._store_rows(slots, columns.updated[slots], block)
        columns.dirty[slots] = False
        self.metrics.pmem_flush_entries += len(slots)
        self.metrics.cache.flushes += len(slots)

    def _release(self, slots: np.ndarray) -> None:
        """Free the arena rows of ``slots``."""
        columns = self.index.columns
        rows = columns.row[slots]
        self.arena.free_many(rows[rows >= 0])
        columns.row[slots] = -1

