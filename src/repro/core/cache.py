"""The pipelined DRAM cache with co-designed checkpointing.

This module is the paper's core: Algorithm 1 (*Pull Weights*) and
Algorithm 2 (*Cache Replacement & Checkpoint*), plus the update path.

The functional contract (independent of timing):

* ``pull(keys, n)`` serves weights from DRAM or PMem and enqueues the
  accessed entries on the access queue — it never mutates the LRU list
  or moves data between tiers (that is deferred, the "pipeline").
* ``maintain(n)`` is one cache-maintainer round for batch ``n``: flush
  entries whose version is covered by an outstanding checkpoint, advance
  versions, reorder the LRU, load missed entries into DRAM and evict
  victims — completing the on-going checkpoint when the victim's version
  has moved past it (Algorithm 2 lines 22-28).
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

**One hot path.** Every DRAM-resident payload is one row of a
contiguous :class:`~repro.core.arena.EmbeddingArena` (``weights ||
optimizer state``); entries carry only metadata and their row number.
``pull`` and ``update`` each have a single body: probe the residency map
for the whole batch at once, resolve the positions that are not resident
(create the key into a fresh row / read its PMem row / read-modify-write
it through the store), then serve the batch with one fancy-index gather,
or one ``np.unique`` segment-sum and one ``apply_batch`` — an all-hit
batch is simply the case where the non-resident set is empty.

``maintain`` is **plan-then-move**. One metadata pass over the round's
accessed entries does everything Algorithm 2 decides — flush-before-
advance under a pending checkpoint, version advance, LRU / CLOCK / FIFO
reorder, admission, loads, victim selection, checkpoint completion —
on the entries alone, recording which rows leave DRAM and which keys
arrive. The data then moves in bulk: gather the leaving rows from the
arena, one ``store.put``, one ``store.read_latest``, one arena scatter.
Every planned flush is durable before ``complete_head()`` persists the
Checkpointed Batch ID. ``_maintain_fast`` is a shortcut the cache takes
when the state it observes (LRU policy, no pending checkpoint, every
accessed entry resident, no eviction possible) reduces the round to a
reorder. ``tests/harness/reference_cache.py`` holds the per-key,
dict-backed oracle the equivalence suites compare this module against.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.config import CacheConfig, EvictionPolicy
from repro.core.admission import FrequencyAdmission
from repro.core.arena import EmbeddingArena
from repro.core.checkpoint import CheckpointCoordinator
from repro.core.entry import EmbeddingEntry, Location
from repro.core.hash_index import HashIndex
from repro.core.lru import LRUList
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


_ROW = operator.attrgetter("row")
_FLUSH_ROW = operator.itemgetter(2)  # of a planned flush, see _plan_then_move


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
        self.lru = LRUList()
        self.access_queue = AccessQueue()
        self.state_width = self.optimizer.state_width(dim)
        self.capacity_entries = config.capacity_entries(self._stored_bytes())
        self.admission = (
            FrequencyAdmission(config.admission_threshold)
            if config.admission_threshold > 0
            else None
        )
        # The payload store; metadata-only mode has no payloads at all.
        self.arena = (
            EmbeddingArena(dim, self.state_width) if initializer is not None else None
        )
        # DRAM-residency map: exactly the entries whose location is
        # DRAM (in value mode each holds an arena row in ``entry.row``).
        # It mirrors ``index`` state and exists so pull/update can probe
        # a whole batch with one C-level ``map(dict.get)``.
        self._dram: dict[int, EmbeddingEntry] = {}

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
        if isinstance(keys, np.ndarray):
            keys = keys.tolist()
        n = len(keys)
        entries = list(map(self._dram.get, keys))
        misses = created = 0
        cold: list[int] = []
        if not all(entries):  # some probe came back None (entries are truthy)
            misses, created, cold = self._resolve_nonresident(keys, entries, batch_id)
        out = None
        if self.arena is not None:
            # A PMem-resident entry's row is -1: the gather reads some
            # valid row for it, and its stored weights overwrite that.
            rows = np.asarray(list(map(_ROW, entries)), dtype=np.intp)
            out = self.arena.data[rows, : self.dim]
            if cold:
                stored = self.store.read_latest([keys[i] for i in cold])[1]
                out[cold] = stored[:, : self.dim]
        hits = n - misses - created
        self.access_queue.append(batch_id, entries)
        self.metrics.pulls += n
        self.metrics.cache.hits += hits
        self.metrics.cache.misses += misses
        self.metrics.entries_created += created
        return PullResult(weights=out, hits=hits, misses=misses, created=created)

    def _resolve_nonresident(
        self,
        keys: Sequence[int],
        entries: list[EmbeddingEntry | None],
        batch_id: int,
    ) -> tuple[int, int, list[int]]:
        """Fill the ``None`` positions of a pull's residency probe.

        An unseen key is created into an arena row (a repeat of it later
        in the same pull is then a hit); a PMem-resident key is a miss.
        Returns ``(misses, created, cold)`` with ``cold`` the position
        of every miss — the rows the pull reads from the store.
        """
        created = 0
        cold: list[int] = []
        for i, entry in enumerate(entries):
            if entry is not None:
                continue
            key = keys[i]
            entry = self.index.find(key)
            if entry is None:
                if not self.auto_create:
                    raise KeyNotFoundError(key)
                entry = self._create_entry(key, batch_id)
                created += 1
            elif not entry.in_dram:
                cold.append(i)
            entries[i] = entry
        return len(cold), created, cold

    # ------------------------------------------------------------------
    # Algorithm 2: deferred cache maintenance + checkpointing
    # ------------------------------------------------------------------

    def maintain(self, batch_id: int) -> MaintainResult:
        """Run the cache-maintainer round for batch ``batch_id``.

        Must be called after all pulls of the batch completed and before
        the batch's updates are applied — the write lock in Algorithm 2
        enforces exactly this ordering in the real system.
        """
        with self.tracer.span("cache.maintain", batch=batch_id) as span:
            result = self._maintain(batch_id)
            span.set(
                processed=result.processed,
                loads=result.loads,
                flushes=result.flushes,
                evictions=result.evictions,
            )
            return result

    def _maintain(self, batch_id: int) -> MaintainResult:
        entries = self.access_queue.pop_batch(batch_id)
        if (
            entries
            and self.config.policy == EvictionPolicy.LRU
            and self.coordinator.max_pending() is None
        ):
            fast = self._maintain_fast(entries, batch_id)
            if fast is not None:
                return fast
        return self._plan_then_move(entries, batch_id)

    def _plan_then_move(
        self, entries: list[EmbeddingEntry], batch_id: int
    ) -> MaintainResult:
        """Algorithm 2 for one round: plan on metadata, move rows in bulk.

        The plan pass is the oracle's per-entry loop with every store
        and arena access replaced by a note of it; list order, versions,
        dirty bits and counters come out exactly as if each row had
        moved the moment it was planned. A row's bytes cannot change
        inside a round (no update runs), which is what lets the moves
        be reordered into blocks:

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
        policy = self.config.policy
        lru_policy = policy == EvictionPolicy.LRU
        clock_policy = policy == EvictionPolicy.CLOCK
        flush_clean = not self.config.track_dirty
        capacity = self.capacity_entries
        value_mode = self.arena is not None
        lru, dram, admission = self.lru, self._dram, self.admission
        reorder = lru.move_to_front if lru_policy else self._reorder
        in_dram, in_pmem = Location.DRAM, Location.PMEM
        # Local view of the request queue: planned completions pop its
        # head, and the flush barrier (its tail) changes only then.
        pending = self.coordinator.queue.pending()
        flush_barrier = pending[-1] if pending else None

        # Planned flushes: (key, version to store it under, the arena
        # row holding it — negative when the row arrived this round).
        out: list[tuple[int, int, int]] = []
        loads: list[EmbeddingEntry] = []
        load_keys: list[int] = []
        moved: dict[int, Location] = {}  # entry slot -> tier it ended in
        freed_rows: list[int] = []
        flushes = evictions = completed = transient = 0
        size = len(lru)

        for entry in entries:
            if entry.location is in_dram:
                if flush_barrier is not None and entry.version <= flush_barrier:
                    # The entry's current weights are the state the
                    # on-going checkpoint must capture; persist them
                    # before the version advances (Alg. 2 lines 13-15).
                    out.append((entry.key, entry.version, entry.row))
                    entry.dirty = False
                    flushes += 1
            else:
                if admission is not None and not admission.should_admit(entry.key):
                    # Admission filter (extension): a cold key stays in
                    # PMem — its durable copy remains authoritative and
                    # its version does not advance, so checkpoint
                    # bookkeeping is untouched.
                    continue
                # Algorithm 2 ``loadToDRAM``: promote the newest version.
                loads.append(entry)
                load_keys.append(entry.key)
                entry.location = moved[entry.slot] = in_dram
                entry.dirty = False
                dram[entry.key] = entry
            entry.version = batch_id
            if not entry.in_lru:
                size += 1
            reorder(entry)
            while size > capacity:
                victim = lru.peek_victim()
                if clock_policy:
                    # Sweep from the tail; referenced entries get a
                    # second chance (bit cleared, moved to the front).
                    while victim.referenced:
                        victim.referenced = False
                        lru.move_to_front(victim)
                        victim = lru.peek_victim()
                if pending and victim.version > pending[0]:
                    # Algorithm 2 lines 23-28: once the oldest cached
                    # version has moved past the on-going checkpoint,
                    # every entry it needs is (planned) durable. The
                    # paper's one-comparison test is sound ONLY under
                    # LRU, where list order equals version order; FIFO
                    # and CLOCK keep insertion order, so they scan for
                    # the true minimum cached version instead.
                    floor = (
                        victim.version
                        if lru_policy
                        else min(cached.version for cached in lru)
                    )
                    while pending and floor > pending[0]:
                        del pending[0]
                        completed += 1
                    flush_barrier = pending[-1] if pending else None
                lru.remove(victim)
                size -= 1
                if victim.dirty or flush_clean:
                    out.append((victim.key, victim.version, victim.row))
                    victim.dirty = False
                    flushes += 1
                if pending:
                    barrier = _backfill_barrier(victim, pending)
                    if barrier is not None:
                        out.append((victim.key, barrier, victim.row))
                victim.location = moved[victim.slot] = in_pmem
                del dram[victim.key]
                if victim.row >= 0:
                    freed_rows.append(victim.row)
                    victim.row = -1
                elif value_mode:
                    transient += 1
                evictions += 1

        late: list[tuple[int, int, int]] = []
        if value_mode and out and min(map(_FLUSH_ROW, out)) < 0:
            late = [flush for flush in out if flush[2] < 0]
            out = [flush for flush in out if flush[2] >= 0]
        if out:
            keys, versions, rows = zip(*out)
            self._store_rows(keys, versions, self._gather(list(rows)))
        block = None
        if loads:
            block = self._load_rows(load_keys)
        if late or transient:
            # key -> index of its last load (any of its loads read the
            # same bytes; the last one is the one that may land).
            loaded_at = {key: i for i, key in enumerate(load_keys)}
        if late:
            keys, versions, __ = zip(*late)
            self._store_rows(keys, versions, block[[loaded_at[key] for key in keys]])
        for __ in range(completed):
            head = self.coordinator.complete_head()
            self.metrics.checkpoints_completed += 1
            self.tracer.instant("checkpoint.completed", track="checkpoint", batch=head)
        if value_mode:
            self.arena.free_many(freed_rows)
            landing = loads
            if transient:
                # Some row arrived and left again inside the round: only
                # an entry's last load, and only if it stayed, lands.
                last = [
                    i
                    for i, entry in enumerate(loads)
                    if entry.location is in_dram and loaded_at[entry.key] == i
                ]
                landing, block = [loads[i] for i in last], block[last]
            if landing:
                rows = self.arena.alloc_many(len(landing))
                self.arena.data[rows] = block
                for entry, row in zip(landing, rows):
                    entry.row = row
        self.index.retag(moved)
        metrics = self.metrics
        metrics.pmem_load_entries += len(loads)
        metrics.cache.loads += len(loads)
        metrics.pmem_flush_entries += flushes
        metrics.cache.flushes += flushes
        metrics.cache.evictions += evictions
        return MaintainResult(
            processed=len(entries),
            loads=len(loads),
            flushes=flushes,
            evictions=evictions,
            checkpoints_completed=completed,
        )

    def _maintain_fast(
        self, entries: list[EmbeddingEntry], batch_id: int
    ) -> MaintainResult | None:
        """All-resident LRU round with no checkpoint or eviction work.

        Under those preconditions the per-entry loop degenerates to
        "advance version, move to front" per occurrence; processing only
        each entry's LAST occurrence (most recent first in reverse)
        lands on the identical final LRU order in one pass per entry.
        Returns None (no state mutated) when any accessed entry is
        cold or the round could evict.
        """
        # C-level dedup: first-seen in the reversed sequence is each
        # entry's last occurrence, newest first.
        uniq = list(dict.fromkeys(reversed(entries)))
        dram = Location.DRAM
        fresh = 0
        for entry in uniq:
            if entry.location is not dram:
                return None
            if not entry.in_lru:
                fresh += 1
        # The resident set only grows during a round, so its maximum is
        # the final size: no intermediate eviction is possible either.
        if len(self.lru) + fresh > self.capacity_entries:
            return None
        uniq.reverse()  # process oldest last-occurrence first
        self.lru.move_many_to_front(uniq, version=batch_id)
        return MaintainResult(
            processed=len(entries),
            loads=0,
            flushes=0,
            evictions=0,
            checkpoints_completed=0,
        )

    # ------------------------------------------------------------------
    # update (push) path
    # ------------------------------------------------------------------

    def update(
        self,
        keys: Sequence[int],
        grads: np.ndarray | None,
        batch_id: int,
    ) -> int:
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
                raise ServerError(
                    f"gradient shape {grads.shape} != ({n}, {self.dim})"
                )
            grads = coerce_f32(grads)
        if n == 0:
            return 0
        uniq, first_idx, inverse = np.unique(
            np.asarray(keys, dtype=np.uint64), return_index=True, return_inverse=True
        )
        key_list = uniq.tolist()
        entries = list(map(self._dram.get, key_list))
        # Not expected in the normal pull -> maintain -> update order
        # (maintenance loads every accessed entry) but reachable behind
        # the admission filter or a lookahead: a PMem-resident key is
        # updated by read-modify-write through the store, which retains
        # checkpoint-protected versions.
        cold: list[int] = []
        if not all(entries):
            for i, entry in enumerate(entries):
                if entry is None:
                    entries[i] = entry = self.index.find(key_list[i])
                    if entry is None:
                        raise KeyNotFoundError(key_list[i])
                    cold.append(i)
        # Per-entry bookkeeping. In the strictly serial flow maintain
        # already advanced every entry to ``batch_id``, so this is one
        # flag per entry; a push stamped ahead of its rows (or a cold
        # key, whose version stays behind) takes the second pass.
        advance = False
        for entry in entries:
            entry.dirty = True
            if batch_id > entry.updated:
                entry.updated = batch_id
            if batch_id > entry.version:
                advance = True
        if advance:
            # No maintenance round advanced these entries to
            # ``batch_id``. That is the normal case in async training —
            # a delayed push carries the scheduler step it is applied
            # in, ahead of the last round that maintained its rows —
            # and the lookahead case, where the pull was served from a
            # prefetch buffer. Apply maintain's flush-before-advance
            # rule here instead: persist the pre-update state if a
            # pending checkpoint still needs it, then advance the
            # version and reorder so the LRU keeps its version order
            # (the one-comparison checkpoint-completion test depends on
            # it). Entries go in first-occurrence order of the push,
            # which the reorder sequence (and so eviction order) follows.
            in_dram = Location.DRAM
            order = np.argsort(first_idx, kind="stable").tolist()
            advancing = [
                entry
                for entry in map(entries.__getitem__, order)
                if batch_id > entry.version and entry.location is in_dram
            ]
            flushed: list[EmbeddingEntry] = []
            flush_barrier = self.coordinator.max_pending()
            if flush_barrier is not None:
                flushed = [e for e in advancing if e.version <= flush_barrier]
                self._flush_entries(flushed, backfill=False)
            self._reorder_many(advancing, batch_id)
            for entry in flushed:
                entry.dirty = True  # the flush cleared it; final state is dirty
        block = None
        if self.arena is not None:
            # Segment-sum: the first occurrence of each key seeds its
            # row (a copy — decoded wire gradients may be read-only),
            # later duplicates accumulate in occurrence order.
            agg = grads[first_idx]
            if n != len(key_list):
                dup = np.ones(n, dtype=bool)
                dup[first_idx] = False
                np.add.at(agg, inverse[dup], grads[dup])
            rows = np.asarray(list(map(_ROW, entries)), dtype=np.intp)
            block = self.arena.data[rows]
            if cold:
                block[cold] = self.store.read_latest([key_list[i] for i in cold])[1]
            self.optimizer.apply_batch(
                block[:, : self.dim],
                block[:, self.dim :] if self.state_width else None,
                agg,
            )
            if cold:
                resident = rows >= 0
                self.arena.data[rows[resident]] = block[resident]
            else:
                self.arena.data[rows] = block
        if cold:
            self.store.put(
                [key_list[i] for i in cold],
                batch_id,
                None if block is None else block[cold],
            )
            for i in cold:
                entries[i].dirty = False  # the store holds this state
            self.metrics.pmem_flush_entries += len(cold)
        self.metrics.updates += len(key_list)
        return len(key_list)

    # ------------------------------------------------------------------
    # barriers / draining
    # ------------------------------------------------------------------

    def flush_all(self) -> int:
        """Durably flush every cached entry at its current version.

        Used at training barriers (epoch end, clean shutdown). Returns
        the number of entries flushed.
        """
        with self.tracer.span("cache.flush_all") as span:
            cached = list(self.lru)
            self._flush_entries(cached, backfill=True)
            span.set(flushed=len(cached))
            return len(cached)

    def complete_pending_checkpoints(self) -> list[int]:
        """Flush the cache and complete every queued checkpoint.

        The paper's system completes checkpoints opportunistically via
        evictions; at a barrier (or in tests) we force completion: after
        ``flush_all`` every pending snapshot is durable, so all queued
        requests can finish.
        """
        if self.coordinator.head() is None:
            return []
        self.flush_all()
        return self.coordinator.complete_all_pending()

    def drop_cache(self) -> int:
        """Flush and evict everything (leaves an empty, consistent cache)."""
        cached = list(self.lru)
        self._flush_entries(cached, backfill=True)
        for victim in cached:
            self.lru.remove(victim)
            self.index.set_location(victim, Location.PMEM)
            self._release(victim)
        return len(cached)

    def adopt(self, key: int, version: int) -> None:
        """Register ``key`` as existing and PMem-resident at ``version``.

        For keys whose durable rows reached the store from outside the
        training path (a migration transfer, a recovery scan, a restored
        checkpoint): the first pull is a miss and maintenance loads it.

        Raises:
            ServerError: the key is already indexed.
        """
        entry = EmbeddingEntry(key, version=version)
        entry.location = Location.PMEM
        self.index.insert(entry)

    def drop_entry(self, entry: EmbeddingEntry) -> None:
        """Remove ``entry`` from every cache structure (ownership drop).

        Used when a key leaves the node entirely (shard migration): the
        LRU link, residency map, arena row and index handle all go at
        once, so a batch probe can never resolve a departed key. The
        caller drops the durable versions from the store.
        """
        if entry.in_lru:
            self.lru.remove(entry)
        self._release(entry)
        self.index.remove(entry.key)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    @property
    def cached_entries(self) -> int:
        return len(self.lru)

    def cached_keys(self) -> list[int]:
        """Keys currently DRAM-resident, MRU first."""
        return [entry.key for entry in self.lru]

    def read_current_state(self, key: int) -> np.ndarray | None:
        """The live packed ``weights || optimizer state`` of ``key``
        regardless of tier, as a copy (None in metadata-only mode).

        Raises:
            KeyNotFoundError: unknown key.
        """
        entry = self.index.find(key)
        if entry is None:
            raise KeyNotFoundError(key)
        if entry.in_dram:
            return None if entry.row < 0 else self.arena.data[entry.row].copy()
        rows = self.store.read_latest([key])[1]
        return None if rows is None else rows[0]

    def read_current_weights(self, key: int) -> np.ndarray:
        """The live weights of ``key`` regardless of tier (testing aid).

        Raises:
            KeyNotFoundError: unknown key.
        """
        return self.read_current_state(key)[: self.dim]

    def validate(self) -> None:
        """Check cross-structure invariants; used by tests."""
        self.index.validate()
        self.lru.validate(
            check_version_order=self.config.policy == EvictionPolicy.LRU
        )
        for entry in self.lru:
            if not entry.in_dram:
                raise ServerError(f"listed entry {entry.key} marked PMEM")
        dram_count = sum(1 for e in self.index.entries() if e.in_dram)
        if dram_count != len(self.lru):
            raise ServerError(
                f"{dram_count} DRAM entries but {len(self.lru)} listed in LRU"
            )
        if len(self._dram) != dram_count:
            raise ServerError(
                f"{dram_count} DRAM entries but {len(self._dram)} in residency map"
            )
        for key, entry in self._dram.items():
            if not entry.in_dram or entry.key != key:
                raise ServerError(f"stale residency-map entry for key {key}")
        if self.arena is not None:
            rows = {entry.row for entry in self._dram.values()}
            if len(rows) != dram_count or len(self.arena) != dram_count or -1 in rows:
                raise ServerError(
                    f"{dram_count} DRAM entries hold {len(rows)} distinct arena "
                    f"rows of {len(self.arena)} allocated"
                )

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    def _stored_bytes(self) -> int:
        """Bytes one entry occupies (weights + optimizer state)."""
        return max(1, self.dim + self.state_width) * 4

    def _create_entry(self, key: int, batch_id: int) -> EmbeddingEntry:
        entry = EmbeddingEntry(key, version=batch_id)
        if self.arena is not None:
            weights = np.asarray(self.initializer(key), dtype=np.float32)
            if weights.shape != (self.dim,):
                raise ServerError(
                    f"initializer returned shape {weights.shape}, want ({self.dim},)"
                )
            entry.row = self.arena.alloc()
            packed = self.arena.data[entry.row]
            packed[: self.dim] = weights
            if self.state_width:
                packed[self.dim :] = self.optimizer.init_state(self.dim)
        entry.location = Location.DRAM
        entry.dirty = True
        self.index.insert(entry)
        self._dram[key] = entry
        return entry

    def _reorder(self, entry: EmbeddingEntry) -> None:
        if self.config.policy == EvictionPolicy.LRU:
            self.lru.move_to_front(entry)
            return
        # FIFO / CLOCK: insertion order only. CLOCK marks RE-accessed
        # entries referenced so eviction grants them a second chance;
        # fresh insertions start unreferenced (standard CLOCK), which is
        # what makes one-hit scan keys leave before warm entries.
        if not entry.in_lru:
            self.lru.push_front(entry)
            entry.referenced = False
        elif self.config.policy == EvictionPolicy.CLOCK:
            entry.referenced = True

    def _reorder_many(self, entries: list[EmbeddingEntry], version: int) -> None:
        """Stamp ``version`` on each of ``entries`` and :meth:`_reorder`
        it, in order — as one list splice under LRU."""
        if self.config.policy == EvictionPolicy.LRU:
            self.lru.move_many_to_front(entries, version=version)
            return
        for entry in entries:
            entry.version = version
            self._reorder(entry)

    def _gather(self, rows: list[int]) -> np.ndarray | None:
        """Copy of arena rows ``rows`` (None in metadata-only mode)."""
        return None if self.arena is None else self.arena.data[rows]

    def _store_rows(self, keys, versions, block: np.ndarray | None) -> None:
        """One bulk move DRAM -> PMem: ``block[i]`` becomes version
        ``versions[i]`` of ``keys[i]``."""
        self.store.put(keys, versions, block)
        self.tracer.instant(
            "pmem.store", track="pmem",
            rows=len(keys), bytes=len(keys) * self.store.entry_bytes,
        )

    def _load_rows(self, keys: list[int]) -> np.ndarray | None:
        """One bulk move PMem -> DRAM: the newest stored row of ``keys``."""
        block = self.store.read_latest(keys)[1]
        self.tracer.instant(
            "pmem.load", track="pmem",
            rows=len(keys), bytes=len(keys) * self.store.entry_bytes,
        )
        return block

    def _flush_entries(self, entries: list[EmbeddingEntry], backfill: bool) -> None:
        """Persist resident ``entries`` at their current versions, as one
        put; ``backfill`` adds the row a pending checkpoint still lacks
        (see :func:`_backfill_barrier`)."""
        if not entries:
            return
        keys = [entry.key for entry in entries]
        versions = [entry.version for entry in entries]
        rows = [entry.row for entry in entries]
        pending = self.coordinator.queue.pending() if backfill else ()
        if pending:
            for entry in entries:
                barrier = _backfill_barrier(entry, pending)
                if barrier is not None:
                    keys.append(entry.key)
                    versions.append(barrier)
                    rows.append(entry.row)
        self._store_rows(keys, versions, self._gather(rows))
        for entry in entries:
            entry.dirty = False
        self.metrics.pmem_flush_entries += len(entries)
        self.metrics.cache.flushes += len(entries)

    def _release(self, entry: EmbeddingEntry) -> None:
        """Drop ``entry`` from the residency map and free its arena row."""
        self._dram.pop(entry.key, None)
        if entry.row >= 0:
            self.arena.free(entry.row)
            entry.row = -1


def _backfill_barrier(entry: EmbeddingEntry, pending: Sequence[int]) -> int | None:
    """The pending checkpoint a flush of ``entry`` must also be stamped at.

    Read-only traffic (evaluation pulls, serving warm-up) advances
    ``entry.version`` without changing state. A checkpoint then
    requested at a barrier ``B < entry.version`` finds the flush
    stamped too new — ``read_at_most(key, B)`` misses the row even
    though the bytes *are* the state at ``B``, because nothing
    updated the entry since ``entry.updated <= B``. One extra version
    at the smallest such barrier fixes that; reads pinned to every
    higher pending barrier resolve to it too. Barriers below
    ``entry.updated`` were already served by flush-before-advance
    when the update landed.
    """
    for barrier in pending:
        if barrier >= entry.version:
            return None
        if barrier >= entry.updated:
            return barrier
    return None
