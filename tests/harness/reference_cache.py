"""Test oracle: the per-key, dict-backed DRAM cache.

This is the reference implementation the production
:class:`repro.core.cache.PipelinedCache` is compared against, bit for
bit (``tests/test_hotpath_equivalence.py``). It is the cache as it stood
before the arena became the only payload store, reduced to its per-key
path: every resident entry owns its own ``weights`` / ``opt_state``
numpy arrays, pull / maintain / update are plain loops over keys that
follow Algorithms 1 and 2 line by line, duplicate gradients are summed
in a dict and applied with one ``optimizer.apply`` per row. A round
evicts at the end of each chunk of its accesses (the whole round if its
entries fit the cache, else ``capacity_entries`` accesses), and spares
what the chunk touched; the per-access loop that evicts after
every access is kept beside it (``per_access=True``), as the reference
the LRU rule is held to.

It shares the checkpoint coordinator and the versioned store (through
``tests/harness/keyed_store.py``: the oracle addresses it by key) with
production but none of the hot-path code, and keeps the object-per-entry
leaves production retired for slot columns: ``tests/harness/entry.py``,
``lru.py`` and ``hash_index.py``. Tests install it on a built node with
:func:`install_reference_cache`; production has no seam for it.
"""

from __future__ import annotations

from itertools import chain
from typing import Callable, Sequence

import numpy as np

from repro.config import CacheConfig, EvictionPolicy
from repro.core.admission import FrequencyAdmission
from repro.core.cache import MaintainResult, PullResult
from repro.core.checkpoint import CheckpointCoordinator
from repro.core.entry import Location
from repro.core.optimizers import PSOptimizer, PSSGD, coerce_f32
from repro.core.ps_node import PSNode
from repro.core.queues import AccessQueue
from repro.errors import KeyNotFoundError, OutOfSpaceError, ServerError
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.pmem.space import VersionedEntryStore
from repro.simulation.metrics import Metrics
from tests.harness.entry import EmbeddingEntry
from tests.harness.hash_index import HashIndex
from tests.harness.keyed_store import KeyedStore
from tests.harness.lru import LRUList


class ReferenceEntry(EmbeddingEntry):
    """An entry that owns its payload arrays (None while PMem-resident)."""

    __slots__ = ("weights", "opt_state")

    def __init__(self, key: int, version: int = -1):
        super().__init__(key, version)
        self.weights: np.ndarray | None = None
        self.opt_state: np.ndarray | None = None


class EntryAccessQueue(AccessQueue):
    """The access queue, carrying lists of entry objects (production's
    carries slot arrays)."""

    def pop_batch(self, batch_id: int) -> list[EmbeddingEntry]:
        return list(chain.from_iterable(self._drain(batch_id)))

    def discard(self, entry: EmbeddingEntry) -> None:
        for __, task in self._tasks:
            task[:] = [queued for queued in task if queued is not entry]


class ReferenceCache:
    """Per-key DRAM cache over a versioned PMem store (Figures 4 and 5).

    Args:
        config: capacity / policy / pipelining flags.
        store: the PMem-side versioned entry store.
        coordinator: checkpoint request/completion tracking.
        dim: embedding dimension.
        initializer: the production block callable (``uint64[n] keys ->
            float32[n, dim]``), which the oracle calls with one key at a
            time.
        optimizer: PS-side update rule (default plain SGD).
        metrics: statistics sink (a fresh one is created if omitted).
        tracer: span/event sink — maintenance rounds become
            ``cache.maintain`` spans, per-entry PMem traffic becomes
            ``pmem.store`` / ``pmem.load`` instants, and checkpoint
            completion a ``checkpoint.drain`` span with one
            ``checkpoint.completed`` instant per checkpoint.
        per_access: run a round as the per-access loop
            (:meth:`_maintain_per_access`) instead of in chunks.
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
        per_access: bool = False,
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
        self.lru = LRUList()
        self.access_queue = EntryAccessQueue()
        self.capacity_entries = config.capacity_entries(self._stored_bytes())
        self.admission = (
            FrequencyAdmission(config.admission_threshold)
            if config.admission_threshold > 0
            else None
        )
        self.per_access = per_access
        self.reloads = self.reload_flushes = 0

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
        if isinstance(keys, np.ndarray):
            keys = keys.tolist()
        out = np.empty((len(keys), self.dim), dtype=np.float32)
        entries: list[EmbeddingEntry] = []
        hits = misses = created = 0
        for i, key in enumerate(keys):
            entry = self.index.find(key)
            if entry is None:
                entry = self._create_entry(key, batch_id)
                created += 1
            elif entry.in_dram:
                hits += 1
            else:
                misses += 1
            out[i] = self._read_weights(entry)
            entries.append(entry)
        self.access_queue.append(batch_id, entries)
        self.metrics.pulls += len(keys)
        self.metrics.cache.hits += hits
        self.metrics.cache.misses += misses
        self.metrics.entries_created += created
        return PullResult(weights=out, hits=hits, misses=misses, created=created)

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
            result = (self._maintain_per_access if self.per_access else self._maintain)(batch_id)
            span.set(
                processed=result.processed,
                loads=result.loads,
                flushes=result.flushes,
                evictions=result.evictions,
            )
            return result

    def _maintain(self, batch_id: int) -> MaintainResult:
        """The round in chunks (:meth:`_chunks`): each access as
        Algorithm 2 has it, then the chunk's evictions, which spare what
        the chunk touched. With an admission filter, the accesses of the
        entries that are PMem-resident when a chunk starts ask it
        together."""
        entries = self.access_queue.pop_batch(batch_id)
        counts = [0, 0, 0]  # loads, flushes, evictions
        for chunk in self._chunks(entries):
            admitted = None
            if self.admission is not None:
                cold = [entry.key for entry in chunk if not entry.in_dram]
                admitted = {key for key, ok in zip(cold, self.admission.admit_many(cold)) if ok}
            for entry in chunk:
                self._access(entry, batch_id, counts, admitted)
            self._evict_to_capacity(counts, spare={id(entry) for entry in chunk})
        return self._close_round(batch_id, len(entries), counts)

    def _maintain_per_access(self, batch_id: int) -> MaintainResult:
        """The round as a per-access loop: Algorithm 2 line by line, an
        eviction check after every access, the admission filter asked at
        every cold access. Under LRU it is the chunked round plus the
        evictions of rows a chunk touches again, each of which comes
        back within that chunk. ``reloads`` counts those loads;
        ``reload_flushes`` the flushes the chunked round saves by not
        evicting them: what those evictions cost (but a pending
        checkpoint's, which the chunked round pays at the touch), less
        the flushes a later eviction of the same row in the round then
        skips (the reload left this loop's copy clean; the chunked
        round's is still dirty and pays there)."""
        entries = self.access_queue.pop_batch(batch_id)
        counts = [0, 0, 0]
        cleaned = set()  # ids a flushed eviction and a reload left clean
        for chunk in self._chunks(entries):
            self.evicted: dict[int, bool] = {}  # id -> its flush is saved, this chunk
            for entry in chunk:
                admitted = None
                if self.admission is not None and not entry.in_dram:
                    admitted = {entry.key} if self.admission.should_admit(entry.key) else set()
                if id(entry) in self.evicted and (admitted is None or admitted):  # it comes back
                    self.reloads += 1
                    if self.evicted.pop(id(entry)):
                        self.reload_flushes += 1
                        cleaned.add(id(entry))
                self._access(entry, batch_id, counts, admitted)
                self._evict_to_capacity(counts)
            for gone, flushed in self.evicted.items():  # evicted for good
                if gone in cleaned:
                    cleaned.discard(gone)
                    self.reload_flushes -= not flushed
        return self._close_round(batch_id, len(entries), counts)

    def _chunks(self, entries: list) -> list[list]:
        """The round's accesses as consecutive chunks: one if its entries
        fit the cache, else ``capacity_entries`` accesses each, so an
        entry the chunk does not touch is always there to evict."""
        step = len(entries) or 1
        if len({id(entry) for entry in entries}) > self.capacity_entries:
            step = self.capacity_entries
        return [entries[lo : lo + step] for lo in range(0, len(entries), step)]

    def _access(self, entry, batch_id: int, counts: list[int], admitted) -> None:
        """One access of the round (Alg. 2 lines 12-21)."""
        if entry.in_dram:
            if self._owes_pending(entry):
                # The entry's current weights are the state a pending
                # checkpoint still needs; persist them before the
                # version advances (Alg. 2 lines 13-15).
                self._flush(entry)
                counts[1] += 1
        elif admitted is not None and entry.key not in admitted:
            # Admission filter (extension): a cold key stays in PMem —
            # its durable copy remains authoritative and its version
            # does not advance, so checkpoint bookkeeping is untouched.
            return
        else:
            self._load_to_dram(entry)
            counts[0] += 1
        entry.version = batch_id
        self._reorder(entry)

    def _close_round(self, batch_id: int, processed: int, counts: list[int]) -> MaintainResult:
        """Complete what the round let complete (:meth:`_drain`)."""
        loads, flushes, evictions = counts
        drained, completed = self._drain(processed, below=batch_id)
        return MaintainResult(
            processed=processed,
            loads=loads,
            flushes=flushes + drained,
            evictions=evictions,
            checkpoints_completed=len(completed),
        )

    # ------------------------------------------------------------------
    # update (push) path
    # ------------------------------------------------------------------

    def update(
        self,
        keys: Sequence[int],
        grads: np.ndarray,
        batch_id: int,
    ) -> int:
        """Apply pushed gradients for batch ``batch_id``.

        Duplicate keys within one push have their gradients summed
        before a single optimizer application — standard sparse-gradient
        aggregation — and the keys are applied in ascending order, the
        order the production cache touches them in. Returns the number
        of distinct entries updated;
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
        grads = np.asarray(grads)
        if grads.shape != (n, self.dim):
            raise ServerError(f"gradient shape {grads.shape} != ({n}, {self.dim})")
        grads = coerce_f32(grads)
        if isinstance(keys, np.ndarray):
            keys = keys.tolist()
        aggregated = self._aggregate(keys, grads)
        for key, grad in sorted(aggregated.items()):
            entry = self.index.find(key)
            if entry is None:
                raise KeyNotFoundError(key)
            if entry.in_dram:
                if self._owes_pending(entry):
                    # Persist what a pending checkpoint still needs before
                    # the gradient changes it. In the strictly serial flow
                    # the entry's maintenance round already has.
                    self._flush(entry)
                if batch_id > entry.version:
                    # Lookahead flow: this entry's pull for ``batch_id``
                    # was served from a prefetch buffer, so no
                    # maintenance round advanced it: advance the version
                    # and reorder here so the LRU keeps its version order.
                    entry.version = batch_id
                    self._reorder(entry)
                self.optimizer.apply(entry.weights, entry.opt_state, grad)
                entry.dirty = True
            else:
                # Not expected in the normal pull -> maintain -> update
                # order (maintenance loads every accessed entry), but
                # kept for robustness: read-modify-write through the
                # store, which retains checkpoint-protected versions.
                self._update_in_pmem(entry, grad, batch_id)
            if batch_id > entry.updated:
                entry.updated = batch_id
        self.metrics.updates += len(aggregated)
        return len(aggregated)

    # ------------------------------------------------------------------
    # barriers / draining
    # ------------------------------------------------------------------

    def complete_pending_checkpoints(self) -> list[int]:
        """The barrier: :meth:`_drain` with no bound. Returns the
        checkpoints completed, oldest first."""
        return self._drain(None)[1]

    def _drain(self, budget: int | None, below: int | None = None):
        """Complete the head checkpoint while no listed entry owes it.

        Entries that owe it are flushed first, LRU end first and at most
        ``budget`` over the call (None: all of them); a flushed entry owes
        nothing. Stops at the first checkpoint still owed, or not below
        ``below`` (a round at batch ``n`` runs before that batch's
        updates). Returns ``(entries flushed, checkpoints completed)``.
        """
        coordinator = self.coordinator
        head = coordinator.head()
        if head is None or below is not None and head >= below:
            return 0, []
        drained, completed = 0, []
        with self.tracer.span("checkpoint.drain", track="checkpoint") as span:
            while (cp := coordinator.head()) is not None and (below is None or cp < below):
                owing = [entry for entry in reversed(list(self.lru)) if self._owes(entry, cp)]
                if owing:
                    room = len(owing) if budget is None else min(len(owing), budget - drained)
                    if room <= 0:
                        break
                    try:
                        for entry in owing[:room]:
                            self._flush(entry)
                    except OutOfSpaceError:
                        break  # skipped: the checkpoint waits for room
                    drained += room
                    if room < len(owing):
                        break
                completed.append(coordinator.complete_head())
                self.metrics.checkpoints_completed += 1
                self.tracer.instant("checkpoint.completed", track="checkpoint", batch=cp)
            self.metrics.checkpoint_drained_rows += drained
            span.set(rows=drained, budget=budget, completed=len(completed))
        return drained, completed

    def _owes(self, entry: EmbeddingEntry, barrier: int) -> bool:
        """Whether resident ``entry``'s state at checkpoint ``barrier`` —
        its state since ``entry.updated`` — is not durable yet. A flush
        stores an entry under ``updated``, so a clean entry's newest
        stored version is that state; a dirty entry's is nowhere. (Its
        ``version`` says nothing: read-only traffic advances it.)"""
        return entry.dirty and entry.updated <= barrier

    def _owes_pending(self, entry: EmbeddingEntry) -> bool:
        """Whether ``entry`` owes any pending checkpoint (the newest one
        if any: it owes every one at or after ``updated``)."""
        pending = self.coordinator.queue.pending()
        return bool(pending) and self._owes(entry, pending[-1])

    def drop_cache(self) -> int:
        """Flush and evict everything (leaves an empty, consistent cache)."""
        dropped = 0
        while len(self.lru) > 0:
            victim = self.lru.pop_victim()
            self._flush(victim)
            self._demote(victim)
            dropped += 1
        return dropped

    def adopt(self, key: int, version: int) -> None:
        """Register ``key`` as existing and PMem-resident at ``version``."""
        entry = ReferenceEntry(key, version=version)
        entry.location = Location.PMEM
        self.index.insert(entry)

    def adopt_many(self, keys: Sequence[int], versions: Sequence[int]) -> None:
        for key, version in zip(keys, np.asarray(versions).tolist()):
            self.adopt(int(key), version)

    def drop_entry(self, entry: EmbeddingEntry) -> None:
        """Remove ``entry`` from every cache structure (ownership drop).

        Used when a key leaves the node entirely (shard migration): the
        LRU link and index handle go at once. The caller drops the
        durable versions from the store.
        """
        if entry.in_lru:
            self.lru.remove(entry)
        self.access_queue.discard(entry)
        self.index.remove(entry.key)
        entry.weights = None
        entry.opt_state = None

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    @property
    def cached_entries(self) -> int:
        return len(self.lru)

    def cached_keys(self) -> list[int]:
        """Keys currently DRAM-resident, MRU first."""
        return [entry.key for entry in self.lru]

    def read_current_weights(self, key: int) -> np.ndarray:
        """The live weights of ``key`` regardless of tier (testing aid).

        Raises:
            KeyNotFoundError: unknown key.
        """
        entry = self.index.find(key)
        if entry is None:
            raise KeyNotFoundError(key)
        return np.array(self._read_weights(entry), copy=True)

    def state_snapshot(self) -> dict[int, np.ndarray]:
        """Copy of every key's live weights, any tier."""
        return {
            entry.key: self.read_current_weights(entry.key)
            for entry in self.index.entries()
        }

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

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    def _stored_bytes(self) -> int:
        """Bytes one entry occupies (weights + optimizer state)."""
        width = self.dim + self.optimizer.state_width(self.dim)
        return max(1, width) * 4

    def _create_entry(self, key: int, batch_id: int) -> EmbeddingEntry:
        entry = ReferenceEntry(key, version=batch_id)
        one = np.array([key], dtype=np.uint64)
        weights = np.asarray(self.initializer(one), dtype=np.float32)[0]
        if weights.shape != (self.dim,):
            raise ServerError(
                f"initializer returned shape {weights.shape}, want ({self.dim},)"
            )
        entry.weights = weights
        entry.opt_state = self.optimizer.init_state(self.dim)
        entry.location = Location.DRAM
        entry.dirty = True
        self.index.insert(entry)
        return entry

    def _read_weights(self, entry: EmbeddingEntry) -> np.ndarray:
        if entry.in_dram:
            return entry.weights
        return self._read_row(entry.key)[: self.dim]

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

    def _flush(self, entry: EmbeddingEntry) -> None:
        """Persist the entry's current state under ``entry.updated``, the
        batch it is the state of (not the last access: read-only traffic
        moves ``version`` past the state, and a checkpoint between the
        two must find the row)."""
        if not entry.in_dram:
            raise ServerError(f"cannot flush non-resident entry {entry.key}")
        self._put_row(entry.key, entry.updated, self._pack(entry))
        entry.dirty = False
        self.metrics.pmem_flush_entries += 1
        self.metrics.cache.flushes += 1
        self.tracer.instant(
            "pmem.store", track="pmem", key=entry.key, version=entry.version
        )

    def _load_to_dram(self, entry: EmbeddingEntry) -> None:
        """Algorithm 2 ``loadToDRAM``: promote the newest PMem version."""
        if entry.in_dram:
            raise ServerError(f"entry {entry.key} already resident")
        stored = self._read_row(entry.key)
        self._unpack(entry, stored)
        self.index.set_location(entry, Location.DRAM)
        entry.dirty = False
        self.metrics.cache.loads += 1
        self.tracer.instant("pmem.load", track="pmem", key=entry.key)

    def _demote(self, entry: EmbeddingEntry) -> None:
        self.index.set_location(entry, Location.PMEM)
        entry.weights = None
        entry.opt_state = None

    def _evict_to_capacity(self, counts: list[int], spare=frozenset()) -> None:
        """Evict victims until within capacity, counting evictions and
        flushes into ``counts``; never one whose ``id`` is in ``spare``.
        Completing a checkpoint is not a victim's business:
        :meth:`_drain` decides it after the round."""
        while len(self.lru) > self.capacity_entries:
            victim = self._select_victim(spare)
            self.lru.remove(victim)
            # (A flush the victim owes a pending checkpoint is one the
            # chunked round pays at its touch instead.)
            owed = self._owes_pending(victim)
            flushed = victim.dirty or not self.config.track_dirty
            if flushed:
                self._flush(victim)
                counts[1] += 1
            self._demote(victim)
            counts[2] += 1
            self.metrics.cache.evictions += 1
            if self.per_access:
                self.evicted[id(victim)] = flushed and not owed

    def _select_victim(self, spare) -> EmbeddingEntry:
        """The entry to evict under the configured policy: the oldest one
        not spared. CLOCK gives a referenced one a second chance instead
        (bit cleared, moved to the front) and asks again."""
        while True:
            candidate = self.lru.peek_victim()
            while id(candidate) in spare:
                candidate = candidate.lru_prev
            if self.config.policy != EvictionPolicy.CLOCK or not candidate.referenced:
                return candidate
            candidate.referenced = False
            self.lru.move_to_front(candidate)

    def _update_in_pmem(
        self,
        entry: EmbeddingEntry,
        grad: np.ndarray,
        batch_id: int,
    ) -> None:
        stored = self._read_row(entry.key)
        state = stored[self.dim :] if stored.size > self.dim else None
        self.optimizer.apply(stored[: self.dim], state, grad)
        self._put_row(entry.key, max(entry.updated, batch_id), stored)
        self.metrics.pmem_flush_entries += 1

    # The store speaks blocks; the oracle moves one row at a time, so
    # it goes through this length-1 adapter.

    def _read_row(self, key: int) -> np.ndarray:
        return self.store.read_latest([key])[1][0]

    def _put_row(self, key: int, version: int, packed: np.ndarray) -> None:
        self.store.put([key], version, packed[None, :])

    def _pack(self, entry: EmbeddingEntry) -> np.ndarray:
        if entry.opt_state is None:
            return entry.weights
        return np.concatenate([entry.weights, entry.opt_state])

    def _unpack(self, entry: EmbeddingEntry, stored: np.ndarray) -> None:
        entry.weights = np.array(stored[: self.dim], copy=True)
        if stored.size > self.dim:
            entry.opt_state = np.array(stored[self.dim :], copy=True)
        else:
            entry.opt_state = None

    @staticmethod
    def _aggregate(keys: Sequence[int], grads: np.ndarray) -> dict[int, np.ndarray]:
        """Sum duplicate keys' gradients, in occurrence order."""
        aggregated: dict[int, np.ndarray] = {}
        for i, key in enumerate(keys):
            if key in aggregated:
                aggregated[key] = aggregated[key] + grads[i]
            else:
                aggregated[key] = np.array(grads[i], copy=True)
        return aggregated


class _KeyedNode(PSNode):
    """The node calls that resolve a key to its durable chain, by key.

    Production resolves through the ``head`` column of its slot index;
    the oracle's index holds entry objects, so its node asks the
    :class:`~tests.harness.keyed_store.KeyedStore` it carries instead —
    the bodies these methods had while the store kept its own key map.
    """

    def export_entries(self, keys):
        return self.store.export([int(key) for key in keys])

    def ingest_entries(self, block) -> int:
        counts = block.nversions.astype(np.intp)
        held = np.flatnonzero(counts)
        keys = block.keys[held].tolist()
        self.drop_keys(keys)
        self.store.ingest(block)
        if keys:
            starts = (np.cumsum(counts) - counts)[held]
            self.cache.adopt_many(keys, np.maximum.reduceat(block.batch_ids, starts))
        return len(keys)

    def drop_keys(self, keys) -> int:
        dropped = 0
        for key in keys:
            entry = self.cache.index.find(int(key))
            if entry is not None:
                self.cache.drop_entry(entry)
                self.store.drop_key(int(key))
                dropped += 1
        return dropped


def install_reference_cache(node, per_access: bool = False):
    """Swap ``node``'s cache for a :class:`ReferenceCache` (``per_access``:
    see there); returns ``node``.

    Must run on a freshly built node, before any key exists: the oracle
    shares the node's store (behind a key-taking face: the ``key ->
    head`` dict is the oracle's), coordinator, optimizer, initializer
    and metrics, but starts with its own empty index.
    """
    cache = node.cache
    if len(cache.index) != 0:
        raise ServerError("install_reference_cache needs an empty node")
    node.__class__ = _KeyedNode
    node.store = KeyedStore(cache.store)
    node.cache = ReferenceCache(
        cache.config,
        node.store,
        cache.coordinator,
        dim=cache.dim,
        initializer=cache.initializer,
        optimizer=cache.optimizer,
        metrics=cache.metrics,
        tracer=cache.tracer,
        per_access=per_access,
    )
    return node
