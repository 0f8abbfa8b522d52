"""Metrics collection: cache statistics and the stat bundles nodes,
channels and the prefetch pipeline count into."""

from __future__ import annotations

from dataclasses import dataclass, field, fields


class _Additive:
    """A dataclass of counters: ``merge`` adds field by field, ``reset``
    returns every field to its default; nested bundles recurse."""

    def merge(self, other) -> None:
        """Accumulate another bundle of the same type into this one."""
        for spec in fields(self):
            mine = getattr(self, spec.name)
            if isinstance(mine, _Additive):
                mine.merge(getattr(other, spec.name))
            elif isinstance(mine, (int, float)):
                setattr(self, spec.name, mine + getattr(other, spec.name))

    def reset(self) -> None:
        for spec in fields(self):
            mine = getattr(self, spec.name)
            if isinstance(mine, _Additive):
                mine.reset()
            elif isinstance(mine, (int, float)):
                setattr(self, spec.name, spec.default)


@dataclass
class CacheStats(_Additive):
    """Hit/miss accounting for a DRAM cache."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    flushes: int = 0
    loads: int = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def miss_rate(self) -> float:
        """Fraction of accesses that missed (0.0 when no accesses yet)."""
        if self.accesses == 0:
            return 0.0
        return self.misses / self.accesses


@dataclass
class RpcReliabilityStats(_Additive):
    """Retry/timeout/dedup observability for the RPC path: what
    :meth:`~repro.network.frontend.RemotePSClient.reliability` returns.

    Channels contribute ``retries`` / ``timeouts`` / ``wire_errors`` /
    ``backoff_seconds``; the services contribute ``dup_suppressed``
    (retried requests whose replay was absorbed by the dedup window)
    and fault-injection totals come from the link.
    """

    retries: int = 0
    timeouts: int = 0
    wire_errors: int = 0
    dup_suppressed: int = 0
    backoff_seconds: float = 0.0
    faults_injected: int = 0


@dataclass
class PrefetchStats(_Additive):
    """Observability for the lookahead prefetch pipeline.

    ``demand_keys`` are pulls that had to run on the critical path
    (batch keys not validly buffered); ``buffer_hits`` were served from
    the lookahead buffer without touching the backend; ``prefetch_keys``
    were pulled ahead of time in the overlap window; ``patched_keys``
    are pushed keys re-pulled to restore the staleness invariant;
    ``deduped_keys`` are window keys skipped because a valid buffered
    copy already existed. The ``demand_*`` and ``lookahead_*`` (prefetch
    + patch) outcomes are what the backend answered to the pipeline's
    own pulls, per cause.
    """

    demand_keys: int = 0
    buffer_hits: int = 0
    prefetch_keys: int = 0
    patched_keys: int = 0
    invalidated_keys: int = 0
    deduped_keys: int = 0
    batches: int = 0
    demand_hits: int = 0
    demand_misses: int = 0
    demand_created: int = 0
    lookahead_hits: int = 0
    lookahead_misses: int = 0
    lookahead_created: int = 0

    @property
    def hit_rate(self) -> float:
        """Fraction of trainer lookups served from the buffer."""
        total = self.demand_keys + self.buffer_hits
        if total == 0:
            return 0.0
        return self.buffer_hits / total

    def count_pull(self, result, lookahead: bool) -> None:
        """Add one backend :class:`~repro.core.cache.PullResult`."""
        if lookahead:
            self.lookahead_hits += result.hits
            self.lookahead_misses += result.misses
            self.lookahead_created += result.created
        else:
            self.demand_hits += result.hits
            self.demand_misses += result.misses
            self.demand_created += result.created


@dataclass
class Metrics(_Additive):
    """A bundle of all statistics one PS node collects.

    One ``Metrics`` object snapshots (and one :meth:`reset` clears) a
    node's cache, update, checkpoint, PMem and serving counters, and
    the requests its RPC service answered from the dedup window. The
    observability layer hoists the bundle into labeled registry metrics
    via :func:`repro.obs.registry.collect_bundle`.
    """

    cache: CacheStats = field(default_factory=CacheStats)
    #: retried requests answered from the node's dedup window
    dup_suppressed: int = 0
    pulls: int = 0
    updates: int = 0
    entries_created: int = 0
    checkpoints_completed: int = 0
    #: rows flushed because a pending checkpoint waited for them (the
    #: drain after a maintenance round, and the barrier)
    checkpoint_drained_rows: int = 0
    pmem_flush_entries: int = 0
    serving_lookups: int = 0
    serving_rows: int = 0
    serving_cold_rows: int = 0
