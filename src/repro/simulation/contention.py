"""Concurrency-contention cost models.

The paper's central scaling observation (Figures 3 and 7) is that
fine-grained cache structures maintained *inline* on the request path
degrade sharply as GPU workers multiply: every access takes a write
lock to update the LRU list, so the serialized section becomes the
bottleneck. OpenEmbedding's pull path is read-locked and the LRU
maintenance is deferred, so it scales.

These helpers turn "k concurrent requesters each needing an s-second
serialized section" into elapsed simulated time.
"""

from __future__ import annotations

from repro.errors import SimulationError


def serialized_section_time(
    ops: int,
    section_seconds: float,
    *,
    contenders: int = 1,
    contention_factor: float = 0.0,
) -> float:
    """Elapsed time for ``ops`` critical sections executed serially.

    A lock admits one holder at a time, so the base cost is
    ``ops * section_seconds`` regardless of thread count. Real locks
    degrade further under contention (cache-line bouncing, futex wakes);
    that is modelled as a per-op surcharge growing linearly with the
    number of contending threads:

    ``ops * section_seconds * (1 + contention_factor * (contenders - 1))``

    Args:
        ops: number of critical-section executions.
        section_seconds: duration of one uncontended section.
        contenders: threads competing for the lock.
        contention_factor: surcharge per extra contender (0 = ideal lock).
    """
    if ops < 0:
        raise SimulationError(f"negative op count {ops}")
    if section_seconds < 0:
        raise SimulationError(f"negative section time {section_seconds}")
    if contenders < 1:
        raise SimulationError(f"contenders must be >= 1, got {contenders}")
    if contention_factor < 0:
        raise SimulationError("contention_factor must be non-negative")
    penalty = 1.0 + contention_factor * (contenders - 1)
    return ops * section_seconds * penalty


def parallel_section_time(ops: int, section_seconds: float, threads: int) -> float:
    """Elapsed time for ``ops`` independent sections over ``threads``.

    Used for read-locked (shared) paths that scale with thread count,
    e.g. OpenEmbedding's pull handler (Algorithm 1 outside entry
    creation).
    """
    if ops < 0:
        raise SimulationError(f"negative op count {ops}")
    if section_seconds < 0:
        raise SimulationError(f"negative section time {section_seconds}")
    if threads < 1:
        raise SimulationError(f"threads must be >= 1, got {threads}")
    return -(-ops // threads) * section_seconds
