"""Seeded network fault injection: the link as a failure domain.

The crash model in :mod:`repro.failure.injection` kills *processes*;
this module breaks *messages*. A :class:`FaultyLink` wraps the
:class:`~repro.simulation.network.NetworkModel` that an
:class:`~repro.network.rpc.RpcChannel` moves frames over and injects
four fault classes per direction, each an independent seeded coin per
message:

* **drop** — the frame never arrives (client waits out its attempt
  timeout, then retries);
* **duplicate** — the frame arrives twice (exercises the server's
  at-most-once push dedup);
* **corrupt** — one byte is flipped in flight (the frame CRC makes
  this always detectable, so it degrades to a retryable error);
* **delay** — an exponential extra in-flight latency (may push the
  reply past the client's patience, turning a *delivered* exchange
  into a retry — the classic duplicate-generation path).

The entire fault schedule is a deterministic function of
:class:`~repro.config.NetworkFaultConfig.seed`: the RNG draws the same
decisions in the same order every run, so a failing retry trace is
exactly reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.config import NetworkFaultConfig
from repro.simulation.network import Delivery, NetworkModel

_FAULT_SEED_SALT = 0xFA33


@dataclass
class LinkFaultStats:
    """Counts of injected faults, total and per direction."""

    drops: int = 0
    duplicates: int = 0
    corruptions: int = 0
    delays: int = 0
    delay_seconds: float = 0.0
    by_direction: dict = field(default_factory=dict)

    @property
    def total(self) -> int:
        return self.drops + self.duplicates + self.corruptions + self.delays

    def _record(self, direction: str, kind: str) -> None:
        per_dir = self.by_direction.setdefault(direction, {})
        per_dir[kind] = per_dir.get(kind, 0) + 1

    def summary(self) -> dict[str, int]:
        """Flat counter view (for reports and CLI output)."""
        return {
            "drops": self.drops,
            "duplicates": self.duplicates,
            "corruptions": self.corruptions,
            "delays": self.delays,
        }


class FaultyLink:
    """A :class:`NetworkModel` wrapper that injects seeded faults.

    Implements the link API :class:`~repro.network.rpc.RpcChannel`
    speaks (``transfer(frame, direction, concurrent_flows) ->
    Delivery``). Fault decisions consume the RNG in a fixed order for
    every message — drop, duplicate, corrupt, delay magnitude, flip
    position — regardless of which faults actually fire, so the
    schedule for message *n* never depends on the outcome of message
    *n-1*'s coin flips.

    A dropped frame still charges its bytes to the underlying
    :class:`NetworkModel` (the sender transmitted; the receiver just
    never saw it), which is what keeps wire-byte accounting honest on
    failure paths.
    """

    def __init__(self, network: NetworkModel, config: NetworkFaultConfig):
        self.network = network
        self.config = config
        self.stats = LinkFaultStats()
        self._rng = np.random.default_rng((config.seed, _FAULT_SEED_SALT))

    def transfer(
        self, frame: bytes, direction: str, concurrent_flows: int = 1
    ) -> Delivery:
        """Move one frame, possibly injecting faults for ``direction``."""
        cfg = self.config
        # Fixed draw order per message keeps the schedule seed-stable.
        drop_coin = self._rng.random()
        dup_coin = self._rng.random()
        corrupt_coin = self._rng.random()
        delay_coin = self._rng.random()
        delay_extra = float(self._rng.exponential(cfg.delay_mean_s or 1.0))
        flip_pos = int(self._rng.integers(0, max(1, len(frame))))

        elapsed = self.network.transfer_time(len(frame), concurrent_flows)
        if drop_coin < cfg.drop_rate:
            self.stats.drops += 1
            self.stats._record(direction, "drop")
            return Delivery(copies=(), elapsed=elapsed)

        payload = frame
        if corrupt_coin < cfg.corrupt_rate:
            damaged = bytearray(frame)
            damaged[flip_pos] ^= 0xFF
            payload = bytes(damaged)
            self.stats.corruptions += 1
            self.stats._record(direction, "corrupt")

        copies = [payload]
        if dup_coin < cfg.duplicate_rate:
            copies.append(payload)
            elapsed += self.network.transfer_time(len(frame), concurrent_flows)
            self.stats.duplicates += 1
            self.stats._record(direction, "duplicate")

        if delay_coin < cfg.delay_rate and cfg.delay_mean_s > 0:
            elapsed += delay_extra
            self.stats.delays += 1
            self.stats.delay_seconds += delay_extra
            self.stats._record(direction, "delay")

        return Delivery(copies=tuple(copies), elapsed=elapsed)
