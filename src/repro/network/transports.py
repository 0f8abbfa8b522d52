"""Wire transports for the core state machines.

:mod:`repro.core.migration` and :mod:`repro.core.failover` drive a
reshard or a promotion through a small transport interface; these two
classes implement it over a :class:`~repro.network.frontend.RemotePSClient`'s
channels, so every migrated entry, heartbeat and promotion crosses the
(possibly faulty) simulated wire under the same retry + dedup discipline
as training traffic.
"""

from __future__ import annotations

from repro.config import RetryConfig
from repro.core.failover import LocalFailoverTransport
from repro.core.sharding import RING_STATE_FIELD, unpack_ring_state
from repro.errors import PoolClosedError, RpcTimeoutError
from repro.network.messages import HeartbeatRequest, MigrateRequest, PromoteRequest
from repro.network.rpc import RpcChannel
from repro.pmem.space import NO_ENTRIES, EntryBlock


class RpcMigrationTransport:
    """Move migration payloads through framed RPCs with retry + dedup.

    The :class:`~repro.core.migration.ShardMigrator` calls this instead
    of touching node objects, so every entry transferred during a live
    reshard crosses the (possibly faulty) simulated wire: drops,
    duplicates and corruption are retried/absorbed by the exact same
    discipline the training path uses — which the crash-point sweep
    runs with fault injection enabled to prove.
    """

    def __init__(self, client: "RemotePSClient"):
        self.client = client

    def provision(self, node_id: int, server_config):
        return self.client.provision_node(node_id, server_config)

    def export(self, node, keys) -> EntryBlock:
        if not keys:
            return NO_ENTRIES
        return self._send(
            node, MigrateRequest.OP_EXPORT, width=self._width(node), keys=keys
        ).entries

    def put(self, node, block: EntryBlock) -> int:
        if not len(block):
            return 0
        return self._send(
            node, MigrateRequest.OP_PUT, width=self._width(node), entries=block
        ).value

    def delete(self, node, keys) -> int:
        if not keys:
            return 0
        return self._send(node, MigrateRequest.OP_DELETE, keys=keys).value

    def _width(self, node) -> int:
        return 0 if node.metadata_only else node.store.entry_bytes // 4

    def _send(self, node, op: int, **payload):
        """One migration RPC under a fresh ``(source, seq)`` identity.
        A rejection never comes back as a value: the channel raises the
        typed error for every non-OK status."""
        return self.client.channel_for(node.node_id).call(
            MigrateRequest(
                op=op,
                source=self.client.worker_id,
                seq=self.client.next_migrate_seq(),
                **payload,
            )
        )


PROBE_CHANNEL_BASE = 1000
"""Probe channels get ``PROBE_CHANNEL_BASE + node_id`` identities so
their RPC spans/metrics never collide with the data-plane channels."""

PROBE_RETRY = RetryConfig(
    max_attempts=3,
    attempt_timeout_s=0.05,
    call_timeout_s=0.5,
    base_backoff_s=1e-3,
    max_backoff_s=0.02,
    jitter=0.0,
)
"""Short-fused policy for heartbeats and promotions.

A probe exists to *measure* liveness, so it must not hide death behind
a long retry ladder: three quick attempts, then the prober reports the
silence to the failure detector and lets the lease decide.
"""


class RpcFailoverTransport(LocalFailoverTransport):
    """Failure detection + promotion over the wire, for
    :class:`~repro.core.failover.FailoverManager`.

    Satisfies :class:`~repro.core.failover.FailoverTransport` with real
    framed RPCs: probes are :class:`HeartbeatRequest` frames on
    dedicated short-retry channels (sharing the client's — possibly
    faulty — link), promotion is a :class:`PromoteRequest` whose
    ``ERR_FAILOVER`` reply decodes back into a typed
    :class:`~repro.errors.FailoverError` on a double fault. The
    background rebuild is not wire traffic: it ticks on the client's
    node objects through the inherited in-process half.

    The probe channels deliberately have **no** ``node_dead`` callback:
    they must keep reaching a node the detector already declared dead —
    that is how an idempotent promotion (or a false-positive recheck)
    gets through.
    """

    def __init__(self, client: "RemotePSClient"):
        super().__init__(client)
        self.client = client
        self._probe_channels: dict[int, RpcChannel] = {}

    def probe_channel(self, node_id: int) -> RpcChannel:
        """The (lazily built) dedicated heartbeat channel to ``node_id``."""
        channel = self._probe_channels.get(node_id)
        if channel is None:
            channel = RpcChannel(
                self.client.channel_for(node_id).server,
                self.client.link,
                self.client.clock,
                retry=PROBE_RETRY,
                channel_id=PROBE_CHANNEL_BASE + node_id,
                tracer=self.client.tracer,
                registry=self.client.registry,
            )
            self._probe_channels[node_id] = channel
        return channel

    def probe(self, node_id: int) -> bool:
        """One heartbeat round-trip; ``False`` means *silence*, which the
        detector converts into lease expiry, never directly into death."""
        try:
            response = self.probe_channel(node_id).call(
                HeartbeatRequest(node_id=node_id, requester=self.client.worker_id)
            )
        except RpcTimeoutError:
            return False
        return response.ok

    def committed_epoch(self) -> int:
        """The durably committed ring epoch, read from the coordinator
        shard's surviving replica pool (promotion must install the
        *committed* routing state, not the client's possibly-stale
        view). Falls back to the client's epoch for modulo clusters."""
        for pool in self.client.ring_pools():
            try:
                fields = pool.root.fields()
            except PoolClosedError:
                continue
            if RING_STATE_FIELD in fields:
                epoch, _, _ = unpack_ring_state(fields[RING_STATE_FIELD])
                return epoch
        return self.client.ring_epoch

    def promote(self, node_id: int, committed_epoch: int) -> float:
        """Ask ``node_id`` to fail over; returns the modeled promotion
        cost. :class:`~repro.errors.FailoverError` (double fault)
        propagates to the caller after crossing the wire as
        ``ERR_FAILOVER``."""
        from repro.core.replication import FAILOVER_SECONDS

        self.probe_channel(node_id).call(
            PromoteRequest(
                node_id=node_id,
                committed_epoch=committed_epoch,
                requester=self.client.worker_id,
            )
        )
        return FAILOVER_SECONDS

