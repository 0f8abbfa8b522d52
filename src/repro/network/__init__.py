"""RPC layer between training workers and PS nodes.

Section V-C: the TensorFlow operators (``PullWeights`` /
``PushGradients`` / ``UpdateWeights``) talk to the PS backend over a
low-overhead RPC on RDMA. This package reproduces that boundary with
real wire messages:

* :mod:`repro.network.messages` — the 13 message kinds, each declaring
  its body once (a fixed little-endian header whose slots are fields or
  array extents, then typed numpy arrays): the requests and the status
  ack are frozen dataclasses there, and a data reply is the node's own
  result class (``PullResult``, ``MaintainResult``, ``EntryBlock``,
  ``LookupResult``), registered as a kind as it is;
  each declaration is compiled into the kind's own straight-line
  encode / zero-copy decode pair when the kind is created, and the type
  registry and the tests' strategies derive from the declarations too.
  Frames carry a CRC32 over the type byte, the optional trace context
  and the body;
* :mod:`repro.network.rpc` — a channel that moves encoded bytes over
  the simulated link, charging transfer time, with retry + exponential
  backoff + per-call timeout budgets and wire-error discipline
  (server-side exceptions arrive as error-coded status frames and are
  re-raised as typed errors), plus a server-side dispatcher. A clean
  call (no tracer, no registry, first attempt answered) takes a short
  path around the retry loop;
* :mod:`repro.network.service` — ``PSNodeService``, one PS node's
  handlers behind the dispatcher, with a bounded replay window per
  mutating message kind so retries never double-apply;
* :mod:`repro.network.frontend` — ``RemotePSClient``, an
  :class:`~repro.core.server.OpenEmbeddingServer` whose per-shard calls
  round-trip through encoded messages, so byte counts and wire timing
  are real; pushes carry ``(worker_id, seq)`` dedup headers. Cluster
  policy (routing, checkpoints, retention, ring commit, resharding,
  failover) is inherited from ``core/server.py``, not restated: a live
  reshard's entries travel as ``Migrate`` frames, a failover's probes
  and promotions as ``Heartbeat`` / ``Promote`` frames, through the
  same per-shard hooks as training traffic.

Fault injection on this boundary lives in
:mod:`repro.failure.network_faults`.
"""

from repro.network.frontend import RemotePSClient
from repro.network.messages import (
    CheckpointRequest,
    MaintainRequest,
    MessageError,
    PullRequest,
    PushRequest,
    StatusResponse,
    decode_message,
)
from repro.network.rpc import Delivery, RpcChannel, RpcServer, RpcStats
from repro.network.service import PSNodeService

__all__ = [
    "PullRequest",
    "PushRequest",
    "CheckpointRequest",
    "MaintainRequest",
    "StatusResponse",
    "MessageError",
    "decode_message",
    "Delivery",
    "RpcChannel",
    "RpcServer",
    "RpcStats",
    "RemotePSClient",
    "PSNodeService",
]
