"""One seeded scenario engine: compose fault schedules, run one loop, audit.

The durability contract every feature is proven against is the paper's
(Section V-C): the Checkpointed Batch ID is persisted atomically and
recovery discards every version newer than it. A :class:`Scenario`
composes the faults the extensions added on top of it over one of three
transports (``local``, ``rpc``, ``rpc_lossy``) and one of two workloads:

* the deterministic push stream (:func:`batch_payload`): each batch is a
  pure function of ``(seed, batch)``, so after every batch the live
  weights must equal an unsharded replay (:func:`reference_state`) bit
  for bit — one lost or double-applied push changes the bits;
* a seeded asynchronous fleet (:class:`Fleet`): an
  :class:`~repro.dlrm.async_trainer.AsynchronousTrainer` whose workers may
  carry :func:`~repro.failure.injection.hostile_fleet` profiles, judged
  by held-out AUC / log-loss against a synchronous baseline.

The schedule is a list of :class:`Event` at ``(batch, phase)``. A phase is
``pre`` (before the pull), ``mid`` (between pull and push), ``post``
(after the push) or a migration step label, which fires the event from
inside the reshard that runs in that batch. Events are built by
:func:`kill` (an MTTF :class:`~repro.failure.injection.NodeKillSchedule`
expands into kills at the ``pre`` / ``mid`` polls), :func:`reshard`
(optionally crashing at a labelled step), :func:`checkpoint` (a barrier
or a request) and :func:`serve` (reads audited by
:class:`~repro.simulation.serving_sim.TrainServeSoak`).

:meth:`Scenario.run` is the one loop. A double fault, the kill of an
unreplicated shard and a crashed migration take the one recovery path:
crash the pools, recover, replay from the recovered Checkpointed Batch
ID. After every batch :meth:`Scenario.audit` checks one invariant set —
monotone Checkpointed Batch IDs, exclusive key ownership, every
promotion inside the unavailability bound, every admitted pull within
``k`` of the cluster-wide progress frontier, ``cache.validate()`` on every
shard, no torn or beyond-bound served row, and bitwise equality with the
replay where the run is deterministic. A failed audit writes the
:class:`~repro.obs.flightrec.FlightRecorder` postmortem naming the batch.
The ``on_push`` omniscient callback (the blades simulator's hook before
aggregation) sees every push before the PS does and may alter or drop it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.config import CacheConfig, NetworkFaultConfig, RetryConfig, ServerConfig
from repro.core.failover import FailoverManager
from repro.core.migration import MIGRATION_STEPS, ShardMigrator
from repro.core.optimizers import PSSGD, PSAdagrad
from repro.core.server import OpenEmbeddingServer
from repro.dlrm.async_trainer import AsynchronousTrainer
from repro.dlrm.criteo import CriteoSynthetic
from repro.dlrm.deepfm import DeepFM
from repro.dlrm.embedding import PSEmbedding
from repro.dlrm.hps import HierarchicalPS
from repro.dlrm.metrics import evaluate_model
from repro.dlrm.optimizers import Adam
from repro.dlrm.trainer import SynchronousTrainer
from repro.errors import FailoverError, RecoveryError, ServerError
from repro.failure.injection import NodeKillInjector, NodeKillSchedule
from repro.network.frontend import RemotePSClient
from repro.obs.flightrec import FlightRecorder
from repro.obs.registry import MetricsRegistry
from repro.simulation.clock import SimClock
from repro.simulation.serving_sim import ServingCostModel, ServingLoadDriver, TrainServeSoak
from repro.workload.distributions import BandedSkewDistribution

TRANSPORTS = ("local", "rpc", "rpc_lossy")
DIM = 8
NUM_KEYS = 96
BATCH_KEYS = 12
#: The lossy wire: drops, duplicates and corrupts frames; RETRY rides it.
FAULTS = NetworkFaultConfig(drop_rate=0.05, duplicate_rate=0.03, corrupt_rate=0.02, seed=5)
RETRY = RetryConfig(max_attempts=12, attempt_timeout_s=0.05, call_timeout_s=30.0, seed=5)
#: Probe-channel budget inside the unavailability bound over RPC (the
#: re-probe in ``handle_timeout`` costs wire time before the lease wait).
PROBE_BUDGET_S = 0.5
#: Simulated seconds one batch takes when kills are scheduled.
BATCH_SECONDS = 1.0
#: The async fleet's model and data: a small vocabulary under the
#: dataset's skew, so folded keys have several contributors.
FIELDS, VOCAB, BATCH, SEED, DATA_SEED, LR = 5, 40, 16, 11, 2, 0.05


class InjectedCrash(Exception):
    """The whole cluster dies at a reshard's armed migration step."""


# ----------------------------------------------------------------------
# inputs: configs, one backend per transport, the two workloads
# ----------------------------------------------------------------------


def server_config(nodes: int = 3, seed: int = 0, **overrides) -> ServerConfig:
    """``nodes`` shards of ``DIM``-wide rows; any :class:`~repro.config.ServerConfig`
    field may be overridden."""
    base = dict(num_nodes=nodes, embedding_dim=DIM, pmem_capacity_bytes=1 << 26, seed=seed)
    return ServerConfig(**{**base, **overrides})


def cache_config() -> CacheConfig:
    # Small enough that flushes and evictions actually happen.
    return CacheConfig(capacity_bytes=32 * DIM * 4)


def build_backend(transport: str, config: ServerConfig, cache=None, optimizer=None, **wire):
    """The one way each transport's backend is built. ``wire`` are
    :class:`~repro.network.frontend.RemotePSClient` keywords (clock,
    registry, tracers, ``retry``); nothing crosses a wire in process."""
    cache = cache or cache_config()
    optimizer = optimizer or PSAdagrad(lr=0.05)
    if transport == "local":
        return OpenEmbeddingServer(config, cache, optimizer)
    if transport not in TRANSPORTS:
        raise ValueError(f"unknown transport {transport!r}; expected one of {TRANSPORTS}")
    faults = FAULTS if transport == "rpc_lossy" else None
    return RemotePSClient(config, cache, optimizer, **{"retry": RETRY, "faults": faults, **wire})


def batch_payload(seed: int, batch: int) -> tuple[list[int], np.ndarray]:
    """Keys and gradients of global batch ``batch`` — a pure function of
    ``(seed, batch)``, so a replay regenerates the pushes a crash lost."""
    rng = np.random.default_rng((seed, batch))
    keys = sorted(rng.choice(NUM_KEYS, size=BATCH_KEYS, replace=False).tolist())
    return keys, rng.normal(0, 0.1, (BATCH_KEYS, DIM)).astype(np.float32)


class Replay:
    """The unsharded reference: one node, every batch of the push stream
    applied exactly once. :meth:`state` is its weights after ``batches``
    batches, replayed on demand."""

    def __init__(self, seed: int):
        config = ServerConfig(
            num_nodes=1, embedding_dim=DIM, pmem_capacity_bytes=1 << 26, seed=seed
        )
        self.seed, self.states = seed, []
        self.server = OpenEmbeddingServer(config, cache_config(), PSAdagrad(lr=0.05))

    def state(self, batches: int) -> dict[int, np.ndarray]:
        while len(self.states) < batches:
            batch = len(self.states)
            keys, grads = batch_payload(self.seed, batch)
            self.server.pull(keys, batch)
            self.server.maintain(batch)
            self.server.push(keys, grads, batch)
            self.states.append(self.server.state_snapshot())
        return self.states[batches - 1]


def reference_state(seed: int, batches: int) -> dict[int, np.ndarray]:
    return Replay(seed).state(batches)


@dataclass
class Fleet:
    """The asynchronous workload: ``workers`` round-robin workers pushing
    ``staleness`` scheduler steps after they pull; ``profiles`` is a
    ``{worker: WorkerFaultProfile}`` hostile fleet (None: all honest).
    The PS-side defenses (``staleness_bound``, ``aggregator``,
    ``aggregator_f``) are the scenario's config."""

    workers: int
    staleness: int = 1
    profiles: dict | None = None


def fleet_dataset() -> CriteoSynthetic:
    return CriteoSynthetic(num_fields=FIELDS, vocab_per_field=VOCAB, seed=DATA_SEED)


def fleet_model(seed: int = SEED) -> DeepFM:
    return DeepFM(FIELDS, DIM, hidden=(16,), use_first_order=False, seed=seed)


def evaluate(backend, model, dataset) -> dict[str, float]:
    """Held-out AUC / log-loss / calibration read through the PS (eight
    64-sample batches far past any training batch id)."""
    return evaluate_model(model, PSEmbedding(backend, DIM), dataset, batches=8, batch_size=64)


def sync_baseline(batches: int, seed: int = SEED) -> dict[str, float]:
    """The fault-free synchronous run an async envelope is pinned to: one
    worker, so it trains as many batches as ``batches`` async steps."""
    dataset, model = fleet_dataset(), fleet_model(seed)
    config = server_config(2, seed)
    backend = build_backend("local", config, CacheConfig(capacity_bytes=64 << 10), PSSGD(lr=LR))
    SynchronousTrainer(
        backend, model, dataset, num_workers=1, batch_size=BATCH, dense_optimizer=Adam(1e-2)
    ).train(batches)
    return evaluate(backend, model, dataset)


# ----------------------------------------------------------------------
# the schedule
# ----------------------------------------------------------------------

PHASES = ("pre", "mid", "post") + MIGRATION_STEPS
DIRECTIONS = ("scale_out", "scale_in")
CHECKPOINT_KINDS = ("barrier", "request")


@dataclass(frozen=True)
class Event:
    """One scheduled fault or operation at ``(batch, phase)``."""

    batch: int
    phase: str
    kind: str
    arg: object = None

    def __post_init__(self) -> None:
        if self.phase not in PHASES:
            raise ValueError(f"unknown phase {self.phase!r}; expected one of {PHASES}")


def kill(batch: int, node: int, phase: str = "mid") -> Event:
    """Kill shard ``node``'s primary (an unreplicated shard crashes the cluster)."""
    return Event(batch, phase, "kill", node)


def reshard(batch: int, direction: str, crash_at: str | None = None, phase: str = "post") -> Event:
    """Scale by one node; ``crash_at`` kills the whole cluster at that step."""
    if direction not in DIRECTIONS or crash_at not in (None, *MIGRATION_STEPS):
        raise ValueError(f"bad reshard {direction!r} / crash point {crash_at!r}")
    return Event(batch, phase, "reshard", (direction, crash_at))


def checkpoint(batch: int, kind: str = "barrier", phase: str = "post") -> Event:
    """Checkpoint batch ``batch``: a barrier completes it now, a request
    leaves it to the maintenance rounds after it."""
    if kind not in CHECKPOINT_KINDS:
        raise ValueError(f"unknown checkpoint kind {kind!r}")
    return Event(batch, phase, "checkpoint", kind)


def serve(batch: int, requests: int, phase: str = "post") -> Event:
    """``requests`` audited serving lookups (deterministic workload only)."""
    return Event(batch, phase, "serve", requests)


def poisson_kills(kills: int, batches: int, seed: int, *, mttf_s: float = 4.0) -> NodeKillSchedule:
    """An MTTF schedule of at most ``kills`` kills of three shards over a
    horizon that outlasts ``batches`` one-second batches."""
    horizon = max(batches * BATCH_SECONDS * 4, mttf_s * (kills + 2))
    return NodeKillSchedule.poisson(mttf_s, horizon, 3, seed=seed, max_kills=kills)


class _ServeAudit(TrainServeSoak):
    """TrainServeSoak's audited read loop, with training left to the scenario."""

    def _train_step(self) -> None:
        pass


# ----------------------------------------------------------------------
# the engine
# ----------------------------------------------------------------------


class Scenario:
    """Inputs, one schedule, one run loop and one audit (module docstring).

    Args:
        seed: the workload's seed (and the cluster's initializer seed).
        transport: ``local``, ``rpc`` or ``rpc_lossy``.
        nodes: initial shard count.
        batches: batches (async: scheduler steps) :meth:`run` trains.
        schedule: :class:`Event` s; ``checkpoint_every`` adds barriers
            after every ``checkpoint_every``-th batch.
        mttf: kills in simulated time, polled at ``pre`` and ``mid``.
            With any kill scheduled every batch beats the failure
            detector once and advances the clock by ``BATCH_SECONDS``.
        fleet: run the asynchronous workload instead of the push stream;
            ``envelope`` is the AUC / log-loss slack its final verdict
            allows against :func:`sync_baseline` (None: no envelope).
        on_push: ``(scenario, batch_id, keys, grads) -> grads | None``,
            called before every push reaches the PS; None drops it.
        clock: the shared simulated clock (default: a fresh one).
        wire: extra :class:`~repro.network.frontend.RemotePSClient` keywords.
        artifact_dir: where a failed audit's postmortem goes (default
            ``tests/artifacts/``).
        config: :func:`server_config` overrides (``replicas=2`` and so on).
    """

    def __init__(
        self, *, seed=0, transport="local", nodes=3, batches=9, schedule=(), checkpoint_every=None,
        mttf=None, fleet=None, envelope=None, on_push=None, clock=None, wire=None,
        artifact_dir=None, **config,
    ):
        cache = optimizer = None  # the push stream's: cache_config(), Adagrad
        if fleet is not None:
            if config.get("aggregator", "none") != "none":
                config.setdefault("aggregator_workers", fleet.workers)
            cache, optimizer = CacheConfig(capacity_bytes=64 << 10), PSSGD(lr=LR)
            self.dataset, self.model = fleet_dataset(), fleet_model(seed)
        self.seed, self.transport, self.batches = seed, transport, batches
        self.fleet, self.envelope, self.on_push = fleet, envelope, on_push
        self.replay = None if fleet is not None else Replay(seed)
        every = checkpoint_every or batches + 1
        cadence = [checkpoint(b) for b in range(batches) if (b + 1) % every == 0]
        self.schedule = sorted(cadence + list(schedule), key=lambda event: event.batch)
        self.injector = None if mttf is None else NodeKillInjector(mttf)
        self.heartbeats = mttf is not None or any(e.kind == "kill" for e in self.schedule)
        self.clock = clock if clock is not None else SimClock()
        self.registry = MetricsRegistry()
        self.recorder = FlightRecorder(node="scenario", clock=self.clock)
        self.artifact_dir = Path(artifact_dir or Path(__file__).parents[1] / "artifacts")
        self.local = transport == "local"
        self.probe_budget_s = 0.0 if self.local else PROBE_BUDGET_S
        self.backend = build_backend(
            transport, server_config(nodes, seed, **config), cache, optimizer,
            clock=self.clock, registry=self.registry, recorder=self.recorder, **(wire or {}),
        )
        self.checkpoint_trail: list[int] = []
        self.pins: set[int] = set()  # every serving pin seen: round by round, event by event
        self.log: list[Event] = []  # every event that fired, MTTF kills expanded
        self.kills = self.absorbed_kills = self.double_faults = self.recoveries = 0
        self.crashed = self.retried_migration = False
        self.steps_seen: list[str] = []
        self.report = self.metrics = None
        self.recovery_reports: list = []
        self.max_lag = 0
        self.served: list = []  # one SoakVerdict per serve event
        self._done: set = set()
        self._retry: int | None = None  # the reshard a pre-commit crash re-runs
        self._migrator = self._target = None
        self._promotions: list = []
        self._attach()

    # -- per-backend wiring ----------------------------------------------

    def _attach(self) -> None:
        """Tap the backend, and build its failover manager, async trainer
        and (lazily) serving tier — again after every recovery."""
        backend = self.backend
        pull, push = backend.pull, backend.push

        def tapped_pull(keys, batch_id, *, worker_id=None, progress=None):
            frontier = None if worker_id is None else self._frontier(worker_id)
            result = pull(keys, batch_id, worker_id=worker_id, progress=progress)
            if frontier is not None:  # admitted: measure it against the cluster
                self.max_lag = max(self.max_lag, frontier - max(progress or 0, 0))
            return result

        def tapped_push(keys, grads, batch_id, *, worker_id=None, seq=0):
            if self.on_push is not None:
                grads = self.on_push(self, batch_id, keys, grads)
                if grads is None:
                    return 0
            return push(keys, grads, batch_id, worker_id=worker_id, seq=seq)

        backend.pull, backend.push = tapped_pull, tapped_push
        self.manager = None
        if backend.server_config.replicas == 2:
            self.manager = (
                FailoverManager(backend, self.clock, registry=self.registry, recorder=self.recorder)
                if self.local
                else backend.enable_failover(self.registry)
            )
        if self.fleet is not None:
            config = backend.server_config
            defended = config.staleness_bound is not None or config.aggregator != "none"
            self.trainer = AsynchronousTrainer(
                backend, self.model, self.dataset, num_workers=self.fleet.workers,
                batch_size=BATCH, staleness=self.fleet.staleness, dense_optimizer=Adam(1e-2),
                worker_faults=self.fleet.profiles, registry=self.registry,
                track_progress=bool(self.fleet.profiles or defended) or None,
            )
        self.serving = None

    def _frontier(self, worker: int) -> int | None:
        """The cluster-wide progress frontier a pull by ``worker`` faces:
        the slowest other worker, each at its max over shards."""
        pulls = [node.staleness.last_pull for node in self.backend.nodes]
        others = {other for progress in pulls for other in progress if other != worker}
        frontiers = (max(progress.get(other, -1) for progress in pulls) for other in others)
        return min(frontiers, default=None)

    # -- the run loop ------------------------------------------------------

    def run(self) -> "Scenario":
        """Train every batch through the schedule, recovering and
        replaying as needed; then finish and deliver the final verdict."""
        batch, fault = 0, None
        while True:
            try:
                if fault is not None:
                    self.double_faults += isinstance(fault, FailoverError)
                    fault, batch = None, self.recover() + 1
                elif batch < self.batches:
                    self.step(batch)
                    batch += 1
                else:
                    self._ensure_alive()  # a kill the last batch never noticed
                    break
            except (FailoverError, InjectedCrash) as exc:
                fault = exc
            except AssertionError:
                raise  # a failed audit, postmortem written
            except Exception as exc:
                raise self._failure(f"{type(exc).__name__}: {exc}", batch) from exc
        if self.fleet is not None:
            self.trainer.checkpoint(quiesce=True)
            self.metrics = evaluate(self.backend, self.model, self.dataset)
        elif self.backend.global_completed_checkpoint < self.batches - 1:
            self.backend.barrier_checkpoint(self.batches - 1)
        self.checkpoint_trail.append(self.backend.global_completed_checkpoint)
        self.audit()
        return self

    def train(self, first: int, last: int) -> None:
        """Batches ``first..last-1`` through :meth:`step` (no recovery)."""
        for batch in range(first, last):
            self.step(batch)

    def step(self, batch: int) -> None:
        """One batch: its events at every phase, then the audit."""
        self._fire(batch, "pre")
        if self.heartbeats and self.manager is not None:
            self.manager.beat()
        if self.fleet is not None:
            self.trainer.run_steps(1)
        else:
            keys, grads = batch_payload(self.seed, batch)
            self.backend.pull(keys, batch)
            self._fire(batch, "mid")
            self.backend.maintain(batch)
            # A round's drain may have completed a requested checkpoint.
            self.pins.add(self.backend.global_completed_checkpoint)
            self.backend.push(keys, grads, batch)
        self._fire(batch, "post")
        self.checkpoint_trail.append(self.backend.global_completed_checkpoint)
        if self.heartbeats:
            self.clock.advance(BATCH_SECONDS)
        self.audit(batch)

    def recover(self) -> int:
        """The one recovery path: crash every pool (a pending scale-out
        target's too), recover to the newest Checkpointed Batch ID every
        shard completed, re-arm. Returns that id; replay resumes after it."""
        self.recoveries += 1
        if self.manager is not None:
            self._promotions += self.manager.promotions
        pools = (self._migrator or self.backend).crash()
        shape = self.backend.server_config, self.backend.cache_config, self.backend.optimizer
        try:
            self.backend, self.recovery_reports = OpenEmbeddingServer.recover(pools, *shape)
        except RecoveryError:  # no checkpoint completed yet: start over
            self.backend, self.recovery_reports = build_backend("local", *shape), []
        retry = self._retry if self._migrator and self._target != len(self.backend.nodes) else None
        self._migrator = self._retry = None
        self.local = True  # recovery hands back the pools' in-process facade
        self._attach()
        recovered = self.backend.global_completed_checkpoint
        self.checkpoint_trail.append(recovered)
        if retry is not None:
            # The crash came before the commit, so the old ring is durable:
            # the reshard runs again, now unless the replay will reach it.
            self._retry = retry
            if self.schedule[retry].batch <= recovered:
                self._reshard(retry, self.schedule[retry])
            else:
                self._done.discard(retry)
        return recovered

    # -- events ------------------------------------------------------------

    def _fire(self, batch: int, phase: str) -> None:
        """Every event due at ``(batch, phase)``: MTTF kills first, then the
        schedule's. Checkpoints re-fire on a replay; the rest fire once."""
        due = []
        if self.injector is not None and phase in ("pre", "mid"):
            victims = [victim for __, victim in self.injector.due(self.clock.now)]
            due = [(None, kill(batch, victim, phase)) for victim in victims]
        due += [
            (i, event) for i, event in enumerate(self.schedule)
            if (event.batch, event.phase) == (batch, phase)
            and (i not in self._done or event.kind == "checkpoint")
        ]
        for i, event in due:
            self._done.add(i)
            self.log.append(event)
            self.recorder.record("scenario", event.kind, batch=batch, phase=phase, arg=event.arg)
            if event.kind == "kill":
                self._kill(event.arg)
            else:
                getattr(self, "_" + event.kind)(i, event)
            self.pins.add(self.backend.global_completed_checkpoint)
        if self.local and any(event.kind == "kill" for __, event in due):
            # In process the very next call would see the corpse: promote now.
            self._ensure_alive()

    def _kill(self, victim: int) -> None:
        self.kills += 1
        node = self.backend.nodes[victim % len(self.backend.nodes)]
        if not getattr(node, "primary_alive", True):
            self.absorbed_kills += 1  # its earlier kill's promotion answers it
        elif hasattr(node, "kill_primary"):
            node.kill_primary()  # over RPC the shard just goes silent
        else:
            raise FailoverError(f"node {node.node_id} has no replica", node_id=node.node_id)

    def _ensure_alive(self) -> None:
        """Promote every dead primary (a double fault raises FailoverError)."""
        for node in list(self.backend.nodes):
            if not getattr(node, "primary_alive", True):
                self.manager.handle_timeout(node.node_id)

    def _checkpoint(self, i: int, event: Event) -> None:
        self._ensure_alive()  # barriers reach every shard, not only via HA calls
        coordinators = [node.coordinator for node in self.backend.nodes]
        if event.batch > max(max([c.last_completed, *c.queue.pending()]) for c in coordinators):
            self.backend.request_checkpoint(event.batch)
        if event.arg == "barrier":
            self.backend.complete_pending_checkpoints()

    def _reshard(self, i: int, event: Event) -> None:
        self._ensure_alive()
        direction, crash_at = event.arg
        retry = i == self._retry
        self.retried_migration |= retry

        def on_step(label: str) -> None:
            self._fire(event.batch, label)
            if not retry:
                self.steps_seen.append(label)
                if label == crash_at:
                    raise InjectedCrash(label)

        self._migrator = ShardMigrator(self.backend, on_step=on_step, recorder=self.recorder)
        self._retry = i
        self._target = len(self.backend.nodes) + (1 if direction == "scale_out" else -1)
        try:
            self.report = getattr(self._migrator, direction)()
        except InjectedCrash:
            self.crashed = True
            raise
        self._migrator = self._retry = None

    def _serve(self, i: int, event: Event) -> None:
        """Audited lookups against replay references at every completed pin."""
        self._ensure_alive()
        self.pins.add(self.backend.global_completed_checkpoint)
        if max(self.pins) < 0:
            return  # nothing is servable before a checkpoint
        if self.serving is None:
            tier = HierarchicalPS(self.backend, capacity_rows=16, staleness_bound_k=1)
            # Two bands spread over the keys (Table II's put 85.7 % of draws on one).
            keys = BandedSkewDistribution(NUM_KEYS, ((0.25, 0.75), (0.75, 0.25)), seed=self.seed)
            driver = ServingLoadDriver(
                tier, keys, ServingCostModel(network=None), self.clock,
                batch_keys=8, num_keys=NUM_KEYS,
            )
            self.serving = _ServeAudit(tier, self.backend, driver)
        self.serving.references = {pin: self.replay.state(pin + 1) for pin in self.pins if pin >= 0}
        self.served.append(self.serving.run(event.arg))

    # -- the audit ---------------------------------------------------------

    def audit(self, batch: int | None = None, *, min_kills: int = 0) -> None:
        """The invariant set after ``batch``, or the final verdict (None).
        A failure writes the postmortem and names its path."""
        try:
            self._check(batch, min_kills)
        except (AssertionError, ServerError) as exc:
            raise self._failure(str(exc), batch) from None

    def _check(self, batch: int | None, min_kills: int) -> None:
        assert_monotone_checkpoints(self.checkpoint_trail)
        assert_exclusive_ownership(self.backend)
        for node in self.backend.nodes:
            node.cache.validate()
        nodes = self.backend.nodes
        dead = [node.node_id for node in nodes if not getattr(node, "primary_alive", True)]
        assert not dead, f"the killed primaries of nodes {dead} were never answered"
        for seconds in self.unavailability_seconds:
            assert seconds <= self.unavailability_bound_s + 1e-9, (
                f"unavailability {seconds:.3f}s exceeds bound {self.unavailability_bound_s:.3f}s"
            )
        bound = self.backend.server_config.staleness_bound
        assert bound is None or self.max_lag <= bound, (
            f"a pull was admitted {self.max_lag} batches behind the cluster-wide "
            f"frontier (bound {bound})"
        )
        for verdict in self.served:
            assert verdict.torn_rows == 0, f"{verdict.torn_rows} torn rows served"
            assert verdict.stale_rows == 0, f"{verdict.stale_rows} rows served beyond k"
        if self.fleet is None:
            done = self.batches if batch is None else batch + 1
            assert_bitwise_equal(self.backend.state_snapshot(), self.replay.state(done))
        if batch is not None:
            return
        assert self.kills >= min_kills, (
            f"schedule delivered only {self.kills} kills, wanted {min_kills}"
        )
        if self.envelope is not None:
            base = sync_baseline(self.batches, self.seed)
            assert self.metrics["auc"] >= base["auc"] - self.envelope, (self.metrics, base)
            assert self.metrics["logloss"] <= base["logloss"] + self.envelope, (self.metrics, base)

    def _failure(self, reason: str, batch: int | None) -> AssertionError:
        """Dump the flight recorder beside the failure, naming ``batch``;
        returns the error that carries the artifact's path."""
        artifact = {
            "reason": reason,
            "batch": batch,
            "seed": self.seed,
            "transport": self.transport,
            "fired": [repr(event) for event in self.log],
            "kills": self.kills,
            "checkpoint_trail": self.checkpoint_trail,
            # The failover / migration story of the last seconds is in here.
            "flightrec": self.recorder.dump("soak_audit_failed", reason=reason, batch=batch),
        }
        self.artifact_dir.mkdir(parents=True, exist_ok=True)
        path = self.artifact_dir / "postmortem_scenario.json"
        path.write_text(json.dumps(artifact, indent=2, default=float))
        return AssertionError(f"{reason}\npostmortem artifact: {path}")

    # -- what the run observed ---------------------------------------------

    @property
    def reference(self) -> dict[int, np.ndarray]:
        return self.replay.state(self.batches)

    @property
    def promotions(self) -> list:
        return self._promotions + (self.manager.promotions if self.manager is not None else [])

    @property
    def unavailability_seconds(self) -> list[float]:
        return [p.unavailability_seconds for p in self.promotions]

    @property
    def unavailability_bound_s(self) -> float:
        """Per-promotion ceiling: lease + probe budget + promotion."""
        if self.manager is None:
            return 0.0
        return self.manager.unavailability_bound_s(self.probe_budget_s)

    @property
    def rebuilds_completed(self) -> int:
        return sum(getattr(node, "backup", None) is not None for node in self.backend.nodes)


# ----------------------------------------------------------------------
# assertions
# ----------------------------------------------------------------------


def assert_bitwise_equal(state: dict[int, np.ndarray], reference: dict[int, np.ndarray]) -> None:
    """Every key present, every weight bit-identical — the no-lost /
    no-duplicated-update property in one comparison."""
    assert set(state) == set(reference), (
        f"key sets differ: extra={sorted(set(state) - set(reference))[:5]} "
        f"missing={sorted(set(reference) - set(state))[:5]}"
    )
    for key in reference:
        np.testing.assert_array_equal(
            state[key], reference[key], err_msg=f"weights diverged on key {key}"
        )


def assert_monotone_checkpoints(trail: list[int]) -> None:
    """The Checkpointed Batch ID never moves backwards, across recovery."""
    for before, after in zip(trail, trail[1:]):
        assert after >= before, f"checkpoint id regressed: {before} -> {after}"


def assert_exclusive_ownership(backend) -> None:
    """Every resident key lives on exactly the shard the committed
    partitioner routes it to (no dual-ownership leftovers)."""
    for node in backend.nodes:
        keys = node.owned_keys()
        owners = backend.partitioner.owners(keys)
        stray = owners != node.node_id
        assert not stray.any(), (
            f"key {keys[stray][0]} resident on node {node.node_id} but routed to {owners[stray][0]}"
        )


def percentile(values: list[float], q: float) -> float:
    """Inclusive percentile of a list (0.0 when empty)."""
    return float(np.percentile(np.asarray(values, dtype=float), q)) if values else 0.0
