"""Per-layer attribution for the e2e benchmark, measured from outside.

The benchmark wraps the public callables of already-built objects
(``client.nodes[i].cache.pull``, ``client.channels[i].call``, the codec
functions as imported by :mod:`repro.network.rpc`, ...) so that every
call into a layer becomes a span: name, start, end, the span that caused
it, and the id of the client operation it belongs to. Nothing under
``src/`` is edited; spans *inside* the program are a later change.

A layer's **self time** is its spans' duration minus the part covered by
child spans, so self times add up to the time inside root spans and the
``trace.coverage`` metric (sum of self times over window wall time) says
how much of the window the layers account for.

Callables invoked once per batch per shard are timed on every call.
Callables invoked once per *key* (``VersionedEntryStore.put``,
``PSOptimizer.apply``, ...) are counted on every call but timed on a
fixed 1-in-:data:`SAMPLE_EVERY` sample; the sampled duration is scaled
up and charged like a span, so parents' self time stays consistent.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict

SAMPLE_EVERY = 16
"""Per-key callables are timed on every 16th call and scaled."""


class Probe:
    """Span recorder + self-time accumulator shared by all wrappers.

    ``self_s[name]`` accumulates over the measured window (the wrappers
    are installed after set-up). ``spans`` holds the raw
    ``(name, start, end, parent_index, op_id)`` records of the ops for
    which ``keep_spans`` was on — enough for a Chrome trace of the first
    few hundred operations without holding millions of tuples.
    """

    def __init__(self) -> None:
        self.on = True
        self.keep_spans = False
        self.op_id = 0
        self.self_s: dict[str, float] = defaultdict(float)
        self.spans: list[tuple | None] = []
        # One frame per open span: [child seconds, index into spans].
        self._stack: list[list] = []

    def wrap(self, name: str, fn, on_result=None):
        """Time every call of ``fn`` as a span of layer ``name``.

        ``on_result(result)`` runs after a successful call, outside the
        span's interval, for wrappers that read a count off the result.
        """
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            index = -1
            if self.keep_spans:
                index = len(self.spans)
                self.spans.append(None)
            frame = [0.0, index]
            parent = stack[-1] if stack else None
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                self.self_s[name] += duration - frame[0]
                if parent is not None:
                    parent[0] += duration
                if index >= 0:
                    self.spans[index] = (
                        name, start, end,
                        parent[1] if parent is not None else -1,
                        self.op_id,
                    )
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def wrap_sampled(self, name: str, fn):
        """Count every call of ``fn``; time one in :data:`SAMPLE_EVERY`.

        The sampled duration times :data:`SAMPLE_EVERY` estimates the
        layer's total; it is charged to the enclosing span as child time
        exactly like a real span would be.
        """
        stack = self._stack
        clock = time.perf_counter
        count = [0]
        mask = SAMPLE_EVERY - 1

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            count[0] += 1
            if count[0] & mask:
                return fn(*args, **kwargs)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                estimate = (clock() - start) * SAMPLE_EVERY
                self.self_s[name] += estimate
                if stack:
                    stack[-1][0] += estimate

        def read_calls() -> int:
            return count[0]

        wrapper.read_calls = read_calls
        return wrapper


class Layers:
    """Installs the wrappers on one built system and reads its counters.

    ``system`` is a :class:`workloads.System`: dataset, client, model,
    optimizers, trainer and (for serving) the hierarchical PS.
    """

    def __init__(self, probe: Probe, system) -> None:
        self.probe = probe
        self.system = system
        self.pulls = 0
        self.allhit_pulls = 0
        self.frames = 0
        self.frame_bytes = 0
        self._sampled: dict[str, list] = defaultdict(list)
        self._install()

    # ------------------------------------------------------------------
    # installation
    # ------------------------------------------------------------------

    def _wrap(self, obj, attr: str, name: str, on_result=None) -> None:
        setattr(obj, attr, self.probe.wrap(name, getattr(obj, attr), on_result))

    def _wrap_sampled(self, obj, attr: str, name: str) -> None:
        wrapper = self.probe.wrap_sampled(name, getattr(obj, attr))
        self._sampled[name].append(wrapper)
        setattr(obj, attr, wrapper)

    def _install(self) -> None:
        s = self.system
        self._wrap(s.dataset, "batch", "criteo.batch")
        self._wrap(s.model, "train_batch", "deepfm.train_batch")
        self._wrap(s.dense_opt, "step", "dense_opt.step")
        # The trainer's entry points are the root spans. (On the async
        # trainer ``step`` is the scheduler's counter, not a method.)
        for attr in ("step", "run_steps", "barrier_checkpoint"):
            if callable(getattr(s.trainer, attr, None)):
                self._wrap(s.trainer, attr, "trainer")
        embedding = getattr(s.trainer, "embedding", None)
        if embedding is not None:  # the async trainer talks to the backend directly
            self._wrap(embedding, "pull", "embedding")
            self._wrap(embedding, "push", "embedding")
        if s.hps is not None:
            self._wrap(s.hps, "lookup", "hps.lookup")

        client = s.client
        self._wrap(client.partitioner, "split", "sharding.split")
        for attr in (
            "pull", "push", "maintain", "lookup", "request_checkpoint",
            "barrier_checkpoint", "complete_pending_checkpoints",
            "flush_aggregation",
        ):
            self._wrap(client, attr, "client")
        for channel in client.channels:
            self._wrap(channel, "call", "rpc.call")
        for service in client.services:
            self._wrap(service.server, "dispatch", "service")
        self._install_codec()

        self._wrap(s.ps_opt, "apply_batch", "ps_opt.apply")
        self._wrap_sampled(s.ps_opt, "apply", "ps_opt.apply")
        for node in client.nodes:
            for attr in ("pull", "push", "maintain", "flush_aggregation"):
                self._wrap(node, attr, "ps_node")
            self._wrap(node, "lookup", "ps_node.lookup")
            for attr in (
                "request_checkpoint", "barrier_checkpoint",
                "complete_pending_checkpoints",
            ):
                self._wrap(node, attr, "checkpoint.stall")
            self._wrap(node.cache, "pull", "cache.pull", self._count_pull)
            self._wrap(node.cache, "maintain", "cache.maintain")
            self._wrap(node.cache, "update", "cache.update")
            self._wrap(node.staleness, "admit_pull", "staleness.admit")
            self._wrap(node.staleness, "record_push", "staleness.admit")
            if node.aggregation is not None:
                self._wrap(node.aggregation, "add", "aggregator.add")
                self._wrap(node.aggregation, "flush", "aggregator.add")
            self._wrap_sampled(node.store, "put", "store.put")
            self._wrap_sampled(node.store, "read_latest", "store.read")
            self._wrap_sampled(node.store, "read_at_most", "store.read")

    def _install_codec(self) -> None:
        """Wrap the wire codec where the RPC layer looks it up.

        ``RpcChannel.call`` and ``RpcServer.dispatch`` resolve
        ``encode_frame`` / ``encode_message`` / ``decode_message`` /
        ``decode_envelope`` through :mod:`repro.network.rpc`'s module
        namespace, and the channel calls ``request.encode_body()`` on
        the request classes the workloads send. The patch is
        process-wide, so one process traces one system.
        """
        from repro.network import messages, rpc

        if hasattr(rpc.encode_frame, "__wrapped__"):
            raise RuntimeError("codec probes are already installed in this process")
        probe = self.probe

        def count_encoded(frame) -> None:
            self.frames += 1
            self.frame_bytes += len(frame)

        def counting_decoder(fn):
            wrapped = probe.wrap("codec.decode", fn)

            @functools.wraps(fn)
            def decode(data):
                if probe.on:
                    self.frames += 1
                    self.frame_bytes += len(data)
                return wrapped(data)

            return decode

        rpc.encode_frame = probe.wrap("codec.encode", rpc.encode_frame, count_encoded)
        rpc.encode_message = probe.wrap(
            "codec.encode", rpc.encode_message, count_encoded
        )
        rpc.decode_message = counting_decoder(rpc.decode_message)
        rpc.decode_envelope = counting_decoder(rpc.decode_envelope)
        for request_cls in (
            messages.PullRequest, messages.PushRequest, messages.MaintainRequest,
            messages.CheckpointRequest, messages.LookupRequest,
        ):
            request_cls.encode_body = probe.wrap("codec.encode", request_cls.encode_body)

    def _count_pull(self, result) -> None:
        self.pulls += 1
        if result.misses + result.created == 0:
            self.allhit_pulls += 1

    # ------------------------------------------------------------------
    # counters (read at window start and end, reported as deltas)
    # ------------------------------------------------------------------

    def counters(self) -> dict[str, float]:
        """Monotone counters read off the system's own stats objects."""
        s = self.system
        client = s.client
        nodes = client.nodes
        out: dict[str, float] = {
            "rpc.calls": sum(c.stats.calls for c in client.channels),
            "rpc.attempts": sum(c.stats.attempts for c in client.channels),
            "rpc.retries": sum(c.stats.retries for c in client.channels),
            "rpc.timeouts": sum(c.stats.timeouts for c in client.channels),
            "rpc.wire_bytes": client.wire_bytes(),
            "service.dup_suppressed": sum(
                svc.dup_suppressed for svc in client.services
            ),
            "link.faults_injected": client.fault_stats().total,
            "codec.frames": self.frames,
            "codec.bytes": self.frame_bytes,
            "cache.hits": sum(n.metrics.cache.hits for n in nodes),
            "cache.misses": sum(n.metrics.cache.misses for n in nodes),
            "cache.created": sum(n.metrics.entries_created for n in nodes),
            "cache.loads": sum(n.metrics.cache.loads for n in nodes),
            "cache.flushes": sum(n.metrics.cache.flushes for n in nodes),
            "cache.evictions": sum(n.metrics.cache.evictions for n in nodes),
            "cache.pulls": self.pulls,
            "cache.allhit_pulls": self.allhit_pulls,
            "ps_opt.rows": sum(n.metrics.updates for n in nodes),
            "aggregator.folds": sum(
                n.aggregation.stats.folds for n in nodes if n.aggregation is not None
            ),
            "aggregator.replays_dropped": sum(
                n.aggregation.stats.duplicates_dropped
                for n in nodes if n.aggregation is not None
            ),
            "staleness.rejects": sum(n.staleness.rejected for n in nodes),
            "checkpoint.completed": sum(
                n.coordinator.completed_count for n in nodes
            ),
            "store.put_calls": sum(w.read_calls() for w in self._sampled["store.put"]),
            "store.read_calls": sum(
                w.read_calls() for w in self._sampled["store.read"]
            ),
            "pool.write_bytes": sum(n.pool.device.bytes_written for n in nodes),
            "pool.read_bytes": sum(n.pool.device.bytes_read for n in nodes),
        }
        if s.hps is not None:
            stats = s.hps.stats
            out["hps.rows"] = stats.rows
            out["hps.cache_hits"] = stats.cache_hits
            out["hps.remote_rows"] = stats.remote_rows
            out["hps.invalidated_rows"] = stats.invalidated
        return out


#: span name -> the per-layer metric its self time is reported as.
SELF_TIME_METRICS = {
    "criteo.batch": "criteo.batch_s",
    "trainer": "trainer.glue_s",
    "deepfm.train_batch": "deepfm.train_batch_s",
    "dense_opt.step": "dense_opt.step_s",
    "embedding": "embedding.glue_s",
    "hps.lookup": "hps.lookup_self_s",
    "sharding.split": "sharding.split_s",
    "client": "client.glue_s",
    "service": "service.handler_glue_s",
    "rpc.call": "rpc.call_glue_s",
    "codec.encode": "codec.encode_s",
    "codec.decode": "codec.decode_s",
    "ps_node": "ps_node.glue_s",
    "ps_node.lookup": "ps_node.lookup_s",
    "cache.pull": "cache.pull_s",
    "cache.maintain": "cache.maintain_s",
    "cache.update": "cache.update_s",
    "ps_opt.apply": "ps_opt.apply_s",
    "aggregator.add": "aggregator.add_s",
    "staleness.admit": "staleness.admit_s",
    "checkpoint.stall": "checkpoint.stall_s",
    "store.put": "store.put_s",
    "store.read": "store.read_s",
}

COUNT_METRICS = (
    "hps.remote_rows", "hps.invalidated_rows", "service.dup_suppressed",
    "rpc.calls", "rpc.attempts", "rpc.retries", "rpc.timeouts",
    "rpc.wire_bytes", "codec.frames", "codec.bytes", "link.faults_injected",
    "cache.misses", "cache.created", "cache.loads", "cache.flushes",
    "cache.evictions", "ps_opt.rows", "aggregator.folds",
    "aggregator.replays_dropped", "staleness.rejects",
    "checkpoint.completed", "store.put_calls", "store.read_calls",
    "pool.write_bytes", "pool.read_bytes",
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(
    probe: Probe, before: dict, after: dict, wall_s: float, ops: int
) -> dict[str, tuple[float, str]]:
    """Every per-layer metric of one traced window as ``name -> (value, unit)``."""
    delta = {name: after[name] - before.get(name, 0) for name in after}
    out: dict[str, tuple[float, str]] = {}
    for span_name, metric in SELF_TIME_METRICS.items():
        out[metric] = (probe.self_s.get(span_name, 0.0), "s")
    for name in COUNT_METRICS:
        unit = "bytes" if name.endswith("bytes") else "count"
        out[name] = (float(delta.get(name, 0)), unit)
    out["cache.hit_ratio"] = (
        _ratio(
            delta["cache.hits"],
            delta["cache.hits"] + delta["cache.misses"] + delta["cache.created"],
        ),
        "ratio",
    )
    out["cache.allhit_batch_ratio"] = (
        _ratio(delta["cache.allhit_pulls"], delta["cache.pulls"]), "ratio"
    )
    out["hps.hit_ratio"] = (
        _ratio(delta.get("hps.cache_hits", 0), delta.get("hps.rows", 0)), "ratio"
    )
    out["trace.ops"] = (float(ops), "count")
    out["trace.wall_s"] = (wall_s, "s")
    out["trace.coverage"] = (_ratio(sum(probe.self_s.values()), wall_s), "ratio")
    return out


def to_tracer(probe: Probe):
    """The kept spans as a :class:`repro.obs.Tracer` (for the Chrome exporter)."""
    from repro.obs.tracer import Tracer

    tracer = Tracer()
    origin = min((s[1] for s in probe.spans if s is not None), default=0.0)
    for index, span in enumerate(probe.spans):
        if span is None:
            continue
        name, start, end, parent, op_id = span
        tracer.add_span(
            name, start - origin, end - start, track="e2e",
            span=index, parent=parent, op=op_id,
        )
    return tracer
