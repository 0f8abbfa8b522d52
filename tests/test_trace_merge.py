"""Merged multi-node traces: flow linking and the failover causal story.

Unit coverage for :mod:`repro.obs.merge` (pid assignment, process
naming, client→server flow pairing, summarization) plus the acceptance
property for the distributed-tracing tentpole: a merged multi-node
trace of one pull shows the client's ``rpc.attempt`` spans flow-linked
to the server shard span they caused — **including a retried attempt
re-routed across a replica promotion**, all under one trace id.
"""

from __future__ import annotations

import json

import pytest

from repro.errors import ConfigError
from repro.obs import Tracer
from repro.obs.exporters import to_chrome_trace
from repro.obs.merge import (
    MERGED_TRACE_SCHEMA,
    merge_trace_files,
    merge_traces,
    summarize_trace,
)
from repro.simulation.clock import SimClock
from tests.harness.scenario import RETRY, Scenario, batch_payload

US = 1e6  # Chrome trace timestamps are microseconds


def _span(name, ts_s, dur_s=0.001, track="main", **attrs):
    return {
        "ph": "X",
        "name": name,
        "ts": ts_s * US,
        "dur": dur_s * US,
        "pid": 0,
        "tid": 1,
        "args": attrs,
    }


def _trace(events):
    return {
        "traceEvents": events,
        "otherData": {"schema": "repro-trace-v1", "dropped_events": 0},
    }


# ----------------------------------------------------------------------
# merge mechanics
# ----------------------------------------------------------------------


class TestMergeTraces:
    def test_empty_input_rejected(self):
        with pytest.raises(ConfigError, match="nothing to merge"):
            merge_traces([])
        with pytest.raises(ConfigError, match="names"):
            merge_traces([_trace([])], names=["a", "b"])

    def test_flow_drawn_from_client_attempt_to_server_span(self):
        client = _trace(
            [_span("rpc.attempt", 1.0, trace_id=77, span_id=5, attempt=1)]
        )
        server = _trace(
            [_span("ps.pull", 1.1, trace_id=77, parent_span_id=5, keys=3)]
        )
        merged = merge_traces([client, server], names=["client", "ps0"])
        other = merged["otherData"]
        assert other["schema"] == MERGED_TRACE_SCHEMA
        assert other["sources"] == ["client", "ps0"]
        assert other["flows"] == 1
        starts = [e for e in merged["traceEvents"] if e["ph"] == "s"]
        finishes = [e for e in merged["traceEvents"] if e["ph"] == "f"]
        assert len(starts) == len(finishes) == 1
        assert starts[0]["id"] == finishes[0]["id"] == "4d.5"
        assert starts[0]["pid"] == 0 and finishes[0]["pid"] == 1
        # Every source pid got a process_name metadata event.
        named = {
            e["pid"]: e["args"]["name"]
            for e in merged["traceEvents"]
            if e["ph"] == "M" and e["name"] == "process_name"
        }
        assert named == {0: "client", 1: "ps0"}

    def test_orphan_server_span_draws_no_flow(self):
        server = _trace(
            [_span("ps.pull", 1.0, trace_id=1, parent_span_id=99)]
        )
        merged = merge_traces([_trace([]), server])
        assert merged["otherData"]["flows"] == 0
        assert not [e for e in merged["traceEvents"] if e["ph"] in ("s", "f")]

    def test_summarize_counts_flows_and_processes(self):
        client = _trace(
            [_span("rpc.attempt", 1.0, trace_id=7, span_id=2)]
        )
        server = _trace(
            [_span("ps.pull", 1.2, trace_id=7, parent_span_id=2)]
        )
        merged = merge_traces([client, server], names=["client", "ps0"])
        text = summarize_trace(merged)
        assert "flows: 1" in text
        assert "[client]" in text and "[ps0]" in text
        assert "rpc.attempt" in text and "ps.pull" in text


# ----------------------------------------------------------------------
# acceptance: one pull's journey across a replica promotion
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def merged_promotion_trace(tmp_path_factory):
    """Train, kill a primary, pull through the promotion, merge traces."""
    seed, nodes = 0, 3
    clock = SimClock()
    client_tracer = Tracer(clock=clock)
    node_tracers = [Tracer(clock=clock) for __ in range(nodes)]
    s = Scenario(
        transport="rpc", seed=seed, nodes=nodes, replicas=2, lease_s=0.5, clock=clock,
        wire=dict(tracer=client_tracer, node_tracers=node_tracers),
    )
    client = s.backend
    s.train(0, 3)

    client.nodes[0].kill_primary()
    # This pull fans out per shard; the sub-request to shard 0 times
    # out against the corpse, the failover manager waits out the lease
    # and promotes the backup, and the SAME request (same trace id) is
    # re-issued and answered by the promoted replica.
    keys, __ = batch_payload(seed, 3)
    client.pull(keys, 3)
    assert len(client.failover.promotions) == 1

    tmp = tmp_path_factory.mktemp("traces")
    paths = []
    for name, tracer in [("client", client_tracer)] + [
        (f"ps{i}", node_tracers[i]) for i in range(nodes)
    ]:
        path = tmp / f"{name}.json"
        path.write_text(json.dumps(to_chrome_trace(tracer, name)))
        paths.append(path)
    out = tmp / "merged.json"
    merge_trace_files(paths, out=out)
    return json.loads(out.read_text())


class TestPromotionStory:
    def test_schema_and_processes(self, merged_promotion_trace):
        other = merged_promotion_trace["otherData"]
        assert other["schema"] == MERGED_TRACE_SCHEMA
        assert other["sources"] == ["client", "ps0", "ps1", "ps2"]
        assert other["flows"] > 0

    def test_one_trace_spans_the_promotion(self, merged_promotion_trace):
        events = merged_promotion_trace["traceEvents"]
        attempts = [
            e
            for e in events
            if e.get("ph") == "X"
            and e.get("name") == "rpc.attempt"
            and e["pid"] == 0  # the client process
        ]
        by_trace: dict[int, list[dict]] = {}
        for e in attempts:
            by_trace.setdefault(e["args"]["trace_id"], []).append(e)

        # Exactly one trace saw both lost attempts (against the dead
        # primary) and a final ok (served by the promoted backup).
        crossing = {
            t: evs
            for t, evs in by_trace.items()
            if {"lost", "ok"}
            <= {e["args"].get("reason") for e in evs}
        }
        assert len(crossing) == 1
        trace_id, evs = crossing.popitem()
        lost = [e for e in evs if e["args"]["reason"] == "lost"]
        ok = [e for e in evs if e["args"]["reason"] == "ok"]
        # The client burns attempts against the corpse until the lease
        # expires under it (then fails fast on the death check), so the
        # lost count is several-but-not-necessarily-the-full-budget.
        assert 2 <= len(lost) <= RETRY.max_attempts
        assert [e["args"]["attempt"] for e in lost] == list(
            range(1, len(lost) + 1)
        )
        assert len(ok) == 1
        ok = ok[0]

        # The re-issued attempt restarts the attempt counter but keeps
        # the operation's trace id across the re-route.
        assert ok["args"]["attempt"] == 1
        assert max(e["ts"] for e in lost) < ok["ts"]

        # The promotion sits between the last lost attempt and the ok
        # one, in shard 0's process.
        promotes = [
            e
            for e in events
            if e.get("ph") == "X" and e.get("name") == "ps.promote"
        ]
        assert len(promotes) == 1
        promote = promotes[0]
        assert promote["pid"] != 0
        assert max(e["ts"] for e in lost) < promote["ts"] < ok["ts"]

        # Flow link: the ok attempt is flow-linked to the server-side
        # ps.pull span it caused, across process tracks.
        span_id = ok["args"]["span_id"]
        flow_id = f"{trace_id:x}.{span_id:x}"
        starts = [
            e for e in events if e.get("ph") == "s" and e["id"] == flow_id
        ]
        finishes = [
            e for e in events if e.get("ph") == "f" and e["id"] == flow_id
        ]
        assert len(starts) == 1 and len(finishes) == 1
        assert starts[0]["pid"] == 0
        server_pid = finishes[0]["pid"]
        assert server_pid != 0
        served = [
            e
            for e in events
            if e.get("ph") == "X"
            and e.get("name") == "ps.pull"
            and e["pid"] == server_pid
            and e["args"].get("trace_id") == trace_id
            and e["args"].get("parent_span_id") == span_id
        ]
        assert len(served) == 1

    def test_lost_attempts_draw_no_flows(self, merged_promotion_trace):
        # A lost attempt never reached a server, so no flow may start
        # at it: every flow start coincides with some ok attempt.
        events = merged_promotion_trace["traceEvents"]
        ok_ids = {
            f"{e['args']['trace_id']:x}.{e['args']['span_id']:x}"
            for e in events
            if e.get("ph") == "X"
            and e.get("name") == "rpc.attempt"
            and e["args"].get("reason") == "ok"
        }
        lost_ids = {
            f"{e['args']['trace_id']:x}.{e['args']['span_id']:x}"
            for e in events
            if e.get("ph") == "X"
            and e.get("name") == "rpc.attempt"
            and e["args"].get("reason") == "lost"
        }
        flow_ids = {e["id"] for e in events if e.get("ph") == "s"}
        assert flow_ids <= ok_ids
        assert not (flow_ids & lost_ids)
