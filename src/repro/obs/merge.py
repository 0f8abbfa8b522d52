"""Merge per-node Chrome traces into one causally-linked timeline.

Each node in a distributed run writes its own ``repro-trace-v1`` file
(client, shard services, ...), all stamped from the same simulated
clock. :func:`merge_traces` folds them into a single Chrome trace with
one process (pid) per source file, then draws **flow events** from
every client ``rpc.attempt`` span to the server-side span it caused:
the client attempt exports ``args.trace_id``/``args.span_id``, the
wire carries the same pair as a
:class:`~repro.network.messages.TraceContext`, and the server handler
stamps them onto its span as ``trace_id``/``parent_span_id``. Opened
in Perfetto, one pull reads as client queue → retry/backoff attempts →
wire → shard service → cache tier, with arrows across process tracks —
including re-routed attempts after a replica promotion.

The merged file carries ``otherData.schema = "repro-trace-merged-v1"``
and is validated by ``scripts/check_obs_export.py --merged``.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.errors import ConfigError
from repro.obs.exporters import TRACE_SCHEMA

MERGED_TRACE_SCHEMA = "repro-trace-merged-v1"

FLOW_NAME = "rpc.flow"
FLOW_CAT = "flow"


def merge_traces(traces: list[dict], names: list[str] | None = None) -> dict:
    """Merge Chrome-trace dicts; returns the merged trace dict.

    Args:
        traces: parsed Chrome trace JSON objects (``repro-trace-v1``
            shaped; tolerant of missing ``otherData``).
        names: process name per input; defaults to ``node<i>``.
    """
    if not traces:
        raise ConfigError("nothing to merge: no traces given")
    if names is not None and len(names) != len(traces):
        raise ConfigError(
            f"{len(traces)} traces but {len(names)} names"
        )
    names = names or [f"node{i}" for i in range(len(traces))]

    events: list[dict] = []
    # (trace_id, span_id) -> client attempt event, for flow starts.
    client_attempts: dict[tuple[int, int], dict] = {}
    server_events: list[dict] = []
    dropped = 0

    for pid, (trace, name) in enumerate(zip(traces, names)):
        dropped += int((trace.get("otherData") or {}).get("dropped_events", 0))
        saw_process_name = False
        for event in trace.get("traceEvents", []):
            event = dict(event)
            event["pid"] = pid
            if event.get("ph") == "M" and event.get("name") == "process_name":
                event["args"] = {"name": name}
                saw_process_name = True
            events.append(event)
            args = event.get("args") or {}
            if event.get("ph") == "X" and "trace_id" in args:
                if "parent_span_id" in args:
                    server_events.append(event)
                elif "span_id" in args:
                    client_attempts[(args["trace_id"], args["span_id"])] = event
        if not saw_process_name:
            events.append(
                {
                    "ph": "M",
                    "name": "process_name",
                    "pid": pid,
                    "tid": 0,
                    "args": {"name": name},
                }
            )

    flows = 0
    for server_event in server_events:
        args = server_event["args"]
        key = (args["trace_id"], args["parent_span_id"])
        client_event = client_attempts.get(key)
        if client_event is None:
            continue
        flow_id = f"{key[0]:x}.{key[1]:x}"
        events.append(
            {
                "ph": "s",
                "id": flow_id,
                "name": FLOW_NAME,
                "cat": FLOW_CAT,
                "pid": client_event["pid"],
                "tid": client_event["tid"],
                "ts": client_event["ts"],
            }
        )
        events.append(
            {
                "ph": "f",
                "bp": "e",
                "id": flow_id,
                "name": FLOW_NAME,
                "cat": FLOW_CAT,
                "pid": server_event["pid"],
                "tid": server_event["tid"],
                "ts": server_event["ts"],
            }
        )
        flows += 1

    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "schema": MERGED_TRACE_SCHEMA,
            "sources": list(names),
            "flows": flows,
            "dropped_events": dropped,
        },
    }


def merge_trace_files(paths: list[str | Path], out: str | Path | None = None) -> dict:
    """Load, merge, and optionally write trace files (CLI backend).

    Process names are the file stems (deduplicated with a numeric
    suffix when two files share one). A file that is not JSON, or whose
    document is not a JSON object, raises a :class:`ConfigError` naming
    it.
    """
    traces = []
    names: list[str] = []
    for path in paths:
        path = Path(path)
        try:
            trace = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path} is not valid JSON ({exc})") from None
        if not isinstance(trace, dict):
            raise ConfigError(f"{path} must hold a JSON object, not {type(trace).__name__}")
        traces.append(trace)
        stem = path.stem
        name = stem
        n = 2
        while name in names:
            name = f"{stem}-{n}"
            n += 1
        names.append(name)
    merged = merge_traces(traces, names)
    if out is not None:
        Path(out).write_text(json.dumps(merged))
    return merged


def summarize_trace(trace: dict) -> str:
    """Human-readable summary of a (merged or single) Chrome trace.

    Raises:
        ConfigError: ``trace`` is not a ``repro-trace-v1`` /
            ``repro-trace-merged-v1`` trace with a ``traceEvents`` list.
    """
    events = trace.get("traceEvents")
    other = trace.get("otherData")
    schema = other.get("schema") if isinstance(other, dict) else None
    if schema not in (TRACE_SCHEMA, MERGED_TRACE_SCHEMA) or not isinstance(events, list):
        raise ConfigError(
            f"not a {TRACE_SCHEMA} / {MERGED_TRACE_SCHEMA} trace: schema={schema!r}"
        )
    process_names: dict[int, str] = {}
    span_stats: dict[tuple[int, str], tuple[int, float]] = {}
    flows = 0
    instants = 0
    for event in events:
        ph = event.get("ph")
        if ph == "M" and event.get("name") == "process_name":
            process_names[event.get("pid", 0)] = event["args"]["name"]
        elif ph == "X":
            key = (event.get("pid", 0), event["name"])
            count, total = span_stats.get(key, (0, 0.0))
            span_stats[key] = (count + 1, total + event.get("dur", 0.0))
        elif ph == "i":
            instants += 1
        elif ph == "s":
            flows += 1
    lines = [
        f"schema: {schema}   events: {len(events)}   "
        f"flows: {flows}   instants: {instants}"
    ]
    for pid in sorted(set(pid for pid, _ in span_stats) | set(process_names)):
        lines.append(f"\n[{process_names.get(pid, f'pid {pid}')}]")
        rows = sorted(
            ((name, c, t) for (p, name), (c, t) in span_stats.items() if p == pid),
            key=lambda row: -row[2],
        )
        for name, count, total_us in rows[:12]:
            lines.append(f"  {name:<28} x{count:<6} {total_us / 1e3:10.3f} ms")
        if len(rows) > 12:
            lines.append(f"  ... and {len(rows) - 12} more span names")
    return "\n".join(lines)
