"""The fixed cost of one RPC, per call, on the e2e ``serve_mixed`` client.

Builds ``ServeMixed(seed)``'s 2-shard ``RemotePSClient`` and times, one
after another in every round so that machine drift hits each alike:

    heartbeat   one HeartbeatRequest round trip on shard 0's probe channel
    lookup      one LookupRequest round trip on shard 0's data channel,
                for the shard-0 half of a 208-key serving lookup (~100 keys)
    node        PSNode.lookup of the same keys at the same pin: the
                handler's own work inside that round trip
    codec       encode + decode of the request frame and of the reply frame

and prints the medians in microseconds, with ``lookup - node``: what the
wire's layers (codec, channel, dispatch, handler glue) add to the handler.

    PYTHONPATH=src python scripts/rpc_floor.py [--calls 3000] [--against OTHER/src]

``--against`` builds the same client from a second checkout's ``src``
(its ``benchmarks/e2e`` beside it) in the same process and interleaves
the two trees call by call, so a before / after reads off one run. A wall
clock: compare the columns of one run, not runs on different machines.
"""

from __future__ import annotations

import argparse
import importlib.util
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MEASURES = ("heartbeat", "lookup", "node", "codec")


class Tree:
    """One checkout's ``repro`` package and a built ``serve_mixed`` client."""

    def __init__(self, src: Path, seed: int):
        for name in [name for name in sys.modules if name.split(".")[0] == "repro"]:
            del sys.modules[name]
        sys.path.insert(0, str(src))
        try:
            spec = importlib.util.spec_from_file_location(
                f"_workloads_{id(self)}", src.parent / "benchmarks/e2e/workloads.py"
            )
            workloads = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(workloads)
            from repro.network import messages

            workload = workloads.ServeMixed(seed)
        finally:
            sys.path.remove(str(src))
        self.modules = {
            name: module
            for name, module in sys.modules.items()
            if name.split(".")[0] == "repro"
        }
        self.name = str(src)
        self.messages = messages
        client = workload.system.client
        keys = workload._keys(0)
        self.keys = client.partitioner.split(keys)[0][0]
        self.pin = client.latest_serving_snapshot
        self.channel = client.channels[0]
        self.probe = client.probe_channel(0)
        self.node = client.nodes[0]
        # The lookup reply's kind (type byte 0x0E): the node's LookupResult
        # itself, or, in a tree that declared a reply class beside it, that
        # class, built from the result's fields.
        self.reply_kind = messages._MESSAGE_TYPES[0x0E]

    def measure(self) -> dict[str, float]:
        """One timed call of each measure, in seconds."""
        sys.modules.update(self.modules)  # lazy imports resolve to this tree
        m, clock = self.messages, time.perf_counter
        request = m.LookupRequest(snapshot_id=self.pin, keys=self.keys)
        heartbeat = m.HeartbeatRequest(node_id=0)
        out = {}
        start = clock()
        self.probe.call(heartbeat)
        out["heartbeat"] = clock() - start
        start = clock()
        self.channel.call(request)
        out["lookup"] = clock() - start
        start = clock()
        result = self.node.lookup(self.keys, self.pin)
        out["node"] = clock() - start
        kind = self.reply_kind
        if not isinstance(result, kind):
            result = kind(**{name: getattr(result, name) for name in kind.__dataclass_fields__})
        start = clock()
        m.decode_message(m.encode_message(request))
        m.decode_message(m.encode_message(result))
        out["codec"] = clock() - start
        return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--calls", type=int, default=3000)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--against", type=Path, default=None)
    args = parser.parse_args(argv)
    trees = [Tree(ROOT / "src", args.seed)]
    if args.against is not None:
        trees.append(Tree(args.against.resolve(), args.seed))
    samples = [{name: [] for name in MEASURES} for __ in trees]
    for __ in range(args.calls):
        for tree, sample in zip(trees, samples):
            for name, seconds in tree.measure().items():
                sample[name].append(seconds)
    print(f"serve_mixed seed {args.seed}: {len(trees[0].keys)} keys on shard 0, "
          f"medians of {args.calls} interleaved calls, us")
    rows = []
    for tree, sample in zip(trees, samples):
        med = {name: statistics.median(sample[name]) * 1e6 for name in MEASURES}
        med["lookup - node"] = med["lookup"] - med["node"]
        rows.append(med)
        print(f"  {tree.name}")
        for name, value in med.items():
            print(f"    {name:<14} {value:9.1f}")
    if len(rows) == 2:
        print("  this tree / --against")
        for name in rows[0]:
            print(f"    {name:<14} {rows[0][name] / rows[1][name]:9.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
