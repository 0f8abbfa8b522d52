"""Extension: RPC fault tolerance — the network as the failure domain.

The same functional training is run over ``RemotePSClient`` on a clean
wire and under a seeded message drop/duplicate/delay/corrupt schedule,
reporting the retry, dedup, wire-byte and time overhead the
fault-tolerant RPC layer pays — while the trained weights stay
bit-identical to the clean wire (retries and dedup are semantics-free).
"""

import numpy as np

from benchmarks.common import failures
from repro.bench import Headline, Param, Ref, register
from repro.config import CacheConfig, NetworkFaultConfig, RetryConfig, ServerConfig
from repro.network.frontend import RemotePSClient

DIM = 8


def remote_training_run(fault_rate: float, batches: int):
    """Functional remote training under a seeded fault schedule."""
    server_config = ServerConfig(
        num_nodes=2, embedding_dim=DIM, pmem_capacity_bytes=1 << 24, seed=4
    )
    faults = (
        NetworkFaultConfig(
            drop_rate=fault_rate,
            duplicate_rate=fault_rate / 2,
            corrupt_rate=fault_rate / 2,
            delay_rate=fault_rate,
            delay_mean_s=2e-3,
            seed=13,
        )
        if fault_rate > 0
        else None
    )
    client = RemotePSClient(
        server_config,
        CacheConfig(capacity_bytes=32 * DIM * 4),
        faults=faults,
        retry=RetryConfig(
            max_attempts=12, attempt_timeout_s=0.02, call_timeout_s=2.0, seed=1
        ),
    )
    rng = np.random.default_rng(0)
    for batch in range(batches):
        keys = sorted(rng.choice(200, size=10, replace=False).tolist())
        grads = rng.normal(0, 0.1, (10, DIM)).astype(np.float32)
        client.pull(keys, batch)
        client.maintain(batch)
        client.push(keys, grads, batch)
    return client


def _check(metrics: dict, params: dict) -> list:
    # Retries are semantics-free at every fault level, and a lossy wire
    # must actually cost retries + bytes + time.
    lossy = params["fault_rate"] > 0
    return failures(
        (metrics["identical"], "faulty-wire weights diverged from the clean wire"),
        (metrics["timeouts"] == 0, f"{metrics['timeouts']} calls timed out"),
        (not lossy or metrics["retries"] > 0, "a lossy wire must cost retries"),
        (not lossy or metrics["wire_overhead_frac"] > 0,
         "a lossy wire must cost wire bytes"),
        (not lossy or metrics["sim_ms"] > metrics["clean_sim_ms"],
         "a lossy wire must cost time"),
    )


@register(
    "ablation_network_faults",
    params=[
        Param("fault_rate", "float", 0.08, help="drop/delay rate; dup and "
              "corrupt run at half this"),
        Param("batches", "int", 25),
    ],
    smoke={"batches": 15},
    headline={
        "identical": Headline(),
        "wire_overhead_frac": Headline(direction="lower", max_regression=0.25),
    },
    check=_check,
    along="fault_rate",
    refs=[
        Ref("identical", "fault rate {fault_rate:.0%}: weights", "{}",
            paper="bit-identical"),
        Ref("retries", "fault rate {fault_rate:.0%}: retries", "{}"),
        Ref("dup_suppressed", "fault rate {fault_rate:.0%}: dedup", "{}"),
        Ref("wire_overhead_frac", "fault rate {fault_rate:.0%}: wire", "+{:.1%}"),
        Ref("sim_ms", "fault rate {fault_rate:.0%}: time", "{:.1f} ms"),
    ],
)
def entry(*, fault_rate, batches):
    """Extension: retry/dedup/wire/time overhead of remote training on a
    lossy wire vs a clean one, with bit-identical weights."""
    clean = remote_training_run(0.0, batches)
    faulty = remote_training_run(fault_rate, batches)
    clean_state = clean.state_snapshot()
    faulty_state = faulty.state_snapshot()
    reliability = faulty.reliability()
    return {
        "identical": set(clean_state) == set(faulty_state) and all(
            np.array_equal(faulty_state[key], clean_state[key])
            for key in clean_state
        ),
        "retries": reliability.retries,
        "timeouts": reliability.timeouts,
        "dup_suppressed": reliability.dup_suppressed,
        "faults_injected": reliability.faults_injected,
        "wire_overhead_frac": faulty.wire_bytes() / clean.wire_bytes() - 1,
        "sim_ms": faulty.clock.now * 1e3,
        "clean_sim_ms": clean.clock.now * 1e3,
    }
