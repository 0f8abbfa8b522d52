"""Extension: recovery vs hot-standby replication.

The paper chooses checkpoint *recovery* for reliability; the classic
alternative is synchronous *replication*. This bench quantifies both
sides of the trade at the paper's scale:

* downtime per failure: Figure 14's recovery (380 s, scaling with the
  table) vs a constant sub-second failover;
* what replication costs: 2x PS hardware (Table V pricing) and a
  doubled update path;
* and a live demo that failover really loses nothing (post-checkpoint
  batches included), where recovery by design rolls back.
"""

import numpy as np

from benchmarks.common import failures
from repro.bench import Headline, Param, Ref, register
from repro.config import CacheConfig, ServerConfig
from repro.core.optimizers import PSSGD
from repro.core.replication import (
    FAILOVER_SECONDS,
    ReplicatedPSNode,
    replication_vs_recovery_seconds,
)
from repro.cost.pricing import PMEM_OE_DEPLOYMENT, cost_per_epoch
from repro.simulation.profiles import PAPER_EPOCH_HOURS

DIM = 8
PAPER_ENTRIES = 2_100_000_000


def live_demo():
    """(simulated failover seconds, post-checkpoint work preserved?)"""
    node = ReplicatedPSNode(
        0,
        ServerConfig(embedding_dim=DIM, pmem_capacity_bytes=1 << 24, seed=6),
        CacheConfig(capacity_bytes=32 << 10),
        PSSGD(lr=0.1),
    )
    keys = list(range(500))

    def cycle(batch):
        node.pull(keys, batch)
        node.maintain(batch)
        node.push(keys, np.full((len(keys), DIM), 0.1, dtype=np.float32), batch)

    cycle(0)
    node.barrier_checkpoint(0)
    cycle(1)  # work past the checkpoint
    live_state = node.state_snapshot()
    node.verify_replicas_identical()
    node.kill_primary()
    elapsed = node.failover()
    preserved = all(
        np.array_equal(node.state_snapshot()[k], live_state[k]) for k in live_state
    )
    return elapsed, preserved


def _check(metrics: dict, params: dict) -> list:
    return failures(
        (metrics["demo_preserved"], "failover lost post-checkpoint work"),
        (metrics["failover_s"] == FAILOVER_SECONDS,
         "failover downtime is not the constant role switch"),
        (metrics["speedup_x"] > 100,
         f"failover only {metrics['speedup_x']:.0f}x faster than recovery"),
    )


@register(
    "ablation_replication",
    params=[Param("entries", "int", PAPER_ENTRIES, help="analytic scale")],
    headline={
        "speedup_x": Headline(direction="higher", max_regression=0.05),
        "demo_preserved": Headline(),
    },
    check=_check,
    refs=[
        Ref("recovery_s", "downtime per failure: recovery", "{:.1f} s",
            paper="380.2 s (Fig 14)"),
        Ref("failover_s", "downtime per failure: failover", "{:.1f} s",
            paper="O(seconds)"),
        Ref("speedup_x", "failover speedup", "{:.0f}x"),
        Ref("cost_single", "PS cost per epoch, 1x", "${:.1f}", paper="Table V"),
        Ref("cost_replicated", "PS cost per epoch, replicated", "${:.1f}",
            paper="doubles Table V"),
        Ref("demo_failover_s", "live demo: failover took", "{:.1f} s"),
        Ref("demo_preserved", "live demo: work preserved", "{}", paper="True"),
    ],
)
def entry(*, entries):
    """Extension: downtime and cost of checkpoint recovery vs hot-standby
    replication, plus the nothing-lost live failover demo."""
    failover, recovery = replication_vs_recovery_seconds(
        entries=entries, entry_bytes=256
    )
    demo_elapsed, demo_preserved = live_demo()
    single = cost_per_epoch(PMEM_OE_DEPLOYMENT, PAPER_EPOCH_HOURS)
    return {
        "failover_s": failover,
        "recovery_s": recovery,
        "speedup_x": recovery / failover,
        "cost_single": single,
        "cost_replicated": 2 * single,
        "demo_failover_s": demo_elapsed,
        "demo_preserved": demo_preserved,
    }
