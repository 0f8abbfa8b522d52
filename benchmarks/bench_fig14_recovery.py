"""Figure 14: recovery-time comparison.

Paper (2.1 B entries, 500 GB model):
  DRAM-PS restoring its checkpoint from SSD:  1512.8 s
  DRAM-PS restoring its checkpoint from PMem:  751.1 s
  PMem-OE scan + index rebuild:                380.2 s  (3.97x faster)

Two parts here: (a) the analytic model evaluated at the paper's scale,
(b) an actual end-to-end crash/recover of scaled-down live systems to
show the same ordering with real data structures.
"""

import numpy as np

from benchmarks.common import failures
from repro.baselines.dram_ps import DRAMPSNode
from repro.bench import Headline, Param, Ref, register
from repro.config import CacheConfig, ServerConfig
from repro.core.ps_node import PSNode
from repro.core.recovery import (
    estimate_dram_ps_recovery_seconds,
    estimate_recovery_seconds,
    recover_node,
)

ENTRIES = 2_100_000_000
ENTRY_BYTES = 256


def live_recovery_demo(num_keys: int):
    """Crash scaled-down live systems; return (PMem-OE, DRAM-PS) entries
    recovered."""
    server_config = ServerConfig(
        embedding_dim=16, pmem_capacity_bytes=1 << 26, seed=1
    )
    cache_config = CacheConfig(capacity_bytes=64 << 10)
    keys = list(range(num_keys))
    grads = np.full((len(keys), 16), 0.1, dtype=np.float32)

    oe = PSNode(0, server_config, cache_config)
    oe.pull(keys, 0)
    oe.maintain(0)
    oe.push(keys, grads, 0)
    oe.barrier_checkpoint()
    __, oe_report = recover_node(oe.crash(), server_config, cache_config)

    dram = DRAMPSNode(server_config)
    dram.pull(keys, 0)
    dram.push(keys, grads, 0)
    dram.checkpoint()
    recovered, __ = DRAMPSNode.recover(dram.crash(), server_config)
    return oe_report.entries_recovered, recovered.num_entries


def _check(metrics: dict, params: dict) -> list:
    return failures(
        (metrics["live_oe_entries"] == metrics["live_dram_entries"]
         == params["live_entries"],
         "live PMem-OE and DRAM-PS recovered entry counts differ"),
    )


@register(
    "fig14_recovery",
    params=[
        Param("entries", "int", ENTRIES, help="analytic model scale"),
        Param("live_entries", "int", 5000, help="live crash/recover demo size"),
    ],
    smoke={"live_entries": 2000},
    headline={
        "speedup_vs_ssd": Headline(direction="higher", max_regression=0.05),
        "live_oe_entries": Headline(direction="higher", max_regression=0.0),
    },
    check=_check,
    refs=[
        Ref("dram_ssd_s", "DRAM-PS, checkpoint on SSD", "{:.1f}",
            paper=1512.8, rel=0.12),
        Ref("dram_pmem_s", "DRAM-PS, checkpoint on PMem", "{:.1f}",
            paper=751.08, rel=0.12),
        Ref("pmem_oe_s", "PMem-OE, scan + rebuild", "{:.1f}",
            paper=380.2, rel=0.12),
        Ref("speedup_vs_ssd", "PMem-OE speedup vs SSD path", "{:.2f}x",
            paper=3.97, rel=0.15),
        Ref("live_oe_entries", "live demo: PMem-OE recovered", "{}",
            paper="every entry"),
        Ref("live_dram_entries", "live demo: DRAM-PS restored", "{}",
            paper="every entry"),
    ],
)
def entry(*, entries, live_entries):
    """Figure 14: analytic recovery times at paper scale plus a live
    scaled-down crash/recover on real data structures."""
    dram_ssd = estimate_dram_ps_recovery_seconds(
        entries=entries, entry_bytes=ENTRY_BYTES, checkpoint_device="ssd"
    )
    dram_pmem = estimate_dram_ps_recovery_seconds(
        entries=entries, entry_bytes=ENTRY_BYTES, checkpoint_device="pmem"
    )
    pmem_oe = estimate_recovery_seconds(
        entries=entries, versions=entries, entry_bytes=ENTRY_BYTES
    )
    live_oe, live_dram = live_recovery_demo(live_entries)
    return {
        "dram_ssd_s": dram_ssd,
        "dram_pmem_s": dram_pmem,
        "pmem_oe_s": pmem_oe,
        "speedup_vs_ssd": dram_ssd / pmem_oe,
        "live_oe_entries": live_oe,
        "live_dram_entries": live_dram,
    }
