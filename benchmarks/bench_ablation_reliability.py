"""Extension: expected epoch completion time under failures.

The paper evaluates checkpoint overhead (Fig. 12/13) and recovery time
(Fig. 14) separately. This bench composes them into the quantity an
operator actually cares about — expected wall time to finish one epoch
on a fleet with a given MTTF:

    E[total] = epoch_with_checkpoints
             + E[#failures] * (E[lost work] + recovery time)

using this repo's measured epoch times (20-min-equivalent checkpoints)
and each system's recovery model at paper scale, scaled into the
simulated epoch. PMem-OE wins on all three terms at once: cheaper
checkpoints, same lost work, and ~4x faster recovery.

(The *network* as the failure domain is ``bench_ablation_network_faults``.)
"""

from benchmarks.common import failures, simulate_epoch
from repro.bench import Headline, Param, Ref, register
from repro.config import CheckpointConfig, CheckpointMode
from repro.core.recovery import (
    estimate_dram_ps_recovery_seconds,
    estimate_recovery_seconds,
)
from repro.failure.mttf import expected_lost_work_seconds
from repro.simulation.cluster import SystemKind
from repro.simulation.profiles import DEFAULT_PROFILE, PAPER_EPOCH_HOURS
from repro.simulation.trainer_sim import TrainingSimulator

PAPER_ENTRIES = 2_100_000_000
ENTRY_BYTES = 256


def _check(metrics: dict, params: dict) -> list:
    return failures(
        (metrics["oe_recovery_s"] < metrics["dram_recovery_s"],
         "PMem-OE recovery no faster than DRAM-PS's"),
        # Recovery can only widen the gap checkpointing opened.
        (metrics["advantage"] >= metrics["ckpt_only_advantage"] - 1e-6,
         f"composite advantage {metrics['advantage']:.1%} below the "
         f"checkpoint-only {metrics['ckpt_only_advantage']:.1%}"),
    )


@register(
    "ablation_reliability",
    params=[Param("mttf_hours", "float", 12.0, help="fleet MTTF, paper scale")],
    headline={"advantage": Headline(direction="higher", max_regression=0.05)},
    check=_check,
    along="mttf_hours",
    refs=[
        Ref("oe_epoch_s", "PMem-OE epoch w/ checkpoints", "{:.2f} s"),
        Ref("oe_recovery_s", "PMem-OE recovery (scaled)", "{:.3f} s"),
        Ref("oe_total_s", "PMem-OE expected total", "{:.2f} s"),
        Ref("dram_epoch_s", "DRAM-PS epoch w/ checkpoints", "{:.2f} s"),
        Ref("dram_recovery_s", "DRAM-PS recovery (scaled)", "{:.3f} s"),
        Ref("dram_total_s", "DRAM-PS expected total", "{:.2f} s"),
        Ref("advantage", "PMem-OE end-to-end advantage", "{:.1%}",
            paper="> checkpoint-only"),
        Ref("ckpt_only_advantage", "  checkpoint-only advantage", "{:.1%}"),
    ],
)
def entry(*, mttf_hours):
    """Extension: expected epoch completion at one MTTF, PMem-OE vs
    DRAM-PS, in simulated-epoch units."""
    iters = DEFAULT_PROFILE.iterations(16)
    base = simulate_epoch(SystemKind.PMEM_OE, 16, iterations=iters).sim_seconds
    interval = TrainingSimulator.interval_for_epoch_fraction(
        base, 20, PAPER_EPOCH_HOURS
    )
    oe = simulate_epoch(
        SystemKind.PMEM_OE, 16, iterations=iters,
        checkpoint=CheckpointConfig(CheckpointMode.BATCH_AWARE, interval),
    ).sim_seconds
    dram = simulate_epoch(
        SystemKind.DRAM_PS, 16, iterations=iters,
        checkpoint=CheckpointConfig(CheckpointMode.INCREMENTAL, interval),
    ).sim_seconds
    # Scale paper-scale recovery and MTTF into the simulated epoch: one
    # simulated epoch stands for PAPER_EPOCH_HOURS of wall time.
    scale = base / (PAPER_EPOCH_HOURS * 3600)
    oe_recovery = scale * estimate_recovery_seconds(
        entries=PAPER_ENTRIES, versions=PAPER_ENTRIES, entry_bytes=ENTRY_BYTES
    )
    dram_recovery = scale * estimate_dram_ps_recovery_seconds(
        entries=PAPER_ENTRIES, entry_bytes=ENTRY_BYTES, checkpoint_device="pmem"
    )
    mttf = mttf_hours * 3600 * scale
    lost = expected_lost_work_seconds(interval, mttf)
    oe_total = oe + oe / mttf * (lost + oe_recovery)
    dram_total = dram + dram / mttf * (lost + dram_recovery)
    return {
        "oe_epoch_s": oe,
        "dram_epoch_s": dram,
        "oe_recovery_s": oe_recovery,
        "dram_recovery_s": dram_recovery,
        "oe_total_s": oe_total,
        "dram_total_s": dram_total,
        "advantage": 1 - oe_total / dram_total,
        "ckpt_only_advantage": 1 - oe / dram,
    }
