"""Figure 7: pipelined cache management (no checkpoints).

Paper (ratio to DRAM-PS at the same GPU count):
  PMem-OE:   1.012 (4), 1.043 (8), 1.087 (16)
  Ori-Cache: 1.24 (4),  1.56 (8),  2.27 (16)
and DRAM-PS's own epoch shrinks 40 % / 65 % going 4 -> 8 / 16 GPUs.
"""

from benchmarks.common import failures, simulate_epoch
from repro.bench import Headline, Param, Ref, register
from repro.simulation.cluster import SystemKind


def _check(metrics: dict, params: dict) -> list:
    return failures(
        # PMem-OE tracks DRAM-PS closely; Ori-Cache falls away.
        (metrics["oe_ratio"] < metrics["ori_ratio"],
         "pipelined PMem-OE should beat the inline Ori-Cache"),
    )


@register(
    "fig7_pipeline",
    params=[Param("workers", "int", 16)],
    headline={
        "oe_ratio": Headline(direction="lower", max_regression=0.05),
        "ori_ratio": Headline(direction="lower", max_regression=0.10),
    },
    check=_check,
    along="workers",
    refs=[
        Ref("oe_ratio", "PMem-OE   @ {workers} GPUs", "{:.3f}x",
            paper={4: 1.012, 8: 1.043, 16: 1.087}, abs=0.06),
        Ref("ori_ratio", "Ori-Cache @ {workers} GPUs", "{:.2f}x",
            paper={4: 1.24, 8: 1.56, 16: 2.27}, rel=0.25),
        Ref("dram_vs_4gpu", "DRAM-PS epoch {workers}/4 GPUs", "{:.2f}x",
            paper={8: 0.60, 16: 0.35}, abs=0.05),
    ],
)
def entry(*, workers):
    """Figure 7: training time without checkpoints — pipelined PMem-OE
    and the inline Ori-Cache as ratios to DRAM-PS."""
    dram = simulate_epoch(SystemKind.DRAM_PS, workers).sim_seconds
    oe = simulate_epoch(SystemKind.PMEM_OE, workers).sim_seconds
    ori = simulate_epoch(SystemKind.ORI_CACHE, workers).sim_seconds
    dram4 = dram if workers == 4 else simulate_epoch(SystemKind.DRAM_PS, 4).sim_seconds
    return {
        "oe_ratio": oe / dram,
        "ori_ratio": ori / dram,
        "dram_vs_4gpu": dram / dram4,
    }
