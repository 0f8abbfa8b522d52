"""Table V: price of the parameter servers.

Reproduces the deployment sizing (2 DRAM machines vs 1 PMem machine for
500 GB), the hourly PS price, and the cost per epoch. Machine counts and
$/hour come from the pricing model; epoch hours combine the paper's
DRAM-PS baseline with OUR measured relative epoch times, so the
$-per-epoch column is a genuine model output, not a transcription.
"""

from benchmarks.common import failures, simulate_epoch
from repro.bench import Headline, Param, Ref, register
from repro.config import CheckpointConfig, CheckpointMode
from repro.cost.pricing import (
    R6E_13XLARGE,
    RE6P_13XLARGE,
    cost_per_epoch,
    deployment_for_model,
)
from repro.simulation.cluster import SystemKind
from repro.simulation.trainer_sim import TrainingSimulator

GB = 1 << 30
PAPER_DRAM_EPOCH_HOURS = 5.75
#: name -> (metric prefix, system, its checkpoint mode, instance type)
SYSTEMS = {
    "DRAM-PS": ("dram", SystemKind.DRAM_PS, CheckpointMode.INCREMENTAL, R6E_13XLARGE),
    "PMem-OE": ("oe", SystemKind.PMEM_OE, CheckpointMode.BATCH_AWARE, RE6P_13XLARGE),
    "Ori-Cache": ("ori", SystemKind.ORI_CACHE, CheckpointMode.INCREMENTAL, RE6P_13XLARGE),
}
#: name -> the paper's (machines, $/hour, epoch hours, $/epoch)
PAPER = {
    "DRAM-PS": (2, 6.07, 5.75, 34.9),
    "PMem-OE": (1, 3.80, 5.33, 20.3),
    "Ori-Cache": (1, 3.80, 7.01, 26.6),
}


def _check(metrics: dict, params: dict) -> list:
    return failures(
        (0.30 < metrics["oe_saving_vs_dram"] < 0.50,
         f"PMem-OE saving vs DRAM-PS "
         f"{metrics['oe_saving_vs_dram']:.0%} outside 30-50%"),
        (0.05 < metrics["oe_saving_vs_ori"] < 0.35,
         f"PMem-OE saving vs Ori-Cache "
         f"{metrics['oe_saving_vs_ori']:.0%} outside 5-35%"),
    )


def _refs():
    for name, (machines, rate, hours, cost) in PAPER.items():
        key = SYSTEMS[name][0]
        yield Ref(f"{key}_machines", f"{name} machines", "{}", machines, abs=0)
        yield Ref(f"{key}_rate", f"{name} $/hour", "{:.2f}", rate, abs=0.01)
        yield Ref(f"{key}_hours", f"{name} epoch hours", "{:.2f}", hours)
        yield Ref(f"{key}_cost", f"{name} $/epoch", "{:.1f}", cost)
    yield Ref("oe_saving_vs_dram", "PMem-OE saving vs DRAM-PS", "{:.0%}", 0.42)
    yield Ref("oe_saving_vs_ori", "PMem-OE saving vs Ori-Cache", "{:.0%}", 0.24)


@register(
    "table5_cost",
    params=[Param("workers", "int", 4)],
    headline={
        "oe_saving_vs_dram": Headline(direction="higher", max_regression=0.05),
        "oe_saving_vs_ori": Headline(direction="higher", max_regression=0.10),
    },
    check=_check,
    refs=list(_refs()),
)
def entry(*, workers):
    """Table V: parameter-server cost for the 500 GB model — sizing,
    $/hour, epoch hours and $/epoch per system, and PMem-OE's savings."""
    base = simulate_epoch(SystemKind.DRAM_PS, workers)
    interval = TrainingSimulator.interval_for_epoch_fraction(
        base.sim_seconds, 20, PAPER_DRAM_EPOCH_HOURS
    )
    seconds = {
        key: simulate_epoch(
            system, workers, checkpoint=CheckpointConfig(mode, interval)
        ).sim_seconds
        for key, system, mode, __ in SYSTEMS.values()
    }
    metrics = {}
    for name, (key, __, __, instance) in SYSTEMS.items():
        deployment = deployment_for_model(500 * GB, instance, name)
        hours = PAPER_DRAM_EPOCH_HOURS * seconds[key] / seconds["dram"]
        metrics[f"{key}_machines"] = deployment.machines
        metrics[f"{key}_rate"] = deployment.dollars_per_hour
        metrics[f"{key}_hours"] = hours
        metrics[f"{key}_cost"] = cost_per_epoch(deployment, hours)
    metrics["oe_saving_vs_dram"] = 1 - metrics["oe_cost"] / metrics["dram_cost"]
    metrics["oe_saving_vs_ori"] = 1 - metrics["oe_cost"] / metrics["ori_cost"]
    return metrics
