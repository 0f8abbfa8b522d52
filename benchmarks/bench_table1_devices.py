"""Table I: performance comparison of DRAM / PMem / flash SSD.

Regenerates the table from the device models by measuring effective
bandwidth over large sequential transfers and per-op latency on tiny
accesses — the same quantities the paper's microbenchmarks report.
"""

from benchmarks.common import failures
from repro.bench import Headline, Ref, register
from repro.simulation.device import DRAM_SPEC, GB, MemoryDevice, PMEM_SPEC, SSD_SPEC

SPECS = {"dram": DRAM_SPEC, "pmem": PMEM_SPEC, "ssd": SSD_SPEC}
#: per device: read / write bandwidth (GB/s), read / write latency (ns)
COLUMNS = ("read_gbps", "write_gbps", "read_ns", "write_ns")
PAPER = {
    "dram": (115, 79, 81, 86),
    "pmem": (39, 14, 305, 94),
    "ssd": ("2~3", "1~2", ">10000", ">10000"),
}


def measure(spec) -> dict:
    device = MemoryDevice(spec)
    big = 4 * GB
    return {
        "read_gbps": big / device.read(big) / GB,
        "write_gbps": big / device.write(big) / GB,
        "read_ns": spec.read_time(0) * 1e9,
        "write_ns": spec.write_time(0) * 1e9,
    }


def _check(metrics: dict, params: dict) -> list:
    return failures(
        (2.5 < metrics["read_ratio"] < 3.5,
         f"DRAM/PMem read ratio {metrics['read_ratio']:.1f} outside ~3x"),
        (4.5 < metrics["write_ratio"] < 6.5,
         f"DRAM/PMem write ratio {metrics['write_ratio']:.1f} outside ~5x"),
    )


@register(
    "table1_devices",
    params=[],
    headline={
        "read_ratio": Headline(direction="higher", max_regression=0.05),
        "write_ratio": Headline(direction="higher", max_regression=0.05),
    },
    check=_check,
    refs=[
        Ref(f"{device}_{column}", f"{SPECS[device].name} {column}", "{:.0f}", paper)
        for device, papers in PAPER.items()
        for column, paper in zip(COLUMNS, papers)
    ] + [
        Ref("read_ratio", "PMem/DRAM read throughput", "1/{:.1f}", paper="~1/3"),
        Ref("write_ratio", "PMem/DRAM write throughput", "1/{:.1f}", paper="~1/5"),
    ],
)
def entry():
    """Table I: device bandwidth (GB/s) and latency (ns) from the device
    models, and the DRAM/PMem throughput ratios."""
    metrics = {
        f"{device}_{column}": value
        for device, spec in SPECS.items()
        for column, value in measure(spec).items()
    }
    metrics["read_ratio"] = metrics["dram_read_gbps"] / metrics["pmem_read_gbps"]
    metrics["write_ratio"] = metrics["dram_write_gbps"] / metrics["pmem_write_gbps"]
    return metrics
