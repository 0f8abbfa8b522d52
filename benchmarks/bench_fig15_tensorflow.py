"""Figure 15: performance comparison with TensorFlow on Criteo.

The Section VI-F sanity check on the (smaller) Criteo Kaggle dataset,
embedding dims 16 and 64, 1/2/4 GPUs, 128 MB cache for PMem-OE.

Paper: PMem-OE's training-time reduction vs TensorFlow is
6.3/19.5/30.1 % (dim 16) and 6.4/34.2/52 % (dim 64) at 1/2/4 GPUs;
DRAM-PS is best with PMem-OE within 5 %; PMem-Hash needs up to 4.3x
TensorFlow's time. Also: the 500 GB production model simply does not
fit the TensorFlow single-server baseline.
"""

from benchmarks.common import failures
from repro.baselines.tensorflow_ps import TensorFlowPS
from repro.bench import Headline, Param, Ref, Trend, register
from repro.config import (
    CacheConfig,
    CheckpointConfig,
    ClusterConfig,
    NetworkConfig,
    ServerConfig,
    WorkloadConfig,
)
from repro.simulation.cluster import SystemKind
from repro.simulation.trainer_sim import TrainingSimulator
from repro.workload.generator import WorkloadGenerator

#: Criteo-scale operating point (scaled like the main profile).
CRITEO_KEYS = 100_000
FEATURES = 8
BATCH = 64


def criteo_epoch(system, workers, dim):
    server = ServerConfig(embedding_dim=dim, pmem_capacity_bytes=1 << 30)
    # 128 MB of a 2 GB (dim-16) table = 6.4 %; same absolute cache for
    # dim 64 = 1.6 % — exactly the paper's setup.
    cache = CacheConfig(capacity_bytes=max(1, int(0.064 * CRITEO_KEYS * 16 * 4)))
    cluster = ClusterConfig(
        num_workers=workers,
        batch_size=BATCH,
        network=NetworkConfig(bandwidth_bytes_per_s=60e6),
    )
    workload = WorkloadGenerator(
        WorkloadConfig(num_keys=CRITEO_KEYS, features_per_sample=FEATURES, seed=3)
    )
    simulator = TrainingSimulator(
        system, cluster, server, cache, CheckpointConfig.none(), workload
    )
    return simulator.run(max(60, 960 // (workers * 4))).sim_seconds


def _check(metrics: dict, params: dict) -> list:
    return failures(
        (metrics["reduction_vs_tf"] > 0,
         "PMem-OE should beat the TensorFlow baseline"),
        (metrics["gap_vs_dram"] < 0.08,
         f"PMem-OE gap to DRAM-PS {metrics['gap_vs_dram']:.1%} >= 8%"),
        (metrics["ph_vs_tf"] < 5.0,
         f"PMem-Hash at {metrics['ph_vs_tf']:.2f}x TensorFlow's time (>= 5x)"),
        (not metrics["tf_fits_500gb"],
         "the 500 GB model should not fit the TensorFlow single server"),
    )


@register(
    "fig15_tensorflow",
    params=[
        Param("dim", "int", 64, choices=[16, 64]),
        Param("workers", "int", 4, choices=[1, 2, 4]),
    ],
    headline={
        "reduction_vs_tf": Headline(direction="higher", max_regression=0.10),
        "gap_vs_dram": Headline(direction="lower", max_regression=0.10,
                                noise=0.01),
    },
    check=_check,
    along=("dim", "workers"),
    refs=[
        Ref("reduction_vs_tf", "OE vs TF, dim {dim:>2} @ {workers} GPUs",
            "{:.1%} faster",
            paper={(16, 1): 0.063, (16, 2): 0.195, (16, 4): 0.301,
                   (64, 1): 0.064, (64, 2): 0.342, (64, 4): 0.52}),
        Ref("gap_vs_dram", "  OE gap to DRAM-PS", "{:.1%}", paper="< 5%"),
        Ref("ph_vs_tf", "  PMem-Hash vs TF", "{:.2f}x", paper="up to 4.3x"),
        Ref("tf_fits_500gb", "  500 GB model deployable on TF", "{}",
            paper="no (> 384 GB)"),
    ],
    # OE's win over TF widens with workers, and dim 64 amplifies it.
    trends=[
        Trend("reduction_vs_tf", along="workers", shape="rising"),
        Trend("reduction_vs_tf", along="dim", shape="rising", strict=True),
    ],
)
def entry(*, dim, workers):
    """Figure 15: Criteo-scale training time against TensorFlow, DRAM-PS
    and PMem-Hash at one (dim, workers) point."""
    tf = criteo_epoch(SystemKind.TF_PS, workers, dim)
    oe = criteo_epoch(SystemKind.PMEM_OE, workers, dim)
    dram = criteo_epoch(SystemKind.DRAM_PS, workers, dim)
    ph = criteo_epoch(SystemKind.PMEM_HASH, workers, dim)
    tf_500gb = TensorFlowPS(ServerConfig(embedding_dim=64))
    return {
        "reduction_vs_tf": 1 - oe / tf,
        "gap_vs_dram": oe / dram - 1,
        "ph_vs_tf": ph / tf,
        "tf_fits_500gb": bool(tf_500gb.supports_model_bytes(500 << 30)),
    }
