"""Ablation: gradient staleness — why the paper trains synchronously.

Section II: the paper chooses synchronous training because prior work
reports *"synchronous training yields faster convergence with higher
accuracy than asynchronous training"*. The mechanism is gradient
staleness: an asynchronous worker applies gradients computed against
weights other workers have since updated.

This bench isolates exactly that variable: the same DeepFM consumes the
same 240 worker-batches at the same learning rate; only the staleness
(scheduler steps between computing and applying a gradient) changes.
Staleness 0 is equivalent to fully synchronous sequential SGD.
"""

import numpy as np

from benchmarks.common import failures
from repro.bench import Headline, Param, Ref, Trend, register
from repro.config import CacheConfig, ServerConfig
from repro.core.optimizers import PSAdagrad
from repro.core.server import OpenEmbeddingServer
from repro.dlrm.async_trainer import AsynchronousTrainer
from repro.dlrm.criteo import CriteoSynthetic
from repro.dlrm.deepfm import DeepFM
from repro.dlrm.optimizers import Adam

FIELDS, DIM, BATCH = 8, 16, 32


def _run(staleness: int, steps: int) -> list[float]:
    server = OpenEmbeddingServer(
        ServerConfig(
            num_nodes=2, embedding_dim=DIM, pmem_capacity_bytes=1 << 28, seed=3
        ),
        CacheConfig(capacity_bytes=256 << 10),
        PSAdagrad(lr=0.08),
    )
    model = DeepFM(FIELDS, DIM, hidden=(32,), use_first_order=False, seed=3)
    trainer = AsynchronousTrainer(
        server,
        model,
        CriteoSynthetic(num_fields=FIELDS, vocab_per_field=300, seed=6),
        num_workers=4,
        batch_size=BATCH,
        staleness=staleness,
        dense_optimizer=Adam(3e-3),
    )
    return trainer.run_steps(steps)


def _check(metrics: dict, params: dict) -> list:
    return failures(
        (metrics["degradation"] >= 0,
         "stale gradients converged better than synchronous SGD"),
    )


@register(
    "ablation_sync_async",
    params=[
        Param("staleness", "int", 24, help="scheduler steps of staleness"),
        Param("steps", "int", 240),
    ],
    smoke={"steps": 80},
    headline={
        "degradation": Headline(direction="higher", max_regression=0.25),
        "final_loss_sync": Headline(direction="lower", max_regression=0.10),
    },
    check=_check,
    along="staleness",
    refs=[
        Ref("final_loss_stale", "staleness {staleness} (0 = synchronous)",
            "final loss {:.4f}", paper="fresher is better"),
    ],
    # Synchronous (staleness 0) converges best; degradation is monotone
    # in staleness — the effect the paper's design choice avoids.
    trends=[Trend("final_loss_stale", along="staleness", shape="rising", by=0.01)],
)
def entry(*, staleness, steps):
    """Ablation: convergence vs gradient staleness — final loss of
    synchronous SGD and of one staleness level on the same batches."""
    window = max(steps // 5, 4)
    final_sync = float(np.mean(_run(0, steps)[-window:]))
    final_stale = float(np.mean(_run(staleness, steps)[-window:]))
    return {
        "final_loss_sync": final_sync,
        "final_loss_stale": final_stale,
        "degradation": final_stale - final_sync,
    }
