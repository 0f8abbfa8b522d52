"""Ablation: staleness bound x aggregator x hostile fraction.

ISSUE 10's convergence grid: the asynchronous trainer runs the same
seeded workload while three axes vary — the PS-side staleness bound
``k``, the robust-aggregation fold, and the fraction of workers turned
Byzantine (sign-flip gradients, amplified, plus duplicated and delayed
pushes). Held-out AUC / log-loss are the headlines the perf gate
guards: a regression here means the defense layer stopped earning its
keep, not that a loop got slower.

Each cell also reports the two references the paper's Section II
argument needs: the fault-free synchronous baseline, and plain ``mean``
under the *same* injection — robust aggregation under a hostile
minority stays inside the sync envelope, plain mean diverges.
"""

from benchmarks.common import failures
from repro.bench import Headline, Param, Ref, register
from repro.failure.injection import hostile_fleet
from tests.harness.scenario import Fleet, Scenario, sync_baseline

SCALE = 6.0  # sign-flip amplification (matches the chaos soak)
ROBUST = ("trimmed_mean", "median", "krum")


def _cell(*, steps, workers, staleness_k, aggregator, hostile_fraction, seed):
    """One grid cell: a full hostile (or honest) async run, evaluated."""
    byzantine = round(hostile_fraction * workers)
    fleet = None
    if byzantine:
        fleet = hostile_fleet(
            workers,
            byzantine,
            "sign_flip",
            scale=SCALE,
            duplicate_prob=0.1,
            delay_prob=0.1,
            seed=seed,
        )
    return Scenario(
        seed=seed, nodes=2, batches=steps,
        fleet=Fleet(workers, staleness=1, profiles=fleet),
        staleness_bound=staleness_k, aggregator=aggregator,
    ).run()


def _check(metrics: dict, params: dict) -> list:
    byzantine = round(params["hostile_fraction"] * params["workers"])
    # n >= 3f + 2 is the fold's tolerance; short runs have not converged.
    defended = (
        params["aggregator"] in ROBUST
        and params["workers"] >= 3 * byzantine + 2
        and params["steps"] >= 120
    )
    auc = metrics["auc"]
    return failures(
        (0.0 <= auc <= 1.0, f"auc {auc} out of range"),
        (not defended or auc >= 0.65,
         f"robust aggregation lost convergence (auc {auc:.3f})"),
        (not byzantine or metrics["byzantine_pushes"] > 0,
         "hostile fraction set but no Byzantine push injected"),
        # The defense earns its keep: honest async holds the sync
        # envelope, and a robust fold under a hostile minority beats
        # plain mean under the identical injection.
        (byzantine or not defended or auc >= metrics["sync_auc"] - 0.03,
         f"honest async auc {auc:.3f} fell out of the sync envelope "
         f"({metrics['sync_auc']:.3f})"),
        (not (byzantine and defended) or auc >= metrics["mean_auc"] + 0.08,
         f"{params['aggregator']} auc {auc:.3f} no better than plain mean "
         f"({metrics['mean_auc']:.3f}) under the same injection"),
    )


@register(
    "ablation_staleness",
    params=[
        Param("staleness_k", "int", 3, help="PS-side staleness bound k"),
        Param(
            "aggregator", "str", "trimmed_mean",
            choices=("mean",) + ROBUST,
            help="robust gradient fold at the PS",
        ),
        Param(
            "hostile_fraction", "float", 0.0,
            help="fraction of workers turned Byzantine (sign-flip)",
        ),
        Param("workers", "int", 6),  # n >= 3f + 2 for f = 1
        Param("steps", "int", 180),
        Param("seed", "int", 7),
    ],
    smoke={"steps": 120},
    headline={
        "auc": Headline(direction="higher", max_regression=0.05, noise=0.01),
        "logloss": Headline(direction="lower", max_regression=0.10, noise=0.01),
    },
    check=_check,
    along=("hostile_fraction", "aggregator"),
    refs=[
        Ref("sync_auc", "sync baseline (fault-free) auc", paper="converges (Sec. II)"),
        Ref("sync_logloss", "sync baseline logloss"),
        Ref("auc", "{aggregator}, hostile {hostile_fraction}: auc",
            paper="survives unless mean"),
        Ref("logloss", "{aggregator}, hostile {hostile_fraction}: logloss"),
    ],
)
def entry(*, staleness_k, aggregator, hostile_fraction, workers, steps, seed):
    """Ablation: held-out AUC / log-loss of one bounded-staleness async
    cell, beside the sync baseline and plain mean under the same fleet."""
    cell = dict(
        steps=steps, workers=workers, staleness_k=staleness_k,
        hostile_fraction=hostile_fraction, seed=seed,
    )
    run = _cell(aggregator=aggregator, **cell)
    mean = run if aggregator == "mean" else _cell(aggregator="mean", **cell)
    baseline = sync_baseline(steps)
    return {
        "auc": run.metrics["auc"],
        "logloss": run.metrics["logloss"],
        "mean_auc": mean.metrics["auc"],
        "sync_auc": baseline["auc"],
        "sync_logloss": baseline["logloss"],
        "byzantine_pushes": run.trainer.stats.byzantine_pushes,
        "duplicate_pushes": run.trainer.stats.duplicate_pushes,
        "pulls_rejected": sum(node.staleness.rejected for node in run.backend.nodes),
        "aggregator_folds": sum(
            node.aggregation.stats.folds
            for node in run.backend.nodes
            if node.aggregation is not None
        ),
    }
