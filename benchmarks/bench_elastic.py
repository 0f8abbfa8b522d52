"""Elasticity ablation: the consistent-hash ring vs the paper's static hash.

The paper's PS routes a key with ``hash(id) % num_nodes`` (Section IV),
which remaps ~n/(n+1) of all keys when a node joins — effectively a
full restart. Every cluster here routes with the
:class:`~repro.core.sharding.HashPartitioner` (jump consistent hash,
"the ring"), which remaps the theoretical minimum ``1/(n+1)``, all of
it *onto* the new node, and gives every node its ``1/n`` share. The
static side is computed here as ``mix64_array(keys) % n``. This bench
measures three things:

* **keys moved and balance** on a sampled keyspace, ring vs modulo,
  across node counts — the ring moves within 10 % of the theoretical
  minimum either way (fewer means the joining node is under-filled),
  its largest node holds within 10 % of the mean share, and modulo
  moves the near-total ~n/(n+1);
* **throughput dip**: the simulated migration pause of a mid-epoch
  reshard ``num_nodes -> num_nodes + 1`` (``TrainingSimulator(reshard_at=...)``,
  the real migration on the simulated cluster) on the ring, against the
  pause ``PSCostModel.price_migration`` gives the keys modulo would move
  at that point of the same run, at the ring's barrier flush and
  versions per key — the pause scales with keys moved, so the ring's
  dip is a fraction of modulo's;
* a **live migration demo** on a real ``num_nodes``-node cluster: scale
  out, then in, and verify the weights never change by a bit.
"""

import numpy as np

from benchmarks.common import failures
from repro.bench import Headline, Param, Ref, register
from repro.config import CacheConfig, ServerConfig
from repro.core.migration import ShardMigrator
from repro.core.optimizers import PSAdagrad
from repro.core.server import OpenEmbeddingServer
from repro.core.sharding import HashPartitioner, mix64_array
from repro.simulation.cluster import SystemKind
from repro.simulation.profiles import DEFAULT_PROFILE
from repro.simulation.trainer_sim import TrainingSimulator
from repro.workload.generator import WorkloadGenerator

DIM = 8
RESHARD_AT = 40
EPOCH_ITERATIONS = 80


def modulo_moved(keys, num_nodes: int) -> int:
    """How many of ``keys`` change owner under the paper's static
    ``mix64 % n`` when the cluster grows ``num_nodes -> num_nodes + 1``."""
    mixed = mix64_array(keys)
    return int(np.count_nonzero(mixed % np.uint64(num_nodes) != mixed % np.uint64(num_nodes + 1)))


def moved_fractions(num_nodes: int, sample_keys: int) -> tuple[float, float, float]:
    """(ring, modulo) fraction of a sampled keyspace that changes owner
    when the cluster grows ``num_nodes -> num_nodes + 1``, and the ring's
    largest node's share of it over the mean share."""
    keys = np.arange(sample_keys, dtype=np.uint64)
    ring = HashPartitioner(num_nodes)
    ring_moved = len(ring.moved_keys(ring.with_nodes(num_nodes + 1), keys))
    shares = np.bincount(ring.owners(keys), minlength=num_nodes)
    modulo = modulo_moved(keys, num_nodes)
    return ring_moved / sample_keys, modulo / sample_keys, shares.max() / shares.mean()


def simulator(num_nodes: int, **reshard) -> TrainingSimulator:
    """The PMem-OE epoch the dip is measured on, ``num_nodes`` PS nodes."""
    profile = DEFAULT_PROFILE
    return TrainingSimulator(
        SystemKind.PMEM_OE,
        profile.cluster_config(8),
        profile.server_config(num_nodes),
        profile.cache_config(paper_mb=2048.0),
        workload=WorkloadGenerator(profile.workload_config(1.0)),
        **reshard,
    )


def throughput_dip(num_nodes: int):
    """The simulated epoch with a mid-epoch reshard ``num_nodes -> num_nodes
    + 1`` on the ring, and the pause modulo's remap would cost at that
    point: :meth:`~repro.simulation.cluster.PSCostModel.price_migration`
    over the keys of the cluster modulo would move, at the barrier flush
    and the versions per key the ring's migration paid, so the two
    pauses differ by the moves alone."""
    ring = simulator(num_nodes, reshard_at=RESHARD_AT).run(EPOCH_ITERATIONS)
    before = simulator(num_nodes)
    before.run(RESHARD_AT)
    moved = modulo_moved(before.backend.owned_keys(), num_nodes)
    versions_per_key = ring.migration_versions_moved / ring.migration_keys_moved
    pause = before.cost_model.price_migration(
        keys_moved=moved,
        versions_moved=round(moved * versions_per_key),
        flushed_entries=ring.migration_flushed_entries,
    ).total
    return ring, moved, pause


def live_demo(num_nodes: int) -> tuple[float, float, bool]:
    """Scale a real ``num_nodes``-node cluster out then back in; return the
    two moved fractions and whether every weight stayed bit-identical."""
    config = ServerConfig(
        num_nodes=num_nodes,
        embedding_dim=DIM,
        pmem_capacity_bytes=1 << 26,
        seed=11,
    )
    server = OpenEmbeddingServer(
        config, CacheConfig(capacity_bytes=64 * DIM * 4), PSAdagrad(lr=0.05)
    )
    rng = np.random.default_rng(11)
    for batch in range(6):
        keys = sorted(rng.choice(600, size=48, replace=False).tolist())
        server.pull(keys, batch)
        server.maintain(batch)
        server.push(
            keys, rng.normal(0, 0.1, (48, DIM)).astype(np.float32), batch
        )
    before = server.state_snapshot()
    out = ShardMigrator(server).scale_out()
    in_ = ShardMigrator(server).scale_in()
    after = server.state_snapshot()
    identical = set(before) == set(after) and all(
        np.array_equal(before[k], after[k]) for k in before
    )
    return out.moved_fraction, in_.moved_fraction, identical


def _check(metrics: dict, params: dict) -> list:
    # The ring moves the theoretical minimum within 10 % either way and
    # its largest node holds within 10 % of the mean share; modulo moves
    # near all; the live reshard touches no value. Recorded: 0.97-1.01x
    # the minimum and 1.002-1.013x the mean (smoke: 20 000 keys at 4
    # nodes; full: 200 000 at 2 / 4 / 8), so both bands keep >= 0.07 of
    # margin, over 4x the ~1.5 % binomial noise of the smoke's moved
    # share. The 64-vnode ring this replaced read 0.81x and 1.38x.
    nodes = params["num_nodes"]
    return failures(
        (0.9 <= metrics["ring_vs_min_x"] <= 1.1,
         f"ring moved {metrics['ring_vs_min_x']:.2f}x the "
         f"{1 / (nodes + 1):.1%} theoretical minimum, outside 0.9-1.1x"),
        (metrics["ring_imbalance"] <= 1.1,
         f"the ring's largest node holds {metrics['ring_imbalance']:.2f}x the mean share"),
        (metrics["modulo_moved_frac"] >= 0.9 * nodes / (nodes + 1),
         f"modulo moved only {metrics['modulo_moved_frac']:.1%}"),
        (metrics["ring_keys_moved"] < metrics["modulo_keys_moved"],
         "mid-epoch reshard moved no fewer keys on the ring than modulo"),
        (metrics["ring_pause_ms"] < metrics["modulo_pause_ms"],
         "the ring's reshard pause is no shorter than modulo's"),
        (metrics["live_identical"], "live scale-out/in changed a weight"),
    )


@register(
    "elastic",
    params=[
        Param("num_nodes", "int", 4, help="cluster size before scale-out"),
        Param("sample_keys", "int", 200_000),
    ],
    smoke={"sample_keys": 20_000},
    headline={
        "ring_imbalance": Headline(direction="lower", max_regression=0.05),
        "live_identical": Headline(),
    },
    check=_check,
    along="num_nodes",
    refs=[
        Ref("ring_moved_frac", "keys moved, {num_nodes} -> +1: ring", "{:.1%}",
            paper={n: 1 / (n + 1) for n in (2, 4, 8)}),
        Ref("modulo_moved_frac", "keys moved, {num_nodes} -> +1: modulo",
            "{:.1%}", paper={n: n / (n + 1) for n in (2, 4, 8)}),
        Ref("ring_vs_min_x", "  ring vs theoretical minimum", "{:.2f}x min"),
        Ref("ring_imbalance", "  ring, largest share / mean", "{:.3f}x", paper=1.0),
        Ref("ring_pause_ms", "reshard pause (sim, {num_nodes} -> +1): ring", "{:.2f} ms",
            paper="scales w/ moved"),
        Ref("modulo_pause_ms", "reshard pause (sim, {num_nodes} -> +1): mod", "{:.2f} ms",
            paper="scales w/ moved"),
        Ref("dip_saved_x", "  pause, modulo over ring", "{:.1f}x dip saved"),
        Ref("ring_keys_moved", "keys moved mid-epoch: ring", "{}"),
        Ref("modulo_keys_moved", "keys moved mid-epoch: mod", "{}"),
        Ref("ring_epoch_s", "epoch time w/ reshard: ring", "{:.3f} s"),
        Ref("modulo_epoch_s", "epoch time w/ reshard: mod", "{:.3f} s"),
        Ref("live_out_frac", "live demo, {num_nodes} -> +1: scale-out moved", "{:.1%}"),
        Ref("live_in_frac", "live demo, {num_nodes} -> +1: scale-in moved", "{:.1%}"),
        Ref("live_identical", "live demo: weights bit-identical", "{}",
            paper="True"),
    ],
)
def entry(*, num_nodes, sample_keys):
    """Elasticity: ring-vs-modulo moved-key fractions and the ring's
    balance at one cluster size, the mid-epoch reshard dip, and the live
    scale-out/in demo."""
    ring_frac, modulo_frac, imbalance = moved_fractions(num_nodes, sample_keys)
    ring, modulo_keys, modulo_pause = throughput_dip(num_nodes)
    out_frac, in_frac, identical = live_demo(num_nodes)
    return {
        "ring_moved_frac": ring_frac,
        "modulo_moved_frac": modulo_frac,
        "ring_vs_min_x": ring_frac * (num_nodes + 1),
        "ring_imbalance": imbalance,
        "ring_pause_ms": ring.migration_pause_seconds * 1e3,
        "modulo_pause_ms": modulo_pause * 1e3,
        "dip_saved_x": modulo_pause / ring.migration_pause_seconds,
        "ring_keys_moved": ring.migration_keys_moved,
        "modulo_keys_moved": modulo_keys,
        "ring_epoch_s": ring.sim_seconds,
        # The same epoch with modulo's pause in place of the ring's.
        "modulo_epoch_s": ring.sim_seconds - ring.migration_pause_seconds + modulo_pause,
        "live_out_frac": out_frac,
        "live_in_frac": in_frac,
        "live_identical": identical,
    }
