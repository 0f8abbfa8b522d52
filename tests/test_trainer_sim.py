"""TrainingSimulator: end-to-end simulated epochs (small scale)."""

import numpy as np
import pytest

from repro.config import (
    CacheConfig,
    CheckpointConfig,
    CheckpointMode,
    ClusterConfig,
    NetworkConfig,
    ServerConfig,
    WorkloadConfig,
)
from repro.core.sharding import HashPartitioner
from repro.errors import ConfigError
from repro.obs import NULL_TRACER, Tracer
from repro.simulation.cluster import IterationCounts, SystemKind
from repro.simulation.trainer_sim import TrainingSimulator
from repro.workload.generator import WorkloadGenerator

NUM_KEYS = 20_000
DIM = 16


def make_sim(system, workers=4, ckpt=None, cache_entries=200, nodes=1, **kwargs):
    server = ServerConfig(num_nodes=nodes, embedding_dim=DIM, pmem_capacity_bytes=1 << 26)
    cache = CacheConfig(capacity_bytes=cache_entries * DIM * 4)
    cluster = ClusterConfig(
        num_workers=workers,
        batch_size=32,
        network=NetworkConfig(bandwidth_bytes_per_s=60e6),
    )
    workload = WorkloadGenerator(
        WorkloadConfig(num_keys=NUM_KEYS, features_per_sample=4, seed=1)
    )
    return TrainingSimulator(
        system, cluster, server, cache, ckpt or CheckpointConfig.none(), workload,
        **kwargs,
    )


class TestBasics:
    def test_run_advances_clock(self):
        sim = make_sim(SystemKind.PMEM_OE)
        result = sim.run(10)
        assert result.sim_seconds > 0
        assert result.iterations == 10
        assert result.total_requests > 0

    def test_miss_rate_in_range(self):
        result = make_sim(SystemKind.PMEM_OE).run(20)
        assert 0.0 <= result.miss_rate <= 1.0

    def test_dram_ps_never_misses(self):
        result = make_sim(SystemKind.DRAM_PS).run(10)
        assert result.miss_rate == 0.0

    @pytest.mark.parametrize(
        "system", [SystemKind.PMEM_OE, SystemKind.DRAM_PS, SystemKind.PMEM_HASH]
    )
    def test_the_functional_backend_holds_zero_rows(self, system):
        """Counts do not depend on the bytes, so the simulator's backend
        creates zero rows and pushes zero gradients."""
        sim = make_sim(system)
        sim.run(5)
        rows = sim.backend.state_snapshot()
        assert rows and not any(row.any() for row in rows.values())

    def test_invalid_iterations(self):
        with pytest.raises(ConfigError):
            make_sim(SystemKind.PMEM_OE).run(0)

    def test_batch_aware_requires_pmem_oe(self):
        with pytest.raises(ConfigError):
            make_sim(
                SystemKind.DRAM_PS,
                ckpt=CheckpointConfig(CheckpointMode.BATCH_AWARE, 1.0),
            )

    def test_phase_totals_consistent(self):
        result = make_sim(SystemKind.PMEM_OE).run(10)
        reconstructed = (
            result.net_seconds
            + result.pull_service_seconds
            + result.push_service_seconds
            + result.maintain_inline_seconds
        )
        # gpu and deferred overlap, so total >= parts without them.
        assert result.sim_seconds >= reconstructed


class TestSystemComparisons:
    def test_pmem_oe_close_to_dram_ps(self):
        dram = make_sim(SystemKind.DRAM_PS).run(30).sim_seconds
        oe = make_sim(SystemKind.PMEM_OE).run(30).sim_seconds
        assert dram <= oe < dram * 1.35

    def test_ori_cache_slower_than_oe(self):
        oe = make_sim(SystemKind.PMEM_OE).run(30).sim_seconds
        ori = make_sim(SystemKind.ORI_CACHE).run(30).sim_seconds
        assert ori > oe

    def test_pmem_hash_slowest(self):
        ori = make_sim(SystemKind.ORI_CACHE).run(30).sim_seconds
        ph = make_sim(SystemKind.PMEM_HASH).run(30).sim_seconds
        assert ph > ori

    def test_bigger_cache_not_slower(self):
        small = make_sim(SystemKind.PMEM_OE, cache_entries=20).run(30)
        large = make_sim(SystemKind.PMEM_OE, cache_entries=2000).run(30)
        assert large.miss_rate < small.miss_rate
        assert large.sim_seconds <= small.sim_seconds


class TestCheckpointing:
    def _epoch(self, ckpt=None):
        return make_sim(SystemKind.PMEM_OE, ckpt=ckpt).run(40)

    def test_batch_aware_near_zero_overhead(self):
        base = self._epoch()
        interval = base.sim_seconds / 4
        with_ckpt = self._epoch(
            CheckpointConfig(CheckpointMode.SPARSE_ONLY, interval, include_dense=False)
        )
        assert with_ckpt.checkpoints_completed >= 3
        overhead = with_ckpt.sim_seconds / base.sim_seconds - 1
        assert overhead < 0.02

    def test_fig12_shaped_requests_complete(self):
        """Figure 12's operating point (BATCH_AWARE, 16 workers, the
        profile's cache) on a short epoch: ``checkpoints_completed`` is
        what the node's coordinator completed, and that is every request
        the timer fired but the last two at most — a request completes in
        the maintenance rounds after it, not only when an eviction's
        victim happens to be past it."""
        from repro.simulation.profiles import DEFAULT_PROFILE as profile

        def simulate(ckpt):
            return TrainingSimulator(
                SystemKind.PMEM_OE, profile.cluster_config(16), profile.server_config(),
                profile.cache_config(paper_mb=2048), ckpt,
                WorkloadGenerator(profile.workload_config(1.0)),
            )

        base = simulate(CheckpointConfig.none()).run(40)
        sim = simulate(CheckpointConfig(CheckpointMode.BATCH_AWARE, base.sim_seconds / 10))
        result = sim.run(40)
        coordinator = sim.backend.nodes[0].coordinator
        fired = coordinator.queue.total_requested
        assert fired >= 8
        assert result.checkpoints_completed == coordinator.completed_count
        assert fired - 2 <= result.checkpoints_completed <= fired

    def test_incremental_costs_more_than_batch_aware(self):
        base = self._epoch()
        interval = base.sim_seconds / 4
        batch_aware = self._epoch(
            CheckpointConfig(CheckpointMode.BATCH_AWARE, interval)
        )
        incremental = self._epoch(
            CheckpointConfig(CheckpointMode.INCREMENTAL, interval)
        )
        assert incremental.sim_seconds > batch_aware.sim_seconds
        assert incremental.checkpoint_pause_seconds > 0

    def test_interval_scaling_helper(self):
        interval = TrainingSimulator.interval_for_epoch_fraction(100.0, 20, 5.0)
        assert interval == pytest.approx(100.0 * (20 / 60) / 5.0)
        with pytest.raises(ConfigError):
            TrainingSimulator.interval_for_epoch_fraction(0, 20, 5)


class TestTrace:
    """Figure 2 is read off the tracer: the ``requests`` of the
    ``iter.pull`` / ``iter.push`` spans, bucketed per millisecond."""

    def test_figure2_pattern(self):
        """Pulls and updates appear in equal-sized paired bursts."""
        tracer = Tracer()
        result = make_sim(SystemKind.PMEM_OE, tracer=tracer).run(5)
        pulls = tracer.spans_named("iter.pull")
        pushes = tracer.spans_named("iter.push")
        assert [s.attrs["batch"] for s in pulls] == list(range(5))
        assert [s.attrs["batch"] for s in pushes] == list(range(5))
        for pull, push in zip(pulls, pushes):
            assert pull.attrs["requests"] == push.attrs["requests"] > 0
            # the GPU-compute gap separates a batch's two bursts
            assert push.start - pull.end >= 0.999 * result.gpu_seconds / 5
        assert sum(s.attrs["requests"] for s in pulls) == result.total_requests
        # Bursts are instants: few distinct milliseconds carry traffic.
        buckets = {int(s.start * 1000) for s in pulls + pushes}
        assert len(buckets) <= 2 * 5

    def test_span_requests_sum_to_the_run_totals(self):
        """Demand pulls on ``iter.pull``, lookahead pulls on
        ``prefetch.pull``: each sums to its run total."""
        from repro.config import PrefetchConfig

        tracer = Tracer()
        result = make_sim(
            SystemKind.PMEM_OE, prefetch=PrefetchConfig(lookahead=2), tracer=tracer
        ).run(12)
        demand = sum(s.attrs["requests"] for s in tracer.spans_named("iter.pull"))
        ahead = sum(s.attrs["keys"] for s in tracer.spans_named("prefetch.pull"))
        assert demand == result.total_requests
        assert ahead == result.prefetch_requests > 0

    def test_trace_disabled_by_default(self):
        """Without a tracer the simulator records no span."""
        sim = make_sim(SystemKind.PMEM_OE)
        sim.run(3)
        assert sim.tracer is NULL_TRACER and not NULL_TRACER.spans


class TestPrefetch:
    """Satellite: simulated lookahead prefetch hides PS latency."""

    def _run(self, lookahead, iters=60, **kwargs):
        from repro.config import PrefetchConfig

        prefetch = (
            PrefetchConfig(lookahead=lookahead) if lookahead is not None else None
        )
        sim = make_sim(SystemKind.PMEM_OE, prefetch=prefetch, **kwargs)
        return sim.run(iters)

    @staticmethod
    def _run_profile(lookahead, iters=80, workers=16):
        """The paper-scale operating point, where pulls are a real cost."""
        from repro.config import PrefetchConfig
        from repro.simulation.profiles import DEFAULT_PROFILE as profile

        sim = TrainingSimulator(
            SystemKind.PMEM_OE,
            profile.cluster_config(workers),
            profile.server_config(),
            profile.cache_config(),
            CheckpointConfig.none(),
            WorkloadGenerator(profile.workload_config()),
            prefetch=PrefetchConfig(lookahead=lookahead),
        )
        return sim.run(iters)

    def test_prefetch_hides_pull_latency(self):
        """Acceptance floor: >= 1.3x simulated throughput at lookahead 2
        on the default Zipfian workload."""
        base = self._run_profile(0)
        pipelined = self._run_profile(2)
        assert pipelined.prefetch_requests > 0
        assert pipelined.prefetch_overlapped_seconds > 0
        # lookahead collapses the critical-path demand pulls ...
        assert pipelined.total_requests < base.total_requests / 10
        # ... which translates into end-to-end simulated speedup.
        speedup = base.sim_seconds / pipelined.sim_seconds
        assert speedup >= 1.3

    def test_simulator_runs_the_functional_pipeline(self):
        """The lookahead discipline is not re-stated here: the simulator
        owns a ``PrefetchPipeline`` over its metadata backend, and what
        it prices is what that object did."""
        from repro.config import PrefetchConfig
        from repro.dlrm.prefetch import PrefetchPipeline

        sim = make_sim(SystemKind.PMEM_OE, prefetch=PrefetchConfig(lookahead=2))
        assert isinstance(sim.pipeline, PrefetchPipeline)
        assert sim.pipeline.backend is sim.backend
        result = sim.run(30)
        stats = sim.pipeline.stats
        assert stats.batches == 30
        assert result.prefetch_requests == stats.prefetch_keys + stats.patched_keys > 0
        assert result.total_requests == stats.demand_keys
        assert stats.demand_hits + stats.demand_misses + stats.demand_created == stats.demand_keys
        assert make_sim(SystemKind.PMEM_OE).pipeline is None

    def test_lookahead_zero_matches_baseline(self):
        base = self._run(None)
        serial = self._run(0)
        assert serial.sim_seconds == pytest.approx(base.sim_seconds)
        assert serial.prefetch_requests == 0

    def test_prefetch_requires_pmem_oe(self):
        from repro.config import PrefetchConfig

        with pytest.raises(ConfigError, match="prefetch"):
            make_sim(SystemKind.DRAM_PS, prefetch=PrefetchConfig(lookahead=2))

    def test_prefetch_requires_cache(self):
        from repro.config import PrefetchConfig

        with pytest.raises(ConfigError, match="prefetch"):
            make_sim(
                SystemKind.PMEM_OE,
                prefetch=PrefetchConfig(lookahead=2),
                use_cache=False,
            )

    def test_prefetch_requires_pipelined_cache(self):
        from repro.config import PrefetchConfig

        server = ServerConfig(embedding_dim=DIM, pmem_capacity_bytes=1 << 26)
        cache = CacheConfig(capacity_bytes=200 * DIM * 4, pipelined=False)
        cluster = ClusterConfig(
            num_workers=4,
            batch_size=32,
            network=NetworkConfig(bandwidth_bytes_per_s=60e6),
        )
        workload = WorkloadGenerator(
            WorkloadConfig(num_keys=NUM_KEYS, features_per_sample=4, seed=1)
        )
        with pytest.raises(ConfigError, match="prefetch"):
            TrainingSimulator(
                SystemKind.PMEM_OE,
                cluster,
                server,
                cache,
                CheckpointConfig.none(),
                workload,
                prefetch=PrefetchConfig(lookahead=2),
            )

    def test_deeper_lookahead_still_valid(self):
        shallow = self._run(2)
        deep = self._run(6)
        assert deep.prefetch_requests >= shallow.prefetch_requests
        assert deep.iterations == shallow.iterations == 60


class TestRealCluster:
    """The cache-based systems run on a real ``num_nodes``-shard
    cluster: its migrations, its shards' residency and its slowest
    shard are what the simulator prices."""

    @pytest.mark.parametrize("nodes, target", [(2, 3), (3, 2)])
    def test_a_reshard_runs_the_real_migration(self, nodes, target):
        twin = make_sim(SystemKind.PMEM_OE, nodes=nodes)
        twin.run(6)
        held = twin.backend.owned_keys()
        sim = make_sim(SystemKind.PMEM_OE, nodes=nodes, reshard_at=6, reshard_to=target)
        result = sim.run(6)  # the reshard follows the last batch
        assert len(sim.backend.nodes) == target
        assert sorted(sim.backend.owned_keys().tolist()) == sorted(held.tolist())
        ring = HashPartitioner(nodes)
        moved = ring.moved_keys(ring.with_nodes(target), held)
        assert result.migration_keys_moved == len(moved) > 0
        assert result.migration_keys_total == len(held)
        assert result.migration_versions_moved >= len(moved)

    def test_the_cache_budget_is_split_over_the_shards(self):
        sim = make_sim(SystemKind.PMEM_OE, nodes=4, cache_entries=200)
        one = make_sim(SystemKind.PMEM_OE, cache_entries=200)
        [whole] = [node.cache.capacity_entries for node in one.backend.nodes]
        assert [node.cache.capacity_entries for node in sim.backend.nodes] == [whole // 4] * 4

    @pytest.mark.parametrize("nodes", [1, 3])
    def test_a_failure_is_priced_on_the_victim_shard(self, nodes):
        """At one node the victim holds every key trained so far (what
        the simulator used to estimate); at three, its own share."""
        mttf = make_sim(SystemKind.PMEM_OE, nodes=nodes).run(20).sim_seconds / 20
        tracer = Tracer()
        sim = make_sim(SystemKind.PMEM_OE, nodes=nodes, mttf_s=mttf, tracer=tracer)
        priced, real_price = [], sim.cost_model.price_failover

        def spy(*, resident_entries, lease_s):
            priced.append((resident_entries, [n.num_entries for n in sim.backend.nodes]))
            return real_price(resident_entries=resident_entries, lease_s=lease_s)

        sim.cost_model.price_failover = spy
        result = sim.run(20)
        victims = [span.attrs["node"] for span in tracer.spans_named("failure.recovery")]
        assert len(victims) == len(priced) == result.failures_injected >= 1
        for victim, (entries, shards) in zip(victims, priced):
            assert entries == shards[victim] > 0

    def test_a_kill_aimed_at_a_node_a_scale_in_removed_finds_nothing(self):
        mttf = make_sim(SystemKind.PMEM_OE, nodes=3).run(20).sim_seconds / 40
        tracer = Tracer()
        sim = make_sim(
            SystemKind.PMEM_OE, nodes=3, mttf_s=mttf, reshard_at=2, reshard_to=1,
            tracer=tracer,
        )
        result = sim.run(20)
        reshard_at = tracer.spans_named("migration.pause")[0].start
        late = [s.attrs["node"] for s in tracer.spans_named("failure.recovery") if s.start > reshard_at]
        assert result.failures_injected >= 1 and set(late) <= {0}

    @pytest.mark.parametrize("lookahead", [None, 2])
    def test_the_key_stream_holds_no_trained_batch(self, lookahead):
        from repro.config import PrefetchConfig

        prefetch = PrefetchConfig(lookahead=lookahead) if lookahead else None
        sim = make_sim(SystemKind.PMEM_OE, prefetch=prefetch)
        sim.run(12)
        assert not sim._key_stream

    def test_two_shards_price_as_the_slower_one_phase_by_phase(self):
        """Shard ``a`` pulls more, shard ``b`` maintains more: each phase
        is the slower shard's, and the network carries both."""
        a = IterationCounts(
            requests=900, hits=700, misses=150, created=50, maintain_processed=100,
            maintain_loads=10, maintain_flushes=10, maintain_evictions=10,
        )
        b = IterationCounts(
            requests=100, hits=60, misses=30, created=10, maintain_processed=900,
            maintain_loads=300, maintain_flushes=300, maintain_evictions=300,
        )
        for system in (SystemKind.PMEM_OE, SystemKind.ORI_CACHE):
            model = make_sim(system).cost_model
            both = model.price_iteration(a, b)
            alone = [model.price_iteration(a), model.price_iteration(b)]
            for phase in ("pull_service", "maintain_deferred", "maintain_inline", "push_service"):
                assert getattr(both, phase) == max(getattr(t, phase) for t in alone)
            summed = model.price_iteration(IterationCounts.summed([a, b]))
            assert (both.net_pull, both.net_push) == (summed.net_pull, summed.net_push)
            if system == SystemKind.PMEM_OE:  # the two phases come from two shards
                assert both.pull_service == alone[0].pull_service > alone[1].pull_service
                assert both.maintain_deferred == alone[1].maintain_deferred > alone[0].maintain_deferred

    @pytest.mark.parametrize("system, kwargs", [
        (SystemKind.PMEM_OE, dict(nodes=2, prefetch=2)),
        (SystemKind.PMEM_OE, dict(reshard_at=3, prefetch=2)),
        (SystemKind.DRAM_PS, dict(nodes=2)),
        (SystemKind.PMEM_HASH, dict(reshard_at=3)),
    ])
    def test_no_per_shard_split_is_refused(self, system, kwargs):
        """Prefetch and the one-node baselines have no per-shard split:
        more than one node, or a reshard, is refused."""
        from repro.config import PrefetchConfig

        if "prefetch" in kwargs:
            kwargs["prefetch"] = PrefetchConfig(lookahead=kwargs["prefetch"])
        with pytest.raises(ConfigError, match="one PS node"):
            make_sim(system, **kwargs)
