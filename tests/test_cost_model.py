"""PSCostModel: per-system phase pricing properties."""

import dataclasses

import pytest

from repro.config import ClusterConfig, NetworkConfig, ServerConfig
from repro.simulation.calibration import Calibration
from repro.simulation.cluster import IterationCounts, PSCostModel, SystemKind


def counts(requests=1000, misses=100, flushes=100, created=0):
    return IterationCounts(
        requests=requests,
        hits=requests - misses - created,
        misses=misses,
        created=created,
        maintain_processed=requests,
        maintain_loads=misses,
        maintain_flushes=flushes,
        maintain_evictions=flushes,
    )


def split_counts(total, shards):
    """``total`` dealt over ``shards`` shards as evenly as it goes: every
    field of the parts adds up to the field of ``total``."""
    parts = [{} for __ in range(shards)]
    for spec in dataclasses.fields(IterationCounts):
        value = getattr(total, spec.name)
        for index, part in enumerate(parts):
            part[spec.name] = (
                None if value is None
                else value // shards + (index < value % shards)
            )
    parts = [IterationCounts(**part) for part in parts]
    assert IterationCounts.summed(parts) == IterationCounts.summed([total])
    return parts


def model(system, workers=8, **kwargs):
    return PSCostModel(
        system,
        ClusterConfig(num_workers=workers, network=NetworkConfig(bandwidth_bytes_per_s=60e6)),
        ServerConfig(embedding_dim=64),
        Calibration(),
        **kwargs,
    )


class TestOrdering:
    """The fundamental ranking of Table III systems at fixed load."""

    def test_dram_ps_fastest(self):
        c = counts()
        dram = model(SystemKind.DRAM_PS).price_iteration(c).total
        for system in (SystemKind.PMEM_OE, SystemKind.ORI_CACHE, SystemKind.PMEM_HASH):
            assert model(system).price_iteration(c).total >= dram

    def test_pmem_oe_beats_ori_cache(self):
        c = counts()
        oe = model(SystemKind.PMEM_OE).price_iteration(c).total
        ori = model(SystemKind.ORI_CACHE).price_iteration(c).total
        assert oe < ori

    def test_ori_cache_beats_pmem_hash(self):
        c = counts()
        ori = model(SystemKind.ORI_CACHE).price_iteration(c).total
        hash_ = model(SystemKind.PMEM_HASH).price_iteration(c).total
        assert ori < hash_

    def test_tf_slower_than_dram_ps(self):
        c = counts()
        tf = model(SystemKind.TF_PS).price_iteration(c).total
        dram = model(SystemKind.DRAM_PS).price_iteration(c).total
        assert tf > dram


class TestScaling:
    def test_ori_gap_grows_with_workers(self):
        """The paper's central scaling claim (Figures 3/7)."""
        gaps = []
        for workers in (4, 8, 16):
            c = counts(requests=250 * workers, misses=25 * workers, flushes=25 * workers)
            oe = model(SystemKind.PMEM_OE, workers).price_iteration(c).total
            ori = model(SystemKind.ORI_CACHE, workers).price_iteration(c).total
            gaps.append(ori / oe)
        assert gaps[0] < gaps[1] < gaps[2]

    def test_more_nodes_reduce_service_time(self):
        """The same counts split over four shards: each shard serves a
        quarter, and the step waits for the slowest one."""
        c = counts(requests=10_000, misses=1000, flushes=1000)
        one = model(SystemKind.PMEM_OE).price_iteration(c)
        four = model(SystemKind.PMEM_OE).price_iteration(*split_counts(c, 4))
        assert four.pull_service < one.pull_service
        assert four.net_pull == one.net_pull  # the burst carries every request


class TestPipeline:
    def test_deferred_hidden_behind_gpu(self):
        c = counts()
        timing = model(SystemKind.PMEM_OE).price_iteration(c)
        assert timing.maintain_deferred > 0
        assert timing.maintain_inline == 0
        # With deferred < gpu it must not lengthen the iteration.
        if timing.maintain_deferred < timing.gpu:
            base = (
                timing.net_pull
                + timing.pull_service
                + timing.gpu
                + timing.net_push
                + timing.push_service
            )
            assert timing.total == pytest.approx(base)

    def test_unpipelined_charges_request_path(self):
        """With the pipeline off, maintenance sections land inside the
        pull/push services (the Ori-style inline path)."""
        c = counts()
        piped = model(SystemKind.PMEM_OE, pipelined=True).price_iteration(c)
        unpiped = model(SystemKind.PMEM_OE, pipelined=False).price_iteration(c)
        assert unpiped.maintain_deferred == 0
        assert unpiped.pull_service > piped.pull_service
        assert unpiped.push_service > piped.push_service

    def test_pipeline_never_slower(self):
        c = counts(requests=5000, misses=2000, flushes=2000)
        piped = model(SystemKind.PMEM_OE, pipelined=True).price_iteration(c).total
        unpiped = model(SystemKind.PMEM_OE, pipelined=False).price_iteration(c).total
        assert piped < unpiped

    def test_no_cache_ablation_more_expensive(self):
        c = counts()
        with_cache = model(SystemKind.PMEM_OE).price_iteration(c).total
        without = model(SystemKind.PMEM_OE, use_cache=False).price_iteration(c).total
        assert without > with_cache


class TestMissSensitivity:
    def test_more_misses_cost_more(self):
        low = counts(misses=10, flushes=10)
        high = counts(misses=500, flushes=500)
        m = model(SystemKind.PMEM_OE)
        assert m.price_iteration(high).pull_service > m.price_iteration(low).pull_service

    def test_zero_request_iteration(self):
        c = IterationCounts(0, 0, 0, 0, 0, 0, 0, 0)
        timing = model(SystemKind.PMEM_OE).price_iteration(c)
        assert timing.total > 0  # still pays gpu + latency floors
