"""Property tests for the performance model (hypothesis).

The cost model is a calibrated approximation, but certain relations
must hold for ANY inputs — otherwise figures drawn from it are
artifacts of parameter luck rather than structure.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import ClusterConfig, NetworkConfig, ServerConfig
from repro.simulation.calibration import Calibration
from repro.simulation.cluster import IterationCounts, PSCostModel, SystemKind
from tests.test_cost_model import split_counts


def counts_strategy():
    return st.integers(0, 5000).flatmap(
        lambda requests: st.tuples(
            st.just(requests),
            st.integers(0, requests),  # misses
            st.integers(0, requests),  # flushes
        )
    )


def make_counts(requests, misses, flushes):
    return IterationCounts(
        requests=requests,
        hits=max(0, requests - misses),
        misses=misses,
        created=0,
        maintain_processed=requests,
        maintain_loads=misses,
        maintain_flushes=flushes,
        maintain_evictions=flushes,
    )


def model(system, workers=8, **kwargs):
    return PSCostModel(
        system,
        ClusterConfig(
            num_workers=workers,
            network=NetworkConfig(bandwidth_bytes_per_s=60e6),
        ),
        ServerConfig(embedding_dim=64),
        Calibration(),
        **kwargs,
    )


ALL_SYSTEMS = list(SystemKind)


class TestUniversalRelations:
    @given(raw=counts_strategy(), system=st.sampled_from(ALL_SYSTEMS))
    @settings(max_examples=100, deadline=None)
    def test_times_are_finite_and_positive(self, raw, system):
        timing = model(system).price_iteration(make_counts(*raw))
        assert timing.total > 0
        for value in (
            timing.net_pull,
            timing.pull_service,
            timing.gpu,
            timing.maintain_deferred,
            timing.maintain_inline,
            timing.net_push,
            timing.push_service,
        ):
            assert value >= 0

    @given(raw=counts_strategy(), system=st.sampled_from(ALL_SYSTEMS))
    @settings(max_examples=60, deadline=None)
    def test_dram_ps_is_the_floor(self, raw, system):
        counts = make_counts(*raw)
        dram = model(SystemKind.DRAM_PS).price_iteration(counts).total
        assert model(system).price_iteration(counts).total >= dram - 1e-12

    @given(
        raw=counts_strategy(),
        system=st.sampled_from([SystemKind.PMEM_OE, SystemKind.ORI_CACHE]),
    )
    @settings(max_examples=60, deadline=None)
    def test_more_misses_never_cheaper(self, raw, system):
        requests, misses, flushes = raw
        low = make_counts(requests, min(misses, requests // 2), flushes)
        high = make_counts(requests, requests, flushes)
        m = model(system)
        assert (
            m.price_iteration(high).total >= m.price_iteration(low).total - 1e-12
        )

    @given(raw=counts_strategy())
    @settings(max_examples=60, deadline=None)
    def test_pipeline_never_slower(self, raw):
        counts = make_counts(*raw)
        piped = model(SystemKind.PMEM_OE, pipelined=True).price_iteration(counts)
        unpiped = model(SystemKind.PMEM_OE, pipelined=False).price_iteration(counts)
        assert piped.total <= unpiped.total + 1e-12

    @given(raw=counts_strategy(), nodes=st.integers(1, 8))
    @settings(max_examples=60, deadline=None)
    def test_more_shards_never_slower(self, raw, nodes):
        """The same counts split over ``nodes`` shards never price above
        one shard holding them all."""
        counts = make_counts(*raw)
        m = model(SystemKind.PMEM_OE)
        one = m.price_iteration(counts).total
        many = m.price_iteration(*split_counts(counts, nodes)).total
        assert many <= one + 1e-9

    @given(
        per_worker=st.integers(1, 400),
        system=st.sampled_from([SystemKind.ORI_CACHE, SystemKind.TF_PS]),
    )
    @settings(max_examples=40, deadline=None)
    def test_contended_systems_degrade_with_workers(self, per_worker, system):
        """Per-iteration time at fixed per-worker load grows faster for
        lock-bound systems than for DRAM-PS — the structural source of
        the paper's scaling gaps."""

        def gap(workers):
            counts = make_counts(per_worker * workers, 0, 0)
            sys_t = model(system, workers=workers).price_iteration(counts).total
            dram_t = (
                model(SystemKind.DRAM_PS, workers=workers)
                .price_iteration(counts)
                .total
            )
            return sys_t / dram_t

        assert gap(16) >= gap(4) - 1e-9
