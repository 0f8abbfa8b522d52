"""Hash partitioning: stability, coverage, balance. The jump-hash laws
(minimal movement, shrink restores, the scalar loop's placement) live
in ``tests/test_ring_properties.py``."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.sharding import HashPartitioner, mix64
from repro.errors import ConfigError


class TestMix64:
    def test_deterministic(self):
        assert mix64(12345) == mix64(12345)

    def test_distinct_inputs_rarely_collide(self):
        outputs = {mix64(i) for i in range(10_000)}
        assert len(outputs) == 10_000

    def test_stays_in_64_bits(self):
        assert 0 <= mix64(2**63) < 2**64


class TestPartitioner:
    def test_single_node_takes_everything(self):
        part = HashPartitioner(1)
        assert all(part.node_of(k) == 0 for k in range(100))

    def test_node_in_range(self):
        part = HashPartitioner(7)
        assert all(0 <= part.node_of(k) < 7 for k in range(1000))

    def test_stable_across_instances(self):
        a, b = HashPartitioner(5), HashPartitioner(5)
        assert [a.node_of(k) for k in range(100)] == [b.node_of(k) for k in range(100)]

    def test_roughly_balanced(self):
        counts = np.bincount(HashPartitioner(4).owners(np.arange(40_000)), minlength=4)
        for count in counts:
            assert abs(count - 10_000) < 600  # within ~6 %

    def test_invalid_node_count(self):
        with pytest.raises(ConfigError):
            HashPartitioner(0)

    def test_split_positions_reassemble(self):
        part = HashPartitioner(3)
        keys = [5, 17, 5, 99, 3]
        per_node_keys, per_node_positions = part.split(keys)
        reassembled = [None] * len(keys)
        for node_keys, positions in zip(per_node_keys, per_node_positions):
            for key, position in zip(node_keys, positions):
                reassembled[position] = key
        assert reassembled == keys

    @given(st.lists(st.integers(0, 2**40), max_size=200), st.integers(1, 8))
    @settings(max_examples=50, deadline=None)
    def test_split_covers_exactly_once(self, keys, nodes):
        part = HashPartitioner(nodes)
        per_node_keys, per_node_positions = part.split(keys)
        all_positions = sorted(p for ps in per_node_positions for p in ps)
        assert all_positions == list(range(len(keys)))
        for node, (node_keys, positions) in enumerate(
            zip(per_node_keys, per_node_positions)
        ):
            assert (part.owners(node_keys) == node).all()
            for key, position in zip(node_keys, positions):
                assert keys[position] == key



class TestConsistentHashRing:
    """Interface-level checks of the partitioner as a consistent-hash
    ring (jump hash); the movement / determinism / balance properties
    live in ``tests/test_ring_properties.py``."""

    def test_same_interface_as_modulo(self):
        # owners / split behave as the paper's ``hash % n`` routing did:
        # every node is reached and a split reassembles the request.
        ring = HashPartitioner(4)
        assert set(ring.owners(np.arange(1000)).tolist()) == {0, 1, 2, 3}
        keys = [5, 17, 5, 99, 3]
        per_node_keys, per_node_positions = ring.split(keys)
        reassembled = [None] * len(keys)
        for node_keys, positions in zip(per_node_keys, per_node_positions):
            for key, position in zip(node_keys, positions):
                reassembled[position] = key
        assert reassembled == keys

    def test_single_node_takes_everything(self):
        assert not HashPartitioner(1).owners(np.arange(200)).any()

    def test_invalid_parameters(self):
        with pytest.raises(ConfigError):
            HashPartitioner(0)
