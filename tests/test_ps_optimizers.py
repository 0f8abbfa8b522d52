"""PS-side optimizers: SGD and Adagrad update rules."""

import numpy as np
import pytest

from repro.core.optimizers import PSAdagrad, PSSGD, segment_sum
from repro.errors import ConfigError


class TestPSSGD:
    def test_update_rule(self):
        opt = PSSGD(lr=0.1)
        weights = np.ones(4, dtype=np.float32)
        opt.apply(weights, None, np.full(4, 2.0, dtype=np.float32))
        assert np.allclose(weights, 0.8)

    def test_stateless(self):
        opt = PSSGD()
        assert opt.state_width(8) == 0
        assert opt.init_state(8) is None

    def test_invalid_lr(self):
        with pytest.raises(ConfigError):
            PSSGD(lr=0.0)


class TestPSAdagrad:
    def test_state_width_matches_dim(self):
        opt = PSAdagrad()
        assert opt.state_width(8) == 8
        assert opt.init_state(8).shape == (8,)

    def test_update_rule(self):
        opt = PSAdagrad(lr=1.0, eps=1e-12, initial_accumulator=0.0)
        weights = np.zeros(2, dtype=np.float32)
        state = opt.init_state(2)
        grad = np.array([3.0, 4.0], dtype=np.float32)
        opt.apply(weights, state, grad)
        # acc = g^2; step = lr * g / sqrt(acc) = sign(g)
        assert np.allclose(weights, [-1.0, -1.0])
        assert np.allclose(state, [9.0, 16.0])

    def test_steps_shrink_over_time(self):
        opt = PSAdagrad(lr=0.1)
        weights = np.zeros(1, dtype=np.float32)
        state = opt.init_state(1)
        grad = np.ones(1, dtype=np.float32)
        opt.apply(weights, state, grad)
        first = abs(float(weights[0]))
        before = float(weights[0])
        opt.apply(weights, state, grad)
        second = abs(float(weights[0]) - before)
        assert second < first

    def test_accumulator_required(self):
        opt = PSAdagrad()
        with pytest.raises(AssertionError):
            opt.apply(np.zeros(1, dtype=np.float32), None, np.ones(1, dtype=np.float32))

    def test_invalid_params(self):
        with pytest.raises(ConfigError):
            PSAdagrad(lr=-1)
        with pytest.raises(ConfigError):
            PSAdagrad(eps=0)
        with pytest.raises(ConfigError):
            PSAdagrad(initial_accumulator=-0.1)


class TestSegmentSum:
    def test_duplicates_accumulate_in_occurrence_order(self):
        """Bit for bit a dict that seeds each id's sum with its first
        gradient and adds the later ones as they come; the input (a
        read-only wire view, say) is never written."""
        rng = np.random.default_rng(4)
        ids = rng.integers(0, 6, 40)
        grads = (rng.standard_normal((40, 3)) * 10.0 ** rng.integers(-6, 6, (40, 1)))
        grads = grads.astype(np.float32)
        grads.flags.writeable = False
        sums: dict[int, np.ndarray] = {}
        for i, key in enumerate(ids.tolist()):
            sums[key] = sums[key] + grads[i] if key in sums else grads[i].copy()
        __, index, inverse = np.unique(ids, return_index=True, return_inverse=True)
        first = index[inverse]
        starts = np.flatnonzero(first == np.arange(len(ids)))
        agg = segment_sum(grads, first, starts)
        assert ids[starts].tolist() == list(sums)  # first-occurrence order
        assert agg.tobytes() == np.stack(list(sums.values())).tobytes()

    def test_distinct_ids_are_a_copy(self):
        grads = np.ones((3, 2), dtype=np.float32)
        agg = segment_sum(grads, np.arange(3), np.arange(3))
        agg += 1
        assert (grads == 1).all()
