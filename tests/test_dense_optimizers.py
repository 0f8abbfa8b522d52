"""The dense optimizer: Adam, with state round-trips."""

import numpy as np
import pytest

from repro.dlrm.optimizers import Adam
from repro.errors import ConfigError


def params_and_grads():
    params = [np.ones(3, dtype=np.float32), np.zeros(2, dtype=np.float32)]
    grads = [np.full(3, 2.0, dtype=np.float32), np.full(2, -1.0, dtype=np.float32)]
    return params, grads


class TestAdam:
    def test_first_step_size_is_lr(self):
        """With bias correction, step 1 moves ~lr regardless of grad scale."""
        opt = Adam(lr=0.01)
        params = [np.zeros(1, dtype=np.float32)]
        opt.step(params, [np.full(1, 1e3, dtype=np.float32)])
        assert abs(params[0][0]) == pytest.approx(0.01, rel=1e-3)

    def test_deterministic(self):
        a, b = Adam(lr=0.01), Adam(lr=0.01)
        p1, g1 = params_and_grads()
        p2, g2 = params_and_grads()
        for __ in range(5):
            a.step(p1, g1)
            b.step(p2, g2)
        assert np.allclose(p1[0], p2[0])

    def test_state_roundtrip_continues_identically(self):
        opt = Adam(lr=0.01)
        params, grads = params_and_grads()
        opt.step(params, grads)
        saved_params = [np.array(p, copy=True) for p in params]
        state = opt.state()
        opt.step(params, grads)
        reference = [np.array(p, copy=True) for p in params]

        fresh = Adam(lr=0.01)
        fresh.load_state(state)
        fresh.step(saved_params, grads)
        assert np.allclose(saved_params[0], reference[0])
        assert np.allclose(saved_params[1], reference[1])

    def test_state_is_deep_copy(self):
        opt = Adam()
        params, grads = params_and_grads()
        opt.step(params, grads)
        state = opt.state()
        opt.step(params, grads)
        fresh = Adam()
        fresh.load_state(state)
        assert fresh._t == 1

    def test_invalid_betas(self):
        with pytest.raises(ConfigError):
            Adam(beta1=1.0)
