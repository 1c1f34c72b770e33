"""Optimizers and the Eq. 13 learning-rate schedule."""
import numpy as np
import pytest

from repro.autograd import Tensor
from repro.autograd.oracle import Leaf
from repro.core import NoamAdamW, build_qiankunnet
from repro.core.engine import stage_update
from repro.nn import Linear, Module, Parameter
from repro.optim import AdamW


class _Quadratic(Module):
    """f(x) = |x - target|^2, a convex test problem."""

    def __init__(self, dim=6, seed=0):
        super().__init__()
        rng = np.random.default_rng(seed)
        self.x = Parameter(rng.normal(size=dim))
        self.target = rng.normal(size=dim)

    def loss(self) -> Tensor:
        d = Leaf(self.x) - Tensor(self.target)
        return (d * d).sum()


class TestAdamW:
    def test_converges_on_quadratic(self):
        m = _Quadratic()
        opt = AdamW(m, lr=0.05, weight_decay=0.0)
        for _ in range(400):
            opt.zero_grad()
            m.loss().backward()
            opt.step()
        np.testing.assert_allclose(m.x.data, m.target, atol=1e-3)

    def test_weight_decay_shrinks_weights(self):
        m = _Quadratic()
        m.target[:] = 0.0
        x0 = np.abs(m.x.data).sum()
        opt = AdamW(m, lr=0.0, weight_decay=0.1)  # pure decay has no effect at lr=0
        opt.zero_grad()
        m.loss().backward()
        opt.step()
        np.testing.assert_allclose(np.abs(m.x.data).sum(), x0)
        opt2 = AdamW(m, lr=0.01, weight_decay=0.5)
        for _ in range(50):
            opt2.zero_grad()
            m.loss().backward()
            opt2.step()
        assert np.abs(m.x.data).sum() < x0

    def test_skips_params_without_grad(self):
        m = _Quadratic()
        opt = AdamW(m, lr=0.1)
        before = m.x.data.copy()
        opt.step()  # no grads computed yet
        np.testing.assert_array_equal(m.x.data, before)

    def test_bias_correction_first_step(self):
        # After one step with unit gradient, update must be ~lr (not lr*(1-b1)).
        m = _Quadratic(dim=1)
        m.x.data[:] = 0.0
        m.x.grad = np.ones(1)
        opt = AdamW(m, lr=0.1, weight_decay=0.0)
        opt.step()
        np.testing.assert_allclose(m.x.data, [-0.1], rtol=1e-6)


def _wf(d_model=16):
    return build_qiankunnet(4, 1, 1, d_model=d_model, n_heads=2, n_layers=1,
                            phase_hidden=(8,), seed=0)


class TestNoamSchedule:
    """Eq. 13 is ``NoamAdamW``'s own: no schedule object."""

    def test_eq13_formula(self):
        opt = NoamAdamW(_wf(d_model=16), warmup=4000)
        for i in (1, 100, 4000, 10000):
            expected = 16**-0.5 * min(i**-0.5, i * 4000**-1.5)
            assert opt.lr_at(i) == pytest.approx(expected)

    def test_peak_at_warmup(self):
        opt = NoamAdamW(_wf(), warmup=100)
        lrs = [opt.lr_at(i) for i in range(1, 400)]
        assert int(np.argmax(lrs)) + 1 == 100

    def test_step_pushes_lr(self):
        """Stage 6 advances the epoch and steps at that epoch's rate."""
        wf = _wf()
        opt = NoamAdamW(wf, warmup=10, lr_scale=2.0)
        assert (opt.sched_i, opt.lr) == (0, 0.0)
        stage_update(opt, np.ones(wf.num_parameters()))
        assert opt.sched_i == 1 and opt.t == 1
        assert opt.lr == opt.lr_at(1) == 2.0 * 16**-0.5 * 10**-1.5 > 0
