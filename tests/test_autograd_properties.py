"""Property-based gradient checks for the autograd engine (hypothesis).

The base suite (test_autograd.py) covers targeted cases; this file sweeps the
operator set with randomized shapes/values, plus graph-semantics invariants
(accumulation, what gets taped, diamond graphs, broadcasting adjoints).
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.autograd import Tensor
from repro.autograd.oracle import gelu
from repro.autograd.tensor import concat, embedding_lookup, stack
from tests.gradcheck import gradcheck

SEEDS = st.integers(min_value=0, max_value=10**6)
DIMS = st.integers(min_value=1, max_value=5)


def arr(rng, *shape, lo=-2.0, hi=2.0):
    return Tensor(rng.uniform(lo, hi, shape))


class TestElementwiseGradients:
    @settings(max_examples=10, deadline=None)
    @given(SEEDS, DIMS, DIMS)
    def test_mul_div_chain(self, seed, n, m):
        rng = np.random.default_rng(seed)
        x, y = arr(rng, n, m), arr(rng, n, m, lo=0.5, hi=2.0)
        gradcheck(lambda a, b: (a * b) / (b + 3.0), [x, y])

    @settings(max_examples=10, deadline=None)
    @given(SEEDS, DIMS)
    def test_exp_log_sqrt(self, seed, n):
        rng = np.random.default_rng(seed)
        x = arr(rng, n, lo=0.2, hi=3.0)
        gradcheck(lambda a: (a.exp().log() + a.sqrt()).sum(), [x])

    @settings(max_examples=10, deadline=None)
    @given(SEEDS, DIMS, DIMS)
    def test_tanh_sigmoid_gelu(self, seed, n, m):
        rng = np.random.default_rng(seed)
        x = arr(rng, n, m)
        gradcheck(lambda a: a.tanh() + a.sigmoid() + gelu(a), [x], tol=1e-4)

    @settings(max_examples=10, deadline=None)
    @given(SEEDS, st.floats(min_value=0.5, max_value=3.0))
    def test_pow(self, seed, e):
        rng = np.random.default_rng(seed)
        x = arr(rng, 4, lo=0.3, hi=2.0)
        gradcheck(lambda a: a**e, [x], tol=1e-4)

    def test_relu_subgradient_at_kink_is_zero_side(self):
        x = Tensor(np.array([-1.0, 0.0, 2.0]), requires_grad=True)
        x.relu().sum().backward()
        np.testing.assert_allclose(x.grad, [0.0, 0.0, 1.0])


class TestMatmulAndShapes:
    @settings(max_examples=10, deadline=None)
    @given(SEEDS, DIMS, DIMS, DIMS)
    def test_matmul_2d(self, seed, n, k, m):
        rng = np.random.default_rng(seed)
        gradcheck(lambda a, b: a @ b, [arr(rng, n, k), arr(rng, k, m)])

    @settings(max_examples=8, deadline=None)
    @given(SEEDS, st.integers(min_value=1, max_value=3), DIMS, DIMS, DIMS)
    def test_matmul_batched_broadcast(self, seed, b, n, k, m):
        rng = np.random.default_rng(seed)
        # (B, n, k) @ (k, m): the right operand's adjoint must unbroadcast.
        gradcheck(lambda a, w: a @ w, [arr(rng, b, n, k), arr(rng, k, m)])

    @settings(max_examples=8, deadline=None)
    @given(SEEDS, DIMS)
    def test_vector_vector(self, seed, n):
        rng = np.random.default_rng(seed)
        gradcheck(lambda a, b: a @ b, [arr(rng, n), arr(rng, n)])

    @settings(max_examples=8, deadline=None)
    @given(SEEDS, DIMS, DIMS)
    def test_reshape_transpose_roundtrip(self, seed, n, m):
        rng = np.random.default_rng(seed)
        x = arr(rng, n, m)
        gradcheck(lambda a: a.reshape(m * n).reshape(m, n).transpose(), [x])

    @settings(max_examples=8, deadline=None)
    @given(SEEDS, DIMS, DIMS)
    def test_getitem(self, seed, n, m):
        rng = np.random.default_rng(seed)
        x = arr(rng, n + 1, m)
        gradcheck(lambda a: a[0] * 2.0 + a[-1], [x])

    def test_getitem_repeated_index_accumulates(self):
        x = Tensor(np.ones(3), requires_grad=True)
        idx = np.array([0, 0, 2])
        x[idx].sum().backward()
        np.testing.assert_allclose(x.grad, [2.0, 0.0, 1.0])


class TestSoftmaxFamily:
    @settings(max_examples=10, deadline=None)
    @given(SEEDS, DIMS, st.integers(min_value=2, max_value=6))
    def test_softmax_rows_sum_to_one_and_grad(self, seed, n, v):
        rng = np.random.default_rng(seed)
        x = arr(rng, n, v, lo=-5, hi=5)
        out = x.softmax(axis=-1)
        np.testing.assert_allclose(out.data.sum(axis=-1), 1.0, atol=1e-12)
        coeff = Tensor(rng.uniform(size=(n, v)))  # fixed: fn must be deterministic
        gradcheck(lambda a: (a.softmax(axis=-1) * coeff).sum(), [x], tol=1e-4)

    @settings(max_examples=10, deadline=None)
    @given(SEEDS, DIMS, st.integers(min_value=2, max_value=6))
    def test_log_softmax_consistency(self, seed, n, v):
        rng = np.random.default_rng(seed)
        x = arr(rng, n, v, lo=-5, hi=5)
        np.testing.assert_allclose(
            x.log_softmax(axis=-1).data, np.log(x.softmax(axis=-1).data), atol=1e-12
        )
        coeff = Tensor(rng.uniform(size=(n, v)))
        gradcheck(lambda a: (a.log_softmax(axis=-1) * coeff).sum(), [x], tol=1e-4)

    def test_log_softmax_extreme_logits_stable(self):
        x = Tensor(np.array([[1e4, -1e4, 0.0]]), requires_grad=True)
        out = x.log_softmax(axis=-1)
        assert np.all(np.isfinite(out.data))
        out.sum().backward()
        assert np.all(np.isfinite(x.grad))

    @settings(max_examples=8, deadline=None)
    @given(SEEDS, DIMS, st.integers(min_value=2, max_value=5))
    def test_masked_fill_blocks_gradient(self, seed, n, v):
        rng = np.random.default_rng(seed)
        x = arr(rng, n, v)
        mask = rng.random((n, v)) < 0.4
        x.requires_grad = True
        x.zero_grad()
        x.masked_fill(mask, -1e30).masked_fill(~mask, 0.0).sum().backward()
        np.testing.assert_allclose(x.grad, 0.0)  # everything masked one way


class TestGraphSemantics:
    def test_diamond_graph_accumulates_once_per_path(self):
        x = Tensor(np.array([2.0]), requires_grad=True)
        y = x * 3.0
        z = y + y  # two paths through y
        z.backward()
        np.testing.assert_allclose(x.grad, [6.0])

    def test_gradient_accumulation_across_backwards(self):
        x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        (x * 2.0).sum().backward()
        (x * 3.0).sum().backward()
        np.testing.assert_allclose(x.grad, [5.0, 5.0])

    def test_constants_are_not_taped(self):
        c = Tensor(np.ones(3))
        y = (c * 2.0).sum()
        assert not y.requires_grad
        with pytest.raises(RuntimeError):
            y.backward()

    def test_taping_follows_the_inputs(self):
        """A node is taped when one of its inputs requires a gradient — not
        by any mode: the same constant is untaped alone and taped beside a
        leaf, and the leaf's gradient skips it."""
        x = Tensor(np.ones(2), requires_grad=True)
        c = Tensor(np.full(2, 3.0))
        assert not (c * 2.0).requires_grad
        z = x * c
        assert z.requires_grad
        z.sum().backward()
        np.testing.assert_allclose(x.grad, [3.0, 3.0])
        assert c.grad is None

    def test_backward_on_nonscalar_requires_grad_arg(self):
        x = Tensor(np.ones((2, 2)), requires_grad=True)
        y = x * 2.0
        with pytest.raises(RuntimeError, match="scalar"):
            y.backward()
        y.backward(np.ones((2, 2)))
        np.testing.assert_allclose(x.grad, 2.0 * np.ones((2, 2)))

    def test_detach_cuts_graph(self):
        x = Tensor(np.ones(2), requires_grad=True)
        y = (x * 5.0).detach()
        assert not y.requires_grad

    def test_scalar_coercion_in_binary_ops(self):
        x = Tensor(np.array([3.0]), requires_grad=True)
        ((2.0 - x) / 4.0 + 1.0 * x).sum().backward()
        np.testing.assert_allclose(x.grad, [-0.25 + 1.0])

    def test_deep_chain_iterative_toposort(self):
        """1000-deep chain: recursion-free backward must not overflow."""
        x = Tensor(np.array([1.0]), requires_grad=True)
        y = x
        for _ in range(1000):
            y = y * 1.001
        y.backward()
        assert x.grad[0] == pytest.approx(1.001**1000, rel=1e-9)


class TestStackConcatEmbedding:
    @settings(max_examples=8, deadline=None)
    @given(SEEDS, st.integers(min_value=1, max_value=4), DIMS)
    def test_concat_gradients(self, seed, parts, m):
        rng = np.random.default_rng(seed)
        xs = [arr(rng, i + 1, m) for i in range(parts)]
        gradcheck(lambda *ts: concat(list(ts), axis=0) * 2.0, list(xs))

    @settings(max_examples=8, deadline=None)
    @given(SEEDS, st.integers(min_value=2, max_value=4), DIMS)
    def test_stack_gradients(self, seed, parts, m):
        rng = np.random.default_rng(seed)
        xs = [arr(rng, m) for _ in range(parts)]
        gradcheck(lambda *ts: stack(list(ts), axis=0).sum(axis=0), list(xs))

    def test_embedding_scatter_add(self):
        table = Tensor(np.arange(12.0).reshape(4, 3), requires_grad=True)
        idx = np.array([[0, 1], [1, 3]])
        out = embedding_lookup(table, idx)
        assert out.shape == (2, 2, 3)
        out.sum().backward()
        expected = np.zeros((4, 3))
        expected[0] += 1
        expected[1] += 2  # index 1 appears twice
        expected[3] += 1
        np.testing.assert_allclose(table.grad, expected)
