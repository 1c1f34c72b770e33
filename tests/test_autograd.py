"""Gradient correctness of the autograd engine (finite-difference checks)."""
import numpy as np
import pytest

from repro.autograd import Tensor, concat, embedding_lookup, stack
from repro.autograd.oracle import gelu
from tests.gradcheck import gradcheck


@pytest.fixture()
def rng():
    return np.random.default_rng(7)


class TestElementwiseGrads:
    def test_add_broadcast(self, rng):
        a = Tensor(rng.normal(size=(3, 4)))
        b = Tensor(rng.normal(size=(4,)))
        gradcheck(lambda x, y: x + y, [a, b])

    def test_mul_broadcast(self, rng):
        a = Tensor(rng.normal(size=(2, 3, 4)))
        b = Tensor(rng.normal(size=(3, 1)))
        gradcheck(lambda x, y: x * y, [a, b])

    def test_sub_div(self, rng):
        a = Tensor(rng.normal(size=(3, 4)))
        b = Tensor(rng.normal(size=(3, 4)) + 3.0)
        gradcheck(lambda x, y: (x - y) / y, [a, b])

    def test_pow(self, rng):
        a = Tensor(np.abs(rng.normal(size=(5,))) + 0.5)
        gradcheck(lambda x: x**3, [a])
        gradcheck(lambda x: x**-0.5, [a])

    def test_exp_log_sqrt(self, rng):
        a = Tensor(np.abs(rng.normal(size=(4,))) + 0.5)
        gradcheck(lambda x: x.exp(), [a])
        gradcheck(lambda x: x.log(), [a])
        gradcheck(lambda x: x.sqrt(), [a])

    def test_tanh_sigmoid_relu_gelu(self, rng):
        a = Tensor(rng.normal(size=(6,)))
        gradcheck(lambda x: x.tanh(), [a])
        gradcheck(lambda x: x.sigmoid(), [a])
        gradcheck(gelu, [a])
        b = Tensor(rng.normal(size=(6,)) + 0.1)  # keep away from the kink
        gradcheck(lambda x: x.relu(), [b])

    def test_neg_rsub_rdiv(self, rng):
        a = Tensor(rng.normal(size=(3,)) + 2.0)
        gradcheck(lambda x: 1.0 - x, [a])
        gradcheck(lambda x: 2.0 / x, [a])
        gradcheck(lambda x: -x, [a])


class TestMatmulGrads:
    def test_2d(self, rng):
        a = Tensor(rng.normal(size=(3, 4)))
        b = Tensor(rng.normal(size=(4, 5)))
        gradcheck(lambda x, y: x @ y, [a, b])

    def test_batched(self, rng):
        a = Tensor(rng.normal(size=(2, 3, 4)))
        b = Tensor(rng.normal(size=(2, 4, 5)))
        gradcheck(lambda x, y: x @ y, [a, b])

    def test_broadcast_batch(self, rng):
        a = Tensor(rng.normal(size=(2, 3, 4)))
        b = Tensor(rng.normal(size=(4, 5)))  # broadcast over batch
        gradcheck(lambda x, y: x @ y, [a, b])

    def test_vector_cases(self, rng):
        a = Tensor(rng.normal(size=(4,)))
        b = Tensor(rng.normal(size=(4,)))
        gradcheck(lambda x, y: x @ y, [a, b])


class TestReductionsAndShape:
    def test_sum_axes(self, rng):
        a = Tensor(rng.normal(size=(3, 4, 5)))
        gradcheck(lambda x: x.sum(), [a])
        gradcheck(lambda x: x.sum(axis=1), [a])
        gradcheck(lambda x: x.sum(axis=2, keepdims=True), [a])

    def test_mean(self, rng):
        a = Tensor(rng.normal(size=(3, 4)))
        gradcheck(lambda x: x.mean(axis=-1, keepdims=True), [a])

    def test_reshape_transpose_swapaxes(self, rng):
        a = Tensor(rng.normal(size=(2, 3, 4)))
        gradcheck(lambda x: x.reshape(6, 4), [a])
        gradcheck(lambda x: x.transpose(2, 0, 1), [a])
        gradcheck(lambda x: x.swapaxes(0, 2), [a])

    def test_getitem_slice_and_fancy(self, rng):
        a = Tensor(rng.normal(size=(5, 6)))
        gradcheck(lambda x: x[1:4], [a])
        idx = np.array([0, 2, 2, 4])
        gradcheck(lambda x: x[idx], [a])  # repeated rows accumulate

    def test_concat_stack(self, rng):
        a = Tensor(rng.normal(size=(2, 3)))
        b = Tensor(rng.normal(size=(2, 3)))
        gradcheck(lambda x, y: concat([x, y], axis=1), [a, b])
        gradcheck(lambda x, y: stack([x, y], axis=0), [a, b])

    def test_embedding_lookup(self, rng):
        table = Tensor(rng.normal(size=(7, 4)))
        idx = np.array([[1, 2, 1], [6, 0, 1]])
        gradcheck(lambda t: embedding_lookup(t, idx), [table])


class TestSoftmaxFamily:
    def test_softmax_rows_sum_to_one(self, rng):
        a = Tensor(rng.normal(size=(4, 9)))
        s = a.softmax(axis=-1)
        np.testing.assert_allclose(s.data.sum(axis=-1), 1.0, atol=1e-12)

    def test_softmax_grad(self, rng):
        a = Tensor(rng.normal(size=(3, 5)))
        w = Tensor(rng.normal(size=(3, 5)))
        gradcheck(lambda x, c: x.softmax(-1) * c, [a, w])

    def test_log_softmax_grad(self, rng):
        a = Tensor(rng.normal(size=(3, 5)))
        w = Tensor(rng.normal(size=(3, 5)))
        gradcheck(lambda x, c: x.log_softmax(-1) * c, [a, w])

    def test_log_softmax_stability(self):
        a = Tensor(np.array([[1e30, 0.0, -1e30]]))
        out = a.log_softmax(-1).data
        assert np.isfinite(out[0, 0])

    def test_masked_fill(self, rng):
        a = Tensor(rng.normal(size=(3, 4)))
        mask = np.array([[True, False, False, True]] * 3)
        out = a.masked_fill(mask, -5.0)
        assert np.all(out.data[mask] == -5.0)
        gradcheck(lambda x: x.masked_fill(mask, 0.0), [a])


class TestGraphMechanics:
    def test_grad_accumulates_over_backwards(self, rng):
        a = Tensor(rng.normal(size=(3,)), requires_grad=True)
        (a * 2.0).sum().backward()
        (a * 3.0).sum().backward()
        np.testing.assert_allclose(a.grad, 5.0)

    def test_reused_node_accumulates_in_one_graph(self):
        a = Tensor(np.array([2.0]), requires_grad=True)
        b = a * a  # d/da = 2a
        c = b + a  # total derivative 2a + 1 = 5
        c.sum().backward()
        np.testing.assert_allclose(a.grad, [5.0])

    def test_diamond_graph(self):
        a = Tensor(np.array([3.0]), requires_grad=True)
        b = a * 2.0
        c = a * 5.0
        d = b * c  # = 10 a^2 -> grad 20 a = 60
        d.sum().backward()
        np.testing.assert_allclose(a.grad, [60.0])

    def test_constants_are_not_taped(self):
        """A node is taped when one of its inputs requires a gradient."""
        out = (Tensor(np.ones(3)) * 2.0).sum()
        assert not out.requires_grad and out._parents == ()

    def test_backward_requires_scalar(self):
        a = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(RuntimeError):
            (a * 1.0).backward()

    def test_backward_on_nongrad_raises(self):
        a = Tensor(np.ones(1))
        with pytest.raises(RuntimeError):
            a.backward()

    def test_detach(self):
        a = Tensor(np.ones(3), requires_grad=True)
        d = a.detach()
        assert not d.requires_grad

    def test_deep_chain_iterative_topo(self):
        # Deep graphs must not hit the recursion limit (iterative DFS).
        a = Tensor(np.array([1.0]), requires_grad=True)
        x = a
        for _ in range(5000):
            x = x + 0.0
        x.sum().backward()
        np.testing.assert_allclose(a.grad, [1.0])

    def test_numpy_scalar_coercion(self):
        a = Tensor(np.ones((2, 2)), requires_grad=True)
        out = (np.float64(2.0) * a).sum()
        out.backward()
        np.testing.assert_allclose(a.grad, 2.0)

