"""Layers, attention, amplitude networks: shapes, causality, gradients."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.autograd import Tensor, gradcheck
from repro.nn import (
    CausalSelfAttention,
    DecoderLayer,
    Embedding,
    LayerNorm,
    Linear,
    PhaseMLP,
    PositionalEmbedding,
    TransformerAmplitude,
)
from tests.conftest import ANSATZE, baselines


@pytest.fixture()
def rng():
    return np.random.default_rng(11)


class TestLayers:
    def test_linear_shapes_and_grad(self, rng):
        lin = Linear(4, 3, rng=rng)
        x = Tensor(rng.normal(size=(5, 4)))
        out = lin(x)
        assert out.shape == (5, 3)
        gradcheck(lambda w: x @ w.transpose() + lin.bias, [lin.weight])

    def test_linear_no_bias(self, rng):
        lin = Linear(4, 3, bias=False, rng=rng)
        assert lin.bias is None
        assert len(list(lin.parameters())) == 1

    def test_embedding_gather(self, rng):
        emb = Embedding(10, 6, rng=rng)
        out = emb(np.array([[1, 2], [3, 3]]))
        assert out.shape == (2, 2, 6)
        np.testing.assert_array_equal(out.data[1, 0], out.data[1, 1])

    def test_positional_embedding(self, rng):
        pos = PositionalEmbedding(8, 4, rng=rng)
        assert pos(5).shape == (5, 4)

    def test_layernorm_normalizes(self, rng):
        ln = LayerNorm(16)
        x = Tensor(rng.normal(3.0, 5.0, size=(4, 16)))
        out = ln(x).data
        np.testing.assert_allclose(out.mean(axis=-1), 0.0, atol=1e-10)
        np.testing.assert_allclose(out.std(axis=-1), 1.0, atol=1e-3)

    def test_layernorm_grad(self, rng):
        ln = LayerNorm(5)
        x = Tensor(rng.normal(size=(2, 5)))
        gradcheck(lambda t: ln(t), [x])

    def test_module_flat_roundtrip(self, rng):
        dec = DecoderLayer(8, 2, rng=rng)
        flat = dec.get_flat_params()
        dec.set_flat_params(flat * 2.0)
        np.testing.assert_allclose(dec.get_flat_params(), flat * 2.0)
        with pytest.raises(ValueError):
            dec.set_flat_params(flat[:-1])

    def test_named_parameters_unique(self, rng):
        net = TransformerAmplitude(4, 4, d_model=8, n_heads=2, n_layers=2, rng=rng)
        names = [n for n, _ in net.named_parameters()]
        assert len(names) == len(set(names))
        assert net.num_parameters() == sum(p.size for _, p in net.named_parameters())


class TestAttention:
    def test_output_shape(self, rng):
        attn = CausalSelfAttention(8, 2, rng=rng)
        x = Tensor(rng.normal(size=(3, 5, 8)))
        assert attn(x).shape == (3, 5, 8)

    def test_head_divisibility_enforced(self, rng):
        with pytest.raises(ValueError):
            CausalSelfAttention(6, 4, rng=rng)

    def test_causality(self, rng):
        attn = CausalSelfAttention(8, 2, rng=rng)
        x = rng.normal(size=(1, 6, 8))
        base = attn(Tensor(x)).data
        x2 = x.copy()
        x2[0, 4] += 1.0  # perturb position 4
        out = attn(Tensor(x2)).data
        np.testing.assert_allclose(out[0, :4], base[0, :4], atol=1e-12)
        assert np.abs(out[0, 4:] - base[0, 4:]).max() > 0

    def test_grad_flows(self, rng):
        attn = CausalSelfAttention(4, 2, rng=rng)
        x = Tensor(rng.normal(size=(2, 3, 4)))
        gradcheck(lambda t: attn(t), [x], tol=1e-4)

    def test_decoder_layer_causality(self, rng):
        dec = DecoderLayer(8, 2, rng=rng)
        x = rng.normal(size=(1, 5, 8))
        base = dec(Tensor(x)).data
        x2 = x.copy()
        x2[0, 3] += 0.5
        out = dec(Tensor(x2)).data
        np.testing.assert_allclose(out[0, :3], base[0, :3], atol=1e-12)


AMPLITUDE_FACTORIES = {
    "transformer": lambda t, v, rng: TransformerAmplitude(t, v, d_model=8, n_heads=2, n_layers=2, rng=rng),
    "made": lambda t, v, rng: baselines.MADEAmplitude(t, v, hidden=(32, 32), rng=rng),
    "naqs-mlp": lambda t, v, rng: baselines.NAQSMLPAmplitude(t, v, hidden=(32,), rng=rng),
}


@pytest.mark.parametrize("kind", ANSATZE)
class TestAmplitudeNetworks:
    def test_shape(self, kind, rng):
        net = AMPLITUDE_FACTORIES[kind](5, 4, rng)
        toks = rng.integers(0, 4, size=(6, 5))
        assert net.conditional_logits(toks).shape == (6, 5, 4)

    def test_autoregressive_property(self, kind, rng):
        """Logits at position i must not depend on tokens >= i."""
        net = AMPLITUDE_FACTORIES[kind](6, 4, rng)
        toks = rng.integers(0, 4, size=(4, 6))
        base = net.conditional_logits(toks).data
        for j in range(6):
            t2 = toks.copy()
            t2[:, j] = (t2[:, j] + 1 + rng.integers(0, 3)) % 4
            out = net.conditional_logits(t2).data
            diff = np.abs(out - base).max(axis=(0, 2))
            assert diff[: j + 1].max() < 1e-12, f"position {j} leaks forward"

    def test_padding_invariance(self, kind, rng):
        """Conditionals of a prefix must not change with suffix padding."""
        net = AMPLITUDE_FACTORIES[kind](5, 4, rng)
        toks = rng.integers(0, 4, size=(3, 5))
        full = net.conditional_logits(toks).data
        padded = toks.copy()
        padded[:, 3:] = 0
        out = net.conditional_logits(padded).data
        np.testing.assert_allclose(out[:, :4], full[:, :4], atol=1e-12)

    def test_gradients_nonzero(self, kind, rng):
        net = AMPLITUDE_FACTORIES[kind](4, 4, rng)
        toks = rng.integers(0, 4, size=(3, 4))
        loss = net.conditional_logits(toks).log_softmax(-1).sum()
        loss.backward()
        g = net.get_flat_grads()
        assert np.linalg.norm(g) > 0

    def test_vocab_two(self, kind, rng):
        net = AMPLITUDE_FACTORIES[kind](6, 2, rng)
        toks = rng.integers(0, 2, size=(3, 6))
        assert net.conditional_logits(toks).shape == (3, 6, 2)


class TestPhaseMLP:
    def test_shape_and_grad(self, rng):
        ph = PhaseMLP(8, hidden=(16, 16), rng=rng)
        bits = rng.integers(0, 2, size=(5, 8))
        out = ph(bits)
        assert out.shape == (5,)
        out.sum().backward()
        assert np.linalg.norm(ph.get_flat_grads()) > 0

    def test_paper_layer_sizes(self, rng):
        ph = PhaseMLP(20, rng=rng)  # default N x 512 x 512 x 1
        sizes = [(layer.in_features, layer.out_features) for layer in ph.layers]
        assert sizes == [(20, 512), (512, 512), (512, 1)]

    @settings(max_examples=10, deadline=None)
    @given(st.integers(2, 16))
    def test_any_width(self, n):
        ph = PhaseMLP(n, hidden=(8,), rng=np.random.default_rng(0))
        bits = np.zeros((2, n), dtype=np.uint8)
        assert ph(bits).shape == (2,)
