"""Block-granular autograd ops against their primitive-op oracles.

Every block op of the oracle (``repro.autograd.oracle``) is checked against
the same function composed, *in this file*, from primitive ``Tensor`` ops
(the per-element graph the forward used to build), against central
differences; so is the production log-prob head of ``repro.nn.kernels``.
The prefix tree's attention core (``repro.nn.attention``) is checked in
float64 against the taped dense core, and stage 5 — assembled into a whole
wavefunction — against an oracle forward of the Eq. 7 surrogate.  Row
blocking of stage 5 and the non-finite guard of the engine ride along.
"""
from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

import repro.core.engine as engine
import repro.core.wavefunction as wavefunction
from repro.autograd import Tensor, embedding_lookup, stack
from repro.autograd.oracle import (
    Leaf,
    attention_forward,
    causal_attention,
    gelu,
    last_axis_dot,
    layer_norm,
    linear,
    picked_log_softmax,
    split_heads,
)
from repro.core.wavefunction import prefix_tree
from repro.core import VMC, VMCConfig, build_qiankunnet
from repro.core.sampler import SampleBatch
from repro.hamiltonian import compress_hamiltonian
from repro.nn import TransformerAmplitude
from repro.nn.attention import ancestor_layout, tree_attention_forward, tree_attention_vjp
from repro.nn.inference import cached_attention
from repro.nn.kernels import (
    MASK_VALUE,
    last_axis_max,
    last_axis_sum,
    picked_log_softmax_backward,
    picked_log_softmax_forward,
)
from tests.conftest import (
    ANSATZE,
    LOG_PI_GRAD_RTOL,
    amplitude_and_phase,
    baselines,
    build_wf,
)
from tests.gradcheck import gradcheck
from tests.test_wavefunction import sector_bitstrings

TOL = 1e-12


# --------------------------------------------------------------------------
# Oracles: the block ops' functions composed from primitive Tensor ops
# --------------------------------------------------------------------------
def linear_ref(x, w, b=None):
    out = x @ w.transpose()
    return out if b is None else out + b


def layer_norm_ref(x, gamma, beta, eps):
    centered = x - x.mean(axis=-1, keepdims=True)
    var = (centered * centered).mean(axis=-1, keepdims=True)
    return centered * (var + eps) ** -0.5 * gamma + beta


def gelu_ref(a):
    inner = (a + a * a * a * 0.044715) * math.sqrt(2.0 / math.pi)
    return a * (inner.tanh() + 1.0) * 0.5


def causal_attention_ref(qkv, n_heads):
    b, t, d3 = qkv.shape
    d = d3 // 3
    dh = d // n_heads
    heads = qkv.reshape(b, t, 3, n_heads, dh).transpose(2, 0, 3, 1, 4)
    q, k, v = heads[0], heads[1], heads[2]
    att = (q @ k.swapaxes(-1, -2)) * (1.0 / math.sqrt(dh))
    att = att.masked_fill(np.triu(np.ones((t, t), dtype=bool), k=1), MASK_VALUE)
    out = att.softmax(axis=-1) @ v
    return out.transpose(0, 2, 1, 3).reshape(b, t, d)


def picked_log_softmax_ref(logits, allowed, tokens):
    if allowed is not None:
        logits = logits.masked_fill(~allowed, MASK_VALUE)
    logc = logits.log_softmax(axis=-1)
    b, t = tokens.shape
    return logc[np.arange(b)[:, None], np.arange(t)[None, :], tokens].sum(axis=1)


def _tensors(rng, *shapes, requires_grad=True):
    return [Tensor(rng.normal(size=s), requires_grad=requires_grad) for s in shapes]


def _assert_same_value_and_grads(op, ref, inputs):
    """``op(*inputs)`` and ``ref(*inputs)`` agree in value and in the gradient
    of a randomly weighted sum with respect to every input."""
    out, expected = op(*inputs), ref(*inputs)
    np.testing.assert_allclose(out.data, expected.data, atol=TOL, rtol=TOL)
    weights = np.random.default_rng(7).normal(size=out.shape)
    grads = []
    for result in (out, expected):
        for t in inputs:
            t.zero_grad()
        (result * Tensor(weights)).sum().backward()
        grads.append([None if t.grad is None else t.grad.copy() for t in inputs])
    for t, got, want in zip(inputs, *grads):
        if not t.requires_grad:
            assert got is None and want is None
            continue
        np.testing.assert_allclose(got, want, atol=TOL, rtol=TOL)


# --------------------------------------------------------------------------
# Each block op: primitive-op oracle, central differences, edge cases
# --------------------------------------------------------------------------
class TestLinear:
    @pytest.mark.parametrize("x_shape", [(5, 6), (3, 4, 6)])
    def test_matches_primitives(self, rng, x_shape):
        _assert_same_value_and_grads(
            linear, linear_ref, _tensors(rng, x_shape, (7, 6), (7,)))

    def test_without_bias(self, rng):
        _assert_same_value_and_grads(
            linear, linear_ref, _tensors(rng, (3, 4, 6), (7, 6)))

    def test_input_without_grad_gets_none(self, rng):
        x = Tensor(rng.normal(size=(4, 6)))
        w, b = _tensors(rng, (7, 6), (7,))
        _assert_same_value_and_grads(linear, linear_ref, [x, w, b])

    def test_gradcheck(self, rng):
        gradcheck(linear, _tensors(rng, (2, 3, 4), (5, 4), (5,)))
        gradcheck(linear, _tensors(rng, (3, 4), (5, 4)))


class TestLayerNorm:
    @pytest.mark.parametrize("x_shape", [(5, 8), (3, 4, 8)])
    def test_matches_primitives(self, rng, x_shape):
        inputs = _tensors(rng, x_shape, (8,), (8,))
        _assert_same_value_and_grads(
            lambda x, g, b: layer_norm(x, g, b, 1e-5),
            lambda x, g, b: layer_norm_ref(x, g, b, 1e-5), inputs)

    def test_input_without_grad_gets_none(self, rng):
        x = Tensor(rng.normal(size=(4, 8)))
        _assert_same_value_and_grads(
            lambda x, g, b: layer_norm(x, g, b, 1e-5),
            lambda x, g, b: layer_norm_ref(x, g, b, 1e-5),
            [x, *_tensors(rng, (8,), (8,))])

    def test_gradcheck(self, rng):
        gradcheck(lambda x, g, b: layer_norm(x, g, b, 1e-5),
                  _tensors(rng, (2, 3, 6), (6,), (6,)))


class TestGelu:
    @pytest.mark.parametrize("shape", [(5, 8), (3, 4, 8)])
    def test_matches_primitives(self, rng, shape):
        _assert_same_value_and_grads(gelu, gelu_ref, _tensors(rng, shape))

    def test_gradcheck_and_input_untouched(self, rng):
        (x,) = _tensors(rng, (3, 5))
        before = x.data.copy()
        gradcheck(gelu, [x])
        np.testing.assert_array_equal(x.data, before)  # in place on temporaries only


class TestCausalAttention:
    @pytest.mark.parametrize("n_heads", [1, 2, 4])
    def test_matches_primitives(self, rng, n_heads):
        _assert_same_value_and_grads(
            lambda qkv: causal_attention(qkv, n_heads),
            lambda qkv: causal_attention_ref(qkv, n_heads),
            _tensors(rng, (3, 5, 3 * 8)))

    def test_gradcheck(self, rng):
        gradcheck(lambda qkv: causal_attention(qkv, 2), _tensors(rng, (2, 3, 12)))

    def test_decode_step_equals_rows_of_the_full_forward(self, rng):
        """The KV-cached decode's attention — one query against the cached
        positions, feature-major — reproduces the full causal forward row by
        row; the decode of position ``i`` sees positions ``<= i`` only.  In
        float64 the two formulas agree to rounding (production decodes in
        float32: ``tests/test_inference.py``)."""
        q, k, v = split_heads(rng.normal(size=(3, 6, 3 * 8)), 2)    # (b, h, t, dh)
        full, _ = attention_forward(q, k, v)
        k_cache, v_cache = (np.transpose(a, (2, 1, 3, 0)) for a in (k, v))  # (t, h, dh, b)
        for i in range(6):
            out = cached_attention(np.transpose(q[:, :, i], (1, 2, 0)),
                                   k_cache[:i + 1], v_cache[:i + 1])
            assert out.shape == (2, 4, 3)
            np.testing.assert_allclose(np.transpose(out, (2, 0, 1)), full[:, :, i],
                                       atol=1e-14)


class TestPickedLogSoftmax:
    def _case(self, rng, b=4, t=5, v=4):
        (logits,) = _tensors(rng, (b, t, v))
        tokens = rng.integers(0, v, size=(b, t))
        allowed = rng.random((b, t, v)) < 0.6
        allowed[np.arange(b)[:, None], np.arange(t)[None, :], tokens] = True
        # One position whose only allowed token is the picked one: its
        # conditional is exactly 1 and it contributes no gradient.
        allowed[0, 0] = False
        allowed[0, 0, tokens[0, 0]] = True
        return logits, allowed, tokens

    def test_matches_primitives_masked(self, rng):
        logits, allowed, tokens = self._case(rng)
        _assert_same_value_and_grads(
            lambda z: picked_log_softmax(z, allowed, tokens),
            lambda z: picked_log_softmax_ref(z, allowed, tokens), [logits])
        assert np.all(logits.grad[~allowed] == 0.0)
        assert np.all(logits.grad[0, 0] == 0.0)  # the single-allowed position

    def test_matches_primitives_unmasked(self, rng):
        logits, _, tokens = self._case(rng)
        _assert_same_value_and_grads(
            lambda z: picked_log_softmax(z, None, tokens),
            lambda z: picked_log_softmax_ref(z, None, tokens), [logits])

    def test_a_picked_masked_token_gets_no_gradient(self, rng):
        """A configuration outside the sector: log pi = MASK_VALUE, and the
        mask stops the gradient at that entry exactly as ``masked_fill`` does."""
        logits, allowed, tokens = self._case(rng)
        allowed[1, 2, tokens[1, 2]] = False
        _assert_same_value_and_grads(
            lambda z: picked_log_softmax(z, allowed, tokens),
            lambda z: picked_log_softmax_ref(z, allowed, tokens), [logits])

    def test_gradcheck(self, rng):
        logits, allowed, tokens = self._case(rng, b=2, t=3)
        gradcheck(lambda z: picked_log_softmax(z, allowed, tokens), [logits])


    def test_node_major_matches_primitives(self, rng):
        """The production head (``repro.nn.kernels``) with conditionals
        shared between rows: ``logits`` holds one row per node, every (row,
        position) reads the node ``node_at`` names, and -1 is a position
        whose conditional is exactly 1 (it reads nothing)."""
        (logits,) = _tensors(rng, (6, 4))
        node_at = np.array([[0, 1, 3], [0, 1, 4], [0, 2, 5], [0, 2, -1]])
        tokens = rng.integers(0, 4, size=node_at.shape)
        allowed = rng.random((6, 4)) < 0.6
        allowed[node_at, tokens] = True
        g = rng.normal(size=len(tokens))
        rows, cols = np.nonzero(node_at >= 0)
        for mask in (allowed, None):
            z = logits if mask is None else logits.masked_fill(~mask, MASK_VALUE)
            picked = z.log_softmax(axis=-1)[node_at[rows, cols], tokens[rows, cols]]
            want = Tensor(np.eye(len(tokens))[:, rows]) @ picked    # sum per row
            logits.zero_grad()
            (want * Tensor(g)).sum().backward()
            out, p, flat = picked_log_softmax_forward(logits.data, mask, tokens, node_at)
            got = picked_log_softmax_backward(g, p, flat, mask)
            np.testing.assert_allclose(out, want.data, atol=TOL, rtol=TOL)
            np.testing.assert_allclose(got, logits.grad, atol=TOL, rtol=TOL)
            if mask is not None:
                assert np.all(got[~mask] == 0.0)
        # The unmasked gradient against central differences (gradcheck's rule).
        def loss(z):
            return g @ picked_log_softmax_forward(z, None, tokens, node_at)[0]
        steps = 1e-6 * np.eye(logits.data.size).reshape(-1, *logits.shape)
        num = np.array([(loss(logits.data + e) - loss(logits.data - e)) / 2e-6
                        for e in steps]).reshape(logits.shape)
        assert np.abs(num - got).max() / max(1.0, np.abs(num).max()) < 1e-5


class TestTreeAttention:
    """The prefix tree's attention core, run in float64, against the taped
    dense core on the rows: node ``j`` reads the dense output at ``(rep_row[j],
    level[j])``, the rows read their nodes' projections (``x[node_at]``), and
    the VJP is the tape's gradient through that indexing."""

    @pytest.fixture()
    def tree(self):
        tokens = np.array([[0, 1, 2, 1], [0, 1, 3, 0], [0, 2, 0, 2], [0, 2, 0, 2],
                           [1, 0, 0, 3], [3, 3, 3, 0]])    # lexsorted, one duplicate
        rep_row, level, offsets, node = prefix_tree(tokens)
        t = tokens.shape[1]
        assert list(np.diff(offsets)) == [1, 3, 4, 5, 5]   # distinct prefixes by length
        node_at = (node[:t] + offsets[:t, None]).T
        return node_at, rep_row[: offsets[t]], level[: offsets[t]]

    def test_ancestor_runs_read_each_nodes_path(self, tree):
        """In the ``(depth, n)`` layout, node ``j``'s column holds its
        ancestors at positions ``<= level[j]``, unmasked, and only there."""
        node_at, rep_row, level = tree
        pre, inv, starts, runs, mask = ancestor_layout(rep_row, level)
        n = len(level)
        assert runs.sum() == node_at.shape[1] * n and np.all(np.diff(starts) > 0)
        read = np.repeat(np.arange(n), runs).reshape(-1, n)
        for j in range(n):
            path = slice(0, level[j] + 1)
            np.testing.assert_array_equal(read[path, inv[j]], node_at[rep_row[j], path])
            assert np.all(mask[path, 0, inv[j]] == 0.0)
            assert np.all(mask[level[j] + 1:, 0, inv[j]] < -1e29)

    @pytest.mark.parametrize("n_heads", [1, 2])
    def test_forward_and_vjp_equal_the_dense_core(self, rng, tree, n_heads):
        node_at, rep_row, level = tree
        (qkv,) = _tensors(rng, (len(rep_row), 3 * 8))
        dense = causal_attention(qkv[node_at], n_heads)[rep_row, level]
        weights = rng.normal(size=dense.shape)
        (dense * Tensor(weights)).sum().backward()
        layout = ancestor_layout(rep_row, level)
        out, saved = tree_attention_forward(qkv.data.T.copy(), layout, n_heads)
        np.testing.assert_allclose(out.T, dense.data, atol=TOL, rtol=TOL)
        grad = tree_attention_vjp(saved, weights.T.copy(), layout)
        np.testing.assert_allclose(grad.T, qkv.grad, atol=TOL, rtol=TOL)


SHORT_ARRAYS = hnp.arrays(
    np.float64,
    hnp.array_shapes(min_dims=1, max_dims=4, min_side=1, max_side=9),
    elements=st.floats(-1e3, 1e3, allow_nan=False, width=64))


class TestContractions:
    """Each short-axis contraction against the numpy reduction it replaces."""

    @settings(max_examples=60, deadline=None)
    @given(x=SHORT_ARRAYS)
    def test_last_axis_sum(self, x):
        np.testing.assert_allclose(last_axis_sum(x), np.sum(x, axis=-1, keepdims=True),
                                   rtol=1e-13, atol=1e-10)

    @settings(max_examples=60, deadline=None)
    @given(x=SHORT_ARRAYS, seed=st.integers(0, 2**16))
    def test_last_axis_dot(self, x, seed):
        y = np.random.default_rng(seed).normal(size=x.shape)
        np.testing.assert_allclose(
            last_axis_dot(x, y), np.sum(x * y, axis=-1, keepdims=True),
            rtol=1e-13, atol=1e-9)

    @settings(max_examples=60, deadline=None)
    @given(x=SHORT_ARRAYS)
    def test_last_axis_max(self, x):
        before = x.copy()
        np.testing.assert_array_equal(last_axis_max(x), np.max(x, axis=-1, keepdims=True))
        np.testing.assert_array_equal(x, before)            # input untouched

    def test_strided_and_empty_inputs(self, rng):
        x = rng.normal(size=(6, 5, 8))[::2, :, ::2]         # non-contiguous view
        np.testing.assert_allclose(last_axis_sum(x), x.sum(axis=-1, keepdims=True),
                                   rtol=1e-13)
        np.testing.assert_array_equal(last_axis_max(x), x.max(axis=-1, keepdims=True))
        empty = np.zeros((0, 4))
        assert last_axis_sum(empty).shape == last_axis_max(empty).shape == (0, 1)
        assert last_axis_dot(empty, empty).shape == (0, 1)


def test_constant_inputs_retain_no_parents(rng):
    """A block op on inputs that require no gradient is not taped."""
    x, w, b, gamma, beta = _tensors(rng, (2, 3, 6), (6, 6), (6,), (6,), (6,),
                                    requires_grad=False)
    (qkv,) = _tensors(rng, (2, 3, 12), requires_grad=False)
    tokens = rng.integers(0, 6, size=(2, 3))
    outs = [linear(x, w, b), layer_norm(x, gamma, beta, 1e-5), gelu(x),
            causal_attention(qkv, 2), picked_log_softmax(x, None, tokens)]
    for out in outs:
        assert not out.requires_grad
        assert out._parents == () and out._backward is None


# --------------------------------------------------------------------------
# The whole stage-5 gradient against an oracle wavefunction forward
# --------------------------------------------------------------------------
def _lin(x, lin):
    return linear_ref(x, Leaf(lin.weight), Leaf(lin.bias))


def _ln(x, ln):
    return layer_norm_ref(x, Leaf(ln.gamma), Leaf(ln.beta), ln.eps)


def _mlp_ref(layers, x, act):
    for layer in layers[:-1]:
        x = getattr(_lin(x, layer), act)()
    return _lin(x, layers[-1])


def oracle_logits(amp, tokens) -> Tensor:
    """The oracle's ``conditional_logits`` rebuilt from primitive ops on amp's
    parameters."""
    b, t = tokens.shape
    if isinstance(amp, baselines.MADEAmplitude):
        return amp.conditional_logits(tokens)  # masked weights: primitives already
    if isinstance(amp, baselines.NAQSMLPAmplitude):
        onehot = np.eye(amp.vocab_size)[tokens]            # (b, t, v)
        outs = []
        for i in range(t):
            prefix = np.zeros_like(onehot)
            prefix[:, :i] = onehot[:, :i]
            x = np.concatenate([prefix.reshape(b, -1), np.eye(t)[[i] * b]], axis=1)
            outs.append(_mlp_ref(amp.layers, Tensor(x), "relu"))
        return stack(outs, axis=1)
    assert isinstance(amp, TransformerAmplitude)
    shifted = np.concatenate([np.full((b, 1), amp.bos), tokens[:, : t - 1]], axis=1)
    x = (embedding_lookup(Leaf(amp.tok_emb.weight), shifted)
         + Leaf(amp.pos_emb.weight)[np.arange(t)])
    for layer in amp.layers:
        qkv = _lin(_ln(x, layer.ln1), layer.attn.qkv)
        x = x + _lin(causal_attention_ref(qkv, layer.attn.n_heads), layer.attn.proj)
        h = gelu_ref(_lin(_ln(x, layer.ln2), layer.ff.fc1))
        x = x + _lin(h, layer.ff.fc2)
    return _lin(_ln(x, amp.ln_f), amp.head)


def oracle_surrogate_gradient(wf, bits, coeff_amp, coeff_phase):
    tokens = wf.bits_to_tokens(bits)
    allowed = None if wf.constraint is None else wf.constraint.mask_sequence(tokens)
    logp = picked_log_softmax_ref(oracle_logits(wf.amplitude, tokens), allowed, tokens)
    phi = _mlp_ref(wf.phase.layers, Tensor(2.0 * bits - 1.0), "tanh").reshape(len(bits))
    wf.zero_grad()
    ((Tensor(coeff_amp) * logp).sum() + (Tensor(coeff_phase) * phi).sum()).backward()
    return wf.get_flat_grads()


def _surrogate_case(amplitude_type="transformer", constrain=True, rows=None,
                    phase_hidden=(32, 32)):
    wf = build_wf(amplitude_type, 8, 2, 2, constrain=constrain,
                  phase_hidden=phase_hidden, seed=3)
    bits = sector_bitstrings(8, 2, 2)
    if rows is not None:
        bits = np.tile(bits, (-(-rows // len(bits)), 1))[:rows]
    rng = np.random.default_rng(5)
    n = len(bits)
    weights = rng.integers(1, 50, size=n)
    eloc = rng.normal(size=n) + 1j * rng.normal(size=n)
    w_norm = weights / weights.sum()
    e_mean, e_imag = float(w_norm @ eloc.real), float(w_norm @ eloc.imag)
    chunk = SampleBatch(bits=bits.astype(np.uint8), weights=weights)
    return wf, chunk, (w_norm, eloc, e_mean, e_imag)


# Stage 5 is two float32 VJPs (``TransformerAmplitude.prefix_vjp``,
# ``PhaseMLP.vjp``); the oracle tapes both halves in float64.  Relative 2-norm
# of each slice; a foil's amplitude half is its own float64 tape.
PHASE_GRAD_RTOL = 1e-5


def _assert_slice_close(got, want, rtol):
    assert np.linalg.norm(got - want) <= rtol * np.linalg.norm(want)


@pytest.mark.parametrize("constrain", [True, False])
@pytest.mark.parametrize("amplitude_type", ANSATZE)
def test_stage5_gradient_matches_oracle_forward(amplitude_type, constrain):
    wf, chunk, (w_norm, eloc, e_mean, e_imag) = _surrogate_case(amplitude_type, constrain)
    grad = engine.stage_backward(wf, chunk, w_norm, eloc, e_mean, e_imag).copy()
    want = oracle_surrogate_gradient(
        wf, chunk.bits.astype(np.float64),
        w_norm * (eloc.real - e_mean), 2.0 * w_norm * (eloc.imag - e_imag))
    (amp, phase), (want_amp, want_phase) = (amplitude_and_phase(wf, g) for g in (grad, want))
    assert np.max(np.abs(want_amp)) > 1e-6 and np.max(np.abs(want_phase)) > 1e-6
    foil = amplitude_type != "transformer"
    _assert_slice_close(amp, want_amp, 1e-10 if foil else LOG_PI_GRAD_RTOL)
    _assert_slice_close(phase, want_phase, PHASE_GRAD_RTOL)


# --------------------------------------------------------------------------
# Row blocking of stage 5
# --------------------------------------------------------------------------
class TestRowBlocking:
    @pytest.mark.parametrize("rows, block, n_blocks", [
        (32, 8, 4), (31, 8, 4), (33, 8, 5), (32, 4, 8), (63, 8, 8), (65, 8, 9),
    ])
    def test_blocked_backward_equals_one_shot(self, monkeypatch, rows, block, n_blocks):
        wf, chunk, args = _surrogate_case(rows=rows)
        assert len(wavefunction.row_blocks(rows)) == 1
        one_shot = engine.stage_backward(wf, chunk, *args).copy()
        monkeypatch.setattr(wavefunction, "ROW_BLOCK", block)
        slices = wavefunction.row_blocks(rows)
        assert len(slices) == n_blocks
        sizes = [s.stop - s.start for s in slices]
        assert sum(sizes) == rows and max(sizes) <= block
        assert max(sizes) - min(sizes) <= 1                      # evenly sized
        blocked = engine.stage_backward(wf, chunk, *args)
        # float32 sums over a block's nodes round by the block
        _assert_slice_close(blocked, one_shot, LOG_PI_GRAD_RTOL)

    def test_blocked_log_amplitudes_equal_one_shot(self, monkeypatch):
        wf, chunk, _ = _surrogate_case(rows=33)
        one_shot = wf.log_amplitudes(chunk.bits)
        monkeypatch.setattr(wavefunction, "ROW_BLOCK", 8)
        np.testing.assert_allclose(wf.log_amplitudes(chunk.bits), one_shot, atol=TOL)
        np.testing.assert_allclose(wf.amplitudes(chunk.bits), np.exp(one_shot), atol=TOL)

    def test_zero_row_chunk_returns_zeros(self):
        """A rank may own no rows of the global unique set."""
        wf, chunk, _ = _surrogate_case()
        empty = SampleBatch(bits=chunk.bits[:0], weights=chunk.weights[:0])
        none = np.zeros(0)
        grad = engine.stage_backward(wf, empty, none, none + 0j, 0.0, 0.0)
        assert grad.shape == (wf.num_parameters(),)
        assert not grad.any()
        assert wf.log_amplitudes(chunk.bits[:0]).shape == (0,)

    def test_peak_memory_is_bounded_by_the_block(self, monkeypatch):
        """2 048 distinct 20-qubit rows: a block's activations grow with its
        tree's nodes (the 8-qubit sector's 36 states would leave nothing to
        bound), so eight blocks peak far below one."""
        wf = build_qiankunnet(20, 5, 5, constrain=False, phase_hidden=(32, 32), seed=3)
        rng = np.random.default_rng(0)
        bits = np.unique(rng.integers(0, 2, size=(2100, 20), dtype=np.uint8), axis=0)[:2048]
        eloc = rng.normal(size=2048) + 1j * rng.normal(size=2048)
        chunk = SampleBatch(bits=bits, weights=np.ones(2048, dtype=np.int64))
        args = (np.full(2048, 1 / 2048), eloc, float(eloc.real.mean()), float(eloc.imag.mean()))

        def peak(block):
            monkeypatch.setattr(wavefunction, "ROW_BLOCK", block)
            engine.stage_backward(wf, chunk, *args)  # warm: p.grad buffers exist
            tracemalloc.start()
            try:
                engine.stage_backward(wf, chunk, *args)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert 4 * peak(256) < peak(2048)  # 8 blocks vs 1: measured ~7.6x

    def test_phase_vjp_memory_is_bounded_by_the_block(self):
        """The paper-size phase net (N x 512 x 512 x 1): the phase VJP holds
        one ``PHASE_BLOCK`` of activations at a time, so 4 blocks peak
        where one does."""
        block = wavefunction.PHASE_BLOCK
        cases = {rows: _surrogate_case(rows=rows, phase_hidden=(512, 512))
                 for rows in (block, 4 * block)}

        def peak(rows):
            wf, chunk, args = cases[rows]
            engine.stage_backward(wf, chunk, *args)  # warm: p.grad buffers exist
            tracemalloc.start()
            try:
                engine.stage_backward(wf, chunk, *args)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(4 * block) <= 1.5 * peak(block)


# --------------------------------------------------------------------------
# The non-finite guard
# --------------------------------------------------------------------------
class TestNonFiniteGuard:
    """The guard sits in the engine, between the stage-6 allreduce and the
    parameter step."""

    @pytest.fixture()
    def vmc(self, h2_problem):
        wf = build_qiankunnet(4, 1, 1, d_model=8, n_heads=2, n_layers=1,
                              phase_hidden=(12,), seed=0)
        vmc = VMC(wf, compress_hamiltonian(h2_problem.hamiltonian),
                  VMCConfig(n_samples=500, seed=1))
        vmc.step()
        return vmc

    def _assert_raises_untouched(self, vmc, match):
        params = vmc.wf.get_flat_params().copy()
        n_history, iteration = len(vmc.history), vmc.iteration
        state = {k: np.copy(a) for k, a in vmc.optimizer.state().items()}
        with pytest.raises(FloatingPointError, match=match) as err:
            vmc.step()
        np.testing.assert_array_equal(vmc.wf.get_flat_params(), params)
        assert vmc.iteration == iteration and len(vmc.history) == n_history
        after = vmc.optimizer.state()
        assert after.keys() == state.keys()
        for key, before in state.items():
            np.testing.assert_array_equal(after[key], before)
        return str(err.value)

    @staticmethod
    def _poison_stage5(patch, value, index=slice(None)):
        """Stage 5 as usual, then ``value`` written into its gradient — the
        arena buffer stage 6 ships."""
        real = engine.stage_backward

        def poisoned(*args, **kwargs):
            grad = real(*args, **kwargs)
            grad[index] = value
            return grad

        patch.setattr(engine, "stage_backward", poisoned)

    def test_nan_local_energy_raises_naming_rank_and_stage(self, vmc, monkeypatch):
        real = engine.stage_local_energy

        def poisoned(*args, **kwargs):
            eloc = real(*args, **kwargs)
            eloc[0] = np.nan
            return eloc

        monkeypatch.setattr(engine, "stage_local_energy", poisoned)
        message = self._assert_raises_untouched(vmc, "non-finite local energy")
        assert "rank 0" in message and "stage 3" in message
        assert "iteration 2" in message

    def test_inf_gradient_raises_naming_iteration_and_stage(self, vmc, monkeypatch):
        self._poison_stage5(monkeypatch, np.inf, index=3)
        message = self._assert_raises_untouched(vmc, "non-finite gradient")
        assert "stage 6" in message and "iteration 2" in message
        assert "energy" not in message  # only the offending quantity is named

    def test_the_run_continues_after_the_fault_is_removed(self, vmc, monkeypatch):
        with monkeypatch.context() as patch:
            self._poison_stage5(patch, np.nan)
            with pytest.raises(FloatingPointError):
                vmc.step()
        stats = vmc.step()
        assert stats.iteration == 2 and math.isfinite(stats.energy)
