"""The QiankunNet amplitude sub-network: a stack of transformer decoders.

Fig. 2 of the paper: token embedding + positional embedding, L stacked
decoders (masked multi-head self-attention + feed-forward), and a final
linear + softmax head that emits the conditional distribution
pi(x_i | x_{i-1}, ..., x_1) for every position in one forward pass.

Tokens.  The paper samples *two qubits per step* ("since they correspond to
the same spatial orbital", Sec. 3.3), i.e. the vocabulary is
{00, 01, 10, 11} = {empty, up, down, doubly-occupied} and the sequence length
is N/2 for N qubits.  ``vocab_size`` is configurable (2 for the 1-qubit-token
ablation).

Interface contract — all that ``src/`` knows about an amplitude network, and
all another network wired into ``NNQSWavefunction`` by hand has to provide
(the foils of ``benchmarks/baseline_ansatze.py`` do):

* ``n_tokens``, ``vocab_size``, ``d_model`` (the Eq. 13 schedule's scale);
* ``make_session(batch) -> session`` — incremental decoding, graph-free:
  ``step(prev_tokens | None)`` / ``prefill(prefix)`` return the next
  position's ``(batch, vocab)`` float64 logits, ``select(idx)`` gathers rows
  when the tree branches, ``copy()``, ``batch_size``, ``pos``.  Read by the
  BAS sweep, the walk of ``log_amplitudes`` and the serving layer's prefix
  cache (the transformer's session runs its own float32 kernel, see
  ``repro.nn.inference``);
* ``prefix_forward(tokens, rep_row, level) -> (logits, saved)`` and
  ``prefix_vjp(saved, g)`` — the graph-free pair over the distinct prefixes
  of lexsorted rows: ``(n_nodes, vocab)`` float64 conditionals, then the
  parameters' gradient of ``sum(g * logits)`` *added* into each ``p.grad``
  (a bound arena view is written in place; ``None`` starts from zero).
  Read by ``NNQSWavefunction.log_prob_vjp`` (stage 5, pretraining).  A
  network without a hand-written backward may answer with a tape: logits
  taped in ``prefix_forward``, backpropagated in ``prefix_vjp``.

The dense float64 oracle of both is not part of the contract: the oracle
module (``repro.autograd.oracle.conditional_logits``) tapes the
transformer's, and a network of another kind brings its own taped
``conditional_logits(tokens)`` — ``(batch, t <= T)`` int tokens to
``(batch, t, vocab)`` logits, position ``i`` a function of tokens ``< i``
(tests and benchmarks only).
"""
from __future__ import annotations

import numpy as np

from repro.dtypes import float32, float64, int64
from repro.nn.attention import (
    DecoderLayer,
    ancestor_layout,
    tree_attention_forward,
    tree_attention_vjp,
)
from repro.nn.inference import TransformerInferenceSession, _affine, _standardize
from repro.nn.kernels import gelu_backward, gelu_forward
from repro.nn.layers import Embedding, LayerNorm, Linear, PositionalEmbedding
from repro.nn.module import Module

__all__ = ["TransformerAmplitude"]


class TransformerAmplitude(Module):
    """Decoder-only transformer emitting autoregressive conditional logits.

    Parameters (paper defaults, Sec. 4.1): ``d_model=16``, ``n_heads=4``,
    ``n_layers=2`` decoders; the embedding has one extra begin-of-sequence
    token so that the conditional of the first position is also learned.
    """

    def __init__(self, n_tokens: int, vocab_size: int = 4, d_model: int = 16,
                 n_heads: int = 4, n_layers: int = 2, d_ff: int | None = None,
                 rng: np.random.Generator | None = None):
        super().__init__()
        rng = rng or np.random.default_rng()
        self.n_tokens = n_tokens
        self.vocab_size = vocab_size
        self.d_model = d_model
        self.bos = vocab_size  # index of the begin-of-sequence token
        self.tok_emb = Embedding(vocab_size + 1, d_model, rng=rng)
        self.pos_emb = PositionalEmbedding(n_tokens + 1, d_model, rng=rng)
        self.layers = [DecoderLayer(d_model, n_heads, d_ff, rng=rng) for _ in range(n_layers)]
        self.ln_f = LayerNorm(d_model)
        self.head = Linear(d_model, vocab_size, rng=rng)

    # ------------------------------------------- stage 5: the prefix tree
    def prefix_forward(self, tokens, rep_row, level):
        """``(n, vocab)`` float64 logits of the ``n`` distinct prefixes of
        lexsorted rows, and what :meth:`prefix_vjp` needs.

        Node ``j`` is the length-``level[j]`` prefix of ``tokens[rep_row[j]]``
        (level-major, every node's parent among the nodes) and carries the
        conditional of position ``level[j]`` — what the dense oracle
        computes at every ``(row, position)`` through it, computed once.  Every layer runs over node columns,
        feature-major ``(features, n)``, in float32 on copies of the
        parameters cast for this call; only the attention core reads a
        node's ancestors (``tree_attention_forward``).  LayerNorm is not
        folded into the next linear, as the decode folds it: its gain and
        shift need gradients of their own.
        """
        tokens = np.asarray(tokens, dtype=int64)
        inputs = np.where(level > 0, tokens[rep_row, level - 1], self.bos)
        x = np.take(_f32(self.tok_emb.weight).T, inputs, axis=1)
        x += np.take(_f32(self.pos_emb.weight).T, level, axis=1)
        layout = ancestor_layout(rep_row, level)
        layers = [_decoder_forward(layer, x, layout) for layer in self.layers]
        hf, ln_f = _layer_norm(self.ln_f, x)
        logits, head = _linear(self.head, hf)
        saved = (inputs, level, layout, layers, ln_f, head)
        return np.ascontiguousarray(logits.T, dtype=float64), saved

    def prefix_vjp(self, saved, g) -> None:
        """Add the gradient of ``sum(g * logits)`` into every parameter's
        ``p.grad``, for the ``(n, vocab)`` float64 ``g`` against
        :meth:`prefix_forward`'s logits.

        The hand-derived backward of :meth:`prefix_forward`, in float32,
        each parameter's contribution added into its float64 gradient.
        Two sums stay float64 or exact: the head bias's, ``g.sum(axis=0)``,
        read off the float64 ``g``; and the attention key bias's, written as
        exactly 0.  A key bias adds the same ``q . b_k`` to every score of a
        query, which the softmax removes, so its gradient is 0 analytically;
        float32 leaves rounding there (~1e-7 of the gradient's scale), which
        Adam's ``m / (sqrt(v) + eps)`` turns into an lr-sized random walk.
        """
        inputs, level, layout, layers, ln_f, head = saved
        self.head.bias._accumulate(np.sum(g, axis=0))
        gx = _layer_norm_vjp(self.ln_f, ln_f, _linear_vjp(
            self.head, head, np.ascontiguousarray(g.T, dtype=float32), bias=False))
        for layer, saved_layer in zip(reversed(self.layers), reversed(layers)):
            _decoder_vjp(layer, saved_layer, gx, layout)
        for emb, index in ((self.tok_emb, inputs), (self.pos_emb, level)):
            one_hot = (index[:, None] == np.arange(len(emb.weight.data))).astype(float32)
            emb.weight._accumulate((gx @ one_hot).T)

    # ------------------------------------------------- incremental decoding
    def make_session(self, batch_size: int = 1) -> TransformerInferenceSession:
        """Open a KV-cached decoding session: feature-major, float32, one
        kernel per position (see repro.nn.inference)."""
        return TransformerInferenceSession(self, batch_size)


# --------------------------------------------------------------------------
# The prefix-tree pair's layers: feature-major ``(features, n)``, float32
# --------------------------------------------------------------------------
def _f32(p):
    return np.asarray(p.data, dtype=float32)


def _linear(lin: Linear, h):
    """``W h + b``; returns the output and ``(W, h)`` for the backward."""
    w = _f32(lin.weight)
    return _affine(w, _f32(lin.bias)[:, None], h), (w, h)


def _linear_vjp(lin: Linear, saved, g, bias=True):
    """Add ``g h^T`` (and, with ``bias``, the row sums of ``g``) into the
    layer's gradients; return the input's gradient ``W^T g``."""
    w, h = saved
    lin.weight._accumulate(g @ h.T)
    if bias:
        lin.bias._accumulate(np.sum(g, axis=1))
    return w.T @ g


def _layer_norm(ln: LayerNorm, x):
    """``gamma xhat + beta`` over the feature axis; returns the output and
    ``(xhat, std, gamma)``."""
    xhat, std = _standardize(x, ln.eps)
    xhat /= std
    gamma = _f32(ln.gamma)[:, None]
    out = xhat * gamma
    out += _f32(ln.beta)[:, None]
    return out, (xhat, std, gamma)


def _layer_norm_vjp(ln: LayerNorm, saved, g):
    """Add the gain's and shift's gradients; return the input's gradient
    (``layer_norm``'s backward, transposed)."""
    xhat, std, gamma = saved
    ln.gamma._accumulate(np.einsum("dn,dn->d", g, xhat))
    ln.beta._accumulate(np.sum(g, axis=1))
    scale = 1.0 / len(g)
    gx = g * gamma
    dot = np.einsum("dn,dn->n", gx, xhat)
    gx -= np.sum(gx, axis=0) * scale
    gx -= xhat * (dot * scale)
    gx /= std
    return gx


def _decoder_forward(layer: DecoderLayer, x, layout):
    """One pre-norm decoder block, ``x`` updated in place; returns what
    :func:`_decoder_vjp` needs."""
    h, ln1 = _layer_norm(layer.ln1, x)
    qkv, qkv_in = _linear(layer.attn.qkv, h)
    att, core = tree_attention_forward(qkv, layout, layer.attn.n_heads)
    out, proj = _linear(layer.attn.proj, att)
    x += out
    h, ln2 = _layer_norm(layer.ln2, x)
    a, fc1 = _linear(layer.ff.fc1, h)
    act, t = gelu_forward(a)
    out, fc2 = _linear(layer.ff.fc2, act)
    x += out
    return ln1, qkv_in, core, proj, ln2, fc1, (a, t), fc2


def _decoder_vjp(layer: DecoderLayer, saved, gx, layout) -> None:
    """Backward of :func:`_decoder_forward`: parameter gradients added,
    ``gx`` (the residual stream's gradient) updated in place."""
    ln1, qkv_in, core, proj, ln2, fc1, (a, t), fc2 = saved
    ga = gelu_backward(_linear_vjp(layer.ff.fc2, fc2, gx), a, t)
    gx += _layer_norm_vjp(layer.ln2, ln2, _linear_vjp(layer.ff.fc1, fc1, ga))
    gqkv = tree_attention_vjp(core, _linear_vjp(layer.attn.proj, proj, gx), layout)
    d = len(gx)
    gb = np.sum(gqkv, axis=1)
    gb[d:2 * d] = 0.0         # the key bias: a gauge (prefix_vjp)
    layer.attn.qkv.bias._accumulate(gb)
    gx += _layer_norm_vjp(layer.ln1, ln1,
                          _linear_vjp(layer.attn.qkv, qkv_in, gqkv, bias=False))
