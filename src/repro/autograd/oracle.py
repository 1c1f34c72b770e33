"""The taped float64 QiankunNet: the oracle of every production kernel.

For testing purposes only: the slow, obviously-correct forward the float32
kernels of ``repro.nn`` are checked against — row-major, every row through
every layer at every position, differentiated by tape.  Parameters go on the
tape as :class:`Leaf` objects, whose gradient ``Parameter._accumulate`` takes,
so a backward fills the arena's gradient views as the VJPs do; a ``Tensor``
of plain data is a constant.

The forward is made of *block ops* (DESIGN.md, "Block ops"): one tape node
per Linear / LayerNorm / attention / GELU / log-softmax head, a float64
computation plus a closed-form backward saving only what it needs.  GELU
and the log-prob head are the oracle's own arithmetic, not those of
``repro.nn.kernels``, so a fault there shows in the precision audit; the
mask value and ``last_axis_sum`` / ``last_axis_max`` are borrowed.
"""
from __future__ import annotations

import math

import numpy as np

from repro.autograd.tensor import Tensor, embedding_lookup
from repro.dtypes import bool_, float64, int64
from repro.nn import (
    CausalSelfAttention,
    DecoderLayer,
    Embedding,
    FeedForward,
    LayerNorm,
    Linear,
    PhaseMLP,
    PositionalEmbedding,
    TransformerAmplitude,
)
from repro.nn.kernels import MASK_VALUE, last_axis_max, last_axis_sum

__all__ = ["last_axis_dot", "split_heads", "attention_forward", "linear", "layer_norm",
           "gelu", "causal_attention", "picked_log_softmax", "Leaf", "forward",
           "conditional_logits", "padded_next_logits", "log_prob",
           "conditional_probs_reference"]

_GELU_C = math.sqrt(2.0 / math.pi)


def last_axis_dot(a, b):
    """``sum(a * b, axis=-1, keepdims=True)`` without the product array."""
    return np.einsum("...i,...i->...", a, b)[..., None]


def _column_sums(rows):
    """``sum(rows, axis=0)`` of a 2-D array as one GEMV against ones."""
    return np.ones(len(rows)) @ rows


# --------------------------------------------------------------------------
# Causal attention: graph-free float64 math on raw numpy arrays
# --------------------------------------------------------------------------
def split_heads(qkv, n_heads: int):
    """``(b, t, 3 d)`` fused projection -> ``q, k, v`` views ``(b, h, t, d/h)``."""
    b, t, d3 = qkv.shape
    heads = np.transpose(
        qkv.reshape(b, t, 3, n_heads, d3 // (3 * n_heads)), (2, 0, 3, 1, 4)
    )
    return heads[0], heads[1], heads[2]


def attention_forward(q, k, v):
    """Causal scaled-dot-product attention; returns ``(out, att)``.

    ``q``/``k``/``v``: ``(b, h, t, dh)``, query ``i`` seeing keys ``<= i``.
    (The KV-cached decode has its own float32 kernel for one query against
    the cache, ``repro.nn.inference.cached_attention``.)
    """
    t = q.shape[-2]
    att = q @ np.swapaxes(k, -1, -2)
    att *= 1.0 / math.sqrt(q.shape[-1])
    if t > 1:
        att[..., np.triu(np.ones((t, t), dtype=bool_), k=1)] = MASK_VALUE
    att -= last_axis_max(att)
    np.exp(att, out=att)
    att /= last_axis_sum(att)
    return att @ v, att


# --------------------------------------------------------------------------
# Taped ops: one node each, closed-form backward
# --------------------------------------------------------------------------
def linear(x: Tensor, w: Tensor, b: Tensor | None = None) -> Tensor:
    """Affine map ``x W^T + b`` over the last axis: one flattened GEMM
    forward, one per gradient back."""
    xd, wd = x.data, w.data
    out = xd.reshape(-1, xd.shape[-1]) @ wd.T
    if b is not None:
        out += b.data
    out = out.reshape(xd.shape[:-1] + (wd.shape[0],))

    def backward(g):
        g2 = g.reshape(-1, wd.shape[0])
        gx = (g2 @ wd).reshape(xd.shape) if x.requires_grad else None
        gw = g2.T @ xd.reshape(-1, wd.shape[1])
        gb = None if b is None else _column_sums(g2)
        return gx, gw, gb

    return Tensor._make(out, (x, w, b), backward)  # _make drops a None bias


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float) -> Tensor:
    """LayerNorm over the last axis; saves the normalized input and 1/std."""
    xd, gd = x.data, gamma.data
    scale = 1.0 / xd.shape[-1]
    xhat = xd - last_axis_sum(xd) * scale
    inv = 1.0 / np.sqrt(last_axis_dot(xhat, xhat) * scale + eps)
    xhat *= inv
    out = xhat * gd
    out += beta.data

    def backward(g):
        rows = g.reshape(-1, g.shape[-1])
        ggamma = np.einsum("ij,ij->j", rows, xhat.reshape(rows.shape))
        gbeta = _column_sums(rows)
        if not x.requires_grad:
            return None, ggamma, gbeta
        gxhat = g * gd
        gx = gxhat - last_axis_sum(gxhat) * scale
        gx -= xhat * (last_axis_dot(gxhat, xhat) * scale)
        gx *= inv
        return gx, ggamma, gbeta

    return Tensor._make(out, (x, gamma, beta), backward)


def gelu(x: Tensor) -> Tensor:
    """tanh-approximation GELU ``a/2 (1 + tanh(c (a + 0.044715 a^3)))``,
    its derivative written out in float64 (the production pair is
    ``repro.nn.kernels.gelu_forward`` / ``gelu_backward``)."""
    a = x.data
    t = np.tanh(_GELU_C * (a + 0.044715 * (a * a * a)))
    du = _GELU_C * (1.0 + 3.0 * 0.044715 * (a * a))

    def backward(g):
        return (g * (0.5 * (1.0 + t) + 0.5 * a * (1.0 - t * t) * du),)

    return Tensor._make(0.5 * a * (1.0 + t), (x,), backward)


def causal_attention(qkv: Tensor, n_heads: int) -> Tensor:
    """Multi-head causal self-attention on a fused ``(b, t, 3 d)`` projection.

    Returns the merged ``(b, t, d)`` head outputs (before the output
    projection).  Saves ``q``, ``k``, ``v`` (views of ``qkv``) and the softmax
    matrix only.
    """
    q, k, v = split_heads(qkv.data, n_heads)
    out, att = attention_forward(q, k, v)
    b, h, t, dh = q.shape

    def backward(g):
        g = np.transpose(g.reshape(b, t, h, dh), (0, 2, 1, 3))  # (b, h, t, dh)
        gqkv = np.empty((3, b, h, t, dh))
        np.matmul(np.swapaxes(att, -1, -2), g, out=gqkv[2])        # gv
        gs = g @ np.swapaxes(v, -1, -2)                            # d att
        gs -= last_axis_dot(gs, att)
        gs *= att               # softmax backward; exactly 0 at masked entries
        gs *= 1.0 / math.sqrt(dh)
        np.matmul(gs, k, out=gqkv[0])                              # gq
        np.matmul(np.swapaxes(gs, -1, -2), q, out=gqkv[1])         # gk
        return (np.transpose(gqkv, (1, 3, 0, 2, 4)).reshape(b, t, 3 * h * dh),)

    merged = np.transpose(out, (0, 2, 1, 3)).reshape(b, t, h * dh)
    return Tensor._make(merged, (qkv,), backward)


def picked_log_softmax(logits: Tensor, allowed, tokens) -> Tensor:
    """``(b,)`` ``sum_k log softmax(masked logits)[k, tokens[:, k]]`` of dense
    ``(b, t, vocab)`` conditionals as one tape node, in the oracle's own
    float64 arithmetic (the production head is
    ``repro.nn.kernels.picked_log_softmax_forward`` / ``_backward``).

    ``allowed``: bool mask of permitted tokens in the shape of ``logits``
    (``None`` = unconstrained).  The logits' gradient is ``g (onehot -
    softmax)``, zero at every masked entry — a picked masked token included,
    as ``masked_fill`` would have it.
    """
    z = logits.data if allowed is None else np.where(allowed, logits.data, MASK_VALUE)
    z = z - np.max(z, axis=-1, keepdims=True)
    z = z - np.log(np.sum(np.exp(z), axis=-1, keepdims=True))
    onehot = np.asarray(tokens)[..., None] == np.arange(z.shape[-1])
    out = np.sum(np.where(onehot, z, 0.0), axis=(1, 2))

    def backward(g):
        gl = (onehot - np.exp(z)) * g[:, None, None]
        if allowed is not None:
            gl[~allowed] = 0.0
        return (gl,)

    return Tensor._make(out, (logits,), backward)


# --------------------------------------------------------------------------
# The QiankunNet modules on the tape
# --------------------------------------------------------------------------
class Leaf(Tensor):
    """A parameter on the tape: its data is the parameter's own array, and a
    ``backward`` through it adds into ``param.grad`` through
    ``Parameter._accumulate`` (in place into a bound arena view)."""

    __slots__ = ("param",)

    def __init__(self, param):
        super().__init__(param.data, requires_grad=True, name=param.name)
        self.param = param

    def _accumulate(self, grad) -> None:
        self.param._accumulate(grad)


def _linear(lin, x):
    return linear(x, Leaf(lin.weight), None if lin.bias is None else Leaf(lin.bias))


def _embedding(emb, idx):
    return embedding_lookup(Leaf(emb.weight), np.asarray(idx, dtype=int64))


def _positional(pos, length: int):
    return Leaf(pos.weight)[np.arange(length)]


def _layer_norm(ln, x):
    return layer_norm(x, Leaf(ln.gamma), Leaf(ln.beta), ln.eps)


def _attention(attn, x):
    """``(batch, seq, d_model)`` -> ``(batch, seq, d_model)``."""
    return _linear(attn.proj, causal_attention(_linear(attn.qkv, x), attn.n_heads))


def _feed_forward(ff, x):
    return _linear(ff.fc2, gelu(_linear(ff.fc1, x)))


def _decoder_layer(layer, x):
    """Pre-norm: ``x + MHA(LN(x))``, then ``x + FF(LN(x))``."""
    x = x + _attention(layer.attn, _layer_norm(layer.ln1, x))
    return x + _feed_forward(layer.ff, _layer_norm(layer.ln2, x))


def _phase(mlp, bits):
    """``(batch, N)`` 0/1 bits -> ``(batch,)`` phase in radians."""
    bits = np.asarray(bits, dtype=float64)
    if bits.ndim == 1:
        bits = bits[None, :]
    x = Tensor(2.0 * bits - 1.0)
    for layer in mlp.layers[:-1]:
        x = _linear(layer, x).tanh()
    out = _linear(mlp.layers[-1], x)
    return out.reshape(out.shape[0])


_FORWARD = {
    Linear: _linear,
    Embedding: _embedding,
    PositionalEmbedding: _positional,
    LayerNorm: _layer_norm,
    CausalSelfAttention: _attention,
    FeedForward: _feed_forward,
    DecoderLayer: _decoder_layer,
    PhaseMLP: _phase,
}


def forward(module, *args) -> Tensor:
    """The taped float64 forward of one ``repro.nn`` module (``Linear``,
    ``Embedding``, ``PositionalEmbedding``, ``LayerNorm``,
    ``CausalSelfAttention``, ``FeedForward``, ``DecoderLayer``,
    ``PhaseMLP``), its parameters on the tape."""
    return _FORWARD[type(module)](module, *args)


def conditional_logits(amp, tokens) -> Tensor:
    """``(batch, t <= T)`` int tokens -> ``(batch, t, vocab)`` logits, causally
    masked: position ``i`` depends only on tokens ``< i``, so right-padding
    beyond a known prefix leaves earlier conditionals alone.

    The transformer's dense forward; an amplitude network of another kind
    brings its own taped forward, ``amp.conditional_logits(tokens)`` (the
    foils of ``benchmarks/baseline_ansatze.py``).
    """
    if not isinstance(amp, TransformerAmplitude):
        return amp.conditional_logits(tokens)
    tokens = np.asarray(tokens, dtype=int64)
    if tokens.ndim == 1:
        tokens = tokens[None, :]
    b, t = tokens.shape
    # Shift right: position i attends to [BOS, x_1, ..., x_{i-1}].
    shifted = np.concatenate(
        [np.full((b, 1), amp.bos, dtype=int64), tokens[:, : t - 1]], axis=1
    )
    x = _embedding(amp.tok_emb, shifted) + _positional(amp.pos_emb, t)
    for layer in amp.layers:
        x = _decoder_layer(layer, x)
    return _linear(amp.head, _layer_norm(amp.ln_f, x))


def padded_next_logits(amp, prefix_tokens):
    """Next-position float64 logits of a ``(b, k)`` prefix, via
    :func:`conditional_logits` over the prefix right-padded to ``k + 1`` —
    the oracle of a decode step."""
    prefix_tokens = np.asarray(prefix_tokens, dtype=int64)
    b, k = prefix_tokens.shape
    padded = np.zeros((b, k + 1), dtype=int64)
    padded[:, :k] = prefix_tokens
    return conditional_logits(amp, padded).data[:, k, :]


def log_prob(wf, bits) -> Tensor:
    """``(B,)`` log pi(x) = log |Psi(x)|^2 on the tape — the oracle of
    ``wf.log_prob_vjp``, of the sweep's and of the walk's log pi."""
    tokens = wf.bits_to_tokens(bits)
    allowed = None if wf.constraint is None else wf.constraint.mask_sequence(tokens)
    return picked_log_softmax(conditional_logits(wf.amplitude, tokens), allowed, tokens)


def conditional_probs_reference(wf, prefix_tokens, counts_up, counts_dn):
    """``(B, vocab)`` masked, renormalized pi(x_k | prefix) through the dense
    forward — the oracle of ``wf.conditional_probs``."""
    logits = padded_next_logits(wf.amplitude, prefix_tokens)
    return wf.probs_from_logits(logits, counts_up, counts_dn, prefix_tokens.shape[1])
