"""Masked multi-head self-attention and the transformer decoder block (Fig. 2).

The paper's amplitude sub-network is a stack of GPT-style *decoders*: masked
multi-head self-attention followed by a position-wise feed-forward layer, each
wrapped in residual connections with layer normalization.  The causal mask is
what makes the network autoregressive — the conditional for token i only sees
tokens < i — which in turn is what enables batch autoregressive sampling.

The modules hold parameters; two float32, feature-major kernels read them —
the KV-cached decode (``repro.nn.inference``) and stage 5's forward/VJP pair
over the prefix tree (``TransformerAmplitude.prefix_forward``), whose
attention core is :func:`tree_attention_forward` / :func:`tree_attention_vjp`
below.  The tests pin both to the dense float64 forward of the oracle
(``repro.autograd.oracle``), which tapes one block op per layer.
"""
from __future__ import annotations

import math

import numpy as np

from repro.dtypes import float32
from repro.nn.inference import attention_weights
from repro.nn.kernels import MASK_VALUE
from repro.nn.layers import LayerNorm, Linear
from repro.nn.module import Module

__all__ = ["CausalSelfAttention", "FeedForward", "DecoderLayer", "ancestor_layout",
           "tree_attention_forward", "tree_attention_vjp"]


class CausalSelfAttention(Module):
    """Multi-head self-attention with a causal (lower-triangular) mask."""

    def __init__(self, d_model: int, n_heads: int,
                 rng: np.random.Generator | None = None):
        super().__init__()
        if d_model % n_heads != 0:
            raise ValueError(f"d_model={d_model} not divisible by n_heads={n_heads}")
        self.d_model = d_model
        self.n_heads = n_heads
        self.qkv = Linear(d_model, 3 * d_model, rng=rng)
        self.proj = Linear(d_model, d_model, rng=rng)


class FeedForward(Module):
    """Position-wise feed-forward network (d_model -> 4 d_model -> d_model)."""

    def __init__(self, d_model: int, d_ff: int | None = None,
                 rng: np.random.Generator | None = None):
        super().__init__()
        d_ff = d_ff or 4 * d_model
        self.fc1 = Linear(d_model, d_ff, rng=rng)
        self.fc2 = Linear(d_ff, d_model, rng=rng)


class DecoderLayer(Module):
    """Pre-norm transformer decoder block: x + MHA(LN(x)), then x + FF(LN(x))."""

    def __init__(self, d_model: int, n_heads: int, d_ff: int | None = None,
                 rng: np.random.Generator | None = None):
        super().__init__()
        self.ln1 = LayerNorm(d_model)
        self.attn = CausalSelfAttention(d_model, n_heads, rng=rng)
        self.ln2 = LayerNorm(d_model)
        self.ff = FeedForward(d_model, d_ff, rng=rng)


# --------------------------------------------------------------------------
# Attention over a prefix tree: graph-free, feature-major, float32
# --------------------------------------------------------------------------
def ancestor_layout(rep_row, level):
    """The integers :func:`tree_attention_forward` reads its keys by.

    ``rep_row`` / ``level``: the ``n`` nodes of a prefix tree of lexsorted
    rows, level-major (``core.wavefunction.prefix_tree``), every node's
    parent among them.  Under a causal decoder a node at level ``L`` attends
    to its ``L + 1`` ancestors (itself the last).  Ordered depth-first
    (``pre``: by representative row, then level; ``inv`` its inverse), a
    node's subtree is contiguous, so in the flattened ``(depth, n)`` layout
    whose column ``j`` is node ``pre[j]``, level ``t``'s ancestors form one
    run per level-``t`` node: run ``a`` starts at ``starts[a] = level[a] n +
    inv[a]`` (increasing in the level-major order) and is ``runs[a]`` long.
    The forward is one ``repeat`` by ``runs``, its adjoint one
    ``add.reduceat`` at ``starts``.  Entries past a node's own level fall in
    some run; ``mask`` (``(depth, 1, n)``, 0 or ``MASK_VALUE``) removes them.
    """
    n = len(level)
    depth = int(level.max()) + 1
    pre = np.lexsort((level, rep_row))
    inv = np.empty_like(pre)
    inv[pre] = np.arange(n)
    starts = level * n + inv
    runs = np.diff(starts, append=depth * n)
    positions = np.arange(depth)[:, None, None]
    mask = np.where(positions > level[pre], MASK_VALUE, 0.0).astype(float32)
    return pre, inv, starts, runs, mask


def tree_attention_forward(qkv, layout, n_heads: int):
    """Causal self-attention of the prefix tree's nodes on their ancestors.

    ``qkv``: ``(3 d, n)`` fused float32 projections, node-major in the
    level-major order; ``layout``: :func:`ancestor_layout`.  Returns the
    ``(d, n)`` head outputs (before the output projection) and what
    :func:`tree_attention_vjp` needs.  Every node's query reads exactly the
    keys and values the dense causal core would give its rows at its
    position; scores and softmax run over the position axis
    (``attention_weights``, the decode's formula), rows last.
    """
    pre, inv, _, runs, mask = layout
    d3, n = qkv.shape
    heads = qkv.reshape(3, n_heads, d3 // (3 * n_heads), n)
    q = np.take(heads[0], pre, axis=-1)
    kv = np.repeat(heads[1:], runs, axis=-1).reshape(heads[1:].shape[:-1] + (len(mask), n))
    k, v = (np.moveaxis(a, 2, 0) for a in kv)                # (depth, h, dh, n)
    p = attention_weights(q, k, mask)
    out = np.einsum("thn,thdn->hdn", p, v).reshape(d3 // 3, n)
    return np.take(out, inv, axis=1), (q, kv, p)


def tree_attention_vjp(saved, g, layout):
    """The ``(3 d, n)`` gradient of the fused projections from the ``(d,
    n)`` gradient ``g`` of :func:`tree_attention_forward`'s output.

    The ancestors' key and value gradients are summed back onto their nodes
    by one ``add.reduceat`` over the ``(depth, n)`` runs; masked entries hold
    exact zeros and add nothing.
    """
    pre, inv, starts, _, _ = layout
    q, kv, p = saved
    n_heads, dh, n = q.shape
    k, v = (np.moveaxis(a, 2, 0) for a in kv)
    go = np.take(g, pre, axis=1).reshape(q.shape)
    g_ancestors = np.empty_like(kv)
    gk, gv = (np.moveaxis(a, 2, 0) for a in g_ancestors)
    gp = np.einsum("hdn,thdn->thn", go, v)
    np.einsum("thn,hdn->thdn", p, go, out=gv)
    gp -= np.einsum("thn,thn->hn", gp, p)
    gp *= p                 # softmax backward; exactly 0 at masked positions
    gp *= 1.0 / math.sqrt(dh)
    gq = np.einsum("thn,thdn->hdn", gp, k).reshape(n_heads * dh, n)
    np.einsum("thn,hdn->thdn", gp, q, out=gk)
    gkv = np.add.reduceat(g_ancestors.reshape(2 * n_heads * dh, -1), starts, axis=1)
    return np.concatenate([np.take(gq, inv, axis=1), gkv])
