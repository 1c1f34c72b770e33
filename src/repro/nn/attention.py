"""Masked multi-head self-attention and the transformer decoder block (Fig. 2).

The paper's amplitude sub-network is a stack of GPT-style *decoders*: masked
multi-head self-attention followed by a position-wise feed-forward layer, each
wrapped in residual connections with layer normalization.  The causal mask is
what makes the network autoregressive — the conditional for token i only sees
tokens < i — which in turn is what enables batch autoregressive sampling.

``forward`` tapes one block op per layer (``repro.autograd.block_ops``),
row-major and float64: training, pretraining and the dense oracle.  The
KV-cached incremental decode does not run through these modules; it reads
their parameters into its own float32, feature-major kernel
(``repro.nn.inference``), pinned to ``forward`` by the tests.
"""
from __future__ import annotations

from repro.autograd import Tensor
from repro.autograd.block_ops import causal_attention, gelu, nodes_from_rows, rows_from_nodes
from repro.backend.host import host_np
from repro.nn.layers import LayerNorm, Linear
from repro.nn.module import Module

__all__ = ["CausalSelfAttention", "FeedForward", "DecoderLayer"]


class CausalSelfAttention(Module):
    """Multi-head self-attention with a causal (lower-triangular) mask."""

    def __init__(self, d_model: int, n_heads: int,
                 rng: host_np.random.Generator | None = None):
        super().__init__()
        if d_model % n_heads != 0:
            raise ValueError(f"d_model={d_model} not divisible by n_heads={n_heads}")
        self.d_model = d_model
        self.n_heads = n_heads
        self.qkv = Linear(d_model, 3 * d_model, rng=rng)
        self.proj = Linear(d_model, d_model, rng=rng)

    def forward(self, x: Tensor, tree=None) -> Tensor:
        """x: (batch, seq, d_model) -> (batch, seq, d_model); or, with the
        ``(node_at, rep_row, level)`` integers of a prefix ``tree``,
        node-major ``(n, d_model)`` -> ``(n, d_model)``: the projections run
        once per distinct prefix and only the attention core, where a
        position reads its row's earlier ones, works on ``(batch, seq)``."""
        qkv = self.qkv(x)
        if tree is None:
            return self.proj(causal_attention(qkv, self.n_heads))
        node_at, rep_row, level = tree
        att = causal_attention(rows_from_nodes(qkv, node_at, rep_row, level),
                               self.n_heads)
        return self.proj(nodes_from_rows(att, rep_row, level))


class FeedForward(Module):
    """Position-wise feed-forward network (d_model -> 4 d_model -> d_model)."""

    def __init__(self, d_model: int, d_ff: int | None = None,
                 rng: host_np.random.Generator | None = None):
        super().__init__()
        d_ff = d_ff or 4 * d_model
        self.fc1 = Linear(d_model, d_ff, rng=rng)
        self.fc2 = Linear(d_ff, d_model, rng=rng)

    def forward(self, x: Tensor) -> Tensor:
        return self.fc2(gelu(self.fc1(x)))


class DecoderLayer(Module):
    """Pre-norm transformer decoder block: x + MHA(LN(x)), then x + FF(LN(x))."""

    def __init__(self, d_model: int, n_heads: int, d_ff: int | None = None,
                 rng: host_np.random.Generator | None = None):
        super().__init__()
        self.ln1 = LayerNorm(d_model)
        self.attn = CausalSelfAttention(d_model, n_heads, rng=rng)
        self.ln2 = LayerNorm(d_model)
        self.ff = FeedForward(d_model, d_ff, rng=rng)

    def forward(self, x: Tensor, tree=None) -> Tensor:
        x = x + self.attn(self.ln1(x), tree)
        x = x + self.ff(self.ln2(x))
        return x
