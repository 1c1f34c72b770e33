"""Basic layers: Linear, Embedding, LayerNorm, positional embedding.

Initializations follow the PyTorch defaults the paper's implementation
inherits (Kaiming-uniform linear layers, N(0,1)-scaled embeddings).
Initialization is host-side by contract (the seeded ``host_np`` Generator
defines the parameter bitstream); the resulting Parameters live on the
active array backend via the Tensor constructor.
"""
from __future__ import annotations

import math

from repro.autograd import Tensor, embedding_lookup
from repro.autograd.block_ops import (
    layer_norm,
    layer_norm_forward,
    linear,
    linear_forward,
)
from repro.backend import xp
from repro.backend.dtypes import int64
from repro.backend.host import host_np
from repro.nn.module import Module, Parameter

__all__ = ["Linear", "Embedding", "LayerNorm", "PositionalEmbedding"]


class Linear(Module):
    """Affine map ``y = x W^T + b`` over the last axis."""

    def __init__(self, in_features: int, out_features: int, bias: bool = True,
                 rng: host_np.random.Generator | None = None):
        super().__init__()
        rng = rng or host_np.random.default_rng()
        bound = 1.0 / math.sqrt(in_features)
        self.weight = Parameter(rng.uniform(-bound, bound, size=(out_features, in_features)))
        self.bias = Parameter(rng.uniform(-bound, bound, size=(out_features,))) if bias else None
        self.in_features = in_features
        self.out_features = out_features

    def forward(self, x: Tensor) -> Tensor:
        return linear(x, self.weight, self.bias)

    def step(self, x):
        """Graph-free forward on raw activations (the KV-cached decode path)."""
        bias = None if self.bias is None else self.bias.data
        return linear_forward(x, self.weight.data, bias)


class Embedding(Module):
    """Token embedding table with scatter-add backward."""

    def __init__(self, num_embeddings: int, dim: int,
                 rng: host_np.random.Generator | None = None):
        super().__init__()
        rng = rng or host_np.random.default_rng()
        self.weight = Parameter(rng.normal(0.0, 0.02, size=(num_embeddings, dim)))
        self.num_embeddings = num_embeddings
        self.dim = dim

    def forward(self, idx) -> Tensor:
        return embedding_lookup(self.weight, xp.asarray(idx, dtype=int64))


class PositionalEmbedding(Module):
    """Learned absolute positional embedding (GPT-style, as in QiankunNet)."""

    def __init__(self, max_len: int, dim: int,
                 rng: host_np.random.Generator | None = None):
        super().__init__()
        rng = rng or host_np.random.default_rng()
        self.weight = Parameter(rng.normal(0.0, 0.02, size=(max_len, dim)))
        self.max_len = max_len

    def forward(self, length: int) -> Tensor:
        return self.weight[xp.arange(length)]


class LayerNorm(Module):
    """Layer normalization over the last axis with learned affine."""

    def __init__(self, dim: int, eps: float = 1e-5):
        super().__init__()
        self.gamma = Parameter(xp.ones(dim))
        self.beta = Parameter(xp.zeros(dim))
        self.eps = eps
        self.dim = dim

    def forward(self, x: Tensor) -> Tensor:
        return layer_norm(x, self.gamma, self.beta, self.eps)

    def step(self, x):
        """Graph-free forward on raw activations (the KV-cached decode path)."""
        return layer_norm_forward(x, self.gamma.data, self.beta.data, self.eps)[0]
