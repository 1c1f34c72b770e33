"""Basic layers: Linear, Embedding, LayerNorm, positional embedding.

Initializations follow the PyTorch defaults the paper's implementation
inherits (Kaiming-uniform linear layers, N(0,1)-scaled embeddings).
A seeded numpy Generator defines the parameter bitstream (``Parameter``
converts with ``np.asarray``).

The layers hold parameters only: the float32 kernels that read them are the
decode's and stage 5's (``repro.nn.inference``, ``repro.nn.transformer``),
their taped float64 forward is the oracle's (``repro.autograd.oracle``).
"""
from __future__ import annotations

import math

import numpy as np

from repro.nn.module import Module, Parameter

__all__ = ["Linear", "Embedding", "LayerNorm", "PositionalEmbedding"]


class Linear(Module):
    """Affine map ``y = x W^T + b`` over the last axis."""

    def __init__(self, in_features: int, out_features: int, bias: bool = True,
                 rng: np.random.Generator | None = None):
        super().__init__()
        rng = rng or np.random.default_rng()
        bound = 1.0 / math.sqrt(in_features)
        self.weight = Parameter(rng.uniform(-bound, bound, size=(out_features, in_features)))
        self.bias = Parameter(rng.uniform(-bound, bound, size=(out_features,))) if bias else None
        self.in_features = in_features
        self.out_features = out_features


class Embedding(Module):
    """Token embedding table."""

    def __init__(self, num_embeddings: int, dim: int,
                 rng: np.random.Generator | None = None):
        super().__init__()
        rng = rng or np.random.default_rng()
        self.weight = Parameter(rng.normal(0.0, 0.02, size=(num_embeddings, dim)))
        self.num_embeddings = num_embeddings
        self.dim = dim


class PositionalEmbedding(Module):
    """Learned absolute positional embedding (GPT-style, as in QiankunNet)."""

    def __init__(self, max_len: int, dim: int,
                 rng: np.random.Generator | None = None):
        super().__init__()
        rng = rng or np.random.default_rng()
        self.weight = Parameter(rng.normal(0.0, 0.02, size=(max_len, dim)))
        self.max_len = max_len


class LayerNorm(Module):
    """Layer normalization over the last axis with learned affine."""

    def __init__(self, dim: int, eps: float = 1e-5):
        super().__init__()
        self.gamma = Parameter(np.ones(dim))
        self.beta = Parameter(np.zeros(dim))
        self.eps = eps
        self.dim = dim
