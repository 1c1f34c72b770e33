"""Reverse-mode autodiff over backend arrays (the PyTorch substitute).

``tensor`` is the tape and the primitive ops; ``block_ops`` the coarse ops the
production forward tapes (imported from there by the nn layers).
"""
from repro.autograd.tensor import (
    Tensor,
    concat,
    embedding_lookup,
    is_grad_enabled,
    no_grad,
    stack,
)
from repro.autograd.gradcheck import gradcheck

__all__ = [
    "Tensor",
    "concat",
    "embedding_lookup",
    "is_grad_enabled",
    "no_grad",
    "stack",
    "gradcheck",
]
