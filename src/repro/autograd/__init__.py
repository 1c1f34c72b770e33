"""Reverse-mode autodiff over numpy arrays (the PyTorch substitute).

``tensor`` is the tape and the primitive ops; ``oracle`` the taped float64
QiankunNet built from coarse block ops, the oracle of the production
kernels (tests and benchmarks only).
"""
from repro.autograd.tensor import Tensor, concat, embedding_lookup, stack

__all__ = ["Tensor", "concat", "embedding_lookup", "stack"]
