"""Finite-difference gradient verification of the tape (``repro.autograd``)."""
from __future__ import annotations

import numpy as np

from repro.autograd.tensor import Tensor

__all__ = ["gradcheck"]


def gradcheck(fn, inputs: list[Tensor], eps: float = 1e-6, tol: float = 1e-5) -> bool:
    """Compare analytic gradients of ``fn(*inputs).sum()`` to central differences.

    ``fn`` must be a function of ``Tensor`` inputs returning a ``Tensor``.
    Raises ``AssertionError`` with the offending input index on mismatch.
    """
    for t in inputs:
        t.requires_grad = True
        t.zero_grad()
    out = fn(*inputs)
    loss = out.sum()
    loss.backward()
    analytic = [t.grad.copy() if t.grad is not None else np.zeros_like(t.data) for t in inputs]

    for i, t in enumerate(inputs):
        flat = t.data.reshape(-1)
        num = np.zeros_like(flat)
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + eps
            plus = fn(*inputs).sum().item()
            flat[j] = orig - eps
            minus = fn(*inputs).sum().item()
            flat[j] = orig
            num[j] = (plus - minus) / (2 * eps)
        num = num.reshape(t.data.shape)
        err = np.max(np.abs(num - analytic[i])) / max(1.0, np.max(np.abs(num)))
        assert err < tol, f"gradcheck failed for input {i}: rel err {err:.3e}"
    return True
