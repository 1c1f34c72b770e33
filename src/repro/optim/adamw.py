"""AdamW optimizer (decoupled weight decay), as used for training QiankunNet.

Sec. 4.1: "We have used the gradient descent optimizer AdamW for training
with the learn rate schedule alpha_i = d_model^-0.5 * min(i^-0.5,
i * S_warmup^-1.5)" — the schedule lives in :mod:`repro.optim.schedule`.
"""
from __future__ import annotations

import numpy as np

from repro.nn.module import Module

__all__ = ["AdamW", "SGD"]


class AdamW:
    def __init__(self, model: Module, lr: float = 1e-3, betas=(0.9, 0.999),
                 eps: float = 1e-8, weight_decay: float = 0.01):
        self.model = model
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self.t = 0
        self._m: list[np.ndarray] | None = None
        self._v: list[np.ndarray] | None = None

    def step(self) -> None:
        params = list(self.model.parameters())
        if self._m is None:
            self._m = [np.zeros_like(p.data) for p in params]
            self._v = [np.zeros_like(p.data) for p in params]
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        bc1 = 1.0 - b1**self.t
        bc2 = 1.0 - b2**self.t
        for p, m, v in zip(params, self._m, self._v):
            g = p.grad
            if g is None:
                continue
            m *= b1
            m += (1 - b1) * g
            v *= b2
            v += (1 - b2) * g * g
            update = (m / bc1) / (np.sqrt(v / bc2) + self.eps)
            # Decoupled weight decay (AdamW): decay applied directly to weights.
            p.data -= self.lr * (update + self.weight_decay * p.data)

    def zero_grad(self) -> None:
        self.model.zero_grad()

    def state(self) -> dict[str, np.ndarray]:
        """Step counter and flat moments, under their checkpoint key names."""
        out = {"opt_t": np.array(self.t)}
        if self._m is not None:
            out["opt_m"] = np.concatenate([m.reshape(-1) for m in self._m])
            out["opt_v"] = np.concatenate([v.reshape(-1) for v in self._v])
        return out

    def load_state(self, data) -> None:
        self.t = int(data["opt_t"])
        if "opt_m" in data:
            self._m, self._v = [], []
            off = 0
            for p in self.model.parameters():
                self._m.append(data["opt_m"][off : off + p.size].reshape(p.shape).copy())
                self._v.append(data["opt_v"][off : off + p.size].reshape(p.shape).copy())
                off += p.size


class SGD:
    """Plain (optionally momentum) SGD — used in tests and ablations."""

    def __init__(self, model: Module, lr: float = 1e-2, momentum: float = 0.0):
        self.model = model
        self.lr = lr
        self.momentum = momentum
        self._buf: list[np.ndarray] | None = None

    def step(self) -> None:
        params = list(self.model.parameters())
        if self._buf is None:
            self._buf = [np.zeros_like(p.data) for p in params]
        for p, buf in zip(params, self._buf):
            if p.grad is None:
                continue
            buf *= self.momentum
            buf += p.grad
            p.data -= self.lr * buf

    def zero_grad(self) -> None:
        self.model.zero_grad()
