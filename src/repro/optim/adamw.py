"""AdamW optimizer (decoupled weight decay), as used for training QiankunNet.

Sec. 4.1: "We have used the gradient descent optimizer AdamW for training
with the learn rate schedule alpha_i = d_model^-0.5 * min(i^-0.5,
i * S_warmup^-1.5)" — the schedule is :class:`repro.core.engine.NoamAdamW`'s.
"""
from __future__ import annotations

import numpy as np

from repro.backend import xp
from repro.backend.dtypes import float64
from repro.nn.module import Module

__all__ = ["AdamW"]

# Elements per call of the AdamW kernel.  The kernel makes 16 elementwise
# passes over five streams (theta, m, v, gradient, scratch); 32 768 doubles of
# each is 1.25 MiB, which stays L2-resident across the passes, where the whole
# arena (5 x 2.1 MiB on H2) streams from memory 16 times.  Measured on the h2
# preset, median stage-6 update: one call 2.85 ms, 65 536 2.26, 32 768 2.09,
# 16 384 2.18.  A constant: the kernel is elementwise, so any blocking gives
# the same bits.
_BLOCK = 32768


class AdamW:
    """AdamW over the model's parameter arena: flat ``m`` / ``v`` (the
    checkpoint layout) and one in-place kernel, applied block by block to the
    spans of the arena whose parameters have a gradient."""

    def __init__(self, model: Module, lr: float = 1e-3, betas=(0.9, 0.999),
                 eps: float = 1e-8, weight_decay: float = 0.01):
        self.model = model
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self.t = 0
        self._m = None
        self._v = None
        self._scratch = xp.empty(model.num_parameters(), dtype=float64)

    def step(self, grad=None) -> None:
        """One update from ``grad``, a flat M-vector, or (``None``) from the
        gradients the model's parameters carry — those without one are
        skipped, decay included.  The gradient is consumed: its storage comes
        back holding the step that was taken.
        """
        arena = self.model.arena()
        size = arena.theta.size
        if grad is None:
            grad, spans = arena.grad, arena.gather_grads()
        else:
            spans = [(0, size)]
        if self._m is None:
            self._m = xp.zeros(size, dtype=float64)
            self._v = xp.zeros(size, dtype=float64)
        self.t += 1
        bc1 = 1.0 - self.beta1**self.t
        bc2 = 1.0 - self.beta2**self.t
        for a, b in spans:
            for lo in range(a, b, _BLOCK):
                hi = min(lo + _BLOCK, b)
                self._update(arena.theta[lo:hi], self._m[lo:hi], self._v[lo:hi],
                             grad[lo:hi], self._scratch[lo:hi], bc1, bc2)

    def _update(self, theta, m, v, g, s, bc1: float, bc2: float) -> None:
        """The AdamW recurrence, elementwise and in place, one IEEE operation
        per line in the order of its textbook form (kept as the oracle in
        ``tests/test_param_arena.py``) — so any slicing of the arena gives the
        same bits.  ``s`` is scratch; ``g`` is dead once ``v`` is updated and
        becomes the update ``u``."""
        b1, b2 = self.beta1, self.beta2
        m *= b1
        xp.multiply(g, 1 - b1, out=s)
        m += s                            # m = b1 m + (1 - b1) g
        v *= b2
        xp.multiply(g, 1 - b2, out=s)
        s *= g
        v += s                            # v = b2 v + (1 - b2) g g
        u = g
        xp.divide(m, bc1, out=u)
        xp.divide(v, bc2, out=s)
        xp.sqrt(s, out=s)
        s += self.eps
        u /= s                            # u = m_hat / (sqrt(v_hat) + eps)
        # Decoupled weight decay (AdamW): decay applied directly to weights.
        xp.multiply(theta, self.weight_decay, out=s)
        u += s
        u *= self.lr
        theta -= u

    def zero_grad(self) -> None:
        self.model.zero_grad()

    def state(self) -> dict:
        """Step counter and flat moments, under their checkpoint key names."""
        out = {"opt_t": np.array(self.t)}
        if self._m is not None:
            out["opt_m"] = self._m.copy()
            out["opt_v"] = self._v.copy()
        return out

    def load_state(self, data) -> None:
        """Restore :meth:`state`; moments of the wrong size are refused before
        anything is written."""
        m, v = self._m, self._v
        if "opt_m" in data:
            size = self.model.num_parameters()
            m, v = (xp.array(data[key], dtype=float64) for key in ("opt_m", "opt_v"))
            for key, moment in (("opt_m", m), ("opt_v", v)):
                if moment.shape != (size,):
                    raise ValueError(
                        f"{key} has shape {moment.shape}, model size is {size}"
                    )
        self.t = int(data["opt_t"])
        self._m, self._v = m, v
