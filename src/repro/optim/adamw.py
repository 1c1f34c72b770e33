"""AdamW optimizer (decoupled weight decay), as used for training QiankunNet.

Sec. 4.1: "We have used the gradient descent optimizer AdamW for training
with the learn rate schedule alpha_i = d_model^-0.5 * min(i^-0.5,
i * S_warmup^-1.5)" — the schedule is :class:`repro.core.engine.NoamAdamW`'s.
"""
from __future__ import annotations

import numpy as np

from repro.dtypes import float64
from repro.nn.module import Module

__all__ = ["AdamW"]

# Elements per call of the AdamW kernel.  The kernel makes 13 elementwise
# passes over four streams (theta, m, v, gradient); 32 768 doubles of each is
# 1 MiB, which stays L2-resident across the passes, where the whole arena
# (4 x 2.1 MiB on H2 at the paper's 512-wide phase MLP) streams from memory
# 13 times.  Measured on an arena of the h2 preset's size at that width
# (272 517; 74 117 at the default 256), median step: one call 1.30 ms,
# 65 536 1.01, 32 768 1.03, 16 384 1.05.  A constant: the kernel is elementwise, so any
# blocking gives the same bits.
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

    def step(self, grad=None) -> None:
        """One update from ``grad``, a flat M-vector, or (``None``) from the
        gradients the model's parameters carry — those without one are
        skipped, decay included.  The gradient is consumed: its storage comes
        back holding ``alpha_t m / (sqrt(v) + eps_hat)``, the Adam part of the
        step without the decay.
        """
        arena = self.model.arena()
        size = arena.theta.size
        if grad is None:
            grad, spans = arena.grad, arena.gather_grads()
        else:
            spans = [(0, size)]
        if self._m is None:
            self._m = np.zeros(size, dtype=float64)
            self._v = np.zeros(size, dtype=float64)
        self.t += 1
        root_bc2 = (1.0 - self.beta2**self.t) ** 0.5
        alpha = self.lr * root_bc2 / (1.0 - self.beta1**self.t)
        eps_hat = self.eps * root_bc2
        decay = 1.0 - self.lr * self.weight_decay
        for a, b in spans:
            for lo in range(a, b, _BLOCK):
                hi = min(lo + _BLOCK, b)
                self._update(arena.theta[lo:hi], self._m[lo:hi], self._v[lo:hi],
                             grad[lo:hi], alpha, eps_hat, decay)

    def _update(self, theta, m, v, g, alpha: float, eps_hat: float,
                decay: float) -> None:
        """AdamW in Kingma & Ba's efficient ordering (Adam, ICLR 2015, end of
        Sec. 2), elementwise and in place: 13 passes, one sqrt, one divide,
        ``g`` the only temporary; the bias corrections are in ``alpha = lr
        sqrt(bc2) / bc1`` and ``eps_hat = eps sqrt(bc2)``, the decoupled decay
        in ``decay = 1 - lr wd``.  Against the textbook form (the oracle in
        ``tests/test_param_arena.py``) m is bit-equal, v and theta equal to
        rounding; any slicing of the arena gives the same bits."""
        b1, b2 = self.beta1, self.beta2
        g *= 1 - b1
        m *= b1
        m += g                            # m = b1 m + (1 - b1) g
        g *= g
        g *= (1 - b2) / (1 - b1) ** 2
        v *= b2
        v += g                            # v = b2 v + (1 - b2) g g
        np.sqrt(v, out=g)
        g += eps_hat
        np.divide(m, g, out=g)
        g *= alpha                        # g = alpha m / (sqrt(v) + eps_hat)
        theta *= decay                    # decoupled weight decay (AdamW)
        theta -= g

    def zero_grad(self) -> None:
        self.model.zero_grad()

    def state_views(self) -> dict:
        """Step counter and flat moments, under their checkpoint key names;
        ``opt_m`` / ``opt_v`` are the live moments, not copies (the next step
        overwrites them): what a checkpoint writer reads in place."""
        out = {"opt_t": np.array(self.t)}
        if self._m is not None:
            out["opt_m"], out["opt_v"] = self._m, self._v
        return out

    def state(self) -> dict:
        """:meth:`state_views`, every array copied."""
        return {key: value.copy() for key, value in self.state_views().items()}

    def load_state(self, data) -> None:
        """Restore :meth:`state`; moments of the wrong size are refused before
        anything is written, absent ones (a pre-first-step state) reset.

        The optimizer adopts the moments it is handed when they are already
        writable, C-contiguous float64 arrays (a checkpoint's freshly read
        ``opt_m`` / ``opt_v``): the next step updates them in place, so the
        caller hands them over.  Anything else is copied."""
        m = v = None
        if "opt_m" in data:
            size = self.model.num_parameters()
            m, v = (_adopted(data[key]) for key in ("opt_m", "opt_v"))
            for key, moment in (("opt_m", m), ("opt_v", v)):
                if moment.shape != (size,):
                    raise ValueError(
                        f"{key} has shape {moment.shape}, model size is {size}"
                    )
        self.t = int(data["opt_t"])
        self._m, self._v = m, v


def _adopted(moment):
    """``moment`` itself when the kernel can update it in place, else a
    float64 copy."""
    moment = np.asarray(moment, dtype=float64)
    if moment.flags.c_contiguous and moment.flags.writeable:
        return moment
    return np.array(moment)
