"""Supervised warm start: bias the amplitude network toward a reference state.

The paper starts VMC from random parameters with a reduced sample budget
("pre-training stage", Sec. 4.1).  In the small iteration budgets of this
reproduction, an optional explicit warm start to the Hartree-Fock determinant
(maximize log pi(x_HF) for a few steps) shortens the random-search phase
without changing the variational optimum; all benches report whether it was
used.
"""
from __future__ import annotations

import numpy as np

from repro.core.wavefunction import NNQSWavefunction
from repro.optim import AdamW

__all__ = ["pretrain_to_reference"]


def pretrain_to_reference(wf: NNQSWavefunction, bits: np.ndarray,
                          n_steps: int = 200, lr: float = 1e-2,
                          target_prob: float = 0.5) -> float:
    """Maximize log pi(reference) until it exceeds log(target_prob).

    Returns the final pi(reference).  Phase parameters are untouched (no
    gradient reaches them, so AdamW skips them).  Each step's gradient of
    ``-sum log pi`` is ``wf.log_prob_vjp``'s, stage 5's amplitude half.
    """
    bits = np.atleast_2d(bits)
    opt = AdamW(wf, lr=lr, weight_decay=0.0)
    logp_val = -np.inf
    for _ in range(n_steps):
        opt.zero_grad()
        logp_val = float(wf.log_prob_vjp(bits, -np.ones(len(bits))).sum())
        opt.step()
        if logp_val > np.log(target_prob):
            break
    return float(np.exp(logp_val))
