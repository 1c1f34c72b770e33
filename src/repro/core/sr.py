"""Stochastic reconfiguration (SR) — the optimizer the paper engineers around.

Sec. 1 of the paper: conventional NNQS needs "the stochastic reconfiguration
(SR) technique for stable convergence to the global minimum, for which one
needs to (approximately) compute the inverse of the M x M SR matrix for a
neural network with M parameters, thus greatly prohibiting the usage of very
deep neural networks as well as the scalability to a large number of
processes".  This module implements SR so that claim can be *measured*
(``benchmarks/bench_ablations.py``): per-iteration cost and convergence are
compared against the AdamW + autoregressive-sampling path the paper uses.
SR is a preconditioner of the same force — Eq. 7's gradient is ``2 F`` — so
it runs inside the same staged iteration (``optimizer.name=sr``), single
rank only: ``S`` needs the whole batch.

For a wave function Psi_theta with real parameters theta, the log-derivative
operators are ``O_k(x) = d ln Psi*_theta(x) / d theta_k`` (here
``1/2 d log pi - i d phi``), and one SR step solves

    (S + lambda I) delta = -lr * F,
    S_kk' = Re( <O_k* O_k'> - <O_k*><O_k'> ),
    F_k   = Re( <(E_loc - <E>) O_k*> ),

with expectations over the sampled distribution.  The dense M x M solve (and
the per-sample Jacobian it needs) is exactly the bottleneck the paper points
at; we guard with ``max_params`` instead of hiding it.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.sampler import SampleBatch
from repro.core.wavefunction import NNQSWavefunction

__all__ = ["SRConfig", "SRStepInfo", "StochasticReconfiguration", "per_sample_jacobians"]


def per_sample_jacobians(
    wf: NNQSWavefunction, bits: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Rows ``J_logp[b] = d log pi(x_b)/d theta`` and ``J_phi[b] = d phi(x_b)/d theta``.

    One backward pass per sample and head — O(B * M) memory, O(B * cost)
    time.  This is the scaling wall SR imposes; documented, not optimized.
    """
    bits = np.atleast_2d(bits)
    m = wf.num_parameters()
    j_logp = np.zeros((len(bits), m))
    j_phi = np.zeros((len(bits), m))
    for b in range(len(bits)):
        wf.zero_grad()
        wf.log_prob(bits[b : b + 1]).sum().backward()
        j_logp[b] = wf.get_flat_grads()
        wf.zero_grad()
        wf.phase_of(bits[b : b + 1]).sum().backward()
        j_phi[b] = wf.get_flat_grads()
    wf.zero_grad()
    return j_logp, j_phi


@dataclass
class SRConfig:
    lr: float = 0.05
    diag_shift: float = 0.01   # relative Tikhonov shift (units of the top eigenvalue)
    rcond: float = 1e-10       # singular-value cutoff relative to the largest
    max_params: int = 20_000   # refuse the dense solve beyond this M


@dataclass
class SRStepInfo:
    energy: float
    grad_norm: float
    update_norm: float
    s_condition: float


class StochasticReconfiguration:
    """SR optimizer over an :class:`NNQSWavefunction`.

    A run drives it like any optimizer (``VMC(optimizer=sr)``,
    ``optimizer.name=sr``): stage 5 calls :meth:`direction`, stage 6
    :meth:`apply`.  By hand: sample a batch, compute local energies, then
    ``sr.step(batch, eloc)`` — the same two calls.  SR is stateless between
    iterations, so its checkpoint state is empty.
    """

    single_rank_reason = (
        "the SR matrix S couples every pair of samples, so the solve needs "
        "the whole batch on one rank"
    )

    def __init__(self, wf: NNQSWavefunction, config: SRConfig | None = None):
        self.wf = wf
        self.config = config or SRConfig()
        self.last_info: SRStepInfo | None = None
        m = wf.num_parameters()
        if m > self.config.max_params:
            raise ValueError(
                f"SR needs a dense {m} x {m} solve; refusing above "
                f"max_params={self.config.max_params}.  This is the paper's "
                "point — use the AdamW path for deep networks."
            )

    @property
    def lr(self) -> float:
        return self.config.lr

    def direction(self, wf: NNQSWavefunction, batch: SampleBatch, w: np.ndarray,
                  eloc: np.ndarray, e_mean: float, e_imag: float) -> np.ndarray:
        """The natural-gradient solve: ``delta`` with ``(S + lambda I) delta = F``.

        ``w`` are the normalized sample weights and ``e_mean + i e_imag`` the
        weighted mean of ``eloc``.  Everything up to, not including, the
        parameter write; the diagnostics land in :attr:`last_info`.
        """
        cfg = self.config
        j_logp, j_phi = per_sample_jacobians(wf, batch.bits)
        # O = d ln Psi* = 1/2 d log pi - i d phi   (rows per sample)
        o = 0.5 * j_logp - 1j * j_phi
        o_mean = w @ o
        oc = o - o_mean[None, :]

        # F_k = Re <(E_loc - E) O_k> with O = d ln Psi* (Eq. 7's gradient);
        # no extra conjugation — O already carries the Psi* convention.
        f = np.real((w * (eloc - complex(e_mean, e_imag))) @ oc)

        # S = Re(A^H A) with A = sqrt(w) * oc; rank(S) <= 2 N_u, so solve in
        # the sample subspace via SVD of the stacked real representation.
        # Directions outside the span carry no curvature information and are
        # projected out (the pseudo-inverse convention used in practice) —
        # a dense (S + lambda I)^{-1} would blow them up by 1/lambda.
        a = np.sqrt(w)[:, None] * oc
        ar = np.vstack([a.real, a.imag])  # (2B, M): S = ar.T @ ar exactly
        _, sing, vt = np.linalg.svd(ar, full_matrices=False)
        s2 = sing**2
        top = s2[0] if len(s2) and s2[0] > 0 else 1.0
        keep = s2 > cfg.rcond * top
        proj = vt[keep] @ f
        delta = vt[keep].T @ (proj / (s2[keep] + cfg.diag_shift * top))

        cond = float(s2[keep][0] / s2[keep][-1]) if keep.any() else 1.0
        self.last_info = SRStepInfo(
            energy=float(e_mean),
            grad_norm=float(np.linalg.norm(f)),
            update_norm=float(self.lr * np.linalg.norm(delta)),
            s_condition=cond,
        )
        return delta

    def apply(self, delta: np.ndarray, norm: float | None = None) -> None:
        """The parameter write ``theta -= lr * delta`` (no clip, no decay)."""
        self.wf.arena().theta -= self.lr * delta

    def step(self, batch: SampleBatch, eloc: np.ndarray) -> SRStepInfo:
        w = batch.weights / batch.weights.sum()
        e_mean = complex(np.sum(w * eloc))
        self.apply(self.direction(self.wf, batch, w, eloc, e_mean.real, e_mean.imag))
        return self.last_info

    def state(self) -> dict:
        return {}

    def load_state(self, data) -> None:
        pass
