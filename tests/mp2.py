"""Second-order Moller-Plesset perturbation theory (spin-orbital form).

E_MP2 = 1/4 sum_{ijab} |<ij||ab>|^2 / (e_i + e_j - e_a - e_b) — the cheapest
correlated baseline, kept as a test helper: ``tests/test_scf_ccsd.py``
brackets with it (E_HF > E_MP2-total > ~E_CCSD for well-behaved systems).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.chem.mo_integrals import SpinOrbitalIntegrals

__all__ = ["MP2Result", "run_mp2"]


@dataclass
class MP2Result:
    energy: float
    e_corr: float
    e_scf: float


def run_mp2(so: SpinOrbitalIntegrals) -> MP2Result:
    n = so.n_so
    n_occ = so.n_electrons
    o = slice(0, n_occ)
    v = slice(n_occ, n)
    w = so.antisymmetrized
    f = so.h1 + np.einsum("piqi->pq", w[:, o, :, o])
    eps = f.diagonal()
    e_scf = (
        np.einsum("ii->", so.h1[o, o])
        + 0.5 * np.einsum("ijij->", w[o, o, o, o])
        + so.e_nuc
    )
    d2 = (
        eps[o, None, None, None] + eps[None, o, None, None]
        - eps[None, None, v, None] - eps[None, None, None, v]
    )
    t2 = w[o, o, v, v] / d2
    e_corr = 0.25 * np.einsum("ijab,ijab->", w[o, o, v, v], t2)
    return MP2Result(energy=float(e_scf + e_corr), e_corr=float(e_corr),
                     e_scf=float(e_scf))
