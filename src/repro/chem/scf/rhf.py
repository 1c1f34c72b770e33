"""Restricted Hartree-Fock with DIIS convergence acceleration.

Provides the reference determinant, molecular orbitals and the HF energies
reported in Table 1 / Figs. 8 and 13 of the paper.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.chem.integrals.driver import AOIntegrals

__all__ = ["RHFResult", "run_rhf"]


@dataclass
class RHFResult:
    energy: float            # total energy (electronic + nuclear)
    e_electronic: float
    mo_coeff: np.ndarray     # (n_ao, n_mo) MO coefficients, columns = MOs
    mo_energy: np.ndarray
    density: np.ndarray      # AO density matrix (doubly-occupied convention)
    fock: np.ndarray
    n_occ: int               # number of doubly occupied spatial orbitals
    converged: bool
    n_iter: int


class _DIIS:
    """Pulay DIIS on the antisymmetric error matrix e = FDS - SDF."""

    def __init__(self, max_vecs: int = 8):
        self.focks: list[np.ndarray] = []
        self.errors: list[np.ndarray] = []
        self.max_vecs = max_vecs

    def update(self, fock: np.ndarray, err: np.ndarray) -> np.ndarray:
        self.focks.append(fock)
        self.errors.append(err)
        if len(self.focks) > self.max_vecs:
            self.focks.pop(0)
            self.errors.pop(0)
        m = len(self.focks)
        if m < 2:
            return fock
        B = -np.ones((m + 1, m + 1))
        B[m, m] = 0.0
        for i in range(m):
            for j in range(m):
                B[i, j] = np.vdot(self.errors[i], self.errors[j])
        rhs = np.zeros(m + 1)
        rhs[m] = -1.0
        try:
            coeff = np.linalg.solve(B, rhs)[:m]
        except np.linalg.LinAlgError:
            return fock
        return sum(c * f for c, f in zip(coeff, self.focks))


def _fix_phases(C: np.ndarray) -> np.ndarray:
    """Each MO column with its *leading* AO coefficient positive.

    The leading coefficient is the first one whose magnitude exceeds half the
    column's largest.  (The plain largest-magnitude rule is decided by
    rounding on antibonding pairs, whose two largest coefficients are equal
    and opposite.)
    """
    big = np.abs(C) > 0.5 * np.abs(C).max(axis=0)
    lead = C[big.argmax(axis=0), np.arange(C.shape[1])]
    return C * np.where(lead < 0.0, -1.0, 1.0)


def run_rhf(ints: AOIntegrals, max_iter: int = 200, conv_tol: float = 1e-10,
            level_shift: float = 0.0, n_guesses: int = 3) -> RHFResult:
    """Solve the RHF equations; electrons must pair (closed-shell).

    The Roothaan fixed point is not unique: multiply bonded systems (N2, C2)
    have aufbau-stable *excited* SCF solutions, and the core-Hamiltonian
    guess driven straight into DIIS can converge to one of them (for N2 it
    lands 0.73 Ha above the ground solution).  We therefore (a) damp the
    density for the first few iterations before enabling DIIS and (b) rerun
    from ``n_guesses`` deterministic starting points (core Hamiltonian, GWH,
    seeded random orthogonal orbitals) and keep the lowest converged
    solution — the pure-Python cost of an extra SCF is negligible next to
    the integrals.

    MO phases are this function's convention, not LAPACK's: every column of
    ``mo_coeff`` has its leading AO coefficient positive (:func:`_fix_phases`),
    so a last-bit change upstream (another BLAS build, another Boys kernel)
    cannot re-sign the Hamiltonian built on these orbitals.  Inside a
    degenerate pair (the pi orbitals of N2, C2) the order and the rotation stay
    ``eigh``'s: there the Hamiltonian is fixed only up to a unitary of the pair.
    """
    n_elec = ints.molecule.n_electrons
    if n_elec % 2 != 0:
        raise ValueError("RHF requires an even electron count (closed shell)")
    n_occ = n_elec // 2
    S, hcore, eri = ints.S, ints.hcore, ints.eri

    # Symmetric orthogonalization (canonical if S is near-singular).
    s_eig, s_vec = np.linalg.eigh(S)
    keep = s_eig > 1e-8
    X = s_vec[:, keep] / np.sqrt(s_eig[keep])

    def fock_matrix(D: np.ndarray) -> np.ndarray:
        J = np.einsum("pqrs,rs->pq", eri, D, optimize=True)
        K = np.einsum("prqs,rs->pq", eri, D, optimize=True)
        return hcore + J - 0.5 * K

    def density_from_fock(F: np.ndarray):
        Fp = X.T @ F @ X
        if level_shift:
            # Shift virtual orbitals up to stabilize oscillating SCF.
            eps0, C0 = np.linalg.eigh(Fp)
            shift = np.zeros_like(eps0)
            shift[n_occ:] = level_shift
            Fp = C0 @ np.diag(eps0 + shift) @ C0.T
        eps, Cp = np.linalg.eigh(Fp)
        C = _fix_phases(X @ Cp)
        occ = C[:, :n_occ]
        return 2.0 * occ @ occ.T, C, eps

    def scf(D: np.ndarray, n_damped: int = 6, damping: float = 0.5) -> RHFResult:
        diis = _DIIS()
        C = eps = None
        e_old = 0.0
        converged = False
        it = 0
        for it in range(1, max_iter + 1):
            F = fock_matrix(D)
            e_elec = 0.5 * np.einsum("pq,pq->", D, hcore + F)
            err = F @ D @ S - S @ D @ F
            if it > n_damped:
                F = diis.update(F, err)
            D_new, C, eps = density_from_fock(F)
            if it <= n_damped:
                D = damping * D_new + (1.0 - damping) * D
            else:
                D = D_new
            if abs(e_elec - e_old) < conv_tol and np.max(np.abs(err)) < 1e-6:
                converged = True
                break
            e_old = e_elec
        F = fock_matrix(D)
        e_elec = 0.5 * np.einsum("pq,pq->", D, hcore + F)
        return RHFResult(
            energy=float(e_elec + ints.e_nuc),
            e_electronic=float(e_elec),
            mo_coeff=C,
            mo_energy=eps,
            density=D,
            fock=F,
            n_occ=n_occ,
            converged=converged,
            n_iter=it,
        )

    # --- starting densities (deterministic) -------------------------------
    guesses: list[np.ndarray] = []
    guesses.append(density_from_fock(hcore)[0])  # core Hamiltonian
    if n_guesses >= 2:
        # Generalized Wolfsberg-Helmholz: F_ij = 0.875 (H_ii + H_jj) S_ij.
        hd = np.diag(hcore)
        gwh = 0.875 * (hd[:, None] + hd[None, :]) * S
        np.fill_diagonal(gwh, hd)
        guesses.append(density_from_fock(gwh)[0])
    rng = np.random.default_rng(20230711)  # fixed: results must be reproducible
    for _ in range(max(0, n_guesses - 2)):
        q, _ = np.linalg.qr(rng.standard_normal((X.shape[1], X.shape[1])))
        c0 = X @ q
        guesses.append(2.0 * c0[:, :n_occ] @ c0[:, :n_occ].T)

    best: RHFResult | None = None
    for D0 in guesses:
        res = scf(D0)
        if res.converged and (best is None or not best.converged
                              or res.energy < best.energy - 1e-10):
            best = res
        elif best is None:
            best = res
    return best
