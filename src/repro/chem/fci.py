"""Full configuration interaction: the one exact solver.

FCI diagonalizes the :class:`~repro.hamiltonian.exact.SectorOperator` — the
Jordan-Wigner + compressed-storage Hamiltonian the VMC local-energy kernel
consumes, applied as "XOR flip + YZ parity sign" to the whole determinant
sector — so a correct FCI energy doubles as an integration test of the
Hamiltonian pipeline.  Sectors up to :data:`DENSE_MAX_DIM` determinants are
diagonalized densely; larger ones by Davidson, and a Davidson run that does
not converge is an error, not a fallback.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.chem.davidson import davidson
from repro.hamiltonian.compressed import CompressedHamiltonian
from repro.hamiltonian.exact import SectorBasis, SectorOperator, sector_basis
from repro.hamiltonian.qubit_hamiltonian import QubitHamiltonian

__all__ = ["FCIResult", "run_fci"]

# The largest sector diagonalized densely; Davidson solves the larger ones.
DENSE_MAX_DIM = 600


@dataclass
class FCIResult:
    energy: float
    ground_state: np.ndarray
    basis: SectorBasis

    @property
    def dim(self) -> int:
        return self.basis.dim


def run_fci(h: QubitHamiltonian | CompressedHamiltonian, n_up: int | None = None,
            n_dn: int | None = None) -> FCIResult:
    """Ground state of H in the (n_up, n_dn) sector.

    Without ``n_up`` / ``n_dn`` the sector follows ``h.n_electrons`` (the odd
    electron spin-up).  The energy includes the Hamiltonian constant (nuclear
    repulsion), i.e. it is the FCI total energy.
    """
    if n_up is None or n_dn is None:
        if h.n_electrons is None:
            raise ValueError("specify n_up / n_dn or set n_electrons")
        n_up = h.n_electrons // 2 + h.n_electrons % 2
        n_dn = h.n_electrons // 2
    op = SectorOperator(h, sector_basis(h.n_qubits, n_up, n_dn))
    dim = op.basis.dim
    if dim == 1:
        e, vec = float(op.matvec(np.ones(1))[0]), np.ones(1)
    elif dim <= DENSE_MAX_DIM:
        w, v = np.linalg.eigh(op.dense())
        e, vec = w[0], v[:, 0]
    else:
        res = davidson(op.matvec, op.diagonal, k=1, tol=1e-9)
        if not res.converged:
            raise RuntimeError(
                f"Davidson failed to converge (residuals {res.residual_norms})"
            )
        e, vec = res.eigenvalues[0], res.eigenvectors[:, 0]
    return FCIResult(energy=float(e + op.constant), ground_state=vec, basis=op.basis)
