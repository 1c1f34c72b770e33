"""Truncated configuration interaction (CIS, CISD, ...) baselines.

The paper's Table 1 compares NNQS against CC methods; truncated CI is the
classic variational counterpart (Sec. 1: "the truncated configuration
interaction considers only excitations above the HF reference state up to a
fixed order").  We diagonalize the qubit Hamiltonian in the span of all
determinants within ``max_rank`` excitations of the Hartree–Fock reference,
applying ``repro.hamiltonian.exact.SectorOperator`` on that basis — couplings
leaving the truncated space are dropped, which is precisely the CI truncation.

``rank = n_orb`` (or anything >= min(n_elec, n_virtuals)) recovers FCI.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from repro.chem.davidson import davidson
from repro.hamiltonian.compressed import CompressedHamiltonian
from repro.hamiltonian.exact import SectorBasis, SectorOperator
from repro.hamiltonian.qubit_hamiltonian import QubitHamiltonian
from repro.utils.bitstrings import ints_to_keys, lexsort_keys, pack_bits, searchsorted_keys

__all__ = ["TruncatedCIResult", "excitation_basis", "run_truncated_ci", "run_cis", "run_cisd"]


@dataclass
class TruncatedCIResult:
    energy: float
    ground_state: np.ndarray
    basis: SectorBasis
    rank: int
    n_matvec: int

    @property
    def dim(self) -> int:
        return self.basis.dim


def excitation_basis(hf_bits: np.ndarray, max_rank: int) -> SectorBasis:
    """All determinants within ``max_rank`` spin-conserving excitations of HF.

    Electrons are moved from occupied to unoccupied spin orbitals of the same
    spin (alpha = even qubits, beta = odd), with the total excitation rank
    (alpha moves + beta moves) bounded by ``max_rank``.
    """
    hf_bits = np.asarray(hf_bits, dtype=np.uint8).ravel()
    n = len(hf_bits)
    if n % 2:
        raise ValueError("interleaved spin convention requires even qubit count")
    occ_up = [p for p in range(0, n, 2) if hf_bits[p]]
    vir_up = [p for p in range(0, n, 2) if not hf_bits[p]]
    occ_dn = [p for p in range(1, n, 2) if hf_bits[p]]
    vir_dn = [p for p in range(1, n, 2) if not hf_bits[p]]

    dets: set[int] = set()
    hf_int = 0
    for p in range(n):
        if hf_bits[p]:
            hf_int |= 1 << p
    for r_up in range(0, max_rank + 1):
        for r_dn in range(0, max_rank + 1 - r_up):
            if r_up > min(len(occ_up), len(vir_up)):
                continue
            if r_dn > min(len(occ_dn), len(vir_dn)):
                continue
            for rem_u in combinations(occ_up, r_up):
                for add_u in combinations(vir_up, r_up):
                    base = hf_int
                    for p in rem_u:
                        base &= ~(1 << p)
                    for p in add_u:
                        base |= 1 << p
                    for rem_d in combinations(occ_dn, r_dn):
                        for add_d in combinations(vir_dn, r_dn):
                            det = base
                            for p in rem_d:
                                det &= ~(1 << p)
                            for p in add_d:
                                det |= 1 << p
                            dets.add(det)

    keys = ints_to_keys(sorted(dets), (n + 63) // 64)
    keys = keys[lexsort_keys(keys)]
    return SectorBasis(n_qubits=n, n_up=len(occ_up), n_dn=len(occ_dn), keys=keys)


def run_truncated_ci(
    hamiltonian: QubitHamiltonian | CompressedHamiltonian,
    hf_bits: np.ndarray,
    max_rank: int,
    tol: float = 1e-9,
) -> TruncatedCIResult:
    """Variational ground state within ``max_rank`` excitations of HF."""
    op = SectorOperator(hamiltonian, excitation_basis(hf_bits, max_rank))
    basis, diag = op.basis, op.diagonal
    # Start from the HF determinant itself.
    hf_key = pack_bits(np.asarray(hf_bits, dtype=np.uint8))
    hf_idx = int(searchsorted_keys(basis.keys, hf_key)[0])
    if hf_idx < 0:
        raise ValueError("HF reference missing from the excitation basis")
    v0 = np.zeros((basis.dim, 2))
    v0[hf_idx, 0] = 1.0
    v0[np.argsort(diag)[min(1, basis.dim - 1)], 1] = 1.0
    if basis.dim == 1:
        e = float(op.matvec(np.ones(1))[0]) + op.constant
        return TruncatedCIResult(e, np.ones(1), basis, max_rank, 1)
    res = davidson(op.matvec, diag, k=1, v0=v0, tol=tol)
    energy = float(res.eigenvalues[0] + op.constant)
    vec = res.eigenvectors[:, 0]
    return TruncatedCIResult(energy, vec, basis, max_rank, res.n_matvec)


def run_cis(hamiltonian, hf_bits) -> TruncatedCIResult:
    """CI with single excitations (by Brillouin's theorem E_CIS ~= E_HF)."""
    return run_truncated_ci(hamiltonian, hf_bits, max_rank=1)


def run_cisd(hamiltonian, hf_bits) -> TruncatedCIResult:
    """CI with single and double excitations."""
    return run_truncated_ci(hamiltonian, hf_bits, max_rank=2)
