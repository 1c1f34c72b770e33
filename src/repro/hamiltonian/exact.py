"""Exact ground state in a fixed particle-number sector (the FCI backend).

The qubit Hamiltonian conserves the number of spin-up electrons (even qubits)
and spin-down electrons (odd qubits) separately, so the exact ground state can
be found in the C(n_orb, n_up) x C(n_orb, n_dn) determinant sector.  The
matrix-vector product reuses the compressed (Fig. 6c) structure: every unique
XY mask is one permutation x -> x XOR mask of the sector basis, with a
sign/coefficient computed from the YZ masks — i.e. exactly the arithmetic of
the paper's local-energy kernel, applied to the whole sector at once.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from repro.hamiltonian.compressed import CompressedHamiltonian, compress_hamiltonian
from repro.hamiltonian.qubit_hamiltonian import QubitHamiltonian
from repro.utils.bitstrings import (
    lexsort_keys,
    pack_bits,
    parity64,
    searchsorted_keys,
    unpack_bits,
)

__all__ = ["SectorBasis", "sector_basis", "exact_ground_state", "sector_hamiltonian_dense"]


@dataclass
class SectorBasis:
    """Sorted packed keys of all determinants with (n_up, n_dn) electrons."""

    n_qubits: int
    n_up: int
    n_dn: int
    keys: np.ndarray  # (D, W) uint64, lexsorted

    @property
    def dim(self) -> int:
        return len(self.keys)

    def bits(self) -> np.ndarray:
        return unpack_bits(self.keys, self.n_qubits)


def sector_basis(n_qubits: int, n_up: int, n_dn: int) -> SectorBasis:
    """Enumerate the particle-number sector (interleaved spin convention)."""
    if n_qubits % 2:
        raise ValueError("interleaved spin convention requires even qubit count")
    n_orb = n_qubits // 2
    up_masks = [sum(1 << (2 * i) for i in occ) for occ in combinations(range(n_orb), n_up)]
    dn_masks = [sum(1 << (2 * i + 1) for i in occ) for occ in combinations(range(n_orb), n_dn)]
    total = [u | d for u in up_masks for d in dn_masks]
    w = (n_qubits + 63) // 64
    keys = np.zeros((len(total), w), dtype=np.uint64)
    mask64 = (1 << 64) - 1
    for i, v in enumerate(total):
        for word in range(w):
            keys[i, word] = (v >> (64 * word)) & mask64
    keys = keys[lexsort_keys(keys)]
    return SectorBasis(n_qubits=n_qubits, n_up=n_up, n_dn=n_dn, keys=keys)


def _group_structure(comp: CompressedHamiltonian, basis: SectorBasis):
    """Precompute, per XY group, the permutation and sign-coefficients.

    Returns lists (targets, coefs): for group g, ``targets[g]`` maps each
    source determinant index to the index of x XOR mask (or -1 if outside the
    sector) and ``coefs[g][d] = sum_i c_i (-1)^{|x_d & yz_i|}``.
    """
    keys = basis.keys
    targets, coefs = [], []
    for g in range(comp.n_groups):
        mask = comp.xy_unique[g]
        flipped = keys ^ mask[None, :]
        tgt = searchsorted_keys(keys, flipped)
        lo, hi = comp.idxs[g], comp.idxs[g + 1]
        acc = np.zeros(basis.dim)
        for j in range(lo, hi):
            # total parity of |x & yz| across all 64-bit words
            par = parity64(keys & comp.yz_buf[j][None, :]).sum(axis=1) % 2
            acc += comp.coeffs_buf[j] * (1.0 - 2.0 * par)
        targets.append(tgt)
        coefs.append(acc)
    return targets, coefs


def exact_ground_state(
    h: QubitHamiltonian | CompressedHamiltonian,
    n_up: int | None = None,
    n_dn: int | None = None,
    k: int = 1,
    method: str = "auto",
) -> tuple[float, np.ndarray, SectorBasis]:
    """Lowest eigenpair(s) of H restricted to the (n_up, n_dn) sector.

    Returns ``(energy, ground_state_vector, basis)``; the energy includes the
    Hamiltonian constant (nuclear repulsion), i.e. it is the FCI total energy.

    ``method``: ``'dense'`` (full diagonalization), ``'davidson'`` (Davidson–
    Liu with diagonal preconditioning — the production solver for big
    sectors), ``'lanczos'`` (scipy eigsh), or ``'auto'`` (dense for small
    sectors, Davidson otherwise, Lanczos as a convergence fallback).
    """
    comp = h if isinstance(h, CompressedHamiltonian) else compress_hamiltonian(h)
    if n_up is None or n_dn is None:
        if comp.n_electrons is None:
            raise ValueError("specify n_up / n_dn or set n_electrons")
        n_up = comp.n_electrons // 2 + comp.n_electrons % 2
        n_dn = comp.n_electrons // 2
    basis = sector_basis(comp.n_qubits, n_up, n_dn)
    targets, coefs = _group_structure(comp, basis)
    dim = basis.dim

    def matvec(v: np.ndarray) -> np.ndarray:
        out = np.zeros_like(v)
        for tgt, coef in zip(targets, coefs):
            ok = tgt >= 0
            np.add.at(out, tgt[ok], coef[ok] * v[ok])
        return out

    if dim == 1:
        e = float(matvec(np.ones(1))[0])
        return e + comp.constant, np.ones(1), basis
    if method == "dense" or (method == "auto" and dim <= 600):
        H = np.zeros((dim, dim))
        eye = np.eye(dim)
        for i in range(dim):
            H[:, i] = matvec(eye[:, i])
        w, v = np.linalg.eigh(H)
        return float(w[0] + comp.constant), v[:, 0], basis

    if method in ("davidson", "auto"):
        from repro.chem.davidson import davidson, sector_diagonal

        diag = sector_diagonal(comp, basis)
        res = davidson(matvec, diag, k=k, tol=1e-9)
        if res.converged:
            order = np.argsort(res.eigenvalues)
            return (
                float(res.eigenvalues[order[0]] + comp.constant),
                res.eigenvectors[:, order[0]],
                basis,
            )
        if method == "davidson":
            raise RuntimeError(
                f"Davidson failed to converge (residuals {res.residual_norms})"
            )
        # 'auto': fall through to Lanczos.

    # The one scipy call of the package, imported where it runs: a rank that
    # never takes this branch never loads scipy (tools/lint_source.py).
    import scipy.sparse.linalg as spla

    op = spla.LinearOperator((dim, dim), matvec=matvec, dtype=np.float64)
    vals, vecs = spla.eigsh(op, k=k, which="SA", maxiter=5000)
    order = np.argsort(vals)
    return float(vals[order[0]] + comp.constant), vecs[:, order[0]], basis


def sector_hamiltonian_dense(
    h: QubitHamiltonian | CompressedHamiltonian, n_up: int, n_dn: int
) -> tuple[np.ndarray, SectorBasis]:
    """Dense sector Hamiltonian (tests / tiny systems only)."""
    comp = h if isinstance(h, CompressedHamiltonian) else compress_hamiltonian(h)
    basis = sector_basis(comp.n_qubits, n_up, n_dn)
    targets, coefs = _group_structure(comp, basis)
    dim = basis.dim
    H = np.zeros((dim, dim))
    for tgt, coef in zip(targets, coefs):
        ok = tgt >= 0
        H[tgt[ok], np.flatnonzero(ok)] += coef[ok]
    return H + comp.constant * np.eye(dim), basis
