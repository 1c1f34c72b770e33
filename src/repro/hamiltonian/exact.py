"""The Hamiltonian restricted to a determinant sector: the exact-reference operator.

The qubit Hamiltonian conserves the number of spin-up electrons (even qubits)
and spin-down electrons (odd qubits) separately, so the exact ground state
lives in the C(n_orb, n_up) x C(n_orb, n_dn) determinant sector.
:class:`SectorOperator` is the one construction of H on such a basis (or on
any sorted subset of it, e.g. a truncated-CI space): every unique XY mask of
the compressed (Fig. 6c) storage is one permutation x -> x XOR mask of the
basis, with a per-determinant coefficient summed from the YZ masks — the
arithmetic of the paper's local-energy kernel applied to the whole basis at
once.  FCI (``repro.chem.fci``), truncated CI and the exact observables all
apply this operator; nothing else builds it.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from repro.hamiltonian.compressed import CompressedHamiltonian, compress_hamiltonian
from repro.hamiltonian.qubit_hamiltonian import QubitHamiltonian
from repro.utils.bitstrings import (
    ints_to_keys,
    lexsort_keys,
    parity64,
    searchsorted_keys,
    unpack_bits,
)

__all__ = ["SectorBasis", "SectorOperator", "sector_basis", "sector_hamiltonian_dense"]


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
    keys = ints_to_keys([u | d for u in up_masks for d in dn_masks], (n_qubits + 63) // 64)
    keys = keys[lexsort_keys(keys)]
    return SectorBasis(n_qubits=n_qubits, n_up=n_up, n_dn=n_dn, keys=keys)


class SectorOperator:
    """H restricted to ``basis``, without its constant (kept as ``constant``).

    Built once per (Hamiltonian, basis) as the in-basis couplings, group by
    group: XY group ``g`` sends determinant x to x XOR mask with coefficient
    ``sum_i c_i (-1)^{|x & yz_i|}``, and a coupling whose target lies outside
    the basis is dropped.  ``rows``, ``cols`` and ``values`` list them in group
    order (target, source, coefficient), so memory follows the couplings, not
    groups x dim.  The zero-flip group (pure Z strings) is the diagonal.
    """

    def __init__(self, h: QubitHamiltonian | CompressedHamiltonian, basis: SectorBasis):
        comp = h if isinstance(h, CompressedHamiltonian) else compress_hamiltonian(h)
        self.basis = basis
        self.constant = comp.constant
        keys = basis.keys
        rows, cols, values = [], [], []
        self.diagonal = np.zeros(basis.dim)
        for g in range(comp.n_groups):
            mask = comp.xy_unique[g]
            tgt = searchsorted_keys(keys, keys ^ mask[None, :])
            src = np.flatnonzero(tgt >= 0)
            if not len(src):
                continue
            acc = np.zeros(len(src))
            for j in range(comp.idxs[g], comp.idxs[g + 1]):
                # total parity of |x & yz| across all 64-bit words
                par = parity64(keys[src] & comp.yz_buf[j][None, :]).sum(axis=1) % 2
                acc += comp.coeffs_buf[j] * (1.0 - 2.0 * par)
            rows.append(tgt[src])
            cols.append(src)
            values.append(acc)
            if not mask.any():
                self.diagonal = acc
        self.rows = np.concatenate(rows) if rows else np.zeros(0, np.int64)
        self.cols = np.concatenate(cols) if cols else np.zeros(0, np.int64)
        self.values = np.concatenate(values) if values else np.zeros(0)

    def matvec(self, v: np.ndarray) -> np.ndarray:
        """H v over the basis, without the constant."""
        out = np.zeros_like(v)
        np.add.at(out, self.rows, self.values * v[self.cols])
        return out

    def dense(self) -> np.ndarray:
        """H as a ``(dim, dim)`` matrix, without the constant."""
        dim = self.basis.dim
        H = np.zeros((dim, dim))
        np.add.at(H, (self.rows, self.cols), self.values)
        return H


def sector_hamiltonian_dense(
    h: QubitHamiltonian | CompressedHamiltonian, n_up: int, n_dn: int
) -> tuple[np.ndarray, SectorBasis]:
    """Dense sector Hamiltonian, constant included (tests / tiny systems only)."""
    op = SectorOperator(h, sector_basis(h.n_qubits, n_up, n_dn))
    return op.dense() + op.constant * np.eye(op.basis.dim), op.basis
