"""Jordan-Wigner transformation of the second-quantized Hamiltonian (Eq. 9/10).

Ladder operators in the symplectic representation:

    a_p      = Z_{<p} X_p (I - Z_p)/2  =  1/2 (Z_{<p} X_p  -  Z_{<p} X_p Z_p)
    a_p^dag  = Z_{<p} X_p (I + Z_p)/2  =  1/2 (Z_{<p} X_p  +  Z_{<p} X_p Z_p)

(occupation bit 1 = occupied, Z|b> = (-1)^b |b>).  A product of k ladder
operators expands into 2^k Pauli strings ``X^x Z^z`` with coefficients
``weight * (+-1/2)^k``; equal strings are summed and imaginary residues, which
cancel to < 1e-12 for Hermitian inputs, are dropped.

The expansion is an array kernel over packed uint64 words (``(n, W)`` layout
as everywhere else).  Its result is *bit-identical* to accumulating the
partial products one by one in a dictionary keyed ``(x, z)`` — the oracle kept
in ``tests/jw_oracle.py`` — term order included: partial products are
generated in the nested-loop order of that expansion, every partial
coefficient is exact (a power of two times the weight), a stable sort groups
equal strings without reordering them, ``bincount`` adds each group up in
input order, and strings are emitted in order of first occurrence.  Products
are processed in chunks that carry the running sums, so the working set is a
few MiB whatever the molecule, and any chunk size gives the same bits.

Spin-orbital ordering is the paper's: spatial orbital i -> qubits (2i, 2i+1).
"""
from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.hamiltonian.qubit_hamiltonian import QubitHamiltonian
from repro.utils.bitstrings import lexsort_keys, popcount64

if TYPE_CHECKING:  # an annotation only: the Hamiltonian layer loads no chemistry
    from repro.chem.mo_integrals import SpinOrbitalIntegrals

__all__ = ["jordan_wigner", "jordan_wigner_fermion_terms", "ladder_terms"]

# Partial products expanded per chunk (4 096 four-operator products): keys,
# coefficients, sort permutation and group ids of a chunk are ~6 MiB at W = 1.
_CHUNK_PARTIALS = 1 << 16


def ladder_terms(p: int, dagger: bool) -> list[tuple[int, int, complex]]:
    """[(x, z, coeff), ...] for a_p or a_p^dagger under Jordan-Wigner."""
    z_string = (1 << p) - 1  # Z on qubits 0..p-1
    x = 1 << p
    sign = 0.5 if dagger else -0.5
    return [
        (x, z_string, 0.5),
        (x, z_string | (1 << p), sign),
    ]


def _ladder_masks(n_qubits: int) -> tuple[np.ndarray, np.ndarray]:
    """Packed :func:`ladder_terms` of every orbital: ``x[p]`` is ``(W,)``,
    ``z[p]`` is ``(2, W)`` — the Z string, then the Z string with Z_p."""
    n_words = (n_qubits + 63) // 64
    p = np.arange(n_qubits)
    word, bit = p // 64, (p % 64).astype(np.uint64)
    x = np.zeros((n_qubits, n_words), dtype=np.uint64)
    x[p, word] = np.uint64(1) << bit
    below = np.where(np.arange(n_words) < word[:, None], ~np.uint64(0), np.uint64(0))
    below[p, word] = (np.uint64(1) << bit) - np.uint64(1)
    return x, np.stack([below, below | x], axis=1)


def _parity_and(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``popcount(a & b) mod 2`` over the trailing word axis (the word-XOR
    fold of ``ElocPlan._pair_coefficients``)."""
    return (np.bitwise_count(np.bitwise_xor.reduce(a & b, axis=-1)) & 1).astype(np.int64)


def _expand(orbitals: np.ndarray, daggers: np.ndarray, weights: np.ndarray,
            ladder_x: np.ndarray, ladder_z: np.ndarray):
    """Partial products of ``n`` ladder-operator products of ``k`` operators.

    Returns the strings as keys ``(n 2^k, 2W)`` — the words of ``z``, then
    those of ``x`` — and the coefficients ``(n 2^k,)``, product-major; within
    a product the first operator's term is the slowest index — the order in
    which nested loops over the operators' two terms visit them.  Both terms
    of a ladder operator carry the same X mask, so ``x`` is one value per
    product, repeated.
    """
    n, k = orbitals.shape
    n_words = ladder_x.shape[1]
    x = np.zeros((n, n_words), dtype=np.uint64)
    z = np.zeros((n, 1, n_words), dtype=np.uint64)
    sign = np.ones((n, 1))
    for j in range(k):
        x_op = ladder_x[orbitals[:, j]]                         # (n, W)
        z_op = ladder_z[orbitals[:, j]]                         # (n, 2, W)
        # X^a Z^b · X^c Z^d = (-1)^{|b & c|} X^{a^c} Z^{b^d}
        flip = 1.0 - 2.0 * _parity_and(z, x_op[:, None, :])     # (n, 2^j)
        second = np.where(daggers[:, j], 1.0, -1.0)             # the Z_p term's sign
        op_sign = np.stack([np.ones(n), second], axis=1)        # (n, 2)
        sign = ((sign * flip)[:, :, None] * op_sign[:, None, :]).reshape(n, -1)
        z = (z[:, :, None, :] ^ z_op[:, None, :, :]).reshape(n, -1, n_words)
        x = x ^ x_op
    keys = np.concatenate([z.reshape(-1, n_words), np.repeat(x, 1 << k, axis=0)], axis=1)
    return keys, (weights[:, None] * (sign * 0.5 ** k)).reshape(-1)


class _PauliSum:
    """Running sum of Pauli strings ``X^x Z^z``, kept in first-occurrence order."""

    def __init__(self, n_qubits: int, complex_weights: bool):
        self.n_qubits = n_qubits
        self.ladder_x, self.ladder_z = _ladder_masks(n_qubits)
        # one key per string: the words of z, then the words of x
        self.keys = np.zeros((0, 2 * self.ladder_x.shape[1]), dtype=np.uint64)
        # one row of sums per component: real, or (real, imaginary)
        self.sums = np.zeros((2 if complex_weights else 1, 0))

    def add_products(self, orbitals: np.ndarray, daggers: np.ndarray,
                     weights: np.ndarray) -> None:
        """Add ``sum_i weights[i] * prod_j op(orbitals[i, j], daggers[i, j])``."""
        n, k = orbitals.shape
        if n and k and not (0 <= orbitals.min() and orbitals.max() < self.n_qubits):
            raise ValueError(f"orbital index outside 0..{self.n_qubits - 1}")
        step = max(1, _CHUNK_PARTIALS >> k)
        for lo in range(0, n, step):
            hi = lo + step
            self._add(*_expand(orbitals[lo:hi], daggers[lo:hi], weights[lo:hi],
                               self.ladder_x, self.ladder_z))

    def _add(self, keys: np.ndarray, coeffs: np.ndarray) -> None:
        """Fold partial products in, in the order given.

        The strings seen so far are listed first, with their running sums as
        their contributions; a stable sort then leaves every group of equal
        strings in arrival order, its earliest row first.  Ranking the groups
        by that earliest row numbers them by first occurrence (the old strings
        keep their numbers, new ones follow in order), and ``bincount`` adds
        each group's contributions one after another from zero — exactly the
        additions ``acc[key] = acc.get(key, 0.0) + c`` would perform.
        """
        keys = np.concatenate([self.keys, keys])
        parts = (coeffs.real, coeffs.imag) if len(self.sums) == 2 else (coeffs,)
        order = lexsort_keys(keys)                              # np.lexsort: stable
        ranked = keys[order]
        opens = np.ones(len(order), dtype=bool)                 # first row of a group
        opens[1:] = (ranked[1:] != ranked[:-1]).any(axis=1)
        first = order[opens]                                    # earliest row per group
        number = np.empty(len(first), dtype=np.intp)
        number[np.argsort(first)] = np.arange(len(first))
        group = np.empty(len(order), dtype=np.intp)
        group[order] = number[np.cumsum(opens) - 1]
        self.sums = np.stack([
            np.bincount(group, weights=np.concatenate([old, new]), minlength=len(first))
            for old, new in zip(self.sums, parts)
        ])
        first.sort()
        self.keys = keys[first]

    def to_hamiltonian(self, constant: float, coeff_tol: float,
                       n_electrons: int | None) -> QubitHamiltonian:
        """Drop negligible sums, split the identity off into ``constant`` and
        convert ``X^x Z^z`` coefficients to the letter basis (Y = i X Z)."""
        re = self.sums[0]
        im = self.sums[1] if len(self.sums) == 2 else np.zeros_like(re)
        keep = ~(np.hypot(re, im) < coeff_tol)
        identity = keep & ~self.keys.any(axis=1)
        if identity.any():
            constant += float(re[identity][0])
        keep &= ~identity
        z, x = np.split(self.keys[keep], 2, axis=1)
        re, im = re[keep], im[keep]
        # c / i^{n_Y}: the divisor cycles through 1, i, -1, -i
        n_y = popcount64(x & z).sum(axis=1) % 4
        letter_re = np.choose(n_y, [re, im, -re, -im])
        letter_im = np.choose(n_y, [im, -re, -im, re])
        if (np.abs(letter_im) > 1e-9).any():
            raise ValueError("non-Hermitian residue in Jordan-Wigner output")
        return QubitHamiltonian(
            n_qubits=self.n_qubits, x_masks=x, z_masks=z, coeffs=letter_re,
            constant=float(constant), n_electrons=n_electrons,
        )


def jordan_wigner_fermion_terms(
    terms: list[tuple[complex, list[tuple[int, bool]]]],
    n_qubits: int,
    constant: float = 0.0,
    coeff_tol: float = 1e-10,
    n_electrons: int | None = None,
) -> QubitHamiltonian:
    """Jordan-Wigner any Hermitian sum of ladder-operator products.

    ``terms`` is ``[(weight, [(orbital, dagger), ...]), ...]`` where the
    ladder operators of one product are listed left to right.  This is the
    generic entry point used for observables (number, S_z, S^2, dipole
    operators) beyond the molecular Hamiltonian itself.
    """
    terms = [(w, ops) for w, ops in terms if not abs(w) < coeff_tol]
    weights = np.asarray([w for w, _ in terms])
    complex_weights = weights.dtype.kind == "c"
    if not complex_weights:
        weights = weights.astype(np.float64)
    total = _PauliSum(n_qubits, complex_weights)
    # runs of products with equal operator count, in the order given
    lengths = np.array([len(ops) for _, ops in terms], dtype=np.intp)
    bounds = np.flatnonzero(np.diff(lengths, prepend=-1, append=-1))
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        ops = np.array([ops for _, ops in terms[lo:hi]], dtype=np.intp)
        ops = ops.reshape(hi - lo, lengths[lo], 2)
        total.add_products(ops[:, :, 0], ops[:, :, 1].astype(bool), weights[lo:hi])
    return total.to_hamiltonian(constant, coeff_tol, n_electrons)


def jordan_wigner(so: SpinOrbitalIntegrals, coeff_tol: float = 1e-10) -> QubitHamiltonian:
    """Map spin-orbital integrals to a qubit Hamiltonian.

    H = sum_PQ h_PQ a+_P a_Q + 1/2 sum_PQRS <PQ|RS> a+_P a+_Q a_S a_R + E_nuc.
    """
    total = _PauliSum(so.n_so, complex_weights=np.iscomplexobj(so.h1)
                      or np.iscomplexobj(so.g2))

    # One-body part.
    h1 = so.h1
    pq = np.argwhere(np.abs(h1) > coeff_tol)
    total.add_products(pq, np.broadcast_to([True, False], pq.shape), h1[tuple(pq.T)])

    # Two-body part: only non-negligible <PQ|RS>; g2[p, q, s, r] multiplies
    # a+_p a+_q a_r a_s, and a+_p a+_p = a_r a_r = 0.
    g2 = so.g2
    pqsr = np.argwhere(np.abs(g2) > coeff_tol)
    pqsr = pqsr[(pqsr[:, 0] != pqsr[:, 1]) & (pqsr[:, 2] != pqsr[:, 3])]
    total.add_products(pqsr[:, [0, 1, 3, 2]],
                       np.broadcast_to([True, True, False, False], pqsr.shape),
                       0.5 * g2[tuple(pqsr.T)])

    # Separate the identity; convert xz coefficients to letter-basis reals.
    return total.to_hamiltonian(so.e_nuc, coeff_tol, so.n_electrons)
