"""The dictionary Jordan-Wigner expansion: the oracle of the array kernel.

This is the implementation ``repro.hamiltonian.jordan_wigner`` had before it
became an array kernel, kept verbatim: every product of ladder operators is
expanded term by term with :func:`repro.hamiltonian.pauli_mul` and accumulated
in a dict keyed ``(x_mask, z_mask)`` of Python integers.  O(N^4) interpreter
work, obviously correct; the array kernel must reproduce its masks,
coefficients, constant *and term order* bit for bit
(``tests/test_jordan_wigner.py``).
"""
from __future__ import annotations

import numpy as np

from repro.hamiltonian import QubitHamiltonian, ladder_terms, pauli_mul


def _accumulate_product(acc: dict, ops: list[list[tuple[int, int, complex]]],
                        weight: complex) -> None:
    """Expand a product of ladder operators into ``acc`` (dict keyed (x,z))."""
    # Iterative expansion: list of (x, z, coeff) partial products.
    partial = [(0, 0, weight)]
    for op in ops:
        new = []
        for x1, z1, c1 in partial:
            for x2, z2, c2 in op:
                x, z, s = pauli_mul(x1, z1, x2, z2)
                new.append((x, z, c1 * c2 * s))
        partial = new
    for x, z, c in partial:
        key = (x, z)
        acc[key] = acc.get(key, 0.0) + c


def _finalize(acc: dict, n: int, constant: float, coeff_tol: float,
              n_electrons: int | None) -> QubitHamiltonian:
    """Dict keyed (x, z) with xz-basis coefficients -> QubitHamiltonian."""
    xs, zs, cs = [], [], []
    n_words = (n + 63) // 64
    mask64 = (1 << 64) - 1
    for (x, z), c in acc.items():
        if abs(c) < coeff_tol:
            continue
        if x == 0 and z == 0:
            constant += float(np.real(c))
            continue
        n_y = bin(x & z).count("1")
        letter_c = c / (1j) ** n_y
        if abs(np.imag(letter_c)) > 1e-9:
            raise ValueError("non-Hermitian residue in Jordan-Wigner output")
        xs.append([(x >> (64 * w)) & mask64 for w in range(n_words)])
        zs.append([(z >> (64 * w)) & mask64 for w in range(n_words)])
        cs.append(float(np.real(letter_c)))
    return QubitHamiltonian(
        n_qubits=n,
        x_masks=np.array(xs, dtype=np.uint64).reshape(len(cs), n_words),
        z_masks=np.array(zs, dtype=np.uint64).reshape(len(cs), n_words),
        coeffs=np.array(cs),
        constant=float(constant),
        n_electrons=n_electrons,
    )


def jordan_wigner_fermion_terms_dict(terms, n_qubits, constant=0.0,
                                     coeff_tol=1e-10, n_electrons=None):
    """``jordan_wigner_fermion_terms`` by dict accumulation."""
    acc: dict[tuple[int, int], complex] = {}
    for weight, ops in terms:
        if abs(weight) < coeff_tol:
            continue
        expanded = [ladder_terms(p, dagger=d) for (p, d) in ops]
        _accumulate_product(acc, expanded, weight)
    return _finalize(acc, n_qubits, constant, coeff_tol, n_electrons)


def jordan_wigner_dict(so, coeff_tol=1e-10):
    """``jordan_wigner`` by dict accumulation."""
    n = so.n_so
    acc: dict[tuple[int, int], complex] = {}

    ann = [ladder_terms(p, dagger=False) for p in range(n)]
    cre = [ladder_terms(p, dagger=True) for p in range(n)]

    # One-body part.
    h1 = so.h1
    for p, q in zip(*np.nonzero(np.abs(h1) > coeff_tol)):
        _accumulate_product(acc, [cre[p], ann[q]], h1[p, q])

    # Two-body part: iterate only over non-negligible <PQ|RS>.
    g2 = so.g2
    idx = np.argwhere(np.abs(g2) > coeff_tol)
    for p, q, s, r in idx:  # g2[p, q, s, r] multiplies a+_p a+_q a_r a_s
        # <PQ|SR> convention: g2[P,Q,R,S] = <PQ|RS> multiplies a+P a+Q a_S a_R.
        if p == q or s == r:
            continue  # a+_p a+_p = a_r a_r = 0
        _accumulate_product(
            acc, [cre[p], cre[q], ann[r], ann[s]], 0.5 * g2[p, q, s, r]
        )

    # Separate the identity; convert xz coefficients to letter-basis reals.
    return _finalize(acc, n, so.e_nuc, coeff_tol, so.n_electrons)
