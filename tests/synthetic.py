"""Synthetic qubit Hamiltonians with molecular structural statistics.

A test helper: it exercises the >100-qubit code paths (sampling tree
partitioning, packed-key lookup tables, chunked local-energy kernels) without
paying for pure-Python benzene/6-31G integrals — the documented substitution
for the paper's 120-qubit workload (DESIGN.md Sec. 1).

The generator mimics Jordan-Wigner output: every term carries an even number
of Y letters (real Hamiltonian), flip masks touch at most four spin orbitals
(two-body operators), Z-strings span the JW ladder between them, and the
number of terms scales as O(N^4) capped at ``n_terms``.
"""
from __future__ import annotations

import numpy as np

from repro.hamiltonian.qubit_hamiltonian import QubitHamiltonian

__all__ = ["synthetic_molecular_hamiltonian"]


def synthetic_molecular_hamiltonian(
    n_qubits: int,
    n_terms: int,
    seed: int = 0,
    n_electrons: int | None = None,
) -> QubitHamiltonian:
    rng = np.random.default_rng(seed)
    w = (n_qubits + 63) // 64
    mask64 = (1 << 64) - 1

    xs = np.zeros((n_terms, w), dtype=np.uint64)
    zs = np.zeros((n_terms, w), dtype=np.uint64)
    seen: dict[tuple, int] = {}
    count = 0
    while count < n_terms:
        kind = rng.random()
        if kind < 0.3:
            # Diagonal term: Z-string on 1, 2 or 4 qubits (number operators).
            sites = rng.choice(n_qubits, size=rng.choice([1, 2, 4]), replace=False)
            x = 0
            z = sum(1 << int(s) for s in sites)
        else:
            # Excitation-like term: X/Y pair or quadruple with a JW Z-bridge.
            n_flip = 2 if kind < 0.75 else 4
            sites = np.sort(rng.choice(n_qubits, size=n_flip, replace=False))
            x = sum(1 << int(s) for s in sites)
            # Z string between the flipped pairs.
            z = 0
            for a, b in zip(sites[::2], sites[1::2]):
                for j in range(int(a) + 1, int(b)):
                    z |= 1 << j
            # Promote an even number of flip sites to Y (x & z overlap).
            n_y = 2 * rng.integers(0, n_flip // 2 + 1)
            for s in rng.choice(sites, size=int(n_y), replace=False):
                z |= 1 << int(s)
        key = (x, z)
        if x == 0 and z == 0 or key in seen:
            continue
        seen[key] = count
        for word in range(w):
            xs[count, word] = (x >> (64 * word)) & mask64
            zs[count, word] = (z >> (64 * word)) & mask64
        count += 1

    coeffs = rng.normal(scale=0.1, size=n_terms)
    coeffs[: n_terms // 20] *= 10.0  # a few dominant terms, as in molecules
    return QubitHamiltonian(
        n_qubits=n_qubits,
        x_masks=xs,
        z_masks=zs,
        coeffs=coeffs,
        constant=0.0,
        n_electrons=n_electrons or n_qubits // 4 * 2,
    )
