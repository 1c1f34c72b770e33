"""Container for a qubit (spin) Hamiltonian: H = sum_i c_i P_i  (Eq. 10).

Terms are stored in the symplectic (x_mask, z_mask) representation as packed
uint64 arrays so the local-energy kernels can operate on them with vectorized
numpy.  Coefficients are kept in the *letter* basis (real for molecular
Hamiltonians); the identity constant (including nuclear repulsion) is kept
separately so <H> is the total energy.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.hamiltonian.pauli import PauliTerm, xz_to_letters
from repro.utils.bitstrings import popcount64

__all__ = ["QubitHamiltonian"]


@dataclass
class QubitHamiltonian:
    n_qubits: int
    x_masks: np.ndarray       # (K, W) uint64 — XY occurrence masks (flip masks)
    z_masks: np.ndarray       # (K, W) uint64 — YZ occurrence masks (sign masks)
    coeffs: np.ndarray        # (K,) float64 — letter-basis coefficients
    constant: float = 0.0     # identity coefficient (incl. nuclear repulsion)
    n_electrons: int | None = None
    screened_terms: int = 0       # terms ``screen`` dropped, and ...
    screened_weight: float = 0.0  # ... their summed |c|: a bound on ||H_raw - H||

    def __post_init__(self):
        self.x_masks = np.atleast_2d(np.asarray(self.x_masks, dtype=np.uint64))
        self.z_masks = np.atleast_2d(np.asarray(self.z_masks, dtype=np.uint64))
        self.coeffs = np.asarray(self.coeffs, dtype=np.float64)

    @property
    def n_terms(self) -> int:
        """N_h: number of non-identity Pauli strings."""
        return len(self.coeffs)

    @property
    def n_words(self) -> int:
        return self.x_masks.shape[1]

    def y_counts(self) -> np.ndarray:
        """Number of Y letters per term = |x & z|."""
        return popcount64(self.x_masks & self.z_masks).sum(axis=1)

    def to_terms(self) -> list[PauliTerm]:
        """Expand into PauliTerm objects (letter-basis coeff -> xz coeff)."""
        out = []
        for k in range(self.n_terms):
            x = z = 0
            for w in range(self.n_words):
                x |= int(self.x_masks[k, w]) << (64 * w)
                z |= int(self.z_masks[k, w]) << (64 * w)
            n_y = bin(x & z).count("1")
            out.append(
                PauliTerm(x=x, z=z, coeff=self.coeffs[k] * (1j) ** n_y, n=self.n_qubits)
            )
        return out

    def term_strings(self) -> list[tuple[float, str]]:
        """[(coeff, 'XYZI...'), ...] — the Fig. 6(a) symbolic representation."""
        out = []
        for t in self.to_terms():
            out.append((float(np.real(t.letter_coeff())), xz_to_letters(t.x, t.z, self.n_qubits)))
        return out

    def memory_bytes_symbolic(self) -> int:
        """Fig. 6(a): one byte per Pauli letter + an 8-byte coefficient."""
        return self.n_terms * (self.n_qubits + 8)

    def screen(self, bound: float) -> "QubitHamiltonian":
        """This Hamiltonian without its smallest-|c| terms, dropped for as long
        as their summed |c| stays <= ``bound``; the kept terms keep their order.

        Every Pauli string has operator norm 1, so the dropped part moves no
        energy, of any state, by more than the summed |c| it carried: the
        result records that sum in ``screened_weight`` (and the count in
        ``screened_terms``), added to what earlier screens dropped, and a
        second screen spends only what is left of ``bound`` — screening is
        idempotent and the bound holds against the unscreened operator.
        ``screen(0)`` drops exactly the zero coefficients.
        """
        mags = np.abs(self.coeffs)
        order = np.argsort(mags, kind="stable")
        spent = self.screened_weight + np.cumsum(mags[order])
        n_drop = int(np.searchsorted(spent, bound, side="right"))
        keep = np.ones(self.n_terms, dtype=bool)
        keep[order[:n_drop]] = False
        return QubitHamiltonian(
            n_qubits=self.n_qubits,
            x_masks=self.x_masks[keep],
            z_masks=self.z_masks[keep],
            coeffs=self.coeffs[keep],
            constant=self.constant,
            n_electrons=self.n_electrons,
            screened_terms=self.screened_terms + n_drop,
            screened_weight=float(spent[n_drop - 1]) if n_drop else self.screened_weight,
        )
