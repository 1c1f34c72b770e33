"""Hamiltonian storage schemes of Fig. 6 and the Algorithm-1 preprocessing.

Three representations, with byte-level memory accounting used by the Fig. 9
benchmark:

* Fig. 6(a) — symbolic list of Pauli strings (``QubitHamiltonian.term_strings``).
* Fig. 6(b) — the Ref. [27] scheme (:class:`ReferenceHamiltonianData`): per
  term, a boolean "Pauli mat XY" tuple (X or Y occurrence, the flip mask), a
  boolean "Pauli mat YZ" tuple (Y or Z occurrence, the sign mask), and an
  integer Y-occurrence count used for the phase.
* Fig. 6(c) — the paper's compressed scheme (:class:`CompressedHamiltonian`):
  only the *unique* XY masks are kept, the YZ masks are reorganized into a
  contiguous buffer grouped by XY mask with a CSR-style ``idxs`` offset array,
  and the Y-phase ``real((-i)^{Y_occ})`` is folded into the coefficient
  in-place (Algorithm 1, line 13).

Because every Pauli string sharing an XY mask couples an input configuration
``x`` to the *same* output ``x' = x XOR mask``, the compressed layout lets the
local-energy kernel evaluate each unique coupled configuration exactly once
(Fig. 7(b)) — that is what the SA/FUSE/LUT kernels in
``repro.core.local_energy`` consume.

:func:`reduce_terms` goes one step further for the local-energy plan: inside
a group that flips at most :data:`PATTERN_QUBITS` qubits, all in one 64-bit
word (any such group up to 64 qubits), the terms that share their Z/Y letters
off the flipped qubits differ only in how they read those few qubits, so
their signed sum is a function of the flipped qubits' occupation and one
parity — a table of 16 patterns per *reduced term*.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.dtypes import bool_, int64
from repro.hamiltonian.qubit_hamiltonian import QubitHamiltonian
from repro.utils.bitstrings import lexsort_keys, popcount64

__all__ = [
    "ReferenceHamiltonianData",
    "CompressedHamiltonian",
    "build_reference",
    "compress_hamiltonian",
    "PATTERN_QUBITS",
    "ReducedTerms",
    "reduce_terms",
]

# The widest flip whose occupation patterns the local-energy plan tabulates
# (2^4 = 16 patterns): a fermionic two-body term flips at most 4 spin orbitals.
PATTERN_QUBITS = 4


@dataclass
class ReferenceHamiltonianData:
    """Fig. 6(b): one (XY, YZ, Y-count, coeff) record per Pauli string."""

    n_qubits: int
    xy: np.ndarray        # (K, W) uint64
    yz: np.ndarray        # (K, W) uint64
    y_occ: np.ndarray     # (K,) int64
    coeffs: np.ndarray    # (K,) float64
    constant: float

    @property
    def n_terms(self) -> int:
        return len(self.coeffs)

    def memory_bytes(self) -> int:
        """Booleans stored 1 byte/qubit (two tuples) + int + float per term."""
        per_term = 2 * self.n_qubits + 8 + 8
        return self.n_terms * per_term


@dataclass
class CompressedHamiltonian:
    """Fig. 6(c) / Algorithm 1 output.

    ``idxs[g] : idxs[g+1]`` delimits the YZ records of unique XY mask ``g``
    in the contiguous ``yz_buf`` / ``coeffs_buf`` buffers.
    """

    n_qubits: int
    xy_unique: np.ndarray   # (G, W) uint64 — compressed Pauli mat XY
    idxs: np.ndarray        # (G + 1,) int64 — CSR offsets into the buffers
    yz_buf: np.ndarray      # (K, W) uint64 — reorganized Pauli mat YZ
    coeffs_buf: np.ndarray  # (K,) float64 — phase-folded coefficients
    constant: float
    n_electrons: int | None = None

    @property
    def n_groups(self) -> int:
        """N_h^opt: number of unique XY masks."""
        return len(self.xy_unique)

    @property
    def n_terms(self) -> int:
        return len(self.coeffs_buf)

    def memory_bytes(self) -> int:
        """Unique XY tuples + offsets + YZ tuples + coefficients."""
        return (
            self.n_groups * self.n_qubits          # compressed Pauli mat XY
            + (self.n_groups + 1) * 8              # idxs
            + self.n_terms * self.n_qubits         # Pauli mat YZ
            + self.n_terms * 8                     # new coefficients
        )

    def group_sizes(self) -> np.ndarray:
        return np.diff(self.idxs)


def build_reference(h: QubitHamiltonian) -> ReferenceHamiltonianData:
    """Fig. 6(b): the Ref. [27] layout, straight from the term list."""
    return ReferenceHamiltonianData(
        n_qubits=h.n_qubits,
        xy=h.x_masks.copy(),
        yz=h.z_masks.copy(),
        y_occ=h.y_counts(),
        coeffs=h.coeffs.copy(),
        constant=h.constant,
    )


def compress_hamiltonian(h: QubitHamiltonian) -> CompressedHamiltonian:
    """Algorithm 1: group by XY mask, fold the Y phase into the coefficients.

    For molecular (real) Hamiltonians every Pauli string carries an even
    number of Y letters, so ``real((-i)^{Y_occ}) = (-1)^{Y_occ / 2}`` is +-1;
    an odd count would make the term's matrix elements imaginary and is
    rejected.
    """
    y_occ = h.y_counts()
    if np.any(y_occ % 2):
        raise ValueError("odd Y-count term: Hamiltonian not real — cannot fold phase")
    folded = h.coeffs * np.where(y_occ % 4 == 0, 1.0, -1.0)  # (-1)^{y/2}

    order = lexsort_keys(h.x_masks)
    xy_sorted = h.x_masks[order]
    yz_sorted = h.z_masks[order]
    coeff_sorted = folded[order]

    # Find group boundaries among the sorted XY masks.
    if len(xy_sorted) == 0:
        new_group = np.zeros(0, dtype=bool_)
    else:
        new_group = np.ones(len(xy_sorted), dtype=bool_)
        new_group[1:] = np.any(xy_sorted[1:] != xy_sorted[:-1], axis=1)
    starts = np.flatnonzero(new_group)
    idxs = np.concatenate([starts, [len(xy_sorted)]]).astype(int64)

    return CompressedHamiltonian(
        n_qubits=h.n_qubits,
        xy_unique=xy_sorted[starts],
        idxs=idxs,
        yz_buf=yz_sorted,
        coeffs_buf=coeff_sorted,
        constant=h.constant,
        n_electrons=h.n_electrons,
    )


@dataclass(frozen=True)
class ReducedTerms:
    """The terms of every XY group regrouped into *reduced terms*.

    A group's *pattern qubits* are the qubits it flips when it flips at most
    :data:`PATTERN_QUBITS` of them, all in one 64-bit word, else none.  The
    terms of a reduced term share a group and their YZ letters off the
    pattern qubits (``yz & ~pattern``, the *sign mask*), so on a
    configuration ``x`` their signs differ only through ``x``'s occupation
    of the pattern qubits.  In a group without pattern qubits every distinct
    YZ mask is its own reduced term, under its whole mask.

    ``order`` lists the term buffer group by group, each reduced term's
    terms adjacent and in buffer order (a stable sort); reduced terms run in
    ascending sign-mask order (``lexsort_keys``) inside their group.
    """

    order: np.ndarray          # (K,) int64 — term permutation
    idxs: np.ndarray           # (R + 1,) int64 — CSR offsets of each reduced term into order
    group_idxs: np.ndarray     # (G + 1,) int64 — CSR offsets of each group's reduced terms
    pattern_masks: np.ndarray  # (G, W) uint64 — the pattern qubits of each group
    sign_masks: np.ndarray     # (R, W) uint64 — yz & ~pattern of each reduced term

    @property
    def n_reduced(self) -> int:
        return len(self.idxs) - 1


def reduce_terms(comp: CompressedHamiltonian, first_group: int = 0) -> ReducedTerms:
    """The :class:`ReducedTerms` of any :class:`CompressedHamiltonian`,
    hand-made ones included (vectorized: no loop over groups).

    Groups before ``first_group`` get no reduced terms (``order`` skips their
    terms; their ``group_idxs`` span is empty): the plan evaluates the
    diagonal group as a quadratic form and reads none of its terms.  Every
    other group's reduced terms are the ones a full reduction gives, in the
    same order."""
    n_groups, n_words = comp.xy_unique.shape
    t0 = int(comp.idxs[first_group]) if n_groups else 0
    group_of_term = np.repeat(np.arange(n_groups), np.diff(comp.idxs))[t0:]
    n_flips = popcount64(comp.xy_unique).sum(axis=1)
    # Pattern qubits must share one word: the plan's multiply-shift cannot
    # separate qubits that sit high in different words (63 and 127 both
    # contribute 2^63 under any multipliers that keep them apart from 0).
    one_word = np.count_nonzero(comp.xy_unique, axis=1) <= 1
    pattern = np.where(((n_flips <= PATTERN_QUBITS) & one_word)[:, None],
                       comp.xy_unique, np.uint64(0))
    sign = comp.yz_buf[t0:] & ~pattern[group_of_term]
    # np.lexsort is stable and sorts by its last key first: group, then the
    # sign mask in lexsort_keys order (last word most significant).
    order = np.lexsort([sign[:, w] for w in range(n_words)] + [group_of_term])
    sign, group_of_term = sign[order], group_of_term[order]
    new = np.ones(len(order), dtype=bool_)
    new[1:] = (group_of_term[1:] != group_of_term[:-1]) | np.any(
        sign[1:] != sign[:-1], axis=1)
    starts = np.flatnonzero(new)
    return ReducedTerms(
        order=(order + t0).astype(int64),
        idxs=np.append(starts, len(order)).astype(int64),
        group_idxs=np.searchsorted(group_of_term[starts],
                                   np.arange(n_groups + 1)).astype(int64),
        pattern_masks=pattern,
        sign_masks=sign[starts],
    )
