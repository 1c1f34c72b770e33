"""Molecular properties from CI vectors and NNQS samples.

Beyond the ground-state energy, a production electronic-structure code must
expose the one-particle reduced density matrix (1-RDM) and the observables
derived from it.  Everything here works on the same determinant-sector
representation as the FCI/CISD solvers, so any CI vector — and, through
:func:`repro.core.observables.sector_expectation`, any NNQS wave function
evaluated on a sector — can be analyzed with the same code path.

Conventions: spin orbitals are interleaved (spatial ``i`` -> qubits ``2i``,
``2i+1``); the 1-RDM is ``gamma[P, Q] = <a+_P a_Q>``; dipole moments are in
atomic units (1 a.u. = 2.5417 Debye) with the electron charge -1.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.chem.geometry import Molecule
from repro.hamiltonian.exact import SectorBasis, SectorOperator
from repro.hamiltonian.jordan_wigner import jordan_wigner_fermion_terms

__all__ = [
    "one_rdm_spin_orbital",
    "spatial_rdm",
    "natural_occupations",
    "DipoleResult",
    "dipole_moment",
    "mulliken_charges",
    "AU_TO_DEBYE",
]

AU_TO_DEBYE = 2.541746473


def one_rdm_spin_orbital(vec: np.ndarray, basis: SectorBasis) -> np.ndarray:
    """1-RDM ``gamma[P, Q] = <v| a+_P a_Q |v>`` for a real normalized CI vector.

    Each element applies the pair operator ``(a+_P a_Q + a+_Q a_P) / 2`` —
    the operator :func:`repro.core.observables.one_rdm_sampled` estimates
    from samples — to the basis as a :class:`SectorOperator`; for a real
    vector its expectation is ``gamma[P, Q] = gamma[Q, P]``.
    """
    vec = np.asarray(vec, dtype=np.float64)
    n = basis.n_qubits
    gamma = np.zeros((n, n))
    for p in range(n):
        for q in range(p, n):
            op = SectorOperator(jordan_wigner_fermion_terms(
                [(0.5, [(p, True), (q, False)]), (0.5, [(q, True), (p, False)])], n,
            ), basis)
            gamma[p, q] = gamma[q, p] = vec @ op.matvec(vec) + op.constant * (vec @ vec)
    return gamma


def spatial_rdm(gamma_so: np.ndarray) -> np.ndarray:
    """Spin-traced spatial 1-RDM: D[i, j] = gamma[2i,2j] + gamma[2i+1,2j+1]."""
    return gamma_so[0::2, 0::2] + gamma_so[1::2, 1::2]


def natural_occupations(gamma_so: np.ndarray) -> np.ndarray:
    """Natural-orbital occupation numbers of the spatial RDM, descending.

    For an N-electron state they lie in [0, 2] and sum to N; deviations from
    {0, 2} measure static correlation.
    """
    d = spatial_rdm(gamma_so)
    occ = np.linalg.eigvalsh(0.5 * (d + d.T))
    return occ[::-1]


@dataclass
class DipoleResult:
    electronic: np.ndarray  # (3,) a.u.
    nuclear: np.ndarray     # (3,) a.u.

    @property
    def total(self) -> np.ndarray:
        return self.electronic + self.nuclear

    @property
    def magnitude(self) -> float:
        return float(np.linalg.norm(self.total))

    @property
    def magnitude_debye(self) -> float:
        return self.magnitude * AU_TO_DEBYE


def dipole_moment(
    molecule: Molecule,
    dipole_ao: np.ndarray,
    mo_coeff: np.ndarray,
    spatial_density: np.ndarray,
    origin=None,
) -> DipoleResult:
    """Total dipole from the spatial 1-RDM (MO basis) and AO moment integrals.

    ``dipole_ao``: output of ``compute_dipole_integrals`` about ``origin``.
    ``spatial_density``: MO-basis spin-traced RDM (HF: diag(2,...,2,0,...)).
    """
    origin = np.zeros(3) if origin is None else np.asarray(origin, dtype=np.float64)
    mu_e = np.zeros(3)
    n_act = spatial_density.shape[0]
    c_act = mo_coeff[:, :n_act]
    d_ao = c_act @ spatial_density @ c_act.T
    for w in range(3):
        mu_e[w] = -np.sum(d_ao * dipole_ao[w])
    z = molecule.atomic_numbers.astype(np.float64)
    mu_n = (z[:, None] * (molecule.coords_array - origin[None, :])).sum(axis=0)
    return DipoleResult(electronic=mu_e, nuclear=mu_n)


def mulliken_charges(
    molecule: Molecule,
    overlap_ao: np.ndarray,
    d_ao: np.ndarray,
    ao_atom_indices: np.ndarray,
) -> np.ndarray:
    """Mulliken atomic charges q_A = Z_A - sum_{mu on A} (D S)_{mu mu}."""
    pops = np.diag(d_ao @ overlap_ao)
    z = molecule.atomic_numbers.astype(np.float64)
    charges = z.copy()
    for mu, a in enumerate(ao_atom_indices):
        charges[a] -= pops[mu]
    return charges
