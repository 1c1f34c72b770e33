"""End-to-end chemistry pipeline: molecule name -> qubit Hamiltonian.

This is the PySCF + OpenFermion portion of the paper's workflow collapsed
into one call, with disk caching of the (deterministic, integral-heavy)
result for the larger Fig. 9 molecules.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.chem.integrals.driver import compute_integrals
from repro.chem.mo_integrals import mo_transform, to_spin_orbitals
from repro.chem.molecules import make_molecule
from repro.chem.scf.rhf import run_rhf
from repro.hamiltonian.jordan_wigner import jordan_wigner
from repro.hamiltonian.qubit_hamiltonian import QubitHamiltonian
from repro.utils.cache import disk_cache

__all__ = ["MolecularProblem", "build_problem"]


@dataclass
class MolecularProblem:
    """Everything the VMC and baseline solvers need for one molecule."""

    name: str
    basis: str
    hamiltonian: QubitHamiltonian
    e_hf: float
    n_qubits: int
    n_electrons: int
    hf_bits: np.ndarray  # (N,) occupation of the HF reference determinant

    @property
    def n_up(self) -> int:
        return self.n_electrons // 2 + self.n_electrons % 2

    @property
    def n_dn(self) -> int:
        return self.n_electrons // 2


# Bump when upstream numerics change in ways that alter cached artifacts
# (v2: multi-guess SCF — N2/O2/C2-class molecules previously cached an
# excited Roothaan solution's MO basis; v3: numpy Boys kernel, MO phases
# fixed by ``run_rhf``'s convention instead of LAPACK's).
_CACHE_VERSION = 3


@disk_cache
def _cached_hamiltonian(name: str, basis: str, geom_kwargs: tuple,
                        n_frozen: int, n_active, version: int = _CACHE_VERSION):
    mol = make_molecule(name, **dict(geom_kwargs))
    ints = compute_integrals(mol, basis)
    scf = run_rhf(ints)
    mo = mo_transform(ints, scf, n_frozen=n_frozen, n_active=n_active)
    so = to_spin_orbitals(mo)
    ham = jordan_wigner(so).prune()
    return ham, scf.energy


def build_problem(name: str, basis: str = "sto-3g", n_frozen: int = 0,
                  n_active: int | None = None, **geom_kwargs) -> MolecularProblem:
    """Molecule name -> :class:`MolecularProblem` (cached on disk)."""
    ham, e_hf = _cached_hamiltonian(
        name, basis.lower(), tuple(sorted(geom_kwargs.items())), n_frozen, n_active,
        version=_CACHE_VERSION,
    )
    n = ham.n_qubits
    n_elec = ham.n_electrons
    hf_bits = np.zeros(n, dtype=np.uint8)
    n_up = n_elec // 2 + n_elec % 2
    n_dn = n_elec // 2
    hf_bits[0 : 2 * n_up : 2] = 1   # alpha spin orbitals of lowest orbitals
    hf_bits[1 : 2 * n_dn : 2] = 1   # beta
    return MolecularProblem(
        name=name,
        basis=basis.lower(),
        hamiltonian=ham,
        e_hf=e_hf,
        n_qubits=n,
        n_electrons=n_elec,
        hf_bits=hf_bits,
    )
