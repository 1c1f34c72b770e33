"""Quantum-chemistry substrate (the PySCF substitute)."""
from repro.chem.geometry import Molecule
from repro.chem.molecules import MOLECULES, fig9_molecules, make_molecule, paper_table1_molecules
from repro.chem.integrals import AOIntegrals, compute_integrals
from repro.chem.integrals.driver import compute_dipole_integrals
from repro.chem.properties import (
    AU_TO_DEBYE,
    DipoleResult,
    dipole_moment,
    mulliken_charges,
    natural_occupations,
    one_rdm_spin_orbital,
    spatial_rdm,
)
from repro.chem.scf import RHFResult, run_rhf
from repro.chem.mo_integrals import (
    MOIntegrals,
    SpinOrbitalIntegrals,
    mo_transform,
    to_spin_orbitals,
)
from repro.chem.ccsd import CCSDResult, run_ccsd
from repro.chem.mp2 import MP2Result, run_mp2
from repro.chem.fci import FCIResult, run_fci
from repro.chem.ci import TruncatedCIResult, excitation_basis, run_cis, run_cisd, run_truncated_ci
from repro.chem.davidson import DavidsonResult, davidson
from repro.chem.pipeline import MolecularProblem, build_problem

__all__ = [
    "Molecule",
    "MOLECULES",
    "fig9_molecules",
    "make_molecule",
    "paper_table1_molecules",
    "AOIntegrals",
    "compute_integrals",
    "compute_dipole_integrals",
    "AU_TO_DEBYE",
    "DipoleResult",
    "dipole_moment",
    "mulliken_charges",
    "natural_occupations",
    "one_rdm_spin_orbital",
    "spatial_rdm",
    "RHFResult",
    "run_rhf",
    "MOIntegrals",
    "SpinOrbitalIntegrals",
    "mo_transform",
    "to_spin_orbitals",
    "CCSDResult",
    "run_ccsd",
    "MP2Result",
    "run_mp2",
    "FCIResult",
    "run_fci",
    "TruncatedCIResult",
    "excitation_basis",
    "run_cis",
    "run_cisd",
    "run_truncated_ci",
    "DavidsonResult",
    "davidson",
    "MolecularProblem",
    "build_problem",
]
