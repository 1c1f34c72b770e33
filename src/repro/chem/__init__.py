"""Quantum-chemistry substrate (the PySCF substitute)."""
from repro._lazy import lazy_exports

# ``davidson`` is also a submodule's name, so it is bound now (``repro._lazy``).
from repro.chem.davidson import davidson

_EXPORTS = {
    "Molecule": ".geometry",
    "MOLECULES": ".molecules",
    "fig9_molecules": ".molecules",
    "make_molecule": ".molecules",
    "paper_table1_molecules": ".molecules",
    "AOIntegrals": ".integrals",
    "compute_integrals": ".integrals",
    "compute_dipole_integrals": ".integrals.driver",
    "AU_TO_DEBYE": ".properties",
    "DipoleResult": ".properties",
    "dipole_moment": ".properties",
    "mulliken_charges": ".properties",
    "natural_occupations": ".properties",
    "one_rdm_spin_orbital": ".properties",
    "spatial_rdm": ".properties",
    "RHFResult": ".scf",
    "run_rhf": ".scf",
    "MOIntegrals": ".mo_integrals",
    "SpinOrbitalIntegrals": ".mo_integrals",
    "mo_transform": ".mo_integrals",
    "to_spin_orbitals": ".mo_integrals",
    "CCSDResult": ".ccsd",
    "run_ccsd": ".ccsd",
    "FCIResult": ".fci",
    "run_fci": ".fci",
    "TruncatedCIResult": ".ci",
    "excitation_basis": ".ci",
    "run_cis": ".ci",
    "run_cisd": ".ci",
    "run_truncated_ci": ".ci",
    "DavidsonResult": ".davidson",
    "davidson": ".davidson",
    "MolecularProblem": ".pipeline",
    "build_problem": ".pipeline",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
