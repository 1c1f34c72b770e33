"""Physics property tests: energies are invariant under rigid motions.

Rigid translations and rotations of the nuclear frame must leave every
energy (HF, MP2, FCI) unchanged — this exercises the entire integral stack
(E-coefficient recurrences, Boys function, cartesian→spherical transforms
for p and d shells) far more sharply than value checks against references.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chem import compute_integrals, make_molecule, run_rhf
from repro.chem.geometry import Molecule


def rotation_matrix(axis: np.ndarray, angle: float) -> np.ndarray:
    axis = np.asarray(axis, dtype=float)
    axis = axis / np.linalg.norm(axis)
    k = np.array([[0, -axis[2], axis[1]],
                  [axis[2], 0, -axis[0]],
                  [-axis[1], axis[0], 0]])
    return np.eye(3) + np.sin(angle) * k + (1 - np.cos(angle)) * (k @ k)


def transform(mol: Molecule, rot: np.ndarray | None = None,
              shift: np.ndarray | None = None) -> Molecule:
    coords = mol.coords_array
    if rot is not None:
        coords = coords @ rot.T
    if shift is not None:
        coords = coords + shift[None, :]
    return Molecule(mol.symbols, tuple(map(tuple, coords)), charge=mol.charge,
                    name=mol.name + "-moved")


def rhf_energy(mol: Molecule, basis: str) -> float:
    return run_rhf(compute_integrals(mol, basis)).energy


class TestTranslationInvariance:
    @settings(max_examples=5, deadline=None)
    @given(st.integers(min_value=0, max_value=10**6))
    def test_h2_translation(self, seed):
        rng = np.random.default_rng(seed)
        mol = make_molecule("H2", r=0.9)
        shift = rng.uniform(-5, 5, 3)
        e0 = rhf_energy(mol, "sto-3g")
        e1 = rhf_energy(transform(mol, shift=shift), "sto-3g")
        assert e1 == pytest.approx(e0, abs=1e-9)

    def test_water_translation_with_p_shells(self):
        mol = make_molecule("H2O")
        e0 = rhf_energy(mol, "sto-3g")
        e1 = rhf_energy(transform(mol, shift=np.array([1.5, -2.0, 0.7])), "sto-3g")
        assert e1 == pytest.approx(e0, abs=1e-9)


class TestRotationInvariance:
    @settings(max_examples=5, deadline=None)
    @given(st.integers(min_value=0, max_value=10**6))
    def test_water_rotation_p_shells(self, seed):
        """Random rigid rotation: p-shell spherical transforms must commute."""
        rng = np.random.default_rng(seed)
        rot = rotation_matrix(rng.standard_normal(3), rng.uniform(0, 2 * np.pi))
        mol = make_molecule("H2O")
        e0 = rhf_energy(mol, "sto-3g")
        e1 = rhf_energy(transform(mol, rot=rot), "sto-3g")
        assert e1 == pytest.approx(e0, abs=1e-9)

    def test_h2_rotation_with_d_shells(self):
        """cc-pVTZ H2 (p and d shells): the l=2 solid-harmonic block rotates."""
        mol = make_molecule("H2", r=0.7414)
        rot = rotation_matrix(np.array([1.0, 2.0, 0.5]), 0.83)
        e0 = rhf_energy(mol, "cc-pvtz")
        e1 = rhf_energy(transform(mol, rot=rot), "cc-pvtz")
        assert e1 == pytest.approx(e0, abs=1e-8)

    def test_combined_rotation_translation_fci(self, h2_problem):
        """End-to-end through Jordan-Wigner + FCI for a moved frame."""
        from repro.chem import mo_transform, run_fci, to_spin_orbitals
        from repro.chem.pipeline import SCREEN_BOUND_HA
        from repro.hamiltonian import jordan_wigner

        mol = make_molecule("H2", r=0.7414)
        rot = rotation_matrix(np.array([0.0, 1.0, 1.0]), 1.234)
        moved = transform(mol, rot=rot, shift=np.array([0.4, 0.0, -2.0]))
        ints = compute_integrals(moved, "sto-3g")
        scf = run_rhf(ints)
        so = to_spin_orbitals(mo_transform(ints, scf))
        ham = jordan_wigner(so).screen(SCREEN_BOUND_HA)
        e_moved = run_fci(ham, n_up=1, n_dn=1).energy
        e_ref = run_fci(h2_problem.hamiltonian).energy
        assert e_moved == pytest.approx(e_ref, abs=1e-9)


class TestSizeConsistency:
    def test_two_far_h2_molecules_additive_energy(self):
        """HF on two H2 units 100 bohr apart = 2 x HF of one unit.

        (HF is size-consistent for closed-shell fragments; this checks the
        integral machinery produces no spurious long-range couplings.)
        """
        r = 0.7414
        one = make_molecule("H2", r=r)
        e1 = rhf_energy(one, "sto-3g")
        bohr = one.coords_array
        two = Molecule(
            ("H", "H", "H", "H"),
            tuple(map(tuple, np.vstack([bohr, bohr + np.array([0, 0, 100.0])]))),
        )
        e2 = rhf_energy(two, "sto-3g")
        assert e2 == pytest.approx(2 * e1, abs=1e-7)


class TestChargedSpecies:
    def test_h3_plus_closed_shell(self):
        """H3+ (2 electrons, equilateral): charge plumbing end to end."""
        side = 0.9
        h = side / np.sqrt(3.0)
        mol = Molecule.from_angstrom(
            [("H", (h, 0.0, 0.0)),
             ("H", (-h / 2, side / 2, 0.0)),
             ("H", (-h / 2, -side / 2, 0.0))],
            charge=1, name="H3+",
        )
        assert mol.n_electrons == 2
        ints = compute_integrals(mol, "sto-3g")
        scf = run_rhf(ints)
        # STO-3G H3+ equilibrium-ish energy: around -1.25 to -1.30 Ha.
        assert -1.35 < scf.energy < -1.15
