"""Molecule container, geometry presets, element tables."""
import numpy as np
import pytest

from repro.chem import MOLECULES, Molecule, make_molecule
from repro.chem.elements import ANGSTROM_TO_BOHR, atomic_number
from repro.chem.molecules import fig9_molecules, geometry_keys, paper_table1_molecules


class TestElements:
    def test_atomic_numbers(self):
        assert atomic_number("H") == 1
        assert atomic_number("C") == 6
        assert atomic_number("Cl") == 17

    def test_case_insensitive(self):
        assert atomic_number("cl") == 17
        assert atomic_number("h") == 1

    def test_unknown_raises(self):
        with pytest.raises(ValueError):
            atomic_number("Xx")


class TestMolecule:
    def test_angstrom_conversion(self):
        m = Molecule.from_angstrom([("H", (0, 0, 0)), ("H", (0, 0, 1.0))])
        assert m.coords[1][2] == pytest.approx(ANGSTROM_TO_BOHR)

    def test_electron_count_and_charge(self):
        m = Molecule.from_angstrom([("O", (0, 0, 0))], charge=-2)
        assert m.n_electrons == 10

    def test_nuclear_repulsion_pair(self):
        m = Molecule(symbols=("H", "H"), coords=((0, 0, 0), (0, 0, 2.0)))
        assert m.nuclear_repulsion() == pytest.approx(0.5)

    def test_nuclear_repulsion_triangle(self):
        m = Molecule(
            symbols=("H", "H", "H"),
            coords=((0, 0, 0), (1, 0, 0), (0, 1, 0)),
            charge=1,
        )
        expected = 1.0 + 1.0 + 1.0 / np.sqrt(2.0)
        assert m.nuclear_repulsion() == pytest.approx(expected)

    def test_immutability(self):
        m = make_molecule("H2")
        with pytest.raises(Exception):
            m.charge = 1  # frozen dataclass


class TestPresets:
    def test_all_presets_build(self):
        for name in MOLECULES:
            m = make_molecule(name)
            assert m.n_atoms >= 1
            assert m.n_electrons > 0

    def test_unknown_preset_raises(self):
        with pytest.raises(ValueError):
            make_molecule("unobtainium")

    def test_geometry_kwargs_forwarded(self):
        short = make_molecule("H2", r=0.5)
        longer = make_molecule("H2", r=1.5)
        assert longer.nuclear_repulsion() < short.nuclear_repulsion()

    def test_geometry_keys_are_what_make_molecule_accepts(self):
        """Each molecule builds with exactly its geometry_keys and refuses
        any other keyword."""
        assert geometry_keys("H2") == ("r",)
        assert geometry_keys("H2O") == ("r", "theta_deg")
        assert geometry_keys("NH3") == ()
        for name in MOLECULES:
            keys = geometry_keys(name)
            shifted = make_molecule(name, **{k: 1.1 for k in keys})
            assert shifted.n_electrons == make_molecule(name).n_electrons
            with pytest.raises(TypeError, match="bogus"):
                make_molecule(name, bogus=1.0)

    def test_electron_counts_match_paper_table1(self):
        expected = {"H2O": 10, "N2": 14, "O2": 16, "H2S": 18, "PH3": 18,
                    "LiCl": 20, "Li2O": 14}
        for name, n_e in expected.items():
            assert make_molecule(name).n_electrons == n_e, name

    def test_paper_lists(self):
        assert set(paper_table1_molecules()) <= set(MOLECULES)
        assert set(fig9_molecules()) <= set(MOLECULES)

    def test_nh3_bond_lengths(self):
        m = make_molecule("NH3")
        r = m.coords_array
        for h in range(1, 4):
            d = np.linalg.norm(r[h] - r[0]) / ANGSTROM_TO_BOHR
            assert d == pytest.approx(1.0124, abs=1e-3)

    def test_benzene_ring_geometry(self):
        m = make_molecule("C6H6")
        r = m.coords_array
        carbons = [i for i, s in enumerate(m.symbols) if s == "C"]
        d = np.linalg.norm(r[carbons[0]] - r[carbons[1]]) / ANGSTROM_TO_BOHR
        assert d == pytest.approx(1.397, abs=1e-3)

    def test_cyclopropane_cc_bond(self):
        m = make_molecule("C3H6")
        r = m.coords_array
        carbons = [i for i, s in enumerate(m.symbols) if s == "C"]
        d = np.linalg.norm(r[carbons[0]] - r[carbons[1]]) / ANGSTROM_TO_BOHR
        assert d == pytest.approx(1.512, abs=1e-3)
