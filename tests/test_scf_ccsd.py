"""RHF, MP2 and CCSD against reference energies and internal consistency."""
import numpy as np
import pytest

from repro.chem import (
    Molecule,
    compute_integrals,
    make_molecule,
    mo_transform,
    run_ccsd,
    run_fci,
    run_rhf,
    to_spin_orbitals,
)
from tests.mp2 import run_mp2


@pytest.fixture(scope="module")
def h2():
    ints = compute_integrals(make_molecule("H2", r=0.7414), "sto-3g")
    scf = run_rhf(ints)
    return ints, scf


@pytest.fixture(scope="module")
def h2o():
    ints = compute_integrals(make_molecule("H2O"), "sto-3g")
    scf = run_rhf(ints)
    return ints, scf


class TestRHF:
    def test_h2_energy(self, h2):
        _, scf = h2
        assert scf.converged
        assert scf.energy == pytest.approx(-1.11668, abs=2e-4)

    def test_h2o_energy(self, h2o):
        _, scf = h2o
        assert scf.converged
        # Paper Table 1: -74.964 (geometry differences ~ 1 mHa)
        assert scf.energy == pytest.approx(-74.963, abs=5e-3)

    def test_density_idempotent(self, h2o):
        ints, scf = h2o
        D, S = scf.density, ints.S
        # Restricted density: D S D = 2 D
        np.testing.assert_allclose(D @ S @ D, 2.0 * D, atol=1e-8)

    def test_electron_count(self, h2o):
        ints, scf = h2o
        assert np.einsum("pq,pq->", scf.density, ints.S) == pytest.approx(10.0)

    def test_mo_orthonormal(self, h2o):
        ints, scf = h2o
        C = scf.mo_coeff
        np.testing.assert_allclose(C.T @ ints.S @ C, np.eye(C.shape[1]), atol=1e-8)

    def test_orbital_energies_sorted(self, h2o):
        _, scf = h2o
        assert np.all(np.diff(scf.mo_energy) >= -1e-10)

    def test_fock_diagonal_in_mo_basis(self, h2o):
        ints, scf = h2o
        Fmo = scf.mo_coeff.T @ scf.fock @ scf.mo_coeff
        np.testing.assert_allclose(Fmo, np.diag(scf.mo_energy), atol=1e-6)

    def test_odd_electron_count_rejected(self):
        mol = Molecule(symbols=("H",), coords=((0, 0, 0),))
        with pytest.raises(ValueError):
            run_rhf(compute_integrals(mol, "sto-3g"))

    def test_n2_finds_the_ground_scf_solution(self):
        """Regression: core-guess + immediate DIIS converges N2 to an
        aufbau-stable *excited* Roothaan solution 0.73 Ha too high; the
        multi-guess strategy must land on the literature ground solution."""
        scf = run_rhf(compute_integrals(make_molecule("N2"), "sto-3g"))
        assert scf.converged
        assert scf.energy == pytest.approx(-107.495892, abs=1e-5)

    @pytest.mark.parametrize("atoms,lit", [
        ([("Cl", (0.0, 0.0, 0.0)), ("H", (0.0, 0.0, 1.2746))], -455.136),
        ([("Li", (0.0, 0.0, 0.0)), ("Li", (0.0, 0.0, 2.673))], -14.6388),
    ])
    def test_literature_anchors_third_row_and_li(self, atoms, lit):
        """HCl and Li2 STO-3G energies anchor the Cl/Li basis tables."""
        mol = Molecule.from_angstrom(atoms)
        scf = run_rhf(compute_integrals(mol, "sto-3g"))
        assert scf.energy == pytest.approx(lit, abs=2e-3)

    def test_aufbau_homo_lumo_gap_positive(self, h2o):
        _, scf = h2o
        assert scf.mo_energy[scf.n_occ] > scf.mo_energy[scf.n_occ - 1]


def leading_coefficients(C):
    """Per column: the first AO coefficient above half the column's largest."""
    big = np.abs(C) > 0.5 * np.abs(C).max(axis=0)
    return C[big.argmax(axis=0), np.arange(C.shape[1])]


def perturbed(ints, rng, scale=1e-14):
    """``ints`` with relative noise of ``scale`` on every tensor, permutational
    symmetries kept: a stand-in for another BLAS build or Boys kernel."""
    from dataclasses import replace

    def noisy(a, perms):
        g = rng.standard_normal(a.shape)
        g = sum(g.transpose(p) for p in perms) / len(perms)
        return a * (1.0 + scale * g)

    pair = [(0, 1), (1, 0)]
    eight = [(0, 1, 2, 3), (1, 0, 2, 3), (0, 1, 3, 2), (1, 0, 3, 2),
             (2, 3, 0, 1), (3, 2, 0, 1), (2, 3, 1, 0), (3, 2, 1, 0)]
    return replace(ints, S=noisy(ints.S, pair), T=noisy(ints.T, pair),
                   V=noisy(ints.V, pair), eri=noisy(ints.eri, eight))


class TestMOPhaseConvention:
    """MO phases are ``run_rhf``'s convention, not LAPACK's."""

    @pytest.mark.parametrize("name", ["LiH", "H2O", "N2"])
    def test_every_column_leads_positive(self, name):
        scf = run_rhf(compute_integrals(make_molecule(name), "sto-3g"))
        assert np.all(leading_coefficients(scf.mo_coeff) > 0.0)

    @pytest.mark.parametrize("name", ["LiH", "H2O"])
    def test_signs_survive_last_digit_noise_upstream(self, name):
        """What the convention fixes: every non-degenerate column.  (Inside a
        degenerate pair — LiH's two virtual pi orbitals — ``eigh`` is free to
        return any rotation of the pair, and noise decides which.)"""
        ints = compute_integrals(make_molecule(name), "sto-3g")
        ref = run_rhf(ints)
        gaps = np.diff(ref.mo_energy)
        alone = np.append(gaps, np.inf) > 1e-6
        alone &= np.insert(gaps, 0, np.inf) > 1e-6
        assert alone.sum() == {"LiH": 4, "H2O": 7}[name]
        rng = np.random.default_rng(7)
        for _ in range(4):
            scf = run_rhf(perturbed(ints, rng))
            np.testing.assert_allclose(scf.mo_coeff[:, alone], ref.mo_coeff[:, alone],
                                       rtol=0.0, atol=1e-9)
            assert scf.energy == pytest.approx(ref.energy, abs=1e-10)

    def test_convention_is_a_column_sign_and_nothing_else(self):
        from repro.chem.scf.rhf import _fix_phases

        rng = np.random.default_rng(3)
        C = rng.standard_normal((7, 5))
        # an antibonding pair: the two largest coefficients equal and opposite
        C[:, 2] = [0.1, 0.7, -0.2, -0.7, 0.05, 0.0, 0.3]
        fixed = _fix_phases(C)
        np.testing.assert_array_equal(np.abs(fixed), np.abs(C))
        assert np.all(leading_coefficients(fixed) > 0.0)
        np.testing.assert_array_equal(_fix_phases(-C), fixed)
        np.testing.assert_array_equal(fixed @ fixed.T, C @ C.T)     # densities agree


class TestMOIntegrals:
    def test_core_hamiltonian_invariant_trace(self, h2o):
        ints, scf = h2o
        mo = mo_transform(ints, scf)
        # MO transform is unitary wrt S: eigenvalues of S^-1 h are preserved.
        ao_eigs = np.sort(np.linalg.eigvals(np.linalg.solve(ints.S, ints.hcore)).real)
        mo_eigs = np.sort(np.linalg.eigvalsh(mo.h))
        np.testing.assert_allclose(mo_eigs, ao_eigs, atol=1e-8)

    def test_frozen_core_reduces_size(self, h2o):
        ints, scf = h2o
        mo = mo_transform(ints, scf, n_frozen=1)
        assert mo.n_orb == 6
        assert mo.n_electrons == 8
        # Frozen-core total energy at the HF level must match full HF:
        so = to_spin_orbitals(mo)
        n_occ = mo.n_electrons
        w = so.antisymmetrized
        o = slice(0, n_occ)
        e_hf_frozen = (
            np.einsum("ii->", so.h1[o, o])
            + 0.5 * np.einsum("ijij->", w[o, o, o, o])
            + so.e_nuc
        )
        assert e_hf_frozen == pytest.approx(scf.energy, abs=1e-8)

    def test_spin_orbital_spin_blocks(self, h2):
        ints, scf = h2
        so = to_spin_orbitals(mo_transform(ints, scf))
        # One-body: no up-down mixing.
        assert np.abs(so.h1[0::2, 1::2]).max() == 0
        # Two-body physicists' <PQ|RS>: spin of P must match R, Q match S.
        g = so.g2
        assert np.abs(g[0::2, :, 1::2, :]).max() == 0
        assert np.abs(g[:, 0::2, :, 1::2]).max() == 0

    def test_antisymmetrized_property(self, h2):
        ints, scf = h2
        so = to_spin_orbitals(mo_transform(ints, scf))
        w = so.antisymmetrized
        np.testing.assert_allclose(w, -w.transpose(0, 1, 3, 2), atol=1e-12)
        np.testing.assert_allclose(w, -w.transpose(1, 0, 2, 3), atol=1e-12)
        np.testing.assert_allclose(w, w.transpose(1, 0, 3, 2), atol=1e-12)


class TestCCSD:
    def test_h2_ccsd_equals_fci(self, h2):
        ints, scf = h2
        so = to_spin_orbitals(mo_transform(ints, scf))
        cc = run_ccsd(so)
        assert cc.converged
        # For 2 electrons CCSD is exact: FCI(H2/STO-3G, 0.7414 A) = -1.13727
        assert cc.energy == pytest.approx(-1.13727, abs=2e-4)

    def test_scf_energy_reproduced_internally(self, h2o):
        ints, scf = h2o
        so = to_spin_orbitals(mo_transform(ints, scf))
        cc = run_ccsd(so)
        assert cc.e_scf == pytest.approx(scf.energy, abs=1e-8)

    def test_correlation_energy_negative(self, h2o):
        ints, scf = h2o
        so = to_spin_orbitals(mo_transform(ints, scf))
        cc = run_ccsd(so)
        assert cc.converged
        assert cc.e_corr < 0

    def test_h2o_ccsd_close_to_fci(self, h2o, h2o_problem):
        from repro.chem import run_fci

        ints, scf = h2o
        so = to_spin_orbitals(mo_transform(ints, scf))
        cc = run_ccsd(so)
        fci = run_fci(h2o_problem.hamiltonian)
        # Paper Table 1: CCSD within ~0.1 mHa of FCI for H2O/STO-3G.
        assert cc.energy == pytest.approx(fci.energy, abs=5e-4)
        assert cc.energy >= fci.energy - 1e-6  # FCI is the variational floor


class TestMP2:
    def test_between_hf_and_fci(self, h2o_problem):
        ints = compute_integrals(make_molecule("H2O"), "sto-3g")
        scf = run_rhf(ints)
        mp2 = run_mp2(to_spin_orbitals(mo_transform(ints, scf)))
        fci = run_fci(h2o_problem.hamiltonian).energy
        assert mp2.e_corr < 0
        assert fci - 5e-3 < mp2.energy < scf.energy

    def test_h2_mp2_below_hf(self):
        ints = compute_integrals(make_molecule("H2", r=0.7414), "sto-3g")
        scf = run_rhf(ints)
        mp2 = run_mp2(to_spin_orbitals(mo_transform(ints, scf)))
        assert mp2.energy < scf.energy
        assert mp2.e_scf == pytest.approx(scf.energy, abs=1e-8)
