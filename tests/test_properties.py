"""Tests for 1-RDMs, natural occupations, dipole moments, Mulliken charges."""
import numpy as np
import pytest

from repro.chem import (
    build_problem,
    compute_dipole_integrals,
    compute_integrals,
    dipole_moment,
    make_molecule,
    mulliken_charges,
    natural_occupations,
    one_rdm_spin_orbital,
    run_fci,
    run_rhf,
    spatial_rdm,
)
from repro.hamiltonian import jordan_wigner_fermion_terms


@pytest.fixture(scope="module")
def lih_fci(lih_problem):
    fci = run_fci(lih_problem.hamiltonian)
    gamma = one_rdm_spin_orbital(fci.ground_state, fci.basis)
    return lih_problem, fci, gamma


class TestOneRDM:
    def test_trace_is_electron_count(self, lih_fci):
        prob, _, gamma = lih_fci
        assert np.trace(gamma) == pytest.approx(prob.n_electrons, abs=1e-10)

    def test_symmetric_for_real_state(self, lih_fci):
        _, _, gamma = lih_fci
        np.testing.assert_allclose(gamma, gamma.T, atol=1e-10)

    def test_spin_blocks_decouple(self, lih_fci):
        """<a+_up a_dn> = 0: the RDM is block diagonal in spin."""
        _, _, gamma = lih_fci
        np.testing.assert_allclose(gamma[0::2, 1::2], 0.0, atol=1e-12)
        np.testing.assert_allclose(gamma[1::2, 0::2], 0.0, atol=1e-12)

    def test_matches_operator_expectations(self):
        """Every element equals <v| (a+_P a_Q + a+_Q a_P)/2 |v> from the dense
        matrix of the JW operator, on H2's full 16-state space with a random
        real vector (cross-spin and particle-changing elements included)."""
        from repro.hamiltonian import SectorBasis
        from repro.hamiltonian.pauli import strings_to_matrix

        n = 4
        basis = SectorBasis(n_qubits=n, n_up=0, n_dn=0,
                            keys=np.arange(2**n, dtype=np.uint64)[:, None])
        vec = np.random.default_rng(0).normal(size=2**n)
        vec /= np.linalg.norm(vec)
        gamma = one_rdm_spin_orbital(vec, basis)
        for p in range(n):
            for q in range(n):
                op = jordan_wigner_fermion_terms(
                    [(0.5, [(p, True), (q, False)]), (0.5, [(q, True), (p, False)])], n)
                dense = strings_to_matrix(op.to_terms()) + op.constant * np.eye(2**n)
                assert gamma[p, q] == pytest.approx(float((vec @ dense @ vec).real), abs=1e-12)
        assert abs(gamma[0, 1]) > 1e-3  # the cross-spin block is exercised

    def test_positive_semidefinite(self, lih_fci):
        _, _, gamma = lih_fci
        evals = np.linalg.eigvalsh(0.5 * (gamma + gamma.T))
        assert evals.min() > -1e-10
        assert evals.max() < 1.0 + 1e-10  # spin-orbital occupations in [0, 1]

    def test_hf_determinant_rdm_is_projector(self, h2_problem):
        """For a single determinant the 1-RDM is the occupation projector."""
        from repro.hamiltonian import sector_basis
        from repro.utils.bitstrings import pack_bits, searchsorted_keys

        basis = sector_basis(4, 1, 1)
        vec = np.zeros(basis.dim)
        idx = int(searchsorted_keys(basis.keys, pack_bits(h2_problem.hf_bits))[0])
        vec[idx] = 1.0
        gamma = one_rdm_spin_orbital(vec, basis)
        np.testing.assert_allclose(gamma, np.diag(h2_problem.hf_bits.astype(float)),
                                   atol=1e-12)


class TestNaturalOccupations:
    def test_bounds_and_sum(self, lih_fci):
        prob, _, gamma = lih_fci
        occ = natural_occupations(gamma)
        assert occ.sum() == pytest.approx(prob.n_electrons, abs=1e-9)
        assert np.all(occ > -1e-9)
        assert np.all(occ < 2.0 + 1e-9)
        assert np.all(np.diff(occ) <= 1e-12)  # descending

    def test_weakly_correlated_molecule_near_integer(self, lih_fci):
        """LiH at equilibrium: occupations close to {2, 2, 0, ...}."""
        _, _, gamma = lih_fci
        occ = natural_occupations(gamma)
        assert occ[0] > 1.99
        assert occ[1] > 1.9
        assert occ[2] < 0.1

    def test_spatial_rdm_shape(self, lih_fci):
        prob, _, gamma = lih_fci
        d = spatial_rdm(gamma)
        assert d.shape == (prob.n_qubits // 2, prob.n_qubits // 2)
        assert np.trace(d) == pytest.approx(prob.n_electrons, abs=1e-10)


class TestDipole:
    @pytest.fixture(scope="class")
    def lih_scene(self):
        mol = make_molecule("LiH")
        ints = compute_integrals(mol, "sto-3g")
        scf = run_rhf(ints)
        dip_ao = compute_dipole_integrals(mol, "sto-3g")
        return mol, ints, scf, dip_ao

    def test_h2_dipole_vanishes_by_symmetry(self):
        mol = make_molecule("H2", r=0.7414)
        ints = compute_integrals(mol, "sto-3g")
        scf = run_rhf(ints)
        dip_ao = compute_dipole_integrals(mol, "sto-3g")
        d_hf = np.diag([2.0, 0.0])
        res = dipole_moment(mol, dip_ao, scf.mo_coeff, d_hf)
        assert res.magnitude == pytest.approx(0.0, abs=1e-8)

    def test_lih_dipole_along_axis(self, lih_scene, lih_fci):
        mol, ints, scf, dip_ao = lih_scene
        _, _, gamma = lih_fci
        res = dipole_moment(mol, dip_ao, scf.mo_coeff, spatial_rdm(gamma))
        assert abs(res.total[0]) < 1e-8 and abs(res.total[1]) < 1e-8
        # STO-3G LiH dipole: ~4-5 Debye pointing Li->H.
        assert 3.0 < res.magnitude_debye < 6.5

    def test_origin_independence_for_neutral_molecule(self, lih_scene, lih_fci):
        mol, ints, scf, dip_ao = lih_scene
        _, _, gamma = lih_fci
        d = spatial_rdm(gamma)
        res0 = dipole_moment(mol, dip_ao, scf.mo_coeff, d)
        shifted = compute_dipole_integrals(mol, "sto-3g", origin=[0.3, -1.0, 2.0])
        res1 = dipole_moment(mol, shifted, scf.mo_coeff, d, origin=[0.3, -1.0, 2.0])
        np.testing.assert_allclose(res0.total, res1.total, atol=1e-8)

    def test_correlation_reduces_lih_dipole(self, lih_scene, lih_fci):
        """FCI charge transfer is weaker than HF's: |mu_FCI| < |mu_HF|."""
        mol, ints, scf, dip_ao = lih_scene
        _, _, gamma = lih_fci
        n_orb = spatial_rdm(gamma).shape[0]
        d_hf = np.zeros((n_orb, n_orb))
        d_hf[0, 0] = d_hf[1, 1] = 2.0
        mu_hf = dipole_moment(mol, dip_ao, scf.mo_coeff, d_hf).magnitude
        mu_fci = dipole_moment(mol, dip_ao, scf.mo_coeff, spatial_rdm(gamma)).magnitude
        assert mu_fci < mu_hf

    def test_debye_conversion(self, lih_scene, lih_fci):
        mol, ints, scf, dip_ao = lih_scene
        _, _, gamma = lih_fci
        res = dipole_moment(mol, dip_ao, scf.mo_coeff, spatial_rdm(gamma))
        assert res.magnitude_debye == pytest.approx(res.magnitude * 2.541746473)


class TestMulliken:
    def test_charges_sum_to_total_charge(self):
        mol = make_molecule("LiH")
        ints = compute_integrals(mol, "sto-3g")
        scf = run_rhf(ints)
        n_orb = ints.n_ao
        d_mo = np.zeros((n_orb, n_orb))
        d_mo[0, 0] = d_mo[1, 1] = 2.0
        d_ao = scf.mo_coeff @ d_mo @ scf.mo_coeff.T
        q = mulliken_charges(mol, ints.S, d_ao, ints.basis.ao_atom_indices())
        assert q.sum() == pytest.approx(0.0, abs=1e-10)
        assert len(q) == 2

    def test_water_oxygen_negative(self, h2o_problem):
        mol = make_molecule("H2O")
        ints = compute_integrals(mol, "sto-3g")
        scf = run_rhf(ints)
        n_occ = 5
        d_mo = np.zeros((ints.n_ao, ints.n_ao))
        d_mo[:n_occ, :n_occ] = 2.0 * np.eye(n_occ)
        d_ao = scf.mo_coeff @ d_mo @ scf.mo_coeff.T
        q = mulliken_charges(mol, ints.S, d_ao, ints.basis.ao_atom_indices())
        # Atom order in the geometry table: O first, then the two H.
        assert q[0] < 0.0
        assert q[1] > 0.0 and q[2] > 0.0
        assert q.sum() == pytest.approx(0.0, abs=1e-10)

    def test_ao_atom_indices_cover_all_aos(self):
        mol = make_molecule("H2O")
        ints = compute_integrals(mol, "sto-3g")
        idx = ints.basis.ao_atom_indices()
        assert len(idx) == ints.n_ao
        assert set(idx.tolist()) == {0, 1, 2}
