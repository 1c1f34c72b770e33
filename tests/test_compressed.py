"""Compressed Hamiltonian storage (Fig. 6 / Algorithm 1) + the exact solver."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.chem.fci as fci_module
from repro.chem import run_fci
from repro.chem.ci import excitation_basis
from repro.chem.davidson import DavidsonResult, davidson
from repro.hamiltonian import (
    QubitHamiltonian,
    SectorOperator,
    build_reference,
    compress_hamiltonian,
    sector_basis,
    sector_hamiltonian_dense,
    strings_to_matrix,
)
from repro.utils.bitstrings import unpack_bits
from tests.synthetic import synthetic_molecular_hamiltonian


class TestCompression:
    def test_group_structure_valid_csr(self, h2o_problem):
        comp = compress_hamiltonian(h2o_problem.hamiltonian)
        assert comp.idxs[0] == 0
        assert comp.idxs[-1] == comp.n_terms
        assert np.all(np.diff(comp.idxs) > 0)
        assert comp.n_groups == len(comp.xy_unique)
        assert comp.n_groups < comp.n_terms  # actual compression happened

    def test_xy_unique_are_unique(self, h2o_problem):
        comp = compress_hamiltonian(h2o_problem.hamiltonian)
        assert len(np.unique(comp.xy_unique, axis=0)) == comp.n_groups

    def test_coefficient_phase_folding(self, h2_problem):
        h = h2_problem.hamiltonian
        comp = compress_hamiltonian(h)
        # Total spectral content preserved: compare dense matrices.
        H_orig = strings_to_matrix(h.to_terms()).real + h.constant * np.eye(2**h.n_qubits)
        Hs, basis = sector_hamiltonian_dense(comp, 1, 1)
        # Embed sector matrix and compare elementwise against the dense H.
        for i in range(basis.dim):
            for j in range(basis.dim):
                bi = unpack_bits(basis.keys[i], h.n_qubits)[0]
                bj = unpack_bits(basis.keys[j], h.n_qubits)[0]
                ii = int(sum(int(b) << k for k, b in enumerate(bi)))
                jj = int(sum(int(b) << k for k, b in enumerate(bj)))
                assert Hs[i, j] == pytest.approx(H_orig[ii, jj], abs=1e-9)

    def test_memory_reduction_positive_for_molecules(self, h2o_problem):
        h = h2o_problem.hamiltonian
        ref = build_reference(h)
        comp = compress_hamiltonian(h)
        reduction = 1.0 - comp.memory_bytes() / ref.memory_bytes()
        assert reduction > 0.30  # paper reports ~40% across molecules

    def test_reference_memory_formula(self, h2_problem):
        ref = build_reference(h2_problem.hamiltonian)
        n, k = h2_problem.n_qubits, ref.n_terms
        assert ref.memory_bytes() == k * (2 * n + 16)

    def test_odd_y_rejected(self):
        h = QubitHamiltonian(
            n_qubits=2,
            x_masks=np.array([[1]], dtype=np.uint64),
            z_masks=np.array([[1]], dtype=np.uint64),  # one Y letter
            coeffs=np.array([1.0]),
        )
        with pytest.raises(ValueError):
            compress_hamiltonian(h)

    def test_group_sizes_sum(self, lih_problem):
        comp = compress_hamiltonian(lih_problem.hamiltonian)
        assert comp.group_sizes().sum() == comp.n_terms


class TestSectorBasis:
    @settings(max_examples=15, deadline=None)
    @given(st.integers(1, 4), st.integers(0, 3), st.integers(0, 3))
    def test_dimension_is_binomial_product(self, n_orb, n_up, n_dn):
        from math import comb

        if n_up > n_orb or n_dn > n_orb:
            return
        basis = sector_basis(2 * n_orb, n_up, n_dn)
        assert basis.dim == comb(n_orb, n_up) * comb(n_orb, n_dn)

    def test_all_states_in_sector(self):
        basis = sector_basis(8, 2, 1)
        bits = basis.bits()
        np.testing.assert_array_equal(bits[:, 0::2].sum(axis=1), 2)
        np.testing.assert_array_equal(bits[:, 1::2].sum(axis=1), 1)

    def test_keys_sorted_and_unique(self):
        basis = sector_basis(10, 2, 2)
        assert len(np.unique(basis.keys, axis=0)) == basis.dim

    def test_odd_qubits_rejected(self):
        with pytest.raises(ValueError):
            sector_basis(7, 1, 1)


class TestExactSolver:
    def test_matches_dense_diagonalization_synthetic(self):
        h = synthetic_molecular_hamiltonian(n_qubits=8, n_terms=60, seed=3, n_electrons=4)
        fci = run_fci(h, n_up=2, n_dn=2)
        H = strings_to_matrix(h.to_terms())
        assert np.abs(H.imag).max() < 1e-10
        # Project dense H onto the sector and diagonalize.
        idx = []
        for i in range(fci.dim):
            bits = unpack_bits(fci.basis.keys[i], 8)[0]
            idx.append(int(sum(int(b) << k for k, b in enumerate(bits))))
        Hs = H.real[np.ix_(idx, idx)]
        ref = np.linalg.eigvalsh(Hs)[0]
        assert fci.energy == pytest.approx(ref + h.constant, abs=1e-8)

    def test_ground_state_is_eigenvector(self, h2_problem):
        comp = compress_hamiltonian(h2_problem.hamiltonian)
        fci = run_fci(comp, 1, 1)
        Hs, _ = sector_hamiltonian_dense(comp, 1, 1)
        resid = Hs @ fci.ground_state - fci.energy * fci.ground_state
        assert np.abs(resid).max() < 1e-8

    def test_infers_sector_from_electron_count(self, h2_problem):
        e_auto = run_fci(h2_problem.hamiltonian).energy
        e_explicit = run_fci(h2_problem.hamiltonian, 1, 1).energy
        assert e_auto == pytest.approx(e_explicit)

    def test_large_sector_uses_iterative_path(self, beh2_problem, monkeypatch):
        """BeH2/STO-3G, C(7,3)^2 = 1225 determinants: above the dense cut, so
        Davidson solves it, and it agrees with the dense spectrum."""
        calls = []

        def spy(*args, **kwargs):
            calls.append(1)
            return davidson(*args, **kwargs)

        monkeypatch.setattr(fci_module, "davidson", spy)
        fci = run_fci(beh2_problem.hamiltonian)
        assert fci.dim == 1225 > fci_module.DENSE_MAX_DIM
        assert calls == [1]
        Hs, _ = sector_hamiltonian_dense(beh2_problem.hamiltonian, 3, 3)
        assert fci.energy == pytest.approx(np.linalg.eigvalsh(Hs)[0], abs=1e-10)

    def test_operator_keeps_each_in_basis_coupling_once(self, lih_problem):
        """A truncated basis loses couplings: none is stored, the rest once."""
        basis = excitation_basis(lih_problem.hf_bits, 2)
        op = SectorOperator(lih_problem.hamiltonian, basis)
        assert op.rows.min() >= 0 and op.rows.max() < basis.dim
        pairs = op.rows * basis.dim + op.cols
        assert len(np.unique(pairs)) == len(pairs)
        n_groups = compress_hamiltonian(lih_problem.hamiltonian).n_groups
        assert len(pairs) < n_groups * basis.dim

    def test_unconverged_davidson_raises(self, beh2_problem, monkeypatch):
        def stalled(matvec, diag, **kwargs):
            return DavidsonResult(np.zeros(1), np.zeros((len(diag), 1)), 400,
                                  200, False, np.array([3e-4]))

        monkeypatch.setattr(fci_module, "davidson", stalled)
        with pytest.raises(RuntimeError, match=r"failed to converge.*0\.0003"):
            run_fci(beh2_problem.hamiltonian)


class TestSynthetic:
    def test_even_y_counts(self):
        h = synthetic_molecular_hamiltonian(40, 500, seed=1)
        assert np.all(h.y_counts() % 2 == 0)

    def test_unique_terms(self):
        h = synthetic_molecular_hamiltonian(30, 300, seed=2)
        keys = {(tuple(x), tuple(z)) for x, z in zip(h.x_masks, h.z_masks)}
        assert len(keys) == h.n_terms

    def test_dense_hermitian_small(self):
        h = synthetic_molecular_hamiltonian(6, 30, seed=4)
        H = strings_to_matrix(h.to_terms())
        np.testing.assert_allclose(H, H.conj().T, atol=1e-12)
        assert np.abs(H.imag).max() < 1e-12

    def test_multiword_masks(self):
        h = synthetic_molecular_hamiltonian(120, 200, seed=6)
        assert h.x_masks.shape == (200, 2)
        assert compress_hamiltonian(h).n_groups <= 200
