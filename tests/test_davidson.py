"""Tests for the Davidson–Liu eigensolver and the sector operator's diagonal."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chem import build_problem
from repro.chem.davidson import davidson
from repro.hamiltonian import (
    SectorOperator,
    sector_basis,
    sector_hamiltonian_dense,
)


def diag_dominant_matrix(rng: np.random.Generator, dim: int, coupling: float = 0.05):
    """Random symmetric matrix with a spread, dominant diagonal (CI-like)."""
    a = coupling * rng.standard_normal((dim, dim))
    m = 0.5 * (a + a.T)
    np.fill_diagonal(m, np.sort(rng.uniform(-2.0, 2.0, dim)))
    return m


class TestDavidsonOnMatrices:
    @settings(max_examples=15, deadline=None)
    @given(st.integers(min_value=5, max_value=60), st.integers(min_value=0, max_value=10**6))
    def test_matches_eigh_ground_state(self, dim, seed):
        rng = np.random.default_rng(seed)
        m = diag_dominant_matrix(rng, dim)
        res = davidson(lambda v: m @ v, np.diag(m).copy(), k=1, tol=1e-10, rng=rng)
        exact = np.linalg.eigvalsh(m)[0]
        assert res.converged
        assert res.eigenvalues[0] == pytest.approx(exact, abs=1e-8)

    def test_multiple_eigenpairs(self):
        rng = np.random.default_rng(7)
        m = diag_dominant_matrix(rng, 80)
        res = davidson(lambda v: m @ v, np.diag(m).copy(), k=3, tol=1e-9, rng=rng)
        exact = np.linalg.eigvalsh(m)[:3]
        assert res.converged
        np.testing.assert_allclose(np.sort(res.eigenvalues), exact, atol=1e-7)

    def test_eigenvectors_are_orthonormal_and_satisfy_eig_equation(self):
        rng = np.random.default_rng(3)
        m = diag_dominant_matrix(rng, 50)
        res = davidson(lambda v: m @ v, np.diag(m).copy(), k=2, tol=1e-10, rng=rng)
        X = res.eigenvectors
        np.testing.assert_allclose(X.T @ X, np.eye(2), atol=1e-8)
        for j in range(2):
            r = m @ X[:, j] - res.eigenvalues[j] * X[:, j]
            assert np.linalg.norm(r) < 1e-8

    def test_subspace_collapse_path(self):
        """Force thick restarts with a tiny max_subspace; must still converge."""
        rng = np.random.default_rng(11)
        m = diag_dominant_matrix(rng, 120, coupling=0.15)
        res = davidson(lambda v: m @ v, np.diag(m).copy(), k=1, tol=1e-9,
                       max_subspace=6, rng=rng)
        assert res.converged
        assert res.eigenvalues[0] == pytest.approx(np.linalg.eigvalsh(m)[0], abs=1e-7)

    def test_degenerate_diagonal(self):
        """Constant diagonal (useless preconditioner) still converges."""
        rng = np.random.default_rng(5)
        a = rng.standard_normal((30, 30))
        m = 0.5 * (a + a.T)
        np.fill_diagonal(m, 1.0)
        res = davidson(lambda v: m @ v, np.diag(m).copy(), k=1, tol=1e-8,
                       max_iterations=500, rng=rng)
        assert res.eigenvalues[0] == pytest.approx(np.linalg.eigvalsh(m)[0], abs=1e-6)

    def test_k_larger_than_dim_raises(self):
        with pytest.raises(ValueError):
            davidson(lambda v: v, np.ones(3), k=5)

    def test_explicit_start_block(self):
        rng = np.random.default_rng(1)
        m = diag_dominant_matrix(rng, 40)
        exact_vec = np.linalg.eigh(m)[1][:, 0]
        res = davidson(lambda v: m @ v, np.diag(m).copy(), k=1,
                       v0=exact_vec[:, None], tol=1e-10, rng=rng)
        assert res.n_iterations <= 2  # should converge almost immediately

    def test_matvec_count_reported(self):
        rng = np.random.default_rng(9)
        m = diag_dominant_matrix(rng, 40)
        res = davidson(lambda v: m @ v, np.diag(m).copy(), k=1, tol=1e-9, rng=rng)
        assert res.n_matvec >= 1
        assert res.n_matvec < 200  # diag-dominant: should be a handful


class TestSectorDiagonal:
    def test_matches_dense_diagonal_h2(self, h2_problem):
        op = SectorOperator(h2_problem.hamiltonian, sector_basis(4, 1, 1))
        H, _ = sector_hamiltonian_dense(h2_problem.hamiltonian, 1, 1)
        np.testing.assert_allclose(op.diagonal + op.constant, np.diag(H), atol=1e-10)

    def test_matches_dense_diagonal_lih(self, lih_problem):
        op = SectorOperator(lih_problem.hamiltonian,
                            sector_basis(lih_problem.n_qubits, 2, 2))
        H, _ = sector_hamiltonian_dense(lih_problem.hamiltonian, 2, 2)
        np.testing.assert_allclose(op.diagonal + op.constant, np.diag(H), atol=1e-9)


class TestDavidsonFCIIntegration:
    @pytest.mark.parametrize("problem, n_elec", [("lih_problem", 2), ("h2o_problem", 5)])
    def test_davidson_matches_dense(self, request, problem, n_elec):
        """Dense eigh and Davidson on one sector operator (LiH 225, H2O 441)."""
        prob = request.getfixturevalue(problem)
        op = SectorOperator(prob.hamiltonian,
                            sector_basis(prob.n_qubits, n_elec, n_elec))
        w, v = np.linalg.eigh(op.dense())
        res = davidson(op.matvec, op.diagonal, k=1, tol=1e-9)
        assert res.converged
        assert res.eigenvalues[0] == pytest.approx(w[0], abs=1e-8)
        vec = res.eigenvectors[:, 0]
        assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-8)
        assert abs(vec @ v[:, 0]) == pytest.approx(1.0, abs=1e-8)
