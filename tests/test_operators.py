"""Tests for the observable operator builders (hamiltonian/operators.py)."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hamiltonian import (
    QubitHamiltonian,
    double_occupancy_operator,
    jordan_wigner_fermion_terms,
    number_dn_operator,
    number_operator,
    number_up_operator,
    occupation_operator,
    one_body_operator,
    s2_operator,
    sector_basis,
    sector_hamiltonian_dense,
    strings_to_matrix,
    sz_operator,
)


def dense(op: QubitHamiltonian) -> np.ndarray:
    dim = 2**op.n_qubits
    mat = np.zeros((dim, dim), dtype=np.complex128)
    terms = op.to_terms()
    if terms:
        mat += strings_to_matrix(terms)
    return mat + op.constant * np.eye(dim)


def config_vector(bits: list[int]) -> np.ndarray:
    """Basis vector of a computational configuration (bit j = qubit j)."""
    n = len(bits)
    idx = sum(b << j for j, b in enumerate(bits))
    v = np.zeros(2**n)
    v[idx] = 1.0
    return v


class TestNumberOperators:
    @pytest.mark.parametrize("bits", [[0, 0, 0, 0], [1, 0, 1, 0], [1, 1, 1, 1], [0, 1, 0, 0]])
    def test_number_eigenvalue(self, bits):
        op = dense(number_operator(4))
        v = config_vector(bits)
        assert v @ op @ v == pytest.approx(sum(bits))

    def test_spin_resolved_counts(self):
        bits = [1, 0, 1, 1, 0, 1]  # up on qubits 0,2 / dn on 3,5
        v = config_vector(bits)
        up = dense(number_up_operator(6))
        dn = dense(number_dn_operator(6))
        assert v @ up @ v == pytest.approx(bits[0] + bits[2] + bits[4])
        assert v @ dn @ v == pytest.approx(bits[1] + bits[3] + bits[5])

    def test_up_plus_dn_equals_total(self):
        n = 6
        total = dense(number_operator(n))
        split = dense(number_up_operator(n)) + dense(number_dn_operator(n))
        np.testing.assert_allclose(total, split, atol=1e-12)

    def test_occupation_operator_is_projector_diag(self):
        op = dense(occupation_operator(1, n_qubits=3))
        # n_p has eigenvalues {0, 1}: it is idempotent.
        np.testing.assert_allclose(op @ op, op, atol=1e-12)
        assert np.trace(op) == pytest.approx(2 ** (3 - 1))


class TestSpinOperators:
    def test_sz_eigenvalues(self):
        op = dense(sz_operator(4))
        v = config_vector([1, 0, 1, 0])  # two up electrons
        assert v @ op @ v == pytest.approx(1.0)
        v = config_vector([0, 1, 0, 1])  # two down
        assert v @ op @ v == pytest.approx(-1.0)
        v = config_vector([1, 1, 0, 0])  # paired
        assert v @ op @ v == pytest.approx(0.0)

    def test_s2_on_singlet_and_triplet(self):
        # Two electrons in two orbitals. The (n_up=1, n_dn=1) sector of S^2
        # contains singlet (0) and triplet (2) combinations.
        s2 = s2_operator(4)
        H, basis = sector_hamiltonian_dense(s2, n_up=1, n_dn=1)
        evals = np.sort(np.linalg.eigvalsh(H))
        # 4 determinants: two closed-shell singlets (|u_i d_i>), plus the
        # open-shell singlet and the S_z=0 triplet component -> {0,0,0,2}.
        assert np.allclose(evals, [0.0, 0.0, 0.0, 2.0], atol=1e-10)

    def test_s2_sz_commute(self):
        a = dense(s2_operator(4))
        b = dense(sz_operator(4))
        np.testing.assert_allclose(a @ b, b @ a, atol=1e-10)

    def test_polarized_state_is_maximal_spin(self):
        # All-up configuration: S = n/2 -> S^2 = (n/2)(n/2+1).
        n_orb = 2
        v = config_vector([1, 0, 1, 0])
        s2 = dense(s2_operator(4))
        assert v @ s2 @ v == pytest.approx(1.0 * (1.0 + 1.0))


class TestDoubleOccupancy:
    def test_counts_paired_orbitals(self):
        op = dense(double_occupancy_operator(4))
        assert config_vector([1, 1, 0, 0]) @ op @ config_vector([1, 1, 0, 0]) == pytest.approx(1.0)
        assert config_vector([1, 0, 0, 1]) @ op @ config_vector([1, 0, 0, 1]) == pytest.approx(0.0)
        assert config_vector([1, 1, 1, 1]) @ op @ config_vector([1, 1, 1, 1]) == pytest.approx(2.0)

    def test_odd_qubits_rejected(self):
        with pytest.raises(ValueError):
            double_occupancy_operator(5)


class TestOneBodyOperator:
    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            one_body_operator(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            one_body_operator(np.zeros((2, 3)))

    def test_diagonal_matrix_is_weighted_number(self):
        o = np.diag([0.5, -0.25, 1.5, 0.0])
        op = dense(one_body_operator(o))
        v = config_vector([1, 1, 0, 1])
        assert v @ op @ v == pytest.approx(0.5 - 0.25 + 0.0)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=2, max_value=4), st.integers(min_value=0, max_value=10**6))
    def test_random_hermitian_matches_dense_construction(self, n, seed):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((n, n))
        o = 0.5 * (a + a.T)
        op = dense(one_body_operator(o))
        # Matrix element <q|O|p> for single-particle states = o[q, p].
        for p in range(n):
            for q in range(n):
                vp = config_vector([1 if j == p else 0 for j in range(n)])
                vq = config_vector([1 if j == q else 0 for j in range(n)])
                # Jordan-Wigner string sign is trivial for single occupation.
                assert vq @ op @ vp == pytest.approx(o[q, p], abs=1e-10)


class TestFermionAlgebra:
    def test_anticommutator_identity(self):
        """{a_p, a+_q} = delta_pq as a dense-matrix identity after JW.

        The two orderings are summed inside one JW call: each product alone
        is not Hermitian (and is correctly rejected), their sum always is.
        """
        n = 3
        for p in range(n):
            for q in range(n):
                anti_op = jordan_wigner_fermion_terms(
                    [(1.0, [(p, False), (q, True)]),
                     (1.0, [(q, True), (p, False)])],
                    n,
                )
                anti = dense(anti_op)
                expected = (1.0 if p == q else 0.0) * np.eye(2**n)
                np.testing.assert_allclose(anti, expected, atol=1e-12)

    def test_non_hermitian_product_rejected(self):
        with pytest.raises(ValueError, match="non-Hermitian"):
            jordan_wigner_fermion_terms([(1.0, [(0, True), (1, False)])], 2)

    def test_number_operator_from_generic_path_matches(self):
        n = 4
        via_terms = jordan_wigner_fermion_terms(
            [(1.0, [(p, True), (p, False)]) for p in range(n)], n
        )
        np.testing.assert_allclose(dense(via_terms), dense(number_operator(n)), atol=1e-12)

    def test_weight_below_tolerance_skipped(self):
        op = jordan_wigner_fermion_terms(
            [(1e-14, [(0, True), (0, False)])], 2, coeff_tol=1e-10
        )
        assert op.n_terms == 0 and op.constant == 0.0


class TestSectorConservation:
    def test_all_observable_ops_conserve_sector(self):
        """Every term of N/Sz/S2/D maps the (1,1) sector into itself."""
        from repro.hamiltonian.compressed import compress_hamiltonian
        from repro.hamiltonian.exact import SectorOperator

        basis = sector_basis(4, 1, 1)
        for op in (number_operator(4), sz_operator(4), s2_operator(4),
                   double_occupancy_operator(4)):
            # the operator keeps only in-basis couplings: one per group and row
            n_groups = compress_hamiltonian(op).n_groups
            assert len(SectorOperator(op, basis).cols) == n_groups * basis.dim, \
                "operator couples outside the sector"
