"""Gaussian integral engine: Boys function, one-/two-electron tensors."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from repro.chem import Molecule, compute_integrals
from repro.chem.basis import build_basis, cartesian_components, element_shells
from repro.chem.integrals import boys, boys_array, kinetic, nuclear_attraction, overlap
from repro.chem.integrals.hermite import e_coefficients, hermite_coulomb_batch


class TestBoys:
    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 6), st.floats(0.0, 40.0))
    def test_matches_quadrature(self, m, x):
        ref, _ = quad(lambda t: t ** (2 * m) * np.exp(-x * t * t), 0.0, 1.0)
        assert boys(m, x) == pytest.approx(ref, rel=1e-8, abs=1e-12)

    def test_at_zero(self):
        for m in range(5):
            assert boys(m, 0.0) == pytest.approx(1.0 / (2 * m + 1))

    def test_downward_recursion_consistency(self):
        x = np.array([0.0, 0.5, 3.0, 25.0])
        fm = boys_array(6, x)
        # F_m(x) = (2x F_{m+1}(x) + exp(-x)) / (2m+1)
        for m in range(6):
            lhs = fm[m]
            rhs = (2 * x * fm[m + 1] + np.exp(-x)) / (2 * m + 1)
            np.testing.assert_allclose(lhs, rhs, rtol=1e-10)

    def test_monotone_decreasing_in_m(self):
        fm = boys_array(5, np.array([1.0]))
        assert np.all(np.diff(fm[:, 0]) < 0)


def boys_hyp1f1(m_max, x):
    """The ``boys_array`` this package had while it imported scipy: Kummer's
    function at the top order, downward recursion below it."""
    from scipy.special import hyp1f1

    x = np.asarray(x, dtype=np.float64)
    out = np.empty((m_max + 1,) + x.shape)
    out[m_max] = hyp1f1(m_max + 0.5, m_max + 1.5, -x) / (2 * m_max + 1)
    ex = np.exp(-x)
    for m in range(m_max - 1, -1, -1):
        out[m] = (2.0 * x * out[m + 1] + ex) / (2 * m + 1)
    return out


# x = 0, twelve decades up to 1e3, and both sides of every switch of the
# numpy kernel: the table/asymptote hand-over at 36, a grid point (k / 8) and
# the midpoint between two, where the nearest grid point changes.
_EPS = np.array([-1e-9, 0.0, 1e-9])
BOYS_GRID = np.unique(np.concatenate([
    [0.0], np.logspace(-12, 3, 46), 36.0 + _EPS, 0.125 + _EPS, 0.0625 + _EPS,
    17.5 + _EPS, 17.5625 + _EPS, 35.9375 + _EPS, [30.0, 49.5, 50.0, 75.0, 400.0],
]))
BOYS_ORDERS = range(9)     # 8 = the L of a d-shell quartet


class TestBoysNumpyKernel:
    """The Boys function in numpy alone (table + Taylor step below x = 36,
    asymptote + upward recursion above): 1e-13 relative is the gate."""

    @pytest.mark.parametrize("m", BOYS_ORDERS)
    def test_matches_hyp1f1(self, m):
        from scipy.special import hyp1f1

        ref = hyp1f1(m + 0.5, m + 1.5, -BOYS_GRID) / (2 * m + 1)
        # Beyond x = 36 hyp1f1 itself loses digits at the top orders (against
        # 40-digit arithmetic: 7e-14 at m = 7, 1.4e-13 at m = 8, near
        # x = 50); quadrature, below, arbitrates there at the full gate.
        rtol = np.where((BOYS_GRID >= 36.0) & (m >= 7), 1e-12, 1e-13)
        got = boys_array(m, BOYS_GRID)[m]
        assert np.all(np.abs(got - ref) <= rtol * ref)

    @pytest.mark.parametrize("m", BOYS_ORDERS)
    def test_matches_quadrature_on_the_grid(self, m):
        got = boys_array(8, BOYS_GRID)[m]      # lower orders by recursion
        for x, value in zip(BOYS_GRID, got):
            # past x = 36 the integrand lives in [0, 6 / sqrt(x)]
            points = [6.0 / np.sqrt(x)] if x > 36.0 else None
            ref, _ = quad(lambda t: t ** (2 * m) * np.exp(-x * t * t), 0.0, 1.0,
                          epsabs=0.0, epsrel=5e-14, limit=400, points=points)
            assert value == pytest.approx(ref, rel=1e-13, abs=0.0), (m, x)

    def test_every_order_from_one_call_matches_its_own_top_order(self):
        """Orders filled by recursion agree with the order computed directly."""
        full = boys_array(8, BOYS_GRID)
        for m in BOYS_ORDERS:
            np.testing.assert_allclose(full[m], boys_array(m, BOYS_GRID)[m], rtol=1e-13)

    def test_recursion_identity_across_the_switch(self):
        x = np.array([35.9, 36.0, 36.1, 60.0, 1e3])
        fm = boys_array(8, x)
        for m in range(8):
            rhs = (2 * x * fm[m + 1] + np.exp(-x)) / (2 * m + 1)
            np.testing.assert_allclose(fm[m], rhs, rtol=1e-13)

    def test_at_zero_all_orders(self):
        fm = boys_array(8, np.zeros(1))[:, 0]
        np.testing.assert_allclose(fm, 1.0 / (2 * np.arange(9) + 1), rtol=1e-15)

    def test_shape_contract(self):
        x = np.linspace(0.0, 80.0, 24).reshape(2, 3, 4)     # both ranges at once
        fm = boys_array(3, x)
        assert fm.shape == (4, 2, 3, 4)
        np.testing.assert_array_equal(fm, boys_array(3, x.ravel()).reshape(4, 2, 3, 4))
        assert boys_array(2, np.zeros((0, 5))).shape == (3, 0, 5)
        assert boys(2, 1.5) == boys_array(2, np.array([1.5]))[2, 0]

    def test_refuses_what_it_cannot_evaluate(self):
        with pytest.raises(ValueError, match="x >= 0"):
            boys_array(0, np.array([1.0, -1e-3]))
        with pytest.raises(ValueError, match="x >= 0"):
            boys_array(0, np.array([np.nan]))
        with pytest.raises(ValueError, match="tabulated"):
            boys_array(17, np.array([1.0]))


class TestAOTensorsAgainstHyp1f1:
    """S, T, V and the ERIs from the numpy Boys kernel against the same code
    fed the hyp1f1-backed one: 1e-12 absolute."""

    @pytest.mark.parametrize("name", ["H2O", "N2"])
    def test_ao_tensors(self, name, monkeypatch):
        from repro.chem import make_molecule
        from repro.chem.integrals import hermite

        mol = make_molecule(name)
        ours = compute_integrals(mol, "sto-3g")
        monkeypatch.setattr(hermite, "boys_array", boys_hyp1f1)
        ref = compute_integrals(mol, "sto-3g")
        for field in ("S", "T", "V", "eri"):
            np.testing.assert_allclose(getattr(ours, field), getattr(ref, field),
                                       rtol=0.0, atol=1e-12, err_msg=field)


class TestHermiteCoefficients:
    def test_e000_is_gaussian_product_prefactor(self):
        a, b, q = 1.3, 0.7, 0.9
        E = e_coefficients(0, 0, a, b, q)
        assert E[0, 0, 0] == pytest.approx(np.exp(-a * b / (a + b) * q * q))

    def test_ss_overlap_analytic(self):
        # <s_a|s_b> = (pi/p)^{3/2} exp(-mu R^2) for unit-coefficient primitives
        a, b = 0.8, 1.1
        R = np.array([0.0, 0.0, 1.2])
        E = [e_coefficients(0, 0, a, b, -R[d]) for d in range(3)]
        p = a + b
        s = np.prod([E[d][0, 0, 0] for d in range(3)]) * (np.pi / p) ** 1.5
        mu = a * b / p
        ref = (np.pi / p) ** 1.5 * np.exp(-mu * 1.2**2)
        assert s == pytest.approx(ref)

    def test_translation_invariance(self):
        E1 = e_coefficients(2, 1, 0.9, 0.4, 0.7)
        E2 = e_coefficients(2, 1, 0.9, 0.4, 0.7)
        np.testing.assert_array_equal(E1, E2)

    def test_hermite_coulomb_batch_r000(self):
        alpha = np.array([0.7, 1.9])
        rpq = np.array([[0.1, -0.4, 0.8], [0.0, 0.0, 0.0]])
        R = hermite_coulomb_batch(0, alpha, rpq)
        x2 = (rpq**2).sum(axis=1)
        for i in range(2):
            assert R[i, 0, 0, 0] == pytest.approx(boys(0, alpha[i] * x2[i]))


@pytest.fixture(scope="module")
def h2_ints():
    mol = Molecule(symbols=("H", "H"), coords=((0, 0, 0), (0, 0, 1.4)), name="H2")
    return compute_integrals(mol, "sto-3g")


class TestH2SzaboReference:
    """Textbook STO-3G values at R = 1.4 bohr (Szabo & Ostlund, Table 3.5+)."""

    def test_overlap(self, h2_ints):
        assert h2_ints.S[0, 1] == pytest.approx(0.6593, abs=2e-4)
        np.testing.assert_allclose(np.diag(h2_ints.S), 1.0, atol=1e-10)

    def test_kinetic(self, h2_ints):
        assert h2_ints.T[0, 0] == pytest.approx(0.7600, abs=2e-4)
        assert h2_ints.T[0, 1] == pytest.approx(0.2365, abs=2e-4)

    def test_nuclear_attraction(self, h2_ints):
        # V = V1 + V2; Szabo: V1_11 = -1.2266, V2_11 = -0.6538 => -1.8804
        assert h2_ints.V[0, 0] == pytest.approx(-1.8804, abs=3e-4)
        assert h2_ints.V[0, 1] == pytest.approx(-1.1948, abs=3e-4)

    def test_eri(self, h2_ints):
        eri = h2_ints.eri
        assert eri[0, 0, 0, 0] == pytest.approx(0.7746, abs=2e-4)
        assert eri[0, 0, 1, 1] == pytest.approx(0.5697, abs=2e-4)
        assert eri[1, 0, 0, 0] == pytest.approx(0.4441, abs=2e-4)
        assert eri[1, 0, 1, 0] == pytest.approx(0.2970, abs=2e-4)

    def test_nuclear_repulsion(self, h2_ints):
        assert h2_ints.e_nuc == pytest.approx(1.0 / 1.4)


class TestTensorSymmetries:
    @pytest.fixture(scope="class")
    def lih_ints(self):
        mol = Molecule.from_angstrom([("Li", (0, 0, 0)), ("H", (0, 0, 1.6))])
        return compute_integrals(mol, "sto-3g")

    def test_one_electron_symmetric(self, lih_ints):
        for M in (lih_ints.S, lih_ints.T, lih_ints.V):
            np.testing.assert_allclose(M, M.T, atol=1e-12)

    def test_overlap_positive_definite(self, lih_ints):
        assert np.linalg.eigvalsh(lih_ints.S).min() > 0

    def test_kinetic_positive_definite(self, lih_ints):
        assert np.linalg.eigvalsh(lih_ints.T).min() > 0

    def test_nuclear_attraction_negative_diagonal(self, lih_ints):
        assert np.all(np.diag(lih_ints.V) < 0)

    def test_eri_eightfold_symmetry(self, lih_ints):
        eri = lih_ints.eri
        rng = np.random.default_rng(5)
        n = eri.shape[0]
        for _ in range(60):
            p, q, r, s = rng.integers(0, n, size=4)
            v = eri[p, q, r, s]
            for perm in (
                (q, p, r, s), (p, q, s, r), (q, p, s, r),
                (r, s, p, q), (s, r, p, q), (r, s, q, p), (s, r, q, p),
            ):
                assert eri[perm] == pytest.approx(v, abs=1e-10)

    def test_eri_diagonal_positive(self, lih_ints):
        n = lih_ints.eri.shape[0]
        for p in range(n):
            assert lih_ints.eri[p, p, p, p] > 0


class TestBasisConstruction:
    def test_sto3g_h_exponents_match_published(self):
        shells = element_shells("H", "sto-3g")
        np.testing.assert_allclose(
            shells[0][1], [3.42525091, 0.62391373, 0.16885540], rtol=1e-5
        )

    def test_sto3g_c_2sp_exponents(self):
        shells = element_shells("C", "sto-3g")
        sp = [s for s in shells if s[0] == 1][0]
        np.testing.assert_allclose(sp[1], [2.9412494, 0.6834831, 0.2222899], rtol=1e-5)

    def test_qubit_counts_match_paper(self):
        """Spin-orbital counts of the Table 1 / Fig. 9 systems."""
        from repro.chem import make_molecule

        expected = {  # molecule: qubits = 2 * n_ao
            "H2O": 14, "N2": 20, "O2": 20, "H2S": 22, "PH3": 24,
            "LiCl": 28, "Li2O": 30, "LiH": 12, "C2": 20, "NH3": 16,
            "C2H4O": 38, "C3H6": 42, "BeH2": 14,
        }
        for name, qubits in expected.items():
            basis = build_basis(make_molecule(name), "sto-3g")
            assert 2 * basis.n_ao == qubits, name

    def test_benzene_631g_with_frozen_core_is_120_qubits(self):
        from repro.chem import make_molecule

        basis = build_basis(make_molecule("C6H6"), "6-31g")
        assert basis.n_ao == 66  # 9 per C + 2 per H
        assert 2 * (basis.n_ao - 6) == 120  # paper freezes the six C 1s cores

    def test_cc_pvtz_h2_counts(self):
        mol = Molecule.from_angstrom([("H", (0, 0, 0)), ("H", (0, 0, 0.74))])
        assert 2 * build_basis(mol, "cc-pvtz").n_ao == 56
        assert 2 * build_basis(mol, "aug-cc-pvtz").n_ao == 92

    def test_cartesian_component_enumeration(self):
        assert cartesian_components(0) == [(0, 0, 0)]
        assert cartesian_components(1) == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
        assert len(cartesian_components(2)) == 6

    def test_unknown_basis_raises(self):
        with pytest.raises(ValueError):
            element_shells("H", "def2-qzvpp")

    def test_unsupported_element_raises(self):
        with pytest.raises(ValueError):
            element_shells("Fe", "sto-3g")

    def test_d_function_overlap_normalized(self):
        """Spherical d AOs on one center must have unit self-overlap."""
        mol = Molecule(symbols=("H",), coords=((0, 0, 0),))
        ints = compute_integrals(mol, "cc-pvtz")
        np.testing.assert_allclose(np.diag(ints.S), 1.0, atol=1e-10)

    def test_d_block_orthogonality_on_center(self):
        mol = Molecule(symbols=("H",), coords=((0, 0, 0),))
        ints = compute_integrals(mol, "cc-pvtz")
        # The 5 spherical d components are mutually orthogonal.
        S = ints.S
        d = slice(S.shape[0] - 5, S.shape[0])
        np.testing.assert_allclose(S[d, d], np.eye(5), atol=1e-10)
