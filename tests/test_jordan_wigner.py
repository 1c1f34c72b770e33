"""Jordan-Wigner transformation: operator algebra and molecular anchors."""
import numpy as np
import pytest

from repro.chem import build_problem, make_molecule, compute_integrals, run_rhf
from repro.chem.mo_integrals import mo_transform, to_spin_orbitals
from repro.hamiltonian import (
    QubitHamiltonian,
    jordan_wigner,
    ladder_terms,
    strings_to_matrix,
    term_matrix,
)


def dense_ladder(p: int, dagger: bool, n: int) -> np.ndarray:
    out = np.zeros((2**n, 2**n), dtype=complex)
    for x, z, c in ladder_terms(p, dagger):
        out += c * term_matrix(x, z, n)
    return out


class TestLadderOperators:
    def test_annihilation_matrix_single_mode(self):
        a = dense_ladder(0, dagger=False, n=1)
        np.testing.assert_allclose(a, [[0, 1], [0, 0]], atol=1e-12)

    def test_creation_is_adjoint(self):
        for p in range(3):
            a = dense_ladder(p, dagger=False, n=3)
            c = dense_ladder(p, dagger=True, n=3)
            np.testing.assert_allclose(c, a.conj().T, atol=1e-12)

    def test_canonical_anticommutation(self):
        n = 3
        for p in range(n):
            for q in range(n):
                a_p = dense_ladder(p, False, n)
                c_q = dense_ladder(q, True, n)
                anti = a_p @ c_q + c_q @ a_p
                np.testing.assert_allclose(
                    anti, np.eye(2**n) * (1.0 if p == q else 0.0), atol=1e-12
                )

    def test_same_type_anticommute(self):
        n = 3
        for p in range(n):
            for q in range(n):
                a_p = dense_ladder(p, False, n)
                a_q = dense_ladder(q, False, n)
                np.testing.assert_allclose(a_p @ a_q + a_q @ a_p, 0.0, atol=1e-12)

    def test_number_operator_diagonal(self):
        n = 2
        for p in range(n):
            num = dense_ladder(p, True, n) @ dense_ladder(p, False, n)
            diag = np.diag(num).real
            for idx in range(2**n):
                assert diag[idx] == ((idx >> p) & 1)


class TestMolecularJW:
    def test_h2_term_count(self, h2_problem):
        # H2/STO-3G famously maps to 15 Pauli strings (incl. identity).
        assert h2_problem.hamiltonian.n_terms == 14

    def test_h2_even_y_counts(self, h2_problem):
        assert np.all(h2_problem.hamiltonian.y_counts() % 2 == 0)

    def test_h2_dense_spectrum_matches_fci_sector(self, h2_problem):
        from repro.chem import run_fci

        H = strings_to_matrix(h2_problem.hamiltonian.to_terms())
        assert np.abs(H.imag).max() < 1e-10
        ground_all = np.linalg.eigvalsh(H.real)[0] + h2_problem.hamiltonian.constant
        fci = run_fci(h2_problem.hamiltonian)
        # For H2 the global ground state lies in the half-filling sector.
        assert fci.energy == pytest.approx(ground_all, abs=1e-9)

    def test_hamiltonian_commutes_with_number_ops(self, h2_problem):
        n = h2_problem.n_qubits
        H = strings_to_matrix(h2_problem.hamiltonian.to_terms())
        # N_up = sum over even qubits of (I - Z)/2
        for parity in (0, 1):
            num = np.zeros_like(H)
            for q in range(parity, n, 2):
                num += (np.eye(2**n) - term_matrix(0, 1 << q, n)) / 2.0
            np.testing.assert_allclose(H @ num, num @ H, atol=1e-9)

    def test_hf_expectation_matches_rhf_energy(self, h2o_problem):
        """<HF| H |HF> must equal the SCF energy — a strong end-to-end check."""
        from repro.hamiltonian import compress_hamiltonian, sector_hamiltonian_dense
        from repro.utils.bitstrings import pack_bits, searchsorted_keys

        comp = compress_hamiltonian(h2o_problem.hamiltonian)
        Hs, basis = sector_hamiltonian_dense(
            comp, h2o_problem.n_up, h2o_problem.n_dn
        )
        key = pack_bits(h2o_problem.hf_bits[None, :])
        idx = searchsorted_keys(basis.keys, key)[0]
        assert idx >= 0
        assert Hs[idx, idx] == pytest.approx(h2o_problem.e_hf, abs=1e-7)

    def test_constant_contains_nuclear_repulsion(self, h2_problem):
        mol = make_molecule("H2", r=0.7414)
        # constant = e_nuc + identity Pauli coefficient; it must differ from
        # e_nuc (the JW identity term is nonzero) but track it.
        assert h2_problem.hamiltonian.constant != pytest.approx(mol.nuclear_repulsion())

    def test_lih_sector_energy_below_hf(self, lih_problem):
        from repro.chem import run_fci

        fci = run_fci(lih_problem.hamiltonian)
        assert fci.energy < lih_problem.e_hf
        # LiH/STO-3G FCI is about -7.8823 Ha at r = 1.5949 A.
        assert fci.energy == pytest.approx(-7.8823, abs=2e-3)

    @pytest.mark.slow
    def test_hermiticity_of_dense_form(self, lih_problem):
        H = strings_to_matrix(lih_problem.hamiltonian.to_terms()[:50])
        np.testing.assert_allclose(H, H.conj().T, atol=1e-10)


class TestFrozenCore:
    def test_frozen_core_h2o_close_to_full_fci(self):
        from repro.chem import run_fci

        full = build_problem("H2O", "sto-3g")
        frozen = build_problem("H2O", "sto-3g", n_frozen=1)
        assert frozen.n_qubits == full.n_qubits - 2
        e_full = run_fci(full.hamiltonian).energy
        e_frozen = run_fci(frozen.hamiltonian).energy
        # Freezing the O 1s core costs < 1 mHa of correlation energy.
        assert e_frozen == pytest.approx(e_full, abs=1e-3)
        assert e_frozen >= e_full - 1e-9  # frozen space is a subspace


# ---------------------------------------------------------------------------
# The array kernel against the dictionary oracle (tests/jw_oracle.py)
# ---------------------------------------------------------------------------
from importlib import import_module

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hamiltonian import QubitHamiltonian, jordan_wigner_fermion_terms

from jw_oracle import jordan_wigner_dict, jordan_wigner_fermion_terms_dict

# ``repro.hamiltonian`` re-exports a *function* named ``jordan_wigner`` over the module.
jw_module = import_module("repro.hamiltonian.jordan_wigner")

# partial products per chunk: one product at a time, seven four-operator
# products at a time, everything at once
CHUNKS = [1, 7 * 16, 1 << 62]


def assert_identical(got: QubitHamiltonian, ref: QubitHamiltonian) -> None:
    """Masks, coefficients, constant *and term order*, bit for bit."""
    assert got.n_qubits == ref.n_qubits and got.n_electrons == ref.n_electrons
    assert got.x_masks.shape == ref.x_masks.shape
    np.testing.assert_array_equal(got.x_masks, ref.x_masks)
    np.testing.assert_array_equal(got.z_masks, ref.z_masks)
    np.testing.assert_array_equal(got.coeffs, ref.coeffs)
    assert got.constant == ref.constant


def spin_orbital_integrals(name: str, **geom):
    ints = compute_integrals(make_molecule(name, **geom), "sto-3g")
    return to_spin_orbitals(mo_transform(ints, run_rhf(ints)))


class TestArrayKernelMatchesDictOracle:
    @pytest.mark.parametrize("name", ["H2", "LiH", "H2O", "N2"])
    def test_molecules(self, name):
        so = spin_orbital_integrals(name)
        assert_identical(jordan_wigner(so), jordan_wigner_dict(so))

    @pytest.mark.parametrize("chunk", CHUNKS)
    @pytest.mark.parametrize("name", ["H2", "LiH"])
    def test_any_chunk_size_gives_the_same_bits(self, name, chunk, monkeypatch):
        so = spin_orbital_integrals(name)
        ref = jordan_wigner_dict(so)
        monkeypatch.setattr(jw_module, "_CHUNK_PARTIALS", chunk)
        assert_identical(jordan_wigner(so), ref)

    def test_complex_hermitian_one_body_operator(self, rng):
        from repro.hamiltonian import one_body_operator

        a = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        o = a + a.conj().T
        terms = [(o[p, q], [(p, True), (q, False)])
                 for p in range(6) for q in range(6)]
        ref = jordan_wigner_fermion_terms_dict(terms, 6, constant=0.25)
        assert_identical(one_body_operator(o, constant=0.25), ref)
        assert ref.n_terms > 6          # the hopping strings are there

    @pytest.mark.parametrize("chunk", CHUNKS)
    def test_seventy_qubits_two_words(self, chunk, monkeypatch, rng):
        """Strings that cross the 64-bit word boundary (W = 2)."""
        n = 70
        terms = []
        for p, q in [(0, 69), (62, 65), (63, 64), (64, 66), (5, 63), (64, 64), (3, 3)]:
            w = float(rng.normal())
            terms.append((w, [(p, True), (q, False)]))
            terms.append((w, [(q, True), (p, False)]))
        for p, q in [(1, 68), (63, 64), (10, 20)]:       # n_p n_q
            terms.append((float(rng.normal()),
                          [(p, True), (p, False), (q, True), (q, False)]))
        for p, q, r, s in [(2, 67, 30, 64), (63, 65, 0, 69)]:   # double excitation + h.c.
            w = float(rng.normal())
            terms.append((w, [(p, True), (q, True), (r, False), (s, False)]))
            terms.append((w, [(s, True), (r, True), (q, False), (p, False)]))
        ref = jordan_wigner_fermion_terms_dict(terms, n)
        assert ref.x_masks.shape[1] == 2 and ref.x_masks[:, 1].any()
        monkeypatch.setattr(jw_module, "_CHUNK_PARTIALS", chunk)
        assert_identical(jordan_wigner_fermion_terms(terms, n), ref)

    def test_orbital_outside_the_register_is_refused(self):
        with pytest.raises(ValueError, match="orbital index"):
            jordan_wigner_fermion_terms([(1.0, [(4, True), (4, False)])], 4)
        with pytest.raises(ValueError, match="orbital index"):
            jordan_wigner_fermion_terms([(1.0, [(-1, True), (0, False)])], 4)

    def test_empty_input_and_bare_constant(self):
        assert_identical(jordan_wigner_fermion_terms([], 4, constant=1.5),
                         jordan_wigner_fermion_terms_dict([], 4, constant=1.5))
        terms = [(0.5, []), (2.0, [(1, True), (1, False)]), (1e-12, [(0, True)])]
        assert_identical(jordan_wigner_fermion_terms(terms, 4),
                         jordan_wigner_fermion_terms_dict(terms, 4))


_N_HYP = 6
_product = st.lists(st.tuples(st.integers(0, _N_HYP - 1), st.booleans()),
                    min_size=1, max_size=4)
_weight = st.complex_numbers(min_magnitude=1e-3, max_magnitude=4.0,
                             allow_nan=False, allow_infinity=False)
_real_weight = st.floats(-4.0, 4.0).filter(lambda w: abs(w) > 1e-3)


def _with_conjugates(terms):
    """Every product followed by its Hermitian conjugate: the sum is Hermitian."""
    out = []
    for w, ops in terms:
        out.append((w, ops))
        out.append((np.conj(w), [(p, not d) for p, d in reversed(ops)]))
    return out


class TestFermionTermsMatchDictOracle:
    """1- to 4-operator products, complex weights, repeated orbitals."""

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(_weight, _product), min_size=1, max_size=12),
           st.sampled_from(CHUNKS))
    def test_hermitian_sums(self, terms, chunk):
        terms = _with_conjugates(terms)
        ref = jordan_wigner_fermion_terms_dict(terms, _N_HYP, constant=0.5)
        old, jw_module._CHUNK_PARTIALS = jw_module._CHUNK_PARTIALS, chunk
        try:
            got = jordan_wigner_fermion_terms(terms, _N_HYP, constant=0.5)
        finally:
            jw_module._CHUNK_PARTIALS = old
        assert_identical(got, ref)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(st.one_of(_weight, _real_weight), _product),
                    min_size=1, max_size=8))
    def test_arbitrary_sums_agree_or_are_refused_alike(self, terms):
        """Non-Hermitian input: both raise the residue error, or neither."""
        try:
            ref = jordan_wigner_fermion_terms_dict(terms, _N_HYP)
        except ValueError:
            with pytest.raises(ValueError, match="non-Hermitian"):
                jordan_wigner_fermion_terms(terms, _N_HYP)
        else:
            assert_identical(jordan_wigner_fermion_terms(terms, _N_HYP), ref)


# ---------------------------------------------------------------------------
# Physics invariants across the Boys / Jordan-Wigner / MO-phase change: the
# values below were printed by the commit before it (hyp1f1 Boys function,
# dict Jordan-Wigner, LAPACK's MO phases).
# ---------------------------------------------------------------------------
PARENT_E_HF = {
    "H2": -1.1166842889630317, "LiH": -7.862026570801073,
    "H2O": -74.96302667718123, "BeH2": -15.560311768847656,
    "N2": -107.49589248625402, "C2": -74.422313769194,
}
PARENT_E_FCI = {
    "H2": -1.1372700988410724, "LiH": -7.882403025366379, "H2O": -75.01258522421621,
}
# (terms, XY groups) of the raw ``jordan_wigner`` output, and of what
# ``build_problem`` hands out after ``SCREEN_BOUND_HA`` screening: C2's SCF
# noise (4 756 terms, summed |c| 9.98e-6 Ha) keeps 856 groups alive.
PARENT_TERMS_GROUPS = {"N2": (2950, 534), "C2": (8926, 1576)}
SCREENED_TERMS_GROUPS = {"N2": (2950, 534), "C2": (4170, 720)}
# H2 / STO-3G at r = 0.7414: the parent's 14 terms, in its order.  (The H2
# Hamiltonian does not depend on the MO phases: integrals with an odd number
# of sigma_u orbitals vanish by symmetry.)
PARENT_H2_X = [0, 0, 0, 0, 0, 15, 15, 15, 15, 0, 0, 0, 0, 0]
PARENT_H2_Z = [1, 2, 4, 8, 3, 9, 3, 12, 6, 5, 9, 6, 10, 12]
PARENT_H2_COEFFS = [float.fromhex(c) for c in (
    "0x1.5e9cdf964f1e0p-3", "0x1.5e9cdf964f1e0p-3", "-0x1.c843f0ccc1e80p-3",
    "-0x1.c843f0ccc1e7ep-3", "0x1.5956a9fd0c961p-3", "0x1.7347936908caep-5",
    "-0x1.7347936908caep-5", "-0x1.7347936908caep-5", "0x1.7347936908caep-5",
    "0x1.edc0722b397d4p-4", "0x1.53b21defdef16p-3", "0x1.53b21defdef16p-3",
    "0x1.edc0722b397d4p-4", "0x1.6510c819176dap-3")]
PARENT_H2_CONSTANT = float.fromhex("-0x1.94f29edaef480p-4")


def _geometry(name):
    return {"r": 0.7414} if name == "H2" else {}


def _problem(name):
    return build_problem(name, "sto-3g", **_geometry(name))


def _raw_hamiltonian(name):
    """``build_problem``'s steps without the screen."""
    ints = compute_integrals(make_molecule(name, **_geometry(name)), "sto-3g")
    return jordan_wigner(to_spin_orbitals(mo_transform(ints, run_rhf(ints))))


class TestPhysicsInvariants:
    @pytest.mark.parametrize("name", sorted(PARENT_E_HF))
    def test_hf_energy(self, name):
        assert _problem(name).e_hf == pytest.approx(PARENT_E_HF[name], abs=1e-10)

    @pytest.mark.parametrize("name", sorted(PARENT_E_FCI))
    def test_fci_energy(self, name):
        from repro.chem import run_fci

        e = run_fci(_problem(name).hamiltonian).energy
        assert e == pytest.approx(PARENT_E_FCI[name], abs=1e-9)

    @pytest.mark.parametrize("name", sorted(PARENT_TERMS_GROUPS))
    def test_term_and_group_counts(self, name):
        from repro.hamiltonian import compress_hamiltonian

        for ham, want in ((_raw_hamiltonian(name), PARENT_TERMS_GROUPS),
                          (_problem(name).hamiltonian, SCREENED_TERMS_GROUPS)):
            assert (ham.n_terms, compress_hamiltonian(ham).n_groups) == want[name]

    def test_h2_hamiltonian_is_the_parents(self, h2_problem):
        ham = h2_problem.hamiltonian
        np.testing.assert_array_equal(ham.x_masks.ravel(), PARENT_H2_X)
        np.testing.assert_array_equal(ham.z_masks.ravel(), PARENT_H2_Z)
        np.testing.assert_allclose(ham.coeffs, PARENT_H2_COEFFS, rtol=0.0, atol=1e-12)
        assert ham.constant == pytest.approx(PARENT_H2_CONSTANT, abs=1e-12)


# ---------------------------------------------------------------------------
# Screening: ``QubitHamiltonian.screen`` and what ``build_problem`` drops
# ---------------------------------------------------------------------------
def _planted() -> QubitHamiltonian:
    """Four real terms with tiny (and one zero) terms planted between them."""
    coeffs = [0.5, 2e-6, -0.3, 0.0, -3e-6, 0.1, 4e-6, 1e-6, -0.2]
    k = np.arange(1, len(coeffs) + 1, dtype=np.uint64)
    return QubitHamiltonian(n_qubits=4, x_masks=(k & np.uint64(3))[:, None],
                            z_masks=(k >> np.uint64(2))[:, None],
                            coeffs=coeffs, constant=-1.25, n_electrons=2)


class TestScreen:
    def test_drops_the_smallest_terms_while_their_sum_fits(self):
        ham = _planted()
        kept = ham.screen(7e-6)
        # 0 + 1e-6 + 2e-6 + 3e-6 = 6e-6 fits; adding 4e-6 would not, so the
        # 4e-6 term stays although it alone is under the bound.
        keep = [0, 2, 5, 6, 8]
        np.testing.assert_array_equal(kept.coeffs, ham.coeffs[keep])
        np.testing.assert_array_equal(kept.x_masks, ham.x_masks[keep])
        np.testing.assert_array_equal(kept.z_masks, ham.z_masks[keep])
        assert (kept.constant, kept.n_electrons) == (ham.constant, ham.n_electrons)
        assert kept.screened_terms == 4
        assert kept.screened_weight == pytest.approx(6e-6, rel=1e-12)

    def test_is_idempotent_and_spends_one_bound(self):
        ham = _planted()
        once = ham.screen(7e-6)
        for again in (once.screen(7e-6), ham.screen(3e-6).screen(7e-6)):
            np.testing.assert_array_equal(again.coeffs, once.coeffs)
            assert (again.screened_terms, again.screened_weight) == \
                (once.screened_terms, once.screened_weight)

    def test_a_zero_bound_drops_only_zeros(self):
        ham = _planted()
        kept = ham.screen(0.0)
        np.testing.assert_array_equal(kept.coeffs, ham.coeffs[ham.coeffs != 0])
        assert (kept.screened_terms, kept.screened_weight) == (1, 0.0)

    def test_the_bound_holds_on_every_state(self):
        ham = _planted()
        kept = ham.screen(7e-6)
        gap = np.linalg.norm(
            strings_to_matrix(ham.to_terms()) - strings_to_matrix(kept.to_terms()), 2)
        assert gap <= kept.screened_weight * (1 + 1e-12)

    @pytest.mark.parametrize("name", ["H2", "LiH", "H2O", "N2"])
    def test_build_problem_keeps_every_term_where_none_is_noise(self, name):
        raw, ham = _raw_hamiltonian(name), _problem(name).hamiltonian
        np.testing.assert_array_equal(ham.x_masks, raw.x_masks)
        np.testing.assert_array_equal(ham.z_masks, raw.z_masks)
        np.testing.assert_array_equal(ham.coeffs, raw.coeffs)
        assert ham.constant == raw.constant
        assert (ham.screened_terms, ham.screened_weight) == (0, 0.0)

    def test_c2_drops_its_scf_noise_under_the_bound(self):
        from repro.chem.pipeline import SCREEN_BOUND_HA

        raw, ham = _raw_hamiltonian("C2"), _problem("C2").hamiltonian
        keys = lambda h: [r.tobytes() for r in np.hstack([h.x_masks, h.z_masks])]
        index = {key: i for i, key in enumerate(keys(raw))}
        at = np.array([index[key] for key in keys(ham)])
        assert (np.diff(at) > 0).all()                          # order kept
        np.testing.assert_array_equal(ham.coeffs, raw.coeffs[at])
        dropped = np.abs(np.delete(raw.coeffs, at))
        assert ham.screened_terms == len(dropped) == 4756
        assert ham.screened_weight == pytest.approx(dropped.sum(), rel=1e-9)
        assert ham.screened_weight <= SCREEN_BOUND_HA
        assert dropped.max() < np.abs(ham.coeffs).min()

    @pytest.mark.slow
    def test_c2_fci_energy_moves_under_a_nanohartree(self):
        from repro.chem import run_fci

        e_raw = run_fci(_raw_hamiltonian("C2")).energy
        e_screened = run_fci(_problem("C2").hamiltonian).energy
        assert abs(e_screened - e_raw) <= 1e-9
