"""Tests for observable estimation on NNQS wave functions."""
import numpy as np
import pytest

from repro.chem import build_problem, run_fci
from repro.core import (
    ObservableSet,
    batch_autoregressive_sample,
    build_qiankunnet,
    estimate,
    fidelity,
    occupations,
    pretrain_to_reference,
    sector_expectation,
)
from repro.core.observables import sector_matvec
from repro.hamiltonian import (
    compress_hamiltonian,
    number_operator,
    s2_operator,
    sector_hamiltonian_dense,
    sz_operator,
)


@pytest.fixture(scope="module")
def h2_setup():
    prob = build_problem("H2", "sto-3g", r=0.7414)
    wf = build_qiankunnet(prob.n_qubits, prob.n_up, prob.n_dn, d_model=8,
                          n_heads=2, n_layers=1, phase_hidden=(16,), seed=1)
    pretrain_to_reference(wf, prob.hf_bits, n_steps=100)
    rng = np.random.default_rng(0)
    batch = batch_autoregressive_sample(wf, 10**5, rng)
    return prob, wf, batch


class TestSectorExpectation:
    def test_number_on_fci_ground_state(self, h2_setup):
        prob, _, _ = h2_setup
        fci = run_fci(prob.hamiltonian)
        n = sector_expectation(number_operator(4), fci.ground_state, fci.basis)
        assert n == pytest.approx(2.0, abs=1e-10)

    def test_singlet_ground_state(self, h2_setup):
        prob, _, _ = h2_setup
        fci = run_fci(prob.hamiltonian)
        s2 = sector_expectation(s2_operator(4), fci.ground_state, fci.basis)
        sz = sector_expectation(sz_operator(4), fci.ground_state, fci.basis)
        assert s2 == pytest.approx(0.0, abs=1e-9)
        assert sz == pytest.approx(0.0, abs=1e-9)

    def test_energy_expectation_matches_eigenvalue(self, h2_setup):
        prob, _, _ = h2_setup
        fci = run_fci(prob.hamiltonian)
        e = sector_expectation(prob.hamiltonian, fci.ground_state, fci.basis)
        assert e == pytest.approx(fci.energy, abs=1e-9)

    def test_matvec_matches_dense(self, h2_setup):
        prob, _, _ = h2_setup
        H, basis = sector_hamiltonian_dense(prob.hamiltonian, 1, 1)
        rng = np.random.default_rng(4)
        v = rng.standard_normal(basis.dim)
        np.testing.assert_allclose(
            sector_matvec(prob.hamiltonian, v, basis), H @ v, atol=1e-10
        )

    def test_unnormalized_vector_ok(self, h2_setup):
        prob, _, _ = h2_setup
        fci = run_fci(prob.hamiltonian)
        e1 = sector_expectation(prob.hamiltonian, fci.ground_state, fci.basis)
        e2 = sector_expectation(prob.hamiltonian, 3.7 * fci.ground_state, fci.basis)
        assert e1 == pytest.approx(e2, abs=1e-10)


class TestSampledEstimates:
    def test_number_is_exact_under_constraint(self, h2_setup):
        """The constrained sampler only emits the right sector: <N> exact."""
        prob, wf, batch = h2_setup
        res = estimate(wf, number_operator(4), batch, mode="exact")
        assert res.mean == pytest.approx(2.0, abs=1e-9)
        assert res.variance == pytest.approx(0.0, abs=1e-9)
        assert res.std_error == pytest.approx(0.0, abs=1e-9)

    def test_estimate_matches_sector_value_of_same_state(self, h2_setup):
        """Sampled <S^2> ~= exact <Psi|S^2|Psi> of the same wave function."""
        prob, wf, batch = h2_setup
        from repro.hamiltonian import sector_basis

        basis = sector_basis(4, 1, 1)
        amps = wf.amplitudes(basis.bits())
        exact = sector_expectation(s2_operator(4), amps, basis)
        sampled = estimate(wf, s2_operator(4), batch, mode="exact")
        # N_s = 1e5 -> stochastic error ~ 1e-2 on this observable
        assert sampled.mean == pytest.approx(exact, abs=5e-2)

    def test_sample_aware_biased_but_close_when_support_covered(self, h2_setup):
        prob, wf, batch = h2_setup
        ex = estimate(wf, prob.hamiltonian, batch, mode="exact")
        sa = estimate(wf, prob.hamiltonian, batch, mode="sample_aware")
        # On 4 qubits the batch covers the entire sector: identical results.
        assert sa.mean == pytest.approx(ex.mean, abs=1e-9)

    def test_imag_residual_small(self, h2_setup):
        prob, wf, batch = h2_setup
        res = estimate(wf, prob.hamiltonian, batch, mode="exact")
        assert res.imag_residual < 0.2  # raw phases, no optimization yet

    def test_compressed_operator_accepted(self, h2_setup):
        prob, wf, batch = h2_setup
        comp = compress_hamiltonian(number_operator(4))
        res = estimate(wf, comp, batch)
        assert res.mean == pytest.approx(2.0, abs=1e-9)

    @pytest.mark.parametrize("rows", [slice(0, 0), slice(None)], ids=["no-rows", "no-weight"])
    def test_a_batch_without_samples_is_refused(self, h2_setup, rows):
        """No rows, or rows of total weight 0, have no mean: not 0.0 +- 0.0."""
        from repro.core import SampleBatch

        prob, wf, batch = h2_setup
        weights = batch.weights[rows] * 0
        empty = SampleBatch(bits=batch.bits[rows], weights=weights)
        for mode in ("exact", "sample_aware"):
            with pytest.raises(ValueError, match="batch"):
                estimate(wf, prob.hamiltonian, empty, mode=mode)


class TestFidelity:
    def test_bounds(self, h2_setup):
        prob, wf, _ = h2_setup
        fci = run_fci(prob.hamiltonian)
        f = fidelity(wf, fci.ground_state, fci.basis)
        assert 0.0 <= f <= 1.0

    def test_self_fidelity_of_exact_state(self, h2_setup):
        """Fidelity of the FCI vector with itself (as amplitudes) is 1."""
        prob, wf, _ = h2_setup
        fci = run_fci(prob.hamiltonian)

        class ExactWF:
            def amplitudes(self, bits):
                return fci.ground_state.astype(np.complex128)

        assert fidelity(ExactWF(), fci.ground_state, fci.basis) == pytest.approx(1.0)

    def test_hf_concentrated_state_has_hf_weight_fidelity(self, h2_setup):
        """For a pretrained state, fidelity ~ |c_HF|^2 * pi(HF) leading term."""
        prob, wf, _ = h2_setup
        fci = run_fci(prob.hamiltonian)
        f = fidelity(wf, fci.ground_state, fci.basis)
        assert f > 0.3  # HF dominates the FCI vector and the sampler


class TestOccupations:
    def test_sum_equals_electron_count(self, h2_setup):
        prob, wf, batch = h2_setup
        occ = occupations(batch)
        assert occ.sum() == pytest.approx(prob.n_electrons, abs=1e-12)
        assert np.all((occ >= 0) & (occ <= 1))

    def test_deterministic_batch(self):
        from repro.core import SampleBatch

        batch = SampleBatch(bits=np.array([[1, 1, 0, 0], [0, 0, 1, 1]], dtype=np.uint8),
                            weights=np.array([3, 1], dtype=np.int64))
        occ = occupations(batch)
        np.testing.assert_allclose(occ, [0.75, 0.75, 0.25, 0.25])

    @pytest.mark.parametrize("rows", [slice(0, 0), slice(None)], ids=["no-rows", "no-weight"])
    def test_a_batch_without_samples_is_refused(self, h2_setup, rows):
        """No rows (was zeros) or rows of total weight 0 (was NaN): no mean,
        here or in the 1-RDM whose diagonal this is."""
        from repro.core import SampleBatch, one_rdm_sampled

        _, wf, batch = h2_setup
        empty = SampleBatch(bits=batch.bits[rows], weights=batch.weights[rows] * 0)
        with pytest.raises(ValueError, match="batch"):
            occupations(empty)
        with pytest.raises(ValueError, match="batch"):
            one_rdm_sampled(wf, empty)


class TestObservableSet:
    def test_measure_all(self, h2_setup):
        prob, wf, batch = h2_setup
        obs = ObservableSet(prob.n_qubits)
        res = obs.measure(wf, batch)
        assert set(res) == {"N", "Sz", "S2", "D"}
        assert res["N"].mean == pytest.approx(2.0, abs=1e-9)
        assert res["Sz"].mean == pytest.approx(0.0, abs=1e-9)
        assert 0.0 <= res["D"].mean <= 2.0

    def test_operator_cache_reused(self, h2_setup):
        prob, wf, batch = h2_setup
        obs = ObservableSet(prob.n_qubits)
        obs.measure(wf, batch, which=("N",))
        first = obs._ops["N"]
        obs.measure(wf, batch, which=("N",))
        assert obs._ops["N"] is first
