"""Tests for stochastic reconfiguration (the paper's forgone optimizer).

SR is the foil of ``benchmarks/bench_ablations.py`` (the ``ablations``
fixture), not part of the library."""
import numpy as np
import pytest

from repro.autograd import Tensor
from repro.chem import build_problem
from repro.core import (
    batch_autoregressive_sample,
    build_qiankunnet,
    local_energy,
    pretrain_to_reference,
)
from repro.hamiltonian import compress_hamiltonian


@pytest.fixture(scope="module")
def h2():
    prob = build_problem("H2", "sto-3g", r=0.7414)
    return prob, compress_hamiltonian(prob.hamiltonian)


def tiny_wf(prob, seed=1):
    return build_qiankunnet(prob.n_qubits, prob.n_up, prob.n_dn, d_model=8,
                            n_heads=2, n_layers=1, phase_hidden=(16,), seed=seed)


class TestPerSampleJacobians:
    def test_rows_sum_to_batch_gradient(self, h2, ablations):
        """sum_b c_b J[b] must equal the gradient of sum_b c_b f(x_b)."""
        prob, _ = h2
        wf = tiny_wf(prob)
        bits = np.array([[1, 1, 0, 0], [0, 0, 1, 1], [1, 0, 0, 1]], dtype=np.uint8)
        c = np.array([0.3, -1.2, 2.0])
        j_logp, j_phi = ablations.per_sample_jacobians(wf, bits)

        wf.zero_grad()
        (Tensor(c) * wf.log_prob(bits)).sum().backward()
        np.testing.assert_allclose(wf.get_flat_grads(), c @ j_logp, atol=1e-10)

        wf.zero_grad()
        (Tensor(c) * wf.phase_of(bits)).sum().backward()
        np.testing.assert_allclose(wf.get_flat_grads(), c @ j_phi, atol=1e-10)

    def test_grads_cleared_after(self, h2, ablations):
        prob, _ = h2
        wf = tiny_wf(prob)
        ablations.per_sample_jacobians(wf, np.array([[1, 1, 0, 0]], dtype=np.uint8))
        assert np.all(wf.get_flat_grads() == 0.0)


class TestSRStep:
    def test_refuses_large_models(self, h2, ablations):
        prob, _ = h2
        wf = tiny_wf(prob)
        with pytest.raises(ValueError, match="dense"):
            ablations.StochasticReconfiguration(wf, ablations.SRConfig(max_params=10))

    def test_single_step_moves_parameters_downhill(self, h2, ablations):
        prob, comp = h2
        wf = tiny_wf(prob)
        pretrain_to_reference(wf, prob.hf_bits, n_steps=80)
        rng = np.random.default_rng(0)
        sr = ablations.StochasticReconfiguration(
            wf, ablations.SRConfig(lr=0.05, diag_shift=0.01))

        batch = batch_autoregressive_sample(wf, 10**5, rng)
        eloc, _ = local_energy(wf, comp, batch, mode="exact")
        info = sr.step(batch, eloc)
        assert info.update_norm > 0
        assert info.grad_norm > 0
        assert info.s_condition >= 1.0

        # The same batch re-evaluated after the step has lower exact energy.
        from repro.core.observables import sector_expectation
        from repro.hamiltonian import sector_basis

        basis = sector_basis(4, 1, 1)
        amps_after = wf.amplitudes(basis.bits())
        e_after = sector_expectation(prob.hamiltonian, amps_after, basis)
        assert e_after < info.energy + 1e-6

    def test_converges_to_hf_basin(self, h2, ablations):
        """SR polishes the warm start to the HF determinant rapidly.

        This is the measured behaviour behind the paper's Sec. 1 argument:
        SR converges fast but (with this warm start and small unique-sample
        batches) sits at the sign-structure plateau that the AdamW +
        autoregressive-sampling path escapes (see bench_ablations).
        """
        prob, comp = h2
        wf = tiny_wf(prob)
        pretrain_to_reference(wf, prob.hf_bits, n_steps=100)
        rng = np.random.default_rng(0)
        sr = ablations.StochasticReconfiguration(
            wf, ablations.SRConfig(lr=0.2, diag_shift=0.02))
        energy = np.inf
        for _ in range(60):
            batch = batch_autoregressive_sample(wf, 10**5, rng)
            eloc, _ = local_energy(wf, comp, batch, mode="exact")
            energy = sr.step(batch, eloc).energy
        assert energy == pytest.approx(prob.e_hf, abs=2e-3)

    def test_rank_deficiency_handled(self, h2, ablations):
        """A single-sample batch (rank-2 S matrix) must not blow up."""
        prob, comp = h2
        wf = tiny_wf(prob)
        from repro.core import SampleBatch

        batch = SampleBatch(bits=prob.hf_bits[None, :].astype(np.uint8),
                            weights=np.array([100], dtype=np.int64))
        eloc, _ = local_energy(wf, comp, batch, mode="exact")
        theta_before = wf.get_flat_params()
        sr = ablations.StochasticReconfiguration(wf, ablations.SRConfig(lr=0.05))
        info = sr.step(batch, eloc)
        theta_after = wf.get_flat_params()
        assert np.all(np.isfinite(theta_after))
        # Update stays bounded even though S has rank <= 2.
        assert np.linalg.norm(theta_after - theta_before) < 10.0
