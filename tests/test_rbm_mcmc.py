"""The RBM + Metropolis foil of ``benchmarks/bench_ablations.py``.

The production path has one sampler; the Markov-chain baseline it replaces
lives next to the ablation row that times it and is loaded through the
``ablations`` fixture (``tests/conftest.py``).
"""
import numpy as np
import pytest


class TestRBM:
    def test_amplitudes_shape_and_consistency(self, ablations):
        wf = ablations.RBMWavefunction(6, alpha=2, rng=np.random.default_rng(0))
        bits = np.random.default_rng(1).integers(0, 2, size=(5, 6))
        la = wf.log_amplitudes(bits)
        np.testing.assert_allclose(np.exp(la), wf.amplitudes(bits), rtol=1e-12)

    def test_parameter_count(self, ablations):
        wf = ablations.RBMWavefunction(6, alpha=2)
        # complex a (6), b (12), W (72) -> 2x real parameters
        assert wf.num_parameters() == 2 * (6 + 12 + 72)


class TestMetropolis:
    def test_number_conservation(self, ablations, h2o_problem):
        wf = ablations.RBMWavefunction(h2o_problem.n_qubits,
                                       rng=np.random.default_rng(4))
        batch, stats = ablations.metropolis_sample(
            wf, h2o_problem.hf_bits, n_samples=500, rng=np.random.default_rng(5)
        )
        assert batch.n_samples == 500
        assert np.all(batch.bits[:, 0::2].sum(axis=1) == h2o_problem.n_up)
        assert np.all(batch.bits[:, 1::2].sum(axis=1) == h2o_problem.n_dn)
        assert 0.0 <= stats.acceptance_rate <= 1.0

    @pytest.mark.slow
    def test_distribution_matches_amplitudes(self, ablations, h2_problem):
        """Long chain frequencies converge to |Psi|^2 on the tiny H2 sector."""
        from tests.test_wavefunction import sector_bitstrings

        wf = ablations.RBMWavefunction(4, alpha=2, rng=np.random.default_rng(6))
        batch, _ = ablations.metropolis_sample(
            wf, h2_problem.hf_bits, n_samples=40_000,
            rng=np.random.default_rng(7), n_burnin=500,
        )
        sector = sector_bitstrings(4, 1, 1)
        psi2 = np.abs(wf.amplitudes(sector)) ** 2
        psi2 /= psi2.sum()
        freq = np.zeros(len(sector))
        for i, b in enumerate(sector):
            hit = np.all(batch.bits == b, axis=1)
            if hit.any():
                freq[i] = batch.weights[hit].sum() / batch.n_samples
        np.testing.assert_allclose(freq, psi2, atol=0.02)


@pytest.mark.slow
def test_bench_agreement_check(ablations):
    """The bench's own gate (Metropolis histogram vs enumerated |Psi|^2,
    one-stream merge == one plain BAS sweep) passes under pytest."""
    assert ablations.check_foils_agree() <= 0.02
