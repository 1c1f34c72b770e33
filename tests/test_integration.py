"""End-to-end integration tests across the whole pipeline."""
import numpy as np
import pytest

from repro.chem import build_problem, run_fci
from repro.core import (
    NoamAdamW,
    SampleBatch,
    VMC,
    VMCConfig,
    build_amplitude_table,
    build_qiankunnet,
    batch_autoregressive_sample,
    local_energy_vectorized,
    pretrain_to_reference,
)
from repro.hamiltonian import compress_hamiltonian


class TestMolecularProblem:
    @pytest.mark.parametrize("name,qubits,electrons", [
        ("H2", 4, 2), ("LiH", 12, 4), ("BeH2", 14, 6), ("H2O", 14, 10),
    ])
    def test_problem_invariants(self, name, qubits, electrons):
        prob = build_problem(name, "sto-3g")
        assert prob.n_qubits == qubits
        assert prob.n_electrons == electrons
        assert prob.hamiltonian.n_electrons == electrons
        # HF reference bits live in the correct sector.
        assert prob.hf_bits[0::2].sum() == prob.n_up
        assert prob.hf_bits[1::2].sum() == prob.n_dn
        # even Y counts (real Hamiltonian) throughout
        assert np.all(prob.hamiltonian.y_counts() % 2 == 0)

    def test_cache_returns_identical_hamiltonian(self):
        p1 = build_problem("H2", "sto-3g", r=0.9)
        p2 = build_problem("H2", "sto-3g", r=0.9)
        np.testing.assert_array_equal(p1.hamiltonian.x_masks, p2.hamiltonian.x_masks)
        np.testing.assert_array_equal(p1.hamiltonian.coeffs, p2.hamiltonian.coeffs)

    def test_geometry_kwargs_change_hamiltonian(self):
        p1 = build_problem("H2", "sto-3g", r=0.9)
        p2 = build_problem("H2", "sto-3g", r=1.1)
        assert p1.hamiltonian.constant != p2.hamiltonian.constant


class TestEnergyConsistency:
    def test_pretrained_wavefunction_starts_near_hf(self, lih_problem):
        """After HF pretraining, the VMC energy estimate starts near E_HF."""
        wf = build_qiankunnet(lih_problem.n_qubits, lih_problem.n_up,
                              lih_problem.n_dn, seed=3)
        pretrain_to_reference(wf, lih_problem.hf_bits, n_steps=600,
                              target_prob=0.99)
        vmc = VMC(wf, lih_problem.hamiltonian,
                  VMCConfig(n_samples=10**5, eloc_mode="exact", seed=4))
        stats = vmc.step()
        # Dominated by the HF determinant -> within tens of mHa of E_HF
        # (cross terms from the residual ~1% mass scale as its sqrt).
        assert stats.energy == pytest.approx(lih_problem.e_hf, abs=3e-2)

    @pytest.mark.slow
    def test_vmc_beats_hf_quickly(self, lih_problem):
        fci = run_fci(lih_problem.hamiltonian).energy
        wf = build_qiankunnet(lih_problem.n_qubits, lih_problem.n_up,
                              lih_problem.n_dn, seed=5)
        pretrain_to_reference(wf, lih_problem.hf_bits, n_steps=150)
        vmc = VMC(wf, lih_problem.hamiltonian,
                  VMCConfig(n_samples=10**5, eloc_mode="exact", seed=6),
                  optimizer=NoamAdamW(wf, warmup=100))
        vmc.run(200)
        e = vmc.best_energy()
        assert e < lih_problem.e_hf  # captured correlation energy
        assert e >= fci - 1e-3       # variational (up to sampling noise)

    def test_sampled_energy_tracks_rayleigh_quotient(self, h2o_problem):
        """Large-N_s sampled energy ~ exact <H> of the same wavefunction."""
        from repro.hamiltonian import sector_hamiltonian_dense

        wf = build_qiankunnet(h2o_problem.n_qubits, h2o_problem.n_up,
                              h2o_problem.n_dn, d_model=8, n_heads=2,
                              n_layers=1, phase_hidden=(16,), seed=7)
        pretrain_to_reference(wf, h2o_problem.hf_bits, n_steps=80,
                              target_prob=0.4)
        comp = compress_hamiltonian(h2o_problem.hamiltonian)
        rng = np.random.default_rng(8)
        batch = batch_autoregressive_sample(wf, 10**7, rng)
        from repro.core import local_energy

        eloc, _ = local_energy(wf, comp, batch, mode="exact")
        w = batch.weights / batch.weights.sum()
        e_sampled = float(np.sum(w * eloc.real))
        Hs, basis = sector_hamiltonian_dense(comp, h2o_problem.n_up,
                                             h2o_problem.n_dn)
        psi = wf.amplitudes(basis.bits())
        e_exact = float(np.real(psi.conj() @ Hs @ psi) / np.real(psi.conj() @ psi))
        assert e_sampled == pytest.approx(e_exact, abs=5e-3)


class TestLargeSystemMachinery:
    @pytest.mark.slow
    def test_56_qubit_sampling_and_packing(self):
        """Multiword (W=1? 56<64) and 92-qubit (W=2) code paths both work."""
        from tests.synthetic import synthetic_molecular_hamiltonian

        for n_qubits in (56, 92):
            h = synthetic_molecular_hamiltonian(n_qubits, 300, seed=9,
                                                n_electrons=4)
            comp = compress_hamiltonian(h)
            wf = build_qiankunnet(n_qubits, 2, 2, d_model=8, n_heads=2,
                                  n_layers=1, phase_hidden=(16,), seed=10)
            rng = np.random.default_rng(11)
            batch = batch_autoregressive_sample(wf, 10**6, rng)
            assert np.all(wf.constraint.validate_bits(batch.bits))
            table = build_amplitude_table(wf, batch)
            eloc = local_energy_vectorized(comp, batch, table)
            assert np.all(np.isfinite(eloc))

    def test_120_qubit_tree_partition(self):
        """The Fig. 5 splitter at the paper's benzene scale (120 qubits)."""
        from repro.core import bas_prefix_sweep
        from repro.parallel import split_tree_state

        wf = build_qiankunnet(120, 15, 15, d_model=8, n_heads=2, n_layers=1,
                              phase_hidden=(16,), seed=12)
        rng = np.random.default_rng(13)
        state = bas_prefix_sweep(wf, 10**8, rng, stop_unique=64)
        parts = split_tree_state(state, 8)
        assert sum(p.weights.sum() for p in parts) == 10**8
        totals = [p.weights.sum() for p in parts if len(p.weights)]
        assert max(totals) < 4 * (10**8 / 8)  # rough balance
