"""VMC driver: Eq. 7 gradient correctness, convergence, bookkeeping."""
import numpy as np
import pytest

from repro.chem import run_fci
from repro.core import (
    NoamAdamW,
    SampleBatch,
    VMC,
    VMCConfig,
    build_qiankunnet,
    default_ns_schedule,
    pretrain_to_reference,
)
from repro.hamiltonian import compress_hamiltonian, sector_hamiltonian_dense
from tests.test_wavefunction import sector_bitstrings


def exact_energy(wf, comp, n_up, n_dn) -> float:
    """Rayleigh quotient <psi|H|psi>/<psi|psi> from the dense sector matrix."""
    Hs, basis = sector_hamiltonian_dense(comp, n_up, n_dn)
    psi = wf.amplitudes(basis.bits())
    return float(np.real(psi.conj() @ Hs @ psi) / np.real(psi.conj() @ psi))


class TestGradientFormula:
    def test_eq7_matches_finite_difference(self, h2_problem):
        """With exact-pi weights and exact E_loc, Eq. 7 equals dE/dtheta."""
        wf = build_qiankunnet(4, 1, 1, d_model=8, n_heads=2, n_layers=1,
                              phase_hidden=(12,), seed=13)
        comp = compress_hamiltonian(h2_problem.hamiltonian)
        bits = sector_bitstrings(4, 1, 1)
        pi = np.exp(wf.log_prob(bits).data)
        # Integer weights proportional to pi (relative error ~1e-12).
        weights = np.round(pi * 1e14).astype(np.int64)
        batch = SampleBatch(bits=bits, weights=weights)

        vmc = VMC(wf, comp, VMCConfig(n_samples=1, eloc_mode="exact"),
                  optimizer=NoamAdamW(wf, grad_clip=None))
        from repro.core import local_energy

        eloc, _ = local_energy(wf, comp, batch, mode="exact")
        wf.zero_grad()
        vmc.optimizer.lr = 0.0  # isolate gradient computation
        # gradient_step mutates params through optimizer; compute grads only:
        w = batch.weights / batch.weights.sum()
        e_mean = np.sum(w * eloc)
        from repro.autograd import Tensor

        coeff_amp = w * (eloc.real - e_mean.real)
        coeff_phase = 2.0 * w * (eloc.imag - e_mean.imag)
        loss = (Tensor(coeff_amp) * wf.log_prob(bits)).sum() + (
            Tensor(coeff_phase) * wf.phase_of(bits)
        ).sum()
        loss.backward()
        analytic = wf.get_flat_grads()

        flat0 = wf.get_flat_params()
        rng = np.random.default_rng(0)
        eps = 1e-5
        for idx in rng.choice(len(flat0), size=12, replace=False):
            for sign, store in ((+1, "plus"), (-1, "minus")):
                f = flat0.copy()
                f[idx] += sign * eps
                wf.set_flat_params(f)
                if sign > 0:
                    e_plus = exact_energy(wf, comp, 1, 1)
                else:
                    e_minus = exact_energy(wf, comp, 1, 1)
            wf.set_flat_params(flat0)
            numeric = (e_plus - e_minus) / (2 * eps)
            assert analytic[idx] == pytest.approx(numeric, abs=5e-6), f"param {idx}"


class TestConvergence:
    def test_h2_reaches_chemical_accuracy(self, h2_problem):
        fci = run_fci(h2_problem.hamiltonian).energy
        wf = build_qiankunnet(4, 1, 1, seed=1)
        pretrain_to_reference(wf, h2_problem.hf_bits, n_steps=100)
        vmc = VMC(wf, h2_problem.hamiltonian,
                  VMCConfig(n_samples=10**5, eloc_mode="exact", seed=2),
                  optimizer=NoamAdamW(wf, warmup=200))
        vmc.run(300)
        assert abs(vmc.best_energy() - fci) < 1.6e-3  # chemical accuracy

    def test_energy_never_below_fci(self, h2_problem):
        """Variational principle: sampled energies fluctuate but the converged
        estimate cannot undercut FCI beyond statistical noise."""
        fci = run_fci(h2_problem.hamiltonian).energy
        wf = build_qiankunnet(4, 1, 1, seed=3)
        vmc = VMC(wf, h2_problem.hamiltonian,
                  VMCConfig(n_samples=10**5, eloc_mode="exact", seed=4),
                  optimizer=NoamAdamW(wf, warmup=100))
        vmc.run(150)
        assert vmc.best_energy() >= fci - 5e-4

    def test_history_bookkeeping(self, h2_problem):
        wf = build_qiankunnet(4, 1, 1, seed=5)
        vmc = VMC(wf, h2_problem.hamiltonian, VMCConfig(n_samples=1000, seed=6))
        stats = vmc.run(3)
        assert [s.iteration for s in stats] == [1, 2, 3]
        assert all(s.n_samples == 1000 for s in stats)
        assert all(s.n_unique > 0 for s in stats)
        assert all(np.isfinite(s.energy) for s in stats)
        assert all(s.variance >= 0 for s in stats)

    def test_best_energy_requires_history(self, h2_problem):
        wf = build_qiankunnet(4, 1, 1, seed=7)
        vmc = VMC(wf, h2_problem.hamiltonian)
        with pytest.raises(RuntimeError):
            vmc.best_energy()

    def test_ns_schedule(self):
        sched = default_ns_schedule(pretrain_iters=5, ns_pretrain=100, ns_max=10**6)
        with pytest.raises(ValueError, match="default_ns_schedule.pretrain_iters"):
            default_ns_schedule(pretrain_iters=-1)
        assert sched(0) == 100
        assert sched(4) == 100
        assert sched(5) == 100
        assert sched(6) > 100
        assert sched(10**3) == 10**6  # capped

    def test_callable_ns_schedule_used(self, h2_problem):
        wf = build_qiankunnet(4, 1, 1, seed=8)
        vmc = VMC(wf, h2_problem.hamiltonian,
                  VMCConfig(n_samples=lambda it: 100 * (it + 1), seed=9))
        s1 = vmc.step()
        s2 = vmc.step()
        assert s1.n_samples == 100 and s2.n_samples == 200

    def test_grad_clip_applies(self, h2_problem):
        wf = build_qiankunnet(4, 1, 1, seed=10)
        vmc = VMC(wf, h2_problem.hamiltonian,
                  VMCConfig(n_samples=1000, seed=11),
                  optimizer=NoamAdamW(wf, grad_clip=1e-9))
        p0 = wf.get_flat_params().copy()
        vmc.step()
        # with a tiny clip the parameter movement is bounded by ~lr * 1
        assert np.linalg.norm(wf.get_flat_params() - p0) < 1.0


class TestPretrain:
    def test_hf_probability_raised(self, h2o_problem):
        wf = build_qiankunnet(h2o_problem.n_qubits, h2o_problem.n_up,
                              h2o_problem.n_dn, d_model=8, n_heads=2,
                              n_layers=1, phase_hidden=(16,), seed=12)
        p_before = float(np.exp(wf.log_prob(h2o_problem.hf_bits[None, :]).data[0]))
        p_after = pretrain_to_reference(wf, h2o_problem.hf_bits, n_steps=150)
        assert p_after > p_before
        assert p_after > 0.3

    def test_phase_untouched(self, h2_problem):
        wf = build_qiankunnet(4, 1, 1, seed=13)
        phase0 = [p.data.copy() for p in wf.phase.parameters()]
        pretrain_to_reference(wf, h2_problem.hf_bits, n_steps=20)
        for p, q in zip(wf.phase.parameters(), phase0):
            np.testing.assert_array_equal(p.data, q)


class TestVMCConfigValidation:
    """Bad knobs are rejected up front, naming the field, by the object that
    declares them: VMCConfig for stages 1-3, NoamAdamW for its four numbers."""

    @pytest.mark.parametrize("field,value", [
        ("n_samples", 0),
        ("n_samples", -100),
        ("eloc_mode", "typo_mode"),
        ("lr_scale", 0.0),
        ("warmup", 0),
        ("weight_decay", -0.1),
        ("grad_clip", 0.0),
    ])
    def test_bad_value_names_field(self, field, value):
        if field in ("n_samples", "eloc_mode"):
            with pytest.raises(ValueError, match=f"VMCConfig.{field}"):
                VMCConfig(**{field: value})
        else:
            with pytest.raises(ValueError, match=f"NoamAdamW.{field}"):
                NoamAdamW(None, **{field: value})

    def test_optimizer_numbers_are_not_config_fields(self, h2_problem):
        """Nothing is left to ignore silently: with the optimizer an object,
        ``VMCConfig(warmup=10)`` next to ``optimizer=`` used to run without
        a word."""
        wf = build_qiankunnet(4, 1, 1, seed=7)
        for field in ("warmup", "lr_scale", "weight_decay", "grad_clip",
                      "group_chunk", "sample_chunk"):
            with pytest.raises(TypeError, match=field):
                VMC(wf, h2_problem.hamiltonian, VMCConfig(**{field: 10}))

    def test_callable_schedule_accepted(self):
        VMCConfig(n_samples=default_ns_schedule())

    def test_grad_clip_none_accepted(self, h2_problem):
        wf = build_qiankunnet(4, 1, 1, seed=7)
        assert NoamAdamW(wf, grad_clip=None).grad_clip is None

    def test_custom_sampler_is_used(self):
        """(Id kept.)  There is no sampler hook: stage 1 is the BAS sweep,
        and the whole configured budget reaches it."""
        wf = build_qiankunnet(4, 1, 1, d_model=8, n_heads=2, n_layers=1,
                              phase_hidden=(8,), seed=0)
        from repro.hamiltonian.synthetic import synthetic_molecular_hamiltonian

        ham = synthetic_molecular_hamiltonian(4, n_terms=8, seed=3)
        with pytest.raises(TypeError, match="sampler"):
            VMCConfig(n_samples=64, sampler=lambda wf, n, rng: None)
        vmc = VMC(wf, ham, VMCConfig(n_samples=64))
        stats = vmc.step()
        assert stats.n_samples == 64
