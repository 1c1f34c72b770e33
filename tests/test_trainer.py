"""Tests for the high-level training orchestrator (Sec. 4.1 protocol)."""
import json

import numpy as np
import pytest

from dataclasses import fields
from functools import partial

from repro.chem import build_problem, run_fci
from repro.core import (
    VMC,
    NoamAdamW,
    TrainConfig,
    Trainer,
    VMCConfig,
    build_qiankunnet,
    default_ns_schedule,
)


@pytest.fixture(scope="module")
def h2():
    prob = build_problem("H2", "sto-3g", r=0.7414)
    fci = run_fci(prob.hamiltonian).energy
    return prob, fci


def make_trainer(prob, fci, pretrain_iters=20, ns_growth=1.3, ns_max=10**12,
                 **overrides):
    defaults = dict(max_iterations=40, pretrain_steps=80,
                    pretrain_iters=pretrain_iters, early_stop=False)
    defaults.update(overrides)
    wf = build_qiankunnet(prob.n_qubits, prob.n_up, prob.n_dn, d_model=8,
                          n_heads=2, n_layers=1, phase_hidden=(16,), seed=12)
    schedule = default_ns_schedule(pretrain_iters=pretrain_iters,
                                   ns_growth=ns_growth, ns_max=ns_max)
    vmc = VMC(wf, prob.hamiltonian, VMCConfig(n_samples=schedule, seed=11),
              optimizer=NoamAdamW(wf, warmup=100))
    return Trainer(vmc, TrainConfig(**defaults),
                   hf_bits=prob.hf_bits, e_hf=prob.e_hf, e_reference=fci)


class TestTrainerRun:
    def test_basic_run_produces_report(self, h2):
        prob, fci = h2
        report = make_trainer(prob, fci).train()
        assert report.iterations == 40
        assert not report.stopped_early
        assert np.isfinite(report.energy)
        assert report.best_energy <= prob.e_hf + 0.1
        assert report.error_vs_reference is not None
        assert report.correlation_fraction is not None
        assert report.wall_time > 0

    def test_ns_schedule_grows_after_pretrain(self, h2):
        prob, fci = h2
        trainer = make_trainer(prob, fci, max_iterations=30, pretrain_iters=10,
                               ns_growth=2.0, ns_max=10**7)
        trainer.train()
        ns = [s.n_samples for s in trainer.vmc.history]
        assert all(n == 10**5 for n in ns[:10])       # flat pretrain stage
        assert ns[-1] == 10**7                        # capped growth stage
        assert ns[10] < ns[15] <= ns[-1]

    def test_summary_renders(self, h2):
        prob, fci = h2
        report = make_trainer(prob, fci, max_iterations=25).train()
        text = report.summary()
        assert "final energy" in text and "wall time" in text

    def test_report_without_references(self, h2):
        prob, _ = h2
        wf = build_qiankunnet(prob.n_qubits, prob.n_up, prob.n_dn, d_model=8,
                              n_heads=2, n_layers=1, phase_hidden=(16,), seed=13)
        vmc = VMC(wf, prob.hamiltonian, VMCConfig(seed=14),
                  optimizer=NoamAdamW(wf, warmup=100))
        trainer = Trainer(vmc, TrainConfig(max_iterations=10, pretrain_steps=0,
                                           early_stop=False))
        report = trainer.train()
        assert report.error_vs_reference is None
        assert report.correlation_fraction is None


class TestTrainerPersistence:
    def test_json_log_written(self, h2, tmp_path):
        prob, fci = h2
        log = tmp_path / "run.jsonl"
        make_trainer(prob, fci, max_iterations=12, log_path=log).train()
        lines = [json.loads(l) for l in log.read_text().splitlines()]
        assert lines[0]["event"] == "pretrain"
        iters = [l["iteration"] for l in lines[1:]]
        assert iters == list(range(1, 13))
        assert all("energy" in l and "n_unique" in l for l in lines[1:])

    def test_checkpoint_and_resume(self, h2, tmp_path):
        prob, fci = h2
        ckpt = tmp_path / "state.npz"
        t1 = make_trainer(prob, fci, max_iterations=15, checkpoint_every=5,
                          checkpoint_path=ckpt)
        t1.train()
        assert ckpt.exists()

        # Resume into a fresh trainer; iteration counter must carry over and
        # the restored parameters must reproduce the same wave function.
        t2 = make_trainer(prob, fci, max_iterations=20, checkpoint_path=ckpt)
        t2.resume(ckpt)
        assert t2.vmc.iteration == 15
        np.testing.assert_allclose(t2.wf.get_flat_params(),
                                   t1.wf.get_flat_params(), atol=1e-12)
        report = t2.train()
        assert report.iterations == 20

    def test_resume_after_kill_cuts_log_back_to_checkpoint(self, h2, tmp_path):
        """Rows a killed run logged after its last checkpoint are re-run on
        resume: the log must carry them once, and a torn last line must not
        end up mid-file."""
        prob, fci = h2
        kwargs = dict(max_iterations=7, pretrain_steps=0, checkpoint_every=2)

        def rows(path):
            return [json.loads(l) for l in path.read_text().splitlines()]

        whole = tmp_path / "whole.jsonl"
        make_trainer(prob, fci, log_path=whole,
                     checkpoint_path=tmp_path / "whole.npz", **kwargs).train()

        log, ckpt = tmp_path / "run.jsonl", tmp_path / "run.npz"

        class Killed(Exception):
            pass

        def kill_in_iteration_5(stats):
            if stats.iteration == 5:
                raise Killed

        killed = make_trainer(prob, fci, log_path=log, checkpoint_path=ckpt,
                              **kwargs)
        with pytest.raises(Killed):
            killed.train(on_iteration=kill_in_iteration_5)
        assert killed._log_file is None  # closed on the way out, not leaked
        assert [r["iteration"] for r in rows(log)] == [1, 2, 3, 4, 5]
        with open(log, "a") as f:
            f.write('{"iteration": 6, "ener')      # died mid-append

        resumed = make_trainer(prob, fci, log_path=log, checkpoint_path=ckpt,
                               **kwargs)
        resumed.resume(ckpt)
        assert resumed.vmc.iteration == 4
        resumed.train()

        assert [r["iteration"] for r in rows(log)] == [1, 2, 3, 4, 5, 6, 7]
        assert ([(r["iteration"], r["energy"]) for r in rows(log)]
                == [(r["iteration"], r["energy"]) for r in rows(whole)])

    def test_early_stop_on_plateau(self, h2):
        prob, fci = h2
        # Tiny plateau window + huge tolerance: stops as soon as allowed.
        trainer = make_trainer(prob, fci, max_iterations=300, early_stop=True,
                               plateau_window=5, plateau_rel_tol=10.0,
                               pretrain_iters=5)
        report = trainer.train()
        assert report.stopped_early
        assert report.iterations <= 5 + 2 * 5 + 1


# Who declares (and range-checks) the values TrainConfig used to repeat.
_OWNERS = {
    "ns_pretrain": default_ns_schedule, "ns_max": default_ns_schedule,
    "ns_growth": default_ns_schedule, "eloc_mode": VMCConfig,
    "warmup": partial(NoamAdamW, None),
}


class TestTrainConfigValidation:
    """Bad knobs are rejected up front, naming the field, by the one object
    that declares them — TrainConfig for loop policy only."""

    @pytest.mark.parametrize("field,value", [
        ("max_iterations", 0),
        ("max_iterations", -5),
        ("pretrain_steps", -1),
        ("ns_pretrain", 0),
        ("ns_max", 0),
        ("ns_max", -10),
        ("ns_growth", 0.0),
        ("ns_growth", -1.3),
        ("pretrain_iters", -1),
        ("eloc_mode", "typo_mode"),
        ("warmup", 0),
        ("plateau_window", 0),
        ("checkpoint_every", -1),
    ])
    def test_bad_value_names_field(self, field, value):
        build = _OWNERS.get(field, TrainConfig)
        if build is not TrainConfig:
            with pytest.raises(TypeError, match=field):
                TrainConfig(**{field: value})
        with pytest.raises(ValueError, match=rf"\w+\.{field}"):
            build(**{field: value})

    def test_defaults_are_valid(self):
        TrainConfig()

    def test_eloc_modes_accepted(self):
        VMCConfig(eloc_mode="exact")
        VMCConfig(eloc_mode="sample_aware")

    def test_train_and_vmc_config_share_no_field(self):
        """One declaration per run-shaping value: loop policy on TrainConfig,
        stages 1-3 on VMCConfig, the optimizer's and the plan's own numbers
        on neither."""
        train = {f.name for f in fields(TrainConfig)}
        vmc = {f.name for f in fields(VMCConfig)}
        assert train & vmc == set()
        assert len(train) <= 11
        assert vmc == {"n_samples", "eloc_mode", "seed", "eloc_memory_budget_mb"}
        assert not (train | vmc) & {"warmup", "lr_scale", "weight_decay",
                                    "grad_clip", "group_chunk", "sample_chunk",
                                    "sampler"}


class TestTrainReportSerialization:
    def test_to_dict_roundtrips_through_json(self, h2):
        import json as _json

        prob, fci = h2
        report = make_trainer(prob, fci, max_iterations=10).train()
        data = _json.loads(_json.dumps(report.to_dict()))
        assert data["iterations"] == 10
        assert data["energy"] == report.energy
        assert data["best_energy"] == report.best_energy
        assert data["stopped_early"] is False
        assert set(data) == {
            "energy", "best_energy", "iterations", "wall_time",
            "stopped_early", "extrapolated_energy", "v_score",
            "error_vs_reference", "correlation_fraction",
            "comm_bytes_logical", "comm_bytes_wire",
        }
        # Serial training: no communicating iterations, so no comm volume.
        assert data["comm_bytes_logical"] is None
        assert data["comm_bytes_wire"] is None
