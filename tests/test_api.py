"""Tests for the declarative experiment API (repro.api).

Covers the RunSpec JSON round-trip, spec validation error paths, the
refusal of removed fields, the ``--set`` override machinery, and the run driver's
acceptance contracts: bit-identical trajectories vs the hand-wired Trainer
path, bit-identical resume, the artifact-directory layout, and a servable
published snapshot.
"""
import json
from inspect import signature

import numpy as np
import pytest

from repro.api import (
    AnsatzSpec,
    OptimizerSpec,
    OutputSpec,
    ParallelSpec,
    ProblemSpec,
    RunSpec,
    SamplingSpec,
    SpecError,
    TrainSpec,
    apply_overrides,
    get_preset,
    parse_set_assignment,
    resume,
    run,
    serve_run,
)
from repro.api.driver import materialize_ansatz, materialize_problem
from repro.core import (
    VMC,
    NoamAdamW,
    TrainConfig,
    Trainer,
    VMCConfig,
    build_qiankunnet,
    default_ns_schedule,
)
from repro.core.checkpoint import load_model_snapshot
from repro.core.wavefunction import NNQSWavefunction


def full_spec() -> RunSpec:
    """A spec exercising every field type: str/int/float/bool/None/tuple/dict."""
    return RunSpec(
        name="roundtrip",
        problem=ProblemSpec(molecule="LiH", basis="sto-3g", n_frozen=1,
                            n_active=3, geometry={"r": 1.2}),
        ansatz=AnsatzSpec(d_model=8, n_heads=2, n_layers=1,
                          phase_hidden=(32, 16), token_bits=2, constrain=False,
                          reverse_order=False, seed=5),
        optimizer=OptimizerSpec(lr_scale=0.5, warmup=123, weight_decay=0.0,
                                grad_clip=None),
        sampling=SamplingSpec(ns_pretrain=777, ns_max=8888,
                              ns_growth=1.5, pretrain_iters=0,
                              eloc_mode="sample_aware"),
        train=TrainSpec(max_iterations=7, pretrain_steps=0,
                        pretrain_target=0.25, seed=9, plateau_window=3,
                        plateau_rel_tol=1e-5, early_stop=False),
        output=OutputSpec(run_dir="somewhere", checkpoint_every=2,
                          log_every=1, publish=False, publish_every=3,
                          reference="fci"),
    )


def tiny_spec(overrides: dict | None = None) -> RunSpec:
    """The smallest H2 spec; seeds/sizes match ``tiny_trainer`` below."""
    spec = RunSpec(
        name="tiny",
        problem=ProblemSpec(molecule="H2", basis="sto-3g",
                            geometry={"r": 0.7414}),
        ansatz=AnsatzSpec(d_model=8, n_heads=2, n_layers=1,
                          phase_hidden=(16,), seed=12),
        optimizer=OptimizerSpec(warmup=100),
        sampling=SamplingSpec(ns_pretrain=500, ns_max=1000, ns_growth=1.3,
                              pretrain_iters=2),
        train=TrainSpec(max_iterations=4, pretrain_steps=10, seed=11,
                        early_stop=False),
    )
    return spec.with_overrides(overrides)


def tiny_trainer(prob) -> Trainer:
    """The hand wiring equivalent to :func:`tiny_spec`."""
    wf = build_qiankunnet(prob.n_qubits, prob.n_up, prob.n_dn, d_model=8,
                          n_heads=2, n_layers=1, phase_hidden=(16,), seed=12)
    schedule = default_ns_schedule(pretrain_iters=2, ns_pretrain=500,
                                   ns_max=1000, ns_growth=1.3)
    vmc = VMC(wf, prob.hamiltonian, VMCConfig(n_samples=schedule, seed=11),
              optimizer=NoamAdamW(wf, warmup=100))
    return Trainer(vmc, TrainConfig(max_iterations=4, pretrain_steps=10,
                                    pretrain_iters=2, early_stop=False),
                   hf_bits=prob.hf_bits)


def metric_energies(path) -> list[float]:
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    return [r["energy"] for r in rows if "iteration" in r]


# ----------------------------------------------------------- spec round-trip
class TestSpecRoundTrip:
    def test_json_roundtrip_is_lossless(self):
        spec = full_spec()
        again = RunSpec.from_json(spec.to_json())
        assert again == spec

    def test_tuple_fields_come_back_as_tuples(self):
        again = RunSpec.from_json(full_spec().to_json())
        assert isinstance(again.ansatz.phase_hidden, tuple)
        assert again.ansatz.phase_hidden == (32, 16)

    def test_default_spec_roundtrips(self):
        spec = RunSpec()
        assert RunSpec.from_dict(spec.to_dict()) == spec

    def test_save_load_file(self, tmp_path):
        path = tmp_path / "spec.json"
        spec = full_spec()
        spec.save(path)
        assert RunSpec.load(path) == spec

    def test_presets_validate_and_roundtrip(self):
        for name in ("smoke", "h2", "n2-cas66"):
            spec = get_preset(name)
            assert RunSpec.from_json(spec.to_json()) == spec


# -------------------------------------------------------------- validation
class TestSpecValidation:
    @pytest.mark.parametrize("section,field,value", [
        ("train", "max_iterations", 0),
        ("train", "max_iterations", -3),
        ("train", "pretrain_target", 1.5),
        ("sampling", "ns_max", 0),
        ("sampling", "ns_growth", 0.0),
        ("sampling", "ns_growth", -1.0),
        ("sampling", "eloc_mode", "typo_mode"),
        ("sampling", "ns_pretrain", 0),
        ("ansatz", "d_model", 0),
        ("ansatz", "token_bits", 3),
        ("optimizer", "warmup", 0),
        ("optimizer", "grad_clip", -1.0),
        ("problem", "n_frozen", -1),
        ("output", "checkpoint_every", -1),
        # mistyped --set values: the one type gate, before any range check
        ("optimizer", "lr_scale", "abc"),
        ("optimizer", "weight_decay", "none"),
        ("optimizer", "grad_clip", "off"),
        ("sampling", "ns_growth", "fast"),
        ("train", "plateau_rel_tol", "x"),
        ("train", "pretrain_target", "half"),
        ("train", "early_stop", "maybe"),
        ("ansatz", "phase_hidden", 5),
        ("ansatz", "constrain", "no"),
        ("output", "publish", 1),
        ("parallel", "nu_star_per_rank", True),
        # caught by the spec, not by the network, molecule table or factory
        ("ansatz", "n_heads", 3),
        ("problem", "molecule", "Xx"),
        ("problem", "geometry", {"bogus": 1.0}),
    ])
    def test_bad_value_names_field(self, section, field, value):
        data = RunSpec().to_dict()
        data[section][field] = value
        with pytest.raises(SpecError, match=f"{section}.{field}"):
            RunSpec.from_dict(data)

    def test_unknown_field_lists_valid_ones(self):
        data = RunSpec().to_dict()
        data["train"]["max_iters"] = 5
        with pytest.raises(SpecError, match="max_iterations"):
            RunSpec.from_dict(data)

    @pytest.mark.parametrize("section", ["trian", "backend"])
    def test_unknown_section_rejected(self, section):
        data = RunSpec().to_dict()
        data[section] = {}
        with pytest.raises(SpecError, match=f"unknown field.*{section}"):
            RunSpec.from_dict(data)

    def test_unknown_preset_lists_presets(self):
        with pytest.raises(SpecError, match="smoke"):
            get_preset("does-not-exist")

    def test_bad_reference_rejected(self):
        with pytest.raises(SpecError, match="output.reference"):
            OutputSpec(reference="ccsd(t)")


# ---------------------------------------------------------------- registries
class TestRegistries:
    def test_the_component_registries_are_gone(self):
        """The driver builds QiankunNet and finds the backend in one table:
        no registry, ``register_*`` or lookup error is exported, and no
        foil or second component lives under src/."""
        import importlib

        import repro.api
        import repro.api.driver
        import repro.core
        import repro.nn

        for gone in ("repro.api.registry", "repro.api.builtins"):
            with pytest.raises(ModuleNotFoundError):
                importlib.import_module(gone)
        for module in (repro.api, repro.api.driver):
            for gone in ("ComponentRegistry", "UnknownComponentError", "ANSATZE",
                         "BACKENDS", "register_ansatz", "register_backend",
                         "ELOC_KERNELS", "register_eloc_kernel",
                         "materialize_eloc_kernel", "SAMPLERS", "register_sampler",
                         "materialize_sampler"):
                assert gone not in module.__all__ and not hasattr(module, gone)
            assert not [n for n in dir(module) if n.startswith("register_")]
        # One ansatz on the production path: the foils, their recompute
        # session and the session dispatch live in benchmarks/baseline_ansatze.py.
        for gone in ("MADEAmplitude", "NAQSMLPAmplitude", "FallbackInferenceSession",
                     "make_inference_session", "made"):
            assert gone not in repro.nn.__all__ and not hasattr(repro.nn, gone)
        for gone in ("RBMVMC", "MCMCStats", "metropolis_sample",
                     "merge_batches", "merged_batch_sample"):
            assert gone not in repro.core.__all__ and not hasattr(repro.core, gone)
        for gone in ("local_energy_baseline", "local_energy_sa_fuse",
                     "local_energy_sa_fuse_lut"):
            assert gone not in repro.core.__all__ and not hasattr(repro.core, gone)

    def test_a_cluster_without_rendezvous_fails_at_materialization(self, tmp_path):
        """A combination only the backend class can refuse is a SpecError
        before anything lands in the run directory."""
        spec = tiny_spec({"parallel.backend": "cluster", "parallel.n_ranks": 2})
        with pytest.raises(SpecError, match="parallel.rendezvous_addr"):
            run(spec, run_dir=tmp_path / "r")
        assert list((tmp_path / "r").iterdir()) == []

    def test_unknown_sampler_in_spec(self, tmp_path):
        """The knob is gone, with no alias: a --set naming it — or a parent-
        commit spec.json carrying it — is an unknown field, refused by name,
        whatever the value (even the former default)."""
        for key, value in (("sampling.sampler", "quantum"),
                           ("sampling.sampler", "bas"),
                           ("sampling.params", {})):
            with pytest.raises(SpecError, match=key):
                tiny_spec().with_overrides({key: value})
        assert set(SamplingSpec().to_dict()) == {
            "ns_pretrain", "ns_max", "ns_growth", "pretrain_iters", "eloc_mode"}
        data = tiny_spec().to_dict()
        data["sampling"].update(sampler="bas", params={})
        path = tmp_path / "old_spec.json"
        path.write_text(json.dumps(data))
        with pytest.raises(SpecError, match=r"sampling\.params, sampling\.sampler"):
            RunSpec.load(path)

    def test_unknown_optimizer_in_spec(self, tmp_path):
        """Neither the optimizer nor the ansatz is a component: naming one —
        even the former default — is an unknown field, refused by name, as is
        ``params``.  The ansatz section is exactly build_qiankunnet's
        keyword arguments."""
        for key, value in (("optimizer.name", "lion"), ("optimizer.name", "adamw"),
                           ("optimizer.name", "sr"), ("optimizer.params", {}),
                           ("ansatz.name", "transformer"), ("ansatz.name", "made"),
                           ("ansatz.params", {})):
            with pytest.raises(SpecError, match=key.replace(".", r"\.")):
                tiny_spec().with_overrides({key: value})
        assert set(OptimizerSpec().to_dict()) == {
            "lr_scale", "warmup", "weight_decay", "grad_clip"}
        assert set(AnsatzSpec().to_dict()) == set(
            signature(build_qiankunnet).parameters) - {"n_qubits", "n_up", "n_dn"}

    def test_the_array_backend_seam_is_gone(self):
        """The kernels call numpy directly: no backend package, no
        ``array_backend`` engine argument, no ``backend`` spec section or
        serve field, no transfer counters on an iteration's stats."""
        import dataclasses
        import importlib

        import repro.api.driver
        from repro.core.engine import VMCStats
        from repro.serve import ServeConfig

        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.backend")
        assert "array_backend" not in signature(VMC).parameters
        assert "backend" not in RunSpec().to_dict()
        assert "backend" not in {f.name for f in dataclasses.fields(ServeConfig)}
        assert "transfers" not in {f.name for f in dataclasses.fields(VMCStats)}
        for gone in ("materialize_array_backend", "_backend_report"):
            assert not hasattr(repro.api.driver, gone)

    @pytest.mark.parametrize("path", ["backend.name", "serve.backend"])
    def test_a_removed_backend_field_is_refused_by_name(self, path, tmp_path,
                                                        capsys):
        """A spec or ``--set`` naming the array backend is an unknown field,
        refused by name before a run directory exists."""
        from repro.api.cli import main

        with pytest.raises(SpecError, match=path.replace(".", r"\.")):
            RunSpec().with_overrides({path: "numpy"})
        run_dir = tmp_path / "run"
        assert main(["run", "--preset", "smoke", "--set", f'{path}="numpy"',
                     "--run-dir", str(run_dir)]) == 2
        assert path in capsys.readouterr().err
        assert not run_dir.exists()

    def test_the_optimizer_machinery_is_gone(self):
        """One optimizer: no registry, protocol, schedule object or foil is
        exported (SR lives in benchmarks/bench_ablations.py)."""
        import repro.api
        import repro.api.driver
        import repro.core
        import repro.optim

        removed = ("StochasticReconfiguration", "SRConfig", "SRStepInfo",
                   "OPTIMIZERS", "register_optimizer", "materialize_optimizer",
                   "NoamSchedule", "ConstantSchedule", "SGD")
        for module in (repro.core, repro.api, repro.api.driver, repro.optim):
            for gone in removed:
                assert gone not in module.__all__ and not hasattr(module, gone)
        assert repro.optim.__all__ == ["AdamW"]
        opt = NoamAdamW(build_qiankunnet(4, 1, 1, d_model=8, n_heads=2,
                                         n_layers=1, phase_hidden=(8,)))
        for gone in ("direction", "apply", "single_rank_reason", "schedule"):
            assert not hasattr(opt, gone)

    @pytest.mark.parametrize("field,value", [
        ("comm_codec", True), ("comm_shm", False), ("eloc_partition", "balanced"),
    ])
    def test_a_removed_parallel_option_is_refused_by_name(self, field, value,
                                                          tmp_path, capsys):
        """A multi-rank iteration has one shape: a spec or ``--set`` naming
        a former wire/partition option — even at its former default — is an
        unknown field, refused by name before a run directory exists."""
        from repro.api.cli import main

        data = tiny_spec().to_dict()
        data["parallel"][field] = value
        with pytest.raises(SpecError, match=rf"parallel\.{field}"):
            RunSpec.from_dict(data)
        run_dir = tmp_path / "run"
        assert main(["run", "--preset", "smoke",
                     "--set", f"parallel.{field}={json.dumps(value)}",
                     "--run-dir", str(run_dir)]) == 2
        assert f"parallel.{field}" in capsys.readouterr().err
        assert not run_dir.exists()
        assert field not in ParallelSpec().to_dict()

    def test_unknown_eloc_kernel_in_spec(self, tmp_path):
        """The knob is gone, with no alias: a --set naming it is an unknown
        field, whatever the value — even the former default."""
        for value in ("warp", "planned"):
            with pytest.raises(SpecError, match="sampling.eloc_kernel"):
                tiny_spec().with_overrides({"sampling.eloc_kernel": value})

    def test_non_batch_eloc_kernel_fails_at_materialization(self, tmp_path):
        """An old spec.json carrying the key fails to load, naming it —
        nothing is silently ignored, and no run directory is touched."""
        data = tiny_spec().to_dict()
        data["sampling"]["eloc_kernel"] = "exact"
        path = tmp_path / "old_spec.json"
        path.write_text(json.dumps(data))
        with pytest.raises(SpecError, match="sampling.eloc_kernel"):
            RunSpec.load(path)
        with pytest.raises(SpecError, match="sampling.eloc_kernel"):
            RunSpec.from_dict(data)

    def test_eloc_kernel_default_is_planned(self):
        """No field: every run uses the compiled plan."""
        assert "eloc_kernel" not in RunSpec().to_dict()["sampling"]
        assert not hasattr(RunSpec().sampling, "eloc_kernel")

    def test_planned_and_vectorized_runs_bit_identical(self, tmp_path,
                                                       stage3_vs_reference):
        """A whole run through the front door: every stage-3 call equals the
        reference kernel on the same ``(chunk, table)``."""
        result = run(tiny_spec(), run_dir=tmp_path / "a")
        assert len(stage3_vs_reference) == len(metric_energies(result.metrics_path))


# ------------------------------------------------------------ --set parsing
class TestOverrides:
    @pytest.mark.parametrize("text,expected", [
        ("train.max_iterations=3", ("train.max_iterations", 3)),
        ("optimizer.lr_scale=0.5", ("optimizer.lr_scale", 0.5)),
        ("train.early_stop=false", ("train.early_stop", False)),
        ("optimizer.grad_clip=null", ("optimizer.grad_clip", None)),
        ("problem.molecule=LiH", ("problem.molecule", "LiH")),
        ("ansatz.phase_hidden=[8, 4]", ("ansatz.phase_hidden", [8, 4])),
        ('name="quoted name"', ("name", "quoted name")),
    ])
    def test_parse_set_assignment(self, text, expected):
        assert parse_set_assignment(text) == expected

    def test_missing_equals_rejected(self):
        with pytest.raises(SpecError, match="key=value"):
            parse_set_assignment("train.max_iterations")

    def test_empty_key_rejected(self):
        with pytest.raises(SpecError, match="key=value"):
            parse_set_assignment("=3")

    def test_with_overrides_applies_and_validates(self):
        spec = RunSpec().with_overrides(["train.max_iterations=3",
                                         "ansatz.phase_hidden=[8]"])
        assert spec.train.max_iterations == 3
        assert spec.ansatz.phase_hidden == (8,)

    def test_with_overrides_rejects_bad_value(self):
        with pytest.raises(SpecError, match="train.max_iterations"):
            RunSpec().with_overrides({"train.max_iterations": 0})

    def test_with_overrides_rejects_unknown_field(self):
        with pytest.raises(SpecError, match="max_iterations"):
            RunSpec().with_overrides({"train.max_iters": 3})

    def test_override_through_non_section_fails(self):
        with pytest.raises(SpecError, match="not a spec section"):
            apply_overrides(RunSpec().to_dict(), {"name.deep.key": 1})

    def test_original_spec_untouched(self):
        spec = RunSpec()
        spec.with_overrides({"train.max_iterations": 3})
        assert spec.train.max_iterations == 1000


# ------------------------------------------------------- driver equivalence
class TestDriverEquivalence:
    def test_run_matches_hand_wired_trainer(self, h2_problem, tmp_path):
        """Acceptance: run(spec) is bit-identical to the Trainer path."""
        trainer = tiny_trainer(h2_problem)
        trainer.train()
        hand = [s.energy for s in trainer.vmc.history]

        result = run(tiny_spec(), run_dir=tmp_path / "run")
        driven = metric_energies(result.metrics_path)
        assert driven == hand  # exact float equality, not approx

    # (n_params, sum p, p @ p, sum i*p) of each preset's initial flat
    # parameters.  "smoke" was measured when the ansatz was still built
    # through a registry; "h2" and "n2-cas66" at the default phase MLP
    # (256, 256), and PAPER_WIDTH_PARAMS at the paper's (512, 512), the
    # registry-era default.
    PRESET_PARAMS = {
        "smoke": (1085, 24.268321076117328, 58.29313182608183, 14060.78283615755),
        "h2": (74117, 91.80305439032561, 376.62734458550506, 471658.11352939624),
        "n2-cas66": (76229, 106.37623147599214, 360.39732005928255,
                     651089.9224654987),
    }
    PAPER_WIDTH_PARAMS = {
        "h2": (272517, 85.05968319546906, 570.4846465706622, -1365265.9186880463),
        "n2-cas66": (276677, 104.28472801674576, 537.6882276273324,
                     -1387255.1322088216),
    }

    @staticmethod
    def _check_params(wf, expected):
        p = wf.get_flat_params()
        n, total, square, moment = expected
        assert p.size == n
        np.testing.assert_allclose(
            [p.sum(), p @ p, np.arange(p.size) @ p], [total, square, moment],
            rtol=1e-12)

    @pytest.mark.parametrize("preset", sorted(PRESET_PARAMS))
    def test_preset_builds_the_same_qiankunnet(self, preset):
        """Each preset's ansatz section reaches build_qiankunnet unchanged:
        the same initial parameters as before, and — with no outside builder
        able to reach a run — an autoregressive wavefunction that carries the
        amplitude protocol and a rebuild spec by construction."""
        spec = get_preset(preset)
        wf = materialize_ansatz(spec.ansatz, materialize_problem(spec.problem))
        assert isinstance(wf, NNQSWavefunction) and wf.spec is not None
        for attr in ("make_session", "prefix_forward", "prefix_vjp", "d_model"):
            assert hasattr(wf.amplitude, attr)
        self._check_params(wf, self.PRESET_PARAMS[preset])

    @pytest.mark.parametrize("preset", sorted(PAPER_WIDTH_PARAMS))
    def test_paper_width_builds_the_registry_era_parameters(self, preset):
        """The default width moved and nothing else: a preset with
        ``ansatz.phase_hidden`` set to the paper's (512, 512) draws the very
        parameters it drew when that was the default."""
        spec = get_preset(preset).with_overrides({"ansatz.phase_hidden": [512, 512]})
        wf = materialize_ansatz(spec.ansatz, materialize_problem(spec.problem))
        self._check_params(wf, self.PAPER_WIDTH_PARAMS[preset])

    def test_resume_continues_bit_identically(self, tmp_path):
        """Acceptance: resume(run_dir) continues the trajectory exactly."""
        full = run(tiny_spec({"train.max_iterations": 6}),
                   run_dir=tmp_path / "full")
        reference = metric_energies(full.metrics_path)
        assert len(reference) == 6

        first = run(tiny_spec({"train.max_iterations": 3}),
                    run_dir=tmp_path / "split")
        assert metric_energies(first.metrics_path) == reference[:3]

        resumed = resume(first.run_dir, overrides={"train.max_iterations": 6})
        assert resumed.report.iterations == 6
        assert metric_energies(resumed.metrics_path) == reference
        np.testing.assert_array_equal(
            resumed.wavefunction.get_flat_params(),
            full.wavefunction.get_flat_params())

        # The extended budget is persisted for future resumes.
        assert RunSpec.load(resumed.spec_path).train.max_iterations == 6

    def test_a_spec_run_twice_is_bit_identical(self, tmp_path):
        """Byte-identical metrics, the same report apart from wall time and
        the same checkpoint apart from its timing histories."""
        a, b = (run(tiny_spec(), run_dir=tmp_path / name) for name in "ab")
        assert a.metrics_path.read_bytes() == b.metrics_path.read_bytes()
        ra, rb = (json.loads(r.report_path.read_text()) for r in (a, b))
        for r in (ra, rb):
            r.pop("wall_time")
        assert ra == rb
        timing = {"hist_wall_time", "hist_time_sampling",
                  "hist_time_local_energy", "hist_time_gradient"}
        ca, cb = (np.load(r.checkpoint_path, allow_pickle=True) for r in (a, b))
        assert set(ca.files) == set(cb.files) and timing <= set(ca.files)
        for key in set(ca.files) - timing:
            if ca[key].dtype != object:
                np.testing.assert_array_equal(ca[key], cb[key], err_msg=key)

    def test_refused_resume_leaves_the_run_resumable(self, tmp_path):
        """Overrides reach spec.json only after every component materialized:
        a refused combination must not poison the directory."""
        first = run(tiny_spec({"train.max_iterations": 2}),
                    run_dir=tmp_path / "run")
        before = first.spec_path.read_bytes()
        with pytest.raises(SpecError, match=r"parallel: .*serial"):
            resume(first.run_dir, overrides={
                "train.max_iterations": 3, "parallel.backend": "serial",
                "parallel.n_ranks": 2})
        assert first.spec_path.read_bytes() == before
        again = resume(first.run_dir, overrides={"train.max_iterations": 3})
        assert again.report.iterations == 3

    def test_resume_without_checkpoint_dir_fails(self, tmp_path):
        with pytest.raises(SpecError, match="not a run directory"):
            resume(tmp_path / "nope")

    def test_resume_with_exhausted_budget_does_not_republish(self, tmp_path):
        result = run(tiny_spec(), run_dir=tmp_path / "run")
        assert result.registry().versions() == [1]
        again = resume(result.run_dir)  # budget already spent: 0 new iters
        assert again.report.iterations == 4
        assert again.registry().versions() == [1]
        assert again.published_version == 1


# ----------------------------------------------------------------- artifacts
class TestArtifacts:
    @pytest.fixture(scope="class")
    def completed(self, tmp_path_factory):
        run_dir = tmp_path_factory.mktemp("artifacts") / "run"
        return run(tiny_spec(), run_dir=run_dir)

    def test_layout(self, completed):
        assert completed.spec_path.exists()
        assert completed.metrics_path.exists()
        assert completed.checkpoint_path.exists()
        assert completed.report_path.exists()
        assert (completed.registry_dir / "manifest.json").exists()

    def test_spec_json_reloads_equal(self, completed):
        assert RunSpec.load(completed.spec_path) == completed.spec

    def test_report_json_matches_report(self, completed):
        on_disk = json.loads(completed.report_path.read_text())
        # The driver appends the Hamiltonian's section on top of the
        # TrainReport payload: H2 keeps all 14 terms under the screen.
        assert on_disk.pop("hamiltonian") == {
            "n_terms": 14, "screened_terms": 0, "screened_weight_ha": 0.0}
        assert on_disk == completed.report.to_dict()
        assert on_disk["iterations"] == 4

    def test_report_is_replaced_atomically(self, tmp_path, monkeypatch):
        """report.json is written to a temp file in the run dir and renamed
        over the target, so a kill mid-write cannot tear it."""
        import os

        from repro.api.driver import REPORT_FILE, _write_report

        class Report:
            def __init__(self, n):
                self.n = n

            def to_dict(self):
                return {"iterations": self.n}

        _write_report(tmp_path, Report(1))
        renames = []
        real_replace = os.replace

        def spy(src, dst):
            # The new bytes are complete before they become visible.
            assert json.loads(open(src).read()) == {"iterations": 2}
            assert json.loads((tmp_path / REPORT_FILE).read_text()) == {
                "iterations": 1}
            renames.append((os.path.dirname(src), os.fspath(dst)))
            real_replace(src, dst)

        monkeypatch.setattr("repro.utils.atomic.os.replace", spy)
        _write_report(tmp_path, Report(2))
        assert renames == [(str(tmp_path), str(tmp_path / REPORT_FILE))]
        assert json.loads((tmp_path / REPORT_FILE).read_text()) == {
            "iterations": 2}
        assert [p.name for p in tmp_path.iterdir()] == [REPORT_FILE]

    def test_snapshot_published_and_loadable(self, completed):
        registry = completed.registry()
        assert registry.latest_version() == completed.published_version == 1
        wf, metadata = registry.load()
        np.testing.assert_array_equal(
            wf.get_flat_params(), completed.wavefunction.get_flat_params())
        assert metadata["final"] is True
        assert metadata["iteration"] == 4

    def test_snapshot_file_loads_standalone(self, completed):
        path = completed.registry().path(1)
        wf, _ = load_model_snapshot(path)
        assert wf.n_qubits == completed.wavefunction.n_qubits

    def test_run_dir_collision_rejected(self, completed):
        with pytest.raises(SpecError, match="already contains a run"):
            run(tiny_spec(), run_dir=completed.run_dir)

    def test_failed_materialization_leaves_dir_reusable(self, tmp_path):
        """A typo'd spec must not brick its run_dir (no orphan spec.json)."""
        target = tmp_path / "run"
        bad = tiny_spec().with_overrides({"parallel.backend": "gpu"})
        with pytest.raises(SpecError, match="parallel.backend"):
            run(bad, run_dir=target)
        assert not (target / "spec.json").exists()
        result = run(tiny_spec(), run_dir=target)  # retry after fixing
        assert result.report.iterations == 4

    def test_spec_output_run_dir_is_honored(self, tmp_path):
        target = tmp_path / "from-spec"
        spec = tiny_spec().with_overrides({"output.run_dir": str(target)})
        result = run(spec)
        assert result.run_dir == target
        assert result.report_path.exists()

    def test_publish_disabled(self, tmp_path):
        spec = tiny_spec().with_overrides({"output.publish": False})
        result = run(spec, run_dir=tmp_path / "r")
        assert result.published_version is None
        assert not (result.registry_dir / "manifest.json").exists()

    def test_publish_every(self, tmp_path):
        spec = tiny_spec().with_overrides({"output.publish_every": 2})
        result = run(spec, run_dir=tmp_path / "r")
        # 4 iterations -> periodic snapshots at 2 and 4, plus the final one.
        assert result.registry().versions() == [1, 2, 3]
        assert result.published_version == 3


# ------------------------------------------------------------------- serving
class TestServing:
    def test_serve_run_answers_log_amplitudes(self, tmp_path):
        """Acceptance: a completed run's snapshot is directly servable and
        serves ``log_amplitudes`` matching direct evaluation."""
        result = run(tiny_spec(), run_dir=tmp_path / "run")
        service = serve_run(result.run_dir)
        with service:
            batch = service.sample(64, seed=5)
            served = service.log_amplitudes(batch.bits)
        direct = result.wavefunction.log_amplitudes(batch.bits)
        np.testing.assert_allclose(served, direct, atol=1e-12, rtol=0)

    def test_a_paper_width_run_reloads_trains_and_serves_at_its_width(self, tmp_path):
        """A run written at the phase width (512, 512), the default before
        (256, 256), records that width in ``spec.json``, ``checkpoint.npz``'s
        run and every snapshot's spec; so it resumes, publishes and serves at
        512 wide, and the default never reaches it."""
        result = run(tiny_spec({"ansatz.phase_hidden": [512, 512]}),
                     run_dir=tmp_path / "run")
        on_disk = json.loads(result.spec_path.read_text())
        assert on_disk["ansatz"]["phase_hidden"] == [512, 512]

        def widths(wf):
            return [layer.out_features for layer in wf.phase.layers]

        again = resume(result.run_dir, overrides={"train.max_iterations": 6})
        assert again.report.iterations == 6
        assert widths(again.wavefunction) == [512, 512, 1]
        registry = again.registry()
        assert registry.versions() == [1, 2]
        for version in registry.versions():
            wf, _ = registry.load(version)
            assert widths(wf) == [512, 512, 1]
        np.testing.assert_array_equal(wf.get_flat_params(),
                                      again.wavefunction.get_flat_params())
        with serve_run(result.run_dir) as service:
            batch = service.sample(32, seed=3)
            served = service.log_amplitudes(batch.bits)
        np.testing.assert_allclose(
            served, again.wavefunction.log_amplitudes(batch.bits), atol=1e-12, rtol=0)

    def test_a_parent_written_run_resumes_but_its_snapshots_are_refused(self, tmp_path):
        """A run directory of the commit before the ``amplitude_type`` key
        left ``wf.spec``: ``spec.json`` and ``checkpoint.npz`` never held it,
        so the run resumes; its ``models/`` snapshots name the key, and the one
        reader of snapshots refuses them by that name, no alias."""
        result = run(tiny_spec(), run_dir=tmp_path / "run")
        snapshot = result.registry().path(result.published_version)
        with np.load(snapshot) as data:
            payload = dict(data)
        spec = {**json.loads(payload["spec_json"].item()),
                "amplitude_type": "transformer"}
        payload["spec_json"] = np.array(json.dumps(spec))
        np.savez(snapshot, **payload)
        with pytest.raises(ValueError, match="amplitude_type") as err:
            result.registry().load()
        assert snapshot.name in str(err.value)
        with serve_run(result.run_dir) as service:
            with pytest.raises(ValueError, match="amplitude_type"):
                service.sample(8, seed=1)
        again = resume(result.run_dir, overrides={"train.max_iterations": 5})
        assert again.report.iterations == 5

    def test_a_parent_written_spec_naming_an_optimizer_is_refused(self, tmp_path,
                                                                  capsys):
        """A run directory whose ``spec.json`` carries ``optimizer.name`` /
        ``optimizer.params`` (every spec.json before the optimizer registry
        left) or ``ansatz.name`` / ``ansatz.params`` (before the ansatz
        registry left) is refused by those names on resume, info and serve —
        no alias, and nothing in the directory is written."""
        from repro.api.cli import main

        result = run(tiny_spec({"train.max_iterations": 2}),
                     run_dir=tmp_path / "run")
        written = json.loads(result.spec_path.read_text())

        def tree():
            return {p: p.read_bytes() for p in sorted(result.run_dir.rglob("*"))
                    if p.is_file()}

        for section, name in (("optimizer", "adamw"), ("ansatz", "transformer")):
            data = json.loads(json.dumps(written))
            data[section].update(name=name, params={})
            result.spec_path.write_text(json.dumps(data, indent=2, sort_keys=True))
            before = tree()
            names = f"{section}.name, {section}.params"
            refused = r"unknown field\(s\) " + names.replace(".", r"\.")
            with pytest.raises(SpecError, match=refused):
                resume(result.run_dir, overrides={"train.max_iterations": 3})
            with pytest.raises(SpecError, match=refused):
                serve_run(result.run_dir)
            for argv in (["resume", str(result.run_dir)], ["info", str(result.run_dir)],
                         ["serve", str(result.run_dir)]):
                assert main(argv) == 2
                assert names in capsys.readouterr().err
            assert tree() == before

    def test_serve_run_without_snapshots_fails(self, tmp_path):
        spec = tiny_spec().with_overrides({"output.publish": False})
        result = run(spec, run_dir=tmp_path / "run")
        with pytest.raises(SpecError, match="no published snapshots"):
            serve_run(result.run_dir)


# ------------------------------------------------- spec -> owning object
class TestEveryLeafLands:
    """Each run-shaping spec leaf, set to a non-default value, is read back
    off the one object that owns it — a forwarding line lost between the
    spec and that object fails here."""

    def test_every_run_shaping_leaf_reaches_its_owner(self, tmp_path):
        from repro.api.driver import _build_trainer, materialize_problem

        spec = RunSpec().with_overrides({
            "ansatz.d_model": 8, "ansatz.n_heads": 2, "ansatz.n_layers": 1,
            "ansatz.phase_hidden": [8],
            "optimizer.lr_scale": 0.5, "optimizer.warmup": 123,
            "optimizer.weight_decay": 0.02, "optimizer.grad_clip": 0.7,
            "sampling.ns_pretrain": 777, "sampling.ns_max": 8888,
            "sampling.ns_growth": 1.5, "sampling.pretrain_iters": 3,
            "sampling.eloc_mode": "sample_aware",
            "parallel.backend": "process", "parallel.n_ranks": 2,
            "parallel.nu_star_per_rank": 8,
            "parallel.eloc_memory_budget_mb": 2.5,
            "parallel.join_timeout_s": 7.0,
            "parallel.collective_timeout_s": 120.0,
            "train.max_iterations": 7, "train.pretrain_steps": 5,
            "train.pretrain_target": 0.25, "train.seed": 9,
            "train.plateau_window": 4, "train.plateau_rel_tol": 1e-5,
            "train.early_stop": False,
            "output.checkpoint_every": 2, "output.log_every": 1,
        })
        trainer = _build_trainer(spec, tmp_path, materialize_problem(spec.problem))
        vmc = trainer.vmc

        opt = vmc.optimizer
        assert type(opt) is NoamAdamW and opt.model is vmc.wf
        assert (opt.warmup, opt.lr_scale) == (123, 0.5)
        assert (opt.weight_decay, opt.grad_clip) == (0.02, 0.7)

        assert (vmc.config.eloc_mode, vmc.config.seed) == ("sample_aware", 9)
        ns = vmc.config.n_samples
        assert (ns(0), ns(2), ns(3), ns(4)) == (777, 777, 777, int(777 * 1.5))
        assert ns(50) == 8888  # the ns_max cap
        assert vmc.config.eloc_memory_budget_mb == 2.5
        assert vmc.eloc_plan.memory_budget_bytes == int(2.5 * 2**20)

        backend = vmc.backend
        assert (type(backend).__name__, backend.n_ranks) == ("ProcessBackend", 2)
        assert backend.nu_star_per_rank == 8
        assert backend.collective_timeout_s == 120.0
        assert backend.join_timeout_s == 7.0

        cfg = trainer.config
        assert (cfg.max_iterations, cfg.pretrain_steps) == (7, 5)
        assert (cfg.pretrain_target, cfg.pretrain_iters) == (0.25, 3)
        assert (cfg.plateau_window, cfg.plateau_rel_tol) == (4, 1e-5)
        assert cfg.early_stop is False
        assert (cfg.checkpoint_every, cfg.log_every) == (2, 1)
        assert cfg.checkpoint_path == tmp_path / "checkpoint.npz"
        assert cfg.log_path == tmp_path / "metrics.jsonl"
