"""Tests for the declarative experiment API (repro.api).

Covers the RunSpec JSON round-trip, spec validation error paths, the
component registries, the ``--set`` override machinery, and the run driver's
acceptance contracts: bit-identical trajectories vs the hand-wired Trainer
path, bit-identical resume, the artifact-directory layout, and a servable
published snapshot.
"""
import json

import numpy as np
import pytest

from repro.api import (
    ANSATZE,
    AnsatzSpec,
    ComponentRegistry,
    OptimizerSpec,
    OutputSpec,
    ProblemSpec,
    RunSpec,
    SamplingSpec,
    SpecError,
    TrainSpec,
    UnknownComponentError,
    apply_overrides,
    get_preset,
    parse_set_assignment,
    resume,
    run,
    serve_run,
)
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
from tests.conftest import build_wf


def full_spec() -> RunSpec:
    """A spec exercising every field type: str/int/float/bool/None/tuple/dict."""
    return RunSpec(
        name="roundtrip",
        problem=ProblemSpec(molecule="LiH", basis="sto-3g", n_frozen=1,
                            n_active=3, geometry={"r": 1.2}),
        ansatz=AnsatzSpec(name="my-ansatz", d_model=8, n_heads=2, n_layers=1,
                          phase_hidden=(32, 16), token_bits=2, constrain=False,
                          reverse_order=False, seed=5, params={"extra": 1}),
        optimizer=OptimizerSpec(name="adamw", lr_scale=0.5, warmup=123,
                                weight_decay=0.0, grad_clip=None,
                                params={"lr": 0.1}),
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
        ansatz=AnsatzSpec(name="transformer", d_model=8, n_heads=2,
                          n_layers=1, phase_hidden=(16,), seed=12),
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


@pytest.fixture()
def registered():
    """``registered(builder) -> name``: an ansatz registered for one test."""
    from repro.api import register_ansatz
    from repro.api.registry import ANSATZE as registry

    names = []

    def register(builder):
        names.append(f"test-ansatz-{len(names)}")
        register_ansatz(names[-1], builder)
        return names[-1]

    yield register
    for name in names:
        registry._builders.pop(name, None)


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

    def test_unknown_section_rejected(self):
        data = RunSpec().to_dict()
        data["trian"] = {}
        with pytest.raises(SpecError, match="trian"):
            RunSpec.from_dict(data)

    def test_unknown_preset_lists_presets(self):
        with pytest.raises(SpecError, match="smoke"):
            get_preset("does-not-exist")

    def test_bad_reference_rejected(self):
        with pytest.raises(SpecError, match="output.reference"):
            OutputSpec(reference="ccsd(t)")


# ---------------------------------------------------------------- registries
class TestRegistries:
    def test_builtins_are_registered(self):
        import repro.api
        import repro.core
        import repro.api.registry
        from repro.api import OPTIMIZERS

        import repro.nn

        assert set(ANSATZE.names()) == {"transformer"}
        # One ansatz on the production path: the foils, their recompute
        # session and the session dispatch live in benchmarks/baseline_ansatze.py.
        for gone in ("MADEAmplitude", "NAQSMLPAmplitude", "FallbackInferenceSession",
                     "make_inference_session", "made"):
            assert gone not in repro.nn.__all__ and not hasattr(repro.nn, gone)
        assert {"adamw", "sr"} <= set(OPTIMIZERS.names())
        # Three registries, and only three.
        assert {n for n in repro.api.registry.__all__ if n.isupper()} == {
            "ANSATZE", "OPTIMIZERS", "BACKENDS"}
        # Neither the sampler nor the local energy is a component: no
        # registry, no materializer, no exported foil or rung.
        for gone in ("ELOC_KERNELS", "register_eloc_kernel",
                     "materialize_eloc_kernel", "SAMPLERS", "register_sampler",
                     "materialize_sampler"):
            assert gone not in repro.api.__all__ and not hasattr(repro.api, gone)
        for gone in ("RBMVMC", "MCMCStats", "metropolis_sample",
                     "merge_batches", "merged_batch_sample"):
            assert gone not in repro.core.__all__ and not hasattr(repro.core, gone)
        for gone in ("local_energy_baseline", "local_energy_sa_fuse",
                     "local_energy_sa_fuse_lut"):
            assert gone not in repro.core.__all__ and not hasattr(repro.core, gone)

    def test_unknown_name_error_lists_registered(self):
        with pytest.raises(UnknownComponentError) as exc:
            ANSATZE.get("retnet")
        message = str(exc.value)
        assert "retnet" in message
        assert "transformer" in message
        for removed in ("made", "naqs-mlp"):     # refused like any unknown name
            with pytest.raises(UnknownComponentError, match="transformer"):
                ANSATZE.get(removed)

    def test_empty_registry_error_says_none(self):
        reg = ComponentRegistry("widget")
        with pytest.raises(UnknownComponentError, match=r"\(none\)"):
            reg.get("anything")

    def test_register_decorator_and_duplicate_rejection(self):
        reg = ComponentRegistry("widget")

        @reg.register("thing")
        def build_thing():
            return "built"

        assert "thing" in reg
        assert reg.build("thing") == "built"
        with pytest.raises(ValueError, match="already registered"):
            reg.register("thing", lambda: None)
        reg.register("thing", lambda: "replaced", overwrite=True)
        assert reg.build("thing") == "replaced"

    def test_unknown_ansatz_in_spec_fails_at_materialization(self, tmp_path):
        spec = tiny_spec().with_overrides({"ansatz.name": "retnet"})
        with pytest.raises(UnknownComponentError, match="transformer"):
            run(spec, run_dir=tmp_path / "r")

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
        spec = tiny_spec().with_overrides({"optimizer.name": "lion"})
        with pytest.raises(UnknownComponentError, match="adamw"):
            run(spec, run_dir=tmp_path / "r")

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

    def test_eloc_kernel_default_is_planned(self, capsys):
        """No field, no listing: every run uses the compiled plan."""
        from repro.api.cli import main

        assert "eloc_kernel" not in RunSpec().to_dict()["sampling"]
        assert not hasattr(RunSpec().sampling, "eloc_kernel")
        assert main(["info", "--components"]) == 0
        assert "eloc_kernel" not in capsys.readouterr().out

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

    def test_resume_continues_bit_identically(self, tmp_path):
        """Acceptance: resume(run_dir) continues the trajectory exactly —
        whichever optimizer runs inside the one loop.  (A loop, not a
        parametrization: the test keeps its id.)"""
        for optimizer in ("adamw", "sr"):
            base = {"optimizer.name": optimizer}
            full = run(tiny_spec({**base, "train.max_iterations": 6}),
                       run_dir=tmp_path / optimizer / "full")
            reference = metric_energies(full.metrics_path)
            assert len(reference) == 6

            first = run(tiny_spec({**base, "train.max_iterations": 3}),
                        run_dir=tmp_path / optimizer / "split")
            assert metric_energies(first.metrics_path) == reference[:3]

            resumed = resume(first.run_dir,
                             overrides={"train.max_iterations": 6})
            assert resumed.report.iterations == 6
            assert metric_energies(resumed.metrics_path) == reference
            np.testing.assert_array_equal(
                resumed.wavefunction.get_flat_params(),
                full.wavefunction.get_flat_params())

            # The extended budget is persisted for future resumes.
            assert RunSpec.load(resumed.spec_path).train.max_iterations == 6

    def test_refused_resume_leaves_the_run_resumable(self, tmp_path):
        """Overrides reach spec.json only after every component materialized:
        a refused combination must not poison the directory."""
        first = run(tiny_spec({"train.max_iterations": 2}),
                    run_dir=tmp_path / "run")
        before = first.spec_path.read_bytes()
        with pytest.raises(SpecError, match=r"optimizer\.name='sr'"):
            resume(first.run_dir, overrides={
                "train.max_iterations": 3, "parallel.backend": "threads",
                "parallel.n_ranks": 2, "optimizer.name": "sr"})
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
        # The driver appends the array-backend section on top of the
        # TrainReport payload; a numpy run records the name only (no
        # transfer counters — numpy is not instrumented).
        backend = on_disk.pop("backend")
        assert backend == {"name": "numpy"}
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
        bad = tiny_spec().with_overrides({"ansatz.name": "retnet"})
        with pytest.raises(UnknownComponentError):
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

    def test_serve_run_without_snapshots_fails(self, tmp_path):
        spec = tiny_spec().with_overrides({"output.publish": False})
        result = run(spec, run_dir=tmp_path / "run")
        with pytest.raises(SpecError, match="no published snapshots"):
            serve_run(result.run_dir)


# --------------------------------------------------------- pluggable pieces
class TestPluggability:
    def test_sr_optimizer_runs_and_reports(self, tmp_path):
        spec = tiny_spec().with_overrides({
            "optimizer.name": "sr",
            "optimizer.params": {"lr": 0.05},
            "train.max_iterations": 2,
            "train.pretrain_steps": 5,
        })
        result = run(spec, run_dir=tmp_path / "run")
        assert result.report.iterations == 2
        assert np.isfinite(result.report.energy)
        assert len(metric_energies(result.metrics_path)) == 2
        assert result.report_path.exists()
        assert result.published_version == 1
        # SR runs are checkpointed like any other: resume runs iteration 3.
        assert result.checkpoint_path.exists()
        resumed = resume(result.run_dir,
                         overrides={"train.max_iterations": 3})
        assert resumed.report.iterations == 3
        rows = [json.loads(line) for line in
                resumed.metrics_path.read_text().splitlines()]
        assert [r["iteration"] for r in rows if "iteration" in r] == [1, 2, 3]
        assert rows[-1]["lr"] == 0.05  # the learning rate, not an update norm

    def test_sr_through_run_matches_the_hand_driven_loop(self, h2_problem,
                                                         tmp_path):
        """The engine-driven SR trajectory is the hand-driven one of
        ``examples/sr_vs_adamw.py`` (sample -> local_energy -> sr.step).
        Rows reach the SVD lexsorted instead of in sampler order, so the
        energies agree to rounding, not bitwise."""
        from repro.core import (
            SRConfig,
            StochasticReconfiguration,
            batch_autoregressive_sample,
            local_energy,
            pretrain_to_reference,
        )
        from repro.hamiltonian.compressed import compress_hamiltonian

        spec = tiny_spec({"optimizer.name": "sr",
                          "optimizer.params": {"lr": 0.05},
                          "train.max_iterations": 3})
        driven = metric_energies(run(spec, run_dir=tmp_path / "run").metrics_path)

        wf = tiny_trainer(h2_problem).wf
        pretrain_to_reference(wf, h2_problem.hf_bits, n_steps=10)
        sr = StochasticReconfiguration(wf, SRConfig(lr=0.05))
        comp = compress_hamiltonian(h2_problem.hamiltonian)
        rng = np.random.default_rng(11)
        hand = []
        for _ in range(3):
            batch = batch_autoregressive_sample(wf, 500, rng)
            eloc, _ = local_energy(wf, comp, batch, mode="exact")
            hand.append(sr.step(batch, eloc).energy)
        np.testing.assert_allclose(driven, hand, atol=1e-9, rtol=0)

    def test_custom_ansatz_plugs_in_by_name(self, tmp_path, registered):
        """A registered builder — here a network that is *not* the built-in,
        known to the run by the amplitude protocol alone — is reachable from
        a spec with zero driver edits, trains, checkpoints and resumes."""
        calls = {}

        def build(n_qubits, n_up, n_dn, *, seed=0, **params):
            calls["params"] = params
            return build_wf("made", n_qubits, n_up, n_dn, phase_hidden=(16,),
                            seed=seed)

        spec = tiny_spec().with_overrides({
            "ansatz.name": registered(build),
            "ansatz.params": {"flavor": "mini"},
            "train.max_iterations": 1,
            "train.pretrain_steps": 0,
            "output.publish": False,
        })
        result = run(spec, run_dir=tmp_path / "run")
        assert result.report.iterations == 1 and result.published_version is None
        assert calls["params"]["flavor"] == "mini"
        assert type(result.wavefunction.amplitude).__name__ == "MADEAmplitude"
        again = resume(tmp_path / "run", overrides={"train.max_iterations": 2})
        assert again.report.iterations == 2

    @pytest.mark.parametrize("overrides", [{}, {"output.publish_every": 1}],
                             ids=["final", "publish_every"])
    def test_a_run_that_cannot_publish_is_refused_before_it_trains(
            self, tmp_path, registered, overrides):
        """No rebuild spec + ``output.publish`` (the default): a SpecError at
        materialization, not a ValueError after the last iteration."""
        name = registered(lambda n_qubits, n_up, n_dn, *, seed=0:
                          build_wf("naqs-mlp", n_qubits, n_up, n_dn, seed=seed))
        spec = tiny_spec().with_overrides({"ansatz.name": name, **overrides})
        assert spec.output.publish
        with pytest.raises(SpecError) as err:
            run(spec, run_dir=tmp_path / "run")
        assert "output.publish" in str(err.value) and name in str(err.value)
        assert "ansatz.name" in str(err.value)
        assert list((tmp_path / "run").iterdir()) == []   # reusable, nothing written

    @pytest.mark.parametrize("missing", ["make_session", "prefix_logits", "d_model"])
    def test_an_amplitude_short_of_the_protocol_is_refused_by_attribute(
            self, tmp_path, registered, missing):
        def build(n_qubits, n_up, n_dn, *, seed=0):
            wf = build_wf("made", n_qubits, n_up, n_dn, seed=seed)
            partial = type("Partial", (), {
                a: getattr(wf.amplitude, a)
                for a in ("make_session", "prefix_logits", "d_model") if a != missing})
            wf.amplitude = partial()
            return wf

        spec = tiny_spec({"ansatz.name": registered(build), "output.publish": False})
        with pytest.raises(SpecError, match=missing) as err:
            run(spec, run_dir=tmp_path / "run")
        assert "Partial" in str(err.value)
        assert list((tmp_path / "run").iterdir()) == []


# ------------------------------------------------- spec -> owning object
class TestEveryLeafLands:
    """Each run-shaping spec leaf, set to a non-default value, is read back
    off the one object that owns it — a forwarding line lost between the
    spec and that object fails here."""

    def test_every_run_shaping_leaf_reaches_its_owner(self, tmp_path):
        from repro.api.driver import _build_trainer

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
            "parallel.eloc_partition": "contiguous",
            "parallel.eloc_memory_budget_mb": 2.5,
            "parallel.comm_codec": False, "parallel.comm_shm": False,
            "parallel.join_timeout_s": 7.0,
            "parallel.collective_timeout_s": 120.0,
            "backend.name": "mock",
            "train.max_iterations": 7, "train.pretrain_steps": 5,
            "train.pretrain_target": 0.25, "train.seed": 9,
            "train.plateau_window": 4, "train.plateau_rel_tol": 1e-5,
            "train.early_stop": False,
            "output.checkpoint_every": 2, "output.log_every": 1,
        })
        trainer = _build_trainer(spec, tmp_path)
        vmc = trainer.vmc

        opt = vmc.optimizer
        assert (opt.schedule.warmup, opt.schedule.scale) == (123, 0.5)
        assert (opt.weight_decay, opt.grad_clip) == (0.02, 0.7)

        assert (vmc.config.eloc_mode, vmc.config.seed) == ("sample_aware", 9)
        ns = vmc.config.n_samples
        assert (ns(0), ns(2), ns(3), ns(4)) == (777, 777, 777, int(777 * 1.5))
        assert ns(50) == 8888  # the ns_max cap
        assert vmc.config.eloc_memory_budget_mb == 2.5
        assert vmc.eloc_plan.memory_budget_bytes == int(2.5 * 2**20)
        assert vmc.array_backend.name == "mock"

        backend = vmc.backend
        assert (type(backend).__name__, backend.n_ranks) == ("ProcessBackend", 2)
        assert backend.nu_star_per_rank == 8
        assert backend.eloc_partition == "contiguous"
        assert (backend.comm_codec, backend.comm_shm) == (False, False)
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
