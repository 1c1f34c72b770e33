"""``run(spec) -> RunResult``: materialize a spec, train, own the artifacts.

The driver is the single execution path behind both the Python API and the
``python -m repro`` CLI.  Given a validated :class:`~repro.api.spec.RunSpec`
it:

1. materializes components through the registries (problem -> ansatz ->
   backend -> optimizer), so every choice is a *name* in the spec;
2. runs the Sec. 4.1 protocol through the one training loop —
   :class:`~repro.core.trainer.Trainer` over :class:`~repro.core.vmc.VMC`
   (bit-identical to hand wiring) — whichever optimizer the spec names;
3. owns the artifact directory::

       <run_dir>/
         spec.json        the exact spec (reloaded by resume/serve)
         metrics.jsonl    one JSON record per iteration (+ pretrain event)
         checkpoint.npz   bit-identical resume state
         report.json      TrainReport.to_dict() of the last train() call
         models/          ModelRegistry of published snapshots

4. auto-publishes the final snapshot (and, with ``output.publish_every``,
   periodic ones) to the run's :class:`~repro.serve.ModelRegistry`, so a
   completed run is directly servable: ``python -m repro serve <run_dir>``
   or :func:`serve_run`.

``resume(run_dir)`` reloads ``spec.json``, restores ``checkpoint.npz``
(parameters, optimizer state, RNG stream, history) and continues the
trajectory bit-identically to an uninterrupted run.
"""
from __future__ import annotations

import json
import time
from dataclasses import dataclass
from inspect import Parameter, signature
from pathlib import Path

import repro.api.builtins  # noqa: F401 — registers the built-in components
from repro.api.registry import ANSATZE, BACKENDS, OPTIMIZERS
from repro.api.spec import AnsatzSpec, ProblemSpec, RunSpec, SpecError
from repro.backend import get_backend
from repro.core.engine import _merge_transfers
from repro.chem import build_problem, run_fci
from repro.chem.pipeline import MolecularProblem
from repro.core.trainer import TrainConfig, Trainer, TrainReport
from repro.core.vmc import VMC, VMCConfig, VMCStats, default_ns_schedule
from repro.core.wavefunction import NNQSWavefunction
from repro.serve.registry import ModelRegistry
from repro.utils.atomic import atomic_write

__all__ = [
    "SPEC_FILE",
    "METRICS_FILE",
    "CHECKPOINT_FILE",
    "REPORT_FILE",
    "MODELS_DIR",
    "RunResult",
    "materialize_problem",
    "materialize_ansatz",
    "materialize_backend",
    "materialize_optimizer",
    "materialize_array_backend",
    "run",
    "resume",
    "serve_run",
]

SPEC_FILE = "spec.json"
METRICS_FILE = "metrics.jsonl"
CHECKPOINT_FILE = "checkpoint.npz"
REPORT_FILE = "report.json"
MODELS_DIR = "models"


@dataclass
class RunResult:
    """What :func:`run`/:func:`resume` hand back: report + artifact handles."""

    run_dir: Path
    spec: RunSpec
    report: TrainReport
    published_version: int | None
    wavefunction: object  # the trained in-process wavefunction

    @property
    def spec_path(self) -> Path:
        return self.run_dir / SPEC_FILE

    @property
    def metrics_path(self) -> Path:
        return self.run_dir / METRICS_FILE

    @property
    def checkpoint_path(self) -> Path:
        return self.run_dir / CHECKPOINT_FILE

    @property
    def report_path(self) -> Path:
        return self.run_dir / REPORT_FILE

    @property
    def registry_dir(self) -> Path:
        return self.run_dir / MODELS_DIR

    def registry(self) -> ModelRegistry:
        return ModelRegistry(self.registry_dir)


# ------------------------------------------------------------- materializers
def materialize_problem(spec: ProblemSpec) -> MolecularProblem:
    return build_problem(
        spec.molecule, spec.basis, n_frozen=spec.n_frozen,
        n_active=spec.n_active, **spec.geometry,
    )


def _filter_to_signature(builder, candidate: dict) -> dict:
    """The ``candidate`` entries ``builder`` declares by name (all of them
    when it takes ``**kwargs``): spec-section fields a component does not
    read are dropped.  Free-form ``params`` dicts are never filtered (typos
    there must raise)."""
    params = signature(builder).parameters
    if any(p.kind is Parameter.VAR_KEYWORD for p in params.values()):
        return dict(candidate)
    return {k: v for k, v in candidate.items() if k in params}


def materialize_ansatz(spec: AnsatzSpec, problem: MolecularProblem):
    builder = ANSATZE.get(spec.name)
    arch = {
        "d_model": spec.d_model,
        "n_heads": spec.n_heads,
        "n_layers": spec.n_layers,
        "phase_hidden": tuple(spec.phase_hidden),
        "token_bits": spec.token_bits,
        "constrain": spec.constrain,
        "reverse_order": spec.reverse_order,
    }
    kwargs = {**_filter_to_signature(builder, arch), **spec.params}
    return builder(problem.n_qubits, problem.n_up, problem.n_dn,
                   seed=spec.seed, **kwargs)


def materialize_backend(spec: RunSpec):
    """Build the execution backend named by the spec's ``parallel`` section.

    The registered factory receives the section's fields it declares by name
    (``world_size``, when set, is the job size ``n_ranks`` aliases).
    More than one rank requires an optimizer whose update sums over ranks
    (:func:`materialize_optimizer` refuses the others, spec field named).
    An unknown backend name raises the registry's
    :class:`~repro.api.registry.UnknownComponentError`, which lists every
    registered backend.
    """
    p = spec.parallel
    factory = BACKENDS.get(p.backend)
    kwargs = _filter_to_signature(factory, p.to_dict())
    kwargs["n_ranks"] = p.world_size if p.world_size is not None else p.n_ranks
    try:
        return factory(**kwargs)
    except ValueError as exc:  # e.g. serial with n_ranks > 1
        raise SpecError(f"parallel: {exc}") from None


def materialize_optimizer(spec: RunSpec, wf, backend):
    """Build the optimizer the spec names, for ``wf`` on ``backend``.

    ``optimizer.lr_scale`` / ``warmup`` / ``weight_decay`` / ``grad_clip``
    reach a factory that declares them (``adamw`` does, ``sr`` does not: SR
    is not clipped, decayed or warmed up); ``optimizer.params`` always do.
    """
    o = spec.optimizer
    factory = OPTIMIZERS.get(o.name)
    declared = signature(factory).parameters
    fields = {k: getattr(o, k) for k in
              ("lr_scale", "warmup", "weight_decay", "grad_clip") if k in declared}
    optimizer = factory(wf, **fields, **o.params)
    if backend.n_ranks > 1 and optimizer.single_rank_reason:
        raise SpecError(
            f"optimizer.name={o.name!r} cannot run on parallel.n_ranks="
            f"{backend.n_ranks}: {optimizer.single_rank_reason}"
        )
    return optimizer


def materialize_array_backend(spec: RunSpec):
    """Resolve the spec's ``backend`` section into a live ArrayBackend."""
    return get_backend(spec.backend.name)


def _backend_report(spec: RunSpec, history: list[VMCStats]) -> dict:
    """The report.json ``backend`` section: name + aggregated transfer
    counters (instrumented backends only — numpy runs report the name)."""
    info: dict = {"name": spec.backend.name}
    transfers = _merge_transfers([
        {"transfers": s.transfers} for s in history
    ])
    if transfers is not None:
        info["transfers"] = transfers
    return info


def _resolve_reference(spec: RunSpec, problem: MolecularProblem) -> float | None:
    ref = spec.output.reference
    if ref is None:
        return None
    if ref == "fci":
        return run_fci(problem.hamiltonian).energy
    return float(ref)


# ------------------------------------------------------------------ run dirs
def _default_run_dir(name: str) -> Path:
    stamp = time.strftime("%Y%m%d-%H%M%S")
    base = Path("runs") / f"{name}-{stamp}"
    candidate, n = base, 1
    while (candidate / SPEC_FILE).exists():
        candidate = base.with_name(f"{base.name}-{n}")
        n += 1
    return candidate


def _prepare_run_dir(spec: RunSpec, run_dir: str | Path | None) -> Path:
    target = Path(run_dir or spec.output.run_dir or _default_run_dir(spec.name))
    if (target / SPEC_FILE).exists():
        raise SpecError(
            f"{target} already contains a run ({SPEC_FILE} exists); "
            "use resume(run_dir) to continue it or pick a fresh directory"
        )
    target.mkdir(parents=True, exist_ok=True)
    return target


def _write_report(run_dir: Path, report: TrainReport,
                  backend_info: dict | None = None) -> None:
    payload = report.to_dict()
    if backend_info is not None:
        payload["backend"] = backend_info
    with atomic_write(run_dir / REPORT_FILE) as f:
        f.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _publisher(spec: RunSpec, run_dir: Path, wf):
    """Per-iteration snapshot publication callback (or None when disabled)."""
    every = spec.output.publish_every
    if not every or not spec.output.publish:
        return None
    registry = ModelRegistry(run_dir / MODELS_DIR)

    def publish(stats: VMCStats) -> None:
        if stats.iteration % every == 0:
            registry.publish(wf, metadata={
                "run": spec.name,
                "iteration": stats.iteration,
                "energy": stats.energy,
            })

    return publish


def _publish_final(spec: RunSpec, run_dir: Path, wf,
                   report: TrainReport) -> int | None:
    if not spec.output.publish:
        return None
    registry = ModelRegistry(run_dir / MODELS_DIR)
    return registry.publish(wf, metadata={
        "run": spec.name,
        "iteration": report.iterations,
        "energy": report.energy,
        "best_energy": report.best_energy,
        "final": True,
    })


# ----------------------------------------------------------------- execution
def _require_autoregressive(spec: RunSpec, wf) -> None:
    """The training loop samples autoregressively and differentiates
    ``log_prob``/``phase_of`` — a user-registered builder that returns
    anything else, a network short of the amplitude protocol or a wavefunction
    the run could not publish fails at materialization, nothing on disk yet,
    with the component named instead of deep inside (or after) the run loop."""
    name = spec.ansatz.name
    if not isinstance(wf, NNQSWavefunction):
        raise SpecError(
            f"ansatz {name!r} does not build an autoregressive "
            "NNQSWavefunction; run() cannot drive it"
        )
    missing = [attr for attr in ("make_session", "prefix_logits", "d_model")
               if not hasattr(wf.amplitude, attr)]
    if missing:
        raise SpecError(
            f"ansatz {name!r} builds a {type(wf.amplitude).__name__} amplitude "
            f"network without {', '.join(missing)}; the sampler, the prefix "
            "walk and the taped pass ask for exactly these"
        )
    if spec.output.publish and wf.spec is None:
        raise SpecError(
            f"output.publish is on, but ansatz.name = {name!r} builds a "
            "wavefunction without the rebuild spec (wf.spec) a model snapshot "
            "needs; set output.publish = false"
        )


def _build_trainer(spec: RunSpec, run_dir: Path) -> Trainer:
    """Materialize every component of ``spec`` and wire the one training loop.

    Touches nothing on disk: ``spec.json`` is persisted only after this has
    returned, so a failed materialization (typo'd component name, refused
    combination) leaves a fresh directory reusable and a run resumable.
    """
    problem = materialize_problem(spec.problem)
    wf = materialize_ansatz(spec.ansatz, problem)
    _require_autoregressive(spec, wf)
    backend = materialize_backend(spec)
    s = spec.sampling
    vmc = VMC(
        wf,
        problem.hamiltonian,
        VMCConfig(
            n_samples=default_ns_schedule(
                pretrain_iters=s.pretrain_iters, ns_pretrain=s.ns_pretrain,
                ns_max=s.ns_max, ns_growth=s.ns_growth,
            ),
            eloc_mode=s.eloc_mode,
            seed=spec.train.seed,
            eloc_memory_budget_mb=spec.parallel.eloc_memory_budget_mb,
        ),
        backend=backend,
        array_backend=materialize_array_backend(spec),
        optimizer=materialize_optimizer(spec, wf, backend),
    )
    cfg = TrainConfig(
        max_iterations=spec.train.max_iterations,
        pretrain_steps=spec.train.pretrain_steps,
        pretrain_target=spec.train.pretrain_target,
        pretrain_iters=s.pretrain_iters,
        plateau_window=spec.train.plateau_window,
        plateau_rel_tol=spec.train.plateau_rel_tol,
        early_stop=spec.train.early_stop,
        checkpoint_every=spec.output.checkpoint_every,
        checkpoint_path=run_dir / CHECKPOINT_FILE,
        log_path=run_dir / METRICS_FILE,
        log_every=spec.output.log_every,
    )
    return Trainer(vmc, cfg, hf_bits=problem.hf_bits, e_hf=problem.e_hf,
                   e_reference=_resolve_reference(spec, problem))


def _execute(spec: RunSpec, run_dir: Path,
             checkpoint: Path | None = None) -> RunResult:
    """Build the loop, persist the spec, [restore,] train, report, publish."""
    trainer = _build_trainer(spec, run_dir)
    spec.save(run_dir / SPEC_FILE)  # resume: with its overrides, if any
    try:
        if checkpoint is not None:
            trainer.resume(checkpoint)
        start_iteration = trainer.vmc.iteration
        report = trainer.train(
            on_iteration=_publisher(spec, run_dir, trainer.wf))
    finally:
        # Backends holding live resources (the cluster backend's sockets and
        # rendezvous membership) release them even when training raises, so
        # a poisoned run neither hangs its peers nor leaks sockets.
        trainer.vmc.backend.close()
    _write_report(run_dir, report, _backend_report(spec, trainer.vmc.history))
    if report.iterations > start_iteration:
        version = _publish_final(spec, run_dir, trainer.wf, report)
    else:
        # Nothing new ran (resumed with the budget already exhausted): keep
        # the latest version instead of minting a duplicate snapshot.
        version = (ModelRegistry(run_dir / MODELS_DIR).latest_version()
                   if spec.output.publish else None)
    return RunResult(run_dir=run_dir, spec=spec, report=report,
                     published_version=version, wavefunction=trainer.wf)


def run(spec: RunSpec | dict, run_dir: str | Path | None = None,
        overrides: dict | list | None = None) -> RunResult:
    """Execute a spec end to end; returns the report + artifact handles."""
    if isinstance(spec, dict):
        spec = RunSpec.from_dict(spec)
    spec = spec.with_overrides(overrides)
    return _execute(spec, _prepare_run_dir(spec, run_dir))


def resume(run_dir: str | Path,
           overrides: dict | list | None = None) -> RunResult:
    """Continue a run from its artifact directory, bit-identically.

    Reloads ``spec.json`` (optionally with overrides — the usual one is
    ``train.max_iterations`` to extend the budget), rebuilds the components,
    restores ``checkpoint.npz`` and continues training.  The restored state
    includes the optimizer's state and the RNG bit-generator, so the
    continued per-iteration energies match an uninterrupted run exactly.
    Overrides are written back to ``spec.json`` (future resumes see the
    extended budget) only once every component has materialized.
    """
    run_dir = Path(run_dir)
    spec_path = run_dir / SPEC_FILE
    if not spec_path.exists():
        raise SpecError(f"{run_dir} has no {SPEC_FILE}; not a run directory")
    spec = RunSpec.load(spec_path).with_overrides(overrides)
    ckpt = run_dir / CHECKPOINT_FILE
    if not ckpt.exists():
        raise SpecError(
            f"{run_dir} has no {CHECKPOINT_FILE}; the run has not completed "
            "a checkpoint yet"
        )
    return _execute(spec, run_dir, checkpoint=ckpt)


# ------------------------------------------------------------------- serving
def serve_run(run_dir: str | Path, config=None):
    """A :class:`~repro.serve.WavefunctionService` over a run's snapshots.

    Loads the run's model registry and rebuilds its Hamiltonian, so all
    request types (including ``local_energy``) work.  ``config=None`` takes
    the batcher/cache knobs from the run's own ``serve`` spec section (the
    ``--set serve.*`` overrides recorded in ``spec.json``).  The service is
    returned unstarted — use it as a context manager or call ``start()``.
    """
    from repro.serve import WavefunctionService

    run_dir = Path(run_dir)
    spec_path = run_dir / SPEC_FILE
    if not spec_path.exists():
        raise SpecError(f"{run_dir} has no {SPEC_FILE}; not a run directory")
    spec = RunSpec.load(spec_path)
    if config is None:
        config = spec.serve.to_serve_config()
    registry = ModelRegistry(run_dir / MODELS_DIR)
    if registry.latest_version() is None:
        raise SpecError(
            f"{run_dir} has no published snapshots yet "
            "(did the run finish with output.publish enabled?)"
        )
    problem = materialize_problem(spec.problem)
    return WavefunctionService(registry, hamiltonian=problem.hamiltonian,
                               config=config)
