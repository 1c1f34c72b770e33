"""``run(spec) -> RunResult``: materialize a spec, train, own the artifacts.

The driver is the single execution path behind both the Python API and the
``python -m repro`` CLI.  Given a validated :class:`~repro.api.spec.RunSpec`
it:

1. builds the problem, QiankunNet (``build_qiankunnet`` with the
   ``ansatz`` section's fields), the execution backend (``parallel.backend``
   looked up in one table of classes) and the paper's optimizer
   (``NoamAdamW``) from the ``optimizer`` section;
2. runs the Sec. 4.1 protocol through the one training loop —
   :class:`~repro.core.trainer.Trainer` over :class:`~repro.core.vmc.VMC`
   (bit-identical to hand wiring);
3. owns the artifact directory::

       <run_dir>/
         spec.json        the exact spec (reloaded by resume/serve)
         metrics.jsonl    one JSON record per iteration (+ pretrain event)
         checkpoint.npz   bit-identical resume state
         report.json      TrainReport.to_dict() of the last train() call,
                          plus its screened-Hamiltonian section
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
from inspect import signature
from pathlib import Path

from repro.api.spec import AnsatzSpec, ProblemSpec, RunSpec, SpecError
import repro.parallel as parallel
from repro.core.engine import NoamAdamW
from repro.chem import build_problem, run_fci
from repro.chem.pipeline import MolecularProblem
from repro.core.trainer import TrainConfig, Trainer, TrainReport
from repro.core.vmc import VMC, VMCConfig, VMCStats, default_ns_schedule
from repro.core.wavefunction import build_qiankunnet
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


def materialize_ansatz(spec: AnsatzSpec, problem: MolecularProblem):
    """QiankunNet for ``problem``: the section's fields are exactly
    ``build_qiankunnet``'s keyword arguments."""
    return build_qiankunnet(
        problem.n_qubits, problem.n_up, problem.n_dn,
        d_model=spec.d_model, n_heads=spec.n_heads, n_layers=spec.n_layers,
        phase_hidden=tuple(spec.phase_hidden), token_bits=spec.token_bits,
        constrain=spec.constrain, reverse_order=spec.reverse_order,
        seed=spec.seed,
    )


# ``parallel.backend`` -> the execution backend class, by its name in
# ``repro.parallel`` (which loads the cluster transport only when the cluster
# backend is asked for).  The classes are their own factories: each declares,
# by ``ParallelSpec`` field name, exactly the values it reads (and checks what
# only it can check — serial's single rank, cluster's rendezvous address).
_BACKEND_CLASSES = {
    "serial": "SerialBackend",
    "process": "ProcessBackend",
    "cluster": "ClusterBackend",
}


def materialize_backend(spec: RunSpec):
    """Build the execution backend named by the spec's ``parallel`` section.

    The class receives the section's fields its signature declares by name
    (``world_size``, when set, is the job size ``n_ranks`` aliases).  An
    unknown name, or a combination the class refuses, is a
    :class:`~repro.api.spec.SpecError`.
    """
    p = spec.parallel
    try:
        cls = getattr(parallel, _BACKEND_CLASSES[p.backend])
    except KeyError:
        raise SpecError(
            f"parallel.backend: must be one of {', '.join(_BACKEND_CLASSES)}, "
            f"got {p.backend!r}"
        ) from None
    declared = signature(cls).parameters
    kwargs = {k: v for k, v in p.to_dict().items() if k in declared}
    kwargs["n_ranks"] = p.world_size if p.world_size is not None else p.n_ranks
    try:
        return cls(**kwargs)
    except ValueError as exc:  # e.g. serial with n_ranks > 1
        raise SpecError(f"parallel: {exc}") from None


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


def _hamiltonian_report(problem: MolecularProblem) -> dict:
    """The report.json ``hamiltonian`` section: the Pauli terms the run
    trained on, and the count and summed |c| of those ``build_problem``
    screened away (a bound on how far any energy moved)."""
    ham = problem.hamiltonian
    return {"n_terms": ham.n_terms, "screened_terms": ham.screened_terms,
            "screened_weight_ha": ham.screened_weight}


def _write_report(run_dir: Path, report: TrainReport, **sections: dict) -> None:
    payload = {**report.to_dict(), **sections}
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
def _build_trainer(spec: RunSpec, run_dir: Path,
                   problem: MolecularProblem) -> Trainer:
    """Materialize every other component of ``spec`` and wire the one
    training loop.

    Touches nothing on disk: ``spec.json`` is persisted only after this has
    returned, so a failed materialization (unknown backend name, refused
    combination) leaves a fresh directory reusable and a run resumable.
    """
    wf = materialize_ansatz(spec.ansatz, problem)
    backend = materialize_backend(spec)
    s, o = spec.sampling, spec.optimizer
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
        optimizer=NoamAdamW(wf, lr_scale=o.lr_scale, warmup=o.warmup,
                            weight_decay=o.weight_decay, grad_clip=o.grad_clip),
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
    problem = materialize_problem(spec.problem)
    trainer = _build_trainer(spec, run_dir, problem)
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
    _write_report(run_dir, report, hamiltonian=_hamiltonian_report(problem))
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
