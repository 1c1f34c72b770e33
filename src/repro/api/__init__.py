"""``repro.api`` — the declarative experiment front door.

One spec tree (:class:`RunSpec`), string-keyed component registries, and a
``run(spec)`` driver that owns the artifact directory.  The equivalent CLI
is ``python -m repro`` (``run`` / ``resume`` / ``info`` / ``serve``).

    from repro.api import RunSpec, ProblemSpec, TrainSpec, run

    spec = RunSpec(
        name="h2",
        problem=ProblemSpec(molecule="H2", geometry={"r": 0.7414}),
        train=TrainSpec(max_iterations=200, seed=2),
    )
    result = run(spec)
    print(result.report.summary())

Importing this package registers the built-in components (see
:mod:`repro.api.builtins`); new ansätze/optimizers/backends plug in by name
through the ``register_*`` decorators.
"""
from repro.api.spec import (
    AnsatzSpec,
    OptimizerSpec,
    OutputSpec,
    ParallelSpec,
    ProblemSpec,
    RunSpec,
    SamplingSpec,
    ServeSpec,
    SpecError,
    TrainSpec,
    apply_overrides,
    coerce_override_value,
    parse_set_assignment,
)
from repro.api.registry import (
    ANSATZE,
    BACKENDS,
    OPTIMIZERS,
    ComponentRegistry,
    UnknownComponentError,
    register_ansatz,
    register_backend,
    register_optimizer,
)
import repro.api.builtins  # noqa: F401 — registers the built-in components
from repro.api.driver import (
    RunResult,
    materialize_ansatz,
    materialize_backend,
    materialize_problem,
    resume,
    run,
    serve_run,
)
from repro.api.presets import PRESETS, get_preset, preset_names

__all__ = [
    "SpecError",
    "ProblemSpec",
    "AnsatzSpec",
    "OptimizerSpec",
    "SamplingSpec",
    "ParallelSpec",
    "TrainSpec",
    "OutputSpec",
    "ServeSpec",
    "RunSpec",
    "apply_overrides",
    "coerce_override_value",
    "parse_set_assignment",
    "ComponentRegistry",
    "UnknownComponentError",
    "ANSATZE",
    "OPTIMIZERS",
    "BACKENDS",
    "register_ansatz",
    "register_optimizer",
    "register_backend",
    "RunResult",
    "materialize_problem",
    "materialize_ansatz",
    "materialize_backend",
    "run",
    "resume",
    "serve_run",
    "PRESETS",
    "get_preset",
    "preset_names",
]
