"""``repro.api`` — the declarative experiment front door.

One spec tree (:class:`RunSpec`) and a ``run(spec)`` driver that builds
QiankunNet and the execution backend from it and owns the artifact
directory.  The equivalent CLI is ``python -m repro`` (``run`` / ``resume``
/ ``info`` / ``serve``).

    from repro.api import RunSpec, ProblemSpec, TrainSpec, run

    spec = RunSpec(
        name="h2",
        problem=ProblemSpec(molecule="H2", geometry={"r": 0.7414}),
        train=TrainSpec(max_iterations=200, seed=2),
    )
    result = run(spec)
    print(result.report.summary())
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
