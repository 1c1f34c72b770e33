"""The declarative experiment spec: one serializable tree per run.

The paper's Sec. 4.1 workflow (molecule -> ansatz -> warm start -> grow-N_s
VMC -> report) is expressed as a :class:`RunSpec` — a tree of small frozen
dataclasses, one per subsystem — instead of hand-threaded ``build_problem``
/ ``build_qiankunnet`` / ``Trainer`` calls.  Specs are data, not code:

* every field is JSON-native (str / int / float / bool / None / dict /
  tuple-of-int), so ``spec -> to_dict -> json -> from_dict`` is lossless;
* validation runs at construction (``__post_init__``) and names the exact
  field path (``sampling.ns_growth``) instead of failing deep in the loop;
* the ``ansatz`` section is exactly ``build_qiankunnet``'s keyword
  arguments, and ``parallel.backend`` names one of the three execution
  backend classes;
* dotted overrides (``train.max_iterations=3`` — the CLI ``--set`` syntax)
  rewrite the dict form before re-validation.

The driver (:mod:`repro.api.driver`) materializes a spec into live objects
and owns the artifact directory; this module knows nothing about execution.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from pathlib import Path

from repro.chem.molecules import MOLECULES, geometry_keys
from repro.core.engine import ELOC_MODES
from repro.nn.phase import PHASE_HIDDEN
from repro.utils.atomic import atomic_write

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
    "parse_set_assignment",
    "coerce_override_value",
    "apply_overrides",
]

class SpecError(ValueError):
    """A spec field failed validation; the message names the field path."""


def _require(condition: bool, path: str, message: str) -> None:
    if not condition:
        raise SpecError(f"{path}: {message}")


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


# Annotation name -> (accepts, "what it must be"): the leaf types a spec field
# may be annotated with, alone or as a ``|`` union.
_LEAF_TYPES = {
    "bool": (lambda v: isinstance(v, bool), "a bool"),
    "int": (_is_int, "an int"),
    "float": (lambda v: _is_int(v) or isinstance(v, float), "a number"),
    "str": (lambda v: isinstance(v, str), "a string"),
    "dict": (lambda v: isinstance(v, dict), "a mapping"),
    "tuple": (lambda v: isinstance(v, (list, tuple)) and all(map(_is_int, v)),
              "a list of ints"),
    "None": (lambda v: v is None, "None"),
}


@dataclass
class _Spec:
    """Base for all spec nodes: dict/JSON round-trip, unknown-key errors and
    the one type gate (each section's ``__post_init__`` runs it first, so its
    own range checks may assume the annotated type)."""

    _SECTION = ""          # dotted prefix used in error messages

    def __post_init__(self) -> None:
        """Every leaf holds a value of its annotated type — a mistyped
        ``--set`` (``lr_scale=abc``, ``constrain=no``) fails here, by path."""
        prefix = f"{self._SECTION}." if self._SECTION else ""
        for f in fields(self):
            names = [n.strip() for n in f.type.split("|")]
            if not all(n in _LEAF_TYPES for n in names):
                continue  # a nested section
            value = getattr(self, f.name)
            if not any(_LEAF_TYPES[n][0](value) for n in names):
                allowed = " or ".join(_LEAF_TYPES[n][1] for n in names)
                raise SpecError(
                    f"{prefix}{f.name}: must be {allowed}, got {value!r}"
                )

    def to_dict(self) -> dict:
        out = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, _Spec):
                value = value.to_dict()
            elif isinstance(value, tuple):
                value = list(value)
            elif isinstance(value, dict):
                value = dict(value)
            out[f.name] = value
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "_Spec":
        if not isinstance(data, dict):
            raise SpecError(
                f"{cls._SECTION or cls.__name__}: expected a mapping, "
                f"got {type(data).__name__}"
            )
        known = {f.name: f for f in fields(cls)}
        unknown = sorted(set(data) - set(known))
        if unknown:
            prefix = f"{cls._SECTION}." if cls._SECTION else ""
            raise SpecError(
                f"unknown field(s) {', '.join(prefix + u for u in unknown)} "
                f"(valid: {', '.join(sorted(known))})"
            )
        kwargs = {}
        for name, value in data.items():
            f = known[name]
            sub = _SUBSPEC_TYPES.get((cls, name))
            if sub is not None and isinstance(value, dict):
                value = sub.from_dict(value)
            elif f.type == "tuple" and isinstance(value, list):  # JSON list
                value = tuple(value)
            kwargs[name] = value
        return cls(**kwargs)


# ------------------------------------------------------------------ sections
@dataclass
class ProblemSpec(_Spec):
    """Which molecular problem to solve (``repro.chem.build_problem``)."""

    _SECTION = "problem"

    molecule: str = "H2"
    basis: str = "sto-3g"
    n_frozen: int = 0
    n_active: int | None = None
    geometry: dict = field(default_factory=dict)  # e.g. {"r": 0.7414}

    def __post_init__(self) -> None:
        super().__post_init__()
        _require(self.molecule in MOLECULES, "problem.molecule",
                 f"must be one of {', '.join(MOLECULES)}, got {self.molecule!r}")
        accepted = geometry_keys(self.molecule)
        unknown = sorted(set(self.geometry) - set(accepted))
        _require(not unknown, "problem.geometry",
                 f"unknown key(s) {', '.join(unknown)}; {self.molecule} "
                 f"takes {', '.join(accepted) or 'none'}")
        _require(bool(self.basis),
                 "problem.basis", "must be a non-empty basis name")
        _require(self.n_frozen >= 0,
                 "problem.n_frozen", f"must be a non-negative int, got {self.n_frozen!r}")
        _require(self.n_active is None or self.n_active > 0,
                 "problem.n_active", f"must be None or a positive int, got {self.n_active!r}")


@dataclass
class AnsatzSpec(_Spec):
    """QiankunNet's architecture and seed: exactly ``build_qiankunnet``'s
    keyword arguments, at its defaults (the paper's Sec. 4.1, but for the
    phase MLP's width, ``PHASE_HIDDEN``)."""

    _SECTION = "ansatz"

    d_model: int = 16
    n_heads: int = 4
    n_layers: int = 2
    phase_hidden: tuple = PHASE_HIDDEN
    token_bits: int = 2
    constrain: bool = True
    reverse_order: bool = True
    seed: int = 0

    def __post_init__(self) -> None:
        super().__post_init__()
        for attr in ("d_model", "n_heads", "n_layers"):
            v = getattr(self, attr)
            _require(v > 0,
                     f"ansatz.{attr}", f"must be a positive int, got {v!r}")
        _require(self.d_model % self.n_heads == 0, "ansatz.n_heads",
                 f"must divide ansatz.d_model={self.d_model}, got {self.n_heads}")
        _require(self.token_bits in (1, 2),
                 "ansatz.token_bits", f"must be 1 or 2, got {self.token_bits!r}")
        _require(all(h > 0 for h in self.phase_hidden),
                 "ansatz.phase_hidden", f"must be positive ints, got {self.phase_hidden!r}")


@dataclass
class OptimizerSpec(_Spec):
    """The numbers of the paper's optimizer, ``NoamAdamW``: the Eq. 13
    schedule (``lr_scale``, ``warmup``), decoupled decay and max-norm clip."""

    _SECTION = "optimizer"

    lr_scale: float = 1.0
    warmup: int = 4000
    weight_decay: float = 0.01
    grad_clip: float | None = 1.0

    def __post_init__(self) -> None:
        super().__post_init__()
        _require(self.lr_scale > 0,
                 "optimizer.lr_scale", f"must be positive, got {self.lr_scale!r}")
        _require(self.warmup > 0,
                 "optimizer.warmup", f"must be a positive int, got {self.warmup!r}")
        _require(self.weight_decay >= 0,
                 "optimizer.weight_decay", f"must be >= 0, got {self.weight_decay!r}")
        _require(self.grad_clip is None or self.grad_clip > 0,
                 "optimizer.grad_clip", f"must be None or positive, got {self.grad_clip!r}")


@dataclass
class SamplingSpec(_Spec):
    """The paper's growing-N_s schedule + E_loc mode (stage 1 is the BAS sweep)."""

    _SECTION = "sampling"

    ns_pretrain: int = 10**5
    ns_max: int = 10**12
    ns_growth: float = 1.3
    pretrain_iters: int = 100
    eloc_mode: str = "exact"

    def __post_init__(self) -> None:
        super().__post_init__()
        _require(self.ns_pretrain > 0,
                 "sampling.ns_pretrain", f"must be a positive int, got {self.ns_pretrain!r}")
        _require(self.ns_max > 0,
                 "sampling.ns_max", f"must be a positive int, got {self.ns_max!r}")
        _require(self.ns_growth > 0,
                 "sampling.ns_growth", f"must be positive, got {self.ns_growth!r}")
        _require(self.pretrain_iters >= 0,
                 "sampling.pretrain_iters",
                 f"must be a non-negative int, got {self.pretrain_iters!r}")
        _require(self.eloc_mode in ELOC_MODES,
                 "sampling.eloc_mode",
                 f"must be one of {ELOC_MODES}, got {self.eloc_mode!r}")


@dataclass
class ParallelSpec(_Spec):
    """Execution backend choice — the Fig. 4 data-parallel iteration as data.

    ``backend`` names an execution backend (``serial`` / ``process`` /
    ``cluster``); ``n_ranks`` and
    ``nu_star_per_rank`` map to the paper's N_p and N_u^*/N_p;
    ``eloc_memory_budget_mb`` is ``VMCConfig``'s (the byte budget the run's
    ``ElocPlan`` and exact mode's table extension shrink to).  Every other
    field reaches the backend class that declares it, under the same name.
    A multi-rank iteration has one shape (DESIGN.md "Communication layer"):
    stage 2 ships delta/varint-compressed samples, process ranks move every
    array as frames over socket pairs, and stage 3 cuts the unique set into
    contiguous chunks of equal row count (within one row), since measured
    per-rank stage-3 time follows rows, not sample weight.

    The cluster fields describe one SPMD member of a multi-host job:
    ``rendezvous_addr`` is the ``host:port`` of the ``python -m repro
    rendezvous`` coordinator, ``rank`` optionally pins this member's rank,
    and ``world_size`` may spell out the job size explicitly (it must agree
    with ``n_ranks`` when both are set).  ``join_timeout_s`` bounds the
    rendezvous/mesh construction (and, on the process backend, ``close()``'s
    wait for the forked ranks to exit).  ``collective_timeout_s`` bounds each
    collective on every multi-rank backend.
    """

    _SECTION = "parallel"

    backend: str = "serial"
    n_ranks: int = 1
    nu_star_per_rank: int = 64
    eloc_memory_budget_mb: float | None = None
    rendezvous_addr: str | None = None
    rank: int | None = None
    world_size: int | None = None
    join_timeout_s: float = 60.0
    collective_timeout_s: float = 600.0

    def __post_init__(self) -> None:
        super().__post_init__()
        _require(bool(self.backend),
                 "parallel.backend", "must be a non-empty backend name")
        _require(self.n_ranks > 0,
                 "parallel.n_ranks", f"must be a positive int, got {self.n_ranks!r}")
        if self.rendezvous_addr is not None:
            host, sep, port = self.rendezvous_addr.rpartition(":")
            _require(bool(sep) and bool(host) and port.isdigit()
                     and 0 < int(port) < 65536,
                     "parallel.rendezvous_addr",
                     f"must be host:port, got {self.rendezvous_addr!r}")
        _require(self.world_size is None or self.world_size > 0,
                 "parallel.world_size",
                 f"must be None or a positive int, got {self.world_size!r}")
        if self.world_size is not None and self.n_ranks != 1 \
                and self.n_ranks != self.world_size:
            raise SpecError(
                f"parallel.world_size: {self.world_size} conflicts with "
                f"parallel.n_ranks={self.n_ranks}; set one of them (or both "
                "equal)"
            )
        _require(self.rank is None or self.rank >= 0,
                 "parallel.rank",
                 f"must be None or a non-negative int, got {self.rank!r}")
        if self.rank is not None:
            world = self.world_size if self.world_size is not None \
                else self.n_ranks
            _require(self.rank < world, "parallel.rank",
                     f"must be < the world size ({world}), got {self.rank}")
        for attr in ("join_timeout_s", "collective_timeout_s"):
            v = getattr(self, attr)
            _require(v > 0, f"parallel.{attr}", f"must be positive, got {v!r}")
        _require(self.nu_star_per_rank > 0,
                 "parallel.nu_star_per_rank",
                 f"must be a positive int, got {self.nu_star_per_rank!r}")
        _require(self.eloc_memory_budget_mb is None
                 or self.eloc_memory_budget_mb > 0,
                 "parallel.eloc_memory_budget_mb",
                 f"must be None or positive, got {self.eloc_memory_budget_mb!r}")


@dataclass
class TrainSpec(_Spec):
    """Loop budget, warm start, and stopping policy (Sec. 4.1 protocol)."""

    _SECTION = "train"

    max_iterations: int = 1000
    pretrain_steps: int = 200
    pretrain_target: float = 0.5
    seed: int = 0
    plateau_window: int = 100
    plateau_rel_tol: float = 1e-7
    early_stop: bool = True

    def __post_init__(self) -> None:
        super().__post_init__()
        _require(self.max_iterations > 0,
                 "train.max_iterations",
                 f"must be a positive int, got {self.max_iterations!r}")
        _require(self.pretrain_steps >= 0,
                 "train.pretrain_steps",
                 f"must be a non-negative int, got {self.pretrain_steps!r}")
        _require(0.0 < self.pretrain_target < 1.0,
                 "train.pretrain_target",
                 f"must be in (0, 1), got {self.pretrain_target!r}")
        _require(self.plateau_window > 0,
                 "train.plateau_window",
                 f"must be a positive int, got {self.plateau_window!r}")
        _require(self.plateau_rel_tol > 0,
                 "train.plateau_rel_tol",
                 f"must be positive, got {self.plateau_rel_tol!r}")


@dataclass
class OutputSpec(_Spec):
    """Artifact-directory policy: checkpoints, logs, snapshot publication."""

    _SECTION = "output"

    run_dir: str | None = None      # None: the driver picks runs/<name>
    checkpoint_every: int = 0       # 0: final checkpoint only
    log_every: int = 0              # 0: no console prints
    publish: bool = True            # publish final snapshot to <run>/models
    publish_every: int = 0          # also publish every K iterations (0: off)
    reference: str | float | None = None  # "fci", an energy in Ha, or None

    def __post_init__(self) -> None:
        super().__post_init__()
        for attr in ("checkpoint_every", "log_every", "publish_every"):
            v = getattr(self, attr)
            _require(v >= 0,
                     f"output.{attr}", f"must be a non-negative int, got {v!r}")
        _require(
            not isinstance(self.reference, str) or self.reference == "fci",
            "output.reference",
            f"must be None, 'fci', or an energy in Ha, got {self.reference!r}",
        )


@dataclass
class ServeSpec(_Spec):
    """The serving tier as data: batcher and cache knobs + the front door.

    Every field but ``refresh_poll_s`` and ``drain_timeout_s`` mirrors
    :class:`repro.serve.ServeConfig` (the microbatching/backpressure
    contract and the per-version caches — see DESIGN.md "Serving"); those
    two shape the HTTP front door behind ``python -m repro serve --port``.
    Everything is overridable via ``--set serve.<field>=...``.
    """

    _SECTION = "serve"

    max_batch_size: int = 256       # rows fused into one forward pass
    max_wait_ms: float = 2.0        # straggler-latency budget per batch
    queue_capacity: int = 1024      # bounded queue => backpressure
    submit_timeout: float = 30.0    # seconds before overload rejection
    max_loaded_versions: int = 4    # resident snapshot LRU
    prefix_cache_entries: int = 8   # live decoding sessions per version
    table_max_entries: int = 500_000  # per-version amplitude-table cap
    refresh_poll_s: float = 2.0     # registry poll period (0: disabled)
    drain_timeout_s: float = 10.0   # graceful-shutdown budget

    def __post_init__(self) -> None:
        super().__post_init__()
        for attr in ("max_batch_size", "queue_capacity", "max_loaded_versions",
                     "prefix_cache_entries", "table_max_entries"):
            v = getattr(self, attr)
            _require(v > 0,
                     f"serve.{attr}", f"must be a positive int, got {v!r}")
        for attr in ("max_wait_ms", "submit_timeout", "refresh_poll_s"):
            v = getattr(self, attr)
            _require(v >= 0, f"serve.{attr}", f"must be >= 0, got {v!r}")
        _require(self.drain_timeout_s > 0,
                 "serve.drain_timeout_s",
                 f"must be positive, got {self.drain_timeout_s!r}")

    def to_serve_config(self):
        """The in-process :class:`repro.serve.ServeConfig` slice of this
        section (the front door's two fields stay with ``NetServer``)."""
        from repro.serve import ServeConfig

        return ServeConfig(
            max_batch_size=self.max_batch_size,
            max_wait_ms=self.max_wait_ms,
            queue_capacity=self.queue_capacity,
            submit_timeout=self.submit_timeout,
            max_loaded_versions=self.max_loaded_versions,
            prefix_cache_entries=self.prefix_cache_entries,
            table_max_entries=self.table_max_entries,
        )


@dataclass
class RunSpec(_Spec):
    """The full declarative experiment: one spec tree == one reproducible run."""

    name: str = "run"
    problem: ProblemSpec = field(default_factory=ProblemSpec)
    ansatz: AnsatzSpec = field(default_factory=AnsatzSpec)
    optimizer: OptimizerSpec = field(default_factory=OptimizerSpec)
    sampling: SamplingSpec = field(default_factory=SamplingSpec)
    parallel: ParallelSpec = field(default_factory=ParallelSpec)
    train: TrainSpec = field(default_factory=TrainSpec)
    output: OutputSpec = field(default_factory=OutputSpec)
    serve: ServeSpec = field(default_factory=ServeSpec)

    def __post_init__(self) -> None:
        super().__post_init__()
        _require(bool(self.name), "name", "must be a non-empty run name")

    # ------------------------------------------------------------------ JSON
    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "RunSpec":
        return cls.from_dict(json.loads(text))

    def save(self, path: str | Path) -> None:
        with atomic_write(path) as f:
            f.write(self.to_json() + "\n")

    @classmethod
    def load(cls, path: str | Path) -> "RunSpec":
        return cls.from_json(Path(path).read_text())

    # ------------------------------------------------------------- overrides
    def with_overrides(self, assignments: dict | list | None) -> "RunSpec":
        """A new spec with dotted-path overrides applied and re-validated.

        ``assignments`` is either a mapping ``{"train.max_iterations": 3}``
        or a list of CLI-style ``"train.max_iterations=3"`` strings.
        """
        if not assignments:
            return self
        if not isinstance(assignments, dict):
            assignments = dict(parse_set_assignment(a) for a in assignments)
        return type(self).from_dict(apply_overrides(self.to_dict(), assignments))


# ``from_dict`` dispatch for nested sections (populated after class bodies).
_SUBSPEC_TYPES = {
    (RunSpec, "problem"): ProblemSpec,
    (RunSpec, "ansatz"): AnsatzSpec,
    (RunSpec, "optimizer"): OptimizerSpec,
    (RunSpec, "sampling"): SamplingSpec,
    (RunSpec, "parallel"): ParallelSpec,
    (RunSpec, "train"): TrainSpec,
    (RunSpec, "output"): OutputSpec,
    (RunSpec, "serve"): ServeSpec,
}


# ---------------------------------------------------------- --set overrides
def parse_set_assignment(text: str) -> tuple[str, object]:
    """``"train.max_iterations=3"`` -> ``("train.max_iterations", 3)``.

    The right-hand side is parsed as JSON when possible (ints, floats,
    booleans, null, quoted strings, lists) and kept as a bare string
    otherwise, so ``--set problem.molecule=LiH`` needs no quoting.
    """
    key, sep, raw = text.partition("=")
    if not sep or not key.strip():
        raise SpecError(
            f"--set expects key=value with a dotted key, got {text!r}"
        )
    return key.strip(), coerce_override_value(raw.strip())


def coerce_override_value(raw: str) -> object:
    try:
        return json.loads(raw)
    except (json.JSONDecodeError, ValueError):
        return raw


def apply_overrides(data: dict, assignments: dict) -> dict:
    """Apply ``{"a.b.c": value}`` overrides to a nested spec dict (copied)."""
    out = json.loads(json.dumps(data))  # deep copy, JSON-native by contract
    for dotted, value in assignments.items():
        parts = dotted.split(".")
        node = out
        for i, part in enumerate(parts[:-1]):
            child = node.get(part)
            if not isinstance(child, dict):
                raise SpecError(
                    f"override {dotted!r}: {'.'.join(parts[: i + 1])} "
                    "is not a spec section"
                )
            node = child
        node[parts[-1]] = value
    return out
