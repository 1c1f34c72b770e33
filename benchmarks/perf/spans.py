"""Outside-in span tracing: time the calls *into* each layer of ``repro``.

Nothing under ``src/`` knows about this file.  :data:`TARGETS` is one table of
``(span name, module, attribute)``; :meth:`Tracer.install` rebinds each
attribute, at the place the program looks it up, to a signature-agnostic
``*args, **kwargs`` timing wrapper and :meth:`Tracer.restore` puts the
originals back.  A target that no longer resolves (a later PR renamed or
removed it) is listed in :attr:`Tracer.missing`; the metrics computed from its
span are reported as not measured (``layers.unmeasured``) and the untraced pass
is unaffected.  Spans inside the program are ROADMAP item 5.

A span is ``{id, name, start, end, parent, unit}`` plus the few counts an
``attrs`` hook read off the call (rows, table growth, file size).  Spans stay
in memory until the workload ends.
"""
from __future__ import annotations

import functools
import importlib
import os
import time


# ------------------------------------------------------------------ attr hooks
# The only places that look at a call's arguments.  Each finds what it needs by
# duck type rather than by position, and a hook that raises just leaves its
# counts off the span — a refactored signature must never break the traced pass.
def _first_with(args, attr):
    return next(a for a in args if hasattr(a, attr))


def _rows_of_bits(args, kwargs, result):
    return {"rows": len(args[1])}


def _session_rows(args, kwargs, result):
    return {"rows": int(args[0].batch_size)}


def _table_growth(args, kwargs, result):
    return {"rows_added": int(result.n_entries
                              - _first_with(args, "n_entries").n_entries)}


def _chunk_rows(args, kwargs, result):
    return {"rows": int(_first_with(args, "n_unique").n_unique)}


def _file_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(args[1])}


# (span name, module, dotted attribute, attrs hook)
TARGETS = (
    # core.engine — the six Fig. 4 stages as the engine looks them up
    ("engine.stage1_sample", "repro.core.engine", "stage_sample", None),
    ("engine.stage2_table", "repro.core.engine", "stage_gather_table", None),
    ("engine.partition", "repro.core.engine", "stage_partition", None),
    ("engine.stage3_eloc", "repro.core.engine", "stage_local_energy", None),
    ("engine.stage5_backward", "repro.core.engine", "stage_backward", _chunk_rows),
    ("engine.stage6_update", "repro.core.engine", "stage_update", None),
    # core.sampler / nn.inference
    ("sampler.sweep", "repro.core.engine", "batch_autoregressive_sample", None),
    ("sampler.sweep", "repro.core.sampler", "batch_autoregressive_sample", None),
    ("nn.inference.step", "repro.nn.inference", "TransformerInferenceSession.step",
     _session_rows),
    # core.wavefunction / nn / autograd
    ("nn.forward_nograd", "repro.core.wavefunction",
     "NNQSWavefunction.log_amplitudes", _rows_of_bits),
    ("wf.log_prob", "repro.core.wavefunction", "NNQSWavefunction.log_prob", None),
    ("wf.phase_of", "repro.core.wavefunction", "NNQSWavefunction.phase_of", None),
    ("autograd.backward", "repro.autograd.tensor", "Tensor.backward", None),
    # core.local_energy
    ("eloc.extend_table", "repro.core.engine", "extend_amplitude_table", _table_growth),
    ("eloc.extend_table", "repro.core.local_energy", "extend_amplitude_table",
     _table_growth),
    ("eloc.plan_compile", "repro.core.vmc", "ElocPlan", None),
    ("eloc.plan_compile", "repro.core.local_energy", "compile_eloc_plan", None),
    # chem / hamiltonian / pretrain / checkpoint / api
    ("chem.build_problem", "repro.chem", "build_problem", None),
    ("chem.build_problem", "repro.api.driver", "build_problem", None),
    ("hamiltonian.compress", "repro.hamiltonian.compressed", "compress_hamiltonian", None),
    ("hamiltonian.compress", "repro.core.vmc", "compress_hamiltonian", None),
    ("pretrain", "repro.core.pretrain", "pretrain_to_reference", None),
    ("pretrain", "repro.core.trainer", "pretrain_to_reference", None),
    ("checkpoint.save", "repro.core.trainer", "save_checkpoint", _file_bytes),
    ("api.publish", "repro.serve.registry", "ModelRegistry.publish", None),
)


def _resolve(module_name: str, dotted: str):
    """``(owner, attribute name, current value)`` of a target."""
    owner = importlib.import_module(module_name)
    *path, leaf = dotted.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, leaf, getattr(owner, leaf)


class Tracer:
    """Records spans; installs and removes the timing wrappers."""

    def __init__(self):
        self.spans: list[dict] = []
        self.missing: list[str] = []         # "module:attribute" of unresolved targets
        self.missing_spans: list[str] = []   # ... and the span names they feed
        self.unit: int | None = None
        self._stack: list[int] = []
        self._seq = 0
        self._installed: list[tuple] = []

    # ------------------------------------------------------------- recording
    def open(self, name: str) -> dict:
        self._seq += 1
        span = {"id": self._seq, "name": name,
                "parent": self._stack[-1] if self._stack else None,
                "unit": self.unit, "start": time.perf_counter(), "end": None}
        self._stack.append(span["id"])
        return span

    def close(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        self._stack.pop()
        self.spans.append(span)

    # ------------------------------------------------------------ (un)install
    def _wrap(self, name: str, fn, attrs):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self.open(name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                if attrs is not None and result is not None:
                    try:
                        span.update(attrs(args, kwargs, result))
                    except Exception:  # noqa: BLE001 — see "attr hooks" above
                        pass
                self.close(span)

        return wrapper

    def install(self) -> None:
        if self._installed:
            raise RuntimeError("tracer already installed")
        self.missing, self.missing_spans = [], []
        for name, module_name, dotted, attrs in TARGETS:
            try:
                owner, leaf, original = _resolve(module_name, dotted)
            except (ImportError, AttributeError):
                self.missing.append(f"{module_name}:{dotted}")
                self.missing_spans.append(name)
                continue
            # vars() keeps a staticmethod/classmethod object intact on restore.
            raw = vars(owner).get(leaf, original)
            setattr(owner, leaf, self._wrap(name, original, attrs))
            self._installed.append((owner, leaf, raw))

    def restore(self) -> None:
        for owner, leaf, raw in reversed(self._installed):
            setattr(owner, leaf, raw)
        self._installed = []


# ------------------------------------------------------------- span arithmetic
def duration(span: dict) -> float:
    return span["end"] - span["start"]


def children_of(spans) -> dict:
    """``parent id -> [child spans]``."""
    out: dict = {}
    for s in spans:
        out.setdefault(s["parent"], []).append(s)
    return out


def self_time(span: dict, kids: dict) -> float:
    """A span's duration minus the part its child spans cover (children of one
    span run sequentially in one thread, so their durations add)."""
    return duration(span) - sum(duration(c) for c in kids.get(span["id"], ()))


def descendants(span: dict, kids: dict) -> list[dict]:
    out, frontier = [], [span]
    while frontier:
        node = frontier.pop()
        for child in kids.get(node["id"], ()):
            out.append(child)
            frontier.append(child)
    return out
