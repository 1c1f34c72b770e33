"""Span tree -> per-layer metrics of one unit (pure python; see README tables).

A *unit* is one timed call of the workload (a ``VMC.step()``, a kernel call,
an ``api.run``).  Times of a unit are seconds per inner iteration (``inner`` is
400 for ``h2_converge``, whose unit is a whole run, and 1 elsewhere).
"""
from __future__ import annotations

from spans import children_of, descendants, duration

STAGES = {
    "engine.stage1_sample_s": "engine.stage1_sample",
    "engine.stage2_table_s": "engine.stage2_table",
    "engine.partition_s": "engine.partition",
    "engine.stage3_eloc_s": "engine.stage3_eloc",
    "engine.stage5_backward_s": "engine.stage5_backward",
    "engine.stage6_update_s": "engine.stage6_update",
}
# Paid once per episode (set-up, or once inside an ``api.run`` unit): reported
# as the episode's total, never divided by the inner iteration count.
ONCE = {
    "chem.build_problem_s": "chem.build_problem",
    "hamiltonian.compress_s": "hamiltonian.compress",
    "pretrain.s": "pretrain",
    "eloc.plan_compile_s": "eloc.plan_compile",
    "checkpoint.save_s": "checkpoint.save",
    "api.publish_s": "api.publish",
}


# Where a workload pays these in set-up only (``c2_eloc_kernel`` extends its
# table once), the set-up phase's value is reported instead of a per-unit zero.
SETUP_FALLBACK = ("eloc.extend_table_s", "eloc.extend_rows_added", "nn.forward_nograd_s",
                  "nn.forward_nograd_rows", "nn.forward_nograd_us_per_row")


# Span names a metric is computed from, beyond the three tables above: when a
# wrapper target of one of them no longer resolves, the metric was not measured.
_ALL_STAGES = tuple(STAGES.values())
SOURCES = {
    **{metric: (name,) for metric, name in {**STAGES, **ONCE}.items()},
    "engine.unattributed_s": _ALL_STAGES,
    "engine.stage_coverage_frac": _ALL_STAGES,
    "optim.update_s": ("engine.stage6_update",),
    "nn.inference.step_s": ("nn.inference.step",),
    "nn.inference.step_calls": ("nn.inference.step",),
    "sampler.self_s": ("sampler.sweep", "nn.inference.step"),
    "sampler.tokens": ("nn.inference.step",),
    "sampler.tokens_per_s": ("sampler.sweep", "nn.inference.step"),
    "nn.forward_nograd_s": ("nn.forward_nograd",),
    "nn.forward_nograd_rows": ("nn.forward_nograd",),
    "nn.forward_nograd_us_per_row": ("nn.forward_nograd",),
    "autograd.forward_taped_s": ("engine.stage5_backward", "wf.log_prob", "wf.phase_of"),
    "autograd.backward_s": ("autograd.backward",),
    "autograd.us_per_row": ("engine.stage5_backward",),
    "eloc.extend_table_s": ("eloc.extend_table",),
    "eloc.extend_rows_added": ("eloc.extend_table",),
    "eloc.kernel_s": ("engine.stage3_eloc", "eloc.extend_table"),
}


def unmeasured(missing_spans) -> set:
    """The metrics that cannot be trusted when the wrapper targets of these
    span names did not resolve (``Tracer.missing_spans``)."""
    missing_spans = set(missing_spans)
    return {metric for metric, names in SOURCES.items() if missing_spans & set(names)}


def _total(spans, value=duration) -> float:
    return sum(map(value, spans))


def _count(spans, attr: str) -> int:
    return sum(s.get(attr, 0) for s in spans)


def _nested(span, kids, name: str) -> float:
    return sum(duration(d) for d in descendants(span, kids) if d["name"] == name)


def unit_layers(spans: list[dict], wall_s: float, inner: int = 1) -> dict:
    """Per-layer metrics of the spans of one unit (``wall_s``: the unit's wall
    seconds as timed from outside, already per inner iteration)."""
    kids = children_of(spans)
    named: dict = {}
    for s in spans:
        named.setdefault(s["name"], []).append(s)

    def get(name):
        return named.get(name, [])

    out = {metric: _total(get(name)) / inner for metric, name in STAGES.items()}
    covered = sum(out.values())
    if covered:               # a unit that runs no engine stage has no remainder
        out["engine.unattributed_s"] = wall_s - covered
        out["engine.stage_coverage_frac"] = covered / wall_s
    out["optim.update_s"] = out["engine.stage6_update_s"]

    sweeps, steps = get("sampler.sweep"), get("nn.inference.step")
    sweep_s = _total(sweeps) / inner
    out["nn.inference.step_s"] = _total(steps) / inner
    out["nn.inference.step_calls"] = len(steps) / inner
    out["sampler.self_s"] = _total(
        sweeps, lambda s: duration(s) - _nested(s, kids, "nn.inference.step")) / inner
    out["sampler.tokens"] = _count(steps, "rows") / inner
    out["sampler.tokens_per_s"] = out["sampler.tokens"] / sweep_s if sweep_s else 0.0

    nograd = get("nn.forward_nograd")
    rows = _count(nograd, "rows")
    out["nn.forward_nograd_s"] = _total(nograd) / inner
    out["nn.forward_nograd_rows"] = rows / inner
    out["nn.forward_nograd_us_per_row"] = (
        1e6 * _total(nograd) / rows if rows else 0.0)

    backward = get("engine.stage5_backward")
    stage5_ids = {s["id"] for s in backward}
    taped = [s for s in get("wf.log_prob") + get("wf.phase_of")
             if s["parent"] in stage5_ids]
    out["autograd.forward_taped_s"] = _total(taped) / inner
    out["autograd.backward_s"] = _total(get("autograd.backward")) / inner
    chunk_rows = _count(backward, "rows")
    out["autograd.us_per_row"] = (
        1e6 * _total(backward) / chunk_rows if chunk_rows else 0.0)

    extend = get("eloc.extend_table")
    out["eloc.extend_table_s"] = _total(extend) / inner
    out["eloc.extend_rows_added"] = _count(extend, "rows_added") / inner
    out["eloc.kernel_s"] = _total(
        get("engine.stage3_eloc"),
        lambda s: duration(s) - _nested(s, kids, "eloc.extend_table")) / inner

    out["trace.spans_per_unit"] = len(spans) / inner
    return out


def once_layers(spans: list[dict]) -> dict:
    """The :data:`ONCE` metrics over every span of an episode."""
    return {metric: sum(duration(s) for s in spans if s["name"] == name)
            for metric, name in ONCE.items()}
