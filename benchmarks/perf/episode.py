"""One episode: a fresh process that sets a workload up cold and times its units.

Spawned by ``run.py`` with the BLAS thread pins and a private
``NNQS_CACHE_DIR`` already in the environment (so ``build_problem`` is cold
and ``setup_s`` does not depend on history).  Writes one JSON record.

A ``timed`` episode sets up once and times ``--seconds`` worth of units (a
fixed count: ``ceil(seconds / Workload.unit_s)``).  A ``paired`` episode (the
traced pass) sets the workload up twice from the same seeds — once with the
span wrappers of ``spans.py`` installed, once without — and alternates
``plain unit i`` / ``traced unit i``, swapping which goes first every pair: the
two sides see the same minute of the host, their outputs must match
bit-for-bit, and the median of the per-pair differences is the tracing
overhead.
"""
from __future__ import annotations

import argparse
import json
import math
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parents[1]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="seconds of timed units (pairs of units, when paired) to size for")
    ap.add_argument("--role", choices=("timed", "paired"), required=True)
    ap.add_argument("--quick", type=int, required=True)
    ap.add_argument("--spawned", type=float, required=True,
                    help="time.time() just before the parent spawned this process")
    ap.add_argument("--scratch", type=Path, required=True)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--trace-out", type=Path, help="paired: where the spans go")
    args = ap.parse_args(argv)

    sys.path[:0] = [str(HERE), str(REPO / "src")]
    import numpy

    import layers
    import spans
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    paired = args.role == "paired"
    # two at least: the tracing overhead is a median over pairs
    n_units = 2 if args.quick else max(2, math.ceil(args.seconds / wl.unit_s))
    tracer = spans.Tracer() if paired else None

    def run_unit(side, i, label=None):
        """One unit, timed from outside; an exception is a failed operation."""
        if side.traced:
            tracer.install()
            tracer.unit = i if label is None else label
        try:
            cpu0, t0 = time.process_time(), time.perf_counter()
            try:
                rec = wl.unit(side.state, i)
            except Exception:  # noqa: BLE001 — reported as a failed operation
                rec = {"ok": False, "error": traceback.format_exc()}
            rec["wall_s"] = time.perf_counter() - t0
            rec["cpu_s"] = time.process_time() - cpu0
            if wl.extra is not None and rec["ok"] and label is None:
                if side.traced:
                    tracer.unit = "extra"
                wl.extra(side.state, rec, time.perf_counter)
        finally:
            if side.traced:
                tracer.restore()
        return rec

    def set_up(traced: bool):
        """Cold (first call) set-up plus warm-up units -> a side of the episode."""
        name = "traced" if traced else "plain"
        ctx = workloads.Context(seed=args.seed, quick=bool(args.quick),
                                scratch=args.scratch / name)
        ctx.scratch.mkdir()
        if traced:
            tracer.install()
            tracer.unit = "setup"
        try:
            state = wl.setup(ctx)
        finally:
            if traced:
                tracer.restore()
        side = Side(traced, ctx, state)
        for i in range(wl.warmup):
            run_unit(side, -1 - i, label="warmup")
        return side

    first = set_up(traced=paired)
    setup_s = time.time() - args.spawned
    sides = [first] + ([set_up(traced=False)] if paired else [])

    for i in range(n_units):
        for side in (sides if i % 2 == 0 else sides[::-1]):
            side.units.append(run_unit(side, i))
    # Whatever a unit does outside its training loop (materialisation, report,
    # checkpoint, publish in ``api.run``) is set-up the user pays per run.
    in_units = [u["wall_s"] - u["train_s"] for u in first.units if "train_s" in u]
    setup_s += sum(in_units) / max(1, len(in_units))

    plain = sides[-1]
    record = {
        "workload": wl.name, "seed": args.seed, "role": args.role,
        "numpy": numpy.__version__, "setup_s": setup_s,
        "units": plain.units, "counts": plain.ctx.counts,
        "peak_rss_mb": max(resource.getrusage(who).ru_maxrss for who in
                           (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)) / 1024,
    }
    if paired:
        record["traced_units"] = first.units
        record["trace_missing"] = tracer.missing
        record["unmeasured"] = sorted(layers.unmeasured(tracer.missing_spans))
        _attach_layers(record, tracer.spans, first.ctx, layers)
        args.trace_out.write_text(json.dumps(
            {"workload": wl.name, "seed": args.seed, "missing": tracer.missing,
             "spans": tracer.spans}))
    record["checks"] = [c for side in sides for c in side.ctx.checks]
    args.out.write_text(json.dumps(record))
    return 0


class Side:
    """One set-up of the workload inside an episode and the units timed on it."""

    def __init__(self, traced: bool, ctx, state):
        self.traced, self.ctx, self.state = traced, ctx, state
        self.units: list[dict] = []


def _attach_layers(record, all_spans, ctx, layers) -> None:
    """Per-unit layer metrics, plus the wrapper-validity check: the outside
    spans must agree with the program's own three timers on serial units."""
    by_unit: dict = {}
    for s in all_spans:
        by_unit.setdefault(s["unit"], []).append(s)
    setup_spans = by_unit.get("setup", [])
    record["setup_layers"] = layers.unit_layers(setup_spans, record["setup_s"])
    gaps = []
    for i, unit in enumerate(record["traced_units"]):
        inner = unit.get("inner", 1)
        iter_s = unit.get("train_s", unit["wall_s"]) / inner
        got = layers.unit_layers(by_unit.get(i, []), iter_s, inner)
        got.update(layers.once_layers(setup_spans + by_unit.get(i, [])))
        unit["layers"] = got
        own = unit.get("stats_times")
        if own:
            traced = (got["engine.stage1_sample_s"],
                      got["engine.partition_s"] + got["engine.stage3_eloc_s"],
                      got["engine.stage5_backward_s"])
            # 0.1 ms of grace: at smoke sizes a stage is ~1 ms and the wrapper's
            # own ~20 us no longer disappear in 5 %
            gaps += [max(0.0, abs(t - o) - 1e-4) / o for t, o in zip(traced, own) if o]
    if gaps:
        ctx.check("outside spans agree with VMCStats timers within 5 %",
                  max(gaps) <= 0.05, f"worst relative gap {max(gaps):.4f}")


if __name__ == "__main__":
    sys.exit(main())
