"""Phase-MLP width sweep: seconds to chemical accuracy at three widths.

The paper's phase network is N x 512 x 512 x 1 (Sec. 4.1).  This sweep times
``ansatz.phase_hidden`` = (512, 512), (256, 256) and (128, 128) through
``repro.api.run`` on three systems, each width set explicitly (the result
does not depend on the default):

* ``h2`` — the ``h2`` preset, one run per ``train.seed``;
* ``n2-cas66`` — the ``n2-cas66`` preset, one run per ``train.seed``;
* ``n2`` — N2/STO-3G under ROADMAP item 2's protocol (``train.seed`` 2,
  ``lr_scale`` 0.3, warm-up 200, N_s 1e9 sample-aware, 60 pretraining steps
  to 0.2), one run per *ansatz* seed, each width with an iteration budget of
  about the same wall time (``N2_ITERATIONS``).

For ``h2`` and ``n2-cas66`` a run's score is its seconds to 1.6 mHa:
``k * iter_s``, with ``k`` the first iteration from which the trailing
10-iteration mean energy stays within 1.6 mHa of FCI (the rule of
``benchmarks/perf/stats.iters_to_chem_acc``) and ``iter_s`` the run's wall
time per iteration; a run that never holds it scores infinity.  No N2 run
reaches 1.6 mHa at these budgets, so its score is the exact error at the
budget: ``<psi|H|psi> / <psi|psi> - E_FCI`` over the 14 400-determinant
sector.

The adoption rule (DESIGN.md "Phase MLP width"): a width replaces (512, 512)
when its median score is lower on >= 2 of the 3 systems and, on none, higher
than 512's by more than 512's seed spread (its interquartile range).

Usage (one BLAS thread, as every timing in this repo)::

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python benchmarks/bench_phase_width.py
    ... --systems h2                    # one system's rows, the others kept
    ... --smoke                         # ~10 s: one short run per system and width, nothing written

Rows are appended to ``benchmarks/results/phase_width_sweep.jsonl`` as they
finish (a rerun replaces a system's rows), and
``benchmarks/results/phase_width_sweep.txt`` is rendered from all of them.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import sys
import tempfile
import time
from pathlib import Path

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

import numpy as np  # noqa: E402

from repro import api  # noqa: E402
from repro.core.observables import sector_expectation  # noqa: E402
from repro.hamiltonian.exact import sector_basis  # noqa: E402

CHEM_ACC_HA = 1.6e-3
CHEM_ACC_WINDOW = 10
WIDTHS = ((512, 512), (256, 256), (128, 128))
BASELINE = (512, 512)
RESULTS = Path(__file__).resolve().parent / "results"

H2_SEEDS = tuple(range(100, 116))          # train.seed, 16 runs
CAS66_SEEDS = tuple(range(22, 28))          # train.seed, 6 runs
N2_SEEDS = (6, 1, 3, 2, 4)                  # ansatz.seed, 5 runs
# About one wall budget per width on one core: an N_s 1e9 iteration takes
# ~2.2x longer at 512 wide than at 128.
N2_ITERATIONS = {(512, 512): 1000, (256, 256): 1700, (128, 128): 2200}
N2_PROTOCOL = {
    "name": "n2-item2",
    "problem": {"molecule": "N2", "basis": "sto-3g"},
    "optimizer": {"lr_scale": 0.3, "warmup": 200},
    "sampling": {"ns_pretrain": 10**9, "ns_max": 10**9, "pretrain_iters": 0,
                 "eloc_mode": "sample_aware"},
    "train": {"pretrain_steps": 60, "pretrain_target": 0.2,
              "early_stop": False, "seed": 2},
    "output": {"reference": "fci", "publish": False},
}


def iters_to_chem_acc(energies, e_ref: float):
    """First 1-based iteration from which the trailing-window mean energy
    stays within 1.6 mHa of ``e_ref``; ``None`` if the last one is outside."""
    k = None
    for j in range(1, len(energies) + 1):
        tail = energies[max(0, j - CHEM_ACC_WINDOW):j]
        if abs(sum(tail) / len(tail) - e_ref) > CHEM_ACC_HA:
            k = None
        elif k is None:
            k = j
    return k


def _run(spec, width, overrides, scratch: Path):
    spec = spec.with_overrides({**overrides, "ansatz.phase_hidden": list(width),
                                "output.log_every": 0, "output.publish": False})
    with tempfile.TemporaryDirectory(dir=scratch) as run_dir:
        result = api.run(spec, run_dir=run_dir)
        energies = [r["energy"] for r in map(
            json.loads, result.metrics_path.read_text().splitlines())
            if "energy" in r]
    report = result.report
    e_fci = report.best_energy - report.error_vs_reference
    return result, report, energies, e_fci


def run_converge(system: str, width, seed: int, scratch: Path,
                 max_iterations: int | None = None) -> dict:
    """One preset run (``h2`` / ``n2-cas66``) scored by seconds to 1.6 mHa."""
    overrides = {"train.seed": seed}
    if max_iterations:
        overrides["train.max_iterations"] = max_iterations
    _, report, energies, e_fci = _run(api.get_preset(system), width, overrides, scratch)
    k = iters_to_chem_acc(energies, e_fci)
    iter_s = report.wall_time / report.iterations
    return {"system": system, "width": list(width), "seed": seed,
            "iterations": report.iterations, "iter_s": iter_s, "k": k,
            "score": math.inf if k is None else k * iter_s,
            "final_error_mha": abs(energies[-1] - e_fci) * 1e3}


def run_n2(width, seed: int, scratch: Path, iterations: int | None = None) -> dict:
    """One item-2 protocol run scored by the exact error at the budget."""
    iterations = iterations or N2_ITERATIONS[tuple(width)]
    result, report, energies, e_fci = _run(
        api.RunSpec.from_dict(N2_PROTOCOL), width,
        {"ansatz.seed": seed, "train.max_iterations": iterations}, scratch)
    wf = result.wavefunction
    basis = sector_basis(wf.n_qubits, wf.spec["n_up"], wf.spec["n_dn"])
    log_psi = wf.log_amplitudes(basis.bits())
    psi = np.exp(log_psi - log_psi.real.max())
    problem = api.materialize_problem(result.spec.problem)
    e_exact = sector_expectation(problem.hamiltonian, psi, basis)
    return {"system": "n2", "width": list(width), "seed": seed,
            "iterations": report.iterations,
            "iter_s": report.wall_time / report.iterations,
            "wall_s": report.wall_time, "k": iters_to_chem_acc(energies, e_fci),
            "score": (e_exact - e_fci) * 1e3}


SYSTEMS = {
    "h2": (H2_SEEDS, lambda w, s, d: run_converge("h2", w, s, d)),
    "n2-cas66": (CAS66_SEEDS, lambda w, s, d: run_converge("n2-cas66", w, s, d)),
    "n2": (N2_SEEDS, run_n2),
}
UNITS = {"h2": "s to 1.6 mHa", "n2-cas66": "s to 1.6 mHa",
         "n2": "mHa exact error at the budget"}


def _quartiles(values):
    finite = sorted(values)
    if len(finite) < 2:
        return finite[0], finite[0]
    q1, _, q3 = statistics.quantiles(finite, n=4, method="inclusive")
    return q1, q3


def verdict(rows: list[dict]) -> tuple[list[str], tuple | None]:
    """Per-system medians and the adoption rule's outcome: ``(lines,
    adopted_width)``; ``adopted_width`` is ``None`` when no width passes or a
    system is missing."""
    lines, medians, spread = [], {}, {}
    for system in SYSTEMS:
        for width in WIDTHS:
            scores = [r["score"] for r in rows
                      if r["system"] == system and tuple(r["width"]) == width]
            if not scores:
                continue
            med = statistics.median(scores)
            q1, q3 = _quartiles(scores)
            medians[system, width], spread[system, width] = med, q3 - q1
            reached = sum(math.isfinite(s) for s in scores) if system != "n2" \
                else sum(s <= CHEM_ACC_HA * 1e3 for s in scores)
            lines.append(f"{system:9s} {width[0]:>3d} x {width[1]:<3d} "
                         f"median {med:9.3f}  IQR [{q1:.3f}, {q3:.3f}]  "
                         f"reached 1.6 mHa {reached}/{len(scores)}  ({UNITS[system]})")
    adopted = None
    for width in WIDTHS:
        if width == BASELINE:
            continue
        if not all((s, w) in medians for s in SYSTEMS for w in (width, BASELINE)):
            lines.append(f"{width[0]} wide: not every system measured, no verdict")
            continue
        wins = [s for s in SYSTEMS if medians[s, width] < medians[s, BASELINE]]
        losses = [s for s in SYSTEMS
                  if medians[s, width] - medians[s, BASELINE] > spread[s, BASELINE]]
        ok = len(wins) >= 2 and not losses
        lines.append(f"{width[0]} wide: wins on {wins or 'none'}, loses beyond "
                     f"512's spread on {losses or 'none'}: "
                     f"{'ADOPT' if ok else 'reject'}")
        if ok and adopted is None:
            adopted = width
    return lines, adopted


def render(rows: list[dict]) -> str:
    out = ["Phase-MLP width sweep (benchmarks/bench_phase_width.py)",
           "One OpenBLAS thread; score = seconds to 1.6 mHa (h2, n2-cas66; "
           "inf = never held) or exact error in mHa at the budget (n2).", "",
           f"{'system':9s} {'width':>9s} {'seed':>5s} {'iters':>6s} "
           f"{'ms/iter':>8s} {'k':>5s} {'score':>9s}"]
    for r in rows:
        w = r["width"]
        out.append(f"{r['system']:9s} {w[0]:>4d}x{w[1]:<4d} {r['seed']:>5d} "
                   f"{r['iterations']:>6d} {1e3 * r['iter_s']:>8.2f} "
                   f"{'-' if r['k'] is None else r['k']:>5} {r['score']:>9.3f}")
    lines, adopted = verdict(rows)
    out += ["", "Medians over seeds (lower is better):", *lines, "",
            "Adopted default: "
            + (f"{adopted}" if adopted else "none, (512, 512) stays")]
    return "\n".join(out) + "\n"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--systems", default=",".join(SYSTEMS))
    ap.add_argument("--smoke", action="store_true",
                    help="one seed per system, 30 iterations (3 on n2); print only")
    args = ap.parse_args(argv)
    systems = args.systems.split(",")
    unknown = set(systems) - set(SYSTEMS)
    if unknown:
        ap.error(f"unknown systems {sorted(unknown)}; choose from {list(SYSTEMS)}")
    jsonl = RESULTS / "phase_width_sweep.jsonl"
    rows = [] if args.smoke or not jsonl.exists() else [
        r for r in map(json.loads, jsonl.read_text().splitlines())
        if r["system"] not in systems]
    with tempfile.TemporaryDirectory() as scratch:
        scratch = Path(scratch)
        for system in systems:
            seeds, run = SYSTEMS[system]
            seeds = seeds[:1] if args.smoke else seeds
            for seed in seeds:
                for width in WIDTHS:     # interleaved: widths share the noise
                    t0 = time.perf_counter()
                    if args.smoke:
                        row = (run_n2(width, seed, scratch, iterations=3)
                               if system == "n2" else
                               run_converge(system, width, seed, scratch, 30))
                    else:
                        row = run(width, seed, scratch)
                    rows.append(row)
                    print(f"{system} {width} seed {seed}: score {row['score']:.3f} "
                          f"({time.perf_counter() - t0:.1f} s)", flush=True)
                    if not args.smoke:
                        jsonl.write_text("".join(json.dumps(r) + "\n" for r in rows))
    text = render(rows)
    if not args.smoke:
        (RESULTS / "phase_width_sweep.txt").write_text(text)
    print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
