"""Fig. 11: strong scaling of the data-centric parallel VMC iteration.

The paper scales benzene/6-31G (120 qubits) from 4 to 64 A100s at fixed
N_s = 1.6e6.  Substitution (DESIGN.md): process-rank measurements on
N2/STO-3G at fixed sample budget on this host's cores, extended by the
calibrated analytic model (embarrassingly parallel E_loc/backward stages,
serial shared-prefix fraction in sampling, Sec. 3.2 communication volume) out
to 64 ranks.  Shape: monotonically decreasing efficiency, still high at
moderate rank counts.

Iterations run on the unified execution engine's ``ProcessBackend``
(``repro.core.engine``, fork ranks over the socket-pair mesh with the
compressed stage-2 payload — what ``parallel.backend=process`` runs); a
load table pins stage 3's cut — contiguous chunks of equal row count — by
the stage-3 time each rank's chunk of one iteration's unique set measures,
against the Sec. 3.3 weight-balanced cut (which stage 1 keeps for the BAS
tree split) — and a comm block records each measured point's logical and
wire volume.

CI smoke: ``python benchmarks/bench_fig11_strong_scaling.py --smoke`` runs
the same workload on 1 and 2 process ranks and on 1 and 2 thread ranks,
gates on the process columns (N_u, energy, logical and wire comm volumes)
being bit-identical to the thread backend at each rank count and on the
stage-2 samples wire volume being below its logical volume, and records the
2-rank process efficiency to ``benchmarks/results/``; ``--cluster`` runs the
same comparison over the TCP cluster transport (localhost mesh,
thread-hosted SPMD ranks).

Every measured row runs with one BLAS thread per rank: under pytest the
scaling points come from a child interpreter started with the
``*_NUM_THREADS=1`` variables (:func:`pinned_points`), and a bare-script
run sets them before numpy loads.  Two ranks with a two-thread pool each on
two cores measure oversubscription, not scaling.
"""
from __future__ import annotations

import dataclasses
import importlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

_ONE_BLAS_THREAD = {var: "1" for var in (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}

if __name__ == "__main__":  # bare-script invocation: make src/ importable
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    os.environ.update(_ONE_BLAS_THREAD)  # read once, when numpy loads

import numpy as np

from reporting import format_table, registry
from repro.chem import build_problem
from repro.core import (
    ElocPlan,
    SampleBatch,
    VMCConfig,
    batch_autoregressive_sample,
    build_qiankunnet,
    pretrain_to_reference,
)
from repro.core.engine import (
    ProcessBackend,
    ThreadBackend,
    stage_gather_table,
    stage_local_energy,
    stage_partition,
)
from repro.core.vmc import VMC
from repro.hamiltonian import compress_hamiltonian
from repro.parallel import balanced_weight_partition
from repro.parallel.comm import Comm, SoloTransport
from repro.utils.bitstrings import unpack_bits
from scaling import ScalingPoint, measure_scaling, model_scaling, parallel_efficiency

_NS = 200_000
# Iterations per measured point after the warm-up: at 3, four back-to-back
# runs of the 2-rank row read 36.6 to 60.7 % efficiency.
MEASURED_ITERS = 7


def measured_ranks(full: bool) -> list[int]:
    """The rank counts to measure: one process rank per core of this host at
    most (more would time-share cores, not scale); larger counts appear only
    as modeled (``*``) rows."""
    candidates = (1, 2, 4, 8) if full else (1, 2, 4)
    return [n for n in candidates if n <= (os.cpu_count() or 1)]


def pinned_points(bench_file: str,
                  full: bool) -> tuple[list[ScalingPoint], str]:
    """The measured scaling points of ``bench_file``'s ``measure_points``
    and the BLAS thread count they ran with.  They are measured in a child
    interpreter started with one BLAS thread: numpy reads the variables
    once, when it loads, and under pytest it has loaded long before this
    runs."""
    here = Path(__file__).resolve().parent
    env = dict(os.environ, **_ONE_BLAS_THREAD, PYTHONPATH=os.pathsep.join(
        [str(here.parent / "src"), str(here),
         os.environ.get("PYTHONPATH", "")]))
    code = (f"from {Path(__file__).stem} import print_points; "
            f"print_points({Path(bench_file).stem!r}, {full!r})")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    record = json.loads(proc.stdout.splitlines()[-1])
    return ([ScalingPoint(**p) for p in record["points"]],
            record["blas_threads"])


def print_points(module: str, full: bool) -> None:
    """The child's side of :func:`pinned_points`."""
    points = importlib.import_module(module).measure_points(full)
    print(json.dumps({
        "blas_threads": _blas_threads(),
        "points": [dataclasses.asdict(p) for p in points],
    }))


def _wf_factory(prob):
    def make():
        wf = build_qiankunnet(prob.n_qubits, prob.n_up, prob.n_dn, seed=13)
        pretrain_to_reference(wf, prob.hf_bits, n_steps=60, target_prob=0.2)
        return wf

    return make


def measure_points(full: bool) -> list[ScalingPoint]:
    prob = build_problem("N2", "sto-3g")
    return measure_scaling(
        _wf_factory(prob), compress_hamiltonian(prob.hamiltonian),
        measured_ranks(full), n_samples_for=lambda n: _NS,
        n_iters=MEASURED_ITERS,
        config=VMCConfig(eloc_mode="sample_aware", seed=14),
        nu_star_per_rank=32,
    )


def test_fig11_strong_scaling(benchmark, full):
    prob = build_problem("N2", "sto-3g")
    comp = compress_hamiltonian(prob.hamiltonian)
    points, blas_threads = pinned_points(__file__, full)
    eff = parallel_efficiency(points, mode="strong")
    rows = [
        [p.n_ranks, p.n_unique, f"{p.time_per_iter:.3f}",
         f"{p.time_per_iter_iqr:.3f}", f"{p.time_sampling:.3f}",
         f"{p.time_local_energy:.3f}", f"{p.time_gradient:.3f}",
         f"{100 * e:.1f}%"]
        for p, e in zip(points, eff)
    ]
    model = model_scaling(points[0], [2, 4, 8, 16, 32, 64], prob.n_qubits,
                          _n_params(prob), mode="strong")
    eff_m = parallel_efficiency([points[0]] + model, mode="strong")[1:]
    for p, e in zip(model, eff_m):
        rows.append([f"{p.n_ranks}*", p.n_unique, f"{p.time_per_iter:.3f}", "-",
                     f"{p.time_sampling:.3f}", f"{p.time_local_energy:.3f}",
                     f"{p.time_gradient:.3f}", f"{100 * e:.1f}%"])
    # Paper-scale model: a base point shaped like the paper's 4-GPU benzene
    # iteration (~250 s, stage split from the Fig. 11 stacked bars).
    paper_base = ScalingPoint(
        n_ranks=4, n_samples=1_600_000, time_per_iter=250.0,
        time_sampling=100.0, time_local_energy=100.0, time_gradient=50.0,
        n_unique=650_000, comm_bytes=0,
    )
    paper_model = model_scaling(paper_base, [8, 16, 32, 64], 120, 270_000,
                                mode="strong")
    eff_p = parallel_efficiency([paper_base] + paper_model, mode="strong")[1:]
    paper_ref = {8: 99.2, 16: 96.7, 32: 84.1, 64: 67.7}
    for p, e in zip(paper_model, eff_p):
        rows.append([f"{p.n_ranks}^", p.n_unique, f"{p.time_per_iter:.1f}", "-",
                     f"{p.time_sampling:.1f}", f"{p.time_local_energy:.1f}",
                     f"{p.time_gradient:.1f}",
                     f"{100 * e:.1f}% (paper {paper_ref[p.n_ranks]}%)"])
    table = format_table(
        "Fig. 11 — Strong scaling (fixed N_s), measured + model (*)",
        ["ranks", "N_u", "t/iter (s)", "IQR (s)", "t_sample", "t_eloc",
         "t_grad", "efficiency"],
        rows,
        notes=(
            f"Measured: process ranks on this host (N2/STO-3G, N_s={_NS}), "
            f"up to its {os.cpu_count()} cores, {blas_threads} BLAS thread(s) "
            f"per rank; medians of {MEASURED_ITERS} iterations after a "
            "warm-up, IQR their spread; * = calibrated model on the "
            "measured base (2* sits beside the measured 2); ^ = model at the "
            "paper's 120-qubit benzene workload scale (DESIGN.md "
            "substitution). Paper: 99.2% @8, 96.7% @16, 84.1% @32, 67.7% @64."
        ),
    )
    from ascii_plot import line_plot

    chart = line_plot(
        [4, 8, 16, 32, 64],
        {"model (paper scale)": [100.0] + [100 * e for e in eff_p],
         "paper": [100.0, 99.2, 96.7, 84.1, 67.7]},
        width=56, height=12,
        title="Fig. 11 — strong-scaling parallel efficiency vs ranks",
        xlabel="ranks", ylabel="%",
    )
    cmp_table = _partition_load_table(prob, comp)
    proc_rows = [
        [p.n_ranks, p.n_unique, f"{p.time_per_iter:.3f}",
         f"{p.comm_bytes / 1e6:.2f}", f"{p.comm_bytes_wire / 1e6:.2f}",
         f"{100 * e:.1f}%"]
        for p, e in zip(points, eff)
    ]
    proc_table = format_table(
        "Process backend (fork ranks, socket-pair mesh + codec comm layer)",
        ["ranks", "N_u", "t/iter (s)", "comm MB logical", "comm MB wire",
         "efficiency"],
        proc_rows,
        notes="The measured rows above; collectives move as frames over "
              "socket pairs with delta/varint-compressed stage-2 payloads.",
    )
    registry.record("fig11_strong_scaling",
                    table + "\n\n" + chart + "\n\n" + cmp_table
                    + "\n\n" + proc_table)
    # Timed kernel: one 2-rank engine iteration.
    driver = VMC(
        _wf_factory(prob)(), comp,
        VMCConfig(n_samples=_NS, eloc_mode="sample_aware", seed=15),
        backend=ProcessBackend(n_ranks=2, nu_star_per_rank=32),
    )
    driver.step()
    benchmark(driver.step)
    driver.backend.close()


def _n_params(prob) -> int:
    wf = build_qiankunnet(prob.n_qubits, prob.n_up, prob.n_dn, seed=0)
    return wf.num_parameters()


def _partition_load_table(prob, comp, ranks=(2, 4, 8)) -> str:
    """Stage 3's cut over one iteration's unique set, by measured time.

    Stage 3 cuts the lexsorted global unique set into contiguous chunks of
    equal row count (``stage_partition``); the foil is the Sec. 3.3 cut of
    ~equal total sample weight (``balanced_weight_partition``, which stage
    1 keeps for the BAS tree split).  Each rank's chunk runs stage 3 alone
    against the full table (median of 3), as its rank would: the heaviest
    rank's time over the mean is what the cut costs the step.
    """
    wf = _wf_factory(prob)()
    batch = batch_autoregressive_sample(wf, _NS, np.random.default_rng(15))
    keys, weights, table, _ = stage_gather_table(Comm(SoloTransport()), wf, batch)
    config, plan = VMCConfig(eloc_mode="sample_aware"), ElocPlan(comp)

    def stage3_ms(idx) -> float:
        chunk = SampleBatch(bits=unpack_bits(keys[idx], prob.n_qubits),
                            weights=weights[idx])
        times = []
        for _ in range(3):
            t0 = time.perf_counter()
            stage_local_energy(wf, comp, chunk, table, config, plan)
            times.append(time.perf_counter() - t0)
        return 1e3 * float(np.median(times))

    rows = []
    for n_ranks in ranks:
        for label, chunks in (
                ("rows (stage 3)", stage_partition(weights, n_ranks)),
                ("sample weight", balanced_weight_partition(weights, n_ranks))):
            ms = [stage3_ms(idx) for idx in chunks]
            rows.append([label, n_ranks, " / ".join(str(len(i)) for i in chunks),
                         " / ".join(f"{t:.1f}" for t in ms),
                         f"{max(ms) * n_ranks / sum(ms):.3f}"])
    return format_table(
        f"Stage-3 partition load (one iteration's unique set: "
        f"N_u={len(weights)}, N_s={int(weights.sum())})",
        ["cut", "ranks", "rows per rank", "stage-3 ms per rank",
         "max / mean time"],
        rows,
        notes="Same rows, same order, same estimator. Stage 3's work is per "
              "row (coupled keys and table lookups do not depend on how "
              "often a row was sampled), so equal rows give equal measured "
              "time; the weight cut hands the lightly sampled tail's many "
              "rows to one rank.",
    )


def _smoke_runs(prob, comp, backend_cls, n_samples: int, n_iters: int) -> dict:
    """``{n_ranks: (stats, comm_stats)}`` for 1 and 2 ranks of ``backend_cls``:
    one warm-up iteration, then ``n_iters`` recorded ones."""
    runs = {}
    for n_ranks in (1, 2):
        backend = backend_cls(n_ranks=n_ranks, nu_star_per_rank=32)
        driver = VMC(
            _wf_factory(prob)(), comp,
            VMCConfig(n_samples=n_samples, eloc_mode="sample_aware", seed=14),
            backend=backend,
        )
        driver.step()
        runs[n_ranks] = ([driver.step() for _ in range(n_iters)],
                         backend.last_comm_stats)
    return runs


def _blas_threads() -> str:
    return os.environ.get("OPENBLAS_NUM_THREADS", "unpinned")


def run_smoke(n_samples: int = 10**5, n_iters: int = 3) -> dict:
    """2-rank process-backend strong scaling, checked against thread ranks.

    Gates: at 1 and 2 ranks every recorded iteration of the process backend
    has the thread backend's N_u, energy and logical/wire comm volumes, bit
    for bit, and at 2 ranks the stage-2 samples wire volume is below its
    logical volume.  The 2-rank process efficiency is recorded, not gated.
    """
    prob = build_problem("N2", "sto-3g")
    comp = compress_hamiltonian(prob.hamiltonian)
    variants = {label: _smoke_runs(prob, comp, cls, n_samples, n_iters)
                for label, cls in (("threads", ThreadBackend),
                                   ("process", ProcessBackend))}

    def columns(stats):
        return [(s.n_unique, s.energy, s.comm_bytes, s.comm_bytes_wire)
                for s in stats]

    identical = all(
        columns(variants["threads"][n][0]) == columns(variants["process"][n][0])
        for n in (1, 2)
    )
    stage2 = variants["process"][2][1].channels["stage2_samples"]
    compressed = stage2["wire"] < stage2["logical"]
    rows, eff = [], {}
    for label, runs in variants.items():
        t1 = float(np.median([s.wall_time for s in runs[1][0]]))
        for n_ranks, (stats, _) in runs.items():
            t = float(np.median([s.wall_time for s in stats]))
            eff[label, n_ranks] = t1 / (n_ranks * t)
            s = stats[-1]
            rows.append([label, n_ranks, s.n_unique, f"{s.energy:+.8f}",
                         f"{t:.3f}", f"{s.comm_bytes / 1e6:.2f}",
                         f"{s.comm_bytes_wire / 1e6:.2f}",
                         f"{100 * eff[label, n_ranks]:.1f}%"])
    registry.record(
        "fig11_process_smoke",
        format_table(
            "Fig. 11 smoke — process backend vs. thread backend",
            ["backend", "ranks", "N_u", "energy", "t/iter (s)",
             "comm MB logical", "comm MB wire", "efficiency"],
            rows,
            notes=(
                "N2/STO-3G, fixed N_s (strong scaling); last of "
                f"{n_iters} iterations after one warm-up, t/iter the median. "
                "Gates: N_u, energy and the logical/wire comm volumes of "
                "every iteration are bit-identical to the thread backend at "
                f"1 and 2 ranks ({'PASS' if identical else 'FAIL'}); stage-2 "
                f"samples wire {stage2['wire']} B < logical "
                f"{stage2['logical']} B ({'PASS' if compressed else 'FAIL'}). "
                "2-rank process efficiency "
                f"{100 * eff['process', 2]:.1f}% (recorded, not gated), "
                f"BLAS threads per rank: {_blas_threads()}."
            ),
        ),
    )
    return {"identical": identical, "compressed": compressed,
            "eff": eff["process", 2]}


def run_cluster_smoke(n_samples: int = 10**5, n_iters: int = 2) -> dict:
    """Strong-scaling smoke over the TCP cluster transport.

    Thread-hosted SPMD ranks on a localhost mesh (real sockets, real
    rendezvous — the full multi-host path minus the physical network), gated
    on the workload columns matching the thread backend bit-for-bit at each
    rank count: same unique set, same logical and wire comm volumes.  Wall
    times are recorded for context only; thread-hosted ranks share the GIL,
    so cluster timing here measures transport overhead, not scaling.
    """
    prob = build_problem("N2", "sto-3g")
    comp = compress_hamiltonian(prob.hamiltonian)
    variants = {}
    for label, backend in (("threads", "threads"), ("cluster", "cluster")):
        variants[label] = measure_scaling(
            _wf_factory(prob), comp, [1, 2], n_samples_for=lambda n: n_samples,
            n_iters=n_iters, config=VMCConfig(eloc_mode="sample_aware", seed=14),
            nu_star_per_rank=32, backend=backend,
        )
    rows = []
    identical = True
    for label, points in variants.items():
        for p in points:
            rows.append([label, p.n_ranks, p.n_unique,
                         f"{p.time_per_iter:.3f}",
                         f"{p.comm_bytes / 1e6:.2f}",
                         f"{p.comm_bytes_wire / 1e6:.2f}"])
    for ref, got in zip(variants["threads"], variants["cluster"]):
        identical &= (ref.n_unique == got.n_unique
                      and ref.comm_bytes == got.comm_bytes
                      and ref.comm_bytes_wire == got.comm_bytes_wire)
    registry.record(
        "fig11_cluster_smoke",
        format_table(
            "Fig. 11 smoke — cluster transport vs. thread backend",
            ["backend", "ranks", "N_u", "t/iter (s)", "comm MB logical",
             "comm MB wire"],
            rows,
            notes=(
                "N2/STO-3G, fixed N_s (strong scaling). Cluster ranks are "
                "thread-hosted SPMD drivers over a localhost TCP mesh "
                "(rendezvous + framed collectives); t/iter includes the "
                "socket transport but shares the GIL, so it bounds overhead "
                "rather than measuring scaling. Gate: N_u and the "
                "logical/wire comm volumes are bit-identical to the thread "
                f"backend at every rank count ({'PASS' if identical else 'FAIL'}). "
                f"BLAS threads per rank: {_blas_threads()}."
            ),
        ),
    )
    return {"identical": identical}


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="2-rank process-backend gate (small batch)")
    parser.add_argument("--cluster", action="store_true",
                        help="2-rank cluster-transport gate (small batch)")
    parser.add_argument("--n-samples", type=int, default=None)
    args = parser.parse_args()
    small = args.smoke or args.cluster
    n_samples = args.n_samples or (10**5 if small else 2 * 10**5)
    if args.cluster:
        res = run_cluster_smoke(n_samples=n_samples)
        assert res["identical"], (
            "cluster transport diverged from the thread backend "
            "(N_u or comm volume columns differ)"
        )
        print("acceptance: cluster transport bit-identical to thread backend "
              "at 1 and 2 ranks (N_u + logical/wire comm volumes)")
    else:
        res = run_smoke(n_samples=n_samples)
        assert res["identical"], (
            "process backend diverged from the thread backend "
            "(N_u, energy or comm volume columns differ)"
        )
        assert res["compressed"], (
            "stage-2 samples wire volume is not below its logical volume"
        )
        print("acceptance: process backend bit-identical to thread backend "
              "at 1 and 2 ranks (N_u + energy + logical/wire comm volumes), "
              "stage-2 samples wire < logical; 2-rank process efficiency "
              f"{100 * res['eff']:.1f}%")
