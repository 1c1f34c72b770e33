"""Fig. 12: weak scaling — constant unique-sample load per rank.

The paper fixes ~2.04e4 unique samples per GPU by setting N_s = 5n x 1e4 for
n GPUs; we scale N_s proportionally to the rank count on N2/STO-3G and report
the same per-stage timing decomposition plus the calibrated-model
extrapolation.  Shape: time per iteration ~flat, efficiency decaying slowly
(paper: 93.4% @32, 84.3% @64).

Measurements run on the unified execution engine's ``ProcessBackend``
(``measure_scaling`` drives ``repro.core.vmc.VMC`` + the staged pipeline of
``repro.core.engine`` on fork ranks — what ``parallel.backend=process``
runs), in a child interpreter with one BLAS thread per rank
(``bench_fig11_strong_scaling.pinned_points``).
"""
from __future__ import annotations

import os

from bench_fig11_strong_scaling import MEASURED_ITERS, measured_ranks, pinned_points
from reporting import format_table, registry
from repro.chem import build_problem
from repro.core import VMCConfig, build_qiankunnet, pretrain_to_reference
from repro.hamiltonian import compress_hamiltonian
from scaling import ScalingPoint, measure_scaling, model_scaling, parallel_efficiency

_NS_PER_RANK = 100_000


def _factory(prob):
    def make():
        wf = build_qiankunnet(prob.n_qubits, prob.n_up, prob.n_dn, seed=23)
        pretrain_to_reference(wf, prob.hf_bits, n_steps=60, target_prob=0.2)
        return wf
    return make


def measure_points(full: bool) -> list[ScalingPoint]:
    prob = build_problem("N2", "sto-3g")
    return measure_scaling(
        _factory(prob), compress_hamiltonian(prob.hamiltonian),
        measured_ranks(full), n_samples_for=lambda n: _NS_PER_RANK * n,
        n_iters=MEASURED_ITERS, config=VMCConfig(eloc_mode="sample_aware", seed=24),
        nu_star_per_rank=32,
    )


def test_fig12_weak_scaling(benchmark, full):
    prob = build_problem("N2", "sto-3g")
    factory = _factory(prob)
    points, blas_threads = pinned_points(__file__, full)
    eff = parallel_efficiency(points, mode="weak")
    rows = [
        [p.n_ranks, p.n_samples, p.n_unique, f"{p.time_per_iter:.3f}",
         f"{p.time_per_iter_iqr:.3f}", f"{p.time_sampling:.3f}",
         f"{p.time_local_energy:.3f}", f"{p.time_gradient:.3f}",
         f"{100 * e:.1f}%"]
        for p, e in zip(points, eff)
    ]
    wf0 = factory()
    model = model_scaling(points[0], [2, 4, 8, 16, 32, 64], prob.n_qubits,
                          wf0.num_parameters(), mode="weak")
    eff_m = parallel_efficiency([points[0]] + model, mode="weak")[1:]
    for p, e in zip(model, eff_m):
        rows.append([f"{p.n_ranks}*", p.n_samples, p.n_unique,
                     f"{p.time_per_iter:.3f}", "-", f"{p.time_sampling:.3f}",
                     f"{p.time_local_energy:.3f}", f"{p.time_gradient:.3f}",
                     f"{100 * e:.1f}%"])
    # Paper-scale model (benzene/6-31G, ~2.04e4 unique samples per GPU).
    paper_base = ScalingPoint(
        n_ranks=4, n_samples=200_000, time_per_iter=33.0,
        time_sampling=13.0, time_local_energy=13.0, time_gradient=7.0,
        n_unique=81_600, comm_bytes=0,
    )
    paper_model = model_scaling(paper_base, [8, 16, 32, 64], 120, 270_000,
                                mode="weak")
    eff_p = parallel_efficiency([paper_base] + paper_model, mode="weak")[1:]
    paper_ref = {8: 96.9, 16: 96.3, 32: 93.4, 64: 84.3}
    for p, e in zip(paper_model, eff_p):
        rows.append([f"{p.n_ranks}^", p.n_samples, p.n_unique,
                     f"{p.time_per_iter:.1f}", "-", f"{p.time_sampling:.1f}",
                     f"{p.time_local_energy:.1f}", f"{p.time_gradient:.1f}",
                     f"{100 * e:.1f}% (paper {paper_ref[p.n_ranks]}%)"])
    table = format_table(
        "Fig. 12 — Weak scaling (N_s proportional to ranks), measured + model (*)",
        ["ranks", "N_s", "N_u", "t/iter (s)", "IQR (s)", "t_sample", "t_eloc",
         "t_grad", "efficiency"],
        rows,
        notes=(
            f"Measured: process ranks on this host, up to its {os.cpu_count()} "
            f"cores, {blas_threads} BLAS thread(s) per rank; medians of "
            f"{MEASURED_ITERS} iterations after a warm-up, IQR their spread. "
            "Paper: 96.9% @8 ... 84.3% @64 on benzene/6-31G. * = "
            "calibrated model on the measured base (2* sits beside the "
            "measured 2); ^ = model at the paper's workload "
            "scale (DESIGN.md substitution)."
        ),
    )
    from ascii_plot import line_plot

    chart = line_plot(
        [4, 8, 16, 32, 64],
        {"model (paper scale)": [100.0] + [100 * e for e in eff_p],
         "paper": [100.0, 96.9, 96.3, 93.4, 84.3]},
        width=56, height=12,
        title="Fig. 12 — weak-scaling parallel efficiency vs ranks",
        xlabel="ranks", ylabel="%",
    )
    registry.record("fig12_weak_scaling", table + "\n\n" + chart)
    benchmark(lambda: factory().num_parameters())
