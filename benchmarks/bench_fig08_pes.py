"""Fig. 8: potential energy surface of BeH2 / STO-3G (14 qubits).

Reproduces both panels: (a) HF / CCSD / FCI / QiankunNet energies along the
symmetric dissociation coordinate, (b) absolute errors vs FCI.  The paper's
claim to check: QiankunNet reaches chemical accuracy (< 1.6 mHa) across the
surface while HF errors grow toward dissociation; our smaller iteration
budget relaxes the absolute level but must preserve QiankunNet << HF error.
"""
from __future__ import annotations

import numpy as np

from reporting import format_table, registry
from repro.chem import (
    build_problem,
    compute_integrals,
    make_molecule,
    mo_transform,
    run_ccsd,
    run_fci,
    run_rhf,
    to_spin_orbitals,
)
from repro.core import (
    VMC,
    NoamAdamW,
    VMCConfig,
    build_qiankunnet,
    pretrain_to_reference,
)

_ITERS = 300


def _point(r: float, iters: int):
    prob = build_problem("BeH2", "sto-3g", r=float(r))
    fci = run_fci(prob.hamiltonian).energy
    ints = compute_integrals(make_molecule("BeH2", r=float(r)), "sto-3g")
    scf = run_rhf(ints)
    ccsd = run_ccsd(to_spin_orbitals(mo_transform(ints, scf))).energy
    wf = build_qiankunnet(prob.n_qubits, prob.n_up, prob.n_dn, seed=1)
    pretrain_to_reference(wf, prob.hf_bits, n_steps=150)
    vmc = VMC(wf, prob.hamiltonian,
              VMCConfig(n_samples=10**6, eloc_mode="exact", seed=2),
              optimizer=NoamAdamW(wf, warmup=300))
    vmc.run(iters)
    e_vmc = vmc.best_energy()
    return prob.e_hf, ccsd, e_vmc, fci


def test_fig08_beh2_pes(benchmark, full):
    radii = [1.3264, 2.0] if not full else [1.0, 1.2, 1.3264, 1.6, 2.0]
    rows = []
    for r in radii:
        hf, ccsd, vmc, fci = _point(r, _ITERS if not full else 2 * _ITERS)
        rows.append([f"{r:.3f}", hf, ccsd, vmc, fci,
                     abs(hf - fci), abs(ccsd - fci), abs(vmc - fci)])
    table = format_table(
        "Fig. 8 — BeH2/STO-3G potential energy surface (14 qubits)",
        ["R (A)", "HF", "CCSD", "QiankunNet", "FCI",
         "|HF-FCI|", "|CCSD-FCI|", "|QKN-FCI|"],
        rows,
        notes=(
            f"VMC: {_ITERS} iterations per point (paper: up to 1e5; chemical "
            "accuracy = 1.6e-3 Ha). Shape: |QKN-FCI| << |HF-FCI| everywhere, "
            "HF error grows with R."
        ),
    )
    if len(rows) >= 2:  # panel (b): the error curves, as in the paper
        from ascii_plot import line_plot

        chart = line_plot(
            [float(row[0]) for row in rows],
            {"|HF-FCI|": [row[5] for row in rows],
             "|QKN-FCI|": [row[7] for row in rows]},
            width=56, height=12,
            title="Fig. 8(b) — absolute error vs FCI (log scale)",
            xlabel="R (A)", ylabel="Ha", logy=True,
        )
        table = table + "\n\n" + chart
    registry.record("fig08_beh2_pes", table)

    # Timed kernel: a single FCI solve at equilibrium (the per-point floor).
    prob = build_problem("BeH2", "sto-3g")
    benchmark(lambda: run_fci(prob.hamiltonian).energy)
