"""Table 1: ground-state energies of small molecules (HF / CCSD / MADE /
QiankunNet / FCI) with mean absolute errors vs FCI.

Default: H2O (and N2 in full mode, plus O2/H2S — the paper's larger Table 1
systems LiCl/Li2O have FCI sector dimensions beyond this host's budget and
are reported n/a).  VMC runs a small iteration budget (recorded in the table
notes); the paper's 1e5-iteration budget would tighten the NNQS rows further.

The timed kernel is one full VMC iteration on H2O — the unit of work whose
scaling the paper studies.
"""
from __future__ import annotations

import numpy as np
import pytest
from baseline_ansatze import MADEAmplitude, build_baseline

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

_VMC_ITERS = 200
_MADE_ITERS = 120


def _ccsd_energy(name: str) -> float:
    ints = compute_integrals(make_molecule(name), "sto-3g")
    scf = run_rhf(ints)
    return run_ccsd(to_spin_orbitals(mo_transform(ints, scf))).energy


def _vmc_energy(prob, wf, iters: int, seed: int) -> float:
    pretrain_to_reference(wf, prob.hf_bits, n_steps=150)
    vmc = VMC(
        wf,
        prob.hamiltonian,
        VMCConfig(n_samples=10**6, eloc_mode="exact", seed=seed + 1),
        optimizer=NoamAdamW(wf, warmup=300),
    )
    vmc.run(iters)
    return vmc.best_energy()


def test_table1_energies(benchmark, full):
    molecules = ["H2O"] + (["N2", "O2", "H2S"] if full else [])
    rows = []
    abs_err = {"CCSD": [], "MADE": [], "QiankunNet": []}
    for name in molecules:
        prob = build_problem(name, "sto-3g")
        fci = run_fci(prob.hamiltonian).energy
        ccsd = _ccsd_energy(name)
        sector = (prob.n_qubits, prob.n_up, prob.n_dn)
        e_made = _vmc_energy(prob, build_baseline(MADEAmplitude, *sector, seed=11),
                             _MADE_ITERS, seed=11)
        e_qkn = _vmc_energy(prob, build_qiankunnet(*sector, seed=21),
                            _VMC_ITERS, seed=21)
        rows.append(
            [name, prob.n_qubits, prob.n_electrons, prob.hamiltonian.n_terms,
             prob.e_hf, ccsd, e_made, e_qkn, fci]
        )
        abs_err["CCSD"].append(abs(ccsd - fci))
        abs_err["MADE"].append(abs(e_made - fci))
        abs_err["QiankunNet"].append(abs(e_qkn - fci))
    mae = ["MAE (Ha)", "", "", "", "",
           float(np.mean(abs_err["CCSD"])), float(np.mean(abs_err["MADE"])),
           float(np.mean(abs_err["QiankunNet"])), ""]
    rows.append(mae)
    registry.record(
        "table1_ground_state_energies",
        format_table(
            "Table 1 — Ground-state energies (Hartree)",
            ["Molecule", "N", "N_e", "N_h", "HF", "CCSD", "MADE", "QiankunNet", "FCI"],
            rows,
            notes=(
                f"VMC budget: {_VMC_ITERS} iterations, N_s = 1e6, exact E_loc "
                "(paper: 1e5 iterations, N_s up to 1e12). Paper shape to check: "
                "QiankunNet MAE < CCSD MAE and ~ NAQS-level; MADE less accurate "
                "than QiankunNet."
            ),
        ),
    )

    # Timed kernel: one VMC iteration on H2O with a warm wavefunction.
    prob = build_problem("H2O", "sto-3g")
    wf = build_qiankunnet(prob.n_qubits, prob.n_up, prob.n_dn, seed=3)
    pretrain_to_reference(wf, prob.hf_bits, n_steps=50)
    vmc = VMC(wf, prob.hamiltonian,
              VMCConfig(n_samples=10**5, eloc_mode="exact", seed=4))
    vmc.step()
    benchmark(vmc.step)
