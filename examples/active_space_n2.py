#!/usr/bin/env python3
"""Active-space NNQS: the N2 triple bond in a CAS(6,6) window.

Large molecules are routinely attacked by correlating only the chemically
active orbitals: core orbitals are frozen into an effective one-body
operator and high virtuals dropped (``problem.n_frozen`` / ``n_active``).
For N2/STO-3G the 2x1s cores are frozen and six orbitals around the Fermi
level kept — a CAS(6 electrons, 6 orbitals) = 12-qubit problem capturing
the triple-bond static correlation.

The script compares HF / CASCI (exact in the window) / QiankunNet trained
with the Sec. 4.1 protocol, at two bond lengths (equilibrium and stretched,
where static correlation grows).  Each point is one declarative
:class:`~repro.api.RunSpec` — ``output.reference="fci"`` makes the driver
compute the in-window CASCI energy and report the error against it.

Usage:  python examples/active_space_n2.py [--iters 300] [--bond-lengths 1.0977 1.6]
"""
import argparse
import tempfile

from repro.api import (
    AnsatzSpec,
    OptimizerSpec,
    OutputSpec,
    ProblemSpec,
    RunSpec,
    SamplingSpec,
    TrainSpec,
    run,
)
from repro.chem import build_problem, run_fci


def run_point(r: float, iters: int) -> None:
    prob = build_problem("N2", "sto-3g", n_frozen=2, n_active=6, r=r)
    casci = run_fci(prob.hamiltonian)
    print(f"\n== N2 @ {r:.4f} A — CAS({prob.n_electrons}e, {prob.n_qubits // 2}o), "
          f"{prob.n_qubits} qubits, {prob.hamiltonian.n_terms} Pauli strings ==")
    print(f"  HF     {prob.e_hf:+.6f} Ha")
    print(f"  CASCI  {casci.energy:+.6f} Ha   "
          f"(window correlation {casci.energy - prob.e_hf:+.4f})")

    spec = RunSpec(
        name=f"n2-cas66-r{r:.4f}",
        problem=ProblemSpec(molecule="N2", basis="sto-3g", n_frozen=2,
                            n_active=6, geometry={"r": r}),
        ansatz=AnsatzSpec(seed=21),
        optimizer=OptimizerSpec(warmup=200),
        sampling=SamplingSpec(ns_growth=1.05, ns_max=10**7, pretrain_iters=50),
        train=TrainSpec(max_iterations=iters, pretrain_steps=150,
                        plateau_window=50, seed=22),
        output=OutputSpec(reference="fci"),
    )
    with tempfile.TemporaryDirectory() as tmp:
        result = run(spec, run_dir=f"{tmp}/run")
    print("  QiankunNet (run(spec)):")
    for line in result.report.summary().splitlines():
        print("    " + line)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--iters", type=int, default=300)
    ap.add_argument("--bond-lengths", type=float, nargs="+",
                    default=[1.0977, 1.6])
    args = ap.parse_args()
    for r in args.bond_lengths:
        run_point(r, args.iters)
    print("\nStretched N2 is the static-correlation stress test: the HF gap "
          "grows while CASCI stays exact in the window — the regime the "
          "paper targets NNQS at (Sec. 1, 'CC could fail in presence of "
          "strong static correlations').")


if __name__ == "__main__":
    main()
