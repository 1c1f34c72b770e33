#!/usr/bin/env python3
"""Quickstart: solve H2/STO-3G with the transformer NNQS (QiankunNet).

Runs the complete pipeline of the paper in under a minute through the
declarative experiment API:
  RunSpec -> run(spec) -> report + artifact directory
and compares the variational energy against HF, CCSD and FCI.  The same
spec can be saved as JSON and driven from the CLI:
  python -m repro run --spec my_spec.json

Usage:  python examples/quickstart.py [--iters 400] [--bond-length 0.7414]
"""
import argparse
import tempfile

from repro.api import (
    AnsatzSpec,
    OptimizerSpec,
    ProblemSpec,
    RunSpec,
    SamplingSpec,
    TrainSpec,
    run,
)
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


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--iters", type=int, default=400, help="VMC iterations")
    ap.add_argument("--bond-length", type=float, default=0.7414, help="R(H-H) in Angstrom")
    args = ap.parse_args()

    print(f"== H2 / STO-3G at R = {args.bond_length} A ==")
    prob = build_problem("H2", "sto-3g", r=args.bond_length)
    print(f"{prob.n_qubits} qubits, {prob.hamiltonian.n_terms} Pauli strings")

    fci = run_fci(prob.hamiltonian).energy
    ints = compute_integrals(make_molecule("H2", r=args.bond_length), "sto-3g")
    scf = run_rhf(ints)
    ccsd = run_ccsd(to_spin_orbitals(mo_transform(ints, scf))).energy

    spec = RunSpec(
        name="quickstart-h2",
        problem=ProblemSpec(molecule="H2", basis="sto-3g",
                            geometry={"r": args.bond_length}),
        ansatz=AnsatzSpec(seed=1),
        optimizer=OptimizerSpec(warmup=200),
        sampling=SamplingSpec(ns_pretrain=10**5, ns_max=10**5),
        train=TrainSpec(max_iterations=args.iters, pretrain_steps=100,
                        early_stop=False, seed=2),
    )
    with tempfile.TemporaryDirectory() as tmp:
        result = run(spec, run_dir=f"{tmp}/run",
                     overrides={"output.log_every": max(args.iters // 8, 1)})
        wf = result.wavefunction
        print(f"QiankunNet: {wf.num_parameters()} parameters "
              f"(transformer amplitude + MLP phase)")
        e_vmc = result.report.best_energy

        print()
        print(f"  HF          {prob.e_hf:+.6f} Ha")
        print(f"  CCSD        {ccsd:+.6f} Ha")
        print(f"  QiankunNet  {e_vmc:+.6f} Ha   (error vs FCI: {e_vmc - fci:+.2e})")
        print(f"  FCI         {fci:+.6f} Ha")
        status = "REACHED" if abs(e_vmc - fci) < 1.6e-3 else "not reached"
        print(f"  chemical accuracy (1.6 mHa): {status}")
        print(f"  (snapshot published as v{result.published_version:06d}; a "
              "persistent --run-dir would be servable via python -m repro serve)")


if __name__ == "__main__":
    main()
