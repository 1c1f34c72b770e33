#!/usr/bin/env python3
"""H2 in the cc-pVTZ basis — the paper's 56-qubit Fig. 13 workload.

Builds the real cc-pVTZ Hamiltonian (our McMurchie-Davidson engine handles
the d shells), solves FCI exactly in the 784-determinant sector, and runs a
short VMC to show the NNQS machinery operating at 56 qubits.  With
--basis aug-cc-pvtz the 92-qubit system of Fig. 13(c,d) is built instead.

Usage:  python examples/h2_large_basis.py [--iters 40] [--basis cc-pvtz]
"""
import argparse

from repro import (
    VMC,
    NoamAdamW,
    VMCConfig,
    build_problem,
    build_qiankunnet,
    pretrain_to_reference,
)
from repro.chem import run_fci


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--iters", type=int, default=40)
    ap.add_argument("--basis", default="cc-pvtz",
                    choices=["sto-3g", "6-31g", "cc-pvtz", "aug-cc-pvtz"],
                    help="sto-3g/6-31g are fast smoke-test settings; "
                         "cc-pvtz (56 qubits) and aug-cc-pvtz (92) are the "
                         "Fig. 13 workloads")
    ap.add_argument("--bond-length", type=float, default=0.7414)
    args = ap.parse_args()

    print(f"Building H2/{args.basis} Hamiltonian (cached after first run)...")
    prob = build_problem("H2", args.basis, r=args.bond_length)
    print(f"  {prob.n_qubits} qubits, {prob.hamiltonian.n_terms} Pauli strings")
    print(f"  HF  = {prob.e_hf:+.6f} Ha")

    fci = run_fci(prob.hamiltonian)
    print(f"  FCI = {fci.energy:+.6f} Ha  (sector dimension {fci.dim})")
    print("  [literature: cc-pVTZ FCI at 0.7414 A is about -1.17234 Ha]")

    wf = build_qiankunnet(prob.n_qubits, prob.n_up, prob.n_dn, seed=31)
    pretrain_to_reference(wf, prob.hf_bits, n_steps=100)
    vmc = VMC(wf, prob.hamiltonian,
              VMCConfig(n_samples=10**6, eloc_mode="exact", seed=32),
              optimizer=NoamAdamW(wf, warmup=100))
    vmc.run(args.iters, log_every=10)
    e = vmc.best_energy(10)
    print(f"  QiankunNet after {args.iters} iterations: {e:+.6f} Ha "
          f"(gap to FCI {e - fci.energy:+.2e}; the paper's 1e5-iteration "
          "budget closes this to chemical accuracy)")


if __name__ == "__main__":
    main()
