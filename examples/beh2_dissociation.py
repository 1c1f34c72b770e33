#!/usr/bin/env python3
"""BeH2 symmetric dissociation curve (the paper's Fig. 8 workload).

Scans the Be-H bond length, comparing HF / CCSD / FCI / QiankunNet at each
point — the regime where static correlation grows and HF degrades while the
NNQS tracks FCI.

Usage:  python examples/beh2_dissociation.py [--iters 250] [--points 1.0 1.33 2.0]
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
from repro.chem import (
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
    ap.add_argument("--iters", type=int, default=250)
    ap.add_argument("--points", type=float, nargs="+",
                    default=[1.0, 1.3264, 2.0])
    args = ap.parse_args()

    print("R (A)      HF            CCSD          QiankunNet    FCI          |QKN-FCI|")
    print("-" * 84)
    for r in args.points:
        prob = build_problem("BeH2", "sto-3g", r=r)
        fci = run_fci(prob.hamiltonian).energy
        ints = compute_integrals(make_molecule("BeH2", r=r), "sto-3g")
        scf = run_rhf(ints)
        ccsd = run_ccsd(to_spin_orbitals(mo_transform(ints, scf))).energy

        wf = build_qiankunnet(prob.n_qubits, prob.n_up, prob.n_dn, seed=5)
        pretrain_to_reference(wf, prob.hf_bits, n_steps=150)
        vmc = VMC(wf, prob.hamiltonian,
                  VMCConfig(n_samples=10**6, eloc_mode="exact", seed=6),
                  optimizer=NoamAdamW(wf, warmup=300))
        vmc.run(args.iters)
        e = vmc.best_energy()
        print(f"{r:6.3f}  {prob.e_hf:+.6f}  {ccsd:+.6f}  {e:+.6f}  {fci:+.6f}  "
              f"{abs(e - fci):.2e}")


if __name__ == "__main__":
    main()
