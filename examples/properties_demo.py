#!/usr/bin/env python3
"""Beyond the energy: observables, density matrices and dipole moments.

Optimizes a QiankunNet wave function for LiH/STO-3G, then measures the full
diagnostics suite with the same local-estimator machinery the paper uses for
the energy:

  * <N>, <S_z>, <S^2>, double occupancy (sampled vs exact-sector values)
  * spin-orbital occupations and the sampled 1-RDM
  * natural-orbital occupations (static-correlation fingerprint)
  * dipole moment at HF vs FCI vs NNQS level
  * fidelity |<FCI|Psi_NN>|^2

Usage:  python examples/properties_demo.py [--iters 200]
"""
import argparse

import numpy as np

from repro.chem import (
    build_problem,
    compute_dipole_integrals,
    compute_integrals,
    dipole_moment,
    make_molecule,
    natural_occupations,
    one_rdm_spin_orbital,
    run_fci,
    run_rhf,
    spatial_rdm,
)
from repro.core import (
    VMC,
    NoamAdamW,
    VMCConfig,
    ObservableSet,
    batch_autoregressive_sample,
    build_qiankunnet,
    fidelity,
    occupations,
    one_rdm_sampled,
    pretrain_to_reference,
    sector_expectation,
)
from repro.hamiltonian import s2_operator


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--iters", type=int, default=200, help="VMC iterations")
    args = ap.parse_args()

    print("== LiH / STO-3G: observables beyond the energy ==")
    prob = build_problem("LiH", "sto-3g")
    fci = run_fci(prob.hamiltonian)

    wf = build_qiankunnet(prob.n_qubits, prob.n_up, prob.n_dn, seed=7)
    pretrain_to_reference(wf, prob.hf_bits, n_steps=200)
    vmc = VMC(wf, prob.hamiltonian,
              VMCConfig(n_samples=10**5, eloc_mode="exact", seed=8),
              optimizer=NoamAdamW(wf, warmup=150))
    vmc.run(args.iters, log_every=max(args.iters // 4, 1))
    print(f"VMC energy {vmc.best_energy():+.6f} Ha  (FCI {fci.energy:+.6f})")

    rng = np.random.default_rng(9)
    batch = batch_autoregressive_sample(wf, 10**6, rng)

    print("\n-- sampled observables (vs exact value on the FCI state) --")
    obs = ObservableSet(prob.n_qubits)
    results = obs.measure(wf, batch)
    exact = {
        "N": float(prob.n_electrons),
        "Sz": 0.0,
        "S2": sector_expectation(s2_operator(prob.n_qubits), fci.ground_state, fci.basis),
        "D": None,
    }
    for name, r in results.items():
        ref = exact[name]
        ref_s = f"   (FCI: {ref:+.4f})" if ref is not None else ""
        print(f"  <{name:>2}> = {r.mean:+.4f} ± {r.std_error:.1e}{ref_s}")

    print("\n-- spin-orbital occupations <n_P> (free from the sample weights) --")
    print("  " + np.array2string(occupations(batch), precision=3, suppress_small=True))

    print("\n-- 1-RDM and natural occupations --")
    gamma_nn = one_rdm_sampled(wf, batch)
    gamma_fci = one_rdm_spin_orbital(fci.ground_state, fci.basis)
    occ_nn = natural_occupations(gamma_nn)
    occ_fci = natural_occupations(gamma_fci)
    print("  NNQS natural occ:", np.array2string(occ_nn, precision=4, suppress_small=True))
    print("  FCI  natural occ:", np.array2string(occ_fci, precision=4, suppress_small=True))

    print("\n-- dipole moment (a.u. -> Debye) --")
    mol = make_molecule("LiH")
    ints = compute_integrals(mol, "sto-3g")
    scf = run_rhf(ints)
    dip_ao = compute_dipole_integrals(mol, "sto-3g")
    n_orb = prob.n_qubits // 2
    d_hf = np.zeros((n_orb, n_orb))
    for i in range(prob.n_electrons // 2):
        d_hf[i, i] = 2.0
    for label, dm in (("HF", d_hf), ("NNQS", spatial_rdm(gamma_nn)),
                      ("FCI", spatial_rdm(gamma_fci))):
        res = dipole_moment(mol, dip_ao, scf.mo_coeff, dm)
        print(f"  {label:>4}: |mu| = {res.magnitude:.4f} a.u. = {res.magnitude_debye:.3f} D")

    f = fidelity(wf, fci.ground_state, fci.basis)
    print(f"\n-- fidelity |<FCI|Psi_NN>|^2 = {f:.4f} --")


if __name__ == "__main__":
    main()
