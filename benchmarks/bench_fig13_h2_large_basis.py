"""Fig. 13: H2 potential energy surface in large basis sets.

cc-pVTZ (56 qubits) by default; aug-cc-pVTZ (92 qubits) in full mode — the
same basis sets and system as the paper, with *real* integrals (our
McMurchie-Davidson engine handles the d shells).  The FCI column is exact
(784 / 2116 determinant sectors); the QiankunNet column runs a reduced
iteration budget and reports its gap.  Shape: FCI(cc-pVTZ) ~ -1.1723 Ha at
equilibrium (vs -1.1373 in STO-3G) approaching the CBS limit, with VMC
tracking FCI from above.
"""
from __future__ import annotations

import numpy as np

from reporting import format_table, registry
from repro.chem import build_problem, run_fci
from repro.core import (
    VMC,
    NoamAdamW,
    VMCConfig,
    build_qiankunnet,
    pretrain_to_reference,
)

_ITERS = 12


def _point(basis: str, r: float, iters: int, seed: int = 31):
    prob = build_problem("H2", basis, r=float(r))
    fci = run_fci(prob.hamiltonian).energy
    wf = build_qiankunnet(prob.n_qubits, prob.n_up, prob.n_dn, seed=seed)
    pretrain_to_reference(wf, prob.hf_bits, n_steps=100)
    vmc = VMC(wf, prob.hamiltonian,
              VMCConfig(n_samples=10**6, eloc_mode="exact", seed=seed + 1),
              optimizer=NoamAdamW(wf, warmup=100))
    vmc.run(iters)
    return prob, prob.e_hf, vmc.best_energy(10), fci


def test_fig13_h2_large_basis(benchmark, full):
    cases = [("cc-pvtz", [0.7414])]
    if full:
        cases = [("cc-pvtz", [0.5, 0.7414, 1.2, 2.0]),
                 ("aug-cc-pvtz", [0.7414])]
    rows = []
    for basis, radii in cases:
        for r in radii:
            prob, hf, vmc, fci = _point(basis, r, _ITERS)
            rows.append([basis, prob.n_qubits, f"{r:.3f}", hf, vmc, fci,
                         abs(hf - fci), abs(vmc - fci)])
    registry.record(
        "fig13_h2_large_basis",
        format_table(
            "Fig. 13 — H2 in large basis sets (real integrals, 56/92 qubits)",
            ["basis", "N", "R (A)", "HF", "QiankunNet", "FCI",
             "|HF-FCI|", "|QKN-FCI|"],
            rows,
            notes=(
                f"VMC: {_ITERS} iterations (paper: chemical accuracy with 1e5). "
                "Anchors: FCI(cc-pVTZ, 0.7414 A) = -1.17234 Ha; the basis-set "
                "lowering vs STO-3G (-1.1373) reproduces the approach to the "
                "complete-basis-set dissociation curve."
            ),
        ),
    )

    prob = build_problem("H2", "cc-pvtz", r=0.7414)
    wf = build_qiankunnet(prob.n_qubits, prob.n_up, prob.n_dn, seed=33)
    rng = np.random.default_rng(0)
    from repro.core import batch_autoregressive_sample

    benchmark(batch_autoregressive_sample, wf, 10**6, rng)
