"""Fig. 9: memory reduction of the compressed Hamiltonian data structure.

For each molecule: N_h^org (Pauli strings, the Ref. [27] Fig. 6(b) layout),
N_h^opt (unique XY masks after Algorithm 1), and the byte-level memory
reduction.  The paper reports "generally more than 40%" across LiH ... C3H6.

The timed kernel is Algorithm 1 itself (the compression pass) on N2.
"""
from __future__ import annotations

from reporting import format_table, registry
from repro.chem import build_problem
from repro.hamiltonian import build_reference, compress_hamiltonian


def test_fig09_memory_reduction(benchmark, full):
    molecules = ["LiH", "H2O", "C2", "N2", "NH3"] + (["Li2O", "C2H4O"] if full else [])
    rows = []
    for name in molecules:
        prob = build_problem(name, "sto-3g")
        h = prob.hamiltonian
        ref = build_reference(h)
        comp = compress_hamiltonian(h)
        reduction = 100.0 * (1.0 - comp.memory_bytes() / ref.memory_bytes())
        rows.append(
            [name, h.n_qubits, h.n_terms, comp.n_groups,
             ref.memory_bytes(), comp.memory_bytes(), f"{reduction:.1f}%"]
        )
    registry.record(
        "fig09_memory_reduction",
        format_table(
            "Fig. 9 — Hamiltonian memory: Fig. 6(b) reference vs Fig. 6(c) compressed",
            ["Molecule", "N", "N_h^org", "N_h^opt", "ref bytes", "comp bytes",
             "reduction"],
            rows,
            notes="Paper shape: reduction generally > 40% (driven by N_h^opt << N_h^org).",
        ),
    )

    prob = build_problem("N2", "sto-3g")
    benchmark(compress_hamiltonian, prob.hamiltonian)
