#!/usr/bin/env python3
"""Compare amplitude ansatze: transformer (QiankunNet) vs MADE vs NAQS-MLP.

The transformer is the one ansatz under ``src/``; MADE and the NAQS-style MLP
are the Table 1 foils of ``benchmarks/baseline_ansatze.py``, loaded by path,
which plug into the same VMC / BAS / local-energy stack by answering the
amplitude protocol (``make_session``, the ``prefix_forward`` /
``prefix_vjp`` pair, ``d_model``).  All three are wired by hand the same way
— ``build_qiankunnet`` or ``build_baseline``, then ``VMC``, then ``Trainer``
— so the rows differ in the network alone, distilling the paper's Table 1
'NAQS vs MADE vs QiankunNet' columns into one run on LiH.

Usage:  python examples/ansatz_comparison.py [--molecule LiH] [--iters 200]
"""
import argparse
import importlib.util
import sys
from pathlib import Path

from repro.chem import build_problem, run_fci
from repro.core import (
    VMC,
    NoamAdamW,
    TrainConfig,
    Trainer,
    VMCConfig,
    build_qiankunnet,
    default_ns_schedule,
)


def load_baselines():
    path = Path(__file__).resolve().parent.parent / "benchmarks" / "baseline_ansatze.py"
    spec = importlib.util.spec_from_file_location("baseline_ansatze", path)
    baselines = sys.modules["baseline_ansatze"] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(baselines)
    return baselines


def train(wf, prob, iters: int):
    """The Sec. 4.1 protocol on ``wf``: warm start, then ``iters`` VMC
    iterations at a flat 10^5 samples; returns the best energy."""
    vmc = VMC(wf, prob.hamiltonian,
              VMCConfig(n_samples=default_ns_schedule(ns_max=10**5), seed=8),
              optimizer=NoamAdamW(wf, warmup=200))
    trainer = Trainer(vmc, TrainConfig(max_iterations=iters, pretrain_steps=150,
                                       early_stop=False),
                      hf_bits=prob.hf_bits)
    return trainer.train().best_energy


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--molecule", default="LiH")
    ap.add_argument("--iters", type=int, default=200)
    args = ap.parse_args()
    baselines = load_baselines()

    prob = build_problem(args.molecule, "sto-3g")
    fci = run_fci(prob.hamiltonian).energy
    print(f"{args.molecule}: {prob.n_qubits} qubits, FCI = {fci:+.6f} Ha, "
          f"HF = {prob.e_hf:+.6f} Ha")
    print()
    print("ansatz       params   energy (Ha)    |E - FCI|")
    print("-" * 52)
    for kind in ("transformer", *baselines.BASELINES):    # + "made", "naqs-mlp"
        if kind == "transformer":
            wf = build_qiankunnet(prob.n_qubits, prob.n_up, prob.n_dn, seed=7)
        else:
            wf = baselines.build_baseline(baselines.BASELINES[kind], prob.n_qubits,
                                          prob.n_up, prob.n_dn, seed=7)
        e = train(wf, prob, args.iters)
        print(f"{kind:<12} {wf.num_parameters():6d}   {e:+.6f}   {abs(e - fci):.2e}")


if __name__ == "__main__":
    main()
