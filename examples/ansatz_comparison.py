#!/usr/bin/env python3
"""Compare amplitude ansatze: transformer (QiankunNet) vs MADE vs NAQS-MLP.

The ``register_ansatz`` demonstration.  ``transformer`` is the one built-in;
MADE and the NAQS-style MLP are *user* networks here — the Table 1 foils of
``benchmarks/baseline_ansatze.py``, loaded by path — which plug into the same
VMC / BAS / local-energy stack by answering the amplitude protocol
(``make_session``, the ``prefix_forward`` / ``prefix_vjp`` pair, ``d_model``)
and registering a builder under a name.  The comparison is then a loop over
specs that differ in a single string, distilling the paper's Table 1 'NAQS
vs MADE vs QiankunNet' columns into one run on LiH.  A foil records no rebuild spec, so nothing is
published (``output.publish = False``; the run is refused up front otherwise).

Usage:  python examples/ansatz_comparison.py [--molecule LiH] [--iters 200]
"""
import argparse
import functools
import importlib.util
import sys
import tempfile
from pathlib import Path

from repro.api import AnsatzSpec, ProblemSpec, RunSpec, register_ansatz, run
from repro.chem import build_problem, run_fci


def register_baselines() -> None:
    path = Path(__file__).resolve().parent.parent / "benchmarks" / "baseline_ansatze.py"
    spec = importlib.util.spec_from_file_location("baseline_ansatze", path)
    baselines = sys.modules["baseline_ansatze"] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(baselines)
    # A builder is ``(n_qubits, n_up, n_dn, *, seed, <ansatz-section fields it
    # declares by name>) -> NNQSWavefunction``; build_baseline declares
    # phase_hidden and constrain.
    for name, foil in baselines.BASELINES.items():      # "made", "naqs-mlp"
        register_ansatz(name, functools.partial(baselines.build_baseline, foil))


def main() -> None:
    register_baselines()
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--molecule", default="LiH")
    ap.add_argument("--iters", type=int, default=200)
    args = ap.parse_args()

    prob = build_problem(args.molecule, "sto-3g")
    fci = run_fci(prob.hamiltonian).energy
    print(f"{args.molecule}: {prob.n_qubits} qubits, FCI = {fci:+.6f} Ha, "
          f"HF = {prob.e_hf:+.6f} Ha")
    print()
    print("ansatz       params   energy (Ha)    |E - FCI|")
    print("-" * 52)
    for kind in ("transformer", "made", "naqs-mlp"):
        spec = RunSpec(
            name=f"ansatz-{kind}",
            problem=ProblemSpec(molecule=args.molecule, basis="sto-3g"),
            ansatz=AnsatzSpec(name=kind, seed=7),
        ).with_overrides({
            "optimizer.warmup": 200,
            "sampling.ns_max": 10**5,
            "train.max_iterations": args.iters,
            "train.pretrain_steps": 150,
            "train.early_stop": False,
            "train.seed": 8,
            "output.publish": False,
        })
        with tempfile.TemporaryDirectory() as tmp:
            result = run(spec, run_dir=f"{tmp}/run")
        e = result.report.best_energy
        n_params = result.wavefunction.num_parameters()
        print(f"{kind:<12} {n_params:6d}   {e:+.6f}   {abs(e - fci):.2e}")


if __name__ == "__main__":
    main()
