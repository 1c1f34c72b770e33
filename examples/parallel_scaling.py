#!/usr/bin/env python3
"""Data-centric parallel VMC (Fig. 4): engine backends, timings, comm volume.

Runs the unified execution engine's staged iteration on thread ranks and
prints, per rank count: wall time, the sampling / local-energy / gradient
stage decomposition (the Fig. 11 profile), measured communication bytes, and
the closed-form Sec. 3.2 volume for comparison (``CommVolumeModel`` of
``benchmarks/scaling.py``, loaded by path).

The same iteration on forked process ranks is one spec away from the CLI
front door:

    python -m repro run --preset smoke \
        --set parallel.backend=process --set parallel.n_ranks=4

which additionally gets checkpoint/resume, metrics.jsonl and model
publishing from the run driver.

Usage:  python examples/parallel_scaling.py [--molecule N2] [--ranks 1 2 4]
"""
import argparse
import importlib.util
import sys
from pathlib import Path

from repro import build_problem, build_qiankunnet
from repro.core import VMC, VMCConfig, pretrain_to_reference
from repro.hamiltonian import compress_hamiltonian
from repro.parallel import ThreadBackend


def load_scaling():
    path = Path(__file__).resolve().parent.parent / "benchmarks" / "scaling.py"
    spec = importlib.util.spec_from_file_location("scaling", path)
    scaling = sys.modules["scaling"] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(scaling)
    return scaling


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--molecule", default="N2")
    ap.add_argument("--ranks", type=int, nargs="+", default=[1, 2, 4])
    ap.add_argument("--samples", type=int, default=200_000)
    ap.add_argument("--iters", type=int, default=3)
    args = ap.parse_args()
    scaling = load_scaling()

    prob = build_problem(args.molecule, "sto-3g")
    comp = compress_hamiltonian(prob.hamiltonian)
    print(f"{args.molecule}: {prob.n_qubits} qubits, "
          f"{prob.hamiltonian.n_terms} Pauli strings "
          f"({comp.n_groups} unique flip masks)")
    print()
    print("ranks  t/iter(s)  t_sample  t_eloc  t_grad  N_u     comm(MB)  model(MB)")
    print("-" * 76)
    for n_ranks in args.ranks:
        wf = build_qiankunnet(prob.n_qubits, prob.n_up, prob.n_dn, seed=13)
        pretrain_to_reference(wf, prob.hf_bits, n_steps=60, target_prob=0.2)
        driver = VMC(
            wf, comp,
            VMCConfig(n_samples=args.samples, eloc_mode="sample_aware",
                      seed=14),
            backend=ThreadBackend(n_ranks=n_ranks, nu_star_per_rank=32),
        )
        driver.step()  # warmup
        stats = [driver.step() for _ in range(args.iters)]
        s = stats[-1]
        model = scaling.CommVolumeModel(prob.n_qubits, s.n_unique, n_ranks,
                                        wf.num_parameters())
        wall = sum(x.wall_time for x in stats) / len(stats)
        print(f"{n_ranks:5d}  {wall:9.3f}  {s.time_sampling:8.3f}  "
              f"{s.time_local_energy:6.3f}  {s.time_gradient:6.3f}  "
              f"{s.n_unique:6d}  {s.comm_bytes / 1e6:8.1f}  "
              f"{model.total_bytes / 1e6:9.1f}")
    print()
    print("Paper's Sec. 3.2 example (C2, N_u=2.7e4, N_p=64, M=2.7e5):")
    example = scaling.CommVolumeModel(20, 27_000, 64, 270_000)
    print(f"  model total = {example.total_bytes / 1e6:.1f} MB "
          f"(paper quotes 'about 173 MB')")


if __name__ == "__main__":
    main()
