"""NNQS-Transformer (QiankunNet) reproduction — SC '23.

A from-scratch Python implementation of "NNQS-Transformer: an Efficient and
Scalable Neural Network Quantum States Approach for Ab initio Quantum
Chemistry" (Wu, Guo, Fan, Zhou, Shang), including every substrate the paper
relies on: a numpy autograd engine + transformer (PyTorch substitute), a
Gaussian-integral/HF/FCI/CCSD quantum-chemistry stack (PySCF substitute),
Jordan-Wigner + compressed Pauli Hamiltonian storage (OpenFermion
substitute), batch autoregressive sampling, the vectorized local-energy
kernel, and the data-centric parallel VMC driver.

Quickstart::

    from repro import build_problem, build_qiankunnet, VMC, VMCConfig

    prob = build_problem("H2", "sto-3g")
    wf = build_qiankunnet(prob.n_qubits, prob.n_up, prob.n_dn)
    vmc = VMC(wf, prob.hamiltonian, VMCConfig(n_samples=10**5))
    vmc.run(400, log_every=50)
    print(vmc.best_energy())
"""
from repro._lazy import lazy_exports

__version__ = "1.0.0"

_EXPORTS = {
    "RunSpec": ".api",
    "run": ".api",
    "resume": ".api",
    "serve_run": ".api",
    "build_problem": ".chem",
    "make_molecule": ".chem",
    "run_ccsd": ".chem",
    "run_fci": ".chem",
    "run_rhf": ".chem",
    "VMC": ".core",
    "NoamAdamW": ".core",
    "VMCConfig": ".core",
    "batch_autoregressive_sample": ".core",
    "build_qiankunnet": ".core",
    "local_energy": ".core",
    "pretrain_to_reference": ".core",
    "compress_hamiltonian": ".hamiltonian",
    "jordan_wigner": ".hamiltonian",
    "SerialBackend": ".parallel",
    "ThreadBackend": ".parallel",
    "ProcessBackend": ".parallel",
}

__all__ = ["api", *_EXPORTS, "__version__"]
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
