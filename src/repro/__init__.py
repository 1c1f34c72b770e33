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
from repro.chem import build_problem, make_molecule, run_ccsd, run_fci, run_rhf
from repro import api
from repro.api import RunSpec, run, resume, serve_run
from repro.core import (
    VMC,
    NoamAdamW,
    VMCConfig,
    batch_autoregressive_sample,
    build_qiankunnet,
    local_energy,
    pretrain_to_reference,
)
from repro.hamiltonian import compress_hamiltonian, jordan_wigner
from repro.parallel import (
    ProcessBackend,
    SerialBackend,
    ThreadBackend,
)

__version__ = "1.0.0"

__all__ = [
    "api",
    "RunSpec",
    "run",
    "resume",
    "serve_run",
    "build_problem",
    "make_molecule",
    "run_ccsd",
    "run_fci",
    "run_rhf",
    "VMC",
    "NoamAdamW",
    "VMCConfig",
    "batch_autoregressive_sample",
    "build_qiankunnet",
    "local_energy",
    "pretrain_to_reference",
    "compress_hamiltonian",
    "jordan_wigner",
    "SerialBackend",
    "ThreadBackend",
    "ProcessBackend",
    "__version__",
]
