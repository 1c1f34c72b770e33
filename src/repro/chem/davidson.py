"""Davidson–Liu iterative eigensolver for sector Hamiltonians.

The FCI matrices of this package above a few hundred determinants, and every
truncated-CI matrix, are applied as matrix-vector products (the
XOR-permutation matvec of ``repro.hamiltonian.exact.SectorOperator``), and
their diagonal is strongly dominant — exactly the regime the Davidson
algorithm with a diagonal preconditioner was designed for: it converges the
ground state of a molecular sector in a few dozen matvecs.

The implementation is a textbook block Davidson with:

* diagonal (Jacobi) preconditioning ``t = r / (diag - theta)``;
* Gram–Schmidt re-orthogonalization of new directions;
* subspace collapse (thick restart) when the basis exceeds ``max_subspace``.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = ["DavidsonResult", "davidson"]


@dataclass
class DavidsonResult:
    eigenvalues: np.ndarray   # (k,)
    eigenvectors: np.ndarray  # (dim, k)
    n_matvec: int
    n_iterations: int
    converged: bool
    residual_norms: np.ndarray


def davidson(
    matvec: Callable[[np.ndarray], np.ndarray],
    diag: np.ndarray,
    k: int = 1,
    v0: np.ndarray | None = None,
    tol: float = 1e-8,
    max_iterations: int = 200,
    max_subspace: int | None = None,
    rng: np.random.Generator | None = None,
) -> DavidsonResult:
    """Lowest ``k`` eigenpairs of a symmetric operator given by ``matvec``.

    ``diag`` is the operator diagonal (the preconditioner); ``v0`` an optional
    ``(dim, m)`` block of start vectors (m >= k).  Convergence is declared
    when every target residual norm falls below ``tol``.
    """
    dim = len(diag)
    if k > dim:
        raise ValueError(f"requested {k} eigenpairs of a dim-{dim} operator")
    rng = rng or np.random.default_rng(0)
    max_subspace = max_subspace or min(dim, max(8 * k, 24))

    # --- initial block: unit vectors on the k smallest diagonal entries
    if v0 is None:
        order = np.argsort(diag)[: max(k, 2)]
        V = np.zeros((dim, len(order)))
        V[order, np.arange(len(order))] = 1.0
    else:
        V = np.atleast_2d(np.asarray(v0, dtype=np.float64))
        if V.shape[0] != dim:
            V = V.T
    V, _ = np.linalg.qr(V)

    AV = np.column_stack([matvec(V[:, j]) for j in range(V.shape[1])])
    n_matvec = V.shape[1]
    theta = np.zeros(k)
    X = V[:, :k].copy()
    res_norms = np.full(k, np.inf)

    for iteration in range(1, max_iterations + 1):
        # Rayleigh–Ritz in the current subspace.
        G = V.T @ AV
        G = 0.5 * (G + G.T)
        evals, evecs = np.linalg.eigh(G)
        theta = evals[:k]
        Y = evecs[:, :k]
        X = V @ Y
        AX = AV @ Y
        R = AX - X * theta[None, :]
        res_norms = np.linalg.norm(R, axis=0)
        if np.all(res_norms < tol):
            return DavidsonResult(theta, X, n_matvec, iteration, True, res_norms)

        # Collapse the subspace before it grows past max_subspace.
        if V.shape[1] + k > max_subspace:
            keep = evecs[:, : min(2 * k, V.shape[1])]
            V = V @ keep
            AV = AV @ keep

        # Preconditioned new directions for unconverged targets.
        new_dirs = []
        for j in range(k):
            if res_norms[j] < tol:
                continue
            denom = diag - theta[j]
            denom = np.where(np.abs(denom) < 1e-8, 1e-8, denom)
            t = R[:, j] / denom
            # Orthogonalize twice against the subspace (classical GS x2).
            for _ in range(2):
                t -= V @ (V.T @ t)
            norm = np.linalg.norm(t)
            if norm < 1e-12:  # stagnation: inject a random direction
                t = rng.standard_normal(dim)
                t -= V @ (V.T @ t)
                norm = np.linalg.norm(t)
            t /= norm
            new_dirs.append(t)
            V = np.column_stack([V, t])
        if not new_dirs:
            break
        add = np.column_stack([matvec(t) for t in new_dirs])
        n_matvec += len(new_dirs)
        AV = np.column_stack([AV, add])

    return DavidsonResult(theta, X, n_matvec, max_iterations, False, res_norms)
