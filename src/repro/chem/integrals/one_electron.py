"""One-electron integrals: overlap S, kinetic T, nuclear attraction V.

All matrices are returned in the *cartesian* AO basis with each component
individually normalized; the driver applies the spherical transform.
"""
from __future__ import annotations

import numpy as np

from repro.chem.basis.shells import BasisSet, Shell, cartesian_components
from repro.chem.integrals.hermite import e_coefficients, hermite_coulomb_batch

__all__ = ["overlap", "kinetic", "nuclear_attraction", "dipole"]


def _pair_e_tables(sha: Shell, shb: Shell, extra_b: int = 0):
    """E tables for every primitive pair: list over (ia, ib) of 3 tables.

    ``extra_b`` raises the b-side angular momentum (needed by the kinetic
    integral, which differentiates the right Gaussian twice).
    """
    ab = sha.center - shb.center
    tables = {}
    for ia, a in enumerate(sha.exps):
        for ib, b in enumerate(shb.exps):
            tables[ia, ib] = [
                e_coefficients(sha.l, shb.l + extra_b, a, b, ab[d]) for d in range(3)
            ]
    return tables


def _overlap_1d(E: np.ndarray, i: int, j: int, p: float) -> float:
    return E[i, j, 0] * np.sqrt(np.pi / p)


def overlap(basis: BasisSet) -> np.ndarray:
    n = basis.n_cart_ao
    S = np.zeros((n, n))
    slices = basis.shell_slices_cart()
    for A, sha in enumerate(basis.shells):
        compsA = cartesian_components(sha.l)
        normA = sha.component_norms()
        for B in range(A + 1):
            shb = basis.shells[B]
            compsB = cartesian_components(shb.l)
            normB = shb.component_norms()
            E = _pair_e_tables(sha, shb)
            block = np.zeros((sha.n_cart, shb.n_cart))
            for ia, a in enumerate(sha.exps):
                ca = sha.norm_coefs[ia]
                for ib, b in enumerate(shb.exps):
                    cb = shb.norm_coefs[ib]
                    p = a + b
                    Ex, Ey, Ez = E[ia, ib]
                    pref = ca * cb * (np.pi / p) ** 1.5
                    for qa, (l1, m1, n1) in enumerate(compsA):
                        for qb, (l2, m2, n2) in enumerate(compsB):
                            block[qa, qb] += pref * Ex[l1, l2, 0] * Ey[m1, m2, 0] * Ez[n1, n2, 0]
            block *= normA[:, None] * normB[None, :]
            S[slices[A], slices[B]] = block
            S[slices[B], slices[A]] = block.T
    return S


def kinetic(basis: BasisSet) -> np.ndarray:
    r"""T_{ab} = -1/2 <a|\nabla^2|b>, via the 1D relation

      T_{ij} = -2 b^2 S_{i,j+2} + b (2j+1) S_{ij} - j(j-1)/2 S_{i,j-2}.
    """
    n = basis.n_cart_ao
    T = np.zeros((n, n))
    slices = basis.shell_slices_cart()
    for A, sha in enumerate(basis.shells):
        compsA = cartesian_components(sha.l)
        normA = sha.component_norms()
        for B in range(A + 1):
            shb = basis.shells[B]
            compsB = cartesian_components(shb.l)
            normB = shb.component_norms()
            E = _pair_e_tables(sha, shb, extra_b=2)
            block = np.zeros((sha.n_cart, shb.n_cart))
            for ia, a in enumerate(sha.exps):
                ca = sha.norm_coefs[ia]
                for ib, b in enumerate(shb.exps):
                    cb = shb.norm_coefs[ib]
                    p = a + b
                    tabs = E[ia, ib]
                    root = np.sqrt(np.pi / p)

                    def s1d(dim, i, j):
                        return tabs[dim][i, j, 0] * root if j >= 0 else 0.0

                    def t1d(dim, i, j):
                        val = -2.0 * b * b * s1d(dim, i, j + 2)
                        val += b * (2 * j + 1) * s1d(dim, i, j)
                        if j >= 2:
                            val -= 0.5 * j * (j - 1) * s1d(dim, i, j - 2)
                        return val

                    for qa, (l1, m1, n1) in enumerate(compsA):
                        for qb, (l2, m2, n2) in enumerate(compsB):
                            val = (
                                t1d(0, l1, l2) * s1d(1, m1, m2) * s1d(2, n1, n2)
                                + s1d(0, l1, l2) * t1d(1, m1, m2) * s1d(2, n1, n2)
                                + s1d(0, l1, l2) * s1d(1, m1, m2) * t1d(2, n1, n2)
                            )
                            block[qa, qb] += ca * cb * val
            block *= normA[:, None] * normB[None, :]
            T[slices[A], slices[B]] = block
            T[slices[B], slices[A]] = block.T
    return T


def dipole(basis: BasisSet, origin=None) -> np.ndarray:
    r"""First-moment integrals ``D[w, a, b] = <a| (r - origin)_w |b>``.

    With the Hermite recurrence ``x_P \Lambda_t = t \Lambda_{t-1} +
    \Lambda_{t+1} / (2p)`` the 1D moment about the composite center P is
    ``E[i, j, 1] \sqrt{\pi/p}``, so the moment about an arbitrary origin C is
    ``(E[i, j, 1] + (P - C)_w E[i, j, 0]) \sqrt{\pi/p}``.
    """
    origin = np.zeros(3) if origin is None else np.asarray(origin, dtype=np.float64)
    n = basis.n_cart_ao
    D = np.zeros((3, n, n))
    slices = basis.shell_slices_cart()
    for A, sha in enumerate(basis.shells):
        compsA = cartesian_components(sha.l)
        normA = sha.component_norms()
        for B in range(A + 1):
            shb = basis.shells[B]
            compsB = cartesian_components(shb.l)
            normB = shb.component_norms()
            # extra_b=1 so the t=1 Hermite coefficient exists for all (i, j).
            E = _pair_e_tables(sha, shb, extra_b=1)
            block = np.zeros((3, sha.n_cart, shb.n_cart))
            for ia, a in enumerate(sha.exps):
                ca = sha.norm_coefs[ia]
                for ib, b in enumerate(shb.exps):
                    cb = shb.norm_coefs[ib]
                    p = a + b
                    P = (a * sha.center + b * shb.center) / p
                    pc = P - origin
                    tabs = E[ia, ib]
                    pref = ca * cb * (np.pi / p) ** 1.5
                    for qa, ijkA in enumerate(compsA):
                        for qb, ijkB in enumerate(compsB):
                            s1 = [tabs[d][ijkA[d], ijkB[d], 0] for d in range(3)]
                            for w in range(3):
                                m1 = tabs[w][ijkA[w], ijkB[w], 1] + pc[w] * s1[w]
                                val = m1
                                for d in range(3):
                                    if d != w:
                                        val *= s1[d]
                                block[w, qa, qb] += pref * val
            block *= normA[None, :, None] * normB[None, None, :]
            for w in range(3):
                D[w][slices[A], slices[B]] = block[w]
                D[w][slices[B], slices[A]] = block[w].T
    return D


def nuclear_attraction(basis: BasisSet) -> np.ndarray:
    """V_{ab} = -sum_C Z_C <a| 1/|r - R_C| |b> over all nuclei."""
    mol = basis.molecule
    charges = mol.atomic_numbers.astype(np.float64)
    centers = mol.coords_array
    n = basis.n_cart_ao
    V = np.zeros((n, n))
    slices = basis.shell_slices_cart()
    for A, sha in enumerate(basis.shells):
        compsA = cartesian_components(sha.l)
        normA = sha.component_norms()
        for B in range(A + 1):
            shb = basis.shells[B]
            compsB = cartesian_components(shb.l)
            normB = shb.component_norms()
            lmax = sha.l + shb.l
            E = _pair_e_tables(sha, shb)
            block = np.zeros((sha.n_cart, shb.n_cart))
            # One Hermite-Coulomb batch per shell pair — every primitive pair
            # against every nucleus — instead of one per primitive pair: the
            # Boys kernel and the R recursion cost per call, not per element.
            ps = sha.exps[:, None] + shb.exps[None, :]                      # (na, nb)
            Ps = (sha.exps[:, None, None] * sha.center
                  + shb.exps[None, :, None] * shb.center) / ps[:, :, None]
            rpc = Ps[:, :, None, :] - centers                               # (na, nb, n_atoms, 3)
            R_all = hermite_coulomb_batch(
                lmax, np.repeat(ps.ravel(), len(charges)), rpc.reshape(-1, 3)
            ).reshape(ps.shape + (len(charges),) + (lmax + 1,) * 3)
            for ia in range(len(sha.exps)):
                ca = sha.norm_coefs[ia]
                for ib in range(len(shb.exps)):
                    cb = shb.norm_coefs[ib]
                    p = ps[ia, ib]
                    # Charge-weighted sum over nuclei.
                    Rw = np.einsum("c,ctuv->tuv", -charges, R_all[ia, ib])
                    Ex, Ey, Ez = E[ia, ib]
                    pref = ca * cb * 2.0 * np.pi / p
                    for qa, (l1, m1, n1) in enumerate(compsA):
                        for qb, (l2, m2, n2) in enumerate(compsB):
                            acc = np.einsum(
                                "t,u,v,tuv->",
                                Ex[l1, l2, : l1 + l2 + 1],
                                Ey[m1, m2, : m1 + m2 + 1],
                                Ez[n1, n2, : n1 + n2 + 1],
                                Rw[: l1 + l2 + 1, : m1 + m2 + 1, : n1 + n2 + 1],
                            )
                            block[qa, qb] += pref * acc
            block *= normA[:, None] * normB[None, :]
            V[slices[A], slices[B]] = block
            V[slices[B], slices[A]] = block.T
    return V
