"""Two-electron repulsion integrals (ERIs) in chemists' notation (ab|cd).

McMurchie–Davidson with the full 8-fold permutational symmetry at the
shell-quartet level.  The pure-Python loop structure follows the HPC guides'
advice: Python iterates only over shell quartets, while everything inside a
quartet — primitive combinations, Hermite Coulomb tensors, component
contraction — is one batched numpy einsum.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.chem.basis.shells import BasisSet, Shell, cartesian_components
from repro.chem.integrals.hermite import e_coefficients, hermite_coulomb_batch

__all__ = ["electron_repulsion"]

_SCREEN = 1e-14  # Gaussian-product prefactor screening threshold


@dataclass
class _PairData:
    """Precomputed primitive-pair data for one shell pair."""

    p: np.ndarray        # (K,) combined exponents
    P: np.ndarray        # (K, 3) product centers
    coef: np.ndarray     # (K,) contraction coefficient products
    theta: np.ndarray    # (K, ncA, ncB, T, T, T) E-coefficient products
    lab: int


def _build_pair(sha: Shell, shb: Shell) -> _PairData:
    compsA = np.array(cartesian_components(sha.l))
    compsB = np.array(cartesian_components(shb.l))
    lab = sha.l + shb.l
    T = lab + 1
    ab = sha.center - shb.center
    mu_r2 = np.add.outer(
        np.zeros(len(sha.exps)), np.zeros(len(shb.exps))
    )  # placeholder shape (na, nb)
    ps, Ps, coefs, thetas = [], [], [], []
    for ia, a in enumerate(sha.exps):
        for ib, b in enumerate(shb.exps):
            p = a + b
            if np.exp(-(a * b / p) * float(ab @ ab)) < _SCREEN:
                continue
            E = [e_coefficients(sha.l, shb.l, a, b, ab[d]) for d in range(3)]
            # theta[qa, qb, t, u, v] = Ex[l1,l2,t] Ey[m1,m2,u] Ez[n1,n2,v]
            Ex = E[0][compsA[:, 0][:, None], compsB[:, 0][None, :], :]
            Ey = E[1][compsA[:, 1][:, None], compsB[:, 1][None, :], :]
            Ez = E[2][compsA[:, 2][:, None], compsB[:, 2][None, :], :]
            theta = np.einsum("abt,abu,abv->abtuv", Ex, Ey, Ez)
            ps.append(p)
            Ps.append((a * sha.center + b * shb.center) / p)
            coefs.append(sha.norm_coefs[ia] * shb.norm_coefs[ib])
            thetas.append(theta)
    if not ps:  # fully screened pair
        ncA, ncB = len(compsA), len(compsB)
        return _PairData(np.zeros(0), np.zeros((0, 3)), np.zeros(0),
                         np.zeros((0, ncA, ncB, T, T, T)), lab)
    return _PairData(
        np.array(ps), np.array(Ps), np.array(coefs), np.array(thetas), lab
    )


def _quartet(bra: _PairData, ket: _PairData) -> np.ndarray:
    """(ncA, ncB, ncC, ncD) cartesian ERI block for one shell quartet."""
    K1, K2 = len(bra.p), len(ket.p)
    ncA, ncB = bra.theta.shape[1:3]
    ncC, ncD = ket.theta.shape[1:3]
    Tb, Tk = bra.lab + 1, ket.lab + 1
    if K1 == 0 or K2 == 0:
        return np.zeros((ncA, ncB, ncC, ncD))
    i1 = np.repeat(np.arange(K1), K2)
    i2 = np.tile(np.arange(K2), K1)
    p1, p2 = bra.p[i1], ket.p[i2]
    alpha = p1 * p2 / (p1 + p2)
    rpq = bra.P[i1] - ket.P[i2]
    L = bra.lab + ket.lab
    R = hermite_coulomb_batch(L, alpha, rpq)  # (K, L+1, L+1, L+1)
    pref = (
        2.0 * np.pi**2.5 / (p1 * p2 * np.sqrt(p1 + p2)) * bra.coef[i1] * ket.coef[i2]
    )
    # R6[k, t, u, v, x, y, z] = R[k, t+x, u+y, v+z]
    t1 = np.arange(Tb)
    t2 = np.arange(Tk)
    tt = t1[:, None, None, None, None, None] + t2[None, None, None, :, None, None]
    uu = t1[None, :, None, None, None, None] + t2[None, None, None, None, :, None]
    vv = t1[None, None, :, None, None, None] + t2[None, None, None, None, None, :]
    R6 = R[:, tt, uu, vv]
    # Fold (-1)^{x+y+z} into the ket theta.
    sign = (-1.0) ** (
        t2[:, None, None] + t2[None, :, None] + t2[None, None, :]
    )
    theta_ket = ket.theta * sign[None, None, None]
    return _contract(pref, bra.theta[i1], theta_ket[i2], R6)


_QUARTET = "k,kabtuv,kcdxyz,ktuvxyz->abcd"
# Operand shapes -> the contraction path ``optimize=True`` picks for them.
# The path depends on the shapes alone, and a basis has few distinct
# quartet shapes, so each is searched once; searching per quartet was ~40 %
# of the integral time.  The same path runs the same contractions, so the
# result is bit-identical to ``optimize=True``.
_PATHS: dict[tuple, list] = {}


def _contract(*operands: np.ndarray) -> np.ndarray:
    shapes = tuple(op.shape for op in operands)
    path = _PATHS.get(shapes)
    if path is None:
        path = _PATHS[shapes] = np.einsum_path(_QUARTET, *operands, optimize=True)[0]
    return np.einsum(_QUARTET, *operands, optimize=path)


def electron_repulsion(basis: BasisSet) -> np.ndarray:
    """Full (n,n,n,n) cartesian ERI tensor, chemists' notation (ab|cd)."""
    shells = basis.shells
    slices = basis.shell_slices_cart()
    norms = [sh.component_norms() for sh in shells]
    n = basis.n_cart_ao
    eri = np.zeros((n, n, n, n))

    # Canonical shell pairs (A >= B) with precomputed pair data.
    pairs: list[tuple[int, int, _PairData]] = []
    for A in range(len(shells)):
        for B in range(A + 1):
            pairs.append((A, B, _build_pair(shells[A], shells[B])))

    for pid1, (A, B, bra) in enumerate(pairs):
        for pid2 in range(pid1 + 1):
            C, D, ket = pairs[pid2]
            block = _quartet(bra, ket)
            block = np.einsum(
                "abcd,a,b,c,d->abcd", block, norms[A], norms[B], norms[C], norms[D]
            )
            sA, sB, sC, sD = slices[A], slices[B], slices[C], slices[D]
            eri[sA, sB, sC, sD] = block
            eri[sB, sA, sC, sD] = block.transpose(1, 0, 2, 3)
            eri[sA, sB, sD, sC] = block.transpose(0, 1, 3, 2)
            eri[sB, sA, sD, sC] = block.transpose(1, 0, 3, 2)
            eri[sC, sD, sA, sB] = block.transpose(2, 3, 0, 1)
            eri[sD, sC, sA, sB] = block.transpose(3, 2, 0, 1)
            eri[sC, sD, sB, sA] = block.transpose(2, 3, 1, 0)
            eri[sD, sC, sB, sA] = block.transpose(3, 2, 1, 0)
    return eri
