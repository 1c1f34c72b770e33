"""McMurchie–Davidson Hermite machinery.

Two pieces:

* ``e_coefficients`` — the expansion of a cartesian Gaussian product
  G_i(a, x-Ax) G_j(b, x-Bx) in Hermite Gaussians Λ_t(p, x-Px):
  recursion over (i, j, t).
* ``hermite_coulomb`` — the auxiliary integrals R_{tuv} built from Boys
  function values by the standard three-term recursion, vectorized over a
  batch of Gaussian-pair centers (needed to keep the pure-Python ERI loop
  tolerable: one numpy pass handles all primitive quartets of a shell
  quartet).
"""
from __future__ import annotations

import numpy as np

from repro.chem.integrals.boys import boys_array

__all__ = ["e_coefficients", "hermite_coulomb_batch"]


def e_coefficients(la: int, lb: int, a: float, b: float, qx: float) -> np.ndarray:
    """E_t^{ij} table, shape (la+1, lb+1, la+lb+1).

    ``qx = Ax - Bx`` is the center separation along one axis; ``a``/``b`` the
    primitive exponents.  Standard recursions:

      E_t^{i+1,j} = E_{t-1}^{ij}/(2p) - (b/p) qx E_t^{ij} + (t+1) E_{t+1}^{ij}
      E_t^{i,j+1} = E_{t-1}^{ij}/(2p) + (a/p) qx E_t^{ij} + (t+1) E_{t+1}^{ij}

    with E_0^{00} = exp(-mu qx^2), mu = a b / p, p = a + b.
    """
    p = a + b
    mu = a * b / p
    tmax = la + lb
    E = np.zeros((la + 1, lb + 1, tmax + 2))  # one slack slot for t+1 access
    E[0, 0, 0] = np.exp(-mu * qx * qx)
    # Build up i first (j = 0), then extend j for every i.
    for i in range(1, la + 1):
        for t in range(i + 1):
            val = -(b / p) * qx * E[i - 1, 0, t] + (t + 1) * E[i - 1, 0, t + 1]
            if t > 0:
                val += E[i - 1, 0, t - 1] / (2.0 * p)
            E[i, 0, t] = val
    for j in range(1, lb + 1):
        for i in range(la + 1):
            for t in range(i + j + 1):
                val = (a / p) * qx * E[i, j - 1, t] + (t + 1) * E[i, j - 1, t + 1]
                if t > 0:
                    val += E[i, j - 1, t - 1] / (2.0 * p)
                E[i, j, t] = val
    return E[:, :, : tmax + 1]


def hermite_coulomb_batch(lmax: int, alpha: np.ndarray, rpq: np.ndarray) -> np.ndarray:
    """R^0_{tuv} for a batch of centers, shape (batch, lmax+1, lmax+1, lmax+1).

    ``alpha``: (batch,) effective exponents; ``rpq``: (batch, 3) separation
    vectors.  Only entries with t+u+v <= lmax are meaningful.  Recursion:

      R^n_{t+1,u,v} = t R^{n+1}_{t-1,u,v} + X R^{n+1}_{t,u,v}   (etc. for u, v)
      R^n_{0,0,0}   = (-2 alpha)^n F_n(alpha |rpq|^2)
    """
    alpha = np.asarray(alpha, dtype=np.float64)
    rpq = np.asarray(rpq, dtype=np.float64)
    batch = alpha.shape[0]
    x2 = np.einsum("bi,bi->b", rpq, rpq)
    base = boys_array(lmax, alpha * x2)  # F_n, becoming R^n_000: (lmax+1, batch)
    minus2a = -2.0 * alpha
    for n in range(1, lmax + 1):  # row n is scaled n times (array ** n costs a pow per element)
        base[n:] *= minus2a

    L = lmax + 1
    # R[n, t, u, v, b]; build n from high to low.
    R = np.zeros((L, L, L, L, batch))
    R[:, 0, 0, 0, :] = base
    X, Y, Z = rpq[:, 0], rpq[:, 1], rpq[:, 2]
    for n in range(lmax - 1, -1, -1):
        span = lmax - n  # max t+u+v needed at this n
        for t in range(span + 1):
            for u in range(span - t + 1):
                for v in range(span - t - u + 1):
                    if t == u == v == 0:
                        continue
                    if t > 0:
                        val = X * R[n + 1, t - 1, u, v]
                        if t > 1:
                            val += (t - 1) * R[n + 1, t - 2, u, v]
                    elif u > 0:
                        val = Y * R[n + 1, t, u - 1, v]
                        if u > 1:
                            val += (u - 1) * R[n + 1, t, u - 2, v]
                    else:
                        val = Z * R[n + 1, t, u, v - 1]
                        if v > 1:
                            val += (v - 1) * R[n + 1, t, u, v - 2]
                    R[n, t, u, v] = val
    return np.moveaxis(R[0], -1, 0)  # (batch, L, L, L)
