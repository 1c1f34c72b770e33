"""The Boys function F_m(x) = ∫_0^1 t^{2m} exp(-x t^2) dt, in numpy alone.

One formulation, two ranges of x (DESIGN.md "What a rank pays before
iteration 1" has the error budget):

* ``x < 36`` — a Taylor step from a tabulated grid.  dF_m/dx = -F_{m+1}, so

      F_m(x) = sum_k F_{m+k}(x0) (x0 - x)^k / k!

  with x0 the nearest grid point.  The grid step is 1/8 (a power of two:
  ``x0`` and ``x0 - x`` are exact), so |x0 - x| <= 1/16 and the eight terms
  kept leave a remainder below (1/16)^9 / 9! = 4e-17 of F_m.  Only the top
  order is stepped; the downward recursion
  F_m = (2x F_{m+1} + exp(-x)) / (2m + 1), which damps errors, fills the rest.
* ``x >= 36`` — F_0 = sqrt(pi / x) / 2 (what it leaves out, erfc(6), is 2e-17)
  and the upward recursion F_{m+1} = ((2m + 1) F_m - exp(-x)) / (2x), which is
  stable once x exceeds the order.

The table itself comes from the ascending series at its top order — every
term positive, nothing cancels — and the same downward recursion.  Measured
against 40-digit arithmetic the result is within 3e-15 relative for every
order the table serves over x in {0} ∪ [1e-12, 1e3]; the tests gate 1e-13
against quadrature and against ``scipy.special.hyp1f1``.
"""
from __future__ import annotations

import numpy as np

__all__ = ["boys", "boys_array"]

_PER_UNIT = 8          # grid points per unit of x
_SWITCH = 36.0         # table below, asymptote + upward recursion from here on
_TAYLOR = 8            # Taylor terms beyond the tabulated value
_M_MAX = 16            # highest order served (a d-shell quartet needs 8)
_INV_K = 1.0 / np.arange(1, _TAYLOR + 1)


def _grid_table() -> np.ndarray:
    """``F_m(j / _PER_UNIT)`` for m = 0 .. _M_MAX + _TAYLOR, one row per point."""
    x = np.arange(int(_SWITCH) * _PER_UNIT + 1) / _PER_UNIT
    top = _M_MAX + _TAYLOR
    # F_top(x) = exp(-x) sum_i (2x)^i / ((2 top + 1)(2 top + 3) ... (2 top + 2i + 1));
    # at x = 36 the terms peak at i ~ 12 and are below 1e-30 of the sum by i = 160.
    i = np.arange(1, 160)[:, None]
    series = 1.0 + np.cumprod(2.0 * x / (2 * top + 2 * i + 1), axis=0).sum(axis=0)
    ex = np.exp(-x)
    table = np.empty((len(x), top + 1))
    table[:, top] = ex * series / (2 * top + 1)
    for m in range(top - 1, -1, -1):
        table[:, m] = (2.0 * x * table[:, m + 1] + ex) / (2 * m + 1)
    return table


_TABLE = _grid_table()


def _from_table(m_max: int, x: np.ndarray) -> np.ndarray:
    """Orders 0..m_max at ``x < _SWITCH`` (1-D), shape ``(m_max + 1, len(x))``."""
    idx = np.rint(x * _PER_UNIT).astype(np.intp)
    d = idx / _PER_UNIT - x
    rows = _TABLE[idx, m_max:m_max + _TAYLOR + 1]
    powers = np.cumprod(d[:, None] * _INV_K, axis=1)       # d^k / k!, k = 1..
    out = np.empty((m_max + 1, len(x)))
    out[m_max] = rows[:, 0] + np.einsum("nk,nk->n", rows[:, 1:], powers)
    if m_max:
        ex = np.exp(-x)
        two_x = 2.0 * x
        for m in range(m_max - 1, -1, -1):
            out[m] = (two_x * out[m + 1] + ex) / (2 * m + 1)
    return out


def _from_asymptote(m_max: int, x: np.ndarray) -> np.ndarray:
    """Orders 0..m_max at ``x >= _SWITCH`` (1-D), shape ``(m_max + 1, len(x))``."""
    out = np.empty((m_max + 1, len(x)))
    out[0] = 0.5 * np.sqrt(np.pi / x)
    if m_max:
        ex = np.exp(-x)
        half_inv = 0.5 / x
        for m in range(m_max):
            out[m + 1] = ((2 * m + 1) * out[m] - ex) * half_inv
    return out


def boys_array(m_max: int, x: np.ndarray) -> np.ndarray:
    """F_m(x) for m = 0..m_max, vectorized over x >= 0.

    Returns shape ``(m_max + 1, *x.shape)``.
    """
    if not 0 <= m_max <= _M_MAX:
        raise ValueError(f"Boys orders 0..{_M_MAX} are tabulated, got m_max = {m_max}")
    x = np.asarray(x, dtype=np.float64)
    flat = x.ravel()
    if flat.size == 0:
        return np.empty((m_max + 1,) + x.shape)
    lo, hi = flat.min(), flat.max()
    if not lo >= 0.0:
        raise ValueError("the Boys function is evaluated at x >= 0")
    if hi < _SWITCH:
        out = _from_table(m_max, flat)
    elif lo >= _SWITCH:
        out = _from_asymptote(m_max, flat)
    else:
        small = flat < _SWITCH
        out = np.empty((m_max + 1, flat.size))
        out[:, small] = _from_table(m_max, flat[small])
        out[:, ~small] = _from_asymptote(m_max, flat[~small])
    return out.reshape((m_max + 1,) + x.shape)


def boys(m: int, x: float) -> float:
    return float(boys_array(m, np.array([x]))[m, 0])
