"""Graph-free production kernels shared by the networks' paths: the GELU
pair (decode, stage 5's pair), the softmax / log-softmax of the decoder's
float64 logits (sampler, walk) and the float64 log-prob head of stage 5 and
pretraining.  The oracle (``repro.autograd.oracle``) writes its own GELU and
head, so a fault here shows in the precision audit.

Short last axes (4 to 64 wide) are reduced by contractions (``last_axis_sum``
/ ``last_axis_max``; ``tools/lint_kernels.py`` refuses ``axis=-1``
reductions here): numpy's reduction loop runs once per output element.
"""
from __future__ import annotations

import math

import numpy as np

__all__ = ["MASK_VALUE", "last_axis_sum", "last_axis_max", "gelu_forward",
           "gelu_backward", "softmax", "log_softmax", "picked_log_softmax_forward",
           "picked_log_softmax_backward"]

# Logit of a forbidden entry (causal mask, particle-number mask): far enough
# below any real logit that its softmax weight is exactly 0.0 in float64.
MASK_VALUE = -1e30

_GELU_C = math.sqrt(2.0 / math.pi)
_GELU_CK = _GELU_C * 0.044715


def last_axis_sum(x):
    """``sum(x, axis=-1, keepdims=True)`` as one GEMV against ones."""
    n = x.shape[-1]
    return (x.reshape(-1, n) @ np.ones(n)).reshape(x.shape[:-1] + (1,))


def last_axis_max(x):
    """``max(x, axis=-1, keepdims=True)`` as a running maximum over columns."""
    m = np.array(x[..., 0])
    for j in range(1, x.shape[-1]):
        np.maximum(m, x[..., j], out=m)
    return m[..., None]


def gelu_forward(a):
    """tanh-approximation GELU ``a/2 (1 + tanh(a (c + c k a^2)))``.

    Returns ``(out, t)`` with ``t`` the tanh factor.  The cubic is the
    polynomial ``a * (c + c k a^2)`` evaluated in place — a float ``**``
    would route every element through ``pow``.
    """
    t = a * a
    t *= _GELU_CK
    t += _GELU_C
    t *= a
    np.tanh(t, out=t)
    out = t + 1.0
    out *= a
    out *= 0.5
    return out, t


def gelu_backward(g, a, t):
    """``g * gelu'(a)`` from the input ``a`` and :func:`gelu_forward`'s tanh
    factor ``t`` (elementwise: any layout, float32 or float64)."""
    # d/da [a/2 (1 + t)] = (1 + t)/2 + a/2 (1 - t^2) (c + 3 c k a^2)
    poly = a * a
    poly *= 3.0 * _GELU_CK
    poly += _GELU_C
    poly *= a
    sech2 = t * t
    sech2 -= 1.0            # -(1 - t^2)
    poly *= sech2
    poly -= t
    poly -= 1.0             # -(1 + t) - a (1 - t^2)(...)
    poly *= -0.5
    poly *= g
    return poly


def softmax(x):
    """Softmax over the last axis (max-shifted; the input is left untouched)."""
    e = x - last_axis_max(x)
    np.exp(e, out=e)
    e /= last_axis_sum(e)
    return e


def log_softmax(x):
    """Log-softmax over the last axis (max-shifted; the input is left
    untouched) — the arithmetic of :func:`picked_log_softmax_forward` before
    the pick."""
    z = x - last_axis_max(x)
    z -= np.log(last_axis_sum(np.exp(z)))
    return z


def picked_log_softmax_forward(logits, allowed, tokens, node_at):
    """``sum_k log softmax(masked logits)[node_at[i, k], tokens[i, k]]`` — the
    log-prob head, graph-free; returns ``(out, p, flat)``: the ``(b,)`` sums
    for int ``tokens`` / ``node_at`` ``(b, t)``, and what
    :func:`picked_log_softmax_backward` needs.

    ``logits``: ``(n, vocab)`` conditionals, one per node, with row ``i``
    reading its position-``k`` conditional off node ``node_at[i, k]``; a
    ``node_at`` of -1 is a position whose conditional is exactly 1 (decided
    by the sector mask, no node evaluated): it reads a zero sentinel past
    the last entry and sends its gradient there.
    ``allowed``: bool mask of permitted tokens in the shape of ``logits``
    (``None`` = unconstrained).  Float64: it is ``nodes x vocab`` only.
    """
    if allowed is not None:
        logits = np.where(allowed, logits, MASK_VALUE)
    z = logits - last_axis_max(logits)
    p = np.exp(z)
    norm = last_axis_sum(p)
    z -= np.log(norm)
    flat = np.where(node_at < 0, z.size, node_at * z.shape[-1] + tokens)
    out = last_axis_sum(np.take(np.append(z, 0.0), flat))[:, 0]
    p /= norm
    return out, p, flat


def picked_log_softmax_backward(g, p, flat, allowed):
    """The logits' gradient of ``sum_i g[i] out[i]``: ``picked - G softmax``
    with ``picked`` the ``(b,)`` weights ``g`` binned per (node, token) — one
    ``bincount`` — and ``G`` its sum per node; exactly zero at masked
    entries and at a node whose one allowed token is picked."""
    weights = np.repeat(g, flat.shape[1])
    picked = np.bincount(flat.reshape(-1), weights=weights, minlength=p.size + 1)
    picked = picked[: p.size].reshape(p.shape)
    gl = picked - p * last_axis_sum(picked)
    if allowed is not None:
        gl[~allowed] = 0.0
    return gl
