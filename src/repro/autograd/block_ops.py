"""Block-granular autograd: five coarse ops with hand-derived backwards.

The primitive ``Tensor`` ops put one tape node (and one full-size temporary)
behind every ``+``, ``*`` and ``reshape``; at the QiankunNet shapes that is
~270 nodes per VMC iteration, and the iteration's time goes to walking them
rather than to the transformer's arithmetic.  The ops here make the graph
coarse instead: each is *one* tape node whose closed-form backward saves
exactly the activations it needs (table in DESIGN.md, "Block ops").

Each op is split in two:

* a graph-free **forward kernel** on raw backend arrays (``linear_forward``,
  ``layer_norm_forward``, ``gelu_forward``, ``attention_forward``,
  ``softmax``) — the *only* place its formula is written.  The KV-cached
  decode path (``Module.step`` in ``repro.nn``) calls these directly, so the
  full forward and the incremental decode cannot drift apart;
* the **taped op** on ``Tensor`` (``linear``, ``layer_norm``, ``gelu``,
  ``causal_attention``, ``picked_log_softmax``), which calls the kernel and
  registers the backward closure through ``Tensor._make`` — under
  ``no_grad`` nothing is retained.

The primitive ``Tensor`` ops stay: MADE's masked weights, SR and the tests
use them, and ``tests/test_block_ops.py`` checks every block op against the
same function composed from primitives.
"""
from __future__ import annotations

import math

from repro.autograd.tensor import Tensor
from repro.backend import xp
from repro.backend.dtypes import bool_

__all__ = [
    "MASK_VALUE",
    "linear_forward",
    "layer_norm_forward",
    "gelu_forward",
    "softmax",
    "log_softmax",
    "split_heads",
    "merge_heads",
    "attention_forward",
    "linear",
    "layer_norm",
    "gelu",
    "causal_attention",
    "picked_log_softmax",
]

# Logit of a forbidden entry (causal mask, particle-number mask): far enough
# below any real logit that its softmax weight is exactly 0.0 in float64.
MASK_VALUE = -1e30

_GELU_C = math.sqrt(2.0 / math.pi)
_GELU_CK = _GELU_C * 0.044715


# --------------------------------------------------------------------------
# Forward kernels: graph-free math on raw backend arrays
# --------------------------------------------------------------------------
def linear_forward(x, w, b=None):
    """``y = x W^T + b`` over the last axis, as one flattened GEMM."""
    out = x.reshape(-1, x.shape[-1]) @ w.T
    if b is not None:
        out += b
    return out.reshape(x.shape[:-1] + (w.shape[0],))


def layer_norm_forward(x, gamma, beta, eps: float):
    """LayerNorm over the last axis; returns ``(out, xhat, inv_std)``."""
    xhat = x - xp.mean(x, axis=-1, keepdims=True)
    inv = 1.0 / xp.sqrt(xp.mean(xhat * xhat, axis=-1, keepdims=True) + eps)
    xhat *= inv
    out = xhat * gamma
    out += beta
    return out, xhat, inv


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
    xp.tanh(t, out=t)
    out = t + 1.0
    out *= a
    out *= 0.5
    return out, t


def softmax(x):
    """Softmax over the last axis (max-shifted; the input is left untouched)."""
    e = x - xp.max(x, axis=-1, keepdims=True)
    xp.exp(e, out=e)
    e /= xp.sum(e, axis=-1, keepdims=True)
    return e


def log_softmax(x):
    """Log-softmax over the last axis (max-shifted; the input is left
    untouched) — the arithmetic of :func:`picked_log_softmax` before the pick."""
    z = x - xp.max(x, axis=-1, keepdims=True)
    z -= xp.log(xp.sum(xp.exp(z), axis=-1, keepdims=True))
    return z


def split_heads(qkv, n_heads: int):
    """``(b, t, 3 d)`` fused projection -> ``q, k, v`` views ``(b, h, t, d/h)``."""
    b, t, d3 = qkv.shape
    heads = xp.transpose(
        qkv.reshape(b, t, 3, n_heads, d3 // (3 * n_heads)), (2, 0, 3, 1, 4)
    )
    return heads[0], heads[1], heads[2]


def merge_heads(x):
    """``(b, h, t, d/h)`` -> ``(b, t, d)`` (inverse of the head split)."""
    b, h, t, dh = x.shape
    return xp.transpose(x, (0, 2, 1, 3)).reshape(b, t, h * dh)


def attention_forward(q, k, v):
    """Causal scaled-dot-product attention; returns ``(out, att)``.

    ``q``: ``(b, h, tq, dh)``; ``k``/``v``: ``(b, h, tk, dh)`` with
    ``tk >= tq``.  The queries are the *last* ``tq`` of the ``tk`` positions,
    so ``tq == tk`` is the full training forward, ``tq < tk`` a KV-cached
    decode step (new positions against the cache).
    """
    tq, tk = q.shape[-2], k.shape[-2]
    att = q @ xp.swapaxes(k, -1, -2)
    att *= 1.0 / math.sqrt(q.shape[-1])
    if tq > 1:
        # Query i sits at absolute position tk - tq + i; it must not see later keys.
        future = xp.triu(xp.ones((tq, tk), dtype=bool_), k=tk - tq + 1)
        att[..., future] = MASK_VALUE
    att = softmax(att)
    return att @ v, att


# --------------------------------------------------------------------------
# Taped ops: one node each, closed-form backward
# --------------------------------------------------------------------------
def linear(x: Tensor, w: Tensor, b: Tensor | None = None) -> Tensor:
    """Affine map over the last axis: one GEMM forward, one per gradient back."""
    xd, wd = x.data, w.data
    out = linear_forward(xd, wd, None if b is None else b.data)

    def backward(g):
        g2 = g.reshape(-1, wd.shape[0])
        gx = (g2 @ wd).reshape(xd.shape) if x.requires_grad else None
        gw = g2.T @ xd.reshape(-1, wd.shape[1])
        gb = None if b is None else xp.sum(g2, axis=0)
        return gx, gw, gb

    return Tensor._make(out, (x, w, b), backward)  # _make drops a None bias


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float) -> Tensor:
    """LayerNorm over the last axis; saves the normalized input and 1/std."""
    out, xhat, inv = layer_norm_forward(x.data, gamma.data, beta.data, eps)
    gd = gamma.data

    def backward(g):
        rows = g.reshape(-1, g.shape[-1])
        ggamma = xp.sum(rows * xhat.reshape(rows.shape), axis=0)
        gbeta = xp.sum(rows, axis=0)
        if not x.requires_grad:
            return None, ggamma, gbeta
        gxhat = g * gd
        gx = gxhat - xp.mean(gxhat, axis=-1, keepdims=True)
        gxhat *= xhat
        gx -= xhat * xp.mean(gxhat, axis=-1, keepdims=True)
        gx *= inv
        return gx, ggamma, gbeta

    return Tensor._make(out, (x, gamma, beta), backward)


def gelu(x: Tensor) -> Tensor:
    """tanh-approximation GELU; saves the input and the tanh factor."""
    a = x.data
    out, t = gelu_forward(a)

    def backward(g):
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
        return (poly,)

    return Tensor._make(out, (x,), backward)


def causal_attention(qkv: Tensor, n_heads: int) -> Tensor:
    """Multi-head causal self-attention on a fused ``(b, t, 3 d)`` projection.

    Returns the merged ``(b, t, d)`` head outputs (before the output
    projection).  Saves ``q``, ``k``, ``v`` (views of ``qkv``) and the softmax
    matrix only.
    """
    q, k, v = split_heads(qkv.data, n_heads)
    out, att = attention_forward(q, k, v)
    b, h, t, dh = q.shape

    def backward(g):
        g = xp.transpose(g.reshape(b, t, h, dh), (0, 2, 1, 3))  # (b, h, t, dh)
        gqkv = xp.empty((3, b, h, t, dh))
        xp.matmul(xp.swapaxes(att, -1, -2), g, out=gqkv[2])        # gv
        gs = g @ xp.swapaxes(v, -1, -2)                            # d att
        gs -= xp.sum(gs * att, axis=-1, keepdims=True)
        gs *= att               # softmax backward; exactly 0 at masked entries
        gs *= 1.0 / math.sqrt(dh)
        xp.matmul(gs, k, out=gqkv[0])                              # gq
        xp.matmul(xp.swapaxes(gs, -1, -2), q, out=gqkv[1])         # gk
        return (xp.transpose(gqkv, (1, 3, 0, 2, 4)).reshape(b, t, 3 * h * dh),)

    return Tensor._make(merge_heads(out), (qkv,), backward)


def picked_log_softmax(logits: Tensor, allowed, tokens) -> Tensor:
    """``sum_i log softmax(masked logits)[i, tokens_i]`` — the log-prob head.

    ``logits``: ``(b, t, vocab)``; ``allowed``: bool ``(b, t, vocab)`` mask of
    permitted tokens (``None`` = unconstrained); ``tokens``: int ``(b, t)``.
    Mask + log-softmax + gather + sum over positions in one node, returning
    ``(b,)``.  Backward is ``g (onehot - softmax)``, zero at masked entries.
    """
    z = logits.data
    if allowed is not None:
        z = xp.where(allowed, z, MASK_VALUE)
    z = z - xp.max(z, axis=-1, keepdims=True)
    p = xp.exp(z)
    norm = xp.sum(p, axis=-1, keepdims=True)
    b, t, _ = z.shape
    rows, cols = xp.arange(b)[:, None], xp.arange(t)[None, :]
    out = xp.sum(z[rows, cols, tokens] - xp.log(norm[..., 0]), axis=1)
    p /= norm

    def backward(g):
        g = g[:, None]
        gl = p * -g[:, :, None]
        gl[rows, cols, tokens] += g
        if allowed is not None:
            gl[~allowed] = 0.0
        return (gl,)

    return Tensor._make(out, (logits,), backward)
