"""Block-granular autograd: five coarse ops with hand-derived backwards.

The primitive ``Tensor`` ops put one tape node (and one full-size temporary)
behind every ``+``, ``*`` and ``reshape``; at the QiankunNet shapes that is
~270 nodes per forward, and the time goes to walking them rather than to the
transformer's arithmetic.  The ops here make the graph coarse instead: each
is *one* tape node whose closed-form backward saves exactly the activations
it needs (table in DESIGN.md, "Block ops").  Nothing on the production path
tapes them: they are the dense float64 oracle (``conditional_logits``,
``NNQSWavefunction.log_prob``) of the graph-free float32 kernels in
``repro.nn``, and what tests and benchmarks differentiate by tape.

Each op is split in two:

* a graph-free **forward kernel** on raw backend arrays (``linear_forward``,
  ``layer_norm_forward``, ``gelu_forward``, ``attention_forward``,
  ``softmax``, ``picked_log_softmax_forward``), row-major and float64 here.
  The KV-cached decode and stage 5's forward/VJP pair over the prefix tree
  write the same formulas a second time, feature-major and in float32
  (``repro.nn.inference``, ``repro.nn.transformer``); they share the
  elementwise ``gelu_forward`` / ``gelu_backward``, stage 5 shares the
  float64 log-softmax head and its backward, and the tests pin the rest to
  each other;
* the **taped op** on ``Tensor`` (``linear``, ``layer_norm``, ``gelu``,
  ``causal_attention``, ``picked_log_softmax``), which calls the kernel and
  registers the backward closure through ``Tensor._make`` — under
  ``no_grad`` nothing is retained.

Every reduction over a last axis here is 4 to 64 wide, where numpy's
reduction loop runs once per output element; they are written as
contractions instead (``last_axis_sum`` / ``last_axis_dot`` /
``last_axis_max``) — one formulation per reduction, whatever the width
(``tools/lint_backend.py`` refuses an ``axis=-1`` ``sum`` / ``mean`` /
``max`` in this file).

The primitive ``Tensor`` ops stay: the taped float64 phase head (the oracle
of ``PhaseMLP.vjp``) and the tests use them, and ``tests/test_block_ops.py``
checks every block op against the same function composed from primitives.
"""
from __future__ import annotations

import math

from repro.autograd.tensor import Tensor
from repro.backend import xp
from repro.backend.dtypes import bool_

__all__ = [
    "MASK_VALUE",
    "last_axis_sum",
    "last_axis_dot",
    "last_axis_max",
    "linear_forward",
    "layer_norm_forward",
    "gelu_forward",
    "gelu_backward",
    "softmax",
    "log_softmax",
    "split_heads",
    "merge_heads",
    "attention_forward",
    "picked_log_softmax_forward",
    "picked_log_softmax_backward",
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
# Short-axis reductions as contractions
# --------------------------------------------------------------------------
def last_axis_sum(x):
    """``sum(x, axis=-1, keepdims=True)`` as one GEMV against ones."""
    n = x.shape[-1]
    return (x.reshape(-1, n) @ xp.ones(n)).reshape(x.shape[:-1] + (1,))


def last_axis_dot(a, b):
    """``sum(a * b, axis=-1, keepdims=True)`` without the product array."""
    return xp.einsum("...i,...i->...", a, b)[..., None]


def last_axis_max(x):
    """``max(x, axis=-1, keepdims=True)`` as a running maximum over columns."""
    m = xp.array(x[..., 0])
    for j in range(1, x.shape[-1]):
        xp.maximum(m, x[..., j], out=m)
    return m[..., None]


def _column_sums(rows):
    """``sum(rows, axis=0)`` of a 2-D array as one GEMV against ones."""
    return xp.ones(len(rows)) @ rows


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
    scale = 1.0 / x.shape[-1]
    xhat = x - last_axis_sum(x) * scale
    inv = 1.0 / xp.sqrt(last_axis_dot(xhat, xhat) * scale + eps)
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
    e = x - last_axis_max(x)
    xp.exp(e, out=e)
    e /= last_axis_sum(e)
    return e


def log_softmax(x):
    """Log-softmax over the last axis (max-shifted; the input is left
    untouched) — the arithmetic of :func:`picked_log_softmax` before the pick."""
    z = x - last_axis_max(x)
    z -= xp.log(last_axis_sum(xp.exp(z)))
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

    ``q``/``k``/``v``: ``(b, h, t, dh)``, query ``i`` seeing keys ``<= i``.
    (The KV-cached decode has its own float32 kernel for one query against
    the cache, ``repro.nn.inference.cached_attention``.)
    """
    t = q.shape[-2]
    att = q @ xp.swapaxes(k, -1, -2)
    att *= 1.0 / math.sqrt(q.shape[-1])
    if t > 1:
        att[..., xp.triu(xp.ones((t, t), dtype=bool_), k=1)] = MASK_VALUE
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
        gb = None if b is None else _column_sums(g2)
        return gx, gw, gb

    return Tensor._make(out, (x, w, b), backward)  # _make drops a None bias


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float) -> Tensor:
    """LayerNorm over the last axis; saves the normalized input and 1/std."""
    out, xhat, inv = layer_norm_forward(x.data, gamma.data, beta.data, eps)
    gd = gamma.data

    def backward(g):
        rows = g.reshape(-1, g.shape[-1])
        ggamma = xp.einsum("ij,ij->j", rows, xhat.reshape(rows.shape))
        gbeta = _column_sums(rows)
        if not x.requires_grad:
            return None, ggamma, gbeta
        scale = 1.0 / g.shape[-1]
        gxhat = g * gd
        gx = gxhat - last_axis_sum(gxhat) * scale
        gx -= xhat * (last_axis_dot(gxhat, xhat) * scale)
        gx *= inv
        return gx, ggamma, gbeta

    return Tensor._make(out, (x, gamma, beta), backward)


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


def gelu(x: Tensor) -> Tensor:
    """tanh-approximation GELU; saves the input and the tanh factor."""
    a = x.data
    out, t = gelu_forward(a)
    return Tensor._make(out, (x,), lambda g: (gelu_backward(g, a, t),))


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
        gs -= last_axis_dot(gs, att)
        gs *= att               # softmax backward; exactly 0 at masked entries
        gs *= 1.0 / math.sqrt(dh)
        xp.matmul(gs, k, out=gqkv[0])                              # gq
        xp.matmul(xp.swapaxes(gs, -1, -2), q, out=gqkv[1])         # gk
        return (xp.transpose(gqkv, (1, 3, 0, 2, 4)).reshape(b, t, 3 * h * dh),)

    return Tensor._make(merge_heads(out), (qkv,), backward)


def picked_log_softmax_forward(logits, allowed, tokens, node_at=None):
    """``sum_k log softmax(masked logits)[node_at[i, k], tokens[i, k]]`` — the
    log-prob head, graph-free; returns ``(out, p, flat)``: the ``(b,)`` sums
    for int ``tokens`` / ``node_at`` ``(b, t)``, and what
    :func:`picked_log_softmax_backward` needs.

    ``logits``: ``(n, vocab)`` conditionals, one per node, with row ``i``
    reading its position-``k`` conditional off node ``node_at[i, k]`` — or
    dense ``(b, t, vocab)`` with ``node_at=None``, every ``(row, position)``
    its own node; a ``node_at`` of -1 is a position whose conditional is
    exactly 1 (decided by the sector mask, no node evaluated): it reads a
    zero sentinel past the last entry and sends its gradient there.
    ``allowed``: bool mask of permitted tokens in the shape of ``logits``
    (``None`` = unconstrained).  Float64: it is ``nodes x vocab`` only.
    """
    if allowed is not None:
        logits = xp.where(allowed, logits, MASK_VALUE)
    z = logits - last_axis_max(logits)
    p = xp.exp(z)
    norm = last_axis_sum(p)
    z -= xp.log(norm)
    vocab = z.shape[-1]
    if node_at is None:
        node_at = xp.arange(tokens.size).reshape(tokens.shape)
    flat = xp.where(node_at < 0, z.size, node_at * vocab + tokens)
    out = last_axis_sum(xp.take(xp.append(z, 0.0), flat))[:, 0]
    p /= norm
    return out, p, flat


def picked_log_softmax_backward(g, p, flat, allowed):
    """The logits' gradient of ``sum_i g[i] out[i]``: ``picked - G softmax``
    with ``picked`` the ``(b,)`` weights ``g`` binned per (node, token) — one
    ``bincount`` — and ``G`` its sum per node; exactly zero at masked
    entries and at a node whose one allowed token is picked."""
    weights = xp.repeat(g, flat.shape[1])
    picked = xp.bincount(flat.reshape(-1), weights=weights, minlength=p.size + 1)
    picked = picked[: p.size].reshape(p.shape)
    gl = picked - p * last_axis_sum(picked)
    if allowed is not None:
        gl[~allowed] = 0.0
    return gl


def picked_log_softmax(logits: Tensor, allowed, tokens, node_at=None) -> Tensor:
    """:func:`picked_log_softmax_forward` as one tape node (mask +
    log-softmax + gather + sum over positions), backward
    :func:`picked_log_softmax_backward`."""
    out, p, flat = picked_log_softmax_forward(logits.data, allowed, tokens, node_at)
    return Tensor._make(
        out, (logits,), lambda g: (picked_log_softmax_backward(g, p, flat, allowed),))
