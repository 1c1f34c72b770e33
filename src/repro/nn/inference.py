"""Incremental decoding of the transformer: one KV-cached, float32 kernel.

The batch autoregressive sampler (Fig. 3) only ever asks the amplitude
network one question: "given this prefix, what is the conditional of the
*next* token?".  Re-running the full transformer over the whole prefix at
every local sampling step costs O(sum_k k^2) attention recompute per layer
and sweep; with cached keys/values the same sweep costs O(k) — the standard
incremental-decoding trick of GPT-style inference servers, applied to the
NNQS sampling loop.

:class:`TransformerInferenceSession` is one in-flight decoding: the BAS
sweep, the prefix-tree walk of ``log_amplitudes`` and the serving tier all
step through it, and through the one kernel behind it (:func:`decode_step`,
one position per call):

* **Layout.** Activations are feature-major, ``(features, rows)``.  The
  session holds one cache array ``(T, layers, k/v, heads, d_head, rows)``;
  a step writes position ``pos`` in place, scores are a contraction over
  ``d_head`` and the softmax runs over the position axis, so every op's
  inner loop runs over rows.  Positions lead so that ``select``'s gather of
  the first ``pos`` positions writes one contiguous block.
* **Precision.** Every GEMM, LayerNorm, GELU and softmax runs in float32,
  on a float32 copy of the parameters taken when the session consumes its
  first position.  ``select`` and ``copy``
  share that copy, so weights and KV cache have one lifetime.  Logits come
  back float64: the masks, log-softmax, multinomial split and the walk's
  running log pi stay float64.  The audit is ``repro/dtypes.py``'s.
* **Oracle.** The dense float64 forward of ``repro.autograd.oracle``
  (``conditional_logits``, through ``padded_next_logits``) is the oracle of
  every decode (``tests/test_inference.py``, ``tests/test_precision.py``).

``prefill`` is a loop of the same kernel over the prefix.  Everything here
is graph-free bookkeeping on numpy arrays.
"""
from __future__ import annotations

import math

import numpy as np

from repro.dtypes import float32, float64, int64
from repro.nn.kernels import gelu_forward

__all__ = [
    "DecodeWeights",
    "TransformerInferenceSession",
    "attention_weights",
    "cached_attention",
    "decode_step",
]


# --------------------------------------------------------------------------
# The decode kernel: feature-major, float32
# --------------------------------------------------------------------------
class DecodeWeights:
    """Float32 copies of a ``TransformerAmplitude``'s parameters, laid out
    for :func:`decode_step`.

    Embeddings are ``(d_model, entries)``, biases ``(features, 1)``
    columns.  Every LayerNorm feeds a linear layer, so its gain and shift
    are folded into that layer (in float64, before the cast):
    ``W (g * xhat + b) + c = (W diag g) xhat + (W b + c)``.
    """

    __slots__ = ("tok", "pos", "layers", "head", "n_heads")

    def __init__(self, model):
        self.tok = np.ascontiguousarray(model.tok_emb.weight.data.T, dtype=float32)
        self.pos = np.ascontiguousarray(model.pos_emb.weight.data.T, dtype=float32)
        self.layers = [
            (_normed(layer.ln1, layer.attn.qkv), _affine_of(layer.attn.proj),
             _normed(layer.ln2, layer.ff.fc1), _affine_of(layer.ff.fc2))
            for layer in model.layers
        ]
        self.head = _normed(model.ln_f, model.head)
        self.n_heads = model.layers[0].attn.n_heads if model.layers else 1


def _column32(b):
    return np.asarray(b, dtype=float32)[:, None]


def _affine_of(lin):
    """``(W, c)`` of a linear layer in float32."""
    return np.asarray(lin.weight.data, dtype=float32), _column32(lin.bias.data)


def _normed(ln, lin):
    """``(W diag g, W b + c, eps)``: LayerNorm ``ln`` folded into ``lin``."""
    w = lin.weight.data
    return (np.asarray(w * ln.gamma.data, dtype=float32),
            _column32(w @ ln.beta.data + lin.bias.data), ln.eps)


def _affine(w, b, h):
    """``W h + b`` on feature-major activations."""
    out = w @ h
    out += b
    return out


def _standardize(x, eps: float):
    """``(x - mean, std)`` over the feature axis of ``(features, rows)``
    activations: the oracle's ``layer_norm`` statistics, transposed."""
    scale = 1.0 / len(x)
    xc = x - x.sum(axis=0) * scale
    std = np.einsum("dn,dn->n", xc, xc)
    std *= scale
    std += eps
    np.sqrt(std, out=std)
    return xc, std


def _norm_affine(w, b, eps: float, x):
    """``W LayerNorm(x) + b`` over the feature axis of ``(features, rows)``
    activations, the norm's gain and shift folded into ``W`` and ``b``, the
    per-row ``1/std`` applied after the GEMM."""
    xc, std = _standardize(x, eps)
    out = w @ xc
    out /= std
    out += b
    return out


def attention_weights(q, k, mask=None):
    """Scaled-dot-product attention weights of one query per row.

    ``q``: ``(heads, d_head, rows)``; ``k``: ``(t, heads, d_head, rows)``.
    Returns the ``(t, heads, rows)`` softmax over the position axis;
    ``mask`` (0 or ``MASK_VALUE``, broadcast to that shape) removes
    positions.
    """
    s = np.einsum("thdn,hdn->thn", k, q)
    s *= 1.0 / math.sqrt(q.shape[1])
    if mask is not None:
        s += mask
    s -= s.max(axis=0)
    np.exp(s, out=s)
    s /= s.sum(axis=0)
    return s


def cached_attention(q, k, v):
    """One query position against the ``t`` cached ones (itself the last).

    ``q``: ``(heads, d_head, rows)``; ``k``/``v``: ``(t, heads, d_head,
    rows)``.  Returns ``(heads, d_head, rows)`` — row ``t - 1`` of the
    dense causal attention (the oracle's ``attention_forward``).
    """
    return np.einsum("thn,thdn->hdn", attention_weights(q, k), v)


def decode_step(w: DecodeWeights, kv, pos: int, inputs):
    """Consume input token ``inputs[i]`` at position ``pos`` for every row.

    Writes the new keys/values into ``kv[pos]`` (cache ``(T, layers, 2,
    heads, d_head, rows)``, float32) and returns the next position's
    ``(rows, vocab)`` logits in float64.
    """
    d, n = len(w.tok), len(inputs)
    h = w.n_heads
    # take, not w.tok[:, inputs]: the fancy index returns the columns
    # Fortran-ordered, and every later op would inherit that order.
    x = np.take(w.tok, inputs, axis=1)
    x += w.pos[:, pos, None]
    for layer, (qkv_w, proj, fc1, fc2) in enumerate(w.layers):
        qkv = _norm_affine(*qkv_w, x).reshape(3, h, d // h, n)
        kv[pos, layer] = qkv[1:]
        cache = kv[:pos + 1, layer]
        att = cached_attention(qkv[0], cache[:, 0], cache[:, 1])
        x += _affine(*proj, att.reshape(d, n))
        x += _affine(*fc2, gelu_forward(_norm_affine(*fc1, x))[0])
    logits = _norm_affine(*w.head, x)
    return np.ascontiguousarray(logits.T, dtype=float64)


# --------------------------------------------------------------------------
# Sessions
# --------------------------------------------------------------------------
class TransformerInferenceSession:
    """One in-flight incremental decoding of a :class:`TransformerAmplitude`.

    Invariant: ``pos`` input positions have been consumed (position 0 is the
    BOS token), so the cache holds positions ``0..pos-1`` of its
    ``batch_size`` rows and logits have been produced for sequence positions
    ``0..pos-1``.  The float32 weights (``DecodeWeights``) and the cache are
    created together when position 0 is consumed.
    """

    def __init__(self, model, batch_size: int = 1):
        self.model = model
        self.batch_size = batch_size
        self.pos = 0
        self._weights = None
        self._kv = None

    def step(self, prev_tokens=None):
        """Consume one token per row, return ``(batch, vocab)`` next logits.

        ``prev_tokens`` is the token sampled at the previous position
        (``None`` on the very first call, which consumes the BOS token).
        """
        if prev_tokens is None:
            if self.pos != 0:
                raise ValueError("prev_tokens required once the session has started")
            return self._advance(np.full(self.batch_size, self.model.bos, dtype=int64))
        if self.pos == 0:
            raise ValueError("the first step consumes BOS: call step(None) or prefill()")
        return self._advance(np.asarray(prev_tokens, dtype=int64).reshape(-1))

    def prefill(self, prefix_tokens):
        """Consume BOS and a whole ``(batch, k)`` prefix, one kernel step per
        position; returns the ``(batch, vocab)`` logits of position ``k``.
        Only valid on a fresh session (``pos == 0``)."""
        if self.pos != 0:
            raise ValueError("prefill requires a fresh session")
        prefix = np.asarray(prefix_tokens, dtype=int64)
        if prefix.ndim == 1:
            prefix = prefix[None, :]
        logits = self._advance(np.full(len(prefix), self.model.bos, dtype=int64))
        for k in range(prefix.shape[1]):
            logits = self._advance(prefix[:, k])
        return logits

    def _advance(self, inputs):
        model = self.model
        # Valid inputs are BOS + the first n_tokens-1 tokens; one more step
        # would read the never-trained extra positional-embedding row.
        if self.pos >= model.n_tokens:
            raise ValueError(f"decoding past the model's {model.n_tokens}-token "
                             f"sequence (position {self.pos})")
        if self.pos == 0:
            self._weights = DecodeWeights(model)
            heads = self._weights.n_heads
            self._kv = np.empty((model.n_tokens, len(model.layers), 2, heads,
                                 model.d_model // heads, len(inputs)), dtype=float32)
        logits = decode_step(self._weights, self._kv, self.pos, inputs)
        self.pos += 1
        return logits

    def _derived(self, batch_size: int, kv) -> "TransformerInferenceSession":
        out = TransformerInferenceSession.__new__(TransformerInferenceSession)
        out.model, out.batch_size, out.pos = self.model, batch_size, self.pos
        out._weights, out._kv = self._weights, kv
        return out

    def select(self, idx) -> "TransformerInferenceSession":
        """Realign cache rows with branched/pruned prefixes (BAS tree split).

        ``take`` along the row axis over the consumed positions only, into a
        fresh cache: a fancy index on the last axis would return a transposed,
        non-contiguous array and slow every later step.
        """
        idx = np.asarray(idx, dtype=int64)
        if self._kv is None:
            return self._derived(len(idx), None)
        n = self._kv.shape[-1]
        if len(idx) and (int(idx.min()) < 0 or int(idx.max()) >= n):
            raise IndexError(f"select: session rows out of range for {n} rows")
        kv = np.empty(self._kv.shape[:-1] + (len(idx),), dtype=float32)
        # mode="wrap" skips take's buffered bounds check (checked above).
        np.take(self._kv[:self.pos], idx, axis=-1, out=kv[:self.pos], mode="wrap")
        return self._derived(len(idx), kv)

    def copy(self) -> "TransformerInferenceSession":
        """Deep-copied cache, shared weights: stepping the copy never mutates
        the original."""
        return self._derived(self.batch_size,
                             None if self._kv is None else np.array(self._kv))

