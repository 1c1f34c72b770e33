"""Incremental-decoding inference engine: KV caches and sampling sessions.

The batch autoregressive sampler (Fig. 3) only ever asks the amplitude
network one question: "given this prefix, what is the conditional of the
*next* token?".  Re-running the full transformer over the whole prefix at
every local sampling step costs O(sum_k k^2) attention recompute per layer
and sweep; with per-layer key/value caches the same sweep costs O(k) — the
standard incremental-decoding trick of GPT-style inference servers, applied
to the NNQS sampling loop.

Architecture (see DESIGN.md):

* :class:`KVCache` — the cached keys/values of one attention layer, shape
  ``(batch, heads, t, d_head)``, appended to as the prefix grows and
  *gathered* when the BAS tree branches (one cache row per unique prefix).
* :class:`TransformerInferenceSession` — one in-flight decoding session:
  a list of per-layer caches plus the current position.  ``step()`` consumes
  one token per row and returns the next-position logits;
  ``prefill()`` bootstraps the caches from a whole prefix in one batched
  causal pass (used when resuming a mid-tree :class:`BASTreeState` that
  arrives without a session, e.g. after the parallel split of Fig. 5);
  ``select()`` realigns the cache rows with the surviving/branched prefixes.

Everything in this module is graph-free bookkeeping on raw ``.data``
buffers, allocated through the active backend's ``xp`` namespace — the KV
caches and step activations stay device-resident for the whole sweep.  The
arithmetic of a decode step lives in the modules' ``step`` methods
(``repro.nn.attention``), which call the *same* forward kernels
(``repro.autograd.block_ops``) the taped full forward runs; the full-forward
path (``conditional_logits``) remains the training-time code path and the
correctness oracle in the tests.
"""
from __future__ import annotations

from repro.autograd import no_grad
from repro.backend import xp
from repro.backend.dtypes import int64

__all__ = [
    "KVCache",
    "TransformerInferenceSession",
    "padded_next_logits",
]


def padded_next_logits(model, prefix_tokens):
    """Next-position logits via the full ``conditional_logits`` forward over
    the ``(b, k)`` prefix right-padded to ``k + 1`` — the oracle of a decode
    step (``NNQSWavefunction.conditional_probs_reference``)."""
    prefix_tokens = xp.asarray(prefix_tokens, dtype=int64)
    b, k = prefix_tokens.shape
    padded = xp.zeros((b, k + 1), dtype=int64)
    padded[:, :k] = prefix_tokens
    with no_grad():
        return model.conditional_logits(padded).data[:, k, :]


# --------------------------------------------------------------------------
# KV cache
# --------------------------------------------------------------------------
class KVCache:
    """Cached keys/values of one attention layer: ``(batch, heads, t, d_head)``.

    ``t`` grows by one per decoding step (or by ``k`` on a prefill).  The
    batch axis is *row-aligned with the sampler's unique prefixes*: when the
    BAS tree branches, :meth:`select` duplicates the parent rows for every
    surviving child and drops pruned ones.
    """

    __slots__ = ("k", "v")

    def __init__(self, k=None, v=None):
        self.k = k  # None until the first append
        self.v = v

    @property
    def length(self) -> int:
        return 0 if self.k is None else self.k.shape[2]

    def append(self, k_new, v_new) -> None:
        """Append ``(batch, heads, t_new, d_head)`` keys/values along time."""
        if self.k is None:
            self.k, self.v = k_new, v_new
        else:
            self.k = xp.concatenate([self.k, k_new], axis=2)
            self.v = xp.concatenate([self.v, v_new], axis=2)

    def select(self, idx) -> "KVCache":
        """Gather cache rows: duplicates branching prefixes, drops pruned ones."""
        if self.k is None:
            return KVCache()
        return KVCache(k=self.k[idx], v=self.v[idx])


# --------------------------------------------------------------------------
# Sessions
# --------------------------------------------------------------------------
class TransformerInferenceSession:
    """One in-flight incremental decoding of a :class:`TransformerAmplitude`.

    Invariant: ``pos`` input positions have been consumed (position 0 is the
    BOS token), so the caches cover inputs ``0..pos-1`` and logits have been
    produced for sequence positions ``0..pos-1``.
    """

    def __init__(self, model, batch_size: int = 1):
        self.model = model
        self.batch_size = batch_size
        self.pos = 0
        self.caches = [KVCache() for _ in model.layers]

    def step(self, prev_tokens=None):
        """Consume one token per row, return ``(batch, vocab)`` next logits.

        ``prev_tokens`` is the token sampled at the previous position
        (``None`` on the very first call, which consumes the BOS token).
        """
        return self.model.step(prev_tokens, self)

    def prefill(self, prefix_tokens):
        """Bootstrap the caches from a ``(batch, k)`` prefix in one pass.

        Returns the ``(batch, vocab)`` logits of position ``k``.  Only valid
        on a fresh session (``pos == 0``).
        """
        return self.model.prefill(prefix_tokens, self)

    def select(self, idx) -> "TransformerInferenceSession":
        """Realign cache rows with branched/pruned prefixes (BAS tree split)."""
        out = TransformerInferenceSession.__new__(TransformerInferenceSession)
        out.model = self.model
        out.batch_size = len(idx)
        out.pos = self.pos
        out.caches = [c.select(idx) for c in self.caches]
        return out

    def copy(self) -> "TransformerInferenceSession":
        """Deep-copied session: stepping the copy never mutates the original."""
        out = TransformerInferenceSession.__new__(TransformerInferenceSession)
        out.model = self.model
        out.batch_size = self.batch_size
        out.pos = self.pos
        out.caches = [
            KVCache(None if c.k is None else xp.array(c.k),
                    None if c.v is None else xp.array(c.v))
            for c in self.caches
        ]
        return out

    def reset(self, batch_size: int | None = None) -> "TransformerInferenceSession":
        """Return the session to its fresh state (serving-layer pool hook).

        A reset session is indistinguishable from a newly constructed one —
        the pool's recycled sessions therefore keep sampling bit-identical.
        """
        if batch_size is not None:
            self.batch_size = batch_size
        self.pos = 0
        self.caches = [KVCache() for _ in self.model.layers]
        return self
