"""The QiankunNet amplitude sub-network: a stack of transformer decoders.

Fig. 2 of the paper: token embedding + positional embedding, L stacked
decoders (masked multi-head self-attention + feed-forward), and a final
linear + softmax head that emits the conditional distribution
pi(x_i | x_{i-1}, ..., x_1) for every position in one forward pass.

Tokens.  The paper samples *two qubits per step* ("since they correspond to
the same spatial orbital", Sec. 3.3), i.e. the vocabulary is
{00, 01, 10, 11} = {empty, up, down, doubly-occupied} and the sequence length
is N/2 for N qubits.  ``vocab_size`` is configurable (2 for the 1-qubit-token
ablation).

Interface contract — all that ``src/`` knows about an amplitude network, and
all a ``register_ansatz`` builder's network has to provide (``api/driver.py``
checks the names once, at materialization):

* ``n_tokens``, ``vocab_size``, ``d_model`` (the Eq. 13 schedule's scale);
* ``make_session(batch) -> session`` — incremental decoding, graph-free:
  ``step(prev_tokens | None)`` / ``prefill(prefix)`` return the next
  position's ``(batch, vocab)`` logits, ``select(idx)`` gathers rows when the
  tree branches, ``copy()`` / ``reset(batch)``, ``batch_size``, ``pos``.  Read
  by the BAS sweep, the walk of ``log_amplitudes`` and the serving pool;
* ``prefix_logits(tokens, node_at, rep_row, level) -> (n_nodes, vocab)``
  Tensor, the taped conditional of every distinct prefix of lexsorted rows.
  Read by ``log_prob`` (stage 5, SR, pretraining);
* ``conditional_logits(tokens)`` — ``(batch, t <= T)`` int tokens (right-padded
  with zeros beyond the known prefix) to a ``(batch, t, vocab)`` Tensor of
  *unnormalized* logits where the entry at position ``i`` depends only on
  tokens ``< i``, so any padding at positions ``>= prefix`` leaves earlier
  conditionals alone.  The dense oracle of the two above: tests only.
"""
from __future__ import annotations

from repro.autograd import Tensor, embedding_lookup
from repro.backend import xp
from repro.backend.dtypes import int64
from repro.backend.host import host_np
from repro.nn.attention import DecoderLayer
from repro.nn.inference import TransformerInferenceSession
from repro.nn.layers import Embedding, LayerNorm, Linear, PositionalEmbedding
from repro.nn.module import Module

__all__ = ["TransformerAmplitude"]


class TransformerAmplitude(Module):
    """Decoder-only transformer emitting autoregressive conditional logits.

    Parameters (paper defaults, Sec. 4.1): ``d_model=16``, ``n_heads=4``,
    ``n_layers=2`` decoders; the embedding has one extra begin-of-sequence
    token so that the conditional of the first position is also learned.
    """

    def __init__(self, n_tokens: int, vocab_size: int = 4, d_model: int = 16,
                 n_heads: int = 4, n_layers: int = 2, d_ff: int | None = None,
                 rng: host_np.random.Generator | None = None):
        super().__init__()
        rng = rng or host_np.random.default_rng()
        self.n_tokens = n_tokens
        self.vocab_size = vocab_size
        self.d_model = d_model
        self.bos = vocab_size  # index of the begin-of-sequence token
        self.tok_emb = Embedding(vocab_size + 1, d_model, rng=rng)
        self.pos_emb = PositionalEmbedding(n_tokens + 1, d_model, rng=rng)
        self.layers = [DecoderLayer(d_model, n_heads, d_ff, rng=rng) for _ in range(n_layers)]
        self.ln_f = LayerNorm(d_model)
        self.head = Linear(d_model, vocab_size, rng=rng)

    def conditional_logits(self, tokens) -> Tensor:
        """(batch, T) int tokens -> (batch, T, vocab) logits, causally masked."""
        tokens = xp.asarray(tokens, dtype=int64)
        if tokens.ndim == 1:
            tokens = tokens[None, :]
        b, t = tokens.shape
        # Shift right: position i attends to [BOS, x_1, ..., x_{i-1}].
        shifted = xp.concatenate(
            [xp.full((b, 1), self.bos, dtype=int64), tokens[:, : t - 1]], axis=1
        )
        x = self.tok_emb(shifted) + self.pos_emb(t)
        for layer in self.layers:
            x = layer(x)
        return self.head(self.ln_f(x))

    def prefix_logits(self, tokens, node_at, rep_row, level) -> Tensor:
        """(n, vocab) logits of the ``n`` distinct prefixes of lexsorted rows.

        Node ``j`` is the length-``level[j]`` prefix of ``tokens[rep_row[j]]``
        and carries the conditional of position ``level[j]`` — what
        :meth:`conditional_logits` computes at every ``(row, position)``
        through it, computed once.  Every layer runs over node rows; only the
        attention core sees ``(batch, T)`` again (``node_at``: see
        ``block_ops.rows_from_nodes``).
        """
        tokens = xp.asarray(tokens, dtype=int64)
        inputs = xp.where(level > 0, tokens[rep_row, level - 1], self.bos)
        x = self.tok_emb(inputs) + embedding_lookup(self.pos_emb.weight, level)
        for layer in self.layers:
            x = layer(x, (node_at, rep_row, level))
        return self.head(self.ln_f(x))

    # ------------------------------------------------- incremental decoding
    def make_session(self, batch_size: int = 1) -> TransformerInferenceSession:
        """Open a KV-cached decoding session (see repro.nn.inference)."""
        return TransformerInferenceSession(self, batch_size)

    def _decode(self, inputs, session: TransformerInferenceSession):
        """Run ``(batch, t_new)`` *input* tokens through the cached stack.

        Inputs are already shifted (BOS first); returns the ``(batch, vocab)``
        logits of the last new position.  Graph-free ``xp`` math only.
        """
        b, t_new = inputs.shape
        pos = session.pos
        # Valid inputs are BOS + the first n_tokens-1 tokens; one more step
        # would read the never-trained extra positional-embedding row.
        if pos + t_new > self.n_tokens:
            raise ValueError(
                f"decoding past the model's {self.n_tokens}-token sequence "
                f"(position {pos + t_new - 1})"
            )
        x = self.tok_emb.weight.data[inputs] + self.pos_emb.weight.data[pos:pos + t_new]
        for layer, cache in zip(self.layers, session.caches):
            x = layer.step(x, cache)
        session.pos = pos + t_new
        logits = self.head.step(self.ln_f.step(x[:, -1:, :]))
        return logits[:, 0, :]

    def step(self, prev_tokens, session: TransformerInferenceSession):
        """Consume one token per row; return next-position ``(batch, vocab)`` logits."""
        if prev_tokens is None:
            if session.pos != 0:
                raise ValueError("prev_tokens required once the session has started")
            inputs = xp.full((session.batch_size, 1), self.bos, dtype=int64)
        else:
            if session.pos == 0:
                raise ValueError(
                    "the first step consumes BOS: call step(None) or prefill()"
                )
            inputs = xp.asarray(prev_tokens, dtype=int64).reshape(-1, 1)
        return self._decode(inputs, session)

    def prefill(self, prefix_tokens, session: TransformerInferenceSession):
        """Build the session caches from a whole ``(batch, k)`` prefix at once."""
        if session.pos != 0:
            raise ValueError("prefill requires a fresh session")
        prefix = xp.asarray(prefix_tokens, dtype=int64)
        if prefix.ndim == 1:
            prefix = prefix[None, :]
        bos = xp.full((len(prefix), 1), self.bos, dtype=int64)
        return self._decode(xp.concatenate([bos, prefix], axis=1), session)
