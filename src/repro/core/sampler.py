"""Autoregressive sampling and batch autoregressive sampling (BAS, Fig. 3).

Plain autoregressive sampling draws one configuration per run (N local
samplings).  BAS instead pushes a *budget* of N_s samples down the sampling
tree at once: at every step the current unique prefixes hold integer weights
(occurrence counts) that are split multinomially among the allowed child
tokens, and zero-weight children are pruned.  The output is the set of unique
samples with their occurrence counts — N_s can be astronomically large (the
paper uses up to 1e12) at a cost that depends only on the number of unique
prefixes per layer.

Each local sampling step is *incremental*: the tree state carries an
inference session (a float32 KV cache, one row per undecided unique prefix)
so step k costs O(k) attention work instead of re-running the full
transformer over the prefix (O(k^2) per layer).  When prefixes branch at
``np.nonzero(counts)`` the cache rows are gathered/duplicated along with
them, and pruned zero-weight children drop their rows.  A prefix the
particle-number mask has decided (``constraint.suffix_forced``) has exactly
one admissible token at every later step: it is split by that one-hot
conditional without the decoder, and holds no session row.

``SampleBatch`` is the data-centric unit handed to the local-energy kernel
and the gradient step (Fig. 4): unique bitstrings and weights — plus, on a
batch that came out of a sweep, the ``log pi`` of every row, which the sweep
computed anyway (the product of the conditionals it split the weights by).
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from repro.core.wavefunction import NNQSWavefunction

__all__ = ["SampleBatch", "autoregressive_sample", "batch_autoregressive_sample", "BASTreeState"]


@dataclass
class SampleBatch:
    """Unique samples with occurrence weights (the paper's N_u records)."""

    bits: np.ndarray     # (U, N) uint8
    weights: np.ndarray  # (U,) int64 occurrence counts; sum = N_s
    # (U,) log pi(x) as the BAS sweep accumulated it along each row's tree
    # path; None on a batch that did not come out of a sweep (a table chunk,
    # a client request, the Fig. 3a oracle).
    log_prob: np.ndarray | None = None

    @property
    def n_unique(self) -> int:
        return len(self.weights)

    @property
    def n_samples(self) -> int:
        return int(self.weights.sum())

    def frequencies(self) -> np.ndarray:
        return self.weights / max(self.n_samples, 1)


@dataclass
class BASTreeState:
    """An intermediate layer of the BAS tree (used by the parallel splitter).

    ``session`` is the incremental-decoding state whose cache rows are
    aligned with the *undecided* rows, ``prefixes[undecided]`` (invariant:
    the session has consumed inputs for positions ``< step``, i.e. BOS plus
    all but the last prefix column).  A state with no undecided row has no
    session; a state that lost its session (e.g. shipped across ranks by
    the parallel split) is resumed by prefilling its undecided rows.
    """

    prefixes: np.ndarray   # (P, k) tokens
    weights: np.ndarray    # (P,) int64
    counts_up: np.ndarray  # (P,)
    counts_dn: np.ndarray  # (P,)
    log_prob: np.ndarray   # (P,) log pi(prefix): sum of the k conditionals' logs
    undecided: np.ndarray  # (P,) bool: rows whose next token the decoder draws
    step: int
    session: object | None = field(default=None, repr=False, compare=False)


def autoregressive_sample(wf: NNQSWavefunction, n_samples: int,
                          rng: np.random.Generator) -> SampleBatch:
    """Fig. 3(a): one sample per run — the O(N_s N^3) reference algorithm.

    A single session of ``n_samples`` rows is decoded incrementally.
    """
    t = wf.n_tokens
    tokens = np.zeros((n_samples, 0), dtype=np.int64)
    cu = np.zeros(n_samples, dtype=np.int64)
    cd = np.zeros(n_samples, dtype=np.int64)
    session = wf.make_session(n_samples)
    for step in range(t):
        logits = session.step(tokens[:, -1] if step > 0 else None)
        probs = wf.probs_from_logits(logits, cu, cd, step)  # (B, vocab)
        u = rng.random((n_samples, 1))
        choice = (probs.cumsum(axis=1) < u).sum(axis=1)
        choice = np.minimum(choice, wf.vocab_size - 1)
        tokens = np.concatenate([tokens, choice[:, None]], axis=1)
        du, dd = wf.sector_counts(choice[:, None], start=step)
        cu += du
        cd += dd
    bits = wf.tokens_to_bits(tokens)
    # Collapse duplicates into (unique, weight) form.
    uniq, inverse = np.unique(bits, axis=0, return_inverse=True)
    weights = np.bincount(inverse, minlength=len(uniq)).astype(np.int64)
    return SampleBatch(bits=uniq.astype(np.uint8), weights=weights)


def _multinomial_rows(rng: np.random.Generator, weights: np.ndarray,
                      probs: np.ndarray) -> np.ndarray:
    """Split each integer weight among the outcomes of its probability row.

    One batched draw: ``Generator.multinomial`` broadcasts row-wise and
    consumes the bit stream in the same order as a per-row Python loop, so
    seeded results are unchanged from the scalar implementation.
    """
    if len(weights) == 0:
        return np.zeros(probs.shape, dtype=np.int64)
    return rng.multinomial(weights.astype(np.int64), probs).astype(np.int64)


def _undecided(wf: NNQSWavefunction, counts_up: np.ndarray,
               counts_dn: np.ndarray, step: int) -> np.ndarray:
    """(P,) bool: the length-``step`` prefixes whose next token the decoder
    draws — all but those the sector mask decides; none once complete."""
    if step == wf.n_tokens:
        return np.zeros(len(counts_up), dtype=bool)
    if wf.constraint is None:
        return np.ones(len(counts_up), dtype=bool)
    return ~wf.constraint.suffix_forced(counts_up, counts_dn, step)


def _bas_step(wf: NNQSWavefunction, state: BASTreeState,
              rng: np.random.Generator) -> BASTreeState:
    """One local sampling step: expand every prefix, prune zero weights.

    The session is stepped over the undecided rows only (or, on a state
    without one, opened and prefilled with them); a decided row's
    conditional is the one-hot mask of its forced token — exactly what the
    decoder's masked softmax gives it.  All rows share one multinomial
    split, so the RNG stream is that of a sweep that decoded every row.
    The children's session rows are gathered from their parents' (branched
    prefixes duplicate a row, pruned and decided children drop theirs).
    """
    stepped = state.undecided
    session = state.session
    probs = np.empty((len(stepped), wf.vocab_size))
    if stepped.any():
        if session is None:
            # Fresh root, or a mid-tree state that lost its session (shipped
            # across ranks by the Fig. 5 splitter): one batched prefill.
            session = wf.make_session(int(stepped.sum()))
            logits = session.prefill(state.prefixes[stepped])
        else:
            logits = session.step(
                state.prefixes[stepped, -1] if state.step > 0 else None)
        probs[stepped] = wf.probs_from_logits(
            logits, state.counts_up[stepped], state.counts_dn[stepped], state.step)
    if not stepped.all():
        forced = ~stepped
        probs[forced] = wf.constraint.mask_for_step(
            state.counts_up[forced], state.counts_dn[forced], state.step)
    parent_idx, children = _split_weights(wf, state, probs, rng)
    if children.undecided.any():
        slot = np.cumsum(stepped) - 1            # session row of a stepped row
        children.session = session.select(slot[parent_idx[children.undecided]])
    return children


def _split_weights(wf: NNQSWavefunction, state: BASTreeState, probs,
                   rng: np.random.Generator) -> tuple[np.ndarray, BASTreeState]:
    """Split every prefix's weight among its child tokens by the host array
    ``probs``.

    Returns ``(parent_idx, children)``: the session-less next layer (zero-
    weight children pruned) and, per child, the row of ``state`` it extends.
    A child's ``log_prob`` is its parent's plus the log of the conditional it
    was drawn with (exactly 0.0 for a decided parent's one-hot).
    """
    counts = _multinomial_rows(rng, state.weights, probs)  # (P, vocab)
    parent_idx, token = np.nonzero(counts)
    new_prefixes = np.concatenate(
        [state.prefixes[parent_idx], token[:, None]], axis=1
    )
    du, dd = wf.sector_counts(token[:, None].astype(np.int64), start=state.step)
    counts_up = state.counts_up[parent_idx] + du
    counts_dn = state.counts_dn[parent_idx] + dd
    return parent_idx, BASTreeState(
        prefixes=new_prefixes,
        weights=counts[parent_idx, token],
        counts_up=counts_up,
        counts_dn=counts_dn,
        log_prob=state.log_prob[parent_idx] + np.log(probs[parent_idx, token]),
        undecided=_undecided(wf, counts_up, counts_dn, state.step + 1),
        step=state.step + 1,
    )


def initial_tree_state(wf: NNQSWavefunction, n_samples: int) -> BASTreeState:
    """BAS tree root: the empty prefix holding the whole sample budget."""
    counts_up, counts_dn = np.zeros(1, dtype=np.int64), np.zeros(1, dtype=np.int64)
    return BASTreeState(
        prefixes=np.zeros((1, 0), dtype=np.int64),
        weights=np.array([n_samples], dtype=np.int64),
        counts_up=counts_up,
        counts_dn=counts_dn,
        log_prob=np.zeros(1),
        undecided=_undecided(wf, counts_up, counts_dn, 0),
        step=0,
    )


def batch_autoregressive_sample(
    wf: NNQSWavefunction,
    n_samples: int,
    rng: np.random.Generator,
    start: BASTreeState | None = None,
) -> SampleBatch:
    """Fig. 3(b): generate N_s samples in one tree sweep, cost ~ O(N_u N^3/3).

    ``start`` allows resuming from a mid-tree state — the hook used by the
    parallel BAS of Fig. 5, where ranks share the first k steps and then
    continue on disjoint subsets of the layer-k nodes.  A resumed state
    reuses its carried inference session when present, otherwise the caches
    are rebuilt with one batched prefill.
    """
    state = start
    if state is None:
        state = initial_tree_state(wf, n_samples)
    elif state.session is not None:
        # Stepping mutates a session in place (cache append + position
        # advance): work on a copy so the caller's state stays resumable.
        state = replace(state, session=state.session.copy())
    while state.step < wf.n_tokens:
        state = _bas_step(wf, state, rng)
    bits = wf.tokens_to_bits(state.prefixes)
    return SampleBatch(bits=bits, weights=state.weights.copy(),
                       log_prob=state.log_prob)


def bas_prefix_sweep(
    wf: NNQSWavefunction,
    n_samples: int,
    rng: np.random.Generator,
    stop_unique: int,
) -> BASTreeState:
    """Run BAS until the layer holds >= stop_unique nodes (or the tree ends).

    This implements the paper's dynamic choice of the split step k: "we set a
    threshold N_u^* and choose k to be the first local sampling step such that
    the current number of unique samples N_{u,k} is larger than N_u^*".
    The returned state carries its inference session, so continuing the sweep
    (``batch_autoregressive_sample(..., start=state)``) keeps the KV caches.
    """
    state = initial_tree_state(wf, n_samples)
    while state.step < wf.n_tokens and len(state.weights) < stop_unique:
        state = _bas_step(wf, state, rng)
    return state
