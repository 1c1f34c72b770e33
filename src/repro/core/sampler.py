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
inference session (per-layer KV caches, one row per unique prefix) so step k
costs O(k) attention work instead of re-running the full transformer over
the prefix (O(k^2) per layer).  When prefixes branch at
``np.nonzero(counts)`` the cache rows are gathered/duplicated along with
them, and pruned zero-weight children drop their rows.

``SampleBatch`` is the data-centric unit handed to the local-energy kernel
and the gradient step (Fig. 4): unique bitstrings and weights — plus, on a
batch that came out of a sweep, the ``log pi`` of every row, which the sweep
computed anyway (the product of the conditionals it split the weights by).
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from repro.backend import active_backend
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
    aligned with ``prefixes`` (invariant: the session has consumed inputs
    for positions ``< step``, i.e. BOS plus all but the last prefix column).
    A state without a session (e.g. rebuilt after a parallel split shipped
    it across ranks) is resumed by prefilling the caches from the prefix.
    """

    prefixes: np.ndarray   # (P, k) tokens
    weights: np.ndarray    # (P,) int64
    counts_up: np.ndarray  # (P,)
    counts_dn: np.ndarray  # (P,)
    log_prob: np.ndarray   # (P,) log pi(prefix): sum of the k conditionals' logs
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
        # The one planned device->host sync of the sampling loop: the host
        # RNG consumes the conditional probabilities.
        probs = active_backend().to_host(probs, tag="sampling.probs")
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


def _bas_step(wf: NNQSWavefunction, state: BASTreeState,
              rng: np.random.Generator) -> BASTreeState:
    """One local sampling step: expand every prefix, prune zero weights.

    The returned state's session rows are gathered with ``parent_idx`` so
    branched prefixes duplicate their parent's KV cache rows and pruned
    children (zero weight) drop theirs.
    """
    session = state.session
    if session is not None:
        logits = session.step(state.prefixes[:, -1] if state.step > 0 else None)
    else:
        # Fresh root, or a mid-tree state that lost its session (shipped
        # across ranks by the Fig. 5 splitter): one batched prefill.
        session = wf.make_session(len(state.weights))
        logits = session.prefill(state.prefixes)
    probs = wf.probs_from_logits(logits, state.counts_up, state.counts_dn,
                                 state.step)
    parent_idx, children = _split_weights(wf, state, probs, rng)
    if children.step < wf.n_tokens:  # nobody steps the leaves' session
        children.session = session.select(parent_idx)
    return children


def _split_weights(wf: NNQSWavefunction, state: BASTreeState, probs,
                   rng: np.random.Generator) -> tuple[np.ndarray, BASTreeState]:
    """Split every prefix's weight among its child tokens by ``probs``.

    Returns ``(parent_idx, children)``: the session-less next layer (zero-
    weight children pruned) and, per child, the row of ``state`` it extends.
    A child's ``log_prob`` is its parent's plus the log of the conditional it
    was drawn with, read off the host copy the split consumes.
    """
    # The one planned device->host sync per BAS step: the host RNG's
    # multinomial split consumes the conditional probabilities.
    probs = active_backend().to_host(probs, tag="sampling.probs")
    counts = _multinomial_rows(rng, state.weights, probs)  # (P, vocab)
    parent_idx, token = np.nonzero(counts)
    new_prefixes = np.concatenate(
        [state.prefixes[parent_idx], token[:, None]], axis=1
    )
    du, dd = wf.sector_counts(token[:, None].astype(np.int64), start=state.step)
    return parent_idx, BASTreeState(
        prefixes=new_prefixes,
        weights=counts[parent_idx, token],
        counts_up=state.counts_up[parent_idx] + du,
        counts_dn=state.counts_dn[parent_idx] + dd,
        log_prob=state.log_prob[parent_idx] + np.log(probs[parent_idx, token]),
        step=state.step + 1,
    )


def initial_tree_state(n_samples: int) -> BASTreeState:
    """BAS tree root: the empty prefix holding the whole sample budget."""
    return BASTreeState(
        prefixes=np.zeros((1, 0), dtype=np.int64),
        weights=np.array([n_samples], dtype=np.int64),
        counts_up=np.zeros(1, dtype=np.int64),
        counts_dn=np.zeros(1, dtype=np.int64),
        log_prob=np.zeros(1),
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
        state = initial_tree_state(n_samples)
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
    state = initial_tree_state(n_samples)
    while state.step < wf.n_tokens and len(state.weights) < stop_unique:
        state = _bas_step(wf, state, rng)
    return state
