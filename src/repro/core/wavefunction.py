"""QiankunNet: the transformer-based neural network quantum state (Fig. 2).

The wave function is decomposed as Psi(x) = |Psi(x)| e^{i phi(x)} (Eq. 11):
the squared amplitude |Psi(x)|^2 = pi(x) is an autoregressive distribution
modeled by a decoder-only transformer over 2-qubit tokens, and the phase
phi(x) is a separate MLP.  Any amplitude network answering the protocol that
``TransformerAmplitude`` documents ("Interface contract") can be substituted;
``benchmarks/baseline_ansatze.py`` has two.

Token layout: spatial orbital ``i`` = qubits ``(2i, 2i+1)``; the sampling
order follows Ref. [27] (reverse order of the qubits after Jordan-Wigner), so
token position ``p`` addresses orbital ``order[p]`` with ``order`` reversed by
default.
"""
from __future__ import annotations

import numpy as np

from repro.autograd import Tensor, no_grad
from repro.autograd.block_ops import MASK_VALUE, log_softmax, picked_log_softmax, softmax
from repro.core.constraints import ParticleNumberConstraint
from repro.nn import Module, PhaseMLP, TransformerAmplitude
from repro.nn.inference import padded_next_logits

__all__ = ["NNQSWavefunction", "build_qiankunnet", "ROW_BLOCK", "PREFIX_BLOCK",
           "row_blocks", "token_order", "prefix_tree"]

# Row bound of one forward (or forward + backward) pass.  A layer's chain of
# elementwise passes runs at cache speed only while its widest activation
# (rows x positions x d_ff doubles — 5 KB per row at N2's T = 10, d_ff = 64)
# stays L2-resident; past that every pass streams from memory and a row costs
# more (N2, 545 rows taped: 104 ms in one block, 76 ms in 256-row blocks).
# A constant, not a config field: any value gives the same result to
# reduction-order rounding, so there is nothing for a user to trade.
ROW_BLOCK = 256

# Row bound of one prefix-tree walk (``NNQSWavefunction._log_prob_shared``).
# A walk holds one KV-cache row per distinct prefix of its rows, so the bound
# keeps the evaluator's memory O(block) instead of O(batch).  Larger than
# ROW_BLOCK because every block pays the sequence's Python-level decode steps
# again while sharing barely changes (N2 exact, ~4 900 coupled rows: 13 314
# session rows stepped in 256-row blocks, 13 177 in one walk, 48 770 dense).
# Measured there per iteration / peak RSS: 256 rows 0.230 s / 99 MiB, 1 024
# rows 0.205 s / 102 MiB, one walk 0.212 s / 139 MiB (dense parent: 0.300 s /
# 101 MiB).  A constant for ROW_BLOCK's reason: results agree to rounding.
PREFIX_BLOCK = 1024


def row_blocks(n_rows: int, bound: int | None = None) -> list[slice]:
    """Evenly sized contiguous row slices of at most ``bound`` rows each
    (``ROW_BLOCK`` by default; none for zero rows)."""
    n_blocks = -(-n_rows // (bound or ROW_BLOCK))
    return [
        slice(n_rows * i // n_blocks, n_rows * (i + 1) // n_blocks)
        for i in range(n_blocks)
    ]


def token_order(tokens: np.ndarray) -> np.ndarray:
    """The permutation that lexsorts ``(n, T)`` token rows, position 0 major:
    rows sharing a prefix become adjacent."""
    return np.lexsort(tokens.T[::-1])


def prefix_tree(tokens: np.ndarray):
    """The distinct prefixes of lexsorted ``(n, T)`` token rows, level-major.

    Returns ``(rep_row, level, offsets, node)``.  Node ``j`` is the
    length-``level[j]`` prefix of row ``rep_row[j]``, the first row through
    it; level ``k``'s nodes are ``offsets[k]:offsets[k + 1]``, in row order,
    for ``k = 0`` (the empty prefix) ``.. T`` (the distinct rows).
    ``node[k, i]`` is row ``i``'s index among level ``k``'s nodes: the rows
    through one node are contiguous, a child's parent is ``node[k,
    rep_row[child]]`` one level up, and duplicate rows share a leaf.  Integer
    work only — the KV-cached walk and the taped node-major pass both read
    their tree off this.
    """
    n, t = tokens.shape
    # first[k, i]: row i differs from the row above within its first k
    # tokens, i.e. it opens a distinct prefix of length k.
    first = np.zeros((t + 1, n), dtype=bool)
    first[:, :1] = True
    np.logical_or.accumulate(tokens[1:] != tokens[:-1], axis=1, out=first.T[1:, 1:])
    level, rep_row = np.nonzero(first)
    offsets = np.searchsorted(level, np.arange(t + 2))
    return rep_row, level, offsets, np.cumsum(first, axis=1) - 1


class NNQSWavefunction(Module):
    """Amplitude network + phase network + particle-number constraint."""

    def __init__(self, n_qubits: int, amplitude: Module, phase: Module,
                 constraint: ParticleNumberConstraint | None,
                 token_bits: int = 2, reverse_order: bool = True):
        super().__init__()
        if n_qubits % token_bits:
            raise ValueError("n_qubits must be divisible by token_bits")
        self.n_qubits = n_qubits
        self.token_bits = token_bits
        self.vocab_size = 2**token_bits
        self.n_tokens = n_qubits // token_bits
        self.amplitude = amplitude
        self.phase = phase
        self.constraint = constraint
        order = np.arange(self.n_tokens)
        self.order = order[::-1].copy() if reverse_order else order
        # Rebuild recipe (set by build_qiankunnet) — makes the wavefunction
        # snapshottable for the model registry (core/checkpoint.py).
        self.spec: dict | None = None
        # Serving-layer hook: when set, make_session() delegates here so a
        # SessionPool (repro/serve/pool.py) can hand out recycled sessions.
        self.session_factory = None
        # Move the parameters into their arena now (Module.arena would on
        # first use): every later reader finds them where they will stay.
        self.arena()

    # -------------------------------------------------------- token mapping
    def bits_to_tokens(self, bits: np.ndarray) -> np.ndarray:
        """(B, N) 0/1 -> (B, T) tokens in sampling order."""
        bits = np.atleast_2d(np.asarray(bits, dtype=np.int64))
        if self.token_bits == 2:
            toks = bits[:, 0::2] + 2 * bits[:, 1::2]  # orbital-indexed
        else:
            toks = bits
        return toks[:, self.order]

    def tokens_to_bits(self, tokens: np.ndarray) -> np.ndarray:
        tokens = np.atleast_2d(np.asarray(tokens, dtype=np.int64))
        inv = np.empty_like(self.order)
        inv[self.order] = np.arange(self.n_tokens)
        toks = tokens[:, inv]
        b = tokens.shape[0]
        bits = np.zeros((b, self.n_qubits), dtype=np.uint8)
        if self.token_bits == 2:
            bits[:, 0::2] = toks & 1
            bits[:, 1::2] = toks >> 1
        else:
            bits[:] = toks
        return bits

    # -------------------------------------------------- differentiable heads
    def log_prob(self, bits: np.ndarray) -> Tensor:
        """(B,) log pi(x) = log |Psi(x)|^2, differentiable.

        The log of the constrained, renormalized conditionals, picked at the
        sampled tokens and summed over positions — one block op.  Under a
        causal decoder the conditional at position ``k`` depends on the
        length-``k`` prefix alone, so the pass is taped node-major: the rows
        are lexsorted and the amplitude network's ``prefix_logits`` runs over
        one row per *distinct* prefix (:func:`prefix_tree`), equal to
        :meth:`log_prob_reference` to rounding.  Rows come back in input
        order; duplicates share their nodes.
        """
        tokens = self.bits_to_tokens(bits)
        t = self.n_tokens
        order = token_order(tokens)
        ordered = tokens[order]
        rep_row, level, offsets, node = prefix_tree(ordered)
        rep_row, level = rep_row[: offsets[t]], level[: offsets[t]]  # no leaves
        node_at = (node[:t] + offsets[:t, None]).T    # (B, T), node-major index
        logits = self.amplitude.prefix_logits(ordered, node_at, rep_row, level)
        allowed = None
        if self.constraint is not None:
            counts_up, counts_dn = self.constraint.counts_before(ordered)
            allowed = self.constraint.mask_for_step(
                counts_up[rep_row, level], counts_dn[rep_row, level], level)
        in_input_order = np.empty(node_at.shape, dtype=np.int64)
        in_input_order[order] = node_at
        return picked_log_softmax(logits, allowed, tokens, in_input_order)

    def log_prob_reference(self, bits: np.ndarray) -> Tensor:
        """Dense oracle for :meth:`log_prob`, the sweep's and the walk's
        ``log pi``: every row through every layer at every position
        (``conditional_logits``), no sharing.  For testing purposes only."""
        tokens = self.bits_to_tokens(bits)
        logits = self.amplitude.conditional_logits(tokens)
        allowed = None
        if self.constraint is not None:
            allowed = self.constraint.mask_sequence(tokens)
        return picked_log_softmax(logits, allowed, tokens)

    def phase_of(self, bits: np.ndarray) -> Tensor:
        """(B,) phase phi(x) in radians, differentiable."""
        return self.phase(np.atleast_2d(bits))

    # ------------------------------------------------------------ inference
    def amplitudes(self, bits: np.ndarray) -> np.ndarray:
        """(B,) complex Psi(x) = sqrt(pi(x)) exp(i phi(x)) — inference only."""
        return np.exp(self.log_amplitudes(bits))

    def log_amplitudes(self, bits: np.ndarray) -> np.ndarray:
        """(B,) complex log Psi(x) (avoids underflow for tiny amplitudes).

        The no-grad entry point for bits the caller was *given*
        (``extend_amplitude_table``, serving, observables; stage 2 is not
        one — the sweep hands it ``log pi``).  ``log pi`` comes from the
        prefix-shared walk (:meth:`_log_prob_shared`) in blocks of
        ``PREFIX_BLOCK`` rows, the phase from the MLP in blocks of
        ``ROW_BLOCK``: memory is bounded for any batch size, and a row's value
        does not depend on its batch-mates beyond BLAS rounding (the walk and
        :meth:`log_prob_reference` agree to 1e-12, not bitwise).
        """
        bits = np.atleast_2d(bits)
        return 0.5 * self._log_prob_shared(bits) + 1j * self.phases(bits)

    def phases(self, bits: np.ndarray) -> np.ndarray:
        """(B,) phi(x) without a tape, one row block at a time — the half of
        :meth:`log_amplitudes` a caller that holds ``log pi`` still needs."""
        bits = np.atleast_2d(bits)
        out = np.empty(len(bits))
        with no_grad():
            for rows in row_blocks(len(bits)):
                out[rows] = self.phase_of(bits[rows]).data
        return out

    def _log_prob_shared(self, bits: np.ndarray) -> np.ndarray:
        """(B,) log pi(x), each distinct token prefix evaluated once.

        The rows are lexsorted (position 0 major) so rows sharing a prefix
        are adjacent, cut into contiguous blocks of at most ``PREFIX_BLOCK``
        rows, and each block's prefix tree is walked through one KV-cached
        session.  Duplicate rows share a leaf; input order is restored.
        """
        tokens = self.bits_to_tokens(bits)
        order = token_order(tokens)
        tokens = tokens[order]
        out = np.empty(len(tokens))
        for rows in row_blocks(len(tokens), PREFIX_BLOCK):
            out[order[rows]] = self._walk_prefix_tree(tokens[rows])
        return out

    def _walk_prefix_tree(self, tokens: np.ndarray) -> np.ndarray:
        """log pi of lexsorted ``(n, T)`` token rows, one decode step per level.

        Level ``k`` holds the distinct length-``k`` prefixes
        (:func:`prefix_tree`), each represented by its first row and owning
        one session row; the session is stepped once over them, the
        constrained log-conditionals are added to the running ``logp`` of
        every distinct child, and the session branches with
        ``select(parent)`` exactly as ``_bas_step`` does.
        """
        t = tokens.shape[1]
        rep_row, _, offsets, node = prefix_tree(tokens)
        if self.constraint is not None:
            counts_up, counts_dn = self.constraint.counts_before(tokens)
        session = self.make_session(1)
        logp = np.zeros(1)
        for k in range(t):
            rows = rep_row[offsets[k]:offsets[k + 1]]
            logits = session.step(tokens[rows, k - 1] if k else None)
            if self.constraint is not None:
                allowed = self.constraint.mask_for_step(
                    counts_up[rows, k], counts_dn[rows, k], k)
                logits = np.where(allowed, logits, MASK_VALUE)
            child = rep_row[offsets[k + 1]:offsets[k + 2]]
            parent = node[k, child]
            logp = logp[parent] + log_softmax(logits)[parent, tokens[child, k]]
            if k + 1 < t:
                session = session.select(parent)
        return logp[node[t]]

    def make_session(self, batch_size: int = 1):
        """Open an incremental decoding session on the amplitude network
        (the transformer's is KV-cached, O(k) per step) — the sampler's and
        the walk's hot path, see DESIGN.md.  A ``session_factory`` hook (set
        by the serving layer's session pool) intercepts creation; a recycled
        session is reset first, so the numerics are those of a fresh one.
        """
        return (self.session_factory or self.amplitude.make_session)(batch_size)

    def probs_from_logits(self, logits: np.ndarray, counts_up: np.ndarray,
                          counts_dn: np.ndarray, step: int) -> np.ndarray:
        """Constrain + renormalize raw next-token logits into (B, vocab) probs."""
        if self.constraint is not None:
            allowed = self.constraint.mask_for_step(counts_up, counts_dn, step)
            logits = np.where(allowed, logits, MASK_VALUE)
        return softmax(logits)

    def conditional_probs(self, prefix_tokens: np.ndarray,
                          counts_up: np.ndarray, counts_dn: np.ndarray) -> np.ndarray:
        """(B, vocab) masked, renormalized pi(x_k | prefix) — sampler hot path.

        Drives a one-shot inference session (``prefill`` over the prefix);
        callers that sample many steps should hold a session themselves so
        the KV caches persist across steps (see ``core/sampler.py``).
        """
        b, k = prefix_tokens.shape
        session = self.make_session(b)
        logits = session.prefill(prefix_tokens)
        return self.probs_from_logits(logits, counts_up, counts_dn, k)

    def conditional_probs_reference(self, prefix_tokens: np.ndarray,
                                    counts_up: np.ndarray,
                                    counts_dn: np.ndarray) -> np.ndarray:
        """Full-forward oracle for :meth:`conditional_probs` (pre-cache path).

        Runs the differentiable ``conditional_logits`` graph under
        ``no_grad`` — the numerics of the training-time code path.  For
        testing purposes only: the correctness oracle of the incremental
        engine (``tests/test_inference.py``) and the uncached side of
        ``benchmarks/bench_sampling_throughput.py``; no sampler calls it.
        """
        k = prefix_tokens.shape[1]
        logits = padded_next_logits(self.amplitude, prefix_tokens)
        return self.probs_from_logits(logits, counts_up, counts_dn, k)

    def sector_counts(self, tokens: np.ndarray,
                      start: int = 0) -> tuple[np.ndarray, np.ndarray]:
        """(up, dn) electron counts contained in ``(B, k)`` token columns that
        sit at sampling positions ``start .. start + k - 1`` (a prefix by
        default)."""
        if self.token_bits == 2:
            up = (tokens & 1).sum(axis=1)
            dn = (tokens >> 1).sum(axis=1)
        else:
            # Position p addresses qubit order[p]; even qubits are spin-up.
            spin = self.order[start : start + tokens.shape[1]] % 2
            up = (tokens * (spin[None, :] == 0)).sum(axis=1)
            dn = (tokens * (spin[None, :] == 1)).sum(axis=1)
        return up, dn


def build_qiankunnet(
    n_qubits: int,
    n_up: int,
    n_dn: int,
    d_model: int = 16,
    n_heads: int = 4,
    n_layers: int = 2,
    phase_hidden: tuple[int, ...] = (512, 512),
    token_bits: int = 2,
    constrain: bool = True,
    reverse_order: bool = True,
    seed: int = 0,
) -> NNQSWavefunction:
    """QiankunNet with the paper's Sec. 4.1 defaults; the returned
    wavefunction records these arguments as its rebuild ``spec``."""
    rng = np.random.default_rng(seed)
    n_tokens = n_qubits // token_bits
    vocab = 2**token_bits
    amp = TransformerAmplitude(
        n_tokens, vocab, d_model=d_model, n_heads=n_heads, n_layers=n_layers, rng=rng
    )
    phase = PhaseMLP(n_qubits, hidden=phase_hidden, rng=rng)
    constraint = None
    if constrain:
        pos_spin = None
        if token_bits == 1:
            order = np.arange(n_tokens)
            if reverse_order:
                order = order[::-1]
            pos_spin = order % 2  # position p addresses qubit order[p]
        constraint = ParticleNumberConstraint(
            n_tokens, n_up, n_dn, vocab_size=vocab, pos_spin=pos_spin
        )
    wf = NNQSWavefunction(
        n_qubits, amp, phase, constraint, token_bits=token_bits,
        reverse_order=reverse_order,
    )
    wf.spec = {
        "n_qubits": n_qubits,
        "n_up": n_up,
        "n_dn": n_dn,
        "d_model": d_model,
        "n_heads": n_heads,
        "n_layers": n_layers,
        "phase_hidden": list(phase_hidden),
        "token_bits": token_bits,
        "constrain": constrain,
        "reverse_order": reverse_order,
        "seed": seed,
    }
    return wf
