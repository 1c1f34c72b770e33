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

from repro.core.constraints import ParticleNumberConstraint
from repro.nn import PHASE_HIDDEN, Module, PhaseMLP, TransformerAmplitude
from repro.nn.kernels import (
    MASK_VALUE,
    log_softmax,
    picked_log_softmax_backward,
    picked_log_softmax_forward,
    softmax,
)

__all__ = ["NNQSWavefunction", "build_qiankunnet", "ROW_BLOCK", "PREFIX_BLOCK",
           "PHASE_BLOCK", "PHASE_KEEP_BYTES", "PhaseForward", "row_blocks",
           "token_order", "prefix_tree"]

# Row bound of one block of stage 5's forward/VJP pair
# (``NNQSWavefunction.log_prob_vjp``), which holds one block's float32
# activations until its backward.  Each block pays the pair's ~40 Python-level
# kernel calls per layer again, while the activations stay small: N2's 535-row
# stage-5 chunk (one OpenBLAS thread of an AMD EPYC core) takes 2.9 ms in
# 256-row blocks, 2.4 in 512 and 1.85 in one 1 024-row block; the tracemalloc
# peak over 1 173 rows is 2.8 / 4.4 / 6.3 MiB, and 11.5 MiB at 2 048.  A
# constant, not a config field: any value gives the same result to
# reduction-order rounding, so there is nothing for a user to trade.
ROW_BLOCK = 1024

# Row bound of one prefix-tree walk (``NNQSWavefunction._log_prob_shared``).
# A walk holds one KV-cache row per distinct open prefix of its rows (float32,
# 2.5 KB per row at N2's T = 10, d_model = 16, two layers), so the bound keeps
# the evaluator's memory O(block) instead of O(batch).  Larger than ROW_BLOCK
# because every block pays the sequence's Python-level decode steps again
# while sharing barely changes.  Measured on N2 exact (~5 200 coupled rows per
# iteration, one OpenBLAS thread of an AMD EPYC core, alternating pairs of
# benchmark runs): 2 048 against 1 024 rows -8 % per iteration (6 of 6 pairs)
# at flat peak RSS; 4 096 another -4 % but +1.4 MiB (6 of 6).  A constant for
# ROW_BLOCK's reason: results agree to rounding.
PREFIX_BLOCK = 2048

# Row bound of one phase-MLP block (``NNQSWavefunction.phases`` and
# ``phase_vjp``): the float32 GEMM chain keeps no tape.  At 512 wide, on N2
# exact 1 024-row blocks beat 256 in 19 of 20 alternating pairs (-2 ... -3 %
# per iteration, a gap inside the runs' quartile spread) for +0.3 MiB peak
# RSS; 2 048 cost another +2.3 MiB (10 of 10 pairs, with 2 048-row walk
# blocks).  Re-measured at the default 256 wide on the ``n2_exact`` set-up
# (one process, 12 interleaved pairs of 3 ``VMC.step()`` per side, seeds 1
# and 2): 2 048 was faster in 4 and 7 of 12 pairs, medians 37.4 / 37.6 and
# 39.3 / 39.9 ms per step, tracemalloc peaks 3.7-4.9 MiB either way — no
# win, so 1 024 stays.
PHASE_BLOCK = 1024

# Byte bound of the phase-MLP activations stage 2 keeps for stage 5
# (``NNQSWavefunction.phase_forward``): blocks past it are dropped after their
# phases are read, and ``phase_vjp`` recomputes them.  A kept row holds its
# float32 hidden layers, ``PhaseMLP.row_bytes`` = 4 x sum(hidden) bytes, so
# the bound keeps 4 096 rows of the paper's 512 x 512 net and 8 192 of the
# default 256 x 256 one: N2 at N_s 1e9 (N_u ~5.5k) keeps every row.  Keeping
# is a pure time/memory trade with no knee: 8 192 rows of the 512-wide net
# (one OpenBLAS thread, median of 12 interleaved rounds) take 196 ms forward
# + VJP recomputing every block, 173 / 170 / 147 ms keeping 2 048 / 4 096 /
# 8 192 rows, at a tracemalloc peak of 11 / 15 / 23 / 39 MiB.  16 MiB is the
# E_loc budget of ``n2_exact``; it follows the width, so there is no knob.
PHASE_KEEP_BYTES = 16 * 2**20


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
    rows sharing a prefix become adjacent.

    A token is < 4, so each row packs base 4, position 0 most significant,
    into ``ceil(T / 32)`` uint64 words; a stable sort of the words is the
    T-key lexsort's permutation, ties included, at a fraction of its cost
    (one key for T <= 32, where a lexsort would take T).
    """
    cols = tokens.T.astype(np.uint64)
    words = []
    for start in range(0, len(cols), 32):
        word = np.zeros(len(tokens), dtype=np.uint64)
        for col in cols[start:start + 32]:
            word <<= 2
            word |= col
        words.append(word)
    if len(words) == 1:
        return np.argsort(words[0], kind="stable")
    return np.lexsort(words[::-1])


def prefix_tree(tokens: np.ndarray):
    """The distinct prefixes of lexsorted ``(n, T)`` token rows, level-major.

    Returns ``(rep_row, level, offsets, node)``.  Node ``j`` is the
    length-``level[j]`` prefix of row ``rep_row[j]``, the first row through
    it; level ``k``'s nodes are ``offsets[k]:offsets[k + 1]``, in row order,
    for ``k = 0`` (the empty prefix) ``.. T`` (the distinct rows).
    ``node[k, i]`` is row ``i``'s index among level ``k``'s nodes: the rows
    through one node are contiguous, a child's parent is ``node[k,
    rep_row[child]]`` one level up, and duplicate rows share a leaf.  Integer
    work only — the KV-cached walk and stage 5's forward/VJP pair both read
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


class PhaseForward:
    """One :meth:`NNQSWavefunction.phase_forward` over some rows, kept for
    :meth:`NNQSWavefunction.phase_vjp` of the same rows: the float32
    parameters it ran on, its row blocks and, per block, the hidden
    activations (``None`` past ``PHASE_KEEP_BYTES``).  The caller holds it from
    one stage to the next; nothing on the wavefunction refers to it, and
    ``phase_vjp`` consumes it, releasing each block as it goes."""

    __slots__ = ("n_rows", "params32", "blocks", "hidden")

    def __init__(self, n_rows: int, params32: list, blocks: list, hidden: list):
        self.n_rows, self.params32 = n_rows, params32
        self.blocks, self.hidden = blocks, hidden


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

    # ---------------------------------------------------------- the oracle
    # Each delegator imports the tape itself: a production process never
    # touches it, so it never loads it.
    def log_prob(self, bits: np.ndarray):
        """(B,) log pi(x), taped in float64 — for testing purposes only."""
        from repro.autograd import oracle
        return oracle.log_prob(self, bits)

    def phase_of(self, bits: np.ndarray):
        """(B,) phi(x), taped in float64 — for testing purposes only."""
        from repro.autograd import oracle
        return oracle.forward(self.phase, bits)

    def conditional_probs_reference(self, prefix_tokens, counts_up, counts_dn):
        """:meth:`conditional_probs` through the dense float64 forward — for
        testing purposes only."""
        from repro.autograd import oracle
        return oracle.conditional_probs_reference(self, prefix_tokens, counts_up, counts_dn)

    # ------------------------------------------------------------ gradients

    def log_prob_vjp(self, bits: np.ndarray, coeff: np.ndarray) -> np.ndarray:
        """(B,) float64 log pi(bits); adds ``sum_i coeff[i] d log pi(bits[i])
        / dtheta`` into the amplitude network's ``p.grad`` — stage 5's
        amplitude half and pretraining, off the tape.

        The rows are lexsorted and cut into ``ROW_BLOCK`` blocks; each
        block's prefix tree goes through the network's graph-free pair once
        (:meth:`_prefix_vjp`).  Rows come back in input order; duplicates
        share their nodes.  Equal to the oracle's :meth:`log_prob` and its
        tape to float32 rounding (``tests/test_precision.py``).
        """
        tokens = self.bits_to_tokens(bits)
        order = token_order(tokens)
        tokens = tokens[order]
        coeff = np.asarray(coeff, dtype=np.float64)[order]
        out = np.empty(len(tokens))
        for rows in row_blocks(len(tokens)):
            out[order[rows]] = self._prefix_vjp(tokens[rows], coeff[rows])
        return out

    def _prefix_vjp(self, tokens: np.ndarray, coeff: np.ndarray) -> np.ndarray:
        """:meth:`log_prob_vjp` of lexsorted ``(n, T)`` token rows.

        Under a causal decoder the conditional at position ``k`` depends on
        the length-``k`` prefix alone, so the network's ``prefix_forward``
        runs over one node per distinct *open* prefix (:func:`prefix_tree`,
        :meth:`_open_nodes`).  A decided node's conditional is exactly 1: it
        is not evaluated and its positions add exactly zero, in value and
        gradient (``node_at`` -1).  The masked, picked log-softmax and its
        closed-form backward are ``nodes x vocab`` and stay float64
        (``repro.nn.kernels``).
        """
        t = self.n_tokens
        rep_row, level, offsets, node = prefix_tree(tokens)
        is_open, counts = self._open_nodes(tokens, rep_row, level, offsets, node)
        keep = np.flatnonzero(is_open[: offsets[t]])        # no leaves
        if not len(keep):            # the sector fixes every token: log pi = 0
            return np.zeros(len(tokens))
        slot = np.full(offsets[t], -1)
        slot[keep] = np.arange(len(keep))
        node_at = slot[(node[:t] + offsets[:t, None]).T]    # (n, T), -1: decided
        rep_row, level = rep_row[keep], level[keep]
        logits, saved = self.amplitude.prefix_forward(tokens, rep_row, level)
        allowed = None
        if counts is not None:
            allowed = self.constraint.mask_for_step(
                counts[0][rep_row, level], counts[1][rep_row, level], level)
        logp, p, flat = picked_log_softmax_forward(logits, allowed, tokens, node_at)
        self.amplitude.prefix_vjp(saved, picked_log_softmax_backward(coeff, p, flat, allowed))
        return logp

    def phase_vjp(self, bits: np.ndarray, coeff: np.ndarray,
                  forward: PhaseForward | None = None) -> None:
        """Add ``sum_i coeff[i] dphi(bits[i]) / dtheta`` into the phase
        network's ``p.grad``, ``PHASE_BLOCK`` rows at a time — stage 5's
        phase half, off the tape (``PhaseMLP.vjp``: float32 GEMMs, the
        gauge-direction output bias summed in float64).

        ``forward`` is :meth:`phase_forward` of these bits: its float32
        parameters and blocks are used, a kept block runs no forward GEMM,
        and the gradient is the bits it would be without it.  It is consumed
        — each block's activations are released once differentiated, its
        parameters at the end.  Without it the parameters are cast once per
        call and every block runs its forward."""
        bits = np.atleast_2d(bits)
        if forward is None:
            blocks = row_blocks(len(bits), PHASE_BLOCK)
            forward = PhaseForward(len(bits), self.phase.cast32(), blocks,
                                   [None] * len(blocks))
        if forward.n_rows != len(bits):
            raise ValueError(
                f"phase_vjp: the forward covers {forward.n_rows} rows, "
                f"the bits are {len(bits)}")
        for b, rows in enumerate(forward.blocks):
            hidden, forward.hidden[b] = forward.hidden[b], None
            self.phase.vjp(bits[rows], coeff[rows], forward.params32, hidden)
        forward.params32 = None

    # ------------------------------------------------------------ inference
    def amplitudes(self, bits: np.ndarray) -> np.ndarray:
        """(B,) complex Psi(x) = sqrt(pi(x)) exp(i phi(x)) — inference only."""
        return np.exp(self.log_amplitudes(bits))

    def log_amplitudes(self, bits: np.ndarray, params32=None) -> np.ndarray:
        """(B,) complex log Psi(x) (avoids underflow for tiny amplitudes).

        The no-grad entry point for bits the caller was *given*
        (``extend_amplitude_table``, serving, observables; stage 2 is not
        one — the sweep hands it ``log pi``).  ``log pi`` comes from the
        prefix-shared walk (:meth:`_log_prob_shared`, the float32 KV-cached
        decoder) in blocks of ``PREFIX_BLOCK`` rows, the phase from the MLP's
        float32 evaluator (:meth:`phases`) in blocks of ``PHASE_BLOCK``:
        memory is bounded for any batch size, and a row's value does not
        depend on its batch-mates beyond rounding (the walk and
        :meth:`log_prob` agree to ~1e-6, the phase and
        :meth:`phase_of` to ~2e-7 rad; ``tests/test_precision.py``);
        ``params32`` goes to :meth:`phases`.
        """
        bits = np.atleast_2d(bits)
        return 0.5 * self._log_prob_shared(bits) + 1j * self.phases(bits, params32)

    def phases(self, bits: np.ndarray, params32=None) -> np.ndarray:
        """(B,) phi(x) without a tape, ``PHASE_BLOCK`` rows at a time — the
        phase half of :meth:`log_amplitudes`.  Float32 GEMMs
        (``PhaseMLP.step``), within ~2e-7 rad of :meth:`phase_of`, the taped
        float64 oracle.  The parameters are cast to float32 once per call,
        not once per block — unless the caller holds ``params32``, a
        ``phase.cast32()`` of the current parameters (stage 2's, in stage 3)."""
        bits = np.atleast_2d(bits)
        out = np.empty(len(bits))
        if params32 is None:
            params32 = self.phase.cast32()
        for rows in row_blocks(len(bits), PHASE_BLOCK):
            out[rows] = self.phase.step(bits[rows], params32)
        return out

    def phase_forward(self, bits: np.ndarray) -> tuple[np.ndarray, PhaseForward]:
        """``(phi, forward)``: :meth:`phases` of ``bits``, bit for bit, and the
        forward it ran, kept for :meth:`phase_vjp` of the same bits — stage 2
        evaluates its chunk here and stage 5 differentiates the result.  The
        hidden activations of the blocks within the first
        ``PHASE_KEEP_BYTES // phase.row_bytes`` rows are kept, with the one
        float32 cast they were computed with; a later block's are dropped as
        soon as its phases are read, and ``phase_vjp`` recomputes them."""
        bits = np.atleast_2d(bits)
        out = np.empty(len(bits))
        params32 = self.phase.cast32()
        blocks = row_blocks(len(bits), PHASE_BLOCK)
        keep_rows = PHASE_KEEP_BYTES // self.phase.row_bytes
        kept = []
        for rows in blocks:
            out[rows], hidden = self.phase.forward(bits[rows], params32)
            kept.append(hidden if rows.stop <= keep_rows else None)
            del hidden          # a dropped block goes before the next one runs
        return out, PhaseForward(len(bits), params32, blocks, kept)

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
        (:func:`prefix_tree`), each represented by its first row.  The open
        ones (:meth:`_open_nodes`) own one session row each; the session is
        stepped once over them, their constrained log-conditionals are added
        to the running ``logp`` of every distinct child, and the session
        branches with ``select`` exactly as ``_bas_step`` does.  A decided
        node's single child inherits its parent's ``logp`` (+0.0, the exact
        log of its conditional) and no session row.
        """
        t = tokens.shape[1]
        rep_row, level, offsets, node = prefix_tree(tokens)
        is_open, counts = self._open_nodes(tokens, rep_row, level, offsets, node)
        session = self.make_session(1) if is_open[0] else None
        logp = np.zeros(1)
        for k in range(t):
            stepped = is_open[offsets[k]:offsets[k + 1]]
            child = rep_row[offsets[k + 1]:offsets[k + 2]]
            parent = node[k, child]
            gain = np.zeros(len(child))
            if session is not None:
                rows = rep_row[offsets[k]:offsets[k + 1]][stepped]
                logits = session.step(tokens[rows, k - 1] if k else None)
                if counts is not None:
                    allowed = self.constraint.mask_for_step(
                        counts[0][rows, k], counts[1][rows, k], k)
                    logits = np.where(allowed, logits, MASK_VALUE)
                slot = np.cumsum(stepped) - 1        # session row of a stepped node
                via = stepped[parent]
                gain[via] = log_softmax(logits)[slot[parent[via]], tokens[child[via], k]]
                opened = is_open[offsets[k + 1]:offsets[k + 2]]
                session = session.select(slot[parent[opened]]) if opened.any() else None
            logp = logp[parent] + gain
        return logp[node[t]]

    def _open_nodes(self, tokens: np.ndarray, rep_row, level, offsets, node):
        """Which nodes of ``prefix_tree(tokens)`` the decoder must evaluate,
        and the ``(up, dn)`` counts before every position (``None`` when
        unconstrained).

        Open: every node below level ``T`` that is not decided
        (``constraint.suffix_forced``), and every node below ``T`` that a row
        *outside* the sector passes through — such a row picks a masked
        token whose log (and gradient) reads the decoder's logits, exactly as
        in the dense oracle.  A decided node all of whose rows stay in the
        sector has one child, and its conditional is exactly 1.  Open nodes'
        parents are open, so the open nodes form a subtree from the root.
        """
        t = tokens.shape[1]
        is_open = level < t
        if self.constraint is None:
            return is_open, None
        c = self.constraint
        counts_up, counts_dn = c.counts_before(tokens)
        is_open &= ~c.suffix_forced(counts_up[rep_row, level],
                                    counts_dn[rep_row, level], level)
        astray = (counts_up[:, t] != c.n_up) | (counts_dn[:, t] != c.n_dn)
        if astray.any():
            is_open[(node[:t, astray] + offsets[:t, None]).ravel()] = True
        return is_open, (counts_up, counts_dn)

    def make_session(self, batch_size: int = 1):
        """Open an incremental decoding session on the amplitude network
        (the transformer's is KV-cached, O(k) per step) — the sampler's and
        the walk's hot path, see DESIGN.md.
        """
        return self.amplitude.make_session(batch_size)

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
    phase_hidden: tuple[int, ...] = PHASE_HIDDEN,
    token_bits: int = 2,
    constrain: bool = True,
    reverse_order: bool = True,
    seed: int = 0,
) -> NNQSWavefunction:
    """QiankunNet with the paper's Sec. 4.1 defaults, but for the phase MLP's
    width (``PHASE_HIDDEN``, DESIGN.md "Phase MLP width"); the returned
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
