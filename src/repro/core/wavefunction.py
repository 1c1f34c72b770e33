"""QiankunNet: the transformer-based neural network quantum state (Fig. 2).

The wave function is decomposed as Psi(x) = |Psi(x)| e^{i phi(x)} (Eq. 11):
the squared amplitude |Psi(x)|^2 = pi(x) is an autoregressive distribution
modeled by a decoder-only transformer over 2-qubit tokens, and the phase
phi(x) is a separate MLP.  Any amplitude network exposing
``conditional_logits`` can be substituted (MADE, NAQS-MLP — Table 1
baselines / ansatz ablation).

Token layout: spatial orbital ``i`` = qubits ``(2i, 2i+1)``; the sampling
order follows Ref. [27] (reverse order of the qubits after Jordan-Wigner), so
token position ``p`` addresses orbital ``order[p]`` with ``order`` reversed by
default.
"""
from __future__ import annotations

import numpy as np

from repro.autograd import Tensor, no_grad
from repro.autograd.block_ops import MASK_VALUE, picked_log_softmax, softmax
from repro.core.constraints import ParticleNumberConstraint
from repro.nn import MADEAmplitude, Module, NAQSMLPAmplitude, PhaseMLP, TransformerAmplitude
from repro.nn.inference import make_inference_session, padded_next_logits

__all__ = ["NNQSWavefunction", "build_qiankunnet", "ROW_BLOCK", "row_blocks"]

# Row bound of one forward (or forward + backward) pass.  A layer's chain of
# elementwise passes runs at cache speed only while its widest activation
# (rows x positions x d_ff doubles — 5 KB per row at N2's T = 10, d_ff = 64)
# stays L2-resident; past that every pass streams from memory and a row costs
# more (N2, 545 rows taped: 104 ms in one block, 76 ms in 256-row blocks).
# A constant, not a config field: any value gives the same result to
# reduction-order rounding, so there is nothing for a user to trade.
ROW_BLOCK = 256


def row_blocks(n_rows: int) -> list[slice]:
    """Evenly sized contiguous row slices of at most ``ROW_BLOCK`` rows each
    (none for zero rows)."""
    n_blocks = -(-n_rows // ROW_BLOCK)
    return [
        slice(n_rows * i // n_blocks, n_rows * (i + 1) // n_blocks)
        for i in range(n_blocks)
    ]


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
        sampled tokens and summed over positions — one block op.
        """
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

        Runs in row blocks of at most ``ROW_BLOCK`` rows, so the forward's
        activation memory is bounded for any batch size.
        """
        bits = np.atleast_2d(bits)
        out = np.empty(len(bits), dtype=np.complex128)
        with no_grad():
            for rows in row_blocks(len(bits)):
                out[rows] = (0.5 * self.log_prob(bits[rows]).data
                             + 1j * self.phase_of(bits[rows]).data)
        return out

    def make_session(self, batch_size: int = 1):
        """Open an incremental decoding session on the amplitude network.

        Transformer amplitudes get a KV-cached session (O(k) per step);
        fixed-width ansätze (MADE, NAQS-MLP) get the recompute fallback with
        the same interface.  Sessions are the sampler's hot path — see
        DESIGN.md for the architecture.  A ``session_factory`` hook (set by
        the serving layer's session pool) intercepts creation; a recycled
        session is reset first, so the numerics are those of a fresh one.
        """
        if self.session_factory is not None:
            return self.session_factory(batch_size)
        return make_inference_session(self.amplitude, batch_size)

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
        ``no_grad`` — the numerics of the training-time code path.  Retained
        as the correctness oracle for the incremental engine (tests,
        benchmarks, and the ``use_cache=False`` sampler paths).
        """
        k = prefix_tokens.shape[1]
        logits = padded_next_logits(self.amplitude, prefix_tokens)
        return self.probs_from_logits(logits, counts_up, counts_dn, k)

    def sector_counts(self, tokens_prefix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(up, dn) electron counts contained in a token prefix."""
        if self.token_bits == 2:
            up = (tokens_prefix & 1).sum(axis=1)
            dn = (tokens_prefix >> 1).sum(axis=1)
        else:
            # Position p addresses qubit order[p]; even qubits are spin-up.
            spin = self.order[: tokens_prefix.shape[1]] % 2
            up = (tokens_prefix * (spin[None, :] == 0)).sum(axis=1)
            dn = (tokens_prefix * (spin[None, :] == 1)).sum(axis=1)
        return up, dn


def build_qiankunnet(
    n_qubits: int,
    n_up: int,
    n_dn: int,
    d_model: int = 16,
    n_heads: int = 4,
    n_layers: int = 2,
    phase_hidden: tuple[int, ...] = (512, 512),
    amplitude_type: str = "transformer",
    token_bits: int = 2,
    constrain: bool = True,
    reverse_order: bool = True,
    seed: int = 0,
) -> NNQSWavefunction:
    """Factory with the paper's Sec. 4.1 defaults.

    ``amplitude_type``: 'transformer' (QiankunNet), 'made' (Ref. [27]
    baseline) or 'naqs-mlp' (Ref. [26]-style baseline).
    """
    rng = np.random.default_rng(seed)
    n_tokens = n_qubits // token_bits
    vocab = 2**token_bits
    if amplitude_type == "transformer":
        amp = TransformerAmplitude(
            n_tokens, vocab, d_model=d_model, n_heads=n_heads, n_layers=n_layers, rng=rng
        )
    elif amplitude_type == "made":
        amp = MADEAmplitude(n_tokens, vocab, rng=rng)
    elif amplitude_type == "naqs-mlp":
        amp = NAQSMLPAmplitude(n_tokens, vocab, rng=rng)
    else:
        raise ValueError(f"unknown amplitude_type {amplitude_type!r}")
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
        "amplitude_type": amplitude_type,
        "token_bits": token_bits,
        "constrain": constrain,
        "reverse_order": reverse_order,
        "seed": seed,
    }
    return wf
