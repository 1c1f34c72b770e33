"""Baseline amplitude networks: MADE (Ref. [27]) and NAQS-style MLP (Ref. [26]).

Table 1's comparison rows and the ansatz ablation — the users of this file
are ``bench_table1.py``, ``bench_ablations.py``, ``examples/
ansatz_comparison.py`` and the tests' ansatz matrix (``tests/conftest.py``).
The production path has one ansatz (the transformer) and ``src/`` imports none
of this; the foils plug into the same wavefunction / sampler / VMC stack by
answering the amplitude protocol *themselves* (``TransformerAmplitude``
documents it as its "Interface contract"), which ``check_baselines_agree``
pins.

MADE (masked autoencoder for distribution estimation, Germain et al. 2015)
enforces autoregressive structure with binary masks on dense-layer weights:
output block ``i`` only receives paths from input blocks ``< i``.

The NAQS-style MLP mimics Barrett et al.'s "MLP with hard-coded pre- and
postprocessing to ensure the autoregressive property": one shared MLP is
applied per position to the prefix (positions >= i zeroed out) concatenated
with a one-hot position encoding.

One-hot input staging and the constant autoregressive masks allocate through
the active backend's ``xp`` namespace, so both baselines run on the same
array seam as the transformer.
"""
from __future__ import annotations

import math

from repro.autograd import Tensor, stack
from repro.backend import xp
from repro.backend.dtypes import float64, int64
from repro.backend.host import host_np
from repro.core import (
    NNQSWavefunction,
    ParticleNumberConstraint,
    batch_autoregressive_sample,
)
from repro.hamiltonian import sector_basis
from repro.nn import PhaseMLP
from repro.nn.inference import padded_next_logits
from repro.nn.layers import Linear
from repro.nn.module import Module, Parameter

__all__ = ["BASELINES", "MADEAmplitude", "NAQSMLPAmplitude", "RecomputeSession",
           "build_baseline", "check_baselines_agree"]


class RecomputeSession:
    """The decoding-session interface for a network without an incremental
    path: the input layer consumes the whole (padded) sequence, so each
    ``step`` stores the new token column and re-runs the full
    ``conditional_logits`` under ``no_grad``.  Same interface and misuse
    contract as ``TransformerInferenceSession``, so the sampler and the
    prefix walk do not care which kind they drive.
    """

    def __init__(self, model, batch_size: int = 1):
        self.model = model
        self.reset(batch_size)

    @property
    def pos(self) -> int:
        return self.tokens.shape[1]

    def step(self, prev_tokens=None):
        # The first call takes no token, every later call must consume one.
        if prev_tokens is None:
            if self._started:
                raise ValueError("prev_tokens required once the session has started")
        else:
            if not self._started:
                raise ValueError(
                    "the first step consumes BOS: call step(None) or prefill()"
                )
            prev = xp.asarray(prev_tokens, dtype=int64).reshape(-1, 1)
            self.tokens = xp.concatenate([self.tokens, prev], axis=1)
        self._started = True
        return padded_next_logits(self.model, self.tokens)

    def prefill(self, prefix_tokens):
        if self._started:
            raise ValueError("prefill requires a fresh session")
        self._started = True
        self.tokens = xp.atleast_2d(xp.asarray(prefix_tokens, dtype=int64))
        return padded_next_logits(self.model, self.tokens)

    def _with_tokens(self, tokens) -> "RecomputeSession":
        out = RecomputeSession(self.model, len(tokens))
        out.tokens, out._started = tokens, self._started
        return out

    def select(self, idx) -> "RecomputeSession":
        return self._with_tokens(self.tokens[idx])

    def copy(self) -> "RecomputeSession":
        return self._with_tokens(xp.array(self.tokens))

    def reset(self, batch_size: int | None = None) -> "RecomputeSession":
        """Return the session to its fresh state (serving-layer pool hook)."""
        if batch_size is not None:
            self.batch_size = batch_size
        self.tokens = xp.zeros((self.batch_size, 0), dtype=int64)
        self._started = False
        return self


class _DenseOnlyAmplitude(Module):
    """The amplitude protocol for a network that only has a dense forward,
    ``_dense_logits`` over the full ``(b, n_tokens)`` width of its input layer."""

    d_model = 16   # NoamAdamW's Eq. 13 scale; the transformer's default width

    def conditional_logits(self, tokens) -> Tensor:
        """``(b, t <= n_tokens)`` int tokens -> ``(b, t, vocab)`` logits."""
        tokens = xp.atleast_2d(xp.asarray(tokens, dtype=int64))
        b, t = tokens.shape
        if t == self.n_tokens:
            return self._dense_logits(tokens)
        padded = xp.zeros((b, self.n_tokens), dtype=int64)
        padded[:, :t] = tokens
        return self._dense_logits(padded)[:, :t]

    def make_session(self, batch_size: int = 1) -> RecomputeSession:
        return RecomputeSession(self, batch_size)

    def prefix_logits(self, tokens, node_at, rep_row, level) -> Tensor:
        return self.conditional_logits(tokens)[rep_row, level]


class _MaskedLinear(Module):
    def __init__(self, in_features: int, out_features: int, mask,
                 rng: host_np.random.Generator):
        super().__init__()
        bound = 1.0 / math.sqrt(in_features)
        self.weight = Parameter(rng.uniform(-bound, bound, (out_features, in_features)))
        self.bias = Parameter(rng.uniform(-bound, bound, (out_features,)))
        self.mask = xp.asarray(mask, dtype=float64)  # (out, in), constant

    def forward(self, x: Tensor) -> Tensor:
        w = self.weight * Tensor(self.mask)
        return x @ w.transpose() + self.bias


class MADEAmplitude(_DenseOnlyAmplitude):
    """Masked autoencoder over one-hot token inputs.

    Input degrees: token ``i`` (0-based) has degree ``i + 1``; hidden units get
    degrees cycling over ``1..T-1``; a hidden unit of degree ``m`` connects to
    inputs of degree ``<= m``; the output block of token ``i`` (degree
    ``i + 1``) connects to hidden units of degree ``< i + 1``.  Hence output
    ``i`` depends only on tokens ``< i`` (block 0 depends on nothing but bias).
    """

    def __init__(self, n_tokens: int, vocab_size: int = 4,
                 hidden: tuple[int, ...] = (128, 128),
                 rng: host_np.random.Generator | None = None):
        super().__init__()
        rng = rng or host_np.random.default_rng()
        self.n_tokens = n_tokens
        self.vocab_size = vocab_size
        t, v = n_tokens, vocab_size

        in_deg = xp.repeat(xp.arange(1, t + 1), v)  # one-hot blocks
        prev_deg = in_deg
        layers = []
        for h in hidden:
            deg = 1 + (xp.arange(h) % max(t - 1, 1))
            mask = (deg[:, None] >= prev_deg[None, :])
            layers.append(_MaskedLinear(len(prev_deg), h, mask, rng))
            prev_deg = deg
        out_deg = xp.repeat(xp.arange(1, t + 1), v)
        out_mask = (out_deg[:, None] > prev_deg[None, :])
        layers.append(_MaskedLinear(len(prev_deg), t * v, out_mask, rng))
        self.layers = layers

    def _dense_logits(self, tokens) -> Tensor:
        b, t = tokens.shape
        onehot = xp.zeros((b, t * self.vocab_size))
        flat = tokens + xp.arange(t) * self.vocab_size
        onehot[xp.arange(b)[:, None], flat] = 1.0
        x = Tensor(onehot)
        for layer in self.layers[:-1]:
            x = layer(x).relu()
        out = self.layers[-1](x)
        return out.reshape(b, t, self.vocab_size)


class NAQSMLPAmplitude(_DenseOnlyAmplitude):
    """Shared per-position MLP over the zero-masked prefix + position one-hot."""

    def __init__(self, n_tokens: int, vocab_size: int = 4,
                 hidden: tuple[int, ...] = (128,),
                 rng: host_np.random.Generator | None = None):
        super().__init__()
        rng = rng or host_np.random.default_rng()
        self.n_tokens = n_tokens
        self.vocab_size = vocab_size
        in_dim = n_tokens * vocab_size + n_tokens  # masked prefix + position one-hot
        sizes = (in_dim, *hidden, vocab_size)
        self.layers = [Linear(sizes[i], sizes[i + 1], rng=rng) for i in range(len(sizes) - 1)]

    def _dense_logits(self, tokens) -> Tensor:
        b, t = tokens.shape
        v = self.vocab_size
        onehot = xp.zeros((b, t, v))
        onehot[xp.arange(b)[:, None], xp.arange(t)[None, :], tokens] = 1.0
        outs = []
        for i in range(t):
            prefix = xp.zeros((b, t, v))
            prefix[:, :i] = onehot[:, :i]
            pos = xp.zeros((b, t))
            pos[:, i] = 1.0
            x = Tensor(xp.concatenate([prefix.reshape(b, -1), pos], axis=1))
            for layer in self.layers[:-1]:
                x = layer(x).relu()
            outs.append(self.layers[-1](x))
        return stack(outs, axis=1)  # (b, t, v)


BASELINES = {"made": MADEAmplitude, "naqs-mlp": NAQSMLPAmplitude}


def build_baseline(foil, n_qubits: int, n_up: int, n_dn: int, *,
                   phase_hidden=(512, 512), constrain: bool = True,
                   seed: int = 0) -> NNQSWavefunction:
    """``build_qiankunnet`` with the amplitude network swapped for ``foil``
    (a class of this file, at its default widths): same phase MLP, same
    constraint, amplitude then phase drawn from one ``seed``.  Carries no
    rebuild ``spec`` — train it with ``output.publish = false``."""
    rng = host_np.random.default_rng(seed)
    n_tokens = n_qubits // 2
    return NNQSWavefunction(
        n_qubits, foil(n_tokens, 4, rng=rng),
        PhaseMLP(n_qubits, hidden=phase_hidden, rng=rng),
        ParticleNumberConstraint(n_tokens, n_up, n_dn) if constrain else None)


def check_baselines_agree(value_atol: float = 1e-12, grad_rtol: float = 1e-10) -> dict:
    """Each foil *through the protocol* against its own dense forward.

    On a constrained 8-qubit (2, 2) wavefunction per foil: the taped
    ``log_prob`` (``prefix_logits``) and the prefix walk of ``log_amplitudes``
    (session steps) equal ``log_prob_reference`` (``conditional_logits``) to
    ``value_atol`` on shuffled sector rows with duplicates, the flat gradient
    to ``grad_rtol`` relative, the sweep's ``log pi`` equals the walk's, and
    the logits at position ``i`` do not move — exactly — when tokens ``>= i``
    do.  Returns the largest deviations per foil.
    """
    n, t = 8, 4
    bits = sector_basis(n, 2, 2).bits()
    bits = host_np.concatenate([bits, bits[::3]])
    bits = bits[host_np.random.default_rng(0).permutation(len(bits))]
    coeff = host_np.random.default_rng(1).normal(size=len(bits))
    report = {}
    for kind, foil in BASELINES.items():
        wf = build_baseline(foil, n, 2, 2, phase_hidden=(16,), seed=2)
        amp = wf.amplitude

        def value_and_grad(head):
            wf.zero_grad()
            out = head(bits)
            (Tensor(coeff) * out).sum().backward()
            return out.data, wf.get_flat_grads().copy()

        want, want_grad = value_and_grad(wf.log_prob_reference)
        got, got_grad = value_and_grad(wf.log_prob)
        taped = float(abs(got - want).max())
        grad = float(abs(got_grad - want_grad).max() / abs(want_grad).max())
        walk = float(abs(2.0 * wf.log_amplitudes(bits).real - want).max())
        batch = batch_autoregressive_sample(wf, 10**5, host_np.random.default_rng(3))
        sweep = float(abs(batch.log_prob
                          - 2.0 * wf.log_amplitudes(batch.bits).real).max())
        assert max(taped, walk, sweep) <= value_atol, (kind, taped, walk, sweep)
        assert grad <= grad_rtol, (kind, grad)

        tokens = wf.bits_to_tokens(bits)
        base = amp.conditional_logits(tokens).data
        for i in range(t):
            moved = tokens.copy()
            moved[:, i:] = (moved[:, i:] + 1) % 4
            leaked = amp.conditional_logits(moved).data[:, : i + 1] != base[:, : i + 1]
            assert not leaked.any(), f"{kind}: position {i} reads tokens >= {i}"
        report[kind] = {"taped": taped, "walk": walk, "sweep": sweep, "grad": grad}
    return report
