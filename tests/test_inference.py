"""Incremental decoding engine: cached step/prefill vs the full-forward oracle.

The oracle's differentiable float64 ``conditional_logits`` graph
(``repro.autograd.oracle``) is the correctness oracle.  The transformer's KV-cached ``step()`` runs in float32, so it must
reproduce those logits to ``LOGIT_TOL`` at every position (the foils'
recompute session, float64, to 1e-10); seeded sampling sweeps must still
produce ``SampleBatch``es (bits and weights) bit-identical to the same sweeps
driven by the full-forward oracle ``conditional_probs_reference`` (a
test-only function: the oracle sweeps below are the only callers outside the
throughput bench) — for the transformer and for the foils (MADE, NAQS-MLP),
which answer the same protocol from ``benchmarks/baseline_ansatze.py``.
"""

import numpy as np
import pytest

from repro.autograd.oracle import conditional_logits
from repro.core import build_qiankunnet
from repro.core.sampler import (
    SampleBatch,
    _multinomial_rows,
    _split_weights,
    autoregressive_sample,
    batch_autoregressive_sample,
    bas_prefix_sweep,
    initial_tree_state,
)
from repro.nn import TransformerAmplitude, TransformerInferenceSession
from repro.parallel.partition import split_tree_state
from tests.conftest import ANSATZE, LOGIT_TOL, PROB_TOL, baselines, build_wf


@pytest.fixture(scope="module")
def wf():
    return build_qiankunnet(8, 2, 2, d_model=8, n_heads=2, n_layers=2,
                            phase_hidden=(16,), seed=9)


def oracle_bas_sample(wf, n_samples, rng, start=None):
    """``batch_autoregressive_sample`` with every conditional from the
    full-forward oracle: same weight split, same RNG stream, no session."""
    state = start
    if state is None:
        state = initial_tree_state(wf, n_samples)
    while state.step < wf.n_tokens:
        probs = wf.conditional_probs_reference(
            state.prefixes, state.counts_up, state.counts_dn)
        state = _split_weights(wf, state, probs, rng)[1]
    return SampleBatch(bits=wf.tokens_to_bits(state.prefixes), weights=state.weights)


def oracle_autoregressive_sample(wf, n_samples, rng):
    """``autoregressive_sample`` over the full-forward oracle."""
    tokens = np.zeros((n_samples, 0), dtype=np.int64)
    for _ in range(wf.n_tokens):
        probs = wf.conditional_probs_reference(tokens, *wf.sector_counts(tokens))
        choice = (probs.cumsum(axis=1) < rng.random((n_samples, 1))).sum(axis=1)
        choice = np.minimum(choice, wf.vocab_size - 1)
        tokens = np.concatenate([tokens, choice[:, None]], axis=1)
    uniq, inverse = np.unique(wf.tokens_to_bits(tokens), axis=0, return_inverse=True)
    return SampleBatch(bits=uniq, weights=np.bincount(inverse.ravel()))


def build(amplitude_type):
    return build_wf(amplitude_type, 8, 2, 2, d_model=8, n_heads=2, n_layers=2,
                    phase_hidden=(16,), seed=17)


class TestStepEquivalence:
    def test_step_logits_match_full_forward(self, wf):
        """Cached step() logits == conditional_logits to LOGIT_TOL, every position."""
        amp = wf.amplitude
        rng = np.random.default_rng(0)
        toks = rng.integers(0, 4, size=(5, wf.n_tokens))
        full = conditional_logits(amp, toks).data
        session = amp.make_session(5)
        for i in range(wf.n_tokens):
            logits = session.step(None if i == 0 else toks[:, i - 1])
            np.testing.assert_allclose(logits, full[:, i, :], atol=LOGIT_TOL, rtol=0)

    def test_prefill_matches_full_forward(self, wf):
        amp = wf.amplitude
        rng = np.random.default_rng(1)
        toks = rng.integers(0, 4, size=(4, wf.n_tokens))
        full = conditional_logits(amp, toks).data
        for k in range(wf.n_tokens):
            session = amp.make_session(4)
            logits = session.prefill(toks[:, :k])
            np.testing.assert_allclose(logits, full[:, k, :], atol=LOGIT_TOL, rtol=0)

    def test_prefill_then_step(self, wf):
        """Mixed mode: prefill a prefix, continue with single steps."""
        amp = wf.amplitude
        rng = np.random.default_rng(2)
        toks = rng.integers(0, 4, size=(3, wf.n_tokens))
        full = conditional_logits(amp, toks).data
        session = amp.make_session(3)
        logits = session.prefill(toks[:, :2])  # produces position-2 logits
        np.testing.assert_allclose(logits, full[:, 2, :], atol=LOGIT_TOL, rtol=0)
        for i in range(3, wf.n_tokens):
            logits = session.step(toks[:, i - 1])
            np.testing.assert_allclose(logits, full[:, i, :], atol=LOGIT_TOL, rtol=0)

    def test_select_duplicates_and_prunes_rows(self, wf):
        """Gathered cache rows decode exactly like freshly prefilled prefixes."""
        amp = wf.amplitude
        rng = np.random.default_rng(3)
        toks = rng.integers(0, 4, size=(4, 2))
        session = amp.make_session(4)
        session.prefill(toks)
        idx = np.array([0, 0, 2, 3, 3, 3])  # branch rows 0 and 3, prune row 1
        branched = session.select(idx)
        next_tok = rng.integers(0, 4, size=len(idx))
        got = branched.step(next_tok)  # position-3 logits on gathered rows
        # Compare against the oracle at the position after the selected prefix.
        full = conditional_logits(
            amp, np.concatenate(
                [toks[idx], next_tok[:, None],
                 np.zeros((len(idx), wf.n_tokens - 3), dtype=np.int64)], axis=1
            )
        ).data
        np.testing.assert_allclose(got, full[:, 3, :], atol=LOGIT_TOL, rtol=0)

    def test_no_autograd_graph_is_built(self, wf):
        """step() is pure inference: parameters collect no graph/grad state."""
        amp = wf.amplitude
        session = amp.make_session(2)
        logits = session.step(None)
        assert isinstance(logits, np.ndarray)
        assert logits.dtype == np.float64 and logits.flags.c_contiguous

    @pytest.mark.parametrize("amplitude_type", ANSATZE)
    def test_session_misuse_raises(self, amplitude_type):
        """Both session kinds enforce the same step/prefill contract."""
        w = build(amplitude_type)
        tok = np.zeros(2, dtype=np.int64)
        s = w.make_session(2)
        with pytest.raises(ValueError):
            s.step(tok)  # first step must consume BOS
        s.step(None)
        with pytest.raises(ValueError):
            s.step(None)  # later steps must consume a token
        with pytest.raises(ValueError):
            s.prefill(np.zeros((2, 1), dtype=np.int64))  # session not fresh

    def test_session_kind_dispatch(self):
        """The network opens its own session; the wavefunction adds nothing."""
        for at in ANSATZE:
            w = build(at)
            session = w.make_session(3)
            if isinstance(w.amplitude, TransformerAmplitude):
                assert isinstance(session, TransformerInferenceSession)
            else:
                assert isinstance(session, baselines.RecomputeSession)
            assert type(session) is type(w.amplitude.make_session(3))
            assert (session.batch_size, session.pos) == (3, 0)

    @pytest.mark.parametrize("amplitude_type", ANSATZE)
    def test_session_steps_match_reference_probs(self, amplitude_type):
        """Session-driven masked probs == the full-forward reference path."""
        w = build(amplitude_type)
        tol = PROB_TOL if amplitude_type == "transformer" else 1e-10   # float32 / float64
        rng = np.random.default_rng(4)
        # Walk a random valid-ish prefix, comparing the two prob paths.
        toks = rng.integers(0, 4, size=(6, w.n_tokens))
        cu, cd = np.zeros(6, dtype=np.int64), np.zeros(6, dtype=np.int64)
        session = w.make_session(6)
        for k in range(w.n_tokens):
            logits = session.step(None if k == 0 else toks[:, k - 1])
            got = w.probs_from_logits(logits, cu, cd, k)
            want = w.conditional_probs_reference(toks[:, :k], cu, cd)
            np.testing.assert_allclose(got, want, atol=tol, rtol=0)
            du, dd = w.sector_counts(toks[:, k][:, None])
            cu, cd = cu + du, cd + dd

    def test_conditional_probs_drives_session(self, wf):
        rng = np.random.default_rng(5)
        toks = rng.integers(0, 4, size=(4, 2))
        cu, cd = wf.sector_counts(toks)
        got = wf.conditional_probs(toks, cu, cd)
        want = wf.conditional_probs_reference(toks, cu, cd)
        np.testing.assert_allclose(got, want, atol=PROB_TOL, rtol=0)


class TestSampledEquivalence:
    @pytest.mark.parametrize("amplitude_type", ANSATZE)
    def test_seeded_bas_bit_identical(self, amplitude_type):
        """Cached and full-forward BAS sweeps agree bit for bit under a seed."""
        w = build(amplitude_type)
        cached = batch_autoregressive_sample(w, 200_000, np.random.default_rng(42))
        oracle = oracle_bas_sample(w, 200_000, np.random.default_rng(42))
        np.testing.assert_array_equal(cached.bits, oracle.bits)
        np.testing.assert_array_equal(cached.weights, oracle.weights)

    @pytest.mark.parametrize("amplitude_type", ANSATZE)
    def test_seeded_autoregressive_bit_identical(self, amplitude_type):
        w = build(amplitude_type)
        cached = autoregressive_sample(w, 400, np.random.default_rng(11))
        oracle = oracle_autoregressive_sample(w, 400, np.random.default_rng(11))
        np.testing.assert_array_equal(cached.bits, oracle.bits)
        np.testing.assert_array_equal(cached.weights, oracle.weights)

    def test_sweep_carries_session_and_resumes(self, wf):
        state = bas_prefix_sweep(wf, 10**5, np.random.default_rng(8), stop_unique=4)
        assert state.session is not None
        with_session = batch_autoregressive_sample(
            wf, 0, np.random.default_rng(8), start=state
        )
        # A state stripped of its session (the cross-rank case) must rebuild
        # the caches by prefill and land on the identical output.
        state2 = bas_prefix_sweep(wf, 10**5, np.random.default_rng(8), stop_unique=4)
        state2.session = None
        rebuilt = batch_autoregressive_sample(
            wf, 0, np.random.default_rng(8), start=state2
        )
        np.testing.assert_array_equal(with_session.bits, rebuilt.bits)
        np.testing.assert_array_equal(with_session.weights, rebuilt.weights)

    def test_resuming_same_state_twice_is_safe(self, wf):
        """Stepping must not mutate the caller's carried session in place."""
        state = bas_prefix_sweep(wf, 10**5, np.random.default_rng(8), stop_unique=4)
        pos_before = state.session.pos
        first = batch_autoregressive_sample(wf, 0, np.random.default_rng(3), start=state)
        assert state.session.pos == pos_before  # untouched by the resume
        second = batch_autoregressive_sample(wf, 0, np.random.default_rng(3), start=state)
        np.testing.assert_array_equal(first.bits, second.bits)
        np.testing.assert_array_equal(first.weights, second.weights)
        # And both must agree with the full-forward oracle on the same seed.
        state.session = None
        oracle = oracle_bas_sample(wf, 0, np.random.default_rng(3), start=state)
        np.testing.assert_array_equal(first.bits, oracle.bits)
        np.testing.assert_array_equal(first.weights, oracle.weights)

    def test_split_tree_state_selects_session_rows(self, wf):
        state = bas_prefix_sweep(wf, 10**4, np.random.default_rng(13), stop_unique=6)
        parts = split_tree_state(state, 2)
        for part in parts:
            if len(part.weights) == 0:
                continue
            assert (part.session is None) == (not part.undecided.any())
            follow = batch_autoregressive_sample(
                wf, 0, np.random.default_rng(1), start=part
            )
            sessionless = part
            sessionless.session = None
            oracle = oracle_bas_sample(
                wf, 0, np.random.default_rng(1), start=sessionless)
            np.testing.assert_array_equal(follow.bits, oracle.bits)
            np.testing.assert_array_equal(follow.weights, oracle.weights)


class TestMultinomialRows:
    def test_matches_per_row_loop(self):
        """The batched draw consumes the stream exactly like the old loop."""
        w = np.array([1000, 0, 7, 123456], dtype=np.int64)
        p = np.array([
            [0.2, 0.3, 0.5, 0.0],
            [0.25, 0.25, 0.25, 0.25],
            [0.0, 1.0, 0.0, 0.0],
            [0.1, 0.2, 0.3, 0.4],
        ])
        got = _multinomial_rows(np.random.default_rng(99), w, p)
        rng = np.random.default_rng(99)
        want = np.zeros(p.shape, dtype=np.int64)
        for i in range(len(w)):
            want[i] = rng.multinomial(int(w[i]), p[i])
        np.testing.assert_array_equal(got, want)
        assert got.sum() == w.sum()

    def test_empty(self):
        out = _multinomial_rows(
            np.random.default_rng(0), np.zeros(0, dtype=np.int64), np.zeros((0, 4))
        )
        assert out.shape == (0, 4)
