"""Autoregressive + batch autoregressive sampling (Fig. 3)."""
import numpy as np
import pytest

from dataclasses import replace

from repro.core import (
    autoregressive_sample,
    bas_prefix_sweep,
    batch_autoregressive_sample,
    build_qiankunnet,
)
from repro.core.sampler import _bas_step, initial_tree_state
from repro.nn import TransformerInferenceSession
from repro.parallel.partition import split_tree_state
from tests.conftest import LOGIT_TOL, build_wf
from tests.test_inference import oracle_bas_sample
from tests.test_prefix_shared import open_prefix_count
from tests.test_wavefunction import sector_bitstrings


@pytest.fixture(scope="module")
def wf():
    return build_qiankunnet(8, 2, 2, d_model=8, n_heads=2, n_layers=1,
                            phase_hidden=(16,), seed=9)


class TestBAS:
    def test_weights_sum_to_ns(self, wf):
        rng = np.random.default_rng(0)
        batch = batch_autoregressive_sample(wf, 10_000, rng)
        assert batch.n_samples == 10_000
        assert np.all(batch.weights > 0)

    def test_samples_unique(self, wf):
        rng = np.random.default_rng(1)
        batch = batch_autoregressive_sample(wf, 5000, rng)
        assert len(np.unique(batch.bits, axis=0)) == batch.n_unique

    def test_samples_in_sector(self, wf):
        rng = np.random.default_rng(2)
        batch = batch_autoregressive_sample(wf, 5000, rng)
        assert np.all(wf.constraint.validate_bits(batch.bits))

    def test_deterministic_with_seed(self, wf):
        b1 = batch_autoregressive_sample(wf, 1000, np.random.default_rng(42))
        b2 = batch_autoregressive_sample(wf, 1000, np.random.default_rng(42))
        np.testing.assert_array_equal(b1.bits, b2.bits)
        np.testing.assert_array_equal(b1.weights, b2.weights)

    def test_huge_ns_supported(self, wf):
        """N_s up to 1e12 (the paper's budget) must not overflow."""
        rng = np.random.default_rng(3)
        batch = batch_autoregressive_sample(wf, 10**12, rng)
        assert batch.n_samples == 10**12
        # Unique count is bounded by the sector size, not N_s.
        assert batch.n_unique <= len(sector_bitstrings(8, 2, 2))

    def test_empirical_matches_ansatz_distribution(self, wf):
        """BAS frequencies converge to pi(x) (law of large numbers)."""
        rng = np.random.default_rng(4)
        batch = batch_autoregressive_sample(wf, 2_000_000, rng)
        logp = wf.log_prob(batch.bits).data
        freq = batch.frequencies()
        np.testing.assert_allclose(freq, np.exp(logp), atol=5e-3)

    def test_matches_plain_autoregressive_distribution(self, wf):
        """BAS and per-sample autoregressive sampling draw the same law."""
        rng = np.random.default_rng(5)
        bas = batch_autoregressive_sample(wf, 200_000, rng)
        plain = autoregressive_sample(wf, 20_000, rng)
        # Compare empirical frequencies on the union support.
        all_bits = sector_bitstrings(8, 2, 2)
        def freq_of(batch):
            out = np.zeros(len(all_bits))
            for i, b in enumerate(all_bits):
                hit = np.all(batch.bits == b, axis=1)
                if hit.any():
                    out[i] = batch.weights[hit].sum() / batch.n_samples
            return out
        np.testing.assert_allclose(freq_of(bas), freq_of(plain), atol=2e-2)

    def test_frequencies_sum_to_one(self, wf):
        batch = batch_autoregressive_sample(wf, 1234, np.random.default_rng(6))
        assert batch.frequencies().sum() == pytest.approx(1.0)


class TestOneBitTokens:
    """The 1-qubit-token ablation: position ``p`` feeds spin channel
    ``order[p] % 2``, which the running counts must follow step by step."""

    @pytest.mark.parametrize("reverse_order", [True, False])
    def test_bas_stays_in_the_sector_and_draws_pi(self, reverse_order):
        wf = build_qiankunnet(8, 2, 2, token_bits=1, reverse_order=reverse_order,
                              d_model=8, n_heads=2, n_layers=1,
                              phase_hidden=(16,), seed=9)
        batch = batch_autoregressive_sample(wf, 1_000_000, np.random.default_rng(0))
        assert np.all(wf.constraint.validate_bits(batch.bits))
        pi = np.exp(2.0 * wf.log_amplitudes(batch.bits).real)
        assert pi.sum() == pytest.approx(1.0, abs=1e-3)   # the sector's support
        # 5 sigma of a binomial frequency at N_s = 1e6 is <= 2.5e-3
        np.testing.assert_allclose(batch.frequencies(), pi, atol=2.5e-3)

    @pytest.mark.parametrize("reverse_order", [True, False])
    def test_plain_autoregressive_stays_in_the_sector(self, reverse_order):
        wf = build_qiankunnet(8, 2, 2, token_bits=1, reverse_order=reverse_order,
                              d_model=8, n_heads=2, n_layers=1,
                              phase_hidden=(16,), seed=9)
        batch = autoregressive_sample(wf, 300, np.random.default_rng(1))
        assert np.all(wf.constraint.validate_bits(batch.bits))


class TestSweepHandsOutLogProb:
    """``SampleBatch.log_prob`` is the log pi the sweep split its weights by —
    equal to what the evaluator computes for the same rows, to rounding: for
    the transformer both run its float32 decoder, over differently composed
    row blocks (``LOGIT_TOL``); the float64 foils to 1e-12."""

    @staticmethod
    def _assert_is_log_pi(wf, batch, tol=LOGIT_TOL):
        assert batch.log_prob.shape == (batch.n_unique,)
        np.testing.assert_allclose(
            batch.log_prob, 2.0 * wf.log_amplitudes(batch.bits).real,
            rtol=0, atol=tol)

    @pytest.mark.parametrize("kwargs", [
        {}, {"constrain": False}, {"token_bits": 1}, {"reverse_order": False},
        {"amplitude_type": "made"},
    ], ids=lambda kw: "-".join(f"{k}={v}" for k, v in kw.items()) or "default")
    def test_serial_sweep(self, kwargs):
        kwargs = dict(kwargs)
        kind = kwargs.pop("amplitude_type", "transformer")
        wf = build_wf(kind, 8, 2, 2, d_model=8, n_heads=2, n_layers=2,
                      phase_hidden=(16,), seed=9, **kwargs)
        batch = batch_autoregressive_sample(wf, 50_000, np.random.default_rng(3))
        assert batch.n_unique > 10
        self._assert_is_log_pi(wf, batch, LOGIT_TOL if kind == "transformer" else 1e-12)

    @pytest.mark.parametrize("n_parts", [2, 4])
    def test_split_continuations(self, wf, n_parts):
        state = bas_prefix_sweep(wf, 10**5, np.random.default_rng(4), stop_unique=6)
        assert 0 < state.step < wf.n_tokens
        parts = split_tree_state(state, n_parts)
        assert sum(len(p.log_prob) for p in parts) == len(state.log_prob)
        for rank, part in enumerate(parts):
            batch = batch_autoregressive_sample(
                wf, 0, np.random.default_rng((4, rank)), start=part)
            self._assert_is_log_pi(wf, batch)

    def test_session_less_mid_tree_state(self, wf):
        """A state that lost its session (shipped across ranks) resumes by
        prefill and keeps the log pi of the shared steps."""
        state = bas_prefix_sweep(wf, 10**5, np.random.default_rng(5), stop_unique=6)
        bare = replace(state, session=None)
        batch = batch_autoregressive_sample(wf, 0, np.random.default_rng(6), start=bare)
        self._assert_is_log_pi(wf, batch)
        carried = batch_autoregressive_sample(wf, 0, np.random.default_rng(6), start=state)
        np.testing.assert_array_equal(batch.bits, carried.bits)
        np.testing.assert_allclose(batch.log_prob, carried.log_prob, rtol=0, atol=LOGIT_TOL)

    def test_batches_from_elsewhere_carry_none(self, wf):
        plain = autoregressive_sample(wf, 50, np.random.default_rng(7))
        assert plain.log_prob is None
        assert type(plain)(bits=plain.bits, weights=plain.weights).log_prob is None

    def test_last_level_gathers_no_session(self, wf, monkeypatch):
        """Nobody steps the leaves, nor a prefix the mask has decided: (2, 2)
        in four orbitals leaves a length-3 prefix one slot per spin, so the
        sweep gathers session rows for levels 1 and 2 only."""
        from repro.nn import TransformerInferenceSession

        real, calls = TransformerInferenceSession.select, []

        def select(self, idx):
            calls.append(len(idx))
            return real(self, idx)

        monkeypatch.setattr(TransformerInferenceSession, "select", select)
        batch_autoregressive_sample(wf, 5000, np.random.default_rng(8))
        assert len(calls) == wf.n_tokens - 2


class TestPrefixSweep:
    def test_stops_at_threshold(self, wf):
        rng = np.random.default_rng(7)
        state = bas_prefix_sweep(wf, 10**6, rng, stop_unique=4)
        assert len(state.weights) >= 4 or state.step == wf.n_tokens
        assert state.weights.sum() == 10**6

    def test_resume_produces_full_samples(self, wf):
        rng = np.random.default_rng(8)
        state = bas_prefix_sweep(wf, 10**5, rng, stop_unique=4)
        batch = batch_autoregressive_sample(wf, 0, rng, start=state)
        assert batch.n_samples == 10**5
        assert np.all(wf.constraint.validate_bits(batch.bits))

    def test_counts_tracked_along_prefix(self, wf):
        rng = np.random.default_rng(9)
        state = bas_prefix_sweep(wf, 10**4, rng, stop_unique=6)
        cu, cd = wf.sector_counts(state.prefixes)
        np.testing.assert_array_equal(cu, state.counts_up)
        np.testing.assert_array_equal(cd, state.counts_dn)


class TestPlainAutoregressive:
    def test_counts_and_sector(self, wf):
        rng = np.random.default_rng(10)
        batch = autoregressive_sample(wf, 500, rng)
        assert batch.n_samples == 500
        assert np.all(wf.constraint.validate_bits(batch.bits))

    def test_cost_scales_with_ns_not_for_bas(self, wf):
        """BAS cost is ~independent of N_s (the paper's headline claim)."""
        import time

        rng = np.random.default_rng(11)
        t0 = time.perf_counter()
        batch_autoregressive_sample(wf, 10**3, rng)
        t_small = time.perf_counter() - t0
        t0 = time.perf_counter()
        batch_autoregressive_sample(wf, 10**9, rng)
        t_big = time.perf_counter() - t0
        # A factor-1e6 budget increase must cost far less than 1e6x time.
        assert t_big < 50 * max(t_small, 1e-3)


# (n_qubits, n_up, n_dn): H2 (every length-1 prefix decided), an empty spin
# channel, a full spin shell, LiH's STO-3G sector.
DECIDED_SECTORS = {"h2": (4, 1, 1), "no-up": (8, 0, 2),
                   "full-up-shell": (8, 4, 1), "lih": (12, 2, 2)}


def _level(wf, n_samples, k, rng):
    """The BAS tree state after ``k`` steps of one seeded sweep."""
    state = initial_tree_state(wf, n_samples)
    for _ in range(k):
        state = _bas_step(wf, state, rng)
    return state


class TestDecidedRowsSkipTheDecoder:
    """The sweep decodes its undecided rows only; a decided row splits by
    the one-hot mask of its forced token, on the same multinomial call."""

    @pytest.mark.parametrize("reverse_order", [True, False], ids=["reversed", "natural"])
    @pytest.mark.parametrize("token_bits", [1, 2])
    @pytest.mark.parametrize("sector", DECIDED_SECTORS)
    def test_seeded_sweep_equals_the_full_forward_oracle(self, sector, token_bits,
                                                         reverse_order):
        wf = build_qiankunnet(*DECIDED_SECTORS[sector], d_model=8, n_heads=2,
                              n_layers=2, phase_hidden=(8,), seed=4,
                              token_bits=token_bits, reverse_order=reverse_order)
        batch = batch_autoregressive_sample(wf, 100_000, np.random.default_rng(3))
        oracle = oracle_bas_sample(wf, 100_000, np.random.default_rng(3))
        np.testing.assert_array_equal(batch.bits, oracle.bits)
        np.testing.assert_array_equal(batch.weights, oracle.weights)
        np.testing.assert_allclose(batch.log_prob, wf.log_prob(batch.bits).data,
                                   rtol=0, atol=LOGIT_TOL)

    @pytest.mark.parametrize("sector", ["h2", "lih"])
    def test_session_rows_stepped_are_the_undecided_nodes(self, monkeypatch, sector):
        wf = build_qiankunnet(*DECIDED_SECTORS[sector], d_model=8, n_heads=2,
                              n_layers=1, phase_hidden=(8,), seed=9)
        decoded, step, prefill = [], TransformerInferenceSession.step, \
            TransformerInferenceSession.prefill
        monkeypatch.setattr(TransformerInferenceSession, "step", lambda self, tok=None:
                            decoded.append(self.batch_size) or step(self, tok))
        monkeypatch.setattr(TransformerInferenceSession, "prefill", lambda self, prefix:
                            decoded.append(len(prefix)) or prefill(self, prefix))
        batch = batch_autoregressive_sample(wf, 10**6, np.random.default_rng(2))
        assert sum(decoded) == open_prefix_count(wf, batch.bits)
        if sector == "h2":
            assert decoded == [1]                   # the root; its 4 children are decided


class TestResumeKeepsSessionRowsUndecided:
    """Parallel resume: a state's session rows are its undecided rows."""

    def test_split_gathers_each_parts_undecided_rows(self, wf):
        state = _level(wf, 10**5, 2, np.random.default_rng(4))
        assert 0 < state.undecided.sum() < len(state.undecided)
        assert state.session.batch_size == state.undecided.sum()
        parts = split_tree_state(state, len(state.weights))    # one node each
        assert any(not p.undecided.any() for p in parts)       # all-decided parts
        for rank, part in enumerate(parts):
            if part.undecided.any():
                assert part.session.batch_size == part.undecided.sum()
            else:
                assert part.session is None
            follow = batch_autoregressive_sample(
                wf, 0, np.random.default_rng((1, rank)), start=part)
            oracle = oracle_bas_sample(wf, 0, np.random.default_rng((1, rank)),
                                       start=replace(part, session=None))
            np.testing.assert_array_equal(follow.bits, oracle.bits)
            np.testing.assert_array_equal(follow.weights, oracle.weights)
            np.testing.assert_allclose(follow.log_prob,
                                       wf.log_prob(follow.bits).data,
                                       rtol=0, atol=LOGIT_TOL)

    def test_an_all_decided_state_resumes_without_a_decoder(self, wf, monkeypatch):
        state = _level(wf, 10**5, 3, np.random.default_rng(4))  # one slot left
        assert not state.undecided.any() and state.session is None
        monkeypatch.setattr(wf, "make_session", None)           # opening one would raise
        batch = batch_autoregressive_sample(wf, 0, np.random.default_rng(5), start=state)
        assert batch.n_samples == 10**5
        np.testing.assert_array_equal(batch.log_prob, state.log_prob)

    def test_session_less_state_prefills_its_undecided_rows(self, wf, monkeypatch):
        state = _level(wf, 10**5, 2, np.random.default_rng(4))
        prefilled, real = [], TransformerInferenceSession.prefill
        monkeypatch.setattr(TransformerInferenceSession, "prefill", lambda self, prefix:
                            prefilled.append(len(prefix)) or real(self, prefix))
        bare = batch_autoregressive_sample(wf, 0, np.random.default_rng(5),
                                           start=replace(state, session=None))
        assert prefilled == [state.undecided.sum()]
        carried = batch_autoregressive_sample(wf, 0, np.random.default_rng(5), start=state)
        np.testing.assert_array_equal(bare.bits, carried.bits)
        np.testing.assert_array_equal(bare.weights, carried.weights)
