"""NNQSWavefunction: normalization, token mapping, masked conditionals."""
from itertools import combinations

import numpy as np
import pytest

from repro.core import build_qiankunnet
from repro.core.constraints import ParticleNumberConstraint
from tests.conftest import ANSATZE, build_wf


def sector_bitstrings(n_qubits: int, n_up: int, n_dn: int) -> np.ndarray:
    """All bitstrings of the (n_up, n_dn) sector (test helper)."""
    n_orb = n_qubits // 2
    out = []
    for up in combinations(range(n_orb), n_up):
        for dn in combinations(range(n_orb), n_dn):
            bits = np.zeros(n_qubits, dtype=np.uint8)
            for i in up:
                bits[2 * i] = 1
            for i in dn:
                bits[2 * i + 1] = 1
            out.append(bits)
    return np.array(out)


@pytest.fixture(params=ANSATZE)
def wf(request):
    return build_wf(request.param, 8, 2, 2, d_model=8, n_heads=2, n_layers=1,
                    phase_hidden=(16,), seed=3)


class TestTokenMapping:
    def test_roundtrip(self, wf):
        rng = np.random.default_rng(0)
        bits = sector_bitstrings(8, 2, 2)
        toks = wf.bits_to_tokens(bits)
        np.testing.assert_array_equal(wf.tokens_to_bits(toks), bits)

    def test_reverse_order_default(self):
        wf = build_qiankunnet(8, 2, 2, d_model=8, n_heads=2, n_layers=1, seed=0)
        bits = np.zeros((1, 8), dtype=np.uint8)
        bits[0, 0] = 1  # up electron in orbital 0
        toks = wf.bits_to_tokens(bits)
        # reverse order: orbital 0 appears at the LAST token position
        assert toks[0, -1] == 1
        assert np.all(toks[0, :-1] == 0)

    def test_one_qubit_tokens(self):
        wf = build_qiankunnet(8, 2, 2, token_bits=1, d_model=8, n_heads=2,
                              n_layers=1, seed=0)
        bits = sector_bitstrings(8, 2, 2)
        np.testing.assert_array_equal(
            wf.tokens_to_bits(wf.bits_to_tokens(bits)), bits
        )


class TestNormalization:
    def test_probability_sums_to_one_over_sector(self, wf):
        """The masked ansatz is normalized over the physical sector."""
        bits = sector_bitstrings(8, 2, 2)
        logp = wf.log_prob(bits).data
        assert np.exp(logp).sum() == pytest.approx(1.0, abs=1e-9)

    def test_zero_probability_outside_sector(self, wf):
        bad = np.zeros((1, 8), dtype=np.uint8)
        bad[0, :6] = 1  # 3 up + 3 dn != (2, 2)
        logp = wf.log_prob(bad).data
        assert logp[0] < -1e20

    def test_unconstrained_sums_to_one_globally(self):
        wf = build_qiankunnet(6, 1, 1, constrain=False, d_model=8, n_heads=2,
                              n_layers=1, phase_hidden=(8,), seed=5)
        all_bits = np.array(
            [[int(b) for b in np.binary_repr(i, 6)[::-1]] for i in range(64)],
            dtype=np.uint8,
        )
        logp = wf.log_prob(all_bits).data
        assert np.exp(logp).sum() == pytest.approx(1.0, abs=1e-9)

    def test_amplitude_modulus_consistency(self, wf):
        bits = sector_bitstrings(8, 2, 2)[:5]
        amps = wf.amplitudes(bits)
        logp = wf.log_prob(bits).data
        np.testing.assert_allclose(np.abs(amps) ** 2, np.exp(logp), rtol=1e-10)

    def test_log_amplitudes_agree_with_amplitudes(self, wf):
        bits = sector_bitstrings(8, 2, 2)[:5]
        np.testing.assert_allclose(
            np.exp(wf.log_amplitudes(bits)), wf.amplitudes(bits), rtol=1e-10
        )


class TestConditionals:
    def test_rows_sum_to_one(self, wf):
        prefix = np.array([[0, 3], [1, 2]], dtype=np.int64)
        cu, cd = wf.sector_counts(prefix)
        probs = wf.conditional_probs(prefix, cu, cd)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)

    def test_forbidden_tokens_zero(self):
        wf = build_qiankunnet(4, 1, 1, d_model=8, n_heads=2, n_layers=1,
                              phase_hidden=(8,), seed=2)
        # prefix consumed the only up+dn pair -> remaining token must be 0
        prefix = np.array([[3]], dtype=np.int64)
        cu, cd = wf.sector_counts(prefix)
        probs = wf.conditional_probs(prefix, cu, cd)
        np.testing.assert_allclose(probs[0], [1.0, 0.0, 0.0, 0.0], atol=1e-12)

    def test_chain_rule_consistency(self, wf):
        """log_prob must equal the sum of sequential conditional logs."""
        bits = sector_bitstrings(8, 2, 2)[7:8]
        toks = wf.bits_to_tokens(bits)
        total = 0.0
        cu = np.zeros(1, dtype=np.int64)
        cd = np.zeros(1, dtype=np.int64)
        for k in range(wf.n_tokens):
            probs = wf.conditional_probs(toks[:, :k], cu, cd)
            total += np.log(probs[0, toks[0, k]])
            du, dd = wf.sector_counts(toks[:, k : k + 1])
            cu += du
            cd += dd
        assert total == pytest.approx(wf.log_prob(bits).data[0], abs=1e-9)


class TestGradients:
    def test_log_prob_grad_sums_to_zero_in_expectation(self, wf):
        """E_pi[grad log pi] = 0: verified by exact enumeration."""
        bits = sector_bitstrings(8, 2, 2)
        probs = np.exp(wf.log_prob(bits).data)
        wf.zero_grad()
        from repro.autograd import Tensor

        loss = (Tensor(probs) * wf.log_prob(bits)).sum()
        loss.backward()
        amp_params = list(wf.amplitude.parameters())
        g = np.concatenate([p.grad.reshape(-1) for p in amp_params if p.grad is not None])
        np.testing.assert_allclose(g, 0.0, atol=1e-8)

    def test_phase_does_not_affect_probability(self, wf):
        bits = sector_bitstrings(8, 2, 2)[:3]
        logp0 = wf.log_prob(bits).data.copy()
        for p in wf.phase.parameters():
            p.data += 0.37
        np.testing.assert_array_equal(wf.log_prob(bits).data, logp0)
