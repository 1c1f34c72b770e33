"""Prefix-shared amplitude evaluation vs the dense forward.

``NNQSWavefunction.log_amplitudes`` walks the token prefix tree of its input
through one session of the amplitude network per block (KV-cached for the
transformer, the foils' recompute session otherwise).  The taped ``log_prob``
runs the same tree node-major — one row per distinct prefix through every
layer.  The dense
forward (``log_prob_reference``) is the oracle of both: values must agree to
1e-12 on every input shape, the taped gradient to 1e-10, and everything
built on the entry points — the table extension, exact local energies, the
mock backend's transfer contract — must be unchanged.
"""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.core.wavefunction as wavefunction
from repro.autograd import Tensor, no_grad
from repro.backend import UNTAGGED, use_backend
from repro.core import (
    SampleBatch,
    build_amplitude_table,
    build_qiankunnet,
    extend_amplitude_table,
    local_energy,
)
from repro.hamiltonian import compress_hamiltonian, synthetic_molecular_hamiltonian
from repro.nn import TransformerInferenceSession
from repro.utils.bitstrings import (
    int_to_bits,
    lexsort_keys,
    pack_bits,
    searchsorted_keys,
    unique_keys,
    unpack_bits,
)
from tests.conftest import baselines, build_wf
from tests.test_backend import _fresh_vmc
from tests.test_local_energy import dense_local_energy
from tests.test_wavefunction import sector_bitstrings

TOL = 1e-12
N = 8


def build(**kwargs):
    return build_qiankunnet(N, 2, 2, d_model=8, n_heads=2, n_layers=2,
                            phase_hidden=(16,), seed=5, **kwargs)


WAVEFUNCTIONS = {
    "constrained": build(),
    "unconstrained": build(constrain=False),
    "one-bit-tokens": build(token_bits=1),
}


def dense(wf, bits):
    """One-shot ``0.5 log pi + i phi`` through the dense forward."""
    with no_grad():
        return 0.5 * wf.log_prob_reference(bits).data + 1j * wf.phase_of(bits).data


def assert_matches_dense(wf, bits):
    # rtol carries the sector-violating rows, whose log pi is a multiple of
    # MASK_VALUE = -1e30 on both paths.
    np.testing.assert_allclose(wf.log_amplitudes(bits), dense(wf, bits),
                               rtol=TOL, atol=TOL)


def bits_of(values):
    return np.array([int_to_bits(v, N) for v in values], dtype=np.uint8).reshape(-1, N)


class TestSharedEqualsDense:
    @pytest.mark.parametrize("name", WAVEFUNCTIONS)
    @settings(max_examples=40, deadline=None)
    @given(values=st.lists(st.integers(0, 2**N - 1), min_size=0, max_size=40))
    def test_random_bit_sets(self, name, values):
        """Unsorted input, duplicate rows, one row, zero rows and
        sector-violating rows (any 8-bit string) all land on the dense value."""
        assert_matches_dense(WAVEFUNCTIONS[name], bits_of(values))

    @pytest.mark.parametrize("name", WAVEFUNCTIONS)
    def test_full_sector_shuffled_with_duplicates(self, name):
        bits = sector_bitstrings(N, 2, 2)
        rows = np.random.default_rng(0).integers(0, len(bits), size=3 * len(bits))
        assert_matches_dense(WAVEFUNCTIONS[name], bits[rows])

    def test_sector_violating_rows_carry_the_masked_value(self):
        wf = WAVEFUNCTIONS["constrained"]
        bits = bits_of([0b11111111, 0b00000000, 0b00001111])
        shared = wf.log_amplitudes(bits)
        assert np.all(shared[:2].real < -1e29)       # violations: masked
        assert shared[2].real > -50.0                # (2, 2) sector: finite
        assert_matches_dense(wf, bits)

    def test_one_row_and_zero_rows(self, monkeypatch):
        wf = WAVEFUNCTIONS["constrained"]
        bits = sector_bitstrings(N, 2, 2)
        assert_matches_dense(wf, bits[4:5])
        assert wf.log_amplitudes(bits[4]).shape == (1,)     # 1-D input
        monkeypatch.setattr(wf, "make_session", None)       # opening one would raise
        out = wf.log_amplitudes(bits[:0])
        assert out.shape == (0,) and out.dtype == np.complex128

    @pytest.mark.parametrize("block", [1, 7, 35, 36, 37, 72])
    def test_result_independent_of_block_boundaries(self, monkeypatch, block):
        """72 rows (36 sector states twice): the bound straddles, divides and
        exceeds the row count."""
        wf = WAVEFUNCTIONS["constrained"]
        bits = np.tile(sector_bitstrings(N, 2, 2), (2, 1))
        bits = bits[np.random.default_rng(1).permutation(len(bits))]
        one_walk = wf.log_amplitudes(bits)
        monkeypatch.setattr(wavefunction, "PREFIX_BLOCK", block)
        np.testing.assert_allclose(wf.log_amplitudes(bits), one_walk, rtol=TOL, atol=TOL)
        assert_matches_dense(wf, bits)

    def test_session_never_holds_more_rows_than_the_block(self, monkeypatch):
        wf = WAVEFUNCTIONS["unconstrained"]
        bits = bits_of(range(2**N))
        stepped, selected = [], []
        real_step, real_select = (TransformerInferenceSession.step,
                                  TransformerInferenceSession.select)

        def step(self, prev_tokens=None):
            stepped.append(self.batch_size)
            return real_step(self, prev_tokens)

        def select(self, idx):
            selected.append(len(idx))
            return real_select(self, idx)

        monkeypatch.setattr(TransformerInferenceSession, "step", step)
        monkeypatch.setattr(TransformerInferenceSession, "select", select)
        monkeypatch.setattr(wavefunction, "PREFIX_BLOCK", 16)
        wf.log_amplitudes(bits)
        assert max(stepped + selected) <= 16
        # A block of 16 sorted rows shares its first two tokens: 1 + 1 + 1 + 4
        # distinct prefixes over the four levels, against 16 x 4 dense.
        assert sum(stepped) == 16 * 7


# (n_qubits, n_up, n_dn) of the molecules' STO-3G sectors
SECTORS = {"h2": (4, 1, 1), "lih": (12, 2, 2), "n2": (20, 7, 7)}


def sector_rows(rng, n_qubits, n_up, n_dn, n_rows):
    """Random rows of the (n_up, n_dn) sector, unsorted."""
    bits = np.zeros((n_rows, n_qubits), dtype=np.uint8)
    for row in bits:
        row[2 * rng.choice(n_qubits // 2, size=n_up, replace=False)] = 1
        row[2 * rng.choice(n_qubits // 2, size=n_dn, replace=False) + 1] = 1
    return bits


def value_and_gradient(wf, head, bits, coeff):
    wf.zero_grad()
    out = head(bits)
    (Tensor(coeff) * out).sum().backward()
    return out.data.copy(), wf.get_flat_grads()


class TestTapedTreeEqualsDense:
    """``log_prob`` (node-major over the prefix tree) against
    ``log_prob_reference`` (every row x position): value and flat gradient."""

    @staticmethod
    def _assert_equal(wf, bits, seed=0):
        coeff = np.random.default_rng(seed).normal(size=len(bits))
        value, grad = value_and_gradient(wf, wf.log_prob, bits, coeff)
        want, want_grad = value_and_gradient(wf, wf.log_prob_reference, bits, coeff)
        assert value.shape == (len(bits),)
        np.testing.assert_allclose(value, want, rtol=TOL, atol=TOL)
        assert np.max(np.abs(want_grad)) > 1e-3
        np.testing.assert_allclose(grad, want_grad, rtol=0,
                                   atol=1e-10 * np.max(np.abs(want_grad)))

    @pytest.mark.parametrize("reverse_order", [True, False], ids=["reversed", "natural"])
    @pytest.mark.parametrize("constrain", [True, False], ids=["constrained", "free"])
    @pytest.mark.parametrize("token_bits", [1, 2])
    @pytest.mark.parametrize("molecule", SECTORS)
    def test_value_and_gradient(self, molecule, token_bits, constrain, reverse_order):
        n_qubits, n_up, n_dn = SECTORS[molecule]
        wf = build_qiankunnet(n_qubits, n_up, n_dn, phase_hidden=(8,), seed=3,
                              token_bits=token_bits, constrain=constrain,
                              reverse_order=reverse_order)
        rng = np.random.default_rng(n_qubits)
        bits = sector_rows(rng, n_qubits, n_up, n_dn, 30)
        if not constrain:       # any bitstring is in the support
            bits[:10] = rng.integers(0, 2, size=(10, n_qubits))
        bits = np.concatenate([bits, bits[:9], bits[3:4]])      # duplicate rows
        bits = bits[rng.permutation(len(bits))]                 # unsorted
        self._assert_equal(wf, bits)
        self._assert_equal(wf, bits[:1])                        # a 1-row batch

    def test_rows_come_back_in_input_order(self):
        wf = WAVEFUNCTIONS["constrained"]
        bits = sector_bitstrings(N, 2, 2)
        shuffled = np.random.default_rng(2).permutation(len(bits))
        with no_grad():
            np.testing.assert_array_equal(
                wf.log_prob(bits[shuffled]).data, wf.log_prob(bits).data[shuffled])

    def test_every_layer_runs_over_distinct_prefixes(self, monkeypatch):
        """The full (2, 2) sector of 8 qubits, every row twice: 72 rows x 4
        positions dense, 1 + 4 + 16 + 36 distinct prefixes of length 0..3
        node-major."""
        wf = WAVEFUNCTIONS["constrained"]
        seen = []
        real = type(wf.amplitude).prefix_logits

        def spy(self, tokens, node_at, rep_row, level):
            seen.append((node_at.shape, len(rep_row)))
            return real(self, tokens, node_at, rep_row, level)

        monkeypatch.setattr(type(wf.amplitude), "prefix_logits", spy)
        wf.log_prob(np.tile(sector_bitstrings(N, 2, 2), (2, 1)))
        assert seen == [((72, 4), 1 + 4 + 16 + 36)]

    def test_sector_violating_rows_match_the_dense_masked_value(self):
        wf = WAVEFUNCTIONS["constrained"]
        bits = bits_of([0b11111111, 0b00000000, 0b00001111, 0b00111100])
        with no_grad():
            np.testing.assert_allclose(wf.log_prob(bits).data,
                                       wf.log_prob_reference(bits).data, rtol=TOL)

    def test_mock_backend(self):
        wf = build(constrain=True)
        bits = np.tile(sector_bitstrings(N, 2, 2)[::2], (2, 1))
        with use_backend("mock") as backend:
            before = backend.counter_snapshot()["to_host"]
            self._assert_equal(wf, bits)
            assert backend.counter_snapshot()["to_host"] == before


class TestFoilsThroughTheProtocol:
    """A second, structurally different network needs nothing but the
    protocol: its walk runs on its own session, across block boundaries."""

    @pytest.mark.parametrize("kind", baselines.BASELINES)
    def test_walk_equals_the_dense_forward(self, monkeypatch, kind):
        wf = build_wf(kind, N, 2, 2, phase_hidden=(16,), seed=5)
        bits = np.tile(sector_bitstrings(N, 2, 2), (2, 1))
        bits = bits[np.random.default_rng(0).permutation(len(bits))]
        opened = []
        monkeypatch.setattr(wavefunction, "PREFIX_BLOCK", 16)
        monkeypatch.setattr(wf, "session_factory", lambda b: opened.append(
            wf.amplitude.make_session(b)) or opened[-1])
        assert_matches_dense(wf, bits)
        assert len(opened) == len(wavefunction.row_blocks(len(bits), 16))
        assert all(isinstance(s, baselines.RecomputeSession) for s in opened)

    def test_baselines_agree_with_their_dense_forward(self):
        """Value 1e-12, gradient 1e-10, the autoregressive property exact."""
        report = baselines.check_baselines_agree()
        assert set(report) == set(baselines.BASELINES) == {"made", "naqs-mlp"}


def parent_extend(wf, comp, batch, table):
    """``extend_amplitude_table`` as the parent commit computed it: row-wise
    ``np.unique`` of every flip, one dense forward over the missing rows."""
    flips = (pack_bits(batch.bits)[:, None, :] ^ comp.xy_unique[None, :, :])
    flips = np.unique(flips.reshape(-1, flips.shape[-1]), axis=0)
    missing = flips[searchsorted_keys(table.keys, flips) < 0]
    bits = unpack_bits(missing, comp.n_qubits)
    if wf.constraint is not None:
        bits = bits[wf.constraint.validate_bits(bits)]
    keys = np.concatenate([table.keys, pack_bits(bits)], axis=0)
    amps = np.concatenate([table.log_amps, dense(wf, bits)])
    order = lexsort_keys(keys)
    return keys[order], amps[order]


class TestTableExtension:
    def test_one_word_keys(self, lih_problem):
        wf = build_qiankunnet(lih_problem.n_qubits, lih_problem.n_up, lih_problem.n_dn,
                              d_model=8, n_heads=2, n_layers=1, phase_hidden=(8,), seed=2)
        comp = compress_hamiltonian(lih_problem.hamiltonian)
        bits = sector_bitstrings(lih_problem.n_qubits, lih_problem.n_up,
                                 lih_problem.n_dn)[::37]
        batch = SampleBatch(bits=bits, weights=np.ones(len(bits), dtype=np.int64))
        table = build_amplitude_table(wf, batch)
        keys, amps = parent_extend(wf, comp, batch, table)
        for budget in (None, 4096):                 # one chunk / many row chunks
            got = extend_amplitude_table(wf, comp, batch, table,
                                         memory_budget_bytes=budget)
            assert got.n_entries > table.n_entries
            np.testing.assert_array_equal(got.keys, keys)
            np.testing.assert_allclose(got.log_amps, amps, rtol=TOL, atol=TOL)

    def test_two_word_keys(self):
        n_qubits = 70
        comp = compress_hamiltonian(synthetic_molecular_hamiltonian(n_qubits, 120, seed=3))
        wf = build_qiankunnet(n_qubits, 3, 3, d_model=8, n_heads=2, n_layers=1,
                              phase_hidden=(8,), constrain=False, seed=4)
        bits = np.random.default_rng(5).integers(0, 2, size=(5, n_qubits)).astype(np.uint8)
        batch = SampleBatch(bits=bits, weights=np.ones(len(bits), dtype=np.int64))
        table = build_amplitude_table(wf, batch)
        keys, amps = parent_extend(wf, comp, batch, table)
        assert keys.shape[1] == 2
        for budget in (None, 4096):
            got = extend_amplitude_table(wf, comp, batch, table,
                                         memory_budget_bytes=budget)
            np.testing.assert_array_equal(got.keys, keys)
            np.testing.assert_allclose(got.log_amps, amps, rtol=TOL, atol=TOL)

    @settings(max_examples=30, deadline=None)
    @given(n_words=st.integers(1, 3), seed=st.integers(0, 2**16))
    def test_unique_keys_is_the_rowwise_unique_in_lexsort_order(self, n_words, seed):
        rng = np.random.default_rng(seed)
        keys = rng.integers(0, 4, size=(rng.integers(0, 60), n_words)).astype(np.uint64)
        want = np.unique(keys, axis=0)
        np.testing.assert_array_equal(unique_keys(keys), want[lexsort_keys(want)])


class TestExactLocalEnergy:
    @pytest.mark.parametrize("molecule, stride", [("h2", 1), ("lih", 29)])
    def test_matches_the_dense_sector_oracle(self, request, molecule, stride):
        problem = request.getfixturevalue(f"{molecule}_problem")
        wf = build_qiankunnet(problem.n_qubits, problem.n_up, problem.n_dn,
                              d_model=8, n_heads=2, n_layers=1, phase_hidden=(16,),
                              seed=21)
        comp = compress_hamiltonian(problem.hamiltonian)
        bits = sector_bitstrings(problem.n_qubits, problem.n_up, problem.n_dn)[::stride][:6]
        batch = SampleBatch(bits=bits, weights=np.ones(len(bits), dtype=np.int64))
        eloc, _ = local_energy(wf, comp, batch, mode="exact")
        ref = dense_local_energy(comp, wf, bits, problem.n_up, problem.n_dn)
        np.testing.assert_allclose(eloc, ref, rtol=1e-9)


def test_mock_backend_sees_no_unplanned_host_crossing(h2_problem):
    """Stages 2 and 3 (table build + exact-mode extension) evaluate through
    the walk without pulling anything to the host untagged."""
    vmc = _fresh_vmc(h2_problem, array_backend="mock")
    for _ in range(2):
        transfers = vmc.step().transfers
        for window in ("sampling", "post_sampling"):
            assert UNTAGGED not in transfers[window]["to_host"], transfers
        assert transfers["post_sampling"]["to_host"]["stage2.amps"] == 1
