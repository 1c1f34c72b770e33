"""Prefix-shared amplitude evaluation vs the dense forward.

``NNQSWavefunction.log_amplitudes`` walks the token prefix tree of its input
through one session of the amplitude network per block (KV-cached and
float32 for the transformer, the foils' float64 recompute session
otherwise).  Stage 5's ``log_prob_vjp`` runs the same tree node-major through
the network's forward/VJP pair — one column per distinct prefix through
every layer, float32 for the transformer.  The dense taped forward
(``log_prob``) is the oracle of both, on every input shape: the walk's and
the pair's log pi must agree to ``LOGIT_TOL`` and the pair's gradient with
the tape's to ``LOG_PI_GRAD_RTOL`` (the foils': 1e-12 and 1e-10), and
everything built on the entry points — the table extension and exact local
energies — must be unchanged.  The
phase half of a log-amplitude comes from the MLP's float32 evaluator, so it
is held to the float64 head ``phase_of`` at ``PHASE_TOL``.
"""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.core.wavefunction as wavefunction
from repro.autograd import Tensor
from repro.core import (
    SampleBatch,
    build_amplitude_table,
    build_qiankunnet,
    extend_amplitude_table,
    local_energy,
)
from repro.hamiltonian import compress_hamiltonian
from repro.nn import TransformerAmplitude, TransformerInferenceSession
from repro.utils.bitstrings import (
    ints_to_keys,
    lexsort_keys,
    pack_bits,
    searchsorted_keys,
    unique_keys,
    unpack_bits,
)
from tests.conftest import LOG_PI_GRAD_RTOL, LOGIT_TOL, baselines, build_wf
from tests.synthetic import synthetic_molecular_hamiltonian
from tests.test_local_energy import dense_local_energy
from tests.test_wavefunction import sector_bitstrings

TOL = 1e-12
# phi of a no-grad log-amplitude is PhaseMLP.step's float32 GEMM chain; these
# small nets land within ~1e-7 rad of the float64 phase_of.
PHASE_TOL = 1e-6
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
    """One-shot ``0.5 log pi + i phi`` through the dense float64 forward."""
    return 0.5 * wf.log_prob(bits).data + 1j * wf.phase_of(bits).data


def assert_log_amps_close(got, want, tol=LOGIT_TOL):
    """log pi (the real part) to ``tol`` — the transformer's float32 walk
    by default —, phi (the imaginary part) to ``PHASE_TOL``."""
    # rtol carries the sector-violating rows, whose log pi is a multiple of
    # MASK_VALUE = -1e30 on both paths.
    np.testing.assert_allclose(got.real, want.real, rtol=tol, atol=tol)
    np.testing.assert_allclose(got.imag, want.imag, rtol=0, atol=PHASE_TOL)


def assert_matches_dense(wf, bits):
    """The walk against the dense float64 forward: the transformer's session
    decodes in float32, a foil's recomputes in float64."""
    tol = LOGIT_TOL if isinstance(wf.amplitude, TransformerAmplitude) else TOL
    assert_log_amps_close(wf.log_amplitudes(bits), dense(wf, bits), tol)


def bits_of(values):
    return unpack_bits(ints_to_keys(values, 1), N)


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
        # ... and the float32 phase blocks: phi to PHASE_TOL.
        monkeypatch.setattr(wavefunction, "PHASE_BLOCK", block)
        assert_log_amps_close(wf.log_amplitudes(bits), one_walk)
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


def taped_value_and_gradient(wf, bits, coeff):
    """``log_prob`` and the flat gradient of ``sum(coeff * log_prob)`` by tape."""
    wf.zero_grad()
    out = wf.log_prob(bits)
    (Tensor(coeff) * out).sum().backward()
    return out.data.copy(), wf.get_flat_grads()


def vjp_value_and_gradient(wf, bits, coeff):
    """The same through ``log_prob_vjp``."""
    wf.zero_grad()
    out = wf.log_prob_vjp(bits, coeff)
    return out, wf.get_flat_grads()


class TestTapedTreeEqualsDense:
    """``log_prob_vjp`` (node-major over the prefix tree, the network's
    forward/VJP pair) against ``log_prob`` (every row x position, taped):
    value and flat gradient."""

    @staticmethod
    def _assert_equal(wf, bits, seed=0):
        coeff = np.random.default_rng(seed).normal(size=len(bits))
        value, grad = vjp_value_and_gradient(wf, bits, coeff)
        want, want_grad = taped_value_and_gradient(wf, bits, coeff)
        foil = not isinstance(wf.amplitude, TransformerAmplitude)
        tol, grad_rtol = (TOL, 1e-10) if foil else (LOGIT_TOL, LOG_PI_GRAD_RTOL)
        assert value.shape == (len(bits),) and value.dtype == np.float64
        # rtol carries the sector-violating rows (multiples of MASK_VALUE)
        np.testing.assert_allclose(value, want, rtol=tol, atol=tol)
        assert np.max(np.abs(want_grad)) > 1e-3
        assert np.linalg.norm(grad - want_grad) <= grad_rtol * np.linalg.norm(want_grad)
        # every exact zero of the tape — an unused embedding row, a head row
        # no node's gradient reaches — stays exactly zero
        assert np.all(grad[want_grad == 0.0] == 0.0)

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
        none = np.zeros(len(bits))
        np.testing.assert_array_equal(wf.log_prob_vjp(bits[shuffled], none),
                                      wf.log_prob_vjp(bits, none)[shuffled])

    def test_every_layer_runs_over_distinct_prefixes(self, monkeypatch):
        """The full (2, 2) sector of 8 qubits, every row twice: 72 rows x 4
        positions dense, 1 + 4 + 16 + 36 distinct prefixes of length 0..3 —
        of which the decoder sees 1 + 4 + 12: a length-2 prefix is decided
        unless a spin has one electron left for its two slots, a length-3
        one always (one slot), so attention reads 3 positions."""
        wf = WAVEFUNCTIONS["constrained"]
        seen = []
        real = type(wf.amplitude).prefix_forward

        def spy(self, tokens, rep_row, level):
            seen.append((len(tokens), len(rep_row), int(level.max()) + 1))
            return real(self, tokens, rep_row, level)

        monkeypatch.setattr(type(wf.amplitude), "prefix_forward", spy)
        bits = np.tile(sector_bitstrings(N, 2, 2), (2, 1))
        wf.log_prob_vjp(bits, np.zeros(len(bits)))
        assert seen == [(72, 1 + 4 + 12, 3)]

    def test_sector_violating_rows_match_the_dense_masked_value(self):
        wf = WAVEFUNCTIONS["constrained"]
        bits = bits_of([0b11111111, 0b00000000, 0b00001111, 0b00111100])
        np.testing.assert_allclose(wf.log_prob_vjp(bits, np.zeros(4)),
                                   wf.log_prob(bits).data, rtol=TOL, atol=LOGIT_TOL)


# (n_qubits, n_up, n_dn) where the mask decides much of the tree: H2 (every
# length-1 prefix), an empty spin channel, a full spin shell.
EDGE_SECTORS = {"h2": (4, 1, 1), "no-up": (8, 0, 2), "full-up-shell": (8, 4, 1)}


def open_prefix_count(wf, bits):
    """Distinct prefixes of length < T the decoder has to see, by brute
    force: all but the decided ones (``suffix_forced``) whose rows all stay
    in the sector."""
    tokens = wf.bits_to_tokens(bits)
    c = wf.constraint
    cu, cd = c.counts_before(tokens)
    in_sector = c.validate_bits(bits)
    decided = {}
    for i, row in enumerate(tokens):
        for k in range(wf.n_tokens):
            forced = bool(c.suffix_forced(cu[i, k], cd[i, k], k)) and in_sector[i]
            decided[tuple(row[:k])] = decided.get(tuple(row[:k]), True) and forced
    return sum(not d for d in decided.values())


def leave_after_a_decided_prefix(wf, bits, rng):
    """Every in-sector row, with one token past its first decided prefix
    changed: out of the sector by construction, and sharing that decided
    node with the row it came from."""
    tokens = wf.bits_to_tokens(bits)
    cu, cd = wf.constraint.counts_before(tokens)
    out = []
    for i, row in enumerate(tokens):
        k = next(k for k in range(wf.n_tokens)
                 if wf.constraint.suffix_forced(cu[i, k], cd[i, k], k))
        row = row.copy()
        p = rng.integers(k, wf.n_tokens)
        row[p] = (row[p] + rng.integers(1, wf.vocab_size)) % wf.vocab_size
        out.append(row)
    astray = wf.tokens_to_bits(np.array(out))
    assert not wf.constraint.validate_bits(astray).any()
    return astray


def stepped_session_rows(monkeypatch):
    """Record ``batch_size`` of every ``TransformerInferenceSession.step``."""
    stepped, real = [], TransformerInferenceSession.step

    def step(self, prev_tokens=None):
        stepped.append(self.batch_size)
        return real(self, prev_tokens)

    monkeypatch.setattr(TransformerInferenceSession, "step", step)
    return stepped


class TestDecidedPrefixesSkipped:
    """The walk and stage 5's pair evaluate the decoder on open prefixes
    only, and still equal the dense oracle — on edge sectors, for both token
    widths and orders, and on rows that pass a decided prefix and then leave
    the sector (skipping *their* node would drop the masked term the dense
    oracle gives them: relative error 1.0)."""

    @staticmethod
    def _wf(molecule, token_bits=2, reverse_order=True):
        n_qubits, n_up, n_dn = {**SECTORS, **EDGE_SECTORS}[molecule]
        return build_qiankunnet(n_qubits, n_up, n_dn, d_model=8, n_heads=2,
                                phase_hidden=(8,), seed=3, token_bits=token_bits,
                                reverse_order=reverse_order)

    @pytest.mark.parametrize("reverse_order", [True, False], ids=["reversed", "natural"])
    @pytest.mark.parametrize("token_bits", [1, 2])
    @pytest.mark.parametrize("molecule", [*EDGE_SECTORS, "lih"])
    def test_walk_and_taped_pass_equal_the_dense_oracle(self, molecule, token_bits,
                                                        reverse_order):
        wf = self._wf(molecule, token_bits, reverse_order)
        rng = np.random.default_rng(7)
        bits = sector_bitstrings(*{**SECTORS, **EDGE_SECTORS}[molecule])
        bits = bits[rng.permutation(len(bits))[:40]]
        astray = leave_after_a_decided_prefix(wf, bits, rng)
        for rows in (bits, np.concatenate([bits, astray, bits[:3]])):
            rows = rows[rng.permutation(len(rows))]
            assert_matches_dense(wf, rows)                   # the walk
            TestTapedTreeEqualsDense._assert_equal(wf, rows)

    def test_h2_decodes_the_root_only(self, monkeypatch):
        """Two tokens, one electron per spin: every length-1 prefix leaves
        each spin 0 or 1 electron for its 1 slot."""
        wf = self._wf("h2")
        bits = sector_bitstrings(4, 1, 1)
        stepped = stepped_session_rows(monkeypatch)
        assert_matches_dense(wf, bits)
        assert stepped == [1]
        assert open_prefix_count(wf, bits) == 1

    @pytest.mark.parametrize("molecule", ["lih", "n2"])
    def test_one_decoder_row_per_open_prefix(self, monkeypatch, molecule):
        """A fixed tree — sector rows and rows that leave the sector after a
        decided prefix: the walk steps, and stage 5's pair evaluates,
        exactly the open prefixes counted by brute force."""
        wf = self._wf(molecule)
        rng = np.random.default_rng(11)
        bits = sector_rows(rng, *SECTORS[molecule], 60)
        bits = np.concatenate([bits, leave_after_a_decided_prefix(wf, bits[:20], rng)])
        want = open_prefix_count(wf, bits)
        all_prefixes = len({tuple(r[:k]) for r in wf.bits_to_tokens(bits)
                            for k in range(wf.n_tokens)})
        assert want < all_prefixes
        stepped = stepped_session_rows(monkeypatch)
        wf.log_amplitudes(bits)
        assert sum(stepped) == want
        evaluated = []
        real = type(wf.amplitude).prefix_forward
        monkeypatch.setattr(type(wf.amplitude), "prefix_forward",
                            lambda self, tokens, rep_row, level:
                            evaluated.append(len(rep_row)) or real(self, tokens,
                                                                   rep_row, level))
        wf.log_prob_vjp(bits, np.ones(len(bits)))
        assert evaluated == [want]

    def test_a_sector_of_one_configuration(self, monkeypatch):
        """Both spin shells full: the mask decides every token.  The walk
        opens no session, stage 5's pair evaluates no network, and log pi
        is exactly 0 with a zero gradient, as the dense tape has it."""
        wf = build_qiankunnet(4, 2, 2, d_model=8, n_heads=2, phase_hidden=(8,), seed=3)
        bits = np.ones((2, 4), dtype=np.uint8)
        want, want_grad = taped_value_and_gradient(wf, bits, np.ones(2))
        assert np.all(want == 0.0) and not np.any(want_grad)
        monkeypatch.setattr(wf, "make_session", None)       # opening one would raise
        monkeypatch.setattr(wf.amplitude, "prefix_forward", None)
        assert np.all(wf.log_amplitudes(bits).real == 0.0)
        value, grad = vjp_value_and_gradient(wf, bits, np.ones(2))
        assert np.all(value == 0.0) and not np.any(grad)


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
        monkeypatch.setattr(wf, "make_session", lambda b: opened.append(
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
            assert_log_amps_close(got.log_amps, amps)

    @pytest.mark.parametrize("constrain", [False, True])
    def test_two_word_keys(self, constrain):
        """70 qubits; constrained, the coupled keys leave the sector too and
        only the valid ones are added."""
        n_qubits = 70
        comp = compress_hamiltonian(synthetic_molecular_hamiltonian(n_qubits, 120, seed=3))
        wf = build_qiankunnet(n_qubits, 3, 3, d_model=8, n_heads=2, n_layers=1,
                              phase_hidden=(8,), constrain=constrain, seed=4)
        rng = np.random.default_rng(5)
        bits = rng.integers(0, 2, size=(5, n_qubits)).astype(np.uint8)
        if constrain:                    # 3 alpha (even) and 3 beta (odd) qubits
            bits[:] = 0
            for row in bits:
                row[2 * rng.choice(n_qubits // 2, 3, replace=False)] = 1
                row[2 * rng.choice(n_qubits // 2, 3, replace=False) + 1] = 1
            bits = np.unique(bits, axis=0)
        batch = SampleBatch(bits=bits, weights=np.ones(len(bits), dtype=np.int64))
        table = build_amplitude_table(wf, batch)
        keys, amps = parent_extend(wf, comp, batch, table)
        assert keys.shape[1] == 2
        for budget in (None, 4096):
            got = extend_amplitude_table(wf, comp, batch, table,
                                         memory_budget_bytes=budget)
            np.testing.assert_array_equal(got.keys, keys)
            assert_log_amps_close(got.log_amps, amps)

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
        # Both sides read float32 phi, but over different row sets, and a
        # float32 GEMM rounds by its batch: ~1e-8 relative, past the 1e-9
        # that held in float64.
        np.testing.assert_allclose(eloc, ref, rtol=1e-6)

