"""The production arithmetic is float32: an audit against the float64 oracles.

Four float32 paths, each with a float64 oracle:

* the KV-cached decoder (``repro.nn.inference``): the BAS sweep's
  ``SampleBatch.log_prob`` and the walk of ``log_amplitudes``
  (``_log_prob_shared``: the amplitude-table extension, serving,
  observables).  Oracle: ``log_prob``, the dense forward through the taped
  float64 block ops;
* ``PhaseMLP.step`` (``wf.phases``: stage 2 and the same consumers).
  Oracle: ``phase_of``, the taped float64 head;
* ``PhaseMLP.vjp`` (``wf.phase_vjp``: stage 5's phase gradient).  Oracle:
  ``phase_of``'s tape;
* ``TransformerAmplitude.prefix_forward`` / ``prefix_vjp``
  (``wf.log_prob_vjp``: stage 5's log-pi gradient, pretraining).  Oracle:
  ``log_prob``'s tape.

At one θ, every quantity these paths feed is computed from both arithmetics
and held to the bounds below (measured margins in the comments).

For scale, the Monte Carlo noise these bounds sit under: two independent
100k-sample batches of the N2 fixture's θ give stage-5 gradients that differ
by 6.4 % (full) and 13.5-14 % (phase slice) relative.
"""
from dataclasses import replace

import numpy as np
import pytest

from repro.autograd import Tensor
from repro.autograd.oracle import forward, padded_next_logits
from repro.chem import build_problem
from repro.core import (
    NoamAdamW,
    VMC,
    VMCConfig,
    batch_autoregressive_sample,
    build_amplitude_table,
    build_qiankunnet,
    extend_amplitude_table,
    local_energy,
    pretrain_to_reference,
    sector_expectation,
)
from repro.core import sampler, wavefunction
from repro.core.checkpoint import load_checkpoint, save_checkpoint
from repro.core.engine import stage_backward
from repro.hamiltonian import compress_hamiltonian, sector_basis
from repro.nn import PhaseMLP
from repro.optim import AdamW
from repro.utils.bitstrings import unpack_bits
from tests.conftest import LOG_PI_GRAD_RTOL, LOGIT_TOL, amplitude_and_phase

# Exact <psi|H|psi> with both halves float32 (measured <= 1.3e-7 Ha, LiH;
# H2 1.2e-8, n2-cas66 1.4e-8).  It was 1e-8 while only the phase was float32
# (<= 8.2e-10); the float32 decoder moves log pi by up to ~1e-6, and the bound
# stays more than three orders of magnitude below chemical accuracy (1.6e-3 Ha).
SECTOR_E_TOL = 1e-6
ELOC_TOL = 1e-4          # Ha, any one sample's E_loc (measured 6.7e-6)
E_SHIFT_OF_ERROR = 1e-3  # |dE| / std_error of the estimate (measured 2.6e-8)
GRAD_RTOL = 1e-6         # relative, the Eq. 7 gradient (measured <= 3.1e-7)
LOG_PI_TOL = 2e-5        # log pi, paper-size N2 decoder (measured: sweep 1.3e-6,
                         # walk 2.5e-6 over 10k coupled rows, median 3.7e-7)
PHASE_TOL = 1e-6         # rad, paper-size net (measured 1.9e-7)
PHASE_GRAD_RTOL = 1e-5   # relative, stage 5's phase slice (measured 3.7e-7;
                         # 9.1e-7 per layer of the paper-size net)
GAUGE_TOL = 1e-12        # |gradient| along a gauge direction: the phase output
                         # bias at centred coefficients (~1e-18), the attention
                         # key biases (exactly 0; the tape's ~1e-18, float32's
                         # up to 1.4e-9)
MULTINOMIAL_SUM_TOL = 1e-12   # Generator.multinomial refuses sum(p[:-1]) > 1 + 1e-12
                              # (measured: row sums within 2.2e-16)


def float64_phases(wf, bits):
    """``wf.phases`` through the taped float64 head: the oracle."""
    return wf.phase_of(bits).data


def float64_log_pi(wf, bits):
    """``wf._log_prob_shared`` — and a sweep's ``SampleBatch.log_prob`` —
    through the dense float64 forward: the decoder's oracle."""
    return wf.log_prob(bits).data


def float64_log_prob_vjp(wf, bits, coeff):
    """``wf.log_prob_vjp`` through the float64 tape of ``log_prob``."""
    logp = wf.log_prob(bits)
    (Tensor(coeff) * logp).sum().backward()
    return logp.data


def float64_phase_vjp(wf, bits, coeff):
    """``wf.phase_vjp`` through the float64 tape of ``phase_of``."""
    (Tensor(coeff) * wf.phase_of(bits)).sum().backward()


def float64_evaluators(patch, wf):
    """Route both no-grad halves of ``wf`` and both halves of stage 5 through
    their float64 oracles."""
    patch.setattr(wf, "phases", lambda bits, params32=None: float64_phases(wf, bits))
    patch.setattr(wf, "_log_prob_shared", lambda bits: float64_log_pi(wf, bits))
    patch.setattr(wf, "log_prob_vjp", lambda bits, c: float64_log_prob_vjp(wf, bits, c))
    patch.setattr(wf, "phase_vjp",
                  lambda bits, c, forward=None: float64_phase_vjp(wf, bits, c))


# problem name -> build_problem arguments (n2-cas66 is the preset's window)
SECTORS = {
    "h2": ("H2", {"r": 0.7414}),
    "lih": ("LiH", {}),
    "n2-cas66": ("N2", {"n_frozen": 2, "n_active": 6, "r": 1.0977}),
}


@pytest.mark.parametrize("name", SECTORS)
def test_exact_sector_energy(name):
    """<psi|H|psi> / <psi|psi> over the whole sector: ``log_amplitudes``
    (float32 decoder walk + float32 phase) against both float64 oracles."""
    molecule, kwargs = SECTORS[name]
    problem = build_problem(molecule, "sto-3g", **kwargs)
    wf = build_qiankunnet(problem.n_qubits, problem.n_up, problem.n_dn, seed=7)
    basis = sector_basis(problem.n_qubits, problem.n_up, problem.n_dn)
    bits = basis.bits()

    def energy(log_psi):
        return sector_expectation(problem.hamiltonian, np.exp(log_psi), basis)

    oracle = 0.5 * float64_log_pi(wf, bits) + 1j * float64_phases(wf, bits)
    assert abs(energy(wf.log_amplitudes(bits)) - energy(oracle)) <= SECTOR_E_TOL


@pytest.fixture(scope="module")
def n2():
    """N2/STO-3G at the ``n2_*`` workloads' θ (seed 6, pretrained toward HF)
    and a 100k-sample BAS batch of it (N_u ~ 550)."""
    problem = build_problem("N2", "sto-3g")
    wf = build_qiankunnet(problem.n_qubits, problem.n_up, problem.n_dn, seed=6)
    pretrain_to_reference(wf, problem.hf_bits, n_steps=60, target_prob=0.2)
    batch = batch_autoregressive_sample(wf, 100_000, np.random.default_rng(1))
    return wf, compress_hamiltonian(problem.hamiltonian), batch


def _estimates(wf, comp, batch, mode):
    """Per-sample E_loc, the energy, its i.i.d. error bar and the stage-5
    gradient (a copy: the arena buffer is reused)."""
    eloc, _ = local_energy(wf, comp, batch, mode=mode)
    w = batch.weights / batch.weights.sum()
    energy = float(np.sum(w * eloc.real))
    std_error = float(np.sqrt(np.sum(w * (eloc.real - energy) ** 2) / batch.n_samples))
    grad = stage_backward(wf, batch, w, eloc, energy, float(np.sum(w * eloc.imag)))
    return eloc, energy, std_error, grad.copy()


@pytest.fixture(scope="module", params=["exact", "sample_aware"])
def both(request, n2):
    """``_estimates`` in production arithmetic (float32 decoder walk, phase
    and stage 5), then through the float64 oracles (the sweep's
    ``log_prob`` too)."""
    wf, comp, batch = n2
    f32 = _estimates(wf, comp, batch, request.param)
    with pytest.MonkeyPatch.context() as patch:
        float64_evaluators(patch, wf)
        oracle_batch = replace(batch, log_prob=float64_log_pi(wf, batch.bits))
        f64 = _estimates(wf, comp, oracle_batch, request.param)
    return f32, f64


class TestN2Batch:
    def test_per_sample_local_energy(self, both):
        (eloc32, *_), (eloc64, *_) = both
        assert np.max(np.abs(eloc32 - eloc64)) <= ELOC_TOL

    def test_energy_within_a_sliver_of_its_error_bar(self, both):
        (_, e32, _, _), (_, e64, std_error, _) = both
        assert std_error > 0
        assert abs(e32 - e64) <= E_SHIFT_OF_ERROR * std_error

    def test_stage5_gradient(self, both):
        (*_, g32), (*_, g64) = both
        assert np.linalg.norm(g64) > 0
        assert np.linalg.norm(g32 - g64) <= GRAD_RTOL * np.linalg.norm(g64)


class TestDecoder:
    """The float32 KV-cached decoder against the dense float64 forward on the
    N2 fixture (the paper-size transformer: d_model 16, 4 heads, 2 layers)."""

    def test_the_sweep_log_prob(self, n2):
        wf, _, batch = n2
        err = np.abs(batch.log_prob - float64_log_pi(wf, batch.bits))
        assert np.max(err) <= LOG_PI_TOL

    def test_the_walk_on_the_coupled_set(self, n2):
        """The rows ``n2_exact``'s table extension walks each iteration."""
        wf, comp, batch = n2
        table = build_amplitude_table(wf, batch)
        extended = extend_amplitude_table(wf, comp, batch, table)
        assert extended.n_entries > 10 * table.n_entries
        bits = unpack_bits(extended.keys, wf.n_qubits)
        err = np.abs(2.0 * extended.log_amps.real - float64_log_pi(wf, bits))
        assert np.max(err) <= LOG_PI_TOL

    def test_probabilities_pass_the_multinomial_sum_check(self, n2, monkeypatch):
        """Masked, renormalized conditionals of float32 logits: every row the
        sweep splits weights by sums to 1 within ``Generator.multinomial``'s
        check (the softmax runs on the float64 logits)."""
        wf, _, _ = n2
        seen, real = [], sampler._multinomial_rows

        def record(rng, weights, probs):
            seen.append(probs.copy())
            return real(rng, weights, probs)

        monkeypatch.setattr(sampler, "_multinomial_rows", record)
        batch_autoregressive_sample(wf, 100_000, np.random.default_rng(2))
        probs = np.concatenate(seen)
        assert probs.dtype == np.float64 and len(probs) > 100
        assert np.max(np.abs(probs.sum(axis=1) - 1.0)) <= MULTINOMIAL_SUM_TOL
        assert np.max(probs[:, :-1].sum(axis=1)) <= 1.0 + MULTINOMIAL_SUM_TOL


def key_bias_gradients(wf):
    """The attention key biases' gradients, one ``d_model`` slice per layer."""
    d = wf.amplitude.d_model
    return np.concatenate([layer.attn.qkv.bias.grad[d:2 * d].copy()
                           for layer in wf.amplitude.layers])


@pytest.fixture(scope="module", params=["exact", "sample_aware"])
def stage5(request, n2):
    """One batch's coefficients through ``stage_backward`` (float32 VJPs)
    and through the all-float64 tape: ``(grad, want)`` as whole vectors and
    as ``amplitude_and_phase`` slices, and the gauge directions' gradients
    as each left them."""
    wf, comp, batch = n2
    eloc, _ = local_energy(wf, comp, batch, mode=request.param)
    w = batch.weights / batch.weights.sum()
    args = (wf, batch, w, eloc, float(np.sum(w * eloc.real)),
            float(np.sum(w * eloc.imag)))
    grad = stage_backward(*args).copy()
    gauge = float(wf.phase.layers[-1].bias.grad[0])
    key_bias = key_bias_gradients(wf)
    with pytest.MonkeyPatch.context() as patch:
        float64_evaluators(patch, wf)
        want = stage_backward(*args).copy()
    return {"full": (grad, want), "gauge": gauge,
            "key_bias": (key_bias, key_bias_gradients(wf)),
            **dict(zip(("amplitude", "phase"),
                       zip(amplitude_and_phase(wf, grad), amplitude_and_phase(wf, want))))}


class TestStage5:
    """Stage 5 against the float64 tape at fixed coefficients."""

    def test_full_gradient(self, stage5):
        grad, want = stage5["full"]
        assert np.linalg.norm(grad - want) <= GRAD_RTOL * np.linalg.norm(want)

    def test_phase_slice(self, stage5):
        phase, want = stage5["phase"]
        assert np.linalg.norm(want) > 0
        assert np.linalg.norm(phase - want) <= PHASE_GRAD_RTOL * np.linalg.norm(want)

    def test_amplitude_slice(self, stage5):
        amplitude, want = stage5["amplitude"]
        assert np.linalg.norm(want) > 0
        assert np.linalg.norm(amplitude - want) <= LOG_PI_GRAD_RTOL * np.linalg.norm(want)

    def test_every_exact_zero_of_the_tape_stays_zero(self, stage5):
        """Masked tokens' head rows, the positional rows no open prefix
        reaches (the last is never used), the embedding row of a token no
        node consumes."""
        grad, want = stage5["full"]
        zero = want == 0.0
        assert zero.sum() >= 16          # at least the unused positional row (d_model)
        assert np.all(grad[zero] == 0.0)

    def test_output_bias_gradient_is_the_gauge_zero(self, stage5):
        """The global phase is a gauge: its gradient is 0 at centred
        coefficients, so stage 5 sums it in float64."""
        assert abs(stage5["gauge"]) <= GAUGE_TOL

    def test_key_bias_gradient_is_the_gauge_zero(self, stage5):
        """A key bias adds one constant to all of a query's scores, which the
        softmax removes: the tape leaves rounding there, stage 5 writes 0."""
        got, want = stage5["key_bias"]
        assert np.max(np.abs(want)) <= GAUGE_TOL
        assert np.max(np.abs(got)) <= GAUGE_TOL


class TestLogProbVJP:
    """``wf.log_prob_vjp`` against ``log_prob``'s float64 tape on the N2
    fixture's paper-size transformer, for the inputs stage 5 and pretraining
    can hand it."""

    @staticmethod
    def _vjp(wf, bits, coeff):
        """Value and flat gradient of ``log_prob_vjp`` into a zeroed, bound
        arena."""
        wf.arena().zero_grad(bind_all=True)
        value = wf.log_prob_vjp(bits, coeff)
        return value, wf.arena().grad.copy()

    @classmethod
    def _assert_close(cls, wf, bits, coeff):
        value, grad = cls._vjp(wf, bits, coeff)
        wf.arena().zero_grad(bind_all=True)
        want = float64_log_prob_vjp(wf, bits, coeff)
        want_grad = wf.arena().grad.copy()
        # rtol carries the out-of-sector rows (multiples of MASK_VALUE)
        np.testing.assert_allclose(value, want, rtol=LOG_PI_TOL, atol=LOG_PI_TOL)
        assert np.linalg.norm(want_grad) > 0
        assert (np.linalg.norm(grad - want_grad)
                <= LOG_PI_GRAD_RTOL * np.linalg.norm(want_grad))
        assert np.all(grad[want_grad == 0.0] == 0.0)
        return value

    def test_duplicate_and_astray_rows(self, n2):
        """Shuffled batch rows, a quarter of them twice, and rows one flipped
        bit outside the sector (log pi a multiple of ``MASK_VALUE``)."""
        wf, _, batch = n2
        rng = np.random.default_rng(8)
        bits = batch.bits[rng.permutation(batch.n_unique)[:200]]
        astray = bits[:20].copy()
        astray[:, 0] ^= 1
        bits = np.concatenate([bits, bits[:50], astray])
        value = self._assert_close(wf, bits[rng.permutation(len(bits))],
                                   rng.normal(size=len(bits)))
        assert np.sum(value < -1e29) == len(astray)

    def test_a_root_only_batch(self, monkeypatch):
        """H2: the sector decides every length-1 prefix, so the one node the
        network evaluates is the root."""
        wf = build_qiankunnet(4, 1, 1, seed=7)
        bits = sector_basis(4, 1, 1).bits()
        seen, real = [], type(wf.amplitude).prefix_forward
        monkeypatch.setattr(type(wf.amplitude), "prefix_forward",
                            lambda self, *a: seen.append(len(a[1])) or real(self, *a))
        self._assert_close(wf, bits, np.random.default_rng(9).normal(size=len(bits)))
        assert seen == [1]

    def test_zero_rows(self, n2):
        wf, _, batch = n2
        value, grad = self._vjp(wf, batch.bits[:0], np.zeros(0))
        assert value.shape == (0,) and value.dtype == np.float64
        assert not grad.any()

    def test_accumulates_into_the_bound_arena(self, n2):
        """Two calls add two gradients into the arena's views, bitwise."""
        wf, _, batch = n2
        coeff = np.random.default_rng(10).normal(size=batch.n_unique)
        _, once = self._vjp(wf, batch.bits, coeff)
        wf.log_prob_vjp(batch.bits, coeff)
        arena = wf.arena()
        assert wf.amplitude.head.weight.grad.base is arena.payload   # still the view
        np.testing.assert_array_equal(arena.grad, 2 * once)

    @pytest.mark.parametrize("move", ["set_flat_params", "adamw_step"])
    def test_reads_the_parameters_it_is_called_with(self, n2, move):
        """No cached float32 copy: once θ moves, the pair is the new θ's."""
        wf, _, batch = n2
        theta = wf.get_flat_params()
        bits = batch.bits[:100]
        coeff = np.random.default_rng(11).normal(size=len(bits))
        before, _ = self._vjp(wf, bits, coeff)
        try:
            if move == "set_flat_params":
                wf.set_flat_params(1.1 * theta)
            else:
                opt = AdamW(wf, lr=1e-2)
                self._vjp(wf, bits, coeff)
                opt.step()
            after = self._assert_close(wf, bits, coeff)
            assert np.max(np.abs(after - before)) > 1e3 * LOG_PI_TOL
        finally:
            wf.set_flat_params(theta)


class TestPhaseVJP:
    """``PhaseMLP.vjp`` against ``forward``'s tape on the paper's
    20 x 512 x 512 x 1, layer by layer."""

    @pytest.fixture(scope="class")
    def net(self):
        return PhaseMLP(20, hidden=(512, 512), rng=np.random.default_rng(0))

    @staticmethod
    def _taped(net, bits, coeff):
        net.arena().zero_grad(bind_all=True)
        (Tensor(coeff) * forward(net, bits)).sum().backward()
        return [p.grad.copy() for p in net.parameters()]

    @staticmethod
    def _vjp(net, bits, coeff, calls=1):
        """Per-parameter gradients after ``calls`` VJPs into the bound,
        zeroed arena views."""
        arena = net.arena()
        arena.zero_grad(bind_all=True)
        for _ in range(calls):
            net.vjp(bits, coeff)
        assert net.layers[0].weight.grad.base is arena.payload  # still the view
        return [p.grad.copy() for p in net.parameters()]

    def test_matches_the_taped_backward_per_layer(self, net):
        rng = np.random.default_rng(3)
        bits = rng.integers(0, 2, size=(2000, 20), dtype=np.uint8)
        coeff = rng.normal(size=2000) / 2000
        got, want = self._vjp(net, bits, coeff), self._taped(net, bits, coeff)
        names = [name for name, _ in net.named_parameters()]
        for name, g, w in zip(names, got, want):
            assert g.dtype == np.float64 and g.shape == w.shape, name
            assert np.linalg.norm(g - w) <= PHASE_GRAD_RTOL * np.linalg.norm(w), name
        np.testing.assert_allclose(got[-1], coeff.sum(), rtol=1e-12)  # float64 bias

    @staticmethod
    def _vjp_all_gemm(net, bits, coeff):
        """The backward with every ``W^T g`` a GEMM, the output layer's
        ``(hidden, 1) @ (1, batch)`` included; per-parameter gradients in
        ``net.parameters()`` order."""
        params32 = net.cast32()
        acts = net._forward32(bits, params32)
        top = len(net.layers) - 1
        grads = [None] * (2 * len(net.layers))
        grads[2 * top + 1] = np.sum(coeff, keepdims=True)
        g = coeff.astype(np.float32)[None, :]
        for i in range(top, -1, -1):
            h = acts[i]
            grads[2 * i] = (g @ h.T).astype(np.float64)
            if i < top:
                grads[2 * i + 1] = np.sum(g, axis=1).astype(np.float64)
            if i:
                g = params32[i][0].T @ g
                g *= 1.0 - h * h
        return grads

    @pytest.mark.parametrize("n", [4, 538, 1500])
    def test_output_layer_outer_product_equals_the_gemm(self, net, n):
        """The output layer's ``W^T g`` is a broadcast multiply, not a K = 1
        GEMM: the same products, so every gradient is bit-equal."""
        rng = np.random.default_rng(n)
        bits = rng.integers(0, 2, size=(n, 20), dtype=np.uint8)
        coeff = rng.normal(size=n) / n
        got = self._vjp(net, bits, coeff)
        want = self._vjp_all_gemm(net, bits, coeff)
        for g, w in zip(got, want, strict=True):
            np.testing.assert_array_equal(g, w)

    def test_zero_rows_and_one_dimensional_input(self, net):
        got = self._vjp(net, np.zeros((0, 20), dtype=np.uint8), np.zeros(0))
        assert all(not g.any() for g in got)
        row = np.random.default_rng(4).integers(0, 2, size=20, dtype=np.uint8)
        got, want = self._vjp(net, row, np.array([0.7])), self._taped(net, row, np.array([0.7]))
        for g, w in zip(got, want):
            assert np.linalg.norm(g - w) <= PHASE_GRAD_RTOL * np.linalg.norm(w)

    def test_accumulates(self, net):
        """Two calls add two gradients into the arena views."""
        rng = np.random.default_rng(5)
        bits = rng.integers(0, 2, size=(50, 20), dtype=np.uint8)
        coeff = rng.normal(size=50)
        once, twice = self._vjp(net, bits, coeff), self._vjp(net, bits, coeff, calls=2)
        for a, b in zip(once, twice):
            np.testing.assert_array_equal(b, 2 * a)

    def test_reads_the_parameters_it_is_called_with(self, net):
        """No cached float32 copy: a parameter update shows on the next call."""
        rng = np.random.default_rng(6)
        bits = rng.integers(0, 2, size=(50, 20), dtype=np.uint8)
        coeff = rng.normal(size=50)
        before = self._vjp(net, bits, coeff)
        net.layers[-1].weight.data *= 2.0
        try:
            after = self._vjp(net, bits, coeff)
        finally:
            net.layers[-1].weight.data /= 2.0
        # The output layer's gradient does not read W_out; every layer below
        # scales with it, exactly (a factor of 2 rounds nothing).
        for a, b in zip(after[-2:], before[-2:]):
            np.testing.assert_array_equal(a, b)
        for a, b in zip(after[:-2], before[:-2]):
            np.testing.assert_array_equal(a, 2 * b)


class TestPhaseEvaluator:
    """``PhaseMLP.step`` against ``forward`` on the paper's 20 x 512 x 512 x 1."""

    @pytest.fixture(scope="class")
    def net(self):
        return PhaseMLP(20, hidden=(512, 512), rng=np.random.default_rng(0))

    def test_matches_the_taped_head(self, net):
        bits = np.random.default_rng(1).integers(0, 2, size=(2000, 20), dtype=np.uint8)
        got = net.step(bits)
        want = forward(net, bits).data
        assert got.dtype == np.float64 and got.shape == (2000,)
        assert np.max(np.abs(got - want)) <= PHASE_TOL

    def test_zero_rows_and_one_dimensional_input(self, net):
        out = net.step(np.zeros((0, 20), dtype=np.uint8))
        assert out.shape == (0,) and out.dtype == np.float64
        row = np.random.default_rng(2).integers(0, 2, size=20, dtype=np.uint8)
        one = net.step(row)
        assert one.shape == (1,) and one.dtype == np.float64
        assert abs(one[0] - forward(net, row).data[0]) <= PHASE_TOL

    def test_reads_the_parameters_it_is_called_with(self, net):
        """No cached float32 copy: a parameter update shows on the next call."""
        bits = np.ones((3, 20), dtype=np.uint8)
        before = net.step(bits)
        net.layers[-1].bias.data += 1.0
        try:
            np.testing.assert_allclose(net.step(bits), before + 1.0, atol=PHASE_TOL)
        finally:
            net.layers[-1].bias.data -= 1.0


class TestPhaseCastOnce:
    """``wf.phases`` / ``wf.phase_vjp`` cast the phase parameters to float32
    once per call and hand the copies to every ``PHASE_BLOCK`` block: the
    bits are those of casting per block, since the cast values are equal."""

    @pytest.fixture(scope="class")
    def wf(self):
        return build_qiankunnet(20, 5, 5, seed=3)

    ROWS = (1, wavefunction.PHASE_BLOCK, wavefunction.PHASE_BLOCK + 1,
            3 * wavefunction.PHASE_BLOCK)

    @staticmethod
    def _bits(n):
        return np.random.default_rng(n).integers(0, 2, size=(n, 20), dtype=np.uint8)

    @staticmethod
    def _count_casts(wf, monkeypatch):
        calls = []
        cast = wf.phase.cast32
        monkeypatch.setattr(wf.phase, "cast32", lambda: calls.append(1) or cast())
        return calls

    @pytest.mark.parametrize("n", ROWS)
    def test_phases_equal_the_per_block_path(self, wf, n, monkeypatch):
        bits = self._bits(n)
        per_block = np.concatenate([
            wf.phase.step(bits[rows])
            for rows in wavefunction.row_blocks(n, wavefunction.PHASE_BLOCK)])
        calls = self._count_casts(wf, monkeypatch)
        np.testing.assert_array_equal(wf.phases(bits), per_block)
        assert len(calls) == 1

    @pytest.mark.parametrize("n", ROWS)
    def test_phase_vjp_equals_the_per_block_path(self, wf, n, monkeypatch):
        bits = self._bits(n)
        coeff = np.random.default_rng(n + 1).normal(size=n) / n
        arena = wf.arena()
        arena.zero_grad(bind_all=True)
        for rows in wavefunction.row_blocks(n, wavefunction.PHASE_BLOCK):
            wf.phase.vjp(bits[rows], coeff[rows])
        per_block = [p.grad.copy() for p in wf.phase.parameters()]
        calls = self._count_casts(wf, monkeypatch)
        arena.zero_grad(bind_all=True)
        wf.phase_vjp(bits, coeff)
        for got, want in zip((p.grad for p in wf.phase.parameters()), per_block):
            np.testing.assert_array_equal(got, want)
        assert len(calls) == 1


class TestSessionLifetime:
    """A session's float32 weights are taken with its KV cache — when it
    consumes position 0, fresh or after ``reset`` — and shared by ``select``
    and ``copy``: a session opened after θ moved decodes with the new θ, a
    session stepped before keeps the θ its cache was built with."""

    @pytest.fixture()
    def wf(self):
        return build_qiankunnet(4, 1, 1, d_model=8, n_heads=2, n_layers=1,
                                phase_hidden=(8,), seed=11)

    @staticmethod
    def _first_logits(session, rows=3):
        return session.step(None)[:rows]

    @staticmethod
    def _assert_decodes_theta(wf, logits, stale):
        """``logits`` (position 0) match the current θ's float64 oracle, and
        the move of θ is far past the float32 rounding."""
        want = padded_next_logits(wf.amplitude, np.zeros((len(logits), 0)))
        np.testing.assert_allclose(logits, want, rtol=0, atol=LOGIT_TOL)
        assert np.max(np.abs(want - stale)) > 1e3 * LOGIT_TOL

    def test_after_set_flat_params(self, wf):
        stale_session = wf.make_session(3)
        stale = self._first_logits(stale_session)
        wf.set_flat_params(1.5 * wf.get_flat_params())
        self._assert_decodes_theta(wf, self._first_logits(wf.make_session(3)), stale)
        # The session stepped before the move keeps its own θ: its cache and
        # its weights were taken together.
        tokens = np.array([1, 2, 3])
        want = padded_next_logits(wf.amplitude, tokens[:, None])
        assert np.max(np.abs(stale_session.step(tokens) - want)) > 1e3 * LOGIT_TOL

    def test_after_an_adamw_step_and_a_checkpoint_restore(self, wf, h2_problem, tmp_path):
        vmc = VMC(wf, h2_problem.hamiltonian, VMCConfig(n_samples=1000, seed=0),
                  optimizer=NoamAdamW(wf, warmup=1))
        path = tmp_path / "checkpoint.npz"
        save_checkpoint(vmc, path)
        before = self._first_logits(wf.make_session(3))
        vmc.step()                                   # stage 6: one AdamW step
        moved = self._first_logits(wf.make_session(3))
        self._assert_decodes_theta(wf, moved, before)
        load_checkpoint(vmc, path)                   # θ back where it was saved
        self._assert_decodes_theta(wf, self._first_logits(wf.make_session(3)), moved)

    def test_stepping_a_copy_leaves_the_original(self):
        """Interleaved, the copy and the original each decode their own
        prefix: neither's steps reach the other's cache."""
        wf = build_qiankunnet(8, 2, 2, d_model=8, n_heads=2, n_layers=1,
                              phase_hidden=(8,), seed=11)
        a, b = np.array([0, 1, 3]), np.array([2, 2, 0])
        session = wf.make_session(3)
        session.step(None)
        copy = session.copy()
        copy.step(a)
        got = session.step(b)
        assert (session.pos, copy.pos) == (2, 2)
        got_copy = copy.step(b)
        for logits, prefix in ((got, b[:, None]), (got_copy, np.stack([a, b], axis=1))):
            np.testing.assert_allclose(logits, padded_next_logits(wf.amplitude, prefix),
                                       rtol=0, atol=LOGIT_TOL)
