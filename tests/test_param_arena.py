"""The parameter arena: theta, grad and the AdamW moments as flat buffers.

Contracts of the arena PR:

* every ``p.data`` is a view of ``arena.theta`` and every bound ``p.grad`` a
  view of ``arena.payload`` — after build, ``set_flat_params``, checkpoint
  load, snapshot rebuild; a ``copy.deepcopy`` (the ``ThreadBackend`` replica
  path) re-packs into its own arena instead of silently detaching;
* ``get_flat_params`` is still a copy; a refused vector (parameters, moments,
  a wrong-architecture checkpoint) changes nothing;
* the flat in-place AdamW kernel matches the per-parameter loop it replaced
  (kept here as the oracle) within ``ADAMW_TEXTBOOK_ATOL`` in θ and
  ``ADAMW_TEXTBOOK_RTOL`` in v over 400 steps, m bit-equal, with and without
  ``None``-grad parameters, with weight decay; any blocking gives the same
  bits, and m and v are the only M-sized buffers it holds;
* ``stage_backward`` returns the arena's gradient buffer itself; for any row
  blocking its slices (two float32 VJPs) are within ``LOG_PI_GRAD_RTOL``
  (amplitude) and 1e-5 (phase) of per-parameter float64 tape gradients
  concatenated by hand;
* the SR foil's in-place ``apply`` is bit-identical to ``theta - lr * delta``.

The size-1 allreduce aliasing rule lives in ``test_comm_contract.py``.
"""
from __future__ import annotations

import copy
import os
import platform
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from repro.autograd import Tensor
from repro.core import (
    VMC,
    NoamAdamW,
    VMCConfig,
    build_qiankunnet,
    load_checkpoint,
    save_checkpoint,
)
from repro.core import engine, wavefunction
from repro.core.checkpoint import load_model_snapshot, save_model_snapshot
from repro.core.engine import ThreadBackend
from repro.core.sampler import batch_autoregressive_sample
from repro.nn import module as nn_module
from repro.nn.module import Module, Parameter
from repro.optim import AdamW, adamw
from tests.conftest import (
    ADAMW_TEXTBOOK_ATOL,
    ADAMW_TEXTBOOK_RTOL,
    ANSATZE,
    LOG_PI_GRAD_RTOL,
    amplitude_and_phase,
    build_wf,
)


def _small_wf(seed=7, d_model=8, n_qubits=4, n_up=1, n_dn=1):
    return build_qiankunnet(n_qubits, n_up, n_dn, d_model=d_model, n_heads=2,
                            n_layers=1, phase_hidden=(8,), seed=seed)


def _fresh_vmc(problem, backend=None, d_model=8):
    wf = _small_wf(d_model=d_model)
    return VMC(wf, problem.hamiltonian,
               VMCConfig(n_samples=800, eloc_mode="exact", seed=3),
               backend=backend, optimizer=NoamAdamW(wf, warmup=50))


def _assert_packed(module: Module) -> None:
    """Every parameter views ``theta``; bound, every gradient views
    ``payload``; asking again does not re-pack."""
    arena = module.arena()
    assert module.arena() is arena
    assert arena.theta.shape == (module.num_parameters(),)
    assert arena.payload.shape == (module.num_parameters() + 1,)
    assert np.shares_memory(arena.grad, arena.payload)
    offset = 0
    for p in module.parameters():
        assert p.data.base is arena.theta
        np.testing.assert_array_equal(
            p.data.reshape(-1), arena.theta[offset:offset + p.size])
        offset += p.size
    arena.zero_grad(bind_all=True)
    for p in module.parameters():
        assert p.grad.base is arena.payload
        assert p.grad.shape == p.data.shape
    assert module.arena() is arena


class _Three(Module):
    """Three parameters of different shapes (one a matrix)."""

    def __init__(self, seed=0):
        super().__init__()
        rng = np.random.default_rng(seed)
        self.a = Parameter(rng.normal(size=(3, 4)))
        self.b = Parameter(rng.normal(size=5))
        self.c = Parameter(rng.normal(size=(2, 2)))


# --------------------------------------------------------------------- layout
class TestArenaLayout:
    @pytest.mark.parametrize("amplitude_type", ANSATZE)
    def test_built_wavefunction_is_packed(self, amplitude_type):
        wf = build_wf(amplitude_type, 4, 1, 1, seed=3)
        _assert_packed(wf)

    def test_packing_keeps_values_and_order(self):
        m = _Three()
        by_hand = np.concatenate([p.data.reshape(-1) for p in m.parameters()])
        np.testing.assert_array_equal(m.get_flat_params(), by_hand)
        _assert_packed(m)

    def test_get_flat_params_is_a_copy(self):
        wf = _small_wf()
        flat = wf.get_flat_params()
        assert not np.shares_memory(flat, wf.arena().theta)
        before = flat.copy()
        flat += 1.0
        np.testing.assert_array_equal(wf.get_flat_params(), before)

    def test_set_flat_params_writes_in_place(self):
        wf = _small_wf()
        arena = wf.arena()
        new = np.random.default_rng(0).normal(size=arena.theta.size)
        wf.set_flat_params(new)
        assert wf.arena() is arena
        np.testing.assert_array_equal(arena.theta, new)
        _assert_packed(wf)

    @pytest.mark.parametrize("delta", [3, -3])
    def test_refused_vector_changes_nothing(self, delta):
        wf = _small_wf()
        before = wf.get_flat_params()
        with pytest.raises(ValueError, match="model size"):
            wf.set_flat_params(np.zeros(before.size + delta))
        np.testing.assert_array_equal(wf.get_flat_params(), before)
        with pytest.raises(ValueError, match="model size"):
            wf.set_flat_grads(np.zeros(before.size + delta))

    def test_flat_grads_read_zero_where_a_parameter_has_none(self):
        m = _Three()
        m.b.grad = np.arange(5.0)  # a foreign array: adopted into the arena
        expected = np.concatenate([np.zeros(12), np.arange(5.0), np.zeros(4)])
        np.testing.assert_array_equal(m.get_flat_grads(), expected)
        assert m.b.grad.base is m.arena().payload
        assert m.a.grad is None and m.c.grad is None

    def test_zero_grad_keeps_no_gradient_as_none(self):
        """``None`` means "no loss has reached this parameter": the optimizer
        skips it (decay included), so ``zero_grad`` must not invent a zero."""
        m = _Three()
        m.zero_grad()
        assert [p.grad for p in m.parameters()] == [None, None, None]
        m.b.grad = np.ones(5)
        m.zero_grad()
        assert m.a.grad is None and m.c.grad is None
        assert m.b.grad.base is m.arena().payload
        np.testing.assert_array_equal(m.b.grad, np.zeros(5))

    def test_pretrain_never_gives_the_phase_network_a_gradient(self):
        from repro.core.pretrain import pretrain_to_reference

        wf = _small_wf()
        phase_before = [p.data.copy() for p in wf.phase.parameters()]
        pretrain_to_reference(wf, np.array([1, 1, 0, 0]), n_steps=3)
        assert all(p.grad is None for p in wf.phase.parameters())
        assert all(p.grad is not None for p in wf.amplitude.parameters())
        for p, before in zip(wf.phase.parameters(), phase_before):
            np.testing.assert_array_equal(p.data, before)
        _assert_packed(wf)

    def test_submodule_packing_is_noticed_by_the_parent(self):
        """A child asked for its own flat vector moves its parameters into
        its own arena; the parent re-packs instead of reading stale memory."""
        wf = _small_wf()
        before = wf.get_flat_params()
        wf.amplitude.set_flat_params(wf.amplitude.get_flat_params() + 1.0)
        after = wf.get_flat_params()
        n_amp = wf.amplitude.num_parameters()
        np.testing.assert_array_equal(after[:n_amp], before[:n_amp] + 1.0)
        np.testing.assert_array_equal(after[n_amp:], before[n_amp:])
        _assert_packed(wf)

    def test_deepcopy_repacks_into_its_own_arena(self):
        wf = _small_wf()
        wf.arena().zero_grad(bind_all=True)
        twin = copy.deepcopy(wf)
        assert "_arena" not in twin.__dict__
        _assert_packed(twin)
        assert not np.shares_memory(twin.arena().theta, wf.arena().theta)
        assert not np.shares_memory(twin.arena().payload, wf.arena().payload)
        np.testing.assert_array_equal(twin.get_flat_params(), wf.get_flat_params())
        wf.arena().theta += 1.0
        assert not np.array_equal(twin.get_flat_params(), wf.get_flat_params())

    def test_snapshot_rebuild_is_packed(self, tmp_path):
        wf = _small_wf()
        save_model_snapshot(wf, tmp_path / "snap.npz")
        rebuilt, _ = load_model_snapshot(tmp_path / "snap.npz")
        _assert_packed(rebuilt)
        np.testing.assert_array_equal(rebuilt.get_flat_params(), wf.get_flat_params())


# ----------------------------------------------------------------- checkpoint
def _engine_state(vmc):
    opt = vmc.optimizer.state()
    return {
        "params": vmc.wf.get_flat_params(),
        "opt": {k: np.array(v) for k, v in opt.items()},
        "rng": vmc.rng.bit_generator.state,
        "history": list(vmc.history),
        "iteration": vmc.iteration,
    }


def _assert_same_state(vmc, before):
    now = _engine_state(vmc)
    np.testing.assert_array_equal(now["params"], before["params"])
    assert now["opt"].keys() == before["opt"].keys()
    for key in now["opt"]:
        np.testing.assert_array_equal(now["opt"][key], before["opt"][key])
    assert now["rng"] == before["rng"]
    assert now["history"] == before["history"]
    assert now["iteration"] == before["iteration"]


class TestCheckpoint:
    def test_load_writes_into_the_existing_arena(self, h2_problem, tmp_path):
        saved = _fresh_vmc(h2_problem)
        saved.run(2)
        save_checkpoint(saved, tmp_path / "ck.npz")
        resumed = _fresh_vmc(h2_problem)
        arena = resumed.wf.arena()
        load_checkpoint(resumed, tmp_path / "ck.npz")
        assert resumed.wf.arena() is arena
        _assert_packed(resumed.wf)
        assert resumed.step() == saved.step()

    def test_wrong_architecture_checkpoint_changes_nothing(self, h2_problem, tmp_path):
        other = _fresh_vmc(h2_problem, d_model=16)
        other.run(1)
        save_checkpoint(other, tmp_path / "other.npz")
        vmc = _fresh_vmc(h2_problem)
        vmc.run(2)
        before = _engine_state(vmc)
        with pytest.raises(ValueError, match="another architecture"):
            load_checkpoint(vmc, tmp_path / "other.npz")
        _assert_same_state(vmc, before)

    @pytest.mark.parametrize("key", ["opt_m", "opt_v"])
    def test_wrong_size_moments_change_nothing(self, h2_problem, tmp_path, key):
        saved = _fresh_vmc(h2_problem)
        saved.run(2)
        save_checkpoint(saved, tmp_path / "ck.npz")
        payload = dict(np.load(tmp_path / "ck.npz"))
        payload[key] = payload[key][:-3]
        np.savez(tmp_path / "torn.npz", **payload)
        vmc = _fresh_vmc(h2_problem)
        vmc.run(1)
        before = _engine_state(vmc)
        with pytest.raises(ValueError, match=key):
            load_checkpoint(vmc, tmp_path / "torn.npz")
        _assert_same_state(vmc, before)

    def test_adamw_load_state_refuses_wrong_sizes(self):
        m = _Three()
        opt = AdamW(m)
        m.set_flat_grads(np.ones(m.num_parameters()))
        opt.step()
        before = opt.state()
        for bad in ("opt_m", "opt_v"):
            data = {**opt.state(), "opt_t": np.array(9)}
            data[bad] = np.zeros(m.num_parameters() + 3)
            with pytest.raises(ValueError, match=bad):
                opt.load_state(data)
            now = opt.state()
            assert int(now["opt_t"]) == int(before["opt_t"])
            np.testing.assert_array_equal(now["opt_m"], before["opt_m"])
            np.testing.assert_array_equal(now["opt_v"], before["opt_v"])

    def test_adamw_state_is_a_copy(self):
        m = _Three()
        opt = AdamW(m)
        m.set_flat_grads(np.ones(m.num_parameters()))
        opt.step()
        state = opt.state()
        kept = state["opt_m"].copy()
        m.set_flat_grads(np.ones(m.num_parameters()))
        opt.step()
        np.testing.assert_array_equal(state["opt_m"], kept)


# ---------------------------------------------------------------------- AdamW
def _reference_adamw_step(datas, grads, ms, vs, t, lr, betas, eps, weight_decay):
    """The per-parameter AdamW loop the arena kernel replaced, verbatim."""
    b1, b2 = betas
    bc1 = 1.0 - b1**t
    bc2 = 1.0 - b2**t
    for data, g, m, v in zip(datas, grads, ms, vs):
        if g is None:
            continue
        m *= b1
        m += (1 - b1) * g
        v *= b2
        v += (1 - b2) * g * g
        update = (m / bc1) / (np.sqrt(v / bc2) + eps)
        data -= lr * (update + weight_decay * data)


class _Wide(Module):
    """Parameters long enough to span several kernel blocks."""

    def __init__(self, sizes=(2500, 40, 1300), seed=0):
        super().__init__()
        rng = np.random.default_rng(seed)
        for i, size in enumerate(sizes):
            setattr(self, f"p{i}", Parameter(rng.normal(size=size)))


class TestAdamWKernel:
    @pytest.mark.parametrize("skip", [(), ("b",), ("a", "c")])
    @pytest.mark.parametrize("weight_decay", [0.0, 0.01])
    def test_matches_the_per_parameter_loop(self, skip, weight_decay):
        """400 steps against the textbook loop, each element at its own
        gradient scale from 1e-8 to 1e3: m bit-equal, v and θ to rounding,
        ``None``-grad parameters and their moments untouched."""
        model = _Three()
        opt = AdamW(model, lr=3e-3, weight_decay=weight_decay)
        names = ["a", "b", "c"]
        datas = [getattr(model, n).data.copy() for n in names]
        initial = [d.copy() for d in datas]
        ms = [np.zeros_like(d) for d in datas]
        vs = [np.zeros_like(d) for d in datas]
        scales = np.logspace(-8, 3, model.num_parameters())
        offsets = np.cumsum([0] + [d.size for d in datas])
        rng = np.random.default_rng(5)
        for t in range(1, 401):
            grads = [None if n in skip else
                     rng.normal(size=d.shape) * scales[lo:hi].reshape(d.shape)
                     for n, d, lo, hi in zip(names, datas, offsets, offsets[1:])]
            for n, g in zip(names, grads):
                getattr(model, n).grad = None if g is None else g.copy()
            opt.step()
            _reference_adamw_step(datas, grads, ms, vs, t, 3e-3, (0.9, 0.999),
                                  1e-8, weight_decay)
        flat = lambda arrays: np.concatenate([a.reshape(-1) for a in arrays])
        state = opt.state()
        np.testing.assert_allclose(model.get_flat_params(), flat(datas),
                                   rtol=0, atol=ADAMW_TEXTBOOK_ATOL)
        np.testing.assert_array_equal(state["opt_m"], flat(ms))
        np.testing.assert_allclose(state["opt_v"], flat(vs),
                                   rtol=ADAMW_TEXTBOOK_RTOL, atol=0)
        for n, data, lo, hi in zip(names, initial, offsets, offsets[1:]):
            if n in skip:
                np.testing.assert_array_equal(getattr(model, n).data, data)
                assert not state["opt_m"][lo:hi].any()
                assert not state["opt_v"][lo:hi].any()
        _assert_packed(model)

    @pytest.mark.parametrize("block", [7, 1000])
    def test_any_blocking_gives_the_same_bits(self, monkeypatch, block):
        def run():
            model = _Wide()
            opt = AdamW(model, lr=1e-2)
            rng = np.random.default_rng(3)
            for _ in range(5):
                model.set_flat_grads(rng.normal(size=model.num_parameters()))
                model.p1.grad = None             # a gap between two spans
                opt.step()
            return model.get_flat_params(), opt.state()

        theta, state = run()
        monkeypatch.setattr(adamw, "_BLOCK", block)
        blocked_theta, blocked_state = run()
        np.testing.assert_array_equal(blocked_theta, theta)
        for key in ("opt_m", "opt_v"):
            np.testing.assert_array_equal(blocked_state[key], state[key])

    def test_holds_the_two_moments_and_nothing_else(self):
        """No M-sized buffer at construction; after three steps m and v are
        all the optimizer holds, and no step allocated an M-sized temporary."""
        model = _Wide(sizes=(200_000,))
        size = model.num_parameters()
        model.set_flat_grads(np.random.default_rng(0).normal(size=size))
        slack = 8 * size // 16
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            opt = AdamW(model)
            assert tracemalloc.get_traced_memory()[0] - base < slack
            tracemalloc.reset_peak()
            for _ in range(3):
                opt.step()
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert 2 * 8 * size <= held - base <= 2 * 8 * size + slack
        assert peak - base <= 2 * 8 * size + slack

    def test_flat_gradient_is_the_same_kernel(self):
        """``step(grad)`` (the engine's call) == ``step()`` on bound grads."""
        bound, flat = _Three(), _Three()
        opt_bound, opt_flat = AdamW(bound, lr=1e-2), AdamW(flat, lr=1e-2)
        rng = np.random.default_rng(2)
        for _ in range(3):
            g = rng.normal(size=bound.num_parameters())
            bound.set_flat_grads(g)
            opt_bound.step()
            opt_flat.step(g.copy())
        np.testing.assert_array_equal(bound.get_flat_params(), flat.get_flat_params())
        for key in ("opt_m", "opt_v"):
            np.testing.assert_array_equal(opt_bound.state()[key], opt_flat.state()[key])


# -------------------------------------------------------------------- stage 5
class TestStageBackward:
    @pytest.fixture()
    def chunk(self):
        wf = _small_wf(n_qubits=8, n_up=2, n_dn=2)
        batch = batch_autoregressive_sample(wf, 5000, np.random.default_rng(0))
        rng = np.random.default_rng(1)
        shuffled = rng.permutation(batch.n_unique)   # not the token order
        batch = type(batch)(bits=batch.bits[shuffled], weights=batch.weights[shuffled])
        eloc = rng.normal(size=batch.n_unique) + 1j * rng.normal(size=batch.n_unique)
        w = batch.weights / batch.weights.sum()
        e = complex(np.sum(w * eloc))
        return wf, batch, w, eloc, e.real, e.imag

    @staticmethod
    def _by_hand(wf, batch, w, eloc, e_mean, e_imag):
        """Stage 5 as it once was: the whole Eq. 7 surrogate on one float64
        tape (``wf.log_prob`` and ``wf.phase_of``, the oracles of stage 5's
        float32 VJPs), unbound gradients, so the tape allocates one array
        per parameter, concatenated at the end."""
        for p in wf.parameters():
            p.grad = None
        coeff_amp = w * (eloc.real - e_mean)
        coeff_phase = 2.0 * w * (eloc.imag - e_imag)
        loss = ((Tensor(coeff_amp) * wf.log_prob(batch.bits)).sum()
                + (Tensor(coeff_phase) * wf.phase_of(batch.bits)).sum())
        loss.backward()
        return np.concatenate([
            (np.zeros_like(p.data) if p.grad is None else p.grad).reshape(-1)
            for p in wf.parameters()
        ])

    @pytest.mark.parametrize("n_blocks", [1, 2, 3])
    def test_equals_hand_concatenated_tape_gradient(self, chunk, monkeypatch, n_blocks):
        wf, batch, w, eloc, e_mean, e_imag = chunk
        monkeypatch.setattr(wavefunction, "ROW_BLOCK",
                            -(-batch.n_unique // n_blocks))
        assert len(wavefunction.row_blocks(batch.n_unique)) == n_blocks
        expected = self._by_hand(wf, batch, w, eloc, e_mean, e_imag)
        grad = engine.stage_backward(wf, batch, w, eloc, e_mean, e_imag)
        assert grad is wf.arena().grad  # the buffer itself, no copy
        # Both slices: a float32 VJP against the float64 tape.
        for got, want, rtol in zip(amplitude_and_phase(wf, grad),
                                   amplitude_and_phase(wf, expected),
                                   (LOG_PI_GRAD_RTOL, 1e-5)):
            assert np.linalg.norm(want) > 0
            assert np.linalg.norm(got - want) <= rtol * np.linalg.norm(want)

    def test_zero_row_chunk_is_a_zero_gradient(self, chunk):
        wf, batch, w, eloc, e_mean, e_imag = chunk
        engine.stage_backward(wf, batch, w, eloc, e_mean, e_imag)  # leave dirt
        empty = type(batch)(bits=batch.bits[:0], weights=batch.weights[:0])
        grad = engine.stage_backward(wf, empty, w[:0], eloc[:0], e_mean, e_imag)
        assert grad is wf.arena().grad
        np.testing.assert_array_equal(grad, np.zeros(wf.num_parameters()))


# ----------------------------------------------------------- engine, backends
class TestEngineOnTheArena:
    def test_serial_step_keeps_the_model_packed(self, h2_problem):
        vmc = _fresh_vmc(h2_problem)
        arena = vmc.wf.arena()
        vmc.run(2)
        assert vmc.wf.arena() is arena
        _assert_packed(vmc.wf)

    def test_thread_replicas_pack_their_own_arenas(self, h2_problem, monkeypatch):
        from repro.core import engine

        replicas, real = {}, engine.stage_gather_table

        def recording(comm, wf, local):
            replicas[comm.Get_rank()] = wf
            return real(comm, wf, local)

        def run():
            backend = ThreadBackend(n_ranks=2, nu_star_per_rank=4)
            vmc = _fresh_vmc(h2_problem, backend=backend)
            vmc.run(3)
            backend.close()   # joins rank 1, whose last update may still run
            return vmc, backend

        monkeypatch.setattr(engine, "stage_gather_table", recording)
        vmc, backend = run()
        master = vmc.wf.arena()
        assert replicas[0] is vmc.wf
        replica = replicas[1]
        _assert_packed(replica)
        assert not np.shares_memory(replica.arena().theta, master.theta)
        assert not np.shares_memory(replica.arena().payload, master.payload)
        np.testing.assert_array_equal(replica.arena().theta, master.theta)
        again, _ = run()
        assert again.history == vmc.history
        np.testing.assert_array_equal(again.wf.get_flat_params(), master.theta)
        serial = _fresh_vmc(h2_problem)
        serial.run(3)
        assert abs(serial.history[0].energy - vmc.history[0].energy) < 0.05

    def test_sr_apply_is_bit_identical_to_theta_minus_lr_delta(self, ablations):
        """The SR foil (``benchmarks/bench_ablations.py``) writes in place."""
        wf = _small_wf()
        sr = ablations.StochasticReconfiguration(wf)
        arena = wf.arena()
        delta = np.random.default_rng(4).normal(size=arena.theta.size)
        expected = wf.get_flat_params() - sr.config.lr * delta
        sr.apply(delta)
        assert wf.arena() is arena
        np.testing.assert_array_equal(arena.theta, expected)
        _assert_packed(wf)


# ------------------------------------------------------------ heap-top pad
_COUNT_MALLOPT = textwrap.dedent("""
    import ctypes
    calls, real_cdll = [], ctypes.CDLL

    class Recording:
        def __init__(self, name, *args, **kwargs):
            self._lib = real_cdll(name, *args, **kwargs)

        def __getattr__(self, attr):
            fn = getattr(self._lib, attr)
            if attr != "mallopt":
                return fn
            def mallopt(*args):
                calls.append(args)
                return fn(*args)
            return mallopt

    ctypes.CDLL = Recording
    from repro.chem import build_problem
    from repro.core import VMC, NoamAdamW, VMCConfig, build_qiankunnet
    wf = build_qiankunnet(4, 1, 1, d_model=8, n_heads=2, n_layers=1,
                          phase_hidden=(8,), seed=7)
    VMC(wf, build_problem("H2", "sto-3g", r=0.7414).hamiltonian,
        VMCConfig(n_samples=200, seed=3),
        optimizer=NoamAdamW(wf, warmup=50)).run(2)
    print(calls)
""")


def test_the_heap_top_pad_is_set_once_per_process():
    """Importing the arena's module sets glibc's M_TOP_PAD once, before any
    network (and so any stage-5 block) exists; nothing sets it again."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", _COUNT_MALLOPT],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    glibc = sys.platform.startswith("linux") and platform.libc_ver()[0] == "glibc"
    expected = [(nn_module._M_TOP_PAD, 64 << 20)] if glibc else []
    assert proc.stdout.splitlines()[-1] == str(expected)
