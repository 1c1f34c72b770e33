"""The parameter arena: theta, grad and the AdamW moments as flat buffers.

Contracts of the arena PR:

* every ``p.data`` is a view of ``arena.theta`` and every bound ``p.grad`` a
  view of ``arena.payload`` — after build, ``set_flat_params``, checkpoint
  load, snapshot rebuild; a ``copy.deepcopy`` (the ``ThreadBackend`` replica
  path) re-packs into its own arena instead of silently detaching;
* ``get_flat_params`` is still a copy; a refused vector (parameters, moments,
  a wrong-architecture checkpoint) changes nothing;
* the flat in-place AdamW kernel is bit-identical to the per-parameter loop it
  replaced (kept here as the oracle), with and without ``None``-grad
  parameters, with weight decay;
* ``stage_backward`` returns the arena's gradient buffer itself, bit-equal to
  per-parameter tape gradients concatenated by hand, for any row blocking;
* SR's in-place ``apply`` is bit-identical to ``theta - lr * delta``.

The size-1 allreduce aliasing rule lives in ``test_comm_contract.py``.
"""
from __future__ import annotations

import copy

import numpy as np
import pytest

from repro.core import (
    VMC,
    NoamAdamW,
    StochasticReconfiguration,
    VMCConfig,
    build_qiankunnet,
    load_checkpoint,
    save_checkpoint,
)
from repro.core import engine, wavefunction
from repro.core.checkpoint import load_model_snapshot, save_model_snapshot
from repro.core.engine import ThreadBackend
from repro.core.sampler import batch_autoregressive_sample
from repro.nn.module import Module, Parameter
from repro.optim import AdamW
from tests.conftest import ANSATZE, build_wf


def _small_wf(seed=7, d_model=8, n_qubits=4, n_up=1, n_dn=1):
    return build_qiankunnet(n_qubits, n_up, n_dn, d_model=d_model, n_heads=2,
                            n_layers=1, phase_hidden=(8,), seed=seed)


def _fresh_vmc(problem, backend=None, d_model=8, optimizer=None):
    wf = _small_wf(d_model=d_model)
    optimizer = (StochasticReconfiguration(wf) if optimizer == "sr"
                 else NoamAdamW(wf, warmup=50))
    return VMC(wf, problem.hamiltonian,
               VMCConfig(n_samples=800, eloc_mode="exact", seed=3),
               backend=backend, optimizer=optimizer)


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


class TestAdamWKernel:
    @pytest.mark.parametrize("skip", [(), ("b",), ("a", "c")])
    @pytest.mark.parametrize("weight_decay", [0.0, 0.01])
    def test_bit_identical_to_the_per_parameter_loop(self, skip, weight_decay):
        model = _Three()
        opt = AdamW(model, lr=3e-3, weight_decay=weight_decay)
        names = ["a", "b", "c"]
        datas = [getattr(model, n).data.copy() for n in names]
        ms = [np.zeros_like(d) for d in datas]
        vs = [np.zeros_like(d) for d in datas]
        rng = np.random.default_rng(5)
        for t in range(1, 6):
            grads = [None if n in skip else rng.normal(size=d.shape)
                     for n, d in zip(names, datas)]
            for n, g in zip(names, grads):
                getattr(model, n).grad = None if g is None else g.copy()
            opt.step()
            _reference_adamw_step(datas, grads, ms, vs, t, 3e-3, (0.9, 0.999),
                                  1e-8, weight_decay)
        flat = lambda arrays: np.concatenate([a.reshape(-1) for a in arrays])
        np.testing.assert_array_equal(model.get_flat_params(), flat(datas))
        state = opt.state()
        np.testing.assert_array_equal(state["opt_m"], flat(ms))
        np.testing.assert_array_equal(state["opt_v"], flat(vs))
        _assert_packed(model)

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
        """Stage 5 as it was: unbound gradients, so the tape allocates one
        array per parameter, concatenated at the end.  Taped through
        ``wf.log_prob`` itself on stage 5's token-ordered blocks, so the
        equality is bit for bit (against the dense oracle it holds to 1e-10:
        ``tests/test_prefix_shared.py``)."""
        for p in wf.parameters():
            p.grad = None
        coeff_amp = w * (eloc.real - e_mean)
        coeff_phase = 2.0 * w * (eloc.imag - e_imag)
        order = wavefunction.token_order(wf.bits_to_tokens(batch.bits))
        for rows in wavefunction.row_blocks(len(batch.bits)):
            rows = order[rows]
            engine._surrogate_backward(
                wf, batch.bits[rows], coeff_amp[rows], coeff_phase[rows])
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
        assert np.any(expected != 0.0)
        grad = engine.stage_backward(wf, batch, w, eloc, e_mean, e_imag)
        assert grad is wf.arena().grad  # the buffer itself, no copy
        np.testing.assert_array_equal(grad, expected)

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

    def test_thread_replicas_pack_their_own_arenas(self, h2_problem):
        def run():
            backend = ThreadBackend(n_ranks=2, nu_star_per_rank=4)
            vmc = _fresh_vmc(h2_problem, backend=backend)
            vmc.run(3)
            return vmc, backend

        vmc, backend = run()
        master = vmc.wf.arena()
        for replica in backend.replicas:
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

    def test_sr_apply_is_bit_identical_to_theta_minus_lr_delta(self, h2_problem):
        vmc = _fresh_vmc(h2_problem, optimizer="sr")
        arena = vmc.wf.arena()
        delta = np.random.default_rng(4).normal(size=arena.theta.size)
        expected = vmc.wf.get_flat_params() - vmc.optimizer.lr * delta
        vmc.optimizer.apply(delta)
        assert vmc.wf.arena() is arena
        np.testing.assert_array_equal(arena.theta, expected)
        vmc.run(2)  # and the staged iteration carries SR's delta in the payload
        _assert_packed(vmc.wf)
