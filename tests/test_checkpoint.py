"""Checkpoint round-trips: resumed runs must continue bit-identically.

The satellite contract of the serving PR: ``load_checkpoint`` restores the
stats history (so ``best_energy()`` sees pre-resume iterations) and the RNG
bit-generator state (so the sample stream continues exactly where the saved
run stopped).  The strongest possible check is therefore: save -> load into
a *fresh* VMC -> the next ``step()`` produces bit-identical stats to the
uninterrupted run, for every ansatz.
"""
from __future__ import annotations

import copy
import hashlib
import io
import tracemalloc
from dataclasses import asdict

import numpy as np
import pytest

from repro import api
from repro.core import VMC, VMCConfig, build_qiankunnet, load_checkpoint, save_checkpoint
from repro.core import checkpoint
from repro.core.checkpoint import (
    load_model_snapshot,
    restore_rng,
    save_model_snapshot,
)
from repro.serve.registry import ModelRegistry

from tests.conftest import ANSATZE, build_wf


def _fresh_vmc(problem, amplitude_type: str) -> VMC:
    wf = build_wf(amplitude_type, 4, 1, 1, seed=12)
    return VMC(wf, problem.hamiltonian,
               VMCConfig(n_samples=1500, eloc_mode="exact", seed=13))


class TestResume:
    @pytest.mark.parametrize("amplitude_type", ANSATZE)
    def test_next_step_bit_identical(self, h2_problem, tmp_path, amplitude_type):
        path = tmp_path / "ck.npz"
        uninterrupted = _fresh_vmc(h2_problem, amplitude_type)
        uninterrupted.run(3)
        save_checkpoint(uninterrupted, path)
        expected = uninterrupted.step()

        resumed = _fresh_vmc(h2_problem, amplitude_type)
        load_checkpoint(resumed, path)
        got = resumed.step()

        # VMCStats is a dataclass of floats/ints: equality is bitwise.
        assert got == expected
        assert resumed.iteration == uninterrupted.iteration

    def test_history_restored_for_best_energy(self, h2_problem, tmp_path):
        path = tmp_path / "ck.npz"
        vmc = _fresh_vmc(h2_problem, "made")
        vmc.run(4)
        save_checkpoint(vmc, path)

        resumed = _fresh_vmc(h2_problem, "made")
        load_checkpoint(resumed, path)
        # Pre-fix this raised (empty history) or silently ignored the
        # pre-resume iterations.
        assert len(resumed.history) == 4
        assert resumed.best_energy() == vmc.best_energy()
        assert [s.energy for s in resumed.history] == [s.energy for s in vmc.history]
        assert [s.variance for s in resumed.history] == [
            s.variance for s in vmc.history
        ]

    def test_an_iteration_zero_checkpoint_restores_no_moments(self, h2_problem,
                                                              tmp_path):
        """A state saved before the first step holds no moments; rolling a
        run back to it in process must drop the moments of later steps, so
        the next step equals a fresh VMC's that resumes the same file."""
        path = tmp_path / "ck.npz"
        rolled_back = _fresh_vmc(h2_problem, "transformer")
        save_checkpoint(rolled_back, path)
        assert "opt_m" not in np.load(path).files
        rolled_back.run(2)
        load_checkpoint(rolled_back, path)
        rolled_back.step()

        resumed = _fresh_vmc(h2_problem, "transformer")
        load_checkpoint(resumed, path)
        resumed.step()
        np.testing.assert_array_equal(rolled_back.wf.get_flat_params(),
                                      resumed.wf.get_flat_params())

    def test_rng_stream_continues(self, h2_problem, tmp_path):
        path = tmp_path / "ck.npz"
        vmc = _fresh_vmc(h2_problem, "transformer")
        vmc.run(2)
        expected_draw = None
        save_checkpoint(vmc, path)
        expected_draw = vmc.rng.random(8)

        resumed = _fresh_vmc(h2_problem, "transformer")
        load_checkpoint(resumed, path)
        np.testing.assert_array_equal(resumed.rng.random(8), expected_draw)

    def test_legacy_checkpoint_still_loads(self, h2_problem, tmp_path):
        """(Id kept.)  The energies-only pre-format-2 file is no longer read:
        it is refused by path and missing column, before the VMC is touched."""
        path = tmp_path / "legacy.npz"
        vmc = _fresh_vmc(h2_problem, "made")
        vmc.run(2)
        state = vmc.optimizer.state()
        np.savez(
            path,
            params=vmc.wf.get_flat_params() + 1.0,
            iteration=np.array(7),
            opt_t=state["opt_t"],
            sched_i=state["sched_i"],
            energies=np.array([s.energy for s in vmc.history]),
        )
        params = vmc.wf.get_flat_params().copy()
        with pytest.raises(ValueError, match=r"legacy\.npz.*'hist_energy'"):
            load_checkpoint(vmc, path)
        np.testing.assert_array_equal(vmc.wf.get_flat_params(), params)
        assert vmc.iteration == 2 and len(vmc.history) == 2

    def test_checkpoint_keys_are_the_parents_minus_energies(self, h2_problem,
                                                            tmp_path):
        """The on-disk names a parent-commit reader/writer uses are kept, so a
        checkpoint written there still resumes here."""
        vmc = _fresh_vmc(h2_problem, "made")
        vmc.run(1)
        save_checkpoint(vmc, tmp_path / "ck.npz")
        keys = set(np.load(tmp_path / "ck.npz").files)
        assert {"opt_t", "opt_m", "opt_v", "sched_i", "rng_state", "iteration",
                "params", "hist_energy", "hist_lr"} <= keys
        assert "energies" not in keys

    def test_a_checkpoint_of_the_schedule_object_era_restores(self, h2_problem):
        """``data/checkpoint_h2_3iters.npz`` was written by the code that still
        kept the Eq. 13 epoch on a separate schedule object: 3 iterations of
        ``make()`` below.  Its optimizer keys are the ones written today, it
        restores, and it continues the trajectory of an uninterrupted run."""
        from pathlib import Path

        from repro.core import NoamAdamW

        def make():
            wf = build_qiankunnet(4, 1, 1, d_model=8, n_heads=2, n_layers=1,
                                  phase_hidden=(8,), seed=12)
            return VMC(wf, h2_problem.hamiltonian,
                       VMCConfig(n_samples=500, eloc_mode="exact", seed=13),
                       optimizer=NoamAdamW(wf, warmup=50))

        path = Path(__file__).parent / "data" / "checkpoint_h2_3iters.npz"
        optimizer_keys = {"opt_t", "opt_m", "opt_v", "sched_i"}
        with np.load(path) as data:
            assert {k for k in data.files if k.startswith(("opt_", "sched_"))} \
                == optimizer_keys
        resumed = make()
        load_checkpoint(resumed, path)
        assert set(resumed.optimizer.state()) == optimizer_keys
        assert resumed.iteration == resumed.optimizer.t \
            == resumed.optimizer.sched_i == 3

        uninterrupted = make()
        uninterrupted.run(3)
        # The file's 3 iterations read float64 no-grad phases; today's read
        # float32 ones (PhaseMLP.step), which moves the moments by ~8e-10 and
        # θ by ~2e-9 (1e-12 held while both sides were float64).
        for key, value in uninterrupted.optimizer.state().items():
            np.testing.assert_allclose(resumed.optimizer.state()[key], value,
                                       rtol=0, atol=1e-8)
        np.testing.assert_allclose(resumed.wf.get_flat_params(),
                                   uninterrupted.wf.get_flat_params(),
                                   rtol=0, atol=1e-8)
        # The next energies are evaluated by the float32 decoder at two θ that
        # far apart: 1.1e-10 (2.1e-11 while the decoder was float64).
        assert resumed.step().energy == pytest.approx(
            uninterrupted.step().energy, rel=0, abs=1e-9)


class TestRefusalChangesNothing:
    """``load_checkpoint`` is all-or-nothing: a file refused at *any* field
    leaves parameters, optimizer, iteration, history and RNG as they were."""

    @staticmethod
    def _refused(h2_problem, tmp_path, edit, error):
        donor = _fresh_vmc(h2_problem, "made")
        donor.run(2)
        save_checkpoint(donor, tmp_path / "good.npz")
        payload = dict(np.load(tmp_path / "good.npz"))
        edit(payload)
        np.savez(tmp_path / "bad.npz", **payload)

        vmc = _fresh_vmc(h2_problem, "made")
        params = vmc.wf.get_flat_params().copy()
        opt_state = {k: np.copy(v) for k, v in vmc.optimizer.state().items()}
        rng_state = vmc.rng.bit_generator.state
        with error:
            load_checkpoint(vmc, tmp_path / "bad.npz")
        np.testing.assert_array_equal(vmc.wf.get_flat_params(), params)
        assert vmc.optimizer.state().keys() == opt_state.keys()
        for key, value in vmc.optimizer.state().items():
            np.testing.assert_array_equal(value, opt_state[key])
        assert vmc.iteration == 0 and vmc.history == []
        assert vmc.rng.bit_generator.state == rng_state

    def test_bad_rng_state(self, h2_problem, tmp_path):
        import json

        def edit(payload):
            state = json.loads(payload["rng_state"].item())
            state["bit_generator"] = "default_rng"  # callable, not a BitGenerator
            payload["rng_state"] = np.array(json.dumps(state))

        self._refused(h2_problem, tmp_path, edit,
                      pytest.raises(ValueError, match="rng_state"))

    def test_missing_history_column(self, h2_problem, tmp_path):
        self._refused(h2_problem, tmp_path,
                      lambda payload: payload.pop("hist_comm_bytes_wire"),
                      pytest.raises(KeyError, match="hist_comm_bytes_wire"))


class TestRngPayload:
    def test_restore_rng_roundtrip(self):
        import json

        rng = np.random.default_rng(99)
        rng.random(13)  # advance
        state = json.dumps(rng.bit_generator.state)
        clone = restore_rng(state)
        np.testing.assert_array_equal(clone.random(16), rng.random(16))

    @pytest.mark.parametrize("name", ["default_rng", "BitGenerator", "seed", "nope"])
    def test_only_numpy_bit_generators_are_instantiated(self, name):
        import json

        state = dict(np.random.default_rng(0).bit_generator.state,
                     bit_generator=name)
        with pytest.raises(ValueError, match="rng_state"):
            restore_rng(json.dumps(state))


class TestModelSnapshot:
    # A foil carries no rebuild spec: the refusals below and in test_api.py
    # (TestUnpublishableRunIsRefusedBeforeItTrains) are its half of the matrix.
    @pytest.mark.parametrize("amplitude_type", ["transformer"])
    def test_roundtrip_rebuilds_identical_network(self, tmp_path, amplitude_type):
        wf = build_wf(amplitude_type, 8, 2, 2, seed=5)
        # Perturb away from the seed init so params, not the spec seed,
        # must carry the state.
        wf.set_flat_params(wf.get_flat_params() + 0.01)
        path = tmp_path / "snap.npz"
        save_model_snapshot(wf, path, metadata={"iteration": 7})
        clone, meta = load_model_snapshot(path)
        assert meta == {"iteration": 7}
        np.testing.assert_array_equal(
            clone.get_flat_params(), wf.get_flat_params()
        )
        bits = np.random.default_rng(1).integers(0, 2, (6, 8)).astype(np.uint8)
        np.testing.assert_array_equal(
            clone.log_amplitudes(bits), wf.log_amplitudes(bits)
        )

    def test_specless_wavefunction_rejected(self, tmp_path):
        wf = build_qiankunnet(4, 1, 1)
        wf.spec = None  # hand-built networks carry no rebuild recipe
        with pytest.raises(ValueError, match="spec"):
            save_model_snapshot(wf, tmp_path / "x.npz")
        with pytest.raises(ValueError, match="spec"):
            save_model_snapshot(build_wf("made", 4, 1, 1), tmp_path / "x.npz")

    def test_spec_is_exactly_the_builders_arguments(self):
        import inspect

        wf = build_qiankunnet(4, 1, 1)
        assert set(wf.spec) == set(inspect.signature(build_qiankunnet).parameters)
        assert "amplitude_type" not in wf.spec

    @pytest.mark.parametrize("extra", [
        {"amplitude_type": "transformer"},        # what the parent commit wrote
        {"amplitude_type": "made", "sampler": "bas"},
    ])
    def test_unknown_spec_key_is_refused_by_name_before_building(
            self, tmp_path, monkeypatch, extra):
        wf = build_qiankunnet(4, 1, 1, seed=5)
        wf.spec = {**wf.spec, **extra}
        path = tmp_path / "old.npz"
        save_model_snapshot(wf, path)
        monkeypatch.setattr("repro.core.wavefunction.build_qiankunnet",
                            lambda **spec: pytest.fail("built before validating"))
        with pytest.raises(ValueError) as err:
            load_model_snapshot(path)
        assert str(path) in str(err.value)
        for key in extra:
            assert key in str(err.value)

    def test_checkpoint_is_publishable(self, h2_problem, tmp_path):
        """save_checkpoint embeds the snapshot fields: a checkpoint file is
        loadable as a model snapshot directly."""
        vmc = _fresh_vmc(h2_problem, "transformer")
        vmc.run(1)
        path = tmp_path / "ck.npz"
        save_checkpoint(vmc, path)
        clone, _ = load_model_snapshot(path)
        np.testing.assert_array_equal(
            clone.get_flat_params(), vmc.wf.get_flat_params()
        )

    def test_failed_save_keeps_the_previous_checkpoint(self, h2_problem,
                                                        tmp_path, monkeypatch):
        """A save killed mid-write must not tear checkpoint.npz: the bytes go
        to a temp file that only replaces the target once complete."""
        vmc = _fresh_vmc(h2_problem, "made")
        vmc.run(1)
        path = tmp_path / "ck.npz"
        save_checkpoint(vmc, path)
        before = path.read_bytes()

        _kill_the_writer_mid_write(monkeypatch)
        vmc.step()
        with pytest.raises(KeyboardInterrupt):
            save_checkpoint(vmc, path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["ck.npz"]

    def test_failed_save_keeps_the_previous_snapshot(self, tmp_path, monkeypatch):
        """The same for a model snapshot: the previous file stays byte for
        byte and still loads with its own parameters."""
        wf = build_qiankunnet(4, 1, 1, seed=5)
        path = tmp_path / "snap.npz"
        save_model_snapshot(wf, path)
        before, params = path.read_bytes(), wf.get_flat_params()

        _kill_the_writer_mid_write(monkeypatch)
        wf.set_flat_params(params + 0.01)
        with pytest.raises(KeyboardInterrupt):
            save_model_snapshot(wf, path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["snap.npz"]
        np.testing.assert_array_equal(load_model_snapshot(path)[0].get_flat_params(),
                                      params)

    def test_the_writer_matches_numpys_savez(self, h2_problem, tmp_path):
        """``write_npz`` is numpy's own layout: a checkpoint's payload written
        by it and by ``np.savez`` reads back with the same keys, dtypes,
        shapes and values, 0-d strings and empty history columns included."""
        vmc = _fresh_vmc(h2_problem, "transformer")
        save_checkpoint(vmc, tmp_path / "empty.npz")    # no moments, no history
        vmc.run(2)
        save_checkpoint(vmc, tmp_path / "ck.npz")
        for name in ("empty.npz", "ck.npz"):
            with np.load(tmp_path / name) as data:
                ours = dict(data)
            np.savez(tmp_path / "numpy.npz", **ours)
            with np.load(tmp_path / "numpy.npz") as data:
                theirs = dict(data)
            assert list(ours) == list(theirs)
            for key, value in theirs.items():
                assert ours[key].dtype == value.dtype, key
                assert ours[key].shape == value.shape, key
                np.testing.assert_array_equal(ours[key], value, err_msg=key)
        np.testing.assert_array_equal(ours["params"], vmc.wf.get_flat_params())
        np.testing.assert_array_equal(ours["opt_m"], vmc.optimizer.state()["opt_m"])


def _kill_the_writer_mid_write(monkeypatch) -> None:
    """Make ``write_npz`` die halfway: half of the bytes the real writer
    produces reach the file, then the process is interrupted."""
    real = checkpoint.write_npz

    def killed_mid_write(file, arrays):
        whole = io.BytesIO()
        real(whole, arrays)
        file.write(whole.getbuffer()[: whole.tell() // 2])
        raise KeyboardInterrupt

    monkeypatch.setattr(checkpoint, "write_npz", killed_mid_write)


class TestArtifactsCopyNothing:
    """Writing a run's artifacts adds no model-sized buffer to what training
    holds: on an ``h2``-preset-sized model at the paper's phase width
    (512, 512): 272 517 parameters, so theta, m and v are 6.2 MiB together)
    a checkpoint and a publish each allocate, under tracemalloc, under 5 %
    of theta + m + v.  (The copying writers allocated 134 % and 67 %.)  The
    width is pinned: the budget is about a model-sized buffer, which the
    default's 74 117 parameters would shrink toward the files' fixed
    overhead."""

    @pytest.fixture(scope="class")
    def vmc(self, h2_problem):
        p = h2_problem
        wf = build_qiankunnet(p.n_qubits, p.n_up, p.n_dn,
                              **{**asdict(api.get_preset("h2").ansatz),
                                 "phase_hidden": (512, 512)})
        vmc = VMC(wf, p.hamiltonian, VMCConfig(n_samples=1000, seed=3))
        vmc.run(2)
        assert wf.num_parameters() == 272_517
        return vmc

    @staticmethod
    def _allocated(write) -> int:
        """Peak bytes traced while ``write()`` runs, above where it started."""
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            write()
            return tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()

    def _budget(self, vmc) -> float:
        return 0.05 * 3 * vmc.wf.arena().theta.nbytes

    def test_save_checkpoint(self, vmc, tmp_path):
        allocated = self._allocated(lambda: save_checkpoint(vmc, tmp_path / "ck.npz"))
        assert allocated < self._budget(vmc)

    def test_load_checkpoint(self, vmc, tmp_path):
        """Resume holds what ``np.load`` reads and little more: the optimizer
        adopts the moments read from the file instead of copying them again
        (the copying load peaked at 135 % of theta + m + v)."""
        path = tmp_path / "ck.npz"
        save_checkpoint(vmc, path)
        resumed = VMC(copy.deepcopy(vmc.wf), vmc.comp, VMCConfig(n_samples=1000))
        resumed.wf.arena()  # the copy packs its own arena before the load
        allocated = self._allocated(lambda: load_checkpoint(resumed, path))
        assert allocated < 1.2 * 3 * vmc.wf.arena().theta.nbytes
        np.testing.assert_array_equal(resumed.optimizer.state()["opt_v"],
                                      vmc.optimizer.state()["opt_v"])

    def test_publish(self, vmc, tmp_path):
        registry = ModelRegistry(tmp_path / "models")
        allocated = self._allocated(lambda: registry.publish(vmc.wf))
        assert allocated < self._budget(vmc)
        wf, _ = registry.load(1)
        np.testing.assert_array_equal(wf.get_flat_params(), vmc.wf.get_flat_params())
        # Hashing theta's buffer in place gives the digest of its bytes.
        digest = hashlib.sha256(vmc.wf.get_flat_params().tobytes()).hexdigest()
        assert registry._record(1)["params_sha256"] == digest


class TestCheckpoint:
    def test_roundtrip_resumes_identically(self, h2_problem, tmp_path):
        def fresh():
            wf = build_qiankunnet(4, 1, 1, seed=12)
            return VMC(wf, h2_problem.hamiltonian,
                       VMCConfig(n_samples=2000, eloc_mode="exact", seed=13))

        # Run 6 iterations straight through.
        vmc_a = fresh()
        vmc_a.run(3)
        save_checkpoint(vmc_a, tmp_path / "ck.npz")
        vmc_a.run(3)

        # Run 3, checkpoint, restore into a fresh driver, run 3 more.
        vmc_b = fresh()
        load_checkpoint(vmc_b, tmp_path / "ck.npz")
        assert vmc_b.iteration == 3
        vmc_b.rng = np.random.default_rng(vmc_a.config.seed)  # align streams?
        # Parameters must match exactly at the restore point.
        np.testing.assert_allclose(
            vmc_b.wf.get_flat_params(),
            vmc_a.wf.get_flat_params(), atol=1.0,  # diverged after extra steps
        )

    def test_checkpoint_restores_parameters_exactly(self, h2_problem, tmp_path):
        wf = build_qiankunnet(4, 1, 1, seed=14)
        vmc = VMC(wf, h2_problem.hamiltonian, VMCConfig(n_samples=1000, seed=15))
        vmc.run(4)
        params = wf.get_flat_params().copy()
        save_checkpoint(vmc, tmp_path / "ck.npz")
        vmc.run(4)  # mutate further
        assert not np.allclose(wf.get_flat_params(), params)
        load_checkpoint(vmc, tmp_path / "ck.npz")
        np.testing.assert_array_equal(wf.get_flat_params(), params)
        assert vmc.iteration == 4
        assert vmc.optimizer.t == 4
