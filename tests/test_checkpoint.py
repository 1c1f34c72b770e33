"""Checkpoint round-trips: resumed runs must continue bit-identically.

The satellite contract of the serving PR: ``load_checkpoint`` restores the
stats history (so ``best_energy()`` sees pre-resume iterations) and the RNG
bit-generator state (so the sample stream continues exactly where the saved
run stopped).  The strongest possible check is therefore: save -> load into
a *fresh* VMC -> the next ``step()`` produces bit-identical stats to the
uninterrupted run, for every ansatz.
"""
from __future__ import annotations

import numpy as np
import pytest

from repro.core import VMC, VMCConfig, build_qiankunnet, load_checkpoint, save_checkpoint
from repro.core.checkpoint import (
    load_model_snapshot,
    restore_rng,
    save_model_snapshot,
)

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

        def killed_mid_write(file, **payload):
            file.write(b"PK torn")
            raise KeyboardInterrupt

        monkeypatch.setattr("repro.core.checkpoint.np.savez", killed_mid_write)
        vmc.step()
        with pytest.raises(KeyboardInterrupt):
            save_checkpoint(vmc, path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["ck.npz"]


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
