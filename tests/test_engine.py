"""The unified execution engine: stage pipeline, backends, determinism.

Acceptance contracts of the engine refactor:

* exactly one implementation of the Eq. 7 update — serial ``VMC`` and
  ``ThreadBackend(n_ranks=1)`` produce bit-identical parameter trajectories;
* ``n_ranks in {2, 4}`` is run-to-run deterministic and agrees with serial
  on the energy, for all three ansätze;
* a checkpointed parallel run resumes bit-identically;
* the weight-balanced eloc partition beats the contiguous 1/N_p split on
  skewed weights;
* parallel histories carry variance/eloc_imag/comm fields (one stats type),
  so ``best_energy`` applies to any backend's history;
* the RunSpec ``parallel`` section drives all of it through ``run()``.
"""
from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    VMC,
    ElocPlan,
    NoamAdamW,
    VMCConfig,
    build_qiankunnet,
    load_checkpoint,
    save_checkpoint,
)
from repro.core.engine import (
    ProcessBackend,
    SerialBackend,
    ThreadBackend,
    stage_partition,
)
from repro.core.local_energy import budgeted_sample_chunk
from repro.core.pretrain import pretrain_to_reference
from tests.conftest import ANSATZE, build_wf


def _fresh_vmc(problem, amplitude_type="transformer", backend=None, seed=3,
               n_samples=800, **cfg):
    wf = build_wf(amplitude_type, 4, 1, 1, d_model=8, n_heads=2, n_layers=1,
                  phase_hidden=(8,), seed=7)
    defaults = dict(n_samples=n_samples, eloc_mode="exact", seed=seed)
    defaults.update(cfg)
    return VMC(wf, problem.hamiltonian, VMCConfig(**defaults), backend=backend,
               optimizer=NoamAdamW(wf, warmup=50))


class TestSerialThreadBitIdentity:
    @pytest.mark.parametrize("amplitude_type", ANSATZE)
    def test_thread1_matches_serial_bitwise(self, h2_problem, amplitude_type):
        serial = _fresh_vmc(h2_problem, amplitude_type)
        thread = _fresh_vmc(h2_problem, amplitude_type,
                            backend=ThreadBackend(n_ranks=1))
        for _ in range(4):
            a, b = serial.step(), thread.step()
            assert a.energy == b.energy
            assert a.variance == b.variance
            assert a.eloc_imag == b.eloc_imag
            assert a.lr == b.lr
            np.testing.assert_array_equal(
                serial.wf.get_flat_params(), thread.wf.get_flat_params()
            )

    def test_serial_backend_is_default(self, h2_problem):
        assert isinstance(_fresh_vmc(h2_problem).backend, SerialBackend)


class TestParallelDeterminism:
    @pytest.mark.parametrize("n_ranks", [2, 4])
    def test_run_to_run_reproducible(self, h2_problem, n_ranks):
        runs = []
        for _ in range(2):
            vmc = _fresh_vmc(h2_problem, backend=ThreadBackend(
                n_ranks=n_ranks, nu_star_per_rank=4))
            vmc.run(3)
            runs.append(vmc)
        a, b = runs
        assert [s.energy for s in a.history] == [s.energy for s in b.history]
        assert [s.variance for s in a.history] == [s.variance for s in b.history]
        np.testing.assert_array_equal(
            a.wf.get_flat_params(), b.wf.get_flat_params()
        )

    @pytest.mark.parametrize("amplitude_type", ANSATZE)
    @pytest.mark.parametrize("n_ranks", [2, 4])
    def test_energy_agrees_with_serial(self, h2_problem, amplitude_type, n_ranks):
        """Different sampling split, same physics: first-iteration energies of
        a pretrained model agree between serial and N_p ranks."""
        def make(backend):
            vmc = _fresh_vmc(h2_problem, amplitude_type, backend=backend,
                             n_samples=4000)
            pretrain_to_reference(vmc.wf, h2_problem.hf_bits, n_steps=40,
                                  target_prob=0.3)
            return vmc

        e_serial = make(None).step().energy
        e_par = make(ThreadBackend(n_ranks=n_ranks, nu_star_per_rank=4)).step().energy
        assert abs(e_par - e_serial) < 0.1

    def test_sample_budget_preserved(self, h2_problem):
        for n_ranks in (1, 2, 3):
            vmc = _fresh_vmc(h2_problem, backend=ThreadBackend(
                n_ranks=n_ranks, nu_star_per_rank=4))
            assert vmc.step().n_samples == 800


class TestProcessBackend:
    def test_matches_thread_backend(self, h2_problem):
        thread = _fresh_vmc(h2_problem, backend=ThreadBackend(
            n_ranks=2, nu_star_per_rank=4))
        proc = _fresh_vmc(h2_problem, backend=ProcessBackend(
            n_ranks=2, nu_star_per_rank=4))
        for _ in range(2):
            a, b = thread.step(), proc.step()
            assert a.energy == b.energy
            assert a.variance == b.variance
        np.testing.assert_array_equal(
            thread.wf.get_flat_params(), proc.wf.get_flat_params()
        )

    def test_single_rank_rng_stream_survives_fork(self, h2_problem):
        """The size-1 process path consumes the RNG in a fork; the advanced
        state must ship back or every iteration would resample identically."""
        serial = _fresh_vmc(h2_problem)
        proc = _fresh_vmc(h2_problem, backend=ProcessBackend(n_ranks=1))
        for _ in range(2):
            a, b = serial.step(), proc.step()
            assert a.energy == b.energy
        np.testing.assert_array_equal(
            serial.wf.get_flat_params(), proc.wf.get_flat_params()
        )


class TestCommLayerInvariance:
    """The tentpole contract: codec x shm are pure *wire* optimizations.

    Every combination must leave energies, variances and the parameter
    trajectory bit-identical; what changes is only the wire-byte accounting
    (codec on => stage-2 samples wire < logical).
    """

    def _trajectory(self, problem, backend, steps=3):
        vmc = _fresh_vmc(problem, backend=backend)
        hist = [vmc.step() for _ in range(steps)]
        return hist, vmc.wf.get_flat_params()

    @pytest.mark.parametrize("codec", [True, False])
    def test_thread_codec_toggle_bit_identical(self, h2_problem, codec):
        ref_hist, ref_params = self._trajectory(
            h2_problem, ThreadBackend(n_ranks=2, nu_star_per_rank=4,
                                      comm_codec=True))
        hist, params = self._trajectory(
            h2_problem, ThreadBackend(n_ranks=2, nu_star_per_rank=4,
                                      comm_codec=codec))
        for a, b in zip(ref_hist, hist):
            assert a.energy == b.energy
            assert a.variance == b.variance
            assert a.eloc_imag == b.eloc_imag
        np.testing.assert_array_equal(ref_params, params)

    @pytest.mark.slow
    @pytest.mark.parametrize("codec", [True, False])
    @pytest.mark.parametrize("shm", [True, False])
    def test_process_codec_shm_combos_match_threads(self, h2_problem,
                                                    codec, shm):
        ref_hist, ref_params = self._trajectory(
            h2_problem, ThreadBackend(n_ranks=2, nu_star_per_rank=4), steps=2)
        hist, params = self._trajectory(
            h2_problem, ProcessBackend(n_ranks=2, nu_star_per_rank=4,
                                       comm_codec=codec, comm_shm=shm),
            steps=2)
        for a, b in zip(ref_hist, hist):
            assert a.energy == b.energy
            assert a.variance == b.variance
        np.testing.assert_array_equal(ref_params, params)

    def test_codec_shrinks_stage2_wire_bytes(self, h2_problem):
        backend = ThreadBackend(n_ranks=2, nu_star_per_rank=4)
        vmc = _fresh_vmc(h2_problem, backend=backend)
        for _ in range(2):
            stats = vmc.step()
        assert stats.comm_bytes_wire is not None
        assert stats.comm_bytes_wire < stats.comm_bytes
        chan = backend.last_comm_stats.channels["stage2_samples"]
        assert chan["wire"] < chan["logical"]
        # amplitudes travel raw: their channel never compresses
        amp = backend.last_comm_stats.channels["stage2_amps"]
        assert amp["wire"] == amp["logical"]

    def test_codec_off_reports_equal_logical_and_wire(self, h2_problem):
        backend = ThreadBackend(n_ranks=2, nu_star_per_rank=4,
                                comm_codec=False)
        vmc = _fresh_vmc(h2_problem, backend=backend)
        stats = vmc.step()
        assert stats.comm_bytes_wire == stats.comm_bytes

    def test_diff_baseline_never_inflates_and_stays_bitwise(self, h2_problem):
        """The cross-iteration baseline is a pure win-or-tie: the encoder
        falls back to the full delta stream when the diff would be bigger,
        and either way the trajectory is untouched."""
        diffed_backend = ThreadBackend(n_ranks=2, nu_star_per_rank=4)
        diffed = _fresh_vmc(h2_problem, backend=diffed_backend)
        full_backend = ThreadBackend(n_ranks=2, nu_star_per_rank=4)
        full = _fresh_vmc(h2_problem, backend=full_backend)
        for _ in range(3):
            a = diffed.step()
            full.comm_baseline = None  # force full payloads every iteration
            b = full.step()
            assert a.energy == b.energy
            assert a.variance == b.variance
            wire_diff = diffed_backend.last_comm_stats.channels[
                "stage2_samples"]["wire"]
            wire_full = full_backend.last_comm_stats.channels[
                "stage2_samples"]["wire"]
            assert wire_diff <= wire_full
        np.testing.assert_array_equal(
            diffed.wf.get_flat_params(), full.wf.get_flat_params()
        )


class TestParallelResume:
    def test_checkpointed_parallel_run_resumes_bitwise(self, h2_problem, tmp_path):
        path = tmp_path / "ck.npz"
        backend = dict(n_ranks=2, nu_star_per_rank=4)
        uninterrupted = _fresh_vmc(h2_problem, backend=ThreadBackend(**backend))
        uninterrupted.run(3)
        save_checkpoint(uninterrupted, path)
        expected = [uninterrupted.step() for _ in range(2)]

        resumed = _fresh_vmc(h2_problem, backend=ThreadBackend(**backend))
        load_checkpoint(resumed, path)
        got = [resumed.step() for _ in range(2)]
        assert got == expected  # timings excluded from VMCStats equality
        np.testing.assert_array_equal(
            resumed.wf.get_flat_params(), uninterrupted.wf.get_flat_params()
        )

    def test_history_round_trips_parallel_fields(self, h2_problem, tmp_path):
        path = tmp_path / "ck.npz"
        vmc = _fresh_vmc(h2_problem, backend=ThreadBackend(
            n_ranks=2, nu_star_per_rank=4))
        vmc.run(2)
        save_checkpoint(vmc, path)
        resumed = _fresh_vmc(h2_problem, backend=ThreadBackend(
            n_ranks=2, nu_star_per_rank=4))
        load_checkpoint(resumed, path)
        assert [s.comm_bytes for s in resumed.history] == [
            s.comm_bytes for s in vmc.history
        ]
        assert [s.per_rank_unique for s in resumed.history] == [
            s.per_rank_unique for s in vmc.history
        ]
        assert resumed.best_energy(2) == vmc.best_energy(2)


class TestUnifiedStats:
    def test_parallel_history_carries_variance_and_comm(self, h2_problem):
        vmc = _fresh_vmc(h2_problem, backend=ThreadBackend(
            n_ranks=2, nu_star_per_rank=4))
        s = vmc.step()
        assert s.variance > 0
        assert np.isfinite(s.eloc_imag)
        assert s.comm_bytes > 0
        assert len(s.per_rank_unique) == 2
        assert sum(s.per_rank_unique) >= s.n_unique  # split covers the set
        # best_energy (the final-estimate convention) works on any history.
        vmc.step()
        assert np.isfinite(vmc.best_energy(2))

    def test_serial_stats_have_no_comm_fields(self, h2_problem):
        s = _fresh_vmc(h2_problem).step()
        assert s.comm_bytes is None
        assert s.per_rank_unique is None
        assert s.wall_time > 0

    def test_parallel_variance_independent_of_partition(self, h2_problem):
        """The allreduced variance is a property of the global unique set:
        re-chunking it (balanced vs contiguous) must not change the value
        beyond fp reduction order."""
        var = {}
        for mode in ("balanced", "contiguous"):
            vmc = _fresh_vmc(h2_problem, backend=ThreadBackend(
                n_ranks=2, nu_star_per_rank=4, eloc_partition=mode))
            var[mode] = vmc.step().variance
        assert var["balanced"] == pytest.approx(var["contiguous"], abs=1e-9)


class TestElocPartition:
    def test_balanced_beats_contiguous_on_skewed_weights(self):
        rng = np.random.default_rng(0)
        # A BAS-like weight profile: few huge weights, long light tail.
        weights = np.sort(rng.pareto(1.0, size=400) * 100 + 1)[::-1].astype(np.int64)
        for n_ranks in (2, 4, 8):
            balanced = stage_partition(weights, n_ranks, "balanced")
            contiguous = stage_partition(weights, n_ranks, "contiguous")
            loads_b = [weights[idx].sum() for idx in balanced]
            loads_c = [weights[idx].sum() for idx in contiguous]
            mean = weights.sum() / n_ranks
            assert max(loads_b) / mean <= max(loads_c) / mean
            # Coverage and order are preserved in both modes.
            np.testing.assert_array_equal(
                np.concatenate(balanced), np.arange(len(weights)))
            np.testing.assert_array_equal(
                np.concatenate(contiguous), np.arange(len(weights)))

    def test_unknown_partition_mode_raises(self):
        with pytest.raises(ValueError, match="partition"):
            stage_partition(np.ones(4), 2, "typo")

    def test_backend_validates_partition_mode(self):
        with pytest.raises(ValueError, match="eloc_partition"):
            ThreadBackend(n_ranks=2, eloc_partition="typo")

    def test_contiguous_backend_still_converges_same_energy(self, h2_problem):
        """Partitioning changes the fp reduction order, not the estimator."""
        e = {}
        for mode in ("balanced", "contiguous"):
            vmc = _fresh_vmc(h2_problem, backend=ThreadBackend(
                n_ranks=2, nu_star_per_rank=4, eloc_partition=mode))
            e[mode] = vmc.step().energy
        assert e["balanced"] == pytest.approx(e["contiguous"], abs=1e-9)


class TestElocChunkingKnobs:
    def test_budgeted_sample_chunk_shrinks(self):
        # 2 words/key, 100 groups: 512-group chunk clamps to 100 groups,
        # 100 * 3 * 8 = 2400 B per sample row -> a 24 kB budget fits 10 rows.
        assert budgeted_sample_chunk(2, 100, 512, 4096, 24_000) == 10
        assert budgeted_sample_chunk(2, 100, 512, 4096, None) == 4096
        assert budgeted_sample_chunk(2, 100, 512, 4096, 1) == 1  # floor of 1

    def test_chunking_does_not_change_eloc(self, h2_problem):
        """Chunk boundaries must not alter the per-sample accumulation."""
        base = _fresh_vmc(h2_problem, seed=5)
        tiny = _fresh_vmc(h2_problem, seed=5, eloc_memory_budget_mb=0.001)
        tiny.eloc_plan = ElocPlan(tiny.comp, sample_chunk=1,
                                  memory_budget_bytes=1000)
        a, b = base.step(), tiny.step()
        assert a.energy == b.energy
        assert a.variance == b.variance

    def test_config_validation(self):
        with pytest.raises(ValueError, match="VMCConfig.eloc_memory_budget_mb"):
            VMCConfig(eloc_memory_budget_mb=0)


class TestEngineGuards:
    def test_bad_rank_count_rejected(self):
        with pytest.raises(ValueError, match="n_ranks"):
            ThreadBackend(n_ranks=0)

    def test_whole_batch_optimizer_rejected_on_parallel_ranks(self, h2_problem):
        """Hand wiring gets the refusal run() gives (test_sr_plus_parallel_
        rejected): per-rank SR solves do not sum to the whole-batch one."""
        from repro.core import StochasticReconfiguration

        wf = build_qiankunnet(4, 1, 1, d_model=8, n_heads=2, n_layers=1,
                              phase_hidden=(8,), seed=1)
        with pytest.raises(ValueError, match="whole batch on one rank"):
            VMC(wf, h2_problem.hamiltonian, VMCConfig(n_samples=100),
                backend=ThreadBackend(n_ranks=2),
                optimizer=StochasticReconfiguration(wf))

    def test_stage2_refuses_a_batch_the_sweep_did_not_produce(self, h2_problem):
        """Stage 2 reads log pi off the sweep's batch and has no evaluator to
        fall back to: a batch without it is refused by field name, and the
        sweep's own batch tabulates what ``log_amplitudes`` computes."""
        from repro.core import SampleBatch, batch_autoregressive_sample
        from repro.core.engine import stage_gather_table
        from repro.parallel.comm import Comm, SoloTransport
        from repro.utils.bitstrings import unpack_bits

        vmc = _fresh_vmc(h2_problem)
        comm = Comm(SoloTransport())
        swept = batch_autoregressive_sample(vmc.wf, 500, np.random.default_rng(0))
        given = SampleBatch(bits=swept.bits, weights=swept.weights)
        with pytest.raises(ValueError, match=r"SampleBatch\.log_prob"):
            stage_gather_table(comm, vmc.wf, given)
        keys, weights, table = stage_gather_table(comm, vmc.wf, swept)
        assert weights.sum() == 500
        np.testing.assert_allclose(
            table.log_amps, vmc.wf.log_amplitudes(unpack_bits(keys, 4)),
            rtol=0, atol=1e-12)

    def test_a_finished_vmc_is_freed_without_the_cycle_collector(self, h2_problem):
        """The optimizer holds the model and both AdamW moments; a reference
        cycle through its schedule would keep a finished run's copy alive
        until the next gc pass (it was 8 MiB of peak RSS on h2_converge)."""
        import gc
        import weakref

        vmc = _fresh_vmc(h2_problem)
        vmc.step()
        optimizer = weakref.ref(vmc.optimizer)
        gc.disable()
        try:
            del vmc
            assert optimizer() is None
        finally:
            gc.enable()


class TestRunSpecIntegration:
    """The ``parallel`` spec section end to end through ``run()``."""

    def _spec(self, **parallel):
        from repro.api import RunSpec

        return RunSpec.from_dict({
            "name": "engine-test",
            "problem": {"molecule": "H2", "basis": "sto-3g",
                        "geometry": {"r": 0.7414}},
            "ansatz": {"name": "transformer", "d_model": 8, "n_heads": 2,
                       "n_layers": 1, "phase_hidden": [8], "seed": 1},
            "optimizer": {"name": "adamw", "warmup": 100},
            "sampling": {"ns_pretrain": 500, "ns_max": 500,
                         "pretrain_iters": 3},
            "parallel": {"backend": "threads", "n_ranks": 2,
                         "nu_star_per_rank": 4, **parallel},
            "train": {"max_iterations": 2, "pretrain_steps": 10,
                      "early_stop": False, "seed": 2},
            "output": {"publish": True},
        })

    def test_threads_run_produces_artifact_contract(self, tmp_path):
        import json

        from repro.api import run

        result = run(self._spec(), run_dir=tmp_path / "run")
        assert result.spec_path.exists()
        assert result.checkpoint_path.exists()
        assert result.report_path.exists()
        assert result.published_version is not None
        rows = [json.loads(l) for l in
                result.metrics_path.read_text().splitlines()]
        iters = [r for r in rows if "iteration" in r]
        assert [r["iteration"] for r in iters] == [1, 2]
        for r in iters:
            assert r["comm_bytes"] > 0
            assert len(r["per_rank_unique"]) == 2
            assert "time_sampling" in r and "time_local_energy" in r
            assert r["variance"] >= 0

    def test_threads_resume_bit_identical(self, tmp_path):
        import json

        from repro.api import resume, run

        run(self._spec(), run_dir=tmp_path / "short")
        resumed = resume(tmp_path / "short",
                         overrides={"train.max_iterations": 4})
        full_spec = self._spec().with_overrides({"train.max_iterations": 4})
        full = run(full_spec, run_dir=tmp_path / "full")
        rows = lambda p: [json.loads(l)["energy"] for l in
                          p.read_text().splitlines() if "iteration" in l]
        assert rows(resumed.metrics_path) == rows(full.metrics_path)
        np.testing.assert_array_equal(
            resumed.wavefunction.get_flat_params(),
            full.wavefunction.get_flat_params(),
        )

    def test_sr_plus_parallel_rejected(self, tmp_path):
        """Refused at materialization, on what the built optimizer declares,
        naming the field and the reason — and before spec.json lands."""
        from repro.api import SpecError, run

        spec = self._spec().with_overrides({"optimizer.name": "sr"})
        with pytest.raises(SpecError, match=r"optimizer\.name='sr' cannot run "
                           r"on parallel\.n_ranks=2: .*whole batch on one rank"):
            run(spec, run_dir=tmp_path / "run")
        assert not (tmp_path / "run" / "spec.json").exists()
        # One thread rank is the serial iteration: nothing to refuse.
        one = spec.with_overrides({"parallel.n_ranks": 1,
                                   "train.max_iterations": 1})
        assert run(one, run_dir=tmp_path / "one").report.iterations == 1

    def test_serial_with_many_ranks_rejected(self):
        from repro.api import SpecError
        from repro.api.driver import materialize_backend

        spec = self._spec().with_overrides(
            {"parallel.backend": "serial", "parallel.n_ranks": 2})
        with pytest.raises(SpecError, match="serial"):
            materialize_backend(spec)

    def test_unknown_backend_lists_registered(self):
        from repro.api import UnknownComponentError
        from repro.api.driver import materialize_backend

        spec = self._spec().with_overrides({"parallel.backend": "gpu"})
        with pytest.raises(UnknownComponentError, match="threads"):
            materialize_backend(spec)

    def test_parallel_spec_validation_names_fields(self):
        from repro.api import SpecError

        with pytest.raises(SpecError, match="parallel.n_ranks"):
            self._spec(n_ranks=0)
        with pytest.raises(SpecError, match="parallel.eloc_partition"):
            self._spec(eloc_partition="typo")

    def test_old_specs_without_parallel_section_load(self):
        from repro.api import RunSpec

        data = self._spec().to_dict()
        del data["parallel"]
        spec = RunSpec.from_dict(data)
        assert spec.parallel.backend == "serial"
        assert spec.parallel.n_ranks == 1
