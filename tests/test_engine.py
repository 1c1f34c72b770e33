"""The unified execution engine: stage pipeline, backends, determinism.

Acceptance contracts of the engine refactor:

* exactly one implementation of the Eq. 7 update — serial ``VMC`` and
  ``ThreadBackend(n_ranks=1)`` produce bit-identical parameter trajectories;
* ``n_ranks in {2, 4}`` is run-to-run deterministic and agrees with serial
  on the energy, for all three ansätze;
* a checkpointed parallel run resumes bit-identically;
* stage 3's partition is contiguous rows, counts within 1 of each other,
  whatever the weights (weight balance is stage 1's tree split);
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

    def test_serial_backend_names_the_multi_rank_run_options(self):
        with pytest.raises(ValueError,
                           match=r"parallel\.backend=process or =cluster") as err:
            SerialBackend(n_ranks=2)
        assert "threads" not in str(err.value)


class TestSerialDeterminism:
    @pytest.mark.parametrize("amplitude_type", ANSATZE)
    def test_seeded_runs_are_bit_identical(self, h2_problem, amplitude_type):
        """Two engines built from the same seeds take the same sample /
        E_loc / Eq. 7 backward trajectory, bit for bit."""
        a, b = (_fresh_vmc(h2_problem, amplitude_type) for _ in range(2))
        for _ in range(3):
            sa, sb = a.step(), b.step()
            assert (sa.energy, sa.variance, sa.eloc_imag, sa.n_unique) == \
                (sb.energy, sb.variance, sb.eloc_imag, sb.n_unique)
            np.testing.assert_array_equal(a.wf.get_flat_params(),
                                          b.wf.get_flat_params())


class TestCommBoundaries:
    @pytest.mark.parametrize("cls,n_ranks", [
        (ThreadBackend, 1), (ThreadBackend, 2), (ThreadBackend, 4),
        (ProcessBackend, 2),
    ], ids=["threads-1", "threads-2", "threads-4", "process-2"])
    def test_amplitudes_and_gradient_cross_once_per_iteration(self, h2_problem,
                                                              cls, n_ranks):
        """Per rank and iteration, stage 2 ships log pi + phi in one
        ``stage2_amps`` allgather (none on one rank) and stage 6 the fused
        M gradient entries + the variance in one ``stage6_grads`` allreduce."""
        backend = cls(n_ranks=n_ranks, nu_star_per_rank=4)
        vmc = _fresh_vmc(h2_problem, backend=backend)
        n_params = vmc.wf.get_flat_params().size
        try:
            for _ in range(2):
                vmc.step()
                channels = backend.last_comm_stats.channels
                grads = channels["stage6_grads"]
                assert grads["calls"] == 1
                assert grads["logical"] == 8 * (n_params + 1) * n_ranks
                if n_ranks == 1:
                    assert "stage2_amps" not in channels
                else:
                    assert channels["stage2_amps"]["calls"] == 1
        finally:
            backend.close()


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

    @pytest.mark.parametrize("amplitude_type", ["made", "naqs-mlp"])
    def test_the_foils_match_thread_ranks(self, h2_problem, amplitude_type):
        """Process ranks, the spec's local multi-rank option, take the thread
        ranks' trajectory for the foil ansatze too."""
        runs = []
        for backend in (ThreadBackend(n_ranks=2, nu_star_per_rank=4),
                        ProcessBackend(n_ranks=2, nu_star_per_rank=4)):
            vmc = _fresh_vmc(h2_problem, amplitude_type, backend=backend)
            try:
                runs.append(([(s.energy, s.variance) for s in vmc.run(2)],
                             vmc.wf.get_flat_params()))
            finally:
                backend.close()
        (ref_hist, ref_params), (hist, params) = runs
        assert hist == ref_hist
        np.testing.assert_array_equal(ref_params, params)

    def test_single_rank_is_the_serial_stream(self, h2_problem):
        """One process rank forks nothing: rank 0 is the caller, sweeping on
        the engine's persistent RNG exactly as the serial backend does."""
        serial = _fresh_vmc(h2_problem)
        proc = _fresh_vmc(h2_problem, backend=ProcessBackend(n_ranks=1))
        for _ in range(2):
            a, b = serial.step(), proc.step()
            assert a.energy == b.energy
        np.testing.assert_array_equal(
            serial.wf.get_flat_params(), proc.wf.get_flat_params()
        )


class TestCommLayerInvariance:
    """The comm layer is a pure *wire* optimization: stage 2 always ships
    the codec's payload and process ranks move every array as frames over
    socket pairs, and only the wire-byte accounting shows it (stage-2
    samples wire < logical), never the trajectory."""

    @pytest.mark.slow
    def test_process_over_socket_pairs_matches_threads(self, h2_problem):
        """Process ranks' arrays cross socket pairs as frames: the same
        trajectory and comm columns as threads."""
        runs = []
        for backend in (ThreadBackend(n_ranks=2, nu_star_per_rank=4),
                        ProcessBackend(n_ranks=2, nu_star_per_rank=4)):
            vmc = _fresh_vmc(h2_problem, backend=backend)
            runs.append(([vmc.step() for _ in range(2)],
                         vmc.wf.get_flat_params()))
        (ref_hist, ref_params), (hist, params) = runs
        assert hist == ref_hist  # energies, variances, comm bytes, N_u split
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


class TestKeptPhaseForward:
    """Stage 2 runs the phase MLP once over the rank's chunk and stage 5
    differentiates that forward: the same gradient bits as recomputing it,
    once per row per iteration, nothing left behind on ``wf``."""

    @pytest.mark.parametrize("rows, keep", [(40, 4096), (40, 16), (0, 4096)],
                             ids=["whole", "past-the-keep-bound", "empty"])
    # ``keep`` is in rows; the bound is in bytes, 512 per row of (64, 64).
    def test_kept_forward_gives_the_recomputed_gradient(self, monkeypatch, rows, keep):
        from repro.core import SampleBatch, wavefunction
        from repro.core.engine import stage_backward

        monkeypatch.setattr(wavefunction, "PHASE_BLOCK", 8)
        monkeypatch.setattr(wavefunction, "PHASE_KEEP_BYTES", keep * 4 * (64 + 64))
        wf = build_qiankunnet(20, 5, 5, d_model=8, n_heads=2, n_layers=1,
                              phase_hidden=(64, 64), constrain=False, seed=3)
        rng = np.random.default_rng(rows)
        chunk = SampleBatch(bits=rng.integers(0, 2, size=(rows, 20), dtype=np.uint8),
                            weights=rng.integers(1, 9, size=rows))
        w = chunk.weights / max(chunk.weights.sum(), 1)
        eloc = rng.normal(size=rows) + 1j * rng.normal(size=rows)
        args = (wf, chunk, w, eloc, 0.25, -0.125)
        want = stage_backward(*args).copy()

        phi, forward = wf.phase_forward(chunk.bits)
        np.testing.assert_array_equal(phi, wf.phases(chunk.bits))
        kept = [h is not None for h in forward.hidden]
        assert kept == [rows_.stop <= keep for rows_ in forward.blocks]
        if rows and keep < rows:
            assert any(kept) and not all(kept)
        np.testing.assert_array_equal(stage_backward(*args, forward), want)
        assert forward.params32 is None and not any(h is not None for h in forward.hidden)

    @pytest.mark.parametrize("hidden, keep_rows", [((512, 512), 4096), ((256, 256), 8192)],
                             ids=["paper-512", "default-256"])
    def test_the_byte_bound_keeps_rows_by_width(self, hidden, keep_rows):
        """16 MiB of kept activations: 4 096 rows of the paper's net, 8 192
        of the default's; the first block past them is recomputed."""
        from repro.core import wavefunction

        wf = build_qiankunnet(20, 5, 5, d_model=8, n_heads=2, n_layers=1,
                              phase_hidden=hidden, constrain=False, seed=3)
        assert wavefunction.PHASE_KEEP_BYTES // wf.phase.row_bytes == keep_rows
        block = wavefunction.PHASE_BLOCK
        bits = np.random.default_rng(1).integers(0, 2, size=(keep_rows + block, 20),
                                                 dtype=np.uint8)
        _, forward = wf.phase_forward(bits)
        kept = [h is not None for h in forward.hidden]
        assert kept == [True] * (keep_rows // block) + [False]
        assert sum(h.nbytes for hs in forward.hidden if hs for h in hs) \
            == wavefunction.PHASE_KEEP_BYTES

    def test_phase_vjp_over_kept_rows_is_the_recompute_bit_for_bit(self):
        """At the default width, several blocks, every one kept: the gradient
        of the kept forward equals ``phase_vjp`` running its own forward."""
        from repro.core import wavefunction

        wf = build_qiankunnet(20, 5, 5, d_model=8, n_heads=2, n_layers=1,
                              constrain=False, seed=4)
        rows = 2 * wavefunction.PHASE_BLOCK + 37
        rng = np.random.default_rng(2)
        bits = rng.integers(0, 2, size=(rows, 20), dtype=np.uint8)
        coeff = rng.normal(size=rows)
        grads = []
        for keep in (True, False):
            wf.zero_grad()
            _, forward = wf.phase_forward(bits)
            assert all(h is not None for h in forward.hidden)
            wf.phase_vjp(bits, coeff, forward if keep else None)
            grads.append(wf.get_flat_grads().copy())
        assert np.any(grads[0])
        np.testing.assert_array_equal(grads[0], grads[1])

    def test_a_forward_of_other_rows_is_refused(self):
        wf = build_qiankunnet(4, 1, 1, phase_hidden=(8,), seed=1)
        bits = np.array([[1, 0, 0, 1], [0, 1, 1, 0]], dtype=np.uint8)
        _, forward = wf.phase_forward(bits[:1])
        with pytest.raises(ValueError, match="forward covers 1 rows"):
            wf.phase_vjp(bits, np.ones(2), forward)

    @pytest.mark.slow
    def test_a_rank_without_rows_ships_an_empty_phase_part(self, h2_problem):
        """Five ranks, at most four unique rows (H2's sector): a rank owns no
        chunk.  Threads and processes still agree bit for bit."""
        runs = []
        for backend in (ThreadBackend(n_ranks=5, nu_star_per_rank=1),
                        ProcessBackend(n_ranks=5, nu_star_per_rank=1)):
            vmc = _fresh_vmc(h2_problem, backend=backend, eloc_mode="sample_aware")
            history = [vmc.step() for _ in range(2)]
            assert all(s.n_unique < 5 for s in history)
            runs.append((history, vmc.wf.get_flat_params()))
        (ref_hist, ref_params), (hist, params) = runs
        assert hist == ref_hist
        np.testing.assert_array_equal(ref_params, params)

    def test_every_rank_tabulates_what_log_amplitudes_gives(self, h2_problem, monkeypatch):
        """Each rank ships log pi of its sampled rows and phi of its chunk;
        every receiver splits the parts back into the same table, equal to
        ``wf.log_amplitudes`` of its keys (the sweep's log pi and a
        float32 phase over other row blocks: agreement to rounding)."""
        import copy

        from repro.core import engine
        from repro.utils.bitstrings import unpack_bits

        tables, real = {}, engine.stage_gather_table

        def recording(comm, wf, local):
            out = real(comm, wf, local)
            tables[comm.Get_rank()] = out
            return out

        monkeypatch.setattr(engine, "stage_gather_table", recording)
        vmc = _fresh_vmc(h2_problem, backend=ThreadBackend(n_ranks=3, nu_star_per_rank=1))
        before = copy.deepcopy(vmc.wf)   # the step moves the parameters
        vmc.step()
        keys, _, table, _ = tables[0]
        for rank in (1, 2):
            np.testing.assert_array_equal(tables[rank][2].keys, table.keys)
            np.testing.assert_array_equal(tables[rank][2].log_amps, table.log_amps)
        want = before.log_amplitudes(unpack_bits(keys, 4))
        np.testing.assert_allclose(table.log_amps, want, rtol=0, atol=1e-6)

    @pytest.mark.parametrize("n_ranks", [1, 2])
    def test_stage2_amps_are_16_bytes_per_unique_row(self, h2_problem, n_ranks):
        """log pi (8 B) of every sampled row plus phi (8 B) of every chunk
        row: one complex128's worth per unique row, times N_p (an allgather
        is counted as payload x N_p).  A one-rank world gathers nothing."""
        backend = ThreadBackend(n_ranks=n_ranks, nu_star_per_rank=4)
        stats = _fresh_vmc(h2_problem, backend=backend).step()
        amp = backend.last_comm_stats.channels.get("stage2_amps")
        if n_ranks == 1:
            assert amp is None
        else:
            assert amp["logical"] == amp["wire"] == 16 * stats.n_unique * n_ranks

    def test_no_kept_activation_outlives_the_step(self, h2_problem, monkeypatch):
        import gc
        import weakref

        vmc = _fresh_vmc(h2_problem, eloc_mode="sample_aware")
        refs, forward_of = [], vmc.wf.phase_forward

        def recording(bits):
            phi, forward = forward_of(bits)
            refs.extend(weakref.ref(a) for h in forward.hidden if h for a in h)
            refs.extend(weakref.ref(a) for pair in forward.params32 for a in pair)
            return phi, forward

        monkeypatch.setattr(vmc.wf, "phase_forward", recording)
        gc.disable()
        try:
            vmc.step()
            assert refs and not any(r() is not None for r in refs)
        finally:
            gc.enable()

    def test_an_exact_iteration_casts_the_phase_mlp_once(self, lih_problem, monkeypatch):
        """Stage 2's float32 cast, kept for stage 5, is lent to exact mode's
        table extension (which grows LiH's 100-sample table here): one cast
        per iteration, the phases unchanged."""
        from repro.core import engine
        from repro.nn import PhaseMLP

        def make():
            p = lih_problem
            wf = build_qiankunnet(p.n_qubits, p.n_up, p.n_dn, d_model=8, n_heads=2,
                                  n_layers=1, phase_hidden=(8,), seed=7)
            return VMC(wf, p.hamiltonian,
                       VMCConfig(n_samples=100, eloc_mode="exact", seed=3))

        want = make().step()
        casts, grown = [], []
        cast, extend = PhaseMLP.cast32, engine.extend_amplitude_table

        def counting(self):
            casts.append(1)
            return cast(self)

        def growing(wf, comp, chunk, table, **kwargs):
            out = extend(wf, comp, chunk, table, **kwargs)
            grown.append(out.n_entries - table.n_entries)
            return out

        monkeypatch.setattr(PhaseMLP, "cast32", counting)
        monkeypatch.setattr(engine, "extend_amplitude_table", growing)
        got = make().step()
        assert (got.energy, got.variance) == (want.energy, want.variance)
        assert grown[0] > 0 and len(casts) == 1

    def test_one_phase_forward_per_unique_row(self, h2_problem, monkeypatch):
        """A serial sample-aware iteration runs the phase MLP's forward over
        its N_u rows once: stage 2 runs it, stage 5 reads it."""
        from repro.nn import PhaseMLP

        rows, real = [], PhaseMLP._forward32

        def counting(self, bits, params32):
            rows.append(len(bits))
            return real(self, bits, params32)

        monkeypatch.setattr(PhaseMLP, "_forward32", counting)
        vmc = _fresh_vmc(h2_problem, eloc_mode="sample_aware")
        for _ in range(2):
            rows.clear()
            stats = vmc.step()
            assert sum(rows) == stats.n_unique


class TestParallelResume:
    @pytest.mark.parametrize("older_build", [False, True],
                             ids=["this-build", "with-comm-baseline"])
    def test_checkpointed_parallel_run_resumes_bitwise(self, h2_problem, tmp_path,
                                                       older_build):
        """``older_build``: the checkpoint also holds the ``comm_baseline``
        array (the previous iteration's global key set) that builds with a
        cross-iteration stage-2 diff wrote; it is never read."""
        path = tmp_path / "ck.npz"
        backend = dict(n_ranks=2, nu_star_per_rank=4)
        uninterrupted = _fresh_vmc(h2_problem, backend=ThreadBackend(**backend))
        uninterrupted.run(3)
        save_checkpoint(uninterrupted, path)
        if older_build:
            payload = dict(np.load(path))
            payload["comm_baseline"] = np.array([[3], [5], [6], [9]], dtype=np.uint64)
            np.savez(path, **payload)
        expected = [uninterrupted.step() for _ in range(2)]

        resumed = _fresh_vmc(h2_problem, backend=ThreadBackend(**backend))
        load_checkpoint(resumed, path)
        got = [resumed.step() for _ in range(2)]
        assert got == expected  # timings excluded from VMCStats equality
        assert resumed.history == uninterrupted.history
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


class TestElocPartition:
    def test_rows_are_cut_contiguously_within_one_row(self):
        rng = np.random.default_rng(0)
        # A BAS-like weight profile: few huge weights, long light tail —
        # which the cut ignores: stage 3's work is per row.
        skewed = np.sort(rng.pareto(1.0, size=400) * 100 + 1)[::-1].astype(np.int64)
        for n in (0, 1, 3, 7, 400):
            for n_ranks in (1, 2, 3, 4, 8):
                parts = stage_partition(skewed[:n], n_ranks)
                assert len(parts) == n_ranks
                np.testing.assert_array_equal(np.concatenate(parts), np.arange(n))
                sizes = [len(p) for p in parts]
                assert max(sizes) - min(sizes) <= 1
                assert sizes == sorted(sizes, reverse=True)


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

    def test_an_optimizer_of_another_model_is_refused(self, h2_problem):
        """Stage 5 differentiates ``wf`` and stage 6 steps the optimizer's
        model: an optimizer built on another one — same architecture or not —
        would train that model instead, silently."""
        def build(d_model):
            return build_qiankunnet(4, 1, 1, d_model=d_model, n_heads=2,
                                    n_layers=1, phase_hidden=(8,), seed=1)

        wf = build(8)
        for other in (build(8), build(16)):
            theta = other.get_flat_params()
            with pytest.raises(ValueError, match="optimizer"):
                VMC(wf, h2_problem.hamiltonian, VMCConfig(n_samples=100),
                    optimizer=NoamAdamW(other))
            np.testing.assert_array_equal(other.get_flat_params(), theta)
        before = wf.get_flat_params()
        VMC(wf, h2_problem.hamiltonian, VMCConfig(n_samples=100),
            optimizer=NoamAdamW(wf)).step()
        assert not np.array_equal(wf.get_flat_params(), before)

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
        keys, weights, table, _ = stage_gather_table(comm, vmc.wf, swept)
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
            "ansatz": {"d_model": 8, "n_heads": 2, "n_layers": 1,
                       "phase_hidden": [8], "seed": 1},
            "optimizer": {"warmup": 100},
            "sampling": {"ns_pretrain": 500, "ns_max": 500,
                         "pretrain_iters": 3},
            "parallel": {"backend": "process", "n_ranks": 2,
                         "nu_star_per_rank": 4, **parallel},
            "train": {"max_iterations": 2, "pretrain_steps": 10,
                      "early_stop": False, "seed": 2},
            "output": {"publish": True},
        })

    def test_process_run_produces_artifact_contract(self, tmp_path):
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

    def test_process_resume_bit_identical(self, tmp_path):
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

    def test_sr_plus_parallel_rejected(self):
        """SR is no run option on any rank count: a spec naming an optimizer
        is refused by the spec gate, field named, before any run starts."""
        from repro.api import RunSpec, SpecError

        for n_ranks in (2, 1):
            data = self._spec(n_ranks=n_ranks).to_dict()
            data["optimizer"]["name"] = "sr"
            with pytest.raises(SpecError, match=r"optimizer\.name"):
                RunSpec.from_dict(data)

    def test_serial_with_many_ranks_rejected(self):
        from repro.api import SpecError
        from repro.api.driver import materialize_backend

        spec = self._spec().with_overrides(
            {"parallel.backend": "serial", "parallel.n_ranks": 2})
        with pytest.raises(SpecError, match="serial"):
            materialize_backend(spec)

    def test_each_backend_name_builds_its_class(self):
        """The driver's table: each of the three names builds its class,
        which receives the section's rank fields."""
        from repro.api.driver import materialize_backend
        from repro.core.engine import ProcessBackend, SerialBackend
        from repro.parallel.cluster import ClusterBackend

        expected = {"serial": SerialBackend, "process": ProcessBackend,
                    "cluster": ClusterBackend}
        for name, cls in expected.items():
            n_ranks = 1 if name == "serial" else 2
            overrides = {"parallel.backend": name, "parallel.n_ranks": n_ranks}
            if name == "cluster":
                overrides["parallel.rendezvous_addr"] = "127.0.0.1:29500"
            backend = materialize_backend(self._spec().with_overrides(overrides))
            assert type(backend) is cls
            assert backend.n_ranks == n_ranks
            if name != "serial":
                assert backend.nu_star_per_rank == 4

    def test_unknown_backend_lists_registered(self):
        """An unknown name is a SpecError naming the field and the three
        backends of the driver's table; thread ranks are no run option."""
        from repro.api import SpecError
        from repro.api.driver import materialize_backend

        for unknown in ("gpu", "threads"):
            spec = self._spec().with_overrides({"parallel.backend": unknown})
            with pytest.raises(SpecError,
                               match=rf"parallel\.backend: .*'{unknown}'") as err:
                materialize_backend(spec)
            for name in ("serial", "process", "cluster"):
                assert name in str(err.value)

    def test_parallel_spec_validation_names_fields(self):
        from repro.api import SpecError

        with pytest.raises(SpecError, match="parallel.n_ranks"):
            self._spec(n_ranks=0)

    def test_old_specs_without_parallel_section_load(self):
        from repro.api import RunSpec

        data = self._spec().to_dict()
        del data["parallel"]
        spec = RunSpec.from_dict(data)
        assert spec.parallel.backend == "serial"
        assert spec.parallel.n_ranks == 1
