"""Compiled local-energy plans: bit-identity, lookup, threading, backends.

Acceptance contracts of ``ElocPlan``, the one production local-energy path:

* bit-identical local energies vs. the reference ``local_energy_vectorized``
  for all three ansätze, on sample-aware and exact (extended) tables;
* bit-identical at every chunk boundary (``sample_chunk`` / ``group_chunk``
  = 1, odd, > batch) when plan and reference use the same chunking;
* agreement with the scalar ``sa_fuse_lut`` rung of the Fig. 10 bench;
* the one lookup (membership map first, binary search on the survivors) is
  index-identical to searching every key, single- and multi-word;
* one plan per run serves every backend (serial / threads / process) and the
  serving layer: the engine's stage-3 output equals the reference on the
  same ``(chunk, table)``;
* there is no kernel selector: every former spelling of the knob is rejected.
"""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    ElocPlan,
    SampleBatch,
    VMC,
    VMCConfig,
    build_amplitude_table,
    build_qiankunnet,
    compile_eloc_plan,
    extend_amplitude_table,
    local_energy,
    local_energy_planned,
    local_energy_vectorized,
)
from repro.core.engine import NoamAdamW, ProcessBackend, ThreadBackend
from repro.core.local_energy import AmplitudeTable
from repro.core.sampler import batch_autoregressive_sample
from repro.hamiltonian import (
    compress_hamiltonian,
    sector_hamiltonian_dense,
    synthetic_molecular_hamiltonian,
)
from repro.utils.bitstrings import (
    lexsort_keys,
    pack_bits,
    searchsorted_keys,
    unpack_bits,
)
from tests.conftest import ANSATZE, build_wf


def _setup(problem, amplitude_type="transformer", n_samples=2000, seed=11):
    wf = build_wf(amplitude_type, problem.n_qubits, problem.n_up, problem.n_dn,
                  d_model=8, n_heads=2, n_layers=1, phase_hidden=(8,), seed=seed)
    batch = batch_autoregressive_sample(wf, n_samples,
                                        np.random.default_rng(seed))
    comp = compress_hamiltonian(problem.hamiltonian)
    table = build_amplitude_table(wf, batch)
    return wf, comp, batch, table


def _mock_table(rng, keys):
    """Lexsorted table over the unique rows of ``keys`` with random amplitudes."""
    keys = np.unique(keys, axis=0)
    keys = keys[lexsort_keys(keys)]
    log_amps = (rng.normal(scale=0.5, size=len(keys))
                + 1j * rng.uniform(0, 2 * np.pi, len(keys)))
    return AmplitudeTable(keys=keys, log_amps=log_amps)


class TestBitIdentity:
    @pytest.mark.parametrize("amplitude_type", ANSATZE)
    def test_matches_vectorized_sample_aware(self, lih_problem, amplitude_type):
        wf, comp, batch, table = _setup(lih_problem, amplitude_type)
        ref = local_energy_vectorized(comp, batch, table)
        out = local_energy_planned(comp, batch, table, plan=ElocPlan(comp))
        np.testing.assert_array_equal(out, ref)

    @pytest.mark.parametrize("amplitude_type", ANSATZE)
    def test_matches_vectorized_exact_table(self, h2_problem, amplitude_type):
        wf, comp, batch, table = _setup(h2_problem, amplitude_type)
        ext = extend_amplitude_table(wf, comp, batch, table)
        ref = local_energy_vectorized(comp, batch, ext)
        out = ElocPlan(comp).local_energy(batch, ext)
        np.testing.assert_array_equal(out, ref)

    @pytest.mark.parametrize("amplitude_type", ANSATZE)
    def test_agrees_with_scalar_lut_ladder(self, h2_problem, amplitude_type,
                                           fig10):
        wf, comp, batch, table = _setup(h2_problem, amplitude_type)
        scalar = fig10.local_energy_sa_fuse_lut(comp, batch, table)
        planned = ElocPlan(comp).local_energy(batch, table)
        np.testing.assert_allclose(planned, scalar, atol=1e-10)

    @pytest.mark.parametrize("group_chunk,sample_chunk", [
        (1, 1), (3, 5), (1, 4096), (512, 1), (7, 3), (10**6, 10**6),
    ])
    def test_chunk_boundaries(self, lih_problem, group_chunk, sample_chunk):
        """Equal chunking => bit-equal results, at every boundary shape
        (1, odd, and far beyond the batch/group counts)."""
        wf, comp, batch, table = _setup(lih_problem)
        ref = local_energy_vectorized(comp, batch, table,
                                      group_chunk=group_chunk,
                                      sample_chunk=sample_chunk)
        plan = ElocPlan(comp, group_chunk=group_chunk,
                        sample_chunk=sample_chunk)
        out = local_energy_planned(comp, batch, table, plan=plan)
        np.testing.assert_array_equal(out, ref)

    def test_memory_budget_matches_vectorized(self, lih_problem):
        wf, comp, batch, table = _setup(lih_problem)
        ref = local_energy_vectorized(comp, batch, table,
                                      memory_budget_bytes=4096)
        plan = ElocPlan(comp, memory_budget_bytes=4096)
        np.testing.assert_array_equal(plan.local_energy(batch, table), ref)

    def test_plan_reused_across_tables(self, lih_problem):
        """One plan, many iterations: a fresh table (moved parameters) must
        invalidate the cached record view, never reuse the old one."""
        wf, comp, batch, table = _setup(lih_problem, seed=1)
        wf2, _, batch2, table2 = _setup(lih_problem, seed=2)
        plan = ElocPlan(comp)
        np.testing.assert_array_equal(
            plan.local_energy(batch, table),
            local_energy_vectorized(comp, batch, table))
        np.testing.assert_array_equal(
            plan.local_energy(batch2, table2),
            local_energy_vectorized(comp, batch2, table2))
        # ... and going back to the first table still answers correctly.
        np.testing.assert_array_equal(
            plan.local_energy(batch, table),
            local_energy_vectorized(comp, batch, table))


class TestDedup:
    """The lookup.  (Class and test ids predate the membership map that
    replaced the dedup fork; they are kept.)"""

    def test_forced_dedup_is_index_identical(self, lih_problem):
        """The map only spares absent keys the search: ``_lookup`` returns
        the indices of ``searchsorted_keys``, and a map forced to pass every
        key — the plain search of all of them — must not change a bit."""
        wf, comp, batch, table = _setup(lih_problem)
        plan = ElocPlan(comp)
        coupled = (pack_bits(batch.bits)[:, None, :]
                   ^ comp.xy_unique[None, :, :]).reshape(-1, plan.n_words)
        want = searchsorted_keys(table.keys, coupled)
        assert 0 < np.count_nonzero(want >= 0) < len(want)   # hits and misses
        np.testing.assert_array_equal(plan._lookup(table, coupled), want)
        filtered = plan.local_energy(batch, table)
        _, member, _ = plan._table_records(table)
        assert not member.all()
        member[:] = True
        np.testing.assert_array_equal(plan._lookup(table, coupled), want)
        np.testing.assert_array_equal(plan.local_energy(batch, table), filtered)

    @pytest.mark.parametrize("n_qubits,n_terms", [(70, 300), (100, 500)])
    def test_multiword_dedup(self, n_qubits, n_terms):
        """Two-word keys go through the folded hash and the record-dtype
        searchsorted."""
        ham = synthetic_molecular_hamiltonian(n_qubits, n_terms, seed=3)
        comp = compress_hamiltonian(ham)
        rng = np.random.default_rng(4)
        bits = np.unique(
            rng.integers(0, 2, size=(24, n_qubits)).astype(np.uint8), axis=0
        )
        batch = SampleBatch(bits=bits, weights=np.ones(len(bits), dtype=np.int64))
        table = _mock_table(rng, pack_bits(bits))
        ref = local_energy_vectorized(comp, batch, table)
        plan = ElocPlan(comp, group_chunk=7, sample_chunk=5)
        ref_chunked = local_energy_vectorized(comp, batch, table,
                                              group_chunk=7, sample_chunk=5)
        np.testing.assert_array_equal(plan.local_energy(batch, table),
                                      ref_chunked)
        np.testing.assert_allclose(ref_chunked, ref, atol=1e-12)


class TestPlanLifecycle:
    def test_compile_eloc_plan_spelling(self, h2_problem):
        comp = compress_hamiltonian(h2_problem.hamiltonian)
        plan = compile_eloc_plan(comp, group_chunk=3, sample_chunk=9,
                                 memory_budget_bytes=1 << 20)
        assert (plan.group_chunk, plan.sample_chunk) == (3, 9)
        assert plan.comp is comp

    def test_wrong_hamiltonian_rejected(self, h2_problem, lih_problem):
        wf, comp, batch, table = _setup(h2_problem)
        other = compress_hamiltonian(lih_problem.hamiltonian)
        with pytest.raises(ValueError, match="different CompressedHamiltonian"):
            local_energy_planned(comp, batch, table, plan=ElocPlan(other))

    def test_word_count_mismatch_rejected(self, h2_problem):
        wf, comp, batch, table = _setup(h2_problem)
        ham = synthetic_molecular_hamiltonian(70, 50, seed=2)
        plan = ElocPlan(compress_hamiltonian(ham))
        with pytest.raises(ValueError, match="words"):
            plan.local_energy(batch, table)

    def test_invalid_chunking_rejected(self, h2_problem):
        comp = compress_hamiltonian(h2_problem.hamiltonian)
        with pytest.raises(ValueError, match="group_chunk"):
            ElocPlan(comp, group_chunk=0)
        with pytest.raises(ValueError, match="sample_chunk"):
            ElocPlan(comp, sample_chunk=-1)

    def test_missing_sample_raises(self, h2_problem):
        wf, comp, batch, table = _setup(h2_problem)
        short = AmplitudeTable(keys=table.keys[:1], log_amps=table.log_amps[:1])
        with pytest.raises(ValueError, match="every sample"):
            ElocPlan(comp).local_energy(batch, short)

    def test_empty_batch(self):
        ham = synthetic_molecular_hamiltonian(70, 50, seed=2)
        comp = compress_hamiltonian(ham)
        batch = SampleBatch(bits=np.zeros((0, 70), dtype=np.uint8),
                            weights=np.zeros(0, dtype=np.int64))
        table = AmplitudeTable(keys=np.zeros((0, 2), dtype=np.uint64),
                               log_amps=np.zeros(0, dtype=np.complex128))
        assert ElocPlan(comp).local_energy(batch, table).shape == (0,)

    def test_high_level_plan_implies_planned_kernel(self, h2_problem):
        """With or without a caller's plan, ``local_energy`` runs a plan."""
        wf, comp, batch, table = _setup(h2_problem)
        plan = ElocPlan(comp)
        e_plain, t_plain = local_energy(wf, comp, batch, mode="exact")
        e_plan, t_plan = local_energy(wf, comp, batch, mode="exact", plan=plan)
        np.testing.assert_array_equal(e_plan, e_plain)
        np.testing.assert_array_equal(t_plan.keys, t_plain.keys)


class TestKernelRegistry:
    """There is no registry any more: the ids below used to exercise kernel
    selection by name and now pin that every spelling of it is gone."""

    def test_resolve_builtin_names(self):
        from importlib import import_module

        import repro.api

        # ``repro.core`` re-exports a function named like the module.
        module = import_module("repro.core.local_energy")

        for gone in ("resolve_batch_kernel", "BATCH_ELOC_KERNELS"):
            assert not hasattr(module, gone)
        for gone in ("ELOC_KERNELS", "register_eloc_kernel"):
            assert not hasattr(repro.api, gone)
        assert callable(module.local_energy_planned)
        assert callable(module.local_energy_vectorized)

    def test_unknown_name_lists_options(self, h2_problem):
        wf, comp, batch, table = _setup(h2_problem)
        with pytest.raises(TypeError, match="kernel"):
            local_energy(wf, comp, batch, table=table, kernel="warp-drive")

    @pytest.mark.parametrize("name", ["exact", "sample_aware", "baseline",
                                      "sa_fuse", "sa_fuse_lut"])
    def test_non_batch_kernels_rejected_up_front(self, name):
        """No config accepts a kernel name — not even a formerly valid one."""
        from repro.core.trainer import TrainConfig

        with pytest.raises(TypeError, match="eloc_kernel"):
            VMCConfig(eloc_kernel=name)
        with pytest.raises(TypeError, match="eloc_kernel"):
            TrainConfig(eloc_kernel=name)

    def test_vmcconfig_validates_kernel_field(self):
        with pytest.raises(TypeError, match="eloc_kernel"):
            VMCConfig(eloc_kernel="planned")
        assert not hasattr(VMCConfig(), "eloc_kernel")

    def test_high_level_kernel_by_name(self, h2_problem):
        """``local_energy`` without a plan compiles one — it runs production,
        not the reference — and the chunking knobs live on the plan alone."""
        wf, comp, batch, table = _setup(h2_problem)
        e_ref = local_energy_vectorized(comp, batch, table)
        e_default, _ = local_energy(wf, comp, batch, mode="sample_aware",
                                    table=table)
        np.testing.assert_array_equal(e_default, e_ref)
        for knob in ("group_chunk", "sample_chunk"):
            with pytest.raises(TypeError, match=knob):
                local_energy(wf, comp, batch, table=table, **{knob: 3})
            with pytest.raises(TypeError, match=knob):
                local_energy_planned(comp, batch, table, **{knob: 3})


def _fresh_vmc(problem, backend=None, **cfg):
    wf = build_qiankunnet(problem.n_qubits, problem.n_up, problem.n_dn,
                          d_model=8, n_heads=2, n_layers=1, phase_hidden=(8,),
                          seed=7)
    defaults = dict(n_samples=800, eloc_mode="exact", seed=3)
    defaults.update(cfg)
    return VMC(wf, problem.hamiltonian, VMCConfig(**defaults), backend=backend,
               optimizer=NoamAdamW(wf, warmup=50))


class TestEngineIntegration:
    def test_vmc_compiles_one_plan(self, h2_problem):
        vmc = _fresh_vmc(h2_problem, eloc_memory_budget_mb=3)
        assert isinstance(vmc.eloc_plan, ElocPlan)
        assert vmc.eloc_plan.comp is vmc.comp
        assert vmc.eloc_plan.memory_budget_bytes == 3 * 2**20
        # The chunking is the plan's own: a run sets the plan, not the config.
        vmc.eloc_plan = ElocPlan(vmc.comp, sample_chunk=33, group_chunk=11)
        assert np.isfinite(vmc.step().energy)

    @pytest.mark.parametrize("backend_factory", [
        lambda: None,
        lambda: ThreadBackend(n_ranks=2, nu_star_per_rank=4),
    ])
    def test_planned_trajectory_matches_vectorized(self, h2_problem,
                                                   backend_factory,
                                                   stage3_vs_reference):
        """Every stage-3 call of a trajectory equals the reference kernel on
        the same ``(chunk, table)``, on the serial and thread-rank backends."""
        vmc = _fresh_vmc(h2_problem, backend=backend_factory())
        for _ in range(3):
            vmc.step()
        n_ranks = getattr(vmc.backend, "n_ranks", 1)
        assert len(stage3_vs_reference) == 3 * n_ranks
        assert sum(stage3_vs_reference) == sum(s.n_unique for s in vmc.history)

    @pytest.mark.slow
    def test_process_backend_matches_thread_backend(self, h2_problem,
                                                    stage3_vs_reference):
        """Forked ranks run the same plan (and inherit the reference check)."""
        a = _fresh_vmc(h2_problem, backend=ProcessBackend(
            n_ranks=2, nu_star_per_rank=4))
        b = _fresh_vmc(h2_problem, backend=ThreadBackend(
            n_ranks=2, nu_star_per_rank=4))
        sa, sb = a.step(), b.step()
        assert sa.energy == sb.energy
        assert sa.variance == sb.variance
        assert len(stage3_vs_reference) == 2   # the thread ranks' calls

    def test_unknown_kernel_fails_at_construction(self, h2_problem):
        """A kernel name fails before any sampling happens, whatever it is."""
        for name in ("warp-drive", "sa_fuse_lut", "vectorized", "planned"):
            with pytest.raises(TypeError, match="eloc_kernel"):
                _fresh_vmc(h2_problem, eloc_kernel=name)


class TestServeIntegration:
    def test_service_uses_per_version_plan(self, lih_problem):
        from repro.serve import ServeConfig, WavefunctionService

        wf, comp, batch, table = _setup(lih_problem)
        with WavefunctionService(
            wf, hamiltonian=lih_problem.hamiltonian,
            config=ServeConfig(max_wait_ms=1.0),
        ) as svc:
            served = svc.local_energy(batch, mode="exact")
            stats = svc.stats()["versions"][0]
            assert stats["eloc_plan_compiled"]
        direct, _ = local_energy(wf, compress_hamiltonian(
            lih_problem.hamiltonian), batch, mode="exact")
        np.testing.assert_allclose(served, direct, atol=1e-10)


CHUNKS = st.sampled_from((1, 3, 7, 10**6))      # 1 / odd / > batch


class TestDifferential:
    """Production against the reference on synthetic Hamiltonians, and the
    reference against dense algebra — so neither is anchored to a kernel."""

    @settings(max_examples=40, deadline=None)
    @given(n_qubits=st.sampled_from((24, 64, 70, 128, 130)),   # 1, 2, 3 words
           n_terms=st.integers(10, 60), n_samples=st.integers(1, 16),
           group_chunk=CHUNKS, sample_chunk=CHUNKS,
           budget=st.sampled_from((None, 4096)),
           extended=st.booleans(), padding=st.sampled_from((0, 37, 4300)),
           seed=st.integers(0, 2**16))
    def test_plan_equals_reference(self, n_qubits, n_terms, n_samples,
                                   group_chunk, sample_chunk, budget,
                                   extended, padding, seed):
        comp = compress_hamiltonian(
            synthetic_molecular_hamiltonian(n_qubits, n_terms, seed=seed))
        rng = np.random.default_rng(seed + 1)
        # A concentrated batch — one configuration flipped by subsets of four
        # group masks — so samples couple to each other, as sampled ones do.
        base = pack_bits(rng.integers(0, 2, size=(1, n_qubits)).astype(np.uint8))
        pool = comp.xy_unique[rng.integers(0, comp.n_groups, size=4)]
        chosen = rng.integers(0, 2, size=(n_samples, 4, 1)).astype(bool)
        keys = np.unique(
            base ^ np.bitwise_xor.reduce(np.where(chosen, pool, 0), axis=1), axis=0)
        batch = SampleBatch(bits=unpack_bits(keys, n_qubits),
                            weights=np.ones(len(keys), dtype=np.int64))
        rows = [keys]
        if extended:    # about half of all coupled configurations: hits and misses
            coupled = (keys[:, None, :] ^ comp.xy_unique[None, :, :]).reshape(
                -1, keys.shape[1])
            rows.append(coupled[rng.random(len(coupled)) < 0.5])
        # Unrelated table entries: the membership map's size follows the
        # table's, from a handful of slots to ~2^18.
        rows.append(pack_bits(rng.integers(
            0, 2, size=(padding, n_qubits)).astype(np.uint8)))
        table = _mock_table(rng, np.concatenate(rows))

        plan = ElocPlan(comp, group_chunk=group_chunk,
                        sample_chunk=sample_chunk, memory_budget_bytes=budget)
        ref = local_energy_vectorized(
            comp, batch, table, group_chunk=group_chunk,
            sample_chunk=sample_chunk, memory_budget_bytes=budget)
        assert np.array_equal(plan.local_energy(batch, table), ref)

    @settings(max_examples=25, deadline=None)
    @given(n_orb=st.integers(3, 6), up=st.integers(0, 6), dn=st.integers(0, 6),
           n_terms=st.integers(10, 60), seed=st.integers(0, 2**16))
    def test_reference_equals_dense_algebra(self, n_orb, up, dn, n_terms, seed):
        """E_loc(x) = <x|H|Psi> / Psi(x) from the dense sector matrix, with
        the whole sector tabulated (single-word keys, <= 12 qubits)."""
        n_up, n_dn = min(up, n_orb), min(dn, n_orb)
        comp = compress_hamiltonian(
            synthetic_molecular_hamiltonian(2 * n_orb, n_terms, seed=seed))
        dense, basis = sector_hamiltonian_dense(comp, n_up, n_dn)
        rng = np.random.default_rng(seed + 1)
        table = _mock_table(rng, basis.keys)
        np.testing.assert_array_equal(table.keys, basis.keys)
        psi = np.exp(table.log_amps)
        picked = np.flatnonzero(rng.random(basis.dim) < 0.5)
        if len(picked) == 0:
            picked = np.array([0])
        batch = SampleBatch(bits=basis.bits()[picked],
                            weights=np.ones(len(picked), dtype=np.int64))

        ref = local_energy_vectorized(comp, batch, table)
        np.testing.assert_allclose(ref, (dense @ psi)[picked] / psi[picked],
                                   rtol=0, atol=1e-10)
        assert np.array_equal(ElocPlan(comp).local_energy(batch, table), ref)
