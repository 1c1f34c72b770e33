"""Compiled local-energy plans: bit-identity, lookup, threading, backends.

Acceptance contracts of ``ElocPlan``, the one production local-energy path:

* bit-identical local energies vs. the reference ``local_energy_vectorized``
  for all three ansätze, on sample-aware and exact (extended) tables;
* bit-identical at every chunk boundary (``sample_chunk`` / ``group_chunk``
  = 1, odd, > batch) when plan and reference use the same chunking;
* agreement with the scalar ``sa_fuse_lut`` rung of the Fig. 10 bench;
* the one lookup (membership map first, binary search on the survivors) is
  index-identical to searching every key, single- and multi-word;
* the diagonal group (XY mask 0) as one quadratic form over ``z = 1 - 2x``
  against per-term integer parity, and the walk kept for a weight-3 Z
  string; coupled keys hashed from their two operands, in one workspace;
* the FUSE step (each hit's reduced terms one ``add.reduceat`` segment of
  pattern-table gathers) against an integer-parity oracle, the pattern
  table and its multipliers on Python ints, the paper-regime systems
  (Li2O, LiCl), and the refusal of a Hamiltonian with a term-less group;
* one plan per run serves every backend (serial / threads / process) and the
  serving layer: the engine's stage-3 output equals the reference on the
  same ``(chunk, table)``;
* there is no kernel selector: every former spelling of the knob is rejected.
"""
from __future__ import annotations

import itertools
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chem import build_problem
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
    CompressedHamiltonian,
    QubitHamiltonian,
    compress_hamiltonian,
    sector_hamiltonian_dense,
)
from repro.hamiltonian.compressed import reduce_terms
from repro.utils.bitstrings import (
    lexsort_keys,
    pack_bits,
    searchsorted_keys,
    unpack_bits,
)
from tests.conftest import ANSATZE, build_wf
from tests.synthetic import synthetic_molecular_hamiltonian


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


def _hits_of_search(table, keys):
    """``(flat, rows)`` as ``ElocPlan._lookup`` must return them, read off
    ``searchsorted_keys``."""
    idx = searchsorted_keys(table.keys, keys) if len(table.keys) else \
        np.full(len(keys), -1)
    flat = np.flatnonzero(idx >= 0)
    return flat, idx[flat]


def _assert_lookup_is_search(plan, table, keys):
    flat, rows = plan._lookup(plan._table_index(table), keys)
    want_flat, want_rows = _hits_of_search(table, keys)
    np.testing.assert_array_equal(flat, want_flat)
    np.testing.assert_array_equal(rows, want_rows)
    assert flat.dtype == rows.dtype == np.int64


class TestDedup:
    """The lookup: the slot map, with the binary search behind its shared
    slots.  (Class and test ids predate the slot map and the membership map
    before it, both of which replaced a dedup fork; they are kept.)"""

    def test_forced_dedup_is_index_identical(self, lih_problem):
        """``_lookup`` returns the hits of ``searchsorted_keys``, and neither
        a map forced to all shared slots — the plain binary search of every
        key — nor a map of two slots changes a bit of E_loc."""
        wf, comp, batch, table = _setup(lih_problem)
        plan = ElocPlan(comp)
        coupled = (pack_bits(batch.bits)[:, None, :]
                   ^ comp.xy_unique[None, :, :]).reshape(-1, plan.n_words)
        flat, _ = _hits_of_search(table, coupled)
        assert 0 < len(flat) < len(coupled)                   # hits and misses
        _assert_lookup_is_search(plan, table, coupled)
        as_built = plan.local_energy(batch, table)
        index = plan._table_index(table)
        assert (index.slots >= 0).any() and (index.slots == -1).any()

        index.slots[:] = -2                                   # search every key
        _assert_lookup_is_search(plan, table, coupled)
        np.testing.assert_array_equal(plan.local_energy(batch, table), as_built)

        index.slots, index.shift = ElocPlan._slot_map(table.keys, 1)
        assert index.slots.shape == (2,)
        _assert_lookup_is_search(plan, table, coupled)
        np.testing.assert_array_equal(plan.local_energy(batch, table), as_built)
        np.testing.assert_array_equal(
            as_built, local_energy_vectorized(comp, batch, table))

    @pytest.mark.parametrize("n_qubits", [12, 70, 130])           # 1, 2, 3 words
    def test_coupled_keys_hashed_in_place(self, n_qubits):
        """``_lookup(index, keys, xy)`` finds the hits of searching the
        materialized ``keys[s] ^ xy[g]``, at ``s gc + g``, through one
        per-thread workspace of ``b gc`` hashes."""
        rng = np.random.default_rng(n_qubits)
        comp = compress_hamiltonian(synthetic_molecular_hamiltonian(n_qubits, 80, seed=2))
        plan = ElocPlan(comp, group_chunk=5)
        keys = pack_bits(rng.integers(0, 2, size=(9, n_qubits)).astype(np.uint8))
        coupled = (keys[:, None, :] ^ comp.xy_unique[None, :, :]).reshape(-1, plan.n_words)
        table = _mock_table(rng, np.concatenate(
            [keys, coupled[rng.random(len(coupled)) < 0.3]]))
        index = plan._table_index(table)
        for cp in plan.chunks:
            flat, rows = plan._lookup(index, keys, cp.xy)
            want_flat, want_rows = _hits_of_search(
                table, (keys[:, None, :] ^ cp.xy[None, :, :]).reshape(-1, plan.n_words))
            assert 0 < len(flat)
            np.testing.assert_array_equal(flat, want_flat)
            np.testing.assert_array_equal(rows, want_rows)
        assert plan._local.hash_buf.size == len(keys) * plan.group_chunk

    @settings(max_examples=60, deadline=None)
    @given(n_qubits=st.sampled_from((30, 64, 100, 150)),          # 1, 1, 2, 3 words
           n_entries=st.sampled_from((0, 1, 2, 5, 3000)),
           n_queries=st.integers(0, 200), seed=st.integers(0, 2**16))
    def test_lookup_equals_search(self, n_qubits, n_entries, n_queries, seed):
        """Index-identical to ``searchsorted_keys`` for 1- to 3-word keys on
        tables of 0, 1, a few and thousands of entries; the queries mix
        table keys, their one-bit neighbours and random keys."""
        rng = np.random.default_rng(seed)
        rand = lambda k: pack_bits(rng.integers(0, 2, size=(k, n_qubits)).astype(np.uint8))
        table = _mock_table(rng, rand(n_entries)) if n_entries else AmplitudeTable(
            keys=np.zeros((0, (n_qubits + 63) // 64), dtype=np.uint64),
            log_amps=np.zeros(0, dtype=np.complex128))
        queries = [rand(n_queries)]
        if table.n_entries:
            picked = table.keys[rng.integers(0, table.n_entries, size=n_queries)]
            near = picked.copy()
            near[:, 0] ^= np.uint64(1)
            queries += [picked, near]
        keys = np.concatenate(queries)[rng.permutation(sum(map(len, queries)))]
        comp = compress_hamiltonian(synthetic_molecular_hamiltonian(n_qubits, 10, seed=1))
        _assert_lookup_is_search(ElocPlan(comp), table, keys)

    def test_empty_table_raises_every_sample(self, h2_problem):
        wf, comp, batch, table = _setup(h2_problem)
        empty = AmplitudeTable(keys=table.keys[:0], log_amps=table.log_amps[:0])
        with pytest.raises(ValueError, match="every sample"):
            ElocPlan(comp).local_energy(batch, empty)
        with pytest.raises(ValueError, match="every sample"):
            local_energy_vectorized(comp, batch, empty)

    def test_threads_share_one_plan(self, lih_problem):
        """More threads than cores calling one plan on different tables at
        once each get the reference's bits: the table index (with its lazily
        filled ψ) and the workspace are per thread."""
        import sys
        import threading

        wf, comp, batch, table = _setup(lih_problem, seed=1)
        _, _, batch2, table2 = _setup(lih_problem, seed=2)
        ext = extend_amplitude_table(wf, comp, batch, table)
        cases = [(batch, table), (batch2, table2), (batch, ext)] * 2
        want = [local_energy_vectorized(comp, b, t) for b, t in cases]
        plan, results = ElocPlan(comp), []
        start = threading.Barrier(len(cases))

        def worker(k):
            start.wait(timeout=60)
            for _ in range(10):
                b, t = cases[k]
                # a fresh table object every call rebuilds this thread's index
                t = AmplitudeTable(keys=t.keys, log_amps=t.log_amps)
                results.append(np.array_equal(plan.local_energy(b, t), want[k]))

        threads = [threading.Thread(target=worker, args=(k,)) for k in range(len(cases))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert len(results) == 10 * len(cases) and all(results)

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


def _shifted(table, c):
    return AmplitudeTable(keys=table.keys, log_amps=table.log_amps + c)


class TestPsiProduct:
    """E_loc = c + e^{m - log ψ(x)} Σ H_xx' e^{log ψ(x') - m}: the shift by
    the table's largest Re log ψ keeps the form scale-invariant and finite."""

    @pytest.mark.parametrize("c", [-800.0, -50.0, 0.0, 50.0, 800.0])
    @pytest.mark.parametrize("extended", [False, True])
    def test_scale_invariant(self, lih_problem, c, extended):
        wf, comp, batch, table = _setup(lih_problem)
        if extended:
            table = extend_amplitude_table(wf, comp, batch, table)
        want = local_energy_vectorized(comp, batch, table)
        shifted = _shifted(table, c)
        ref = local_energy_vectorized(comp, batch, shifted)
        out = ElocPlan(comp).local_energy(batch, shifted)
        assert np.all(np.isfinite(out))
        np.testing.assert_array_equal(out, ref)
        np.testing.assert_allclose(out, want, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("c", [0.0, 800.0])
    def test_an_underflowing_coupled_row(self, c):
        """One coupled row at log|ψ| = -760 (e^-760 underflows float64)
        while the samples stay O(1): E_loc still equals the dense algebra."""
        comp = compress_hamiltonian(synthetic_molecular_hamiltonian(10, 60, seed=5))
        dense, basis = sector_hamiltonian_dense(comp, 2, 3)
        rng = np.random.default_rng(6)
        table = _mock_table(rng, basis.keys)
        picked = np.arange(0, basis.dim, 2)
        tiny = np.flatnonzero(np.abs(dense[picked, 1::2]).max(axis=0) > 0)[0] * 2 + 1
        table.log_amps[tiny] = -760.0 + 1j * table.log_amps[tiny].imag
        psi = np.exp(table.log_amps)
        batch = SampleBatch(bits=basis.bits()[picked],
                            weights=np.ones(len(picked), dtype=np.int64))
        table = _shifted(table, c)
        ref = local_energy_vectorized(comp, batch, table)
        np.testing.assert_allclose(ref, (dense @ psi)[picked] / psi[picked],
                                   rtol=0, atol=1e-10)
        assert np.array_equal(ElocPlan(comp).local_energy(batch, table), ref)


def _per_term_diagonal(comp, keys):
    """Σ_t c_t (-1)^popcount(x & z_t) over the diagonal group, parity on
    Python ints, and Σ_t |c_t|."""
    terms = range(comp.idxs[0], comp.idxs[1])
    z = [_as_int(comp.yz_buf[t]) for t in terms]
    c = [comp.coeffs_buf[t] for t in terms]
    want = [sum(ct * (-1) ** bin(_as_int(row) & zt).count("1")
                for ct, zt in zip(c, z)) for row in keys]
    return np.array(want), sum(map(abs, c))


class TestDiagonalForm:
    """The diagonal group (XY mask 0) is one quadratic form
    ``c0 + z·a + zᵀUz`` over ``z = 1 - 2x``, compiled when every Z string
    has weight ≤ 2; both kernels add it straight to E_loc and walk only the
    other groups."""

    @pytest.mark.parametrize("name", ["H2", "LiH", "H2O", "N2", "C2"])
    def test_form_equals_per_term_parity(self, name):
        problem = build_problem(name)
        comp = compress_hamiltonian(problem.hamiltonian)
        plan = ElocPlan(comp)
        assert plan.diagonal is not None and not comp.xy_unique[0].any()
        assert plan.chunks[0].g0 == 1
        rng = np.random.default_rng(55)
        bits = np.vstack([problem.hf_bits,
                          rng.integers(0, 2, size=(64, comp.n_qubits))]).astype(np.uint8)
        want, scale = _per_term_diagonal(comp, pack_bits(bits))
        got = plan.diagonal.energy(bits)
        assert got.dtype == np.float64
        assert np.max(np.abs(got - want)) <= 1e-12 * scale

    def test_a_weight_three_z_string_keeps_the_walk(self, lih_problem):
        """LiH plus ``0.03 Z0 Z3 Z5``: no form, group 0 walked like any other
        group, plan == reference bit for bit, and E_loc moves by exactly the
        new term's diagonal value (to rounding)."""
        wf, comp, batch, table = _setup(lih_problem)
        ham = lih_problem.hamiltonian
        z = np.zeros((1, ham.n_words), dtype=np.uint64)
        z[0, 0] = (1 << 0) | (1 << 3) | (1 << 5)
        extra = QubitHamiltonian(
            n_qubits=ham.n_qubits, constant=ham.constant,
            x_masks=np.vstack([ham.x_masks, np.zeros_like(z)]),
            z_masks=np.vstack([ham.z_masks, z]),
            coeffs=np.append(ham.coeffs, 0.03))
        comp3 = compress_hamiltonian(extra)
        plan = ElocPlan(comp3, group_chunk=7)
        assert plan.diagonal is None and plan.chunks[0].g0 == 0
        ext = extend_amplitude_table(wf, comp3, batch, table)
        for tbl in (table, ext):
            got = plan.local_energy(batch, tbl)
            np.testing.assert_array_equal(
                got, local_energy_vectorized(comp3, batch, tbl, group_chunk=7))
            sign = 1.0 - 2.0 * (np.bitwise_count(pack_bits(batch.bits)[:, 0] & z[0, 0]) & 1)
            np.testing.assert_allclose(
                got, ElocPlan(comp).local_energy(batch, tbl) + 0.03 * sign,
                rtol=0, atol=1e-12)

    def test_one_workspace_and_no_flip_buffer(self, lih_problem):
        """Per thread the plan holds its table index and one uint64 hash
        workspace of ``max(N_u, b x gc)`` entries — no coupled-key buffer."""
        wf, comp, batch, table = _setup(lih_problem)
        plan = ElocPlan(comp, group_chunk=64, sample_chunk=16)
        plan.local_energy(batch, table)
        assert set(vars(plan._local)) == {"table_cache", "hash_buf"}
        buf = plan._local.hash_buf
        assert buf.dtype == np.uint64
        assert buf.size == max(batch.n_unique, 16 * 64)


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
        # Recorded here: the process backend's rank 0 (this process) and
        # both thread ranks; the fork's call is its own.
        assert len(stage3_vs_reference) == 3

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


# Qubits a drawn group flips: a few (the pattern-table path, 0 = diagonal)
# or, for None, about half of them (every term its own reduced term).
FLIPS = (0, 1, 2, 3, 4, None)


def _grouped_hamiltonian(rng, n_qubits, groups):
    """A ``CompressedHamiltonian`` with one group per drawn ``(terms,
    flips)`` pair, groups whose XY mask repeats an earlier one dropped.
    ``flips`` is a qubit count, ``None`` (random) or a tuple of qubits.

    A few-qubit flip sits, every other group of a wide key, on the qubits
    either side of the last word boundary.  A group's YZ masks take their
    letters off the flipped qubits from two choices and random letters on
    them, so reduced terms hold several terms."""
    n_words = (n_qubits + 63) // 64
    edge = 64 * ((n_qubits - 1) // 64)
    rand = lambda: rng.integers(0, 2, size=n_qubits).astype(np.uint8)
    blocks = {}                         # XY mask bytes -> (xy, yz rows)
    for g, (n_terms, n_flips) in enumerate(groups):
        if n_flips is None:
            flip = rand()
        elif isinstance(n_flips, tuple):
            flip = np.zeros(n_qubits, dtype=np.uint8)
            flip[list(n_flips)] = 1
        else:
            window = (np.arange(edge - 4, min(edge + 4, n_qubits)) if g % 2 and edge
                      else np.arange(n_qubits))
            flip = np.zeros(n_qubits, dtype=np.uint8)
            flip[rng.choice(window, n_flips, replace=False)] = 1
        off = [rand() & (1 - flip) for _ in range(2)]
        yz = [off[rng.integers(2)] | (rand() & flip) for _ in range(n_terms)]
        blocks.setdefault(flip.tobytes(), (flip, yz))
    xy = pack_bits(np.array([flip for flip, _ in blocks.values()]))
    order = lexsort_keys(xy)
    yz = [list(blocks.values())[g][1] for g in order]
    sizes = [len(rows) for rows in yz]
    return CompressedHamiltonian(
        n_qubits=n_qubits, xy_unique=xy[order],
        idxs=np.concatenate([[0], np.cumsum(sizes)]).astype(np.int64),
        yz_buf=pack_bits(np.concatenate(yz)).reshape(-1, n_words),
        coeffs_buf=rng.normal(size=int(sum(sizes))), constant=0.25)


def _as_int(words):
    """A ``(W,)`` uint64 key as one Python int (word ``w`` at bit ``64 w``)."""
    return sum(int(v) << (64 * w) for w, v in enumerate(words))


def _group_patterns(plan, cp, i):
    """``{subset: pattern}`` of group ``cp.g0 + i`` on Python ints: every
    subset of its pattern qubits (all in one word) and the top 4 bits of
    ``(word >> shift) M`` (mod 2^64), ``word`` the subset's bits in that
    word."""
    mask = _as_int([col[i] for col in cp.patterns])
    shift, mult = int(cp.shifts[i]), int(cp.multipliers[i])
    qubits = [q for q in range(plan.comp.n_qubits) if mask >> q & 1]
    assert len({q // 64 for q in qubits}) <= 1
    assert not qubits or qubits[0] % 64 == shift
    out = {}
    for n in range(len(qubits) + 1):
        for chosen in itertools.combinations(qubits, n):
            s = sum(1 << q for q in chosen)
            word = s >> (64 * (qubits[0] // 64)) if qubits else 0
            out[s] = ((word >> shift) * mult % 2**64) >> 60
    return out


class TestFuse:
    """The FUSE step: each hit's H_xx' is one ``add.reduceat`` segment over
    its group's reduced terms, each a gather from the plan's pattern table."""

    @settings(max_examples=40, deadline=None)
    @given(n_qubits=st.sampled_from((24, 64, 70, 130)),        # 1, 1, 2, 3 words
           groups=st.lists(st.tuples(st.sampled_from((1, 2, 3, 8, 9, 38, 210)),
                                     st.sampled_from(FLIPS)),
                           min_size=1, max_size=12),
           group_chunk=st.sampled_from((1, 3, 512)),
           n_samples=st.integers(1, 6), seed=st.integers(0, 2**16))
    def test_pair_coefficients_equal_integer_parity(self, n_qubits, groups,
                                                    group_chunk, n_samples, seed):
        """Every (sample, group) pair of every chunk against the sum
        Σ_t c_t (-1)^popcount(x & yz_t) with the parity taken on Python
        ints, to 1e-12 of Σ|c_t|."""
        rng = np.random.default_rng(seed)
        comp = _grouped_hamiltonian(rng, n_qubits, groups)
        plan = ElocPlan(comp, group_chunk=group_chunk)
        keys = pack_bits(rng.integers(0, 2, size=(n_samples, n_qubits)).astype(np.uint8))
        yz = [_as_int(row) for row in comp.yz_buf]
        for cp in plan.chunks:
            gc = cp.g1 - cp.g0
            s_hit, g_hit = np.divmod(np.arange(n_samples * gc), gc)
            got = plan._pair_coefficients(keys, s_hit, g_hit, cp)
            assert got.shape == (len(s_hit),) and got.dtype == np.float64
            for p, (s, g) in enumerate(zip(s_hit, g_hit + cp.g0)):
                x = _as_int(keys[s])
                terms = range(comp.idxs[g], comp.idxs[g + 1])
                want = sum(comp.coeffs_buf[t] * (-1) ** bin(x & yz[t]).count("1")
                           for t in terms)
                scale = sum(abs(comp.coeffs_buf[t]) for t in terms)
                assert abs(got[p] - want) <= 1e-12 * scale

    def test_pattern_table_entries_are_integer_parity_sums(self, lih_problem):
        """Entry ``(r, p, 0)`` is the ``add.reduceat`` segment sum (not
        ``add.reduce``: its order differs) of ``c_t (-1)^popcount(s & yz_t)`` over
        reduced term ``r`` — parity on Python ints — for the subset ``s``
        of pattern ``p``; entry ``(r, p, 1)`` is its exact negative.  The
        sign-mask columns are the reduced terms' ``yz & ~pattern``."""
        comp = compress_hamiltonian(lih_problem.hamiltonian)
        plan = ElocPlan(comp, group_chunk=7)
        red = reduce_terms(comp, 0 if plan.diagonal is None else 1)
        table = plan.pattern_table.reshape(red.n_reduced, 16, 2)
        np.testing.assert_array_equal(table[..., 1], -table[..., 0])
        yz = [_as_int(row) for row in comp.yz_buf]
        for w, col in enumerate(plan.sign_cols):
            assert col.flags.c_contiguous
            np.testing.assert_array_equal(col, red.sign_masks[:, w])
        n_checked = 0
        for cp in plan.chunks:
            for i, g in enumerate(range(cp.g0, cp.g1)):
                pattern_mask = _as_int([col[i] for col in cp.patterns])
                for s, p in _group_patterns(plan, cp, i).items():
                    for r in range(red.group_idxs[g], red.group_idxs[g + 1]):
                        terms = red.order[red.idxs[r]:red.idxs[r + 1]]
                        assert len({yz[t] & ~pattern_mask for t in terms}) == 1
                        signed = np.array(
                            [comp.coeffs_buf[t] * (-1) ** bin(s & yz[t]).count("1")
                             for t in terms])
                        assert table[r, p, 0] == np.add.reduceat(signed, [0])[0]
                        n_checked += 1
        assert n_checked >= red.n_reduced

    @pytest.mark.parametrize("name", ["LiH", "N2"])
    def test_the_diagonal_group_compiles_no_reduced_terms(self, name):
        """With the quadratic form, group 0 has no reduced terms, pattern
        rows or sign columns; every other group's reduced terms are the full
        reduction's, term for term."""
        comp = compress_hamiltonian(build_problem(name).hamiltonian)
        plan = ElocPlan(comp)
        assert plan.diagonal is not None
        full, red = reduce_terms(comp), reduce_terms(comp, 1)
        n0 = int(full.group_idxs[1])       # the diagonal group's reduced terms
        assert n0 > 0 and red.group_idxs[1] == 0
        np.testing.assert_array_equal(red.group_idxs[1:], full.group_idxs[1:] - n0)
        np.testing.assert_array_equal(red.idxs, full.idxs[n0:] - full.idxs[n0])
        np.testing.assert_array_equal(red.order, full.order[full.idxs[n0]:])
        np.testing.assert_array_equal(red.sign_masks, full.sign_masks[n0:])
        np.testing.assert_array_equal(red.pattern_masks, full.pattern_masks)
        assert plan.pattern_table.size == red.n_reduced * 32
        assert len(plan.sign_cols[0]) == red.n_reduced

    @pytest.mark.parametrize("name", ["H2", "LiH", "N2", "C2"])
    def test_every_multiplier_is_one_to_one(self, name):
        """Each group's 2^k subsets of its pattern qubits land on 2^k
        distinct patterns (Python-int arithmetic), and the groups of ≤ 4
        flips are exactly the groups with pattern qubits."""
        comp = compress_hamiltonian(build_problem(name).hamiltonian)
        plan = ElocPlan(comp)
        for cp in plan.chunks:
            for i in range(cp.g1 - cp.g0):
                patterns = _group_patterns(plan, cp, i)
                assert len(set(patterns.values())) == len(patterns)
                n_flips = bin(_as_int(cp.xy[i])).count("1")
                assert len(patterns) == (2 ** n_flips if n_flips <= 4 else 1)

    @pytest.mark.parametrize("n_qubits, flips", [
        (130, (63, 127)), (130, (62, 63, 126, 127)), (130, (63, 127, 129)),
        (70, (63, 64)), (64, (57, 59, 60, 63)), (128, (122, 123, 125, 127))],
        ids=lambda v: ",".join(map(str, v)) if isinstance(v, tuple) else f"{v}q")
    def test_flips_a_raw_multiply_shift_cannot_separate(self, n_qubits, flips):
        """Qubits high in different words (63 and 127 each add 2^63 under
        any multipliers that keep them apart from the empty subset) and
        tight clusters at the top of one word (no ``M`` makes
        ``(x & mask) M >> 60`` one-to-one on 57, 59, 60, 63): a group that
        straddles words has no pattern qubits, a one-word one is shifted to
        bit 0 before the multiply.  The plan compiles, every multiplier is
        one-to-one, and plan == reference on every occupation of the
        flipped qubits."""
        rng = np.random.default_rng(63)
        pair = (flips[0], flips[-1])
        comp = _grouped_hamiltonian(
            rng, n_qubits, [(9, flips), (9, pair), (3, 0), (8, None)])
        plan = ElocPlan(comp, group_chunk=3)
        for cp in plan.chunks:
            for i in range(cp.g1 - cp.g0):
                xy = _as_int(cp.xy[i])
                words = {q // 64 for q in range(n_qubits) if xy >> q & 1}
                patterns = _group_patterns(plan, cp, i)
                assert len(set(patterns.values())) == len(patterns)
                if len(words) > 1:
                    assert patterns == {0: patterns[0]}
        occupations = np.array(list(itertools.product((0, 1), repeat=len(flips))))
        bits = np.repeat(rng.integers(0, 2, size=(1, n_qubits)), len(occupations), 0)
        bits[:, list(flips)] = occupations
        keys = pack_bits(bits.astype(np.uint8))
        coupled = (keys[:, None, :] ^ comp.xy_unique[None]).reshape(-1, keys.shape[1])
        table = _mock_table(rng, np.concatenate([keys, coupled]))
        batch = SampleBatch(bits=unpack_bits(np.unique(keys, axis=0), n_qubits),
                            weights=np.ones(len(occupations), dtype=np.int64))
        assert np.array_equal(plan.local_energy(batch, table),
                              local_energy_vectorized(comp, batch, table,
                                                      group_chunk=3))

    def test_every_shifted_mask_has_a_multiplier(self):
        """The search resolves all 41 729 masks a group can present — the
        empty one and every set of 1-4 bits that holds bit 0 — at once, each
        to a one-to-one multiplier."""
        masks = [0] + [1 | sum(1 << b for b in rest) for k in range(4)
                       for rest in itertools.combinations(range(1, 64), k)]
        masks = np.array(masks, dtype=np.uint64)
        subsets = ElocPlan._pattern_subsets(masks)
        multipliers = ElocPlan._pattern_multipliers(subsets)
        patterns = ElocPlan._pattern(subsets, multipliers[:, None])
        distinct = (np.diff(np.sort(patterns, axis=1), axis=1) != 0).sum(axis=1) + 1
        assert len(masks) == 41_729
        np.testing.assert_array_equal(distinct, 2 ** np.bitwise_count(masks).astype(int))

    def test_lih_has_segments_where_the_summation_order_shows(self, lih_problem):
        """``reduceat`` and a left-to-right sum part ways from 3-term
        segments up: the bit-identity fixtures must hold a reduced term of
        ≥ 3 terms (the inner sum) and a group of ≥ 3 reduced terms (the
        outer one), or a kernel that summed either level in another order —
        one flat segment per hit, or a ``bincount`` — would pass them."""
        red = reduce_terms(compress_hamiltonian(lih_problem.hamiltonian))
        assert np.diff(red.idxs).max() >= 3
        assert np.diff(red.group_idxs).max() >= 3

    @pytest.mark.parametrize("empty_group", [0, 2])
    def test_a_group_without_terms_is_refused(self, empty_group):
        """``reduceat`` answers an empty segment with the next segment's
        first term: both kernels refuse such a Hamiltonian, naming the group."""
        rng = np.random.default_rng(7)
        comp = _grouped_hamiltonian(rng, 12, [(2, None), (3, None), (1, None), (4, None)])
        assert comp.n_groups == 4
        sizes = np.diff(comp.idxs)
        sizes[empty_group] = 0
        comp.idxs = np.concatenate([[0], np.cumsum(sizes)]).astype(np.int64)
        comp.yz_buf = comp.yz_buf[:comp.idxs[-1]]
        comp.coeffs_buf = comp.coeffs_buf[:comp.idxs[-1]]
        bits = rng.integers(0, 2, size=(3, 12)).astype(np.uint8)
        batch = SampleBatch(bits=np.unique(bits, axis=0),
                            weights=np.ones(len(np.unique(bits, axis=0)), dtype=np.int64))
        table = _mock_table(rng, pack_bits(batch.bits))
        match = f"group {empty_group} has no terms"
        with pytest.raises(ValueError, match=match):
            ElocPlan(comp)
        with pytest.raises(ValueError, match=match):
            local_energy_vectorized(comp, batch, table)


class TestPaperRegime:
    """The 28-30-qubit Table 1 systems (STO-3G; ROADMAP item 7), where 98 %
    of the groups are double excitations: reduced-term counts, the double
    excitations folded to one reduced term each, a bounded compile, and
    plan == reference on an in-sector batch."""

    # name -> (terms, reduced terms) of build_problem's screened operator
    # (raw: Li2O 15 961 / 4 658, LiCl 24 278 / 7 057)
    COUNTS = {"Li2O": (13_865, 4_214), "LiCl": (24_125, 7_023)}
    # Each compile measured 0.05-0.08 s on a shared 2-core host; the bound
    # leaves >10x for slower CI machines.
    COMPILE_BOUND_S = 1.0

    @pytest.mark.parametrize("name", sorted(COUNTS))
    def test_reduced_terms_compile_and_bit_identity(self, name):
        problem = build_problem(name)
        comp = compress_hamiltonian(problem.hamiltonian)
        red = reduce_terms(comp)
        assert (comp.n_terms, red.n_reduced) == self.COUNTS[name]
        n_flips = np.bitwise_count(comp.xy_unique).sum(axis=1)
        assert np.mean(n_flips == 4) > 0.98
        assert np.all(np.diff(red.group_idxs)[n_flips == 4] == 1)

        t0 = time.perf_counter()
        plan = ElocPlan(comp)
        assert time.perf_counter() - t0 < self.COMPILE_BOUND_S

        # In-sector configurations (alpha on even qubits, beta on odd), and a
        # table of them plus half of their sector-valid coupled keys.
        rng = np.random.default_rng(38)
        n, n_dn = problem.n_qubits, problem.n_electrons // 2
        n_up = problem.n_electrons - n_dn
        bits = np.zeros((48, n), dtype=np.uint8)
        for row in bits:
            row[2 * rng.choice(n // 2, n_up, replace=False)] = 1
            row[2 * rng.choice(n // 2, n_dn, replace=False) + 1] = 1
        bits = np.unique(np.vstack([problem.hf_bits, bits]), axis=0)
        keys = pack_bits(bits)
        coupled = (keys[:, None, :] ^ comp.xy_unique[None, :, :]).reshape(-1, 1)
        alpha = np.uint64(int("01" * 32, 2))         # the even qubits
        in_sector = ((np.bitwise_count(coupled[:, 0] & alpha) == n_up)
                     & (np.bitwise_count(coupled[:, 0] & ~alpha) == n_dn))
        coupled = coupled[in_sector & (rng.random(len(coupled)) < 0.5)]
        table = _mock_table(rng, np.concatenate([keys, coupled]))
        batch = SampleBatch(bits=bits, weights=np.ones(len(bits), dtype=np.int64))
        assert np.array_equal(plan.local_energy(batch, table),
                              local_energy_vectorized(comp, batch, table))

