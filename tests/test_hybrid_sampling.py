"""Tests for independent-stream batch sampling (Sec. 4.4 outlook).

``merge_batches`` / ``merged_batch_sample`` live in
``benchmarks/bench_ablations.py`` (their only user) and are loaded through
the ``ablations`` fixture of ``tests/conftest.py``.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chem import build_problem
from repro.core import (
    SampleBatch,
    batch_autoregressive_sample,
    build_qiankunnet,
    pretrain_to_reference,
)


@pytest.fixture(scope="module")
def wf4():
    prob = build_problem("H2", "sto-3g", r=0.7414)
    wf = build_qiankunnet(prob.n_qubits, prob.n_up, prob.n_dn, d_model=8,
                          n_heads=2, n_layers=1, phase_hidden=(16,), seed=2)
    pretrain_to_reference(wf, prob.hf_bits, n_steps=60)
    return wf


class TestMergeBatches:
    def test_weights_conserved(self, ablations):
        a = SampleBatch(bits=np.array([[1, 0], [0, 1]], dtype=np.uint8),
                        weights=np.array([5, 3], dtype=np.int64))
        b = SampleBatch(bits=np.array([[0, 1], [1, 1]], dtype=np.uint8),
                        weights=np.array([2, 7], dtype=np.int64))
        merged = ablations.merge_batches([a, b], n_qubits=2)
        assert merged.n_samples == 17
        assert merged.n_unique == 3

    def test_duplicate_rows_summed(self, ablations):
        a = SampleBatch(bits=np.array([[1, 0]], dtype=np.uint8),
                        weights=np.array([5], dtype=np.int64))
        merged = ablations.merge_batches([a, a, a], n_qubits=2)
        assert merged.n_unique == 1
        assert merged.weights[0] == 15

    def test_empty_list_raises(self, ablations):
        with pytest.raises(ValueError):
            ablations.merge_batches([], n_qubits=2)

    def test_single_batch_roundtrip(self, ablations):
        a = SampleBatch(bits=np.array([[1, 0, 1, 0], [0, 1, 0, 1]], dtype=np.uint8),
                        weights=np.array([4, 9], dtype=np.int64))
        merged = ablations.merge_batches([a], n_qubits=4)
        assert merged.n_samples == a.n_samples
        assert merged.n_unique == a.n_unique

    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(min_value=1, max_value=4),   # batches
        st.integers(min_value=1, max_value=6),   # rows per batch
        st.integers(min_value=2, max_value=70),  # qubit count (spans 2 words)
        st.integers(min_value=0, max_value=10**6),
    )
    def test_property_weight_and_support_conservation(self, ablations, nb, rows, n, seed):
        rng = np.random.default_rng(seed)
        batches = []
        for _ in range(nb):
            bits = rng.integers(0, 2, size=(rows, n)).astype(np.uint8)
            w = rng.integers(1, 100, size=rows).astype(np.int64)
            batches.append(SampleBatch(bits=bits, weights=w))
        merged = ablations.merge_batches(batches, n_qubits=n)
        assert merged.n_samples == sum(b.n_samples for b in batches)
        # Every merged row appears in some input and vice versa.
        in_rows = {tuple(r) for b in batches for r in b.bits}
        out_rows = {tuple(r) for r in merged.bits}
        assert out_rows == in_rows
        # Merged rows are unique.
        assert len(out_rows) == merged.n_unique


class TestMergedBatchSample:
    def test_budget_split_exact(self, ablations, wf4):
        rng = np.random.default_rng(0)
        merged, stats = ablations.merged_batch_sample(wf4, 10**5 + 3, rng, n_streams=4)
        assert merged.n_samples == 10**5 + 3
        assert stats.n_streams == 4

    def test_single_stream_is_plain_bas(self, ablations, wf4):
        rng = np.random.default_rng(1)
        merged, stats = ablations.merged_batch_sample(wf4, 5000, rng, n_streams=1)
        assert stats.n_streams == 1
        assert stats.overlap_fraction == 0.0
        assert merged.n_samples == 5000

    def test_streams_respect_sector(self, ablations, wf4):
        rng = np.random.default_rng(2)
        merged, _ = ablations.merged_batch_sample(wf4, 10**4, rng, n_streams=3)
        assert np.all(merged.bits[:, 0::2].sum(axis=1) == 1)
        assert np.all(merged.bits[:, 1::2].sum(axis=1) == 1)

    def test_distribution_agrees_with_single_run(self, ablations, wf4):
        """Merged-stream frequencies match a single big BAS run within noise."""
        rng = np.random.default_rng(3)
        merged, _ = ablations.merged_batch_sample(wf4, 2 * 10**5, rng, n_streams=4)
        single = batch_autoregressive_sample(wf4, 2 * 10**5, np.random.default_rng(99))

        def freq_map(batch):
            return {tuple(r): w / batch.n_samples
                    for r, w in zip(batch.bits, batch.weights)}

        fm, fs = freq_map(merged), freq_map(single)
        for key in set(fm) | set(fs):
            assert fm.get(key, 0.0) == pytest.approx(fs.get(key, 0.0), abs=2e-2)

    def test_zero_streams_rejected(self, ablations, wf4):
        with pytest.raises(ValueError):
            ablations.merged_batch_sample(wf4, 100, np.random.default_rng(0), n_streams=0)

    def test_overlap_statistics(self, ablations, wf4):
        rng = np.random.default_rng(4)
        _, stats = ablations.merged_batch_sample(wf4, 10**5, rng, n_streams=4)
        # On a 4-qubit sector every stream sees the same few states: overlap ~ 3/4.
        assert stats.overlap_fraction > 0.5
        assert len(stats.uniques_per_stream) == 4
