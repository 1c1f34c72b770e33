"""Local-energy engines: cross-agreement and exactness against dense algebra."""
import numpy as np
import pytest

from repro.core import (
    SampleBatch,
    build_amplitude_table,
    build_qiankunnet,
    extend_amplitude_table,
    local_energy,
    local_energy_vectorized,
)
from repro.hamiltonian import build_reference, compress_hamiltonian, sector_hamiltonian_dense
from repro.utils.bitstrings import pack_bits, searchsorted_keys
from tests.test_wavefunction import sector_bitstrings


@pytest.fixture(scope="module")
def setup_h2(h2_problem):
    wf = build_qiankunnet(4, 1, 1, d_model=8, n_heads=2, n_layers=1,
                          phase_hidden=(16,), seed=21)
    comp = compress_hamiltonian(h2_problem.hamiltonian)
    bits = sector_bitstrings(4, 1, 1)  # the full sector: 4 states
    batch = SampleBatch(bits=bits, weights=np.ones(len(bits), dtype=np.int64))
    table = build_amplitude_table(wf, batch)
    return wf, comp, batch, table


def dense_local_energy(comp, wf, bits, n_up, n_dn):
    """Reference: E_loc(x) = <x|H|Psi> / Psi(x) from the dense sector matrix."""
    Hs, basis = sector_hamiltonian_dense(comp, n_up, n_dn)
    sector_bits = basis.bits()
    psi = wf.amplitudes(sector_bits)
    keys = basis.keys
    out = []
    for b in bits:
        idx = searchsorted_keys(keys, pack_bits(b[None, :]))[0]
        out.append((Hs[idx] @ psi) / psi[idx])
    return np.array(out)


class TestEnginesAgree:
    def test_all_levels_match(self, setup_h2, fig10):
        wf, comp, batch, table = setup_h2
        ref = build_reference(compress_and_back(comp))
        amp_dict = fig10.amplitude_dict(table)
        e0 = fig10.local_energy_baseline(ref, batch, amp_dict)
        e1 = fig10.local_energy_sa_fuse(comp, batch, amp_dict)
        e2 = fig10.local_energy_sa_fuse_lut(comp, batch, table)
        e3 = local_energy_vectorized(comp, batch, table)
        np.testing.assert_allclose(e1, e0, atol=1e-10)
        np.testing.assert_allclose(e2, e0, atol=1e-10)
        np.testing.assert_allclose(e3, e0, atol=1e-10)

    def test_vectorized_chunking_invariance(self, setup_h2):
        wf, comp, batch, table = setup_h2
        full = local_energy_vectorized(comp, batch, table)
        chunked = local_energy_vectorized(
            comp, batch, table, group_chunk=2, sample_chunk=1
        )
        np.testing.assert_allclose(chunked, full, atol=1e-12)


def compress_and_back(comp):
    """Rebuild a QubitHamiltonian from a compressed one (test helper)."""
    from repro.hamiltonian import QubitHamiltonian

    xs, zs, cs = [], [], []
    for g in range(comp.n_groups):
        for k in range(comp.idxs[g], comp.idxs[g + 1]):
            xs.append(comp.xy_unique[g])
            zs.append(comp.yz_buf[k])
            # Undo the phase folding: (-1)^{y/2}; y from masks.
            from repro.utils.bitstrings import popcount64

            y = int(popcount64(comp.xy_unique[g] & comp.yz_buf[k]).sum())
            cs.append(comp.coeffs_buf[k] * (-1.0) ** (y // 2))
    return QubitHamiltonian(
        n_qubits=comp.n_qubits,
        x_masks=np.array(xs),
        z_masks=np.array(zs),
        coeffs=np.array(cs),
        constant=comp.constant,
        n_electrons=comp.n_electrons,
    )


class TestExactness:
    def test_full_sector_table_matches_dense(self, setup_h2):
        """With the full sector tabulated, SA local energy is exact."""
        wf, comp, batch, table = setup_h2
        eloc = local_energy_vectorized(comp, batch, table)
        ref = dense_local_energy(comp, wf, batch.bits, 1, 1)
        np.testing.assert_allclose(eloc, ref, rtol=1e-9)

    def test_exact_mode_on_subset(self, setup_h2):
        """Exact mode extends the table and reproduces the dense answer even
        when only part of the sector was sampled."""
        wf, comp, _, _ = setup_h2
        bits = sector_bitstrings(4, 1, 1)[:2]
        batch = SampleBatch(bits=bits, weights=np.array([3, 2], dtype=np.int64))
        eloc, _ = local_energy(wf, comp, batch, mode="exact")
        ref = dense_local_energy(comp, wf, bits, 1, 1)
        np.testing.assert_allclose(eloc, ref, rtol=1e-9)

    def test_sample_aware_is_biased_on_subset(self, setup_h2):
        """SA mode on a strict subset misses couplings (documented bias)."""
        wf, comp, _, _ = setup_h2
        bits = sector_bitstrings(4, 1, 1)[:1]
        batch = SampleBatch(bits=bits, weights=np.array([1], dtype=np.int64))
        eloc_sa, _ = local_energy(wf, comp, batch, mode="sample_aware")
        ref = dense_local_energy(comp, wf, bits, 1, 1)
        assert abs(eloc_sa[0] - ref[0]) > 1e-6

    def test_energy_expectation_matches_rayleigh_quotient(self, setup_h2):
        """sum_x pi(x) E_loc(x) = <psi|H|psi>/<psi|psi> exactly."""
        wf, comp, batch, table = setup_h2
        from repro.hamiltonian import sector_hamiltonian_dense

        eloc = local_energy_vectorized(comp, batch, table)
        pi = np.exp(wf.log_prob(batch.bits).data)
        e_vmc = np.sum(pi * eloc.real)  # pi is normalized over the sector
        Hs, basis = sector_hamiltonian_dense(comp, 1, 1)
        psi = wf.amplitudes(basis.bits())
        e_rq = np.real(psi.conj() @ Hs @ psi) / np.real(psi.conj() @ psi)
        assert e_vmc == pytest.approx(e_rq, abs=1e-9)

    def test_hf_determinant_local_energy_is_hf_energy(self, h2o_problem):
        """With only the HF determinant tabulated, E_loc(HF) = E_HF."""
        wf = build_qiankunnet(
            h2o_problem.n_qubits, h2o_problem.n_up, h2o_problem.n_dn,
            d_model=8, n_heads=2, n_layers=1, phase_hidden=(8,), seed=1,
        )
        comp = compress_hamiltonian(h2o_problem.hamiltonian)
        batch = SampleBatch(
            bits=h2o_problem.hf_bits[None, :], weights=np.array([1], dtype=np.int64)
        )
        table = build_amplitude_table(wf, batch)
        eloc = local_energy_vectorized(comp, batch, table)
        assert eloc[0].real == pytest.approx(h2o_problem.e_hf, abs=1e-7)

    def test_unknown_mode_raises(self, setup_h2):
        wf, comp, batch, _ = setup_h2
        with pytest.raises(ValueError):
            local_energy(wf, comp, batch, mode="warp-speed")

    def test_table_missing_sample_raises(self, setup_h2):
        wf, comp, batch, table = setup_h2
        from repro.core import AmplitudeTable

        short = AmplitudeTable(keys=table.keys[:1], log_amps=table.log_amps[:1])
        with pytest.raises(ValueError):
            local_energy_vectorized(comp, batch, short)


class TestMergeTables:
    @staticmethod
    def _assert_sorted_unique(table):
        # lexsort_keys order: word 0 minor, last word major -> compare the
        # reversed word tuples.
        rows = [tuple(r) for r in table.keys[:, ::-1].tolist()]
        assert rows == sorted(rows), "merged table keys are not sorted"
        assert len(set(rows)) == len(rows), "merged table has duplicate keys"

    def test_duplicates_within_b_are_collapsed(self, setup_h2):
        """Regression: a ``b`` table with internal duplicate keys used to
        survive the merge, corrupting every later binary search."""
        from repro.core import AmplitudeTable, merge_amplitude_tables

        wf, comp, batch, table = setup_h2
        half = AmplitudeTable(keys=table.keys[:2], log_amps=table.log_amps[:2])
        dup_idx = np.array([2, 3, 3, 2, 2])
        b = AmplitudeTable(keys=table.keys[dup_idx],
                           log_amps=table.log_amps[dup_idx])
        merged = merge_amplitude_tables(half, b)
        self._assert_sorted_unique(merged)
        assert merged.n_entries == 4
        np.testing.assert_array_equal(merged.keys, table.keys)
        np.testing.assert_array_equal(merged.log_amps, table.log_amps)

    def test_unsorted_inputs_are_normalized(self, setup_h2):
        from repro.core import AmplitudeTable, merge_amplitude_tables

        wf, comp, batch, table = setup_h2
        rev = slice(None, None, -1)
        a = AmplitudeTable(keys=table.keys[:3][rev], log_amps=table.log_amps[:3][rev])
        b = AmplitudeTable(keys=table.keys[2:][rev], log_amps=table.log_amps[2:][rev])
        merged = merge_amplitude_tables(a, b)
        self._assert_sorted_unique(merged)
        np.testing.assert_array_equal(merged.keys, table.keys)
        np.testing.assert_array_equal(merged.log_amps, table.log_amps)

    def test_a_wins_on_duplicate_keys(self, setup_h2):
        from repro.core import AmplitudeTable, merge_amplitude_tables

        wf, comp, batch, table = setup_h2
        b = AmplitudeTable(keys=table.keys.copy(),
                           log_amps=table.log_amps + 1.0)
        merged = merge_amplitude_tables(table, b)
        np.testing.assert_array_equal(merged.log_amps, table.log_amps)

    def test_sorted_inputs_pass_through_untouched(self, setup_h2):
        """The invariant check must not copy already-valid tables."""
        from repro.core import AmplitudeTable, merge_amplitude_tables
        from repro.core.local_energy import normalize_amplitude_table

        wf, comp, batch, table = setup_h2
        assert normalize_amplitude_table(table) is table
        empty = AmplitudeTable(
            keys=np.zeros((0, table.keys.shape[1]), dtype=np.uint64),
            log_amps=np.zeros(0, dtype=np.complex128),
        )
        assert merge_amplitude_tables(table, empty) is table
        assert merge_amplitude_tables(empty, table) is table


class TestExtendTable:
    def test_extension_adds_only_sector_states(self, setup_h2):
        wf, comp, _, _ = setup_h2
        bits = sector_bitstrings(4, 1, 1)[:1]
        batch = SampleBatch(bits=bits, weights=np.array([1], dtype=np.int64))
        table = build_amplitude_table(wf, batch)
        ext = extend_amplitude_table(wf, comp, batch, table)
        from repro.utils.bitstrings import unpack_bits

        new_bits = unpack_bits(ext.keys, 4)
        assert np.all(wf.constraint.validate_bits(new_bits))
        assert ext.n_entries > table.n_entries

    def test_extension_idempotent(self, setup_h2):
        wf, comp, batch, table = setup_h2
        ext = extend_amplitude_table(wf, comp, batch, table)
        ext2 = extend_amplitude_table(wf, comp, batch, ext)
        assert ext2.n_entries == ext.n_entries

    def test_max_extra_guard(self, setup_h2):
        wf, comp, _, _ = setup_h2
        bits = sector_bitstrings(4, 1, 1)[:1]
        batch = SampleBatch(bits=bits, weights=np.array([1], dtype=np.int64))
        table = build_amplitude_table(wf, batch)
        with pytest.raises(ValueError):
            extend_amplitude_table(wf, comp, batch, table, max_extra=0)

    def test_budgeted_extension_matches_unbudgeted(self, setup_h2):
        """Regression: the (B, G, W) flip materialization and the amplitude
        evaluation are chunked under a memory budget; the extended table must
        be identical (flip chunking is pure integer set work, and small
        missing sets stay within one row block of the forward)."""
        wf, comp, _, _ = setup_h2
        bits = sector_bitstrings(4, 1, 1)[:2]
        batch = SampleBatch(bits=bits, weights=np.array([3, 2], dtype=np.int64))
        table = build_amplitude_table(wf, batch)
        full = extend_amplitude_table(wf, comp, batch, table)
        tiny = extend_amplitude_table(wf, comp, batch, table,
                                      memory_budget_bytes=64)  # 1-row chunks
        np.testing.assert_array_equal(tiny.keys, full.keys)
        np.testing.assert_array_equal(tiny.log_amps, full.log_amps)

    def test_budgeted_evaluation_chunks_match(self, setup_h2, monkeypatch):
        """Force the forward's row-block bound down so wf.log_amplitudes really
        runs in pieces; the union must agree to reduction-order rounding."""
        import repro.core.wavefunction as wavefunction

        wf, comp, _, _ = setup_h2
        bits = sector_bitstrings(4, 1, 1)[:2]
        batch = SampleBatch(bits=bits, weights=np.array([1, 1], dtype=np.int64))
        table = build_amplitude_table(wf, batch)
        full = extend_amplitude_table(wf, comp, batch, table)
        monkeypatch.setattr(wavefunction, "ROW_BLOCK", 1)
        tiny = extend_amplitude_table(wf, comp, batch, table,
                                      memory_budget_bytes=64)
        np.testing.assert_array_equal(tiny.keys, full.keys)
        np.testing.assert_allclose(tiny.log_amps, full.log_amps, atol=1e-12)

    def test_budgeted_exact_mode_matches(self, setup_h2):
        """mode='exact' through the high-level entry point with a budget."""
        wf, comp, _, _ = setup_h2
        bits = sector_bitstrings(4, 1, 1)[:2]
        batch = SampleBatch(bits=bits, weights=np.array([3, 2], dtype=np.int64))
        e_full, t_full = local_energy(wf, comp, batch, mode="exact")
        e_tiny, t_tiny = local_energy(wf, comp, batch, mode="exact",
                                      memory_budget_bytes=64)
        np.testing.assert_array_equal(t_tiny.keys, t_full.keys)
        np.testing.assert_allclose(e_tiny, e_full, atol=1e-12)
