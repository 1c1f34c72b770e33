"""Local-energy engines: cross-agreement and exactness against dense algebra."""
import importlib

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
        # Both sides read float32 phi, but over different row sets, and a
        # float32 GEMM rounds by its batch: ~1e-8 relative, past the 1e-9
        # that held in float64.
        np.testing.assert_allclose(eloc, ref, rtol=1e-6)

    def test_sample_aware_is_biased_on_subset(self, setup_h2):
        """SA mode on a strict subset misses couplings (documented bias)."""
        wf, comp, _, _ = setup_h2
        bits = sector_bitstrings(4, 1, 1)[:1]
        batch = SampleBatch(bits=bits, weights=np.array([1], dtype=np.int64))
        eloc_sa, _ = local_energy(wf, comp, batch, mode="sample_aware")
        ref = dense_local_energy(comp, wf, bits, 1, 1)
        assert abs(eloc_sa[0] - ref[0]) > 1e-6

    def test_energy_expectation_matches_rayleigh_quotient(self, setup_h2):
        """sum_x pi(x) E_loc(x) = <psi|H|psi>/<psi|psi> exactly, with pi and
        psi from the same evaluator (the one the table was built by; the
        float64 taped log_prob differs from it by the float32 decoder's
        rounding, ~1e-8 in this energy)."""
        wf, comp, batch, table = setup_h2
        from repro.hamiltonian import sector_hamiltonian_dense

        eloc = local_energy_vectorized(comp, batch, table)
        pi = np.abs(wf.amplitudes(batch.bits)) ** 2
        e_vmc = np.sum(pi * eloc.real) / np.sum(pi)  # the batch is the whole sector
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

    def test_unknown_mode_raises(self, setup_h2, monkeypatch):
        """Refused before the amplitude table is evaluated."""
        wf, comp, batch, _ = setup_h2

        def forbidden(bits):
            raise AssertionError("log_amplitudes ran before the mode check")

        monkeypatch.setattr(wf, "log_amplitudes", forbidden)
        with pytest.raises(ValueError, match="unknown local-energy mode"):
            local_energy(wf, comp, batch, mode="warp-speed")

    def test_table_missing_sample_raises(self, setup_h2):
        wf, comp, batch, table = setup_h2
        from repro.core import AmplitudeTable

        short = AmplitudeTable(keys=table.keys[:1], log_amps=table.log_amps[:1])
        with pytest.raises(ValueError):
            local_energy_vectorized(comp, batch, short)


class TestGrowTable:
    @staticmethod
    def _assert_sorted_unique(table):
        # lexsort_keys order: word 0 minor, last word major -> compare the
        # reversed word tuples.
        rows = [tuple(r) for r in table.keys[:, ::-1].tolist()]
        assert rows == sorted(rows), "grown table keys are not sorted"
        assert len(set(rows)) == len(rows), "grown table has duplicate keys"

    @staticmethod
    def _count_rows(wf, monkeypatch):
        """Record the rows every ``wf.log_amplitudes`` call evaluates."""
        seen = []
        real = wf.log_amplitudes

        def counting(bits, params32=None):
            seen.append(np.array(bits))
            return real(bits, params32)

        monkeypatch.setattr(wf, "log_amplitudes", counting)
        return seen

    def test_repeated_unsorted_keys_are_evaluated_once(self, setup_h2, monkeypatch):
        """Unsorted candidates that repeat a missing key (and one the table
        holds) add each missing key once, evaluated once."""
        from repro.core import AmplitudeTable, grow_amplitude_table

        wf, comp, batch, table = setup_h2
        half = AmplitudeTable(keys=table.keys[:2], log_amps=table.log_amps[:2])
        seen = self._count_rows(wf, monkeypatch)
        grown = grow_amplitude_table(wf, half, table.keys[[3, 2, 3, 0, 2, 2]])
        self._assert_sorted_unique(grown)
        np.testing.assert_array_equal(grown.keys, table.keys)
        np.testing.assert_allclose(grown.log_amps, table.log_amps, rtol=1e-12)
        assert len(seen) == 1
        np.testing.assert_array_equal(pack_bits(seen[0]), table.keys[2:])

    def test_table_entries_are_never_reevaluated(self, setup_h2, monkeypatch):
        from repro.core import AmplitudeTable, grow_amplitude_table

        wf, comp, batch, table = setup_h2
        # Marked values: an entry the table holds must come back untouched.
        marked = AmplitudeTable(keys=table.keys[:3], log_amps=table.log_amps[:3] + 1.0)
        seen = self._count_rows(wf, monkeypatch)
        grown = grow_amplitude_table(wf, marked, table.keys[::-1])
        np.testing.assert_array_equal(grown.log_amps[:3], marked.log_amps)
        assert sum(len(rows) for rows in seen) == 1
        np.testing.assert_array_equal(pack_bits(seen[0]), table.keys[3:])

    def test_nothing_missing_returns_the_table_itself(self, setup_h2, monkeypatch):
        from repro.core import grow_amplitude_table

        wf, comp, batch, table = setup_h2
        seen = self._count_rows(wf, monkeypatch)
        assert grow_amplitude_table(wf, table, table.keys[[3, 1, 1, 0]]) is table
        assert grow_amplitude_table(wf, table, table.keys[:0]) is table
        assert seen == []

    def test_empty_table_grows_sorted_unique(self, setup_h2):
        from repro.core import AmplitudeTable, grow_amplitude_table

        wf, comp, batch, table = setup_h2
        empty = AmplitudeTable(
            keys=np.zeros((0, table.keys.shape[1]), dtype=np.uint64),
            log_amps=np.zeros(0, dtype=np.complex128),
        )
        grown = grow_amplitude_table(wf, empty, table.keys[[2, 0, 3, 0, 1]])
        self._assert_sorted_unique(grown)
        np.testing.assert_array_equal(grown.keys, table.keys)
        np.testing.assert_allclose(grown.log_amps, table.log_amps, rtol=1e-12)


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

    def test_max_extra_guard(self, setup_h2, monkeypatch):
        """The guard exists to stop the ``(rows, n_qubits)`` unpack: it fires
        before one."""
        # repro.core re-exports a *function* named local_energy over the module
        local_energy_module = importlib.import_module("repro.core.local_energy")
        wf, comp, _, _ = setup_h2
        bits = sector_bitstrings(4, 1, 1)[:1]
        batch = SampleBatch(bits=bits, weights=np.array([1], dtype=np.int64))
        table = build_amplitude_table(wf, batch)

        def forbidden(keys, n_qubits):
            raise AssertionError("unpack_bits ran before the max_extra guard")

        monkeypatch.setattr(local_energy_module, "unpack_bits", forbidden)
        with pytest.raises(ValueError, match="exceed max_extra=0"):
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
