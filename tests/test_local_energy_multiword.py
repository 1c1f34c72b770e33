"""Cross-engine consistency of the local-energy kernels beyond 64 qubits.

The paper packs configurations into one 64-bit integer for N < 64 and two
for 64 <= N < 128 (Sec. 3.4, method (5)).  These tests drive every engine of
the Fig. 10 ladder through the two-word code paths (packing, XOR coupling,
lexicographic binary search, Python-int views) on synthetic 70- and
100-qubit Hamiltonians with a mock amplitude table — the engines only
consume tables, so no wave function is needed — and hold the planned kernel
to the reference bit for bit at 70 and 120 qubits, with the diagonal group
walked (the synthetic operator has weight-4 Z strings) and as the quadratic
form (its Z strings of weight ≥ 3 dropped).
"""
import numpy as np
import pytest

from repro.core import SampleBatch
from repro.core.local_energy import AmplitudeTable, ElocPlan, local_energy_vectorized
from repro.hamiltonian import QubitHamiltonian, build_reference, compress_hamiltonian
from repro.utils.bitstrings import lexsort_keys, pack_bits
from tests.synthetic import synthetic_molecular_hamiltonian


def _two_body_diagonal(ham: QubitHamiltonian) -> QubitHamiltonian:
    """``ham`` without its diagonal Z strings of weight ≥ 3."""
    keep = ham.x_masks.any(axis=1) | (np.bitwise_count(ham.z_masks).sum(axis=1) <= 2)
    return QubitHamiltonian(n_qubits=ham.n_qubits, x_masks=ham.x_masks[keep],
                            z_masks=ham.z_masks[keep], coeffs=ham.coeffs[keep],
                            constant=ham.constant)


def make_setup(n_qubits: int, n_terms: int, n_samples: int, seed: int,
               two_body_diagonal: bool = False):
    ham = synthetic_molecular_hamiltonian(n_qubits, n_terms, seed=seed)
    if two_body_diagonal:
        ham = _two_body_diagonal(ham)
    comp = compress_hamiltonian(ham)
    ref = build_reference(ham)
    rng = np.random.default_rng(seed + 1)
    bits = np.unique(
        rng.integers(0, 2, size=(n_samples, n_qubits)).astype(np.uint8), axis=0
    )
    batch = SampleBatch(bits=bits, weights=np.ones(len(bits), dtype=np.int64))
    keys = pack_bits(bits)
    order = lexsort_keys(keys)
    log_amps = (
        rng.normal(scale=0.5, size=len(bits))
        + 1j * rng.uniform(0, 2 * np.pi, len(bits))
    )
    table = AmplitudeTable(keys=keys[order], log_amps=log_amps[order])
    return ham, comp, ref, batch, table


@pytest.mark.parametrize("n_qubits,n_terms", [(70, 300), (100, 500)])
class TestMultiwordEngines:
    def test_all_engines_agree(self, n_qubits, n_terms, fig10):
        ham, comp, ref, batch, table = make_setup(n_qubits, n_terms, 24, seed=3)
        amp_dict = fig10.amplitude_dict(table)
        e_base = fig10.local_energy_baseline(ref, batch, amp_dict)
        e_fuse = fig10.local_energy_sa_fuse(comp, batch, amp_dict)
        e_lut = fig10.local_energy_sa_fuse_lut(comp, batch, table)
        e_vec = local_energy_vectorized(comp, batch, table)
        np.testing.assert_allclose(e_fuse, e_base, atol=1e-10)
        np.testing.assert_allclose(e_lut, e_base, atol=1e-10)
        np.testing.assert_allclose(e_vec, e_base, atol=1e-10)

    def test_vectorized_chunking_invariance(self, n_qubits, n_terms):
        _, comp, _, batch, table = make_setup(n_qubits, n_terms, 24, seed=5)
        full = local_energy_vectorized(comp, batch, table)
        tiny = local_energy_vectorized(comp, batch, table, group_chunk=7,
                                       sample_chunk=5)
        np.testing.assert_allclose(tiny, full, atol=1e-12)


@pytest.mark.parametrize("n_qubits", [70, 120])
@pytest.mark.parametrize("two_body_diagonal", [False, True], ids=["walked", "form"])
def test_planned_equals_reference_bit_for_bit(n_qubits, two_body_diagonal):
    _, comp, _, batch, table = make_setup(n_qubits, 400, 40, seed=8,
                                          two_body_diagonal=two_body_diagonal)
    for group_chunk, sample_chunk in ((512, 4096), (7, 5)):
        plan = ElocPlan(comp, group_chunk=group_chunk, sample_chunk=sample_chunk)
        assert (plan.diagonal is not None) == two_body_diagonal
        np.testing.assert_array_equal(
            plan.local_energy(batch, table),
            local_energy_vectorized(comp, batch, table, group_chunk=group_chunk,
                                    sample_chunk=sample_chunk))


class TestDiagonalIdentity:
    def test_diagonal_terms_only_give_real_weighted_diagonal(self):
        """With pure-Z Hamiltonians E_loc(x) is <x|H|x>, table phases cancel."""
        rng = np.random.default_rng(9)
        n = 70
        # Keep only the diagonal groups of a synthetic Hamiltonian.
        ham = synthetic_molecular_hamiltonian(n, 200, seed=11)
        diag = ~ham.x_masks.any(axis=1)
        from repro.hamiltonian import QubitHamiltonian

        ham_d = QubitHamiltonian(
            n_qubits=n, x_masks=ham.x_masks[diag], z_masks=ham.z_masks[diag],
            coeffs=ham.coeffs[diag], constant=ham.constant,
        )
        comp = compress_hamiltonian(ham_d)
        bits = rng.integers(0, 2, size=(10, n)).astype(np.uint8)
        batch = SampleBatch(bits=bits, weights=np.ones(10, dtype=np.int64))
        keys = pack_bits(bits)
        order = lexsort_keys(keys)
        amps = rng.normal(size=10) + 1j * rng.uniform(0, 6.28, 10)
        table = AmplitudeTable(keys=keys[order], log_amps=amps[order])
        eloc = local_energy_vectorized(comp, batch, table)
        # Diagonal operator: the amplitude ratios are exp(0) = 1, E_loc real.
        np.testing.assert_allclose(eloc.imag, 0.0, atol=1e-12)
        # Cross-check one sample against direct evaluation.
        from repro.utils.bitstrings import parity64

        s = 0
        expected = ham_d.constant
        for g in range(comp.n_groups):
            for k in range(comp.idxs[g], comp.idxs[g + 1]):
                par = int(parity64(keys[s] & comp.yz_buf[k]).sum()) & 1
                expected += comp.coeffs_buf[k] * (1.0 - 2.0 * par)
        assert eloc[s].real == pytest.approx(expected, abs=1e-10)

    def test_empty_batch(self):
        ham = synthetic_molecular_hamiltonian(70, 50, seed=2)
        comp = compress_hamiltonian(ham)
        batch = SampleBatch(bits=np.zeros((0, 70), dtype=np.uint8),
                            weights=np.zeros(0, dtype=np.int64))
        table = AmplitudeTable(keys=np.zeros((0, 2), dtype=np.uint64),
                               log_amps=np.zeros(0, dtype=np.complex128))
        eloc = local_energy_vectorized(comp, batch, table)
        assert eloc.shape == (0,)
