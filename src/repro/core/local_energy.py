"""Local energy evaluation: E_loc(x) = sum_x' H_xx' Psi(x')/Psi(x)  (Eq. 4).

One production path and one reference (Sec. 3.4, Algorithm 2):

* :class:`ElocPlan` — the kernel every run, driver and server reaches.  A
  plan is compiled once per ``(CompressedHamiltonian, chunking)``: the CSR
  chunk scaffolds and the pattern table of the FUSE step are hoisted out of
  the per-call path, a per-table slot map finds coupled keys in one gather
  (the binary search runs only for keys whose slot several table keys
  share), and per-thread workspaces are reused across iterations.
  :func:`local_energy_planned` and :func:`local_energy` are thin wrappers
  that run a plan (compiling a throwaway one when the caller has none).
* :func:`local_energy_vectorized` — the stateless reference, for testing
  purposes only: the same sample-aware + fused + LUT arithmetic as chunked
  array operations with no plan, no slot map and no caches.  The planned
  kernel is bit-identical to it (the slot map changes *how* a key is found,
  never which row it finds; a pattern-table entry is the very segment sum
  the reference takes over a reduced term's signed terms), which is what
  the tests and the benchmark's set-up check assert.

Both accumulate the ψ product of Eq. 4 rather than per-hit ratios:
``E_loc(x) = c + e^{m - log ψ(x)} Σ_x' H_xx' e^{log ψ(x') - m}`` with ``m`` the
largest ``Re log ψ`` of the table, so one complex ``exp`` per coupled entry
(or per table entry, whichever is fewer) and one per sample replace one per
(sample, coupled entry) pair.  The shift keeps the form scale-invariant.
Each hit's H_xx' is a nested sum over its group's *reduced terms*
(:func:`~repro.hamiltonian.compressed.reduce_terms`: the terms that share
their Z/Y letters off ≤ 4 flipped qubits of one word): one ``add.reduceat``
segment per reduced term over its signed terms, then one per hit over
those — the same nesting in both kernels, so both sum in the same order.
The plan takes the inner sums from its pattern table, where the reference
sums the terms; a Hamiltonian with a term-less group is refused, because
``reduceat`` would read the next group's first term for it.  The diagonal
group (XY mask 0: every Z string, which couples x to itself) is no hit at
all: both kernels add it to E_loc as one quadratic form over ``z = 1 - 2x``
(:class:`_DiagonalForm`) and walk only the other groups, unless one of its
Z strings has weight ≥ 3.

The scalar rungs of the paper's Fig. 10 ladder (bare-CPU baseline, SA+FUSE,
SA+FUSE+LUT) are the subject of ``benchmarks/bench_fig10_localenergy.py``
and live there.

Both kernels are sample-aware: they only credit coupled configurations that
appear in the amplitude table (Fig. 7(b)).  For unbiased local energies on
small systems, :func:`extend_amplitude_table` grows the table with *all*
coupled configurations in the physical sector, evaluated through the wave
function — the same kernels then compute the exact Eq. (4).
"""
from __future__ import annotations

import threading
import weakref
from dataclasses import dataclass

import numpy as np

from repro.core.sampler import SampleBatch
from repro.core.wavefunction import NNQSWavefunction
from repro.dtypes import bool_, complex128, float64, int32, int64, uint64
from repro.hamiltonian.compressed import (
    PATTERN_QUBITS,
    CompressedHamiltonian,
    ReducedTerms,
    reduce_terms,
)
from repro.utils.bitstrings import (
    key_records,
    lexsort_keys,
    pack_bits,
    parity64,
    searchsorted_keys,
    unique_keys,
    unpack_bits,
)

__all__ = [
    "AmplitudeTable",
    "build_amplitude_table",
    "extend_amplitude_table",
    "grow_amplitude_table",
    "local_energy_vectorized",
    "ElocPlan",
    "compile_eloc_plan",
    "local_energy_planned",
    "budgeted_sample_chunk",
    "local_energy",
]


@dataclass
class AmplitudeTable:
    """The id_lut / wf_lut pair of Algorithm 2 (sorted keys + log amplitudes).

    Invariant: ``keys`` are unique and in :func:`~repro.utils.bitstrings.lexsort_keys`
    order, so a binary search finds one row per key.  A plain wrapper that
    copies nothing: :func:`build_amplitude_table` and
    :func:`grow_amplitude_table` establish the invariant, stage 2 wraps
    arrays it already sorted.
    """

    keys: np.ndarray       # (U, W) uint64, lexsorted, unique
    log_amps: np.ndarray   # (U,) complex128 — log Psi of each key

    @property
    def n_entries(self) -> int:
        return len(self.log_amps)


def _tabulate(keys: np.ndarray, log_amps: np.ndarray) -> AmplitudeTable:
    """The one place the table invariant is established: a stable lexsort,
    keeping the first row of each key."""
    order = lexsort_keys(keys)
    keys, log_amps = keys[order], log_amps[order]
    keep = np.ones(len(keys), dtype=bool_)
    keep[1:] = np.any(keys[1:] != keys[:-1], axis=1)
    if not keep.all():
        keys, log_amps = keys[keep], log_amps[keep]
    return AmplitudeTable(keys=keys, log_amps=log_amps)


def build_amplitude_table(wf: NNQSWavefunction, batch: SampleBatch) -> AmplitudeTable:
    """Tabulate log Psi of the batch's rows (a repeated row keeps its first
    value)."""
    return _tabulate(pack_bits(batch.bits), wf.log_amplitudes(batch.bits))


def grow_amplitude_table(wf: NNQSWavefunction, table: AmplitudeTable,
                         keys: np.ndarray, params32=None) -> AmplitudeTable:
    """``table`` plus log Psi of the ``(M, W)`` keys it lacks, each evaluated
    once; ``table`` itself when it holds them all.  Entries already in the
    table keep their values (they must come from the same parameters);
    ``params32`` goes to ``wf.log_amplitudes``."""
    keys = unique_keys(keys)
    missing = keys[searchsorted_keys(table.keys, keys) < 0]
    if not len(missing):
        return table
    log_amps = wf.log_amplitudes(unpack_bits(missing, wf.n_qubits), params32)
    return _tabulate(np.concatenate([table.keys, missing], axis=0),
                     np.concatenate([table.log_amps, log_amps]))


def extend_amplitude_table(
    wf: NNQSWavefunction,
    comp: CompressedHamiltonian,
    batch: SampleBatch,
    table: AmplitudeTable,
    max_extra: int = 2_000_000,
    memory_budget_bytes: int | None = None,
    params32=None,
) -> AmplitudeTable:
    """Grow the amplitude table by every sector-valid coupled configuration.

    With the extended table the SA kernels compute the *exact* local energy
    (the sum over x' in Eq. 4 runs over all coupled configurations).

    With ``memory_budget_bytes`` the ``(B, G, W)`` coupled-key
    materialization is processed in sample-row chunks sized by
    :func:`budgeted_sample_chunk`, so exact mode cannot OOM before the
    ``max_extra`` guard fires (pure integer set work — the resulting missing
    set is identical for any chunking).  The amplitude evaluation of the
    missing configurations needs no budget of its own: coupled keys are a
    sample XOR a few-qubit mask, so ``wf.log_amplitudes`` walks their token
    prefix tree (each distinct prefix through the network once) in blocks
    of bounded size.  The value of a row does not depend on which other rows
    are missing beyond BLAS rounding.

    Coupled keys outside the wave function's particle-number sector are
    dropped on the packed words (``constraint.validate_keys``) before the
    dedup and never unpacked — 76 % of the flips of an N2 exact iteration —
    so ``max_extra`` counts sector-valid rows.  ``params32``: see
    :func:`grow_amplitude_table`.
    """
    keys = pack_bits(batch.bits)  # (B, W)
    if len(keys) == 0:
        return table
    n_words = keys.shape[1]
    row_chunk = budgeted_sample_chunk(
        n_words, comp.n_groups, comp.n_groups, len(keys), memory_budget_bytes
    )
    missing_parts = []
    for s0 in range(0, len(keys), row_chunk):
        flips = (
            keys[s0 : s0 + row_chunk, None, :] ^ comp.xy_unique[None, :, :]
        ).reshape(-1, n_words)
        if wf.constraint is not None:
            flips = flips[wf.constraint.validate_keys(flips)]
        flips = unique_keys(flips)
        miss = flips[searchsorted_keys(table.keys, flips) < 0]
        if len(miss):
            missing_parts.append(miss)
    if not missing_parts:
        return table
    missing = np.concatenate(missing_parts, axis=0)
    if len(missing_parts) > 1:
        missing = unique_keys(missing)  # dedup across row chunks
    if len(missing) > max_extra:
        raise ValueError(
            f"{len(missing)} coupled configurations exceed max_extra={max_extra}; "
            "use sample-aware mode for this system size"
        )
    return grow_amplitude_table(wf, table, missing, params32)


# --------------------------------------------------------------------------
# The reference: stateless batch kernel (Algorithm 2 as chunked array ops)
# --------------------------------------------------------------------------
def budgeted_sample_chunk(
    n_words: int,
    n_groups: int,
    group_chunk: int,
    sample_chunk: int,
    memory_budget_bytes: int | None,
) -> int:
    """Shrink ``sample_chunk`` so one chunk's key materialization fits a budget.

    The reference's peak transient is the ``(sample_chunk, group_chunk, W)``
    uint64 flip array plus its ``(sample_chunk, group_chunk)`` int64 lookup —
    ``group_chunk * (W + 1) * 8`` bytes per sample row.  The planned kernel
    materializes neither (it hashes each coupled key straight from the
    sample and the flip mask into an 8-byte workspace entry, and its lookup
    returns the hits alone), but it takes the same row count: the two must
    cut the batch at the same boundaries to stay bit-identical.
    Wide Hamiltonians (large group counts, Fig. 9's memory story) can exceed
    a host budget at the default chunking; the budget caps the row count
    instead of failing.
    """
    if memory_budget_bytes is None:
        return sample_chunk
    g = min(group_chunk, n_groups)
    bytes_per_sample = max(g * (n_words + 1) * 8, 1)
    return int(max(1, min(sample_chunk, memory_budget_bytes // bytes_per_sample)))


def _refuse_empty_groups(group_sizes: np.ndarray) -> None:
    """Both kernels sum a hit's terms as one ``add.reduceat`` segment, and
    ``reduceat`` answers an empty segment with the next segment's first
    term, not 0: a group without terms must never reach it.
    ``compress_hamiltonian`` builds none; a hand-made Hamiltonian might."""
    empty = np.flatnonzero(group_sizes == 0)
    if len(empty):
        raise ValueError(
            f"Hamiltonian group {int(empty[0])} has no terms ({len(empty)} empty "
            "group(s)); every XY group needs at least one YZ term"
        )


def _log_amp_scale(table: AmplitudeTable) -> float:
    """``m``, the largest ``Re log ψ`` of the table (0 for an empty one)."""
    return float(table.log_amps.real.max()) if table.n_entries else 0.0


def _shifted_psi(log_amps: np.ndarray, m: float) -> np.ndarray:
    """``ψ e^{-m}`` from ``log ψ``: at most 1 in modulus, so nothing
    overflows, and a coupled entry that underflows to 0 weighs < e^-745 of
    the table's largest.  Elementwise, so evaluating it over the whole
    table and gathering gives the same bits as evaluating it on a gather."""
    return np.exp(log_amps - m)


@dataclass(frozen=True)
class _DiagonalForm:
    """The diagonal group (XY mask 0) as one quadratic form over
    ``z = 1 - 2x``: ``E_diag(x) = c0 + z·a + zᵀUz``, ``a`` the ``Z_i`` and
    ``U`` (strictly upper) the ``Z_i Z_j`` coefficients, ``c0`` the
    group's identity strings."""

    c0: float
    a: np.ndarray   # (N,) float64
    u: np.ndarray   # (N, N) float64, zero on and below the diagonal

    def energy(self, bits: np.ndarray) -> np.ndarray:
        """``(b,)`` float64 ``E_diag`` of ``(b, N)`` 0/1 rows — one GEMM, so
        a row's last bits can move with the rows beside it (BLAS blocking);
        both kernels call it on the same sample chunks."""
        z = 1.0 - 2.0 * bits
        w = z @ self.u
        w += self.a
        e = np.einsum("ij,ij->i", w, z)
        e += self.c0
        return e


def _diagonal_form(comp: CompressedHamiltonian) -> _DiagonalForm | None:
    """The :class:`_DiagonalForm` of ``comp``'s diagonal group — the first
    group, when there is one — or ``None`` when there is none or one of its
    Z strings has weight ≥ 3 (the kernels then walk the group like any
    other).  A Jordan-Wigner two-body Hamiltonian has only weights ≤ 2."""
    if comp.n_groups == 0 or comp.xy_unique[0].any():
        return None
    terms = slice(int(comp.idxs[0]), int(comp.idxs[1]))
    qubits = unpack_bits(comp.yz_buf[terms], comp.n_qubits)
    weight = np.count_nonzero(qubits, axis=1)
    if weight.max() > 2:
        return None
    coeffs = comp.coeffs_buf[terms]
    first = np.argmax(qubits, axis=1)
    last = comp.n_qubits - 1 - np.argmax(qubits[:, ::-1], axis=1)
    a = np.zeros(comp.n_qubits, dtype=float64)
    u = np.zeros((comp.n_qubits, comp.n_qubits), dtype=float64)
    np.add.at(a, first[weight == 1], coeffs[weight == 1])
    np.add.at(u, (first[weight == 2], last[weight == 2]), coeffs[weight == 2])
    return _DiagonalForm(c0=float(coeffs[weight == 0].sum()), a=a, u=u)


def local_energy_vectorized(
    comp: CompressedHamiltonian,
    batch: SampleBatch,
    table: AmplitudeTable,
    group_chunk: int = 512,
    sample_chunk: int = 4096,
    memory_budget_bytes: int | None = None,
) -> np.ndarray:
    """The reference kernel — for testing purposes only.

    Stateless SA+FUSE+LUT arithmetic: no plan, no slot map, no caches; what
    :meth:`ElocPlan.local_energy` must equal bit for bit.  Every coupled key
    is binary-searched, the hits read off a dense ``(sample, group)`` index
    matrix, and each hit's signed terms are spelled ``c (1 - 2 parity)``
    (exactly ``±c``) in reduced-term order; one ``add.reduceat`` segment
    per reduced term (the segment the plan's pattern-table entry holds),
    then one per hit, and the ψ product (module docstring) are the plan's;
    so are the diagonal form, added per sample chunk, and the group chunks,
    cut from the first group after the diagonal one when there is a form.

    The double chunking mirrors the paper's two-level parallelization: the
    outer sample chunks correspond to the per-thread batches of Fig. 7(a),
    the inner group chunks to the Pauli-string loop of Algorithm 2.  With
    ``memory_budget_bytes`` the sample chunk auto-shrinks so the per-chunk
    coupled-key materialization stays under the budget (values are unchanged:
    chunk boundaries never alter the per-sample accumulation order).
    """
    keys_all = pack_bits(batch.bits)
    sample_chunk = budgeted_sample_chunk(
        keys_all.shape[1], comp.n_groups, group_chunk, sample_chunk,
        memory_budget_bytes,
    )
    group_sizes = np.diff(comp.idxs)
    _refuse_empty_groups(group_sizes)
    red = reduce_terms(comp)
    n_reduced = np.diff(red.group_idxs)
    starts_reduced = np.zeros(comp.n_terms, dtype=bool_)
    starts_reduced[red.idxs[:-1]] = True
    idx_self = searchsorted_keys(table.keys, keys_all)
    if np.any(idx_self < 0):
        raise ValueError("amplitude table must contain every sample")
    m = _log_amp_scale(table)
    inv_x_all = np.exp(m - table.log_amps[idx_self])     # e^m / ψ(x)
    diagonal = _diagonal_form(comp)
    first_group = 0 if diagonal is None else 1

    eloc = np.full(batch.n_unique, comp.constant, dtype=complex128)

    for s0 in range(0, batch.n_unique, sample_chunk):
        s1 = min(s0 + sample_chunk, batch.n_unique)
        keys = keys_all[s0:s1]
        b = s1 - s0
        acc_re = np.zeros(b, dtype=float64)
        acc_im = np.zeros(b, dtype=float64)
        for g0 in range(first_group, comp.n_groups, group_chunk):
            g1 = min(g0 + group_chunk, comp.n_groups)
            # Coupled configurations + lookup (cheap: XOR + binary search).
            flips = keys[:, None, :] ^ comp.xy_unique[None, g0:g1, :]
            idx = searchsorted_keys(table.keys, flips.reshape(-1, keys.shape[1]))
            idx = idx.reshape(b, g1 - g0)
            s_hit, g_hit = np.nonzero(idx >= 0)
            if len(s_hit) == 0:
                continue
            # Coefficients only for the (sample, group) pairs actually found —
            # the vectorized counterpart of Algorithm 2's continue-on-missing.
            # Each pair's terms in reduced-term order: the group's range of
            # red.order, cut where a reduced term starts.
            g_abs = g_hit + g0
            sizes = group_sizes[g_abs]                       # terms per pair
            offs = np.cumsum(sizes) - sizes                  # segment starts
            pos = np.repeat(comp.idxs[g_abs], sizes) + (
                np.arange(int(sizes.sum())) - np.repeat(offs, sizes))
            term_idx = red.order[pos]
            par = (
                parity64(np.repeat(keys[s_hit], sizes, axis=0)
                         & comp.yz_buf[term_idx]).sum(axis=1) & 1
            )
            signed = comp.coeffs_buf[term_idx] * (1.0 - 2.0 * par)
            # one segment sum per reduced term, then one per pair, in
            # reduceat's order (the plan's)
            r_sizes = n_reduced[g_abs]                       # reduced terms per pair
            coef = np.add.reduceat(
                np.add.reduceat(signed, np.flatnonzero(starts_reduced[pos])),
                np.cumsum(r_sizes) - r_sizes)
            psi = _shifted_psi(table.log_amps[idx[s_hit, g_hit]], m)
            acc_re += np.bincount(s_hit, weights=coef * psi.real, minlength=b)
            acc_im += np.bincount(s_hit, weights=coef * psi.imag, minlength=b)
        eloc[s0:s1] += (acc_re + 1j * acc_im) * inv_x_all[s0:s1]
        if diagonal is not None:
            eloc[s0:s1] += diagonal.energy(batch.bits[s0:s1])
    return eloc


# --------------------------------------------------------------------------
# Production: compiled plans — Hamiltonian-static precomputation + slot map
# --------------------------------------------------------------------------
# 2^64 / golden ratio: the multiplicative-hash constant of the slot map.
_HASH_MULTIPLIER = uint64(0x9E3779B97F4A7C15)
# Slot-map size: the next power of two >= SLOTS_PER_KEY x table entries.
SLOTS_PER_KEY = 32
# Slot values besides a table row.
_EMPTY, _SHARED = -1, -2
# The pattern-multiplier search: its seed, candidates per round (over all
# unresolved groups) and round cap.
_SEARCH_SEED = 0x5EED
_SEARCH_CANDIDATES = 1 << 14
_SEARCH_ROUNDS = 256
# A reduced term's row of the pattern table: (pattern << 1) | parity.
_ROW_BITS = PATTERN_QUBITS + 1


@dataclass
class _TableIndex:
    """What the plan derives from one amplitude-table object (built by
    :meth:`ElocPlan._table_index`, cached per thread until the table object
    changes)."""

    records: np.ndarray   # (U,) scalar/record keys, LUT order — the search base
    slots: np.ndarray     # (2^k,) int32: table row, _EMPTY or _SHARED
    shift: uint64         # slot = hash >> shift (the hash's top k bits)
    m: float              # _log_amp_scale(table)
    psi: np.ndarray | None = None   # _shifted_psi over the table, when needed

    @property
    def n_entries(self) -> int:
        return len(self.records)


@dataclass
class _GroupChunkScaffold:
    """Hamiltonian-static data of one ``[g0, g1)`` group chunk.

    Everything here is a function of the :class:`CompressedHamiltonian` and
    the plan's ``group_chunk`` alone — computed once at compile time instead
    of being re-derived (or re-sliced from the CSR arrays) on every kernel
    call.
    """

    g0: int
    g1: int
    xy: np.ndarray       # (gc, W) uint64, contiguous copy of the flip masks
    starts: np.ndarray   # (gc,) int64 — first reduced term of each group
    sizes: np.ndarray    # (gc,) int64 — reduced terms per group
    patterns: list       # W x (gc,) uint64 — the pattern qubits, word by word
    shifts: np.ndarray   # (gc,) uint64 — the lowest pattern qubit's bit in its word
    multipliers: np.ndarray  # (gc,) uint64 — the pattern hash's multipliers


class ElocPlan:
    """A compiled local-energy plan: one per ``(CompressedHamiltonian,
    chunking config)``, reused across every kernel call of a run.

    The plan hoists all Hamiltonian-static work out of the per-iteration
    path (the "compile once, evaluate many" shape of ipie's propagator
    pre-build):

    * per-group-chunk scaffolds: contiguous flip-mask slices, each group's
      reduced terms as CSR ``starts`` / ``sizes``, its pattern mask word by
      word, and its pattern shift and multiplier;
    * the FUSE tables: ``pattern_table`` (32 float64 per reduced term ``r``:
      ``pattern_table[(r << 5) | (p << 1) | q] = (-1)^q`` times the sum of
      ``r``'s signed coefficients at occupation pattern ``p`` of the group's
      pattern qubits) and one contiguous column per word of the reduced
      terms' sign masks.  A pattern is ``((x & pattern_mask) >> shift) M
      >> 60`` in the one word that holds the pattern qubits, ``shift`` the
      lowest one's bit, with a multiplier ``M`` per distinct shifted mask
      that a seeded search (:meth:`_pattern_multipliers`) makes one-to-one
      over the mask's ``2^k`` subsets;
    * the diagonal group as a :class:`_DiagonalForm` (``diagonal``; ``None``
      keeps the group in the chunks when a Z string has weight ≥ 3);
    * a cached :class:`_TableIndex` of the current amplitude table — its
      :func:`~repro.utils.bitstrings.key_records` view (the search base),
      slot map, ``m`` and, once a chunk has more hits than the table
      has entries, ``ψ e^{-m}`` of every entry (rebuilt only when the table
      object changes — i.e. when the parameters moved);
    * one per-thread workspace — the lookup's uint64 hashes — reused across
      chunks and iterations instead of reallocated per chunk.

    :meth:`local_energy` is the planned kernel: identical arithmetic to
    :func:`local_energy_vectorized` except for the lookup (coupled keys are
    hashed from ``keys[s]`` and ``xy[g]`` and rebuilt only for the slot
    candidates) and the inner sum of each hit (one pattern-table gather per
    reduced term instead of the ``add.reduceat`` of its ``c_t (1 - 2
    parity)`` terms: the same float, summed at compile time over the same
    segment).  :meth:`_lookup`
    returns the hits alone, ascending in flat ``(sample, group)`` position —
    the order of the reference's ``nonzero`` over its index matrix — with
    their table rows, found through the slot map.  Results are
    bit-identical: the slot map finds exactly the rows the binary search
    finds, and the accumulation order is unchanged.

    Memory: the pattern table holds 256 B per reduced term off the diagonal
    group — 0.19 MiB on N2 (761 reduced terms), 0.29 MiB on C2 (1 199),
    0.92 MiB on Li2O (3 749) and 1.62 MiB on LiCl (6 617),
    ``build_problem``'s screened Hamiltonians — against 16 B per term for a
    table of ``±c_t``.  The
    slot map holds 4-byte slots, ``SLOTS_PER_KEY`` to twice that per table
    entry — 128-256 B per entry; the screened C2's 11.2k-entry extended
    table takes 2 MiB.  One map lives per plan and thread, for the table it
    last saw; serving's worst case is
    ``table_max_entries`` x ``max_loaded_versions`` = 500 000 x 4 entries at
    the defaults, 64 MiB per version, 256 MiB per thread that serves local
    energies.  The hash workspace holds 8 B per key of the largest lookup —
    a group chunk's coupled keys, ``b x gc`` (or the batch's samples, when
    more): 0.5 MiB on C2's 128 x 512, 2.2 MiB on N2's ~550 x 512 and 16 MiB
    in serving's worst case of 4096 x 512.  Coupled keys are rebuilt only
    for the keys whose slot holds a row, not for the chunk.  The diagonal
    form holds ``8 N (N + 1)`` bytes (3.3 KiB at 20 qubits).

    Thread safety: the compiled scaffolds are immutable; the workspace and
    the table index live in ``threading.local``, so thread-rank
    backends can share one plan.  Plans hold no model state — they are
    invalidated only by a different Hamiltonian or chunking config, never by
    a parameter update (the amplitude table carries all parameter-dependent
    data).
    """

    def __init__(self, comp: CompressedHamiltonian, group_chunk: int = 512,
                 sample_chunk: int = 4096,
                 memory_budget_bytes: int | None = None):
        if not isinstance(group_chunk, int) or group_chunk <= 0:
            raise ValueError(f"group_chunk must be a positive int, got {group_chunk!r}")
        if not isinstance(sample_chunk, int) or sample_chunk <= 0:
            raise ValueError(f"sample_chunk must be a positive int, got {sample_chunk!r}")
        self.comp = comp
        self.group_chunk = group_chunk
        self.sample_chunk = sample_chunk
        self.memory_budget_bytes = memory_budget_bytes
        self.n_words = (comp.n_qubits + 63) // 64
        _refuse_empty_groups(np.diff(comp.idxs))
        self.diagonal = _diagonal_form(comp)
        first_group = 0 if self.diagonal is None else 1
        # FUSE tables: the pattern table, one row of 32 floats per reduced
        # term (``(r << 5) | (pattern << 1) | parity``), and each word of the
        # reduced terms' sign masks as its own contiguous column — none for
        # the diagonal group when its form replaces it.
        red = reduce_terms(comp, first_group)
        # One word holds a group's pattern qubits: fold the words, then
        # shift the lowest pattern qubit to bit 0.  The multipliers depend
        # on the shifted mask alone, so the search runs once per distinct
        # shifted mask (at most 41 729 of them, whatever the Hamiltonian).
        word = np.bitwise_or.reduce(red.pattern_masks, axis=1)
        shifts = np.bitwise_count((word & (~word + uint64(1))) - uint64(1))
        shifts = np.where(word != 0, shifts, 0).astype(uint64)
        masks, group_mask = np.unique(word >> shifts, return_inverse=True)
        subsets = self._pattern_subsets(masks)
        multipliers = self._pattern_multipliers(subsets)
        self.pattern_table = self._compile_pattern_table(
            comp, red, shifts, subsets[group_mask],
            self._pattern(subsets, multipliers[:, None])[group_mask])
        multipliers = multipliers[group_mask]
        self.sign_cols = [np.ascontiguousarray(red.sign_masks[:, w])
                          for w in range(self.n_words)]
        n_reduced = np.diff(red.group_idxs)
        self.chunks: list[_GroupChunkScaffold] = []
        for g0 in range(first_group, comp.n_groups, group_chunk):
            g1 = min(g0 + group_chunk, comp.n_groups)
            self.chunks.append(_GroupChunkScaffold(
                g0=g0, g1=g1,
                xy=np.ascontiguousarray(comp.xy_unique[g0:g1]),
                starts=np.ascontiguousarray(red.group_idxs[g0:g1]).astype(int64),
                sizes=np.ascontiguousarray(n_reduced[g0:g1]).astype(int64),
                patterns=[np.ascontiguousarray(red.pattern_masks[g0:g1, w])
                          for w in range(self.n_words)],
                shifts=np.ascontiguousarray(shifts[g0:g1]),
                multipliers=np.ascontiguousarray(multipliers[g0:g1]),
            ))
        self._local = threading.local()

    # --------------------------------------------------------- pattern table
    @staticmethod
    def _pattern_subsets(masks: np.ndarray) -> np.ndarray:
        """``(U, 16)``: subset ``s`` of each one-word mask's set bits — the
        ``j``-th lowest bit is in it when bit ``j`` of ``s`` is set.  A mask
        of ``k < 4`` bits repeats its ``2^k`` subsets."""
        rest = masks.copy()
        subsets = np.zeros((len(masks), 1 << PATTERN_QUBITS), dtype=uint64)
        has_bit = (np.arange(1 << PATTERN_QUBITS)[:, None]
                   >> np.arange(PATTERN_QUBITS)[None, :]) & 1
        for j in range(PATTERN_QUBITS):
            bit = rest & (~rest + uint64(1))           # the lowest set bit (none: 0)
            rest ^= bit
            subsets[:, has_bit[:, j] == 1] |= bit[:, None]
        return subsets

    @staticmethod
    def _pattern(subsets: np.ndarray, multipliers: np.ndarray) -> np.ndarray:
        """The pattern index (``0 .. 15``) of shifted subsets under
        multipliers (broadcast): the top 4 bits of ``subset M`` (mod 2^64)
        — the multiply-shift of the kernel's ``_pair_coefficients``."""
        return (subsets * multipliers) >> uint64(64 - PATTERN_QUBITS)

    @classmethod
    def _pattern_multipliers(cls, subsets: np.ndarray) -> np.ndarray:
        """``(U,)`` uint64 multipliers whose :meth:`_pattern` is one-to-one
        over each mask's subsets, by a seeded search: sparse candidates
        (the AND of two random words: ~2 % of them separate 4 qubits, 3x
        the rate of dense ones), ``_SEARCH_CANDIDATES`` per round over the
        unresolved masks.  Every mask whose lowest bit is bit 0 has one
        (checked over all of them); fails loudly when a mask stays
        unresolved."""
        rng = np.random.default_rng(_SEARCH_SEED)
        # 2^k subsets, k the mask's bit count (all bits of subset 15)
        n_patterns = np.left_shift(1, np.bitwise_count(subsets[:, -1]))
        multipliers = np.zeros(len(subsets), dtype=uint64)
        todo = np.arange(len(subsets))
        for _ in range(_SEARCH_ROUNDS):
            if len(todo) == 0:
                return multipliers
            size = (len(todo), max(1, _SEARCH_CANDIDATES // len(todo)))
            cand = rng.integers(0, 1 << 64, size=size, dtype=uint64)
            cand &= rng.integers(0, 1 << 64, size=size, dtype=uint64)
            seen = np.zeros(size, dtype=uint64)       # bit p: pattern p taken
            for s in range(1 << PATTERN_QUBITS):
                seen |= np.left_shift(
                    uint64(1), cls._pattern(subsets[todo, s, None], cand))
            good = np.bitwise_count(seen) == n_patterns[todo, None]
            found = good.any(axis=1)
            multipliers[todo[found]] = cand[found, np.argmax(good[found], axis=1)]
            todo = todo[~found]
        if len(todo):
            raise RuntimeError(
                f"no one-to-one pattern multiplier found for pattern mask "
                f"{int(subsets[todo[0], -1]):#x} ({len(todo)} mask(s)) in "
                f"{_SEARCH_ROUNDS} rounds")
        return multipliers

    @staticmethod
    def _compile_pattern_table(comp: CompressedHamiltonian, red: ReducedTerms,
                               shifts: np.ndarray, subsets: np.ndarray,
                               pattern: np.ndarray) -> np.ndarray:
        """The pattern table: ``table[(r << 5) | (p << 1) | q]`` is
        ``(-1)^q Σ_{t in r} c_t (-1)^popcount(s & yz_t)`` for the subset
        ``s`` of pattern ``p`` (``subsets`` and ``pattern``: ``(G, 16)``,
        subsets shifted right by the group's ``shifts``) — each sign its own
        ``add.reduceat`` segment over ``±c_t`` in the reduced term's order,
        i.e. exactly the segment the reference sums for a hit whose
        sign-mask parity is ``q``.  Patterns no subset maps to stay 0
        (never read)."""
        n_groups = comp.n_groups
        group_of_term = np.repeat(np.arange(n_groups), np.diff(comp.idxs))[red.order]
        group_of_red = np.repeat(np.arange(n_groups), np.diff(red.group_idxs))
        # each term's YZ letters in its group's pattern word, shifted alike
        pattern_word = np.argmax(red.pattern_masks != 0, axis=1)
        yz = comp.yz_buf[red.order, pattern_word[group_of_term]]
        yz >>= shifts[group_of_term]
        coeffs = comp.coeffs_buf[red.order]
        offs = red.idxs[:-1]
        rows = np.arange(red.n_reduced) << _ROW_BITS
        table = np.zeros(red.n_reduced << _ROW_BITS, dtype=float64)
        for s in range(1 << PATTERN_QUBITS):
            x = subsets[:, s].take(group_of_term) & yz
            signed = coeffs * (1.0 - 2.0 * (np.bitwise_count(x) & 1))
            slot = rows | (pattern[:, s].take(group_of_red).astype(int64) << 1)
            table[slot] = np.add.reduceat(signed, offs)
            table[slot | 1] = np.add.reduceat(-signed, offs)
        return table

    # ---------------------------------------------------------- table index
    def _table_index(self, table: AmplitudeTable) -> _TableIndex:
        """The :class:`_TableIndex` of ``table``, cached until the table
        changes.

        Keyed by object identity through a weakref: a new table object (new
        iteration, moved parameters) recomputes; per-thread storage keeps
        thread-rank backends race-free on a shared plan.
        """
        cached = getattr(self._local, "table_cache", None)
        if cached is not None and cached[0]() is table:
            return cached[1]
        self._local.table_cache = None     # never two slot maps alive at once
        n_bits = max(table.n_entries * SLOTS_PER_KEY - 1, 1).bit_length()
        slots, shift = self._slot_map(table.keys, n_bits)
        index = _TableIndex(records=key_records(table.keys), slots=slots,
                            shift=shift, m=_log_amp_scale(table))
        self._local.table_cache = (weakref.ref(table), index)
        return index

    @classmethod
    def _slot_map(cls, keys: np.ndarray, n_bits: int) -> tuple[np.ndarray, uint64]:
        """``(slots, shift)``: ``2^n_bits`` int32 slots over ``(U, W)`` table
        keys, slot = the top ``n_bits`` bits of :meth:`_hash`.  A slot holds
        the row of the one key that hashes there, ``_EMPTY`` when none does
        and ``_SHARED`` when two or more do."""
        shift = uint64(64 - n_bits)
        slot = cls._hash(keys) >> shift
        rows = np.arange(len(keys), dtype=int32)
        slots = np.full(1 << n_bits, _EMPTY, dtype=int32)
        slots[slot] = rows
        # A slot two keys share keeps one row, whichever write landed last:
        # a key that reads back another row marks its slot shared.
        slots[slot[slots[slot] != rows]] = _SHARED
        return slots, shift

    @staticmethod
    def _hash(keys: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """``(M, W)`` uint64 rows -> ``(M,)`` multiplicative (Fibonacci) hash,
        folded over the words; the high bits are the well-mixed ones.
        Computed in place in ``out`` when given."""
        h = np.multiply(keys[:, 0], _HASH_MULTIPLIER, out=out)
        for w in range(1, keys.shape[1]):
            h ^= keys[:, w]
            h *= _HASH_MULTIPLIER
        return h

    @staticmethod
    def _hash_coupled(keys: np.ndarray, xy: np.ndarray,
                      out: np.ndarray) -> np.ndarray:
        """:meth:`_hash` of the ``b x gc`` coupled keys ``keys[s] ^ xy[g]``,
        flattened ``s``-major into ``out`` (``b gc`` entries): each word is
        XORed in as its two operands, never as a coupled key."""
        h = out.reshape(len(keys), len(xy))
        np.bitwise_xor(keys[:, None, 0], xy[None, :, 0], out=h)
        h *= _HASH_MULTIPLIER
        for w in range(1, keys.shape[1]):
            h ^= keys[:, None, w]
            h ^= xy[None, :, w]
            h *= _HASH_MULTIPLIER
        return out

    def _workspace(self, size: int) -> np.ndarray:
        """The first ``size`` entries of the per-thread uint64 workspace that
        holds the lookup's hashes, grown on demand and reused across chunks
        and calls."""
        buf = getattr(self._local, "hash_buf", None)
        if buf is None or buf.size < size:
            buf = self._local.hash_buf = np.empty(size, dtype=uint64)
        return buf[:size]

    # -------------------------------------------------------------- lookups
    def _lookup(self, index: _TableIndex, keys: np.ndarray,
                xy: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
        """``(flat, rows)``: the ascending positions of the ``(M, W)`` keys
        that are in the table, and their table rows — the hits of
        :func:`searchsorted_keys`, which returns ``rows`` at ``flat`` and
        ``-1`` everywhere else.  With ``(gc, W)`` flip masks ``xy`` the
        queries are the ``b x gc`` coupled keys ``keys[s] ^ xy[g]`` at
        ``flat = s gc + g``, never materialized: their hashes are folded
        straight from the two operands.

        One gather reads every key's slot, hashed in place in the per-thread
        workspace.  An empty slot is a miss; a slot holding a row is a
        candidate; a shared slot sends the key to the binary search on the
        record view.  Every candidate, searched or not, is then compared with
        its table key in full (a coupled one rebuilt from its ``(s, g)``), so
        a slot never decides a hit and the rows are the search's by
        construction.  Rows stay int32 (the slot map's type) until the hits
        are known.
        """
        if index.n_entries == 0:
            empty = np.zeros(0, dtype=int64)
            return empty, empty
        if xy is None:
            h = self._hash(keys, out=self._workspace(len(keys)))
        else:
            h = self._hash_coupled(keys, xy, self._workspace(len(keys) * len(xy)))
        h >>= index.shift
        cand = index.slots.take(h.view(int64))
        flat = np.flatnonzero(cand != _EMPTY)
        rows = cand.take(flat)
        if xy is None:
            found = keys.take(flat, axis=0)
        else:
            s, g = np.divmod(flat, len(xy))
            found = keys.take(s, axis=0)
            found ^= xy.take(g, axis=0)
        rec = key_records(found)
        shared = np.flatnonzero(rows == _SHARED)
        if len(shared):
            rows[shared] = np.minimum(
                np.searchsorted(index.records, rec[shared]), index.n_entries - 1)
        hit = index.records.take(rows) == rec
        return flat[hit], rows[hit].astype(int64)

    @staticmethod
    def _psi(index: _TableIndex, log_amps: np.ndarray,
             rows: np.ndarray) -> np.ndarray:
        """``ψ e^{-m}`` of the table ``rows``: evaluated on the gathered rows
        when they are fewer than the table's entries, else once over the
        whole table (kept in ``index``) and gathered — the same bits."""
        if index.psi is None:
            if len(rows) < index.n_entries:
                return _shifted_psi(log_amps[rows], index.m)
            index.psi = _shifted_psi(log_amps, index.m)
        return index.psi[rows]

    def _pair_coefficients(self, keys: np.ndarray, s_hit: np.ndarray,
                           g_hit: np.ndarray, cp: _GroupChunkScaffold) -> np.ndarray:
        """H_xx' of each hit pair (sample ``s_hit``, group ``cp.g0 + g_hit``)
        (FUSE): one ``add.reduceat`` segment per pair over its group's
        reduced terms, each read off the pattern table at the pair's
        pattern and the parity of ``x & sign_mask``.  The pattern is one
        multiply-shift of ``(x & pattern_mask) >> shift`` per pair (the
        words ORed first: one word holds the pattern qubits); the parity of
        a multi-word AND is the parity of the XOR of its words, read off one
        hardware popcount per reduced term.  Its reduced-term-length
        temporaries (the largest arrays of a call) die on return, before
        the next group chunk is looked up."""
        sizes = cp.sizes[g_hit]                      # reduced terms per pair
        ends = np.cumsum(sizes)
        offs = ends - sizes                          # segment starts
        words = [keys[:, w].take(s_hit) for w in range(self.n_words)]
        h = None                 # x & pattern: one word holds the pattern qubits
        for w, word in enumerate(words):
            part = word & cp.patterns[w].take(g_hit)
            if h is None:
                h = part
            else:
                h |= part
        h >>= cp.shifts.take(g_hit)
        h *= cp.multipliers.take(g_hit)
        h >>= uint64(64 - PATTERN_QUBITS)
        base = cp.starts[g_hit] - offs
        base <<= _ROW_BITS
        base |= h.view(int64) << 1
        # table index (r << 5) | (pattern << 1), r running over the
        # concatenated [start_p, start_p + size_p), built in place
        slot = np.arange(0, int(ends[-1]) << _ROW_BITS, 1 << _ROW_BITS)
        slot += np.repeat(base, sizes)
        red = slot >> _ROW_BITS
        x = None                            # the words of x & sign, XOR-folded
        for word, sign in zip(words, self.sign_cols):
            word = np.repeat(word, sizes)
            word &= sign.take(red)
            if x is None:
                x = word
            else:
                x ^= word
        par = np.bitwise_count(x)
        par &= 1
        slot |= par
        return np.add.reduceat(self.pattern_table.take(slot), offs)

    # --------------------------------------------------------------- kernel
    def local_energy(self, batch: SampleBatch, table: AmplitudeTable) -> np.ndarray:
        """The planned kernel — bit-identical to ``local_energy_vectorized``."""
        comp = self.comp
        keys_all = pack_bits(batch.bits)
        if keys_all.shape[1] != self.n_words:
            raise ValueError(
                f"batch packs to {keys_all.shape[1]} words, plan was compiled "
                f"for {self.n_words} (different qubit count?)"
            )
        sample_chunk = budgeted_sample_chunk(
            self.n_words, comp.n_groups, self.group_chunk, self.sample_chunk,
            self.memory_budget_bytes,
        )
        index = self._table_index(table)
        found, rows_self = self._lookup(index, keys_all)
        if len(found) != batch.n_unique:
            raise ValueError("amplitude table must contain every sample")
        inv_x_all = np.exp(index.m - table.log_amps[rows_self])   # e^m / ψ(x)

        eloc = np.full(batch.n_unique, comp.constant, dtype=complex128)
        for s0 in range(0, batch.n_unique, sample_chunk):
            s1 = min(s0 + sample_chunk, batch.n_unique)
            keys = keys_all[s0:s1]
            b = s1 - s0
            acc_re = np.zeros(b, dtype=float64)
            acc_im = np.zeros(b, dtype=float64)
            for cp in self.chunks:
                flat, rows = self._lookup(index, keys, cp.xy)
                if len(flat) == 0:
                    continue
                s_hit, g_hit = np.divmod(flat, cp.g1 - cp.g0)
                coef = self._pair_coefficients(keys, s_hit, g_hit, cp)
                psi = self._psi(index, table.log_amps, rows)
                acc_re += np.bincount(s_hit, weights=coef * psi.real, minlength=b)
                acc_im += np.bincount(s_hit, weights=coef * psi.imag, minlength=b)
            eloc[s0:s1] += (acc_re + 1j * acc_im) * inv_x_all[s0:s1]
            if self.diagonal is not None:
                eloc[s0:s1] += self.diagonal.energy(batch.bits[s0:s1])
        return eloc


def compile_eloc_plan(comp: CompressedHamiltonian, group_chunk: int = 512,
                      sample_chunk: int = 4096,
                      memory_budget_bytes: int | None = None) -> ElocPlan:
    """Compile an :class:`ElocPlan` (the canonical constructor spelling)."""
    return ElocPlan(comp, group_chunk=group_chunk, sample_chunk=sample_chunk,
                    memory_budget_bytes=memory_budget_bytes)


def local_energy_planned(
    comp: CompressedHamiltonian,
    batch: SampleBatch,
    table: AmplitudeTable,
    plan: ElocPlan | None = None,
) -> np.ndarray:
    """Run ``plan`` on one batch (function spelling of the production kernel).

    Chunking and the memory budget are properties of the plan.  With
    ``plan=None`` a throwaway default plan is compiled (correct, but the
    point of plans is reuse — drivers compile one per run).
    """
    if plan is None:
        plan = ElocPlan(comp)
    elif plan.comp is not comp:
        raise ValueError(
            "ElocPlan was compiled for a different CompressedHamiltonian; "
            "compile one plan per Hamiltonian"
        )
    return plan.local_energy(batch, table)


def local_energy(
    wf: NNQSWavefunction,
    comp: CompressedHamiltonian,
    batch: SampleBatch,
    mode: str = "exact",
    table: AmplitudeTable | None = None,
    memory_budget_bytes: int | None = None,
    plan: ElocPlan | None = None,
) -> tuple[np.ndarray, AmplitudeTable]:
    """High-level entry point: build/extend the table, then run the plan.

    ``mode='exact'`` extends the amplitude table with all coupled
    configurations (unbiased Eq. 4); ``mode='sample_aware'`` restricts the sum
    to the sampled set S (method (4) of Sec. 3.4 — cheap, slightly biased,
    exact in the limit where S covers the wave function's support).

    ``plan`` is the caller's compiled :class:`ElocPlan` (one per run or
    served model); without one a throwaway plan under ``memory_budget_bytes``
    is compiled for this call.  The budget also bounds the table extension.
    """
    if mode not in ("exact", "sample_aware"):
        raise ValueError(f"unknown local-energy mode {mode!r}")
    if table is None:
        table = build_amplitude_table(wf, batch)
    if mode == "exact":
        table = extend_amplitude_table(
            wf, comp, batch, table, memory_budget_bytes=memory_budget_bytes
        )
    if plan is None:
        plan = ElocPlan(comp, memory_budget_bytes=memory_budget_bytes)
    return local_energy_planned(comp, batch, table, plan=plan), table
