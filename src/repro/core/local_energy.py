"""Local energy evaluation: E_loc(x) = sum_x' H_xx' Psi(x')/Psi(x)  (Eq. 4).

One production path and one reference (Sec. 3.4, Algorithm 2):

* :class:`ElocPlan` — the kernel every run, driver and server reaches.  A
  plan is compiled once per ``(CompressedHamiltonian, chunking)``: group
  sizes, CSR chunk scaffolds and the packed record dtype behind the binary
  search are hoisted out of the per-call path, a per-table membership map
  spares the coupled keys that are surely absent the search, and per-thread
  workspaces are reused across iterations.  :func:`local_energy_planned` and
  :func:`local_energy` are thin wrappers that run a plan (compiling a
  throwaway one when the caller has none).
* :func:`local_energy_vectorized` — the stateless reference, for testing
  purposes only: the same sample-aware + fused + LUT arithmetic as chunked
  array operations with no plan, no membership map and no caches.  The
  planned kernel is bit-identical to it (the map changes *which* keys are
  searched, never an index), which is what the tests and the benchmark's
  set-up check assert.

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

from repro.backend import xp
from repro.backend.dtypes import bool_, complex128, int64, uint64
from repro.core.sampler import SampleBatch
from repro.core.wavefunction import NNQSWavefunction
from repro.hamiltonian.compressed import CompressedHamiltonian
from repro.utils.bitstrings import (
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
    "merge_amplitude_tables",
    "normalize_amplitude_table",
    "local_energy_vectorized",
    "ElocPlan",
    "compile_eloc_plan",
    "local_energy_planned",
    "budgeted_sample_chunk",
    "local_energy",
]


@dataclass
class AmplitudeTable:
    """The id_lut / wf_lut pair of Algorithm 2 (sorted keys + log amplitudes)."""

    keys: xp.ndarray       # (U, W) uint64, lexsorted
    log_amps: xp.ndarray   # (U,) complex128 — log Psi of each key

    @property
    def n_entries(self) -> int:
        return len(self.log_amps)


def build_amplitude_table(wf: NNQSWavefunction, batch: SampleBatch) -> AmplitudeTable:
    """Tabulate log Psi of the unique samples, lexsorted for binary search."""
    keys = pack_bits(batch.bits)
    log_amps = wf.log_amplitudes(batch.bits)
    order = lexsort_keys(keys)
    return AmplitudeTable(keys=keys[order], log_amps=log_amps[order])


def normalize_amplitude_table(table: AmplitudeTable) -> AmplitudeTable:
    """Restore the lexsorted-unique invariant of an amplitude table.

    Returns ``table`` itself when the invariant already holds (the common
    case — one vectorized monotonicity check, no copies).  Otherwise the
    keys are lexsorted and internal duplicates collapsed, keeping the first
    occurrence in sorted order (all duplicates of a key carry the same
    ``log Psi`` under one parameter vector, so the choice is value-neutral).
    """
    if table.n_entries <= 1:
        return table
    keys = table.keys
    # Vectorized lexicographic prev < cur in the lexsort_keys order (word 0
    # minor, last word major) — structured void dtypes have no ordering
    # ufunc, so the word loop below is the comparison; it must stay
    # consistent with lexsort_keys / searchsorted_keys.
    prev, cur = keys[:-1], keys[1:]
    gt = xp.zeros(len(keys) - 1, dtype=bool_)   # prev > cur so far (majors)
    strictly_less = xp.zeros(len(keys) - 1, dtype=bool_)
    for w in range(keys.shape[1] - 1, -1, -1):
        strictly_less |= (~gt) & (prev[:, w] < cur[:, w])
        gt |= (~strictly_less) & (prev[:, w] > cur[:, w])
    if bool(xp.all(strictly_less)):
        return table
    order = lexsort_keys(keys)
    keys = keys[order]
    amps = table.log_amps[order]
    keep = xp.ones(len(keys), dtype=bool_)
    keep[1:] = xp.any(keys[1:] != keys[:-1], axis=1)
    return AmplitudeTable(keys=keys[keep], log_amps=amps[keep])


def merge_amplitude_tables(a: AmplitudeTable, b: AmplitudeTable) -> AmplitudeTable:
    """Union of two amplitude tables (both must come from the same parameters).

    Entries of ``a`` win on duplicate keys; the result is lexsorted and
    duplicate-free, ready for binary search.  Inputs that violate the
    sorted-unique invariant (unsorted keys, or ``b`` duplicating keys within
    itself) are normalized first — a silent duplicate-key table would make
    every later binary search nondeterministic about which entry it hits.

    This is the serving-layer primitive: the
    :class:`~repro.serve.WavefunctionService` accumulates one table per model
    version across ``local_energy`` requests, so amplitudes of previously seen
    configurations are never recomputed.
    """
    a = normalize_amplitude_table(a)
    b = normalize_amplitude_table(b)
    if a.n_entries == 0:
        return b
    if b.n_entries == 0:
        return a
    dup = searchsorted_keys(a.keys, b.keys) >= 0
    if xp.all(dup):
        return a
    keys = xp.concatenate([a.keys, b.keys[~dup]], axis=0)
    amps = xp.concatenate([a.log_amps, b.log_amps[~dup]])
    order = lexsort_keys(keys)
    return AmplitudeTable(keys=keys[order], log_amps=amps[order])


def extend_amplitude_table(
    wf: NNQSWavefunction,
    comp: CompressedHamiltonian,
    batch: SampleBatch,
    table: AmplitudeTable,
    max_extra: int = 2_000_000,
    memory_budget_bytes: int | None = None,
) -> AmplitudeTable:
    """Add every sector-valid coupled configuration to the amplitude table.

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
        flips = unique_keys(flips)
        miss = flips[searchsorted_keys(table.keys, flips) < 0]
        if len(miss):
            missing_parts.append(miss)
    if not missing_parts:
        return table
    missing = xp.concatenate(missing_parts, axis=0)
    if len(missing_parts) > 1:
        missing = unique_keys(missing)  # dedup across row chunks
    bits = unpack_bits(missing, comp.n_qubits)
    if wf.constraint is not None:
        bits = bits[wf.constraint.validate_bits(bits)]
    if len(bits) > max_extra:
        raise ValueError(
            f"{len(bits)} coupled configurations exceed max_extra={max_extra}; "
            "use sample-aware mode for this system size"
        )
    if len(bits) == 0:
        return table
    log_amps = wf.log_amplitudes(bits)
    all_keys = xp.concatenate([table.keys, pack_bits(bits)], axis=0)
    all_amps = xp.concatenate([table.log_amps, log_amps])
    order = lexsort_keys(all_keys)
    return AmplitudeTable(keys=all_keys[order], log_amps=all_amps[order])


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

    The kernel's peak transient is the ``(sample_chunk, group_chunk, W)``
    uint64 flip array plus its ``(sample_chunk, group_chunk)`` int64 lookup —
    ``group_chunk * (W + 1) * 8`` bytes per sample row.  Wide Hamiltonians
    (large group counts, Fig. 9's memory story) can exceed a host budget at
    the default chunking; the budget caps the row count instead of failing.
    """
    if memory_budget_bytes is None:
        return sample_chunk
    g = min(group_chunk, n_groups)
    bytes_per_sample = max(g * (n_words + 1) * 8, 1)
    return int(max(1, min(sample_chunk, memory_budget_bytes // bytes_per_sample)))


def local_energy_vectorized(
    comp: CompressedHamiltonian,
    batch: SampleBatch,
    table: AmplitudeTable,
    group_chunk: int = 512,
    sample_chunk: int = 4096,
    memory_budget_bytes: int | None = None,
) -> xp.ndarray:
    """The reference kernel — for testing purposes only.

    Stateless SA+FUSE+LUT arithmetic: no plan, no membership map, no caches; what
    :meth:`ElocPlan.local_energy` must equal bit for bit.

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
    idx_self = searchsorted_keys(table.keys, keys_all)
    if xp.any(idx_self < 0):
        raise ValueError("amplitude table must contain every sample")
    la_self_all = table.log_amps[idx_self]

    eloc = xp.full(batch.n_unique, comp.constant, dtype=complex128)
    group_sizes = xp.diff(comp.idxs).astype(int64)

    for s0 in range(0, batch.n_unique, sample_chunk):
        s1 = min(s0 + sample_chunk, batch.n_unique)
        keys = keys_all[s0:s1]
        la_x = la_self_all[s0:s1]
        b = s1 - s0
        acc = xp.zeros(b, dtype=complex128)
        for g0 in range(0, comp.n_groups, group_chunk):
            g1 = min(g0 + group_chunk, comp.n_groups)
            # Coupled configurations + lookup (cheap: XOR + binary search).
            flips = keys[:, None, :] ^ comp.xy_unique[None, g0:g1, :]
            idx = searchsorted_keys(table.keys, flips.reshape(-1, keys.shape[1]))
            idx = idx.reshape(b, g1 - g0)
            s_hit, g_hit = xp.nonzero(idx >= 0)
            if len(s_hit) == 0:
                continue
            # Coefficients only for the (sample, group) pairs actually found —
            # the vectorized counterpart of Algorithm 2's continue-on-missing.
            g_abs = g_hit + g0
            sizes = group_sizes[g_abs]                       # terms per pair
            starts = comp.idxs[g_abs]
            # term index array: concat of [starts_p, starts_p + sizes_p)
            total = int(sizes.sum())
            term_idx = xp.repeat(starts, sizes) + (
                xp.arange(total) - xp.repeat(xp.cumsum(sizes) - sizes, sizes)
            )
            pair_of_term = xp.repeat(xp.arange(len(s_hit)), sizes)
            par = (
                parity64(keys[s_hit][pair_of_term] & comp.yz_buf[term_idx]).sum(axis=1)
                & 1
            )
            signed = comp.coeffs_buf[term_idx] * (1.0 - 2.0 * par)
            coef = xp.bincount(pair_of_term, weights=signed, minlength=len(s_hit))
            ratios = xp.exp(table.log_amps[idx[s_hit, g_hit]] - la_x[s_hit])
            contrib = coef * ratios
            acc += xp.bincount(s_hit, weights=contrib.real, minlength=b) + 1j * xp.bincount(
                s_hit, weights=contrib.imag, minlength=b
            )
        eloc[s0:s1] += acc
    return eloc


# --------------------------------------------------------------------------
# Production: compiled plans — Hamiltonian-static precomputation + membership map
# --------------------------------------------------------------------------
# 2^64 / golden ratio: the multiplicative-hash constant of the membership map.
_HASH_MULTIPLIER = uint64(0x9E3779B97F4A7C15)


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
    xy: xp.ndarray       # (gc, W) uint64, contiguous copy of the flip masks
    starts: xp.ndarray   # (gc,) int64 — comp.idxs[g0:g1]
    sizes: xp.ndarray    # (gc,) int64 — terms per group


class ElocPlan:
    """A compiled local-energy plan: one per ``(CompressedHamiltonian,
    chunking config)``, reused across every kernel call of a run.

    The plan hoists all Hamiltonian-static work out of the per-iteration
    path (the "compile once, evaluate many" shape of ipie's propagator
    pre-build):

    * group sizes and per-group-chunk CSR scaffolds (``starts`` / ``sizes``
      and contiguous flip-mask slices);
    * the packed record dtype behind :func:`searchsorted_keys`, plus a
      cached record view and membership map of the current amplitude table
      (rebuilt only when the table object changes — i.e. when the parameters
      moved);
    * a per-thread workspace (the ``(sample_chunk, group_chunk, W)`` flip
      buffer) reused across iterations instead of reallocated per chunk.

    :meth:`local_energy` is the planned kernel: identical arithmetic to
    :func:`local_energy_vectorized` except that :meth:`_lookup` reads the
    table's membership map first and binary-searches only the coupled keys
    that may be present.  Results are bit-identical: the map decides which
    keys are searched, never what a search returns, and the accumulation
    order is unchanged.

    Thread safety: the compiled scaffolds are immutable; the workspace and
    the table-record cache live in ``threading.local``, so thread-rank
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
        self.group_sizes = xp.diff(comp.idxs).astype(int64)
        self.chunks: list[_GroupChunkScaffold] = []
        for g0 in range(0, comp.n_groups, group_chunk):
            g1 = min(g0 + group_chunk, comp.n_groups)
            self.chunks.append(_GroupChunkScaffold(
                g0=g0, g1=g1,
                xy=xp.ascontiguousarray(comp.xy_unique[g0:g1]),
                starts=xp.ascontiguousarray(comp.idxs[g0:g1]).astype(int64),
                sizes=xp.ascontiguousarray(self.group_sizes[g0:g1]),
            ))
        # The searchsorted_keys record dtype, compiled once (multi-word keys
        # compare with the *last* word most significant — see lexsort_keys).
        self._record_dtype = (
            None if self.n_words == 1
            else xp.dtype([(f"w{i}", uint64) for i in range(self.n_words)])
        )
        self._local = threading.local()

    # ------------------------------------------------------------ record keys
    def _as_records(self, keys: xp.ndarray) -> xp.ndarray:
        """``(M, W)`` uint64 rows -> ``(M,)`` scalar/record keys (LUT order)."""
        if self.n_words == 1:
            return xp.ascontiguousarray(keys[:, 0])
        return xp.ascontiguousarray(keys[:, ::-1]).view(self._record_dtype).ravel()

    def _table_records(self, table: AmplitudeTable):
        """``(records, member, shift)`` of ``table.keys``, cached until the
        table changes: the record view the binary search runs against, and
        the membership map :meth:`_lookup` reads first (``member[hash >>
        shift]``, ~32 slots per key, so ~3 % of absent keys pass).

        Keyed by object identity through a weakref: a new table object (new
        iteration, moved parameters) recomputes; per-thread storage keeps
        thread-rank backends race-free on a shared plan.
        """
        cached = getattr(self._local, "table_cache", None)
        if cached is not None and cached[0]() is table:
            return cached[1]
        records = self._as_records(table.keys)
        n_bits = max(len(records) * 32 - 1, 1).bit_length()
        shift = uint64(64 - n_bits)
        member = xp.zeros(1 << n_bits, dtype=bool_)
        member[self._hash(table.keys) >> shift] = True
        self._local.table_cache = (weakref.ref(table), (records, member, shift))
        return records, member, shift

    @staticmethod
    def _hash(keys: xp.ndarray) -> xp.ndarray:
        """``(M, W)`` uint64 rows -> ``(M,)`` multiplicative (Fibonacci) hash,
        folded over the words; the high bits are the well-mixed ones."""
        h = keys[:, 0] * _HASH_MULTIPLIER
        for w in range(1, keys.shape[1]):
            h = (h ^ keys[:, w]) * _HASH_MULTIPLIER
        return h

    def _flip_buffer(self, rows: int, groups: int) -> xp.ndarray:
        """A ``(rows, groups, W)`` view of the per-thread XOR workspace."""
        need = rows * groups * self.n_words
        buf = getattr(self._local, "flip_buf", None)
        if buf is None or buf.size < need:
            buf = xp.empty(need, dtype=uint64)
            self._local.flip_buf = buf
        return buf[:need].reshape(rows, groups, self.n_words)

    # -------------------------------------------------------------- lookups
    def _lookup(self, table: AmplitudeTable, keys: xp.ndarray) -> xp.ndarray:
        """Index of each ``(M, W)`` key in ``table``, ``-1`` when absent (the
        contract of :func:`searchsorted_keys`).

        Most coupled keys are not in the table (96 % on N2 sample-aware, 78 %
        against C2's extended table), and a binary search pays its full
        depth to find that out.  The table's membership map answers "surely
        absent" in one gather; only the survivors are searched.  The map can
        only pass a key on to the search, never decide a hit, so the result
        is index-identical to searching every key.
        """
        base, member, shift = self._table_records(table)
        out = xp.full(len(keys), -1, dtype=int64)
        if len(base) == 0:
            return out
        maybe = xp.flatnonzero(member[self._hash(keys) >> shift])
        rec = self._as_records(keys[maybe])
        pos = xp.minimum(xp.searchsorted(base, rec), len(base) - 1)
        out[maybe] = xp.where(base[pos] == rec, pos, -1)
        return out

    @staticmethod
    def _fold_parity(a: xp.ndarray, b: xp.ndarray) -> xp.ndarray:
        """Rowwise ``popcount(a & b) mod 2`` for ``(T, W)`` uint64 rows.

        parity of a multi-word AND = parity of the XOR of its words, folded
        with the standard shift-XOR cascade — a handful of vectorized uint64
        ops instead of per-byte popcount table gathers.  Integer-identical
        to ``parity64(a & b).sum(axis=1) & 1``.
        """
        x = a[:, 0] & b[:, 0]
        for w in range(1, a.shape[1]):
            x = x ^ (a[:, w] & b[:, w])
        for s in (32, 16, 8, 4, 2, 1):
            x = x ^ (x >> uint64(s))
        return (x & uint64(1)).astype(int64)

    # --------------------------------------------------------------- kernel
    def local_energy(self, batch: SampleBatch, table: AmplitudeTable) -> xp.ndarray:
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
        idx_self = self._lookup(table, keys_all)
        if xp.any(idx_self < 0):
            raise ValueError("amplitude table must contain every sample")
        la_self_all = table.log_amps[idx_self]

        eloc = xp.full(batch.n_unique, comp.constant, dtype=complex128)
        for s0 in range(0, batch.n_unique, sample_chunk):
            s1 = min(s0 + sample_chunk, batch.n_unique)
            keys = keys_all[s0:s1]
            la_x = la_self_all[s0:s1]
            b = s1 - s0
            acc = xp.zeros(b, dtype=complex128)
            for cp in self.chunks:
                gc = cp.g1 - cp.g0
                flips = self._flip_buffer(b, gc)
                xp.bitwise_xor(keys[:, None, :], cp.xy[None, :, :], out=flips)
                idx = self._lookup(
                    table, flips.reshape(-1, self.n_words)
                ).reshape(b, gc)
                s_hit, g_hit = xp.nonzero(idx >= 0)
                if len(s_hit) == 0:
                    continue
                sizes = cp.sizes[g_hit]                          # terms per pair
                starts = cp.starts[g_hit]
                total = int(sizes.sum())
                term_idx = xp.repeat(starts, sizes) + (
                    xp.arange(total) - xp.repeat(xp.cumsum(sizes) - sizes, sizes)
                )
                pair_of_term = xp.repeat(xp.arange(len(s_hit)), sizes)
                par = self._fold_parity(
                    keys[s_hit[pair_of_term]], comp.yz_buf[term_idx]
                )
                signed = comp.coeffs_buf[term_idx] * (1.0 - 2.0 * par)
                coef = xp.bincount(pair_of_term, weights=signed, minlength=len(s_hit))
                ratios = xp.exp(table.log_amps[idx[s_hit, g_hit]] - la_x[s_hit])
                contrib = coef * ratios
                acc += xp.bincount(s_hit, weights=contrib.real, minlength=b) + 1j * xp.bincount(
                    s_hit, weights=contrib.imag, minlength=b
                )
            eloc[s0:s1] += acc
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
) -> xp.ndarray:
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
) -> tuple[xp.ndarray, AmplitudeTable]:
    """High-level entry point: build/extend the table, then run the plan.

    ``mode='exact'`` extends the amplitude table with all coupled
    configurations (unbiased Eq. 4); ``mode='sample_aware'`` restricts the sum
    to the sampled set S (method (4) of Sec. 3.4 — cheap, slightly biased,
    exact in the limit where S covers the wave function's support).

    ``plan`` is the caller's compiled :class:`ElocPlan` (one per run or
    served model); without one a throwaway plan under ``memory_budget_bytes``
    is compiled for this call.  The budget also bounds the table extension.
    """
    if table is None:
        table = build_amplitude_table(wf, batch)
    if mode == "exact":
        table = extend_amplitude_table(
            wf, comp, batch, table, memory_budget_bytes=memory_budget_bytes
        )
    elif mode != "sample_aware":
        raise ValueError(f"unknown local-energy mode {mode!r}")
    if plan is None:
        plan = ElocPlan(comp, memory_budget_bytes=memory_budget_bytes)
    return local_energy_planned(comp, batch, table, plan=plan), table
