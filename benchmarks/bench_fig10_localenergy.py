"""Fig. 10: speedups of the local-energy optimization ladder.

The ladder of Sec. 3.4 — each rung *adds* one of the paper's methods on top
of the previous one, so the measured speedups are cumulative:

* ``local_energy_baseline``    — "bare CPU": per-term Python loops over the
  Fig. 6(b) layout, materializing every coupled configuration (one record
  per Pauli string, duplicates included) before a Python-dict lookup.
* ``local_energy_sa_fuse``     — + methods (2) "compression" and (4) "sample
  aware": compressed XY groups visit each unique coupled configuration once
  with fused coefficient accumulation, lookups restricted to the sampled set
  S; configurations in the pre-LUT boolean layout of Fig. 7.
* ``local_energy_sa_fuse_lut`` — + method (5) "LUT": configurations packed
  into sorted integer keys, amplitudes found by binary search (Algorithm 2's
  ``binary_find``), still Python loops over samples and groups.
* ``local_energy_vectorized``  — + method (3) "batch parallelism": the same
  arithmetic as chunked array operations over the batch (the paper's GPU
  level; substitution documented in DESIGN.md).  The library's reference.
* ``ElocPlan.local_energy``    — + compiled plan, slot map before the search
  (Hamiltonian-static work hoisted out of the call path, coupled keys found
  in one gather with the binary search kept for shared slots, the hits
  returned as a list).  The library's production kernel.  Both batch rungs
  accumulate the ψ product (one ``exp`` per coupled entry and one per
  sample, not one per pair).

The three scalar rungs exist only to be measured, so they are defined here;
the two batch rungs are :mod:`repro.core.local_energy`.  Measured on
C2/STO-3G by default (LiCl and C2H4O in full mode, as in the paper), with
unique samples drawn from a warmed-up QiankunNet.

Shape to reproduce: monotone speedup ordering with the batch kernels orders
of magnitude above the scalar levels, the plan rung faster than the
plain vectorized kernel at bit-identical values, and all five rungs agreeing
to 1e-10 on the same rows (``ladder_values``).

CI smoke: ``python benchmarks/bench_fig10_localenergy.py --smoke`` runs the
two batch rungs only on a small C2 batch, asserts the plan kernel is
no slower than the vectorized one and allocates no more (tracemalloc peak
of one call, the plan's workspaces included; values bit-identical), and
records the measured ratio and peaks to ``benchmarks/results/``.
"""
from __future__ import annotations

import sys
import time
import tracemalloc
from bisect import bisect_left
from pathlib import Path

if __name__ == "__main__":  # bare-script invocation: make src/ importable
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np

from reporting import format_table, registry
from repro.chem import build_problem
from repro.core import (
    AmplitudeTable,
    ElocPlan,
    build_amplitude_table,
    build_qiankunnet,
    batch_autoregressive_sample,
    local_energy_vectorized,
    pretrain_to_reference,
)
from repro.core.sampler import SampleBatch
from repro.hamiltonian import build_reference, compress_hamiltonian
from repro.hamiltonian.compressed import (
    CompressedHamiltonian,
    ReferenceHamiltonianData,
)
from repro.utils.bitstrings import keys_to_ints, pack_bits, unpack_bits


# --------------------------------------------------------------------------
# The scalar rungs of the ladder.  They are the subject of this measurement
# and nothing under src/ imports them; tests load them from this file.
# --------------------------------------------------------------------------
def amplitude_dict(table: AmplitudeTable) -> dict[int, complex]:
    """Python-dict view of an amplitude table (the non-LUT rungs' lookup)."""
    return dict(zip(keys_to_ints(table.keys), table.log_amps))


# --------------------------------------------------------------------------
# Level 0: bare-CPU baseline (Fig. 6(b) layout, term-by-term, dict lookup)
# --------------------------------------------------------------------------
def local_energy_baseline(
    ref: ReferenceHamiltonianData,
    batch: SampleBatch,
    amp_dict: dict[int, complex],
) -> np.ndarray:
    """The "bare CPU" level of Fig. 10: per-term Python loops, no SA/FUSE/LUT."""
    n_words = ref.xy.shape[1]
    # Per-term integer masks and Y phases (independent of the samples).
    a_masks, b_masks, phases = [], [], []
    for k in range(ref.n_terms):
        a = b = 0
        for w in range(n_words):
            a |= int(ref.xy[k, w]) << (64 * w)
            b |= int(ref.yz[k, w]) << (64 * w)
        a_masks.append(a)
        b_masks.append(b)
        phases.append((-1.0) ** (ref.y_occ[k] // 2))
    eloc = np.zeros(batch.n_unique, dtype=np.complex128)
    keys = pack_bits(batch.bits)
    for s in range(batch.n_unique):
        x = 0
        for w in range(n_words):
            x |= int(keys[s, w]) << (64 * w)
        la_x = amp_dict[x]
        # No FUSE: materialize every coupled configuration with its
        # coefficient (one record per Pauli string — duplicates included,
        # the O(N_h) memory footprint Sec. 3.4 method (2) eliminates).
        coupled: list[tuple[int, float]] = []
        for k in range(ref.n_terms):
            x2 = x ^ a_masks[k]
            sign = -1.0 if bin(b_masks[k] & x).count("1") % 2 else 1.0
            coupled.append((x2, ref.coeffs[k] * phases[k] * sign))
        # No SA dedup: every record triggers its own amplitude lookup (the
        # compressed structure would visit each unique x' exactly once).
        acc = 0.0 + 0.0j
        for x2, coef in coupled:
            la = amp_dict.get(x2)
            if la is not None:
                acc += coef * np.exp(la - la_x)
        eloc[s] = acc + ref.constant
    return eloc


# --------------------------------------------------------------------------
# Level 1: SA + FUSE (compressed groups, fused accumulation, boolean storage)
# --------------------------------------------------------------------------
def local_energy_sa_fuse(
    comp: CompressedHamiltonian,
    batch: SampleBatch,
    amp_dict: dict[int, complex],
) -> np.ndarray:
    """Methods (2)+(4): fused accumulation over compressed XY groups.

    Configurations are handled in the paper's pre-LUT representation —
    "the samples generated on each GPU are stored as boolean lists" (Fig. 7)
    — so every coupled-state lookup XORs a boolean array and hashes it; the
    LUT level below replaces this with packed integers + binary search.
    """
    n = comp.n_qubits
    xy_bits = unpack_bits(comp.xy_unique, n)          # (G, N) uint8 flip masks
    yz_bits = unpack_bits(comp.yz_buf, n)             # (K, N) uint8 sign masks
    idxs = comp.idxs
    coeffs = comp.coeffs_buf
    # Boolean-keyed amplitude map (bytes of the uint8 bit array): repack the
    # integer keys into (U, W) uint64 words, then one vectorized unpack —
    # O(U*W) word extractions instead of O(U*N) per-bit Python work.
    bool_dict: dict[bytes, complex] = {}
    if amp_dict:
        items = list(amp_dict.items())
        key_arr = np.array([k for k, _ in items], dtype=object)
        n_words = (n + 63) // 64
        mask64 = (1 << 64) - 1
        packed = np.zeros((len(items), n_words), dtype=np.uint64)
        for w in range(n_words):
            packed[:, w] = ((key_arr >> (64 * w)) & mask64).astype(np.uint64)
        key_bits = unpack_bits(packed, n)             # (U, N) uint8, vectorized
        for i, (_, la) in enumerate(items):
            bool_dict[key_bits[i].tobytes()] = la
    eloc = np.zeros(batch.n_unique, dtype=np.complex128)
    for s in range(batch.n_unique):
        x_bits = batch.bits[s]
        la_x = bool_dict[x_bits.tobytes()]
        acc = 0.0 + 0.0j
        for g in range(len(xy_bits)):
            x2 = np.bitwise_xor(x_bits, xy_bits[g])
            la = bool_dict.get(x2.tobytes())
            if la is None:
                continue  # sample-aware: skip configurations outside S
            coef = 0.0
            for k in range(idxs[g], idxs[g + 1]):
                par = int(np.bitwise_and(x_bits, yz_bits[k]).sum()) & 1
                coef += -coeffs[k] if par else coeffs[k]
            acc += coef * np.exp(la - la_x)
        eloc[s] = acc + comp.constant
    return eloc


# --------------------------------------------------------------------------
# Level 2: SA + FUSE + LUT (packed sorted integer keys + binary search)
# --------------------------------------------------------------------------
def prepare_scalar_views(comp: CompressedHamiltonian, table: AmplitudeTable):
    """Precompute the packed-integer structures of method (5) once.

    Returns ``(xy_ints, yz_ints, id_lut, wf_lut)``: Python-int mask views and
    the sorted integer key list (id_lut) aligned with the amplitude records
    (wf_lut) — the data layout of Algorithm 2.
    """
    return (keys_to_ints(comp.xy_unique), keys_to_ints(comp.yz_buf),
            keys_to_ints(table.keys), table.log_amps)


def local_energy_sa_fuse_lut(
    comp: CompressedHamiltonian,
    batch: SampleBatch,
    table: AmplitudeTable,
    views=None,
) -> np.ndarray:
    """Method (5) added: packed u64 keys, ``bisect`` = Algorithm 2's binary_find."""
    xy, yz, id_lut, wf_lut = views if views is not None else prepare_scalar_views(comp, table)
    idxs = comp.idxs
    coeffs = comp.coeffs_buf
    keys = pack_bits(batch.bits)
    n_words = keys.shape[1]
    eloc = np.zeros(batch.n_unique, dtype=np.complex128)
    n_entries = len(id_lut)
    for s in range(batch.n_unique):
        x = 0
        for w in range(n_words):
            x |= int(keys[s, w]) << (64 * w)
        pos = bisect_left(id_lut, x)
        la_x = wf_lut[pos]
        acc = 0.0 + 0.0j
        for g in range(len(xy)):
            x2 = x ^ xy[g]
            pos = bisect_left(id_lut, x2)
            if pos >= n_entries or id_lut[pos] != x2:
                continue
            coef = 0.0
            for k in range(idxs[g], idxs[g + 1]):
                coef += coeffs[k] if bin(x & yz[k]).count("1") % 2 == 0 else -coeffs[k]
            acc += coef * np.exp(wf_lut[pos] - la_x)
        eloc[s] = acc + comp.constant
    return eloc


def ladder_values(comp, ref, batch, table) -> dict[str, np.ndarray]:
    """Local energies of ``batch`` from every rung of the ladder."""
    amp_dict = amplitude_dict(table)
    return {
        "baseline": local_energy_baseline(ref, batch, amp_dict),
        "sa_fuse": local_energy_sa_fuse(comp, batch, amp_dict),
        "sa_fuse_lut": local_energy_sa_fuse_lut(comp, batch, table),
        "vectorized": local_energy_vectorized(comp, batch, table),
        "planned": ElocPlan(comp).local_energy(batch, table),
    }


def _prepare(name: str, n_samples: int = 10**6, seed: int = 7):
    prob = build_problem(name, "sto-3g")
    wf = build_qiankunnet(prob.n_qubits, prob.n_up, prob.n_dn, seed=seed)
    pretrain_to_reference(wf, prob.hf_bits, n_steps=60, target_prob=0.2)
    rng = np.random.default_rng(seed)
    batch = batch_autoregressive_sample(wf, n_samples, rng)
    comp = compress_hamiltonian(prob.hamiltonian)
    ref = build_reference(prob.hamiltonian)
    table = build_amplitude_table(wf, batch)
    return prob, comp, ref, batch, table, wf


def _time_per_sample(fn, batch, n_max: int, *args) -> float:
    """Run ``fn`` on at most n_max samples; return seconds per sample."""
    sub = SampleBatch(bits=batch.bits[:n_max], weights=batch.weights[:n_max])
    t0 = time.perf_counter()
    fn(sub, *args)
    return (time.perf_counter() - t0) / sub.n_unique


def _best_of(fn, repeats: int = 3) -> float:
    """Minimum wall time of ``repeats`` calls (plan/table caches warm)."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return min(times)


def _traced(fn):
    """``(fn(), tracemalloc peak bytes of the call)``."""
    tracemalloc.start()
    try:
        return fn(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def measure_dedup_plan(comp, batch, table, repeats: int = 3) -> dict:
    """Vectorized vs. planned kernel on one batch: times, tracemalloc peaks
    and bit-identity.

    The plan is compiled once outside the timed region (that is the point:
    compile once, evaluate many); both kernels then run ``repeats`` times
    and the fastest wall time of each is compared.  Each peak is one call
    on its own, the plan's first on a fresh plan, so its per-thread
    workspace and table index count.
    """
    e_vec, peak_vec = _traced(lambda: local_energy_vectorized(comp, batch, table))
    plan = ElocPlan(comp)
    e_plan, peak_plan = _traced(lambda: plan.local_energy(batch, table))
    identical = bool(np.array_equal(e_vec, e_plan))
    t_vec = _best_of(lambda: local_energy_vectorized(comp, batch, table), repeats)
    t_plan = _best_of(lambda: plan.local_energy(batch, table), repeats)
    return {
        "t_vectorized": t_vec,
        "t_planned": t_plan,
        "speedup": t_vec / t_plan,
        "bit_identical": identical,
        "peak_vectorized": peak_vec,
        "peak_planned": peak_plan,
        "n_unique": batch.n_unique,
        "table_entries": table.n_entries,
    }


def test_fig10_local_energy_speedups(benchmark, full):
    molecules = ["C2"] + (["LiCl", "C2H4O"] if full else [])
    rows = []
    for name in molecules:
        prob, comp, ref, batch, table, _ = _prepare(name)
        amp_dict = amplitude_dict(table)
        views = prepare_scalar_views(comp, table)
        nb = min(batch.n_unique, 16)    # baseline is very slow — subsample
        ns = min(batch.n_unique, 64)    # scalar SA levels
        t_base = _time_per_sample(
            lambda b: local_energy_baseline(ref, b, amp_dict), batch, nb
        )
        t_sa = _time_per_sample(
            lambda b: local_energy_sa_fuse(comp, b, amp_dict), batch, ns
        )
        t_lut = _time_per_sample(
            lambda b: local_energy_sa_fuse_lut(comp, b, table, views=views), batch, ns
        )
        t_vec = _time_per_sample(
            lambda b: local_energy_vectorized(comp, b, table), batch, batch.n_unique
        )
        plan = ElocPlan(comp)
        t_plan = _time_per_sample(
            lambda b: plan.local_energy(b, table), batch, batch.n_unique
        )
        # The top rung must be a pure win: same numbers, less time.
        res = measure_dedup_plan(comp, batch, table)
        assert res["bit_identical"], f"{name}: planned kernel drifted from vectorized"
        # ... and the ladder is one computation done five ways.
        sub = SampleBatch(bits=batch.bits[:nb], weights=batch.weights[:nb])
        values = ladder_values(comp, ref, sub, table)
        for rung, eloc in values.items():
            np.testing.assert_allclose(
                eloc, values["vectorized"], atol=1e-10, rtol=0,
                err_msg=f"{name}: rung {rung!r} disagrees with the reference",
            )
        rows.append(
            [name, prob.n_qubits, prob.hamiltonian.n_terms, batch.n_unique,
             f"{t_base / t_sa:.1f}x", f"{t_base / t_lut:.1f}x",
             f"{t_base / t_vec:.0f}x", f"{t_base / t_plan:.0f}x"]
        )
    registry.record(
        "fig10_local_energy_speedups",
        format_table(
            "Fig. 10 — Local-energy speedups over the bare-CPU baseline",
            ["Molecule", "N", "N_h", "N_u", "SA+FUSE", "SA+FUSE+LUT",
             "SA+FUSE+LUT+VEC", "+PLAN"],
            rows,
            notes=(
                "VEC = batch-vectorized numpy kernel (the paper's GPU level; "
                "paper reports 24x / 103x / 3768x for C2).  PLAN = "
                "compiled ElocPlan (slot map before the LUT search, each "
                "hit's reduced terms one add.reduceat segment of pattern-"
                "table gathers), bit-identical to VEC.  Shape: monotone ladder, batch rungs "
                ">> scalar levels."
            ),
        ),
    )

    prob, comp, ref, batch, table, _ = _prepare("C2")
    plan = ElocPlan(comp)
    benchmark(plan.local_energy, batch, table)


def run_smoke(n_samples: int = 2 * 10**5, repeats: int = 5) -> list[dict]:
    """The CI rung check: the planned kernel must not lose to vectorized on C2.

    Two rows, covering both table regimes: the sample-aware table (small
    LUT, few coupled keys present — the slot map finds them in one gather
    where the reference binary-searches every one) and the exact-mode
    extended table (large LUT, many hits — the hit list, the slot map's
    single full-key compare and the FUSE step's segment sums over the
    pattern table carry the rung).
    """
    from repro.core import extend_amplitude_table

    prob, comp, ref, batch, table, wf = _prepare("C2", n_samples=n_samples)
    extended = extend_amplitude_table(wf, comp, batch, table)
    results = []
    rows = []
    for regime, tbl in (("sample-aware", table), ("exact/extended", extended)):
        res = measure_dedup_plan(comp, batch, tbl, repeats=repeats)
        res["regime"] = regime
        results.append(res)
        rows.append([regime, res["n_unique"], res["table_entries"],
                     f"{res['t_vectorized'] * 1e3:.1f}",
                     f"{res['t_planned'] * 1e3:.1f}",
                     f"{res['speedup']:.2f}x",
                     f"{res['peak_vectorized'] / 2**20:.2f}",
                     f"{res['peak_planned'] / 2**20:.2f}", res["bit_identical"]])
    registry.record(
        "fig10_dedup_plan_smoke",
        format_table(
            "Fig. 10 smoke — planned kernel vs. vectorized (C2/STO-3G)",
            ["table regime", "N_u", "table", "t_vec (ms)",
             "t_plan (ms)", "speedup", "peak_vec (MiB)", "peak_plan (MiB)",
             "bit-identical"],
            rows,
            notes=("CI gate: speedup >= 1.0x, planned tracemalloc peak <= "
                   "vectorized peak (one call each, the plan's workspaces "
                   "included) in both regimes, and bitwise-equal local "
                   "energies (ElocPlan compiled once, evaluated many; coupled "
                   "keys hashed in place into a per-table slot map, one "
                   "add.reduceat segment per hit sums its reduced terms, each "
                   "one pattern-table gather; the diagonal group one "
                   "quadratic form)."),
        ),
    )
    return results


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="small batch, fast CI gate (without it the two "
                             "batch rungs run on the full paper-size batch; "
                             "the scalar ladder stays a pytest entry point)")
    parser.add_argument("--n-samples", type=int, default=None)
    args = parser.parse_args()
    n_samples = args.n_samples or (2 * 10**5 if args.smoke else 10**6)
    results = run_smoke(n_samples=n_samples)
    for res in results:
        assert res["bit_identical"], (
            f"planned kernel is not bit-identical ({res['regime']})"
        )
        assert res["speedup"] >= 1.0, (
            f"plan rung regressed on the {res['regime']} table: "
            f"{res['speedup']:.2f}x vs vectorized"
        )
        assert res["peak_planned"] <= res["peak_vectorized"], (
            f"plan rung allocates more than vectorized on the "
            f"{res['regime']} table: {res['peak_planned'] / 2**20:.2f} MiB vs "
            f"{res['peak_vectorized'] / 2**20:.2f} MiB"
        )
        print(f"acceptance [{res['regime']}]: plan "
              f"{res['speedup']:.2f}x >= 1.0x vs vectorized, peak "
              f"{res['peak_planned'] / 2**20:.2f} <= "
              f"{res['peak_vectorized'] / 2**20:.2f} MiB, bit-identical — PASS")
