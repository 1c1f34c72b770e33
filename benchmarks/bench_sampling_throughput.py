"""Sampling-side inference throughput: KV-cached vs. full-forward BAS.

The BAS sweep is the pipeline's hot loop and its cost model assumes each
local sampling step is incremental.  This bench measures a full tree sweep
on a >= 20-token transformer config through both paths:

* ``cached``   — the incremental-decoding engine (``repro/nn/inference.py``):
  per-layer KV caches carried by the tree state, O(k) attention per step;
* ``uncached`` — the full-forward oracle (``conditional_probs_reference``):
  the complete differentiable graph over the whole prefix at every step,
  O(k^2) per layer per step.  No sampler in ``src/`` can select it; the
  sweep over it (:func:`uncached_bas_step`) lives here, next to the bench
  that times it.

Reported: full-sweep wall time, node expansions per second ("tokens/sec" —
one expansion = one next-token conditional for one unique prefix), and the
speedup.  Seeded outputs of the two paths are asserted bit-identical, so the
speedup is a pure implementation win, not a sampling change.
"""
from __future__ import annotations

import sys
import time
from pathlib import Path

if __name__ == "__main__":  # bare-script invocation: make src/ importable
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np

from repro.bench import format_table, registry
from repro.core import build_qiankunnet
from repro.core.sampler import (
    BASTreeState,
    _bas_step,
    _split_weights,
    initial_tree_state,
)

MIN_SPEEDUP = 3.0  # acceptance bar for the >= 20-token config


def uncached_bas_step(wf, state: BASTreeState, rng) -> BASTreeState:
    """``_bas_step`` with the conditionals from the full-forward oracle: the
    same weight split on the same RNG stream, no session carried."""
    probs = wf.conditional_probs_reference(
        state.prefixes, state.counts_up, state.counts_dn)
    return _split_weights(wf, state, probs, rng)[1]


def _timed_sweep(wf, n_samples: int, seed: int, step=_bas_step):
    """Run one full BAS sweep; return (wall seconds, node expansions, batch)."""
    rng = np.random.default_rng(seed)
    state = initial_tree_state(n_samples)
    expansions = 0
    t0 = time.perf_counter()
    while state.step < wf.n_tokens:
        expansions += len(state.weights)
        state = step(wf, state, rng)
    wall = time.perf_counter() - t0
    bits = wf.tokens_to_bits(state.prefixes)
    return wall, expansions, (bits, state.weights)


def _bench_config(n_qubits: int, n_elec: int, n_samples: int, seed: int = 21):
    wf = build_qiankunnet(n_qubits, n_elec, n_elec, seed=seed)
    # Warm both paths on a tiny budget (numpy/BLAS warm-up, allocator).
    _timed_sweep(wf, 100, seed)
    _timed_sweep(wf, 100, seed, uncached_bas_step)
    t_cached, n_tok, (bits_c, w_c) = _timed_sweep(wf, n_samples, seed)
    t_full, _, (bits_f, w_f) = _timed_sweep(wf, n_samples, seed, uncached_bas_step)
    np.testing.assert_array_equal(bits_c, bits_f)
    np.testing.assert_array_equal(w_c, w_f)
    return {
        "n_tokens": wf.n_tokens,
        "n_unique": len(w_c),
        "expansions": n_tok,
        "t_cached": t_cached,
        "t_full": t_full,
        "tok_s_cached": n_tok / t_cached,
        "tok_s_full": n_tok / t_full,
        "speedup": t_full / t_cached,
    }


def test_sampling_throughput(benchmark, full):
    # The uncached oracle is the bottleneck (that is the point): budgets are
    # kept small by default so the bench finishes in ~1 min. With a random
    # init nearly every sample is unique, so N_u ~ N_s.
    configs = [(40, 5, 10**3), (48, 6, 10**3)]
    if full:
        configs.append((64, 8, 10**4))
    rows = []
    results = []
    for n_qubits, n_elec, n_samples in configs:
        r = _bench_config(n_qubits, n_elec, n_samples)
        results.append(r)
        rows.append([
            n_qubits, r["n_tokens"], f"{n_samples:.0e}", r["n_unique"],
            f"{r['t_full']:.2f}s", f"{r['t_cached']:.2f}s",
            f"{r['tok_s_full']:.0f}", f"{r['tok_s_cached']:.0f}",
            f"{r['speedup']:.1f}x",
        ])
    registry.record(
        "sampling_throughput",
        format_table(
            "KV-cached vs full-forward BAS sweep (transformer amplitude)",
            ["N", "T", "N_s", "N_u", "full", "cached",
             "tok/s full", "tok/s cached", "speedup"],
            rows,
            notes=(
                "One token = one next-token conditional for one unique "
                "prefix. Identical seeded outputs on both paths; speedup is "
                "implementation-only. Expected shape: speedup grows with T "
                "(O(k) vs O(k^2) attention per step)."
            ),
        ),
    )
    # Acceptance: >= 3x on every >= 20-token config.
    for r in results:
        if r["n_tokens"] >= 20:
            assert r["speedup"] >= MIN_SPEEDUP, (
                f"cached BAS sweep only {r['speedup']:.2f}x faster "
                f"(T={r['n_tokens']})"
            )

    wf = build_qiankunnet(40, 5, 5, seed=3)
    benchmark(lambda: _timed_sweep(wf, 10**4, 3))


def run_backend_rows(n_samples: int = 10**3, backend: str = "numpy",
                     repeats: int = 5) -> dict:
    """One cached BAS sweep timed under ``backend``; per-backend row + the
    numpy-vs-backend overhead (interleaved best-of, so allocator/cache
    drift cancels instead of landing on whichever side ran second)."""
    from repro.backend import get_backend, use_backend

    array_backend = get_backend(backend)
    wf = build_qiankunnet(40, 5, 5, seed=3)
    _timed_sweep(wf, 100, 3)  # warm numpy path
    with use_backend(array_backend):
        _timed_sweep(wf, 100, 3)
    t_np = t_be = float("inf")
    expansions = bits_np = w_np = None
    for _ in range(repeats):
        wall, expansions, (bits_np, w_np) = _timed_sweep(wf, n_samples, 3)
        t_np = min(t_np, wall)
        with use_backend(array_backend):
            wall, _, (bits_be, w_be) = _timed_sweep(wf, n_samples, 3)
        t_be = min(t_be, wall)
    np.testing.assert_array_equal(bits_np, bits_be)
    np.testing.assert_array_equal(w_np, w_be)
    return {
        "backend": backend,
        "n_unique": len(w_np),
        "expansions": expansions,
        "t_numpy": t_np,
        "t_backend": t_be,
        "overhead": t_be / t_np - 1.0,
    }


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--backend", default="numpy",
                        help="array backend the cached sweep runs under "
                             "(numpy/mock); outputs are asserted "
                             "bit-identical to the numpy sweep")
    parser.add_argument("--n-samples", type=int, default=10**3)
    args = parser.parse_args()
    r = run_backend_rows(n_samples=args.n_samples, backend=args.backend)
    registry.record(
        f"sampling_throughput_backend_{args.backend}",
        format_table(
            "Cached BAS sweep per array backend (40-qubit transformer)",
            ["backend", "N_u", "expansions", "t_numpy (s)", "t_backend (s)",
             "overhead"],
            [[r["backend"], r["n_unique"], r["expansions"],
              f"{r['t_numpy']:.3f}", f"{r['t_backend']:.3f}",
              f"{r['overhead'] * 100:+.2f}%"]],
            notes=("Bit-identical sampled sets on both sides; mock "
                   "acceptance: instrumentation overhead <= 2%."),
        ),
    )
    if args.backend == "mock":
        assert r["overhead"] <= 0.02, (
            f"mock backend overhead {r['overhead'] * 100:.2f}% > 2% "
            "on the cached BAS sweep"
        )
        print(f"acceptance: mock overhead {r['overhead'] * 100:+.2f}% "
              "<= 2% — PASS")
