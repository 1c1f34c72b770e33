"""Serving throughput: microbatched service vs. serial per-request evaluation.

N concurrent closed-loop clients each query amplitudes of a handful of
configurations at a time — the shape of PES-scan / observable consumers
hitting a trained ansatz.  Three ways to serve the same request stream:

* ``serial``    — direct in-process calls, one at a time (no service): the
  per-request fixed cost (Python/op overhead of a full forward) is paid for
  every tiny request;
* ``unfused``   — the service with ``max_batch_size=1``: same per-request
  forwards, now behind the scheduler (measures pure service overhead);
* ``microbatch``— the service with coalescing on: concurrent requests fuse
  into single vectorized forward passes.

Correctness is asserted on every path (service results vs. direct calls),
and the acceptance bar is ``microbatch >= 3x serial`` at >= 8 clients.
Run as pytest (``python -m pytest benchmarks/bench_serving.py``) or as a
script: ``python benchmarks/bench_serving.py --smoke`` (the CI smoke
invocation: tiny sizes, correctness only, no timing assertion).
"""
from __future__ import annotations

import os
import threading
import time

# One BLAS thread (as benchmarks/perf/run.py pins it), set before numpy loads
# OpenBLAS: on a small shared host the hand-off to OpenBLAS's worker thread
# stalls for a scheduler quantum per GEMM in some runs and not in others
# (one 64-row batch reads 5 ms or 90 ms), which would turn the speed-up
# below into a coin toss.  An explicit setting in the environment wins.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

MIN_SPEEDUP = 3.0  # acceptance bar at >= 8 concurrent clients


def _make_workload(n_qubits: int, n_elec: int, n_clients: int,
                   n_requests: int, rows_per_request: int, seed: int = 17):
    """A served wavefunction plus each client's request list (bit arrays)."""
    from repro.core import batch_autoregressive_sample, build_qiankunnet

    wf = build_qiankunnet(n_qubits, n_elec, n_elec, seed=seed)
    pool = batch_autoregressive_sample(
        wf, 4 * n_clients * n_requests * rows_per_request,
        np.random.default_rng(seed),
    ).bits
    rng = np.random.default_rng(seed + 1)
    requests = [
        [
            pool[rng.integers(0, len(pool), rows_per_request)]
            for _ in range(n_requests)
        ]
        for _ in range(n_clients)
    ]
    return wf, requests


def _run_serial(wf, requests) -> tuple[float, list]:
    """Direct per-request evaluation, one request at a time."""
    results = []
    t0 = time.perf_counter()
    for client_requests in requests:
        for bits in client_requests:
            results.append(wf.log_amplitudes(bits))
    return time.perf_counter() - t0, results


def _run_service(wf, requests, max_batch_size: int, max_wait_ms: float,
                 depth: int = 1) -> tuple[float, list, dict]:
    """N concurrent client threads driving one service.

    ``depth`` is each client's pipelining window (outstanding requests in
    flight): 1 = closed loop (wait for every response before the next
    request), >1 = the streaming-consumer shape that keeps the scheduler's
    queue full enough to fuse large batches.
    """
    from collections import deque

    from repro.serve import ServeConfig, WavefunctionService

    n_clients = len(requests)
    results: list = [[None] * len(reqs) for reqs in requests]
    barrier = threading.Barrier(n_clients + 1)
    cfg = ServeConfig(max_batch_size=max_batch_size, max_wait_ms=max_wait_ms)
    with WavefunctionService(wf, config=cfg) as svc:

        def client(c: int) -> None:
            barrier.wait()
            inflight: deque = deque()
            for i, bits in enumerate(requests[c]):
                inflight.append((i, svc.submit_log_amplitudes(bits)))
                if len(inflight) >= depth:
                    j, fut = inflight.popleft()
                    results[c][j] = fut.result()
            for j, fut in inflight:
                results[c][j] = fut.result()

        threads = [threading.Thread(target=client, args=(c,))
                   for c in range(n_clients)]
        for t in threads:
            t.start()
        barrier.wait()
        t0 = time.perf_counter()
        for t in threads:
            t.join()
        wall = time.perf_counter() - t0
        stats = svc.stats()
    return wall, [r for client_results in results for r in client_results], stats


def _bench_config(n_qubits: int, n_elec: int, n_clients: int,
                  n_requests: int, rows_per_request: int,
                  check_tol: float = 1e-6) -> dict:
    wf, requests = _make_workload(
        n_qubits, n_elec, n_clients, n_requests, rows_per_request
    )
    # Warm-up (numpy/BLAS, thread machinery) on a small slice.
    _run_serial(wf, [requests[0][:2]])
    _run_service(wf, [requests[0][:2]], 256, 1.0)

    t_serial, serial_results = _run_serial(wf, requests)
    t_unfused, unfused_results, _ = _run_service(wf, requests, 1, 0.0)
    t_fused, fused_results, stats = _run_service(wf, requests, 1024, 2.0,
                                                 depth=8)

    # Every service response must agree with the direct evaluation.  The
    # decoder and the phase MLP evaluate in float32, and a row evaluated in
    # another batch may round differently (~1e-7 on log psi).
    for direct, unfused, fused in zip(serial_results, unfused_results,
                                      fused_results):
        np.testing.assert_allclose(unfused, direct, rtol=check_tol, atol=check_tol)
        np.testing.assert_allclose(fused, direct, rtol=check_tol, atol=check_tol)

    n_req = n_clients * n_requests
    return {
        "n_qubits": n_qubits,
        "n_clients": n_clients,
        "n_req": n_req,
        "rows": rows_per_request,
        "t_serial": t_serial,
        "t_unfused": t_unfused,
        "t_fused": t_fused,
        "rps_serial": n_req / t_serial,
        "rps_unfused": n_req / t_unfused,
        "rps_fused": n_req / t_fused,
        "speedup": t_serial / t_fused,
        "rows_per_batch": stats["batcher"]["rows_per_batch"],
    }


def _format(results: list[dict]) -> str:
    from reporting import format_table

    rows = [
        [
            r["n_qubits"], r["n_clients"], r["n_req"], r["rows"],
            f"{r['rps_serial']:.0f}", f"{r['rps_unfused']:.0f}",
            f"{r['rps_fused']:.0f}", f"{r['rows_per_batch']:.1f}",
            f"{r['speedup']:.1f}x",
        ]
        for r in results
    ]
    return format_table(
        "Wavefunction serving: microbatched vs per-request (req/s)",
        ["N", "clients", "req", "rows/req", "serial", "unfused",
         "microbatch", "rows/batch", "speedup"],
        rows,
        notes=(
            "Concurrent clients issuing small log-amplitude requests. "
            "'serial' = direct per-request calls; 'unfused' = service with "
            "max_batch_size=1 (closed loop); 'microbatch' = coalescing on, "
            "clients pipelining a window of 8 in-flight requests. Speedup = "
            "serial/microbatch; it grows with the fused batch size until "
            "the per-row kernel cost saturates."
        ),
    )


def run_bench(smoke: bool = False, full: bool = False) -> list[dict]:
    if smoke:
        configs = [(12, 2, 4, 6, 2)]
    else:
        configs = [(28, 4, 8, 40, 1), (28, 4, 8, 40, 4)]
        if full:
            configs.append((28, 4, 16, 40, 1))
    return [_bench_config(*c) for c in configs]


def test_serving_throughput(benchmark, full):
    from reporting import registry

    results = run_bench(full=full)
    registry.record("serving_throughput", _format(results))
    for r in results:
        if r["n_clients"] >= 8 and r["rows"] <= 1:
            assert r["speedup"] >= MIN_SPEEDUP, (
                f"microbatched serving only {r['speedup']:.2f}x faster "
                f"({r['n_clients']} clients)"
            )
    wf, requests = _make_workload(16, 2, 4, 10, 2)
    benchmark(lambda: _run_service(wf, requests, 1024, 2.0))


if __name__ == "__main__":
    import argparse
    import sys
    from pathlib import Path

    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, correctness only (CI)")
    parser.add_argument("--full", action="store_true",
                        help="adds the 16-client configuration")
    args = parser.parse_args()
    results = run_bench(smoke=args.smoke, full=args.full)
    print(_format(results))
    if not args.smoke:
        for r in results:
            if r["n_clients"] >= 8 and r["rows"] <= 1:
                assert r["speedup"] >= MIN_SPEEDUP, (
                    f"microbatched serving only {r['speedup']:.2f}x faster"
                )
        print(f"acceptance: microbatch >= {MIN_SPEEDUP:.0f}x serial at >= 8 "
              "clients — PASS")
