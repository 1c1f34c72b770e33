#!/usr/bin/env python3
"""The serving layer end to end: train -> publish -> serve -> consume.

A miniature version of the production loop the ROADMAP points at, now wired
through the declarative experiment API: ``run(spec)`` with
``output.publish_every=1`` trains in a background thread and publishes a
versioned snapshot to the run's ModelRegistry every iteration, while a
WavefunctionService built by ``serve_run(run_dir)`` serves the same registry
to concurrent consumers (a PES-style amplitude client, a sampling client,
and a local-energy client).  Clients pin the version they started with, so
their amplitude ratios stay consistent mid-request-stream.

Usage:  python examples/serve_demo.py [--clients 6] [--iters 8]
"""
import argparse
import sys
import tempfile
import threading
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np

from repro.api import get_preset, run, serve_run
from repro.serve import ModelRegistry, ServeConfig


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--clients", type=int, default=6)
    ap.add_argument("--iters", type=int, default=8)
    args = ap.parse_args()

    spec = get_preset("smoke").with_overrides({
        "name": "serve-demo",
        "ansatz.seed": 3,
        "train.seed": 5,
        "train.max_iterations": args.iters,
        "train.pretrain_steps": 0,
        "sampling.ns_pretrain": 2000,
        "sampling.ns_max": 2000,
        "output.publish_every": 1,
    })

    with tempfile.TemporaryDirectory() as tmp:
        run_dir = Path(tmp) / "run"
        results: dict = {}

        def train() -> None:
            try:
                results["result"] = run(spec, run_dir=run_dir)
            except BaseException as exc:  # noqa: BLE001 - surfaced on join
                results["error"] = exc

        trainer_thread = threading.Thread(target=train)
        t0 = time.perf_counter()
        trainer_thread.start()

        # Wait for the first published version, then open the service on the
        # run's registry — the serve-while-training production shape.
        registry = ModelRegistry(run_dir / "models")
        while registry.latest_version() is None:
            if not trainer_thread.is_alive():
                raise results.get("error") or RuntimeError(
                    "training thread died before publishing")
            time.sleep(0.02)
        service = serve_run(run_dir, config=ServeConfig(max_wait_ms=2.0)).start()
        pinned = service.active_version()
        print(f"serving {run_dir} from version {pinned} while training runs")
        n_qubits = registry.load(pinned)[0].n_qubits

        # ----------------------------------------------- concurrent clients
        stop = threading.Event()
        counts = {"amplitudes": 0, "samples": 0, "local_energy": 0}

        # Clients pace themselves (sleep between requests) so the demo's
        # training thread is not starved of the GIL by pure request spin.
        def amplitude_client() -> None:
            rng = np.random.default_rng(0)
            while not stop.is_set():
                bits = rng.integers(0, 2, (2, n_qubits)).astype(np.uint8)
                service.log_amplitudes(bits, version=pinned)
                counts["amplitudes"] += 1
                time.sleep(0.01)

        def sampling_client(seed: int) -> None:
            while not stop.is_set():
                service.sample(300, seed=seed, version=pinned)
                counts["samples"] += 1
                time.sleep(0.02)

        def local_energy_client() -> None:
            while not stop.is_set():
                batch = service.sample(500, seed=7, version=pinned)
                service.local_energy(batch, version=pinned)
                counts["local_energy"] += 1
                time.sleep(0.02)

        workers = [threading.Thread(target=amplitude_client)
                   for _ in range(max(args.clients - 2, 1))]
        workers += [threading.Thread(target=sampling_client, args=(11,)),
                    threading.Thread(target=local_energy_client)]
        for w in workers:
            w.start()

        # ------------------------------- training publishes while they run
        trainer_thread.join()
        if "error" in results:
            raise results["error"]
        service.refresh()
        print(f"training finished: published versions {registry.versions()}")
        print(f"service now tracks version {service.active_version()} "
              f"(clients stay pinned to {pinned})")

        time.sleep(0.5)
        stop.set()
        for w in workers:
            w.join()
        wall = time.perf_counter() - t0

        result = results["result"]
        print()
        print(f"final report after {result.report.iterations} iterations: "
              f"E = {result.report.energy:+.6f} Ha")
        s = service.stats()
        print(f"served during {wall:.1f}s of training:")
        print(f"  amplitude requests    {counts['amplitudes']}")
        print(f"  sampling requests     {counts['samples']}")
        print(f"  local-energy requests {counts['local_energy']}")
        print(f"  fused rows/batch      {s['batcher']['rows_per_batch']:.1f}")
        pinned_stats = s["versions"][pinned]
        print(f"  amplitude table       {pinned_stats['table_entries']} entries "
              f"(version {pinned} only — tables never cross versions)")
        service.close()


if __name__ == "__main__":
    main()
