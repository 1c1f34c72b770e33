"""The ``python -m repro`` command line — specs in, artifact dirs out.

Subcommands:

* ``run``     — execute a spec from ``--spec file.json`` or ``--preset name``,
  with ``--set key=value`` dotted overrides.
* ``resume``  — continue a run directory (``--set`` can extend the budget).
* ``info``    — inspect a run directory, or list presets / registered
  components (``--presets`` / ``--components``).
* ``serve``   — with ``--port``, run the network serving tier (an HTTP/JSON
  router over ``--workers`` worker processes; SIGTERM/SIGINT drain
  gracefully).  Without ``--port``, answer ``log_amplitudes`` requests
  in-process, self-checked against direct evaluation of the loaded
  snapshot.
* ``serve-worker`` — internal: one serving worker, spawned by the router
  (not for direct use).
* ``rendezvous`` — run the cluster rendezvous coordinator for one
  multi-host job (``parallel.backend=cluster`` members dial it).

Every subcommand is importable (``repro.api.cli.main``) and returns an exit
code, so tests drive it in-process and CI drives it as a subprocess.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from repro.api import driver, presets
from repro.api.registry import ANSATZE, BACKENDS, OPTIMIZERS
from repro.api.spec import RunSpec, SpecError

__all__ = ["main", "build_parser", "load_spec"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="NNQS-Transformer experiment runner (declarative RunSpec API)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a RunSpec end to end")
    src = p_run.add_mutually_exclusive_group(required=True)
    src.add_argument("--spec", type=Path, help="path to a RunSpec JSON file")
    src.add_argument("--preset", help="name of a built-in preset spec")
    p_run.add_argument("--set", dest="overrides", action="append", default=[],
                       metavar="KEY=VALUE",
                       help="dotted spec override, e.g. train.max_iterations=3")
    p_run.add_argument("--run-dir", type=Path, default=None,
                       help="artifact directory (default: runs/<name>-<stamp>)")

    p_resume = sub.add_parser("resume", help="continue a run directory")
    p_resume.add_argument("run_dir", type=Path)
    p_resume.add_argument("--set", dest="overrides", action="append",
                          default=[], metavar="KEY=VALUE",
                          help="spec override, e.g. train.max_iterations=200")

    p_info = sub.add_parser("info", help="inspect a run / list components")
    p_info.add_argument("run_dir", type=Path, nargs="?")
    p_info.add_argument("--presets", action="store_true",
                        help="list built-in preset specs")
    p_info.add_argument("--components", action="store_true",
                        help="list registered ansätze/optimizers/backends")

    p_serve = sub.add_parser(
        "serve", help="serve a run's snapshots (HTTP with --port, "
                      "self-check otherwise)")
    p_serve.add_argument("run_dir", type=Path)
    p_serve.add_argument("--port", type=int, default=None,
                         help="start the HTTP serving tier on this port "
                              "(0 picks a free port)")
    p_serve.add_argument("--host", default="127.0.0.1",
                         help="interface the HTTP tier binds "
                              "(default: loopback)")
    p_serve.add_argument("--workers", type=int, default=None,
                         help="worker processes for the HTTP tier "
                              "(default: serve.workers)")
    p_serve.add_argument("--set", dest="overrides", action="append",
                         default=[], metavar="KEY=VALUE",
                         help="spec override, e.g. serve.max_batch_size=64")
    p_serve.add_argument("--bits-file", type=Path, default=None,
                         help="JSON file with a list of 0/1 bitstring rows to evaluate")
    p_serve.add_argument("--n-random", type=int, default=4,
                         help="additionally evaluate N seeded random bitstrings")
    p_serve.add_argument("--seed", type=int, default=0,
                         help="seed for the random request bitstrings")
    p_serve.add_argument("--version", type=int, default=None,
                         help="pin a published snapshot version (default: latest)")

    # Internal: the router spawns these; never invoked by hand.
    p_worker = sub.add_parser("serve-worker")
    p_worker.add_argument("run_dir", type=Path)
    p_worker.add_argument("--connect", required=True,
                          help="host:port of the router's internal listener")
    p_worker.add_argument("--worker-id", type=int, required=True)
    p_worker.add_argument("--set", dest="overrides", action="append",
                          default=[], metavar="KEY=VALUE")

    p_rdv = sub.add_parser(
        "rendezvous",
        help="run the cluster rendezvous coordinator for one job")
    p_rdv.add_argument("--port", type=int, required=True,
                       help="TCP port to listen on (0 picks a free port)")
    p_rdv.add_argument("--host", default="0.0.0.0",
                       help="interface to bind (default: all)")
    p_rdv.add_argument("--world-size", type=int, required=True,
                       help="number of ranks in the job")
    p_rdv.add_argument("--join-timeout", type=float, default=60.0,
                       help="seconds to wait for all ranks to join")
    p_rdv.add_argument("--heartbeat-interval", type=float, default=2.0,
                       help="seconds between member heartbeats")
    p_rdv.add_argument("--heartbeat-timeout", type=float, default=10.0,
                       help="seconds without a heartbeat before a rank is "
                            "declared dead")
    return parser


def load_spec(args: argparse.Namespace) -> RunSpec:
    if args.spec is not None:
        if not args.spec.exists():
            raise SpecError(f"spec file {args.spec} does not exist")
        spec = RunSpec.load(args.spec)
    else:
        spec = presets.get_preset(args.preset)
    return spec.with_overrides(args.overrides)


# ---------------------------------------------------------------- subcommands
def _cmd_run(args: argparse.Namespace) -> int:
    spec = load_spec(args)
    result = driver.run(spec, run_dir=args.run_dir)
    print(result.report.summary())
    print()
    print(f"run directory      {result.run_dir}")
    print(f"metrics            {result.metrics_path}")
    if result.published_version is not None:
        print(f"published snapshot v{result.published_version:06d} "
              f"in {result.registry_dir}")
        print(f"serve it with      python -m repro serve {result.run_dir}")
    return 0


def _cmd_resume(args: argparse.Namespace) -> int:
    result = driver.resume(args.run_dir, overrides=args.overrides)
    print(result.report.summary())
    print()
    print(f"run directory      {result.run_dir}")
    if result.published_version is not None:
        print(f"published snapshot v{result.published_version:06d} "
              f"in {result.registry_dir}")
    return 0


def _cmd_info(args: argparse.Namespace) -> int:
    if args.presets:
        for name in presets.preset_names():
            spec = presets.get_preset(name)
            print(f"{name:12s} {spec.problem.molecule}/{spec.problem.basis}  "
                  f"ansatz={spec.ansatz.name}  "
                  f"iters={spec.train.max_iterations}")
        return 0
    if args.components:
        for registry in (ANSATZE, OPTIMIZERS, BACKENDS):
            print(f"{registry.kind}: {', '.join(registry.names())}")
        return 0
    if args.run_dir is None:
        print("info needs a run directory, --presets, or --components",
              file=sys.stderr)
        return 2
    return _print_run_info(args.run_dir)


def _print_run_info(run_dir: Path) -> int:
    spec_path = run_dir / driver.SPEC_FILE
    if not spec_path.exists():
        print(f"{run_dir} is not a run directory (no {driver.SPEC_FILE})",
              file=sys.stderr)
        return 2
    spec = RunSpec.load(spec_path)
    print(f"run      {spec.name}")
    print(f"problem  {spec.problem.molecule}/{spec.problem.basis}"
          + (f" CAS(n_frozen={spec.problem.n_frozen}, "
             f"n_active={spec.problem.n_active})"
             if spec.problem.n_frozen or spec.problem.n_active else ""))
    print(f"ansatz   {spec.ansatz.name}  optimizer {spec.optimizer.name}")
    if spec.parallel.backend != "serial" or spec.parallel.n_ranks > 1:
        print(f"parallel {spec.parallel.backend} x {spec.parallel.n_ranks} "
              f"({spec.parallel.eloc_partition} eloc partition)")
    metrics_path = run_dir / driver.METRICS_FILE
    if metrics_path.exists():
        rows = _read_jsonl(metrics_path)
        iters = [r for r in rows if "iteration" in r]
        if iters:
            last = iters[-1]
            print(f"metrics  {len(iters)} iterations, last E = "
                  f"{last['energy']:+.6f} Ha")
    report_path = run_dir / driver.REPORT_FILE
    if report_path.exists():
        report = json.loads(report_path.read_text())
        print(f"report   best E = {report['best_energy']:+.6f} Ha after "
              f"{report['iterations']} iterations"
              + ("  (early stop)" if report.get("stopped_early") else ""))
        if report.get("comm_bytes_logical") is not None:
            logical = report["comm_bytes_logical"]
            wire = report.get("comm_bytes_wire") or logical
            print(f"comm     {logical / 2**20:.1f} MB logical -> "
                  f"{wire / 2**20:.1f} MB wire "
                  f"({logical / max(wire, 1):.1f}x compression)")
    models = run_dir / driver.MODELS_DIR
    if (models / "manifest.json").exists():
        from repro.serve import ModelRegistry

        registry = ModelRegistry(models)
        print(f"models   versions {registry.versions()} "
              f"(latest v{registry.latest_version()})")
    stats_path = run_dir / "serve_stats.json"
    if stats_path.exists():
        _print_serve_stats(json.loads(stats_path.read_text()))
    return 0


def _read_jsonl(path: Path) -> list[dict]:
    """Parse a JSON-lines file, skipping an undecodable *trailing* line — the
    torn record a kill mid-append leaves behind; one in the middle raises."""
    lines = path.read_text().splitlines()
    rows = []
    for i, line in enumerate(lines):
        try:
            rows.append(json.loads(line))
        except json.JSONDecodeError:
            if i != len(lines) - 1:
                raise
    return rows


def _print_serve_stats(stats: dict) -> None:
    """The last serving session's counters (written on router drain)."""
    http = stats.get("http", {})
    statuses = http.get("statuses", {})
    status_str = " ".join(f"{k}:{v}" for k, v in sorted(statuses.items()))
    print(f"serving  {http.get('requests', 0)} http requests"
          + (f" ({status_str})" if status_str else "")
          + (f", {stats['restarts']} worker restarts"
             if stats.get("restarts") else ""))
    batchers = [w.get("service", {}).get("batcher", {})
                for w in stats.get("per_worker", [])]
    batchers = [b for b in batchers if b]
    if batchers:
        requests = sum(b.get("requests", 0) for b in batchers)
        rejected = sum(b.get("rejected", 0) for b in batchers)
        batches = sum(b.get("batches", 0) for b in batchers)
        rows = sum(b.get("batched_rows", 0) for b in batchers)
        fuse = rows / batches if batches else 0.0
        print(f"         {len(batchers)} workers: {requests} batched "
              f"requests, {rejected} rejected, "
              f"fuse ratio {fuse:.1f} rows/batch")


def _load_run_spec(run_dir: Path, overrides: list[str]) -> RunSpec:
    spec_path = run_dir / driver.SPEC_FILE
    if not spec_path.exists():
        raise SpecError(f"{run_dir} has no {driver.SPEC_FILE}; "
                        "not a run directory")
    return RunSpec.load(spec_path).with_overrides(overrides)


def _cmd_serve_net(args: argparse.Namespace) -> int:
    """The network serving tier: router + workers until SIGTERM/SIGINT,
    then a graceful drain (every accepted request is answered)."""
    import signal
    import threading

    from repro.serve.net import NetServer

    spec = _load_run_spec(args.run_dir, args.overrides)
    worker_args: list[str] = []
    for assignment in args.overrides:
        worker_args += ["--set", assignment]
    server = NetServer(args.run_dir, host=args.host, port=args.port,
                       workers=args.workers, serve_spec=spec.serve,
                       worker_args=worker_args)

    stop = threading.Event()

    def _on_signal(signum, frame):  # noqa: ARG001 - signal API
        stop.set()

    signal.signal(signal.SIGTERM, _on_signal)
    signal.signal(signal.SIGINT, _on_signal)

    server.start()
    try:
        server.wait_ready(timeout=120.0)
    except TimeoutError as exc:
        print(f"error: {exc}", file=sys.stderr)
        server.close(timeout=2.0)
        return 1
    print(f"serving {args.run_dir} on http://{server.host}:{server.port} "
          f"({server.workers} workers)", flush=True)
    while not stop.is_set():
        stop.wait(0.5)
    print("draining...", flush=True)
    stats = server.close()
    if stats is not None:
        http = stats.get("http", {})
        print(f"served {http.get('requests', 0)} requests "
              f"({stats.get('restarts', 0)} worker restarts); "
              f"stats in {args.run_dir / 'serve_stats.json'}", flush=True)
    return 0


def _cmd_serve_worker(args: argparse.Namespace) -> int:
    from repro.serve.net.worker import run_worker

    spec = _load_run_spec(args.run_dir, args.overrides)
    return run_worker(args.run_dir, args.connect, args.worker_id,
                      serve_spec=spec.serve)


def _cmd_serve(args: argparse.Namespace) -> int:
    """Answer ``log_amplitudes`` requests through the serving stack.

    Every evaluation is checked against direct (in-process) evaluation of
    the same snapshot; any mismatch beyond fused-BLAS rounding is an error.
    """
    service = driver.serve_run(args.run_dir)
    registry = service.registry
    wf, _ = registry.load(args.version)

    requests = []
    if args.bits_file is not None:
        rows = json.loads(Path(args.bits_file).read_text())
        requests.append(("bits-file", np.asarray(rows, dtype=np.uint8)))

    worst = 0.0
    with service:
        version = args.version or service.active_version()
        if args.n_random > 0:
            # Draw physically valid configurations through the service's own
            # seeded sampler instead of unconstrained random bits.
            batch = service.sample(max(64, args.n_random), seed=args.seed,
                                   version=args.version)
            requests.append(("sampled", batch.bits[: args.n_random]))
        if not requests:
            print("nothing to evaluate (empty --bits-file and --n-random 0)",
                  file=sys.stderr)
            return 2
        for label, bits in requests:
            served = service.log_amplitudes(bits, version=args.version)
            direct = wf.log_amplitudes(bits)
            diff = float(np.max(np.abs(served - direct)))
            worst = max(worst, diff)
            for row, value in zip(bits, served):
                print(json.dumps({
                    "request": label,
                    "bits": row.tolist(),
                    "log_amplitude": [value.real, value.imag],
                }))
    print(f"served {sum(len(b) for _, b in requests)} log_amplitudes "
          f"requests from version {version} "
          f"(max |served - direct| = {worst:.2e})", file=sys.stderr)
    if worst > 1e-9:
        print("ERROR: served amplitudes disagree with direct evaluation",
              file=sys.stderr)
        return 1
    return 0


def _cmd_rendezvous(args: argparse.Namespace) -> int:
    """Supervise one cluster job: assign ranks, watch heartbeats, exit with
    0 on a clean completion and 1 when the job aborted."""
    from repro.parallel.rendezvous import RendezvousCoordinator

    coord = RendezvousCoordinator(
        world_size=args.world_size, host=args.host, port=args.port,
        join_timeout=args.join_timeout,
        heartbeat_interval=args.heartbeat_interval,
        heartbeat_timeout=args.heartbeat_timeout,
    )
    host, port = coord.start()
    print(f"rendezvous listening on {host}:{port} "
          f"(world_size={args.world_size})", flush=True)
    try:
        outcome = coord.wait()
    except KeyboardInterrupt:
        outcome = "aborted: interrupted"
    finally:
        coord.stop()
    print(f"rendezvous finished: {outcome}", flush=True)
    return 0 if outcome == "completed" else 1


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "resume":
            return _cmd_resume(args)
        if args.command == "info":
            return _cmd_info(args)
        if args.command == "serve":
            if args.port is not None:
                return _cmd_serve_net(args)
            return _cmd_serve(args)
        if args.command == "serve-worker":
            return _cmd_serve_worker(args)
        if args.command == "rendezvous":
            return _cmd_rendezvous(args)
    except SpecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except KeyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    raise AssertionError(f"unhandled command {args.command!r}")
