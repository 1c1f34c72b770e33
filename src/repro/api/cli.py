"""The ``python -m repro`` command line — specs in, artifact dirs out.

Subcommands:

* ``run``     — execute a spec from ``--spec file.json`` or ``--preset name``,
  with ``--set key=value`` dotted overrides.
* ``resume``  — continue a run directory (``--set`` can extend the budget).
* ``info``    — inspect a run directory, or list the presets
  (``--presets``).
* ``serve``   — run the HTTP/JSON front door over one in-process service
  (SIGTERM/SIGINT drain gracefully).
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

from repro.api import driver, presets
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

    p_info = sub.add_parser("info", help="inspect a run / list presets")
    p_info.add_argument("run_dir", type=Path, nargs="?")
    p_info.add_argument("--presets", action="store_true",
                        help="list built-in preset specs")

    p_serve = sub.add_parser("serve", help="serve a run's snapshots over HTTP")
    p_serve.add_argument("run_dir", type=Path)
    p_serve.add_argument("--port", type=int, default=0,
                         help="TCP port of the HTTP front door "
                              "(default 0: a free port, printed at start)")
    p_serve.add_argument("--host", default="127.0.0.1",
                         help="interface the HTTP tier binds "
                              "(default: loopback)")
    p_serve.add_argument("--set", dest="overrides", action="append",
                         default=[], metavar="KEY=VALUE",
                         help="spec override, e.g. serve.max_batch_size=64")

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
                  f"iters={spec.train.max_iterations}")
        return 0
    if args.run_dir is None:
        print("info needs a run directory or --presets", file=sys.stderr)
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
    if spec.parallel.backend != "serial" or spec.parallel.n_ranks > 1:
        print(f"parallel {spec.parallel.backend} x {spec.parallel.n_ranks}")
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
    """The last serving session's counters (written on drain)."""
    http = stats.get("http", {})
    statuses = http.get("statuses", {})
    status_str = " ".join(f"{k}:{v}" for k, v in sorted(statuses.items()))
    print(f"serving  {http.get('requests', 0)} http requests"
          + (f" ({status_str})" if status_str else ""))
    batcher = stats.get("service", {}).get("batcher")
    if batcher:
        print(f"         {batcher['requests']} batched requests, "
              f"{batcher['rejected']} rejected, "
              f"fuse ratio {batcher['rows_per_batch']:.1f} rows/batch")


def _load_run_spec(run_dir: Path, overrides: list[str]) -> RunSpec:
    spec_path = run_dir / driver.SPEC_FILE
    if not spec_path.exists():
        raise SpecError(f"{run_dir} has no {driver.SPEC_FILE}; "
                        "not a run directory")
    return RunSpec.load(spec_path).with_overrides(overrides)


def _cmd_serve(args: argparse.Namespace) -> int:
    """The HTTP front door until SIGTERM/SIGINT, then a graceful drain
    (every accepted request is answered); exits 1 when the drain outlasts
    ``serve.drain_timeout_s``."""
    import signal
    import threading

    from repro.serve.net import NetServer

    spec = _load_run_spec(args.run_dir, args.overrides)
    server = NetServer(args.run_dir, host=args.host, port=args.port,
                       serve_spec=spec.serve)

    stop = threading.Event()

    def _on_signal(signum, frame):  # noqa: ARG001 - signal API
        stop.set()

    signal.signal(signal.SIGTERM, _on_signal)
    signal.signal(signal.SIGINT, _on_signal)

    server.start()
    print(f"serving {args.run_dir} on http://{server.host}:{server.port}",
          flush=True)
    while not stop.is_set():
        stop.wait(0.5)
    print("draining...", flush=True)
    stats = server.close()
    if stats is None:
        return 0
    http = stats.get("http", {})
    print(f"served {http.get('requests', 0)} requests; "
          f"stats in {args.run_dir / 'serve_stats.json'}", flush=True)
    if not stats["drained"]:
        print(f"drain outlasted serve.drain_timeout_s="
              f"{spec.serve.drain_timeout_s:g}; queued requests got 503",
              file=sys.stderr, flush=True)
        return 1
    return 0


def _cmd_rendezvous(args: argparse.Namespace) -> int:
    """Hand one cluster job its ranks and peer addresses: exit 0 once every
    member is welcomed, 1 when the join timed out."""
    from repro.parallel.rendezvous import RendezvousCoordinator

    coord = RendezvousCoordinator(
        world_size=args.world_size, host=args.host, port=args.port,
        join_timeout=args.join_timeout,
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
            return _cmd_serve(args)
        if args.command == "rendezvous":
            return _cmd_rendezvous(args)
    except SpecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    raise AssertionError(f"unhandled command {args.command!r}")
