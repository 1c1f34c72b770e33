#!/usr/bin/env python3
"""The repo benchmark: four workloads, three end-to-end metrics, per-layer attribution.

One run (the ``BENCHMARK.json`` contract)::

    python3 benchmarks/perf/run.py --workload n2_grad --seed 3 --seconds 20 --trace 0

spawns the workload's three *episodes* one after another — fresh processes
that each set the workload up cold and time the same third of the run's units —
pools them, checks the outputs and prints one JSON object as the last line of
stdout.  ``unit_s`` is the timed wall of all three episodes divided by their
units, ``setup_s`` the median of the three cold set-ups, and every episode must
reproduce the first bit-for-bit.  With ``--trace 1`` the run is one *paired*
episode instead: every unit runs once plain and once with the outside-in span
wrappers of ``spans.py`` installed, alternately, and the per-layer metrics are
printed.  Every time is raw ``perf_counter`` wall seconds; nothing is rescaled.

The whole suite (every workload, two untraced rounds interleaved, one traced
pass, every metric printed by name with unit and sample count)::

    python3 benchmarks/perf/run.py [--seed S] [--quick]

writes ``benchmarks/perf/out/latest.json``, the input of ``compare.py``
(``--quick`` writes under ``out/quick/`` and never touches that record).

This file imports neither numpy nor ``repro``: the BLAS pins and the private
cache directory must be in a child's environment before either is imported.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parents[1]
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import stats  # noqa: E402

OUT = HERE / "out"
PINS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
EPISODES = 3              # per untraced run: three cold set-ups, three timed windows
ROUNDS = 2                # suite: interleaved untraced rounds
RUN_DEADLINE_S = 170      # the contract allows a run 180 s; a hung episode is killed
DERIVED = ("trainer.time_to_chem_acc_s",)


def load_contract() -> dict:
    return json.loads((REPO / "BENCHMARK.json").read_text())


# ------------------------------------------------------------------ episodes
class EpisodeFailed(Exception):
    """An episode crashed, failed in set-up or outran the run's deadline."""


def spawn_episode(workload: str, seed: int, seconds: float, role: str, quick: bool,
                  scratch: Path, out_dir: Path, deadline: float) -> dict:
    """Run one episode to completion in a fresh process; return its record."""
    scratch.mkdir()
    out = scratch / "episode.json"
    env = dict(os.environ, **PINS, NNQS_CACHE_DIR=str(scratch / "cache"))
    cmd = [sys.executable, str(HERE / "episode.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--role", role,
           "--quick", str(int(quick)), "--scratch", str(scratch), "--out", str(out),
           "--trace-out", str(out_dir / f"trace_{workload}.json"),
           "--spawned", repr(time.time())]
    # its own process group: a hung episode is killed with whatever it started
    proc = subprocess.Popen(cmd, env=env, cwd=REPO, text=True, start_new_session=True,
                            stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
    try:
        output, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise EpisodeFailed(f"{role} episode of {workload} outran the "
                            f"{RUN_DEADLINE_S} s deadline of a run") from None
    if proc.returncode != 0 or not out.exists():
        raise EpisodeFailed(f"{role} episode of {workload} exited {proc.returncode}:\n"
                            f"{output[-4000:]}")
    return json.loads(out.read_text())


def iteration_s(unit: dict) -> float:
    """Seconds of one inner iteration of a unit (``h2_converge`` times a whole
    run of 400; everywhere else the unit is the iteration)."""
    return unit.get("train_s", unit["wall_s"]) / unit.get("inner", 1)


def reproducibility_failures(reference: list[dict], repeat: list[dict], what: str) -> list[str]:
    """Units whose fingerprint differs between two timings of the same seeded
    units: re-running, or tracing, must not change what the program computes."""
    return [f"unit {i}: outputs differ {what}"
            for i, (a, b) in enumerate(zip(reference, repeat))
            if a.get("fingerprint") != b.get("fingerprint")]


# ----------------------------------------------------------------- one run
def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 quick: bool = False) -> dict:
    """One run of one workload: episodes, pooling, checks -> the result object
    (``correct`` / ``attempted`` / ``failed`` / ``metrics`` plus ``detail``).
    A metric that was not measured has the value ``None``."""
    contract = load_contract()
    wanted = contract["per_layer" if trace else "end_to_end"]
    # a paired episode runs every unit twice: half the units, the same timed wall
    roles = ["paired"] if trace else ["timed"] * (1 if quick else EPISODES)
    share = seconds / 2 if trace else seconds / EPISODES
    out_dir = OUT / "quick" if quick else OUT
    out_dir.mkdir(parents=True, exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="tmp-", dir=OUT))
    deadline = time.monotonic() + RUN_DEADLINE_S
    episodes, problems = [], []
    try:
        for k, role in enumerate(roles):
            episodes.append(spawn_episode(workload, seed, share, role, quick,
                                          tmp / f"e{k}", out_dir, deadline))
    except EpisodeFailed as exc:
        problems.append(str(exc))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    if not episodes:          # nothing was timed: a failed run, no metrics
        return {"correct": False, "attempted": 1, "failed": 1, "metrics": {},
                "detail": {"workload": workload, "seed": seed, "problems": problems}}

    first = episodes[0]
    plain = first["units"]
    timed = [u for e in episodes for u in e["units"]]    # == plain when traced
    units = timed + first.get("traced_units", [])
    problems += [f"unit failed: {u.get('error', 'output check')}".strip()
                 for u in units if not u["ok"]]
    problems += [f"check failed: {c['name']} {c['detail']}".strip()
                 for e in episodes for c in e["checks"] if not c["ok"]]
    for e in episodes[1:]:
        problems += reproducibility_failures(plain, e["units"], "between two processes")

    if trace:
        traced = first["traced_units"]
        problems += reproducibility_failures(plain, traced, "with tracing on")
        values = layer_values(first)
        values["trace.overhead_frac"] = stats.median(
            (iteration_s(t) - iteration_s(p)) / iteration_s(p)
            for p, t in zip(plain, traced))
        values["engine.iter_cpu_s"] = stats.median(
            u["cpu_s"] / u.get("inner", 1) for u in plain)
        values["engine.iter_tail_pct"], values["engine.iter_tail_s"] = \
            stats.tail_percentile([iteration_s(u) for u in plain + traced])
        for name in first["unmeasured"]:
            values[name] = None
    else:
        values = {
            # seconds per unit over the whole run, not a median: a unit lands in
            # one of the host's two modes, and the median of a run that saw both
            # jumps between them where the mean moves with their shares
            "unit_s": sum(u["wall_s"] for u in timed) / len(timed),
            "setup_s": stats.median(e["setup_s"] for e in episodes),
            "peak_rss_mb": max(e["peak_rss_mb"] for e in episodes),
        }
    metrics = {m["name"]: {"value": values.get(m["name"]), "unit": m["unit"]}
               for m in wanted}
    return {
        "correct": not problems, "attempted": len(units), "failed": len(problems),
        "metrics": metrics,
        "detail": {
            "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
            "quick": quick, "units": len(timed),
            "samples": {"unit_s": len(timed), "setup_s": len(episodes),
                        "peak_rss_mb": len(episodes)},
            "problems": problems,
            "unmeasured": sorted(n for n, m in metrics.items() if m["value"] is None),
            "trace_missing": first.get("trace_missing", []),
            "unit_wall_s": [[u["wall_s"] for u in e["units"]] for e in episodes],
            "traced_unit_wall_s": [u["wall_s"] for u in first.get("traced_units", [])],
            "setup_s": [e["setup_s"] for e in episodes],
            "fingerprints": [u.get("fingerprint") for u in plain],
            "numpy": first.get("numpy"),
        },
    }


def layer_values(episode: dict) -> dict:
    """Per-layer values of a paired episode: medians over its traced units."""
    per_unit = [{name: value
                 for name, value in {**u["layers"], **u.get("values", {})}.items()
                 if value is not None}
                for u in episode["traced_units"]]
    values = {name: stats.median(m[name] for m in per_unit if name in m)
              for name in set().union(*per_unit)}
    for name in layers.SETUP_FALLBACK:
        if not values.get(name):
            values[name] = episode["setup_layers"].get(name)
    values.update(episode["counts"])
    return values


# ------------------------------------------------------------------- suite
def host_block(seed: int) -> dict:
    cpu = sha = None
    try:
        cpu = next(line.split(":", 1)[1].strip()
                   for line in Path("/proc/cpuinfo").read_text().splitlines()
                   if line.startswith("model name"))
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=REPO, timeout=10,
                             capture_output=True, text=True).stdout.strip() or None
    except (OSError, StopIteration, subprocess.SubprocessError):
        pass    # not Linux, or not a git checkout (the driver's is not)
    return {"nproc": os.cpu_count(), "cpu_model": cpu,
            "python": platform.python_version(), "blas_pins": PINS,
            "git_sha": sha, "seed": seed}


def run_suite(seed: int, seconds: float, quick: bool) -> int:
    contract = load_contract()
    names = [w["name"] for w in contract["workloads"]]
    runs: dict = {n: {"end_to_end": [], "per_layer": None} for n in names}
    for _ in range(1 if quick else ROUNDS):   # A B C D  A B C D: a noisy minute on
        for name in names:                    # the host cannot land on one workload
            print(f"[{name}] untraced ...", flush=True)
            runs[name]["end_to_end"].append(run_workload(name, seed, seconds, False, quick))
    for name in names:
        print(f"[{name}] traced ...", flush=True)
        runs[name]["per_layer"] = run_workload(name, seed, seconds, True, quick)

    latest = {"host": host_block(seed), "seconds": seconds, "rounds": ROUNDS,
              "quick": quick, "derived": list(DERIVED), "workloads": {}}
    for name in names:
        e2e, layered = runs[name]["end_to_end"], runs[name]["per_layer"]
        every = e2e + [layered]
        problems = [p for r in every for p in r["detail"]["problems"]]
        prints = [r["detail"].get("fingerprints", []) for r in every]
        common = min(map(len, prints))
        if any(p[:common] != prints[0][:common] for p in prints):
            problems.append("outputs differ between rounds of the same seed")
        latest["host"]["numpy"] = layered["detail"].get("numpy")
        latest["workloads"][name] = {
            "attempted": sum(r["attempted"] for r in every),
            "failed": len(problems),
            "problems": problems,
            "units": {"untraced": e2e[0]["detail"].get("units"),
                      "traced_pairs": layered["detail"].get("units")},
            "end_to_end": {m["name"]: {
                "unit": m["unit"], "bound": m["bound"], "better": m["better"],
                "runs": [r["metrics"][m["name"]]["value"] for r in e2e if r["metrics"]],
                "samples_per_run": e2e[0]["detail"].get("samples", {}).get(m["name"]),
            } for m in contract["end_to_end"]},
            "per_layer": layered["metrics"],
            "trace_missing": layered["detail"].get("trace_missing", []),
        }

    out_dir = OUT / "quick" if quick else OUT
    (out_dir / "latest.json").write_text(json.dumps(latest, indent=1) + "\n")
    print_suite(latest)
    return int(any(w["failed"] for w in latest["workloads"].values()))


def print_suite(latest: dict) -> None:
    print(json.dumps(latest["host"]))
    for name, w in latest["workloads"].items():
        print(f"\n== {name}: attempted {w['attempted']}, failed {w['failed']}")
        for p in w["problems"]:
            print(f"   !! {p}")
        for metric, m in w["end_to_end"].items():
            mid = stats.median(m["runs"])
            print(f"   {metric:34s} {'null' if mid is None else format(mid, '14.6g')}"
                  f" {m['unit']:6s} runs={len(m['runs'])}"
                  f" samples/run={m['samples_per_run']} bound={m['bound']:.0%}")
        pairs = w["units"]["traced_pairs"]
        for metric, m in w["per_layer"].items():
            if m["value"] is None:
                continue
            tag = " (derived)" if metric in latest["derived"] else ""
            print(f"   {metric:34s} {m['value']:14.6g} {m['unit']:6s} samples={pairs}{tag}")
        print("   null (not measured on this workload): "
              + ", ".join(k for k, m in w["per_layer"].items() if m["value"] is None))
        if w["trace_missing"]:
            print(f"   trace_missing: {', '.join(w['trace_missing'])}")


def contract_line(result: dict) -> str:
    """The last stdout line of a run.  The contract wants a number for every
    declared metric, so one that was not measured on this workload goes out as
    0 there; the run record and ``latest.json`` keep it ``null``."""
    metrics = {name: {"value": 0.0 if m["value"] is None else m["value"], "unit": m["unit"]}
               for name, m in result["metrics"].items()}
    return json.dumps({**{k: result[k] for k in ("correct", "attempted", "failed")},
                       "metrics": metrics})


def main(argv=None) -> int:
    contract = load_contract()
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=[w["name"] for w in contract["workloads"]])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=contract["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true",
                    help="smoke sizes, 2 units, 1 set-up: checks the harness, not the host")
    args = ap.parse_args(argv)
    if not (REPO / "src" / "repro").is_dir():
        print(f"no program to measure: {REPO / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2
    if args.workload is None:
        return run_suite(args.seed, args.seconds, args.quick)
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                          args.quick)
    out_dir = OUT / "quick" if args.quick else OUT
    (out_dir / f"run_{args.workload}_trace{args.trace}.json").write_text(
        json.dumps(result, indent=1) + "\n")
    for problem in result["detail"]["problems"]:
        print(f"!! {problem}", file=sys.stderr)
    if result["detail"].get("unmeasured"):
        print("not measured on this workload (0 in the line below): "
              + ", ".join(result["detail"]["unmeasured"]), file=sys.stderr)
    print(contract_line(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
