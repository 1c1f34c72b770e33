#!/usr/bin/env python3
"""Compare two suite records (``out/latest.json`` of ``run.py``): base, then new.

    python3 benchmarks/perf/compare.py A.json B.json

One row per workload and end-to-end metric, judged against the metric's bound
from the *base* record; then the per-layer deltas with their base values.
A metric whose run-to-run quartile spread exceeds its bound is reported as
``unresolved`` — never as unchanged — unless every run of the new side beats
every run of the base.  Exits 1 on a regression, on a *(count)* metric that
differs between two records of the same seed, or when a larger share of
operations failed.
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import stats  # noqa: E402


def verdict(name: str, base_runs, new_runs, bound: float, better: str = "lower") -> str:
    """``regression`` / ``unresolved`` / ``improved`` / ``ok`` for one metric on
    one workload (choosing-metrics guide, section 6.5)."""
    base, new = stats.median(base_runs), stats.median(new_runs)
    sign = 1 if better == "lower" else -1
    if stats.regressed(name, base, new, bound, better):
        return "regression"
    clean_win = max(sign * v for v in new_runs) < min(sign * v for v in base_runs)
    spreads = [s for s in map(stats.quartile_spread, (base_runs, new_runs)) if s is not None]
    if spreads and max(spreads) > bound and not clean_win:
        return "unresolved"
    if sign * (base - new) > bound * abs(base):
        return "improved"
    return "ok"


def compare(base: dict, new: dict, out=sys.stdout) -> int:
    """Print the comparison; return the exit code."""
    bad = 0
    same_seed = base["host"].get("seed") == new["host"].get("seed")
    print(f"base {base['host'].get('git_sha')} seed {base['host'].get('seed')}"
          f" | new {new['host'].get('git_sha')} seed {new['host'].get('seed')}", file=out)
    print(f"{'workload':16s} {'metric':12s} {'base':>12s} {'new':>12s} {'delta':>8s}"
          f" {'bound':>6s}  verdict", file=out)
    for name, b in base["workloads"].items():
        n = new["workloads"].get(name)
        if n is None:
            print(f"{name:16s} missing from the new record", file=out)
            bad = 1
            continue
        for metric, m in b["end_to_end"].items():
            runs_b = m["runs"]
            runs_n = n["end_to_end"].get(metric, {}).get("runs", [])
            if not runs_b or not runs_n:     # a run that failed outright has no metrics
                side = "base" if not runs_b else "new"
                print(f"{name:16s} {metric:12s} not measured in the {side} record", file=out)
                bad |= bool(runs_b)
                continue
            mb, mn = stats.median(runs_b), stats.median(runs_n)
            result = verdict(metric, runs_b, runs_n, m["bound"], m.get("better", "lower"))
            bad |= result == "regression"
            print(f"{name:16s} {metric:12s} {mb:12.6g} {mn:12.6g} {_change(mb, mn)}"
                  f" {m['bound']:6.0%}  {result}  (n={len(runs_b)}/{len(runs_n)})", file=out)
        share_b = b["failed"] / max(1, b["attempted"])
        share_n = n["failed"] / max(1, n["attempted"])
        if share_n > share_b:
            print(f"{name:16s} failed share rose: {b['failed']}/{b['attempted']}"
                  f" -> {n['failed']}/{n['attempted']}", file=out)
            bad = 1

    print("\nper-layer (traced pass; base value, new value, change)", file=out)
    for name, b in base["workloads"].items():
        n = new["workloads"].get(name)
        if n is None:
            continue
        for metric, m in b["per_layer"].items():
            vb, vn = m["value"], n["per_layer"].get(metric, {}).get("value")
            if vb is None and vn is None:    # measured on neither side
                continue
            if vb is None or vn is None:
                print(f"{name:16s} {metric:34s} {_cell(vb)} {_cell(vn)}      n/a"
                      f" {m['unit']}  measured on one side only", file=out)
                continue
            note = ""
            if m["unit"] == "count" and vb != vn:
                note = "  count differs" + (" (same seed: the program changed)"
                                            if same_seed else " (seeds differ)")
                bad |= same_seed
            print(f"{name:16s} {metric:34s} {_cell(vb)} {_cell(vn)} {_change(vb, vn)}"
                  f" {m['unit']}{note}", file=out)
    return int(bad)


def _cell(value) -> str:
    return f"{'null':>14s}" if value is None else f"{value:14.6g}"


def _change(base, new) -> str:
    """``new / base - 1``; a ratio to a base of 0 does not exist."""
    return f"{new / base - 1:+8.1%}" if base else "     n/a"


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = (json.loads(Path(p).read_text()) for p in argv)
    return compare(base, new)


if __name__ == "__main__":
    sys.exit(main())
