"""HTTP serving: latency vs offered load, one serving process against the
multi-worker tier it replaced.

The server runs in its own process, started through the CLI (``python -m
repro serve <run_dir> --port 0``), so the open-loop generator here does not
share its GIL.  Requests arrive on a paced schedule at a swept offered rate
and latency is measured from each request's *scheduled* arrival time — once
the server saturates, queueing delay shows up in the percentiles instead of
being hidden by a slowing generator (the closed-loop coordinated-omission
trap).  Per sweep point: offered and achieved throughput, p50/p95/p99
latency, the HTTP status mix, and CPU ms per answered request of the server
(its process tree, read from ``/proc/<pid>/stat``) and of the generator
(``time.process_time``: its own tree holds the server).
The sweep stops once achieved throughput falls below 80% of offered.

Two traffic mixes (``MIXES``):

* ``log_amplitudes`` — 2-row requests on the 4-qubit smoke preset, ~1 CPU
  ms each: the front door's own cost dominates.
* ``sample`` — ``n_samples=10000`` BAS requests with distinct seeds on the
  12-qubit ``n2-cas66`` preset, ~5 CPU ms each and never fused: model
  evaluation dominates, which is where a worker per core could pay.

The baseline is the router + worker-process tier of commit
``BASELINE_REV`` with its default 2 workers, unpacked from git history
(``git archive``, or ``--baseline-src DIR`` naming a checkout's ``src``)
and driven by the same generator in the same run.  Acceptance, on the
``log_amplitudes`` mix: the single process saturates at >= ``MIN_SPEEDUP``
x the baseline's 2-worker saturation — the bar the tier once set for a
second worker.  The ``sample`` mix is recorded, not gated.  p99 at 400 rps
(``log_amplitudes``) is measured again over ``P99_PAIRS`` alternating
pairs on two live servers, since one sweep point does not separate it
from run-to-run spread.

Run as a script::

    python benchmarks/bench_serving_net.py --smoke   # CI: correctness only
    python benchmarks/bench_serving_net.py           # the full sweep

The smoke mode is the CI "HTTP serving smoke": train the smoke preset,
serve it through the CLI, assert served results bit-identical to direct
in-process evaluation, burst past ``queue_capacity`` expecting 429s and
then a 200, then SIGTERM: the drain writes ``serve_stats.json``, exits 0
and the server never had a child process.
"""
from __future__ import annotations

import http.client
import io
import itertools
import json
import os
import re
import shutil
import signal
import subprocess
import sys
import tarfile
import tempfile
import threading
import time
from collections import Counter
from pathlib import Path

import numpy as np

MIN_SPEEDUP = 1.5   # single-process saturation over the 2-worker baseline's
BASELINE_REV = "ef559488785b637daca2cfc901e2eaeaa2937b1b"
P99_PAIRS = 10
ROOT = Path(__file__).resolve().parent.parent
_TICKS = os.sysconf("SC_CLK_TCK")


def _train_run(run_dir: Path, preset: str = "smoke") -> None:
    from repro.api import driver, presets

    spec = presets.get_preset(preset).with_overrides([
        "train.max_iterations=2",
        "sampling.ns_pretrain=300",
        "sampling.ns_max=300",
        "output.log_every=0",
    ])
    driver.run(spec, run_dir=run_dir)


def _payloads(n: int, n_qubits: int = 4, rows: int = 2,
              seed: int = 11) -> list[bytes]:
    """Pre-serialized ``log_amplitudes`` bodies with distinct rows."""
    rng = np.random.default_rng(seed)
    return [json.dumps({"bits": rng.integers(0, 2, size=(rows, n_qubits))
                        .tolist()}).encode() for _ in range(n)]


def _sample_payloads(n: int, n_samples: int = 10_000) -> list[bytes]:
    """Pre-serialized ``sample`` bodies, one seed each."""
    return [json.dumps({"n_samples": n_samples, "seed": seed}).encode()
            for seed in range(n)]


# mix -> (preset, op, bodies, offered rates)
MIXES = {
    "log_amplitudes": ("smoke", "log_amplitudes", _payloads,
                       [25, 50, 100, 200, 400, 800, 1600, 3200]),
    "sample": ("n2-cas66", "sample", _sample_payloads,
               [25, 50, 100, 200, 400, 800]),
}


def _post_json(port: int, path: str, body: dict) -> tuple[int, dict]:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    try:
        conn.request("POST", path, json.dumps(body).encode())
        resp = conn.getresponse()
        return resp.status, json.loads(resp.read())
    finally:
        conn.close()


# ------------------------------------------------------------- the server
def _children(pid: int) -> list[int]:
    out = []
    for task in Path(f"/proc/{pid}/task").iterdir():
        try:
            out += [int(c) for c in (task / "children").read_text().split()]
        except OSError:
            continue  # the thread ended between the listing and the read
    return out


def _cpu_s(pid: int) -> float:
    """User + system CPU seconds of ``pid`` and its live descendants."""
    total, stack = 0.0, [pid]
    while stack:
        p = stack.pop()
        try:
            fields = Path(f"/proc/{p}/stat").read_text().rsplit(")", 1)[1]
            fields = fields.split()
            total += (int(fields[11]) + int(fields[12])) / _TICKS
            stack += _children(p)
        except (OSError, ValueError):
            continue  # exited between the listing and the read
    return total


def _launch(run_dir: Path, src: Path, *extra: str) -> tuple[subprocess.Popen, int]:
    """``python -m repro serve <run_dir> --port 0`` on ``src``; waits for
    the listening line and returns the process and its port."""
    env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", str(run_dir), "--port", "0",
         *extra],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, env=env)
    lines = []
    for line in proc.stdout:
        lines.append(line)
        match = re.search(r"http://[^:\s]+:(\d+)", line)
        if match:
            return proc, int(match.group(1))
    proc.wait()
    raise RuntimeError(f"server exited {proc.returncode}: {''.join(lines)}")


def _stop(proc: subprocess.Popen) -> str:
    """SIGTERM (graceful drain); returns the remaining output."""
    proc.send_signal(signal.SIGTERM)
    try:
        out, _ = proc.communicate(timeout=60)
    except subprocess.TimeoutExpired:
        proc.kill()
        out, _ = proc.communicate()
    return out


# -------------------------------------------------------------- the load
def _offered_load(port: int, bodies: list[bytes], rate: float,
                  duration: float, server_pid: int, op: str = "log_amplitudes",
                  n_threads: int = 32) -> dict:
    """Open-loop: request i is *scheduled* at t0 + i/rate; a thread pool
    executes arrivals and measures latency from the scheduled time."""
    n = max(int(rate * duration), 1)
    counter = itertools.count()
    lock = threading.Lock()
    latencies: list[float] = []
    codes: Counter = Counter()
    t_last = [0.0]
    # The generator's own CPU: its process tree would include the server.
    server_cpu0, gen_cpu0 = _cpu_s(server_pid), time.process_time()
    t0 = time.perf_counter() + 0.1

    def client() -> None:
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
        while True:
            i = next(counter)
            if i >= n:
                break
            scheduled = t0 + i / rate
            delay = scheduled - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            try:
                conn.request("POST", f"/v1/{op}", bodies[i % len(bodies)])
                resp = conn.getresponse()
                resp.read()
                code = resp.status
            except (OSError, http.client.HTTPException):
                conn.close()
                conn = http.client.HTTPConnection("127.0.0.1", port,
                                                  timeout=60)
                code = -1
            done = time.perf_counter()
            with lock:
                codes[code] += 1
                latencies.append(done - scheduled)
                t_last[0] = max(t_last[0], done)
        conn.close()

    threads = [threading.Thread(target=client, daemon=True)
               for _ in range(min(n_threads, n))]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    wall = max(t_last[0] - t0, 1e-9)
    lat = np.asarray(latencies)
    ok = max(codes.get(200, 0), 1)
    return {
        "offered": rate,
        "achieved": codes.get(200, 0) / wall,
        "p50_ms": float(np.percentile(lat, 50)) * 1e3,
        "p95_ms": float(np.percentile(lat, 95)) * 1e3,
        "p99_ms": float(np.percentile(lat, 99)) * 1e3,
        "server_cpu_ms": (_cpu_s(server_pid) - server_cpu0) * 1e3 / ok,
        "gen_cpu_ms": (time.process_time() - gen_cpu0) * 1e3 / ok,
        "codes": dict(codes),
    }


def _sweep(label: str, mix: str, run_dir: Path, src: Path, duration: float,
           *extra: str) -> list[dict]:
    _, op, make_bodies, rates = MIXES[mix]
    bodies = make_bodies(256)
    proc, port = _launch(run_dir, src, "--set", "serve.max_wait_ms=1",
                         *extra)
    try:
        _offered_load(port, bodies, 20.0, 0.5, proc.pid, op)   # warm up
        points = []
        for rate in rates:
            point = _offered_load(port, bodies, rate, duration, proc.pid, op)
            point.update(server=label, mix=mix)
            points.append(point)
            if point["achieved"] < 0.8 * rate:
                break  # saturated: offered load beyond capacity
        return points
    finally:
        _stop(proc)


def _p99_pairs(run_dir: Path, base_src: Path, duration: float,
               n_pairs: int = P99_PAIRS, rate: float = 400.0) -> dict:
    """p99 of the ``log_amplitudes`` mix at ``rate`` on both servers, both
    live, in ``n_pairs`` back-to-back pairs whose order alternates."""
    bodies = _payloads(256)
    servers = {
        "base": _launch(run_dir, base_src, "--set", "serve.max_wait_ms=1",
                        "--workers", "2"),
        "one": _launch(run_dir, ROOT / "src", "--set", "serve.max_wait_ms=1"),
    }
    p99: dict[str, list[float]] = {"base": [], "one": []}
    try:
        for proc, port in servers.values():
            _offered_load(port, bodies, 20.0, 0.5, proc.pid)   # warm up
        for i in range(n_pairs):
            for side in (("base", "one") if i % 2 == 0 else ("one", "base")):
                proc, port = servers[side]
                p99[side].append(_offered_load(port, bodies, rate, duration,
                                               proc.pid)["p99_ms"])
    finally:
        for proc, _ in servers.values():
            _stop(proc)
    return p99


def _baseline_src(tmp: Path, baseline_src: Path | None) -> Path:
    if baseline_src is not None:
        return baseline_src
    archive = subprocess.run(
        ["git", "-C", str(ROOT), "archive", "--format=tar", BASELINE_REV,
         "src"], capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(tmp / "baseline")
    return tmp / "baseline" / "src"


def _format(points: list[dict], note: str) -> str:
    from reporting import format_table

    rows = [
        [
            p["mix"], p["server"], f"{p['offered']:.0f}",
            f"{p['achieved']:.0f}",
            f"{p['p50_ms']:.1f}", f"{p['p95_ms']:.1f}", f"{p['p99_ms']:.1f}",
            f"{p['server_cpu_ms']:.2f}", f"{p['gen_cpu_ms']:.2f}",
            " ".join(f"{k}:{v}" for k, v in sorted(p["codes"].items())),
        ]
        for p in points
    ]
    return format_table(
        "HTTP serving: latency vs offered load (open-loop)",
        ["traffic", "server", "offered rps", "achieved rps", "p50 ms",
         "p95 ms",
         "p99 ms", "server CPU ms/req", "generator CPU ms/req", "status"],
        rows,
        notes=note,
    )


def _quartiles(xs: list[float]) -> str:
    q1, q2, q3 = np.percentile(xs, [25, 50, 75])
    return f"{q2:.1f} ms (IQR {q1:.1f}-{q3:.1f})"


def run_bench(duration: float = 3.0,
              baseline_src: Path | None = None) -> tuple[list[dict], str]:
    from reporting import registry

    tmp = Path(tempfile.mkdtemp(prefix="bench-serving-net-"))
    try:
        base_src = _baseline_src(tmp, baseline_src)
        points, sat = [], {}
        for mix, (preset, *_) in MIXES.items():
            run_dir = tmp / f"run-{preset}"
            _train_run(run_dir, preset)
            base = _sweep("2 workers (baseline)", mix, run_dir, base_src,
                          duration, "--workers", "2")
            one = _sweep("1 process", mix, run_dir, ROOT / "src", duration)
            points += base + one
            sat[mix] = (max(p["achieved"] for p in one),
                        max(p["achieved"] for p in base))
        p99 = _p99_pairs(tmp / "run-smoke", base_src, duration)
        wins = sum(o < b for o, b in zip(p99["one"], p99["base"]))
        (one_la, base_la), (one_s, base_s) = sat["log_amplitudes"], sat["sample"]
        note = (
            f"Open-loop paced arrivals, latency from scheduled arrival time, "
            f"{duration:g} s per point; server started through the CLI in "
            f"its own process with OPENBLAS_NUM_THREADS=1, CPU ms per "
            f"answered request (server: its whole process tree from "
            f"/proc/<pid>/stat; generator: its own process). Host has {os.cpu_count()} CPU core(s). "
            f"log_amplitudes (2 rows, smoke preset): saturation {one_la:.0f} "
            f"rps in one process against {base_la:.0f} rps for the 2-worker "
            f"baseline (git {BASELINE_REV[:7]}), {one_la / base_la:.2f}x "
            f"(bar: >= {MIN_SPEEDUP}x). sample (n_samples=10000, n2-cas66, "
            f"not gated): {one_s:.0f} against {base_s:.0f} rps, "
            f"{one_s / base_s:.2f}x. p99 at 400 rps (log_amplitudes) over "
            f"{len(p99['one'])} alternating pairs: one process "
            f"{_quartiles(p99['one'])}, 2 workers "
            f"{_quartiles(p99['base'])}; one process lower in {wins} of "
            f"{len(p99['one'])} pairs."
        )
        registry.record("serving_net", _format(points, note))
        assert one_la >= MIN_SPEEDUP * base_la, (
            f"one-process saturation {one_la:.0f} rps is only "
            f"{one_la / base_la:.2f}x the 2-worker baseline's "
            f"{base_la:.0f} rps (bar: {MIN_SPEEDUP}x)"
        )
        return points, note
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def run_smoke() -> str:
    """The CI smoke: correctness, backpressure, and clean shutdown."""
    from concurrent.futures import ThreadPoolExecutor

    from repro.api.driver import serve_run
    from reporting import registry

    tmp = Path(tempfile.mkdtemp(prefix="bench-serving-net-smoke-"))
    run_dir = tmp / "run"
    lines = []
    try:
        _train_run(run_dir)
        with serve_run(run_dir) as svc:
            batch = svc.sample(64, seed=3)
            direct = svc.log_amplitudes(batch.bits)

        proc, port = _launch(run_dir, ROOT / "src",
                             "--set", "serve.max_wait_ms=0",
                             "--set", "serve.queue_capacity=2",
                             "--set", "serve.max_batch_size=2")
        try:
            # 1. Served results must be bit-identical to direct evaluation.
            status, resp = _post_json(port, "/v1/log_amplitudes",
                                      {"bits": batch.bits.tolist()})
            assert status == 200, f"log_amplitudes -> {status}: {resp}"
            served = np.array([complex(re_, im) for re_, im in resp["value"]])
            assert np.array_equal(served, direct), \
                "served log_amplitudes differ from direct evaluation"
            status, resp = _post_json(port, "/v1/sample",
                                      {"n_samples": 64, "seed": 3})
            assert status == 200
            assert np.array_equal(np.asarray(resp["bits"], dtype=np.uint8),
                                  batch.bits), "served sample bits differ"
            lines.append(f"bit-identity: OK ({len(batch.bits)} unique "
                         "configurations, log_amplitudes and sample)")

            # 2. A burst past queue_capacity must yield 429s, not a wedge.
            bodies = _payloads(128)

            def one(body: bytes) -> int:
                conn = http.client.HTTPConnection("127.0.0.1", port,
                                                  timeout=60)
                try:
                    conn.request("POST", "/v1/log_amplitudes", body)
                    resp = conn.getresponse()
                    resp.read()
                    return resp.status
                finally:
                    conn.close()

            with ThreadPoolExecutor(32) as pool:
                codes = Counter(pool.map(one, bodies))
            assert set(codes) <= {200, 429}, f"unexpected statuses: {codes}"
            assert codes[429] > 0, f"no 429 under burst: {codes}"
            status, _ = _post_json(port, "/v1/log_amplitudes",
                                   {"bits": [[0, 1, 0, 1]]})
            assert status == 200, "service wedged after overload burst"
            lines.append(f"backpressure: OK (burst of {len(bodies)} -> "
                         f"{codes[200]}x200 + {codes[429]}x429, "
                         "served again after)")
            children = _children(proc.pid)
            assert children == [], f"server started processes: {children}"
        finally:
            out = _stop(proc)

        # 3. Clean shutdown: drained, stats written, exit 0.
        assert proc.returncode == 0, f"server exited {proc.returncode}: {out}"
        stats = json.loads((run_dir / "serve_stats.json").read_text())
        assert stats["drained"] and stats["http"]["requests"] >= 131
        lines.append(f"shutdown: OK (graceful drain, exit 0, "
                     f"{stats['http']['requests']} requests in "
                     "serve_stats.json, no child process)")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    text = "HTTP serving smoke (one serving process, started through the CLI)\n"
    text += "\n".join(f"  {line}" for line in lines)
    registry.record("serving_net_smoke", text)
    return text


def test_serving_net(benchmark, full):
    run_smoke()
    if full:
        run_bench()
    benchmark(lambda: _payloads(32))


if __name__ == "__main__":
    import argparse

    sys.path.insert(0, str(ROOT / "src"))
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="CI smoke: correctness/backpressure/shutdown only")
    parser.add_argument("--duration", type=float, default=3.0,
                        help="seconds per sweep point (full mode)")
    parser.add_argument("--baseline-src", type=Path, default=None,
                        help="src/ of a checkout of the 2-worker tier "
                             f"(default: git archive {BASELINE_REV[:7]})")
    args = parser.parse_args()
    if args.smoke:
        run_smoke()
    else:
        run_bench(duration=args.duration, baseline_src=args.baseline_src)
        print("acceptance: see the recorded note in "
              "benchmarks/results/serving_net.txt")
