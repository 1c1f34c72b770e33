"""The HTTP front door: one process over one in-process service.

Fast tests cover ServeSpec validation, the refusal of the removed
multi-worker fields and options, TCP_NODELAY on accepted connections and
the status of each malformed request.  The ``@pytest.mark.slow`` half
checks the contract end to end: served results bit-identical to direct
in-process evaluation, overload -> 429 without wedging, version refresh
mid-traffic without torn reads, graceful drain on shutdown, and the CLI
serving over HTTP until SIGTERM.
"""
from __future__ import annotations

import http.client
import json
import os
import shutil
import signal
import socket
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from repro.api.cli import main as cli_main
from repro.api.spec import RunSpec, ServeSpec, SpecError
from repro.serve import ServiceClosedError, ServiceOverloadedError, net
from repro.serve.net import NetServer

SMOKE_ARGS = [
    "--set", "train.max_iterations=2",
    "--set", "sampling.ns_pretrain=300",
    "--set", "sampling.ns_max=300",
]


# ---------------------------------------------------------------------------
# ServeSpec
# ---------------------------------------------------------------------------
class TestServeSpec:
    def test_defaults_valid_and_round_trip(self):
        spec = RunSpec()
        out = RunSpec.from_dict(spec.to_dict())
        assert out.serve == spec.serve

    def test_spec_without_serve_section_still_loads(self):
        # Run dirs written before the serving tier existed have no "serve"
        # key in spec.json; they must keep loading with defaults.
        data = RunSpec().to_dict()
        del data["serve"]
        assert RunSpec.from_dict(data).serve == ServeSpec()

    def test_validation_names_field_paths(self):
        with pytest.raises(SpecError, match="serve.max_batch_size"):
            ServeSpec(max_batch_size=0)
        with pytest.raises(SpecError, match="serve.prefix_cache_entries"):
            ServeSpec(prefix_cache_entries=0)
        with pytest.raises(SpecError, match="serve.max_wait_ms"):
            ServeSpec(max_wait_ms=-1.0)
        with pytest.raises(SpecError, match="serve.drain_timeout_s"):
            ServeSpec(drain_timeout_s=0)

    def test_set_overrides_reach_serve_section(self):
        spec = RunSpec().with_overrides(
            ["serve.max_batch_size=64", "serve.refresh_poll_s=3",
             "serve.max_wait_ms=0.5"])
        assert spec.serve.max_batch_size == 64
        assert spec.serve.refresh_poll_s == 3
        assert spec.serve.max_wait_ms == 0.5
        with pytest.raises(SpecError, match="serve.queue_capacity"):
            RunSpec().with_overrides(["serve.queue_capacity=0"])

    def test_to_serve_config_carries_batcher_knobs(self):
        cfg = ServeSpec(max_batch_size=17, max_wait_ms=0.25,
                        queue_capacity=5, submit_timeout=1.5).to_serve_config()
        assert (cfg.max_batch_size, cfg.max_wait_ms,
                cfg.queue_capacity, cfg.submit_timeout) == (17, 0.25, 5, 1.5)


    @pytest.mark.parametrize("field", ["workers", "prefix_anchor",
                                       "hash_replicas", "respawn_backoff_s",
                                       "session_pool_size", "backend"])
    def test_a_spec_naming_a_removed_field_fails_loudly(self, field):
        data = RunSpec().to_dict()
        data["serve"][field] = 1
        with pytest.raises(SpecError, match=f"unknown field.*serve.{field}"):
            RunSpec.from_dict(data)

    @pytest.mark.parametrize("argv", [
        ["serve", "RUN", "--port", "0", "--workers", "2"],
        ["serve-worker", "RUN", "--connect", "127.0.0.1:1", "--worker-id", "0"],
    ])
    def test_the_cli_has_no_worker_options(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            cli_main(argv)
        assert exc.value.code == 2
        capsys.readouterr()


# ---------------------------------------------------------------------------
# Over real sockets: the front door in this process
# ---------------------------------------------------------------------------
def _post(port: int, path: str, body: dict, timeout: float = 60.0):
    req = urllib.request.Request(
        f"http://127.0.0.1:{port}{path}", data=json.dumps(body).encode(),
        headers={"Content-Type": "application/json"})
    try:
        with urllib.request.urlopen(req, timeout=timeout) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as err:
        return err.code, json.loads(err.read())


def _get(port: int, path: str, timeout: float = 30.0):
    with urllib.request.urlopen(f"http://127.0.0.1:{port}{path}",
                                timeout=timeout) as resp:
        return resp.status, json.loads(resp.read())


def _complex(pairs) -> np.ndarray:
    return np.array([complex(re, im) for re, im in pairs],
                    dtype=np.complex128)


@pytest.fixture(scope="module")
def net_run(tmp_path_factory):
    run_dir = tmp_path_factory.mktemp("net") / "run"
    rc = cli_main(["run", "--preset", "smoke", *SMOKE_ARGS,
                   "--run-dir", str(run_dir)])
    assert rc == 0
    return run_dir


@contextmanager
def _server(run_dir, **spec_kw):
    spec_kw.setdefault("max_wait_ms", 0.0)
    with NetServer(run_dir, serve_spec=ServeSpec(**spec_kw)) as server:
        yield server


VALID = {"bits": [[1, 0, 1, 0]]}


class TestFrontDoor:
    def test_accepted_connections_disable_nagle(self, net_run):
        """Headers and body leave in two writes: with Nagle on, the body
        waits for the client's delayed ACK on every keep-alive request."""
        seen = []

        class Probe(net._Handler):
            def setup(self):
                super().setup()
                seen.append(self.connection.getsockopt(socket.IPPROTO_TCP,
                                                       socket.TCP_NODELAY))

        with _server(net_run) as server:
            server._httpd.RequestHandlerClass = Probe
            assert _post(server.port, "/v1/log_amplitudes", VALID)[0] == 200
            assert _get(server.port, "/v1/healthz")[0] == 200
        assert len(seen) == 2 and all(seen), seen

    @staticmethod
    def _raw(port: int, path: str, body: bytes, headers: dict | None = None):
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
        try:
            conn.putrequest("POST", path)
            for name, value in (headers or
                                {"Content-Length": str(len(body))}).items():
                conn.putheader(name, value)
            conn.endheaders(body or None)
            resp = conn.getresponse()
            return resp.status, json.loads(resp.read())
        finally:
            conn.close()

    @pytest.fixture(scope="class")
    def door(self, net_run):
        with _server(net_run) as server:
            yield server

    @pytest.mark.parametrize("path,body,headers,want", [
        pytest.param("/v1/log_amplitudes", b"{not json", None, 400,
                     id="non-JSON body"),
        pytest.param("/v1/log_amplitudes", b'{"bots": [[1, 0, 1, 0]]}', None,
                     400, id="missing bits"),
        pytest.param("/v1/log_amplitudes", b'{"bits": [[1, 0, 1, 0], [1, 0]]}',
                     None, 400, id="ragged bits"),
        pytest.param("/v1/log_amplitudes", b'{"bits": [[1, 0]]}', None, 400,
                     id="bits of the wrong width"),
        pytest.param("/v1/local_energy",
                     b'{"bits": [[1, 0]], "weights": [1]}', None, 400,
                     id="local_energy bits of the wrong width"),
        pytest.param("/v1/conditional_probs",
                     b'{"prefix_tokens": [[9]], "counts_up": [0], '
                     b'"counts_dn": [0]}', None, 400,
                     id="prefix token past the vocab"),
        pytest.param("/v1/no_such_op", json.dumps(VALID).encode(), None, 404,
                     id="unknown op"),
        pytest.param("/v1/log_amplitudes", b"",
                     {"Content-Length": str(net._MAX_BODY_BYTES + 1)}, 413,
                     id="oversized body"),
    ])
    def test_a_malformed_request_gets_its_status(self, door, path, body,
                                                 headers, want):
        before = _get(door.port, "/v1/stats")[1]["http"]["statuses"]
        status, resp = self._raw(door.port, path, body, headers)
        assert status == want, resp
        assert resp["ok"] is False and resp["error"]["message"]
        # The next valid request, on a fresh connection, is served.
        assert _post(door.port, "/v1/log_amplitudes", VALID)[0] == 200
        after = _get(door.port, "/v1/stats")[1]["http"]["statuses"]
        assert after.get(str(want), 0) == before.get(str(want), 0) + 1

    @pytest.mark.parametrize("exc,status", [
        pytest.param(ServiceOverloadedError("queue full"), 429, id="overloaded"),
        pytest.param(ServiceClosedError("draining"), 503, id="closed"),
        pytest.param(TimeoutError("no answer"), 503, id="timeout"),
        pytest.param(ValueError("bad bits"), 400, id="ValueError"),
        pytest.param(KeyError("bits"), 400, id="KeyError"),
        pytest.param(TypeError("not a list"), 400, id="TypeError"),
        pytest.param(RuntimeError("boom"), 500, id="anything else"),
    ])
    def test_each_failure_maps_to_its_status(self, exc, status):
        assert net.ERROR_STATUS[net._error_code(exc)] == status

    def test_a_closed_service_answers_503(self, net_run):
        with _server(net_run) as server:
            server.service.close()
            status, resp = _post(server.port, "/v1/log_amplitudes", VALID)
            assert status == 503 and resp["error"]["code"] == "closed", resp
            assert _get(server.port, "/v1/healthz")[0] == 200

    @staticmethod
    def _stall(server) -> tuple[threading.Event, threading.Event]:
        """Hold every batch the service runs until ``release`` is set."""
        picked_up, release = threading.Event(), threading.Event()
        run = server.service._batcher._runner

        def stalled(key, payloads):
            picked_up.set()
            release.wait(timeout=30)
            return run(key, payloads)

        server.service._batcher._runner = stalled
        return picked_up, release

    def test_a_request_past_the_timeout_gets_503(self, net_run, monkeypatch):
        monkeypatch.setattr(net, "_REQUEST_TIMEOUT_S", 0.3)
        with _server(net_run) as server:
            _, release = self._stall(server)
            try:
                status, resp = _post(server.port, "/v1/log_amplitudes",
                                     VALID)
            finally:
                release.set()
            assert status == 503 and resp["error"]["code"] == "timeout", resp

    def test_close_returns_within_the_drain_budget(self, net_run):
        """A drain stuck behind a slow batch: close() returns on time with
        ``drained`` false, and the queued request gets 503."""
        server = NetServer(net_run, serve_spec=ServeSpec(
            max_wait_ms=0.0, max_batch_size=1, drain_timeout_s=0.5)).start()
        picked_up, release = self._stall(server)
        with ThreadPoolExecutor(2) as pool:
            running = pool.submit(_post, server.port, "/v1/log_amplitudes",
                                  VALID)
            assert picked_up.wait(timeout=10)
            queued = pool.submit(_post, server.port, "/v1/log_amplitudes",
                                 VALID)
            deadline = time.monotonic() + 10
            while server.service.stats()["batcher"]["requests"] < 1 or \
                    server._in_flight < 2:
                assert time.monotonic() < deadline
                time.sleep(0.01)
            t0 = time.monotonic()
            stats = server.close()
            elapsed = time.monotonic() - t0
            release.set()
            assert queued.result(timeout=10)[0] == 503
            assert running.result(timeout=10)[0] == 200
        assert elapsed < 2.0, elapsed
        assert stats["drained"] is False

    @pytest.mark.parametrize("op", net.OPS)
    def test_every_op_answers_what_the_service_does(self, door, net_run, op):
        from repro.api.driver import serve_run
        from repro.core.sampler import SampleBatch

        bits = np.array([[1, 1, 0, 0], [1, 0, 0, 1]], dtype=np.uint8)
        prefix = np.array([[2], [1]], dtype=np.int64)
        bodies = {
            "log_amplitudes": {"bits": bits.tolist()},
            "amplitudes": {"bits": bits.tolist()},
            "sample": {"n_samples": 32, "seed": 5},
            "local_energy": {"bits": bits.tolist(), "weights": [3, 1]},
        }
        with serve_run(net_run) as svc:
            cu, cd = svc.registry.load()[0].sector_counts(prefix)
            bodies["conditional_probs"] = {
                "prefix_tokens": prefix.tolist(), "counts_up": cu.tolist(),
                "counts_dn": cd.tolist()}
            direct = {
                "log_amplitudes": lambda: svc.log_amplitudes(bits),
                "amplitudes": lambda: svc.amplitudes(bits),
                "sample": lambda: svc.sample(32, seed=5).bits,
                "conditional_probs": lambda: svc.conditional_probs(prefix,
                                                                   cu, cd),
                "local_energy": lambda: svc.local_energy(
                    SampleBatch(bits=bits, weights=np.array([3, 1]))),
            }[op]()
        status, resp = _post(door.port, f"/v1/{op}", bodies[op])
        assert status == 200 and resp["version"] == 1, resp
        name = {"sample": "bits", "conditional_probs": "probs"}.get(op, "value")
        got = np.asarray(resp[name])
        if np.iscomplexobj(direct):
            got = _complex(resp[name])
        np.testing.assert_array_equal(got, direct)


@pytest.mark.slow
class TestServingE2E:
    def test_served_results_bit_identical_to_direct(self, net_run):
        from repro.api.driver import serve_run

        with serve_run(net_run) as svc:
            batch = svc.sample(64, seed=3)
            direct_la = svc.log_amplitudes(batch.bits)
        with _server(net_run) as server:
            status, resp = _post(server.port, "/v1/log_amplitudes",
                                 {"bits": batch.bits.tolist()})
            assert status == 200 and resp["ok"]
            np.testing.assert_array_equal(_complex(resp["value"]), direct_la)

            status, resp = _post(server.port, "/v1/sample",
                                 {"n_samples": 64, "seed": 3})
            assert status == 200
            np.testing.assert_array_equal(
                np.asarray(resp["bits"], dtype=np.uint8), batch.bits)
            np.testing.assert_array_equal(
                np.asarray(resp["weights"], dtype=np.int64), batch.weights)

    def test_overload_returns_429_without_wedging(self, net_run):
        rng = np.random.default_rng(0)
        payloads = [[[int(b) for b in rng.integers(0, 2, 4)]]
                    for _ in range(150)]
        with _server(net_run, queue_capacity=2, max_batch_size=2) as server:
            def one(bits):
                return _post(server.port, "/v1/log_amplitudes",
                             {"bits": bits})[0]

            with ThreadPoolExecutor(32) as pool:
                codes = Counter(pool.map(one, payloads))
            # Burst past queue_capacity: some rejected, none mangled.
            assert set(codes) <= {200, 429}, codes
            assert codes[200] > 0
            assert codes[429] > 0, f"no backpressure seen: {codes}"
            # The full-queue path must not wedge the service: a fresh
            # request right after the burst is served.
            assert _post(server.port, "/v1/log_amplitudes",
                         {"bits": [[0, 1, 0, 1]]})[0] == 200
            _, stats = _get(server.port, "/v1/stats")
            assert stats["http"]["statuses"].get("429", 0) > 0

    def test_refresh_mid_traffic_has_no_torn_reads(self, net_run,
                                                   tmp_path_factory):
        from repro.serve.registry import ModelRegistry

        # Private copy: this test publishes a second version.
        run_dir = tmp_path_factory.mktemp("refresh") / "run"
        shutil.copytree(net_run, run_dir)
        registry = ModelRegistry(run_dir / "models")
        v1 = registry.latest_version()
        bits = np.array([[1, 0, 1, 0]], dtype=np.uint8)

        with _server(run_dir, refresh_poll_s=0.3) as server:
            responses = []
            status, resp = _post(server.port, "/v1/log_amplitudes",
                                 {"bits": bits.tolist()})
            assert status == 200 and resp["version"] == v1
            responses.append(resp)

            wf, _ = registry.load()
            wf.set_flat_params(wf.get_flat_params() + 0.01)
            v2 = registry.publish(wf, metadata={"test": "v2"})

            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline:
                status, resp = _post(server.port, "/v1/log_amplitudes",
                                     {"bits": bits.tolist()})
                assert status == 200
                responses.append(resp)
                if resp["version"] == v2:
                    break
                time.sleep(0.05)
            assert responses[-1]["version"] == v2, "refresh never landed"

        # No torn reads: every response bit-matches the direct evaluation
        # of exactly the version it reports — never a blend.
        direct = {}
        for version in (v1, v2):
            wf_v, _ = registry.load(version)
            direct[version] = wf_v.log_amplitudes(bits)
        for resp in responses:
            assert resp["version"] in (v1, v2)
            np.testing.assert_array_equal(
                _complex(resp["value"]), direct[resp["version"]],
                err_msg=f"torn read at version {resp['version']}")

    def test_graceful_drain_writes_stats(self, net_run):
        server = NetServer(net_run,
                           serve_spec=ServeSpec(max_wait_ms=0.0)).start()
        try:
            for seed in range(3):
                assert _post(server.port, "/v1/sample",
                             {"n_samples": 16, "seed": seed})[0] == 200
        finally:
            stats = server.close()
        assert stats is not None and stats["drained"]
        stats_path = net_run / "serve_stats.json"
        assert stats_path.exists()
        recorded = json.loads(stats_path.read_text())
        assert recorded["http"] == {"requests": 3, "statuses": {"200": 3}}
        assert recorded["service"]["batcher"]["requests"] == 3
        # Intake is closed: nothing listens on the port any more.
        with pytest.raises(OSError):
            socket.create_connection(("127.0.0.1", server.port), timeout=5)
        # Closing twice is a no-op, not an error.
        assert server.close() is None

    def test_info_surfaces_serving_stats(self, net_run, capsys):
        # Runs after the drain test wrote serve_stats.json (same module
        # fixture); guard in case of reordering.
        if not (net_run / "serve_stats.json").exists():
            with _server(net_run) as server:
                _post(server.port, "/v1/sample", {"n_samples": 8, "seed": 0})
        assert cli_main(["info", str(net_run)]) == 0
        out = capsys.readouterr().out
        assert "models   versions" in out
        assert "serving" in out
        assert "rows/batch" in out

    def test_cli_serve_http_end_to_end(self, net_run):
        env = os.environ.copy()
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", str(net_run),
             "--port", "0",
             "--set", "serve.max_wait_ms=0"],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True, env=env)
        try:
            line, deadline = "", time.monotonic() + 180.0
            while time.monotonic() < deadline:
                line = proc.stdout.readline()
                if "serving" in line and "http://" in line:
                    break
            assert "http://" in line, f"server never came up: {line!r}"
            port = int(line.rsplit(":", 1)[1].split()[0])
            status, body = _get(port, "/v1/healthz")
            assert status == 200 and body["version"] == 1
            assert _post(port, "/v1/log_amplitudes",
                         {"bits": [[1, 0, 1, 0]]})[0] == 200
            proc.send_signal(signal.SIGTERM)
            out, _ = proc.communicate(timeout=60)
            assert proc.returncode == 0, out
            assert "draining" in out
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
