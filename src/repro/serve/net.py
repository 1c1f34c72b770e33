"""The HTTP front door: one process, one in-process service.

:class:`NetServer` is what ``python -m repro serve <run_dir> --port P``
runs: a stdlib ``ThreadingHTTPServer`` speaking JSON over one
:class:`~repro.serve.service.WavefunctionService` built by
:func:`repro.api.driver.serve_run` (see DESIGN.md "Serving").

* ``POST /v1/{log_amplitudes,amplitudes,sample,conditional_probs,
  local_energy,refresh}`` and ``GET /v1/{stats,versions,healthz}``.
  Complex results are ``[re, im]`` pairs (JSON floats round-trip
  bit-exactly, so served amplitudes compare bit-identical to direct
  in-process evaluation).
* Each handler thread parses its body, submits to the service's
  microbatcher with ``timeout=0.0`` — a full bounded queue rejects at once
  instead of parking the thread — and waits for its future at most
  ``_REQUEST_TIMEOUT_S``.  Errors map through :data:`ERROR_STATUS`:
  overload -> 429, closed or timed out -> 503, bad input -> 400; an
  unknown op is 404 and an oversized body 413.
* A poller calls ``service.refresh()`` every ``serve.refresh_poll_s`` so a
  snapshot the trainer publishes is served mid-traffic; a request keeps
  the version it resolved at submit time.
* ``close()`` (wired to SIGTERM/SIGINT by the CLI) stops HTTP intake,
  drains the service (every accepted request is answered) and writes
  ``serve_stats.json`` into the run directory (``python -m repro info``
  prints it), all within ``serve.drain_timeout_s``: past it the backlog
  gets 503 and the stats say ``"drained": false`` (the CLI exits 1).
"""
from __future__ import annotations

import json
import threading
import time
from concurrent.futures import Future
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import numpy as np

from repro.core.sampler import SampleBatch
from repro.serve.scheduler import ServiceClosedError, ServiceOverloadedError

__all__ = ["ERROR_STATUS", "NetServer", "OPS", "SERVE_STATS_FILE"]

SERVE_STATS_FILE = "serve_stats.json"

# Largest accepted HTTP request body (413 above it).
_MAX_BODY_BYTES = 64 * 1024 * 1024

# Longest a handler waits for its answer (503 "timeout" past it).
_REQUEST_TIMEOUT_S = 120.0

# The backpressure contract on one line per failure mode.  429 means "the
# service is up but full — retry with backoff"; 503 means "draining,
# nothing published yet, or no answer within _REQUEST_TIMEOUT_S".
ERROR_STATUS = {
    "overloaded": 429,
    "closed": 503,
    "timeout": 503,
    "bad-request": 400,
    "internal": 500,
}

OPS = ("log_amplitudes", "amplitudes", "sample", "conditional_probs",
       "local_energy")


def _error_code(exc: BaseException) -> str:
    if isinstance(exc, ServiceOverloadedError):
        return "overloaded"
    if isinstance(exc, ServiceClosedError):
        return "closed"
    if isinstance(exc, TimeoutError):
        return "timeout"
    if isinstance(exc, (ValueError, KeyError, TypeError)):
        return "bad-request"
    return "internal"


def _answer(fut: Future):
    """The future's result within ``_REQUEST_TIMEOUT_S``; a request still
    queued at the deadline is cancelled, so it never runs."""
    try:
        return fut.result(timeout=_REQUEST_TIMEOUT_S)
    except TimeoutError:
        fut.cancel()
        raise TimeoutError(
            f"no answer within {_REQUEST_TIMEOUT_S:g} s") from None


def _json_array(arr: np.ndarray):
    """ndarray -> JSON-encodable nested lists; complex as [re, im] pairs."""
    if np.iscomplexobj(arr):
        return np.stack([arr.real, arr.imag], axis=-1).tolist()
    return arr.tolist()


class _BodyTooLarge(Exception):
    def __init__(self, length: int):
        super().__init__(length)
        self.length = length


def _bad_body(op: str, exc: BaseException) -> str:
    if isinstance(exc, KeyError):
        return f"op {op!r} requires field {exc.args[0]!r}"
    return f"malformed body for op {op!r}: {exc}"


def _parse_op_body(op: str, body: dict) -> tuple[dict, dict]:
    """JSON body -> (args, arrays); raises on bad input."""
    args: dict = {}
    arrays: dict[str, np.ndarray] = {}
    if body.get("version") is not None:
        args["version"] = int(body["version"])
    if op in ("log_amplitudes", "amplitudes"):
        arrays["bits"] = np.atleast_2d(np.asarray(body["bits"],
                                                  dtype=np.uint8))
    elif op == "sample":
        args["n_samples"] = int(body["n_samples"])
        args["seed"] = int(body.get("seed", 0))
    elif op == "conditional_probs":
        arrays["prefix_tokens"] = np.atleast_2d(
            np.asarray(body["prefix_tokens"], dtype=np.int64))
        arrays["counts_up"] = np.asarray(body["counts_up"], dtype=np.int64)
        arrays["counts_dn"] = np.asarray(body["counts_dn"], dtype=np.int64)
    elif op == "local_energy":
        arrays["bits"] = np.atleast_2d(np.asarray(body["bits"],
                                                  dtype=np.uint8))
        arrays["weights"] = np.asarray(body["weights"], dtype=np.int64)
        if body.get("mode") is not None:
            args["mode"] = str(body["mode"])
    return args, arrays


class _Httpd(ThreadingHTTPServer):
    daemon_threads = True
    allow_reuse_address = True
    # The default listen backlog (5) resets connections under bursts the
    # 429 path is specifically designed to absorb.
    request_queue_size = 128
    net: "NetServer"


class _Handler(BaseHTTPRequestHandler):
    server_version = "repro-serve/1"
    protocol_version = "HTTP/1.1"
    # Headers and body leave as two writes; with Nagle on, the body waits
    # for the client's delayed ACK (~40 ms) on every keep-alive request.
    disable_nagle_algorithm = True

    def log_message(self, fmt, *args):  # noqa: D102 - silence stderr spam
        pass

    def _send_json(self, status: int, obj: dict) -> None:
        body = json.dumps(obj).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if self.close_connection:
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)
        self.server.net.record_status(status)

    def _send_error_json(self, status: int, code: str, message: str) -> None:
        self._send_json(status, {"ok": False,
                                 "error": {"code": code, "message": message}})

    def _read_body(self) -> bytes:
        length = int(self.headers.get("Content-Length", 0))
        if length > _MAX_BODY_BYTES:
            raise _BodyTooLarge(length)
        return self.rfile.read(length) if length > 0 else b""

    def do_GET(self):  # noqa: N802 - stdlib handler API
        net = self.server.net
        if self.path == "/v1/healthz":
            self._send_json(200, {"ok": True,
                                  "version": net.service.active_version()})
        elif self.path == "/v1/stats":
            self._send_json(200, {"ok": True, **net.stats()})
        elif self.path == "/v1/versions":
            registry = net.service.registry
            self._send_json(200, {"ok": True,
                                  "versions": registry.versions(),
                                  "latest": registry.latest_version()})
        else:
            self._send_error_json(404, "bad-request",
                                  f"unknown path {self.path}")

    def do_POST(self):  # noqa: N802 - stdlib handler API
        net = self.server.net
        net.track(+1)
        try:
            self._post()
        finally:
            net.track(-1)

    def _post(self) -> None:
        op = self.path[len("/v1/"):] if self.path.startswith("/v1/") else None
        try:
            raw = self._read_body()
        except _BodyTooLarge as exc:
            # The body stays unread on the socket: this connection is done.
            self.close_connection = True
            self._send_error_json(
                413, "bad-request",
                f"{exc.length}-byte body exceeds {_MAX_BODY_BYTES}")
            return
        except ValueError as exc:
            self.close_connection = True
            self._send_error_json(400, "bad-request",
                                  f"bad Content-Length: {exc}")
            return
        if op == "refresh":
            self._send_json(200, {"ok": True,
                                  "version": self.server.net.service.refresh()})
            return
        if op not in OPS:
            self._send_error_json(
                404, "bad-request",
                f"unknown path {self.path} (ops: {', '.join(OPS)})")
            return
        try:
            body = json.loads(raw) if raw else {}
            if not isinstance(body, dict):
                raise ValueError("request body must be a JSON object")
            args, arrays = _parse_op_body(op, body)
        except (KeyError, ValueError, TypeError) as exc:
            self._send_error_json(400, "bad-request", _bad_body(op, exc))
            return
        try:
            version, out = self.server.net.call(op, args, arrays)
        except Exception as exc:  # noqa: BLE001 - mapped to a status
            code = _error_code(exc)
            self._send_error_json(ERROR_STATUS[code], code, str(exc))
            return
        payload = {"ok": True, "version": version}
        for name, arr in out.items():
            payload[name] = _json_array(arr)
        self._send_json(200, payload)


class NetServer:
    """HTTP/JSON front door over one in-process :class:`WavefunctionService`.

    ``serve_spec`` is the run's ``serve`` section (batcher knobs, poll
    period, drain budget); ``None`` reads it from the run's ``spec.json``.
    """

    def __init__(self, run_dir, host: str = "127.0.0.1", port: int = 0,
                 serve_spec=None):
        from repro.api.driver import SPEC_FILE, serve_run
        from repro.api.spec import RunSpec

        self.run_dir = Path(run_dir)
        if serve_spec is None:
            serve_spec = RunSpec.load(self.run_dir / SPEC_FILE).serve
        self.spec = serve_spec
        self.service = serve_run(self.run_dir,
                                 config=serve_spec.to_serve_config())
        self._httpd = _Httpd((host, int(port)), _Handler)
        self._httpd.net = self
        self.host, self.port = self._httpd.server_address[:2]
        self._stop = threading.Event()
        self._closed = False
        self._lock = threading.Lock()
        self._http_requests = 0
        self._http_statuses: dict[str, int] = {}
        self._in_flight = 0
        self._started_at = time.time()

    # ----------------------------------------------------------- lifecycle
    def start(self) -> "NetServer":
        self.service.start()
        for target, name in ((self._refresh_poll, "net-refresh-poll"),
                             (self._httpd.serve_forever, "net-http")):
            threading.Thread(target=target, name=name, daemon=True).start()
        return self

    def __enter__(self) -> "NetServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.close()

    def _refresh_poll(self) -> None:
        """Follow the registry: a newly published snapshot becomes the
        version unpinned requests resolve to."""
        period = float(self.spec.refresh_poll_s)
        if period <= 0:
            return
        while not self._stop.wait(period):
            try:
                self.service.refresh()
            except Exception:  # noqa: BLE001 - registry mid-publish; retry
                pass

    # ------------------------------------------------------------ requests
    def call(self, op: str, args: dict,
             arrays: dict) -> tuple[int, dict[str, np.ndarray]]:
        """Run one parsed request on the service: ``(version, arrays)``."""
        svc = self.service
        version = args.get("version")
        if version is None:
            # Resolve once, here: the response reports the version it was
            # computed with even if a refresh lands mid-flight.
            version = svc.active_version()
            if version is None:
                raise ServiceClosedError("registry has no published versions")
        version = int(version)
        if op in ("log_amplitudes", "amplitudes"):
            submit = (svc.submit_log_amplitudes if op == "log_amplitudes"
                      else svc.submit_amplitudes)
            fut = submit(arrays["bits"], version=version, timeout=0.0)
            return version, {"value": _answer(fut)}
        if op == "sample":
            fut = svc.submit_sample(args["n_samples"], args["seed"],
                                    version=version, timeout=0.0)
            batch = _answer(fut)
            return version, {"bits": batch.bits, "weights": batch.weights}
        if op == "conditional_probs":
            fut = svc.submit_conditional_probs(
                arrays["prefix_tokens"], arrays["counts_up"],
                arrays["counts_dn"], version=version, timeout=0.0)
            return version, {"probs": _answer(fut)}
        batch = SampleBatch(bits=arrays["bits"], weights=arrays["weights"])
        fut = svc.submit_local_energy(batch, mode=args.get("mode", "exact"),
                                      version=version, timeout=0.0)
        return version, {"value": _answer(fut)}

    # ---------------------------------------------------------- monitoring
    def track(self, delta: int) -> None:
        with self._lock:
            self._in_flight += delta

    def record_status(self, status: int) -> None:
        with self._lock:
            self._http_requests += 1
            key = str(status)
            self._http_statuses[key] = self._http_statuses.get(key, 0) + 1

    def stats(self) -> dict:
        with self._lock:
            http = {"requests": self._http_requests,
                    "statuses": dict(self._http_statuses)}
        return {"http": http, "service": self.service.stats(),
                "uptime_s": time.time() - self._started_at}

    # -------------------------------------------------------------- drain
    def close(self) -> dict | None:
        """Graceful drain; returns the final stats written to
        ``serve_stats.json`` (None when already closed)."""
        with self._lock:
            if self._closed:
                return None
            self._closed = True
        self._stop.set()
        deadline = time.monotonic() + float(self.spec.drain_timeout_s)
        # Stop intake, then answer every request the service accepted (a
        # keep-alive connection's next request gets 503 from here on).
        self._httpd.shutdown()
        self._httpd.server_close()
        drained = self.service.close(
            drain=True, timeout=max(deadline - time.monotonic(), 0.0))
        # Let the handlers write what the drain answered, so the counters
        # below include it.
        while self._in_flight and time.monotonic() < deadline:
            time.sleep(0.01)
        stats = self.stats()
        stats["drained"] = drained and not self._in_flight
        stats["finished_at"] = time.time()
        try:
            (self.run_dir / SERVE_STATS_FILE).write_text(
                json.dumps(stats, indent=2, default=str))
        except OSError:
            pass
        return stats
