"""Framed wire protocol + rendezvous coordinator for the cluster backend.

The cluster transport (:mod:`repro.parallel.cluster`) moves typed collective
payloads between hosts over plain TCP.  This module owns the two pieces that
are independent of the collectives themselves:

* **The frame layer** — every message on every socket (coordinator control
  traffic and peer-to-peer collective traffic alike) is one length-prefixed
  frame::

      header  = !2sBBI  -> magic b"Rv" | protocol version | frame type | body length
      body    = u32 meta length | JSON meta (utf-8) | raw payload bytes

  Three frame types: ``FRAME_CTRL`` (JSON control message, no raw payload),
  ``FRAME_ARRAY`` (meta carries dtype/shape, raw carries the array bytes) and
  ``FRAME_BLOB`` (meta carries the declared logical size, raw carries opaque
  pre-encoded bytes).  ``recv_frame`` validates magic, version, bounds and —
  for arrays — that dtype/shape are well-formed and consistent with the
  payload length, raising :class:`ClusterProtocolError` instead of
  reconstructing garbage.

* **The rendezvous coordinator** — a tiny TCP server (``python -m repro
  rendezvous --port P --world-size N``) that assigns ranks, exchanges peer
  listen addresses so ranks can build the full mesh, and then supervises
  heartbeats: a rank that stops heartbeating (or whose connection drops
  without a clean ``leave``) past the deadline poisons every survivor with an
  ``abort`` control frame carrying the canonical
  :func:`~repro.parallel.comm.dead_rank_message`, mirroring the process
  transport's crash semantics.

Control messages are JSON dicts with a ``kind`` key:

====================  ======================================================
``hello``             rank -> coordinator: ``{wants_rank, addr, world_size}``
``welcome``           coordinator -> rank: ``{rank, world_size, peers,
                      heartbeat_interval, heartbeat_timeout, session}``
``reject``            coordinator -> rank: ``{reason}`` (then close)
``heartbeat``         rank -> coordinator: ``{rank}`` (periodic liveness)
``leave``             rank -> coordinator: ``{rank}`` (clean shutdown)
``abort``             coordinator -> rank: ``{reason}`` (poison survivors)
``peer-hello``        rank -> rank: ``{rank, session}`` (mesh handshake)
====================  ======================================================
"""
from __future__ import annotations

import json
import math
import socket
import struct
import threading
import time
import uuid

import numpy as np

from repro.parallel.comm import dead_rank_message, poison_survivors

__all__ = [
    "ClusterProtocolError",
    "FRAME_ARRAY",
    "FRAME_BLOB",
    "FRAME_CTRL",
    "MAGIC",
    "MAX_FRAME_BYTES",
    "PROTOCOL_VERSION",
    "RendezvousCoordinator",
    "build_frame",
    "connect_with_retry",
    "parse_addr",
    "recv_frame",
    "send_ctrl",
    "send_frame",
]

MAGIC = b"Rv"
PROTOCOL_VERSION = 1

FRAME_CTRL = 1
FRAME_ARRAY = 2
FRAME_BLOB = 3
_FRAME_TYPES = (FRAME_CTRL, FRAME_ARRAY, FRAME_BLOB)

# magic (2s) | version (B) | frame type (B) | body length (I)
_HEADER = struct.Struct("!2sBBI")
_META_LEN = struct.Struct("!I")

# Hard ceiling on a single frame.  Stage-2 amplitude payloads for
# benzene-class runs are O(100 MB); 2 GiB leaves headroom while still
# rejecting nonsense lengths from corrupt or hostile peers immediately.
MAX_FRAME_BYTES = 2 * 1024**3


class ClusterProtocolError(ValueError):
    """A peer sent bytes that violate the framed wire protocol."""


# --------------------------------------------------------------------- frames
def build_frame(ftype: int, meta: dict, raw: bytes = b"") -> bytes:
    """Serialize one frame (header + meta + raw) into a single bytes object."""
    if ftype not in _FRAME_TYPES:
        raise ClusterProtocolError(f"unknown frame type {ftype}")
    meta_blob = json.dumps(meta, separators=(",", ":")).encode("utf-8")
    body_len = _META_LEN.size + len(meta_blob) + len(raw)
    if body_len > MAX_FRAME_BYTES:
        raise ClusterProtocolError(
            f"frame body of {body_len} bytes exceeds MAX_FRAME_BYTES"
        )
    header = _HEADER.pack(MAGIC, PROTOCOL_VERSION, ftype, body_len)
    return b"".join((header, _META_LEN.pack(len(meta_blob)), meta_blob, raw))


def send_frame(sock: socket.socket, ftype: int, meta: dict,
               raw: bytes = b"") -> int:
    """Send one frame; returns the number of wire bytes written."""
    frame = build_frame(ftype, meta, raw)
    sock.sendall(frame)
    return len(frame)


def send_ctrl(sock: socket.socket, **meta) -> int:
    """Send one FRAME_CTRL message (``kind`` lives inside ``meta``)."""
    return send_frame(sock, FRAME_CTRL, meta)


def recv_exact(sock: socket.socket, n: int) -> bytes:
    """Read exactly ``n`` bytes or raise ``ConnectionError`` on EOF."""
    chunks = []
    remaining = n
    while remaining:
        chunk = sock.recv(min(remaining, 1 << 20))
        if not chunk:
            raise ConnectionError(
                f"connection closed with {remaining} of {n} bytes unread"
            )
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def _validate_array_meta(meta: dict, raw: bytes) -> np.ndarray:
    """Reconstruct an ndarray from (meta, raw), validating dtype and shape."""
    try:
        dtype = np.dtype(meta["dtype"])
        shape = tuple(meta["shape"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ClusterProtocolError(f"malformed array meta: {exc!r}") from None
    if not all(isinstance(d, int) and d >= 0 for d in shape):
        raise ClusterProtocolError(f"malformed array shape {shape!r}")
    expected = int(math.prod(shape)) * dtype.itemsize
    if expected != len(raw):
        raise ClusterProtocolError(
            f"array frame declares dtype={dtype} shape={shape} "
            f"({expected} bytes) but carries {len(raw)} payload bytes"
        )
    return np.frombuffer(raw, dtype=dtype).reshape(shape).copy()


def recv_frame(sock: socket.socket) -> tuple[int, dict, bytes]:
    """Read one validated frame; returns ``(ftype, meta, raw)``.

    Raises :class:`ClusterProtocolError` for protocol violations (bad magic,
    version mismatch, bogus lengths, malformed meta) and ``ConnectionError``
    when the peer closes mid-frame.  For ``FRAME_ARRAY`` the reconstructed
    ndarray is returned in ``meta["array"]`` after dtype/shape validation.
    """
    magic, version, ftype, body_len = _HEADER.unpack(
        recv_exact(sock, _HEADER.size)
    )
    if magic != MAGIC:
        raise ClusterProtocolError(f"bad frame magic {magic!r}")
    if version != PROTOCOL_VERSION:
        raise ClusterProtocolError(
            f"protocol version mismatch: peer speaks v{version}, "
            f"this build speaks v{PROTOCOL_VERSION}"
        )
    if ftype not in _FRAME_TYPES:
        raise ClusterProtocolError(f"unknown frame type {ftype}")
    if body_len < _META_LEN.size or body_len > MAX_FRAME_BYTES:
        raise ClusterProtocolError(f"implausible frame body length {body_len}")
    body = recv_exact(sock, body_len)
    (meta_len,) = _META_LEN.unpack(body[: _META_LEN.size])
    if _META_LEN.size + meta_len > body_len:
        raise ClusterProtocolError(
            f"frame meta length {meta_len} overruns body of {body_len} bytes"
        )
    meta_blob = body[_META_LEN.size : _META_LEN.size + meta_len]
    raw = body[_META_LEN.size + meta_len :]
    try:
        meta = json.loads(meta_blob.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ClusterProtocolError(f"undecodable frame meta: {exc!r}") from None
    if not isinstance(meta, dict):
        raise ClusterProtocolError(
            f"frame meta must be a JSON object, got {type(meta).__name__}"
        )
    if ftype == FRAME_CTRL and raw:
        raise ClusterProtocolError("control frames carry no raw payload")
    if ftype == FRAME_ARRAY:
        meta["array"] = _validate_array_meta(meta, raw)
    return ftype, meta, raw


# ------------------------------------------------------------------ utilities
def parse_addr(addr: str) -> tuple[str, int]:
    """Parse ``host:port`` into ``(host, port)`` with a clear error."""
    host, sep, port = addr.rpartition(":")
    if not sep or not host:
        raise ValueError(f"expected host:port, got {addr!r}")
    try:
        port_num = int(port)
    except ValueError:
        raise ValueError(f"expected host:port, got {addr!r}") from None
    if not 0 < port_num < 65536:
        raise ValueError(f"port {port_num} out of range in {addr!r}")
    return host, port_num


def connect_with_retry(host: str, port: int, *, timeout: float,
                       attempt_timeout: float = 2.0) -> socket.socket:
    """Dial ``host:port``, retrying with bounded exponential backoff.

    Retries connection-refused / timed-out attempts until ``timeout`` seconds
    have elapsed overall, sleeping ``0.05 * 2**attempt`` (capped at 1 s)
    between attempts — covers the "ranks launch before the coordinator is up"
    race without hammering the host.  The returned socket has TCP_NODELAY set
    and no timeout configured (callers set their own).
    """
    deadline = time.monotonic() + timeout
    delay = 0.05
    attempt = 0
    while True:
        attempt += 1
        budget = deadline - time.monotonic()
        if budget <= 0:
            raise TimeoutError(
                f"could not connect to {host}:{port} within {timeout:.1f}s "
                f"({attempt - 1} attempts)"
            )
        try:
            sock = socket.create_connection(
                (host, port), timeout=min(attempt_timeout, max(budget, 0.05))
            )
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            sock.settimeout(None)
            return sock
        except (ConnectionRefusedError, ConnectionResetError, TimeoutError,
                socket.timeout, OSError):
            time.sleep(min(delay, 1.0, max(deadline - time.monotonic(), 0)))
            delay *= 2


# ---------------------------------------------------------------- coordinator
class RendezvousCoordinator:
    """Rank assignment + liveness supervision for one cluster job.

    Lifecycle::

        coord = RendezvousCoordinator(world_size=2, port=0)
        host, port = coord.start()     # accept thread running
        ...                            # ranks connect, run, leave
        outcome = coord.wait()         # "completed" | "aborted: ..."
        coord.stop()

    The coordinator accepts exactly ``world_size`` members.  Each member
    sends ``hello`` (optionally pinning an explicit rank); once the world is
    full every member receives ``welcome`` with the rank -> listen-address
    table so the mesh can be built without further coordinator involvement.
    After that the coordinator only watches heartbeats: a member that misses
    the heartbeat deadline, or whose socket drops without ``leave``, is
    declared dead and every survivor is poisoned with an ``abort`` frame.
    Garbage connections (port scanners, protocol mismatches) are rejected
    without disturbing the job.
    """

    def __init__(self, world_size: int, host: str = "127.0.0.1",
                 port: int = 0, *, join_timeout: float = 60.0,
                 heartbeat_interval: float = 2.0,
                 heartbeat_timeout: float = 10.0):
        if world_size < 1:
            raise ValueError(f"world_size must be >= 1, got {world_size}")
        if heartbeat_timeout <= heartbeat_interval:
            raise ValueError(
                "heartbeat_timeout must exceed heartbeat_interval "
                f"({heartbeat_timeout} <= {heartbeat_interval})"
            )
        self.world_size = int(world_size)
        self.host = host
        self.port = int(port)
        self.join_timeout = float(join_timeout)
        self.heartbeat_interval = float(heartbeat_interval)
        self.heartbeat_timeout = float(heartbeat_timeout)
        self.session = uuid.uuid4().hex[:12]
        self._listener: socket.socket | None = None
        self._threads: list[threading.Thread] = []
        self._lock = threading.Lock()
        self._members: dict[int, dict] = {}  # rank -> {conn, addr, last_seen, left}
        self._stop = threading.Event()
        self._done = threading.Event()
        self._outcome: str | None = None

    # ------------------------------------------------------------- lifecycle
    def start(self) -> tuple[str, int]:
        """Bind, listen and launch the accept + monitor threads."""
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((self.host, self.port))
        listener.listen(self.world_size + 4)
        listener.settimeout(0.2)
        self._listener = listener
        self.port = listener.getsockname()[1]
        accept = threading.Thread(
            target=self._accept_loop, name="rendezvous-accept", daemon=True
        )
        accept.start()
        self._threads.append(accept)
        return self.host, self.port

    def wait(self, timeout: float | None = None) -> str | None:
        """Block until the job finishes; returns the outcome string."""
        self._done.wait(timeout)
        return self._outcome

    def stop(self) -> None:
        """Tear down the listener and every member connection."""
        self._stop.set()
        if self._listener is not None:
            try:
                self._listener.close()
            except OSError:
                pass
        with self._lock:
            conns = [m["conn"] for m in self._members.values()]
        for conn in conns:
            try:
                conn.close()
            except OSError:
                pass
        for t in self._threads:
            if t is not threading.current_thread():
                t.join(timeout=5.0)

    def _finish(self, outcome: str, poison: str | None = None,
                exclude: set[int] = frozenset()) -> None:
        """Conclude the job: the first verdict stands, and it is recorded
        *before* the survivors are poisoned with ``poison``.  Poisoning shuts
        down member sockets, which wakes their readers with an EOF; a reader
        must find the verdict taken, not blame the rank it was woken for.
        ``wait()`` is released only once the poison is out."""
        with self._lock:
            if self._outcome is not None:
                return
            self._outcome = outcome
        try:
            if poison is not None:
                self._abort_all(poison, exclude=exclude)
        finally:
            self._done.set()

    # ----------------------------------------------------------- join phase
    def _accept_loop(self) -> None:
        deadline = time.monotonic() + self.join_timeout
        joined = 0
        claimed: set[int] = set()
        pending: list[tuple[socket.socket, dict]] = []
        try:
            while joined < self.world_size and not self._stop.is_set():
                if time.monotonic() > deadline:
                    for conn, _ in pending:
                        self._close_quietly(conn)
                    self._finish(
                        f"aborted: join timeout ({joined}/{self.world_size})",
                        poison=f"rendezvous join timed out: {joined} of "
                               f"{self.world_size} ranks joined within "
                               f"{self.join_timeout:.1f}s",
                    )
                    return
                try:
                    conn, _ = self._listener.accept()
                except socket.timeout:
                    continue
                except OSError:
                    return
                hello = self._read_hello(conn)
                if hello is None:
                    continue  # garbage connection, already closed
                rank = self._assign_rank(hello, claimed, conn)
                if rank is None:
                    continue  # rejected, already closed
                claimed.add(rank)
                pending.append((conn, {"rank": rank, "addr": hello["addr"]}))
                joined += 1
            if self._stop.is_set():
                for conn, _ in pending:
                    self._close_quietly(conn)
                return
            self._welcome_all(pending)
            self._supervise()
        except Exception as exc:  # pragma: no cover - defensive backstop
            self._finish(f"aborted: coordinator error: {exc!r}",
                         poison=f"coordinator internal error: {exc!r}")

    def _read_hello(self, conn: socket.socket) -> dict | None:
        """Read + validate one hello; returns None (conn closed) on garbage."""
        conn.settimeout(5.0)
        try:
            ftype, meta, _ = recv_frame(conn)
            if ftype != FRAME_CTRL or meta.get("kind") != "hello":
                raise ClusterProtocolError(
                    f"expected hello, got {meta.get('kind')!r}"
                )
            host, port = parse_addr(str(meta["addr"]))
            meta["addr"] = f"{host}:{port}"
            if int(meta.get("world_size", self.world_size)) != self.world_size:
                send_ctrl(
                    conn, kind="reject",
                    reason=(
                        f"world_size mismatch: coordinator supervises "
                        f"{self.world_size} ranks, member expects "
                        f"{meta.get('world_size')}"
                    ),
                )
                self._close_quietly(conn)
                return None
            return meta
        except (ClusterProtocolError, ConnectionError, ValueError, KeyError,
                TypeError, OSError):
            self._close_quietly(conn)
            return None

    def _assign_rank(self, hello: dict, claimed: set[int],
                     conn: socket.socket) -> int | None:
        wants = hello.get("wants_rank")
        if wants is None:
            rank = next(
                r for r in range(self.world_size) if r not in claimed
            )
            return rank
        try:
            rank = int(wants)
        except (TypeError, ValueError):
            rank = -1
        reason = None
        if not 0 <= rank < self.world_size:
            reason = (
                f"requested rank {wants!r} outside world of {self.world_size}"
            )
        elif rank in claimed:
            reason = f"rank {rank} already claimed by another member"
        if reason is not None:
            try:
                send_ctrl(conn, kind="reject", reason=reason)
            except OSError:
                pass
            self._close_quietly(conn)
            return None
        return rank

    def _welcome_all(self, pending: list[tuple[socket.socket, dict]]) -> None:
        peers = {
            str(info["rank"]): info["addr"] for _, info in pending
        }
        now = time.monotonic()
        with self._lock:
            for conn, info in pending:
                self._members[info["rank"]] = {
                    "conn": conn, "addr": info["addr"], "last_seen": now,
                    "left": False,
                }
        for conn, info in pending:
            send_ctrl(
                conn, kind="welcome", rank=info["rank"],
                world_size=self.world_size, peers=peers,
                heartbeat_interval=self.heartbeat_interval,
                heartbeat_timeout=self.heartbeat_timeout,
                session=self.session,
            )

    # ------------------------------------------------------ supervise phase
    def _supervise(self) -> None:
        """Watch heartbeats until every member leaves or somebody dies."""
        for rank, member in list(self._members.items()):
            t = threading.Thread(
                target=self._member_reader, args=(rank, member["conn"]),
                name=f"rendezvous-member-{rank}", daemon=True,
            )
            t.start()
            self._threads.append(t)
        while not self._stop.is_set():
            time.sleep(min(self.heartbeat_interval, 0.2))
            now = time.monotonic()
            with self._lock:
                left = [r for r, m in self._members.items() if m["left"]]
                dead = [
                    r for r, m in self._members.items()
                    if not m["left"]
                    and now - m["last_seen"] > self.heartbeat_timeout
                ]
                all_left = len(left) == len(self._members)
            if all_left:
                self._finish("completed")
                return
            if dead:
                message = dead_rank_message(
                    dead, "missed the heartbeat deadline"
                )
                self._finish(f"aborted: {message}", poison=message,
                             exclude=set(dead))
                return

    def _member_reader(self, rank: int, conn: socket.socket) -> None:
        """Consume heartbeats/leave from one member; EOF marks it dead."""
        while not self._stop.is_set():
            try:
                # Inside the try: stop() may have closed the socket before
                # this thread was first scheduled.
                conn.settimeout(None)
                ftype, meta, _ = recv_frame(conn)
            except (ConnectionError, ClusterProtocolError, OSError):
                with self._lock:
                    member = self._members.get(rank)
                    if (member is None or member["left"]
                            or self._outcome is not None):
                        return
                # Socket dropped without a clean leave: poison immediately
                # rather than waiting out the heartbeat deadline.
                message = dead_rank_message(
                    [rank], "connection closed mid-run"
                )
                self._finish(f"aborted: {message}", poison=message,
                             exclude={rank})
                return
            if ftype != FRAME_CTRL:
                continue
            kind = meta.get("kind")
            if kind == "heartbeat":
                with self._lock:
                    if rank in self._members:
                        self._members[rank]["last_seen"] = time.monotonic()
            elif kind == "leave":
                with self._lock:
                    if rank in self._members:
                        self._members[rank]["left"] = True
                return

    def _abort_all(self, message: str, exclude: set[int] = frozenset()) -> None:
        with self._lock:
            targets = {
                r: m["conn"] for r, m in self._members.items()
                if r not in exclude and not m["left"]
            }

        def send_abort(rank: int, msg: str) -> None:
            conn = targets[rank]
            send_ctrl(conn, kind="abort", reason=msg)
            # Wake any recv blocked on this socket so the poison is seen even
            # if the member is wedged inside a collective on the mesh.
            try:
                conn.shutdown(socket.SHUT_RD)
            except OSError:
                pass

        poison_survivors(sorted(targets), send_abort, message)

    @staticmethod
    def _close_quietly(conn: socket.socket) -> None:
        try:
            conn.close()
        except OSError:
            pass


def main(argv: list[str] | None = None) -> int:
    """CLI entry point for ``python -m repro rendezvous``."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="repro rendezvous",
        description="Run the cluster rendezvous coordinator for one job.",
    )
    parser.add_argument("--port", type=int, required=True,
                        help="TCP port to listen on (0 picks a free port)")
    parser.add_argument("--host", default="0.0.0.0",
                        help="interface to bind (default: all)")
    parser.add_argument("--world-size", type=int, required=True,
                        help="number of ranks in the job")
    parser.add_argument("--join-timeout", type=float, default=60.0,
                        help="seconds to wait for all ranks to join")
    parser.add_argument("--heartbeat-interval", type=float, default=2.0,
                        help="seconds between member heartbeats")
    parser.add_argument("--heartbeat-timeout", type=float, default=10.0,
                        help="seconds without a heartbeat before a rank "
                             "is declared dead")
    args = parser.parse_args(argv)

    coord = RendezvousCoordinator(
        world_size=args.world_size, host=args.host, port=args.port,
        join_timeout=args.join_timeout,
        heartbeat_interval=args.heartbeat_interval,
        heartbeat_timeout=args.heartbeat_timeout,
    )
    host, port = coord.start()
    print(
        f"rendezvous listening on {host}:{port} "
        f"(world_size={args.world_size})",
        flush=True,
    )
    try:
        outcome = coord.wait()
    except KeyboardInterrupt:
        outcome = "aborted: interrupted"
    finally:
        coord.stop()
    print(f"rendezvous finished: {outcome}", flush=True)
    return 0 if outcome == "completed" else 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
