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
  rendezvous --port P --world-size N``) that assigns ranks and hands every
  member the table of peer listen addresses, then closes its sockets and
  exits: the ranks build the mesh themselves and never talk to it again.  A
  dead or silent rank is its peers' concern, as for forked ranks: socket EOF
  or ``collective_timeout_s`` (:mod:`repro.parallel.cluster`).

Control messages are JSON dicts with a ``kind`` key:

====================  ======================================================
``hello``             rank -> coordinator: ``{wants_rank, addr, world_size}``
``welcome``           coordinator -> rank: ``{rank, world_size, peers,
                      session}`` (then close)
``reject``            coordinator -> rank: ``{reason}`` (then close)
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
    "close_socket",
    "connect_with_retry",
    "frame_head",
    "parse_addr",
    "recv_frame",
    "send_ctrl",
    "send_frame",
    "send_parts",
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
# A frame's payload starts at this byte boundary of its body.
_PAYLOAD_ALIGN = 16

# Hard ceiling on a single frame.  Stage-2 amplitude payloads for
# benzene-class runs are O(100 MB); 2 GiB leaves headroom while still
# rejecting nonsense lengths from corrupt or hostile peers immediately.
MAX_FRAME_BYTES = 2 * 1024**3


class ClusterProtocolError(ValueError):
    """A peer sent bytes that violate the framed wire protocol."""


# --------------------------------------------------------------------- frames
def frame_head(ftype: int, meta: dict, raw_len: int) -> bytes:
    """Everything of a frame before its ``raw_len`` payload bytes.

    The JSON meta is padded with spaces so the payload starts at a multiple
    of :data:`_PAYLOAD_ALIGN` inside the body: :func:`recv_frame` reads an
    array straight out of the received body, and numpy runs its fast loops
    only on aligned data.
    """
    if ftype not in _FRAME_TYPES:
        raise ClusterProtocolError(f"unknown frame type {ftype}")
    meta_blob = json.dumps(meta, separators=(",", ":")).encode("utf-8")
    meta_blob += b" " * (-(_META_LEN.size + len(meta_blob)) % _PAYLOAD_ALIGN)
    body_len = _META_LEN.size + len(meta_blob) + raw_len
    if body_len > MAX_FRAME_BYTES:
        raise ClusterProtocolError(
            f"frame body of {body_len} bytes exceeds MAX_FRAME_BYTES"
        )
    return b"".join((_HEADER.pack(MAGIC, PROTOCOL_VERSION, ftype, body_len),
                     _META_LEN.pack(len(meta_blob)), meta_blob))


def build_frame(ftype: int, meta: dict, raw: bytes = b"") -> bytes:
    """Serialize one frame (header + meta + raw) into a single bytes object."""
    return frame_head(ftype, meta, len(raw)) + raw


def send_parts(sock: socket.socket, parts) -> int:
    """Write buffers back to back with scatter-gather sends, copying none
    of them; returns the number of bytes written."""
    views = [memoryview(p).cast("B") for p in parts]
    views = [v for v in views if len(v)]
    total = sum(len(v) for v in views)
    while views:
        sent = sock.sendmsg(views)
        while views and sent >= len(views[0]):
            sent -= len(views.pop(0))
        if sent:
            views[0] = views[0][sent:]
    return total


def send_frame(sock: socket.socket, ftype: int, meta: dict,
               raw: bytes = b"") -> int:
    """Send one frame; returns the number of wire bytes written."""
    return send_parts(sock, (frame_head(ftype, meta, len(raw)), raw))


def send_ctrl(sock: socket.socket, **meta) -> int:
    """Send one FRAME_CTRL message (``kind`` lives inside ``meta``)."""
    return send_frame(sock, FRAME_CTRL, meta)


def recv_exact(sock: socket.socket, n: int) -> bytearray:
    """Read exactly ``n`` bytes into one new buffer, or raise
    ``ConnectionError`` on EOF."""
    buf = bytearray(n)
    view = memoryview(buf)
    got = 0
    while got < n:
        chunk = sock.recv_into(view[got:])
        if not chunk:
            raise ConnectionError(
                f"connection closed with {n - got} of {n} bytes unread"
            )
        got += chunk
    return buf


def _validate_array_meta(meta: dict, raw: memoryview) -> np.ndarray:
    """The ndarray ``meta`` declares over ``raw`` — a view, not a copy —
    after validating its dtype and shape against the payload length."""
    try:
        dtype = np.dtype(meta["dtype"])
        shape = tuple(meta["shape"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ClusterProtocolError(f"malformed array meta: {exc!r}") from None
    if dtype.hasobject:
        raise ClusterProtocolError(f"array frame declares object dtype {dtype}")
    if not all(isinstance(d, int) and d >= 0 for d in shape):
        raise ClusterProtocolError(f"malformed array shape {shape!r}")
    expected = int(math.prod(shape)) * dtype.itemsize
    if expected != len(raw):
        raise ClusterProtocolError(
            f"array frame declares dtype={dtype} shape={shape} "
            f"({expected} bytes) but carries {len(raw)} payload bytes"
        )
    return np.frombuffer(raw, dtype=dtype).reshape(shape)


def recv_frame(sock: socket.socket) -> tuple[int, dict, memoryview]:
    """Read one validated frame; returns ``(ftype, meta, raw)``.

    Raises :class:`ClusterProtocolError` for protocol violations (bad magic,
    version mismatch, bogus lengths, malformed meta) and ``ConnectionError``
    when the peer closes mid-frame.  The body is received into one buffer
    that ``raw`` views; for ``FRAME_ARRAY`` the ndarray over the same bytes
    is returned in ``meta["array"]`` after dtype/shape validation.
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
    body = memoryview(recv_exact(sock, body_len))
    (meta_len,) = _META_LEN.unpack_from(body)
    if _META_LEN.size + meta_len > body_len:
        raise ClusterProtocolError(
            f"frame meta length {meta_len} overruns body of {body_len} bytes"
        )
    meta_blob = body[_META_LEN.size : _META_LEN.size + meta_len]
    raw = body[_META_LEN.size + meta_len :]
    try:
        meta = json.loads(bytes(meta_blob).decode("utf-8"))
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


def close_socket(sock: socket.socket) -> None:
    """Shut ``sock`` down, then close it, ignoring a peer that already left.

    ``shutdown`` wakes a thread blocked in ``recv`` on the socket; a bare
    ``close`` does not, so the reader would outlive its join.
    """
    for fn in (lambda: sock.shutdown(socket.SHUT_RDWR), sock.close):
        try:
            fn()
        except OSError:
            pass


# ---------------------------------------------------------------- coordinator
class RendezvousCoordinator:
    """Rank assignment and the peer address book for one cluster job.

    Lifecycle::

        coord = RendezvousCoordinator(world_size=2, port=0)
        host, port = coord.start()     # join thread running
        outcome = coord.wait()         # "completed" | "aborted: join timeout (k/N)"
        coord.stop()

    The coordinator accepts exactly ``world_size`` members.  Each member
    sends ``hello`` (optionally pinning an explicit rank); once the world is
    full every member receives ``welcome`` with the rank -> listen-address
    table, and the coordinator closes its sockets and finishes: the ranks
    build the mesh and run without it.  Garbage connections (port scanners,
    protocol mismatches) are closed without disturbing the join; bad rank
    claims and world-size mismatches get ``reject``, and so does every
    waiting member when ``join_timeout`` runs out.
    """

    def __init__(self, world_size: int, host: str = "127.0.0.1",
                 port: int = 0, *, join_timeout: float = 60.0):
        if world_size < 1:
            raise ValueError(f"world_size must be >= 1, got {world_size}")
        self.world_size = int(world_size)
        self.host = host
        self.port = int(port)
        self.join_timeout = float(join_timeout)
        self.session = uuid.uuid4().hex[:12]
        self._thread: threading.Thread | None = None
        self._stop = threading.Event()
        self._done = threading.Event()
        self._outcome: str | None = None

    def start(self) -> tuple[str, int]:
        """Bind, listen and launch the join thread."""
        listener = socket.create_server((self.host, self.port),
                                        backlog=self.world_size + 4)
        listener.settimeout(0.2)
        self.port = listener.getsockname()[1]
        self._thread = threading.Thread(
            target=self._join, args=(listener,), name="rendezvous-join",
            daemon=True,
        )
        self._thread.start()
        return self.host, self.port

    def wait(self, timeout: float | None = None) -> str | None:
        """Block until the join ends; returns the outcome string."""
        self._done.wait(timeout)
        return self._outcome

    def stop(self) -> None:
        """End the join (members still waiting see their socket close)."""
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=10.0)

    def _join(self, listener: socket.socket) -> None:
        deadline = time.monotonic() + self.join_timeout
        pending: dict[int, tuple[socket.socket, str]] = {}  # rank -> (conn, addr)
        try:
            while len(pending) < self.world_size and not self._stop.is_set():
                if time.monotonic() > deadline:
                    reason = (f"rendezvous join timed out: {len(pending)} of "
                              f"{self.world_size} ranks joined within "
                              f"{self.join_timeout:.1f}s")
                    for conn, _ in pending.values():
                        _reject(conn, reason)
                    self._outcome = (f"aborted: join timeout "
                                     f"({len(pending)}/{self.world_size})")
                    return
                try:
                    conn, _ = listener.accept()
                except socket.timeout:
                    continue
                hello = self._read_hello(conn, pending)
                if hello is not None:
                    pending[hello[0]] = (conn, hello[1])
            if self._stop.is_set():
                return
            peers = {str(r): addr for r, (_, addr) in pending.items()}
            for rank, (conn, _) in pending.items():
                send_ctrl(conn, kind="welcome", rank=rank,
                          world_size=self.world_size, peers=peers,
                          session=self.session)
            self._outcome = "completed"
        except OSError as exc:
            self._outcome = f"aborted: {exc!r}"
        finally:
            for conn, _ in pending.values():
                close_socket(conn)
            listener.close()
            self._done.set()

    def _read_hello(self, conn: socket.socket,
                    pending: dict) -> tuple[int, str] | None:
        """``(rank, listen addr)`` of one valid hello; None, with ``conn``
        rejected or closed, for garbage, a bad rank claim or a world-size
        mismatch."""
        conn.settimeout(5.0)
        try:
            ftype, meta, _ = recv_frame(conn)
            if ftype != FRAME_CTRL or meta.get("kind") != "hello":
                raise ClusterProtocolError(
                    f"expected hello, got {meta.get('kind')!r}"
                )
            host, port = parse_addr(str(meta["addr"]))
            wants = meta.get("wants_rank")
            world = int(meta.get("world_size", self.world_size))
        except (ClusterProtocolError, ConnectionError, ValueError, KeyError,
                TypeError, OSError):
            close_socket(conn)
            return None
        if world != self.world_size:
            return _reject(conn, (
                f"world_size mismatch: coordinator supervises "
                f"{self.world_size} ranks, member expects {world}"
            ))
        if wants is None:
            return next(r for r in range(self.world_size)
                        if r not in pending), f"{host}:{port}"
        try:
            rank = int(wants)
        except (TypeError, ValueError):
            rank = -1
        if not 0 <= rank < self.world_size:
            return _reject(conn, f"requested rank {wants!r} outside world of "
                                 f"{self.world_size}")
        if rank in pending:
            return _reject(conn,
                           f"rank {rank} already claimed by another member")
        return rank, f"{host}:{port}"


def _reject(conn: socket.socket, reason: str) -> None:
    """Send ``reject`` with ``reason`` (if the member still listens) and
    close ``conn``."""
    try:
        send_ctrl(conn, kind="reject", reason=reason)
    except OSError:
        pass
    close_socket(conn)
