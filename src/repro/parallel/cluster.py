"""The multi-host transport (TCP mesh) and the SPMD cluster backend.

* :class:`MeshTransport` — a full mesh of stream sockets between ranks
  moving each ``exchange`` as length-prefixed validated frames
  (:mod:`repro.parallel.rendezvous`).  It gets its peers one of two ways.
  Across hosts the mesh is TCP: the rendezvous coordinator (``python -m
  repro rendezvous``) hands out the rank and the peers' listen addresses and
  steps out, rank *i* dials every rank *j < i* and accepts from every
  *j > i*.  Thread and forked ranks on one host
  (:mod:`repro.parallel.multiprocess`) start from socket pairs made before
  any rank starts (:meth:`MeshTransport.from_sockets`).  Either way the
  built transport is the same: no coordinator and no helper thread; a dead
  peer is its socket's EOF, named at once as
  :class:`~repro.parallel.comm.CommAbortError`, and a silent one is named
  with op and seq after ``collective_timeout``.

* :class:`ClusterBackend` — the :class:`~repro.core.engine.SPMDBackend`
  registered as ``parallel.backend=cluster``: every host runs the *full*
  driver — same spec, same artifact contract — as one rank, joined through
  the rendezvous.  The step is the thread and process backends' (header,
  stages 1-6, stats exchange, update on every rank), so the run is
  bit-identical to theirs at equal ``n_ranks``: ``Comm`` accounts payload
  sizes (paper convention, payload x N_p, logical vs. wire split), not
  socket framing overhead.
"""
from __future__ import annotations

import select
import socket
import threading
import time

import numpy as np

from repro.core.engine import SPMDBackend
from repro.parallel.comm import Comm, CommAbortError, dead_rank_message
from repro.parallel.rendezvous import (
    FRAME_ARRAY,
    FRAME_BLOB,
    FRAME_CTRL,
    ClusterProtocolError,
    close_socket,
    connect_with_retry,
    frame_head,
    parse_addr,
    recv_frame,
    send_ctrl,
    send_parts,
)

__all__ = ["ClusterBackend", "MeshTransport"]


class MeshTransport:
    """One rank's end of the mesh.

    Construction joins through the coordinator at ``rendezvous_addr``: dial
    it (with bounded-backoff retry, covering the ranks-before-coordinator
    launch race), say ``hello``, take rank + peer table, close the
    coordinator socket and build the mesh.  A failed join closes every
    socket it opened before it raises.  :meth:`from_sockets` skips all of
    that for peers already connected.

    Every frame carries ``(op, seq, src, session)``: ``src``/``session`` are
    validated here, the ``(op, seq)`` tag goes back to ``Comm``'s desync
    check.  Received arrays are views of each frame's freshly received body.
    """

    def __init__(self, world_size: int, rendezvous_addr: str, *,
                 rank: int | None = None, join_timeout: float = 60.0,
                 collective_timeout: float = 600.0):
        if world_size < 1:
            raise ValueError(f"world_size must be >= 1, got {world_size}")
        self.size = int(world_size)
        self._peers: dict[int, socket.socket] = {}
        try:
            self._join(rendezvous_addr, rank, float(join_timeout))
        except BaseException:
            for conn in self._peers.values():
                conn.close()
            raise
        self._ready(collective_timeout)

    @classmethod
    def from_sockets(cls, rank: int, peers: dict[int, socket.socket], *,
                     collective_timeout: float = 600.0) -> "MeshTransport":
        """Rank ``rank`` of a world whose other members are the connected
        stream sockets ``peers`` (peer rank -> socket)."""
        self = cls.__new__(cls)
        self.size = len(peers) + 1
        self.rank = int(rank)
        self._session = "local"
        self._peers = dict(peers)
        self._ready(collective_timeout)
        return self

    def _ready(self, collective_timeout: float) -> None:
        self._collective_timeout = float(collective_timeout)
        self._abort_reason: str | None = None
        self._closed = False
        for conn in self._peers.values():
            conn.settimeout(self._collective_timeout)

    # ------------------------------------------------------------ rendezvous
    def _join(self, rendezvous_addr: str, wants_rank: int | None,
              join_timeout: float) -> None:
        host, port = parse_addr(rendezvous_addr)
        coord = connect_with_retry(host, port, timeout=join_timeout)
        with coord, socket.create_server((coord.getsockname()[0], 0),
                                         backlog=self.size + 2) as listener:
            listen_host, listen_port = listener.getsockname()[:2]
            send_ctrl(coord, kind="hello", wants_rank=wants_rank,
                      addr=f"{listen_host}:{listen_port}",
                      world_size=self.size)
            coord.settimeout(join_timeout)
            _, meta, _ = recv_frame(coord)
            coord.close()
            kind = meta.get("kind")
            if kind == "reject":
                raise RuntimeError(
                    f"rendezvous rejected this member: {meta.get('reason')}"
                )
            if kind != "welcome":
                raise ClusterProtocolError(
                    f"expected welcome from coordinator, got {kind!r}"
                )
            self.rank = int(meta["rank"])
            if int(meta["world_size"]) != self.size:
                raise RuntimeError(
                    f"coordinator assigns {meta['world_size']} ranks but "
                    f"this member was configured for world_size={self.size}"
                )
            self._session = str(meta["session"])
            peers = {int(r): str(a) for r, a in meta["peers"].items()}
            self._build_mesh(listener, peers, join_timeout)

    def _build_mesh(self, listener: socket.socket, peers: dict[int, str],
                    join_timeout: float) -> None:
        deadline = time.monotonic() + join_timeout
        # Dial the lower ranks; their listeners were up before they said hello.
        for j in range(self.rank):
            h, p = parse_addr(peers[j])
            conn = connect_with_retry(
                h, p, timeout=max(deadline - time.monotonic(), 1.0)
            )
            self._peers[j] = conn
            send_ctrl(conn, kind="peer-hello", rank=self.rank,
                      session=self._session)
        # Accept the higher ranks; tolerate garbage connections.
        listener.settimeout(0.2)
        need = set(range(self.rank + 1, self.size))
        while need:
            if time.monotonic() > deadline:
                raise TimeoutError(
                    f"rank {self.rank}: mesh accept timed out waiting for "
                    f"ranks {sorted(need)}"
                )
            try:
                conn, _ = listener.accept()
            except socket.timeout:
                continue
            conn.settimeout(5.0)
            try:
                ftype, meta, _ = recv_frame(conn)
                if ftype != FRAME_CTRL or meta.get("kind") != "peer-hello":
                    raise ClusterProtocolError("expected peer-hello")
                if meta.get("session") != self._session:
                    raise ClusterProtocolError("session mismatch")
                j = int(meta["rank"])
                if j not in need:
                    raise ClusterProtocolError(f"unexpected peer rank {j}")
            except (ClusterProtocolError, ConnectionError, OSError,
                    ValueError, TypeError, KeyError):
                conn.close()
                continue
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            need.discard(j)
            self._peers[j] = conn

    def wait_for(self, peer: int) -> None:
        """Block, with no timeout, until ``peer`` has sent something or left:
        a follower rank's wait for the next step header."""
        select.select([self._peers[peer]], [], [])

    # --------------------------------------------------------------- plumbing
    def _check_abort(self) -> None:
        if self._abort_reason is not None:
            raise CommAbortError(f"collective aborted: {self._abort_reason}")
        if self._closed:
            raise RuntimeError(
                f"rank {self.rank}: communicator is closed"
            )

    def _raise_abort(self, peer: int, exc: BaseException, tag):
        """A send to or recv from ``peer`` failed in collective ``tag``: a
        timeout names the silent peer with op and seq, anything else names
        the peer as gone."""
        if isinstance(exc, socket.timeout):
            raise CommAbortError(
                f"rank {self.rank}: timed out after "
                f"{self._collective_timeout}s waiting for rank {peer} in "
                f"{tag[0]} (seq {tag[1]})"
            ) from exc
        raise CommAbortError(
            f"rank {self.rank}: "
            + dead_rank_message([peer], f"connection failed ({exc})"),
            dead_rank=peer,
        ) from exc

    def exchange(self, tag, buffer) -> list:
        """Send ``(tag, buffer)`` to every peer, receive one frame per peer.

        One sender thread per peer prevents the head-to-head deadlock of
        sequential send-then-recv once payloads exceed the kernel socket
        buffers; the main thread receives in rank order, which is safe by
        induction (every send is drained by its peer's rank-ordered recv).
        """
        self._check_abort()
        results: list = [None] * self.size
        results[self.rank] = (tag, buffer)
        if self.size == 1:
            return results
        meta = {"op": tag[0], "seq": tag[1], "src": self.rank,
                "session": self._session}
        if isinstance(buffer, np.ndarray):
            ftype, raw = FRAME_ARRAY, np.ascontiguousarray(buffer)
            meta.update(dtype=buffer.dtype.str, shape=list(buffer.shape))
        else:
            ftype, raw = FRAME_BLOB, buffer
        raw = memoryview(raw).cast("B")
        frame = (frame_head(ftype, meta, len(raw)), raw)
        send_errors: list[tuple[int, BaseException]] = []

        def _send(j: int) -> None:
            try:
                send_parts(self._peers[j], frame)
            except OSError as exc:
                send_errors.append((j, exc))

        others = [j for j in range(self.size) if j != self.rank]
        senders = [threading.Thread(target=_send, args=(j,), daemon=True)
                   for j in others]
        for t in senders:
            t.start()
        for j in others:
            try:
                ftype_r, meta_r, raw_r = recv_frame(self._peers[j])
            except ClusterProtocolError:
                raise
            except (ConnectionError, OSError) as exc:
                self._raise_abort(j, exc, tag)
            if (meta_r.get("src") != j
                    or meta_r.get("session") != self._session):
                raise ClusterProtocolError(
                    f"rank {self.rank}: frame on rank {j}'s connection "
                    f"claims src={meta_r.get('src')!r}, "
                    f"session={meta_r.get('session')!r}"
                )
            peer_tag = (meta_r.get("op"), meta_r.get("seq"))
            if ftype_r != ftype and peer_tag == tag:
                raise ClusterProtocolError(
                    f"rank {self.rank}: frame type mismatch from rank {j} "
                    f"in {tag[0]!r}"
                )
            results[j] = (
                peer_tag, meta_r["array"] if ftype_r == FRAME_ARRAY else raw_r
            )
        for t in senders:
            t.join()
        if send_errors:
            self._raise_abort(*send_errors[0], tag)
        return results

    def abort(self, reason: str) -> None:
        """Die abruptly — sockets dropped, as a killed host would: every
        peer sees the EOF and raises."""
        if self._abort_reason is None:
            self._abort_reason = reason
        self.close()

    def close(self) -> None:
        """Release every socket (idempotent): every peer sees the EOF."""
        if self._closed:
            return
        self._closed = True
        for conn in self._peers.values():
            close_socket(conn)


_NEEDS_RENDEZVOUS = (
    "the cluster backend needs parallel.rendezvous_addr (host:port of a "
    "`python -m repro rendezvous` coordinator)"
)


class ClusterBackend(SPMDBackend):
    """One host's rank of a multi-host SPMD run, joined through the
    rendezvous coordinator at ``rendezvous_addr`` (or over ``comm``, a
    ready communicator the caller owns).

    Every host runs the full driver on the same spec; the step and the
    accounting are :class:`~repro.core.engine.SPMDBackend`'s, so each host's
    artifact directory is bit-identical to a thread- or process-backend run
    at equal ``n_ranks`` (timing columns aside).
    """

    name = "cluster"
    _leads_followers = False

    def __init__(self, n_ranks: int, nu_star_per_rank: int = 64,
                 *, rendezvous_addr: str | None = None,
                 rank: int | None = None, join_timeout_s: float = 60.0,
                 collective_timeout_s: float = 600.0, comm=None):
        super().__init__(n_ranks, nu_star_per_rank, collective_timeout_s)
        if comm is None and rendezvous_addr is None:
            # Fail at construction (spec time), not deep inside rendezvous.
            raise ValueError(_NEEDS_RENDEZVOUS)
        if comm is not None and comm.Get_size() != n_ranks:
            raise ValueError(
                f"communicator world size {comm.Get_size()} != "
                f"backend n_ranks {n_ranks}"
            )
        self.rendezvous_addr = rendezvous_addr
        self.rank = rank
        self.join_timeout_s = float(join_timeout_s)
        self._given_comm = comm

    def _launch(self, engine):
        if self._given_comm is not None:
            # A communicator the caller owns is the caller's to close.
            return self._given_comm, lambda: None
        comm = Comm(MeshTransport(
            self.n_ranks, self.rendezvous_addr, rank=self.rank,
            join_timeout=self.join_timeout_s,
            collective_timeout=self.collective_timeout_s,
        ))
        return comm, comm.close
