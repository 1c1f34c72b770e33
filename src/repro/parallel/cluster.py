"""The multi-host transport (TCP mesh) and the SPMD cluster backend.

* :class:`MeshTransport` — a full mesh of stream sockets between ranks
  moving each ``exchange`` as length-prefixed validated frames
  (:mod:`repro.parallel.rendezvous`).  Across hosts the mesh is TCP (rank *i*
  dials every rank *j < i*, accepts from every *j > i*) and membership, rank
  assignment and liveness come from the rendezvous coordinator (``python -m
  repro rendezvous``): each rank heartbeats the coordinator, and a rank that
  dies poisons every survivor with
  :class:`~repro.parallel.comm.CommAbortError`.  Thread and forked ranks
  on one host (:mod:`repro.parallel.multiprocess`) start from socket pairs
  made before any rank starts (:meth:`MeshTransport.from_sockets`): no
  coordinator, and a dead peer is its socket's EOF.

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

__all__ = [
    "ClusterBackend",
    "MeshTransport",
    "create_cluster_comm",
]


class MeshTransport:
    """One rank's end of the mesh.

    Construction performs the whole rendezvous: dial the coordinator (with
    bounded-backoff retry, covering the ranks-before-coordinator launch
    race), receive rank + peer table, build the mesh, then start the
    heartbeat and control-listener threads.  Exchanges afterwards involve
    only the mesh; the coordinator is pure liveness supervision.
    :meth:`from_sockets` skips all of that for peers already connected.

    Every frame carries ``(op, seq, src, session)``: ``src``/``session`` are
    validated here, the ``(op, seq)`` tag goes back to ``Comm``'s desync
    check.  Received arrays are views of each frame's freshly received body.
    """

    def __init__(self, world_size: int, rendezvous_addr: str, *,
                 rank: int | None = None, join_timeout: float = 60.0,
                 collective_timeout: float = 600.0):
        self._setup(world_size, collective_timeout)
        self._wants_rank = rank
        self._join_timeout = float(join_timeout)
        self._connect(rendezvous_addr)

    @classmethod
    def from_sockets(cls, rank: int, peers: dict[int, socket.socket], *,
                     collective_timeout: float = 600.0) -> "MeshTransport":
        """Rank ``rank`` of a world whose other members are the connected
        stream sockets ``peers`` (peer rank -> socket).  There is no
        coordinator and no helper thread: a peer that dies or leaves is its
        socket's EOF, named at once."""
        self = cls.__new__(cls)
        self._setup(len(peers) + 1, collective_timeout)
        self.rank = int(rank)
        self._session = "local"
        self._peers = dict(peers)
        for conn in self._peers.values():
            conn.settimeout(self._collective_timeout)
        return self

    def _setup(self, world_size: int, collective_timeout: float) -> None:
        if world_size < 1:
            raise ValueError(f"world_size must be >= 1, got {world_size}")
        self.size = int(world_size)
        self._collective_timeout = float(collective_timeout)
        self._peers: dict[int, socket.socket] = {}
        self._coord: socket.socket | None = None
        self._coord_lock = threading.Lock()
        self._abort_event = threading.Event()
        self._abort_reason: str | None = None
        self._closed = False
        self._hb_stop = threading.Event()
        self._threads: list[threading.Thread] = []

    # ------------------------------------------------------------ rendezvous
    def _connect(self, rendezvous_addr: str) -> None:
        host, port = parse_addr(rendezvous_addr)
        coord = connect_with_retry(host, port, timeout=self._join_timeout)
        try:
            local_ip = coord.getsockname()[0]
            listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            listener.bind((local_ip, 0))
            listener.listen(self.size + 2)
            listen_addr = f"{local_ip}:{listener.getsockname()[1]}"
            send_ctrl(coord, kind="hello", wants_rank=self._wants_rank,
                      addr=listen_addr, world_size=self.size)
            coord.settimeout(self._join_timeout)
            _, meta, _ = recv_frame(coord)
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
                    f"coordinator supervises {meta['world_size']} ranks but "
                    f"this member was configured for world_size={self.size}"
                )
            self._session = str(meta["session"])
            self._heartbeat_interval = float(meta.get("heartbeat_interval", 2.0))
            peers = {int(r): str(a) for r, a in meta["peers"].items()}
            coord.settimeout(None)
            self._coord = coord
            self._build_mesh(listener, peers)
        except BaseException:
            try:
                listener.close()
            except (OSError, UnboundLocalError):
                pass
            coord.close()
            raise
        self._start_threads()

    def _build_mesh(self, listener: socket.socket,
                    peers: dict[int, str]) -> None:
        deadline = time.monotonic() + self._join_timeout
        # Dial the lower ranks; their listeners were up before they said hello.
        for j in range(self.rank):
            h, p = parse_addr(peers[j])
            conn = connect_with_retry(
                h, p, timeout=max(deadline - time.monotonic(), 1.0)
            )
            send_ctrl(conn, kind="peer-hello", rank=self.rank,
                      session=self._session)
            self._peers[j] = conn
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
                try:
                    conn.close()
                except OSError:
                    pass
                continue
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            need.discard(j)
            self._peers[j] = conn
        listener.close()
        for conn in self._peers.values():
            conn.settimeout(self._collective_timeout)

    def _start_threads(self) -> None:
        hb = threading.Thread(
            target=self._heartbeat_loop,
            name=f"cluster-heartbeat-{self.rank}", daemon=True,
        )
        ctrl = threading.Thread(
            target=self._ctrl_loop,
            name=f"cluster-ctrl-{self.rank}", daemon=True,
        )
        hb.start()
        ctrl.start()
        self._threads = [hb, ctrl]

    def _heartbeat_loop(self) -> None:
        while not self._hb_stop.wait(self._heartbeat_interval):
            with self._coord_lock:
                if self._closed or self._coord is None:
                    return
                try:
                    send_ctrl(self._coord, kind="heartbeat", rank=self.rank)
                except OSError:
                    return

    def _ctrl_loop(self) -> None:
        """Watch the coordinator channel for abort poison."""
        while True:
            try:
                ftype, meta, _ = recv_frame(self._coord)
            except (ConnectionError, ClusterProtocolError, OSError):
                return  # channel closed: normal shutdown or coordinator gone
            if ftype == FRAME_CTRL and meta.get("kind") == "abort":
                self._abort_reason = str(meta.get("reason", "aborted"))
                self._abort_event.set()
                # Wake any collective blocked on a mesh recv so the poison
                # is observed promptly instead of after collective_timeout.
                for conn in self._peers.values():
                    try:
                        conn.shutdown(socket.SHUT_RDWR)
                    except OSError:
                        pass
                return

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
        timeout names the silent peer with op and seq; otherwise surface the
        coordinator's verdict if one arrives within a short grace window,
        else (and at once without a coordinator) name the peer as gone."""
        if isinstance(exc, socket.timeout):
            raise CommAbortError(
                f"rank {self.rank}: timed out after "
                f"{self._collective_timeout}s waiting for rank {peer} in "
                f"{tag[0]} (seq {tag[1]})"
            ) from exc
        if self._coord is not None and self._abort_event.wait(1.0):
            raise CommAbortError(
                f"collective aborted: {self._abort_reason}"
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
        """Die abruptly — no leave, sockets dropped, as a killed host would:
        the coordinator (or, without one, every peer) sees the EOF and
        every survivor raises."""
        if self._abort_reason is None:
            self._abort_reason = reason
        self._closed = True
        self._hb_stop.set()
        self._teardown_sockets()

    # --------------------------------------------------------------- shutdown
    def close(self) -> None:
        """Leave the job cleanly and release every socket (idempotent)."""
        if self._closed:
            return
        self._closed = True
        self._hb_stop.set()
        with self._coord_lock:
            if self._coord is not None:
                try:
                    send_ctrl(self._coord, kind="leave", rank=self.rank)
                except OSError:
                    pass
        self._teardown_sockets()
        for t in self._threads:
            if t is not threading.current_thread():
                t.join(timeout=5.0)

    def _teardown_sockets(self) -> None:
        for conn in list(self._peers.values()):
            close_socket(conn)
        if self._coord is not None:
            close_socket(self._coord)

    # ------------------------------------------------------------- test hooks
    def _stop_heartbeating(self) -> None:
        """Wedge simulation: stay connected but stop sending heartbeats."""
        self._hb_stop.set()


_NEEDS_RENDEZVOUS = (
    "the cluster backend needs parallel.rendezvous_addr (host:port of a "
    "`python -m repro rendezvous` coordinator)"
)


def create_cluster_comm(world_size: int, *, rendezvous_addr: str | None = None,
                        rank: int | None = None, join_timeout: float = 60.0,
                        collective_timeout: float = 600.0):
    """Build the cluster communicator: a :class:`MeshTransport` joined
    through the coordinator at ``rendezvous_addr``."""
    if rendezvous_addr is None:
        raise ValueError(_NEEDS_RENDEZVOUS)
    return Comm(MeshTransport(
        world_size, rendezvous_addr, rank=rank, join_timeout=join_timeout,
        collective_timeout=collective_timeout,
    ))


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
        self.rendezvous_addr = rendezvous_addr
        self.rank = rank
        self.join_timeout_s = float(join_timeout_s)
        self._given_comm = comm

    def _launch(self, engine):
        comm = self._given_comm or create_cluster_comm(
            self.n_ranks, rendezvous_addr=self.rendezvous_addr,
            rank=self.rank, join_timeout=self.join_timeout_s,
            collective_timeout=self.collective_timeout_s,
        )
        if comm.Get_size() != self.n_ranks:
            if comm is not self._given_comm:
                comm.close()
            raise ValueError(
                f"communicator world size {comm.Get_size()} != "
                f"backend n_ranks {self.n_ranks}"
            )
        # A communicator the caller owns is the caller's to close.
        return comm, (comm.close if comm is not self._given_comm else lambda: None)
