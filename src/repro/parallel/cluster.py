"""The multi-host transport (TCP mesh) and the SPMD cluster backend.

* :class:`MeshTransport` — a full TCP mesh between ranks (rank *i* dials
  every rank *j < i*, accepts from every *j > i*) moving each ``exchange`` as
  length-prefixed validated frames (:mod:`repro.parallel.rendezvous`).
  Membership, rank assignment and liveness come from the rendezvous
  coordinator (``python -m repro rendezvous``): each rank heartbeats the
  coordinator, and a rank that dies poisons every survivor with
  :class:`~repro.parallel.comm.CommAbortError` — the same crash semantics as
  the process transport.

* :class:`ClusterBackend` — the :class:`~repro.core.engine.ExecutionBackend`
  registered as ``parallel.backend=cluster``.  Unlike the thread/process
  backends (one parent orchestrating N_p ephemeral ranks), the cluster
  backend is SPMD: every host runs the *full* driver — same spec, same
  artifact contract — and the ranks meet only inside the collectives.
  The collectives are the shared :class:`~repro.parallel.comm.Comm`'s —
  rank-ordered and deterministic — so all ranks apply identical updates and
  the run is bit-identical to the thread backend at equal ``n_ranks``.

Determinism notes: ``Comm`` accounts payload sizes (paper convention,
payload x N_p, logical vs. wire split), not socket framing overhead, so
``comm_bytes``/``comm_bytes_wire`` history columns match the thread backend
bit-for-bit.  The per-iteration stats-exchange allgather (wall times +
per-rank unique counts, pure bookkeeping) is excluded from the accounted
delta for the same reason.
"""
from __future__ import annotations

import socket
import threading
import time

import numpy as np

from repro.core.engine import (
    ExecutionBackend,
    _rank_iteration,
    _validate_rank_args,
)
from repro.parallel.comm import Comm, CommAbortError, dead_rank_message
from repro.parallel.rendezvous import (
    FRAME_ARRAY,
    FRAME_BLOB,
    FRAME_CTRL,
    ClusterProtocolError,
    build_frame,
    connect_with_retry,
    parse_addr,
    recv_frame,
    send_ctrl,
)

__all__ = [
    "ClusterBackend",
    "MeshTransport",
    "create_cluster_comm",
]


class MeshTransport:
    """One rank's end of the TCP mesh.

    Construction performs the whole rendezvous: dial the coordinator (with
    bounded-backoff retry, covering the ranks-before-coordinator launch
    race), receive rank + peer table, build the mesh, then start the
    heartbeat and control-listener threads.  Exchanges afterwards involve
    only the mesh; the coordinator is pure liveness supervision.

    Every frame carries ``(op, seq, src, session)``: ``src``/``session`` are
    validated here, the ``(op, seq)`` tag goes back to ``Comm``'s desync
    check.  Received buffers are freshly allocated (``borrows`` is False).
    """

    borrows = False

    def __init__(self, world_size: int, rendezvous_addr: str, *,
                 rank: int | None = None, join_timeout: float = 60.0,
                 collective_timeout: float = 600.0):
        if world_size < 1:
            raise ValueError(f"world_size must be >= 1, got {world_size}")
        self.size = int(world_size)
        self._wants_rank = rank
        self._join_timeout = float(join_timeout)
        self._collective_timeout = float(collective_timeout)
        self._peers: dict[int, socket.socket] = {}
        self._coord: socket.socket | None = None
        self._coord_lock = threading.Lock()
        self._abort_event = threading.Event()
        self._abort_reason: str | None = None
        self._closed = False
        self._hb_stop = threading.Event()
        self._threads: list[threading.Thread] = []
        self._connect(rendezvous_addr)

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

    # --------------------------------------------------------------- plumbing
    def _check_abort(self) -> None:
        if self._abort_reason is not None:
            raise CommAbortError(f"collective aborted: {self._abort_reason}")
        if self._closed:
            raise RuntimeError(
                f"rank {self.rank}: communicator is closed"
            )

    def _raise_abort(self, peer: int | None, exc: BaseException):
        """A mesh send/recv failed: surface the coordinator's verdict if one
        arrives within a short grace window, else name the failed peer."""
        if self._abort_event.wait(1.0):
            raise CommAbortError(
                f"collective aborted: {self._abort_reason}"
            ) from exc
        if peer is not None:
            raise CommAbortError(
                f"rank {self.rank}: "
                + dead_rank_message([peer], f"connection failed ({exc})"),
                dead_rank=peer,
            ) from exc
        raise CommAbortError(
            f"rank {self.rank}: collective send failed ({exc})"
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
            ftype, raw = FRAME_ARRAY, buffer.tobytes()
            meta.update(dtype=buffer.dtype.str, shape=list(buffer.shape))
        else:
            ftype, raw = FRAME_BLOB, buffer
        frame = build_frame(ftype, meta, raw)
        send_errors: list[BaseException] = []

        def _send(conn: socket.socket) -> None:
            try:
                conn.sendall(frame)
            except OSError as exc:
                send_errors.append(exc)

        others = [j for j in range(self.size) if j != self.rank]
        senders = [
            threading.Thread(target=_send, args=(self._peers[j],), daemon=True)
            for j in others
        ]
        for t in senders:
            t.start()
        for j in others:
            try:
                ftype_r, meta_r, raw_r = recv_frame(self._peers[j])
            except ClusterProtocolError:
                raise
            except (ConnectionError, OSError) as exc:
                self._raise_abort(j, exc)
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
            self._raise_abort(None, send_errors[0])
        return results

    def abort(self, reason: str) -> None:
        """Die abruptly — no leave, sockets dropped, as a killed host would:
        the coordinator sees the EOF and poisons every survivor."""
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
            for fn in (lambda: conn.shutdown(socket.SHUT_RDWR), conn.close):
                try:
                    fn()
                except OSError:
                    pass
        if self._coord is not None:
            for fn in (lambda: self._coord.shutdown(socket.SHUT_RDWR),
                       self._coord.close):
                try:
                    fn()
                except OSError:
                    pass

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


class ClusterBackend(ExecutionBackend):
    """SPMD execution over a mesh-backed :class:`Comm`.

    Every host runs the full driver on the same spec; this backend runs the
    staged iteration as *this* host's rank of the shared communicator.  All
    collectives are deterministic and every rank applies the identical
    reduced gradient locally, so no parameter broadcast is needed and each
    host's artifact directory is bit-identical to a thread-backend run at
    equal ``n_ranks`` (timing columns aside).

    ``spmd = True`` tells the engine that every rank keeps its own
    cross-iteration state — in particular each rank retains the stage-2
    diff baseline (``global_keys``) locally, since peers' next-iteration
    payloads are delta-encoded against it.
    """

    name = "cluster"
    spmd = True

    def __init__(self, n_ranks: int, nu_star_per_rank: int = 64,
                 eloc_partition: str = "balanced", comm_codec: bool = True,
                 *, rendezvous_addr: str | None = None,
                 rank: int | None = None, join_timeout_s: float = 60.0,
                 collective_timeout_s: float = 600.0, comm=None):
        _validate_rank_args(n_ranks, eloc_partition)
        if comm is None and rendezvous_addr is None:
            # Fail at construction (spec time), not deep inside rendezvous.
            raise ValueError(_NEEDS_RENDEZVOUS)
        self.n_ranks = n_ranks
        self.nu_star_per_rank = nu_star_per_rank
        self.eloc_partition = eloc_partition
        self.comm_codec = bool(comm_codec)
        self.rendezvous_addr = rendezvous_addr
        self.rank = rank
        self.join_timeout_s = float(join_timeout_s)
        self.collective_timeout_s = float(collective_timeout_s)
        self._comm = comm
        self._owns_comm = comm is None
        self.last_comm_stats = None

    def _ensure_comm(self):
        if self._comm is None:
            self._comm = create_cluster_comm(
                self.n_ranks, rendezvous_addr=self.rendezvous_addr,
                rank=self.rank, join_timeout=self.join_timeout_s,
                collective_timeout=self.collective_timeout_s,
            )
        if self._comm.Get_size() != self.n_ranks:
            raise ValueError(
                f"communicator world size {self._comm.Get_size()} != "
                f"backend n_ranks {self.n_ranks}"
            )
        return self._comm

    def execute(self, engine):
        comm = self._ensure_comm()
        size = comm.Get_size()
        nu_star = self.nu_star_per_rank * self.n_ranks
        param_bytes = sum(p.data.nbytes for p in engine.wf.parameters())

        before_logical = comm.stats.total_bytes
        before_wire = comm.stats.total_wire_bytes
        out = _rank_iteration(
            engine, comm, engine.wf, engine.rng,
            nu_star=nu_star, eloc_partition=self.eloc_partition,
        )
        logical = comm.stats.total_bytes - before_logical
        wire = comm.stats.total_wire_bytes - before_wire
        self.last_comm_stats = comm.stats

        # Exchange per-rank wall times + unique counts so the stats record
        # matches the thread backend's (max over ranks, per_rank_unique in
        # rank order).  Pure bookkeeping: deliberately outside the accounted
        # delta above, because the thread backend has no analogous transfer.
        t = out["times"]
        stats_vec = np.array(
            [t["sampling"], t["local_energy"], t["gradient"],
             float(out["n_local_unique"])], dtype=np.float64,
        )
        gathered = comm.allgather_ndarray(stats_vec)
        results: list[dict] = []
        for r in range(size):
            results.append({
                "times": {
                    "sampling": float(gathered[r][0]),
                    "local_energy": float(gathered[r][1]),
                    "gradient": float(gathered[r][2]),
                },
                "n_local_unique": int(gathered[r][3]),
            })
        results[0].update({
            key: out[key]
            for key in ("grad", "energy", "eloc_imag", "variance",
                        "n_unique", "n_samples")
        })
        if "global_keys" in out:
            results[0]["global_keys"] = out["global_keys"]

        # The post-update parameter resync of Fig. 4 stage 6 — realized here
        # as every rank applying the identical update locally — accounted
        # exactly like the thread/process backends for column bit-identity.
        sync = param_bytes * size
        return results, (logical + sync, wire + sync)

    def close(self) -> None:
        if self._comm is not None and self._owns_comm:
            self._comm.close()
            self._comm = None
