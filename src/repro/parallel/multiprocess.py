"""Rank launchers on one host: thread ranks and forked ranks on one mesh.

Both launchers start ranks 1..N_p-1 once, each running ``follow(comm)``
until it returns, and hand the caller — rank 0 — its own
:class:`~repro.parallel.comm.Comm`, over a
:class:`~repro.parallel.cluster.MeshTransport` of one
``socket.socketpair()`` per rank pair made before any rank starts (the
cluster's frames and transport, minus its coordinator).
:func:`start_thread_ranks` runs followers as *threads* (numpy kernels
release the GIL; pure-Python code serializes on it);
:func:`start_process_ranks` forks each once (Linux): a fork's writes are its
own, so everything shared flows through a collective.

Each end of a pair has one holder, its rank (a fork closes every live end
not its own): a rank that dies or leaves is its peers' EOF, raised as
:class:`~repro.parallel.comm.CommAbortError` naming it; a peer silent past
``timeout`` is named with the op and seq of the wait.  The returned ``stop``
closes rank 0's ends — every follower's EOF — and waits for the followers.
"""
from __future__ import annotations

import os
import signal
import socket
import sys
import threading
import time
import traceback
import weakref
from typing import Callable

from repro.parallel.cluster import MeshTransport
from repro.parallel.comm import Comm, CommAbortError, dead_rank_message

__all__ = ["start_thread_ranks", "start_process_ranks"]

# Every socket-pair end this process made that may still be open: a forked
# follower closes all of them but its own, or a rank of another live mesh
# would never see its peer's EOF.
_ENDS: weakref.WeakSet = weakref.WeakSet()


def _socket_mesh(size: int) -> list[dict[int, socket.socket]]:
    """One ``socket.socketpair()`` per rank pair, as per-rank peer tables:
    ``mesh[r][j]`` is rank ``r``'s end of its pair with rank ``j``."""
    mesh: list[dict[int, socket.socket]] = [{} for _ in range(size)]
    for i in range(size):
        for j in range(i + 1, size):
            mesh[i][j], mesh[j][i] = socket.socketpair()
            _ENDS.update((mesh[i][j], mesh[j][i]))
    return mesh


def _close_mesh(mesh, keep: int | None = None) -> None:
    """Close every end of ``mesh`` except rank ``keep``'s (idempotent)."""
    for rank, peers in enumerate(mesh):
        if rank != keep:
            for end in peers.values():
                end.close()


def _run_follower(rank: int, peers, follow: Callable[[Comm], None],
                  timeout: float) -> int:
    """``follow(comm)`` as rank ``rank``; returns an exit status.  A
    ``CommAbortError`` (rank 0 closed or died, or a peer left) ends the rank
    quietly; any other raise is printed and aborts the transport, so every
    peer fails at once naming this rank.  The sockets are closed on return."""
    transport = MeshTransport.from_sockets(rank, peers,
                                           collective_timeout=timeout)
    try:
        follow(Comm(transport))
    except CommAbortError:
        return 0
    except Exception as exc:  # noqa: BLE001 - reported, then the rank ends
        transport.abort(dead_rank_message([rank], f"raised {exc!r}"))
        print(f"rank {rank}: {exc!r}\n{traceback.format_exc()}",
              file=sys.stderr, flush=True)
        return 1
    finally:
        transport.close()
    return 0


def start_thread_ranks(size: int, follow: Callable[[Comm], None],
                       timeout: float = 600.0) -> tuple[Comm, Callable[[], None]]:
    """Start ranks 1..``size``-1 as daemon threads running ``follow(comm)``;
    returns ``(rank 0's comm, stop)``.  ``timeout`` bounds each blocking
    socket operation of a collective and ``stop``'s wait for each thread."""
    mesh = _socket_mesh(size)
    threads = [threading.Thread(target=_run_follower,
                                args=(r, mesh[r], follow, timeout),
                                name=f"rank-{r}", daemon=True)
               for r in range(1, size)]
    comm = Comm(MeshTransport.from_sockets(0, mesh[0], collective_timeout=timeout))
    for t in threads:
        t.start()

    def stop() -> None:
        comm.close()
        for t in threads:
            t.join(timeout)

    return comm, stop


def start_process_ranks(
    size: int, follow: Callable[[Comm], None], timeout: float = 600.0,
    *, join_timeout: float = 10.0,
) -> tuple[Comm, Callable[[], None]]:
    """Fork ranks 1..``size``-1 once, each running ``follow(comm)`` and
    exiting; returns ``(rank 0's comm, stop)``.  ``timeout`` bounds each
    blocking socket operation of a collective; ``stop`` gives the forks
    ``join_timeout`` in all to exit, then kills and reaps the stragglers.
    The parent keeps rank 0's ends and no other."""
    mesh = _socket_mesh(size)
    pids: list[int] = []
    try:
        for rank in range(1, size):
            pid = os.fork()
            if pid == 0:  # the follower: never returns into the caller
                status = 1
                try:
                    own = set(mesh[rank].values())
                    for end in list(_ENDS):
                        if end not in own:
                            end.close()
                    status = _run_follower(rank, mesh[rank], follow, timeout)
                finally:
                    os._exit(status)
            pids.append(pid)
    except BaseException:
        _close_mesh(mesh)
        _reap(pids, 0.0)
        raise
    _close_mesh(mesh, keep=0)
    comm = Comm(MeshTransport.from_sockets(0, mesh[0], collective_timeout=timeout))

    def stop() -> None:
        comm.close()
        _reap(pids, join_timeout)
        pids.clear()

    return comm, stop


def _reap(pids: list[int], wait: float) -> None:
    """Wait up to ``wait`` seconds in all for ``pids`` to exit, then kill
    and reap the rest."""
    deadline = time.monotonic() + wait
    live = list(pids)
    while True:
        live = [p for p in live if os.waitpid(p, os.WNOHANG) == (0, 0)]
        if not live or time.monotonic() >= deadline:
            break
        time.sleep(0.005)
    for pid in live:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
