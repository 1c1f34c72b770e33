"""Rank launchers on one host: thread ranks and forked ranks on one mesh.

Both launchers give every rank a :class:`~repro.parallel.comm.Comm` over a
:class:`~repro.parallel.cluster.MeshTransport` built from one
``socket.socketpair()`` per rank pair, made before any rank starts — the
cluster backend's frames and transport, minus its coordinator.
:func:`run_spmd` runs ranks as *threads* (numpy kernels release the GIL;
pure-Python rank code serializes on it); :func:`run_spmd_processes` forks
one OS process per rank, with the MPI-like restriction that **rank state is
private**: writes to captured objects are not visible across ranks, so
everything shared must flow through a collective (Linux-only: the fork
start method spares closures from pickling).

Each end of a pair has one holder, its rank (a forked child closes every
end not its own): a rank that dies or leaves is its peers' EOF, raised as
:class:`~repro.parallel.comm.CommAbortError` naming it; a peer alive but
silent past ``timeout`` is named with the op and seq of the wait.
"""
from __future__ import annotations

import multiprocessing as mp
import socket
import threading
import time
import traceback
from typing import Callable

from repro.parallel.cluster import MeshTransport
from repro.parallel.comm import (
    Comm,
    CommAbortError,
    CommStats,
    dead_rank_message,
)

__all__ = ["run_spmd", "run_spmd_processes"]


def _socket_mesh(size: int) -> list[dict[int, socket.socket]]:
    """One ``socket.socketpair()`` per rank pair, as per-rank peer tables:
    ``mesh[r][j]`` is rank ``r``'s end of its pair with rank ``j``."""
    mesh: list[dict[int, socket.socket]] = [{} for _ in range(size)]
    for i in range(size):
        for j in range(i + 1, size):
            mesh[i][j], mesh[j][i] = socket.socketpair()
    return mesh


def _close_mesh(mesh, keep: int | None = None) -> None:
    """Close every end of ``mesh`` except rank ``keep``'s (idempotent)."""
    for rank, peers in enumerate(mesh):
        if rank != keep:
            for end in peers.values():
                end.close()


def _run_rank(rank: int, peers, fn: Callable[[Comm], object],
              timeout: float) -> tuple[object, CommStats]:
    """``fn(comm)`` as rank ``rank`` of the mesh; returns (result, stats).

    A raise aborts the transport, so every peer's collective fails at once
    naming this rank; either way the rank's sockets are closed on return.
    """
    transport = MeshTransport.from_sockets(rank, peers,
                                           collective_timeout=timeout)
    comm = Comm(transport)
    try:
        out = fn(comm)
    except BaseException as exc:
        transport.abort(dead_rank_message([rank], f"raised {exc!r}"))
        raise
    finally:
        transport.close()
    return out, comm.stats


def run_spmd(size: int, fn: Callable[[Comm], object],
             timeout: float = 600.0) -> tuple[list, CommStats]:
    """Run ``fn(comm)`` as ``size`` thread ranks; returns (rank results, stats).

    ``timeout`` bounds each blocking socket operation of a collective.  A
    rank failure is re-raised in the caller — the failing rank's own
    exception, not the ``CommAbortError`` it caused in its peers.
    """
    mesh = _socket_mesh(size)
    results: list = [None] * size
    errors: list[BaseException] = []

    def runner(rank: int) -> None:
        try:
            results[rank] = _run_rank(rank, mesh[rank], fn, timeout)
        except BaseException as exc:  # surface rank failures to the caller
            errors.append(exc)

    threads = [threading.Thread(target=runner, args=(r,)) for r in range(size)]
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    finally:
        _close_mesh(mesh)
    if errors:
        raise next((e for e in errors if not isinstance(e, CommAbortError)),
                   errors[0])
    return [out for out, _ in results], results[0][1]


def _close_foreign_pipe_ends(rank: int, pipe_list) -> None:
    """Drop a forked child's inherited copies of every other rank's pipes.

    Fork duplicates all pipe fds into every child; without this, a dead
    rank's connection never reaches EOF (siblings still hold the write end)
    and EOF-based liveness detection deadlocks.
    """
    for i, (parent_end, child_end) in enumerate(pipe_list):
        parent_end.close()
        if i != rank:
            child_end.close()


def _fork_rank_workers(size: int, body: Callable[[int], object]):
    """Fork ``size`` workers running ``body(rank)`` with pipe hygiene.

    Each worker reports ``("ok", result)`` or ``("error", message)`` — the
    exception and its traceback — on its result pipe; the parent keeps only
    its own pipe ends, so a dead worker's connection actually delivers EOF.
    Returns ``(result_conns, procs)``.
    """
    ctx = mp.get_context("fork")
    result_pipes = [ctx.Pipe() for _ in range(size)]

    def worker(rank: int) -> None:
        _close_foreign_pipe_ends(rank, result_pipes)
        try:
            out = body(rank)
            result_pipes[rank][1].send(("ok", out))
        except BaseException as exc:  # noqa: BLE001 - reraised in parent
            # The rank's own traceback rides along: the parent's re-raise
            # only shows where the launcher noticed.
            result_pipes[rank][1].send(
                ("error", f"rank {rank}: {exc!r}\n{traceback.format_exc()}"))
        finally:
            result_pipes[rank][1].close()

    procs = [ctx.Process(target=worker, args=(r,)) for r in range(size)]
    for p in procs:
        p.start()
    # The parent must drop its copies of the child ends, or a dead rank's
    # pipe never reaches EOF and whoever reads it blocks forever.
    for _, child_end in result_pipes:
        child_end.close()
    return [c for c, _ in result_pipes], procs


def _collect_rank_results(result_conns, procs, timeout: float,
                          join_timeout: float = 10.0):
    """Gather per-rank results, then join/kill; returns (results, error).

    One deadline, ``timeout + join_timeout`` after the call, covers every
    rank's report — a rank's own collective timeout fires first, so a peer
    wedged inside a collective is reported by the rank that waited for it —
    and one ``join_timeout`` every rank's exit, so wedged ranks cost
    ``timeout + 2 * join_timeout`` in all, however many there are.
    Stragglers are killed; no child and no pipe of the launch outlives the
    call.
    """
    results: list = [None] * len(procs)
    error: str | None = None
    deadline = time.monotonic() + timeout + join_timeout
    for r, conn in enumerate(result_conns):
        with conn:
            if not conn.poll(max(0.0, deadline - time.monotonic())):
                error = error or (
                    f"rank {r}: timed out after {timeout + join_timeout}s")
                continue
            try:
                status, value = conn.recv()
            except EOFError:
                # A hard-killed worker (SIGKILL/OOM) closes its result pipe
                # without ever sending: poll() sees the EOF as readability.
                error = error or f"rank {r}: died without reporting a result"
                continue
        if status == "ok":
            results[r] = value
        else:
            error = error or value
    deadline = time.monotonic() + join_timeout
    for p in procs:
        p.join(timeout=max(0.0, deadline - time.monotonic()))
    for p in procs:
        if p.is_alive():
            p.kill()
            p.join()
        p.close()
    return results, error


def run_spmd_processes(
    size: int, fn: Callable[[Comm], object], timeout: float = 600.0,
    *, join_timeout: float = 10.0,
) -> tuple[list, CommStats]:
    """Run ``fn(comm)`` as ``size`` forked processes; returns (results, stats).

    Rank return values are pickled back to the parent.  A rank exception is
    re-raised in the parent (wrapped with the rank id).  ``timeout`` bounds
    each blocking socket operation of a collective and, ``join_timeout``
    later, the wait for every rank's result; ``join_timeout`` also bounds
    the wait for every rank's exit before stragglers are killed.  The
    parent keeps no end of any socket pair.
    """
    mesh = _socket_mesh(size)

    def rank_body(rank: int):
        _close_mesh(mesh, keep=rank)
        out, stats = _run_rank(rank, mesh[rank], fn, timeout)
        # Every rank computes the same accounting; ship rank 0's.
        return out, (stats if rank == 0 else None)

    try:
        result_conns, procs = _fork_rank_workers(size, rank_body)
    finally:
        _close_mesh(mesh)
    results, error = _collect_rank_results(result_conns, procs, timeout,
                                           join_timeout=join_timeout)
    if error is not None:
        raise RuntimeError(error)
    return [out for out, _ in results], results[0][1]
