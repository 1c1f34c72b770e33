"""Forked-process ranks: a socket-pair mesh and its launcher.

``repro.parallel.fake_mpi.run_spmd`` runs ranks as *threads*: exchanges are
cheap (shared references) and numpy kernels parallelize because they release
the GIL, but pure-Python rank code serializes on the interpreter lock.  This
module provides the complementary launcher: ``run_spmd_processes`` forks one
OS process per rank, each holding a :class:`~repro.parallel.comm.Comm` over a
:class:`~repro.parallel.cluster.MeshTransport` built from socket pairs the
parent made before the fork — true interpreter-level parallelism with
explicit message passing, on the same frames and the same transport as the
multi-host cluster backend, minus its coordinator.

The collectives and their byte accounting are the shared ``Comm``'s, with the
MPI-like restriction that **rank state is private**: unlike thread ranks,
writes to captured objects are not visible across ranks — everything shared
must flow through a collective.  The data-centric drivers honor that
contract already; tests pin it down.

Every child closes the socket ends that are not its own, so the only holder
of a rank's end is that rank: when it dies or leaves, each peer's next read
on the pair is an EOF and raises :class:`~repro.parallel.comm.CommAbortError`
naming it.

Linux-only (uses the fork start method so closures need not pickle).
"""
from __future__ import annotations

import multiprocessing as mp
import socket
import time
import traceback
from typing import Callable

from repro.parallel.cluster import MeshTransport
from repro.parallel.comm import Comm, CommStats, dead_rank_message

__all__ = ["run_spmd_processes"]


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

    One deadline covers every rank's report and one ``join_timeout`` every
    rank's exit, so wedged ranks cost ``timeout + join_timeout`` in all,
    however many there are.  Stragglers are killed; no child and no pipe of
    the launch outlives the call.
    """
    results: list = [None] * len(procs)
    error: str | None = None
    deadline = time.monotonic() + timeout
    for r, conn in enumerate(result_conns):
        with conn:
            if not conn.poll(max(0.0, deadline - time.monotonic())):
                error = error or f"rank {r}: timed out after {timeout}s"
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
    each blocking socket operation of a collective and the wait for every
    rank's result together; ``join_timeout`` bounds the wait for every
    rank's exit before stragglers are killed.  The ranks talk over one
    ``socket.socketpair()`` per rank pair; the parent keeps no end of any.
    """
    pairs = {(i, j): socket.socketpair()
             for i in range(size) for j in range(i + 1, size)}

    def rank_body(rank: int):
        peers = {}
        for (i, j), ends in pairs.items():
            for me, peer, end in ((i, j, ends[0]), (j, i, ends[1])):
                if me == rank:
                    peers[peer] = end
                else:
                    end.close()
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
        # Every rank computes the same accounting; ship rank 0's.
        return out, (comm.stats if rank == 0 else None)

    try:
        result_conns, procs = _fork_rank_workers(size, rank_body)
    finally:
        for ends in pairs.values():
            for end in ends:
                end.close()
    results, error = _collect_rank_results(result_conns, procs, timeout,
                                           join_timeout=join_timeout)
    if error is not None:
        raise RuntimeError(error)
    return [out for out, _ in results], results[0][1]
