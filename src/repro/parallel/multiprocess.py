"""Forked-process ranks: the pipe + shared-memory transport and its launcher.

``repro.parallel.fake_mpi.run_spmd`` runs ranks as *threads*: exchanges are
cheap (shared references) and numpy kernels parallelize because they release
the GIL, but pure-Python rank code serializes on the interpreter lock.  This
module provides the complementary launcher: ``run_spmd_processes`` forks one
OS process per rank, each holding a :class:`~repro.parallel.comm.Comm` over a
:class:`PipeTransport`, and a relay thread in the parent hands every rank's
``(tag, payload)`` to every other rank — true interpreter-level parallelism
with explicit message passing, one step closer to real MPI.

The collectives and their byte accounting are the shared ``Comm``'s, with the
MPI-like restriction that **rank state is private**: unlike thread ranks,
writes to captured objects are not visible across ranks — everything shared
must flow through a collective.  The data-centric drivers honor that
contract already; tests pin it down.

Large arrays move as raw bytes through ``multiprocessing.shared_memory``
segments instead of pickle-over-pipes: the posting rank writes its array into
a named segment and ships only a tiny ``(name, dtype, shape, nbytes)`` record
through the pipe; peers attach and read the bytes in place.  Segment
lifecycle is owned by the parent relay: an exchange's segments are unlinked
as soon as every live rank has posted its *next* exchange (proof that the
segments were released), at relay shutdown, and — belt and braces — by a
name-prefix sweep of ``/dev/shm`` in the parent's ``finally``, so a rank
crash mid-collective never leaks ``/dev/shm`` blocks.  Small payloads and
pre-encoded blobs stay on the pipe, where pickling a ``bytes`` object is a
plain memcpy.

Linux-only (uses the fork start method so closures need not pickle).
"""
from __future__ import annotations

import itertools
import multiprocessing as mp
import os
import threading
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from repro.parallel.comm import (
    Comm,
    CommAbortError,
    CommStats,
    dead_rank_message,
    poison_survivors,
)

__all__ = ["PipeTransport", "run_spmd_processes"]

try:
    from multiprocessing import shared_memory as _shared_memory
except ImportError:  # pragma: no cover - non-POSIX fallback
    _shared_memory = None

_RUN_COUNTER = itertools.count()
# Payloads below this ride the pipe: segment setup costs more than a small
# pickle, and SharedMemory cannot be zero-sized anyway.
_DEFAULT_SHM_THRESHOLD = 1 << 16


def _ensure_resource_tracker() -> None:
    """Start the resource tracker pre-fork so all ranks share one tracker.

    Python registers shared-memory names with the tracker on *attach* as
    well as create; with a single inherited tracker, one unlink balances the
    books and no spurious "leaked shared_memory" warnings fire at exit.
    """
    try:
        from multiprocessing import resource_tracker

        resource_tracker.ensure_running()
    except Exception:  # pragma: no cover - tracker is an optimization only
        pass


def _unlink_segments(names, registry: set | None = None) -> None:
    """Unlink shared-memory segments by name; missing segments are fine."""
    if _shared_memory is None:  # pragma: no cover
        return
    for name in list(names):
        try:
            seg = _shared_memory.SharedMemory(name=name)
        except FileNotFoundError:
            pass
        except OSError:  # pragma: no cover - defensive
            pass
        else:
            seg.close()
            seg.unlink()
        if registry is not None:
            registry.discard(name)


def _unlink_stray_segments(prefix: str) -> None:
    """Sweep ``/dev/shm`` for segments a crashed rank created but never
    announced to the coordinator (created-then-died window)."""
    shm_dir = Path("/dev/shm")
    if not shm_dir.is_dir():  # pragma: no cover - non-Linux
        return
    for p in shm_dir.glob(f"{prefix}-*"):
        _unlink_segments([p.name])


class _Segment(NamedTuple):
    """What crosses the pipe in place of an array posted to shared memory."""

    name: str
    dtype: str
    shape: tuple
    nbytes: int


class PipeTransport:
    """One forked rank's link to the parent relay, over a pipe.

    Arrays of at least ``shm_threshold`` bytes are written into a named
    shared-memory segment and only their :class:`_Segment` record rides the
    pipe; peers' segments come back as *views* (``borrows``), released at
    this rank's next ``exchange`` — so an allreduce sums straight out of the
    segments and never holds N_p private gradient copies.  Everything else —
    small arrays, pre-compressed blobs — is pickled through the pipe.
    ``use_shm=False`` forces the pipe path everywhere.
    """

    def __init__(self, rank: int, size: int, conn, *, use_shm: bool = False,
                 shm_prefix: str = "", shm_threshold: int = _DEFAULT_SHM_THRESHOLD):
        self.rank = rank
        self.size = size
        self._conn = conn
        self.borrows = bool(use_shm) and _shared_memory is not None
        self._shm_prefix = shm_prefix
        self._shm_threshold = max(1, int(shm_threshold))
        self._shm_seq = 0
        self._attached: list = []

    def _post_segment(self, array: np.ndarray) -> _Segment:
        """Write ``array`` into a fresh named segment; returns its record."""
        name = f"{self._shm_prefix}-{self.rank}-{self._shm_seq}"
        self._shm_seq += 1
        seg = _shared_memory.SharedMemory(name=name, create=True,
                                          size=array.nbytes)
        dst = np.frombuffer(seg.buf, dtype=array.dtype)[: array.size]
        np.copyto(dst, array.reshape(-1))
        del dst
        seg.close()
        return _Segment(name, array.dtype.str, array.shape, array.nbytes)

    def _view_segment(self, record: _Segment) -> np.ndarray:
        dt = np.dtype(record.dtype)
        seg = _shared_memory.SharedMemory(name=record.name)
        self._attached.append(seg)
        flat = np.frombuffer(seg.buf, dtype=dt)[: record.nbytes // dt.itemsize]
        return flat.reshape(record.shape)

    def _release_segments(self) -> None:
        # The previous exchange's views are dead by contract; a survivor
        # would make mmap.close() raise BufferError.
        for seg in self._attached:
            seg.close()
        self._attached.clear()

    def exchange(self, tag, buffer) -> list:
        self._release_segments()
        payload = buffer
        if (self.borrows and isinstance(buffer, np.ndarray)
                and buffer.nbytes >= self._shm_threshold):
            payload = self._post_segment(buffer)
        self._conn.send((tag, payload))
        try:
            status, value = self._conn.recv()
        except EOFError:
            raise CommAbortError(
                f"rank {self.rank}: communicator closed mid-collective"
            ) from None
        if status == "abort":
            raise CommAbortError(f"collective aborted: {value}")
        value[self.rank] = (tag, buffer)
        return [
            (t, self._view_segment(p) if isinstance(p, _Segment) else p)
            for t, p in value
        ]

    def abort(self, reason: str) -> None:
        try:
            self._conn.send((None, reason))
        except OSError:  # the relay is already gone: everyone is poisoned
            pass

    def close(self) -> None:
        self._release_segments()
        self._conn.close()


def _abort_ranks(parent_conns, live, message: str) -> None:
    """Poison every live rank so it fails fast instead of hanging in recv.

    Delivery goes through the shared :func:`~repro.parallel.comm.
    poison_survivors` idiom — the same one the rendezvous coordinator uses —
    so both process and cluster ranks die with an identical
    :class:`~repro.parallel.comm.CommAbortError` surface.
    """
    poison_survivors(
        [r for r in range(len(parent_conns)) if live[r]],
        lambda r, msg: parent_conns[r].send(("abort", msg)),
        message,
    )


def _coordinator(parent_conns, stop_flag, shm_registry: set):
    """Relay exchanges: wait for every rank's ``(tag, payload)``, send every
    rank the rank-ordered list (its own entry blanked — it has that one).

    The relay never looks inside a payload except to note shared-memory
    segments, whose lifecycle it owns: segments announced in exchange *t* are
    unlinked once every live rank has posted exchange *t+1* (or hit EOF) —
    by then every reader has released them.  When a rank dies or asks for an
    abort (a ``None`` tag), the live ranks get an ``("abort", msg)`` poison
    reply instead of waiting forever, and the pending segments are unlinked
    before returning.
    """
    size = len(parent_conns)
    live = [True] * size
    pending_unlink: list[str] = []
    try:
        while not stop_flag[0] and any(live):
            requests = [None] * size
            died_now: list[int] = []
            for r, conn in enumerate(parent_conns):
                if not live[r]:
                    continue
                try:
                    requests[r] = conn.recv()
                except EOFError:
                    live[r] = False
                    died_now.append(r)
            # Every live rank has moved past the previous exchange, so its
            # segments have been released everywhere: safe to unlink them now.
            _unlink_segments(pending_unlink, shm_registry)
            pending_unlink = []
            posted = [req for req in requests if req is not None]
            if not posted:
                # Every remaining rank closed its pipe — the normal end of a
                # run (or the tail of an abort); nothing left to serve.
                return
            if died_now:
                # A rank died while its peers posted an exchange: serving it
                # short a participant would return silently-wrong values.
                # Poison the survivors with the dead rank named instead.
                _abort_ranks(parent_conns, live,
                             dead_rank_message(
                                 died_now, "connection closed mid-collective"))
                return
            aborts = [reason for tag, reason in posted if tag is None]
            if aborts:
                _abort_ranks(parent_conns, live, aborts[0])
                return
            for _, payload in posted:
                if isinstance(payload, _Segment):
                    shm_registry.add(payload.name)
                    pending_unlink.append(payload.name)
            for r, conn in enumerate(parent_conns):
                conn.send(("ok", [
                    None if i == r else req for i, req in enumerate(requests)
                ]))
    finally:
        _unlink_segments(pending_unlink, shm_registry)
        # Closing the pipes unblocks any straggler rank still waiting on a
        # reply after an abort, turning a silent hang into a fast error.
        for conn in parent_conns:
            try:
                conn.close()
            except OSError:  # pragma: no cover
                pass


def _close_foreign_pipe_ends(rank: int, *pipe_lists) -> None:
    """Drop a forked child's inherited copies of every other rank's pipes.

    Fork duplicates all pipe fds into every child; without this, a dead
    rank's connection never reaches EOF (siblings still hold the write end)
    and EOF-based liveness detection deadlocks.
    """
    for pipe_list in pipe_lists:
        for i, (parent_end, child_end) in enumerate(pipe_list):
            parent_end.close()
            if i != rank:
                child_end.close()


def _fork_rank_workers(size: int, body: Callable[[int, object], object]):
    """Fork ``size`` workers running ``body(rank, conn)`` with pipe hygiene.

    Each worker reports ``("ok", result)`` or ``("error", message)`` on its
    result pipe; the parent keeps only its own pipe ends, so a dead worker's
    connections actually deliver EOF.  Returns
    ``(parent_conns, result_conns, procs)``.
    """
    ctx = mp.get_context("fork")
    pipes = [ctx.Pipe() for _ in range(size)]
    result_pipes = [ctx.Pipe() for _ in range(size)]

    def worker(rank: int) -> None:
        _close_foreign_pipe_ends(rank, pipes, result_pipes)
        try:
            out = body(rank, pipes[rank][1])
            result_pipes[rank][1].send(("ok", out))
        except BaseException as exc:  # noqa: BLE001 - reraised in parent
            result_pipes[rank][1].send(("error", f"rank {rank}: {exc!r}"))
        finally:
            pipes[rank][1].close()
            result_pipes[rank][1].close()

    procs = [ctx.Process(target=worker, args=(r,)) for r in range(size)]
    for p in procs:
        p.start()
    # The parent must drop its copies of the child ends, or a dead rank's
    # pipe never reaches EOF and whoever reads it blocks forever.
    for _, child_end in pipes:
        child_end.close()
    for _, child_end in result_pipes:
        child_end.close()
    return [c for c, _ in pipes], [c for c, _ in result_pipes], procs


def _collect_rank_results(result_conns, procs, timeout: float,
                          join_timeout: float = 10.0):
    """Gather per-rank results, then join/terminate; returns (results, error)."""
    results: list = [None] * len(procs)
    error: str | None = None
    for r, conn in enumerate(result_conns):
        if conn.poll(timeout):
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
        else:
            error = error or f"rank {r}: timed out after {timeout}s"
    for p in procs:
        p.join(timeout=join_timeout)
        if p.is_alive():  # pragma: no cover - cleanup path
            p.terminate()
    return results, error


def run_spmd_processes(
    size: int, fn: Callable[[Comm], object], timeout: float = 600.0,
    *, use_shm: bool = True, shm_threshold: int = _DEFAULT_SHM_THRESHOLD,
    join_timeout: float = 10.0,
) -> tuple[list, CommStats]:
    """Run ``fn(comm)`` as ``size`` forked processes; returns (results, stats).

    Rank return values are pickled back to the parent.  A rank exception is
    re-raised in the parent (wrapped with the rank id).  ``use_shm`` routes
    large arrays through named shared-memory segments; whatever happens —
    clean exit, rank exception, hard kill mid-collective — every segment of
    this run is unlinked before this function returns (deferred unlink in
    the relay + a name-prefix sweep of ``/dev/shm``).
    """
    use_shm = bool(use_shm) and _shared_memory is not None
    shm_prefix = f"reprocomm-{os.getpid()}-{next(_RUN_COUNTER)}"
    if use_shm:
        _ensure_resource_tracker()

    def rank_body(rank: int, conn):
        transport = PipeTransport(
            rank, size, conn, use_shm=use_shm, shm_prefix=shm_prefix,
            shm_threshold=shm_threshold,
        )
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

    parent_conns, result_conns, procs = _fork_rank_workers(size, rank_body)
    stop_flag = [False]
    shm_registry: set[str] = set()
    # Daemon: a relay wedged on a half-dead rank set must never block
    # interpreter shutdown (it is joined with a timeout below regardless).
    coord = threading.Thread(
        target=_coordinator,
        args=(parent_conns, stop_flag, shm_registry),
        daemon=True,
    )
    coord.start()

    try:
        results, error = _collect_rank_results(result_conns, procs, timeout,
                                               join_timeout=join_timeout)
    finally:
        stop_flag[0] = True
        coord.join(timeout=max(join_timeout, 10.0))
        if use_shm:
            _unlink_segments(list(shm_registry), shm_registry)
            _unlink_stray_segments(shm_prefix)
    if error is not None:
        raise RuntimeError(error)
    return [out for out, _ in results], results[0][1]
