"""Thread ranks: the in-process transport and its SPMD launcher.

``run_spmd`` executes N_p rank functions on N_p *threads*, each holding a
:class:`~repro.parallel.comm.Comm` over a :class:`ThreadTransport`.  That
gives real collective semantics in one process; because the hot kernels
(vectorized local energy, matmuls) release the GIL, thread ranks also deliver
genuine wall-clock parallelism on multicore hosts — that is what the
strong/weak scaling benches measure.

The transport is a generation-counted rendezvous on one condition variable:
each rank drops ``(tag, buffer)`` into its slot and the last arriver
publishes the rank-ordered snapshot, so peers *share references* to each
other's buffers (zero copies).  A rank that leaves — by returning, raising
or timing out — marks the world broken, and every peer blocked in, or later
entering, an ``exchange`` raises
:class:`~repro.parallel.comm.CommAbortError` instead of waiting forever; an
exchange that already completed is never retroactively broken.
"""
from __future__ import annotations

import threading
from typing import Callable

from repro.parallel.comm import (
    Comm,
    CommAbortError,
    CommStats,
    dead_rank_message,
)

__all__ = ["ThreadTransport", "run_spmd"]


class _World:
    def __init__(self, size: int, timeout: float):
        self.size = size
        self.timeout = timeout
        self.cond = threading.Condition()
        self.slots: list = [None] * size
        self.arrived = 0
        self.generation = 0
        self.snapshot: list = []
        self.broken: str | None = None


class ThreadTransport:
    """One thread rank's view of the shared :class:`_World`."""

    borrows = False

    def __init__(self, world: _World, rank: int):
        self._world = world
        self.rank = rank
        self.size = world.size

    def exchange(self, tag, buffer) -> list:
        w = self._world
        with w.cond:
            if w.broken is not None:
                raise CommAbortError(f"collective aborted: {w.broken}")
            w.slots[self.rank] = (tag, buffer)
            w.arrived += 1
            if w.arrived == w.size:
                # The next generation cannot complete before every rank has
                # returned from this one, so the snapshot is stable for them.
                w.snapshot = list(w.slots)
                w.arrived = 0
                w.generation += 1
                w.cond.notify_all()
                return w.snapshot
            generation = w.generation
            w.cond.wait_for(
                lambda: w.generation != generation or w.broken is not None,
                w.timeout,
            )
            if w.generation != generation:
                return w.snapshot
            if w.broken is None:
                w.broken = (
                    f"rank {self.rank} timed out after {w.timeout}s waiting "
                    f"for its peers in {tag[0]} (seq {tag[1]})"
                )
                w.cond.notify_all()
            raise CommAbortError(f"collective aborted: {w.broken}")

    def abort(self, reason: str) -> None:
        w = self._world
        with w.cond:
            if w.broken is None:
                w.broken = reason
                w.cond.notify_all()

    def close(self) -> None:
        self.abort(dead_rank_message(
            [self.rank], "returned while its peers were still communicating"
        ))


def run_spmd(size: int, fn: Callable[[Comm], object],
             timeout: float = 600.0) -> tuple[list, CommStats]:
    """Run ``fn(comm)`` as ``size`` thread ranks; returns (rank results, stats).

    ``timeout`` bounds how long a rank waits for its peers inside one
    collective.  The first rank failure is re-raised in the caller.
    """
    world = _World(size, timeout)
    comms = [Comm(ThreadTransport(world, r)) for r in range(size)]
    results: list = [None] * size
    errors: list[BaseException] = []

    def runner(rank: int) -> None:
        transport = comms[rank].transport
        try:
            results[rank] = fn(comms[rank])
        except BaseException as exc:  # surface rank failures to the caller
            errors.append(exc)
            transport.abort(dead_rank_message([rank], f"raised {exc!r}"))
        finally:
            transport.close()

    threads = [threading.Thread(target=runner, args=(r,)) for r in range(size)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if errors:
        raise errors[0]
    return results, comms[0].stats
