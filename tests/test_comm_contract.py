"""The Comm contract, once, over every transport.

One parametrized suite over (solo, thread, process-pipe, process-shm, socket
mesh): rank order, the rank-ordered reduction
bit-equal to a sequential ``functools.reduce``, identical ``CommStats`` on
every rank of every transport, the size-1 degenerate world, and the failure
contract — a desynchronized, departed or failed rank surfaces as
``CommAbortError`` naming the op/seq or the rank on every peer, within a
bound each test enforces itself (CI has no pytest-timeout).

Transport-specific safety lives next to the transport: frame rejection and
heartbeat poisoning in test_cluster.py, shm leak sweeps in
test_multiprocess.py.
"""
from __future__ import annotations

import dataclasses
import functools
import threading
import time

import numpy as np
import pytest

from repro.parallel import CommAbortError, run_spmd, run_spmd_processes
from repro.parallel.cluster import MeshTransport
from repro.parallel.comm import Comm, SoloTransport
from repro.parallel.rendezvous import RendezvousCoordinator

# Generous for loaded 1-2 core runners; a hang is what these bounds catch.
BOUND_S = 30.0


# ------------------------------------------------------------------ launchers
def _run_threads_with(make_comm, size, fn, on_error=None):
    """Host ``size`` ranks as threads, rank r talking through
    ``make_comm(r)``; returns the per-rank results (first failure re-raised)."""
    results: list = [None] * size
    failures: list = []

    def run_rank(rank):
        comm = None
        try:
            comm = make_comm(rank)
            results[rank] = fn(comm)
        except BaseException as exc:  # noqa: BLE001 - re-raised below
            failures.append((rank, exc))
            if comm is not None and on_error is not None:
                on_error(comm, rank, exc)
        finally:
            if comm is not None:
                comm.close()

    threads = [threading.Thread(target=run_rank, args=(r,), daemon=True)
               for r in range(size)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=2 * BOUND_S)
    if failures:
        raise min(failures, key=lambda f: f[0])[1]
    return results


def _launch_solo(size, fn):
    assert size == 1
    return [fn(Comm(SoloTransport()))]


def _launch_thread(size, fn):
    return run_spmd(size, fn)[0]


def _launch_pipe(size, fn):
    return run_spmd_processes(size, fn, timeout=2 * BOUND_S, use_shm=False)[0]


def _launch_shm(size, fn):
    # threshold=0 forces every array through a shared-memory segment
    return run_spmd_processes(size, fn, timeout=2 * BOUND_S, use_shm=True,
                              shm_threshold=0)[0]


def _launch_mesh(size, fn):
    coord = RendezvousCoordinator(world_size=size, heartbeat_interval=0.1,
                                  heartbeat_timeout=0.6)
    host, port = coord.start()
    try:
        return _run_threads_with(
            lambda rank: Comm(MeshTransport(size, f"{host}:{port}", rank=rank,
                                            join_timeout=10.0)),
            size, fn,
            on_error=lambda comm, rank, exc: comm.transport.abort(repr(exc)),
        )
    finally:
        coord.stop()


LAUNCHERS = {
    "solo": _launch_solo,
    "thread": _launch_thread,
    "pipe": _launch_pipe,
    "shm": _launch_shm,
    "mesh": _launch_mesh,
}
# Every multi-rank transport detects a misbehaving peer itself.
MULTI_RANK = [name for name in LAUNCHERS if name != "solo"]


def _bounded(call):
    """Run ``call()`` on a watchdog thread; fail instead of hanging."""
    box: dict = {}

    def target():
        try:
            box["value"] = call()
        except BaseException as exc:  # noqa: BLE001 - re-raised below
            box["error"] = exc

    t = threading.Thread(target=target, daemon=True)
    t.start()
    t.join(timeout=BOUND_S)
    assert not t.is_alive(), f"still blocked after {BOUND_S}s"
    return box


# ------------------------------------------------------------------- traffic
def _payload(rank: int) -> np.ndarray:
    # Values whose sum depends on the association order in floating point.
    return (np.arange(64, dtype=np.float64) + 1.0) / (rank + 3.0) * 1e-3 \
        + (1e8 if rank == 1 else 0.0)


def _traffic(comm):
    """One of each collective; returns everything a rank can observe."""
    rank = comm.Get_rank()
    gathered = comm.allgather_ndarray(
        np.arange(5, dtype=np.int64) + 100 * rank, channel="t")
    blobs = comm.allgather_blob(bytes([rank]) * 10, logical_bytes=100,
                                channel="z")
    reduced = comm.allreduce_ndarray(_payload(rank), channel="g")
    unchanneled = comm.allreduce_ndarray(np.array([1.0, rank]))
    return {
        "rank": rank,
        "gathered": gathered,
        "blobs": blobs,
        "reduced": reduced,
        "unchanneled": unchanneled,
        "stats": dataclasses.asdict(comm.stats),
    }


def _matrix():
    for name in LAUNCHERS:
        for size in ((1,) if name == "solo" else (1, 2, 4)):
            yield pytest.param(name, size, id=f"{name}-{size}")


class TestCollectiveContract:
    @pytest.mark.parametrize("name,size", _matrix())
    def test_rank_order_reduction_and_accounting(self, name, size):
        results = LAUNCHERS[name](size, _traffic)
        expected_sum = functools.reduce(
            np.add, [_payload(r) for r in range(size)])
        for rank, out in enumerate(results):
            assert out["rank"] == rank
            for r, part in enumerate(out["gathered"]):
                np.testing.assert_array_equal(
                    part, np.arange(5, dtype=np.int64) + 100 * r)
                assert part.dtype == np.int64
            assert out["blobs"] == [bytes([r]) * 10 for r in range(size)]
            assert out["reduced"].tobytes() == expected_sum.tobytes()
            np.testing.assert_array_equal(
                out["unchanneled"], [size, size * (size - 1) / 2])
        # Paper convention on every rank of every transport: an allgather
        # moves the N_p payloads to N_p ranks, an allreduce one payload x N_p.
        stats = results[0]["stats"]
        assert all(out["stats"] == stats for out in results)
        n2 = size * size
        assert stats["channels"] == {
            "t": {"logical": 40 * n2, "wire": 40 * n2, "calls": 1},
            "z": {"logical": 100 * n2, "wire": 10 * n2, "calls": 1},
            "g": {"logical": 512 * size, "wire": 512 * size, "calls": 1},
        }
        assert stats["allgather_bytes"] == 140 * n2
        assert stats["allgather_wire_bytes"] == 50 * n2
        assert stats["allreduce_bytes"] == (512 + 16) * size
        assert stats["allreduce_wire_bytes"] == (512 + 16) * size
        assert stats["calls"] == {"allgather": 2, "allreduce": 2}

    @pytest.mark.parametrize("name", list(LAUNCHERS))
    def test_allreduce_aliasing_rule(self, name):
        """The sum of one part is that part: a size-1 world hands back the
        very array it was given (the engine ships its gradient buffer without
        a copy); any larger world builds a new one."""
        def fn(comm):
            sent = _payload(comm.Get_rank())
            got = comm.allreduce_ndarray(sent, channel="g")
            return got is sent, bool(np.shares_memory(got, sent))

        assert LAUNCHERS[name](1, fn) == [(True, True)]
        if name != "solo":
            assert LAUNCHERS[name](2, fn) == [(False, False)] * 2

    def test_gathered_arrays_outlive_later_collectives(self):
        """Shared-memory views are only valid until the next exchange; what
        ``allgather_ndarray`` hands out must not be such a view."""
        def fn(comm):
            held = comm.allgather_ndarray(
                np.full(1000, comm.Get_rank(), dtype=np.float64))
            for _ in range(3):
                comm.allreduce_ndarray(np.ones(1000))
            return [float(part.sum()) for part in held]

        for name in MULTI_RANK:
            assert LAUNCHERS[name](2, fn) == [[0.0, 1000.0]] * 2, name


class TestFailureContract:
    @pytest.mark.parametrize("name", MULTI_RANK)
    def test_desynchronized_ranks_get_comm_abort_naming_op_and_seq(self, name):
        def fn(comm):
            comm.allreduce_ndarray(np.zeros(3))  # seq 0, in step
            try:
                if comm.Get_rank() == 0:
                    comm.allgather_ndarray(np.zeros(3))
                else:
                    comm.allreduce_ndarray(np.zeros(3))
            except Exception as exc:  # noqa: BLE001 - shipped to the assert
                return type(exc).__name__, str(exc)
            return "completed", ""

        box = _bounded(lambda: LAUNCHERS[name](3, fn))
        assert "error" not in box, box.get("error")
        for kind, message in box["value"]:
            assert kind == "CommAbortError", (kind, message)
            assert "desynchronized" in message
            assert "allgather_ndarray" in message and "seq 1" in message

    @pytest.mark.parametrize("name", MULTI_RANK)
    def test_early_exit_poisons_blocked_peers(self, name):
        """A rank that returns while a peer is still in a collective must not
        hang the peer: the peer gets CommAbortError naming the leaver."""
        def fn(comm):
            if comm.Get_rank() == 0:
                return "left early", ""
            try:
                comm.allreduce_ndarray(np.ones(8))
            except Exception as exc:  # noqa: BLE001 - shipped to the assert
                return type(exc).__name__, str(exc)
            return "completed", ""

        box = _bounded(lambda: LAUNCHERS[name](2, fn))
        assert "error" not in box, box.get("error")
        assert box["value"][0] == ("left early", "")
        kind, message = box["value"][1]
        assert kind == "CommAbortError", (kind, message)
        assert "rank 0" in message

    @pytest.mark.parametrize("name", MULTI_RANK)
    def test_failed_rank_poisons_peers_and_is_reraised(self, name, tmp_path):
        marker = tmp_path / "survivor.txt"

        def fn(comm):
            if comm.Get_rank() == 1:
                raise ValueError("boom")
            try:
                comm.allreduce_ndarray(np.ones(8))
            except Exception as exc:  # noqa: BLE001 - recorded for the assert
                marker.write_text(f"{type(exc).__name__}:{exc}")
                raise

        box = _bounded(lambda: LAUNCHERS[name](2, fn))
        assert isinstance(box.get("error"), (ValueError, RuntimeError))
        assert "rank 1" in str(box["error"]) or "boom" in str(box["error"])
        kind, _, message = marker.read_text().partition(":")
        assert kind == "CommAbortError"
        assert "rank 1" in message

    def test_thread_collective_timeout_names_op_and_seq(self):
        """``timeout`` bounds a thread rank's wait for a wedged peer."""
        release = threading.Event()

        def fn(comm):
            if comm.Get_rank() == 1:
                release.wait(BOUND_S)  # wedged: alive, never communicates
                return None
            try:
                comm.allreduce_ndarray(np.ones(4))
            finally:
                release.set()

        t0 = time.monotonic()
        with pytest.raises(CommAbortError,
                           match=r"timed out.*allreduce_ndarray \(seq 0\)"):
            run_spmd(2, fn, timeout=0.3)
        assert time.monotonic() - t0 < BOUND_S

    def test_spec_collective_timeout_reaches_the_thread_backend(self):
        from repro.api import RunSpec
        from repro.api.driver import materialize_backend

        spec = RunSpec.from_dict({
            "name": "t", "problem": {"molecule": "H2", "basis": "sto-3g"},
            "parallel": {"backend": "threads", "n_ranks": 2,
                         "collective_timeout_s": 7.0},
        })
        assert materialize_backend(spec).collective_timeout_s == 7.0
