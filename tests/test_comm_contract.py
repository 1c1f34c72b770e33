"""The Comm contract, once, over every transport.

One parametrized suite over (solo, thread ranks and forked processes on a
socket-pair mesh — rank 0 in the caller, the others the launch's followers
— coordinator-joined socket mesh): rank order (1-D, 0-d and
empty arrays, blobs), the rank-ordered reduction bit-equal to a sequential
``functools.reduce``, identical ``CommStats`` on every rank of every
transport, the size-1 degenerate world, a mesh job whose every member the
coordinator welcomed, and the failure contract — a
desynchronized, departed, failed or wedged rank surfaces as
``CommAbortError`` naming the op/seq or the rank on every peer, within a
bound each test enforces itself (CI has no pytest-timeout), and leaves no
descriptor open; a collective on a closed communicator names its rank.

Transport-specific safety lives next to the transport: frame rejection, the
rendezvous join and the CLI fault table in test_cluster.py, a killed forked
rank's children and descriptors in test_multiprocess.py.
"""
from __future__ import annotations

import dataclasses
import functools
import multiprocessing as mp
import os
import threading
import time
import traceback

import numpy as np
import pytest

from repro.parallel import start_process_ranks, start_thread_ranks
from repro.parallel.cluster import MeshTransport
from repro.parallel.comm import Comm, SoloTransport
from repro.parallel.rendezvous import RendezvousCoordinator
from tests.conftest import run_ranks

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


def _launch_thread(size, fn, timeout=2 * BOUND_S):
    return run_ranks(start_thread_ranks, size, fn, timeout)


def _launch_process(size, fn, timeout=2 * BOUND_S):
    return run_ranks(start_process_ranks, size, fn, timeout)


def _launch_mesh(size, fn, timeout=2 * BOUND_S):
    coord = RendezvousCoordinator(world_size=size)
    host, port = coord.start()
    try:
        results = _run_threads_with(
            lambda rank: Comm(MeshTransport(size, f"{host}:{port}", rank=rank,
                                            join_timeout=10.0,
                                            collective_timeout=timeout)),
            size, fn,
            on_error=lambda comm, rank, exc: comm.transport.abort(repr(exc)),
        )
        # Every member was welcomed.
        assert coord.wait(timeout=BOUND_S) == "completed"
        return results
    finally:
        coord.stop()


LAUNCHERS = {
    "solo": _launch_solo,
    "thread": _launch_thread,
    "process": _launch_process,
    "mesh": _launch_mesh,
}
# Every multi-rank transport detects a misbehaving peer itself.
MULTI_RANK = [name for name in LAUNCHERS if name != "solo"]


def _bounded(call):
    """Run ``call()`` on a watchdog thread; fail instead of hanging.

    Returns ``{"value": ...}``, or ``{"error": exc, "traceback": text}`` when
    ``call`` raised — the text (type, message, traceback) is what an
    assertion about the box should print.
    """
    box: dict = {}

    def target():
        try:
            box["value"] = call()
        except BaseException as exc:  # noqa: BLE001 - reported by the asserts
            box["error"] = exc
            box["traceback"] = "".join(traceback.format_exception(exc))

    t = threading.Thread(target=target, daemon=True)
    t.start()
    t.join(timeout=BOUND_S)
    assert not t.is_alive(), f"still blocked after {BOUND_S}s"
    return box


def _open_fds() -> list[str]:
    return sorted(os.listdir("/proc/self/fd"))


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
    scalars = comm.allgather_ndarray(np.array(rank))
    empty = comm.allgather_ndarray(np.zeros(0))
    reduced = comm.allreduce_ndarray(_payload(rank), channel="g")
    unchanneled = comm.allreduce_ndarray(np.array([1.0, rank]))
    return {
        "rank": rank,
        "gathered": gathered,
        "blobs": blobs,
        "scalars": scalars,
        "empty": empty,
        "reduced": reduced,
        "unchanneled": unchanneled,
        "stats": dataclasses.asdict(comm.stats),
    }


def _matrix():
    for name in LAUNCHERS:
        for size in ((1,) if name == "solo" else (1, 2, 3, 4)):
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
            assert [part.shape for part in out["scalars"]] == [()] * size
            assert [int(part) for part in out["scalars"]] == list(range(size))
            assert [part.shape for part in out["empty"]] == [(0,)] * size
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
        assert stats["allgather_bytes"] == (140 + 8) * n2
        assert stats["allgather_wire_bytes"] == (50 + 8) * n2
        assert stats["allreduce_bytes"] == (512 + 16) * size
        assert stats["allreduce_wire_bytes"] == (512 + 16) * size
        assert stats["calls"] == {"allgather": 4, "allreduce": 2}

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
        """What ``allgather_ndarray`` hands out stays valid across later
        collectives: no transport may reuse a buffer it returned."""
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
        assert "error" not in box, box["traceback"]
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

        before = _open_fds()
        box = _bounded(lambda: LAUNCHERS[name](2, fn))
        assert "error" not in box, box["traceback"]
        assert box["value"][0] == ("left early", "")
        kind, message = box["value"][1]
        assert kind == "CommAbortError", (kind, message)
        assert "rank 0" in message
        assert _open_fds() == before

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

        before = _open_fds()
        box = _bounded(lambda: LAUNCHERS[name](2, fn))
        assert isinstance(box.get("error"), (ValueError, RuntimeError)), \
            box.get("traceback", box)
        assert "rank 1" in str(box["error"]) or "boom" in str(box["error"])
        kind, _, message = marker.read_text().partition(":")
        assert kind == "CommAbortError"
        assert "rank 1" in message
        assert _open_fds() == before

    @pytest.mark.parametrize("name", MULTI_RANK)
    def test_collective_timeout_names_op_and_seq(self, name):
        """``timeout`` bounds a rank's wait for a peer that is alive but
        never communicates: the waiter names the peer, the op and the seq,
        not a departed rank."""
        release = mp.get_context("fork").Event()  # seen by threads and forks

        def fn(comm):
            if comm.Get_rank() == 1:
                release.wait(BOUND_S)  # wedged: alive, never communicates
                return None
            t0 = time.monotonic()
            try:
                comm.allreduce_ndarray(np.ones(4))
            except Exception as exc:  # noqa: BLE001 - shipped to the assert
                return type(exc).__name__, str(exc), time.monotonic() - t0
            finally:
                release.set()
            return "completed", "", 0.0

        box = _bounded(lambda: LAUNCHERS[name](2, fn, timeout=0.3))
        assert "error" not in box, box["traceback"]
        kind, message, waited = box["value"][0]
        assert kind == "CommAbortError", (kind, message)
        assert ("timed out after 0.3s waiting for rank 1 in "
                "allreduce_ndarray (seq 0)") in message
        assert waited < 10 * 0.3

    @pytest.mark.parametrize("name", MULTI_RANK)
    def test_collective_on_a_closed_comm_names_the_rank(self, name):
        def fn(comm):
            comm.close()
            comm.close()  # idempotent; the launcher closes it once more
            try:
                comm.allreduce_ndarray(np.ones(2))
            except Exception as exc:  # noqa: BLE001 - shipped to the assert
                return isinstance(exc, RuntimeError), str(exc)
            return False, "completed"

        box = _bounded(lambda: LAUNCHERS[name](2, fn))
        assert "error" not in box, box["traceback"]
        for rank, (is_runtime_error, message) in enumerate(box["value"]):
            assert is_runtime_error, message
            assert f"rank {rank}: communicator is closed" in message

    def test_spec_collective_timeout_reaches_the_process_backend(self):
        from repro.api import RunSpec
        from repro.api.driver import materialize_backend

        spec = RunSpec.from_dict({
            "name": "t", "problem": {"molecule": "H2", "basis": "sto-3g"},
            "parallel": {"backend": "process", "n_ranks": 2,
                         "collective_timeout_s": 7.0},
        })
        assert materialize_backend(spec).collective_timeout_s == 7.0
