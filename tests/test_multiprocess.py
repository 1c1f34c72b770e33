"""Tests for the process-backed SPMD executor."""
import multiprocessing as mp
import os
import time

import numpy as np
import pytest

from repro.parallel import CommAbortError, run_spmd, run_spmd_processes
from repro.parallel.rendezvous import FRAME_BLOB, build_frame

# Process spawning is slow (and barrier-timeout recovery takes minutes on
# constrained runners), so the whole module sits behind the slow marker.
pytestmark = pytest.mark.slow

# Generous for loaded 1-2 core runners; a hang is what the bound catches.
BOUND_S = 30.0


def _sync(comm) -> None:
    """A zero-byte allgather: the barrier idiom of the two-collective Comm."""
    comm.allgather_ndarray(np.zeros(0))


class TestTypedCollectives:
    def test_allgather_ndarray_roundtrip(self):
        def fn(comm):
            arr = np.arange(5, dtype=np.float64) + 10 * comm.Get_rank()
            return comm.allgather_ndarray(arr, channel="t")

        results, stats = run_spmd_processes(2, fn)
        for parts in results:
            np.testing.assert_array_equal(parts[0], np.arange(5.0))
            np.testing.assert_array_equal(parts[1], np.arange(5.0) + 10)
        assert stats.channels["t"]["logical"] == 5 * 8 * 2 * 2

    def test_allreduce_ndarray_matches_rank_ordered_sum(self):
        def fn(comm):
            arr = np.arange(6, dtype=np.float64) * (comm.Get_rank() + 1)
            return comm.allreduce_ndarray(arr, channel="g")

        results, _ = run_spmd_processes(3, fn)
        expected = np.arange(6, dtype=np.float64) * 6
        for r in results:
            np.testing.assert_array_equal(r, expected)

    def test_allgather_blob_accounts_logical_vs_wire(self):
        def fn(comm):
            blob = bytes([comm.Get_rank()]) * 10
            out = comm.allgather_blob(blob, logical_bytes=100, channel="z")
            return out

        results, stats = run_spmd_processes(2, fn)
        assert results[0] == [b"\x00" * 10, b"\x01" * 10]
        assert stats.channels["z"]["logical"] == 100 * 2 * 2
        assert stats.channels["z"]["wire"] == 10 * 2 * 2


def _open_fds() -> list[str]:
    return sorted(os.listdir("/proc/self/fd"))


class TestKilledRank:
    def test_killed_rank_poisons_the_survivor_and_leaves_nothing(self, tmp_path):
        """A rank killed halfway through writing its frame: the survivor
        raises CommAbortError naming it within BOUND_S, and the launch
        leaves no live child and no open descriptor in the parent."""
        marker = tmp_path / "survivor.txt"

        def fn(comm):
            comm.allreduce_ndarray(np.ones(8))  # every rank in step
            if comm.Get_rank() == 1:
                frame = build_frame(FRAME_BLOB, {}, b"x" * 100)
                comm.transport._peers[0].sendall(frame[:-10])
                os._exit(1)
            try:
                # Larger than the socket buffers: the send to the dead rank
                # fails too, and must not hang either.
                comm.allreduce_ndarray(np.ones(300_000))
            except Exception as exc:  # noqa: BLE001 - recorded for the assert
                marker.write_text(f"{type(exc).__name__}:{exc}")
                raise

        before = _open_fds()
        t0 = time.monotonic()
        with pytest.raises(RuntimeError, match="rank 1"):
            run_spmd_processes(2, fn, timeout=2 * BOUND_S)
        assert time.monotonic() - t0 < BOUND_S
        kind, _, message = marker.read_text().partition(":")
        assert kind == "CommAbortError", message
        assert "rank 1 left the collective" in message
        assert mp.active_children() == []
        assert _open_fds() == before


class TestLauncherDeadline:
    def test_wedged_ranks_share_one_deadline(self):
        """However many ranks are wedged, the launcher raises after one
        ``timeout`` plus two ``join_timeout``, not N_p of each."""
        def fn(comm):
            time.sleep(60)

        timeout = 2.0
        t0 = time.perf_counter()
        with pytest.raises(RuntimeError, match="timed out"):
            run_spmd_processes(3, fn, timeout=timeout, join_timeout=0.2)
        assert time.perf_counter() - t0 < 2 * timeout


class TestProcessSemantics:
    def test_rank_state_is_private(self):
        """Writes to captured objects must NOT propagate across process ranks."""
        shared = {"value": 0}

        def fn(comm):
            shared["value"] += 1  # fork: copy-on-write, stays rank-local
            _sync(comm)
            return shared["value"]

        results, _ = run_spmd_processes(3, fn)
        assert results == [1, 1, 1]
        assert shared["value"] == 0  # parent copy untouched

    def test_poison_surfaces_as_comm_abort_error(self, tmp_path):
        """Survivors observe the poison as CommAbortError naming the dead
        rank — the abort surface shared with the cluster transport."""
        marker = tmp_path / "survivor.txt"

        def fn(comm):
            if comm.Get_rank() == 1:
                raise ValueError("boom")
            try:
                _sync(comm)
            except Exception as exc:  # noqa: BLE001 - recorded for the assert
                marker.write_text(f"{type(exc).__name__}:{exc}")
                raise
            return None

        with pytest.raises(RuntimeError, match="rank 1"):
            run_spmd_processes(2, fn, timeout=120)
        name, _, message = marker.read_text().partition(":")
        assert name == "CommAbortError"
        assert isinstance(CommAbortError(""), RuntimeError)
        assert "rank 1" in message

    def test_exception_reraised_with_rank(self):
        def fn(comm):
            if comm.Get_rank() == 1:
                raise ValueError("boom")
            _sync(comm)  # never completes; the relay must not deadlock
            return None

        with pytest.raises(RuntimeError, match="rank 1"):
            run_spmd_processes(2, fn, timeout=120)

    def test_results_are_pickled_back(self):
        def fn(comm):
            return {"rank": comm.Get_rank(), "data": np.ones(3) * comm.Get_size()}

        results, _ = run_spmd_processes(2, fn)
        for r, res in enumerate(results):
            assert res["rank"] == r
            np.testing.assert_allclose(res["data"], 2.0)

    def test_single_rank(self):
        results, stats = run_spmd_processes(
            1, lambda comm: comm.allgather_blob(b"x"))
        assert results == [[b"x"]]

    def test_gil_bound_work_scales_better_than_threads(self):
        """Pure-Python rank work: process ranks beat GIL-bound thread ranks.

        Comparing the two backends on the *same* workload under the same
        machine load is robust where an absolute-time bound would flake.
        """
        if os.cpu_count() < 2:
            pytest.skip("needs 2 cores")

        def busy(comm):
            acc = 0
            for i in range(4_000_000):
                acc += i & 7
            _sync(comm)
            return acc

        t0 = time.perf_counter()
        run_spmd_processes(2, busy)
        wall_procs = time.perf_counter() - t0

        t0 = time.perf_counter()
        run_spmd(2, busy)
        wall_threads = time.perf_counter() - t0

        # Thread ranks serialize on the GIL (~2x the single-rank time);
        # process ranks overlap. Allow slack for fork + pickle overhead.
        assert wall_procs < wall_threads * 0.85 + 0.3
