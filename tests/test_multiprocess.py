"""Tests for the process-backed SPMD executor."""
import os
import time
from pathlib import Path

import numpy as np
import pytest

from repro.parallel import CommAbortError, run_spmd, run_spmd_processes

# Process spawning is slow (and barrier-timeout recovery takes minutes on
# constrained runners), so the whole module sits behind the slow marker.
pytestmark = pytest.mark.slow


def _sync(comm) -> None:
    """A zero-byte allgather: the barrier idiom of the two-collective Comm."""
    comm.allgather_ndarray(np.zeros(0))


def _leaked_segments() -> list[str]:
    """Names of any live shared-memory segments this executor created."""
    return [p.name for p in Path("/dev/shm").glob("reprocomm-*")]


class TestCollectives:
    def test_allgather_rank_order(self):
        def fn(comm):
            parts = comm.allgather_ndarray(np.array(comm.Get_rank() * 10))
            return [int(p) for p in parts]

        results, stats = run_spmd_processes(3, fn)
        assert results == [[0, 10, 20]] * 3
        assert stats.calls["allgather"] == 1

    def test_allreduce_sum_matches_numpy(self):
        def fn(comm):
            rank = comm.Get_rank()
            return comm.allreduce_ndarray(
                np.arange(4, dtype=np.float64) * (rank + 1))

        results, _ = run_spmd_processes(4, fn)
        expected = np.arange(4, dtype=np.float64) * (1 + 2 + 3 + 4)
        for r in results:
            np.testing.assert_allclose(r, expected)

    def test_collective_sequence(self):
        def fn(comm):
            a = comm.allreduce_ndarray(np.array([1.0]))
            _sync(comm)
            b = comm.allgather_ndarray(np.array(comm.Get_rank()))
            return (a[0], tuple(int(x) for x in b))

        results, stats = run_spmd_processes(2, fn)
        assert results == [(2.0, (0, 1))] * 2
        assert stats.calls == {"allgather": 2, "allreduce": 1}

    def test_byte_accounting_matches_thread_backend(self):
        def fn(comm):
            comm.allgather_ndarray(np.zeros(10))
            comm.allreduce_ndarray(np.zeros(5))
            return None

        _, s_proc = run_spmd_processes(2, fn)
        _, s_thread = run_spmd(2, fn)
        assert s_proc.allgather_bytes == s_thread.allgather_bytes
        assert s_proc.allreduce_bytes == s_thread.allreduce_bytes


class TestTypedCollectives:
    @pytest.mark.parametrize("use_shm", [True, False])
    def test_allgather_ndarray_roundtrip(self, use_shm):
        def fn(comm):
            arr = np.arange(5, dtype=np.float64) + 10 * comm.Get_rank()
            return comm.allgather_ndarray(arr, channel="t")

        # threshold=0 forces every array through the shm path when enabled
        results, stats = run_spmd_processes(2, fn, use_shm=use_shm,
                                            shm_threshold=0)
        for parts in results:
            np.testing.assert_array_equal(parts[0], np.arange(5.0))
            np.testing.assert_array_equal(parts[1], np.arange(5.0) + 10)
        assert stats.channels["t"]["logical"] == 5 * 8 * 2 * 2
        assert _leaked_segments() == []

    @pytest.mark.parametrize("use_shm", [True, False])
    def test_allreduce_ndarray_matches_rank_ordered_sum(self, use_shm):
        def fn(comm):
            arr = np.arange(6, dtype=np.float64) * (comm.Get_rank() + 1)
            return comm.allreduce_ndarray(arr, channel="g")

        results, _ = run_spmd_processes(3, fn, use_shm=use_shm,
                                        shm_threshold=0)
        expected = np.arange(6, dtype=np.float64) * 6
        for r in results:
            np.testing.assert_array_equal(r, expected)
        assert _leaked_segments() == []

    def test_shm_and_pipe_paths_bit_identical(self):
        def fn(comm):
            arr = (np.arange(100, dtype=np.float64) + 1) / (comm.Get_rank() + 3)
            gathered = comm.allgather_ndarray(arr)
            reduced = comm.allreduce_ndarray(arr)
            return np.concatenate(gathered + [reduced])

        via_shm, _ = run_spmd_processes(2, fn, use_shm=True, shm_threshold=0)
        via_pipe, _ = run_spmd_processes(2, fn, use_shm=False)
        via_threads, _ = run_spmd(2, fn)
        for a, b, c in zip(via_shm, via_pipe, via_threads):
            np.testing.assert_array_equal(a, b)
            np.testing.assert_array_equal(a, c)

    def test_shm_exchange_lends_segment_views_not_copies(self):
        """Peers' large arrays come back as views into their segments (valid
        until the next exchange), so an allreduce sums in place and never
        holds N_p private copies of the gradient."""
        def fn(comm):
            rank = comm.Get_rank()
            pairs = comm.transport.exchange(
                ("probe", 0), np.full(1000, float(rank)))
            own, peer = pairs[rank][1], pairs[1 - rank][1]
            return own.flags.owndata, peer.flags.owndata, float(peer.sum())

        results, _ = run_spmd_processes(2, fn, use_shm=True, shm_threshold=0)
        assert results == [(True, False, 1000.0), (True, False, 0.0)]
        assert _leaked_segments() == []

    def test_allgather_blob_accounts_logical_vs_wire(self):
        def fn(comm):
            blob = bytes([comm.Get_rank()]) * 10
            out = comm.allgather_blob(blob, logical_bytes=100, channel="z")
            return out

        results, stats = run_spmd_processes(2, fn)
        assert results[0] == [b"\x00" * 10, b"\x01" * 10]
        assert stats.channels["z"]["logical"] == 100 * 2 * 2
        assert stats.channels["z"]["wire"] == 10 * 2 * 2


class TestShmCleanup:
    def test_crash_mid_collective_leaks_no_segments(self):
        """A rank dying after posting a segment must not leak /dev/shm."""

        def fn(comm):
            big = np.ones(70_000, dtype=np.float64) * comm.Get_rank()
            if comm.Get_rank() == 1:
                # the segment exists, the collective never completes
                comm.transport._post_segment(big)
                os._exit(1)
            comm.allgather_ndarray(big)
            return None

        with pytest.raises(RuntimeError, match="rank 1"):
            run_spmd_processes(2, fn, timeout=120, use_shm=True)
        assert _leaked_segments() == []

    def test_abort_poisons_stragglers_without_hanging(self):
        """When one rank dies, surviving ranks get an abort, not a hang."""

        def fn(comm):
            if comm.Get_rank() == 0:
                os._exit(1)
            comm.allreduce_ndarray(np.ones(100_000))  # must not block forever
            return None

        t0 = time.perf_counter()
        with pytest.raises(RuntimeError, match="rank 0"):
            run_spmd_processes(2, fn, timeout=120, use_shm=True)
        assert time.perf_counter() - t0 < 60
        assert _leaked_segments() == []

    def test_clean_run_unlinks_every_segment(self):
        def fn(comm):
            for _ in range(3):
                comm.allgather_ndarray(np.ones(70_000))
                comm.allreduce_ndarray(np.ones(70_000))
            return None

        run_spmd_processes(2, fn, use_shm=True)
        assert _leaked_segments() == []


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
