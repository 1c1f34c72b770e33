"""The one-host launchers and the lifecycle of thread and process ranks.

``start_thread_ranks`` / ``start_process_ranks`` start ranks 1..N_p-1 once
and hand the caller rank 0's communicator; ``ThreadBackend`` and
``ProcessBackend`` keep those ranks for a run.  The lifecycle gates, on
both launchers: nothing (child process, rank thread, descriptor) outlives
``close()``, a step that raised, or a parent that exits without closing; a
follower killed between steps is named by the next step within the
collective timeout; a move of theta or the optimizer state on rank 0 is one
counted broadcast, after which the run equals a fresh backend started from
that state; a process backend forks N_p - 1 times in its lifetime.
"""
import os
import signal
import subprocess
import sys
import textwrap
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro.core import VMC, NoamAdamW, VMCConfig, build_qiankunnet
from repro.core.engine import ProcessBackend, ThreadBackend
from repro.parallel import CommAbortError, start_process_ranks, start_thread_ranks
from repro.parallel.rendezvous import FRAME_BLOB, build_frame
from tests.conftest import child_pids, run_ranks

# Forking and the subprocess tests are slow on constrained runners, so the
# whole module sits behind the slow marker.
pytestmark = pytest.mark.slow

# Generous for loaded 1-2 core runners; a hang is what the bound catches.
BOUND_S = 30.0

BACKENDS = {"threads": ThreadBackend, "process": ProcessBackend}


def _sync(comm) -> None:
    """A zero-byte allgather: the barrier idiom of the two-collective Comm."""
    comm.allgather_ndarray(np.zeros(0))


def _open_fds() -> list[str]:
    return sorted(os.listdir("/proc/self/fd"))


def _rank_threads() -> list[str]:
    return [t.name for t in threading.enumerate() if t.name.startswith("rank-")]


class TestTypedCollectives:
    def test_allgather_ndarray_roundtrip(self):
        def fn(comm):
            arr = np.arange(5, dtype=np.float64) + 10 * comm.Get_rank()
            return comm.allgather_ndarray(arr, channel="t"), comm.stats

        for parts, stats in run_ranks(start_process_ranks, 2, fn):
            np.testing.assert_array_equal(parts[0], np.arange(5.0))
            np.testing.assert_array_equal(parts[1], np.arange(5.0) + 10)
            assert stats.channels["t"]["logical"] == 5 * 8 * 2 * 2

    def test_allreduce_ndarray_matches_rank_ordered_sum(self):
        def fn(comm):
            arr = np.arange(6, dtype=np.float64) * (comm.Get_rank() + 1)
            return comm.allreduce_ndarray(arr, channel="g")

        expected = np.arange(6, dtype=np.float64) * 6
        for r in run_ranks(start_process_ranks, 3, fn):
            np.testing.assert_array_equal(r, expected)

    def test_allgather_blob_accounts_logical_vs_wire(self):
        def fn(comm):
            blob = bytes([comm.Get_rank()]) * 10
            return comm.allgather_blob(blob, logical_bytes=100, channel="z"), comm.stats

        (parts, stats), _ = run_ranks(start_process_ranks, 2, fn)
        assert parts == [b"\x00" * 10, b"\x01" * 10]
        assert stats.channels["z"]["logical"] == 100 * 2 * 2
        assert stats.channels["z"]["wire"] == 10 * 2 * 2


class TestKilledRank:
    def test_killed_rank_poisons_the_survivor_and_leaves_nothing(self, tmp_path):
        """A rank killed halfway through writing its frame: rank 0 raises
        CommAbortError naming it within BOUND_S, and the launch leaves no
        child and no open descriptor in the parent."""
        def fn(comm):
            comm.allreduce_ndarray(np.ones(8))  # every rank in step
            if comm.Get_rank() == 1:
                frame = build_frame(FRAME_BLOB, {}, b"x" * 100)
                comm.transport._peers[0].sendall(frame[:-10])
                os._exit(1)
            # Larger than the socket buffers: the send to the dead rank
            # fails too, and must not hang either.
            comm.allreduce_ndarray(np.ones(300_000))

        children, before = child_pids(), _open_fds()
        t0 = time.monotonic()
        with pytest.raises(CommAbortError, match="rank 1 left the collective"):
            run_ranks(start_process_ranks, 2, fn, timeout=2 * BOUND_S)
        assert time.monotonic() - t0 < BOUND_S
        assert child_pids() == children
        assert _open_fds() == before


class TestLauncherStop:
    def test_stop_kills_wedged_followers_after_one_join_timeout(self):
        """However many followers are wedged, ``stop`` gives them one
        ``join_timeout`` in all, then kills and reaps them."""
        def fn(comm):
            if comm.Get_rank():
                time.sleep(60)

        children = child_pids()
        t0 = time.perf_counter()
        with pytest.raises(RuntimeError, match="died without a result"):
            run_ranks(start_process_ranks, 3, fn, timeout=2.0, join_timeout=0.2)
        assert time.perf_counter() - t0 < 2.0
        assert child_pids() == children


class TestProcessSemantics:
    def test_rank_state_is_private(self):
        """Writes to captured objects must NOT propagate across process ranks:
        rank 0 is the caller, each fork increments its own copy."""
        shared = {"value": 0}

        def fn(comm):
            shared["value"] += 1  # fork: copy-on-write, stays rank-local
            _sync(comm)
            return shared["value"]

        assert run_ranks(start_process_ranks, 3, fn) == [1, 1, 1]
        assert shared["value"] == 1  # rank 0's own increment only

    def test_poison_surfaces_as_comm_abort_error(self, tmp_path):
        """The survivor observes the poison as CommAbortError naming the
        dead rank — the abort surface shared with the cluster transport."""
        marker = tmp_path / "survivor.txt"

        def fn(comm):
            if comm.Get_rank() == 1:
                raise ValueError("boom")
            try:
                _sync(comm)
            except Exception as exc:  # noqa: BLE001 - recorded for the assert
                marker.write_text(f"{type(exc).__name__}:{exc}")
                raise

        with pytest.raises(RuntimeError, match="rank 1"):
            run_ranks(start_process_ranks, 2, fn, timeout=120)
        name, _, message = marker.read_text().partition(":")
        assert name == "CommAbortError"
        assert isinstance(CommAbortError(""), RuntimeError)
        assert "rank 1" in message

    def test_single_rank_forks_nothing(self, monkeypatch):
        monkeypatch.setattr(os, "fork", None)
        assert run_ranks(start_process_ranks, 1,
                         lambda comm: comm.allgather_blob(b"x")) == [[b"x"]]

    def test_gil_bound_work_scales_better_than_threads(self):
        """Pure-Python rank work: process ranks beat GIL-bound thread ranks.

        Comparing the two launchers on the *same* workload under the same
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
        run_ranks(start_process_ranks, 2, busy)
        wall_procs = time.perf_counter() - t0

        t0 = time.perf_counter()
        run_ranks(start_thread_ranks, 2, busy)
        wall_threads = time.perf_counter() - t0

        # Thread ranks serialize on the GIL (~2x the single-rank time);
        # process ranks overlap. Allow slack for the fork.
        assert wall_procs < wall_threads * 0.85 + 0.3


# ------------------------------------------------------------------ lifecycle
def _vmc(problem, backend):
    wf = build_qiankunnet(4, 1, 1, d_model=8, n_heads=2, n_layers=1,
                          phase_hidden=(8,), seed=7)
    return VMC(wf, problem.hamiltonian,
               VMCConfig(n_samples=800, eloc_mode="exact", seed=3),
               backend=backend, optimizer=NoamAdamW(wf, warmup=50))


def _backend(name, n_ranks=2):
    return BACKENDS[name](n_ranks=n_ranks, nu_star_per_rank=4,
                          collective_timeout_s=BOUND_S)


@pytest.mark.parametrize("name", list(BACKENDS))
class TestRankLifecycle:
    def test_nothing_outlives_close(self, h2_problem, name):
        vmc = _vmc(h2_problem, _backend(name, 3))
        children, fds = child_pids(), _open_fds()
        vmc.run(3)
        vmc.backend.close()
        vmc.backend.close()  # idempotent
        assert child_pids() == children
        assert _rank_threads() == []
        assert _open_fds() == fds

    def test_nothing_outlives_a_step_that_raised(self, h2_problem, name, monkeypatch):
        """Rank 0 raises in stage 5 while the others are inside the step:
        the step re-raises, the launch is torn down, and the next step
        starts the ranks again."""
        from repro.core import engine

        vmc = _vmc(h2_problem, _backend(name))
        children, fds = child_pids(), _open_fds()
        vmc.step()
        real, parent = engine.stage_backward, os.getpid()

        def failing(*args, **kwargs):
            if os.getpid() == parent and threading.current_thread() is threading.main_thread():
                raise ValueError("rank 0 fails in stage 5")
            return real(*args, **kwargs)

        monkeypatch.setattr(engine, "stage_backward", failing)
        with pytest.raises(ValueError, match="rank 0 fails"):
            vmc.step()
        assert child_pids() == children
        assert _rank_threads() == []
        assert _open_fds() == fds
        monkeypatch.setattr(engine, "stage_backward", real)
        assert vmc.step().iteration == 2
        vmc.backend.close()

    def test_a_killed_follower_is_named_by_the_next_step(self, h2_problem, name,
                                                         monkeypatch):
        from repro.core import engine

        vmc = _vmc(h2_problem, _backend(name))
        if name == "threads":
            # A thread cannot be killed: its loop ends right after step 1,
            # dropping its sockets as a dead process's would be.
            real = engine._spmd_iteration

            def once(rank, comm, *args):
                out = real(rank, comm, *args)
                if comm.Get_rank():
                    comm.transport.abort("killed")
                    raise CommAbortError("killed")
                return out

            monkeypatch.setattr(engine, "_spmd_iteration", once)
            vmc.step()
        else:
            children = child_pids()
            vmc.step()
            (pid,) = child_pids() - children
            os.kill(pid, signal.SIGKILL)
        t0 = time.monotonic()
        with pytest.raises(CommAbortError, match="rank 1"):
            vmc.step()
        assert time.monotonic() - t0 < BOUND_S
        assert _rank_threads() == []

    @pytest.mark.parametrize("move", ["load_checkpoint", "set_flat_params"])
    def test_a_move_on_rank_0_is_one_counted_broadcast(self, h2_problem, name,
                                                       move, tmp_path):
        from repro.core import load_checkpoint, save_checkpoint

        path = tmp_path / "ck.npz"
        vmc = _vmc(h2_problem, _backend(name))
        if move == "load_checkpoint":
            other = _vmc(h2_problem, _backend(name))
            other.step()
            save_checkpoint(other, path)
            other.backend.close()
            vmc.run(2)
            load_checkpoint(vmc, path)
        else:
            vmc.run(2)
            theta = vmc.wf.get_flat_params()
            vmc.wf.set_flat_params(theta + 1e-3 * np.cos(np.arange(theta.size)))
            save_checkpoint(vmc, path)
        fresh = _vmc(h2_problem, _backend(name))
        load_checkpoint(fresh, path)
        moved = [vmc.step() for _ in range(2)]
        want = [fresh.step() for _ in range(2)]
        n_params = vmc.wf.num_parameters()
        resync = (2 + 3 * n_params) * 8 * 2   # [t, sched_i, theta, m, v] x N_p
        for got, ref, extra in zip(moved, want, (resync, 0)):
            assert (got.energy, got.variance, got.n_unique, got.per_rank_unique) \
                == (ref.energy, ref.variance, ref.n_unique, ref.per_rank_unique)
            assert got.comm_bytes == ref.comm_bytes + extra
            assert got.comm_bytes_wire == ref.comm_bytes_wire + extra
        assert vmc.backend.last_comm_stats.channels.get("resync") is None
        np.testing.assert_array_equal(vmc.wf.get_flat_params(),
                                      fresh.wf.get_flat_params())
        vmc.backend.close()
        fresh.backend.close()


def test_a_process_backend_forks_n_ranks_minus_one_times(h2_problem, monkeypatch):
    forks, real = [], os.fork

    def counting():
        pid = real()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting)
    vmc = _vmc(h2_problem, _backend("process", 3))
    vmc.run(4)
    vmc.backend.close()
    assert len(forks) == 2


_EXIT_WITHOUT_CLOSE = textwrap.dedent("""
    import os, sys
    from repro.chem import build_problem
    from repro.core import VMC, NoamAdamW, VMCConfig, build_qiankunnet
    from repro.core.engine import {cls}
    wf = build_qiankunnet(4, 1, 1, d_model=8, n_heads=2, n_layers=1,
                          phase_hidden=(8,), seed=7)
    vmc = VMC(wf, build_problem("H2", "sto-3g", r=0.7414).hamiltonian,
              VMCConfig(n_samples=800, seed=3),
              backend={cls}(n_ranks=3, nu_star_per_rank=4),
              optimizer=NoamAdamW(wf, warmup=50))
    vmc.run(2)
    while True:  # a collective's sender threads come and go: retry until
        try:     # one listing of the tasks reads through
            tasks = os.listdir("/proc/self/task")
            kids = set()
            for t in tasks:
                kids.update(open(f"/proc/self/task/{{t}}/children").read().split())
            break
        except FileNotFoundError:
            continue
    print(len(tasks), " ".join(sorted(kids)), flush=True)
    {how}
""")


def _gone(pid: str) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()[0] == "Z"
    except FileNotFoundError:
        return True


@pytest.mark.parametrize("how", ["sys.exit(0)", "os._exit(0)"])
@pytest.mark.parametrize("name", list(BACKENDS))
def test_a_parent_that_exits_without_close_leaves_no_rank(name, how):
    """The interpreter's exit, clean or abrupt, ends every rank: a follower
    waiting for the next header sees rank 0's EOF and exits."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")]))
    script = _EXIT_WITHOUT_CLOSE.format(cls=BACKENDS[name].__name__, how=how)
    t0 = time.monotonic()
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=env, timeout=2 * BOUND_S)
    assert proc.returncode == 0, proc.stderr
    n_tasks, *kids = proc.stdout.split()
    # Threads: the interpreter's main thread and the two followers.
    assert len(kids) == (2 if name == "process" else 0)
    assert int(n_tasks) >= (3 if name == "threads" else 1)
    while not all(map(_gone, kids)):
        assert time.monotonic() - t0 < BOUND_S, f"ranks {kids} still alive"
        time.sleep(0.05)
