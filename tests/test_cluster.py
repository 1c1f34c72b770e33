"""Tests for the multi-host cluster transport (frames, rendezvous, comm).

Cluster ranks run here as localhost threads — each joins through a real
coordinator and owns a real TCP mesh socket set — and, for the fault table,
as CLI processes, so everything short of the physical network is exercised:
the framed wire protocol, rendezvous rank assignment, dead and silent peers
named on the mesh, and the SPMD bit-identity contract against the thread
backend.
"""
from __future__ import annotations

import os
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro.core import VMC, NoamAdamW, VMCConfig, build_qiankunnet
from repro.core.engine import ThreadBackend
from repro.parallel.cluster import ClusterBackend, MeshTransport
from repro.parallel.comm import Comm, CommAbortError
from repro.parallel.rendezvous import (
    FRAME_ARRAY,
    FRAME_BLOB,
    FRAME_CTRL,
    MAGIC,
    PROTOCOL_VERSION,
    ClusterProtocolError,
    RendezvousCoordinator,
    build_frame,
    connect_with_retry,
    parse_addr,
    recv_frame,
    send_frame,
)
from tests.conftest import child_pids


@pytest.fixture(autouse=True)
def no_leaked_cluster_threads():
    """Every rendezvous / cluster helper thread a test starts is gone 2 s
    after the test ends."""
    before = set(threading.enumerate())
    yield
    deadline = time.monotonic() + 2.0
    while True:
        leaked = sorted(t.name for t in set(threading.enumerate()) - before
                        if t.is_alive()
                        and t.name.startswith(("rendezvous-", "cluster-")))
        if not leaked or time.monotonic() > deadline:
            break
        time.sleep(0.05)
    assert not leaked, f"threads outlived the test: {leaked}"


def _sync(comm) -> None:
    """A zero-byte allgather: the barrier idiom of the two-collective Comm."""
    comm.allgather_ndarray(np.zeros(0))


def _start_coordinator(world_size: int, **kwargs):
    coord = RendezvousCoordinator(world_size=world_size, **kwargs)
    host, port = coord.start()
    return coord, f"{host}:{port}"


def _run_cluster(world_size: int, fn) -> list:
    """Run ``fn(comm)`` on ``world_size`` thread-hosted cluster ranks and
    return their results; exceptions from any rank are re-raised in the
    caller (first one wins, by rank order)."""
    coord, addr = _start_coordinator(world_size)
    results: list = [None] * world_size
    failures: list = []

    def run_rank(rank: int):
        comm = None
        try:
            comm = Comm(MeshTransport(world_size, addr, rank=rank,
                                      join_timeout=10.0))
            results[rank] = fn(comm)
        except BaseException as exc:  # noqa: BLE001 - re-raised below
            failures.append((rank, exc))
        finally:
            if comm is not None:
                comm.close()

    threads = [threading.Thread(target=run_rank, args=(r,), daemon=True)
               for r in range(world_size)]
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60.0)
    finally:
        coord.stop()
    if failures:
        failures.sort(key=lambda f: f[0])
        raise failures[0][1]
    return results


# --------------------------------------------------------------------- frames
class TestFrameProtocol:
    def _roundtrip(self, frame: bytes):
        a, b = socket.socketpair()
        try:
            a.sendall(frame)
            a.shutdown(socket.SHUT_WR)
            return recv_frame(b)
        finally:
            a.close()
            b.close()

    def test_ctrl_roundtrip(self):
        ftype, meta, raw = self._roundtrip(
            build_frame(FRAME_CTRL, {"kind": "hello", "wants_rank": 3})
        )
        assert ftype == FRAME_CTRL
        assert meta == {"kind": "hello", "wants_rank": 3}
        assert raw == b""

    def test_array_roundtrip_preserves_dtype_and_shape(self):
        arr = (np.arange(12, dtype=np.complex128) * (1 + 2j)).reshape(3, 4)
        meta = {"dtype": arr.dtype.str, "shape": list(arr.shape)}
        _, out, _ = self._roundtrip(
            build_frame(FRAME_ARRAY, meta, arr.tobytes())
        )
        np.testing.assert_array_equal(out["array"], arr)
        assert out["array"].dtype == arr.dtype

    @pytest.mark.parametrize("pad", range(8))
    def test_received_array_is_an_aligned_view(self, pad):
        """The array is read in place from the received body, not copied,
        and lands aligned whatever the meta's length."""
        arr = np.arange(5, dtype=np.complex128)
        meta = {"dtype": arr.dtype.str, "shape": [5], "pad": "x" * pad}
        _, out, _ = self._roundtrip(
            build_frame(FRAME_ARRAY, meta, arr.tobytes()))
        assert not out["array"].flags.owndata
        assert out["array"].flags.aligned
        np.testing.assert_array_equal(out["array"], arr)

    def test_blob_roundtrip(self):
        _, meta, raw = self._roundtrip(
            build_frame(FRAME_BLOB, {"logical": 99}, b"\x00\x01\x02")
        )
        assert meta["logical"] == 99
        assert raw == b"\x00\x01\x02"

    def test_bad_magic_rejected(self):
        frame = bytearray(build_frame(FRAME_CTRL, {"kind": "x"}))
        frame[0:2] = b"XX"
        with pytest.raises(ClusterProtocolError, match="magic"):
            self._roundtrip(bytes(frame))

    def test_version_mismatch_rejected_with_both_versions(self):
        frame = bytearray(build_frame(FRAME_CTRL, {"kind": "x"}))
        frame[2] = PROTOCOL_VERSION + 1
        with pytest.raises(ClusterProtocolError,
                           match="version mismatch.*v2.*v1"):
            self._roundtrip(bytes(frame))

    def test_array_payload_length_mismatch_rejected(self):
        # Declares a 10-element float64 array but ships only 8 bytes.
        frame = build_frame(FRAME_ARRAY,
                            {"dtype": "<f8", "shape": [10]}, b"\x00" * 8)
        with pytest.raises(ClusterProtocolError, match="80 bytes.*8 payload"):
            self._roundtrip(frame)

    def test_array_with_malformed_shape_rejected(self):
        frame = build_frame(FRAME_ARRAY,
                            {"dtype": "<f8", "shape": [-1]}, b"")
        with pytest.raises(ClusterProtocolError, match="shape"):
            self._roundtrip(frame)

    def test_array_with_bogus_dtype_rejected(self):
        frame = build_frame(FRAME_ARRAY,
                            {"dtype": "not-a-dtype", "shape": [1]}, b"")
        with pytest.raises(ClusterProtocolError, match="array meta"):
            self._roundtrip(frame)

    def test_array_with_object_dtype_rejected(self):
        frame = build_frame(FRAME_ARRAY,
                            {"dtype": "|O", "shape": [1]}, b"\x00" * 8)
        with pytest.raises(ClusterProtocolError, match="object dtype"):
            self._roundtrip(frame)

    def test_ctrl_with_raw_payload_rejected(self):
        # Hand-build the hybrid frame build_frame would refuse to produce.
        good = build_frame(FRAME_BLOB, {"kind": "x"}, b"smuggled")
        frame = bytearray(good)
        frame[3] = FRAME_CTRL
        with pytest.raises(ClusterProtocolError, match="no raw payload"):
            self._roundtrip(bytes(frame))

    def test_truncated_frame_raises_connection_error(self):
        frame = build_frame(FRAME_BLOB, {}, b"x" * 100)
        with pytest.raises(ConnectionError, match="unread"):
            self._roundtrip(frame[:-10])

    def test_non_dict_meta_rejected(self):
        import json
        import struct
        meta_blob = json.dumps([1, 2]).encode()
        body = struct.pack("!I", len(meta_blob)) + meta_blob
        frame = struct.pack("!2sBBI", MAGIC, PROTOCOL_VERSION, FRAME_BLOB,
                            len(body)) + body
        with pytest.raises(ClusterProtocolError, match="JSON object"):
            self._roundtrip(frame)

    def test_send_frame_returns_wire_bytes(self):
        a, b = socket.socketpair()
        try:
            n = send_frame(a, FRAME_BLOB, {"k": 1}, b"xyz")
            assert n == len(build_frame(FRAME_BLOB, {"k": 1}, b"xyz"))
        finally:
            a.close()
            b.close()

    def test_parse_addr(self):
        assert parse_addr("10.0.0.2:5001") == ("10.0.0.2", 5001)
        for bad in ("nocolon", ":5", "host:", "host:notaport", "host:99999"):
            with pytest.raises(ValueError, match="host:port|out of range"):
                parse_addr(bad)


# ----------------------------------------------------------------- rendezvous
class TestRendezvous:
    def test_ranks_autoassigned_and_clean_completion(self):
        coord, addr = _start_coordinator(2)
        seen = []

        def member():
            comm = Comm(MeshTransport(2, addr, join_timeout=10.0))
            seen.append(comm.Get_rank())
            _sync(comm)
            comm.close()

        threads = [threading.Thread(target=member) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30.0)
        assert coord.wait(timeout=5.0) == "completed"
        coord.stop()
        assert sorted(seen) == [0, 1]

    def test_wait_returns_once_every_member_is_welcomed(self):
        """The coordinator is done once the address book is out: ``wait()``
        says "completed" while the members still hold their mesh, its thread
        is gone, and the mesh runs without it."""
        coord, addr = _start_coordinator(2)
        coordinator_done = threading.Event()
        results: list = [None, None]

        def member(rank):
            comm = Comm(MeshTransport(2, addr, rank=rank, join_timeout=10.0))
            try:
                coordinator_done.wait(30.0)
                results[rank] = [int(r) for r in
                                 comm.allgather_ndarray(np.array(rank))]
            finally:
                comm.close()

        threads = [threading.Thread(target=member, args=(r,), daemon=True)
                   for r in range(2)]
        for t in threads:
            t.start()
        try:
            assert coord.wait(timeout=10.0) == "completed"
            coord.stop()
            assert not [t.name for t in threading.enumerate()
                        if t.name.startswith("rendezvous-")]
        finally:
            coordinator_done.set()
            for t in threads:
                t.join(timeout=30.0)
            coord.stop()
        assert results == [[0, 1], [0, 1]]

    def test_failed_mesh_join_closes_the_sockets_it_opened(self):
        """Rank 2 of 3 says hello and never dials: ranks 0 and 1 time out
        building the mesh, and while their exceptions are still held (their
        frames reference the half-built transports) no socket of theirs is
        open."""
        from tests.test_comm_contract import _open_fds

        before = _open_fds()
        coord, addr = _start_coordinator(3, join_timeout=10.0)
        silent = connect_with_retry(*parse_addr(addr), timeout=5.0)
        send_frame(silent, FRAME_CTRL, {"kind": "hello", "wants_rank": 2,
                                        "addr": "127.0.0.1:9",
                                        "world_size": 3})
        errors: list = [None, None]

        def member(rank):
            try:
                MeshTransport(3, addr, rank=rank, join_timeout=1.0)
            except Exception as exc:  # noqa: BLE001 - held for the assert
                errors[rank] = exc

        threads = [threading.Thread(target=member, args=(r,), daemon=True)
                   for r in range(2)]
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30.0)
            assert recv_frame(silent)[1]["kind"] == "welcome"
        finally:
            silent.close()
            coord.stop()
        assert [type(e) for e in errors] == [TimeoutError] * 2, errors
        assert _open_fds() == before
        assert coord.wait(timeout=0) == "completed"

    def test_members_retry_until_coordinator_appears(self):
        """Ranks launched before the coordinator must connect via backoff."""
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        addr = f"127.0.0.1:{port}"
        results: list = [None, None]

        def member(rank):
            comm = Comm(MeshTransport(2, addr, rank=rank, join_timeout=15.0))
            results[rank] = [
                int(r) for r in comm.allgather_ndarray(np.array(rank))]
            comm.close()

        threads = [threading.Thread(target=member, args=(r,), daemon=True)
                   for r in range(2)]
        for t in threads:
            t.start()
        time.sleep(0.5)  # members are already retrying against a dead port
        coord = RendezvousCoordinator(world_size=2, port=port)
        coord.start()
        for t in threads:
            t.join(timeout=30.0)
        assert results == [[0, 1], [0, 1]]
        assert coord.wait(timeout=5.0) == "completed"
        coord.stop()

    def test_connect_with_retry_times_out(self):
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        t0 = time.monotonic()
        with pytest.raises(TimeoutError, match="could not connect"):
            connect_with_retry("127.0.0.1", port, timeout=0.5)
        assert time.monotonic() - t0 < 5.0

    def test_join_timeout_aborts_partial_world(self):
        coord, addr = _start_coordinator(2, join_timeout=0.8)
        with pytest.raises((ConnectionError, ClusterProtocolError,
                            RuntimeError, TimeoutError)):
            MeshTransport(2, addr, join_timeout=10.0)  # lone member of a 2-world
        outcome = coord.wait(timeout=5.0)
        coord.stop()
        assert outcome is not None and "join timeout (1/2)" in outcome

    def test_world_size_mismatch_rejected(self):
        coord, addr = _start_coordinator(2, join_timeout=5.0)
        try:
            with pytest.raises(RuntimeError, match="world_size mismatch"):
                MeshTransport(3, addr, join_timeout=5.0)
        finally:
            coord.stop()

    def test_out_of_range_rank_request_rejected(self):
        coord, addr = _start_coordinator(2, join_timeout=5.0)
        try:
            with pytest.raises(RuntimeError,
                               match="rejected.*rank 7 outside world"):
                MeshTransport(2, addr, rank=7, join_timeout=5.0)
        finally:
            coord.stop()

    def test_duplicate_rank_claim_rejected(self):
        # Both members pin rank 0: one wins the claim (and later times out
        # waiting for the never-full world), the other is rejected cleanly.
        coord, addr = _start_coordinator(2, join_timeout=2.0)
        errors: list = []

        def claim_zero():
            try:
                MeshTransport(2, addr, rank=0, join_timeout=6.0).close()
            except Exception as exc:  # noqa: BLE001 - collected for assert
                errors.append(str(exc))

        threads = [threading.Thread(target=claim_zero, daemon=True)
                   for _ in range(2)]
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=15.0)
        finally:
            coord.stop()
        assert any("already claimed" in e for e in errors)

    def test_garbage_connection_does_not_disturb_the_job(self):
        coord, addr = _start_coordinator(2)
        host, port = parse_addr(addr)
        scanner = socket.create_connection((host, port))
        scanner.sendall(b"GET / HTTP/1.1\r\n\r\n")  # port scanner noise
        scanner.close()

        def fn(comm):
            return [int(r) for r in
                    comm.allgather_ndarray(np.array(comm.Get_rank()))]

        results: list = [None, None]

        def member(rank):
            comm = Comm(MeshTransport(2, addr, rank=rank, join_timeout=10.0))
            results[rank] = fn(comm)
            comm.close()

        threads = [threading.Thread(target=member, args=(r,), daemon=True)
                   for r in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30.0)
        assert results == [[0, 1], [0, 1]]
        assert coord.wait(timeout=5.0) == "completed"
        coord.stop()


# ----------------------------------------------------------- failure handling
class TestFailureSemantics:
    def test_dead_rank_poisons_survivor_with_comm_abort(self):
        """A crashed rank must surface as CommAbortError naming it — the
        process transport's semantics — with no hang."""
        barrier = threading.Barrier(2, timeout=30.0)

        def fn(comm):
            if comm.Get_rank() == 1:
                barrier.wait()
                comm.transport.abort("killed")  # no leave, sockets dropped
                return "crashed"
            barrier.wait()
            comm.allreduce_ndarray(np.ones(1000))  # must not block forever
            return "unreachable"

        t0 = time.monotonic()
        with pytest.raises(CommAbortError, match="rank 1"):
            _run_cluster(2, fn)
        assert time.monotonic() - t0 < 20.0

    def test_a_built_rank_runs_no_thread_that_outlives_an_exchange(self):
        """Past construction and each ``exchange`` a cluster rank runs no
        thread of its own: the only threads left are the test's ranks."""
        before = set(threading.enumerate())
        barrier = threading.Barrier(2, timeout=30.0)
        ranks: set = set()
        extra: list = []

        def fn(comm):
            ranks.add(threading.current_thread())
            comm.allreduce_ndarray(np.ones(8))
            barrier.wait()  # both ranks' exchanges are over
            if comm.Get_rank() == 0:
                extra.extend(
                    t.name for t in set(threading.enumerate()) - before - ranks
                    if not t.name.startswith("rendezvous-"))
            barrier.wait()

        _run_cluster(2, fn)
        assert extra == []


# ------------------------------------------------------------ CLI fault table
_FAULT_TIMEOUT_S = 2.0


def _smoke_rank(rank: int, port: str, run_dir: Path) -> list[str]:
    return [sys.executable, "-m", "repro", "run", "--preset", "smoke",
            "--set", "parallel.backend=cluster", "--set", "parallel.n_ranks=2",
            "--set", f"parallel.rank={rank}",
            "--set", f"parallel.rendezvous_addr=127.0.0.1:{port}",
            "--set", f"parallel.collective_timeout_s={_FAULT_TIMEOUT_S}",
            "--set", "train.max_iterations=100000",
            "--run-dir", str(run_dir)]


@pytest.mark.slow
@pytest.mark.parametrize("sig", [signal.SIGKILL, signal.SIGSTOP],
                         ids=["sigkill", "sigstop"])
def test_cli_fault_table(sig, tmp_path):
    """DESIGN.md's fault table on real processes: a coordinator and two
    ``python -m repro run --preset smoke`` cluster ranks.  The coordinator
    exits 0 once the ranks are assigned; rank 1 is killed or stopped
    mid-run, and rank 0 exits non-zero naming it (a stopped rank within the
    collective timeout plus slack, with the op and seq).  Every child is
    reaped."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")]))
    before = child_pids()
    procs: list = []
    logs = [open(tmp_path / f"rank{r}.err", "w") for r in range(2)]
    try:
        coord = subprocess.Popen(
            [sys.executable, "-m", "repro", "rendezvous", "--host",
             "127.0.0.1", "--port", "0", "--world-size", "2"],
            stdout=subprocess.PIPE, text=True, env=env)
        procs.append(coord)
        # "rendezvous listening on 127.0.0.1:PORT (world_size=2)"
        port = coord.stdout.readline().split()[3].rpartition(":")[2]
        for rank in (1, 0):
            procs.append(subprocess.Popen(
                _smoke_rank(rank, port, tmp_path / f"run{rank}"), env=env,
                stdout=subprocess.DEVNULL, stderr=logs[rank]))
        rank1, rank0 = procs[1:]
        metrics = tmp_path / "run0" / "metrics.jsonl"
        deadline = time.monotonic() + 120.0
        while not (metrics.exists()
                   and metrics.read_text().count('"iteration"') >= 2):
            assert rank0.poll() is None and time.monotonic() < deadline
            time.sleep(0.05)
        rank1.send_signal(sig)
        t0 = time.monotonic()
        returncode = rank0.wait(timeout=60.0)
        waited = time.monotonic() - t0
        assert coord.wait(timeout=10.0) == 0
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.send_signal(signal.SIGCONT)
                proc.kill()
            proc.wait()
            if proc.stdout is not None:
                proc.stdout.close()
        for log in logs:
            log.close()
    assert child_pids() <= before
    verdict = (tmp_path / "rank0.err").read_text().strip().splitlines()[-1]
    assert returncode != 0
    assert verdict.startswith("repro.parallel.comm.CommAbortError: rank 0: ")
    assert "rank 1" in verdict, verdict
    if sig == signal.SIGSTOP:
        assert (f"timed out after {_FAULT_TIMEOUT_S}s waiting for rank 1 in "
                in verdict), verdict
        assert "(seq " in verdict, verdict
        assert waited < _FAULT_TIMEOUT_S + 10.0


# ------------------------------------------------------------ VMC bit-identity
def _fresh_vmc(problem, backend, *, n_samples=800, seed=3):
    wf = build_qiankunnet(4, 1, 1, d_model=8,
                          n_heads=2, n_layers=1, phase_hidden=(8,), seed=7)
    return VMC(wf, problem.hamiltonian,
               VMCConfig(n_samples=n_samples, eloc_mode="exact", seed=seed),
               backend=backend, optimizer=NoamAdamW(wf, warmup=50))


def _run_cluster_vmc(problem, n_ranks, n_steps):
    """Drive ``n_ranks`` full SPMD VMC drivers over a localhost mesh."""
    coord, addr = _start_coordinator(n_ranks)
    drivers: list = [None] * n_ranks
    failures: list = []

    def run_rank(rank):
        comm = None
        try:
            comm = Comm(MeshTransport(n_ranks, addr, rank=rank,
                                      join_timeout=15.0))
            vmc = _fresh_vmc(problem, ClusterBackend(
                n_ranks=n_ranks, nu_star_per_rank=4, comm=comm))
            vmc.run(n_steps)
            drivers[rank] = vmc
        except BaseException as exc:  # noqa: BLE001 - re-raised below
            failures.append((rank, exc))
        finally:
            if comm is not None:
                comm.close()

    threads = [threading.Thread(target=run_rank, args=(r,), daemon=True)
               for r in range(n_ranks)]
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=300.0)
    finally:
        coord.stop()
    if failures:
        raise failures[0][1]
    return drivers


_TRAJECTORY_COLUMNS = ("energy", "variance", "eloc_imag", "n_unique",
                       "n_samples", "lr", "comm_bytes", "comm_bytes_wire",
                       "per_rank_unique")


class TestClusterVMCBitIdentity:
    """The acceptance gate: cluster trajectories == thread trajectories,
    including the comm-volume history columns (timing columns aside)."""

    def _assert_matches_threads(self, problem, n_ranks, n_steps):
        thread = _fresh_vmc(
            problem, ThreadBackend(n_ranks=n_ranks, nu_star_per_rank=4))
        thread.run(n_steps)
        drivers = _run_cluster_vmc(problem, n_ranks, n_steps)
        for rank, vmc in enumerate(drivers):
            assert len(vmc.history) == n_steps
            for ref, got in zip(thread.history, vmc.history):
                for col in _TRAJECTORY_COLUMNS:
                    assert getattr(ref, col) == getattr(got, col), \
                        f"rank {rank}: {col} diverged at iter {ref.iteration}"
            np.testing.assert_array_equal(
                thread.wf.get_flat_params(), vmc.wf.get_flat_params())
        # SPMD: every rank's artifacts identical, no parameter broadcast.
        np.testing.assert_array_equal(
            drivers[0].wf.get_flat_params(),
            drivers[-1].wf.get_flat_params())

    def test_two_ranks_bit_identical_to_thread_backend(self, h2_problem):
        self._assert_matches_threads(h2_problem, n_ranks=2, n_steps=3)

    @pytest.mark.slow
    def test_four_ranks_bit_identical_to_thread_backend(self, h2_problem):
        self._assert_matches_threads(h2_problem, n_ranks=4, n_steps=2)


# ------------------------------------------------------------ spec integration
class TestClusterSpec:
    def _spec(self, **parallel):
        from repro.api import RunSpec

        return RunSpec.from_dict({
            "name": "cluster-test",
            "problem": {"molecule": "H2", "basis": "sto-3g",
                        "geometry": {"r": 0.7414}},
            "ansatz": {"d_model": 8, "n_heads": 2, "n_layers": 1,
                       "phase_hidden": [8], "seed": 1},
            "optimizer": {"warmup": 100},
            "sampling": {"ns_pretrain": 500, "ns_max": 500,
                         "pretrain_iters": 3},
            "parallel": {"backend": "cluster", "n_ranks": 2,
                         "nu_star_per_rank": 4, **parallel},
            "train": {"max_iterations": 2, "pretrain_steps": 10,
                      "early_stop": False, "seed": 2},
        })

    def test_spec_validation_names_cluster_fields(self):
        from repro.api import SpecError

        with pytest.raises(SpecError, match="parallel.rendezvous_addr"):
            self._spec(rendezvous_addr="no-port-here")
        with pytest.raises(SpecError, match="parallel.world_size"):
            self._spec(world_size=-2)
        with pytest.raises(SpecError, match="parallel.world_size"):
            self._spec(world_size=4)  # conflicts with n_ranks=2
        with pytest.raises(SpecError, match="parallel.rank"):
            self._spec(rank=5)  # >= the world size
        with pytest.raises(SpecError, match="parallel.join_timeout_s"):
            self._spec(join_timeout_s=0.0)

    def test_materialize_without_rendezvous_addr_fails_at_spec_time(self):
        from repro.api import SpecError
        from repro.api.driver import materialize_backend

        with pytest.raises(SpecError, match="rendezvous_addr"):
            materialize_backend(self._spec())

    def test_materialize_builds_lazy_cluster_backend(self):
        from repro.api.driver import materialize_backend

        spec = self._spec(rendezvous_addr="127.0.0.1:45999", rank=0,
                          join_timeout_s=7.0, collective_timeout_s=120.0)
        backend = materialize_backend(spec)
        assert isinstance(backend, ClusterBackend)
        assert backend.n_ranks == 2
        assert backend.rank == 0
        assert backend.rendezvous_addr == "127.0.0.1:45999"
        assert backend.join_timeout_s == 7.0
        assert backend.collective_timeout_s == 120.0
        backend.close()  # no comm was ever built: must be a clean no-op

    def test_world_size_field_sets_the_rank_count(self):
        from repro.api.driver import materialize_backend

        spec = self._spec(n_ranks=1, world_size=4,
                          rendezvous_addr="127.0.0.1:45999")
        backend = materialize_backend(spec)
        assert backend.n_ranks == 4

    def test_serial_error_message_lists_cluster(self):
        from repro.api import SpecError
        from repro.api.driver import materialize_backend

        spec = self._spec().with_overrides({"parallel.backend": "serial"})
        with pytest.raises(SpecError, match="cluster"):
            materialize_backend(spec)

    def test_cli_rendezvous_subcommand_registered(self):
        from repro.api.cli import build_parser

        parser = build_parser()
        args = parser.parse_args(
            ["rendezvous", "--port", "0", "--world-size", "2"])
        assert args.command == "rendezvous"
        assert args.world_size == 2
