"""Tests for the multi-host cluster transport (frames, rendezvous, comm).

Cluster ranks run here as localhost threads — each owns a real TCP mesh
socket set and a real coordinator connection, so everything short of the
physical network is exercised: the framed wire protocol, rendezvous rank
assignment, heartbeat supervision, dead-rank poisoning and the SPMD
bit-identity contract against the thread backend.
"""
from __future__ import annotations

import socket
import threading
import time

import numpy as np
import pytest

from repro.core import VMC, NoamAdamW, VMCConfig, build_qiankunnet
from repro.core.engine import ThreadBackend
from repro.parallel import run_spmd
from repro.parallel.cluster import (
    ClusterBackend,
    MeshTransport,
    create_cluster_comm,
)
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

# Short, test-friendly liveness knobs: fast heartbeats, fast verdicts.
_FAST = dict(heartbeat_interval=0.1, heartbeat_timeout=0.6)


def _sync(comm) -> None:
    """A zero-byte allgather: the barrier idiom of the two-collective Comm."""
    comm.allgather_ndarray(np.zeros(0))


def _start_coordinator(world_size: int, **kwargs):
    coord = RendezvousCoordinator(world_size=world_size, **kwargs)
    host, port = coord.start()
    return coord, f"{host}:{port}"


def _run_cluster(world_size: int, fn, *, coordinator_kwargs=None,
                 comm_kwargs=None, close=True):
    """Run ``fn(comm)`` on ``world_size`` thread-hosted cluster ranks.

    Returns ``(results, comms, outcome)``; exceptions from any rank are
    re-raised in the caller (first one wins, by rank order).
    """
    coord, addr = _start_coordinator(world_size,
                                     **(coordinator_kwargs or _FAST))
    results: list = [None] * world_size
    failures: list = []
    comms: list = [None] * world_size

    def run_rank(rank: int):
        comm = None
        try:
            comm = Comm(MeshTransport(world_size, addr, rank=rank,
                                      join_timeout=10.0,
                                      **(comm_kwargs or {})))
            comms[rank] = comm
            results[rank] = fn(comm)
        except BaseException as exc:  # noqa: BLE001 - re-raised below
            failures.append((rank, exc))
        finally:
            if close and comm is not None:
                comm.close()

    threads = [threading.Thread(target=run_rank, args=(r,), daemon=True)
               for r in range(world_size)]
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60.0)
    finally:
        outcome = coord.wait(timeout=5.0)
        coord.stop()
    if failures:
        failures.sort(key=lambda f: f[0])
        raise failures[0][1]
    return results, comms, outcome


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


# ---------------------------------------------------------------- collectives
class TestClusterCollectives:
    def test_allgather_rank_order(self):
        def fn(comm):
            parts = comm.allgather_ndarray(np.array(comm.Get_rank() * 10))
            return [int(p) for p in parts]

        results, _, outcome = _run_cluster(3, fn)
        assert results == [[0, 10, 20]] * 3
        assert outcome == "completed"

    def test_allreduce_matches_rank_ordered_numpy_sum(self):
        def fn(comm):
            arr = np.arange(6, dtype=np.float64) * (comm.Get_rank() + 1)
            return comm.allreduce_ndarray(arr, channel="g")

        results, _, _ = _run_cluster(3, fn)
        expected = np.arange(6, dtype=np.float64) * 6
        for r in results:
            np.testing.assert_array_equal(r, expected)

    def test_typed_allgather_roundtrip(self):
        def fn(comm):
            arr = np.arange(5, dtype=np.int64) + 100 * comm.Get_rank()
            return comm.allgather_ndarray(arr, channel="t")

        results, _, _ = _run_cluster(2, fn)
        for parts in results:
            np.testing.assert_array_equal(parts[0], np.arange(5))
            np.testing.assert_array_equal(parts[1], np.arange(5) + 100)
            assert parts[0].dtype == np.int64

    def test_allgather_blob_logical_vs_wire_accounting(self):
        def fn(comm):
            blob = bytes([comm.Get_rank()]) * 10
            out = comm.allgather_blob(blob, logical_bytes=100, channel="z")
            return out, dict(comm.stats.channels)

        results, _, _ = _run_cluster(2, fn)
        for blobs, channels in results:
            assert blobs == [b"\x00" * 10, b"\x01" * 10]
            assert channels["z"]["logical"] == 100 * 2 * 2
            assert channels["z"]["wire"] == 10 * 2 * 2

    def test_collective_sequence_and_barrier(self):
        def fn(comm):
            a = comm.allreduce_ndarray(np.array([1.0]))
            _sync(comm)
            b = comm.allgather_ndarray(np.array(comm.Get_rank()))
            return (a[0], tuple(int(x) for x in b))

        results, _, _ = _run_cluster(2, fn)
        assert results == [(2.0, (0, 1))] * 2

    def test_byte_accounting_matches_thread_comm(self):
        """Every mesh rank's stats must equal the thread ranks' accounting."""
        def fn(comm):
            comm.allgather_ndarray(np.zeros(10))
            comm.allreduce_ndarray(np.zeros(5))
            comm.allgather_blob(b"abc", logical_bytes=7)
            s = comm.stats
            return (s.allgather_bytes, s.allreduce_bytes, s.total_bytes,
                    s.total_wire_bytes)

        cluster_results, _, _ = _run_cluster(2, fn)
        _, s_thread = run_spmd(2, fn)
        expected = (s_thread.allgather_bytes, s_thread.allreduce_bytes,
                    s_thread.total_bytes, s_thread.total_wire_bytes)
        assert cluster_results == [expected, expected]

    def test_world_of_one_short_circuits(self):
        def fn(comm):
            assert comm.Get_size() == 1
            return (comm.allgather_blob(b"solo"),
                    comm.allreduce_ndarray(np.array([2.0]))[0])

        results, _, outcome = _run_cluster(1, fn)
        assert results == [([b"solo"], 2.0)]
        assert outcome == "completed"

    def test_desynchronized_collective_detected(self):
        """Mismatched collective ops must raise, not silently mispair."""
        def fn(comm):
            if comm.Get_rank() == 0:
                comm.allgather_ndarray(np.zeros(3))
            else:
                comm.allreduce_ndarray(np.zeros(3))

        with pytest.raises((ClusterProtocolError, CommAbortError),
                           match="desynchronized|aborted"):
            _run_cluster(2, fn)

    def test_closed_comm_refuses_collectives(self):
        results, comms, _ = _run_cluster(
            2, lambda comm: comm.allgather_blob(b"1"))
        assert results == [[b"1", b"1"]] * 2
        for comm in comms:
            with pytest.raises(RuntimeError, match="closed"):
                _sync(comm)
            comm.close()  # idempotent


# ----------------------------------------------------------------- rendezvous
class TestRendezvous:
    def test_ranks_autoassigned_and_clean_completion(self):
        coord, addr = _start_coordinator(2, **_FAST)
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
        coord = RendezvousCoordinator(world_size=2, port=port, **_FAST)
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
        coord, addr = _start_coordinator(
            2, join_timeout=0.8, **_FAST)
        with pytest.raises((ConnectionError, ClusterProtocolError,
                            RuntimeError, TimeoutError)):
            MeshTransport(2, addr, join_timeout=10.0)  # lone member of a 2-world
        outcome = coord.wait(timeout=5.0)
        coord.stop()
        assert outcome is not None and "join timeout (1/2)" in outcome

    def test_world_size_mismatch_rejected(self):
        coord, addr = _start_coordinator(2, join_timeout=5.0, **_FAST)
        try:
            with pytest.raises(RuntimeError, match="world_size mismatch"):
                MeshTransport(3, addr, join_timeout=5.0)
        finally:
            coord.stop()

    def test_out_of_range_rank_request_rejected(self):
        coord, addr = _start_coordinator(2, join_timeout=5.0, **_FAST)
        try:
            with pytest.raises(RuntimeError,
                               match="rejected.*rank 7 outside world"):
                MeshTransport(2, addr, rank=7, join_timeout=5.0)
        finally:
            coord.stop()

    def test_duplicate_rank_claim_rejected(self):
        # Both members pin rank 0: one wins the claim (and later times out
        # waiting for the never-full world), the other is rejected cleanly.
        coord, addr = _start_coordinator(2, join_timeout=2.0, **_FAST)
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
        coord, addr = _start_coordinator(2, **_FAST)
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

    def test_heartbeat_timeout_must_exceed_interval(self):
        with pytest.raises(ValueError, match="heartbeat_timeout"):
            RendezvousCoordinator(world_size=1, heartbeat_interval=2.0,
                                  heartbeat_timeout=1.0)


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

    def test_missed_heartbeats_poison_blocked_survivors(self):
        """A wedged rank (alive socket, no heartbeats, no collectives) must
        get every peer aborted within the heartbeat deadline."""
        barrier = threading.Barrier(2, timeout=30.0)

        def fn(comm):
            if comm.Get_rank() == 1:
                comm.transport._stop_heartbeating()
                barrier.wait()
                time.sleep(4.0)  # wedged: never joins the collective
                return None
            barrier.wait()
            comm.allreduce_ndarray(np.ones(8))
            return "unreachable"

        t0 = time.monotonic()
        with pytest.raises(CommAbortError,
                           match="rank 1.*missed the heartbeat deadline"):
            _run_cluster(2, fn, close=False)
        # Detection bound: heartbeat_timeout (0.6s) + supervision poll +
        # abort propagation, with generous slack for loaded runners.
        assert time.monotonic() - t0 < 10.0

    def test_abort_leaves_no_live_helper_threads(self):
        def fn(comm):
            if comm.Get_rank() == 1:
                comm.transport.abort("killed")
                return None
            try:
                comm.allreduce_ndarray(np.ones(8))
            except CommAbortError:
                pass
            return comm

        results, comms, _ = _run_cluster(2, fn)
        time.sleep(0.2)
        for comm in comms:
            comm.close()  # idempotent even after a crash/abort
            for t in comm.transport._threads:
                t.join(timeout=5.0)
                assert not t.is_alive()

    def test_coordinator_reports_abort_outcome(self):
        def fn(comm):
            if comm.Get_rank() == 1:
                comm.transport.abort("killed")
                return None
            try:
                _sync(comm)
            except CommAbortError:
                pass
            return None

        _, _, outcome = _run_cluster(2, fn)
        assert outcome is not None and outcome.startswith("aborted")
        assert "rank 1" in outcome


# ------------------------------------------------------- create_cluster_comm
class TestCreateClusterComm:
    def test_socket_path_without_rendezvous_addr_names_the_field(self):
        with pytest.raises(ValueError, match="parallel.rendezvous_addr"):
            create_cluster_comm(2)


# ------------------------------------------------------------ VMC bit-identity
def _fresh_vmc(problem, backend, *, n_samples=800, seed=3):
    wf = build_qiankunnet(4, 1, 1, d_model=8,
                          n_heads=2, n_layers=1, phase_hidden=(8,), seed=7)
    return VMC(wf, problem.hamiltonian,
               VMCConfig(n_samples=n_samples, eloc_mode="exact", seed=seed),
               backend=backend, optimizer=NoamAdamW(wf, warmup=50))


def _run_cluster_vmc(problem, n_ranks, n_steps):
    """Drive ``n_ranks`` full SPMD VMC drivers over a localhost mesh."""
    coord, addr = _start_coordinator(n_ranks, **_FAST)
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
            "ansatz": {"name": "transformer", "d_model": 8, "n_heads": 2,
                       "n_layers": 1, "phase_hidden": [8], "seed": 1},
            "optimizer": {"name": "adamw", "warmup": 100},
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
