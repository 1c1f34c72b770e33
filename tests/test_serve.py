"""The serving layer: microbatching, session reuse, versioned models.

Determinism contract under test (see repro/serve/service.py):

* seeded ``sample`` responses are bit-identical to direct in-process calls
  for all three ansätze — per-request seeds, per-request RNG streams;
* a ``log_amplitudes`` request that is not fused with others reproduces the
  direct call exactly; fused requests agree to BLAS reduction-order rounding;
* ``conditional_probs`` exact-replay hits return stored logits unchanged,
  and step-continuations match the full forward to the incremental-engine
  tolerance.
"""
from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.core import batch_autoregressive_sample, build_qiankunnet, local_energy
from repro.serve import (
    MicroBatcher,
    ModelRegistry,
    ServeConfig,
    ServiceClosedError,
    ServiceOverloadedError,
    WavefunctionService,
)

from tests.conftest import ANSATZE, build_wf


def _wf(amplitude_type: str = "transformer", seed: int = 7):
    return build_wf(amplitude_type, 4, 1, 1, seed=seed)


@pytest.fixture()
def service(h2_problem):
    svc = WavefunctionService(
        _wf(), hamiltonian=h2_problem.hamiltonian,
        config=ServeConfig(max_wait_ms=1.0),
    ).start()
    yield svc
    svc.close()


# ---------------------------------------------------------------------------
# MicroBatcher mechanics (no model involved)
# ---------------------------------------------------------------------------
class TestMicroBatcher:
    def test_groups_by_key_and_preserves_order(self):
        seen = []

        def runner(key, payloads):
            seen.append((key, list(payloads)))
            return [p * 10 for p in payloads]

        mb = MicroBatcher(runner, max_wait_ms=50.0, max_batch_size=8).start()
        futures = [mb.submit(("a",), 1), mb.submit(("b",), 2), mb.submit(("a",), 3)]
        assert [f.result(timeout=5) for f in futures] == [10, 20, 30]
        mb.close()
        by_key = {key: payloads for key, payloads in seen}
        assert by_key[("a",)] == [1, 3] and by_key[("b",)] == [2]

    def test_coalesces_queued_requests(self):
        def runner(key, payloads):
            return [p for p in payloads]

        mb = MicroBatcher(runner, max_wait_ms=200.0, max_batch_size=64).start()
        futures = [mb.submit(("k",), i, n_rows=4) for i in range(6)]
        assert [f.result(timeout=5) for f in futures] == list(range(6))
        mb.close()
        assert mb.stats.max_rows_per_batch >= 8  # at least two requests fused

    def test_backpressure_rejects_when_full(self):
        picked_up = threading.Event()
        release = threading.Event()

        def runner(key, payloads):
            picked_up.set()
            release.wait(timeout=10)
            return list(payloads)

        mb = MicroBatcher(runner, max_wait_ms=0.0, queue_capacity=2,
                          submit_timeout=0.05).start()
        futures = [mb.submit(("k",), 0)]
        assert picked_up.wait(timeout=5)  # worker holds request 0, blocked
        futures += [mb.submit(("k",), i) for i in (1, 2)]  # fill the queue
        with pytest.raises(ServiceOverloadedError):
            mb.submit(("k",), 3)
        assert mb.stats.rejected == 1
        release.set()
        assert [f.result(timeout=5) for f in futures] == [0, 1, 2]
        mb.close()

    def test_runner_exception_delivered_to_each_future(self):
        def runner(key, payloads):
            raise ValueError("boom")

        mb = MicroBatcher(runner, max_wait_ms=50.0).start()
        f1, f2 = mb.submit(("k",), 1), mb.submit(("k",), 2)
        for f in (f1, f2):
            with pytest.raises(ValueError, match="boom"):
                f.result(timeout=5)
        mb.close()

    def test_cancelled_future_does_not_kill_the_scheduler(self):
        picked_up = threading.Event()
        release = threading.Event()

        def runner(key, payloads):
            picked_up.set()
            release.wait(timeout=10)
            return list(payloads)

        mb = MicroBatcher(runner, max_wait_ms=0.0).start()
        blocker = mb.submit(("k",), 0)
        assert picked_up.wait(timeout=5)
        victim = mb.submit(("k",), 1)  # queued behind the in-flight batch
        assert victim.cancel()
        release.set()
        assert blocker.result(timeout=5) == 0
        # The scheduler must have survived the cancelled future.
        assert mb.submit(("k",), 2).result(timeout=5) == 2
        mb.close()

    def test_close_drains_already_queued_requests(self):
        """The graceful path (SIGTERM in the network server): every request
        accepted before close() is served, none abandoned."""
        def runner(key, payloads):
            time.sleep(0.005)  # keep a backlog queued during close()
            return list(payloads)

        mb = MicroBatcher(runner, max_wait_ms=0.0, max_batch_size=1).start()
        futures = [mb.submit(("k",), i) for i in range(10)]
        mb.close()  # drain=True is the default
        assert [f.result(timeout=0) for f in futures] == list(range(10))

    def test_close_without_drain_fails_queued_requests(self):
        """The emergency path: queued requests fail fast with
        ServiceClosedError; only the batch already executing finishes."""
        picked_up = threading.Event()
        release = threading.Event()

        def runner(key, payloads):
            picked_up.set()
            release.wait(timeout=10)
            return list(payloads)

        mb = MicroBatcher(runner, max_wait_ms=0.0).start()
        blocker = mb.submit(("k",), 0)
        assert picked_up.wait(timeout=5)
        queued = [mb.submit(("k",), i) for i in (1, 2, 3)]

        closer = threading.Thread(target=lambda: mb.close(drain=False))
        closer.start()
        # Queued futures are failed immediately — before the in-flight
        # batch releases, i.e. close(drain=False) does not wait for them.
        for f in queued:
            with pytest.raises(ServiceClosedError):
                f.result(timeout=5)
        release.set()
        closer.join(timeout=5)
        assert not closer.is_alive()
        assert blocker.result(timeout=5) == 0

    def test_close_with_a_timeout_returns_at_the_budget(self):
        """A drain that outlasts its budget: close() returns False on time,
        the backlog fails with ServiceClosedError, and the batch already
        executing still finishes, after which the scheduler thread exits."""
        picked_up = threading.Event()
        release = threading.Event()

        def runner(key, payloads):
            picked_up.set()
            release.wait(timeout=10)
            return list(payloads)

        mb = MicroBatcher(runner, max_wait_ms=0.0, queue_capacity=1).start()
        thread = mb._thread
        blocker = mb.submit(("k",), 0)
        assert picked_up.wait(timeout=5)
        queued = mb.submit(("k",), 1)  # fills the queue: no room to drain
        t0 = time.monotonic()
        assert mb.close(timeout=0.3) is False
        assert time.monotonic() - t0 < 2.0
        with pytest.raises(ServiceClosedError):
            queued.result(timeout=0)
        release.set()
        assert blocker.result(timeout=5) == 0
        thread.join(timeout=5)
        assert not thread.is_alive()

    def test_close_within_its_timeout_returns_true(self):
        mb = MicroBatcher(lambda k, p: list(p), max_wait_ms=0.0).start()
        futures = [mb.submit(("k",), i) for i in range(5)]
        assert mb.close(timeout=10) is True
        assert [f.result(timeout=0) for f in futures] == list(range(5))

    def test_submit_timeout_zero_rejects_immediately(self):
        """timeout=0.0 is the HTTP front door's shape: a full queue rejects
        without blocking the caller (a handler thread)."""
        picked_up = threading.Event()
        release = threading.Event()

        def runner(key, payloads):
            picked_up.set()
            release.wait(timeout=10)
            return list(payloads)

        mb = MicroBatcher(runner, max_wait_ms=0.0, queue_capacity=1,
                          submit_timeout=30.0).start()
        first = mb.submit(("k",), 0)
        assert picked_up.wait(timeout=5)
        second = mb.submit(("k",), 1)  # fills the queue
        t0 = time.monotonic()
        with pytest.raises(ServiceOverloadedError):
            mb.submit(("k",), 2, timeout=0.0)
        # An immediate reject, not the 30 s default submit_timeout.
        assert time.monotonic() - t0 < 1.0
        release.set()
        assert first.result(timeout=5) == 0
        assert second.result(timeout=5) == 1
        mb.close()

    def test_submit_after_close_raises(self):
        mb = MicroBatcher(lambda k, p: list(p)).start()
        mb.close()
        with pytest.raises(ServiceClosedError):
            mb.submit(("k",), 1)

    def test_submit_before_start_raises(self):
        mb = MicroBatcher(lambda k, p: list(p))
        with pytest.raises(ServiceClosedError):
            mb.submit(("k",), 1)


# ---------------------------------------------------------------------------
# Service request APIs against the direct in-process wavefunction
# ---------------------------------------------------------------------------
class TestServiceDeterminism:
    @pytest.mark.parametrize("amplitude_type", ANSATZE)
    def test_seeded_sample_bit_identical(self, amplitude_type):
        wf_direct = _wf(amplitude_type)
        with WavefunctionService(_wf(amplitude_type)) as svc:
            for seed in (0, 42):
                direct = batch_autoregressive_sample(
                    wf_direct, 800, np.random.default_rng(seed)
                )
                served = svc.sample(800, seed=seed)
                np.testing.assert_array_equal(served.bits, direct.bits)
                np.testing.assert_array_equal(served.weights, direct.weights)

    @pytest.mark.parametrize("amplitude_type", ANSATZE)
    def test_unfused_log_amplitudes_bit_identical(self, amplitude_type):
        wf_direct = _wf(amplitude_type)
        bits = batch_autoregressive_sample(
            wf_direct, 300, np.random.default_rng(3)
        ).bits
        with WavefunctionService(_wf(amplitude_type)) as svc:
            np.testing.assert_array_equal(
                svc.log_amplitudes(bits), wf_direct.log_amplitudes(bits)
            )

    def test_concurrent_clients_fuse_and_agree(self):
        wf_direct = _wf()
        rng = np.random.default_rng(5)
        requests = [
            rng.integers(0, 2, (4, 4)).astype(np.uint8) for _ in range(16)
        ]
        cfg = ServeConfig(max_wait_ms=100.0, max_batch_size=256)
        with WavefunctionService(_wf(), config=cfg) as svc:
            barrier = threading.Barrier(8)
            results = [None] * len(requests)

            def client(worker: int):
                barrier.wait()
                for i in range(worker, len(requests), 8):
                    results[i] = svc.log_amplitudes(requests[i])

            threads = [threading.Thread(target=client, args=(w,)) for w in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            stats = svc.stats()["batcher"]
        for req, res in zip(requests, results):
            direct = wf_direct.log_amplitudes(req)
            np.testing.assert_allclose(res.real, direct.real, rtol=1e-12, atol=1e-12)
            # phi is a float32 GEMM chain, and a fused batch rounds a row
            # differently from its 4-row request (~3e-8 rad; 1e-12 held in
            # float64).
            np.testing.assert_allclose(res.imag, direct.imag, rtol=0, atol=1e-6)
        # The barrier lined clients up, so requests must actually have fused.
        assert stats["max_rows_per_batch"] > 4
        assert stats["batches"] < stats["requests"]

    def test_bad_request_does_not_poison_fused_group(self):
        """One malformed request fused with valid ones must fail alone."""
        wf_direct = _wf()
        good = np.array([[1, 1, 0, 0], [0, 1, 1, 0]], dtype=np.uint8)
        bad = np.zeros((2, 5), dtype=np.uint8)  # invalid width (odd qubits)
        cfg = ServeConfig(max_wait_ms=200.0)
        with WavefunctionService(_wf(), config=cfg) as svc:
            # Submit back-to-back so both land in one drain cycle.
            f_good = svc.submit_log_amplitudes(good)
            f_bad = svc.submit_log_amplitudes(bad)
            np.testing.assert_array_equal(
                f_good.result(timeout=10), wf_direct.log_amplitudes(good)
            )
            with pytest.raises(Exception):
                f_bad.result(timeout=10)

    @pytest.mark.parametrize("bits,match", [
        pytest.param(np.ones((3, 2)), "must be 4 wide", id="width 2"),
        pytest.param(np.ones((3, 6)), "must be 4 wide", id="width 6"),
        pytest.param([[1, 2, 0, 0]], "0 or 1", id="a bit of 2"),
    ])
    @pytest.mark.parametrize("op", ["log_amplitudes", "amplitudes"])
    def test_malformed_bits_are_a_value_error(self, service, op, bits,
                                              match):
        """A ValueError is what the HTTP front door answers with 400; the
        service answers the next valid request."""
        with pytest.raises(ValueError, match=match):
            getattr(service, op)(np.asarray(bits, dtype=np.uint8))
        good = np.array([[1, 1, 0, 0]], dtype=np.uint8)
        np.testing.assert_array_equal(service.log_amplitudes(good),
                                      _wf().log_amplitudes(good))

    @pytest.mark.parametrize("bits,weights,match", [
        pytest.param([[1, 0]], [1], "must be 4 wide", id="narrow bits"),
        pytest.param([[1, 1, 0, 0, 1, 0]], [1], "must be 4 wide",
                     id="wide bits"),
        pytest.param([[1, 1, 0, 0], [1, 0, 0, 1]], [1],
                     "one entry per row", id="short weights"),
        pytest.param([[1, 2, 0, 0]], [1], "0 or 1", id="bit value 2"),
    ])
    def test_a_malformed_local_energy_batch_is_a_value_error(
            self, service, bits, weights, match):
        from repro.core.sampler import SampleBatch

        batch = SampleBatch(bits=np.array(bits, dtype=np.uint8),
                            weights=np.array(weights))
        with pytest.raises(ValueError, match=match):
            service.local_energy(batch)
        good = SampleBatch(bits=np.array([[1, 1, 0, 0]], dtype=np.uint8),
                           weights=np.array([1]))
        assert service.local_energy(good).shape == (1,)

    def test_amplitudes_endpoint(self, service):
        bits = np.array([[1, 1, 0, 0], [0, 1, 1, 0]], dtype=np.uint8)
        np.testing.assert_allclose(
            service.amplitudes(bits),
            np.exp(service.log_amplitudes(bits)),
            rtol=1e-12,
        )


class TestConditionalProbs:
    def test_decode_loop_through_service(self, service):
        """Drive a token-by-token decode via the service; the prefix cache
        must serve each extension with a cached step."""
        wf_direct = _wf()
        batch = batch_autoregressive_sample(
            wf_direct, 200, np.random.default_rng(9)
        )
        tokens = wf_direct.bits_to_tokens(batch.bits[:5])
        for k in range(wf_direct.n_tokens):
            prefix = tokens[:, :k]
            cu, cd = wf_direct.sector_counts(prefix)
            got = service.conditional_probs(prefix, cu, cd)
            ref = wf_direct.conditional_probs(prefix, cu, cd)
            np.testing.assert_allclose(got, ref, rtol=1e-9, atol=1e-12)
        stats = service.stats()["versions"][0]["prefix_cache"]
        assert stats["step_hits"] == wf_direct.n_tokens - 1
        assert stats["misses"] == 1

    @pytest.mark.parametrize("prefix,counts,match", [
        pytest.param([[4]], [0], "tokens in", id="token past the vocab"),
        pytest.param([[-1]], [0], "tokens in", id="negative token"),
        pytest.param([[[1]]], [0], "tokens in", id="3-d prefix"),
        pytest.param([[1], [2]], [0], "one entry per row", id="short counts"),
    ])
    def test_a_malformed_prefix_is_a_value_error(self, service, prefix,
                                                 counts, match):
        counts = np.array(counts)
        with pytest.raises(ValueError, match=match):
            service.conditional_probs(np.array(prefix), counts, counts)
        prefix = np.array([[1]])
        cu, cd = _wf().sector_counts(prefix)
        assert service.conditional_probs(prefix, cu, cd).shape == (1, 4)

    def test_exact_replay_returns_identical_probs(self, service):
        wf_direct = _wf()
        tokens = np.array([[2], [3]], dtype=np.int64)
        cu, cd = wf_direct.sector_counts(tokens)
        first = service.conditional_probs(tokens, cu, cd)
        second = service.conditional_probs(tokens, cu, cd)
        np.testing.assert_array_equal(first, second)
        assert service.stats()["versions"][0]["prefix_cache"]["exact_hits"] == 1

    def test_cache_miss_matches_direct_prefill_exactly(self, service):
        wf_direct = _wf()
        tokens = np.array([[1], [0], [2]], dtype=np.int64)
        cu, cd = wf_direct.sector_counts(tokens)
        np.testing.assert_array_equal(
            service.conditional_probs(tokens, cu, cd),
            wf_direct.conditional_probs(tokens, cu, cd),
        )

    def test_cache_drops_the_least_recent_prefix_beyond_max_entries(self):
        wf_direct = _wf()
        prefixes = [np.array([[t]], dtype=np.int64) for t in (0, 1, 2)]
        cfg = ServeConfig(max_wait_ms=1.0, prefix_cache_entries=2)
        with WavefunctionService(_wf(), config=cfg) as svc:
            for prefix in prefixes:
                svc.conditional_probs(prefix, *wf_direct.sector_counts(prefix))
            cache = svc.stats()["versions"][0]["prefix_cache"]
            assert (cache["misses"], cache["entries"]) == (3, 2)
            svc.conditional_probs(prefixes[2],
                                  *wf_direct.sector_counts(prefixes[2]))
            # The first prefix was dropped: it is prefilled again, exactly.
            cu, cd = wf_direct.sector_counts(prefixes[0])
            np.testing.assert_array_equal(
                svc.conditional_probs(prefixes[0], cu, cd),
                wf_direct.conditional_probs(prefixes[0], cu, cd),
            )
            cache = svc.stats()["versions"][0]["prefix_cache"]
        assert cache == {"exact_hits": 1, "step_hits": 0, "misses": 4,
                         "entries": 2}


class TestLocalEnergy:
    def test_exact_mode_matches_direct(self, service, h2_problem):
        wf_direct = _wf()
        batch = batch_autoregressive_sample(
            wf_direct, 1000, np.random.default_rng(11)
        )
        direct, _ = local_energy(wf_direct, service.comp, batch, mode="exact")
        np.testing.assert_allclose(
            service.local_energy(batch, mode="exact"), direct,
            rtol=1e-9, atol=1e-12,
        )

    def test_table_reused_across_requests(self, service):
        wf_direct = _wf()
        batch = batch_autoregressive_sample(
            wf_direct, 1000, np.random.default_rng(11)
        )
        first = service.local_energy(batch, mode="exact")
        entries_after_first = service.stats()["versions"][0]["table_entries"]
        second = service.local_energy(batch, mode="exact")
        np.testing.assert_allclose(first, second, rtol=1e-12, atol=1e-14)
        stats = service.stats()["versions"][0]
        # Identical request: every amplitude came from the table, no growth.
        assert stats["table_entries"] == entries_after_first > 0

    def test_duplicate_client_rows_keep_table_sorted_unique(self, service, monkeypatch):
        """Regression: a client batch with repeated rows used to push
        duplicate keys into the per-version amplitude table through both the
        first-request build and the merge path, corrupting later binary
        searches, and the merge path evaluated a repeated missing row once
        per repeat.  Repeated rows get equal values, every configuration
        the table lacks is evaluated once, and the table stays
        sorted-unique."""
        from repro.core.sampler import SampleBatch

        clean = batch_autoregressive_sample(_wf(), 400, np.random.default_rng(5))
        assert clean.n_unique == 4  # the whole H2 sector
        # The first request seeds the table from two configurations, repeated.
        dup_rows = np.concatenate([clean.bits[:2], clean.bits[:2], clean.bits[:1]])
        first = service.local_energy(
            SampleBatch(bits=dup_rows, weights=np.ones(len(dup_rows), dtype=np.int64)),
            mode="sample_aware")
        np.testing.assert_array_equal(first[:2], first[2:4])
        np.testing.assert_array_equal(first[:1], first[4:])
        # The second adds the other two, repeated: the grow path.
        model = service._models[0]
        seen = []
        real = model.wf.log_amplitudes

        def counting(bits, params32=None):
            seen.append(np.array(bits))
            return real(bits, params32)

        monkeypatch.setattr(model.wf, "log_amplitudes", counting)
        dup2_rows = np.concatenate([clean.bits, clean.bits[2:], clean.bits[3:]])
        second = service.local_energy(
            SampleBatch(bits=dup2_rows, weights=np.ones(len(dup2_rows), dtype=np.int64)),
            mode="sample_aware")
        assert len(second) == len(dup2_rows)
        evaluated = sorted(map(tuple, np.concatenate(seen).tolist()))
        assert evaluated == sorted(map(tuple, clean.bits[2:].tolist()))
        table = model.table
        assert table.n_entries == 4
        rows = [tuple(r) for r in table.keys[:, ::-1].tolist()]
        assert rows == sorted(rows), "per-version table keys not sorted"
        assert len(set(rows)) == len(rows), "per-version table has duplicates"

    def test_table_cap_keeps_previous_table(self, lih_problem):
        """Over-cap growth must not discard the existing under-cap table
        (that would mean a permanent cold start above the cap)."""
        wf_direct = build_qiankunnet(12, 2, 2, seed=7)
        batch = batch_autoregressive_sample(wf_direct, 200, np.random.default_rng(1))
        # Cap exactly at the sampled working set: the sample-aware table
        # fits, the exact-mode extension (all coupled configs) does not.
        cfg = ServeConfig(max_wait_ms=1.0, table_max_entries=batch.n_unique)
        with WavefunctionService(build_qiankunnet(12, 2, 2, seed=7),
                                 hamiltonian=lih_problem.hamiltonian,
                                 config=cfg) as svc:
            svc.local_energy(batch, mode="sample_aware")
            entries = svc.stats()["versions"][0]["table_entries"]
            assert entries == batch.n_unique
            eloc = svc.local_energy(batch, mode="exact")
            stats = svc.stats()["versions"][0]
            assert stats["table_overflows"] == 1
            assert stats["table_entries"] == entries  # prior table retained
            direct, _ = local_energy(wf_direct, svc.comp, batch, mode="exact")
            np.testing.assert_allclose(eloc, direct, rtol=1e-9, atol=1e-12)

    def test_requires_hamiltonian(self):
        with WavefunctionService(_wf()) as svc:
            batch = batch_autoregressive_sample(
                _wf(), 100, np.random.default_rng(0)
            )
            with pytest.raises(ValueError, match="Hamiltonian"):
                svc.local_energy(batch)


# ---------------------------------------------------------------------------
# Versioned serving through the registry
# ---------------------------------------------------------------------------
class TestRegistry:
    def test_publish_load_roundtrip(self, tmp_path):
        reg = ModelRegistry(tmp_path / "models")
        wf = _wf()
        v1 = reg.publish(wf, metadata={"iteration": 0})
        wf.set_flat_params(wf.get_flat_params() + 0.05)
        v2 = reg.publish(wf, metadata={"iteration": 100})
        assert (v1, v2) == (1, 2)
        assert reg.versions() == [1, 2]
        assert reg.latest_version() == 2
        assert reg.metadata(1) == {"iteration": 0}
        loaded, _ = reg.load(2)
        np.testing.assert_array_equal(
            loaded.get_flat_params(), wf.get_flat_params()
        )

    def test_params_that_do_not_match_the_recorded_hash_are_refused(self, tmp_path):
        """``params_sha256`` is checked on load: one flipped byte of a
        published snapshot's parameters is a ``ValueError`` naming the file
        and the version; the other versions still load."""
        reg = ModelRegistry(tmp_path / "models")
        wf = _wf()
        reg.publish(wf)
        reg.publish(wf)
        path = reg.path(2)
        with np.load(path) as data:
            payload = dict(data)
        payload["params"].view(np.uint8)[5] ^= 0x01
        np.savez(path, **payload)
        with pytest.raises(ValueError, match="params_sha256") as err:
            reg.load(2)
        assert str(path) in str(err.value) and "version 2" in str(err.value)
        loaded, _ = reg.load(1)
        np.testing.assert_array_equal(loaded.get_flat_params(), wf.get_flat_params())

    def test_unknown_version_raises(self, tmp_path):
        reg = ModelRegistry(tmp_path / "models")
        reg.publish(_wf())
        with pytest.raises(KeyError, match="version 9"):
            reg.load(9)

    def test_version_pinning_while_training_publishes(self, tmp_path):
        reg = ModelRegistry(tmp_path / "models")
        wf_v1 = _wf(seed=7)
        reg.publish(wf_v1)
        with WavefunctionService(reg) as svc:
            assert svc.active_version() == 1
            bits = np.array([[1, 1, 0, 0], [1, 0, 0, 1]], dtype=np.uint8)
            la_v1 = svc.log_amplitudes(bits)

            # "Training" publishes new parameters mid-flight.
            wf_v2 = _wf(seed=7)
            wf_v2.set_flat_params(wf_v2.get_flat_params() + 0.1)
            reg.publish(wf_v2)

            # Unpinned requests stay on the version the service resolved at
            # start until refresh(); pinned requests always get their version.
            np.testing.assert_array_equal(svc.log_amplitudes(bits), la_v1)
            assert svc.refresh() == 2
            la_v2 = svc.log_amplitudes(bits)
            assert not np.allclose(la_v1, la_v2)
            np.testing.assert_array_equal(
                svc.log_amplitudes(bits, version=1), la_v1
            )
            np.testing.assert_array_equal(
                la_v1, wf_v1.log_amplitudes(bits)
            )
            np.testing.assert_array_equal(
                la_v2, wf_v2.log_amplitudes(bits)
            )

    def test_prefix_sessions_do_not_outlive_their_version(self, tmp_path):
        """After a refresh, a cached prefix decodes the new parameters; the
        old version's cache still replays its own."""
        reg = ModelRegistry(tmp_path / "models")
        wf_v1 = _wf(seed=7)
        reg.publish(wf_v1)
        tokens = np.zeros((2, 0), dtype=np.int64)  # the first token's law
        cu, cd = wf_v1.sector_counts(tokens)
        with WavefunctionService(reg) as svc:
            p1 = svc.conditional_probs(tokens, cu, cd)
            wf_v2 = _wf(seed=7)
            wf_v2.set_flat_params(wf_v2.get_flat_params() + 0.1)
            reg.publish(wf_v2)
            assert svc.refresh() == 2
            p2 = svc.conditional_probs(tokens, cu, cd)
            np.testing.assert_array_equal(
                svc.conditional_probs(tokens, cu, cd, version=1), p1)
            caches = {v: s["prefix_cache"]
                      for v, s in svc.stats()["versions"].items()}
        np.testing.assert_array_equal(p1, wf_v1.conditional_probs(tokens, cu, cd))
        np.testing.assert_array_equal(p2, wf_v2.conditional_probs(tokens, cu, cd))
        assert not np.allclose(p1, p2)
        assert caches[1]["exact_hits"] == 1 and caches[2]["misses"] == 1

    def test_per_version_amplitude_tables_are_isolated(self, tmp_path, h2_problem):
        reg = ModelRegistry(tmp_path / "models")
        wf_v1 = _wf(seed=7)
        reg.publish(wf_v1)
        wf_v2 = _wf(seed=7)
        wf_v2.set_flat_params(wf_v2.get_flat_params() + 0.1)
        reg.publish(wf_v2)
        batch = batch_autoregressive_sample(wf_v1, 500, np.random.default_rng(4))
        with WavefunctionService(reg, hamiltonian=h2_problem.hamiltonian) as svc:
            el_v1 = svc.local_energy(batch, version=1)
            el_v2 = svc.local_energy(batch, version=2)
            # Amplitude tables are keyed by version: each result must match
            # its own parameters' direct evaluation (a shared/stale table
            # would corrupt the ratios).
            d1, _ = local_energy(wf_v1, svc.comp, batch, mode="exact")
            d2, _ = local_energy(wf_v2, svc.comp, batch, mode="exact")
            np.testing.assert_allclose(el_v1, d1, rtol=1e-9, atol=1e-12)
            np.testing.assert_allclose(el_v2, d2, rtol=1e-9, atol=1e-12)
            assert not np.allclose(d1, d2)

    def test_empty_registry_rejects_unpinned_requests(self, tmp_path):
        reg = ModelRegistry(tmp_path / "models")
        with WavefunctionService(reg) as svc:
            with pytest.raises(ServiceClosedError, match="no published"):
                svc.log_amplitudes(np.zeros((1, 4), dtype=np.uint8))
