"""Thread ranks, tree partitioning, comm model, data-parallel VMC."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import VMC, NoamAdamW, VMCConfig, build_qiankunnet
from repro.core.sampler import BASTreeState
from repro.parallel import (
    CommVolumeModel,
    ThreadBackend,
    balanced_weight_partition,
    run_spmd,
    split_tree_state,
)


class TestFakeMPI:
    """``run_spmd`` as a launcher; the collectives' contract is checked over
    every transport at once in test_comm_contract.py."""

    def test_allgather_order_and_content(self):
        def fn(comm):
            return comm.allgather_ndarray(np.array([comm.Get_rank()]))

        results, stats = run_spmd(4, fn)
        for r in range(4):
            gathered = np.concatenate(results[r])
            np.testing.assert_array_equal(gathered, [0, 1, 2, 3])
        assert stats.calls["allgather"] == 1
        assert stats.allgather_bytes == 4 * 8 * 4  # 4 payloads x 8B x N_p

    def test_allreduce_sum(self):
        def fn(comm):
            return comm.allreduce_ndarray(np.full(3, comm.Get_rank() + 1.0))

        results, stats = run_spmd(3, fn)
        for r in results:
            np.testing.assert_array_equal(r, [6.0, 6.0, 6.0])
        assert stats.allreduce_bytes == 3 * 8 * 3

    def test_multiple_collectives_sequence(self):
        def fn(comm):
            a = comm.allreduce_ndarray(np.array([1.0]))
            b = comm.allgather_ndarray(np.array(comm.Get_rank()))
            c = comm.allreduce_ndarray(np.array([2.0]))
            return (a[0], tuple(int(x) for x in b), c[0])

        results, stats = run_spmd(2, fn)
        assert results[0] == (2.0, (0, 1), 4.0)
        assert results[1] == (2.0, (0, 1), 4.0)
        assert stats.calls["allreduce"] == 2

    def test_rank_error_propagates(self):
        def fn(comm):
            if comm.Get_rank() == 1:
                raise RuntimeError("rank 1 exploded")
            return comm.allreduce_ndarray(np.ones(1))

        with pytest.raises(RuntimeError):
            run_spmd(2, fn)

    def test_single_rank_degenerates(self):
        results, stats = run_spmd(
            1, lambda c: c.allreduce_ndarray(np.array([5.0]))[0])
        assert results[0] == 5.0


class TestPartition:
    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(st.integers(1, 1000), min_size=1, max_size=60),
        st.integers(1, 8),
    )
    def test_partition_properties(self, weights, n_parts):
        parts = balanced_weight_partition(np.array(weights), n_parts)
        assert len(parts) == n_parts
        flat = np.concatenate(parts)
        np.testing.assert_array_equal(flat, np.arange(len(weights)))  # coverage+order
        if len(weights) >= n_parts:
            assert all(len(p) > 0 for p in parts)

    def test_balance_quality_uniform(self):
        weights = np.ones(1000)
        parts = balanced_weight_partition(weights, 8)
        sizes = [w.sum() for w in (weights[p] for p in parts)]
        assert max(sizes) - min(sizes) <= 2

    def test_split_tree_state(self):
        state = BASTreeState(
            prefixes=np.arange(12).reshape(6, 2),
            weights=np.array([5, 1, 1, 1, 1, 5], dtype=np.int64),
            counts_up=np.arange(6),
            counts_dn=np.arange(6),
            log_prob=-np.arange(6.0),
            step=2,
        )
        parts = split_tree_state(state, 3)
        assert sum(p.weights.sum() for p in parts) == state.weights.sum()
        assert all(p.step == 2 for p in parts)
        total_prefix = np.concatenate([p.prefixes for p in parts])
        np.testing.assert_array_equal(total_prefix, state.prefixes)
        # log pi travels with the nodes it belongs to
        for p in parts:
            np.testing.assert_array_equal(p.log_prob, -p.prefixes[:, 0] / 2.0)

    def test_empty_weights(self):
        parts = balanced_weight_partition(np.array([]), 3)
        assert all(len(p) == 0 for p in parts)


class TestCommModel:
    def test_paper_example_c2(self):
        """Sec. 3.2: C2/STO-3G, N=20, N_u=2.7e4, N_p=64, M=2.7e5 -> ~173 MB."""
        model = CommVolumeModel(n_qubits=20, n_unique=27_000, n_ranks=64,
                                n_params=270_000)
        mb = model.total_bytes / 1e6  # decimal MB as quoted by the paper
        assert 165 < mb < 178
        # The gradient allreduce dominates, as the paper's design intends.
        assert model.allreduce_gradient_bytes > model.allgather_samples_bytes

    def test_breakdown_sums(self):
        m = CommVolumeModel(12, 100, 4, 1000)
        parts = m.breakdown()
        assert parts["total_MB"] == pytest.approx(
            parts["stage2_allgather_samples_MB"]
            + parts["stage4_allreduce_energy_MB"]
            + parts["stage6_allreduce_gradients_MB"]
        )

    def test_scales_linearly_in_ranks(self):
        a = CommVolumeModel(20, 1000, 4, 5000).total_bytes
        b = CommVolumeModel(20, 1000, 8, 5000).total_bytes
        assert b == 2 * a


class TestDataParallelVMC:
    """The Fig. 4 data-parallel iteration: a VMC on a ThreadBackend."""

    @pytest.fixture()
    def driver_factory(self, h2o_problem):
        def make(n_ranks, seed=31):
            wf = build_qiankunnet(
                h2o_problem.n_qubits, h2o_problem.n_up, h2o_problem.n_dn,
                d_model=8, n_heads=2, n_layers=1, phase_hidden=(16,), seed=7,
            )
            return VMC(
                wf, h2o_problem.hamiltonian,
                VMCConfig(n_samples=2000, eloc_mode="exact", seed=seed),
                backend=ThreadBackend(n_ranks=n_ranks, nu_star_per_rank=4),
            )
        return make

    def test_runs_and_tracks_stats(self, driver_factory):
        driver = driver_factory(2)
        s = driver.step()
        assert np.isfinite(s.energy)
        assert s.n_unique > 0
        assert s.comm_bytes > 0
        assert len(s.per_rank_unique) == 2
        assert s.time_sampling >= 0 and s.time_local_energy >= 0

    def test_deterministic_given_seed(self, driver_factory):
        e1 = [driver_factory(2, seed=5).step().energy for _ in range(1)][0]
        e2 = [driver_factory(2, seed=5).step().energy for _ in range(1)][0]
        assert e1 == pytest.approx(e2, abs=1e-12)

    def test_rank_counts_preserve_sample_budget(self, driver_factory):
        for n_ranks in (1, 2, 3):
            driver = driver_factory(n_ranks)
            s = driver.step()
            assert s.n_samples == 2000

    def test_replicas_stay_in_sync(self, driver_factory):
        driver = driver_factory(2)
        driver.step()
        driver.step()
        master = driver.wf.get_flat_params()
        for rep in driver.backend.replicas:
            np.testing.assert_allclose(rep.get_flat_params(), master, atol=1e-12)

    def test_energy_improves_over_iterations(self, h2_problem):
        wf = build_qiankunnet(4, 1, 1, seed=17)
        driver = VMC(
            wf, h2_problem.hamiltonian,
            VMCConfig(n_samples=10**4, eloc_mode="exact", seed=18),
            backend=ThreadBackend(n_ranks=2, nu_star_per_rank=2),
            optimizer=NoamAdamW(wf, warmup=50),
        )
        hist = driver.run(60)
        first = np.mean([s.energy for s in hist[:5]])
        last = np.mean([s.energy for s in hist[-5:]])
        assert last < first  # optimization makes progress

    def test_comm_bytes_grow_with_ranks(self, driver_factory):
        b1 = driver_factory(1).step().comm_bytes
        b3 = driver_factory(3).step().comm_bytes
        assert b3 > b1
