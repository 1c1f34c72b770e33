"""Tree partitioning, comm model, data-parallel VMC, the scaling harness."""
import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import VMC, NoamAdamW, VMCConfig, build_qiankunnet
from repro.core.sampler import BASTreeState
from repro.parallel import ThreadBackend, balanced_weight_partition, split_tree_state
from tests.conftest import _load_bench

scaling = _load_bench("scaling")
CommVolumeModel = scaling.CommVolumeModel


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
            undecided=np.ones(6, dtype=bool),
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

    def test_every_rank_steps_from_rank_0s_theta(self, driver_factory, monkeypatch):
        """Each rank keeps its own replica for the whole run and applies the
        update itself: at every step's stage 2 every rank holds rank 0's
        theta, bit for bit, on a model object of its own."""
        from repro.core import engine

        seen, real = [], engine.stage_gather_table

        def recording(comm, wf, local):
            seen.append((comm.Get_rank(), id(wf), wf.get_flat_params()))
            return real(comm, wf, local)

        monkeypatch.setattr(engine, "stage_gather_table", recording)
        driver = driver_factory(2)
        for _ in range(3):
            seen.clear()
            master = driver.wf.get_flat_params()
            driver.step()
            assert sorted(rank for rank, _, _ in seen) == [0, 1]
            assert len({model for _, model, _ in seen}) == 2
            for _, _, theta in seen:
                np.testing.assert_array_equal(theta, master)
        driver.backend.close()

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


class TestMeasureScaling:
    """The Figs. 11-12 harness times the run path: process ranks by
    default, on a copy of the caller's config."""

    def test_default_is_process_ranks_and_config_is_not_written(
            self, h2_problem, monkeypatch):
        launched = []

        class Recording(scaling.ProcessBackend):
            def __init__(self, n_ranks, **kw):
                launched.append(n_ranks)
                super().__init__(n_ranks=n_ranks, **kw)

        monkeypatch.setattr(scaling, "ProcessBackend", Recording)
        config = VMCConfig(n_samples=7, eloc_mode="sample_aware", seed=3)
        before = dataclasses.asdict(config)
        points = scaling.measure_scaling(
            lambda: build_qiankunnet(4, 1, 1, d_model=8, n_heads=2, n_layers=1,
                                     phase_hidden=(8,), seed=5),
            h2_problem.hamiltonian, [1, 2], n_samples_for=lambda n: 500 * n,
            n_iters=1, warmup_iters=0, config=config, nu_star_per_rank=2)
        assert launched == [1, 2]
        assert [p.n_samples for p in points] == [500, 1000]
        assert dataclasses.asdict(config) == before

    def test_point_is_the_median_of_its_iterations_with_their_iqr(
            self, h2_problem, monkeypatch):
        walls = iter([9.0, 4.0, 1.0, 3.0, 2.0, 5.0])  # warm-up first

        class Scripted:
            def __init__(self, wf, comp, cfg, backend):
                self.backend = SimpleNamespace(close=lambda: None)

            def step(self):
                wall = next(walls)
                return SimpleNamespace(
                    wall_time=wall, time_sampling=wall / 2,
                    time_local_energy=wall / 4, time_gradient=wall / 8,
                    n_unique=3, comm_bytes=10, comm_bytes_wire=0)

        monkeypatch.setattr(scaling, "VMC", Scripted)
        (point,) = scaling.measure_scaling(
            lambda: None, h2_problem.hamiltonian, [1],
            n_samples_for=lambda n: 100, n_iters=5, warmup_iters=1,
            backend="threads")
        # medians and spread of 4, 1, 3, 2, 5: the warm-up's 9 is dropped
        assert point.time_per_iter == 3.0
        assert point.time_per_iter_iqr == 2.0
        assert (point.time_sampling, point.time_gradient) == (1.5, 0.375)
        assert point.comm_bytes_wire == point.comm_bytes == 10
        modeled = scaling.model_scaling(point, [2, 4], n_qubits=4, n_params=50)
        assert [p.time_per_iter_iqr for p in modeled] == [0.0, 0.0]
