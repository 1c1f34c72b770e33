"""Strong/weak scaling harness (Figs. 11 and 12).

The paper measures time-per-iteration of the three profiled stages (sampling,
local energy, backpropagation) on 4..64 GPUs for benzene/6-31G (120 qubits).
Our substitution (DESIGN.md): process-rank measurements on a molecule that
fits this host, reported next to an analytic extrapolation calibrated from
the measured single-rank stage times plus the byte-accurate communication
model.  The *shape* — parallel efficiency decreasing gently with rank count,
sampling the least scalable stage because of the shared prefix sweep — is the
reproduced result.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.core.engine import ProcessBackend, ThreadBackend
from repro.core.vmc import VMC, VMCConfig
from repro.core.wavefunction import NNQSWavefunction
from repro.hamiltonian.compressed import CompressedHamiltonian
from repro.parallel.comm_model import CommVolumeModel

__all__ = ["ScalingPoint", "measure_scaling", "model_scaling", "parallel_efficiency"]


@dataclass
class ScalingPoint:
    n_ranks: int
    n_samples: int
    time_per_iter: float
    time_sampling: float
    time_local_energy: float
    time_gradient: float
    n_unique: int
    comm_bytes: int
    comm_bytes_wire: int = 0


def measure_scaling(
    wf_factory,
    comp: CompressedHamiltonian,
    rank_counts: list[int],
    n_samples_for: callable,
    n_iters: int = 3,
    warmup_iters: int = 1,
    config: VMCConfig | None = None,
    nu_star_per_rank: int = 64,
    backend: str = "process",
) -> list[ScalingPoint]:
    """Measure per-iteration stage times for each rank count.

    ``wf_factory()`` must return a *fresh identically-seeded* wavefunction so
    every rank count optimizes the same model; ``n_samples_for(n_ranks)``
    fixes the workload (constant for strong scaling, proportional for weak);
    ``config`` is copied per rank count, never written to.  Iterations run
    on the unified engine's :class:`ProcessBackend` (default: one fork per
    follower rank, what ``parallel.backend=process`` runs), the GIL-bound
    :class:`ThreadBackend` (``backend="threads"``, for bit-identity checks)
    or the SPMD cluster transport over localhost TCP (``backend="cluster"``:
    one full driver per rank in a thread, meeting inside the socket
    collectives — rank 0's stats speak for the world since SPMD
    trajectories are identical).
    """
    if backend not in ("threads", "process", "cluster"):
        raise ValueError(
            f"measure_scaling backend must be 'threads', 'process' or "
            f"'cluster', got {backend!r}"
        )
    points = []
    for n_ranks in rank_counts:
        cfg = replace(config or VMCConfig(eloc_mode="sample_aware"),
                      n_samples=n_samples_for(n_ranks))
        if backend == "cluster":
            stats = _cluster_iteration_stats(
                wf_factory, comp, cfg, n_ranks,
                nu_star_per_rank=nu_star_per_rank,
                n_iters=n_iters, warmup_iters=warmup_iters,
            )
        else:
            wf: NNQSWavefunction = wf_factory()
            backend_cls = ThreadBackend if backend == "threads" else ProcessBackend
            driver = VMC(
                wf, comp, cfg,
                backend=backend_cls(n_ranks=n_ranks,
                                    nu_star_per_rank=nu_star_per_rank),
            )
            for _ in range(warmup_iters):
                driver.step()
            stats = [driver.step() for _ in range(n_iters)]
            driver.backend.close()
        points.append(
            ScalingPoint(
                n_ranks=n_ranks,
                n_samples=cfg.n_samples,
                time_per_iter=float(np.median([s.wall_time for s in stats])),
                time_sampling=float(np.median([s.time_sampling for s in stats])),
                time_local_energy=float(np.median([s.time_local_energy for s in stats])),
                time_gradient=float(np.median([s.time_gradient for s in stats])),
                n_unique=stats[-1].n_unique,
                comm_bytes=stats[-1].comm_bytes,
                comm_bytes_wire=(stats[-1].comm_bytes_wire
                                 or stats[-1].comm_bytes),
            )
        )
    return points


def _cluster_iteration_stats(wf_factory, comp, cfg, n_ranks, *,
                             nu_star_per_rank, n_iters, warmup_iters):
    """Run ``n_ranks`` SPMD cluster ranks as localhost threads and return
    rank 0's per-iteration stats.

    Each thread plays one host: it rendezvouses with an in-process
    coordinator, builds the TCP mesh, and drives a *full* VMC — exactly the
    multi-host deployment, minus the physical network.  SPMD determinism
    makes every rank's trajectory identical, so rank 0 speaks for the world.
    """
    import threading

    from repro.parallel.cluster import ClusterBackend, MeshTransport
    from repro.parallel.comm import Comm
    from repro.parallel.rendezvous import RendezvousCoordinator

    coord = RendezvousCoordinator(world_size=n_ranks)
    host, port = coord.start()
    addr = f"{host}:{port}"
    per_rank: list = [None] * n_ranks
    failures: list = []

    def run_rank(rank: int) -> None:
        comm = None
        try:
            comm = Comm(MeshTransport(n_ranks, addr, rank=rank))
            driver = VMC(
                wf_factory(), comp, cfg,
                backend=ClusterBackend(
                    n_ranks=n_ranks, nu_star_per_rank=nu_star_per_rank,
                    comm=comm,
                ),
            )
            for _ in range(warmup_iters):
                driver.step()
            per_rank[rank] = [driver.step() for _ in range(n_iters)]
        except BaseException as exc:  # noqa: BLE001 - re-raised below
            failures.append((rank, exc))
        finally:
            if comm is not None:
                comm.close()

    threads = [
        threading.Thread(target=run_rank, args=(r,), daemon=True)
        for r in range(n_ranks)
    ]
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    finally:
        coord.stop()
    if failures:
        rank, exc = failures[0]
        raise RuntimeError(f"cluster rank {rank} failed: {exc!r}") from exc
    return per_rank[0]


def parallel_efficiency(points: list[ScalingPoint], mode: str = "strong") -> list[float]:
    """Efficiency relative to the first point (the paper's green curves)."""
    base = points[0]
    out = []
    for p in points:
        if mode == "strong":
            ideal = base.time_per_iter * base.n_ranks / p.n_ranks
        else:  # weak scaling: constant time is ideal
            ideal = base.time_per_iter
        out.append(ideal / p.time_per_iter)
    return out


def model_scaling(
    base: ScalingPoint,
    rank_counts: list[int],
    n_qubits: int,
    n_params: int,
    mode: str = "strong",
    link_bandwidth_gbs: float = 25.0,
    serial_fraction_sampling: float = 0.07,
    imbalance_per_ratio: float = 0.012,
) -> list[ScalingPoint]:
    """Analytic extrapolation beyond the host's core count.

    Calibrated from a measured base point: the local-energy and gradient
    stages divide by the rank ratio (they are embarrassingly parallel over
    unique samples); sampling carries a serial component — the shared prefix
    sweep of Fig. 5, whose dynamic split threshold keeps it to a few percent
    of the sampling stage (``serial_fraction_sampling = 0.07`` reproduces the
    paper's measured strong-scaling efficiencies: 84% @32, 68% @64); in weak
    mode the BAS-tree pruning imbalance the paper describes grows with rank
    count (``imbalance_per_ratio`` is calibrated to the paper's 84.3% @64);
    per-iteration fixed overhead (parameter sync etc.) is taken from the base
    point; communication adds the Sec. 3.2 volume over a
    ``link_bandwidth_gbs`` interconnect.  This is the documented substitution
    for the 64-GPU axis of Figs. 11/12.
    """
    stage_sum = base.time_sampling + base.time_local_energy + base.time_gradient
    overhead = max(base.time_per_iter - stage_sum, 0.0)
    out = []
    for n in rank_counts:
        ratio = n / base.n_ranks
        if mode == "strong":
            n_unique = base.n_unique
            work_scale = 1.0 / ratio
        else:
            n_unique = int(base.n_unique * ratio)
            work_scale = 1.0
        imbalance = 1.0 + (imbalance_per_ratio * (ratio - 1.0) if mode == "weak" else 0.0)
        t_eloc = base.time_local_energy * work_scale * imbalance
        t_grad = base.time_gradient * work_scale * imbalance
        serial = base.time_sampling * serial_fraction_sampling
        t_sample = (serial + (base.time_sampling - serial) * work_scale) * imbalance
        comm = CommVolumeModel(n_qubits, n_unique, n, n_params)
        t_comm = comm.total_bytes / (link_bandwidth_gbs * 1e9)
        out.append(
            ScalingPoint(
                n_ranks=n,
                n_samples=int(base.n_samples * (ratio if mode == "weak" else 1.0)),
                time_per_iter=overhead + t_sample + t_eloc + t_grad + t_comm,
                time_sampling=t_sample,
                time_local_energy=t_eloc,
                time_gradient=t_grad,
                n_unique=n_unique,
                comm_bytes=comm.total_bytes,
                comm_bytes_wire=comm.compressed_total_bytes,
            )
        )
    return out
