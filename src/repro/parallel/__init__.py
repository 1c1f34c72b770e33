"""Data-centric parallelization (Sec. 3.2/3.3): Comm, parallel BAS, scaling.

The parallel iteration itself lives in :mod:`repro.core.engine` (the unified
execution engine); this package provides the one communicator it runs over
(:class:`Comm`) and the transports under it — :func:`run_spmd` thread ranks,
:func:`run_spmd_processes` forked ranks, :func:`create_cluster_comm`
multi-host TCP ranks — plus the BAS tree partitioning, the
communication-volume model, and the scaling harness.  The engine backends
are re-exported here for discoverability.
"""
from repro.core.engine import ProcessBackend, SerialBackend, ThreadBackend
from repro.parallel.comm import Comm, CommAbortError, CommStats
from repro.parallel.fake_mpi import run_spmd
from repro.parallel.multiprocess import run_spmd_processes
from repro.parallel.partition import balanced_weight_partition, split_tree_state
from repro.parallel.comm_model import CommVolumeModel, comm_volume_bytes
from repro.parallel.cluster import ClusterBackend, create_cluster_comm
from repro.parallel.rendezvous import (
    ClusterProtocolError,
    RendezvousCoordinator,
)
from repro.parallel.scaling import (
    ScalingPoint,
    measure_scaling,
    model_scaling,
    parallel_efficiency,
)

__all__ = [
    "Comm",
    "CommAbortError",
    "CommStats",
    "run_spmd",
    "run_spmd_processes",
    "balanced_weight_partition",
    "split_tree_state",
    "CommVolumeModel",
    "comm_volume_bytes",
    "SerialBackend",
    "ThreadBackend",
    "ProcessBackend",
    "ClusterBackend",
    "create_cluster_comm",
    "ClusterProtocolError",
    "RendezvousCoordinator",
    "ScalingPoint",
    "measure_scaling",
    "model_scaling",
    "parallel_efficiency",
]
