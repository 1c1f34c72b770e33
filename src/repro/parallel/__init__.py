"""Data-centric parallelization (Sec. 3.2/3.3): Comm, launchers, parallel BAS.

The parallel iteration itself lives in :mod:`repro.core.engine` (the unified
execution engine); this package provides the one communicator it runs over
(:class:`Comm`) and the launchers that give a rank its transport —
:func:`start_thread_ranks` thread ranks, :func:`start_process_ranks` forked
ranks, :class:`~repro.parallel.cluster.MeshTransport` multi-host TCP ranks
joined through the rendezvous — plus the BAS tree partitioning.  The
engine backends are re-exported here for discoverability.  The scaling
harness of Figs. 11-12 and the Sec. 3.2 communication-volume model measure
around this package and live beside the benches (``benchmarks/scaling.py``).
"""
from repro._lazy import lazy_exports

_EXPORTS = {
    "Comm": ".comm",
    "CommAbortError": ".comm",
    "CommStats": ".comm",
    "start_thread_ranks": ".multiprocess",
    "start_process_ranks": ".multiprocess",
    "balanced_weight_partition": ".partition",
    "split_tree_state": ".partition",
    "SerialBackend": "repro.core.engine",
    "ThreadBackend": "repro.core.engine",
    "ProcessBackend": "repro.core.engine",
    "ClusterBackend": ".cluster",
    "ClusterProtocolError": ".rendezvous",
    "RendezvousCoordinator": ".rendezvous",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
