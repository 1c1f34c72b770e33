"""Built-in components: the repo's existing builders, registered by name.

Importing :mod:`repro.api` triggers this module, so every spec-addressable
name below is available without further setup.  The registrations wrap the
canonical builders (``build_qiankunnet``, the backend classes) — the
registry layer adds *naming*, not new numerics.  Neither the sampler, the
local energy nor the optimizer is a component: stage 1 is the BAS sweep,
every run uses the compiled ``ElocPlan`` and trains with ``NoamAdamW``.

Registered names:

* ansatz: ``transformer`` (QiankunNet); ``register_ansatz`` takes any builder
  whose amplitude network answers ``TransformerAmplitude``'s protocol
* backend: ``serial`` / ``threads`` / ``process`` — the execution backends
  of :mod:`repro.core.engine` — plus ``cluster``, the multi-host TCP
  transport of :mod:`repro.parallel.cluster` (the spec's ``parallel``
  section).
"""
from __future__ import annotations

from repro.api.registry import register_ansatz, register_backend
from repro.core.engine import ProcessBackend, SerialBackend, ThreadBackend
from repro.core.wavefunction import build_qiankunnet
from repro.parallel.cluster import ClusterBackend

__all__ = []  # registration side effects only


# ------------------------------------------------------------------- ansätze
register_ansatz("transformer", build_qiankunnet)


# ---------------------------------------------------------- execution backends
# The classes are the factories: each declares, by ``ParallelSpec`` field
# name, exactly the values it reads (and checks what only it can check —
# serial's single rank, cluster's rendezvous address).
register_backend("serial", SerialBackend)
register_backend("threads", ThreadBackend)
register_backend("process", ProcessBackend)
register_backend("cluster", ClusterBackend)
