"""Built-in components: the repo's existing builders, registered by name.

Importing :mod:`repro.api` triggers this module, so every spec-addressable
name below is available without further setup.  The registrations wrap the
canonical builders (``build_qiankunnet``, ``NoamAdamW``) — the registry layer
adds *naming*, not new numerics.  Neither the sampler nor the local energy
is a component: stage 1 is the BAS sweep, every run uses the compiled
``ElocPlan``.

Registered names:

* ansatz: ``transformer`` (QiankunNet); ``register_ansatz`` takes any builder
  whose amplitude network answers ``TransformerAmplitude``'s protocol
* optimizer: ``adamw`` (AdamW + the Eq. 13 schedule — what ``VMC`` builds
  when handed none), ``sr``; both run inside the engine's stages 5 and 6
* backend: ``serial`` / ``threads`` / ``process`` — the execution backends
  of :mod:`repro.core.engine` — plus ``cluster``, the multi-host TCP
  transport of :mod:`repro.parallel.cluster` (the spec's ``parallel``
  section).
"""
from __future__ import annotations

from repro.api.registry import (
    register_ansatz,
    register_backend,
    register_optimizer,
)
from repro.core.engine import (
    NoamAdamW,
    ProcessBackend,
    SerialBackend,
    ThreadBackend,
)
from repro.core.sr import SRConfig, StochasticReconfiguration
from repro.core.wavefunction import build_qiankunnet
from repro.parallel.cluster import ClusterBackend

__all__ = []  # registration side effects only


# ------------------------------------------------------------------- ansätze
register_ansatz("transformer", build_qiankunnet)


# ---------------------------------------------------------------- optimizers
# The paper's optimizer: AdamW under the Eq. 13 schedule, clipped.  The class
# is the factory — it declares all four AdamW fields of the optimizer section.
register_optimizer("adamw", NoamAdamW)


@register_optimizer("sr")
def build_sr(wf, **params):
    """Stochastic reconfiguration (``params`` are the ``SRConfig`` fields)."""
    return StochasticReconfiguration(wf, SRConfig(**params))


# ---------------------------------------------------------- execution backends
# The classes are the factories: each declares, by ``ParallelSpec`` field
# name, exactly the values it reads (and checks what only it can check —
# serial's single rank, cluster's rendezvous address).
register_backend("serial", SerialBackend)
register_backend("threads", ThreadBackend)
register_backend("process", ProcessBackend)
register_backend("cluster", ClusterBackend)
