"""The serving layer: concurrent wavefunction evaluation as a service.

Turns a trained NNQS ansatz into a long-lived, versioned artifact that many
concurrent consumers query — the production-inference shape the paper's
batched sampler and amplitude LUT are already built for.  See DESIGN.md
("Serving layer") for the architecture:

* :class:`WavefunctionService` — request APIs (``sample``,
  ``log_amplitudes``, ``conditional_probs``, ``local_energy``) behind a
  microbatching scheduler;
* :class:`MicroBatcher` — bounded-queue request coalescing with
  latency/batch-size knobs and backpressure;
* :class:`SessionPool` / :class:`PrefixSessionCache` — KV-cache reuse
  across requests;
* :class:`ModelRegistry` — versioned, immutable model snapshots; clients
  pin a version while training publishes new ones.
"""
from repro._lazy import lazy_exports

_EXPORTS = {
    "BatcherStats": ".scheduler",
    "MicroBatcher": ".scheduler",
    "ModelRegistry": ".registry",
    "PrefixSessionCache": ".pool",
    "ServeConfig": ".service",
    "ServiceClosedError": ".scheduler",
    "ServiceOverloadedError": ".scheduler",
    "SessionPool": ".pool",
    "WavefunctionService": ".service",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
