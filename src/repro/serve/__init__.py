"""The serving layer: concurrent wavefunction evaluation as a service.

Turns a trained NNQS ansatz into a long-lived, versioned artifact that many
concurrent consumers query — the production-inference shape the paper's
batched sampler and amplitude LUT are already built for.  See DESIGN.md
("Serving") for the architecture:

* :class:`WavefunctionService` — request APIs (``sample``,
  ``log_amplitudes``, ``conditional_probs``, ``local_energy``) behind a
  microbatching scheduler;
* :class:`MicroBatcher` — bounded-queue request coalescing with
  latency/batch-size knobs and backpressure;
* :class:`PrefixSessionCache` — live KV-cache sessions reused across
  ``conditional_probs`` requests;
* :class:`ModelRegistry` — versioned, immutable model snapshots; clients
  pin a version while training publishes new ones;
* :class:`~repro.serve.net.NetServer` — the HTTP/JSON front door over one in-process
  service (``python -m repro serve <run_dir> --port P``).
"""
from repro._lazy import lazy_exports

_EXPORTS = {
    "BatcherStats": ".scheduler",
    "MicroBatcher": ".scheduler",
    "ModelRegistry": ".registry",
    "PrefixSessionCache": ".service",
    "ServeConfig": ".service",
    "ServiceClosedError": ".scheduler",
    "ServiceOverloadedError": ".scheduler",
    "WavefunctionService": ".service",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
