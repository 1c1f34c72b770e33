"""Built-in components: the repo's existing builders, registered by name.

Importing :mod:`repro.api` triggers this module, so every spec-addressable
name below is available without further setup.  The registrations wrap the
canonical builders (``build_qiankunnet``, ``NoamAdamW``, ``batch_autoregressive_
sample``) — the registry layer adds *naming*, not new numerics.  The local
energy is not a component: every run uses the compiled ``ElocPlan``.

Registered names:

* ansatz: ``transformer`` (QiankunNet), ``made``, ``naqs-mlp``, ``rbm``
* optimizer: ``adamw`` (AdamW + the Eq. 13 schedule — what ``VMC`` builds
  when handed none), ``sr``; both run inside the engine's stages 5 and 6
* sampler: ``bas`` (batch autoregressive), ``hybrid`` (independent-stream
  merge, Sec. 4.4), ``mcmc`` (Metropolis exchange moves)
* backend: ``serial`` / ``threads`` / ``process`` — the execution backends
  of :mod:`repro.core.engine` — plus ``cluster``, the multi-host TCP/MPI
  transport of :mod:`repro.parallel.cluster` (the spec's ``parallel``
  section).
"""
from __future__ import annotations

import numpy as np

from repro.api.registry import (
    register_ansatz,
    register_backend,
    register_optimizer,
    register_sampler,
)
from repro.core.engine import (
    NoamAdamW,
    ProcessBackend,
    SerialBackend,
    ThreadBackend,
)
from repro.core.hybrid_sampling import merged_batch_sample
from repro.core.mcmc import metropolis_sample
from repro.core.sampler import batch_autoregressive_sample
from repro.core.sr import SRConfig, StochasticReconfiguration
from repro.core.wavefunction import build_qiankunnet
from repro.nn.rbm import RBMWavefunction
from repro.parallel.cluster import ClusterBackend

__all__ = []  # registration side effects only


# ------------------------------------------------------------------- ansätze
def _autoregressive_builder(amplitude_type: str):
    def build(n_qubits: int, n_up: int, n_dn: int, *, seed: int = 0, **params):
        return build_qiankunnet(
            n_qubits, n_up, n_dn, amplitude_type=amplitude_type, seed=seed,
            **params,
        )

    build.__name__ = f"build_{amplitude_type.replace('-', '_')}"
    return build


for _kind in ("transformer", "made", "naqs-mlp"):
    register_ansatz(_kind, _autoregressive_builder(_kind))


@register_ansatz("rbm")
def build_rbm(n_qubits: int, n_up: int, n_dn: int, *, seed: int = 0,
              alpha: int = 2):
    """The RBM baseline (MCMC-sampled; trains through ``repro.core.mcmc``).

    The exact signature (no ``**params``) lets the driver filter out the
    autoregressive architecture fields; typos in ``ansatz.params`` still
    raise the natural ``TypeError``.
    """
    del n_up, n_dn  # the RBM itself is sector-agnostic; MCMC moves conserve N
    return RBMWavefunction(n_qubits, alpha=alpha,
                           rng=np.random.default_rng(seed))


# ---------------------------------------------------------------- optimizers
# The paper's optimizer: AdamW under the Eq. 13 schedule, clipped.  The class
# is the factory — it declares all four AdamW fields of the optimizer section.
register_optimizer("adamw", NoamAdamW)


@register_optimizer("sr")
def build_sr(wf, **params):
    """Stochastic reconfiguration (``params`` are the ``SRConfig`` fields)."""
    return StochasticReconfiguration(wf, SRConfig(**params))


# ------------------------------------------------------------------ samplers
@register_sampler("bas")
def build_bas_sampler(*, cache_budget_bytes: int | None = None):
    """Batch autoregressive sampling (Fig. 3b) — the paper's sampler."""

    def sample(wf, n_samples, rng):
        return batch_autoregressive_sample(
            wf, n_samples, rng, cache_budget_bytes=cache_budget_bytes,
        )

    return sample


@register_sampler("hybrid")
def build_hybrid_sampler(*, n_streams: int = 4):
    """Independent-stream BAS merge (Sec. 4.4 outlook)."""

    def sample(wf, n_samples, rng):
        batch, _ = merged_batch_sample(wf, n_samples, rng, n_streams=n_streams)
        return batch

    return sample


@register_sampler("mcmc")
def build_mcmc_sampler(*, start_bits=None, n_burnin: int = 200, thin: int = 2):
    """Single-chain Metropolis sampling (the RBM baseline's sampler).

    ``start_bits`` (the chain's starting determinant, e.g. the HF bits) is
    bound at factory time; the driver passes the problem's ``hf_bits``.
    """
    if start_bits is None:
        raise ValueError(
            "mcmc sampler needs start_bits (e.g. the problem's hf_bits)"
        )
    start = np.asarray(start_bits, dtype=np.uint8)

    def sample(wf, n_samples, rng):
        batch, _ = metropolis_sample(
            wf, start, n_samples, rng, n_burnin=n_burnin, thin=thin,
        )
        return batch

    return sample


# ---------------------------------------------------------- execution backends
# The classes are the factories: each declares, by ``ParallelSpec`` field
# name, exactly the values it reads (and checks what only it can check —
# serial's single rank, cluster's rendezvous address).
register_backend("serial", SerialBackend)
register_backend("threads", ThreadBackend)
register_backend("process", ProcessBackend)
register_backend("cluster", ClusterBackend)
