"""The variational Monte Carlo driver (Fig. 1): sample -> E_loc -> gradient.

One iteration (see :mod:`repro.core.engine` for the staged pipeline):

1. Batch autoregressive sampling produces N_u unique samples with weights.
2. Amplitudes of the unique set are tabulated (wf_lut, Algorithm 2) and the
   local energies evaluated with the run's compiled ``ElocPlan``.
3. The energy estimate is the weighted mean (Eq. 6) and the gradient follows
   Eq. 7; with Psi = sqrt(pi) e^{i phi} it splits into

   grad = E_p[ Re(E_loc - E) * grad log pi(x) ] + 2 E_p[ Im(E_loc - E) * grad phi(x) ]

   implemented as a surrogate scalar loss with stop-gradient coefficients.
4. The run's optimizer updates the parameters — by default AdamW under the
   Eq. 13 schedule (``NoamAdamW``); ``VMC(optimizer=)`` takes a configured
   one or any other (SR).

:class:`VMC` owns the iteration *state* (wavefunction, optimizer, RNG,
history — the checkpoint surface); *how* an iteration executes is the
``backend``'s job: :class:`~repro.core.engine.SerialBackend` (default),
``ThreadBackend`` or ``ProcessBackend`` all schedule the same stage
functions, so the serial driver and the data-parallel drivers share exactly
one implementation of the update, whichever optimizer computes it.

The pre-training protocol of Sec. 4.1 (small N_s for the first iterations,
then growing toward 1e12) is a callable ``VMCConfig.n_samples``:
:func:`default_ns_schedule`.
"""
from __future__ import annotations

from typing import Callable

import numpy as np

from repro.core.engine import (
    ELOC_MODES,
    ExecutionBackend,
    NoamAdamW,
    SerialBackend,
    VMCConfig,
    VMCStats,
    execute_iteration,
)
from repro.core.local_energy import ElocPlan
from repro.core.wavefunction import NNQSWavefunction
from repro.hamiltonian.compressed import CompressedHamiltonian, compress_hamiltonian
from repro.hamiltonian.qubit_hamiltonian import QubitHamiltonian

__all__ = [
    "ELOC_MODES",
    "VMCConfig",
    "VMCStats",
    "VMC",
    "best_energy",
    "default_ns_schedule",
]


def default_ns_schedule(pretrain_iters: int = 100, ns_pretrain: int = 10**5,
                        ns_max: int = 10**12,
                        ns_growth: float = 1.3) -> Callable[[int], int]:
    """The paper's sample-budget schedule: small N_s early, growing to 1e12."""
    if pretrain_iters < 0:
        raise ValueError(
            f"default_ns_schedule.pretrain_iters must be >= 0, got {pretrain_iters!r}"
        )
    for name, value in (("ns_pretrain", ns_pretrain), ("ns_max", ns_max),
                        ("ns_growth", ns_growth)):
        if value <= 0:
            raise ValueError(
                f"default_ns_schedule.{name} must be positive, got {value!r}"
            )

    def schedule(iteration: int) -> int:
        if iteration < pretrain_iters:
            return ns_pretrain
        n = ns_pretrain * ns_growth ** (iteration - pretrain_iters)
        return int(min(n, ns_max))

    return schedule


class VMC:
    """The VMC optimizer: engine state + a pluggable execution backend.

    Everything that shapes a run arrives as an object: ``config`` (what
    stages 1-3 read), ``backend`` (an ``ExecutionBackend``; default serial),
    ``array_backend`` (a ``repro.backend`` name or instance; default numpy)
    and ``optimizer`` (default ``NoamAdamW(wf)``, the paper's AdamW + Eq. 13).
    ``eloc_plan`` is compiled here under the config's byte budget; assign
    another ``ElocPlan`` to run stage 3 with different chunking.
    """

    def __init__(self, wf: NNQSWavefunction,
                 hamiltonian: QubitHamiltonian | CompressedHamiltonian,
                 config: VMCConfig | None = None,
                 backend: ExecutionBackend | None = None,
                 array_backend=None, optimizer=None):
        from repro.backend import get_backend

        self.wf = wf
        # The array backend every xp allocation of the staged iteration lands
        # on (name, ArrayBackend instance, or None for the numpy default).
        self.array_backend = get_backend(array_backend or "numpy")
        self.comp = (
            hamiltonian
            if isinstance(hamiltonian, CompressedHamiltonian)
            else compress_hamiltonian(hamiltonian)
        )
        self.config = config or VMCConfig()
        self.backend = backend or SerialBackend()
        # Compiled once per run: the local-energy plan — Hamiltonian-static
        # scaffolds shared by all ranks of every backend (stage 3 runs it).
        self.eloc_plan = ElocPlan(
            self.comp,
            memory_budget_bytes=self.config.eloc_memory_budget_bytes(),
        )
        self.rng = np.random.default_rng(self.config.seed)
        # Stage 5 asks it for the update direction, stage 6 for the parameter
        # step (the contract is NoamAdamW's docstring).
        self.optimizer = optimizer if optimizer is not None else NoamAdamW(wf)
        if self.backend.n_ranks > 1 and self.optimizer.single_rank_reason:
            raise ValueError(
                f"{type(self.optimizer).__name__} cannot run on "
                f"{self.backend.n_ranks} ranks: "
                f"{self.optimizer.single_rank_reason}"
            )
        self.iteration = 0
        self.history: list[VMCStats] = []
        # Cross-iteration diff baseline for the stage-2 codec: the previous
        # iteration's lexsorted global unique set (multi-rank codec runs
        # only); part of the checkpoint surface so resume stays bitwise.
        self.comm_baseline: np.ndarray | None = None

    # ------------------------------------------------------------ internals
    def _n_samples(self) -> int:
        ns = self.config.n_samples
        return ns(self.iteration) if callable(ns) else ns

    # ------------------------------------------------------------ main loop
    def step(self) -> VMCStats:
        stats = execute_iteration(self)
        self.history.append(stats)
        return stats

    def run(self, n_iterations: int, log_every: int = 0,
            callback: Callable[[VMCStats], None] | None = None) -> list[VMCStats]:
        for _ in range(n_iterations):
            stats = self.step()
            if callback is not None:
                callback(stats)
            if log_every and stats.iteration % log_every == 0:
                print(
                    f"iter {stats.iteration:5d}  E = {stats.energy:+.6f} Ha  "
                    f"var = {stats.variance:.2e}  N_u = {stats.n_unique}"
                )
        return self.history

    def best_energy(self, window: int = 20) -> float:
        """Variance-weighted energy over the trailing window (final estimate)."""
        return best_energy(self.history, window)


def best_energy(history: list[VMCStats], window: int = 20) -> float:
    """Variance-weighted mean energy over the trailing ``window`` iterations.

    The final-estimate convention shared by :meth:`VMC.best_energy` and
    :func:`repro.core.trainer.build_report` — one definition, so the number
    printed by a driver and the one written to ``report.json`` agree.  Works
    on any backend's history: serial and parallel iterations report the same
    unified :class:`~repro.core.engine.VMCStats` (variance included).
    """
    tail = history[-window:]
    if not tail:
        raise RuntimeError("no VMC iterations have run")
    es = np.array([s.energy for s in tail])
    vs = np.array([max(s.variance, 1e-12) for s in tail])
    wts = 1.0 / vs
    return float(np.sum(wts * es) / np.sum(wts))
