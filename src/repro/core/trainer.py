"""High-level training orchestration — the paper's Sec. 4.1 protocol.

The paper trains in two phases: a pre-training stage with a small sample
budget (N_s = 1e5 for the first ~100 iterations) followed by a growing
budget (up to 1e12) "for accurate calculation", assessed by convergence
precision.  The budget is the :class:`~repro.core.vmc.VMC`'s own
(``VMCConfig.n_samples = default_ns_schedule(...)``); :class:`Trainer` drives
the ``VMC`` it is handed — the one training loop, whatever the optimizer or
execution backend — and adds the rest of the protocol:

* optional supervised warm start on the HF determinant;
* periodic checkpointing (resumable runs);
* plateau-based early stopping (``repro.core.diagnostics.detect_plateau``);
* a machine-readable run log (JSON lines: iteration, energy, variance, N_u);
* a final :class:`TrainReport` with the trailing-window energy, the
  zero-variance extrapolation and, when references are supplied, the error
  against FCI and the recovered correlation fraction.
"""
from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from repro.core.checkpoint import load_checkpoint, save_checkpoint
from repro.core.engine import stats_record
from repro.core.diagnostics import (
    correlation_energy_fraction,
    detect_plateau,
    v_score,
    zero_variance_extrapolation,
)
from repro.core.pretrain import pretrain_to_reference
from repro.core.vmc import VMC, VMCStats, best_energy
from repro.utils.atomic import atomic_write

__all__ = ["TrainConfig", "TrainReport", "Trainer", "build_report"]


@dataclass
class TrainConfig:
    """Loop policy only: budget, warm start, stopping, checkpoint/log cadence.
    What an iteration does is the ``VMC``'s (its config, optimizer, backend)."""

    max_iterations: int = 1000
    pretrain_steps: int = 200          # 0 disables the warm start
    pretrain_target: float = 0.5
    # Iterations the N_s schedule stays flat (default_ns_schedule's value):
    # no plateau can be declared before the budget has started growing.
    pretrain_iters: int = 100
    plateau_window: int = 100
    plateau_rel_tol: float = 1e-7
    early_stop: bool = True
    checkpoint_every: int = 0          # 0 disables
    checkpoint_path: str | Path | None = None
    log_path: str | Path | None = None
    log_every: int = 0                 # console prints

    def __post_init__(self) -> None:
        if self.max_iterations <= 0:
            raise ValueError(
                "TrainConfig.max_iterations must be positive, "
                f"got {self.max_iterations!r}"
            )
        if self.pretrain_steps < 0:
            raise ValueError(
                "TrainConfig.pretrain_steps must be >= 0, "
                f"got {self.pretrain_steps!r}"
            )
        if self.pretrain_iters < 0:
            raise ValueError(
                "TrainConfig.pretrain_iters must be >= 0, "
                f"got {self.pretrain_iters!r}"
            )
        if self.plateau_window <= 0:
            raise ValueError(
                "TrainConfig.plateau_window must be positive, "
                f"got {self.plateau_window!r}"
            )
        if self.checkpoint_every < 0:
            raise ValueError(
                "TrainConfig.checkpoint_every must be >= 0, "
                f"got {self.checkpoint_every!r}"
            )


@dataclass
class TrainReport:
    energy: float
    best_energy: float
    iterations: int
    wall_time: float
    stopped_early: bool
    extrapolated_energy: float | None
    v_score: float | None
    error_vs_reference: float | None = None
    correlation_fraction: float | None = None
    # Cumulative communication volume over the run (None when every
    # iteration was serial): logical = natural-width payloads, wire = what
    # the typed/compressed transport actually moved.
    comm_bytes_logical: int | None = None
    comm_bytes_wire: int | None = None

    def to_dict(self) -> dict:
        """JSON-native form — written as ``report.json`` by the run driver."""
        return asdict(self)

    def summary(self) -> str:
        lines = [
            f"iterations        {self.iterations}"
            + ("  (early stop: plateau)" if self.stopped_early else ""),
            f"final energy      {self.energy:+.6f} Ha",
            f"best energy       {self.best_energy:+.6f} Ha",
        ]
        if self.extrapolated_energy is not None:
            lines.append(f"zero-var extrap.  {self.extrapolated_energy:+.6f} Ha")
        if self.error_vs_reference is not None:
            lines.append(f"|E - E_ref|       {abs(self.error_vs_reference):.2e} Ha")
        if self.correlation_fraction is not None:
            lines.append(f"corr. recovered   {100 * self.correlation_fraction:.1f}%")
        if self.comm_bytes_logical is not None:
            lines.append(
                f"comm volume       {self.comm_bytes_logical / 2**20:.1f} MB "
                f"logical / {(self.comm_bytes_wire or 0) / 2**20:.1f} MB wire"
            )
        lines.append(f"wall time         {self.wall_time:.1f} s")
        return "\n".join(lines)


def build_report(
    history: list[VMCStats],
    n_qubits: int,
    wall_time: float,
    stopped_early: bool,
    e_hf: float | None = None,
    e_reference: float | None = None,
    best_window: int = 20,
) -> TrainReport:
    """Distill a stats history into a :class:`TrainReport`.

    A function of the history alone — the variance-weighted trailing-window
    best energy, the zero-variance extrapolation, and the reference-energy
    comparisons — so any list of :class:`VMCStats` reports the same way.
    """
    if not history:
        raise RuntimeError("training has not produced any iterations")
    energy = history[-1].energy
    best = best_energy(history, best_window)
    extrap = None
    score = None
    try:
        res = zero_variance_extrapolation(history, window=min(50, len(history)))
        if res.reliable:
            extrap = res.energy
    except ValueError:
        pass
    if history[-1].energy != 0.0:
        score = v_score(best, history[-1].variance, n_qubits)
    err = frac = None
    if e_reference is not None:
        err = best - e_reference
        if e_hf is not None and abs(e_hf - e_reference) > 1e-14:
            frac = correlation_energy_fraction(best, e_hf, e_reference)
    comm_iters = [s for s in history if s.comm_bytes is not None]
    comm_logical = comm_wire = None
    if comm_iters:
        comm_logical = sum(int(s.comm_bytes) for s in comm_iters)
        comm_wire = sum(
            int(s.comm_bytes_wire if s.comm_bytes_wire is not None
                else s.comm_bytes)
            for s in comm_iters
        )
    return TrainReport(
        energy=energy,
        best_energy=best,
        iterations=history[-1].iteration,
        wall_time=wall_time,
        stopped_early=stopped_early,
        extrapolated_energy=extrap,
        v_score=score,
        error_vs_reference=err,
        correlation_fraction=frac,
        comm_bytes_logical=comm_logical,
        comm_bytes_wire=comm_wire,
    )


class Trainer:
    """Run the full Sec. 4.1 training protocol on the ``VMC`` it is given."""

    def __init__(
        self,
        vmc: VMC,
        config: TrainConfig | None = None,
        hf_bits: np.ndarray | None = None,
        e_hf: float | None = None,
        e_reference: float | None = None,
    ):
        self.vmc = vmc
        self.wf = vmc.wf
        self.config = config or TrainConfig()
        self.hf_bits = hf_bits
        self.e_hf = e_hf
        self.e_reference = e_reference
        self._log_file = None

    # --------------------------------------------------------------- logging
    def _log(self, record: dict) -> None:
        if self.config.log_path is None:
            return
        if self._log_file is None:
            self._log_file = open(self.config.log_path, "a")
        self._log_file.write(json.dumps(record) + "\n")
        self._log_file.flush()

    # ------------------------------------------------------------------ main
    def resume(self, path: str | Path) -> None:
        """Restore a checkpoint written by a previous :meth:`train` call.

        The run log is cut back to the checkpoint: rows a killed run logged
        after its last checkpoint are about to be logged again, and a torn
        last line would otherwise end up mid-file.  Whole records up to the
        restored iteration (and event records, which carry none) stay.
        """
        load_checkpoint(self.vmc, path)
        log_path = self.config.log_path
        if log_path is None or not Path(log_path).exists():
            return
        kept = []
        for line in Path(log_path).read_text().splitlines():
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                continue
            if record.get("iteration", 0) <= self.vmc.iteration:
                kept.append(line + "\n")
        with atomic_write(log_path) as f:
            f.writelines(kept)

    def train(self, on_iteration: Callable[[VMCStats], None] | None = None) -> TrainReport:
        """Run to ``max_iterations`` (or plateau) and report.

        ``on_iteration``, when given, is called with each iteration's
        :class:`~repro.core.vmc.VMCStats` after logging/checkpointing — the
        hook the run driver uses for periodic snapshot publication.  It must
        not consume the VMC RNG if bit-reproducibility matters.
        """
        cfg = self.config
        t0 = time.perf_counter()

        if cfg.pretrain_steps > 0 and self.hf_bits is not None and self.vmc.iteration == 0:
            pi = pretrain_to_reference(
                self.wf, self.hf_bits, n_steps=cfg.pretrain_steps,
                target_prob=cfg.pretrain_target,
            )
            self._log({"event": "pretrain", "pi_hf": pi})

        stopped_early = False
        try:
            while self.vmc.iteration < cfg.max_iterations:
                stats = self.vmc.step()
                self._log(stats_record(stats))
                if cfg.log_every and stats.iteration % cfg.log_every == 0:
                    print(
                        f"iter {stats.iteration:5d}  E = {stats.energy:+.6f} Ha  "
                        f"var = {stats.variance:.2e}  N_u = {stats.n_unique}  "
                        f"N_s = {stats.n_samples:.0e}"
                    )
                if (
                    cfg.checkpoint_every
                    and cfg.checkpoint_path is not None
                    and stats.iteration % cfg.checkpoint_every == 0
                ):
                    save_checkpoint(self.vmc, cfg.checkpoint_path)
                if on_iteration is not None:
                    on_iteration(stats)
                if (
                    cfg.early_stop
                    and stats.iteration > cfg.pretrain_iters + 2 * cfg.plateau_window
                    and detect_plateau(self.vmc.history, cfg.plateau_window,
                                       cfg.plateau_rel_tol)
                ):
                    stopped_early = True
                    break
            if cfg.checkpoint_path is not None:
                save_checkpoint(self.vmc, cfg.checkpoint_path)
        finally:
            # Also on the guard's FloatingPointError, a CommAbortError, Ctrl-C.
            if self._log_file is not None:
                self._log_file.close()
                self._log_file = None

        return build_report(
            self.vmc.history, self.wf.n_qubits, time.perf_counter() - t0,
            stopped_early, e_hf=self.e_hf, e_reference=self.e_reference,
        )
