"""The unified VMC execution engine: one staged iteration, many backends.

Every execution backend — serial, thread ranks, forked process ranks,
cluster ranks — runs the *same* per-iteration stage functions, in the
data-centric order of Fig. 4 (Sec. 3.2):

  stage 1  sample           parallel BAS (Fig. 5) for N_p > 1: identical
                            seeded prefix sweep to the dynamic split step k,
                            then each rank finishes its weight-balanced share
                            of the layer-k nodes; a single rank runs the
                            plain serial sweep on the engine's persistent RNG
                            (bit-identical to the serial backend).
  stage 2  gather/table     Allgather of the packed unique samples and
                            weights; each rank runs the phase MLP over its
                            row chunk of the lexsorted global set and
                            allgathers (the sweep's log pi of its sampled
                            rows, phi of its chunk) into the global amplitude
                            table (Algorithm 2's id_lut/wf_lut).
  stage 3  eloc shard       each rank evaluates local energies for the same
                            chunk — contiguous rows, counts within 1 of each
                            other — against the table.
  stage 4  energy reduce    Allreduce of the weighted energy sums.
  stage 5  backward         the Eq. 7 gradient on the chunk — phi through
                            stage 2's kept forward, log pi by the amplitude
                            network's forward/VJP pair; float32, no tape —
                            accumulated into the arena's gradient buffer.
  stage 6  gradient reduce  one Allreduce carries the gradient *and* the
                            centered second moment (variance); then every
                            rank runs :func:`stage_update` (clip -> Eq. 13
                            -> AdamW), the only place parameters move.

Reductions are rank-ordered and therefore deterministic: ``n_ranks=1`` is
bit-identical to the serial backend, and ``n_ranks>1`` is run-to-run
reproducible and the same bits on every multi-rank backend.  Backends
differ only in how a rank gets its :class:`~repro.parallel.comm.Comm`:

* :class:`SerialBackend` — the stages inline, on the size-1 solo transport.
* :class:`ThreadBackend`, :class:`ProcessBackend` and
  :class:`~repro.parallel.cluster.ClusterBackend` — ranks of one SPMD run
  (:class:`SPMDBackend`, Fig. 4): follower threads, followers forked once,
  or one host per rank joined through the rendezvous.

The "engine" object the backends drive is any object with the VMC state
surface (``wf``, ``comp``, ``config``, ``rng``, ``optimizer``,
``iteration``, ``backend``, ``eloc_plan``) — in
practice :class:`repro.core.vmc.VMC`, which keeps the checkpoint/resume
format unchanged.
"""
from __future__ import annotations

import copy
import math
import time
import weakref
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.core.local_energy import (
    AmplitudeTable,
    ElocPlan,
    extend_amplitude_table,
    local_energy_planned,
)
from repro.core.sampler import (
    SampleBatch,
    bas_prefix_sweep,
    batch_autoregressive_sample,
)
from repro.dtypes import float64, int64
from repro.optim import AdamW
from repro.parallel.comm import Comm, CommStats, SoloTransport
from repro.parallel.partition import split_tree_state
from repro.utils.bitstrings import lexsort_keys, pack_bits, unpack_bits

__all__ = [
    "ELOC_MODES",
    "VMCConfig",
    "VMCStats",
    "NoamAdamW",
    "stats_record",
    "ExecutionBackend",
    "SerialBackend",
    "ThreadBackend",
    "ProcessBackend",
    "SPMDBackend",
    "stage_sample",
    "stage_sample_parallel",
    "stage_gather_table",
    "stage_partition",
    "stage_local_energy",
    "stage_backward",
    "stage_update",
    "execute_iteration",
]

ELOC_MODES = ("exact", "sample_aware")


@dataclass
class VMCConfig:
    """What stages 1-3 read.  The optimizer's numbers live on the optimizer
    (``VMC(optimizer=NoamAdamW(wf, warmup=...))``), the local-energy chunking
    on the run's ``ElocPlan``."""

    n_samples: int | Callable[[int], int] = 10**5
    eloc_mode: str = "exact"          # 'exact' | 'sample_aware'
    seed: int = 0
    # Sec. 3.4 / Fig. 9 memory story: caps the packed keys the local-energy
    # kernels materialize at a time (the plan's sample chunk and exact mode's
    # table extension shrink to fit).
    eloc_memory_budget_mb: float | None = None

    def __post_init__(self) -> None:
        if not callable(self.n_samples) and self.n_samples <= 0:
            raise ValueError(
                f"VMCConfig.n_samples must be positive, got {self.n_samples!r}"
            )
        if self.eloc_mode not in ELOC_MODES:
            raise ValueError(
                f"VMCConfig.eloc_mode must be one of {ELOC_MODES}, "
                f"got {self.eloc_mode!r}"
            )
        if self.eloc_memory_budget_mb is not None and self.eloc_memory_budget_mb <= 0:
            raise ValueError(
                "VMCConfig.eloc_memory_budget_mb must be None or positive, "
                f"got {self.eloc_memory_budget_mb!r}"
            )

    def eloc_memory_budget_bytes(self) -> int | None:
        if self.eloc_memory_budget_mb is None:
            return None
        return int(self.eloc_memory_budget_mb * 2**20)


@dataclass
class VMCStats:
    """One iteration's record — the same shape on every backend.

    The parallel fields default to their serial values (``comm_bytes`` /
    ``per_rank_unique`` are ``None`` on the serial backend), so one history
    type feeds ``best_energy``, the Trainer's metrics log, checkpoints and
    the scaling benches regardless of how the iteration executed.  Equality
    compares the *trajectory* (energies, counts, comm volume) — wall-clock
    timings are excluded, so bit-identical runs compare equal.
    """

    iteration: int
    energy: float
    variance: float
    n_unique: int
    n_samples: int
    lr: float
    eloc_imag: float  # residual imaginary part of the energy (sanity signal)
    wall_time: float = field(default=0.0, compare=False)
    time_sampling: float = field(default=0.0, compare=False)  # max over ranks
    time_local_energy: float = field(default=0.0, compare=False)
    time_gradient: float = field(default=0.0, compare=False)
    comm_bytes: int | None = None     # None: no communicator (serial backend)
    per_rank_unique: list[int] | None = field(default=None)
    # Wire bytes actually moved (<= comm_bytes: stage 2 is compressed); None on
    # serial iterations and on histories recorded before the split existed.
    comm_bytes_wire: int | None = None


def stats_record(stats: VMCStats) -> dict:
    """The metrics.jsonl form of one iteration's stats.

    Serial iterations keep the historical six-field record; iterations that
    ran on a communicating backend additionally carry the comm volume and the
    per-rank decomposition (asserted by the CI parallel smoke step).
    """
    rec = {
        "iteration": stats.iteration,
        "energy": stats.energy,
        "variance": stats.variance,
        "n_unique": stats.n_unique,
        "n_samples": stats.n_samples,
        "lr": stats.lr,
    }
    if stats.comm_bytes is not None:
        rec.update(
            comm_bytes=stats.comm_bytes,
            comm_bytes_wire=(
                stats.comm_bytes_wire
                if stats.comm_bytes_wire is not None
                else stats.comm_bytes
            ),
            wall_time=stats.wall_time,
            time_sampling=stats.time_sampling,
            time_local_energy=stats.time_local_energy,
            time_gradient=stats.time_gradient,
            per_rank_unique=list(stats.per_rank_unique or []),
        )
    return rec


# --------------------------------------------------------------------------
# Stage functions (the one implementation every backend schedules)
# --------------------------------------------------------------------------
def stage_sample(wf, n_samples: int,
                 rng: np.random.Generator) -> SampleBatch:
    """Stage 1, single rank: one BAS sweep."""
    return batch_autoregressive_sample(wf, n_samples, rng)


def stage_sample_parallel(wf, n_samples: int, seed: int, iteration: int,
                          nu_star: int, comm) -> SampleBatch:
    """Stage 1, N_p ranks: the parallel BAS of Fig. 5.

    Every rank replays the identical seeded prefix sweep up to the dynamic
    split step k (first layer holding >= N_u^* unique prefixes), takes its
    weight-balanced share of the layer-k nodes, and finishes the subtree with
    a rank-private stream.  Streams are derived from (seed, iteration, rank),
    so the iteration is reproducible from the checkpointed iteration counter
    alone — no RNG state crosses ranks.
    """
    rank, size = comm.Get_rank(), comm.Get_size()
    shared_rng = np.random.default_rng((seed, iteration, 0xBA5))
    state = bas_prefix_sweep(wf, n_samples, shared_rng, nu_star)
    my_state = split_tree_state(state, size)[rank]
    cont_rng = np.random.default_rng((seed, iteration, rank + 1))
    return batch_autoregressive_sample(wf, 0, cont_rng, start=my_state)


def _counts_nbytes(weights) -> int:
    """Logical bytes of the integer multiplicities at natural width: uint32
    when they fit (the common case — counts are bounded by the per-rank
    sample budget), uint64 for the paper's N_s -> 1e12 tail."""
    wide = weights.size and int(weights.max()) > 0xFFFFFFFF
    return weights.size * (8 if wide else 4)


def stage_gather_table(comm, wf, local: SampleBatch):
    """Stage 2: Allgather the unique sets; build the global amplitude table.

    Returns ``(keys, weights, table, phase)`` with the global unique set
    lexsorted — the rank-independent canonical order every chunk indexes
    into — and ``phase`` the :class:`~repro.core.wavefunction.PhaseForward`
    of this rank's chunk, for :func:`stage_backward` to differentiate.

    In order, over two typed channels:

    * ``stage2_samples`` — packed keys + integer counts.  Each rank lexsorts
      locally and ships a delta/varint payload (:mod:`repro.parallel.codec`)
      of this iteration's keys and counts alone; the logical size is the raw
      keys plus natural-width counts.
    * The row cut of the lexsorted global set (the cut
      :func:`stage_partition` hands stage 3) and one phase-MLP forward over
      this rank's chunk (``wf.phase_forward``: float32 GEMMs, no tape, row
      blocks), kept.
    * ``stage2_amps`` — one float64 array per rank, always raw (lossless
      float compression is not worth the cycles): ``log pi`` of the rank's
      sampled rows in its shipped key order, then ``phi`` of its chunk.  A
      receiver splits it by the count it decoded and the partition it cut;
      8 + 8 bytes per unique row, as one complex128 was.

    ``log psi = 0.5 log pi + i phi``.  The decoder is not evaluated here:
    ``log pi`` is ``local.log_prob``, which the stage-1 sweep accumulated
    along each row's tree path.  A batch without it did not come out of a
    sweep and is refused — ``wf.log_amplitudes`` is the evaluator for bits
    given from elsewhere, not a fallback of this stage.  Every backend and
    transport sweeps the same subtrees with the same streams at equal N_p,
    so they stay bit-identical to each other.  The global set is unique
    across ranks (disjoint BAS subtrees) and the codec is lossless, hence
    every rank builds the same table bit-for-bit.  On one rank nothing is
    gathered and the chunk is every row.
    """
    if local.log_prob is None:
        raise ValueError(
            "stage 2 needs SampleBatch.log_prob, the log pi a BAS sweep hands "
            "out with its rows; this batch did not come out of a sweep"
        )
    rank, size = comm.Get_rank(), comm.Get_size()
    local_keys = pack_bits(local.bits)
    order = lexsort_keys(local_keys)
    keys = local_keys[order]
    weights = local.weights.astype(int64)[order]
    n_sampled = [len(keys)]
    if size > 1:
        from repro.parallel.codec import decode_sample_payload, encode_sample_payload

        blobs = comm.allgather_blob(
            encode_sample_payload(keys, weights),
            logical_bytes=keys.nbytes + _counts_nbytes(weights),
            channel="stage2_samples",
        )
        # Own payload: skip the (lossless) decode.
        parts = [(keys, weights) if r == rank else decode_sample_payload(b)
                 for r, b in enumerate(blobs)]
        n_sampled = [len(k) for k, _ in parts]
        keys = np.concatenate([k for k, _ in parts], axis=0)
        weights = np.concatenate([c for _, c in parts])
        global_order = lexsort_keys(keys)
        keys, weights = keys[global_order], weights[global_order]

    # The cut stage_partition hands stage 3, computed here again rather than
    # called: the six stage functions run one after another, none inside
    # another, so each one's time is its own.
    chunks = np.array_split(np.arange(len(weights)), size)
    phi, phase = wf.phase_forward(unpack_bits(keys[chunks[rank]], wf.n_qubits))
    shipped = np.concatenate([local.log_prob[order], phi])
    amp_parts = [shipped]
    if size > 1:
        amp_parts = comm.allgather_ndarray(shipped, channel="stage2_amps")
    for r, part in enumerate(amp_parts):
        if len(part) != n_sampled[r] + len(chunks[r]):
            raise ValueError(
                f"stage 2: rank {r} shipped {len(part)} log pi + phi values for "
                f"{n_sampled[r]} sampled and {len(chunks[r])} chunk rows")
    log_prob = np.concatenate([p[:n] for p, n in zip(amp_parts, n_sampled)])
    phi = np.concatenate([p[n:] for p, n in zip(amp_parts, n_sampled)])
    if size > 1:
        log_prob = log_prob[global_order]
    table = AmplitudeTable(keys=keys, log_amps=0.5 * log_prob + 1j * phi)
    return keys, weights, table, phase


def stage_partition(weights, n_ranks: int) -> list:
    """Stage 3 prologue: split the global unique set into per-rank chunks —
    contiguous rows, counts within one of each other (the first
    ``len % n_ranks`` hold the extra row; on one rank, every row), the cut
    stage 2 ran the phase MLP over.  Stage 3 costs per row, however often
    it was sampled; sample weight is balanced where it predicts work, in
    stage 1's BAS tree split (:func:`~repro.parallel.partition.split_tree_state`).
    """
    return np.array_split(np.arange(len(weights)), n_ranks)


def stage_local_energy(wf, comp, chunk: SampleBatch, table: AmplitudeTable,
                       config: VMCConfig, plan: ElocPlan, params32=None):
    """Stage 3: local energies of one chunk against the global table.

    ``plan`` is the engine's compiled
    :class:`~repro.core.local_energy.ElocPlan` for ``comp``, built once per
    run and shared by every rank of every backend; it carries the chunking.
    ``params32`` is the phase MLP's float32 cast stage 2 keeps for stage 5
    (``PhaseForward.params32``): exact mode's table extension evaluates
    its phases on it rather than casting a second copy.
    """
    if config.eloc_mode == "exact":
        table = extend_amplitude_table(
            wf, comp, chunk, table,
            memory_budget_bytes=config.eloc_memory_budget_bytes(),
            params32=params32,
        )
    return local_energy_planned(comp, chunk, table, plan=plan)


def stage_backward(wf, chunk: SampleBatch, w_norm,
                   eloc, e_mean: float, e_imag: float, phase=None):
    """Stage 5: the Eq. 7 gradient, accumulated into the arena; returns it.

    grad = E_p[ Re(E_loc - E) grad log pi(x) ] + 2 E_p[ Im(E_loc - E) grad phi(x) ]

    with stop-gradient coefficients.  Both halves are sums over rows, and
    both are hand-derived VJPs off the tape that add in place into
    ``p.grad`` — views of the zeroed gradient buffer of ``wf``'s parameter
    arena — and a rank that owns no rows returns zeros.  No graph is built.

    * ``phi`` first: ``wf.phase_vjp`` (float32 GEMMs, the output bias in
      float64) differentiates ``phase``, stage 2's kept forward of this chunk
      (:func:`stage_gather_table`): no forward GEMM and no second float32
      cast, except for blocks past ``PHASE_KEEP_BYTES``, which it recomputes
      (every block when ``phase`` is ``None``).  It consumes ``phase``, so the
      kept activations are freed before the amplitude half allocates.
    * ``log pi``: ``wf.log_prob_vjp`` — ``ROW_BLOCK`` blocks of lexsorted
      rows, each block's prefix tree through the amplitude network's
      forward/VJP pair once (float32, feature-major; the masked log-softmax
      head in float64), so its memory is O(block).

    The halves write disjoint spans of the arena, so their order changes no
    bit.  DESIGN.md "Precision" has the audit.  The result *is* the arena
    buffer (no copy): valid until the next gradient is taken on ``wf``.
    """
    arena = wf.arena()
    arena.zero_grad(bind_all=True)
    wf.phase_vjp(chunk.bits, 2.0 * w_norm * (eloc.imag - e_imag), phase)
    wf.log_prob_vjp(chunk.bits, w_norm * (eloc.real - e_mean))
    return arena.grad


def _require_finite(where: str, **quantities: float) -> None:
    """Raise ``FloatingPointError`` naming every non-finite quantity.

    A NaN/Inf energy or gradient must stop the run *before* it reaches the
    history or AdamW's moment buffers, where it would poison every later
    iteration silently.
    """
    bad = [name for name, value in quantities.items() if not math.isfinite(value)]
    if bad:
        raise FloatingPointError(f"non-finite {', '.join(bad)} {where}")


def stage_update(opt: NoamAdamW, grad, grad_norm: float | None = None) -> None:
    """Stage 6 epilogue of ``opt``: clip -> Eq. 13 schedule -> AdamW step.

    ``grad`` is consumed: clipped in place, then overwritten by the AdamW
    kernel, which reads it where it lies (on the serial backend, the arena
    buffer stage 5 accumulated into).  ``grad_norm`` is the gradient's 2-norm
    when the caller already has it (``execute_iteration``'s non-finite guard
    computes it).
    """
    grad = np.asarray(grad)
    clip = opt.grad_clip
    if clip is not None:
        norm = np.linalg.norm(grad) if grad_norm is None else grad_norm
        if norm > clip:
            grad *= clip / norm
    opt.sched_i += 1
    opt.lr = opt.lr_at(opt.sched_i)
    opt.step(grad)


class NoamAdamW(AdamW):
    """The paper's update rule (Sec. 4.1): AdamW under the Eq. 13 schedule
    with paper default ``warmup = 4000``, the gradient clipped to
    ``grad_clip``.  :func:`stage_update` drives it; ``sched_i`` (the
    schedule's epoch) rides AdamW's checkpoint keys.
    """

    def __init__(self, wf, warmup: int = 4000, lr_scale: float = 1.0,
                 weight_decay: float = 0.01, grad_clip: float | None = 1.0):
        if warmup <= 0:
            raise ValueError(f"NoamAdamW.warmup must be positive, got {warmup!r}")
        if lr_scale <= 0:
            raise ValueError(
                f"NoamAdamW.lr_scale must be positive, got {lr_scale!r}"
            )
        if weight_decay < 0:
            raise ValueError(
                f"NoamAdamW.weight_decay must be >= 0, got {weight_decay!r}"
            )
        if grad_clip is not None and grad_clip <= 0:
            raise ValueError(
                f"NoamAdamW.grad_clip must be None or positive, got {grad_clip!r}"
            )
        super().__init__(wf, lr=0.0, weight_decay=weight_decay)
        self.d_model = wf.amplitude.d_model
        self.warmup = warmup
        self.lr_scale = lr_scale
        self.grad_clip = grad_clip
        self.sched_i = 0

    def lr_at(self, i: int) -> float:
        """Eq. 13: ``lr_scale * d_model^-0.5 * min(i^-0.5, i * warmup^-1.5)``."""
        i = max(i, 1)
        return (self.lr_scale * self.d_model**-0.5
                * min(i**-0.5, i * self.warmup**-1.5))

    def state_views(self) -> dict:
        return {**super().state_views(), "sched_i": np.array(self.sched_i)}

    def load_state(self, data) -> None:
        sched_i = int(data["sched_i"])  # read before anything is written
        super().load_state(data)
        self.sched_i = sched_i


# --------------------------------------------------------------------------
# The per-rank iteration body (shared verbatim by every backend)
# --------------------------------------------------------------------------
def _rank_iteration_stages(engine, comm, wf, rng, nu_star: int) -> dict:
    """Run stages 1-6 as one rank of ``comm``; returns the rank's results.

    With a size-1 communicator this *is* the serial iteration: the sample
    stage consumes the engine's persistent RNG, the collectives are
    identities, and the chunk is the whole unique set — which is what makes
    ``ThreadBackend(n_ranks=1)`` bit-identical to :class:`SerialBackend`.
    """
    cfg: VMCConfig = engine.config
    size = comm.Get_size()
    rank = comm.Get_rank()
    n_samples = engine._n_samples()
    times = {}

    # ---- stage 1: sample ---------------------------------------------------
    t0 = time.perf_counter()
    if size == 1:
        local = stage_sample(wf, n_samples, rng)
    else:
        local = stage_sample_parallel(
            wf, n_samples, cfg.seed, engine.iteration, nu_star, comm
        )
    times["sampling"] = time.perf_counter() - t0

    # ---- stage 2: allgather, this rank's phases, global amplitude table -----
    keys, weights, table, phase = stage_gather_table(comm, wf, local)
    n_u = len(weights)

    # ---- stage 3: local energy on this rank's chunk ------------------------
    t0 = time.perf_counter()
    idx = stage_partition(weights, size)[rank]
    chunk = SampleBatch(
        bits=unpack_bits(keys[idx], engine.comp.n_qubits),
        weights=weights[idx],
    )
    eloc = stage_local_energy(wf, engine.comp, chunk, table, cfg,
                              engine.eloc_plan, phase.params32)
    times["local_energy"] = time.perf_counter() - t0
    if not bool(np.all(np.isfinite(eloc))):
        raise FloatingPointError(
            f"non-finite local energy on rank {rank} after stage 3 "
            f"(local energy) of iteration {engine.iteration + 1}"
        )

    # ---- stage 4: allreduce the weighted energy sums -----------------------
    w_chunk = chunk.weights.astype(float64)
    local_sums = np.array(
        [np.sum(w_chunk * eloc.real), np.sum(w_chunk * eloc.imag), w_chunk.sum()]
    )
    sums = comm.allreduce_ndarray(local_sums)
    e_mean = sums[0] / sums[2]
    e_imag = sums[1] / sums[2]

    # ---- stage 5: Eq. 7 backward on the chunk ------------------------------
    t0 = time.perf_counter()
    stage_backward(wf, chunk, w_chunk / sums[2], eloc, e_mean, e_imag, phase)
    times["gradient"] = time.perf_counter() - t0

    # ---- stage 6: one allreduce for the gradient + centered 2nd moment -----
    # Stage 5 accumulated the gradient in the arena's M + 1 payload and the
    # variance takes the trailing slot, so nothing is concatenated.
    arena = wf.arena()
    arena.payload[-1] = np.sum(w_chunk * (eloc.real - e_mean) ** 2)
    # On a size-1 world the allreduce hands the payload itself back.
    packed = comm.allreduce_ndarray(arena.payload, channel="stage6_grads")
    grad_total, variance = packed[:-1], float(packed[-1] / sums[2])

    return {
        "grad": grad_total,
        "energy": float(e_mean),
        "eloc_imag": float(abs(e_imag)),
        "variance": variance,
        "n_unique": int(n_u),
        "n_local_unique": int(local.n_unique),
        "n_samples": int(n_samples),
        "times": times,
    }


# --------------------------------------------------------------------------
# Backends: thin schedulers over the stages
# --------------------------------------------------------------------------
class ExecutionBackend:
    """How the staged iteration executes; subclasses schedule the stages.

    ``execute(engine)`` runs stages 1-6 on this rank, the update included,
    and returns ``(rank_results, comm)`` where ``comm`` is ``None`` (no
    communicator) or the step's ``(logical_bytes, wire_bytes)`` pair.
    """

    name = "?"
    n_ranks = 1

    def execute(self, engine) -> tuple[list[dict], tuple[int, int] | None]:
        raise NotImplementedError

    def close(self) -> None:
        """Release live resources (other ranks, sockets); default none."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}(n_ranks={self.n_ranks})"


def _apply_update(engine, r0: dict) -> None:
    """The end of stage 6 on this rank: the non-finite guard, then
    :func:`stage_update` with the reduced gradient.  The guard fires before
    anything of the engine is touched, on every rank alike (the reduced
    values are the same bits everywhere)."""
    grad_norm = float(np.linalg.norm(np.asarray(r0["grad"])))
    _require_finite(
        f"before the stage 6 update of iteration {engine.iteration + 1}",
        energy=r0["energy"], variance=r0["variance"], gradient=grad_norm,
    )
    stage_update(engine.optimizer, r0["grad"], grad_norm)


class SerialBackend(ExecutionBackend):
    """The stages inline on a size-1 communicator (the classic serial VMC)."""

    name = "serial"

    def __init__(self, n_ranks: int = 1):
        if n_ranks != 1:
            raise ValueError(
                f"the serial backend runs exactly one rank (got n_ranks={n_ranks}); "
                "use parallel.backend=process or =cluster for N_p > 1"
            )

    def execute(self, engine) -> tuple[list[dict], tuple[int, int] | None]:
        result = _rank_iteration_stages(
            engine, Comm(SoloTransport()), engine.wf, engine.rng, nu_star=0,
        )
        _apply_update(engine, result)
        return [result], None


def _validate_rank_args(n_ranks: int) -> None:
    if not isinstance(n_ranks, int) or n_ranks < 1:
        raise ValueError(f"n_ranks must be a positive int, got {n_ranks!r}")


# The step header (int64) rank 0 sends before every step: go (1) or stop
# (0), the iteration, N_s, and whether theta or the optimizer state moved
# outside stage_update since the last step.
_GO, _ITERATION, _N_SAMPLES, _MOVED = range(4)
_STOP = (0, 0, 0, 0)


def _exchange_header(comm, header) -> np.ndarray:
    """Rank 0's header, its move flag or-ed with every rank's (a cluster host
    may have moved too).  Each rank ships its own, so a rank that left is
    named before any stage runs."""
    parts = comm.allgather_ndarray(np.asarray(header, dtype=int64))
    out = parts[0].copy()
    out[_MOVED] = max(p[_MOVED] for p in parts)
    return out


class _StateMark:
    """What rank 0 held after its last update, to tell whether theta or the
    optimizer state moved outside ``stage_update`` since.

    Theta is compared by value against one buffer, refreshed in place.  The
    moments are compared by identity: AdamW updates them in place only inside
    ``stage_update``, and a restore (``load_state``) replaces the arrays.
    ``opt_t`` and ``sched_i`` are compared by value.
    """

    def __init__(self, engine):
        self.theta = np.empty_like(engine.wf.arena().theta)
        self.mark(engine)

    def mark(self, engine) -> None:
        np.copyto(self.theta, engine.wf.arena().theta)
        # the moments themselves, not their ids: a freed id can be reused
        self.state = engine.optimizer.state_views()

    def moved(self, engine) -> bool:
        now, then = engine.optimizer.state_views(), self.state
        return not (now.keys() == then.keys()
                    and all(now[k] is then[k] if k in ("opt_m", "opt_v")
                            else now[k] == then[k] for k in now)
                    and np.array_equal(engine.wf.arena().theta, self.theta))


def _broadcast_state(engine, comm) -> None:
    """Rank 0's theta and optimizer state onto every rank: one counted
    allgather on channel ``resync``, ``[opt_t, sched_i, theta, m, v]`` from
    rank 0 and nothing from the others."""
    opt, theta = engine.optimizer, engine.wf.arena().theta
    mine = np.empty(0)
    if comm.Get_rank() == 0:
        st = opt.state_views()
        mine = np.concatenate([[st["opt_t"], st["sched_i"]], theta,
                               st.get("opt_m", []), st.get("opt_v", [])])
    got = comm.allgather_ndarray(mine, channel="resync")[0]
    if comm.Get_rank() != 0:
        n = theta.size
        engine.wf.set_flat_params(got[2:2 + n])
        state = {"opt_t": int(got[0]), "sched_i": int(got[1])}
        if len(got) > 2 + n:
            state["opt_m"], state["opt_v"] = got[2 + n:2 + 2 * n], got[2 + 2 * n:]
        opt.load_state(state)


def _spmd_iteration(engine, comm, nu_star: int, resync: bool):
    """One step as one rank of an SPMD run, after the header: the state
    broadcast if asked for, stages 1-6, the stats exchange, the update.

    Returns ``(rank_results, (logical, wire), comm_stats)`` of the broadcast
    and the stages.  The header and the stats exchange (wall times and
    unique counts of every rank, so each rank's record has max-over-ranks
    times and ``per_rank_unique``) are bookkeeping, left out.
    """
    comm.stats = CommStats()
    if resync:
        _broadcast_state(engine, comm)
    out = _rank_iteration_stages(engine, comm, engine.wf, engine.rng, nu_star=nu_star)
    stats, comm.stats = comm.stats, CommStats()
    t = out["times"]
    gathered = comm.allgather_ndarray(np.array(
        [t["sampling"], t["local_energy"], t["gradient"], out["n_local_unique"]]))
    results = [{"times": dict(zip(t, map(float, g[:3]))), "n_local_unique": int(g[3])}
               for g in gathered]
    results[0].update({key: out[key] for key in (
        "grad", "energy", "eloc_imag", "variance", "n_unique", "n_samples")})
    _apply_update(engine, results[0])
    return results, (stats.total_bytes, stats.total_wire_bytes), stats


class _Follower:
    """What a follower rank's step reads: its own model and optimizer, the
    run's read-only parts, and the iteration and N_s of rank 0's header."""

    def __init__(self, engine, wf, optimizer):
        self.wf, self.optimizer, self.rng = wf, optimizer, None
        self.comp, self.config = engine.comp, engine.config
        self.eloc_plan = engine.eloc_plan
        self.iteration = self.n_samples = 0

    def _n_samples(self) -> int:
        return self.n_samples


def _follow(rank: _Follower, comm, nu_star: int) -> None:
    """Ranks 1..N_p-1 of a thread or process launch: one step per header
    until rank 0 says stop.  The wait for a header has no timeout; rank 0
    leaving is the ``CommAbortError`` that ends the rank."""
    while True:
        comm.transport.wait_for(0)
        header = _exchange_header(comm, _STOP)
        if not header[_GO]:
            return
        rank.iteration, rank.n_samples = int(header[_ITERATION]), int(header[_N_SAMPLES])
        _spmd_iteration(rank, comm, nu_star, bool(header[_MOVED]))


class SPMDBackend(ExecutionBackend):
    """This rank's end of an SPMD run (Fig. 4): N_p ranks, each with its own
    model replica, optimizer state and data from the first step after
    construction (or :meth:`close`) until :meth:`close`.

    Every rank runs the same step — header, state broadcast if asked for,
    stages 1-6, stats exchange, update — so every subclass gives the same
    history bits at equal N_p; a subclass only says how this rank gets its
    :class:`~repro.parallel.comm.Comm` (:meth:`_launch`).  N_u^* =
    ``nu_star_per_rank * n_ranks`` (the paper: 16384 per GPU).  With
    ``n_ranks=1`` the iteration is bit-identical to :class:`SerialBackend`.

    Rank 0 compares theta and the optimizer state with what it held after
    its last update: a move outside ``stage_update`` (checkpoint restore,
    ``set_flat_params``) sets the header's flag and costs one counted
    broadcast, so no rank trains another theta.  A step that raises aborts
    the launch; the next step starts it again.  ``last_comm_stats`` is the
    last step's :class:`~repro.parallel.comm.CommStats`.
    """

    # Thread and process launches: rank 0 tells its followers to stop.
    _leads_followers = True

    def __init__(self, n_ranks: int, nu_star_per_rank: int = 64,
                 collective_timeout_s: float = 600.0):
        _validate_rank_args(n_ranks)
        self.n_ranks = n_ranks
        self.nu_star_per_rank = nu_star_per_rank
        self.collective_timeout_s = float(collective_timeout_s)
        self.last_comm_stats = self._comm = self._stop = self._synced = None

    def _launch(self, engine) -> tuple[Comm, Callable[[], None]]:
        """Start the ranks: ``(this rank's comm, stop)``; ``stop`` releases the
        comm and ends what the launch started, and must not refer to
        ``self`` (it also runs when the backend is garbage-collected)."""
        raise NotImplementedError

    def execute(self, engine) -> tuple[list[dict], tuple[int, int] | None]:
        if self._comm is None:
            self._comm, stop = self._launch(engine)
            self._stop = weakref.finalize(self, stop)
            self._synced = _StateMark(engine)
        comm, multi = self._comm, self._comm.Get_size() > 1
        try:
            moved = multi and self._synced.moved(engine)
            header = _exchange_header(
                comm, (1, engine.iteration, engine._n_samples(), moved))
            results, pair, self.last_comm_stats = _spmd_iteration(
                engine, comm, self.nu_star_per_rank * self.n_ranks,
                bool(header[_MOVED]))
        except BaseException as exc:
            comm.transport.abort(f"rank {comm.Get_rank()} raised {exc!r}")
            self._shut_down()
            raise
        if multi:
            self._synced.mark(engine)
        return results, pair

    def close(self) -> None:
        """Stop the other ranks and release every socket (idempotent); the
        next step starts them again."""
        if self._comm is None:
            return
        if self._leads_followers and self._comm.Get_size() > 1:
            try:
                _exchange_header(self._comm, _STOP)
            except (RuntimeError, OSError):
                pass   # a rank already gone: the others see rank 0 leave
        self._shut_down()

    def _shut_down(self) -> None:
        stop = self._stop
        self._comm = self._stop = self._synced = None
        stop()


class ThreadBackend(SPMDBackend):
    """Ranks 1..N_p-1 in follower threads, each on one deep copy of the model
    and its optimizer, made before any rank runs.  The tests' and benchmarks'
    in-process launcher, not a run option: GIL-bound, it is slower than
    :class:`ProcessBackend` at every measured N_s."""

    name = "threads"

    def _launch(self, engine):
        from repro.parallel.multiprocess import start_thread_ranks

        replicas = [_Follower(engine, *copy.deepcopy((engine.wf, engine.optimizer)))
                    for _ in range(1, self.n_ranks)]
        nu_star = self.nu_star_per_rank * self.n_ranks

        def follow(comm):
            _follow(replicas[comm.Get_rank() - 1], comm, nu_star)

        return start_thread_ranks(self.n_ranks, follow, self.collective_timeout_s)


class ProcessBackend(SPMDBackend):
    """Ranks 1..N_p-1 forked once each (Linux), each on its private copy of
    the model and optimizer.  ``join_timeout_s`` bounds :meth:`close`'s wait
    for the forks to exit before stragglers are killed."""

    name = "process"

    def __init__(self, n_ranks: int, nu_star_per_rank: int = 64,
                 collective_timeout_s: float = 600.0,
                 join_timeout_s: float = 60.0):
        super().__init__(n_ranks, nu_star_per_rank, collective_timeout_s)
        self.join_timeout_s = float(join_timeout_s)

    def _launch(self, engine):
        from repro.parallel.multiprocess import start_process_ranks

        nu_star = self.nu_star_per_rank * self.n_ranks

        def follow(comm):
            _follow(_Follower(engine, engine.wf, engine.optimizer), comm, nu_star)

        return start_process_ranks(self.n_ranks, follow, self.collective_timeout_s,
                                   join_timeout=self.join_timeout_s)


# --------------------------------------------------------------------------
# The engine step: the backend's stages and update, then the stats record
# --------------------------------------------------------------------------
def execute_iteration(engine) -> VMCStats:
    """One full VMC iteration of ``engine``: its backend runs stages 1-6 and
    the update; this advances the iteration counter and returns the unified
    stats record (the caller owns history bookkeeping)."""
    t_wall = time.perf_counter()
    results, comm = engine.backend.execute(engine)
    wall = time.perf_counter() - t_wall
    engine.iteration += 1
    r0 = results[0]
    return VMCStats(
        iteration=engine.iteration,
        energy=r0["energy"],
        variance=r0["variance"],
        n_unique=r0["n_unique"],
        n_samples=r0["n_samples"],
        lr=engine.optimizer.lr,
        eloc_imag=r0["eloc_imag"],
        wall_time=wall,
        time_sampling=max(r["times"]["sampling"] for r in results),
        time_local_energy=max(r["times"]["local_energy"] for r in results),
        time_gradient=max(r["times"]["gradient"] for r in results),
        comm_bytes=None if comm is None else comm[0],
        per_rank_unique=(
            None if comm is None else [r["n_local_unique"] for r in results]
        ),
        comm_bytes_wire=None if comm is None else comm[1],
    )
