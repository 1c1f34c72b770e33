"""The unified VMC execution engine: one staged iteration, many backends.

Every execution backend — serial, thread ranks, forked process ranks — runs
the *same* per-iteration stage functions, in the data-centric order of
Fig. 4 (Sec. 3.2):

  stage 1  sample           parallel BAS (Fig. 5) for N_p > 1: identical
                            seeded prefix sweep to the dynamic split step k,
                            then each rank finishes its weight-balanced share
                            of the layer-k nodes; a single rank runs the
                            plain serial sweep on the engine's persistent RNG
                            (bit-identical to the serial backend).
  stage 2  gather/table     Allgather of (packed unique samples, weights,
                            log amplitudes = the sweep's log pi + the phase
                            MLP); lexsorted into the global amplitude table
                            (Algorithm 2's id_lut/wf_lut).
  stage 3  eloc shard       each rank evaluates local energies for its
                            weight-balanced chunk of the global unique set
                            (Sec. 3.3 load balancing) against the table.
  stage 4  energy reduce    Allreduce of the weighted energy sums.
  stage 5  backward         the run's optimizer computes its update direction
                            on the chunk — for AdamW the Eq. 7 surrogate loss
                            + backward, for SR the natural-gradient solve.
  stage 6  gradient reduce  one Allreduce carries the direction *and* the
                            centered second moment (variance), so parallel
                            histories report variance/eloc_imag exactly like
                            serial ones.

The reduced direction flows back to the engine, which hands it to the same
optimizer's parameter step (for AdamW clip -> schedule -> update) — the only
place a run's parameters move, shared by all backends and all optimizers.
Reductions are rank-ordered and therefore deterministic: ``n_ranks=1`` is
bit-identical to the serial backend, and ``n_ranks>1`` is run-to-run
reproducible.

Backends are thin schedulers over the stages; every rank of every backend
talks through the one :class:`repro.parallel.comm.Comm`, and the backends
differ only in the transport under it:

* :class:`SerialBackend`  — the stages inline, on the size-1 solo transport.
* :class:`ThreadBackend`  — thread ranks over
  :func:`repro.parallel.fake_mpi.run_spmd` (numpy kernels release the GIL,
  so stages 1/3/5 genuinely overlap on multicore hosts).
* :class:`ProcessBackend` — forked OS processes over
  :func:`repro.parallel.multiprocess.run_spmd_processes`.

The "engine" object the backends drive is any object with the VMC state
surface (``wf``, ``comp``, ``config``, ``rng``, ``optimizer``,
``iteration``, ``backend``, ``array_backend``, ``eloc_plan``,
``comm_baseline``) — in practice :class:`repro.core.vmc.VMC`, which
keeps the checkpoint/resume format unchanged.
"""
from __future__ import annotations

import copy
import math
import time
import weakref
from dataclasses import dataclass, field
from typing import Callable

from repro.autograd import Tensor
from repro.backend import active_backend, counter_delta, use_backend, xp
from repro.backend.dtypes import float64, int64, uint32, uint64
from repro.backend.host import host_np
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
from repro.core.wavefunction import row_blocks, token_order
from repro.optim import AdamW, NoamSchedule
from repro.utils.bitstrings import lexsort_keys, pack_bits, unpack_bits

__all__ = [
    "ELOC_MODES",
    "ELOC_PARTITIONS",
    "VMCConfig",
    "VMCStats",
    "NoamAdamW",
    "stats_record",
    "ExecutionBackend",
    "SerialBackend",
    "ThreadBackend",
    "ProcessBackend",
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
ELOC_PARTITIONS = ("balanced", "contiguous")


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
    # Wire bytes actually moved (<= comm_bytes with the codec on); None on
    # serial iterations and on histories recorded before the split existed.
    comm_bytes_wire: int | None = None
    # Array-backend transfer/allocation counters (instrumented backends only;
    # None on the numpy backend).  Observability data: excluded from equality,
    # from stats_record (metrics.jsonl stays bit-identical across backends)
    # and from checkpoints; surfaced through report.json's backend section.
    transfers: dict | None = field(default=None, compare=False)


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
                 rng: host_np.random.Generator) -> SampleBatch:
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
    from repro.parallel.partition import split_tree_state

    rank, size = comm.Get_rank(), comm.Get_size()
    shared_rng = host_np.random.default_rng((seed, iteration, 0xBA5))
    state = bas_prefix_sweep(wf, n_samples, shared_rng, nu_star)
    my_state = split_tree_state(state, size)[rank]
    cont_rng = host_np.random.default_rng((seed, iteration, rank + 1))
    return batch_autoregressive_sample(wf, 0, cont_rng, start=my_state)


def _counts_array(weights):
    """Integer multiplicities at natural width: uint32 when they fit (the
    common case — counts are bounded by the per-rank sample budget), uint64
    for the paper's N_s -> 1e12 tail."""
    if weights.size and int(weights.max()) > 0xFFFFFFFF:
        return weights.astype(uint64)
    return weights.astype(uint32)


def stage_gather_table(comm, wf, local: SampleBatch, *, codec: bool = True,
                       baseline=None):
    """Stage 2: Allgather the unique sets; build the global amplitude table.

    Returns ``(keys, weights, table)`` with the global unique set lexsorted —
    the rank-independent canonical order every chunk indexes into.

    The multi-rank payload is split into two typed channels:

    * ``stage2_samples`` — packed keys + integer counts.  With ``codec``
      on, each rank lexsorts locally and ships a delta/varint payload
      (:mod:`repro.parallel.codec`), diffed against ``baseline`` (the
      previous iteration's global unique set) when one is available; with
      ``codec`` off the keys and uint32 counts travel as raw typed arrays.
    * ``stage2_amps`` — the complex128 log-amplitudes, always raw (lossless
      float compression is not worth the cycles).

    The decoder is not evaluated here: ``log pi`` of every local row is
    ``local.log_prob``, which the stage-1 sweep accumulated along the row's
    tree path, and only the phase MLP runs (``wf.phases``, no tape, row
    blocks).  A batch without it did not come out of a sweep and is refused —
    ``wf.log_amplitudes`` is the evaluator for bits given from elsewhere, not
    a fallback of this stage.  Every backend, transport and codec sweeps the
    same subtrees with the same streams at equal N_p, so they stay
    bit-identical to each other.  The global set is unique across ranks
    (disjoint BAS subtrees), hence the final lexsort yields the same table
    bit-for-bit regardless of the wire encoding.
    """
    if local.log_prob is None:
        raise ValueError(
            "stage 2 needs SampleBatch.log_prob, the log pi a BAS sweep hands "
            "out with its rows; this batch did not come out of a sweep"
        )
    local_keys = pack_bits(local.bits)
    # The stage-2 comm boundary: log-amplitudes leave the device exactly once
    # per rank and iteration, entering the host-resident global table (and,
    # multi-rank, the stage2_amps collective).
    local_amps = active_backend().to_host(
        0.5 * local.log_prob + 1j * wf.phases(local.bits), tag="stage2.amps"
    )
    if comm.Get_size() == 1:
        order = lexsort_keys(local_keys)
        keys = local_keys[order]
        weights = local.weights.astype(int64)[order]
        amps = local_amps[order]
        return keys, weights, AmplitudeTable(keys=keys, log_amps=amps)

    order = lexsort_keys(local_keys)
    skeys = local_keys[order]
    sweights = local.weights.astype(int64)[order]
    samps = local_amps[order]
    rank = comm.Get_rank()
    if codec:
        from repro.parallel.codec import (
            decode_sample_payload,
            encode_sample_payload,
        )

        blob = encode_sample_payload(skeys, sweights, baseline=baseline)
        logical = skeys.nbytes + _counts_array(sweights).nbytes
        blobs = comm.allgather_blob(blob, logical_bytes=logical,
                                    channel="stage2_samples")
        key_parts, weight_parts = [], []
        for r, b in enumerate(blobs):
            if r == rank:  # own payload: skip the (lossless) decode
                key_parts.append(skeys)
                weight_parts.append(sweights)
            else:
                k, c = decode_sample_payload(b, baseline=baseline)
                key_parts.append(k)
                weight_parts.append(c)
    else:
        counts = _counts_array(sweights)
        key_parts = comm.allgather_ndarray(skeys, channel="stage2_samples")
        weight_parts = [
            c.astype(int64)
            for c in comm.allgather_ndarray(counts, channel="stage2_samples")
        ]
    amp_parts = comm.allgather_ndarray(samps, channel="stage2_amps")
    keys = xp.concatenate(key_parts, axis=0)
    weights = xp.concatenate(weight_parts)
    amps = xp.concatenate(amp_parts)
    order = lexsort_keys(keys)
    keys, weights, amps = keys[order], weights[order], amps[order]
    return keys, weights, AmplitudeTable(keys=keys, log_amps=amps)


def stage_partition(weights, n_ranks: int,
                    mode: str = "balanced") -> list:
    """Stage 3 prologue: split the global unique set into per-rank chunks.

    ``balanced`` (default) reuses the Sec. 3.3 weight-balancing heuristic —
    contiguous cuts of ~equal total sample weight — instead of the naive
    contiguous ``1/N_p`` count split (kept as ``contiguous`` for the
    benchmark comparison).
    """
    if mode == "balanced":
        from repro.parallel.partition import balanced_weight_partition

        return balanced_weight_partition(weights, n_ranks)
    if mode != "contiguous":
        raise ValueError(
            f"eloc partition mode must be one of {ELOC_PARTITIONS}, got {mode!r}"
        )
    n = len(weights)
    return [
        xp.arange(r * n // n_ranks, (r + 1) * n // n_ranks, dtype=int64)
        for r in range(n_ranks)
    ]


def stage_local_energy(wf, comp, chunk: SampleBatch, table: AmplitudeTable,
                       config: VMCConfig, plan: ElocPlan):
    """Stage 3: local energies of one chunk against the global table.

    ``plan`` is the engine's compiled
    :class:`~repro.core.local_energy.ElocPlan` for ``comp``, built once per
    run and shared by every rank of every backend; it carries the chunking.
    """
    if config.eloc_mode == "exact":
        table = extend_amplitude_table(
            wf, comp, chunk, table,
            memory_budget_bytes=config.eloc_memory_budget_bytes(),
        )
    return local_energy_planned(comp, chunk, table, plan=plan)


def _surrogate_backward(wf, bits, coeff_amp, coeff_phase) -> None:
    """Tape the Eq. 7 surrogate on ``bits`` and accumulate into ``p.grad``.

    Its own function so the block's graph dies on return — a caller looping
    over row blocks never holds two blocks' activations at once.
    """
    logp = wf.log_prob(bits)
    phi = wf.phase_of(bits)
    loss = (Tensor(coeff_amp) * logp).sum() + (Tensor(coeff_phase) * phi).sum()
    loss.backward()


def stage_backward(wf, chunk: SampleBatch, w_norm,
                   eloc, e_mean: float, e_imag: float):
    """Stage 5: Eq. 7 surrogate loss + backward; returns the flat gradient.

    grad = E_p[ Re(E_loc - E) grad log pi(x) ] + 2 E_p[ Im(E_loc - E) grad phi(x) ]

    implemented as a scalar loss with stop-gradient coefficients.  The loss is
    a sum over rows, so it is taped and back-propagated one row block at a
    time (``wavefunction.row_blocks``) with the tape accumulating in place
    into ``p.grad`` — views of the zeroed gradient buffer of ``wf``'s
    parameter arena: peak activation memory is O(block), not O(N_u), and a
    rank that owns no rows returns zeros.  The blocks are cut from the rows
    in token order, so a block's rows share prefixes — what ``wf.log_prob``
    tapes once per distinct prefix — whatever the ansatz's ``reverse_order``
    (for the default order that is the key order the chunk arrives in).  The
    result *is* the arena buffer (no copy): valid until the next gradient is
    taken on ``wf``.
    """
    arena = wf.arena()
    arena.zero_grad(bind_all=True)
    coeff_amp = w_norm * (eloc.real - e_mean)
    coeff_phase = 2.0 * w_norm * (eloc.imag - e_imag)
    order = token_order(wf.bits_to_tokens(chunk.bits))
    for rows in row_blocks(len(order)):
        idx = order[rows]
        _surrogate_backward(wf, chunk.bits[idx], coeff_amp[idx], coeff_phase[idx])
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
    grad = xp.asarray(grad)
    clip = opt.grad_clip
    if clip is not None:
        norm = xp.linalg.norm(grad) if grad_norm is None else grad_norm
        if norm > clip:
            grad *= clip / norm
    opt.schedule.step()
    opt.step(grad)


class NoamAdamW(AdamW):
    """The paper's update rule, and the shape of every optimizer a run can
    name — what stages 5 and 6 ask of ``engine.optimizer``, and nothing else:

    * ``direction(wf, chunk, w_norm, eloc, e_mean, e_imag)`` — stage 5, on
      this rank's ``wf``: the flat update direction of its chunk (here the
      Eq. 7 gradient, :func:`stage_backward`); stage 6 sums over ranks.  The
      M-vector may be ``wf``'s arena gradient buffer itself (it is here): it
      is valid until the next ``direction`` on that ``wf``.
    * ``apply(direction, norm)`` — stage 6 epilogue, on the master after the
      non-finite guard: the parameter step (here :func:`stage_update`), which
      may overwrite ``direction``.
    * ``lr`` — the learning rate the stats row reports.
    * ``state()`` / ``load_state(data)`` — arrays under their checkpoint keys.
    * ``single_rank_reason`` — ``None`` when the sum of per-rank directions
      is the whole-batch direction; otherwise why it needs one rank.
    """

    single_rank_reason: str | None = None

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
        # A proxy, not self: without the cycle a finished run's moments and
        # model are freed by refcount (8 MiB of peak RSS on h2_converge).
        self.schedule = NoamSchedule(
            weakref.proxy(self), d_model=wf.amplitude.d_model,
            warmup=warmup, scale=lr_scale,
        )
        self.grad_clip = grad_clip

    def direction(self, wf, chunk, w_norm, eloc, e_mean, e_imag):
        return stage_backward(wf, chunk, w_norm, eloc, e_mean, e_imag)

    def apply(self, direction, norm: float) -> None:
        stage_update(self, direction, norm)

    def state(self) -> dict:
        return {**super().state(), "sched_i": host_np.array(self.schedule.i)}

    def load_state(self, data) -> None:
        sched_i = int(data["sched_i"])  # read before anything is written
        super().load_state(data)
        self.schedule.i = sched_i


# --------------------------------------------------------------------------
# The per-rank iteration body (shared verbatim by every backend)
# --------------------------------------------------------------------------
def _rank_iteration(engine, comm, wf, rng, nu_star: int,
                    eloc_partition: str) -> dict:
    """Run stages 1-6 as one rank of ``comm``; returns the rank's results.

    With a size-1 communicator this *is* the serial iteration: the sample
    stage consumes the engine's persistent RNG, the collectives are
    identities, and the chunk is the whole unique set — which is what makes
    ``ThreadBackend(n_ranks=1)`` bit-identical to :class:`SerialBackend`.

    The whole body runs under the engine's array backend (``use_backend``),
    so every ``xp`` allocation in the stages lands on it.  On instrumented
    backends the counters are snapshotted around stage 1, and the per-rank
    deltas ship back as ``out['transfers']`` — the data behind the residency
    contract's "zero unplanned host transfers inside the sampling loop".
    """
    array_backend = engine.array_backend
    with use_backend(array_backend):
        snap0 = array_backend.counter_snapshot()
        out, snap1 = _rank_iteration_stages(
            engine, comm, wf, rng, nu_star, eloc_partition
        )
        snap2 = array_backend.counter_snapshot()
    sampling = counter_delta(snap0, snap1)
    if sampling is not None:
        out["transfers"] = {
            "sampling": sampling,
            "post_sampling": counter_delta(snap1, snap2),
        }
    return out


def _rank_iteration_stages(engine, comm, wf, rng, nu_star: int,
                           eloc_partition: str) -> tuple[dict, dict | None]:
    """Stages 1-6 proper; returns ``(out, post-stage-1 counter snapshot)``."""
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
    snap_sampled = active_backend().counter_snapshot()

    # ---- stage 2: allgather + global amplitude table -----------------------
    codec = engine.backend.comm_codec
    baseline = engine.comm_baseline if codec else None
    keys, weights, table = stage_gather_table(
        comm, wf, local, codec=codec, baseline=baseline
    )
    n_u = len(weights)

    # ---- stage 3: local energy on this rank's chunk ------------------------
    t0 = time.perf_counter()
    idx = stage_partition(weights, size, eloc_partition)[rank]
    chunk = SampleBatch(
        bits=unpack_bits(keys[idx], engine.comp.n_qubits),
        weights=weights[idx],
    )
    eloc = stage_local_energy(wf, engine.comp, chunk, table, cfg,
                              engine.eloc_plan)
    times["local_energy"] = time.perf_counter() - t0
    if not bool(xp.all(xp.isfinite(eloc))):
        raise FloatingPointError(
            f"non-finite local energy on rank {rank} after stage 3 "
            f"(local energy) of iteration {engine.iteration + 1}"
        )

    # ---- stage 4: allreduce the weighted energy sums -----------------------
    w_chunk = chunk.weights.astype(float64)
    local_sums = xp.array(
        [xp.sum(w_chunk * eloc.real), xp.sum(w_chunk * eloc.imag), w_chunk.sum()]
    )
    sums = comm.allreduce_ndarray(local_sums)
    e_mean = sums[0] / sums[2]
    e_imag = sums[1] / sums[2]

    # ---- stage 5: the optimizer's update direction on the chunk ------------
    t0 = time.perf_counter()
    grad = engine.optimizer.direction(
        wf, chunk, w_chunk / sums[2], eloc, e_mean, e_imag
    )
    times["gradient"] = time.perf_counter() - t0

    # ---- stage 6: one allreduce for the gradient + centered 2nd moment -----
    # The direction rides in the arena's M + 1 payload (AdamW's gradient was
    # accumulated there; any other direction is copied in) and the variance
    # takes the trailing slot, so nothing is concatenated.
    arena = wf.arena()
    if grad is not arena.grad:
        arena.grad[...] = grad
    arena.payload[-1] = xp.sum(w_chunk * (eloc.real - e_mean) ** 2)
    # The stage-6 comm boundary: the fused gradient + variance payload leaves
    # the device exactly once per rank and iteration, entering the allreduce
    # (which, on a size-1 world, hands the payload itself back).
    fused = active_backend().to_host(arena.payload, tag="stage6.grad")
    packed = comm.allreduce_ndarray(fused, channel="stage6_grads")
    grad_total, variance = packed[:-1], float(packed[-1] / sums[2])

    out = {
        "grad": grad_total,
        "energy": float(e_mean),
        "eloc_imag": float(abs(e_imag)),
        "variance": variance,
        "n_unique": int(n_u),
        "n_local_unique": int(local.n_unique),
        "n_samples": int(n_samples),
        "times": times,
    }
    if size > 1 and codec and (rank == 0 or engine.backend.spmd):
        # Next iteration's diff baseline: the global unique set in canonical
        # (lexsorted) order.  On the thread/process backends only rank 0's
        # copy survives execute() (every rank rebuilds the identical array,
        # so shipping one is enough); on SPMD backends (cluster) each rank
        # is a separate host-resident engine and must retain its own copy to
        # decode peers' delta-encoded payloads next iteration.
        out["global_keys"] = keys
    return out, snap_sampled


# --------------------------------------------------------------------------
# Backends: thin schedulers over the stages
# --------------------------------------------------------------------------
class ExecutionBackend:
    """How the staged iteration executes; subclasses schedule the stages.

    ``execute(engine)`` runs stages 1-6 and returns ``(rank_results,
    comm)`` where ``comm`` is ``None`` (no communicator) or a
    ``(logical_bytes, wire_bytes)`` pair; the engine then applies the single
    parameter update and calls ``after_update`` so the backend can resync any
    rank replicas.
    """

    name = "?"
    n_ranks = 1
    comm_codec = True   # stage-2 delta/varint codec (a wire optimisation only)
    spmd = False        # True: every rank is its own engine (cluster backend)

    def execute(self, engine) -> tuple[list[dict], tuple[int, int] | None]:
        raise NotImplementedError

    def after_update(self, engine) -> None:  # pragma: no cover - default hook
        pass

    def close(self) -> None:
        """Release live resources (the cluster backend's sockets); default none."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}(n_ranks={self.n_ranks})"


class SerialBackend(ExecutionBackend):
    """The stages inline on a size-1 communicator (the classic serial VMC)."""

    name = "serial"

    def __init__(self, n_ranks: int = 1):
        if n_ranks != 1:
            raise ValueError(
                f"the serial backend runs exactly one rank (got n_ranks={n_ranks}); "
                "use parallel.backend=threads, =process or =cluster for N_p > 1"
            )

    def execute(self, engine) -> tuple[list[dict], tuple[int, int] | None]:
        from repro.parallel.comm import Comm, SoloTransport

        result = _rank_iteration(
            engine, Comm(SoloTransport()), engine.wf, engine.rng,
            nu_star=0, eloc_partition="balanced",
        )
        return [result], None


def _validate_rank_args(n_ranks: int, eloc_partition: str) -> None:
    if not isinstance(n_ranks, int) or n_ranks < 1:
        raise ValueError(f"n_ranks must be a positive int, got {n_ranks!r}")
    if eloc_partition not in ELOC_PARTITIONS:
        raise ValueError(
            f"eloc_partition must be one of {ELOC_PARTITIONS}, "
            f"got {eloc_partition!r}"
        )


class ThreadBackend(ExecutionBackend):
    """Thread ranks; one model replica per rank (Fig. 4 data layout).

    N_u^* = ``nu_star_per_rank * n_ranks``, following the paper's scaling
    setup (N_u^* = 16384 n for n GPUs).  With ``n_ranks=1`` the iteration is
    bit-identical to :class:`SerialBackend`: same RNG stream, same stage
    arithmetic, degenerate collectives.
    """

    name = "threads"

    def __init__(self, n_ranks: int, nu_star_per_rank: int = 64,
                 eloc_partition: str = "balanced", comm_codec: bool = True,
                 collective_timeout_s: float = 600.0):
        _validate_rank_args(n_ranks, eloc_partition)
        self.n_ranks = n_ranks
        self.nu_star_per_rank = nu_star_per_rank
        self.eloc_partition = eloc_partition
        self.collective_timeout_s = collective_timeout_s
        self.comm_codec = bool(comm_codec)
        self.replicas: list | None = None
        self.last_comm_stats = None

    def _sync_replicas(self, engine):
        if self.replicas is None:
            self.replicas = [
                copy.deepcopy(engine.wf) for _ in range(self.n_ranks)
            ]
        theta = engine.wf.arena().theta
        for rep in self.replicas:
            rep.set_flat_params(theta)  # one memcpy, arena to arena
        return theta

    def execute(self, engine) -> tuple[list[dict], tuple[int, int] | None]:
        from repro.parallel.fake_mpi import run_spmd

        # Sync before every execute (not just after updates): the master may
        # have moved outside the engine step — checkpoint restore, pretrain.
        flat = self._sync_replicas(engine)
        nu_star = self.nu_star_per_rank * self.n_ranks
        rng = engine.rng  # consumed only on the size-1 (serial-identical) path

        def rank_fn(comm):
            return _rank_iteration(
                engine, comm, self.replicas[comm.Get_rank()], rng,
                nu_star=nu_star, eloc_partition=self.eloc_partition,
            )

        results, stats = run_spmd(self.n_ranks, rank_fn,
                                  timeout=self.collective_timeout_s)
        self.last_comm_stats = stats
        # The post-update parameter resync is the stage-6 broadcast, realized
        # through shared memory — account its bytes like the collectives.
        sync = flat.nbytes * self.n_ranks
        return results, (stats.total_bytes + sync, stats.total_wire_bytes + sync)

    def after_update(self, engine) -> None:
        # Keep replicas in lockstep with the master between iterations (the
        # parameter broadcast of Fig. 4 stage 6).
        self._sync_replicas(engine)


class ProcessBackend(ExecutionBackend):
    """Forked OS-process ranks over ``run_spmd_processes`` (fork-only, Linux).

    Each iteration forks ``n_ranks`` workers that inherit the current
    parameters; the reduced gradient (and, on the size-1 path, the advanced
    RNG state) is shipped back to the parent, which applies the update.
    """

    name = "process"

    def __init__(self, n_ranks: int, nu_star_per_rank: int = 64,
                 eloc_partition: str = "balanced", comm_codec: bool = True,
                 comm_shm: bool = True, collective_timeout_s: float = 600.0,
                 join_timeout_s: float = 60.0):
        _validate_rank_args(n_ranks, eloc_partition)
        self.n_ranks = n_ranks
        self.nu_star_per_rank = nu_star_per_rank
        self.eloc_partition = eloc_partition
        self.collective_timeout_s = collective_timeout_s
        self.join_timeout_s = join_timeout_s
        self.comm_codec = bool(comm_codec)
        self.comm_shm = bool(comm_shm)
        self.last_comm_stats = None

    def execute(self, engine) -> tuple[list[dict], tuple[int, int] | None]:
        from repro.parallel.multiprocess import run_spmd_processes

        nu_star = self.nu_star_per_rank * self.n_ranks
        param_bytes = sum(p.data.nbytes for p in engine.wf.parameters())

        def rank_fn(comm):
            out = _rank_iteration(
                engine, comm, engine.wf, engine.rng,
                nu_star=nu_star, eloc_partition=self.eloc_partition,
            )
            if comm.Get_size() == 1:
                # The serial-identical path consumed the fork's private copy
                # of the RNG; ship its state back so the parent's stream
                # continues exactly where the child stopped.
                out["rng_state"] = engine.rng.bit_generator.state
            if comm.Get_rank() != 0:
                out["grad"] = None  # identical on every rank; pickle it once
            return out

        results, stats = run_spmd_processes(self.n_ranks, rank_fn,
                                            timeout=self.collective_timeout_s,
                                            use_shm=self.comm_shm,
                                            join_timeout=self.join_timeout_s)
        self.last_comm_stats = stats
        state = results[0].pop("rng_state", None)
        if state is not None:
            engine.rng.bit_generator.state = state
        sync = param_bytes * self.n_ranks
        return results, (stats.total_bytes + sync, stats.total_wire_bytes + sync)


# --------------------------------------------------------------------------
# The engine step: backend-scheduled stages + the single update
# --------------------------------------------------------------------------
def _merge_transfers(results: list) -> dict | None:
    """Sum the per-rank counter deltas (None unless a rank was instrumented)."""
    deltas = [r.get("transfers") for r in results if r.get("transfers")]
    if not deltas:
        return None

    def merge(into: dict, part: dict) -> dict:
        for k, v in part.items():
            if isinstance(v, dict):
                into[k] = merge(dict(into.get(k, {})), v)
            else:
                into[k] = into.get(k, 0) + v
        return into

    merged: dict = {}
    for d in deltas:
        merge(merged, d)
    return merged


def execute_iteration(engine) -> VMCStats:
    """One full VMC iteration of ``engine`` on its backend.

    Runs the staged pipeline, hands the reduced direction to the optimizer's
    ``apply``, advances the iteration counter and returns the unified stats
    record (the caller owns history bookkeeping).
    """
    backend: ExecutionBackend = engine.backend
    t_wall = time.perf_counter()
    results, comm = backend.execute(engine)
    comm_bytes, comm_wire = comm if comm is not None else (None, None)
    r0 = results[0]
    # The guard runs before anything of the engine is touched: parameters,
    # optimizer state and history are exactly as they were when it fires.
    grad_norm = float(xp.linalg.norm(xp.asarray(r0["grad"])))
    _require_finite(
        f"before the stage 6 update of iteration {engine.iteration + 1}",
        energy=r0["energy"], variance=r0["variance"], gradient=grad_norm,
    )
    # Rank 0 hands back the lexsorted global unique set when the codec is on;
    # it becomes the next iteration's cross-iteration diff baseline.
    engine.comm_baseline = r0.pop("global_keys", None)
    engine.optimizer.apply(r0["grad"], grad_norm)
    backend.after_update(engine)
    wall = time.perf_counter() - t_wall

    engine.iteration += 1
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
        comm_bytes=comm_bytes,
        per_rank_unique=(
            None if comm_bytes is None
            else [r["n_local_unique"] for r in results]
        ),
        comm_bytes_wire=comm_wire,
        transfers=_merge_transfers(results),
    )
