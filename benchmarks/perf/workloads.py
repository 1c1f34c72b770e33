"""The four workloads: what each sets up, what one timed unit is, what is checked.

Imported only by the episode child (``episode.py``), after the BLAS pins and
the private ``NNQS_CACHE_DIR`` are in the environment.  Every call into
``repro`` goes through a module attribute (``engine.VMC``,
``sampler.batch_autoregressive_sample``) so a traced episode, which rebinds
those attributes (``spans.TARGETS``), times the same calls an untraced one
makes.

Seeds.  ``--seed`` drives every Monte-Carlo stream (``VMCConfig.seed``,
``train.seed``, the sampler RNG): ``MC_SEED_BASE + seed``.  The ansatz
*initialisation* seed is part of the workload, like the molecule: N_u at
100 000 samples moves 550-1573 with it on N2 (README, "Why the ansatz seed is
fixed"), which would put +-25 % of input-size noise on every metric.

A workload is ``setup(ctx) -> state`` and ``unit(state, i) -> record``.  A
record carries ``ok`` (a failed unit is a failed operation), ``fingerprint``
(must repeat bit-for-bit across episodes and with tracing on) and the
*(count)* values of the unit.
"""
from __future__ import annotations

import json
import math
import zlib
from importlib import import_module
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import repro.api as api
import repro.chem as chem
import repro.core.engine as engine
import repro.core.pretrain as pretrain
import repro.core.sampler as sampler
import repro.core.vmc as vmc
import repro.core.wavefunction as wavefunction
import repro.hamiltonian.compressed as compressed

import stats

# ``repro.core`` re-exports a *function* named ``local_energy`` over the module.
local_energy = import_module("repro.core.local_energy")

MC_SEED_BASE = 100


@dataclass
class Context:
    seed: int
    quick: bool
    scratch: Path          # private to this episode, inside the checkout
    counts: dict = field(default_factory=dict)    # workload-level (count) metrics
    checks: list = field(default_factory=list)    # [{name, ok, detail}]

    @property
    def mc_seed(self) -> int:
        return MC_SEED_BASE + self.seed

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append({"name": name, "ok": bool(ok), "detail": detail})


def _crc(*arrays) -> int:
    crc = 0
    for a in arrays:
        crc = zlib.crc32(np.ascontiguousarray(a).tobytes(), crc)
    return crc


def _molecule(ctx: Context, name: str, ansatz_seed: int):
    """Cold ``build_problem`` -> compressed Hamiltonian -> pretrained ansatz."""
    problem = chem.build_problem(name, "sto-3g")
    comp = compressed.compress_hamiltonian(problem.hamiltonian)
    ctx.counts["hamiltonian.n_terms"] = int(problem.hamiltonian.n_terms)
    ctx.counts["hamiltonian.n_groups"] = int(comp.n_groups)
    n_dn = problem.n_electrons // 2
    wf = wavefunction.build_qiankunnet(
        problem.n_qubits, problem.n_electrons - n_dn, n_dn, seed=ansatz_seed)
    pretrain.pretrain_to_reference(wf, problem.hf_bits, n_steps=60, target_prob=0.2)
    return comp, wf


# ------------------------------------------------------------------- n2_*
N2_ANSATZ_SEED = 6     # N_u ~ 550 at 100 000 samples, ~ 115 at 2 000


def _n2_setup(ctx: Context, *, n_samples: int, **config):
    comp, wf = _molecule(ctx, "N2", N2_ANSATZ_SEED)
    cfg = engine.VMCConfig(n_samples=200 if ctx.quick else n_samples,
                           seed=ctx.mc_seed, **config)
    return vmc.VMC(wf, comp, cfg)


def n2_grad_setup(ctx):
    return _n2_setup(ctx, n_samples=100_000, eloc_mode="sample_aware")


def n2_exact_setup(ctx):
    return _n2_setup(ctx, n_samples=2_000, eloc_mode="exact",
                     eloc_memory_budget_mb=16)


def n2_unit(state, i: int) -> dict:
    s = state.step()
    ok = math.isfinite(s.energy) and math.isfinite(s.variance)
    return {"ok": ok, "fingerprint": [float(s.energy).hex(), s.n_unique],
            "values": {"engine.n_unique": s.n_unique},
            "stats_times": [s.time_sampling, s.time_local_energy, s.time_gradient]}


# --------------------------------------------------------- c2_eloc_kernel
C2_ANSATZ_SEED = 0
C2_SAMPLES = 1_000             # N_u ~ 230-270, of which the unit keeps ...
C2_ROWS = 128                  # ... the most-sampled 128: kernel time is ~ rows
C2_EXTEND_BUDGET = 16 * 2**20  # unbudgeted, the set-up extension peaks at 900 MiB


def c2_setup(ctx):
    comp, wf = _molecule(ctx, "C2", C2_ANSATZ_SEED)
    drawn = sampler.batch_autoregressive_sample(
        wf, 100 if ctx.quick else C2_SAMPLES, np.random.default_rng(ctx.mc_seed))
    keep = np.argsort(-drawn.weights, kind="stable")[:C2_ROWS]
    batch = sampler.SampleBatch(bits=drawn.bits[keep], weights=drawn.weights[keep])
    sa = local_energy.build_amplitude_table(wf, batch)
    ext = local_energy.extend_amplitude_table(
        wf, comp, batch, sa, memory_budget_bytes=C2_EXTEND_BUDGET)
    plan = local_energy.compile_eloc_plan(comp)
    ctx.counts["eloc.table_entries"] = int(ext.n_entries)
    ctx.counts["eloc.sa_table_entries"] = int(sa.n_entries)
    reference = local_energy.local_energy_vectorized(comp, batch, ext)
    planned = local_energy.local_energy_planned(comp, batch, ext, plan=plan)
    ctx.check("planned == vectorized (bit-for-bit, extended table)",
              np.array_equal(planned, reference))
    return comp, batch, sa, ext, plan, _crc(reference)


def _fresh(table):
    """A new table object over the same arrays: in training the amplitudes
    change every iteration, so the plan's per-table record view is rebuilt."""
    return local_energy.AmplitudeTable(keys=table.keys, log_amps=table.log_amps)


def c2_unit(state, i: int) -> dict:
    comp, batch, _, ext, plan, crc_ref = state
    eloc = local_energy.local_energy_planned(comp, batch, _fresh(ext), plan=plan)
    crc = _crc(eloc)
    return {"ok": bool(np.all(np.isfinite(eloc))) and crc == crc_ref,
            "fingerprint": [crc], "values": {}}


def c2_extra(state, rec: dict, clock) -> None:
    """The sample-aware call of the pair (``eloc.sa_call_s``), timed outside
    the unit: the unit is the extended-table call alone."""
    comp, batch, sa, _, plan, _ = state
    t0 = clock()
    local_energy.local_energy_planned(comp, batch, _fresh(sa), plan=plan)
    rec["values"]["eloc.sa_call_s"] = clock() - t0


# ------------------------------------------------------------ h2_converge
H2_QUICK_ITERATIONS = 12
H2_SEEDS_PER_RUN = 8


def h2_setup(ctx):
    overrides = {"output.log_every": 0}
    if ctx.quick:
        overrides["train.max_iterations"] = H2_QUICK_ITERATIONS
    return ctx, api.get_preset("h2").with_overrides(overrides)


def h2_unit(state, i: int) -> dict:
    """One ``api.run``; the units of an episode are the ``train.seed``s of the
    workload (``H2_SEEDS_PER_RUN`` apart per ``--seed``, so no two coincide)."""
    ctx, spec = state
    spec = spec.with_overrides(
        {"train.seed": MC_SEED_BASE + H2_SEEDS_PER_RUN * ctx.seed + i})
    result = api.run(spec, run_dir=ctx.scratch / f"run{i}")
    report = result.report
    records = map(json.loads, result.metrics_path.read_text().splitlines())
    energies = [r["energy"] for r in records if "energy" in r]
    e_fci = report.best_energy - report.error_vs_reference
    k = stats.iters_to_chem_acc(energies, e_fci)
    error_mha = abs(report.error_vs_reference) * 1e3
    ok = all(map(math.isfinite, energies))
    if not ctx.quick:        # a 12-iteration smoke run cannot converge
        ok = ok and k is not None and error_mha <= stats.CHEM_ACC_HA * 1e3
    iter_s = report.wall_time / report.iterations
    return {
        "ok": ok,
        "fingerprint": [_crc(np.array(energies))],
        "inner": report.iterations,
        # everything in run() that is not the training loop counts as set-up
        "train_s": report.wall_time,
        "values": {
            "trainer.iters_to_chem_acc": k,
            "trainer.iter_s": iter_s,
            "trainer.time_to_chem_acc_s": None if k is None else iter_s * k,
            "trainer.energy_error_mha": error_mha,
            "checkpoint.bytes": result.checkpoint_path.stat().st_size,
        },
    }


# --------------------------------------------------------------- registry
@dataclass(frozen=True)
class Workload:
    name: str
    setup: callable
    unit: callable
    # Sizing constant, not a measurement: seconds one unit takes on the host the
    # benchmark was sized on.  An episode asked for S seconds of timed units
    # runs ceil(S / unit_s) of them — a fixed count, whatever the host does.
    unit_s: float
    warmup: int
    extra: callable = None  # timed companion of a unit, outside its wall


WORKLOADS = {w.name: w for w in (
    Workload("h2_converge", h2_setup, h2_unit, unit_s=6.0, warmup=0),
    Workload("n2_grad", n2_grad_setup, n2_unit, unit_s=0.30, warmup=1),
    Workload("n2_exact", n2_exact_setup, n2_unit, unit_s=0.87, warmup=1),
    # 24 ms the extended-table call + 6 ms the sample-aware call after it
    Workload("c2_eloc_kernel", c2_setup, c2_unit, unit_s=0.030, warmup=2,
             extra=c2_extra),
)}
