"""Shared fixtures: small molecular problems (session-scoped, disk-cached)."""
from __future__ import annotations

import importlib
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.chem import build_problem
from repro.core import build_qiankunnet


# The KV-cached decoder runs in float32 (repro.nn.inference): the logits of a
# session step, and the log pi the BAS sweep and the walk of log_amplitudes
# accumulate from them; so does stage 5's forward/VJP pair over the prefix
# tree (wf.log_prob_vjp).  Their oracles stay float64 (log_prob and its tape,
# padded_next_logits, conditional_probs_reference).  Worst cases measured over
# this suite's nets, each bound ~10x above its measurement:
LOGIT_TOL = 5e-6   # logits and log pi, absolute (measured <= 5.2e-7 decoding,
                   # 1.3e-6 through the pair on the paper-size N2 net)
PROB_TOL = 5e-7    # masked, renormalized conditionals, absolute (measured <= 5.4e-8)
# the amplitude slice of log_prob_vjp's gradient against log_prob's tape,
# relative 2-norm (measured <= 6.8e-7)
LOG_PI_GRAD_RTOL = 5e-6
# Eq. 7 against a central difference (+-1e-5) of the exact H2 energy, per
# parameter, absolute — the oracle's tape and stage 5's float32 VJPs alike
# (measured over all 1 061 parameters of the test's net: <= 4.2e-8 taped,
# <= 3.8e-7 stage_backward; gradient entries up to 0.75)
EQ7_FD_ATOL = 5e-6
# The AdamW kernel (Kingma & Ba's efficient ordering) against the textbook
# per-parameter loop, 400 steps at gradient scales 1e-8 to 1e3: θ absolute
# (measured <= 2.5e-14), the second moment v relative (measured <= 4.3e-16).
ADAMW_TEXTBOOK_ATOL = 1e-12
ADAMW_TEXTBOOK_RTOL = 1e-14


@pytest.fixture(scope="session")
def h2_problem():
    return build_problem("H2", "sto-3g", r=0.7414)


@pytest.fixture(scope="session")
def lih_problem():
    return build_problem("LiH", "sto-3g")


@pytest.fixture(scope="session")
def h2o_problem():
    return build_problem("H2O", "sto-3g")


@pytest.fixture(scope="session")
def beh2_problem():
    return build_problem("BeH2", "sto-3g")


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)


BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


def _load_bench(name: str):
    """``benchmarks/<name>.py`` as a module, imported the way a bench file
    sees its neighbours: with ``benchmarks/`` on the path, so its own imports
    of the bench helpers (``reporting``, ``scaling``, ``ascii_plot``) and of
    other bench files resolve."""
    if str(BENCHMARKS) not in sys.path:
        sys.path.append(str(BENCHMARKS))
    return importlib.import_module(name)


# The ansatz matrix: the production ansatz plus the two Table 1 foils, which
# reach sampler, walk, stage 5's pair, engine, serving and the mock backend
# through the amplitude protocol alone — what any network wired into
# ``NNQSWavefunction`` by hand does.
baselines = _load_bench("baseline_ansatze")
ANSATZE = ["transformer", *baselines.BASELINES]


def build_wf(kind: str, n_qubits: int, n_up: int, n_dn: int, *,
             d_model: int = 16, n_heads: int = 4, n_layers: int = 2, **common):
    """The ``kind`` wavefunction of :data:`ANSATZE`: the transformer through
    ``build_qiankunnet``, a foil through ``baselines.build_baseline`` (which
    has no transformer widths to set; ``common``: ``phase_hidden``,
    ``constrain``, ``seed``)."""
    if kind == "transformer":
        return build_qiankunnet(n_qubits, n_up, n_dn, d_model=d_model,
                                n_heads=n_heads, n_layers=n_layers, **common)
    return baselines.build_baseline(baselines.BASELINES[kind], n_qubits, n_up, n_dn,
                                    **common)


def amplitude_and_phase(wf, flat):
    """The amplitude and the phase network's slices of ``wf``'s flat
    gradient (stage 5 computes them by the amplitude network's and the phase
    MLP's VJPs)."""
    n_amp = wf.amplitude.num_parameters()
    assert n_amp + wf.phase.num_parameters() == flat.size
    return flat[:n_amp], flat[n_amp:]


@pytest.fixture(scope="session")
def fig10():
    """``benchmarks/bench_fig10_localenergy.py`` as a module: the home of the
    scalar Fig. 10 rungs (baseline / sa_fuse / sa_fuse_lut)."""
    return _load_bench("bench_fig10_localenergy")


@pytest.fixture(scope="session")
def ablations():
    """``benchmarks/bench_ablations.py`` as a module: the home of the sampling
    foils (RBM + Metropolis, independent-stream BAS merge) and of stochastic
    reconfiguration."""
    return _load_bench("bench_ablations")


@pytest.fixture(scope="session")
def phase_width():
    """``benchmarks/bench_phase_width.py`` as a module: the phase-MLP width
    sweep, its adoption rule and its committed rows."""
    return _load_bench("bench_phase_width")


@pytest.fixture()
def stage3_vs_reference(monkeypatch):
    """Check every stage-3 kernel call of the engine against the reference.

    While active, each ``(chunk, table)`` the staged iteration hands to its
    compiled plan is also evaluated by ``local_energy_vectorized`` under the
    plan's chunking, and the two must be bit-equal.  Forked ranks inherit the
    check; the returned list (chunk sizes, one per call) only sees calls made
    in this process.
    """
    from repro.core import engine
    from repro.core.local_energy import local_energy_vectorized

    real = engine.local_energy_planned
    calls = []

    def checked(comp, chunk, table, plan):
        out = real(comp, chunk, table, plan=plan)
        ref = local_energy_vectorized(
            comp, chunk, table, group_chunk=plan.group_chunk,
            sample_chunk=plan.sample_chunk,
            memory_budget_bytes=plan.memory_budget_bytes,
        )
        np.testing.assert_array_equal(out, ref)
        calls.append(chunk.n_unique)
        return out

    monkeypatch.setattr(engine, "local_energy_planned", checked)
    return calls


# ------------------------------------------------------------------ rank runs
def run_ranks(launch, size: int, fn, timeout: float = 600.0, **kwargs) -> list:
    """``fn(comm)`` on every rank of a ``repro.parallel.multiprocess`` launch
    (``start_thread_ranks`` / ``start_process_ranks``): ranks 1.. as its
    followers, rank 0 in the caller; returns the per-rank results.

    A follower pickles its result, or its exception's type name and message,
    into a file of its own (a fork's writes are private), read back once the
    launch's ``stop`` has ended every follower.  Rank 0's raise propagates;
    else a follower's failure is raised as a ``RuntimeError`` naming it —
    the first that is not a ``CommAbortError``, if any.
    """
    import os
    import pickle
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        def box(rank: int) -> str:
            return os.path.join(tmp, f"rank{rank}.pkl")

        def follow(comm):
            try:
                out = ("ok", fn(comm))
            except BaseException as exc:
                out = ("error", type(exc).__name__, f"rank {comm.Get_rank()}: {exc}")
                raise
            finally:
                with open(box(comm.Get_rank()), "wb") as f:
                    pickle.dump(out, f)

        comm, stop = launch(size, follow, timeout, **kwargs)
        try:
            results = [fn(comm)]
        finally:
            stop()
        errors = []
        for rank in range(1, size):
            try:
                with open(box(rank), "rb") as f:
                    out = pickle.load(f)
            except FileNotFoundError:
                out = ("error", "RuntimeError", f"rank {rank}: died without a result")
            if out[0] == "ok":
                results.append(out[1])
            else:
                results.append(None)
                errors.append(out[1:])
    if errors:
        kind, message = next((e for e in errors if e[0] != "CommAbortError"),
                             errors[0])
        raise RuntimeError(f"{kind}: {message}")
    return results


def child_pids() -> set[int]:
    """This process's live or unreaped children (every thread's)."""
    import os

    pids: set[int] = set()
    for task in os.listdir("/proc/self/task"):
        try:
            with open(f"/proc/self/task/{task}/children") as f:
                pids.update(map(int, f.read().split()))
        except FileNotFoundError:
            pass   # the thread ended while we looked
    return pids
