"""Shared fixtures: small molecular problems (session-scoped, disk-cached)."""
from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.chem import build_problem
from repro.core import build_qiankunnet


@pytest.fixture(scope="session")
def h2_problem():
    return build_problem("H2", "sto-3g", r=0.7414)


@pytest.fixture(scope="session")
def lih_problem():
    return build_problem("LiH", "sto-3g")


@pytest.fixture(scope="session")
def h2o_problem():
    return build_problem("H2O", "sto-3g")


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)


def _load_bench(name: str):
    """``benchmarks/<name>.py`` as a module, loaded once (registered in
    ``sys.modules`` first: its dataclasses resolve their annotations through
    it, and one bench file imports another by that name)."""
    if name in sys.modules:
        return sys.modules[name]
    path = Path(__file__).resolve().parent.parent / "benchmarks" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


# The ansatz matrix: the production ansatz plus the two Table 1 foils, which
# reach sampler, walk, taped pass, engine, serving and the mock backend through
# the amplitude protocol alone — what a ``register_ansatz`` user's network does.
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


@pytest.fixture(scope="session")
def fig10():
    """``benchmarks/bench_fig10_localenergy.py`` as a module: the home of the
    scalar Fig. 10 rungs (baseline / sa_fuse / sa_fuse_lut)."""
    return _load_bench("bench_fig10_localenergy")


@pytest.fixture(scope="session")
def ablations():
    """``benchmarks/bench_ablations.py`` as a module: the home of the sampling
    foils (RBM + Metropolis, independent-stream BAS merge)."""
    return _load_bench("bench_ablations")


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
