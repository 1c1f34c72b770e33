"""Named built-in RunSpecs — starting points for the CLI and tests.

``python -m repro run --preset smoke`` runs the smallest end-to-end spec;
``--set`` overrides customize any field from there.  Presets are stored as
plain dicts (the JSON form) so they double as documentation of the spec
schema; :func:`get_preset` materializes and validates them on demand.
"""
from __future__ import annotations

from repro.api.spec import RunSpec, SpecError

__all__ = ["PRESETS", "get_preset", "preset_names"]

PRESETS: dict[str, dict] = {
    # The smallest spec that exercises the full pipeline: integrals -> RHF ->
    # Jordan-Wigner -> warm start -> VMC -> report -> snapshot.  CI runs it.
    "smoke": {
        "name": "smoke",
        "problem": {"molecule": "H2", "basis": "sto-3g",
                    "geometry": {"r": 0.7414}},
        "ansatz": {"d_model": 8, "n_heads": 2, "n_layers": 1,
                   "phase_hidden": [16], "seed": 1},
        "optimizer": {"warmup": 100},
        "sampling": {"ns_pretrain": 1000, "ns_max": 2000, "ns_growth": 1.2,
                     "pretrain_iters": 3},
        "train": {"max_iterations": 5, "pretrain_steps": 20,
                  "early_stop": False, "seed": 2},
        "output": {"checkpoint_every": 0, "publish": True},
    },
    # The quickstart example's configuration: H2/STO-3G to chemical accuracy.
    "h2": {
        "name": "h2-sto3g",
        "problem": {"molecule": "H2", "basis": "sto-3g",
                    "geometry": {"r": 0.7414}},
        "ansatz": {"seed": 1},
        "optimizer": {"warmup": 200},
        "sampling": {"ns_pretrain": 100000, "ns_max": 100000,
                     "pretrain_iters": 100},
        "train": {"max_iterations": 400, "pretrain_steps": 100,
                  "early_stop": False, "seed": 2},
        "output": {"log_every": 50, "reference": "fci"},
    },
    # The active-space example: N2 triple bond in a CAS(6,6) window.
    "n2-cas66": {
        "name": "n2-cas66",
        "problem": {"molecule": "N2", "basis": "sto-3g", "n_frozen": 2,
                    "n_active": 6, "geometry": {"r": 1.0977}},
        "ansatz": {"seed": 21},
        "optimizer": {"warmup": 200},
        "sampling": {"ns_pretrain": 100000, "ns_max": 10000000,
                     "ns_growth": 1.05, "pretrain_iters": 50},
        "train": {"max_iterations": 300, "pretrain_steps": 150,
                  "plateau_window": 50, "seed": 22},
        "output": {"log_every": 50, "reference": "fci"},
    },
}


def preset_names() -> list[str]:
    return sorted(PRESETS)


def get_preset(name: str) -> RunSpec:
    try:
        data = PRESETS[name]
    except KeyError:
        raise SpecError(
            f"unknown preset {name!r}; available presets: "
            f"{', '.join(preset_names())}"
        ) from None
    return RunSpec.from_dict(data)
