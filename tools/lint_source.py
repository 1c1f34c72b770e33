#!/usr/bin/env python
"""Source lint: one of each under ``src/repro``, by name.

Every rule is a regular expression that must match no line of the files it
covers — the grep chain that used to live in ``.github/workflows/ci.yml``,
one named rule per collapse (DESIGN.md has the section each ``why`` cites).
A rule covers files or directories (searched recursively for ``*.py``);
``exempt`` names the one file where the construct is allowed to live.

The match is per line and purely textual, comments and docstrings included:
a rule bans a *spelling* from a place, so prose there has to find another
word too.  That is deliberate — it is what the grep chain did.

Usage: ``python tools/lint_source.py`` (from anywhere; an optional argument
names another checkout root).  Exits nonzero with ``file:line: [rule]``
messages on violations.
"""
from __future__ import annotations

import re
import sys
from dataclasses import dataclass
from pathlib import Path

SRC = "src/repro"


@dataclass(frozen=True)
class Rule:
    name: str
    pattern: str
    paths: tuple[str, ...]
    why: str
    exempt: tuple[str, ...] = ()


RULES = (
    Rule("one-comm-accounting-site", r"stats\.add\(", (SRC,),
         "comm volume is accounted in parallel/comm.py alone (Comm and transports)",
         exempt=("src/repro/parallel/comm.py",)),
    Rule("no-probing-no-second-path",
         r"hasattr\(comm|eloc_kernel|resolve_batch_kernel|ELOC_KERNELS"
         r"|local_energy_baseline|local_energy_sa_fuse|_lookup_dedup|DEDUP_MIN_TABLE"
         r"|getattr\(engine|_run_step_protocol|hasattr\(opt|optimizer\.name\s*[!=]="
         r"|gradient_step|use_cache", (SRC,),
         "no probing of the communicator, the engine or the optimizer; one "
         "local-energy path, one table lookup, one training loop, one inference "
         "path (Local energy, Stage contract, Sessions and the BAS tree)"),
    Rule("arena-owns-the-flat-buffers", r"concatenate",
         ("src/repro/nn/module.py", "src/repro/optim/adamw.py"),
         "theta, its gradient and the Adam moments are views of one arena, "
         "never re-assembled (Parameter arena)"),
    Rule("stage5-writes-into-the-arena", r"set_flat_grads\(|concatenate\(\[grad",
         ("src/repro/core/engine.py",),
         "stage 5 accumulates into the arena's gradient buffer (Parameter arena)"),
    Rule("optimizer-and-plan-own-their-numbers",
         r"warmup|lr_scale|weight_decay|grad_clip|group_chunk|sample_chunk",
         ("src/repro/core/trainer.py", "src/repro/core/vmc.py"),
         "the optimizer's numbers and the plan's chunk sizes stay out of the "
         "trainer and the VMC (Configuration)"),
    Rule("driver-compares-no-backend-name", r'p\.backend\s*==|backend\s*==\s*"',
         ("src/repro/api/driver.py",),
         "the driver compares the backend name with nothing (Configuration)"),
    Rule("backend-classes-are-their-factories",
         r"def build_(thread|process|cluster)_backend", ("src/repro/api/builtins.py",),
         "backend classes are the registered factories (Configuration)"),
    Rule("no-device-adapter-without-a-device", r"torch|cupy", (SRC,),
         "no device adapter comes back without a device host to run it "
         "(ROADMAP, Parked)"),
    Rule("one-sampler",
         r"SAMPLERS|register_sampler|materialize_sampler|cache_budget|RBMVMC"
         r"|RBMWavefunction|metropolis_sample|merged_batch_sample|MPITransport|mpi4py",
         (SRC,),
         "stage 1 is the BAS sweep: no sampler registry, cache budget or foil "
         "under src/ (they live in benchmarks/bench_ablations.py), no MPI adapter "
         "without an MPI host"),
    Rule("no-sampler-field", r"sampler\s*:",
         ("src/repro/core/engine.py", "src/repro/api/spec.py"),
         "no sampler spec field or config hook (Sessions and the BAS tree)"),
    Rule("one-amplitude-protocol",
         r"hasattr\(self\.amplitude|hasattr\(amplitude|fixed_length"
         r"|make_inference_session|FallbackInferenceSession|amplitude_type"
         r"|MADEAmplitude|NAQSMLPAmplitude|getattr\(wf\.amplitude", (SRC,),
         "the production path asks the amplitude network for a session and for "
         "prefix_logits and never probes it; the foils and their recompute session "
         "live in benchmarks/baseline_ansatze.py (The amplitude protocol)"),
    Rule("no-module-level-scipy", r"^(import|from)\s+scipy\b", (SRC,),
         "a rank imports numpy and repro, nothing else: any scipy submodule "
         "costs ~0.2 s and ~30 MiB per process (What a rank pays before iteration 1)"),
    Rule("scipy-only-inside-the-lanczos-branch", r"^\s+(import|from)\s+scipy\b", (SRC,),
         "the one function-local scipy import is exact_ground_state's Lanczos "
         "branch (What a rank pays before iteration 1)",
         exempt=("src/repro/hamiltonian/exact.py",)),
)


def rule_files(root: Path, rule: Rule) -> list[Path]:
    """The ``*.py`` files ``rule`` covers under ``root``, exemptions removed."""
    files: list[Path] = []
    for rel in rule.paths:
        path = root / rel
        files += sorted(path.rglob("*.py")) if path.is_dir() else [path]
    exempt = {root / rel for rel in rule.exempt}
    return [f for f in files if f not in exempt]


def lint(root: Path, rules=RULES) -> list[str]:
    """``file:line: [rule] why`` for every line a rule matches under ``root``."""
    errors: list[str] = []
    for rule in rules:
        regex = re.compile(rule.pattern)
        for path in rule_files(root, rule):
            for lineno, line in enumerate(path.read_text().splitlines(), 1):
                if regex.search(line):
                    errors.append(f"{path.relative_to(root)}:{lineno}: "
                                  f"[{rule.name}] {line.strip()!r} — {rule.why}")
    return errors


def main(argv: list[str]) -> int:
    root = Path(argv[1]) if len(argv) > 1 else Path(__file__).resolve().parents[1]
    missing = sorted({rel for rule in RULES for rel in rule.paths + rule.exempt
                      if not (root / rel).exists()})
    if missing:
        print(f"lint_source: paths named by a rule do not exist: {missing}",
              file=sys.stderr)
        return 2
    errors = lint(root)
    for err in errors:
        print(err, file=sys.stderr)
    if errors:
        print(f"lint_source: {len(errors)} violation(s) of {len(RULES)} rules",
              file=sys.stderr)
        return 1
    print(f"lint_source: OK ({len(RULES)} rules)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
