#!/usr/bin/env python
"""Source lint: one of each under ``src/repro``, by name.

Every rule is a regular expression that must match no line of the files it
covers — the grep chain that used to live in ``.github/workflows/ci.yml``,
one named rule per collapse (DESIGN.md has the section each ``why`` cites).
A rule covers files or directories (searched recursively for ``*.py``);
``exempt`` names the files or directories where the construct is allowed to
live, ``allow`` single lines of one file (``(file, line regex)``).

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
    allow: tuple[tuple[str, str], ...] = ()


RULES = (
    Rule("one-comm-accounting-site", r"stats\.add\(", (SRC,),
         "comm volume is accounted in parallel/comm.py alone (Comm and transports)",
         exempt=("src/repro/parallel/comm.py",)),
    Rule("no-probing-no-second-path",
         r"hasattr\(comm|eloc_kernel|resolve_batch_kernel|ELOC_KERNELS"
         r"|local_energy_baseline|local_energy_sa_fuse|_lookup_dedup|DEDUP_MIN_TABLE"
         r"|getattr\(engine|_run_step_protocol|hasattr\(opt"
         r"|gradient_step|use_cache"
         r"|normalize_amplitude_table|merge_amplitude_tables|_as_records|_jw_sign_between"
         r"|comm_baseline|global_keys|_FLAG_DIFF",
         (SRC,),
         "no probing of the communicator, the engine or the optimizer; one "
         "local-energy path, one table lookup, one training loop, one inference "
         "path, one way to grow an amplitude table, one operator on a "
         "determinant basis, one stage-2 payload of this iteration's samples "
         "alone (Local energy, Stage contract, Sessions and the BAS tree, "
         "Serving, Exact references, Codec wire format)"),
    Rule("one-key-record-view", r"dtype\(\[", (SRC,),
         "packed keys compare through utils/bitstrings.py's key_records alone: "
         "no structured record dtype built anywhere else (Local energy)",
         exempt=("src/repro/utils/bitstrings.py",)),
    Rule("eloc-one-lookup", r"member\[|exp\(.*log_amps\[.*\]\s*-",
         ("src/repro/core/local_energy.py",),
         "the plan finds coupled keys through its slot map and divides by psi(x) "
         "once per sample: no bool membership map beside it and no per-hit "
         "exp(log psi(y) - log psi(x)) ratio (Local energy)"),
    Rule("eloc-one-fuse", r"bincount\(pair_of_term", ("src/repro/core/local_energy.py",),
         "both kernels sum a hit's Hamiltonian terms as one add.reduceat "
         "segment, in the same order, so the plan equals the reference bit for "
         "bit: no weighted bincount over a pair id beside it (Local energy)"),
    Rule("arena-owns-the-flat-buffers", r"concatenate",
         ("src/repro/nn/module.py", "src/repro/optim/adamw.py"),
         "theta, its gradient and the Adam moments are views of one arena, "
         "never re-assembled (Parameter arena)"),
    Rule("stage5-writes-into-the-arena", r"set_flat_grads\(|concatenate\(\[grad",
         ("src/repro/core/engine.py",),
         "stage 5 accumulates into the arena's gradient buffer (Parameter arena)"),
    Rule("tape-only-in-autograd",
         r"\bTensor\b|\bno_grad\b|\.backward\(|requires_grad"
         r"|^\s*(from|import)\s+repro\.autograd\b", (SRC,),
         "nothing outside autograd/ builds, walks or imports the tape: the "
         "networks run graph-free float32 kernels and hand-derived VJPs, and the "
         "taped float64 QiankunNet is autograd/oracle.py's, reached through "
         "NNQSWavefunction's three delegators for testing purposes only, each "
         "importing it in its own body (Precision, Block ops, What a rank pays "
         "before iteration 1)",
         exempt=("src/repro/autograd",),
         allow=(("src/repro/core/wavefunction.py",
                 r"^\s+from repro\.autograd import oracle$"),)),
    Rule("one-prefix-tree-pass", r"prefix_logits|rows_from_nodes|nodes_from_rows", (SRC,),
         "the prefix tree is evaluated with gradients by the forward/VJP pair "
         "alone: no taped node-major pass and no bridge ops to a dense core "
         "(The amplitude protocol, Block ops)"),
    Rule("optimizer-and-plan-own-their-numbers",
         r"warmup|lr_scale|weight_decay|grad_clip|group_chunk|sample_chunk",
         ("src/repro/core/trainer.py", "src/repro/core/vmc.py"),
         "the optimizer's numbers and the plan's chunk sizes stay out of the "
         "trainer and the VMC (Configuration)"),
    Rule("driver-compares-no-backend-name", r'p\.backend\s*==|backend\s*==\s*"',
         ("src/repro/api/driver.py",),
         "the driver compares the backend name with nothing (Configuration)"),
    Rule("backend-classes-are-their-factories",
         r"def build_(thread|process|cluster)_backend", ("src/repro/api/driver.py",),
         "backend classes are the factories the driver's table names (Configuration)"),
    Rule("no-component-registry",
         r"ComponentRegistry|register_ansatz|register_backend|UnknownComponentError"
         r"|\bANSATZE\b|\bBACKENDS\b", (SRC,),
         "no string-keyed component registry: the driver builds QiankunNet with "
         "build_qiankunnet and finds the execution backend in one table; another "
         "ansatz is wired by hand through the amplitude protocol (Spec to objects)"),
    Rule("no-device-adapter-without-a-device", r"torch|cupy", (SRC,),
         "no device adapter comes back without a device host to run it "
         "(ROADMAP, Parked)"),
    Rule("no-array-backend-seam",
         r"repro\.backend\b|use_backend|active_backend|get_backend|to_host\("
         r"|array_backend|host_np",
         (SRC,),
         "the kernels call numpy directly: no array-module proxy, backend "
         "switch or tagged host crossing until a device adapter comes back "
         "with a device host (ROADMAP, Parked)"),
    Rule("one-sampler",
         r"SAMPLERS|register_sampler|materialize_sampler|cache_budget|RBMVMC"
         r"|RBMWavefunction|metropolis_sample|merged_batch_sample|MPITransport|mpi4py",
         (SRC,),
         "stage 1 is the BAS sweep: no sampler registry, cache budget or foil "
         "under src/ (they live in benchmarks/bench_ablations.py), no MPI adapter "
         "without an MPI host"),
    Rule("one-optimizer",
         r"OPTIMIZERS|register_optimizer|single_rank_reason|StochasticReconfiguration"
         r"|per_sample_jacobians|NoamSchedule|ConstantSchedule|\bSGD\b", (SRC,),
         "stage 5 is the Eq. 7 backward and stage 6 the Noam-AdamW step: no "
         "optimizer registry, protocol or schedule object, and no SR under src/ "
         "(it lives in benchmarks/bench_ablations.py) (Stage contract)"),
    Rule("no-sampler-field", r"sampler\s*:",
         ("src/repro/core/engine.py", "src/repro/api/spec.py"),
         "no sampler spec field or config hook (Sessions and the BAS tree)"),
    Rule("one-amplitude-protocol",
         r"hasattr\(self\.amplitude|hasattr\(amplitude|fixed_length"
         r"|make_inference_session|FallbackInferenceSession|amplitude_type"
         r"|MADEAmplitude|NAQSMLPAmplitude|getattr\(wf\.amplitude", (SRC,),
         "the production path asks the amplitude network for a session and for "
         "the prefix_forward / prefix_vjp pair and never probes it; the foils, "
         "their recompute session and their taped answer to the pair live in "
         "benchmarks/baseline_ansatze.py (The amplitude protocol)"),
    Rule("one-decode-kernel", r"KVCache|def step\(self, x\b", ("src/repro/nn",),
         "the KV-cached decode is one float32, feature-major kernel behind the "
         "session (nn/inference.py): no per-layer cache object and no per-layer "
         "step(x, cache) beside the taped forward (Sessions and the BAS tree)"),
    Rule("one-parallel-path",
         r"comm_codec|comm_shm|use_shm|shm_threshold|eloc_partition|ELOC_PARTITIONS"
         r"|PipeTransport|SHM_THRESHOLD|shared_memory|borrows"
         r"|ThreadTransport|fake_mpi",
         (SRC,),
         "a multi-rank iteration has one shape: stage 2 always ships the "
         "codec's payload, every multi-rank collective crosses the socket "
         "mesh as frames (MeshTransport: socket pairs for thread and forked "
         "ranks, TCP across hosts), and stage 3 always cuts the unique set "
         "into contiguous row chunks of equal count (within one row; measured "
         "per-rank stage-3 time tracks rows) — no option selects a second path "
         "(Configuration, Communication layer)"),
    Rule("one-serving-process",
         r"HashRing|SessionPool|session_factory|serve-worker|routing_key"
         r"|subprocess|parallel\.rendezvous",
         ("src/repro/serve", "src/repro/core/wavefunction.py"),
         "the HTTP front door calls one in-process service: no worker "
         "processes, no framed hop, no hash ring, and no session pool — a "
         "session holds its KV cache and its float32 weights for one "
         "lifetime, so a recycled one keeps nothing a new one lacks (Serving)"),
    Rule("one-npz-writer", r"np\.savez", (SRC,),
         "checkpoints and model snapshots are written by core/checkpoint.py's "
         "write_npz, straight from the arena and the optimizer's moments: no "
         "writer that copies every array into bytes (Parameter arena)"),
    Rule("no-scipy", r"^\s*(import|from)\s+scipy\b", (SRC,),
         "a rank imports numpy and repro, nothing else: any scipy submodule "
         "costs ~0.2 s and ~30 MiB per process, module-level or function-local "
         "(What a rank pays before iteration 1, Exact references)"),
)


def rule_files(root: Path, rule: Rule) -> list[Path]:
    """The ``*.py`` files ``rule`` covers under ``root``, exemptions removed."""
    files: list[Path] = []
    for rel in rule.paths:
        path = root / rel
        files += sorted(path.rglob("*.py")) if path.is_dir() else [path]
    exempt = {root / rel for rel in rule.exempt}
    return [f for f in files if exempt.isdisjoint((f, *f.parents))]


def lint(root: Path, rules=RULES) -> list[str]:
    """``file:line: [rule] why`` for every line a rule matches under ``root``."""
    errors: list[str] = []
    for rule in rules:
        regex = re.compile(rule.pattern)
        for path in rule_files(root, rule):
            allowed = [re.compile(p) for rel, p in rule.allow if root / rel == path]
            for lineno, line in enumerate(path.read_text().splitlines(), 1):
                if regex.search(line) and not any(a.search(line) for a in allowed):
                    errors.append(f"{path.relative_to(root)}:{lineno}: "
                                  f"[{rule.name}] {line.strip()!r} — {rule.why}")
    return errors


def main(argv: list[str]) -> int:
    root = Path(argv[1]) if len(argv) > 1 else Path(__file__).resolve().parents[1]
    missing = sorted({rel for rule in RULES
                      for rel in rule.paths + rule.exempt + tuple(f for f, _ in rule.allow)
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
