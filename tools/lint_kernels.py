#!/usr/bin/env python
"""Kernel lint: two numpy costs the hot-path modules must not pay.

Rule, applied to the modules in ``HOT_PATH_FILES``:

* a ``**`` operator followed by an integer literal >= 3 is an error: on an
  array, numpy routes it through ``pow`` (~30x the cost of multiplying —
  ``a**3`` in GELU was once 29 % of a VMC iteration).  A literal base
  (``10**5``, ``2**20``) is constant arithmetic and passes.

One more rule applies to ``CONTRACTION_FILES`` (the shared production
kernels of ``nn/kernels.py`` and the feature-major kernels of stage 5's pair
over the prefix tree, ``nn/attention.py`` and ``nn/transformer.py``):

* a ``sum`` / ``mean`` / ``max`` call with ``axis=-1`` is an error.  Every
  short axis there is 4 to 64 wide, where numpy's reduction loop runs once
  per output element (``max`` over a (180, 4, 10, 10) attention matrix: 255
  us against 45 us); nn/kernels writes them as contractions
  (``last_axis_sum`` / ``last_axis_max``) — one formulation per reduction,
  whatever the width — and the feature-major kernels put the rows last, so
  their short axes are never the last one.

Comments, docstrings and string literals are token types the lint never
looks at.

Usage: ``python tools/lint_kernels.py`` (from the repo root; exits nonzero
with ``file:line:col`` messages on violations).
"""
from __future__ import annotations

import sys
import tokenize
from pathlib import Path

# The hot-path set: every module on the sampling/eloc/backward path.  Extend
# this list when a new module joins it.
HOT_PATH_FILES = [
    "src/repro/autograd/tensor.py",
    "src/repro/autograd/oracle.py",
    "src/repro/nn/kernels.py",
    "src/repro/nn/attention.py",
    "src/repro/nn/transformer.py",
    "src/repro/nn/layers.py",
    "src/repro/nn/phase.py",
    "src/repro/nn/inference.py",
    "src/repro/core/local_energy.py",
    "src/repro/core/constraints.py",
    "src/repro/core/engine.py",
    "src/repro/optim/adamw.py",
]


# Modules where no reduction runs over a short last axis.
CONTRACTION_FILES = {"src/repro/nn/kernels.py", "src/repro/nn/attention.py",
                     "src/repro/nn/transformer.py"}
_REDUCTIONS = {"sum", "mean", "max"}


def lint_file(path: Path, contractions: bool = False) -> list[str]:
    """``file:line:col: message`` strings for every violation in ``path``
    (``contractions``: also apply the ``CONTRACTION_FILES`` rule)."""
    errors: list[str] = []
    with tokenize.open(path) as handle:
        tokens = list(tokenize.generate_tokens(handle.readline))
    callees: list[str | None] = []   # name before each open "(", innermost last
    for i, tok in enumerate(tokens):
        row, col = tok.start
        if tok.type == tokenize.OP and tok.string == "(":
            prev = tokens[i - 1]
            callees.append(prev.string if prev.type == tokenize.NAME else None)
        elif tok.type == tokenize.OP and tok.string == ")" and callees:
            callees.pop()
        elif (contractions and tok.type == tokenize.NAME and tok.string == "axis"
                and [t.string for t in tokens[i + 1:i + 4]] == ["=", "-", "1"]
                and callees and callees[-1] in _REDUCTIONS):
            errors.append(
                f"{path}:{row}:{col}: '{callees[-1]}(..., axis=-1)' where short "
                "last axes are contractions (use last_axis_sum / last_axis_dot "
                "/ last_axis_max)"
            )
        if tok.type == tokenize.OP and tok.string == "**":
            exponent = tokens[i + 1]
            if (exponent.type == tokenize.NUMBER and exponent.string.isdigit()
                    and int(exponent.string) >= 3
                    and tokens[i - 1].type != tokenize.NUMBER):
                errors.append(
                    f"{path}:{row}:{col}: '** {exponent.string}' in a hot-path "
                    "module (numpy routes it through pow; multiply instead)"
                )
    return errors


def main(argv: list[str]) -> int:
    root = Path(argv[1]) if len(argv) > 1 else Path(__file__).resolve().parents[1]
    missing = [f for f in HOT_PATH_FILES if not (root / f).exists()]
    if missing:
        print(f"lint_kernels: missing hot-path files: {missing}",
              file=sys.stderr)
        return 2
    errors: list[str] = []
    for rel in HOT_PATH_FILES:
        errors.extend(lint_file(root / rel, contractions=rel in CONTRACTION_FILES))
    for err in errors:
        print(err, file=sys.stderr)
    if errors:
        print(f"lint_kernels: {len(errors)} violation(s) in "
              f"{len(HOT_PATH_FILES)} hot-path files", file=sys.stderr)
        return 1
    print(f"lint_kernels: OK ({len(HOT_PATH_FILES)} hot-path files clean)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
