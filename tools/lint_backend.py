#!/usr/bin/env python
"""Backend-purity lint: no bare numpy in the hot-path modules.

The array-backend seam (``repro.backend``, see DESIGN.md "Array backend")
only works if the kernels under it allocate through the active backend's
``xp`` namespace.  A stray ``import numpy`` or ``np.`` call in a hot-path
module silently pins that kernel to the host and defeats both the mock
backend's transfer accounting and any device backend.  This lint fails CI
on exactly that.

Rules, applied to the modules in ``HOT_PATH_FILES`` only:

* a NAME token ``numpy`` anywhere (imports included) is an error;
* a NAME token ``np`` immediately followed by a ``.`` operator is an error;
* a ``**`` operator followed by an integer literal >= 3 is an error: on an
  array, numpy routes it through ``pow`` (~30x the cost of multiplying —
  ``a**3`` in GELU was once 29 % of a VMC iteration).  A literal base
  (``10**5``, ``2**20``) is constant arithmetic and passes.

One more rule applies to ``CONTRACTION_FILES`` (``autograd/block_ops.py``):

* a ``sum`` / ``mean`` / ``max`` call with ``axis=-1`` is an error.  Every
  last axis there is 4 to 64 wide, where numpy's reduction loop runs once per
  output element (``max`` over a (180, 4, 10, 10) attention matrix: 255 us
  against 45 us); the file writes them as contractions (``last_axis_sum`` /
  ``last_axis_dot`` / ``last_axis_max``) — one formulation per reduction,
  whatever the width.

Deliberately host-bound code escapes through ``repro.backend.host``'s
``host_np`` alias — a distinct NAME, so it passes.  Comments, docstrings
and string literals are token types the lint never looks at, so prose may
mention numpy freely.

Usage: ``python tools/lint_backend.py`` (from the repo root; exits nonzero
with ``file:line:col`` messages on violations).
"""
from __future__ import annotations

import sys
import tokenize
from pathlib import Path

# The hot-path set: every module whose kernels must run entirely on the
# active array backend.  Extend this list when a new module joins the
# sampling/eloc/backward path.
HOT_PATH_FILES = [
    "src/repro/autograd/tensor.py",
    "src/repro/autograd/block_ops.py",
    "src/repro/nn/attention.py",
    "src/repro/nn/transformer.py",
    "src/repro/nn/layers.py",
    "src/repro/nn/inference.py",
    "src/repro/core/local_energy.py",
    "src/repro/core/engine.py",
]


# Modules whose short last-axis reductions must be written as contractions.
CONTRACTION_FILES = {"src/repro/autograd/block_ops.py"}
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
            continue
        if tok.type != tokenize.NAME:
            continue
        if tok.string == "numpy":
            # `def numpy(self)` / `t.numpy()` are the Tensor escape-hatch
            # method, not the module — only the module reference is banned.
            prev = next(
                (t for t in reversed(tokens[:i])
                 if t.type not in (tokenize.NL, tokenize.NEWLINE,
                                   tokenize.COMMENT, tokenize.INDENT,
                                   tokenize.DEDENT)), None,
            )
            if prev is not None and (
                (prev.type == tokenize.NAME and prev.string == "def")
                or (prev.type == tokenize.OP and prev.string == ".")
            ):
                continue
            errors.append(
                f"{path}:{row}:{col}: bare 'numpy' in a hot-path module "
                "(use 'from repro.backend import xp', or "
                "'from repro.backend.host import host_np' for deliberately "
                "host-bound code)"
            )
        elif tok.string == "np":
            nxt = next(
                (t for t in tokens[i + 1:]
                 if t.type not in (tokenize.NL, tokenize.COMMENT)), None,
            )
            if nxt is not None and nxt.type == tokenize.OP and nxt.string == ".":
                errors.append(
                    f"{path}:{row}:{col}: bare 'np.' in a hot-path module "
                    "(use the backend 'xp' namespace, or 'host_np' for "
                    "deliberately host-bound code)"
                )
    return errors


def main(argv: list[str]) -> int:
    root = Path(argv[1]) if len(argv) > 1 else Path(__file__).resolve().parents[1]
    missing = [f for f in HOT_PATH_FILES if not (root / f).exists()]
    if missing:
        print(f"lint_backend: missing hot-path files: {missing}",
              file=sys.stderr)
        return 2
    errors: list[str] = []
    for rel in HOT_PATH_FILES:
        errors.extend(lint_file(root / rel, contractions=rel in CONTRACTION_FILES))
    for err in errors:
        print(err, file=sys.stderr)
    if errors:
        print(f"lint_backend: {len(errors)} violation(s) in "
              f"{len(HOT_PATH_FILES)} hot-path files", file=sys.stderr)
        return 1
    print(f"lint_backend: OK ({len(HOT_PATH_FILES)} hot-path files clean)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
