"""The repository's dtype policy, in one place.

Every hot-path module takes its dtypes from here instead of spelling
``np.float64`` / ``np.complex128`` literals inline, so the policy (all VMC
math in float64, amplitudes in complex128, packed configuration keys in
uint64) is stated once and adapters can translate it per backend:

* float64 everywhere real-valued — VMC gradients are small differences of
  local energies.  Whether float32 would degrade chemical-accuracy
  convergence is unmeasured (ROADMAP item 5 measures it).
* complex128 for log-amplitudes ``log Psi = 0.5 log pi + i phi``.
* uint64 for packed bitstring keys (64 qubits per word, multi-word rows);
  uint8 for unpacked bit arrays; int64 for weights/counts/indices;
  uint32 for natural-width wire counts.

These are numpy scalar types (usable both as ``dtype=`` arguments and as
converters, e.g. ``float64(x)``); non-numpy backends translate them inside
their ``xp`` adapter namespace, so kernel code never branches on the
backend to pick a dtype.
"""
from __future__ import annotations

import numpy as _np

__all__ = [
    "float64",
    "float32",
    "complex128",
    "uint64",
    "uint32",
    "uint8",
    "int64",
    "int32",
    "bool_",
]

float64 = _np.float64
float32 = _np.float32
complex128 = _np.complex128
uint64 = _np.uint64
uint32 = _np.uint32
uint8 = _np.uint8
int64 = _np.int64
int32 = _np.int32
bool_ = _np.bool_
