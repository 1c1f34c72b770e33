"""The repository's dtype policy, in one place.

Every hot-path module takes its dtypes from here instead of spelling
``np.float64`` / ``np.complex128`` literals inline, so the policy (VMC math
in float64 but for the phase MLP's GEMMs, amplitudes in complex128, packed
configuration keys in uint64) is stated once and adapters can translate it
per backend:

* float64 everywhere real-valued — VMC gradients are small differences of
  local energies — except the phase MLP's GEMMs, no-grad and stage 5 alike.
  ``PhaseMLP.step`` (every no-grad phi: stage 2, the amplitude-table
  extension, serving, observables) and ``PhaseMLP.vjp`` (stage 5's phase
  gradient) share one float32 GEMM + bias + tanh forward on a per-call cast
  of the float64 parameters; ``step`` returns float64 and ``vjp`` adds into
  the float64 gradient.  One sum stays float64: the output bias's
  gradient, the global-phase (gauge) direction, which centred coefficients
  make exactly 0 — float32 would leave ~1e-8 there, and Adam normalises
  that noise into an lr-sized random walk.  The decoder, its walk and tape,
  E_loc accumulation and the AdamW update stay float64.  Audit against the
  taped float64 head (``tests/test_precision.py``): |dphi| <= 1.9e-7 rad on
  the paper-size net; on a 100k-sample N2 batch (N_u ~ 550) per-sample
  |dE_loc| <= 1.7e-6 Ha, an energy shift 1.5e-8 of its error bar; stage 5
  against the all-float64 tape at fixed coefficients: gradient 2.0e-9
  relative, phase slice 3.6e-7, amplitude slice bit-identical, output-bias
  gradient ~1e-18; exact sector energies (H2, LiH, N2 CAS) within 8.2e-10
  Ha.
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
