"""The repository's dtype policy, in one place.

Every hot-path module takes its dtypes from here instead of spelling
``np.float64`` / ``np.complex128`` literals inline, so the policy (VMC math
in float64 but for what no tape reads, amplitudes in complex128, packed
configuration keys in uint64) is stated once:

* float64 everywhere real-valued — VMC gradients are small differences of
  local energies — except the two networks' arithmetic, no-grad and stage 5
  alike.  The decoder session (``repro.nn.inference``:
  the BAS sweep, the walk of ``log_amplitudes``, serving) runs its kernel and
  KV cache in float32 on a per-session copy of the parameters and returns
  float64 logits; masks, log-softmax, the multinomial split and the running
  log pi stay float64.  Audit against the dense float64 forward
  (``tests/test_precision.py``): |d log pi| <= 2.5e-6 on the paper-size N2
  net (10k coupled rows, median 3.7e-7); with both no-grad halves float32,
  exact sector energies (H2, LiH, N2 CAS) within 1.3e-7 Ha, and on a
  100k-sample N2 batch per-sample |dE_loc| <= 6.7e-6 Ha, an energy shift
  2.6e-8 of its error bar, the Eq. 7 gradient (stage 5 float32 too) 3.1e-7
  relative.
  ``PhaseMLP.step`` (every no-grad phi: stage 2, the amplitude-table
  extension, serving, observables) and ``PhaseMLP.vjp`` (stage 5's phase
  gradient) share one float32 GEMM + bias + tanh forward on a per-call cast
  of the float64 parameters; ``step`` returns float64 and ``vjp`` adds into
  the float64 gradient.  One sum stays float64: the output bias's
  gradient, the global-phase (gauge) direction, which centred coefficients
  make exactly 0 — float32 would leave ~1e-8 there, and Adam normalises
  that noise into an lr-sized random walk.  Stage 5's log-pi gradient
  (``TransformerAmplitude.prefix_forward`` / ``prefix_vjp`` over the prefix
  tree: stage 5 and pretraining) runs float32 and feature-major the same
  way, on a per-call cast, adding into the float64 gradient; the masked,
  picked log-softmax head and its backward (nodes x vocab) stay float64, so
  does the head bias's gradient, and the attention key bias's — another
  gauge, 0 analytically — is written as exactly 0.  E_loc accumulation and
  the AdamW update stay float64.  Audit against the taped float64 head:
  |dphi| <= 1.9e-7 rad on the paper-size net; stage 5 against the
  all-float64 tape at fixed coefficients (N2, 100k samples): gradient
  3.1e-7 relative (amplitude slice 3.1e-7, phase slice 3.7e-7), output-bias
  gradient ~1e-18, key-bias gradient 0, every exact zero of the tape 0.
* complex128 for log-amplitudes ``log Psi = 0.5 log pi + i phi``.
* uint64 for packed bitstring keys (64 qubits per word, multi-word rows);
  uint8 for unpacked bit arrays; int64 for weights/counts/indices;
  uint32 for natural-width wire counts.

These are numpy scalar types, usable both as ``dtype=`` arguments and as
converters (``float64(x)``).
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
