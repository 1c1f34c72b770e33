"""The phase sub-network: a multilevel perceptron phi(x) (Fig. 2, right).

The paper decomposes Psi(x) = |Psi(x)| e^{i phi(x)} and models the phase with
an MLP of layer sizes N x 512 x 512 x 1 (Sec. 4.1).  The default here is
N x 256 x 256 x 1 (``PHASE_HIDDEN``), a documented deviation sized by seconds
to chemical accuracy (DESIGN.md "Phase MLP width").  The input is the raw
qubit bitstring mapped to {-1, +1}; the output is an unconstrained real phase
in radians.

One forward, float32 (``_forward32``), behind three entry points:
``step``, the graph-free evaluator of phi (the amplitude-table extension,
serving, observables); ``forward``, the same phi plus the hidden ``tanh``
outputs, which stage 2 keeps for stage 5; and ``vjp``, stage 5's
hand-derived backward, which adds the Eq. 7 phase gradient into the float64
``p.grad`` arena views — over the kept activations when it is handed them,
with no forward GEMM, else after running the forward itself.  All run their
GEMMs on float32 copies of the float64 parameters (``cast32``), cast once
per caller and handed to every row block of it; the caller owns the copies,
so none outlives what it was cast for, and nothing an optimizer step, a
restore or a version swap could leave stale is kept here.  The taped
float64 head is the oracle's (``repro.autograd.oracle``): tests and
benchmarks differentiate it by tape.  The audit behind the choice is
``repro/dtypes.py``'s.
"""
from __future__ import annotations

import numpy as np

from repro.dtypes import float32, float64
from repro.nn.layers import Linear
from repro.nn.module import Module

__all__ = ["PHASE_HIDDEN", "PhaseMLP"]

# The default hidden widths, read by ``build_qiankunnet`` and ``AnsatzSpec``.
# Against the paper's (512, 512), (256, 256) reaches 1.6 mHa sooner on h2
# (median 0.30 s against 1.38 s, 16 seeds) and n2-cas66 (1.73 s against
# 3.44 s, 6 seeds), and ties on N2's exact error at about one wall budget
# (median 23.1 against 26.1 mHa, 5 ansatz seeds, inside 512's seed spread):
# ``benchmarks/results/phase_width_sweep.txt``, DESIGN.md "Phase MLP width".
PHASE_HIDDEN = (256, 256)


class PhaseMLP(Module):
    def __init__(self, n_qubits: int, hidden: tuple[int, ...] = PHASE_HIDDEN,
                 rng: np.random.Generator | None = None):
        super().__init__()
        rng = rng or np.random.default_rng()
        sizes = (n_qubits, *hidden, 1)
        self.layers = [Linear(sizes[i], sizes[i + 1], rng=rng) for i in range(len(sizes) - 1)]
        self.n_qubits = n_qubits
        # What one row's kept activations (:meth:`forward`'s hidden) take.
        self.row_bytes = np.dtype(float32).itemsize * sum(hidden)

    def cast32(self) -> list:
        """``[(W, b), ...]``: float32 copies of every layer's parameters, for
        one caller's :meth:`step` / :meth:`vjp` calls (a row-blocked caller
        casts once and passes the copies to each block).  The copies are the
        caller's to drop; nothing here keeps them."""
        return [(np.asarray(layer.weight.data, dtype=float32),
                 np.asarray(layer.bias.data, dtype=float32))
                for layer in self.layers]

    def step(self, bits, params32: list | None = None):
        """(batch, N) or (N,) 0/1 bits -> (batch,) float64 phase in radians,
        every GEMM, bias and ``tanh`` in float32.
        ``params32`` is :meth:`cast32` of the current parameters (cast here
        when not given)."""
        return self.forward(bits, params32)[0]

    def forward(self, bits, params32: list | None = None):
        """``(phase, hidden)``: :meth:`step`'s phase and the hidden layers'
        ``tanh`` outputs ``[h_1, ..., h_{L-1}]`` (feature-major float32), which
        :meth:`vjp` of the same bits and ``params32`` reads instead of running
        the forward again.  The input ``x`` is not among them: the bits hold
        it."""
        if params32 is None:
            params32 = self.cast32()
        _, *hidden, out = self._forward32(bits, params32)
        return np.asarray(out[0], dtype=float64), hidden

    def vjp(self, bits, coeff, params32: list | None = None,
            hidden: list | None = None) -> None:
        """Add ``sum_i coeff[i] dphi(bits[i]) / dtheta`` into the layers'
        ``p.grad`` (a bound arena view is written in place; ``None`` starts
        from zero, as the tape does).

        The backward of :meth:`_forward32`, in float32, each parameter's
        contribution added into its float64 gradient.  The one exception is
        the output bias's gradient, ``coeff.sum()`` in float64: that
        direction is the global phase, a gauge, and stage 5's
        centred coefficients make it exactly 0 analytically — a float32 sum
        would leave ~1e-8 of rounding there, which Adam's ``m / (sqrt(v) +
        eps)`` turns into an lr-sized random walk of the bias.

        ``params32`` as in :meth:`step`; the backward's ``W^T g`` reads the
        same float32 weights as the forward.  ``hidden`` is :meth:`forward`'s
        second result for these bits and ``params32``: given, no forward GEMM
        runs and the gradient is the bits it would be without it.  The
        hidden activations, given or computed, are overwritten: a forward is
        differentiated once.
        """
        coeff = np.asarray(coeff, dtype=float64)
        if params32 is None:
            params32 = self.cast32()
        if hidden is None:
            acts = self._forward32(bits, params32)
        else:
            acts = [_inputs32(bits), *hidden]
        top = len(self.layers) - 1
        self.layers[top].bias._accumulate(np.sum(coeff, keepdims=True))
        g = coeff.astype(float32)[None, :]      # dloss / dz of layer i, (out, batch)
        for i in range(top, -1, -1):
            layer, h = self.layers[i], acts[i]
            layer.weight._accumulate(g @ h.T)
            if i < top:
                layer.bias._accumulate(np.sum(g, axis=1))
            if i:
                w = params32[i][0]
                # The output layer's W^T g is a (hidden, 1) @ (1, batch) outer
                # product: a broadcast multiply forms the same products
                # without a K = 1 GEMM.
                g = w.T * g if i == top else w.T @ g
                # h is layer i - 1's tanh output, read for the last time:
                # 1 - h^2 overwrites it instead of allocating twice.
                h *= h
                g *= np.subtract(1.0, h, out=h)

    def _forward32(self, bits, params32: list) -> list:
        """The float32 forward: ``[x, h_1, ..., h_L]``, feature-major
        ``(features, batch)``, ``x = 2 bits - 1`` and ``h_L`` the ``(1,
        batch)`` phase; every hidden ``h`` is a ``tanh`` output.  The GEMMs
        run on ``params32`` (:meth:`cast32`).

        Feature-major because BLAS runs ``W @ h`` well ahead of ``h^T W^T``
        on small batches (4 rows through the 512 x 512 layer: 32 against 91
        us on one OpenBLAS thread of an AMD EPYC core) and level with it at
        1 024.
        """
        acts = [_inputs32(bits)]
        *hidden, last = params32
        for w, b in hidden:
            h = _affine32(w, b, acts[-1])
            acts.append(np.tanh(h, out=h))
        acts.append(_affine32(*last, acts[-1]))
        return acts


def _inputs32(bits):
    """``x = 2 bits - 1``, feature-major ``(N, batch)`` float32."""
    x = np.asarray(bits, dtype=float32)
    if x.ndim == 1:
        x = x[None, :]
    return (2.0 * x - 1.0).T     # a Python scalar keeps float32


def _affine32(w, b, h):
    """``W h + b`` on feature-major activations, float32 throughout."""
    out = w @ h
    out += b[:, None]
    return out
