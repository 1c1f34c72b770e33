"""The phase sub-network: a multilevel perceptron phi(x) (Fig. 2, right).

The paper decomposes Psi(x) = |Psi(x)| e^{i phi(x)} and models the phase with
an MLP of layer sizes N x 512 x 512 x 1 (Sec. 4.1).  The input is the raw
qubit bitstring mapped to {-1, +1}; the output is an unconstrained real phase
in radians.

Two evaluators, one set of parameters: ``forward`` is the taped float64 head
stage 5 differentiates, and the oracle of ``step``, the graph-free
evaluator every no-grad consumer of phi calls (stage 2, the amplitude-table
extension, serving, observables).  ``step`` runs its GEMMs in float32 on
copies of the float64 weights cast on every call — no cached copy that an
optimizer step, a restore or a version swap could leave stale — and hands
back float64.  The audit behind the choice is ``backend/dtypes.py``'s.
"""
from __future__ import annotations

from repro.autograd import Tensor
from repro.backend import xp
from repro.backend.dtypes import float32, float64
from repro.backend.host import host_np
from repro.nn.layers import Linear
from repro.nn.module import Module

__all__ = ["PhaseMLP"]


class PhaseMLP(Module):
    def __init__(self, n_qubits: int, hidden: tuple[int, ...] = (512, 512),
                 rng: host_np.random.Generator | None = None):
        super().__init__()
        rng = rng or host_np.random.default_rng()
        sizes = (n_qubits, *hidden, 1)
        self.layers = [Linear(sizes[i], sizes[i + 1], rng=rng) for i in range(len(sizes) - 1)]
        self.n_qubits = n_qubits

    def forward(self, bits) -> Tensor:
        """(batch, N) 0/1 bits -> (batch,) phase in radians."""
        bits = xp.asarray(bits, dtype=float64)
        if bits.ndim == 1:
            bits = bits[None, :]
        x = Tensor(2.0 * bits - 1.0)
        for layer in self.layers[:-1]:
            x = layer(x).tanh()
        out = self.layers[-1](x)
        return out.reshape(out.shape[0])

    def step(self, bits):
        """Graph-free :meth:`forward`: (batch, N) or (N,) 0/1 bits ->
        (batch,) float64 phase, every GEMM, bias and ``tanh`` in float32.

        Activations are feature-major, ``(features, batch)``: BLAS runs
        ``W @ h`` well ahead of ``h^T W^T`` on small batches (4 rows through
        the 512 x 512 layer: 32 against 91 us on one OpenBLAS thread of an
        AMD EPYC core) and level with it at 1 024.
        """
        x = xp.asarray(bits, dtype=float32)
        if x.ndim == 1:
            x = x[None, :]
        h = (2.0 * x - 1.0).T           # a Python scalar keeps float32
        *hidden, last = self.layers
        for layer in hidden:
            h = _affine32(layer, h)
            xp.tanh(h, out=h)
        return xp.asarray(_affine32(last, h)[0], dtype=float64)


def _affine32(layer: Linear, h):
    """``W h + b`` on feature-major activations, with float32 copies of the
    layer's parameters cast for this call."""
    out = xp.asarray(layer.weight.data, dtype=float32) @ h
    out += xp.asarray(layer.bias.data, dtype=float32)[:, None]
    return out
