"""A reverse-mode automatic differentiation engine over numpy arrays.

This is the substrate that replaces PyTorch in the reproduction: a ``Tensor``
wraps a float64 numpy array and records the operations applied to it so that
``backward()`` can accumulate gradients through the graph.  Only the
operator set needed by the paper's models (transformer decoders, MLPs)
is implemented, but each operator supports full broadcasting so the modules
read like their PyTorch counterparts.

Design notes
------------
* This module is the tape and the *primitive* ops (one node per ``+``, ``*``,
  ``reshape``, ...).  Nothing on the production path builds a graph: the
  networks run graph-free float32 kernels, stage 5 and pretraining
  differentiate them by hand-derived VJPs (``TransformerAmplitude.prefix_vjp``,
  ``PhaseMLP.vjp``).  The tape is the float64 oracle of those: the taped
  QiankunNet of ``repro.autograd.oracle`` records its coarse, hand-derived
  block ops (one node per Linear / LayerNorm / attention / GELU / log-softmax
  head), the phase head the primitives, and the primitives are the oracle
  the block ops are tested against.  Tests and benchmarks differentiate by
  tape.
* A node is taped when one of its inputs requires a gradient: a ``Tensor``
  built from plain data is a constant, and the oracle puts the parameters it
  reads on the tape as leaves (``oracle.Leaf``).  There is no global grad
  mode.
* Gradients are accumulated into ``Tensor.grad`` (dense array, same shape as
  ``data``) — or, for a parameter's leaf, into the parameter's own gradient;
  graphs are rebuilt each forward pass (define-by-run).
* All math on the tape is float64 (``repro.dtypes``): it is the
  oracle.  The float32 arithmetic is off the tape — the KV-cached decoder
  (``repro.nn.inference``), stage 5's pair over the prefix tree and the
  phase MLP's ``PhaseMLP.step`` / ``PhaseMLP.vjp`` — and its audit numbers
  are in ``repro.dtypes``.
"""
from __future__ import annotations

import itertools
from typing import Callable, Iterable

import numpy as np

from repro.dtypes import bool_, float64

__all__ = ["Tensor", "concat", "stack", "embedding_lookup"]


def _unbroadcast(grad, shape: tuple[int, ...]):
    """Sum ``grad`` down to ``shape`` (inverse of broadcasting)."""
    if grad.shape == shape:
        return grad
    # Sum over leading axes added by broadcasting.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = np.sum(grad, axis=tuple(range(extra)))
    # Sum over axes that were size-1 in the original shape.
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = np.sum(grad, axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """A numpy array with a gradient tape."""

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents", "name")
    __array_priority__ = 100.0  # numpy defers binary ops to Tensor

    def __init__(self, data, requires_grad: bool = False, name: str | None = None):
        if isinstance(data, Tensor):
            data = data.data
        self.data = np.asarray(data, dtype=float64)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._backward: Callable | None = None
        self._parents: tuple[Tensor, ...] = ()
        self.name = name

    # ------------------------------------------------------------------ info
    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def detach(self) -> "Tensor":
        return Tensor(self.data)

    # ----------------------------------------------------------- graph build
    @staticmethod
    def _make(data, parents: Iterable["Tensor"], backward) -> "Tensor":
        parents = tuple(p for p in parents if isinstance(p, Tensor))
        requires = any(p.requires_grad for p in parents)
        out = Tensor(data, requires_grad=requires)
        if requires:
            out._parents = parents
            out._backward = backward
        return out

    def _accumulate(self, grad) -> None:
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad += grad

    def backward(self, grad=None) -> None:
        """Backpropagate from this tensor (must be scalar unless grad given)."""
        if not self.requires_grad:
            raise RuntimeError("backward() on a tensor that does not require grad")
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError("backward() without grad requires a scalar output")
            grad = np.ones_like(self.data)
        grad = np.asarray(grad, dtype=float64)

        # Topological order via iterative DFS (graphs can be deep: one
        # attention layer per sampled token position).
        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if p.requires_grad and id(p) not in visited:
                    stack.append((p, False))

        grads: dict[int, object] = {id(self): grad}
        for node in reversed(topo):
            g = grads.pop(id(node), None)
            if g is None:
                continue
            if node._backward is None:
                node._accumulate(g)
                continue
            parent_grads = node._backward(g)
            for p, pg in zip(node._parents, parent_grads):
                if pg is None or not p.requires_grad:
                    continue
                pg = _unbroadcast(np.asarray(pg, dtype=float64), p.data.shape)
                if p._backward is None and not p._parents:
                    p._accumulate(pg)  # leaf
                else:
                    if id(p) in grads:
                        grads[id(p)] = grads[id(p)] + pg
                    else:
                        grads[id(p)] = pg

    def zero_grad(self) -> None:
        self.grad = None

    # ------------------------------------------------------------ arithmetic
    @staticmethod
    def _coerce(other) -> "Tensor":
        return other if isinstance(other, Tensor) else Tensor(other)

    def __add__(self, other):
        other = Tensor._coerce(other)
        out_data = self.data + other.data
        return Tensor._make(out_data, (self, other), lambda g: (g, g))

    __radd__ = __add__

    def __neg__(self):
        return Tensor._make(-self.data, (self,), lambda g: (-g,))

    def __sub__(self, other):
        other = Tensor._coerce(other)
        return Tensor._make(self.data - other.data, (self, other), lambda g: (g, -g))

    def __rsub__(self, other):
        return Tensor._coerce(other) - self

    def __mul__(self, other):
        other = Tensor._coerce(other)
        a, b = self.data, other.data
        return Tensor._make(a * b, (self, other), lambda g: (g * b, g * a))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = Tensor._coerce(other)
        a, b = self.data, other.data
        return Tensor._make(
            a / b, (self, other), lambda g: (g / b, -g * a / (b * b))
        )

    def __rtruediv__(self, other):
        return Tensor._coerce(other) / self

    def __pow__(self, exponent: float):
        a = self.data
        e = float(exponent)
        return Tensor._make(a**e, (self,), lambda g: (g * e * a ** (e - 1.0),))

    def __matmul__(self, other):
        other = Tensor._coerce(other)
        a, b = self.data, other.data
        out = a @ b

        def backward(g):
            if a.ndim == 1 and b.ndim == 1:
                return (g * b, g * a)
            ga = g @ np.swapaxes(b, -1, -2) if b.ndim > 1 else np.outer(g, b)
            gb = np.swapaxes(a, -1, -2) @ g if a.ndim > 1 else np.outer(a, g)
            # batched matmul may broadcast batch dims
            return (_unbroadcast(ga, a.shape), _unbroadcast(gb, b.shape))

        return Tensor._make(out, (self, other), backward)

    # ------------------------------------------------------------- reductions
    def sum(self, axis=None, keepdims: bool = False):
        out = np.sum(self.data, axis=axis, keepdims=keepdims)

        def backward(g):
            g = np.asarray(g)
            if axis is None:
                return (np.array(np.broadcast_to(g, self.data.shape)),)
            if not keepdims:
                g = np.expand_dims(g, axis)
            return (np.array(np.broadcast_to(g, self.data.shape)),)

        return Tensor._make(out, (self,), backward)

    def mean(self, axis=None, keepdims: bool = False):
        n = self.data.size if axis is None else self.data.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / n)

    # ---------------------------------------------------------- elementwise
    def exp(self):
        out = np.exp(self.data)
        return Tensor._make(out, (self,), lambda g: (g * out,))

    def log(self):
        a = self.data
        return Tensor._make(np.log(a), (self,), lambda g: (g / a,))

    def sqrt(self):
        out = np.sqrt(self.data)
        return Tensor._make(out, (self,), lambda g: (g * 0.5 / out,))

    def tanh(self):
        out = np.tanh(self.data)
        return Tensor._make(out, (self,), lambda g: (g * (1.0 - out * out),))

    def relu(self):
        a = self.data
        mask = a > 0
        return Tensor._make(a * mask, (self,), lambda g: (g * mask,))

    def sigmoid(self):
        out = 1.0 / (1.0 + np.exp(-self.data))
        return Tensor._make(out, (self,), lambda g: (g * out * (1.0 - out),))

    # --------------------------------------------------------------- reshape
    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        old = self.data.shape
        return Tensor._make(
            self.data.reshape(shape), (self,), lambda g: (g.reshape(old),)
        )

    def transpose(self, *axes):
        if not axes:
            axes = tuple(reversed(range(self.data.ndim)))
        elif len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        inv = tuple(sorted(range(len(axes)), key=axes.__getitem__))
        return Tensor._make(
            np.transpose(self.data, axes), (self,),
            lambda g: (np.transpose(g, inv),)
        )

    def swapaxes(self, a: int, b: int):
        return Tensor._make(
            np.swapaxes(self.data, a, b), (self,), lambda g: (np.swapaxes(g, a, b),)
        )

    def __getitem__(self, idx):
        out = self.data[idx]

        def backward(g):
            full = np.zeros_like(self.data)
            np.add.at(full, idx, g)
            return (full,)

        return Tensor._make(out, (self,), backward)

    # ------------------------------------------------------- fused helpers
    def masked_fill(self, mask, value: float):
        """Return a tensor equal to self with ``value`` where ``mask`` is True."""
        mask = np.asarray(mask, dtype=bool_)
        out = np.where(mask, value, self.data)
        return Tensor._make(out, (self,), lambda g: (np.where(mask, 0.0, g),))

    def log_softmax(self, axis: int = -1):
        a = self.data
        m = np.max(a, axis=axis, keepdims=True)
        shifted = a - m
        lse = np.log(np.sum(np.exp(shifted), axis=axis, keepdims=True))
        out = shifted - lse

        def backward(g):
            softmax = np.exp(out)
            return (g - softmax * np.sum(g, axis=axis, keepdims=True),)

        return Tensor._make(out, (self,), backward)

    def softmax(self, axis: int = -1):
        a = self.data
        m = np.max(a, axis=axis, keepdims=True)
        e = np.exp(a - m)
        out = e / np.sum(e, axis=axis, keepdims=True)

        def backward(g):
            dot = np.sum(g * out, axis=axis, keepdims=True)
            return (out * (g - dot),)

        return Tensor._make(out, (self,), backward)


def concat(tensors: list[Tensor], axis: int = 0) -> Tensor:
    """Concatenate tensors along ``axis`` with gradient routing."""
    datas = [t.data for t in tensors]
    out = np.concatenate(datas, axis=axis)
    sizes = [d.shape[axis] for d in datas]
    offsets = list(itertools.accumulate([0] + sizes))

    def backward(g):
        grads = []
        for i in range(len(datas)):
            sl = [slice(None)] * g.ndim
            sl[axis] = slice(offsets[i], offsets[i + 1])
            grads.append(g[tuple(sl)])
        return tuple(grads)

    return Tensor._make(out, tensors, backward)


def stack(tensors: list[Tensor], axis: int = 0) -> Tensor:
    out = np.stack([t.data for t in tensors], axis=axis)

    def backward(g):
        return tuple(np.take(g, i, axis=axis) for i in range(len(tensors)))

    return Tensor._make(out, tensors, backward)


def embedding_lookup(table: Tensor, idx) -> Tensor:
    """Row gather ``table[idx]`` with scatter-add backward (nn.Embedding)."""
    idx = np.asarray(idx)
    out = table.data[idx]

    def backward(g):
        full = np.zeros_like(table.data)
        np.add.at(full, idx.reshape(-1), g.reshape(-1, table.data.shape[-1]))
        return (full,)

    return Tensor._make(out, (table,), backward)
