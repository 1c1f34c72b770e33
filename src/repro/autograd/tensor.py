"""A reverse-mode automatic differentiation engine over backend arrays.

This is the substrate that replaces PyTorch in the reproduction: a ``Tensor``
wraps a float64 array from the active array backend (``repro.backend.xp`` —
numpy by default) and records the operations applied to it so that
``backward()`` can accumulate gradients through the graph.  Only the
operator set needed by the paper's models (transformer decoders, MLPs)
is implemented, but each operator supports full broadcasting so the modules
read like their PyTorch counterparts.

Design notes
------------
* This module is the tape and the *primitive* ops (one node per ``+``, ``*``,
  ``reshape``, ...).  The production QiankunNet forward does not compose
  them per element: its layers tape the coarse, hand-derived block ops of
  ``repro.autograd.block_ops`` (one node per Linear / LayerNorm / attention /
  GELU / log-softmax head) on this same tape.  The primitives remain for
  everything else (the phase MLP's ``tanh``, the Eq. 7 surrogate, SR) and are the oracle the block ops are tested against.
* Gradients are accumulated into ``Tensor.grad`` (dense backend array, same
  shape as ``data``) and stay on the backend's device; graphs are rebuilt
  each forward pass (define-by-run).
* ``no_grad()`` disables taping, used by the sampler's pure-inference passes —
  this mirrors the paper's split between sampling (inference) and the backward
  pass (Fig. 4).
* All math is float64 (``repro.backend.dtypes``): VMC gradients are small
  differences of local energies, and float32 noise visibly degrades
  convergence at chemical accuracy.
* Array math goes through ``xp``-level functions (``xp.sum``, ``xp.transpose``)
  rather than ndarray methods where the conventions differ across backends,
  so the same tape runs on numpy, the counting mock, and any device adapter.
"""
from __future__ import annotations

import contextlib
import itertools
import threading
from typing import Callable, Iterable

from repro.backend import xp
from repro.backend.dtypes import bool_, float64

__all__ = ["Tensor", "no_grad", "is_grad_enabled"]

# Grad mode is per-thread (like PyTorch): the serving layer runs inference
# under no_grad on its scheduler thread while a trainer builds graphs on
# another — a shared flag would silently untape the trainer's forward pass.
_GRAD_STATE = threading.local()


def _grad_stack() -> list[bool]:
    stack = getattr(_GRAD_STATE, "stack", None)
    if stack is None:
        stack = _GRAD_STATE.stack = [True]
    return stack


@contextlib.contextmanager
def no_grad():
    """Context manager disabling graph construction (inference mode)."""
    stack = _grad_stack()
    stack.append(False)
    try:
        yield
    finally:
        stack.pop()


def is_grad_enabled() -> bool:
    return _grad_stack()[-1]


def _unbroadcast(grad, shape: tuple[int, ...]):
    """Sum ``grad`` down to ``shape`` (inverse of broadcasting)."""
    if grad.shape == shape:
        return grad
    # Sum over leading axes added by broadcasting.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = xp.sum(grad, axis=tuple(range(extra)))
    # Sum over axes that were size-1 in the original shape.
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = xp.sum(grad, axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """A backend array with a gradient tape."""

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents", "name")
    __array_priority__ = 100.0  # numpy defers binary ops to Tensor

    def __init__(self, data, requires_grad: bool = False, name: str | None = None):
        if isinstance(data, Tensor):
            data = data.data
        self.data = xp.asarray(data, dtype=float64)
        self.grad = None
        self.requires_grad = bool(requires_grad) and is_grad_enabled()
        self._backward: Callable | None = None
        self._parents: tuple[Tensor, ...] = ()
        self.name = name

    # ------------------------------------------------------------------ info
    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def numpy(self):
        return self.data

    def item(self) -> float:
        return float(self.data)

    def detach(self) -> "Tensor":
        return Tensor(self.data)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        grad = ", grad" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{grad})"

    def __len__(self) -> int:
        return len(self.data)

    # ----------------------------------------------------------- graph build
    @staticmethod
    def _make(data, parents: Iterable["Tensor"], backward) -> "Tensor":
        parents = tuple(p for p in parents if isinstance(p, Tensor))
        requires = is_grad_enabled() and any(p.requires_grad for p in parents)
        out = Tensor(data, requires_grad=requires)
        if requires:
            out._parents = parents
            out._backward = backward
        return out

    def _accumulate(self, grad) -> None:
        if self.grad is None:
            self.grad = xp.zeros_like(self.data)
        self.grad += grad

    def backward(self, grad=None) -> None:
        """Backpropagate from this tensor (must be scalar unless grad given)."""
        if not self.requires_grad:
            raise RuntimeError("backward() on a tensor that does not require grad")
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError("backward() without grad requires a scalar output")
            grad = xp.ones_like(self.data)
        grad = xp.asarray(grad, dtype=float64)

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
                pg = _unbroadcast(xp.asarray(pg, dtype=float64), p.data.shape)
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
            ga = g @ xp.swapaxes(b, -1, -2) if b.ndim > 1 else xp.outer(g, b)
            gb = xp.swapaxes(a, -1, -2) @ g if a.ndim > 1 else xp.outer(a, g)
            # batched matmul may broadcast batch dims
            return (_unbroadcast(ga, a.shape), _unbroadcast(gb, b.shape))

        return Tensor._make(out, (self, other), backward)

    # ------------------------------------------------------------- reductions
    def sum(self, axis=None, keepdims: bool = False):
        out = xp.sum(self.data, axis=axis, keepdims=keepdims)

        def backward(g):
            g = xp.asarray(g)
            if axis is None:
                return (xp.array(xp.broadcast_to(g, self.data.shape)),)
            if not keepdims:
                g = xp.expand_dims(g, axis)
            return (xp.array(xp.broadcast_to(g, self.data.shape)),)

        return Tensor._make(out, (self,), backward)

    def mean(self, axis=None, keepdims: bool = False):
        n = self.data.size if axis is None else self.data.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / n)

    # ---------------------------------------------------------- elementwise
    def exp(self):
        out = xp.exp(self.data)
        return Tensor._make(out, (self,), lambda g: (g * out,))

    def log(self):
        a = self.data
        return Tensor._make(xp.log(a), (self,), lambda g: (g / a,))

    def sqrt(self):
        out = xp.sqrt(self.data)
        return Tensor._make(out, (self,), lambda g: (g * 0.5 / out,))

    def tanh(self):
        out = xp.tanh(self.data)
        return Tensor._make(out, (self,), lambda g: (g * (1.0 - out * out),))

    def relu(self):
        a = self.data
        mask = a > 0
        return Tensor._make(a * mask, (self,), lambda g: (g * mask,))

    def sigmoid(self):
        out = 1.0 / (1.0 + xp.exp(-self.data))
        return Tensor._make(out, (self,), lambda g: (g * out * (1.0 - out),))

    def gelu(self):
        """tanh-approximation GELU (the variant used by GPT-style decoders)."""
        from repro.autograd.block_ops import gelu  # block_ops imports this module

        return gelu(self)

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
            xp.transpose(self.data, axes), (self,),
            lambda g: (xp.transpose(g, inv),)
        )

    def swapaxes(self, a: int, b: int):
        return Tensor._make(
            xp.swapaxes(self.data, a, b), (self,), lambda g: (xp.swapaxes(g, a, b),)
        )

    def __getitem__(self, idx):
        out = self.data[idx]

        def backward(g):
            full = xp.zeros_like(self.data)
            xp.add.at(full, idx, g)
            return (full,)

        return Tensor._make(out, (self,), backward)

    # ------------------------------------------------------- fused helpers
    def masked_fill(self, mask, value: float):
        """Return a tensor equal to self with ``value`` where ``mask`` is True."""
        mask = xp.asarray(mask, dtype=bool_)
        out = xp.where(mask, value, self.data)
        return Tensor._make(out, (self,), lambda g: (xp.where(mask, 0.0, g),))

    def log_softmax(self, axis: int = -1):
        a = self.data
        m = xp.max(a, axis=axis, keepdims=True)
        shifted = a - m
        lse = xp.log(xp.sum(xp.exp(shifted), axis=axis, keepdims=True))
        out = shifted - lse

        def backward(g):
            softmax = xp.exp(out)
            return (g - softmax * xp.sum(g, axis=axis, keepdims=True),)

        return Tensor._make(out, (self,), backward)

    def softmax(self, axis: int = -1):
        a = self.data
        m = xp.max(a, axis=axis, keepdims=True)
        e = xp.exp(a - m)
        out = e / xp.sum(e, axis=axis, keepdims=True)

        def backward(g):
            dot = xp.sum(g * out, axis=axis, keepdims=True)
            return (out * (g - dot),)

        return Tensor._make(out, (self,), backward)


def concat(tensors: list[Tensor], axis: int = 0) -> Tensor:
    """Concatenate tensors along ``axis`` with gradient routing."""
    datas = [t.data for t in tensors]
    out = xp.concatenate(datas, axis=axis)
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
    out = xp.stack([t.data for t in tensors], axis=axis)

    def backward(g):
        return tuple(xp.take(g, i, axis=axis) for i in range(len(tensors)))

    return Tensor._make(out, tensors, backward)


def embedding_lookup(table: Tensor, idx) -> Tensor:
    """Row gather ``table[idx]`` with scatter-add backward (nn.Embedding)."""
    idx = xp.asarray(idx)
    out = table.data[idx]

    def backward(g):
        full = xp.zeros_like(table.data)
        xp.add.at(full, idx.reshape(-1), g.reshape(-1, table.data.shape[-1]))
        return (full,)

    return Tensor._make(out, (table,), backward)
