"""Minimal module system (Parameter registration, the parameter arena).

Mirrors PyTorch's ``nn.Module`` closely enough that the QiankunNet code in
``repro.core`` reads like the paper's PyTorch implementation.

A module's parameters live in one :class:`ParameterArena`: a flat float64
``theta`` of length M that every ``Parameter.data`` is a reshaped view of, and
a flat stage-6 ``payload`` of length M + 1 whose first M slots every bound
``Parameter.grad`` is a view of.  ``payload[:M]`` *is* the ``M``-sized buffer
whose Allreduce dominates the communication volume analysis of Sec. 3.2
(8·M·N_p bytes per iteration); the trailing slot carries the variance that
rides the same collective.  Reading or writing the whole model is therefore
one memcpy, and the VJPs accumulate the gradient in place
(DESIGN.md, "Parameter arena").

A module holds parameters and the graph-free kernels that read them; it has
no forward of its own.  The taped float64 forward of the same modules is the
oracle's (``repro.autograd.oracle``), for tests and benchmarks.
"""
from __future__ import annotations

import ctypes
import sys
from typing import Iterator

import numpy as np

from repro.dtypes import float64

__all__ = ["Parameter", "ParameterArena", "Module"]

# glibc's mallopt(M_TOP_PAD, bytes): how much free memory stays at the top of
# the heap before it is handed back to the kernel.  Stage 5's row blocks free
# their activations there; at the default (dynamic, ~4 MB) the heap is trimmed
# after a block and the next one re-faults it, one 4 KiB page at a time.  Per
# n2_grad iteration (steady state, one BLAS thread of an AMD EPYC core, both
# halves of stage 5 float32 VJPs; six alternating pairs of processes):
# ~1 760 minor faults and 15.1 ms without the pad, ~8 and 13.8 ms with it,
# for +1.6 MiB peak RSS (68.4 -> 70.0).  Measured, not tuned: 16 MiB and
# MALLOC_TRIM_THRESHOLD_ alone were both worse than doing nothing (DESIGN.md,
# "Parameter arena").
_M_TOP_PAD = -2
_HEAP_TOP_PAD_BYTES = 64 << 20


def _keep_heap_top() -> None:
    """Set the heap-top pad where the C library is glibc; a no-op elsewhere."""
    if not sys.platform.startswith("linux"):
        return
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):  # not glibc: no mallopt to call
        return
    mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    mallopt.restype = ctypes.c_int
    mallopt(_M_TOP_PAD, _HEAP_TOP_PAD_BYTES)


# Once per process, on import: every network, and so every arena and stage-5
# block, is built after this module loads.
_keep_heap_top()


class Parameter:
    """Trainable state of a Module: ``data`` (once packed, a view of its
    arena's ``theta``) and ``grad`` (``None``, or an array of its shape)."""

    __slots__ = ("data", "grad", "name")

    def __init__(self, data, name: str | None = None):
        self.data = np.asarray(data, dtype=float64)
        self.grad = None
        self.name = name

    shape = property(lambda self: self.data.shape)
    size = property(lambda self: self.data.size)

    def _accumulate(self, grad) -> None:
        """Add ``grad`` into the gradient (in place once it exists)."""
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad += grad


class ParameterArena:
    """The flat storage of one module tree's parameters and gradients.

    ``theta``    (M,)   the parameters; ``p.data`` is ``theta[a:b].reshape(...)``.
    ``payload``  (M+1,) the stage-6 buffer: gradient, then one slot for the
                        variance that shares the gradient's Allreduce.
    ``grad``     (M,)   ``payload[:M]``; a bound ``p.grad`` is a view of it.

    A parameter's gradient is in one of three states: ``None`` (it has none —
    optimizers skip it), its arena view (*bound*: the VJPs and the oracle's
    tape accumulate in place), or a foreign array someone assigned, which
    :meth:`gather_grads` copies into the view and rebinds.
    """

    __slots__ = ("params", "theta", "payload", "grad", "_spans", "_grad_views")

    def __init__(self, params: list[Parameter]):
        self.params = params
        self._spans = []
        offset = 0
        for p in params:
            self._spans.append((offset, offset + p.size))
            offset += p.size
        self.theta = np.empty(offset, dtype=float64)
        self.payload = np.zeros(offset + 1, dtype=float64)
        self.grad = self.payload[:offset]
        self._grad_views = []
        for p, (a, b) in zip(params, self._spans):
            data = self.theta[a:b].reshape(p.shape)
            data[...] = p.data
            p.data = data
            self._grad_views.append(self.grad[a:b].reshape(p.shape))

    def holds(self, params: list[Parameter]) -> bool:
        """Whether ``params`` are exactly this arena's, still viewing ``theta``
        (a deep copy, or another module packing the same parameters, detaches
        them; the owner then re-packs)."""
        theta = self.theta
        return len(params) == len(self.params) and all(
            p is q and p.data.base is theta for p, q in zip(params, self.params)
        )

    def zero_grad(self, bind_all: bool = False) -> None:
        """Zero the payload and bind the gradients to their views of it: those
        that exist, so a parameter no loss has reached keeps ``None`` and is
        skipped by the optimizer, or with ``bind_all`` every parameter's (the
        engine: the payload is the gradient, whatever the VJPs reach)."""
        self.payload.fill(0.0)
        for p, view in zip(self.params, self._grad_views):
            if bind_all or p.grad is not None:
                p.grad = view

    def gather_grads(self) -> list[tuple[int, int]]:
        """``[a, b)`` spans of ``grad`` that hold a parameter's gradient,
        adjacent parameters merged — ``[(0, M)]`` when every parameter has one.
        Foreign gradient arrays are copied in and rebound on the way."""
        spans: list[tuple[int, int]] = []
        for p, view, (a, b) in zip(self.params, self._grad_views, self._spans):
            if p.grad is None:
                continue
            if p.grad is not view:
                view[...] = p.grad
                p.grad = view
            if spans and spans[-1][1] == a:
                spans[-1] = (spans[-1][0], b)
            else:
                spans.append((a, b))
        return spans


def _flat(vector, size: int):
    """``vector`` as a 1-D array, refused unless it has ``size`` elements."""
    vector = np.asarray(vector)
    if vector.size != size:
        raise ValueError(f"flat vector size {vector.size} != model size {size}")
    return vector.reshape(-1)


class Module:
    """Base class: attribute assignment auto-registers parameters/submodules."""

    def __init__(self):
        object.__setattr__(self, "_parameters", {})
        object.__setattr__(self, "_modules", {})

    def __setattr__(self, key, value):
        if isinstance(value, Parameter):
            self._parameters[key] = value
        elif isinstance(value, Module):
            self._modules[key] = value
        elif isinstance(value, (list, tuple)) and value and all(
            isinstance(v, Module) for v in value
        ):
            for i, v in enumerate(value):
                self._modules[f"{key}.{i}"] = v
        object.__setattr__(self, key, value)

    def __getstate__(self) -> dict:
        # A copy's arrays are independent of this arena's buffers; travelling
        # without it makes the copy pack its own on first use.
        state = self.__dict__.copy()
        state.pop("_arena", None)
        return state

    # ------------------------------------------------------------- traversal
    def parameters(self) -> Iterator[Parameter]:
        yield from self._parameters.values()
        for m in self._modules.values():
            yield from m.parameters()

    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Parameter]]:
        for k, p in self._parameters.items():
            yield (f"{prefix}{k}", p)
        for name, m in self._modules.items():
            yield from m.named_parameters(prefix=f"{prefix}{name}.")

    def num_parameters(self) -> int:
        return sum(p.size for p in self.parameters())

    # ----------------------------------------------------------------- arena
    def arena(self) -> ParameterArena:
        """This module's parameter arena, packed on first use and re-packed
        (values kept) whenever a parameter is found outside it.  Views taken
        from an arena are valid until the module is re-packed."""
        params = list(self.parameters())
        arena = self.__dict__.get("_arena")
        if arena is None or not arena.holds(params):
            arena = ParameterArena(params)
            object.__setattr__(self, "_arena", arena)
        return arena

    def zero_grad(self) -> None:
        self.arena().zero_grad()

    def get_flat_params(self):
        """A copy of all parameters as one float64 vector (length M)."""
        return self.arena().theta.copy()

    def set_flat_params(self, flat) -> None:
        """Overwrite all parameters; a vector of the wrong size is refused
        before anything is written."""
        theta = self.arena().theta
        theta[...] = _flat(flat, theta.size)

    def get_flat_grads(self):
        """A copy of the gradient vector; parameters without one read zero."""
        arena = self.arena()
        out = np.zeros(arena.grad.size, dtype=float64)
        for a, b in arena.gather_grads():
            out[a:b] = arena.grad[a:b]
        return out

    def set_flat_grads(self, flat) -> None:
        """Give every parameter the gradient ``flat`` holds for it."""
        arena = self.arena()
        flat = _flat(flat, arena.grad.size)
        arena.zero_grad(bind_all=True)
        arena.grad[...] = flat
