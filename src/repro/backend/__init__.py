"""``repro.backend`` — the array-module seam under every hot kernel.

Hot-path modules (the autograd substrate, the nn step kernels, the
local-energy plan, the engine stages) never import numpy directly; they
import the module-level :data:`xp` proxy from here and the dtype policy
from :mod:`repro.backend.dtypes`.  ``xp`` forwards each call to the
*active* backend's namespace:

* the process-wide default is the numpy backend — bit-identical to the
  pre-seam code, zero configuration;
* :func:`use_backend` pushes a thread-local override, which is how the
  engine runs each rank's iteration on the run's configured backend
  (``--set backend.name=...``), the serving layer places each loaded model
  version, and the benchmarks switch per row.

Registered backends: ``numpy`` (default) and ``mock`` (numpy + allocation /
transfer counters — the CI oracle for the residency contract).
"""
from __future__ import annotations

import contextlib
import threading

from repro.backend.core import UNTAGGED, ArrayBackend, counter_delta
from repro.backend.mock import MockBackend
from repro.backend.numpy_backend import NumpyBackend

__all__ = [
    "ArrayBackend",
    "BACKEND_NAMES",
    "UNTAGGED",
    "active_backend",
    "counter_delta",
    "get_backend",
    "use_backend",
    "xp",
]

#: spec-valid backend names
BACKEND_NAMES = ("numpy", "mock")

_numpy_backend = NumpyBackend()
_instances: dict[str, ArrayBackend] = {"numpy": _numpy_backend}
_lock = threading.Lock()
_active = threading.local()


def get_backend(name: str | ArrayBackend) -> ArrayBackend:
    """Resolve a backend by registry name (idempotent per name).

    Passing an :class:`ArrayBackend` instance returns it unchanged, so call
    sites accept either form.
    """
    if isinstance(name, ArrayBackend):
        return name
    with _lock:
        backend = _instances.get(name)
        if backend is not None:
            return backend
        if name != "mock":
            raise ValueError(
                f"unknown array backend {name!r}; registered: {BACKEND_NAMES}"
            )
        backend = _instances[name] = MockBackend()
        return backend


def active_backend() -> ArrayBackend:
    """The backend ``xp`` currently forwards to (thread-local; numpy default)."""
    stack = getattr(_active, "stack", None)
    if stack:
        return stack[-1]
    return _numpy_backend


@contextlib.contextmanager
def use_backend(backend: str | ArrayBackend):
    """Thread-locally activate ``backend`` for the duration of the block."""
    backend = get_backend(backend)
    stack = getattr(_active, "stack", None)
    if stack is None:
        stack = _active.stack = []
    stack.append(backend)
    try:
        yield backend
    finally:
        stack.pop()


class _XpProxy:
    """Module-level ``xp``: one attribute forward per call to the active
    backend's namespace.  Hot modules bind it once at import time and stay
    backend-agnostic — the indirection resolves per call, per thread."""

    __slots__ = ()

    def __getattr__(self, name: str):
        return getattr(active_backend().xp, name)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<xp proxy -> {active_backend().name}>"


xp = _XpProxy()
