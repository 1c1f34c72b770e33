"""The instrumented mock backend: numpy semantics + transfer/alloc counters.

``MockBackend`` delegates every ``xp`` call to numpy — returned arrays are
plain ndarrays, so every kernel is trivially bit-identical to the numpy
oracle — while counting, per thread:

* allocations: calls to the array-creating functions (``zeros``, ``empty``,
  ``asarray``, ``concatenate``, ...), a proxy for device-memory traffic;
* ``to_host`` crossings, keyed by tag (untagged = unplanned — the quantity
  the equivalence suite and the CI mock smoke assert to be zero inside the
  sampling loop);
* ``from_host`` crossings.

Counters are ``threading.local`` so thread ranks (``run_spmd``) count
independently; the engine snapshots them around each stage window
(:func:`repro.backend.core.counter_delta`) and ships per-rank deltas home
with the rank results.
"""
from __future__ import annotations

import threading

import numpy as np

from repro.backend.core import UNTAGGED, ArrayBackend

__all__ = ["MockBackend", "ALLOC_FNS"]

# The curated set of allocating creation functions worth counting.  Anything
# else forwards to numpy uncounted (ufuncs allocate too, but counting every
# temp would swamp the signal the residency contract cares about).
ALLOC_FNS = frozenset({
    "empty", "zeros", "ones", "full",
    "empty_like", "zeros_like", "ones_like", "full_like",
    "array", "asarray", "ascontiguousarray", "arange",
    "concatenate", "stack", "eye", "linspace",
})


class _Counters(threading.local):
    def __init__(self):
        self.alloc = 0
        self.to_host: dict[str, int] = {}
        self.from_host = 0


class _CountingNamespace:
    """numpy's namespace with allocation-counting wrappers on ``ALLOC_FNS``."""

    def __init__(self, counters: _Counters):
        self._counters = counters
        self._cache: dict[str, object] = {}

    def __getattr__(self, name: str):
        cache = self.__dict__["_cache"]
        attr = cache.get(name)
        if attr is None:
            attr = getattr(np, name)
            if name in ALLOC_FNS:
                attr = self._wrap(attr)
            cache[name] = attr
        return attr

    def _wrap(self, fn):
        counters = self._counters

        def counted(*args, **kwargs):
            counters.alloc += 1
            return fn(*args, **kwargs)

        counted.__name__ = fn.__name__
        return counted


class MockBackend(ArrayBackend):
    name = "mock"
    # Arrays are host ndarrays, but the backend *accounts* as if they were
    # device-resident: that is how CPU-only CI proves the residency contract
    # a real GPU backend will rely on.
    device_resident = True

    def __init__(self):
        self._counters = _Counters()
        super().__init__(_CountingNamespace(self._counters))

    # ------------------------------------------------------------- transfers
    def to_host(self, arr, tag: str | None = None):
        key = tag if tag is not None else UNTAGGED
        c = self._counters
        c.to_host[key] = c.to_host.get(key, 0) + 1
        return arr

    def from_host(self, arr):
        self._counters.from_host += 1
        return arr

    # ------------------------------------------------------- instrumentation
    def counter_snapshot(self) -> dict:
        c = self._counters
        return {
            "alloc": c.alloc,
            "to_host": dict(c.to_host),
            "from_host": c.from_host,
        }

    def reset_counters(self) -> None:
        c = self._counters
        c.alloc = 0
        c.to_host = {}
        c.from_host = 0
