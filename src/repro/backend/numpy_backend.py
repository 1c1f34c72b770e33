"""The default backend: ``xp`` is the numpy module itself.

Zero indirection on the hot path beyond one attribute forward per call —
kernels run bit-identically to the pre-seam code because they execute the
very same numpy functions on the very same ndarrays.  ``to_host`` /
``from_host`` are identities (host arrays already live on the host).
"""
from __future__ import annotations

import ctypes
import sys

import numpy as np

from repro.backend.core import ArrayBackend

__all__ = ["NumpyBackend"]

# glibc's mallopt(M_TOP_PAD, bytes): how much free memory stays at the top of
# the heap before it is handed back to the kernel.  Each 256-row block of
# stage 5 frees ~10 MB of activations there; at the default (dynamic, ~4 MB)
# the heap is trimmed after every block and the next block re-faults it, one
# 4 KiB page at a time — ~13 300 minor faults per n2_grad iteration, ~60 with
# the pad.  Measured, not tuned: 16 MiB and MALLOC_TRIM_THRESHOLD_ alone were
# both worse than doing nothing (DESIGN.md, "Parameter arena").
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


class NumpyBackend(ArrayBackend):
    name = "numpy"
    device_resident = False

    def __init__(self):
        super().__init__(np)
        _keep_heap_top()
