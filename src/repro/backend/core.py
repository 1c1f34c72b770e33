"""The array-backend protocol: what every ``xp`` implementation provides.

An :class:`ArrayBackend` bundles three things:

* ``xp`` — a numpy-like array namespace the hot kernels call into
  (``xp.zeros``, ``xp.exp``, ``xp.concatenate``, ...).  For the numpy
  backend it *is* the numpy module; a device adapter exposes a
  compatible subset and translates dtype/axis conventions.
* ``to_host(arr, tag=...)`` / ``from_host(arr)`` — the explicit
  device<->host boundary.  Every device->host crossing in the pipeline is
  *tagged* (``"sampling.probs"``, ``"stage2.amps"``, ``"stage6.grad"``,
  ...); an untagged crossing is by definition unplanned, which is what the
  mock backend's counters (and the CI smoke) police.
* ``counter_snapshot()`` — instrumentation hook; ``None`` on uncounted
  backends, a dict of allocation/transfer counts on the mock backend.

The residency contract the tags encode (see DESIGN.md "Array backend"):
parameters, activations, KV caches, logits, log-amplitudes and gradients
live on the device; sampled bit arrays, packed uint64 keys, weights, RNG
state and comm payloads live on the host.  Only the sampling probability
sync and the stage-2/stage-6 collectives may cross, and each crossing is
tagged at the call site.
"""
from __future__ import annotations

from typing import Any

__all__ = ["ArrayBackend", "UNTAGGED"]

# Counter key for device->host crossings that carried no tag — i.e. the
# unplanned transfers the equivalence suite asserts to be zero.
UNTAGGED = "untagged"


class ArrayBackend:
    """Base array backend: identity transfers over a numpy-like namespace."""

    #: registry name ("numpy", "mock")
    name: str = "base"
    #: whether arrays live off-host (True => to_host really copies)
    device_resident: bool = False

    def __init__(self, xp_namespace: Any):
        self.xp = xp_namespace

    # ------------------------------------------------------------- transfers
    def to_host(self, arr, tag: str | None = None):
        """Materialize ``arr`` as a host ndarray.

        ``tag`` names the planned crossing ("sampling.probs",
        "stage2.amps", "stage6.grad"); leaving it ``None`` marks the
        transfer as unplanned, which instrumented backends count
        separately.  The numpy backend is the identity either way.
        """
        return arr

    def from_host(self, arr):
        """Move a host ndarray onto the backend's device (identity on host)."""
        return arr

    # ------------------------------------------------------- instrumentation
    def counter_snapshot(self) -> dict | None:
        """A copy of the backend's counters, or ``None`` when uncounted."""
        return None

    def reset_counters(self) -> None:
        pass

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(name={self.name!r})"


def counter_delta(before: dict | None, after: dict | None) -> dict | None:
    """Per-window counter difference (both ``None`` => uncounted backend)."""
    if before is None or after is None:
        return None
    out: dict = {}
    for key, val in after.items():
        prev = before.get(key, 0 if not isinstance(val, dict) else {})
        if isinstance(val, dict):
            sub = {k: v - prev.get(k, 0) for k, v in val.items()}
            out[key] = {k: v for k, v in sub.items() if v}
        else:
            out[key] = val - prev
    return out
