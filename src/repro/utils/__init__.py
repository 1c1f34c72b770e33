"""Shared utilities: bit packing and disk caching."""
from repro._lazy import lazy_exports

_EXPORTS = {
    "lexsort_keys": ".bitstrings",
    "pack_bits": ".bitstrings",
    "parity64": ".bitstrings",
    "popcount64": ".bitstrings",
    "searchsorted_keys": ".bitstrings",
    "disk_cache": ".cache",
    "cache_dir": ".cache",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
