"""A tiny on-disk cache for expensive, deterministic artifacts.

The qubit Hamiltonians of the larger Fig. 9 molecules take seconds to build
(integrals, SCF, the MO transformation; DESIGN.md "What a rank pays before
iteration 1"); they are pure functions of (molecule, basis), so we memoize
them under ``~/.cache/nnqs-repro`` (override with ``NNQS_CACHE_DIR``, disable
with ``NNQS_NO_CACHE=1``).
"""
from __future__ import annotations

import functools
import hashlib
import os
import pickle
from pathlib import Path

from repro.utils.atomic import atomic_write

__all__ = ["cache_dir", "disk_cache"]


def cache_dir() -> Path:
    root = os.environ.get("NNQS_CACHE_DIR")
    path = Path(root) if root else Path.home() / ".cache" / "nnqs-repro"
    path.mkdir(parents=True, exist_ok=True)
    return path


def _key(name: str, args, kwargs) -> str:
    blob = pickle.dumps((name, args, sorted(kwargs.items())), protocol=4)
    return hashlib.sha256(blob).hexdigest()[:24]


def disk_cache(fn):
    """Decorator memoizing ``fn(*hashable_args)`` to a pickle file."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if os.environ.get("NNQS_NO_CACHE"):
            return fn(*args, **kwargs)
        path = cache_dir() / f"{fn.__name__}-{_key(fn.__qualname__, args, kwargs)}.pkl"
        if path.exists():
            try:
                with open(path, "rb") as fh:
                    return pickle.load(fh)
            except Exception:
                path.unlink(missing_ok=True)
        result = fn(*args, **kwargs)
        with atomic_write(path, "wb") as fh:
            pickle.dump(result, fh, protocol=4)
        return result

    return wrapper
