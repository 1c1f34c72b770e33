"""Write a file so readers only ever see the old content or the new."""
from __future__ import annotations

import os
from contextlib import contextmanager
from pathlib import Path

__all__ = ["atomic_write"]


@contextmanager
def atomic_write(path: str | Path, mode: str = "w"):
    """Open a temp file next to ``path``; rename it over ``path`` on success.

    ``os.replace`` is atomic on POSIX within one directory, so a process
    killed mid-write leaves the previous file intact rather than a torn one.
    """
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, mode) as f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
