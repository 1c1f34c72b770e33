"""PEP 562 exports: a package names what it offers, and a name's module loads
on first touch.

A package ``__init__`` holds one table, public name -> the module that
defines it (relative to the package, or absolute), and binds the pair this
returns::

    __getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

``import repro.core`` then runs no submodule of its own; ``repro.core.VMC``
or ``from repro.core import VMC`` imports ``repro.core.vmc`` at that moment
and keeps the value as a package attribute.  A name outside the table that
names a submodule imports it, as attribute access on an eagerly imported
package would have found it.  Every rank of the data-centric scheme pays
its imports once per process (DESIGN.md "What a rank pays before iteration
1"), so what a rank never touches is never loaded.

A public name that is also a submodule's name (``repro.core.local_energy``
the function) cannot be lazy: importing the submodule later rebinds the
package attribute to the module.  Such a name is imported eagerly by its
``__init__``, after which the import system leaves it alone.
"""
from __future__ import annotations

import importlib
import sys


def lazy_exports(package: str, table: dict[str, str]):
    """``(__getattr__, __dir__)`` for ``package`` over ``table``."""

    def __getattr__(name: str):
        module = table.get(name)
        if module is not None:
            value = getattr(importlib.import_module(module, package), name)
        else:
            try:
                value = importlib.import_module(f"{package}.{name}")
            except ModuleNotFoundError as exc:
                if exc.name != f"{package}.{name}":
                    raise
                raise AttributeError(
                    f"module {package!r} has no attribute {name!r}") from None
        setattr(sys.modules[package], name, value)
        return value

    def __dir__():
        return sorted(set(vars(sys.modules[package])) | set(table))

    return __getattr__, __dir__
