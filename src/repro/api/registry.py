"""String-keyed component registries: ansätze and execution backends.

A spec names components (``ansatz.name = "transformer"``); the registries map
those names to builder callables.  This is the factory/driver split the AFQMC
production codes use — new components plug in by registering a name instead
of editing the driver's call sites:

    from repro.api import register_ansatz

    @register_ansatz("retnet")
    def build_retnet(n_qubits, n_up, n_dn, *, seed=0, **params):
        ...
        return wf

Builder contracts (what the driver calls):

* **ansatz**: ``builder(n_qubits, n_up, n_dn, *, seed=0, **params) -> wf``,
  an ``NNQSWavefunction`` whose amplitude network answers the protocol
  ``repro.nn.TransformerAmplitude`` documents ("Interface contract"); one
  without a rebuild ``spec`` (``build_qiankunnet`` records it) runs with
  ``output.publish = false``.  Both are checked at materialization.
* **backend**: ``factory(n_ranks=..., **fields) -> ExecutionBackend`` (the
  spec's ``parallel.backend`` choice), where ``fields`` are the ``parallel``
  section's fields the factory declares by name (``nu_star_per_rank``,
  ``collective_timeout_s``, ...; the whole section when it takes
  ``**kwargs``).  The built-ins register the backend classes of
  :mod:`repro.core.engine` / :mod:`repro.parallel.cluster` themselves.

Unknown names raise :class:`UnknownComponentError` listing what *is*
registered, so a typo'd spec fails at materialization with an actionable
message instead of deep inside the run loop.
"""
from __future__ import annotations

from typing import Callable

__all__ = [
    "UnknownComponentError",
    "ComponentRegistry",
    "ANSATZE",
    "BACKENDS",
    "register_ansatz",
    "register_backend",
]


class UnknownComponentError(KeyError):
    """Lookup of a name nobody registered; the message lists the options."""

    def __init__(self, kind: str, name: str, registered: list[str]):
        self.kind = kind
        self.name = name
        self.registered = registered
        options = ", ".join(registered) if registered else "(none)"
        super().__init__(
            f"unknown {kind} {name!r}; registered {kind}s: {options}"
        )

    def __str__(self) -> str:  # KeyError wraps the message in quotes
        return self.args[0]


class ComponentRegistry:
    """A named mapping from component names to builder callables."""

    def __init__(self, kind: str):
        self.kind = kind
        self._builders: dict[str, Callable] = {}

    def register(self, name: str, builder: Callable | None = None,
                 *, overwrite: bool = False):
        """Register ``builder`` under ``name``; usable as a decorator."""

        def _add(fn: Callable) -> Callable:
            if not overwrite and name in self._builders:
                raise ValueError(
                    f"{self.kind} {name!r} is already registered "
                    "(pass overwrite=True to replace it)"
                )
            self._builders[name] = fn
            return fn

        return _add if builder is None else _add(builder)

    def get(self, name: str) -> Callable:
        try:
            return self._builders[name]
        except KeyError:
            raise UnknownComponentError(self.kind, name, self.names()) from None

    def build(self, name: str, *args, **kwargs):
        return self.get(name)(*args, **kwargs)

    def names(self) -> list[str]:
        return sorted(self._builders)

    def __contains__(self, name: str) -> bool:
        return name in self._builders


ANSATZE = ComponentRegistry("ansatz")
BACKENDS = ComponentRegistry("backend")


def register_ansatz(name: str, builder: Callable | None = None,
                    *, overwrite: bool = False):
    return ANSATZE.register(name, builder, overwrite=overwrite)


def register_backend(name: str, builder: Callable | None = None,
                     *, overwrite: bool = False):
    return BACKENDS.register(name, builder, overwrite=overwrite)
