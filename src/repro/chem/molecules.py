"""Geometries of every molecule appearing in the paper's evaluation.

Equilibrium geometries (Angstrom) follow standard experimental/computational
values; where the paper's exact geometry is unknown these are the common
NIST/CCCBDB equilibrium structures — absolute energies shift by milli-Hartrees
but every qualitative comparison (method orderings, error trends) is
unaffected.
"""
from __future__ import annotations

from inspect import signature

import numpy as np

from repro.chem.geometry import Molecule

__all__ = ["make_molecule", "MOLECULES", "geometry_keys", "paper_table1_molecules",
           "fig9_molecules"]


def _h2(r: float = 0.7414) -> Molecule:
    return Molecule.from_angstrom([("H", (0, 0, 0)), ("H", (0, 0, r))], name="H2")


def _lih(r: float = 1.5949) -> Molecule:
    return Molecule.from_angstrom([("Li", (0, 0, 0)), ("H", (0, 0, r))], name="LiH")


def _beh2(r: float = 1.3264) -> Molecule:
    return Molecule.from_angstrom(
        [("Be", (0, 0, 0)), ("H", (0, 0, -r)), ("H", (0, 0, r))], name="BeH2"
    )


def _h2o(r: float = 0.9578, theta_deg: float = 104.478) -> Molecule:
    th = np.deg2rad(theta_deg) / 2.0
    return Molecule.from_angstrom(
        [
            ("O", (0.0, 0.0, 0.0)),
            ("H", (r * np.sin(th), 0.0, r * np.cos(th))),
            ("H", (-r * np.sin(th), 0.0, r * np.cos(th))),
        ],
        name="H2O",
    )


def _nh3() -> Molecule:
    # C3v, r(NH) = 1.0124 A, HNH = 106.67 deg
    r, hnh = 1.0124, np.deg2rad(106.67)
    # Place H atoms on a cone around z.
    rho = r * np.sqrt(2.0 / 3.0 * (1.0 - np.cos(hnh)))
    z = -np.sqrt(max(r * r - rho * rho, 0.0))
    atoms = [("N", (0.0, 0.0, 0.0))]
    for k in range(3):
        phi = 2.0 * np.pi * k / 3.0
        atoms.append(("H", (rho * np.cos(phi), rho * np.sin(phi), z)))
    return Molecule.from_angstrom(atoms, name="NH3")


def _n2(r: float = 1.0977) -> Molecule:
    return Molecule.from_angstrom([("N", (0, 0, 0)), ("N", (0, 0, r))], name="N2")


def _o2(r: float = 1.2075) -> Molecule:
    return Molecule.from_angstrom([("O", (0, 0, 0)), ("O", (0, 0, r))], name="O2")


def _c2(r: float = 1.2425) -> Molecule:
    return Molecule.from_angstrom([("C", (0, 0, 0)), ("C", (0, 0, r))], name="C2")


def _h2s(r: float = 1.3356, theta_deg: float = 92.11) -> Molecule:
    th = np.deg2rad(theta_deg) / 2.0
    return Molecule.from_angstrom(
        [
            ("S", (0.0, 0.0, 0.0)),
            ("H", (r * np.sin(th), 0.0, r * np.cos(th))),
            ("H", (-r * np.sin(th), 0.0, r * np.cos(th))),
        ],
        name="H2S",
    )


def _ph3() -> Molecule:
    r, hph = 1.4200, np.deg2rad(93.5)
    rho = r * np.sqrt(2.0 / 3.0 * (1.0 - np.cos(hph)))
    z = -np.sqrt(max(r * r - rho * rho, 0.0))
    atoms = [("P", (0.0, 0.0, 0.0))]
    for k in range(3):
        phi = 2.0 * np.pi * k / 3.0
        atoms.append(("H", (rho * np.cos(phi), rho * np.sin(phi), z)))
    return Molecule.from_angstrom(atoms, name="PH3")


def _licl(r: float = 2.0207) -> Molecule:
    return Molecule.from_angstrom([("Li", (0, 0, 0)), ("Cl", (0, 0, r))], name="LiCl")


def _li2o(r: float = 1.606) -> Molecule:
    # Linear Li-O-Li.
    return Molecule.from_angstrom(
        [("O", (0, 0, 0)), ("Li", (0, 0, r)), ("Li", (0, 0, -r))], name="Li2O"
    )


def _c2h4o() -> Molecule:
    # Ethylene oxide (oxirane), C2v; standard experimental geometry.
    return Molecule.from_angstrom(
        [
            ("O", (0.0, 0.0, 0.8573)),
            ("C", (0.0, 0.7311, -0.3745)),
            ("C", (0.0, -0.7311, -0.3745)),
            ("H", (0.9124, 1.2618, -0.6360)),
            ("H", (-0.9124, 1.2618, -0.6360)),
            ("H", (0.9124, -1.2618, -0.6360)),
            ("H", (-0.9124, -1.2618, -0.6360)),
        ],
        name="C2H4O",
    )


def _c3h6() -> Molecule:
    # Cyclopropane, D3h: C ring radius 0.8754 A (r_CC=1.512), r_CH=1.083.
    rc = 1.5120 / np.sqrt(3.0)
    atoms = []
    hc = 1.083
    # H-C-H plane perpendicular to ring; HCH angle 114.5 deg.
    half = np.deg2rad(114.5) / 2.0
    for k in range(3):
        phi = 2.0 * np.pi * k / 3.0
        cx, cy = rc * np.cos(phi), rc * np.sin(phi)
        atoms.append(("C", (cx, cy, 0.0)))
        # Hydrogens above/below the plane, displaced radially outward.
        out = np.array([np.cos(phi), np.sin(phi), 0.0])
        for sz in (+1.0, -1.0):
            pos = np.array([cx, cy, 0.0]) + hc * (
                np.sin(half) * sz * np.array([0.0, 0.0, 1.0]) + np.cos(half) * out
            )
            atoms.append(("H", tuple(pos)))
    return Molecule.from_angstrom(atoms, name="C3H6")


def _benzene() -> Molecule:
    # D6h, r_CC = 1.397 A, r_CH = 1.084 A — the 6-31G / 120-qubit workload.
    rc, rh = 1.397, 1.397 + 1.084
    atoms = []
    for k in range(6):
        phi = np.pi * k / 3.0
        atoms.append(("C", (rc * np.cos(phi), rc * np.sin(phi), 0.0)))
        atoms.append(("H", (rh * np.cos(phi), rh * np.sin(phi), 0.0)))
    return Molecule.from_angstrom(atoms, name="C6H6")


_FACTORIES = {
    "H2": _h2,
    "LiH": _lih,
    "BeH2": _beh2,
    "H2O": _h2o,
    "NH3": _nh3,
    "N2": _n2,
    "O2": _o2,
    "C2": _c2,
    "H2S": _h2s,
    "PH3": _ph3,
    "LiCl": _licl,
    "Li2O": _li2o,
    "C2H4O": _c2h4o,
    "C3H6": _c3h6,
    "C6H6": _benzene,
}

MOLECULES = sorted(_FACTORIES)


def make_molecule(name: str, **kwargs) -> Molecule:
    """Build a preset molecule by name; geometry kwargs forwarded (e.g. r=...)."""
    try:
        factory = _FACTORIES[name]
    except KeyError as exc:
        raise ValueError(f"unknown molecule {name!r}; available: {MOLECULES}") from exc
    return factory(**kwargs)


def geometry_keys(name: str) -> tuple[str, ...]:
    """The geometry keywords ``make_molecule(name, ...)`` accepts (``("r",)``
    for a diatomic, ``()`` for a fixed structure)."""
    return tuple(signature(_FACTORIES[name]).parameters)


def paper_table1_molecules() -> list[str]:
    """The Table 1 systems, smallest first."""
    return ["H2O", "N2", "O2", "H2S", "PH3", "LiCl", "Li2O"]


def fig9_molecules() -> list[str]:
    """The Fig. 9 memory-reduction systems."""
    return ["LiH", "H2O", "C2", "N2", "NH3", "Li2O", "C2H4O", "C3H6"]
