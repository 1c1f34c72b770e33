"""Contracted Gaussian shells and basis construction.

A :class:`Shell` is a contracted set of primitive Gaussians sharing a center
and angular momentum ``l``.  Integrals are evaluated over *cartesian*
components x^i y^j z^k e^{-a r^2} (each component individually normalized);
``d`` shells are then transformed to the 5 real solid harmonics so that basis
dimensions match the standard spherical counts the paper quotes (cc-pVTZ H2 =
28 spatial orbitals = 56 qubits).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.chem.basis.data import element_shells
from repro.chem.geometry import Molecule

__all__ = ["Shell", "BasisSet", "cartesian_components", "build_basis"]


def cartesian_components(l: int) -> list[tuple[int, int, int]]:
    """Cartesian (lx, ly, lz) components of angular momentum l, canonical order."""
    return [
        (lx, ly, l - lx - ly)
        for lx in range(l, -1, -1)
        for ly in range(l - lx, -1, -1)
    ]


def _df(n: int) -> int:
    """(2n-1)!! with the convention (-1)!! = 1."""
    return math.prod(range(1, 2 * n, 2))


def primitive_norm(a: float, lx: int, ly: int, lz: int) -> float:
    """Normalization constant of x^lx y^ly z^lz exp(-a r^2)."""
    l = lx + ly + lz
    pref = (2.0 * a / np.pi) ** 0.75 * (4.0 * a) ** (l / 2.0)
    return pref / np.sqrt(_df(lx) * _df(ly) * _df(lz))


@dataclass
class Shell:
    l: int
    exps: np.ndarray
    coefs: np.ndarray  # coefficients for *normalized* primitives (EMSL style)
    center: np.ndarray
    atom_index: int
    # effective contraction coefficients for raw primitives of the (l,0,0)
    # component, rescaled so every individually-normalized cartesian component
    # of the contracted function has unit self-overlap:
    norm_coefs: np.ndarray = field(default=None, repr=False)

    def __post_init__(self):
        self.exps = np.asarray(self.exps, dtype=np.float64)
        self.coefs = np.asarray(self.coefs, dtype=np.float64)
        self.center = np.asarray(self.center, dtype=np.float64)
        self.norm_coefs = self._normalize()

    @property
    def n_cart(self) -> int:
        return (self.l + 1) * (self.l + 2) // 2

    @property
    def n_sph(self) -> int:
        return 2 * self.l + 1

    def _normalize(self) -> np.ndarray:
        """Fold primitive norms into coefficients and normalize the contraction.

        All cartesian components of a shell share the same radial part; using
        the (l,0,0) primitive norm for every component and then renormalizing
        the contracted (l,0,0) self-overlap makes every component of the shell
        carry the same effective coefficients.  Off-axis components (e.g. xy)
        then get their distinct angular normalization from the E-coefficient
        machinery itself because we *also* divide the final AO by its own
        self-overlap — handled in the integral driver via `component_norms`.
        """
        l = self.l
        a = self.exps
        c = self.coefs * np.array([primitive_norm(ai, l, 0, 0) for ai in a])
        # Self-overlap of the contracted (l,0,0) function:
        #   <g|g> = sum_ij c_i c_j (2l-1)!! / (2(a_i+a_j))^l * (pi/(a_i+a_j))^{3/2}
        # (standard closed form for cartesian Gaussian overlap on one center).
        s = 0.0
        for i in range(len(a)):
            for j in range(len(a)):
                p = a[i] + a[j]
                s += c[i] * c[j] * _df(l) / (2.0 * p) ** l * (np.pi / p) ** 1.5
        return c / np.sqrt(s)

    def component_norms(self) -> np.ndarray:
        """Per-cartesian-component renormalization factors.

        With ``norm_coefs`` the (l,0,0) component is exactly normalized; a
        component (lx,ly,lz) of the same shell has self-overlap
        (2lx-1)!!(2ly-1)!!(2lz-1)!! / (2l-1)!!, so dividing by its square root
        normalizes every component individually.
        """
        out = np.empty(self.n_cart)
        for idx, (lx, ly, lz) in enumerate(cartesian_components(self.l)):
            out[idx] = np.sqrt(_df(self.l) / (_df(lx) * _df(ly) * _df(lz)))
        return out


# Spherical-harmonic transforms *in terms of individually normalized cartesian
# components* (see analysis in repro.chem.basis docstring): rows = m components
# ordered (-l..l), columns = cartesian components in canonical order.
_SPH_TRANSFORMS: dict[int, np.ndarray] = {
    0: np.array([[1.0]]),
    1: np.eye(3),  # canonical cartesian order (x, y, z) -> (p_x, p_y, p_z)
    # cartesian order for l=2: xx, xy, xz, yy, yz, zz
    2: np.array(
        [
            [0.0, 1.0, 0.0, 0.0, 0.0, 0.0],                      # d_{xy}   (m=-2)
            [0.0, 0.0, 0.0, 0.0, 1.0, 0.0],                      # d_{yz}   (m=-1)
            [-0.5, 0.0, 0.0, -0.5, 0.0, 1.0],                    # d_{z^2}  (m= 0)
            [0.0, 0.0, 1.0, 0.0, 0.0, 0.0],                      # d_{xz}   (m=+1)
            [np.sqrt(3) / 2, 0.0, 0.0, -np.sqrt(3) / 2, 0.0, 0.0],  # d_{x2-y2}
        ]
    ),
}


def spherical_transform(l: int) -> np.ndarray:
    try:
        return _SPH_TRANSFORMS[l]
    except KeyError as exc:  # pragma: no cover - guarded by basis data
        raise NotImplementedError(f"spherical transform for l={l} not needed/implemented") from exc


@dataclass
class BasisSet:
    """All shells of a molecule plus AO bookkeeping (spherical AO basis)."""

    molecule: Molecule
    basis_name: str
    shells: list[Shell]

    @property
    def n_ao(self) -> int:
        return sum(sh.n_sph for sh in self.shells)

    @property
    def n_cart_ao(self) -> int:
        return sum(sh.n_cart for sh in self.shells)

    def shell_slices_cart(self) -> list[slice]:
        out, off = [], 0
        for sh in self.shells:
            out.append(slice(off, off + sh.n_cart))
            off += sh.n_cart
        return out

    def shell_slices_sph(self) -> list[slice]:
        out, off = [], 0
        for sh in self.shells:
            out.append(slice(off, off + sh.n_sph))
            off += sh.n_sph
        return out

    def ao_atom_indices(self) -> np.ndarray:
        """Atom index of every spherical AO (for population analysis)."""
        out = []
        for sh in self.shells:
            out.extend([sh.atom_index] * sh.n_sph)
        return np.array(out, dtype=np.int64)

    def cart_to_sph_matrix(self) -> np.ndarray:
        """Block-diagonal (n_sph_ao, n_cart_ao) transformation matrix."""
        mat = np.zeros((self.n_ao, self.n_cart_ao))
        ro = co = 0
        for sh in self.shells:
            block = spherical_transform(sh.l)
            mat[ro : ro + sh.n_sph, co : co + sh.n_cart] = block
            ro += sh.n_sph
            co += sh.n_cart
        return mat


def build_basis(molecule: Molecule, basis: str = "sto-3g") -> BasisSet:
    shells: list[Shell] = []
    for ai, (sym, xyz) in enumerate(zip(molecule.symbols, molecule.coords)):
        for l, exps, coefs in element_shells(sym, basis):
            shells.append(Shell(l, np.array(exps), np.array(coefs), np.array(xyz), ai))
    return BasisSet(molecule, basis.lower(), shells)
