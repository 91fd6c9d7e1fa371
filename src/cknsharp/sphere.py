"""Zonal spectral calculus on the unit sphere (numerical N in {2, 3}).

Fields are expanded in the zonal eigenbasis of the Laplace-Beltrami
operator, orthonormal for the uniform probability measure: the cosine
basis on the circle, normalized Legendre polynomials in t = cos(phi) on
the 2-sphere.  Degree ell carries eigenvalue ell(ell + N - 2), so the
angular Dirichlet energy is the plain weighted coefficient sum and never
requires assembling rotation generators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial.legendre import leggauss, legvander

from .errors import DomainError, check_numeric_N

__all__ = [
    "Q_CAP",
    "SphereQuadrature",
    "ZonalField",
    "zonal_eigenvalue",
    "zonal_eigenvalues",
    "sphere_quadrature",
    "basis_matrix",
    "nodal_values",
    "field_from_nodal",
    "grad_energy",
    "poincare_deficit",
]

# For N <= 3 the admissible exponent window (1, (N+1)/(N-3)] of the sharp
# sphere inequality is unbounded; q is capped here for numerical stability.
Q_CAP = 10.0


@dataclass(frozen=True)
class SphereQuadrature:
    """Nodes and weights for the uniform probability measure.

    N = 2: the m-point uniform circle rule folded onto [0, pi] (weight 1/m at
    0, and at pi for even m, 2/m between): the same rule on zonal functions,
    which are even; exact for trig degree <= exactness = m - 1.
    N = 3: Gauss-Legendre in t = cos(phi) (exact for poly degree <= exactness).
    Weights sum to 1.
    """

    N: int
    nodes: np.ndarray
    weights: np.ndarray
    exactness: int
    _bases: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def basis(self, L_max: int) -> np.ndarray:
        """basis_matrix(self, L_max), built on the first request and kept
        with this quadrature; callers must not modify it."""
        if L_max not in self._bases:
            self._bases[L_max] = basis_matrix(self, L_max)
        return self._bases[L_max]


def sphere_quadrature(N: int, m: int) -> SphereQuadrature:
    """Build the m-point quadrature on the sphere for N in {2, 3} (folded for N = 2)."""
    check_numeric_N(N)
    if N == 2:
        if m < 2:
            raise DomainError(f"need m >= 2 nodes, got {m}")
        nodes = 2.0 * math.pi * np.arange(m // 2 + 1) / m
        weights = np.full(nodes.size, 2.0 / m)
        weights[[0, -1] if m % 2 == 0 else 0] = 1.0 / m
        return SphereQuadrature(N=2, nodes=nodes, weights=weights, exactness=m - 1)
    if m < 1:
        raise DomainError(f"need m >= 1 nodes, got {m}")
    t, w = leggauss(m)
    return SphereQuadrature(N=3, nodes=t, weights=w / 2.0, exactness=2 * m - 1)


@dataclass(frozen=True)
class ZonalField:
    """Zonal field on S^(N-1) by coefficients in the orthonormal eigenbasis."""

    N: int
    coeffs: np.ndarray

    def __post_init__(self):
        check_numeric_N(self.N)
        c = np.asarray(self.coeffs, dtype=float)
        if c.ndim != 1 or c.size < 1:
            raise DomainError("coeffs must be a non-empty 1-d array")
        if not np.all(np.isfinite(c)):
            raise DomainError("coeffs must be finite")
        object.__setattr__(self, "coeffs", c)

    @property
    def L_max(self) -> int:
        return self.coeffs.size - 1

    def eigenvalues(self) -> np.ndarray:
        return zonal_eigenvalues(self.N, self.L_max)


def zonal_eigenvalue(N: int, ell):
    """Laplace-Beltrami eigenvalue ell(ell + N - 2) of the zonal degree ell, a float or an array of degrees."""
    return ell * (ell + N - 2.0)


def zonal_eigenvalues(N: int, L_max: int) -> np.ndarray:
    """zonal_eigenvalue of each degree ell = 0..L_max, as floats."""
    return zonal_eigenvalue(N, np.arange(L_max + 1))


def basis_matrix(quad: SphereQuadrature, L_max: int) -> np.ndarray:
    """Orthonormal basis sampled at the quadrature nodes, shape (m, L_max+1)."""
    if L_max < 0:
        raise DomainError(f"need L_max >= 0, got {L_max}")
    ell = np.arange(L_max + 1)
    if quad.N == 3:
        return legvander(quad.nodes, L_max) * np.sqrt(2 * ell + 1.0)
    B = math.sqrt(2.0) * np.cos(np.outer(quad.nodes, ell))
    B[:, 0] = 1.0
    return B


def default_quadrature(N: int, L_max: int) -> SphereQuadrature:
    """Quadrature comfortably exact for products and powers up to ~4 L_max."""
    return sphere_quadrature(N, max(4 * L_max + 8, 32))


def nodal_values(v: ZonalField, quad: SphereQuadrature) -> np.ndarray:
    return quad.basis(v.L_max) @ v.coeffs


def field_from_nodal(values: np.ndarray, quad: SphereQuadrature, L_max: int, N: int) -> ZonalField:
    """Project nodal samples onto the zonal basis up to degree L_max."""
    B = quad.basis(L_max)
    coeffs = B.T @ (quad.weights * np.asarray(values, dtype=float))
    return ZonalField(N=N, coeffs=coeffs)


def grad_energy(v: ZonalField) -> float:
    """Angular Dirichlet energy: sum of ell(ell + N - 2) c_ell^2."""
    return float(np.sum(v.eigenvalues() * v.coeffs**2))


def _check_q(q: float) -> None:
    # written so that NaN fails the comparison
    if not 1 < q <= Q_CAP:
        raise DomainError(f"need 1 < q <= {Q_CAP} (the numerical cap), got q={q}")


def poincare_deficit(v: ZonalField, q: float, quad: SphereQuadrature | None = None) -> float:
    """Deficit of the sharp subcritical sphere inequality at exponent q.

    (q-1)/(N-1) * grad_energy(v) - (int |v|^(q+1))^(2/(q+1)) + int v^2,
    non-negative for every field, vanishing to fourth order in the size of
    a degree-1 perturbation of a constant (the constant is sharp there).
    Nodal values pass through |.| before the fractional power; quad is the
    default quadrature if None.
    """
    _check_q(q)
    if quad is None:
        quad = default_quadrature(v.N, v.L_max)
    int_q1 = float(np.sum(quad.weights * np.abs(nodal_values(v, quad)) ** (q + 1)))
    return (q - 1) / (v.N - 1) * grad_energy(v) - int_q1 ** (2.0 / (q + 1)) + float(np.sum(v.coeffs**2))
