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
from numpy.polynomial.legendre import leggauss

from .errors import DomainError, check_numeric_N

__all__ = [
    "Q_CAP",
    "SphereQuadrature",
    "ZonalField",
    "sphere_quadrature",
    "basis_matrix",
    "nodal_values",
    "field_from_nodal",
    "grad_energy",
    "poincare_deficit",
    "holder_probability_deficit",
]

# For N <= 3 the admissible exponent window (1, (N+1)/(N-3)] of the sharp
# sphere inequality is unbounded; q is capped here for numerical stability.
Q_CAP = 10.0


@dataclass(frozen=True)
class SphereQuadrature:
    """Nodes and weights for the uniform probability measure.

    N = 2: uniform angles on the circle (exact for trig degree <= exactness).
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
    """Build an m-node quadrature on the sphere for N in {2, 3}."""
    check_numeric_N(N)
    if N == 2:
        if m < 2:
            raise DomainError(f"need m >= 2 nodes, got {m}")
        nodes = 2.0 * math.pi * np.arange(m) / m
        weights = np.full(m, 1.0 / m)
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
        object.__setattr__(self, "coeffs", c)

    @property
    def L_max(self) -> int:
        return self.coeffs.size - 1

    def eigenvalues(self) -> np.ndarray:
        ell = np.arange(self.coeffs.size)
        return ell * (ell + self.N - 2)


def _legendre_table(L_max: int, x) -> np.ndarray:
    """Legendre polynomials P_0..P_L_max at x, shape x.shape + (L_max + 1,).

    SciPy's recurrence for integer degree: from P_1 = x and d = x - 1,
    d <- ((2k+1)/(k+1)) (x-1) P_k + (k/(k+1)) d and P_(k+1) = P_k + d, in the
    same operation order, so every value is bit-identical to
    ``scipy.special.eval_legendre`` except for |x| < 1e-5, where SciPy sums
    the power series instead (the two differ there by at most 1.4e-16; the
    default quadratures have an even node count and no such node).
    """
    x = np.asarray(x, dtype=float)
    P = np.empty(x.shape + (L_max + 1,))
    P[..., 0] = 1.0
    if L_max >= 1:
        P[..., 1] = x
        xm1 = x - 1.0
        d = xm1
        for k in range(1, L_max):
            d = ((2 * k + 1) / (k + 1)) * xm1 * P[..., k] + (k / (k + 1)) * d
            P[..., k + 1] = P[..., k] + d
    return P


def eval_legendre(n: int, x) -> np.ndarray:
    """Legendre polynomial P_n at x, from the recurrence of :func:`_legendre_table`."""
    return _legendre_table(n, x)[..., n]


def basis_matrix(quad: SphereQuadrature, L_max: int) -> np.ndarray:
    """Orthonormal basis sampled at the quadrature nodes, shape (m, L_max+1)."""
    if L_max < 0:
        raise DomainError(f"need L_max >= 0, got {L_max}")
    if quad.N == 3:
        return _legendre_table(L_max, quad.nodes) * np.sqrt(2 * np.arange(L_max + 1) + 1.0)
    m = quad.nodes.size
    B = np.empty((m, L_max + 1))
    B[:, 0] = 1.0
    for ell in range(1, L_max + 1):
        B[:, ell] = math.sqrt(2.0) * np.cos(ell * quad.nodes)
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


def _check_q(q: float, N: int) -> None:
    # written so that NaN fails the comparison
    if not 1 < q <= Q_CAP:
        raise DomainError(f"need 1 < q <= {Q_CAP} (the numerical cap), got q={q}")


def poincare_deficit(v: ZonalField, q: float, quad: SphereQuadrature | None = None) -> float:
    """Deficit of the sharp subcritical sphere inequality at exponent q.

    (q-1)/(N-1) * grad_energy(v) - (int |v|^(q+1))^(2/(q+1)) + int v^2,
    non-negative for every field, vanishing to fourth order in the size of
    a degree-1 perturbation of a constant (the constant is sharp there).
    Nodal values pass through |.| before the fractional power.
    """
    _check_q(q, v.N)
    if quad is None:
        quad = default_quadrature(v.N, v.L_max)
    vals = np.abs(nodal_values(v, quad))
    int_q1 = float(np.sum(quad.weights * vals ** (q + 1)))
    int_2 = float(np.sum(v.coeffs**2))
    return (q - 1) / (v.N - 1) * grad_energy(v) - int_q1 ** (2.0 / (q + 1)) + int_2


def holder_probability_deficit(v: ZonalField, q: float, quad: SphereQuadrature | None = None) -> float:
    """Deficit (int |v|^(q+1))^(2/(q+1)) - int v^2 of the probability-measure
    power-mean inequality; zero iff |v| is constant."""
    if not 1 < q < math.inf:
        raise DomainError(f"need finite q > 1, got q={q}")
    if quad is None:
        quad = default_quadrature(v.N, v.L_max)
    vals = np.abs(nodal_values(v, quad))
    int_q1 = float(np.sum(quad.weights * vals ** (q + 1)))
    int_2 = float(np.sum(v.coeffs**2))
    return int_q1 ** (2.0 / (q + 1)) - int_2
