"""Ground states of -d^2/ds^2 - V on a truncated line, and the
one-bound-state spectral-estimate ratio.

The operator is discretized by second-order central differences with
Dirichlet conditions at +-S and solved by eigh_tridiagonal, the NumPy
eigensolver of :mod:`cknsharp._kernels`.  Truncation is adequate once V(+-S)
and the expected eigenfunction tail are negligible, which holds for all the
exponentially decaying wells used here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._kernels import eigh_tridiagonal
from .closed_forms import lt_constant
from .errors import DomainError, check_gamma, check_grid

__all__ = [
    "LineGrid",
    "Potential1D",
    "EigenResult",
    "sech_squared_potential",
    "lt_equality_potential",
    "lowest_eigenpair",
    "poschl_teller_ground",
    "lt_ratio",
]


@dataclass(frozen=True)
class LineGrid:
    """Symmetric Dirichlet grid on [-S, S] with n interior nodes."""

    S: float
    n: int

    def __post_init__(self):
        check_grid(self.S, self.n)

    @property
    def h(self) -> float:
        return 2.0 * self.S / (self.n + 1)

    def nodes(self) -> np.ndarray:
        return -self.S + self.h * np.arange(1, self.n + 1)


@dataclass(frozen=True)
class Potential1D:
    """Finite, non-negative potential sampled at the interior nodes of a LineGrid."""

    grid: LineGrid
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != (self.grid.n,):
            raise DomainError(f"expected {self.grid.n} samples, got shape {v.shape}")
        if not np.all(np.isfinite(v) & (v >= 0)):
            raise DomainError("potential must be finite and non-negative")
        object.__setattr__(self, "values", v)


@dataclass(frozen=True)
class EigenResult:
    """Ground-state data: lambda1 >= 0 with -lambda1 the lowest eigenvalue.

    lambda1 = 0 together with no_bound_state=True signals a non-negative
    spectrum.  The eigenfunction is positive and normalized so that
    h * sum(psi^2) = 1; residual_norm is the h-weighted l2 residual.
    """

    lambda1: float
    eigenfunction: np.ndarray
    residual_norm: float
    no_bound_state: bool


def sech_squared_potential(grid: LineGrid, V0: float, B: float, center: float = 0.0) -> Potential1D:
    """Well V0 / cosh(B (s - center))^2 sampled on the grid."""
    with np.errstate(over="ignore"):  # cosh = inf past |B s| ~ 710, where the well is 0
        return Potential1D(grid, V0 / np.cosh(B * (grid.nodes() - center)) ** 2)


def lt_equality_potential(grid: LineGrid, gamma: float) -> Potential1D:
    """Equality-case well (gamma^2 - 1/4)/cosh(s)^2 of the spectral bound."""
    check_gamma(gamma)
    return sech_squared_potential(grid, gamma * gamma - 0.25, 1.0)


def lowest_eigenpair(V: Potential1D) -> EigenResult:
    """Lowest eigenpair of the Dirichlet-truncated operator -d^2/ds^2 - V."""
    grid = V.grid
    h = grid.h
    diag = 2.0 / h**2 - V.values
    off = np.full(grid.n - 1, -1.0 / h**2)
    lam, x, residual_norm = eigh_tridiagonal(diag, off)  # |x| = 1: the h-weighted residual of x / sqrt(h)
    psi = x / math.sqrt(h) if x[np.argmax(np.abs(x))] > 0 else -x / math.sqrt(h)  # a ground state has no node
    if lam >= 0:
        return EigenResult(0.0, psi, residual_norm, True)
    return EigenResult(-lam, psi, residual_norm, False)


def poschl_teller_ground(V0: float, B: float) -> float:
    """Closed-form ground-state binding of -d^2/ds^2 - V0/cosh(B s)^2.

    Returns B^2 nu^2 with nu = (sqrt(1 + 4 V0/B^2) - 1)/2; the reference
    oracle for every sech^2 well in the package.
    """
    if not (0 <= V0 < math.inf and 0 < B < math.inf):  # written so that NaN fails the comparison
        raise DomainError(f"need finite V0 >= 0 and B > 0, got V0={V0}, B={B}")
    nu = 0.5 * (math.sqrt(1.0 + 4.0 * V0 / B**2) - 1.0)
    return B * B * nu * nu


def lt_ratio(V: Potential1D, gamma: float, eigenpair: EigenResult | None = None) -> float:
    """Spectral-bound ratio lambda1^gamma / (c int V^(gamma+1/2) ds).

    At most 1 up to discretization error, with equality exactly on the
    sech^2 wells of :func:`lt_equality_potential` (up to scaling and
    translation).  Returns 0 when no bound state exists.  A caller that has
    already solved ``lowest_eigenpair(V)`` passes it as ``eigenpair``, and
    the eigenproblem is not solved again.  The ratio is formed in logs,
    gamma log lambda1 - log c - log(h sum V^(gamma+1/2)), with the sum
    shifted by its largest term, since lambda1^gamma and V^(gamma+1/2)
    leave the float range from gamma of about 100 on.
    """
    check_gamma(gamma)
    res = lowest_eigenpair(V) if eigenpair is None else eigenpair
    if res.no_bound_state:
        return 0.0
    vmax = float(V.values.max())
    if vmax <= 0:
        raise DomainError("potential is identically zero but produced a bound state")
    log_integral = math.log(V.grid.h * float(np.sum((V.values / vmax) ** (gamma + 0.5)))) \
        + (gamma + 0.5) * math.log(vmax)
    return math.exp(gamma * math.log(res.lambda1) - math.log(lt_constant(gamma)) - log_integral)
