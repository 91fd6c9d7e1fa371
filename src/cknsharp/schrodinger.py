"""Ground states of -d^2/ds^2 - V on a truncated line, and the
one-bound-state spectral-estimate ratio.

The operator is discretized by second-order central differences with
Dirichlet conditions at +-S; odd-even cyclic reduction (Buzbee-Golub-Nielson,
SIAM J. Numer. Anal. 1970) solves it shifted in log2(n) NumPy steps, and its
pivots count the eigenvalues below the shift, for bisection, inverse and
Rayleigh-quotient iteration (Parlett, The Symmetric Eigenvalue Problem, ch. 4)
and the final certificate.  Truncation is adequate once V(+-S) and the expected
eigenfunction tail are negligible, which holds for all the exponentially
decaying wells used here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .closed_forms import lt_constant
from .errors import DomainError, NumericsError, check_gamma, check_grid

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


_EPS = float(np.finfo(float).eps)


@np.errstate(divide="ignore", invalid="ignore")  # a zero pivot counts as negative; its solve is retried
def _reduce(a, c, f=None):
    """Odd-even cyclic reduction of the tridiagonal matrix with diagonal a and off-diagonal -c:
    each level eliminates the even-indexed unknowns, whose pivots are their own diagonal entries.
    Returns the number of pivots not > 0, which is the number of negative eigenvalues, and the
    solution of the system with right-hand side f (None without f)."""
    n, positive, levels = a.size, 0, []
    while a.size > 1:
        piv, cl, cr = a[0::2], c[0::2], c[1::2]
        positive += np.count_nonzero(piv > 0)
        ql, qr = cl / piv[: cl.size], cr / piv[1 : cr.size + 1]
        a1 = a[1::2] - cl * ql
        a1[: qr.size] -= cr * qr
        if f is not None:
            levels.append((piv, cl, cr, f[0::2]))
            f, fe = f[1::2] + ql * f[0 : 2 * ql.size : 2], f[2::2]
            f[: qr.size] += qr * fe
        a, c = a1, qr[: a1.size - 1] * c[2::2]
    x = None if f is None else f / a
    for piv, cl, cr, fe in reversed(levels):  # each eliminated unknown from its kept neighbours
        full, t = np.empty(piv.size + x.size), fe.copy()
        t[: x.size] += cl * x
        t[1:] += cr * x[: t.size - 1]
        full[0::2], full[1::2], x = t / piv, x, full
    return n - positive - np.count_nonzero(a > 0), x


def _rayleigh(d, e, y):
    """x = y/|y|, its Rayleigh quotient rho for T (diagonal d, off-diagonal e) and |T x - rho x|."""
    x = y / np.linalg.norm(y)
    tx = d * x
    tx[:-1] += e * x[1:]
    tx[1:] += e * x[:-1]
    rho = float(x @ tx)
    return x, rho, float(np.linalg.norm(tx - rho * x))


def eigh_tridiagonal(d: np.ndarray, e: np.ndarray) -> tuple[float, np.ndarray, float]:
    """(lambda1, x, r): the lowest eigenvalue of the symmetric tridiagonal T (diagonal d, off-diagonal
    e), its unit eigenvector x and the residual r = |T x - lambda1 x|, all from the last Rayleigh pass.

    Inertia bisection from the Gershgorin bound isolates lambda1 below a shift `above` <= lambda2.
    Inverse iteration then shifts to the Kato-Temple bound rho - r^2/(above - rho) of the Rayleigh
    quotient rho and residual r when it beats the best count-certified bound lo, else to the
    bracket's midpoint.  It stops at r <= 16 eps |T|_inf and accepts rho only if no eigenvalue
    lies below rho - 16 eps |T|_inf; otherwise NumericsError."""
    c, radius = -e, np.abs(np.concatenate(([0.0], e, [0.0])))
    radius = radius[:-1] + radius[1:]
    tol = 16 * _EPS * float(np.max(np.abs(d) + radius))
    lo, above = float(np.min(d - radius)), -math.inf
    x, rho, res = _rayleigh(d, e, np.sin(np.arange(1, d.size + 1) * (math.pi / (d.size + 1))))
    up = sigma = rho
    for _ in range(100):  # bisection from the Gershgorin bracket (width <= 2|T|) down to tol takes at most 49
        if res <= tol:
            break
        if above == -math.inf and up - lo > tol:  # isolate lambda1 by counts alone
            k, _ = _reduce(d - sigma, c)
        else:
            k, y = _reduce(d - sigma, c, x)
            if not np.isfinite(y).all():  # a zero pivot: move the shift off it
                sigma -= tol
                continue
            x, rho, res = _rayleigh(d, e, y)
        lo, up = (sigma, up) if k == 0 else (lo, min(up, sigma))
        above = max(above, sigma) if k == 1 else above
        temple = rho - res * res / (above - rho) if rho < above else lo
        sigma = temple if temple > lo else 0.5 * (lo + min(up, rho))
    else:
        raise NumericsError(f"eigh_tridiagonal: residual {res:.3g} > {tol:.3g} after 100 passes")
    if lo < rho - tol and _reduce(d - (rho - tol), c)[0]:
        raise NumericsError(f"eigh_tridiagonal: an eigenvalue lies below the Rayleigh quotient {rho!r} - {tol:.3g}")
    return rho, x, res


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
