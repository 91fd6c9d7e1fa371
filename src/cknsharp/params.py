"""Parameter algebra for the weighted interpolation inequalities.

Connects the Euclidean parameters (N, a, b) of the weighted inequality

    (∫ |w|^p |x|^{-bp} dx)^{2/p}  <=  C ∫ |∇w|^2 |x|^{-2a} dx

to the cylinder parameters (N, p, Lambda, theta) obtained through the
change of variables s = log|x|, and evaluates the two explicit curves in
the (a, b) plane:

* ``b_fs``   -- the Felli-Schneider curve, below which the radial profile
  is linearly unstable and optimizers are non-radial;
* ``b_sym``  -- the explicit boundary above which radial symmetry of the
  optimizers is proven.

The narrow strip between the two curves is open territory and classified
``UNKNOWN``.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from enum import Enum

from .errors import (
    DomainError, NotAchievedError, check_Lambda, check_N, check_p, check_subcritical, check_theta_window
)

__all__ = [
    "Region",
    "ParamPoint",
    "CylinderPoint",
    "a_critical",
    "to_cylinder",
    "from_cylinder",
    "b_fs",
    "b_sym",
    "lambda_fs",
    "lambda_sym",
    "theta_min",
    "chain_exponents",
    "classify",
    "region_map",
    "region_map_csv",
    "region_map_json",
]


def a_critical(N: int) -> float:
    """Critical weight exponent (N-2)/2; the algebra degenerates at a = a_c."""
    check_N(N)
    return 0.5 * (N - 2)


class Region(Enum):
    """Classification of a parameter point (N, a, b)."""

    SYMMETRIC_PROVEN = "SymmetricProven"
    SYMMETRY_BROKEN = "SymmetryBroken"
    UNKNOWN = "Unknown"
    NON_ADMISSIBLE = "NonAdmissible"
    NOT_ACHIEVED = "NotAchieved"


def _admissible(N: int, a: float, b: float) -> bool:
    # finite a != a_c; written so that NaN fails every comparison
    if not (-math.inf < a < math.inf and a != a_critical(N)):
        return False
    return a < b <= a + 1 if N == 2 else a <= b <= a + 1


@dataclass(frozen=True)
class ParamPoint:
    """Euclidean-side parameter point (N, a, b).

    Requires a finite a != (N-2)/2 and a <= b <= a+1 (strict a < b when N = 2).
    """

    N: int
    a: float
    b: float

    def __post_init__(self):
        if not _admissible(self.N, self.a, self.b):
            raise DomainError(f"(a, b) = ({self.a}, {self.b}) not admissible for N={self.N}")


@dataclass(frozen=True)
class CylinderPoint:
    """Cylinder-side parameter point (N, p, Lambda, theta).

    theta = 1 is the plain inequality; theta < 1 selects the interpolation
    family with an extra L^2 factor.
    """

    N: int
    p: float
    Lambda: float
    theta: float = 1.0

    def __post_init__(self):
        tmin = theta_min(self.p, self.N)  # checks N and p first
        check_subcritical(self.p, self.N)
        check_Lambda(self.Lambda)
        check_theta_window(self.theta, tmin)


def to_cylinder(pt: ParamPoint) -> CylinderPoint:
    """Map (N, a, b) with a < a_c to (N, p, Lambda) on the cylinder.

    Lambda = (a_c - a)^2 and p = 2N / (N - 2 + 2(b - a)).  The hard Hardy
    endpoint b = a + 1 (p = 2) has no extremal and raises NotAchievedError.
    """
    ac = _branch(pt.a, pt.N)
    if pt.b == pt.a + 1:
        raise NotAchievedError("b = a + 1: best constant (a_c - a)^2 is not achieved")
    p = 2.0 * pt.N / (pt.N - 2 + 2 * (pt.b - pt.a))
    lam = (ac - pt.a) ** 2
    return CylinderPoint(N=pt.N, p=p, Lambda=lam, theta=1.0)


def from_cylinder(cp: CylinderPoint) -> ParamPoint:
    """Inverse of to_cylinder on the a < a_c branch."""
    ac = a_critical(cp.N)
    a = ac - math.sqrt(cp.Lambda)
    b = max(a + cp.N / cp.p - ac, a)  # b = a at critical p (CylinderPoint allows 1e-12 above it)
    return ParamPoint(N=cp.N, a=a, b=b)


def _branch(a: float, N: int) -> float:
    """a_c, after checking that a lies on the parametrized branch a <= a_c."""
    ac = a_critical(N)
    if not a <= ac:
        raise DomainError(f"need a <= a_c = {ac}, got a={a}: the a > a_c branch is out of scope")
    return ac


def b_fs(a: float, N: int) -> float:
    """Felli-Schneider instability curve in the (a, b) plane.

    Consistent with lambda_fs: plugging b_fs(a) into p(a, b) turns
    Lambda = (a_c - a)^2 into exactly lambda_fs(p).  (Some sources print a
    prefactor 2N instead of N/2, which breaks that round trip and puts the
    curve start away from (0, 0); the consistent form is used here.)
    """
    ac = _branch(a, N)
    d = ac - a
    return N * d / (2.0 * math.sqrt(d * d + N - 1)) + a - ac


def b_sym(a: float, N: int) -> float:
    """Explicit boundary above which radial symmetry of extremals is proven."""
    ac = _branch(a, N)
    d2 = (a - ac) ** 2
    return (N * (N - 1) + 4 * N * d2) / (6 * (N - 1) + 8 * d2) + a - ac


def lambda_fs(p: float, N: int) -> float:
    """Instability threshold 4(N-1)/(p^2-4) in the cylinder parameters."""
    check_p(p)
    check_N(N)
    return 4.0 * (N - 1) / ((p - 2) * (p + 2))  # not p * p - 4, which cancels as p -> 2


def lambda_sym(p: float, N: int) -> float:
    """Proven-symmetry threshold (N-1)(6-p)/(4(p-2)); requires 2 < p < 6.

    Always below lambda_fs, with ratio (6-p)(p+2)/16.
    """
    check_p(p, 6)
    check_N(N)
    return (N - 1) * (6 - p) / (4 * (p - 2))


def theta_min(p: float, N: int) -> float:
    """Smallest admissible interpolation exponent N(p-2)/(2p)."""
    check_p(p)
    check_N(N)
    return N * (p - 2) / (2 * p)


def chain_exponents(p: float, theta: float = 1.0) -> tuple[float, float]:
    """Exponents (gamma, q) used in the spectral-estimate chain.

    gamma = ((2 theta - 1) p + 2) / (2 (p - 2)) is the power in the
    one-bound-state spectral inequality, and q = (gamma + 1)/(gamma - 1) the
    exponent of the sphere inequality.  For theta = 1 these reduce to
    gamma = (p + 2)/(2(p - 2)) and q = (3p - 2)/(6 - p).  The chain needs
    gamma > 1 (Hoelder step), which bounds the admissible (p, theta).
    """
    check_p(p)
    gamma = ((2 * theta - 1) * p + 2) / (2 * (p - 2))
    if not gamma > 1:
        raise DomainError(f"gamma = {gamma} <= 1: chain exponents undefined at (p={p}, theta={theta})")
    q = (gamma + 1) / (gamma - 1)
    return gamma, q


def classify(N: int, a: float, b: float) -> Region:
    """Classify a raw parameter triple; never raises for numeric input.

    NOT_ACHIEVED covers b = a + 1 and b = a < 0.  SYMMETRY_BROKEN is
    returned strictly below the Felli-Schneider curve only; the curve
    itself belongs to the UNKNOWN strip, while b = b_sym(a) is already
    inside the proven-symmetry region.  a >= a_c is not parametrized here
    and reports NON_ADMISSIBLE, as do N < 2 and a non-finite a or b.
    """
    try:
        if not (_admissible(N, a, b) and a <= a_critical(N)):
            return Region.NON_ADMISSIBLE
    except DomainError:  # N < 2
        return Region.NON_ADMISSIBLE
    if b == a + 1:
        return Region.NOT_ACHIEVED
    if b == a and a < 0:
        return Region.NOT_ACHIEVED
    if a >= 0:
        return Region.SYMMETRIC_PROVEN
    if b >= b_sym(a, N):
        return Region.SYMMETRIC_PROVEN
    if b < b_fs(a, N):
        return Region.SYMMETRY_BROKEN
    return Region.UNKNOWN


def region_map(N, a_range, b_range, grid):
    """Sweep classify over a rectangular (a, b) grid.

    ``grid`` is the pair (na, nb) of point counts per axis; a degenerate
    axis (one point) evaluates at the range start.  Rows are emitted in
    row-major order (a outer, b inner) so output is deterministic.
    Returns a list of (a, b, Region) tuples; ranges must be finite, min <= max.
    """
    check_N(N)
    na, nb = grid
    if na < 1 or nb < 1:
        raise DomainError(f"grid resolution must be >= 1, got ({na}, {nb})")
    a_lo, a_hi = a_range
    b_lo, b_hi = b_range
    avals = [a_lo + (a_hi - a_lo) * i / (na - 1) for i in range(na)] if na > 1 else [a_lo]
    bvals = [b_lo + (b_hi - b_lo) * j / (nb - 1) for j in range(nb)] if nb > 1 else [b_lo]
    # written so that NaN fails every comparison
    if not (a_lo <= a_hi and b_lo <= b_hi and all(map(math.isfinite, (a_hi, b_hi, *avals, *bvals)))):
        raise DomainError(f"need finite ranges with min <= max, got a in [{a_lo}, {a_hi}], b in [{b_lo}, {b_hi}]")
    return [(a, b, classify(N, a, b)) for a in avals for b in bvals]


def region_map_csv(records) -> str:
    """Serialize region_map records as CSV with header a,b,region."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["a", "b", "region"])
    for a, b, region in records:
        writer.writerow([f"{a:.12g}", f"{b:.12g}", region.value])
    return buf.getvalue()


def region_map_json(records) -> str:
    """Serialize region_map records as a JSON array of {a, b, region}."""
    return json.dumps(
        [{"a": a, "b": b, "region": region.value} for a, b, region in records]
    )
