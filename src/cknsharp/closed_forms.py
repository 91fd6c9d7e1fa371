"""Closed-form constants and extremal profiles for the cylinder inequalities.

Everything here is exact up to floating point: Gamma-function integrals of
cosh powers, the sech-type extremal profile and its moments, the sharp
one-bound-state spectral constant, the radial best constants in both the
plain and the interpolation (theta < 1) families, and the gap factor that
bounds how far the full constant can sit above the radial one.

Two normalizations of the radial constant circulate; the canonical one here
carries sphere_area(N)**(-(p-2)/p) and is the one validated by direct
quadrature of the extremal profile.  The other convention is exposed as
:func:`radial_constant_alt` and flagged in all outputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericsError, check_gamma, check_interp, check_Lambda, check_N, check_p
from .params import ParamPoint

__all__ = [
    "log_gamma",
    "sphere_area",
    "f_cosh_integral",
    "Moments",
    "moments",
    "ProfileConstants",
    "profile_constants",
    "extremal_profile",
    "extremal_potential",
    "lt_ground_state",
    "lt_constant",
    "radial_constant",
    "radial_constant_alt",
    "radial_interp_coefficient",
    "radial_interp_constant",
    "gap_factor",
    "lt_identity_defect",
    "euclidean_radial_extremal",
]


def quad(f, width: float) -> float:
    """Integral over the real line of f, smooth with one peak of the given width.

    The trapezoidal rule, which converges geometrically for an integrand that
    is analytic in a strip and decays exponentially (Trefethen and Weideman,
    SIAM Review 56, 2014).  f is called twice on arrays: at s = k width/8 for
    |k| <= 240, then at the midpoints; the value returned is the rule at step
    width/16.  The rule at step width/8 must agree with it, and f must have
    decayed at s = +-30 width, both to 1e-8 relative, or NumericsError; that
    leaves room for the rounding of cosh(s)^(-a), about a eps, up to a ~ 4e7.
    The peak width of sech(s)^a is a^(-1/2), so the node count does not
    depend on a.  A non-finite sum raises OverflowError.
    """
    h = width / 8.0
    k = np.arange(-240, 241)
    on = f(h * k)
    coarse = h * float(np.sum(on))
    fine = 0.5 * (coarse + h * float(np.sum(f(h * (k[:-1] + 0.5)))))
    if not math.isfinite(fine):
        raise OverflowError(f"non-finite integral {fine} (peak width {width})")
    tail = width * max(abs(float(on[0])), abs(float(on[-1])))
    if not max(abs(fine - coarse), tail) <= 1e-8 * abs(fine):
        raise NumericsError(f"trapezoidal rule did not converge: step halving moved {coarse} to {fine}, "
                            f"tail {tail} (peak width {width})")
    return fine


def log_gamma(x: float) -> float:
    """log Gamma(x) for x > 0 (wraps the C library implementation)."""
    if not x > 0:
        raise DomainError(f"log_gamma needs x > 0, got x={x}")
    return math.lgamma(x)


def sphere_area(N: int) -> float:
    """Surface measure of the unit sphere in R^N: 2 pi^(N/2) / Gamma(N/2)."""
    check_N(N)
    return 2.0 * math.pi ** (N / 2.0) / math.gamma(N / 2.0)


def f_cosh_integral(q: float) -> float:
    """Line integral of cosh(s)^(-q): sqrt(pi) Gamma(q/2) / Gamma((q+1)/2)."""
    if not q > 0:
        raise DomainError(f"integral of cosh^-q diverges for q <= 0, got q={q}")
    return math.exp(0.5 * math.log(math.pi) + log_gamma(q / 2) - log_gamma((q + 1) / 2))


@dataclass(frozen=True)
class Moments:
    """Line moments of the unit profile cosh(s)^(-2/(p-2)) and its derivative.

    I2 and Ip are the squared and p-th power integrals; J2 the derivative
    energy.  They satisfy Ip = 4 I2/(p+2) and J2 = 4 I2/((p+2)(p-2)).
    """

    I2: float
    Ip: float
    J2: float


def moments(p: float) -> Moments:
    """Moments of the unit cosh profile at exponent p > 2."""
    check_p(p)
    i2 = f_cosh_integral(4.0 / (p - 2))
    ip = f_cosh_integral(2.0 * p / (p - 2))
    j2 = 4.0 * i2 / ((p + 2) * (p - 2))
    return Moments(I2=i2, Ip=ip, J2=j2)


@dataclass(frozen=True)
class ProfileConstants:
    """Amplitude/width data of the extremal profile A cosh(B s)^(-2/(p-2)).

    eta is the effective spectral parameter ((p+2) theta Lambda /
    ((2 theta - 1) p + 2), equal to Lambda at theta = 1), and t_star the
    kinetic-to-mass ratio of the profile.
    """

    eta: float
    A: float
    B: float
    t_star: float


def profile_constants(Lambda: float, p: float, theta: float = 1.0) -> ProfileConstants:
    """Constants of the extremal profile for parameters (Lambda, p, theta).

    The profile u(s) = A cosh(B s)^(-2/(p-2)) solves
    -theta u'' + eta u = u^(p-1) with A = (p eta / 2)^(1/(p-2)) and
    B = (p-2)/2 sqrt(eta/theta).
    """
    check_Lambda(Lambda)
    check_p(p)
    denom = (2 * theta - 1) * p + 2
    if not (0 < theta < math.inf and denom > 0):
        raise DomainError(f"need theta > 0 and (2 theta - 1) p + 2 > 0, got theta={theta}, p={p}: no profile")
    eta = (p + 2) * theta * Lambda / denom
    A = (p * eta / 2.0) ** (1.0 / (p - 2))
    B = 0.5 * (p - 2) * math.sqrt(eta / theta)
    t_star = (p - 2) / (p + 2) * eta / theta
    return ProfileConstants(eta=eta, A=A, B=B, t_star=t_star)


def extremal_profile(s, pc: ProfileConstants, p: float):
    """Evaluate the extremal profile A cosh(B s)^(-2/(p-2)); vectorized in s."""
    s = np.asarray(s, dtype=float)
    with np.errstate(over="ignore"):  # cosh = inf past |B s| ~ 710, where the profile is 0
        return pc.A * np.cosh(pc.B * s) ** (-2.0 / (p - 2))


def extremal_potential(s, pc: ProfileConstants, p: float):
    """Evaluate the optimizing well A^(p-2) / cosh(B s)^2; vectorized in s."""
    s = np.asarray(s, dtype=float)
    with np.errstate(over="ignore"):  # cosh = inf past |B s| ~ 710, where the well is 0
        return pc.A ** (p - 2) / np.cosh(pc.B * s) ** 2


def lt_ground_state(s, gamma: float):
    """Unit-normalized ground state of the optimizing well at width 1.

    psi(s) = pi^(-1/4) (Gamma(gamma)/Gamma(gamma - 1/2))^(1/2)
             cosh(s)^(-gamma + 1/2), with integral of psi^2 equal to 1.
    """
    check_gamma(gamma)
    s = np.asarray(s, dtype=float)
    norm = math.exp(-0.25 * math.log(math.pi) + 0.5 * _log_gamma_half_step(gamma - 0.5))
    return norm * np.cosh(s) ** (-gamma + 0.5)


# Stirling remainder of log Gamma(z): sum of B_2k / (2k (2k-1) z^(2k-1)), k = 1..5
_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188)


def _stirling_remainder(z: float) -> float:
    w = 1.0 / (z * z)
    return sum(c * w**k for k, c in enumerate(_STIRLING)) / z


def _log_gamma_half_step(x: float) -> float:
    """log Gamma(x + 1/2) - log Gamma(x) for x > 0, without cancellation.

    Below x = 20 the two log-Gamma values are subtracted; from x = 20 on
    they are of size x log x, so the difference is taken term by term in
    Stirling's series, whose first omitted term is below 1e-17 there.
    """
    if x < 20:
        return log_gamma(x + 0.5) - log_gamma(x)
    return (x * math.log1p(0.5 / x) - 0.5 + 0.5 * math.log(x)
            + _stirling_remainder(x + 0.5) - _stirling_remainder(x))


def _lt_constant_ratio_form(gamma: float) -> float:
    # 1/(sqrt(pi)(g-1/2)) * Gamma(g+1)/Gamma(g+1/2) * ((g-1/2)/(g+1/2))^(g+1/2)
    return math.exp(
        -0.5 * math.log(math.pi)
        - math.log(gamma - 0.5)
        + _log_gamma_half_step(gamma + 0.5)
        - (gamma + 0.5) * math.log1p(1 / (gamma - 0.5))
    )


def _lt_constant_product_form(gamma: float) -> float:
    # ((2g-1)/(2g+1))^(g-1/2) * 2g/(2g+1) * Gamma(g)/(sqrt(pi) Gamma(g+1/2))
    return math.exp(
        -(gamma - 0.5) * math.log1p(2 / (2 * gamma - 1))
        - math.log1p(0.5 / gamma)
        - _log_gamma_half_step(gamma)
        - 0.5 * math.log(math.pi)
    )


def lt_constant(gamma: float) -> float:
    """Sharp constant of the one-bound-state spectral inequality.

    Two printed forms exist; they are algebraically identical (via
    Gamma(gamma+1) = gamma Gamma(gamma)) and both are evaluated here; their
    agreement to 1e-11 relative is asserted before returning.  Each form
    takes its log-Gamma difference at a different argument (gamma + 1/2 and
    gamma) without cancellation, and its power terms through log1p, so the
    check holds, and the value is accurate, for every finite gamma.
    Spot values: lt_constant(2.5) = 5/36, lt_constant(1.5) = 3/16.
    """
    check_gamma(gamma)
    c1 = _lt_constant_ratio_form(gamma)
    c2 = _lt_constant_product_form(gamma)
    if abs(c1 - c2) > 1e-11 * abs(c1):
        raise NumericsError(f"lt_constant forms disagree at gamma={gamma}: {c1} vs {c2}")
    return c1


def radial_constant(Lambda: float, p: float, N: int) -> float:
    """Best constant among s-only profiles, surface measure on the sphere.

    Equals (sphere_area(N) * integral of u_star^p ds)^(-(p-2)/p) and scales
    as radial_constant(1, p, N) * Lambda^(-(p+2)/(2p)).
    """
    return radial_interp_constant(1.0, Lambda, p) * sphere_area(N) ** (-(p - 2) / p)


def radial_constant_alt(Lambda: float, p: float, N: int) -> float:
    """Radial constant in the alternative normalization (FLAGGED).

    Same product as :func:`radial_constant` but with the sphere-area factor
    to the +(p-2)/p power, i.e. larger by sphere_area(N)**(2(p-2)/p).  This
    convention appears in some statements of the sharp constant; it fails
    the direct variational cross-check and is reported only for comparison.
    """
    return radial_interp_constant(1.0, Lambda, p) * sphere_area(N) ** ((p - 2) / p)


def radial_interp_coefficient(theta: float, p: float) -> float:
    """Lambda-independent prefactor of the radial constant, theta family.

    This is the best constant of the probability-measure quotient at
    Lambda = 1 among s-only profiles.
    """
    check_interp(theta, p)
    A = (2 * theta - 1) * p + 2
    return (
        ((p - 2) ** 2 / A) ** ((p - 2) / (2 * p))
        * (A / (2 * p * theta)) ** theta
        * (4.0 / (p + 2)) ** ((6 - p) / (2 * p))
        * math.exp((p - 2) / p * (log_gamma(2 / (p - 2) + 0.5) - 0.5 * math.log(math.pi) - log_gamma(2 / (p - 2))))
    )


def radial_interp_constant(theta: float, Lambda: float, p: float) -> float:
    """Radial best constant of the theta family at general Lambda.

    radial_interp_coefficient(theta, p) * Lambda^(-((2 theta - 1) p + 2)/(2p));
    at theta = 1 it equals sphere_area(N)^((p-2)/p) * radial_constant(Lambda, p, N).
    """
    check_Lambda(Lambda)
    A = (2 * theta - 1) * p + 2
    return radial_interp_coefficient(theta, p) * Lambda ** (-A / (2 * p))


def gap_factor(p: float, theta: float) -> float:
    """Factor >= 1 bounding the full/radial constant ratio for theta < 1.

    Returns 1 exactly iff theta = 1.  Verified in the tests against the
    independent route lt_constant(gamma_theta)^(1/gamma_theta) *
    Q[u_star]^(2p/((2 theta - 1)p + 2)) / Lambda.
    """
    check_interp(theta, p)
    A = (2 * theta - 1) * p + 2
    ln = (
        (p + 2) / A * math.log(p + 2)
        - math.log(A)
        + 2 * (2 - p * (1 - theta)) / A * math.log((2 - p * (1 - theta)) / 2)
        + 4 * (p - 2) / A * (log_gamma(p / (p - 2)) - log_gamma(theta * p / (p - 2)))
        + 2 * (p - 2) / A * (log_gamma(2 * theta * p / (p - 2)) - log_gamma(2 * p / (p - 2)))
    )
    return math.exp(ln)


def lt_identity_defect(Lambda: float, p: float) -> float:
    """Relative defect of the potential-norm identity at (Lambda, p).

    For the optimizing well V_star at theta = 1 and gamma = (p+2)/(2(p-2)),
    lt_constant(gamma) * integral of V_star^(gamma + 1/2) equals
    Lambda^gamma exactly; returns |defect| / Lambda^gamma.  With V_star =
    (p Lambda/2) sech^2(B s), t = B s leaves the integral of sech^(2 gamma + 1)
    over the line, taken by :func:`quad`; the ratio is formed in logs, so no
    Lambda overflows.
    """
    check_p(p, 6)
    check_Lambda(Lambda)
    gamma = (p + 2) / (2 * (p - 2))
    a = 2 * gamma + 1
    val = quad(lambda t: np.cosh(t) ** -a, a**-0.5)
    log_lam = math.log(Lambda)
    log_b = math.log(0.5 * (p - 2)) + 0.5 * log_lam
    log_ratio = (math.log(lt_constant(gamma) * val) + (gamma + 0.5) * (math.log(p / 2) + log_lam)
                 - log_b - gamma * log_lam)
    return abs(math.expm1(log_ratio))


def euclidean_radial_extremal(x_norm: float, pt: ParamPoint):
    """Radial extremal of the Euclidean weighted inequality at radius |x|.

    w(x) = (1 + |x|^e)^(-m) with e = 2(N-2-2a)(1+a-b)/(N-2(1+a-b)) and
    m = (N-2(1+a-b))/(2(1+a-b)); defined for a < b < a+1, positive and
    decreasing in |x| when a < a_c.  Vectorized in x_norm.
    """
    delta = 1 + pt.a - pt.b
    if delta <= 0 or pt.b <= pt.a:
        raise DomainError(f"need a < b < a+1, got (a, b) = ({pt.a}, {pt.b})")
    denom = pt.N - 2 * delta  # > 0: N >= 3, or N = 2 with a < b
    inner = 2 * (pt.N - 2 - 2 * pt.a) * delta / denom
    outer = denom / (2 * delta)
    r = np.asarray(x_norm, dtype=float)
    if np.any(r < 0):
        raise DomainError("x_norm must be >= 0")
    return (1.0 + r**inner) ** (-outer)
