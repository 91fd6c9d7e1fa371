"""Closed forms against independent quadrature and high-precision oracles."""

import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from cknsharp import (
    DomainError,
    LineGrid,
    NumericsError,
    ParamPoint,
    chain_exponents,
    euclidean_radial_extremal,
    extremal_profile,
    f_cosh_integral,
    gap_factor,
    lt_constant,
    lt_ground_state,
    lt_equality_potential,
    lt_identity_defect,
    lt_ratio,
    moments,
    profile_constants,
    radial_constant,
    radial_constant_alt,
    radial_interp_coefficient,
    radial_interp_constant,
    sech_squared_potential,
    sphere_area,
)
from cknsharp.closed_forms import _lt_constant_product_form, _lt_constant_ratio_form
from cknsharp.closed_forms import quad as trapezoid


def test_sphere_area():
    assert sphere_area(2) == pytest.approx(2 * math.pi, rel=1e-15)
    assert sphere_area(3) == pytest.approx(4 * math.pi, rel=1e-15)
    assert sphere_area(4) == pytest.approx(2 * math.pi**2, rel=1e-15)
    with pytest.raises(DomainError):
        sphere_area(1)


def test_f_cosh_integral_spot_values():
    assert f_cosh_integral(2.0) == pytest.approx(2.0, rel=1e-14)
    assert f_cosh_integral(1.0) == pytest.approx(math.pi, rel=1e-14)
    assert f_cosh_integral(4.0) == pytest.approx(4.0 / 3.0, rel=1e-14)
    with pytest.raises(DomainError):
        f_cosh_integral(0.0)


@pytest.mark.parametrize("q", [0.7, 1.0, 2.0, 3.3, 6.0])
def test_f_cosh_integral_against_quadrature(q):
    val, _ = quad(lambda s: math.cosh(s) ** (-q), -60, 60, limit=200)
    assert f_cosh_integral(q) == pytest.approx(val, rel=1e-9)


@pytest.mark.parametrize("q", [1e3, 1e4, 4e5, 4e6, 4e7])
def test_f_cosh_integral_recurrence_at_large_q(q):
    # integration by parts: F(q + 2) = q/(q + 1) F(q); two log-Gammas of size q log q must not be subtracted
    assert f_cosh_integral(q + 2) / f_cosh_integral(q) == pytest.approx(q / (q + 1), rel=1e-14)


def test_moments_spot_values():
    m3 = moments(3.0)
    assert m3.I2 == pytest.approx(4.0 / 3.0, rel=1e-14)
    assert m3.Ip == pytest.approx(16.0 / 15.0, rel=1e-14)
    assert m3.J2 == pytest.approx(16.0 / 15.0, rel=1e-14)
    m4 = moments(4.0)
    assert m4.I2 == pytest.approx(2.0, rel=1e-14)
    assert m4.Ip == pytest.approx(4.0 / 3.0, rel=1e-14)
    assert m4.J2 == pytest.approx(2.0 / 3.0, rel=1e-14)


def test_moments_identities_and_quadrature():
    for p in np.linspace(2.05, 5.95, 25):
        m = moments(p)
        assert m.Ip == pytest.approx(4 * m.I2 / (p + 2), rel=1e-12)
        assert m.J2 == pytest.approx(4 * m.I2 / ((p + 2) * (p - 2)), rel=1e-12)
    # near p = 2 the cosh powers are large; the Gamma quotient must not cancel there
    for p in (2.000001, 2.00001, 2.0001, 2.001):
        m = moments(p)
        assert m.Ip == pytest.approx(4 * m.I2 / (p + 2), rel=1e-14), p
    # direct quadrature of the cosh powers and of the derivative energy
    for p in (2.5, 3.0, 4.0):
        m = moments(p)
        i2, _ = quad(lambda s: math.cosh(s) ** (-4.0 / (p - 2)), -80, 80, limit=300)
        ip, _ = quad(lambda s: math.cosh(s) ** (-2.0 * p / (p - 2)), -80, 80, limit=300)
        e = 2.0 / (p - 2)
        j2, _ = quad(lambda s: (e * math.cosh(s) ** (-e - 1) * math.sinh(s)) ** 2, -80, 80, limit=300)
        assert m.I2 == pytest.approx(i2, rel=1e-9)
        assert m.Ip == pytest.approx(ip, rel=1e-9)
        assert m.J2 == pytest.approx(j2, rel=1e-9)


def test_profile_constants_spot_values():
    pc = profile_constants(1.0, 3.0, 1.0)
    assert pc.eta == pytest.approx(1.0, abs=1e-15)
    assert pc.A == pytest.approx(1.5, abs=1e-15)
    assert pc.B == pytest.approx(0.5, abs=1e-15)
    assert pc.t_star == pytest.approx(0.2, abs=1e-15)
    # theta = 1 forces eta = Lambda for any (Lambda, p)
    for lam in (0.3, 2.0):
        for p in (2.5, 4.5):
            assert profile_constants(lam, p, 1.0).eta == pytest.approx(lam, rel=1e-15)
    with pytest.raises(DomainError):
        profile_constants(1.0, 4.0, 0.2)  # (2 theta - 1) p + 2 < 0


def test_profile_constants_refuses_an_overflowing_amplitude():
    # at p = 2 + 2^-8 the amplitude is (p Lambda/2)^256: about 4e616 at Lambda = 255.75, 1.65 at Lambda = 1
    p = 2.00390625
    with pytest.raises(DomainError, match=r"Lambda=255\.75, p=2\.00390625, theta=1\.0"):
        profile_constants(255.75, p)
    assert profile_constants(1.0, p).A == (p / 2.0) ** (1.0 / (p - 2))


def _ode_residual(Lambda, p, theta, amplitude=None):
    """Max residual of -theta u'' + eta u - u^(p-1) by Richardson differences."""
    pc = profile_constants(Lambda, p, theta)
    A = amplitude if amplitude is not None else pc.A
    u = lambda s: A * np.cosh(pc.B * s) ** (-2.0 / (p - 2))
    s = np.linspace(-20, 20, 801)
    h = 1e-2
    d2h = (u(s + h) - 2 * u(s) + u(s - h)) / h**2
    d2h2 = (u(s + h / 2) - 2 * u(s) + u(s - h / 2)) / (h / 2) ** 2
    d2 = (4 * d2h2 - d2h) / 3.0
    resid = -theta * d2 + pc.eta * u(s) - u(s) ** (p - 1)
    return float(np.abs(resid).max()), float((u(s) ** (p - 1)).max())


@pytest.mark.parametrize("Lambda,p,theta", [(1.0, 3.0, 1.0), (0.5, 4.0, 1.0), (2.0, 2.5, 1.0), (1.0, 3.0, 0.9)])
def test_profile_solves_its_equation(Lambda, p, theta):
    resid, scale = _ode_residual(Lambda, p, theta)
    assert resid < 1e-6 * scale


def test_profile_amplitude_discriminates():
    # at (Lambda=1, p=3) the amplitude 1.5 solves the equation; 0.5 does not
    good, scale = _ode_residual(1.0, 3.0, 1.0)
    bad, _ = _ode_residual(1.0, 3.0, 1.0, amplitude=0.5)
    assert good < 1e-6 * scale
    assert bad > 1e-1 * scale


def test_unit_profile_equation():
    # -(p-2)^2 w'' + 4 w - 2 p w^(p-1) = 0 for w = cosh^(-2/(p-2))
    for p in (2.5, 3.0, 4.0):
        w = lambda s: np.cosh(s) ** (-2.0 / (p - 2))
        s = np.linspace(-20, 20, 801)
        h = 1e-2
        d2h = (w(s + h) - 2 * w(s) + w(s - h)) / h**2
        d2h2 = (w(s + h / 2) - 2 * w(s) + w(s - h / 2)) / (h / 2) ** 2
        d2 = (4 * d2h2 - d2h) / 3.0
        resid = -((p - 2) ** 2) * d2 + 4 * w(s) - 2 * p * w(s) ** (p - 1)
        assert np.abs(resid).max() < 1e-6


def test_extremal_profile_integrals():
    pc = profile_constants(1.0, 3.0, 1.0)
    p = 3.0
    assert extremal_profile(0.0, pc, p) == pytest.approx(pc.A, abs=1e-15)
    up, _ = quad(lambda s: float(extremal_profile(s, pc, p)) ** 3, -80, 80, limit=300)
    u2, _ = quad(lambda s: float(extremal_profile(s, pc, p)) ** 2, -80, 80, limit=300)
    m = 2.0 / (p - 2)
    du = lambda s: pc.A * pc.B * m * np.cosh(pc.B * s) ** (-m - 1) * np.sinh(pc.B * s)
    dusq, _ = quad(lambda s: float(du(s)) ** 2, -80, 80, limit=300)
    assert up == pytest.approx(7.2, rel=1e-10)
    assert u2 == pytest.approx(6.0, rel=1e-10)
    assert dusq == pytest.approx(1.2, rel=1e-10)
    assert dusq + 1.0 * u2 == pytest.approx(up, rel=1e-10)  # Euler-Lagrange identity


def test_extremal_potential_shape():
    # the extremal's well A^(p-2) / cosh(B s)^2 is the sech^2 well of depth A^(p-2) and width 1/B
    pc = profile_constants(1.0, 3.0, 1.0)
    grid = LineGrid(5.0, 19)  # nodes -4.5, -4, ..., 4.5
    s = grid.nodes()
    V = sech_squared_potential(grid, pc.A ** (3.0 - 2), pc.B).values
    np.testing.assert_allclose(V, 1.5 / np.cosh(0.5 * s) ** 2, rtol=1e-14)


def test_extremal_profile_and_potential_vanish_quietly_past_cosh_overflow():
    pc = profile_constants(1e4, 3.0, 1.0)  # B = 50, so B s reaches 999 at the last node s = 19.98
    grid = LineGrid(20.0, 1999)
    s = grid.nodes()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        u = extremal_profile(s, pc, 3.0)
        V = sech_squared_potential(grid, pc.A ** (3.0 - 2), pc.B).values
    assert pc.B * s[-1] == pytest.approx(999.0)
    assert u[0] == u[-1] == V[0] == V[-1] == 0.0
    assert u.max() == pc.A and np.all(np.isfinite(V))


@pytest.mark.parametrize("gamma", [0.75, 1.5, 2.5, 5.0])
def test_lt_ground_state_normalized(gamma):
    val, _ = quad(lambda s: float(lt_ground_state(s, gamma)) ** 2, -120, 120, limit=400)
    assert val == pytest.approx(1.0, abs=1e-10)


def test_lt_constant_spot_values():
    assert lt_constant(2.5) == pytest.approx(5.0 / 36.0, abs=1e-12)
    assert lt_constant(1.5) == pytest.approx(3.0 / 16.0, abs=1e-12)
    for gamma in (0.5, math.nan, math.inf):
        with pytest.raises(DomainError):
            lt_constant(gamma)


def test_lt_constant_dual_forms_agree():
    for gamma in np.arange(0.51, 50.0, 0.05):
        c1 = _lt_constant_ratio_form(gamma)
        c2 = _lt_constant_product_form(gamma)
        assert abs(c1 - c2) <= 1e-11 * c1


def _log_uniform_gamma(hi, lo=0.5):
    # gamma log-uniform in (lo, hi]
    return st.floats(math.log(lo), math.log(hi)).map(math.exp).filter(lambda g: lo < g <= hi)


def _stirling_defect(gamma):
    # Stirling: c e sqrt(pi gamma) = 1 + 1/(8 gamma) + O(gamma^-2); the
    # O(gamma^-2) term is below 0.1/gamma^2 from gamma = 10 on
    return lt_constant(gamma) * math.e * math.sqrt(math.pi * gamma) - 1 - 0.125 / gamma


@settings(max_examples=200, deadline=None)
@given(_log_uniform_gamma(1e8))
@example(1e4)
@example(1e8)
def test_lt_constant_finite_and_positive_up_to_1e8(gamma):
    c = lt_constant(gamma)
    assert math.isfinite(c) and c > 0
    if gamma >= 10:
        assert abs(_stirling_defect(gamma)) <= 0.1 / gamma**2 + 1e-13


@settings(max_examples=200, deadline=None)
@given(st.floats(math.log(1e8), math.log(1e300)).map(math.exp))
@example(1e10)
@example(1e15)
def test_lt_constant_matches_stirling_past_1e8(gamma):
    # the log-Gamma values are of size gamma log gamma here; subtracting them
    # would leave 2e-9 at gamma = 1e15 instead of 6.56e-9
    assert abs(_stirling_defect(gamma)) <= 1e-13


@pytest.mark.parametrize("gamma", [9e307, 1e308, sys.float_info.max])
def test_lt_constant_at_the_top_of_the_float_range(gamma):
    # the product form once took 2 gamma, which overflows here, and the forms disagreed
    assert _lt_constant_product_form(gamma) == pytest.approx(_lt_constant_ratio_form(gamma), rel=1e-13)
    assert lt_constant(gamma) * math.e * math.sqrt(math.pi) * math.sqrt(gamma) == pytest.approx(1.0, abs=1e-13)


@settings(max_examples=12, deadline=None)
@given(_log_uniform_gamma(1e3, lo=1.0))
@example(100.0)
@example(1e3)
def test_lt_ratio_of_equality_well_finite_up_to_1e3(gamma):
    # lambda1^gamma and V^(gamma+1/2) overflow from gamma of about 100 on; the ratio does not.
    # The ground state decays like exp(-(gamma - 1/2)|s|), so the half-width-20 box holds it
    # only from gamma of about 1 on: at gamma = 0.6 the ratio is 0.96, at 0.55 the box has
    # no bound state at all.
    ratio = lt_ratio(lt_equality_potential(LineGrid(20.0, 8000), gamma), gamma)
    assert math.isfinite(ratio)
    assert ratio == pytest.approx(1.0, abs=1e-2)


def test_radial_constant_spot_value_and_oracle():
    value = radial_constant(1.0, 3.0, 3)
    assert value == pytest.approx((5.0 / (144.0 * math.pi)) ** (1.0 / 3.0), rel=1e-10)
    # variational oracle: (|S^2| int u_star^3 ds)^(-1/3)
    pc = profile_constants(1.0, 3.0, 1.0)
    up, _ = quad(lambda s: float(extremal_profile(s, pc, 3.0)) ** 3, -80, 80, limit=300)
    assert value == pytest.approx((sphere_area(3) * up) ** (-1.0 / 3.0), rel=1e-10)


def test_radial_constant_scaling_law():
    base = radial_constant(1.0, 3.0, 3)
    for lam in np.logspace(-2, 2, 9):
        assert radial_constant(lam, 3.0, 3) == pytest.approx(base * lam ** (-5.0 / 6.0), rel=1e-12)
    assert radial_constant(4.0, 2.8, 3) / radial_constant(1.0, 2.8, 3) == pytest.approx(
        4.0 ** (-(2.8 + 2) / (2 * 2.8)), rel=1e-12
    )
    with pytest.raises(DomainError):
        radial_constant(1.0, 6.0, 3)


def test_radial_constant_alt_ratio():
    # alternative normalization exceeds the canonical one by |S^(N-1)|^(2(p-2)/p)
    alt = radial_constant_alt(1.0, 3.0, 3)
    assert alt == pytest.approx(1.2040, abs=5e-5)
    assert alt / radial_constant(1.0, 3.0, 3) == pytest.approx(sphere_area(3) ** (2.0 / 3.0), rel=1e-9)


def test_radial_interp_constants():
    # probability-measure radial constant at (theta=1, p=3, Lambda=1)
    k = radial_interp_coefficient(1.0, 3.0)
    assert k == pytest.approx((5.0 / 36.0) ** (1.0 / 3.0), rel=1e-12)
    assert k == pytest.approx(30.0 ** (1.0 / 3.0) / 6.0, rel=1e-12)
    assert k == pytest.approx(7.2 ** (-1.0 / 3.0), rel=1e-12)
    # measure bridge to the surface-measure constant
    for lam, p, N in [(1.0, 3.0, 3), (0.7, 2.5, 2), (2.0, 4.0, 3)]:
        assert radial_interp_constant(1.0, lam, p) == pytest.approx(
            sphere_area(N) ** ((p - 2) / p) * radial_constant(lam, p, N), rel=1e-10
        )
    # continuity of the coefficient as theta -> 1
    assert radial_interp_coefficient(1.0 - 1e-10, 3.0) == pytest.approx(k, rel=1e-8)


def test_gap_factor_basic():
    assert gap_factor(3.0, 1.0) == pytest.approx(1.0, abs=1e-14)
    for p, theta in [(3.0, 0.9), (3.0, 0.8), (4.0, 0.8), (2.5, 0.95)]:
        assert gap_factor(p, theta) > 1.0
    with pytest.raises(DomainError):
        gap_factor(3.0, 0.3)


def _gap_factor_variational(p, theta, Lambda):
    """Independent route through the extremal profile's quotient."""
    gamma_t, _ = chain_exponents(p, theta)
    pc = profile_constants(Lambda, p, theta)
    m = moments(p)
    up = pc.A**p / pc.B * m.Ip
    u2 = pc.A**2 / pc.B * m.I2
    q_val = up ** (theta - 2.0 / p) * u2 ** (1 - theta)
    return lt_constant(gamma_t) ** (1 / gamma_t) * q_val ** (2 * p / ((2 * theta - 1) * p + 2)) / Lambda


@pytest.mark.parametrize("p,theta", [(3.0, 0.9), (3.0, 0.8), (4.0, 0.8), (2.5, 0.95)])
def test_gap_factor_dual_route(p, theta):
    direct = gap_factor(p, theta)
    for lam in (1.0, 0.5, 2.0):  # route is Lambda-independent
        assert direct == pytest.approx(_gap_factor_variational(p, theta, lam), rel=1e-9)


@pytest.mark.parametrize("p,theta", [(3.0, 1.0), (3.0, 0.9), (4.0, 0.8)])
def test_radial_interp_constant_chain_route(p, theta):
    # K* = c^{ (p-2)/p } gap^{-A/(2p)} Lambda^{-A/(2p)} with A = (2 theta - 1) p + 2
    gamma_t, _ = chain_exponents(p, theta)
    A = (2 * theta - 1) * p + 2
    for lam in (1.0, 1.7):
        lhs = radial_interp_constant(theta, lam, p)
        rhs = lt_constant(gamma_t) ** ((p - 2) / p) * (gap_factor(p, theta) * lam) ** (-A / (2 * p))
        assert lhs == pytest.approx(rhs, rel=1e-9)


@pytest.mark.parametrize(
    "Lambda,p",
    [(1.0, 3.0), (0.5, 4.0), (2.0, 2.5),
     # the whole float range of Lambda: no fixed s-window, no overflow or underflow
     (5e-324, 3.0), (1e-300, 2.2), (1e-100, 5.5), (1e100, 3.0), (1e300, 4.0), (1.7e308, 5.5)],
)
def test_lt_identity_defect(Lambda, p):
    assert lt_identity_defect(Lambda, p) < 1e-8


@pytest.mark.parametrize("f, width, exact", [
    (lambda s: math.exp(-s * s), 1.0, math.sqrt(math.pi)),
    (lambda s: 1.0 / math.cosh(s) ** 2, 1.0, 2.0),
    (lambda s: 1.0 / math.cosh(3.0 * s), 1.0 / 3.0, math.pi / 3.0),
], ids=["gaussian", "sech2", "sech"])
def test_trapezoid_on_a_scalar_integrand_with_a_closed_form(f, width, exact):
    assert trapezoid(f, width) == pytest.approx(exact, rel=1e-15)


def test_trapezoid_matches_the_cosh_power_integral_for_every_p():
    # a = 2p/(p-2): the integrand of the variational and potential-norm routes
    for p in np.linspace(2.0001, 5.999, 81):
        a = 2 * p / (p - 2)
        assert trapezoid(lambda s: np.cosh(s) ** -a, a**-0.5) == pytest.approx(f_cosh_integral(a), rel=1e-10), p


@pytest.mark.parametrize(
    "f,width",
    [(lambda s: np.exp(-((s / 0.01) ** 2)), 1.0),  # under-resolved: the step halving moves the sum
     (lambda s: 1.0 / np.cosh(s), 0.1)],  # truncated: f has not decayed at 30 widths
)
def test_trapezoid_refuses_an_unresolved_integrand(f, width):
    with pytest.raises(NumericsError):
        trapezoid(f, width)


def test_trapezoid_non_finite_sum_is_an_overflow():
    with pytest.raises(OverflowError), np.errstate(over="ignore"):
        trapezoid(lambda s: np.exp(np.exp(s)), 1.0)


@pytest.mark.parametrize("Lambda,p", [(math.nan, 3.0), (math.inf, 3.0), (0.0, 3.0), (1.0, math.nan), (1.0, math.inf)])
def test_lt_identity_defect_rejects_non_finite_and_out_of_range(Lambda, p):
    with pytest.raises(DomainError):
        lt_identity_defect(Lambda, p)


def test_euclidean_radial_extremal():
    pt = ParamPoint(3, -0.5, 0.0)
    delta = 1 + pt.a - pt.b
    expected_at_1 = 2.0 ** (-(pt.N - 2 * delta) / (2 * delta))
    assert euclidean_radial_extremal(1.0, pt) == pytest.approx(expected_at_1, rel=1e-14)
    assert euclidean_radial_extremal(0.0, pt) == pytest.approx(1.0, abs=1e-15)
    # monotone decreasing in |x| for a < a_c
    r = np.linspace(0.0, 50.0, 2001)
    vals = euclidean_radial_extremal(r, pt)
    assert np.all(np.diff(vals) < 0)
    with pytest.raises(DomainError):
        euclidean_radial_extremal(1.0, ParamPoint(3, -1.0, 0.0))  # b = a + 1
