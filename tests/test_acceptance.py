"""Acceptance suite: every criterion at its stated tolerance.

Run with ``pytest -s tests/test_acceptance.py`` to see one line per
criterion.  Each test prints its line only after all assertions pass.
"""

import math
import time

import numpy as np
from scipy.integrate import quad

from cknsharp import (
    CylField,
    LineGrid,
    ParamPoint,
    ZonalField,
    a_critical,
    b_fs,
    b_sym,
    chain_exponents,
    emden_fowler_pushforward,
    euclidean_radial_extremal,
    extremal_field,
    extremal_profile,
    fs_threshold,
    gap_factor,
    lambda_fs,
    lambda_sym,
    lowest_eigenpair,
    lt_constant,
    lt_equality_potential,
    lt_identity_defect,
    lt_ratio,
    minimize_quotient,
    moments,
    poincare_deficit,
    profile_constants,
    proof_chain,
    radial_constant,
    radial_constant_alt,
    rayleigh,
    sandwich_check,
    second_variation_mode,
    sphere_area,
)
from cknsharp.closed_forms import _lt_constant_product_form, _lt_constant_ratio_form
from cknsharp.cylinder import _angular, _dst, _value_and_grad, sandwich_lambda_bound
from cknsharp.schrodinger import Potential1D
from cknsharp.sphere import default_quadrature


def report(num, text):
    print(f"\n[PASS] criterion {num:02d}: {text}", flush=True)


def random_bump_potential(grid, rng):
    s = grid.nodes()
    v = np.zeros(grid.n)
    for _ in range(int(rng.integers(1, 4))):
        c = rng.uniform(-0.4 * grid.S, 0.4 * grid.S)
        w = rng.uniform(0.5, 2.0)
        v += rng.uniform(0.1, 2.0) * np.exp(-((s - c) ** 2) / (2 * w * w))
    return Potential1D(grid, v)


def fuzz_field(grid, N, L_max, rng):
    s = grid.nodes()
    g = np.zeros(grid.n)
    for _ in range(int(rng.integers(1, 4))):
        c = rng.uniform(-0.4 * grid.S, 0.4 * grid.S)
        w = rng.uniform(0.6, 2.5)
        g += rng.uniform(0.2, 1.0) * np.exp(-((s - c) ** 2) / (2 * w * w))
    _, B = _angular(N, L_max)
    ang = rng.standard_normal(L_max) * (0.3 ** np.arange(1, L_max + 1))
    m = np.maximum(1.0 + B[:, 1:] @ ang, 0.05)
    return CylField.from_nodal(grid, N, L_max, np.outer(g, m))


def test_criterion_01_lt_constant_dual_form():
    for gamma in np.linspace(0.551, 49.95, 200):
        c1 = _lt_constant_ratio_form(gamma)
        c2 = _lt_constant_product_form(gamma)
        assert abs(c1 - c2) < 1e-11 * c1
    assert abs(lt_constant(2.5) - 5.0 / 36.0) < 1e-12
    assert abs(lt_constant(1.5) - 3.0 / 16.0) < 1e-12
    report(1, "dual-form spectral constant agreement < 1e-11; spot values 5/36, 3/16 to 1e-12")


def test_criterion_02_lt_equality_case():
    grid = LineGrid(20.0, 8000)
    bound = 1.0 + 5 * grid.h**2
    rng = np.random.default_rng(2024)
    for gamma in (1.5, 2.5, 4.0):
        res = lowest_eigenpair(lt_equality_potential(grid, gamma))
        expected = (gamma - 0.5) ** 2
        assert abs(res.lambda1 - expected) <= 1e-4 * expected
        assert abs(lt_ratio(lt_equality_potential(grid, gamma), gamma) - 1.0) <= 2e-3
        for _ in range(200):
            assert lt_ratio(random_bump_potential(grid, rng), gamma) <= bound
    report(2, "equality-case ground states to 1e-4, ratio 1 +- 2e-3, 200 random wells per gamma below 1 + 5h^2")


def test_criterion_03_potential_norm_identity():
    for lam, p in ((1.0, 3.0), (0.5, 4.0), (2.0, 2.5)):
        assert lt_identity_defect(lam, p) < 1e-8
    report(3, "potential-norm identity defect < 1e-8 at (1,3), (0.5,4), (2,2.5)")


def test_criterion_04_instability_threshold_recovery():
    for p in (2.5, 3.0, 4.0):
        for N in (2, 3):
            expected = lambda_fs(p, N)
            measured = fs_threshold(p, N)
            assert abs(measured - expected) <= 5e-3 * expected
            # closed-form route (exact zero of the mode eigenvalue) agrees
            closed_zero = 4.0 * (N - 1) / (p * p - 4)
            assert abs(measured - closed_zero) <= 1e-3
    spot = second_variation_mode(1, 3.0, 3.0, 3, "grid")
    assert abs(spot - (-1.75)) <= 1e-3
    report(4, "bisection threshold within 0.5% of 4(N-1)/(p^2-4) and 1e-3 of the closed form; spot -1.75 +- 1e-3")


def test_criterion_05_symmetric_regime_minimization():
    t0 = time.time()
    grid = LineGrid(20.0, 2000)
    start = extremal_field(grid, 3, 8, 1.0, 3.0)
    start.data[:, 1] = 0.1 * start.data[:, 0]
    rep = minimize_quotient(start, 1.0, 3.0)
    target = (5.0 / 36.0) ** (1.0 / 3.0)
    assert rep.converged
    assert abs(rep.constant - target) <= 5e-3 * target
    assert rep.angular_fraction < 1e-6
    elapsed = time.time() - t0
    assert elapsed < 300.0
    report(5, f"flow returns the radial constant to 0.5% with angular fraction {rep.angular_fraction:.1e} in {elapsed:.1f}s")


def test_criterion_06_symmetry_breaking():
    grid = LineGrid(20.0, 2000)
    start = extremal_field(grid, 3, 8, 3.0, 3.0)
    start.data[:, 1] = 0.1 * start.data[:, 0]
    q_star = rayleigh(extremal_field(grid, 3, 8, 3.0, 3.0), 3.0, 3.0)
    rep = minimize_quotient(start, 3.0, 3.0)
    assert rep.quotient <= 0.99 * q_star
    assert rep.angular_fraction > 1e-3
    report(6, f"past the threshold the quotient drops {100 * (1 - rep.quotient / q_star):.1f}% below radial")


def test_criterion_07_proof_chain_slacks():
    # equality case at the extremal
    grid_star = LineGrid(20.0, 1500)
    for p in (2.5, 3.0, 4.0):
        for N in (2, 3):
            u_star = extremal_field(grid_star, N, 6, 1.0, p)
            rep = proof_chain(u_star, 1.0, p)
            for slack in (rep.slack_lt, rep.slack_schwarz, rep.slack_hoelder2p, rep.slack_poincare, rep.slack_hoelder):
                assert abs(slack) <= 1e-6
            assert abs(rep.D - 1.0) <= 1e-6
    # 500 fuzzed fields across the (p, N) matrix
    rng = np.random.default_rng(777)
    grid = LineGrid(15.0, 600)
    count = 0
    for p in (2.5, 3.0, 4.0):
        for N in (2, 3):
            for _ in range(84):
                u = fuzz_field(grid, N, 6, rng)
                rep = proof_chain(u, 1.0, p)
                for slack in (rep.slack_lt, rep.slack_schwarz, rep.slack_hoelder2p,
                              rep.slack_poincare, rep.slack_hoelder):
                    assert slack >= -1e-8
                count += 1
    assert count >= 500
    report(7, f"all five slacks >= -1e-8 on {count} fuzzed fields; equalities at the extremal to 1e-6")


def test_criterion_08_sphere_inequality():
    rng = np.random.default_rng(31)
    for N in (2, 3):
        quad_ = default_quadrature(N, 8)
        for q in (1.5, 2.0, 3.0, 10.0):
            for _ in range(1000):
                v = ZonalField(N, rng.standard_normal(9))
                assert poincare_deficit(v, q, quad_) >= -1e-10
            eps = np.logspace(-3, -1, 9)
            deficits = [
                poincare_deficit(ZonalField(N, np.array([1.0, e, 0.0, 0.0, 0.0])), q, quad_)
                for e in eps
            ]
            slope = np.polyfit(np.log(eps), np.log(deficits), 1)[0]
            assert slope >= 2.9
    report(8, "deficits >= -1e-10 on 1000 random fields per (N, q); near-constant log-log slope >= 2.9")


def test_criterion_09_parameter_curve_identities():
    for N in range(2, 7):
        assert abs(b_sym(-0.5, N) - (-(N - 2) / (2.0 * (N + 2)))) <= 1e-12
        assert abs(b_sym(0.0, N) - b_fs(0.0, N) - 1.0 / (1 + N * (N - 1))) <= 1e-12
        ac = a_critical(N)
        for a in np.linspace(-10.0, ac - 0.05, 101):  # round trip degenerates at a = a_c
            lam = (ac - a) ** 2
            p1 = 2.0 * N / (N - 2 + 2 * (b_fs(a, N) - a))
            assert abs(lambda_fs(p1, N) - lam) <= 1e-12 * lam
            p2 = 2.0 * N / (N - 2 + 2 * (b_sym(a, N) - a))
            assert abs(lambda_sym(p2, N) - lam) <= 1e-12 * lam
        diffs = [b_sym(a, N) - b_fs(a, N) for a in np.linspace(-10.0, 0.0, 101)]
        assert np.all(np.diff(diffs) > 0)
    report(9, "curve identities to 1e-12 for N in 2..6; Lambda round trips; monotone difference")


def test_criterion_10_sharp_constant_adjudication():
    target = (5.0 / (144.0 * math.pi)) ** (1.0 / 3.0)
    # route 1: closed form
    c_closed = radial_constant(1.0, 3.0, 3)
    assert abs(c_closed - target) <= 1e-10
    # route 2: quadrature of the extremal profile
    pc = profile_constants(1.0, 3.0, 1.0)
    up, _ = quad(lambda s: float(extremal_profile(s, pc, 3.0)) ** 3, -80, 80, limit=300)
    c_quad = (sphere_area(3) * up) ** (-1.0 / 3.0)
    assert abs(c_quad - target) <= 1e-9
    # route 3: full 2-d minimization, bridged to the surface measure
    grid = LineGrid(20.0, 2000)
    start = extremal_field(grid, 3, 8, 1.0, 3.0)
    start.data[:, 1] = 0.1 * start.data[:, 0]
    rep = minimize_quotient(start, 1.0, 3.0)
    c_min = rep.constant * sphere_area(3) ** (-1.0 / 3.0)
    assert abs(c_min - target) <= 5e-3 * target
    # the alternative-normalization value is reported flagged, not adopted
    alt = radial_constant_alt(1.0, 3.0, 3)
    assert abs(alt - 1.2041) <= 1e-3
    assert abs(alt / c_closed - sphere_area(3) ** (2.0 / 3.0)) <= 1e-9
    report(10, f"three routes give {target:.5f}; flagged convention value {alt:.4f} off by |S^2|^(2(p-2)/p)")


def test_criterion_11_theta_sandwich():
    # gap-factor dual route first
    for p, theta in ((3.0, 0.8), (3.0, 0.9), (4.0, 0.8)):
        gamma_t, _ = chain_exponents(p, theta)
        pc = profile_constants(1.0, p, theta)
        m = moments(p)
        up = pc.A**p / pc.B * m.Ip
        u2 = pc.A**2 / pc.B * m.I2
        q_val = up ** (theta - 2.0 / p) * u2 ** (1 - theta)
        dual = lt_constant(gamma_t) ** (1 / gamma_t) * q_val ** (2 * p / ((2 * theta - 1) * p + 2))
        assert abs(gap_factor(p, theta) - dual) <= 1e-9 * dual
    for theta in (0.8, 0.9):
        lam = 0.9 * sandwich_lambda_bound(theta, 3.0, 3)
        rep = sandwich_check(theta, lam, 3.0, 3)
        assert rep.converged
        assert rep.k_lower <= rep.k_numeric <= rep.k_upper
    rep1 = sandwich_check(1.0, 1.0, 3.0, 3)
    assert rep1.k_upper == rep1.k_lower
    assert abs(rep1.k_numeric - rep1.k_lower) <= 5e-3 * rep1.k_lower
    report(11, "numeric constant inside the two-sided bound at theta in {0.8, 0.9}; degenerate at theta = 1")


def test_criterion_12_log_radial_bridge():
    pt = ParamPoint(3, -0.5, 0.0)
    s = np.linspace(-30.0, 30.0, 6001)
    # smooth compact test profile
    u, rep = emden_fowler_pushforward(s, np.exp(-(s**2) / 2), pt)
    assert rep["p_norm_mismatch"] < 1e-12
    assert rep["grad_norm_mismatch"] < 1e-12
    # pushforward of the closed-form radial extremal matches the line profile
    w = euclidean_radial_extremal(np.exp(s), pt)
    u, rep = emden_fowler_pushforward(s, w, pt)
    assert rep["p_norm_mismatch"] < 1e-12
    assert rep["grad_norm_mismatch"] < 1e-12
    pc = profile_constants(1.0, 3.0, 1.0)
    aligned = u * (pc.A / u.max())
    sup_err = float(np.abs(aligned - extremal_profile(s, pc, 3.0)).max())
    assert sup_err < 1e-6
    report(12, f"norm identities < 1e-12; extremal pushforward matches the line profile to {sup_err:.1e}")


def test_criterion_13_gradient_correctness():
    rng = np.random.default_rng(99)
    grid = LineGrid(12.0, 256)
    envelope = np.exp(-np.abs(grid.nodes()) / 3.0)[:, None]
    worst = 0.0
    for _ in range(10):
        u = CylField(grid, 3, (0.5 + rng.random((256, 5))) * envelope)
        d = rng.standard_normal((256, 5)) * envelope
        _, g = _value_and_grad(u, 1.0, 3.0, 1.0)
        eps = 1e-6
        fd = (
            rayleigh(CylField(grid, 3, u.data + eps * d), 1.0, 3.0)
            - rayleigh(CylField(grid, 3, u.data - eps * d), 1.0, 3.0)
        ) / (2 * eps)
        analytic = grid.h * float((g * _dst(d)).sum())  # g is in sine coefficients
        rel = abs(fd - analytic) / max(abs(fd), 1e-12)
        worst = max(worst, rel)
        assert rel < 1e-6
    report(13, f"analytic first variation matches central differences; worst relative error {worst:.1e}")
