"""Cylinder variational problem: quotients, flows, chains, thresholds."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cknsharp.cylinder as cyl
from cknsharp import (
    CylField,
    DomainError,
    LineGrid,
    MinimizeOpts,
    NumericsError,
    ParamPoint,
    a_critical,
    defect_functional,
    eigenvalue_bound,
    el_residual,
    emden_fowler_pushforward,
    euclidean_radial_extremal,
    extremal_field,
    extremal_profile,
    fs_threshold,
    lambda_fs,
    lambda_sym,
    lowest_eigenpair,
    minimize_quotient,
    profile_constants,
    proof_chain,
    radial_interp_coefficient,
    radial_interp_constant,
    rayleigh,
    sandwich_check,
    second_variation_mode,
    sech_squared_potential,
    symmetric_mu_threshold,
)
from cknsharp.cylinder import (
    _angular,
    _dst,
    _value_and_grad,
    sandwich_lambda_bound,
)

GRID = LineGrid(20.0, 2000)


def perturbed_start(grid, N, L_max, Lambda, p, frac=0.1):
    u = extremal_field(grid, N, L_max, Lambda, p)
    u.data[:, 1] = frac * u.data[:, 0]
    return u


def fuzz_field(grid, N, L_max, rng):
    s = grid.nodes()
    g = np.zeros(grid.n)
    for _ in range(rng.integers(1, 4)):
        c = rng.uniform(-0.4 * grid.S, 0.4 * grid.S)
        w = rng.uniform(0.6, 2.5)
        g += rng.uniform(0.2, 1.0) * np.exp(-((s - c) ** 2) / (2 * w * w))
    _, B = _angular(N, L_max)
    ang = rng.standard_normal(L_max) * (0.3 ** np.arange(1, L_max + 1))
    m = np.maximum(1.0 + B[:, 1:] @ ang, 0.05)
    return CylField.from_nodal(grid, N, L_max, np.outer(g, m))


# ---------------------------------------------------------------------------
# field plumbing


def test_nodal_coefficient_round_trip():
    rng = np.random.default_rng(0)
    grid = LineGrid(10.0, 64)
    u = CylField(grid, 3, rng.standard_normal((64, 7)))
    back = CylField.from_nodal(grid, 3, 6, u.nodal())
    np.testing.assert_allclose(back.data, u.data, atol=1e-12)


def one_shot_nodal_stage(u, p):
    """The nodal stage as one whole-grid expression, with P summed over the
    nodes: the reference for the blocked cyl._nodal_stage and its
    coefficient-space P."""
    quad_, B = _angular(u.N, u.L_max)
    U = u.nodal()
    aU = np.abs(U) ** (p - 2) * U
    P = float(u.grid.h * ((aU * U) @ quad_.weights).sum())
    return P, (aU * quad_.weights[None, :]) @ B


@settings(max_examples=60, deadline=None)
@given(
    N=st.sampled_from([2, 3]),
    p=st.floats(2.0, 6.0, exclude_min=True, exclude_max=True),
    L_max=st.integers(0, 8),
    data=st.data(),
)
def test_nodal_stage_kernel_matches_one_shot(N, p, L_max, data):
    rows = cyl._BLOCK_VALUES // len(_angular(N, L_max)[0].weights)
    # n spans one to four blocks, with a partial last block
    n = data.draw(st.integers(16, 4 * rows - 1).filter(lambda n: n % rows), label="n")  # LineGrid needs n >= 16
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    u = CylField(LineGrid(10.0, n), N, np.random.default_rng(seed).standard_normal((n, L_max + 1)))
    P, nl = cyl._nodal_stage(u, p)
    P_ref, nl_ref = one_shot_nodal_stage(u, p)
    assert abs(P - P_ref) <= 1e-12 * P_ref
    np.testing.assert_allclose(nl, nl_ref, rtol=1e-12, atol=1e-12 * np.abs(nl_ref).max())


def test_kept_pieces_do_not_alias_the_block_buffers():
    rng = np.random.default_rng(11)

    def scored(grid, N, L_max):
        u = CylField(grid, N, rng.standard_normal((grid.n, L_max + 1)))
        u._sine = _dst(u.data)  # a flow field: rayleigh keeps its pieces
        rayleigh(u, 1.0, 3.3)
        return u

    a = scored(LineGrid(10.0, 3000), 3, 6)
    P, nl = a._kept[1][2:4]
    nl_before = nl.copy()
    b = scored(LineGrid(12.0, 777), 2, 8)
    assert a._kept[1][2] == P and a._kept[1][3] is nl
    np.testing.assert_array_equal(nl, nl_before)
    assert not np.shares_memory(nl, b._kept[1][3])


# ---------------------------------------------------------------------------
# Rayleigh quotient


def test_rayleigh_at_extremal():
    u = extremal_field(GRID, 3, 8, 1.0, 3.0)
    assert rayleigh(u, 1.0, 3.0) == pytest.approx(7.2 ** (1.0 / 3.0), rel=1e-12)


def test_rayleigh_scale_invariance_and_reduction():
    u = extremal_field(GRID, 3, 8, 1.0, 3.0)
    q0 = rayleigh(u, 1.0, 3.0)
    for c in (0.1, -2.0, 37.5):
        scaled = CylField(GRID, 3, c * u.data)
        assert rayleigh(scaled, 1.0, 3.0) == pytest.approx(q0, rel=1e-13)
    # pure radial content reduces to the 1-d quotient
    prof = u.data[:, 0]
    h = GRID.h
    e1d = np.sum((np.diff(prof) / h) ** 2) * h
    m1d = h * np.sum(prof**2)
    p1d = h * np.sum(prof**3)
    q1d = (e1d + m1d) / p1d ** (2.0 / 3.0)
    assert rayleigh(u, 1.0, 3.0) == pytest.approx(q1d, rel=1e-4)  # FD energy is O(h^2)


def test_rayleigh_theta_at_extremal():
    theta = 0.9
    u = extremal_field(GRID, 3, 8, 1.0, 3.0, theta)
    assert rayleigh(u, 1.0, 3.0, theta) == pytest.approx(1.0 / radial_interp_constant(theta, 1.0, 3.0), rel=1e-12)


def test_rayleigh_zero_field_rejected():
    with pytest.raises(DomainError):
        rayleigh(CylField(GRID, 3, np.zeros((GRID.n, 3))), 1.0, 3.0)


@pytest.mark.parametrize(
    "Lambda,p,theta",
    [(math.nan, 3.0, 1.0), (math.inf, 3.0, 1.0), (-1.0, 3.0, 1.0), (1.0, math.nan, 1.0), (1.0, math.inf, 1.0),
     (1.0, 3.0, math.nan), (1.0, 3.0, 0.0), (1.0, 3.0, 1.5)],
)
def test_quotient_domain_rejects_non_finite_and_out_of_range(Lambda, p, theta):
    u = extremal_field(GRID, 3, 4, 1.0, 3.0)
    with pytest.raises(DomainError):
        rayleigh(u, Lambda, p, theta)
    with pytest.raises(DomainError):
        minimize_quotient(u, Lambda, p, theta)


# ---------------------------------------------------------------------------
# gradient and flow


@pytest.mark.parametrize("theta", [1.0, 0.9])
def test_gradient_matches_finite_differences(theta):
    rng = np.random.default_rng(42)
    grid = LineGrid(12.0, 256)
    envelope = np.exp(-np.abs(grid.nodes()) / 3.0)[:, None]
    for _ in range(10):
        u = CylField(grid, 3, (0.5 + rng.random((256, 5))) * envelope)
        d = rng.standard_normal((256, 5)) * envelope
        _, g = _value_and_grad(u, 1.0, 3.0, theta)
        eps = 1e-6
        fd = (
            rayleigh(CylField(grid, 3, u.data + eps * d), 1.0, 3.0, theta)
            - rayleigh(CylField(grid, 3, u.data - eps * d), 1.0, 3.0, theta)
        ) / (2 * eps)
        analytic = grid.h * float((g * _dst(d)).sum())  # g is in sine coefficients
        assert abs(fd - analytic) <= 1e-6 * max(abs(fd), 1e-3)
        # a field that carries its sine coefficients yields the same gradient
        carried = CylField(grid, 3, u.data)
        carried._sine = _dst(u.data)
        np.testing.assert_allclose(_value_and_grad(carried, 1.0, 3.0, theta)[1], g, rtol=0,
                                   atol=1e-13 * np.abs(g).max())


@pytest.mark.parametrize("theta", [1.0, 0.9])
def test_flow_makes_two_transforms_per_iteration_and_none_per_trial(monkeypatch, theta):
    transforms, per_trial = [0], []
    real_dst, real_rayleigh = cyl.dst, cyl.rayleigh

    def counting_dst(*args, **kwargs):
        transforms[0] += 1
        return real_dst(*args, **kwargs)

    def recording_rayleigh(u, *args):
        before = transforms[0]
        value = real_rayleigh(u, *args)
        per_trial.append(transforms[0] - before)
        return value

    monkeypatch.setattr(cyl, "dst", counting_dst)
    monkeypatch.setattr(cyl, "rayleigh", recording_rayleigh)
    rep = minimize_quotient(perturbed_start(LineGrid(18.0, 600), 3, 6, 3.0, 3.0), 3.0, 3.0, theta)
    assert rep.iterations > 5
    assert transforms[0] <= 2 * rep.iterations + 2
    assert len(per_trial) >= rep.iterations - 1
    assert set(per_trial) == {0}


@pytest.mark.parametrize("theta,multistart", [(1.0, False), (0.9, False), (1.0, True)])
def test_flow_takes_one_nodal_power_per_trial_and_none_per_gradient(monkeypatch, theta, multistart):
    counts = {"_nodal_stage": 0, "rayleigh": 0, "_descend": 0}

    def counted(name):
        real = getattr(cyl, name)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(cyl, name, wrapper)

    for name in counts:
        counted(name)
    start = perturbed_start(LineGrid(18.0, 600), 3, 6, 3.0, 3.0)
    rep = minimize_quotient(start, 3.0, 3.0, theta, MinimizeOpts(multistart=multistart, max_iter=300))
    assert rep.iterations > 5
    assert counts["_descend"] == (4 if multistart else 1)
    # every line-search trial is evaluated once; each descent adds only its start
    assert counts["_nodal_stage"] == counts["rayleigh"] + counts["_descend"]


def test_flow_gradient_uses_the_pieces_of_its_own_iterate(monkeypatch):
    # iterates have unit mass, so the gradient error is measured absolutely:
    # it stays near roundoff as the gradient itself goes to zero
    real, q_err, g_err = cyl._value_and_grad, [0.0], [0.0]

    def checked(u, *args):
        Q, g = real(u, *args)
        Q_ref, g_ref = real(CylField(u.grid, u.N, u.data.copy()), *args)
        q_err[0] = max(q_err[0], abs(Q - Q_ref) / Q_ref)
        g_err[0] = max(g_err[0], float(np.abs(g - g_ref).max()))
        return Q, g

    monkeypatch.setattr(cyl, "_value_and_grad", checked)
    rep = minimize_quotient(perturbed_start(LineGrid(18.0, 600), 3, 6, 3.0, 3.0), 3.0, 3.0)
    assert rep.iterations > 5
    assert q_err[0] < 1e-13
    assert g_err[0] < 1e-10


def test_minimizer_carries_no_stale_coefficients():
    grid = LineGrid(18.0, 600)
    rep = minimize_quotient(perturbed_start(grid, 3, 6, 3.0, 3.0), 3.0, 3.0)
    assert rep.minimizer._sine is None and rep.minimizer._kept is None
    rep.minimizer.data[:, 1] += 0.3 * rep.minimizer.data[:, 0]
    rep.minimizer.data *= 2.0
    fresh = CylField(grid, 3, rep.minimizer.data.copy())
    assert rayleigh(rep.minimizer, 3.0, 3.0) == rayleigh(fresh, 3.0, 3.0)
    assert rayleigh(rep.minimizer, 3.0, 3.0) > rep.quotient


def test_zonal_invariance_of_flow():
    u = extremal_field(GRID, 3, 8, 3.0, 3.0)
    rep = minimize_quotient(u, 3.0, 3.0, opts=MinimizeOpts(max_iter=3))
    assert np.abs(rep.minimizer.data[:, 1:]).max() == 0.0


def test_minimize_symmetric_regime():
    rep = minimize_quotient(perturbed_start(GRID, 3, 8, 1.0, 3.0), 1.0, 3.0)
    k_star = radial_interp_coefficient(1.0, 3.0)
    assert rep.converged
    assert rep.constant == pytest.approx(k_star, rel=5e-3)
    assert rep.angular_fraction < 1e-6


def test_minimize_breaking_regime():
    q_star = rayleigh(extremal_field(GRID, 3, 8, 3.0, 3.0), 3.0, 3.0)
    rep = minimize_quotient(perturbed_start(GRID, 3, 8, 3.0, 3.0), 3.0, 3.0)
    assert rep.converged
    assert rep.quotient <= 0.99 * q_star
    assert rep.angular_fraction > 1e-3


def test_minimize_multistart_finds_broken_branch_from_radial():
    start = extremal_field(GRID, 3, 8, 3.0, 3.0)  # purely radial start
    q_star = rayleigh(start, 3.0, 3.0)
    rep = minimize_quotient(start, 3.0, 3.0, opts=MinimizeOpts(multistart=True))
    assert rep.quotient <= 0.99 * q_star


def test_minimize_monotone_in_lambda_and_dominated_by_radial():
    grid = LineGrid(18.0, 900)
    prev = math.inf
    for lam in (0.5, 1.0, 2.0, 3.0):
        rep = minimize_quotient(perturbed_start(grid, 3, 6, lam, 3.0), lam, 3.0)
        q_star = rayleigh(extremal_field(grid, 3, 6, lam, 3.0), lam, 3.0)
        assert rep.quotient <= q_star * (1 + 1e-10)  # numeric optimum never above radial
        assert rep.constant <= prev * (1 + 1e-8)  # constant non-increasing in Lambda
        prev = rep.constant


def test_minimize_lmax_zero_reduces_to_radial_problem():
    grid = LineGrid(18.0, 900)
    rep = minimize_quotient(extremal_field(grid, 3, 0, 1.0, 3.0), 1.0, 3.0)
    assert rep.constant == pytest.approx(radial_interp_coefficient(1.0, 3.0), rel=1e-6)
    assert rep.angular_fraction == 0.0


def test_minimize_iteration_exhaustion_is_reported():
    rep = minimize_quotient(perturbed_start(GRID, 3, 8, 3.0, 3.0), 3.0, 3.0, opts=MinimizeOpts(max_iter=2))
    assert not rep.converged
    assert rep.iterations == 2


def count_calls(monkeypatch, name):
    counts = [0]
    real = getattr(cyl, name)

    def wrapper(*args, **kwargs):
        counts[0] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(cyl, name, wrapper)
    return counts


def test_flow_resolves_the_flat_degree_one_mode_in_the_strip():
    # Lambda between lambda_sym and lambda_fs: the degree-1 mode is nearly
    # flat, where preconditioned steepest descent took 143 iterations and
    # stopped at an angular fraction of 9e-7
    rep = minimize_quotient(perturbed_start(LineGrid(18.0, 600), 3, 6, 1.55, 3.0), 1.55, 3.0)
    assert rep.converged
    assert rep.iterations <= 40
    assert rep.angular_fraction < 1e-8


def test_flow_stops_on_a_sub_ulp_armijo_target(monkeypatch):
    # a radial start past lambda_fs is a saddle with a roundoff-level slope:
    # no trial can show the required decrease, so none is scored
    Lambda, p = 1.090455595356829, 3.5188064841820563
    start = extremal_field(LineGrid(20.0, 899), 3, 6, Lambda, p)
    trials = count_calls(monkeypatch, "rayleigh")
    rep = minimize_quotient(start, Lambda, p)
    assert trials[0] == 0
    assert rep.quotient == 2.3175547229132385


def test_multistart_skips_the_duplicate_radial_start(monkeypatch):
    descents = count_calls(monkeypatch, "_descend")
    start = extremal_field(LineGrid(18.0, 600), 3, 6, 3.0, 3.0)
    rep = minimize_quotient(start, 3.0, 3.0, opts=MinimizeOpts(multistart=True, max_iter=300))
    assert descents[0] == 3
    assert rep.quotient < rayleigh(start, 3.0, 3.0)


@settings(max_examples=20, deadline=None)
@given(
    N=st.sampled_from([2, 3]),
    p=st.floats(2.5, 5.0, exclude_min=True, exclude_max=True),
    Lambda=st.floats(0.3, 3.0, exclude_min=True, exclude_max=True),
    theta=st.sampled_from([1.0, 0.9]),
)
def test_flow_descends_and_reports_the_gradient_of_its_last_iterate(N, p, Lambda, theta):
    grid = LineGrid(18.0, 600)
    start = perturbed_start(grid, N, 6, Lambda, p)
    values, grads = [], []
    real = cyl._value_and_grad

    def recording(u, *args):
        Q, g = real(u, *args)
        values.append(Q)
        grads.append(g)
        return Q, g

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cyl, "_value_and_grad", recording)
        rep = minimize_quotient(start, Lambda, p, theta, MinimizeOpts(max_iter=300))
    assert all(b <= a for a, b in zip(values, values[1:]))
    assert rep.quotient == values[-1]
    assert rep.quotient <= rayleigh(start, Lambda, p, theta)
    sym = 1.0 / (cyl._stiffness(start) + Lambda)
    g = grads[-1]
    assert rep.grad_norm == pytest.approx(math.sqrt(grid.h * float((g * sym * g).sum())), rel=1e-12)


# ---------------------------------------------------------------------------
# Euler-Lagrange residual and energy identity


def test_el_residual_at_extremal():
    grid = LineGrid(30.0, 3000)
    u = extremal_field(grid, 3, 8, 1.0, 3.0)
    quad_, B = _angular(3, 8)
    U = u.nodal()
    nonlin = ((np.abs(U) ** 2) * quad_.weights[None, :]) @ B
    scale = math.sqrt(grid.h * float((nonlin**2).sum()))
    assert el_residual(u, 1.0, 3.0) < 1e-8 * scale


def test_el_residual_theta_profile():
    grid = LineGrid(30.0, 3000)
    theta = 0.9
    u = extremal_field(grid, 3, 8, 1.0, 3.0, theta)
    assert el_residual(u, 1.0, 3.0, theta) < 1e-8


def test_el_residual_random_field_positive():
    rng = np.random.default_rng(1)
    u = fuzz_field(GRID, 3, 6, rng)
    assert el_residual(u, 1.0, 3.0) > 1e-3


def test_defect_functional_identity():
    u = extremal_field(GRID, 3, 8, 1.0, 3.0)
    assert defect_functional(u, 3.0) == pytest.approx(-6.0, rel=1e-12)
    # equals -Lambda * mass for the Euler-Lagrange solution
    mass = GRID.h * float((u.data**2).sum())
    assert defect_functional(u, 3.0) == pytest.approx(-1.0 * mass, rel=1e-12)


# ---------------------------------------------------------------------------
# proof chain


def test_proof_chain_equalities_at_extremal():
    u = extremal_field(GRID, 3, 8, 1.0, 3.0)
    rep = proof_chain(u, 1.0, 3.0)
    for slack in (rep.slack_lt, rep.slack_schwarz, rep.slack_hoelder2p, rep.slack_poincare, rep.slack_hoelder):
        assert abs(slack) <= 1e-6
    assert rep.D == pytest.approx(1.0, abs=1e-6)
    assert rep.gamma == pytest.approx(2.5)
    assert rep.q == pytest.approx(7.0 / 3.0)


def test_proof_chain_perturbed_extremal():
    u = extremal_field(GRID, 3, 8, 1.0, 3.0)
    u.data[:, 1] = 0.1 * u.data[:, 0]
    rep = proof_chain(u, 1.0, 3.0)
    slacks = [rep.slack_lt, rep.slack_schwarz, rep.slack_hoelder2p, rep.slack_poincare, rep.slack_hoelder]
    assert all(s >= -1e-10 for s in slacks)
    assert max(slacks) > 1e-4


@pytest.mark.parametrize("p,N", [(2.5, 2), (3.0, 3), (4.0, 2)])
def test_proof_chain_fuzz(p, N):
    rng = np.random.default_rng(23)
    grid = LineGrid(15.0, 600)
    for _ in range(20):
        u = fuzz_field(grid, N, 6, rng)
        rep = proof_chain(u, 1.0, p)
        for slack in (rep.slack_lt, rep.slack_schwarz, rep.slack_hoelder2p, rep.slack_poincare, rep.slack_hoelder):
            assert slack >= -1e-8


@settings(max_examples=25, deadline=None)
@given(
    N=st.sampled_from([2, 3]),
    p=st.floats(2.2, 5.0),
    bumps=st.lists(st.tuples(st.floats(-0.4, 0.4), st.floats(0.6, 2.5), st.floats(0.2, 1.0)), min_size=1, max_size=3),
    ang=st.lists(st.floats(-3.0, 3.0), min_size=6, max_size=6),
)
def test_proof_chain_slacks_non_negative_on_positive_bump_fields(N, p, bumps, ang):
    # the verify chain gate: every slack >= -1e-8 off the extremal
    grid = LineGrid(15.0, 600)
    s = grid.nodes()
    g = sum(amp * np.exp(-((s - c * grid.S) ** 2) / (2 * w * w)) for c, w, amp in bumps)
    _, B = _angular(N, 6)
    m = np.maximum(1.0 + B[:, 1:] @ (np.array(ang) * 0.3 ** np.arange(1, 7)), 0.05)
    rep = proof_chain(CylField.from_nodal(grid, N, 6, np.outer(g, m)), 1.0, p)
    assert min(rep.slack_lt, rep.slack_schwarz, rep.slack_hoelder2p, rep.slack_poincare, rep.slack_hoelder) >= -1e-8


def test_proof_chain_d_below_lambda_iff_small_mass():
    # D <= Lambda exactly when the total p-integral is below the extremal's
    u = extremal_field(GRID, 3, 8, 1.0, 3.0)
    small = CylField(GRID, 3, 0.9 * u.data)
    big = CylField(GRID, 3, 1.1 * u.data)
    assert proof_chain(small, 1.0, 3.0).D < 1.0
    assert proof_chain(big, 1.0, 3.0).D > 1.0


def test_proof_chain_rejects_p_out_of_range():
    u = extremal_field(GRID, 3, 4, 1.0, 3.0)
    with pytest.raises(DomainError):
        proof_chain(u, 1.0, 6.5)


def test_proof_chain_rejects_a_zero_field():
    # no node of this grid resolves the profile: every slack would read 0 and prove nothing
    grid = LineGrid(1e300, 64)
    with np.errstate(over="ignore"):
        u = extremal_field(grid, 3, 4, 1.0, 3.0)
    assert not u.data.any()
    with pytest.raises(DomainError):
        proof_chain(u, 1.0, 3.0)


# ---------------------------------------------------------------------------
# second variation and instability threshold


def test_second_variation_closed_form():
    assert second_variation_mode(1, 1.0, 3.0, 3, "closed") == pytest.approx(0.75, abs=1e-14)
    assert second_variation_mode(1, 1.6, 3.0, 3, "closed") == pytest.approx(0.0, abs=1e-14)
    assert second_variation_mode(1, 3.0, 3.0, 3, "closed") == pytest.approx(-1.75, abs=1e-14)


def test_second_variation_grid_matches_closed():
    for lam in (1.0, 1.6, 3.0):
        grid_val = second_variation_mode(1, lam, 3.0, 3, "grid")
        closed_val = second_variation_mode(1, lam, 3.0, 3, "closed")
        assert grid_val == pytest.approx(closed_val, abs=1e-3)


def test_second_variation_positive_up_to_lambda_sym():
    for p in (2.5, 3.0, 4.0):
        for frac in (0.25, 0.6, 1.0):
            lam = frac * lambda_sym(p, 3)
            assert second_variation_mode(1, lam, p, 3, "closed") > 0


@pytest.mark.parametrize("p,N", [(3.0, 3), (3.0, 2)])
def test_fs_threshold_quick(p, N):
    expected = lambda_fs(p, N)
    measured = fs_threshold(p, N)
    assert measured == pytest.approx(expected, rel=5e-3)
    assert abs(measured - expected) <= 1e-3


def test_fs_threshold_solves_each_lambda_once(monkeypatch):
    # brentq evaluates both bracket ends again; the memo answers those
    solve = cyl.lowest_eigenpair
    calls = []

    def counted(V):
        calls.append(V)
        return solve(V)

    monkeypatch.setattr(cyl, "lowest_eigenpair", counted)
    assert fs_threshold(3.0, 3) == pytest.approx(lambda_fs(3.0, 3), rel=5e-3)
    assert len(calls) == 6


def test_fs_threshold_rejects_supercritical():
    with pytest.raises(DomainError):
        fs_threshold(6.5, 3)


# ---------------------------------------------------------------------------
# log-radial bridge


def test_emden_fowler_pushforward_of_radial_extremal():
    pt = ParamPoint(3, -0.5, 0.0)
    s = np.linspace(-30.0, 30.0, 6001)
    w = euclidean_radial_extremal(np.exp(s), pt)
    u, report = emden_fowler_pushforward(s, w, pt)
    assert report["p_norm_mismatch"] < 1e-12
    assert report["grad_norm_mismatch"] < 1e-12
    pc = profile_constants(1.0, 3.0, 1.0)
    aligned = u * (pc.A / u.max())
    assert np.abs(aligned - extremal_profile(s, pc, 3.0)).max() < 1e-6


def test_emden_fowler_smooth_bump():
    pt = ParamPoint(3, -0.5, 0.0)
    s = np.linspace(-30.0, 30.0, 4001)
    u, report = emden_fowler_pushforward(s, np.exp(-(s**2)), pt)
    assert report["p_norm_mismatch"] < 1e-12
    assert report["grad_norm_mismatch"] < 1e-12


def test_emden_fowler_identity_check_sees_lambda_off_by_1e9(monkeypatch):
    pt = ParamPoint(3, -0.5, 0.0)
    s = np.linspace(-30.0, 30.0, 4001)
    exact = cyl.to_cylinder

    def skewed(q):
        cp = exact(q)
        return dataclasses.replace(cp, Lambda=cp.Lambda * (1 + 1e-9))

    monkeypatch.setattr(cyl, "to_cylinder", skewed)
    _, report = emden_fowler_pushforward(s, np.exp(-(s**2)), pt)
    assert report["grad_norm_mismatch"] > 1e-10


def test_quad_is_exact_up_to_degree_11():
    rng = np.random.default_rng(12)
    edges = np.sort(rng.uniform(0.1, 2.0, 9))
    a, b = edges[0], edges[-1]
    for k in range(12):
        exact = (b ** (k + 1) - a ** (k + 1)) / (k + 1)
        assert cyl.quad(lambda x: x**k, edges) == pytest.approx(exact, rel=1e-14, abs=0)
    # degree 12 is past the rule: on one wide interval its error shows
    assert abs(cyl.quad(lambda x: x**12, np.array([-1.0, 1.0])) - 2.0 / 13) > 1e-4


def test_emden_fowler_sech_construction():
    # w(r) = r^(a - a_c) sech(log r)^(2/(p-2)) maps exactly to sech(s)^(2/(p-2))
    pt = ParamPoint(3, -0.5, 0.0)
    s = np.linspace(-25.0, 25.0, 3001)
    sigma = a_critical(3) - pt.a
    w = np.exp(-sigma * s) * np.cosh(s) ** (-2.0)
    u, _ = emden_fowler_pushforward(s, w, pt)
    np.testing.assert_allclose(u, np.cosh(s) ** (-2.0), atol=1e-12)


def test_emden_fowler_undersampled():
    pt = ParamPoint(3, -0.5, 0.0)
    s = np.linspace(-10, 10, 8)
    with pytest.raises(NumericsError):
        emden_fowler_pushforward(s, np.exp(-(s**2)), pt)


# ---------------------------------------------------------------------------
# spectral-bound equivalence


def test_eigenvalue_bound_linear_law():
    slope = radial_interp_coefficient(1.0, 3.0) ** (2 * 3.0 / (3.0 + 2))
    for mu in (0.5, 1.0, 2.0):
        assert eigenvalue_bound(mu, 3.0, 3) == pytest.approx(slope * mu, rel=1e-12)


def test_eigenvalue_bound_equality_case():
    # the optimizing field at Lambda=1, p=3 has mu = (int u*^3 ds)^(1/gamma)
    mu = 7.2 ** (1 / 2.5)
    assert eigenvalue_bound(mu, 3.0, 3) == pytest.approx(1.0, abs=1e-3)


def test_eigenvalue_bound_dominates_sampled_potentials():
    # s-only potentials: the cylinder ground state sits in the zonal-0 mode,
    # so the 1-d solver supplies lambda1; (1.5, 0.5) is the equality case
    grid = LineGrid(20.0, 2000)
    gamma = 2.5
    from cknsharp import poschl_teller_ground

    for v0, b in [(1.5, 0.5), (0.8, 1.0), (3.0, 0.7)]:
        V = sech_squared_potential(grid, v0, b)
        mu = (grid.h * float(np.sum(V.values ** (gamma + 0.5)))) ** (1 / gamma)
        bound = eigenvalue_bound(mu, 3.0, 3)
        assert poschl_teller_ground(v0, b) <= bound * (1 + 1e-12)
        # the discrete eigenvalue agrees up to its own O(h^2) error
        assert lowest_eigenpair(V).lambda1 <= bound * (1 + 1e-4)


def test_eigenvalue_bound_solves_each_lambda_once(monkeypatch):
    solved = []
    real = cyl.minimize_quotient

    def recording(start, Lambda, *args):
        solved.append(Lambda)
        return real(start, Lambda, *args)

    monkeypatch.setattr(cyl, "minimize_quotient", recording)
    mu = 2.0 * symmetric_mu_threshold(2.5, 3.0, 3)  # linear law at 2 lambda_sym, past lambda_fs
    assert radial_interp_coefficient(1.0, 3.0) ** 1.2 * mu > lambda_fs(3.0, 3)
    eigenvalue_bound(mu, 3.0, 3, grid=LineGrid(18.0, 700), L_max=5)
    assert len(solved) >= 3  # the bracket and at least one interior brentq step
    assert len(solved) == len(set(solved))


def _bound_calls(monkeypatch, lam_lin, p, N):
    """(Lambda, multistart, start, report) of every minimize_quotient call
    made by eigenvalue_bound at (p, N) whose linear law is lam_lin."""
    calls = []
    real = cyl.minimize_quotient

    def recording(start, Lambda, p, theta, opts):
        rep = real(start, Lambda, p, theta, opts)
        calls.append((Lambda, opts.multistart, start, rep))
        return rep

    monkeypatch.setattr(cyl, "minimize_quotient", recording)
    slope = radial_interp_coefficient(1.0, p) ** (2 * p / (p + 2))
    eigenvalue_bound(lam_lin / slope, p, N, grid=LineGrid(18.0, 699), L_max=5)
    monkeypatch.undo()
    return calls


# points past lambda_fs (1.6 at p = N = 3, 1.78 at p = 2.5, N = 2), and one in
# the strip lambda_sym = 1.5 < Lambda < lambda_fs at p = N = 3.  Whether the
# strip point brackets hangs on a roundoff-level sign (the radial quotient
# equals the target at the linear law), so it may make no warm call at all;
# when it does bracket, its end 1.6 Lambda is broken, so warm descents run
# below lambda_fs
_PAST_POINTS = [pytest.param(3.0, 3.0, 3, id="past"), pytest.param(3.0, 2.5, 2, id="past-p2.5-N2")]
_CONTINUATION_POINTS = [*_PAST_POINTS, pytest.param(1.54, 3.0, 3, id="strip")]


@pytest.mark.parametrize("lam_lin, p, N", _CONTINUATION_POINTS)
def test_eigenvalue_bound_continuation(monkeypatch, lam_lin, p, N):
    must_warm = lam_lin > lambda_fs(p, N)
    assert lambda_sym(p, N) < lam_lin
    calls = _bound_calls(monkeypatch, lam_lin, p, N)
    lams = [c[0] for c in calls]
    assert len(lams) == len(set(lams))  # no Lambda is solved twice
    broken = [rep.broken for *_, rep in calls]
    first = broken.index(True) if any(broken) else len(calls) - 1
    for lam, multistart, start, _ in calls[: first + 1]:
        # cold: a multistart from the radial extremal
        assert multistart and not np.any(start.data[:, 1:]), lam
    for lam, multistart, start, _ in calls[first + 1 :]:
        # warm: one descent from a broken minimizer
        assert not multistart and np.any(start.data[:, 1:]), lam
    if must_warm:
        assert broken[0] and len(calls) >= 3


@pytest.mark.parametrize("lam_lin, p, N", _PAST_POINTS)
def test_eigenvalue_bound_warm_quotients_match_cold(monkeypatch, lam_lin, p, N):
    calls = _bound_calls(monkeypatch, lam_lin, p, N)
    warm = [(lam, rep) for lam, multistart, _, rep in calls if not multistart]
    assert warm
    grid = LineGrid(18.0, 699)
    for lam, rep in warm:
        cold = minimize_quotient(extremal_field(grid, N, 5, lam, p), lam, p, 1.0,
                                 MinimizeOpts(multistart=True, max_iter=1500))
        assert rep.quotient == pytest.approx(cold.quotient, rel=1e-8), lam


def _five_smooth(m: int) -> bool:
    for f in (2, 3, 5):
        while m % f == 0:
            m //= f
    return m == 1


def test_default_transform_grids_are_five_smooth():
    # every default grid a DST-I runs on; the grids of the tridiagonal
    # eigensolver (verify lt, second_variation_mode) run no transform
    from cknsharp.cli import build_parser

    parser = build_parser()
    sizes = {
        "DEFAULT_GRID": cyl.DEFAULT_GRID.n,
        "eigenvalue_bound": cyl._BOUND_GRID.n,
        **{f"verify {c}": parser.parse_args(["verify", c, "--p", "3", "--Lambda", "1"]).n
           for c in ("minimize", "chain")},
    }
    assert {k: n for k, n in sizes.items() if not _five_smooth(n + 1)} == {}


def test_eigenvalue_bound_numeric_branch():
    # just past the threshold (here also past lambda_fs) the numeric
    # inversion runs; the broken minimizer lowers the quotient below the
    # radial one, so the bound lies at or above the linear law, and close to it
    slope = radial_interp_coefficient(1.0, 3.0) ** (6.0 / 5.0)
    mu = 1.1 * symmetric_mu_threshold(2.5, 3.0, 3)
    lam = eigenvalue_bound(mu, 3.0, 3, grid=LineGrid(18.0, 700), L_max=5)
    assert slope * mu <= lam <= slope * mu * (1 + 5e-3)
    assert lam > lambda_sym(3.0, 3)


def test_symmetric_mu_threshold():
    thr = symmetric_mu_threshold(2.5, 3.0, 3)
    slope = radial_interp_coefficient(1.0, 3.0) ** (6.0 / 5.0)
    assert thr == pytest.approx(lambda_sym(3.0, 3) / slope, rel=1e-14)
    assert thr > 0
    # linear in the symmetric threshold: N enters only through lambda_sym
    assert symmetric_mu_threshold(2.5, 3.0, 2) / thr == pytest.approx(
        lambda_sym(3.0, 2) / lambda_sym(3.0, 3), rel=1e-14
    )
    with pytest.raises(DomainError):
        symmetric_mu_threshold(2.0, 3.0, 3)


def test_paired_optimizer_symmetric_below_threshold():
    # below the mu threshold the optimizing field is s-only
    slope = radial_interp_coefficient(1.0, 3.0) ** (6.0 / 5.0)
    mu = 0.8 * symmetric_mu_threshold(2.5, 3.0, 3)
    lam = slope * mu
    rep = minimize_quotient(perturbed_start(GRID, 3, 6, lam, 3.0), lam, 3.0)
    assert rep.angular_fraction < 1e-6


# ---------------------------------------------------------------------------
# theta < 1 sandwich


def test_sandwich_theta_09():
    lam = 0.9 * sandwich_lambda_bound(0.9, 3.0, 3)
    rep = sandwich_check(0.9, lam, 3.0, 3)
    assert rep.within and rep.converged
    assert rep.k_lower <= rep.k_numeric <= rep.k_upper
    assert rep.k_lower <= rep.k_upper  # gap >= 1
    assert rep.Lambda <= rep.d_value <= rep.gap * rep.Lambda * (1 + 1e-6)
    assert rep.holder_theta_slack >= -1e-10


def test_sandwich_theta_1_degenerate():
    rep = sandwich_check(1.0, 1.0, 3.0, 3)
    assert rep.within
    assert rep.k_upper == pytest.approx(rep.k_lower, rel=1e-14)
    assert rep.k_numeric == pytest.approx(rep.k_lower, rel=5e-3)


def test_sandwich_condition_violation():
    with pytest.raises(DomainError):
        sandwich_check(0.9, 10.0, 3.0, 3)
    with pytest.raises(DomainError):
        sandwich_check(0.9, 0.1, 3.0, 3)  # below a_c^2
    for theta, Lambda in [(0.9, math.nan), (math.nan, 1.0)]:
        with pytest.raises(DomainError):
            sandwich_check(theta, Lambda, 3.0, 3)


def test_sandwich_limit_case_flag():
    # at theta = theta_min(3, 3) = 1/2 the admissible window is empty
    # ((2 theta - 3) p + 6 = 0); the check still runs and flags the report
    assert sandwich_lambda_bound(0.5, 3.0, 3) == pytest.approx(0.0, abs=1e-14)
    rep = sandwich_check(0.5, 1.0, 3.0, 3, grid=LineGrid(18.0, 900), L_max=6)
    assert rep.limit_case
    assert rep.q == math.inf
    assert rep.gamma_theta == pytest.approx(1.0, abs=1e-14)
