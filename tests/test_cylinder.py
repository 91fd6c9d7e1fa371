"""Cylinder variational problem: quotients, flows, chains, thresholds."""

import dataclasses
import math
import re
import threading
import time
import warnings
from collections import deque
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import example, given, settings
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
    chain_exponents,
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
    theta_min,
)
from cknsharp._kernels import _DENSE_ROWS
from cknsharp.cylinder import (
    DEFAULT_GRID,
    _angular,
    _stiffness,
    _value_and_grad,
    dst,
    sandwich_lambda_bound,
)
from cknsharp.errors import check_interp
from cknsharp.params import CylinderPoint
from cknsharp.schrodinger import Potential1D, lt_ratio
from cknsharp.sphere import (
    ZonalField,
    basis_matrix,
    grad_energy,
    poincare_deficit,
    sphere_quadrature,
)

GRID = LineGrid(20.0, 1999)


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


def test_a_cylinder_field_is_its_grid_N_and_data():
    # the flow's even half fields are private: the public type takes no
    # representation option and holds n rows (so does every minimizer, see
    # test_minimizer_carries_no_stale_coefficients)
    grid = LineGrid(18.0, 599)
    with pytest.raises(TypeError):
        CylField(grid, 3, np.ones((grid.n, 7)), half=True)
    with pytest.raises(DomainError):
        CylField(grid, 3, np.ones(((grid.n + 1) // 2, 7)))


def test_fields_and_reports_compare_by_identity():
    # elementwise array equality has no truth value, so == on the data would raise
    grid = LineGrid(10.0, 63)
    u, v = CylField(grid, 3, np.ones((63, 2))), CylField(grid, 3, np.ones((63, 2)))
    assert u == u and u != v
    assert len({u, v}) == 2
    rep = minimize_quotient(extremal_field(grid, 3, 1, 1.0, 3.0), 1.0, 3.0, opts=MinimizeOpts(max_iter=3))
    assert rep == rep
    assert rep != dataclasses.replace(rep, minimizer=rep.minimizer.copy())


def one_shot_nodal_stage(u, p):
    """The nodal stage as one whole-grid expression, with P summed over the
    nodes: the reference for cyl._nodal_stage and its
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
    n = data.draw(st.integers(16, 3000), label="n")  # LineGrid needs n >= 16
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    u = CylField(LineGrid(10.0, n), N, np.random.default_rng(seed).standard_normal((n, L_max + 1)))
    P, nl = cyl._nodal_stage(u, p)
    P_ref, nl_ref = one_shot_nodal_stage(u, p)
    assert abs(P - P_ref) <= 1e-12 * P_ref
    np.testing.assert_allclose(nl, nl_ref, rtol=1e-12, atol=1e-12 * np.abs(nl_ref).max())


def test_kept_pieces_do_not_alias_the_block_buffers():
    rng = np.random.default_rng(11)

    def scored(grid, N, L_max):
        u = cyl._Even(grid, N, rng.standard_normal(((grid.n + 1) // 2, L_max + 1)))  # rayleigh keeps its pieces
        rayleigh(u, 1.0, 3.3)
        return u

    a = scored(LineGrid(10.0, 2999), 3, 6)
    P, nl = a._pieces[2:4]
    nl_before = nl.copy()
    b = scored(LineGrid(12.0, 777), 2, 8)
    assert a._pieces[2] == P and a._pieces[3] is nl
    np.testing.assert_array_equal(nl, nl_before)
    assert not np.shares_memory(nl, b._pieces[3])


def test_nodal_stage_is_thread_safe():
    # NumPy releases the GIL in matmul, so threads evaluating at once must
    # not share buffers: every threaded result equals the serial one
    rng = np.random.default_rng(5)
    grid = LineGrid(20.0, 3000)
    fields = [CylField(grid, 3, rng.standard_normal((grid.n, 9))) for _ in range(4)]
    serial = [cyl._nodal_stage(u, 3.3) for u in fields]
    start = threading.Barrier(len(fields))

    def mismatches(k):
        start.wait()
        results = [cyl._nodal_stage(fields[k], 3.3) for _ in range(30)]
        return sum(P != serial[k][0] or not np.array_equal(nl, serial[k][1]) for P, nl in results)

    with ThreadPoolExecutor(len(fields)) as pool:
        assert sum(pool.map(mismatches, range(len(fields)))) == 0


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


def test_minimize_refuses_theta_below_theta_min_before_the_solve(monkeypatch):
    # theta_min(3, 3) = 1/2; past p = 6 at N = 3 (supercritical), theta_min > 1 and no theta is admissible
    descents = count_calls(monkeypatch, "_descend_single")
    u = extremal_field(LineGrid(18.0, 599), 3, 4, 1.0, 3.0)
    with pytest.raises(DomainError, match=r"theta=0.2 outside \[0.5, 1\]"):
        minimize_quotient(u, 1.0, 3.0, 0.2)
    with pytest.raises(DomainError, match="p=7.0 supercritical for N=3"):
        minimize_quotient(u, 1.0, 7.0)
    assert descents[0] == 0
    minimize_quotient(u, 1.0, 3.0, 0.5, MinimizeOpts(max_iter=2))  # theta_min itself is admitted
    assert descents[0] == 2  # the coarse and the fine level


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
        _, g = _value_and_grad(u, 1.0, 3.0, theta, _stiffness(u) + 1.0)
        eps = 1e-6
        fd = (
            rayleigh(CylField(grid, 3, u.data + eps * d), 1.0, 3.0, theta)
            - rayleigh(CylField(grid, 3, u.data - eps * d), 1.0, 3.0, theta)
        ) / (2 * eps)
        analytic = grid.h * float((g * dst(d, 1)).sum())  # g is in sine coefficients
        assert abs(fd - analytic) <= 1e-6 * max(abs(fd), 1e-3)
        # the flow's _Even, which holds its odd sine modes, yields the gradient
        # of its mirrored full field at those modes
        even = cyl._Even(LineGrid(12.0, 255), 3, u.data[:128].copy())
        full = CylField(even.grid, 3, np.concatenate([even.data, even.data[-2::-1]]))
        g = _value_and_grad(full, 1.0, 3.0, theta, _stiffness(full) + 1.0)[1]
        np.testing.assert_allclose(_value_and_grad(even, 1.0, 3.0, theta, _stiffness(even) + 1.0)[1], g[::2], rtol=0,
                                   atol=1e-13 * np.abs(g).max())


@pytest.mark.parametrize("k", [1, 2, 3])
def test_lbfgs_direction_is_the_bfgs_inverse_hessian_product(k):
    # the two-loop recursion equals H g for the BFGS update H <- V^T H V
    # + rho s s^T, V = I - rho y s^T, over the pairs oldest first, started
    # at gamma diag(sym) with gamma = s.y / (y.sym.y) of the newest pair
    rng = np.random.default_rng(k)
    shape = (12, 3)
    sym = 1.0 / (1.0 + 10.0 * rng.random(shape))
    g = rng.standard_normal(shape)
    pairs = deque(maxlen=3)
    for _ in range(k):
        s = rng.standard_normal(shape)
        y = s / sym + 0.1 * rng.standard_normal(shape)
        assert np.vdot(s, y) > 0
        pairs.append((s, y, 1.0 / float(np.vdot(s, y))))
    _, y, rho = pairs[-1]
    H = np.diag(sym.ravel()) / (rho * float(np.vdot(y, sym * y)))
    for s, y, rho in pairs:
        V = np.eye(g.size) - rho * np.outer(y.ravel(), s.ravel())
        H = V.T @ H @ V + rho * np.outer(s.ravel(), s.ravel())
    expected = (H @ g.ravel()).reshape(shape)
    direction = cyl._lbfgs_direction(g, sym, pairs)
    assert np.linalg.norm(direction - expected) <= 1e-12 * np.linalg.norm(expected)


def level_recorder(monkeypatch, count):
    """Wrap the single-level descent: the returned list gets one (result,
    growth of count() during the level) pair per level run, in order; a
    result is (field, Q, gnorm, iterations, reason)."""
    levels, real = [], cyl._descend_single

    def wrapper(*args):
        before = count()
        run = real(*args)
        levels.append((run, count() - before))
        return run

    monkeypatch.setattr(cyl, "_descend_single", wrapper)
    return levels


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

    levels = level_recorder(monkeypatch, lambda: transforms[0])
    monkeypatch.setattr(cyl, "dst", counting_dst)
    monkeypatch.setattr(cyl, "rayleigh", recording_rayleigh)
    rep = minimize_quotient(perturbed_start(LineGrid(18.0, 599), 3, 6, 3.0, 3.0), 3.0, 3.0, theta)
    assert rep.iterations > 5
    assert len(levels) == 2 and rep.iterations == sum(iters for (*_, iters, _), _ in levels)
    for (*_, iters, _), spent in levels:  # each level: two per iteration, plus its start
        assert spent <= 2 * iters + 2
    # the transfer costs four more: the fine start's coefficients, the
    # restricted start's nodes, the coarse minimizer's coefficients and the
    # prolonged field's nodes
    assert transforms[0] <= 2 * rep.iterations + 2 * len(levels) + 4
    assert len(per_trial) >= rep.iterations - 1
    assert set(per_trial) == {0}


@pytest.mark.parametrize("theta,multistart", [(1.0, False), (0.9, False), (1.0, True)])
def test_flow_takes_one_nodal_power_per_trial_and_none_per_gradient(monkeypatch, theta, multistart):
    counts = {"_nodal_stage": 0, "rayleigh": 0}

    def counted(name):
        real = getattr(cyl, name)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(cyl, name, wrapper)

    for name in counts:
        counted(name)
    levels = level_recorder(monkeypatch, lambda: 0)
    start = perturbed_start(LineGrid(18.0, 599), 3, 6, 3.0, 3.0)
    rep = minimize_quotient(start, 3.0, 3.0, theta, MinimizeOpts(multistart=multistart, max_iter=300))
    assert rep.iterations > 5
    starts = 3 if multistart else 1  # the start, its radial part and the degree-1 bump
    # one coarse descent per start, one fine descent per call: the winning start's
    assert [u.grid.n for (u, *_), _ in levels] == [179] * starts + [599]
    # every line-search trial, and each of the two fields the transfer
    # compares, is evaluated once; each start adds only its coarse start,
    # since the fine level begins from a compared field and keeps its pieces
    assert counts["_nodal_stage"] == counts["rayleigh"] + starts


def test_flow_gradient_uses_the_pieces_of_its_own_iterate(monkeypatch):
    # iterates have unit mass, so the gradient error is measured absolutely:
    # it stays near roundoff as the gradient itself goes to zero
    real, q_err, g_err = cyl._value_and_grad, [0.0], [0.0]

    def checked(u, *args):
        Q, g = real(u, *args)
        Q_ref, g_ref = real(cyl._Even(u.grid, u.N, u.data.copy()), *args)
        q_err[0] = max(q_err[0], abs(Q - Q_ref) / Q_ref)
        g_err[0] = max(g_err[0], float(np.abs(g - g_ref).max()))
        return Q, g

    monkeypatch.setattr(cyl, "_value_and_grad", checked)
    levels = level_recorder(monkeypatch, lambda: 0)
    rep = minimize_quotient(perturbed_start(LineGrid(18.0, 599), 3, 6, 3.0, 3.0), 3.0, 3.0)
    assert rep.iterations > 5
    assert len(levels) == 2  # the fine level starts from the kept pieces of a scored field
    assert q_err[0] < 1e-13
    assert g_err[0] < 1e-10


def test_minimizer_carries_no_stale_coefficients():
    grid = LineGrid(18.0, 599)
    rep = minimize_quotient(perturbed_start(grid, 3, 6, 3.0, 3.0), 3.0, 3.0)
    assert type(rep.minimizer) is CylField and rep.minimizer.data.shape == (grid.n, 7)
    # the flow's last field mirrored: even in s, its rows s <= 0 those of the report's private flow field
    assert np.array_equal(rep.minimizer.data, rep.minimizer.data[::-1])
    assert np.array_equal(rep.minimizer.data[: (grid.n + 1) // 2], rep._half.data)
    rep.minimizer.data[:, 1] += 0.3 * rep.minimizer.data[:, 0]
    rep.minimizer.data *= 2.0
    fresh = CylField(grid, 3, rep.minimizer.data.copy())
    assert rayleigh(rep.minimizer, 3.0, 3.0) == rayleigh(fresh, 3.0, 3.0)
    assert rayleigh(rep.minimizer, 3.0, 3.0) > rep.quotient


@pytest.mark.parametrize("theta, Lambda, multistart", [(1.0, 3.0, False), (1.0, 3.0, True), (0.9, 1.5, True)])
def test_a_report_hands_out_only_full_fields(theta, Lambda, multistart):
    # the flow's half field stays inside the flow: every field a report hands out is a full CylField
    # that the public functions score as the flow scored its last field
    rep = minimize_quotient(perturbed_start(LineGrid(18.0, 599), 3, 6, Lambda, 3.0), Lambda, 3.0, theta,
                            MinimizeOpts(multistart=multistart))
    public = {name: getattr(rep, name) for name in dir(rep) if not name.startswith("_")}
    assert [name for name, value in public.items() if isinstance(value, CylField)] == ["minimizer"]
    assert not any(isinstance(value, cyl._Even) for value in public.values())
    u = rep.minimizer
    assert rayleigh(u, Lambda, 3.0, theta) == pytest.approx(rep.quotient, rel=1e-12, abs=0)
    assert el_residual(u, Lambda, 3.0, theta) < 1e-4
    chain = proof_chain(u, Lambda, 3.0)
    assert all(math.isfinite(value) for value in chain.to_dict().values())
    assert np.array_equal(u.copy().data, u.data)
    u.data[:, 1] += 0.3 * u.data[:, 0]
    assert rayleigh(u, Lambda, 3.0, theta) != pytest.approx(rep.quotient, rel=1e-6, abs=0)


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
    grid = LineGrid(18.0, 899)
    prev = math.inf
    for lam in (0.5, 1.0, 2.0, 3.0):
        rep = minimize_quotient(perturbed_start(grid, 3, 6, lam, 3.0), lam, 3.0)
        q_star = rayleigh(extremal_field(grid, 3, 6, lam, 3.0), lam, 3.0)
        assert rep.quotient <= q_star * (1 + 1e-10)  # numeric optimum never above radial
        assert rep.constant <= prev * (1 + 1e-8)  # constant non-increasing in Lambda
        prev = rep.constant


def test_minimize_lmax_zero_reduces_to_radial_problem():
    grid = LineGrid(18.0, 899)
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
    rep = minimize_quotient(perturbed_start(LineGrid(18.0, 599), 3, 6, 1.55, 3.0), 1.55, 3.0)
    assert rep.converged
    assert rep.iterations <= 40
    assert rep.angular_fraction < 1e-8


def test_flow_stops_on_a_sub_ulp_armijo_target(monkeypatch):
    # a radial start past lambda_fs is a saddle with a roundoff-level slope:
    # no trial can show the required decrease, so none is scored
    Lambda, p = 1.090455595356829, 3.5188064841820563
    start = extremal_field(LineGrid(20.0, 899), 3, 6, Lambda, p)
    scored = count_calls(monkeypatch, "rayleigh")
    levels = level_recorder(monkeypatch, lambda: scored[0])
    rep = minimize_quotient(start, Lambda, p)
    assert len(levels) == 2
    assert [trials for _, trials in levels] == [0, 0]  # the line search of either level
    assert scored[0] == 2  # only the two fields the transfer compares
    assert rep.quotient == 2.317554722913241


def test_multistart_skips_the_duplicate_radial_start(monkeypatch):
    levels = level_recorder(monkeypatch, lambda: 0)
    start = extremal_field(LineGrid(18.0, 599), 3, 6, 3.0, 3.0)
    rep = minimize_quotient(start, 3.0, 3.0, opts=MinimizeOpts(multistart=True, max_iter=300))
    assert [u.grid.n for (u, *_), _ in levels] == [179] * 2 + [599]  # the start and its bump, one polished
    assert rep.quotient < rayleigh(start, 3.0, 3.0)


def test_multistart_skips_the_duplicate_bump_without_degree_one(monkeypatch):
    # at L_max = 0 there is no degree-1 bump to add, and a radial start has no
    # radial part: the start is the only coarse descent, and it wins as before
    levels = level_recorder(monkeypatch, lambda: 0)
    start = extremal_field(LineGrid(20.0, 999), 3, 0, 1.0, 3.0)
    rep = minimize_quotient(start, 1.0, 3.0, opts=MinimizeOpts(multistart=True))
    assert [u.grid.n for (u, *_), _ in levels] == [199, 999]  # one start, polished
    assert rep.quotient == 1.9309787692112603


def test_the_multistart_draws_nothing_at_random(monkeypatch):
    # MinimizeOpts.seed is accepted and unused: no start is random, whatever the seed
    def no_rng(*args, **kwargs):
        raise AssertionError("the flow drew a random number")

    monkeypatch.setattr(np.random, "default_rng", no_rng)
    start = perturbed_start(LineGrid(20.0, 599), 3, 6, 3.0, 3.0)
    reps = [minimize_quotient(start, 3.0, 3.0, opts=MinimizeOpts(multistart=True, seed=s)) for s in (1, 99)]
    assert reps[0].to_dict() == reps[1].to_dict()
    assert reps[0].minimizer.data.tobytes() == reps[1].minimizer.data.tobytes()


def test_concurrent_flows_match_serial_ones():
    # each flow keeps its state in its own fields and the nodal stage uses
    # per-thread buffers, so flows in threads give the serial results bit for bit
    starts = [(extremal_field(DEFAULT_GRID, 3, 6, lam, 3.0), lam) for lam in (1.0, 2.0, 3.0)]
    opts = MinimizeOpts(multistart=True)
    serial = [minimize_quotient(u, lam, 3.0, opts=opts) for u, lam in starts]
    barrier = threading.Barrier(len(starts))

    def solve(k):
        barrier.wait(timeout=60)
        return minimize_quotient(starts[k][0], starts[k][1], 3.0, opts=opts)

    with ThreadPoolExecutor(len(starts)) as pool:
        threaded = list(pool.map(solve, range(len(starts)), timeout=300))
    for a, b in zip(serial, threaded):
        assert a.to_dict() == b.to_dict()
        assert a.minimizer.data.tobytes() == b.minimizer.data.tobytes()


@settings(max_examples=20, deadline=None)
@given(
    N=st.sampled_from([2, 3]),
    p=st.floats(2.5, 5.0, exclude_min=True, exclude_max=True),
    Lambda=st.floats(0.3, 3.0, exclude_min=True, exclude_max=True),
    theta=st.sampled_from([1.0, 0.9]),
)
def test_flow_descends_and_reports_the_gradient_of_its_last_iterate(N, p, Lambda, theta):
    grid = LineGrid(18.0, 599)
    start = perturbed_start(grid, N, 6, Lambda, p)
    values, grads = [], []  # values: one list per level
    real, real_level = cyl._value_and_grad, cyl._descend_single

    def recording(u, *args):
        Q, g = real(u, *args)
        values[-1].append(Q)
        grads.append(g)
        return Q, g

    def level(*args):
        values.append([])
        return real_level(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cyl, "_value_and_grad", recording)
        mp.setattr(cyl, "_descend_single", level)
        rep = minimize_quotient(start, Lambda, p, theta, MinimizeOpts(max_iter=300))
    assert len(values) == 2
    for qs in values:  # monotone within each level
        assert all(b <= a for a, b in zip(qs, qs[1:]))
    assert rep.quotient == values[-1][-1]
    assert rep.quotient <= rayleigh(start, Lambda, p, theta)
    sym = 1.0 / (cyl._stiffness(start)[::2] + Lambda)  # the flow's odd sine modes
    g = grads[-1]
    assert rep.grad_norm == pytest.approx(math.sqrt(grid.h * float((g * sym * g).sum())), rel=1e-12)


# ---------------------------------------------------------------------------
# two-level descent: coarse grid, transfer, start guard


def test_coarse_grid_rule():
    # n_c + 1 is the even integer nearest 10 S, at least 18
    rule = [cyl._coarse_n(S, 1999) for S in (20.0, 18.0, 25.0, 9.336, 1.45, 0.01)]
    assert rule == [199, 179, 249, 93, 17, 17]
    for S in np.linspace(2.0, 300.0, 300):
        m = cyl._coarse_n(S, 10**5) + 1
        assert m % 2 == 0 and abs(m - 10 * S) <= 1
    # up to S = 51 the coarse level's (n_c + 1)/2 rows take dst's dense path, whatever their factors
    assert (cyl._coarse_n(51.0, 10**5) + 1) // 2 <= _DENSE_ROWS
    # a box too wide for its grid gets one level at once, however wide
    for S, n in ((1e300, 100), (1e9, 10**5), (300.0, 2999)):
        assert n + 1 < cyl._MIN_FINE_OVER_COARSE * (cyl._coarse_n(S, n) + 1)


@pytest.mark.parametrize("n,levels", [(597, 1), (599, 2)])
def test_two_levels_start_at_three_times_the_coarse_modes(monkeypatch, n, levels):
    # at S = 20, n_c + 1 = 200: two levels from n + 1 = 600 on
    assert cyl._MIN_FINE_OVER_COARSE == 3.0
    ran = level_recorder(monkeypatch, lambda: 0)
    minimize_quotient(perturbed_start(LineGrid(20.0, n), 3, 6, 3.0, 3.0), 3.0, 3.0, opts=MinimizeOpts(max_iter=2))
    assert [u.grid.n for (u, *_), _ in ran] == [199, n][2 - levels:]


@pytest.mark.parametrize("n", [299, 899])
def test_every_line_search_starts_at_step_one(monkeypatch, n):
    # the first trial of a search is c - t dc at t = 1, for a preconditioned-gradient
    # direction (every level's first) and an L-BFGS one alike, on one level and on two
    iterate, directions, first_steps = [None], [], []
    real_grad, real_half_nodes = cyl._value_and_grad, cyl._half_nodes

    def recording_grad(u, *args):
        iterate[0] = u  # the flow takes the gradient of each iterate once
        return real_grad(u, *args)

    def recording_half_nodes(c):
        directions.append(c)  # a search maps its direction dc to nodes before its first trial
        return real_half_nodes(c)

    class Trial(cyl._Even):
        def __init__(self, grid, N, values=None, c=None):
            if values is not None and c is not None and directions:  # the first trial of a search
                dc = directions[-1]
                first_steps.append(float(np.vdot(iterate[0].c - c, dc) / np.vdot(dc, dc)))
                directions.clear()
            super().__init__(grid, N, values, c)

    monkeypatch.setattr(cyl, "_value_and_grad", recording_grad)
    monkeypatch.setattr(cyl, "_half_nodes", recording_half_nodes)
    monkeypatch.setattr(cyl, "_Even", Trial)
    levels = level_recorder(monkeypatch, lambda: 0)
    rep = minimize_quotient(perturbed_start(LineGrid(20.0, n), 3, 6, 3.0, 3.0), 3.0, 3.0)
    assert len(levels) == (1 if n == 299 else 2)
    assert len(first_steps) >= rep.iterations - len(levels)  # only a stopping iteration may search nothing
    assert first_steps == pytest.approx([1.0] * len(first_steps), rel=0, abs=1e-8)


def test_max_iter_is_the_budget_of_both_levels(monkeypatch):
    # the coarse level spends the whole budget: the fine one takes none and
    # reports its start, not converged
    levels = level_recorder(monkeypatch, lambda: 0)
    rep = minimize_quotient(perturbed_start(LineGrid(18.0, 599), 3, 6, 3.0, 3.0), 3.0, 3.0,
                            opts=MinimizeOpts(max_iter=5))
    assert [iters for (*_, iters, _), _ in levels] == [5, 0]
    assert rep.iterations == 5 and not rep.converged


def test_prolong_then_restrict_is_the_identity():
    rng = np.random.default_rng(5)
    for n_c, n in ((199, 1999), (179, 600), (14, 29)):
        c = rng.standard_normal((n_c, 7))
        up = cyl._transfer(c, n)
        assert np.all(up[n_c:] == 0.0)
        np.testing.assert_allclose(cyl._transfer(up, n_c), c, rtol=4e-16, atol=0)


def _row_mass(u):
    """Per-degree squared L2 norm of u as a nodal row sum; an _Even's rows but s = 0 count twice, for their mirrors."""
    weights = np.append(np.full(len(u.data) - 1, 2.0), 1.0)[:, None] if u.half else 1.0
    return u.grid.h * (weights * u.data**2).sum(axis=0)


def _mass_and_s_energy(u):
    """(per-degree nodal mass, per-degree Dirichlet energy in s of the sine interpolant) of an _Even."""
    return _row_mass(u), u.grid.h * (cyl._omega2(u.grid, True) @ u.c2)


def test_prolongation_is_interpolation_and_keeps_mass_and_s_energy():
    # the fine grid n = 2 n_c + 1 holds every coarse node: the zero-padded
    # interpolant takes the coarse values there, and Parseval keeps the
    # per-degree mass and s-energy (half fields: 100 and 200 odd modes)
    values = np.random.default_rng(6).standard_normal((100, 5))
    coarse = cyl._Even(LineGrid(20.0, 199), 3, values.copy())
    norm = values[0, 0] / coarse.data[0, 0]  # the values are compared at their own scale, not at unit mass
    c = cyl._sine_of(coarse.data, True)
    fine = cyl._Even(LineGrid(20.0, 399), 3, c=cyl._transfer(c, 200))
    np.testing.assert_allclose(norm * fine.data[1::2], values, rtol=0, atol=1e-13)
    for a, b in zip(_mass_and_s_energy(fine), _mass_and_s_energy(coarse)):
        np.testing.assert_allclose(a, b, rtol=1e-13)


@settings(max_examples=60, deadline=None)
@given(rows=st.integers(9, 1500), L_max=st.integers(0, 8), seed=st.integers(0, 2**32 - 1))
def test_half_transforms_are_the_odd_modes_of_the_mirrored_field(rows, L_max, seed):
    # a half field holds rows 1..M of an s-even field on n = 2 M - 1 nodes,
    # s = 0 last: its DST-III modes are the odd-index DST-I coefficients of
    # the mirrored field (the even-index ones vanish), and the DST-II maps back
    half = np.random.default_rng(seed).standard_normal((rows, L_max + 1))
    c = dst(np.concatenate([half, half[-2::-1]]), 1)
    scale = float(np.abs(c).max())
    assert float(np.abs(cyl._sine_of(half, True) - c[::2]).max()) <= 1e-13 * scale
    assert float(np.abs(c[1::2]).max()) <= 1e-13 * scale
    assert float(np.abs(cyl._half_nodes(c[::2]) - half).max()) <= 1e-13 * float(np.abs(half).max())
    # the flow's field takes its mass from the c**2 of its odd modes (Parseval), degree by degree and in
    # total, as the nodal rows sum it, each row but s = 0 weighted twice for its mirror
    grid = LineGrid(20.0, 2 * rows - 1)
    u = cyl._Even(grid, 3, half.copy())
    nodal = _row_mass(u)
    np.testing.assert_allclose(u.grid.h * u.c2.sum(axis=0), nodal, rtol=1e-13, atol=0)
    assert cyl._pieces(u, 3.0)[1] == pytest.approx(float(nodal.sum()), rel=1e-13, abs=0)
    # and the mirrored full field from the c**2 of its DST-I, dense up to 256 rows and by FFT beyond
    full = CylField(grid, 3, np.concatenate([half, half[-2::-1]]))
    assert cyl._pieces(full, 3.0)[1] == pytest.approx(float(_row_mass(full).sum()), rel=1e-13, abs=0)


@settings(max_examples=20, deadline=None)
@given(
    N=st.sampled_from([2, 3]),
    p=st.floats(2.5, 5.0, exclude_min=True, exclude_max=True),
    Lambda=st.floats(0.3, 3.0, exclude_min=True, exclude_max=True),
    theta=st.sampled_from([1.0, 0.9]),
)
def test_two_level_descent_matches_the_single_level_one(N, p, Lambda, theta):
    grid = LineGrid(18.0, 599)
    start = perturbed_start(grid, N, 6, Lambda, p)
    opts = MinimizeOpts(max_iter=300)
    two = minimize_quotient(start, Lambda, p, theta, opts)
    u, Q, *_ = cyl._descend_single(cyl._even(start), Lambda, p, theta, opts.max_iter)
    assert two.quotient == pytest.approx(Q, rel=1e-8, abs=0)
    assert two.broken == (cyl._angular_fraction(u, Lambda) > 1e-3)  # as MinimizeReport.broken
    assert two.quotient <= rayleigh(start, Lambda, p, theta)


def test_the_fine_level_starts_from_the_start_when_the_transfer_scores_above_it(monkeypatch):
    # a coarse level that returns a poor field: the fine level runs from the
    # start itself, exactly as the single-level descent does (the sub-ulp
    # saddle above meets the same guard on its own)
    grid = LineGrid(18.0, 599)
    start = perturbed_start(grid, 3, 6, 3.0, 3.0)
    one, Q, gnorm, iters, _ = cyl._descend_single(cyl._even(start), 3.0, 3.0, 1.0, MinimizeOpts().max_iter)
    real = cyl._descend_single

    def spoiled(u, *args):
        run = real(u, *args)
        if u.grid.n < grid.n:  # the levels hand over sine modes
            run[0].c[:, 2] += 3.0 * run[0].c[:, 0]
        return run

    monkeypatch.setattr(cyl, "_descend_single", spoiled)
    rep = minimize_quotient(start, 3.0, 3.0)
    assert rep.quotient <= rayleigh(start, 3.0, 3.0)
    assert (rep.quotient, rep.grad_norm) == (Q, gnorm)
    assert rep.iterations > iters
    assert np.array_equal(rep.minimizer.data[: len(one.data)], one.data)


def test_a_grid_below_the_coarse_threshold_keeps_the_single_level_descent(monkeypatch):
    # n + 1 = 300 < 3 (n_c + 1) = 600 at S = 20: one level, bit for bit
    start = perturbed_start(LineGrid(20.0, 299), 3, 6, 3.0, 3.0)
    levels = level_recorder(monkeypatch, lambda: 0)
    rep = minimize_quotient(start, 3.0, 3.0)
    assert len(levels) == 1
    assert (rep.quotient, rep.iterations, rep.grad_norm) == (4.3868597985545215, 12, 1.1114322499109627e-05)
    monkeypatch.undo()
    one, Q, gnorm, iters, reason = cyl._descend_single(cyl._even(start), 3.0, 3.0, 1.0, MinimizeOpts().max_iter)
    assert (rep.quotient, rep.grad_norm, rep.iterations, rep.reason) == (Q, gnorm, iters, reason)
    assert rep.angular_fraction == cyl._angular_fraction(one, 3.0)
    assert np.array_equal(rep.minimizer.data[: len(one.data)], one.data)


@pytest.mark.parametrize("Lambda,theta,multistart,pinned", [
    (1.2, 0.9, False, (2.1649934506058277, 12, 1.407501953745647e-06)),
    (3.0, 1.0, True, (4.38685979848953, 12, 8.988289803408799e-06)),
])
def test_two_level_descents_are_pinned(monkeypatch, Lambda, theta, multistart, pinned):
    # n + 1 = 900 >= 3 (n_c + 1) = 600 at S = 20: every start takes the coarse
    # level, and the winning start alone the fine one
    start = extremal_field(LineGrid(20.0, 899), 3, 6, Lambda, 3.0, theta)
    start.data[:, 1] = 0.1 * start.data[:, 0]
    levels = level_recorder(monkeypatch, lambda: 0)
    rep = minimize_quotient(start, Lambda, 3.0, theta, MinimizeOpts(multistart=multistart))
    assert [u.grid.n for (u, *_), _ in levels] == [199] * (3 if multistart else 1) + [899]
    assert (rep.quotient, rep.iterations, rep.grad_norm) == pinned


def polish_every_start(start, Lambda, p, theta, opts):
    """The exhaustive reference: every start takes both levels, as a single-start
    solve, and the report of the lowest final Q wins."""
    single = MinimizeOpts(max_iter=opts.max_iter)
    reps = (minimize_quotient(s, Lambda, p, theta, single) for s in cyl._starts(start, opts))
    return min(reps, key=lambda rep: rep.quotient)


def _screening_cases():
    cases = []
    for N in (2, 3):
        for p in (3.0, 4.2):
            ls, lf = lambda_sym(p, N), lambda_fs(p, N)
            cases += [(N, p, lam, 1.0) for lam in (0.6 * ls, 0.5 * (ls + lf), 1.15 * lf, 3.0 * lf)]
    cases += [(3, 3.0, (1 + eps) * lambda_fs(3.0, 3), 1.0) for eps in (1e-2, 1e-3)]
    return cases + [(3, 3.0, 0.9 * sandwich_lambda_bound(0.9, 3.0, 3), 0.9)]


@pytest.mark.parametrize("N,p,Lambda,theta", _screening_cases())
def test_screened_multistart_matches_polishing_every_start(monkeypatch, N, p, Lambda, theta):
    # below lambda_sym, in the strip, past and far past lambda_fs, just past it
    # (angular fraction about 1.8e-3 at 1e-3 past) and at a theta < 1 sandwich point
    grid, opts = LineGrid(20.0, 899), MinimizeOpts(multistart=True)
    start = extremal_field(grid, N, 6, Lambda, p, theta)  # the sandwich point starts radial, as sandwich_check does
    if theta == 1.0:
        start.data[:, 1] = 0.1 * start.data[:, 0]
    ref = polish_every_start(start, Lambda, p, theta, opts)
    levels = level_recorder(monkeypatch, lambda: 0)
    rep = minimize_quotient(start, Lambda, p, theta, opts)
    starts = 3 if theta == 1.0 else 2  # a radial start has no radial part to add
    assert [v.grid.n for (v, *_), _ in levels] == [199] * starts + [899]  # one fine descent
    assert rep.broken == ref.broken
    assert rep.quotient == pytest.approx(ref.quotient, rel=1e-10, abs=0)


def test_screening_keeps_one_level_grids_and_single_starts_bit_for_bit():
    # n + 1 = 300 < 3 (n_c + 1): every first-level run is a whole descent, so
    # the screen is the old minimum; a single start is screened against nothing
    for grid, multistart in ((LineGrid(20.0, 299), True), (LineGrid(20.0, 899), False)):
        start = perturbed_start(grid, 3, 6, 3.0, 3.0)
        opts = MinimizeOpts(multistart=multistart)
        rep = minimize_quotient(start, 3.0, 3.0, opts=opts)
        ref = polish_every_start(start, 3.0, 3.0, 1.0, opts)
        assert (rep.quotient, rep.grad_norm, rep.iterations, rep.reason) == (
            ref.quotient, ref.grad_norm, ref.iterations, ref.reason)
        assert np.array_equal(rep.minimizer.data, ref.minimizer.data)


@pytest.mark.parametrize("reason,constants,max_iter", [
    ("grad_tol", {"_GRAD_TOL": 1e3}, 4000),  # every gradient is below the bound
    ("q_rel_tol", {"_Q_REL_TOL": 1.0}, 4000),  # every accepted step is small enough
    ("sub_ulp", {"_ARMIJO": 1e-300}, 4000),  # every required decrease is below one ulp
    ("line_search_stall", {"_ARMIJO": 1e6, "_MAX_BACKTRACKS": 2}, 4000),  # no trial decreases enough
    ("max_iter", {}, 2),
])
def test_the_report_names_why_the_flow_stopped(monkeypatch, reason, constants, max_iter):
    for name, value in constants.items():
        monkeypatch.setattr(cyl, name, value)
    start = perturbed_start(LineGrid(20.0, 299), 3, 6, 3.0, 3.0)  # one level
    rep = minimize_quotient(start, 3.0, 3.0, opts=MinimizeOpts(max_iter=max_iter))
    assert rep.reason == reason
    assert rep.iterations == (2 if reason == "max_iter" else 1)
    assert rep.converged == (reason != "max_iter")
    # the printed fields, without the minimizer and its half
    assert list(rep.to_dict()) == ["constant", "quotient", "iterations", "grad_norm", "angular_fraction",
                                   "converged", "reason", "Lambda", "p", "theta", "N"]


def test_even_n_is_refused_before_any_solve(monkeypatch):
    # the flow's fields are even in s, so its grid needs a node at s = 0
    levels = level_recorder(monkeypatch, lambda: 0)
    grid = LineGrid(18.0, 600)
    calls = [
        lambda: minimize_quotient(perturbed_start(grid, 3, 6, 3.0, 3.0), 3.0, 3.0),
        lambda: sandwich_check(0.9, 0.9 * sandwich_lambda_bound(0.9, 3.0, 3), 3.0, 3, grid=grid, L_max=6),
        lambda: eigenvalue_bound(2.0 * symmetric_mu_threshold(3.0, 3), 3.0, 3, grid=LineGrid(18.0, 700)),
    ]
    for call in calls:
        with pytest.raises(DomainError, match="odd n"):
            call()
    assert levels == []


# ---------------------------------------------------------------------------
# Euler-Lagrange residual and energy identity


def test_el_residual_at_extremal():
    grid = LineGrid(30.0, 3000)
    u = extremal_field(grid, 3, 8, 1.0, 3.0)
    assert el_residual(u, 1.0, 3.0) < 1e-8


def test_el_residual_theta_profile():
    grid = LineGrid(30.0, 3000)
    theta = 0.9
    u = extremal_field(grid, 3, 8, 1.0, 3.0, theta)
    assert el_residual(u, 1.0, 3.0, theta) < 4e-9


def test_el_residual_random_field_positive():
    rng = np.random.default_rng(1)
    u = fuzz_field(GRID, 3, 6, rng)
    assert el_residual(u, 1.0, 3.0) > 1e-3


def test_el_residual_is_scale_free_and_small_on_flow_minimizers():
    # the multiplier (E + Lambda M)/P rescales the nonlinearity, so u* and its multiples read the same bits,
    # and the mass-normalized minimizers read their stationarity, not their distance from the EL scale
    u = extremal_field(GRID, 3, 8, 1.0, 3.0)
    values = {el_residual(CylField(GRID, 3, scale * u.data), 1.0, 3.0) for scale in (1.0, 0.5, 2.0)}
    assert len(values) == 1 and values.pop() < 1e-5
    for lam in (1.0, 1.44, 3.0):  # symmetric, 0.9 lambda_fs, broken
        rep = minimize_quotient(perturbed_start(GRID, 3, 8, lam, 3.0), lam, 3.0)
        assert el_residual(rep.minimizer, lam, 3.0) < 1e-5


def test_defect_functional_identity():
    # the defect E - P, from the pieces every caller reads, is -Lambda M on the Euler-Lagrange solution
    u = extremal_field(GRID, 3, 8, 1.0, 3.0)
    E, M, P, *_ = cyl._pieces(u, 3.0)
    assert E - P == pytest.approx(-6.0, rel=1e-12)
    mass = GRID.h * float((u.data**2).sum())
    assert M == pytest.approx(mass, rel=1e-12)
    assert E - P == pytest.approx(-1.0 * mass, rel=1e-12)


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


@pytest.mark.parametrize("N", [2, 3])
@pytest.mark.parametrize("p", [5.97, 5.99, 5.999])
def test_proof_chain_near_p_6(p, N):
    # q = (3p - 2)/(6 - p) is 530 at p = 5.97 and 16,000 at p = 5.999: v^(q+1) stays finite only with v scaled first
    grid = LineGrid(15.0, 599)
    at_star = proof_chain(extremal_field(grid, N, 6, 1.0, p), 1.0, p)
    slacks = [at_star.slack_lt, at_star.slack_schwarz, at_star.slack_hoelder2p, at_star.slack_poincare,
              at_star.slack_hoelder]
    assert max(abs(s) for s in slacks) <= 1e-6
    assert at_star.D == pytest.approx(1.0, abs=1e-6)
    rng = np.random.default_rng(23)
    for _ in range(10):
        rep = proof_chain(fuzz_field(grid, N, 6, rng), 1.0, p)
        slacks = [rep.slack_lt, rep.slack_schwarz, rep.slack_hoelder2p, rep.slack_poincare, rep.slack_hoelder]
        assert all(math.isfinite(s) and s >= -1e-8 for s in slacks + [rep.D])


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


def _closed_mode(ell, Lambda, p, N):
    """The degree-ell second-variation eigenvalue in closed form, Lambda + ell(ell + N - 2) - p^2 Lambda/4:
    the sech^2 well's ground state (Poschl-Teller), the oracle of the grid solve."""
    return Lambda + ell * (ell + N - 2) - p * p * Lambda / 4.0


def test_second_variation_grid_matches_closed():
    for lam in (1.0, 1.6, 3.0):
        grid_val = second_variation_mode(1, lam, 3.0, 3)
        assert grid_val == pytest.approx(_closed_mode(1, lam, 3.0, 3), abs=1e-3)


def test_second_variation_grid_needs_no_amplitude():
    # near p = 2 the amplitude (p Lambda/2)^(1/(p-2)) of u_star leaves the float range; the
    # well's depth (p-1) p Lambda/2 does not, and the grid mode stays on the closed form
    p, lam = 2.01, 1500.0
    assert abs(second_variation_mode(1, lam, p, 3) - _closed_mode(1, lam, p, 3)) <= 1e-6 * p * p * lam / 4


def test_second_variation_positive_up_to_lambda_sym():
    for p in (2.5, 3.0, 4.0):
        for frac in (0.25, 0.6, 1.0):
            lam = frac * lambda_sym(p, 3)
            assert second_variation_mode(1, lam, p, 3) > 0


@pytest.mark.parametrize("p,N", [(3.0, 3), (3.0, 2)])
def test_fs_threshold_quick(p, N):
    expected = lambda_fs(p, N)
    measured = fs_threshold(p, N)
    assert measured == pytest.approx(expected, rel=5e-3)
    assert abs(measured - expected) <= 1e-3


@pytest.mark.parametrize("p,N", [(2.004, 3), (2.001, 2)])
def test_fs_threshold_near_p_2(p, N):
    # the bracket reaches Lambda ~ 500 to 1000, where the extremal amplitude overflows
    assert fs_threshold(p, N) == pytest.approx(lambda_fs(p, N), rel=1e-5)


def test_fs_threshold_solves_each_lambda_once(monkeypatch):
    # lambda_fs = 1.6: the modes at 1 and 2 bracket it, brentq evaluates both ends again and the memo
    # answers those, so the solves are those two and brentq's three inner points
    solve = cyl.lowest_eigenpair
    calls = []

    def counted(V):
        calls.append(V)
        return solve(V)

    monkeypatch.setattr(cyl, "lowest_eigenpair", counted)
    assert fs_threshold(3.0, 3) == pytest.approx(lambda_fs(3.0, 3), rel=5e-3)
    assert len(calls) == 5


def test_fs_threshold_rejects_supercritical():
    with pytest.raises(DomainError):
        fs_threshold(6.5, 3)


@pytest.mark.parametrize("ell", [1.5, math.inf, math.nan, 0, -1])
def test_second_variation_refuses_a_degree_that_is_not_a_positive_integer(ell):
    with pytest.raises(DomainError, match=f"ell={ell}"):
        second_variation_mode(ell, 1.0, 3.0, 3)


@pytest.mark.parametrize("ell", [1, 2, np.int64(3)])
def test_second_variation_accepts_integer_degrees(ell):
    assert second_variation_mode(ell, 1.0, 3.0, 3) == pytest.approx(_closed_mode(ell, 1.0, 3.0, 3), abs=1e-5)


def test_second_variation_takes_one_degree_of_the_zonal_spectrum():
    # ell(ell + N - 2) of the one degree asked for, not a table of all ell + 1 degrees up to it: the
    # degree adds under 0.01 s to the well's solve
    t0 = time.perf_counter()
    second_variation_mode(1, 1.0, 3.0, 3)
    t1 = time.perf_counter()
    assert second_variation_mode(10**8, 1.0, 3.0, 3) == 1.0000000099999998e16
    assert time.perf_counter() - t1 < (t1 - t0) + 0.01
    assert second_variation_mode(1e300, 1.0, 3.0, 3) == math.inf  # and no RuntimeWarning


@pytest.mark.parametrize("N", [1, 0, math.nan])
def test_second_variation_and_fs_threshold_refuse_dimensions_without_a_sphere(N):
    # ell(ell + N - 2) is the zonal spectrum of S^(N-1) only for N >= 2; at N = 1 the closed form
    # 4(N - 1)/(p^2 - 4) of the threshold is 0, which the grid root would miss
    with pytest.raises(DomainError, match="N >= 2"):
        second_variation_mode(1, 1.0, 3.0, N)
    with pytest.raises(DomainError, match="N >= 2"):
        fs_threshold(3.0, N)


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


@pytest.mark.parametrize("array, value", [("w", math.nan), ("w", math.inf), ("s", math.nan)],
                         ids=["nan-in-w", "inf-in-w", "nan-in-s"])
def test_emden_fowler_refuses_non_finite_samples(array, value):
    # np.diff(s) <= 0 is False on NaN, so the monotonicity check alone would let NaN through
    s = np.linspace(-10.0, 10.0, 401)
    samples = {"s": s, "w": np.exp(-(s**2))}
    samples[array][200] = value
    with pytest.raises(NumericsError, match="finite"):
        emden_fowler_pushforward(samples["s"], samples["w"], ParamPoint(3, -0.5, 0.0))


@pytest.mark.parametrize("w", [0.0, 1e-200], ids=["zero", "underflowing"])
def test_emden_fowler_refuses_a_vanishing_profile(w):
    # 1e-200 is finite, but the p-th power and the square of its pushforward underflow to 0
    s = np.linspace(-10.0, 10.0, 401)
    with pytest.raises(NumericsError, match="vanishes"):
        emden_fowler_pushforward(s, np.full(s.size, w), ParamPoint(3, -0.5, 0.0))


# ---------------------------------------------------------------------------
# spectral-bound equivalence


def test_symmetric_mu_threshold_refuses_p_2_as_bad_input():
    # lambda_sym and gamma = (p + 2)/(2(p - 2)) have no value at p = 2: a DomainError naming p, not a ZeroDivisionError
    with pytest.raises(DomainError, match=r"p=2\.0"):
        symmetric_mu_threshold(2.0, 3)


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
    mu = 2.0 * symmetric_mu_threshold(3.0, 3)  # linear law at 2 lambda_sym, past lambda_fs
    assert radial_interp_coefficient(1.0, 3.0) ** 1.2 * mu > lambda_fs(3.0, 3)
    eigenvalue_bound(mu, 3.0, 3, grid=LineGrid(18.0, 699), L_max=5)
    assert len(solved) >= 3  # the linear law and at least two Newton iterates
    assert len(solved) == len(set(solved))


@pytest.mark.parametrize("call, n", [
    (lambda: sandwich_check(0.9, 0.9 * sandwich_lambda_bound(0.9, 3.0, 3), 3.0, 3, grid=LineGrid(18.0, 599), L_max=4),
     599),
    (lambda: eigenvalue_bound(2.0 * symmetric_mu_threshold(3.0, 3), 3.0, 3, grid=LineGrid(18.0, 699), L_max=5), 699),
], ids=["sandwich", "bound"])
def test_callers_read_the_flow_pieces_and_transform_no_full_field(monkeypatch, call, n):
    # the flow forms E, M and P on its half field and keeps them there, and each caller reads them after
    # its solves: no DST-I and no nodal stage on the n rows of the mirrored minimizer, in the solves or after
    events = []
    real_dst, real_stage = cyl.dst, cyl._nodal_stage
    monkeypatch.setattr(cyl, "dst", lambda x, type: events.append(("dst", type, len(x))) or real_dst(x, type))
    monkeypatch.setattr(cyl, "_nodal_stage", lambda u, p: events.append(("stage", len(u.data))) or real_stage(u, p))
    call()
    assert ("stage", (n + 1) // 2) in events  # the recorder sees the flow's half rows
    assert ("stage", n) not in events and not [e for e in events if e[:2] == ("dst", 1)]


def _bound_calls(monkeypatch, lam_lin, p, N):
    """(Lambda, multistart, start, report) of every minimize_quotient call
    made by eigenvalue_bound at (p, N) whose linear law is lam_lin."""
    calls = []
    real = cyl.minimize_quotient

    def recording(start, Lambda, p, theta, opts=None):
        rep = real(start, Lambda, p, theta, opts)
        calls.append((Lambda, bool(opts and opts.multistart), start, rep))
        return rep

    monkeypatch.setattr(cyl, "minimize_quotient", recording)
    slope = radial_interp_coefficient(1.0, p) ** (2 * p / (p + 2))
    eigenvalue_bound(lam_lin / slope, p, N, grid=LineGrid(18.0, 699), L_max=5)
    monkeypatch.undo()
    return calls


# points past lambda_fs (1.6 at p = N = 3, 1.78 at p = 2.5, N = 2), and one in
# the strip lambda_sym = 1.5 < Lambda < lambda_fs at p = N = 3.  At the strip
# point the radial quotient equals the target at the linear law up to
# roundoff, so the inversion stops there, at a gap <= 0 or a roundoff-size
# Newton step, after one cold solve and no warm call
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
                                 MinimizeOpts(multistart=True))
        assert rep.quotient == pytest.approx(cold.quotient, rel=1e-8), lam


@pytest.mark.parametrize("lam_lin, p, N", _PAST_POINTS)
def test_eigenvalue_bound_matches_a_brent_inversion(lam_lin, p, N):
    # the oracle inverts the same relation with cold multistart quotients, by
    # scipy's brentq to rtol 1e-10 on the bracket [lam_lin, 1.6 lam_lin]
    optimize = pytest.importorskip("scipy.optimize")
    grid = LineGrid(18.0, 699)
    mu = lam_lin / radial_interp_coefficient(1.0, p) ** (2 * p / (p + 2))
    target = mu ** ((p + 2) / (2 * p))
    opts = MinimizeOpts(multistart=True)

    def gap(lam):
        return target - minimize_quotient(extremal_field(grid, N, 5, lam, p), lam, p, 1.0, opts).quotient

    root = optimize.brentq(gap, lam_lin, 1.6 * lam_lin, rtol=1e-10)
    assert eigenvalue_bound(mu, p, N, grid=grid, L_max=5) == pytest.approx(root, rel=1e-7)


@pytest.mark.parametrize("lam_lin, p, N", _PAST_POINTS)
def test_eigenvalue_bound_newton_iterates_rise(monkeypatch, lam_lin, p, N):
    # the quotient is concave in Lambda, so from the left of the root each
    # Newton step stays on its left: every step, the last unsolved one
    # included, is positive, and no step overshoots into a sign change
    calls = _bound_calls(monkeypatch, lam_lin, p, N)
    slope = radial_interp_coefficient(1.0, p) ** (2 * p / (p + 2))
    bound = eigenvalue_bound(lam_lin / slope, p, N, grid=LineGrid(18.0, 699), L_max=5)
    lams = [c[0] for c in calls]
    assert lams[0] == pytest.approx(lam_lin, rel=1e-15) and len(lams) <= 4
    assert all(step > 0 for step in np.diff([*lams, bound]))


@pytest.mark.parametrize("lam_lin, p, N", _PAST_POINTS)
def test_eigenvalue_bound_warm_starts_from_the_latest_broken_minimizer(monkeypatch, lam_lin, p, N):
    # the iterates rise, so the latest broken Lambda is also the nearest one
    latest, warm = None, 0
    for lam, multistart, start, rep in _bound_calls(monkeypatch, lam_lin, p, N):
        if not multistart:
            assert latest is not None and start is latest.minimizer, lam
            warm += 1
        if rep.broken:
            latest = rep
    assert warm


@pytest.mark.parametrize("Lambda", [1.2, 2.0, 3.0])
def test_quotient_slope_in_lambda_is_mass_over_power_norm(Lambda):
    # Danskin: the infimum Q(Lambda) of (E + Lambda M)/P^(2/p) has slope
    # M/P^(2/p) at its minimizer, radial at 1.2 and broken at 2 and 3
    grid, opts = LineGrid(18.0, 699), MinimizeOpts(multistart=True)

    def solve(lam):
        return minimize_quotient(extremal_field(grid, 3, 5, lam, 3.0), lam, 3.0, 1.0, opts)

    _, M, P, *_ = cyl._pieces(solve(Lambda).minimizer, 3.0)
    delta = 1e-4 * Lambda
    central = (solve(Lambda + delta).quotient - solve(Lambda - delta).quotient) / (2 * delta)
    assert M / P ** (2.0 / 3.0) == pytest.approx(central, rel=5e-6)


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
        # verify minimize has no default of its own: it reads DEFAULT_GRID when it runs
        "verify chain": parser.parse_args(["verify", "chain", "--p", "3", "--Lambda", "1"]).n,
    }
    assert {k: n for k, n in sizes.items() if not _five_smooth(n + 1)} == {}


def test_eigenvalue_bound_numeric_branch():
    # just past the threshold (here also past lambda_fs) the numeric
    # inversion runs; the broken minimizer lowers the quotient below the
    # radial one, so the bound lies at or above the linear law, and close to it
    slope = radial_interp_coefficient(1.0, 3.0) ** (6.0 / 5.0)
    mu = 1.1 * symmetric_mu_threshold(3.0, 3)
    lam = eigenvalue_bound(mu, 3.0, 3, grid=LineGrid(18.0, 699), L_max=5)
    assert slope * mu <= lam <= slope * mu * (1 + 5e-3)
    assert lam > lambda_sym(3.0, 3)


def test_symmetric_mu_threshold():
    thr = symmetric_mu_threshold(3.0, 3)
    slope = radial_interp_coefficient(1.0, 3.0) ** (6.0 / 5.0)
    assert thr == pytest.approx(lambda_sym(3.0, 3) / slope, rel=1e-14)
    assert thr > 0
    # linear in the symmetric threshold: N enters only through lambda_sym
    assert symmetric_mu_threshold(3.0, 2) / thr == pytest.approx(
        lambda_sym(3.0, 2) / lambda_sym(3.0, 3), rel=1e-14
    )


def test_paired_optimizer_symmetric_below_threshold():
    # below the mu threshold the optimizing field is s-only
    slope = radial_interp_coefficient(1.0, 3.0) ** (6.0 / 5.0)
    mu = 0.8 * symmetric_mu_threshold(3.0, 3)
    lam = slope * mu
    rep = minimize_quotient(perturbed_start(GRID, 3, 6, lam, 3.0), lam, 3.0)
    assert rep.angular_fraction < 1e-6


# ---------------------------------------------------------------------------
# theta < 1 sandwich


def test_sandwich_theta_09():
    lam = 0.9 * sandwich_lambda_bound(0.9, 3.0, 3)
    rep = sandwich_check(0.9, lam, 3.0, 3)
    assert rep.within and rep.converged
    # the flow reaches the radial closed form, so the two agree to roundoff, in either direction
    assert abs(rep.k_numeric / rep.k_lower - 1) <= 1e-12
    assert rep.k_numeric <= rep.k_upper
    assert rep.k_lower <= rep.k_upper  # gap >= 1
    assert rep.Lambda <= rep.d_value <= rep.gap * rep.Lambda * (1 + 1e-6)
    assert rep.holder_theta_slack >= -1e-10


def test_sandwich_theta_1_degenerate():
    rep = sandwich_check(1.0, 1.0, 3.0, 3)
    assert rep.within
    assert rep.k_upper == pytest.approx(rep.k_lower, rel=1e-14)
    assert rep.k_numeric == pytest.approx(rep.k_lower, rel=5e-3)
    # at theta = 1 the window's upper end is lambda_sym exactly (gap_factor is 1.0)
    for N in (2, 3, 4, 5):
        for p in np.linspace(2.0, 6.0, 4003)[1:-1]:
            assert sandwich_lambda_bound(1.0, p, N) == lambda_sym(p, N)


def test_sandwich_condition_violation():
    with pytest.raises(DomainError):
        sandwich_check(0.9, 10.0, 3.0, 3)
    with pytest.raises(DomainError):
        sandwich_check(0.9, 0.1, 3.0, 3)  # below a_c^2
    for theta, Lambda in [(0.9, math.nan), (math.nan, 1.0)]:
        with pytest.raises(DomainError):
            sandwich_check(theta, Lambda, 3.0, 3)


def test_sandwich_refuses_an_empty_window_before_the_solve(monkeypatch):
    # at N = 2, a_c^2 = 0 and sandwich_lambda_bound <= 0 for every theta up
    # to 3(p - 2)/(2p): the window is empty, whatever Lambda is given
    solves = count_calls(monkeypatch, "minimize_quotient")
    for p in (2.5, 3.0, 4.0):
        tmin, tmax = theta_min(p, 2), 3 * (p - 2) / (2 * p)
        for theta in np.linspace(tmin, tmax, 7)[1:]:
            assert sandwich_lambda_bound(theta, p, 2) <= 0.0
            for Lambda in (0.5, sandwich_lambda_bound(theta, p, 2)):
                with pytest.raises(DomainError, match="window .* is empty"):
                    sandwich_check(theta, Lambda, p, 2)
    assert solves[0] == 0


def test_sandwich_refuses_theta_min_before_the_solve(monkeypatch):
    # at theta = theta_min(p, 3) the window is empty ((2 theta - 3) p + 6 = 0, so gamma_theta = 1
    # and q = inf): refused like every empty window, with or without a Lambda
    monkeypatch.setattr(cyl, "minimize_quotient", lambda *args, **kwargs: pytest.fail("the flow ran"))
    for p in (3.0, 4.0):
        theta = theta_min(p, 3)
        assert sandwich_lambda_bound(theta, p, 3) == pytest.approx(0.0, abs=1e-14)
        for Lambda in (1.0, 0.9 * sandwich_lambda_bound(theta, p, 3)):
            with pytest.raises(DomainError, match=f"window .* is empty at theta={theta}$"):
                sandwich_check(theta, Lambda, p, 3)


class _Solved(Exception):
    """Raised in place of the solve's start field: sandwich_check got past every refusal."""


def _no_solve(*args, **kwargs):
    raise _Solved


@settings(max_examples=300, deadline=None)
@given(N=st.sampled_from([2, 3]), p=st.floats(2.0, 6.0, exclude_min=True, exclude_max=True), t=st.floats(0.0, 1.0))
@example(N=3, p=3.0, t=0.0)
@example(N=3, p=4.0, t=0.0)
@example(N=2, p=3.0, t=0.0)
@example(N=3, p=2.0000000000000004, t=4.5141614079018464e-24)
def test_sandwich_window_is_the_only_theta_gate(N, p, t):
    # theta in [theta_min, 1], theta_min itself included: sandwich_check refuses before the
    # solve exactly when check_interp fails or the window (a_c^2, bound] is empty
    theta = min(1.0, theta_min(p, N) + t * (1.0 - theta_min(p, N)))
    try:
        check_interp(theta, p)
    except DomainError:
        bound, empty = 1.0, True
    else:
        bound = sandwich_lambda_bound(theta, p, N)
        empty = not bound > a_critical(N) ** 2
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cyl, "extremal_field", _no_solve)
        with pytest.raises((DomainError, _Solved)) as info:
            sandwich_check(theta, bound, p, N)
    refused = info.errisinstance(DomainError)
    if refused and not empty:
        # a non-empty window and gamma_theta > 1 are one sign, of (2 theta - 3) p + 6, rounded two
        # ways; within roundoff of the window's edge (N = 2 near theta = 3(p - 2)/(2p), or p
        # within ulps of 2) the window rounds to non-empty and chain_exponents refuses
        with pytest.raises(DomainError, match="chain exponents undefined"):
            chain_exponents(p, theta)
    else:
        assert refused == empty
    if not refused:
        assert math.isfinite(chain_exponents(p, theta)[1])


# ---------------------------------------------------------------------------
# refusals

_SMALL = LineGrid(10.0, 99)
_S_NODES = np.linspace(-5.0, 5.0, 32)
_P_NEAR_2 = 2.0 + 1e-12  # theta_min = 7.5e-13, below the window's 1e-12 slack


def _scored():
    """A field the scoring functions accept at (Lambda, p) = (1, 3)."""
    return extremal_field(LineGrid(20.0, 399), 3, 4, 1.0, 3.0)


def _score_even_trial(u):
    """rayleigh of a line-search trial of the flow built from u: its rows s <= 0, the bad sample
    last, with finite sine modes.  An infinite sample meets angular weights of both signs in the
    nodal stage, inf - inf: that warning is silenced, as the CLI silences it; the refusal is tested."""
    with np.errstate(invalid="ignore"):
        return rayleigh(cyl._Even(u.grid, u.N, u.data[:300].copy(), np.ones((300, u.L_max + 1))), 1.0, 3.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("entry", [
    lambda u: minimize_quotient(u, 3.0, 3.0),
    lambda u: rayleigh(u, 1.0, 3.0),
    lambda u: el_residual(u, 1.0, 3.0),
    lambda u: proof_chain(u, 1.0, 3.0),
    lambda u: poincare_deficit(ZonalField(3, u.data[298:301, 0]), 2.0),
    lambda u: grad_energy(ZonalField(3, u.data[298:301, 0])),
    lambda u: _score_even_trial(u),
], ids=["minimize", "rayleigh", "el-residual", "chain", "poincare", "grad-energy", "even-trial"])
def test_a_non_finite_sample_is_refused_where_the_field_is_scored(entry, bad):
    # NaN is never evidence: a field with a non-finite sample is refused, not scored, and
    # the refusal names non-finite samples, not a vanishing field
    u = extremal_field(LineGrid(20.0, 599), 3, 4, 1.0, 3.0)
    u.data[299, 0] = bad  # the sample at s = 0
    with pytest.raises(DomainError, match="finite"):
        entry(u)


@pytest.mark.parametrize("entry", [
    lambda u: minimize_quotient(u, 3.0, 3.0),
    lambda u: rayleigh(u, 1.0, 3.0),
    lambda u: el_residual(u, 1.0, 3.0),
    lambda u: proof_chain(u, 1.0, 3.0),
], ids=["minimize", "rayleigh", "el-residual", "chain"])
def test_a_finite_sample_whose_square_overflows_is_refused_before_any_transform(monkeypatch, entry):
    # 1e200 is finite but its square is not: the field is refused by the same check as a non-finite one,
    # before any DST and with no overflow warning on the way
    u = extremal_field(LineGrid(20.0, 599), 3, 4, 1.0, 3.0)
    u.data[299, 0] = 1e200  # the sample at s = 0
    monkeypatch.setattr(cyl, "dst", lambda *args: pytest.fail("a transform ran before the refusal"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="finite"):
            entry(u)


@pytest.mark.parametrize("call, exc, fragment", [
    (lambda: minimize_quotient(CylField(_SMALL, 3, np.zeros((99, 3))), 1.0, 3.0), DomainError, "zero field"),
    *[(lambda ell=ell: second_variation_mode(ell, 1.0, 3.0, 3), DomainError, "zonal degree ell >= 1")
      for ell in (10**400, 10**5000, -10**5000)],
    *[(lambda mu=mu: eigenvalue_bound(mu, 3.0, 3), DomainError, "need finite mu > 0")
      for mu in (0.0, -1.0, math.inf, math.nan)],
    (lambda: emden_fowler_pushforward(np.sort(np.append(_S_NODES, _S_NODES[4])), np.zeros(33),
                                      ParamPoint(3, -0.5, 0.0)), NumericsError, "strictly increasing"),
    (lambda: Potential1D(_SMALL, np.zeros(98)), DomainError, "expected 99 samples"),
    (lambda: sphere_quadrature(2, 1), DomainError, "need m >= 2 nodes"),
    (lambda: sphere_quadrature(3, 0), DomainError, "need m >= 1 nodes"),
    (lambda: ZonalField(3, []), DomainError, "non-empty"),
    (lambda: basis_matrix(sphere_quadrature(3, 4), -1), DomainError, "need L_max >= 0"),
    (lambda: extremal_field(_SMALL, 3, -1, 1.0, 3.0), DomainError, "need L_max >= 0 and at most 128"),
    (lambda: extremal_field(_SMALL, 3, 129, 1.0, 3.0), DomainError, "got L_max 129"),
    # with no degree-1 mode no evidence about symmetry exists: no linear law, no within
    (lambda: eigenvalue_bound(2 * symmetric_mu_threshold(3.0, 3), 3.0, 3, grid=LineGrid(20.0, 599), L_max=0),
     DomainError, "need L_max >= 1"),
    (lambda: sandwich_check(0.9, 0.9 * sandwich_lambda_bound(0.9, 3.0, 3), 3.0, 3, L_max=0),
     DomainError, "need L_max >= 1"),
    (lambda: euclidean_radial_extremal(-1.0, ParamPoint(3, -0.5, 0.0)), DomainError, "x_norm must be >= 0"),
    (lambda: lt_ratio(Potential1D(_SMALL, np.zeros(99)), 2.5,
                      lowest_eigenpair(sech_squared_potential(_SMALL, 6.0, 1.0))), DomainError, "identically zero"),
    (lambda: CylinderPoint(3, _P_NEAR_2, 1.0, 0.0), DomainError, "theta=0.0 outside"),
    (lambda: minimize_quotient(extremal_field(_SMALL, 3, 2, 1.0, 3.0), 1.0, _P_NEAR_2, 0.0),
     DomainError, "theta=0.0 outside"),
    *[(lambda args=args: el_residual(_scored(), *args), DomainError, fragment) for args, fragment in (
        ((-1.0, 3.0), "need finite Lambda > 0"), ((math.nan, 3.0), "need finite Lambda > 0"),
        ((1.0, 1.5), "need finite p > 2"), ((1.0, 3.0, 2.0), "need 0 < theta <= 1"),
        ((1.0, 3.0, -0.5), "need 0 < theta <= 1"))],
    (lambda: eigenvalue_bound(0.1, 5.0, 4), DomainError, "p=5.0 supercritical for N=4"),
    (lambda: symmetric_mu_threshold(3.0, 7), DomainError, "p=3.0 supercritical for N=7"),
    *[(lambda lam=lam: proof_chain(_scored(), lam, 3.0), DomainError, "need finite Lambda > 0")
      for lam in (math.nan, -1.0, math.inf)],
], ids=["zero-start", "ell-1e400", "ell-1e5000", "ell-minus-1e5000", "mu-0", "mu-neg", "mu-inf",
        "mu-nan", "repeated-s", "potential-samples", "circle-m", "sphere-m", "empty-zonal", "basis-L",
        "field-L-neg", "field-L-cap", "bound-L-0", "sandwich-L-0",
        "negative-radius", "zero-well", "theta-0-point", "theta-0-flow", "el-Lambda-neg", "el-Lambda-nan", "el-p",
        "el-theta-2", "el-theta-neg", "bound-supercritical", "mu-threshold-supercritical",
        "chain-Lambda-nan", "chain-Lambda-neg", "chain-Lambda-inf"])
def test_each_refusal_raises_its_error(call, exc, fragment):
    with pytest.raises(exc, match=re.escape(fragment)):
        call()
