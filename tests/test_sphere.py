"""Zonal sphere calculus: quadrature exactness, sharp-inequality deficits."""

import math

import numpy as np
import pytest

from cknsharp import (
    DomainError,
    ZonalField,
    grad_energy,
    poincare_deficit,
    sphere_quadrature,
)
from cknsharp.sphere import (
    basis_matrix,
    default_quadrature,
    field_from_nodal,
    nodal_values,
)


def test_basis_matrix_matches_scipy_legendre_on_the_default_quadratures():
    from scipy.special import eval_legendre as scipy_eval_legendre

    for L_max in range(17):
        quad = default_quadrature(3, L_max)
        ell = np.arange(L_max + 1)
        ref = np.sqrt(2 * ell + 1.0) * scipy_eval_legendre(ell, quad.nodes[:, None])
        np.testing.assert_allclose(basis_matrix(quad, L_max), ref, rtol=0, atol=1e-13)


@pytest.mark.parametrize("N", [2, 3])
def test_quadrature_weights_and_orthonormality(N):
    quad = sphere_quadrature(N, 48)
    assert abs(quad.weights.sum() - 1.0) < 1e-14
    B = basis_matrix(quad, 12)
    gram = B.T @ (quad.weights[:, None] * B)
    np.testing.assert_allclose(gram, np.eye(13), atol=1e-12)


@pytest.mark.parametrize("m", [2, 3, 16, 17, 40, 41])
def test_folded_circle_rule_equals_the_full_uniform_rule(m):
    quad = sphere_quadrature(2, m)
    assert quad.nodes.size == m // 2 + 1
    assert abs(quad.weights.sum() - 1.0) < 1e-15
    # the m-point uniform rule, weight 1/m; node k reflected onto [0, pi] (an
    # even function takes the same value there), so that nodes k and m - k
    # carry bit-identical values, as they do mathematically
    k = np.arange(m)
    phi = 2.0 * math.pi * np.minimum(k, m - k) / m

    def check(f, scale=1.0, exact=None):
        full = float(f(phi).sum() / m)
        folded = float(quad.weights @ f(quad.nodes))
        assert abs(folded - full) <= 1e-14 * max(abs(full), scale)
        if exact is not None:
            assert abs(folded - exact) <= 1e-14

    rng = np.random.default_rng(m)
    for _ in range(5):
        c = rng.standard_normal(m)

        def series(x):
            return np.cos(np.outer(x, np.arange(m))) @ c

        check(series, np.abs(c).sum())  # the integral c_0 may be far below the terms
        q = rng.uniform(1.0, 10.0)
        check(lambda x: np.abs(series(x)) ** (q + 1))
    for j in range(m):  # exact: the mean of cos(j phi) cos(l phi) is [j = l] (1 + [j = 0]) / 2
        for ell in range(m - j):
            check(lambda x: np.cos(j * x) * np.cos(ell * x), exact=(j == ell) * (1 + (j == 0)) / 2)


@pytest.mark.parametrize("N", [2, 3])
def test_nodal_round_trip(N):
    rng = np.random.default_rng(3)
    quad = default_quadrature(N, 8)
    v = ZonalField(N, rng.standard_normal(9))
    back = field_from_nodal(nodal_values(v, quad), quad, 8, N)
    np.testing.assert_allclose(back.coeffs, v.coeffs, atol=1e-12)


def test_grad_energy_values():
    assert grad_energy(ZonalField(3, np.array([2.0]))) == 0.0
    assert grad_energy(ZonalField(3, np.array([0.0, 1.0]))) == pytest.approx(2.0, abs=1e-15)
    assert grad_energy(ZonalField(2, np.array([0.0, 1.0]))) == pytest.approx(1.0, abs=1e-15)


def test_grad_energy_additivity():
    rng = np.random.default_rng(5)
    c = rng.standard_normal(7)
    v = ZonalField(3, c)
    ell = np.arange(7)
    assert grad_energy(v) == pytest.approx(float(np.sum(ell * (ell + 1) * c**2)), rel=1e-14)


def test_poincare_deficit_constant_field():
    for N in (2, 3):
        for q in (1.5, 3.0, 9.0):
            v = ZonalField(N, np.array([1.7, 0.0, 0.0]))
            assert abs(poincare_deficit(v, q)) < 1e-13


def test_poincare_deficit_small_perturbation():
    # second order cancels at the sharp constant; remainder is quartic here
    v = ZonalField(3, np.array([1.0, 0.01]))
    d = poincare_deficit(v, 3.0)
    assert 0.0 <= d <= 1e-5
    assert d <= 10.0 * 0.01**3


@pytest.mark.parametrize("N,q", [(2, 1.5), (2, 2.0), (2, 3.0), (2, 10.0), (3, 1.5), (3, 2.0), (3, 3.0), (3, 10.0)])
def test_poincare_deficit_random_fields(N, q):
    rng = np.random.default_rng(17)
    quad = default_quadrature(N, 8)
    for _ in range(200):
        v = ZonalField(N, rng.standard_normal(9))
        assert poincare_deficit(v, q, quad) >= -1e-10


@pytest.mark.parametrize("N", [2, 3])
@pytest.mark.parametrize("q", [1.5, 3.0])
def test_near_constant_sharpness_slope(N, q):
    quad = default_quadrature(N, 4)
    eps = np.logspace(-3, -1, 9)
    deficits = []
    for e in eps:
        v = ZonalField(N, np.array([1.0, e, 0.0, 0.0, 0.0]))
        deficits.append(poincare_deficit(v, q, quad))
    slope = np.polyfit(np.log(eps), np.log(deficits), 1)[0]
    assert slope >= 2.9


def test_poincare_domain_errors():
    v = ZonalField(3, np.array([1.0, 0.1]))
    with pytest.raises(DomainError):
        poincare_deficit(v, 1.0)
    with pytest.raises(DomainError):
        poincare_deficit(v, 11.0)  # above the numerical cap
    assert math.isfinite(poincare_deficit(v, 10.0))  # the cap itself is allowed
    for q in (math.nan, math.inf, -math.inf):
        with pytest.raises(DomainError):
            poincare_deficit(v, q)

