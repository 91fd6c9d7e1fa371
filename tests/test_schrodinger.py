"""Ground-state solver against the sech^2 closed forms."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cknsharp import (
    DomainError,
    LineGrid,
    Potential1D,
    lowest_eigenpair,
    lt_equality_potential,
    lt_ground_state,
    lt_ratio,
    poschl_teller_ground,
    profile_constants,
    sech_squared_potential,
)

GRID = LineGrid(20.0, 4000)


def random_bump_potential(grid, rng, n_bumps=3, amp=2.0):
    """Smooth non-negative potential supported well inside the grid."""
    s = grid.nodes()
    v = np.zeros(grid.n)
    for _ in range(n_bumps):
        c = rng.uniform(-0.4 * grid.S, 0.4 * grid.S)
        w = rng.uniform(0.5, 2.0)
        v += rng.uniform(0.1, amp) * np.exp(-((s - c) ** 2) / (2 * w * w))
    return Potential1D(grid, v)


def test_free_operator_has_no_bound_state():
    res = lowest_eigenpair(Potential1D(GRID, np.zeros(GRID.n)))
    assert res.no_bound_state
    assert res.lambda1 == 0.0


@pytest.mark.parametrize("gamma", [1.5, 2.5, 4.0])
def test_equality_well_ground_state(gamma):
    res = lowest_eigenpair(lt_equality_potential(GRID, gamma))
    expected = (gamma - 0.5) ** 2
    assert res.lambda1 == pytest.approx(expected, rel=2e-4)
    assert not res.no_bound_state
    assert np.all(res.eigenfunction > -1e-12)  # ground state is positive


def test_eigenfunction_matches_closed_form():
    gamma = 2.5
    res = lowest_eigenpair(lt_equality_potential(GRID, gamma))
    psi = lt_ground_state(GRID.nodes(), gamma)
    assert np.abs(res.eigenfunction - psi).max() < 1e-3


def test_extremal_potential_binds_at_lambda():
    # the optimizing well of the cylinder problem at (Lambda=1, p=3)
    pc = profile_constants(1.0, 3.0, 1.0)
    V = sech_squared_potential(GRID, pc.A, pc.B)  # A^(p-2) = A at p = 3
    res = lowest_eigenpair(V)
    assert res.lambda1 == pytest.approx(1.0, rel=2e-4)
    # eigenfunction is proportional to the extremal profile
    prof = pc.A * np.cosh(pc.B * GRID.nodes()) ** (-2.0)
    prof /= np.sqrt(GRID.h * float(prof @ prof))
    assert np.abs(res.eigenfunction - prof).max() < 1e-3


def test_poschl_teller_spot_values():
    assert poschl_teller_ground(6.0, 1.0) == pytest.approx(4.0, rel=1e-14)
    assert poschl_teller_ground(1.5, 0.5) == pytest.approx(1.0, rel=1e-14)
    assert poschl_teller_ground(2.0, 1.0) == pytest.approx(1.0, rel=1e-14)


@pytest.mark.parametrize("gamma", [1.5, 2.5, 4.0])
def test_lt_ratio_equality_case(gamma):
    assert lt_ratio(lt_equality_potential(GRID, gamma), gamma) == pytest.approx(1.0, abs=2e-3)


def test_lt_ratio_off_optimizer_and_zero():
    grid = GRID
    v0 = lt_equality_potential(grid, 2.5)
    doubled = Potential1D(grid, 2.0 * v0.values)
    assert lt_ratio(doubled, 2.5) < 1.0
    assert lt_ratio(Potential1D(grid, np.zeros(grid.n)), 2.5) == 0.0


@pytest.mark.parametrize("gamma", [1.5, 2.5, 4.0])
def test_lt_ratio_bounded_on_random_potentials(gamma):
    rng = np.random.default_rng(11)
    bound = 1.0 + 5 * GRID.h**2
    for _ in range(25):
        V = random_bump_potential(GRID, rng)
        assert lt_ratio(V, gamma) <= bound


@settings(max_examples=40, deadline=None)
@given(
    gamma=st.floats(1.5, 4.0),
    bumps=st.lists(st.tuples(st.floats(-0.4, 0.4), st.floats(0.5, 2.0), st.floats(0.0, 2.0)), min_size=1, max_size=3),
)
def test_lt_ratio_at_most_one_plus_5h2_on_bump_wells(gamma, bumps):
    # the bound the benchmark oracle applies, on its grid
    grid = LineGrid(20.0, 8000)
    s = grid.nodes()
    V = Potential1D(grid, sum(amp * np.exp(-((s - c * grid.S) ** 2) / (2 * w * w)) for c, w, amp in bumps))
    assert 0.0 <= lt_ratio(V, gamma) <= 1.0 + 5 * grid.h**2


def test_lt_ratio_translation_invariance():
    a = lt_ratio(sech_squared_potential(GRID, 6.0, 1.0, center=0.0), 2.5)
    b = lt_ratio(sech_squared_potential(GRID, 6.0, 1.0, center=3.0), 2.5)
    assert a == pytest.approx(b, abs=1e-6)


@pytest.mark.parametrize("sigma", [0.5, 2.0])
def test_scaling_covariance(sigma):
    # V_sigma(s) = sigma^2 V(sigma s) has lambda1 scaled by sigma^2
    base = lowest_eigenpair(sech_squared_potential(GRID, 6.0, 1.0)).lambda1
    scaled = lowest_eigenpair(sech_squared_potential(GRID, 6.0 * sigma**2, sigma)).lambda1
    assert scaled == pytest.approx(sigma**2 * base, rel=5e-4)


def test_grid_convergence_is_second_order():
    lams = []
    n = 500
    for _ in range(3):
        grid = LineGrid(20.0, n)
        lams.append(lowest_eigenpair(lt_equality_potential(grid, 2.5)).lambda1)
        n = 2 * n + 1  # halves h exactly
    d1 = abs(lams[0] - lams[1])
    d2 = abs(lams[1] - lams[2])
    assert d1 / d2 == pytest.approx(4.0, rel=0.25)


def test_validation_errors():
    with pytest.raises(DomainError):
        LineGrid(-1.0, 100)
    with pytest.raises(DomainError):
        LineGrid(10.0, 8)
    with pytest.raises(DomainError):
        Potential1D(GRID, -np.ones(GRID.n))
    with pytest.raises(DomainError):
        lt_ratio(lt_equality_potential(GRID, 2.5), 0.4)
    for gamma in (0.5, math.nan, math.inf):
        with pytest.raises(DomainError):
            lt_equality_potential(GRID, gamma)
    for S in (math.nan, math.inf):
        with pytest.raises(DomainError):
            LineGrid(S, 100)
    for bad in (math.nan, math.inf):
        with pytest.raises(DomainError):
            Potential1D(GRID, np.full(GRID.n, bad))
        with pytest.raises(DomainError):
            poschl_teller_ground(bad, 1.0)
        with pytest.raises(DomainError):
            poschl_teller_ground(1.0, bad)
