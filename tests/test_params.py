"""Parameter algebra: curve identities, classification, round trips."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cknsharp import (
    DomainError,
    NotAchievedError,
    ParamPoint,
    Region,
    a_critical,
    b_fs,
    b_sym,
    chain_exponents,
    classify,
    from_cylinder,
    lambda_fs,
    lambda_sym,
    region_map,
    theta_min,
    to_cylinder,
)
from cknsharp.params import CylinderPoint, region_map_csv, region_map_json


def p_of(N, a, b):
    return 2.0 * N / (N - 2 + 2 * (b - a))


def test_a_critical_values():
    assert a_critical(3) == 0.5
    assert a_critical(2) == 0.0
    assert a_critical(10) == 4.0
    with pytest.raises(DomainError):
        a_critical(1)


def test_to_cylinder_spot_values():
    cp = to_cylinder(ParamPoint(3, -0.5, 0.0))
    assert cp.p == pytest.approx(3.0, abs=1e-15)
    assert cp.Lambda == pytest.approx(1.0, abs=1e-15)

    cp = to_cylinder(ParamPoint(3, 0.0, 0.0))
    assert cp.p == pytest.approx(6.0, abs=1e-15)
    assert cp.Lambda == pytest.approx(0.25, abs=1e-15)

    # N=2 point with Lambda = 1: b = a + N/p - a_c forces b = -0.5 at p = 4
    cp = to_cylinder(ParamPoint(2, -1.0, -0.5))
    assert cp.p == pytest.approx(4.0, abs=1e-15)
    assert cp.Lambda == pytest.approx(1.0, abs=1e-15)


def test_to_cylinder_errors():
    with pytest.raises(NotAchievedError):
        to_cylinder(ParamPoint(3, -1.0, 0.0))  # b = a + 1
    with pytest.raises(DomainError):
        ParamPoint(3, 0.0, 0.5001 + 1.0)  # b > a + 1
    with pytest.raises(DomainError):
        ParamPoint(2, -1.0, -1.0)  # N = 2 needs a < b
    with pytest.raises(DomainError):
        ParamPoint(3, 0.5, 0.7)  # a = a_c


def test_round_trip_from_cylinder():
    for N in (2, 3, 4):
        for a in (-3.0, -1.0, -0.25):
            for db in (0.2, 0.5, 0.9):
                pt = ParamPoint(N, a, a + db)
                back = from_cylinder(to_cylinder(pt))
                assert back.a == pytest.approx(pt.a, abs=1e-12)
                assert back.b == pytest.approx(pt.b, abs=1e-12)
    # and in the other direction
    cp = CylinderPoint(3, 2.6, 1.7)
    cp2 = to_cylinder(from_cylinder(cp))
    assert cp2.p == pytest.approx(cp.p, rel=1e-14)
    assert cp2.Lambda == pytest.approx(cp.Lambda, rel=1e-14)


@settings(max_examples=200, deadline=None)
@given(N=st.integers(2, 8), a_off=st.floats(0.01, 10.0), frac=st.floats(0.01, 0.99))
def test_round_trip_property(N, a_off, frac):
    pt = ParamPoint(N, a_critical(N) - a_off, a_critical(N) - a_off + frac)
    back = from_cylinder(to_cylinder(pt))
    assert back.a == pytest.approx(pt.a, abs=1e-12)
    assert back.b == pytest.approx(pt.b, abs=1e-12)


@settings(max_examples=200, deadline=None)
@given(N=st.integers(2, 8), frac=st.floats(0.001, 1.0), Lambda=st.floats(1e-3, 1e3))
@example(N=4, frac=1.0, Lambda=0.984375)  # critical p: b - a rounded to -1.1e-16
def test_round_trip_property_from_cylinder(N, frac, Lambda):
    # p swept over (2, 2N/(N-2)] (up to 12 for N = 2), where theta = 1 is admissible
    p = 2 + frac * (4 / (N - 2) if N > 2 else 10.0)
    cp = CylinderPoint(N, p, Lambda)
    back = to_cylinder(from_cylinder(cp))
    assert back.p == pytest.approx(cp.p, rel=1e-12)
    assert back.Lambda == pytest.approx(cp.Lambda, rel=1e-12)


@settings(max_examples=500, deadline=None)
@given(N=st.integers(-3, 8), a=st.floats(), b=st.floats())
@example(N=3, a=-math.inf, b=-math.inf)
def test_classify_never_raises(N, a, b):
    # NaN and +-inf included: a non-finite point or N < 2 is not admissible
    region = classify(N, a, b)
    assert isinstance(region, Region)
    if N < 2 or not (math.isfinite(a) and math.isfinite(b)):
        assert region is Region.NON_ADMISSIBLE


@settings(max_examples=300, deadline=None)
@given(p=st.floats(2.0, 6.0, exclude_min=True, exclude_max=True), N=st.integers(2, 8))
@example(p=2.00000001, N=3)  # p * p - 4 cancels here
def test_threshold_ratio_property(p, N):
    assert lambda_sym(p, N) / lambda_fs(p, N) == pytest.approx((6 - p) * (p + 2) / 16, rel=1e-12)


def test_b_fs_starts_at_origin():
    assert b_fs(0.0, 3) == pytest.approx(0.0, abs=1e-15)


@pytest.mark.parametrize("N", [2, 3, 4, 5, 6])
def test_b_difference_at_zero(N):
    # b_sym(0) - b_fs(0) = 1/(1 + N(N-1))
    assert b_sym(0.0, N) - b_fs(0.0, N) == pytest.approx(1.0 / (1 + N * (N - 1)), abs=1e-12)


@pytest.mark.parametrize("N", [2, 3, 4, 5, 6])
def test_b_sym_at_minus_half(N):
    assert b_sym(-0.5, N) == pytest.approx(-0.5 * (N - 2) / (N + 2), abs=1e-12)


def test_b_sym_spot_values():
    assert b_sym(-0.5, 2) == pytest.approx(0.0, abs=1e-15)
    assert b_sym(0.0, 3) == pytest.approx(1.0 / 7.0, abs=1e-15)


@pytest.mark.parametrize("N", [2, 3, 4, 5, 6])
def test_curve_lambda_round_trips(N):
    # plugging each curve into p(a, b) must reproduce its Lambda threshold
    ac = a_critical(N)
    for a in np.linspace(-10.0, ac - 0.05, 40):
        lam = (ac - a) ** 2
        p1 = p_of(N, a, b_fs(a, N))
        assert lambda_fs(p1, N) == pytest.approx(lam, rel=1e-12)
        p2 = p_of(N, a, b_sym(a, N))
        assert lambda_sym(p2, N) == pytest.approx(lam, rel=1e-12)


@pytest.mark.parametrize("N", [2, 3, 4, 5, 6])
def test_b_difference_closed_form_and_monotonicity(N):
    ac = a_critical(N)
    grid = np.linspace(-10.0, 0.0, 201)
    diffs = []
    for a in grid:
        d = ac - a
        closed = 0.5 * N * (
            1 - d / math.sqrt(d * d + N - 1) - 2 * (N - 1) / (4 * d * d + 3 * (N - 1))
        )
        got = b_sym(a, N) - b_fs(a, N)
        assert got == pytest.approx(closed, abs=1e-12)
        diffs.append(got)
    diffs = np.asarray(diffs)
    assert np.all(np.diff(diffs) > 0)  # increasing on a <= 0
    assert np.all(diffs >= 0)
    assert np.all(diffs <= 1.0 / (1 + N * (N - 1)) + 1e-15)


def test_curve_domain_errors():
    with pytest.raises(DomainError):
        b_fs(1.0, 3)
    with pytest.raises(DomainError):
        b_sym(1.0, 3)


def test_lambda_thresholds():
    assert lambda_fs(3.0, 3) == pytest.approx(1.6, abs=1e-15)
    assert lambda_sym(3.0, 3) == pytest.approx(1.5, abs=1e-15)
    # ratio identity (6-p)(p+2)/16
    for p in (2.5, 3.0, 4.0, 5.5):
        assert lambda_sym(p, 3) / lambda_fs(p, 3) == pytest.approx((6 - p) * (p + 2) / 16, rel=1e-12)
    assert lambda_sym(3.0, 3) / lambda_fs(3.0, 3) == pytest.approx(0.9375, abs=1e-15)
    # ratio tends to 1 as p -> 2+
    p = 2.0 + 1e-9
    assert lambda_sym(p, 3) / lambda_fs(p, 3) == pytest.approx(1.0, abs=1e-8)
    with pytest.raises(DomainError):
        lambda_fs(2.0, 3)
    with pytest.raises(DomainError):
        lambda_sym(6.0, 3)


def test_theta_min():
    assert theta_min(3.0, 3) == pytest.approx(0.5, abs=1e-15)
    assert theta_min(6.0, 3) == pytest.approx(1.0, abs=1e-15)  # critical exponent
    assert theta_min(4.0, 2) == pytest.approx(0.5, abs=1e-15)
    with pytest.raises(DomainError):
        theta_min(2.0, 3)


def test_chain_exponents():
    gamma, q = chain_exponents(3.0, 1.0)
    assert gamma == pytest.approx(2.5, abs=1e-15)
    assert q == pytest.approx(7.0 / 3.0, abs=1e-15)
    assert q + 1 == pytest.approx(2 * (3.0 + 2) / (6 - 3.0), abs=1e-14)
    # theta < 1 spot: (p=3, theta=2/3) gives gamma = 1.5, q = 5
    gamma, q = chain_exponents(3.0, 2.0 / 3.0)
    assert gamma == pytest.approx(1.5, abs=1e-14)
    assert q == pytest.approx(5.0, abs=1e-12)
    # gamma <= 1 is out of domain (here gamma = 1 exactly)
    with pytest.raises(DomainError):
        chain_exponents(4.0, 0.75)


def test_classify_spot_points():
    assert classify(3, -0.5, 0.0) is Region.SYMMETRIC_PROVEN
    assert classify(3, 0.2, 0.5) is Region.SYMMETRIC_PROVEN
    # strictly below the instability curve
    assert -1.9 < b_fs(-2.0, 3)
    assert classify(3, -2.0, -1.9) is Region.SYMMETRY_BROKEN


def test_classify_boundaries():
    a = -1.0
    assert classify(3, a, a + 1) is Region.NOT_ACHIEVED
    assert classify(3, a, a) is Region.NOT_ACHIEVED
    assert classify(3, a, b_sym(a, 3)) is Region.SYMMETRIC_PROVEN  # boundary included
    assert classify(3, a, b_fs(a, 3)) is Region.UNKNOWN  # curve itself not "broken"
    mid = 0.5 * (b_fs(a, 3) + b_sym(a, 3))
    assert classify(3, a, mid) is Region.UNKNOWN
    assert classify(3, a, a - 0.1) is Region.NON_ADMISSIBLE
    assert classify(3, 0.5, 0.7) is Region.NON_ADMISSIBLE  # a = a_c
    assert classify(3, 1.0, 1.5) is Region.NON_ADMISSIBLE  # a > a_c not parametrized


def test_region_map_basic():
    records = region_map(3, (-1.0, 0.4), (-1.0, 1.0), (100, 100))
    assert len(records) == 10_000
    assert not any(r is Region.UNKNOWN for a, b, r in records if a >= 0)
    # single point grid degenerates to one classify call
    single = region_map(3, (-0.5, -0.5), (0.0, 0.0), (1, 1))
    assert single == [(-0.5, 0.0, classify(3, -0.5, 0.0))]
    # N = 2: every broken record has a < 0
    rec2 = region_map(2, (-1.5, 0.3), (-1.5, 1.2), (50, 50))
    assert all(a < 0 for a, b, r in rec2 if r is Region.SYMMETRY_BROKEN)
    with pytest.raises(DomainError):
        region_map(3, (0.0, -1.0), (0.0, 1.0), (10, 10))
    with pytest.raises(DomainError):
        region_map(3, (0.0, 1.0), (0.0, 1.0), (0, 0))
    # non-finite ends, and a finite span whose grid overflows, never reach the output
    for a_range, b_range in [((math.nan, 0.0), (0.0, 1.0)), ((-1.0, 0.0), (0.0, math.inf)),
                             ((-math.inf, 0.0), (0.0, 1.0)), ((0.0, 1e308), (0.0, 1.0))]:
        with pytest.raises(DomainError):
            region_map(3, a_range, b_range, (5, 5))
    with pytest.raises(DomainError):
        region_map(1, (0.0, 1.0), (0.0, 1.0), (3, 3))


def test_region_map_serialization():
    records = region_map(3, (-0.5, -0.5), (0.0, 0.0), (1, 1))
    csv_text = region_map_csv(records)
    assert csv_text.splitlines()[0] == "a,b,region"
    assert "SymmetricProven" in csv_text
    json_text = region_map_json(records)
    assert '"region": "SymmetricProven"' in json_text


def test_classify_grid_refinement_invariance():
    # pointwise rule: value at a shared point is identical across resolutions
    coarse = dict(((a, b), r) for a, b, r in region_map(3, (-1.0, 0.0), (-1.0, 1.0), (3, 3)))
    fine = dict(((a, b), r) for a, b, r in region_map(3, (-1.0, 0.0), (-1.0, 1.0), (5, 5)))
    for key, r in coarse.items():
        assert fine[key] is r


def test_cylinder_point_validation():
    with pytest.raises(DomainError):
        CylinderPoint(3, 7.0, 1.0)  # supercritical
    with pytest.raises(DomainError):
        CylinderPoint(3, 3.0, -1.0)
    CylinderPoint(2, 9.0, 1.0)  # any p > 2 for N = 2
    # NaN fails every check with the name of the bad parameter
    for args, name in [((3, math.nan, 1.0), "p=nan"), ((3, 3.0, math.nan), "Lambda=nan"),
                       ((3, 3.0, 1.0, math.nan), "theta=nan"), ((3, 3.0, math.inf), "Lambda=inf"),
                       ((3, 3.0, 1.0, 0.4), "theta=0.4")]:
        with pytest.raises(DomainError, match=name):
            CylinderPoint(*args)
    for a, b in [(math.nan, 0.0), (-0.5, math.nan), (-math.inf, -math.inf)]:
        with pytest.raises(DomainError):
            ParamPoint(3, a, b)
