"""SciPy entry points bound at import time and imported on their first call,
and the NumPy sine transforms and Brent root finder that replace SciPy's."""

import importlib
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.fft
import scipy.optimize

from cknsharp import ParamPoint, cylinder, schrodinger
from cknsharp.schrodinger import LineGrid


def _pushforward():
    s = np.linspace(-10.0, 10.0, 401)
    cylinder.emden_fowler_pushforward(s, np.exp(-(s**2)), ParamPoint(3, -0.5, 0.0))


BINDINGS = [
    # module, attribute, SciPy module, one fixed input, a public call that goes through the binding
    pytest.param(cylinder, "CubicSpline", "scipy.interpolate", ([0.0, 1.0, 2.0, 3.0], [0.0, 1.0, 0.0, 1.0]), {},
                 _pushforward, id="cylinder.CubicSpline"),
    pytest.param(schrodinger, "eigh_tridiagonal", "scipy.linalg", (np.full(4, 2.0), np.full(3, -1.0)), {},
                 lambda: schrodinger.lowest_eigenpair(schrodinger.lt_equality_potential(LineGrid(10.0, 200), 1.5)),
                 id="schrodinger.eigh_tridiagonal"),
]


def _plain(result):
    """Compare objects (a CubicSpline) by their attributes, values as they are."""
    return vars(result) if hasattr(result, "__dict__") else result


@pytest.mark.parametrize("module, attr, home, args, kwargs, caller", BINDINGS)
def test_lazy_binding_returns_scipy_result_and_stays_swappable(monkeypatch, module, attr, home, args, kwargs,
                                                               caller):
    binding = getattr(module, attr)
    scipy_fn = getattr(importlib.import_module(home), attr)
    assert binding is not scipy_fn  # a stand-in: importing the module loads no SciPy
    np.testing.assert_equal(_plain(binding(*args, **kwargs)), _plain(scipy_fn(*args, **kwargs)))
    assert getattr(module, attr) is binding  # a call does not rebind the module attribute

    calls = []

    def counted(*a, **k):
        calls.append(a)
        return binding(*a, **k)

    monkeypatch.setattr(module, attr, counted)
    caller()
    assert calls
    assert getattr(module, attr) is counted


def counted(monkeypatch, module, attr):
    """Swap module.attr for a wrapper that records its calls; return the record."""
    calls, real = [], getattr(module, attr)

    def wrapper(*a, **k):
        calls.append(a)
        return real(*a, **k)

    monkeypatch.setattr(module, attr, wrapper)
    return calls


@pytest.mark.parametrize("attr, caller", [
    ("dst", lambda: cylinder.rayleigh(cylinder.extremal_field(LineGrid(10.0, 64), 3, 2, 1.0, 3.0), 1.0, 3.0)),
    ("brentq", lambda: cylinder.fs_threshold(3.0, 3)),
], ids=["dst", "brentq"])
def test_a_swapped_kernel_is_the_one_called(monkeypatch, attr, caller):
    # the benchmark's tracer counts these calls by swapping the module attribute
    calls = counted(monkeypatch, cylinder, attr)
    caller()
    assert calls


# rows on each side of the dense kernel's cut, odd and even
@pytest.mark.parametrize("rows", [16, 17, 100, 255, 256, 257, 258, 450, 599, 600, 1000, 2001])
@pytest.mark.parametrize("dst_type, norm", [(1, "ortho"), (2, None), (3, None)])
def test_dst_matches_scipy(rows, dst_type, norm):
    assert (rows <= cylinder._DENSE_ROWS) == (rows <= 256)
    rng = np.random.default_rng(rows)
    for cols in (1, 2, 9):
        x = rng.standard_normal((rows, cols))
        ref = scipy.fft.dst(x, type=dst_type, norm=norm, axis=0)
        got = cylinder.dst(x, type=dst_type, norm=norm, axis=0)
        assert got.shape == ref.shape and got.dtype == ref.dtype
        assert np.abs(got - ref).max() <= 5e-15 * np.abs(ref).max()


def test_dst_refuses_what_it_does_not_compute():
    for kwargs in ({"type": 1}, {"type": 2, "norm": "ortho"}, {"type": 4}, {"type": 2, "axis": 1}):
        with pytest.raises(ValueError, match="unsupported DST"):
            cylinder.dst(np.ones((20, 2)), **kwargs)


def test_the_dense_sine_matrix_is_read_only():
    with pytest.raises(ValueError):
        cylinder._sine_matrix(20, 2)[0, 0] = 1.0


PORTED_BRENTQ = cylinder.brentq


def _both_brentq(f, a, b, **tol):
    """Run SciPy's brentq and the port on f; assert equal roots and equal f calls, in order."""
    runs = []
    for solver in (scipy.optimize.brentq, PORTED_BRENTQ):
        xs = []
        root = solver(lambda x: (xs.append(x), f(x))[1], a, b, **tol)
        runs.append((root, xs))
    assert runs[0] == runs[1]
    assert type(runs[1][0]) is float
    return runs[1][0]


@pytest.mark.parametrize("f, a, b, tol", [
    (lambda x: x * x - 2.0, 0.0, 2.0, {}),
    (np.cos, 0.0, 3.0, {"xtol": 1e-6}),
    (lambda x: x**3 - x - 1.0, 1.0, 2.0, {"rtol": 1e-3, "xtol": 1e-12}),
    (lambda x: math.exp(x) - 5.0, -1.0, 4.0, {"xtol": 5e-324}),
    (lambda x: math.tanh(5.0 * (x - 0.3)), -4.0, 7.0, {}),
    (lambda x: x, -1.0, 1.0, {}),  # the root at a bracket midpoint
])
def test_brentq_matches_scipy_on_analytic_functions(f, a, b, tol):
    _both_brentq(f, a, b, **tol)


@pytest.mark.parametrize("caller", [
    lambda: cylinder.fs_threshold(3.0, 3),
    lambda: cylinder.eigenvalue_bound(2.0 * cylinder.symmetric_mu_threshold(2.5, 3.0, 3), 3.0, 3,
                                      grid=LineGrid(18.0, 699), L_max=5),
], ids=["fs_threshold", "eigenvalue_bound"])
def test_brentq_matches_scipy_on_the_package_objectives(monkeypatch, caller):
    # the objective is memoized, so the second solver's calls cost nothing new
    roots = []
    monkeypatch.setattr(cylinder, "brentq", lambda *a, **k: roots.append(_both_brentq(*a, **k)) or roots[-1])
    assert caller() == roots[-1]


def test_brentq_raises_as_scipy_does():
    with pytest.raises(ValueError, match="different signs"):
        cylinder.brentq(lambda x: x * x + 1.0, -1.0, 1.0)
    with pytest.raises(ValueError, match="NaN"):
        cylinder.brentq(lambda x: math.nan if x > 0.1 else x, -1.0, 1.0)
    # no convergence: a step budget of 1, and a triple root that 100 steps do not resolve
    for f, maxiter in ((lambda x: x - 0.3, 1), (lambda x: (x - 0.3) ** 3, 100)):
        runs = []
        for solver in (scipy.optimize.brentq, cylinder.brentq):
            xs = []
            with pytest.raises(RuntimeError) as exc:
                solver(lambda x: (xs.append(x), f(x))[1], -4.0, 7.0, maxiter=maxiter)
            runs.append((str(exc.value), xs))
        assert runs[0] == runs[1]


def test_pushforward_loads_scipy_interpolate_but_not_integrate():
    # a new interpreter: in this one earlier tests have usually imported scipy.integrate
    code = ("import sys, numpy as np\n"
            "from cknsharp import ParamPoint, cylinder\n"
            "s = np.linspace(-10.0, 10.0, 401)\n"
            "cylinder.emden_fowler_pushforward(s, np.exp(-(s**2)), ParamPoint(3, -0.5, 0.0))\n"
            "print('scipy.interpolate' in sys.modules, 'scipy.integrate' in sys.modules)")
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(src)},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["True", "False"]
