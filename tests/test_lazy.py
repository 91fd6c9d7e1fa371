"""The package's NumPy kernels against SciPy as an oracle: the sine transforms, the
Brent root finder, the ground-state eigensolver and the natural cubic spline of the
log-radial pushforward; that a kernel swapped from outside is the one called; and
that nothing in the package loads SciPy."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.fft
import scipy.interpolate
import scipy.linalg
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st

from cknsharp import NumericsError, ParamPoint, _kernels, cylinder, schrodinger
from cknsharp.schrodinger import LineGrid, Potential1D


def counted(monkeypatch, module, attr):
    """Swap module.attr for a wrapper that records its calls; return the record."""
    calls, real = [], getattr(module, attr)

    def wrapper(*a, **k):
        calls.append(a)
        return real(*a, **k)

    monkeypatch.setattr(module, attr, wrapper)
    return calls


@pytest.mark.parametrize("module, attr, caller", [
    (cylinder, "dst", lambda: cylinder.rayleigh(cylinder.extremal_field(LineGrid(10.0, 64), 3, 2, 1.0, 3.0), 1.0, 3.0)),
    (cylinder, "brentq", lambda: cylinder.fs_threshold(3.0, 3)),
    (schrodinger, "eigh_tridiagonal",
     lambda: schrodinger.lowest_eigenpair(schrodinger.lt_equality_potential(LineGrid(10.0, 200), 1.5))),
    (cylinder, "quad", lambda s=np.linspace(-10.0, 10.0, 401):
     cylinder.emden_fowler_pushforward(s, np.exp(-(s**2)), ParamPoint(3, -0.5, 0.0))),
], ids=["dst", "brentq", "eigh_tridiagonal", "quad"])
def test_a_swapped_kernel_is_the_one_called(monkeypatch, module, attr, caller):
    # the benchmark's tracer counts these calls by swapping the module attribute
    calls = counted(monkeypatch, module, attr)
    caller()
    assert calls


# rows on each side of the dense kernel's cut, odd and even
@pytest.mark.parametrize("rows", [16, 17, 100, 255, 256, 257, 258, 450, 599, 600, 1000, 2001])
@pytest.mark.parametrize("dst_type, norm", [(1, "ortho"), (2, None), (3, None)])
def test_dst_matches_scipy(rows, dst_type, norm):
    assert (rows <= _kernels._DENSE_ROWS) == (rows <= 256)
    rng = np.random.default_rng(rows)
    for cols in (1, 2, 9):
        x = rng.standard_normal((rows, cols))
        ref = scipy.fft.dst(x, type=dst_type, norm=norm, axis=0)
        got = cylinder.dst(x, dst_type)
        assert got.shape == ref.shape and got.dtype == ref.dtype
        assert np.abs(got - ref).max() <= 5e-15 * np.abs(ref).max()


def test_the_dense_sine_matrix_is_read_only():
    with pytest.raises(ValueError):
        _kernels._sine_matrix(20, 2)[0, 0] = 1.0


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
    (lambda x: x, 0.0, 1.0, {}),  # the root at a bracket end
])
def test_brentq_matches_scipy_on_analytic_functions(f, a, b, tol):
    _both_brentq(f, a, b, **tol)


@pytest.mark.parametrize("caller", [lambda: cylinder.fs_threshold(3.0, 3)], ids=["fs_threshold"])
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


EPS = np.finfo(float).eps


def _schrodinger_matrix(V):
    """Diagonal, off-diagonal and infinity norm of the operator matrix of lowest_eigenpair."""
    h = V.grid.h
    d, e = 2.0 / h**2 - V.values, np.full(V.grid.n - 1, -1.0 / h**2)
    return d, e, float(np.max(np.abs(d))) + 2.0 / h**2


def _times(d, e, x):
    """T x for the tridiagonal T with diagonal d and off-diagonal e."""
    tx = d * x
    tx[:-1] += e * x[1:]
    tx[1:] += e * x[:-1]
    return tx


@st.composite
def potentials(draw):
    """Random finite non-negative samples, V = 0 (no bound state), sech^2 wells and narrow bumps."""
    grid = LineGrid(draw(st.floats(1.0, 60.0)), draw(st.integers(16, 3000)))
    s, kind = grid.nodes(), draw(st.sampled_from(["random", "zero", "sech2", "bumps"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "random":
        return Potential1D(grid, rng.uniform(0.0, draw(st.floats(1e-3, 1e4)), grid.n))
    if kind == "zero":
        return Potential1D(grid, np.zeros(grid.n))
    if kind == "sech2":
        return schrodinger.sech_squared_potential(grid, draw(st.floats(1e-3, 1e3)), draw(st.floats(0.1, 10.0)),
                                                  draw(st.floats(-grid.S, grid.S)))
    v = np.zeros(grid.n)
    for _ in range(draw(st.integers(1, 4))):  # a few nodes wide, up to 1e4 high
        v += draw(st.floats(0.0, 1e4)) * np.exp(-(((s - draw(st.floats(-grid.S, grid.S))) / (3 * grid.h)) ** 2))
    return Potential1D(grid, v)


@settings(max_examples=60, deadline=None)
@given(V=potentials())
def test_eigh_tridiagonal_matches_scipy(V):
    d, e, norm = _schrodinger_matrix(V)
    (ref,), _ = scipy.linalg.eigh_tridiagonal(d, e, select="i", select_range=(0, 0))
    lam, x, res = schrodinger.eigh_tridiagonal(d, e)
    assert x.shape == (V.grid.n,)
    assert abs(lam - ref) <= 64 * EPS * norm
    assert np.linalg.norm(x) == pytest.approx(1.0, abs=1e-12)
    assert res == np.linalg.norm(_times(d, e, x) - lam * x) <= 64 * EPS * norm  # the residual of the returned pair


@pytest.mark.parametrize("V", [
    schrodinger.lt_equality_potential(LineGrid(20.0, 8000), 2.5),
    schrodinger.sech_squared_potential(LineGrid(25.0, 4000), 1e-3, 1.0),  # too shallow to bind in this box
    Potential1D(LineGrid(20.0, 599), np.zeros(599)),
], ids=["lt-well", "shallow", "free"])
def test_the_pivots_count_the_eigenvalues_below_the_shift(V):
    d, e, norm = _schrodinger_matrix(V)
    lam, _, _ = schrodinger.eigh_tridiagonal(d, e)
    delta = 64 * EPS * norm
    assert _kernels._reduce(d - (lam - delta), -e)[0] == 0
    assert _kernels._reduce(d - (lam + delta), -e)[0] >= 1
    # the solve of the same elimination: (T - sigma I) x = f
    f = np.linspace(1.0, 2.0, d.size)
    count, x = _kernels._reduce(d - (lam - 1.0), -e, f)
    assert count == 0 and np.abs(_times(d - (lam - 1.0), e, x) - f).max() <= 1e-9 * np.abs(f).max()


def test_an_uncertified_eigenvalue_raises_numerics_error(monkeypatch):
    reduce = _kernels._reduce

    def overcount(a, c, f=None):  # one eigenvalue more below every shift than there is: nothing is certified
        count, x = reduce(a, c, f)
        return count + 1, x

    monkeypatch.setattr(_kernels, "_reduce", overcount)
    with pytest.raises(NumericsError, match="lies below the Rayleigh quotient"):
        schrodinger.lowest_eigenpair(schrodinger.lt_equality_potential(LineGrid(20.0, 500), 2.5))


def test_an_unconverged_iteration_raises_numerics_error(monkeypatch):
    rayleigh = _kernels._rayleigh
    monkeypatch.setattr(_kernels, "_rayleigh", lambda d, e, y: (*rayleigh(d, e, y)[:2], 1.0))
    with pytest.raises(NumericsError, match="after 100 passes"):
        schrodinger.lowest_eigenpair(schrodinger.lt_equality_potential(LineGrid(20.0, 500), 2.5))


def test_a_failing_eigensolver_is_not_reported_as_bad_input(monkeypatch):
    def missing(*args, **kwargs):
        raise ImportError("No module named 'scipy.linalg'")

    monkeypatch.setattr(schrodinger, "eigh_tridiagonal", missing)
    with pytest.raises(ImportError):
        schrodinger.lowest_eigenpair(schrodinger.lt_equality_potential(LineGrid(20.0, 500), 2.5))


@pytest.mark.parametrize("seed", range(5))
def test_spline_matches_scipy_natural_spline(seed):
    rng = np.random.default_rng(seed)
    s = np.cumsum(rng.uniform(0.01, 0.3, 300))  # non-uniform knots
    w = np.sin(s) + rng.standard_normal(s.size)
    x = []
    cylinder.quad(lambda t: x.append(t) or np.zeros_like(t), s)  # quad's (intervals, 6) nodes
    W, dW = _kernels._spline(s, w)
    ref = scipy.interpolate.CubicSpline(s, w, bc_type="natural")
    tol = 1e-12 * np.abs(w).max()
    assert np.abs(W(x[0]) - ref(x[0])).max() <= tol
    assert np.abs(dW(x[0]) - ref(x[0], 1)).max() <= tol


def test_no_module_of_the_package_loads_scipy():
    # a new interpreter: in this one earlier tests have imported SciPy
    code = ("import importlib, json, pkgutil, sys, numpy as np, cknsharp\n"
            "for m in pkgutil.iter_modules(cknsharp.__path__):\n"
            "    importlib.import_module('cknsharp.' + m.name)\n"
            "s = np.linspace(-10.0, 10.0, 401)\n"
            "cknsharp.emden_fowler_pushforward(s, np.exp(-(s**2)), cknsharp.ParamPoint(3, -0.5, 0.0))\n"
            "print(json.dumps(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))))")
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(src)},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []
