"""SciPy entry points bound at import time and imported on their first call."""

import importlib
import math

import numpy as np
import pytest

from cknsharp import ParamPoint, cylinder, schrodinger
from cknsharp.schrodinger import LineGrid


def _pushforward():
    s = np.linspace(-10.0, 10.0, 401)
    cylinder.emden_fowler_pushforward(s, np.exp(-(s**2)), ParamPoint(3, -0.5, 0.0))


BINDINGS = [
    # module, attribute, SciPy module, one fixed input, a public call that goes through the binding
    pytest.param(cylinder, "dst", "scipy.fft", (np.arange(6.0),), {"type": 1, "norm": "ortho"},
                 lambda: cylinder.rayleigh(cylinder.extremal_field(LineGrid(10.0, 64), 3, 2, 1.0, 3.0), 1.0, 3.0),
                 id="cylinder.dst"),
    pytest.param(cylinder, "quad", "scipy.integrate", (math.cos, 0.0, 1.0), {}, _pushforward, id="cylinder.quad"),
    pytest.param(cylinder, "CubicSpline", "scipy.interpolate", ([0.0, 1.0, 2.0, 3.0], [0.0, 1.0, 0.0, 1.0]), {},
                 _pushforward, id="cylinder.CubicSpline"),
    pytest.param(cylinder, "brentq", "scipy.optimize", (lambda x: x * x - 2.0, 0.0, 2.0), {},
                 lambda: cylinder.fs_threshold(3.0, 3), id="cylinder.brentq"),
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
