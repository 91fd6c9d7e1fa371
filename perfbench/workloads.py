"""Seeded task generation, execution and independent output checks.

A workload is an endless sequence of rounds.  A cli_session round is one
list of CLI commands; a library_mix round deals out, in turn, one round of
each in-process generator (cold flow solves, eigenvalue_bound inversions,
spectral/chain checks).  Each generator's round r is drawn from
``numpy.random.default_rng([seed, stream id, r])`` and is a fixed list of
strata, the same for every seed, whose parameters carry a seeded jitter (the
bound strip points excepted, see below).  The program only ever sees the
generated inputs.

Every check below uses the paper's closed forms or a tolerance that the CLI
verifiers and the acceptance tests already use; the program's own ``pass``
and ``converged`` flags are never taken as evidence.
"""

from __future__ import annotations

import contextlib
import csv
import io
import itertools
import json
import math
import subprocess
import sys

import numpy as np

import cknsharp.cli as cli
import cknsharp.closed_forms as cf
import cknsharp.cylinder as cyl
import cknsharp.params as params
import cknsharp.schrodinger as sch
import cknsharp.sphere as sphere

# Oracle bindings are taken at import time, before any tracing wrapper is
# installed, so checks never count as program calls.
from cknsharp.closed_forms import gap_factor as _gap_factor
from cknsharp.closed_forms import radial_interp_coefficient as _radial_coefficient
from cknsharp.closed_forms import radial_interp_constant as _radial_constant

WORKLOADS = ("cli_session", "library_mix")
# one random stream per round generator
STREAMS = ("cli", "flow", "bound", "spectral")

# tasks replayed, untraced then traced, by a traced run (fixed for exact counts):
# one round of each workload
TRACE_TASKS = {"cli_session": 11, "library_mix": 50}

CLI_CODE = "import sys; from cknsharp.cli import main; sys.exit(main())"
CLI_TIMEOUT_S = 150.0


class CheckFailed(Exception):
    """An output failed its oracle."""


def _require(cond, what):
    if not cond:
        raise CheckFailed(what)


def _finite(*values):
    for v in values:
        _require(v is not None and math.isfinite(float(v)), f"non-finite output {v!r}")


def _close(measured, expected, rel, what):
    _finite(measured)
    _require(abs(measured - expected) <= rel * abs(expected),
             f"{what}: {measured!r} vs {expected!r} (rel tol {rel})")


# ---------------------------------------------------------------------------
# closed forms used as oracles (from the paper, evaluated independently)

def lambda_fs(p, N):
    return 4.0 * (N - 1) / (p * p - 4)


def lambda_sym(p, N):
    return (N - 1) * (6 - p) / (4 * (p - 2))


def lt_constant_ref(gamma):
    """Gamma(g+1) (g-1/2)^(g-1/2) / (sqrt(pi) Gamma(g+1/2) (g+1/2)^(g+1/2))."""
    return math.exp(math.lgamma(gamma + 1) - math.lgamma(gamma + 0.5) - 0.5 * math.log(math.pi)
                    + (gamma - 0.5) * math.log(gamma - 0.5) - (gamma + 0.5) * math.log(gamma + 0.5))


def poschl_teller(V0, B):
    nu = 0.5 * (math.sqrt(1.0 + 4.0 * V0 / B**2) - 1.0)
    return B * B * nu * nu


def linear_law(mu, p):
    return _radial_coefficient(1.0, p) ** (2 * p / (p + 2)) * mu


def _curves(N, a):
    """(b_sym(a), b_fs(a)): the proven-symmetry and Felli-Schneider curves."""
    d = (N - 2) / 2 - a
    b_sym = (N * (N - 1) + 4 * N * d * d) / (6 * (N - 1) + 8 * d * d) - d
    b_fs = N * d / (2 * math.sqrt(d * d + N - 1)) - d
    return b_sym, b_fs


def expected_region(N, a, b):
    """Region of (N, a, b) from the admissibility rules and the two curves;
    None when b sits within 1e-9 of a boundary (left unchecked)."""
    ac = (N - 2) / 2
    if min(abs(b - a), abs(b - a - 1)) < 1e-9 or abs(a - ac) < 1e-9:
        return None
    admissible = (a < b < a + 1) if N == 2 else (a <= b <= a + 1)
    if not admissible or a > ac:
        return "NonAdmissible"
    if a >= 0:
        return "SymmetricProven"
    b_sym, b_fs = _curves(N, a)
    if min(abs(b - b_sym), abs(b - b_fs)) < 1e-9:
        return None
    if b >= b_sym:
        return "SymmetricProven"
    return "SymmetryBroken" if b < b_fs else "Unknown"


def _grid_axis(lo, hi, n):
    return [lo + (hi - lo) * i / (n - 1) for i in range(n)] if n > 1 else [lo]


def check_region_rows(rows, N, a_range, b_range, na, nb):
    """rows: list of (a, b, region-name) as produced; compare with the oracle."""
    _require(len(rows) == na * nb, f"region map has {len(rows)} rows, expected {na * nb}")
    grid = [(a, b) for a in _grid_axis(*a_range, na) for b in _grid_axis(*b_range, nb)]
    for (a, b, region), (a0, b0) in zip(rows, grid):
        _require(abs(a - a0) <= 1e-11 * max(1.0, abs(a0)) and abs(b - b0) <= 1e-11 * max(1.0, abs(b0)),
                 f"region map point ({a}, {b}) != ({a0}, {b0})")
        want = expected_region(N, a0, b0)
        _require(want is None or region == want, f"region at ({a0}, {b0}): {region} != {want}")


# ---------------------------------------------------------------------------
# task generation

def _rng(seed, stream, r):
    return np.random.default_rng([seed, STREAMS.index(stream), r])


def _u(rng, lo, hi):
    return float(rng.uniform(lo, hi))


def _flow_round(rng, r):
    anchors = (3.0, 3.5, 4.2, 5.0)
    cells = ((2, False), (3, True), (3, False), (2, True))
    sandwiches = ((3, 3.0, 0.8), (3, 3.2, 0.9), (2, 3.0, 0.9), (2, 3.6, 0.95))
    tasks = []
    for j, (N, multistart) in enumerate(cells):
        for ci, cls in enumerate(("below", "strip", "past", "far")):
            p = anchors[(ci + j + r) % 4] + _u(rng, -0.03, 0.03)
            ls, lf = lambda_sym(p, N), lambda_fs(p, N)
            lam = {
                "below": ls * _u(rng, 0.55, 0.65),
                "strip": ls + _u(rng, 0.45, 0.55) * (lf - ls),
                "past": lf * _u(rng, 1.13, 1.17),
                "far": lf * _u(rng, 2.8, 3.2),
            }[cls]
            tasks.append({"kind": "minimize", "cls": cls, "N": N, "p": p, "Lambda": lam,
                          "multistart": multistart, "seed": int(rng.integers(2**31))})
        N, p0, th0 = sandwiches[(j + r) % 4]
        p = p0 + _u(rng, -0.05, 0.05)
        theta = th0 + _u(rng, -0.02, 0.02)
        ac2 = ((N - 2) / 2) ** 2
        lam = ac2 + _u(rng, 0.5, 0.9) * (cyl.sandwich_lambda_bound(theta, p, N) - ac2)
        tasks.append({"kind": "sandwich", "N": N, "p": p, "theta": theta, "Lambda": lam,
                      "seed": int(rng.integers(2**31))})
    return tasks


# eigenvalue_bound grid sizes: n + 1 is 5-smooth.  DST-I time on a grid whose
# n + 1 has a large prime factor is up to twice as long, which would turn a
# jittered grid size into a lottery.
BOUND_SIZES = (639, 899, 1151)


def _bound_round(rng, r):
    anchors = (2.9, 3.5, 4.3)
    cells = ((2, "strip"), (3, "past"), (2, "far"), (3, "strip"), (2, "past"), (3, "far"))
    tasks = []
    for k, (N, cls) in enumerate(cells):
        # Strip points are not seeded: there eigenvalue_bound returns after one
        # solve or brackets with about 7 more, depending on the sign of a
        # ~1e-12 difference between the numeric and closed-form quotient, so a
        # seeded jitter made their cost a coin toss.  Fixed points keep both
        # outcomes in the mix with the same share in every run.
        jitter = 0.0 if cls == "strip" else _u(rng, -0.03, 0.03)
        p = anchors[(k + r) % 3] + jitter
        ls, lf = lambda_sym(p, N), lambda_fs(p, N)
        lam_lin = {
            "strip": ls + (0.41 + 0.01 * r) * (lf - ls),
            "past": lf * _u(rng, 1.14, 1.16),
            "far": lf * _u(rng, 2.9, 3.1),
        }[cls]
        n = BOUND_SIZES[(k + r) % 3]
        tasks.append({"kind": "bound", "cls": cls, "N": N, "p": p, "mu": lam_lin / linear_law(1.0, p),
                      "n": n, "L_max": (4, 6)[(k + r) % 2]})
        if k == 2:
            N0 = 2 + r % 2
            p = 3.0 + _u(rng, -0.5, 1.0)
            lam_lin = lambda_sym(p, N0) * _u(rng, 0.3, 0.9)
            tasks.append({"kind": "bound", "cls": "linear", "N": N0, "p": p,
                          "mu": lam_lin / linear_law(1.0, p), "n": BOUND_SIZES[1], "L_max": 4})
    return tasks


def _seed_arg(rng):
    return str(int(rng.integers(2**31)))


def _cli_round(rng, r):
    Na, Nb = (2, 3) if r % 2 == 0 else (3, 2)
    f = repr  # full-precision CLI floats
    a = _u(rng, -0.9, -0.2)
    d = _u(rng, 0.4, 0.83) if Na == 2 else _u(rng, 0.1, 0.75)
    p_min = _u(rng, 2.8, 4.5)
    if r % 2 == 0:
        lam_min, regime = lambda_sym(p_min, Nb) * _u(rng, 0.4, 0.8), "below"
    else:
        lam_min, regime = lambda_fs(p_min, Nb) * _u(rng, 2.5, 3.5), "far"
    na, nb = (int(x) for x in rng.integers(120, 181, size=2))
    argvs = [
        ["constants", "--N", str(Na), "--a", f(a), "--b", f(a + d)],
        ["verify", "minimize", "--N", str(Nb), "--p", f(p_min), "--Lambda", f(lam_min), "--seed", _seed_arg(rng)],
        ["region-map", "--N", str(Na), "--na", str(na), "--nb", str(nb)],
        ["verify", "lt", "--gamma", f(_u(rng, 1.5, 4.0))],
        ["constants", "--N", str(Nb), "--p", f(_u(rng, 2.4, 5.5)), "--Lambda", f(_u(rng, 0.3, 3.0)),
         "--format", "json"],
        ["verify", "sandwich", "--N", "3", "--p", f(_u(rng, 2.9, 3.2)), "--theta", f(_u(rng, 0.8, 0.95)),
         "--seed", _seed_arg(rng)],
        ["constants", "--gamma", f(_u(rng, 1.2, 4.0))],
        ["verify", "fs", "--p", f(_u(rng, 2.5, 5.0)), "--N", str(Nb)],
        ["verify", "chain", "--N", str(Na), "--p", f(_u(rng, 2.5, 4.0)), "--Lambda", f(_u(rng, 0.5, 2.0)),
         "--seed", _seed_arg(rng)],
        ["verify", "lambdacond", "--Lambda", f(_u(rng, 0.3, 4.0)), "--p", f(_u(rng, 2.4, 5.5))],
        ["verify", "poincare", "--N", str(Nb), "--q", f(_u(rng, 1.5, 6.0)), "--seed", _seed_arg(rng)],
    ]
    kinds = ["constants_ab", "verify_minimize", "region_map", "verify_lt", "constants_json", "verify_sandwich",
             "constants_gamma", "verify_fs", "verify_chain", "verify_lambdacond", "verify_poincare"]
    tasks = [{"kind": k, "argv": v} for k, v in zip(kinds, argvs)]
    tasks[1]["regime"] = regime
    return tasks


def _spectral_round(rng, r):
    order = ("fs", "eig", "chain", "poincare", "ltratio_bump", "region", "eig", "chain", "ltdefect",
             "poincare", "ltratio_sech", "ef")
    tasks = []
    for half in range(2):
        N = 2 + (r + half) % 2
        for kind in order:
            t = {"kind": kind, "N": N, "seed": int(rng.integers(2**31))}
            if kind == "fs":
                t["p"] = _u(rng, 2.4, 5.5)
            elif kind == "eig":
                t.update(V0=_u(rng, 0.5, 4.0), B=_u(rng, 0.6, 1.5), center=_u(rng, -2.0, 2.0))
            elif kind == "chain":
                t.update(p=_u(rng, 2.5, 4.0), Lambda=_u(rng, 0.5, 2.0), fields=5)
            elif kind == "poincare":
                t.update(q=_u(rng, 1.5, 8.0), fields=50)
            elif kind == "ltratio_bump":
                t["gamma"] = _u(rng, 1.5, 4.0)
            elif kind == "ltratio_sech":
                t.update(gamma=_u(rng, 1.5, 4.0), B=_u(rng, 0.7, 1.3), center=_u(rng, -2.0, 2.0))
            elif kind == "region":
                t.update(na=int(rng.integers(60, 101)), nb=int(rng.integers(60, 101)))
            elif kind == "ltdefect":
                t.update(Lambda=_u(rng, 0.2, 5.0), p=_u(rng, 2.3, 5.7))
            elif kind == "ef":
                if half == 1:
                    continue  # one pushforward per round: it costs as much as the rest together
                a = _u(rng, -0.8, -0.2)
                t.update(N=3, a=a, b=a + _u(rng, 0.2, 0.7), center=_u(rng, -2.0, 2.0), width=_u(rng, 0.8, 1.5))
            tasks.append(t)
    return tasks


def _library_round(seed, r):
    """Flow (20 tasks), bound (7) and spectral (23) rounds dealt out in turn,
    so that every kind is spread over the round's wall time."""
    parts = [_flow_round(_rng(seed, "flow", r), r), _bound_round(_rng(seed, "bound", r), r),
             _spectral_round(_rng(seed, "spectral", r), r)]
    return [task for group in itertools.zip_longest(*parts) for task in group if task is not None]


def make_round(workload, seed, r):
    """The r-th round of tasks of a workload; pure function of its arguments."""
    tasks = _cli_round(_rng(seed, "cli", r), r) if workload == "cli_session" else _library_round(seed, r)
    for i, t in enumerate(tasks):
        t["id"] = f"{workload}:{r}:{i}"
    return tasks


def first_tasks(workload, seed, count):
    tasks, r = [], 0
    while len(tasks) < count:
        tasks += make_round(workload, seed, r)
        r += 1
    return tasks[:count]


# ---------------------------------------------------------------------------
# input materialization (untimed) and execution (timed)

_LINE_8000 = sch.LineGrid(20.0, 8000)
_CHAIN_GRID = sch.LineGrid(15.0, 600)


def _bump_potential(grid, rng):
    s = grid.nodes()
    v = np.zeros(grid.n)
    for _ in range(int(rng.integers(1, 4))):
        c = rng.uniform(-0.4 * grid.S, 0.4 * grid.S)
        w = rng.uniform(0.5, 2.0)
        v += rng.uniform(0.1, 2.0) * np.exp(-((s - c) ** 2) / (2 * w * w))
    return sch.Potential1D(grid, v)


def _fuzz_field(grid, N, L_max, rng):
    s = grid.nodes()
    g = np.zeros(grid.n)
    for _ in range(int(rng.integers(1, 4))):
        c = rng.uniform(-0.4 * grid.S, 0.4 * grid.S)
        w = rng.uniform(0.6, 2.5)
        g += rng.uniform(0.2, 1.0) * np.exp(-((s - c) ** 2) / (2 * w * w))
    _, B = cyl._angular(N, L_max)
    ang = rng.standard_normal(L_max) * (0.3 ** np.arange(1, L_max + 1))
    m = np.maximum(1.0 + B[:, 1:] @ ang, 0.05)
    return cyl.CylField.from_nodal(grid, N, L_max, np.outer(g, m))


def prepare(task):
    """Build the array inputs of a task (outside the timed region)."""
    kind = task["kind"]
    rng = np.random.default_rng(task.get("seed", 0))
    if kind == "minimize":
        start = cyl.extremal_field(cyl.DEFAULT_GRID, task["N"], cyl.DEFAULT_L_MAX, task["Lambda"], task["p"])
        start.data[:, 1] = 0.1 * start.data[:, 0]
        return start
    if kind == "eig":
        return sch.sech_squared_potential(_LINE_8000, task["V0"], task["B"], task["center"])
    if kind == "ltratio_bump":
        return _bump_potential(_LINE_8000, rng)
    if kind == "ltratio_sech":
        g, B = task["gamma"], task["B"]
        return sch.sech_squared_potential(_LINE_8000, (g * g - 0.25) * B * B, B, task["center"])
    if kind == "chain":
        return [_fuzz_field(_CHAIN_GRID, task["N"], 6, rng) for _ in range(task["fields"])]
    if kind == "poincare":
        quad = sphere.default_quadrature(task["N"], 8)
        return quad, [sphere.ZonalField(task["N"], rng.standard_normal(9)) for _ in range(task["fields"])]
    if kind == "ef":
        s = np.linspace(-30.0, 30.0, 6001)
        return s, np.exp(-((s - task["center"]) ** 2) / (2 * task["width"] ** 2))
    return None


def execute(task, inp):
    """Run one task against the program; returns its raw outputs."""
    kind = task["kind"]
    if kind == "minimize":
        opts = cyl.MinimizeOpts(multistart=task["multistart"], seed=task["seed"])
        return cyl.minimize_quotient(inp, task["Lambda"], task["p"], 1.0, opts)
    if kind == "sandwich":
        opts = cyl.MinimizeOpts(multistart=True, seed=task["seed"])
        return cyl.sandwich_check(task["theta"], task["Lambda"], task["p"], task["N"], opts=opts)
    if kind == "bound":
        grid = sch.LineGrid(20.0, task["n"])
        return cyl.eigenvalue_bound(task["mu"], task["p"], task["N"], grid=grid, L_max=task["L_max"])
    if kind == "fs":
        return cyl.fs_threshold(task["p"], task["N"])
    if kind == "eig":
        return sch.lowest_eigenpair(inp)
    if kind in ("ltratio_bump", "ltratio_sech"):
        return sch.lt_ratio(inp, task["gamma"])
    if kind == "chain":
        return [cyl.proof_chain(u, task["Lambda"], task["p"]) for u in inp]
    if kind == "poincare":
        quad, fields = inp
        return [sphere.poincare_deficit(v, task["q"], quad) for v in fields]
    if kind == "region":
        return params.region_map(task["N"], *_region_window(task["N"]), (task["na"], task["nb"]))
    if kind == "ltdefect":
        return cf.lt_identity_defect(task["Lambda"], task["p"])
    if kind == "ef":
        return cyl.emden_fowler_pushforward(*inp, params.ParamPoint(task["N"], task["a"], task["b"]))
    raise ValueError(f"unknown task kind {kind!r}")


def _region_window(N):
    return (-1.0, 0.8 * (N - 2) / 2 - 0.05), (-1.0, 1.0)


def check(task, inp, out):
    """Raise CheckFailed unless the outputs pass their oracle."""
    kind = task["kind"]
    if kind == "minimize":
        N, p, lam = task["N"], task["p"], task["Lambda"]
        _finite(out.constant, out.quotient, out.angular_fraction)
        k_rad = _radial_constant(1.0, lam, p)
        if lam < lambda_fs(p, N):
            _close(out.constant, k_rad, 5e-3, "K vs radial constant below lambda_fs")
        else:
            _require(out.constant >= k_rad, f"K={out.constant} below radial {k_rad} past lambda_fs")
            _require(out.angular_fraction > 1e-3, f"angular fraction {out.angular_fraction} <= 1e-3 past lambda_fs")
    elif kind == "sandwich":
        _check_sandwich(task["theta"], task["Lambda"], task["p"], out.k_numeric)
    elif kind == "bound":
        _finite(out)
        lin = linear_law(task["mu"], task["p"])
        if task["cls"] == "linear":
            _close(out, lin, 1e-12, "linear law below the symmetric threshold")
        elif task["cls"] == "strip":
            _close(out, lin, 5e-3, "bound vs linear law inside the strip")
        else:
            _require(out > lin, f"bound {out} not above linear law {lin} past lambda_fs")
    elif kind == "fs":
        _close(out, lambda_fs(task["p"], task["N"]), 5e-3, "fs_threshold vs 4(N-1)/(p^2-4)")
    elif kind == "eig":
        _close(out.lambda1, poschl_teller(task["V0"], task["B"]), 1e-4, "ground state vs Poschl-Teller")
    elif kind == "ltratio_bump":
        _finite(out)
        _require(0.0 <= out <= 1.0 + 5 * inp.grid.h ** 2, f"lt_ratio {out} above 1 + 5h^2")
    elif kind == "ltratio_sech":
        _close(out, 1.0, 2e-3, "lt_ratio on the equality well")
    elif kind == "chain":
        for rep in out:
            slacks = (rep.slack_lt, rep.slack_schwarz, rep.slack_hoelder2p, rep.slack_poincare, rep.slack_hoelder)
            _finite(rep.D, *slacks)
            _require(min(slacks) >= -1e-8, f"chain slack {min(slacks)} < -1e-8")
    elif kind == "poincare":
        _finite(*out)
        _require(min(out) >= -1e-10, f"sphere deficit {min(out)} < -1e-10")
    elif kind == "region":
        a_range, b_range = _region_window(task["N"])
        rows = [(a, b, reg.value) for a, b, reg in out]
        check_region_rows(rows, task["N"], a_range, b_range, task["na"], task["nb"])
    elif kind == "ltdefect":
        _finite(out)
        _require(out < 1e-8, f"potential-norm identity defect {out} >= 1e-8")
    elif kind == "ef":
        u, rep = out
        _finite(rep["p_norm_mismatch"], rep["grad_norm_mismatch"])
        _require(np.all(np.isfinite(u)), "non-finite pushforward")
        _require(rep["p_norm_mismatch"] < 1e-6 and rep["grad_norm_mismatch"] < 1e-6,
                 f"norm identity mismatch {rep['p_norm_mismatch']}, {rep['grad_norm_mismatch']}")
    else:
        raise ValueError(f"unknown task kind {kind!r}")


def _check_sandwich(theta, lam, p, k_numeric):
    _finite(k_numeric)
    k_lower = _radial_constant(theta, lam, p)
    k_upper = k_lower * _gap_factor(p, theta) ** (((2 * theta - 1) * p + 2) / (2 * p))
    _require(k_lower * (1 - 5e-3) <= k_numeric <= k_upper * (1 + 5e-3),
             f"K={k_numeric} outside [{k_lower}, {k_upper}] (5e-3)")


# ---------------------------------------------------------------------------
# CLI tasks

def _strict_json(text):
    def reject(token):
        raise CheckFailed(f"non-JSON token {token} on stdout")
    return json.loads(text, parse_constant=reject)


def _arg(argv, flag, default=None):
    return float(argv[argv.index(flag) + 1]) if flag in argv else default


def _check_constants_rows(rows, argv):
    """rows: {name: value} from a constants table."""
    for name, value in rows.items():
        _finite(value)
    if "--gamma" in argv and "--p" not in argv and "--a" not in argv:
        _close(rows["c_lt"], lt_constant_ref(_arg(argv, "--gamma")), 1e-10, "c_lt vs closed form")
        return
    N = int(_arg(argv, "--N", 3))
    if "--a" in argv:
        a, b = _arg(argv, "--a"), _arg(argv, "--b")
        _close(rows["a"], a, 1e-11, "a")
        _close(rows["b"], b, 1e-11, "b")
        p = 2.0 * N / (N - 2 + 2 * (b - a))
    else:
        p = _arg(argv, "--p")
    _close(rows["lambda_fs"], lambda_fs(p, N), 1e-10, "lambda_fs row")
    _close(rows["radial_constant_variational"], rows["radial_constant"], 1e-8, "variational vs closed radial constant")
    _require(rows["lt_identity_defect"] < 1e-8, f"identity defect {rows['lt_identity_defect']}")


def check_cli(task, code, stdout):
    """Check one CLI invocation from its exit code and stdout alone."""
    argv = task["argv"]
    _require(code == 0, f"exit code {code}")
    kind = task["kind"]
    if kind in ("constants_ab", "constants_gamma"):
        table = list(csv.reader(io.StringIO(stdout)))
        _require(table and table[0] == ["name", "p", "Lambda", "theta", "N", "value", "provenance"], "bad CSV header")
        _check_constants_rows({row[0]: float(row[5]) for row in table[1:]}, argv)
        return
    if kind == "region_map":
        table = list(csv.reader(io.StringIO(stdout)))
        _require(table and table[0] == ["a", "b", "region"], "bad CSV header")
        N = int(_arg(argv, "--N"))
        rows = [(float(a), float(b), reg) for a, b, reg in table[1:]]
        check_region_rows(rows, N, (-1.0, 0.4), (-1.0, 1.0), int(_arg(argv, "--na")), int(_arg(argv, "--nb")))
        return
    payload = _strict_json(stdout)
    if kind == "constants_json":
        _check_constants_rows({row["name"]: row["value"] for row in payload["rows"]}, argv)
    elif kind == "verify_lt":
        g = _arg(argv, "--gamma")
        _close(payload["measured"], (g - 0.5) ** 2, 1e-4, "equality-well ground state")
        _close(payload["ratio"], 1.0, 2e-3, "lt_ratio on the equality well")
    elif kind == "verify_fs":
        _close(payload["measured"], lambda_fs(_arg(argv, "--p"), int(_arg(argv, "--N"))), 5e-3, "fs threshold")
    elif kind == "verify_chain":
        lam = _arg(argv, "--Lambda")
        _require(payload["fuzz_min_slack"] is not None, "no fuzz evidence")
        _finite(payload["fuzz_min_slack"], payload["D_at_extremal"], *payload["slacks_at_extremal"])
        _require(payload["fuzz_min_slack"] >= -1e-8, f"fuzz slack {payload['fuzz_min_slack']}")
        _require(max(abs(x) for x in payload["slacks_at_extremal"]) <= 1e-6, "slack at the extremal")
        _require(abs(payload["D_at_extremal"] - lam) <= 1e-6, "D at the extremal != Lambda")
    elif kind == "verify_lambdacond":
        _finite(payload["defect"])
        _require(payload["defect"] < 1e-8, f"identity defect {payload['defect']}")
    elif kind == "verify_poincare":
        _require(payload["samples"] > 0, "no samples")
        _finite(payload["min_deficit"], payload["near_constant_slope"])
        _require(payload["min_deficit"] >= -1e-10 and payload["near_constant_slope"] >= 2.9, "sphere deficits")
    elif kind == "verify_minimize":
        p, lam = _arg(argv, "--p"), _arg(argv, "--Lambda")
        k_rad = _radial_constant(1.0, lam, p)
        _finite(payload["constant"], payload["quotient"], payload["angular_fraction"])
        if task["regime"] == "below":
            _close(payload["constant"], k_rad, 5e-3, "K vs radial constant")
            _require(payload["angular_fraction"] < 1e-6, "angular fraction below lambda_sym")
        else:
            _require(payload["constant"] * 0.99 >= k_rad, "K not 1% above radial far past lambda_fs")
            _require(payload["angular_fraction"] > 1e-3, "angular fraction far past lambda_fs")
    elif kind == "verify_sandwich":
        _check_sandwich(payload["theta"], payload["Lambda"], payload["p"], payload["k_numeric"])
    else:
        raise ValueError(f"unknown CLI task kind {kind!r}")


def run_cli_subprocess(task, env):
    """One fresh cknsharp process; returns (exit code, stdout)."""
    proc = subprocess.run([sys.executable, "-c", CLI_CODE, *task["argv"]], env=env, capture_output=True,
                          text=True, timeout=CLI_TIMEOUT_S)
    return proc.returncode, proc.stdout


def run_cli_inprocess(task):
    """Replay the same argument list through cknsharp.cli.main, stdout captured."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(list(task["argv"]))
    return code, buf.getvalue()
