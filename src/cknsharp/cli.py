"""Command-line front end: closed-form tables, region sweeps, verifications.

Every command is reproducible: identical flags (including --seed) produce
byte-identical output.  Numeric output carries 12 significant digits.
Exit codes: 0 = pass, 1 = a verification failed, 2 = bad input (usage, domain,
or an arithmetic fault), with exactly one ``error:`` line on stderr.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from . import closed_forms as cf
from . import params
from .closed_forms import quad
from .errors import GRID_N_CAP, DomainError, NumericsError, check_gamma, check_grid, check_L_max

SCHEMA = 1


def _json(payload) -> str:
    """Strict JSON: a non-finite number is a numerical failure, never output."""
    try:
        return json.dumps(payload, indent=2, default=float, allow_nan=False) + "\n"
    except ValueError as exc:
        raise NumericsError(f"non-finite number in the output: {exc}") from None


def _emit(text: str, output: str | None) -> None:
    if output:
        try:
            with open(output, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:  # an unwritable --output is bad input, not a failed verification
            raise DomainError(f"cannot write --output {output}: {exc.strerror or exc}") from None
    else:
        sys.stdout.write(text)


def _table(columns, rows, args) -> None:
    """The one table writer: CSV with 12 significant digits, where an empty
    cell stays empty, or ``{"schema": 1, "rows": [...]}`` through ``_json``.
    A non-finite number refuses the whole table before anything is written;
    the message names its row by the first cell."""
    def finite(x):
        return isinstance(x, str) or math.isfinite(x)

    distinct = {x for row in rows for x in row}
    if not all(map(finite, distinct)):  # each distinct cell checked once; the row is looked up only on failure
        row = next(row for row in rows if not all(map(finite, row)))
        raise NumericsError(f"non-finite value of {row[0]} in the output")
    if args.format == "json":
        text = _json({"schema": SCHEMA, "rows": [dict(zip(columns, row)) for row in rows]})
    else:
        # each distinct cell formatted once, and a falsy one in place: "", or a zero, since -0.0 == 0.0 share a key
        cells = {x: x if isinstance(x, str) else f"{x:.12g}" for x in distinct}
        lines = [",".join(columns)]
        lines += [",".join([cells[x] if x else (x if isinstance(x, str) else f"{x:.12g}") for x in row])
                  for row in rows]
        text = "\n".join(lines) + "\n"
    _emit(text, args.output)


def _canonical_point(args):
    """Resolve the mutually exclusive Euclidean / cylinder flag groups."""
    has_ab = args.a is not None or args.b is not None
    has_pl = args.p is not None or args.Lambda is not None
    if has_ab and has_pl:
        raise DomainError("give either (--a, --b) or (--p, --Lambda), not both")
    if has_ab:
        if args.a is None or args.b is None:
            raise DomainError("both --a and --b are required")
        pt = params.ParamPoint(args.N, args.a, args.b)
        cp = params.to_cylinder(pt)
        return pt, cp
    if has_pl:
        if args.p is None or args.Lambda is None:
            raise DomainError("both --p and --Lambda are required")
        cp = params.CylinderPoint(args.N, args.p, args.Lambda, 1.0)
        return params.from_cylinder(cp), cp
    raise DomainError("a parameter point is required: (--a, --b) or (--p, --Lambda)")


# ---------------------------------------------------------------------------
# constants

def _constants_rows(args):
    rows = []  # (name, p, Lambda, theta, N, value, provenance)
    if args.gamma is not None:
        rows.append(("c_lt", "", "", "", "", cf.lt_constant(args.gamma), "closed_form"))
        if args.a is None and args.p is None:
            return rows

    pt, cp = _canonical_point(args)
    theta = args.theta if args.theta is not None else 1.0
    N, p, lam = pt.N, cp.p, cp.Lambda
    params.CylinderPoint(N, p, lam, theta)  # --theta passes the same window check as the point

    def row(name, value, provenance="closed_form", th=theta):
        rows.append((name, p, lam, th, N, value, provenance))

    row("a", pt.a)
    row("b", pt.b)
    row("a_critical", params.a_critical(N))
    row("b_fs", params.b_fs(pt.a, N), th=1.0)
    row("b_sym", params.b_sym(pt.a, N), th=1.0)
    row("lambda_fs", params.lambda_fs(p, N), th=1.0)
    if p < 6:
        row("lambda_sym", params.lambda_sym(p, N), th=1.0)
    row("theta_min", params.theta_min(p, N))
    try:
        gamma, q = params.chain_exponents(p, theta)
        row("gamma", gamma)
        row("q", q)
        row("c_lt", cf.lt_constant(gamma))
    except DomainError:
        pass  # no chain exponents where gamma <= 1: theta <= 3(p - 2)/(2p), or p >= 6 at theta = 1; table continues
    pc = cf.profile_constants(lam, p, theta)
    row("eta", pc.eta)
    row("amplitude_A", pc.A)
    row("width_B", pc.B)
    row("t_star", pc.t_star)
    mom = cf.moments(p)
    row("I2", mom.I2)
    row("Ip", mom.Ip)
    row("J2", mom.J2)
    row("sphere_area", cf.sphere_area(N))
    if p < 6:
        row("radial_constant", cf.radial_constant(lam, p, N), th=1.0)
        # independent variational route: (|S^(N-1)| int u_star^p ds)^(-(p-2)/p) with u_star = A sech(B s)^(2/(p-2));
        # the amplitude is carried exactly, A^(-(p-2)) = 2/(p Lambda), since A^p leaves the float range near p = 2
        B, a = cf.profile_constants(lam, p, 1.0).B, 2 * p / (p - 2)
        integral = quad(lambda s: math.cosh(B * s) ** -a, 1.0 / (B * math.sqrt(a)))
        row("radial_constant_variational",
            cf.sphere_area(N) ** (-(p - 2) / p) * (2 / (p * lam)) * integral ** (-(p - 2) / p), "oracle", 1.0)
        row("radial_constant_alt", cf.radial_constant_alt(lam, p, N), "paper_typo_flag", 1.0)
        row("k_interp_coefficient", cf.radial_interp_coefficient(theta, p))
        row("k_interp_constant", cf.radial_interp_constant(theta, lam, p))
        row("gap_factor", cf.gap_factor(p, theta))
        row("lt_identity_defect", cf.lt_identity_defect(lam, p), "oracle", 1.0)
    return rows


def cmd_constants(args) -> int:
    _table(("name", "p", "Lambda", "theta", "N", "value", "provenance"), _constants_rows(args), args)
    return 0


# ---------------------------------------------------------------------------
# region map

def cmd_region_map(args) -> int:
    records = params.region_map(
        args.N, (args.a_min, args.a_max), (args.b_min, args.b_max), (args.na, args.nb)
    )
    _table(("a", "b", "region"), [(a, b, region.value) for a, b, region in records], args)
    return 0


# ---------------------------------------------------------------------------
# verify subcommands: each returns (payload dict, passed bool)

# the well's ground state decays like exp(-(gamma - 1/2)|s|): the default box
# holds 8 decay lengths (S >= 20) at 400 nodes per unit of S, at most GRID_N_CAP
def _verify_lt(args):
    from . import schrodinger
    check_gamma(args.gamma)
    S = max(20.0, 8.0 / (args.gamma - 0.5)) if args.S is None else args.S
    if args.n is None:
        check_grid(S, 16)  # S is checked before the node count is derived from it
    grid = schrodinger.LineGrid(S, min(GRID_N_CAP, math.ceil(400 * S)) if args.n is None else args.n)
    V = schrodinger.lt_equality_potential(grid, args.gamma)
    res = schrodinger.lowest_eigenpair(V)
    expected = (args.gamma - 0.5) ** 2
    ratio = schrodinger.lt_ratio(V, args.gamma, res)
    passed = abs(res.lambda1 - expected) <= 1e-4 * expected and abs(ratio - 1.0) <= 2e-3
    return {
        "gamma": args.gamma,
        "expected": expected,
        "measured": res.lambda1,
        "ratio": ratio,
        "residual_norm": res.residual_norm,
    }, passed


def _verify_poincare(args):
    import numpy as np
    from . import sphere
    check_L_max(args.l_max, 1, "--l-max")
    if args.samples < 1:
        raise DomainError(f"need --samples >= 1, got {args.samples}: no sample is no evidence")
    rng = np.random.default_rng(args.seed)
    quad_ = sphere.default_quadrature(args.N, args.l_max)
    worst = math.inf
    for _ in range(args.samples):
        coeffs = rng.standard_normal(args.l_max + 1)
        worst = min(worst, sphere.poincare_deficit(sphere.ZonalField(args.N, coeffs), args.q, quad_))
    eps = np.logspace(-3, -1, 9)
    deficits = np.empty(len(eps))
    for i, e in enumerate(eps):
        coeffs = np.zeros(args.l_max + 1)
        coeffs[0] = 1.0
        coeffs[1] = e
        deficits[i] = sphere.poincare_deficit(sphere.ZonalField(args.N, coeffs), args.q, quad_)
    above = deficits > 1e-14  # ~45 ulps of the unit-size terms whose difference a deficit is: roundoff below
    if np.count_nonzero(above) < 3:
        raise NumericsError(f"near-constant deficits at q={args.q} are at roundoff: no slope to fit")
    slope = float(np.polyfit(np.log(eps[above]), np.log(deficits[above]), 1)[0])
    passed = worst >= -1e-10 and slope >= 2.9
    return {
        "N": args.N,
        "q": args.q,
        "samples": args.samples,
        "min_deficit": worst,
        "near_constant_slope": slope,
    }, passed


def _fuzz_field(grid, N, L_max, rng):
    """Strictly positive smooth bump CylField with bounded angular content."""
    import numpy as np
    from . import cylinder as cyl
    s = grid.nodes()
    g = np.zeros(grid.n)
    for _ in range(rng.integers(1, 4)):
        c = rng.uniform(-0.4 * grid.S, 0.4 * grid.S)
        w = rng.uniform(0.6, 2.5)
        g += rng.uniform(0.2, 1.0) * np.exp(-((s - c) ** 2) / (2 * w * w))
    quad_, B = cyl._angular(N, L_max)
    ang_coeffs = rng.standard_normal(L_max) * (0.3 ** np.arange(1, L_max + 1))
    m = 1.0 + B[:, 1:] @ ang_coeffs
    m = np.maximum(m, 0.05)
    return cyl.CylField.from_nodal(grid, N, L_max, np.outer(g, m))


def _slacks(rep) -> list:  # of a cylinder.ChainReport
    return [rep.slack_lt, rep.slack_schwarz, rep.slack_hoelder2p, rep.slack_poincare, rep.slack_hoelder]


def _verify_chain(args):
    import numpy as np
    from . import cylinder as cyl, schrodinger
    if args.fuzz < 1:
        raise DomainError(f"need --fuzz >= 1, got {args.fuzz}: no fuzz field is no evidence")
    check_L_max(args.l_max, 0, "--l-max")
    grid = schrodinger.LineGrid(args.S, args.n)
    u_star = cyl.extremal_field(grid, args.N, args.l_max, args.Lambda, args.p)
    at_star = cyl.proof_chain(u_star, args.Lambda, args.p)
    slacks_star = _slacks(at_star)
    rng = np.random.default_rng(args.seed)
    min_slack = math.inf
    for _ in range(args.fuzz):
        u = _fuzz_field(grid, args.N, args.l_max, rng)
        min_slack = min(min_slack, *_slacks(cyl.proof_chain(u, args.Lambda, args.p)))
    passed = (
        max(abs(x) for x in slacks_star) <= 1e-6
        and abs(at_star.D - args.Lambda) <= 1e-6
        and min_slack >= -1e-8
    )
    return {
        "Lambda": args.Lambda,
        "p": args.p,
        "N": args.N,
        "slacks_at_extremal": slacks_star,
        "D_at_extremal": at_star.D,
        "fuzz_min_slack": min_slack,
    }, passed


def _verify_lambdacond(args):
    defect = cf.lt_identity_defect(args.Lambda, args.p)
    return {"Lambda": args.Lambda, "p": args.p, "defect": defect}, defect < 1e-8


def _verify_fs(args):
    from . import cylinder as cyl
    expected = params.lambda_fs(args.p, args.N)
    measured = cyl.fs_threshold(args.p, args.N)
    rel = abs(measured - expected) / expected
    return {
        "p": args.p,
        "N": args.N,
        "expected": expected,
        "measured": measured,
        "rel_error": rel,
    }, rel <= 5e-3


def _verify_minimize(args):
    from . import cylinder as cyl, schrodinger
    l_max = cyl.DEFAULT_L_MAX if args.l_max is None else args.l_max
    check_L_max(l_max, 1, "--l-max")
    theta = args.theta if args.theta is not None else 1.0
    S = cyl.DEFAULT_GRID.S if args.S is None else args.S  # the rule sizes n in an explicit --S; an explicit --n wins
    grid = cyl._grid_for(args.p, args.Lambda, theta, S) if args.n is None else schrodinger.LineGrid(S, args.n)
    radial = cyl.extremal_field(grid, args.N, l_max, args.Lambda, args.p, theta)
    # the theta = 1 gate needs K*, so 2 < p < 6: refuse before the flow, not after it
    k_star = cf.radial_interp_constant(1.0, args.Lambda, args.p) if theta == 1.0 else None
    q_star = cyl.rayleigh(radial, args.Lambda, args.p, theta)
    rep = cyl.minimize_quotient(radial, args.Lambda, args.p, theta, cyl.MinimizeOpts(multistart=True))
    payload = rep.to_dict()
    payload["quotient_radial"] = q_star
    payload["symmetry_broken"] = rep.broken
    payload.update(S=grid.S, n=grid.n, L_max=l_max)
    if theta < 1.0:
        return payload, rep.converged
    # at theta = 1 the extremal is radial iff Lambda <= lambda_fs (Dolbeault-Esteban-Loss), and then its constant is K*
    symmetric = args.Lambda <= params.lambda_fs(args.p, args.N)
    close = abs(rep.constant - k_star) <= 5e-3 * k_star
    passed = rep.converged and rep.broken != symmetric and (close or not symmetric)
    return payload, passed


def _verify_sandwich(args):
    from . import cylinder as cyl
    lam = args.Lambda
    if lam is None:
        lam = 0.9 * cyl.sandwich_lambda_bound(args.theta, args.p, args.N)
    rep = cyl.sandwich_check(args.theta, lam, args.p, args.N)
    return rep.to_dict(), rep.within and rep.converged


_VERIFIERS = {
    "lt": _verify_lt,
    "poincare": _verify_poincare,
    "chain": _verify_chain,
    "lambdacond": _verify_lambdacond,
    "fs": _verify_fs,
    "minimize": _verify_minimize,
    "sandwich": _verify_sandwich,
}


def cmd_verify(args) -> int:
    payload, passed = _VERIFIERS[args.check](args)
    payload = {"schema": SCHEMA, "check": args.check, **payload, "pass": bool(passed)}
    _emit(_json(payload), args.output)
    return 0 if passed else 1


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cknsharp",
        description="Sharp constants and symmetry diagnostics for weighted "
        "interpolation inequalities on the cylinder.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pc = sub.add_parser("constants", help="closed-form table at a parameter point")
    pc.add_argument("--N", type=int, default=3)
    pc.add_argument("--a", type=float)
    pc.add_argument("--b", type=float)
    pc.add_argument("--p", type=float)
    pc.add_argument("--Lambda", type=float)
    pc.add_argument("--theta", type=float)
    pc.add_argument("--gamma", type=float)
    pc.add_argument("--format", choices=("csv", "json"), default="csv")
    pc.add_argument("--output")
    pc.set_defaults(func=cmd_constants)

    pr = sub.add_parser("region-map", help="sweep the (a, b) plane and classify")
    pr.add_argument("--N", type=int, default=3)
    pr.add_argument("--a-min", type=float, default=-1.0)
    pr.add_argument("--a-max", type=float, default=0.4)
    pr.add_argument("--b-min", type=float, default=-1.0)
    pr.add_argument("--b-max", type=float, default=1.0)
    pr.add_argument("--na", type=int, default=100)
    pr.add_argument("--nb", type=int, default=100)
    pr.add_argument("--format", choices=("csv", "json"), default="csv")
    pr.add_argument("--output")
    pr.set_defaults(func=cmd_region_map)

    pv = sub.add_parser("verify", help="run a verification and report pass/fail")
    vsub = pv.add_subparsers(dest="check", required=True)

    v_lt = vsub.add_parser("lt", help="equality case of the spectral bound")
    v_lt.add_argument("--gamma", type=float, required=True)
    v_lt.add_argument("--S", type=float, help="box half-width (default max(20, 8/(gamma - 1/2)))")
    v_lt.add_argument("--n", type=int, help=f"interior nodes (default ceil(400 S), at most {GRID_N_CAP})")

    v_po = vsub.add_parser("poincare", help="sphere inequality deficits")
    v_po.add_argument("--N", type=int, default=3)
    v_po.add_argument("--q", type=float, required=True)
    v_po.add_argument("--samples", type=int, default=1000)
    v_po.add_argument("--l-max", type=int, default=8)

    v_ch = vsub.add_parser("chain", help="proof-chain slacks at and off the extremal")
    v_ch.add_argument("--N", type=int, default=3)
    v_ch.add_argument("--p", type=float, required=True)
    v_ch.add_argument("--Lambda", type=float, required=True)
    v_ch.add_argument("--fuzz", type=int, default=100)
    v_ch.add_argument("--S", type=float, default=15.0)
    v_ch.add_argument("--n", type=int, default=599)
    v_ch.add_argument("--l-max", type=int, default=6)

    v_lc = vsub.add_parser("lambdacond", help="potential-norm identity defect")
    v_lc.add_argument("--Lambda", type=float, required=True)
    v_lc.add_argument("--p", type=float, required=True)

    v_fs = vsub.add_parser("fs", help="instability threshold recovery")
    v_fs.add_argument("--p", type=float, required=True)
    v_fs.add_argument("--N", type=int, default=3)

    v_mi = vsub.add_parser("minimize", help="quotient minimization diagnostics")
    v_mi.add_argument("--N", type=int, default=3)
    v_mi.add_argument("--p", type=float, required=True)
    v_mi.add_argument("--Lambda", type=float, required=True)
    v_mi.add_argument("--theta", type=float)
    v_mi.add_argument("--S", type=float)  # defaults read from cylinder: DEFAULT_GRID.S, _grid_for's n, DEFAULT_L_MAX
    v_mi.add_argument("--n", type=int)
    v_mi.add_argument("--l-max", type=int)

    v_sa = vsub.add_parser("sandwich", help="two-sided bound for theta < 1")
    v_sa.add_argument("--N", type=int, default=3)
    v_sa.add_argument("--p", type=float, required=True)
    v_sa.add_argument("--theta", type=float, required=True)
    v_sa.add_argument("--Lambda", type=float)

    for sp in (v_po, v_ch, v_mi, v_sa):
        sp.add_argument("--seed", type=int, default=7, help="seed of the fuzz of chain and poincare; accepted and "
                        "unused by minimize and sandwich, whose flow draws nothing at random")
    for sp in (v_lt, v_po, v_ch, v_lc, v_fs, v_mi, v_sa):
        sp.add_argument("--output")
    pv.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "verify" and args.check != "lambdacond":  # the other commands load no NumPy
            import numpy as np
            with np.errstate(all="ignore"):  # no NumPy warning lines on stderr: the output guards refuse non-finite
                return args.func(args)
        return args.func(args)
    except (DomainError, NumericsError, ArithmeticError) as exc:
        if isinstance(exc, ArithmeticError):  # overflow, division by zero: name the input
            exc = f"{type(exc).__name__} ({exc}) at: {' '.join(sys.argv[1:] if argv is None else argv)}"
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
