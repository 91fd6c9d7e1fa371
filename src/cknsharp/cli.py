"""Command-line front end: closed-form tables, region sweeps, verifications.

Every command is reproducible: identical flags (including --seed) produce
byte-identical output.  Numeric output carries 12 significant digits.
Exit codes: 0 = pass, 1 = a verification failed, 2 = bad input (usage, domain,
or an arithmetic fault), with exactly one ``error:`` line on stderr.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import sys

import numpy as np

from . import closed_forms as cf
from . import cylinder as cyl
from . import params, schrodinger, sphere
from .closed_forms import quad
from .errors import DomainError, NumericsError

SCHEMA = 1


def _fmt(x) -> str:
    return f"{x:.12g}"


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
    row("b_fs", params.b_fs(pt.a, N))
    row("b_sym", params.b_sym(pt.a, N))
    row("lambda_fs", params.lambda_fs(p, N))
    if p < 6:
        row("lambda_sym", params.lambda_sym(p, N))
    row("theta_min", params.theta_min(p, N))
    try:
        gamma, q = params.chain_exponents(p, theta)
        row("gamma", gamma)
        row("q", q)
        row("c_lt", cf.lt_constant(gamma))
    except DomainError:
        pass  # chain exponents degenerate at the critical p; table continues
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
        row("radial_constant", cf.radial_constant(lam, p, N))
        # independent variational route: (|S^(N-1)| int u_star^p ds)^(-(p-2)/p) with u_star = A sech(B s)^(2/(p-2));
        # the amplitude is carried exactly, A^(-(p-2)) = 2/(p Lambda), since A^p leaves the float range near p = 2
        B, a = cf.profile_constants(lam, p, 1.0).B, 2 * p / (p - 2)
        integral = quad(lambda s: np.cosh(B * s) ** -a, 1.0 / (B * math.sqrt(a)))
        row("radial_constant_variational",
            cf.sphere_area(N) ** (-(p - 2) / p) * (2 / (p * lam)) * integral ** (-(p - 2) / p), "oracle", 1.0)
        row("radial_constant_alt", cf.radial_constant_alt(lam, p, N), "paper_typo_flag")
        row("k_interp_coefficient", cf.radial_interp_coefficient(theta, p))
        row("k_interp_constant", cf.radial_interp_constant(theta, lam, p))
        row("gap_factor", cf.gap_factor(p, theta))
        row("lt_identity_defect", cf.lt_identity_defect(lam, p), "oracle", 1.0)
    return rows


def cmd_constants(args) -> int:
    rows = _constants_rows(args)
    bad = [name for name, *_, value, _ in rows if not math.isfinite(value)]
    if bad:
        raise NumericsError(f"non-finite value of {bad[0]} in the output")
    if args.format == "json":
        payload = {
            "schema": SCHEMA,
            "rows": [
                {
                    "name": name,
                    "p": pv,
                    "Lambda": lv,
                    "theta": tv,
                    "N": nv,
                    "value": value,
                    "provenance": prov,
                }
                for name, pv, lv, tv, nv, value, prov in rows
            ],
        }
        _emit(_json(payload), args.output)
    else:
        buf = io.StringIO()
        buf.write("name,p,Lambda,theta,N,value,provenance\n")
        for name, pv, lv, tv, nv, value, prov in rows:
            cells = [name] + [(_fmt(x) if x != "" else "") for x in (pv, lv, tv)]
            cells.append(str(nv) if nv != "" else "")
            cells += [_fmt(value), prov]
            buf.write(",".join(cells) + "\n")
        _emit(buf.getvalue(), args.output)
    return 0


# ---------------------------------------------------------------------------
# region map

def cmd_region_map(args) -> int:
    records = params.region_map(
        args.N, (args.a_min, args.a_max), (args.b_min, args.b_max), (args.na, args.nb)
    )
    if args.format == "json":
        _emit(params.region_map_json(records) + "\n", args.output)
    else:
        _emit(params.region_map_csv(records), args.output)
    return 0


# ---------------------------------------------------------------------------
# verify subcommands: each returns (payload dict, passed bool)

def _verify_lt(args):
    grid = schrodinger.LineGrid(args.S, args.n)
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


def _check_l_max(l_max: int, lo: int) -> None:
    if l_max < lo:
        raise DomainError(f"need L_max >= {lo}, got --l-max {l_max}")


def _verify_poincare(args):
    _check_l_max(args.l_max, 1)
    if args.samples < 1:
        raise DomainError(f"need --samples >= 1, got {args.samples}: no sample is no evidence")
    rng = np.random.default_rng(args.seed)
    quad_ = sphere.default_quadrature(args.N, args.l_max)
    worst = math.inf
    for _ in range(args.samples):
        coeffs = rng.standard_normal(args.l_max + 1)
        worst = min(worst, sphere.poincare_deficit(sphere.ZonalField(args.N, coeffs), args.q, quad_))
    eps = np.logspace(-3, -1, 9)
    deficits = []
    for e in eps:
        coeffs = np.zeros(args.l_max + 1)
        coeffs[0] = 1.0
        coeffs[1] = e
        deficits.append(sphere.poincare_deficit(sphere.ZonalField(args.N, coeffs), args.q, quad_))
    slope = float(np.polyfit(np.log(eps), np.log(deficits), 1)[0])
    passed = worst >= -1e-10 and slope >= 2.9
    return {
        "N": args.N,
        "q": args.q,
        "samples": args.samples,
        "min_deficit": worst,
        "near_constant_slope": slope,
    }, passed


def _fuzz_field(grid, N, L_max, rng) -> cyl.CylField:
    """Strictly positive smooth bump field with bounded angular content."""
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


def _slacks(rep: cyl.ChainReport) -> list:
    return [rep.slack_lt, rep.slack_schwarz, rep.slack_hoelder2p, rep.slack_poincare, rep.slack_hoelder]


def _verify_chain(args):
    if args.fuzz < 1:
        raise DomainError(f"need --fuzz >= 1, got {args.fuzz}: no fuzz field is no evidence")
    _check_l_max(args.l_max, 0)
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
    _check_l_max(args.l_max, 1)
    theta = args.theta if args.theta is not None else 1.0
    grid = schrodinger.LineGrid(args.S, args.n)
    radial = cyl.extremal_field(grid, args.N, args.l_max, args.Lambda, args.p, theta)
    # the theta = 1 gates need lambda_sym, so 2 < p < 6: refuse before the flow, not after it
    lam_sym = params.lambda_sym(args.p, args.N) if theta == 1.0 else None
    q_star = cyl.rayleigh(radial, args.Lambda, args.p, theta)
    start = radial.copy()
    start.data[:, 1] = 0.1 * start.data[:, 0]
    rep = cyl.minimize_quotient(start, args.Lambda, args.p, theta,
                                cyl.MinimizeOpts(seed=args.seed))
    broken = rep.angular_fraction > 1e-3
    payload = rep.to_dict()
    payload["quotient_radial"] = q_star
    payload["symmetry_broken"] = broken
    if theta == 1.0 and args.Lambda <= lam_sym:
        k_star = cf.radial_interp_constant(1.0, args.Lambda, args.p)
        passed = rep.converged and abs(rep.constant - k_star) <= 5e-3 * k_star and rep.angular_fraction < 1e-6
    elif theta == 1.0 and args.Lambda > params.lambda_fs(args.p, args.N):
        passed = rep.converged and rep.quotient <= 0.99 * q_star and broken
    else:
        passed = rep.converged
    return payload, passed


def _verify_sandwich(args):
    lam = args.Lambda
    if lam is None:
        lam = 0.9 * cyl.sandwich_lambda_bound(args.theta, args.p, args.N) if args.theta < 1 \
            else 0.9 * params.lambda_sym(args.p, args.N)
    rep = cyl.sandwich_check(args.theta, lam, args.p, args.N,
                             opts=cyl.MinimizeOpts(multistart=True, seed=args.seed))
    payload = rep.to_dict()
    if rep.limit_case:
        payload["q"] = None  # the sphere exponent degenerates (q = inf) at theta_min
    return payload, rep.within and rep.converged


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
    v_lt.add_argument("--S", type=float, default=20.0)
    v_lt.add_argument("--n", type=int, default=8000)

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
    v_ch.add_argument("--n", type=int, default=600)
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
    v_mi.add_argument("--S", type=float, default=20.0)
    v_mi.add_argument("--n", type=int, default=2000)
    v_mi.add_argument("--l-max", type=int, default=8)

    v_sa = vsub.add_parser("sandwich", help="two-sided bound for theta < 1")
    v_sa.add_argument("--N", type=int, default=3)
    v_sa.add_argument("--p", type=float, required=True)
    v_sa.add_argument("--theta", type=float, required=True)
    v_sa.add_argument("--Lambda", type=float)

    for sp in (v_po, v_ch, v_mi, v_sa):
        sp.add_argument("--seed", type=int, default=7)
    for sp in (v_lt, v_po, v_ch, v_lc, v_fs, v_mi, v_sa):
        sp.add_argument("--output")
    pv.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # no NumPy warning lines on stderr: the output guards refuse a non-finite result
        with np.errstate(all="ignore"):
            return args.func(args)
    except (DomainError, NumericsError, ArithmeticError) as exc:
        if isinstance(exc, ArithmeticError):  # overflow, division by zero: name the input
            exc = f"{type(exc).__name__} ({exc}) at: {' '.join(sys.argv[1:] if argv is None else argv)}"
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
