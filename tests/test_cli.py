"""Command-line interface: output contracts, exit codes, determinism."""

import csv
import io
import json
import math
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from cknsharp import DomainError, cli
from cknsharp import closed_forms as cf
from cknsharp.cli import main

SRC = Path(__file__).resolve().parents[1] / "src"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_constants_table(capsys):
    code, out, _ = run_cli(capsys, "constants", "--N", "3", "--a", "-0.5", "--b", "0")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "name,p,Lambda,theta,N,value,provenance"
    table = {row.split(",")[0]: row.split(",") for row in lines[1:]}
    assert float(table["radial_constant"][5]) == pytest.approx(0.22275, abs=1e-4)
    assert table["radial_constant_alt"][6] == "paper_typo_flag"
    assert float(table["radial_constant_alt"][5]) == pytest.approx(1.2040, abs=1e-3)
    assert table["radial_constant_variational"][6] == "oracle"
    assert float(table["c_lt"][5]) == pytest.approx(5.0 / 36.0, abs=1e-10)


def test_constants_cylinder_flags_and_json(capsys):
    code, out, _ = run_cli(capsys, "constants", "--N", "3", "--p", "3", "--Lambda", "1", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == 1
    names = {row["name"]: row for row in payload["rows"]}
    assert names["a"]["value"] == pytest.approx(-0.5)
    assert names["b"]["value"] == pytest.approx(0.0, abs=1e-12)


def test_constants_gamma_only(capsys):
    code, out, _ = run_cli(capsys, "constants", "--gamma", "2.5")
    assert code == 0
    assert "c_lt" in out
    assert f"{5/36:.12g}"[:10] in out


def test_constants_conflicting_flags(capsys):
    code, _, err = run_cli(capsys, "constants", "--a", "-0.5", "--b", "0", "--p", "3", "--Lambda", "1")
    assert code == 2
    assert "error" in err


def test_constants_missing_point(capsys):
    code, _, err = run_cli(capsys, "constants", "--N", "3")
    assert code == 2
    assert "required" in err


def test_region_map_deterministic_and_consistent(capsys):
    args = ("region-map", "--N", "3", "--na", "25", "--nb", "25")
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2  # byte-identical
    rows = [line.split(",") for line in out1.splitlines()[1:]]
    from cknsharp import b_sym

    for a_str, b_str, region in rows:
        a, b = float(a_str), float(b_str)
        if region == "SymmetryBroken":
            assert a < 0
            assert b < b_sym(a, 3)


def test_region_map_contains_known_point(capsys):
    code, out, _ = run_cli(
        capsys, "region-map", "--N", "3",
        "--a-min", "-0.5", "--a-max", "-0.5", "--b-min", "0", "--b-max", "0", "--na", "1", "--nb", "1",
    )
    assert code == 0
    assert "-0.5,0,SymmetricProven" in out


def test_verify_lambdacond(capsys):
    code, out, _ = run_cli(capsys, "verify", "lambdacond", "--Lambda", "1", "--p", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["pass"] is True
    assert payload["schema"] == 1
    assert payload["defect"] < 1e-8


def test_verify_lt(capsys):
    code, out, _ = run_cli(capsys, "verify", "lt", "--gamma", "2.5", "--n", "4000")
    assert code == 0
    payload = json.loads(out)
    assert payload["pass"] is True
    assert payload["measured"] == pytest.approx(4.0, rel=1e-4)
    assert payload["ratio"] == pytest.approx(1.0, abs=2e-3)


def test_verify_fs(capsys):
    code, out, _ = run_cli(capsys, "verify", "fs", "--p", "3", "--N", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["expected"] == pytest.approx(1.6)
    assert payload["measured"] == pytest.approx(1.6, rel=5e-3)


def test_verify_minimize_breaking(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "minimize", "--N", "3", "--p", "3", "--Lambda", "3", "--n", "1000",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["symmetry_broken"] is True


@pytest.mark.parametrize("flag,value", [("--Lambda", "nan"), ("--Lambda", "inf"), ("--p", "nan"), ("--theta", "nan")])
def test_verify_minimize_rejects_non_finite_parameters(capsys, flag, value):
    point = {"--p": "3", "--Lambda": "1", flag: value}
    argv = [x for item in point.items() for x in item]
    code, out, err = run_cli(capsys, "verify", "minimize", "--N", "3", *argv)
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error:")


@pytest.mark.parametrize("l_max", ["0", "-1"])
def test_verify_minimize_needs_a_degree_one_mode(capsys, l_max):
    code, out, err = run_cli(capsys, "verify", "minimize", "--N", "3", "--p", "3", "--Lambda", "1", "--l-max", l_max)
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error:") and "L_max >= 1" in err


# bad input that used to leak through as a traceback, exit 1 or non-finite output:
# argv -> (the exception the command raises, a token the one error line must name)
_REPROS = {
    ("verify", "chain", "--N", "3", "--p", "3", "--Lambda", "1", "--S", "nan", "--fuzz", "2"): (DomainError, "S=nan"),
    ("verify", "minimize", "--p", "3", "--Lambda", "1", "--S", "inf"): (DomainError, "S=inf"),
    ("verify", "lt", "--gamma", "2", "--S", "nan"): (DomainError, "S=nan"),
    ("constants", "--N", "3", "--p", "3", "--Lambda", "1", "--theta", "nan"): (DomainError, "theta=nan"),
    ("constants", "--N", "3", "--p", "5", "--Lambda", "2", "--theta", "0.7"): (DomainError, "theta=0.7"),
    ("constants", "--p", "3", "--Lambda", "nan"): (DomainError, "Lambda=nan"),
    ("constants", "--p", "nan", "--Lambda", "1"): (DomainError, "p=nan"),
    ("region-map", "--a-min", "nan", "--na", "3", "--nb", "3"): (DomainError, "[nan, "),
    ("region-map", "--b-max", "inf", "--format", "json"): (DomainError, ", inf]"),
    ("constants", "--p", "2.001", "--Lambda", "10"): (ArithmeticError, "--Lambda 10"),
    ("verify", "fs", "--p", "2.0000001"): (ArithmeticError, "--p 2.0000001"),
    ("verify", "lt", "--gamma", "2", "--S", "1e-300", "--n", "64"): (ArithmeticError, "--S 1e-300"),
    ("verify", "chain", "--p", "3", "--Lambda", "1", "--S", "1e300", "--n", "64", "--fuzz", "1"): (DomainError, "S=1e+300"),
    ("verify", "chain", "--p", "3", "--Lambda", "1", "--n", "64", "--fuzz", "1", "--l-max", "-1"): (DomainError, "--l-max -1"),
    ("verify", "poincare", "--q", "3", "--samples", "2", "--l-max", "0"): (DomainError, "--l-max 0"),
    ("verify", "lambdacond", "--Lambda", "1", "--p", "3", "--output", "/nonexistent/x.json"):
        (DomainError, "--output /nonexistent/x.json"),
}


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "chain", "--N", "3", "--p", "3", "--Lambda", "1", "--fuzz", "0", "--n", "300"),
        ("verify", "chain", "--N", "3", "--p", "3", "--Lambda", "1", "--fuzz", "-1", "--n", "300"),
        ("verify", "poincare", "--N", "3", "--q", "3", "--samples", "0"),
        ("constants", "--gamma", "nan"),
        ("constants", "--gamma", "inf"),
        ("verify", "lambdacond", "--Lambda", "nan", "--p", "3"),
        ("verify", "lambdacond", "--Lambda", "inf", "--p", "3"),
        ("verify", "lambdacond", "--Lambda", "1", "--p", "nan"),
        ("verify", "poincare", "--N", "3", "--q", "nan", "--samples", "5"),
        ("verify", "poincare", "--N", "3", "--q", "inf", "--samples", "5"),
        ("verify", "lt", "--gamma", "nan", "--n", "400"),
        ("verify", "lt", "--gamma", "inf", "--n", "400"),
        *_REPROS,
    ],
)
def test_no_evidence_and_non_finite_inputs_exit_2(capsys, argv):
    raised, named = _REPROS.get(argv, (DomainError, ""))
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error:")
    assert named in err
    # the input check itself refuses, not a later numerical failure; an
    # arithmetic fault is mapped to exit 2 only at the CLI boundary
    args = cli.build_parser().parse_args(list(argv))
    with pytest.raises(raised):
        args.func(args)


@pytest.mark.parametrize("Lambda", ["1e-300", "1e100", "1e300"])
def test_verify_lambdacond_is_scale_free(capsys, Lambda):
    code, out, _ = run_cli(capsys, "verify", "lambdacond", "--Lambda", Lambda, "--p", "3")
    assert code == 0
    assert json.loads(out)["defect"] < 1e-8


def test_verify_lambdacond_passes_near_p_2(capsys):
    # the peak of sech^a narrows as a = 2p/(p-2) grows; an adaptive rule on a
    # fixed window missed it and reported a defect of 1
    code, out, _ = run_cli(capsys, "verify", "lambdacond", "--Lambda", "1", "--p", "2.0001")
    assert code == 0
    assert json.loads(out)["defect"] < 1e-8


@pytest.mark.parametrize("p", [2.0001, 2.001, 2.05, 2.15, 2.5, 2.85, 3.0, 4.2, 5.999])
def test_variational_route_matches_the_radial_constant(p, capsys):
    for Lambda in [10.0**k for k in range(-3, 4)] + [1e300]:
        argv = ["constants", "--N", "3", "--p", repr(p), "--Lambda", repr(Lambda)]
        try:
            cf.profile_constants(Lambda, p)
        except OverflowError:
            # near p = 2 the amplitude (p Lambda/2)^(1/(p-2)) itself leaves the float range
            code, out, err = run_cli(capsys, *argv)
            assert (code, out, len(err.splitlines())) == (2, "", 1), Lambda
            continue
        rows = {name: value for name, *_, value, _ in cli._constants_rows(cli.build_parser().parse_args(argv))}
        assert rows["radial_constant_variational"] == pytest.approx(rows["radial_constant"], rel=1e-10), Lambda


def test_verify_minimize_refuses_p_6_before_the_flow(capsys, monkeypatch):
    calls = []
    monkeypatch.setattr(cli.cyl, "minimize_quotient", lambda *args, **kwargs: calls.append(args))
    code, out, err = run_cli(capsys, "verify", "minimize", "--N", "2", "--p", "7", "--Lambda", "1", "--n", "100",
                             "--l-max", "2")
    assert (code, out, err) == (2, "", "error: need 2 < p < 6, got p=7.0\n")
    assert calls == []


def test_verify_lt_solves_the_eigenproblem_once(capsys, monkeypatch):
    solve = cli.schrodinger.lowest_eigenpair
    calls = []

    def counted(V):
        calls.append(V)
        return solve(V)

    monkeypatch.setattr(cli.schrodinger, "lowest_eigenpair", counted)
    code, out, _ = run_cli(capsys, "verify", "lt", "--gamma", "2.5", "--n", "2000")
    assert code == 0
    assert json.loads(out)["ratio"] == pytest.approx(1.0, abs=2e-3)
    assert len(calls) == 1


def test_verify_poincare_builds_the_basis_once(capsys, monkeypatch):
    build = cli.sphere.basis_matrix
    calls = []

    def counted(quad, L_max):
        calls.append(L_max)
        return build(quad, L_max)

    monkeypatch.setattr(cli.sphere, "basis_matrix", counted)
    code, out, _ = run_cli(capsys, "verify", "poincare", "--N", "3", "--q", "3", "--samples", "50")
    assert code == 0 and json.loads(out)["pass"] is True
    assert calls == [8]


def test_non_finite_verify_payload_exits_2(capsys, monkeypatch):
    monkeypatch.setitem(cli._VERIFIERS, "lambdacond", lambda args: ({"defect": math.nan}, True))
    code, out, err = run_cli(capsys, "verify", "lambdacond", "--Lambda", "1", "--p", "3")
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error:")


def test_non_finite_constants_json_exits_2(capsys, monkeypatch):
    monkeypatch.setattr(cli.cf, "lt_constant", lambda gamma: math.inf)
    code, out, err = run_cli(capsys, "constants", "--gamma", "2.5", "--format", "json")
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error:")


def test_sandwich_limit_case_prints_null_exponent(capsys, monkeypatch):
    # at theta_min the sphere exponent q is infinite; stdout stays strict JSON
    report = cli.cyl.SandwichReport(
        theta=0.5, Lambda=1.0, p=3.0, N=3, k_lower=0.5, k_numeric=0.6, k_upper=0.7, gap=1.2,
        gamma_theta=1.0, q=math.inf, d_value=0.7, holder_theta_slack=0.1, within=True, limit_case=True,
        converged=True,
    )
    monkeypatch.setattr(cli.cyl, "sandwich_check", lambda *args, **kwargs: report)
    code, out, _ = run_cli(capsys, "verify", "sandwich", "--N", "3", "--p", "3", "--theta", "0.5", "--Lambda", "1")
    assert code == 0
    assert json.loads(out, parse_constant=lambda token: pytest.fail(f"non-JSON token {token}"))["q"] is None


# flag -> values for the fuzz below: non-finite and extreme tokens for every
# float, small ranges for the counts, so a case costs at most a fraction of a second
_SPECIAL = ["nan", "inf", "-inf", "0", "-1", "1e-300", "1e300", "1.7e308", "5e-324", "0.5", "1", "2", "6"]
_FLOATS = {"p": (1.5, 7.5), "Lambda": (-0.5, 5.0), "theta": (-0.2, 1.3), "gamma": (0.0, 5.0), "a": (-2.0, 1.0),
           "b": (-2.0, 1.5), "q": (0.5, 12.0), "S": (-1.0, 30.0), "a-min": (-2.0, 1.0), "a-max": (-2.0, 1.0),
           "b-min": (-2.0, 1.5), "b-max": (-2.0, 1.5)}
_COUNTS = {"N": (-1, 4), "n": (-2, 400), "fuzz": (-1, 2), "samples": (-1, 3), "na": (-1, 5), "nb": (-1, 5),
           "l-max": (-1, 4), "seed": (0, 9)}
# command -> (flags always given, flags given half the time)
_COMMANDS = {
    ("constants",): ([], ["N", "a", "b", "p", "Lambda", "theta", "gamma", "format"]),
    ("region-map",): ([], ["N", "a-min", "a-max", "b-min", "b-max", "na", "nb", "format"]),
    ("verify", "lt"): (["gamma", "n"], ["S"]),
    ("verify", "poincare"): (["q", "samples"], ["N", "l-max", "seed"]),
    ("verify", "chain"): (["p", "Lambda", "fuzz", "n"], ["N", "S", "l-max", "seed"]),
    ("verify", "lambdacond"): (["Lambda", "p"], []),
    ("verify", "fs"): (["p"], ["N"]),
    ("verify", "minimize"): (["p", "Lambda", "n"], ["N", "theta", "S", "l-max", "seed"]),
    ("verify", "sandwich"): (["p", "theta"], ["N", "Lambda", "seed"]),
}


def _fuzz_argv(rng):
    command = rng.choice(list(_COMMANDS))
    always, sometimes = _COMMANDS[command]
    flags = always + [f for f in sometimes if rng.random() < 0.5]
    if command == ("constants",) and rng.random() < 0.8:  # mostly one complete point
        flags = [f for f in flags if f not in ("a", "b", "p", "Lambda")] + rng.choice([["a", "b"], ["p", "Lambda"]])
    argv = list(command)
    for f in flags:
        if f == "format":
            value = rng.choice(["csv", "json"])
        elif f in _COUNTS:
            value = str(rng.randint(*_COUNTS[f]))
        elif rng.random() < 0.35:
            value = rng.choice(_SPECIAL)
        else:
            value = repr(rng.uniform(*_FLOATS[f]))
        argv.append(f"--{f}={value}")
    return argv


def _number(cell):
    try:
        return float(cell)
    except ValueError:
        return None


def _strict_json(text):
    return json.loads(text, parse_constant=lambda token: pytest.fail(f"non-JSON token {token}"))


def test_cli_fuzz_exit_codes_and_strict_output(capsys):
    rng = random.Random(20261018)
    start = time.perf_counter()
    for _ in range(400):
        argv = _fuzz_argv(rng)
        code, out, err = run_cli(capsys, *argv)
        assert code in (0, 1, 2), argv
        if code == 2:
            assert out == "" and len(err.splitlines()) == 1 and err.startswith("error:"), (argv, err)
        elif argv[0] == "verify" or "--format=json" in argv:
            _strict_json(out)
        else:
            for row in list(csv.reader(io.StringIO(out)))[1:]:
                assert all(math.isfinite(x) for x in map(_number, row) if x is not None), (argv, row)
    assert time.perf_counter() - start <= 10.0


def test_verify_poincare(capsys):
    code, out, _ = run_cli(capsys, "verify", "poincare", "--N", "3", "--q", "3", "--samples", "100")
    assert code == 0
    payload = json.loads(out)
    assert payload["min_deficit"] >= -1e-10
    assert payload["near_constant_slope"] >= 2.9


def test_verify_chain(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "chain", "--N", "3", "--p", "3", "--Lambda", "1", "--fuzz", "20", "--n", "500",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["fuzz_min_slack"] >= -1e-8


def test_verify_failure_exit_code(capsys):
    # a deliberately coarse grid misses the 1e-4 eigenvalue tolerance
    code, out, _ = run_cli(capsys, "verify", "lt", "--gamma", "2.5", "--n", "64", "--S", "20")
    assert code == 1
    assert json.loads(out)["pass"] is False


def test_cli_writes_output_file(tmp_path, capsys):
    target = tmp_path / "out.json"
    code, out, _ = run_cli(
        capsys, "verify", "lambdacond", "--Lambda", "1", "--p", "3", "--output", str(target)
    )
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["pass"] is True


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["verify", "lt"])  # missing required --gamma
    assert exc.value.code == 2


def _scipy_modules_in_fresh_process(argv):
    """Names of the SciPy modules loaded by importing the CLI and, unless argv
    is None, running it, in a new interpreter: in this one SciPy is usually
    already imported by earlier tests."""
    code = ["import contextlib, io, json, sys", "from cknsharp.cli import main"]
    if argv is not None:
        code.append(f"with contextlib.redirect_stdout(io.StringIO()): assert main({argv!r}) == 0")
    code.append("print(json.dumps(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))))")
    proc = subprocess.run([sys.executable, "-c", "\n".join(code)], env={**os.environ, "PYTHONPATH": str(SRC)},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout))


@pytest.mark.parametrize(
    "argv",
    [
        None,
        ["constants", "--gamma", "2.5"],
        ["region-map", "--na", "5", "--nb", "5"],
        ["constants", "--N", "3", "--a", "-0.5", "--b", "0"],
        ["constants", "--N", "3", "--p", "3", "--Lambda", "1", "--format", "json"],
        ["verify", "lambdacond", "--Lambda", "1", "--p", "3"],
        ["verify", "poincare", "--N", "3", "--q", "3"],
    ],
    ids=["import", "constants-gamma", "region-map", "constants-ab", "constants-json", "lambdacond", "poincare"],
)
def test_import_and_closed_form_commands_load_no_scipy(argv):
    assert _scipy_modules_in_fresh_process(argv) == set()


def test_verify_lt_loads_only_the_eigensolver():
    loaded = _scipy_modules_in_fresh_process(["verify", "lt", "--gamma", "2.5", "--n", "2000"])
    assert "scipy.linalg" in loaded
    assert not loaded & {"scipy.integrate", "scipy.optimize", "scipy.interpolate", "scipy.fft"}
