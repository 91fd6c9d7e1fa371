"""Self-test of the benchmark (not part of the package's test suite).

    PYTHONPATH=src python -m pytest perfbench -q

Checks that a seed fixes the inputs, that the tracer reaches every binding
of every traced function, that each traced function is called on the
workload expected to exercise it, that the machine-independent counts repeat
exactly for the same seed, and that the benchmark refuses to run without the
program.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads as wl  # noqa: E402
from tracing import TARGETS, Tracer, per_layer_schema  # noqa: E402

# traced functions each workload's trace replay must reach
EXPECTED = {
    "cli_session": (
        "cli.main", "cli.quad", "params.classify", "params.region_map", "closed_forms.lt_constant",
        "closed_forms.radial_interp_constant", "closed_forms.lt_identity_defect", "closed_forms.quad",
        "schrodinger.lowest_eigenpair", "schrodinger.lt_ratio", "schrodinger.eigh_tridiagonal",
        "sphere.basis_matrix", "sphere.field_from_nodal", "sphere.poincare_deficit",
        "cylinder.minimize_quotient", "cylinder.rayleigh", "cylinder.dst", "cylinder.brentq",
        "cylinder.proof_chain", "cylinder.second_variation_mode", "cylinder.fs_threshold",
        "cylinder.sandwich_check",
    ),
    "library_mix": (
        "params.classify", "params.region_map", "closed_forms.lt_constant", "closed_forms.radial_interp_constant",
        "closed_forms.lt_identity_defect", "closed_forms.quad", "schrodinger.lowest_eigenpair",
        "schrodinger.lt_ratio", "schrodinger.eigh_tridiagonal", "sphere.basis_matrix", "sphere.field_from_nodal",
        "sphere.poincare_deficit", "cylinder.minimize_quotient", "cylinder.rayleigh", "cylinder.dst",
        "cylinder.brentq", "cylinder.quad", "cylinder.proof_chain", "cylinder.second_variation_mode",
        "cylinder.fs_threshold", "cylinder.eigenvalue_bound", "cylinder.sandwich_check",
        "cylinder.emden_fowler_pushforward",
    ),
}

DETERMINISTIC = ("cylinder.dst.calls", "cylinder.rayleigh.calls", "cylinder.flow_iters",
                 "cylinder.minimize_quotient.per_bound", "sphere.basis_matrix.calls")


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True,
                          timeout=600)


def test_seed_fixes_inputs():
    for w in wl.WORKLOADS:
        assert [wl.make_round(w, 5, r) for r in range(3)] == [wl.make_round(w, 5, r) for r in range(3)]
        assert wl.make_round(w, 5, 0) != wl.make_round(w, 6, 0)


def test_every_target_is_expected_somewhere():
    assert {m for m, *_ in TARGETS} == set().union(*EXPECTED.values())


def test_tracer_wraps_every_binding_and_restores_it():
    import cknsharp
    import cknsharp.cylinder as cyl

    originals = (cyl.lowest_eigenpair, cknsharp.minimize_quotient, cyl.radial_interp_constant, cyl.dst)
    tracer = Tracer()
    tracer.install()
    try:
        assert tracer.lost_bindings() == []
        wrapped = (cyl.lowest_eigenpair, cknsharp.minimize_quotient, cyl.radial_interp_constant, cyl.dst)
        assert all(w is not o for w, o in zip(wrapped, originals))
    finally:
        tracer.remove()
    assert (cyl.lowest_eigenpair, cknsharp.minimize_quotient, cyl.radial_interp_constant, cyl.dst) == originals


@pytest.fixture(scope="module")
def traced_pairs():
    """Two traced runs with the same seed per workload."""
    pairs = {}
    for w in wl.WORKLOADS:
        runs = []
        for _ in range(2):
            proc = _bench("--workload", w, "--seed", "3", "--seconds", "1", "--trace", "1")
            assert proc.returncode == 0, proc.stderr
            runs.append(json.loads(proc.stdout.strip().splitlines()[-1]))
        pairs[w] = runs
    return pairs


def test_traced_runs_check_out_and_report_every_layer(traced_pairs):
    names = {name for name, _, _ in per_layer_schema()}
    for w, runs in traced_pairs.items():
        for res in runs:
            assert res["correct"] and res["failed"] == 0, w
            assert set(res["metrics"]) == names, w


def test_expected_functions_are_called(traced_pairs):
    for w, runs in traced_pairs.items():
        metrics = runs[0]["metrics"]
        missing = [f for f in EXPECTED[w] if metrics[f"{f}.calls"]["value"] == 0]
        assert missing == [], f"{w}: no calls to {missing}"


def test_counts_repeat_exactly(traced_pairs):
    for w, (first, second) in traced_pairs.items():
        for name in DETERMINISTIC:
            assert first["metrics"][name] == second["metrics"][name], (w, name)


def test_refuses_without_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _bench("--workload", "library_mix", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == per_layer_schema()
