"""One benchmark process: set up, then measure untraced or replay traced.

Protocol on stdout: the line ``READY`` once set-up (imports, input
generation, warm-up) is done, then one JSON object as the last line.  With
``--setup-only`` the process exits after ``READY``; ``run.py`` uses that to
sample set-up time several times per run.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

import numpy as np
import scipy
from scipy.special import betainc

import workloads as wl
from tracing import Tracer, per_layer_schema

# Wall time of one round, checks included, with one BLAS thread on a 2-vCPU
# Xeon at 2.1 GHz in its slower phases (it ran up to 70% faster at other
# times).  A run is a whole number of rounds, so every seed measures the same
# strata and the same number of tasks, whatever the machine's speed at the time.
NOMINAL_ROUND_S = {"cli_session": 12.5, "library_mix": 12.5}
# Fewest rounds per run: cli_session needs 2 for a tail with 10 tasks beyond it.
MIN_ROUNDS = {"cli_session": 2, "library_mix": 1}
WARMUP_ROUND = 10**6
# task kinds warmed up by short solves on their grids instead of a full run
SOLVES = ("minimize", "sandwich", "bound")
IMPORT_SAMPLES = 3


def rounds_for(workload, seconds):
    return max(MIN_ROUNDS[workload], round(seconds / NOMINAL_ROUND_S[workload]))


def warm_up(workload, seed):
    """Fill the (N, L_max) angular caches and first-call paths of the workload."""
    if workload == "cli_session":
        task = {"kind": "constants_gamma", "argv": ["constants", "--gamma", "2.5"]}
        wl.run_cli_subprocess(task, os.environ)
        wl.run_cli_inprocess(task)
        return
    seen = set()
    for task in wl.make_round(workload, seed, WARMUP_ROUND):
        if task["kind"] not in SOLVES and (task["kind"], task["N"]) not in seen:
            seen.add((task["kind"], task["N"]))
            wl.execute(task, wl.prepare(task))
    grids = [(wl.cyl.DEFAULT_GRID, wl.cyl.DEFAULT_L_MAX)] + \
        [(wl.sch.LineGrid(20.0, n), L) for n in wl.BOUND_SIZES for L in (4, 6)]
    for grid, L_max in grids:
        for N in (2, 3):
            start = wl.cyl.extremal_field(grid, N, L_max, 1.0, 3.0)
            start.data[:, 1] = 0.1 * start.data[:, 0]
            wl.cyl.minimize_quotient(start, 1.0, 3.0, 1.0, wl.cyl.MinimizeOpts(multistart=True, max_iter=3))


def run_task(workload, task, inprocess_cli=False, tracer=None):
    """Run and check one task; returns its record.  Only the program call is timed."""
    record = {"id": task["id"], "kind": task["kind"], "ok": False}
    recording = tracer.recording(task["id"]) if tracer else contextlib.nullcontext()
    try:
        inp = None if workload == "cli_session" else wl.prepare(task)
        start = time.perf_counter()
        try:
            with recording:
                if workload != "cli_session":
                    out = wl.execute(task, inp)
                elif inprocess_cli:
                    out = wl.run_cli_inprocess(task)
                else:
                    out = wl.run_cli_subprocess(task, os.environ)
        finally:
            record["s"] = time.perf_counter() - start
        if workload == "cli_session":
            wl.check_cli(task, *out)
        else:
            wl.check(task, inp, out)
        record["ok"] = True
    except wl.CheckFailed as exc:
        record["error"] = f"check: {exc}"
    except Exception:  # a failing task is reported, and the run goes on
        record["error"] = traceback.format_exc(limit=3).strip().splitlines()[-1]
    return record


def hd_quantile(values, q):
    """Harrell-Davis estimate of the q-quantile: a Beta-weighted mean of all
    order statistics, so a sample falling on either side of a gap in a
    mixed task population moves it a little instead of a lot."""
    xs = np.sort(np.asarray(values, dtype=float))
    n = xs.size
    edges = betainc(q * (n + 1), (1 - q) * (n + 1), np.arange(n + 1) / n)
    return float(np.diff(edges) @ xs)


def tail(values):
    """(value, percentile, samples) at the highest percentile that has at
    least 10 samples beyond it; the maximum below 11 samples."""
    n = len(values)
    if n < 11:
        return max(values), 100.0, n
    q = (n - 10) / n
    return hd_quantile(values, q), 100.0 * q, n


def measure(workload, rounds):
    """Run the pre-generated rounds back to back."""
    records = [run_task(workload, task) for tasks in rounds for task in tasks]
    usage = resource.RUSAGE_CHILDREN if workload == "cli_session" else resource.RUSAGE_SELF
    times = [rec["s"] for rec in records if "s" in rec]
    passed = sum(rec["ok"] for rec in records)
    value, pct, n = tail(times)
    metrics = {
        "tasks_per_s": (passed / sum(times), "1/s"),
        "task_p50_s": (hd_quantile(times, 0.5), "s"),
        "task_tail_s": (value, "s"),
        "peak_rss_mb": (resource.getrusage(usage).ru_maxrss / 1024.0, "MB"),
    }
    return records, metrics, {"task_tail_percentile": pct, "task_samples": n}


def _timed_runs(cmd):
    """IMPORT_SAMPLES fresh runs of cmd as (wall seconds, stdout) pairs."""
    runs = []
    for _ in range(IMPORT_SAMPLES):
        start = time.perf_counter()
        out = subprocess.run(cmd, env=os.environ, capture_output=True, text=True, check=True, timeout=60).stdout
        runs.append((time.perf_counter() - start, out))
    return runs


def import_costs():
    """(median in-interpreter `import cknsharp` time, median bare interpreter wall time)."""
    code = "import time; t = time.perf_counter(); import cknsharp; print(time.perf_counter() - t)"
    imports = [float(out) for _, out in _timed_runs([sys.executable, "-c", code])]
    bare = [wall for wall, _ in _timed_runs([sys.executable, "-c", "pass"])]
    return statistics.median(imports), statistics.median(bare)


def trace_run(workload, seed, out_dir):
    """Replay a fixed task list untraced, then traced; per-layer numbers only."""
    tasks = wl.first_tasks(workload, seed, wl.TRACE_TASKS[workload])
    untraced = [run_task(workload, t, inprocess_cli=True) for t in tasks]
    tracer = Tracer()
    tracer.install()
    try:
        lost = tracer.lost_bindings()
        traced = [run_task(workload, t, inprocess_cli=True, tracer=tracer) for t in tasks]
    finally:
        tracer.remove()
    layer = tracer.per_layer()
    layer["trace.overhead_s"] = sum(r.get("s", 0.0) for r in traced) - sum(r.get("s", 0.0) for r in untraced)
    layer["cli.import_s"], layer["cli.interp_s"] = import_costs()
    tracer.write(out_dir / f"{workload}_seed{seed}.spans.jsonl")
    records = untraced + traced
    if lost:
        records.append({"id": "trace:bindings", "kind": "binding", "ok": False, "error": f"unwrapped: {lost}"})
    units = {name: unit for name, unit, _ in per_layer_schema()}
    return records, {name: (value, units[name]) for name, value in layer.items()}, {"trace_tasks": len(tasks)}


def provenance(workload, seed, records):
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    caps = {k: os.environ.get(k) for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
    return {
        "workload": workload,
        "why": next(w["why"] for w in spec["workloads"] if w["name"] == workload),
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "thread_caps": caps,
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "loop": "closed",
        "clients": 1,
        "task_mix": dict(Counter({rec["id"]: rec["kind"] for rec in records}.values())),
    }


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--out-dir", required=True)
    args = ap.parse_args(argv)

    rounds = [wl.make_round(args.workload, args.seed, r) for r in range(rounds_for(args.workload, args.seconds))]
    warm_up(args.workload, args.seed)
    print("READY", flush=True)
    if args.setup_only:
        return 0
    out_dir = Path(args.out_dir)
    if args.trace:
        records, metrics, extra = trace_run(args.workload, args.seed, out_dir)
    else:
        records, metrics, extra = measure(args.workload, rounds)
    failures = [rec for rec in records if not rec["ok"]]
    print(json.dumps({
        "attempted": len(records),
        "failed": len(failures),
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
        "extra": extra,
        "failures": failures,
        "provenance": provenance(args.workload, args.seed, records),
        "records": records,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
