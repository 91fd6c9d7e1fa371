"""cknsharp benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src/``.
``--trace 0`` samples set-up time SETUPS times (fresh worker processes) and
runs whole rounds of the workload in a closed loop with one client, as many
as fill about S seconds on the reference machine, printing the end-to-end
metrics.  ``--trace 1`` replays a fixed task list
untraced and then traced, printing the per-layer metrics.  Every task's
output is checked; the last stdout line is the JSON result, and per-task
records, provenance and spans go to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUPS = 3
WORKER_TIMEOUT_S = 170.0
CAP_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
            "NUMEXPR_NUM_THREADS")


def worker_env():
    """Environment for the worker and every process it starts: program on
    the path, BLAS/OpenMP threads capped at one: the load is one client."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    env.update({var: "1" for var in CAP_VARS})
    return env


def run_worker(args, out_dir, setup_only):
    """Start one worker; returns (seconds until READY, parsed result or None)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--out-dir", str(out_dir)]
    if setup_only:
        cmd.append("--setup-only")
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=worker_env(), cwd=ROOT)
    watchdog = threading.Timer(WORKER_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        ready = proc.stdout.readline().strip()
        setup_s = time.perf_counter() - start
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if ready != "READY" or code != 0:
        raise RuntimeError(f"worker failed (exit {code}) during {'set-up' if ready != 'READY' else 'the run'}")
    return setup_s, (None if setup_only else json.loads(rest.strip().splitlines()[-1]))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "cknsharp" / "__init__.py").is_file():
        print(f"error: no cknsharp sources under {ROOT / 'src'}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)

    setups = []
    if not args.trace:
        setups = [run_worker(args, out_dir, setup_only=True)[0] for _ in range(SETUPS - 1)]
    setup_s, result = run_worker(args, out_dir, setup_only=False)
    setups.append(setup_s)
    metrics = result["metrics"]
    if not args.trace:
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    result["setup_samples_s"] = setups
    tag = f"{args.workload}_seed{args.seed}_trace{args.trace}"
    (out_dir / f"{tag}.json").write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")

    attempted, failed = result["attempted"], result["failed"]
    prov = result["provenance"]
    print(f"# {args.workload} seed={args.seed} trace={args.trace} nproc={prov['nproc']} "
          f"loop={prov['loop']} clients={prov['clients']} cpu={prov['cpu_model']!r}")
    print(f"# mix {json.dumps(prov['task_mix'], sort_keys=True)}")
    for name, m in metrics.items():
        print(f"{name:48s} {m['value']:.6g} {m['unit']}")
    print(f"{'fail_frac':48s} {failed / attempted:.6g} 1   ({failed} of {attempted})")
    for key, value in result["extra"].items():
        print(f"# {key} {value}")
    for rec in result["failures"][:10]:
        print(f"# FAILED {rec['id']} {rec['kind']}: {rec.get('error')}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
