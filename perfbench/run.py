"""Benchmark entry point: one workload, one seed, one closed-loop client.

    python3 perfbench/run.py --workload {form-stencil,form-fresh,reconstruct,areas}
                             --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the program is imported from its ``src``.
Every run does a fixed number of distinct ops, the workload's constant rate
times S rounded to whole periods of the op list (``workloads.WORKLOADS``),
and times each op once, so two commits always do the same work on the
same inputs.  Workload processes run with one BLAS and one OpenMP thread.

``--trace 0`` starts ``SETUPS`` workload processes one after another; the
middle one also runs the ops, the others only set up.  It reports the
end-to-end metrics of ``BENCHMARK.json``, with ``setup_s`` the median of
the set-ups.
``--trace 1`` starts one process that times the ops without and then, on
as many fresh ops, with the layer wrappers, reports the per-layer metrics,
and writes its spans to ``perfbench/traces/``.
The last line of standard output is the JSON result; the lines above it
print every metric with its unit.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

SETUPS = 5  # workload processes per --trace 0 run; setup_s is their median
P90_MIN_OPS = 100  # so that at least ten ops lie beyond the 90th percentile
DEADLINE_S = 170  # all workload processes of one run end within this


def worker(args, mode, env, deadline, trace_out=None):
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--mode", mode]
    if trace_out is not None:
        cmd += ["--trace-out", str(trace_out)]
    t0 = time.monotonic()
    proc = subprocess.run(cmd + ["--t0", repr(t0)], env=env, cwd=ROOT, stdout=subprocess.PIPE,
                          timeout=max(1.0, deadline - t0), text=True)
    if proc.returncode != 0:
        sys.exit(f"{mode} process exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def end_to_end(run, setups):
    times, completed = run["op_times_s"], run["completed"]
    return {
        # a failed op adds time but no completed op, so failing fast is no gain
        "ops_per_s": sum(completed) / sum(times),
        "op_p50_s": statistics.median(times),
        "ok_frac": sum(completed) / len(completed),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": run["peak_rss_mb"],
    }


def main():
    spec_file = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "chaingeo" / "__init__.py").is_file() or not spec_file.is_file():
        sys.exit(f"no program to benchmark: {ROOT} lacks src/chaingeo or BENCHMARK.json")
    spec = json.loads(spec_file.read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=[w["name"] for w in spec["workloads"]], required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=str(ROOT / "src"))

    deadline = time.monotonic() + DEADLINE_S
    if args.trace:
        out = HERE / "traces" / f"{args.workload}-seed{args.seed}.jsonl.gz"
        run = worker(args, "trace", env, deadline, trace_out=out)
        values = {**run["layers"], "process.cpu_per_wall": run["cpu_per_wall"]}
        wanted = spec["per_layer"]
        digests = {run["digest"]}
    else:
        procs = [worker(args, "run" if k == SETUPS // 2 else "setup", env, deadline)
                 for k in range(SETUPS)]
        run = procs[SETUPS // 2]
        values = end_to_end(run, [p["setup_s"] for p in procs])
        wanted = spec["end_to_end"]
        digests = {p["digest"] for p in procs}
    if len(digests) != 1:
        sys.exit(f"workload processes generated different inputs: {sorted(digests)}")

    times = run["op_times_s"]
    n_ops = len(times)
    failed = n_ops - sum(run["completed"])
    env_line = ", ".join(f"{k} {v}" for k, v in run["env"].items())
    print(f"workload {args.workload}  seed {args.seed}  ops {n_ops}  inputs sha256 {run['digest']}")
    print(f"environment: {env_line}")
    print(f"failed_frac {failed}/{n_ops} = {failed / n_ops:.4f}"
          f"  wrong results: {run['wrong']}")
    print(f"process.cpu_per_wall {run['cpu_per_wall']:.3f} s/s")
    if n_ops >= P90_MIN_OPS:
        print(f"op_p90_s {statistics.quantiles(times, n=10)[-1]:.6g} s  (n={n_ops})")
    else:
        print(f"op_p90_s not reported: {n_ops} ops leave fewer than 10 beyond the 90th percentile")
    metrics = {}
    for m in wanted:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print(f"{m['name']} {values[m['name']]:.6g} {m['unit']}  (n={n_ops})")
    print(json.dumps({"correct": not run["wrong"], "attempted": n_ops,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
