"""One workload process: set up, warm up, run the fixed op list, report.

Started by ``run.py`` with the BLAS thread count pinned in its environment;
prints one JSON object on its last line of standard output.

    python3 perfbench/worker.py --workload areas --seed 1 --seconds 25 \
        --t0 <time.monotonic() of the parent just before the start> \
        --mode setup|run|trace [--trace-out FILE]

The op count is the workload's fixed rate times ``--seconds``, in whole
periods of its op list.  ``setup`` stops after the warm-up; ``run`` times
the ops once each; ``trace`` generates twice as many ops and times the
first half without and the second half with the layer wrappers, so that
no input is timed twice.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from pathlib import Path

import numpy as np
import scipy

import chaingeo
from layers import Tracer
from workloads import OK, WORKLOADS, WRONG


def run_op(op):
    try:
        return op()
    except Exception as exc:  # a raised error is the op's outcome, checked below
        return exc


def timed_ops(plan, indices, tracer=None):
    """Run the ops at ``indices`` once each, in order.

    Returns each op's wall time, whether it completed (its check gave OK),
    whether any op gave a wrong result, and CPU per wall time.
    """
    times, completed, wrong = [], [], False
    c0, w0 = time.process_time(), time.perf_counter()
    for i in indices:
        if tracer is not None:
            tracer.op = i
        t0 = time.perf_counter()
        res = run_op(plan.ops[i])
        times.append(time.perf_counter() - t0)
        status = plan.check(i, res)
        completed.append(status == OK)
        wrong = wrong or status == WRONG
    cpu_per_wall = (time.process_time() - c0) / (time.perf_counter() - w0)
    if tracer is not None:
        tracer.op = -1
    return times, completed, wrong, cpu_per_wall


def environment():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas['name']} {blas['version']}",
        "nproc": os.cpu_count(),
        **{k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
    }


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    ap.add_argument("--trace-out", type=Path)
    args = ap.parse_args()
    src = Path(__file__).resolve().parent.parent / "src"
    if Path(chaingeo.__file__).resolve().parent.parent != src:
        sys.exit(f"chaingeo imported from {chaingeo.__file__}, not from {src}")

    tracer = Tracer() if args.mode == "trace" else None
    if tracer is not None:
        tracer.install()
    workload = WORKLOADS[args.workload]
    n_ops = workload.n_ops(args.seconds)
    plan = workload.make(args.seed, 2 * n_ops if tracer is not None else n_ops)
    run_op(plan.warmup)
    out = {"setup_s": time.monotonic() - args.t0, "digest": plan.digest}
    if args.mode == "setup":
        print(json.dumps(out))
        return

    if tracer is not None:
        entropy_s = tracer.total_s["busemann.volume_entropy"]  # a set-up cost
        tracer.uninstall()
    times, completed, wrong, out["cpu_per_wall"] = timed_ops(plan, range(n_ops))
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out["op_times_s"] = times
    out["completed"] = completed
    out["env"] = environment()
    if tracer is not None:
        tracer.reset()
        tracer.install()
        t_times, _, t_wrong, _ = timed_ops(plan, range(n_ops, 2 * n_ops), tracer)
        tracer.uninstall()
        wrong = wrong or t_wrong
        layers = tracer.layer_metrics(sum(t_times))
        layers["busemann.volume_entropy.total_s"] = entropy_s
        layers["trace.overhead_frac"] = 1.0 - sum(times) / sum(t_times)
        out["layers"] = layers
        if args.trace_out is not None:
            tracer.write(args.trace_out)
    out["wrong"] = wrong
    print(json.dumps(out))


if __name__ == "__main__":
    main()
