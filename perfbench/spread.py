"""Run-to-run spread of the end-to-end metrics, and the benchmark record.

    python3 perfbench/spread.py [--record perfbench/record.json]

Runs ``run.py --trace 0 --seconds <run_seconds>`` once for each of the
seeds 1..10 and each workload of ``BENCHMARK.json``, one run at a time,
and prints for each metric the median and the spread: the distance between
the first and third quartiles of the runs (``statistics.quantiles(n=4)``)
as a share of the median, next to the metric's bound in ``BENCHMARK.json``.
With ``--record`` it also writes the environment, and the metrics, input
digest and wall time of every run, to a JSON file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = range(1, 11)


def one_run(workload, seed, seconds):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    return lines, json.loads(lines[-1]), time.monotonic() - t0


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser()
    ap.add_argument("--record", type=Path)
    args = ap.parse_args()

    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    record = {"seconds": seconds, "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        values = {name: [] for name in bounds}
        runs = []
        for seed in SEEDS:
            lines, result, run_s = one_run(workload, seed, seconds)
            if not result["correct"]:
                sys.exit(f"{workload} seed {seed}: outputs not correct")
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            record["environment"] = lines[1].removeprefix("environment: ")
            runs.append({"seed": seed, "run_s": run_s, "inputs_sha256": lines[0].split()[-1],
                         "attempted": result["attempted"], "failed": result["failed"],
                         **{k: v["value"] for k, v in result["metrics"].items()}})
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k} {v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)
        spreads = {}
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spreads[name] = {"median": med, "spread": (q3 - q1) / med, "bound": bounds[name]}
            print(f"  {workload} {name}: median {med:.5g}  spread {(q3 - q1) / med:.4f}"
                  f"  bound {bounds[name]}", flush=True)
        record["workloads"][workload] = {"spreads": spreads, "runs": runs}
    if args.record:
        args.record.write_text(json.dumps(record, indent=1) + "\n")


if __name__ == "__main__":
    main()
