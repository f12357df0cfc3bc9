"""Record one point of the bench trajectory: ``trajectory/BENCH_<tag>.json``.

    python3 perfbench/trajectory.py --tag seed

Runs ``run.py`` once per workload of ``BENCHMARK.json`` and seed 1-10 with
``--trace 0``, then once per workload with ``--trace 1`` (seed 1), and writes the environment
(nproc, Python, CPU model, commit), every value, and per metric the
median, the quartiles and the spread (quartile distance over median,
from ``statistics.quantiles(values, n=4)``).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import run

SEEDS = list(range(1, 11))


def environment() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=run.ROOT, capture_output=True,
                                encoding="utf-8", check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    return {"nproc": os.cpu_count(), "python": platform.python_version(), "cpu": cpu, "commit": commit}


def summary(values: "list[float]") -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median if median else None, "values": values}


def main() -> int:
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    parser = argparse.ArgumentParser()
    parser.add_argument("--tag", required=True)
    args = parser.parse_args()

    point = {"tag": args.tag, "environment": environment(), "run_seconds": spec["run_seconds"], "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        runs = [run.invoke(workload, seed, spec["run_seconds"], 0) for seed in SEEDS]
        values: "dict[str, list[float]]" = {}
        for result in runs:
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        traced = run.invoke(workload, SEEDS[0], spec["run_seconds"], 1)
        point["workloads"][workload] = {
            "seeds": SEEDS,
            "failed": sum(r["failed"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "end_to_end": {name: summary(v) for name, v in values.items()},
            "per_layer": {name: m["value"] for name, m in traced["metrics"].items()},
        }
        for name, v in values.items():
            s = point["workloads"][workload]["end_to_end"][name]
            print(f"{workload} {name}: median {s['median']:.6g} spread {s['spread']:.4f}", flush=True)
    out = Path(__file__).with_name("trajectory") / f"BENCH_{args.tag}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(point, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {out.relative_to(run.ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
