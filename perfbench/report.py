"""Run the benchmark over several workloads and seeds and summarise it.

    python3 perfbench/report.py [--seeds 1,2,3] [--trace 0|1]

Runs `run.py` once per (workload, seed), one after another, for the run
length BENCHMARK.json fixes, and prints for every workload each metric by
name with its unit, its median over the seeds and the spread (third minus
first quartile, as a share of the median), plus the operations attempted
and failed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402


def spread(values: list[float]) -> float:
    """(Q3 - Q1) / median, with the quartiles statistics.quantiles gives."""
    med = statistics.median(values)
    if len(values) < 2 or med == 0:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=HERE.parent, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",")]
    seconds = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]
    for workload in WORKLOADS:
        runs = [run_once(workload, seed, seconds, args.trace) for seed in seeds]
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        correct = all(r["correct"] for r in runs)
        print(f"{workload}: runs={len(runs)} correct={correct} "
              f"attempted={attempted} failed={failed}")
        for name, first in runs[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in runs]
            print(f"  {name:40s} {statistics.median(values):14.6g} {first['unit']:7s}"
                  f" spread={spread(values):.4f}")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
