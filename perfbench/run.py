"""Benchmark of `vortex run` on three workloads.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout that holds src/vortex.  For --seconds it
repeats one sample after another, each a fresh child process (child.py)
doing one in-process `vortex run` of the workload's config; the config's
base seed is --seed.  Afterwards it checks the outputs (checks.py) and
prints, as the last line of stdout, one JSON object with `correct`,
`attempted`, `failed` and `metrics`.

--trace 0 reports the end-to-end metrics: medians over the samples.
--trace 1 traces every sample (tracer.py) and reports the layer metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from checks import count_operations, energy_balance, parse_stats, rerun_paths  # noqa: E402
from workloads import SETUP_REPEATS, WORKLOADS, requested_path_steps, workload_config  # noqa: E402

RUN_BUDGET_S = 170.0  # a run, samples and checks included, must end within 180 s
# metric names and units are fixed by BENCHMARK.json at the checkout root
LAYER_UNITS = {m["name"]: m["unit"]
               for m in json.loads((HERE.parent / "BENCHMARK.json").read_text())["per_layer"]}
TIMED_RATIOS = {"harness.pool_busy_ratio"}


class BenchError(RuntimeError):
    pass


def run_child(root: Path, job: dict, timeout: float) -> dict:
    env = dict(os.environ)
    env.pop("VORTEX_THREADS", None)  # the program's default worker count
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), json.dumps(job)],
        cwd=root, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        text=True, timeout=max(1.0, timeout),
    )
    if proc.returncode != 0:
        raise BenchError(f"sample process exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    with open(job["result"]) as fh:
        result = json.load(fh)
    if result["exit_code"] not in (0, 1):
        raise BenchError(f"vortex run exited {result['exit_code']}")
    return result


def layer_summary(samples: list[dict]) -> tuple[dict, bool]:
    """Medians of the layer times; counts must repeat in every sample."""
    metrics, repeat = {}, True
    for name in samples[0]["layers"]:
        values = [s["layers"][name] for s in samples]
        unit = LAYER_UNITS[name]
        if unit != "s" and name not in TIMED_RATIOS:
            repeat &= len(set(values)) == 1
            value = values[0]
        else:
            value = statistics.median(values)
        metrics[name] = {"value": value, "unit": unit}
    return metrics, repeat


def bench(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    root = HERE.parent
    if not (root / "src" / "vortex" / "cli.py").is_file():
        raise BenchError(f"no vortex sources under {root / 'src'}")
    doc = workload_config(workload, seed)
    rundir = HERE / "runs" / f"{workload}-{'trace' if trace else 'time'}-{os.getpid()}"
    shutil.rmtree(rundir, ignore_errors=True)
    rundir.mkdir(parents=True)
    config_path = rundir / "config.json"
    config_path.write_text(json.dumps(doc, indent=2))

    samples, reference = [], None
    attempted = failed = 0
    outputs_repeat = True
    started = time.perf_counter()
    deadline = started + seconds
    try:
        # every sample writes to the same directory, so the path recorded in
        # resolved_config.json, and with it the bytes written, repeat
        out = rundir / "out"
        job = {"root": str(root), "config": str(config_path), "out": str(out),
               "trace": trace, "setup_repeats": SETUP_REPEATS[workload],
               "result": str(rundir / "result.json"), "spans": str(rundir / "spans.json")}
        while not samples or time.perf_counter() < deadline:
            samples.append(run_child(root, job, started + RUN_BUDGET_S - time.perf_counter()))
            produced = ((out / "stats.csv").read_text(), (out / "checks.json").read_text())
            shutil.rmtree(out)
            a, f = count_operations(*produced)
            attempted, failed = attempted + a, failed + f
            if reference is None:
                reference = produced
            outputs_repeat &= produced == reference
        verdict = verify(doc, config_path, reference)
    finally:
        last_spans = rundir / "spans.json"
        if last_spans.exists():
            last_spans.replace(HERE / "runs" / f"spans-{workload}.json")
        shutil.rmtree(rundir, ignore_errors=True)

    verdict["outputs_repeat"] = outputs_repeat
    if trace:
        metrics, counts_repeat = layer_summary(samples)
        verdict["counts_repeat"] = counts_repeat
    else:
        wall = statistics.median(s["wall_s"] for s in samples)
        metrics = {
            "wall_s": {"value": wall, "unit": "s"},
            "path_steps_per_s": {"value": requested_path_steps(doc) / wall, "unit": "1/s"},
            "setup_s": {"value": statistics.median(
                t for s in samples for t in s["setup_s"]), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(s["peak_rss_mb"] for s in samples),
                            "unit": "MB"},
        }
    correct = all(v for v in verdict.values() if isinstance(v, bool))
    print(json.dumps({"workload": workload, "checks": verdict,
                      "sample_wall_s": [s["wall_s"] for s in samples]}), file=sys.stderr)
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def verify(doc: dict, config_path: Path, produced: tuple[str, str]) -> dict:
    """Independent checks on one sample's outputs (all samples are identical)."""
    sys.path.insert(0, str(HERE.parent / "src"))
    from vortex.config import load_config

    rows = parse_stats(produced[0])
    _, xi0 = load_config(config_path).build_initial()
    energy = energy_balance(doc, xi0.coeffs, rows)
    rerun = rerun_paths(str(config_path), rows, sorted({0, len(rows) - 1}))
    return {"energy_ok": energy["ok"], "invariants_ok": rerun["invariants_ok"],
            "functionals_ok": rerun["functionals_ok"],
            "rng_rows_match": rerun["rows_match"], "energy": energy,
            "defects": rerun["defects"], "functional_gap": rerun["functional_gap"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = bench(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, OSError, subprocess.TimeoutExpired) as err:
        print(f"perfbench: error: {err}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
