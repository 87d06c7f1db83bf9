"""One benchmark sample in a fresh process: a single in-process `vortex run`.

Invoked by run.py as `python3 child.py '<job json>'`.  The job names the
checkout root, the config file, the output directory, whether to trace,
how many set-up samples to take and where to write the result JSON.

Untraced: times `vortex.cli.main(["run", ...])` (imports excluded), reads
the peak RSS right after it, then times the set-up a run pays before its
first step, several times.  Traced: installs the span tracer, runs the
same `vortex run`, and writes the layer metrics and the spans.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import os
import resource
import sys
import time


def time_setup(config_path: str) -> float:
    """Config load and validation, noise spec, initial data, one NoiseBasis
    build and the heat factor, from cold caches."""
    from vortex.config import load_config
    from vortex.noise import NoiseBasis
    from vortex.spectral import heat_decay

    heat_decay.cache_clear()
    gc.collect()
    start = time.perf_counter()
    cfg = load_config(config_path)
    spec = cfg.build_noise_spec()
    cfg.build_initial()
    NoiseBasis(spec, cfg.grid)
    heat_decay(cfg.grid, cfg.solver.dt)
    return time.perf_counter() - start


def main(job: dict) -> dict:
    sys.path.insert(0, os.path.join(job["root"], "src"))
    from vortex import cli

    tracer = None
    if job["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    argv = ["run", "--config", job["config"], "--out", job["out"]]
    gc.collect()
    with contextlib.redirect_stdout(io.StringIO()):
        start = time.perf_counter()
        code = cli.main(argv)
        wall = time.perf_counter() - start
    result = {"exit_code": code, "wall_s": wall,
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if tracer is not None:
        from tracer import layer_metrics

        tracer.uninstall()
        result["layers"] = layer_metrics(tracer, wall, job["out"])
        with open(job["spans"], "w") as fh:
            json.dump([s.to_list() for s in tracer.spans], fh, separators=(",", ":"))
    else:
        result["setup_s"] = [time_setup(job["config"]) for _ in range(job["setup_repeats"])]
    return result


if __name__ == "__main__":
    job = json.loads(sys.argv[1])
    outcome = main(job)
    with open(job["result"], "w") as fh:
        json.dump(outcome, fh)
