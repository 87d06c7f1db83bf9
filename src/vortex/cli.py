"""Command-line orchestration: `vortex run | check | report`.

run     executes the configured Monte-Carlo experiment and writes
        stats.csv + checks.json + manifest.json (+ optional snapshots);
check   runs the operator-identity suite standalone; its --seed, --grid
        and --trials meet the requirements of mc.base_seed,
        grid.modes_per_dim and the identities check's trials;
report  re-renders a summary from stored outputs as strict JSON: the
        completed paths' means (null if none), the blow-up count, and the
        checks, with null for a non-finite number.

Exit status: 0 when every enabled check passes, 1 on any failed check,
2 on configuration or IO errors.  `run`'s --seed, --paths and --out replace
mc.base_seed, mc.n_paths and output.directory in the config document before
it is read, so they are read like file values and errors name those
fields.  Outputs are written atomically and a rerun into a populated
directory is refused unless --force is given.
The sweep's paths and the Gronwall pairs step in batches, several paths
per numpy call on small grids, by the rule stated at
`harness.TRIAL_CHUNK_BYTES`.  A run's jobs, the GN search, the identity
suites, those batches and the BDG paths, share one fan-out over forked
worker processes, one per usable CPU up to 4 (`harness.path_workers`);
results do not depend on the worker count or the batch size.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__, harness
from .config import CHECK_PARAMS, GRID, MC, ConfigError, ExperimentConfig, load_config
from .harness import (
    CheckResult,
    HolderProbe,
    bdg_phi_norm,
    bdg_plan,
    energy_report,
    gronwall_plan,
    hy_uniformity,
    identity_suite,
    mc_mean_stderr,
    measure_gn_constant,
    require_identity_grid,
    sweep_plan,
    zeta_budget,
    zeta_regularity,
)
from .integrator import TrajectoryStats
from .operators import biot_savart, random_divfree_field
from .spectral import SpectralGrid, l2_norm

STATS_HEADER = ("path_index", *TrajectoryStats.FUNCTIONALS, "status")


def config_hash(resolved: dict) -> str:
    """Hash of the experiment semantics; where outputs land is not part of
    the experiment, so output.directory is excluded."""
    payload = json.loads(json.dumps(resolved))
    payload.get("output", {}).pop("directory", None)
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def _atomic_write(path: Path, data: str) -> None:
    tmp = path.with_name("." + path.name + ".tmp")
    tmp.write_text(data)
    tmp.replace(path)


def render_stats_csv(stats: list[TrajectoryStats]) -> str:
    lines = [",".join(STATS_HEADER)]
    for i, s in enumerate(stats):
        row = [str(i)] + [repr(s.functional(f)) for f in TrajectoryStats.FUNCTIONALS]
        row.append(s.status)
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def render_checks_json(checks: list[CheckResult]) -> str:
    """Strict JSON (RFC 8259): `to_dict` writes null for a non-finite number."""
    return json.dumps([c.to_dict() for c in checks], indent=2, sort_keys=True,
                      allow_nan=False) + "\n"


def _refuse_populated(outdir: Path, force: bool) -> None:
    """Refuse, unless force, an output directory that holds results."""
    existing = [p for p in ("stats.csv", "checks.json", "manifest.json")
                if (outdir / p).exists()]
    if existing and not force:
        raise ConfigError(
            f"output directory {outdir} already holds {existing[0]}; "
            "rerun with --force to overwrite"
        )


def write_outputs(stats, checks, outdir, resolved, force: bool = False) -> dict:
    """Persist stats.csv, checks.json, resolved_config.json and manifest.json.

    Writes are temp-file-then-rename; an already-populated directory is
    refused unless force is set (`_refuse_populated`), and nothing is written
    before validation.
    """
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    _refuse_populated(outdir, force)
    files = {
        "resolved_config.json": json.dumps(resolved, indent=2, sort_keys=True) + "\n",
        "stats.csv": render_stats_csv(stats),
        "checks.json": render_checks_json(checks),
    }
    digests = {}
    for name, payload in files.items():
        _atomic_write(outdir / name, payload)
        digests[name] = hashlib.sha256(payload.encode()).hexdigest()
    manifest = {
        "tool_version": __version__,
        "config_hash": config_hash(resolved),
        "base_seed": resolved["mc"]["base_seed"],
        "n_paths": resolved["mc"]["n_paths"],
        "files": digests,
    }
    _atomic_write(outdir / "manifest.json",
                  json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return manifest


def run_experiment(config: ExperimentConfig):
    """The main Monte-Carlo stats and the configured checks' results, in
    config order, reproducibly.

    The cell area of the domain, which a long enough domain overflows,
    zeta_regularity budgets, the two main paths the energy check needs, the
    two time steps bdg's half horizon needs, the identity suite's grid, the
    first random fields of gronwall and identities (which underflow on a
    short enough domain), and bdg's ||Phi||_R (which |x|^q under- or
    overflows at a large enough q, and which bdg's reduction then reuses)
    are checked before any job runs.

    Then one `harness.fan_out` runs every job of the run, in this order:
    one `measure_gn_constant` per distinct gn_trials of the gronwall checks,
    each identities suite, the batches of the one sweep, the Gronwall pair
    batches and the BDG paths, so the longest jobs start first and the
    short BDG paths fill in at the end.  The sweep integrates, once each,
    the (Hille-Yosida level, path) pairs of the main Monte-Carlo,
    hy_uniformity and zeta_regularity, and stages the snapshots, which its
    reduction moves into place; energy and those two checks reduce its
    results, and each other check reduces its own jobs' results
    (`sweep_plan`, `gronwall_plan`, `bdg_plan`).  The Gagliardo-Nirenberg
    constant enters only gronwall's reduction, so the pairs need not wait
    for it.  A trial field of its search that under- or overflows refuses
    the run as the check's configuration error; it is job 0, so a serial
    run refuses it before any path runs, and a forked run removes the
    snapshots staged meanwhile (`harness.fan_out`).
    """
    grid = config.grid
    spec = config.build_noise_spec()
    v0, xi0 = config.build_initial()
    side = grid.domain_length / grid.modes_per_dim
    if not math.isfinite(side * side):  # every L^q norm weighs its sum by it
        raise ConfigError(f"'grid.domain_length' {grid.domain_length!r} is so long that the "
                          f"cell area (domain_length/modes_per_dim)^2 overflows")
    seed = config.mc.base_seed
    n_main = config.mc.n_paths
    bdg_v0 = None  # the velocity bdg freezes G_n at, made only for a bdg check
    demands, probes, pairs, phi_norms = [], {}, {}, {}
    for i, chk in enumerate(config.checks):
        if chk.name == "energy" and n_main < 2:
            raise ConfigError(f"'mc.n_paths' must be >= 2 for the energy check, got {n_main}")
        if chk.name == "bdg":
            if config.solver.n_steps < 2:
                raise ConfigError(f"'checks[{i}]' (bdg) needs a half horizon: 'solver.t_end' "
                                  f"must be at least 2 steps of 'solver.dt', got "
                                  f"{config.solver.n_steps}")
            bdg_v0 = biot_savart(xi0) if v0 is None else v0
            try:
                phi_norms[i] = bdg_phi_norm(spec, bdg_v0, chk.value("q"))
            except ValueError as err:
                raise ConfigError(f"'checks[{i}].q' {chk.value('q')!r} (bdg): {err}") from err
        if chk.name == "identities":
            try:
                require_identity_grid(grid)
            except ValueError as err:
                raise ConfigError(f"'checks[{i}]' ({chk.name}): {err}") from err
        if chk.name in ("gronwall", "identities"):
            try:
                if chk.name == "gronwall":
                    pairs[i] = _gronwall_initial(grid, seed, chk.value("perturbation"))
                else:  # the suite's first field
                    random_divfree_field(grid, np.random.default_rng(seed))
            except ValueError as err:  # the |k|^-decay spectrum over- or underflows
                raise ConfigError(_unusable_fields(i, chk.name, grid, err)) from err
        elif chk.name == "hy_uniformity":
            demands.append((chk.value("levels"), chk.value("n_paths"), None))
        elif chk.name == "zeta_regularity":
            probes[i] = HolderProbe(chk.value("beta"), chk.value("delta"), chk.value("q"),
                                    chk.value("stride"))
            try:
                zeta_budget(spec.roughness, probes[i].beta, probes[i].delta, chk.value("p"))
            except ValueError as err:
                raise ConfigError(f"'checks[{i}]' {err}") from err
            demands.append((chk.value("levels"), chk.value("n_paths"), probes[i]))
    out = config.output
    snapshot_dir = Path(out.directory) / "snapshots" if out.directory else None

    jobs: list = []

    def place(part: list) -> slice:
        """Appends a driver's jobs to the run's; where their results lie."""
        jobs.extend(part)
        return slice(len(jobs) - len(part), len(jobs))

    configured = list(enumerate(config.checks))
    gn = {}  # gn_trials -> where its constant lies
    for i, chk in configured:
        if chk.name == "gronwall" and chk.value("gn_trials") not in gn:
            gn[chk.value("gn_trials")] = place(
                [functools.partial(_gn_constant, grid, chk.value("gn_trials"), i)])
    reductions = {}  # check index -> (where its jobs' results lie, their reduction)
    for i, chk in configured:
        if chk.name == "identities":
            reductions[i] = (place([functools.partial(identity_suite, grid, chk.value("trials"),
                                                      seed)]), lambda done: done[0])
    sweep_jobs, finish_sweep, staging = sweep_plan(
        spec, v0, xi0, config.solver, seed, n_main, config.lq_exponent, demands, snapshot_dir,
        out.snapshot_stride)
    swept = place(sweep_jobs)
    for i, chk in configured:
        if chk.name == "gronwall":
            pair_jobs, finish = gronwall_plan(*pairs[i], spec, config.solver, chk.value("n_paths"),
                                              seed, chk.value("slack"))
            at = gn[chk.value("gn_trials")]
            reductions[i] = (place(pair_jobs), lambda done, finish=finish, at=at:
                             [finish(done, results[at][0])])
    for i, chk in configured:
        if chk.name == "bdg":
            bdg_jobs, finish = bdg_plan(spec, bdg_v0, chk.value("q"), chk.value("m_list"),
                                        chk.value("n_paths"), seed, config.solver.t_end,
                                        config.solver.dt, chk.value("stability"), phi_norms[i])
            reductions[i] = (place(bdg_jobs), finish)

    results = harness.fan_out(jobs, staging)
    levels = finish_sweep(results[swept])
    stats = [r.stats for r in levels[spec.hy_level][:n_main]]
    checks: list[CheckResult] = []
    for i, chk in configured:
        if chk.name == "energy":
            checks.extend(energy_report(stats, chk.value("ceilings"), seed))
        elif chk.name == "hy_uniformity":
            checks.append(hy_uniformity(levels, chk.value("levels"), chk.value("n_paths"), seed,
                                        chk.value("factor")))
        elif chk.name == "zeta_regularity":
            checks.append(zeta_regularity(levels, chk.value("levels"), chk.value("n_paths"),
                                          seed, probes[i], chk.value("p"),
                                          chk.value("stability")))
        else:
            at, reduce = reductions[i]
            checks.extend(reduce(results[at]))
    return stats, checks


def _unusable_fields(i: int, name: str, grid: SpectralGrid, err: ValueError) -> str:
    return (f"'checks[{i}]' ({name}) draws no usable random field with 'grid.domain_length' "
            f"{grid.domain_length!r} ({err})")


def _gn_constant(grid: SpectralGrid, trials: int, i: int) -> float:
    """The gronwall check i's job: `measure_gn_constant`, whose trial field
    that under- or overflows refuses the check's configuration."""
    try:
        return measure_gn_constant(grid, trials)
    except ValueError as err:
        raise ConfigError(_unusable_fields(i, "gronwall", grid, err)) from err


def _gronwall_initial(grid: SpectralGrid, seed: int, eps: float):
    """The gronwall check's two initial velocities, from its own stream: a
    random field and that field moved by eps in L^2 (itself at eps = 0)."""
    rng = np.random.default_rng(seed + 1)
    v0a = random_divfree_field(grid, rng)
    if eps == 0.0:
        return v0a, v0a
    bump = random_divfree_field(grid, rng)
    return v0a, v0a + bump * (eps / l2_norm(bump))


# `run` flag -> the config field it replaces
OVERRIDES = {"seed": "mc.base_seed", "paths": "mc.n_paths", "out": "output.directory"}


def cmd_run(args) -> int:
    config = load_config(args.config, {field: getattr(args, flag)
                                       for flag, field in OVERRIDES.items()
                                       if getattr(args, flag) is not None})
    if not config.output.directory:
        raise ConfigError("no output directory: set output.directory or pass --out")
    resolved = config.resolved()
    outdir = Path(config.output.directory)
    _refuse_populated(outdir, args.force)  # fail-closed before any computation
    stats, checks = run_experiment(config)
    write_outputs(stats, checks, outdir, resolved, force=args.force)
    for c in checks:
        verdict = "PASS" if c.passed else "FAIL"
        print(f"{verdict} {c.name}: observed={c.observed:.6g} bound={c.bound:.6g}")
    print(f"wrote {outdir}/stats.csv ({len(stats)} paths), checks.json, manifest.json")
    return 0 if all(c.passed for c in checks) else 1


# `check` flag -> the config table entry whose requirement it meets
CHECK_FLAGS = {"seed": MC["base_seed"], "grid": GRID["modes_per_dim"],
               "trials": CHECK_PARAMS["identities"]["trials"]}


def cmd_check(args) -> int:
    for flag, (_, _, (holds, message)) in CHECK_FLAGS.items():
        if not holds(getattr(args, flag)):
            raise ConfigError(f"'--{flag}' {message}, got {getattr(args, flag)}")
    try:
        grid = SpectralGrid(args.grid)
    except ValueError as err:
        raise ConfigError(f"'--grid': {err}") from err
    results = identity_suite(grid, args.trials, args.seed)
    payload = render_checks_json(results)
    if args.out:
        _atomic_write(Path(args.out), payload)
    else:
        sys.stdout.write(payload)
    return 0 if all(r.passed for r in results) else 1


def cmd_report(args) -> int:
    outdir = Path(args.dir)
    checks_path = outdir / "checks.json"
    stats_path = outdir / "stats.csv"
    if not checks_path.exists() or not stats_path.exists():
        raise ConfigError(f"{outdir} does not contain stats.csv and checks.json")
    # checks.json written by earlier versions holds Infinity for an unbounded bound
    checks = json.loads(checks_path.read_text(), parse_constant=lambda name: None)
    header, *table = (r.split(",") for r in stats_path.read_text().strip().split("\n"))
    completed = [r for r in table if r[-1] == "completed"]  # a blow-up row may hold inf
    summary: dict = {"n_paths": len(table), "n_blowup": sum(r[-1] == "blowup" for r in table),
                     "checks": checks, "functionals": {}}
    for col in range(1, len(header) - 1):
        moments = mc_mean_stderr([float(r[col]) for r in completed]) if completed else (None,) * 2
        summary["functionals"][header[col]] = dict(zip(("mean", "stderr"), moments))
    payload = json.dumps(summary, indent=2, sort_keys=True, allow_nan=False) + "\n"
    _atomic_write(outdir / "summary.json", payload)
    sys.stdout.write(payload)
    return 0 if all(c["passed"] for c in checks) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vortex",
        description="Spectral simulator and estimate-verification harness for "
                    "2D stochastic Navier-Stokes (velocity/vorticity form).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run the configured Monte-Carlo experiment")
    p_run.add_argument("--config", required=True, help="path to the JSON config")
    p_run.add_argument("--seed", type=int, default=None, help="override mc.base_seed")
    p_run.add_argument("--paths", type=int, default=None, help="override mc.n_paths")
    p_run.add_argument("--out", default=None, help="override output.directory")
    p_run.add_argument("--force", action="store_true",
                       help="allow writing into a populated output directory")
    p_run.set_defaults(func=cmd_run)

    p_check = sub.add_parser("check", help="run a standalone verification suite")
    p_check.add_argument("suite", choices=["identities"])
    p_check.add_argument("--grid", type=int, default=64, help="modes per dimension")
    p_check.add_argument("--trials", type=int, default=100)
    p_check.add_argument("--seed", type=int, default=0)
    p_check.add_argument("--out", default=None, help="write JSON here instead of stdout")
    p_check.set_defaults(func=cmd_check)

    p_report = sub.add_parser("report", help="re-render results from stored outputs")
    p_report.add_argument("--dir", required=True)
    p_report.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, OSError, ValueError) as err:
        print(f"vortex: error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
