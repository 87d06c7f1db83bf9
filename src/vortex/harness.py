"""Monte-Carlo and pathwise verification of the a-priori estimates:
energy / L^q boundedness, uniformity in the Hille-Yosida level,
Ornstein-Uhlenbeck regularity, the exponential-weight Gronwall contraction,
stochastic-integral moment bounds, and the operator-identity suites.

The solutions of the coupled system are integrated in one place: `sweep`
runs each (Hille-Yosida level, path) a run needs exactly once, and keeps
per path only scalars (the stats and the zeta Holder quotients).  The
energy report, `hy_uniformity` and `zeta_regularity` are pure reductions
over its results.  The Gronwall pairs step their two solutions of a path
as two rows of the integrator's one loop, `trajectories`, on the path's
shared draws, and keep only the weighted difference.  The sweep steps
each level's paths, and `gronwall_uniqueness` its pairs, in batches of
one `run_trajectory` or `gronwall_pairs` call each, sized like the trial
chunks below (`_batches`); each path has the bits of its one-path run.
The BDG sups integrate the frozen operator G_n(v0) from the noise's
`mode_weights` and `basis_values`, on the smallest grid where the L^q
sums of the noise band are exact for even q (`noise.quadrature_grid`).
The identity suite takes fresh random fields and judges the
nonlinearities the step runs: the velocity drift, reached as
`operators.velocity_drift` like the step reaches it, and the vorticity
advection F.

The Gronwall weight measures one constant, the Gagliardo-Nirenberg ratio
(`measure_gn_constant`); its noise term is the pathwise quotient
||G(v1)-G(v2)||^2_HS / ||v1-v2||^2 that Ito's formula produces, taken in
closed form from sigma and `noise.basis_l2_sq_sum`.  The GN constant
draws its random trial fields in the order of one `random_divfree_field`
call each, and evaluates them a chunk at a time (sized to
TRIAL_CHUNK_BYTES) in stacked arrays: `operators.divfree_halves` makes
them, `spectral.sobolev_norms` norms them and `spectral.physical_values`
transforms them, each in one call per chunk.  Each trial's last scalar
steps run on Python floats, so the constant has the bits of the trials
taken one at a time.  Its L^4 norms, and the L^q norms of the BDG sups,
go through `spectral.lq_norms`.

Every check is reproducible bit-for-bit from (config, seed): paths use
counter-based RNG streams keyed by (seed, path, step) and reductions run
in fixed path order, so results do not depend on the worker count, which
follows from the grid alone (`path_workers`), or on the batch size.
"""

from __future__ import annotations

import functools
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np

from . import operators
from .integrator import (
    CoupledState,
    SolverConfig,
    TrajectoryStats,
    _sup,
    holder_quotient,
    run_trajectory,
    trajectories,
)
from .noise import (
    CovarianceSpec,
    basis_l2_sq_sum,
    basis_values,
    mode_weights,
    operator_norms,
    quadrature_grid,
    sample_increment,
    sigma_eval,
)
from .operators import (
    bilinear_F,
    biot_savart,
    curl,
    divergence_defect,
    divfree_draws,
    divfree_halves,
    grad_norm_l2,
    grad_norms,
    gradient,
    random_divfree_field,
    random_scalar_field,
    vorticity_values,
)
from .spectral import (
    Field,
    ScalarField,
    SpectralGrid,
    VectorField,
    bessel_multiplier,
    dealiased_block,
    l2_inner,
    l2_norm,
    lq_norm,
    lq_norms,
    physical_values,
    regrid,
    sobolev_norm_spectral,
    sobolev_norms,
    to_spectral,
    write_snapshot,
)


@dataclass
class CheckResult:
    """One named verification outcome; passed holds iff observed <= bound."""

    name: str
    observed: float
    bound: float
    passed: bool
    n_samples: int
    seed: int
    extra: dict | None = None

    @classmethod
    def evaluate(cls, name, observed, bound, n_samples, seed, extra=None):
        observed = float(observed)
        bound = float(bound)
        passed = bool(np.isfinite(observed) and observed <= bound)
        return cls(name, observed, bound, passed, int(n_samples), int(seed), extra)

    def to_dict(self) -> dict:
        """The JSON payload, extra ({} if none) included, with None for every
        non-finite number at any depth: strict JSON has no Infinity or NaN."""
        return _finite_or_none({
            "name": self.name,
            "observed": self.observed,
            "bound": self.bound,
            "passed": self.passed,
            "n_samples": self.n_samples,
            "seed": self.seed,
            "extra": self.extra or {},
        })


def _finite_or_none(value):
    if isinstance(value, dict):
        return {k: _finite_or_none(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite_or_none(v) for v in value]
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


# Below this grid a step is mostly per-call Python work, which the GIL
# serialises, so paths run one after another.  In `vortex run` on 2 CPUs one
# worker beat two by ~20 % at N = 32 and 64 and lost by ~40 % at 256.  On the
# 4-path, 16-step N = 256 benchmark shape at other N (medians of 24 warm runs,
# 3 to 5 sessions, 2 shared CPUs), one worker took 0.09-0.13 s against two's
# 0.10-0.12 s at N = 96, 0.11-0.16 s against 0.11-0.13 s at 112, and
# 0.19-0.20 s against 0.12-0.14 s at 128.
POOL_MIN_GRID = 128


def path_workers(grid: SpectralGrid) -> int:
    """Threads for the paths of a grid: 1 below POOL_MIN_GRID, else up to 4."""
    return 1 if grid.modes_per_dim < POOL_MIN_GRID else min(4, os.cpu_count() or 1)


def run_paths(worker, n_paths: int, workers: int) -> list:
    """Evaluate worker(0..n_paths-1); results ordered by path index, so the
    reduction is independent of the worker count."""
    if workers <= 1 or n_paths <= 1:
        return [worker(i) for i in range(n_paths)]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(worker, range(n_paths)))


def mc_mean_stderr(values) -> tuple[float, float]:
    arr = np.asarray(values, dtype=float)
    mean = float(np.mean(arr))
    if arr.size < 2:
        return mean, 0.0
    return mean, float(np.std(arr, ddof=1) / np.sqrt(arr.size))


# ---------------------------------------------------------------------------
# measured constants


# The GN constant below evaluates its random trial fields in chunks.  A
# field's largest stacked array, its normal draws, takes 32 N^2 bytes; a
# chunk keeps it near this working set, so the chunk shrinks as the grid grows.
# The sweep and the Gronwall pairs step their paths in batches by the same
# rule, a path counting as one trial field and a pair as two: a batch holds
# max(1, TRIAL_CHUNK_BYTES // (32 N^2 x fields per trial)) trials, so 8 paths
# or 4 pairs at N = 32, 2 paths or 1 pair at 64, and one path or pair at every
# N above 64.  From POOL_MIN_GRID on the pool steps one batch per job.
# Larger batches cost more than they save (2 CPUs, numpy 2.4 with pocketfft):
# at N = 256 a batch of 4 paths ran at 0.77x the speed of the 4 paths one at a
# time, and at N = 64 batches of 16 raised the peak RSS of a 16-path
# `vortex run` from 40 to 46 MB.
TRIAL_CHUNK_BYTES = 256 * 1024


def _trial_chunks(grid: SpectralGrid, trials: int, fields_per_trial: int = 1):
    """The trial counts of successive chunks, summing to trials."""
    per_trial = 32 * grid.modes_per_dim**2 * fields_per_trial
    size = max(1, TRIAL_CHUNK_BYTES // per_trial)
    for lo in range(0, trials, size):
        yield min(size, trials - lo)


def _batches(grid: SpectralGrid, n_paths: int, rows_per_path: int = 1) -> list[range]:
    """The paths 0..n_paths-1 in successive batches of `_trial_chunks` size."""
    out, first = [], 0
    for size in _trial_chunks(grid, n_paths, rows_per_path):
        out.append(range(first, first + size))
        first += size
    return out


@lru_cache(maxsize=8)
def measure_gn_constant(grid: SpectralGrid, trials: int, seed: int = 7) -> float:
    """Gagliardo-Nirenberg constant on the torus: the largest observed ratio
    ||V||^2_{L^4} / (||V||_{L^2} ||grad V||_{L^2}) over random mean-zero
    divergence-free fields, V with the spectrum |k|^-d, d uniform in [1, 3].

    The fields are drawn in the order of one random_divfree_field call each
    and evaluated a chunk at a time: their L^2 norms by `sobolev_norms` and
    their L^4 norms by `lq_norms` of one `physical_values`, which takes
    only the dealias band's columns of the dealiased trials.  Each trial's
    last steps, the ratio and the running sup, run on scalars, so the
    constant has the bits of the trials taken one at a time."""
    rng = np.random.default_rng(seed)
    best = 0.0
    for size in _trial_chunks(grid, trials):
        decays, normals = divfree_draws(grid, rng, size, (1.0, 3.0))
        v = divfree_halves(grid, normals, decays, np.ones(size))
        l2 = sobolev_norms(v, grid)
        grad = grad_norms(v, grid)
        l4 = lq_norms(physical_values(dealiased_block(v, grid)), 4.0, grid)
        for a, b, c in zip(l2, grad, l4):
            denom = float(a) * float(b)
            if denom == 0.0:
                continue
            best = _sup(best, float(c) ** 2 / denom)
    return best


# ---------------------------------------------------------------------------
# energy / uniformity reports


def _status_failure(name: str, groups: dict[str, list[str]],
                    seed: int) -> CheckResult | None:
    """A FAIL named <name>.status that counts the blown-up paths among the
    groups of path statuses a check reads, or None; a truncated path's numbers
    are finite but meaningless."""
    blown = {where: sum(s != "completed" for s in g) for where, g in groups.items()}
    if not any(blown.values()):
        return None
    where = ", ".join(f"{b} of {len(groups[w])} paths{w}" for w, b in blown.items() if b)
    return CheckResult(f"{name}.status", float(sum(blown.values())), 0.0, False,
                       sum(map(len, groups.values())), seed,
                       extra={"diagnostic": f"{where} blew up"})


def energy_report(stats: list[TrajectoryStats], ceilings: dict[str, float],
                  seed: int) -> list[CheckResult]:
    """MC means of the trajectory functionals checked against ceilings.

    Any blown-up path fails the whole report as energy.status.
    """
    if len(stats) < 2:
        raise ValueError("energy_report needs at least 2 completed paths")
    failed = _status_failure("energy", {"": [s.status for s in stats]}, seed)
    if failed is not None:
        return [failed]
    out = []
    for fname in TrajectoryStats.FUNCTIONALS:
        values = [s.functional(fname) for s in stats]
        mean, stderr = mc_mean_stderr(values)
        ceiling = ceilings.get(fname, math.inf)
        out.append(CheckResult.evaluate(
            f"energy.{fname}", mean, ceiling, len(stats), seed,
            extra={"stderr": stderr},
        ))
    return out


def _level_tag(n: float) -> str:
    return "inf" if n == math.inf else f"{n:g}"


def _spread(values: list[float]) -> float:
    """max/min of nonnegative values; 1 when all are 0, inf when only some are."""
    lo, hi = min(values), max(values)
    return 1.0 if hi == lo == 0.0 else (math.inf if lo == 0.0 else hi / lo)


# ---------------------------------------------------------------------------
# the shared sweep over (Hille-Yosida level, path)


@dataclass(frozen=True)
class HolderProbe:
    """A zeta Holder quotient asked of each path: exponent beta in time, in
    W^{delta,q}, from zeta sampled every `stride` steps and at the end."""

    beta: float
    delta: float
    q: float
    stride: int


@dataclass
class PathResult:
    """What outlives an integrated path: its stats and one quotient per probe."""

    stats: TrajectoryStats
    quotients: dict[HolderProbe, float]


def zeta_budget(roughness: float, beta: float, delta: float, p: float) -> None:
    """Refuse zeta_regularity parameters that assert nothing: they must
    satisfy the strict inequality beta + delta/2 + 1/p < (1-g)/2."""
    budget = (1.0 - roughness) / 2.0
    demand = beta + delta / 2.0 + 1.0 / p
    if not demand < budget:
        raise ValueError(f"zeta_regularity refused: beta + delta/2 + 1/p = {demand:.4g} "
                         f"must be < (1-g)/2 = {budget:.4g}")


def sweep(spec: CovarianceSpec, v0: VectorField | None, xi0: ScalarField,
          cfg: SolverConfig, base_seed: int, n_paths: int, lq_exponent: float = 4.0,
          demands=(), snapshot_dir=None, snapshot_stride: int = 0,
          ) -> dict[float, list[PathResult]]:
    """Integrate each (Hille-Yosida level, path) a run needs exactly once.

    The main level spec.hy_level gets the n_paths main Monte-Carlo paths.
    Each demand (levels, paths, probe) asks for `paths` paths at each of
    `levels` and, unless probe is None, for the probe's quotient of each.  A
    level runs the largest path count asked of it; a consumer asking fewer
    reads a prefix.  Returns level -> one PathResult per path, in path
    order: path p at level n is run_trajectory's (base_seed, p) solution
    under spec.with_hy_level(n), stepped in a batch of the level's paths.
    With snapshot_dir and snapshot_stride > 0, the main Monte-Carlo paths
    write xi every snapshot_stride steps there.
    """
    write_any = snapshot_dir is not None and snapshot_stride > 0
    if write_any:
        Path(snapshot_dir).mkdir(parents=True, exist_ok=True)
    counts = {spec.hy_level: n_paths}
    probes: dict[float, set[HolderProbe]] = {spec.hy_level: set()}
    for levels, paths, probe in demands:
        for n in levels:
            counts[n] = max(counts.get(n, 0), paths)
            probes.setdefault(n, set()).update([] if probe is None else [probe])
    jobs = [(n, paths) for n in counts for paths in _batches(xi0.grid, counts[n])]

    def observer(level, path):
        """The observer of a path, and the zeta samples it keeps per stride."""
        samples = {probe.stride: ([], []) for probe in probes[level]}
        write = write_any and level == spec.hy_level and path < n_paths
        if not samples and not write:
            return None, samples
        step = 0

        def observe(st: CoupledState):
            nonlocal step
            for stride, (zetas, times) in samples.items():
                if step % stride == 0 or step == cfg.n_steps:
                    zetas.append(st.zeta)
                    times.append(st.t)
            if write and step % snapshot_stride == 0:
                write_snapshot(st.xi, Path(snapshot_dir) / f"path{path:04d}_step{step:06d}.vspd")
            step += 1

        return observe, samples

    def worker(job):
        level, paths = jobs[job]
        observers, samples = zip(*(observer(level, p) for p in paths))
        done = run_trajectory(v0, xi0, spec.with_hy_level(level), cfg, seed=base_seed,
                              path_index=paths.start, lq_exponent=lq_exponent,
                              observer=observers, n_paths=len(paths))
        return [PathResult(res.stats, {
            probe: holder_quotient(*kept[probe.stride], probe.beta, probe.delta, probe.q)
            for probe in probes[level]}) for res, kept in zip(done, samples)]

    done = run_paths(worker, len(jobs), path_workers(xi0.grid))
    return {n: [r for (m, _), batch in zip(jobs, done) if m == n for r in batch]
            for n in counts}


def _read_levels(name: str, results, levels, n_paths: int, seed: int):
    """The first n_paths sweep results at each level, and the FAIL that
    _status_failure gives for them."""
    paths = {n: results[n][:n_paths] for n in levels}
    if any(len(got) < n_paths for got in paths.values()):
        raise ValueError(f"{name} reads {n_paths} paths per level; the sweep holds fewer")
    statuses = {f" at level {_level_tag(n)}": [r.stats.status for r in got]
                for n, got in paths.items()}
    return paths, _status_failure(name, statuses, seed)


def hy_uniformity(results: dict[float, list[PathResult]], levels, n_paths: int,
                  base_seed: int, factor: float) -> CheckResult:
    """Uniformity in the Hille-Yosida level, reduced from a sweep: across the
    levels, the max/min ratio of every functional's mean over the first
    n_paths matched-seed paths must stay below factor.  A path among them
    that blew up fails the check as hy_uniformity.status."""
    levels = list(levels)
    if len(levels) < 2:
        raise ValueError("hy_uniformity needs at least 2 levels")
    paths, failed = _read_levels("hy_uniformity", results, levels, n_paths, base_seed)
    if failed is not None:
        return failed
    detail = {}
    for f in TrajectoryStats.FUNCTIONALS:
        means = [float(np.mean([r.stats.functional(f) for r in paths[n]])) for n in levels]
        detail[f] = {"means": means, "ratio": _spread(means)}
    worst = max([1.0] + [d["ratio"] for d in detail.values()])
    return CheckResult.evaluate(
        "hy_uniformity", worst, factor, n_paths * len(levels), base_seed,
        extra={"levels": [_level_tag(n) for n in levels], "functionals": detail},
    )


# ---------------------------------------------------------------------------
# Ornstein-Uhlenbeck regularity


def zeta_regularity(results: dict[float, list[PathResult]], levels, n_paths: int,
                    base_seed: int, probe: HolderProbe, p: float,
                    stability_factor: float) -> CheckResult:
    """Holder quotients of the stochastic convolution in W^{delta,q},
    reduced from a sweep that computed `probe` at every level; check the
    parameters with zeta_budget before the sweep.

    PASS when the p-th-moment MC mean over the first n_paths paths is
    finite and stable across levels; stability is measured on the moment's
    own amplitude scale E[q^p]^(1/p), so different p are comparable and the
    factor bounds the quotient variation itself.  A path among them that
    blew up fails the check as zeta_regularity.status.
    """
    levels = list(levels)
    paths, failed = _read_levels("zeta_regularity", results, levels, n_paths, base_seed)
    if failed is not None:
        return failed
    quots = [np.asarray([r.quotients[probe] for r in paths[n]]) for n in levels]
    level_moments = [float(np.mean(x**p)) for x in quots]
    ratio = _spread([m ** (1.0 / p) for m in level_moments])
    observed = ratio if all(np.isfinite(level_moments)) else math.inf
    return CheckResult.evaluate(
        "zeta_regularity", observed, stability_factor,
        n_paths * len(levels), base_seed,
        extra={"moment_means": level_moments,
               "quotient_means": [float(np.mean(x)) for x in quots],
               "levels": [_level_tag(n) for n in levels],
               "beta": probe.beta, "delta": probe.delta, "p": p, "q": probe.q},
    )


# ---------------------------------------------------------------------------
# Gronwall / pathwise uniqueness


def gronwall_pairs(v0_a: VectorField, v0_b: VectorField, spec: CovarianceSpec,
                   cfg: SolverConfig, seed: int, paths, a_const: float) -> list[dict]:
    """For each path p of `paths`, two solutions under identical increments:
    the (seed, p) solution from each initial velocity.  All of them step as
    one batch of the integrator's loop, `trajectories`, whose rows
    (v0_a, p) and (v0_b, p) share p's draws.  Pair k is rows 2k and 2k+1,
    alive while both are: the visit that finds one dead ends the other.

    Returns per path the weighted-difference series
    M(t) = exp(-int_0^t psi) ||V(t)||^2, V = v1 - v2, with
    psi = a ||grad v1||^2 + q^2 (left-endpoint quadrature), the raw sup of
    ||V||, and the status, 'blowup' if either solution blew up (the series
    end there) or else 'completed'.  q^2 = ||G_n(v1) - G_n(v2)||^2_HS / ||V||^2
    is the noise term of Ito's formula, 0 where V = 0: since G_n(v) h_k is
    c_k sigma(v) n/(n+|k|^2) e_k, it is (sigma(v1) - sigma(v2))^2 times
    `basis_l2_sq_sum` over ||V||^2, read from the states and the noise's
    mode table, never from the increment `apply_G` returns.  The norms are
    taken over the batch and the scalar tails per pair on floats, so each
    pair has the bits of its one-pair call.
    """
    grid = v0_a.grid
    hs_sq = basis_l2_sq_sum(spec, grid)
    xi_a, xi_b = curl(v0_a), curl(v0_b)
    rows = [row for p in paths for row in ((v0_a, xi_a, p), (v0_b, xi_b, p))]
    n = len(rows) // 2
    series, sup_v = [[] for _ in range(n)], [0.0] * n
    int_psi, psi, completed = [0.0] * n, [0.0] * n, [False] * n
    for visit in trajectories(rows, spec, cfg, seed):
        alive = visit.alive[0::2] & visit.alive[1::2]
        visit.end(~alive.repeat(2))  # a pair ends with either of its solutions
        one, two = visit.v[0::2], visit.v[1::2]
        gaps = sobolev_norms(one - two, grid)
        grads = grad_norms(one, grid)
        for k in np.flatnonzero(alive):
            int_psi[k] += cfg.dt * psi[k]
            vnorm = float(gaps[k])
            sup_v[k] = _sup(sup_v[k], vnorm)
            gap_sq = vnorm**2
            series[k].append(math.exp(-int_psi[k]) * gap_sq)
            rise = (sigma_eval(VectorField(grid, one[k]), spec)
                    - sigma_eval(VectorField(grid, two[k]), spec))
            q_sq = rise * rise * hs_sq / gap_sq if gap_sq else 0.0
            psi[k] = a_const * float(grads[k]) ** 2 + q_sq
            completed[k] = visit.step == cfg.n_steps
    return [{"m_series": m, "sup_v": sup, "status": "completed" if done else "blowup"}
            for m, sup, done in zip(series, sup_v, completed)]


def gronwall_uniqueness(v0_a: VectorField, v0_b: VectorField, spec: CovarianceSpec,
                        cfg: SolverConfig, n_paths: int, base_seed: int, slack: float,
                        gn_trials: int) -> CheckResult:
    """Discrete pathwise-uniqueness check.

    Identical data must stay identical to machine precision; perturbed data
    must keep the MC mean of the exponentially weighted squared difference
    below slack * ||V(0)||^2 (the supermartingale property of the weight).
    The weight is psi = a ||grad v1||^2 + ||G_n(v1) - G_n(v2)||^2_HS / ||V||^2
    (`gronwall_pairs`); the Young constant a is calibrated from the measured
    Gagliardo-Nirenberg ratio.  The pairs step in batches (`_batches`, two
    rows a pair).  A pair that blew up fails the check as gronwall.status; a
    NaN difference fails it too.
    """
    grid = v0_a.grid
    identical = np.array_equal(v0_a.half, v0_b.half)
    a_const = measure_gn_constant(grid, gn_trials) ** 2
    jobs = _batches(grid, n_paths, rows_per_path=2)

    def worker(job):
        return gronwall_pairs(v0_a, v0_b, spec, cfg, base_seed, jobs[job], a_const)

    results = [r for batch in run_paths(worker, len(jobs), path_workers(grid)) for r in batch]
    failed = _status_failure("gronwall", {"": [r["status"] for r in results]}, base_seed)
    if failed is not None:
        return failed
    if identical:
        observed = functools.reduce(_sup, (r["sup_v"] for r in results))
        return CheckResult.evaluate(
            "gronwall.identical", observed, 1e-12, n_paths, base_seed,
            extra={"a": a_const},
        )
    v0_gap_sq = l2_norm(v0_a - v0_b) ** 2
    m_final = [r["m_series"][-1] for r in results]
    mean, stderr = mc_mean_stderr(m_final)
    return CheckResult.evaluate(
        "gronwall.perturbed", mean, slack * v0_gap_sq, n_paths, base_seed,
        extra={"a": a_const, "stderr": stderr, "v0_gap_sq": v0_gap_sq},
    )


# ---------------------------------------------------------------------------
# operator identity suite


# Bounds of the identity suite, in its result order: the drift identities and
# the cancellations hold to rounding (the drift residuals stayed below 1e-14 for
# N = 16-256), F obeys its W^{-1,2} bound by the L^4 norms with 1 % slack, and
# the spectral identities hold to rounding.
IDENTITY_BOUNDS = {
    "drift_curl": 1e-10, "drift_energy": 1e-10, "drift_divfree": 1e-12,
    "f_self": 1e-10, "f_antisym": 1e-10, "f_weighted_q4": 1e-10, "f_bound": 1.01,
    "curl_grad": 1e-12, "bs_roundtrip": 1e-12, "bs_divfree": 1e-12,
}


def _weighted_residual(u: VectorField, f: ScalarField) -> float:
    """|<u.grad f, |f|^2 f>| / (||u||_{L2} ||f||_{H1} || |f|^2 f ||_{H1}),
    the q = 4 weighted cancellation for a vorticity f, u and f dealiased.

    The pairing multiplies five factors band-limited to the dealias cutoff
    c, so its frequencies reach 5c.  It is evaluated on the padded 2N grid,
    where the rectangle rule integrates it exactly while 5c < 2N, as for
    any dealias_fraction below 4/5 (Boyd, Chebyshev and Fourier Spectral
    Methods, 2001, ch. 11).  The padded values are formed from the N-grid
    coefficients, u and grad f each in one stacked transform.  Each
    dealiased factor fills only the columns 0..L of the 2N grid's N+1, L
    the N grid's `dealias_limit`, so its transform takes that block alone.
    """
    grid = u.grid
    fine = SpectralGrid(2 * grid.modes_per_dim, grid.domain_length,
                        grid.dealias_fraction)

    def padded(c: Field) -> np.ndarray:
        return physical_values(regrid(c, fine).half[..., : grid.dealias_limit + 1])

    p = padded(f)
    w = p * p * p
    del p
    advection = padded(u)
    advection *= padded(gradient(f))
    pairing = float(np.sum(advection.sum(axis=0) * w))
    scale = (l2_norm(u) * sobolev_norm_spectral(f, 1.0)
             * sobolev_norm_spectral(to_spectral(w, fine), 1.0))
    return abs(pairing) * fine.cell_area / scale


def require_identity_grid(grid: SpectralGrid) -> None:
    """Refuse a grid whose dealias band holds only the mean mode: every
    random field of the identity suite would be 0, every residual 0/0."""
    if grid.dealias_limit < 1:
        raise ValueError(f"the identity suite needs a nonzero mode in the dealias band; "
                         f"'grid.dealias_fraction' {grid.dealias_fraction} keeps only the "
                         f"mean mode of {grid.modes_per_dim} modes per dimension")


def identity_suite(grid: SpectralGrid, trials: int, seed: int = 0) -> list[CheckResult]:
    """Worst relative residuals of the operator identities over fresh random
    fields (|k|^-2 spectral decay, random phases, dealiased,
    divergence-freed), held to IDENTITY_BOUNDS.

    The drift identities judge D = velocity_drift(u, w), w the vorticity
    values of u, the P B(u,u) that every time step computes: its curl is
    F(u, curl u), it does no work on u, and it is divergence-free."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    require_identity_grid(grid)
    rng = np.random.default_rng(seed)
    worst = dict.fromkeys(IDENTITY_BOUNDS, 0.0)
    for _ in range(trials):
        u = random_divfree_field(grid, rng)
        v = random_divfree_field(grid, rng)
        # one divergence-free field is drawn and not used, so that each seed
        # keeps the xi and zeta of earlier versions of the suite
        divfree_draws(grid, rng, 1)
        xi = random_scalar_field(grid, rng)
        zeta = random_scalar_field(grid, rng)

        u_l2 = l2_norm(u)
        u_h1 = sobolev_norm_spectral(u, 1.0)
        xi_w1 = sobolev_norm_spectral(xi, 1.0)
        zeta_w1 = sobolev_norm_spectral(zeta, 1.0)

        drift = VectorField(grid, operators.velocity_drift(grid, u.half, vorticity_values(u)))
        fuw = bilinear_F(u, curl(u))
        fuxi = bilinear_F(u, xi)
        dual = sobolev_norm_spectral(bessel_multiplier(fuxi, -1.0), 0.0)
        gn = grad_norm_l2(v)
        bs = biot_savart(xi)
        residuals = {
            "drift_curl": l2_norm(curl(drift) - fuw) / l2_norm(fuw),
            "drift_energy": abs(l2_inner(drift, u)) / (u_l2 * u_h1**2),
            "drift_divfree": divergence_defect(drift),
            "f_self": abs(l2_inner(fuxi, xi)) / (u_l2 * xi_w1**2),
            "f_antisym": abs(l2_inner(fuxi, zeta) + l2_inner(bilinear_F(u, zeta), xi))
            / (u_l2 * xi_w1 * zeta_w1),
            # the q = 4 weighted identity: the cubic test factor is not in the
            # dealias band, so the pairing is taken on the padded grid, where
            # its quadrature is exact and the residual is rounding alone;
            # measured in the same relative sense as the energy cancellation
            "f_weighted_q4": _weighted_residual(u, xi),
            "f_bound": dual / (lq_norm(u, 4.0) * lq_norm(xi, 4.0)),
            "curl_grad": abs(gn - l2_norm(curl(v))) / gn,
            "bs_roundtrip": l2_norm(curl(bs) - xi) / l2_norm(xi),
            "bs_divfree": divergence_defect(bs),
        }
        for k, r in residuals.items():
            worst[k] = _sup(worst[k], r)  # a NaN residual stays, and FAILs

    return [CheckResult.evaluate(f"identity.{k}", worst[k], IDENTITY_BOUNDS[k], trials, seed)
            for k in worst]


# ---------------------------------------------------------------------------
# stochastic-integral (BDG) constants


def simulate_bdg_sups(spec: CovarianceSpec, v0: VectorField, q: float, n_paths: int,
                      base_seed: int, t_end: float, dt: float,
                      grid: SpectralGrid | None = None) -> np.ndarray:
    """sup_t ||X(t)||_{L^q} per path for X(t) = int_0^t Phi dW with the frozen
    operator Phi = G_n(v0): X(t_j) = sum_k w_k B_k(t_j) e_k, w_k the
    `mode_weights` read on v0's grid and B_k the path's Brownian motions,
    summed from its (base_seed, path, step) increments.  The e_k values and
    the L^q sums are taken on `grid`, v0's own by default; X has the noise
    band K, so for even q they are exact on any M-point grid with qK < M,
    such as `noise.quadrature_grid`.  `lq_norms` takes each time's values
    divided by the power of two at their largest |x|, and its norm is
    multiplied back: an exact scaling that keeps |x|^q from under- or
    overflowing at large q.  Shape (path, 2): the sup over the first
    n_steps // 2 steps and the sup over all n_steps.
    """
    n_steps = int(round(t_end / dt))
    grid = v0.grid if grid is None else grid
    n = grid.modes_per_dim
    amps = mode_weights(spec, v0)
    # each mode's physical velocity, both components: (m, 2 N^2)
    e_phys = basis_values(spec, grid).reshape(spec.n_modes, -1)

    def worker(path):
        g = np.stack([sample_increment(base_seed, path, step, spec, dt).gaussians
                      for step in range(n_steps)])
        brown = np.vstack([np.zeros(spec.n_modes), np.cumsum(g, axis=0)]) * math.sqrt(dt)
        weighted = brown * amps
        norms = np.empty(n_steps + 1)
        for lo in range(0, n_steps + 1, 128):  # time blocks bound the memory
            hi = min(lo + 128, n_steps + 1)
            values = weighted[lo:hi] @ e_phys  # (block, 2 N^2)
            _, scale = np.frexp(np.abs(values).max(axis=1))
            np.ldexp(values, -scale[:, None], out=values)
            norms[lo:hi] = np.ldexp(lq_norms(values.reshape(-1, 2, n, n), q, grid), scale)
        return float(norms[: n_steps // 2 + 1].max()), float(norms.max())

    return np.array(run_paths(worker, n_paths, path_workers(grid)))


def bdg_phi_norm(spec: CovarianceSpec, v0: VectorField, q: float) -> float:
    """||Phi||_R of Phi = G_n(v0) on `noise.quadrature_grid`: 0.0 exactly
    when every `mode_weights` entry is 0, so that Phi = 0.  Raises
    ValueError when a nonzero Phi gets a norm that is 0 or not finite,
    which happens where |x|^q under- or overflows: the constants would
    divide by it."""
    if not np.any(mode_weights(spec, v0)):
        return 0.0
    norm = operator_norms(v0, spec, 0.0, q, quadrature_grid(spec, v0.grid, q))["radonifying"]
    if not (math.isfinite(norm) and norm > 0.0):
        raise ValueError(f"the gamma-radonifying norm of a nonzero noise operator is {norm} "
                         f"at q = {q}: |x|^q under- or overflows")
    return norm


def bdg_report(spec: CovarianceSpec, v0: VectorField, q: float, m_list, n_paths: int,
               base_seed: int, t_end: float, dt: float, stability: float,
               phi_norm: float | None = None) -> list[CheckResult]:
    """Fitted constants C_m = E sup_{t<=T} ||X||^m_{L^q} / (T ||Phi||^2_R)^{m/2}
    at the times the sups cover, T = (n_steps // 2) dt and t_end (at least
    2 steps); PASS when both sit within +-stability of their mean.  Since
    X = sigma(v0) sum_k c_k R_n(k) B_k e_k and sigma(v0) cancels in C_m, this
    verifies the T^{m/2} scaling of the Brownian sup moments of the fixed
    field sum_k c_k R_n e_k B_k; it never reads the time step.

    sigma(v0) and the weights are read on v0's grid; the sups and ||Phi||_R
    are summed on `noise.quadrature_grid`.  X has the noise band K, so for
    even q the rectangle rule of |X|^q (band qK) is exact on M points when
    qK < M: Q is the smallest such even M >= 8, capped at 2N, and any finer
    grid adds only rounding.  For other q, no grid is exact, and Q is 2N.
    `phi_norm` is `bdg_phi_norm`'s value, computed here when not given.  A
    degenerate Phi = 0 makes the ratio undefined; reported as skipped.
    """
    for m in m_list:
        if m < 2 or m % 2 != 0:
            raise ValueError(f"moment order must be even and >= 2, got {m}")
    n_steps = int(round(t_end / dt))
    if n_steps < 2:
        raise ValueError(f"bdg needs at least 2 time steps, got {n_steps}")
    if phi_norm is None:
        phi_norm = bdg_phi_norm(spec, v0, q)
    if phi_norm == 0.0:
        return [CheckResult.evaluate(f"bdg.C{m}.skipped", 0.0, 0.0, n_paths, base_seed,
                                     extra={"reason": "Phi = 0"}) for m in m_list]

    sups = simulate_bdg_sups(spec, v0, q, n_paths, base_seed, t_end, dt,
                             quadrature_grid(spec, v0.grid, q))
    # the time each sup covers; for an even step count t_end / 2 exactly
    horizons = (t_end * ((n_steps // 2) / n_steps), t_end)
    out = []
    for m in m_list:
        constants = {}
        for col, horizon in enumerate(horizons):
            mean = float(np.mean(sups[:, col] ** m))
            constants[f"T={horizon:g}"] = mean / (horizon * phi_norm**2) ** (m / 2.0)
        vals = np.array(list(constants.values()))
        center = float(np.mean(vals))
        observed = float(np.max(np.abs(vals - center)) / center)
        out.append(CheckResult.evaluate(f"bdg.C{m}", observed, stability, n_paths, base_seed,
                                        extra={"constants": constants}))
    return out
