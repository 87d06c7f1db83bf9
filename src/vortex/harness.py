"""Monte-Carlo and pathwise verification of the a-priori estimates:
energy / L^q boundedness, uniformity in the Hille-Yosida level,
Ornstein-Uhlenbeck regularity, the exponential-weight Gronwall contraction,
stochastic-integral moment bounds, and the operator-identity suites.

The solutions of the coupled system are integrated in one place: `sweep`
runs each (Hille-Yosida level, path) a run needs exactly once, and keeps
per path only scalars (the stats and the zeta Holder quotients).  The
energy report, `hy_uniformity` and `zeta_regularity` are pure reductions
over its results.  The Gronwall pair, the BDG sums and the identity suites
integrate their own, different processes.

Every check is reproducible bit-for-bit from (config, seed): paths use
counter-based RNG streams keyed by (seed, path, step) and reductions run
in fixed path order, so results do not depend on the worker count, which
follows from the grid alone (`path_workers`).
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from functools import lru_cache
from pathlib import Path

import numpy as np

from .integrator import (
    BlowupError,
    CoupledState,
    SolverConfig,
    TrajectoryStats,
    _sup,
    holder_quotient,
    run_trajectory,
    velocity_step,
)
from .noise import (
    CovarianceSpec,
    apply_G,
    basis_l2_sq_sum,
    build_noise_basis,
    mode_ksq,
    operator_norms,
    sample_increment,
    scatter_plan,
    sigma_eval,
)
from .operators import (
    bilinear_B,
    bilinear_F,
    biot_savart,
    bracket,
    curl,
    divergence_defect,
    grad_norm_l2,
    gradient,
    random_divfree_field,
    random_scalar_field,
    vorticity_values,
)
from .spectral import (
    ScalarField,
    SpectralGrid,
    VectorField,
    bessel_multiplier,
    l2_norm,
    lq_norm,
    regrid,
    sobolev_norm_spectral,
    to_physical,
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
        return {
            "name": self.name,
            "observed": self.observed,
            "bound": self.bound,
            "passed": self.passed,
            "n_samples": self.n_samples,
            "seed": self.seed,
        }


# Below this grid a step is mostly per-call Python work, which the GIL
# serialises, so paths run one after another.  In `vortex run` on 2 CPUs one
# worker beat two by ~20 % at N = 32 and 64, tied at 96, and lost by ~10 % at
# 128 and by ~40 % at 256.
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


@lru_cache(maxsize=8)
def measure_gn_constant(grid: SpectralGrid, trials: int = 10000, seed: int = 7) -> float:
    """Gagliardo-Nirenberg constant on the torus: the largest observed ratio
    ||V||^2_{L^4} / (||V||_{L^2} ||grad V||_{L^2}) over random mean-zero
    divergence-free fields."""
    rng = np.random.default_rng(seed)
    best = 0.0
    for _ in range(trials):
        v = random_divfree_field(grid, rng, decay=rng.uniform(1.0, 3.0))
        denom = l2_norm(v) * grad_norm_l2(v)
        if denom == 0.0:
            continue
        best = _sup(best, lq_norm(v, 4.0) ** 2 / denom)
    return best


def estimate_sigma_lipschitz(spec: CovarianceSpec, grid: SpectralGrid,
                             trials: int = 200, seed: int = 11) -> float:
    """Empirical Lipschitz slope of sigma in L^2 over random field pairs."""
    if spec.sigma_kind != "rational_square":
        return 0.0
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        v1 = random_divfree_field(grid, rng, amplitude=rng.uniform(0.1, 3.0))
        v2 = random_divfree_field(grid, rng, amplitude=rng.uniform(0.1, 3.0))
        gap = l2_norm(v1 - v2)
        if gap == 0.0:
            continue
        worst = _sup(worst, abs(sigma_eval(v1, spec) - sigma_eval(v2, spec)) / gap)
    return worst


def estimate_lipschitz_lg(spec: CovarianceSpec, grid: SpectralGrid,
                          trials: int = 200, seed: int = 11) -> float:
    """Empirical weak-norm Lipschitz constant of the covariance:
    Lip(sigma) * (sum_k c_k^2 ||e_k||^2_{L^2})^(1/2)."""
    slope = estimate_sigma_lipschitz(spec, grid, trials, seed)
    if slope == 0.0:
        return 0.0
    return slope * math.sqrt(basis_l2_sq_sum(spec, grid))


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
    under spec.with_hy_level(n).  With snapshot_dir and snapshot_stride > 0,
    the main Monte-Carlo paths write xi every snapshot_stride steps there.
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
    jobs = [(n, p) for n in counts for p in range(counts[n])]

    def worker(job):
        level, path = jobs[job]
        samples = {probe.stride: ([], []) for probe in probes[level]}
        write = write_any and level == spec.hy_level and path < n_paths
        step = 0

        def observer(st: CoupledState):
            nonlocal step
            for stride, (zetas, times) in samples.items():
                if step % stride == 0 or step == cfg.n_steps:
                    zetas.append(st.zeta)
                    times.append(st.t)
            if write and step % snapshot_stride == 0:
                write_snapshot(st.xi, Path(snapshot_dir) / f"path{path:04d}_step{step:06d}.vspd")
            step += 1

        res = run_trajectory(v0, xi0, spec.with_hy_level(level), cfg, seed=base_seed,
                             path_index=path, lq_exponent=lq_exponent, observer=observer)
        return PathResult(res.stats, {
            probe: holder_quotient(*samples[probe.stride], probe.beta, probe.delta, probe.q)
            for probe in probes[level]})

    done = run_paths(worker, len(jobs), path_workers(xi0.grid))
    return {n: [r for (m, _), r in zip(jobs, done) if m == n] for n in counts}


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
                  base_seed: int, factor: float = 1.5) -> CheckResult:
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
                    stability_factor: float = 2.0) -> CheckResult:
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


def gronwall_pair(
    v0_a: VectorField,
    v0_b: VectorField,
    spec: CovarianceSpec,
    cfg: SolverConfig,
    seed: int,
    path_index: int,
    a_const: float,
    lg: float,
) -> dict:
    """Two coupled velocity solutions under identical increments.

    Returns the weighted-difference series M(t) = exp(-int_0^t psi) ||V(t)||^2
    with psi = a ||grad v1||^2 + L_g^2 (left-endpoint quadrature), the raw
    sup of ||V||, and the status, 'blowup' if either solution blew up (the
    series end there) or else 'completed'.
    """
    touched = scatter_plan(spec, v0_a.grid).touched
    v1, v2 = v0_a, v0_b
    int_psi = 0.0
    m_series = [l2_norm(v1 - v2) ** 2]
    sup_v = l2_norm(v1 - v2)
    try:
        for step in range(cfg.n_steps):
            psi = a_const * grad_norm_l2(v1) ** 2 + lg * lg
            dW = sample_increment(seed, path_index, step, spec, cfg.dt)
            t = step * cfg.dt
            v1, _ = velocity_step(v1, vorticity_values(v1), apply_G(v1, dW, spec), touched,
                                  cfg, t)
            v2, _ = velocity_step(v2, vorticity_values(v2), apply_G(v2, dW, spec), touched,
                                  cfg, t)
            int_psi += cfg.dt * psi
            vnorm = l2_norm(v1 - v2)
            sup_v = max(sup_v, vnorm)
            m_series.append(math.exp(-int_psi) * vnorm**2)
    except BlowupError:
        return {"m_series": m_series, "sup_v": sup_v, "status": "blowup"}
    return {"m_series": m_series, "sup_v": sup_v, "status": "completed"}


def gronwall_uniqueness(
    v0_a: VectorField,
    v0_b: VectorField,
    spec: CovarianceSpec,
    cfg: SolverConfig,
    n_paths: int,
    base_seed: int,
    slack: float = 1.05,
    gn_trials: int = 10000,
    lg_trials: int = 200,
) -> CheckResult:
    """Discrete pathwise-uniqueness check.

    Identical data must stay identical to machine precision; perturbed data
    must keep the MC mean of the exponentially weighted squared difference
    below slack * ||V(0)||^2 (the supermartingale property of the weight).
    The Young constant a is calibrated from the measured Gagliardo-Nirenberg
    ratio, and L_g from the empirical sigma slope.  A pair that blew up
    fails the check as gronwall.status.
    """
    grid = v0_a.grid
    identical = np.array_equal(v0_a.vx.half, v0_b.vx.half) and np.array_equal(
        v0_a.vy.half, v0_b.vy.half
    )
    a_const = measure_gn_constant(grid, gn_trials) ** 2
    lg = estimate_lipschitz_lg(spec, grid, lg_trials)

    def worker(p):
        return gronwall_pair(v0_a, v0_b, spec, cfg, base_seed, p, a_const, lg)

    results = run_paths(worker, n_paths, path_workers(grid))
    failed = _status_failure("gronwall", {"": [r["status"] for r in results]}, base_seed)
    if failed is not None:
        return failed
    if identical:
        observed = max(r["sup_v"] for r in results)
        return CheckResult.evaluate(
            "gronwall.identical", observed, 1e-12, n_paths, base_seed,
            extra={"a": a_const, "lg": lg},
        )
    v0_gap_sq = l2_norm(v0_a - v0_b) ** 2
    m_final = [r["m_series"][-1] for r in results]
    mean, stderr = mc_mean_stderr(m_final)
    return CheckResult.evaluate(
        "gronwall.perturbed", mean, slack * v0_gap_sq, n_paths, base_seed,
        extra={"a": a_const, "lg": lg, "stderr": stderr, "v0_gap_sq": v0_gap_sq},
    )


# ---------------------------------------------------------------------------
# operator identity suite


# Bounds of the identity suite, in its result order: the cancellations hold
# to rounding, F obeys its W^{-1,2} bound by the L^4 norms with 1 % slack, and
# the spectral identities hold to rounding.
IDENTITY_BOUNDS = {
    "b_energy": 1e-10, "b_skew": 1e-10, "f_self": 1e-10, "f_antisym": 1e-10,
    "b_weighted_q4": 1e-10, "f_weighted_q4": 1e-10, "f_bound": 1.01,
    "curl_grad": 1e-12, "bs_roundtrip": 1e-12, "bs_divfree": 1e-12,
}


def _weighted_residual(u: VectorField, f) -> float:
    """|<(u.grad)f, |f|^2 f>| / (||u||_{L2} ||f||_{H1} || |f|^2 f ||_{H1}),
    the q = 4 weighted cancellation for f = u (B) or a vorticity f (F),
    both dealiased.

    The pairing multiplies five factors band-limited to the dealias cutoff
    c, so its frequencies reach 5c.  It is evaluated on the padded 2N grid,
    where the rectangle rule integrates it exactly while 5c < 2N, as for
    any dealias_fraction below 4/5 (Boyd, Chebyshev and Fourier Spectral
    Methods, 2001, ch. 11).  The padded values are formed one component at
    a time, from the N-grid coefficients, to keep the 4x larger arrays few.
    """
    grid = u.grid
    fine = SpectralGrid(2 * grid.modes_per_dim, grid.domain_length,
                        grid.dealias_fraction)

    def padded(c: ScalarField) -> np.ndarray:
        return to_physical(regrid(c, fine))

    ux, uy = padded(u.vx), padded(u.vy)
    parts = (f.vx, f.vy) if isinstance(f, VectorField) else (f,)
    values = (ux, uy) if f is u else [padded(c) for c in parts]  # B pairs u with itself
    m2 = sum(p * p for p in values)
    pairing, weight_h1_sq = 0.0, 0.0
    for c, p in zip(parts, values):
        w = m2 * p
        weight_h1_sq += sobolev_norm_spectral(to_spectral(w, fine), 1.0) ** 2
        grad_c = gradient(c)
        advection = ux * padded(grad_c.vx)
        advection += uy * padded(grad_c.vy)
        pairing += float(np.sum(advection * w))
    scale = l2_norm(u) * sobolev_norm_spectral(f, 1.0) * math.sqrt(weight_h1_sq)
    return abs(pairing) * fine.cell_area / scale


def identity_suite(grid: SpectralGrid, trials: int, seed: int = 0) -> list[CheckResult]:
    """Worst relative residuals of the bilinear-operator identities over
    fresh random fields (|k|^-2 spectral decay, random phases, dealiased,
    divergence-freed), held to IDENTITY_BOUNDS."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = np.random.default_rng(seed)
    worst = dict.fromkeys(IDENTITY_BOUNDS, 0.0)
    for _ in range(trials):
        u = random_divfree_field(grid, rng)
        v = random_divfree_field(grid, rng)
        z = random_divfree_field(grid, rng)
        xi = random_scalar_field(grid, rng)
        zeta = random_scalar_field(grid, rng)

        u_l2 = l2_norm(u)
        v_h1 = sobolev_norm_spectral(v, 1.0)
        z_h1 = sobolev_norm_spectral(z, 1.0)
        xi_w1 = sobolev_norm_spectral(xi, 1.0)
        zeta_w1 = sobolev_norm_spectral(zeta, 1.0)

        buv = bilinear_B(u, v)
        fuxi = bilinear_F(u, xi)
        dual = sobolev_norm_spectral(bessel_multiplier(fuxi, -1.0), 0.0)
        gn = grad_norm_l2(v)
        bs = biot_savart(xi)
        residuals = {
            "b_energy": abs(bracket(buv, v)) / (u_l2 * v_h1**2),
            "b_skew": abs(bracket(buv, z) + bracket(bilinear_B(u, z), v))
            / (u_l2 * v_h1 * z_h1),
            "f_self": abs(bracket(fuxi, xi)) / (u_l2 * xi_w1**2),
            "f_antisym": abs(bracket(fuxi, zeta) + bracket(bilinear_F(u, zeta), xi))
            / (u_l2 * xi_w1 * zeta_w1),
            # q = 4 weighted identities: the cubic test factor is not in the
            # dealias band, so the pairing is taken on the padded grid, where
            # its quadrature is exact and the residual is rounding alone;
            # measured in the same relative sense as the energy cancellation
            "b_weighted_q4": _weighted_residual(u, u),
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


def simulate_bdg_sups(frames, q: float, n_paths: int, base_seed: int, t_end: float,
                      dt: float) -> np.ndarray:
    """sup_t ||X(t)||_{L^q} per path for X(t) = int_0^t Phi dW with the frozen
    operator Phi = G_n(v0), for each frame (spec, v0) on v0's grid.

    The frames share the mode list, and each path's increments are drawn
    once and summed on every frame.  Shape (path, frame, 2); the last axis
    holds the half-horizon sup and the full sup.
    """
    n_steps = int(round(t_end / dt))
    half = n_steps // 2
    operators = []
    for spec, v0 in frames:
        n = spec.hy_level
        hy = 1.0 if n == math.inf else n / (n + mode_ksq(spec, v0.grid))
        amps = np.asarray(spec.coefficients) * sigma_eval(v0, spec) * hy
        # each mode's physical velocity, both components: (m, 2 N^2)
        e_phys = np.stack([np.concatenate([c.ravel() for c in to_physical(e)])
                           for e in build_noise_basis(spec, v0.grid)])
        operators.append((amps, e_phys, v0.grid))
    draw_spec = frames[0][0]

    def worker(path):
        g = np.stack([
            sample_increment(base_seed, path, step, draw_spec, dt).gaussians
            for step in range(n_steps)
        ])
        brown = np.vstack([np.zeros(draw_spec.n_modes), np.cumsum(g, axis=0)]) * math.sqrt(dt)
        sups = []
        for amps, e_phys, grid in operators:
            weighted = brown * amps
            npts = grid.modes_per_dim**2
            norms = np.empty(n_steps + 1)
            for lo in range(0, n_steps + 1, 128):  # time blocks bound the memory
                hi = min(lo + 128, n_steps + 1)
                # |x|^q in place: one large temporary per block, not three
                powers = weighted[lo:hi] @ e_phys  # (block, 2 N^2)
                np.abs(powers, out=powers)
                powers **= q
                norms[lo:hi] = ((powers[:, :npts].sum(axis=1)
                                 + powers[:, npts:].sum(axis=1)) * grid.cell_area) ** (1.0 / q)
            sups.append((float(norms[: half + 1].max()), float(norms.max())))
        return sups

    largest = max((v0.grid for _, v0 in frames), key=lambda g: g.modes_per_dim)
    return np.array(run_paths(worker, n_paths, path_workers(largest)))


def bdg_report(
    spec: CovarianceSpec,
    grid: SpectralGrid,
    v0: VectorField,
    q: float,
    m_list,
    n_paths: int,
    base_seed: int,
    t_end: float,
    dt: float,
    stability: float = 0.5,
) -> list[CheckResult]:
    """Fitted constants C_m = E sup_t ||X||^m_{L^q} / (T ||Phi||^2_R)^{m/2}
    across two grid sizes (N, 2N) and two horizons (T/2, T); PASS when every
    constant sits within +-stability of their mean.  Both grids read the
    same increments, drawn once per path.

    A degenerate Phi = 0 makes the ratio undefined; reported as skipped.
    """
    for m in m_list:
        if m < 2 or m % 2 != 0:
            raise ValueError(f"moment order must be even and >= 2, got {m}")
    norm0 = operator_norms(v0, spec, 0.0, q)["radonifying"]
    if norm0 == 0.0:
        return [CheckResult.evaluate(f"bdg.C{m}.skipped", 0.0, 0.0,
                                     n_paths, base_seed,
                                     extra={"reason": "Phi = 0"})
                for m in m_list]

    fine = SpectralGrid(2 * grid.modes_per_dim, grid.domain_length,
                        grid.dealias_fraction)
    # sigma reads the pivot, so it moves to the fine grid with v0
    fine_spec = spec if spec.pivot is None else replace(spec, pivot=regrid(spec.pivot, fine))
    frames = [(spec, v0), (fine_spec, regrid(v0, fine))]
    sups = simulate_bdg_sups(frames, q, n_paths, base_seed, t_end, dt)
    phi_norms = [norm0, operator_norms(frames[1][1], fine_spec, 0.0, q)["radonifying"]]
    constants = {m: {} for m in m_list}
    for i, ((_, vg), phi_norm) in enumerate(zip(frames, phi_norms)):
        for m in m_list:
            for col, horizon in ((0, t_end / 2.0), (1, t_end)):
                mean = float(np.mean(sups[:, i, col] ** m))
                denom = (horizon * phi_norm**2) ** (m / 2.0)
                constants[m][(vg.grid.modes_per_dim, horizon)] = mean / denom
    out = []
    for m in m_list:
        vals = np.array(list(constants[m].values()))
        center = float(np.mean(vals))
        observed = float(np.max(np.abs(vals - center)) / center)
        out.append(CheckResult.evaluate(
            f"bdg.C{m}", observed, stability, n_paths, base_seed,
            extra={"constants": {f"N={k[0]},T={k[1]:g}": v
                                 for k, v in constants[m].items()}},
        ))
    return out
