"""Exponential-Euler time stepping for the velocity equation and the
Ornstein-Uhlenbeck part of the vorticity splitting xi = zeta + beta.

The integrating factor exp(-|k|^2 dt) applies the heat semigroup exactly;
nonlinear and noise terms are explicit at the start-of-step state (Ito
convention).  A trajectory evolves only the independent fields, the
velocity v and the stochastic convolution zeta, on the same Wiener
increments; the vorticity xi = curl v and the remainder beta = xi - zeta
are derived after each step.  Under the 2/3 rule curl P B(v,v) equals
F(v, curl v) on the retained band (Orszag 1971; the identity suite checks
it as `drift_curl`), so the derived fields agree with the discretised
vorticity and remainder equations (stepped by the oracles of the test
suite) to rounding.  The curl has no mean mode,
so mean-zero vorticity is preserved exactly.

Every field is its rfft2 half spectrum, the velocity's two components
stacked in one (2, N, N/2+1) array (see `spectral`), so each pass of a
step touches half the lattice and takes both components in one call.
Each step evaluates the noise once (`noise.apply_G`, read from the module
like `operators.velocity_drift`, so a patch there reaches every step), for
v and zeta together, at the few half-spectrum coefficients the noise modes
touch; both updates add it there in place, so a step builds no dense noise
field.  The blow-up guard measures ||v|| of each new state, and the path
statistics take that value rather than measuring it again.

One loop steps every solution the program integrates: the generator
`trajectories` steps a batch of rows, each an initial velocity and a path
index, as stacked halves, (P, 2, N, N/2+1) for v and (P, N, N/2+1) for
zeta, and yields the states each step visits.  Every operation of a step
is one numpy call for the batch: the drift's two transforms (u and the
products, each band-pruned to the dealias band's columns), the Leray
projection, the heat factor, the curl, the physical values of xi and the
guards' norms.  What is per row stays per row: its increment and its
noise.  Every call acts on the stack row by row, so a row has the bits of
a batch of one.  A batch keeps its rows to its end, row i at index i of
every stack; a row that blows up, or that its consumer ends, holds zeros
from then on, so its values reach no later call.  `run_trajectory` reduces the loop to the path
statistics, one path or a batch of paths, and the harness's Gronwall
pairs step their two solutions of a path as two rows, so the checks
exercise the same code as a run.

The velocity nonlinearity is `operators.velocity_drift`, the rotational
form P B(v,v) = P[w (-u_y, u_x)] with u the dealiased v and w its curl,
so each step transforms the vorticity to physical space once and shares
it between the nonlinearity and the L^q statistic.  The sharing is exact
when v0 and every noise mode lie inside the dealias band: the projected
product is dealiased and the heat decay is diagonal, so curl v then has
no coefficient outside the band at any step, and its physical values are
the dealiased w.  Otherwise each step transforms the dealiased curl once
more.

The same fact prunes the transforms of the visited states: when v0 and
every noise mode lie in the band, each state after the first vanishes
past column L = `grid.dealias_limit`, so xi, and beta for the L^q
statistic, are transformed as their block of columns 0..L (see
`spectral.physical_values`).  The first state carries xi0 itself, which
`_start` lets differ from curl v0 by its tolerance, so it is pruned only
when xi0 too vanishes past column L.  `Visit.columns` says how many
columns a transform of a visit's stacks must read.  The masked
transforms, the dealiased vorticity out of band and curl v0 before the
loop, take the band's columns always.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import noise, operators
from .noise import CovarianceSpec, sample_increment, scatter_plan
from .operators import MEAN_ZERO_RTOL, biot_savart, curl, curl_halves, grad_norms
from .spectral import (
    ScalarField,
    SpectralGrid,
    VectorField,
    dealiased_block,
    heat_decay,
    l2_norm,
    lq_norms,
    physical_values,
    require_real,
    sobolev_norm,
    sobolev_norm_spectral,
    sobolev_norms,
)


@dataclass(frozen=True)
class SolverConfig:
    dt: float
    t_end: float
    blowup_threshold: float = 1e6

    def __post_init__(self):
        # every message starts with the field it names
        for name in ("dt", "t_end", "blowup_threshold"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and positive, got {value}")
        if self.dt > self.t_end:
            raise ValueError("dt must not exceed t_end")
        steps = self.t_end / self.dt
        if not (math.isfinite(steps) and abs(steps - round(steps)) <= 1e-8 * max(1.0, steps)):
            raise ValueError("t_end must be an integral number of steps")

    @property
    def n_steps(self) -> int:
        return int(round(self.t_end / self.dt))


@dataclass(frozen=True)
class CoupledState:
    """One time slice: velocity v, vorticity xi and its splitting
    xi = zeta + beta (Ornstein-Uhlenbeck part + remainder).

    The loop evolves v and zeta; xi = curl v and beta = xi - zeta are
    derived from them (xi at t = 0 is the given initial vorticity).
    """

    t: float
    v: VectorField
    xi: ScalarField
    zeta: ScalarField
    beta: ScalarField


@dataclass
class TrajectoryStats:
    """Per-path functionals feeding the estimate checks.

    Time integrals use the left-endpoint Riemann sum with step dt; suprema
    run over every recorded step including the final state.
    """

    sup_v_l2sq: float = 0.0
    int_grad_v: float = 0.0
    sup_xi_lq: float = 0.0
    sup_beta_l2: float = 0.0
    int_grad_beta: float = 0.0
    sup_beta_lq: float = 0.0
    status: str = "completed"

    FUNCTIONALS = (
        "sup_v_l2sq",
        "int_grad_v",
        "sup_xi_lq",
        "sup_beta_l2",
        "int_grad_beta",
        "sup_beta_lq",
    )

    def functional(self, name: str) -> float:
        if name not in self.FUNCTIONALS:
            raise KeyError(name)
        return getattr(self, name)


@dataclass
class TrajectoryResult:
    final: CoupledState
    stats: TrajectoryStats


def _stepped(decay: np.ndarray, base: np.ndarray, touched: np.ndarray,
             g_dw: np.ndarray, drift: np.ndarray | None = None) -> np.ndarray:
    """exp(-|k|^2 dt) [base + drift + g_dw] of stacked halves base
    (..., N, N/2+1), the noise g_dw (..., len(touched)) of each half given at
    the flat half-spectrum indices `touched` and added there in place.
    drift, an array shaped like base, holds the result."""
    acc = base.copy() if drift is None else np.add(drift, base, out=drift)
    acc.reshape(acc.shape[:-2] + (-1,))[..., touched] += g_dw
    acc *= decay  # in place: same bits as the out-of-place product
    return acc


def _within(norms: np.ndarray, cfg: SolverConfig) -> np.ndarray:
    """The blow-up guard: which L2 norms stay within the threshold.  Fail
    closed: a norm above it, inf or NaN is a blow-up."""
    return norms <= cfg.blowup_threshold


def velocity_step(
    grid: SpectralGrid,
    v: np.ndarray,
    vorticity: np.ndarray,
    g_dw: np.ndarray,
    touched: np.ndarray,
    cfg: SolverConfig,
) -> tuple[np.ndarray, np.ndarray]:
    """One step of dv + [Av + B(v,v)] dt = G(v) dW for stacked velocity
    halves v (..., 2, N, N/2+1): v+ = exp(-|k|^2 dt) [v - dt P B(v,v) + G(v) dW],
    P the Leray projection, taken on every component of the stack at once.
    Returns v+ and its L2 norms, which the blow-up guard reads.

    `g_dw` (..., 2, len(touched)) holds rows 0 and 1 of each half's
    `noise.apply_G` increment, G(v) dW at the flat half-spectrum indices
    `touched`.  P B(v,v) is `operators.velocity_drift`, read from the module
    so that the identity suite judges the same function; `vorticity` holds
    the w it takes, the physical values of the dealiased curl of v
    (`operators.vorticity_values`)."""
    drift = operators.velocity_drift(grid, v, vorticity) * -cfg.dt
    new = _stepped(heat_decay(grid, cfg.dt), v, touched, g_dw, drift)
    return new, sobolev_norms(new, grid)


def _sup(a: float, b: float) -> float:
    """max(a, b) that keeps a NaN from either side, as a Python float."""
    return float(np.maximum(a, b))


def holder_quotient(
    snapshots: list[ScalarField],
    times: list[float],
    exponent: float,
    space_order: float = 0.0,
    q: float = 2.0,
) -> float:
    """Worst Holder quotient over all dyadic-gap pairs of the stored stride.

    q = 2 uses the exact spectral W^{s,2} norm; other q fall back to
    physical-space quadrature of the Bessel-smoothed difference.
    """
    if len(snapshots) != len(times):
        raise ValueError("snapshot/time length mismatch")
    worst = 0.0
    m = len(snapshots)
    gap = 1
    while gap < m:
        for i in range(0, m - gap):
            j = i + gap
            diff = snapshots[j] - snapshots[i]
            if q == 2.0:
                norm = sobolev_norm_spectral(diff, space_order)
            else:
                norm = sobolev_norm(diff, space_order, q)
            worst = _sup(worst, norm / (times[j] - times[i]) ** exponent)
        gap *= 2
    return worst


def _inside_dealias_band(v: VectorField, spec: CovarianceSpec) -> bool:
    """v and every noise mode lie inside the dealias band, so no step
    creates a coefficient outside it (see the module docstring)."""
    g = v.grid
    return (not np.any(v.half[..., ~g.dealias_mask])
            and bool(np.all(g.dealias_mask.ravel()[scatter_plan(spec, g).touched])))


def _start(v0: VectorField | None, xi0: ScalarField) -> VectorField:
    """The initial velocity of the data (v0, xi0), checked: xi0 finite and
    real with zero mean; v0 = None derives it by Biot-Savart, otherwise v0
    must be real and curl(v0) must match xi0 to 1e-10 relative."""
    scale = np.max(np.abs(xi0.half))
    if not np.isfinite(scale):
        raise ValueError("initial vorticity must be finite")
    if scale > 0 and abs(xi0.half[0, 0]) > MEAN_ZERO_RTOL * scale:
        raise ValueError("initial vorticity must have zero mean")
    if v0 is None:
        return biot_savart(xi0)  # refuses a non-real xi0
    require_real(xi0, "initial vorticity")
    require_real(v0, "initial velocity")
    defect = l2_norm(curl(v0) - xi0)
    if not defect <= 1e-10 * max(1.0, l2_norm(xi0)):
        raise ValueError(
            f"curl(v0) does not match xi0 (L2 defect {defect:.3e}); "
            "pass v0=None to derive it by Biot-Savart"
        )
    return v0


@dataclass(eq=False)
class Visit:
    """The states of a batch's rows after `step` steps, row i of every
    stack being row i of the batch: `v` holds the velocity halves
    (P, 2, N, N/2+1), `xi` and `zeta` (P, N, N/2+1), `xi_values` (P, N, N)
    the physical values of xi, and `v_norm` (P,) the L2 norms of v.
    Every stack vanishes past its first `columns` half-spectrum columns,
    so a transform of it, or of beta, may take that block alone (see
    `spectral.physical_values`).  `alive` (P,) marks the rows that hold a
    state; a finished row holds zeros.  `end` takes an index or a mask and
    ends those rows here."""

    step: int
    t: float
    grid: SpectralGrid
    columns: int
    alive: np.ndarray
    v: np.ndarray
    xi: np.ndarray
    zeta: np.ndarray
    xi_values: np.ndarray
    v_norm: np.ndarray

    def end(self, rows) -> None:
        self.alive[rows] = False

    @cached_property
    def beta(self) -> np.ndarray:
        """The remainder beta = xi - zeta of every row."""
        return self.xi - self.zeta

    def state(self, i: int) -> CoupledState:
        """The CoupledState of row i, viewing the stacks."""
        g = self.grid
        return CoupledState(self.t, VectorField(g, self.v[i]), ScalarField(g, self.xi[i]),
                            ScalarField(g, self.zeta[i]), ScalarField(g, self.beta[i]))


def trajectories(rows, spec: CovarianceSpec, cfg: SolverConfig, seed: int):
    """The one time-step loop: the solutions of a batch of rows over
    [0, t_end], stepped as stacked halves.  Row i is
    rows[i] = (v0, xi0, path): the solution from that initial data on the
    increments of (seed, path).  The velocity v and the stochastic
    convolution zeta step on shared increments; the vorticity xi = curl v
    and the remainder beta = xi - zeta are derived after each step.

    Yields a `Visit` of all P rows for each step while a row is alive, in
    step order, the states after k steps k-th.  A row dies when the L2 norm
    of its v or xi leaves the threshold or is not finite, or when a
    consumer ends it (`Visit.end`); from the next visit on it is not
    `alive` and holds zeros, written into new arrays, so no visit's array
    changes and no later numpy call sees its values.  A row alive at the
    last visit (step n_steps) completed.  Each row has the bits of a batch
    of that row alone: every numpy call acts on the stack row by row, and
    what is per row stays per row: its increment, sample_increment(seed,
    path, step), drawn once per step for the live rows that share a path,
    and its noise, `noise.apply_G` of its own velocity.

    Each initial pair must satisfy `_start`, checked once per distinct
    pair; realness is checked there, not per transform (see `spectral`).
    The state at t = 0 carries the values of xi0 itself, not of curl v0.
    """
    grid = rows[0][1].grid
    starts: dict[tuple[int, int], VectorField] = {}
    for v0, xi0, _ in rows:
        if (id(v0), id(xi0)) not in starts:
            starts[id(v0), id(xi0)] = _start(v0, xi0)
    paths = [path for _, _, path in rows]
    in_band = all(_inside_dealias_band(v0, spec) for v0 in set(starts.values()))
    # the columns every state after the first can fill
    columns = grid.dealias_limit + 1 if in_band else grid.modes_per_dim // 2 + 1
    touched = scatter_plan(spec, grid).touched
    decay = heat_decay(grid, cfg.dt)
    alive = np.ones(len(rows), dtype=bool)
    v = np.stack([starts[id(v0), id(xi0)].half for v0, xi0, _ in rows])
    xi = np.stack([xi0.half for _, xi0, _ in rows])
    zeta = np.zeros_like(xi)
    # the first state carries xi0, which may hold columns past the band
    # within the tolerance of `_start`, where curl(v0) does not
    first = columns if not np.any(xi[..., columns:]) else xi.shape[-1]
    xi_values = physical_values(xi[..., :first])
    vorticity = physical_values(dealiased_block(curl_halves(grid, v), grid))
    v_norm = sobolev_norms(v, grid)

    for step in range(cfg.n_steps + 1):
        visit = Visit(step, step * cfg.dt, grid, columns if step else first, alive, v, xi, zeta,
                      xi_values, v_norm)
        yield visit
        alive = visit.alive.copy()
        if step == cfg.n_steps or not alive.any():
            return
        v, zeta, vorticity = _zeroed(alive, v, zeta, vorticity)
        draws = {}
        g_dw = np.zeros((len(rows), 3, len(touched)), dtype=np.complex128)
        for i in np.flatnonzero(alive):
            if paths[i] not in draws:
                draws[paths[i]] = sample_increment(seed, paths[i], step, spec, cfg.dt)
            g_dw[i] = noise.apply_G(VectorField(grid, v[i]), draws[paths[i]], spec)
        v, v_norm = velocity_step(grid, v, vorticity, g_dw[:, :2], touched, cfg)
        alive &= _within(v_norm, cfg)
        (v,) = _zeroed(alive, v)
        # the stochastic convolution: zeta+ = exp(-|k|^2 dt)[zeta + curl(G_n(v)) dW]
        zeta = _stepped(decay, zeta, touched, g_dw[:, 2])
        xi = curl_halves(grid, v)
        alive &= _within(sobolev_norms(xi[:, None], grid), cfg)
        if not alive.any():
            return
        v, v_norm, zeta, xi = _zeroed(alive, v, v_norm, zeta, xi)
        xi_values = physical_values(xi[..., :columns])
        vorticity = xi_values if in_band else physical_values(dealiased_block(xi, grid))


def _zeroed(alive: np.ndarray, *stacks: np.ndarray) -> tuple:
    """Each stack with the rows that `alive` does not mark replaced by
    zeros, in a new array; the stacks themselves when every row is alive."""
    if alive.all():
        return stacks
    return tuple(np.where(alive.reshape((-1,) + (1,) * (a.ndim - 1)), a, 0) for a in stacks)


def run_trajectory(v0: VectorField | None, xi0: ScalarField, spec: CovarianceSpec,
                   cfg: SolverConfig, seed: int, path_index: int = 0,
                   lq_exponent: float = 4.0, observer=None, n_paths: int | None = None):
    """The path functionals and the last visited state of the (seed,
    path_index) solution from (v0, xi0), a TrajectoryResult; status
    'blowup' if a step blew up or a functional is not finite, which ends
    the path there.  An observer callable, if given, sees each visited
    CoupledState once, in step order (its k-th call the state after k
    steps); callers derive from it whatever else they need of a path, such
    as recorded states, snapshot files or zeta samples.

    With n_paths, the paths path_index, ..., path_index + n_paths - 1 step
    as one batch of `trajectories`, and the call returns their results in
    path order, each with the bits of its one-path call; observer is then
    one observer or None per path.  The functionals are taken over the
    batch, the L^q and gradient norms each in one call, and their scalar
    tails (roots, squares, sums and suprema) per path on floats.
    """
    grid = xi0.grid
    count = 1 if n_paths is None else n_paths
    observers = [observer] if n_paths is None else list(observer or [None] * count)
    stats = [TrajectoryStats() for _ in range(count)]
    last: list = [None] * count
    rows = [(v0, xi0, path_index + r) for r in range(count)]
    for visit in trajectories(rows, spec, cfg, seed):
        beta = visit.beta[:, None]
        # an overflow here is judged below, as a blow-up, not warned of
        with np.errstate(over="ignore"):
            xi_lq = lq_norms(visit.xi_values[:, None], lq_exponent, grid)
            beta_l2 = sobolev_norms(beta, grid)
            beta_lq = lq_norms(physical_values(beta[..., :visit.columns]), lq_exponent, grid)
            if visit.step < cfg.n_steps:
                grad_v = grad_norms(visit.v, grid)
                grad_beta = grad_norms(beta, grid)
        for i in np.flatnonzero(visit.alive):
            if observers[i] is not None:
                observers[i](visit.state(i))
            last[i] = visit
            s = stats[i]
            with np.errstate(over="ignore"):
                s.sup_v_l2sq = _sup(s.sup_v_l2sq, float(visit.v_norm[i]) ** 2)
                s.sup_xi_lq = _sup(s.sup_xi_lq, float(xi_lq[i]))
                s.sup_beta_l2 = _sup(s.sup_beta_l2, float(beta_l2[i]))
                s.sup_beta_lq = _sup(s.sup_beta_lq, float(beta_lq[i]))
                if visit.step < cfg.n_steps:
                    s.int_grad_v += cfg.dt * float(grad_v[i]) ** 2
                    s.int_grad_beta += cfg.dt * float(grad_beta[i]) ** 2
            # the guard's rule for the norms, applied to every functional:
            # inf or NaN is a blow-up, never a completed path
            if not all(map(math.isfinite, map(s.functional, s.FUNCTIONALS))):
                visit.end(i)

    results = []
    for i, (s, visit) in enumerate(zip(stats, last)):
        if visit.step < cfg.n_steps or not visit.alive[i]:
            s.status = "blowup"
        results.append(TrajectoryResult(final=visit.state(i), stats=s))
    return results[0] if n_paths is None else results
