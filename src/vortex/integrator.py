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
step touches half the lattice and takes both components in one call.  Each
step evaluates the batch's noise once (`noise.apply_G`, read from the
module like `operators.velocity_drift`, so a patch there reaches every
step), for v and zeta together, at the few half-spectrum coefficients the
noise modes touch (`noise.scatter_plan(...).touched`), so a step builds no
dense noise field; the velocity update adds it there in place.  zeta
starts at zero and only the noise feeds it, so it vanishes off those
coefficients at every step: it is stored and stepped there alone,
`run_trajectory` keeps it there at the steps its caller names, and it is
scattered into a dense half only when an observer reads the zeta of a
`CoupledState`.  The blow-up guard measures ||v|| of each new state, and the
path statistics take that value rather than measuring it again.

One loop steps every solution the program integrates: the generator
`trajectories` steps a batch of rows, each an initial velocity and a path
index, as stacked halves, (P, 2, N, N/2+1) for v, with zeta (P, T) at the
T touched coefficients, and yields the states each step visits.  Every
operation of a step is one numpy call for the batch: the drift's two
transforms (u and the products, each band-pruned to the dealias band's
columns), the Leray projection, the heat factor, the curl, the physical
values of xi, the guards' norms, sigma(v) and the noise; only the draws
are taken per path, one `sample_increment` each.  Every call acts on the
stack row by row, so a row has the bits of a batch of one.  A batch keeps
its rows to its end, row i at index i of every stack; a row that blows up,
or that its consumer ends, holds zeros from then on, so its values reach
no later call.  `run_trajectory` reduces the loop to the path statistics,
(P,) arrays over one path or a batch of paths, and the Gronwall pairs step
the two solutions of a path as two rows, so the checks exercise the same
code as a run.

The velocity nonlinearity is `operators.velocity_drift`, the rotational
form P B(v,v) = P[w (-u_y, u_x)] with u the dealiased v and w its curl.
Every evolved field lives in the dealias band: `trajectories` refuses
initial data and noise modes outside it, so no step creates a coefficient
there, each step shares the physical values of xi between the nonlinearity
and the L^q statistic, and every transform of a visit takes the block of
columns 0..L, L = `grid.dealias_limit` (see `spectral.physical_values`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import noise, operators
from .noise import (CovarianceSpec, require_in_dealias_band, sample_increment, scatter_plan,
                    sigma_values)
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


class CoupledState:
    """One time slice of row i of a `Visit`: velocity v, vorticity xi and
    its splitting xi = zeta + beta (Ornstein-Uhlenbeck part + remainder).

    The loop evolves v and zeta; xi = curl v and beta = xi - zeta are
    derived from them (xi at t = 0 is the given initial vorticity).  t, v
    and xi view the visit's stacks; zeta's dense half and beta are built on
    their first read.
    """

    def __init__(self, visit: Visit, i: int):
        self.t = visit.t
        self.v = VectorField(visit.grid, visit.v[i])
        self.xi = ScalarField(visit.grid, visit.xi[i])
        self._visit, self._row = visit, i

    @cached_property
    def zeta(self) -> ScalarField:
        """A new dense half: the row's zeta scattered into zeros."""
        visit = self._visit
        zeta = np.zeros(visit.grid.ksq.shape, dtype=np.complex128)
        zeta.reshape(-1)[visit.touched] = visit.zeta[self._row]
        return ScalarField(visit.grid, zeta)

    @cached_property
    def beta(self) -> ScalarField:
        return ScalarField(self._visit.grid, self._visit.beta[self._row])


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

    FUNCTIONALS = ("sup_v_l2sq", "int_grad_v", "sup_xi_lq", "sup_beta_l2", "int_grad_beta",
                   "sup_beta_lq")

    def functional(self, name: str) -> float:
        if name not in self.FUNCTIONALS:
            raise KeyError(name)
        return getattr(self, name)


@dataclass
class TrajectoryResult:
    """A path's stats and its zeta samples (S, T), see `run_trajectory`."""

    stats: TrajectoryStats
    zeta: np.ndarray


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
    `touched`, where it is added in place; the sum is formed and decayed in
    the drift's array.  P B(v,v) is `operators.velocity_drift`, read from
    the module so that the identity suite judges the same function;
    `vorticity` holds the w it takes, the physical values of the dealiased
    curl of v (`operators.vorticity_values`)."""
    new = operators.velocity_drift(grid, v, vorticity) * -cfg.dt
    new += v
    new.reshape(new.shape[:-2] + (-1,))[..., touched] += g_dw
    new *= heat_decay(grid, cfg.dt)  # in place: same bits as the out-of-place product
    return new, sobolev_norms(new, grid)


def _start(v0: VectorField | None, xi0: ScalarField) -> VectorField:
    """The initial velocity of the data (v0, xi0), checked: xi0 finite and
    real with zero mean; v0 = None derives it by Biot-Savart, otherwise v0
    must be real and curl(v0) must match xi0 to 1e-10 relative.  Both must
    vanish outside the dealias band."""
    scale = np.max(np.abs(xi0.half))
    if not np.isfinite(scale):
        raise ValueError("initial vorticity must be finite")
    if scale > 0 and abs(xi0.half[0, 0]) > MEAN_ZERO_RTOL * scale:
        raise ValueError("initial vorticity must have zero mean")
    if v0 is None:
        v0 = biot_savart(xi0)  # refuses a non-real xi0
    else:
        require_real(xi0, "initial vorticity")
        require_real(v0, "initial velocity")
        defect = l2_norm(curl(v0) - xi0)
        if not defect <= 1e-10 * max(1.0, l2_norm(xi0)):
            raise ValueError(
                f"curl(v0) does not match xi0 (L2 defect {defect:.3e}); "
                "pass v0=None to derive it by Biot-Savart"
            )
    grid = xi0.grid
    for field, name in ((xi0, "initial vorticity"), (v0, "initial velocity")):
        if np.any(field.half[..., ~grid.dealias_mask]):
            raise ValueError(f"{name} has a coefficient outside the dealias band "
                             f"max(|j1|, |j2|) <= {grid.dealias_limit}")
    return v0


@dataclass(eq=False)
class Visit:
    """The states of a batch's rows after `step` steps, row i of every
    stack being row i of the batch: `v` holds the velocity halves
    (P, 2, N, N/2+1), `xi` the vorticity halves (P, N, N/2+1), `zeta`
    (P, T) the stochastic convolution at the T flat half-spectrum indices
    `touched`, where the noise adds (zero at every other coefficient),
    `xi_values` (P, N, N) the physical values of xi, `v_norm` (P,) the
    L2 norms of v, and `sigma` (P,) the noise intensity sigma(v).
    Every half stack, and beta, vanishes outside the dealias band, so a
    transform of it takes the block of its columns 0..L alone, L =
    `grid.dealias_limit` (see `spectral.physical_values`).  `alive` (P,)
    marks the rows that hold a state; a finished row holds zeros.  `end`
    takes an index or a mask and ends those rows here."""

    step: int
    t: float
    grid: SpectralGrid
    alive: np.ndarray
    v: np.ndarray
    xi: np.ndarray
    touched: np.ndarray
    zeta: np.ndarray
    xi_values: np.ndarray
    v_norm: np.ndarray
    sigma: np.ndarray

    def end(self, rows) -> None:
        self.alive[rows] = False

    @cached_property
    def beta(self) -> np.ndarray:
        """The remainder beta = xi - zeta of every row, (P, N, N/2+1): xi
        with zeta subtracted at the touched coefficients, which has the
        bits of the dense difference, since x - 0 = x."""
        beta = self.xi.copy()
        beta.reshape(len(beta), -1)[:, self.touched] -= self.zeta
        return beta

    def state(self, i: int) -> CoupledState:
        """The CoupledState of row i."""
        return CoupledState(self, i)


def trajectories(rows, spec: CovarianceSpec, cfg: SolverConfig, seed: int):
    """The one time-step loop: the solutions of a batch of rows over
    [0, t_end], stepped as stacked halves.  Row i is
    rows[i] = (v0, xi0, path): the solution from that initial data on the
    increments of (seed, path).  The velocity v and the stochastic
    convolution zeta step on shared increments, zeta at the noise's
    touched coefficients alone, where it starts at zero and the noise adds
    (it vanishes at every other); the vorticity xi = curl v and the
    remainder beta = xi - zeta are derived after each step.

    Yields a `Visit` of all P rows for each step while a row is alive, in
    step order, the states after k steps k-th.  A row dies when the L2 norm
    of its v or xi leaves the threshold or is not finite, or when a
    consumer ends it (`Visit.end`); from the next visit on it is not
    `alive` and holds zeros, written into new arrays, so no visit's array
    changes and no later numpy call sees its values.  A row alive at the
    last visit (step n_steps) completed.  Each row has the bits of a batch
    of that row alone: every numpy call acts on the stack row by row.  The
    increment of a row is sample_increment(seed, path, step), drawn once per
    step for the live rows that share a path; the noise of every live row is
    one `noise.apply_G` call per step, on the rows' `Visit.sigma` and draws.

    Each initial pair must satisfy `_start`, checked once per distinct
    pair; realness is checked there, not per transform (see `spectral`).
    Every noise mode must lie in the dealias band.  The state at t = 0
    carries the values of xi0 itself, not of curl v0.
    """
    grid = rows[0][1].grid
    starts: dict[tuple[int, int], VectorField] = {}
    for v0, xi0, _ in rows:
        if (id(v0), id(xi0)) not in starts:
            starts[id(v0), id(xi0)] = _start(v0, xi0)
    paths = [path for _, _, path in rows]
    sharing = {p: np.flatnonzero(np.equal(paths, p)) for p in dict.fromkeys(paths)}
    require_in_dealias_band(spec.mode_indices, grid, "noise")
    touched = scatter_plan(spec, grid).touched
    band = grid.dealias_limit + 1  # the columns a half can fill
    # the heat factor where zeta lives, indexed from the cached multiplier
    decay = heat_decay(grid, cfg.dt).ravel()[touched]
    alive = np.ones(len(rows), dtype=bool)
    v = np.stack([starts[id(v0), id(xi0)].half for v0, xi0, _ in rows])
    xi = np.stack([xi0.half for _, xi0, _ in rows])
    zeta = np.zeros((len(rows), len(touched)), dtype=np.complex128)
    xi_values = physical_values(xi[..., :band])
    vorticity = physical_values(dealiased_block(curl_halves(grid, v), grid))
    v_norm = sobolev_norms(v, grid)

    for step in range(cfg.n_steps + 1):
        visit = Visit(step, step * cfg.dt, grid, alive, v, xi, touched, zeta, xi_values,
                      v_norm, sigma_values(v, spec))
        yield visit
        alive = visit.alive.copy()
        if step == cfg.n_steps or not alive.any():
            return
        # a dead row's sigma is zero, and so is its noise
        v, vorticity, sigma = _zeroed(alive, v, vorticity, visit.sigma)
        gaussians = np.zeros((len(rows), spec.n_modes))
        for path, members in sharing.items():
            if alive[members].any():
                gaussians[members] = sample_increment(seed, path, step, spec, cfg.dt).gaussians
        g_dw = noise.apply_G(sigma, gaussians, cfg.dt, spec, grid)
        v, v_norm = velocity_step(grid, v, vorticity, g_dw[:, :2], touched, cfg)
        alive &= _within(v_norm, cfg)
        (v,) = _zeroed(alive, v)
        # the stochastic convolution: zeta+ = exp(-|k|^2 dt)[zeta + curl(G_n(v)) dW]
        zeta = (zeta + g_dw[:, 2]) * decay
        xi = curl_halves(grid, v)
        alive &= _within(sobolev_norms(xi[:, None], grid), cfg)
        if not alive.any():
            return
        v, v_norm, zeta, xi = _zeroed(alive, v, v_norm, zeta, xi)
        vorticity = xi_values = physical_values(xi[..., :band])


def _zeroed(alive: np.ndarray, *stacks: np.ndarray) -> tuple:
    """Each stack with the rows that `alive` does not mark replaced by
    zeros, in a new array; the stacks themselves when every row is alive."""
    if alive.all():
        return stacks
    return tuple(np.where(alive.reshape((-1,) + (1,) * (a.ndim - 1)), a, 0) for a in stacks)


def _squares(norms: np.ndarray) -> np.ndarray:
    """x ** 2 of each norm on Python floats, whose pow can differ from
    numpy's square in the last bit; inf where it overflows."""
    squares = []
    for x in norms.ravel().tolist():
        try:
            squares.append(x**2)
        except OverflowError:
            squares.append(math.inf)
    return np.reshape(squares, norms.shape)


def run_trajectory(v0: VectorField | None, xi0: ScalarField, spec: CovarianceSpec,
                   cfg: SolverConfig, seed: int, path_index: int = 0,
                   lq_exponent: float = 4.0, observer=None, n_paths: int | None = None,
                   zeta_stride: int = 0):
    """The path functionals of the (seed, path_index) solution from
    (v0, xi0), a TrajectoryResult; status 'blowup' if a step blew up or a
    functional is not finite, which ends the path there.  With
    zeta_stride > 0, its `zeta` (S, T) keeps zeta at the T touched
    coefficients every zeta_stride steps and at the last, at the S such
    steps the path lives to.  An observer callable, if given,
    sees each visited CoupledState once, in step order (its k-th call the
    state after k steps); callers derive from it whatever else they need of
    a dense state, such as recorded states or snapshot files.

    With n_paths, the paths path_index, ..., path_index + n_paths - 1 step
    as one batch of `trajectories`, and the call returns their results in
    path order, each with the bits of its one-path call; observer is then
    one observer or None per path.  The functionals are (P,) arrays over
    the batch, each norm taken in one call and squared on Python floats
    (`_squares`); a dead row's stay as they were.
    """
    grid = xi0.grid
    count = 1 if n_paths is None else n_paths
    observers = [observer] if n_paths is None else list(observer or [None] * count)
    table = np.zeros((6, count))  # TrajectoryStats.FUNCTIONALS, a column per path
    sups, ints = [0, 2, 3, 5], [1, 4]  # the rows of its suprema and of its integrals
    band = grid.dealias_limit + 1  # the columns of beta a transform takes
    kept: list = [[] for _ in range(count)]
    rows = [(v0, xi0, path_index + r) for r in range(count)]
    for visit in trajectories(rows, spec, cfg, seed):
        beta = visit.beta[:, None]
        # an overflow here is judged below, as a blow-up, not warned of
        with np.errstate(over="ignore"):
            norms = [_squares(visit.v_norm), lq_norms(visit.xi_values[:, None], lq_exponent, grid),
                     sobolev_norms(beta, grid),
                     lq_norms(physical_values(beta[..., :band]), lq_exponent, grid)]
            table[sups] = np.where(visit.alive, np.maximum(table[sups], norms), table[sups])
            if visit.step < cfg.n_steps:
                grads = _squares(np.stack((grad_norms(visit.v, grid), grad_norms(beta, grid))))
                table[ints] = np.where(visit.alive, table[ints] + cfg.dt * grads, table[ints])
        for i in np.flatnonzero(visit.alive):
            if observers[i] is not None:
                observers[i](visit.state(i))
            if zeta_stride and (visit.step % zeta_stride == 0 or visit.step == cfg.n_steps):
                kept[i].append(visit.zeta[i])
        # the guard's rule for the norms, applied to every functional:
        # inf or NaN is a blow-up, never a completed path
        visit.end(~np.isfinite(table).all(axis=0))

    # a row completed if it is alive at the visit of the last step
    completed = visit.alive & (visit.step == cfg.n_steps)
    results = []
    for i in range(count):
        stats = TrajectoryStats(*table[:, i].tolist(), "completed" if completed[i] else "blowup")
        zeta = np.array(kept[i], np.complex128).reshape(len(kept[i]), len(visit.touched))
        results.append(TrajectoryResult(stats, zeta))
    return results[0] if n_paths is None else results
