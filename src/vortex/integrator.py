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
`trajectory` yields each visited state.  `run_trajectory` reduces it to
the path statistics, and the harness's Gronwall pair steps two of them
side by side, so the checks exercise the same code as a run.

The velocity nonlinearity is `operators.velocity_drift`, the rotational
form P B(v,v) = P[w (-u_y, u_x)] with u the dealiased v and w its curl,
so each step transforms the vorticity to physical space once and shares
it between the nonlinearity and the L^q statistic.  The sharing is exact
when v0 and every noise mode lie inside the dealias band: the projected
product is dealiased and the heat decay is diagonal, so curl v then has
no coefficient outside the band at any step, and its physical values are
the dealiased w.  Otherwise each step transforms the dealiased curl once
more.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import noise, operators
from .noise import CovarianceSpec, sample_increment, scatter_plan
from .operators import (
    MEAN_ZERO_RTOL,
    biot_savart,
    curl,
    grad_norm_l2,
    vorticity_values,
)
from .spectral import (
    Field,
    ScalarField,
    VectorField,
    heat_decay,
    l2_norm,
    lq_norm,
    lq_norm_values,
    require_real,
    sobolev_norm,
    sobolev_norm_spectral,
    to_physical,
    zero_scalar,
)


class BlowupError(RuntimeError):
    """Raised when a step exceeds the blow-up threshold (numerical instability)."""


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

    run_trajectory evolves v and zeta; xi = curl v and beta = xi - zeta are
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


def _stepped(decay: np.ndarray, base: Field, touched: np.ndarray,
             g_dw: np.ndarray, drift: np.ndarray | None = None) -> Field:
    """exp(-|k|^2 dt) [base + drift + g_dw], the noise g_dw of each component
    given at the flat half-spectrum indices `touched` and added there in
    place.  drift, an array shaped like base's half, holds the result."""
    acc = base.half.copy() if drift is None else np.add(drift, base.half, out=drift)
    acc.reshape(acc.shape[:-2] + (-1,))[..., touched] += g_dw
    acc *= decay  # in place: same bits as the out-of-place product
    return type(base)(base.grid, acc)


def _guarded(field, name: str, cfg: SolverConfig, t: float) -> float:
    """The field's L2 norm.  Fail closed: a norm above the threshold, inf or
    NaN is a blow-up."""
    norm = l2_norm(field)
    if not norm <= cfg.blowup_threshold:
        raise BlowupError(f"{name} L2 norm exceeded {cfg.blowup_threshold:g} at t={t:g}")
    return norm


def velocity_step(
    v: VectorField,
    vorticity: np.ndarray,
    g_dw: np.ndarray,
    touched: np.ndarray,
    cfg: SolverConfig,
    t: float,
) -> tuple[VectorField, float]:
    """One step of dv + [Av + B(v,v)] dt = G(v) dW from time t:
    v+ = exp(-|k|^2 dt) [v - dt P B(v,v) + G(v) dW], P the Leray projection,
    taken on both components of the stacked half at once.  Returns v+ and
    its L2 norm, which the blow-up guard measured.

    `g_dw` is `noise.apply_G`'s increment, whose rows 0 and 1 are G(v) dW at the
    flat half-spectrum indices `touched`.  P B(v,v) is `operators.velocity_drift`,
    read from the module so that the identity suite judges the same
    function; `vorticity` holds the w it takes, the physical values of the
    dealiased curl of v (`operators.vorticity_values`)."""
    drift = operators.velocity_drift(v, vorticity).half * -cfg.dt
    new = _stepped(heat_decay(v.grid, cfg.dt), v, touched, g_dw[:2], drift)
    return new, _guarded(new, "velocity", cfg, t)


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


def trajectory(v0: VectorField | None, xi0: ScalarField, spec: CovarianceSpec,
               cfg: SolverConfig, seed: int, path_index: int = 0):
    """The one time-step loop: the (seed, path_index) solution over
    [0, t_end].  The velocity v and the stochastic convolution zeta step on
    shared increments; the vorticity xi = curl v and the remainder
    beta = xi - zeta are derived after each step.

    Yields (state, physical values of its xi, L2 norm of its v) for each
    visited state in step order, the state after k steps k-th.  Raises
    BlowupError when the L2 norm of v or xi leaves the threshold or is not
    finite.  Deterministic given (seed, path_index).

    xi0 must be finite and real with zero mean.
    v0 = None derives the velocity from xi0 by Biot-Savart; otherwise v0
    must be real and curl(v0) must match xi0 to 1e-10 relative.  Realness
    is checked here once, not per transform (see `spectral`).  The state at
    t = 0 carries xi0 itself.
    """
    grid = xi0.grid
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
    state = CoupledState(0.0, v0, xi0, zero_scalar(grid), xi0)
    in_band = _inside_dealias_band(v0, spec)
    touched = scatter_plan(spec, grid).touched
    decay = heat_decay(grid, cfg.dt)
    xi_values = to_physical(xi0)
    # curl(v0) may differ from xi0 by up to the tolerance above
    vorticity = vorticity_values(v0)
    v_norm = l2_norm(v0)

    for step in range(cfg.n_steps):
        yield state, xi_values, v_norm
        dW = sample_increment(seed, path_index, step, spec, cfg.dt)
        g_dw = noise.apply_G(state.v, dW, spec)
        v_new, v_norm = velocity_step(state.v, vorticity, g_dw, touched, cfg, state.t)
        # the stochastic convolution: zeta+ = exp(-|k|^2 dt)[zeta + curl(G_n(v)) dW]
        zeta_new = _stepped(decay, state.zeta, touched, g_dw[2])
        xi_new = curl(v_new)
        _guarded(xi_new, "vorticity", cfg, state.t)
        xi_values = to_physical(xi_new)
        vorticity = xi_values if in_band else vorticity_values(v_new)
        state = CoupledState((step + 1) * cfg.dt, v_new, xi_new, zeta_new,
                             xi_new - zeta_new)
    yield state, xi_values, v_norm


def run_trajectory(v0: VectorField | None, xi0: ScalarField, spec: CovarianceSpec,
                   cfg: SolverConfig, seed: int, path_index: int = 0,
                   lq_exponent: float = 4.0, observer=None) -> TrajectoryResult:
    """The path functionals and the last visited state of the `trajectory`
    of (seed, path_index); status 'blowup' if a step blew up or a functional
    is not finite, which ends the path there.  An observer callable, if
    given, sees each visited CoupledState once, in step order (its k-th
    call the state after k steps); callers derive from it whatever else
    they need of a path, such as recorded states, snapshot files or zeta
    samples.
    """
    grid = xi0.grid
    stats = TrajectoryStats()
    try:
        for k, (state, xi_values, v_norm) in enumerate(
                trajectory(v0, xi0, spec, cfg, seed, path_index)):
            if observer is not None:
                observer(state)
            # an overflow here is judged below, as a blow-up, not warned of
            with np.errstate(over="ignore"):
                stats.sup_v_l2sq = _sup(stats.sup_v_l2sq, v_norm ** 2)
                stats.sup_xi_lq = _sup(stats.sup_xi_lq,
                                       lq_norm_values(xi_values, lq_exponent, grid))
                stats.sup_beta_l2 = _sup(stats.sup_beta_l2, l2_norm(state.beta))
                stats.sup_beta_lq = _sup(stats.sup_beta_lq, lq_norm(state.beta, lq_exponent))
                if k < cfg.n_steps:
                    stats.int_grad_v += cfg.dt * grad_norm_l2(state.v) ** 2
                    stats.int_grad_beta += cfg.dt * grad_norm_l2(state.beta) ** 2
            # the guard's rule for the norms, applied to every functional:
            # inf or NaN is a blow-up, never a completed path
            if not all(map(math.isfinite, map(stats.functional, stats.FUNCTIONALS))):
                raise BlowupError(f"a path functional is not finite at t={state.t:g}")
    except BlowupError:
        stats.status = "blowup"

    return TrajectoryResult(final=state, stats=stats)
