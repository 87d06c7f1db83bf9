"""Exponential-Euler time stepping for the velocity equation and the
Ornstein-Uhlenbeck part of the vorticity splitting xi = zeta + beta.

The integrating factor exp(-|k|^2 dt) applies the heat semigroup exactly;
nonlinear and noise terms are explicit at the start-of-step state (Ito
convention).  A trajectory evolves only the independent fields, the
velocity v and the stochastic convolution zeta, on the same Wiener
increments; the vorticity xi = curl v and the remainder beta = xi - zeta
are derived after each step.  Under the 2/3 rule curl P B(v,v) equals
F(v, curl v) on the retained band (Orszag 1971), so the derived fields
agree with the discretised vorticity and remainder equations
(`vorticity_step`, `beta_step`, kept as test oracles) to rounding.  The
curl has no mean mode, so mean-zero vorticity is preserved exactly.

The velocity nonlinearity is taken in rotational form,
P B(v,v) = P[w (-u_y, u_x)] with u the dealiased v and w its curl, so
each step transforms the vorticity to physical space once and shares it
between the nonlinearity and the L^q statistic.  The sharing is exact
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

from .noise import (
    CovarianceSpec,
    WienerIncrement,
    apply_G,
    sample_increment,
    scatter_plan,
)
from .operators import (
    MEAN_ZERO_RTOL,
    bilinear_F,
    biot_savart,
    curl,
    grad_norm_l2,
    grad_norm_l2_scalar,
    leray_project,
    rotational_advection,
    vorticity_values,
)
from .spectral import (
    ScalarField,
    VectorField,
    heat_decay,
    l2_norm,
    lq_norm,
    lq_norm_values,
    sobolev_norm,
    to_physical,
    zero_scalar,
)


class BlowupError(RuntimeError):
    """Raised when a step exceeds the blow-up threshold (numerical instability)."""


@dataclass(frozen=True)
class SolverConfig:
    dt: float
    t_end: float
    scheme: str = "exp_euler"
    blowup_threshold: float = 1e6

    def __post_init__(self):
        # every message starts with the field it names
        for name in ("dt", "t_end", "blowup_threshold"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and positive, got {value}")
        if self.dt > self.t_end:
            raise ValueError("dt must not exceed t_end")
        if self.scheme != "exp_euler":
            raise ValueError(f"scheme must be 'exp_euler', got {self.scheme!r}")
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
    recorded: list[CoupledState]
    stats: TrajectoryStats


def _stepped(decay: np.ndarray, base: ScalarField, *terms: ScalarField,
             mean_free: bool = False) -> ScalarField:
    acc = base.coeffs.copy()
    for t in terms:
        acc += t.coeffs
    out = decay * acc
    if mean_free:
        # the advection term integrates to zero for divergence-free u; clear
        # its quadrature roundoff so mean-zero vorticity is preserved exactly
        out[0, 0] = 0.0
    return ScalarField(base.grid, out)


def _guarded(field, name: str, cfg: SolverConfig, t: float):
    """Fail closed: a norm above the threshold, inf or NaN is a blow-up."""
    if not l2_norm(field) <= cfg.blowup_threshold:
        raise BlowupError(f"{name} L2 norm exceeded {cfg.blowup_threshold:g} at t={t:g}")
    return field


def velocity_step(
    state: CoupledState,
    vorticity: np.ndarray,
    dW: WienerIncrement,
    spec: CovarianceSpec,
    cfg: SolverConfig,
) -> VectorField:
    """One step of dv + [Av + B(v,v)] dt = G(v) dW:
    v+ = exp(-|k|^2 dt) [v - dt P B(v,v) + G(v) dW], P the Leray projection.

    P B(v,v) is evaluated in rotational form, P[w (-u_y, u_x)] with u the
    dealiased v; `vorticity` holds w, the physical values of the dealiased
    curl of state.v (`operators.vorticity_values`).  It agrees with
    leray_project(bilinear_B(v, v)) to rounding."""
    v = state.v
    decay = heat_decay(v.grid, dW.dt)
    pb = leray_project(rotational_advection(v, vorticity))
    noise = apply_G(v, dW, spec, "velocity_noise")
    new = VectorField(
        _stepped(decay, v.vx, -dW.dt * pb.vx, noise.vx),
        _stepped(decay, v.vy, -dW.dt * pb.vy, noise.vy),
    )
    return _guarded(new, "velocity", cfg, state.t)


def vorticity_step(
    state: CoupledState,
    dW: WienerIncrement,
    spec: CovarianceSpec,
    cfg: SolverConfig,
) -> ScalarField:
    """One step of dxi + [A xi + v.grad xi] dt = curl(G(v)) dW, with v taken
    from the coupled state; preserves mean zero.  A test oracle:
    run_trajectory derives xi = curl v instead."""
    decay = heat_decay(state.xi.grid, dW.dt)
    adv = bilinear_F(state.v, state.xi)
    noise = apply_G(state.v, dW, spec, "vorticity_noise")
    return _stepped(decay, state.xi, -dW.dt * adv, noise, mean_free=True)


def ou_step(
    state: CoupledState,
    dW: WienerIncrement,
    spec: CovarianceSpec,
    cfg: SolverConfig,
) -> ScalarField:
    """Stochastic convolution step: zeta+ = exp(-|k|^2 dt)[zeta + curl(G_n(v)) dW]."""
    decay = heat_decay(state.zeta.grid, dW.dt)
    noise = apply_G(state.v, dW, spec, "vorticity_noise")
    return _stepped(decay, state.zeta, noise)


def beta_step(state: CoupledState, cfg: SolverConfig) -> ScalarField:
    """Deterministic remainder step:
    beta+ = exp(-|k|^2 dt)[beta - dt F(v, zeta + beta)].  A test oracle:
    run_trajectory derives beta = curl v - zeta instead."""
    decay = heat_decay(state.beta.grid, cfg.dt)
    adv = bilinear_F(state.v, state.zeta + state.beta)
    return _stepped(decay, state.beta, -cfg.dt * adv, mean_free=True)


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
                grid = diff.grid
                w = (1.0 + grid.ksq) ** space_order
                norm = float(np.sqrt(np.sum(w * np.abs(diff.coeffs) ** 2)) * grid.domain_length)
            else:
                norm = sobolev_norm(diff, space_order, q)
            worst = max(worst, norm / (times[j] - times[i]) ** exponent)
        gap *= 2
    return worst


def _inside_dealias_band(v: VectorField, spec: CovarianceSpec) -> bool:
    """v and every noise mode lie inside the dealias band, so no step
    creates a coefficient outside it (see the module docstring)."""
    g = v.grid
    outside = ~g.dealias_mask
    return (not np.any(v.vx.coeffs[outside]) and not np.any(v.vy.coeffs[outside])
            and bool(np.all(g.dealias_mask.ravel()[scatter_plan(spec, g).touched])))


def run_trajectory(
    v0: VectorField | None,
    xi0: ScalarField,
    spec: CovarianceSpec,
    cfg: SolverConfig,
    seed: int,
    path_index: int = 0,
    lq_exponent: float = 4.0,
    record_stride: int = 0,
    observer=None,
) -> TrajectoryResult:
    """Integrate the velocity v and the stochastic convolution zeta over
    [0, t_end] on shared increments; each step derives the vorticity
    xi = curl v and the remainder beta = xi - zeta.

    xi0 must be finite with zero mean.
    v0 = None derives the velocity from xi0 by Biot-Savart; otherwise
    curl(v0) must match xi0 to 1e-10 relative.  The state at t = 0 carries
    xi0 itself.  Returns early with status 'blowup' if the L2 norm of v or
    xi leaves the threshold or is not finite.  Deterministic given
    (seed, path_index).  The stats hold the path functionals only;
    `record_stride` > 0 keeps every record_stride-th state and the final
    one in `recorded`, else the final state alone.  An observer callable, if
    given, sees each visited CoupledState once, in step order (its k-th call
    the state after k steps); callers derive from it whatever else they need
    of a path, such as snapshot files or zeta samples.
    """
    grid = xi0.grid
    scale = np.max(np.abs(xi0.coeffs))
    if not np.isfinite(scale):
        raise ValueError("initial vorticity must be finite")
    if scale > 0 and abs(xi0.coeffs[0, 0]) > MEAN_ZERO_RTOL * scale:
        raise ValueError("initial vorticity must have zero mean")
    if v0 is None:
        v0 = biot_savart(xi0)
    else:
        defect = l2_norm(curl(v0) - xi0)
        if defect > 1e-10 * max(1.0, l2_norm(xi0)):
            raise ValueError(
                f"curl(v0) does not match xi0 (L2 defect {defect:.3e}); "
                "pass v0=None to derive it by Biot-Savart"
            )
    state = CoupledState(0.0, v0, xi0, zero_scalar(grid), xi0)
    in_band = _inside_dealias_band(v0, spec)
    xi_values = to_physical(xi0)
    # curl(v0) may differ from xi0 by up to the tolerance above
    vorticity = vorticity_values(v0)

    stats = TrajectoryStats()
    recorded: list[CoupledState] = []

    def observe(st: CoupledState, xi_values: np.ndarray, step_index: int, last: bool):
        if observer is not None:
            observer(st)
        stats.sup_v_l2sq = _sup(stats.sup_v_l2sq, l2_norm(st.v) ** 2)
        stats.sup_xi_lq = _sup(stats.sup_xi_lq, lq_norm_values(xi_values, lq_exponent, grid))
        stats.sup_beta_l2 = _sup(stats.sup_beta_l2, l2_norm(st.beta))
        stats.sup_beta_lq = _sup(stats.sup_beta_lq, lq_norm(st.beta, lq_exponent))
        if not last:
            stats.int_grad_v += cfg.dt * grad_norm_l2(st.v) ** 2
            stats.int_grad_beta += cfg.dt * grad_norm_l2_scalar(st.beta) ** 2
        if record_stride > 0 and (step_index % record_stride == 0 or last):
            if not recorded or st.t > recorded[-1].t:
                recorded.append(st)

    try:
        for step in range(cfg.n_steps):
            observe(state, xi_values, step, last=False)
            dW = sample_increment(seed, path_index, step, spec, cfg.dt)
            v_new = velocity_step(state, vorticity, dW, spec, cfg)
            zeta_new = ou_step(state, dW, spec, cfg)
            xi_new = _guarded(curl(v_new), "vorticity", cfg, state.t)
            xi_values = to_physical(xi_new)
            vorticity = xi_values if in_band else vorticity_values(v_new)
            state = CoupledState((step + 1) * cfg.dt, v_new, xi_new, zeta_new,
                                 xi_new - zeta_new)
        observe(state, xi_values, cfg.n_steps, last=True)
    except BlowupError:
        stats.status = "blowup"

    if record_stride <= 0:
        recorded = [state]
    return TrajectoryResult(final=state, recorded=recorded, stats=stats)
