"""Independent oracles the tests judge the program by: the discretised
vorticity and remainder equations, which `run_trajectory` derives instead of
stepping; the dense noise sum that `apply_G` scatters; the analytic
Lipschitz constant of sigma; and the running-maximum moments of a Brownian
motion that the BDG check is measured against."""

import math

import numpy as np

from vortex.noise import NoiseBasis, apply_G, hille_yosida, scatter_plan, sigma_eval
from vortex.operators import bilinear_F
from vortex.spectral import ScalarField, VectorField, heat_decay, l2_norm


def scattered(noise, spec, grid):
    """apply_G's rows written into zeroed (N, N/2+1) halves: the velocity
    increment and its vorticity, as dense fields."""
    n = grid.modes_per_dim
    dense = np.zeros((3, n * (n // 2 + 1)), dtype=np.complex128)
    dense[:, scatter_plan(spec, grid).touched] = noise
    vx, vy, vorticity = (ScalarField(grid, c) for c in dense.reshape(3, n, n // 2 + 1))
    return VectorField(vx, vy), vorticity


def dense_apply_G(v, dW, spec):
    """The dense oracle of apply_G: a fixed-order sum over the whole stacked
    full-lattice basis, then R_n over the whole grid; the velocity increment
    and its vorticity, as dense fields."""
    basis = NoiseBasis(spec, v.grid)
    weights = (np.asarray(spec.coefficients) * (sigma_eval(v, spec) * np.sqrt(dW.dt))
               * dW.gaussians)
    totals = []
    for stack in (basis.vel_stack, basis.vor_stack):
        total = np.zeros(stack.shape[1:], dtype=np.complex128)
        for w, element in zip(weights, stack):
            total += w * element
        totals.append(total)
    g = v.grid
    velocity = VectorField(ScalarField.from_lattice(g, totals[0][0]),
                           ScalarField.from_lattice(g, totals[0][1]))
    return (hille_yosida(velocity, spec.hy_level),
            hille_yosida(ScalarField.from_lattice(g, totals[1]), spec.hy_level))


def _mean_free_step(decay, base, *terms):
    # the advection term integrates to zero for divergence-free u; clear its
    # quadrature roundoff so mean-zero vorticity is preserved exactly
    acc = base.half.copy()
    for t in terms:
        acc += t.half
    out = decay * acc
    out[0, 0] = 0.0
    return ScalarField(base.grid, out)


def vorticity_step(state, dW, spec, cfg):
    """One step of dxi + [A xi + v.grad xi] dt = curl(G(v)) dW, with v taken
    from the coupled state; preserves mean zero."""
    decay = heat_decay(state.xi.grid, cfg.dt)
    adv = bilinear_F(state.v, state.xi)
    _, noise = scattered(apply_G(state.v, dW, spec), spec, state.v.grid)
    return _mean_free_step(decay, state.xi, -cfg.dt * adv, noise)


def zeta_step(state, dW, spec, cfg):
    """One step of the stochastic convolution, with the dense noise:
    zeta+ = exp(-|k|^2 dt)[zeta + curl(G_n(v)) dW]."""
    _, noise = scattered(apply_G(state.v, dW, spec), spec, state.v.grid)
    return ScalarField(state.zeta.grid,
                       heat_decay(state.zeta.grid, cfg.dt) * (state.zeta.half + noise.half))


def beta_step(state, cfg):
    """Deterministic remainder step:
    beta+ = exp(-|k|^2 dt)[beta - dt F(v, zeta + beta)]."""
    decay = heat_decay(state.beta.grid, cfg.dt)
    adv = bilinear_F(state.v, state.zeta + state.beta)
    return _mean_free_step(decay, state.beta, -cfg.dt * adv)


def sigma_lipschitz_bound(spec):
    """Analytic Lipschitz constant of sigma in L^2: (3 sqrt 3 / 8) ||h||_{L^2}
    for rational_square, 0 for the constant kinds."""
    if spec.sigma_kind != "rational_square":
        return 0.0
    return 3.0 * np.sqrt(3.0) / 8.0 * l2_norm(spec.pivot)


def abs_brownian_sup_moment(m, horizon=1.0, terms=64, nodes=20000):
    """E[(sup_{t<=T} |B_t|)^m] by quadrature of the reflection series for the
    running-maximum law; an independent deterministic oracle."""
    x = np.linspace(1e-6, 10.0, nodes)
    k = np.arange(terms)[:, None]
    series = ((-1.0) ** k / (2 * k + 1)) * np.exp(
        -((2 * k + 1) ** 2) * np.pi**2 / (8.0 * x[None, :] ** 2)
    )
    cdf = np.clip((4.0 / np.pi) * series.sum(axis=0), 0.0, 1.0)
    integrand = m * x ** (m - 1.0) * (1.0 - cdf)
    trapezoid = getattr(np, "trapezoid", None) or np.trapz
    return float(trapezoid(integrand, x) * horizon ** (m / 2.0))


def discrete_sup_sq_oracle(horizon, dt):
    """E[max over the dt-grid of B_t^2], first-order corrected for discrete
    sampling: E[S^2] - 2 E[S] * beta* sqrt(dt), beta* = -zeta(1/2)/sqrt(2 pi)."""
    beta_star = 0.5826
    s1 = abs_brownian_sup_moment(1.0, horizon)
    s2 = abs_brownian_sup_moment(2.0, horizon)
    return s2 - 2.0 * s1 * beta_star * math.sqrt(dt)
