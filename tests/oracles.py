"""Independent oracles the tests judge the program by: the advective form
B(u,v) = (u.grad)v of the velocity nonlinearity, whose projection the
rotational `velocity_drift` must reproduce, and `stacked_drift`, which
puts such a one-field drift in the place of `velocity_drift`; the discretised vorticity and
remainder equations, which `run_trajectory` derives instead of stepping;
the dense noise sum that `apply_G` scatters, with R_n applied
over the whole grid; the basis elements read from the dense `NoiseBasis`;
the analytic Lipschitz constant of sigma; the per-trial loops of the
measured constants, which the harness evaluates a chunk at a time; the
running-maximum moments of a Brownian motion that the BDG check is measured
against; and the unpruned transforms, one irfft2 or rfft2 of the whole
half spectrum, that the band-pruned `physical_values` and
`hermitian_amplitudes` must match bit for bit."""

import math

import numpy as np

from vortex.integrator import _sup
from vortex.noise import NoiseBasis, apply_G, scatter_plan, sigma_eval
from vortex.operators import bilinear_F, grad_norm_l2, leray_project, random_scalar_field
from vortex.spectral import ScalarField, VectorField, heat_decay, l2_norm, lq_norm


def bilinear_B(u, v):
    """(u.grad)v, pseudo-spectral and dealiased, one component of v at a
    time through F; not Leray-projected."""
    return VectorField.stack(bilinear_F(u, v.vx), bilinear_F(u, v.vy))


def stacked_drift(drift):
    """A drift of one field, drift(v, w) -> VectorField, in the form
    `operators.velocity_drift` takes: velocity halves (..., 2, N, N/2+1) and
    vorticity values (..., N, N) in, drift halves out, row by row."""

    def over_rows(grid, v, w):
        rows = [drift(VectorField(grid, half), values).half
                for half, values in zip(v.reshape((-1,) + v.shape[-3:]),
                                        w.reshape((-1,) + w.shape[-2:]))]
        return np.stack(rows).reshape(v.shape)

    return over_rows


def scattered(noise, spec, grid):
    """apply_G's rows written into zeroed (N, N/2+1) halves: the velocity
    increment and its vorticity, as dense fields."""
    n = grid.modes_per_dim
    dense = np.zeros((3, n * (n // 2 + 1)), dtype=np.complex128)
    dense[:, scatter_plan(spec, grid).touched] = noise
    vx, vy, vorticity = (ScalarField(grid, c) for c in dense.reshape(3, n, n // 2 + 1))
    return VectorField.stack(vx, vy), vorticity


def basis_fields(spec, grid):
    """The velocity basis elements e_k, as fields of the dense NoiseBasis's
    full lattices."""
    return [VectorField.stack(*(ScalarField.from_lattice(grid, c) for c in e))
            for e in NoiseBasis(spec, grid).velocity]


def hille_yosida(field, n):
    """R_n = n (nI - Laplacian)^{-1} over the whole grid: per-mode
    multiplication by n/(n+|k|^2); n = inf is the identity."""
    if n == math.inf:
        return field
    if isinstance(field, VectorField):
        return VectorField.stack(hille_yosida(field.vx, n), hille_yosida(field.vy, n))
    return ScalarField(field.grid, field.half * (n / (n + field.grid.ksq)))


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
    velocity = VectorField.stack(ScalarField.from_lattice(g, totals[0][0]),
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


def divfree_field(grid, rng, decay=2.0, amplitude=1.0):
    """A random divergence-free field composed one field at a time: the
    Leray projection of two random_scalar_field components, scaled to
    ||v||_{L^2} = amplitude."""
    raw = VectorField.stack(random_scalar_field(grid, rng, decay, 1.0),
                      random_scalar_field(grid, rng, decay, 1.0))
    v = leray_project(raw)
    norm = l2_norm(v)
    return v if norm == 0.0 else v * (amplitude / norm)


def gn_constant(grid, trials, seed=7):
    """measure_gn_constant one trial at a time: the largest
    ||V||^2_{L^4} / (||V||_{L^2} ||grad V||_{L^2}), decay uniform in [1, 3]."""
    rng = np.random.default_rng(seed)
    best = 0.0
    for _ in range(trials):
        v = divfree_field(grid, rng, decay=rng.uniform(1.0, 3.0))
        denom = l2_norm(v) * grad_norm_l2(v)
        if denom == 0.0:
            continue
        best = _sup(best, lq_norm(v, 4.0) ** 2 / denom)
    return best


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


def whole_halves(block):
    """The (..., N, N/2+1) halves of a block of their first columns
    (..., N, m), the columns past m zero."""
    n = block.shape[-2]
    whole = np.zeros(block.shape[:-1] + (n // 2 + 1,), dtype=np.complex128)
    whole[..., : block.shape[-1]] = block
    return whole


def irfft2_values(halves):
    """spectral.physical_values unpruned: one irfft2 over every column of
    the whole halves (a block is first widened by `whole_halves`), scaled in
    place by N^2."""
    n = halves.shape[-2]
    values = np.fft.irfft2(whole_halves(halves), s=(n, n))
    values *= n * n
    return values


def rfft2_amplitudes(values, width):
    """spectral.hermitian_amplitudes unpruned: one rfft2 over every column,
    then the amplitudes outside max(|j1|, |j2|) <= width zeroed, all scaled
    by 1/N^2 in place, and the self-conjugate columns mirrored."""
    n = values.shape[-1]
    h = n // 2
    out = np.fft.rfft2(values)
    out[..., width + 1: n - width, :] = 0.0
    out[..., width + 1:] = 0.0
    out /= n * n
    for j in (0, h) if width == h else (0,):
        np.conjugate(out[..., h - 1: 0: -1, j], out=out[..., h + 1:, j])
    out.imag[..., ::h, ::h] = 0.0
    return out
