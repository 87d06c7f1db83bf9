"""Independent oracles the tests judge the program by: the advective form
B(u,v) = (u.grad)v of the velocity nonlinearity, whose projection the
rotational `velocity_drift` must reproduce, and `stacked_drift`, which
puts such a one-field drift in the place of `velocity_drift`; the
discretised vorticity and remainder equations, which `run_trajectory`
derives instead of stepping; the dense noise sum that `apply_G` scatters,
with R_n applied over the whole grid; sigma and the noise increment of
one field, on Python floats and one component at a time, which every row
of the batched `sigma_values` and `apply_G` must match bit for bit; the
basis elements read from the dense `NoiseBasis`; the analytic Lipschitz
constant of sigma; the per-trial loops of the measured constants, which
the harness evaluates a chunk at a time; the Gronwall pairs' loop that
forms the weight with the Young constant while stepping, which the
harness leaves to a reduction after the pairs; the running-maximum
moments of a Brownian motion that the BDG check is measured against; and
the unpruned transforms, one irfft2 or rfft2 of the whole half spectrum,
that the band-pruned `physical_values` and `hermitian_amplitudes` must
match bit for bit; and the W^{s,q} norm of one dense field and the Holder
quotient of a list of dense zeta samples, pair by pair, that the sweep's
stacked `holder_quotients` must match bit for bit."""

import math

import numpy as np

from vortex.harness import _sup
from vortex.integrator import trajectories
from vortex.noise import NoiseBasis, basis_l2_sq_sum, hy_factor, scatter_plan
from vortex.operators import (
    bilinear_F,
    curl,
    grad_norm_l2,
    grad_norms,
    leray_project,
    random_scalar_field,
)
from vortex.spectral import (
    ScalarField,
    VectorField,
    bessel_multiplier,
    heat_decay,
    l2_inner,
    l2_norm,
    lq_norm,
    sobolev_norm_spectral,
    sobolev_norms,
)


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


def sigma_of(v, spec):
    """sigma(v) of one field on Python floats: 0, 1, or s^2 / (1 + s^2) with
    s = l2_inner(v, pivot) for rational_square."""
    if spec.sigma_kind == "zero":
        return 0.0
    if spec.sigma_kind == "constant_one":
        return 1.0
    s = l2_inner(v, spec.pivot)
    return s * s / (1.0 + s * s)


def apply_G_of(v, dW, spec):
    """apply_G of one field, (3, len(touched)): the weights
    c_k sigma_of(v) g_k sqrt(dt) times each plan amplitude added into the
    slots in mode order, one component at a time, then R_n."""
    plan = scatter_plan(spec, v.grid)
    weights = np.asarray(spec.coefficients) * (sigma_of(v, spec) * np.sqrt(dW.dt)) * dW.gaussians
    out = np.zeros((3, len(plan.touched)), dtype=np.complex128)
    for row, amplitude in zip(out, (*plan.velocity, plan.vorticity)):
        np.add.at(row, plan.slot, weights[plan.mode] * amplitude)
    if spec.hy_level != math.inf:
        out *= hy_factor(spec.hy_level, plan.touched_ksq)
    return out


def dense_apply_G(v, dW, spec):
    """The dense oracle of apply_G at the velocity v: `dense_noise` at
    sigma_of(v)."""
    return dense_noise(sigma_of(v, spec), dW.gaussians, dW.dt, spec, v.grid)


def dense_noise(sigma, gaussians, dt, spec, grid):
    """The dense noise of one row at intensity sigma: a fixed-order sum over
    the whole stacked full-lattice basis, then R_n over the whole grid; the
    velocity increment and its vorticity, as dense fields."""
    basis = NoiseBasis(spec, grid)
    weights = np.asarray(spec.coefficients) * (sigma * np.sqrt(dt)) * gaussians
    totals = []
    for stack in (basis.vel_stack, basis.vor_stack):
        total = np.zeros(stack.shape[1:], dtype=np.complex128)
        for w, element in zip(weights, stack):
            total += w * element
        totals.append(total)
    g = grid
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
    _, noise = scattered(apply_G_of(state.v, dW, spec), spec, state.v.grid)
    return _mean_free_step(decay, state.xi, -cfg.dt * adv, noise)


def zeta_step(state, dW, spec, cfg):
    """One step of the stochastic convolution, with the dense noise:
    zeta+ = exp(-|k|^2 dt)[zeta + curl(G_n(v)) dW]."""
    _, noise = scattered(apply_G_of(state.v, dW, spec), spec, state.v.grid)
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


def weighted_pairs_in_loop(v0_a, v0_b, spec, cfg, seed, paths, a_const):
    """The Gronwall pairs with psi = a ||grad v1||^2 + q^2 formed while
    they step: per pair, the series M(t) = exp(-int_0^t psi) ||V(t)||^2,
    the sup of ||V|| and the status."""
    grid = v0_a.grid
    hs_sq = basis_l2_sq_sum(spec, grid)
    xi_a, xi_b = curl(v0_a), curl(v0_b)
    rows = [row for p in paths for row in ((v0_a, xi_a, p), (v0_b, xi_b, p))]
    n = len(rows) // 2
    series, sup_v = [[] for _ in range(n)], [0.0] * n
    int_psi, psi, completed = [0.0] * n, [0.0] * n, [False] * n
    for visit in trajectories(rows, spec, cfg, seed):
        alive = visit.alive[0::2] & visit.alive[1::2]
        visit.end(~alive.repeat(2))
        one, two = visit.v[0::2], visit.v[1::2]
        gaps = sobolev_norms(one - two, grid)
        grads = grad_norms(one, grid)
        for k in np.flatnonzero(alive):
            int_psi[k] += cfg.dt * psi[k]
            vnorm = float(gaps[k])
            sup_v[k] = _sup(sup_v[k], vnorm)
            gap_sq = vnorm**2
            series[k].append(math.exp(-int_psi[k]) * gap_sq)
            rise = (sigma_of(VectorField(grid, one[k]), spec)
                    - sigma_of(VectorField(grid, two[k]), spec))
            q_sq = rise * rise * hs_sq / gap_sq if gap_sq else 0.0
            psi[k] = a_const * float(grads[k]) ** 2 + q_sq
            completed[k] = visit.step == cfg.n_steps
    return [{"m_series": m, "sup_v": sup, "status": "completed" if done else "blowup"}
            for m, sup, done in zip(series, sup_v, completed)]


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


def sobolev_norm(field, s, q=2.0):
    """W^{s,q} norm: the L^q norm of the Bessel-smoothed field."""
    return lq_norm(bessel_multiplier(field, s), q)


def holder_quotient(snapshots, times, exponent, space_order=0.0, q=2.0):
    """Worst Holder quotient over all dyadic-gap pairs of the stored stride,
    one dense difference at a time: q = 2 by the spectral W^{s,2} norm,
    other q by physical-space quadrature of the Bessel-smoothed difference."""
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
