"""Differential and bilinear operators on spectral fields.

curl, Biot-Savart inversion, Leray projection, the advection operators
B(u,v) = (u.grad)v and F(u,xi) = u.grad xi, and the rotational form of
the velocity nonlinearity.  In 2D (u.grad)u = grad |u|^2/2 + w (-u_y, u_x)
with w = curl u, and the Leray projection removes the gradient, so
P B(u,u) = P[w (-u_y, u_x)] (Orszag 1971; Canuto et al., Spectral Methods,
2007, sec. 3.4).  The time step uses the rotational form: from the
physical w it costs two transforms for u and two for the products, where
B(u,u) costs eight.  B and F remain for the identity checks.

Nonlinearities are evaluated pseudo-spectrally: differentiate in spectral
space, multiply in physical space, transform back, dealias.  With the 2/3
mask this keeps the retained band alias-free, so the cancellation
identities of the continuum operators hold to near machine precision, and
the rotational and advective forms agree to rounding.
"""

from __future__ import annotations

import numpy as np

from .spectral import (
    ScalarField,
    SpectralGrid,
    VectorField,
    dealias,
    gradient_weight,
    half_sum,
    hermitian_amplitudes,
    l2_norm,
    lattice,
    require_real,
    to_physical,
    _require_same_grid,
)

MEAN_ZERO_RTOL = 1e-10


def gradient(f: ScalarField) -> VectorField:
    g = f.grid
    return VectorField(
        ScalarField(g, 1j * g.diff_kx * f.half),
        ScalarField(g, 1j * g.diff_ky * f.half),
    )


def divergence(v: VectorField) -> ScalarField:
    g = v.grid
    return ScalarField(g, 1j * (g.diff_kx * v.vx.half + g.diff_ky * v.vy.half))


def divergence_defect(v: VectorField) -> float:
    """max_k |k . v(k)| / max_k |v(k)|; ~0 for divergence-free fields."""
    g = v.grid
    div = np.abs(g.diff_kx * v.vx.half + g.diff_ky * v.vy.half)
    scale = max(np.max(np.abs(v.vx.half)), np.max(np.abs(v.vy.half)))
    if scale == 0.0:
        return 0.0
    return float(np.max(div) / scale)


def curl(v: VectorField) -> ScalarField:
    """Scalar curl of a planar field: coeff(k) = i (k1 vy(k) - k2 vx(k))."""
    g = v.grid
    return ScalarField(g, 1j * (g.diff_kx * v.vy.half - g.diff_ky * v.vx.half))


def biot_savart(xi: ScalarField) -> VectorField:
    """Divergence-free velocity with the given vorticity and zero mean.

    Spectrally v(k) = i (k2, -k1) xi(k) / |k|^2 (so curl(biot_savart(xi)) = xi),
    v(0) = 0.  The vorticity must be finite, real and mean-zero: the
    inversion kernel is not defined at k = 0.
    """
    g = xi.grid
    scale = np.max(np.abs(xi.half))
    if not np.isfinite(scale):
        raise ValueError("biot_savart requires finite vorticity")
    require_real(xi, "biot_savart vorticity")
    if scale > 0 and abs(xi.half[0, 0]) > MEAN_ZERO_RTOL * scale:
        raise ValueError(
            "biot_savart requires mean-zero vorticity "
            f"(|mean| = {abs(xi.half[0, 0]):.3e}, field scale {scale:.3e})"
        )
    vx = 1j * g.diff_ky * xi.half * g.inv_ksq
    vy = -1j * g.diff_kx * xi.half * g.inv_ksq
    return VectorField(ScalarField(g, vx), ScalarField(g, vy))


def leray_project(u: VectorField) -> VectorField:
    """Remove the gradient part: u(k) - k (k.u(k)) / |k|^2, zero mode kept."""
    g = u.grid
    kdotu = (g.kx * u.vx.half + g.ky * u.vy.half) * g.inv_ksq
    return VectorField(
        ScalarField(g, u.vx.half - g.kx * kdotu),
        ScalarField(g, u.vy.half - g.ky * kdotu),
    )


def _advect_scalar(u1p, u2p, f: ScalarField) -> np.ndarray:
    """Physical values of u.grad f with dealiased f; u already physical."""
    g = f.grid
    fb = f.half * g.dealias_mask
    dfx = to_physical(ScalarField(g, 1j * g.diff_kx * fb))
    dfy = to_physical(ScalarField(g, 1j * g.diff_ky * fb))
    return u1p * dfx + u2p * dfy


def _spectral_of(values: np.ndarray, grid: SpectralGrid) -> np.ndarray:
    """Dealiased half-spectrum amplitudes of real grid values, filled only
    inside the dealias band, so no mask multiply follows."""
    return hermitian_amplitudes(values, grid.dealias_limit)


def advection_values(u: VectorField, target):
    """Physical grid values of (u.grad) target with dealiased inputs, before
    any output truncation."""
    _require_same_grid(u, target)
    u1p, u2p = to_physical(dealias(u))
    if isinstance(target, VectorField):
        return (_advect_scalar(u1p, u2p, target.vx),
                _advect_scalar(u1p, u2p, target.vy))
    return _advect_scalar(u1p, u2p, target)


def bilinear_B(u: VectorField, v: VectorField) -> VectorField:
    """(u.grad)v, pseudo-spectral and dealiased; not Leray-projected."""
    g = u.grid
    wx, wy = advection_values(u, v)
    return VectorField(ScalarField(g, _spectral_of(wx, g)),
                       ScalarField(g, _spectral_of(wy, g)))


def bilinear_F(u: VectorField, xi: ScalarField) -> ScalarField:
    """u.grad xi, pseudo-spectral and dealiased."""
    g = u.grid
    return ScalarField(g, _spectral_of(advection_values(u, xi), g))


def vorticity_values(v: VectorField) -> np.ndarray:
    """Physical grid values of the dealiased vorticity curl(v), the w that
    `rotational_advection` takes."""
    return to_physical(dealias(curl(v)))


def rotational_advection(v: VectorField, vorticity: np.ndarray) -> VectorField:
    """w (-u_y, u_x) with u the dealiased v and w = vorticity_values(v) given
    as physical values; pseudo-spectral and dealiased.  Its Leray projection
    equals leray_project(bilinear_B(v, v)) to rounding."""
    g = v.grid
    ux, uy = to_physical(dealias(v))
    return VectorField(ScalarField(g, _spectral_of(-vorticity * uy, g)),
                       ScalarField(g, _spectral_of(vorticity * ux, g)))


def bracket(f, g) -> float:
    """Duality pairing <f, g> as physical-space quadrature of the product."""
    if isinstance(f, VectorField) != isinstance(g, VectorField):
        raise ValueError("cannot pair a scalar field with a vector field")
    if isinstance(f, VectorField):
        return bracket(f.vx, g.vx) + bracket(f.vy, g.vy)
    _require_same_grid(f, g)
    return float(np.sum(to_physical(f) * to_physical(g)) * f.grid.cell_area)


def grad_norm_l2(v: VectorField) -> float:
    """||grad v||_{L^2} via the spectral sum (L^2 sum_k |k|^2 |v(k)|^2)^(1/2)."""
    g = v.grid
    w = gradient_weight(g)
    total = half_sum(v.vx.half, v.vx.half, w) + half_sum(v.vy.half, v.vy.half, w)
    return float(np.sqrt(total) * g.domain_length)


def grad_norm_l2_scalar(f: ScalarField) -> float:
    g = f.grid
    total = half_sum(f.half, f.half, gradient_weight(g))
    return float(np.sqrt(total) * g.domain_length)


def random_scalar_field(
    grid: SpectralGrid,
    rng: np.random.Generator,
    decay: float = 2.0,
    amplitude: float = 1.0,
) -> ScalarField:
    """Mean-zero random field: |k|^-decay spectral amplitudes, random phases,
    Hermitian-symmetrized, dealiased, scaled to ||f||_{L^2} = amplitude.
    A decay whose spectrum overflows before the scaling is a ValueError.

    The draws fill the whole (N, N) lattice, so a seed gives the same field
    however it is stored; the half of their Hermitian part is kept."""
    n = grid.modes_per_dim
    raw = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    ksq = lattice(grid.ksq).real
    shape = np.zeros_like(ksq)
    nonzero = ksq > 0
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        shape[nonzero] = ksq[nonzero] ** (-decay / 2.0)
        weighted = raw * shape * lattice(grid.dealias_mask.astype(float)).real
        # the half of the Hermitian part (c(k) + conj(c(-k))) / 2
        flip = -np.arange(n) % n
        mirror = np.conj(weighted[np.ix_(flip, flip[: n // 2 + 1])])
        half = 0.5 * (weighted[:, : n // 2 + 1] + mirror)
    half[0, 0] = 0.0
    field = ScalarField(grid, half)
    norm = l2_norm(field)
    if not np.isfinite(norm):
        raise ValueError(f"decay {decay} overflows the |k|^-decay spectrum")
    if norm == 0.0:
        return field
    return field * (amplitude / norm)


def random_divfree_field(
    grid: SpectralGrid,
    rng: np.random.Generator,
    decay: float = 2.0,
    amplitude: float = 1.0,
) -> VectorField:
    """Random mean-zero divergence-free field, dealiased, ||v||_{L^2} = amplitude."""
    raw = VectorField(
        random_scalar_field(grid, rng, decay, 1.0),
        random_scalar_field(grid, rng, decay, 1.0),
    )
    v = leray_project(raw)
    norm = l2_norm(v)
    if norm == 0.0:
        return v
    return v * (amplitude / norm)
