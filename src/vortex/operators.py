"""Differential and bilinear operators on spectral fields.

curl, Biot-Savart inversion, Leray projection, the vorticity advection
F(u,xi) = u.grad xi and the velocity drift P B(v,v).  In 2D
(u.grad)u = grad |u|^2/2 + w (-u_y, u_x) with w = curl u, and the Leray
projection removes the gradient, so P B(u,u) = P[w (-u_y, u_x)] (Orszag
1971; Canuto et al., Spectral Methods, 2007, sec. 3.4).  `velocity_drift`
takes this rotational form: from the physical w it costs one batched
transform for both components of u and one for both products, where the
advective form costs eight single transforms.  It takes a stack of
velocity halves, so a step drifts a batch of paths in those two calls.
It is the one implementation of P B(v,v): the time step and the identity
suite both call it, through this module's attribute.

Nonlinearities are evaluated pseudo-spectrally: differentiate in spectral
space, multiply in physical space, transform back, dealias.  With the 2/3
mask this keeps the retained band alias-free, so the cancellation
identities of the continuum operators hold to near machine precision, and
curl P B(v,v) equals F(v, curl v) to rounding.

Random fields come from one stacked generator: `divfree_draws` and
`divfree_halves` make many divergence-free fields at once, and
`random_divfree_field` and `random_scalar_field` are its one-field cases,
with the same draws and the same bits.
"""

from __future__ import annotations

import numpy as np

from .spectral import (
    Field,
    ScalarField,
    SpectralGrid,
    VectorField,
    dealias,
    gradient_weight,
    half_sums,
    hermitian_amplitudes,
    lattice,
    physical_values,
    require_real,
    sobolev_norms,
    to_physical,
)

MEAN_ZERO_RTOL = 1e-10


def gradient(f: ScalarField) -> VectorField:
    g = f.grid
    return VectorField(g, 1j * g.diff_k * f.half)


def divergence_defect(v: VectorField) -> float:
    """max_k |k . v(k)| / max_k |v(k)|; ~0 for divergence-free fields."""
    div = np.abs((v.grid.diff_k * v.half).sum(axis=0))
    scale = np.max(np.abs(v.half))
    if scale == 0.0:
        return 0.0
    return float(np.max(div) / scale)


def curl(v: VectorField) -> ScalarField:
    """Scalar curl of a planar field: coeff(k) = i (k1 vy(k) - k2 vx(k))."""
    return ScalarField(v.grid, curl_halves(v.grid, v.half))


def curl_halves(grid: SpectralGrid, v: np.ndarray) -> np.ndarray:
    """curl of stacked vector halves v (..., 2, N, N/2+1): (..., N, N/2+1)."""
    kx, ky = grid.diff_k
    return 1j * (kx * v[..., 1, :, :] - ky * v[..., 0, :, :])


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
    v = g.diff_k[::-1] * np.array([1j, -1j])[:, None, None]  # i (k2, -k1)
    v *= xi.half  # in place: same bits as the out-of-place products
    v *= g.inv_ksq
    return VectorField(g, v)


def leray_project(u: VectorField) -> VectorField:
    """Remove the gradient part: u(k) - k (k.u(k)) / |k|^2, zero mode kept."""
    return VectorField(u.grid, _leray_halves(u.grid, u.half))


def _leray_halves(grid: SpectralGrid, u: np.ndarray) -> np.ndarray:
    """leray_project of stacked vector halves u (..., 2, N, N/2+1)."""
    kdotu = (grid.k * u).sum(axis=-3)
    kdotu *= grid.inv_ksq  # in place: same bits as the out-of-place product
    gradient_part = grid.k * kdotu[..., None, :, :]
    return np.subtract(u, gradient_part, out=gradient_part)


def _spectral_of(values: np.ndarray, grid: SpectralGrid) -> np.ndarray:
    """Dealiased half-spectrum amplitudes of real grid values, filled only
    inside the dealias band, so no mask multiply follows."""
    return hermitian_amplitudes(values, grid.dealias_limit)


def bilinear_F(u: VectorField, xi: ScalarField) -> ScalarField:
    """u.grad xi, pseudo-spectral and dealiased."""
    if u.grid != xi.grid:
        raise ValueError("fields live on different grids")
    products = to_physical(dealias(u)) * to_physical(gradient(dealias(xi)))
    return ScalarField(u.grid, _spectral_of(products.sum(axis=0), u.grid))


def vorticity_values(v: VectorField) -> np.ndarray:
    """Physical grid values of the dealiased vorticity curl(v), the w that
    `velocity_drift` takes."""
    return to_physical(dealias(curl(v)))


def velocity_drift(grid: SpectralGrid, v: np.ndarray, vorticity: np.ndarray) -> np.ndarray:
    """P B(v,v) in rotational form, P[w (-u_y, u_x)] with u the dealiased v
    and w = vorticity_values(v) given as physical values; pseudo-spectral
    and dealiased.  Its curl is F(v, curl v) to rounding.

    v is a stack of velocity halves (..., 2, N, N/2+1) and vorticity their
    w (..., N, N); returns the drifts' halves, each with the bits of its
    field taken alone, so a step drifts a batch of paths in one call."""
    wu = physical_values(v * grid.dealias_mask)
    wu *= vorticity[..., None, :, :]  # w u, in u's buffer
    np.negative(wu[..., 1, :, :], out=wu[..., 1, :, :])  # w (u_x, -u_y)
    products = _spectral_of(wu[..., ::-1, :, :], grid)  # of w (-u_y, u_x)
    del wu  # before the projection's temporaries
    return _leray_halves(grid, products)


def grad_norm_l2(f: Field) -> float:
    """||grad f||_{L^2} via the spectral sum (L^2 sum_k |k|^2 |f(k)|^2)^(1/2),
    the sum running over every component of a vector: the one-field case
    of `grad_norms`."""
    return float(grad_norms(f.half.reshape((-1,) + f.half.shape[-2:]), f.grid))


def grad_norms(halves: np.ndarray, grid: SpectralGrid) -> np.ndarray:
    """grad_norm_l2 of stacked fields whose halves are (..., C, N, N/2+1),
    C components each: shape (...), each with the bits of its field's."""
    total = half_sums(halves, halves, gradient_weight(grid)).sum(axis=-1)
    return np.sqrt(total) * grid.domain_length


def _random_halves(grid: SpectralGrid, normals: np.ndarray, decays,
                   amplitude: float) -> np.ndarray:
    """Stacked random_scalar_field: the (count, C, N, N/2+1) halves of the
    fields whose draws are normals (count, C, 2, N, N), the real then the
    imaginary block of each.  Field i has the spectrum |k|^-decays[i] and
    each of its C components L^2 norm `amplitude`.

    A decay whose spectrum overflows is a ValueError; so is one that
    underflows to the zero field while the dealias band holds a nonzero
    mode, since no scaling then reaches the amplitude."""
    n = grid.modes_per_dim
    ksq = lattice(grid.ksq).real.copy()
    ksq[0, 0] = 1.0  # its |k|^-decay lands on the mean mode, which is cleared
    # in place, to keep few (count, C, N, N) temporaries; each product and
    # sum has the bits of its out-of-place form (re + i im) |k|^-d mask
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):  # refused below
        weighted = normals[:, :, 1] * 1j
        weighted += normals[:, :, 0]
        for field, d in zip(weighted, decays):
            field *= ksq ** (-d / 2.0)
        del ksq
        weighted *= lattice(grid.dealias_mask.astype(float)).real
        # the half of the Hermitian part (c(k) + conj(c(-k))) / 2
        flip = -np.arange(n) % n
        half = np.empty(weighted.shape[:-1] + (n // 2 + 1,), dtype=np.complex128)
        np.conjugate(weighted[..., flip[:, None], flip[None, : n // 2 + 1]], out=half)
        half += weighted[..., : n // 2 + 1]
        half *= 0.5
    half[..., 0, 0] = 0.0
    norms = sobolev_norms(half[..., None, :, :], grid)  # each component's own
    if not np.isfinite(norms).all():
        d = decays[np.argmin(np.isfinite(norms).all(axis=1))]
        raise ValueError(f"decay {d} overflows the |k|^-decay spectrum")
    if grid.dealias_limit > 0 and not norms.all():
        raise ValueError(f"decay {decays[np.argmin(norms.all(axis=1))]} underflows the "
                         "|k|^-decay spectrum to zero")
    return half * _scale_to(amplitude, norms)[..., None, None]


def _scale_to(amplitude, norms: np.ndarray) -> np.ndarray:
    """amplitude / norm, or 1 (left as it is) where the norm is 0."""
    return np.divide(amplitude, norms, out=np.ones_like(norms), where=norms != 0.0)


def random_scalar_field(
    grid: SpectralGrid,
    rng: np.random.Generator,
    decay: float = 2.0,
    amplitude: float = 1.0,
) -> ScalarField:
    """Mean-zero random field: |k|^-decay spectral amplitudes, random phases,
    Hermitian-symmetrized, dealiased, scaled to ||f||_{L^2} = amplitude.
    A decay whose spectrum overflows, or underflows to zero in a nonempty
    dealias band, is a ValueError.

    The draws fill the whole (N, N) lattice, so a seed gives the same field
    however it is stored; the half of their Hermitian part is kept."""
    n = grid.modes_per_dim
    normals = rng.standard_normal((1, 1, 2, n, n))
    return ScalarField(grid, _random_halves(grid, normals, [decay], amplitude)[0, 0])


def divfree_draws(grid: SpectralGrid, rng: np.random.Generator, count: int,
                  uniform: tuple[float, float] | None = None):
    """The draws of `count` random divergence-free fields, in the order of
    `count` random_divfree_field calls: per field, rng.uniform(*uniform)
    when uniform is given, then its four (N, N) normal blocks.  Returns the
    uniforms (None without uniform) and the normals (count, 2, 2, N, N)."""
    n = grid.modes_per_dim
    uniforms = None if uniform is None else np.empty(count)
    normals = np.empty((count, 2, 2, n, n))
    for i in range(count):
        if uniforms is not None:
            uniforms[i] = rng.uniform(*uniform)
        rng.standard_normal(out=normals[i])
    return uniforms, normals


def divfree_halves(grid: SpectralGrid, normals: np.ndarray, decays,
                   amplitudes) -> np.ndarray:
    """The (count, 2, N, N/2+1) halves of the random divergence-free fields
    drawn as `divfree_draws` normals: field i has the spectrum
    |k|^-decays[i] and ||v||_{L^2} = amplitudes[i].  The whole chunk takes
    one Hermitian half, one Leray projection and one batched norm, with
    the bits of the fields one at a time."""
    raw = _random_halves(grid, normals, [float(d) for d in decays], 1.0)
    v = _leray_halves(grid, raw)
    norms = sobolev_norms(v, grid)
    return v * _scale_to(np.asarray(amplitudes, dtype=float), norms)[:, None, None, None]


def random_divfree_field(
    grid: SpectralGrid,
    rng: np.random.Generator,
    decay: float = 2.0,
    amplitude: float = 1.0,
) -> VectorField:
    """Random mean-zero divergence-free field, dealiased, ||v||_{L^2} = amplitude:
    the one-field case of `divfree_draws` and `divfree_halves`."""
    _, normals = divfree_draws(grid, rng, 1)
    return VectorField(grid, divfree_halves(grid, normals, [decay], [amplitude])[0])
