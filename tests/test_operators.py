"""curl, Biot-Savart, Leray projection and the bilinear operators with their
cancellation identities."""

import numpy as np
import pytest

from vortex.operators import (
    bilinear_B,
    bilinear_F,
    biot_savart,
    bracket,
    curl,
    divergence_defect,
    grad_norm_l2,
    gradient,
    leray_project,
    random_divfree_field,
    random_scalar_field,
    rotational_advection,
    vorticity_values,
)
from vortex.spectral import (
    ScalarField,
    SpectralGrid,
    VectorField,
    bessel_multiplier,
    dealias,
    l2_norm,
    lq_norm,
    sobolev_norm_spectral,
    to_physical,
    to_spectral,
    zero_scalar,
    zero_vector,
)


def sin_x1_field(grid):
    """v = (0, sin x1) on the 2 pi torus."""
    xx, _ = grid.meshgrid()
    return VectorField(zero_scalar(grid), to_spectral(np.sin(xx), grid))


class TestCurl:
    def test_symbolic_example(self, grid32):
        xx, _ = grid32.meshgrid()
        xi = curl(sin_x1_field(grid32))
        assert np.max(np.abs(to_physical(xi) - np.cos(xx))) < 1e-13

    def test_constant_field(self, grid16):
        c = to_spectral(np.full((16, 16), 1.7), grid16)
        assert l2_norm(curl(VectorField(c, c))) == 0.0

    def test_curl_of_gradient_vanishes(self, grid32, rng):
        for _ in range(5):
            phi = random_scalar_field(grid32, rng)
            residual = curl(gradient(phi))
            assert np.max(np.abs(residual.coeffs)) <= 1e-13 * np.max(np.abs(phi.coeffs))

    def test_output_hermitian(self, grid32, rng):
        # within the self-conjugate columns 0 and N/2 of the half, row N - i
        # is the conjugate of row i
        v = random_divfree_field(grid32, rng)
        c = curl(v).half
        column = c[:, ::16]
        defect = np.max(np.abs(column[-np.arange(32) % 32] - np.conj(column)))
        assert defect < 1e-13 * np.max(np.abs(c))


class TestBiotSavart:
    def test_non_real_vorticity_rejected(self, grid16):
        def field(partner):
            c = np.zeros((16, 9), dtype=complex)
            c[1, 0], c[-1, 0] = 1.0, partner
            return ScalarField(grid16, c)

        with pytest.raises(ValueError, match="^biot_savart vorticity is not real"):
            biot_savart(field(0.0))  # no conjugate partner
        with pytest.raises(ValueError, match="Hermitian"):
            biot_savart(field(1.0 + 1e-6j))
        # the Nyquist column N/2 is self-conjugate like column 0
        nyquist = np.zeros((16, 9), dtype=complex)
        nyquist[1, 0] = nyquist[-1, 0] = 1.0
        nyquist[2, 8] = 1.0
        with pytest.raises(ValueError, match="^biot_savart vorticity is not real"):
            biot_savart(ScalarField(grid16, nyquist))
        xi = field(1.0)
        assert l2_norm(curl(biot_savart(xi)) - xi) < 1e-15

    def test_zero_maps_to_zero(self, grid16):
        v = biot_savart(zero_scalar(grid16))
        assert l2_norm(v) == 0.0

    def test_single_mode_inversion(self, grid32):
        # xi = cos(x1)  ->  v = (0, sin(x1))
        xx, _ = grid32.meshgrid()
        v = biot_savart(to_spectral(np.cos(xx), grid32))
        assert np.max(np.abs(to_physical(v.vy) - np.sin(xx))) < 1e-12
        assert np.max(np.abs(to_physical(v.vx))) < 1e-12

    def test_round_trip_and_divergence(self, grid64, rng):
        for _ in range(10):
            xi = random_scalar_field(grid64, rng)
            v = biot_savart(xi)
            assert l2_norm(curl(v) - xi) <= 1e-12 * l2_norm(xi)
            assert divergence_defect(v) <= 1e-12

    def test_nonzero_mean_rejected(self, grid16):
        c = np.zeros((16, 9), dtype=complex)
        c[0, 0] = 1.0
        c[1, 0] = c[-1, 0] = 0.25
        with pytest.raises(ValueError, match="mean-zero"):
            biot_savart(ScalarField(grid16, c))


class TestLerayProjection:
    def test_divergence_free_unchanged(self, grid32, rng):
        v = random_divfree_field(grid32, rng)
        p = leray_project(v)
        scale = max(np.max(np.abs(v.vx.coeffs)), np.max(np.abs(v.vy.coeffs)))
        assert np.max(np.abs(p.vx.coeffs - v.vx.coeffs)) <= 1e-13 * scale
        assert np.max(np.abs(p.vy.coeffs - v.vy.coeffs)) <= 1e-13 * scale

    def test_gradient_killed(self, grid32, rng):
        phi = random_scalar_field(grid32, rng)
        g = gradient(phi)
        p = leray_project(g)
        scale = max(np.max(np.abs(g.vx.coeffs)), np.max(np.abs(g.vy.coeffs)))
        assert np.max(np.abs(p.vx.coeffs)) <= 1e-13 * scale
        assert np.max(np.abs(p.vy.coeffs)) <= 1e-13 * scale

    def test_idempotent_and_divfree(self, grid32, rng):
        raw = VectorField(random_scalar_field(grid32, rng),
                          random_scalar_field(grid32, rng))
        once = leray_project(raw)
        twice = leray_project(once)
        scale = np.max(np.abs(once.vx.coeffs))
        assert np.max(np.abs(twice.vx.coeffs - once.vx.coeffs)) <= 1e-13 * scale
        assert divergence_defect(once) <= 1e-12

    def test_zero_mode_unchanged(self, grid16):
        c = np.zeros((16, 9), dtype=complex)
        c[0, 0] = 2.0
        v = VectorField(ScalarField(grid16, c), zero_scalar(grid16))
        assert leray_project(v).vx.coeffs[0, 0] == pytest.approx(2.0)


class TestBilinearB:
    def test_zero_inputs(self, grid16):
        v = zero_vector(grid16)
        assert l2_norm(bilinear_B(v, v)) == 0.0

    def test_parallel_shear_flow_vanishes(self, grid32):
        # u = (0, sin x1): u2 depends only on x1 and u1 = 0, so (u.grad)u = 0
        u = sin_x1_field(grid32)
        assert l2_norm(bilinear_B(u, u)) == 0.0

    def test_skew_symmetry(self, grid64, rng):
        for _ in range(20):
            u = random_divfree_field(grid64, rng)
            v = random_divfree_field(grid64, rng)
            z = random_divfree_field(grid64, rng)
            lhs = bracket(bilinear_B(u, v), z)
            rhs = -bracket(bilinear_B(u, z), v)
            scale = l2_norm(u) * sobolev_norm_spectral(v, 1.0) * sobolev_norm_spectral(z, 1.0)
            assert abs(lhs - rhs) <= 1e-10 * scale

    def test_energy_cancellation(self, grid64, rng):
        for _ in range(100):
            u = random_divfree_field(grid64, rng)
            v = random_divfree_field(grid64, rng)
            scale = l2_norm(u) * sobolev_norm_spectral(v, 1.0) ** 2
            assert abs(bracket(bilinear_B(u, v), v)) <= 1e-10 * scale

    def test_grid_mismatch(self, grid16, grid32, rng):
        with pytest.raises(ValueError):
            bilinear_B(random_divfree_field(grid16, rng),
                       random_divfree_field(grid32, rng))


class TestRotationalAdvection:
    """P[w (-u_y, u_x)] against the advective oracle P B(v, v)."""

    @staticmethod
    def gap(v):
        rotational = leray_project(rotational_advection(v, vorticity_values(v)))
        advective = leray_project(bilinear_B(v, v))
        return l2_norm(rotational - advective) / l2_norm(advective)

    @pytest.mark.parametrize("n", [32, 64, 256])
    def test_matches_projected_advection(self, rng, n):
        grid = SpectralGrid(n)
        for _ in range(3):
            v = random_divfree_field(grid, rng, decay=1.0, amplitude=rng.uniform(0.5, 5.0))
            assert self.gap(v) <= 1e-13

    @pytest.mark.parametrize("n", [32, 64, 256])
    def test_out_of_band_content_is_dealiased_on_both_sides(self, rng, n):
        grid = SpectralGrid(n)
        raw = rng.standard_normal((2, n, n))
        v = leray_project(VectorField(to_spectral(raw[0], grid), to_spectral(raw[1], grid)))
        assert l2_norm(v - dealias(v)) > 0.5 * l2_norm(v)
        assert self.gap(v) <= 1e-13


class TestBilinearF:
    def test_constant_scalar(self, grid16, rng):
        u = random_divfree_field(grid16, rng)
        const = to_spectral(np.full((16, 16), 4.0), grid16)
        assert l2_norm(bilinear_F(u, const)) <= 1e-14

    def test_symbolic_product(self, grid32):
        # u = (0, sin x1), xi = cos x2  ->  u . grad xi = -sin x1 sin x2
        u = sin_x1_field(grid32)
        xx, yy = grid32.meshgrid()
        xi = to_spectral(np.cos(yy), grid32)
        out = to_physical(bilinear_F(u, xi))
        assert np.max(np.abs(out + np.sin(xx) * np.sin(yy))) < 1e-13

    def test_self_cancellation(self, grid64, rng):
        for _ in range(100):
            u = random_divfree_field(grid64, rng)
            xi = random_scalar_field(grid64, rng)
            scale = l2_norm(u) * sobolev_norm_spectral(xi, 1.0) ** 2
            assert abs(bracket(bilinear_F(u, xi), xi)) <= 1e-10 * scale

    def test_antisymmetry(self, grid64, rng):
        for _ in range(20):
            u = random_divfree_field(grid64, rng)
            xi = random_scalar_field(grid64, rng)
            zeta = random_scalar_field(grid64, rng)
            lhs = bracket(bilinear_F(u, xi), zeta)
            rhs = -bracket(bilinear_F(u, zeta), xi)
            scale = (l2_norm(u) * sobolev_norm_spectral(xi, 1.0)
                     * sobolev_norm_spectral(zeta, 1.0))
            assert abs(lhs - rhs) <= 1e-10 * scale

    def test_duality_bound(self, grid64, rng):
        # ||F(u, xi)||_{W^{-1,2}} <= ||u||_{L4} ||xi||_{L4}, computed spectrally
        for _ in range(30):
            u = random_divfree_field(grid64, rng)
            xi = random_scalar_field(grid64, rng)
            dual = sobolev_norm_spectral(bessel_multiplier(bilinear_F(u, xi), -1.0), 0.0)
            assert dual <= 1.01 * lq_norm(u, 4.0) * lq_norm(xi, 4.0)


class TestWeightedIdentities:
    """The q = 4 cancellations, exact on the padded grid at every N."""

    def compressible(self, grid, rng):
        # a field with divergence, for which neither pairing cancels
        return VectorField(random_scalar_field(grid, rng), random_scalar_field(grid, rng))

    def test_b_weighted_q4(self, rng):
        from vortex.harness import _weighted_residual

        for grid in (SpectralGrid(32), SpectralGrid(64)):
            for _ in range(20):
                u = random_divfree_field(grid, rng)
                assert _weighted_residual(u, u) <= 1e-10
            w = self.compressible(grid, rng)
            assert _weighted_residual(w, w) > 1e-6

    def test_f_weighted_q4(self, rng):
        from vortex.harness import _weighted_residual

        for grid in (SpectralGrid(32), SpectralGrid(64)):
            for _ in range(20):
                u = random_divfree_field(grid, rng)
                xi = random_scalar_field(grid, rng)
                assert _weighted_residual(u, xi) <= 1e-10
            w = self.compressible(grid, rng)
            assert _weighted_residual(w, random_scalar_field(grid, rng)) > 1e-6


class TestCurlGradEquivalence:
    def test_exact_identity(self, grid64, rng):
        for _ in range(100):
            v = random_divfree_field(grid64, rng)
            gn = grad_norm_l2(v)
            assert abs(gn - l2_norm(curl(v))) <= 1e-12 * gn

    def test_fails_without_divergence_free(self, grid32, rng):
        # gradient fields have nonzero gradient norm but zero curl
        phi = random_scalar_field(grid32, rng)
        g = gradient(phi)
        assert grad_norm_l2(g) > 1e-6
        assert l2_norm(curl(g)) <= 1e-12 * grad_norm_l2(g)
