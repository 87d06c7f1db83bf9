"""Grid bookkeeping, transforms, dealiasing, Bessel multipliers and norms."""

import math

import numpy as np
import pytest

from vortex.operators import random_scalar_field
from vortex.spectral import (
    TWO_THIRDS,
    abs_power,
    ScalarField,
    SpectralGrid,
    VectorField,
    bessel_multiplier,
    dealias,
    hermitian_amplitudes,
    l2_inner,
    lq_norm,
    read_snapshot,
    regrid,
    require_real,
    sobolev_norm,
    sobolev_norm_spectral,
    sobolev_weight,
    to_physical,
    to_spectral,
    write_snapshot,
    zero_scalar,
)


def mirrored(half: np.ndarray, n: int) -> np.ndarray:
    """The (N, N) Hermitian completion of an rfft2 half, index by index:
    coeff(i, j) = conj(coeff(-i, -j)) where (i, j) is not in the half, or is
    in a self-conjugate column's lower rows."""
    h = n // 2
    full = np.zeros((n, n), dtype=complex)
    full[:, : h + 1] = half
    for i in range(n):
        for j in range(n):
            if j > h or (j in (0, h) and i > h):
                full[i, j] = np.conj(full[(-i) % n, (-j) % n])
    for i in (0, h):
        for j in (0, h):
            full[i, j] = full[i, j].real
    return full


def column_defect(half: np.ndarray) -> float:
    """max |coeff(-i, j) - conj(coeff(i, j))| over the self-conjugate
    columns j = 0 and N/2 of a half: the only place a half can break
    realness."""
    n = half.shape[0]
    column = half[:, :: n // 2]
    return float(np.max(np.abs(column[-np.arange(n) % n] - np.conj(column))))


class TestSpectralGrid:
    def test_invariants_enforced(self):
        with pytest.raises(ValueError):
            SpectralGrid(6)
        with pytest.raises(ValueError):
            SpectralGrid(33)
        with pytest.raises(ValueError):
            SpectralGrid(16, domain_length=-1.0)
        with pytest.raises(ValueError):
            SpectralGrid(16, dealias_fraction=0.0)
        with pytest.raises(ValueError):
            SpectralGrid(16, dealias_fraction=1.5)

    @pytest.mark.parametrize("fraction", [0.8, 1.0, TWO_THIRDS + 1e-12])
    def test_dealias_fraction_above_two_thirds_refused(self, fraction):
        # above 2/3 the quadratic products alias; at 1 the Nyquist line is kept
        with pytest.raises(ValueError, match="^dealias_fraction must lie in \\(0, 2/3\\]"):
            SpectralGrid(16, dealias_fraction=fraction)

    @pytest.mark.parametrize("n", [8, 16, 32, 48, 64])
    def test_two_thirds_accepted_and_its_band_limit(self, n):
        grid = SpectralGrid(n, dealias_fraction=2.0 / 3.0)
        b = grid.dealias_limit
        assert b < n // 2
        j = np.abs(grid.mode_numbers)
        assert np.array_equal(grid.dealias_mask,
                              (j[:, None] <= b) & (j[None, : n // 2 + 1] <= b))

    @pytest.mark.parametrize("n", [12, 16, 42, 48, 64, 96])
    def test_two_thirds_band_is_the_widest_alias_free_one(self, n):
        # products of |j| <= b reach 2b, whose alias 2b - N stays out of the
        # band only while 3b < N; on grids divisible by 6 the fraction 2/3
        # alone would keep b = N/3
        b = SpectralGrid(n).dealias_limit
        assert 3 * b < n <= 3 * (b + 1)

    def test_mode_numbers_cover_band(self, grid16):
        j = grid16.mode_numbers
        # j in {-N/2+1, ..., N/2}, Nyquist labelled +N/2
        assert sorted(j) == list(range(-7, 9))
        assert j[8] == 8

    def test_wavevectors_scale_with_domain(self):
        g = SpectralGrid(16, domain_length=4.0 * np.pi)
        assert g.k[0][1, 0] == pytest.approx(0.5)
        assert g.k[1][0, 1] == pytest.approx(0.5)

    def test_dealias_mask_two_thirds(self, grid64):
        mask = grid64.dealias_mask
        j = grid64.mode_numbers
        cutoff = (2.0 / 3.0) * 32
        for idx, jj in [(1, j[1]), (21, j[21]), (22, j[22]), (32, j[32])]:
            expected = max(abs(jj), 0) <= cutoff
            assert mask[idx, 0] == expected
        assert not mask[32, 0]  # Nyquist always outside for 2/3


    def test_inverse_laplacian_symbol_shared_read_only(self, grid16):
        inv = grid16.inv_ksq
        assert inv is grid16.inv_ksq and not inv.flags.writeable
        assert inv[0, 0] == 0.0
        assert np.array_equal(inv.ravel()[1:], 1.0 / grid16.ksq.ravel()[1:])


class TestTransforms:
    def test_zero_field_round_trip(self, grid16):
        f = zero_scalar(grid16)
        assert np.all(to_physical(f) == 0.0)

    def test_constant_field_normalization(self, grid16):
        # coefficients are mode amplitudes: constant c has coeff(0) = c
        f = to_spectral(np.full((16, 16), 3.25), grid16)
        assert f.coeffs[0, 0] == pytest.approx(3.25)
        assert np.max(np.abs(f.coeffs)) == pytest.approx(3.25)

    def test_single_cosine_mode(self, grid32):
        # coeff 1/2 at k=(2pi/L, 0) plus conjugate -> cos(2 pi x1 / L)
        n = grid32.modes_per_dim
        c = np.zeros((n, n), dtype=complex)
        c[1, 0] = 0.5
        c[-1, 0] = 0.5
        f = ScalarField.from_lattice(grid32, c)
        xx, _ = grid32.meshgrid()
        expected = np.cos(2.0 * np.pi * xx / grid32.domain_length)
        assert np.max(np.abs(to_physical(f) - expected)) < 1e-14

    def test_round_trip_random_fields(self, grid32, rng):
        for _ in range(20):
            f = random_scalar_field(grid32, rng)
            back = to_spectral(to_physical(f), grid32)
            scale = np.max(np.abs(f.coeffs))
            assert np.max(np.abs(back.coeffs - f.coeffs)) <= 1e-13 * scale

    def test_scaling_matches_the_out_of_place_reference(self, rng):
        # both transforms are real-to-complex and scale in place; the bits
        # must equal their out-of-place irfft2 / rfft2 reference, and the
        # values the complex transforms of the full spectrum to rounding
        for n in (16, 48, 64, 256):
            grid = SpectralGrid(n)
            f = random_scalar_field(grid, rng)
            phys = to_physical(f)
            assert np.array_equal(phys, np.fft.irfft2(f.coeffs[:, : n // 2 + 1], s=(n, n))
                                  * (n * n))
            complex_phys = (np.fft.ifft2(f.coeffs) * (n * n)).real
            assert np.max(np.abs(phys - complex_phys)) <= 1e-14 * np.max(np.abs(complex_phys))
            values = rng.standard_normal((n, n))
            coeffs = to_spectral(values, grid).coeffs
            assert np.array_equal(coeffs, mirrored(np.fft.rfft2(values) / (n * n), n))
            complex_coeffs = np.fft.fft2(values) / (n * n)
            assert (np.max(np.abs(coeffs - complex_coeffs))
                    <= 1e-14 * np.max(np.abs(complex_coeffs)))

    @pytest.mark.parametrize("n", [8, 16, 48, 64])
    def test_band_amplitudes_match_the_masked_transform(self, rng, n):
        grid = SpectralGrid(n)
        values = rng.standard_normal((n, n))
        band = hermitian_amplitudes(values, grid.dealias_limit)
        assert band.shape == (n, n // 2 + 1)
        assert np.all(band[~grid.dealias_mask] == 0.0)
        masked = (np.fft.fft2(values) / (n * n))[:, : n // 2 + 1] * grid.dealias_mask
        assert np.max(np.abs(band - masked)) <= 1e-14 * np.max(np.abs(masked))
        assert column_defect(band) == 0.0

    def test_to_spectral_output_is_hermitian(self, rng):
        # the self-conjugate columns are written as their own mirror: exact
        # by construction
        for n in (8, 16, 24, 48, 64, 256):
            grid = SpectralGrid(n)
            for _ in range(5):
                assert column_defect(to_spectral(rng.standard_normal((n, n)), grid).half) == 0.0

    def test_hermitian_symmetry_of_random_fields(self, grid32, rng):
        for _ in range(10):
            assert column_defect(random_scalar_field(grid32, rng).half) <= 1e-13

    def test_non_real_field_rejected(self, grid16, rng):
        # realness is checked once, where a caller hands a field in; the
        # transforms read the half spectrum and check nothing.  Only the
        # self-conjugate columns 0 and N/2 of a half can break it.
        real = random_scalar_field(grid16, rng)
        for column in (0, 8):
            c = np.zeros((16, 9), dtype=complex)
            c[1, column] = 1.0  # row 15 is not its conjugate
            odd = ScalarField(grid16, c)
            with pytest.raises(ValueError, match="^xi is not real.*Hermitian"):
                require_real(odd, "xi")
            with pytest.raises(ValueError, match="^v is not real"):
                require_real(VectorField.stack(real, odd), "v")
        bad = np.zeros((16, 9), dtype=complex)
        bad[2, 3] = np.nan
        with pytest.raises(ValueError, match="^xi must be finite"):
            require_real(ScalarField(grid16, bad), "xi")
        require_real(real, "xi")
        require_real(VectorField.stack(real, real * 2.0), "v")

    def test_from_lattice_refuses_non_finite_and_non_hermitian(self, grid16, rng):
        lattice = random_scalar_field(grid16, rng).coeffs.copy()
        assert np.array_equal(ScalarField.from_lattice(grid16, lattice).half,
                              lattice[:, :9])
        odd = lattice.copy()
        odd[3, 12] += 1e-3  # its partner (13, 4) lies in the half
        with pytest.raises(ValueError, match="^xi0 is not real.*Hermitian"):
            ScalarField.from_lattice(grid16, odd, "xi0")
        bad = lattice.copy()
        bad[2, 11] = np.nan  # outside the half, still refused
        with pytest.raises(ValueError, match="^xi0 must be finite"):
            ScalarField.from_lattice(grid16, bad, "xi0")
        with pytest.raises(ValueError, match="^xi0: lattice shape"):
            ScalarField.from_lattice(grid16, lattice[:, :9], "xi0")

    def test_shape_mismatch_rejected(self, grid16):
        with pytest.raises(ValueError, match="shape"):
            ScalarField(grid16, np.zeros((8, 8), dtype=complex))
        with pytest.raises(ValueError, match="shape"):
            to_spectral(np.zeros((8, 8)), grid16)


class TestDealias:
    def test_inside_mask_unchanged(self, grid32, rng):
        f = random_scalar_field(grid32, rng)  # generator already dealiases
        g = dealias(f)
        assert np.array_equal(g.coeffs, f.coeffs)

    def test_nyquist_mode_zeroed(self, grid16):
        n = grid16.modes_per_dim
        c = np.zeros((n, n // 2 + 1), dtype=complex)
        c[n // 2, 0] = 1.0
        assert np.all(dealias(ScalarField(grid16, c)).half == 0.0)

    def test_idempotent(self, grid32, rng):
        c = rng.standard_normal((32, 17)) + 1j * rng.standard_normal((32, 17))
        f = ScalarField(grid32, c)
        once = dealias(f)
        twice = dealias(once)
        assert np.array_equal(once.coeffs, twice.coeffs)


class TestBesselMultiplier:
    def test_s_zero_is_identity(self, grid16, rng):
        f = random_scalar_field(grid16, rng)
        assert np.array_equal(bessel_multiplier(f, 0.0).coeffs, f.coeffs)

    def test_constant_field_unchanged(self, grid16):
        f = to_spectral(np.full((16, 16), 2.0), grid16)
        for s in (-1.0, 0.5, 2.0):
            assert bessel_multiplier(f, s).coeffs[0, 0] == pytest.approx(2.0)

    def test_single_mode_scaling(self):
        # |k|^2 = 3 via L = 2 pi / sqrt(3), j = (1, 0); s = 2 scales by 4
        g = SpectralGrid(16, domain_length=2.0 * np.pi / math.sqrt(3.0))
        c = np.zeros((16, 9), dtype=complex)
        c[1, 0] = 0.5
        c[-1, 0] = 0.5
        out = bessel_multiplier(ScalarField(g, c), 2.0)
        assert out.coeffs[1, 0] == pytest.approx(2.0, rel=1e-12)

    def test_inverse_composition(self, grid32, rng):
        f = random_scalar_field(grid32, rng)
        back = bessel_multiplier(bessel_multiplier(f, 1.7), -1.7)
        assert np.max(np.abs(back.coeffs - f.coeffs)) <= 1e-12 * np.max(np.abs(f.coeffs))


class TestLqNorm:
    def test_constant_field_closed_form(self):
        g = SpectralGrid(16, domain_length=3.0)
        f = to_spectral(np.full((16, 16), -2.0), g)
        for q in (1.0, 2.0, 4.0):
            assert lq_norm(f, q) == pytest.approx(2.0 * 3.0 ** (2.0 / q), rel=1e-13)
        assert lq_norm(f, np.inf) == pytest.approx(2.0)

    def test_zero_field(self, grid16):
        assert lq_norm(zero_scalar(grid16), 3.0) == 0.0

    def test_cosine_l2_closed_form(self, grid32):
        # ||cos(2 pi x1/L)||_{L^2}^2 = L^2/2, so the norm is L / sqrt(2)
        L = grid32.domain_length
        xx, _ = grid32.meshgrid()
        f = to_spectral(np.cos(2.0 * np.pi * xx / L), grid32)
        assert lq_norm(f, 2.0) == pytest.approx(L / math.sqrt(2.0), rel=1e-12)

    def test_absolute_homogeneity(self, grid16, rng):
        f = random_scalar_field(grid16, rng)
        for q in (1.5, 2.0, 6.0):
            assert lq_norm(f * -2.5, q) == pytest.approx(2.5 * lq_norm(f, q), rel=1e-12)

    def test_vector_component_sum_convention(self, grid16):
        ones = to_spectral(np.full((16, 16), 1.0), grid16)
        twos = to_spectral(np.full((16, 16), 2.0), grid16)
        v = VectorField.stack(ones, twos)
        L = grid16.domain_length
        expected = ((1.0 + 2.0**4) * L * L) ** 0.25
        assert lq_norm(v, 4.0) == pytest.approx(expected, rel=1e-12)
        assert lq_norm(v, np.inf) == pytest.approx(3.0)

    def test_q_below_one_rejected(self, grid16):
        with pytest.raises(ValueError):
            lq_norm(zero_scalar(grid16), 0.5)

    @staticmethod
    def pow_norm(parts, q, grid):
        # the sum of |x|^q by pow, as the norms took it before the power rule
        total = sum(np.sum(np.abs(p) ** q) for p in parts)
        return float((total * grid.cell_area) ** (1.0 / q))

    @pytest.mark.parametrize("q", [2.0, 4.0, 8.0])
    def test_power_of_two_matches_pow(self, grid32, rng, q):
        f = random_scalar_field(grid32, rng, amplitude=30.0)
        g = random_scalar_field(grid32, rng)
        values = to_physical(f)
        squared = abs_power(values, q)
        assert np.allclose(squared, np.abs(values) ** q, rtol=1e-14, atol=0.0)
        assert np.sum(squared) == pytest.approx(np.sum(np.abs(values) ** q), rel=1e-14)
        assert lq_norm(f, q) == pytest.approx(self.pow_norm([values], q, grid32), rel=1e-14)
        v = VectorField.stack(f, g)
        assert lq_norm(v, q) == pytest.approx(self.pow_norm(to_physical(v), q, grid32),
                                              rel=1e-14)
        if q == 2.0:  # one square either way
            assert squared.tobytes() == (np.abs(values) ** q).tobytes()

    @pytest.mark.parametrize("q", [1.0, 1.5, 3.0, 6.0, 12.5])
    def test_other_q_unchanged(self, grid32, rng, q):
        f, g = random_scalar_field(grid32, rng), random_scalar_field(grid32, rng)
        values = to_physical(f)
        want = np.abs(values) ** q
        assert abs_power(values, q).tobytes() == want.tobytes()
        assert lq_norm(f, q) == self.pow_norm([values], q, grid32)
        v = VectorField.stack(f, g)
        assert lq_norm(v, q) == self.pow_norm(to_physical(v), q, grid32)

    def test_power_rule_leaves_its_input(self, grid16, rng):
        values = to_physical(random_scalar_field(grid16, rng))
        before = values.copy()
        for q in (3.0, 4.0):
            abs_power(values, q)
        assert np.array_equal(values, before)


class TestSobolevNorm:
    def test_s_zero_reduces_to_lq(self, grid16, rng):
        f = random_scalar_field(grid16, rng)
        for q in (2.0, 4.0):
            assert sobolev_norm(f, 0.0, q) == pytest.approx(lq_norm(f, q), rel=1e-13)

    def test_single_mode_s1(self, grid32):
        # |k|^2 = 1: multiplier sqrt(2) relative to the L2 norm
        xx, _ = grid32.meshgrid()
        f = to_spectral(np.cos(xx), grid32)
        assert sobolev_norm(f, 1.0, 2.0) == pytest.approx(
            math.sqrt(2.0) * lq_norm(f, 2.0), rel=1e-12
        )

    def test_negative_order_smoothing(self, grid32, rng):
        for _ in range(10):
            f = random_scalar_field(grid32, rng)
            assert sobolev_norm(f, -1.0, 2.0) <= lq_norm(f, 2.0) * (1 + 1e-12)

    def test_parseval_consistency(self, grid32, rng):
        # physical quadrature and the spectral sum agree
        for _ in range(200):
            f = random_scalar_field(grid32, rng, decay=rng.uniform(1.0, 3.0))
            s = rng.uniform(-1.5, 1.5)
            a = sobolev_norm(f, s, 2.0)
            b = sobolev_norm_spectral(f, s)
            assert abs(a - b) <= 1e-10 * max(a, 1e-30)

    def test_weight_cached_per_grid_and_order_read_only(self, grid16, rng):
        w = sobolev_weight(grid16, 0.5)
        assert w is sobolev_weight(grid16, 0.5) and not w.flags.writeable
        assert w is not sobolev_weight(grid16, 1.0)
        assert w is not sobolev_weight(SpectralGrid(16, dealias_fraction=0.5), 0.5)
        f = random_scalar_field(grid16, rng)
        full = np.sum((1.0 + mirrored(grid16.ksq, 16).real) ** 0.5 * np.abs(f.coeffs) ** 2)
        assert sobolev_norm_spectral(f, 0.5) == pytest.approx(
            math.sqrt(full) * grid16.domain_length, rel=1e-14)

    def test_monotone_in_s(self, grid32, rng):
        for _ in range(25):
            f = random_scalar_field(grid32, rng)
            s1, s2 = sorted(rng.uniform(-2.0, 2.0, size=2))
            assert sobolev_norm_spectral(f, s1) <= sobolev_norm_spectral(f, s2) * (1 + 1e-12)


class TestFieldAlgebra:
    def test_immutability(self, grid16, rng):
        f = random_scalar_field(grid16, rng)
        with pytest.raises(ValueError):
            f.half[0, 0] = 1.0
        with pytest.raises(ValueError):
            f.coeffs[0, 0] = 1.0

    def test_grid_mismatch_rejected(self, grid16, grid32, rng):
        with pytest.raises(ValueError):
            random_scalar_field(grid16, rng) + random_scalar_field(grid32, rng)

    def test_l2_inner_matches_quadrature(self, grid16, rng):
        f = random_scalar_field(grid16, rng)
        g = random_scalar_field(grid16, rng)
        quad = np.sum(to_physical(f) * to_physical(g)) * grid16.cell_area
        assert l2_inner(f, g) == pytest.approx(quad, abs=1e-12)


class TestRegrid:
    def test_physical_values_preserved(self, grid16, rng):
        f = random_scalar_field(grid16, rng)
        fine = SpectralGrid(32, grid16.domain_length)
        g = regrid(f, fine)
        # fine-grid samples at even indices coincide with the coarse samples
        coarse = to_physical(f)
        refined = to_physical(g)
        assert np.max(np.abs(refined[::2, ::2] - coarse)) < 1e-12

    def test_l2_norm_preserved(self, grid16, rng):
        # the L2 quadrature is exact on both grids; the q=4 quadrature only
        # becomes exact once the grid resolves the 4th power
        f = random_scalar_field(grid16, rng)
        fine = SpectralGrid(32, grid16.domain_length)
        assert lq_norm(regrid(f, fine), 2.0) == pytest.approx(lq_norm(f, 2.0), rel=1e-12)
        assert lq_norm(regrid(f, fine), 4.0) == pytest.approx(lq_norm(f, 4.0), rel=2e-2)

    def test_domain_mismatch_rejected(self, grid16, rng):
        f = random_scalar_field(grid16, rng)
        with pytest.raises(ValueError):
            regrid(f, SpectralGrid(32, domain_length=1.0))


class TestSnapshotFormat:
    def test_round_trip(self, grid16, rng, tmp_path):
        f = random_scalar_field(grid16, rng)
        path = tmp_path / "field.vspd"
        write_snapshot(f, path)
        g = read_snapshot(path)
        assert g.grid == grid16
        assert np.max(np.abs(g.coeffs - f.coeffs)) < 1e-13

    def test_header_layout(self, grid16, rng, tmp_path):
        f = random_scalar_field(grid16, rng)
        path = tmp_path / "field.vspd"
        write_snapshot(f, path)
        raw = path.read_bytes()
        assert raw[:4] == b"VSPD"
        assert int.from_bytes(raw[4:6], "little") == 1
        assert int.from_bytes(raw[6:8], "little") == 16
        assert np.frombuffer(raw[8:16], dtype="<f8")[0] == grid16.domain_length
        assert len(raw) == 16 + 16 * 16 * 8

    def test_corrupt_header_rejected(self, tmp_path):
        path = tmp_path / "bad.vspd"
        path.write_bytes(b"NOPE" + bytes(12))
        with pytest.raises(ValueError, match="magic"):
            read_snapshot(path)
