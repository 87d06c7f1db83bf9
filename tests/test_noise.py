"""Covariance basis, sigma, Hille-Yosida smoothing, increments and the
Hilbert-Schmidt / gamma-radonifying norms."""

import math

import numpy as np
import pytest

from oracles import (
    basis_fields,
    dense_apply_G,
    dense_noise,
    hille_yosida,
    scattered,
    sigma_lipschitz_bound,
    sigma_of,
    sobolev_norm,
)
from vortex import noise
from vortex.config import _band_modes, _single_mode_vector
from vortex.noise import (
    CovarianceSpec,
    NoiseBasis,
    WienerIncrement,
    _basis_l2_sq,
    apply_G,
    basis_l2_sq_sum,
    basis_values,
    mode_weights,
    operator_norms,
    quadrature_grid,
    sample_increment,
    scatter_plan,
    sigma_values,
)
from vortex.operators import curl, divergence_defect, random_divfree_field
from vortex.spectral import (
    ScalarField,
    SpectralGrid,
    VectorField,
    bessel_multiplier,
    l2_inner,
    l2_norm,
    lattice,
    sobolev_norm_spectral,
    to_physical,
    zero_vector,
)


def apply_G_one(v, dW, spec):
    """apply_G on a batch of the one row v, (3, len(touched))."""
    return apply_G(sigma_values(v.half[None], spec), dW.gaussians[None], dW.dt, spec,
                   v.grid)[0]


def make_spec(grid=None, modes=((1, 0), (0, 1), (-1, 0), (1, 1)),
              coeffs=(0.3, 0.2, 0.15, 0.1), g=0.5, sigma="constant_one",
              pivot=None, hy=math.inf):
    return CovarianceSpec(tuple(modes), tuple(coeffs), g, sigma, pivot, hy)


class TestCovarianceSpec:
    def test_validation(self):
        with pytest.raises(ValueError, match="distinct"):
            make_spec(modes=((1, 0), (1, 0)), coeffs=(0.1, 0.1))
        with pytest.raises(ValueError, match="roughness"):
            make_spec(g=1.0)
        with pytest.raises(ValueError, match="one coefficient per mode"):
            make_spec(coeffs=(0.1,))
        with pytest.raises(ValueError, match="pivot"):
            make_spec(sigma="rational_square")
        with pytest.raises(ValueError, match="hy_level"):
            make_spec(hy=0)

    def test_hs_condition_reported(self):
        spec = make_spec()
        assert spec.coefficient_sq_sum == pytest.approx(0.3**2 + 0.2**2 + 0.15**2 + 0.1**2)


class TestNoiseBasis:
    def test_unit_sobolev_norm(self, grid32):
        spec = make_spec(g=0.5)
        for e in basis_fields(spec, grid32):
            assert sobolev_norm(e, 1.0 - spec.roughness, 2.0) == pytest.approx(1.0, abs=1e-12)

    def test_constant_mode_normalization(self, grid32):
        spec = make_spec(modes=((0, 0),), coeffs=(1.0,), g=0.3)
        (e,) = basis_fields(spec, grid32)
        # multiplier (1+0)^((1-g)/2) = 1; any Sobolev order gives norm 1
        for s in (0.0, 0.7, 1.0 - 0.3):
            assert sobolev_norm(e, s, 2.0) == pytest.approx(1.0, abs=1e-12)

    def test_pairwise_orthogonality(self, grid32):
        spec = make_spec()
        basis = basis_fields(spec, grid32)
        s = 1.0 - spec.roughness
        for i in range(len(basis)):
            for j in range(i + 1, len(basis)):
                ip = l2_inner(bessel_multiplier(basis[i], s),
                              bessel_multiplier(basis[j], s))
                assert abs(ip) <= 1e-12

    def test_opposite_modes_give_distinct_elements(self, grid32):
        # j and -j select the cosine and sine profiles of one wavevector
        spec = make_spec(modes=((2, 1), (-2, -1)), coeffs=(1.0, 1.0))
        e_cos, e_sin = basis_fields(spec, grid32)
        assert l2_norm(e_cos - e_sin) > 0.1

    def test_divergence_free_and_curl_closed_form(self, grid32):
        spec = make_spec(modes=((3, 0),), coeffs=(1.0,), g=0.5)
        (e,) = basis_fields(spec, grid32)
        assert divergence_defect(e) <= 1e-13
        # curl of the k-perp cosine mode is -|k| sin(k.x) (same normalization)
        w = curl(e)
        assert l2_norm(w) == pytest.approx(3.0 * l2_norm(e), rel=1e-12)

    def test_mode_outside_band_rejected(self, grid16):
        spec = make_spec(modes=((9, 0),), coeffs=(1.0,))
        with pytest.raises(ValueError, match="grid band"):
            basis_values(spec, grid16)

    @pytest.mark.parametrize("mode", [(4, 0), (-4, 0), (0, 4), (2, -4), (-4, -4)])
    def test_mode_on_the_nyquist_line_rejected(self, mode):
        # +-k coincide there, so e_k could be neither real nor of full amplitude
        grid = SpectralGrid(8)
        spec = make_spec(modes=(mode, (1, 0)), coeffs=(1.0, 1.0))
        dW = sample_increment(1, 0, 0, spec, 0.01)
        for build in (basis_values, scatter_plan, NoiseBasis):
            with pytest.raises(ValueError, match="grid band"):
                build(spec, grid)
        with pytest.raises(ValueError, match="grid band"):
            apply_G_one(zero_vector(grid), dW, spec)

    def test_band_edge_modes_are_real_unit_fields(self, grid16):
        spec = make_spec(modes=((7, 0), (-7, 0), (7, -7), (-7, 7), (0, -7)),
                         coeffs=(1.0,) * 5)
        for (j1, j2), e in zip(spec.mode_indices, basis_fields(spec, grid16)):
            for c in (e.vx.coeffs, e.vy.coeffs):
                assert c[-j1 % 16, -j2 % 16] == np.conj(c[j1 % 16, j2 % 16])
                assert np.count_nonzero(c) <= 2
            assert sobolev_norm(e, 1.0 - spec.roughness, 2.0) == pytest.approx(1.0, abs=1e-12)


    # the band-2 modes of the three benchmark workloads' grids, and a mixed
    # list: the mean mode, column-0 cosines and sines, and band-edge modes
    @pytest.mark.parametrize("modes", [
        tuple(_band_modes(2)),
        ((0, 0), (1, 0), (-1, 0), (3, 0), (0, 1), (0, -2), (2, -3), (-2, 3), (4, 4), (-4, 1)),
    ], ids=["band2", "mixed"])
    @pytest.mark.parametrize("n", [10, 16, 32, 64, 256])
    @pytest.mark.parametrize("length", [2.0 * math.pi, 7.3])
    def test_lattice_written_from_the_plan_matches_the_mirrored_halves(self, modes, n, length):
        # the plan's entries and their conjugate mirrors equal the full lattice
        # of the dense halves, up to the sign of zero imaginary parts
        grid = SpectralGrid(n, length)
        spec = make_spec(modes=modes, coeffs=(0.5,) * len(modes), g=0.3)
        plan = scatter_plan(spec, grid)
        want = lattice(noise._dense_halves(spec, grid,
                                           np.vstack((plan.velocity, plan.vorticity))))
        basis = NoiseBasis(spec, grid)
        assert np.array_equal(basis.vel_stack, want[:, :2])
        assert np.array_equal(basis.vor_stack, want[:, 2])


class TestQuadratureGrid:
    @pytest.mark.parametrize("n", [16, 32, 64, 128, 256])
    def test_band_two_at_q4_takes_ten_points(self, n):
        grid = SpectralGrid(n, 7.3, 0.5)
        modes = tuple(_band_modes(2))
        quad = quadrature_grid(make_spec(modes=modes, coeffs=(0.1,) * len(modes)), grid, 4.0)
        assert quad == SpectralGrid(10, 7.3, 0.5)

    @pytest.mark.parametrize("q", [3.0, 4.5, 1.0])
    def test_odd_or_fractional_q_takes_the_doubled_grid(self, grid16, q):
        assert quadrature_grid(make_spec(), grid16, q).modes_per_dim == 32

    def test_capped_at_the_doubled_grid(self, grid16):
        # qK = 64 >= 2N: no grid up to 2N is exact, and Q stays 2N
        spec = make_spec(modes=((8, 0), (1, 1)), coeffs=(1.0, 1.0))
        assert quadrature_grid(spec, grid16, 8.0).modes_per_dim == 32
        assert quadrature_grid(spec, grid16, 1e308).modes_per_dim == 32

    def test_smallest_even_grid_above_qk(self, grid32):
        spec = make_spec(modes=((3, -1), (0, 2)), coeffs=(1.0, 1.0))
        assert quadrature_grid(spec, grid32, 6.0).modes_per_dim == 20
        assert quadrature_grid(spec, grid32, 2.0).modes_per_dim == 8

    @pytest.mark.parametrize("modes", [((1, 0), (0, 1)), ((0, 0),)])
    def test_never_below_eight(self, grid16, modes):
        spec = make_spec(modes=modes, coeffs=(1.0,) * len(modes))
        assert quadrature_grid(spec, grid16, 2.0).modes_per_dim == 8


def bits(array):
    """An array's float64 words as integers: equal iff equal bit for bit."""
    return np.ascontiguousarray(array).view(np.float64).view(np.uint64)


def coefficient_bits(field):
    if isinstance(field, VectorField):
        return np.stack([bits(field.vx.half), bits(field.vy.half)])
    return bits(field.half)


def lattice_field(grid, lattice):
    """The field of one of NoiseBasis's full lattices: (2, N, N) velocity
    or (N, N) vorticity."""
    if lattice.ndim == 3:
        return VectorField.stack(*(ScalarField.from_lattice(grid, c) for c in lattice))
    return ScalarField.from_lattice(grid, lattice)


# cosine/sine pairs j and -j, the constant mode and modes at the band edge of N = 16
SCATTER_MODES = ((1, 0), (0, 0), (-1, 0), (2, 1), (0, 1), (-2, -1), (0, -1), (7, -3),
                 (-7, 3), (3, 7), (1, 1))


class TestScatterAgainstDenseOracle:
    @pytest.mark.parametrize("n", [16, 64])
    @pytest.mark.parametrize("level", [math.inf, 1.0, 10.0, 100.0])
    @pytest.mark.parametrize("sigma", ["constant_one", "rational_square"])
    def test_bit_for_bit(self, n, level, sigma):
        grid = SpectralGrid(n)
        pivot = _single_mode_vector(grid, (1, 0), 3.0) if sigma == "rational_square" else None
        coeffs = tuple(0.1 + 0.13 * i for i in range(len(SCATTER_MODES)))
        spec = make_spec(modes=SCATTER_MODES, coeffs=coeffs, sigma=sigma, pivot=pivot,
                         hy=level)
        v = random_divfree_field(grid, np.random.default_rng(n))
        for step in range(3):
            dW = sample_increment(5, 1, step, spec, 0.01)
            got = scattered(apply_G_one(v, dW, spec), spec, grid)
            want = dense_apply_G(v, dW, spec)
            for a, b in zip(got, want):
                assert np.array_equal(coefficient_bits(a), coefficient_bits(b))

    def test_returns_the_touched_coefficients_only(self, grid16):
        spec = make_spec(modes=SCATTER_MODES, coeffs=(1.0,) * len(SCATTER_MODES), hy=10.0)
        plan = scatter_plan(spec, grid16)
        out = apply_G_one(zero_vector(grid16), sample_increment(1, 0, 0, spec, 0.01), spec)
        # rows vx, vy and the vorticity, one column per touched coefficient of
        # the half: pairs j, -j share one, or two on column 0
        assert out.shape == (3, len(plan.touched)) == (3, 8)
        assert out.dtype == np.complex128

    def test_plan_is_shared_and_read_only(self, grid16):
        spec = make_spec(modes=SCATTER_MODES, coeffs=(1.0,) * len(SCATTER_MODES))
        plan = scatter_plan(spec, grid16)
        # like a basis, a plan reads only the mode list and the roughness
        assert scatter_plan(make_spec(modes=SCATTER_MODES, coeffs=(0.5,) * 11,
                                      sigma="zero", hy=2.0), grid16) is plan
        # one entry per mode, two for the modes (1, 0) and (-1, 0) on column
        # 0, each mode's adjacent
        assert plan.mode.tolist() == sorted(plan.mode.tolist())
        assert len(plan.slot) == len(SCATTER_MODES) + 2
        # each entry names its coefficient by its position among the sorted,
        # distinct touched ones, all of which some entry names
        assert plan.touched.tolist() == sorted(set(plan.touched.tolist()))
        assert sorted(set(plan.slot.tolist())) == list(range(len(plan.touched)))
        for name, array in vars(plan).items():
            assert not array.flags.writeable, name
        with pytest.raises(ValueError):
            plan.velocity[0, 0] = 0.0

    def test_a_step_builds_no_dense_basis(self, grid32, monkeypatch):
        builds = []
        monkeypatch.setattr(NoiseBasis, "__init__", lambda *a, **k: builds.append(a))
        spec = make_spec(modes=SCATTER_MODES[:4], coeffs=(1.0,) * 4, hy=10.0)
        dW = sample_increment(1, 0, 0, spec, 0.01)
        apply_G_one(zero_vector(grid32), dW, spec)
        assert builds == []

    @pytest.mark.parametrize("level", [math.inf, 3.0])
    def test_check_time_fields_match_the_stacked_basis(self, grid16, level):
        h = _single_mode_vector(grid16, (1, 0), 3.0)
        coeffs = tuple(0.1 + 0.13 * i for i in range(len(SCATTER_MODES)))
        spec = make_spec(modes=SCATTER_MODES, coeffs=coeffs, sigma="rational_square",
                         pivot=h, hy=level)
        v = random_divfree_field(grid16, np.random.default_rng(2))
        fields = basis_fields(spec, grid16)
        # the batched values are to_physical of the stacked fields, bit for bit
        values = basis_values(spec, grid16)
        assert values.shape == (len(fields), 2, 16, 16)
        for got, e in zip(values, fields):
            for a, b in zip(got, to_physical(e)):
                assert np.array_equal(bits(a), bits(b))
        # a weight times e_k is R_n[c_k sigma(v) e_k] over the whole grid, and
        # the curl of e_k is the stacked vorticity field
        sig = sigma_of(v, spec)
        weights = mode_weights(spec, v)
        assert len(weights) == len(fields)
        for w, c, e, vorticity in zip(weights, coeffs, fields, NoiseBasis(spec, grid16).vorticity):
            want = hille_yosida(e * (c * sig), level)
            assert l2_norm(e * w - want) <= 1e-15 * l2_norm(want)
            b = lattice_field(grid16, vorticity)
            assert l2_norm(curl(e) - b) <= 1e-14 * max(1.0, l2_norm(b))

    @pytest.mark.parametrize("length", [2.0 * math.pi, 3.0])
    def test_l2_sum_closed_form_matches_the_dense_sum(self, length):
        grid = SpectralGrid(16, length)
        rng = np.random.default_rng(5)
        for g in (0.2, 0.5, 0.9):
            spec = make_spec(modes=SCATTER_MODES, coeffs=tuple(rng.uniform(0.05, 1.0, 11)), g=g)
            # L^2 sum_k |e(k)|^2 over the full lattice
            dense = sum(c * c * length**2 * np.sum(np.abs(e) ** 2)
                        for c, e in zip(spec.coefficients, NoiseBasis(spec, grid).velocity))
            assert basis_l2_sq_sum(spec, grid) == pytest.approx(dense, rel=1e-14)

    def test_check_time_code_builds_no_stacked_basis(self, grid16, monkeypatch):
        from vortex.harness import simulate_bdg_sups

        def refused(*args, **kwargs):
            raise AssertionError("a stacked NoiseBasis was built")

        monkeypatch.setattr(NoiseBasis, "__init__", refused)
        spec = make_spec(modes=SCATTER_MODES[:4], coeffs=(0.5,) * 4, hy=10.0)
        v = random_divfree_field(grid16, np.random.default_rng(1))
        assert operator_norms(v, spec, 0.0, 4.0)["hs"] > 0.0
        assert basis_l2_sq_sum(spec, grid16) > 0.0
        assert simulate_bdg_sups(spec, v, 4.0, 2, 1, 0.02, 0.01).shape == (2, 2)

    def test_trajectory_matches_the_dense_oracle(self, grid32, monkeypatch):
        from vortex import noise
        from vortex.integrator import SolverConfig, run_trajectory

        h = _single_mode_vector(grid32, (1, 0), 3.0)
        spec = make_spec(modes=SCATTER_MODES[:10], coeffs=(0.4,) * 10,
                         sigma="rational_square", pivot=h, hy=10.0)
        cfg = SolverConfig(dt=0.005, t_end=0.1)  # 20 steps
        xi0 = curl(random_divfree_field(grid32, np.random.default_rng(3)))

        def run():
            states = []
            res = run_trajectory(None, xi0, spec, cfg, seed=4, path_index=2,
                                 observer=states.append)
            return res, states[::5]  # the states after 0, 5, 10, 15 and 20 steps

        def dense_at_touched(sigma, gaussians, dt, spec, grid):
            # the dense oracle of each row read at the coefficients the step adds to
            touched = scatter_plan(spec, grid).touched
            rows = [dense_noise(s, g, dt, spec, grid) for s, g in zip(sigma, gaussians)]
            return np.stack([[f.half.reshape(-1)[touched] for f in (u.vx, u.vy, w)]
                             for u, w in rows])

        sparse, sparse_states = run()
        monkeypatch.setattr(noise, "apply_G", dense_at_touched)
        dense, dense_states = run()
        assert sparse.stats.status == dense.stats.status == "completed"
        for name in sparse.stats.FUNCTIONALS:
            assert np.array_equal(bits(np.float64(sparse.stats.functional(name))),
                                  bits(np.float64(dense.stats.functional(name))))
        assert len(sparse_states) == len(dense_states) == 5
        for a, b in zip(sparse_states, dense_states):
            assert a.t == b.t
            for fa, fb in ((a.v, b.v), (a.xi, b.xi), (a.zeta, b.zeta), (a.beta, b.beta)):
                assert np.array_equal(coefficient_bits(fa), coefficient_bits(fb))


class TestOneModeTable:
    """Each mode's |k|^2 on the plan is the grid's at its coefficients, so the
    per-mode numbers of the check-time code (`mode_weights`, `_basis_l2_sq`)
    are those of the increment `apply_G` scatters."""

    BAND4 = tuple(_band_modes(4))  # 80 modes, band 4 at N = 32

    @pytest.mark.parametrize("length", [2.0 * math.pi, 7.3, 0.01])
    def test_each_mode_ksq_is_the_grid_ksq_at_its_entries(self, length):
        grid = SpectralGrid(32, length)
        plan = scatter_plan(make_spec(modes=self.BAND4, coeffs=(1.0,) * 80, hy=10.0), grid)
        assert len(plan.ksq) == 80
        assert np.array_equal(bits(plan.ksq[plan.mode]),
                              bits(grid.ksq.ravel()[plan.touched[plan.slot]]))

    @pytest.mark.parametrize("length", [2.0 * math.pi, 7.3, 0.01])
    def test_mode_weights_apply_the_factor_apply_G_applies(self, length):
        grid = SpectralGrid(32, length)
        # unit coefficients and sigma: each weight is the mode's factor n/(n+|k|^2)
        spec = make_spec(modes=self.BAND4, coeffs=(1.0,) * 80, hy=10.0)
        unsmoothed = spec.with_hy_level(math.inf)
        plan, v = scatter_plan(spec, grid), zero_vector(grid)
        factors = mode_weights(spec, v)
        differ = []
        for m in range(spec.n_modes):
            dW = WienerIncrement(1.0, np.eye(spec.n_modes)[m])  # the mode alone
            slots = plan.slot[plan.mode == m]
            got = apply_G_one(v, dW, spec)[:, slots]
            if not np.array_equal(got, apply_G_one(v, dW, unsmoothed)[:, slots] * factors[m]):
                differ.append(self.BAND4[m])
        assert differ == []

    @pytest.mark.parametrize("length", [2.0 * math.pi, 7.3])
    @pytest.mark.parametrize("level", [math.inf, 10.0])
    @pytest.mark.parametrize("sigma", ["constant_one", "rational_square"])
    def test_closed_form_compensator_is_the_scattered_increment_norm(self, length, level,
                                                                     sigma):
        # ||G(v) dW||^2 = sum_k dt w_k^2 g_k^2 ||e_k||^2, the e_k orthogonal
        grid = SpectralGrid(32, length)
        pivot = _single_mode_vector(grid, (1, 0), 3.0) if sigma == "rational_square" else None
        coeffs = tuple(0.5 / (1.0 + j1 * j1 + j2 * j2) for j1, j2 in self.BAND4)
        spec = make_spec(modes=self.BAND4, coeffs=coeffs, sigma=sigma, pivot=pivot, hy=level)
        v = random_divfree_field(grid, np.random.default_rng(8))
        assert sigma_of(v, spec) > 0.0
        for step in range(3):
            dW = sample_increment(6, 0, step, spec, 0.01)
            closed = float(np.sum(dW.dt * mode_weights(spec, v) ** 2 * dW.gaussians ** 2
                                  * _basis_l2_sq(spec, grid)))
            velocity, _ = scattered(apply_G_one(v, dW, spec), spec, grid)
            assert closed == pytest.approx(l2_norm(velocity) ** 2, rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("length", [2.0 * math.pi, 7.3])
    @pytest.mark.parametrize("level", [math.inf, 10.0])
    def test_hs_constant_is_the_scattered_difference_norm(self, length, level):
        # ||G(v1) - G(v2)||^2_HS = (sigma(v1) - sigma(v2))^2 S: the sum over
        # each mode's unit increment of the scattered difference's norm
        grid = SpectralGrid(32, length)
        pivot = _single_mode_vector(grid, (1, 0), 3.0)
        coeffs = tuple(0.5 / (1.0 + j1 * j1 + j2 * j2) for j1, j2 in self.BAND4)
        spec = make_spec(modes=self.BAND4, coeffs=coeffs, sigma="rational_square",
                         pivot=pivot, hy=level)
        rng = np.random.default_rng(8)
        v1, v2 = random_divfree_field(grid, rng), random_divfree_field(grid, rng)
        rise = sigma_of(v1, spec) - sigma_of(v2, spec)
        assert rise != 0.0
        dt, total = 0.01, 0.0
        for m in range(spec.n_modes):
            dW = WienerIncrement(dt, np.eye(spec.n_modes)[m])
            gap, _ = scattered(apply_G_one(v1, dW, spec) - apply_G_one(v2, dW, spec), spec, grid)
            total += l2_norm(gap) ** 2 / dt
        closed = rise * rise * basis_l2_sq_sum(spec, grid)
        assert closed == pytest.approx(total, rel=1e-13, abs=0.0)


class TestSigma:
    """`sigma_values` of stacked velocities, judged by the one-field
    `sigma_of` on floats."""

    def test_trivial_kinds(self, grid16):
        v = np.zeros((3, 2, 16, 9), dtype=np.complex128)
        assert sigma_values(v, make_spec(sigma="zero")).tolist() == [0.0] * 3
        assert sigma_values(v, make_spec(sigma="constant_one")).tolist() == [1.0] * 3

    def test_rational_square_values(self, grid32):
        h = _single_mode_vector(grid32, (1, 0), 1.0)
        spec = make_spec(sigma="rational_square", pivot=h)
        assert sigma_values(zero_vector(grid32).half, spec) == 0.0
        # <h, h> = 1, so sigma = 1/2
        assert sigma_values(h.half, spec) == pytest.approx(0.5, rel=1e-12)

    @pytest.mark.parametrize("n", [16, 32, 256])
    def test_stacked_rows_have_the_one_field_bits(self, n, rng):
        grid = SpectralGrid(n)
        spec = make_spec(sigma="rational_square", pivot=random_divfree_field(grid, rng))
        fields = [random_divfree_field(grid, rng, amplitude=a) for a in (0.3, 1.0, 5.0, 0.0)]
        got = sigma_values(np.stack([v.half for v in fields]).reshape(2, 2, 2, n, n // 2 + 1),
                           spec)
        assert got.shape == (2, 2)
        want = np.array([sigma_of(v, spec) for v in fields]).reshape(2, 2)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_range(self, grid32, rng):
        h = _single_mode_vector(grid32, (1, 0), 1.0)
        spec = make_spec(sigma="rational_square", pivot=h)
        for _ in range(25):
            v = random_divfree_field(grid32, rng, amplitude=rng.uniform(0.0, 50.0))
            val = sigma_values(v.half, spec)
            assert 0.0 <= val < 1.0

    def test_empirical_lipschitz_below_analytic(self, grid32, rng):
        h = _single_mode_vector(grid32, (1, 0), 1.3)
        spec = make_spec(sigma="rational_square", pivot=h)
        analytic = sigma_lipschitz_bound(spec)
        assert analytic == pytest.approx(3.0 * math.sqrt(3.0) / 8.0 * 1.3, rel=1e-12)
        worst = 0.0
        for _ in range(200):
            v1 = random_divfree_field(grid32, rng, amplitude=rng.uniform(0.05, 4.0))
            v2 = random_divfree_field(grid32, rng, amplitude=rng.uniform(0.05, 4.0))
            gap = l2_norm(v1 - v2)
            if gap > 0:
                s1, s2 = sigma_values(np.stack((v1.half, v2.half)), spec)
                worst = max(worst, abs(s1 - s2) / gap)
        assert worst <= analytic * (1 + 1e-9)


class TestHilleYosida:
    """R_n as the program applies it: the check-time mode weights and the
    increment of apply_G."""

    def test_identity_at_infinity(self, grid16, rng):
        spec = make_spec()
        v = random_divfree_field(grid16, rng)
        assert np.array_equal(mode_weights(spec, v), np.asarray(spec.coefficients))

    def test_single_mode_factor(self):
        # |k|^2 = 3 via L = 2 pi / sqrt(3); n = 1 gives factor 1/4
        g = SpectralGrid(16, domain_length=2.0 * np.pi / math.sqrt(3.0))
        spec = make_spec(modes=((1, 0),), coeffs=(0.5,), hy=1)
        assert mode_weights(spec, zero_vector(g))[0] == pytest.approx(0.125, rel=1e-12)

    def test_zero_mode_unchanged(self, grid16):
        for n in (1, 10, 1000):
            spec = make_spec(modes=((0, 0),), coeffs=(2.5,), hy=n)
            assert mode_weights(spec, zero_vector(grid16))[0] == pytest.approx(2.5)

    @staticmethod
    def increment(spec, level, v, dW):
        return scattered(apply_G_one(v, dW, spec.with_hy_level(level)), spec, v.grid)[0]

    def test_monotone_convergence_to_identity(self, grid32, rng):
        spec = make_spec()
        v = random_divfree_field(grid32, rng)
        dW = sample_increment(4, 0, 0, spec, 0.01)
        f = self.increment(spec, math.inf, v, dW)
        errs = [l2_norm(self.increment(spec, n, v, dW) - f) for n in (1, 10, 100, 1000)]
        assert all(a > b for a, b in zip(errs, errs[1:]))
        assert errs[-1] < 1e-2 * l2_norm(f)

    def test_contraction_in_sobolev_norms(self, grid32, rng):
        spec = make_spec()
        v = random_divfree_field(grid32, rng)
        dW = sample_increment(4, 0, 1, spec, 0.01)
        f = self.increment(spec, math.inf, v, dW)
        for n in (1, 5, 50):
            out = self.increment(spec, n, v, dW)
            for s in (-1.0, 0.0, 1.0):
                assert sobolev_norm(out, s, 2.0) <= sobolev_norm(f, s, 2.0) * (1 + 1e-12)

    def test_invalid_level(self):
        with pytest.raises(ValueError, match="hy_level"):
            make_spec().with_hy_level(-3)


class TestApplyG:
    def test_zero_sigma(self, grid32):
        spec = make_spec(sigma="zero")
        dW = sample_increment(1, 0, 0, spec, 0.01)
        out = apply_G_one(zero_vector(grid32), dW, spec)
        assert not np.any(out)

    def test_single_mode_exact(self, grid32):
        spec = make_spec(modes=((1, 0),), coeffs=(0.7,))
        (e,) = basis_fields(spec, grid32)
        dW = WienerIncrement(0.04, np.array([1.0]))
        out, _ = scattered(apply_G_one(zero_vector(grid32), dW, spec), spec, grid32)
        expected = e * (0.7 * math.sqrt(0.04))
        assert l2_norm(out - expected) <= 1e-14

    def test_vorticity_output_is_curl(self, grid32, rng):
        spec = make_spec()
        v = random_divfree_field(grid32, rng)
        dW = sample_increment(3, 1, 4, spec, 0.01)
        vel, vor = scattered(apply_G_one(v, dW, spec), spec, grid32)
        assert l2_norm(curl(vel) - vor) <= 1e-13

    def test_length_mismatch(self, grid32):
        spec = make_spec()
        dW = WienerIncrement(0.01, np.zeros(2))
        with pytest.raises(ValueError, match="draws"):
            apply_G_one(zero_vector(grid32), dW, spec)

    def test_mode_variance_oracle(self, grid32):
        # empirical Var of the basis projection over 2000 increments must sit
        # within 3 standard errors of c^2 sigma^2 dt (per mode)
        dt = 0.02
        spec = make_spec(modes=((1, 0), (2, 1)), coeffs=(0.6, 0.3))
        v = zero_vector(grid32)
        s = 1.0 - spec.roughness
        smoothed = [bessel_multiplier(e, s) for e in basis_fields(spec, grid32)]
        n_draws = 2000
        proj = np.zeros((n_draws, spec.n_modes))
        for i in range(n_draws):
            dW = sample_increment(99, 0, i, spec, dt)
            out, _ = scattered(apply_G_one(v, dW, spec), spec, grid32)
            out_s = bessel_multiplier(out, s)
            proj[i] = [l2_inner(out_s, e) for e in smoothed]
        for k, c in enumerate(spec.coefficients):
            target = c * c * dt  # sigma = 1
            emp = np.var(proj[:, k], ddof=1)
            stderr = target * math.sqrt(2.0 / (n_draws - 1))
            assert abs(emp - target) <= 3.0 * stderr

    def test_hy_variance_ratio_oracle(self, grid32):
        # per-mode noise variance scales by (n/(n+|k|^2))^2 between levels
        dt = 0.05
        level = 2.0
        ksq = 1.0
        spec_inf = make_spec(modes=((1, 0),), coeffs=(0.5,))
        spec_n = spec_inf.with_hy_level(level)
        v = zero_vector(grid32)
        ratio_expected = (level / (level + ksq)) ** 2
        samples_inf, samples_n = [], []
        for i in range(800):
            dW = sample_increment(5, 0, i, spec_inf, dt)
            for spec, samples in ((spec_inf, samples_inf), (spec_n, samples_n)):
                velocity, _ = scattered(apply_G_one(v, dW, spec), spec, grid32)
                samples.append(l2_norm(velocity) ** 2)
        ratio = np.mean(samples_n) / np.mean(samples_inf)
        assert ratio == pytest.approx(ratio_expected, rel=1e-10)


class TestOperatorNorms:
    def test_single_mode_hs(self, grid32):
        spec = make_spec(modes=((1, 0),), coeffs=(0.45,))
        v = zero_vector(grid32)
        out = operator_norms(v, spec, 1.0 - spec.roughness, 2.0)
        assert out["hs"] == pytest.approx(0.45, rel=1e-12)

    def test_zero_covariance(self, grid32):
        spec = make_spec(sigma="zero")
        out = operator_norms(zero_vector(grid32), spec, 0.5, 4.0)
        assert out["hs"] == 0.0
        assert out["radonifying"] == 0.0

    def test_q2_agreement(self, grid32, rng):
        for _ in range(10):
            g = rng.uniform(0.2, 0.8)
            spec = make_spec(g=g, coeffs=tuple(rng.uniform(0.05, 0.5, size=4)))
            v = random_divfree_field(grid32, rng)
            s = rng.uniform(-1.0, 1.0)
            out = operator_norms(v, spec, s, 2.0)
            assert abs(out["hs"] - out["radonifying"]) <= 1e-10 * out["hs"]

    def test_curl_noise_domination(self, grid32, rng):
        # HS norm of the vorticity noise into W^{-g,2} is dominated by the
        # velocity noise into H^{1-g,2}
        spec = make_spec()
        g = spec.roughness
        fields = basis_fields(spec, grid32)
        for _ in range(50):
            v = random_divfree_field(grid32, rng, amplitude=rng.uniform(0.1, 2.0))
            hv = operator_norms(v, spec, 1.0 - g, 2.0)["hs"]
            hw = math.sqrt(sum(sobolev_norm_spectral(curl(e * w), -g) ** 2
                               for w, e in zip(mode_weights(spec, v), fields)))
            assert hw <= hv * (1 + 1e-12)

    @pytest.mark.parametrize("level", [math.inf, 5.0])
    def test_closed_form_matches_the_dense_sums(self, grid32, level):
        # the images G_n(v) h_k = R_n[c_k sigma(v) e_k] of the dense basis:
        # their Parseval sum gives hs, their square function radonifying
        h = _single_mode_vector(grid32, (1, 0), 1.0)
        coeffs = tuple(0.1 + 0.13 * i for i in range(len(SCATTER_MODES)))
        spec = make_spec(modes=SCATTER_MODES, coeffs=coeffs, g=0.3, sigma="rational_square",
                         pivot=h, hy=level)
        v = random_divfree_field(grid32, np.random.default_rng(8), amplitude=2.0)
        sig = sigma_of(v, spec)
        images = [hille_yosida(e * (c * sig), level)
                  for c, e in zip(coeffs, basis_fields(spec, grid32))]
        for s in (0.0, 1.0 - spec.roughness, 1.0):
            out = operator_norms(v, spec, s, 4.0)
            hs = math.sqrt(sum(sobolev_norm_spectral(f, s) ** 2 for f in images))
            assert out["hs"] == pytest.approx(hs, rel=1e-13)
            square_fn = sum(px * px + py * py
                            for px, py in (to_physical(bessel_multiplier(f, s)) for f in images))
            radonifying = (np.sum(square_fn ** 2.0) * grid32.cell_area) ** 0.25
            assert out["radonifying"] == pytest.approx(radonifying, rel=1e-13)

    def test_uniform_bound_and_hy_contraction(self, grid32, rng):
        h = _single_mode_vector(grid32, (1, 0), 1.0)
        spec = make_spec(sigma="rational_square", pivot=h)
        spec_n = spec.with_hy_level(5.0)
        sup_norm = 0.0
        for _ in range(50):
            v = random_divfree_field(grid32, rng, amplitude=rng.uniform(0.1, 3.0))
            full = operator_norms(v, spec, 1.0, 4.0)["radonifying"]
            smoothed = operator_norms(v, spec_n, 1.0, 4.0)["radonifying"]
            sup_norm = max(sup_norm, full)
            assert smoothed <= full * (1 + 1e-12)
        assert np.isfinite(sup_norm)

    def test_q_inf_unsupported(self, grid32):
        with pytest.raises(ValueError):
            operator_norms(zero_vector(grid32), make_spec(), 0.0, np.inf)


class TestIncrements:
    def test_determinism(self):
        spec = make_spec()
        a = sample_increment(123, 4, 56, spec, 0.01)
        b = sample_increment(123, 4, 56, spec, 0.01)
        assert np.array_equal(a.gaussians, b.gaussians)

    def test_distinct_keys_differ(self):
        spec = make_spec()
        base = sample_increment(1, 2, 3, spec, 0.01).gaussians
        for seed, path, step in ((2, 2, 3), (1, 3, 3), (1, 2, 4)):
            other = sample_increment(seed, path, step, spec, 0.01).gaussians
            assert not np.array_equal(base, other)

    @staticmethod
    def fresh(seed, path, step, n):
        # the generator sample_increment once built per (seed, path, step)
        key = np.array([seed, path], dtype=np.uint64)
        counter = np.array([0, 0, step, 0], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key, counter=counter)).standard_normal(n)

    def test_a_fresh_philox_draw(self):
        # draws of different lengths in turn: no buffered bits carry over
        for spec in (make_spec(), make_spec(modes=((1, 0),), coeffs=(1.0,)), make_spec()):
            for seed, path, step in ((0, 0, 0), (2026, 3, 7), (2**63 - 1, 0x494E4954, 10**6)):
                got = sample_increment(seed, path, step, spec, 0.01).gaussians
                assert got.tobytes() == self.fresh(seed, path, step, spec.n_modes).tobytes()

    @pytest.mark.parametrize("band", [1, 2, 4, 8])
    def test_a_band_draws_the_prefix_of_the_doubled_band(self, band):
        # the default mode list runs in shells, so band K's modes open band
        # 2K's, and each keeps its Gaussian when the band doubles
        small, large = _band_modes(band), _band_modes(2 * band)
        assert large[: len(small)] == small
        specs = [make_spec(modes=m, coeffs=(1.0,) * len(m)) for m in (small, large)]
        for step in (0, 7):
            got, wider = (sample_increment(2026, 3, step, s, 0.01).gaussians for s in specs)
            assert got.tobytes() == wider[: len(small)].tobytes()

    def test_moments(self):
        spec = make_spec(modes=((1, 0),), coeffs=(1.0,))
        draws = np.array([
            sample_increment(1, 0, i, spec, 1.0).gaussians[0] for i in range(10000)
        ])
        assert abs(draws.mean()) <= 3.0 / math.sqrt(10000)
        assert abs(draws.var(ddof=1) - 1.0) <= 0.05

    def test_invalid_dt(self):
        with pytest.raises(ValueError):
            WienerIncrement(0.0, np.zeros(3))
