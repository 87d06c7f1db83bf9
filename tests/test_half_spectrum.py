"""Half-spectrum storage: every reduction over the (N, N/2+1) half equals
its sum over the full Hermitian lattice, the full lattice is only a derived
view that nothing in a step reads, and the noise touches only the half."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vortex import integrator
from vortex.config import _single_mode_vector
from vortex.harness import HolderProbe, gronwall_pairs, sweep
from vortex.integrator import SolverConfig, run_trajectory
from vortex.noise import (
    CovarianceSpec,
    NoiseBasis,
    apply_G,
    sample_increment,
    scatter_plan,
    sigma_values,
)
from vortex.operators import (
    biot_savart,
    curl,
    grad_norm_l2,
    leray_project,
    random_divfree_field,
    random_scalar_field,
)
from vortex.spectral import (
    TWO_THIRDS,
    Field,
    ScalarField,
    SpectralGrid,
    VectorField,
    abs_power,
    bessel_multiplier,
    dealias,
    gradient_weight,
    half_sums,
    l2_inner,
    l2_norm,
    lq_norm,
    lq_norms,
    physical_values,
    regrid,
    require_real,
    sobolev_norm_spectral,
    sobolev_norms,
    to_physical,
    to_spectral,
)

# even N from 8 to 66, N = 2 (mod 4) included; dealias fractions in (0, 2/3]
grid_sizes = st.integers(4, 33).map(lambda m: 2 * m)
vector_grid_sizes = st.integers(4, 32).map(lambda m: 2 * m)  # even N from 8 to 64
fractions = st.floats(min_value=1e-3, max_value=TWO_THIRDS)
seeds = st.integers(0, 2**32 - 1)
PROPERTY = settings(max_examples=40, deadline=None)


def hermitian_lattice(n: int, rng) -> np.ndarray:
    """A random (N, N) lattice with coeff(-k) = conj(coeff(k)) exactly."""
    c = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    flip = -np.arange(n) % n
    return 0.5 * (c + np.conj(c[np.ix_(flip, flip)]))


def lattice_ksq(grid: SpectralGrid) -> np.ndarray:
    """|k|^2 on the full lattice, Nyquist labelled +N/2."""
    k = (2.0 * np.pi / grid.domain_length) * grid.mode_numbers.astype(float)
    return k[:, None] ** 2 + k[None, :] ** 2


def bits(array):
    return np.ascontiguousarray(array).view(np.uint64)


class TestReductionsOverTheHalf:
    @PROPERTY
    @given(grid_sizes, fractions, seeds)
    def test_match_the_full_lattice_sums(self, n, fraction, seed):
        grid = SpectralGrid(n, dealias_fraction=fraction)
        rng = np.random.default_rng(seed)
        a, b = hermitian_lattice(n, rng), hermitian_lattice(n, rng)
        f, g = ScalarField.from_lattice(grid, a), ScalarField.from_lattice(grid, b)
        length, ksq = grid.domain_length, lattice_ksq(grid)

        def close(got, want, scale=None):
            assert abs(got - want) <= 1e-13 * (abs(want) if scale is None else scale)

        close(l2_norm(f), math.sqrt(np.sum(np.abs(a) ** 2)) * length)
        # an inner product may cancel; its scale is the sum of |a||b|
        close(l2_inner(f, g), np.sum(a * np.conj(b)).real * length**2,
              np.sum(np.abs(a) * np.abs(b)) * length**2)
        for s in (-1.0, 0.0, 0.5, 1.0):
            close(sobolev_norm_spectral(f, s),
                  math.sqrt(np.sum((1.0 + ksq) ** s * np.abs(a) ** 2)) * length)
        close(grad_norm_l2(f), math.sqrt(np.sum(ksq * np.abs(a) ** 2)) * length)
        close(grad_norm_l2(VectorField.stack(f, g)),
              math.sqrt(np.sum(ksq * (np.abs(a) ** 2 + np.abs(b) ** 2))) * length)

    @PROPERTY
    @given(grid_sizes, seeds)
    def test_the_lattice_round_trip_keeps_the_half_bit_for_bit(self, n, seed):
        grid = SpectralGrid(n)
        rng = np.random.default_rng(seed)
        for f in (to_spectral(rng.standard_normal((n, n)), grid),
                  ScalarField.from_lattice(grid, hermitian_lattice(n, rng))):
            assert np.array_equal(bits(ScalarField.from_lattice(grid, f.coeffs).half),
                                  bits(f.half))

    @PROPERTY
    @given(grid_sizes, seeds)
    def test_to_physical_is_the_irfft2_of_the_first_half_columns(self, n, seed):
        grid = SpectralGrid(n)
        f = ScalarField.from_lattice(grid, hermitian_lattice(n, np.random.default_rng(seed)))
        want = np.fft.irfft2(f.coeffs[:, : n // 2 + 1], s=(n, n))
        want *= n * n
        assert np.array_equal(bits(to_physical(f)), bits(want))

    @PROPERTY
    @given(grid_sizes, fractions, st.integers(1, 3), seeds)
    def test_regrid_commutes_with_the_lattice(self, n, fraction, factor, seed):
        grid = SpectralGrid(n, dealias_fraction=fraction)
        fine = SpectralGrid(n * factor, dealias_fraction=fraction)
        f = dealias(ScalarField.from_lattice(grid, hermitian_lattice(
            n, np.random.default_rng(seed))))
        want = np.zeros((fine.modes_per_dim,) * 2, dtype=complex)
        idx = grid.mode_numbers % fine.modes_per_dim
        want[np.ix_(idx, idx)] = f.coeffs
        assert np.array_equal(regrid(f, fine).coeffs, want)


class TestStackedStorage:
    """A vector is its two components' halves in one (2, N, N/2+1) array;
    every operation on it equals the per-component one bit for bit, and
    each vector norm keeps the convention it had over two components."""

    @staticmethod
    def fields(n, fraction, seed):
        grid = SpectralGrid(n, dealias_fraction=fraction)
        rng = np.random.default_rng(seed)
        a, b, c, d = (ScalarField.from_lattice(grid, hermitian_lattice(n, rng)) for _ in range(4))
        return grid, a, b, c, d

    @PROPERTY
    @given(vector_grid_sizes, fractions, seeds)
    def test_operations_act_per_component(self, n, fraction, seed):
        grid, a, b, _, _ = self.fields(n, fraction, seed)
        v = VectorField.stack(a, b)
        assert v.half.shape == (2, n, n // 2 + 1) and not v.half.flags.writeable
        assert np.array_equal(bits(v.vx.half), bits(a.half))
        assert np.array_equal(bits(v.vy.half), bits(b.half))

        def same(got, *want):
            assert np.array_equal(bits(got), bits(np.stack(want)))

        same(to_physical(v), to_physical(a), to_physical(b))
        same(dealias(v).half, dealias(a).half, dealias(b).half)
        for s in (-1.0, 0.5, 2.0):
            same(bessel_multiplier(v, s).half, bessel_multiplier(a, s).half,
                 bessel_multiplier(b, s).half)
        fine = SpectralGrid(2 * n, dealias_fraction=fraction)
        same(regrid(dealias(v), fine).half, regrid(dealias(a), fine).half,
             regrid(dealias(b), fine).half)
        # curl and the Leray projection, as written over two components
        assert np.array_equal(bits(curl(v).half),
                              bits(1j * (grid.diff_k[0] * b.half - grid.diff_k[1] * a.half)))
        kdotu = (grid.k[0] * a.half + grid.k[1] * b.half) * grid.inv_ksq
        same(leray_project(v).half, a.half - grid.k[0] * kdotu, b.half - grid.k[1] * kdotu)
        w = gradient_weight(grid)
        sums = [float(half_sums(f.half, f.half, w)) for f in (a, b)]
        assert grad_norm_l2(v) == float(np.sqrt(sums[0] + sums[1]) * grid.domain_length)
        assert grad_norm_l2(a) == float(np.sqrt(sums[0]) * grid.domain_length)

    @PROPERTY
    @given(vector_grid_sizes, fractions, seeds)
    def test_norms_keep_the_component_conventions(self, n, fraction, seed):
        grid, a, b, c, d = self.fields(n, fraction, seed)
        v, u = VectorField.stack(a, b), VectorField.stack(c, d)
        # the inner product sums the component products
        assert l2_inner(v, u) == l2_inner(a, c) + l2_inner(b, d)
        # the Sobolev norms take the hypot of the component norms
        for s in (-1.0, 0.0, 1.0):
            assert sobolev_norm_spectral(v, s) == float(np.hypot(
                sobolev_norm_spectral(a, s), sobolev_norm_spectral(b, s)))
        # L^q sums the component sums, and at q = inf the component maxima
        px, py = to_physical(a), to_physical(b)
        for q in (2.0, 3.0, 4.0):
            total = np.sum(abs_power(px, q)) + np.sum(abs_power(py, q))
            assert lq_norm(v, q) == float((total * grid.cell_area) ** (1.0 / q))
        assert lq_norm(v, np.inf) == float(np.max(np.abs(px)) + np.max(np.abs(py)))

    @PROPERTY
    @given(vector_grid_sizes, st.integers(1, 4), seeds)
    def test_a_stack_is_transformed_and_normed_field_by_field(self, n, count, seed):
        # (count, 2, N, N/2+1) Hermitian halves: the stacked transform and
        # norms equal those of each field, bit for bit
        grid = SpectralGrid(n)
        rng = np.random.default_rng(seed)
        stack = np.stack([[hermitian_lattice(n, rng)[:, : n // 2 + 1] for _ in range(2)]
                          for _ in range(count)])
        values = physical_values(stack)
        assert values.shape == (count, 2, n, n)
        for s in (-1.0, 0.0, 1.0):
            norms = sobolev_norms(stack, grid, s)
            assert norms.shape == (count,)
            for i, half in enumerate(stack):
                v = VectorField(grid, half)
                assert np.array_equal(bits(values[i]), bits(to_physical(v)))
                assert norms[i] == sobolev_norm_spectral(v, s)
                assert sobolev_norms(half[:1], grid, s) == sobolev_norm_spectral(v.vx, s)
        assert np.array_equal(sobolev_norms(stack, grid),
                              [l2_norm(VectorField(grid, half)) for half in stack])

    @pytest.mark.parametrize("components", [1, 2])
    def test_stacked_lq_norms_take_each_root_on_its_scalar(self, components):
        # numpy's vectorised power differs from the scalar pow in the last bit
        # on about 5 % of values, so a root over the stack would not keep the
        # bits of the fields taken one at a time
        grid = SpectralGrid(16)
        rng = np.random.default_rng(4)
        stack = np.stack([[hermitian_lattice(16, rng)[:, :9] * rng.uniform(0.1, 10.0)
                           for _ in range(components)] for _ in range(200)])
        values = physical_values(stack)
        fields = [ScalarField(grid, h[0]) if components == 1 else VectorField(grid, h)
                  for h in stack]
        for q in (3.0, 4.0, np.inf):
            norms = lq_norms(values, q, grid)
            assert norms.shape == (200,)
            for field, v, norm in zip(fields, values, norms):
                assert norm == lq_norm(field, q)
                if q != np.inf:
                    total = sum(np.sum(abs_power(c, q)) for c in v)
                    assert norm == float((total * grid.cell_area) ** (1.0 / q))

    @PROPERTY
    @given(vector_grid_sizes, st.floats(min_value=1e-3, max_value=1e3))
    def test_the_wavevector_is_the_per_axis_symbols_stacked(self, n, length):
        # the per-axis symbols the stacked k and diff_k replace, written out
        grid = SpectralGrid(n, length)
        h = n // 2
        kx = (2.0 * np.pi / length) * grid.mode_numbers[:, None].astype(float)
        ky = (2.0 * np.pi / length) * grid.mode_numbers[None, : h + 1].astype(float)
        diff_kx, diff_ky = kx.copy(), ky.copy()
        diff_kx[h, :] = 0.0
        diff_ky[:, h] = 0.0
        assert grid.k.shape == grid.diff_k.shape == (2, n, h + 1)
        assert np.array_equal(bits(grid.k[0][:, :1]), bits(kx))
        assert np.array_equal(bits(grid.k[1][:1]), bits(ky))
        assert np.array_equal(bits(grid.k), bits(np.stack(np.broadcast_arrays(kx, ky))))
        assert np.array_equal(bits(grid.diff_k),
                              bits(np.stack(np.broadcast_arrays(diff_kx, diff_ky))))
        assert np.array_equal(bits(grid.ksq), bits(kx**2 + ky**2))

    @PROPERTY
    @given(vector_grid_sizes, seeds)
    def test_a_vector_with_one_unreal_component_is_refused(self, n, seed):
        grid, a, b, _, _ = self.fields(n, TWO_THIRDS, seed)
        odd = b.half.copy()
        odd[1, 0] += 1.0  # row 1 of column 0 no longer mirrors row N-1
        require_real(VectorField.stack(a, b), "v")
        with pytest.raises(ValueError, match="^v is not real"):
            require_real(VectorField.stack(a, ScalarField(grid, odd)), "v")


MODES = ((1, 0), (0, 1), (-1, 0), (1, 1), (-2, 1), (0, -2), (3, -1))


def rational_spec(grid):
    return CovarianceSpec(MODES, tuple(0.8 / (1 + i) for i in range(len(MODES))), 0.5,
                          "rational_square", _single_mode_vector(grid, (1, 0), 3.0))


class TestTheStepStaysOnHalves:
    def test_no_full_lattice_is_read(self, grid32, rng, monkeypatch):
        # the derived (N, N) view is for readers outside the program; a
        # trajectory, a Gronwall pair, a sweep over levels, sigma, apply_G and
        # the dense reference basis never read it
        xi0 = random_scalar_field(grid32, rng)
        v0 = biot_savart(xi0)
        spec = rational_spec(grid32)
        cfg = SolverConfig(dt=2e-3, t_end=2e-2)
        reads = []
        mirror = Field.__dict__["coeffs"].func
        monkeypatch.setattr(Field, "coeffs",
                            property(lambda f: reads.append(f) or mirror(f)))

        assert run_trajectory(None, xi0, spec, cfg, seed=1).stats.status == "completed"
        pair = gronwall_pairs(v0, v0 + random_divfree_field(grid32, rng, amplitude=0.1),
                              spec, cfg, 1, [0])[0]
        assert pair["status"] == "completed"
        probe = HolderProbe(0.1, 0.0, 2.0, 2)
        results = sweep(spec, None, xi0, cfg, 1, 2, demands=[((10.0, math.inf), 2, probe)])
        assert sorted(results) == [10.0, math.inf]
        draws = sample_increment(1, 0, 0, spec, cfg.dt).gaussians
        apply_G(sigma_values(v0.half[None], spec), draws[None], cfg.dt, spec, grid32)
        NoiseBasis(spec, grid32)
        assert reads == []
        xi0.coeffs  # the counter is live
        assert reads == [xi0]

    @pytest.mark.parametrize("n", [16, 18, 32])
    def test_plan_entries_lie_in_the_half(self, n):
        # one entry per mode, at its canonical wavevector; two for the modes
        # on column 0, where -k lies in the half as well
        grid = SpectralGrid(n)
        h = n // 2
        band = h - 1
        modes = tuple((j1, j2) for j1 in range(-band, band + 1)
                      for j2 in range(-band, band + 1))
        spec = CovarianceSpec(modes, (1.0,) * len(modes), 0.5)
        plan = scatter_plan(spec, grid)
        assert np.all(plan.touched < n * (h + 1))
        rows, cols = np.divmod(plan.touched[plan.slot], h + 1)
        for m, (j1, j2) in enumerate(modes):
            at = plan.mode == m
            c1, c2 = (j1, j2) if (j2 > 0 or (j2 == 0 and j1 >= 0)) else (-j1, -j2)
            want = {(c1 % n, c2)} | ({(-c1 % n, 0)} if c2 == 0 else set())
            assert set(zip(rows[at].tolist(), cols[at].tolist())) == want
            assert np.count_nonzero(at) == len(want) == (2 if c2 == 0 and c1 != 0 else 1)


def test_one_velocity_norm_per_visited_state(grid32, rng, monkeypatch):
    # the blow-up guard measures ||v|| of each new state and sup_v_l2sq
    # takes that value: one evaluation of a velocity stack per visited
    # state, and the same float
    counted = []
    original = integrator.sobolev_norms

    def sobolev_norms_counted(halves, grid, s=0.0):
        if halves.shape[-3] == 2:
            counted.append(halves)
        return original(halves, grid, s)

    monkeypatch.setattr(integrator, "sobolev_norms", sobolev_norms_counted)
    cfg = SolverConfig(dt=1e-3, t_end=1e-2)
    states = []
    xi0 = random_scalar_field(grid32, rng)
    res = run_trajectory(None, xi0, rational_spec(grid32), cfg, seed=3,
                         observer=states.append)
    assert cfg.n_steps == 10 and len(states) == 11
    assert len(counted) == len(states)
    for halves, st in zip(counted, states):
        assert np.array_equal(halves[0], st.v.half)
    assert res.stats.sup_v_l2sq == max(l2_norm(st.v) ** 2 for st in states)
