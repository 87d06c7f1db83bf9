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
from vortex.harness import HolderProbe, gronwall_pair, sweep
from vortex.integrator import SolverConfig, run_trajectory
from vortex.noise import CovarianceSpec, NoiseBasis, apply_G, sample_increment, scatter_plan
from vortex.operators import (
    biot_savart,
    grad_norm_l2,
    grad_norm_l2_scalar,
    random_divfree_field,
    random_scalar_field,
)
from vortex.spectral import (
    TWO_THIRDS,
    ScalarField,
    SpectralGrid,
    VectorField,
    dealias,
    l2_inner,
    l2_norm,
    regrid,
    sobolev_norm_spectral,
    to_physical,
    to_spectral,
)

# even N from 8 to 66, N = 2 (mod 4) included; dealias fractions in (0, 2/3]
grid_sizes = st.integers(4, 33).map(lambda m: 2 * m)
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
        close(grad_norm_l2_scalar(f), math.sqrt(np.sum(ksq * np.abs(a) ** 2)) * length)
        close(grad_norm_l2(VectorField(f, g)),
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


MODES = ((1, 0), (0, 1), (-1, 0), (1, 1), (-2, 1), (0, -2), (3, -1))


def rational_spec(grid, modes=MODES):
    return CovarianceSpec(modes, tuple(0.8 / (1 + i) for i in range(len(modes))), 0.5,
                          "rational_square", _single_mode_vector(grid, (1, 0), 3.0))


class TestTheStepStaysOnHalves:
    def test_no_full_lattice_is_read(self, grid32, rng, monkeypatch):
        # the derived (N, N) view is for readers outside the program; a
        # trajectory in and out of the dealias band, a Gronwall pair, a sweep
        # over levels, apply_G and the dense reference basis never read it
        xi0 = random_scalar_field(grid32, rng)
        v0 = biot_savart(xi0)
        spec = rational_spec(grid32)
        out_of_band = rational_spec(grid32, MODES + ((12, 0),))
        cfg = SolverConfig(dt=2e-3, t_end=2e-2)
        reads = []
        mirror = ScalarField.__dict__["coeffs"].func
        monkeypatch.setattr(ScalarField, "coeffs",
                            property(lambda f: reads.append(f) or mirror(f)))

        for s in (spec, out_of_band):
            assert run_trajectory(None, xi0, s, cfg, seed=1).stats.status == "completed"
        pair = gronwall_pair(v0, v0 + random_divfree_field(grid32, rng, amplitude=0.1),
                             spec, cfg, 1, 0, 1.0, 0.5)
        assert pair["status"] == "completed"
        probe = HolderProbe(0.1, 0.0, 2.0, 2)
        results = sweep(spec, None, xi0, cfg, 1, 2, demands=[((10.0, math.inf), 2, probe)])
        assert sorted(results) == [10.0, math.inf]
        apply_G(v0, sample_increment(1, 0, 0, spec, cfg.dt), spec)
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
    # takes that value: one evaluation per visited state, the same float
    counted = []
    original = integrator.l2_norm

    def l2_norm_counted(field):
        if isinstance(field, VectorField):
            counted.append(field)
        return original(field)

    monkeypatch.setattr(integrator, "l2_norm", l2_norm_counted)
    cfg = SolverConfig(dt=1e-3, t_end=1e-2)
    states = []
    xi0 = random_scalar_field(grid32, rng)
    res = run_trajectory(None, xi0, rational_spec(grid32), cfg, seed=3,
                         observer=states.append)
    assert cfg.n_steps == 10 and len(states) == 11
    assert [id(v) for v in counted] == [id(st.v) for st in states]
    assert res.stats.sup_v_l2sq == max(original(st.v) ** 2 for st in states)
