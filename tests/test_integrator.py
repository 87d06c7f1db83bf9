"""Exponential-Euler steps, the OU/remainder splitting and full trajectories."""

import math

import numpy as np
import pytest

from oracles import beta_step, vorticity_step, zeta_step
from vortex import integrator, noise
from vortex.integrator import (
    BlowupError,
    CoupledState,
    SolverConfig,
    holder_quotient,
    run_trajectory,
    velocity_step,
)
from vortex.noise import (
    CovarianceSpec,
    WienerIncrement,
    apply_G,
    build_noise_basis,
    sample_increment,
    scatter_plan,
)
from vortex.operators import (
    bilinear_B,
    biot_savart,
    curl,
    grad_norm_l2,
    random_divfree_field,
    random_scalar_field,
    vorticity_values,
)
from vortex.spectral import (
    ScalarField,
    SpectralGrid,
    VectorField,
    heat_decay,
    l2_norm,
    to_physical,
    to_spectral,
    zero_scalar,
    zero_vector,
)

ZERO_NOISE = CovarianceSpec(((1, 0),), (0.1,), 0.5, "zero")
UNIT_NOISE = CovarianceSpec(((1, 0), (0, 1), (1, 1)), (0.2, 0.15, 0.1), 0.5,
                            "constant_one")


def state_from(grid, v=None, xi=None, zeta=None, beta=None, t=0.0):
    z = zero_scalar(grid)
    return CoupledState(t, v if v is not None else zero_vector(grid),
                        xi if xi is not None else z,
                        zeta if zeta is not None else z,
                        beta if beta is not None else z)


def stepped_velocity(st, dW, spec, cfg):
    """velocity_step as run_trajectory calls it, from a coupled state; the
    new velocity only."""
    v, _ = velocity_step(st.v, vorticity_values(st.v), apply_G(st.v, dW, spec),
                         scatter_plan(spec, st.v.grid).touched, cfg, st.t)
    return v


def stepped_zeta(st, dW, spec, cfg):
    """run_trajectory's update of the stochastic convolution:
    zeta+ = exp(-|k|^2 dt)[zeta + curl(G_n(v)) dW], added at the touched
    coefficients."""
    grid = st.zeta.grid
    return integrator._stepped(heat_decay(grid, cfg.dt), st.zeta,
                               scatter_plan(spec, grid).touched, apply_G(st.v, dW, spec)[2])


def cos_x1(grid, amplitude=1.0):
    xx, _ = grid.meshgrid()
    return to_spectral(amplitude * np.cos(xx), grid)


class TestSolverConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SolverConfig(dt=0.0, t_end=1.0)
        with pytest.raises(ValueError):
            SolverConfig(dt=0.5, t_end=0.1)
        with pytest.raises(ValueError):
            SolverConfig(dt=0.3, t_end=1.0)  # not an integral number of steps
        assert SolverConfig(dt=1e-3, t_end=0.5).n_steps == 500

    @pytest.mark.parametrize("field, value", [
        ("dt", math.inf), ("dt", math.nan), ("t_end", math.inf), ("t_end", math.nan),
        ("blowup_threshold", math.inf), ("blowup_threshold", math.nan),
        ("blowup_threshold", 0.0), ("blowup_threshold", -1.0),
    ])
    def test_non_finite_or_nonpositive_rejected(self, field, value):
        kwargs = {"dt": 0.01, "t_end": 0.1, field: value}
        with pytest.raises(ValueError, match=f"^{field} must be finite and positive"):
            SolverConfig(**kwargs)

    def test_step_count_overflow_rejected(self):
        # t_end / dt overflows to inf: a ValueError, not an OverflowError
        with pytest.raises(ValueError, match="^t_end"):
            SolverConfig(dt=1e-10, t_end=1e300)


class TestVelocityStep:
    def test_zero_stays_zero(self, grid16):
        cfg = SolverConfig(dt=0.01, t_end=0.1)
        st = state_from(grid16)
        dW = sample_increment(0, 0, 0, ZERO_NOISE, cfg.dt)
        assert l2_norm(stepped_velocity(st, dW, ZERO_NOISE, cfg)) == 0.0

    def test_single_mode_exact_decay(self, grid32):
        # v = (0, sin x1) has B(v,v) = 0: one step is exactly exp(-dt)
        cfg = SolverConfig(dt=1e-3, t_end=0.1)
        xi = cos_x1(grid32)
        v = biot_savart(xi)
        st = state_from(grid32, v=v, xi=xi, beta=xi)
        dW = sample_increment(0, 0, 0, ZERO_NOISE, cfg.dt)
        out = stepped_velocity(st, dW, ZERO_NOISE, cfg)
        expect = math.exp(-cfg.dt) * l2_norm(v)
        assert abs(l2_norm(out) - expect) <= 1e-12 * expect

    def test_discrete_energy_inequality(self, grid32, rng):
        # ||v||^2 - ||v+||^2 >= (2 dt / 1.1) ||grad v+||^2 without noise
        cfg = SolverConfig(dt=1e-3, t_end=0.1)
        for _ in range(10):
            xi = random_scalar_field(grid32, rng, amplitude=rng.uniform(0.5, 2.0))
            v = biot_savart(xi)
            st = state_from(grid32, v=v, xi=xi, beta=xi)
            dW = sample_increment(0, 0, 0, ZERO_NOISE, cfg.dt)
            out = stepped_velocity(st, dW, ZERO_NOISE, cfg)
            drop = l2_norm(v) ** 2 - l2_norm(out) ** 2
            assert drop >= 2.0 * cfg.dt * grad_norm_l2(out) ** 2 / 1.1

    def test_blowup_guard(self, grid16, rng):
        cfg = SolverConfig(dt=0.01, t_end=0.1, blowup_threshold=1e-12)
        xi = random_scalar_field(grid16, rng)
        st = state_from(grid16, v=biot_savart(xi), xi=xi, beta=xi)
        dW = sample_increment(0, 0, 0, ZERO_NOISE, cfg.dt)
        with pytest.raises(BlowupError):
            stepped_velocity(st, dW, ZERO_NOISE, cfg)


class TestVorticityStep:
    def test_zero_state(self, grid16):
        cfg = SolverConfig(dt=0.01, t_end=0.1)
        st = state_from(grid16)
        dW = sample_increment(0, 0, 0, ZERO_NOISE, cfg.dt)
        assert l2_norm(vorticity_step(st, dW, ZERO_NOISE, cfg)) == 0.0

    def test_parallel_flow_exact_decay(self, grid32):
        # xi = cos x1 with v = biot_savart(xi): F(v, xi) = 0 identically
        cfg = SolverConfig(dt=1e-3, t_end=0.1)
        xi = cos_x1(grid32)
        st = state_from(grid32, v=biot_savart(xi), xi=xi, beta=xi)
        dW = sample_increment(0, 0, 0, ZERO_NOISE, cfg.dt)
        out = vorticity_step(st, dW, ZERO_NOISE, cfg)
        expect = math.exp(-cfg.dt) * l2_norm(xi)
        assert abs(l2_norm(out) - expect) <= 1e-12 * expect

    def test_mean_zero_preserved(self, grid32, rng):
        cfg = SolverConfig(dt=1e-2, t_end=0.1)
        xi = random_scalar_field(grid32, rng)
        st = state_from(grid32, v=biot_savart(xi), xi=xi, beta=xi)
        dW = sample_increment(4, 0, 0, UNIT_NOISE, cfg.dt)
        out = vorticity_step(st, dW, UNIT_NOISE, cfg)
        assert out.half[0, 0] == 0.0


class TestOuStep:
    """run_trajectory's update of the stochastic convolution zeta."""

    def test_zero_noise_pure_decay(self, grid32, rng):
        cfg = SolverConfig(dt=0.01, t_end=0.1)
        zeta = random_scalar_field(grid32, rng)
        st = state_from(grid32, zeta=zeta)
        dW = sample_increment(0, 0, 0, ZERO_NOISE, cfg.dt)
        out = stepped_zeta(st, dW, ZERO_NOISE, cfg)
        decay = np.exp(-zeta.grid.ksq * cfg.dt)
        assert np.max(np.abs(out.half - decay * zeta.half)) < 1e-15

    def test_starts_and_stays_zero_without_noise(self, grid16):
        cfg = SolverConfig(dt=0.01, t_end=0.1)
        st = state_from(grid16)
        dW = sample_increment(0, 0, 0, ZERO_NOISE, cfg.dt)
        assert l2_norm(stepped_zeta(st, dW, ZERO_NOISE, cfg)) == 0.0
        zetas = []
        xi0 = random_scalar_field(grid16, np.random.default_rng(1))
        run_trajectory(None, xi0, ZERO_NOISE, cfg, seed=0,
                       observer=lambda st: zetas.append(st.zeta))
        assert len(zetas) == cfg.n_steps + 1
        assert not any(np.any(z.half) for z in zetas)

    def test_stationary_variance_oracle(self, grid16):
        # single mode |k|^2 = 1, sigma = 1: the projection coefficient is a
        # scalar OU process whose discrete variance is
        # A^2 dt e^{-2k dt} (1 - e^{-2kMdt}) / (1 - e^{-2k dt})
        spec = CovarianceSpec(((1, 0),), (0.8,), 0.5, "constant_one")
        w = curl(build_noise_basis(spec, grid16)[0])
        w_norm = l2_norm(w)
        cfg = SolverConfig(dt=5e-3, t_end=0.5)
        kappa, n_paths = 1.0, 400
        finals = []
        from vortex.spectral import l2_inner

        for path in range(n_paths):
            st = state_from(grid16)
            zeta = st.zeta
            for step in range(cfg.n_steps):
                dW = sample_increment(31, path, step, spec, cfg.dt)
                st = CoupledState(step * cfg.dt, st.v, st.xi, zeta, st.beta)
                zeta = stepped_zeta(st, dW, spec, cfg)
            finals.append(l2_inner(zeta, w) / w_norm)
        amp = 0.8 * w_norm
        q = math.exp(-2.0 * kappa * cfg.dt)
        target = amp**2 * cfg.dt * q * (1 - q**cfg.n_steps) / (1 - q)
        emp = np.var(finals, ddof=1)
        stderr = target * math.sqrt(2.0 / (n_paths - 1))
        assert abs(emp - target) <= 3.0 * stderr


class TestBetaStep:
    def test_pure_heat_decay_without_velocity(self, grid32, rng):
        cfg = SolverConfig(dt=0.01, t_end=0.1)
        beta = random_scalar_field(grid32, rng)
        st = state_from(grid32, beta=beta)
        out = beta_step(st, cfg)
        decay = np.exp(-beta.grid.ksq * cfg.dt)
        assert np.max(np.abs(out.half - decay * beta.half)) < 1e-15

    def test_reduces_to_noiseless_vorticity_step(self, grid32, rng):
        # with zeta = 0 and beta = xi the two updates coincide
        cfg = SolverConfig(dt=1e-3, t_end=0.1)
        xi = random_scalar_field(grid32, rng)
        st = state_from(grid32, v=biot_savart(xi), xi=xi, beta=xi)
        dW = WienerIncrement(cfg.dt, np.zeros(1))
        a = vorticity_step(st, dW, ZERO_NOISE, cfg)
        b = beta_step(st, cfg)
        assert np.max(np.abs(a.half - b.half)) < 1e-16


class TestOneNoiseEvaluation:
    """A path-step evaluates sigma(v) and the noise once, for v and zeta
    together, and adds it only at the coefficients the noise modes touch."""

    def test_one_apply_G_and_one_sigma_per_step(self, grid32, rng, monkeypatch):
        calls = {"apply_G": 0, "sigma_eval": 0}

        def counted(module, name):
            original = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        counted(integrator, "apply_G")
        counted(noise, "sigma_eval")
        spec = TestRotationalForm.spec(grid32, rng, "rational_square")
        cfg = SolverConfig(dt=1e-3, t_end=1e-2)
        xi0 = random_scalar_field(grid32, rng)
        assert run_trajectory(None, xi0, spec, cfg, seed=3).stats.status == "completed"
        assert cfg.n_steps == 10
        assert calls == {"apply_G": 10, "sigma_eval": 10}

    def test_steps_change_only_the_touched_coefficients(self, grid32, rng):
        # without drift or decay the step adds exactly the increment at touched
        spec = UNIT_NOISE
        touched = scatter_plan(spec, grid32).touched
        v = random_divfree_field(grid32, rng)
        inc = apply_G(v, sample_increment(2, 0, 0, spec, 0.01), spec)
        base = random_scalar_field(grid32, rng)
        out = integrator._stepped(np.ones((32, 17)), base, touched, inc[2])
        got, was = out.half.reshape(-1), base.half.reshape(-1)
        assert np.array_equal(got[touched], was[touched] + inc[2])
        assert np.array_equal(np.delete(got, touched), np.delete(was, touched))


class TestHolderQuotient:
    def test_constant_path(self, grid16, rng):
        f = random_scalar_field(grid16, rng)
        assert holder_quotient([f, f, f], [0.0, 0.5, 1.0], 0.3) == 0.0

    def test_linear_path_half_exponent(self, grid16, rng):
        # u(t) = t phi: quotient sup |t-r|^{1/2} ||phi|| = sqrt(T) ||phi||
        phi = random_scalar_field(grid16, rng)
        times = [0.0, 0.25, 0.5, 0.75, 1.0]
        snaps = [phi * t for t in times]
        expected = math.sqrt(1.0) * l2_norm(phi)
        assert holder_quotient(snaps, times, 0.5) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("q", [2.0, 4.0])
    def test_nan_pair_kept(self, grid16, rng, q):
        # the worst case keeps a NaN quotient even after finite ones
        f = random_scalar_field(grid16, rng)
        c = f.half.copy()
        c[1, 0] = c[-1, 0] = np.nan
        snaps = [f, f * 2.0, f * 3.0, ScalarField(grid16, c)]
        assert math.isnan(holder_quotient(snaps, [0.0, 0.25, 0.5, 0.75], 0.3, q=q))


class TestRunTrajectory:
    def test_zero_data_zero_noise(self, grid16):
        cfg = SolverConfig(dt=0.01, t_end=0.1)
        res = run_trajectory(None, zero_scalar(grid16), ZERO_NOISE, cfg, seed=0)
        assert res.stats.status == "completed"
        assert res.stats.sup_v_l2sq == 0.0
        assert res.stats.sup_xi_lq == 0.0
        assert l2_norm(res.final.xi) == 0.0

    def test_enstrophy_and_energy_monotone_without_noise(self, grid32, rng):
        cfg = SolverConfig(dt=1e-3, t_end=0.05)
        xi0 = random_scalar_field(grid32, rng)
        enstrophy, energy = [], []

        def watch(st):
            enstrophy.append(l2_norm(st.xi))
            energy.append(l2_norm(st.v))

        run_trajectory(None, xi0, ZERO_NOISE, cfg, seed=0, observer=watch)
        for series in (enstrophy, energy):
            for a, b in zip(series, series[1:]):
                assert b <= a * (1 + 1e-6)

    def test_splitting_invariant_machine_precision(self, grid32, rng):
        cfg = SolverConfig(dt=1e-3, t_end=0.05)
        xi0 = random_scalar_field(grid32, rng)
        res = run_trajectory(None, xi0, UNIT_NOISE, cfg, seed=9)
        defect = l2_norm(res.final.xi - (res.final.zeta + res.final.beta))
        assert defect <= 1e-12 * max(1.0, l2_norm(res.final.xi))

    def test_mean_zero_exact(self, grid32, rng):
        cfg = SolverConfig(dt=1e-3, t_end=0.02)
        xi0 = random_scalar_field(grid32, rng)
        res = run_trajectory(None, xi0, UNIT_NOISE, cfg, seed=2)
        assert res.final.xi.coeffs[0, 0] == 0.0

    def test_deterministic_given_seed(self, grid16, rng):
        cfg = SolverConfig(dt=1e-2, t_end=0.1)
        xi0 = random_scalar_field(grid16, rng)
        a_states, b_states = [], []
        a = run_trajectory(None, xi0, UNIT_NOISE, cfg, seed=5, path_index=3,
                           observer=a_states.append)
        b = run_trajectory(None, xi0, UNIT_NOISE, cfg, seed=5, path_index=3,
                           observer=b_states.append)
        assert np.array_equal(a.final.xi.coeffs, b.final.xi.coeffs)
        assert a.stats.sup_v_l2sq == b.stats.sup_v_l2sq
        # every zeta sample, hence any Holder quotient of the path, repeats
        assert all(np.array_equal(x.zeta.coeffs, y.zeta.coeffs)
                   for x, y in zip(a_states, b_states))

    def test_nonzero_mean_rejected(self, grid16):
        cfg = SolverConfig(dt=0.01, t_end=0.1)
        c = np.zeros((16, 16), dtype=complex)
        c[0, 0] = 1.0
        c[1, 0] = c[-1, 0] = 0.3
        with pytest.raises(ValueError, match="zero mean"):
            run_trajectory(None, ScalarField.from_lattice(grid16, c), ZERO_NOISE, cfg, seed=0)

    def test_inconsistent_initial_pair_rejected(self, grid32, rng):
        cfg = SolverConfig(dt=0.01, t_end=0.1)
        xi0 = random_scalar_field(grid32, rng)
        other = random_scalar_field(grid32, rng)
        with pytest.raises(ValueError, match="curl"):
            run_trajectory(biot_savart(other), xi0, ZERO_NOISE, cfg, seed=0)

    def test_blowup_flagged(self, grid16, rng):
        cfg = SolverConfig(dt=0.01, t_end=0.1, blowup_threshold=1e-9)
        xi0 = random_scalar_field(grid16, rng)
        res = run_trajectory(None, xi0, ZERO_NOISE, cfg, seed=0)
        assert res.stats.status == "blowup"

    def test_recorded_series_matches_stats(self, grid16, rng):
        # the recorded snapshots recompute the stats functionals exactly
        from vortex.operators import grad_norm_l2 as gnorm
        from vortex.spectral import lq_norm

        cfg = SolverConfig(dt=0.01, t_end=0.1)
        xi0 = random_scalar_field(grid16, rng)
        states = []
        res = run_trajectory(None, xi0, UNIT_NOISE, cfg, seed=8, observer=states.append)
        sup_v = max(l2_norm(st.v) ** 2 for st in states)
        int_grad = sum(gnorm(st.v) ** 2 * cfg.dt for st in states[:-1])
        sup_xi = max(lq_norm(st.xi, 4.0) for st in states)
        assert abs(sup_v - res.stats.sup_v_l2sq) <= 1e-12 * max(1.0, sup_v)
        assert abs(int_grad - res.stats.int_grad_v) <= 1e-12 * max(1.0, int_grad)
        assert abs(sup_xi - res.stats.sup_xi_lq) <= 1e-12 * max(1.0, sup_xi)


class TestDerivedFields:
    """run_trajectory evolves v and zeta and derives xi = curl v and
    beta = xi - zeta; the four-field loop stepping the vorticity and
    remainder equations as well is the oracle it must reproduce."""

    @staticmethod
    def four_field_states(xi0, spec, cfg, seed):
        st = CoupledState(0.0, biot_savart(xi0), xi0, zero_scalar(xi0.grid), xi0)
        states = [st]
        for step in range(cfg.n_steps):
            dW = sample_increment(seed, 0, step, spec, cfg.dt)
            st = CoupledState((step + 1) * cfg.dt,
                              stepped_velocity(st, dW, spec, cfg),
                              vorticity_step(st, dW, spec, cfg),
                              zeta_step(st, dW, spec, cfg),
                              beta_step(st, cfg))
            states.append(st)
        return states

    @pytest.mark.parametrize("sigma_kind", ["constant_one", "rational_square"])
    def test_matches_four_field_loop(self, grid32, rng, sigma_kind):
        pivot = None
        if sigma_kind == "rational_square":
            pivot = random_divfree_field(grid32, rng, amplitude=4.0)
        spec = CovarianceSpec(((1, 0), (0, 1), (1, 1), (-2, 1)), (1.0, 0.8, 0.6, 0.5),
                              0.5, sigma_kind, pivot)
        cfg = SolverConfig(dt=2e-3, t_end=0.12)
        xi0 = random_scalar_field(grid32, rng, amplitude=3.0)
        states = []
        run_trajectory(None, xi0, spec, cfg, seed=13, observer=states.append)
        oracle = self.four_field_states(xi0, spec, cfg, 13)
        assert cfg.n_steps >= 50
        assert len(states) == len(oracle) == cfg.n_steps + 1
        assert l2_norm(oracle[-1].zeta) > 0.1 * l2_norm(oracle[-1].xi)
        for got, want in zip(states, oracle):
            assert got.t == want.t
            for name in ("v", "xi", "zeta", "beta"):
                a, b = getattr(got, name), getattr(want, name)
                assert l2_norm(a - b) <= 1e-12 * l2_norm(b), (got.t, name)

    def test_vorticity_blowup_guard(self, grid16, rng):
        # a threshold between ||v|| and ||curl v|| trips only the derived-xi guard
        xi0 = random_scalar_field(grid16, rng, decay=0.0)
        v_norm, xi_norm = l2_norm(biot_savart(xi0)), l2_norm(xi0)
        assert v_norm < xi_norm
        cfg = SolverConfig(dt=0.01, t_end=0.1,
                           blowup_threshold=0.5 * (v_norm + xi_norm))
        res = run_trajectory(None, xi0, ZERO_NOISE, cfg, seed=0)
        assert res.stats.status == "blowup"


class TestRotationalForm:
    """run_trajectory takes P B(v,v) in rotational form from the vorticity
    values it also uses for sup_xi_lq; the advective form P B(v,v) of
    `bilinear_B` is the oracle it must reproduce."""

    MODES = ((1, 0), (0, 1), (1, 1), (-2, 1))

    @staticmethod
    def spec(grid, rng, sigma_kind, modes=MODES):
        pivot = None
        if sigma_kind == "rational_square":
            pivot = random_divfree_field(grid, rng, amplitude=4.0)
        return CovarianceSpec(modes, (1.0, 0.8, 0.6, 0.5, 0.4)[:len(modes)], 0.5,
                              sigma_kind, pivot)

    @pytest.mark.parametrize("case", ["constant_one", "rational_square",
                                      "noise_out_of_band", "v0_out_of_band"])
    def test_matches_advective_form(self, grid32, rng, monkeypatch, case):
        modes = self.MODES + ((12, 0),) if case == "noise_out_of_band" else self.MODES
        sigma_kind = "rational_square" if case == "rational_square" else "constant_one"
        spec = self.spec(grid32, rng, sigma_kind, modes)
        xi0 = random_scalar_field(grid32, rng, amplitude=3.0)
        if case == "v0_out_of_band":
            c = xi0.coeffs.copy()
            c[12, 3] = c[-12, -3] = 0.05
            xi0 = ScalarField.from_lattice(grid32, c)
        cfg = SolverConfig(dt=2e-3, t_end=0.12)
        states, oracle_states = [], []
        res = run_trajectory(None, xi0, spec, cfg, seed=13, observer=states.append)
        monkeypatch.setattr(integrator, "rotational_advection", lambda v, w: bilinear_B(v, v))
        oracle = run_trajectory(None, xi0, spec, cfg, seed=13, observer=oracle_states.append)
        assert cfg.n_steps == 60 and res.stats.status == oracle.stats.status == "completed"
        outside = ~grid32.dealias_mask
        assert np.any(res.final.xi.half[outside]) == case.endswith("out_of_band")
        assert len(states) == len(oracle_states) == cfg.n_steps + 1
        for got, want in zip(states, oracle_states):
            assert got.t == want.t
            for name in ("v", "xi", "zeta", "beta"):
                a, b = getattr(got, name), getattr(want, name)
                assert l2_norm(a - b) <= 1e-12 * l2_norm(b), (got.t, name)
            if not case.endswith("out_of_band") and got.t > 0:
                # the step's shared values are exactly the dealiased vorticity
                assert np.array_equal(to_physical(got.xi), vorticity_values(got.v))
        for name in res.stats.FUNCTIONALS:
            a, b = res.stats.functional(name), oracle.stats.functional(name)
            assert abs(a - b) <= 1e-12 * abs(b), name

    @pytest.mark.parametrize("case, per_step", [("in_band", 6), ("out_of_band", 7)])
    def test_transforms_per_step(self, grid32, rng, monkeypatch, case, per_step):
        # per step: u (2), the products (2), beta's L^q norm (1) and the new
        # vorticity (1), plus the dealiased vorticity once more out of band;
        # before the loop xi0 and curl v0 (2), after it beta's norm (1).
        # Every one is real-to-complex: no complex transform is left.
        modes = self.MODES + ((12, 0),) if case == "out_of_band" else self.MODES
        spec = self.spec(grid32, rng, "rational_square", modes)
        xi0 = random_scalar_field(grid32, rng)
        calls = []
        for name in ("fft2", "ifft2", "rfft2", "irfft2"):
            original = getattr(np.fft, name)

            def counted(*args, _original=original, _name=name, **kwargs):
                calls.append(_name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(np.fft, name, counted)
        for n in (5, 10):
            calls.clear()
            cfg = SolverConfig(dt=1e-3, t_end=n * 1e-3)
            assert run_trajectory(None, xi0, spec, cfg, seed=3).stats.status == "completed"
            assert len(calls) == per_step * n + 3
            assert calls.count("rfft2") == 2 * n
            assert calls.count("fft2") == calls.count("ifft2") == 0


def complex_to_physical(field):
    """The complex-transform reference: ifft2 of the full spectrum, real part."""
    if isinstance(field, VectorField):
        return complex_to_physical(field.vx), complex_to_physical(field.vy)
    n = field.grid.modes_per_dim
    return (np.fft.ifft2(field.coeffs) * (n * n)).real


def complex_spectral_of(values, grid):
    """The complex-transform reference of operators._spectral_of, cut to
    the half spectrum."""
    n = grid.modes_per_dim
    return (np.fft.fft2(values) / (n * n))[:, : n // 2 + 1] * grid.dealias_mask


class TestRealTransforms:
    """The step's transforms read and write half spectra; the complex
    transforms of the full spectrum are the reference they must match, to
    rounding, over a whole trajectory."""

    @pytest.mark.parametrize("sigma_kind", ["constant_one", "rational_square"])
    @pytest.mark.parametrize("band", ["in_band", "noise_out_of_band"])
    def test_matches_the_complex_transforms(self, grid32, rng, monkeypatch, sigma_kind, band):
        from vortex import operators, spectral

        modes = TestRotationalForm.MODES
        if band == "noise_out_of_band":
            modes += ((12, 0),)
        spec = TestRotationalForm.spec(grid32, rng, sigma_kind, modes)
        xi0 = random_scalar_field(grid32, rng, amplitude=3.0)
        cfg = SolverConfig(dt=2e-3, t_end=0.12)
        states, oracle_states = [], []
        res = run_trajectory(None, xi0, spec, cfg, seed=13, observer=states.append)
        for module in (spectral, operators, integrator):
            monkeypatch.setattr(module, "to_physical", complex_to_physical)
        monkeypatch.setattr(operators, "_spectral_of", complex_spectral_of)

        def refused(*args, **kwargs):
            raise AssertionError("a real transform ran in the reference trajectory")

        monkeypatch.setattr(np.fft, "rfft2", refused)
        monkeypatch.setattr(np.fft, "irfft2", refused)
        oracle = run_trajectory(None, xi0, spec, cfg, seed=13, observer=oracle_states.append)
        assert cfg.n_steps == 60 and res.stats.status == oracle.stats.status == "completed"
        outside = ~grid32.dealias_mask
        assert np.any(res.final.xi.half[outside]) == (band == "noise_out_of_band")
        assert len(states) == len(oracle_states) == cfg.n_steps + 1
        for got, want in zip(states, oracle_states):
            assert got.t == want.t
            for name in ("v", "xi", "zeta", "beta"):
                a, b = getattr(got, name), getattr(want, name)
                assert l2_norm(a - b) <= 1e-12 * l2_norm(b), (got.t, name)
        for name in res.stats.FUNCTIONALS:
            a, b = res.stats.functional(name), oracle.stats.functional(name)
            assert abs(a - b) <= 1e-12 * abs(b), name

    def test_non_real_initial_fields_rejected(self, grid16, rng):
        # only the self-conjugate columns 0 and N/2 of a half can break
        # realness: there row 1 and row N - 1 must be conjugate
        cfg = SolverConfig(dt=0.01, t_end=0.1)
        for column in (8, 0):
            c = np.zeros((16, 9), dtype=complex)
            c[1, column] = 1.0  # row 15 is not its conjugate
            odd = ScalarField(grid16, c)
            with pytest.raises(ValueError, match="vorticity is not real"):
                run_trajectory(None, odd, ZERO_NOISE, cfg, seed=0)
            with pytest.raises(ValueError, match="^initial vorticity is not real"):
                run_trajectory(zero_vector(grid16), odd, ZERO_NOISE, cfg, seed=0)
        xi0 = random_scalar_field(grid16, rng)
        v0 = biot_savart(xi0)
        with pytest.raises(ValueError, match="^initial velocity is not real"):
            run_trajectory(VectorField(v0.vx + odd * 1e-3, v0.vy), xi0, ZERO_NOISE, cfg,
                           seed=0)
        nan = c * 0.0
        nan[2, 3] = np.nan
        with pytest.raises(ValueError, match="^initial velocity must be finite"):
            run_trajectory(VectorField(v0.vx, v0.vy + ScalarField(grid16, nan)), xi0,
                           ZERO_NOISE, cfg, seed=0)
