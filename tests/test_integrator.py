"""Exponential-Euler steps, the OU/remainder splitting and full trajectories."""

import math
import warnings
from collections import namedtuple

import numpy as np
import pytest

from oracles import (
    apply_G_of,
    basis_fields,
    beta_step,
    bilinear_B,
    holder_quotient,
    sigma_of,
    stacked_drift,
    whole_halves,
    vorticity_step,
    zeta_step,
)
from vortex import integrator, noise, operators
from vortex.config import _band_modes
from vortex.integrator import (
    SolverConfig,
    run_trajectory,
    velocity_step,
)
from vortex.noise import (
    CovarianceSpec,
    WienerIncrement,
    sample_increment,
    scatter_plan,
)
from vortex.operators import (
    biot_savart,
    curl,
    grad_norm_l2,
    gradient,
    leray_project,
    random_divfree_field,
    random_scalar_field,
    vorticity_values,
)
from vortex.spectral import (
    ScalarField,
    SpectralGrid,
    VectorField,
    l2_norm,
    lattice,
    to_physical,
    to_spectral,
    zero_scalar,
    zero_vector,
)

ZERO_NOISE = CovarianceSpec(((1, 0),), (0.1,), 0.5, "zero")
UNIT_NOISE = CovarianceSpec(((1, 0), (0, 1), (1, 1)), (0.2, 0.15, 0.1), 0.5,
                            "constant_one")


# a coupled state as the oracles take it: the fields of a CoupledState, given
State = namedtuple("State", "t v xi zeta beta")


class LastState:
    """An observer that keeps the last state it sees."""

    state = None

    def __call__(self, st):
        self.state = st


def state_from(grid, v=None, xi=None, zeta=None, beta=None, t=0.0):
    z = zero_scalar(grid)
    return State(t, v if v is not None else zero_vector(grid),
                 xi if xi is not None else z,
                 zeta if zeta is not None else z,
                 beta if beta is not None else z)


def velocity_stepped(st, dW, spec, cfg):
    """velocity_step as the loop calls it, on a one-row stack, from a coupled
    state: the new velocity and its L2 norm."""
    grid = st.v.grid
    v, norms = velocity_step(grid, st.v.half[None], vorticity_values(st.v)[None],
                             apply_G_of(st.v, dW, spec)[None, :2],
                             scatter_plan(spec, grid).touched, cfg)
    return VectorField(grid, v[0]), norms[0]


def stepped_velocity(st, dW, spec, cfg):
    """The new velocity of velocity_stepped."""
    return velocity_stepped(st, dW, spec, cfg)[0]


def bits(a):
    return np.asarray(a).view(np.uint64)


def observed_states(rows, spec, cfg, seed, end_at=None):
    """The visits of `trajectories` over rows, and the CoupledState of every
    live row at each of them, per row; a consumer ends the rows end_at
    (row -> step) at that step."""
    visits, states = [], [[] for _ in rows]
    for vis in integrator.trajectories(rows, spec, cfg, seed):
        visits.append(vis)
        for r in np.flatnonzero(vis.alive):
            states[r].append(vis.state(r))
        for r, step in (end_at or {}).items():
            if vis.step == step:
                vis.end(r)
    return visits, states


def assert_zeta_oracle(states, spec, cfg, seed, path):
    """Each visited zeta of a path is `oracles.zeta_step` of the state
    before it, on that step's increment, bit for bit."""
    for step, (before, after) in enumerate(zip(states, states[1:])):
        dW = sample_increment(seed, path, step, spec, cfg.dt)
        want = zeta_step(before, dW, spec, cfg)
        assert np.array_equal(bits(after.zeta.half), bits(want.half)), step


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
        _, norm = velocity_stepped(st, dW, ZERO_NOISE, cfg)
        assert norm > cfg.blowup_threshold
        assert not integrator._within(norm, cfg)
        # inf and NaN norms fail closed
        assert not integrator._within(np.array([math.inf, math.nan]), cfg).any()


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
    """The loop's update of the stochastic convolution zeta, judged against
    the dense oracle `zeta_step`."""

    def test_zero_noise_pure_decay(self, grid32, rng, monkeypatch):
        # noise for three steps, none after: from then on each step only
        # decays zeta, exactly by exp(-|k|^2 dt); the loop reads apply_G from
        # `noise` at every step, so the patch reaches the steps that follow
        cfg = SolverConfig(dt=0.01, t_end=0.1)
        xi0 = random_scalar_field(grid32, rng)
        decay = np.exp(-grid32.ksq * cfg.dt)
        zetas = []
        original = noise.apply_G
        for vis in integrator.trajectories([(None, xi0, 0)], UNIT_NOISE, cfg, seed=4):
            zetas.append(vis.state(0).zeta)
            if vis.step == 3:
                monkeypatch.setattr(noise, "apply_G", lambda *args: 0.0 * original(*args))
        assert len(zetas) == cfg.n_steps + 1
        assert np.any(zetas[3].half)
        for before, after in zip(zetas[3:], zetas[4:]):
            assert np.array_equal(bits(after.half), bits(decay * before.half))

    def test_starts_and_stays_zero_without_noise(self, grid16):
        # zeta is zero at t = 0 under any noise, and stays zero without noise;
        # every step is the oracle's
        cfg = SolverConfig(dt=0.01, t_end=0.1)
        xi0 = random_scalar_field(grid16, np.random.default_rng(1))
        for spec in (ZERO_NOISE, UNIT_NOISE):
            _, (states,) = observed_states([(None, xi0, 0)], spec, cfg, seed=0)
            assert len(states) == cfg.n_steps + 1
            assert not np.any(states[0].zeta.half)
            assert np.any(states[-1].zeta.half) == (spec is UNIT_NOISE)
            assert_zeta_oracle(states, spec, cfg, seed=0, path=0)

    def test_stationary_variance_oracle(self, grid16):
        # single mode |k|^2 = 1, sigma = 1: the projection coefficient is a
        # scalar OU process whose discrete variance is
        # A^2 dt e^{-2k dt} (1 - e^{-2kMdt}) / (1 - e^{-2k dt});
        # the 400 paths step as one batch, whose first two the oracle follows
        from vortex.spectral import l2_inner

        spec = CovarianceSpec(((1, 0),), (0.8,), 0.5, "constant_one")
        w = curl(basis_fields(spec, grid16)[0])
        w_norm = l2_norm(w)
        cfg = SolverConfig(dt=5e-3, t_end=0.5)
        kappa, n_paths = 1.0, 400
        followed, lasts = [[], []], [LastState() for _ in range(n_paths - 2)]
        batch = run_trajectory(None, zero_scalar(grid16), spec, cfg, seed=31,
                               observer=[s.append for s in followed] + lasts, n_paths=n_paths)
        assert all(r.stats.status == "completed" for r in batch)
        for path, states in enumerate(followed):
            assert len(states) == cfg.n_steps + 1
            assert_zeta_oracle(states, spec, cfg, seed=31, path=path)
        finals = [l2_inner(st.zeta, w) / w_norm
                  for st in [s[-1] for s in followed] + [last.state for last in lasts]]
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
    """A batch evaluates sigma(v) of its rows once per visit and their noise
    once per step, for v and zeta together, and adds it only at the
    coefficients the noise modes touch."""

    def test_one_apply_G_and_one_sigma_per_step(self, grid32, rng, monkeypatch):
        # a batch of three paths: one sigma_values call per visit and one
        # apply_G call per step, each on all three rows
        rows = {"apply_G": [], "sigma_values": []}

        def counted(module, name):
            original = getattr(module, name)

            def wrapper(*args):
                rows[name].append(len(args[0]))
                return original(*args)

            monkeypatch.setattr(module, name, wrapper)

        counted(noise, "apply_G")
        counted(integrator, "sigma_values")
        spec = TestRotationalForm.spec(grid32, rng, "rational_square")
        cfg = SolverConfig(dt=1e-3, t_end=1e-2)
        xi0 = random_scalar_field(grid32, rng)
        batch = run_trajectory(None, xi0, spec, cfg, seed=3, n_paths=3)
        assert [r.stats.status for r in batch] == ["completed"] * 3
        assert cfg.n_steps == 10
        assert rows == {"apply_G": [3] * 10, "sigma_values": [3] * 11}

    def test_a_fault_planted_in_noise_reaches_the_step(self, grid32, rng, monkeypatch):
        # the step reads apply_G from `noise`, so a patch there reaches it
        spec = TestRotationalForm.spec(grid32, rng, "constant_one")
        cfg = SolverConfig(dt=1e-3, t_end=1e-2)
        xi0 = random_scalar_field(grid32, rng)
        clean = run_trajectory(None, xi0, spec, cfg, seed=3).stats
        original = noise.apply_G
        monkeypatch.setattr(noise, "apply_G", lambda *args: 2.0 * original(*args))
        doubled = run_trajectory(None, xi0, spec, cfg, seed=3).stats
        assert clean.status == doubled.status == "completed"
        assert doubled.sup_v_l2sq != clean.sup_v_l2sq
        assert doubled.int_grad_beta != clean.int_grad_beta

    def test_steps_change_only_the_touched_coefficients(self, grid32, rng):
        # every step of zeta is the dense oracle's, and zeta vanishes at
        # every coefficient the noise modes do not touch
        cfg = SolverConfig(dt=2e-3, t_end=0.02)
        xi0 = random_scalar_field(grid32, rng)
        for sigma_kind in ("constant_one", "rational_square"):
            spec = TestRotationalForm.spec(grid32, rng, sigma_kind)
            untouched = np.delete(np.arange(grid32.ksq.size),
                                  scatter_plan(spec, grid32).touched)
            _, (states,) = observed_states([(None, xi0, 2)], spec, cfg, seed=2)
            assert len(states) == cfg.n_steps + 1 and np.any(states[-1].zeta.half)
            assert_zeta_oracle(states, spec, cfg, seed=2, path=2)
            assert not any(np.any(st.zeta.half.reshape(-1)[untouched]) for st in states)


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
        last = LastState()
        res = run_trajectory(None, zero_scalar(grid16), ZERO_NOISE, cfg, seed=0, observer=last)
        assert res.stats.status == "completed"
        assert res.stats.sup_v_l2sq == 0.0
        assert res.stats.sup_xi_lq == 0.0
        assert l2_norm(last.state.xi) == 0.0

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
        last = LastState()
        run_trajectory(None, xi0, UNIT_NOISE, cfg, seed=9, observer=last)
        st = last.state
        defect = l2_norm(st.xi - (st.zeta + st.beta))
        assert defect <= 1e-12 * max(1.0, l2_norm(st.xi))

    def test_mean_zero_exact(self, grid32, rng):
        cfg = SolverConfig(dt=1e-3, t_end=0.02)
        xi0 = random_scalar_field(grid32, rng)
        last = LastState()
        run_trajectory(None, xi0, UNIT_NOISE, cfg, seed=2, observer=last)
        assert last.state.xi.coeffs[0, 0] == 0.0

    def test_deterministic_given_seed(self, grid16, rng):
        cfg = SolverConfig(dt=1e-2, t_end=0.1)
        xi0 = random_scalar_field(grid16, rng)
        a_states, b_states = [], []
        a = run_trajectory(None, xi0, UNIT_NOISE, cfg, seed=5, path_index=3,
                           observer=a_states.append)
        b = run_trajectory(None, xi0, UNIT_NOISE, cfg, seed=5, path_index=3,
                           observer=b_states.append)
        assert np.array_equal(a_states[-1].xi.coeffs, b_states[-1].xi.coeffs)
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
        st = State(0.0, biot_savart(xi0), xi0, zero_scalar(xi0.grid), xi0)
        states = [st]
        for step in range(cfg.n_steps):
            dW = sample_increment(seed, 0, step, spec, cfg.dt)
            st = State((step + 1) * cfg.dt,
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

    def test_non_finite_functional_is_a_blowup(self):
        # on so short a domain the vorticity, of order 1/L, overflows |xi|^4
        # while every L^2 norm the guard measures stays finite; the overflow
        # is judged as a blow-up, and raises no floating-point error
        grid = SpectralGrid(16, domain_length=1.0053e-152)
        xi0 = random_scalar_field(grid, np.random.default_rng(0), decay=0.0)
        cfg = SolverConfig(dt=0.005, t_end=0.05)
        with np.errstate(over="raise"):
            res = run_trajectory(None, xi0, UNIT_NOISE, cfg, seed=0)
        assert math.isinf(res.stats.sup_xi_lq)
        assert res.stats.status == "blowup"

    def test_squares_are_python_float_powers(self):
        # the functionals square on Python floats: x ** 2, which differs from
        # numpy's square in the last bit for some x (16 of these 20000), and
        # inf where it overflows; a NaN stays NaN
        x = np.random.default_rng(0).uniform(0.5, 2.0, 20000)
        want = np.array([value**2 for value in x.tolist()])
        assert np.any(np.square(x) != want)
        got = integrator._squares(np.append(x, [3e154, math.nan]).reshape(2, -1))
        assert np.array_equal(bits(got.ravel()[:-2]), bits(want))
        assert got[1, -2] == math.inf and math.isnan(got[1, -1])

    def test_norms_whose_squares_overflow_are_a_blowup(self, grid16):
        # ||v||, ||grad v|| and ||grad beta|| are finite, but their squares
        # overflow on floats: the path ends as a blow-up at its first state,
        # with those functionals inf, and raises no floating-point error
        xi0 = random_scalar_field(grid16, np.random.default_rng(0), amplitude=3e154)
        cfg = SolverConfig(dt=0.005, t_end=0.05)
        last = LastState()
        with np.errstate(over="raise"):
            res = run_trajectory(None, xi0, UNIT_NOISE, cfg, seed=0, observer=last)
        assert res.stats.status == "blowup" and last.state.t == 0.0
        assert math.isfinite(l2_norm(last.state.v))
        for name in ("sup_v_l2sq", "int_grad_v", "int_grad_beta"):
            assert math.isinf(res.stats.functional(name)), name


class TestRotationalForm:
    """run_trajectory takes P B(v,v) from the rotational velocity_drift, fed
    the vorticity values it also uses for sup_xi_lq; P B(v,v) of the
    advective oracle `bilinear_B` is what it must reproduce."""

    MODES = ((1, 0), (0, 1), (1, 1), (-2, 1))

    @staticmethod
    def spec(grid, rng, sigma_kind, modes=MODES):
        pivot = None
        if sigma_kind == "rational_square":
            pivot = random_divfree_field(grid, rng, amplitude=4.0)
        return CovarianceSpec(modes, (1.0, 0.8, 0.6, 0.5, 0.4)[:len(modes)], 0.5,
                              sigma_kind, pivot)

    @pytest.mark.parametrize("sigma_kind", ["constant_one", "rational_square"])
    def test_matches_advective_form(self, grid32, rng, monkeypatch, sigma_kind):
        spec = self.spec(grid32, rng, sigma_kind)
        xi0 = random_scalar_field(grid32, rng, amplitude=3.0)
        cfg = SolverConfig(dt=2e-3, t_end=0.12)
        states, oracle_states = [], []
        res = run_trajectory(None, xi0, spec, cfg, seed=13, observer=states.append)
        monkeypatch.setattr(operators, "velocity_drift",
                            stacked_drift(lambda v, w: leray_project(bilinear_B(v, v))))
        oracle = run_trajectory(None, xi0, spec, cfg, seed=13, observer=oracle_states.append)
        assert cfg.n_steps == 60 and res.stats.status == oracle.stats.status == "completed"
        assert not np.any(states[-1].xi.half[~grid32.dealias_mask])
        assert len(states) == len(oracle_states) == cfg.n_steps + 1
        for got, want in zip(states, oracle_states):
            assert got.t == want.t
            for name in ("v", "xi", "zeta", "beta"):
                a, b = getattr(got, name), getattr(want, name)
                assert l2_norm(a - b) <= 1e-12 * l2_norm(b), (got.t, name)
            if got.t > 0:
                # the step's shared values are exactly the dealiased vorticity
                assert np.array_equal(to_physical(got.xi), vorticity_values(got.v))
        for name in res.stats.FUNCTIONALS:
            a, b = res.stats.functional(name), oracle.stats.functional(name)
            assert abs(a - b) <= 1e-12 * abs(b), name

    def test_transforms_per_step(self, grid32, rng, monkeypatch):
        # per step: beta's L^q norm, u (both components batched), the products
        # (batched) and the new vorticity; before the loop xi0 and curl v0,
        # after it beta's norm.  Each is a column pass (the complex length-N
        # transform along axis -2) over the dealias band's L + 1 columns of a
        # half and a row pass (the real transform along axis -1) over every
        # row: no 2-D and no full complex transform is left.
        spec = self.spec(grid32, rng, "rational_square")
        xi0 = random_scalar_field(grid32, rng)
        calls = []
        for name in ("fft", "ifft", "rfft", "irfft", "fft2", "ifft2", "rfft2", "irfft2",
                     "fftn", "ifftn", "rfftn", "irfftn"):
            original = getattr(np.fft, name)

            def counted(a, *args, _original=original, _name=name, **kwargs):
                calls.append((_name, kwargs.get("axis"), np.shape(a)[-1]))
                return _original(a, *args, **kwargs)

            monkeypatch.setattr(np.fft, name, counted)
        n_grid = grid32.modes_per_dim
        band, whole = grid32.dealias_limit + 1, n_grid // 2 + 1
        inverse = [("ifft", -2, band), ("irfft", -1, whole)]
        step = inverse * 2 + [("rfft", -1, n_grid), ("fft", -2, band)] + inverse
        for n in (5, 10):
            calls.clear()
            cfg = SolverConfig(dt=1e-3, t_end=n * 1e-3)
            assert run_trajectory(None, xi0, spec, cfg, seed=3).stats.status == "completed"
            assert calls == inverse * 2 + step * n + inverse

    REFUSALS = {
        "noise": "^noise mode [(]12, 0[)] lies outside the dealias band",
        "xi0": "^initial vorticity has a coefficient outside the dealias band",
        "tiny": "^initial vorticity has a coefficient outside the dealias band",
        "v0": "^initial velocity has a coefficient outside the dealias band",
    }

    @pytest.mark.parametrize("case", REFUSALS)
    def test_data_outside_the_dealias_band_is_refused(self, grid32, rng, case):
        # every evolved field lives in the dealias band: a noise mode past it
        # is refused, and so is initial data with a coefficient there, however
        # small: xi0 = curl v0 plus 1e-12 of its peak passes curl's tolerance,
        # and a gradient past the band leaves curl v0 unchanged
        v0 = random_divfree_field(grid32, rng)
        xi0 = curl(v0)
        modes = self.MODES + ((12, 0),) if case == "noise" else self.MODES
        spec = self.spec(grid32, rng, "rational_square", modes)
        c = np.zeros((32, 32), dtype=complex)
        c[12, 3] = c[-12, -3] = 0.05
        if case == "xi0":
            v0, xi0 = None, xi0 + ScalarField.from_lattice(grid32, c)
        if case == "tiny":
            half = xi0.half.copy()
            half[3, grid32.dealias_limit + 2] = 1e-12 * np.max(np.abs(half))
            xi0 = ScalarField(grid32, half)
        if case == "v0":
            v0 = v0 + gradient(ScalarField.from_lattice(grid32, c))
            assert l2_norm(curl(v0) - xi0) <= 1e-15 * l2_norm(xi0)
        cfg = SolverConfig(dt=1e-3, t_end=5e-3)
        with pytest.raises(ValueError, match=self.REFUSALS[case]):
            run_trajectory(v0, xi0, spec, cfg, seed=3)
        with pytest.raises(ValueError, match=self.REFUSALS[case]):
            next(integrator.trajectories([(v0, xi0, 0)], spec, cfg, seed=3))


def complex_physical_values(halves):
    """The complex-transform reference of spectral.physical_values: ifft2 of
    each half's full spectrum, real part.  Takes a block of a half's first
    columns, as physical_values does, the columns past it zero."""
    n = halves.shape[-2]
    return (np.fft.ifft2(lattice(whole_halves(halves))) * (n * n)).real


def complex_spectral_of(values, grid):
    """The complex-transform reference of operators._spectral_of, cut to
    the half spectrum."""
    n = grid.modes_per_dim
    return (np.fft.fft2(values) / (n * n))[..., : n // 2 + 1] * grid.dealias_mask


class TestRealTransforms:
    """The step's transforms read and write half spectra; the complex
    transforms of the full spectrum are the reference they must match, to
    rounding, over a whole trajectory."""

    @pytest.mark.parametrize("sigma_kind", ["constant_one", "rational_square"])
    def test_matches_the_complex_transforms(self, grid32, rng, monkeypatch, sigma_kind):
        from vortex import operators, spectral

        spec = TestRotationalForm.spec(grid32, rng, sigma_kind)
        xi0 = random_scalar_field(grid32, rng, amplitude=3.0)
        cfg = SolverConfig(dt=2e-3, t_end=0.12)
        states, oracle_states = [], []
        res = run_trajectory(None, xi0, spec, cfg, seed=13, observer=states.append)
        for module in (spectral, operators, integrator):
            monkeypatch.setattr(module, "physical_values", complex_physical_values)
        monkeypatch.setattr(operators, "_spectral_of", complex_spectral_of)

        def refused(*args, **kwargs):
            raise AssertionError("a real transform ran in the reference trajectory")

        for name in ("rfft", "irfft", "rfft2", "irfft2"):
            monkeypatch.setattr(np.fft, name, refused)
        oracle = run_trajectory(None, xi0, spec, cfg, seed=13, observer=oracle_states.append)
        assert cfg.n_steps == 60 and res.stats.status == oracle.stats.status == "completed"
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
            run_trajectory(VectorField.stack(v0.vx + odd * 1e-3, v0.vy), xi0, ZERO_NOISE, cfg,
                           seed=0)
        nan = c * 0.0
        nan[2, 3] = np.nan
        with pytest.raises(ValueError, match="^initial velocity must be finite"):
            run_trajectory(VectorField.stack(v0.vx, v0.vy + ScalarField(grid16, nan)), xi0,
                           ZERO_NOISE, cfg, seed=0)


class TestBatchedPaths:
    """run_trajectory with n_paths, and the loop `trajectories` under it,
    step a batch of rows as one stack; each row gives the repr-identical
    stats and status, and the bit-identical states, of its one-path run."""

    @staticmethod
    def same_states(got, want):
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert a.t == b.t
            for name in ("v", "xi", "zeta", "beta"):
                assert np.array_equal(bits(getattr(a, name).half), bits(getattr(b, name).half))

    # a small xi0 leaves the noise to set the suprema, late in the run
    @pytest.mark.parametrize("sigma_kind, level, q, amplitude", [
        ("constant_one", math.inf, 4.0, 0.05), ("constant_one", math.inf, 3.0, 0.05),
        ("rational_square", math.inf, 3.0, 3.0), ("rational_square", 10.0, 4.0, 3.0),
        ("constant_one", 1.0, 2.0, 0.05),
    ])
    def test_rows_match_one_path_runs(self, grid32, rng, sigma_kind, level, q, amplitude):
        spec = TestRotationalForm.spec(grid32, rng, sigma_kind).with_hy_level(level)
        xi0 = random_scalar_field(grid32, rng, amplitude=amplitude)
        cfg = SolverConfig(dt=2e-3, t_end=0.04)
        states = [[] for _ in range(4)]
        batch = run_trajectory(None, xi0, spec, cfg, seed=5, path_index=3, lq_exponent=q,
                               observer=[s.append for s in states], n_paths=4)
        assert len(batch) == 4
        for i, got in enumerate(batch):
            seen = []
            want = run_trajectory(None, xi0, spec, cfg, seed=5, path_index=3 + i,
                                  lq_exponent=q, observer=seen.append)
            assert got.stats.status == "completed"
            assert repr(got.stats) == repr(want.stats)
            self.same_states(states[i], seen)
        assert len({repr(r.stats) for r in batch}) == 4  # the paths differ

    def test_rows_with_different_initial_velocities(self, grid32, rng):
        # the Gronwall shape: two initial velocities on one path, one on another
        spec = TestRotationalForm.spec(grid32, rng, "rational_square")
        cfg = SolverConfig(dt=2e-3, t_end=0.03)
        v0s = [random_divfree_field(grid32, rng, amplitude=a) for a in (1.0, 2.0, 0.5)]
        rows = [(v0, curl(v0), path) for v0, path in zip(v0s, (1, 1, 2))]
        visits = list(integrator.trajectories(rows, spec, cfg, seed=7))
        assert [vis.step for vis in visits] == list(range(cfg.n_steps + 1))
        for r, row in enumerate(rows):
            alone = list(integrator.trajectories([row], spec, cfg, seed=7))
            for vis, one in zip(visits, alone):
                assert vis.alive.tolist() == [True] * 3 and one.alive.tolist() == [True]
                for name in ("v", "xi", "zeta", "xi_values", "v_norm"):
                    assert np.array_equal(bits(getattr(vis, name)[r]), bits(getattr(one, name)[0]))

    def test_rows_share_one_draw_per_path_and_step(self, grid32, rng, monkeypatch):
        drawn = []
        real = integrator.sample_increment
        monkeypatch.setattr(integrator, "sample_increment",
                            lambda seed, path, step, *a: drawn.append((path, step)) or
                            real(seed, path, step, *a))
        v0 = random_divfree_field(grid32, rng)
        cfg = SolverConfig(dt=2e-3, t_end=0.01)
        rows = [(v0, curl(v0), p) for p in (4, 4, 9)]
        assert len(list(integrator.trajectories(rows, UNIT_NOISE, cfg, seed=1))) == 6
        assert drawn == [(p, step) for step in range(5) for p in (4, 9)]

    @pytest.mark.parametrize("n", [32, 256])
    def test_sigma_and_noise_rows_match_one_row_evaluations(self, rng, monkeypatch, n):
        # under rational_square sigma, with row 1 ended at step 1: each live
        # row of Visit.sigma, and of the one apply_G call of each step, has the
        # bits of the one-field sigma and increment; the ended row's noise is 0
        grid = SpectralGrid(n)
        spec = CovarianceSpec(tuple(_band_modes(2)), tuple(0.3 + 0.05 * i for i in range(24)),
                              0.5, "rational_square",
                              random_divfree_field(grid, rng, amplitude=4.0), 10.0)
        v0s = [random_divfree_field(grid, rng, amplitude=a) for a in (0.5, 1.0, 2.0)]
        rows = [(v0, curl(v0), path) for v0, path in zip(v0s, (3, 3, 8))]
        cfg = SolverConfig(dt=2e-3, t_end=6e-3)
        calls, real = [], noise.apply_G

        def recorded(*args):
            calls.append(real(*args))
            return calls[-1]

        monkeypatch.setattr(noise, "apply_G", recorded)
        visits = []
        for vis in integrator.trajectories(rows, spec, cfg, seed=4):
            visits.append(vis)
            assert vis.sigma.shape == (3,)
            for r in np.flatnonzero(vis.alive):
                assert bits(vis.sigma[r]) == bits(sigma_of(VectorField(grid, vis.v[r]), spec))
            if vis.step == 1:
                vis.end(1)
        assert len(calls) == cfg.n_steps == 3
        for step, (vis, out) in enumerate(zip(visits, calls)):
            assert out.shape == (3, 3, len(scatter_plan(spec, grid).touched))
            for r, (_, _, path) in enumerate(rows):
                if not vis.alive[r]:
                    assert not np.any(out[r])
                    continue
                dW = sample_increment(4, path, step, spec, cfg.dt)
                want = apply_G_of(VectorField(grid, vis.v[r]), dW, spec)
                assert np.array_equal(bits(out[r]), bits(want)), (step, r)
        assert [vis.alive.tolist() for vis in visits[1:]] == [[True, False, True]] * 3

    def test_a_row_that_blows_up_leaves_the_batch(self, grid32, rng):
        # a threshold between the paths' largest norms: some rows blow up mid-run
        # and leave the batch, the others complete; no floating-point warning
        spec = CovarianceSpec(((1, 0), (0, 1), (1, 1)), (2.0, 2.0, 2.0), 0.5, "constant_one")
        xi0 = random_scalar_field(grid32, rng, amplitude=0.1)
        calm = SolverConfig(dt=2e-3, t_end=0.04)
        sups = sorted(run_trajectory(None, xi0, spec, calm, seed=2, path_index=p)
                      .stats.sup_v_l2sq for p in range(4))
        threshold = math.sqrt((sups[1] + sups[2]) / 2.0)
        assert l2_norm(biot_savart(xi0)) < threshold
        cfg = SolverConfig(dt=2e-3, t_end=0.04, blowup_threshold=threshold)
        lasts = [LastState() for _ in range(4)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            batch = run_trajectory(None, xi0, spec, cfg, seed=2, observer=lasts, n_paths=4)
        for p, got in enumerate(batch):
            alone = LastState()
            want = run_trajectory(None, xi0, spec, cfg, seed=2, path_index=p, observer=alone)
            assert repr(got.stats) == repr(want.stats)
            self.same_states([lasts[p].state], [alone.state])
        assert sorted(r.stats.status for r in batch) == ["blowup"] * 2 + ["completed"] * 2
        assert all(last.state.t < cfg.t_end
                   for r, last in zip(batch, lasts) if r.stats.status == "blowup")

    def test_an_ended_row_leaves_the_batch(self, grid32, rng):
        # a consumer that ends a row mid-run: the others step on unchanged
        v0 = random_divfree_field(grid32, rng)
        cfg = SolverConfig(dt=2e-3, t_end=0.02)
        rows = [(v0, curl(v0), p) for p in range(3)]
        visits = []
        for vis in integrator.trajectories(rows, UNIT_NOISE, cfg, seed=3):
            visits.append(vis)
            if vis.step == 4:
                vis.end(1)
        assert ([vis.alive.tolist() for vis in visits]
                == [[True] * 3] * 4 + [[True, False, True]] * (cfg.n_steps - 3))
        for r in (0, 2):
            alone = list(integrator.trajectories([rows[r]], UNIT_NOISE, cfg, seed=3))
            for vis, one in zip(visits, alone):
                assert np.array_equal(bits(vis.v[r]), bits(one.v[0]))

    STACKS = ("v", "xi", "zeta", "xi_values", "v_norm")

    def test_rows_keep_their_places_to_the_last_visit(self, rng):
        # on a torus of side 4 pi the low modes have |k| < 1 and ||xi|| stays
        # below ||v||, so rows 3 and 4 blow up at the velocity guard, at steps
        # 11 and 17; a consumer ends row 1 at step 4.  Every visit holds all
        # five rows in row order; a finished row is marked dead and holds zeros
        # from the next visit on; every other row has the bits of its one-path run
        grid = SpectralGrid(32, domain_length=4 * math.pi)
        spec = CovarianceSpec(((1, 0), (0, 1), (1, 1)), (2.0, 2.0, 2.0), 0.5, "constant_one")
        xi0 = random_scalar_field(grid, rng, amplitude=0.1)
        rows = [(None, xi0, p) for p in range(5)]
        calm = SolverConfig(dt=2e-3, t_end=0.04)
        alone = [list(integrator.trajectories([row], spec, calm, seed=2)) for row in rows]
        peaks = sorted(max(vis.v_norm[0] for vis in one[1:]) for one in alone)
        cfg = SolverConfig(dt=2e-3, t_end=0.04, blowup_threshold=float(peaks[2] + peaks[3]) / 2)
        assert [next((vis.step for vis in one if vis.v_norm[0] > cfg.blowup_threshold), None)
                for one in alone] == [None, None, None, 11, 17]
        assert all(l2_norm(vis.state(0).xi) <= cfg.blowup_threshold
                   for one in alone for vis in one)
        dead_from, zeros_from = {1: 4, 3: 11, 4: 17}, {1: 5, 3: 11, 4: 17}
        visits = []
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for vis in integrator.trajectories(rows, spec, cfg, seed=2):
                visits.append(vis)
                if vis.step == 4:
                    vis.end(1)
        assert [vis.step for vis in visits] == list(range(cfg.n_steps + 1))
        for vis in visits:
            assert vis.alive.tolist() == [vis.step < dead_from.get(r, math.inf)
                                          for r in range(5)]
            for name in self.STACKS:
                stack = getattr(vis, name)
                assert stack.shape[0] == 5
                for r in range(5):
                    if vis.step >= zeros_from.get(r, math.inf):
                        assert not np.any(stack[r])
                    else:
                        want = getattr(alone[r][vis.step], name)[0]
                        assert np.array_equal(bits(stack[r]), bits(want))

    def test_an_ended_rows_last_visit_keeps_its_values(self, grid32, rng):
        # a finished row is zeroed in new arrays, never in those a visit holds:
        # its last visit, whose state an observer may keep, still holds its
        # values after the loop has stepped on
        v0 = random_divfree_field(grid32, rng)
        cfg = SolverConfig(dt=2e-3, t_end=0.02)
        rows = [(v0, curl(v0), p) for p in range(3)]
        last = None
        for vis in integrator.trajectories(rows, UNIT_NOISE, cfg, seed=3):
            if vis.step == 4:
                vis.end(1)
                last = vis, {name: getattr(vis, name)[1].copy() for name in self.STACKS}
        vis, yielded = last
        assert np.any(yielded["v"])
        for name, values in yielded.items():
            assert np.array_equal(bits(getattr(vis, name)[1]), bits(values))

    def test_non_finite_functionals_end_every_row(self):
        # |xi|^4 overflows on so short a domain: every row ends as a blow-up
        grid = SpectralGrid(16, domain_length=1.0053e-152)
        xi0 = random_scalar_field(grid, np.random.default_rng(0), decay=0.0)
        cfg = SolverConfig(dt=0.005, t_end=0.05)
        with np.errstate(over="raise"):
            batch = run_trajectory(None, xi0, UNIT_NOISE, cfg, seed=0, n_paths=3)
        assert [r.stats.status for r in batch] == ["blowup"] * 3
        assert all(math.isinf(r.stats.sup_xi_lq) for r in batch)


class TestZetaStorage:
    """The loop stores zeta as (P, T), its coefficients at the T flat
    indices `touched` of the noise's scatter plan, where the noise adds; it
    is zero at every other coefficient.  beta and an observer's dense zeta
    must have the bits of the dense fields built from it."""

    @staticmethod
    def dense(zeta, spec, grid):
        """zeta (P, T) scattered into zeroed (P, N, N/2+1) halves."""
        out = np.zeros((len(zeta), grid.ksq.size), dtype=np.complex128)
        out[:, scatter_plan(spec, grid).touched] = zeta
        return out.reshape((len(zeta),) + grid.ksq.shape)

    @pytest.mark.parametrize("case", ["constant_one", "rational_square", "hy_level"])
    def test_beta_and_states_match_the_dense_fields(self, grid32, rng, case):
        # three rows on two paths; a consumer ends row 1 at step 4, and from
        # the next visit on its zeta holds zeros
        spec = TestRotationalForm.spec(grid32, rng, "rational_square" if case == "rational_square"
                                       else "constant_one")
        if case == "hy_level":
            spec = spec.with_hy_level(10.0)
        xi0 = random_scalar_field(grid32, rng, amplitude=3.0)
        cfg = SolverConfig(dt=2e-3, t_end=0.02)
        rows = [(None, xi0, p) for p in (0, 1, 1)]
        visits, states = observed_states(rows, spec, cfg, seed=6, end_at={1: 4})
        touched = scatter_plan(spec, grid32).touched
        assert [vis.step for vis in visits] == list(range(cfg.n_steps + 1))
        for vis in visits:
            assert vis.zeta.shape == (3, len(touched))
            dense = self.dense(vis.zeta, spec, grid32)
            assert np.array_equal(bits(vis.beta), bits(vis.xi - dense))
            for r in np.flatnonzero(vis.alive):
                st = states[r][vis.step]
                assert np.array_equal(bits(st.zeta.half), bits(dense[r]))
                assert np.array_equal(bits(st.beta.half), bits(vis.xi[r] - dense[r]))
            assert np.any(vis.zeta[1]) == (0 < vis.step <= 4)
        assert np.all(visits[-1].zeta[[0, 2]])
        for r, (_, _, path) in enumerate(rows):
            assert_zeta_oracle(states[r], spec, cfg, seed=6, path=path)

    def test_observers_samples_do_not_alias(self, grid32, rng):
        # each dense zeta an observer sees is its own array: samples of
        # different visits and rows share no memory, and keep their values
        # after the loop has stepped on
        spec = TestRotationalForm.spec(grid32, rng, "constant_one")
        cfg = SolverConfig(dt=2e-3, t_end=0.02)
        xi0 = random_scalar_field(grid32, rng)
        samples = [[], []]
        run_trajectory(None, xi0, spec, cfg, seed=8,
                       observer=[lambda st, s=s: s.append(st.zeta) for s in samples], n_paths=2)
        flat = samples[0] + samples[1]
        assert len(flat) == 2 * (cfg.n_steps + 1)
        for i, a in enumerate(flat):
            for b in flat[i + 1:]:
                assert not np.shares_memory(a.half, b.half)
        for path, got in enumerate(samples):
            want = []
            run_trajectory(None, xi0, spec, cfg, seed=8, path_index=path,
                           observer=lambda st: want.append(st.zeta))
            assert all(np.array_equal(bits(x.half), bits(y.half)) for x, y in zip(got, want))
