"""Verification harness: reports, uniformity checks, Gronwall contraction,
identity suites and stochastic-integral constants."""

import math

import numpy as np
import pytest

from oracles import abs_brownian_sup_moment, discrete_sup_sq_oracle
from vortex.config import _single_mode_vector
from vortex.harness import (
    CheckResult,
    HolderProbe,
    bdg_report,
    energy_report,
    estimate_lipschitz_lg,
    estimate_sigma_lipschitz,
    gronwall_pair,
    gronwall_uniqueness,
    hy_uniformity,
    identity_suite,
    measure_gn_constant,
    run_paths,
    simulate_bdg_sups,
    sweep,
    zeta_budget,
    zeta_regularity,
)
from vortex import harness, integrator
from vortex.integrator import SolverConfig, TrajectoryStats, holder_quotient, run_trajectory
from vortex.noise import CovarianceSpec
from vortex.operators import (
    bilinear_B,
    biot_savart,
    random_divfree_field,
    random_scalar_field,
)
from vortex.spectral import ScalarField, SpectralGrid, l2_norm, regrid

ZERO_NOISE = CovarianceSpec(((1, 0),), (0.1,), 0.5, "zero")
SMALL_NOISE = CovarianceSpec(((1, 0), (0, 1), (1, 1), (-1, 0)),
                             (0.2, 0.15, 0.1, 0.1), 0.5, "constant_one")


def make_stats(**kw):
    base = dict(sup_v_l2sq=1.0, int_grad_v=2.0, sup_xi_lq=0.5, sup_beta_l2=0.4,
                int_grad_beta=1.0, sup_beta_lq=0.6, status="completed")
    base.update(kw)
    return TrajectoryStats(**base)


class TestCheckResult:
    def test_passed_iff_observed_below_bound(self):
        assert CheckResult.evaluate("x", 1.0, 2.0, 1, 0).passed
        assert not CheckResult.evaluate("x", 3.0, 2.0, 1, 0).passed
        assert not CheckResult.evaluate("x", math.nan, 2.0, 1, 0).passed
        assert CheckResult.evaluate("x", 0.0, 0.0, 1, 0).passed

    def test_json_payload_fields(self):
        d = CheckResult.evaluate("x", 1.0, 2.0, 5, 7, extra={"z": 1}).to_dict()
        assert sorted(d) == ["bound", "n_samples", "name", "observed", "passed", "seed"]


class TestPathWorkers:
    @pytest.mark.parametrize("n, cpus, want", [
        (32, 8, 1), (64, 8, 1), (64, 2, 1), (128, 2, 2), (256, 8, 4), (256, 2, 2),
        (256, 1, 1), (256, None, 1),
    ])
    def test_serial_below_the_pool_grid(self, monkeypatch, n, cpus, want):
        monkeypatch.setattr(harness.os, "cpu_count", lambda: cpus)
        assert harness.path_workers(SpectralGrid(n)) == want

    def test_drivers_take_the_count_from_their_grid(self, grid16, rng, monkeypatch):
        # the sweep and the Gronwall pairs run on their grid, BDG on its largest frame
        seen, real = [], harness.run_paths

        def spy(worker, n_paths, workers):
            seen.append(workers)
            return real(worker, n_paths, 1)

        monkeypatch.setattr(harness, "run_paths", spy)
        monkeypatch.setattr(harness, "path_workers", lambda grid: grid.modes_per_dim)
        xi0 = random_scalar_field(grid16, rng)
        v0 = biot_savart(xi0)
        cfg = SolverConfig(dt=5e-3, t_end=0.01)
        sweep(SMALL_NOISE, None, xi0, cfg, 1, 2)
        gronwall_uniqueness(v0, v0, SMALL_NOISE, cfg, 2, 1, gn_trials=5, lg_trials=2)
        fine = SpectralGrid(32)
        simulate_bdg_sups([(SMALL_NOISE, v0), (SMALL_NOISE, regrid(v0, fine))],
                          2.0, 2, 1, 0.02, 0.01)
        assert seen == [16, 16, 32]


class TestRunPaths:
    def test_order_fixed(self):
        out = run_paths(lambda i: i * i, 7, workers=3)
        assert out == [i * i for i in range(7)]

    def test_single_worker_same_result(self):
        a = run_paths(lambda i: i + 1, 5, workers=1)
        b = run_paths(lambda i: i + 1, 5, workers=4)
        assert a == b


class TestEnergyReport:
    def test_zero_trajectories(self):
        stats = [make_stats(sup_v_l2sq=0.0, int_grad_v=0.0, sup_xi_lq=0.0,
                            sup_beta_l2=0.0, int_grad_beta=0.0, sup_beta_lq=0.0)
                 for _ in range(4)]
        out = energy_report(stats, {}, seed=1)
        assert all(r.passed for r in out)
        assert all(r.observed == 0.0 for r in out)

    def test_deterministic_stats_zero_stderr(self):
        stats = [make_stats() for _ in range(8)]
        out = energy_report(stats, {"sup_v_l2sq": 10.0}, seed=1)
        by_name = {r.name: r for r in out}
        assert by_name["energy.sup_v_l2sq"].extra["stderr"] == 0.0
        assert by_name["energy.sup_v_l2sq"].observed == 1.0

    def test_ceiling_violation_fails(self):
        stats = [make_stats() for _ in range(4)]
        out = energy_report(stats, {"int_grad_v": 0.5}, seed=1)
        by_name = {r.name: r for r in out}
        assert not by_name["energy.int_grad_v"].passed

    def test_blowup_fails_with_diagnostic(self):
        stats = [make_stats(), make_stats(status="blowup")]
        out = energy_report(stats, {}, seed=1)
        assert len(out) == 1
        assert not out[0].passed
        assert "blew up" in out[0].extra["diagnostic"]

    def test_requires_two_paths(self):
        with pytest.raises(ValueError):
            energy_report([make_stats()], {}, seed=1)

    def test_nan_initial_vorticity_fails_closed(self, grid16, rng):
        half = random_scalar_field(grid16, rng).half.copy()
        half[1, 2] = np.nan
        xi0 = ScalarField(grid16, half)
        cfg = SolverConfig(dt=0.01, t_end=0.05)
        with pytest.raises(ValueError, match="initial vorticity must be finite"):
            run_trajectory(None, xi0, SMALL_NOISE, cfg, seed=3)
        with pytest.raises(ValueError, match="finite vorticity"):
            biot_savart(xi0)
        # energy_report never passes non-finite stats, blown up or completed
        for status in ("blowup", "completed"):
            stats = [make_stats(**dict.fromkeys(TrajectoryStats.FUNCTIONALS, math.nan),
                                status=status) for _ in range(2)]
            out = energy_report(stats, {}, seed=3)
            assert out and not any(r.passed for r in out)

    def test_seed_split_stability(self, grid16):
        # disjoint seed batches agree on the means to within 20 percent
        from vortex.integrator import run_trajectory
        from vortex.noise import initial_rng
        from vortex.operators import random_scalar_field as rsf

        cfg = SolverConfig(dt=5e-3, t_end=0.1)
        xi0 = rsf(grid16, np.random.default_rng(3))

        def batch(seed):
            vals = []
            for p in range(8):
                res = run_trajectory(None, xi0, SMALL_NOISE, cfg, seed=seed,
                                     path_index=p)
                vals.append(res.stats.sup_v_l2sq)
            return np.mean(vals)

        a, b = batch(100), batch(200)
        assert abs(a - b) <= 0.2 * max(a, b)


def swept_hy(levels, spec, xi0, cfg, n_paths, base_seed):
    """hy_uniformity reduced from a sweep that integrates exactly its paths."""
    results = sweep(spec, None, xi0, cfg, base_seed, 0, demands=[(levels, n_paths, None)])
    return hy_uniformity(results, levels, n_paths, base_seed)


def swept_zeta(spec, xi0, cfg, levels, n_paths, base_seed, beta, delta, p, q, stride):
    """zeta_regularity reduced from a sweep that integrates exactly its paths."""
    zeta_budget(spec.roughness, beta, delta, p)
    probe = HolderProbe(beta, delta, q, stride)
    results = sweep(spec, None, xi0, cfg, base_seed, 0, demands=[(levels, n_paths, probe)])
    return zeta_regularity(results, levels, n_paths, base_seed, probe, p)


class TestHyUniformity:
    def test_noise_off_ratio_exactly_one(self, grid16, rng):
        xi0 = random_scalar_field(grid16, rng)
        cfg = SolverConfig(dt=5e-3, t_end=0.05)
        out = swept_hy([1.0, 10.0, math.inf], ZERO_NOISE, xi0, cfg,
                       n_paths=2, base_seed=4)
        assert out.observed == 1.0
        assert out.passed

    def test_reduced_scale_uniformity(self, grid16, rng):
        xi0 = random_scalar_field(grid16, rng)
        cfg = SolverConfig(dt=5e-3, t_end=0.1)
        out = swept_hy([1.0, 10.0, math.inf], SMALL_NOISE, xi0, cfg,
                       n_paths=4, base_seed=4)
        assert out.passed
        assert out.observed >= 1.0

    def test_needs_two_levels(self, grid16, rng):
        xi0 = random_scalar_field(grid16, rng)
        cfg = SolverConfig(dt=5e-3, t_end=0.05)
        with pytest.raises(ValueError):
            swept_hy([1.0], ZERO_NOISE, xi0, cfg, 2, 0)


class TestZetaRegularity:
    def test_refuses_vacuous_parameters(self, grid16, rng):
        xi0 = random_scalar_field(grid16, rng)
        cfg = SolverConfig(dt=5e-3, t_end=0.05)
        # beta + delta/2 + 1/p = 0.2 + 0 + 0.25 = 0.45 >= (1-0.5)/2
        with pytest.raises(ValueError, match="refused"):
            swept_zeta(SMALL_NOISE, xi0, cfg, [1.0, math.inf],
                       2, 0, beta=0.2, delta=0.0, p=4.0, q=2.0, stride=8)

    def test_runs_and_reports_stability(self, grid16, rng):
        xi0 = random_scalar_field(grid16, rng)
        cfg = SolverConfig(dt=2e-3, t_end=0.128)
        out = swept_zeta(SMALL_NOISE, xi0, cfg, [10.0, math.inf],
                         n_paths=6, base_seed=11,
                         beta=0.2, delta=0.0, p=32.0, q=2.0, stride=4)
        assert np.isfinite(out.observed)
        assert out.passed, out.extra
        assert len(out.extra["moment_means"]) == 2
        assert all(q > 0 for q in out.extra["quotient_means"])

    def test_quotient_stable_under_dt_halving(self, grid16, rng):
        # OU paths are (almost) 1/2-Holder; a beta=0.2 quotient stays finite
        # and grows less than 1.5x when dt halves
        xi0 = random_scalar_field(grid16, rng)
        quotients = []
        for dt in (4e-3, 2e-3):
            cfg = SolverConfig(dt=dt, t_end=0.128)
            out = swept_zeta(SMALL_NOISE, xi0, cfg, [math.inf],
                             n_paths=4, base_seed=13, beta=0.2, delta=0.0,
                             p=32.0, q=2.0, stride=4)
            quotients.append(out.extra["quotient_means"][0])
        assert quotients[1] <= 1.5 * quotients[0]

    def test_nan_quotient_fails(self, grid16, rng, monkeypatch):
        # one NaN pair per path: the quotient keeps it, and the check FAILs
        def nan_last(zetas, times, *args):
            zetas = zetas[:-1] + [zetas[-1] * np.nan]
            return holder_quotient(zetas, times, *args)

        monkeypatch.setattr(harness, "holder_quotient", nan_last)
        xi0 = random_scalar_field(grid16, rng)
        cfg = SolverConfig(dt=2e-3, t_end=0.064)
        out = swept_zeta(SMALL_NOISE, xi0, cfg, [10.0, math.inf], n_paths=2, base_seed=11,
                         beta=0.2, delta=0.0, p=32.0, q=2.0, stride=4)
        assert out.name == "zeta_regularity"
        assert not out.passed and out.observed == math.inf
        assert all(math.isnan(m) for m in out.extra["quotient_means"])


class TestSweep:
    def test_snapshot_emission(self, grid16, rng, tmp_path):
        # the main Monte-Carlo paths write xi every stride steps; paths a
        # check adds at the main level write none
        from vortex.spectral import read_snapshot

        cfg = SolverConfig(dt=0.01, t_end=0.05)
        xi0 = random_scalar_field(grid16, rng)
        sweep(ZERO_NOISE, None, xi0, cfg, 0, 3, demands=[([math.inf], 5, None)],
              snapshot_dir=tmp_path, snapshot_stride=2)
        files = sorted(tmp_path.glob("*.vspd"))
        assert [f.name for f in files] == [
            f"path{p:04d}_step{s:06d}.vspd" for p in range(3) for s in (0, 2, 4)
        ]
        first = read_snapshot(files[0])
        assert np.max(np.abs(first.coeffs - xi0.coeffs)) < 1e-13

    @pytest.mark.parametrize("q", [2.0, 4.0])
    def test_reductions_match_one_trajectory_per_level_and_path(self, grid16, rng, q):
        xi0 = random_scalar_field(grid16, rng)
        cfg = SolverConfig(dt=5e-3, t_end=0.05)
        levels, n_paths, seed, stride = [10.0, math.inf], 3, 6, 3  # 10 steps: the end counts
        probe = HolderProbe(0.2, 0.5 if q == 4.0 else 0.0, q, stride)
        # the main level asks for fewer paths than the checks
        results = sweep(SMALL_NOISE, None, xi0, cfg, seed, 2,
                        demands=[(levels, n_paths, None), (levels, n_paths, probe)])
        assert {n: len(r) for n, r in results.items()} == {math.inf: 3, 10.0: 3}

        means, moments, quotient_means = [], [], []
        for n in levels:
            stats, quots = [], []
            for p in range(n_paths):
                states = []
                res = run_trajectory(None, xi0, SMALL_NOISE.with_hy_level(n), cfg,
                                     seed=seed, path_index=p, observer=states.append)
                recorded = states[::stride] + ([states[-1]] if cfg.n_steps % stride else [])
                stats.append(res.stats)
                quots.append(holder_quotient([st.zeta for st in recorded],
                                             [st.t for st in recorded],
                                             probe.beta, probe.delta, q))
            assert [repr(r.stats) for r in results[n]] == [repr(s) for s in stats]
            means.append({f: float(np.mean([s.functional(f) for s in stats]))
                          for f in TrajectoryStats.FUNCTIONALS})
            quots = np.asarray(quots)
            moments.append(float(np.mean(quots**32.0)))
            quotient_means.append(float(np.mean(quots)))

        hy = hy_uniformity(results, levels, n_paths, seed)
        worst = 1.0
        for f in TrajectoryStats.FUNCTIONALS:
            vals = [m[f] for m in means]
            assert hy.extra["functionals"][f]["means"] == vals
            worst = max(worst, max(vals) / min(vals))
        assert hy.observed == worst

        zeta = zeta_regularity(results, levels, n_paths, seed, probe, 32.0)
        assert zeta.extra["moment_means"] == moments
        assert zeta.extra["quotient_means"] == quotient_means
        scales = [m ** (1.0 / 32.0) for m in moments]
        assert zeta.observed == max(scales) / min(scales)

    def test_blown_up_paths_fail_both_drivers(self, grid16):
        # a threshold just above the initial norms blows 5 of 6 paths up at
        # each level; the truncated paths still give finite quotients
        spec = CovarianceSpec(((1, 0), (0, 1), (1, 1), (-1, 0)), (2.0, 1.5, 1.0, 1.0),
                              0.5, "constant_one")
        xi0 = random_scalar_field(grid16, np.random.default_rng(3))
        threshold = 1.1 * max(l2_norm(biot_savart(xi0)), l2_norm(xi0))
        cfg = SolverConfig(dt=2e-3, t_end=0.128, blowup_threshold=threshold)
        levels, probe = [10.0, math.inf], HolderProbe(0.2, 0.0, 2.0, 4)
        results = sweep(spec, None, xi0, cfg, 11, 0, demands=[(levels, 6, probe)])
        blown = {n: sum(r.stats.status != "completed" for r in results[n]) for n in levels}
        assert blown[10.0] == 5
        hy = hy_uniformity(results, levels, 6, 11)
        zeta = zeta_regularity(results, levels, 6, 11, probe, 32.0)
        for out, name in ((hy, "hy_uniformity.status"), (zeta, "zeta_regularity.status")):
            assert out.name == name
            assert not out.passed
            assert out.observed == float(sum(blown.values()))
            assert "5 of 6 paths at level 10" in out.extra["diagnostic"]

    def test_blowup_before_the_second_zeta_sample_fails_closed(self, grid16, rng):
        xi0 = random_scalar_field(grid16, rng)
        cfg = SolverConfig(dt=0.01, t_end=0.1, blowup_threshold=1e-9)
        probe = HolderProbe(0.2, 0.0, 2.0, 4)
        results = sweep(SMALL_NOISE, None, xi0, cfg, 2, 0,
                        demands=[([1.0, math.inf], 2, probe)])
        out = zeta_regularity(results, [1.0, math.inf], 2, 2, probe, 32.0)
        assert out.name == "zeta_regularity.status" and not out.passed
        assert out.observed == 4.0


class TestGronwall:
    def test_identical_data_machine_zero(self, grid16, rng):
        xi0 = random_scalar_field(grid16, rng)
        v0 = biot_savart(xi0)
        cfg = SolverConfig(dt=5e-3, t_end=0.05)
        out = gronwall_uniqueness(v0, v0, SMALL_NOISE, cfg, n_paths=3,
                                  base_seed=5, gn_trials=200, lg_trials=20)
        assert out.name == "gronwall.identical"
        assert out.observed == 0.0
        assert out.passed

    def test_noiseless_weighted_difference_monotone(self, grid16, rng):
        xi0 = random_scalar_field(grid16, rng)
        v0a = biot_savart(xi0)
        bump = random_divfree_field(grid16, rng)
        v0b = v0a + bump * (1e-2 / l2_norm(bump))
        cfg = SolverConfig(dt=1e-3, t_end=0.05)
        a = measure_gn_constant(grid16, 200) ** 2
        res = gronwall_pair(v0a, v0b, ZERO_NOISE, cfg, seed=0, path_index=0,
                            a_const=a, lg=0.0)
        m = res["m_series"]
        for x, y in zip(m, m[1:]):
            assert y <= x * (1 + 1e-6)

    @pytest.mark.parametrize("modes", [((1, 0), (0, 1), (1, 1)), ((1, 0), (12, 0))])
    def test_pair_matches_advective_form(self, grid32, rng, monkeypatch, modes):
        # the pair steps with P B(v,v) in rotational form; bilinear_B is the oracle
        pivot = random_divfree_field(grid32, rng, amplitude=4.0)
        spec = CovarianceSpec(modes, (1.0,) * len(modes), 0.5, "rational_square", pivot)
        v0a = biot_savart(random_scalar_field(grid32, rng, amplitude=3.0))
        bump = random_divfree_field(grid32, rng)
        v0b = v0a + bump * (1e-2 / l2_norm(bump))
        cfg = SolverConfig(dt=2e-3, t_end=0.12)
        res = gronwall_pair(v0a, v0b, spec, cfg, seed=4, path_index=1, a_const=0.3, lg=0.5)
        monkeypatch.setattr(integrator, "rotational_advection", lambda v, w: bilinear_B(v, v))
        oracle = gronwall_pair(v0a, v0b, spec, cfg, seed=4, path_index=1, a_const=0.3, lg=0.5)
        assert len(res["m_series"]) == len(oracle["m_series"]) == cfg.n_steps + 1
        for a, b in zip(res["m_series"], oracle["m_series"]):
            assert abs(a - b) <= 1e-12 * b
        assert abs(res["sup_v"] - oracle["sup_v"]) <= 1e-12 * oracle["sup_v"]

    def test_one_noise_evaluation_per_solution_step(self, grid16, rng, monkeypatch):
        seen = []
        original = harness.apply_G

        def counted(v, dW, spec):
            seen.append(v)
            return original(v, dW, spec)

        monkeypatch.setattr(harness, "apply_G", counted)
        v0a = biot_savart(random_scalar_field(grid16, rng))
        v0b = v0a + random_divfree_field(grid16, rng) * 1e-3
        cfg = SolverConfig(dt=5e-3, t_end=0.05)
        res = gronwall_pair(v0a, v0b, SMALL_NOISE, cfg, 3, 0, 0.3, 0.0)
        assert res["status"] == "completed"
        # sigma reads each solution's own velocity: v1 then v2, every step
        assert len(seen) == 2 * cfg.n_steps
        assert seen[0] is v0a and seen[1] is v0b

    def test_blown_pair_fails_closed(self, grid16, rng):
        v0a = biot_savart(random_scalar_field(grid16, rng))
        bump = random_divfree_field(grid16, rng)
        v0b = v0a + bump * (1e-3 / l2_norm(bump))
        calm = SolverConfig(dt=5e-3, t_end=0.05)
        cfg = SolverConfig(dt=5e-3, t_end=0.05, blowup_threshold=0.05)
        assert l2_norm(v0a) > cfg.blowup_threshold
        args = (SMALL_NOISE, calm, 3, 0, 0.3, 0.0)
        assert gronwall_pair(v0a, v0b, *args)["status"] == "completed"
        pair = gronwall_pair(v0a, v0b, SMALL_NOISE, cfg, 3, 0, 0.3, 0.0)
        assert pair["status"] == "blowup" and len(pair["m_series"]) == 1
        out = gronwall_uniqueness(v0a, v0b, SMALL_NOISE, cfg, n_paths=3,
                                  base_seed=3, gn_trials=50, lg_trials=5)
        assert out.name == "gronwall.status" and not out.passed
        assert (out.observed, out.bound, out.n_samples) == (3.0, 0.0, 3)
        assert out.extra["diagnostic"] == "3 of 3 paths blew up"

    def test_perturbed_supermartingale_small_scale(self, grid16, rng):
        xi0 = random_scalar_field(grid16, rng)
        v0a = biot_savart(xi0)
        bump = random_divfree_field(grid16, rng)
        v0b = v0a + bump * (1e-3 / l2_norm(bump))
        cfg = SolverConfig(dt=2e-3, t_end=0.1)
        out = gronwall_uniqueness(v0a, v0b, SMALL_NOISE, cfg, n_paths=8,
                                  base_seed=21, gn_trials=300, lg_trials=30)
        assert out.name == "gronwall.perturbed"
        assert out.passed, (out.observed, out.bound)


class TestMeasuredConstants:
    def test_gn_constant_plausible_range(self, grid16):
        c = measure_gn_constant(grid16, 300)
        assert 0.1 < c < 2.0

    def test_lipschitz_estimates(self, grid16):
        h = _single_mode_vector(grid16, (1, 0), 1.0)
        spec = CovarianceSpec(((1, 0),), (0.5,), 0.5, "rational_square", h)
        slope = estimate_sigma_lipschitz(spec, grid16, trials=100)
        assert 0.0 < slope <= 3.0 * math.sqrt(3.0) / 8.0 * (1 + 1e-9)
        lg = estimate_lipschitz_lg(spec, grid16, trials=100)
        assert lg > 0.0
        assert estimate_lipschitz_lg(ZERO_NOISE, grid16) == 0.0

    @staticmethod
    def nan_on_call(monkeypatch, name, k):
        # the k-th call of harness.<name> returns NaN, the others the real value
        real, calls = getattr(harness, name), []

        def patched(*args, **kwargs):
            calls.append(1)
            return math.nan if len(calls) == k else real(*args, **kwargs)

        monkeypatch.setattr(harness, name, patched)

    def test_nan_ratio_kept(self, grid16, monkeypatch):
        # a NaN trial among finite ones is the worst case, not dropped
        self.nan_on_call(monkeypatch, "lq_norm", 3)
        assert math.isnan(measure_gn_constant.__wrapped__(grid16, 5, 7))
        h = _single_mode_vector(grid16, (1, 0), 1.0)
        spec = CovarianceSpec(((1, 0),), (0.5,), 0.5, "rational_square", h)
        self.nan_on_call(monkeypatch, "sigma_eval", 5)
        assert math.isnan(estimate_sigma_lipschitz(spec, grid16, trials=5))


class TestIdentitySuite:
    def test_full_suite_passes(self, grid64):
        results = identity_suite(grid64, trials=25, seed=12)
        for r in results:
            assert r.passed, (r.name, r.observed, r.bound)

    def test_passes_at_n32(self, grid32):
        # on the 32 grid itself the weighted q = 4 pairings alias
        for seed in range(30):
            for r in identity_suite(grid32, trials=2, seed=seed):
                assert r.passed, (seed, r.name, r.observed, r.bound)

    def test_trials_validated(self, grid16):
        with pytest.raises(ValueError):
            identity_suite(grid16, trials=0)

    def test_nan_operator_fails(self, monkeypatch):
        monkeypatch.setattr(harness, "bilinear_B", lambda u, v: bilinear_B(u, v) * math.nan)
        results = {r.name: r for r in identity_suite(SpectralGrid(32), 2, 0)}
        for name in ("identity.b_energy", "identity.b_skew"):
            assert math.isnan(results[name].observed) and not results[name].passed, name
        assert results["identity.f_self"].passed


class TestBdg:
    def test_zero_operator_skipped(self, grid16):
        spec = CovarianceSpec(((1, 0),), (0.3,), 0.5, "zero")
        v0 = biot_savart(random_scalar_field(grid16, np.random.default_rng(0)))
        out = bdg_report(spec, grid16, v0, 2.0, [2], 4, 0, 0.1, 0.01)
        assert len(out) == 1
        assert out[0].name.endswith("skipped")
        assert out[0].passed

    def test_scalar_mode_oracle(self, grid16):
        # single mode, q = 2, m = 2: the fitted constant is the Brownian
        # sup-square moment E[max_j B(t_j)^2] / T, known by quadrature of the
        # reflection series with the discrete-sampling correction
        spec = CovarianceSpec(((1, 0),), (0.4,), 0.5, "constant_one")
        v0 = biot_savart(random_scalar_field(grid16, np.random.default_rng(1)))
        T, dt, n_paths = 0.5, 1e-3, 600
        sups = simulate_bdg_sups([(spec, v0)], 2.0, n_paths, 77, T, dt)[:, 0]
        from vortex.noise import operator_norms

        phi = operator_norms(v0, spec, 0.0, 2.0)["radonifying"]
        ratios = sups[:, 1] ** 2 / (T * phi**2)
        target = discrete_sup_sq_oracle(T, dt) / T
        stderr = np.std(ratios, ddof=1) / math.sqrt(n_paths)
        assert abs(np.mean(ratios) - target) <= 3.0 * stderr

    def test_shared_draws_match_single_grid_sums(self, grid16, rng, monkeypatch):
        # both grids read each path's increments, drawn once
        from vortex import harness
        from vortex.spectral import regrid

        v0 = random_divfree_field(grid16, rng)
        fine = SpectralGrid(32)
        frames = [(SMALL_NOISE, v0), (SMALL_NOISE, regrid(v0, fine))]
        draws = []
        original = harness.sample_increment

        def counted(*args, **kwargs):
            draws.append(args[:3])
            return original(*args, **kwargs)

        monkeypatch.setattr(harness, "sample_increment", counted)
        both = simulate_bdg_sups(frames, 4.0, 5, 3, 0.1, 0.01)
        assert len(draws) == len(set(draws)) == 5 * 10
        assert both.shape == (5, 2, 2)
        for i, frame in enumerate(frames):
            alone = simulate_bdg_sups([frame], 4.0, 5, 3, 0.1, 0.01)
            assert np.array_equal(both[:, i], alone[:, 0])

    def test_moment_validation(self, grid16, rng):
        v0 = biot_savart(random_scalar_field(grid16, rng))
        with pytest.raises(ValueError):
            bdg_report(SMALL_NOISE, grid16, v0, 4.0, [3], 4, 0, 0.1, 0.01)

    def test_rational_square_sigma_gives_verdicts(self, grid16, rng):
        # sigma reads the pivot, which must follow v0 onto the doubled grid
        spec = CovarianceSpec(SMALL_NOISE.mode_indices, SMALL_NOISE.coefficients, 0.5,
                              "rational_square", _single_mode_vector(grid16, (1, 0), 32.0))
        v0 = random_divfree_field(grid16, rng)
        out = bdg_report(spec, grid16, v0, 4.0, [2, 4], 16, 5, 0.1, 0.01)
        assert [r.name for r in out] == ["bdg.C2", "bdg.C4"]
        assert all(math.isfinite(r.observed) for r in out)
        assert len(out[0].extra["constants"]) == 4

    def test_small_scale_stability(self, grid16, rng):
        v0 = biot_savart(random_scalar_field(grid16, rng))
        out = bdg_report(SMALL_NOISE, grid16, v0, 4.0, [2], 64, 5, 0.2, 2e-3)
        assert len(out) == 1
        assert out[0].passed, out[0].extra


class TestBrownianOracle:
    def test_first_moment_closed_form(self):
        # E[sup_{t<=1} |B_t|] = sqrt(pi/2)
        assert abs_brownian_sup_moment(1.0) == pytest.approx(
            math.sqrt(math.pi / 2.0), rel=1e-5
        )

    def test_scaling_in_horizon(self):
        one = abs_brownian_sup_moment(2.0, 1.0)
        half = abs_brownian_sup_moment(2.0, 0.5)
        assert half == pytest.approx(0.5 * one, rel=1e-10)
