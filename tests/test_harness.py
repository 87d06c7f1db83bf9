"""Verification harness: reports, uniformity checks, Gronwall contraction,
identity suites and stochastic-integral constants."""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    abs_brownian_sup_moment,
    basis_fields,
    bilinear_B,
    discrete_sup_sq_oracle,
    divfree_field,
    gn_constant,
    hille_yosida,
    stacked_drift,
)
from vortex.cli import _gronwall_initial
from vortex.config import CHECK_PARAMS, _band_modes, _single_mode_vector, parse_config
from vortex.harness import (
    CheckResult,
    HolderProbe,
    bdg_report,
    energy_report,
    gronwall_pairs,
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
from vortex import harness, noise, operators
from vortex.integrator import SolverConfig, TrajectoryStats, holder_quotient, run_trajectory
from vortex.noise import CovarianceSpec
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
    ScalarField,
    SpectralGrid,
    VectorField,
    dealias,
    l2_norm,
    lq_norm,
    regrid,
    to_physical,
)

ZERO_NOISE = CovarianceSpec(((1, 0),), (0.1,), 0.5, "zero")
SMALL_NOISE = CovarianceSpec(((1, 0), (0, 1), (1, 1), (-1, 0)),
                             (0.2, 0.15, 0.1, 0.1), 0.5, "constant_one")


def rational_noise(grid):
    """SMALL_NOISE's modes under rational_square sigma, the pivot on grid."""
    return replace(SMALL_NOISE, sigma_kind="rational_square",
                   pivot=_single_mode_vector(grid, (1, 0), 3.0))


# each check's threshold at its config default, from the table that states it
HY_FACTOR = CHECK_PARAMS["hy_uniformity"]["factor"][1]
ZETA_STABILITY = CHECK_PARAMS["zeta_regularity"]["stability"][1]
GRONWALL_SLACK = CHECK_PARAMS["gronwall"]["slack"][1]
BDG_STABILITY = CHECK_PARAMS["bdg"]["stability"][1]


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
        assert sorted(d) == ["bound", "extra", "n_samples", "name", "observed", "passed",
                             "seed"]
        assert d["extra"] == {"z": 1}
        assert CheckResult.evaluate("x", 1.0, 2.0, 5, 7).to_dict()["extra"] == {}

    def test_non_finite_numbers_become_null_at_any_depth(self):
        extra = {"ratio": math.inf, "means": [1.0, -math.inf, (math.nan, 2.0)],
                 "functionals": {"a": {"ratio": np.float64(math.inf), "means": [0.5]}}}
        d = CheckResult.evaluate("x", math.nan, math.inf, 5, 7, extra=extra).to_dict()
        assert d["observed"] is None and d["bound"] is None and d["passed"] is False
        assert d["extra"] == {"ratio": None, "means": [1.0, None, [None, 2.0]],
                              "functionals": {"a": {"ratio": None, "means": [0.5]}}}
        assert extra["ratio"] == math.inf  # the result's own extra is left as it is


class TestPathWorkers:
    @pytest.mark.parametrize("n, cpus, want", [
        (32, 8, 1), (64, 8, 1), (64, 2, 1), (128, 2, 2), (256, 8, 4), (256, 2, 2),
        (256, 1, 1), (256, None, 1),
    ])
    def test_serial_below_the_pool_grid(self, monkeypatch, n, cpus, want):
        monkeypatch.setattr(harness.os, "cpu_count", lambda: cpus)
        assert harness.path_workers(SpectralGrid(n)) == want

    def test_drivers_take_the_count_from_their_grid(self, grid16, rng, monkeypatch):
        # the sweep, the Gronwall pairs and the BDG sups run on their grid
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
        gronwall_uniqueness(v0, v0, SMALL_NOISE, cfg, 2, 1, GRONWALL_SLACK, gn_trials=5)
        simulate_bdg_sups(SMALL_NOISE, regrid(v0, SpectralGrid(32)), 2.0, 2, 1, 0.02, 0.01)
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
    return hy_uniformity(results, levels, n_paths, base_seed, HY_FACTOR)


def swept_zeta(spec, xi0, cfg, levels, n_paths, base_seed, beta, delta, p, q, stride):
    """zeta_regularity reduced from a sweep that integrates exactly its paths."""
    zeta_budget(spec.roughness, beta, delta, p)
    probe = HolderProbe(beta, delta, q, stride)
    results = sweep(spec, None, xi0, cfg, base_seed, 0, demands=[(levels, n_paths, probe)])
    return zeta_regularity(results, levels, n_paths, base_seed, probe, p,
                           ZETA_STABILITY)


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

        hy = hy_uniformity(results, levels, n_paths, seed, HY_FACTOR)
        worst = 1.0
        for f in TrajectoryStats.FUNCTIONALS:
            vals = [m[f] for m in means]
            assert hy.extra["functionals"][f]["means"] == vals
            worst = max(worst, max(vals) / min(vals))
        assert hy.observed == worst

        zeta = zeta_regularity(results, levels, n_paths, seed, probe, 32.0, ZETA_STABILITY)
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
        hy = hy_uniformity(results, levels, 6, 11, HY_FACTOR)
        zeta = zeta_regularity(results, levels, 6, 11, probe, 32.0, ZETA_STABILITY)
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
        out = zeta_regularity(results, [1.0, math.inf], 2, 2, probe, 32.0, ZETA_STABILITY)
        assert out.name == "zeta_regularity.status" and not out.passed
        assert out.observed == 4.0


class TestGronwall:
    def test_identical_data_machine_zero(self, grid16, rng):
        xi0 = random_scalar_field(grid16, rng)
        v0 = biot_savart(xi0)
        cfg = SolverConfig(dt=5e-3, t_end=0.05)
        out = gronwall_uniqueness(v0, v0, SMALL_NOISE, cfg, n_paths=3,
                                  base_seed=5, slack=GRONWALL_SLACK, gn_trials=200)
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
        res = gronwall_pairs(v0a, v0b, ZERO_NOISE, cfg, seed=0, paths=[0], a_const=a)[0]
        m = res["m_series"]
        for x, y in zip(m, m[1:]):
            assert y <= x * (1 + 1e-6)

    @pytest.mark.parametrize("modes", [((1, 0), (0, 1), (1, 1)), ((1, 0), (12, 0))])
    def test_pair_matches_advective_form(self, grid32, rng, monkeypatch, modes):
        # the pair steps with the rotational velocity_drift; P B(v,v) of the
        # advective bilinear_B is the oracle
        pivot = random_divfree_field(grid32, rng, amplitude=4.0)
        spec = CovarianceSpec(modes, (1.0,) * len(modes), 0.5, "rational_square", pivot)
        v0a = biot_savart(random_scalar_field(grid32, rng, amplitude=3.0))
        bump = random_divfree_field(grid32, rng)
        v0b = v0a + bump * (1e-2 / l2_norm(bump))
        cfg = SolverConfig(dt=2e-3, t_end=0.12)
        res = gronwall_pairs(v0a, v0b, spec, cfg, seed=4, paths=[1], a_const=0.3)[0]
        monkeypatch.setattr(operators, "velocity_drift",
                            stacked_drift(lambda v, w: leray_project(bilinear_B(v, v))))
        oracle = gronwall_pairs(v0a, v0b, spec, cfg, seed=4, paths=[1], a_const=0.3)[0]
        assert len(res["m_series"]) == len(oracle["m_series"]) == cfg.n_steps + 1
        for a, b in zip(res["m_series"], oracle["m_series"]):
            assert abs(a - b) <= 1e-12 * b
        assert abs(res["sup_v"] - oracle["sup_v"]) <= 1e-12 * oracle["sup_v"]

    def test_series_is_that_of_two_run_trajectory_paths(self, grid16, rng):
        # the pair steps the run's own loop: the states two run_trajectory
        # observers see at the same (seed, path) give its series bit for bit,
        # the noise term q^2 = (sigma(v1) - sigma(v2))^2 S / ||V||^2 included
        v0a = biot_savart(random_scalar_field(grid16, rng))
        bump = random_divfree_field(grid16, rng)
        v0b = v0a + bump * (1e-2 / l2_norm(bump))
        cfg = SolverConfig(dt=5e-3, t_end=0.05)
        a_const = 0.3
        for spec in (SMALL_NOISE, rational_noise(grid16)):
            pair = gronwall_pairs(v0a, v0b, spec, cfg, 6, [2], a_const)[0]
            seen = [[], []]
            for v0, states in zip((v0a, v0b), seen):
                run_trajectory(v0, curl(v0), spec, cfg, seed=6, path_index=2,
                               observer=states.append)
            hs_sq = noise.basis_l2_sq_sum(spec, grid16)
            int_psi, series, rises = 0.0, [], []
            for one, two in zip(*seen):
                gap_sq = l2_norm(one.v - two.v) ** 2
                series.append(math.exp(-int_psi) * gap_sq)
                rises.append(noise.sigma_eval(one.v, spec) - noise.sigma_eval(two.v, spec))
                q_sq = rises[-1] * rises[-1] * hs_sq / gap_sq
                int_psi += cfg.dt * (a_const * grad_norm_l2(one.v) ** 2 + q_sq)
            # constant sigma has no noise term; rational_square has one every step
            assert all(r != 0.0 for r in rises) == (spec.sigma_kind == "rational_square")
            assert pair["status"] == "completed"
            assert len(pair["m_series"]) == len(series) == cfg.n_steps + 1
            assert np.array_equal(np.array(pair["m_series"]).view(np.uint64),
                                  np.array(series).view(np.uint64))
            assert pair["sup_v"] == max(l2_norm(one.v - two.v) for one, two in zip(*seen))

    def test_identical_data_under_rational_square_is_zero(self, grid16, rng):
        # V = 0 at every step: the noise term is 0 there, not 0/0
        v0 = biot_savart(random_scalar_field(grid16, rng))
        cfg = SolverConfig(dt=5e-3, t_end=0.05)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = gronwall_uniqueness(v0, v0, rational_noise(grid16), cfg, n_paths=2,
                                      base_seed=5, slack=GRONWALL_SLACK, gn_trials=50)
        assert out.name == "gronwall.identical"
        assert out.observed == 0.0 and out.passed

    def test_one_noise_evaluation_per_solution_step(self, grid16, rng, monkeypatch):
        seen = []
        original = noise.apply_G

        def counted(v, dW, spec):
            seen.append(v)
            return original(v, dW, spec)

        monkeypatch.setattr(noise, "apply_G", counted)
        v0a = biot_savart(random_scalar_field(grid16, rng))
        v0b = v0a + random_divfree_field(grid16, rng) * 1e-3
        cfg = SolverConfig(dt=5e-3, t_end=0.05)
        res = gronwall_pairs(v0a, v0b, SMALL_NOISE, cfg, 3, [0], 0.3)[0]
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
        assert gronwall_pairs(v0a, v0b, SMALL_NOISE, calm, 3, [0], 0.3)[0]["status"] == "completed"
        pair = gronwall_pairs(v0a, v0b, SMALL_NOISE, cfg, 3, [0], 0.3)[0]
        assert pair["status"] == "blowup" and len(pair["m_series"]) == 1
        out = gronwall_uniqueness(v0a, v0b, SMALL_NOISE, cfg, n_paths=3,
                                  base_seed=3, slack=GRONWALL_SLACK, gn_trials=50)
        assert out.name == "gronwall.status" and not out.passed
        assert (out.observed, out.bound, out.n_samples) == (3.0, 0.0, 3)
        assert out.extra["diagnostic"] == "3 of 3 paths blew up"

    def test_nan_difference_fails_identical_data(self, grid16, rng, monkeypatch):
        # a NaN difference norm must not read as 0: Python's max(0.0, nan) is
        # 0.0, both in a pair's running sup and in the sup over the pairs
        v0 = biot_savart(random_scalar_field(grid16, rng))
        cfg = SolverConfig(dt=5e-3, t_end=0.02)
        args = (SMALL_NOISE, cfg, 2, 3, GRONWALL_SLACK, 50)
        clean = gronwall_uniqueness(v0, v0, *args)  # caches the GN constant
        assert clean.name == "gronwall.identical" and clean.passed
        real = harness.sobolev_norms

        def nan_last_pair(halves, grid, s=0.0):
            norms = real(halves, grid, s)
            norms[-1] = math.nan  # the last pair's ||V||, the first pair's kept
            return norms

        monkeypatch.setattr(harness, "sobolev_norms", nan_last_pair)
        pairs = gronwall_pairs(v0, v0, SMALL_NOISE, cfg, 3, [0, 1], 0.3)
        assert pairs[0]["sup_v"] == 0.0 and math.isnan(pairs[1]["sup_v"])
        out = gronwall_uniqueness(v0, v0, *args)
        assert out.name == "gronwall.identical"
        assert math.isnan(out.observed) and not out.passed

    def test_pairs_batch_has_the_bits_of_one_pair_each(self, grid16, rng):
        # the pairs of a batch share each path's draws and give, each, the
        # series, sup and status of its one-pair call, noise term included
        v0a = biot_savart(random_scalar_field(grid16, rng))
        bump = random_divfree_field(grid16, rng)
        v0b = v0a + bump * (1e-2 / l2_norm(bump))
        cfg = SolverConfig(dt=5e-3, t_end=0.05)
        for spec in (SMALL_NOISE, rational_noise(grid16)):
            batch = gronwall_pairs(v0a, v0b, spec, cfg, 6, [2, 0, 5], 0.3)
            for path, got in zip([2, 0, 5], batch):
                want = gronwall_pairs(v0a, v0b, spec, cfg, 6, [path], 0.3)[0]
                assert repr(got) == repr(want)
            assert len({repr(got["m_series"]) for got in batch}) == 3

    def test_perturbed_supermartingale_small_scale(self, grid16, rng):
        xi0 = random_scalar_field(grid16, rng)
        v0a = biot_savart(xi0)
        bump = random_divfree_field(grid16, rng)
        v0b = v0a + bump * (1e-3 / l2_norm(bump))
        cfg = SolverConfig(dt=2e-3, t_end=0.1)
        out = gronwall_uniqueness(v0a, v0b, SMALL_NOISE, cfg, n_paths=8,
                                  base_seed=21, slack=GRONWALL_SLACK, gn_trials=300)
        assert out.name == "gronwall.perturbed"
        assert out.passed, (out.observed, out.bound)


class TestGronwallUnderRationalSquare:
    """The `gronwall` check as `vortex run` takes it on N = 32, dt 0.01,
    T 0.2, mode_band 2 and rational_square sigma, with 4 pairs and 400 GN
    trials: its noise term is the pathwise quotient, so correct code PASSes
    at every seed and a noise twice too strong FAILs at some."""

    SEEDS = range(1, 11)

    @staticmethod
    def check(seed):
        config = parse_config({
            "grid": {"modes_per_dim": 32}, "solver": {"dt": 0.01, "t_end": 0.2},
            "noise": {"mode_band": 2, "sigma_kind": "rational_square"},
            "mc": {"base_seed": seed},
            "checks": [{"name": "gronwall", "n_paths": 4, "gn_trials": 400}]})
        chk = config.checks[0]
        pair = _gronwall_initial(config.grid, seed, chk.value("perturbation"))
        return gronwall_uniqueness(*pair, config.build_noise_spec(), config.solver,
                                   chk.value("n_paths"), seed, chk.value("slack"),
                                   chk.value("gn_trials"))

    def test_correct_code_passes_every_seed(self):
        results = {seed: self.check(seed) for seed in self.SEEDS}
        assert all(r.name == "gronwall.perturbed" for r in results.values())
        failed = {seed: r.observed / r.bound for seed, r in results.items() if not r.passed}
        assert failed == {}

    def test_doubled_noise_fails_a_seed(self, monkeypatch):
        real = noise.apply_G
        monkeypatch.setattr(noise, "apply_G", lambda v, dW, spec: 2.0 * real(v, dW, spec))
        results = [self.check(seed) for seed in self.SEEDS]
        assert all(r.name == "gronwall.perturbed" for r in results)
        assert not all(r.passed for r in results)


class TestMeasuredConstants:
    def test_gn_constant_plausible_range(self, grid16):
        c = measure_gn_constant(grid16, 300)
        assert 0.1 < c < 2.0

    @pytest.mark.parametrize("n", [16, 32, 64, 256])
    @pytest.mark.parametrize("fields_per_trial", [1, 2])
    def test_chunks_cover_the_trials_within_the_budget(self, n, fields_per_trial):
        grid = SpectralGrid(n)
        for trials in (1, 7, 45, 400):
            sizes = list(harness._trial_chunks(grid, trials, fields_per_trial))
            assert sum(sizes) == trials and min(sizes) >= 1
            per_trial = 32 * n * n * fields_per_trial
            assert max(sizes) == 1 or max(sizes) * per_trial <= harness.TRIAL_CHUNK_BYTES

    # trial counts that end in a partial chunk on each grid: the chunks hold
    # 32, 8 and 2 GN trials
    @pytest.mark.parametrize("n, trials", [(16, 45), (32, 21), (64, 7)])
    @pytest.mark.parametrize("seed", [0, 7, 123])
    def test_gn_constant_is_the_per_trial_loop(self, n, trials, seed):
        grid = SpectralGrid(n)
        assert trials % next(harness._trial_chunks(grid, 10**9)) != 0
        got = measure_gn_constant.__wrapped__(grid, trials, seed)
        assert got.hex() == gn_constant(grid, trials, seed).hex()

    @pytest.mark.parametrize("decay, amplitude", [(2.0, 1.0), (1.37, 0.3), (-1.0, 2.0)])
    def test_one_divfree_field_is_the_composed_one(self, grid32, decay, amplitude):
        got = random_divfree_field(grid32, np.random.default_rng(5), decay, amplitude)
        want = divfree_field(grid32, np.random.default_rng(5), decay, amplitude)
        for a, b in ((got.vx, want.vx), (got.vy, want.vy)):
            assert a.half.tobytes() == b.half.tobytes()

    def test_nan_ratio_kept(self, grid16, monkeypatch):
        # a NaN trial among finite ones is the worst case, not dropped, also
        # when it lies in a later chunk and finite trials follow it
        real, calls = harness.divfree_halves, []

        def nan_in_second_chunk(*args):
            v = real(*args)
            calls.append(1)
            if len(calls) == 2:
                v[0, 0, 1, 1] = math.nan  # the chunk's first field
            return v

        monkeypatch.setattr(harness, "divfree_halves", nan_in_second_chunk)
        chunk = next(harness._trial_chunks(grid16, 10**9))
        assert math.isnan(measure_gn_constant.__wrapped__(grid16, 2 * chunk + 3, 7))
        assert len(calls) == 3


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

    # even N from 8 to 96, N = 2 (mod 4) included; dealias fractions in (0, 2/3]
    @settings(max_examples=40, deadline=None)
    @given(st.integers(4, 48).map(lambda m: 2 * m),
           st.floats(min_value=1e-3, max_value=TWO_THIRDS), st.integers(0, 2**32 - 1))
    def test_drift_identities_hold_on_every_grid(self, n, fraction, seed):
        grid = SpectralGrid(n, dealias_fraction=fraction)
        if grid.dealias_limit < 1:
            with pytest.raises(ValueError, match="'grid.dealias_fraction'"):
                identity_suite(grid, 1, seed)
            return
        results = {r.name: r for r in identity_suite(grid, 1, seed)}
        for name in DRIFT_CHECKS:
            assert results[name].passed, (name, results[name].observed)



def unprojected_drift(v, w):
    """w (-u_y, u_x) as velocity_drift forms it, without the Leray projection."""
    g = v.grid
    ux, uy = to_physical(dealias(v))
    return VectorField.stack(ScalarField(g, operators._spectral_of(-w * uy, g)),
                       ScalarField(g, operators._spectral_of(w * ux, g)))


DRIFT_CHECKS = ("identity.drift_curl", "identity.drift_energy", "identity.drift_divfree")


class TestPlantedDriftFaults:
    """A fault planted once, in operators.velocity_drift, reaches both the time
    step and the identity suite: the trajectory changes and the suite FAILs."""

    FAULTS = {
        "sign_flipped": (lambda drift: lambda g, v, w: -drift(g, v, w), DRIFT_CHECKS[:1]),
        "unprojected": (lambda drift: stacked_drift(unprojected_drift), DRIFT_CHECKS[2:]),
        "nan": (lambda drift: lambda g, v, w: drift(g, v, w) * math.nan, DRIFT_CHECKS),
    }

    @staticmethod
    def run(grid):
        xi0 = random_scalar_field(grid, np.random.default_rng(5), amplitude=3.0)
        return run_trajectory(None, xi0, SMALL_NOISE, SolverConfig(dt=2e-3, t_end=0.02), seed=1)

    @staticmethod
    def suite():
        return {r.name: r for r in identity_suite(SpectralGrid(32), 2, 0)}

    def test_correct_drift_passes(self):
        results = self.suite()
        for name in DRIFT_CHECKS:
            assert results[name].passed, (name, results[name].observed)

    @pytest.mark.parametrize("fault", sorted(FAULTS))
    def test_fault_changes_the_step_and_fails_the_suite(self, grid16, monkeypatch, fault):
        correct = self.run(grid16)
        plant, failing = self.FAULTS[fault]
        monkeypatch.setattr(operators, "velocity_drift", plant(operators.velocity_drift))
        faulty = self.run(grid16)
        if fault == "nan":
            assert faulty.stats.status == "blowup"
        else:
            gap = l2_norm(faulty.final.v - correct.final.v)
            assert gap > 1e-3 * l2_norm(correct.final.v)
        results = self.suite()
        for name in DRIFT_CHECKS:
            assert results[name].passed == (name not in failing), (name, results[name].observed)
        if fault == "nan":
            for name in DRIFT_CHECKS:
                assert math.isnan(results[name].observed), name
        assert results["identity.f_self"].passed


class TestBdg:
    def test_zero_operator_skipped(self, grid16):
        spec = CovarianceSpec(((1, 0),), (0.3,), 0.5, "zero")
        v0 = biot_savart(random_scalar_field(grid16, np.random.default_rng(0)))
        out = bdg_report(spec, v0, 2.0, [2], 4, 0, 0.1, 0.01, BDG_STABILITY)
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
        sups = simulate_bdg_sups(spec, v0, 2.0, n_paths, 77, T, dt)
        from vortex.noise import operator_norms

        phi = operator_norms(v0, spec, 0.0, 2.0)["radonifying"]
        ratios = sups[:, 1] ** 2 / (T * phi**2)
        target = discrete_sup_sq_oracle(T, dt) / T
        stderr = np.std(ratios, ddof=1) / math.sqrt(n_paths)
        assert abs(np.mean(ratios) - target) <= 3.0 * stderr

    @staticmethod
    def band_two(grid, sigma):
        """The 24 modes of noise band 2, under sigma (its pivot on grid)."""
        modes = tuple(_band_modes(2))
        coeffs = tuple(0.3 / (1.0 + max(map(abs, j))) for j in modes)
        pivot = _single_mode_vector(grid, (1, 0), 3.0) if sigma == "rational_square" else None
        return CovarianceSpec(modes, coeffs, 0.5, sigma, pivot)

    @pytest.mark.parametrize("sigma", ["constant_one", "rational_square"])
    @pytest.mark.parametrize("q", [2.0, 4.0])
    def test_n_and_2n_grids_agree(self, grid16, rng, sigma, q):
        # X(t) is band-limited to the noise band K = 2, and |X|^q to qK <= 8 < 16,
        # so the rectangle rule is exact on both grids: the doubled grid that
        # bdg_report uses adds no information, only rounding
        spec = self.band_two(grid16, sigma)
        fine = SpectralGrid(32)
        fine_spec = spec if spec.pivot is None else replace(spec, pivot=regrid(spec.pivot, fine))
        v0 = random_divfree_field(grid16, rng)
        coarse = simulate_bdg_sups(spec, v0, q, 6, 3, 0.1, 0.01)
        doubled = simulate_bdg_sups(fine_spec, regrid(v0, fine), q, 6, 3, 0.1, 0.01)
        assert coarse.shape == doubled.shape == (6, 2)
        np.testing.assert_allclose(doubled, coarse, rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize("q", [3.0, 4.0])
    def test_sups_match_a_per_time_lq_norm_oracle(self, grid16, rng, q):
        # X(t_j) = sum_k c_k sigma(v0) R_n(k) B_k(t_j) e_k built as a field from
        # the dense basis at every time, normed by lq_norm
        spec = replace(self.band_two(grid16, "rational_square"), hy_level=5.0)
        v0 = random_divfree_field(grid16, rng)
        T, dt, n_paths = 0.05, 0.01, 3
        sig = noise.sigma_eval(v0, spec)
        images = [hille_yosida(e * (c * sig), spec.hy_level)
                  for c, e in zip(spec.coefficients, basis_fields(spec, grid16))]
        sups = simulate_bdg_sups(spec, v0, q, n_paths, 9, T, dt)
        for path in range(n_paths):
            norms, brown = [0.0], np.zeros(spec.n_modes)
            for step in range(5):
                brown = brown + noise.sample_increment(9, path, step, spec, dt).gaussians
                field = sum((f * (b * math.sqrt(dt)) for f, b in zip(images, brown)),
                            start=images[0] * 0.0)
                norms.append(lq_norm(field, q))
            want = (max(norms[:3]), max(norms))
            np.testing.assert_allclose(sups[path], want, rtol=1e-14, atol=0.0)

    def test_shared_draws_match_single_grid_sums(self, grid16, rng, monkeypatch):
        # each path draws its increment of each step once
        from vortex import harness

        v0 = random_divfree_field(grid16, rng)
        draws = []
        original = harness.sample_increment

        def counted(*args, **kwargs):
            draws.append(args[:3])
            return original(*args, **kwargs)

        monkeypatch.setattr(harness, "sample_increment", counted)
        sups = simulate_bdg_sups(SMALL_NOISE, v0, 4.0, 5, 3, 0.1, 0.01)
        assert len(draws) == len(set(draws)) == 5 * 10
        assert sups.shape == (5, 2)

    def test_moment_validation(self, grid16, rng):
        v0 = biot_savart(random_scalar_field(grid16, rng))
        with pytest.raises(ValueError):
            bdg_report(SMALL_NOISE, v0, 4.0, [3], 4, 0, 0.1, 0.01, BDG_STABILITY)

    def test_one_step_has_no_half_horizon(self, grid16, rng):
        v0 = biot_savart(random_scalar_field(grid16, rng))
        with pytest.raises(ValueError, match="at least 2 time steps"):
            bdg_report(SMALL_NOISE, v0, 4.0, [2], 4, 0, 0.01, 0.01, BDG_STABILITY)

    def test_odd_step_count_scales_by_the_time_each_sup_covers(self, grid16, rng):
        # on 5 steps the half-horizon sup covers 2 steps, 0.02, not t_end / 2;
        # the constants are those of the sups over exactly those times
        v0 = biot_savart(random_scalar_field(grid16, rng))
        out = bdg_report(SMALL_NOISE, v0, 4.0, [2], 50, 4, 0.05, 0.01, BDG_STABILITY)
        fine = SpectralGrid(32)
        fine_v0 = regrid(v0, fine)
        phi = noise.operator_norms(fine_v0, SMALL_NOISE, 0.0, 4.0)["radonifying"]
        sups = simulate_bdg_sups(SMALL_NOISE, fine_v0, 4.0, 50, 4, 0.05, 0.01)
        want = {"T=0.02": float(np.mean(sups[:, 0] ** 2)) / (0.02 * phi**2),
                "T=0.05": float(np.mean(sups[:, 1] ** 2)) / (0.05 * phi**2)}
        assert out[0].extra["constants"].keys() == want.keys()
        for key, value in want.items():
            assert out[0].extra["constants"][key] == pytest.approx(value, rel=1e-14)

    def test_rational_square_sigma_gives_verdicts(self, grid16, rng):
        # sigma reads the pivot, which must follow v0 onto the doubled grid
        spec = CovarianceSpec(SMALL_NOISE.mode_indices, SMALL_NOISE.coefficients, 0.5,
                              "rational_square", _single_mode_vector(grid16, (1, 0), 32.0))
        v0 = random_divfree_field(grid16, rng)
        out = bdg_report(spec, v0, 4.0, [2, 4], 16, 5, 0.1, 0.01, BDG_STABILITY)
        assert [r.name for r in out] == ["bdg.C2", "bdg.C4"]
        assert all(math.isfinite(r.observed) for r in out)
        assert len(out[0].extra["constants"]) == 2

    def test_small_scale_stability(self, grid16, rng):
        v0 = biot_savart(random_scalar_field(grid16, rng))
        out = bdg_report(SMALL_NOISE, v0, 4.0, [2], 64, 5, 0.2, 2e-3, BDG_STABILITY)
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
