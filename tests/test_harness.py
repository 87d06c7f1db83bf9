"""Verification harness: reports, uniformity checks, Gronwall contraction,
identity suites and stochastic-integral constants."""

import math
import os
import select
import signal
import struct
import time
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
    holder_quotient,
    sigma_of,
    stacked_drift,
    weighted_pairs_in_loop,
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
    gronwall_weighted,
    holder_quotients,
    hy_uniformity,
    identity_suite,
    measure_gn_constant,
    run_paths,
    simulate_bdg_sups,
    sweep,
    zeta_budget,
    zeta_regularity,
)
from vortex import harness, integrator, noise, operators
from vortex.integrator import SolverConfig, TrajectoryStats, run_trajectory
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


def weighted_pairs(v0a, v0b, spec, cfg, seed, paths, a_const):
    """Each `gronwall_pairs` pair weighted with the Young constant a_const:
    its M series, sup ||V|| and status."""
    return [gronwall_weighted(pair, a_const, cfg.dt)
            for pair in gronwall_pairs(v0a, v0b, spec, cfg, seed, paths)]


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
    @pytest.mark.parametrize("cpus, want", [(1, 1), (2, 2), (8, 4)])
    def test_usable_cpus_up_to_four(self, monkeypatch, cpus, want):
        monkeypatch.setattr(harness.os, "sched_getaffinity", lambda pid: set(range(cpus)))
        assert harness.path_workers() == want

    def test_serial_without_affinity(self, monkeypatch):
        monkeypatch.delattr(harness.os, "sched_getaffinity")
        assert harness.path_workers() == 1


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class Gate:
    """A `run_paths` worker that makes a test independent of how fast the
    forked children start.  Job 0, which the caller runs, first waits
    until until(announced) holds, announced being the (pid, job) of each
    job a child has started, in order; with hold, each child's job then
    waits until job 0 has seen enough, so that no child takes the jobs
    meant for another."""

    def __init__(self, worker, until, hold=False):
        self.worker, self.until, self.hold = worker, until, hold
        self.parent, self.announced = os.getpid(), []
        (self.heard, self.say), (self.wait, self.go) = os.pipe(), os.pipe()

    def __call__(self, i):
        if os.getpid() != self.parent:
            os.write(self.say, struct.pack("ii", os.getpid(), i))
            if self.hold:
                os.read(self.wait, 1)
        elif i == 0:
            while not self.until(self.announced):
                assert select.select([self.heard], [], [], 30.0)[0], "no child took a job"
                self.announced.append(struct.unpack("ii", os.read(self.heard, 8)))
            os.write(self.go, bytes(1024))  # releases every held job
        return self.worker(i)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        for fd in (self.heard, self.say, self.wait, self.go):
            os.close(fd)


def children(count):
    """A Gate condition: jobs of `count` distinct children have started."""
    return lambda announced: len({pid for pid, _ in announced}) >= count


class TestRunPaths:
    def test_order_fixed(self):
        out = run_paths(lambda i: i * i, 7, workers=3)
        assert out == [i * i for i in range(7)]
        assert_no_child_left()

    def test_single_worker_same_result(self):
        a = run_paths(lambda i: i + 1, 5, workers=1)
        b = run_paths(lambda i: i + 1, 5, workers=4)
        assert a == b
        assert_no_child_left()

    def test_many_short_jobs(self):
        assert run_paths(lambda i: i, 20000, workers=2) == list(range(20000))
        assert_no_child_left()

    def test_results_come_from_children(self):
        # job 0 runs here; each of the two children runs a held job
        with Gate(lambda i: os.getpid(), children(2), hold=True) as gate:
            pids = run_paths(gate, 7, workers=3)
        assert pids[0] == os.getpid()
        assert len(set(pids)) == 3
        assert {pid for pid, _ in gate.announced} == set(pids) - {os.getpid()}
        assert_no_child_left()

    def test_each_worker_starts_on_its_own_cpu(self, monkeypatch):
        # moved to the k-th usable CPU, then free to run on all of them
        calls = []
        monkeypatch.setattr(harness.os, "sched_getaffinity", lambda pid: {3, 5, 7})
        monkeypatch.setattr(harness.os, "sched_setaffinity",
                            lambda pid, cpus: calls.append((pid, set(cpus))))
        for k in range(4):
            harness._settle(k)
        every = (0, {3, 5, 7})
        assert calls == [(0, {3}), every, (0, {5}), every, (0, {7}), every, (0, {3}), every]

    def test_workers_keep_every_cpu(self):
        masks = run_paths(lambda i: os.sched_getaffinity(0), 4, workers=2)
        assert masks == [os.sched_getaffinity(0)] * 4
        assert_no_child_left()

    def test_child_exception_is_raised_here(self):
        def worker(i):
            if i == 5:
                raise ValueError("bad path 5")
            return i

        with pytest.raises(ValueError, match="^bad path 5$"):
            run_paths(worker, 7, workers=3)
        assert_no_child_left()

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_lowest_failing_job_is_raised(self, workers):
        # the slow job 2 is still running when jobs 5 and 6 fail on other
        # workers, and its exception is the one a serial run raises
        def worker(i):
            if i == 2:
                time.sleep(0.2)
            if i in (2, 5, 6):
                raise ValueError(f"bad path {i}")
            return i

        with pytest.raises(ValueError, match="^bad path 2$"):
            run_paths(worker, 9, workers=workers)
        assert_no_child_left()

    @pytest.mark.parametrize("die, how", [(lambda: os._exit(3), "exited 3"),
                                          (lambda: os.kill(os.getpid(), signal.SIGKILL),
                                           "was killed by signal 9")])
    def test_child_without_results_names_its_jobs(self, die, how):
        # the child dies in the first job it takes
        with Gate(lambda i: i, children(1)) as gate:
            def worker(i):
                if os.getpid() != gate.parent:
                    die()
                return i

            gate.worker = worker
            with pytest.raises(RuntimeError) as err:
                run_paths(gate, 7, workers=2)
        [(_, job)] = gate.announced
        assert str(err.value) == (f"jobs {job} got no result: the worker process that "
                                  f"took them {how}")
        assert_no_child_left()

    def test_child_killed_mid_run_names_every_job_it_took(self):
        # the child takes jobs 1, 2 and 3 while job 0 runs here, and is
        # killed in job 3: the results of 1 and 2 die with it
        with Gate(lambda i: i, lambda announced: len(announced) == 3) as gate:
            def worker(i):
                if os.getpid() != gate.parent and i == 3:
                    os.kill(os.getpid(), signal.SIGKILL)
                return i

            gate.worker = worker
            with pytest.raises(RuntimeError) as err:
                run_paths(gate, 8, workers=2)
        assert [job for _, job in gate.announced] == [1, 2, 3]
        assert str(err.value) == ("jobs 1, 2, 3 got no result: the worker process that "
                                  "took them was killed by signal 9")
        assert_no_child_left()

    def test_failure_in_own_share_reaps_children(self):
        def worker(i):
            if i == 0:
                raise KeyError("here")
            time.sleep(60.0)  # the children are killed, not waited for

        start = time.perf_counter()
        with pytest.raises(KeyError):
            run_paths(worker, 4, workers=2)
        assert time.perf_counter() - start < 30.0
        assert_no_child_left()

    def test_unpicklable_result_is_an_error(self):
        with Gate(lambda i: (lambda: i), children(1)) as gate:
            with pytest.raises(RuntimeError) as err:
                run_paths(gate, 4, workers=2)
        [(_, job)] = gate.announced
        assert str(err.value).startswith(f"the result of job {job} could not be pickled")
        assert_no_child_left()

    def test_wrapped_run_paths_keeps_every_job_here(self, monkeypatch):
        # the stopgap for the span tracer: a wrapper records in this process
        # only, so nothing forks under it
        monkeypatch.setattr(harness, "run_paths",
                            lambda worker, n, workers: run_paths(worker, n, workers))
        pids = harness.run_paths(lambda i: os.getpid(), 5, 3)
        assert pids == [os.getpid()] * 5
        assert_no_child_left()
        monkeypatch.undo()
        with Gate(lambda i: os.getpid(), children(2), hold=True) as gate:
            assert len(set(harness.run_paths(gate, 5, 3))) == 3
        assert_no_child_left()


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
        # a NaN last sample of each path: the quotient keeps it, and the check FAILs
        reduce = harness.holder_quotients

        def nan_last(zetas, *args):
            zetas = [np.concatenate([z[:-1], z[-1:] * np.nan]) for z in zetas]
            return reduce(zetas, *args)

        monkeypatch.setattr(harness, "holder_quotients", nan_last)
        xi0 = random_scalar_field(grid16, rng)
        cfg = SolverConfig(dt=2e-3, t_end=0.064)
        out = swept_zeta(SMALL_NOISE, xi0, cfg, [10.0, math.inf], n_paths=2, base_seed=11,
                         beta=0.2, delta=0.0, p=32.0, q=2.0, stride=4)
        assert out.name == "zeta_regularity"
        assert not out.passed and out.observed == math.inf
        assert all(math.isnan(m) for m in out.extra["quotient_means"])


class TestHolderQuotients:
    """The sweep's stacked reduction of run_trajectory's zeta samples,
    judged by the oracle that norms each pair of dense observed zetas."""

    @staticmethod
    def batch(spec, xi0, cfg, n_paths, stride):
        """A batch's results, zeta kept every `stride` steps, and the dense
        states an observer of each path sees."""
        seen = [[] for _ in range(n_paths)]
        done = run_trajectory(None, xi0, spec, cfg, seed=3, n_paths=n_paths,
                              observer=[s.append for s in seen], zeta_stride=stride)
        return done, seen

    @staticmethod
    def sampled(states, stride, n_steps):
        """The observed states at the steps a probe samples, k-th after k steps."""
        return [st for k, st in enumerate(states) if k % stride == 0 or k == n_steps]

    def oracle(self, states, stride, n_steps, probe):
        kept = self.sampled(states, stride, n_steps)
        return holder_quotient([st.zeta for st in kept], [st.t for st in kept],
                               probe.beta, probe.delta, probe.q)

    @pytest.mark.parametrize("stride", [1, 3, 8])
    @pytest.mark.parametrize("delta", [0.0, 0.5])
    @pytest.mark.parametrize("q", [2.0, 3.0, 4.0])
    def test_bits_of_the_dense_oracle(self, grid32, rng, q, delta, stride):
        # 20 steps, not a multiple of 3 or 8: the last state is a sample too
        cfg = SolverConfig(dt=5e-3, t_end=0.1)
        xi0 = random_scalar_field(grid32, rng)
        probe = HolderProbe(0.2, delta, q, stride)
        done, seen = self.batch(SMALL_NOISE, xi0, cfg, 4, stride)
        touched = noise.scatter_plan(SMALL_NOISE, grid32).touched
        for res, states in zip(done, seen):
            kept = self.sampled(states, stride, cfg.n_steps)
            assert np.array_equal(res.zeta, [st.zeta.half.ravel()[touched] for st in kept])
        got = holder_quotients([r.zeta for r in done], stride, cfg, probe, SMALL_NOISE, grid32)
        assert got == [self.oracle(states, stride, cfg.n_steps, probe) for states in seen]
        assert all(quotient > 0 for quotient in got)
        # the sweep keeps zeta every gcd of its probes' strides: each probe
        # reads its own samples among them, with the same bits
        every_step, _ = self.batch(SMALL_NOISE, xi0, cfg, 4, 1)
        assert holder_quotients([r.zeta for r in every_step], 1, cfg, probe, SMALL_NOISE,
                                grid32) == got

    @pytest.mark.parametrize("q", [3.0, 4.0])
    def test_transforms_only_the_columns_zeta_touches(self, grid32, rng, monkeypatch, q):
        # zeta vanishes past the largest column of the default band's modes,
        # column 2: each transform takes columns 0..2 alone, with the bits of
        # the oracle's whole dense differences
        spec = replace(SMALL_NOISE, mode_indices=tuple(_band_modes(2)),
                       coefficients=(0.2,) * 24)
        cfg = SolverConfig(dt=5e-3, t_end=0.1)
        xi0 = random_scalar_field(grid32, rng)
        probe = HolderProbe(0.2, 0.5, q, 2)
        done, seen = self.batch(spec, xi0, cfg, 3, 2)
        widths, real = [], harness.physical_values
        monkeypatch.setattr(harness, "physical_values",
                            lambda halves: widths.append(halves.shape[-1]) or real(halves))
        got = holder_quotients([r.zeta for r in done], 2, cfg, probe, spec, grid32)
        assert widths and set(widths) == {3}
        assert got == [self.oracle(states, 2, cfg.n_steps, probe) for states in seen]

    @pytest.mark.parametrize("q", [2.0, 3.0])
    def test_a_blown_up_row_leaves_the_others_their_bits(self, grid16, q):
        # a threshold 1.3x the initial norms blows 3 of the 6 paths up; each
        # path's quotient is the oracle's of the states it lived to, and a
        # path that completes has the quotient of its one-path run
        spec = CovarianceSpec(((1, 0), (0, 1), (1, 1), (-1, 0)), (2.0, 1.5, 1.0, 1.0),
                              0.5, "constant_one").with_hy_level(10.0)
        xi0 = random_scalar_field(grid16, np.random.default_rng(3))
        threshold = 1.3 * max(l2_norm(biot_savart(xi0)), l2_norm(xi0))
        cfg = SolverConfig(dt=2e-3, t_end=0.128, blowup_threshold=threshold)
        probe = HolderProbe(0.2, 0.5, q, 3)
        done, seen = self.batch(spec, xi0, cfg, 6, 3)
        assert [r.stats.status for r in done].count("blowup") == 3
        got = holder_quotients([r.zeta for r in done], 3, cfg, probe, spec, grid16)
        assert got == [self.oracle(states, 3, cfg.n_steps, probe) for states in seen]
        for p, (res, quotient) in enumerate(zip(done, got)):
            alone = run_trajectory(None, xi0, spec, cfg, seed=3, path_index=p, zeta_stride=3)
            assert np.array_equal(alone.zeta, res.zeta)
            assert holder_quotients([alone.zeta], 3, cfg, probe, spec, grid16) == [quotient]


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

    def test_a_probed_sweep_builds_no_dense_state(self, grid16, rng, monkeypatch):
        # the quotients read zeta at its touched coefficients: with no
        # snapshots, no path builds a state
        calls = []
        monkeypatch.setattr(integrator.Visit, "state", lambda visit, i: calls.append(i))
        monkeypatch.setattr(harness, "path_workers", lambda: 1)  # the spy sees no child
        cfg = SolverConfig(dt=5e-3, t_end=0.05)
        probe = HolderProbe(0.2, 0.0, 2.0, 3)
        results = sweep(SMALL_NOISE, None, random_scalar_field(grid16, rng), cfg, 1, 2,
                        demands=[([10.0, math.inf], 3, probe)])
        assert sum(map(len, results.values())) == 6
        assert calls == []

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
        res = weighted_pairs(v0a, v0b, ZERO_NOISE, cfg, seed=0, paths=[0], a_const=a)[0]
        m = res["m_series"]
        for x, y in zip(m, m[1:]):
            assert y <= x * (1 + 1e-6)

    def test_pair_matches_advective_form(self, grid32, rng, monkeypatch):
        # the pair steps with the rotational velocity_drift; P B(v,v) of the
        # advective bilinear_B is the oracle
        pivot = random_divfree_field(grid32, rng, amplitude=4.0)
        spec = CovarianceSpec(((1, 0), (0, 1), (1, 1)), (1.0,) * 3, 0.5, "rational_square",
                              pivot)
        v0a = biot_savart(random_scalar_field(grid32, rng, amplitude=3.0))
        bump = random_divfree_field(grid32, rng)
        v0b = v0a + bump * (1e-2 / l2_norm(bump))
        cfg = SolverConfig(dt=2e-3, t_end=0.12)
        res = weighted_pairs(v0a, v0b, spec, cfg, seed=4, paths=[1], a_const=0.3)[0]
        monkeypatch.setattr(operators, "velocity_drift",
                            stacked_drift(lambda v, w: leray_project(bilinear_B(v, v))))
        oracle = weighted_pairs(v0a, v0b, spec, cfg, seed=4, paths=[1], a_const=0.3)[0]
        assert len(res["m_series"]) == len(oracle["m_series"]) == cfg.n_steps + 1
        for a, b in zip(res["m_series"], oracle["m_series"]):
            assert abs(a - b) <= 1e-12 * b
        assert abs(res["sup_v"] - oracle["sup_v"]) <= 1e-12 * oracle["sup_v"]

    def test_pair_with_a_mode_outside_the_dealias_band_is_refused(self, grid32, rng):
        # the pair steps the run's loop, which refuses such a noise mode
        spec = CovarianceSpec(((1, 0), (12, 0)), (1.0, 1.0), 0.5, "constant_one")
        v0 = biot_savart(random_scalar_field(grid32, rng))
        cfg = SolverConfig(dt=2e-3, t_end=0.01)
        with pytest.raises(ValueError, match="^noise mode [(]12, 0[)] lies outside the dealias"):
            gronwall_pairs(v0, v0 * 1.01, spec, cfg, 4, [1])

    def test_a_finite_norm_whose_square_overflows_fails(self, grid16):
        # ||grad v1|| is finite, near 1.4e154, but its square overflows: the
        # square is inf, not an OverflowError, and the blown-up pair FAILs
        # the check as gronwall.status
        v0a = random_divfree_field(grid16, np.random.default_rng(0), amplitude=7.5e153)
        v0b = v0a * (1.0 + 1e-3)
        spec = CovarianceSpec(((1, 0), (0, 1)), (1.0, 1.0), 0.5, "constant_one")
        cfg = SolverConfig(dt=0.005, t_end=0.05, blowup_threshold=1e300)
        (pair,) = gronwall_pairs(v0a, v0b, spec, cfg, 0, [0])
        assert 1e154 < pair["grad_norms"][0] < math.inf
        out = gronwall_uniqueness(v0a, v0b, spec, cfg, n_paths=1, base_seed=0,
                                  slack=GRONWALL_SLACK, gn_trials=50)
        assert out.name == "gronwall.status" and not out.passed
        assert out.extra["diagnostic"] == "1 of 1 paths blew up"

    def test_an_overflowing_weight_is_a_blowup(self):
        # psi = inf would weigh every later M by exp(-inf) = 0, which passes
        # any bound: a completed pair whose square overflows is a blow-up
        pair = {"v_norms": [1.0, 0.5], "grad_norms": [2e154, 1.0], "q_sq": [0.0, 0.0],
                "status": "completed"}
        out = gronwall_weighted(pair, 0.3, 0.01)
        assert out["m_series"] == [1.0, 0.0] and out["status"] == "blowup"
        pair["grad_norms"][0] = 1e150
        assert gronwall_weighted(pair, 0.3, 0.01)["status"] == "completed"

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
            pair = weighted_pairs(v0a, v0b, spec, cfg, 6, [2], a_const)[0]
            seen = [[], []]
            for v0, states in zip((v0a, v0b), seen):
                run_trajectory(v0, curl(v0), spec, cfg, seed=6, path_index=2,
                               observer=states.append)
            hs_sq = noise.basis_l2_sq_sum(spec, grid16)
            int_psi, series, rises = 0.0, [], []
            for one, two in zip(*seen):
                gap_sq = l2_norm(one.v - two.v) ** 2
                series.append(math.exp(-int_psi) * gap_sq)
                rises.append(sigma_of(one.v, spec) - sigma_of(two.v, spec))
                q_sq = rises[-1] * rises[-1] * hs_sq / gap_sq
                int_psi += cfg.dt * (a_const * grad_norm_l2(one.v) ** 2 + q_sq)
            # constant sigma has no noise term; rational_square has one every step
            assert all(r != 0.0 for r in rises) == (spec.sigma_kind == "rational_square")
            assert pair["status"] == "completed"
            assert len(pair["m_series"]) == len(series) == cfg.n_steps + 1
            assert np.array_equal(np.array(pair["m_series"]).view(np.uint64),
                                  np.array(series).view(np.uint64))
            assert pair["sup_v"] == max(l2_norm(one.v - two.v) for one, two in zip(*seen))

    @pytest.mark.parametrize("a_const", [0.05, 0.3])
    @pytest.mark.parametrize("perturbed", [True, False])
    def test_weight_formed_after_the_pairs_is_the_in_loop_weight(self, grid16, rng, a_const,
                                                                 perturbed):
        # the Young constant enters only the reduction; its M series and sup
        # of ||V|| keep the bits of the loop that formed psi while stepping
        v0a = biot_savart(random_scalar_field(grid16, rng))
        bump = random_divfree_field(grid16, rng)
        v0b = v0a + bump * (1e-2 / l2_norm(bump)) if perturbed else v0a
        cfg = SolverConfig(dt=5e-3, t_end=0.05)
        for spec in (SMALL_NOISE, rational_noise(grid16)):
            got = weighted_pairs(v0a, v0b, spec, cfg, 6, [2, 0], a_const)
            want = weighted_pairs_in_loop(v0a, v0b, spec, cfg, 6, [2, 0], a_const)
            for pair, oracle in zip(got, want, strict=True):
                assert pair["status"] == oracle["status"] == "completed"
                assert len(pair["m_series"]) == cfg.n_steps + 1
                assert np.array_equal(np.array(pair["m_series"]).view(np.uint64),
                                      np.array(oracle["m_series"]).view(np.uint64))
                assert pair["sup_v"].hex() == oracle["sup_v"].hex()
                assert (pair["sup_v"] == 0.0) == (not perturbed)

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

    def test_one_noise_evaluation_per_pair_step(self, grid16, rng, monkeypatch):
        seen = []
        original = noise.apply_G

        def counted(sigma, gaussians, *args):
            seen.append((sigma, gaussians))
            return original(sigma, gaussians, *args)

        monkeypatch.setattr(noise, "apply_G", counted)
        v0a = biot_savart(random_scalar_field(grid16, rng))
        v0b = v0a + random_divfree_field(grid16, rng) * 1e-3
        cfg = SolverConfig(dt=5e-3, t_end=0.05)
        spec = rational_noise(grid16)
        res = weighted_pairs(v0a, v0b, spec, cfg, 3, [0], 0.3)[0]
        assert res["status"] == "completed"
        # one call a step for both solutions: sigma of each one's own
        # velocity, v1 then v2, on the path's one draw
        assert len(seen) == cfg.n_steps
        assert seen[0][0].tolist() == [sigma_of(v0a, spec), sigma_of(v0b, spec)]
        for step, (_, gaussians) in enumerate(seen):
            draws = noise.sample_increment(3, 0, step, spec, cfg.dt).gaussians
            assert np.array_equal(gaussians, [draws, draws])

    def test_blown_pair_fails_closed(self, grid16, rng):
        v0a = biot_savart(random_scalar_field(grid16, rng))
        bump = random_divfree_field(grid16, rng)
        v0b = v0a + bump * (1e-3 / l2_norm(bump))
        calm = SolverConfig(dt=5e-3, t_end=0.05)
        cfg = SolverConfig(dt=5e-3, t_end=0.05, blowup_threshold=0.05)
        assert l2_norm(v0a) > cfg.blowup_threshold
        assert weighted_pairs(v0a, v0b, SMALL_NOISE, calm, 3, [0], 0.3)[0]["status"] == "completed"
        pair = weighted_pairs(v0a, v0b, SMALL_NOISE, cfg, 3, [0], 0.3)[0]
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
        clean = gronwall_uniqueness(v0, v0, *args)
        assert clean.name == "gronwall.identical" and clean.passed
        real = harness.sobolev_norms

        def nan_last_pair(halves, grid, s=0.0):
            norms = real(halves, grid, s)
            norms[-1] = math.nan  # the last pair's ||V||, the first pair's kept
            return norms

        monkeypatch.setattr(harness, "sobolev_norms", nan_last_pair)
        pairs = weighted_pairs(v0, v0, SMALL_NOISE, cfg, 3, [0, 1], 0.3)
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
            batch = gronwall_pairs(v0a, v0b, spec, cfg, 6, [2, 0, 5])
            for path, got in zip([2, 0, 5], batch):
                want = gronwall_pairs(v0a, v0b, spec, cfg, 6, [path])[0]
                assert repr(got) == repr(want)
            assert len({repr(got["v_norms"]) for got in batch}) == 3

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
        monkeypatch.setattr(noise, "apply_G", lambda *args: 2.0 * real(*args))
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
        got = measure_gn_constant(grid, trials, seed)
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
        assert math.isnan(measure_gn_constant(grid16, 2 * chunk + 3, 7))
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
        """The trajectory's result and its last velocity."""
        xi0 = random_scalar_field(grid, np.random.default_rng(5), amplitude=3.0)
        states = []
        res = run_trajectory(None, xi0, SMALL_NOISE, SolverConfig(dt=2e-3, t_end=0.02), seed=1,
                             observer=states.append)
        return res, states[-1].v

    @staticmethod
    def suite():
        return {r.name: r for r in identity_suite(SpectralGrid(32), 2, 0)}

    def test_correct_drift_passes(self):
        results = self.suite()
        for name in DRIFT_CHECKS:
            assert results[name].passed, (name, results[name].observed)

    @pytest.mark.parametrize("fault", sorted(FAULTS))
    def test_fault_changes_the_step_and_fails_the_suite(self, grid16, monkeypatch, fault):
        _, correct_v = self.run(grid16)
        plant, failing = self.FAULTS[fault]
        monkeypatch.setattr(operators, "velocity_drift", plant(operators.velocity_drift))
        faulty, faulty_v = self.run(grid16)
        if fault == "nan":
            assert faulty.stats.status == "blowup"
        else:
            gap = l2_norm(faulty_v - correct_v)
            assert gap > 1e-3 * l2_norm(correct_v)
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

    @pytest.mark.parametrize("modes", [_band_modes(1), _band_modes(2),
                                       [(0, 0), (1, 0), (0, -1), (2, 1), (-1, 2)]],
                             ids=["band1", "band2", "mean_mode"])
    @pytest.mark.parametrize("level", [math.inf, 5.0])
    @pytest.mark.parametrize("sigma", ["constant_one", "rational_square"])
    @pytest.mark.parametrize("q", [2.0, 4.0])
    def test_quadrature_grid_agrees_with_the_doubled_grid(self, grid16, rng, modes, level,
                                                          sigma, q):
        # the sups and ||Phi||_R on the smallest exact grid Q, the weights read
        # on v0's grid, against both on 2N with v0 and the pivot moved there
        coeffs = tuple(0.3 / (1.0 + max(map(abs, j))) for j in modes)
        pivot = _single_mode_vector(grid16, (1, 0), 3.0) if sigma == "rational_square" else None
        spec = CovarianceSpec(tuple(modes), coeffs, 0.5, sigma, pivot, level)
        v0 = random_divfree_field(grid16, rng)
        quad = noise.quadrature_grid(spec, grid16, q)
        assert quad.modes_per_dim < 32
        fine = SpectralGrid(32)
        fine_spec = spec if pivot is None else replace(spec, pivot=regrid(pivot, fine))
        fine_v0 = regrid(v0, fine)
        got = simulate_bdg_sups(spec, v0, q, 6, 3, 0.1, 0.01, quad)
        want = simulate_bdg_sups(fine_spec, fine_v0, q, 6, 3, 0.1, 0.01)
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=0.0)
        phi = noise.operator_norms(v0, spec, 0.0, q, quad)["radonifying"]
        phi_fine = noise.operator_norms(fine_v0, fine_spec, 0.0, q)["radonifying"]
        assert phi == pytest.approx(phi_fine, rel=1e-14, abs=0.0)
        assert harness.bdg_phi_norm(spec, v0, q) == phi

    @pytest.mark.parametrize("q", [2.0, 4.0, 6.0])
    def test_even_q_moves_neither_v0_nor_the_pivot(self, grid16, rng, monkeypatch, q):
        import dataclasses

        from vortex import spectral

        def refused(*args, **kwargs):
            raise AssertionError("a field was moved to another grid")

        for module in (harness, spectral):
            monkeypatch.setattr(module, "regrid", refused)
        for module in (harness, dataclasses):
            monkeypatch.setattr(module, "replace", refused, raising=False)
        v0 = random_divfree_field(grid16, rng)
        out = bdg_report(rational_noise(grid16), v0, q, [2, 4], 8, 5, 0.1, 0.01, BDG_STABILITY)
        assert [r.name for r in out] == ["bdg.C2", "bdg.C4"]
        assert all(math.isfinite(r.observed) for r in out)

    def test_nonzero_operator_whose_norm_underflows_is_refused(self, grid16, rng):
        # |x|^1000 underflows, so ||Phi||_R reads 0 for a nonzero Phi: the
        # constants would divide by it, so it is an error, not a skip
        v0 = random_divfree_field(grid16, rng)
        with pytest.raises(ValueError, match="q = 1000"):
            harness.bdg_phi_norm(SMALL_NOISE, v0, 1000.0)
        with pytest.raises(ValueError, match="q = 1000"):
            bdg_report(SMALL_NOISE, v0, 1000.0, [2], 4, 0, 0.1, 0.01, BDG_STABILITY)

    def test_skipped_only_when_every_weight_is_zero(self, grid16):
        # v0 = 0 gives <v0, h> = 0, so sigma(v0) = 0 under rational_square,
        # and a q at which a nonzero Phi would be refused skips
        v0 = VectorField(grid16, np.zeros((2, 16, 9), dtype=np.complex128))
        spec = rational_noise(grid16)
        assert not np.any(noise.mode_weights(spec, v0))
        assert harness.bdg_phi_norm(spec, v0, 1000.0) == 0.0
        out = bdg_report(spec, v0, 1000.0, [2], 4, 0, 0.1, 0.01, BDG_STABILITY)
        assert [r.name for r in out] == ["bdg.C2.skipped"]

    @pytest.mark.parametrize("q", [3.0, 4.0])
    def test_sups_match_a_per_time_lq_norm_oracle(self, grid16, rng, q):
        # X(t_j) = sum_k c_k sigma(v0) R_n(k) B_k(t_j) e_k built as a field from
        # the dense basis at every time, normed by lq_norm
        spec = replace(self.band_two(grid16, "rational_square"), hy_level=5.0)
        v0 = random_divfree_field(grid16, rng)
        T, dt, n_paths = 0.05, 0.01, 3
        sig = sigma_of(v0, spec)
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
        monkeypatch.setattr(harness, "path_workers", lambda: 1)  # the spy sees no child
        sups = simulate_bdg_sups(SMALL_NOISE, v0, 4.0, 5, 3, 0.1, 0.01)
        assert len(draws) == len(set(draws)) == 5 * 10
        assert sups.shape == (5, 2)

    @pytest.mark.parametrize("q", [4.0, 400.0])
    def test_sups_scale_exactly_and_never_underflow(self, grid16, rng, q):
        # X is linear in the coefficients, so scaling them by 2^-40 scales
        # every sup by 2^-40, bit for bit; at q = 400, |x|^q of the smaller
        # X would underflow to 0 without the power-of-two scaling of each time
        v0 = random_divfree_field(grid16, rng)
        tiny = replace(SMALL_NOISE, coefficients=tuple(c * 2.0**-40
                                                       for c in SMALL_NOISE.coefficients))
        sups = simulate_bdg_sups(SMALL_NOISE, v0, q, 20, 1, 0.05, 0.005)
        small = simulate_bdg_sups(tiny, v0, q, 20, 1, 0.05, 0.005)
        assert np.all(small > 0.0)
        assert np.array_equal(small, sups * 2.0**-40)

    def test_zero_operator_sups_stay_zero(self, grid16, rng):
        # every time row is all zero, as the t = 0 row always is: norm 0, no warning
        v0 = random_divfree_field(grid16, rng)
        sups = simulate_bdg_sups(ZERO_NOISE, v0, 400.0, 3, 1, 0.05, 0.005)
        assert sups.shape == (3, 2) and not np.any(sups)

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
        quad = noise.quadrature_grid(SMALL_NOISE, grid16, 4.0)
        phi = noise.operator_norms(v0, SMALL_NOISE, 0.0, 4.0, quad)["radonifying"]
        sups = simulate_bdg_sups(SMALL_NOISE, v0, 4.0, 50, 4, 0.05, 0.01, quad)
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
