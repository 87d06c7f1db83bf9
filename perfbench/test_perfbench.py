"""Tests of the benchmark's own logic: operation accounting, span
arithmetic, the requested path-step count and the tracer's installation."""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from checks import (count_operations, energy_balance, path_failed, state_defects,
                    velocity_norms)
from tracer import (Span, Tracer, covered, layer_metrics, outermost_time, owned_nbytes,
                    self_times)
from workloads import WORKLOADS, noise_modes, requested_path_steps, workload_config

HEADER = ("path_index,sup_v_l2sq,int_grad_v,sup_xi_lq,sup_beta_l2,int_grad_beta,"
          "sup_beta_lq,status")


def stats_csv(*rows):
    return "\n".join([HEADER, *rows]) + "\n"


def entry(passed):
    return {"name": "x", "observed": 1.0, "bound": 2.0, "passed": passed,
            "n_samples": 2, "seed": 0}


class TestOperations:
    def test_clean_outputs(self):
        text = stats_csv("0,1.0,2.0,3.0,4.0,5.0,6.0,completed",
                         "1,1.5,2.0,3.0,4.0,5.0,6.0,completed")
        assert count_operations(text, json.dumps([entry(True)] * 3)) == (5, 0)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_functional_fails_the_path(self, value):
        row = f"0,1.0,{value},3.0,4.0,5.0,6.0,completed"
        assert count_operations(stats_csv(row), "[]") == (1, 1)

    def test_status_other_than_completed_fails_the_path(self):
        assert path_failed({"status": "blowup", "sup_v_l2sq": "1.0"})

    def test_fail_verdict_counts(self):
        text = stats_csv("0,1.0,2.0,3.0,4.0,5.0,6.0,completed")
        checks = json.dumps([entry(True), entry(False), entry(False)])
        assert count_operations(text, checks) == (4, 2)


def span(sid, start, end, parent=0, name="x"):
    return Span(sid, name, start, end, parent, 1)


class TestSpanArithmetic:
    def test_covered_merges_overlaps_and_clips(self):
        assert covered([(0.0, 2.0), (1.0, 3.0), (5.0, 20.0)], 0.0, 10.0) == 8.0
        assert covered([], 0.0, 1.0) == 0.0

    def test_self_time_subtracts_children_once(self):
        spans = [span(1, 0.0, 10.0), span(2, 1.0, 4.0, parent=1),
                 span(3, 2.0, 6.0, parent=1),  # overlaps 2, as pool threads do
                 span(4, 2.5, 3.0, parent=2)]
        selfs = self_times(spans)
        assert selfs[1] == pytest.approx(5.0)
        assert selfs[2] == pytest.approx(2.5)
        assert selfs[3] == pytest.approx(4.0)
        assert selfs[4] == pytest.approx(0.5)

    def test_outermost_time_counts_nested_calls_once(self):
        spans = [span(1, 0.0, 10.0, name="top"),
                 span(2, 1.0, 5.0, parent=1, name="norm"),
                 span(3, 2.0, 3.0, parent=2, name="norm"),
                 span(4, 6.0, 7.0, parent=1, name="norm")]
        assert outermost_time(spans, {"norm"}) == pytest.approx(5.0)


class TestRequestedPathSteps:
    def test_main_mc_only(self):
        doc = {"solver": {"dt": 0.01, "t_end": 0.2}, "mc": {"n_paths": 3}}
        assert requested_path_steps(doc) == 60

    def test_drivers_with_defaults(self):
        doc = {"solver": {"dt": 0.1, "t_end": 1.0}, "mc": {"n_paths": 2},
               "checks": [{"name": "energy"}, {"name": "identities"},
                          {"name": "hy_uniformity"}, {"name": "zeta_regularity"},
                          {"name": "gronwall"}, {"name": "bdg"}]}
        # main 2*10, hy 4 levels*2*10, zeta 3 levels*8*10, gronwall 2*2*10,
        # bdg 2 grids*500*10
        assert requested_path_steps(doc) == 20 + 80 + 240 + 40 + 10000

    def test_zeta_with_q_not_two_integrates_twice(self):
        doc = {"solver": {"dt": 0.5, "t_end": 1.0},
               "mc": {"n_paths": 1},
               "checks": [{"name": "zeta_regularity", "q": 4, "levels": [1, None],
                           "n_paths": 3}]}
        assert requested_path_steps(doc) == 2 + 2 * 2 * 3 * 2

    def test_check_drivers_workload(self):
        doc = workload_config("check_drivers", 5)
        # main 8, hy 3*4, zeta 3*4, gronwall 2*4, bdg 2*100 paths, 20 steps
        assert requested_path_steps(doc) == 20 * (8 + 12 + 12 + 8 + 200)

    def test_sizes_do_not_depend_on_seed(self):
        for name in WORKLOADS:
            a, b = workload_config(name, 1), workload_config(name, 2**64 + 9)
            assert requested_path_steps(a) == requested_path_steps(b)
            assert 0 <= b["mc"]["base_seed"] < 2**63


class TestIndependentChecks:
    def test_default_band_has_24_modes(self):
        assert len(noise_modes({"noise": {}})) == 24

    def test_state_defects_of_an_exact_state(self):
        n = 8
        k = np.fft.fftfreq(n, 1.0 / n)
        k[n // 2] = 0.0
        kx, ky = k[:, None], k[None, :]
        vx = np.zeros((n, n), complex)
        vy = np.zeros((n, n), complex)
        vx[0, 1], vx[0, -1] = 0.5, 0.5  # cos(y) e_x: divergence-free
        xi = 1j * (kx * vy - ky * vx)
        d = state_defects(vx, vy, xi, 0.5 * xi, 0.5 * xi, 2 * np.pi)
        assert max(d.values()) < 1e-15

    def test_velocity_norms_of_a_shear(self):
        # v = (3 cos(2y), 0) on [0, 2pi]^2: ||v||^2 = 18 pi^2, ||grad v||^2 = 4 ||v||^2
        vx = np.zeros((8, 8), complex)
        vx[0, 2], vx[0, -2] = 1.5, 1.5
        energy, grad = velocity_norms(vx, np.zeros_like(vx), 2 * np.pi)
        assert energy == pytest.approx(18 * np.pi ** 2)
        assert grad == pytest.approx(4 * energy)

    def test_energy_balance_pure_noise(self):
        # zero initial data: the right side is T sum c_k^2 ||e_k||^2 alone
        doc = {"grid": {"modes_per_dim": 8}, "solver": {"dt": 0.1, "t_end": 1.0},
               "noise": {"modes": [[1, 0]], "coefficient_base": 1.0,
                         "sigma_kind": "constant_one", "roughness": 0.5}}
        rows = [{"int_grad_v": "0.2", "sup_v_l2sq": "0.4"},
                {"int_grad_v": "0.3", "sup_v_l2sq": "0.5"}]
        report = energy_balance(doc, np.zeros((8, 8), complex), rows)
        assert report["rhs"] == pytest.approx(2.0 ** -0.5)
        assert report["rhs_low"] == pytest.approx(2.0 ** -0.5 * math.exp(-0.2))
        assert report["ok"]


def test_tracer_adopts_pool_work_and_uninstalls():
    from vortex import harness, integrator, noise

    original = (harness.run_paths, harness.sample_increment, integrator.sample_increment)
    spec = noise.CovarianceSpec(((1, 0), (0, 1)), (1.0, 1.0), 0.5)
    tracer = Tracer()
    tracer.install()
    try:
        harness.run_paths(lambda p: harness.sample_increment(3, p, 0, spec, 0.1), 4,
                          workers=2)
        harness.run_paths(lambda p: harness.sample_increment(3, p, 0, spec, 0.1), 2,
                          workers=1)
    finally:
        tracer.uninstall()
    assert (harness.run_paths, harness.sample_increment,
            integrator.sample_increment) == original
    by_id = {s.sid: s for s in tracer.spans}
    draws = [s for s in tracer.spans if s.name == "noise.sample_increment"]
    assert len(draws) == 6 and all(s.via == "harness" for s in draws)
    for s in draws:
        worker = by_id[s.parent]
        assert worker.name == "harness.worker"
        assert by_id[worker.parent].name == "harness.run_paths"
    assert len(set(tracer.keys["increment"])) == 4
    assert sorted(tracer.pool_sizes.values()) == [1, 2]


def test_owned_nbytes_of_a_dense_basis():
    from vortex import noise, spectral

    grid = spectral.SpectralGrid(8)
    spec = noise.CovarianceSpec(((1, 0), (0, 1)), (1.0, 1.0), 0.5)
    basis = noise.NoiseBasis(spec, grid)
    # per mode: vel_stack 2 + vor_stack 1 + velocity 2 + vorticity 1 complex
    # N x N arrays, plus one float64 |k|^2
    assert owned_nbytes(basis, shared=(spec, grid)) == 2 * (6 * 8 * 8 * 16 + 8)


def test_layer_metrics_match_the_benchmark_file(tmp_path):
    bench = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert set(layer_metrics(Tracer(), 1.0, tmp_path)) == {m["name"] for m in bench["per_layer"]}
