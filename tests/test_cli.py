"""CLI orchestration: run/check/report, output files, determinism."""

import json
import math
import os
import select

import numpy as np
import pytest

from vortex import cli, harness
from vortex.cli import main

SMALL_CONFIG = {
    "grid": {"modes_per_dim": 16},
    "solver": {"dt": 0.005, "t_end": 0.05},
    "noise": {"mode_band": 1, "coefficient_base": 0.2,
              "sigma_kind": "constant_one"},
    "initial": {"kind": "random_vorticity", "amplitude": 1.0},
    "mc": {"n_paths": 3, "base_seed": 11},
    "checks": [{"name": "energy", "ceilings": {"sup_v_l2sq": 100.0}}],
}


def write_config(tmp_path, doc=None, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc if doc is not None else SMALL_CONFIG))
    return path


class TestRunCommand:
    def test_run_writes_outputs(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        code = main(["run", "--config", str(cfg), "--out", str(out)])
        assert code == 0
        for name in ("stats.csv", "checks.json", "manifest.json",
                     "resolved_config.json"):
            assert (out / name).exists()
        rows = (out / "stats.csv").read_text().strip().split("\n")
        assert rows[0] == ("path_index,sup_v_l2sq,int_grad_v,sup_xi_lq,"
                           "sup_beta_l2,int_grad_beta,sup_beta_lq,status")
        assert len(rows) == 4
        checks = json.loads((out / "checks.json").read_text())
        assert all(c["passed"] for c in checks)

    def test_byte_identical_reruns_across_worker_counts(self, tmp_path, monkeypatch):
        # results do not depend on the worker count or the batch size: on this
        # grid a batch holds every path and every Gronwall pair by default, and
        # one path or pair when the batch budget is forced down; every job
        # kind shares one fan-out, for which w workers fork min(w, jobs) - 1
        # children
        doc = dict(SMALL_CONFIG, output={"snapshot_stride": 5},
                   checks=SMALL_CONFIG["checks"] + [
                       {"name": "gronwall", "n_paths": 3, "gn_trials": 50},
                       {"name": "bdg", "n_paths": 4},
                       {"name": "identities", "trials": 2},
                       {"name": "hy_uniformity"},
                       {"name": "zeta_regularity"}])
        cfg = write_config(tmp_path, doc)
        payloads, asked, forks, fanned, real_fork = [], [], [], [], harness.os.fork
        default, real_fan_out = harness.TRIAL_CHUNK_BYTES, harness.fan_out

        def counted_fork():
            pid = real_fork()
            if pid:  # the child leaves by os._exit and records nothing
                forks[-1] += 1
            return pid

        def workers_asked(n):
            asked[-1] += 1
            return n

        def counted_fan_out(jobs, staging=None):
            fanned[-1].append(len(jobs))
            return real_fan_out(jobs, staging)

        monkeypatch.setattr(harness.os, "fork", counted_fork)
        monkeypatch.setattr(harness, "fan_out", counted_fan_out)
        runs = [(workers, budget) for workers in (1, 2, 3) for budget in (default, 1)]
        for workers, budget in runs:
            out = tmp_path / f"w{workers}b{budget}"
            asked.append(0)
            forks.append(0)
            fanned.append([])
            monkeypatch.setattr(harness, "path_workers", lambda n=workers: workers_asked(n))
            monkeypatch.setattr(harness, "TRIAL_CHUNK_BYTES", budget)
            code = main(["run", "--config", str(cfg), "--out", str(out),
                         "--seed", "7"])
            assert code in (0, 1)  # zeta_regularity at its default levels may FAIL
            snaps = sorted((out / "snapshots").iterdir())
            payloads.append(((out / "stats.csv").read_bytes(),
                             (out / "checks.json").read_bytes(),
                             [(f.name, f.read_bytes()) for f in snaps]))
        assert len(payloads[0][2]) == 3 * 3  # steps 0, 5 and 10 of each path
        assert all(got == payloads[0] for got in payloads[1:])
        names = {c["name"].split(".")[0] for c in json.loads(payloads[0][1])}
        assert names == {"energy", "gronwall", "bdg", "identity", "hy_uniformity",
                         "zeta_regularity"}
        # one fan-out per run: the GN constant, the suite, the sweep's
        # batches, the Gronwall pairs' batches and the BDG paths
        assert asked == [1] * len(runs)
        assert all(len(jobs) == 1 for jobs in fanned)
        assert forks == [min(workers, jobs[0]) - 1 for (workers, _), jobs in zip(runs, fanned)]
        assert forks == [0, 0, 1, 1, 2, 2]

    def test_blown_gronwall_pair_fails_without_traceback(self, tmp_path, capsys):
        doc = dict(SMALL_CONFIG, solver={"dt": 0.005, "t_end": 0.05, "blowup_threshold": 0.05},
                   mc={"n_paths": 2}, checks=[{"name": "gronwall", "gn_trials": 50}])
        cfg = write_config(tmp_path, doc)
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
        out, err = capsys.readouterr()
        assert "FAIL gronwall.status: observed=2 bound=0" in out
        assert "Traceback" not in err

    def test_rerun_refused_without_force(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
        assert "force" in capsys.readouterr().err
        assert main(["run", "--config", str(cfg), "--out", str(out),
                     "--force"]) == 0

    def test_manifest_alone_is_refused_before_any_path(self, tmp_path, monkeypatch, capsys):
        def refused(*args, **kwargs):
            raise AssertionError("sweep ran into a populated directory")

        monkeypatch.setattr(cli, "sweep_plan", refused)
        out = tmp_path / "out"
        out.mkdir()
        (out / "manifest.json").write_text("{}\n")
        assert main(["run", "--config", str(write_config(tmp_path)), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "already holds manifest.json" in err and "force" in err

    def test_missing_config_exits_2_without_outputs(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["run", "--config", str(tmp_path / "nope.json"),
                     "--out", str(out)])
        assert code == 2
        assert not out.exists()
        assert "error" in capsys.readouterr().err

    def test_invalid_config_exits_2(self, tmp_path, capsys):
        doc = dict(SMALL_CONFIG)
        doc["solver"] = {"dt": 1.0, "t_end": 0.05}
        cfg = write_config(tmp_path, doc)
        assert main(["run", "--config", str(cfg), "--out",
                     str(tmp_path / "out")]) == 2

    @pytest.mark.parametrize("field, value", [
        ("t_end", "Infinity"), ("dt", "NaN"), ("blowup_threshold", "NaN"),
        ("blowup_threshold", "Infinity"), ("blowup_threshold", "0.0"),
    ])
    def test_non_finite_solver_value_exits_2(self, tmp_path, capsys, field, value):
        solver = {"dt": 0.005, "t_end": 0.05}
        solver[field] = "@"
        doc = dict(SMALL_CONFIG, solver=solver)
        # JSON spells the non-finite numbers Infinity and NaN
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(doc).replace('"@"', value))
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"solver.{field}" in err
        assert not out.exists()

    @pytest.mark.parametrize("table, key", [
        ("initial", "amplitude"), ("initial", "spectral_decay"),
        ("noise", "coefficient_base"), ("noise", "coefficient_decay"),
        ("noise", "pivot_norm"), ("noise", "roughness"), ("grid", "domain_length"),
        ("grid", "dealias_fraction"), ("noise", "hy_level"), (None, "lq_exponent"),
    ])
    @pytest.mark.parametrize("value", ["NaN", "Infinity"])
    def test_non_finite_number_exits_2_naming_the_field(self, tmp_path, monkeypatch,
                                                        capsys, table, key, value):
        calls = TestSharedSweep.count_trajectories(monkeypatch)
        doc = json.loads(json.dumps(SMALL_CONFIG))
        if table is None:
            doc[key] = "@"
        else:
            doc.setdefault(table, {})[key] = "@"
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(doc).replace('"@"', value))
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        field = key if table is None else f"{table}.{key}"
        assert f"'{field}' must be finite" in err and "Traceback" not in err
        assert calls == []
        assert not out.exists()

    @pytest.mark.parametrize("grid, initial, field", [
        # 2 pi/L is finite, but |k|^2 at the grid's corner is not
        ({"modes_per_dim": 16, "domain_length": 1e-160}, {}, "grid.domain_length"),
        # |k|^-decay underflows to 0 on every mode of the dealias band
        ({"modes_per_dim": 16, "domain_length": 6.0}, {"spectral_decay": 1e308},
         "initial.spectral_decay"),
        # its lattices alone would take terabytes
        ({"modes_per_dim": 1048576}, {}, "grid.modes_per_dim"),
    ])
    def test_degenerate_grid_or_spectrum_exits_2(self, tmp_path, monkeypatch, capsys,
                                                 grid, initial, field):
        calls = TestSharedSweep.count_trajectories(monkeypatch)
        doc = dict(SMALL_CONFIG, grid=grid, initial=initial)
        out = tmp_path / "out"
        assert main(["run", "--config", str(write_config(tmp_path, doc)),
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert field in err and "Traceback" not in err
        assert calls == []
        assert not out.exists()

    def test_non_finite_functionals_fail_closed(self, tmp_path, capsys):
        # on so short a domain |xi|^4 overflows while every L^2 norm is finite:
        # the paths end as blowup, never completed with inf, and energy FAILs
        doc = dict(SMALL_CONFIG, grid={"modes_per_dim": 16, "domain_length": 1.0053e-152},
                   initial={"spectral_decay": 0}, mc={"n_paths": 2},
                   checks=[{"name": "energy"}])
        out = tmp_path / "out"
        with np.errstate(over="ignore"):
            code = main(["run", "--config", str(write_config(tmp_path, doc)),
                         "--out", str(out)])
        assert code == 1
        assert "FAIL energy.status" in capsys.readouterr().out
        rows = [r.split(",") for r in (out / "stats.csv").read_text().split()[1:]]
        assert [r[-1] for r in rows] == ["blowup", "blowup"]
        assert any(not math.isfinite(float(x)) for x in rows[0][1:-1])

    @pytest.mark.parametrize("amplitude, noise", [
        (3e154, {"sigma_kind": "constant_one"}), (8e154, {"sigma_kind": "constant_one"}),
        (3e154, {"sigma_kind": "rational_square", "pivot_norm": 1e10}),
    ])
    def test_norms_whose_squares_overflow_fail_closed(self, tmp_path, capsys, amplitude, noise):
        # ||v|| is finite but its square overflows on floats: the paths end
        # as blowup at their first state, energy FAILs and no traceback or
        # warning prints; under the large pivot <v, h>^2 overflows too
        doc = dict(SMALL_CONFIG, initial={"amplitude": amplitude}, noise=noise,
                   mc={"n_paths": 2}, checks=[{"name": "energy"}])
        out = tmp_path / "out"
        code = main(["run", "--config", str(write_config(tmp_path, doc)), "--out", str(out)])
        assert code == 1
        captured = capsys.readouterr()
        assert "FAIL energy.status" in captured.out and "Traceback" not in captured.err
        rows = [r.split(",") for r in (out / "stats.csv").read_text().split()[1:]]
        assert [(r[1], r[-1]) for r in rows] == [("inf", "blowup")] * 2

    def test_overflowing_noise_coefficient_exits_2(self, tmp_path, monkeypatch, capsys):
        calls = TestSharedSweep.count_trajectories(monkeypatch)
        doc = dict(SMALL_CONFIG, grid={"modes_per_dim": 16, "domain_length": 1000},
                   noise={"coefficient_decay": 400})
        out = tmp_path / "out"
        assert main(["run", "--config", str(write_config(tmp_path, doc)),
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "'noise.coefficient_decay'" in err and "Traceback" not in err
        assert calls == []
        assert not out.exists()

    @pytest.mark.parametrize("override, field", [
        (["--paths", "0"], "mc.n_paths"),
        (["--seed", "-1"], "mc.base_seed"),
        (["--seed", "9223372036854775808"], "mc.base_seed"),
    ])
    def test_bad_override_exits_2_naming_the_field(self, tmp_path, monkeypatch, capsys,
                                                   override, field):
        # overrides are read like file values, so they meet the same requirements
        calls = TestSharedSweep.count_trajectories(monkeypatch)
        out = tmp_path / "out"
        assert main(["run", "--config", str(write_config(tmp_path)),
                     "--out", str(out), *override]) == 2
        err = capsys.readouterr().err
        assert f"'{field}'" in err and "Traceback" not in err
        assert calls == []
        assert not out.exists()

    def test_bdg_under_default_sigma_writes_checks(self, tmp_path):
        doc = dict(SMALL_CONFIG, noise={"mode_band": 1, "coefficient_base": 0.2},
                   checks=[{"name": "bdg"}])
        doc["solver"] = {"dt": 0.01, "t_end": 0.05}
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) in (0, 1)
        checks = json.loads((out / "checks.json").read_text())
        assert [c["name"] for c in checks] == ["bdg.C2", "bdg.C4"]

    def test_one_step_bdg_is_refused_before_any_path(self, tmp_path, monkeypatch, capsys):
        # the half-horizon sup would cover no step: refused, not a FAIL of correct code
        def refused(*args, **kwargs):
            raise AssertionError("a path ran on a refused config")

        monkeypatch.setattr(harness, "fan_out", refused)
        doc = dict(SMALL_CONFIG, solver={"dt": 0.01, "t_end": 0.01}, checks=[{"name": "bdg"}])
        out = tmp_path / "out"
        assert main(["run", "--config", str(write_config(tmp_path, doc)),
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "'checks[0]' (bdg)" in err and "solver.t_end" in err
        assert "Traceback" not in err
        assert not (out / "stats.csv").exists()

    def test_bdg_norm_that_underflows_is_refused_before_any_path(self, tmp_path, monkeypatch,
                                                                   capsys):
        # at q = 1000 |x|^q underflows and ||Phi||_R of a nonzero Phi reads 0,
        # which the constants would divide by: refused, not a skipped PASS
        def refused(*args, **kwargs):
            raise AssertionError("a path ran on a refused config")

        monkeypatch.setattr(harness, "fan_out", refused)
        doc = dict(SMALL_CONFIG, solver={"dt": 0.01, "t_end": 0.05},
                   checks=[{"name": "energy"}, {"name": "bdg", "q": 1000}])
        out = tmp_path / "out"
        assert main(["run", "--config", str(write_config(tmp_path, doc)),
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "'checks[1].q'" in err
        assert "Traceback" not in err
        assert not (out / "stats.csv").exists()

    def test_bdg_at_large_even_q_passes_with_no_zero_sup(self, tmp_path, monkeypatch, capsys):
        # at q = 400 |x|^q of every sup below about 0.17 would underflow to 0
        # without the power-of-two scaling of each time's values
        seen, real = [], cli.bdg_plan

        def spied(*args, **kwargs):  # the sups bdg's reduction reads
            jobs, finish = real(*args, **kwargs)
            return jobs, lambda done: seen.append(np.array(done)) or finish(done)

        monkeypatch.setattr(cli, "bdg_plan", spied)
        doc = {"grid": {"modes_per_dim": 16}, "noise": {"sigma_kind": "constant_one"},
               "solver": {"dt": 0.005, "t_end": 0.05}, "mc": {"n_paths": 2},
               "checks": [{"name": "bdg", "n_paths": 400, "q": 400}]}
        assert main(["run", "--config", str(write_config(tmp_path, doc)), "--seed", "1",
                     "--out", str(tmp_path / "out")]) == 0
        out = capsys.readouterr().out
        assert "PASS bdg.C2" in out and "PASS bdg.C4" in out
        assert len(seen) == 1 and seen[0].shape == (400, 2) and np.all(seen[0] > 0.0)

    def test_bdg_norm_is_computed_once(self, tmp_path, monkeypatch):
        calls, real = [], harness.operator_norms

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(harness, "operator_norms", counted)
        doc = dict(SMALL_CONFIG, solver={"dt": 0.01, "t_end": 0.05},
                   checks=[{"name": "bdg", "n_paths": 4}])
        assert main(["run", "--config", str(write_config(tmp_path, doc)),
                     "--out", str(tmp_path / "out")]) in (0, 1)
        assert len(calls) == 1

    def test_checks_json_is_strict_and_holds_extra(self, tmp_path):
        # unceilinged energy functionals have an infinite bound: null, not Infinity
        out = tmp_path / "out"
        assert main(["run", "--config", str(write_config(tmp_path)), "--out", str(out)]) == 0

        def refused(name):
            raise AssertionError(f"{name} in checks.json")

        checks = json.loads((out / "checks.json").read_text(), parse_constant=refused)
        assert all("extra" in c for c in checks)
        bounds = {c["name"]: c["bound"] for c in checks}
        assert bounds["energy.sup_v_l2sq"] == 100.0 and bounds["energy.int_grad_v"] is None
        assert all("stderr" in c["extra"] for c in checks)

    def test_failed_check_exits_1(self, tmp_path):
        doc = dict(SMALL_CONFIG)
        doc["checks"] = [{"name": "energy", "ceilings": {"sup_v_l2sq": 1e-12}}]
        cfg = write_config(tmp_path, doc)
        assert main(["run", "--config", str(cfg), "--out",
                     str(tmp_path / "out")]) == 1

    def test_manifest_hash_tracks_config(self, tmp_path):
        cfg = write_config(tmp_path)
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        out_c = tmp_path / "c"
        main(["run", "--config", str(cfg), "--out", str(out_a)])
        main(["run", "--config", str(cfg), "--out", str(out_b)])
        doc = dict(SMALL_CONFIG)
        doc["mc"] = {"n_paths": 3, "base_seed": 12}
        cfg2 = write_config(tmp_path, doc, name="config2.json")
        main(["run", "--config", str(cfg2), "--out", str(out_c)])
        h = lambda d: json.loads((d / "manifest.json").read_text())["config_hash"]
        assert h(out_a) == h(out_b)
        assert h(out_a) != h(out_c)

    def test_seed_and_paths_overrides(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        main(["run", "--config", str(cfg), "--out", str(out), "--seed", "42",
              "--paths", "2"])
        resolved = json.loads((out / "resolved_config.json").read_text())
        assert resolved["mc"]["base_seed"] == 42
        assert resolved["mc"]["n_paths"] == 2
        rows = (out / "stats.csv").read_text().strip().split("\n")
        assert len(rows) == 3

    def test_snapshots_emitted(self, tmp_path):
        # one path: no energy check, which needs two
        doc = dict(SMALL_CONFIG, checks=[])
        doc["output"] = {"snapshot_stride": 5}
        doc["mc"] = {"n_paths": 1, "base_seed": 1}
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        snaps = sorted((out / "snapshots").glob("*.vspd"))
        # 10 steps at stride 5: the final state is itself a stride multiple
        assert [s.name for s in snaps] == [
            "path0000_step000000.vspd", "path0000_step000005.vspd",
            "path0000_step000010.vspd",
        ]

    def test_a_run_builds_no_dense_zeta(self, tmp_path, monkeypatch):
        # the snapshot writer, the run's one observer, reads xi alone, so no
        # state scatters its zeta into a dense half
        from vortex import integrator

        built, dense = [], integrator.CoupledState.zeta.func
        monkeypatch.setattr(integrator.CoupledState, "zeta",
                            property(lambda st: built.append(st) or dense(st)))
        monkeypatch.setattr(harness, "path_workers", lambda: 1)  # the spy sees no child
        doc = dict(SMALL_CONFIG, output={"snapshot_stride": 5})
        out = tmp_path / "out"
        assert main(["run", "--config", str(write_config(tmp_path, doc)), "--out", str(out)]) == 0
        assert len(list((out / "snapshots").glob("*.vspd"))) == 9
        assert built == []


class TestSharedSweep:
    @staticmethod
    def count_trajectories(monkeypatch):
        calls = []
        original = harness.run_trajectory

        def counted(v0, xi0, spec, cfg, seed, path_index=0, **kwargs):
            paths = kwargs.get("n_paths") or 1  # a batch integrates several
            calls.extend((spec.hy_level, path_index + p) for p in range(paths))
            return original(v0, xi0, spec, cfg, seed, path_index, **kwargs)

        monkeypatch.setattr(harness, "run_trajectory", counted)
        monkeypatch.setattr(harness, "path_workers", lambda: 1)  # the spy sees no child
        return calls

    def test_each_level_and_path_integrated_once(self, tmp_path, monkeypatch):
        calls = self.count_trajectories(monkeypatch)
        doc = dict(SMALL_CONFIG, checks=[
            {"name": "energy"},
            {"name": "hy_uniformity", "levels": [10, None], "n_paths": 2},
            {"name": "zeta_regularity", "levels": [10, None], "n_paths": 4,
             "q": 4, "stride": 3},
        ])
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) in (0, 1)
        # main Monte-Carlo 3 paths at infinity; both checks share both levels
        expected = [(n, p) for n in (math.inf, 10.0) for p in range(4)]
        assert sorted(calls) == sorted(expected)
        names = [c["name"] for c in json.loads((out / "checks.json").read_text())]
        assert names[-2:] == ["hy_uniformity", "zeta_regularity"]
        assert len((out / "stats.csv").read_text().strip().split("\n")) == 4

    def test_refused_zeta_budget_integrates_nothing(self, tmp_path, monkeypatch, capsys):
        calls = self.count_trajectories(monkeypatch)
        doc = dict(SMALL_CONFIG, checks=[{"name": "zeta_regularity", "p": 4}])
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "'checks[0]' zeta_regularity refused" in err and "Traceback" not in err
        assert calls == []
        assert not (out / "stats.csv").exists()

    @pytest.mark.parametrize("n_paths, override", [(1, []), (3, ["--paths", "1"])])
    def test_energy_with_one_path_integrates_nothing(self, tmp_path, monkeypatch, capsys,
                                                     n_paths, override):
        calls = self.count_trajectories(monkeypatch)
        doc = dict(SMALL_CONFIG, mc={"n_paths": n_paths, "base_seed": 11})
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out), *override]) == 2
        err = capsys.readouterr().err
        assert "mc.n_paths" in err and "Traceback" not in err
        assert calls == []
        assert not (out / "stats.csv").exists()

    def test_nyquist_noise_mode_integrates_nothing(self, tmp_path, monkeypatch, capsys):
        calls = self.count_trajectories(monkeypatch)
        doc = dict(SMALL_CONFIG, grid={"modes_per_dim": 8})
        doc["noise"] = {"modes": [[-4, 0], [1, 0]], "sigma_kind": "constant_one"}
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "noise.modes" in err and "dealias band" in err
        assert calls == []
        assert not (out / "stats.csv").exists()

    @pytest.mark.parametrize("grid, initial, check, decay", [
        ({"modes_per_dim": 16, "domain_length": 1e-60}, {},
         {"name": "gronwall", "n_paths": 2, "gn_trials": 50}, "2.9046439964507584"),
        ({"modes_per_dim": 16, "domain_length": 1.0053e-152}, {"spectral_decay": 0},
         {"name": "identities"}, "2.0"),
    ])
    def test_underflowing_trial_fields_integrate_nothing(self, tmp_path, monkeypatch, capsys,
                                                         grid, initial, check, decay):
        # the checks' random fields are |k|^-decay spectra, which a short
        # enough domain underflows to zero: refused before the sweep
        calls = self.count_trajectories(monkeypatch)
        doc = dict(SMALL_CONFIG, grid=grid, initial=initial,
                   noise={"sigma_kind": "constant_one"}, mc={"n_paths": 2},
                   checks=[{"name": "energy"}, check])
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"'checks[1]' ({check['name']})" in err and "'grid.domain_length'" in err
        assert f"decay {decay} underflows" in err and "Traceback" not in err
        assert calls == []
        assert not (out / "stats.csv").exists()

    def test_underflowing_trial_field_refuses_a_forked_run(self, tmp_path, monkeypatch,
                                                           capsys):
        # the GN search is job 0 of the run's one fan-out and runs here while
        # a forked child takes the other jobs: the same refusal as serially
        forks, real_fork = [], harness.os.fork

        def counted_fork():
            pid = real_fork()
            if pid:
                forks.append(pid)
            return pid

        monkeypatch.setattr(harness.os, "fork", counted_fork)
        monkeypatch.setattr(harness, "path_workers", lambda: 2)
        doc = dict(SMALL_CONFIG, grid={"modes_per_dim": 16, "domain_length": 1e-60},
                   noise={"sigma_kind": "constant_one"}, mc={"n_paths": 2},
                   checks=[{"name": "energy"},
                           {"name": "gronwall", "n_paths": 2, "gn_trials": 50}])
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "'checks[1]' (gronwall)" in err and "'grid.domain_length'" in err
        assert "decay 2.9046439964507584 underflows" in err and "Traceback" not in err
        assert len(forks) == 1
        assert not (out / "stats.csv").exists()
        with pytest.raises(ChildProcessError):  # no worker process is left
            os.waitpid(-1, os.WNOHANG)

    def test_forked_refusal_after_a_snapshot_writes_nothing(self, tmp_path, monkeypatch,
                                                           capsys):
        # the GN search, job 0, refuses the run here only once the forked
        # child, which runs the sweep's batch, has written a snapshot: the
        # staged snapshots go with the refusal, and the output directory
        # holds what it held before
        read, write = os.pipe()
        real_write = harness.write_snapshot

        def signalling(field, path):
            real_write(field, path)
            os.write(write, b"w")

        def refusing(grid, trials):
            assert select.select([read], [], [], 60)[0], "no snapshot was written"
            raise ValueError("refused once a snapshot exists")

        monkeypatch.setattr(harness, "write_snapshot", signalling)
        monkeypatch.setattr(cli, "measure_gn_constant", refusing)
        monkeypatch.setattr(harness, "path_workers", lambda: 2)
        doc = dict(SMALL_CONFIG, output={"snapshot_stride": 1},
                   checks=[{"name": "energy"},
                           {"name": "gronwall", "n_paths": 2, "gn_trials": 50}])
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "out"
        out.mkdir()
        (out / "notes.txt").write_text("written before the run\n")
        before = sorted(out.rglob("*"))
        try:
            assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
        finally:
            os.close(read)
            os.close(write)
        err = capsys.readouterr().err
        assert "'checks[1]' (gronwall)" in err and "refused once a snapshot exists" in err
        assert sorted(out.rglob("*")) == before
        with pytest.raises(ChildProcessError):  # no worker process is left
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("initial, sigma", [
        ({"kind": "zero"}, "constant_one"), ({"kind": "single_mode"}, "zero"),
    ])
    def test_long_domain_integrates_nothing(self, tmp_path, monkeypatch, capsys,
                                            initial, sigma):
        # the cell area (L/N)^2 overflows while |k|^2 off the mean mode does
        # not yet underflow: refused before the sweep, without a numpy warning
        calls = self.count_trajectories(monkeypatch)
        doc = dict(SMALL_CONFIG, grid={"modes_per_dim": 16, "domain_length": 1e200},
                   initial=initial, noise={"coefficient_decay": 0, "sigma_kind": sigma},
                   mc={"n_paths": 2})
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "'grid.domain_length' 1e+200" in err and "cell area" in err
        assert "Traceback" not in err
        assert calls == []
        assert not (out / "stats.csv").exists()

    def test_identities_on_a_mean_only_band_integrate_nothing(self, tmp_path, monkeypatch,
                                                              capsys):
        # the suite's grid refusal, raised before the sweep and before any
        # trial field is drawn
        calls = self.count_trajectories(monkeypatch)
        drawn = []
        monkeypatch.setattr(cli, "random_divfree_field", lambda *a, **k: drawn.append(a))
        doc = dict(SMALL_CONFIG, grid={"modes_per_dim": 8, "dealias_fraction": 0.2},
                   noise={"modes": [[0, 0]], "sigma_kind": "constant_one"}, mc={"n_paths": 2},
                   checks=[{"name": "energy"}, {"name": "identities"}])
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "'checks[1]' (identities)" in err and "'grid.dealias_fraction' 0.2" in err
        assert "Traceback" not in err
        assert calls == [] and drawn == []
        assert not (out / "stats.csv").exists()

    def test_empty_noise_modes_integrate_nothing(self, tmp_path, monkeypatch, capsys):
        calls = self.count_trajectories(monkeypatch)
        doc = dict(SMALL_CONFIG, noise={"modes": []})
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "noise.modes" in err and "Traceback" not in err
        assert calls == []
        assert not (out / "stats.csv").exists()

    @pytest.mark.parametrize("pivot_mode", [[8, 0], [20, 3], [6, 0]])
    def test_pivot_mode_outside_the_band_integrates_nothing(self, tmp_path, monkeypatch,
                                                            capsys, pivot_mode):
        calls = self.count_trajectories(monkeypatch)
        doc = dict(SMALL_CONFIG)
        doc["noise"] = {"mode_band": 1, "sigma_kind": "rational_square",
                        "pivot_mode": pivot_mode, "pivot_norm": 2.0}
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "noise.pivot_mode" in err and "Traceback" not in err
        assert calls == []
        assert not (out / "stats.csv").exists()

    @pytest.mark.parametrize("fraction", [0.8, 1.0])
    def test_aliasing_dealias_fraction_integrates_nothing(self, tmp_path, monkeypatch,
                                                          capsys, fraction):
        # above 2/3 the quadratic products alias; at 1 the Nyquist line is kept
        calls = self.count_trajectories(monkeypatch)
        doc = dict(SMALL_CONFIG, grid={"modes_per_dim": 16, "dealias_fraction": fraction})
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "grid.dealias_fraction must lie in (0, 2/3]" in err and "Traceback" not in err
        assert calls == []
        assert not (out / "stats.csv").exists()

    def test_two_thirds_dealias_fraction_runs(self, tmp_path):
        doc = dict(SMALL_CONFIG, grid={"modes_per_dim": 16, "dealias_fraction": 2.0 / 3.0})
        out = tmp_path / "out"
        assert main(["run", "--config", str(write_config(tmp_path, doc)),
                     "--out", str(out)]) == 0
        assert len((out / "stats.csv").read_text().strip().split("\n")) == 4


class TestCheckParameters:
    @pytest.mark.parametrize("entry, field", [
        ({"name": "bdg", "n_paths": [3]}, "checks[1].n_paths"),
        ({"name": "zeta_regularity", "stride": 0}, "checks[1].stride"),
        ({"name": "hy_uniformity", "levls": [5, None]}, "checks[1].levls"),
        ({"name": "hy_uniformity", "levels": [5]}, "checks[1].levels"),
        ({"name": "hy_uniformity", "levels": [5, -1]}, "checks[1].levels[1]"),
        ({"name": "bdg", "m_list": [3]}, "checks[1].m_list[0]"),
        ({"name": "identities", "refine": 1}, "checks[1].refine"),
        ({"name": "energy", "ceilings": {"sup_v": 1.0}}, "checks[1].ceilings.sup_v"),
        ({"name": "identities", "refine_trials": 5}, "checks[1].refine_trials"),
        ({"name": "hy_uniformity", "levels": [None, None]}, "checks[1].levels"),
        ({"name": "zeta_regularity", "levels": [10, 10.0]}, "checks[1].levels"),
    ])
    def test_bad_entry_exits_2_naming_the_field(self, tmp_path, monkeypatch, capsys,
                                                entry, field):
        calls = TestSharedSweep.count_trajectories(monkeypatch)
        doc = dict(SMALL_CONFIG, checks=[{"name": "energy"}, entry])
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert field in err and "Traceback" not in err
        assert calls == []
        assert not out.exists()

    def test_resolved_config_keeps_the_given_keys(self, tmp_path):
        given = [{"name": "energy"},
                 {"name": "hy_uniformity", "levels": [10, None], "n_paths": 2}]
        cfg = write_config(tmp_path, dict(SMALL_CONFIG, checks=given))
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) in (0, 1)
        resolved = json.loads((out / "resolved_config.json").read_text())
        assert resolved["checks"] == given


class TestCheckCommand:
    def test_identities_json_to_stdout(self, capsys):
        code = main(["check", "identities", "--grid", "64", "--trials", "3"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        names = {c["name"] for c in payload}
        assert {"identity.drift_curl", "identity.drift_energy",
                "identity.drift_divfree"} <= names
        assert all(c["passed"] for c in payload)

    @pytest.mark.parametrize("flags, message", [
        # a grid whose 2N padded fields would not fit in memory
        (["--grid", "8192"], "'--grid' must be <= 4096, got 8192"),
        (["--grid", "7"], "'--grid': modes_per_dim must be even and >= 8, got 7"),
        (["--trials", "0"], "'--trials' must be >= 1, got 0"),
    ])
    def test_bad_flags_exit_2_naming_the_flag(self, monkeypatch, capsys, flags, message):
        def refused(*args, **kwargs):
            raise AssertionError("the identity suite ran on a refused flag")

        monkeypatch.setattr(cli, "identity_suite", refused)
        assert main(["check", "identities", *flags]) == 2
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err

    def test_negative_seed_exits_2_naming_the_flag(self, capsys):
        assert main(["check", "identities", "--grid", "16", "--trials", "1",
                     "--seed", "-3"]) == 2
        err = capsys.readouterr().err
        assert "'--seed' must be a nonnegative 63-bit integer" in err

    def test_refine_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["check", "identities", "--grid", "32", "--trials", "1", "--refine"])
        assert exit_info.value.code == 2
        assert "--refine" in capsys.readouterr().err

    def test_identities_to_file(self, tmp_path):
        target = tmp_path / "identities.json"
        code = main(["check", "identities", "--grid", "64", "--trials", "2",
                     "--out", str(target)])
        assert code == 0
        assert json.loads(target.read_text())


class TestReportCommand:
    def test_report_round_trip(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        main(["run", "--config", str(cfg), "--out", str(out)])
        capsys.readouterr()
        code = main(["report", "--dir", str(out)])
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["n_paths"] == 3
        assert "sup_v_l2sq" in summary["functionals"]
        assert (out / "summary.json").exists()

    def test_report_missing_dir(self, tmp_path, capsys):
        assert main(["report", "--dir", str(tmp_path)]) == 2

    @staticmethod
    def strict(text):
        """text parsed as strict JSON, which has no NaN or Infinity."""
        def refused(name):
            raise AssertionError(f"{name} in summary.json")
        return json.loads(text, parse_constant=refused)

    def test_report_means_take_the_completed_paths_only(self, tmp_path, capsys):
        # one completed path and one whose row stopped at an inf blow-up
        (tmp_path / "stats.csv").write_text(
            ",".join(cli.STATS_HEADER) + "\n"
            "0,1.0,2.0,3.0,4.0,5.0,6.0,completed\n"
            "1,9.0,inf,inf,8.0,inf,inf,blowup\n")
        (tmp_path / "checks.json").write_text(
            '[{"name": "energy.status", "observed": 1.0, "bound": 0.0, "passed": false},'
            ' {"name": "energy.sup_v_l2sq", "observed": NaN, "bound": Infinity,'
            ' "passed": false}]')
        assert main(["report", "--dir", str(tmp_path)]) == 1
        captured = capsys.readouterr()
        assert captured.err == ""
        summary = self.strict(captured.out)
        assert (tmp_path / "summary.json").read_text() == captured.out
        assert (summary["n_paths"], summary["n_blowup"]) == (2, 1)
        assert summary["functionals"]["sup_v_l2sq"] == {"mean": 1.0, "stderr": 0.0}
        assert summary["functionals"]["int_grad_v"] == {"mean": 2.0, "stderr": 0.0}
        assert summary["checks"][1] == {"name": "energy.sup_v_l2sq", "observed": None,
                                        "bound": None, "passed": False}

    def test_report_on_blown_up_paths_writes_strict_json(self, tmp_path, capsys):
        # every path blows up: no mean exists, so each is null, not inf or NaN
        doc = dict(SMALL_CONFIG, grid={"modes_per_dim": 16, "domain_length": 1.0053e-152},
                   initial={"spectral_decay": 0}, mc={"n_paths": 2},
                   checks=[{"name": "energy"}])
        out = tmp_path / "out"
        with np.errstate(over="ignore"):
            assert main(["run", "--config", str(write_config(tmp_path, doc)),
                         "--out", str(out)]) == 1
        capsys.readouterr()
        assert main(["report", "--dir", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err == ""
        summary = self.strict((out / "summary.json").read_text())
        assert (summary["n_paths"], summary["n_blowup"]) == (2, 2)
        assert set(summary["functionals"]) == set(cli.STATS_HEADER[1:-1])
        for moments in summary["functionals"].values():
            assert moments == {"mean": None, "stderr": None}
