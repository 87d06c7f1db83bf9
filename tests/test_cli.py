"""CLI orchestration: run/check/report, output files, determinism."""

import json
import math

import numpy as np
import pytest

from vortex import harness
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

    def test_byte_identical_reruns_across_thread_counts(self, tmp_path, monkeypatch):
        cfg = write_config(tmp_path)
        payloads, seen, real = [], [], harness.run_paths

        def spy(worker, n_paths, workers):
            seen.append(workers)
            return real(worker, n_paths, workers)

        monkeypatch.setattr(harness, "run_paths", spy)
        for threads, sub in ((1, "a"), (3, "b")):
            out = tmp_path / sub
            monkeypatch.setattr(harness, "path_workers", lambda grid, n=threads: n)
            code = main(["run", "--config", str(cfg), "--out", str(out),
                         "--seed", "7"])
            assert code == 0
            payloads.append(((out / "stats.csv").read_bytes(),
                             (out / "checks.json").read_bytes()))
        assert payloads[0] == payloads[1]
        assert seen == [1, 3]

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


class TestSharedSweep:
    @staticmethod
    def count_trajectories(monkeypatch):
        calls = []
        original = harness.run_trajectory

        def counted(v0, xi0, spec, cfg, seed, path_index=0, **kwargs):
            calls.append((spec.hy_level, path_index))
            return original(v0, xi0, spec, cfg, seed, path_index, **kwargs)

        monkeypatch.setattr(harness, "run_trajectory", counted)
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
        assert "refused" in capsys.readouterr().err
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
        assert "noise.modes" in err and "grid band" in err
        assert calls == []
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

    @pytest.mark.parametrize("pivot_mode", [[8, 0], [20, 3]])
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
        assert "identity.b_energy" in names
        assert all(c["passed"] for c in payload)

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
