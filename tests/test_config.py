"""Configuration loading, validation, defaults and the resolved-config dump."""

import json
import math

import numpy as np
import pytest

from vortex.config import (
    ConfigError,
    _single_mode_vector,
    build_initial,
    build_noise_spec,
    load_config,
    parse_config,
)
from vortex.spectral import SpectralGrid, l2_norm, to_physical

MINIMAL = {
    "grid": {"modes_per_dim": 16},
    "solver": {"dt": 0.001, "t_end": 0.01},
}


def full_doc():
    return {
        "grid": {"modes_per_dim": 32, "domain_length": 6.0, "dealias_fraction": 0.5},
        "solver": {"dt": 0.002, "t_end": 0.1, "blowup_threshold": 500.0},
        "noise": {"mode_band": 1, "coefficient_base": 0.1, "coefficient_decay": 1.5,
                  "sigma_kind": "constant_one", "pivot_mode": [1, 1],
                  "pivot_norm": 2.0, "roughness": 0.4, "hy_level": 10},
        "initial": {"kind": "single_mode", "amplitude": 0.5, "spectral_decay": 2.0},
        "mc": {"n_paths": 4, "base_seed": 99},
        "checks": [{"name": "identities", "trials": 5}],
        "output": {"directory": "out", "snapshot_stride": 2},
        "lq_exponent": 4.0,
    }


class TestParseConfig:
    def test_minimal_defaults_applied(self):
        cfg = parse_config(dict(MINIMAL))
        assert cfg.grid.modes_per_dim == 16
        assert cfg.grid.dealias_fraction == pytest.approx(2.0 / 3.0)
        assert cfg.noise.roughness == 0.5
        assert cfg.noise.hy_level == math.inf
        assert cfg.lq_exponent == 4.0
        assert cfg.mc.n_paths == 32

    def test_unknown_keys_rejected_everywhere(self):
        doc = dict(MINIMAL)
        doc["extra"] = 1
        with pytest.raises(ConfigError, match="unknown key '.extra'"):
            parse_config(doc)
        doc = {"grid": {"modes_per_dim": 16, "n": 3},
               "solver": {"dt": 0.001, "t_end": 0.01}}
        with pytest.raises(ConfigError, match="grid.n"):
            parse_config(doc)

    def test_dt_exceeding_t_end_names_field(self):
        doc = {"grid": {"modes_per_dim": 16}, "solver": {"dt": 0.1, "t_end": 0.01}}
        with pytest.raises(ConfigError, match="solver.dt"):
            parse_config(doc)

    def test_type_errors_name_field(self):
        doc = {"grid": {"modes_per_dim": "many"},
               "solver": {"dt": 0.001, "t_end": 0.01}}
        with pytest.raises(ConfigError, match="grid.modes_per_dim"):
            parse_config(doc)

    def test_missing_required_key(self):
        with pytest.raises(ConfigError, match="solver"):
            parse_config({"grid": {"modes_per_dim": 16}})

    def test_invalid_check_name(self):
        doc = dict(MINIMAL)
        doc["checks"] = [{"name": "nonsense"}]
        with pytest.raises(ConfigError, match="nonsense"):
            parse_config(doc)

    def test_hy_level_null_means_infinity(self):
        doc = dict(MINIMAL)
        doc["noise"] = {"hy_level": None}
        assert parse_config(doc).noise.hy_level == math.inf
        doc["noise"] = {"hy_level": 25}
        assert parse_config(doc).noise.hy_level == 25.0
        doc["noise"] = {"hy_level": -1}
        with pytest.raises(ConfigError, match="hy_level"):
            parse_config(doc)

    @pytest.mark.parametrize("text, message", [
        ("Infinity", "must be finite"), ("-Infinity", "must be finite"),
        ("NaN", "must be finite"), ("1e400", "must be finite"),
        ("0", "must be a positive number or null"), ("-2.5", "must be a positive number or null"),
        ('"10"', "must be a number"), ("true", "must be a number"),
    ])
    def test_hy_level_read_like_check_levels(self, text, message):
        # one reader: null means infinity, anything else is finite and positive
        level = json.loads(text)
        doc = dict(MINIMAL, noise={"hy_level": level})
        with pytest.raises(ConfigError, match=f"^'noise.hy_level' {message}"):
            parse_config(doc)
        doc = dict(MINIMAL, checks=[{"name": "hy_uniformity", "levels": [1, level]}])
        with pytest.raises(ConfigError, match=fr"^'checks\[0\].levels\[1\]' {message}"):
            parse_config(doc)

    @pytest.mark.parametrize("table, key, value, message", [
        ("noise", "sigma_kind", "bogus", "must be one of 'constant_one'"),
        ("initial", "kind", "bogus", "must be one of 'zero'"),
        ("noise", "modes", [[1, 0], [1, 0]], "must list at least one mode, each once"),
        ("noise", "pivot_mode", [0, 0], "must be a nonzero wavevector"),
        ("noise", "roughness", 1.0, "must lie in (0, 1)"),
        ("mc", "n_paths", 0, "must be >= 1"),
        ("mc", "base_seed", -1, "must be a nonnegative 63-bit integer"),
        ("mc", "base_seed", 2**63, "must be a nonnegative 63-bit integer"),
        ("output", "snapshot_stride", -1, "must be >= 0"),
        ("output", "directory", 3, "must be a string"),
        ("grid", "domain_length", 1e-320, "must be positive with 2*pi/domain_length finite"),
    ])
    def test_section_rejections_name_the_field(self, table, key, value, message):
        doc = dict(MINIMAL, **{table: {**MINIMAL.get(table, {}), key: value}})
        with pytest.raises(ConfigError) as err:
            parse_config(doc)
        assert str(err.value).startswith(f"'{table}.{key}' {message}")

    def test_empty_mode_list_refused(self):
        doc = dict(MINIMAL, noise={"modes": [], "sigma_kind": "constant_one"})
        with pytest.raises(ConfigError, match="^'noise.modes' must list at least one mode"):
            parse_config(doc)
        doc["noise"] = {"modes": [], "sigma_kind": "zero"}
        with pytest.raises(ConfigError, match="noise.modes"):
            parse_config(doc)

    def test_resolved_round_trip(self):
        cfg = parse_config(full_doc())
        resolved = cfg.resolved()
        again = parse_config(json.loads(json.dumps(resolved)))
        assert again == cfg
        assert again.resolved() == resolved

    def test_minimal_resolved_round_trip(self):
        cfg = parse_config(dict(MINIMAL))
        again = parse_config(cfg.resolved())
        assert again == cfg


class TestLoadConfig:
    def test_loads_file(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps(MINIMAL))
        assert load_config(path).grid.modes_per_dim == 16

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config(tmp_path / "absent.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="JSON"):
            load_config(path)


class TestBuilders:
    def test_band_mode_enumeration(self):
        cfg = parse_config(dict(MINIMAL))
        spec = cfg.build_noise_spec()
        # band 2: all j with 1 <= max(|j1|, |j2|) <= 2
        assert spec.n_modes == 24
        assert (0, 0) not in spec.mode_indices
        assert spec.coefficient_sq_sum > 0

    def test_coefficient_law(self):
        doc = dict(MINIMAL)
        doc["noise"] = {"mode_band": 1, "coefficient_base": 0.5,
                        "coefficient_decay": 2.0, "sigma_kind": "constant_one"}
        spec = parse_config(doc).build_noise_spec()
        by_mode = dict(zip(spec.mode_indices, spec.coefficients))
        assert by_mode[(1, 0)] == pytest.approx(0.5)        # |k| = 1
        assert by_mode[(1, 1)] == pytest.approx(0.25)       # |k|^2 = 2
        assert len(by_mode) == 8

    def test_explicit_modes_override_band(self):
        doc = dict(MINIMAL)
        doc["noise"] = {"modes": [[3, 0], [0, 3]], "sigma_kind": "constant_one"}
        spec = parse_config(doc).build_noise_spec()
        assert spec.mode_indices == ((3, 0), (0, 3))

    # every field a run evolves lies in the dealias band, max(|j1|, |j2|) <= 2
    # at N = 8 and <= 5 at N = 16, so the noise must too; [-4, 0] would land
    # on the Nyquist line
    @pytest.mark.parametrize("n, noise, mode", [
        (8, {"modes": [[-4, 0], [1, 0]]}, "(-4, 0)"),
        (8, {"modes": [[1, 0], [3, 4]]}, "(3, 4)"),
        (8, {"mode_band": 4}, "(4, 4)"),
        (16, {"modes": [[1, 0], [6, 0]]}, "(6, 0)"),
        (16, {"mode_band": 6}, "(6, 6)"),
    ])
    def test_modes_outside_the_dealias_band_rejected(self, n, noise, mode):
        doc = dict(MINIMAL, grid={"modes_per_dim": n})
        doc["noise"] = dict(noise, sigma_kind="constant_one")
        field = "noise.modes" if "modes" in noise else "noise.mode_band"
        limit = {8: 2, 16: 5}[n]
        with pytest.raises(ConfigError) as err:
            parse_config(doc).build_noise_spec()
        assert str(err.value) == (
            f"'{field}' mode {mode} lies outside the dealias band max(|j1|, |j2|) <= {limit} "
            f"of 'grid.dealias_fraction' {2.0 / 3.0} and 'grid.modes_per_dim' {n}")

    def test_modes_on_the_dealias_band_edge_accepted(self):
        doc = dict(MINIMAL, noise={"modes": [[5, -5], [0, 5]], "mode_band": 5,
                                   "sigma_kind": "rational_square", "pivot_mode": [-5, 5]})
        assert parse_config(doc).build_noise_spec().mode_indices == ((5, -5), (0, 5))
        doc["noise"] = {"mode_band": 5}
        assert parse_config(doc).build_noise_spec().n_modes == 120

    def test_single_mode_outside_the_dealias_band_rejected(self):
        # at N = 8 and dealias_fraction 0.2 the band keeps the mean mode alone,
        # so single_mode's (1, 0) lies outside it
        doc = dict(MINIMAL, grid={"modes_per_dim": 8, "dealias_fraction": 0.2},
                   noise={"modes": [[0, 0]], "sigma_kind": "constant_one"},
                   initial={"kind": "single_mode"})
        config = parse_config(doc)
        config.build_noise_spec()
        with pytest.raises(ConfigError, match="^'initial.kind' mode [(]1, 0[)] lies outside "
                                              "the dealias band .* <= 0 of "
                                              "'grid.dealias_fraction' 0.2"):
            config.build_initial()

    @pytest.mark.parametrize("length, noise, field", [
        # on a long domain |k| is small, so |k|^-decay overflows
        (1000.0, {"coefficient_decay": 400.0}, "noise.coefficient_decay"),
        (1000.0, {"coefficient_decay": 100.0, "coefficient_base": 1e100},
         "noise.coefficient_base"),
        # the pivot's amplitude is pivot_norm / (L / sqrt 2); a shorter domain
        # would already be refused as grid.domain_length
        (1e-100, {"sigma_kind": "rational_square", "pivot_norm": 1e300}, "noise.pivot_norm"),
        # the initial spectrum |k|^-decay overflows at the band's edge
        (2.0 * math.pi, {"spectral_decay": -1000.0}, "initial.spectral_decay"),
    ])
    def test_overflow_names_the_field(self, length, noise, field):
        # `noise` holds the values of the section that `field` names
        section = field.split(".")[0]
        doc = dict(MINIMAL, grid={"modes_per_dim": 16, "domain_length": length},
                   noise={"sigma_kind": "constant_one"})
        doc[section] = {**doc.get(section, {}), **noise}
        config = parse_config(doc)
        with pytest.raises(ConfigError, match=f"^'{field}'"):
            config.build_noise_spec()
            config.build_initial()

    def test_underflowing_spectrum_refused_only_with_a_nonempty_band(self):
        doc = dict(MINIMAL, grid={"modes_per_dim": 16, "domain_length": 6.0},
                   initial={"spectral_decay": 1e308})
        with pytest.raises(ConfigError, match="^'initial.spectral_decay'.*underflows"):
            parse_config(doc).build_initial()
        # a dealias band that keeps only the mean mode holds no random field
        doc["grid"] = {"modes_per_dim": 8, "domain_length": 6.0, "dealias_fraction": 0.2}
        _, xi0 = parse_config(doc).build_initial()
        assert not np.any(xi0.half)

    def test_underflow_names_the_domain_with_the_decay(self):
        # |k|^-2 at |k| = 2 pi/L ~ 1e153 squares to 0 in the norm: the default
        # decay underflows only on this domain
        doc = dict(MINIMAL, grid={"modes_per_dim": 16, "domain_length": 7.73e-153})
        with pytest.raises(ConfigError, match="^'initial.spectral_decay' .*"
                           "'grid.domain_length' 7.73e-153 .*underflows"):
            parse_config(doc).build_initial()

    @pytest.mark.filterwarnings("error")
    def test_long_domain_refused_without_a_warning(self):
        # |k|^2 underflows to 0 off the mean mode, so |k|^-decay divides by zero
        doc = dict(MINIMAL, grid={"modes_per_dim": 16, "domain_length": 1e200},
                   noise={"coefficient_decay": 0, "sigma_kind": "constant_one"})
        config = parse_config(doc)
        config.build_noise_spec()
        with pytest.raises(ConfigError, match="^'initial.spectral_decay' .*"
                           "'grid.domain_length' 1e[+]200 .*overflows"):
            config.build_initial()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("length", [4e162, 1e200])
    def test_long_domain_pivot_refused_without_a_warning(self, length):
        # the pivot's |k|^2 underflows to 0, so k^perp/|k| divides by zero
        doc = dict(MINIMAL, grid={"modes_per_dim": 16, "domain_length": length},
                   noise={"sigma_kind": "rational_square", "pivot_mode": [1, 1]})
        with pytest.raises(ConfigError, match="^'grid.domain_length' .*underflows.*"
                                              "'noise.pivot_mode' [(]1, 1[)]"):
            parse_config(doc).build_noise_spec()

    # at 5e-153 even (2 pi/L)^2 (N/2)^2 is finite, but the corner |k|^2 is not
    @pytest.mark.parametrize("n, length", [(16, 1e-160), (16, 5e-153)])
    def test_overflowing_wavenumbers_refused(self, n, length):
        # 2 pi/L is finite, but (2 pi N/L)^2, the largest norm weight, is not
        doc = dict(MINIMAL, grid={"modes_per_dim": n, "domain_length": length})
        with pytest.raises(ConfigError, match="^grid.domain_length"):
            parse_config(doc)

    def test_grid_size_bounded(self):
        assert parse_config(dict(MINIMAL, grid={"modes_per_dim": 4096})).grid.modes_per_dim == 4096
        with pytest.raises(ConfigError, match="^'grid.modes_per_dim' must be <= 4096"):
            parse_config(dict(MINIMAL, grid={"modes_per_dim": 4098}))

    def test_pivot_norm(self):
        doc = dict(MINIMAL)
        doc["noise"] = {"pivot_norm": 1.7}
        spec = parse_config(doc).build_noise_spec()
        assert l2_norm(spec.pivot) == pytest.approx(1.7, rel=1e-12)

    @pytest.mark.parametrize("grid, pivot_mode", [
        ({"modes_per_dim": 16}, [8, 0]), ({"modes_per_dim": 16}, [20, 3]),
        ({"modes_per_dim": 16}, [-3, -8]),
        ({"modes_per_dim": 16}, [6, 0]), ({"modes_per_dim": 16}, [-1, -7]),
        ({"modes_per_dim": 32, "dealias_fraction": 0.25}, [5, 5]),
    ])
    def test_pivot_mode_outside_the_dealias_band_rejected(self, grid, pivot_mode):
        # every field a run evolves lies in the dealias band, so such a pivot
        # gives <v, h> = 0 and sigma(v) = 0 at every step; [8, 0] would land
        # on the Nyquist line, [20, 3] alias to (4, 3)
        doc = dict(MINIMAL, grid=grid, noise={"pivot_mode": pivot_mode, "pivot_norm": 2.0})
        with pytest.raises(ConfigError, match="^'noise.pivot_mode' mode .* lies outside the "
                                              "dealias band .*'grid.dealias_fraction'"):
            parse_config(doc).build_noise_spec()

    @pytest.mark.parametrize("length", [2.0 * math.pi, 7.3])
    @pytest.mark.parametrize("j", [(1, 0), (-1, 0), (2, -3), (0, -2), (-1, 4)])
    def test_pivot_is_the_cosine_profile_of_its_mode(self, length, j):
        # h(x) = pivot_norm sqrt(2)/L k^perp/|k| cos(k.x), k = 2 pi j / L
        grid = SpectralGrid(16, length)
        pivot = _single_mode_vector(grid, j, 1.7)
        k = 2.0 * math.pi / length * np.array(j, dtype=float)
        xx, yy = grid.meshgrid()
        profile = np.cos(k[0] * xx + k[1] * yy) * (1.7 * math.sqrt(2.0) / length)
        want = np.stack([-k[1] * profile, k[0] * profile]) / math.hypot(*k)
        assert np.max(np.abs(to_physical(pivot) - want)) <= 1e-14 * np.max(np.abs(want))
        assert l2_norm(pivot) == pytest.approx(1.7, rel=1e-14)

    def test_pivot_mode_inside_the_grid_band_keeps_its_norm(self):
        doc = dict(MINIMAL)
        doc["noise"] = {"pivot_mode": [5, 0], "pivot_norm": 2.0}
        spec = parse_config(doc).build_noise_spec()
        assert l2_norm(spec.pivot) == pytest.approx(2.0, rel=1e-12)

    def test_initial_kinds(self):
        cfg = parse_config(dict(MINIMAL))
        for kind, amp in (("zero", 0.0), ("random_vorticity", 1.0),
                          ("single_mode", 1.0)):
            doc = dict(MINIMAL)
            doc["initial"] = {"kind": kind, "amplitude": 1.0}
            c = parse_config(doc)
            v0, xi0 = c.build_initial()
            assert v0 is None
            assert abs(xi0.coeffs[0, 0]) == 0.0
            if kind == "zero":
                assert l2_norm(xi0) == 0.0
            else:
                assert l2_norm(xi0) > 0.0

    def test_initial_deterministic_in_seed(self):
        doc = dict(MINIMAL)
        doc["mc"] = {"base_seed": 5}
        a = parse_config(doc).build_initial()[1]
        b = parse_config(doc).build_initial()[1]
        assert np.array_equal(a.coeffs, b.coeffs)
        doc["mc"] = {"base_seed": 6}
        c = parse_config(doc).build_initial()[1]
        assert not np.array_equal(a.coeffs, c.coeffs)


class TestCheckParameters:
    def test_values_typed_with_defaults(self):
        doc = dict(MINIMAL, mc={"n_paths": 5}, checks=[
            {"name": "zeta_regularity", "levels": [10, None], "p": 16},
            {"name": "hy_uniformity"},
        ])
        zeta, hy = parse_config(doc).checks
        assert zeta.value("levels") == [10.0, math.inf]
        assert zeta.value("p") == 16.0 and isinstance(zeta.value("p"), float)
        assert zeta.value("n_paths") == 8
        # a default of None is mc.n_paths, read with the config
        assert hy.value("n_paths") == 5
        assert parse_config(doc, {"mc.n_paths": 3}).checks[1].value("n_paths") == 3
        assert list(hy.value("levels")) == [1.0, 10.0, 100.0, math.inf]

    def test_defaults_meet_their_requirements(self):
        from vortex.config import CHECK_PARAMS, SECTIONS, TOP

        tables = [*CHECK_PARAMS.values(), *(table for _, table in SECTIONS.values()), TOP]
        for table in tables:
            for read, default, requirement in table.values():
                if default is not None and requirement is not None:
                    assert requirement[0](default)

    @pytest.mark.parametrize("entry, message", [
        ({"name": "gronwall", "slack": float("nan")}, "checks[0].slack' must be finite"),
        ({"name": "bdg", "q": True}, "checks[0].q' must be a number"),
        ({"name": "zeta_regularity", "n_paths": 2.0}, "checks[0].n_paths' must be an integer"),
        ({"name": "identities", "trials": 0}, "checks[0].trials' must be >= 1"),
        # a repeated level, also when spelled differently, would be compared with itself
        ({"name": "hy_uniformity", "levels": [None, None]},
         "checks[0].levels' must list at least 2 levels, each once"),
        ({"name": "zeta_regularity", "levels": [10, 10.0]},
         "checks[0].levels' must list at least 1 level, each once"),
        ({"name": "bogus"}, "checks[0].name' must be one of 'energy'"),
    ])
    def test_rejections_name_the_field(self, entry, message):
        with pytest.raises(ConfigError) as err:
            parse_config(dict(MINIMAL, checks=[entry]))
        assert message in str(err.value)
