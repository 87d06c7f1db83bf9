"""Experiment configuration: JSON loading, fail-closed validation and the
resolved-config dump.

Every value is read by one reader, `_read`, against a table that maps each
key to (reader, default, requirement): one table per section (GRID, SOLVER,
NOISE, INITIAL, MC, OUTPUT), one for the top level (TOP) and one per check
(CHECK_PARAMS).  Each default is stated once, in its table.  Unknown keys
are rejected anywhere in the document, SpectralGrid and SolverConfig
re-validate their own invariants at load time, and every error names the
offending field path.  Command-line overrides replace document values before
they are read, so they meet the same requirements.  A resolved config dump
reloads to an identical configuration.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, make_dataclass
from pathlib import Path

import numpy as np

from .integrator import SolverConfig, TrajectoryStats
from .noise import (SIGMA_KINDS, CovarianceSpec, initial_rng, mode_entries,
                    require_in_dealias_band)
from .operators import random_scalar_field
from .spectral import TWO_THIRDS, ScalarField, SpectralGrid, VectorField, zero_scalar

_REQUIRED = object()


class ConfigError(ValueError):
    pass


def _read(table: dict, given: dict, path: str) -> dict:
    """Every key of table, read from the JSON object given or defaulted.

    table maps key -> (reader, default, requirement).  A reader checks the
    type and returns the value as the program takes it; a default is such a
    value (_REQUIRED: the key must be given); a requirement is (predicate,
    message) on the read value.  Errors name path.key."""
    values = {}
    for key, (read, default, requirement) in table.items():
        field = f"{path}.{key}" if path else key
        if key not in given:
            if default is _REQUIRED:
                raise ConfigError(f"missing required key '{field}'")
            values[key] = default
            continue
        values[key] = read(given[key], field)
        if requirement is not None and not requirement[0](values[key]):
            raise ConfigError(f"'{field}' {requirement[1]}, got {given[key]!r}")
    unknown = sorted(set(given) - set(table))
    if unknown:
        raise ConfigError(f"unknown key '{path}.{unknown[0]}'")
    return values


def _number(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"'{path}' must be a number, got {type(value).__name__}")
    try:
        number = float(value)
    except OverflowError:  # an integer beyond the float range
        number = math.inf
    if not math.isfinite(number):
        raise ConfigError(f"'{path}' must be finite, got {number}")
    return number


def _integer(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"'{path}' must be an integer, got {type(value).__name__}")
    return value


def _string(value, path: str) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"'{path}' must be a string, got {type(value).__name__}")
    return value


def _list(value, path: str) -> list:
    if not isinstance(value, list):
        raise ConfigError(f"'{path}' must be a list, got {type(value).__name__}")
    return value


def _object(value, path: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"'{path}' must be an object, got {type(value).__name__}")
    return value


def _optional(read):
    """A reader that takes null as None and anything else through read."""
    return lambda value, path: None if value is None else read(value, path)


def _mode_pair(value, path: str) -> tuple[int, int]:
    if (not isinstance(value, list) or len(value) != 2
            or not all(isinstance(x, int) and not isinstance(x, bool) for x in value)):
        raise ConfigError(f"'{path}' must be a pair of integers")
    return value[0], value[1]


def _modes(value, path: str) -> tuple[tuple[int, int], ...]:
    return tuple(_mode_pair(m, f"{path}[{i}]") for i, m in enumerate(_list(value, path)))


def _level(value, path: str) -> float:
    """A Hille-Yosida level: a finite positive number, or null meaning infinity."""
    if value is None:
        return math.inf
    level = _number(value, path)
    if not level > 0:
        raise ConfigError(f"'{path}' must be a positive number or null, got {value}")
    return level


def _levels(value, path: str) -> list[float]:
    return [_level(n, f"{path}[{i}]") for i, n in enumerate(_list(value, path))]


def _moments(value, path: str) -> list[int]:
    out = [_integer(m, f"{path}[{i}]") for i, m in enumerate(_list(value, path))]
    for i, m in enumerate(out):
        if m < 2 or m % 2 != 0:
            raise ConfigError(f"'{path}[{i}]' must be an even integer >= 2, got {m}")
    return out


def _ceilings(value, path: str) -> dict[str, float]:
    for key in _object(value, path):
        if key not in TrajectoryStats.FUNCTIONALS:
            raise ConfigError(f"unknown key '{path}.{key}'")
    return {key: _number(v, f"{path}.{key}") for key, v in value.items()}


def _one_of(choices) -> tuple:
    return (lambda x: x in choices, "must be one of " + ", ".join(map(repr, choices)))


_AT_LEAST_1 = (lambda x: x >= 1, "must be >= 1")
_POSITIVE = (lambda x: x > 0, "must be positive")
_NON_NEGATIVE = (lambda x: x >= 0, "must be >= 0")
_NON_EMPTY = (lambda x: len(x) >= 1, "must not be empty")
# 10 and 10.0 are one level; a repeated level would be compared with itself
_TWO_OR_MORE_LEVELS = (lambda x: len(set(x)) == len(x) >= 2,
                       "must list at least 2 levels, each once")
_ONE_OR_MORE_LEVELS = (lambda x: len(set(x)) == len(x) >= 1,
                       "must list at least 1 level, each once")

GRID = {
    # one full (N, N) complex lattice takes 16 N^2 bytes, 256 MiB at 4096, and a
    # run holds tens of such arrays (the pivot and initial lattices, a path's
    # fields, the check-time 2N grids); larger grids end in a MemoryError
    "modes_per_dim": (_integer, 64, (lambda n: n <= 4096, "must be <= 4096")),
    # the noise coefficients and the pivot need the wavenumber 2*pi/L
    "domain_length": (_number, 2.0 * math.pi,
                      (lambda x: x > 0 and math.isfinite(2.0 * math.pi / x),
                       "must be positive with 2*pi/domain_length finite")),
    "dealias_fraction": (_number, TWO_THIRDS, None),
}

SOLVER = {
    "dt": (_number, _REQUIRED, None),
    "t_end": (_number, _REQUIRED, None),
    "blowup_threshold": (_number, 1e6, None),
}

NOISE = {
    "mode_band": (_integer, 2, _AT_LEAST_1),
    "modes": (_optional(_modes), None,
              (lambda m: m is None or len(set(m)) == len(m) >= 1,
               "must list at least one mode, each once; "
               "use noise.sigma_kind 'zero' to run without noise")),
    "coefficient_base": (_number, 1.0, None),
    "coefficient_decay": (_number, 1.1, None),
    "sigma_kind": (_string, "rational_square", _one_of(SIGMA_KINDS)),
    "pivot_mode": (_mode_pair, (1, 0), (lambda j: j != (0, 0), "must be a nonzero wavevector")),
    # sigma(v) responds at order one when <v,h> does; a unit-norm pivot would
    # leave the worked-example noise intensity near zero for O(1) velocities
    "pivot_norm": (_number, 32.0, None),
    "roughness": (_number, 0.5, (lambda g: 0.0 < g < 1.0, "must lie in (0, 1)")),
    "hy_level": (_level, math.inf, None),
}

INITIAL = {
    "kind": (_string, "random_vorticity", _one_of(("zero", "random_vorticity", "single_mode"))),
    "amplitude": (_number, 1.0, None),
    "spectral_decay": (_number, 2.0, None),
}

MC = {
    "n_paths": (_integer, 32, _AT_LEAST_1),
    "base_seed": (_integer, 2026, (lambda s: 0 <= s < 2**63,
                                   "must be a nonnegative 63-bit integer")),
}

OUTPUT = {
    "directory": (_optional(_string), None, None),
    "snapshot_stride": (_integer, 0, _NON_NEGATIVE),
}

TOP = {
    "grid": (_object, _REQUIRED, None),
    "solver": (_object, _REQUIRED, None),
    "noise": (_object, {}, None),
    "initial": (_object, {}, None),
    "mc": (_object, {}, None),
    "checks": (_list, [], None),
    "output": (_object, {}, None),
    "lq_exponent": (_number, 4.0, _AT_LEAST_1),
}

# Every check's parameters; a default of None is the run's mc.n_paths, filled
# in when the check is read.
CHECK_PARAMS = {
    "energy": {
        "ceilings": (_ceilings, {}, None),
    },
    "identities": {
        "trials": (_integer, 100, _AT_LEAST_1),
    },
    "hy_uniformity": {
        "levels": (_levels, (1.0, 10.0, 100.0, math.inf), _TWO_OR_MORE_LEVELS),
        "n_paths": (_integer, None, _AT_LEAST_1),
        "factor": (_number, 1.5, _POSITIVE),
    },
    "gronwall": {
        "perturbation": (_number, 1e-3, _NON_NEGATIVE),
        "n_paths": (_integer, None, _AT_LEAST_1),
        "slack": (_number, 1.05, _POSITIVE),
        "gn_trials": (_integer, 10000, _AT_LEAST_1),
    },
    "zeta_regularity": {
        "levels": (_levels, (1.0, 100.0, math.inf), _ONE_OR_MORE_LEVELS),
        "n_paths": (_integer, 8, _AT_LEAST_1),
        "beta": (_number, 0.2, _NON_NEGATIVE),
        "delta": (_number, 0.0, _NON_NEGATIVE),
        "p": (_number, 32.0, _AT_LEAST_1),
        "q": (_number, 2.0, _AT_LEAST_1),
        "stride": (_integer, 8, _AT_LEAST_1),
        "stability": (_number, 2.0, _POSITIVE),
    },
    "bdg": {
        "q": (_number, 4.0, _AT_LEAST_1),
        "m_list": (_moments, (2, 4), _NON_EMPTY),
        "n_paths": (_integer, 500, _AT_LEAST_1),
        "stability": (_number, 0.5, _POSITIVE),
    },
}

_CHECK_NAME = (_string, _REQUIRED, _one_of(tuple(CHECK_PARAMS)))


# the sections this module builds; their fields are their tables' keys
NoiseConfig = make_dataclass("NoiseConfig", NOISE, frozen=True)
InitialConfig = make_dataclass("InitialConfig", INITIAL, frozen=True)
McConfig = make_dataclass("McConfig", MC, frozen=True)
OutputConfig = make_dataclass("OutputConfig", OUTPUT, frozen=True)

# section -> (the class it builds, its table)
SECTIONS = {
    "grid": (SpectralGrid, GRID),
    "solver": (SolverConfig, SOLVER),
    "noise": (NoiseConfig, NOISE),
    "initial": (InitialConfig, INITIAL),
    "mc": (McConfig, MC),
    "output": (OutputConfig, OUTPUT),
}


@dataclass(frozen=True)
class CheckConfig:
    """One `checks` entry: given keeps its parameters as the config gave
    them, values holds every parameter as the drivers take it."""

    name: str
    given: dict
    values: dict

    def value(self, key: str):
        """The parameter, or its default."""
        return self.values[key]


def _check(entry, path: str, mc_paths: int) -> CheckConfig:
    """One `checks` entry, read against its name's CHECK_PARAMS table;
    mc_paths stands in for a default of None."""
    name = _object(entry, path).get("name")
    params = CHECK_PARAMS.get(name, {}) if isinstance(name, str) else {}
    values = _read({"name": _CHECK_NAME, **params}, entry, path)
    return CheckConfig(values.pop("name"),
                       {k: v for k, v in entry.items() if k != "name"},
                       {k: mc_paths if v is None else v for k, v in values.items()})


def _json(value):
    """A read value as the JSON that reads back to it."""
    if isinstance(value, tuple):
        return [_json(v) for v in value]
    return None if value == math.inf else value


@dataclass(frozen=True)
class ExperimentConfig:
    grid: SpectralGrid
    solver: SolverConfig
    noise: NoiseConfig
    initial: InitialConfig
    mc: McConfig
    checks: tuple[CheckConfig, ...]
    output: OutputConfig
    lq_exponent: float

    def build_noise_spec(self) -> CovarianceSpec:
        return build_noise_spec(self.noise, self.grid)

    def build_initial(self) -> tuple[VectorField | None, ScalarField]:
        return build_initial(self.initial, self.grid, self.mc.base_seed)

    def resolved(self) -> dict:
        """Every section key, tuples as lists and infinity as null; checks
        keep their given keys."""
        return {
            **{name: {key: _json(getattr(getattr(self, name), key)) for key in table}
               for name, (_, table) in SECTIONS.items()},
            "checks": [{"name": c.name, **c.given} for c in self.checks],
            "lq_exponent": self.lq_exponent,
        }


def parse_config(doc, overrides: dict | None = None) -> ExperimentConfig:
    """The experiment of a JSON document.  overrides maps 'section.key' to a
    value that replaces the document's before it is read."""
    if not isinstance(doc, dict):
        raise ConfigError("config document must be a JSON object")
    top = _read(TOP, doc, "")
    for field, value in (overrides or {}).items():
        section, key = field.split(".")
        top[section] = {**top[section], key: value}
    for name, (build, table) in SECTIONS.items():
        values = _read(table, top[name], name)
        try:
            top[name] = build(**values)
        except ValueError as err:
            # SpectralGrid and SolverConfig messages start with the field's name
            raise ConfigError(f"{name}.{err}") from err
    top["checks"] = tuple(_check(entry, f"checks[{i}]", top["mc"].n_paths)
                          for i, entry in enumerate(top["checks"]))
    return ExperimentConfig(**top)


def load_config(path, overrides: dict | None = None) -> ExperimentConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as err:
        raise ConfigError(f"config file {path} is not valid JSON: {err}") from err
    return parse_config(doc, overrides)


def _band_modes(band: int) -> list[tuple[int, int]]:
    out = []
    for j1 in range(-band, band + 1):
        for j2 in range(-band, band + 1):
            if max(abs(j1), abs(j2)) >= 1:
                out.append((j1, j2))
    out.sort(key=lambda j: (max(abs(j[0]), abs(j[1])), j[0], j[1]))
    return out


def _require_in_dealias_band(modes, grid: SpectralGrid, field: str) -> None:
    """The modes of the noise, its pivot and the initial data lie in the
    dealias band, as every field a run evolves must."""
    try:
        require_in_dealias_band(modes, grid, f"'{field}'")
    except ValueError as err:
        raise ConfigError(f"{err} of 'grid.dealias_fraction' {grid.dealias_fraction} "
                          f"and 'grid.modes_per_dim' {grid.modes_per_dim}") from err


def _single_mode_vector(grid: SpectralGrid, j: tuple[int, int],
                        l2_amplitude: float) -> VectorField:
    """Divergence-free cosine mode along k-perp with prescribed L^2 norm."""
    _require_in_dealias_band((j,), grid, "noise.pivot_mode")
    scale = l2_amplitude / (grid.domain_length / math.sqrt(2.0))
    if not math.isfinite(scale):
        raise ConfigError(f"'noise.pivot_norm' gives a non-finite pivot, got {l2_amplitude}")
    k0 = 2.0 * math.pi / grid.domain_length
    if (k0 * j[0]) ** 2 + (k0 * j[1]) ** 2 == 0.0:  # k^perp/|k| needs |k|^2 > 0
        raise ConfigError(f"'grid.domain_length' {grid.domain_length!r} is so long that "
                          f"|k|^2 underflows to 0 at 'noise.pivot_mode' {tuple(j)}")
    flat, profile, _ = mode_entries(j, grid)
    half = np.zeros((2, grid.ksq.size), dtype=np.complex128)
    half[:, flat] = profile * scale
    return VectorField(grid, half.reshape((2,) + grid.ksq.shape))


def build_noise_spec(noise: NoiseConfig, grid: SpectralGrid) -> CovarianceSpec:
    if noise.modes is None:
        # the band's corner is its outermost mode; check it before enumerating
        _require_in_dealias_band(((noise.mode_band, noise.mode_band),), grid,
                                 "noise.mode_band")
        modes = tuple(_band_modes(noise.mode_band))
    else:
        _require_in_dealias_band(noise.modes, grid, "noise.modes")
        modes = noise.modes
    k0 = 2.0 * np.pi / grid.domain_length
    coeffs = []
    for j1, j2 in modes:
        knorm = k0 * math.hypot(j1, j2)
        try:
            weight = knorm ** -noise.coefficient_decay if knorm > 0 else 1.0
        except OverflowError as err:
            raise ConfigError(
                f"'noise.coefficient_decay' overflows |k|^-decay at mode {(j1, j2)}, "
                f"got {noise.coefficient_decay}") from err
        coeffs.append(noise.coefficient_base * weight)
        if not math.isfinite(coeffs[-1]):
            raise ConfigError(
                f"'noise.coefficient_base' gives a non-finite coefficient at mode {(j1, j2)}, "
                f"got {noise.coefficient_base}")
    pivot = None
    if noise.sigma_kind == "rational_square":
        pivot = _single_mode_vector(grid, noise.pivot_mode, noise.pivot_norm)
    return CovarianceSpec(
        mode_indices=modes,
        coefficients=tuple(coeffs),
        roughness=noise.roughness,
        sigma_kind=noise.sigma_kind,
        pivot=pivot,
        hy_level=noise.hy_level,
    )


def build_initial(initial: InitialConfig, grid: SpectralGrid,
                  base_seed: int) -> tuple[VectorField | None, ScalarField]:
    """Initial (v0, xi0); v0 = None means derive it by Biot-Savart."""
    if initial.kind == "zero":
        return None, zero_scalar(grid)
    if initial.kind == "single_mode":
        _require_in_dealias_band(((1, 0),), grid, "initial.kind")
        n = grid.modes_per_dim
        c = np.zeros((n, n), dtype=np.complex128)
        c[1, 0] = initial.amplitude / 2.0
        c[-1 % n, 0] = initial.amplitude / 2.0
        return None, ScalarField.from_lattice(grid, c, "initial")
    try:
        xi0 = random_scalar_field(grid, initial_rng(base_seed), decay=initial.spectral_decay,
                                  amplitude=initial.amplitude)
    except ValueError as err:  # the |k|^-decay spectrum over- or underflows
        # |k| runs over multiples of 2*pi/L, so the decay and the domain act as a pair
        raise ConfigError(f"'initial.spectral_decay' gives no usable spectrum with "
                          f"'grid.domain_length' {grid.domain_length!r} ({err}), "
                          f"got {initial.spectral_decay}") from err
    return None, xi0
