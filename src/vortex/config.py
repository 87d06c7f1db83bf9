"""Experiment configuration: JSON loading, fail-closed validation and the
resolved-config dump.

Unknown keys are rejected anywhere in the document; every invariant of the
owning module (grid, solver, noise) is re-validated at load time, and
validation errors name the offending field path.  A resolved config dump
reloads to an identical configuration.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .integrator import SolverConfig, TrajectoryStats
from .noise import CovarianceSpec, initial_rng, require_in_band
from .operators import random_scalar_field
from .spectral import ScalarField, SpectralGrid, VectorField, zero_scalar

_REQUIRED = object()


class ConfigError(ValueError):
    pass


def _take(table: dict, key: str, path: str, default=_REQUIRED, kind=None):
    if key not in table:
        if default is _REQUIRED:
            raise ConfigError(f"missing required key '{path}.{key}'")
        return default
    value = table.pop(key)
    if kind is not None:
        if kind is float and isinstance(value, int) and not isinstance(value, bool):
            value = float(value)
        if kind is int and isinstance(value, bool):
            raise ConfigError(f"'{path}.{key}' must be an integer, got a boolean")
        if not isinstance(value, kind):
            raise ConfigError(
                f"'{path}.{key}' must be {getattr(kind, '__name__', kind)}, "
                f"got {type(value).__name__}"
            )
    return value


def _take_number(table: dict, key: str, path: str, default: float) -> float:
    """A finite number (an integer is taken as a float); errors name the key."""
    return _number(_take(table, key, path, default), f"{path}.{key}" if path else key)


def _reject_unknown(table: dict, path: str):
    if table:
        key = sorted(table)[0]
        raise ConfigError(f"unknown key '{path}.{key}'")


def _mode_pair(value, path: str) -> tuple[int, int]:
    if (not isinstance(value, (list, tuple)) or len(value) != 2
            or not all(isinstance(x, int) and not isinstance(x, bool) for x in value)):
        raise ConfigError(f"'{path}' must be a pair of integers")
    return int(value[0]), int(value[1])


@dataclass(frozen=True)
class NoiseConfig:
    mode_band: int = 2
    modes: tuple[tuple[int, int], ...] | None = None
    coefficient_base: float = 1.0
    coefficient_decay: float = 1.1
    sigma_kind: str = "rational_square"
    pivot_mode: tuple[int, int] = (1, 0)
    # sigma(v) responds at order one when <v,h> does; a unit-norm pivot would
    # leave the worked-example noise intensity near zero for O(1) velocities
    pivot_norm: float = 32.0
    roughness: float = 0.5
    hy_level: float = math.inf

    def __post_init__(self):
        if self.modes is None and self.mode_band < 1:
            raise ConfigError("'noise.mode_band' must be >= 1")
        if not 0.0 < self.roughness < 1.0:
            raise ConfigError("'noise.roughness' must lie in (0, 1)")
        if not (self.hy_level == math.inf or self.hy_level > 0):
            raise ConfigError("'noise.hy_level' must be positive or null (= infinity)")


@dataclass(frozen=True)
class InitialConfig:
    kind: str = "random_vorticity"
    amplitude: float = 1.0
    spectral_decay: float = 2.0

    def __post_init__(self):
        if self.kind not in ("zero", "random_vorticity", "single_mode"):
            raise ConfigError(f"'initial.kind' unknown: {self.kind!r}")


@dataclass(frozen=True)
class McConfig:
    n_paths: int = 32
    base_seed: int = 2026

    def __post_init__(self):
        if self.n_paths < 1:
            raise ConfigError("'mc.n_paths' must be >= 1")
        if not 0 <= self.base_seed < 2**63:
            raise ConfigError("'mc.base_seed' must be a nonnegative 63-bit integer")


@dataclass(frozen=True)
class OutputConfig:
    directory: str | None = None
    snapshot_stride: int = 0

    def __post_init__(self):
        if self.snapshot_stride < 0:
            raise ConfigError("'output.snapshot_stride' must be >= 0")


def _number(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"'{path}' must be a number, got {type(value).__name__}")
    if not math.isfinite(value):
        raise ConfigError(f"'{path}' must be finite, got {value}")
    return float(value)


def _integer(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"'{path}' must be an integer, got {type(value).__name__}")
    return value


def _list(value, path: str) -> list:
    if not isinstance(value, list):
        raise ConfigError(f"'{path}' must be a list, got {type(value).__name__}")
    return value


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
    if not isinstance(value, dict):
        raise ConfigError(f"'{path}' must be an object, got {type(value).__name__}")
    for key in value:
        if key not in TrajectoryStats.FUNCTIONALS:
            raise ConfigError(f"unknown key '{path}.{key}'")
    return {key: _number(v, f"{path}.{key}") for key, v in value.items()}


_AT_LEAST_1 = (lambda x: x >= 1, "must be >= 1")
_POSITIVE = (lambda x: x > 0, "must be positive")
_NON_NEGATIVE = (lambda x: x >= 0, "must be >= 0")
_NON_EMPTY = (lambda x: len(x) >= 1, "must not be empty")
_TWO_OR_MORE = (lambda x: len(x) >= 2, "must list at least 2 levels")

# Every check's parameters: key -> (reader, default, requirement).  A reader
# checks the type and returns the value as the drivers take it; a default of
# None is the run's mc.n_paths; a requirement is (predicate, message).
CHECK_PARAMS = {
    "energy": {
        "ceilings": (_ceilings, {}, None),
    },
    "identities": {
        "trials": (_integer, 100, _AT_LEAST_1),
    },
    "hy_uniformity": {
        "levels": (_levels, (1.0, 10.0, 100.0, math.inf), _TWO_OR_MORE),
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
        "levels": (_levels, (1.0, 100.0, math.inf), _NON_EMPTY),
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


@dataclass(frozen=True)
class CheckConfig:
    """One `checks` entry; params keeps the keys as the config gave them."""

    name: str
    params: tuple[tuple[str, object], ...] = ()

    def __post_init__(self):
        if self.name not in CHECK_PARAMS:
            raise ConfigError(f"'checks' entry has unknown name {self.name!r}")

    def param_dict(self) -> dict:
        return dict(self.params)

    def value(self, key: str, mc_paths: int | None = None):
        """The parameter as the drivers take it, or its default; mc_paths
        stands in for a default of None."""
        read, default, _ = CHECK_PARAMS[self.name][key]
        params = self.param_dict()
        if key in params:
            return read(params[key], f"checks.{key}")
        return mc_paths if default is None else default


def _check_entry(entry: dict, path: str) -> CheckConfig:
    """Validate one `checks` entry against CHECK_PARAMS; errors name path.key."""
    entry = dict(entry)
    check = CheckConfig(name=_take(entry, "name", path, kind=str),
                        params=tuple(sorted(entry.items())))
    table = CHECK_PARAMS[check.name]
    for key, value in check.params:
        if key not in table:
            raise ConfigError(f"unknown key '{path}.{key}'")
        read, _, requirement = table[key]
        typed = read(value, f"{path}.{key}")
        if requirement is not None and not requirement[0](typed):
            raise ConfigError(f"'{path}.{key}' {requirement[1]}, got {value}")
    return check


@dataclass(frozen=True)
class ExperimentConfig:
    grid: SpectralGrid
    solver: SolverConfig
    noise: NoiseConfig
    initial: InitialConfig
    mc: McConfig
    checks: tuple[CheckConfig, ...]
    output: OutputConfig
    lq_exponent: float = 4.0

    def build_noise_spec(self) -> CovarianceSpec:
        return build_noise_spec(self.noise, self.grid)

    def build_initial(self) -> tuple[VectorField | None, ScalarField]:
        return build_initial(self.initial, self.grid, self.mc.base_seed)

    def resolved(self) -> dict:
        hy = self.noise.hy_level
        return {
            "grid": {
                "modes_per_dim": self.grid.modes_per_dim,
                "domain_length": self.grid.domain_length,
                "dealias_fraction": self.grid.dealias_fraction,
            },
            "solver": {
                "dt": self.solver.dt,
                "t_end": self.solver.t_end,
                "scheme": self.solver.scheme,
                "blowup_threshold": self.solver.blowup_threshold,
            },
            "noise": {
                "mode_band": self.noise.mode_band,
                "modes": None if self.noise.modes is None
                else [list(m) for m in self.noise.modes],
                "coefficient_base": self.noise.coefficient_base,
                "coefficient_decay": self.noise.coefficient_decay,
                "sigma_kind": self.noise.sigma_kind,
                "pivot_mode": list(self.noise.pivot_mode),
                "pivot_norm": self.noise.pivot_norm,
                "roughness": self.noise.roughness,
                "hy_level": None if hy == math.inf else hy,
            },
            "initial": {
                "kind": self.initial.kind,
                "amplitude": self.initial.amplitude,
                "spectral_decay": self.initial.spectral_decay,
            },
            "mc": {"n_paths": self.mc.n_paths, "base_seed": self.mc.base_seed},
            "checks": [{"name": c.name, **c.param_dict()} for c in self.checks],
            "output": {
                "directory": self.output.directory,
                "snapshot_stride": self.output.snapshot_stride,
            },
            "lq_exponent": self.lq_exponent,
        }


def parse_config(doc: dict) -> ExperimentConfig:
    if not isinstance(doc, dict):
        raise ConfigError("config document must be a JSON object")
    doc = dict(doc)

    grid_tbl = dict(_take(doc, "grid", "", kind=dict))
    try:
        grid = SpectralGrid(
            modes_per_dim=_take(grid_tbl, "modes_per_dim", "grid", 64, int),
            domain_length=_take_number(grid_tbl, "domain_length", "grid", 2.0 * np.pi),
            dealias_fraction=_take_number(grid_tbl, "dealias_fraction", "grid", 2.0 / 3.0),
        )
    except ValueError as err:
        # SpectralGrid messages start with the offending field's name
        raise ConfigError(f"grid.{err}") from err
    _reject_unknown(grid_tbl, "grid")

    solver_tbl = dict(_take(doc, "solver", "", kind=dict))
    try:
        solver = SolverConfig(
            dt=_take(solver_tbl, "dt", "solver", kind=float),
            t_end=_take(solver_tbl, "t_end", "solver", kind=float),
            scheme=_take(solver_tbl, "scheme", "solver", "exp_euler", str),
            blowup_threshold=_take(solver_tbl, "blowup_threshold", "solver", 1e6, float),
        )
    except ValueError as err:
        # SolverConfig messages start with the offending field's name
        raise ConfigError(f"solver.{err}") from err
    _reject_unknown(solver_tbl, "solver")

    noise_tbl = dict(_take(doc, "noise", "", default={}, kind=dict))
    modes_raw = _take(noise_tbl, "modes", "noise", None)
    modes = None
    if modes_raw is not None:
        if not isinstance(modes_raw, list):
            raise ConfigError("'noise.modes' must be a list of integer pairs")
        if not modes_raw:
            raise ConfigError("'noise.modes' must list at least one mode; "
                              "use noise.sigma_kind 'zero' to run without noise")
        modes = tuple(_mode_pair(m, "noise.modes") for m in modes_raw)
    noise_cfg = NoiseConfig(
        mode_band=_take(noise_tbl, "mode_band", "noise", 2, int),
        modes=modes,
        coefficient_base=_take_number(noise_tbl, "coefficient_base", "noise", 1.0),
        coefficient_decay=_take_number(noise_tbl, "coefficient_decay", "noise", 1.1),
        sigma_kind=_take(noise_tbl, "sigma_kind", "noise", "rational_square", str),
        pivot_mode=_mode_pair(_take(noise_tbl, "pivot_mode", "noise", [1, 0]),
                              "noise.pivot_mode"),
        pivot_norm=_take_number(noise_tbl, "pivot_norm", "noise", 32.0),
        roughness=_take_number(noise_tbl, "roughness", "noise", 0.5),
        hy_level=_level(_take(noise_tbl, "hy_level", "noise", None), "noise.hy_level"),
    )
    _reject_unknown(noise_tbl, "noise")

    initial_tbl = dict(_take(doc, "initial", "", default={}, kind=dict))
    initial = InitialConfig(
        kind=_take(initial_tbl, "kind", "initial", "random_vorticity", str),
        amplitude=_take_number(initial_tbl, "amplitude", "initial", 1.0),
        spectral_decay=_take_number(initial_tbl, "spectral_decay", "initial", 2.0),
    )
    _reject_unknown(initial_tbl, "initial")

    mc_tbl = dict(_take(doc, "mc", "", default={}, kind=dict))
    mc = McConfig(
        n_paths=_take(mc_tbl, "n_paths", "mc", 32, int),
        base_seed=_take(mc_tbl, "base_seed", "mc", 2026, int),
    )
    _reject_unknown(mc_tbl, "mc")

    checks_raw = _take(doc, "checks", "", default=[])
    if not isinstance(checks_raw, list):
        raise ConfigError("'checks' must be a list")
    checks = []
    for i, entry in enumerate(checks_raw):
        if not isinstance(entry, dict):
            raise ConfigError(f"'checks[{i}]' must be an object")
        checks.append(_check_entry(entry, f"checks[{i}]"))

    output_tbl = dict(_take(doc, "output", "", default={}, kind=dict))
    directory = _take(output_tbl, "directory", "output", None)
    if directory is not None and not isinstance(directory, str):
        raise ConfigError("'output.directory' must be a string or null")
    output = OutputConfig(
        directory=directory,
        snapshot_stride=_take(output_tbl, "snapshot_stride", "output", 0, int),
    )
    _reject_unknown(output_tbl, "output")

    lq_exponent = _take_number(doc, "lq_exponent", "", 4.0)
    if lq_exponent < 1.0:
        raise ConfigError("'lq_exponent' must be >= 1")
    _reject_unknown(doc, "")

    return ExperimentConfig(grid, solver, noise_cfg, initial, mc,
                            tuple(checks), output, lq_exponent)


def load_config(path) -> ExperimentConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as err:
        raise ConfigError(f"config file {path} is not valid JSON: {err}") from err
    return parse_config(doc)


def _band_modes(band: int) -> list[tuple[int, int]]:
    out = []
    for j1 in range(-band, band + 1):
        for j2 in range(-band, band + 1):
            if max(abs(j1), abs(j2)) >= 1:
                out.append((j1, j2))
    out.sort(key=lambda j: (max(abs(j[0]), abs(j[1])), j[0], j[1]))
    return out


def _single_mode_vector(grid: SpectralGrid, j: tuple[int, int],
                        l2_amplitude: float) -> VectorField:
    """Divergence-free cosine mode along k-perp with prescribed L^2 norm."""
    n = grid.modes_per_dim
    k0 = 2.0 * np.pi / grid.domain_length
    kvec = k0 * np.array([j[0], j[1]])
    knorm = float(np.hypot(kvec[0], kvec[1]))
    if knorm == 0.0:
        raise ConfigError("'noise.pivot_mode' must be a nonzero wavevector")
    try:
        require_in_band((j,), grid)
    except ValueError as err:
        raise ConfigError(
            f"'noise.pivot_mode': {err} of grid.modes_per_dim {n}") from err
    qhat = np.array([-kvec[1], kvec[0]]) / knorm
    cx = np.zeros((n, n), dtype=np.complex128)
    cy = np.zeros((n, n), dtype=np.complex128)
    scale = l2_amplitude / (grid.domain_length / np.sqrt(2.0))
    for idx, amp in (((j[0] % n, j[1] % n), 0.5), ((-j[0] % n, -j[1] % n), 0.5)):
        cx[idx] += amp * qhat[0] * scale
        cy[idx] += amp * qhat[1] * scale
    return VectorField(ScalarField.from_lattice(grid, cx, "noise.pivot_mode"),
                       ScalarField.from_lattice(grid, cy, "noise.pivot_mode"))


def build_noise_spec(noise: NoiseConfig, grid: SpectralGrid) -> CovarianceSpec:
    modes = noise.modes if noise.modes is not None else tuple(_band_modes(noise.mode_band))
    try:
        require_in_band(modes, grid)
    except ValueError as err:
        field = "noise.modes" if noise.modes is not None else "noise.mode_band"
        raise ConfigError(
            f"'{field}': {err} of grid.modes_per_dim {grid.modes_per_dim}") from err
    k0 = 2.0 * np.pi / grid.domain_length
    coeffs = []
    for j1, j2 in modes:
        knorm = k0 * math.hypot(j1, j2)
        coeffs.append(noise.coefficient_base * (knorm ** -noise.coefficient_decay
                                                if knorm > 0 else 1.0))
    pivot = None
    if noise.sigma_kind == "rational_square":
        pivot = _single_mode_vector(grid, noise.pivot_mode, noise.pivot_norm)
    try:
        return CovarianceSpec(
            mode_indices=tuple(modes),
            coefficients=tuple(coeffs),
            roughness=noise.roughness,
            sigma_kind=noise.sigma_kind,
            pivot=pivot,
            hy_level=noise.hy_level,
        )
    except ValueError as err:
        raise ConfigError(f"noise: {err}") from err


def build_initial(initial: InitialConfig, grid: SpectralGrid,
                  base_seed: int) -> tuple[VectorField | None, ScalarField]:
    """Initial (v0, xi0); v0 = None means derive it by Biot-Savart."""
    if initial.kind == "zero":
        return None, zero_scalar(grid)
    if initial.kind == "single_mode":
        n = grid.modes_per_dim
        c = np.zeros((n, n), dtype=np.complex128)
        c[1, 0] = initial.amplitude / 2.0
        c[-1 % n, 0] = initial.amplitude / 2.0
        return None, ScalarField.from_lattice(grid, c, "initial")
    rng = initial_rng(base_seed)
    xi0 = random_scalar_field(grid, rng, decay=initial.spectral_decay,
                              amplitude=initial.amplitude)
    return None, xi0
