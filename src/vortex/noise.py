"""Multiplicative noise: covariance specification, basis construction,
Wiener increments, Hille-Yosida regularization and operator norms.

The covariance acts diagonally on a finite family of divergence-free
Fourier modes: applied to the k-th basis direction it returns
c_k * sigma(v) * e_k, where e_k is normalized to unit W^{1-g,2} norm.
Vorticity noise takes the curl of each basis element, losing one order
of differentiability.  R_n = n (nI - Laplacian)^{-1} smooths the noise;
n = inf means no regularization.

Each e_k has at most two nonzero spectral coefficients, at +-k, and a
field stores the rfft2 half of its spectrum (see `spectral`), so e_k has
one coefficient there, or two when k lies on the self-conjugate column
j2 = 0, where both +-k are in the half.  A `ScatterPlan` lists them per
mode, with the velocity and vorticity amplitudes there, and the few
distinct half-spectrum coefficients they touch.  `apply_G` evaluates
sigma(v) once and returns the noise increment at those coefficients only,
velocity and vorticity together, so a time step builds no dense noise
field: it adds the increment in place.  The check-time code (operator
norms, BDG sums) fills dense half-spectrum fields from the plan, uncached
(`build_noise_basis`).  Nothing at run time reads the stacked `NoiseBasis`;
it is the dense full-lattice reference of the plan.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .spectral import (
    Field,
    ScalarField,
    SpectralGrid,
    VectorField,
    bessel_multiplier,
    l2_inner,
    lattice,
    sobolev_norm_spectral,
    to_physical,
)

SIGMA_KINDS = ("constant_one", "rational_square", "zero")


@dataclass(frozen=True)
class CovarianceSpec:
    """Diagonal covariance over a finite list of wavevector modes.

    mode_indices: integer wavevectors (j1, j2) selecting basis directions.
        A listed j whose negation is "canonical" (j2 > 0, or j2 == 0 and
        j1 > 0) selects the sine profile of the canonical wavevector, so j
        and -j give orthogonal basis elements.  (0, 0) selects the constant
        mode.
    coefficients: amplitudes c_k, one per mode; sum c_k^2 < inf holds by
        finiteness and is reported by coefficient_sq_sum.
    roughness: the regularity loss g in (0, 1); basis elements are
        normalized in W^{1-g,2}.
    sigma_kind: 'constant_one', 'zero', or 'rational_square' with
        sigma(v) = <v,h>^2 / (1 + <v,h>^2) for the pivot h.
    hy_level: Hille-Yosida level n (positive; math.inf = no smoothing).
    """

    mode_indices: tuple[tuple[int, int], ...]
    coefficients: tuple[float, ...]
    roughness: float
    sigma_kind: str = "constant_one"
    pivot: VectorField | None = None
    hy_level: float = math.inf

    def __post_init__(self):
        if len(self.mode_indices) != len(self.coefficients):
            raise ValueError("one coefficient per mode index is required")
        if len(set(self.mode_indices)) != len(self.mode_indices):
            raise ValueError("mode indices must be distinct")
        if not 0.0 < self.roughness < 1.0:
            raise ValueError(f"roughness g must lie in (0, 1), got {self.roughness}")
        if self.sigma_kind not in SIGMA_KINDS:
            raise ValueError(f"unknown sigma_kind {self.sigma_kind!r}")
        if self.sigma_kind == "rational_square" and self.pivot is None:
            raise ValueError("rational_square sigma requires a pivot field")
        if not (self.hy_level == math.inf or self.hy_level > 0):
            raise ValueError(f"hy_level must be positive or inf, got {self.hy_level}")

    @property
    def n_modes(self) -> int:
        return len(self.mode_indices)

    @property
    def coefficient_sq_sum(self) -> float:
        return float(sum(c * c for c in self.coefficients))

    def with_hy_level(self, n: float) -> "CovarianceSpec":
        return CovarianceSpec(self.mode_indices, self.coefficients, self.roughness,
                              self.sigma_kind, self.pivot, n)


@dataclass(frozen=True)
class WienerIncrement:
    """One step of the discretized cylindrical Wiener process: independent
    N(0,1) draws, one per retained mode, scaled by sqrt(dt) at application."""

    dt: float
    gaussians: np.ndarray

    def __post_init__(self):
        if not self.dt > 0:
            raise ValueError("dt must be positive")
        self.gaussians.setflags(write=False)


# Stream tag keeping initial-data draws disjoint from increment draws.
_INITIAL_STREAM = 0x494E4954  # "INIT"


def _philox(seed: int, path_index: int, step_index: int) -> np.random.Generator:
    # Counter-based: each (seed, path, step) owns 2^64 blocks, so draws are
    # reproducible and non-overlapping regardless of worker scheduling.
    key = np.array([seed, path_index], dtype=np.uint64)
    counter = np.array([0, 0, step_index, 0], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key, counter=counter))


def initial_rng(seed: int) -> np.random.Generator:
    """Dedicated stream for initial-data sampling, disjoint from increments."""
    return _philox(seed, _INITIAL_STREAM, 0)


def sample_increment(seed: int, path_index: int, step_index: int,
                     spec: CovarianceSpec, dt: float) -> WienerIncrement:
    """Deterministic given (seed, path, step); independent across all three."""
    rng = _philox(seed, path_index, step_index)
    return WienerIncrement(dt, rng.standard_normal(spec.n_modes))


def _canonical(j: tuple[int, int]) -> tuple[bool, tuple[int, int]]:
    j1, j2 = j
    if (j2 > 0) or (j2 == 0 and j1 > 0):
        return True, j
    return False, (-j1, -j2)


def require_in_band(mode_indices, grid: SpectralGrid) -> None:
    """Every noise mode must lie strictly inside the Nyquist band: there
    +-k are two distinct indices, so e_k is a real field with its full
    amplitude."""
    half = grid.modes_per_dim // 2
    for j in mode_indices:
        if max(abs(j[0]), abs(j[1])) >= half:
            raise ValueError(
                f"noise mode {tuple(j)} lies outside the grid band max(|j1|, |j2|) < {half}"
            )


@dataclass(frozen=True)
class ScatterPlan:
    """The nonzero half-spectrum coefficients of every basis element on a
    grid, as one entry list in mode order (each mode's entries adjacent):
    one entry per mode, two for a mode on column 0.

    mode: the mode each entry belongs to.
    slot: the entry's position in `touched`.
    velocity: (2, entries) x and y amplitudes of e_k there.
    vorticity: the amplitudes of curl e_k there.
    touched: the distinct flat indices into the (N, N/2+1) half, and
        touched_ksq their |k|^2.
    """

    mode: np.ndarray
    slot: np.ndarray
    velocity: np.ndarray
    vorticity: np.ndarray
    touched: np.ndarray
    touched_ksq: np.ndarray


def _build_plan(mode_indices, roughness: float, grid: SpectralGrid) -> ScatterPlan:
    require_in_band(mode_indices, grid)
    n = grid.modes_per_dim
    k0 = 2.0 * np.pi / grid.domain_length
    mode, rows, cols, velocity = [], [], [], []
    for m, j in enumerate(mode_indices):
        j1, j2 = j
        if j1 == 0 and j2 == 0:
            mode.append(m)
            rows.append(0)
            cols.append(0)
            velocity.append(np.array([[1.0 / grid.domain_length], [0.0]], dtype=np.complex128))
            continue
        is_cos, (c1, c2) = _canonical(j)
        kvec = k0 * np.array([c1, c2])
        knorm = float(np.hypot(kvec[0], kvec[1]))
        qhat = np.array([-kvec[1], kvec[0]]) / knorm
        # cos: coeff(+-jc) = qhat/2 ; sin: coeff(+jc) = -i qhat/2, conj at -jc
        amp = 0.5 if is_cos else -0.5j
        pair = np.array([[amp * qhat[0], np.conj(amp) * qhat[0]],
                         [amp * qhat[1], np.conj(amp) * qhat[1]]], dtype=np.complex128)
        ksq = knorm * knorm
        norm = (1.0 + ksq) ** ((1.0 - roughness) / 2.0)
        norm *= grid.domain_length / np.sqrt(2.0)
        pair /= norm
        # +jc lies in the half (c2 >= 0); -jc only on column 0
        on_column_0 = c2 == 0
        mode += [m, m] if on_column_0 else [m]
        rows += [c1 % n, -c1 % n] if on_column_0 else [c1 % n]
        cols += [0, 0] if on_column_0 else [c2]
        velocity.append(pair if on_column_0 else pair[:, :1])
    rows, cols = np.array(rows, dtype=np.intp), np.array(cols, dtype=np.intp)
    velocity = np.concatenate(velocity, axis=1)
    # operators.curl, entry by entry
    vorticity = 1j * (grid.diff_kx[rows, 0] * velocity[1] - grid.diff_ky[0, cols] * velocity[0])
    touched, slot = np.unique(rows * (n // 2 + 1) + cols, return_inverse=True)
    plan = ScatterPlan(np.array(mode, dtype=np.intp), slot.astype(np.intp), velocity,
                       vorticity, touched, grid.ksq.ravel()[touched])
    for array in vars(plan).values():  # one copy for all callers
        array.setflags(write=False)
    return plan


@lru_cache(maxsize=8)  # a plan is a few hundred bytes
def _cached_plan(mode_indices, roughness: float, grid: SpectralGrid) -> ScatterPlan:
    return _build_plan(mode_indices, roughness, grid)


def scatter_plan(spec: CovarianceSpec, grid: SpectralGrid) -> ScatterPlan:
    """The plan of spec's modes on grid; like a basis, it reads only the
    mode list and the roughness."""
    return _cached_plan(spec.mode_indices, spec.roughness, grid)


def build_noise_basis(spec: CovarianceSpec, grid: SpectralGrid) -> list[VectorField]:
    """Velocity basis elements e_k: divergence-free single-frequency modes
    aligned with k-perp, normalized so ||e_k||_{W^{1-g,2}} = 1.

    A raw cosine/sine mode has L^2 norm L/sqrt(2), so the normalization
    divides by (1+|k|^2)^((1-g)/2) * L/sqrt(2); the constant mode (0,0) is
    the unit-L^2 field (1/L, 0).  The dense halves hold the amplitudes of
    `scatter_plan`.
    """
    plan = scatter_plan(spec, grid)
    n = grid.modes_per_dim
    out: list[VectorField] = []
    for m in range(spec.n_modes):
        at = plan.mode == m
        half = np.zeros((2, n * (n // 2 + 1)), dtype=np.complex128)
        half[:, plan.touched[plan.slot[at]]] = plan.velocity[:, at]
        half = half.reshape(2, n, n // 2 + 1)
        out.append(VectorField(ScalarField(grid, half[0]), ScalarField(grid, half[1])))
    return out


def mode_ksq(spec: CovarianceSpec, grid: SpectralGrid) -> np.ndarray:
    """|k|^2 of each listed mode, in mode order."""
    k0 = 2.0 * np.pi / grid.domain_length
    return np.array([k0 * k0 * (j1 * j1 + j2 * j2) for j1, j2 in spec.mode_indices])


class NoiseBasis:
    """The dense full-lattice reference of the scatter plan: each basis
    element's velocity and vorticity on the whole (N, N) lattice, stacked
    (`vel_stack` (modes, 2, N, N), `vor_stack` (modes, N, N)) and per mode
    (`velocity`, `vorticity`, views into the stacks)."""

    def __init__(self, spec: CovarianceSpec, grid: SpectralGrid):
        self.spec = spec
        self.grid = grid
        plan = scatter_plan(spec, grid)
        n = grid.modes_per_dim
        half = np.zeros((spec.n_modes, 3, n * (n // 2 + 1)), dtype=np.complex128)
        half[plan.mode, :, plan.touched[plan.slot]] = np.vstack(
            (plan.velocity, plan.vorticity)).T
        full = lattice(half.reshape(spec.n_modes, 3, n, n // 2 + 1))
        self.vel_stack, self.vor_stack = full[:, :2], full[:, 2]
        self.velocity, self.vorticity = list(self.vel_stack), list(self.vor_stack)
        self.mode_ksq = mode_ksq(spec, grid)


def sigma_eval(v: VectorField, spec: CovarianceSpec) -> float:
    """Noise intensity sigma(v); rational_square maps into [0, 1)."""
    if spec.sigma_kind == "zero":
        return 0.0
    if spec.sigma_kind == "constant_one":
        return 1.0
    s = l2_inner(v, spec.pivot)
    return s * s / (1.0 + s * s)


def hille_yosida(field: Field, n: float) -> Field:
    """R_n = n (nI - Laplacian)^{-1}: per-mode multiplication by n/(n+|k|^2).

    A contraction in every W^{s,q}; n = inf is the identity.
    """
    if n == math.inf:
        return field
    if not n > 0:
        raise ValueError(f"Hille-Yosida level must be positive, got {n}")
    if isinstance(field, VectorField):
        return VectorField(hille_yosida(field.vx, n), hille_yosida(field.vy, n))
    mult = n / (n + field.grid.ksq)
    return ScalarField(field.grid, field.half * mult)


def apply_G(v: VectorField, dW: WienerIncrement, spec: CovarianceSpec) -> np.ndarray:
    """R_n [ sum_k c_k sigma(v) g_k sqrt(dt) e_k ] and its curl, at the
    coefficients `scatter_plan(spec, v.grid).touched` only; every other
    coefficient of both is zero.  Linear in the increment.

    Returns one (3, len(touched)) array whose rows are the x and y velocity
    components and the vorticity.  sigma(v) is evaluated once.  Each mode's
    weight c_k sigma(v) g_k sqrt(dt) times its amplitudes is added, in mode
    order, into the slots its plan entries name; at a finite level n the
    slots are then multiplied by n/(n+|k|^2).
    """
    if len(dW.gaussians) != spec.n_modes:
        raise ValueError(
            f"increment has {len(dW.gaussians)} draws for {spec.n_modes} modes"
        )
    plan = scatter_plan(spec, v.grid)
    sig = sigma_eval(v, spec)
    weights = np.asarray(spec.coefficients) * (sig * np.sqrt(dW.dt)) * dW.gaussians
    entry_weights = weights[plan.mode]
    out = np.zeros((3, len(plan.touched)), dtype=np.complex128)
    for row, amplitude in zip(out, (*plan.velocity, plan.vorticity)):
        np.add.at(row, plan.slot, entry_weights * amplitude)
    level = spec.hy_level
    if level != math.inf:
        out *= level / (level + plan.touched_ksq)
    return out


def noise_mode_fields(spec: CovarianceSpec, v: VectorField) -> list[VectorField]:
    """The images G_n(v) h_k = R_n[c_k sigma(v) e_k]."""
    sig = sigma_eval(v, spec)
    return [hille_yosida(e * (c * sig), spec.hy_level)
            for c, e in zip(spec.coefficients, build_noise_basis(spec, v.grid))]


def operator_norms(
    v: VectorField,
    spec: CovarianceSpec,
    s: float,
    q: float,
) -> dict[str, float]:
    """Hilbert-Schmidt and gamma-radonifying norms of the noise operator.

    hs          = (sum_k ||G(v)h_k||^2_{W^{s,2}})^(1/2), spectral Parseval.
    radonifying = || (sum_k |J^s G(v)h_k|^2)^(1/2) ||_{L^q}, the square
                  function evaluated pointwise in physical space.
    The two agree for q = 2.
    """
    if q == np.inf:
        raise ValueError("radonifying norm is not defined for q = inf")
    if not q >= 1.0:
        raise ValueError(f"q must be >= 1, got {q}")
    hs_sq = 0.0
    square_fn = np.zeros((v.grid.modes_per_dim,) * 2)
    for f in noise_mode_fields(spec, v):
        hs_sq += sobolev_norm_spectral(f, s) ** 2
        px, py = to_physical(bessel_multiplier(f, s))
        square_fn += px * px + py * py
    cell = v.grid.cell_area
    radonifying = float((np.sum(square_fn ** (q / 2.0)) * cell) ** (1.0 / q))
    return {"hs": float(np.sqrt(hs_sq)), "radonifying": radonifying}


def basis_l2_sq_sum(spec: CovarianceSpec, grid: SpectralGrid) -> float:
    """sum_k c_k^2 ||e_k||^2_{L^2}; the covariance factor in the Lipschitz
    bound ||G(v1)-G(v2)||_{HS(H;L^2)} <= Lip(sigma) (sum c^2 ||e||^2)^(1/2)
    ||v1-v2||.

    Unit W^{1-g,2} norm gives ||e_k||^2_{L^2} = (1+|k|^2)^-(1-g), and the
    constant mode has unit L^2 norm."""
    ksq = mode_ksq(spec, grid)
    e_sq = np.where(ksq > 0, (1.0 + ksq) ** -(1.0 - spec.roughness), 1.0)
    return float(sum(c * c * e for c, e in zip(spec.coefficients, e_sq)))
