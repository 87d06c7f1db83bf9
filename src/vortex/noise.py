"""Multiplicative noise: covariance specification, the scatter plan of its
basis, Wiener increments, Hille-Yosida regularization and operator norms.

The covariance acts diagonally on a finite family of divergence-free
Fourier modes: applied to the k-th basis direction it returns
c_k * sigma(v) * e_k, where e_k is normalized to unit W^{1-g,2} norm.
Vorticity noise takes the curl of each basis element, losing one order
of differentiability.  R_n = n (nI - Laplacian)^{-1} smooths the noise;
n = inf means no regularization.

Each e_k has at most two nonzero spectral coefficients, at +-k, and a
field stores the rfft2 half of its spectrum (see `spectral`), so e_k has
one coefficient there, or two when k lies on the self-conjugate column
j2 = 0, where both +-k are in the half.  `mode_entries` writes a mode's
profile there, with k and |k|^2 read from the grid (it also builds a
config's pivot).  A `ScatterPlan` lists the entries per mode, with the
velocity and vorticity amplitudes, the distinct coefficients they touch
and each mode's |k|^2 `ksq`, from which every per-mode number derives: the
W^{1-g,2} normalisation, ||e_k||_{L^2} and the R_n factor `hy_factor`.
`sigma_values` takes sigma(v) of a stack of velocities in one call, and
`apply_G` the noise increments of a batch from those and the rows' draws,
at the touched coefficients only, velocity and vorticity together, so a
time step builds no dense noise field: it adds them in place.  Since e_k
has the single frequency |k|, G_n(v) h_k is e_k times the scalar
`mode_weights` c_k sigma(v) n/(n+|k|^2), so the check-time code (operator
norms, BDG sums) reads the plan through two helpers only: those weights
and the physical values of every e_k (`basis_values`), the latter on the
grid where its L^q sums are exact (`quadrature_grid`).  Nothing at run
time reads the stacked `NoiseBasis`; it is the one dense full-lattice
reference of the plan.

Increments come from counter-based Philox streams keyed by (seed, path) with
the step in the counter.  A process keeps one Philox generator and
`sample_increment` resets its key and counter, so a draw equals that of a
freshly built generator without the cost of building one; `initial_rng`
still returns a fresh generator.  A step draws one Gaussian per mode, in
mode order, from its stream, so the first m draws do not depend on how many
modes follow.  The default mode list of a config's `noise.mode_band` runs in
shells of max(|j1|, |j2|), so band K's modes open band 2K's and each keeps
its Gaussian when the band grows; an explicit `noise.modes` list has this
prefix property only when it is in shell order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .spectral import (SpectralGrid, VectorField, half_sums, lq_norms, physical_values,
                       sobolev_weight)

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


# the process's one Philox generator, and a fresh generator's state, its buffer empty
_PHILOX = _philox(0, 0, 0)
_FRESH = _PHILOX.bit_generator.state


def sample_increment(seed: int, path_index: int, step_index: int,
                     spec: CovarianceSpec, dt: float) -> WienerIncrement:
    """Deterministic given (seed, path, step); independent across all three.
    The process's generator is reset to the key and counter that
    _philox(seed, path_index, step_index) starts from, with an empty buffer,
    so it draws what a fresh one would, without building a generator."""
    _FRESH["state"]["key"][:] = (seed, path_index)
    _FRESH["state"]["counter"][:] = (0, 0, step_index, 0)
    _PHILOX.bit_generator.state = _FRESH
    return WienerIncrement(dt, _PHILOX.standard_normal(spec.n_modes))


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


def require_in_dealias_band(mode_indices, grid: SpectralGrid, name: str) -> None:
    """Every mode must lie inside the dealias band, where every field a run
    evolves lives (see `integrator`); `name` opens the message."""
    for j in mode_indices:
        if max(abs(j[0]), abs(j[1])) > grid.dealias_limit:
            raise ValueError(f"{name} mode {tuple(j)} lies outside the dealias band "
                             f"max(|j1|, |j2|) <= {grid.dealias_limit}")


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
    ksq: each mode's |k|^2, `grid.ksq` at its coefficients.
    """

    mode: np.ndarray
    slot: np.ndarray
    velocity: np.ndarray
    vorticity: np.ndarray
    touched: np.ndarray
    touched_ksq: np.ndarray
    ksq: np.ndarray


def mode_entries(j, grid: SpectralGrid, sine: bool = False):
    """The divergence-free profile k^perp/|k| cos(k.x) (sin(k.x) if sine) of
    the nonzero mode j at its nonzero half-spectrum coefficients, and its
    |k|^2: (flat indices, (2, entries) coefficients, |k|^2), with k and
    |k|^2 read from the grid there.  One entry, or two on column 0, where
    both +-k lie in the half.  The cosine of -j is minus that of j."""
    n = grid.modes_per_dim
    canonical, (c1, c2) = _canonical(j)  # +c lies in the half, -c too on column 0
    flat = np.array([c1 % n, -c1 % n][: 1 + (c2 == 0)]) * (n // 2 + 1) + c2
    (k1, k2), ksq = grid.k.reshape(2, -1)[:, flat[0]], grid.ksq.ravel()[flat[0]]
    qhat = np.array([-k2, k1]) / math.sqrt(ksq)
    amp = -0.5j if sine else (0.5 if canonical else -0.5)  # at +c; conj at -c
    pair = np.array([[amp * qhat[0], np.conj(amp) * qhat[0]],
                     [amp * qhat[1], np.conj(amp) * qhat[1]]], dtype=np.complex128)
    return flat, pair[:, : len(flat)], ksq


@lru_cache(maxsize=8)  # a plan is a few hundred bytes
def _build_plan(mode_indices, roughness: float, grid: SpectralGrid) -> ScatterPlan:
    require_in_band(mode_indices, grid)
    mode, flat, velocity, ksq = [], [], [], []
    for m, j in enumerate(mode_indices):
        if tuple(j) == (0, 0):
            at, amps, kk = [0], [[1.0 / grid.domain_length], [0.0]], grid.ksq[0, 0]
        else:  # a listed j that is not canonical selects the sine profile
            at, amps, kk = mode_entries(j, grid, sine=not _canonical(j)[0])
            # unit W^{1-g,2} norm; cos and sin have L^2 norm L/sqrt 2
            amps = amps / ((1.0 + kk) ** ((1.0 - roughness) / 2.0)
                           * (grid.domain_length / np.sqrt(2.0)))
        mode += [m] * len(at)
        flat += list(at)
        velocity.append(np.asarray(amps, dtype=np.complex128))
        ksq.append(kk)
    flat, velocity = np.array(flat, dtype=np.intp), np.concatenate(velocity, axis=1)
    # operators.curl, entry by entry
    (kx, ky), (vx, vy) = grid.diff_k.reshape(2, -1)[:, flat], velocity
    vorticity = 1j * (kx * vy - ky * vx)
    touched, slot = np.unique(flat, return_inverse=True)
    plan = ScatterPlan(np.array(mode, dtype=np.intp), slot.astype(np.intp), velocity,
                       vorticity, touched, grid.ksq.ravel()[touched], np.array(ksq))
    for array in vars(plan).values():  # one copy for all callers
        array.setflags(write=False)
    return plan


def scatter_plan(spec: CovarianceSpec, grid: SpectralGrid) -> ScatterPlan:
    """The plan of spec's modes on grid; like a basis, it reads only the
    mode list and the roughness."""
    return _build_plan(spec.mode_indices, spec.roughness, grid)


def hy_factor(level: float, ksq):
    """R_n's multiplier n/(n+|k|^2) at each |k|^2; 1 at n = inf."""
    return 1.0 if level == math.inf else level / (level + ksq)


def _dense_halves(spec: CovarianceSpec, grid: SpectralGrid,
                  amplitudes: np.ndarray) -> np.ndarray:
    """(modes, rows, N, N/2+1) halves holding each mode's plan amplitudes,
    one row of `amplitudes` (rows, plan entries) per row, zero elsewhere."""
    plan = scatter_plan(spec, grid)
    half = np.zeros((spec.n_modes, len(amplitudes), grid.ksq.size), dtype=np.complex128)
    half[plan.mode, :, plan.touched[plan.slot]] = amplitudes.T
    return half.reshape((spec.n_modes, len(amplitudes)) + grid.ksq.shape)


def basis_values(spec: CovarianceSpec, grid: SpectralGrid) -> np.ndarray:
    """The physical values of every basis element e_k, (modes, 2, N, N):
    the `physical_values` of the plan's velocity amplitudes, taken as the
    block of the columns 0..K that the modes touch, K <= their band."""
    plan = scatter_plan(spec, grid)
    width = int(np.max(plan.touched % (grid.modes_per_dim // 2 + 1), initial=0)) + 1
    return physical_values(_dense_halves(spec, grid, plan.velocity)[..., :width])


def quadrature_grid(spec: CovarianceSpec, grid: SpectralGrid, q: float) -> SpectralGrid:
    """The grid Q on which the check-time L^q sums of sum_k w_k e_k (the BDG
    sups and the gamma-radonifying norm) are taken, for fields of `grid`.

    Every e_k has degree at most K = max(|j1|, |j2|) over the modes in each
    coordinate, so for even q each component's |x|^q, and the square
    function's q/2-th power, are trigonometric polynomials of degree qK,
    which the rectangle rule on M points integrates exactly when qK < M
    (Boyd, Chebyshev and Fourier Spectral Methods, 2001, ch. 11).  For even
    integer q, Q is the smallest even M >= 8 with qK < M, capped at 2N; for
    any other q the rule is exact on no grid, and Q is 2N.  Q > 2K, so every
    mode lies inside Q's band."""
    cap = 2 * grid.modes_per_dim
    size = cap
    if float(q).is_integer() and q % 2 == 0:
        band = max((max(abs(j1), abs(j2)) for j1, j2 in spec.mode_indices), default=0)
        if q * band + 2 < cap:  # qK is even: qK + 2 is the smallest even M > qK
            size = max(8, int(q * band) + 2)
    return SpectralGrid(size, grid.domain_length, grid.dealias_fraction)


class NoiseBasis:
    """The dense full-lattice reference of the scatter plan: each basis
    element's velocity and vorticity on the whole (N, N) lattice, stacked
    (`vel_stack` (modes, 2, N, N), `vor_stack` (modes, N, N)) and per mode
    (`velocity`, `vorticity`, views into the stacks).

    The lattice starts from zeros and receives each plan entry at its half
    index (i, j) and, for j > 0, the entry's conjugate at (-i mod N, N - j),
    where `spectral.lattice` puts it; on column 0 both +-k are plan entries."""

    def __init__(self, spec: CovarianceSpec, grid: SpectralGrid):
        self.spec = spec
        self.grid = grid
        plan = scatter_plan(spec, grid)
        n = grid.modes_per_dim
        full = np.zeros((spec.n_modes, 3, n, n), dtype=np.complex128)
        rows, cols = np.divmod(plan.touched[plan.slot], n // 2 + 1)
        amps = np.vstack((plan.velocity, plan.vorticity)).T  # (entries, 3)
        full[plan.mode, :, rows, cols] = amps
        mirror = cols > 0
        full[plan.mode[mirror], :, -rows[mirror] % n, n - cols[mirror]] = amps[mirror].conj()
        self.vel_stack, self.vor_stack = full[:, :2], full[:, 2]
        self.velocity, self.vorticity = list(self.vel_stack), list(self.vor_stack)
        self.mode_ksq = plan.ksq


def sigma_values(halves: np.ndarray, spec: CovarianceSpec) -> np.ndarray:
    """sigma(v) of stacked velocity halves (..., 2, N, N/2+1), shape (...):
    1 for constant_one, 0 for zero, and for rational_square s^2 / (1 + s^2)
    with s = <v, h> one `half_sums` against the pivot h, which has the bits
    of `l2_inner` of each field; NaN where s^2 overflows, as on floats."""
    if spec.sigma_kind != "rational_square":
        return np.full(halves.shape[:-3], float(spec.sigma_kind == "constant_one"))
    grid = spec.pivot.grid
    s = (half_sums(halves, spec.pivot.half, sobolev_weight(grid, 0.0))
         * grid.domain_length**2).sum(axis=-1)
    with np.errstate(over="ignore", invalid="ignore"):
        return s * s / (1.0 + s * s)


def apply_G(sigma: np.ndarray, gaussians: np.ndarray, dt: float, spec: CovarianceSpec,
            grid: SpectralGrid) -> np.ndarray:
    """R_n [ sum_k c_k sigma g_k sqrt(dt) e_k ] and its curl for each row of a
    batch, sigma (P,) its `sigma_values` and gaussians (P, modes) its draws,
    at the coefficients `scatter_plan(spec, grid).touched` only; every other
    coefficient of both is zero.  Linear in the increment.

    Returns (P, 3, len(touched)): per row the x and y velocity components
    and the vorticity.  Each mode's weight c_k sigma g_k sqrt(dt) times its
    amplitudes is added, in mode order, into the slots its plan entries
    name, by one `np.add.at`, which sums each row's slots in that order, so
    a row has the bits of a batch of one; at a finite level n the slots are
    then multiplied by n/(n+|k|^2)."""
    if gaussians.shape[-1] != spec.n_modes:
        raise ValueError(f"increment has {gaussians.shape[-1]} draws for {spec.n_modes} modes")
    plan = scatter_plan(spec, grid)
    weights = np.asarray(spec.coefficients) * (sigma[:, None] * np.sqrt(dt)) * gaussians
    out = np.zeros((len(sigma), 3, len(plan.touched)), dtype=np.complex128)
    np.add.at(out, (slice(None), slice(None), plan.slot),
              weights[:, None, plan.mode] * np.vstack((plan.velocity, plan.vorticity)))
    if spec.hy_level != math.inf:  # R_n is the identity there
        out *= hy_factor(spec.hy_level, plan.touched_ksq)
    return out


def mode_weights(spec: CovarianceSpec, v: VectorField) -> np.ndarray:
    """c_k sigma(v) n/(n+|k|^2) per mode: G_n(v) h_k = R_n[c_k sigma(v) e_k]
    is this weight times e_k, since e_k has the single frequency |k|."""
    hy = hy_factor(spec.hy_level, scatter_plan(spec, v.grid).ksq)
    return np.asarray(spec.coefficients) * float(sigma_values(v.half, spec)) * hy


def operator_norms(v: VectorField, spec: CovarianceSpec, s: float, q: float,
                   grid: SpectralGrid | None = None) -> dict[str, float]:
    """Hilbert-Schmidt and gamma-radonifying norms of the noise operator.

    hs          = (sum_k ||G(v)h_k||^2_{W^{s,2}})^(1/2), in closed form:
                  J^s G(v)h_k = w_k (1+|k|^2)^(s/2) e_k with w_k the
                  `mode_weights`, and ||e_k||^2_{L^2} is `_basis_l2_sq`.
    radonifying = || (sum_k |J^s G(v)h_k|^2)^(1/2) ||_{L^q}, the square
                  function evaluated pointwise in physical space on `grid`
                  (v's own by default) and normed by `spectral.lq_norms`.
                  The square function has band 2K, K the largest
                  max(|j1|, |j2|) of the modes, so for even q its q/2-th
                  power has band qK, and the sum is exact on any M-point
                  grid with qK < M, such as `quadrature_grid`.
    The weights are read on v's grid.  The two norms agree for q = 2.
    """
    if q == np.inf:
        raise ValueError("radonifying norm is not defined for q = inf")
    grid = v.grid if grid is None else grid
    amps_sq = (mode_weights(spec, v) ** 2) * (1.0 + scatter_plan(spec, v.grid).ksq) ** s
    hs = math.sqrt(float(np.sum(amps_sq * _basis_l2_sq(spec, v.grid))))
    values = basis_values(spec, grid)
    square_fn = np.einsum("m,mcij->ij", amps_sq, values * values)
    radonifying = float(lq_norms(np.sqrt(square_fn)[None], q, grid))
    return {"hs": hs, "radonifying": radonifying}


def _basis_l2_sq(spec: CovarianceSpec, grid: SpectralGrid) -> np.ndarray:
    """||e_k||^2_{L^2} per mode: unit W^{1-g,2} norm gives (1+|k|^2)^-(1-g),
    which is 1 for the constant mode."""
    return (1.0 + scatter_plan(spec, grid).ksq) ** -(1.0 - spec.roughness)


def basis_l2_sq_sum(spec: CovarianceSpec, grid: SpectralGrid) -> float:
    """S = sum_k (c_k n/(n+|k|^2))^2 ||e_k||^2_{L^2} at spec's Hille-Yosida
    level n: the R_n-weighted Hilbert-Schmidt constant, with
    ||G_n(v1) - G_n(v2)||^2_{HS(H;L^2)} = (sigma(v1) - sigma(v2))^2 S, since
    `mode_weights` is c_k sigma(v) n/(n+|k|^2) and the e_k are orthogonal."""
    hy = hy_factor(spec.hy_level, scatter_plan(spec, grid).ksq)
    weights = np.asarray(spec.coefficients) * hy
    return float(np.sum(weights**2 * _basis_l2_sq(spec, grid)))
