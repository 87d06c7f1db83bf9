"""Periodic spectral grid, field containers, transforms and norms.

Fields are stored as complex mode amplitudes on an N x N wavevector
lattice over the torus [0, L)^2: the physical field is
sum_k coeff(k) exp(i k.x), so a constant field c has coeff(0) = c.
Fields are immutable values; every operation here is a pure function,
safe to evaluate concurrently.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

SNAPSHOT_MAGIC = b"VSPD"
SNAPSHOT_VERSION = 1
TWO_THIRDS = 2.0 / 3.0


@dataclass(frozen=True)
class SpectralGrid:
    """Torus [0, L)^2 sampled on an N x N grid, N even and >= 8.

    Wavevectors are k = (2*pi/L) * (j1, j2) with j in {-N/2+1, ..., N/2};
    the Nyquist line is labelled +N/2.  The dealias mask zeroes every mode
    with max(|j1|, |j2|) > dealias_fraction * N/2 (default 2/3 rule, which
    makes quadratic products alias-free on grids not divisible by 6).
    """

    modes_per_dim: int
    domain_length: float = 2.0 * np.pi
    dealias_fraction: float = TWO_THIRDS

    def __post_init__(self):
        n = self.modes_per_dim
        if n < 8 or n % 2 != 0:
            raise ValueError(f"modes_per_dim must be even and >= 8, got {n}")
        if not self.domain_length > 0:
            raise ValueError(f"domain_length must be positive, got {self.domain_length}")
        if not 0.0 < self.dealias_fraction <= 1.0:
            raise ValueError(f"dealias_fraction must lie in (0, 1], got {self.dealias_fraction}")

    @cached_property
    def mode_numbers(self) -> np.ndarray:
        """Integer mode indices j in FFT storage order, Nyquist labelled +N/2."""
        n = self.modes_per_dim
        j = np.rint(np.fft.fftfreq(n, 1.0 / n)).astype(np.int64)
        j[n // 2] = n // 2
        return j

    @cached_property
    def kx(self) -> np.ndarray:
        return (2.0 * np.pi / self.domain_length) * self.mode_numbers[:, None].astype(float)

    @cached_property
    def ky(self) -> np.ndarray:
        return (2.0 * np.pi / self.domain_length) * self.mode_numbers[None, :].astype(float)

    @cached_property
    def ksq(self) -> np.ndarray:
        return self.kx**2 + self.ky**2

    @cached_property
    def inv_ksq(self) -> np.ndarray:
        """1/|k|^2 with the zero mode set to 0: the inverse Laplacian symbol
        of Biot-Savart and the Leray projection.  Read-only, shared by callers."""
        out = np.zeros_like(self.ksq)
        nonzero = self.ksq > 0
        out[nonzero] = 1.0 / self.ksq[nonzero]
        out.setflags(write=False)
        return out

    @cached_property
    def diff_kx(self) -> np.ndarray:
        """kx with the Nyquist line zeroed; used in odd (derivative) multipliers.

        A first derivative of a real field is ill-defined on the Nyquist line,
        so spectral differentiation annihilates it (it is removed by the
        dealias mask in every nonlinear pipeline anyway).
        """
        k = self.kx.copy()
        k[self.modes_per_dim // 2, :] = 0.0
        return k

    @cached_property
    def diff_ky(self) -> np.ndarray:
        k = self.ky.copy()
        k[:, self.modes_per_dim // 2] = 0.0
        return k

    @cached_property
    def dealias_mask(self) -> np.ndarray:
        j = np.abs(self.mode_numbers)
        cutoff = self.dealias_fraction * self.modes_per_dim / 2.0
        return (np.maximum(j[:, None], j[None, :]) <= cutoff)

    @property
    def cell_area(self) -> float:
        return (self.domain_length / self.modes_per_dim) ** 2

    @cached_property
    def x(self) -> np.ndarray:
        n = self.modes_per_dim
        return np.arange(n) * (self.domain_length / n)

    def meshgrid(self):
        """Physical coordinates (xx, yy), 'ij' indexing matching coeff axes."""
        return np.meshgrid(self.x, self.x, indexing="ij")


@dataclass(frozen=True, eq=False)
class ScalarField:
    """A real scalar field stored as complex mode amplitudes on its grid."""

    grid: SpectralGrid
    coeffs: np.ndarray

    def __post_init__(self):
        n = self.grid.modes_per_dim
        if self.coeffs.shape != (n, n):
            raise ValueError(
                f"coefficient array shape {self.coeffs.shape} does not match grid {n}x{n}"
            )
        if self.coeffs.dtype != np.complex128:
            object.__setattr__(self, "coeffs", self.coeffs.astype(np.complex128))
        self.coeffs.setflags(write=False)

    def __add__(self, other: "ScalarField") -> "ScalarField":
        _require_same_grid(self, other)
        return ScalarField(self.grid, self.coeffs + other.coeffs)

    def __sub__(self, other: "ScalarField") -> "ScalarField":
        _require_same_grid(self, other)
        return ScalarField(self.grid, self.coeffs - other.coeffs)

    def __mul__(self, a: float) -> "ScalarField":
        return ScalarField(self.grid, self.coeffs * a)

    __rmul__ = __mul__

    def __neg__(self) -> "ScalarField":
        return ScalarField(self.grid, -self.coeffs)

    @property
    def mean_value(self) -> complex:
        return complex(self.coeffs[0, 0])


@dataclass(frozen=True, eq=False)
class VectorField:
    """A planar vector field with components (vx, vy)."""

    vx: ScalarField
    vy: ScalarField

    def __post_init__(self):
        if self.vx.grid != self.vy.grid:
            raise ValueError("vector components live on different grids")

    @property
    def grid(self) -> SpectralGrid:
        return self.vx.grid

    def __add__(self, other: "VectorField") -> "VectorField":
        return VectorField(self.vx + other.vx, self.vy + other.vy)

    def __sub__(self, other: "VectorField") -> "VectorField":
        return VectorField(self.vx - other.vx, self.vy - other.vy)

    def __mul__(self, a: float) -> "VectorField":
        return VectorField(self.vx * a, self.vy * a)

    __rmul__ = __mul__

    def __neg__(self) -> "VectorField":
        return VectorField(-self.vx, -self.vy)


Field = ScalarField | VectorField


def _require_same_grid(a, b):
    ga = a.grid if hasattr(a, "grid") else a
    gb = b.grid if hasattr(b, "grid") else b
    if ga != gb:
        raise ValueError("fields live on different grids")


def zero_scalar(grid: SpectralGrid) -> ScalarField:
    n = grid.modes_per_dim
    return ScalarField(grid, np.zeros((n, n), dtype=np.complex128))


def zero_vector(grid: SpectralGrid) -> VectorField:
    return VectorField(zero_scalar(grid), zero_scalar(grid))


def to_physical(field: Field, imag_tol: float = 1e-10):
    """Evaluate the field on the grid points; raises if it is not real.

    A Hermitian-symmetric coefficient array yields a real field; an imaginary
    residual above imag_tol (relative to the field scale) means the
    precondition is violated.
    """
    if isinstance(field, VectorField):
        return to_physical(field.vx, imag_tol), to_physical(field.vy, imag_tol)
    n = field.grid.modes_per_dim
    phys = np.fft.ifft2(field.coeffs)
    phys *= n * n  # in place: one complex array fewer, same bits
    real = np.ascontiguousarray(phys.real)
    scale = max(np.max(real), -np.min(real))
    imag_max = max(np.max(phys.imag), -np.min(phys.imag))
    if imag_max > imag_tol * max(scale, imag_max):
        raise ValueError("field is not Hermitian-symmetric (non-real physical values)")
    return real


def to_spectral(values: np.ndarray, grid: SpectralGrid) -> ScalarField:
    """Inverse of to_physical: mode amplitudes of real grid values."""
    n = grid.modes_per_dim
    values = np.asarray(values)
    if values.shape != (n, n):
        raise ValueError(f"value array shape {values.shape} does not match grid {n}x{n}")
    coeffs = np.fft.fft2(values)
    coeffs /= n * n
    return ScalarField(grid, coeffs)


def hermitian_defect(field: ScalarField) -> float:
    """max |coeff(-k) - conj(coeff(k))| relative to the largest amplitude."""
    c = field.coeffs
    flipped = np.roll(c[::-1, ::-1], 1, axis=(0, 1))
    scale = np.max(np.abs(c))
    if scale == 0.0:
        return 0.0
    return float(np.max(np.abs(flipped - np.conj(c))) / scale)


def dealias(field: Field) -> Field:
    """Zero every mode outside the grid's dealias mask (a projection)."""
    if isinstance(field, VectorField):
        return VectorField(dealias(field.vx), dealias(field.vy))
    return ScalarField(field.grid, field.coeffs * field.grid.dealias_mask)


def bessel_multiplier(field: Field, s: float) -> Field:
    """Apply (I - Laplacian)^(s/2): per-mode multiplication by (1+|k|^2)^(s/2)."""
    if isinstance(field, VectorField):
        return VectorField(bessel_multiplier(field.vx, s), bessel_multiplier(field.vy, s))
    mult = (1.0 + field.grid.ksq) ** (s / 2.0)
    return ScalarField(field.grid, field.coeffs * mult)


def _validate_q(q: float):
    if not (q == np.inf or q >= 1.0):
        raise ValueError(f"L^q norm requires q >= 1 or q = inf, got {q}")


def lq_norm(field: Field, q: float) -> float:
    """L^q norm by physical-space quadrature with cell weight (L/N)^2.

    Vector fields use the component-sum convention
    (sum_i int |v_i|^q)^(1/q); for q = inf, the sum of component maxima.
    The rectangle rule on the periodic grid is exact for band-limited
    integrands of matching bandwidth.
    """
    _validate_q(q)
    if isinstance(field, VectorField):
        px, py = to_physical(field)
        if q == np.inf:
            return float(np.max(np.abs(px)) + np.max(np.abs(py)))
        cell = field.grid.cell_area
        total = np.sum(np.abs(px) ** q) + np.sum(np.abs(py) ** q)
        return float((total * cell) ** (1.0 / q))
    return lq_norm_values(to_physical(field), q, field.grid)


def lq_norm_values(values: np.ndarray, q: float, grid: SpectralGrid) -> float:
    """lq_norm of a scalar field given its physical values on grid, so a
    caller that already holds them pays no second transform."""
    _validate_q(q)
    if q == np.inf:
        return float(np.max(np.abs(values)))
    return float((np.sum(np.abs(values) ** q) * grid.cell_area) ** (1.0 / q))


def sobolev_norm(field: Field, s: float, q: float = 2.0) -> float:
    """W^{s,q} norm: the L^q norm of the Bessel-smoothed field."""
    return lq_norm(bessel_multiplier(field, s), q)


def sobolev_norm_spectral(field: Field, s: float) -> float:
    """W^{s,2} norm via Parseval: (L^2 sum_k (1+|k|^2)^s |c_k|^2)^(1/2).

    Must agree with sobolev_norm(field, s, 2) to ~1e-10 relative; used as
    the fast path inside time stepping.
    """
    if isinstance(field, VectorField):
        return float(np.hypot(sobolev_norm_spectral(field.vx, s),
                              sobolev_norm_spectral(field.vy, s)))
    g = field.grid
    total = np.abs(field.coeffs) ** 2
    if s != 0.0:  # the weight (1+|k|^2)^0 is exactly 1
        total = (1.0 + g.ksq) ** s * total
    return float(np.sqrt(np.sum(total)) * g.domain_length)


def l2_norm(field: Field) -> float:
    return sobolev_norm_spectral(field, 0.0)


def l2_inner(f: Field, g: Field) -> float:
    """L^2 inner product by spectral sum (exact Parseval on the torus)."""
    if isinstance(f, VectorField) != isinstance(g, VectorField):
        raise ValueError("cannot pair a scalar field with a vector field")
    if isinstance(f, VectorField):
        return l2_inner(f.vx, g.vx) + l2_inner(f.vy, g.vy)
    _require_same_grid(f, g)
    total = np.sum(f.coeffs * np.conj(g.coeffs)).real
    return float(total * f.grid.domain_length**2)


def regrid(field: Field, grid: SpectralGrid) -> Field:
    """Re-represent a field on a finer grid with the same domain length.

    Modes are copied by integer index; the source Nyquist line must be empty
    (it is, for any dealiased field).
    """
    if isinstance(field, VectorField):
        return VectorField(regrid(field.vx, grid), regrid(field.vy, grid))
    old = field.grid
    if grid.domain_length != old.domain_length:
        raise ValueError("regrid requires identical domain lengths")
    if grid.modes_per_dim < old.modes_per_dim:
        raise ValueError("regrid only refines; target grid is coarser")
    if grid.modes_per_dim == old.modes_per_dim:
        return ScalarField(grid, field.coeffs.copy())
    n_old = old.modes_per_dim
    nyq = n_old // 2
    if np.max(np.abs(field.coeffs[nyq, :])) > 0 or np.max(np.abs(field.coeffs[:, nyq])) > 0:
        raise ValueError("cannot regrid a field with Nyquist-line content")
    new = np.zeros((grid.modes_per_dim, grid.modes_per_dim), dtype=np.complex128)
    idx = old.mode_numbers % grid.modes_per_dim
    new[np.ix_(idx, idx)] = field.coeffs
    return ScalarField(grid, new)


@lru_cache(maxsize=64)
def heat_decay(grid: SpectralGrid, dt: float) -> np.ndarray:
    """exp(-|k|^2 dt), the exact heat semigroup multiplier for one step."""
    out = np.exp(-grid.ksq * dt)
    out.setflags(write=False)
    return out


def write_snapshot(field: ScalarField, path) -> None:
    """Binary snapshot: 16-byte header (magic 'VSPD', version u16, N u16,
    L float64, little-endian) followed by N*N float64 physical values,
    row-major."""
    g = field.grid
    header = struct.pack("<4sHHd", SNAPSHOT_MAGIC, SNAPSHOT_VERSION,
                         g.modes_per_dim, g.domain_length)
    values = to_physical(field).astype("<f8")
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(values.tobytes(order="C"))


def read_snapshot(path, dealias_fraction: float = TWO_THIRDS) -> ScalarField:
    """Read a snapshot written by write_snapshot.

    The header does not carry the dealias fraction; supply it if the grid
    should differ from the 2/3 default.
    """
    with open(path, "rb") as fh:
        header = fh.read(16)
        if len(header) != 16:
            raise ValueError(f"truncated snapshot header in {path}")
        magic, version, n, length = struct.unpack("<4sHHd", header)
        if magic != SNAPSHOT_MAGIC:
            raise ValueError(f"bad snapshot magic {magic!r} in {path}")
        if version != SNAPSHOT_VERSION:
            raise ValueError(f"unsupported snapshot version {version} in {path}")
        raw = fh.read(n * n * 8)
    if len(raw) != n * n * 8:
        raise ValueError(f"truncated snapshot payload in {path}")
    grid = SpectralGrid(n, length, dealias_fraction)
    values = np.frombuffer(raw, dtype="<f8").reshape(n, n)
    return to_spectral(values.astype(float), grid)
