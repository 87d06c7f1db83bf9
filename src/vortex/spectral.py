"""Periodic spectral grid, field containers, transforms and norms.

Fields are complex mode amplitudes on an N x N wavevector lattice over
the torus [0, L)^2: the physical field is sum_k coeff(k) exp(i k.x), so a
constant field c has coeff(0) = c.  Fields are immutable values; every
operation here is a pure function, safe to evaluate concurrently.

Every field is real, so its lattice is Hermitian, coeff(-k) =
conj(coeff(k)), and half of it is redundant.  A field stores only its
rfft2 half spectrum `half`, the columns j2 = 0..N/2 (Frigo & Johnson, The
Design and Implementation of FFTW3, Proc. IEEE 93, 2005): (N, N/2+1) for
a `ScalarField`, and for a `VectorField` its two components' halves on a
leading axis, (2, N, N/2+1).  Every function here acts on the last two
axes, so it takes a vector's components in one numpy call, with the bits
of one component at a time.  Columns 1..N/2-1 stand for themselves and
their mirror, so norms and inner products weight them twice; columns 0
and N/2 are their own mirror, and within them row i mirrors row N-i.
Every grid symbol is shaped to the half: the wavevector `k` and the
gradient's symbol `diff_k`, each (2, N, N/2+1), and `ksq`, `inv_ksq`,
`dealias_mask` and `heat_decay`.

Only this module knows how a stack of halves (..., C, N, N/2+1), C
components per field, becomes physical values and norms: one batched
irfft2 (`physical_values`), the W^{s,2} norms as the hypot over the
component axis (`sobolev_norms`) and the L^q norms of the values
(`lq_norms`).  `to_physical`, `sobolev_norm_spectral`, `l2_norm` and
`lq_norm` are their one-field cases, with the same bits.

`to_spectral` is an rfft2 with the two self-conjugate columns mirrored
within themselves, so a transformed spectrum is Hermitian by
construction.  Only those two columns can break realness; the entry
points that take caller-made fields (`operators.biot_savart`,
`integrator.trajectories`) check them with `require_real`.  A full (N, N)
lattice enters only through `ScalarField.from_lattice`, which checks it,
and leaves only through the derived, read-only `coeffs`, which nothing
here reads.

`lq_norms` is the one code that turns sums of |x|^q into L^q norms: the
step's norms, `lq_norm`, and the check-time norms (the Gagliardo-Nirenberg
trials, the BDG sups, the gamma-radonifying norm of the noise) all go
through it.  Its sums follow one power rule, `abs_power`: for q a power of
two >= 2 it squares repeatedly, with no abs and no pow, and for any other
q it takes np.abs(x) ** q.  `half_sums`
evaluates the weighted spectral sums of stacked halves, with the bits of
the sums taken one at a time.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

SNAPSHOT_MAGIC = b"VSPD"
SNAPSHOT_VERSION = 1
TWO_THIRDS = 2.0 / 3.0
REALNESS_RTOL = 1e-10


@dataclass(frozen=True)
class SpectralGrid:
    """Torus [0, L)^2 sampled on an N x N grid, N even and >= 8.

    Wavevectors are k = (2*pi/L) * (j1, j2) with j in {-N/2+1, ..., N/2};
    the Nyquist line is labelled +N/2.  The dealias mask zeroes every mode
    with max(|j1|, |j2|) > dealias_fraction * N/2 or 3 max(|j1|, |j2|) >= N
    (the 2/3 rule).  Quadratic products are alias-free exactly when the
    kept |j| stay below N/3; on grids divisible by 6 the fraction 2/3 alone
    would keep |j| = N/3, whose products alias into the band.  A larger
    fraction lets the quadratic products alias, and at 1 the mask keeps
    the Nyquist line, so dealias_fraction must lie in (0, 2/3].
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
        # the largest norm weight is 2|k|^2 at the corner mode (N/2, N/2),
        # 4 (2 pi/L)^2 (N/2)^2; an infinite one makes the norms NaN
        top = 2.0 * math.pi * n / self.domain_length
        if not math.isfinite(top * top):
            raise ValueError("domain_length must leave (2*pi*modes_per_dim/domain_length)^2 "
                             f"finite, got {self.domain_length}")
        if not 0.0 < self.dealias_fraction <= TWO_THIRDS:
            raise ValueError("dealias_fraction must lie in (0, 2/3] to keep quadratic "
                             f"products alias-free, got {self.dealias_fraction}")

    @cached_property
    def mode_numbers(self) -> np.ndarray:
        """Integer mode indices j in FFT storage order, Nyquist labelled +N/2."""
        n = self.modes_per_dim
        j = np.rint(np.fft.fftfreq(n, 1.0 / n)).astype(np.int64)
        j[n // 2] = n // 2
        return j

    @cached_property
    def k(self) -> np.ndarray:
        """(2, N, N/2+1): the wavevector (2*pi/L) (j1, j2) of each half-spectrum mode."""
        j = self.mode_numbers.astype(float)
        return (2.0 * np.pi / self.domain_length) * np.stack(
            np.meshgrid(j, j[: self.modes_per_dim // 2 + 1], indexing="ij"))

    @cached_property
    def ksq(self) -> np.ndarray:
        return self.k[0] ** 2 + self.k[1] ** 2

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
    def diff_k(self) -> np.ndarray:
        """k with its Nyquist lines zeroed (row N/2 of k1, column N/2 of k2):
        the gradient's symbol / i.

        A first derivative of a real field is ill-defined on the Nyquist line,
        so spectral differentiation annihilates it (it is removed by the
        dealias mask in every nonlinear pipeline anyway).
        """
        h = self.modes_per_dim // 2
        out = self.k.copy()
        out[0, h, :] = 0.0
        out[1, :, h] = 0.0
        return out

    @cached_property
    def dealias_mask(self) -> np.ndarray:
        n = self.modes_per_dim
        j = np.abs(self.mode_numbers)
        top = np.maximum(j[:, None], j[None, : n // 2 + 1])
        return (top <= self.dealias_fraction * n / 2.0) & (3 * top < n)

    @cached_property
    def dealias_limit(self) -> int:
        """The largest |j| the dealias mask keeps; below N/2."""
        return int(np.max(np.abs(self.mode_numbers)[self.dealias_mask[:, 0]]))

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
class Field:
    """A real field stored as its rfft2 half spectrum: `half` is
    COMPONENTS + (N, N/2+1), read-only.  Every operation acts on the last
    two axes, so it treats each component alike."""

    grid: SpectralGrid
    half: np.ndarray

    COMPONENTS = ()

    def __post_init__(self):
        n = self.grid.modes_per_dim
        shape = self.COMPONENTS + (n, n // 2 + 1)
        if self.half.shape != shape:
            raise ValueError(f"half-spectrum shape {self.half.shape} does not match "
                             f"grid {n}x{n}: expected {shape}")
        if self.half.dtype != np.complex128 or not self.half.flags.c_contiguous:
            object.__setattr__(self, "half", np.ascontiguousarray(self.half, np.complex128))
        self.half.setflags(write=False)

    @cached_property
    def coeffs(self) -> np.ndarray:
        """The full (..., N, N) lattice, mirrored from the half on first read.
        Read-only; for readers that want the whole lattice."""
        full = lattice(self.half)
        full.setflags(write=False)
        return full

    def _require_like(self, other: "Field") -> None:
        if other.grid != self.grid:
            raise ValueError("fields live on different grids")
        if other.half.shape != self.half.shape:
            raise ValueError("cannot combine a scalar field with a vector field")

    def __add__(self, other):
        self._require_like(other)
        return type(self)(self.grid, self.half + other.half)

    def __sub__(self, other):
        self._require_like(other)
        return type(self)(self.grid, self.half - other.half)

    def __mul__(self, a: float):
        return type(self)(self.grid, self.half * a)

    __rmul__ = __mul__

    def __neg__(self):
        return type(self)(self.grid, -self.half)


class ScalarField(Field):
    """A real scalar field: `half` is (N, N/2+1)."""

    @classmethod
    def from_lattice(cls, grid: SpectralGrid, coeffs: np.ndarray,
                     name: str = "field") -> "ScalarField":
        """The field of a full (N, N) lattice, which must be finite and
        Hermitian to REALNESS_RTOL relative; a ValueError names `name`."""
        n = grid.modes_per_dim
        coeffs = np.asarray(coeffs, dtype=np.complex128)
        if coeffs.shape != (n, n):
            raise ValueError(f"{name}: lattice shape {coeffs.shape} does not match grid {n}x{n}")
        scale = np.max(np.abs(coeffs))
        if not np.isfinite(scale):
            raise ValueError(f"{name} must be finite")
        flip = -np.arange(n) % n
        defect = np.max(np.abs(coeffs[np.ix_(flip, flip)] - np.conj(coeffs)))
        _require_hermitian(defect, scale, name)
        return cls(grid, coeffs[:, : n // 2 + 1].copy())


class VectorField(Field):
    """A real planar vector field: `half` is (2, N, N/2+1), the x then the
    y component."""

    COMPONENTS = (2,)

    @classmethod
    def stack(cls, vx: ScalarField, vy: ScalarField) -> "VectorField":
        """The vector field with components vx and vy."""
        vx._require_like(vy)
        return cls(vx.grid, np.stack((vx.half, vy.half)))

    @cached_property
    def vx(self) -> ScalarField:
        """Component 0, a read-only view."""
        return ScalarField(self.grid, self.half[0])

    @cached_property
    def vy(self) -> ScalarField:
        """Component 1, a read-only view."""
        return ScalarField(self.grid, self.half[1])


def lattice(half: np.ndarray) -> np.ndarray:
    """The full (..., N, N) lattices of (..., N, N/2+1) halves:
    coeff(i, j) = conj(coeff(-i, -j)) for the columns j > N/2."""
    n = half.shape[-2]
    h = n // 2
    full = np.empty(half.shape[:-1] + (n,), dtype=np.complex128)
    full[..., : h + 1] = half
    np.conjugate(half[..., -np.arange(n) % n, h - 1: 0: -1], out=full[..., h + 1:])
    return full


def zero_scalar(grid: SpectralGrid) -> ScalarField:
    n = grid.modes_per_dim
    return ScalarField(grid, np.zeros((n, n // 2 + 1), dtype=np.complex128))


def zero_vector(grid: SpectralGrid) -> VectorField:
    return VectorField.stack(zero_scalar(grid), zero_scalar(grid))


def to_physical(field: Field) -> np.ndarray:
    """The real field on the grid points, (N, N) for a scalar and (2, N, N)
    for a vector: the one-field case of `physical_values`.  Within columns 0
    and N/2 the transform reads the Hermitian part, so callers that take
    fields from outside check them once with `require_real`."""
    return physical_values(field.half)


def physical_values(halves: np.ndarray) -> np.ndarray:
    """The real (..., N, N) grid values of stacked (..., N, N/2+1) halves:
    one batched irfft2, scaled in place by N^2."""
    n = halves.shape[-2]
    values = np.fft.irfft2(halves, s=(n, n))
    values *= n * n  # in place: same bits as the out-of-place product
    return values


def to_spectral(values: np.ndarray, grid: SpectralGrid) -> ScalarField:
    """Inverse of to_physical: mode amplitudes of real grid values."""
    n = grid.modes_per_dim
    values = np.asarray(values)
    if values.shape != (n, n):
        raise ValueError(f"value array shape {values.shape} does not match grid {n}x{n}")
    return ScalarField(grid, hermitian_amplitudes(values, n // 2))


def hermitian_amplitudes(values: np.ndarray, width: int) -> np.ndarray:
    """(..., N, N/2+1) half-spectrum amplitudes of real (..., N, N) values
    with max(|j1|, |j2|) <= width, zero outside: one rfft2 scaled by 1/N^2.
    Within column 0 and, at width N/2, the Nyquist column, row N - i is
    written as the conjugate of row i, and the four self-conjugate
    amplitudes are made real, so each half is exactly Hermitian."""
    n = values.shape[-1]
    h = n // 2
    out = np.fft.rfft2(values)
    out[..., width + 1: n - width, :] = 0.0
    out[..., width + 1:] = 0.0
    out /= n * n  # in place: same bits as the out-of-place quotient
    # coeff(-k) = conj(coeff(k)) within the self-conjugate columns
    for j in (0, h) if width == h else (0,):
        np.conjugate(out[..., h - 1: 0: -1, j], out=out[..., h + 1:, j])
    out.imag[..., ::h, ::h] = 0.0
    return out


def _require_hermitian(defect: float, scale: float, name: str) -> None:
    if scale > 0 and defect > REALNESS_RTOL * scale:
        raise ValueError(f"{name} is not real: its coefficients are not "
                         f"Hermitian-symmetric (defect {defect / scale:.3e})")


def require_real(field: Field, name: str) -> None:
    """Raise ValueError naming `name` unless the field is finite and real:
    within the self-conjugate columns 0 and N/2 of each component's half,
    row N - i the conjugate of row i to REALNESS_RTOL relative to the
    component's largest amplitude.  The other columns cannot break realness."""
    n = field.grid.modes_per_dim
    for c in field.half.reshape(-1, n, n // 2 + 1):
        scale = np.max(np.abs(c))
        if not np.isfinite(scale):  # only a non-finite coefficient gives one
            raise ValueError(f"{name} must be finite")
        column = c[:, :: n // 2]
        defect = np.max(np.abs(column[-np.arange(len(c)) % len(c)] - np.conj(column)))
        _require_hermitian(defect, scale, name)


def dealias(field: Field) -> Field:
    """Zero every mode outside the grid's dealias mask (a projection)."""
    return type(field)(field.grid, field.half * field.grid.dealias_mask)


def bessel_multiplier(field: Field, s: float) -> Field:
    """Apply (I - Laplacian)^(s/2): per-mode multiplication by (1+|k|^2)^(s/2)."""
    mult = (1.0 + field.grid.ksq) ** (s / 2.0)
    return type(field)(field.grid, field.half * mult)


def lq_norm(field: Field, q: float) -> float:
    """L^q norm by physical-space quadrature with cell weight (L/N)^2.

    Vector fields use the component-sum convention
    (sum_i int |v_i|^q)^(1/q); for q = inf, the sum of component maxima.
    The rectangle rule on the periodic grid is exact for band-limited
    integrands of matching bandwidth.  The one-field case of `lq_norms`.
    """
    values = to_physical(field)
    return float(lq_norms(values.reshape((-1,) + values.shape[-2:]), q, field.grid))


def lq_norms(values: np.ndarray, q: float, grid: SpectralGrid) -> np.ndarray:
    """The L^q norms of stacked fields given their physical values
    (..., C, N, N), C components each, with lq_norm's conventions: shape
    (...).  The sums run over the whole stack, but each root is taken on
    its own scalar, since numpy's vectorised power can differ from the
    scalar one in the last bit; so each norm has the bits of its field's."""
    if not (q == np.inf or q >= 1.0):
        raise ValueError(f"L^q norm requires q >= 1 or q = inf, got {q}")
    if q == np.inf:
        return np.abs(values).max(axis=(-2, -1)).sum(axis=-1)
    sums = abs_power(values, q).sum(axis=(-2, -1)).sum(axis=-1)
    roots = [(total * grid.cell_area) ** (1.0 / q) for total in sums.flat]
    return np.array(roots, dtype=float).reshape(sums.shape)


def abs_power(values: np.ndarray, q: float) -> np.ndarray:
    """|x|^q elementwise, the power rule of the L^q sums: for q = 2^k,
    k >= 1, k repeated squarings, with no abs and no pow; for any other q,
    np.abs(x) ** q.  values is left as it is.

    Squaring rounds k times where pow rounds once, so for q = 4 and 8 a
    value can differ from pow's in its last bits, by at most about 1e-15
    relative; for q = 2 both are the same single rounded square."""
    mantissa, exponent = math.frexp(q)  # q = 2^(exponent - 1) when mantissa is 1/2
    if mantissa == 0.5 and exponent >= 2:
        out = np.square(values)
        for _ in range(exponent - 2):
            np.square(out, out=out)
        return out
    return np.abs(values) ** q


def sobolev_norm(field: Field, s: float, q: float = 2.0) -> float:
    """W^{s,q} norm: the L^q norm of the Bessel-smoothed field."""
    return lq_norm(bessel_multiplier(field, s), q)


def sobolev_norm_spectral(field: Field, s: float) -> float:
    """W^{s,2} norm via Parseval: (L^2 sum_k (1+|k|^2)^s |c_k|^2)^(1/2).

    Must agree with sobolev_norm(field, s, 2) to ~1e-10 relative; used as
    the fast path inside time stepping.  The one-field case of
    `sobolev_norms`.
    """
    return float(sobolev_norms(field.half.reshape((-1,) + field.half.shape[-2:]), field.grid, s))


def sobolev_norms(halves: np.ndarray, grid: SpectralGrid, s: float = 0.0) -> np.ndarray:
    """The W^{s,2} norms, L^2 by default, of stacked fields whose halves are
    (..., C, N, N/2+1), C components each: the hypot of the C component
    norms, shape (...).  Each norm has the bits of the fields taken one at
    a time."""
    norms = np.sqrt(half_sums(halves, halves, sobolev_weight(grid, s))) * grid.domain_length
    return np.hypot.reduce(norms, axis=-1)


def l2_norm(field: Field) -> float:
    return sobolev_norm_spectral(field, 0.0)


def l2_inner(f: Field, g: Field) -> float:
    """L^2 inner product by spectral sum (exact Parseval on the torus); for
    vectors, the sum of the component inner products."""
    f._require_like(g)
    products = half_sums(f.half, g.half, sobolev_weight(f.grid, 0.0)) * f.grid.domain_length**2
    return float(products.sum())


def half_sums(a: np.ndarray, b: np.ndarray, weight: np.ndarray) -> np.ndarray:
    """sum_k w(k) Re(a(k) conj(b(k))) over the full lattice, from the halves
    a and b (..., N, N/2+1) of real fields: one sum per leading index, a and
    b broadcast against each other.  `weight` is w times each column's
    multiplicity, repeated over the real and imaginary parts
    (`sobolev_weight`, `gradient_weight`).  Each sum runs in the order of
    the unstacked one, so it has the same bits.  einsum, not a BLAS dot: the
    path workers would contend for OpenBLAS's own threads."""
    return np.einsum("...ij,...ij,ij->...", a.view(np.float64), b.view(np.float64), weight)


def _half_weight(grid: SpectralGrid, symbol: np.ndarray) -> np.ndarray:
    # a column stands for itself and its mirror, but for the self-conjugate
    # columns 0 and N/2: the first and last two of the real view
    out = np.repeat(2.0 * symbol, 2, axis=1)
    out[:, [0, 1, -2, -1]] /= 2.0
    out.setflags(write=False)
    return out


@lru_cache(maxsize=64)
def sobolev_weight(grid: SpectralGrid, s: float) -> np.ndarray:
    """The `half_sums` weight of the W^{s,2} norm, (1+|k|^2)^s.  Read-only,
    shared by callers."""
    return _half_weight(grid, (1.0 + grid.ksq) ** s)


@lru_cache(maxsize=16)
def gradient_weight(grid: SpectralGrid) -> np.ndarray:
    """The `half_sums` weight of ||grad f||_{L^2}^2, |k|^2.  Read-only, shared
    by callers."""
    return _half_weight(grid, grid.ksq)


def regrid(field: Field, grid: SpectralGrid) -> Field:
    """Re-represent a field on a finer grid with the same domain length.

    Modes are copied by integer index; the source Nyquist line must be empty
    (it is, for any dealiased field).
    """
    old = field.grid
    if grid.domain_length != old.domain_length:
        raise ValueError("regrid requires identical domain lengths")
    if grid.modes_per_dim < old.modes_per_dim:
        raise ValueError("regrid only refines; target grid is coarser")
    if grid.modes_per_dim == old.modes_per_dim:
        return type(field)(grid, field.half.copy())
    c = field.half
    nyq = old.modes_per_dim // 2  # the Nyquist row, and the half's last column
    if np.max(np.abs(c[..., nyq, :])) > 0 or np.max(np.abs(c[..., nyq])) > 0:
        raise ValueError("cannot regrid a field with Nyquist-line content")
    n = grid.modes_per_dim
    new = np.zeros(c.shape[:-2] + (n, n // 2 + 1), dtype=np.complex128)
    new[..., old.mode_numbers % n, : nyq + 1] = c
    return type(field)(grid, new)


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
