"""Spectral substrate on the periodic box [0, 2*pi)^3.

Fields are stored as truncated Fourier series u(x) = sum_k uhat(k) e^{i k.x}
with integer wavenumbers.  The inner product is volume-normalized,
<f, g> = (2*pi)^-3 int f.g dx, so Parseval reads ||u||_L2^2 = sum_k |uhat(k)|^2
with no lattice factors.  Storage order per axis is 0, 1, ..., n/2,
-n/2+1, ..., -1 (the index n/2 is labelled +n/2).

Fields are real: a field and the grid's wavenumber arrays store only the half
spectrum k3 >= 0 ([..., :n//2+1]), the rest being its mirror coeff(-k) =
conj(coeff(k)).  `SpectralField.from_full` and `.full` convert full spectra;
norms, inner products and energies are weighted half sums (`_lattice_sum`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cache, cached_property
from typing import NamedTuple

import numpy as np

from .errors import GridMismatch, NonFiniteField, NotSolenoidal, SymmetryViolation

TWO_PI = 2.0 * np.pi

HERMITIAN_TOL = 1e-9
SOLENOIDAL_TOL = 1e-9

# retained-mode fraction per axis for quadratic products (the 2/3 rule)
DEALIAS_FRACTION = 2.0 / 3.0
_INEXACT_DEALIASING = "n divisible by 3: 2/3 dealiasing is inexact (one boundary triad aliases)"

# the smallest grid on which the kernel forms its term on the 2/3 box (and a
# band-limited run steps there): below it the pruning's fixed cost per call exceeds
# what it saves (a kernel call and projection, n = 12: 5-8 % slower, n = 14: 4-8 %
# faster). End to end, on verify-n16 (2501 kernel calls at n = 4; 10 alternating pairs
# of 25 s runs each, 2-core host, numpy 2.4.6): pruning every grid read wall_s
# +6.0 % against the whole-spectrum body (9 of 10 pairs lost, the gap 4.7 times
# the whole-spectrum side's quartile distance) and +2.5 % against this
# threshold (8 of 10 lost), while this threshold read -0.7 % (5 of 10 lost).
# Stepping band-limited runs on the box at every grid (verify's n = 4, 8, 10 too)
# read +1.5 % against it (6 of 10 lost) and peak_rss_mib +0.2 % (10 of 10 lost)
PRUNE_MIN_N = 14


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _require_same_grid(*fields) -> None:
    """GridMismatch unless every argument (a field or a trajectory) lives on one grid."""
    if len({f.grid for f in fields}) > 1:
        raise GridMismatch(f"inputs live on different grids (n = {[f.grid.n for f in fields]})")


def _worst(*values: float) -> float:
    """max(values), or NaN when any value is NaN: `max` drops a NaN after its first argument."""
    return math.nan if any(math.isnan(v) for v in values) else max(values)


@dataclass(frozen=True)
class GridSpec:
    """Cubic collocation grid: n modes per axis, edge length 2*pi.

    Resolved wavenumbers per axis are the integers in [-n/2+1, n/2].
    """

    n: int

    def __post_init__(self):
        if self.n < 4 or self.n % 2 != 0:
            raise ValueError("n must be even and >= 4")

    @cached_property
    def axis_wavenumbers(self) -> np.ndarray:
        k = np.arange(self.n, dtype=np.int64)
        k[k > self.n // 2] -= self.n
        return _read_only(k.astype(np.float64))

    @cached_property
    def deriv_axis_wavenumbers(self) -> np.ndarray:
        # odd-extension convention: the shared +-n/2 slot differentiates to zero
        # (its cosine's derivative vanishes on the lattice); keeps every
        # direction-sensitive multiplier Hermitian-consistent
        k = self.axis_wavenumbers.copy()
        k[self.n // 2] = 0.0
        return _read_only(k)

    @staticmethod
    def _axis_grids(k: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        # read-only views of shapes (n,1,1), (1,n,1), (1,1,n/2+1): they cover the
        # stored half k3 >= 0 and broadcast against it without n^3 copies
        return (k[:, None, None], k[None, :, None], k[None, None, : k.size // 2 + 1])

    @cached_property
    def wavenumbers(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return self._axis_grids(self.axis_wavenumbers)

    @cached_property
    def deriv_wavenumbers(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return self._axis_grids(self.deriv_axis_wavenumbers)

    @cached_property
    def k_squared(self) -> np.ndarray:
        k1, k2, k3 = self.wavenumbers
        return _read_only(k1 * k1 + k2 * k2 + k3 * k3)

    @cached_property
    def deriv_k_squared(self) -> np.ndarray:
        k1, k2, k3 = self.deriv_wavenumbers
        return _read_only(k1 * k1 + k2 * k2 + k3 * k3)

    @cached_property
    def k_magnitude(self) -> np.ndarray:
        return _read_only(np.sqrt(self.k_squared))

    @cached_property
    def dealias_mask(self) -> np.ndarray:
        # keep |k_axis| <= DEALIAS_FRACTION * n/2 on every axis
        cut = DEALIAS_FRACTION * self.n / 2.0
        k1, k2, k3 = self.wavenumbers
        mask = (np.abs(k1) <= cut) & (np.abs(k2) <= cut) & (np.abs(k3) <= cut)
        return _read_only(mask.astype(np.float64))

    @cached_property
    def dealias_box(self) -> "DealiasBox":
        """`dealias_mask`'s support |k_axis| <= n//3 as a compact box (3, b, b, n//3 + 1)."""
        m = self.n // 3
        rows = np.r_[0 : m + 1, self.n - m : self.n]
        k1, k2, k3 = self._axis_grids(self.deriv_axis_wavenumbers[rows])
        return DealiasBox(_read_only(rows), m + 1, (k1, k2, k3),
                          _read_only(k1 * k1 + k2 * k2 + k3 * k3))

    @property
    def coordinates(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Read-only x1, x2, x3 samples, each (n, n, n), computed on each access:
        a grid holds no n^3 array for its readers, the initial data and test modes."""
        x = TWO_PI * np.arange(self.n) / self.n
        g = np.meshgrid(x, x, x, indexing="ij")
        return tuple(_read_only(a) for a in g)


class DealiasBox(NamedTuple):
    """The 2/3 box of a grid: the storage indices `rows` of |k| <= n//3 on each
    full axis (b = 2 (n//3) + 1 of them, in storage order), the first `cols` =
    n//3 + 1 of the half axis, and the grid's derivative wavenumbers and |k|^2 there."""

    rows: np.ndarray
    cols: int
    deriv_wavenumbers: tuple[np.ndarray, np.ndarray, np.ndarray]
    deriv_k_squared: np.ndarray

    def gather(self, a: np.ndarray) -> np.ndarray:
        """The compact box (..., b, b, cols) of a half-spectrum array, as a new array."""
        return a[..., self.rows[:, None], self.rows, : self.cols]

    def scatter(self, h: np.ndarray, n: int) -> np.ndarray:
        """The half spectrum (3, n, n, n//2+1) of box coefficients h, +0.0 off the box."""
        out = np.zeros((3, n, n, n // 2 + 1), dtype=np.complex128)
        out[:, self.rows[:, None], self.rows, : self.cols] = h
        return out


@dataclass(frozen=True)
class SpectralField:
    """Truncated Fourier coefficients of a real 3-vector field.

    coeffs is the half spectrum k3 >= 0, shape (3, n, n, n//2+1), complex128,
    read-only; `full` mirrors the rest.  Solenoidality and mean-freeness are
    read from the coefficients (`divergence_defect`, the k = 0 mode).  A NaN
    or infinite time raises NonFiniteField.
    """

    grid: GridSpec
    coeffs: np.ndarray
    time: float = 0.0

    def __post_init__(self):
        n = self.grid.n
        if self.coeffs.shape != (3, n, n, n // 2 + 1):
            raise ValueError(f"coeffs must be the half spectrum (3, {n}, {n}, {n // 2 + 1})")
        if not math.isfinite(self.time):
            raise NonFiniteField(f"a field needs a finite time, not {self.time}")
        if self.coeffs.dtype != np.complex128:
            object.__setattr__(self, "coeffs", self.coeffs.astype(np.complex128))
        self.coeffs.flags.writeable = False

    @classmethod
    def from_full(cls, grid: GridSpec, full: np.ndarray, time: float = 0.0) -> "SpectralField":
        """The field of a full spectrum (3, n, n, n); SymmetryViolation unless
        coeff(-k) == conj(coeff(k)) to HERMITIAN_TOL (NaN fails too)."""
        n = grid.n
        if full.shape != (3, n, n, n):
            raise ValueError(f"a full spectrum has shape (3, {n}, {n}, {n})")
        defect = _hermitian_defect(full)
        if not defect <= HERMITIAN_TOL:
            raise SymmetryViolation(f"Hermitian defect {defect:.3e} exceeds {HERMITIAN_TOL:.1e}")
        return cls(grid, np.ascontiguousarray(full[..., : n // 2 + 1], dtype=np.complex128), time)

    def full(self) -> np.ndarray:
        """The full spectrum (3, n, n, n) as a new array: the stored half and its mirror."""
        return _mirror(self.coeffs, self.grid.n)

    def with_coeffs(self, coeffs: np.ndarray, **changes) -> "SpectralField":
        return replace(self, coeffs=coeffs, **changes)


@dataclass(frozen=True)
class PhysicalField:
    """Collocation-grid samples of a real 3-vector field on x = 2*pi*(i,j,l)/n."""

    grid: GridSpec
    samples: np.ndarray

    def __post_init__(self):
        n = self.grid.n
        if self.samples.shape != (3, n, n, n):
            raise ValueError(f"samples must have shape (3, {n}, {n}, {n})")
        if self.samples.dtype != np.float64:
            object.__setattr__(self, "samples", self.samples.astype(np.float64))


# ----------------------------------------------------------------------
# transforms

def forward_transform(f: PhysicalField) -> SpectralField:
    """Fourier coefficients uhat(k) such that u(x) = sum_k uhat(k) e^{i k.x}."""
    return SpectralField(f.grid, _to_spectral(f.samples))


def hermitian_defect(f: SpectralField) -> float:
    """Relative departure from coeff(-k) == conj(coeff(k)); a half-stored field
    can depart only on the self-conjugate planes k3 = 0 and k3 = n/2."""
    return _hermitian_defect(f.full())


def _hermitian_defect(c: np.ndarray) -> float:
    """`hermitian_defect` of a full spectrum (3, n, n, n); NaN when a coefficient is infinite."""
    mirrored = np.conj(np.roll(c[:, ::-1, ::-1, ::-1], (1, 1, 1), axis=(1, 2, 3)))
    scale = np.max(np.abs(c))
    if scale == 0.0:
        return 0.0
    return float(np.max(np.abs(c - mirrored)) / scale)


def inverse_transform(f: SpectralField) -> PhysicalField:
    """Synthesize the real samples of a field."""
    return PhysicalField(f.grid, _to_physical(f.coeffs, f.grid.n))


# The transform pair is real-to-complex on the stored half spectrum; the 1/n^3
# of the coefficient convention is the forward normalization.  Both run
# numpy's own axis passes (`irfftn`, `rfftn`), with the complex passes written
# into one array instead of a new array per pass; the bits are numpy's.

@cache
def _scratch(shape: tuple[int, ...]) -> np.ndarray:
    """The complex work array of `_to_physical` for one shape; never returned.
    The convective kernel forms each gradient triple in it and transforms it in
    place; the divergence-form kernel transforms each product triple into it."""
    return np.empty(shape, dtype=np.complex128)


def _to_physical(coeffs: np.ndarray, n: int, out: np.ndarray | None = None,
                 box: DealiasBox | None = None) -> np.ndarray:
    """Real samples of a half spectrum, or of coefficients on the 2/3 box `box`
    (3, b, b, cols), written into `out` when given; `coeffs` may be the work
    array itself, whose passes then all run in place.  A box's k1 pass runs on
    its b x cols columns, its k2 pass on cols columns, each column alone: the
    bits of the whole passes over the box scattered into a half spectrum."""
    work = _scratch(coeffs.shape[:-3] + (n, n, n // 2 + 1))
    if box is None:
        np.fft.ifft(coeffs, n, axis=-3, norm="forward", out=work)
        np.fft.ifft(work, n, axis=-2, norm="forward", out=work)
    else:
        cols = box.cols
        m, b = cols - 1, 2 * cols - 1
        work[..., cols:] = 0.0
        half = work[..., :cols]
        half[:, :b, :b] = coeffs
        for v in (half[:, :, :b], half.swapaxes(1, 2)):  # k1 rows, then k2 rows
            v[:, n - m :] = v[:, cols:b]
            v[:, cols : n - m] = 0.0
            np.fft.ifft(v, n, axis=1, norm="forward", out=v)
    return np.fft.irfft(work, n, axis=-1, norm="forward", out=out)


def _to_spectral(samples: np.ndarray) -> np.ndarray:
    """Half spectrum of real samples."""
    n = samples.shape[-1]
    return _complex_passes(np.fft.rfft(samples, n, axis=-1, norm="forward"), n)


def _complex_passes(half: np.ndarray, n: int, box: DealiasBox | None = None) -> np.ndarray:
    """The forward transform's complex passes (k2, then k1) over its real
    pass `half`, in place: on the whole half spectrum when `box` is None, and
    otherwise only on the 2/3 box, returned as a view of `half`
    (3, b, b, cols), b = 2 cols - 1, rows in storage order.  The box's k2
    pass runs on its `cols` columns, its k1 pass on those of its k2 rows
    (packed into rows :b first), and its k1 rows are then packed the same
    way: each column alone, so every kept mode has the whole passes' bits."""
    if box is None:
        np.fft.fft(half, n, axis=-2, norm="forward", out=half)
        np.fft.fft(half, n, axis=-3, norm="forward", out=half)
        return half
    cols = box.cols
    m, b = cols - 1, 2 * cols - 1
    half = half[..., :cols]
    for v in (half.swapaxes(1, 2), half[:, :, :b]):  # k2 rows, then k1 rows
        np.fft.fft(v, n, axis=1, norm="forward", out=v)
        v[:, cols:b] = v[:, n - m :]
    return half[:, :b, :b]


def _mirror(half: np.ndarray, n: int) -> np.ndarray:
    """Full-lattice array (last axis n) of a half-spectrum array (last axis n//2+1):
    the value at -k is the conjugate of the value at k, and zeros mirror as +0.0."""
    h = n // 2 + 1
    out = np.empty(half.shape[:-1] + (n,), dtype=half.dtype)
    out[..., :h] = half
    # out(-k) = conj(out(k)) for k3 < 0.  Per axis, storage index i holds -k at
    # (n - i) % n: index 0 maps to itself and 1..n-1 to the reversed n-1..1.
    dst_axis = (slice(0, 1), slice(1, None))
    src_axis = (slice(0, 1), slice(None, 0, -1))
    for d1, s1 in zip(dst_axis, src_axis):
        for d2, s2 in zip(dst_axis, src_axis):
            np.conjugate(half[..., s1, s2, h - 2:0:-1], out=out[..., d1, d2, h:])
    # the conjugate writes -0.0 where full-spectrum arithmetic leaves +0.0;
    # adding +0.0 clears those signs and changes no other value
    out[..., h:] += 0.0
    return out


def _lattice_sum(half: np.ndarray, n: int) -> float:
    """Lattice sum (and over leading axes) of a real half-spectrum or 2/3-box array: the planes
    k3 = 0, n/2 (not in a box) count once, the others twice; weights > 0 keep the sum monotone."""
    planes = half[..., 0].sum() + half[..., n // 2 :].sum()
    return float(planes + 2.0 * half[..., 1 : n // 2].sum())


def _power_sum(c: np.ndarray, grid: GridSpec, weight: np.ndarray | None = None) -> float:
    """sum_k weight(k) |c(k)|^2 over the lattice and every component of the half spectrum c."""
    power = c.real**2 + c.imag**2
    if weight is not None:
        power *= weight
    return _lattice_sum(power, grid.n)


# ----------------------------------------------------------------------
# norms and inner products

def sobolev_norm(f: SpectralField, s: float) -> float:
    """H^s norm: ( sum_k (1+|k|^2)^s |uhat(k)|^2 )^(1/2)."""
    weight = None if s == 0.0 else (1.0 + f.grid.k_squared) ** s
    return math.sqrt(_power_sum(f.coeffs, f.grid, weight))


def l2_norm(f: SpectralField) -> float:
    return sobolev_norm(f, 0.0)


def inner_product(f: SpectralField, g: SpectralField) -> float:
    """Volume-normalized L2 inner product, evaluated on coefficients."""
    _require_same_grid(f, g)
    return _lattice_sum((f.coeffs * np.conj(g.coeffs)).real, f.grid.n)


def physical_l2_norm(f: PhysicalField) -> float:
    """Volume-normalized lattice L2 norm (independent of the spectral path)."""
    return float(np.sqrt(np.sum(f.samples**2) / f.grid.n**3))


def lattice_lp_norm(f: SpectralField, p: float) -> float:
    """Volume-normalized lattice L^p norm (p = 1, 2 or inf) of the pointwise
    Euclidean magnitude; at p = inf on curl u it is the BKM monitor."""
    phys = _to_physical(f.coeffs, f.grid.n)
    mag = np.sqrt((phys**2).sum(axis=0))
    if p == np.inf:
        return float(mag.max())
    if p == 1:
        return float(mag.mean())
    if p == 2:
        return float(np.sqrt((mag**2).mean()))
    raise ValueError("p must be 1, 2 or inf (lattice quadrature norms)")


# ----------------------------------------------------------------------
# multipliers

def leray_project(f: SpectralField) -> SpectralField:
    """Project each mode k != 0 by (I - k k^T/|k|^2); k = 0 is left unchanged.

    Uses the odd-extension wavenumbers, so modes whose only content sits on
    shared Nyquist slots (already lattice-divergence-free) pass through
    unchanged and realness is preserved.
    """
    return f.with_coeffs(_leray(f.coeffs, f.grid))


def _leray(c: np.ndarray, at: GridSpec | DealiasBox) -> np.ndarray:
    """leray_project, (I - k k^T/|k|^2) c with kk = |k|^2 = 0 left unchanged, on
    coefficients c of the half spectrum of the grid `at` or on the 2/3 box `at`."""
    (k1, k2, k3), kk = at.deriv_wavenumbers, at.deriv_k_squared
    kdotc = np.divide(k1 * c[0] + k2 * c[1] + k3 * c[2], kk,
                      out=np.zeros_like(c[0]), where=kk > 0.0)
    out = np.empty_like(c)
    for i, k in enumerate((k1, k2, k3)):
        np.multiply(k, kdotc, out=out[i])
        np.subtract(c[i], out[i], out=out[i])
    return out


def heat_semigroup(f: SpectralField, nu: float, t: float) -> SpectralField:
    """Multiply by e^{-nu t |k|^2}; contraction on every H^s."""
    if not 0.0 < nu < math.inf:
        raise ValueError("viscosity must be positive and finite")
    if not 0.0 <= t < math.inf:
        raise ValueError("time must be nonnegative and finite")
    mult = np.exp(-nu * t * f.grid.k_squared)
    return f.with_coeffs(f.coeffs * mult)


def divergence(f: SpectralField) -> SpectralField:
    """div u as a scalar field stored in component 1 (index 0)."""
    k1, k2, k3 = f.grid.deriv_wavenumbers
    c = f.coeffs
    d = 1j * (k1 * c[0] + k2 * c[1] + k3 * c[2])
    out = np.zeros_like(c)
    out[0] = d
    return f.with_coeffs(out)


def gradient(f: SpectralField) -> SpectralField:
    """Gradient of the scalar stored in component 1 (index 0)."""
    k1, k2, k3 = f.grid.deriv_wavenumbers
    s = f.coeffs[0]
    out = np.stack((1j * k1 * s, 1j * k2 * s, 1j * k3 * s))
    return f.with_coeffs(out)


def curl(f: SpectralField) -> SpectralField:
    k1, k2, k3 = f.grid.deriv_wavenumbers
    c = f.coeffs
    out = np.stack((
        1j * (k2 * c[2] - k3 * c[1]),
        1j * (k3 * c[0] - k1 * c[2]),
        1j * (k1 * c[1] - k2 * c[0]),
    ))
    return f.with_coeffs(out)


def vorticity_max(u: SpectralField) -> float:
    """Lattice maximum of |curl u| (the Beale-Kato-Majda monitor)."""
    return lattice_lp_norm(curl(u), math.inf)


def dealias(f: SpectralField) -> SpectralField:
    """Zero all modes with any |k_axis| beyond the grid's retained fraction."""
    return f.with_coeffs(f.coeffs * f.grid.dealias_mask)


def zero_mean(f: SpectralField) -> SpectralField:
    out = f.coeffs.copy()
    out[:, 0, 0, 0] = 0.0
    return f.with_coeffs(out)


def divergence_defect(f: SpectralField) -> float:
    """Relative solenoidality defect: ||k.uhat||_l2 / ||  |k| |uhat| ||_l2."""
    c, grid = f.coeffs, f.grid
    k1, k2, k3 = grid.deriv_wavenumbers
    total = _power_sum(c, grid, grid.deriv_k_squared)
    return math.sqrt(_power_sum(k1 * c[0] + k2 * c[1] + k3 * c[2], grid) / total) if total else 0.0


# ----------------------------------------------------------------------
# nonlinearity

def _advect_arrays(fc: np.ndarray, gc: np.ndarray, grid: GridSpec, project: bool = False,
                   arena: np.ndarray | None = None):
    """Dealiased coefficients of (f . grad) g, plus max |f| on the lattice;
    with `project`, of the advection term -P[(f . grad) g] instead.

    A band-limited f advecting itself (`gc is fc`, zero at every mode with
    3 |k_axis| >= n) takes the divergence form, 9 transformed fields instead
    of 15: its products are exact after the 2/3 mask, so it equals the
    convective form up to round-off whenever f is solenoidal.  An f given as
    its 2/3 box takes it on the box; from n = PRUNE_MIN_N on, a half spectrum
    is gathered onto its box (`DealiasBox.gather`), takes it there as a run's
    state does and has its term scattered back, and on smaller grids it takes
    it whole.  Every other input takes the convective form, which ignores `arena`.
    """
    n = grid.n
    if fc.shape[-1] != n // 2 + 1:
        return _advect_divergence(fc, grid, project, grid.dealias_box, arena)
    if gc is fc and _band_limited(fc, n):
        if n < PRUNE_MIN_N:
            return _advect_divergence(fc, grid, project, None, arena)
        box = grid.dealias_box  # built only for a grid that uses it
        h, umax = _advect_divergence(box.gather(fc), grid, project, box, arena)
        return box.scatter(h, n), umax
    out, fmax = _advect_convective(fc, gc, grid)
    return (-_leray(out, grid) if project else out), fmax


def _band_limited(c: np.ndarray, n: int) -> bool:
    """Whether the half spectrum c is zero at every mode with 3 |k_axis| >= n.
    Storage indices m..n-m hold |k| >= m = ceil(n/3) on the full axes, m.. on the half;
    the plane k3 = m is read first: a random datum's tail is refused there, at one plane's cost."""
    m = -(-n // 3)
    return not (c[..., m].any() or c[..., m + 1:].any() or c[:, :, m:n - m + 1].any()
                or c[:, m:n - m + 1].any())


def _box_for(c: np.ndarray, f: np.ndarray | None, grid: GridSpec) -> DealiasBox | None:
    """The 2/3 box a run from settled coefficients c under forcing f (None if
    unforced) steps on, or None.  A state zero off the box stays so; on a grid
    divisible by 3 the box holds 3 |k| = n, which `_band_limited` excludes."""
    n = grid.n
    if n >= PRUNE_MIN_N and n % 3 and _band_limited(c, n) and (f is None or _band_limited(f, n)):
        return grid.dealias_box
    return None


def _advect_convective(fc: np.ndarray, gc: np.ndarray, grid: GridSpec):
    """`_advect_arrays` as f_j d_j g_i: five transforms, f in, the gradient of
    each component of g in (three fields per call), the product out.

    Each gradient triple is formed in the transforms' work array and
    transformed there into one product buffer, so the kernel's real arrays are
    f's samples, that buffer and the output samples.
    """
    n = grid.n
    ik = [1j * k for k in grid.deriv_wavenumbers]
    fp = _to_physical(fc, n)
    fmax = float(np.sqrt((fp**2).sum(axis=0)).max())
    out_phys = np.empty_like(fp)
    grad = _scratch(gc.shape)
    prod = np.empty_like(fp)
    for i in range(3):
        for j in range(3):
            np.multiply(ik[j], gc[i], out=grad[j])
        _to_physical(grad, n, out=prod)
        prod *= fp
        np.sum(prod, axis=0, out=out_phys[i])
    del fp, prod
    out = _to_spectral(out_phys)
    out *= grid.dealias_mask
    return out, fmax


def _advect_divergence(fc: np.ndarray, grid: GridSpec, project: bool = False,
                       box: DealiasBox | None = None, arena: np.ndarray | None = None):
    """`_advect_arrays(fc, fc, grid, project)` as d_j (u_j u_i): three
    transforms, u in and the six products H_ij = u_i u_j out as two triples,
    (H_00, H_01, H_02) and (H_11, H_12, H_22).

    The term is formed in fc's frame: on the 2/3 box `box` when given (u's
    samples from the box's columns; each triple's spectrum, i k_j H_ij and its
    projection on the box only, `_complex_passes`), else on the whole half
    spectrum, masked.  Both give a kept mode the same bits; off the box the
    half spectrum's term holds signed zeros.

    u's samples (later the second triple) and the first triple are the halves
    of `arena` (2, 3, n, n, n) when given, else new arrays.  Each triple's real
    pass runs into the work array; the second's spectrum is copied out (with u's
    samples freed first, unless in the arena) and the term is formed in the copy.
    max |u| is sqrt of the max of H_00 + H_11 + H_22, summed in (u**2).sum(axis=0)'s
    order into the transformed H_12 row: sqrt is monotone and correctly rounded.
    """
    n = grid.n
    up = _to_physical(fc, n, None if arena is None else arena[0], box)
    prod = np.multiply(up[0], up, out=None if arena is None else arena[1])
    np.multiply(up[1], up[1], out=up[0])
    np.multiply(up[1], up[2], out=up[1])
    np.multiply(up[2], up[2], out=up[2])
    work = np.fft.rfft(up, n, axis=-1, norm="forward", out=_scratch((3, n, n, n // 2 + 1)))
    np.add(prod[0], up[0], out=up[1])
    umax = math.sqrt(np.add(up[1], up[2], out=up[1]).max())
    del up
    h1 = _complex_passes(work, n, box).copy()
    np.fft.rfft(prod, n, axis=-1, norm="forward", out=work)
    del prod
    h = _complex_passes(work, n, box)
    k1, k2, k3 = (box or grid).deriv_wavenumbers
    # h1 holds (H_11, H_12, H_22) and h (H_00, H_01, H_02): each row of the
    # term is written into h1 after the last read of the row it replaces
    h1[2] = k1 * h[2] + k2 * h1[1] + k3 * h1[2]
    h1[1] = k1 * h[1] + k2 * h1[0] + k3 * h1[1]
    h1[0] = k1 * h[0] + k2 * h[1] + k3 * h[2]
    if box is None:
        h1 *= grid.dealias_mask
    h1 *= 1j
    if project:
        h1 = _leray(h1, box or grid)
        np.negative(h1, out=h1)
    return h1, umax


def _require_solenoidal(u: SpectralField, what: str):
    if not divergence_defect(u) <= SOLENOIDAL_TOL:  # NaN fails too
        raise NotSolenoidal(f"{what} requires a divergence-free field")


def advect(f: SpectralField, g: SpectralField) -> SpectralField:
    """Pseudospectral (f . grad) g with 2/3-rule dealiasing; no projection.

    For a band-limited f passed as both arguments this is d_j (f_j f), which
    is (f . grad) f up to round-off when f is solenoidal (`_advect_arrays`)."""
    _require_same_grid(f, g)
    out, _ = _advect_arrays(f.coeffs, g.coeffs, f.grid)
    return f.with_coeffs(out)


def nonlinear_term(u: SpectralField) -> SpectralField:
    """P[(u . grad) u]: pseudospectral product, dealiased, then Leray-projected."""
    _require_solenoidal(u, "nonlinear_term")
    return leray_project(advect(u, u))
