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

import numpy as np

from .errors import GridMismatch, NonFiniteField, NotSolenoidal, SymmetryViolation

TWO_PI = 2.0 * np.pi

HERMITIAN_TOL = 1e-9
SOLENOIDAL_TOL = 1e-9

# retained-mode fraction per axis for quadratic products (the 2/3 rule)
DEALIAS_FRACTION = 2.0 / 3.0


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
    def coordinates(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        x = TWO_PI * np.arange(self.n) / self.n
        g = np.meshgrid(x, x, x, indexing="ij")
        return tuple(_read_only(a) for a in g)


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
    """The complex work array of `_to_physical` for one shape; never returned."""
    return np.empty(shape, dtype=np.complex128)


def _to_physical(coeffs: np.ndarray, n: int) -> np.ndarray:
    """Real samples of a half spectrum."""
    work = _scratch(coeffs.shape)
    np.fft.ifft(coeffs, n, axis=-3, norm="forward", out=work)
    np.fft.ifft(work, n, axis=-2, norm="forward", out=work)
    return np.fft.irfft(work, n, axis=-1, norm="forward")


def _to_spectral(samples: np.ndarray) -> np.ndarray:
    """Half spectrum of real samples."""
    n = samples.shape[-1]
    half = np.fft.rfft(samples, n, axis=-1, norm="forward")
    np.fft.fft(half, n, axis=-2, norm="forward", out=half)
    np.fft.fft(half, n, axis=-3, norm="forward", out=half)
    return half


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
    """Lattice sum (and over leading axes) of a real half-spectrum array: the self-conjugate
    planes k3 = 0, n/2 count once, the others twice; all weights > 0 keep the sum monotone."""
    planes = half[..., 0].sum() + half[..., n // 2].sum()
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


# ----------------------------------------------------------------------
# multipliers

def leray_project(f: SpectralField) -> SpectralField:
    """Project each mode k != 0 by (I - k k^T/|k|^2); k = 0 is left unchanged.

    Uses the odd-extension wavenumbers, so modes whose only content sits on
    shared Nyquist slots (already lattice-divergence-free) pass through
    unchanged and realness is preserved.
    """
    return f.with_coeffs(_leray(f.coeffs, f.grid))


def _leray(c: np.ndarray, grid: GridSpec) -> np.ndarray:
    """leray_project on half-spectrum coefficients."""
    k1, k2, k3 = grid.deriv_wavenumbers
    kk = grid.deriv_k_squared
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
    w = _to_physical(curl(u).coeffs, u.grid.n)
    return float(np.sqrt((w**2).sum(axis=0)).max())


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

def _advect_arrays(fc: np.ndarray, gc: np.ndarray, grid: GridSpec):
    """Dealiased coefficients of (f . grad) g, plus max |f| on the lattice.

    Five transforms: f in, the gradient of each component of g in (three
    fields per call), the product out.
    """
    n = grid.n
    ik = [1j * k for k in grid.deriv_wavenumbers]
    fp = _to_physical(fc, n)
    fmax = float(np.sqrt((fp**2).sum(axis=0)).max())
    out_phys = np.empty_like(fp)
    grad = np.empty_like(gc)
    for i in range(3):
        for j in range(3):
            np.multiply(ik[j], gc[i], out=grad[j])
        prod = _to_physical(grad, n)
        prod *= fp
        np.sum(prod, axis=0, out=out_phys[i])
    out = _to_spectral(out_phys)
    out *= grid.dealias_mask
    return out, fmax


def _require_solenoidal(u: SpectralField, what: str):
    if not divergence_defect(u) <= SOLENOIDAL_TOL:  # NaN fails too
        raise NotSolenoidal(f"{what} requires a divergence-free field")


def advect(f: SpectralField, g: SpectralField) -> SpectralField:
    """Pseudospectral (f . grad) g with 2/3-rule dealiasing; no projection."""
    _require_same_grid(f, g)
    out, _ = _advect_arrays(f.coeffs, g.coeffs, f.grid)
    return f.with_coeffs(out)


def nonlinear_term(u: SpectralField) -> SpectralField:
    """P[(u . grad) u]: pseudospectral product, dealiased, then Leray-projected."""
    _require_solenoidal(u, "nonlinear_term")
    return leray_project(advect(u, u))
