"""Frequency-band operators: mollifier smoothing, three-band blending, regularization.

All three act on spectral coefficients.  Smoothing multiplies by a radial
low-pass symbol in [0, 1]; regularization composes smoothing with the Leray
projection; blending combines a low-band, mid-band and high-band field with
a partition-of-unity weight triple and then applies a spectrum-smearing
step realized as multiplication by a slowly varying window in physical
space (see `spatial_window`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable, Iterator

import numpy as np

from .spectral import (
    GridSpec,
    SpectralField,
    TWO_PI,
    _leray,
    _require_same_grid,
    _to_physical,
    _to_spectral,
    leray_project,
)

MOLLIFIER_KINDS = ("gaussian", "bump")

# raised-cosine ramp half-width for the band weights, relative to each edge
RAMP_HALF_WIDTH = 0.25

# spacing 2^-9; the clipped, monotonized table is exactly 0 from r ~ 6.51 on,
# and interpolation past its end returns 0 as well
_BUMP_RMAX = 8.0
_BUMP_SAMPLES = 4097


@dataclass(frozen=True)
class MollifierSpec:
    """Scale and shape of the low-pass symbol.

    kind "gaussian": symbol e^{-(eps |k|)^2 / 2}.
    kind "bump": tabulated transform of the compactly supported bump
    c*exp(-1/(1-|x|^2)), clamped to [0, 1] and monotonized so the symbol
    invariants (value 1 at 0, radially non-increasing) hold everywhere.
    """

    eps: float
    kind: str = "gaussian"

    def __post_init__(self):
        if not 0.0 < self.eps < math.inf:
            raise ValueError("eps must be positive and finite")
        if self.kind not in MOLLIFIER_KINDS:
            raise ValueError(f"kind must be one of {MOLLIFIER_KINDS}")


@lru_cache(maxsize=1)
def _bump_table() -> tuple[np.ndarray, np.ndarray]:
    """Radial table of the bump transform; computed once, immutable after."""
    nodes, weights = np.polynomial.legendre.leggauss(400)
    s = 0.5 * (nodes + 1.0)
    w = 0.5 * weights
    profile = np.exp(-1.0 / (1.0 - s**2))
    mass = np.sum(w * profile * s**2)
    r = np.linspace(0.0, _BUMP_RMAX, _BUMP_SAMPLES)
    # summed in blocks of 256 rows: the whole 4097 x 400 product holds ~50 MiB
    kernel = profile * s**2 * w
    blocks = (np.sinc(np.outer(r[i : i + 256], s) / np.pi) * kernel for i in range(0, r.size, 256))
    vals = np.concatenate([b.sum(axis=1) for b in blocks]) / mass
    # the exact transform oscillates below zero past its first root; the
    # symbol contract wants [0, 1] and radial non-increase, so clamp + cummin
    table = np.minimum.accumulate(np.clip(vals, 0.0, 1.0))
    r.flags.writeable = False
    table.flags.writeable = False
    return r, table


def _profile(spec: MollifierSpec, r: np.ndarray) -> np.ndarray:
    """Symbol as a function of the scaled radius r = eps * |k|."""
    if spec.kind == "gaussian":
        return np.exp(-0.5 * r**2)
    grid_r, table = _bump_table()
    return np.interp(r, grid_r, table, right=0.0)


def mollifier_symbol(spec: MollifierSpec, k) -> float | np.ndarray:
    """Symbol value at wavenumber magnitude k (a scalar or an array of magnitudes)."""
    out = _profile(spec, spec.eps * np.abs(np.asarray(k, dtype=np.float64)))
    return float(out) if out.ndim == 0 else out


def smooth(f: SpectralField, spec: MollifierSpec) -> SpectralField:
    """Multiply coefficients by the mollifier symbol (a contraction on every H^s).

    The scalar multiplier preserves solenoidality.
    """
    return f.with_coeffs(f.coeffs * mollifier_symbol(spec, f.grid.k_magnitude))


def regularize(f: SpectralField, spec: MollifierSpec) -> SpectralField:
    """Leray projection of the mollified field; contraction, solenoidal output."""
    return leray_project(smooth(f, spec))


# ----------------------------------------------------------------------
# three-band weights

@dataclass(frozen=True)
class WeightPartition:
    """Radial partition of unity over low / mid / high wavenumber bands.

    The low weight is 1 up to r1*(1-delta) and 0 from r1 on; the high
    weight is 0 up to r2 and 1 from r2*(1+delta) on; the mid weight is
    defined as 1 minus the other two, so the triple sums to 1 exactly.
    Both ramps are raised-cosine with delta = RAMP_HALF_WIDTH.
    """

    r1: float
    r2: float

    def __post_init__(self):
        if not 0.0 < self.r1 < self.r2 < math.inf:
            raise ValueError("need finite r2 > r1 > 0")


def _falling_ramp(t: np.ndarray) -> np.ndarray:
    """cos^2 ramp from 1 at t<=0 to 0 at t>=1, with exact endpoint values."""
    t = np.asarray(t, dtype=np.float64)
    mid = np.cos(0.5 * np.pi * np.clip(t, 0.0, 1.0)) ** 2
    return np.where(t <= 0.0, 1.0, np.where(t >= 1.0, 0.0, mid))


def band_weights(w: WeightPartition, k):
    """(omega_low, omega_mid, omega_high) at wavenumber magnitude k, floats for a
    scalar k and arrays for an array of magnitudes; the triple sums to 1 exactly."""
    r = np.abs(np.asarray(k, dtype=np.float64))
    lo = w.r1 * (1.0 - RAMP_HALF_WIDTH)
    hi = w.r2 * (1.0 + RAMP_HALF_WIDTH)
    ww = _falling_ramp((r - lo) / (w.r1 - lo))
    ws = 1.0 - _falling_ramp((r - w.r2) / (hi - w.r2))
    out = (ww, 1.0 - ww - ws, ws)
    return tuple(float(v) for v in out) if r.ndim == 0 else out


def binary_cutoff(r: np.ndarray) -> np.ndarray:
    """Raised-cosine cutoff: 1 on [0, 1], 0 on [2, inf)."""
    return _falling_ramp(np.asarray(r, dtype=np.float64) - 1.0)


# ----------------------------------------------------------------------
# blending

def weighted_blend(
    low: SpectralField, mid: SpectralField, high: SpectralField, w: WeightPartition
) -> SpectralField:
    """Pure three-band combination omega_low*low + omega_mid*mid + omega_high*high."""
    _require_same_grid(low, mid, high)
    bands = band_weights(w, low.grid.k_magnitude)
    return low.with_coeffs(_band_sum(bands, low.coeffs, mid.coeffs, high.coeffs))


def _band_sum(bands, low: np.ndarray, mid: np.ndarray, high: np.ndarray) -> np.ndarray:
    """omega_low*low + omega_mid*mid + omega_high*high for a `band_weights` triple."""
    ww, wm, ws = bands
    return ww * low + wm * mid + ws * high


def spatial_window(spec: MollifierSpec, grid: GridSpec) -> np.ndarray:
    """Slowly varying lattice window realizing the spectrum-smearing step.

    The window is the mollifier profile evaluated at eps times the periodic
    distance to the origin, normalized to unit lattice mean; it tends to 1
    uniformly as eps -> 0, so the blend is recovered unchanged in the limit.
    Multiplying by it in physical space is the O(n^3 log n) realization of a
    unit-mass convolution over the wavenumber lattice.
    """
    x1, x2, x3 = grid.coordinates
    d2 = sum(np.minimum(x, TWO_PI - x) ** 2 for x in (x1, x2, x3))
    win = _profile(spec, spec.eps * np.sqrt(d2))
    return win / win.mean()


def blend(
    low: SpectralField,
    mid: SpectralField,
    high: SpectralField,
    w: WeightPartition,
    spec: MollifierSpec,
) -> SpectralField:
    """Partition-of-unity blend of three band sources, spectrum smearing via
    the spatial window, then a Leray projection (the windowing is the only
    step that can break solenoidality)."""
    g = weighted_blend(low, mid, high, w)
    return g.with_coeffs(_smear(g.coeffs, spatial_window(spec, g.grid), g.grid))


def _smear(g: np.ndarray, win: np.ndarray, grid: GridSpec) -> np.ndarray:
    """`blend` after its band sum: the window pair, then the Leray projection."""
    return _leray(_to_spectral(win * _to_physical(g, grid.n)), grid)


def _regularized_blend(
    grid: GridSpec, w: WeightPartition, specs: Iterable[MollifierSpec]
) -> Callable[[SpectralField, SpectralField, SpectralField], Iterator[SpectralField]]:
    """Per snapshot triple on `grid`, the reconstruction smooth(blend(regularize(weak),
    regularize(mild), regularize(strong))) of each spec in turn, at the mild time.

    P, the symbol and the band weights are Fourier multipliers, so the three
    P S fold into one on the band sum: S P W P S (sum), W the window pair,
    equal to the three-regularization order up to round-off.  The band weights
    and each spec's symbol and window are built once, here; the merge forms the
    band sum once per triple and yields the fields lazily, one alive at a time.
    """
    bands = band_weights(w, grid.k_magnitude)
    multipliers = [(mollifier_symbol(s, grid.k_magnitude), spatial_window(s, grid)) for s in specs]

    def merge(weak: SpectralField, mild: SpectralField, strong: SpectralField):
        g = _band_sum(bands, weak.coeffs, mild.coeffs, strong.coeffs)
        for sym, win in multipliers:
            yield mild.with_coeffs(_smear(_leray(g * sym, grid), win, grid) * sym)

    return merge


def binary_blend(low: SpectralField, high: SpectralField, spec: MollifierSpec) -> SpectralField:
    """eta(eps |k|) * low + (1 - eta(eps |k|)) * high with the raised-cosine cutoff eta."""
    _require_same_grid(low, high)
    eta = binary_cutoff(spec.eps * low.grid.k_magnitude)
    out = eta * low.coeffs + (1.0 - eta) * high.coeffs
    return low.with_coeffs(out)
