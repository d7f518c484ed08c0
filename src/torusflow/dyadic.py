"""Dyadic frequency calculus: blocks, Bernstein ratios, paraproducts.

The radial block profile chi is the band weights' cos^2 ramp in |log2 r|
(`operators._falling_ramp`): 1 on [2^-1/4, 2^1/4], supported in (2^-3/4,
2^3/4) inside [1/2, 2], with neighbouring ramps complementary so that
sum_j chi(2^-j r) = 1 for r >= 1.  The k = 0 mode is block -1 of the same
per-grid table (`block_weights`), so every sum over blocks runs over one dict.
"""

from __future__ import annotations

from functools import cache
from types import MappingProxyType

import numpy as np

from .errors import IndexOutOfRange, SupportViolation, ZeroField
from .operators import _falling_ramp
from .spectral import (
    GridSpec,
    SpectralField,
    _power_sum,
    _read_only,
    _require_solenoidal,
    _worst,
    advect,
    l2_norm,
    lattice_lp_norm,
    sobolev_norm,
)

_PLATEAU = 0.25  # log2 half-width of the chi plateau
_SUPPORT = 0.75  # log2 half-width of the chi support


def chi(r) -> np.ndarray:
    """Radial block profile at r = |k| / 2^j, 0 at r = 0."""
    r = np.asarray(r, dtype=np.float64)
    t = np.where(r > 0.0, np.log2(np.where(r > 0.0, r, 1.0)), -4.0 * _SUPPORT)
    return _falling_ramp((np.abs(t) - _PLATEAU) / (_SUPPORT - _PLATEAU))


@cache
def block_weights(grid: GridSpec) -> MappingProxyType[int, np.ndarray]:
    """The grid's read-only block weights keyed -1, 0, ..., jmax, built once per grid.

    Block -1 holds the mean mode alone; blocks 0..jmax are the annuli
    chi(|k| / 2^j) covering every resolved wavenumber.
    """
    jmax = int(np.floor(np.log2(np.sqrt(3.0) * (grid.n / 2.0)) + _SUPPORT))
    mean = (grid.k_squared == 0.0).astype(np.float64)
    annuli = [chi(grid.k_magnitude / 2.0**j) for j in range(jmax + 1)]
    return MappingProxyType({j: _read_only(w) for j, w in enumerate([mean, *annuli], start=-1)})


def dyadic_block(u: SpectralField, j: int) -> SpectralField:
    """Frequency restriction to the dyadic annulus |k| ~ 2^j (j = -1: the mean mode)."""
    table = block_weights(u.grid)
    if j not in table:
        raise IndexOutOfRange(f"block index {j} outside [-1, {len(table) - 2}]")
    return u.with_coeffs(u.coeffs * table[j])


def reassemble(u: SpectralField) -> SpectralField:
    """Sum of every block, the mean block first (partition-of-unity check)."""
    return u.with_coeffs(u.coeffs * sum(block_weights(u.grid).values()))


def almost_orthogonality_ratio(u: SpectralField) -> float:
    """sum_j ||Delta_j u||_L2^2 / ||u||_L2^2, guaranteed in [1/2, 1] for this chi."""
    total = l2_norm(u) ** 2
    if total == 0.0:
        raise ZeroField("almost-orthogonality ratio of a zero field")
    return _power_sum(u.coeffs, u.grid, sum(w**2 for w in block_weights(u.grid).values())) / total


# per-(alpha, p, q) constants: |alpha| = 1, p = q = 2 carries the annulus
# top-edge bound 2; the rest were calibrated at n = 32 over 150 seeded
# annulus-supported random blocks (empirical maxima 0.63, 1.03, 0.39) and
# frozen with a 25% margin
BERNSTEIN_CONSTANTS = {
    ((1, 0, 0), 2, 2): 2.0,
    ((0, 1, 0), 2, 2): 2.0,
    ((0, 0, 1), 2, 2): 2.0,
    ((0, 1, 0), 2, np.inf): 0.8,
    ((0, 0, 0), 2, np.inf): 1.3,
    ((0, 0, 0), 1, 2): 0.5,
}


def bernstein_check(
    u: SpectralField, j: int, alpha: tuple[int, int, int], p: float, q: float
) -> tuple[float, float]:
    """(lhs, rhs_scale) for the annulus derivative/integrability inequality.

    lhs = ||d^alpha Delta_j u||_Lq and rhs_scale = 2^{j(|alpha| + 3(1/p - 1/q))}
    ||Delta_j u||_Lp; the caller asserts lhs <= C_B * rhs_scale against the
    calibrated constant.
    """
    if p > q:
        raise ValueError("need p <= q")
    total = _power_sum(u.coeffs, u.grid)
    if total > 0.0:
        r = u.grid.k_magnitude
        outside = _power_sum(u.coeffs, u.grid, (r < 2.0 ** (j - 1)) | (r > 2.0 ** (j + 1)))
        if np.sqrt(outside / total) > 1e-10:
            raise SupportViolation(f"spectrum leaks outside the 2^{j} annulus")
    block = dyadic_block(u, j)
    k1, k2, k3 = u.grid.deriv_wavenumbers
    mult = (1j * k1) ** alpha[0] * (1j * k2) ** alpha[1] * (1j * k3) ** alpha[2]
    deriv = block.with_coeffs(block.coeffs * mult)
    lhs = lattice_lp_norm(deriv, q)
    inv_p = 0.0 if p == np.inf else 1.0 / p
    inv_q = 0.0 if q == np.inf else 1.0 / q
    scale = 2.0 ** (j * (sum(alpha) + 3.0 * (inv_p - inv_q)))
    rhs_scale = scale * lattice_lp_norm(block, p)
    return lhs, rhs_scale


def paraproduct_decompose(u: SpectralField) -> tuple[SpectralField, SpectralField, SpectralField]:
    """Split (u.grad)u into low-high, high-low, and comparable-frequency sums.

    Each pairwise advection is evaluated pseudospectrally with the grid's
    dealiasing, so the three pieces reassemble the dealiased (u.grad)u
    exactly up to roundoff.
    """
    _require_solenoidal(u, "paraproduct_decompose")
    blocks = {j: dyadic_block(u, j) for j in block_weights(u.grid)}

    pi1, pi2, pi3 = (np.zeros_like(u.coeffs) for _ in range(3))
    # running low-pass sum S_{j-1} = mean block + annulus blocks below j-1
    low = blocks[-1]
    for j in list(blocks)[1:]:  # the annuli
        if j >= 2:
            low = low.with_coeffs(low.coeffs + blocks[j - 2].coeffs)
        pi1 += advect(low, blocks[j]).coeffs
        pi2 += advect(blocks[j], low).coeffs
    for a in blocks:
        for b in blocks:
            if abs(a - b) <= 1:
                pi3 += advect(blocks[a], blocks[b]).coeffs
    return tuple(u.with_coeffs(pi) for pi in (pi1, pi2, pi3))


def commutator_bound_ratio(u: SpectralField, s: float) -> float:
    """||(u.grad)u||_{H^{s-1}} / ||u||_{H^s}^2 for solenoidal u, s > 3/2."""
    if not s > 1.5:
        raise ValueError("commutator ratio needs s > 3/2")
    _require_solenoidal(u, "commutator_bound_ratio")
    denom = sobolev_norm(u, s)
    if denom == 0.0:
        raise ZeroField("commutator ratio of a zero field")
    return sobolev_norm(advect(u, u), s - 1.0) / denom**2


def commutator_constant(fields, s: float) -> float:
    """Empirical advection constant: max commutator ratio over a field battery."""
    return _worst(*(commutator_bound_ratio(f, s) for f in fields))


def block_energies(u: SpectralField) -> list[tuple[int, float]]:
    """(j, ||Delta_j u||_L2^2) rows, mean block first."""
    return [(j, l2_norm(dyadic_block(u, j)) ** 2) for j in block_weights(u.grid)]
