"""Three time-discretizations of the incompressible flow on the torus.

strong-imex : exact integrating factor for the viscous term, Heun (RK2)
              for the projected advection and forcing.
mild-duhamel: exponential integrator discretizing the Duhamel integral
              with phi-function (exponential-trapezoidal) weights; exact
              on linear flow for any step size.
weak-galerkin: the strong step followed by a sharp spectral cutoff
              |k|^2 <= lambda_N after every update (torus Stokes
              eigenfunctions are the Fourier modes).

All schemes advance mean-free solenoidal fields and re-project each step;
`run` settles its datum by the same rule, so every state is built one way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache
from typing import NamedTuple

import numpy as np

from .errors import (
    BadCutoff,
    BlowUpDetected,
    CflViolation,
    GridMismatch,
    NonFiniteField,
    NumericalAbort,
)
from .spectral import (
    SOLENOIDAL_TOL,
    GridSpec,
    PhysicalField,
    SpectralField,
    _advect_arrays,
    _box_for,
    _leray,
    _power_sum,
    _read_only,
    _require_same_grid,
    _require_solenoidal,
    advect,
    divergence,
    divergence_defect,
    forward_transform,
    leray_project,
    sobolev_norm,
    vorticity_max,
    zero_mean,
)

SCHEMES = ("weak-galerkin", "mild-duhamel", "strong-imex")

CFL_SAFETY = 0.5
BLOWUP_NORM_FACTOR = 1e3
BLOWUP_BKM_LIMIT = 1e6
GUARD_NORM_INDEX = 2.0


@dataclass(frozen=True)
class SolverParams:
    """Time-stepping parameters shared by the three schemes."""

    nu: float
    dt: float
    t_end: float
    scheme: str = "strong-imex"
    galerkin_modes: float | None = None  # squared-wavenumber cutoff; None = full resolution
    forcing: SpectralField | None = None  # steady; Leray-projected on entry unless solenoidal
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.nu < math.inf:
            raise ValueError("viscosity must be nonnegative and finite")
        if not 0.0 < self.dt < math.inf:
            raise ValueError("dt must be positive and finite")
        if not 0.0 <= self.t_end < math.inf:
            raise ValueError("t_end must be nonnegative and finite")
        if self.scheme not in SCHEMES:
            raise ValueError(f"scheme must be one of {SCHEMES}, not {self.scheme!r}")
        if self.forcing is not None and not divergence_defect(self.forcing) <= SOLENOIDAL_TOL:
            object.__setattr__(self, "forcing", leray_project(self.forcing))


@dataclass(frozen=True)
class Trajectory:
    """Time-ordered snapshots produced by the scheme `params.scheme`."""

    params: SolverParams
    snapshots: list[SpectralField]

    def __post_init__(self):
        if not self.snapshots:
            raise ValueError("a trajectory needs at least one snapshot")
        _require_same_grid(*self.snapshots)
        times = [s.time for s in self.snapshots]  # finite: a field refuses any other time
        if not all(a < b for a, b in zip(times, times[1:])):
            raise ValueError("snapshot times must be strictly increasing")

    @property
    def times(self) -> np.ndarray:
        return np.asarray([s.time for s in self.snapshots])

    @property
    def grid(self) -> GridSpec:
        return self.snapshots[0].grid


# ----------------------------------------------------------------------
# canonical initial data

def taylor_green_init(grid: GridSpec) -> SpectralField:
    """u = (sin x1 cos x2 cos x3, -cos x1 sin x2 cos x3, 0); eight active modes.

    Built from its exact coefficients, -i s1/8 and i s2/8 at k = (s1, s2, s3)
    with s_a = +-1, so it is zero off them (band-limited for the kernel).
    """
    c = np.zeros((3, grid.n, grid.n, grid.n // 2 + 1), dtype=np.complex128)
    for s1 in (1, -1):
        for s2 in (1, -1):
            # the half spectrum stores k3 = +1; k3 = -1 is its mirror
            c[0, s1, s2, 1] = -0.125j * s1
            c[1, s1, s2, 1] = 0.125j * s2
    return SpectralField(grid, c)


def shear_init(grid: GridSpec) -> SpectralField:
    """u = (0, sin x1, 0): unidirectional shear whose advection term vanishes.

    Under viscosity nu with no forcing the exact solution is e^{-nu t} times
    the datum, which makes it the closed-form benchmark for every scheme
    and residual.  Built from its exact coefficients, -+i/2 at k1 = +-1.
    """
    c = np.zeros((3, grid.n, grid.n, grid.n // 2 + 1), dtype=np.complex128)
    c[1, 1, 0, 0] = -0.5j
    c[1, -1, 0, 0] = 0.5j
    return SpectralField(grid, c)


def random_solenoidal_init(grid: GridSpec, s: float, seed: int) -> SpectralField:
    """Seeded random field with |uhat(k)| ~ (1+|k|^2)^-(s+1), unit H^s norm."""
    rng = np.random.default_rng(seed)
    white = rng.standard_normal((3, grid.n, grid.n, grid.n))
    weight = (1.0 + grid.k_squared) ** (-(s + 1.0))
    c = forward_transform(PhysicalField(grid, white)).coeffs * weight
    f = leray_project(SpectralField(grid, c))
    f = zero_mean(f)
    norm = sobolev_norm(f, s)
    return f.with_coeffs(f.coeffs / norm)


# ----------------------------------------------------------------------
# single steps

def _phi1(z: np.ndarray) -> np.ndarray:
    out = np.ones_like(z)
    nz = z != 0.0
    out[nz] = np.expm1(z[nz]) / z[nz]
    return out


def _phi2(z: np.ndarray) -> np.ndarray:
    out = np.full_like(z, 0.5)
    nz = z != 0.0
    out[nz] = (np.expm1(z[nz]) - z[nz]) / z[nz] ** 2
    return out


class _Multipliers(NamedTuple):
    """Read-only multipliers of one step configuration."""

    decay: np.ndarray  # e^{-nu dt |k|^2}
    dt_phi1: np.ndarray | None  # dt phi1(-nu dt |k|^2), mild step only
    dt_phi2: np.ndarray | None  # dt phi2(-nu dt |k|^2), mild step only
    mask: np.ndarray | None  # the Galerkin cutoff, when there is one


@cache
def _multipliers(
    grid: GridSpec, nu: float, dt: float, mild: bool, cutoff: float | None
) -> _Multipliers:
    """The step multipliers, built once per configuration."""
    z = -nu * dt * grid.k_squared
    phi1 = phi2 = mask = None
    if mild:
        phi1 = _read_only(dt * _phi1(z))
        phi2 = _read_only(dt * _phi2(z))
    if cutoff is not None:
        if not 1.0 <= cutoff < math.inf:
            raise BadCutoff("galerkin cutoff must be finite and reach the first nonzero mode")
        mask = _read_only((grid.k_squared <= cutoff).astype(np.float64))
    return _Multipliers(_read_only(np.exp(z)), phi1, phi2, mask)


def _step_multipliers(grid: GridSpec, p: SolverParams) -> _Multipliers:
    """The multipliers of scheme `p.scheme`; an uncut weak run's are the strong run's."""
    cutoff = p.galerkin_modes if p.scheme == "weak-galerkin" else None
    return _multipliers(grid, p.nu, p.dt, p.scheme == "mild-duhamel", cutoff)


def _advection(c: np.ndarray, grid: GridSpec, f: np.ndarray | None = None, arena=None):
    """-P[(u.grad)u] (+ P f when given) of coefficients c (half spectrum or box), and max |u|."""
    a, umax = _advect_arrays(c, c, grid, project=True, arena=arena)
    return (a if f is None else a + f), umax


def _forcing(p: SolverParams, grid: GridSpec) -> np.ndarray | None:
    """The coefficients of P f on `grid` (None unforced); GridMismatch on another grid."""
    if p.forcing is not None and p.forcing.grid != grid:
        raise GridMismatch(f"forcing on n = {p.forcing.grid.n}, state on n = {grid.n}")
    return None if p.forcing is None else p.forcing.coeffs


def _settle(c: np.ndarray, grid: GridSpec, mult: _Multipliers, box=None) -> np.ndarray:
    """Coefficients c re-projected, mean-free and cut off, on the 2/3 box when given."""
    out = _leray(c, box or grid)
    out[:, 0, 0, 0] = 0.0
    if mult.mask is not None:
        out *= mult.mask
    return out


def cfl_limit(umax: float, grid: GridSpec) -> float:
    """Largest advectively stable dt: CFL_SAFETY / (n * max |u|)."""
    if umax == 0.0:
        return math.inf
    return CFL_SAFETY / (grid.n * umax)


def _step(c: np.ndarray, a0: np.ndarray, umax: float, p: SolverParams, mult: _Multipliers,
          f: np.ndarray | None, grid: GridSpec, box=None, arena=None) -> np.ndarray:
    """One step of coefficients c, whose advection term is a0 and lattice max
    |u| umax, by the scheme of `mult` (mild when it has phi weights) under
    forcing f; on the 2/3 box `box` when c, a0, f and `mult` are gathered on it
    (the kernel's samples in `arena`).  No divergence check: `run` steps only
    states it has just settled."""
    limit = cfl_limit(umax, grid)
    if p.dt > limit:
        raise CflViolation(f"dt = {p.dt:g} exceeds advective limit {limit:g}")
    n0 = a0 if f is None else a0 + f
    if mult.dt_phi1 is None:
        decay = mult.decay
        n1 = _advection(decay * (c + p.dt * n0), grid, f, arena)[0]
        c = decay * c + 0.5 * p.dt * (decay * n0 + n1)
    else:
        predictor = mult.decay * c + mult.dt_phi1 * n0
        n1 = _advection(predictor, grid, f, arena)[0]
        c = predictor + mult.dt_phi2 * (n1 - n0)
    return _settle(c, grid, mult, box)


def step(u: SpectralField, p: SolverParams) -> SpectralField:
    """One step of u by the scheme `p.scheme`, the step of `run`: re-projected,
    mean-free and cut off."""
    _require_solenoidal(u, "step")
    c, grid = u.coeffs, u.grid
    c = _step(c, *_advection(c, grid), p, _step_multipliers(grid, p), _forcing(p, grid), grid)
    return u.with_coeffs(c, time=u.time + p.dt)


# ----------------------------------------------------------------------
# drivers

def step_count(t_end: float, dt: float) -> int:
    """Number of dt steps that reach t_end; ValueError unless it is a whole number."""
    ratio = t_end / dt
    if not math.isfinite(ratio) or abs(round(ratio) * dt - t_end) > 1e-9 * max(dt, t_end):
        raise ValueError("t_end must be an integer multiple of dt")
    return round(ratio)


def run(u0: SpectralField, p: SolverParams, cadence: int = 1) -> Trajectory:
    """Evolve u0 to t_end, recording every `cadence`-th step (plus endpoints).

    The datum is settled by the steps' rule (projected, mean-free, cut off).
    A datum with a non-finite coefficient raises NonFiniteField.  A blow-up
    guard raises BlowUpDetected (carrying the partial trajectory) when the
    H^2 norm exceeds 1e3 times its initial value or is not finite, or the
    vorticity maximum passes 1e6; the partial holds only snapshots the guard
    passed.  A step that fails the CFL gate raises CflViolation with the
    partial trajectory attached the same way.  The trajectory is the stream
    of `_states`, collected.
    """
    snapshots = []
    try:
        for u, _, _, _ in _states(u0, p, cadence):
            snapshots.append(u)
    except NumericalAbort as exc:
        exc.trajectory = Trajectory(p, snapshots)
        raise
    return Trajectory(p, snapshots)


def _states(u0: SpectralField, p: SolverParams, cadence: int):
    """The recorded states of `run`, each as (u, a, h2, wmax) once the guard
    has passed it, in time order; the errors are run's, with nothing attached.

    Beside u come what the run already has: a, u's advection term
    -P[(u.grad)u], which the step from u computes first (None for the last
    state, from which nothing steps), and u's H^2 norm (the guard's,
    GUARD_NORM_INDEX = 2) and vorticity maximum when the guard computed them
    (None otherwise; the guard may sum an unrecorded state's norm on the 2/3
    box).  Each state is yielded before the CFL gate of the step from it.  On
    the box the kernel's samples live in an arena (2, 3, n, n, n), dropped before
    each recorded state's scatter, guard and yield and made again when stepping
    resumes; held beside a half-spectrum run's arrays, it would raise the peak.
    """
    if cadence < 1:
        raise ValueError("cadence must be >= 1")
    steps = step_count(p.t_end, p.dt)
    grid, n, t0 = u0.grid, u0.grid.n, u0.time
    mult = _step_multipliers(grid, p)
    c = _settle(u0.coeffs, grid, mult)
    del u0  # the stream holds no reference to the raw datum
    u = SpectralField(grid, c, t0)
    guard_norm0 = hs = sobolev_norm(u, GUARD_NORM_INDEX)
    if not math.isfinite(guard_norm0):
        # a NaN norm would switch off the guards and the CFL gate below
        raise NonFiniteField("initial datum has a non-finite coefficient")
    f = _forcing(p, grid)
    box, kk = _box_for(c, f, grid), grid.k_squared
    if box is not None:
        kk = box.deriv_k_squared  # = k_squared there
        c, f = box.gather(c), f if f is None else box.gather(f)
        mult = _Multipliers(*(m if m is None else box.gather(m) for m in mult))
    recorded, wmax, arena = True, None, None
    for m in range(1, steps + 1):
        if arena is None and box is not None:
            arena = np.empty((2, 3, n, n, n))
        a, umax = _advection(c, grid, arena=arena)
        if recorded:
            arena = None
            yield u, a if box is None else box.scatter(a, n), hs, wmax
            arena = None if box is None else np.empty((2, 3, n, n, n))
        c = _step(c, a, umax, p, mult, f, grid, box, arena)
        del a  # not held through the next state's kernel call
        t = t0 + m * p.dt
        recorded = m % cadence == 0 or m == steps
        if recorded:
            arena = None
            u = SpectralField(grid, c if box is None else box.scatter(c, n), t)
        hs = wmax = None
        if guard_norm0 > 0.0:
            hs = sobolev_norm(u, GUARD_NORM_INDEX) if recorded else math.sqrt(
                _power_sum(c, grid, (1.0 + kk) ** GUARD_NORM_INDEX))
            if hs > BLOWUP_NORM_FACTOR * guard_norm0 or not math.isfinite(hs):
                raise BlowUpDetected(
                    f"H^{GUARD_NORM_INDEX:g} norm {hs:.3e} exceeds guard at t = {t:g}"
                )
            if recorded:
                # vorticity maximum needs physical samples; check at snapshot cadence
                wmax = vorticity_max(u)
                if wmax > BLOWUP_BKM_LIMIT:
                    raise BlowUpDetected(
                        f"vorticity maximum {wmax:.3e} exceeds guard at t = {t:g}"
                    )
    del c, mult  # nothing steps from the last state
    yield u, None, hs, wmax


# ----------------------------------------------------------------------
# pressure and lifespan

def pressure_solve(u: SpectralField) -> SpectralField:
    """Zero-mean pressure from -lap p = div[(u.grad)u], scalar in component 1.

    phat(k) = i k.Ghat(k) / |k|^2 with G the dealiased advection transform;
    the gradient-level multiplier bound ||grad p|| <= ||(u.grad)u|| holds
    mode by mode.
    """
    _require_solenoidal(u, "pressure_solve")
    kk = u.grid.deriv_k_squared
    out = np.zeros_like(u.coeffs)
    np.divide(divergence(advect(u, u)).coeffs[0], kk, out=out[0], where=kk > 0.0)
    return u.with_coeffs(out)


def lifespan_lower_bound(u0_norm: float, f_norm: float, nu: float, c_s: float) -> float:
    """Guaranteed existence time nu / (4 C^2 (||u0||_{H^s}^2 + ||f||^2)).

    On the mean-free torus the first Stokes eigenvalue is 1, so the
    constant C equals the advection (commutator) constant c_s.  Returns
    +inf when the data vanish (the bound degenerates).
    """
    if not all(v >= 0.0 for v in (u0_norm, f_norm, nu, c_s)):
        raise ValueError("lifespan inputs must be nonnegative")
    denom = 4.0 * c_s**2 * (u0_norm**2 + f_norm**2)
    if denom == 0.0:
        return math.inf
    return nu / denom
