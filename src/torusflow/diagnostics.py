"""Observables, residual functionals for the three solution formulations,
and the band-blending reconstruction pipeline with its convergence studies.

Residual conventions
--------------------
weak    : space-time integral against divergence-free test functions built
          from a cubic B-spline time bump, derived from the snapshot times,
          and a battery of solenoidal Fourier modes (the twelve lowest from
          `weak_test_battery`); the bump vanishes at the first snapshot, so
          the initial-datum term does too.
mild    : defect of the Duhamel integral identity at each snapshot time,
          with a semigroup-stable trapezoidal recurrence for the integral.
strong  : pointwise momentum-equation residual at interior snapshot times,
          with centered differences in time.

All three come from one streaming pass over the snapshots (`RecordPass`)
that reads one advection term a = -P[(u.grad)u] per snapshot: it enters the
weak quadrature, where <(u.grad)u, v> = -<a, v> for every divergence-free
test field v, and the mild and strong defects.  The pass consumes a stream of
(u, a, h2, wmax), enters each snapshot as it arrives, and holds only the
three snapshots its recurrence still reads.  The `run` experiment feeds it
the solver's stream (`solvers._states`), which hands over each state's term
(the step from it computed it first) and the guard's H^2 norm and vorticity
maximum; a stored trajectory (`residual_defects`, `records_for_trajectory`)
is the stream (u, None, None, None), and the pass computes those values
itself, the term with the solver's `_advection`.
`weak_form_residual`, `mild_residual` and `strong_residual` read
`residual_defects`.  Every residual takes the viscosity and forcing of the
trajectory's own run (`traj.params`).
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass, fields, replace
from typing import Callable, Sequence

import numpy as np

from .errors import (
    DegenerateSequence,
    NonFiniteField,
    NonSolenoidalTest,
    TimeGridMismatch,
    TooFewSnapshots,
)
from .operators import MollifierSpec, WeightPartition, _regularized_blend
from .solvers import SolverParams, Trajectory, _advection, _phi1
from .spectral import (
    GridSpec,
    PhysicalField,
    SpectralField,
    _lattice_sum,
    _power_sum,
    _require_same_grid,
    _worst,
    divergence_defect,
    forward_transform,
    inner_product,
    l2_norm,
    sobolev_norm,
    vorticity_max,
)


@dataclass(frozen=True)
class DiagnosticsRecord:
    """Per-snapshot scalar observables.

    res_weak is the trailing-interval energy-identity defect, res_mild the
    running Duhamel defect up to this time, res_strong the centered-difference
    momentum residual (0.0 at the endpoints where no stencil exists), and
    h1, h2, h3 the H^1, H^2, H^3 norms.
    """

    t: float
    energy: float
    enstrophy: float
    bkm: float
    div_defect: float
    res_weak: float
    res_mild: float
    res_strong: float
    h1: float
    h2: float
    h3: float

    def validate(self):
        bad = [f.name for f in fields(self) if not math.isfinite(getattr(self, f.name))]
        if bad:
            raise NonFiniteField(f"diagnostics {', '.join(bad)} not finite at t = {self.t}")
        if min(self.energy, self.enstrophy, self.bkm, self.div_defect) < 0.0:
            raise ValueError("energy, enstrophy, bkm and div_defect must be nonnegative")


# ----------------------------------------------------------------------
# observables

def kinetic_energy(u: SpectralField) -> float:
    """E = (1/2) sum_k |uhat(k)|^2 (volume-normalized)."""
    return 0.5 * l2_norm(u) ** 2


def enstrophy(u: SpectralField) -> float:
    """||grad u||_L2^2 = sum_k |k|^2 |uhat(k)|^2."""
    return _power_sum(u.coeffs, u.grid, u.grid.k_squared)


# ----------------------------------------------------------------------
# energy identity

def energy_identity_residual(traj: Trajectory) -> np.ndarray:
    """Per-interval defect |dE + nu int ||grad u||^2 dt - int <f,u> dt| (trapezoidal)."""
    if len(traj.snapshots) < 2:
        raise TooFewSnapshots("energy identity needs at least two snapshots")
    p = traj.params
    return _energy_defects(p.nu, [
        (s.time, kinetic_energy(s), enstrophy(s), _power(p, s)) for s in traj.snapshots
    ])


def _power(p: SolverParams, u: SpectralField) -> float:
    """The forcing's power <f, u>, 0.0 unforced."""
    return 0.0 if p.forcing is None else inner_product(p.forcing, u)


def _energy_defects(nu: float, rows: Sequence[tuple[float, float, float, float]]) -> np.ndarray:
    """`energy_identity_residual` from per-snapshot (time, energy, enstrophy, power) rows."""
    out = []
    for (t0, e0, d0, w0), (t1, e1, d1, w1) in zip(rows, rows[1:]):
        dt = t1 - t0
        visc = 0.5 * dt * (d0 + d1)
        work = 0.5 * dt * (w0 + w1)
        out.append(abs(e1 - e0 + nu * visc - work))
    return np.asarray(out)


# ----------------------------------------------------------------------
# weak-form test battery

def _cubic_bspline(s: float) -> tuple[float, float]:
    """Cubic B-spline on [0, 4] and its derivative at s; maximum 2/3 at s = 2."""
    if s <= 0.0 or s >= 4.0:
        return 0.0, 0.0
    if s < 1.0:
        return s**3 / 6.0, 0.5 * s**2
    if s < 2.0:
        t = s - 1.0
        return (-3.0 * t**3 + 3.0 * t**2 + 3.0 * t + 1.0) / 6.0, (-9.0 * t**2 + 6.0 * t + 3.0) / 6.0
    if s < 3.0:
        t = 3.0 - s
        return (-3.0 * t**3 + 3.0 * t**2 + 3.0 * t + 1.0) / 6.0, -(-9.0 * t**2 + 6.0 * t + 3.0) / 6.0
    return (4.0 - s) ** 3 / 6.0, -0.5 * (4.0 - s) ** 2


def weak_test_battery(grid: GridSpec) -> list[SpectralField]:
    """The twelve lowest solenoidal Fourier modes cos/sin(x_a) e_b, b != a."""
    x = grid.coordinates
    modes = []
    for axis in range(3):
        for pol in range(3):
            if pol == axis:
                continue
            for fn in (np.cos, np.sin):
                samples = np.zeros((3, grid.n, grid.n, grid.n))
                samples[pol] = fn(x[axis])
                modes.append(forward_transform(PhysicalField(grid, samples)))
    return modes


def _time_bump(times: np.ndarray) -> tuple[list[float], list[float]]:
    """One cubic B-spline bump and its time derivative at each snapshot time.

    The bump is supported strictly inside (times[0], times[-1]): it and its
    derivative are 0.0 at both end times, so the weak residual has no
    initial-datum term <u0, v(t0)> and no final-time term.  On a uniform
    grid of at least 13 snapshots the spline knots snap to even snapshot
    indices; the B-spline's third derivative jumps then sit on quadrature
    panel boundaries instead of inside panels, and the same bump is reused
    across nested dt refinements.
    """
    t0, t1 = float(times[0]), float(times[-1])
    span = t1 - t0
    lo = t0 + span / 8.0
    h = 3.0 * span / 16.0
    if len(times) >= 13:
        dts = np.diff(times)
        if np.allclose(dts, dts[0], rtol=1e-9, atol=0.0):
            panel = 2.0 * float(dts[0])
            h = panel * max(1, round(h / panel))
            while 4.0 * h >= span - 2.0 * panel and h > panel:
                h -= panel
            lo = t0 + panel * max(1, round((span - 4.0 * h) / (2.0 * panel)))
    pieces = [_cubic_bspline((t - lo) / h) for t in times]
    return [b for b, _ in pieces], [db / h for _, db in pieces]


def _time_quadrature_weights(times: np.ndarray) -> np.ndarray:
    """Composite Simpson weights on a uniform grid (trapezoid fallback)."""
    m = len(times)
    dt = np.diff(times)
    uniform = m >= 3 and np.allclose(dt, dt[0], rtol=1e-9, atol=0.0)
    w = np.zeros(m)
    if uniform and m % 2 == 1:
        h = float(dt[0])
        w[0] = w[-1] = h / 3.0
        w[1:-1:2] = 4.0 * h / 3.0
        w[2:-1:2] = 2.0 * h / 3.0
        return w
    if uniform and m >= 4:
        # even count: Simpson on the first m-1 points, trapezoid on the last gap
        h = float(dt[0])
        w[: m - 1] = _time_quadrature_weights(times[: m - 1])
        w[m - 2] += 0.5 * h
        w[m - 1] += 0.5 * h
        return w
    w[0] = 0.5 * dt[0]
    w[-1] = 0.5 * dt[-1]
    for i in range(1, m - 1):
        w[i] = 0.5 * (dt[i - 1] + dt[i])
    return w


# ----------------------------------------------------------------------
# weak, mild (Duhamel) and strong residuals: one pass over the snapshots

def residual_defects(
    traj: Trajectory, modes: Sequence[SpectralField] = ()
) -> tuple[list[float], list[float], float]:
    """Mild and strong defects at every snapshot and the weak defect against
    the test `modes`, one (u.grad)u per snapshot.

    weak: max over test functions v = bump * mode, with the time bump of
    `_time_bump` on the snapshot times, of the normalized
    space-time quadrature of <u, dt v> - <P[(u.grad)u], v> - nu <grad u, grad v>
    + <f, v>.  Every mode is checked divergence-free, so the pressure term
    <p, div v> vanishes and <(u.grad)u, v> = <P[(u.grad)u], v>; the
    initial-datum term <u0, v(t0)> vanishes because the bump is 0.0 at the
    first snapshot.  0.0 without modes; with modes, TooFewSnapshots unless
    there is an interior snapshot for the bump to weigh.
    mild: normalized Duhamel-identity defect in H^1, from the recurrence
    I_m = e^{nu dt lap}(I_{m-1} + dt/2 N_{m-1}) + dt/2 N_m, which reproduces
    the trapezoidal rule with only decaying propagator factors.
    strong: L2 norm of dt u + P[(u.grad)u] - nu lap u - P f with centered
    differences, 0.0 at the endpoints where no stencil exists.
    The pass is `RecordPass`'s, driven over the stored snapshots.
    """
    for i, mode in enumerate(modes):
        if not divergence_defect(mode) <= 1e-12:
            raise NonSolenoidalTest(f"test mode {i} is not divergence-free")
    snaps = traj.snapshots
    if modes and len(snaps) < 3:
        # the bump vanishes at both end times, so with no interior snapshot
        # every weak defect would be 0/0
        raise TooFewSnapshots("weak residual needs an interior snapshot (at least three)")
    if len(snaps) < 2:
        return [0.0] * len(snaps), [0.0] * len(snaps), 0.0
    walk = RecordPass(traj.params, modes, traj.times)
    for u in snaps:
        walk.push(u)
    span = float(snaps[-1].time - snaps[0].time)
    weak_defects = (abs(total) / (walk.bump_norm * sobolev_norm(mode, 1.0) * max(span, 1.0))
                    for total, mode in zip(walk.weak, modes))
    return walk.mild, walk.strong, _worst(0.0, *weak_defects)


class RecordPass:
    """The records of one trajectory, from one streaming pass over its snapshots.

    `push(u, a, h2, wmax)` takes the snapshots in time order, each with what
    its producer has: `a`, the snapshot's advection term -P[(u.grad)u], and
    its H^2 norm and vorticity maximum (all None for a stored snapshot).  The
    snapshot enters the weak sums and the mild/strong recurrence at once, its
    term computed (`solvers._advection`) when it was not handed over, so the
    pass holds the three snapshots the recurrence still reads and one term.
    Without `times` it is a records pass, which keeps each snapshot's
    scalars (`rows`) for `records`.  Given the snapshot `times`, it is the
    residual pass of `residual_defects` over the weak test `modes`: it builds
    their time weights (`_time_quadrature_weights`, `_time_bump`) and the
    bump's quadrature norm `bump_norm` itself, keeps no rows and takes the
    solver's stream as well.  Test modes without `times` raise ValueError.
    """

    def __init__(self, p: SolverParams, modes: Sequence[SpectralField] = (), times=None):
        if modes and times is None:
            raise ValueError("a weak pass over test modes needs the snapshot times")
        self.p, self._modes = p, modes
        if times is not None:
            self._qw = _time_quadrature_weights(times)
            self._bump, self._bump_dt = _time_bump(times)
            weights = zip(self._qw, self._bump, self._bump_dt)
            self.bump_norm = math.sqrt(sum(w * (b**2 + bdot**2) for w, b, bdot in weights))
        self.snaps: list[SpectralField | None] = []  # None once the recurrence is past it
        self.rows: list[DiagnosticsRecord] | None = [] if times is None else None
        self._power: list[float] = []  # <f, u> per row, for the energy identity
        self.mild, self.strong, self.weak = [], [], [0.0] * len(self._modes)
        self._a = None  # the last advection term that entered

    def push(self, u: SpectralField, a=None, h2: float | None = None, wmax: float | None = None):
        self.snaps.append(u)
        if len(self.snaps) > 3:
            self.snaps[-4] = None
        self._enter(len(self.snaps) - 1, a)
        if self.rows is not None:
            self._power.append(_power(self.p, u))
            self.rows.append(DiagnosticsRecord(
                t=u.time, energy=kinetic_energy(u), enstrophy=enstrophy(u),
                bkm=vorticity_max(u) if wmax is None else wmax, div_defect=divergence_defect(u),
                res_weak=0.0, res_mild=0.0, res_strong=0.0, h1=sobolev_norm(u, 1.0),
                h2=sobolev_norm(u, 2.0) if h2 is None else h2, h3=sobolev_norm(u, 3.0),
            ))

    def records(self) -> list[DiagnosticsRecord]:
        """The validated records of a records pass."""
        rows = [(r.t, r.energy, r.enstrophy, w) for r, w in zip(self.rows, self._power)]
        records = [
            replace(r, res_weak=float(e), res_mild=float(mild), res_strong=float(strong))
            for r, e, mild, strong in zip(
                self.rows, [0.0, *_energy_defects(self.p.nu, rows)], self.mild, self.strong
            )
        ]
        for r in records:
            r.validate()
        return records

    def _enter(self, m: int, a: np.ndarray | None):
        """Snapshot m and its advection term a (computed when None) enter: the
        strong defect of m - 1, the weak sums at m and the mild defect of m."""
        snaps, p, u = self.snaps, self.p, self.snaps[m]
        k2, n = u.grid.k_squared, u.grid.n
        forcing = None if p.forcing is None else p.forcing.coeffs
        self.strong.append(0.0)  # until a right neighbour makes m interior
        if m >= 2:
            # evaluated before a computed term exists, so the two peaks do not stack
            self.strong[m - 1] = self._strong_defect(m - 1, forcing)
        if a is None:
            a = _advection(u.coeffs, u.grid)[0]
        if self._modes:
            b, bdot = self._bump[m], self._bump_dt[m]
            for i, mode in enumerate(self._modes):
                term = bdot * inner_product(u, mode)
                if b != 0.0:
                    # -<(u.grad)u, v> = <a, v> for a divergence-free v
                    term += b * _lattice_sum((a * np.conj(mode.coeffs)).real, n)
                    # <grad u, grad v> = sum_k |k|^2 uhat . conj(vhat)
                    term -= p.nu * b * _lattice_sum(k2 * (u.coeffs * np.conj(mode.coeffs)).real, n)
                    if forcing is not None:
                        term += b * inner_product(p.forcing, mode)
                self.weak[i] += self._qw[m] * term
        if m == 0:
            norm0 = sobolev_norm(u, 1.0)
            self._scale = norm0 if norm0 > 0.0 else 1.0
            self._t0 = u.time
            self._propagated = u.coeffs
            self._a = a
            self.mild.append(0.0)
            return
        dt = u.time - snaps[m - 1].time
        decay = np.exp(-p.nu * dt * k2)
        if m == 1:
            # allocated only now: a run holds no integral while it steps to its
            # second snapshot
            self._integral = np.zeros_like(u.coeffs)
        # decay * (I + dt/2 a_prev) + dt/2 a, in place: the same bits, since
        # IEEE multiplication commutes
        integral = self._integral
        integral += 0.5 * dt * self._a
        integral *= decay
        integral += 0.5 * dt * a
        self._a = a
        self._propagated = decay * self._propagated
        expected = self._propagated + integral
        if forcing is not None:
            # steady forcing integrates exactly: int_0^t e^{nu (t-tau) lap} d tau
            # = t phi1(-nu t |k|^2), which is t wherever nu |k|^2 = 0
            t = u.time - self._t0
            expected += t * _phi1(-p.nu * t * k2) * forcing
        diff = np.subtract(u.coeffs, expected, out=expected)
        self.mild.append(sobolev_norm(u.with_coeffs(diff), 1.0) / self._scale)

    def _strong_defect(self, m: int, forcing: np.ndarray | None) -> float:
        # a method scope frees dudt and res before the next kernel call; the
        # last term that entered is snapshot m's
        snaps, u = self.snaps, self.snaps[m]
        dt_left = u.time - snaps[m - 1].time
        dt_right = snaps[m + 1].time - u.time
        dudt = (snaps[m + 1].coeffs - snaps[m - 1].coeffs) / (dt_left + dt_right)
        res = dudt - self._a + self.p.nu * u.grid.k_squared * u.coeffs
        if forcing is not None:
            res = res - forcing
        return l2_norm(u.with_coeffs(res))


def weak_form_residual(traj: Trajectory, modes: Sequence[SpectralField]) -> float:
    """Max normalized weak-form defect over the test `modes` (see `residual_defects`)."""
    if len(traj.snapshots) < 3:
        raise TooFewSnapshots("weak residual needs an interior snapshot (at least three)")
    return residual_defects(traj, modes)[2]


def mild_residual(traj: Trajectory) -> float:
    """Duhamel-identity defect in H^1 at the final time, normalized by ||u0||_{H^1}.

    A single-snapshot trajectory (zero horizon) has defect 0 by definition.
    """
    return residual_defects(traj)[0][-1]


def strong_residual(traj: Trajectory) -> float:
    """Max over interior snapshots of ||dt u + P[(u.grad)u] - nu lap u - P f||_L2."""
    if len(traj.snapshots) < 3:
        raise TooFewSnapshots("strong residual needs at least three snapshots")
    return _worst(*residual_defects(traj)[1])


# ----------------------------------------------------------------------
# per-trajectory records and CSV

def records_for_trajectory(traj: Trajectory) -> list[DiagnosticsRecord]:
    """One validated record per snapshot of traj: the records pass over the
    stream of its snapshots, which computes every value itself."""
    walk = RecordPass(traj.params)
    for u in traj.snapshots:
        walk.push(u)
    return walk.records()


CSV_HEADER = ",".join(f.name for f in fields(DiagnosticsRecord))


def diagnostics_csv(records: Sequence[DiagnosticsRecord]) -> str:
    """Render records with shortest round-trip decimals, one row per snapshot."""
    lines = [CSV_HEADER]
    for r in records:
        lines.append(",".join(repr(float(v)) for v in astuple(r)))
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# unified reconstruction pipeline

def unified_reconstruction(
    weak_traj: Trajectory,
    mild_traj: Trajectory,
    strong_traj: Trajectory,
    w: WeightPartition,
    spec: MollifierSpec,
) -> list[SpectralField]:
    """Per snapshot: regularize each scheme's field, blend the three bands,
    then apply the low-pass smoothing; returns the blended fields, each at the
    mild time.  The multipliers are built once per call (`_regularized_blend`)."""
    trajs = (weak_traj, mild_traj, strong_traj)
    _require_same_grid(*trajs)
    times = [t.times for t in trajs]
    if any(len(tv) != len(times[0]) for tv in times) or any(
        np.max(np.abs(tv - times[0])) > 1e-12 for tv in times[1:]
    ):
        raise TimeGridMismatch("trajectories must share the snapshot time grid")
    merge = _regularized_blend(weak_traj.grid, w, [spec])
    return [f for fs in zip(*[t.snapshots for t in trajs]) for f in merge(*fs)]


MIN_SCALES = 4  # fewest scales a log-log slope fit is trusted on


@dataclass(frozen=True)
class ConvergenceStudy:
    eps: np.ndarray
    errors: np.ndarray
    slope: float | None
    monotone: bool
    exact: bool


def convergence_study(
    builder: Callable[[float], SpectralField],
    eps_seq: Sequence[float],
    s: float,
    reference: SpectralField,
) -> ConvergenceStudy:
    """Errors of builder(eps) against a reference, with a log-log slope fit.

    All-zero errors are reported as exact.
    """
    eps = [float(e) for e in eps_seq]
    if len(eps) < MIN_SCALES or not all(e > 0 for e in eps) or not all(
        b < a for a, b in zip(eps, eps[1:])
    ):
        raise DegenerateSequence(f"need >= {MIN_SCALES} strictly decreasing positive scales")
    built = [builder(e) for e in eps]
    errs = [sobolev_norm(f.with_coeffs(f.coeffs - reference.coeffs), s) for f in built]
    scale = max(sobolev_norm(reference, s), 1.0)
    exact = all(e <= 1e-14 * scale for e in errs)
    slope = None
    if not exact and all(e > 0 for e in errs):
        slope = _loglog_slope(eps, errs)
    monotone = all(b <= a * (1.0 + 1e-12) for a, b in zip(errs, errs[1:]))
    return ConvergenceStudy(np.asarray(eps), np.asarray(errs), slope, monotone, exact)


def _loglog_slope(eps: Sequence[float], errs: Sequence[float]) -> float:
    return float(np.polyfit(np.log(eps), np.log(errs), 1)[0])
