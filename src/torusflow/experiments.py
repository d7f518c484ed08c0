"""Experiment drivers behind the CLI: run, verify, unify, convergence, blocks.

Every experiment writes deterministic artifacts into its output directory
(byte-identical for a fixed config and seed).  The verify experiment
evaluates a battery of named numerical checks and writes
`verify_summary.json` shaped as {"checks": [{name, value, bound, pass}]};
its exit status is 0 only if every check passes.
"""

from __future__ import annotations

import json
import math
import os
import sys
import tempfile
from dataclasses import dataclass, replace
from functools import cache
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import diagnostics as diag
from . import dyadic
from .config import ExperimentConfig
from .errors import NumericalAbort, RangeError
from .operators import (
    MOLLIFIER_KINDS,
    RAMP_HALF_WIDTH,
    MollifierSpec,
    WeightPartition,
    _regularized_blend,
    band_weights,
    binary_blend,
    binary_cutoff,
    mollifier_symbol,
    regularize,
    smooth,
    weighted_blend,
)
from .oracles import convolution_nonlinear_term
from .snapshots import _INEXACT_DEALIASING, _write_manifest, _write_snap
from .snapshots import read_snapshot, write_snapshot, write_trajectory
from .solvers import (
    SCHEMES,
    SolverParams,
    Trajectory,
    _states,
    lifespan_lower_bound,
    pressure_solve,
    random_solenoidal_init,
    run,
    shear_init,
    step_count,
    taylor_green_init,
)
from .spectral import (
    GridSpec,
    SpectralField,
    _power_sum,
    _worst,
    advect,
    forward_transform,
    gradient,
    heat_semigroup,
    hermitian_defect,
    inner_product,
    inverse_transform,
    l2_norm,
    leray_project,
    nonlinear_term,
    physical_l2_norm,
    sobolev_norm,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG_ERROR = 2
EXIT_NUMERICAL_ABORT = 3


@dataclass(frozen=True)
class Check:
    """One named verification: passes when value <= bound."""

    name: str
    value: float
    bound: float

    @property
    def passed(self) -> bool:
        return bool(self.value <= self.bound)

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "value": float(self.value),
            "bound": float(self.bound),
            "pass": self.passed,
        }


def _initial_field(cfg: ExperimentConfig, grid: GridSpec) -> SpectralField:
    if cfg.init == "taylor-green":
        return taylor_green_init(grid)
    if cfg.init == "shear":
        return shear_init(grid)
    return random_solenoidal_init(grid, 2.0, cfg.seed)


def _solver_params(cfg: ExperimentConfig, scheme: str | None = None) -> SolverParams:
    return SolverParams(
        nu=cfg.nu,
        dt=cfg.dt,
        t_end=cfg.t_end,
        scheme=scheme or cfg.scheme,
        galerkin_modes=cfg.galerkin_modes,
        seed=cfg.seed,
    )


def _diff_norm(a: SpectralField, b: SpectralField, s: float = 0.0) -> float:
    return sobolev_norm(a.with_coeffs(a.coeffs - b.coeffs), s)


def _rel_diff(a: SpectralField, b: SpectralField) -> float:
    """||a - b||_L2 relative to ||b||_L2."""
    return _diff_norm(a, b) / max(l2_norm(b), 1e-300)


def _max_gap(a: SpectralField, b: SpectralField) -> float:
    """Largest coefficient gap between a and b, relative to b's largest coefficient."""
    return np.max(np.abs(a.coeffs - b.coeffs)) / np.max(np.abs(b.coeffs))


# ----------------------------------------------------------------------
# verify battery

def _decay_field(grid: GridSpec, power: float) -> SpectralField:
    """Deterministic real field with coefficients (1+|k|^2)^power on all modes."""
    c = np.repeat(((1.0 + grid.k_squared) ** power)[None], 3, axis=0).astype(np.complex128)
    return SpectralField(grid, c)


def _rough_field(grid: GridSpec) -> SpectralField:
    """Unit-L2 field with |uhat| ~ |k|^(-3/2): in L2 but barely; not in H^2."""
    kmag = grid.k_magnitude.copy()
    kmag[0, 0, 0] = 1.0
    amp = kmag**-1.5
    amp[0, 0, 0] = 0.0
    c = np.repeat(amp[None], 3, axis=0).astype(np.complex128)
    f = SpectralField(grid, c)
    return f.with_coeffs(f.coeffs / l2_norm(f))


# Each check below returns the value that verify compares with its bound in
# CHECKS; the acceptance suite calls the same functions on larger inputs.

# --- transforms and multipliers -----------------------------------------

def transform_roundtrip(fields: list[SpectralField]) -> float:
    return _worst(0.0, *(_max_gap(forward_transform(inverse_transform(f)), f) for f in fields))


def parseval_identity(fields: list[SpectralField]) -> float:
    gaps = []
    for f in fields:
        phys = physical_l2_norm(inverse_transform(f)) ** 2
        spec = l2_norm(f) ** 2
        gaps.append(abs(phys - spec) / spec)
    return _worst(0.0, *gaps)


def hermitian_preserved(grid: GridSpec, fields: list[SpectralField]) -> float:
    return _worst(hermitian_defect(nonlinear_term(shear_init(grid))), *(
        hermitian_defect(g) for f in fields for g in (leray_project(f), heat_semigroup(f, 1.0, 0.1))
    ))


def sobolev_shear_values(grid: GridSpec) -> float:
    sh = shear_init(grid)
    e0 = abs(sobolev_norm(sh, 0.0) - 1.0 / math.sqrt(2.0))
    e2 = abs(sobolev_norm(sh, 2.0) - math.sqrt(2.0))
    return _worst(e0, e2)


def leray_idempotent(fields: list[SpectralField]) -> float:
    return _worst(0.0, *(_rel_diff(leray_project(p), p) for p in map(leray_project, fields)))


def leray_self_adjoint(a: SpectralField, b: SpectralField) -> float:
    lhs = inner_product(leray_project(a), b)
    rhs = inner_product(a, leray_project(b))
    return abs(lhs - rhs) / max(abs(lhs), 1e-300)


def heat_semigroup_law(f: SpectralField) -> float:
    one = heat_semigroup(heat_semigroup(f, 1.0, 0.3), 1.0, 0.7)
    return _rel_diff(one, heat_semigroup(f, 1.0, 1.0))


def heat_contraction(fields: list[SpectralField]) -> float:
    growth = []
    for f in fields:
        hf = heat_semigroup(f, 1.0, 0.05)
        growth += [sobolev_norm(hf, s) - sobolev_norm(f, s) for s in (0.0, 1.0, 2.0, 3.0)]
    return _worst(-math.inf, *growth)


def heat_block_decay(f: SpectralField) -> float:
    nu, t = 0.5, 0.1
    hf = heat_semigroup(f, nu, t)
    excess = []
    for j in list(dyadic.block_weights(f.grid))[1:]:  # the annuli j >= 0
        before = l2_norm(dyadic.dyadic_block(f, j))
        after = l2_norm(dyadic.dyadic_block(hf, j))
        excess.append(after - math.exp(-nu * t * 4.0 ** (j - 1)) * before)
    return _worst(-math.inf, *excess)


# --- mollifier operators -------------------------------------------------

def smoothing_contraction(fields: list[SpectralField], eps_values: tuple[float, ...]) -> float:
    """Largest H^s growth (s = 0..3) under smooth and regularize, both kinds."""
    growth = []
    for f in fields:
        for e in eps_values:
            for kd in MOLLIFIER_KINDS:
                sf = smooth(f, MollifierSpec(e, kd))
                rf = regularize(f, MollifierSpec(e, kd))
                for s in (0.0, 1.0, 2.0, 3.0):
                    base = sobolev_norm(f, s)
                    growth += [sobolev_norm(sf, s) - base, sobolev_norm(rf, s) - base]
    return _worst(-math.inf, *growth)


def symbol_range_monotone() -> float:
    r = np.linspace(0.0, 40.0, 4001)
    defects = [0.0]
    for kd in MOLLIFIER_KINDS:
        vals = mollifier_symbol(MollifierSpec(1.0, kd), r)
        defects += [float(np.max(vals) - 1.0), float(-np.min(vals)),
                    float(np.max(np.diff(vals))), abs(float(vals[0]) - 1.0)]
    return _worst(*defects)


def _smoothing_study(grid: GridSpec, kind: str, eps: tuple[float, ...]) -> diag.ConvergenceStudy:
    """H^1 errors of smoothing a (1+|k|^2)^-3 field, against the field itself."""
    f = _decay_field(grid, -3.0)
    return diag.convergence_study(lambda e: smooth(f, MollifierSpec(e, kind)), eps, 1.0, f)


def _rate_defect(kind: str, slope: float) -> float:
    """How far an H^1 smoothing-error slope misses order 2 (gaussian) or at least 2 (bump)."""
    return abs(slope - 2.0) if kind == "gaussian" else 2.0 - slope


def smoothing_approximation_rate(grid: GridSpec) -> float:
    """max(|s_gauss - 2|, 2 - s_bump), s the `_smoothing_study` slopes for eps = 2^-1..2^-6."""
    eps = tuple(2.0**-k for k in range(1, 7))
    return _worst(*(_rate_defect(kd, _smoothing_study(grid, kd, eps).slope)
                    for kd in MOLLIFIER_KINDS))


def smoothing_gain_exponent() -> float:
    """|slope + 2| of ||smooth(f)||_{H^2} against eps for rough unit-L2 data at n=64."""
    f = _rough_field(GridSpec(64))
    eps = [2.0**-k for k in range(1, 6)]
    errs = [sobolev_norm(smooth(f, MollifierSpec(e, "gaussian")), 2.0) for e in eps]
    return abs(diag._loglog_slope(eps, errs) + 2.0)


def weights_partition_of_unity(grid: GridSpec, weights: WeightPartition) -> float:
    ww, wm, ws = band_weights(weights, grid.k_magnitude)
    trip0 = band_weights(weights, 0.0)
    triph = band_weights(weights, (1.0 + RAMP_HALF_WIDTH) * weights.r2 + 1.0)
    mid = band_weights(WeightPartition(4.0, 12.0), 8.0)
    return _worst(
        float(np.max(np.abs(ww + wm + ws - 1.0))),
        abs(trip0[0] - 1.0), abs(trip0[1]), abs(trip0[2]),
        abs(triph[2] - 1.0), abs(triph[0]), abs(triph[1]),
        abs(mid[1] - 1.0), abs(mid[0]), abs(mid[2]),
    )


def blend_binary_saturation(a: SpectralField, c: SpectralField, kind: str) -> float:
    grid = c.grid
    eta = binary_cutoff(4.0 * grid.k_magnitude)
    sat = float(np.max(eta[grid.k_squared >= 1.0]))
    out = binary_blend(a, c, MollifierSpec(4.0, kind))
    d = np.abs(out.coeffs - c.coeffs)
    d[:, 0, 0, 0] = 0.0
    return _worst(sat, float(np.max(d)))


def blend_disjoint_support_exact(
    low_src: SpectralField, high_src: SpectralField, weights: WeightPartition
) -> float:
    r = low_src.grid.k_magnitude
    lo, hi = weights.r1 * (1.0 - RAMP_HALF_WIDTH), weights.r2 * (1.0 + RAMP_HALF_WIDTH)
    low = low_src.with_coeffs(np.where(r <= lo, low_src.coeffs, 0.0))
    high = high_src.with_coeffs(np.where(r >= hi, high_src.coeffs, 0.0))
    mid = low_src.with_coeffs(np.zeros_like(low_src.coeffs))
    g = weighted_blend(low, mid, high, weights)
    return 0.0 if np.array_equal(g.coeffs, low.coeffs + high.coeffs) else 1.0


def multiplier_heat_commutation(f: SpectralField, h: SpectralField, kind: str) -> float:
    nu, t = 0.7, 0.2
    spec = MollifierSpec(0.25, kind)
    one = heat_semigroup(binary_blend(f, h, spec), nu, t)
    two = binary_blend(heat_semigroup(f, nu, t), heat_semigroup(h, nu, t), spec)
    sm1 = heat_semigroup(smooth(f, spec), nu, t)
    sm2 = smooth(heat_semigroup(f, nu, t), spec)
    rg1 = heat_semigroup(regularize(f, spec), nu, t)
    rg2 = regularize(heat_semigroup(f, nu, t), spec)
    return _worst(_rel_diff(two, one), _rel_diff(sm2, sm1), _rel_diff(rg2, rg1))


def unified_pipeline_collapse(
    grid: GridSpec, weights: WeightPartition, kind: str, eps_list: tuple[float, ...]
) -> float:
    phi = shear_init(grid)
    base = sobolev_norm(phi, 1.0)
    merges = (_regularized_blend(grid, weights, MollifierSpec(e, kind)) for e in eps_list)
    errs = [_diff_norm(m(phi, phi, phi), phi, 1.0) / base for m in merges]
    rising = [b - a for a, b in zip(errs, errs[1:])] or [0.0]  # 0.0 for one eps
    return _worst(*rising, errs[-1] - 1e-3)


# --- dyadic calculus -----------------------------------------------------

def dyadic_reassembly(fields: list[SpectralField]) -> float:
    return _worst(0.0, *(_max_gap(dyadic.reassemble(f), f) for f in fields))


def dyadic_almost_orthogonality(fields: list[SpectralField]) -> float:
    """How far the almost-orthogonality ratio leaves [0.5, 1]; <= 0 inside."""
    ratios = [dyadic.almost_orthogonality_ratio(f) for f in fields]
    return _worst(0.0, *(d for r in ratios for d in (r - 1.0, 0.5 - r)))


def bernstein_ratios(grid: GridSpec, fields: list[SpectralField]) -> float:
    n = grid.n
    c = np.zeros((3, n, n, n), dtype=np.complex128)
    c[1, 3, 0, 0] = 0.5
    c[1, -3 % n, 0, 0] = 0.5
    lhs, rhs = dyadic.bernstein_check(SpectralField.from_full(grid, c), 2, (1, 0, 0), 2, 2)
    defects = [abs(lhs / rhs - 0.75)]
    for f in fields:
        for j in (1, 2):
            blk = dyadic.dyadic_block(f, j)
            if l2_norm(blk) == 0.0:
                continue
            lhs, rhs = dyadic.bernstein_check(blk, j, (1, 0, 0), 2, 2)
            defects.append(lhs / rhs - dyadic.BERNSTEIN_CONSTANTS[((1, 0, 0), 2, 2)])
    return _worst(*defects)


def paraproduct_reassembly(fields: list[SpectralField]) -> float:
    """Relative gap between the three paraproduct pieces and (u.grad)u."""
    gaps = []
    for f in fields:
        p1, p2, p3 = dyadic.paraproduct_decompose(f)
        gaps.append(_rel_diff(f.with_coeffs(p1.coeffs + p2.coeffs + p3.coeffs), advect(f, f)))
    return float(_worst(0.0, *gaps))


def advection_constant_envelope(grid: GridSpec, c_s: float, seed: int) -> float:
    """Commutator ratio of five fresh fields (seeds seed+100..) minus 1.5 c_s."""
    fresh = [random_solenoidal_init(grid, 2.0, seed + 100 + i) for i in range(5)]
    return dyadic.commutator_constant(fresh, 2.0) - 1.5 * c_s


# --- nonlinearity --------------------------------------------------------

def advection_shear_vanishes(grid: GridSpec) -> float:
    return l2_norm(nonlinear_term(shear_init(grid)))


def advection_convolution_oracle(fields: list[SpectralField]) -> float:
    """Relative L2 gap between the pseudospectral and convolution P[(u.grad)u]
    over the full spectrum, whose k3 < 0 block the oracle computes on its own."""
    norm = lambda c: float(np.sqrt(np.sum((c.real**2 + c.imag**2).sum(axis=0))))
    pairs = ((nonlinear_term(f).full(), convolution_nonlinear_term(f)) for f in fields)
    return _worst(0.0, *(norm(a - b) / max(norm(b), 1e-300) for a, b in pairs))


def advection_energy_neutral(fields: list[SpectralField]) -> float:
    grid = fields[0].grid
    cut = grid.n // 4
    kk = grid.wavenumbers
    mask = (np.abs(kk[0]) <= cut) & (np.abs(kk[1]) <= cut) & (np.abs(kk[2]) <= cut)
    bands = (leray_project(f.with_coeffs(f.coeffs * mask)) for f in fields)
    return _worst(0.0, *(
        abs(inner_product(nonlinear_term(band), band)) / l2_norm(band) ** 3 for band in bands
    ))


def taylor_green_datum(tg: SpectralField) -> float:
    k1, k2, k3 = tg.grid.wavenumbers
    off = (np.abs(k1) != 1.0) | (np.abs(k2) != 1.0) | (np.abs(k3) != 1.0)
    ratio = _power_sum(tg.coeffs, tg.grid, off) / _power_sum(tg.coeffs, tg.grid)
    return _worst(abs(diag.kinetic_energy(tg) - 0.125), ratio)


# --- pressure and lifespan -----------------------------------------------

def pressure_gradient_bound(grid: GridSpec, fields: list[SpectralField]) -> float:
    """||grad p|| / ||(u.grad)u|| - 1 over `fields`; the shear pressure must vanish."""
    return _worst(l2_norm(pressure_solve(shear_init(grid))), *(
        l2_norm(gradient(pressure_solve(f))) / max(l2_norm(advect(f, f)), 1e-300) - 1.0
        for f in fields
    ))


def lifespan_formula() -> float:
    v1 = abs(lifespan_lower_bound(1.0, 0.0, 1.0, 1.0) - 0.25)
    v2 = abs(lifespan_lower_bound(2.0, 0.0, 1.0, 1.0) - 0.0625)
    return _worst(v1, v2)


def lifespan_bounded_run(u0: SpectralField, c_s: float) -> float:
    """Max H^2 growth factor minus 2 over every step to T0 for the commutator constant c_s."""
    t0 = lifespan_lower_bound(sobolev_norm(u0, 2.0), 0.0, 0.1, c_s)
    steps = max(2, math.ceil(t0 / 2e-3))
    dt = t0 / steps
    traj = run(u0, SolverParams(nu=0.1, dt=dt, t_end=steps * dt, scheme="strong-imex"))
    h2 = [sobolev_norm(s, 2.0) for s in traj.snapshots]
    return _worst(*h2) / h2[0] - 2.0


# --- schemes -------------------------------------------------------------

def shear_exact_decay(traj: Trajectory) -> float:
    """Energy-ratio error against e^{-2} of a nu = 1, T = 1 shear trajectory."""
    snaps = traj.snapshots
    ratio = diag.kinetic_energy(snaps[-1]) / diag.kinetic_energy(snaps[0])
    return abs(ratio - math.exp(-2.0))


def shear_formulation_residuals(traj: Trajectory) -> float:
    """Largest of the weak (against `weak_test_battery`), final mild and strong residuals."""
    mild, strong, weak = diag.residual_defects(traj, diag.weak_test_battery(traj.grid))
    return _worst(weak, mild[-1], *strong)


# the scheme checks' table: params -> Taylor-Green run; runs(REFERENCE_PARAMS) is the reference
Runs = Callable[[SolverParams], Trajectory]
REFERENCE_PARAMS = SolverParams(nu=0.1, dt=2e-3, t_end=0.048, scheme="strong-imex")


def _head(traj: Trajectory, t_end: float) -> Trajectory:
    """The t in [start, start + t_end] prefix of a cadence-1 trajectory."""
    snaps = traj.snapshots[: step_count(t_end, traj.params.dt) + 1]
    return Trajectory(replace(traj.params, t_end=t_end), snaps)


def energy_identity_second_order(runs: Runs) -> float:
    """|ratio - 4| of the summed energy-identity defects on [0, 0.04] when dt halves."""
    heads = (_head(runs(replace(REFERENCE_PARAMS, dt=dt)), 0.04) for dt in (2e-3, 1e-3))
    coarse, fine = (float(np.sum(diag.energy_identity_residual(h))) for h in heads)
    return abs(coarse / fine - 4.0)


def scheme_coincidence_rate(runs: Runs, dts: tuple[float, ...]) -> float:
    """3 minus the smallest factor by which the mild/strong H^1 gap falls per dt step."""
    gaps = []
    for dt in dts:
        tm = runs(replace(REFERENCE_PARAMS, dt=dt, scheme="mild-duhamel"))
        ts = runs(replace(REFERENCE_PARAMS, dt=dt))
        gaps.append(_worst(*(_diff_norm(a, b, 1.0) for a, b in zip(tm.snapshots, ts.snapshots))))
    return _worst(*(3.0 - gaps[i] / gaps[i + 1] for i in range(len(gaps) - 1)))


def galerkin_gap_monotone(runs: Runs, cutoffs: tuple[float, ...]) -> float:
    """Largest rise of the final Galerkin-vs-reference gap as the cutoff grows."""
    reference = runs(REFERENCE_PARAMS).snapshots[-1]
    cut = (replace(REFERENCE_PARAMS, scheme="weak-galerkin", galerkin_modes=lam) for lam in cutoffs)
    gaps = [_diff_norm(runs(p).snapshots[-1], reference) for p in cut]
    return _worst(*(b - a for a, b in zip(gaps, gaps[1:])))


def galerkin_full_is_strong(runs: Runs) -> float:
    """0 when 10 uncut Galerkin steps equal the first 11 reference snapshots bitwise."""
    tw = runs(replace(REFERENCE_PARAMS, t_end=0.02, scheme="weak-galerkin")).snapshots
    ref = runs(REFERENCE_PARAMS).snapshots[:11]
    same = len(tw) == 11 and all(np.array_equal(a.coeffs, b.coeffs) for a, b in zip(tw, ref))
    return 0.0 if same else 1.0


def snapshot_bitwise_roundtrip(f: SpectralField) -> float:
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "probe.sns1"
        write_snapshot(path, f, nu=0.125)
        back, nu = read_snapshot(path)
        return 0.0 if np.array_equal(back.coeffs, f.coeffs) and nu == 0.125 else 1.0


def reconstruction_parseval(grid: GridSpec, weights: WeightPartition, spec: MollifierSpec) -> float:
    phi = shear_init(grid)
    return parseval_identity([_regularized_blend(grid, weights, spec)(phi, phi, phi)])


class VerifyInputs(NamedTuple):
    """What the checks share, built once per `verify_checks` call."""

    grid: GridSpec
    tg: SpectralField  # Taylor-Green datum on grid
    fields: list[SpectralField]  # 20 random solenoidal fields, seeds cfg.seed + 0..19
    weights: WeightPartition
    cfg: ExperimentConfig
    c_s: float  # commutator constant of fields[:10] at s = 2
    # n=4 mild shear run (nu = 1, dt = 1e-3, T = 1); built on first call, not held before
    shear: Callable[[], Trajectory]
    # run(tg, params), each built on first call and held until verify_checks returns
    runs: Runs


# (name, bound, value): a check passes when value(inputs) <= bound
CHECKS = (
    ("transform_roundtrip", 1e-12, lambda v: transform_roundtrip(v.fields)),
    ("parseval_identity", 1e-12, lambda v: parseval_identity(v.fields)),
    ("hermitian_preserved", 1e-13, lambda v: hermitian_preserved(v.grid, v.fields[:5])),
    ("sobolev_shear_values", 1e-12, lambda v: sobolev_shear_values(v.grid)),
    ("leray_idempotent", 1e-12, lambda v: leray_idempotent(v.fields[:10])),
    ("leray_self_adjoint", 1e-12, lambda v: leray_self_adjoint(v.fields[0], v.fields[1])),
    ("heat_semigroup_law", 1e-12, lambda v: heat_semigroup_law(v.fields[2])),
    ("heat_contraction", 0.0, lambda v: heat_contraction(v.fields[:10])),
    ("heat_block_decay", 0.0, lambda v: heat_block_decay(v.fields[3])),
    ("smoothing_contraction", 0.0, lambda v: smoothing_contraction(v.fields, (0.5, 0.1))),
    ("symbol_range_monotone", 0.0, lambda v: symbol_range_monotone()),
    ("smoothing_approximation_rate", 0.2, lambda v: smoothing_approximation_rate(v.grid)),
    ("smoothing_gain_exponent", 0.2, lambda v: smoothing_gain_exponent()),
    ("weights_partition_of_unity", 1e-15, lambda v: weights_partition_of_unity(v.grid, v.weights)),
    ("blend_binary_saturation", 0.0,
     lambda v: blend_binary_saturation(v.fields[4], v.fields[6], v.cfg.mollifier)),
    ("blend_disjoint_support_exact", 0.0,
     lambda v: blend_disjoint_support_exact(v.fields[7], v.fields[8], v.weights)),
    ("multiplier_heat_commutation", 1e-12,
     lambda v: multiplier_heat_commutation(v.fields[10], v.fields[11], v.cfg.mollifier)),
    ("unified_pipeline_collapse", 0.0,
     lambda v: unified_pipeline_collapse(v.grid, v.weights, v.cfg.mollifier, v.cfg.eps_list)),
    ("dyadic_reassembly", 1e-12, lambda v: dyadic_reassembly(v.fields)),
    ("dyadic_almost_orthogonality", 0.0, lambda v: dyadic_almost_orthogonality(v.fields)),
    ("bernstein_ratios", 1e-12, lambda v: bernstein_ratios(v.grid, v.fields[:10])),
    ("paraproduct_reassembly", 1e-10, lambda v: paraproduct_reassembly([v.tg])),
    ("advection_constant_envelope", 0.0,
     lambda v: advection_constant_envelope(v.grid, v.c_s, v.cfg.seed)),
    ("advection_shear_vanishes", 1e-13, lambda v: advection_shear_vanishes(v.grid)),
    ("advection_convolution_oracle", 1e-10,
     lambda v: advection_convolution_oracle([taylor_green_init(GridSpec(8))])),
    ("advection_energy_neutral", 1e-10, lambda v: advection_energy_neutral(v.fields[:5])),
    ("taylor_green_datum", 1e-13, lambda v: taylor_green_datum(v.tg)),
    ("pressure_gradient_bound", 1e-12, lambda v: pressure_gradient_bound(v.grid, v.fields)),
    ("lifespan_formula", 0.0, lambda v: lifespan_formula()),
    ("lifespan_bounded_run", 0.0, lambda v: lifespan_bounded_run(v.tg, v.c_s)),
    ("shear_exact_decay", 1e-6, lambda v: shear_exact_decay(v.shear())),
    ("shear_formulation_residuals", 1e-5,
     lambda v: shear_formulation_residuals(_head(v.shear(), 0.5))),
    ("energy_identity_second_order", 0.5, lambda v: energy_identity_second_order(v.runs)),
    ("scheme_coincidence_rate", 0.0, lambda v: scheme_coincidence_rate(v.runs, (4e-3, 2e-3, 1e-3))),
    ("galerkin_gap_monotone", 0.0, lambda v: galerkin_gap_monotone(v.runs, (4.0, 16.0, 36.0))),
    ("galerkin_full_is_strong", 0.0, lambda v: galerkin_full_is_strong(v.runs)),
    ("snapshot_bitwise_roundtrip", 0.0, lambda v: snapshot_bitwise_roundtrip(v.fields[12])),
    ("reconstruction_parseval", 1e-12,
     lambda v: reconstruction_parseval(
         v.grid, v.weights, MollifierSpec(v.cfg.eps_list[-1], v.cfg.mollifier))),
)


def verify_checks(cfg: ExperimentConfig) -> list[Check]:
    grid = GridSpec(cfg.n)
    tg = taylor_green_init(grid)
    fields = [random_solenoidal_init(grid, 2.0, cfg.seed + i) for i in range(20)]
    shear_params = SolverParams(nu=1.0, dt=1e-3, t_end=1.0, scheme="mild-duhamel")
    inputs = VerifyInputs(
        grid=grid,
        tg=tg,
        fields=fields,
        weights=WeightPartition(*cfg.weight_edges()),
        cfg=cfg,
        c_s=dyadic.commutator_constant(fields[:10], 2.0),
        shear=cache(lambda: run(shear_init(GridSpec(4)), shear_params)),
        runs=cache(lambda p: run(tg, p)),
    )
    return [Check(name, float(value(inputs)), bound) for name, bound, value in CHECKS]


# ----------------------------------------------------------------------
# experiments

def _json_value(value):
    """value with every non-finite float replaced by None: RFC 8259 JSON has no NaN."""
    if isinstance(value, float) and not math.isfinite(value):
        return None
    if isinstance(value, dict):
        return {k: _json_value(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_json_value(v) for v in value]
    return value


def _write_json(path: Path, payload: dict) -> None:
    """Indented JSON; a non-finite float is written as null."""
    text = json.dumps(_json_value(payload), indent=2, allow_nan=False)
    path.write_text(text + "\n", encoding="utf-8")


def experiment_verify(cfg: ExperimentConfig, out: Path) -> int:
    results = verify_checks(cfg)
    _write_json(out / "verify_summary.json", {"checks": [c.as_dict() for c in results]})
    return EXIT_OK if all(c.passed for c in results) else EXIT_CHECK_FAILED


PLOT_SCRIPT = """\
#!/usr/bin/env python3
# Plain-text companion: plots the diagnostics CSV sitting next to it.
# Requires only matplotlib; the toolkit itself never imports it.
import csv
import sys
from pathlib import Path

import matplotlib.pyplot as plt

path = Path(sys.argv[1] if len(sys.argv) > 1 else Path(__file__).parent / "diagnostics.csv")
rows = list(csv.DictReader(path.open()))
t = [float(r["t"]) for r in rows]
fig, axes = plt.subplots(2, 2, figsize=(9, 6), sharex=True)
for ax, keys in zip(
    axes.flat,
    (("energy", "enstrophy"), ("bkm",), ("res_weak", "res_mild", "res_strong"), ("h1", "h2", "h3")),
):
    for key in keys:
        ax.plot(t, [float(r[key]) for r in rows], label=key)
    ax.legend()
    ax.set_xlabel("t")
fig.tight_layout()
fig.savefig(path.with_suffix(".png"))
print("wrote", path.with_suffix(".png"))
"""


def experiment_run(cfg: ExperimentConfig, out: Path) -> int:
    """Stream the run into `out`: snapshot i is written when state i arrives, the
    manifest and `diagnostics.csv` after the last.  On a NumericalAbort the
    snapshots written move to `out/partial` beside their manifest, the layout
    `run_experiment` writes for a trajectory `run` attaches, and the abort
    propagates with none attached."""
    grid = GridSpec(cfg.n)
    u0 = _initial_field(cfg, grid)
    p = _solver_params(cfg)
    walk = diag.RecordPass(p)
    names = []
    try:
        for u, nl, h2, wmax in _states(u0, p, cfg.cadence):
            walk.push(u, nl, h2, wmax)
            names.append(_write_snap(out, len(names), u, p.nu, walk.rows[-1].div_defect))
    except NumericalAbort:
        partial = out / "partial"
        partial.mkdir(exist_ok=True)
        for name in names:
            os.replace(out / name, partial / name)
        _write_manifest(partial, p, grid.n, names)
        raise
    _write_manifest(out, p, grid.n, names)
    csv = diag.diagnostics_csv(walk.records())
    (out / "diagnostics.csv").write_text(csv, encoding="utf-8")
    (out / "plot_diagnostics.py").write_text(PLOT_SCRIPT, encoding="utf-8")
    return EXIT_OK


def experiment_unify(cfg: ExperimentConfig, out: Path) -> int:
    """Run the three schemes in lockstep, one (weak, mild, strong) snapshot
    triple alive at a time, and fold each eps's H^1 gap to the mild run into its
    worst; divide by the largest mild H^1 norm at the end."""
    grid = GridSpec(cfg.n)
    u0 = _initial_field(cfg, grid)
    weights = WeightPartition(*cfg.weight_edges())
    params = [_solver_params(cfg, s) for s in SCHEMES]
    merges = [
        _regularized_blend(grid, weights, MollifierSpec(e, cfg.mollifier)) for e in cfg.eps_list
    ]
    worst, norms = [-math.inf] * len(merges), []
    streams = [_states(u0, p, cfg.cadence) for p in params]
    try:
        # no time check: each stream stamps step m with u0.time + m * dt, one dt
        # and cadence for all three; map, not zip, whose reused result tuple
        # would keep an old triple alive
        for fs in map(lambda *states: [s[0] for s in states], *streams):
            norms.append(sobolev_norm(fs[1], 1.0))
            worst = [_worst(w, _diff_norm(m(*fs), fs[1], 1.0)) for w, m in zip(worst, merges)]
    except NumericalAbort:
        # report the first abort in SCHEMES order, with its partial trajectory:
        # the streams are deterministic, so that is running the schemes in turn
        for p in params:
            run(u0, p, cfg.cadence)
        raise
    ref_scale = max(_worst(*norms), 1e-300)
    errors = [w / ref_scale for w in worst]
    rows = [f"{eps!r},{err!r}" for eps, err in zip(cfg.eps_list, errors)]
    (out / "unify.csv").write_text("eps,h1_error\n" + "\n".join(rows) + "\n", encoding="utf-8")
    monotone = all(b <= a for a, b in zip(errors, errors[1:]))
    _write_json(out / "unify_summary.json", {
        "monotone_nonincreasing": monotone,
        "final_error": errors[-1],
    })
    return EXIT_OK if monotone else EXIT_CHECK_FAILED


def experiment_convergence(cfg: ExperimentConfig, out: Path) -> int:
    study = _smoothing_study(GridSpec(cfg.n), cfg.mollifier, cfg.eps_list)
    rows = [f"{float(e)!r},{float(err)!r}" for e, err in zip(study.eps, study.errors)]
    (out / "convergence.csv").write_text("eps,h1_error\n" + "\n".join(rows) + "\n", encoding="utf-8")
    bound = next(b for name, b, _ in CHECKS if name == "smoothing_approximation_rate")
    passed = study.exact or (
        study.slope is not None and _rate_defect(cfg.mollifier, study.slope) <= bound
    )
    _write_json(out / "convergence_summary.json", {
        "slope": study.slope,
        "monotone": study.monotone,
        "exact": study.exact,
        "pass": passed,
    })
    return EXIT_OK if passed else EXIT_CHECK_FAILED


def experiment_blocks(cfg: ExperimentConfig, out: Path) -> int:
    grid = GridSpec(cfg.n)
    u0 = _initial_field(cfg, grid)
    rows = [f"{j},{energy!r}" for j, energy in dyadic.block_energies(u0)]
    (out / "blocks.csv").write_text("j,energy\n" + "\n".join(rows) + "\n", encoding="utf-8")
    spec = MollifierSpec(cfg.eps_list[0], cfg.mollifier)
    kmax = int(math.floor(math.sqrt(3.0) * cfg.n / 2.0))
    sym_rows = [f"{k},{float(mollifier_symbol(spec, float(k)))!r}" for k in range(kmax + 1)]
    (out / "symbols.csv").write_text("k,value\n" + "\n".join(sym_rows) + "\n", encoding="utf-8")
    return EXIT_OK


def run_experiment(cfg: ExperimentConfig) -> int:
    """Dispatch a parsed config; returns the process exit code."""
    out = Path(cfg.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise RangeError(f"out: cannot create the output directory: {exc}") from None
    if cfg.experiment in ("run", "unify") and cfg.n % 3 == 0:
        print(f"notice: {_INEXACT_DEALIASING}", file=sys.stderr)
    dispatch = {
        "run": experiment_run,
        "verify": experiment_verify,
        "unify": experiment_unify,
        "convergence": experiment_convergence,
        "blocks": experiment_blocks,
    }
    try:
        # a non-finite value still ends in a typed error, so numpy need not warn
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return dispatch[cfg.experiment](cfg, out)
    except NumericalAbort as exc:
        (out / "abort.txt").write_text(f"numerical abort: {exc}\n", encoding="utf-8")
        # `run` attaches its partial trajectory; `experiment_run` has written its own
        if exc.trajectory is not None:
            write_trajectory(out / "partial", exc.trajectory)
        return EXIT_NUMERICAL_ABORT
