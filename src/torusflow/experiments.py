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
from dataclasses import dataclass, replace
from functools import cache
from pathlib import Path

import numpy as np

from . import diagnostics as diag
from . import dyadic
from .config import ExperimentConfig
from .errors import BlowUpDetected
from .operators import (
    MollifierSpec,
    WeightPartition,
    binary_cutoff,
    blend,
    mollifier_symbol,
    regularize,
    smooth,
    weight_eval,
    weighted_blend,
    weights_on_grid,
)
from .oracles import convolution_nonlinear_term
from .snapshots import read_snapshot, write_snapshot, write_trajectory
from .solvers import (
    SolverParams,
    Trajectory,
    lifespan_lower_bound,
    pressure_solve,
    random_solenoidal_init,
    run,
    shear_init,
    taylor_green_init,
)
from .spectral import (
    GridSpec,
    SpectralField,
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


def _slope(eps: list[float], errs: list[float]) -> float:
    return float(np.polyfit(np.log(eps), np.log(errs), 1)[0])


def _diff_norm(a: SpectralField, b: SpectralField, s: float = 0.0) -> float:
    return sobolev_norm(a.with_coeffs(a.coeffs - b.coeffs), s)


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
    f = SpectralField(grid, c, zero_mean=True)
    return f.with_coeffs(f.coeffs / l2_norm(f))


def verify_checks(cfg: ExperimentConfig) -> list[Check]:
    grid = GridSpec(cfg.n)
    kind = cfg.mollifier
    r1, r2 = cfg.weight_edges()
    weights = WeightPartition(r1, r2)
    fields = [random_solenoidal_init(grid, 2.0, cfg.seed + i) for i in range(20)]

    checks: list[tuple[str, object]] = []

    def add(name, fn):
        checks.append((name, fn))

    # --- transforms and multipliers -----------------------------------
    def c_roundtrip():
        worst = 0.0
        for f in fields:
            back = forward_transform(inverse_transform(f))
            worst = max(worst, np.max(np.abs(back.coeffs - f.coeffs)) / np.max(np.abs(f.coeffs)))
        return worst, 1e-12

    add("transform_roundtrip", c_roundtrip)

    def c_parseval():
        worst = 0.0
        for f in fields:
            phys = physical_l2_norm(inverse_transform(f)) ** 2
            spec = l2_norm(f) ** 2
            worst = max(worst, abs(phys - spec) / spec)
        return worst, 1e-12

    add("parseval_identity", c_parseval)

    def c_hermitian():
        sh = shear_init(grid)
        worst = hermitian_defect(nonlinear_term(sh))
        for f in fields[:5]:
            worst = max(worst, hermitian_defect(leray_project(f)))
            worst = max(worst, hermitian_defect(heat_semigroup(f, 1.0, 0.1)))
        return worst, 1e-13

    add("hermitian_preserved", c_hermitian)

    def c_sobolev_shear():
        sh = shear_init(grid)
        e0 = abs(sobolev_norm(sh, 0.0) - 1.0 / math.sqrt(2.0))
        e2 = abs(sobolev_norm(sh, 2.0) - math.sqrt(2.0))
        return max(e0, e2), 1e-12

    add("sobolev_shear_values", c_sobolev_shear)

    def c_leray_idempotent():
        worst = 0.0
        for f in fields[:10]:
            once = leray_project(f)
            twice = leray_project(once)
            worst = max(worst, _diff_norm(twice, once) / max(l2_norm(once), 1e-300))
        return worst, 1e-12

    add("leray_idempotent", c_leray_idempotent)

    def c_leray_self_adjoint():
        a, b = fields[0], fields[1]
        lhs = inner_product(leray_project(a), b)
        rhs = inner_product(a, leray_project(b))
        return abs(lhs - rhs) / max(abs(lhs), 1e-300), 1e-12

    add("leray_self_adjoint", c_leray_self_adjoint)

    def c_heat_semigroup_law():
        f = fields[2]
        one = heat_semigroup(heat_semigroup(f, 1.0, 0.3), 1.0, 0.7)
        two = heat_semigroup(f, 1.0, 1.0)
        return _diff_norm(one, two) / l2_norm(two), 1e-12

    add("heat_semigroup_law", c_heat_semigroup_law)

    def c_heat_contraction():
        worst = -math.inf
        for f in fields[:10]:
            hf = heat_semigroup(f, 1.0, 0.05)
            for s in (0.0, 1.0, 2.0, 3.0):
                worst = max(worst, sobolev_norm(hf, s) - sobolev_norm(f, s))
        return worst, 0.0

    add("heat_contraction", c_heat_contraction)

    def c_heat_block_decay():
        f = fields[3]
        nu, t = 0.5, 0.1
        hf = heat_semigroup(f, nu, t)
        part = dyadic.DyadicPartition.for_grid(grid)
        worst = -math.inf
        for j in part.indices:
            before = l2_norm(dyadic.dyadic_block(f, j, part))
            after = l2_norm(dyadic.dyadic_block(hf, j, part))
            worst = max(worst, after - math.exp(-nu * t * 4.0 ** (j - 1)) * before)
        return worst, 0.0

    add("heat_block_decay", c_heat_block_decay)

    # --- mollifier operators -------------------------------------------
    def c_smooth_contraction():
        worst = -math.inf
        for f in fields:
            for e in (0.5, 0.1):
                for kd in ("gaussian", "bump"):
                    sf = smooth(f, MollifierSpec(e, kd))
                    rf = regularize(f, MollifierSpec(e, kd))
                    for s in (0.0, 1.0, 2.0, 3.0):
                        base = sobolev_norm(f, s)
                        worst = max(worst, sobolev_norm(sf, s) - base)
                        worst = max(worst, sobolev_norm(rf, s) - base)
        return worst, 0.0

    add("smoothing_contraction", c_smooth_contraction)

    def c_symbol_range():
        r = np.linspace(0.0, 40.0, 4001)
        worst = 0.0
        for kd in ("gaussian", "bump"):
            vals = mollifier_symbol(MollifierSpec(1.0, kd), r)
            worst = max(worst, float(np.max(vals) - 1.0), float(-np.min(vals)))
            worst = max(worst, float(np.max(np.diff(vals))))
            worst = max(worst, abs(float(vals[0]) - 1.0))
        return worst, 0.0

    add("symbol_range_monotone", c_symbol_range)

    def c_smooth_rate():
        f = _decay_field(grid, -3.0)
        eps = [2.0**-k for k in range(1, 7)]
        for kd, lo, hi in (("gaussian", 1.8, 2.2), ("bump", 1.8, math.inf)):
            errs = [sobolev_norm(
                smooth(f, MollifierSpec(e, kd)).with_coeffs(
                    smooth(f, MollifierSpec(e, kd)).coeffs - f.coeffs
                ),
                1.0,
            ) for e in eps]
            slope = _slope(eps, errs)
            if not lo <= slope <= hi:
                return abs(slope - 2.0), 0.2
        return 0.0, 0.2

    add("smoothing_approximation_rate", c_smooth_rate)

    def c_smooth_gain():
        g64 = GridSpec(64)
        f = _rough_field(g64)
        eps = [2.0**-k for k in range(1, 6)]
        errs = [sobolev_norm(smooth(f, MollifierSpec(e, "gaussian")), 2.0) for e in eps]
        return abs(_slope(eps, errs) + 2.0), 0.2

    add("smoothing_gain_exponent", c_smooth_gain)

    def c_weight_partition():
        ww, wm, ws = weights_on_grid(weights, grid)
        defect = float(np.max(np.abs(ww + wm + ws - 1.0)))
        trip0 = weight_eval(weights, 0.0)
        defect = max(defect, abs(trip0[0] - 1.0), abs(trip0[1]), abs(trip0[2]))
        triph = weight_eval(weights, 1.25 * r2 + 1.0)
        defect = max(defect, abs(triph[2] - 1.0), abs(triph[0]), abs(triph[1]))
        mid = weight_eval(WeightPartition(4.0, 12.0), 8.0)
        defect = max(defect, abs(mid[1] - 1.0), abs(mid[0]), abs(mid[2]))
        return defect, 1e-15

    add("weights_partition_of_unity", c_weight_partition)

    def c_blend_binary_saturation():
        eta = binary_cutoff(4.0 * grid.k_magnitude)
        sat = float(np.max(eta[grid.k_squared >= 1.0]))
        out = blend(fields[4], fields[5], fields[6], weights, MollifierSpec(4.0, kind), "binary")
        d = np.abs(out.coeffs - fields[6].coeffs)
        d[:, 0, 0, 0] = 0.0
        return max(sat, float(np.max(d))), 0.0

    add("blend_binary_saturation", c_blend_binary_saturation)

    def c_blend_disjoint_support():
        r = grid.k_magnitude
        low = fields[7].with_coeffs(np.where(r <= r1 * 0.75, fields[7].coeffs, 0.0))
        high = fields[8].with_coeffs(np.where(r >= r2 * 1.25, fields[8].coeffs, 0.0))
        mid = fields[9].with_coeffs(np.zeros_like(fields[9].coeffs))
        g = weighted_blend(low, mid, high, weights)
        exact = np.array_equal(g.coeffs, low.coeffs + high.coeffs)
        return 0.0 if exact else 1.0, 0.0

    add("blend_disjoint_support_exact", c_blend_disjoint_support)

    def c_blend_commutes_with_heat():
        nu, t = 0.7, 0.2
        f, h = fields[10], fields[11]
        spec = MollifierSpec(0.25, kind)
        one = heat_semigroup(blend(f, f, h, weights, spec, "binary"), nu, t)
        two = blend(heat_semigroup(f, nu, t), heat_semigroup(f, nu, t),
                    heat_semigroup(h, nu, t), weights, spec, "binary")
        defect = _diff_norm(one, two) / max(l2_norm(one), 1e-300)
        sm1 = heat_semigroup(smooth(f, spec), nu, t)
        sm2 = smooth(heat_semigroup(f, nu, t), spec)
        defect = max(defect, _diff_norm(sm1, sm2) / max(l2_norm(sm1), 1e-300))
        rg1 = heat_semigroup(regularize(f, spec), nu, t)
        rg2 = regularize(heat_semigroup(f, nu, t), spec)
        defect = max(defect, _diff_norm(rg1, rg2) / max(l2_norm(rg1), 1e-300))
        return defect, 1e-12

    add("multiplier_heat_commutation", c_blend_commutes_with_heat)

    def c_pipeline_collapse():
        phi = shear_init(grid)
        base = sobolev_norm(phi, 1.0)
        errs = []
        for e in cfg.eps_list:
            spec = MollifierSpec(e, kind)
            reg = regularize(phi, spec)
            merged = smooth(blend(reg, reg, reg, weights, spec, "weighted"), spec)
            errs.append(_diff_norm(merged, phi, 1.0) / base)
        rising = max(b - a for a, b in zip(errs, errs[1:])) if len(errs) > 1 else 0.0
        return max(rising, errs[-1] - 1e-3), 0.0

    add("unified_pipeline_collapse", c_pipeline_collapse)

    # --- dyadic calculus ------------------------------------------------
    def c_lp_reassembly():
        part = dyadic.DyadicPartition.for_grid(grid)
        worst = 0.0
        for f in fields:
            re = dyadic.reassemble(f, part)
            worst = max(worst, np.max(np.abs(re.coeffs - f.coeffs)) / np.max(np.abs(f.coeffs)))
        return worst, 1e-12

    add("dyadic_reassembly", c_lp_reassembly)

    def c_lp_ao():
        part = dyadic.DyadicPartition.for_grid(grid)
        worst = 0.0
        for f in fields:
            ratio = dyadic.almost_orthogonality_ratio(f, part)
            worst = max(worst, ratio - 1.0, 0.5 - ratio)
        return worst, 0.0

    add("dyadic_almost_orthogonality", c_lp_ao)

    def c_bernstein():
        n = grid.n
        c = np.zeros((3, n, n, n), dtype=np.complex128)
        c[1, 3, 0, 0] = 0.5
        c[1, -3 % n, 0, 0] = 0.5
        single = SpectralField(grid, c)
        lhs, rhs = dyadic.bernstein_check(single, 2, (1, 0, 0), 2, 2)
        defect = abs(lhs / rhs - 0.75)
        part = dyadic.DyadicPartition.for_grid(grid)
        for f in fields[:10]:
            for j in (1, 2):
                blk = dyadic.dyadic_block(f, j, part)
                if l2_norm(blk) == 0.0:
                    continue
                lhs, rhs = dyadic.bernstein_check(blk, j, (1, 0, 0), 2, 2)
                defect = max(defect, lhs / rhs - 2.0)
        return defect, 1e-12

    add("bernstein_ratios", c_bernstein)

    def c_paraproduct():
        f = taylor_green_init(grid)
        p1, p2, p3 = dyadic.paraproduct_decompose(f)
        direct = advect(f, f)
        total = p1.coeffs + p2.coeffs + p3.coeffs
        return float(
            l2_norm(f.with_coeffs(total - direct.coeffs)) / max(l2_norm(direct), 1e-300)
        ), 1e-10

    add("paraproduct_reassembly", c_paraproduct)

    def c_commutator_envelope():
        cs = dyadic.commutator_constant(fields[:10], 2.0)
        fresh = [random_solenoidal_init(grid, 2.0, cfg.seed + 100 + i) for i in range(5)]
        worst = max(dyadic.commutator_bound_ratio(f, 2.0) for f in fresh)
        return worst - 1.5 * cs, 0.0

    add("advection_constant_envelope", c_commutator_envelope)

    # --- nonlinearity ---------------------------------------------------
    def c_nonlinear_shear():
        return l2_norm(nonlinear_term(shear_init(grid))), 1e-13

    add("advection_shear_vanishes", c_nonlinear_shear)

    def c_nonlinear_oracle():
        g8 = GridSpec(8)
        tg = taylor_green_init(g8)
        fast = nonlinear_term(tg)
        slow = convolution_nonlinear_term(tg)
        return _diff_norm(fast, slow) / l2_norm(slow), 1e-10

    add("advection_convolution_oracle", c_nonlinear_oracle)

    def c_nonlinear_orthogonal():
        worst = 0.0
        cut = grid.n // 4
        kk = grid.wavenumbers
        mask = (np.abs(kk[0]) <= cut) & (np.abs(kk[1]) <= cut) & (np.abs(kk[2]) <= cut)
        for f in fields[:5]:
            band = leray_project(f.with_coeffs(f.coeffs * mask))
            worst = max(
                worst, abs(inner_product(nonlinear_term(band), band)) / l2_norm(band) ** 3
            )
        return worst, 1e-10

    add("advection_energy_neutral", c_nonlinear_orthogonal)

    def c_tg_energy():
        tg = taylor_green_init(grid)
        mass = np.abs(tg.coeffs) ** 2
        on = float(mass[:, [1, -1]][:, :, [1, -1]][:, :, :, [1, -1]].sum())
        off = float(mass.sum() - on)
        return max(abs(diag.kinetic_energy(tg) - 0.125), off / mass.sum()), 1e-13

    add("taylor_green_datum", c_tg_energy)

    # --- pressure and lifespan ------------------------------------------
    def c_pressure():
        worst = l2_norm(pressure_solve(shear_init(grid)))
        for f in fields:
            pr = pressure_solve(f)
            conv = advect(f, f)
            ratio = l2_norm(gradient(pr)) / max(l2_norm(conv), 1e-300)
            worst = max(worst, ratio - 1.0)
        return worst, 1e-12

    add("pressure_gradient_bound", c_pressure)

    def c_lifespan():
        v1 = abs(lifespan_lower_bound(1.0, 0.0, 1.0, 1.0) - 0.25)
        v2 = abs(lifespan_lower_bound(2.0, 0.0, 1.0, 1.0) - 0.0625)
        return max(v1, v2), 0.0

    add("lifespan_formula", c_lifespan)

    def c_lifespan_run():
        tg = taylor_green_init(grid)
        c_s = dyadic.commutator_constant(fields[:10], 2.0)
        t0 = lifespan_lower_bound(sobolev_norm(tg, 2.0), 0.0, 0.1, c_s)
        steps = max(2, math.ceil(t0 / 2e-3))
        dt = t0 / steps
        p = SolverParams(nu=0.1, dt=dt, t_end=steps * dt, scheme="strong-imex")
        traj = run(tg, p, cadence=max(1, steps // 4))
        h2 = [sobolev_norm(s, 2.0) for s in traj.snapshots]
        return max(h2) / h2[0] - 2.0, 0.0

    add("lifespan_bounded_run", c_lifespan_run)

    # --- schemes ----------------------------------------------------------
    g4 = GridSpec(4)

    @cache
    def shear_run() -> Trajectory:
        # one T = 1 n=4 trajectory serves both shear checks
        p = SolverParams(nu=1.0, dt=1e-3, t_end=1.0, scheme="mild-duhamel")
        return run(shear_init(g4), p)

    def c_shear_decay():
        snaps = shear_run().snapshots
        ratio = diag.kinetic_energy(snaps[-1]) / diag.kinetic_energy(snaps[0])
        return abs(ratio - math.exp(-2.0)), 1e-6

    add("shear_exact_decay", c_shear_decay)

    def c_shear_residuals():
        full = shear_run()
        p = replace(full.params, t_end=0.5)
        traj = Trajectory(p, full.snapshots[:501])  # the t in [0, 0.5] prefix
        tests = diag.weak_test_battery(g4, 0.0, 0.5)
        rw = diag.weak_form_residual(traj, None, tests, p)
        mild, strong = diag.residual_defects(traj, p)  # one pass for both residuals
        return max(rw, mild[-1], max(strong)), 1e-5

    add("shear_formulation_residuals", c_shear_residuals)

    def c_energy_identity_order():
        tg = taylor_green_init(grid)
        sums = []
        for dt in (2e-3, 1e-3):
            p = SolverParams(nu=0.1, dt=dt, t_end=0.04, scheme="strong-imex")
            traj = run(tg, p)
            sums.append(float(np.sum(diag.energy_identity_residual(traj, p))))
        return abs(sums[0] / sums[1] - 4.0), 0.5

    add("energy_identity_second_order", c_energy_identity_order)

    def c_scheme_gap():
        tg = taylor_green_init(grid)
        gaps = []
        for dt in (4e-3, 2e-3, 1e-3):
            tm = run(tg, SolverParams(nu=0.1, dt=dt, t_end=0.048, scheme="mild-duhamel"))
            ts = run(tg, SolverParams(nu=0.1, dt=dt, t_end=0.048, scheme="strong-imex"))
            gaps.append(
                max(
                    sobolev_norm(a.with_coeffs(a.coeffs - b.coeffs), 1.0)
                    for a, b in zip(tm.snapshots, ts.snapshots)
                )
            )
        worst_factor = min(gaps[i] / gaps[i + 1] for i in range(len(gaps) - 1))
        return 3.0 - worst_factor, 0.0

    add("scheme_coincidence_rate", c_scheme_gap)

    def c_galerkin_monotone():
        tg = taylor_green_init(grid)
        full = run(tg, SolverParams(nu=0.1, dt=2e-3, t_end=0.048, scheme="strong-imex"))
        gaps = []
        for lam in (4.0, 16.0, 36.0):
            p = SolverParams(
                nu=0.1, dt=2e-3, t_end=0.048, scheme="weak-galerkin", galerkin_modes=lam
            )
            t = run(tg, p)
            gaps.append(_diff_norm(t.snapshots[-1], full.snapshots[-1]))
        return max(b - a for a, b in zip(gaps, gaps[1:])), 0.0

    add("galerkin_gap_monotone", c_galerkin_monotone)

    def c_weak_full_resolution_identity():
        tg = taylor_green_init(grid)
        pw = SolverParams(nu=0.1, dt=2e-3, t_end=0.02, scheme="weak-galerkin")
        ps = SolverParams(nu=0.1, dt=2e-3, t_end=0.02, scheme="strong-imex")
        tw, ts = run(tg, pw), run(tg, ps)
        same = all(np.array_equal(a.coeffs, b.coeffs) for a, b in zip(tw.snapshots, ts.snapshots))
        return 0.0 if same else 1.0, 0.0

    add("galerkin_full_is_strong", c_weak_full_resolution_identity)

    def c_snapshot_roundtrip():
        import tempfile

        with tempfile.TemporaryDirectory() as d:
            path = Path(d) / "probe.sns1"
            write_snapshot(path, fields[12], nu=0.125)
            back, nu = read_snapshot(path)
            ok = np.array_equal(back.coeffs, fields[12].coeffs) and nu == 0.125
        return 0.0 if ok else 1.0, 0.0

    add("snapshot_bitwise_roundtrip", c_snapshot_roundtrip)

    def c_reconstruction_parseval():
        phi = shear_init(grid)
        spec = MollifierSpec(cfg.eps_list[-1], kind)
        reg = regularize(phi, spec)
        merged = smooth(blend(reg, reg, reg, weights, spec, "weighted"), spec)
        phys = physical_l2_norm(inverse_transform(merged)) ** 2
        return abs(phys - l2_norm(merged) ** 2) / l2_norm(merged) ** 2, 1e-12

    add("reconstruction_parseval", c_reconstruction_parseval)

    results: list[Check] = []
    for name, fn in checks:
        value, bound = fn()
        results.append(Check(name, float(value), float(bound)))
    return results


# ----------------------------------------------------------------------
# experiments

def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")


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
    grid = GridSpec(cfg.n)
    u0 = _initial_field(cfg, grid)
    params = _solver_params(cfg)
    traj = run(u0, params, cadence=cfg.cadence)
    write_trajectory(out, traj)
    records = diag.records_for_trajectory(traj, params)
    (out / "diagnostics.csv").write_text(diag.diagnostics_csv(records), encoding="utf-8")
    (out / "plot_diagnostics.py").write_text(PLOT_SCRIPT, encoding="utf-8")
    return EXIT_OK


def experiment_unify(cfg: ExperimentConfig, out: Path) -> int:
    grid = GridSpec(cfg.n)
    u0 = _initial_field(cfg, grid)
    r1, r2 = cfg.weight_edges()
    weights = WeightPartition(r1, r2)
    trajs = {
        "weak": run(u0, _solver_params(cfg, "weak-galerkin"), cadence=cfg.cadence),
        "mild": run(u0, _solver_params(cfg, "mild-duhamel"), cadence=cfg.cadence),
        "strong": run(u0, _solver_params(cfg, "strong-imex"), cadence=cfg.cadence),
    }
    reference = trajs["mild"]
    ref_scale = max(max(sobolev_norm(s, 1.0) for s in reference.snapshots), 1e-300)
    rows = []
    errors = []
    for eps in cfg.eps_list:
        spec = MollifierSpec(eps, cfg.mollifier)
        merged = diag.unified_reconstruction(
            trajs["weak"], trajs["mild"], trajs["strong"], weights, spec
        )
        err = max(
            sobolev_norm(a.with_coeffs(a.coeffs - b.coeffs), 1.0)
            for a, b in zip(merged.snapshots, reference.snapshots)
        ) / ref_scale
        errors.append(err)
        rows.append(f"{eps!r},{err!r}")
    (out / "unify.csv").write_text("eps,h1_error\n" + "\n".join(rows) + "\n", encoding="utf-8")
    monotone = all(b <= a for a, b in zip(errors, errors[1:]))
    _write_json(out / "unify_summary.json", {
        "monotone_nonincreasing": monotone,
        "final_error": errors[-1],
    })
    return EXIT_OK if monotone else EXIT_CHECK_FAILED


def experiment_convergence(cfg: ExperimentConfig, out: Path) -> int:
    grid = GridSpec(cfg.n)
    f = _decay_field(grid, -3.0)
    study = diag.convergence_study(
        lambda e: smooth(f, MollifierSpec(e, cfg.mollifier)),
        list(cfg.eps_list),
        1.0,
        reference=f,
    )
    rows = [f"{e!r},{err!r}" for e, err in zip(study.eps, study.errors)]
    (out / "convergence.csv").write_text("eps,h1_error\n" + "\n".join(rows) + "\n", encoding="utf-8")
    if study.exact:
        passed = True
    elif cfg.mollifier == "gaussian":
        passed = study.slope is not None and 1.8 <= study.slope <= 2.2
    else:
        passed = study.slope is not None and study.slope >= 1.8
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
    out.mkdir(parents=True, exist_ok=True)
    dispatch = {
        "run": experiment_run,
        "verify": experiment_verify,
        "unify": experiment_unify,
        "convergence": experiment_convergence,
        "blocks": experiment_blocks,
    }
    try:
        return dispatch[cfg.experiment](cfg, out)
    except BlowUpDetected as exc:
        (out / "abort.txt").write_text(f"numerical abort: {exc}\n", encoding="utf-8")
        if exc.trajectory is not None:
            write_trajectory(out / "partial", exc.trajectory)
        return EXIT_NUMERICAL_ABORT
