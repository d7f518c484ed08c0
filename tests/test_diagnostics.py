import math
import weakref
from dataclasses import astuple

import numpy as np
import pytest

from conftest import count_calls, full_k_squared, full_leray
from torusflow import (
    GridSpec,
    MollifierSpec,
    SolverParams,
    SpectralField,
    PhysicalField,
    RecordPass,
    Trajectory,
    WeightPartition,
    convergence_study,
    diagnostics_csv,
    energy_identity_residual,
    enstrophy,
    forward_transform,
    kinetic_energy,
    l2_norm,
    parse_config,
    mild_residual,
    physical_l2_norm,
    inverse_transform,
    random_solenoidal_init,
    records_for_trajectory,
    run,
    shear_init,
    smooth,
    sobolev_norm,
    strong_residual,
    taylor_green_init,
    unified_reconstruction,
    vorticity_max,
    weak_form_residual,
    weak_test_battery,
)
from torusflow import diagnostics, experiments, snapshots, solvers, spectral
from torusflow.diagnostics import CSV_HEADER
from torusflow.experiments import shear_formulation_residuals
from torusflow.snapshots import read_trajectory, write_trajectory
from torusflow.spectral import _advect_arrays, _band_limited, _lattice_sum, _mirror, advect
from torusflow.errors import (
    BlowUpDetected,
    DegenerateSequence,
    NonSolenoidalTest,
    NumericalAbort,
    TimeGridMismatch,
    TooFewSnapshots,
)


@pytest.fixture(scope="module")
def shear_traj_fine():
    p = SolverParams(nu=1.0, dt=5e-4, t_end=0.2, scheme="mild-duhamel")
    return run(shear_init(GridSpec(4)), p)


def test_kinetic_energy_values(grid16):
    assert kinetic_energy(taylor_green_init(grid16)) == pytest.approx(0.125, abs=1e-14)
    assert kinetic_energy(shear_init(grid16)) == pytest.approx(0.25, abs=1e-14)
    zero = SpectralField.from_full(grid16, np.zeros((3, 16, 16, 16), dtype=complex))
    assert kinetic_energy(zero) == 0.0


def test_enstrophy_shear(grid16):
    # grad of sin(x1) e2 has L2 norm squared 1/2
    assert enstrophy(shear_init(grid16)) == pytest.approx(0.5, abs=1e-14)


def test_bkm_monitor_values(grid16):
    sh = shear_init(grid16)
    assert vorticity_max(sh) == pytest.approx(1.0, abs=1e-12)
    doubled = sh.with_coeffs(2.0 * sh.coeffs)
    assert vorticity_max(doubled) == pytest.approx(2.0, abs=1e-12)
    zero = SpectralField.from_full(grid16, np.zeros((3, 16, 16, 16), dtype=complex))
    assert vorticity_max(zero) == 0.0


@pytest.mark.parametrize("n", [4, 16])
def test_two_component_maxima_are_those_of_the_vector_norm(n):
    # u = (sin x3, sin x1, 0) is solenoidal, mean-free and band-limited; its
    # vorticity (0, cos x3, cos x1) reaches |w| = sqrt(2) at x1 = x3 = 0, and
    # u itself reaches sqrt(2) at x1 = x3 = pi/2, where a largest-component
    # maximum reads 1
    grid = GridSpec(n)
    c = np.zeros((3, n, n, n // 2 + 1), dtype=np.complex128)
    c[0, 0, 0, 1] = -0.5j
    c[1, 1, 0, 0] = -0.5j
    c[1, -1, 0, 0] = 0.5j
    u = SpectralField(grid, c)
    assert spectral.divergence_defect(u) == 0.0 and _band_limited(c, n)
    assert vorticity_max(u) == pytest.approx(math.sqrt(2.0), rel=1e-15)
    assert solvers._advection(c, grid)[1] == pytest.approx(math.sqrt(2.0), rel=1e-15)


@pytest.mark.parametrize("m", [4, 6, 8])
def test_time_quadrature_integrates_linear_functions_on_an_even_node_count(m):
    # Simpson on the first m - 1 nodes and the trapezoid on the last gap are
    # both exact for 1 and t; the gap's weight sits on its two end nodes
    times = 1.0 + 0.25 * np.arange(m)
    w = diagnostics._time_quadrature_weights(times)
    assert np.sum(w) == pytest.approx(times[-1] - times[0], rel=1e-15)
    assert np.sum(w * times) == pytest.approx(0.5 * (times[-1] ** 2 - times[0] ** 2), rel=1e-15)


def test_bkm_decays_along_shear_trajectory(shear_traj_fine):
    traj = shear_traj_fine
    for snap in traj.snapshots[:: len(traj.snapshots) // 4]:
        assert vorticity_max(snap) == pytest.approx(math.exp(-snap.time), rel=1e-10)


def test_energy_identity_shear_per_interval(shear_traj_fine):
    defects = energy_identity_residual(shear_traj_fine)
    assert defects.max() <= 1e-10


def test_energy_identity_zero_trajectory(grid8):
    zero = SpectralField.from_full(grid8, np.zeros((3, 8, 8, 8), dtype=complex))
    traj = run(zero, SolverParams(nu=1.0, dt=1e-2, t_end=0.05))
    assert energy_identity_residual(traj).max() == 0.0


def test_energy_identity_needs_two_snapshots(grid8):
    traj = run(shear_init(grid8), SolverParams(nu=1.0, dt=1e-2, t_end=0.0))
    with pytest.raises(TooFewSnapshots):
        energy_identity_residual(traj)


def test_energy_identity_richardson_ratio(grid16):
    tg = taylor_green_init(grid16)
    sums = []
    for dt in (2e-3, 1e-3):
        p = SolverParams(nu=0.1, dt=dt, t_end=0.04, scheme="strong-imex")
        sums.append(float(np.sum(energy_identity_residual(run(tg, p)))))
    assert sums[0] / sums[1] == pytest.approx(4.0, abs=0.5)


def test_weak_residual_shear_quadrature_level(shear_traj_fine):
    traj = shear_traj_fine
    modes = weak_test_battery(traj.grid)
    assert len(modes) == 12
    assert weak_form_residual(traj, modes) <= 1e-10


def test_weak_residual_orthogonal_mode_vanishes(shear_traj_fine):
    traj = shear_traj_fine
    # modes polarized off e2 never see the shear flow sin(x1) e2
    orthogonal = [v for v in weak_test_battery(traj.grid) if not np.any(v.coeffs[1])]
    assert len(orthogonal) == 8
    assert weak_form_residual(traj, orthogonal) <= 1e-14


def test_weak_residual_taylor_green_orthogonal_battery(grid8):
    # the Taylor-Green cascade never populates |k| = 1 modes, so the whole
    # battery is spectrally orthogonal to the trajectory
    tg = taylor_green_init(grid8)
    p = SolverParams(nu=0.1, dt=2e-3, t_end=0.08, scheme="strong-imex")
    traj = run(tg, p)
    assert weak_form_residual(traj, weak_test_battery(grid8)) <= 1e-15


def test_weak_residual_rejects_divergent_test(shear_traj_fine, grid8):
    traj = shear_traj_fine
    modes = weak_test_battery(traj.grid)
    bad_coeffs = np.zeros_like(modes[0].coeffs)
    bad_coeffs[0, 1, 0, 0] = 1.0j
    bad_coeffs[0, -1, 0, 0] = -1.0j
    bad = modes[0].with_coeffs(bad_coeffs)
    with pytest.raises(NonSolenoidalTest):
        weak_form_residual(traj, [bad])


def test_weak_residual_second_order(grid8):
    # datum with strong low-mode nonlinearity so the scheme error registers
    # against the |k| = 1 battery
    u0 = random_solenoidal_init(grid8, 1.5, 3)
    u0 = u0.with_coeffs(u0.coeffs * 4.0)
    residuals = []
    for dt in (4e-3, 2e-3, 1e-3):
        p = SolverParams(nu=0.1, dt=dt, t_end=0.08, scheme="strong-imex")
        traj = run(u0, p)
        residuals.append(weak_form_residual(traj, weak_test_battery(grid8)))
    assert residuals[0] > residuals[1] > residuals[2]
    assert residuals[1] / residuals[2] == pytest.approx(4.0, abs=1.2)


def test_mild_residual_shear(shear_traj_fine):
    assert mild_residual(shear_traj_fine) <= 1e-10


def test_shear_strong_residual_second_order():
    # on the closed-form trajectory the only error is the centered stencil
    grid = GridSpec(4)
    values = []
    for dt in (1e-3, 5e-4):
        p = SolverParams(nu=1.0, dt=dt, t_end=0.1, scheme="mild-duhamel")
        values.append(strong_residual(run(shear_init(grid), p)))
    assert values[0] / values[1] == pytest.approx(4.0, abs=0.5)


def test_mild_residual_zero_horizon(grid8):
    traj = run(shear_init(grid8), SolverParams(nu=1.0, dt=1e-2, t_end=0.0))
    assert mild_residual(traj) == 0.0


def test_mild_residual_second_order_on_taylor_green(grid8):
    tg = taylor_green_init(grid8)
    residuals = []
    for dt in (2e-3, 1e-3):
        p = SolverParams(nu=0.1, dt=dt, t_end=0.08, scheme="strong-imex")
        residuals.append(mild_residual(run(tg, p)))
    assert residuals[0] / residuals[1] == pytest.approx(4.0, abs=1.2)


def test_strong_residual_shear_centered_difference_level(shear_traj_fine):
    # third time derivative of e^{-t} is O(1): centered error ~ dt^2 / 6
    assert strong_residual(shear_traj_fine) <= 1e-6


def test_residuals_on_manufactured_steady_state(grid8):
    # u = shear with f = nu * u balances viscosity exactly: the constant
    # trajectory must satisfy the pointwise equation and the Duhamel
    # identity (whose forcing integral is evaluated in closed form)
    nu = 1.0
    sh = shear_init(grid8)
    forcing = sh.with_coeffs(nu * sh.coeffs)
    p = SolverParams(nu=nu, dt=1e-2, t_end=0.03, scheme="mild-duhamel", forcing=forcing)
    snaps = [sh.with_coeffs(sh.coeffs, time=t) for t in (0.0, 0.01, 0.02, 0.03)]
    traj = Trajectory(p, snaps)
    assert strong_residual(traj) <= 1e-10
    assert mild_residual(traj) <= 1e-10


def test_residuals_on_manufactured_inviscid_forced_flow(grid8):
    # shear is a steady Euler flow, so u = (1 + t) shear with f = shear solves
    # the inviscid equation; at nu = 0 the forcing's Duhamel factor is t at
    # every mode (phi1(0) = 1), and the identity holds to the bit
    sh = shear_init(grid8)
    p = SolverParams(nu=0.0, dt=1e-2, t_end=0.03, scheme="mild-duhamel", forcing=sh)
    snaps = [sh.with_coeffs((1.0 + t) * sh.coeffs, time=t) for t in (0.0, 0.01, 0.02, 0.03)]
    traj = Trajectory(p, snaps)
    assert mild_residual(traj) == 0.0
    assert strong_residual(traj) <= 1e-15


def test_strong_residual_zero_trajectory(grid8):
    zero = SpectralField.from_full(grid8, np.zeros((3, 8, 8, 8), dtype=complex))
    p = SolverParams(nu=1.0, dt=1e-2, t_end=0.05)
    traj = run(zero, p)
    assert strong_residual(traj) == 0.0
    with pytest.raises(TooFewSnapshots):
        strong_residual(Trajectory(p, traj.snapshots[:2]))


def test_unified_reconstruction_identical_triple(grid32):
    tg = taylor_green_init(grid32)
    p = SolverParams(nu=0.1, dt=2e-3, t_end=0.008, scheme="strong-imex")
    traj = run(tg, p)
    w = WeightPartition(4.0, 12.0)
    errors = []
    for eps in [2.0**-k for k in range(2, 9)]:
        merged = unified_reconstruction(traj, traj, traj, w, MollifierSpec(eps, "gaussian"))
        err = max(
            sobolev_norm(a.with_coeffs(a.coeffs - b.coeffs), 1.0)
            / sobolev_norm(b, 1.0)
            for a, b in zip(merged, traj.snapshots)
        )
        errors.append(err)
    assert all(b <= a for a, b in zip(errors, errors[1:]))
    assert errors[-1] <= 1e-3


def test_unified_reconstruction_zero_trajectories(grid8):
    zero = SpectralField.from_full(grid8, np.zeros((3, 8, 8, 8), dtype=complex))
    p = SolverParams(nu=1.0, dt=1e-2, t_end=0.03)
    traj = run(zero, p)
    merged = unified_reconstruction(
        traj, traj, traj, WeightPartition(1.0, 3.0), MollifierSpec(0.1, "gaussian")
    )
    assert all(l2_norm(s) == 0.0 for s in merged)


def test_unified_reconstruction_shear_closed_form(grid8):
    p = SolverParams(nu=1.0, dt=1e-2, t_end=0.05, scheme="mild-duhamel")
    traj = run(shear_init(grid8), p)
    w = WeightPartition(1.0, 3.0)
    merged = unified_reconstruction(
        traj, traj, traj, w, MollifierSpec(2.0**-8, "gaussian")
    )
    sh = shear_init(grid8)
    worst = 0.0
    for snap in merged:
        exact = sh.with_coeffs(math.exp(-snap.time) * sh.coeffs)
        worst = max(
            worst,
            sobolev_norm(snap.with_coeffs(snap.coeffs - exact.coeffs), 1.0)
            / sobolev_norm(exact, 1.0),
        )
    # operator-eps error dominates; quadrature/time-scheme error is 1e-10 level
    assert worst <= 1e-3


def test_unified_reconstruction_parseval(grid8):
    p = SolverParams(nu=1.0, dt=1e-2, t_end=0.03, scheme="mild-duhamel")
    traj = run(shear_init(grid8), p)
    merged = unified_reconstruction(
        traj, traj, traj, WeightPartition(1.0, 3.0), MollifierSpec(0.05, "gaussian")
    )
    for snap in merged:
        lattice = physical_l2_norm(inverse_transform(snap)) ** 2
        assert abs(lattice - l2_norm(snap) ** 2) <= 1e-12 * l2_norm(snap) ** 2


def test_unified_reconstruction_time_mismatch(grid8):
    p = SolverParams(nu=1.0, dt=1e-2, t_end=0.03, scheme="mild-duhamel")
    a = run(shear_init(grid8), p)
    p2 = SolverParams(nu=1.0, dt=1.5e-2, t_end=0.045, scheme="mild-duhamel")
    b = run(shear_init(grid8), p2)
    with pytest.raises(TimeGridMismatch):
        unified_reconstruction(a, b, a, WeightPartition(1.0, 3.0), MollifierSpec(0.1))


def test_convergence_study_gaussian_slope(grid16):
    f = smooth_target(grid16)
    study = convergence_study(
        lambda e: smooth(f, MollifierSpec(e, "gaussian")),
        [2.0**-k for k in range(1, 7)],
        1.0,
        reference=f,
    )
    assert study.slope == pytest.approx(2.0, abs=0.2)
    assert study.monotone
    assert not study.exact


def test_convergence_study_bump_slope(grid16):
    f = smooth_target(grid16)
    study = convergence_study(
        lambda e: smooth(f, MollifierSpec(e, "bump")),
        [2.0**-k for k in range(1, 7)],
        1.0,
        reference=f,
    )
    assert study.slope is not None and study.slope >= 1.8


def test_convergence_study_constant_field_exact(grid8):
    c = np.zeros((3, 8, 8, 8), dtype=complex)
    c[0, 0, 0, 0] = 1.0
    f = SpectralField.from_full(grid8, c)
    study = convergence_study(
        lambda e: smooth(f, MollifierSpec(e, "gaussian")),
        [0.5, 0.25, 0.125, 0.0625],
        1.0,
        reference=f,
    )
    assert study.exact
    assert study.slope is None


def test_convergence_study_degenerate_sequences(grid8):
    f = shear_init(grid8)
    build = lambda e: smooth(f, MollifierSpec(e, "gaussian"))
    with pytest.raises(DegenerateSequence):
        convergence_study(build, [0.5, 0.25, 0.125], 1.0, reference=f)
    with pytest.raises(DegenerateSequence):
        convergence_study(build, [0.5, 0.25, 0.25, 0.125], 1.0, reference=f)


def smooth_target(grid):
    c = np.repeat(((1.0 + grid.k_squared) ** -3.0)[None], 3, axis=0).astype(complex)
    return SpectralField(grid, c)


def _forced_steady_shear():
    # the manufactured steady state: f = nu * u balances viscosity on the shear
    nu = 1.0
    sh = shear_init(GridSpec(8))
    forcing = sh.with_coeffs(nu * sh.coeffs)
    p = SolverParams(nu=nu, dt=1e-2, t_end=0.04, scheme="mild-duhamel", forcing=forcing)
    snaps = [sh.with_coeffs(sh.coeffs, time=t) for t in (0.0, 0.01, 0.02, 0.03, 0.04)]
    return Trajectory(p, snaps)


@pytest.mark.parametrize("case", ["unforced", "forced"])
def test_records_and_csv(case, shear_traj_fine, monkeypatch):
    if case == "unforced":
        short = Trajectory(shear_traj_fine.params, shear_traj_fine.snapshots[:5])
    else:
        short = _forced_steady_shear()
    # one advection per snapshot serves the weak, mild and strong defects
    calls = count_calls(monkeypatch, "_advect_arrays")
    records = records_for_trajectory(short)
    assert calls["_advect_arrays"] == len(short.snapshots) == 5
    calls["_advect_arrays"] = 0
    shear_formulation_residuals(short)
    assert calls["_advect_arrays"] == 5
    monkeypatch.undo()
    assert records[-1].res_mild == mild_residual(short)
    assert max(r.res_strong for r in records) == strong_residual(short)
    text = diagnostics_csv(records)
    lines = text.strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert len(lines) == 6
    for rec in records:
        rec.validate()
        assert rec.h1 <= rec.h2 <= rec.h3
    # shortest round-trip decimals: parsing back reproduces the floats
    first = lines[1].split(",")
    assert float(first[1]) == records[0].energy
    assert [float(v) for v in first[-3:]] == [records[0].h1, records[0].h2, records[0].h3]
    # determinism
    assert diagnostics_csv(records) == text


# ----------------------------------------------------------------------
# the separate weak walk and the mild/strong pass that `residual_defects`
# replaced, and the battery that carried its own time bump, kept as the
# reference its values must equal bitwise; they work on full (3, n, n, n)
# spectra and reduce the stored half [..., :n//2+1] with the weighted half sum


def _half_sum(x):
    n = x.shape[-1]
    return _lattice_sum(x[..., : n // 2 + 1], n)


def _full_sobolev_norm(c, k2, s):
    mag2 = c.real**2 + c.imag**2
    if s == 0.0:
        return math.sqrt(_half_sum(mag2))
    return math.sqrt(_half_sum((1.0 + k2) ** s * mag2))


def _full_inner_product(a, b):
    return _half_sum((a * np.conj(b)).real)


def _reference_weak_test_battery(grid, t0, t1, times=None):
    if t1 <= t0:
        raise ValueError("need t1 > t0")
    span = t1 - t0
    lo = t0 + span / 8.0
    h = 3.0 * span / 16.0
    if times is not None and len(times) >= 13:
        dts = np.diff(np.asarray(times, dtype=float))
        if np.allclose(dts, dts[0], rtol=1e-9, atol=0.0):
            panel = 2.0 * float(dts[0])
            h = panel * max(1, round(h / panel))
            while 4.0 * h >= span - 2.0 * panel and h > panel:
                h -= panel
            lo = t0 + panel * max(1, round((span - 4.0 * h) / (2.0 * panel)))

    def bump(t):
        return diagnostics._cubic_bspline((t - lo) / h)[0]

    def bump_dt(t):
        return diagnostics._cubic_bspline((t - lo) / h)[1] / h

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
    return modes, bump, bump_dt


def _reference_weak_form_residual(traj, tests, p):
    modes, bump, bump_dt = tests
    snaps = traj.snapshots
    times = traj.times
    qw = diagnostics._time_quadrature_weights(times)

    conv = [advect(s, s).full() for s in snaps]
    full = [s.full() for s in snaps]
    forcing = None if p.forcing is None else p.forcing.full()
    k2 = full_k_squared(traj.grid)
    worst = 0.0
    for mode in modes:
        v = mode.full()
        total = 0.0
        for m, s in enumerate(snaps):
            b = bump(s.time)
            bdot = bump_dt(s.time)
            term = bdot * _full_inner_product(full[m], v)
            if b != 0.0:
                term -= b * _full_inner_product(conv[m], v)
                term -= p.nu * b * _half_sum(k2 * (full[m] * np.conj(v)).real)
                if forcing is not None:
                    term += b * _full_inner_product(forcing, v)
            total += qw[m] * term
        total += bump(snaps[0].time) * _full_inner_product(full[0], v)
        span = float(times[-1] - times[0])
        bump_scale = math.sqrt(
            sum(qw[m] * (bump(t) ** 2 + bump_dt(t) ** 2) for m, t in enumerate(times))
        )
        norm = bump_scale * _full_sobolev_norm(v, k2, 1.0) * max(span, 1.0)
        worst = max(worst, abs(total) / norm)
    return worst


def _reference_residual_defects(traj, p):
    snaps = traj.snapshots
    full = [s.full() for s in snaps]
    grid = traj.grid
    k2 = full_k_squared(grid)
    norm0 = _full_sobolev_norm(full[0], k2, 1.0)
    scale = norm0 if norm0 > 0.0 else 1.0
    forcing = None if p.forcing is None else p.forcing.full()

    def proj_nl(m):
        u = snaps[m].coeffs
        return full_leray(_mirror(_advect_arrays(u, u, grid)[0], grid.n), grid)

    def strong_defect(m, nl):
        u = snaps[m]
        dt_left = u.time - snaps[m - 1].time
        dt_right = snaps[m + 1].time - u.time
        dudt = (full[m + 1] - full[m - 1]) / (dt_left + dt_right)
        res = dudt + nl + p.nu * k2 * full[m]
        if forcing is not None:
            res = res - forcing
        return _full_sobolev_norm(res, k2, 0.0)

    mild = [0.0]
    strong = [0.0] * len(snaps)
    integral = np.zeros_like(full[0])
    propagated = full[0].copy()
    n_prev = proj_nl(0)
    for m in range(1, len(snaps)):
        if m >= 2:
            strong[m - 1] = strong_defect(m - 1, n_prev)
        dt = snaps[m].time - snaps[m - 1].time
        decay = np.exp(-p.nu * dt * k2)
        n_curr = proj_nl(m)
        integral = decay * (integral + 0.5 * dt * n_prev) + 0.5 * dt * n_curr
        propagated = decay * propagated
        expected = propagated - integral
        if forcing is not None:
            t = snaps[m].time - snaps[0].time
            z = -p.nu * t * k2
            denom = p.nu * k2
            safe = np.where(denom > 0.0, denom, 1.0)
            phi = np.where(denom > 0.0, -np.expm1(z) / safe, t)
            expected = expected + phi * forcing
        mild.append(_full_sobolev_norm(full[m] - expected, k2, 1.0) / scale)
        n_prev = n_curr
    return mild, strong


def _random_strong_imex_8():
    u0 = random_solenoidal_init(GridSpec(8), 1.5, 3)
    u0 = u0.with_coeffs(u0.coeffs * 4.0)
    return run(u0, SolverParams(nu=0.1, dt=2e-3, t_end=0.08, scheme="strong-imex"))


def _mild_duhamel_16_cadence_3():
    p = SolverParams(nu=0.1, dt=2e-3, t_end=0.072, scheme="mild-duhamel")
    return run(random_solenoidal_init(GridSpec(16), 2.0, 7), p, cadence=3)


@pytest.mark.parametrize("t0", [0.0, 0.3], ids=["t0-zero", "t0-shifted"])
@pytest.mark.parametrize("steps", [
    (0, 1), tuple(range(12)), tuple(range(13)), tuple(range(501)), (0, 3, 6, 9, 10),
], ids=["2", "12", "13-snapped", "501", "cadence-3-tail"])
def test_the_time_bump_vanishes_with_its_derivative_at_both_end_times(steps, t0):
    # the weak residual relies on this: it carries no initial-datum term
    times = t0 + 2e-3 * np.asarray(steps, dtype=float)
    bump, bump_dt = diagnostics._time_bump(times)
    assert (bump[0], bump_dt[0], bump[-1], bump_dt[-1]) == (0.0, 0.0, 0.0, 0.0)
    if len(steps) == 13:
        # the first snapped grid: support [t0 + 2 dt, t0 + 10 dt], knots at round-off
        support = {i for i, b in enumerate(bump) if b != 0.0}
        assert set(range(3, 10)) <= support <= set(range(2, 11))


@pytest.mark.parametrize("case", ["shear", "forced", "random8", "mild16-cadence3"])
def test_one_pass_equals_separate_walks_bitwise(case, shear_traj_fine):
    traj = {
        "shear": lambda: shear_traj_fine,
        "forced": _forced_steady_shear,
        "random8": _random_strong_imex_8,
        "mild16-cadence3": _mild_duhamel_16_cadence_3,
    }[case]()
    times = traj.times
    modes = weak_test_battery(traj.grid)
    mild, strong, weak = diagnostics.residual_defects(traj, modes)
    ref_mild, ref_strong = _reference_residual_defects(traj, traj.params)
    ref_tests = _reference_weak_test_battery(traj.grid, times[0], times[-1], times=times)
    assert all(np.array_equal(a.coeffs, b.coeffs) for a, b in zip(modes, ref_tests[0]))
    assert weak == _reference_weak_form_residual(traj, ref_tests, traj.params)
    assert weak > 0.0 or case == "forced"
    assert mild == ref_mild
    assert strong == ref_strong
    assert diagnostics.residual_defects(traj) == (ref_mild, ref_strong, 0.0)


def test_a_weak_pass_refuses_test_modes_without_snapshot_times():
    p = SolverParams(nu=0.1, dt=1e-3, t_end=2e-3)
    with pytest.raises(ValueError, match="snapshot times"):
        RecordPass(p, weak_test_battery(GridSpec(8)))


class _OutOfPlacePass(RecordPass):
    """The records pass with the mild recurrence it had before the integral
    was updated in place: each step builds a new integral and a new diff."""

    def _enter(self, m, a):
        snaps, p, u = self.snaps, self.p, self.snaps[m]
        k2, n = u.grid.k_squared, u.grid.n
        forcing = None if p.forcing is None else p.forcing.coeffs
        self.strong.append(0.0)
        if m >= 2:
            self.strong[m - 1] = self._strong_defect(m - 1, forcing)
        if a is None:
            a = -spectral.leray_project(advect(u, u)).coeffs
        if self._modes:
            b, bdot = self._bump[m], self._bump_dt[m]
            for i, mode in enumerate(self._modes):
                term = bdot * spectral.inner_product(u, mode)
                if b != 0.0:
                    term += b * _lattice_sum((a * np.conj(mode.coeffs)).real, n)
                    term -= p.nu * b * _lattice_sum(k2 * (u.coeffs * np.conj(mode.coeffs)).real, n)
                    if forcing is not None:
                        term += b * spectral.inner_product(p.forcing, mode)
                self.weak[i] += self._qw[m] * term
        if m == 0:
            norm0 = sobolev_norm(u, 1.0)
            self._scale = norm0 if norm0 > 0.0 else 1.0
            self._t0 = u.time
            self._integral = np.zeros_like(u.coeffs)
            self._propagated = u.coeffs
            self.mild.append(0.0)
        else:
            dt = u.time - snaps[m - 1].time
            decay = np.exp(-p.nu * dt * k2)
            self._integral = decay * (self._integral + 0.5 * dt * self._a) + 0.5 * dt * a
            self._propagated = decay * self._propagated
            expected = self._propagated + self._integral
            if forcing is not None:
                t = u.time - self._t0
                z = -p.nu * t * k2
                denom = p.nu * k2
                safe = np.where(denom > 0.0, denom, 1.0)
                phi = np.where(denom > 0.0, -np.expm1(z) / safe, t)
                expected = expected + phi * forcing
            diff = u.with_coeffs(u.coeffs - expected)
            self.mild.append(sobolev_norm(diff, 1.0) / self._scale)
        self._a = a


@pytest.mark.parametrize("cadence", [1, 3])
@pytest.mark.parametrize("forced", [False, True], ids=["unforced", "forced"])
@pytest.mark.parametrize("scheme", ["strong-imex", "mild-duhamel"])
def test_the_in_place_mild_recurrence_equals_the_out_of_place_one_bitwise(scheme, forced, cadence):
    grid = GridSpec(8)
    u0 = random_solenoidal_init(grid, 1.5, 3)
    u0 = u0.with_coeffs(u0.coeffs * 4.0)
    p = _stream_params(scheme, forced, grid)
    traj = run(u0, p, cadence=cadence)
    times, modes = traj.times, weak_test_battery(grid)
    passes = RecordPass(p, modes, times), _OutOfPlacePass(p, modes, times)
    for walk in passes:
        for u in traj.snapshots:
            walk.push(u)
    assert all(d > 0.0 for d in passes[1].mild[1:])
    for name in ("weak", "mild", "strong"):
        bits = [np.asarray(getattr(w, name)).view(np.uint64) for w in passes]
        assert np.array_equal(*bits), name


def test_weak_residual_without_an_interior_snapshot_is_refused(grid8):
    # the bump vanishes at both end times, so two snapshots leave nothing to
    # weigh; it used to come out as 0/0
    traj = run(taylor_green_init(grid8), SolverParams(nu=0.1, dt=1e-2, t_end=1e-2))
    assert len(traj.snapshots) == 2
    modes = weak_test_battery(grid8)
    with pytest.raises(TooFewSnapshots, match="interior snapshot"):
        weak_form_residual(traj, modes)
    with pytest.raises(TooFewSnapshots, match="interior snapshot"):
        diagnostics.residual_defects(traj, modes)
    with pytest.raises(TooFewSnapshots, match="interior snapshot"):
        diagnostics.residual_defects(Trajectory(traj.params, traj.snapshots[:1]), modes)
    # without modes the mild and strong defects stand; three snapshots are enough
    mild, strong, weak = diagnostics.residual_defects(traj)
    assert (len(mild), strong, weak) == (2, [0.0, 0.0], 0.0)
    assert mild_residual(traj) == mild[-1] and math.isfinite(mild[-1])
    longer = run(taylor_green_init(grid8), SolverParams(nu=0.1, dt=1e-2, t_end=2e-2))
    assert math.isfinite(weak_form_residual(longer, modes))


def test_nan_snapshot_poisons_weak_and_strong_residuals(grid8):
    traj = run(taylor_green_init(grid8), SolverParams(nu=0.1, dt=1e-2, t_end=0.1))
    snaps = list(traj.snapshots)
    c = snaps[5].coeffs.copy()
    c[0, 1, 2, 3] = math.nan
    snaps[5] = snaps[5].with_coeffs(c)
    poisoned = Trajectory(traj.params, snaps)
    assert math.isnan(weak_form_residual(poisoned, weak_test_battery(grid8)))
    assert math.isnan(strong_residual(poisoned))


# ----------------------------------------------------------------------
# the records pass fed by the solver's stream against the same pass over the
# stored trajectory


def _record_bits(records):
    return np.array([astuple(r) for r in records]).view(np.uint64)


def _stream_params(scheme, forced, grid):
    return SolverParams(
        nu=0.1, dt=2e-3, t_end=0.02, scheme=scheme,
        galerkin_modes=6.0 if scheme == "weak-galerkin" else None,
        forcing=shear_init(grid) if forced else None,
    )


@pytest.mark.parametrize("cadence", [1, 3])
@pytest.mark.parametrize("forced", [False, True], ids=["unforced", "forced"])
@pytest.mark.parametrize("scheme", ["strong-imex", "mild-duhamel", "weak-galerkin"])
@pytest.mark.parametrize("datum", ["random", "zero"])
def test_online_records_equal_stored_records_bitwise(scheme, forced, cadence, datum):
    grid = GridSpec(8)
    u0 = random_solenoidal_init(grid, 1.5, 3)
    # the zero datum switches the guard off: no norm or vorticity maximum is handed over
    u0 = u0.with_coeffs(u0.coeffs * (4.0 if datum == "random" else 0.0))
    p = _stream_params(scheme, forced, grid)
    handed = []
    online = RecordPass(p)
    for u, a, h2, wmax in solvers._states(u0, p, cadence):
        handed.append((a is not None, h2 is not None, wmax is not None))
        online.push(u, a, h2, wmax)
    traj = run(u0, p, cadence=cadence)
    assert np.array_equal(_record_bits(online.records()),
                          _record_bits(records_for_trajectory(traj)))
    # every state but the last, forced or not, comes with the advection term
    # the step from it computed; at cadence 3 the datum and steps 3, 6, 9 and
    # 10 are recorded
    assert [a for a, _, _ in handed] == [True] * (10 if cadence == 1 else 4) + [False]
    guarded = datum == "random"
    assert [h2 for _, h2, _ in handed] == [True] + [guarded] * (len(handed) - 1)
    assert [w for _, _, w in handed] == [False] + [guarded] * (len(handed) - 1)


@pytest.mark.parametrize("cadence", [1, 3])
@pytest.mark.parametrize("forced", [False, True], ids=["unforced", "forced"])
@pytest.mark.parametrize("scheme", ["strong-imex", "mild-duhamel", "weak-galerkin"])
def test_a_weak_pass_fed_by_the_stream_equals_the_stored_pass_bitwise(scheme, forced, cadence):
    # a handed-over advection term enters the weak sums as a computed one does
    grid = GridSpec(8)
    u0 = random_solenoidal_init(grid, 1.5, 3)
    u0 = u0.with_coeffs(u0.coeffs * 4.0)
    p = _stream_params(scheme, forced, grid)
    traj = run(u0, p, cadence=cadence)
    times, modes = traj.times, weak_test_battery(grid)
    streamed, stored = RecordPass(p, modes, times), RecordPass(p, modes, times)
    for u, a, h2, wmax in solvers._states(u0, p, cadence):
        streamed.push(u, a, h2, wmax)
    for u in traj.snapshots:
        stored.push(u)
    assert all(w != 0.0 for w in stored.weak)
    for name in ("weak", "mild", "strong"):
        bits = [np.asarray(getattr(w, name)).view(np.uint64) for w in (streamed, stored)]
        assert np.array_equal(*bits), name


@pytest.mark.parametrize("cadence", [1, 3])
@pytest.mark.parametrize("forced", [False, True], ids=["unforced", "forced"])
def test_the_pass_drops_each_snapshot_once_three_newer_ones_are_pushed(cadence, forced):
    grid = GridSpec(8)
    p = _stream_params("strong-imex", forced, grid)
    walk = RecordPass(p)
    refs = []
    for u, a, h2, wmax in solvers._states(random_solenoidal_init(grid, 1.5, 3), p, cadence):
        walk.push(u, a, h2, wmax)
        refs.append(weakref.ref(u))
        del u, a
        held = [r() is not None for r in refs]
        # snapshot i is gone once i + 3 is pushed; the newest three stay
        assert held == [i >= len(refs) - 3 for i in range(len(refs))]
    assert len(refs) == (11 if cadence == 1 else 5)
    assert len(walk.records()) == len(refs)


def _tiny_forced_blowup(grid):
    tiny = shear_init(grid)
    p = SolverParams(nu=1e-6, dt=1e-3, t_end=0.1, forcing=shear_init(grid))
    return tiny.with_coeffs(1e-9 * tiny.coeffs), p


def _abort_case(case, grid, monkeypatch):
    """Datum and parameters of a run that aborts: on the H^2 guard after many
    steps, on a NaN step after several streamed snapshots, on a lowered
    vorticity (BKM) guard or on the CFL gate at the first step."""
    if case == "norm-guard":
        return _tiny_forced_blowup(grid)
    if case == "bkm-guard":
        monkeypatch.setattr(solvers, "BLOWUP_BKM_LIMIT", 1e-3)
    u0 = taylor_green_init(grid)
    p = SolverParams(nu=0.1, dt=0.5 if case == "cfl" else 1e-2, t_end=1.0)
    if case == "nan-step":
        real_step, calls = solvers._step, []

        def failing_step(*args):
            # the fourth step (t = 0.04) turns NaN, and a run aborts there, so
            # of the runs made in turn every fourth call is a run's fourth step
            calls.append(1)
            out = real_step(*args)
            return out * np.nan if len(calls) % 4 == 0 else out

        monkeypatch.setattr(solvers, "_step", failing_step)
    return u0, p


@pytest.mark.parametrize("case", ["norm-guard", "nan-step", "bkm-guard", "cfl"])
def test_an_aborted_run_with_the_pass_raises_the_same_abort(case, grid8, monkeypatch):
    u0, p = _abort_case(case, grid8, monkeypatch)
    with pytest.raises(NumericalAbort) as excinfo:
        run(u0, p)
    partial = excinfo.value.trajectory.snapshots
    walk, streamed = RecordPass(p), []
    with pytest.raises(NumericalAbort) as streamed_info:
        for u, a, h2, wmax in solvers._states(u0, p, 1):
            walk.push(u, a, h2, wmax)
            streamed.append(u)
    # the stream carries no trajectory; the pass saw exactly the states the guard passed
    assert streamed_info.value.trajectory is None
    assert (type(streamed_info.value), str(streamed_info.value)) == (
        type(excinfo.value), str(excinfo.value))
    assert [s.coeffs.tobytes() for s in streamed] == [s.coeffs.tobytes() for s in partial]
    assert [r.t for r in walk.rows] == [s.time for s in partial]
    assert len(partial) >= (4 if case == "nan-step" else 1)
    if case == "bkm-guard":
        # the first recorded step trips the guard: the partial is the datum alone
        assert isinstance(excinfo.value, BlowUpDetected)
        assert "vorticity maximum" in str(excinfo.value)
        assert [s.time for s in partial] == [0.0]


def _tree_bytes(root):
    return {f.relative_to(root).as_posix(): f.read_bytes()
            for f in sorted(root.rglob("*")) if f.is_file()}


@pytest.mark.parametrize("case", ["norm-guard", "nan-step", "bkm-guard", "cfl"])
def test_an_aborted_run_experiment_leaves_the_layout_of_the_partial_trajectory(
    case, tmp_path, monkeypatch
):
    grid = GridSpec(8)
    u0, p = _abort_case(case, grid, monkeypatch)
    with pytest.raises(NumericalAbort) as excinfo:
        run(u0, p)
    expected = tmp_path / "expected"
    expected.mkdir()
    (expected / "abort.txt").write_text(f"numerical abort: {excinfo.value}\n", encoding="utf-8")
    write_trajectory(expected / "partial", excinfo.value.trajectory)

    out = tmp_path / "out"
    cfg = parse_config(f"experiment = run\nn = 8\ncadence = 1\nout = {out}\n")
    monkeypatch.setattr(experiments, "_initial_field", lambda cfg, grid: u0)
    monkeypatch.setattr(experiments, "_solver_params", lambda cfg, scheme=None: p)
    assert experiments.run_experiment(cfg) == experiments.EXIT_NUMERICAL_ABORT
    assert _tree_bytes(out) == _tree_bytes(expected)


@pytest.mark.parametrize("cadence", [1, 3, 10])
def test_a_run_experiment_makes_one_kernel_call_of_its_own(cadence, tmp_path, monkeypatch):
    steps = 10
    snaps = -(-steps // cadence) + 1
    cfg = parse_config(f"experiment = run\nn = 8\ninit = random\ndt = 1e-3\n"
                       f"t_end = {steps * 1e-3}\ncadence = {cadence}\nout = {tmp_path}\n")
    calls = count_calls(monkeypatch, "_advect_arrays", "_leray", "vorticity_max",
                        "divergence_defect", "write_snapshot")
    assert experiments.experiment_run(cfg, tmp_path) == 0
    # two kernel calls per step, one for the last snapshot, at any cadence; a
    # projection per kernel call and per settled state, and the random datum's
    # own; the guard's vorticity maximum of every recorded step, one for the
    # datum; one divergence defect per snapshot, which its record and its SNS1
    # flag share; each snapshot's file is written by the public writer
    assert (calls["_advect_arrays"], calls["vorticity_max"]) == (2 * steps + 1, snaps)
    assert calls["_leray"] == 3 * steps + 3
    assert calls["divergence_defect"] == calls["write_snapshot"] == snaps
    monkeypatch.undo()
    traj = read_trajectory(tmp_path)
    assert (tmp_path / "diagnostics.csv").read_text() == diagnostics_csv(
        records_for_trajectory(traj))


@pytest.mark.parametrize("cadence", [1, 3])
def test_the_pass_computes_only_the_last_term_of_a_forced_stream(cadence, monkeypatch):
    grid = GridSpec(8)
    p = _stream_params("strong-imex", True, grid)
    stream = list(solvers._states(random_solenoidal_init(grid, 1.5, 3), p, cadence))
    calls = count_calls(monkeypatch, "_advect_arrays")
    walk = RecordPass(p)
    for i, state in enumerate(stream):
        walk.push(*state)
        assert calls["_advect_arrays"] == (i == len(stream) - 1)
    assert len(walk.records()) == len(stream) == (11 if cadence == 1 else 5)
