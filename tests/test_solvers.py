import math
from dataclasses import replace

import numpy as np
import pytest

from conftest import count_calls, full_k_squared, full_leray
from torusflow import (
    PhysicalField,
    SolverParams,
    SpectralField,
    advect,
    cfl_limit,
    energy_identity_residual,
    forward_transform,
    inverse_transform,
    kinetic_energy,
    l2_norm,
    leray_project,
    lifespan_lower_bound,
    nonlinear_term,
    pressure_solve,
    random_solenoidal_init,
    run,
    shear_init,
    sobolev_norm,
    step,
    taylor_green_init,
)
from torusflow import solvers, spectral
from torusflow.errors import (
    BadCutoff,
    BlowUpDetected,
    CflViolation,
    GridMismatch,
    NonFiniteField,
    NotSolenoidal,
    NumericalAbort,
    SymmetryViolation,
)
from torusflow.experiments import shear_formulation_residuals
from torusflow.snapshots import read_trajectory, snapshot_bytes, write_trajectory
from torusflow.oracles import convolution_nonlinear_term
from torusflow.spectral import (
    SOLENOIDAL_TOL,
    GridSpec,
    _advect_arrays,
    _mirror,
    divergence_defect,
    zero_mean,
)


def diff_norm(a, b, s=0.0):
    return sobolev_norm(a.with_coeffs(a.coeffs - b.coeffs), s)


def test_solver_params_validation():
    with pytest.raises(ValueError):
        SolverParams(nu=-1.0, dt=1e-3, t_end=1.0)
    with pytest.raises(ValueError):
        SolverParams(nu=1.0, dt=0.0, t_end=1.0)
    with pytest.raises(ValueError):
        SolverParams(nu=1.0, dt=1e-3, t_end=1.0, scheme="leapfrog")
    for bad in (math.nan, math.inf):
        for key in ("nu", "dt", "t_end"):
            kwargs = {"nu": 1.0, "dt": 1e-3, "t_end": 1.0, key: bad}
            with pytest.raises(ValueError):
                SolverParams(**kwargs)


def test_random_init_contract(grid16):
    u = random_solenoidal_init(grid16, 2.0, 42)
    assert sobolev_norm(u, 2.0) == pytest.approx(1.0, abs=1e-12)
    assert divergence_defect(u) <= 1e-12
    again = random_solenoidal_init(grid16, 2.0, 42)
    assert np.array_equal(u.coeffs, again.coeffs)
    other = random_solenoidal_init(grid16, 2.0, 43)
    assert not np.array_equal(u.coeffs, other.coeffs)


def test_taylor_green_energy(grid16):
    assert kinetic_energy(taylor_green_init(grid16)) == pytest.approx(0.125, abs=1e-14)


def test_step_strong_shear_exact_decay(grid8):
    p = SolverParams(nu=1.0, dt=1e-2, t_end=1.0, scheme="strong-imex")
    u = shear_init(grid8)
    for _ in range(10):
        u = step(u, p)
    expected = np.exp(-10 * p.dt)
    assert u.coeffs[1, 1, 0, 0] == pytest.approx(
        expected * shear_init(grid8).coeffs[1, 1, 0, 0], rel=1e-12
    )


def test_step_zero_field_stays_zero(grid8):
    zero = SpectralField.from_full(grid8, np.zeros((3, 8, 8, 8), dtype=complex))
    p = SolverParams(nu=1.0, dt=1e-2, t_end=1.0)
    assert l2_norm(step(zero, p)) == 0.0
    assert l2_norm(step(zero, replace(p, scheme="mild-duhamel"))) == 0.0


def test_step_strong_matches_convolution_oracle(grid16):
    """One Heun step with the FFT nonlinearity against the same scheme driven
    by the O(n^6) convolution sum."""
    tg = taylor_green_init(grid16)
    nu, dt = 0.1, 1e-3
    p = SolverParams(nu=nu, dt=dt, t_end=dt, scheme="strong-imex")

    def oracle_rhs(u):
        return -SpectralField.from_full(u.grid, convolution_nonlinear_term(u)).coeffs

    decay = np.exp(-nu * dt * grid16.k_squared)
    n0 = oracle_rhs(tg)
    pred = tg.with_coeffs(decay * (tg.coeffs + dt * n0))
    n1 = oracle_rhs(pred)
    oracle = decay * tg.coeffs + 0.5 * dt * (decay * n0 + n1)

    ours = step(tg, p)
    rel = np.linalg.norm(ours.coeffs - oracle) / np.linalg.norm(oracle)
    assert rel <= 1e-9


def test_step_mild_exact_linear_flow_any_dt(grid8):
    # any CFL-admissible dt: the exponential integrator is exact on the
    # linear (zero-advection) flow regardless of step size
    sh = shear_init(grid8)
    for dt in (0.05, 0.01, 1e-3):
        p = SolverParams(nu=1.0, dt=dt, t_end=dt, scheme="mild-duhamel")
        out = step(sh, p)
        expected = np.exp(-dt)
        assert out.coeffs[1, 1, 0, 0] == pytest.approx(
            expected * sh.coeffs[1, 1, 0, 0], rel=1e-13
        )


def test_mild_strong_gap_second_order(grid16):
    tg = taylor_green_init(grid16)
    gaps = []
    dts = (4e-3, 2e-3, 1e-3)
    for dt in dts:
        tm = run(tg, SolverParams(nu=0.1, dt=dt, t_end=0.048, scheme="mild-duhamel"))
        ts = run(tg, SolverParams(nu=0.1, dt=dt, t_end=0.048, scheme="strong-imex"))
        gaps.append(
            max(diff_norm(a, b, 1.0) for a, b in zip(tm.snapshots, ts.snapshots))
        )
    slope = np.polyfit(np.log(dts), np.log(gaps), 1)[0]
    assert slope == pytest.approx(2.0, abs=0.3)


def test_run_t_end_zero_single_snapshot(grid8):
    p = SolverParams(nu=1.0, dt=1e-2, t_end=0.0)
    traj = run(shear_init(grid8), p)
    assert len(traj.snapshots) == 1
    assert traj.snapshots[0].time == 0.0


def test_run_determinism_bitwise(grid16):
    u0 = random_solenoidal_init(grid16, 2.0, 5)
    p = SolverParams(nu=0.5, dt=1e-2, t_end=0.05, scheme="strong-imex")
    one = run(u0, p)
    two = run(u0, p)
    assert all(
        np.array_equal(a.coeffs, b.coeffs) for a, b in zip(one.snapshots, two.snapshots)
    )


def test_run_shear_energy_ratio(grid8):
    p = SolverParams(nu=1.0, dt=1e-3, t_end=1.0, scheme="mild-duhamel")
    traj = run(shear_init(grid8), p)
    ratio = kinetic_energy(traj.snapshots[-1]) / kinetic_energy(traj.snapshots[0])
    assert ratio == pytest.approx(math.exp(-2.0), abs=1e-6)


@pytest.mark.parametrize("scheme", ["strong-imex", "mild-duhamel", "weak-galerkin"])
def test_run_preserves_constraints(grid16, scheme):
    u0 = random_solenoidal_init(grid16, 2.0, 8)
    p = SolverParams(
        nu=0.2, dt=2e-3, t_end=0.02, scheme=scheme,
        galerkin_modes=36.0 if scheme == "weak-galerkin" else None,
    )
    traj = run(u0, p)
    for snap in traj.snapshots:
        assert divergence_defect(snap) <= 1e-12
        assert np.max(np.abs(snap.coeffs[:, 0, 0, 0])) == 0.0
    assert np.all(np.diff(traj.times) > 0)


def test_weak_galerkin_discrete_energy_inequality(grid16):
    # truncation only removes energy: the signed per-interval defect
    # E_{m+1} - E_m + nu int ||grad u||^2 stays below the O(dt^2) slack
    from torusflow import enstrophy, kinetic_energy

    tg = taylor_green_init(grid16)
    dt = 2e-3
    p = SolverParams(nu=0.1, dt=dt, t_end=0.04, scheme="weak-galerkin", galerkin_modes=16.0)
    traj = run(tg, p)
    energies = [kinetic_energy(s) for s in traj.snapshots]
    dissip = [enstrophy(s) for s in traj.snapshots]
    for m in range(len(energies) - 1):
        visc = 0.5 * dt * (dissip[m] + dissip[m + 1])
        assert energies[m + 1] - energies[m] + p.nu * visc <= dt**2


def test_cfl_gate(grid8):
    sh = shear_init(grid8)
    limit = cfl_limit(1.0, grid8)
    assert limit == pytest.approx(0.5 / 8.0)
    p = SolverParams(nu=1.0, dt=0.2, t_end=0.2, scheme="strong-imex")
    with pytest.raises(CflViolation) as excinfo:
        step(sh, p)
    assert excinfo.value.trajectory is None
    with pytest.raises(CflViolation) as excinfo:
        run(sh, p)
    assert len(excinfo.value.trajectory.snapshots) == 1


def test_inviscid_energy_conservation(grid32):
    # nu = 0, f = 0: advection alone must conserve energy under exact
    # dealiasing; T = 0.1, dt = 1e-4, n = 32
    tg = taylor_green_init(grid32)
    p = SolverParams(nu=0.0, dt=1e-4, t_end=0.1, scheme="strong-imex")
    traj = run(tg, p, cadence=1000)
    e0 = kinetic_energy(traj.snapshots[0])
    eT = kinetic_energy(traj.snapshots[-1])
    assert abs(eT - e0) / e0 <= 1e-6


def test_weak_galerkin_full_resolution_bitwise(grid16):
    tg = taylor_green_init(grid16)
    pw = SolverParams(nu=0.1, dt=2e-3, t_end=0.02, scheme="weak-galerkin")
    ps = SolverParams(nu=0.1, dt=2e-3, t_end=0.02, scheme="strong-imex")
    tw = run(tg, pw)
    ts = run(tg, ps)
    assert all(
        np.array_equal(a.coeffs, b.coeffs) for a, b in zip(tw.snapshots, ts.snapshots)
    )
    assert tw.params.scheme == "weak-galerkin"


@pytest.mark.parametrize("scheme", ["strong-imex", "mild-duhamel", "weak-galerkin"])
def test_shorter_run_is_bitwise_prefix_of_longer(grid8, scheme):
    # the verify battery reads short runs as heads of longer ones with the same params
    u0 = random_solenoidal_init(grid8, 2.0, 6)
    cut = 16.0 if scheme == "weak-galerkin" else None
    p = SolverParams(nu=0.1, dt=2e-3, t_end=0.048, scheme=scheme, galerkin_modes=cut)
    long = run(u0, p).snapshots
    short = run(u0, SolverParams(0.1, 2e-3, 0.04, scheme, galerkin_modes=cut)).snapshots
    assert len(short) == 21 and len(long) == 25
    for a, b in zip(short, long):
        assert a.time == b.time
        assert np.array_equal(_bits(a.coeffs), _bits(b.coeffs))


def test_weak_galerkin_shear_any_cutoff(grid8):
    sh = shear_init(grid8)
    for lam in (1.0, 4.0):
        p = SolverParams(
            nu=1.0, dt=1e-3, t_end=0.1, scheme="weak-galerkin", galerkin_modes=lam
        )
        traj = run(sh, p)
        ratio = kinetic_energy(traj.snapshots[-1]) / kinetic_energy(traj.snapshots[0])
        assert ratio == pytest.approx(math.exp(-0.2), rel=1e-10)


def test_weak_galerkin_gap_monotone_in_cutoff(grid16):
    tg = taylor_green_init(grid16)
    full = run(tg, SolverParams(nu=0.1, dt=2e-3, t_end=0.048, scheme="strong-imex"))
    gaps = []
    for lam in (4.0, 16.0, 36.0):
        p = SolverParams(
            nu=0.1, dt=2e-3, t_end=0.048, scheme="weak-galerkin", galerkin_modes=lam
        )
        tw = run(tg, p)
        gaps.append(diff_norm(tw.snapshots[-1], full.snapshots[-1]))
    assert gaps[0] > gaps[1] > gaps[2]


def test_weak_galerkin_bad_cutoff(grid8):
    p = SolverParams(
        nu=1.0, dt=1e-3, t_end=0.01, scheme="weak-galerkin", galerkin_modes=0.5
    )
    with pytest.raises(BadCutoff):
        run(shear_init(grid8), p)
    # comparisons with NaN are false, so the guard must reject NaN as well as inf
    for lam in (math.nan, math.inf):
        with pytest.raises(BadCutoff):
            run(shear_init(grid8), SolverParams(
                nu=1.0, dt=1e-3, t_end=0.01, scheme="weak-galerkin", galerkin_modes=lam
            ))


def test_blowup_guard_reports_with_partial_trajectory(grid8):
    # microscopic datum driven by order-one forcing: the guard norm grows
    # past 1e3 x initial within a few steps
    tiny = shear_init(grid8)
    tiny = tiny.with_coeffs(1e-9 * tiny.coeffs)
    forcing = shear_init(grid8)
    p = SolverParams(
        nu=1e-6, dt=1e-3, t_end=0.1, scheme="strong-imex", forcing=forcing
    )
    with pytest.raises(BlowUpDetected) as excinfo:
        run(tiny, p)
    assert excinfo.value.trajectory is not None
    assert len(excinfo.value.trajectory.snapshots) >= 1


def test_trajectory_without_snapshots_is_refused(grid8):
    p = SolverParams(nu=0.1, dt=1e-3, t_end=0.01)
    with pytest.raises(ValueError, match="at least one snapshot"):
        solvers.Trajectory(p, [])
    # one snapshot is a trajectory: its grid and times are readable
    one = solvers.Trajectory(p, [shear_init(grid8)])
    assert one.grid == grid8 and one.times.tolist() == [0.0]


def test_non_finite_datum_raises(grid8):
    # a NaN datum makes the guard norm NaN, which would pass every guard comparison
    tg = taylor_green_init(grid8)
    bad = tg.coeffs.copy()
    bad[0, 1, 1, 1] = np.nan
    for scheme in ("strong-imex", "mild-duhamel"):
        with pytest.raises(NonFiniteField):
            run(tg.with_coeffs(bad), SolverParams(nu=0.1, dt=1e-2, t_end=0.05, scheme=scheme))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_snapshot_times_are_refused(grid8, bad):
    # NaN compares False both ways, so a "b <= a" test would let it through
    # a snapshot with a non-finite time cannot be built, so no trajectory holds one
    p = SolverParams(nu=0.1, dt=1e-2, t_end=0.05)
    f = shear_init(grid8)
    with pytest.raises(NonFiniteField, match="finite time"):
        f.with_coeffs(f.coeffs, time=bad)
    with pytest.raises(ValueError, match="strictly increasing"):
        solvers.Trajectory(p, [f, f])


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_datum_time_raises_before_the_first_step(grid8, bad):
    # the datum itself cannot be built, so no run can step it
    tg = taylor_green_init(grid8)
    with pytest.raises(NonFiniteField, match="time"):
        tg.with_coeffs(tg.coeffs, time=bad)


def test_non_real_datum_raises(grid8):
    # a field stores only its half spectrum k3 >= 0; a full datum whose other
    # half is not its mirror is refused where it enters, not silently repaired
    rng = np.random.default_rng(7)
    arbitrary = rng.standard_normal((3, 8, 8, 8)) + 1j * rng.standard_normal((3, 8, 8, 8))
    corrupt = taylor_green_init(grid8).full()
    corrupt[0, 1, 1, -1] += 1e-3
    nan_mirror = taylor_green_init(grid8).full()
    nan_mirror[0, 1, 1, -1] = np.nan
    for c in (arbitrary, corrupt, nan_mirror):
        with pytest.raises(SymmetryViolation):
            SpectralField.from_full(grid8, c)


def test_forcing_on_another_grid_is_refused():
    for n_state, n_forcing in ((16, 8), (8, 16)):
        u = taylor_green_init(GridSpec(n_state))
        p = SolverParams(nu=0.1, dt=1e-3, t_end=1e-3, forcing=shear_init(GridSpec(n_forcing)))
        for entry, q in ((run, p), (step, p), (step, replace(p, scheme="mild-duhamel"))):
            with pytest.raises(GridMismatch):
                entry(u, q)


def _negative_mirrored_zeros(c):
    """Doubles of the k3 < 0 block that are -0.0."""
    block = c[..., c.shape[-1] // 2 + 1:]
    return sum(int(np.sum((x == 0.0) & np.signbit(x))) for x in (block.real, block.imag))


@pytest.mark.parametrize("init", ["taylor-green", "shear", "random"])
def test_every_mirrored_zero_is_positive(init):
    # a full spectrum built from its half writes each mirrored zero as +0.0,
    # so every state run records, the datum included, has one set of bytes
    grid = GridSpec(8)
    u0 = {
        "taylor-green": taylor_green_init,
        "shear": shear_init,
        "random": lambda g: random_solenoidal_init(g, 2.0, 3),
    }[init](grid)
    p = SolverParams(nu=0.1, dt=1e-3, t_end=1e-3)
    built = [forward_transform(inverse_transform(u0)), advect(u0, u0),
             step(u0, p), step(u0, replace(p, scheme="mild-duhamel"))]
    for scheme in solvers.SCHEMES:
        cutoff = 4.0 if scheme == "weak-galerkin" else None
        p = SolverParams(nu=0.1, dt=1e-3, t_end=5e-3, scheme=scheme, galerkin_modes=cutoff)
        built += run(u0, p, cadence=2).snapshots
    assert len(built) == 4 + 3 * 4
    assert [_negative_mirrored_zeros(f.full()) for f in built] == [0] * len(built)


def test_blowup_partial_holds_only_guarded_snapshots(tmp_path, grid8, monkeypatch):
    # the fourth step returns NaN: the partial keeps the datum and three steps
    real_step = solvers._step
    calls = []

    def failing_step(*args):
        calls.append(1)
        out = real_step(*args)
        return out if len(calls) < 4 else out * np.nan

    monkeypatch.setattr(solvers, "_step", failing_step)
    with pytest.raises(BlowUpDetected) as excinfo:
        run(taylor_green_init(grid8), SolverParams(nu=0.1, dt=1e-2, t_end=0.1))
    write_trajectory(tmp_path / "partial", excinfo.value.trajectory)
    back = read_trajectory(tmp_path / "partial")
    assert len(back.snapshots) == 4
    assert all(np.isfinite(s.coeffs).all() for s in back.snapshots)


@pytest.mark.parametrize("n", [4, 8, 16, 32])
def test_exact_initial_data_equal_their_sampled_transforms(n):
    grid = GridSpec(n)
    x1, x2, x3 = grid.coordinates
    zero = np.zeros_like(x1)
    sampled = {
        "taylor-green": np.stack((np.sin(x1) * np.cos(x2) * np.cos(x3),
                                  -np.cos(x1) * np.sin(x2) * np.cos(x3), zero)),
        "shear": np.stack((zero, np.sin(x1), zero)),
    }
    # (component, k1, k2, k3) of the stored nonzero coefficients
    modes = {
        "taylor-green": {(a, s1, s2, 1) for a in (0, 1) for s1 in (1, -1) for s2 in (1, -1)},
        "shear": {(1, 1, 0, 0), (1, -1, 0, 0)},
    }
    for name, init in (("taylor-green", taylor_green_init), ("shear", shear_init)):
        c = init(grid).coeffs
        ref = forward_transform(PhysicalField(grid, sampled[name])).coeffs
        assert np.max(np.abs(c - ref)) <= 1e-16
        nonzero = {(a, (i1 + n // 2) % n - n // 2, (i2 + n // 2) % n - n // 2, i3)
                   for a, i1, i2, i3 in zip(*np.nonzero(c))}
        assert nonzero == modes[name]


@pytest.mark.parametrize("scheme", ["strong-imex", "mild-duhamel"])
@pytest.mark.parametrize("init", ["taylor-green", "random"])
def test_a_run_takes_the_divergence_form_exactly_when_its_datum_is_band_limited(
    init, scheme, monkeypatch
):
    # the steps keep a band-limited datum's exact zeros: the tendency is masked
    # and every multiplier is diagonal
    grid = GridSpec(16)
    u0 = taylor_green_init(grid) if init == "taylor-green" else random_solenoidal_init(grid, 2.0, 0)
    calls = count_calls(monkeypatch, "_advect_arrays", "_advect_divergence", "_advect_convective")
    run(u0, SolverParams(nu=0.05, dt=1e-3, t_end=5e-3, scheme=scheme))
    kernels = 2 * 5
    divergence = kernels if init == "taylor-green" else 0
    assert calls == {"_advect_arrays": kernels, "_advect_divergence": divergence,
                     "_advect_convective": kernels - divergence}


def test_pressure_shear_zero(grid16):
    assert l2_norm(pressure_solve(shear_init(grid16))) <= 1e-15


def test_pressure_synthetic_rhs_zero(grid8):
    # -lap p = div F with F = sin(x2) e1: div F = d1 sin(x2) = 0, so p = 0
    x2 = grid8.coordinates[1]
    from torusflow import PhysicalField, forward_transform
    from torusflow.spectral import divergence

    f = forward_transform(
        PhysicalField(grid8, np.stack([np.sin(x2), np.zeros_like(x2), np.zeros_like(x2)]))
    )
    assert l2_norm(divergence(f)) <= 1e-15


def test_pressure_closed_form_on_vortex(grid16):
    # the classic vortex datum has initial pressure
    # (1/16) (2 + cos 2x3)(cos 2x1 + cos 2x2); pins the sign of the solve,
    # which the zero-cases and the gradient bound cannot see
    from torusflow import inverse_transform

    tg = taylor_green_init(grid16)
    p_phys = inverse_transform(pressure_solve(tg)).samples[0]
    x1, x2, x3 = grid16.coordinates
    closed = (2.0 + np.cos(2 * x3)) * (np.cos(2 * x1) + np.cos(2 * x2)) / 16.0
    assert np.max(np.abs(p_phys - closed)) <= 1e-13


def test_lifespan_formula_values():
    assert lifespan_lower_bound(1.0, 0.0, 1.0, 1.0) == 0.25
    assert lifespan_lower_bound(2.0, 0.0, 1.0, 1.0) == 0.0625
    assert lifespan_lower_bound(0.0, 0.0, 1.0, 1.0) == math.inf
    with pytest.raises(ValueError):
        lifespan_lower_bound(-1.0, 0.0, 1.0, 1.0)


def test_lifespan_run_stays_bounded(grid32, advection_constant_16):
    tg = taylor_green_init(grid32)
    t0 = lifespan_lower_bound(sobolev_norm(tg, 2.0), 0.0, 0.1, advection_constant_16)
    steps = max(2, int(math.ceil(t0 / 2e-3)))
    dt = t0 / steps
    p = SolverParams(nu=0.1, dt=dt, t_end=steps * dt, scheme="strong-imex")
    traj = run(tg, p, cadence=max(1, steps // 4))
    h2 = [sobolev_norm(s, 2.0) for s in traj.snapshots]
    assert max(h2) <= 2.0 * h2[0]


def test_forcing_steady_state(grid8):
    # f = nu * u for |k| = 1 shear balances the viscous decay exactly in the
    # continuum; the discrete trajectory must stay within O(dt^2) of it
    nu = 1.0
    sh = shear_init(grid8)
    forcing = sh.with_coeffs(nu * sh.coeffs)
    p = SolverParams(nu=nu, dt=1e-3, t_end=0.1, scheme="mild-duhamel", forcing=forcing)
    traj = run(sh, p)
    drift = diff_norm(traj.snapshots[-1], sh) / l2_norm(sh)
    assert drift <= 1e-5


# The Kolmogorov start-up: u0 = a s and f = F s with s = (0, sin x1, 0), whose
# advection term vanishes, so u(t) = c(t) s with c(t) = F/nu + (a - F/nu) e^{-nu t}
KOLMOGOROV_A, KOLMOGOROV_F, KOLMOGOROV_NU = 0.5, 1.0, 1.0


def _kolmogorov_run(scheme, dt):
    s = shear_init(GridSpec(16))
    p = SolverParams(nu=KOLMOGOROV_NU, dt=dt, t_end=1.0, scheme=scheme,
                     forcing=s.with_coeffs(KOLMOGOROV_F * s.coeffs))
    return s, run(s.with_coeffs(KOLMOGOROV_A * s.coeffs), p)


def _kolmogorov_error(s, traj):
    """The largest ||u - c(t) s|| / ||s|| over the snapshots."""
    steady = KOLMOGOROV_F / KOLMOGOROV_NU
    c = [steady + (KOLMOGOROV_A - steady) * math.exp(-KOLMOGOROV_NU * u.time)
         for u in traj.snapshots]
    return max(diff_norm(u, s.with_coeffs(cu * s.coeffs)) for u, cu in zip(traj.snapshots, c))


def test_the_mild_step_is_exact_on_the_forced_kolmogorov_start_up(monkeypatch):
    calls = count_calls(monkeypatch, "_advect_divergence", "_advect_convective")
    passes = []
    complex_passes = spectral._complex_passes

    def recording_passes(half, n, box=None):
        passes.append(box is not None)
        return complex_passes(half, n, box)

    monkeypatch.setattr(spectral, "_complex_passes", recording_passes)
    s, traj = _kolmogorov_run("mild-duhamel", 0.02)
    # every state is band-limited: both kernel calls of each step take the
    # divergence form, and at n = 16 both product triples take the box
    assert calls == {"_advect_divergence": 2 * 50, "_advect_convective": 0}
    assert passes == [True] * (2 * 2 * 50)
    assert _kolmogorov_error(s, traj) <= 1e-13 * l2_norm(s)


@pytest.mark.parametrize("scheme", ["strong-imex", "weak-galerkin"])
def test_the_heun_steps_converge_at_second_order_on_the_kolmogorov_start_up(scheme):
    errors = [_kolmogorov_error(*_kolmogorov_run(scheme, dt)) for dt in (0.02, 0.01)]
    assert errors[1] > 1e-8
    assert math.log2(errors[0] / errors[1]) == pytest.approx(2.0, abs=0.1)


def test_forced_energy_defects_shrink_at_second_order():
    # the mild states are exact, so each interval's defect is the trapezoid
    # error on -nu ||grad u||^2 + <f, u>, and the power <f, u> varies here
    sums = [float(np.sum(energy_identity_residual(_kolmogorov_run("mild-duhamel", dt)[1])))
            for dt in (0.02, 0.01)]
    assert math.log2(sums[0] / sums[1]) == pytest.approx(2.0, abs=0.1)


@pytest.mark.parametrize("scheme", ["mild-duhamel", "strong-imex"])
def test_the_forced_kolmogorov_residuals_hold_the_verify_bound(scheme):
    # criterion 8's verify bound on the weak, mild and strong residuals, at
    # the verify battery's dt and span
    s = shear_init(GridSpec(8))
    p = SolverParams(nu=KOLMOGOROV_NU, dt=1e-3, t_end=0.5, scheme=scheme,
                     forcing=s.with_coeffs(KOLMOGOROV_F * s.coeffs))
    assert shear_formulation_residuals(run(s.with_coeffs(KOLMOGOROV_A * s.coeffs), p)) <= 1e-5


def test_forcing_is_projected_once_on_entry(grid8):
    # a solenoidal forcing is kept as given, a divergent one stored projected
    sh = shear_init(grid8)
    assert SolverParams(nu=1.0, dt=1e-3, t_end=0.1, forcing=sh).forcing is sh
    c = sh.coeffs.copy()
    c[0, 1, 0, 0] += 0.5
    c[0, -1, 0, 0] += 0.5
    divergent = sh.with_coeffs(c)
    p = SolverParams(nu=1.0, dt=1e-3, t_end=0.1, forcing=divergent)
    assert divergence_defect(p.forcing) <= SOLENOIDAL_TOL
    assert np.array_equal(p.forcing.coeffs, leray_project(divergent).coeffs)


def test_divergent_field_is_rejected_by_every_checked_entry(grid8):
    # solenoidality is measured, never vouched for: a field has no flag to set
    rng = np.random.default_rng(0)
    u = forward_transform(PhysicalField(grid8, rng.standard_normal((3, 8, 8, 8))))
    assert divergence_defect(u) > 0.5
    with pytest.raises(TypeError):
        SpectralField(grid8, u.coeffs, solenoidal=True)
    p = SolverParams(nu=0.1, dt=1e-3, t_end=1e-3)
    for entry in (nonlinear_term, pressure_solve,
                  lambda f: step(f, p), lambda f: step(f, replace(p, scheme="mild-duhamel"))):
        with pytest.raises(NotSolenoidal):
            entry(u)


# ----------------------------------------------------------------------
# the full-spectrum step bodies and run's post-step lines that the
# half-spectrum steps replaced, kept as bit-level references on full
# (3, n, n, n) arrays

def _reference_rhs(c, grid, p):
    half = c[..., : grid.n // 2 + 1]  # one view as both arguments: the solver's kernel
    adv = _mirror(_advect_arrays(half, half, grid)[0], grid.n)
    rhs = -full_leray(adv, grid)
    if p.forcing is not None:
        rhs = rhs + p.forcing.full()
    return rhs


def _reference_step_strong(c, grid, p):
    n0 = _reference_rhs(c, grid, p)
    decay = np.exp(-p.nu * p.dt * full_k_squared(grid))
    n1 = _reference_rhs(decay * (c + p.dt * n0), grid, p)
    return decay * c + 0.5 * p.dt * (decay * n0 + n1)


def _reference_step_mild(c, grid, p):
    n0 = _reference_rhs(c, grid, p)
    z = -p.nu * p.dt * full_k_squared(grid)
    decay = np.exp(z)
    phi1 = solvers._phi1(z)
    predictor = decay * c + p.dt * phi1 * n0
    n1 = _reference_rhs(predictor, grid, p)
    return predictor + p.dt * solvers._phi2(z) * (n1 - n0)


def _reference_settle(c, grid, mask):
    out = full_leray(c, grid)
    out[:, 0, 0, 0] = 0.0
    if mask is not None:
        out = out * mask
    return out


def _reference_run(u0, p, cadence):
    """(time, full spectrum) of each snapshot of the full-spectrum loop."""
    grid = u0.grid
    steps = solvers.step_count(p.t_end, p.dt)
    mask = None
    if p.scheme == "weak-galerkin" and p.galerkin_modes is not None:
        mask = (full_k_squared(grid) <= p.galerkin_modes).astype(np.float64)
    c = _reference_settle(u0.full(), grid, mask)
    ref_step = _reference_step_mild if p.scheme == "mild-duhamel" else _reference_step_strong
    snapshots = [(u0.time, c)]
    for m in range(1, steps + 1):
        c = _reference_settle(ref_step(c, grid, p), grid, mask)
        if m % cadence == 0 or m == steps:
            snapshots.append((u0.time + m * p.dt, c))
    return snapshots


def _bits(c):
    return c.view(np.float64).view(np.uint64)


def _white_solenoidal(grid, seed):
    """Solenoidal, mean-free white noise: not band-limited, with Nyquist content."""
    rng = np.random.default_rng(seed)
    white = forward_transform(PhysicalField(grid, rng.standard_normal((3,) + (grid.n,) * 3)))
    return zero_mean(leray_project(white))


@pytest.mark.parametrize("n", [4, 6, 8, 16])
@pytest.mark.parametrize("scheme", ["strong-imex", "mild-duhamel"])
@pytest.mark.parametrize("forced", [False, True])
def test_half_spectrum_steps_match_full_spectrum_steps_bitwise(n, scheme, forced):
    # bit patterns, not array_equal: array_equal counts -0.0 == +0.0, SNS1 does not
    grid = GridSpec(n)
    u = _white_solenoidal(grid, n)
    forcing = _white_solenoidal(grid, n + 1) if forced else None
    p = SolverParams(nu=0.1, dt=1e-3, t_end=1e-3, scheme=scheme, forcing=forcing)
    ref = {"strong-imex": _reference_step_strong, "mild-duhamel": _reference_step_mild}[scheme]
    for _ in range(2):
        got = step(u, p)
        want = _reference_settle(ref(u.full(), grid, p), grid, None)
        assert got.time == u.time + p.dt
        assert np.array_equal(_bits(got.full()), _bits(want))
        u = got


STEP_CASES = {
    "strong-imex": ("strong-imex", None),
    "mild-duhamel": ("mild-duhamel", None),
    "weak-uncut": ("weak-galerkin", None),
    "weak-cut": ("weak-galerkin", 4.0),
}


@pytest.mark.parametrize("case", STEP_CASES)
def test_step_is_the_first_step_of_run_bitwise(case):
    scheme, cutoff = STEP_CASES[case]
    grid = GridSpec(8)
    p = SolverParams(nu=0.1, dt=1e-3, t_end=2e-3, scheme=scheme, galerkin_modes=cutoff)
    states = solvers._states(random_solenoidal_init(grid, 2.0, 7), p, 1)
    u, want = next(states)[0], next(states)[0]  # the settled datum and the state after it
    got = step(u, p)
    assert got.time == want.time
    assert np.array_equal(_bits(got.coeffs), _bits(want.coeffs))
    if cutoff is not None:
        beyond = got.coeffs[:, grid.k_squared > cutoff]
        assert beyond.size > 0 and np.all(beyond == 0.0)


@pytest.mark.parametrize("scheme", ["strong-imex", "mild-duhamel"])
def test_run_writes_the_full_spectrum_loops_bytes(scheme):
    u0 = random_solenoidal_init(GridSpec(8), 2.0, 11)
    p = SolverParams(nu=0.1, dt=1e-3, t_end=1e-2, scheme=scheme)
    got = run(u0, p, cadence=3).snapshots
    want = _reference_run(u0, p, cadence=3)
    assert len(got) == len(want) == 5
    assert [s.time for s in got] == [t for t, _ in want]
    header = len(snapshot_bytes(u0)) - 3 * 8**3 * 16
    assert [snapshot_bytes(s, p.nu)[header:] for s in got] == [
        c.astype("<c16").tobytes() for _, c in want
    ]


@pytest.mark.parametrize("init", ["taylor-green", "random"])
def test_galerkin_cutoff_differs_from_full_spectrum_loop_only_in_zero_signs(init):
    # the full-spectrum mask multiply leaves zeros in the k3 < 0 block whose
    # signs the half spectrum does not determine; every value still agrees
    grid = GridSpec(8)
    u0 = taylor_green_init(grid) if init == "taylor-green" else random_solenoidal_init(grid, 2.0, 3)
    p = SolverParams(nu=0.1, dt=1e-3, t_end=1e-2, scheme="weak-galerkin", galerkin_modes=4.0)
    got = run(u0, p, cadence=3).snapshots
    want = _reference_run(u0, p, cadence=3)
    assert [s.time for s in got] == [t for t, _ in want]
    for a, (_, b) in zip(got, want):
        a = a.full()
        assert np.array_equal(a, b)
        differ = _bits(a) != _bits(b)
        assert np.all(a.view(np.float64)[differ] == 0.0)


# ----------------------------------------------------------------------
# the frame of a run: a band-limited run on a grid from PRUNE_MIN_N on, not
# divisible by 3, steps on the compact 2/3 box; every other run on the half
# spectrum.  A patched `_box_for` forces the half spectrum, whose stream is
# the reference


def _stream(u0, p, cadence, monkeypatch, full=False):
    """The (u, a, h2, wmax) stream of `_states` and the shapes of the states
    it stepped; the half spectrum throughout when `full`."""
    if full:
        monkeypatch.setattr(solvers, "_box_for", lambda c, f, grid: None)
    shapes = set()
    real_step = solvers._step

    def recording_step(c, *args):
        shapes.add(c.shape)
        return real_step(c, *args)

    monkeypatch.setattr(solvers, "_step", recording_step)
    try:
        return list(solvers._states(u0, p, cadence)), shapes
    finally:
        monkeypatch.undo()


def _assert_same_stream(got, want):
    assert len(got) == len(want)
    for (u, a, h2, wmax), (ru, ra, rh2, rwmax) in zip(got, want):
        assert u.time == ru.time and np.array_equal(u.coeffs, ru.coeffs)
        assert (a is None) == (ra is None) and (a is None or np.array_equal(a, ra))
        assert (h2, wmax) == (rh2, rwmax)


def _box_shape(n):
    m = n // 3
    return (3, 2 * m + 1, 2 * m + 1, m + 1)


SCHEME_CASES = {"strong": ("strong-imex", None), "mild": ("mild-duhamel", None),
                "weak": ("weak-galerkin", None)}


@pytest.mark.parametrize("n", [18, 24])
@pytest.mark.parametrize("case", SCHEME_CASES)
def test_a_run_on_a_grid_divisible_by_3_steps_on_the_half_spectrum(n, case, monkeypatch):
    # the box holds 3 |k| = n there, which the kernel's band excludes: a state
    # that the steps carry onto it takes the convective form on the half spectrum
    scheme, cutoff = SCHEME_CASES[case]
    p = SolverParams(nu=0.05, dt=1e-3, t_end=6e-3, scheme=scheme, galerkin_modes=cutoff)
    u0 = taylor_green_init(GridSpec(n))
    got, shapes = _stream(u0, p, 1, monkeypatch)
    want, _ = _stream(u0, p, 1, monkeypatch, full=True)
    assert shapes == {(3, n, n, n // 2 + 1)}
    _assert_same_stream(got, want)


def _band_limited_random(grid, seed):
    in1, in2, in3 = (3 * np.abs(k) < grid.n for k in grid.wavenumbers)
    u = random_solenoidal_init(grid, 2.0, seed)
    return u.with_coeffs(u.coeffs * (in1 & in2 & in3))


def _frame_case(case):
    """(datum, params, cadence, on the box) of each frame case."""
    if case.startswith("n"):  # n<grid>-<scheme>: Taylor-Green
        n, scheme = case[1:].split("-")
        grid = GridSpec(int(n))
        p = SolverParams(nu=0.05, dt=1e-3, t_end=6e-3, scheme=SCHEME_CASES[scheme][0])
        return taylor_green_init(grid), p, 4, True
    grid = GridSpec(16)
    s = shear_init(grid)
    if case == "galerkin":
        p = SolverParams(nu=0.05, dt=1e-3, t_end=6e-3, scheme="weak-galerkin", galerkin_modes=3.0)
        return taylor_green_init(grid), p, 4, True
    if case == "kolmogorov":
        p = SolverParams(nu=1.0, dt=0.02, t_end=0.2, scheme="mild-duhamel",
                         forcing=s.with_coeffs(s.coeffs))
        return s.with_coeffs(0.5 * s.coeffs), p, 3, True
    if case == "random-band":
        p = SolverParams(nu=0.05, dt=1e-3, t_end=6e-3, scheme="strong-imex")
        return _band_limited_random(GridSpec(20), 5), p, 4, True
    # a band-limited datum forced off the band: the state leaves the box
    p = SolverParams(nu=0.05, dt=1e-3, t_end=6e-3, forcing=random_solenoidal_init(grid, 2.0, 1))
    return taylor_green_init(grid), p, 4, False


FRAME_CASES = ([f"n{n}-{s}" for n in (14, 16, 20, 32) for s in SCHEME_CASES]
               + ["galerkin", "kolmogorov", "random-band", "forced-off-band"])


@pytest.mark.parametrize("case", FRAME_CASES)
def test_a_run_on_the_box_streams_the_half_spectrum_runs_bits(case, monkeypatch):
    # states, advection terms, the recorded H^2 norms and vorticity maxima;
    # cadence > 1, so the guard also sums unrecorded states' norms on the box
    u0, p, cadence, boxed = _frame_case(case)
    n = u0.grid.n
    got, shapes = _stream(u0, p, cadence, monkeypatch)
    want, full_shapes = _stream(u0, p, cadence, monkeypatch, full=True)
    assert shapes == {_box_shape(n) if boxed else (3, n, n, n // 2 + 1)}
    assert full_shapes == {(3, n, n, n // 2 + 1)}
    _assert_same_stream(got, want)


def _abort(u0, p, cadence, monkeypatch, full):
    """The abort `run` raises and the number of steps it took."""
    if full:
        monkeypatch.setattr(solvers, "_box_for", lambda c, f, grid: None)
    calls = count_calls(monkeypatch, "_step")
    with pytest.raises(NumericalAbort) as excinfo:
        run(u0, p, cadence)
    monkeypatch.undo()
    return excinfo.value, calls["_step"]


@pytest.mark.parametrize("guard", ["h2", "vorticity", "cfl"])
def test_each_guard_aborts_a_run_on_the_box_where_it_aborts_on_the_half_spectrum(
    guard, monkeypatch
):
    grid = GridSpec(16)
    s = shear_init(grid)
    if guard == "h2":
        # a small shear forced by a unit one passes 1e3 times its H^2 norm at
        # step 10, which cadence 7 does not record
        u0 = s.with_coeffs(1e-5 * s.coeffs)
        p = SolverParams(nu=1e-6, dt=1e-3, t_end=0.1, forcing=s)
    else:
        # the Kolmogorov start-up, max |u| = max |curl u| = 1 - 0.5 e^{-t}: past
        # 0.6 at t = 0.22, and past the CFL limit of dt = 0.04 at t = 0.82
        u0 = s.with_coeffs(0.5 * s.coeffs)
        p = SolverParams(nu=1.0, dt=0.04 if guard == "cfl" else 0.02, t_end=1.2,
                         scheme="mild-duhamel", forcing=s)
    cadence = 3 if guard == "vorticity" else 7

    def aborted(full):
        if guard == "vorticity":
            monkeypatch.setattr(solvers, "BLOWUP_BKM_LIMIT", 0.6)
        return _abort(u0, p, cadence, monkeypatch, full)

    (exc, steps), (ref, ref_steps) = aborted(False), aborted(True)
    assert steps == ref_steps and 1 < steps < solvers.step_count(p.t_end, p.dt)
    assert (type(exc), str(exc)) == (type(ref), str(ref))
    assert isinstance(exc, CflViolation if guard == "cfl" else BlowUpDetected)
    assert {"h2": "H^2 norm", "vorticity": "vorticity maximum", "cfl": "exceeds advective"}[
        guard] in str(exc)
    partial, ref_partial = exc.trajectory.snapshots, ref.trajectory.snapshots
    assert len(partial) == len(ref_partial) > 1
    for u, ru in zip(partial, ref_partial):
        assert u.time == ru.time and np.array_equal(u.coeffs, ru.coeffs)


def test_the_guard_constants_are_the_documented_ones():
    # `run` states both: an H^2 norm beyond 1e3 times the datum's, a vorticity
    # maximum beyond 1e6
    assert (solvers.BLOWUP_NORM_FACTOR, solvers.BLOWUP_BKM_LIMIT) == (1e3, 1e6)
    assert "1e3 times its initial value" in run.__doc__ and "passes 1e6" in run.__doc__
