import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import count_calls, count_fft_calls, full_k_squared
from torusflow import (
    GridSpec,
    MollifierSpec,
    PhysicalField,
    SolverParams,
    SpectralField,
    Trajectory,
    curl,
    dealias,
    divergence,
    divergence_defect,
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
    random_solenoidal_init,
    run,
    shear_init,
    smooth,
    sobolev_norm,
    taylor_green_init,
    weak_test_battery,
    zero_mean,
)
from torusflow.diagnostics import convergence_study, residual_defects
from torusflow.dyadic import commutator_bound_ratio, lattice_lp_norm
from torusflow.errors import (
    DegenerateSequence,
    GridMismatch,
    NonSolenoidalTest,
    NotSolenoidal,
    SymmetryViolation,
)
from torusflow import solvers, spectral
from torusflow.solvers import lifespan_lower_bound
from torusflow.spectral import (
    DEALIAS_FRACTION,
    _advect_arrays,
    _advect_convective,
    _advect_divergence,
    _band_limited,
    _leray,
    _lattice_sum,
    _mirror,
    _power_sum,
    _scratch,
    _to_physical,
    _to_spectral,
    _worst,
    advect,
)


def test_grid_validation():
    with pytest.raises(ValueError):
        GridSpec(3)
    with pytest.raises(ValueError):
        GridSpec(7)
    g = GridSpec(8)
    assert g.axis_wavenumbers.tolist() == [0, 1, 2, 3, 4, -3, -2, -1]


def test_forward_single_sine_mode(grid8):
    x1 = grid8.coordinates[0]
    samples = np.stack([np.sin(x1), np.zeros_like(x1), np.zeros_like(x1)])
    f = forward_transform(PhysicalField(grid8, samples))
    np.testing.assert_allclose(f.coeffs[0, 1, 0, 0], -0.5j, atol=1e-15)
    np.testing.assert_allclose(f.coeffs[0, -1, 0, 0], 0.5j, atol=1e-15)
    rest = f.coeffs.copy()
    rest[0, 1, 0, 0] = rest[0, -1, 0, 0] = 0.0
    assert np.max(np.abs(rest)) < 1e-15


def test_forward_constant_field(grid8):
    ones = np.stack([np.ones((8, 8, 8)), np.zeros((8, 8, 8)), np.zeros((8, 8, 8))])
    f = forward_transform(PhysicalField(grid8, ones))
    np.testing.assert_allclose(f.coeffs[0, 0, 0, 0], 1.0, atol=1e-15)
    rest = f.coeffs.copy()
    rest[0, 0, 0, 0] = 0.0
    assert np.max(np.abs(rest)) < 1e-15


def test_roundtrip_20_random_fields(grid16):
    for seed in range(20):
        u = random_solenoidal_init(grid16, 2.0, seed)
        back = forward_transform(inverse_transform(u))
        rel = np.max(np.abs(back.coeffs - u.coeffs)) / np.max(np.abs(u.coeffs))
        assert rel <= 1e-12


def test_parseval_both_sides_independent(grid16):
    for seed in range(20):
        u = random_solenoidal_init(grid16, 2.0, seed)
        lattice = physical_l2_norm(inverse_transform(u)) ** 2
        coeff = l2_norm(u) ** 2
        assert abs(lattice - coeff) / coeff <= 1e-12


def test_inverse_of_single_mode_is_sine(grid8):
    c = np.zeros((3, 8, 8, 8), dtype=complex)
    c[0, 1, 0, 0] = -0.5j
    c[0, -1, 0, 0] = 0.5j
    phys = inverse_transform(SpectralField.from_full(grid8, c))
    x1 = grid8.coordinates[0]
    np.testing.assert_allclose(phys.samples[0], np.sin(x1), atol=1e-14)
    assert np.max(np.abs(phys.samples[1:])) < 1e-15


def test_inverse_zero_field(grid8):
    phys = inverse_transform(SpectralField.from_full(grid8, np.zeros((3, 8, 8, 8), dtype=complex)))
    assert np.all(phys.samples == 0.0)


def test_from_full_rejects_broken_symmetry(grid8):
    c = np.zeros((3, 8, 8, 8), dtype=complex)
    c[0, 1, 0, 0] = 1.0  # no conjugate partner
    with pytest.raises(SymmetryViolation):
        SpectralField.from_full(grid8, c)


def test_from_full_rejects_infinite_coefficient(grid8):
    # inf - inf makes the Hermitian defect NaN, which must not pass
    c = np.zeros((3, 8, 8, 8), dtype=complex)
    c[0, 1, 0, 0] = np.inf
    with np.errstate(invalid="ignore"), pytest.raises(SymmetryViolation):
        SpectralField.from_full(grid8, c)


def test_sobolev_norm_shear_values(grid16):
    sh = shear_init(grid16)
    assert sobolev_norm(sh, 0.0) == pytest.approx(1.0 / np.sqrt(2.0), abs=1e-13)
    assert sobolev_norm(sh, 2.0) == pytest.approx(np.sqrt(2.0), abs=1e-13)
    zero = sh.with_coeffs(np.zeros_like(sh.coeffs))
    assert sobolev_norm(zero, 3.0) == 0.0


@given(seed=st.integers(min_value=0, max_value=10_000))
def test_hermitian_and_parseval_hypothesis(seed):
    grid = GridSpec(8)
    u = random_solenoidal_init(grid, 1.5, seed)
    assert hermitian_defect(u) <= 1e-13
    lattice = physical_l2_norm(inverse_transform(u)) ** 2
    assert abs(lattice - l2_norm(u) ** 2) <= 1e-12 * l2_norm(u) ** 2


def test_leray_annihilates_k_parallel_part(grid8):
    c = np.zeros((3, 8, 8, 8), dtype=complex)
    c[0, 1, 0, 0] = 1.0
    c[1, 1, 0, 0] = 1.0
    c[0, -1, 0, 0] = 1.0
    c[1, -1, 0, 0] = 1.0
    out = leray_project(SpectralField.from_full(grid8, c))
    # k = (1,0,0): component along k removed, transverse kept
    np.testing.assert_allclose(out.coeffs[0, 1, 0, 0], 0.0, atol=1e-15)
    np.testing.assert_allclose(out.coeffs[1, 1, 0, 0], 1.0, atol=1e-15)


def test_leray_annihilates_gradients(grid16):
    rng = np.random.default_rng(0)
    phi = np.fft.fftn(rng.standard_normal((16, 16, 16))) / 16**3
    scal = np.zeros((3, 16, 16, 16), dtype=complex)
    scal[0] = phi
    grad = gradient(SpectralField.from_full(grid16, scal))
    out = leray_project(grad)
    assert l2_norm(out) <= 1e-12 * max(l2_norm(grad), 1.0)


def test_leray_idempotent_and_self_adjoint(random_fields_16):
    for u in random_fields_16[:5]:
        once = leray_project(u)
        twice = leray_project(once)
        rel = np.max(np.abs(twice.coeffs - once.coeffs)) / np.max(np.abs(once.coeffs))
        assert rel <= 1e-14
    a, b = random_fields_16[0], random_fields_16[1]
    lhs = inner_product(leray_project(a), b)
    rhs = inner_product(a, leray_project(b))
    assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), 1.0)


def test_heat_single_mode_halving(grid8):
    sh = shear_init(grid8)
    out = heat_semigroup(sh, 1.0, np.log(2.0))
    np.testing.assert_allclose(out.coeffs[1, 1, 0, 0], 0.5 * sh.coeffs[1, 1, 0, 0], rtol=1e-14)


def test_heat_time_zero_is_identity(random_fields_16):
    u = random_fields_16[0]
    out = heat_semigroup(u, 1.0, 0.0)
    assert np.array_equal(out.coeffs, u.coeffs)


def test_heat_semigroup_law(random_fields_16, helpers):
    u = random_fields_16[2]
    one = heat_semigroup(heat_semigroup(u, 0.7, 0.3), 0.7, 0.9)
    two = heat_semigroup(u, 0.7, 1.2)
    assert helpers.rel_diff(one, two) <= 1e-12


def test_heat_contraction_every_sobolev_index(random_fields_16):
    u = random_fields_16[3]
    out = heat_semigroup(u, 1.0, 0.05)
    for s in (0.0, 1.0, 2.0, 3.0, 4.5):
        assert sobolev_norm(out, s) <= sobolev_norm(u, s)


def test_heat_smoothing_rate_product_bounded(grid32):
    # coefficients 1/(1+|k|^2): in L2, not in H^2; t * ||heat(t) u||_{H^2}
    # must stay bounded as t -> 0+
    c = np.repeat(((1.0 + grid32.k_squared) ** -1.0)[None], 3, axis=0).astype(complex)
    u0 = SpectralField(grid32, c)
    ts = [2.0**-k for k in range(2, 9)]
    products = [t * sobolev_norm(heat_semigroup(u0, 1.0, t), 2.0) for t in ts]
    assert max(products) <= 2.0
    assert products[-1] <= products[0]


def test_heat_validates_inputs(random_fields_16):
    with pytest.raises(ValueError):
        heat_semigroup(random_fields_16[0], 0.0, 1.0)
    with pytest.raises(ValueError):
        heat_semigroup(random_fields_16[0], 1.0, -1.0)
    # an infinite rate or time would give -inf * 0 = NaN at k = 0
    with pytest.raises(ValueError):
        heat_semigroup(random_fields_16[0], math.inf, 1.0)
    with pytest.raises(ValueError):
        heat_semigroup(random_fields_16[0], 1.0, math.inf)


def test_curl_of_shear(grid8):
    out = curl(shear_init(grid8))
    phys = inverse_transform(out).samples
    x1 = grid8.coordinates[0]
    np.testing.assert_allclose(phys[2], np.cos(x1), atol=1e-14)
    assert np.max(np.abs(phys[:2])) < 1e-14


def test_div_curl_and_curl_grad_vanish(grid16, random_fields_16):
    u = random_fields_16[4]
    dc = divergence(curl(u))
    assert l2_norm(dc) <= 1e-13 * sobolev_norm(u, 2.0)
    scal = u.with_coeffs(
        np.stack([u.coeffs[0], np.zeros_like(u.coeffs[0]), np.zeros_like(u.coeffs[0])])
    )
    cg = curl(gradient(scal))
    assert l2_norm(cg) <= 1e-13 * sobolev_norm(u, 2.0)


def test_div_of_projected_field(random_fields_16):
    for u in random_fields_16[:5]:
        proj = leray_project(u)
        assert l2_norm(divergence(proj)) <= 1e-12 * l2_norm(u)
        assert divergence_defect(proj) <= 1e-12


def test_nonlinear_shear_is_zero(grid16):
    assert l2_norm(nonlinear_term(shear_init(grid16))) <= 1e-14


def test_nonlinear_rejects_divergent_input(grid8):
    c = np.zeros((3, 8, 8, 8), dtype=complex)
    c[0, 1, 0, 0] = 1.0j
    c[0, -1, 0, 0] = -1.0j  # gradient-like: k . uhat != 0
    with pytest.raises(NotSolenoidal):
        nonlinear_term(SpectralField.from_full(grid8, c))


def test_nonlinear_rejects_overflowing_divergent_input(grid8):
    # the defect of huge coefficients overflows to NaN, which must not pass
    c = random_solenoidal_init(grid8, 1.0, 0).coeffs.copy()
    c[0, 1, 0, 0] = c[0, -1, 0, 0] = 1e300
    u = SpectralField(grid8, c)
    with np.errstate(over="ignore", invalid="ignore"):
        assert np.isnan(divergence_defect(u))
        with pytest.raises(NotSolenoidal):
            nonlinear_term(u)


def test_nonlinear_energy_neutral_when_dealiasing_exact(grid32):
    # inputs band-limited so the cubic integrand is exactly quadratured
    kk = grid32.wavenumbers
    mask = (np.abs(kk[0]) <= 8) & (np.abs(kk[1]) <= 8) & (np.abs(kk[2]) <= 8)
    for seed in (0, 1, 2):
        u = random_solenoidal_init(grid32, 2.0, seed)
        band = leray_project(u.with_coeffs(u.coeffs * mask))
        ip = inner_product(nonlinear_term(band), band)
        assert abs(ip) <= 1e-10 * l2_norm(band) ** 3


def test_nonlinear_sobolev_bound_with_estimated_constant(
    grid16, advection_constant_16
):
    # fresh seeds against the battery-estimated constant, 1.5x alarm margin
    for seed in range(300, 400):
        u = random_solenoidal_init(grid16, 2.0, seed)
        ratio = sobolev_norm(nonlinear_term(u), 1.0) / sobolev_norm(u, 2.0) ** 2
        assert ratio <= 1.5 * advection_constant_16


def test_dealias_zeroes_top_third(grid16):
    u = random_solenoidal_init(grid16, 1.0, 9)
    out = dealias(u)
    kk = grid16.wavenumbers
    cut = DEALIAS_FRACTION * grid16.n / 2.0
    outside = (np.abs(kk[0]) > cut) | (np.abs(kk[1]) > cut) | (np.abs(kk[2]) > cut)
    assert np.max(np.abs(out.coeffs[:, outside])) == 0.0
    assert np.array_equal(out.coeffs[:, ~outside], u.coeffs[:, ~outside])


def test_hermitian_preserved_by_module_operations(random_fields_16):
    u = random_fields_16[5]
    for op in (
        lambda f: leray_project(f),
        lambda f: heat_semigroup(f, 1.0, 0.2),
        lambda f: curl(f),
        lambda f: dealias(f),
        lambda f: advect(f, f),
        lambda f: nonlinear_term(f),
    ):
        assert hermitian_defect(op(u)) <= 1e-13


@pytest.mark.parametrize("n", [4, 8, 10, 16])
def test_pseudospectral_matches_convolution_across_grids(n):
    # grids where the inclusive 2/3 cutoff is exactly alias-free
    # (3 * k_retained <= n - 1); multiples of 3 admit one boundary triad
    from torusflow import dealias as dealias_op
    from torusflow.oracles import convolution_nonlinear_term

    grid = GridSpec(n)
    u = leray_project(dealias_op(random_solenoidal_init(grid, 1.5, n)))
    fast = nonlinear_term(u)
    slow = SpectralField.from_full(grid, convolution_nonlinear_term(u))
    gap = l2_norm(fast.with_coeffs(fast.coeffs - slow.coeffs))
    assert gap <= 1e-12 * max(l2_norm(slow), 1e-300)


def test_taylor_green_datum(grid8):
    tg = taylor_green_init(grid8)
    assert 0.5 * l2_norm(tg) ** 2 == pytest.approx(0.125, abs=1e-15)
    assert divergence_defect(tg) <= 1e-13
    mass = np.abs(tg.coeffs) ** 2
    on_support = mass[:, [1, -1]][:, :, [1, -1]][:, :, :, [1, -1]].sum()
    assert (mass.sum() - on_support) / mass.sum() <= 1e-15


# ----------------------------------------------------------------------
# fast paths against the code they replaced: complex transforms over the
# full spectrum, n^3 wavenumber grids and the two-pass Leray projection


def _full_grids(k):
    n = k.size
    return (
        np.broadcast_to(k[:, None, None], (n, n, n)).copy(),
        np.broadcast_to(k[None, :, None], (n, n, n)).copy(),
        np.broadcast_to(k[None, None, :], (n, n, n)).copy(),
    )


def _white_spectrum(n, seed):
    """Spectrum of real white noise: not band-limited, with Nyquist content."""
    rng = np.random.default_rng(seed)
    return np.fft.fftn(rng.standard_normal((3, n, n, n)), axes=(1, 2, 3)) / n**3


def _complex_kernel(fc, gc, grid):
    """The 11-transform complex kernel that the half-spectrum kernel replaced."""
    n = grid.n
    kk = _full_grids(grid.deriv_axis_wavenumbers)
    fp = np.fft.ifftn(fc, axes=(1, 2, 3)).real * n**3
    fmax = float(np.sqrt((fp**2).sum(axis=0)).max())
    out_phys = np.empty_like(fp)
    for i in range(3):
        acc = np.zeros((n, n, n))
        for j in range(3):
            acc += fp[j] * (np.fft.ifftn(1j * kk[j] * gc[i]).real * n**3)
        out_phys[i] = acc
    cut = DEALIAS_FRACTION * n / 2.0
    k1, k2, k3 = _full_grids(grid.axis_wavenumbers)
    mask = (np.abs(k1) <= cut) & (np.abs(k2) <= cut) & (np.abs(k3) <= cut)
    return np.fft.fftn(out_phys, axes=(1, 2, 3)) / n**3 * mask, fmax


@pytest.mark.parametrize("n", [4, 6, 8, 10, 16, 32])
def test_half_spectrum_kernel_matches_complex_kernel(n):
    grid = GridSpec(n)
    f, g = _white_spectrum(n, 2 * n), _white_spectrum(n, 2 * n + 1)
    h = n // 2 + 1
    half, fmax = _advect_arrays(f[..., :h], g[..., :h], grid)
    fast = _mirror(half, n)
    slow, slow_fmax = _complex_kernel(f, g, grid)
    assert np.max(np.abs(fast - slow)) <= 1e-13 * np.max(np.abs(slow))
    assert fmax == pytest.approx(slow_fmax, rel=1e-13)


@pytest.mark.parametrize("n", [4, 6, 16])
def test_real_transform_pair_matches_complex_transforms(n):
    rng = np.random.default_rng(n)
    x = rng.standard_normal((3, n, n, n))
    ref = np.fft.fftn(x, axes=(1, 2, 3)) / n**3
    c = _mirror(_to_spectral(x), n)
    assert np.max(np.abs(c - ref)) <= 1e-13 * np.max(np.abs(ref))
    # the k3 < 0 half is the exact conjugate mirror of the transformed half
    h = n // 2 + 1
    mirror = np.conj(np.roll(c[:, ::-1, ::-1, ::-1], (1, 1, 1), axis=(1, 2, 3)))
    assert np.array_equal(c[..., h:], mirror[..., h:])
    # synthesis from the half spectrum
    back = _to_physical(np.ascontiguousarray(ref[..., :h]), n)
    assert np.max(np.abs(back - np.fft.ifftn(ref, axes=(1, 2, 3)).real * n**3)) <= 1e-13


@pytest.mark.parametrize("n", [4, 6, 8, 12, 16, 32, 64])
def test_half_sums_match_full_lattice_sums(n):
    grid = GridSpec(n)
    rng = np.random.default_rng(n)
    f, g = (forward_transform(PhysicalField(grid, rng.standard_normal((3, n, n, n))))
            for _ in range(2))
    ff, gf = f.full(), g.full()
    for weight, full_weight in ((None, 1.0), (grid.k_squared, full_k_squared(grid))):
        full = np.sum(full_weight * (ff.real**2 + ff.imag**2))
        assert abs(_power_sum(f.coeffs, grid, weight) - full) <= 1e-14 * full
    full = np.sum(ff * np.conj(gf)).real
    half = _lattice_sum((f.coeffs * np.conj(g.coeffs)).real, n)
    assert abs(half - full) <= 1e-14 * l2_norm(f) * l2_norm(g)


@given(seed=st.integers(0, 10_000), n=st.sampled_from([4, 6, 8]), by_ulp=st.booleans())
def test_lattice_sum_is_monotone(seed, n, by_ulp):
    # every plane's weight is positive, so raising entries never lowers the sum
    rng = np.random.default_rng(seed)
    shape = (3, n, n, n // 2 + 1)
    y = rng.random(shape) * 10.0 ** rng.uniform(-12.0, 12.0, shape)
    y[rng.random(shape) < 0.2] = 0.0
    raised = np.nextafter(y, np.inf) if by_ulp else y * (1.0 + rng.random(shape))
    x = np.where(rng.random(shape) < 0.3, raised, y)
    assert _lattice_sum(x, n) >= _lattice_sum(y, n)


@pytest.mark.parametrize("n", [6, 16])
def test_leray_matches_two_pass_formula(n):
    grid = GridSpec(n)
    c = _white_spectrum(n, n)
    k1, k2, k3 = _full_grids(grid.deriv_axis_wavenumbers)
    kk = k1 * k1 + k2 * k2 + k3 * k3
    safe = np.where(kk > 0.0, kk, 1.0)
    kdotc = np.where(kk > 0.0, (k1 * c[0] + k2 * c[1] + k3 * c[2]) / safe, 0.0)
    old = np.stack((c[0] - k1 * kdotc, c[1] - k2 * kdotc, c[2] - k3 * kdotc))
    field = SpectralField.from_full(grid, c)
    assert divergence_defect(field) > 0.1
    assert np.array_equal(leray_project(field).coeffs, old[..., : n // 2 + 1])


@pytest.mark.parametrize("n", [4, 6, 16])
def test_broadcast_wavenumber_grids_match_full_grids(n):
    # the grid's arrays cover the stored half k3 >= 0 of the full grids
    grid = GridSpec(n)
    h = n // 2 + 1
    shapes = ((n, 1, 1), (1, n, 1), (1, 1, h))
    for views, k in (
        (grid.wavenumbers, grid.axis_wavenumbers),
        (grid.deriv_wavenumbers, grid.deriv_axis_wavenumbers),
    ):
        for view, shape, full in zip(views, shapes, _full_grids(k)):
            assert view.shape == shape and not view.flags.writeable
            assert np.array_equal(np.broadcast_to(view, (n, n, h)), full[..., :h])
    k1, k2, k3 = _full_grids(grid.axis_wavenumbers)
    assert np.array_equal(grid.k_squared, (k1 * k1 + k2 * k2 + k3 * k3)[..., :h])
    d1, d2, d3 = _full_grids(grid.deriv_axis_wavenumbers)
    assert np.array_equal(grid.deriv_k_squared, (d1 * d1 + d2 * d2 + d3 * d3)[..., :h])
    assert not grid.deriv_k_squared.flags.writeable


def test_coefficients_are_read_only(grid8):
    # no in-place edit can outlive the flags a field was built with
    u = random_solenoidal_init(grid8, 2.0, 1)
    built = SpectralField.from_full(grid8, np.zeros((3, 8, 8, 8), dtype=complex))
    for f in (u, u.with_coeffs(2.0 * u.coeffs), leray_project(u), built):
        with pytest.raises(ValueError):
            f.coeffs[0, 1, 0, 0] = 1.0
        with pytest.raises(ValueError):
            f.coeffs *= 2.0


# ----------------------------------------------------------------------
# storage: a field is its half spectrum k3 >= 0; full arrays enter through
# `SpectralField.from_full` and leave through `SpectralField.full`


def _every_field_output(grid, tmp_path):
    """Fields returned by each public function that returns fields."""
    from torusflow import (
        WeightPartition,
        binary_blend,
        blend,
        dyadic_block,
        paraproduct_decompose,
        pressure_solve,
        reassemble,
        regularize,
        step,
        unified_reconstruction,
        weighted_blend,
    )
    from torusflow.snapshots import read_snapshot, write_snapshot

    u, v = random_solenoidal_init(grid, 2.0, 1), taylor_green_init(grid)
    spec, w = MollifierSpec(0.3), WeightPartition(1.0, 3.0)
    p = SolverParams(nu=0.1, dt=1e-3, t_end=2e-3, forcing=shear_init(grid))
    traj = run(u, p)
    write_snapshot(tmp_path / "u.sns1", u)
    return [
        u, v, shear_init(grid), forward_transform(inverse_transform(u)),
        leray_project(u), heat_semigroup(u, 1.0, 0.1), divergence(u), gradient(u), curl(u),
        dealias(u), zero_mean(u), advect(u, v), nonlinear_term(u), step(u, p),
        step(u, replace(p, scheme="mild-duhamel")), *traj.snapshots, p.forcing, pressure_solve(u), smooth(u, spec),
        regularize(u, spec), weighted_blend(u, v, u, w), blend(u, v, u, w, spec),
        binary_blend(u, v, spec), dyadic_block(u, 1), reassemble(u), *paraproduct_decompose(u),
        *unified_reconstruction(traj, traj, traj, w, spec), *weak_test_battery(grid),
        read_snapshot(tmp_path / "u.sns1")[0], SpectralField.from_full(grid, u.full()),
    ]


@pytest.mark.parametrize("n", [4, 6, 8])
def test_every_returned_field_is_half_shaped_and_read_only(n, tmp_path):
    fields = _every_field_output(GridSpec(n), tmp_path)
    assert len(fields) == 47
    for f in fields:
        assert f.coeffs.shape == (3, n, n, n // 2 + 1) and f.coeffs.dtype == np.complex128
        assert not f.coeffs.flags.writeable


def _bits(c):
    return np.ascontiguousarray(c).view(np.uint64)


@pytest.mark.parametrize("n", [4, 6, 8, 16])
def test_from_full_inverts_full_bitwise(n):
    grid = GridSpec(n)
    white = np.random.default_rng(n).standard_normal((3, n, n, n))
    sources = [forward_transform(PhysicalField(grid, white)), random_solenoidal_init(grid, 2.0, n)]
    for scheme in ("strong-imex", "mild-duhamel"):
        p = SolverParams(nu=0.1, dt=1e-3, t_end=3e-3, scheme=scheme)
        sources += run(random_solenoidal_init(grid, 2.0, n + 1), p).snapshots
    for f in sources:
        full = f.full()
        assert full.shape == (3, n, n, n)
        back = SpectralField.from_full(grid, full, f.time)
        assert np.array_equal(back.full(), full) and back.time == f.time
        np.testing.assert_array_equal(_bits(back.full()), _bits(full))
        np.testing.assert_array_equal(_bits(back.coeffs), _bits(f.coeffs))
        assert hermitian_defect(f) <= 1e-13


def test_constructor_takes_only_the_half_spectrum(grid8):
    # no dispatch on shape: a full spectrum goes through from_full
    full = taylor_green_init(grid8).full()
    for c in (full, full[..., :4], full[..., :6], full[0]):
        with pytest.raises(ValueError):
            SpectralField(grid8, c)
    with pytest.raises(ValueError):
        SpectralField.from_full(grid8, full[..., :5])


def test_half_stored_field_departs_from_realness_only_on_self_conjugate_planes(grid8):
    # k and -k are both stored on the planes k3 = 0 and k3 = n/2 only
    c = taylor_green_init(grid8).coeffs.copy()
    c[0, 1, 2, 1] += 1.0  # a k3 = 1 mode: its mirror is built from it
    assert hermitian_defect(SpectralField(grid8, c)) == 0.0
    for k3 in (0, 4):
        c = taylor_green_init(grid8).coeffs.copy()
        c[0, 1, 2, k3] += 1.0
        assert hermitian_defect(SpectralField(grid8, c)) > 0.1


_finite_or_tie = st.one_of(st.floats(allow_nan=False), st.sampled_from([0.0, -0.0, -math.inf]))


@given(values=st.lists(_finite_or_tie, min_size=1, max_size=8), data=st.data())
def test_worst_is_max_unless_a_value_is_nan(values, data):
    # repr tells 0.0 from -0.0, so equal maxima must resolve as `max` resolves them
    assert repr(_worst(*values)) == repr(max(values))
    at = data.draw(st.integers(0, len(values)))
    assert math.isnan(_worst(*values[:at], math.nan, *values[at:]))


def _residuals_with_nan_mode(u):
    mode = weak_test_battery(u.grid)[0]
    c = mode.coeffs.copy()
    c[0, 0, 1, 0] = math.nan
    traj = run(shear_init(u.grid), SolverParams(nu=1.0, dt=0.01, t_end=0.01))
    return residual_defects(traj, [mode.with_coeffs(c)])


def _convergence_with_nan_scale(u):
    build = lambda e: smooth(u, MollifierSpec(e, "gaussian"))
    return convergence_study(build, [0.5, math.nan, 0.2, 0.1], 1.0, u)


# each library entry's range check, given NaN, and the error it raises
NAN_RANGE_CASES = {
    "heat-nu": (ValueError, lambda u: heat_semigroup(u, math.nan, 0.1)),
    "heat-t": (ValueError, lambda u: heat_semigroup(u, 1.0, math.nan)),
    "lifespan-u0": (ValueError, lambda u: lifespan_lower_bound(math.nan, 0.0, 1.0, 1.0)),
    "lifespan-c_s": (ValueError, lambda u: lifespan_lower_bound(1.0, 0.0, 1.0, math.nan)),
    "commutator-s": (ValueError, lambda u: commutator_bound_ratio(u, math.nan)),
    "convergence-eps": (DegenerateSequence, _convergence_with_nan_scale),
    "residual-mode": (NonSolenoidalTest, _residuals_with_nan_mode),
}


@pytest.mark.parametrize("case", NAN_RANGE_CASES)
def test_nan_fails_range_checks(case, grid8):
    error, call = NAN_RANGE_CASES[case]
    with pytest.raises(error):
        call(random_solenoidal_init(grid8, 2.0, 0))


# each library entry's check of an argument out of its range, and its message
OUT_OF_RANGE_CASES = {
    "run-cadence": (
        "cadence", lambda u: run(u, SolverParams(nu=0.1, dt=1e-2, t_end=1e-2), cadence=0)),
    "physical-shape": ("shape", lambda u: PhysicalField(u.grid, np.zeros((3, 8, 8, 5)))),
    "lp-exponent": ("p must be", lambda u: lattice_lp_norm(u, 3)),
}


@pytest.mark.parametrize("case", OUT_OF_RANGE_CASES)
def test_out_of_range_arguments_fail_range_checks(case, grid8):
    message, call = OUT_OF_RANGE_CASES[case]
    with pytest.raises(ValueError, match=message):
        call(random_solenoidal_init(grid8, 2.0, 0))


def test_fields_on_two_grids_are_refused():
    f16, g8 = shear_init(GridSpec(16)), shear_init(GridSpec(8))
    with pytest.raises(GridMismatch):
        inner_product(f16, g8)
    with pytest.raises(GridMismatch):
        advect(f16, g8)
    params = SolverParams(nu=0.1, dt=1e-3, t_end=1e-3)
    with pytest.raises(GridMismatch):
        Trajectory(params, [f16, g8.with_coeffs(g8.coeffs, time=1e-3)])


@pytest.mark.parametrize("n", [4, 6, 8, 16, 64])
def test_scratch_transforms_match_numpy_bitwise(n):
    # _to_physical runs irfftn's axis passes through one cached complex array,
    # _to_spectral runs rfftn's complex passes in place: numpy's bits either way
    rng = np.random.default_rng(n)
    h = n // 2 + 1
    for lead in ((3,), ()):
        shape = lead + (n, n, h)
        c, other = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape) for _ in range(2))
        x = rng.standard_normal(lead + (n, n, n))
        phys = _to_physical(c, n)
        expected = np.fft.irfftn(c, s=(n, n, n), axes=(-3, -2, -1), norm="forward")
        assert np.array_equal(phys.view(np.uint64), expected.view(np.uint64))
        half = _to_spectral(x)
        expected = np.fft.rfftn(x, axes=(-3, -2, -1), norm="forward")
        assert np.array_equal(half.view(np.uint64), expected.view(np.uint64))
        # a returned array never aliases the scratch: a second transform
        # leaves the first result as it was
        kept = phys.copy()
        _to_physical(other, n)
        assert np.array_equal(phys.view(np.uint64), kept.view(np.uint64))


@pytest.mark.parametrize("n", [4, 8, 16, 32])
def test_to_physical_of_the_work_array_in_place_matches_a_fresh_copy(n):
    # the kernel forms each gradient triple in the work array and transforms it
    # there, into a product buffer it owns; the bits are those of a fresh input
    rng = np.random.default_rng(n)
    shape = (3, n, n, n // 2 + 1)
    c = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    expected = _to_physical(c.copy(), n)
    work = _scratch(shape)
    work[...] = c
    out = np.empty((3, n, n, n))
    assert _to_physical(work, n, out=out) is out
    assert np.array_equal(out.view(np.uint64), expected.view(np.uint64))


def _allocating_advect_arrays(fc, gc, grid):
    """The kernel with a new gradient array per call and a new product array
    per component, which forming the gradients in the work array replaced."""
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


@pytest.mark.parametrize("n", [4, 6, 16, 32])
@pytest.mark.parametrize("kind", ["random", "taylor-green"])
def test_kernel_in_its_work_array_equals_the_allocating_kernel_bitwise(n, kind):
    grid = GridSpec(n)
    if kind == "random":
        f, g = (random_solenoidal_init(grid, 2.0, seed).coeffs for seed in (n, n + 1))
    else:
        f = g = taylor_green_init(grid).coeffs
    out, fmax = _advect_convective(f, g, grid)
    ref, ref_fmax = _allocating_advect_arrays(f, g, grid)
    assert np.array_equal(out.view(np.uint64), ref.view(np.uint64))
    assert fmax == ref_fmax


# ----------------------------------------------------------------------
# the divergence-form kernel body, which a band-limited field advecting
# itself takes


def _band_limited_field(n, seed):
    """Coefficients of a random solenoidal field cut to 3 |k_axis| < n."""
    grid = GridSpec(n)
    in1, in2, in3 = (3 * np.abs(k) < n for k in grid.wavenumbers)
    c = random_solenoidal_init(grid, 2.0, seed).coeffs * (in1 & in2 & in3)
    assert _band_limited(c, n)
    return c


@pytest.mark.parametrize("n", [4, 8, 16, 32])
@pytest.mark.parametrize("seed", [0, 1])
def test_divergence_form_equals_convective_form_on_band_limited_fields(n, seed):
    grid = GridSpec(n)
    u = _band_limited_field(n, seed)
    div, umax = _advect_divergence(u, grid)
    conv, conv_umax = _advect_convective(u, u, grid)
    assert umax == conv_umax
    slow = _leray(conv, grid)
    assert np.max(np.abs(_leray(div, grid) - slow)) <= 1e-14 * np.max(np.abs(slow))


def _full_array_divergence(fc, grid):
    """The divergence-form body that forming the term on the 2/3 box replaced:
    both product triples transformed, combined and masked on the whole half
    spectrum."""
    n = grid.n
    up = _to_physical(fc, n)
    umax = float(np.sqrt((up**2).sum(axis=0)).max())
    prod = np.multiply(up[0], up)
    np.multiply(up[1], up[1], out=up[0])
    np.multiply(up[1], up[2], out=up[1])
    np.multiply(up[2], up[2], out=up[2])
    h1 = _to_spectral(up)
    out = _to_spectral(prod)
    k1, k2, k3 = grid.deriv_wavenumbers
    out[0] = k1 * out[0] + k2 * out[1] + k3 * out[2]
    out[1] = k1 * out[1] + k2 * h1[0] + k3 * h1[1]
    out[2] = k1 * out[2] + k2 * h1[1] + k3 * h1[2]
    out *= grid.dealias_mask
    out *= 1j
    return out, umax


@pytest.mark.parametrize("n", [4, 6, 8, 10, 12, 16, 32])
@pytest.mark.parametrize("kind", ["taylor-green", "random"])
@pytest.mark.parametrize("pruned", [True, False])
def test_the_box_body_equals_the_full_array_body_on_every_kept_mode(n, kind, pruned, monkeypatch):
    # each body on every grid, whichever one the grid size selects: on the
    # box the term is +0.0 off it; the full-array body keeps its signed zeros
    monkeypatch.setattr(spectral, "PRUNE_MIN_N", 4 if pruned else n + 1)
    grid = GridSpec(n)
    u = taylor_green_init(grid).coeffs if kind == "taylor-green" else _band_limited_field(n, n)
    # the box is exactly the mask's support
    box = grid.dealias_box
    support = np.zeros(u.shape[1:], dtype=bool)
    support[box.rows[:, None], box.rows, : box.cols] = True
    assert np.array_equal(support, grid.dealias_mask == 1.0)
    kept = np.broadcast_to(support, u.shape)
    ref, ref_umax = _full_array_divergence(u, grid)
    field = SpectralField(grid, u)
    term, umax = solvers._advection(u, grid)
    for out, expected in (
        (_advect_arrays(u, u, grid)[0], ref),
        (advect(field, field).coeffs, ref),
        (term, -_leray(ref, grid)),
    ):
        assert np.array_equal(out[kept].view(np.uint64), expected[kept].view(np.uint64))
        if pruned:
            assert not out[~kept].view(np.uint64).any()
        else:
            assert np.array_equal(out.view(np.uint64), expected.view(np.uint64))
    assert np.float64(umax).view(np.uint64) == np.float64(ref_umax).view(np.uint64)


@pytest.mark.parametrize("n", [8, 10, 14, 16, 20, 32, 64])
@pytest.mark.parametrize("kind", ["taylor-green", "random"])
@pytest.mark.parametrize("project", [False, True])
def test_a_box_input_takes_the_divergence_form_on_the_box(n, kind, project, monkeypatch):
    # a field given as its 2/3 box (a run's state on the box) has the samples
    # of its half spectrum, bit for bit, and gets back the box of the half
    # spectrum's term, with no band check and in 9 numpy.fft calls; below
    # PRUNE_MIN_N too, where a half spectrum takes the whole body
    grid = GridSpec(n)
    u = taylor_green_init(grid).coeffs if kind == "taylor-green" else _band_limited_field(n, n)
    box = grid.dealias_box
    c = box.gather(u)
    phys = _to_physical(c, n, box=box)
    assert np.array_equal(phys.view(np.uint64), _to_physical(u, n).view(np.uint64))
    ref, ref_umax = _advect_arrays(u, u, grid, project)
    calls = count_calls(monkeypatch, "_band_limited", "_advect_divergence")
    ffts = count_fft_calls(monkeypatch)
    out, umax = _advect_arrays(c, c, grid, project)
    assert calls == {"_band_limited": 0, "_advect_divergence": 1}
    assert sum(ffts.values()) == 9
    assert out.shape == c.shape and umax == ref_umax
    assert np.array_equal(out.view(np.uint64), box.gather(ref).view(np.uint64))


@pytest.mark.parametrize("n", [16, 20, 32, 64])
@pytest.mark.parametrize("kind", ["taylor-green", "random"])
@pytest.mark.parametrize("frame", ["box", "half"])
@pytest.mark.parametrize("project", [False, True])
def test_the_divergence_form_in_an_arena_keeps_every_bit(n, kind, frame, project):
    # a run on the box hands the kernel an arena for u's samples and its first
    # product triple: the term keeps its bits, signed zeros included, whatever
    # the arena held, and max |u|, read from the products, is that of numpy's
    # own samples of u
    grid = GridSpec(n)
    u = taylor_green_init(grid).coeffs if kind == "taylor-green" else _band_limited_field(n, n)
    box = grid.dealias_box if frame == "box" else None
    c = u if box is None else box.gather(u)
    ref, ref_umax = _advect_divergence(c, grid, project, box)
    arena = np.full((2, 3, n, n, n), np.nan)
    out, umax = _advect_divergence(c, grid, project, box, arena)
    assert np.array_equal(out.view(np.uint64), ref.view(np.uint64))
    up = np.fft.irfftn(u, s=(n, n, n), axes=(-3, -2, -1), norm="forward")
    expected = float(np.sqrt((up**2).sum(axis=0)).max())
    assert np.float64(umax).view(np.uint64) == np.float64(expected).view(np.uint64)
    assert np.float64(ref_umax).view(np.uint64) == np.float64(expected).view(np.uint64)


@pytest.mark.parametrize("body", ["divergence", "convective"])
def test_each_kernel_body_matches_convolution_oracle(body, grid8):
    # the other oracle comparisons pass band-limited fields, which the
    # dispatch sends to the divergence form; this one checks both bodies
    from torusflow.oracles import convolution_nonlinear_term

    kernel = {"divergence": lambda c: _advect_divergence(c, grid8),
              "convective": lambda c: _advect_convective(c, c, grid8)}[body]
    band = leray_project(SpectralField(grid8, _band_limited_field(8, 5)))
    for u in (taylor_green_init(grid8), band):
        fast = leray_project(u.with_coeffs(kernel(u.coeffs)[0]))
        slow = SpectralField.from_full(grid8, convolution_nonlinear_term(u))
        assert l2_norm(fast.with_coeffs(fast.coeffs - slow.coeffs)) <= 1e-12 * l2_norm(slow)


def _with_mode(c, axis, k):
    out = c.copy()
    index = [0, 0, 0, 0]
    index[1 + axis] = k  # a negative k indexes from the end, where -k is stored
    out[tuple(index)] = 1e-3
    return out


@pytest.mark.parametrize(("n", "axis", "k"), [
    (12, 0, 4), (12, 0, -4), (12, 1, 4), (12, 1, -4), (12, 2, 4),  # 3 |k| = n
    (16, 0, 8), (16, 1, -6), (16, 2, 6),  # the Nyquist slot and 3 |k| = n + 2
])
def test_the_kernel_declines_a_field_with_content_on_the_band_edge(n, axis, k, monkeypatch):
    grid = GridSpec(n)
    u = _with_mode(_band_limited_field(n, 0), axis, k)
    assert not _band_limited(u, n)
    calls = count_calls(monkeypatch, "_advect_divergence", "_advect_convective")
    out, umax = _advect_arrays(u, u, grid)
    assert calls == {"_advect_divergence": 0, "_advect_convective": 1}
    monkeypatch.undo()
    ref, ref_umax = _advect_convective(u, u, grid)
    assert np.array_equal(out.view(np.uint64), ref.view(np.uint64)) and umax == ref_umax


def test_an_n12_field_on_the_band_edge_differs_between_the_two_forms():
    # the two forms alias the surviving boundary triad differently, which is
    # why the dispatch excludes 3 |k| = n
    grid = GridSpec(12)
    u = dealias(random_solenoidal_init(grid, 2.0, 0)).coeffs
    conv = _leray(_advect_convective(u, u, grid)[0], grid)
    gap = np.max(np.abs(_leray(_advect_divergence(u, grid)[0], grid) - conv))
    assert gap > 1e-8 * np.max(np.abs(conv))


@pytest.mark.parametrize("case", ["band-limited", "not band-limited", "f is not g"])
def test_the_kernel_takes_the_divergence_form_only_for_a_band_limited_field_advecting_itself(
    case, monkeypatch
):
    grid = GridSpec(16)
    u = random_solenoidal_init(grid, 2.0, 4).coeffs if case == "not band-limited" else (
        _band_limited_field(16, 4))
    g = u.copy() if case == "f is not g" else u
    calls = count_calls(monkeypatch, "_advect_divergence", "_advect_convective")
    ffts = count_fft_calls(monkeypatch)
    out, umax = _advect_arrays(u, g, grid)
    taken = case == "band-limited"
    assert calls == {"_advect_divergence": int(taken), "_advect_convective": int(not taken)}
    # divergence form: u in and two product triples out, three passes each;
    # convective form: f in, three gradient triples in and the product out
    assert sum(ffts.values()) == (9 if taken else 15)
    monkeypatch.undo()
    if taken:
        # n = 16 >= PRUNE_MIN_N: the box body on u's box, scattered back
        box = grid.dealias_box
        ref, ref_umax = _advect_divergence(box.gather(u), grid, box=box)
        ref = box.scatter(ref, 16)
    else:
        ref, ref_umax = _advect_convective(u, g, grid)
    assert np.array_equal(out.view(np.uint64), ref.view(np.uint64)) and umax == ref_umax
