import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from torusflow import (
    GridSpec,
    MollifierSpec,
    SpectralField,
    WeightPartition,
    band_weights,
    binary_blend,
    binary_cutoff,
    blend,
    divergence_defect,
    heat_semigroup,
    l2_norm,
    leray_project,
    mollifier_symbol,
    random_solenoidal_init,
    regularize,
    shear_init,
    smooth,
    sobolev_norm,
    spatial_window,
    weighted_blend,
)
from torusflow.errors import GridMismatch
from torusflow.operators import _bump_table
from torusflow.spectral import SOLENOIDAL_TOL, gradient


def test_mollifier_spec_validation():
    for eps in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            MollifierSpec(eps)
    with pytest.raises(ValueError):
        MollifierSpec(0.1, "sinc")


def test_gaussian_symbol_closed_form():
    spec = MollifierSpec(0.1, "gaussian")
    assert mollifier_symbol(spec, 10.0) == pytest.approx(np.exp(-0.5), rel=1e-14)


@pytest.mark.parametrize("kind", ["gaussian", "bump"])
def test_symbol_unit_at_origin_and_monotone(kind):
    spec = MollifierSpec(0.2, kind)
    assert mollifier_symbol(spec, 0.0) == 1.0
    assert mollifier_symbol(spec, 4.0) >= mollifier_symbol(spec, 8.0)
    r = np.linspace(0.0, 50.0, 5001)
    vals = mollifier_symbol(spec, r)
    assert np.all(vals >= 0.0) and np.all(vals <= 1.0)
    assert np.all(np.diff(vals) <= 0.0)


@pytest.mark.parametrize("kind", ["gaussian", "bump"])
def test_smoothing_contraction_both_kinds(grid16, random_fields_16, kind):
    for u in random_fields_16:
        for eps in (0.5, 0.1):
            spec = MollifierSpec(eps, kind)
            sm = smooth(u, spec)
            rg = regularize(u, spec)
            for s in (0.0, 1.0, 2.0, 3.0):
                base = sobolev_norm(u, s)
                assert sobolev_norm(sm, s) <= base
                assert sobolev_norm(rg, s) <= base


def test_smooth_constant_field_unchanged(grid8):
    c = np.zeros((3, 8, 8, 8), dtype=complex)
    c[0, 0, 0, 0] = 2.5
    f = SpectralField.from_full(grid8, c)
    out = smooth(f, MollifierSpec(0.3, "gaussian"))
    assert np.array_equal(out.coeffs, f.coeffs)


def test_bump_table_ends_at_zero():
    # past its end the symbol interpolates to 0, so the truncated table is
    # lossless only while its last entry is exactly 0
    r, table = _bump_table()
    assert table[-1] == 0.0
    assert mollifier_symbol(MollifierSpec(1.0, "bump"), r[-1] + 1.0) == 0.0


def test_bump_table_matches_one_shot_quadrature():
    # the reference sums the whole 4097 x 400 quadrature in one np.outer
    # product; the table sums it in row blocks and must keep every bit
    nodes, weights = np.polynomial.legendre.leggauss(400)
    s = 0.5 * (nodes + 1.0)
    w = 0.5 * weights
    profile = np.exp(-1.0 / (1.0 - s**2))
    mass = np.sum(w * profile * s**2)
    r = np.linspace(0.0, 8.0, 4097)
    vals = (np.sinc(np.outer(r, s) / np.pi) * (profile * s**2 * w)).sum(axis=1) / mass
    reference = np.minimum.accumulate(np.clip(vals, 0.0, 1.0))
    grid_r, table = _bump_table()
    assert np.array_equal(grid_r.view(np.uint64), r.view(np.uint64))
    assert np.array_equal(table.view(np.uint64), reference.view(np.uint64))


def test_smoothing_gain_product_bounded_along_sequence():
    grid = GridSpec(32)
    kmag = grid.k_magnitude.copy()
    kmag[0, 0, 0] = 1.0
    amp = kmag**-1.5
    amp[0, 0, 0] = 0.0
    f = SpectralField(grid, np.repeat(amp[None], 3, axis=0).astype(complex))
    f = f.with_coeffs(f.coeffs / l2_norm(f))
    products = [
        e**2 * sobolev_norm(smooth(f, MollifierSpec(e, "gaussian")), 2.0)
        for e in (0.5, 0.25, 0.125, 0.0625)
    ]
    assert max(products) <= 2.0 * min(products[0], 1.0) + 1.0


def test_regularize_gaussian_small_eps_close(grid32):
    v = random_solenoidal_init(grid32, 1.0, 17)
    out = regularize(v, MollifierSpec(2.0**-10, "gaussian"))
    rel = sobolev_norm(out.with_coeffs(out.coeffs - v.coeffs), 1.0) / sobolev_norm(v, 1.0)
    assert rel <= 1e-3


def test_regularize_annihilates_gradients(grid16):
    rng = np.random.default_rng(3)
    phi = np.fft.fftn(rng.standard_normal((16, 16, 16))) / 16**3
    scal = np.zeros((3, 16, 16, 16), dtype=complex)
    scal[0] = phi
    grad = gradient(SpectralField.from_full(grid16, scal))
    out = regularize(grad, MollifierSpec(0.1, "gaussian"))
    assert l2_norm(out) <= 1e-12 * max(l2_norm(grad), 1.0)


def test_weight_partition_validation():
    with pytest.raises(ValueError):
        WeightPartition(5.0, 4.0)
    with pytest.raises(ValueError):
        WeightPartition(0.0, 4.0)
    with pytest.raises(ValueError):
        WeightPartition(1.0, math.inf)


def test_weight_eval_examples():
    w = WeightPartition(4.0, 12.0)
    assert band_weights(w, 0.0) == (1.0, 0.0, 0.0)
    assert band_weights(w, 16.0) == (0.0, 0.0, 1.0)
    assert band_weights(w, 8.0) == (0.0, 1.0, 0.0)


def test_weight_support_conditions(grid32):
    w = WeightPartition(4.0, 12.0)
    r = grid32.k_magnitude
    ww, wm, ws = band_weights(w, grid32.k_magnitude)
    assert np.all(ww[r >= 4.0] == 0.0)
    assert np.all(ww[r <= 3.0] == 1.0)
    assert np.all(ws[r <= 12.0] == 0.0)
    assert np.all(ws[r >= 15.0] == 1.0)
    assert np.max(np.abs(ww + wm + ws - 1.0)) <= 1e-15
    assert np.all((ww >= 0) & (ww <= 1) & (wm >= 0) & (wm <= 1) & (ws >= 0) & (ws <= 1))


def test_band_weights_scalar_form_matches_array_form_bitwise(grid16):
    w = WeightPartition(2.0, 6.0)
    r = grid16.k_magnitude
    grid_form = band_weights(w, r)
    for k in np.unique(r):
        at = r == k
        for scalar, array in zip(band_weights(w, float(k)), grid_form):
            assert isinstance(scalar, float)
            np.testing.assert_array_equal(np.float64(scalar).view(np.int64),
                                          array[at].view(np.int64))


def test_binary_cutoff_profile():
    assert binary_cutoff(np.asarray(0.5)) == 1.0
    assert binary_cutoff(np.asarray(2.0)) == 0.0
    assert binary_cutoff(np.asarray(1.5)) == pytest.approx(0.5, abs=1e-15)


def test_blend_identity_collapse_partition_of_unity(grid16, random_fields_16, helpers):
    # identical inputs: the weighted blend must reduce to a pure smoothing
    # of the common field, converging as eps -> 0
    phi = leray_project(random_fields_16[6])
    w = WeightPartition(2.0, 6.0)
    errs = []
    for e in (0.25, 0.0625, 0.015625, 0.00390625):
        spec = MollifierSpec(e, "gaussian")
        out = blend(phi, phi, phi, w, spec)
        errs.append(helpers.rel_diff(out, phi, 1.0))
    assert all(b <= a for a, b in zip(errs, errs[1:]))
    assert errs[-1] <= 1e-3


def test_blend_binary_saturation(grid16, random_fields_16):
    uw, us = random_fields_16[0], random_fields_16[2]
    out = binary_blend(uw, us, MollifierSpec(4.0, "gaussian"))
    diff = np.abs(out.coeffs - us.coeffs)
    diff[:, 0, 0, 0] = 0.0
    assert np.max(diff) == 0.0


def test_weighted_blend_disjoint_support_exact(grid16, random_fields_16):
    w = WeightPartition(4.0, 12.0)
    r = grid16.k_magnitude
    low = random_fields_16[3].with_coeffs(
        np.where(r <= 3.0, random_fields_16[3].coeffs, 0.0)
    )
    high = random_fields_16[4].with_coeffs(
        np.where(r >= 15.0, random_fields_16[4].coeffs, 0.0)
    )
    mid = random_fields_16[5].with_coeffs(np.zeros_like(low.coeffs))
    g = weighted_blend(low, mid, high, w)
    assert np.array_equal(g.coeffs, low.coeffs + high.coeffs)


def test_blend_grid_mismatch(grid8, grid16):
    a = shear_init(grid8)
    b = shear_init(grid16)
    with pytest.raises(GridMismatch):
        binary_blend(a, b, MollifierSpec(0.1))


def test_blend_stability_bounds(grid16, random_fields_16):
    w = WeightPartition(2.0, 6.0)
    uw, um, us = random_fields_16[7:10]
    for s in (0.0, 1.0, 2.0):
        total = sum(sobolev_norm(f, s) for f in (uw, um, us))
        binary = binary_blend(uw, us, MollifierSpec(0.25, "gaussian"))
        assert sobolev_norm(binary, s) <= total
        weighted = blend(uw, um, us, w, MollifierSpec(0.25, "gaussian"))
        assert sobolev_norm(weighted, s) <= 2.0 * total


def test_binary_blend_and_multipliers_commute_with_heat(grid16, random_fields_16, helpers):
    nu, t = 0.7, 0.2
    spec = MollifierSpec(0.25, "gaussian")
    f, h = random_fields_16[10], random_fields_16[11]
    one = heat_semigroup(binary_blend(f, h, spec), nu, t)
    two = binary_blend(heat_semigroup(f, nu, t), heat_semigroup(h, nu, t), spec)
    assert helpers.rel_diff(one, two) <= 1e-12
    assert helpers.rel_diff(
        heat_semigroup(smooth(f, spec), nu, t), smooth(heat_semigroup(f, nu, t), spec)
    ) <= 1e-12
    assert helpers.rel_diff(
        heat_semigroup(regularize(f, spec), nu, t), regularize(heat_semigroup(f, nu, t), spec)
    ) <= 1e-12


def test_band_operators_keep_fields_solenoidal(grid16, random_fields_16):
    u = random_fields_16[12]
    spec = MollifierSpec(0.3, "gaussian")
    w = WeightPartition(2.0, 6.0)
    for out in (smooth(u, spec), regularize(u, spec), binary_blend(u, u, spec),
                blend(u, u, u, w, spec)):
        assert divergence_defect(out) <= SOLENOIDAL_TOL


def test_spatial_window_unit_mean_and_limit(grid16):
    for e in (0.25, 0.03125):
        win = spatial_window(MollifierSpec(e, "gaussian"), grid16)
        assert win.mean() == pytest.approx(1.0, abs=1e-14)
    tight = spatial_window(MollifierSpec(0.001, "gaussian"), grid16)
    assert np.max(np.abs(tight - 1.0)) <= 1e-4


@given(
    e1=st.floats(min_value=0.01, max_value=1.0),
    e2=st.floats(min_value=0.01, max_value=1.0),
)
def test_gaussian_smoothing_semigroup_property(e1, e2):
    # e^{-e1^2 k^2/2} e^{-e2^2 k^2/2} = e^{-(e1^2+e2^2) k^2/2}: smoothing
    # twice equals one smoothing at the combined scale (gaussian kind only)
    grid = GridSpec(8)
    u = shear_init(grid)
    twice = smooth(smooth(u, MollifierSpec(e1)), MollifierSpec(e2))
    once = smooth(u, MollifierSpec(np.hypot(e1, e2)))
    gap = np.max(np.abs(twice.coeffs - once.coeffs))
    assert gap <= 1e-13 * np.max(np.abs(once.coeffs))


def test_binary_blend_of_identical_fields_is_identity(grid16, random_fields_16):
    u = random_fields_16[13]
    out = binary_blend(u, u, MollifierSpec(0.25))
    gap = np.max(np.abs(out.coeffs - u.coeffs))
    assert gap <= 1e-15 * np.max(np.abs(u.coeffs))


def test_pipeline_monotone_smoothed_blend(grid8):
    phi = shear_init(grid8)
    w = WeightPartition(1.0, 3.0)
    errs = []
    for e in [2.0**-k for k in range(2, 9)]:
        spec = MollifierSpec(e, "gaussian")
        out = smooth(blend(phi, phi, phi, w, spec), spec)
        errs.append(
            sobolev_norm(out.with_coeffs(out.coeffs - phi.coeffs), 1.0)
            / sobolev_norm(phi, 1.0)
        )
    assert all(b <= a for a, b in zip(errs, errs[1:]))
