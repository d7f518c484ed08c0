"""The half-spectrum blend and unified reconstruction against the full-spectrum
pipeline they replace.

`_reference_blend` and `_reference_reconstruct` are the full-spectrum bodies
of `blend` and `diagnostics._reconstruct` before the reconstruction moved to
the half spectrum k3 >= 0: three `regularize`, the blend with its window
pair and Leray projection, then `smooth`.  The half-spectrum path must give
the same k3 >= 0 block bit for bit and the same full output up to the signs
of zeros (`array_equal`), and it must never read an input's k3 < 0 half.
"""

from dataclasses import replace

import numpy as np
import pytest

from torusflow import (
    GridSpec,
    MollifierSpec,
    PhysicalField,
    SolverParams,
    SpectralField,
    Trajectory,
    WeightPartition,
    blend,
    forward_transform,
    leray_project,
    random_solenoidal_init,
    regularize,
    run,
    smooth,
    unified_reconstruction,
)
from torusflow.diagnostics import _reconstruct
from torusflow.operators import band_weights, spatial_window
from torusflow.spectral import _to_physical

GRIDS = (4, 6, 8, 12, 16)
KINDS = ("gaussian", "bump")
EPS = (0.5, 0.1, 2.0**-8)
SCHEMES = ("weak-galerkin", "mild-duhamel", "strong-imex")


def _reference_blend(low, mid, high, w, spec):
    """Full-spectrum `blend`: weighted sum, window pair, Leray."""
    ww, wm, ws = band_weights(w, low.grid.k_magnitude)
    g = low.with_coeffs(ww * low.coeffs + wm * mid.coeffs + ws * high.coeffs)
    grid = low.grid
    win = spatial_window(spec, grid)
    smeared = forward_transform(PhysicalField(grid, win * _to_physical(g.coeffs, grid.n)))
    return leray_project(g.with_coeffs(smeared.coeffs))


def _reference_reconstruct(fs, w, spec):
    """Full-spectrum `_reconstruct`: three `regularize`, `blend`, `smooth`."""
    rw, rm, rs = (regularize(f, spec) for f in fs)
    return replace(smooth(_reference_blend(rw, rm, rs, w, spec), spec), time=fs[1].time)


def _weights(n: int) -> WeightPartition:
    # the unify experiment's default edges
    return WeightPartition(n / 8.0, 3.0 * n / 8.0)


def _half_bits(f: SpectralField) -> np.ndarray:
    return np.ascontiguousarray(f.coeffs[..., : f.grid.n // 2 + 1]).view(np.uint64)


def _assert_same(new: SpectralField, ref: SpectralField):
    assert new.grid == ref.grid and new.time == ref.time
    np.testing.assert_array_equal(_half_bits(new), _half_bits(ref))
    assert np.array_equal(new.coeffs, ref.coeffs)


def _noise(grid: GridSpec, seed: int, time: float = 0.0) -> SpectralField:
    """Arbitrary complex coefficients: neither Hermitian nor solenoidal."""
    rng = np.random.default_rng(seed)
    shape = (3, grid.n, grid.n, grid.n)
    return SpectralField(grid, rng.standard_normal(shape) + 1j * rng.standard_normal(shape), time)


def _scramble_lower_half(f: SpectralField, seed: int) -> SpectralField:
    """f with its k3 < 0 block overwritten by other values."""
    c = f.coeffs.copy()
    h = f.grid.n // 2 + 1
    c[..., h:] = _noise(f.grid, seed).coeffs[..., h:]
    return f.with_coeffs(c)


def _scheme_trajectories(grid: GridSpec) -> tuple[Trajectory, ...]:
    """(weak, mild, strong) runs of one seeded random datum."""
    u0 = random_solenoidal_init(grid, 2.0, 7)
    return tuple(
        run(u0, SolverParams(nu=0.05, dt=1e-3, t_end=3e-3, scheme=s)) for s in SCHEMES
    )


def _noise_trajectories(grid: GridSpec, seed: int = 0) -> list[Trajectory]:
    """Three trajectories of arbitrary non-Hermitian coefficients."""
    p = SolverParams(nu=0.05, dt=1e-3, t_end=2e-3)
    return [
        Trajectory(p, [_noise(grid, seed + 10 * i + m, m * 1e-3) for m in range(3)])
        for i in range(3)
    ]


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("n", GRIDS)
@pytest.mark.parametrize("source", [_scheme_trajectories, _noise_trajectories],
                         ids=["scheme-snapshots", "non-hermitian"])
def test_unified_reconstruction_matches_full_spectrum_pipeline(source, n, kind):
    trajs = source(GridSpec(n))
    w = _weights(n)
    for eps in EPS:
        spec = MollifierSpec(eps, kind)
        merged = unified_reconstruction(*trajs, w, spec)
        for m, fs in enumerate(zip(*[t.snapshots for t in trajs])):
            ref = _reference_reconstruct(fs, w, spec)
            _assert_same(merged[m], ref)
            _assert_same(_reconstruct(fs, w, spec), ref)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("n", GRIDS)
def test_blend_matches_full_spectrum_blend(n, kind):
    grid = GridSpec(n)
    w = _weights(n)
    solenoidal = tuple(random_solenoidal_init(grid, 2.0, seed) for seed in range(3))
    noise = tuple(_noise(grid, seed) for seed in range(3))
    for eps in EPS:
        spec = MollifierSpec(eps, kind)
        for fields in (solenoidal, noise):
            _assert_same(blend(*fields, w, spec), _reference_blend(*fields, w, spec))


@pytest.mark.parametrize("n", (6, 8))
def test_blend_and_reconstruction_never_read_the_lower_half(n):
    grid = GridSpec(n)
    w = _weights(n)
    spec = MollifierSpec(0.1, "bump")
    fields = tuple(_noise(grid, seed) for seed in range(3))
    scrambled = tuple(_scramble_lower_half(f, 100 + i) for i, f in enumerate(fields))
    assert not any(np.array_equal(a.coeffs, b.coeffs) for a, b in zip(fields, scrambled))
    np.testing.assert_array_equal(blend(*fields, w, spec).coeffs.view(np.uint64),
                                  blend(*scrambled, w, spec).coeffs.view(np.uint64))

    trajs = _noise_trajectories(grid)
    other = [
        Trajectory(t.params, [_scramble_lower_half(s, 200 + 10 * i + m)
                              for m, s in enumerate(t.snapshots)])
        for i, t in enumerate(trajs)
    ]
    for a, b in zip(unified_reconstruction(*trajs, w, spec),
                    unified_reconstruction(*other, w, spec)):
        np.testing.assert_array_equal(a.coeffs.view(np.uint64), b.coeffs.view(np.uint64))
