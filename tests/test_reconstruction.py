"""The half-spectrum blend and unified reconstruction against the full-spectrum
pipeline they replace.

`_reference_blend` and `_reference_reconstruct` are the full-spectrum bodies
of `blend` and `operators._regularized_blend` on full (3, n, n, n) arrays:
three `regularize`, the blend with its window pair and Leray projection,
then `smooth`.  That order is the definition of the reconstruction.  The
half-spectrum `blend` must give the same k3 >= 0 block bit for bit and the
same full output up to the signs of zeros (`array_equal`).  The
reconstruction applies one P S to the band sum instead of one per scheme
(S P W P S of the sum, W the window pair); the multipliers commute mode by
mode, so it must match the reference to 1e-13 of max |coefficient|, on the
half block and on the full spectrum.  A field has no k3 < 0 half to read:
a full array whose lower half is not the mirror of the rest is refused
where it enters (`SpectralField.from_full`).
"""

import numpy as np
import pytest

from conftest import full_k_squared, full_leray
from torusflow import (
    GridSpec,
    MollifierSpec,
    SolverParams,
    SpectralField,
    Trajectory,
    WeightPartition,
    blend,
    mollifier_symbol,
    random_solenoidal_init,
    run,
    unified_reconstruction,
)
from torusflow import operators
from torusflow.errors import SymmetryViolation
from torusflow.operators import _regularized_blend, band_weights, spatial_window
from torusflow.spectral import _mirror, _to_physical, _to_spectral

GRIDS = (4, 6, 8, 12, 16)
KINDS = ("gaussian", "bump")
EPS = (0.5, 0.1, 2.0**-8)
SCHEMES = ("weak-galerkin", "mild-duhamel", "strong-imex")


def _reference_blend(grid, low, mid, high, w, spec):
    """Full-spectrum `blend` of full arrays: weighted sum, window pair, Leray."""
    n, h = grid.n, grid.n // 2 + 1
    ww, wm, ws = band_weights(w, np.sqrt(full_k_squared(grid)))
    g = ww * low + wm * mid + ws * high
    win = spatial_window(spec, grid)
    smeared = _mirror(_to_spectral(win * _to_physical(g[..., :h], n)), n)
    return full_leray(smeared, grid)


def _reference_reconstruct(fs, w, spec):
    """Full-spectrum `_regularized_blend`: three `regularize`, `blend`, `smooth`."""
    grid = fs[0].grid
    sym = mollifier_symbol(spec, np.sqrt(full_k_squared(grid)))
    rw, rm, rs = (full_leray(f.full() * sym, grid) for f in fs)
    return _reference_blend(grid, rw, rm, rs, w, spec) * sym


def _weights(n: int) -> WeightPartition:
    # the unify experiment's default edges
    return WeightPartition(n / 8.0, 3.0 * n / 8.0)


def _assert_same(new: SpectralField, ref: np.ndarray):
    half = np.ascontiguousarray(ref[..., : new.grid.n // 2 + 1])
    np.testing.assert_array_equal(new.coeffs.view(np.uint64), half.view(np.uint64))
    assert np.array_equal(new.full(), ref)


def _assert_close(new: SpectralField, ref: np.ndarray):
    """max |new - ref| <= 1e-13 max |ref|, on the k3 >= 0 block and on the full spectrum."""
    bound = 1e-13 * np.max(np.abs(ref))
    half = ref[..., : new.grid.n // 2 + 1]
    assert np.max(np.abs(new.coeffs - half)) <= bound
    assert np.max(np.abs(new.full() - ref)) <= bound


def _noise(grid: GridSpec, seed: int, time: float = 0.0) -> SpectralField:
    """Arbitrary complex coefficients: not solenoidal, and not Hermitian on the
    self-conjugate planes k3 = 0 and k3 = n/2."""
    rng = np.random.default_rng(seed)
    shape = (3, grid.n, grid.n, grid.n // 2 + 1)
    return SpectralField(grid, rng.standard_normal(shape) + 1j * rng.standard_normal(shape), time)


def _scramble_lower_half(f: SpectralField, seed: int) -> np.ndarray:
    """The full spectrum of f with its k3 < 0 block overwritten by other values."""
    c = f.full()
    h = f.grid.n // 2 + 1
    c[..., h:] = _noise(f.grid, seed).full()[..., h:]
    return c


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
        merge = _regularized_blend(GridSpec(n), w, spec)
        for m, fs in enumerate(zip(*[t.snapshots for t in trajs])):
            ref = _reference_reconstruct(fs, w, spec)
            assert merged[m].time == merge(*fs).time == fs[1].time
            _assert_close(merged[m], ref)
            _assert_close(merge(*fs), ref)


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
            ref = _reference_blend(grid, *(f.full() for f in fields), w, spec)
            _assert_same(blend(*fields, w, spec), ref)


def test_the_merge_carries_the_mild_time_and_grid():
    # a triple of three different times: the merge is stamped with the mild
    # field's time and grid, whatever the weak and strong fields carry
    grid = GridSpec(8)
    weak, mild, strong = (_noise(grid, seed, t) for seed, t in ((0, 0.5), (1, 0.25), (2, 2.0)))
    merged = _regularized_blend(grid, _weights(8), MollifierSpec(0.5))(weak, mild, strong)
    assert isinstance(merged, SpectralField)
    assert merged.time == 0.25
    assert merged.grid is mild.grid


def test_one_merge_projects_twice(monkeypatch):
    # one P S on the band sum and the blend's P: two projections per snapshot,
    # where regularizing each scheme's field first takes four
    calls = []
    leray = operators._leray

    def counted(c, grid):
        calls.append(c.shape)
        return leray(c, grid)

    monkeypatch.setattr(operators, "_leray", counted)
    grid = GridSpec(8)
    fs = [_noise(grid, seed) for seed in range(3)]
    _regularized_blend(grid, _weights(8), MollifierSpec(0.5))(*fs)
    assert len(calls) == 2
    trajs = _noise_trajectories(grid)
    calls.clear()
    unified_reconstruction(*trajs, _weights(8), MollifierSpec(0.1, "bump"))
    assert len(calls) == 2 * len(trajs[0].snapshots)


@pytest.mark.parametrize("n", (6, 8))
def test_a_scrambled_lower_half_is_refused_where_it_enters(n):
    # blend and the reconstruction read fields, and a field is its half
    # spectrum: the only way in for a full array is from_full, which refuses a
    # k3 < 0 block that is not the mirror of the rest
    grid = GridSpec(n)
    snapshots = [s for t in _scheme_trajectories(grid) for s in t.snapshots]
    for f in snapshots:
        back = SpectralField.from_full(grid, f.full())
        np.testing.assert_array_equal(back.coeffs.view(np.uint64), f.coeffs.view(np.uint64))
    noise = [_noise(grid, seed) for seed in range(3)]
    for i, f in enumerate(snapshots + noise):
        scrambled = _scramble_lower_half(f, 100 + i)
        assert not np.array_equal(scrambled, f.full())
        with pytest.raises(SymmetryViolation):
            SpectralField.from_full(grid, scrambled)
