import math
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torusflow import (
    GridSpec,
    PhysicalField,
    SolverParams,
    SpectralField,
    advect,
    forward_transform,
    random_solenoidal_init,
    run,
    shear_init,
)
from torusflow.errors import NonFiniteField
from torusflow.snapshots import (
    FLAG_MEAN_FREE,
    FLAG_SOLENOIDAL,
    MAGIC,
    read_snapshot,
    read_trajectory,
    snapshot_bytes,
    write_snapshot,
    write_trajectory,
)
from torusflow.spectral import SOLENOIDAL_TOL, divergence_defect


def test_snapshot_header_layout(grid8):
    u = random_solenoidal_init(grid8, 2.0, 1)
    raw = snapshot_bytes(u, nu=0.75)
    assert raw[:4] == b"SNS1"
    assert int.from_bytes(raw[4:8], "little") == 8
    assert np.frombuffer(raw[8:16], "<f8")[0] == u.time
    assert np.frombuffer(raw[16:24], "<f8")[0] == 0.75
    assert raw[24] == 0b11  # solenoidal and mean-free
    assert len(raw) == 25 + 3 * 8**3 * 16


def test_snapshot_bitwise_roundtrip(tmp_path, grid16):
    u = random_solenoidal_init(grid16, 2.0, 7)
    path = tmp_path / "field.sns1"
    write_snapshot(path, u, nu=0.125)
    back, nu = read_snapshot(path)
    assert nu == 0.125
    assert np.array_equal(back.coeffs, u.coeffs)
    assert path.read_bytes()[24] & FLAG_SOLENOIDAL
    assert divergence_defect(back) <= SOLENOIDAL_TOL
    assert back.time == u.time
    assert snapshot_bytes(back, nu) == path.read_bytes()


def test_mean_free_bit_is_read_from_the_coefficients(grid8):
    # the writer sets bit 1 exactly when the k = 0 mode is zero
    u = random_solenoidal_init(grid8, 2.0, 6)
    assert snapshot_bytes(u)[24] & FLAG_MEAN_FREE
    coeffs = u.coeffs.copy()
    coeffs[2, 0, 0, 0] = 1e-3
    assert not snapshot_bytes(u.with_coeffs(coeffs))[24] & FLAG_MEAN_FREE


def test_snapshot_rejects_bad_magic(tmp_path):
    path = tmp_path / "bogus.sns1"
    path.write_bytes(b"XXXX" + bytes(100))
    with pytest.raises(ValueError):
        read_snapshot(path)


def test_snapshot_rejects_an_odd_n_of_the_right_size(tmp_path):
    # 3 * 3^3 coefficients after the header: the size matches, the grid does not
    path = tmp_path / "odd.sns1"
    path.write_bytes(struct.pack("<4sIddB", MAGIC, 3, 0.0, 0.0, 0) + bytes(3 * 3**3 * 16))
    with pytest.raises(ValueError, match="odd.sns1: .*even"):
        read_snapshot(path)


def test_snapshot_rejects_truncation(tmp_path, grid8):
    u = random_solenoidal_init(grid8, 2.0, 2)
    raw = snapshot_bytes(u)
    path = tmp_path / "short.sns1"
    path.write_bytes(raw[:-8])
    with pytest.raises(ValueError):
        read_snapshot(path)


def test_trajectory_roundtrip(tmp_path, grid8):
    p = SolverParams(nu=0.5, dt=1e-2, t_end=0.05, scheme="mild-duhamel", seed=3)
    traj = run(shear_init(grid8), p)
    write_trajectory(tmp_path / "traj", traj)
    manifest = (tmp_path / "traj" / "manifest.txt").read_text()
    assert manifest.startswith("scheme=mild-duhamel\n")
    for key in ("nu=", "dt=", "n=", "seed=", "snapshots="):
        assert f"\n{key}" in manifest or manifest.startswith(key)
    back = read_trajectory(tmp_path / "traj")
    assert back.params.scheme == "mild-duhamel"
    assert back.params.nu == 0.5
    assert back.params.seed == 3
    assert len(back.snapshots) == len(traj.snapshots)
    for a, b in zip(traj.snapshots, back.snapshots):
        assert np.array_equal(a.coeffs, b.coeffs)
        assert a.time == b.time


def test_trajectory_write_is_deterministic(tmp_path, grid8):
    p = SolverParams(nu=0.5, dt=1e-2, t_end=0.03)
    traj = run(shear_init(grid8), p)
    write_trajectory(tmp_path / "a", traj)
    write_trajectory(tmp_path / "b", traj)
    for name in ("manifest.txt", "snap_000000.sns1", "snap_000003.sns1"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_trajectory_rejects_unknown_scheme(tmp_path, grid8):
    p = SolverParams(nu=0.5, dt=1e-2, t_end=0.02)
    write_trajectory(tmp_path / "traj", run(shear_init(grid8), p))
    manifest = tmp_path / "traj" / "manifest.txt"
    text = manifest.read_text().replace("scheme=strong-imex", "scheme=bogus-scheme")
    manifest.write_text(text)
    with pytest.raises(ValueError, match="manifest.txt.*'bogus-scheme'"):
        read_trajectory(tmp_path / "traj")


def _rewrite_manifest(directory, old, new):
    manifest = directory / "manifest.txt"
    raw = manifest.read_bytes()
    assert old in raw
    manifest.write_bytes(raw.replace(old, new))


@pytest.mark.parametrize(
    "old, new",
    [
        (b"scheme=strong-imex", b"scheme=unified"),
        (b"dt=0.01\n", b""),
        (b"nu=0.5", b"nu=abc"),
        (b"snapshots=snap_000000.sns1,snap_000001.sns1,snap_000002.sns1", b"snapshots="),
        (b"n=8", b"n=16"),
        (b"nu=0.5", b"nu=0.25"),
        (b"seed=0", b"seed=\xff"),
        (b"snap_000002.sns1", b"snap_000009.sns1"),
    ],
    ids=["unified-scheme", "missing-dt", "bad-nu", "no-snapshots", "header-n", "header-nu",
         "not-utf8", "missing-snapshot"],
)
def test_trajectory_rejects_malformed_manifest(tmp_path, grid8, old, new):
    p = SolverParams(nu=0.5, dt=1e-2, t_end=0.02)
    write_trajectory(tmp_path / "traj", run(shear_init(grid8), p))
    _rewrite_manifest(tmp_path / "traj", old, new)
    with pytest.raises(ValueError, match="manifest.txt"):
        read_trajectory(tmp_path / "traj")


def test_trajectory_rejects_mixed_grids(tmp_path, grid8):
    p = SolverParams(nu=0.5, dt=1e-2, t_end=0.02)
    write_trajectory(tmp_path / "traj", run(shear_init(grid8), p))
    write_trajectory(tmp_path / "fine", run(shear_init(GridSpec(16)), p))
    (tmp_path / "traj" / "snap_000002.sns1").write_bytes(
        (tmp_path / "fine" / "snap_000002.sns1").read_bytes()
    )
    with pytest.raises(ValueError, match="manifest.txt.*snap_000002.sns1"):
        read_trajectory(tmp_path / "traj")


def test_snapshot_rejects_short_header(tmp_path):
    path = tmp_path / "tiny.sns1"
    path.write_bytes(b"SNS1" + bytes(6))
    with pytest.raises(ValueError, match="tiny.sns1"):
        read_snapshot(path)


def test_snapshot_rejects_non_finite_coefficient(tmp_path, grid8):
    # the writer refuses NaN, so the file is a valid snapshot with one
    # coefficient's real part patched to NaN
    u = random_solenoidal_init(grid8, 2.0, 3)
    raw = bytearray(snapshot_bytes(u))
    at = 25 + 16 * int(np.ravel_multi_index((1, 2, 0, 0), (3, 8, 8, 8)))
    raw[at : at + 8] = struct.pack("<d", float("nan"))
    path = tmp_path / "nan.sns1"
    path.write_bytes(raw)
    with pytest.raises(ValueError, match="non-finite"):
        read_snapshot(path)


@pytest.mark.parametrize("what", ["time", "viscosity", "coefficient"])
def test_snapshot_writer_refuses_non_finite_data(tmp_path, grid8, what):
    u = random_solenoidal_init(grid8, 2.0, 3)
    nu = math.inf if what == "viscosity" else 0.5
    if what == "time":
        # a field refuses a non-finite time, so the writer never meets one
        with pytest.raises(NonFiniteField, match="finite time"):
            SpectralField(grid8, u.coeffs, math.nan)
        return
    if what == "coefficient":
        coeffs = u.coeffs.copy()
        coeffs[1, 2, 0, 0] = np.nan
        u = u.with_coeffs(coeffs)
    # the writer refuses before it opens the file, also when it is handed the
    # divergence defect a run's records measured
    for div_defect in (None, 0.0):
        with pytest.raises(NonFiniteField, match="non-finite"):
            write_snapshot(tmp_path / "bad.sns1", u, nu, div_defect)
        assert list(tmp_path.iterdir()) == []


def test_snapshot_rejects_false_solenoidal_flag(tmp_path, grid8):
    u = random_solenoidal_init(grid8, 2.0, 4)
    coeffs = u.coeffs.copy()
    coeffs[0, 1, 0, 0] += 0.5  # a divergent mode, real-symmetric
    coeffs[0, -1, 0, 0] += 0.5
    raw = bytearray(snapshot_bytes(u.with_coeffs(coeffs)))
    assert not raw[24] & FLAG_SOLENOIDAL
    raw[24] |= FLAG_SOLENOIDAL
    path = tmp_path / "div.sns1"
    path.write_bytes(raw)
    with pytest.raises(ValueError, match="solenoidal"):
        read_snapshot(path)


def test_snapshot_rejects_false_mean_free_flag(tmp_path, grid8):
    u = random_solenoidal_init(grid8, 2.0, 5)
    coeffs = u.coeffs.copy()
    coeffs[2, 0, 0, 0] = 1e-3
    raw = bytearray(snapshot_bytes(u.with_coeffs(coeffs)))
    raw[24] |= FLAG_MEAN_FREE
    path = tmp_path / "mean.sns1"
    path.write_bytes(raw)
    with pytest.raises(ValueError, match="mean-free"):
        read_snapshot(path)


@pytest.mark.parametrize("edit", ["nudged", "overflowing"])
def test_snapshot_rejects_a_lower_half_that_is_not_the_mirror(tmp_path, grid8, edit):
    # the file holds the full spectrum but a field only its half k3 >= 0: a
    # k3 < 0 block that is not the mirror of the rest is refused, not dropped
    raw = snapshot_bytes(random_solenoidal_init(grid8, 2.0, 8))
    coeffs = np.frombuffer(raw, dtype="<c16", offset=25).reshape(3, 8, 8, 8).copy()
    if edit == "nudged":
        coeffs[0, 1, 2, -1] += 1e-3  # Hermitian defect about 6e-3
    else:
        coeffs[0, 1, 2, -1] = 1e308 + 1e308j  # finite, but the defect is NaN
    path = tmp_path / f"{edit}.sns1"
    # no flags, so only the realness check can refuse the file
    path.write_bytes(raw[:24] + bytes(1) + coeffs.astype("<c16").tobytes())
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ValueError, match=f"{edit}.sns1: not a real field"):
            read_snapshot(path)


N4_SIZE = 25 + 3 * 4**3 * 16


def _valid_n4_bytes(seed: int, flags: int) -> bytes:
    raw = bytearray(snapshot_bytes(random_solenoidal_init(GridSpec(4), 2.0, seed)))
    raw[24] = flags
    return bytes(raw)


def _truncated(seed: int, flags: int, size: int) -> bytes:
    return _valid_n4_bytes(seed, flags)[:size]


def _one_byte_flipped(seed: int, flags: int, at: int, mask: int) -> bytes:
    raw = bytearray(_valid_n4_bytes(seed, flags))
    raw[at] ^= mask
    return bytes(raw)


def _inflated(n: int, time: float, nu: float, flags: int, payload: bytes) -> bytes:
    return struct.pack("<4sIddB", MAGIC, n, time, nu, flags) + payload


_fuzz_bytes = st.one_of(
    st.builds(_truncated, st.integers(0, 3), st.integers(0, 3), st.integers(0, N4_SIZE)),
    st.binary(max_size=200),
    st.binary(max_size=200).map(lambda b: MAGIC + b),
    st.builds(_one_byte_flipped, st.integers(0, 3), st.integers(0, 3),
              st.integers(0, N4_SIZE - 1), st.integers(1, 255)),
    # a header claiming a large n over a small payload
    st.builds(_inflated, st.integers(5, 2**32 - 1), st.floats(), st.floats(),
              st.integers(0, 255), st.binary(max_size=200)),
)


@pytest.fixture(scope="module")
def fuzz_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "f.sns1"


@settings(max_examples=150)
@given(raw=_fuzz_bytes)
def test_snapshot_reader_fuzz(fuzz_path, raw):
    # the only outcomes are ValueError or a field that honours its flags;
    # the reader never allocates for the n a header claims
    fuzz_path.write_bytes(raw)
    tracemalloc.start()
    try:
        field, nu = read_snapshot(fuzz_path)
    except ValueError:
        field = None
    finally:
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    assert peak <= 64 * len(raw) + (1 << 16)
    if field is None:
        return
    assert np.isfinite(field.coeffs).all() and np.isfinite(nu) and np.isfinite(field.time)
    if raw[24] & FLAG_SOLENOIDAL:
        assert divergence_defect(field) <= SOLENOIDAL_TOL
    if raw[24] & FLAG_MEAN_FREE:
        assert not np.any(field.coeffs[:, 0, 0, 0])


def _seeded_field(n: int, kind: int, seed: int) -> SpectralField:
    grid = GridSpec(n)
    if kind == 2:
        rng = np.random.default_rng(seed)
        return forward_transform(PhysicalField(grid, rng.standard_normal((3, n, n, n))))
    u = random_solenoidal_init(grid, 2.0, seed)
    return u if kind == 0 else u.with_coeffs(u.coeffs - advect(u, u).coeffs)


@settings(max_examples=40, deadline=None)
@given(n=st.sampled_from((4, 8, 16)), kind=st.integers(0, 2), seed=st.integers(0, 2**32 - 1))
def test_writer_and_reader_agree(fuzz_path, n, kind, seed):
    # solenoidal fields, the same minus (u.grad)u, and white noise: every file
    # the writer makes reads back bitwise, and bit 0 is the measured defect
    field = _seeded_field(n, kind, seed)
    write_snapshot(fuzz_path, field, nu=0.5)
    back, nu = read_snapshot(fuzz_path)
    assert np.array_equal(back.coeffs, field.coeffs) and nu == 0.5
    solenoidal = divergence_defect(field) <= SOLENOIDAL_TOL
    assert bool(fuzz_path.read_bytes()[24] & FLAG_SOLENOIDAL) == solenoidal


@pytest.mark.parametrize("n", [4, 64])
@pytest.mark.parametrize("kind", [0, 2], ids=["solenoidal", "white-noise"])
def test_streamed_writer_writes_the_bytes_of_snapshot_bytes(tmp_path, n, kind):
    # the writers encode one component's full spectrum at a time, header
    # first: the same bytes as the whole-field encoding built here, with or
    # without a measured defect handed over
    field = _seeded_field(n, kind, 5)
    # a solenoidal init is solenoidal and mean-free, white noise neither
    flags = FLAG_SOLENOIDAL | FLAG_MEAN_FREE if kind == 0 else 0
    expected = struct.pack("<4sIddB", MAGIC, n, field.time, 0.25, flags)
    expected += field.full().astype("<c16").tobytes()
    assert snapshot_bytes(field, 0.25) == expected
    write_snapshot(tmp_path / "one.sns1", field, 0.25)
    assert (tmp_path / "one.sns1").read_bytes() == expected
    write_snapshot(tmp_path / "two.sns1", field, 0.25, divergence_defect(field))
    assert (tmp_path / "two.sns1").read_bytes() == expected
