import numpy as np
import pytest

from torusflow import (
    MollifierSpec,
    SolverParams,
    default_weights,
    random_solenoidal_init,
    run,
    shear_init,
    unified_reconstruction,
)
from torusflow.snapshots import (
    read_snapshot,
    read_trajectory,
    snapshot_bytes,
    write_snapshot,
    write_trajectory,
)


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
    assert back.solenoidal == u.solenoidal
    assert back.zero_mean == u.zero_mean
    assert back.time == u.time


def test_snapshot_rejects_bad_magic(tmp_path):
    path = tmp_path / "bogus.sns1"
    path.write_bytes(b"XXXX" + bytes(100))
    with pytest.raises(ValueError):
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
    assert back.scheme == "mild-duhamel"
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


def test_unified_trajectory_roundtrip(tmp_path, grid8):
    p = SolverParams(nu=0.5, dt=1e-2, t_end=0.02)
    traj = run(shear_init(grid8), p)
    merged = unified_reconstruction(
        traj, traj, traj, default_weights(grid8), MollifierSpec(0.25)
    )
    write_trajectory(tmp_path / "traj", merged)
    back = read_trajectory(tmp_path / "traj")
    assert back.scheme == "unified"
    assert len(back.snapshots) == len(merged.snapshots)
    for a, b in zip(merged.snapshots, back.snapshots):
        assert np.array_equal(a.coeffs, b.coeffs)
        assert a.time == b.time
