"""On-disk formats: SNS1 binary snapshots and line-oriented trajectory manifests.

SNS1 layout (little-endian):
  bytes 0-3   magic b"SNS1"
  u32         n (modes per axis)
  f64         time
  f64         viscosity
  u8          flags (bit0 solenoidal, bit1 mean-free)
  3*n^3 c16   coefficients, component-major, axes k1 (slowest), k2, k3,
              each axis ordered 0, 1, ..., n/2, -n/2+1, ..., -1

A reader accepts a file only when its time, viscosity and coefficients are
finite and its flags hold for the data: solenoidal needs a divergence
defect within SOLENOIDAL_TOL, mean-free an exactly zero k = 0 mode.
"""

from __future__ import annotations

import math
import struct
from pathlib import Path

import numpy as np

from .solvers import SCHEMES, SolverParams, Trajectory
from .spectral import SOLENOIDAL_TOL, GridSpec, SpectralField, divergence_defect

MAGIC = b"SNS1"
_HEADER = struct.Struct("<4sIddB")

FLAG_SOLENOIDAL = 1
FLAG_MEAN_FREE = 2


def snapshot_bytes(f: SpectralField, nu: float = 0.0) -> bytes:
    flags = (FLAG_SOLENOIDAL if f.solenoidal else 0) | (FLAG_MEAN_FREE if f.zero_mean else 0)
    header = _HEADER.pack(MAGIC, f.grid.n, f.time, nu, flags)
    return header + np.ascontiguousarray(f.coeffs, dtype="<c16").tobytes()


def write_snapshot(path: str | Path, f: SpectralField, nu: float = 0.0) -> None:
    Path(path).write_bytes(snapshot_bytes(f, nu))


def read_snapshot(path: str | Path) -> tuple[SpectralField, float]:
    """Field and viscosity of an SNS1 file; ValueError naming the path if it is malformed."""
    raw = Path(path).read_bytes()
    if len(raw) < _HEADER.size:
        raise ValueError(f"{path}: {len(raw)} bytes, shorter than the SNS1 header")
    magic, n, time, nu, flags = _HEADER.unpack_from(raw, 0)
    if magic != MAGIC:
        raise ValueError(f"{path}: not an SNS1 snapshot")
    expected = _HEADER.size + 3 * n**3 * 16
    if len(raw) != expected:
        raise ValueError(f"{path}: truncated snapshot ({len(raw)} != {expected} bytes)")
    try:
        grid = GridSpec(n)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    coeffs = np.frombuffer(raw, dtype="<c16", offset=_HEADER.size).astype(np.complex128)
    if not (math.isfinite(time) and math.isfinite(nu) and np.isfinite(coeffs).all()):
        raise ValueError(f"{path}: non-finite time, viscosity or coefficient")
    field = SpectralField(
        grid,
        coeffs.reshape(3, n, n, n),
        time=time,
        solenoidal=bool(flags & FLAG_SOLENOIDAL),
        zero_mean=bool(flags & FLAG_MEAN_FREE),
    )
    # written so that a NaN defect (overflow on huge coefficients) is rejected too
    if field.solenoidal and not divergence_defect(field) <= SOLENOIDAL_TOL:
        raise ValueError(f"{path}: flagged solenoidal but divergence defect exceeds tolerance")
    if field.zero_mean and np.any(field.coeffs[:, 0, 0, 0]):
        raise ValueError(f"{path}: flagged mean-free but the k = 0 mode is not zero")
    return field, nu


def write_trajectory(directory: str | Path, traj: Trajectory) -> None:
    """Snapshot files plus a key=value manifest, deterministically named."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    names = []
    for i, snap in enumerate(traj.snapshots):
        name = f"snap_{i:06d}.sns1"
        write_snapshot(directory / name, snap, nu=traj.params.nu)
        names.append(name)
    manifest = "".join(
        (
            f"scheme={traj.scheme}\n",
            f"nu={traj.params.nu!r}\n",
            f"dt={traj.params.dt!r}\n",
            f"n={traj.grid.n}\n",
            f"seed={traj.params.seed}\n",
            f"snapshots={','.join(names)}\n",
        )
    )
    (directory / "manifest.txt").write_text(manifest, encoding="utf-8")


def read_trajectory(directory: str | Path) -> Trajectory:
    """Rebuild a trajectory from a manifest directory (forcing is not persisted)."""
    directory = Path(directory)
    entries = {}
    for line in (directory / "manifest.txt").read_text(encoding="utf-8").splitlines():
        if not line.strip():
            continue
        key, _, value = line.partition("=")
        entries[key.strip()] = value.strip()
    scheme = entries["scheme"]
    if scheme not in SCHEMES and scheme != "unified":
        raise ValueError(f"{directory / 'manifest.txt'}: unknown scheme {scheme!r}")
    names = [s for s in entries["snapshots"].split(",") if s]
    snaps = []
    nu = float(entries["nu"])
    for name in names:
        field, _ = read_snapshot(directory / name)
        snaps.append(field)
    t_end = snaps[-1].time - snaps[0].time if len(snaps) > 1 else 0.0
    params = SolverParams(
        nu=nu,
        dt=float(entries["dt"]),
        t_end=t_end,
        # blended trajectories carry no scheme of their own
        scheme=scheme if scheme in SCHEMES else "strong-imex",
        seed=int(entries["seed"]),
    )
    return Trajectory(params, snaps, scheme=scheme)
