"""On-disk formats: SNS1 binary snapshots and line-oriented trajectory manifests.

SNS1 layout (little-endian):
  bytes 0-3   magic b"SNS1"
  u32         n (modes per axis)
  f64         time
  f64         viscosity
  u8          flags (bit0 solenoidal, bit1 mean-free)
  3*n^3 c16   coefficients, component-major, axes k1 (slowest), k2, k3,
              each axis ordered 0, 1, ..., n/2, -n/2+1, ..., -1

The writer stores finite data only: a NaN or infinite viscosity or
coefficient raises NonFiniteField before any byte is written (a field's time
is finite by construction).  It derives both flags from the coefficients: the
solenoidal bit is set exactly when the divergence defect is within
SOLENOIDAL_TOL, the mean-free bit exactly when the k = 0 mode is zero; each
component's full spectrum is mirrored from its half as it is written.  A
reader accepts a file only when its time, viscosity and coefficients are
finite, its k3 < 0 block mirrors the rest to HERMITIAN_TOL, and its flags
hold for the data.
"""

from __future__ import annotations

import math
import os
import struct
from pathlib import Path

import numpy as np

from .solvers import SolverParams, Trajectory
from .errors import NonFiniteField, NumericalAbort, SymmetryViolation
from .spectral import SOLENOIDAL_TOL, _INEXACT_DEALIASING, GridSpec, SpectralField, _mirror
from .spectral import divergence_defect

MAGIC = b"SNS1"
_HEADER = struct.Struct("<4sIddB")

FLAG_SOLENOIDAL = 1
FLAG_MEAN_FREE = 2


def snapshot_bytes(f: SpectralField, nu: float = 0.0) -> bytes:
    return b"".join(_sns1_chunks(f, nu))


def write_snapshot(
    path: str | Path, f: SpectralField, nu: float = 0.0, div_defect: float | None = None
) -> None:
    """The bytes of `snapshot_bytes` into path; a field the header refuses
    leaves no file.  A writer that has measured f's divergence defect passes it."""
    chunks = _sns1_chunks(f, nu, div_defect)
    header = next(chunks)
    with Path(path).open("wb") as fh:
        fh.write(header)
        fh.writelines(chunks)


def _sns1_chunks(f: SpectralField, nu: float, div_defect: float | None = None):
    """The SNS1 encoding of f: the header, after the finiteness check, then
    each component's full spectrum, so one component's mirror is alive at a time."""
    if not (math.isfinite(nu) and np.isfinite(f.coeffs).all()):
        raise NonFiniteField(f"non-finite viscosity or coefficient (nu={nu!r})")
    if div_defect is None:
        div_defect = divergence_defect(f)
    solenoidal = div_defect <= SOLENOIDAL_TOL
    mean_free = not np.any(f.coeffs[:, 0, 0, 0])
    flags = (FLAG_SOLENOIDAL if solenoidal else 0) | (FLAG_MEAN_FREE if mean_free else 0)
    yield _HEADER.pack(MAGIC, f.grid.n, f.time, nu, flags)
    for c in f.coeffs:
        yield _mirror(c, f.grid.n).astype("<c16", copy=False)


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
    try:
        field = SpectralField.from_full(grid, coeffs.reshape(3, n, n, n), time)
    except SymmetryViolation as exc:
        raise ValueError(f"{path}: not a real field ({exc})") from None
    # written so that a NaN defect (overflow on huge coefficients) is rejected too
    if flags & FLAG_SOLENOIDAL and not divergence_defect(field) <= SOLENOIDAL_TOL:
        raise ValueError(f"{path}: flagged solenoidal but divergence defect exceeds tolerance")
    if flags & FLAG_MEAN_FREE and np.any(field.coeffs[:, 0, 0, 0]):
        raise ValueError(f"{path}: flagged mean-free but the k = 0 mode is not zero")
    return field, nu


def write_trajectory(directory: str | Path, traj: Trajectory) -> None:
    """Snapshot files plus a key=value manifest, deterministically named."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    _write_stream(directory, traj.params, traj.grid.n, ((s, None) for s in traj.snapshots))


def _write_stream(directory: Path, params: SolverParams, n: int, stream) -> None:
    """Write each (field, div_defect) of a run's stream as the next
    `snap_%06d.sns1` in directory when it arrives, then the manifest; a None
    defect is measured.  On a NumericalAbort the files written move to
    directory/partial beside their manifest, and the abort propagates."""
    names = []
    try:
        for f, div_defect in stream:
            name = f"snap_{len(names):06d}.sns1"
            write_snapshot(directory / name, f, params.nu, div_defect)
            names.append(name)
    except NumericalAbort:
        partial = directory / "partial"
        partial.mkdir(exist_ok=True)
        for name in names:
            os.replace(directory / name, partial / name)
        _write_manifest(partial, params, n, names)
        raise
    _write_manifest(directory, params, n, names)


def _write_manifest(directory: Path, params: SolverParams, n: int, names: list[str]) -> None:
    """The manifest of the snapshot files `names` of a run by params on n modes per axis."""
    manifest = (
        f"scheme={params.scheme}\nnu={params.nu!r}\ndt={params.dt!r}\nn={n}\n"
        f"seed={params.seed}\nsnapshots={','.join(names)}\n"
    )
    if n % 3 == 0:
        manifest += f"dealiasing={_INEXACT_DEALIASING}\n"
    (directory / "manifest.txt").write_text(manifest, encoding="utf-8")


def read_trajectory(directory: str | Path) -> Trajectory:
    """Rebuild a trajectory from a manifest directory (forcing is not persisted);
    ValueError naming manifest.txt when it does not describe its snapshots."""
    directory = Path(directory)
    manifest = directory / "manifest.txt"
    entries = {}
    try:
        text = manifest.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ValueError(f"{manifest}: not UTF-8 text ({exc.reason})") from None
    for line in text.splitlines():
        if not line.strip():
            continue
        key, _, value = line.partition("=")
        entries[key.strip()] = value.strip()
    try:
        scheme, nu, dt = entries["scheme"], float(entries["nu"]), float(entries["dt"])
        n, seed = int(entries["n"]), int(entries["seed"])
        names = [s for s in entries["snapshots"].split(",") if s]
    except (KeyError, ValueError) as exc:
        raise ValueError(f"{manifest}: missing or malformed entry ({exc})") from None
    if not names:
        raise ValueError(f"{manifest}: lists no snapshots")
    snaps = []
    for name in names:
        try:
            field, snap_nu = read_snapshot(directory / name)
        except FileNotFoundError:
            raise ValueError(f"{manifest}: lists {name}, which does not exist") from None
        if (field.grid.n, snap_nu) != (n, nu):
            raise ValueError(
                f"{manifest}: {name} has n={field.grid.n}, nu={snap_nu!r}, not n={n}, nu={nu!r}"
            )
        snaps.append(field)
    t_end = snaps[-1].time - snaps[0].time
    try:
        params = SolverParams(nu=nu, dt=dt, t_end=t_end, scheme=scheme, seed=seed)
        return Trajectory(params, snaps)
    except ValueError as exc:
        raise ValueError(f"{manifest}: {exc}") from None
