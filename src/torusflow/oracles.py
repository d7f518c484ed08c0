"""Brute-force reference evaluations, independent of the FFT product path.

These are O(n^6) direct convolution sums over the truncated wavenumber
lattice.  They exist to cross-check the pseudospectral nonlinearity and the
time steppers; nothing in the solver path calls them.  They return full
spectra (3, n, n, n), computing the k3 < 0 block too rather than mirroring it.
"""

from __future__ import annotations

import numpy as np

from .spectral import DEALIAS_FRACTION, SpectralField


def _axis_values(n: int) -> np.ndarray:
    k = np.arange(n, dtype=np.int64)
    k[k > n // 2] -= n
    return k


def _deriv_axis_values(n: int) -> np.ndarray:
    # odd-extension convention matching the multiplier path
    k = _axis_values(n).copy()
    k[n // 2] = 0
    return k


def convolution_advective_term(u: SpectralField) -> np.ndarray:
    """Full spectrum of (u.grad)u by the direct truncated convolution sum, dealiased, unprojected.

    For each resolved output mode k the sum runs over exact integer pairs
    p + q = k (no modular wraparound), which is the alias-free product the
    2/3-dealiased pseudospectral evaluation must reproduce.
    """
    n = u.grid.n
    kv = _axis_values(n)
    qv = _deriv_axis_values(n)
    half = n // 2
    c = u.full()
    out = np.zeros_like(c)

    q1 = qv[:, None, None].astype(np.float64)
    q2 = qv[None, :, None].astype(np.float64)
    q3 = qv[None, None, :].astype(np.float64)

    for i1 in range(n):
        p1 = int(kv[i1])
        t1 = p1 + kv
        ok1 = (t1 >= -half + 1) & (t1 <= half)
        if not np.any(ok1):
            continue
        for i2 in range(n):
            p2 = int(kv[i2])
            t2 = p2 + kv
            ok2 = (t2 >= -half + 1) & (t2 <= half)
            for i3 in range(n):
                amp = c[:, i1, i2, i3]
                if amp[0] == 0 and amp[1] == 0 and amp[2] == 0:
                    continue
                p3 = int(kv[i3])
                t3 = p3 + kv
                ok3 = (t3 >= -half + 1) & (t3 <= half)
                # scalar factor i (p-amplitude . q) broadcast over the valid q-box
                factor = 1j * (
                    amp[0] * q1[ok1, :, :]
                    + amp[1] * q2[:, ok2, :]
                    + amp[2] * q3[:, :, ok3]
                )
                tgt = np.ix_(
                    (t1[ok1] % n).astype(np.intp),
                    (t2[ok2] % n).astype(np.intp),
                    (t3[ok3] % n).astype(np.intp),
                )
                src = np.ix_(
                    np.nonzero(ok1)[0].astype(np.intp),
                    np.nonzero(ok2)[0].astype(np.intp),
                    np.nonzero(ok3)[0].astype(np.intp),
                )
                for comp in range(3):
                    out[comp][tgt] += factor * c[comp][src]

    cut = DEALIAS_FRACTION * n / 2.0
    keep1 = np.abs(kv) <= cut
    mask = (
        keep1[:, None, None] & keep1[None, :, None] & keep1[None, None, :]
    ).astype(np.float64)
    return out * mask


def reference_leray(c: np.ndarray) -> np.ndarray:
    """Projection of a full spectrum written directly from the mode formula, loop form."""
    n = c.shape[-1]
    kv = _deriv_axis_values(n)
    out = c.copy()
    for i1 in range(n):
        for i2 in range(n):
            for i3 in range(n):
                k = np.array([kv[i1], kv[i2], kv[i3]], dtype=np.float64)
                k2 = float(k @ k)
                if k2 == 0.0:
                    continue
                amp = out[:, i1, i2, i3]
                out[:, i1, i2, i3] = amp - k * (k @ amp) / k2
    return out


def convolution_nonlinear_term(u: SpectralField) -> np.ndarray:
    """Full spectrum of the projected, dealiased (u.grad)u via the direct convolution route."""
    return reference_leray(convolution_advective_term(u))
