import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from torusflow import (
    GridSpec,
    commutator_constant,
    random_solenoidal_init,
)

settings.register_profile(
    "suite",
    max_examples=25,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


@pytest.fixture(scope="session")
def grid8():
    return GridSpec(8)


@pytest.fixture(scope="session")
def grid16():
    return GridSpec(16)


@pytest.fixture(scope="session")
def grid32():
    return GridSpec(32)


@pytest.fixture(scope="session")
def random_fields_16(grid16):
    """Twenty seeded unit-H^2 solenoidal fields, shared across tests."""
    return [random_solenoidal_init(grid16, 2.0, seed) for seed in range(20)]


@pytest.fixture(scope="session")
def advection_constant_16(grid16):
    """Empirical commutator constant over a 200-field battery at s = 2."""
    fields = [random_solenoidal_init(grid16, 2.0, seed) for seed in range(200)]
    return commutator_constant(fields, 2.0)


def diff_norm(a, b, s=0.0):
    from torusflow import sobolev_norm

    return sobolev_norm(a.with_coeffs(a.coeffs - b.coeffs), s)


@pytest.fixture(scope="session")
def helpers():
    class H:
        diff_norm = staticmethod(diff_norm)

        @staticmethod
        def rel_diff(a, b, s=0.0):
            from torusflow import sobolev_norm

            return diff_norm(a, b, s) / sobolev_norm(b, s)

    return H


# Full-lattice (n, n, n) references for tests that compare the half-spectrum
# code with the full-spectrum arithmetic it replaced.


def full_k_squared(grid):
    k1, k2, k3 = np.meshgrid(*(grid.axis_wavenumbers,) * 3, indexing="ij")
    return k1 * k1 + k2 * k2 + k3 * k3


def full_leray(c, grid):
    """Leray projection of a full spectrum (3, n, n, n), in `spectral._leray`'s arithmetic."""
    d1, d2, d3 = np.meshgrid(*(grid.deriv_axis_wavenumbers,) * 3, indexing="ij")
    kk = d1 * d1 + d2 * d2 + d3 * d3
    kdotc = np.divide(d1 * c[0] + d2 * c[1] + d3 * c[2], kk,
                      out=np.zeros_like(c[0]), where=kk > 0.0)
    return np.stack([c[i] - k * kdotc for i, k in enumerate((d1, d2, d3))])


def _counter(calls, name, real):
    def counted(*args, **kwargs):
        calls[name] += 1
        return real(*args, **kwargs)

    return counted


def count_calls(monkeypatch, *names):
    """Count the calls of each named function at every binding of its name
    across the loaded torusflow modules; returns the live {name: calls} dict.
    Every binding of a name must hold one object, which is the one counted."""
    modules = [m for key, m in sys.modules.items() if key.split(".")[0] == "torusflow"]
    calls = dict.fromkeys(names, 0)
    for name in names:
        holders = [m for m in modules if name in vars(m)]
        (real,) = {vars(m)[name] for m in holders}
        wrapper = _counter(calls, name, real)
        for m in holders:
            monkeypatch.setattr(m, name, wrapper)
    return calls


FFT_ENTRY_POINTS = ("fft", "ifft", "rfft", "irfft", "fftn", "ifftn", "rfftn", "irfftn")


def count_fft_calls(monkeypatch):
    """Count the calls of each numpy.fft entry point; returns the live {name: calls} dict."""
    calls = dict.fromkeys(FFT_ENTRY_POINTS, 0)
    for name in FFT_ENTRY_POINTS:
        monkeypatch.setattr(np.fft, name, _counter(calls, name, getattr(np.fft, name)))
    return calls
