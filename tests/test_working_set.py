"""Working-set bounds: traced peaks (tracemalloc counts numpy's buffers and is
deterministic) of the advection kernel and of a whole `run` experiment."""

import tracemalloc

from torusflow import GridSpec, dealias, parse_config, random_solenoidal_init
from torusflow import experiments
from torusflow.spectral import _advect_arrays, _band_limited

N = 32
REAL = 3 * N**3 * 8  # one real (3, n, n, n) array
HALF = 3 * N * N * (N // 2 + 1) * 16  # one half spectrum (3, n, n, n//2+1)


def _traced_peak(call) -> int:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_the_kernel_holds_three_real_arrays_besides_its_work_array():
    # f's samples, the output samples and one product buffer; the gradients
    # live in the cached work array, which the warm-up call allocates
    grid = GridSpec(N)
    u = random_solenoidal_init(grid, 2.0, 0).coeffs
    _advect_arrays(u, u, grid)
    peak = _traced_peak(lambda: _advect_arrays(u, u, grid))
    assert peak <= 3 * REAL + HALF + (64 << 10)


def test_the_divergence_form_holds_within_the_kernel_bound():
    # u's samples and one product buffer, then that buffer and the output
    # spectrum; the second product triple's spectrum is the work array
    grid = GridSpec(N)
    u = dealias(random_solenoidal_init(grid, 2.0, 0)).coeffs
    assert _band_limited(u, N)
    _advect_arrays(u, u, grid)
    peak = _traced_peak(lambda: _advect_arrays(u, u, grid))
    assert peak <= 3 * REAL + HALF + (64 << 10)


def test_a_run_experiment_holds_under_nine_half_spectra(tmp_path):
    # at its peak, while the run steps with the datum's advection term held
    # for the records pass, the run holds that term, the stepped state and
    # the step's fields, the work array and the kernel's buffers (three real
    # arrays at most): about 8.0 halves.  A warm-up run fills the caches
    # (work array, step multipliers)
    cfg = parse_config(
        "experiment = run\nn = 32\ninit = taylor-green\nscheme = strong-imex\n"
        f"nu = 0.05\ndt = 1e-3\nt_end = 0.01\ncadence = 10\nout = {tmp_path}\n"
    )
    experiments.experiment_run(cfg, tmp_path)
    peak = _traced_peak(lambda: experiments.experiment_run(cfg, tmp_path))
    assert peak <= 9 * HALF
