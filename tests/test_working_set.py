"""Working-set bounds: traced peaks (tracemalloc counts numpy's buffers and is
deterministic) of the advection kernel and of a whole `run` experiment."""

import sys
import tracemalloc

import numpy as np
import pytest

from torusflow import GridSpec, SolverParams, advect, dealias, parse_config, random_solenoidal_init
from torusflow import experiments, solvers, spectral, taylor_green_init
from torusflow.spectral import PRUNE_MIN_N, _advect_arrays, _band_limited

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


def test_an_unpruned_advect_allocates_one_half_spectrum_it_returns():
    # below PRUNE_MIN_N the divergence form of a band-limited f forms its term
    # in the copy of one product triple's spectrum and returns that copy: what
    # its lines keep is u's samples, one product buffer and that half spectrum
    # (a copy of the term besides it would be a second one).  Counted line by
    # line in the kernel body, as the growth of traced memory from line to line
    n = 8
    assert n < PRUNE_MIN_N
    grid = GridSpec(n)
    f = dealias(random_solenoidal_init(grid, 2.0, 0))
    assert _band_limited(f.coeffs, n)
    advect(f, f)  # warm-up: the work array
    body, kept = spectral._advect_divergence.__code__, []

    def tracer(frame, event, arg):
        if frame.f_code is not body:
            return None
        kept.append(tracemalloc.get_traced_memory()[0])
        return tracer

    tracemalloc.start()
    prev = sys.gettrace()  # a coverage or debugger tracer, restored after
    sys.settrace(tracer)
    try:
        advect(f, f)
    finally:
        sys.settrace(prev)
        tracemalloc.stop()
    grown = sum(max(b - a, 0) for a, b in zip(kept, kept[1:]))
    real, half = 3 * n**3 * 8, 3 * n * n * (n // 2 + 1) * 16
    assert 2 * real + half <= grown <= 2 * real + half + (4 << 10)


def _kernel_line_allocations(call) -> list[int]:
    """For each call of the divergence-form body during `call()`, the most
    traced memory that one of its lines allocated beyond what it found."""
    body, most, base = spectral._advect_divergence.__code__, [], [0]

    def tracer(frame, event, arg):
        if frame.f_code is not body:
            return None
        current, peak = tracemalloc.get_traced_memory()
        if event == "call":
            most.append(0)
        else:
            most[-1] = max(most[-1], peak - base[0])
        tracemalloc.reset_peak()
        base[0] = current
        return tracer

    tracemalloc.start()
    prev = sys.gettrace()
    sys.settrace(tracer)
    try:
        call()
    finally:
        sys.settrace(prev)
        tracemalloc.stop()
    return most


@pytest.mark.parametrize("frame", ["box", "half"])
def test_a_run_on_the_box_steps_through_one_arena(frame, monkeypatch):
    # on the box every kernel call of a cadence-10 run writes u's samples and
    # its first product triple into the stream's arena and allocates no
    # (3, n, n, n) array, in a stretch's first call as in the others; on the
    # half spectrum (forced, as the frame tests force it) no call gets an arena
    n = N
    grid = GridSpec(n)
    p = SolverParams(nu=0.05, dt=1e-3, t_end=0.02)
    if frame == "half":
        monkeypatch.setattr(solvers, "_box_for", lambda c, f, grid: None)
    kernel, arenas = spectral._advect_divergence, []

    def spy(fc, grid, project=False, box=None, arena=None):
        arenas.append(None if arena is None else arena.shape)
        return kernel(fc, grid, project, box, arena)

    def stream():
        return list(solvers._states(taylor_green_init(grid), p, 10))

    stream()  # warm-up: the work array and the step multipliers
    monkeypatch.setattr(spectral, "_advect_divergence", spy)
    most = _kernel_line_allocations(stream)
    assert len(most) == len(arenas) == 40  # two calls per step
    if frame == "box":
        assert arenas == [(2, 3, n, n, n)] * 40
        assert max(most) < REAL
    else:
        assert arenas == [None] * 40
        assert min(most) >= REAL


@pytest.mark.parametrize("cadence", [1, 4])
def test_the_suspended_stream_holds_no_arena(cadence):
    # the arena is dropped before every yield: a consumer (the records pass,
    # the snapshot writer) never runs beside it
    n = 16
    grid = GridSpec(n)
    p = SolverParams(nu=0.05, dt=1e-3, t_end=8e-3, scheme="mild-duhamel")
    stream = solvers._states(taylor_green_init(grid), p, cadence)
    yields = 0
    for _ in stream:
        held = stream.gi_frame.f_locals
        assert held["box"] is not None and held["arena"] is None
        assert not [v for v in held.values()
                    if isinstance(v, np.ndarray) and v.dtype == np.float64 and v.size >= n**3]
        yields += 1
    assert yields == 8 // cadence + 1


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
