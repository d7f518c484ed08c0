"""The verify battery's checks: a NaN value reaching a check fails it (the
check functions keep NaN), and the scheme checks read one table of runs."""

import functools
import json
import math
from dataclasses import replace

import pytest

from conftest import count_calls, count_fft_calls
from torusflow import (
    GridSpec,
    Trajectory,
    parse_config,
    random_solenoidal_init,
    run,
    taylor_green_init,
)
from torusflow import experiments as ex
from torusflow.experiments import CHECKS, Check

BOUNDS = {name: bound for name, bound, _ in CHECKS}

# each check function, fed the NaN-poisoned field alone or after the clean one
POISONED_CALLS = {
    "hermitian_preserved": lambda g, u, bad: ex.hermitian_preserved(g, [u, bad]),
    "leray_idempotent": lambda g, u, bad: ex.leray_idempotent([u, bad]),
    "heat_contraction": lambda g, u, bad: ex.heat_contraction([u, bad]),
    "heat_block_decay": lambda g, u, bad: ex.heat_block_decay(bad),
    "smoothing_contraction": lambda g, u, bad: ex.smoothing_contraction([u, bad], (0.5, 0.1)),
    "blend_binary_saturation": lambda g, u, bad: ex.blend_binary_saturation(u, bad, "gaussian"),
    "dyadic_reassembly": lambda g, u, bad: ex.dyadic_reassembly([u, bad]),
    "dyadic_almost_orthogonality": lambda g, u, bad: ex.dyadic_almost_orthogonality([u, bad]),
    "bernstein_ratios": lambda g, u, bad: ex.bernstein_ratios(g, [u, bad]),
}


@pytest.mark.parametrize("name", POISONED_CALLS)
def test_nan_coefficient_fails_its_check(name):
    grid = GridSpec(8)
    u = random_solenoidal_init(grid, 2.0, 0)
    c = u.coeffs.copy()
    c[0, 1, 2, 3] = math.nan
    value = POISONED_CALLS[name](grid, u, u.with_coeffs(c))
    assert math.isnan(value)
    assert not Check(name, value, BOUNDS[name]).passed


def test_nan_check_value_is_written_as_json_null(tmp_path):
    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")

    path = tmp_path / "summary.json"
    ex._write_json(path, {"checks": [Check("x", math.nan, 0.0).as_dict()]})
    checks = json.loads(path.read_text(), parse_constant=reject)["checks"]
    assert checks == [{"name": "x", "value": None, "bound": 0.0, "pass": False}]


def test_verify_runs_each_trajectory_once(monkeypatch):
    params = []

    def counting_run(u0, p, cadence=1):
        params.append(p)
        return run(u0, p, cadence)

    monkeypatch.setattr(ex, "run", counting_run)
    calls = count_calls(monkeypatch, "_states", "_advect_arrays", "_leray_at", "divergence_defect")
    fft = count_fft_calls(monkeypatch)
    checks = ex.verify_checks(parse_config("experiment = verify\nn = 8\n"))
    assert all(c.passed for c in checks)
    assert len(params) == 12
    assert len(set(params)) == 12
    # the README's 12 solver runs, and a pinned count of kernel calls,
    # projections, divergence defects and numpy.fft calls
    assert calls == {"_states": 12, "_advect_arrays": 3197, "_leray_at": 4591,
                     "divergence_defect": 59}
    assert sum(fft.values()) == 33582


def test_galerkin_full_is_strong_needs_eleven_snapshots():
    tg = taylor_green_init(GridSpec(8))
    runs = functools.cache(lambda p: run(tg, p))
    assert ex.galerkin_full_is_strong(runs) == 0.0

    def short_galerkin(p):
        traj = runs(p)
        if p.scheme != "weak-galerkin":
            return traj
        return Trajectory(replace(p, t_end=0.01), traj.snapshots[:6])

    assert ex.galerkin_full_is_strong(short_galerkin) == 1.0
