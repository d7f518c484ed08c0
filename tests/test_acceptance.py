"""Acceptance gate: every criterion at its stated tolerance, one line each.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
PASS/FAIL lines.  Criteria 1-10, 12 and 13 call the verify battery's check
functions (named and bounded in `torusflow.experiments.CHECKS`) on larger
inputs.  Shared heavyweight runs (the dt = 1e-4 shear trajectory, the
table of n = 32 vortex runs that criteria 9 and 10 read) are module fixtures.
"""

import functools
import json

import pytest

from torusflow import (
    GridSpec,
    MollifierSpec,
    SolverParams,
    WeightPartition,
    dealias,
    dyadic_block,
    bernstein_check,
    l2_norm,
    leray_project,
    random_solenoidal_init,
    run,
    shear_init,
    sobolev_norm,
    taylor_green_init,
    unified_reconstruction,
)
from torusflow import experiments as ex
from torusflow.cli import main as cli_main
from torusflow.dyadic import BERNSTEIN_CONSTANTS

BOUND = {name: bound for name, bound, _ in ex.CHECKS}


def report(num: int, name: str, passed: bool, detail: str) -> bool:
    print(f"ACCEPTANCE {num:02d} {name}: {'PASS' if passed else 'FAIL'} ({detail})")
    return passed


def diff_norm(a, b, s=0.0):
    return sobolev_norm(a.with_coeffs(a.coeffs - b.coeffs), s)


@pytest.fixture(scope="module")
def fields16():
    grid = GridSpec(16)
    return grid, [random_solenoidal_init(grid, 2.0, seed) for seed in range(100)]


@pytest.fixture(scope="module")
def shear_benchmark():
    """Mild scheme, nu = 1, dt = 1e-4, T = 1 on the shear datum."""
    grid = GridSpec(4)
    p = SolverParams(nu=1.0, dt=1e-4, t_end=1.0, scheme="mild-duhamel")
    return run(shear_init(grid), p)


@pytest.fixture(scope="module")
def vortex32():
    grid = GridSpec(32)
    return grid, taylor_green_init(grid)


@pytest.fixture(scope="module")
def vortex32_runs(vortex32):
    """params -> run of the n = 32 vortex, each run once for criteria 9 and 10."""
    return functools.cache(lambda p: run(vortex32[1], p))


def test_criterion_01_transform_unitarity(fields16):
    grid, fields = fields16
    worst = ex.parseval_identity(fields[:20])
    ok = worst <= BOUND["parseval_identity"]
    assert report(1, "transform-unitarity", ok, f"max rel defect {worst:.3e}")


def test_criterion_02_operator_contraction(fields16):
    grid, fields = fields16
    worst = ex.smoothing_contraction(fields, (0.25, 0.03125))
    ok = worst <= BOUND["smoothing_contraction"]
    assert report(2, "operator-contraction", ok, f"max excess {worst:.3e}")


def test_criterion_03_approximation_rates():
    # gaussian slope within 2 +- 0.2, bump slope at least 1.8
    defect = ex.smoothing_approximation_rate(GridSpec(32))
    ok = defect <= BOUND["smoothing_approximation_rate"]
    assert report(3, "approximation-rates", ok, f"slope defect {defect:.3f}")


def test_criterion_04_smoothing_gain():
    defect = ex.smoothing_gain_exponent()
    ok = defect <= BOUND["smoothing_gain_exponent"]
    assert report(4, "smoothing-gain", ok, f"|slope + 2| {defect:.3f}")


def test_criterion_05_littlewood_paley(fields16):
    grid, fields = fields16
    worst_re = ex.dyadic_reassembly(fields)
    ao = ex.dyadic_almost_orthogonality(fields)

    grid32 = GridSpec(32)
    bern_ok = True
    grad_worst = 0.0
    for seed in range(20):
        u = random_solenoidal_init(grid32, 1.0, 1000 + seed)
        for j in (1, 2, 3):
            blk = dyadic_block(u, j)
            if l2_norm(blk) < 1e-14:
                continue
            for (alpha, p, q), c_b in BERNSTEIN_CONSTANTS.items():
                lhs, rhs = bernstein_check(blk, j, alpha, p, q)
                bern_ok = bern_ok and lhs <= c_b * rhs
                if sum(alpha) == 1 and p == 2 and q == 2:
                    grad_worst = max(grad_worst, lhs / rhs)
    ok = (
        worst_re <= BOUND["dyadic_reassembly"]
        and ao <= BOUND["dyadic_almost_orthogonality"]
        and bern_ok
        and grad_worst <= 2.0
    )
    assert report(
        5, "littlewood-paley", ok,
        f"reassembly {worst_re:.2e}, ao outside [0.5, 1] by {ao:.3f}, "
        f"max grad ratio {grad_worst:.3f}",
    )


def test_criterion_06_paraproduct(fields16):
    grid, fields = fields16
    worst = ex.paraproduct_reassembly([taylor_green_init(grid)] + fields[:3])
    ok = worst <= BOUND["paraproduct_reassembly"]
    assert report(6, "paraproduct-reassembly", ok, f"max rel defect {worst:.3e}")


def test_criterion_07_nonlinearity_oracle():
    # the two routes agree on band-limited inputs (that is what the 2/3 rule
    # guarantees); the random datum is truncated to the retained band
    grid = GridSpec(8)
    rand = leray_project(dealias(random_solenoidal_init(grid, 2.0, 5)))
    worst = ex.advection_convolution_oracle([taylor_green_init(grid), rand])
    ok = worst <= BOUND["advection_convolution_oracle"]
    assert report(7, "nonlinearity-oracle", ok, f"max rel gap {worst:.3e}")


def test_criterion_08_exact_solution_reproduction(shear_benchmark):
    traj = shear_benchmark
    ratio_err = ex.shear_exact_decay(traj)
    res = ex.shear_formulation_residuals(traj)
    # dt = 1e-4 here against the battery's 1e-3, so the residual bound is 1e-8
    ok = ratio_err <= BOUND["shear_exact_decay"] and res <= 1e-8
    assert report(
        8, "exact-solution-reproduction", ok,
        f"energy-ratio err {ratio_err:.2e}, max weak/mild/strong residual {res:.2e}",
    )


def test_criterion_09_energy_identity(vortex32_runs):
    defect = ex.energy_identity_second_order(vortex32_runs)
    ok = defect <= BOUND["energy_identity_second_order"]
    assert report(9, "energy-identity-order", ok, f"|halving ratio - 4| {defect:.2e}")


def test_criterion_10_scheme_coincidence(vortex32_runs):
    rate = ex.scheme_coincidence_rate(vortex32_runs, (4e-3, 2e-3, 1e-3, 5e-4))
    rise = ex.galerkin_gap_monotone(vortex32_runs, (16.0, 64.0, 144.0))
    ok = rate <= BOUND["scheme_coincidence_rate"] and rise <= BOUND["galerkin_gap_monotone"]
    assert report(
        10, "scheme-coincidence", ok,
        f"smallest dt-halving factor {3.0 - rate:.2f}, largest galerkin gap rise {rise:.1e}",
    )


def test_criterion_11_unified_pipeline():
    grid = GridSpec(8)
    p = SolverParams(nu=1.0, dt=1e-2, t_end=0.05, scheme="mild-duhamel")
    traj = run(shear_init(grid), p)
    w = WeightPartition(1.0, 3.0)
    scale = max(sobolev_norm(s, 1.0) for s in traj.snapshots)
    errors = []
    for eps in [2.0**-k for k in range(2, 9)]:
        merged = unified_reconstruction(traj, traj, traj, w, MollifierSpec(eps, "gaussian"))
        errors.append(
            max(diff_norm(a, b, 1.0) for a, b in zip(merged, traj.snapshots)) / scale
        )
    monotone = all(b <= a for a, b in zip(errors, errors[1:]))
    ok = monotone and errors[-1] <= 1e-3
    assert report(
        11, "unified-pipeline", ok,
        f"monotone {monotone}, final rel error {errors[-1]:.2e}",
    )


def test_criterion_12_pressure_multiplier_bound(fields16):
    grid, fields = fields16
    excess = ex.pressure_gradient_bound(grid, fields)
    ok = excess <= BOUND["pressure_gradient_bound"]
    assert report(12, "pressure-multiplier-bound", ok, f"max ratio 1 + {excess:.3e}")


def test_criterion_13_lifespan_formula(vortex32, advection_constant_16):
    grid, tg = vortex32
    formula = ex.lifespan_formula()
    growth = ex.lifespan_bounded_run(tg, advection_constant_16)
    ok = formula <= BOUND["lifespan_formula"] and growth <= BOUND["lifespan_bounded_run"]
    assert report(
        13, "lifespan-formula", ok,
        f"formula error {formula}, max growth {growth + 2.0:.4f}",
    )


def test_criterion_14_determinism(tmp_path):
    args = ["verify", "--n", "12", "--seed", "0"]
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    code_a = cli_main(args + ["--out", str(out_a)])
    code_b = cli_main(args + ["--out", str(out_b)])
    bytes_a = (out_a / "verify_summary.json").read_bytes()
    bytes_b = (out_b / "verify_summary.json").read_bytes()
    checks = json.loads(bytes_a)["checks"]
    ok = code_a == code_b == 0 and bytes_a == bytes_b and len(checks) >= 20
    assert report(
        14, "determinism", ok,
        f"exit codes {code_a}/{code_b}, {len(checks)} checks, "
        f"byte-identical {bytes_a == bytes_b}",
    )
