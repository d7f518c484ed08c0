"""A NaN value reaching a verify check fails it: the check functions keep NaN."""

import json
import math

import pytest

from torusflow import GridSpec, random_solenoidal_init
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
