"""The benchmark's workloads: generated configs, output checks, reference values.

Each workload is one CLI experiment, driven only by a generated
``key = value`` config file.  The seed is a benchmark argument; it reaches
the program only through the config's ``seed`` key.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

# repo tolerances reused by the output checks
DIV_DEFECT_TOL = 1e-12  # divergence defect of run snapshots (tests/test_solvers.py)
RESIDUAL_TOL = 1e-8  # formulation residuals (acceptance criterion 8)
UNIFY_FINAL_ERROR_TOL = 1e-3  # finest-scale reconstruction error (criterion 11)
REFERENCE_REL_TOL = 1e-10  # stored-reference comparison (criterion 7)

# diagnostics.csv columns that are smooth functionals of the trajectory; the
# residual and divergence columns are round-off sized and only bounded
RUN_REFERENCE_COLUMNS = ("t", "energy", "enstrophy", "bkm", "h1", "h2", "h3")

WORKLOADS = {
    "run-n64": {
        "experiment": "run",
        "config": {"n": 64, "init": "taylor-green", "scheme": "strong-imex",
                   "nu": 0.05, "dt": 1e-3, "t_end": 0.01, "cadence": 10},
        "snapshots": 2,
    },
    "run-n32-dense": {
        "experiment": "run",
        "config": {"n": 32, "init": "random", "scheme": "mild-duhamel",
                   "nu": 0.05, "dt": 1e-3, "t_end": 0.04, "cadence": 1},
        "snapshots": 41,
    },
    "verify-n16": {
        "experiment": "verify",
        "config": {"n": 16},
    },
    "unify-n32": {
        "experiment": "unify",
        "config": {"n": 32, "init": "random", "dt": 1e-3, "t_end": 0.01, "cadence": 1},
    },
}


def config_text(workload: str, seed: int, out: Path) -> str:
    spec = WORKLOADS[workload]
    items = {"experiment": spec["experiment"], **spec["config"], "seed": seed, "out": out}
    return "".join(f"{key} = {value}\n" for key, value in items.items())


def _csv_columns(path: Path) -> dict[str, list[float]]:
    with path.open(newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    return {key: [float(r[key]) for r in rows] for key in rows[0]}


def _check_run(workload: str, out: Path) -> list[str]:
    from torusflow.snapshots import read_snapshot, snapshot_bytes

    problems = []
    cols = _csv_columns(out / "diagnostics.csv")
    energy = cols["energy"]
    if not all(b < a for a, b in zip(energy, energy[1:])):
        problems.append("energy is not strictly decreasing")
    if max(cols["div_defect"]) > DIV_DEFECT_TOL:
        problems.append(f"div_defect {max(cols['div_defect']):.3e} > {DIV_DEFECT_TOL:g}")
    if max(cols["res_weak"]) > RESIDUAL_TOL:
        problems.append(f"res_weak {max(cols['res_weak']):.3e} > {RESIDUAL_TOL:g}")
    names = sorted(out.glob("snap_*.sns1"))
    if len(names) != WORKLOADS[workload]["snapshots"] or len(energy) != len(names):
        problems.append(f"{len(names)} snapshots and {len(energy)} csv rows written")
    if names:
        raw = names[-1].read_bytes()
        field, nu = read_snapshot(names[-1])
        if snapshot_bytes(field, nu) != raw:
            problems.append(f"{names[-1].name} does not read back bitwise")
    return problems


def _check_verify(out: Path) -> list[str]:
    checks = json.loads((out / "verify_summary.json").read_text())["checks"]
    if not checks:
        return ["verify_summary.json holds no checks"]
    return [f"check {c['name']} failed ({c['value']!r} > {c['bound']!r})"
            for c in checks if not c["pass"]]


def _check_unify(out: Path) -> list[str]:
    summary = json.loads((out / "unify_summary.json").read_text())
    problems = []
    if summary["monotone_nonincreasing"] is not True:
        problems.append("unify errors are not monotone non-increasing")
    if not summary["final_error"] <= UNIFY_FINAL_ERROR_TOL:
        problems.append(f"final_error {summary['final_error']!r} > {UNIFY_FINAL_ERROR_TOL:g}")
    return problems


def check_outputs(workload: str, out: Path) -> list[str]:
    """Problems found in one repeat's artifacts; empty when they are correct."""
    experiment = WORKLOADS[workload]["experiment"]
    if experiment == "run":
        return _check_run(workload, out)
    if experiment == "verify":
        return _check_verify(out)
    return _check_unify(out)


def reference_values(workload: str, out: Path) -> dict:
    """The outputs compared against the stored seed-0 reference."""
    experiment = WORKLOADS[workload]["experiment"]
    if experiment == "run":
        cols = _csv_columns(out / "diagnostics.csv")
        return {key: cols[key] for key in RUN_REFERENCE_COLUMNS}
    if experiment == "verify":
        checks = json.loads((out / "verify_summary.json").read_text())["checks"]
        # check values are mostly round-off sized defects; names, bounds and
        # verdicts are compared exactly
        return {"checks": [[c["name"], c["bound"], c["pass"]] for c in checks]}
    return _csv_columns(out / "unify.csv")


def compare_reference(got: dict, want: dict) -> list[str]:
    """Differences beyond REFERENCE_REL_TOL (numbers) or any difference (others)."""
    if got.keys() != want.keys():
        return [f"reference keys {sorted(got)} != {sorted(want)}"]
    problems = []
    for key, expected in want.items():
        actual = got[key]
        if len(actual) != len(expected):
            problems.append(f"{key}: {len(actual)} entries, reference has {len(expected)}")
            continue
        for i, (a, b) in enumerate(zip(actual, expected)):
            if isinstance(b, float):
                ok = abs(a - b) <= REFERENCE_REL_TOL * abs(b)
            else:
                ok = a == b
            if not ok:
                problems.append(f"{key}[{i}] = {a!r}, reference {b!r}")
    return problems
