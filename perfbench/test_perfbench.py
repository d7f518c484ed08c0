"""Tests of the benchmark itself (tracer hygiene, repeatable counts, predictions).

    python3 -m pytest perfbench/test_perfbench.py -q

Run from the root of a checkout; takes about a minute on two cores.
"""

import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

import run
import tracer as tracer_mod

WORKLOADS = ("run-n64", "run-n32-dense", "verify-n16", "unify-n32")
PER_LAYER = json.loads((run.ROOT / "BENCHMARK.json").read_text())["per_layer"]
COUNTS = [m["name"] for m in PER_LAYER if m["unit"] in ("count", "B", "1/step")]


def _runner(workload, tmp_path_factory):
    reference = json.loads((run.HERE / "reference.json").read_text())[workload]
    work = tmp_path_factory.mktemp(workload)
    return run.Runner(workload, run.REFERENCE_SEED, work, reference)


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """Two traced seed-0 runs of every workload."""
    results = {}
    for workload in WORKLOADS:
        runner = _runner(workload, tmp_path_factory)
        results[workload] = [runner.experiment("trace") for _ in range(2)]
    return results


def test_tracer_patches_every_binding_and_restores_it():
    sys.path.insert(0, str(run.SRC))
    try:
        import torusflow.cli  # noqa: F401  (loads every torusflow module)
        from torusflow import spectral
        from torusflow.solvers import taylor_green_init
    finally:
        sys.path.remove(str(run.SRC))
    modules = tracer_mod._torusflow_modules()
    before = {(m.__name__, k): v for m in modules for k, v in vars(m).items()}
    fft_before = {name: getattr(np.fft, name) for name in tracer_mod.FFT_NAMES}
    advect_original = sys.modules["torusflow.spectral"]._advect_arrays
    leray_original = sys.modules["torusflow.spectral"].leray_project

    with tracer_mod.Tracer() as tr:
        advect_holders = [m.__name__ for m in modules
                          if getattr(m, "_advect_arrays", None) not in (None, advect_original)]
        leray_holders = [m.__name__ for m in modules
                         if getattr(m, "leray_project", None) not in (None, leray_original)]
        assert all(getattr(np.fft, name) is not fft_before[name] for name in fft_before)
        spectral.nonlinear_term(taylor_green_init(spectral.GridSpec(8)))
    assert sorted(advect_holders) == [
        "torusflow.diagnostics", "torusflow.dyadic", "torusflow.solvers", "torusflow.spectral",
    ]
    assert len(leray_holders) == 6 and "torusflow" in leray_holders
    names = {span[0] for span in tr.spans}
    assert {"spectral.nonlinear_term", "spectral._advect_arrays", "numpy.fft.ifftn"} <= names

    after = {(m.__name__, k): v for m in modules for k, v in vars(m).items()}
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    assert all(getattr(np.fft, name) is fn for name, fn in fft_before.items())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_runs_pass_checks_and_repeat_counts(traced, workload):
    first, second = traced[workload]
    assert first["problems"] == [] and second["problems"] == []
    assert {n: first["layers"][n] for n in COUNTS} == {n: second["layers"][n] for n in COUNTS}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_unattributed_time_is_under_a_tenth(traced, workload):
    layers = traced[workload][0]["layers"]
    assert layers["trace.unattributed_s"] < 0.1 * layers["trace.wall_s"]


def test_bypass_predictions(traced):
    layers = {w: traced[w][0]["layers"] for w in WORKLOADS}
    for workload in ("run-n64", "run-n32-dense"):
        assert layers[workload]["operators.calls"] == 0
    assert layers["unify-n32"]["operators.calls"] > 0
    for workload in WORKLOADS:
        on_verify = workload == "verify-n16"
        assert (layers[workload]["dyadic.calls"] > 0) == on_verify
        assert (layers[workload]["oracles.calls"] > 0) == on_verify
    assert (layers["run-n32-dense"]["diagnostics.to_solver_ratio"]
            > layers["run-n64"]["diagnostics.to_solver_ratio"])


def test_untraced_run_never_imports_the_tracer(tmp_path_factory):
    result = _runner("unify-n32", tmp_path_factory).experiment("run")
    assert result["tracer_loaded"] is False
    assert result["problems"] == []


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "run-n64", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
