"""The unify experiment runs the three schemes in lockstep.

Its files must equal, byte for byte, those of the whole-trajectory method:
three `run` trajectories merged by `unified_reconstruction` once per eps.
It holds one snapshot triple at a time, steps an uncut weak run once, as
the strong run, and an abort leaves the layout of the first scheme in
SCHEMES order that aborts when the schemes run in turn.
"""

import collections
import json
import weakref

import numpy as np
import pytest

from conftest import count_calls, count_fft_calls

from torusflow import MollifierSpec, WeightPartition, run, solvers, unified_reconstruction
from torusflow import experiments
from torusflow.config import parse_config
from torusflow.errors import BlowUpDetected, CflViolation, NumericalAbort
from torusflow.snapshots import write_trajectory
from torusflow.solvers import SCHEMES
from torusflow.spectral import GridSpec, sobolev_norm


def _config(tmp_path, n, init, mollifier="gaussian", cadence=1, dt=1e-3, t_end=0.004, nu=0.1,
            galerkin_modes="full"):
    return parse_config(
        f"experiment = unify\nn = {n}\ninit = {init}\nseed = 5\nmollifier = {mollifier}\n"
        f"nu = {nu}\ndt = {dt}\nt_end = {t_end}\ncadence = {cadence}\n"
        f"galerkin_modes = {galerkin_modes}\nout = {tmp_path / 'out'}\n"
    )


def _tree_bytes(root):
    return {f.relative_to(root).as_posix(): f.read_bytes()
            for f in sorted(root.rglob("*")) if f.is_file()}


def _whole_trajectory_files(cfg, tmp_path):
    """unify.csv and unify_summary.json by the whole-trajectory method, and its exit code."""
    grid = GridSpec(cfg.n)
    u0 = experiments._initial_field(cfg, grid)
    weights = WeightPartition(*cfg.weight_edges())
    trajs = [run(u0, experiments._solver_params(cfg, s), cfg.cadence) for s in SCHEMES]
    # the lockstep loop checks no times: the three schemes stamp the same bits
    assert trajs[0].times.tobytes() == trajs[1].times.tobytes() == trajs[2].times.tobytes()
    mild = trajs[1].snapshots
    ref_scale = max(max(sobolev_norm(s, 1.0) for s in mild), 1e-300)
    errors = []
    for eps in cfg.eps_list:
        merged = unified_reconstruction(*trajs, weights, MollifierSpec(eps, cfg.mollifier))
        errors.append(max(experiments._diff_norm(a, b, 1.0) for a, b in zip(merged, mild))
                      / ref_scale)
    out = tmp_path / "whole"
    out.mkdir()
    rows = "".join(f"{eps!r},{err!r}\n" for eps, err in zip(cfg.eps_list, errors))
    (out / "unify.csv").write_text("eps,h1_error\n" + rows, encoding="utf-8")
    monotone = all(b <= a for a, b in zip(errors, errors[1:]))
    summary = {"monotone_nonincreasing": monotone, "final_error": errors[-1]}
    (out / "unify_summary.json").write_text(json.dumps(summary, indent=2) + "\n", encoding="utf-8")
    return out, (experiments.EXIT_OK if monotone else experiments.EXIT_CHECK_FAILED)


@pytest.mark.parametrize("n", [8, 12])
@pytest.mark.parametrize("init", ["random", "shear"])
@pytest.mark.parametrize("mollifier", ["gaussian", "bump"])
@pytest.mark.parametrize("cadence", [1, 2])
# inviscid, the random datum's worst gap at n=12 is at the last snapshot, not the datum
@pytest.mark.parametrize("nu", [0.1, 0.0])
# uncut, two streams fill the three slots; with a cutoff, three streams run.  The
# weak band's weight reaches only |k| < r1 = n/8, so the cutoff is small enough to
# change those modes of the random datum at n=12: a wrong branch shows in unify.csv
@pytest.mark.parametrize("galerkin_modes", ["full", 2])
def test_lockstep_unify_writes_the_files_of_the_whole_trajectory_method(
    tmp_path, n, init, mollifier, cadence, nu, galerkin_modes
):
    cfg = _config(tmp_path, n, init, mollifier, cadence, nu=nu, galerkin_modes=galerkin_modes)
    expected, code = _whole_trajectory_files(cfg, tmp_path)
    assert experiments.run_experiment(cfg) == code
    assert _tree_bytes(tmp_path / "out") == _tree_bytes(expected)


@pytest.mark.parametrize("galerkin_modes", ["full", 2])
def test_lockstep_unify_drops_each_triple_once_the_next_arrives(
    tmp_path, monkeypatch, galerkin_modes
):
    cfg = _config(tmp_path, 8, "random", t_end=0.005, galerkin_modes=galerkin_modes)
    # an uncut weak run is the strong run, so its slot takes the strong stream's state
    streamed = SCHEMES[1:] if galerkin_modes == "full" else SCHEMES
    refs = {s: [] for s in SCHEMES}
    real_states, real_blend = experiments._states, experiments._regularized_blend

    def recording_states(u0, p, cadence):
        for state in real_states(u0, p, cadence):
            refs[p.scheme].append(weakref.ref(state[0]))
            yield state

    merged = []

    def checking_blend(grid, w, specs):
        merge = real_blend(grid, w, specs)

        def checked(*fs):
            m = len(refs["mild-duhamel"]) - 1
            assert (fs[0] is fs[2]) == (galerkin_modes == "full")
            last = None
            for field in merge(*fs):
                # triple m is the only one alive, in every stream, and the
                # merge's previous field is gone once its next one arrives
                for scheme in SCHEMES:
                    alive = [i == m for i in range(m + 1)] if scheme in streamed else []
                    assert [r() is not None for r in refs[scheme]] == alive
                assert last is None or last() is None
                merged.append(m)
                last = weakref.ref(field)
                yield field

        return checked

    monkeypatch.setattr(experiments, "_states", recording_states)
    monkeypatch.setattr(experiments, "_regularized_blend", checking_blend)
    assert experiments.run_experiment(cfg) == experiments.EXIT_OK
    assert merged == [m for m in range(6) for _ in cfg.eps_list]


# projections and numpy.fft calls of an n=8 unify of 5 steps, by cutoff
UNIFY_TRANSFORMS = {
    "full": (117, {"fft": 126, "ifft": 264, "rfft": 63, "irfft": 132}),
    2: (133, {"fft": 166, "ifft": 294, "rfft": 83, "irfft": 147}),
}


@pytest.mark.parametrize("galerkin_modes, streams", [("full", 2), (2, 3)])
def test_unify_makes_a_pinned_count_of_each_operation(tmp_path, monkeypatch, galerkin_modes,
                                                      streams):
    steps = 5
    cfg = _config(tmp_path, 8, "random", t_end=steps * 1e-3, galerkin_modes=galerkin_modes)
    calls = count_calls(monkeypatch, "_states", "_advect_arrays", "_leray_at", "vorticity_max",
                        "_band_sum", "_smear")
    fft = count_fft_calls(monkeypatch)
    assert experiments.run_experiment(cfg) == experiments.EXIT_OK
    # one stream per distinct trajectory, each with two kernel calls per step
    # and the guard's vorticity maximum of each stepped state; one band sum
    # per snapshot triple, and one smearing per triple and eps
    assert (calls["_states"], calls["_advect_arrays"]) == (streams, 2 * steps * streams)
    assert calls["vorticity_max"] == steps * streams
    assert calls["_band_sum"] == steps + 1
    assert calls["_smear"] == (steps + 1) * len(cfg.eps_list)
    leray, ffts = UNIFY_TRANSFORMS[galerkin_modes]
    assert calls["_leray_at"] == leray
    assert {name: c for name, c in fft.items() if c} == ffts


def _expected_abort(cfg, tmp_path):
    """The directory of the first abort in SCHEMES order when the schemes run in turn."""
    u0 = experiments._initial_field(cfg, GridSpec(cfg.n))
    for scheme in SCHEMES:
        try:
            run(u0, experiments._solver_params(cfg, scheme), cfg.cadence)
        except NumericalAbort as exc:
            expected = tmp_path / "expected"
            expected.mkdir()
            (expected / "abort.txt").write_text(f"numerical abort: {exc}\n", encoding="utf-8")
            write_trajectory(expected / "partial", exc.trajectory)
            return scheme, exc
    raise AssertionError("no scheme aborts")


def test_an_aborted_unify_leaves_the_cfl_abort_of_the_weak_run(tmp_path):
    # dt = 0.04 exceeds the Taylor-Green CFL limit 0.5 / 16 at every scheme's first step
    cfg = _config(tmp_path, 16, "taylor-green", dt=0.04, t_end=0.4)
    scheme, exc = _expected_abort(cfg, tmp_path)
    assert scheme == "weak-galerkin" and isinstance(exc, CflViolation)
    assert experiments.run_experiment(cfg) == experiments.EXIT_NUMERICAL_ABORT
    assert _tree_bytes(tmp_path / "out") == _tree_bytes(tmp_path / "expected")


@pytest.mark.parametrize("earlier", ["mild-duhamel", "strong-imex"])
def test_an_aborted_unify_reports_the_first_abort_in_scheme_order_not_in_time(
    tmp_path, monkeypatch, earlier
):
    # `earlier` turns NaN after two steps, the weak run after four: in lockstep
    # `earlier` aborts first, yet the weak run's abort is the one reported
    real_step, calls = solvers._step, collections.Counter()

    def failing_step(c, a0, umax, p, *args):
        # a run aborts at its first NaN step, so of one scheme's runs every
        # fifth (third) call is a weak (`earlier`) run's fifth (third) step
        out = real_step(c, a0, umax, p, *args)
        calls[p.scheme] += 1
        nan_step = {"weak-galerkin": 5, earlier: 3}.get(p.scheme)
        return out * np.nan if nan_step and calls[p.scheme] % nan_step == 0 else out

    monkeypatch.setattr(solvers, "_step", failing_step)
    cfg = _config(tmp_path, 8, "random", t_end=0.01)
    scheme, exc = _expected_abort(cfg, tmp_path)
    assert scheme == "weak-galerkin" and isinstance(exc, BlowUpDetected)
    assert len(exc.trajectory.snapshots) == 5
    with pytest.raises(NumericalAbort) as lockstep:
        experiments.experiment_unify(cfg, tmp_path)
    assert lockstep.value.trajectory.params.scheme == "weak-galerkin"
    assert experiments.run_experiment(cfg) == experiments.EXIT_NUMERICAL_ABORT
    assert _tree_bytes(tmp_path / "out") == _tree_bytes(tmp_path / "expected")
