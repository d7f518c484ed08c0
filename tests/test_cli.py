import json
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from torusflow import GridSpec, MollifierSpec, SolverParams, WeightPartition
from torusflow.cli import _build_parser, _load_config, main
from torusflow.errors import RangeError
from torusflow.experiments import CHECKS
from torusflow.snapshots import read_trajectory
from torusflow.solvers import step_count


def test_run_experiment_writes_artifacts(tmp_path):
    out = tmp_path / "runout"
    code = main([
        "run", "--n", "8", "--nu", "0.5", "--dt", "1e-2", "--t-end", "0.05",
        "--out", str(out),
    ])
    assert code == 0
    assert (out / "manifest.txt").exists()
    assert (out / "diagnostics.csv").exists()
    header = (out / "diagnostics.csv").read_text().splitlines()[0]
    assert header == "t,energy,enstrophy,bkm,div_defect,res_weak,res_mild,res_strong,h1,h2,h3"
    traj = read_trajectory(out)
    assert len(traj.snapshots) == 6


def test_run_t_end_zero_single_row(tmp_path):
    out = tmp_path / "zero"
    code = main(["run", "--n", "8", "--t-end", "0", "--out", str(out)])
    assert code == 0
    rows = (out / "diagnostics.csv").read_text().strip().splitlines()
    assert len(rows) == 2  # header + one snapshot
    assert len(read_trajectory(out).snapshots) == 1


def test_config_file_and_overrides(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("experiment = run\nn = 8\nnu = 0.2\ndt = 1e-2\nt_end = 0.02\n")
    out = tmp_path / "cfgout"
    code = main(["run", "--config", str(cfg), "--nu", "0.4", "--out", str(out)])
    assert code == 0
    manifest = (out / "manifest.txt").read_text()
    assert "nu=0.4" in manifest


def test_bad_config_exits_2(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("experiment = run\nn = 15\n")
    assert main(["run", "--config", str(cfg)]) == 2
    assert main(["run", "--config", str(tmp_path / "missing.cfg")]) == 2
    assert main(["run", "--n", "7"]) == 2


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as err:
        main(["not-an-experiment"])
    assert err.value.code == 2


def test_verify_rejects_tiny_grid(tmp_path):
    assert main(["verify", "--n", "4", "--out", str(tmp_path / "tiny")]) == 2


def test_verify_writes_json_and_passes(tmp_path):
    out = tmp_path / "verify"
    code = main(["verify", "--n", "8", "--out", str(out)])
    summary = json.loads((out / "verify_summary.json").read_text())
    assert set(summary) == {"checks"}
    assert [c["name"] for c in summary["checks"]] == [name for name, _, _ in CHECKS]
    for check in summary["checks"]:
        assert set(check) == {"name", "value", "bound", "pass"}
    assert code == 0
    assert all(c["pass"] for c in summary["checks"])


def test_run_emits_plot_script(tmp_path):
    out = tmp_path / "plots"
    assert main(["run", "--n", "8", "--t-end", "0.02", "--dt", "1e-2", "--out", str(out)]) == 0
    script = (out / "plot_diagnostics.py").read_text()
    assert "diagnostics.csv" in script


def test_unify_experiment_shear_monotone(tmp_path):
    cfg = tmp_path / "unify.cfg"
    cfg.write_text(
        "experiment = unify\nn = 8\nnu = 1.0\ndt = 1e-2\nt_end = 0.05\ninit = shear\n"
        "eps_list = 0.25,0.125,0.0625,0.03125,0.015625,0.0078125,0.00390625\n"
    )
    out = tmp_path / "unify"
    code = main(["unify", "--config", str(cfg), "--out", str(out)])
    assert code == 0
    rows = (out / "unify.csv").read_text().strip().splitlines()
    assert rows[0] == "eps,h1_error"
    errs = [float(r.split(",")[1]) for r in rows[1:]]
    assert all(b <= a for a, b in zip(errs, errs[1:]))
    summary = json.loads((out / "unify_summary.json").read_text())
    assert summary["monotone_nonincreasing"] is True


def test_convergence_experiment(tmp_path):
    out = tmp_path / "conv"
    code = main(["convergence", "--n", "16", "--out", str(out)])
    assert code == 0
    summary = json.loads((out / "convergence_summary.json").read_text())
    assert summary["pass"] is True
    assert 1.8 <= summary["slope"] <= 2.2


@pytest.mark.parametrize("mollifier", ["gaussian", "bump"])
def test_convergence_csv_cells_are_plain_numbers(tmp_path, mollifier):
    cfg = tmp_path / "conv.cfg"
    cfg.write_text(f"experiment = convergence\nn = 8\nmollifier = {mollifier}\n")
    out = tmp_path / "conv"
    assert main(["convergence", "--config", str(cfg), "--out", str(out)]) in (0, 1)
    header, *rows = (out / "convergence.csv").read_text().strip().splitlines()
    assert header == "eps,h1_error" and rows
    for row in rows:
        eps, err = (float(cell) for cell in row.split(","))
        assert eps > 0.0 and err >= 0.0


def test_eps_flag_replaces_eps_list(tmp_path):
    out = tmp_path / "eps"
    code = main(["blocks", "--n", "8", "--eps", "0.5", "--out", str(out)])
    assert code == 0
    # symbols.csv is evaluated at the single configured scale
    rows = (out / "symbols.csv").read_text().strip().splitlines()
    import math

    k1 = float(rows[2].split(",")[1])
    assert k1 == pytest.approx(math.exp(-0.5**2 / 2.0), rel=1e-12)


def test_blocks_experiment(tmp_path):
    out = tmp_path / "blocks"
    code = main(["blocks", "--n", "16", "--seed", "4", "--out", str(out)])
    assert code == 0
    rows = (out / "blocks.csv").read_text().strip().splitlines()
    assert rows[0] == "j,energy"
    assert rows[1].startswith("-1,")
    symbols = (out / "symbols.csv").read_text().strip().splitlines()
    assert symbols[0] == "k,value"
    assert float(symbols[1].split(",")[1]) == 1.0


def test_numerical_abort_exits_3(tmp_path, monkeypatch):
    # manufacture a blow-up via a forcing-dominated run
    import torusflow.experiments as exp
    from torusflow import GridSpec, shear_init

    def forced_field(cfg, grid):
        tiny = shear_init(grid)
        return tiny.with_coeffs(1e-9 * tiny.coeffs)

    monkeypatch.setattr(exp, "_initial_field", forced_field)

    def forced_params(cfg, scheme=None):
        from torusflow import SolverParams

        return SolverParams(
            nu=1e-6, dt=1e-3, t_end=0.1, scheme=scheme or "strong-imex",
            forcing=shear_init(GridSpec(cfg.n)),
        )

    monkeypatch.setattr(exp, "_solver_params", forced_params)
    out = tmp_path / "abort"
    code = main(["run", "--n", "8", "--out", str(out)])
    assert code == 3
    assert (out / "abort.txt").exists()
    assert (out / "partial" / "manifest.txt").exists()


def test_cfl_violation_is_numerical_abort(tmp_path):
    # the first step's CFL gate fails: exit 3 with the report and the
    # one-snapshot partial trajectory, as for a blow-up
    out = tmp_path / "cfl"
    assert main(["run", "--n", "16", "--dt", "0.1", "--t-end", "0.2", "--out", str(out)]) == 3
    assert "exceeds advective limit" in (out / "abort.txt").read_text()
    partial = read_trajectory(out / "partial")
    assert [s.time for s in partial.snapshots] == [0.0]
    assert not (out / "diagnostics.csv").exists()


# malformed settings, from flags or a file, that must exit 2 before any
# output exists: NaN/inf numbers, a negative seed, r2 below the default r1
# for the flag-set n, and t_end that is not a whole number of dt steps
BAD_INPUTS = {
    "t_end-not-multiple-of-dt": ("", ["run", "--n", "8", "--dt", "0.003", "--t-end", "0.01"]),
    "r2-below-default-r1": ("r2 = 3\n", ["unify", "--n", "32"]),
    "dt-nan": ("", ["run", "--dt", "nan"]),
    "t_end-inf": ("", ["run", "--t-end", "inf"]),
    "r1-nan": ("r1 = nan\n", ["verify"]),
    "negative-seed": ("init = random\nseed = -1\n", ["run"]),
    "nu-nan": ("", ["run", "--nu", "nan"]),
    "eps-nan": ("", ["blocks", "--eps", "nan"]),
    "eps-inf": ("", ["unify", "--eps", "inf"]),
    "galerkin_modes-nan": ("scheme = weak-galerkin\ngalerkin_modes = nan\n", ["run"]),
    "convergence-one-eps": ("", ["convergence", "--eps", "0.1"]),
    "convergence-three-eps": ("eps_list = 0.1, 0.05, 0.025\n", ["convergence"]),
}


@pytest.mark.parametrize("text,argv", BAD_INPUTS.values(), ids=BAD_INPUTS)
def test_bad_input_is_config_error(tmp_path, capsys, text, argv):
    out = tmp_path / "out"
    if text:
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(f"experiment = {argv[0]}\n{text}")
        argv = [*argv, "--config", str(cfg)]
    assert main([*argv, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("flags", [
    ["--nu", "1e308", "--t-end", "0.002"],  # nu |k|^2 u overflows
    ["--dt", "1e-320", "--t-end", "1e-319"],  # the centered difference over 2 dt overflows
], ids=["viscosity", "denormal-dt"])
def test_overflowing_diagnostics_are_a_typed_error(tmp_path, capsys, flags):
    # the config is valid and the run writes its snapshots and manifest, but the
    # strong residual of the records is not finite: no diagnostics.csv is written
    # and the typed error is the only line on stderr, with no numpy warning
    out = tmp_path / "out"
    assert main(["run", "--n", "8", *flags, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: diagnostics res_strong not finite at t = ")
    assert err.count("\n") == 1
    assert not (out / "diagnostics.csv").exists()
    assert len(read_trajectory(out).snapshots) >= 3


@pytest.mark.parametrize("experiment", ["unify", "blocks"])
def test_an_overflowing_mollifier_symbol_warns_nothing(tmp_path, capsys, experiment):
    # at eps = 1e300 the gaussian symbol's r^2 overflows to inf, and the
    # symbol exp(-r^2 / 2) is 0.0 as it should be
    out = tmp_path / "out"
    assert main([experiment, "--n", "8", "--eps", "1e300", "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("sub", ["", "sub"], ids=["file", "below-file"])
def test_out_naming_a_file_is_config_error(tmp_path, capsys, sub):
    taken = tmp_path / "taken"
    taken.write_text("not a directory\n")
    assert main(["blocks", "--n", "8", "--out", str(taken / sub)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err
    assert "Traceback" not in err
    assert taken.read_text() == "not a directory\n"


def test_undecodable_config_is_config_error(tmp_path, capsys):
    cfg = tmp_path / "bin.cfg"
    cfg.write_bytes(b"experiment = run\n\xff\xfe\n")
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


_numbers = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, 1e-3, 2e-3, 0.01, 0.1, 0.5, 1.0, 2.0]),
)


@given(
    experiment=st.sampled_from(["run", "verify", "unify", "convergence", "blocks"]),
    n=st.integers(-4, 40),
    seed=st.integers(-3, 3),
    flags=st.fixed_dictionaries(
        {}, optional={k: _numbers for k in ("--nu", "--dt", "--t-end", "--eps")}
    ),
)
def test_accepted_flags_build_every_object(experiment, n, seed, flags):
    argv = [experiment, f"--n={n}", f"--seed={seed}"]
    argv += [f"{key}={value!r}" for key, value in flags.items()]
    try:
        cfg = _load_config(_build_parser().parse_args(argv))
    except RangeError:
        return
    assert all(math.isfinite(x) for x in (cfg.nu, cfg.dt, cfg.t_end, *cfg.eps_list))
    GridSpec(cfg.n)
    SolverParams(
        nu=cfg.nu, dt=cfg.dt, t_end=cfg.t_end, scheme=cfg.scheme,
        galerkin_modes=cfg.galerkin_modes, seed=cfg.seed,
    )
    for eps in cfg.eps_list:
        MollifierSpec(eps, cfg.mollifier)
    WeightPartition(*cfg.weight_edges())
    if experiment in ("run", "unify"):
        step_count(cfg.t_end, cfg.dt)


def test_flag_replaces_an_invalid_file_value(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("experiment = blocks\nn = 15\n")
    out = tmp_path / "out"
    assert main(["blocks", "--config", str(cfg), "--n", "8", "--out", str(out)]) == 0
    assert (out / "blocks.csv").exists()


@pytest.mark.parametrize("extra", ["", "n = 4\n"], ids=["runs-other", "other-rule"])
def test_file_experiment_must_match_subcommand(tmp_path, capsys, extra):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(f"experiment = verify\n{extra}")
    out = tmp_path / "out"
    argv = ["run", "--config", str(cfg), "--n", "8", "--t-end", "0.002", "--out", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "config error: line 1: experiment = verify" in err
    assert not out.exists()


def test_cross_key_error_names_the_file_line_of_a_file_value(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("experiment = run\nn = 8\nt_end = 0.1\n")
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--dt", "0.03", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config error: line 3: t_end must be an integer multiple of dt" in err
    assert not out.exists()


@pytest.mark.parametrize("experiment", ["run", "unify"])
@pytest.mark.parametrize("n", [6, 8])
def test_grid_divisible_by_3_gets_a_dealiasing_notice(tmp_path, capsys, experiment, n):
    out = tmp_path / "out"
    argv = [experiment, "--n", str(n), "--dt", "1e-2", "--t-end", "0.02", "--out", str(out)]
    assert main(argv) == 0
    notice = "2/3 dealiasing is inexact" in capsys.readouterr().err
    assert notice == (n == 6)
    if experiment == "run":
        assert ("dealiasing=" in (out / "manifest.txt").read_text()) == (n == 6)
        assert len(read_trajectory(out).snapshots) == 3
