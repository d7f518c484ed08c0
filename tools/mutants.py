"""Run the mutation table: one-edit defects that a named test must catch.

    python3 tools/mutants.py [NAME ...] [--list]

Each entry of ``MUTANTS`` names a file under this checkout, an ``old`` text
that must occur in it exactly once, the ``new`` text that replaces it, and
the test expected to fail on the edit (a pytest node id; ``None`` means the
whole tier-1 suite with ``-x``).  For each mutant the checkout's ``src``,
``tests``, ``tools`` and ``perfbench`` are copied into a temporary
directory, the edit is applied there and the test is run with
``PYTHONPATH`` at the copy's ``src``.  Before any mutant, every named test
is run once on an unedited copy and must pass, so that a catch means the
edit was seen.

Prints one line per mutant (``caught``, ``SURVIVED`` or ``ERROR`` when the
edit cannot be applied or pytest itself fails) and a ``caught k of m``
summary.  Exit code 0 when every mutant is caught, 1 otherwise, and 2 when
the unedited tests do not pass.  Names restrict the run to those mutants.
Nothing in the checkout is written.  A mutant costs one pytest start and its
test, so the table stays outside tier-1.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "tools", "perfbench", "pyproject.toml")
CACHES = shutil.ignore_patterns("__pycache__", ".perfbench", ".pytest_cache", ".hypothesis")


class Mutant(NamedTuple):
    name: str
    file: str
    old: str
    new: str
    test: str | None


SOLVERS = "src/torusflow/solvers.py"
SPECTRAL = "src/torusflow/spectral.py"
DIAGNOSTICS = "src/torusflow/diagnostics.py"
DYADIC = "src/torusflow/dyadic.py"
EXPERIMENTS = "src/torusflow/experiments.py"

MUTANTS = [
    # one stream per distinct trajectory in unify, and `step` reading the scheme
    Mutant("unify-always-uncut", EXPERIMENTS,
           "uncut = _step_multipliers(grid, params[0]) is _step_multipliers(grid, params[2])",
           "uncut = True",
           "tests/test_unify.py::test_unify_makes_a_pinned_count_of_each_operation[2-3]"),
    Mutant("unify-never-uncut", EXPERIMENTS,
           "uncut = _step_multipliers(grid, params[0]) is _step_multipliers(grid, params[2])",
           "uncut = False",
           "tests/test_unify.py::test_lockstep_unify_drops_each_triple_once_the_next_arrives[full]"),
    Mutant("step-ignores-the-scheme", SOLVERS,
           "p, _step_multipliers(grid, p), _forcing(p, grid), grid)",
           "p, _multipliers(grid, p.nu, p.dt, False, None), _forcing(p, grid), grid)",
           "tests/test_solvers.py::test_step_is_the_first_step_of_run_bitwise[mild-duhamel]"),
    Mutant("bspline-derivative-sign", DIAGNOSTICS,
           ", -(-9.0 * t**2 + 6.0 * t + 3.0) / 6.0",
           ", (-9.0 * t**2 + 6.0 * t + 3.0) / 6.0",
           "tests/test_diagnostics.py::test_weak_residual_second_order"),
    # quadratures and maxima
    Mutant("forced-power-w0-twice", DIAGNOSTICS,
           "work = 0.5 * dt * (w0 + w1)",
           "work = 0.5 * dt * (w0 + w0)",
           "tests/test_solvers.py::test_forced_energy_defects_shrink_at_second_order"),
    Mutant("simpson-tail-on-the-last-node", DIAGNOSTICS,
           "        w[m - 2] += 0.5 * h\n        w[m - 1] += 0.5 * h\n",
           "        w[m - 1] += h\n",
           "tests/test_diagnostics.py::"
           "test_time_quadrature_integrates_linear_functions_on_an_even_node_count[4]"),
    Mutant("vorticity-max-largest-component", SPECTRAL,
           "mag = np.sqrt((phys**2).sum(axis=0))",
           "mag = np.abs(phys).max(axis=0)",
           "tests/test_diagnostics.py::test_two_component_maxima_are_those_of_the_vector_norm[16]"),
    Mutant("kernel-umax-largest-component", SPECTRAL,
           "np.add(prod[0], up[0], out=up[1])\n"
           "    umax = math.sqrt(np.add(up[1], up[2], out=up[1]).max())",
           "np.maximum(prod[0], up[0], out=up[1])\n"
           "    umax = math.sqrt(np.maximum(up[1], up[2], out=up[1]).max())",
           "tests/test_diagnostics.py::test_two_component_maxima_are_those_of_the_vector_norm[16]"),
    Mutant("box-passes-skip-the-row-packing", SPECTRAL,
           "        v[:, cols:b] = v[:, n - m :]\n",
           "        pass\n",
           "tests/test_spectral.py::"
           "test_the_box_body_equals_the_full_array_body_on_every_kept_mode[True-taylor-green-16]"),
    Mutant("steady-forcing-duhamel-sign", DIAGNOSTICS,
           "expected += t * _phi1(",
           "expected -= t * _phi1(",
           "tests/test_diagnostics.py::test_residuals_on_manufactured_steady_state"),
    Mutant("unify-gaps-to-the-strong-field", EXPERIMENTS,
           "_diff_norm(f, fs[1], 1.0)",
           "_diff_norm(f, fs[2], 1.0)",
           "tests/test_unify.py::test_lockstep_unify_writes_the_files_of_the_whole_trajectory_method"
           "[2-0.1-1-gaussian-random-12]"),
    Mutant("bkm-limit-raised", SOLVERS,
           "BLOWUP_BKM_LIMIT = 1e6",
           "BLOWUP_BKM_LIMIT = 1e7",
           "tests/test_solvers.py::test_the_guard_constants_are_the_documented_ones"),
    # the frame of a run
    Mutant("box-frame-on-grids-divisible-by-3", SPECTRAL,
           "n >= PRUNE_MIN_N and n % 3 and _band_limited(c, n)",
           "n >= PRUNE_MIN_N and _band_limited(c, n)",
           "tests/test_solvers.py::test_a_run_on_a_grid_divisible_by_3_steps_on_the_half_spectrum[strong-18]"),
    Mutant("box-frame-ignores-the-forcing", SPECTRAL,
           "and (f is None or _band_limited(f, n)):",
           ":",
           "tests/test_solvers.py::test_a_run_on_the_box_streams_the_half_spectrum_runs_bits[forced-off-band]"),
    Mutant("records-take-the-box-summed-norm", SOLVERS,
           "hs = sobolev_norm(u, GUARD_NORM_INDEX) if recorded else",
           "hs = sobolev_norm(u, GUARD_NORM_INDEX) if box is None else",
           "tests/test_solvers.py::test_a_run_on_the_box_streams_the_half_spectrum_runs_bits[n32-strong]"),
    # the stream's sample arena
    Mutant("arena-kept-through-the-yield", SOLVERS,
           "            arena = None\n            yield u,",
           "            yield u,",
           "tests/test_working_set.py::test_the_suspended_stream_holds_no_arena[1]"),
    Mutant("umax-from-a-wrong-product-row", SPECTRAL,
           "np.add(prod[0], up[0], out=up[1])",
           "np.add(prod[1], up[0], out=up[1])",
           "tests/test_spectral.py::test_the_divergence_form_in_an_arena_keeps_every_bit[False-box-random-16]"),
    Mutant("arena-on-the-half-spectrum", SOLVERS,
           "        if arena is None and box is not None:\n",
           "        if arena is None:\n",
           "tests/test_working_set.py::test_a_run_on_the_box_steps_through_one_arena[half]"),
    # the kernel entry's geometry, and the residual pass's own time weights
    Mutant("half-spectrum-skips-the-gather", SPECTRAL,
           "if n < PRUNE_MIN_N:",
           "if True:",
           "tests/test_spectral.py::"
           "test_the_box_body_equals_the_full_array_body_on_every_kept_mode[True-taylor-green-16]"),
    Mutant("residual-weights-bump-for-its-derivative", DIAGNOSTICS,
           "self._bump, self._bump_dt = _time_bump(times)",
           "self._bump_dt, self._bump = _time_bump(times)",
           "tests/test_diagnostics.py::test_one_pass_equals_separate_walks_bitwise[random8]"),
    Mutant("weak-pass-takes-modes-without-times", DIAGNOSTICS,
           "        if modes and times is None:\n"
           "            raise ValueError(\"a weak pass over test modes needs the snapshot times\")\n",
           "",
           "tests/test_diagnostics.py::test_a_weak_pass_refuses_test_modes_without_snapshot_times"),
    # acceptance criteria
    Mutant("dyadic-profile-one-sided", DYADIC,
           "_falling_ramp((np.abs(t) - _PLATEAU)",
           "_falling_ramp((t - _PLATEAU)",
           "tests/test_acceptance.py::test_criterion_05_littlewood_paley"),
]


def copy_tree(dest: Path) -> None:
    for name in COPIED:
        src = ROOT / name
        if src.is_dir():
            shutil.copytree(src, dest / name, ignore=CACHES)
        elif src.exists():
            shutil.copy2(src, dest / name)


def apply(m: Mutant, tree: Path) -> None:
    path = tree / m.file
    text = path.read_text(encoding="utf-8")
    count = text.count(m.old)
    if count != 1:
        raise ValueError(f"old text occurs {count} times in {m.file}, not once")
    path.write_text(text.replace(m.old, m.new), encoding="utf-8")


def pytest(tree: Path, tests: list[str]) -> int:
    """pytest's exit code for `tests` (tier-1 with -x when empty) in `tree`."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    args = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider"]
    args += tests or ["--continue-on-collection-errors"]
    proc = subprocess.run(args, cwd=tree, env=env, capture_output=True, text=True)
    return proc.returncode


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("names", nargs="*", help="run only these mutants")
    parser.add_argument("--list", action="store_true", help="print the table and exit")
    args = parser.parse_args()
    known = {m.name for m in MUTANTS}
    unknown = [name for name in args.names if name not in known]
    if unknown:
        parser.error(f"unknown mutants: {', '.join(unknown)}")
    table = [m for m in MUTANTS if not args.names or m.name in args.names]
    if args.list:
        for m in table:
            print(f"{m.name:36s} {m.file}  {m.test or 'tier-1 -x'}")
        return 0

    with tempfile.TemporaryDirectory() as tmp:
        clean = Path(tmp) / "clean"
        copy_tree(clean)
        named = sorted({m.test for m in table if m.test})
        if named and pytest(clean, named) != 0:
            print("error: the named tests do not all pass on the unedited tree", file=sys.stderr)
            return 2
        caught = 0
        for i, m in enumerate(table):
            tree = Path(tmp) / f"mutant-{i}"
            copy_tree(tree)
            try:
                apply(m, tree)
            except ValueError as exc:
                print(f"ERROR     {m.name}: {exc}")
                continue
            code = pytest(tree, [m.test] if m.test else [])
            shutil.rmtree(tree)
            word = {0: "SURVIVED", 1: "caught"}.get(code, f"ERROR (pytest exit {code})")
            caught += code == 1
            print(f"{word:9s} {m.name}: {m.test or 'tier-1 -x'}", flush=True)
    print(f"caught {caught} of {len(table)}")
    return 0 if caught == len(table) else 1


if __name__ == "__main__":
    sys.exit(main())
