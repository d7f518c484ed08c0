"""Command-line entry point.

Subcommands: run, verify, unify, convergence, blocks.  A config file may
set every knob; command-line flags override it, and the merged settings
are validated once.  Exit codes: 0 pass, 1 check failure, 2 usage or
config error or a run too large to allocate, 3 numerical abort.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .config import ExperimentConfig, _read_config, validate
from .errors import ParseError, RangeError, TorusflowError
from .experiments import EXIT_CONFIG_ERROR, run_experiment


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="torusflow",
        description="Pseudospectral torus toolkit: solvers, band operators, verification",
    )
    sub = parser.add_subparsers(dest="experiment", required=True)
    for name, help_text in (
        ("run", "evolve one trajectory and write snapshots + diagnostics CSV"),
        ("verify", "run the numerical check battery and write a JSON summary"),
        ("unify", "blend the three schemes and tabulate reconstruction error vs eps"),
        ("convergence", "mollifier approximation-rate study"),
        ("blocks", "dump per-block energies and mollifier symbols as CSV"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", type=Path, help="key = value config file")
        p.add_argument("--n", type=int, help="modes per axis (even, >= 4)")
        p.add_argument("--nu", type=float, help="viscosity")
        p.add_argument("--dt", type=float, help="time step")
        p.add_argument("--t-end", type=float, dest="t_end", help="time horizon")
        p.add_argument("--eps", type=float, help="single blending scale (replaces eps_list)")
        p.add_argument("--seed", type=int, help="random seed")
        p.add_argument("--out", type=str, help="output directory")
    return parser


def _load_config(args: argparse.Namespace) -> ExperimentConfig:
    """File values, then flags, then the subcommand; validated once, naming the
    file line of each key whose value still comes from the file."""
    values, lines = {}, {}
    if args.config is not None:
        values, lines = _read_config(args.config.read_text(encoding="utf-8"))
    if values.get("experiment", args.experiment) != args.experiment:
        raise RangeError(
            f"experiment = {values['experiment']} conflicts with the subcommand {args.experiment}",
            lines["experiment"],
        )
    flags = {k: getattr(args, k) for k in ("experiment", "n", "nu", "dt", "t_end", "seed", "out")}
    flags["eps_list"] = None if args.eps is None else (args.eps,)
    for key, value in flags.items():
        if value is not None:
            values[key] = value
            lines.pop(key, None)
    cfg = ExperimentConfig(**values)
    validate(cfg, lines)
    return cfg


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _load_config(args)
    except (ParseError, RangeError, OSError, UnicodeDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    try:
        return run_experiment(cfg)
    except RangeError as exc:  # an output directory that cannot be created
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except (TorusflowError, MemoryError) as exc:  # or a valid config too large to allocate
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_CONFIG_ERROR


if __name__ == "__main__":
    sys.exit(main())
