"""Line-oriented `key = value` experiment configuration.

Comments start with `#`.  Unknown keys are rejected with their line number;
duplicate keys report both lines.  `validate` holds every range and
cross-key rule; `parse_config` runs it on the parsed file, and the CLI runs
it once on the file values merged with its flags and subcommand.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .diagnostics import MIN_SCALES
from .errors import ParseError, RangeError
from .operators import MOLLIFIER_KINDS
from .solvers import SCHEMES, step_count

EXPERIMENTS = ("run", "verify", "unify", "convergence", "blocks")
INIT_KINDS = ("taylor-green", "shear", "random")

DEFAULT_EPS_LIST = (0.25, 0.125, 0.0625, 0.03125, 0.015625, 0.0078125, 0.00390625)


@dataclass
class ExperimentConfig:
    experiment: str
    n: int = 16
    nu: float = 0.1
    dt: float = 1e-3
    t_end: float = 0.1
    scheme: str = "strong-imex"
    galerkin_modes: float | None = None
    seed: int = 0
    init: str = "taylor-green"
    eps_list: tuple[float, ...] = DEFAULT_EPS_LIST
    r1: float | None = None  # defaults to n/8 when unset
    r2: float | None = None  # defaults to 3n/8 when unset
    mollifier: str = "gaussian"
    out: str = "out"
    cadence: int = 1

    def weight_edges(self) -> tuple[float, float]:
        r1 = self.r1 if self.r1 is not None else self.n / 8.0
        r2 = self.r2 if self.r2 is not None else 3.0 * self.n / 8.0
        return r1, r2


def _parse_str(value: str, key: str, line: int) -> str:
    return value


def _parse_float(value: str, key: str, line: int) -> float:
    try:
        return float(value)
    except ValueError:
        raise ParseError(f"{key} expects a number, got {value!r}", line) from None


def _parse_int(value: str, key: str, line: int) -> int:
    try:
        return int(value)
    except ValueError:
        raise ParseError(f"{key} expects an integer, got {value!r}", line) from None


def _parse_float_list(value: str, key: str, line: int) -> tuple[float, ...]:
    items = [v.strip() for v in value.split(",") if v.strip()]
    if not items:
        raise ParseError(f"{key} expects a comma-separated list of numbers", line)
    return tuple(_parse_float(v, key, line) for v in items)


def _parse_galerkin_modes(value: str, key: str, line: int) -> float | None:
    return None if value == "full" else _parse_float(value, key, line)


# one type converter per key; the ranges live in `validate`
_PARSERS = {
    "experiment": _parse_str,
    "n": _parse_int,
    "nu": _parse_float,
    "dt": _parse_float,
    "t_end": _parse_float,
    "scheme": _parse_str,
    "galerkin_modes": _parse_galerkin_modes,
    "seed": _parse_int,
    "init": _parse_str,
    "eps_list": _parse_float_list,
    "r1": _parse_float,
    "r2": _parse_float,
    "mollifier": _parse_str,
    "out": _parse_str,
    "cadence": _parse_int,
}
_KNOWN_KEYS = frozenset(_PARSERS)


def validate(cfg: ExperimentConfig, lines: dict[str, int] | None = None) -> None:
    """Check every documented range and cross-key rule of a final config.

    Raises RangeError; `lines` maps the keys read from a file to their line
    numbers so the error can name it.  Non-finite numbers are rejected
    first, so no comparison below ever sees NaN.
    """
    lines = lines or {}

    def require(ok: bool, key: str, message: str) -> None:
        if not ok:
            raise RangeError(message, lines.get(key, 0))

    for key in ("nu", "dt", "t_end", "galerkin_modes", "r1", "r2", "eps_list"):
        value = getattr(cfg, key)
        values = value if isinstance(value, tuple) else (value,)
        require(all(v is None or math.isfinite(v) for v in values), key, f"{key} must be finite")
    require(cfg.experiment in EXPERIMENTS, "experiment", f"experiment must be one of {EXPERIMENTS}")
    require(cfg.n >= 4 and cfg.n % 2 == 0, "n", "n must be even >= 4")
    # the verify battery's mode placements and cascade checks need |k| up to 3
    require(cfg.experiment != "verify" or cfg.n >= 8, "n", "verify needs n >= 8")
    require(cfg.nu >= 0.0, "nu", "nu must be nonnegative")
    require(cfg.dt > 0.0, "dt", "dt must be positive")
    require(cfg.t_end >= 0.0, "t_end", "t_end must be nonnegative")
    require(cfg.scheme in SCHEMES, "scheme", f"scheme must be one of {SCHEMES}")
    require(
        cfg.galerkin_modes is None or cfg.galerkin_modes >= 1.0,
        "galerkin_modes",
        "galerkin_modes must be >= 1 (or 'full')",
    )
    require(cfg.seed >= 0, "seed", "seed must be >= 0")
    require(cfg.init in INIT_KINDS, "init", f"init must be one of {INIT_KINDS}")
    eps = cfg.eps_list
    require(len(eps) > 0 and min(eps) > 0.0, "eps_list", "eps_list entries must be positive")
    require(
        all(b < a for a, b in zip(eps, eps[1:])),
        "eps_list",
        "eps_list must be strictly decreasing",
    )
    require(
        cfg.experiment != "convergence" or len(eps) >= MIN_SCALES,
        "eps_list",
        f"convergence needs eps_list with >= {MIN_SCALES} scales (got {len(eps)})",
    )
    require(cfg.r1 is None or cfg.r1 > 0.0, "r1", "r1 must be positive")
    r1, r2 = cfg.weight_edges()
    require(r2 > r1, "r2" if "r2" in lines else "r1", f"need r2 > r1 (got {r1:g} and {r2:g})")
    require(
        cfg.mollifier in MOLLIFIER_KINDS,
        "mollifier",
        f"mollifier must be one of {MOLLIFIER_KINDS}",
    )
    require(cfg.cadence >= 1, "cadence", "cadence must be >= 1")
    if cfg.experiment in ("run", "unify"):
        try:
            step_count(cfg.t_end, cfg.dt)
        except ValueError as exc:
            line = lines.get("t_end", lines.get("dt", 0))
            raise RangeError(f"{exc} (t_end = {cfg.t_end:g}, dt = {cfg.dt:g})", line) from None


def _read_config(text: str) -> tuple[dict[str, object], dict[str, int]]:
    """The typed value and the line number of each key a file sets; ParseError
    on malformed text, no range checks."""
    seen: dict[str, int] = {}
    values: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        if "=" not in line:
            raise ParseError("expected 'key = value'", lineno, col=len(line) + 1)
        key, _, value = line.partition("=")
        col = line.index("=") + 1
        key = key.strip()
        value = value.strip()
        if not key:
            raise ParseError("missing key before '='", lineno, col=col)
        if key not in _KNOWN_KEYS:
            raise ParseError(f"unknown key {key!r}", lineno, col=1)
        if key in seen:
            raise ParseError(
                f"duplicate key {key!r} (first set on line {seen[key]})", lineno, col=1
            )
        if not value:
            raise ParseError(f"missing value for {key!r}", lineno, col=col + 1)
        seen[key] = lineno
        values[key] = value
    return {key: _PARSERS[key](value, key, seen[key]) for key, value in values.items()}, seen


def parse_config(text: str) -> ExperimentConfig:
    """Parse and validate a configuration; raises ParseError / RangeError."""
    values, lines = _read_config(text)
    if "experiment" not in values:
        raise RangeError("config must set 'experiment'")
    cfg = ExperimentConfig(**values)
    validate(cfg, lines)
    return cfg
