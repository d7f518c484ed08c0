"""Line-oriented `key = value` experiment configuration.

Comments start with `#`.  Unknown keys are rejected with their line number;
duplicate keys report both lines.  Values are validated against documented
ranges at parse time.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ParseError, RangeError
from .operators import MOLLIFIER_KINDS
from .solvers import SCHEMES

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
    forcing: str = "none"
    seed: int = 0
    init: str = "taylor-green"
    s_list: tuple[float, ...] = (1.0, 2.0, 3.0)
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


_KNOWN_KEYS = {
    "experiment", "n", "nu", "dt", "t_end", "scheme", "galerkin_modes", "forcing",
    "seed", "init", "s_list", "eps_list", "r1", "r2", "mollifier", "out", "cadence",
}


def parse_config(text: str) -> ExperimentConfig:
    """Parse and range-check a configuration; raises ParseError / RangeError."""
    seen: dict[str, int] = {}
    values: dict[str, tuple[str, int]] = {}
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
        values[key] = (value, lineno)

    if "experiment" not in values:
        raise RangeError("config must set 'experiment'")

    cfg = ExperimentConfig(experiment="run")
    for key, (value, line) in values.items():
        if key == "experiment":
            if value not in EXPERIMENTS:
                raise RangeError(f"experiment must be one of {EXPERIMENTS}", line)
            cfg.experiment = value
        elif key == "n":
            n = _parse_int(value, key, line)
            if n < 4 or n % 2 != 0:
                raise RangeError("n must be even >= 4", line)
            cfg.n = n
        elif key == "nu":
            nu = _parse_float(value, key, line)
            if nu < 0.0:
                raise RangeError("nu must be nonnegative", line)
            cfg.nu = nu
        elif key == "dt":
            dt = _parse_float(value, key, line)
            if dt <= 0.0:
                raise RangeError("dt must be positive", line)
            cfg.dt = dt
        elif key == "t_end":
            t_end = _parse_float(value, key, line)
            if t_end < 0.0:
                raise RangeError("t_end must be nonnegative", line)
            cfg.t_end = t_end
        elif key == "scheme":
            if value not in SCHEMES:
                raise RangeError(f"scheme must be one of {SCHEMES}", line)
            cfg.scheme = value
        elif key == "galerkin_modes":
            if value == "full":
                cfg.galerkin_modes = None
            else:
                lam = _parse_float(value, key, line)
                if lam < 1.0:
                    raise RangeError("galerkin_modes must be >= 1 (or 'full')", line)
                cfg.galerkin_modes = lam
        elif key == "forcing":
            if value != "none":
                raise RangeError("only forcing=none is configurable", line)
            cfg.forcing = value
        elif key == "seed":
            cfg.seed = _parse_int(value, key, line)
        elif key == "init":
            if value not in INIT_KINDS:
                raise RangeError(f"init must be one of {INIT_KINDS}", line)
            cfg.init = value
        elif key == "s_list":
            s_list = _parse_float_list(value, key, line)
            if any(s < 0 or s > 6 for s in s_list):
                raise RangeError("s_list entries must lie in [0, 6]", line)
            cfg.s_list = s_list
        elif key == "eps_list":
            eps = _parse_float_list(value, key, line)
            if any(e <= 0 for e in eps):
                raise RangeError("eps_list entries must be positive", line)
            if any(b >= a for a, b in zip(eps, eps[1:])):
                raise RangeError("eps_list must be strictly decreasing", line)
            cfg.eps_list = eps
        elif key == "r1":
            r1 = _parse_float(value, key, line)
            if r1 <= 0:
                raise RangeError("r1 must be positive", line)
            cfg.r1 = r1
        elif key == "r2":
            cfg.r2 = _parse_float(value, key, line)
        elif key == "mollifier":
            if value not in MOLLIFIER_KINDS:
                raise RangeError(f"mollifier must be one of {MOLLIFIER_KINDS}", line)
            cfg.mollifier = value
        elif key == "out":
            cfg.out = value
        elif key == "cadence":
            cadence = _parse_int(value, key, line)
            if cadence < 1:
                raise RangeError("cadence must be >= 1", line)
            cfg.cadence = cadence

    r1, r2 = cfg.weight_edges()
    if r2 <= r1:
        line = values.get("r2", values.get("r1", ("", 0)))[1]
        raise RangeError("need r2 > r1", line)
    return cfg
