"""Write the fixed artifact set of torusflow and compare it with another copy.

    python3 tools/artifacts.py OUT [--src SRC] [--against DIR]

Runs every case below through the CLI, in this process, with torusflow
imported from SRC (default: this checkout's ``src``), writing each case's
artifacts under OUT/<case>.  Prints one ``sha256  path`` line per file and
a summary line.  Every SNS1 snapshot written is read back with
``read_snapshot`` and re-encoded with ``snapshot_bytes``, and must give its
own bytes.  With ``--against DIR`` (an OUT written earlier, for example by
another checkout via ``--src``) it also compares the two trees byte by byte,
names the first differing file, and says how large each difference is: for
an SNS1 snapshot, whether it is confined to the sign bits of zero
coefficients, else its largest coefficient change relative to the largest
|coefficient|; for a CSV file, the largest relative and absolute change in
each column (a cell that is not a number on both sides is a text change);
for a JSON file, the relative and absolute change of each differing numeric
leaf, by key path (a leaf that is not a number on both sides, or present on
one side only, is a text change).
A case that raises is reported as ``# <case>: raised <Type>: <message>``
with its traceback on stderr, and the remaining cases still run.
Exit code 0 when every case runs, every snapshot reads back and nothing
differs, 1 otherwise.

The cases are the four benchmark workload configs (perfbench/workloads.py)
at seeds 0 and 1, ``convergence`` with both mollifiers, ``blocks`` with
Taylor-Green and random data, ``unify`` and ``verify`` at n=12 with the
bump mollifier (a grid divisible by 3), the same ``unify`` with a weak
cutoff (``galerkin_modes = 2``, so three schemes are stepped), an n=8
shear mild run, n=8 weak-galerkin runs with a cutoff, Taylor-Green runs at
n=18 (divisible by 3, so stepped on the half spectrum) and, with a cutoff,
at n=20 (stepped on the 2/3 box), an n=16 Taylor-Green mild run at cadence
1 (on the box, recording every state), an n=16 random run at cadence 3 (five
snapshots; the stream hands over the advection terms
of the first four, and the records pass computes the last one itself),
n=16 CFL aborts of ``run`` and of ``unify`` (``abort.txt`` and
``partial/``), and an n=8 Taylor-Green run with ``nu = 1e308``, whose
diagnostics overflow (snapshots and manifest, no ``diagnostics.csv``).
pocketfft bytes may differ across numpy builds, so compare trees written
on one machine and do not commit digests.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import hashlib
import io
import itertools
import json
import math
import struct
import sys
import tempfile
import traceback
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
SNS1_HEADER = struct.calcsize("<4sIddB")

EXTRA_CASES = {
    "convergence-gaussian": {"experiment": "convergence", "n": 16, "mollifier": "gaussian"},
    "convergence-bump": {"experiment": "convergence", "n": 16, "mollifier": "bump"},
    "blocks-taylor-green": {"experiment": "blocks", "n": 16, "init": "taylor-green"},
    "blocks-random": {"experiment": "blocks", "n": 16, "init": "random", "seed": 3},
    "unify-n12-bump": {"experiment": "unify", "n": 12, "init": "random", "seed": 2,
                       "mollifier": "bump", "dt": 1e-3, "t_end": 0.005, "cadence": 1},
    # a weak cutoff: three streams; k^2 <= 2 cuts modes that the weak band weighs
    "unify-n12-galerkin": {"experiment": "unify", "n": 12, "init": "random", "seed": 2,
                           "mollifier": "bump", "galerkin_modes": 2.0, "dt": 1e-3,
                           "t_end": 0.005, "cadence": 1},
    "verify-n12-bump": {"experiment": "verify", "n": 12, "mollifier": "bump"},
    "run-n8-shear-mild": {"experiment": "run", "n": 8, "init": "shear", "nu": 0.1,
                          "scheme": "mild-duhamel", "dt": 1e-3, "t_end": 0.02, "cadence": 5},
    "run-n8-galerkin-taylor-green": {"experiment": "run", "n": 8, "init": "taylor-green",
                                     "scheme": "weak-galerkin", "galerkin_modes": 4.0,
                                     "nu": 0.1, "dt": 1e-3, "t_end": 0.01},
    "run-n8-galerkin-random": {"experiment": "run", "n": 8, "init": "random",
                               "scheme": "weak-galerkin", "galerkin_modes": 4.0,
                               "nu": 0.1, "dt": 1e-3, "t_end": 0.01},
    # divisible by 3, above PRUNE_MIN_N: a band-limited run that steps on the half spectrum
    "run-n18-taylor-green": {"experiment": "run", "n": 18, "init": "taylor-green",
                             "nu": 0.05, "dt": 1e-3, "t_end": 0.01, "cadence": 3},
    # a band-limited run with a cutoff that steps on the 2/3 box
    "run-n20-galerkin-taylor-green": {"experiment": "run", "n": 20, "init": "taylor-green",
                                      "scheme": "weak-galerkin", "galerkin_modes": 6.0,
                                      "nu": 0.05, "dt": 1e-3, "t_end": 0.01, "cadence": 3},
    # on the 2/3 box at cadence 1: the stream drops its arena at every state and makes it again
    "run-n16-taylor-green-mild": {"experiment": "run", "n": 16, "init": "taylor-green",
                                  "scheme": "mild-duhamel", "nu": 0.05, "dt": 1e-3,
                                  "t_end": 0.01, "cadence": 1},
    # steps 0, 3, 6, 9 and 10 recorded: the pass computes only step 10's advection term
    "run-n16-random-cadence3": {"experiment": "run", "n": 16, "init": "random",
                                "dt": 1e-3, "t_end": 0.01, "cadence": 3},
    # dt = 0.04 exceeds the Taylor-Green CFL limit 0.5 / 16 at the first step
    "run-n16-cfl-abort": {"experiment": "run", "n": 16, "init": "taylor-green",
                          "dt": 0.04, "t_end": 0.4},
    # every scheme fails that gate: the weak run's abort, the first in SCHEMES order
    "unify-n16-cfl-abort": {"experiment": "unify", "n": 16, "init": "taylor-green",
                            "dt": 0.04, "t_end": 0.4},
    # nu |k|^2 u overflows in the strong residual: snapshots and manifest, no CSV
    "run-n8-viscosity-overflow": {"experiment": "run", "n": 8, "init": "taylor-green",
                                  "nu": 1e308, "dt": 1e-3, "t_end": 0.002},
}


def cases() -> dict[str, tuple[str, str]]:
    """(experiment, config text) of each case by name; the text's `out` is a {out} slot."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    found = {}
    for name, spec in workloads.WORKLOADS.items():
        for seed in (0, 1):
            found[f"{name}-seed{seed}"] = (spec["experiment"],
                                           workloads.config_text(name, seed, "{out}"))
    for name, config in EXTRA_CASES.items():
        text = "".join(f"{k} = {v}\n" for k, v in {**config, "out": "{out}"}.items())
        found[name] = (config["experiment"], text)
    return found


def write_artifacts(out: Path, src: Path) -> bool:
    """Run every case into out/<case>; False when any case raised."""
    sys.path.insert(0, str(src))
    from torusflow.cli import main

    clean = True
    with tempfile.TemporaryDirectory() as configs:
        for name, (experiment, text) in cases().items():
            path = Path(configs) / f"{name}.txt"
            path.write_text(text.replace("{out}", str(out / name)), encoding="utf-8")
            try:
                with contextlib.redirect_stdout(io.StringIO()), \
                        contextlib.redirect_stderr(io.StringIO()):
                    code = main([experiment, "--config", str(path)])
            except Exception as exc:  # keep the other cases and the summary
                print(f"# {name}: raised {type(exc).__name__}: {exc}", file=sys.stderr)
                traceback.print_exc(file=sys.stderr)
                clean = False
            else:
                print(f"# {name}: exit {code}", file=sys.stderr)
    return clean


def files(tree: Path) -> list[str]:
    return sorted(p.relative_to(tree).as_posix() for p in tree.rglob("*") if p.is_file())


def zero_sign_doubles(a: bytes, b: bytes) -> int | None:
    """How many SNS1 coefficient doubles differ, when every difference is a zero
    whose sign bit flipped; None when the files differ in any other way."""
    if len(a) != len(b) or a[:SNS1_HEADER] != b[:SNS1_HEADER]:
        return None
    x = np.frombuffer(a, dtype="<f8", offset=SNS1_HEADER)
    y = np.frombuffer(b, dtype="<f8", offset=SNS1_HEADER)
    differ = x.view("<u8") != y.view("<u8")
    if np.all(x[differ] == 0.0) and np.all(y[differ] == 0.0):
        return int(differ.sum())
    return None


def coefficient_change(a: bytes, b: bytes) -> float | None:
    """Largest |coefficient change| of two SNS1 files relative to their largest
    |coefficient|; None when their headers or sizes differ."""
    if len(a) != len(b) or a[:SNS1_HEADER] != b[:SNS1_HEADER]:
        return None
    x = np.frombuffer(a, dtype="<c16", offset=SNS1_HEADER)
    y = np.frombuffer(b, dtype="<c16", offset=SNS1_HEADER)
    scale = max(np.max(np.abs(x)), np.max(np.abs(y)))
    return float(np.max(np.abs(x - y)) / scale) if scale != 0.0 else 0.0


def number_change(x: float, y: float) -> tuple[float, float]:
    """(relative, absolute) change between two numbers; inf when not finite."""
    diff = abs(x - y) if math.isfinite(x - y) else math.inf
    return (diff / max(abs(x), abs(y)) if diff < math.inf else math.inf), diff


def csv_changes(a: bytes, b: bytes) -> list[str]:
    """One line per changed CSV column, named by the first file's header: its
    largest relative and absolute changes, and how many of its cells changed as
    text (not a number on both sides, or present on one side only)."""
    rows = [[line.split(",") for line in raw.decode("utf-8", "replace").splitlines()]
            for raw in (a, b)]
    header = rows[0][0] if rows[0] else []
    largest: dict[str, tuple[float, float]] = {}
    text: collections.Counter[str] = collections.Counter()
    for ra, rb in itertools.zip_longest(*rows, fillvalue=[]):
        for i, (x, y) in enumerate(itertools.zip_longest(ra, rb)):
            if x == y:
                continue
            name = header[i] if i < len(header) else f"column {i + 1}"
            try:
                fx, fy = float(x), float(y)
            except (TypeError, ValueError):
                text[name] += 1
                continue
            if fx != fy:
                sizes = number_change(fx, fy)
                largest[name] = tuple(map(max, largest.get(name, (0.0, 0.0)), sizes))
    lines = [f"{name}: largest relative change {rel:.3g}, largest absolute change {absolute:.3g}"
             for name, (rel, absolute) in largest.items()]
    return lines + [f"{name}: {count} cell(s) changed as text" for name, count in text.items()]


def json_leaves(node, path: str = "") -> dict:
    """Each leaf of a parsed JSON document by its key path, e.g. ``checks[3].value``."""
    if isinstance(node, dict):
        items = [(f"{path}.{k}" if path else str(k), v) for k, v in node.items()]
    elif isinstance(node, list):
        items = [(f"{path}[{i}]", v) for i, v in enumerate(node)]
    else:
        return {path: node}
    return {key: leaf for p, v in items for key, leaf in json_leaves(v, p).items()}


def json_changes(a: bytes, b: bytes) -> list[str]:
    """One line per differing JSON leaf, in document order: its relative and
    absolute change when it is a number on both sides, else a text change."""
    try:
        la, lb = (json_leaves(json.loads(raw)) for raw in (a, b))
    except ValueError:
        return ["not valid JSON on both sides"]
    lines = []
    missing = object()
    for key in [*la, *(k for k in lb if k not in la)]:
        x, y = la.get(key, missing), lb.get(key, missing)
        if all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (x, y)):
            if x != y:
                rel, absolute = number_change(x, y)
                lines.append(f"{key}: relative change {rel:.3g}, absolute change {absolute:.3g}")
        elif x != y or type(x) is not type(y):
            lines.append(f"{key}: changed as text")
    return lines


def change_sizes(rel: str, a: bytes, b: bytes) -> list[str]:
    """How large the difference between two versions of the file rel is, one line per finding."""
    if rel.endswith(".csv"):
        return csv_changes(a, b)
    if rel.endswith(".json"):
        return json_changes(a, b)
    if rel.endswith(".sns1"):
        change = coefficient_change(a, b)
        if change is None:
            return ["the headers or sizes differ"]
        return [f"largest coefficient change {change:.3g} of the largest |coefficient|"]
    return []


def reread(tree: Path) -> bool:
    """Read every SNS1 file under tree and re-encode it; True when each gives its bytes back."""
    from torusflow.snapshots import read_snapshot, snapshot_bytes

    names = [rel for rel in files(tree) if rel.endswith(".sns1")]
    bad = 0
    for rel in names:
        raw = (tree / rel).read_bytes()
        try:
            field, nu = read_snapshot(tree / rel)
        except ValueError as exc:
            problem = f"refused ({exc})"
        else:
            problem = None if snapshot_bytes(field, nu) == raw else "re-encodes to other bytes"
        if problem is not None:
            bad += 1
            print(f"re-read: {rel}: {problem}")
    print(f"re-read: {len(names) - bad} of {len(names)} SNS1 files give their bytes back")
    return bad == 0


def compare(tree: Path, other: Path) -> bool:
    ours, theirs = files(tree), files(other)
    missing = sorted(set(theirs) - set(ours))
    extra = sorted(set(ours) - set(theirs))
    identical, zero_signs, different = 0, 0, 0
    first = "none"
    for rel in sorted(set(ours) & set(theirs)):
        a, b = (tree / rel).read_bytes(), (other / rel).read_bytes()
        if a == b:
            identical += 1
            continue
        flipped = zero_sign_doubles(a, b) if rel.endswith(".sns1") else None
        if flipped is None:
            different += 1
            note = rel
        else:
            zero_signs += 1
            note = f"{rel} (only the sign bits of {flipped} zero coefficients)"
        print(f"differs: {note}")
        for line in change_sizes(rel, a, b) if flipped is None else []:
            print(f"  {line}")
        first = note if first == "none" else first
    for rel in missing:
        print(f"missing: {rel}")
    for rel in extra:
        print(f"extra: {rel}")
    print(f"against {other}: {identical} identical, {zero_signs} differ only in the sign bits "
          f"of zero SNS1 coefficients, {different} differ otherwise, {len(missing)} missing, "
          f"{len(extra)} extra; first differing file: {first}")
    return identical == len(ours) == len(theirs)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("out", type=Path, help="directory to write the artifacts under")
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="directory holding the torusflow package to run")
    parser.add_argument("--against", type=Path, help="an artifact tree to compare with")
    args = parser.parse_args(argv)
    out = args.out.resolve()
    if out.exists() and any(out.iterdir()):
        parser.error(f"{out} is not empty")
    clean = write_artifacts(out, args.src.resolve())
    manifest = "".join(
        f"{hashlib.sha256((out / rel).read_bytes()).hexdigest()}  {rel}\n" for rel in files(out)
    )
    print(manifest, end="")
    print(f"artifacts: {manifest.count(chr(10))} files in {len(cases())} cases, "
          f"manifest sha256 {hashlib.sha256(manifest.encode()).hexdigest()}")
    same = reread(out) and clean
    if args.against is not None:
        same = compare(out, args.against.resolve()) and same
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
