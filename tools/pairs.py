"""Compare two checkouts on one benchmark workload in alternating pairs.

    python3 tools/pairs.py CHANGE PARENT --workload W --pairs N [--seconds S] [--seed K]

Runs ``perfbench/run.py --trace 0`` in the checkout CHANGE and in the
checkout PARENT, N times each, alternating which side runs first (pair i
starts with CHANGE when i is even).  Each run's last line is its JSON
result; the end-to-end metrics, their direction and their regression bounds
come from CHANGE's ``BENCHMARK.json``.  Prints one ``#`` line per run and,
for each metric, each side's median and quartiles, how many pairs the
change won and lost (ties count for neither), and a verdict:

- ``gain``: the change won at least nine tenths of the pairs, and the
  medians differ, in the change's favour, by more than the distance between
  the parent's quartiles;
- ``regression``: the change's median is worse than the parent's by more
  than the metric's bound, as a share of the parent's median;
- ``unresolved``: neither, and the parent's quartile distance is wider than
  the bound (as a share of its median), unless every run of the change reads
  better than every run of the parent;
- ``within bound`` otherwise.

A run that fails or prints no result ends the comparison with exit code 1.
Each checkout's ``perfbench/run.py`` keeps its own scratch files; this
script writes nothing.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(checkout: Path, workload: str, seconds: float, seed: int) -> dict[str, float]:
    """The end-to-end metric values of one ``perfbench/run.py`` run in `checkout`."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{checkout}: run.py exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    result = json.loads(lines[-1])
    return {name: m["value"] for name, m in result["metrics"].items()}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def verdict(change: list[float], parent: list[float], lower_is_better: bool, bound: float) -> dict:
    """Section 8 of the choosing-metrics method applied to one metric's pairs."""
    sign = -1.0 if lower_is_better else 1.0  # sign * (change - parent) > 0 means better
    wins = sum(sign * (c - p) > 0 for c, p in zip(change, parent))
    losses = sum(sign * (c - p) < 0 for c, p in zip(change, parent))
    c1, cmed, c3 = quartiles(change)
    p1, pmed, p3 = quartiles(parent)
    gain = sign * (cmed - pmed)
    worse = -gain / abs(pmed) if pmed else (0.0 if gain >= 0 else float("inf"))
    spread = (p3 - p1) / abs(pmed) if pmed else 0.0
    all_better = all(sign * (c - p) > 0 for c in change for p in parent)
    if wins >= 0.9 * len(change) and gain > p3 - p1:
        word = "gain"
    elif worse > bound:
        word = "regression"
    elif spread > bound and not all_better:
        word = "unresolved"
    else:
        word = "within bound"
    return {"change": (c1, cmed, c3), "parent": (p1, pmed, p3), "wins": wins, "losses": losses,
            "ties": len(change) - wins - losses, "relative_change": (cmed - pmed) / pmed if pmed else 0.0,
            "parent_spread": spread, "verdict": word}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("change", type=Path)
    parser.add_argument("parent", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=None,
                        help="run length of each run (default: BENCHMARK.json's run_seconds)")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    declared = json.loads((args.change / "BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None else declared["run_seconds"]
    metrics = declared["end_to_end"]

    runs: dict[str, list[dict[str, float]]] = {"change": [], "parent": []}
    sides = {"change": args.change, "parent": args.parent}
    for i in range(args.pairs):
        for side in ("change", "parent") if i % 2 == 0 else ("parent", "change"):
            try:
                values = run_once(sides[side], args.workload, seconds, args.seed)
            except RuntimeError as exc:
                print(f"error: pair {i}, {side}: {exc}", file=sys.stderr)
                return 1
            runs[side].append(values)
            shown = " ".join(f"{m['name']}={values[m['name']]:.4g}" for m in metrics)
            print(f"# pair {i} {side:6s} {shown}", flush=True)

    print(f"{args.workload}: {args.pairs} pairs, {seconds:g} s per run, seed {args.seed}")
    for m in metrics:
        name = m["name"]
        v = verdict([r[name] for r in runs["change"]], [r[name] for r in runs["parent"]],
                    m["better"] == "lower", m["bound"])
        (c1, cm, c3), (p1, pm, p3) = v["change"], v["parent"]
        print(f"{name:13s} parent {pm:.4g} [{p1:.4g}, {p3:.4g}]  change {cm:.4g} [{c1:.4g}, {c3:.4g}]"
              f"  {v['relative_change']:+.1%}  wins {v['wins']}/{args.pairs}"
              f" (losses {v['losses']}, ties {v['ties']})  parent spread {v['parent_spread']:.3f}"
              f" bound {m['bound']:g}  {v['verdict']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
