#!/usr/bin/env python3
"""Rewrite reference.json from one untraced seed-0 run of every workload.

    python3 perfbench/make_reference.py

Run from the root of a checkout.  Only regenerate the reference for a
change that is meant to alter the outputs, and say so where the change is
recorded; a kernel rewrite that keeps the numbers passes against the old one.
"""

import json
import shutil
import sys

import run
import workloads


def main() -> int:
    run.WORK.mkdir(exist_ok=True)
    reference = {}
    for name in workloads.WORKLOADS:
        work = run.WORK / f"reference-{name}"
        work.mkdir()
        try:
            result = run.Runner(name, run.REFERENCE_SEED, work, None).experiment("run")
        finally:
            shutil.rmtree(work, ignore_errors=True)
        if result["problems"]:
            print(f"{name}: {result['problems']}", file=sys.stderr)
            return 1
        reference[name] = result["reference"]
    (run.HERE / "reference.json").write_text(json.dumps(reference, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
