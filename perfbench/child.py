"""One benchmark sample, run in a fresh interpreter by run.py.

    python3 child.py setup <config>
        import torusflow and parse the config, then exit (timed from outside)
    python3 child.py run <workload> <config> <out>
        one CLI experiment, with no tracer, between two calibration kernels
        (calibration.py); prints a JSON result line
    python3 child.py trace <workload> <config> <out> <spans.json.gz>
        the same experiment under the span tracer; adds per-layer metrics

torusflow is imported from the PYTHONPATH run.py sets (the checkout's
``src``); a child that finds it anywhere else refuses to run.
"""

import os
import sys

EXIT_WRONG_SOURCE = 4


def _require_checkout_source(torusflow) -> None:
    expected = os.path.join(os.environ["PERFBENCH_SRC"], "torusflow", "__init__.py")
    if os.path.realpath(torusflow.__file__) != os.path.realpath(expected):
        print(f"torusflow imported from {torusflow.__file__}, not {expected}", file=sys.stderr)
        sys.exit(EXIT_WRONG_SOURCE)


def setup(config: str) -> None:
    import torusflow
    from torusflow.config import parse_config

    _require_checkout_source(torusflow)
    with open(config, encoding="utf-8") as fh:
        parse_config(fh.read())


def experiment(mode: str, workload: str, config: str, out: str, spans_path: str = "") -> None:
    import gzip
    import json
    import resource
    import time
    import traceback
    from pathlib import Path

    import torusflow
    import workloads
    from calibration import calibrate
    from torusflow.cli import main

    _require_checkout_source(torusflow)
    argv = [workloads.WORKLOADS[workload]["experiment"], "--config", config]
    cal_before = calibrate()
    tracer = None
    if mode == "trace":
        from tracer import Tracer

        tracer = Tracer().install()
    start = time.perf_counter()
    try:
        code = main(argv)
    except Exception:  # a traceback is a failed repeat, reported as such
        traceback.print_exc()
        code = None
    wall_s = time.perf_counter() - start
    if tracer is not None:
        tracer.uninstall()
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    cal_s = 0.5 * (cal_before + calibrate())

    result = {"exit_code": code, "wall_s": wall_s, "cal_s": cal_s, "peak_rss_mib": peak_rss_mib,
              "tracer_loaded": "tracer" in sys.modules}
    problems = [] if code == 0 else [f"exit code {code}"]
    if code is not None:
        try:
            problems += workloads.check_outputs(workload, Path(out))
            result["reference"] = workloads.reference_values(workload, Path(out))
        except (OSError, ValueError, KeyError, IndexError) as exc:
            problems.append(f"unreadable output: {exc!r}")
    if tracer is not None:
        layers = tracer.summarize(wall_s)
        if workloads.WORKLOADS[workload]["experiment"] == "verify" and code is not None:
            summary = json.loads((Path(out) / "verify_summary.json").read_text())
            layers["experiments.checks"] = len(summary["checks"])
        else:
            layers["experiments.checks"] = 0
        result["layers"] = layers
        with gzip.open(spans_path, "wt", encoding="utf-8") as fh:
            json.dump(tracer.dump(), fh)
    result["problems"] = problems
    print(json.dumps(result))


if __name__ == "__main__":
    if sys.argv[1] == "setup":
        setup(sys.argv[2])
    else:
        experiment(*sys.argv[1:])
