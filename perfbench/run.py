#!/usr/bin/env python3
"""Outside-in benchmark of the torusflow CLI.

    python3 perfbench/run.py --workload run-n64 --seed 0 --seconds 25 --trace 0

Run from the root of a checkout that holds ``src/torusflow``.  Load model:
closed loop, one client, one experiment at a time.  Every sample is a
fresh interpreter (see child.py) driven by a generated config file, with
``SYNERGY_THREADS``, ``OMP_NUM_THREADS`` and ``OPENBLAS_NUM_THREADS``
pinned to 1.

--trace 0 measures the end-to-end metrics: the median wall time of the
``cli.main`` call, the median set-up time of a fresh interpreter (import
torusflow, parse the config), the experiment process's peak RSS and the
share of repeats that passed.  The two times are rescaled to a reference
host speed (calibration.py); the measured times are printed beside them.
--trace 1 runs untraced/traced pairs and reports the per-layer metrics of
the span tracer (tracer.py).

Every repeat's outputs are checked (workloads.check_outputs); with seed 0
they are also compared with reference.json.  Human-readable lines start
with ``#``; the last line is the JSON result.  Scratch files go under
``.perfbench/`` in the checkout and are removed at exit, except the last
traced run's spans.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from calibration import CAL_REF_S

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
PINNED_ENV = {"SYNERGY_THREADS": "1", "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1"}
REFERENCE_SEED = 0

SETUP_SAMPLES = 15
MIN_REPEATS = 3
MIN_TRACED_PAIRS = 1
RUN_LIMIT_S = 170.0  # a run must end within 180 s


class Runner:
    """Spawns child samples for one benchmark run and keeps its clock."""

    def __init__(self, workload: str, seed: int, work: Path, reference: dict | None):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.reference = reference
        self.started = time.perf_counter()
        self.samples = 0
        self.env = {
            **os.environ, **PINNED_ENV,
            "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])),
            "PERFBENCH_SRC": str(SRC),
            "TMPDIR": str(work),
        }

    def elapsed(self) -> float:
        return time.perf_counter() - self.started

    def _spawn(self, args: list[str]) -> subprocess.CompletedProcess:
        timeout = max(1.0, RUN_LIMIT_S - self.elapsed())
        return subprocess.run([sys.executable, str(HERE / "child.py"), *args],
                              env=self.env, capture_output=True, text=True, timeout=timeout)

    def _config(self, out: Path) -> Path:
        path = self.work / f"sample-{self.samples}.cfg"
        path.write_text(workloads.config_text(self.workload, self.seed, out), encoding="utf-8")
        return path

    def setup_sample(self) -> float:
        """Wall time of a fresh interpreter that imports torusflow and parses the config."""
        self.samples += 1
        config = self._config(self.work / "unused")
        start = time.perf_counter()
        proc = self._spawn(["setup", str(config)])
        setup_s = time.perf_counter() - start
        if proc.returncode != 0:
            raise SystemExit(f"set-up sample failed ({proc.returncode}): {proc.stderr.strip()}")
        return setup_s

    def experiment(self, mode: str) -> dict:
        """One CLI experiment in a fresh interpreter; its result with a 'problems' list."""
        self.samples += 1
        out = self.work / f"out-{self.samples}"
        config = self._config(out)
        args = [mode, self.workload, str(config), str(out)]
        if mode == "trace":
            args.append(str(WORK / f"spans-{self.workload}.json.gz"))
        try:
            proc = self._spawn(args)
        except subprocess.TimeoutExpired:
            return {"problems": [f"{mode} sample timed out"]}
        shutil.rmtree(out, ignore_errors=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            return {"problems": [f"{mode} sample exited {proc.returncode}: "
                                 f"{proc.stderr.strip()[-2000:]}"]}
        result = json.loads(lines[-1])
        if mode == "run" and result["tracer_loaded"]:
            result["problems"].append("the untraced sample imported the tracer")
        if self.reference is not None and "reference" in result:
            result["problems"] += workloads.compare_reference(result["reference"], self.reference)
        for problem in result["problems"]:
            print(f"# FAIL {self.workload} seed {self.seed} ({mode}): {problem}")
        return result

    def has_time_for(self, durations: list[float], seconds: float) -> bool:
        return self.elapsed() + max(durations) <= seconds


def provenance(seed: int, samples: dict) -> dict:
    """Machine, software and run facts recorded with every result (read-only probes)."""
    import numpy

    cpu_model = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.partition(":")[2].strip()
                break
    except OSError:
        pass
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = ((index / f).read_text().strip() for f in ("level", "type", "size"))
        except OSError:
            continue
        caches[f"L{level}{'' if kind == 'Unified' else kind[0].lower()}"] = size
    digest = hashlib.sha256()
    for path in sorted((SRC / "torusflow").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "cores": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": _git_commit(),
        "src_sha256": digest.hexdigest(),
        "thread_env": PINNED_ENV,
        "seed": seed,
        "samples": samples,
    }


def _git_commit() -> str | None:
    """HEAD of the checkout when it is a git work tree, read without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def measure_end_to_end(runner: Runner, seconds: float) -> tuple[dict, list[dict], dict]:
    runner.setup_sample()  # fills the bytecode cache; users do not pay that per call
    setup = [runner.setup_sample() for _ in range(SETUP_SAMPLES)]
    repeats: list[dict] = []
    durations: list[float] = []
    while len(repeats) < MIN_REPEATS or runner.has_time_for(durations, seconds):
        start = time.perf_counter()
        repeats.append(runner.experiment("run"))
        durations.append(time.perf_counter() - start)
    timed = [r for r in repeats if "wall_s" in r]
    walls = [r["wall_s"] for r in timed]
    cals = [r["cal_s"] for r in timed]
    failed = sum(bool(r["problems"]) for r in repeats)
    # set-up samples are rescaled by the run's median calibration
    cal_s = statistics.median(cals) if cals else CAL_REF_S
    metrics = {
        "wall_s": statistics.median(w * CAL_REF_S / c for w, c in zip(walls, cals)) if timed else 0.0,
        "setup_s": statistics.median(setup) * CAL_REF_S / cal_s,
        "peak_rss_mib": statistics.median(r["peak_rss_mib"] for r in timed) if timed else 0.0,
        "pass_frac": 1.0 - failed / len(repeats),
    }
    print(f"# wall_s       {metrics['wall_s']:.4f} s   at reference speed, median of {len(walls)}; "
          f"measured median {statistics.median(walls) if walls else 0.0:.4f} s, "
          f"max {max(walls, default=0.0):.4f} s, calibration median {cal_s:.4f} s")
    print(f"# setup_s      {metrics['setup_s']:.4f} s   at reference speed, median of {len(setup)}; "
          f"measured median {statistics.median(setup):.4f} s, max {max(setup):.4f} s")
    print(f"# peak_rss_mib {metrics['peak_rss_mib']:.1f} MiB")
    print(f"# fail_frac    {failed / len(repeats):g} ratio   {failed} of {len(repeats)} repeats")
    print(f"# pass_frac    {metrics['pass_frac']:g} ratio   (1 - fail_frac)")
    samples = {"setup": len(setup), "experiment": len(repeats)}
    return metrics, repeats, samples


def measure_layers(runner: Runner, seconds: float) -> tuple[dict, list[dict], dict]:
    untraced: list[dict] = []
    traced: list[dict] = []
    durations: list[float] = []
    while len(traced) < MIN_TRACED_PAIRS or runner.has_time_for(durations, seconds):
        start = time.perf_counter()
        untraced.append(runner.experiment("run"))
        traced.append(runner.experiment("trace"))
        durations.append(time.perf_counter() - start)
    layers = [r["layers"] for r in traced if "layers" in r]
    metrics: dict[str, float] = {}
    if layers:
        for name in layers[0]:
            values = [lay[name] for lay in layers]
            if isinstance(values[0], int):
                if len(set(values)) != 1:
                    traced[-1]["problems"].append(f"count {name} differs between traced runs: {values}")
                metrics[name] = values[0]
            else:
                metrics[name] = statistics.median(values)
        walls = [r["wall_s"] for r in untraced if "wall_s" in r]
        if walls:
            metrics["trace.overhead_ratio"] = metrics["trace.wall_s"] / statistics.median(walls)
    for name, value in metrics.items():
        print(f"# {name:30s} {value:.6g}")
    repeats = untraced + traced
    samples = {"untraced": len(untraced), "traced": len(traced)}
    return metrics, repeats, samples


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "torusflow" / "__init__.py").is_file():
        print(f"no torusflow sources under {SRC}: run from a torusflow checkout", file=sys.stderr)
        return 2

    WORK.mkdir(exist_ok=True)
    work = WORK / f"run-{os.getpid()}"
    work.mkdir()
    try:
        reference = None
        if args.seed == REFERENCE_SEED:
            reference = json.loads((HERE / "reference.json").read_text())[args.workload]
        runner = Runner(args.workload, args.seed, work, reference)
        measure = measure_layers if args.trace else measure_end_to_end
        metrics, repeats, samples = measure(runner, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = sum(bool(r["problems"]) for r in repeats)
    info = provenance(args.seed, samples)
    print(f"# provenance {json.dumps(info, sort_keys=True)}")
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    result = {
        "correct": failed == 0,
        "attempted": len(repeats),
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in declared["per_layer" if args.trace else "end_to_end"]},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
