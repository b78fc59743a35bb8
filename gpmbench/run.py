"""Benchmark of gpmkit on workloads taken from the GloptiPoly 3 paper.

Run from the root of a checkout:

    python3 gpmbench/run.py --workload paper-hierarchy --seed 1 --seconds 40 --trace 0

Each run is one process and a closed loop: it sets up once, then runs
passes over the workload's instances, one instance at a time, for as
long as the next pass can end within ``--seconds`` (at least one pass),
and checks every outcome against expected.json outside the timed
passes.  ``--trace 1`` spends half the time untraced and half with the
layer tracer on, and reports the per-layer metrics.  The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics.
README.md in this directory describes the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import asdict, dataclass

from tracer import Tracer, pass_metrics
from workloads import (
    WORKLOADS,
    Instance,
    certified_as_paper,
    check,
    load_expected,
    run_instance,
)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".gpmbench")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# set-up is timed in this process and in fresh ones; setup_s is the median
SETUP_SAMPLES = 3
END_TO_END_UNITS = {"setup_s": "s", "pass_s": "s", "peak_rss_mb": "MB", "matched_frac": "ratio"}


def setup():
    """Import gpmkit and solve rational order 1 once; return the seconds.

    Whatever the first solve in a process sets up lazily is paid here
    and not in the first timed pass.
    """
    start = time.perf_counter()
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import gpmkit  # noqa: F401

    run_instance(Instance("rational", 1), ROOT, None, seed=0)
    return time.perf_counter() - start


def environment():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    env = {var: os.environ.get(var) for var in THREAD_VARS}
    env.update(
        nproc=os.cpu_count(),
        affinity=len(os.sched_getaffinity(0)),
        python=platform.python_version(),
        numpy=numpy.__version__,
        scipy=scipy.__version__,
        blas=f"{blas.get('name')} {blas.get('version')}",
    )
    return env


def per_layer_names():
    """Every per-layer metric, whichever workload runs."""
    names = list(pass_metrics([], 0, 0.0))  # the fixed names, all zero
    names += ["certify.certified", "trace.pass_s", "trace.overhead_s"]
    for workload in WORKLOADS.values():
        for inst in workload:
            entry = "certify.solve_gpm" if inst.fmt is None else "cli.cmd_export"
            names.append(f"{entry}_s.{inst.key}")
    return names


def unit_of(name):
    if name.endswith(("_s", "_s_per_iter")) or "_s." in name:
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("bytes_written"):
        return "bytes"
    return "count"


@dataclass
class PassResult:
    wall: float
    order: list
    outcomes: list
    times: dict
    certified: int


class Runner:
    """Runs timed passes over one workload and checks their outcomes."""

    def __init__(self, instances, seed, outdir):
        self.instances = instances
        self.seed = seed
        self.outdir = outdir
        self.rng = random.Random(seed)
        self.expected = load_expected()
        self.passes = 0
        self.attempted = 0
        self.failed = 0
        self.matched = 0

    def run_pass(self, number, tracer=None):
        """One timed pass over the instances, checked after the clock stops.

        The seed shuffles the instance order, and pass number p hands
        solve_gpm the seed seed + p for its atom extraction, so the
        passes of one run sample several extraction draws, and traced
        and untraced passes of one number do the same work.
        """
        order = list(self.instances)
        self.rng.shuffle(order)
        solve_seed = self.seed + number
        outcomes = []
        times = {}
        start = time.perf_counter()
        for inst in order:
            if tracer is not None:
                tracer.instance = f"{self.passes}/{inst.key}"
            began = time.perf_counter()
            try:
                outcomes.append(run_instance(inst, ROOT, self.outdir, solve_seed))
            except Exception as exc:  # a failing instance counts; the pass goes on
                traceback.print_exc()
                outcomes.append({"error": repr(exc)})
            times[inst.key] = time.perf_counter() - began
        wall = time.perf_counter() - start
        certified = matched = failed = 0
        for inst, outcome in zip(order, outcomes):
            exp = self.expected[inst.key]
            problems = check(inst, outcome, self.expected)
            paper = certified_as_paper(exp, outcome)
            if problems:
                print(f"FAIL {inst.key}: {'; '.join(problems)}", file=sys.stderr)
            elif "atoms" in exp and not paper:
                print(f"NOTE {inst.key}: status {outcome['status']}, atoms "
                      f"{outcome['atoms']}; the paper certifies {exp['atoms']}",
                      file=sys.stderr)
            certified += paper
            matched += not problems and ("atoms" not in exp or paper)
            failed += bool(problems)
        self.attempted += len(order)
        self.failed += failed
        self.matched += matched
        print(f"pass {self.passes}: {wall:.3f} s, certified {certified}, "
              + " ".join(f"{key}={t:.3f}" for key, t in times.items()))
        self.passes += 1
        return PassResult(wall, order, outcomes, times, certified)


def pass_seconds(results):
    """Pass time from per-instance medians over the passes of one phase.

    A slow spell of the machine or an unlucky extraction seed in one
    instance of one pass does not move the other instances' medians.
    """
    keys = results[0].times
    return sum(statistics.median(r.times[key] for r in results) for key in keys)


def more_passes(start, results, seconds):
    """Whether another pass as long as the last still ends within seconds."""
    return not results or time.perf_counter() - start + results[-1].wall <= seconds


def run_plain(runner, seconds):
    results = []
    start = time.perf_counter()
    while more_passes(start, results, seconds):
        results.append(runner.run_pass(len(results)))
    return results


def run_traced(runner, seconds):
    """Traced passes for the given time: pass results, per-pass metrics, spans."""
    results, per_pass = [], []
    with Tracer() as tracer:
        start = time.perf_counter()
        while more_passes(start, results, seconds):
            offset = len(tracer.spans)
            result = runner.run_pass(len(results), tracer)
            metrics = pass_metrics(tracer.spans, offset, result.wall)
            metrics["certify.certified"] = result.certified
            results.append(result)
            per_pass.append(metrics)
    return results, per_pass, tracer.spans


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "gpmkit", "__init__.py")):
        print(f"error: no gpmkit sources in {ROOT}/src", file=sys.stderr)
        return 2
    # BLAS threads are pinned before numpy is first imported
    for var in THREAD_VARS:
        os.environ[var] = "1"
    setups = [setup()]
    for _ in range(SETUP_SAMPLES - 1):
        probe = subprocess.run(
            [sys.executable, "-c", "import run; print(run.setup())"],
            cwd=HERE, capture_output=True, text=True, timeout=120, check=True,
        )
        setups.append(float(probe.stdout.split()[-1]))
    env = environment()
    print(f"gpmbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print("env " + json.dumps(env))

    os.makedirs(OUT_DIR, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as outdir:
        runner = Runner(WORKLOADS[args.workload], args.seed, outdir)
        if args.trace:
            plain = run_plain(runner, args.seconds / 2)
            traced, per_pass, spans = run_traced(runner, args.seconds / 2)
        else:
            plain = run_plain(runner, args.seconds)

    if args.trace:
        values = {
            name: statistics.median(m.get(name, 0.0) for m in per_pass)
            for name in per_layer_names()
        }
        values["trace.pass_s"] = pass_seconds(traced)
        values["trace.overhead_s"] = values["trace.pass_s"] - pass_seconds(plain)
        spans_path = os.path.join(OUT_DIR, f"spans-{args.workload}-{args.seed}.json")
        with open(spans_path, "w", encoding="utf-8") as handle:
            json.dump({"env": env, "workload": args.workload, "seed": args.seed,
                       "spans": [asdict(s) for s in spans]}, handle)
            handle.write("\n")
        print(f"spans written to {os.path.relpath(spans_path, ROOT)}")
    else:
        values = {
            "setup_s": statistics.median(setups),
            "pass_s": pass_seconds(plain),
            # ru_maxrss is in KiB on Linux
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
            "matched_frac": runner.matched / runner.attempted,
        }
        # zero on some workloads, so reported here but not as metrics
        print(f"failed_frac = {runner.failed / runner.attempted:.6g} ratio")
        print(f"certified = {statistics.median(r.certified for r in plain):g} count")
    units = END_TO_END_UNITS if not args.trace else {n: unit_of(n) for n in values}
    for name, value in values.items():
        print(f"{name} = {value:.6g} {units[name]}")
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in values.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
