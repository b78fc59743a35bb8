"""Write one BENCH_<label>.json row per instance of solve_gpm.

Each instance (a model and an order, like ``camel-3``) is solved once by
``solve_gpm`` in a fresh child process with one BLAS thread, so every
row pays its own imports and first-solve set-up, as one ``gpm solve``
does.  A row holds the seconds of ``import gpmkit`` and of the
``solve_gpm`` call (extraction seed 0), the status and objective, one
entry per interior-point call, the child's peak RSS (in MB of 10^6
bytes, the unit of gpmbench's ``peak_rss_mb``) and whether
``scipy.optimize`` was loaded by the end of the solve.  An
interior-point entry, recorded by wrapping ``gpmkit.conic.solve``,
holds:

- its status, iterations and seconds, and m and the PSD block orders
  the solver saw;
- the stacks the solver formed from those blocks, each as [order,
  blocks, kind]: kind "csc" for a dense stack that adds its Schur share
  through its sparse columns, "dense" for one that does not, "sparse"
  for a sparse block (null where the solver has no ``_Cones.stacks``);
- the seconds spent forming the Schur complement
  (``_Cones.schur_complement``), factoring it
  (``_factor_with_regularization``), in the step search
  (``_inverse_factors``, the factors of X and Z, and ``_step_length``)
  and in the rest of the call;
- the rows and columns of A the forced-entry reduction dropped before
  it, recorded by ``forced_drops.recording_drops``.

The file also records the environment: Python, numpy and scipy
versions, BLAS, CPUs and the thread variables.  Run from the root of a
checkout:

    python tools/bench_rows.py --label mine
    python tools/bench_rows.py --label quick --instances rational-1 camel-3

Times are one run each: compare rows from the same machine only.
"""

import argparse
import importlib
import json
import os
import platform
import resource
import subprocess
import sys
import time

ROOT = os.path.abspath(os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir))
INSTANCES = [
    "camel-3",
    "rational-1",
    "quadratic3-1",
    "quadratic3-2",
    "quadratic3-3",
    "quadratic3-4",
    "quadratic3-5",
    "maxcut_sub-2",
    "maxcut_sub-3",
    "maxcut_nosub-2",
    "maxcut_nosub-3",
    "maxcut_sub-4",
    "maxcut_sub-5",
]
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def run_child(instance):
    """Solve one instance in this process; return its row."""
    model, order = instance.rsplit("-", 1)
    start = time.perf_counter()
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import gpmkit  # noqa: F401
    from gpmkit.dsl import parse_model

    import_s = time.perf_counter() - start
    from forced_drops import recording_drops
    # gpmkit/__init__.py rebinds the name `certify` to the function
    certify_module = importlib.import_module("gpmkit.certify")
    conic_module = importlib.import_module("gpmkit.conic")
    calls, solve = [], conic_module.solve
    split, cones = {}, []

    def timed(name, func):
        def wrapper(*args):
            begin = time.perf_counter()
            try:
                return func(*args)
            finally:
                split[name] += time.perf_counter() - begin
        return wrapper

    cones_class = conic_module._Cones
    cones_init = cones_class.__init__

    def recording_init(self, problem):
        cones_init(self, problem)
        cones.append(self)

    cones_class.__init__ = recording_init
    cones_class.schur_complement = timed("schur_s", cones_class.schur_complement)
    for name, func in (
        ("factor_s", "_factor_with_regularization"),
        ("step_s", "_inverse_factors"),
        ("step_s", "_step_length"),
    ):
        setattr(conic_module, func, timed(name, getattr(conic_module, func)))

    def recording_solve(problem, params=None):
        split.update(schur_s=0.0, factor_s=0.0, step_s=0.0)
        cones.clear()
        begin = time.perf_counter()
        sol = solve(problem, params)
        seconds = time.perf_counter() - begin
        # the reduction runs once in each solve_conic call, before its IPM
        dropped_rows, dropped_cols = drops[-1]
        stacks = getattr(cones[0], "stacks", None) if cones else None
        calls.append({
            "status": sol.status,
            "iterations": sol.iterations,
            "seconds": seconds,
            "m": problem.m,
            "blocks": list(problem.cone.s),
            "stacks": None if stacks is None else [
                [stack.s, stack.g, stack_kind(stack)] for stack in stacks
            ],
            **split,
            "rest_s": seconds - sum(split.values()),
            "dropped_rows": dropped_rows,
            "dropped_cols": dropped_cols,
        })
        return sol

    conic_module.solve = recording_solve
    path = os.path.join(ROOT, "models", f"{model}.gpm")
    with open(path, encoding="utf-8") as handle:
        problem = parse_model(handle.read(), path)
    begin = time.perf_counter()
    with recording_drops() as drops:
        sol = certify_module.solve_gpm(problem, order=int(order), seed=0)
    solve_s = time.perf_counter() - begin
    return {
        "instance": instance,
        "seed": 0,
        "import_s": import_s,
        "solve_s": solve_s,
        "status": sol.status,
        "objective": sol.objective,
        "ipm": calls,
        # ru_maxrss is in KiB on Linux; MB (1e6 bytes) as gpmbench reports it
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "scipy_optimize_loaded": "scipy.optimize" in sys.modules,
    }


def stack_kind(stack):
    """"sparse" for a sparse block; for a dense stack, whether it adds its
    Schur share through its sparse columns ("csc") or not ("dense")."""
    if not hasattr(stack, "csc"):
        return "sparse"
    return "dense" if stack.csc is None else "csc"


def environment():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    env = {var: os.environ.get(var) for var in THREAD_VARS}
    env.update(
        nproc=os.cpu_count(),
        affinity=len(os.sched_getaffinity(0)),
        machine=platform.machine(),
        python=platform.python_version(),
        numpy=numpy.__version__,
        scipy=scipy.__version__,
        blas=f"{blas.get('name')} {blas.get('version')}",
    )
    return env


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--label", help="the file is BENCH_<label>.json")
    parser.add_argument("--instances", nargs="+", default=INSTANCES, metavar="MODEL-ORDER")
    parser.add_argument("--out-dir", default=ROOT)
    parser.add_argument("--child", metavar="MODEL-ORDER", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        print(json.dumps(run_child(args.child)))
        return
    if not args.label:
        parser.error("--label is required")
    for var in THREAD_VARS:
        os.environ[var] = "1"
    rows = []
    for instance in args.instances:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--child", instance],
            capture_output=True, text=True, check=False,
        )
        if proc.returncode != 0:
            sys.exit(f"{instance} failed:\n{proc.stderr}")
        rows.append(json.loads(proc.stdout.splitlines()[-1]))
        print(json.dumps(rows[-1]), flush=True)
    out = os.path.join(args.out_dir, f"BENCH_{args.label}.json")
    with open(out, "w", encoding="utf-8") as handle:
        json.dump({"label": args.label, "env": environment(), "rows": rows}, handle, indent=1)
        handle.write("\n")
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
