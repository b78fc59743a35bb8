"""Count interior-point outcomes under 1-ulp moves of the solver's input.

For each instance (a model and an order, like ``maxcut_sub-4``) the
tool runs ``solve_gpm`` at extraction seed 0 until its first call of
``gpmkit.conic.solve`` and captures the problem that call receives: the
top-level interior-point input, after every reduction of
``solve_conic``.  Draw k solves that problem again with each stored
entry of A moved one ulp up or down (``np.nextafter``), with
probability 1/4 each: ``np.random.default_rng(k)`` gives one uniform
number per entry for whether it moves (below 1/2), then one for the
direction (below 1/2 is up).  The draws are k = 0, 1, ..., DRAWS - 1.
It prints one line per instance: the tally of statuses over the draws
and the mean and maximum iteration counts.  The BLAS thread count
decides the last bits of the solves, so set it:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python tools/ulp_draws.py \\
        --draws 80 quadratic3-3 maxcut_sub-4
"""

import argparse
import collections
import dataclasses
import importlib
import os
import sys

import numpy as np

from gpmkit.dsl import parse_model

# gpmkit/__init__.py rebinds the name `certify` to the function
certify_module = importlib.import_module("gpmkit.certify")
conic_module = importlib.import_module("gpmkit.conic")

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)


class _Captured(Exception):
    def __init__(self, problem):
        super().__init__()
        self.problem = problem


def top_level_input(instance):
    """The problem the first interior-point call of ``solve_gpm`` gets."""
    model, order = instance.rsplit("-", 1)
    path = os.path.join(ROOT, "models", f"{model}.gpm")
    with open(path, encoding="utf-8") as handle:
        problem = parse_model(handle.read(), path)
    solve = conic_module.solve

    def capturing_solve(problem, params=None):
        raise _Captured(problem)

    conic_module.solve = capturing_solve
    try:
        certify_module.solve_gpm(problem, order=int(order), seed=0)
    except _Captured as captured:
        return captured.problem
    finally:
        conic_module.solve = solve
    raise ValueError(f"{instance} reaches no interior-point call")


def perturbed(problem, k):
    """``problem`` with draw k's 1-ulp moves of the stored entries of A."""
    A = problem.A.copy()
    rng = np.random.default_rng(k)
    moved = rng.random(A.nnz) < 0.5
    up = rng.random(A.nnz) < 0.5
    A.data[moved] = np.nextafter(A.data[moved], np.where(up[moved], np.inf, -np.inf))
    return dataclasses.replace(problem, A=A)


def sweep(problem, draws):
    """(status, iterations) of the solve of each draw, in draw order."""
    outcomes = []
    for k in range(draws):
        sol = conic_module.solve(perturbed(problem, k))
        outcomes.append((sol.status, sol.iterations))
    return outcomes


def summary(instance, outcomes):
    """One line: the status tally, most frequent first, and iterations."""
    tally = collections.Counter(status for status, _ in outcomes)
    iterations = [its for _, its in outcomes]
    return (
        f"{instance} draws {len(outcomes)} "
        + " ".join(f"{status} {count}" for status, count in tally.most_common())
        + f" iterations mean {np.mean(iterations):.1f} max {max(iterations)}"
    )


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("instances", nargs="+", metavar="MODEL-ORDER")
    parser.add_argument("--draws", type=int, default=20)
    args = parser.parse_args(argv)
    if args.draws < 1:
        parser.error("--draws must be at least 1")
    for instance in args.instances:
        print(summary(instance, sweep(top_level_input(instance), args.draws)), flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
