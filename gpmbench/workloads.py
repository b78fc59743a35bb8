"""The benchmark's workloads, how one instance runs, and how it is checked.

Each instance goes through a public entry point of gpmkit: a model file
is parsed with ``parse_source`` and ``build`` and solved with
``solve_gpm``, or handed to ``cmd_export``.  Functions are looked up on
their modules at call time so that the tracer's wrappers are seen.
Outcomes are checked against ``expected.json``, which was written by
hand from the paper.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import os
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED_PATH = os.path.join(HERE, "expected.json")

OBJECTIVE_REL_TOL = 1e-3
ATOM_ABS_TOL = 1e-3


@dataclass(frozen=True)
class Instance:
    """One model at one relaxation order; fmt is set for an export."""

    model: str
    order: int
    fmt: str | None = None

    @property
    def key(self):
        return f"{self.model}-{self.order}"


WORKLOADS = {
    # small dense SDPs with LP and localizing blocks; certification lives here
    "paper-hierarchy": (
        Instance("camel", 3),
        Instance("rational", 1),
        Instance("quadratic3", 1),
        Instance("quadratic3", 2),
        Instance("quadratic3", 3),
        Instance("quadratic3", 4),
    ),
    # one 130x130 block with 465 moments, and the same IPM behind equality presolve
    "maxcut-solve": (
        Instance("maxcut_sub", 3),
        Instance("maxcut_nosub", 2),
    ),
    # assembly, presolve and writers only; no IPM
    "export-large": (
        Instance("maxcut_nosub", 4, "sdpa"),
        Instance("maxcut_sub", 4, "json"),
    ),
}


def load_expected(path=EXPECTED_PATH):
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def model_path(root, model):
    return os.path.join(root, "models", f"{model}.gpm")


def run_instance(inst, root, outdir, seed):
    """Run one instance and return its raw outcome; checks come later."""
    path = model_path(root, inst.model)
    if inst.fmt is None:
        dsl = importlib.import_module("gpmkit.dsl")
        # gpmkit/__init__.py rebinds the name `certify` to the function
        certify = importlib.import_module("gpmkit.certify")
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
        built = dsl.build(dsl.parse_source(text, filename=path))
        sol = certify.solve_gpm(built.problem, order=inst.order, seed=seed)
        atoms = None
        if sol.status == 1:
            atoms = [
                [float(v) for v in point]
                for measure in sol.msdp.problem.measures
                for point in measure.support_points
            ]
        objective = None if sol.objective is None else float(sol.objective)
        return {"status": sol.status, "objective": objective, "atoms": atoms}
    cli = importlib.import_module("gpmkit.cli")
    out = os.path.join(outdir, f"{inst.key}.{inst.fmt}")
    note = io.StringIO()
    # cmd_export prints the sdpa objective-offset note on stderr
    with contextlib.redirect_stderr(note):
        cli.cmd_export(path, inst.fmt, out, order=inst.order)
    return {"path": out, "stderr": note.getvalue()}


def max_cut_value(n=9):
    """Largest cut of the 4-regular antiweb on n nodes, over all 2^n cuts.

    Node i is adjacent to i+1 and i+2 (mod n), the graph of the max-cut
    models.
    """
    edges = [(i, (i + d) % n) for i in range(n) for d in (1, 2)]
    return max(
        sum(((mask >> i) ^ (mask >> j)) & 1 for i, j in edges)
        for mask in range(2 ** n)
    )


def atoms_match(got, want, tol=ATOM_ABS_TOL):
    """Whether two atom lists agree up to order, coordinate by coordinate."""
    if got is None or len(got) != len(want):
        return False
    unused = list(got)
    for atom in want:
        for cand in unused:
            if len(cand) == len(atom) and all(
                abs(a - b) <= tol for a, b in zip(cand, atom)
            ):
                unused.remove(cand)
                break
        else:
            return False
    return True


def check_solve(exp, outcome):
    """Failures of one solve outcome; an empty list means it passed.

    A solve fails when it ends with status -1 or misses the expected
    objective.  The certificate is judged by ``certified_as_paper``.
    """
    objective = outcome["objective"]
    if outcome["status"] == -1 or objective is None:
        return [f"status {outcome['status']}, no objective"]
    problems = []
    if "objective" in exp:
        want = exp["objective"]
        if abs(objective - want) > OBJECTIVE_REL_TOL * abs(want):
            problems.append(f"objective {objective!r}, expected {want}")
    if exp.get("at_least") == "max_cut":
        bound = max_cut_value()
        if objective < bound * (1.0 - OBJECTIVE_REL_TOL):
            problems.append(f"objective {objective!r} below the max cut {bound}")
    return problems


def certified_as_paper(exp, outcome):
    """Whether a solve returned status 1 with the atoms the paper lists."""
    return (
        "atoms" in exp
        and outcome.get("status") == 1
        and atoms_match(outcome["atoms"], exp["atoms"])
    )


def check_export(exp, problem, note):
    """Problems with an exported conic problem read back from disk."""
    problems = []
    if problem.m != exp["m"]:
        problems.append(f"m = {problem.m}, expected {exp['m']}")
    if tuple(problem.cone.s) != tuple(exp["blocks"]):
        problems.append(f"blocks {tuple(problem.cone.s)}, expected {tuple(exp['blocks'])}")
    if "offset_note" in exp and exp["offset_note"] not in note:
        problems.append(f"stderr note {note!r} lacks {exp['offset_note']!r}")
    return problems


def read_export(inst, outcome):
    formats = importlib.import_module("gpmkit.formats")
    reader = formats.import_sdpa if inst.fmt == "sdpa" else formats.import_json
    return reader(outcome["path"])


def check(inst, outcome, expected):
    """Failures of one instance's outcome, reading back exported files."""
    if "error" in outcome:
        return [f"raised {outcome['error']}"]
    exp = expected[inst.key]
    if inst.fmt is None:
        return check_solve(exp, outcome)
    try:
        problem = read_export(inst, outcome)
    except (OSError, ValueError) as exc:
        return [f"cannot read {outcome['path']}: {exc!r}"]
    return check_export(exp, problem, outcome["stderr"])
