"""Print a digest of the conic form of the paper models.

For each model/order pair, assembles the moment relaxation, converts it
with to_conic and prints one line: the SHA-256 of the CSR arrays of A,
of b, c, the cone, sense and offset, and of the AssemblyReport.  When the
conic problem has equality rows, a second line hashes the output of
presolve_eliminate_equalities: the reduced A, b, c and offset, the
particular solution y0 and the CSR arrays of the null-space map N.  Run
it on two checkouts and diff the output to show that a refactor leaves
the relaxation and its presolve byte-identical:

    PYTHONPATH=src python tools/conic_digest.py > after.txt

With --solve it instead runs solve_gpm at seeds 0 and 1 on SOLVE_CASES
and prints one line per run: the SHA-256 of the first (top-level)
interior-point call on its own, the number of calls and the SHA-256 of
all of them (status, iterations, message, history, x, y, z, in call
order, recorded by wrapping gpmkit.conic.solve), the status and
iteration count of each call (`calls solved/18,solved/12`, in call
order), and the SHA-256 of the outcome (status, objective, and for every
measure its moment values in raw grlex order and its atoms).  Diffing
that output shows a solver, certificate or moment-evaluation refactor
leaves every iterate and result bit-identical, and where a solver change
saves or spends iterations; a change to the re-centering solves alone
leaves the top-level hash unchanged:

    PYTHONPATH=src python tools/conic_digest.py --solve > after.txt

With --export it writes the files of EXPORT_CASES with cmd_export, as
`gpm export` does, into a temporary directory and prints the SHA-256 of
each, so a change to assembly, presolve or the writers can show that
the exported bytes are unchanged:

    PYTHONPATH=src python tools/conic_digest.py --export > after.txt
"""

import hashlib
import importlib
import os
import sys
import tempfile

import numpy as np

from gpmkit.dsl import build, parse_source
from gpmkit.relaxation import assemble
from gpmkit.cli import cmd_export
from gpmkit.conic import presolve_eliminate_equalities, to_conic

# gpmkit/__init__.py rebinds the name `certify` to the function
certify_module = importlib.import_module("gpmkit.certify")
conic_module = importlib.import_module("gpmkit.conic")

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)

CASES = [
    ("camel", 3),
    ("rational", 1),
    ("quadratic3", 1),
    ("quadratic3", 2),
    ("quadratic3", 3),
    ("quadratic3", 4),
    ("maxcut_sub", 3),
    ("maxcut_sub", 4),
    ("maxcut_nosub", 2),
    ("maxcut_nosub", 3),
    ("maxcut_nosub", 4),
]

SOLVE_CASES = [
    ("camel", 3),
    ("rational", 1),
    ("quadratic3", 1),
    ("quadratic3", 2),
    ("quadratic3", 3),
    ("quadratic3", 4),
    ("maxcut_sub", 3),
    ("maxcut_nosub", 2),
]
SOLVE_SEEDS = (0, 1)

EXPORT_CASES = [
    ("maxcut_nosub", 4, "sdpa"),
    ("maxcut_sub", 4, "json"),
]


def _conic_hash(conic):
    A = conic.A.tocsr()
    h = hashlib.sha256()
    for arr in (A.indptr, A.indices, A.data, conic.b, conic.c):
        h.update(np.ascontiguousarray(arr).tobytes())
    h.update(repr((A.shape, conic.cone, conic.sense, conic.offset)).encode())
    return h


def _load(model):
    path = os.path.join(ROOT, "models", f"{model}.gpm")
    with open(path, encoding="utf-8") as handle:
        return build(parse_source(handle.read(), filename=path))


def digest(model, order):
    """Digest lines of one case: conic form, then presolve if it applies."""
    msdp = assemble(_load(model).problem, order)
    conic = to_conic(msdp)
    h = _conic_hash(conic)
    h.update(repr(msdp.report).encode())
    lines = [f"{model}-{order} {h.hexdigest()}"]
    if conic.cone.f:
        pre = presolve_eliminate_equalities(conic)
        h = _conic_hash(pre.problem)
        N = pre.N.tocsr()
        for arr in (pre.y0, N.indptr, N.indices, N.data):
            h.update(np.ascontiguousarray(arr).tobytes())
        h.update(repr((N.shape, pre.status, pre.n_eliminated)).encode())
        lines.append(f"{model}-{order} presolve {h.hexdigest()}")
    return lines


def solve_digest(model, order, seed):
    """Digest line of one solve_gpm run: its IPM calls, then its outcome."""
    calls = hashlib.sha256()
    call_hashes = []
    call_counts = []
    solve = conic_module.solve

    def recording_solve(*args, **kwargs):
        sol = solve(*args, **kwargs)
        one = hashlib.sha256()
        one.update(repr((sol.status, sol.iterations, sol.message)).encode())
        for arr in (np.asarray(sol.history, dtype=float), sol.x, sol.y, sol.z):
            one.update(np.ascontiguousarray(arr).tobytes())
        call_hashes.append(one.hexdigest())
        call_counts.append(f"{sol.status}/{sol.iterations}")
        calls.update(one.digest())
        return sol

    conic_module.solve = recording_solve
    try:
        sol = certify_module.solve_gpm(_load(model).problem, order=order, seed=seed)
    finally:
        conic_module.solve = solve
    outcome = hashlib.sha256(repr((sol.status, sol.objective)).encode())
    for measure in sol.msdp.problem.measures:
        moments = sol.moments.get(measure.label, {})
        outcome.update(np.array(list(moments.values()), dtype=float).tobytes())
        if sol.status == 1:
            outcome.update(np.ascontiguousarray(measure.support_points).tobytes())
            outcome.update(np.ascontiguousarray(measure.weights).tobytes())
    top = call_hashes[0] if call_hashes else "-"
    return (
        f"{model}-{order} seed {seed} status {sol.status} top {top} "
        f"ipm x{len(call_hashes)} {calls.hexdigest()} "
        f"calls {','.join(call_counts) or '-'} outcome {outcome.hexdigest()}"
    )


def export_digest(model, order, fmt):
    """Digest line of the file `gpm export` writes for one case."""
    path = os.path.join(ROOT, "models", f"{model}.gpm")
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, f"{model}-{order}.{fmt}")
        cmd_export(path, fmt, out, order=order)
        with open(out, "rb") as handle:
            digest = hashlib.sha256(handle.read()).hexdigest()
    return f"{model}-{order} {fmt} {digest}"


def main(argv):
    if argv == ["--export"]:
        lines = ([export_digest(*case)] for case in EXPORT_CASES)
    elif argv == ["--solve"]:
        lines = (
            [solve_digest(model, order, seed)]
            for seed in SOLVE_SEEDS
            for model, order in SOLVE_CASES
        )
    elif not argv:
        lines = (digest(model, order) for model, order in CASES)
    else:
        sys.exit("usage: conic_digest.py [--solve | --export]")
    for group in lines:
        for line in group:
            print(line)
        sys.stdout.flush()


if __name__ == "__main__":
    main(sys.argv[1:])
