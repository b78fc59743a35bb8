"""Print a digest of the conic form of the paper models.

For each model/order pair of CASES (the paper models, then the models
of SOURCES), assembles the moment relaxation, converts it with to_conic
and prints one line: the SHA-256 of the CSR arrays of A, of b, c, the
cone, sense and offset, of the AssemblyReport, and of the forms of
every block and of lin_eq and lin_ineq (CSR indptr, indices and data in
stored order, then the constants).  The conic form sorts
coefficients, so A alone would not show a change in the order in which
assembly lists them, and that order decides how mvec_values and
mmat_values sum each moment.  When the conic problem has equality rows,
a second line hashes the output of presolve_eliminate_equalities: the
reduced A, b, c and offset, the particular solution y0 and the CSR
arrays of the null-space map N.  Run it on two checkouts and diff the
output to show that a refactor leaves the relaxation and its presolve
byte-identical:

    PYTHONPATH=src python tools/conic_digest.py > after.txt

With --solve it instead runs solve_gpm at seeds 0 and 1 on SOLVE_CASES
and prints one line per run: the SHA-256 of the first (top-level)
interior-point call on its own, the number of calls and the SHA-256 of
all of them (status, iterations, message, history, x, y, z, in call
order, recorded by wrapping gpmkit.conic.solve), the status and
iteration count of each call (`calls solved/12,solved/11`, in call
order), the rows and columns of A the forced-entry reduction dropped in
each solve_conic call that reached it (`dropped 6x27,0x0`, rows x
columns, 0x0 where it did not fire, its status where it ended the
call), and the SHA-256 of the outcome (status, objective, and for every
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

# the helper next to this script, also when it is loaded by path
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from forced_drops import recording_drops  # noqa: E402

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
    ("rules", 2),
]

# models that exist only as digest cases, by name.  In the paper models
# every rule has a one-term right side and the only binding is a
# constant, so every moment-block row has one coefficient; in "rules"
# rules with several terms and a binding to a non-constant form give
# rows of several coefficients, and their stored order reaches the
# digest.
SOURCES = {
    "rules": """
        var x[2];
        min x(1)*x(2)^2 - 0.7*x(1) + 1.3*x(2)^3;
        x(1)^2 == 0.3*x(1) + 0.7*x(2) - 0.1;
        x(2)^3 == 2.9*x(1)*x(2) - 1.3*x(2) + 0.1;
        1 - x(2)^2 >= 0;
        mom(x(2)) == 0.3 + 0.7*mom(x(1)*x(2));
    """,
    # two separate sign flips and the swap x(1) <-> x(2), which maps the
    # block of the moments odd in x(1) onto the block of those odd in
    # x(2): the orbit reduction pins the odd moments and pairs blocks
    "flips_and_swap": """
        var x[2];
        min x(1)^4 + x(2)^4 + x(1)^2*x(2)^2 - 2*x(1)^2 - 2*x(2)^2;
        x(1)^2 + x(2)^2 <= 3;
    """,
}

SOLVE_CASES = [
    ("camel", 3),
    ("rational", 1),
    ("quadratic3", 1),
    ("quadratic3", 2),
    ("quadratic3", 3),
    ("quadratic3", 4),
    ("maxcut_sub", 3),
    ("maxcut_nosub", 2),
    ("flips_and_swap", 3),
]
SOLVE_SEEDS = (0, 1)

# the max-cut files hold only +-1 entries; rational, camel and
# quadratic3 add an orthant, several blocks and non-unit coefficients
EXPORT_CASES = [
    ("maxcut_nosub", 4, "sdpa"),
    ("maxcut_sub", 4, "json"),
    ("maxcut_sub", 4, "sdpa"),
    ("rational", 1, "sdpa"),
    ("camel", 3, "sdpa"),
    ("quadratic3", 4, "sdpa"),
]


def _conic_hash(conic):
    A = conic.A.tocsr()
    h = hashlib.sha256()
    for arr in (A.indptr, A.indices, A.data, conic.b, conic.c):
        h.update(np.ascontiguousarray(arr).tobytes())
    h.update(repr((A.shape, conic.cone, conic.sense, conic.offset)).encode())
    return h


def _load(model):
    if model in SOURCES:
        return build(parse_source(SOURCES[model], filename=f"<{model}>"))
    path = os.path.join(ROOT, "models", f"{model}.gpm")
    with open(path, encoding="utf-8") as handle:
        return build(parse_source(handle.read(), filename=path))


def digest(model, order):
    """Digest lines of one case: conic form, then presolve if it applies."""
    msdp = assemble(_load(model).problem, order)
    conic = to_conic(msdp)
    h = _conic_hash(conic)
    h.update(repr(msdp.report).encode())
    for rows in [block.forms for block in msdp.blocks] + [msdp.lin_eq, msdp.lin_ineq]:
        for arr in (rows.coeffs.indptr, rows.coeffs.indices, rows.coeffs.data, rows.const):
            h.update(np.ascontiguousarray(arr).tobytes())
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
        with recording_drops() as drops:
            sol = certify_module.solve_gpm(_load(model).problem, order=order, seed=seed)
    finally:
        conic_module.solve = solve
    outcome = hashlib.sha256(repr((sol.status, sol.objective)).encode())
    for measure in sol.msdp.problem.measures:
        moments = sol.moments.get(measure.label)
        if moments is not None:
            outcome.update(moments.tobytes())
        if sol.status == 1:
            outcome.update(np.ascontiguousarray(measure.support_points).tobytes())
            outcome.update(np.ascontiguousarray(measure.weights).tobytes())
    top = call_hashes[0] if call_hashes else "-"
    return (
        f"{model}-{order} seed {seed} status {sol.status} top {top} "
        f"ipm x{len(call_hashes)} {calls.hexdigest()} "
        f"calls {','.join(call_counts) or '-'} "
        f"dropped {','.join(d if isinstance(d, str) else '%dx%d' % d for d in drops) or '-'} "
        f"outcome {outcome.hexdigest()}"
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
