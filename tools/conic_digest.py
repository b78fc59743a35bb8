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
"""

import hashlib
import os
import sys

import numpy as np

from gpmkit.dsl import build, parse_source
from gpmkit.relaxation import assemble
from gpmkit.conic import presolve_eliminate_equalities, to_conic

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


def _conic_hash(conic):
    A = conic.A.tocsr()
    h = hashlib.sha256()
    for arr in (A.indptr, A.indices, A.data, conic.b, conic.c):
        h.update(np.ascontiguousarray(arr).tobytes())
    h.update(repr((A.shape, conic.cone, conic.sense, conic.offset)).encode())
    return h


def digest(model, order):
    """Digest lines of one case: conic form, then presolve if it applies."""
    path = os.path.join(ROOT, "models", f"{model}.gpm")
    with open(path, encoding="utf-8") as handle:
        built = build(parse_source(handle.read(), filename=path))
    msdp = assemble(built.problem, order)
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


def main():
    for model, order in CASES:
        for line in digest(model, order):
            print(line)
        sys.stdout.flush()


if __name__ == "__main__":
    main()
