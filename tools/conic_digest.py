"""Print a digest of the conic form of the paper models.

For each model/order pair, assembles the moment relaxation, converts it
with to_conic and prints one line: the SHA-256 of the CSR arrays of A,
of b, c, the cone, sense and offset, and of the AssemblyReport.  Run it
on two checkouts and diff the output to show that a refactor leaves the
relaxation byte-identical:

    PYTHONPATH=src python tools/conic_digest.py > after.txt
"""

import hashlib
import os
import sys

import numpy as np

from gpmkit.dsl import build, parse_source
from gpmkit.relaxation import assemble
from gpmkit.conic import to_conic

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
]


def digest(model, order):
    path = os.path.join(ROOT, "models", f"{model}.gpm")
    with open(path, encoding="utf-8") as handle:
        built = build(parse_source(handle.read(), filename=path))
    msdp = assemble(built.problem, order)
    conic = to_conic(msdp)
    A = conic.A.tocsr()
    h = hashlib.sha256()
    for arr in (A.indptr, A.indices, A.data, conic.b, conic.c):
        h.update(np.ascontiguousarray(arr).tobytes())
    h.update(repr((A.shape, conic.cone, conic.sense, conic.offset)).encode())
    h.update(repr(msdp.report).encode())
    return h.hexdigest()


def main():
    for model, order in CASES:
        print(f"{model}-{order} {digest(model, order)}")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
