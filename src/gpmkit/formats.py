"""Reading and writing conic problems: SDPA sparse and JSON.

The SDPA sparse format (.dat-s) describes

    min c'x  s.t.  X = sum_k x_k F_k - F_0,  X psd,

so a problem in our primal form maps through its dual: with slack
Z = C - sum_k y_k A_k and objective max b'y, take c_sdpa = -b,
F_0 = -C and F_k = -A_k.  A negative block size denotes a diagonal
(linear) block holding the orthant.  The format has no free cone;
equality columns must be eliminated by presolve before export.

Entry lines are built in arrays, a bounded chunk at a time.  Each line
is five NUL-padded fixed-width byte fields: the matrix number, block
number, i and j are rows of one table holding b"%d " for 0 up to the
largest of them, and the value is a row of b"%.17g\n" for each distinct
value of the chunk.  Packing the fields of all lines into one uint8
array and dropping its NULs leaves the lines.  Every token is Python's
own %d or %.17g output, and a NUL never occurs in one, so the file is
byte for byte what one "%d %d %d %d %.17g\n" per entry writes.  F_0
takes only the nonzero columns of c.

The JSON format is a faithful dump of the ConicProblem fields and
round-trips exactly, including sense and offset, which SDPA cannot
carry.
"""

from __future__ import annotations

import json

import numpy as np
import scipy.sparse

from .conic import ConeSpec, ConicError, ConicProblem


# entry lines of an SDPA file formatted and written at a time
_SDPA_CHUNK = 1 << 16
# an SDPA entry line: matrix number, block number, i, j and the value
_SDPA_ENTRY = np.dtype("i8, i8, i8, i8, f8")
_SEPARATORS = str.maketrans("{},()", "     ")


def _require_no_free(problem):
    if problem.cone.f != 0:
        raise ConicError("free variables must be eliminated by presolve first")


def export_sdpa(problem, path):
    """Write the problem in SDPA sparse format.

    Block 1 is the diagonal orthant block (size -l) when present,
    followed by the PSD blocks in order.  Entries are upper triangular
    (i <= j, 1-based) and printed with 17 significant digits so doubles
    round-trip exactly.
    """
    _require_no_free(problem)
    cone = problem.cone
    m = problem.m
    blocks = []
    if cone.l:
        blocks.append(-cone.l)
    blocks.extend(cone.s)
    if not blocks:
        blocks = [-1]  # degenerate: keep the file well formed

    header = [
        '"generated by gpmkit',
        f"{m}",
        f"{len(blocks)}",
        " ".join(str(s) for s in blocks),
        " ".join(_fmt(-v) for v in problem.b),
    ]

    # the file lists F_1..F_m in turn, the rows of A
    A = problem.A.tocsr()
    c = problem.c
    numbers = np.array([b"%d " % k for k in range(max(m, len(blocks), *map(abs, blocks)) + 1)])
    with open(path, "wb") as fh:
        fh.write(("\n".join(header) + "\n").encode())
        # F_0 = -C over the nonzero columns, then F_k = -A_k row by row,
        # a bounded chunk of entries at a time
        cols = np.flatnonzero(c)
        for lo in range(0, cols.size, _SDPA_CHUNK):
            at = cols[lo:lo + _SDPA_CHUNK]
            fh.write(_sdpa_lines(numbers, cone, np.zeros(at.size, dtype=np.int64), at, -c[at]))
        for lo in range(0, A.nnz, _SDPA_CHUNK):
            at = np.arange(lo, min(lo + _SDPA_CHUNK, A.nnz))
            matno = np.searchsorted(A.indptr, at, side="right")
            fh.write(_sdpa_lines(numbers, cone, matno, A.indices[at], -A.data[at]))


def _sdpa_lines(numbers, cone, matno, cols, vals):
    """Entry lines of the upper-triangle nonzeros among the given ones.

    ``numbers`` holds b"%d " of 0 up to the largest integer field, as a
    NUL-padded bytes array; each distinct value is formatted once.
    """
    # the orthant, block -1 of the layout, is SDPA block 1 when present
    k, i, j = cone.entries(cols)
    blkno = k + (2 if cone.l else 1)
    keep = (i <= j) & (vals != 0.0)
    distinct, which = np.unique(vals[keep], return_inverse=True)
    fields = (
        numbers[matno[keep]],
        numbers[blkno[keep]],
        numbers[i[keep] + 1],
        numbers[j[keep] + 1],
        np.array([b"%.17g\n" % v for v in distinct.tolist()])[which],
    )
    lines = np.empty(len(which), dtype=[("", f.dtype) for f in fields])
    for name, field in zip(lines.dtype.names, fields):
        lines[name] = field
    flat = lines.view(np.uint8)
    return flat[flat != 0].tobytes()


def _fmt(value):
    return f"{float(value):.17g}"


def import_sdpa(path):
    """Read an SDPA sparse file back into primal conic form.

    Comment lines starting with '"' or '*' are skipped; braces and
    commas in the block structure line are tolerated.  The orthant is
    reassembled from negative (diagonal) blocks.  Repeated entries of
    F_1..F_m sum, in file order; a repeated F_0 entry keeps the last
    value.  SDPA has no sense or offset, so the result has sense 'min'
    and offset 0.
    """
    with open(path) as fh:
        lines = [raw.strip() for raw in fh]
    lines = [line.translate(_SEPARATORS) for line in lines if line and line[0] not in '"*']
    header, numbers = lines[:3], lines[3:]
    if len(header) < 3 or not numbers:
        raise ConicError(f"not a valid SDPA sparse file: {path}")
    m = int(header[0].split()[0])
    nblocks = int(header[1].split()[0])
    block_struct = [int(tok) for tok in header[2].split()]
    if len(block_struct) != nblocks:
        raise ConicError("block structure does not match the block count")
    c_sdpa = [float(tok) for tok in numbers[0].split()]
    if len(c_sdpa) != m:
        raise ConicError("objective vector length does not match mDIM")
    matno, blkno, i, j, value = _entry_fields(numbers[1:])
    cone = ConeSpec(
        l=sum(-s for s in block_struct if s < 0),
        s=tuple(s for s in block_struct if s > 0),
    )
    # block number -> index into struct, unknown numbers to a size-0 sentinel
    struct = np.array(block_struct + [0], dtype=np.int64)
    bno = np.where((blkno >= 1) & (blkno <= nblocks), blkno - 1, nblocks)
    diag, s = struct[bno] < 0, np.abs(struct[bno])
    bad = np.array([
        (matno < 0) | (matno > m),
        s == 0,
        diag & (i != j),
        (i < 1) | (i > s) | (j < 1) | (j > s),
    ])
    if bad.any():  # the first bad entry's first failed check
        e = int(np.argmax(bad.any(axis=0)))
        raise ConicError([
            f"entry references matrix {matno[e]} outside 0..{m}",
            f"entry references unknown block {blkno[e]}",
            "off-diagonal entry in a diagonal block",
            "entry indices outside the block",
        ][int(np.argmax(bad[:, e]))])

    # each entry's column, then its mirror off the diagonal of a PSD
    # block; the orthant runs through the diagonal blocks in turn
    lp = np.where(struct < 0, -struct, 0)
    k, p, q = (np.cumsum(struct > 0) - 1)[bno[~diag]], i[~diag] - 1, j[~diag] - 1
    pos = np.empty((len(value), 2), dtype=np.int64)
    pos[diag, 0] = (np.cumsum(lp) - lp)[bno[diag]] + i[diag] - 1
    pos[~diag] = np.stack([cone.column(k, p, q), cone.column(k, q, p)], axis=1)
    twice = ~diag & (i != j)
    cols = pos[np.stack([np.ones_like(twice), twice], axis=1)]
    entry = np.repeat(np.arange(len(value)), 1 + twice)
    rows, vals = matno[entry] - 1, -value[entry]  # A_k = -F_k, C = -F_0

    c = np.zeros(cone.total_length)
    # a later F_0 entry overwrites an earlier one
    at, v, in_A = cols[rows < 0], vals[rows < 0], rows >= 0
    last = at.size - 1 - np.unique(at[::-1], return_index=True)[1]
    c[at[last]] = v[last]
    A = scipy.sparse.csc_matrix((vals[in_A], (rows[in_A], cols[in_A])), shape=(m, c.size))
    return ConicProblem(A=A, b=-np.asarray(c_sdpa), c=c, cone=cone, sense="min", offset=0.0)


def _entry_fields(lines):
    """Matrix number, block number, i, j and value of SDPA entry lines."""
    if not lines:
        return np.zeros((5, 0), dtype=np.int64)
    try:
        fields = np.loadtxt(lines, dtype=_SDPA_ENTRY, comments=None, ndmin=1, unpack=True)
    except ValueError:
        fields = None
    if fields is None or len(fields[0]) != len(lines):  # loadtxt skips blank lines
        for line in lines:
            if len(line.split()) != 5:
                raise ConicError(f"malformed SDPA entry line: {line}")
        raise ConicError("SDPA entry line with a non-numeric field")
    return fields


def export_json(problem, path):
    """Write the problem as JSON with A in coordinate form, in row order."""
    A = problem.A.tocsr()
    payload = {
        "m": int(problem.m),
        "cone": {
            "f": int(problem.cone.f),
            "l": int(problem.cone.l),
            "s": [int(s) for s in problem.cone.s],
        },
        "A": {
            "rows": np.repeat(np.arange(problem.m), np.diff(A.indptr)).tolist(),
            "cols": A.indices.tolist(),
            "vals": A.data.tolist(),
        },
        "b": problem.b.tolist(),
        "c": problem.c.tolist(),
        "offset": float(problem.offset),
        "sense": problem.sense,
    }
    # json.dumps runs the C encoder; json.dump streams through the
    # pure-Python one
    with open(path, "w") as fh:
        fh.write(json.dumps(payload) + "\n")


def import_json(path):
    """Read a JSON conic problem written by export_json."""
    with open(path) as fh:
        payload = json.load(fh)
    for key in ("m", "cone", "A", "b", "c", "offset", "sense"):
        if key not in payload:
            raise ConicError(f"JSON problem misses required key: {key}")
    cone = ConeSpec(
        f=int(payload["cone"]["f"]),
        l=int(payload["cone"]["l"]),
        s=tuple(int(s) for s in payload["cone"]["s"]),
    )
    m = int(payload["m"])
    n = cone.total_length
    rows = np.asarray(payload["A"]["rows"], dtype=int)
    cols = np.asarray(payload["A"]["cols"], dtype=int)
    vals = np.asarray(payload["A"]["vals"], dtype=float)
    if not rows.shape == cols.shape == vals.shape:
        raise ConicError("A rows, cols and vals differ in length")
    if np.any((rows < 0) | (rows >= m)) or np.any((cols < 0) | (cols >= n)):
        raise ConicError(f"A entry indices outside the {m}x{n} matrix")
    if payload["sense"] not in ("min", "max"):
        raise ConicError(f"invalid sense: {payload['sense']}")
    return ConicProblem(
        A=scipy.sparse.csc_matrix((vals, (rows, cols)), shape=(m, n)),
        b=payload["b"], c=payload["c"], cone=cone, sense=payload["sense"],
        offset=float(payload["offset"]),
    )
