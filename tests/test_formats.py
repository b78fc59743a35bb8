"""SDPA sparse and JSON import/export round trips and error handling."""

import json

import numpy as np
import pytest
import scipy.sparse

from gpmkit import (
    ConeSpec,
    ConicProblem,
    assemble,
    export_json,
    export_sdpa,
    import_json,
    import_sdpa,
    solve_conic,
    to_conic,
)
import gpmkit.formats as formats_module
from gpmkit.conic import ConicError

from conftest import camel_problem


def sym_entry(n, i, j):
    E = np.zeros((n, n))
    E[i, j] += 0.5
    E[j, i] += 0.5
    return E.reshape(-1)


def sample_problem(sense="min", offset=0.0, f=0):
    """Orthant + one PSD block with awkward double values."""
    l, s = 2, 3
    n = f + l + s * s
    rng = np.random.default_rng(7)
    rows = []
    for i, j in [(0, 0), (0, 2), (1, 1)]:
        row = np.zeros(n)
        row[f] = rng.normal() * np.pi
        row[f + 1] = 1.0 / 3.0
        row[f + l :] = sym_entry(s, i, j) * rng.normal()
        rows.append(row)
    A = np.vstack(rows)
    b = np.array([np.pi, -1.0 / 7.0, 2.0 ** -40])
    C = rng.normal(size=(s, s))
    C = C + C.T
    c = np.concatenate([rng.normal(size=f + l), C.reshape(-1)])
    return ConicProblem(
        A=A, b=b, c=c, cone=ConeSpec(f=f, l=l, s=(s,)), sense=sense,
        offset=offset,
    )


def test_sdpa_round_trip_is_exact(tmp_path):
    problem = sample_problem()
    path = tmp_path / "p.dat-s"
    export_sdpa(problem, path)
    back = import_sdpa(path)
    assert back.cone == problem.cone
    assert np.array_equal(back.b, problem.b)
    assert np.array_equal(back.c, problem.c)
    assert np.array_equal(back.A.toarray(), problem.A.toarray())
    assert back.sense == "min"
    assert back.offset == 0.0


def sdpa_entry_lines(problem):
    """Reference SDPA entry lines, one conic column at a time."""
    cone = problem.cone
    places = [(1, k, k) for k in range(cone.l)]
    first = 2 if cone.l else 1
    for blk, s in enumerate(cone.s, start=first):
        places.extend((blk, i, j) for i in range(s) for j in range(s))
    A = scipy.sparse.csr_matrix(problem.A)
    entries = [(0, col, -v) for col, v in enumerate(problem.c)]
    for k in range(problem.m):
        for ptr in range(A.indptr[k], A.indptr[k + 1]):
            entries.append((k + 1, A.indices[ptr], -A.data[ptr]))
    lines = []
    for matno, col, value in entries:
        blk, i, j = places[col]
        if i <= j and value != 0.0:
            lines.append(f"{matno} {blk} {i + 1} {j + 1} {float(value):.17g}")
    return lines


@pytest.mark.parametrize("l", [0, 2])
def test_sdpa_entries_follow_column_layout(tmp_path, l):
    # several blocks, zeros and both triangles in A and C; the file
    # lists the nonzero upper-triangle entries of F_0 then of each F_k
    rng = np.random.default_rng(l)
    cone = ConeSpec(l=l, s=(1, 3, 2))
    m, n = 4, cone.total_length
    A = rng.normal(size=(m, n)) * (rng.random((m, n)) < 0.4)
    c = rng.normal(size=n) * (rng.random(n) < 0.6) / 3.0
    problem = ConicProblem(A=A, b=rng.normal(size=m), c=c, cone=cone)
    path = tmp_path / "p.dat-s"
    export_sdpa(problem, path)
    lines = path.read_text().splitlines()
    assert lines[5:] == sdpa_entry_lines(problem)
    assert len(lines) > 5 + m


@pytest.mark.parametrize("chunk", [1, 3, 7])
def test_sdpa_entries_do_not_depend_on_the_write_chunk(tmp_path, monkeypatch, chunk):
    # chunks end inside C, at the C/A boundary and inside rows of A
    rng = np.random.default_rng(chunk)
    cone = ConeSpec(l=2, s=(1, 3, 2))
    m, n = 4, cone.total_length
    A = rng.normal(size=(m, n)) * (rng.random((m, n)) < 0.4)
    c = rng.normal(size=n) * (rng.random(n) < 0.6) / 3.0
    problem = ConicProblem(A=A, b=rng.normal(size=m), c=c, cone=cone)
    monkeypatch.setattr(formats_module, "_SDPA_CHUNK", chunk)
    path = tmp_path / "p.dat-s"
    export_sdpa(problem, path)
    assert path.read_text().splitlines()[5:] == sdpa_entry_lines(problem)


def tiny_problem():
    """Orthant of one and a 2x2 block; A stores an explicit zero at X11."""
    A = scipy.sparse.csr_matrix((
        [0.1, -1.5, 2.0, 2.0, 0.0],
        [0, 1, 2, 3, 4],
        [0, 2, 5],
    ), shape=(2, 5))
    return ConicProblem(
        A=A, b=np.array([1.0, -0.1]), c=np.array([0.0, 1.0, 0.5, 0.5, 3.0]),
        cone=ConeSpec(l=1, s=(2,)),
    )


def test_sdpa_writes_the_exact_bytes(tmp_path):
    # zeros of C and the explicit zero of A are skipped, as is the lower
    # triangle; 0.1 prints with 17 significant digits
    path = tmp_path / "p.dat-s"
    export_sdpa(tiny_problem(), path)
    assert path.read_text() == (
        '"generated by gpmkit\n'
        "2\n"
        "2\n"
        "-1 2\n"
        "-1 0.10000000000000001\n"
        "0 2 1 1 -1\n"
        "0 2 1 2 -0.5\n"
        "0 2 2 2 -3\n"
        "1 1 1 1 -0.10000000000000001\n"
        "1 2 1 1 1.5\n"
        "2 2 1 2 -2\n"
    )


def reference_sdpa_text(problem):
    """The SDPA file with every entry line formatted by the % operator.

    Columns map to (block, i, j) through per-block index arrays, and
    every nonzero upper-triangle entry of F_0 = -C, then of each
    F_k = -A_k, becomes "%d %d %d %d %.17g" with 1-based indices.
    """
    cone = problem.cone
    blocks = ([-cone.l] if cone.l else []) + list(cone.s) or [-1]
    header = [
        '"generated by gpmkit',
        f"{problem.m}",
        f"{len(blocks)}",
        " ".join(str(s) for s in blocks),
        " ".join(f"{float(-v):.17g}" for v in problem.b),
    ]
    first = 2 if cone.l else 1
    blk = [np.ones(cone.l, dtype=np.int64)]
    i = [np.arange(cone.l)]
    j = [np.arange(cone.l)]
    for k, s in enumerate(cone.s):
        blk.append(np.full(s * s, first + k))
        i.append(np.repeat(np.arange(s), s))
        j.append(np.tile(np.arange(s), s))
    blk, i, j = (np.concatenate(parts).astype(np.int64) for parts in (blk, i, j))
    A = scipy.sparse.csr_matrix(problem.A)
    matno = np.concatenate(
        [np.zeros(problem.n, dtype=np.int64), np.repeat(np.arange(1, problem.m + 1), np.diff(A.indptr))]
    )
    cols = np.concatenate([np.arange(problem.n), A.indices])
    vals = np.concatenate([-np.asarray(problem.c, dtype=float), -A.data])
    keep = (i[cols] <= j[cols]) & (vals != 0.0)
    cols = cols[keep]
    n = int(keep.sum())
    fields = [None] * (5 * n)
    fields[0::5] = matno[keep].tolist()
    fields[1::5] = blk[cols].tolist()
    fields[2::5] = (i[cols] + 1).tolist()
    fields[3::5] = (j[cols] + 1).tolist()
    fields[4::5] = vals[keep].tolist()
    return "\n".join(header) + "\n" + ("%d %d %d %d %.17g\n" * n) % tuple(fields)


# values that take all 17 digits, subnormals, extremes and non-finite
SPECIAL_VALUES = [
    0.1, 1.0 / 3.0, -2.0 / 3.0, np.pi, 1.0 + 2.0 ** -52, 123456789.01234567,
    5e-324, -1e-310, 2.2250738585072014e-308, 1e300, -1e300, 1.7976931348623157e308,
    np.inf, -np.inf, np.nan, 1.0, -1.0, 2.0, 1e16, 1e-5,
]


def special_problem():
    """Orthant and two blocks; A and C hold SPECIAL_VALUES, 0.0 and -0.0."""
    rng = np.random.default_rng(3)
    cone = ConeSpec(l=3, s=(2, 4))
    m, n = 12, cone.total_length
    pool = np.array(SPECIAL_VALUES + [0.0, -0.0])
    at = rng.choice(m * n, size=m * n // 2, replace=False)
    data = rng.choice(pool, size=at.size)
    data[:2] = 0.0, -0.0
    A = scipy.sparse.csr_matrix((data, divmod(at, n)), shape=(m, n))
    c = rng.choice(pool, size=n)
    c[:2] = 0.0, -0.0
    return ConicProblem(A=A, b=rng.choice(pool, size=m), c=c, cone=cone)


def wide_problem():
    """m, the orthant, block orders and the block count cross 9/10,
    99/100 and 999/1000, so every integer field changes width."""
    rng = np.random.default_rng(5)
    cone = ConeSpec(l=100, s=(1,) * 9 + (10, 100, 1000))
    m, n = 1000, cone.total_length
    edges = np.array([0, 8, 9, 10, 98, 99, 100, 998, 999])
    # the orthant's diagonal, then each block's (i, j) on the edges
    cols = [edges[edges < cone.l]]
    for start, s in zip(cone.psd_starts, cone.s):
        ij = edges[edges < s]
        cols.append(start + (ij[:, None] * s + ij).reshape(-1))
    cols = np.concatenate(cols)
    rows = rng.integers(0, m, size=cols.size)
    rows[: edges.size] = edges  # diagonal entries, so F_1 ... F_1000 all print
    A = scipy.sparse.csr_matrix((rng.normal(size=cols.size), (rows, cols)), shape=(m, n))
    c = np.zeros(n)
    c[cols[::3]] = rng.normal(size=cols[::3].size) / 7.0
    return ConicProblem(A=A, b=rng.normal(size=m), c=c, cone=cone)


def orthant_problem():
    A = np.array([[1.0, 2.0, 0.0], [0.0, -0.25, 4.0]])
    return ConicProblem(
        A=A, b=np.array([1.0, 2.0]), c=np.array([0.5, -0.0, -3.0]), cone=ConeSpec(l=3)
    )


def empty_a_problem():
    cone = ConeSpec(l=1, s=(3,))
    return ConicProblem(
        A=scipy.sparse.csr_matrix((2, cone.total_length)), b=np.array([1.0, 0.0]),
        c=np.arange(cone.total_length, dtype=float), cone=cone,
    )


def no_rows_problem():
    cone = ConeSpec(s=(2,))
    return ConicProblem(
        A=scipy.sparse.csr_matrix((0, 4)), b=np.zeros(0), c=np.array([1.0, 0.5, 0.5, 2.0]),
        cone=cone,
    )


BYTE_CASES = {
    "special": special_problem,
    "wide": wide_problem,
    "orthant": orthant_problem,
    "empty_a": empty_a_problem,
    "no_rows": no_rows_problem,
}


@pytest.mark.parametrize("chunk", [None, 1, 3, 7])
@pytest.mark.parametrize("case", sorted(BYTE_CASES))
def test_sdpa_bytes_match_the_percent_format(tmp_path, monkeypatch, case, chunk):
    problem = BYTE_CASES[case]()
    if chunk is not None:
        monkeypatch.setattr(formats_module, "_SDPA_CHUNK", chunk)
    path = tmp_path / "p.dat-s"
    export_sdpa(problem, path)
    assert path.read_bytes() == reference_sdpa_text(problem).encode()


def test_byte_cases_cover_special_values_and_field_widths():
    # A and C store both zeros, which the file skips; it negates the rest
    problem = special_problem()
    for values in (problem.A.data, problem.c):
        zeros = np.signbit(values[values == 0.0])
        assert zeros.any() and not zeros.all()
    lines = [line.split() for line in reference_sdpa_text(problem).splitlines()[5:]]
    assert {e[4] for e in lines} == {f"{-v:.17g}" for v in SPECIAL_VALUES}
    # matrix numbers and indices 1..1000, block numbers 1..13, and the
    # orthant's indices 1..100
    lines = [line.split() for line in reference_sdpa_text(wide_problem()).splitlines()[5:]]
    for field, digits in ((0, 4), (1, 2), (2, 4), (3, 4)):
        assert {len(e[field]) for e in lines} == set(range(1, digits + 1))
    assert {len(e[2]) for e in lines if e[1] == "1"} == {1, 2, 3}


def test_json_writes_the_exact_bytes(tmp_path):
    path = tmp_path / "p.json"
    export_json(tiny_problem(), path)
    assert path.read_text() == (
        '{"m": 2, "cone": {"f": 0, "l": 1, "s": [2]}, '
        '"A": {"rows": [0, 0, 1, 1, 1], "cols": [0, 1, 2, 3, 4], '
        '"vals": [0.1, -1.5, 2.0, 2.0, 0.0]}, '
        '"b": [1.0, -0.1], "c": [0.0, 1.0, 0.5, 0.5, 3.0], '
        '"offset": 0.0, "sense": "min"}\n'
    )


def test_sdpa_cannot_carry_sense_or_offset(tmp_path):
    problem = sample_problem(sense="max", offset=3.5)
    path = tmp_path / "p.dat-s"
    export_sdpa(problem, path)
    back = import_sdpa(path)
    assert back.sense == "min"
    assert back.offset == 0.0
    assert np.array_equal(back.A.toarray(), problem.A.toarray())


def test_sdpa_orthant_only_round_trip(tmp_path):
    A = np.array([[1.0, 2.0, 0.0], [0.0, -0.25, 4.0]])
    problem = ConicProblem(
        A=A, b=np.array([1.0, 2.0]), c=np.array([0.5, 0.0, -3.0]),
        cone=ConeSpec(l=3),
    )
    path = tmp_path / "lp.dat-s"
    export_sdpa(problem, path)
    back = import_sdpa(path)
    assert back.cone == ConeSpec(l=3)
    assert np.array_equal(np.asarray(back.A.todense()), A)
    assert np.array_equal(back.c, problem.c)


def test_sdpa_rejects_free_columns(tmp_path):
    problem = sample_problem(f=1)
    with pytest.raises(ConicError, match="eliminated by presolve first"):
        export_sdpa(problem, tmp_path / "f.dat-s")


def test_sdpa_tolerates_comments_and_braces(tmp_path):
    text = "\n".join(
        [
            '"comment line',
            "* another comment",
            "2 =mdim",
            "2",
            "{-1, 2}",
            "(1.5, -2.0)",
            "0 2 1 2 0.25",
            "1 1 1 1 3.0",
            "2 2 2 2 -1.0",
            "",
        ]
    )
    path = tmp_path / "t.dat-s"
    path.write_text(text)
    problem = import_sdpa(path)
    assert problem.m == 2
    assert problem.cone == ConeSpec(l=1, s=(2,))
    assert np.array_equal(problem.b, [-1.5, 2.0])
    A = np.asarray(problem.A.todense())
    assert A[0, 0] == -3.0
    assert A[1, 4] == 1.0  # (2,2) of the psd block, columns 1..4
    # F_0 off-diagonal mirrored into both triangles of C
    assert problem.c[2] == problem.c[3] == -0.25


def test_sdpa_mixed_entries_read_back_exactly(tmp_path):
    """An orthant and two PSD blocks, F_0 entries that overwrite earlier
    ones, both triangles of a block and repeated entries, which A sums
    in the order of the file (-0.1 - 0.2 - 0.3, not -0.1 - (0.2 + 0.3))."""
    text = "\n".join(
        [
            '"orthant of 3, PSD blocks of orders 2 and 3',
            "2",
            "3",
            "{-3, 2, 3}",
            "1.5 -2.0",
            "0 1 1 1 0.1",
            "0 1 1 1 0.7",
            "0 2 1 2 0.25",
            "0 2 2 1 0.5",
            "0 3 3 3 -0.125",
            "1 1 2 2 0.1",
            "1 1 2 2 0.2",
            "1 1 2 2 0.3",
            "1 2 1 2 1.0",
            "1 2 2 1 2.0",
            "2 3 1 3 0.1",
            "2 3 3 1 0.2",
            "2 3 1 3 0.3",
            "2 3 2 2 4.0",
            "2 1 3 3 -1.0",
            "",
        ]
    )
    path = tmp_path / "mixed.dat-s"
    path.write_text(text)
    problem = import_sdpa(path)
    assert problem.cone == ConeSpec(l=3, s=(2, 3))
    assert problem.b.tolist() == [-1.5, 2.0]
    c = np.zeros(16)
    c[[0, 4, 5, 15]] = -0.7, -0.5, -0.5, 0.125
    assert problem.c.tolist() == c.tolist()
    A = np.zeros((2, 16))
    A[0, [1, 4, 5]] = -0.6000000000000001, -3.0, -3.0
    A[1, [2, 9, 11, 13]] = 1.0, -0.6000000000000001, -4.0, -0.6000000000000001
    assert problem.A.toarray().tolist() == A.tolist()


BAD_SDPA = [
    ("1\n1\n", "not a valid SDPA sparse file"),
    ("1\n2\n-1\n1.0\n", "block structure does not match"),
    ("2\n1\n-1\n1.0\n", "objective vector length does not match mDIM"),
    ("1\n1\n-1\n1.0\n0 1 1 1\n", "malformed SDPA entry line"),
    ("1\n1\n-1\n1.0\n0 1 1 1 1.0\n( )\n", "malformed SDPA entry line"),
    ("1\n1\n-1\n1.0\n0 1 x 1 1.0\n", "SDPA entry line with a non-numeric field"),
    ("1\n1\n-2\n1.0\n0 1 1 2 1.0\n", "off-diagonal entry in a diagonal block"),
    ("1\n1\n2\n1.0\n0 1 3 3 1.0\n", "entry indices outside the block"),
    ("1\n1\n2\n1.0\n0 5 1 1 1.0\n", "entry references unknown block"),
    # a diagonal-block index past the block would land in the next block
    ("1\n2\n-2 2\n1.0\n1 1 4 4 -3.0\n", "entry indices outside the block"),
    ("1\n1\n-2\n1.0\n1 1 0 0 1.0\n", "entry indices outside the block"),
    ("1\n1\n2\n1.0\n2 1 1 1 1.0\n", "matrix 2 outside 0..1"),
    ("1\n1\n2\n1.0\n-1 1 1 1 1.0\n", "matrix -1 outside 0..1"),
]


@pytest.mark.parametrize("text,message", BAD_SDPA)
def test_sdpa_malformed_files(tmp_path, text, message):
    path = tmp_path / "bad.dat-s"
    path.write_text(text)
    with pytest.raises(ConicError, match=message):
        import_sdpa(path)


def test_json_round_trip_keeps_everything(tmp_path):
    problem = sample_problem(sense="max", offset=-2.25, f=2)
    path = tmp_path / "p.json"
    export_json(problem, path)
    back = import_json(path)
    assert back.cone == problem.cone
    assert back.sense == "max"
    assert back.offset == -2.25
    assert np.array_equal(back.b, problem.b)
    assert np.array_equal(back.c, problem.c)
    assert np.array_equal(back.A.toarray(), problem.A.toarray())


def _json_payload(tmp_path):
    problem = sample_problem()
    path = tmp_path / "p.json"
    export_json(problem, path)
    with open(path) as fh:
        return json.load(fh)


def _write_payload(tmp_path, payload):
    path = tmp_path / "mut.json"
    with open(path, "w") as fh:
        json.dump(payload, fh)
    return path


def test_json_missing_key(tmp_path):
    payload = _json_payload(tmp_path)
    del payload["b"]
    with pytest.raises(ConicError, match="misses required key: b"):
        import_json(_write_payload(tmp_path, payload))


def test_json_inconsistent_dimensions(tmp_path):
    payload = _json_payload(tmp_path)
    payload["b"] = payload["b"] + [0.0]
    with pytest.raises(ConicError, match="inconsistent dimensions"):
        import_json(_write_payload(tmp_path, payload))


def test_json_invalid_sense(tmp_path):
    payload = _json_payload(tmp_path)
    payload["sense"] = "maximize"
    with pytest.raises(ConicError, match="invalid sense: maximize"):
        import_json(_write_payload(tmp_path, payload))


@pytest.mark.parametrize(
    "axis,value,message",
    [
        ("rows", 3, "outside the 3x11 matrix"),
        ("rows", -1, "outside the 3x11 matrix"),
        ("cols", 11, "outside the 3x11 matrix"),
        ("cols", -1, "outside the 3x11 matrix"),
    ],
)
def test_json_entry_outside_matrix(tmp_path, axis, value, message):
    payload = _json_payload(tmp_path)
    payload["A"][axis][0] = value
    with pytest.raises(ConicError, match=message):
        import_json(_write_payload(tmp_path, payload))


def test_json_entry_arrays_differ_in_length(tmp_path):
    payload = _json_payload(tmp_path)
    payload["A"]["vals"].pop()
    with pytest.raises(ConicError, match="differ in length"):
        import_json(_write_payload(tmp_path, payload))


def test_camel_reexport_solves_to_same_value(tmp_path):
    ctx, gpm = camel_problem()
    problem = to_conic(assemble(gpm))
    path = tmp_path / "camel.dat-s"
    export_sdpa(problem, path)
    back = import_sdpa(path)
    sol_a = solve_conic(problem)
    sol_b = solve_conic(back)
    assert sol_a.status == "solved" and sol_b.status == "solved"
    assert sol_a.pobj == pytest.approx(sol_b.pobj, abs=1e-6)
    # the moment relaxation bound itself, recovered from the raw cone data
    assert problem.objective_value(sol_a.y) == pytest.approx(-1.0316, abs=1e-3)
