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
    assert np.array_equal(np.asarray(back.A.todense()), problem.A)
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


def test_sdpa_cannot_carry_sense_or_offset(tmp_path):
    problem = sample_problem(sense="max", offset=3.5)
    path = tmp_path / "p.dat-s"
    export_sdpa(problem, path)
    back = import_sdpa(path)
    assert back.sense == "min"
    assert back.offset == 0.0
    assert np.array_equal(np.asarray(back.A.todense()), problem.A)


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


BAD_SDPA = [
    ("1\n1\n", "not a valid SDPA sparse file"),
    ("1\n2\n-1\n1.0\n", "block structure does not match"),
    ("2\n1\n-1\n1.0\n", "objective vector length does not match mDIM"),
    ("1\n1\n-1\n1.0\n0 1 1 1\n", "malformed SDPA entry line"),
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
    assert np.array_equal(np.asarray(back.A.todense()), problem.A)


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
