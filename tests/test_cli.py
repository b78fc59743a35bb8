"""The gpm command line: exit codes, JSON report and export round trips."""

import importlib
import json

import numpy as np
import pytest

from gpmkit import (
    assemble,
    import_json,
    import_sdpa,
    mvec,
    mvec_values,
    presolve_eliminate_equalities,
    to_conic,
)
from gpmkit.cli import main
from gpmkit.dsl import parse_model

from conftest import model_path


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_build_and_solve_exit_zero(capsys):
    assert main(["build", model_path("rational.gpm")]) == 0
    assert "Number of monomials after substitution = 3" in capsys.readouterr().out
    assert main(["solve", model_path("rational.gpm")]) == 0
    out = capsys.readouterr().out
    assert "status = 1" in out
    assert "obj = -0.3333" in out
    assert "Solver message" not in out  # solved: nothing to explain


@pytest.mark.parametrize(
    "argv,code,message",
    [
        (["build", "{missing}"], 1, "No such file"),
        (["build", "{bad}"], 2, "expected ';'"),
        (["build", model_path("camel.gpm"), "--order", "2"], 3,
         "constraint degree exceeds relaxation order"),
        (["solve", "{infeasible}"], 4, None),
        (["solve", model_path("rational.gpm"), "--eps", "0"], 2, "eps"),
    ],
)
def test_exit_codes(tmp_path, capsys, argv, code, message):
    files = {
        "{missing}": str(tmp_path / "missing.gpm"),
        "{bad}": write(tmp_path, "bad.gpm", "var x\nmin x;\n"),
        "{infeasible}": write(
            tmp_path, "infeasible.gpm", "var x;\nmin x;\nx^2 <= -1;\n"
        ),
    }
    argv = [files.get(arg, arg) for arg in argv]
    assert main(argv) == code
    captured = capsys.readouterr()
    if message is None:
        assert "status = -1" in captured.out
        assert "Solver message   = inconsistent equality rows" in captured.out
    else:
        assert message in captured.err


def test_solve_json_report(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(["solve", model_path("rational.gpm"), "--json", str(out)]) == 0
    capsys.readouterr()
    report = json.loads(out.read_text())
    assert set(report) == {
        "file", "order", "assembly", "solver", "status", "objective",
        "certified", "measures",
    }
    assert set(report["assembly"]) == {
        "order", "measures", "support_constraints", "support_substitutions",
        "moment_constraints", "moment_substitutions", "default_mass",
        "total_monomials", "decision_variables", "linear_equalities",
        "linear_inequalities", "blocks", "block_description",
    }
    assert set(report["solver"]) == {
        "status", "iterations", "pinf", "dinf", "gap", "primal_objective",
        "dual_objective", "message", "blocks",
    }
    assert report["status"] == 1 and report["certified"] is True
    assert report["objective"] == pytest.approx(-1.0 / 3.0, abs=1e-4)
    (measure,) = report["measures"]
    assert set(measure) == {
        "label", "variables", "moments", "points", "weights", "ranks",
        "flat_truncation", "extracted_at", "symmetry", "permutations",
        "undetermined",
    }
    assert measure["points"][0][0] == pytest.approx(0.5, abs=1e-3)
    assert measure["ranks"] == [1, 1] and measure["flat_truncation"] == 1
    assert measure["extracted_at"] == 1


@pytest.mark.parametrize(
    "name,order,ranks,extracted_at",
    [("camel.gpm", 3, [1, 2, 2, 2], 3), ("quadratic3.gpm", 4, [1, 2, 2, 2, None], 2)],
)
def test_solve_reports_the_degree_the_atoms_came_from(
    tmp_path, capsys, name, order, ranks, extracted_at
):
    # camel-3's re-centered point is flat at r = 3, so its atoms come
    # from M_3; quadratic3-4's top-level point leaves M_4 undetermined
    # (rank None, "-" in the text), and its atoms come from the flat
    # truncation M_2
    out = tmp_path / "report.json"
    assert main(["solve", model_path(name), "--order", str(order), "--json", str(out)]) == 0
    text = capsys.readouterr().out
    report = json.loads(out.read_text())
    (measure,) = report["measures"]
    assert report["status"] == 1 and len(measure["points"]) == 2
    assert measure["ranks"] == ranks and measure["extracted_at"] == extracted_at
    assert (
        f"Measure 1: ranks by degree = {_ranks_text(ranks)}, "
        f"flat truncation = 2, extracted at = {extracted_at}"
    ) in text.splitlines()


def _ranks_text(ranks):
    return " ".join("-" if r is None else str(r) for r in ranks)


def _strict_json(path):
    """The report, refusing the NaN and Infinity that JSON lacks."""

    def refuse(name):
        raise ValueError(f"{name} in the JSON report")

    return json.loads(path.read_text(), parse_constant=refuse)


@pytest.mark.parametrize("name,order,undetermined,ranks", [
    ("camel.gpm", 3, 0, [1, 2, 2, 2]), ("quadratic3.gpm", 2, 15, [1, 2, None]),
])
def test_undetermined_moments_are_null_in_the_json_report(
    tmp_path, capsys, name, order, undetermined, ranks
):
    # camel-3's face solve fills the moments its top-level point leaves
    # undetermined; quadratic3-2's point keeps 15, of degree 3 and 4,
    # which are null, as is the rank of M_2, which holds them
    out = tmp_path / "report.json"
    assert main(["solve", model_path(name), "--order", str(order), "--json", str(out)]) == 0
    text = capsys.readouterr().out
    (measure,) = _strict_json(out)["measures"]
    assert measure["undetermined"] == undetermined and measure["ranks"] == ranks
    nulls = [degree for _, value, degree in measure["moments"] if value is None]
    assert len(nulls) == undetermined and all(degree > 2 for degree in nulls)
    line = f"Measure 1: {undetermined} moments undetermined"
    assert (line in text.splitlines()) == (undetermined > 0)


@pytest.mark.parametrize("name,order", [("camel.gpm", 3), ("maxcut_sub.gpm", 2)])
def test_solve_json_moments_follow_mvec(tmp_path, capsys, monkeypatch, name, order):
    # the moment vector solve_gpm stores is recorded with its y, and the
    # report lists it as (label, value, degree) in mvec order
    certify_module = importlib.import_module("gpmkit.certify")
    seen = []

    def recording_mvec_values(msdp, y, measure, degree=None):
        seen.append((msdp, y.copy(), measure))
        return mvec_values(msdp, y, measure, degree)

    monkeypatch.setattr(certify_module, "mvec_values", recording_mvec_values)
    out = tmp_path / "report.json"
    assert main(["solve", model_path(name), "--order", str(order), "--json", str(out)]) == 0
    capsys.readouterr()
    (entry,) = json.loads(out.read_text())["measures"]
    (msdp, y, measure), = seen
    values = mvec_values(msdp, y, measure).tolist()
    labels = mvec(msdp, measure)
    assert len(labels) == len(msdp.index.raw_exponents[measure])
    assert entry["moments"] == [[repr(p), v, p.degree] for p, v in zip(labels, values)]


@pytest.mark.parametrize(
    "name,ranks,truncation",
    [("camel.gpm", [1, 2, 2, 2], 2), ("quadratic3.gpm", [1, None], None)],
)
def test_solve_reports_ranks_and_flat_truncation(
    tmp_path, capsys, name, ranks, truncation
):
    # ranks of the moment matrix truncations by degree 0..r, and the
    # smallest flat t, in the JSON report and on one line of the text
    out = tmp_path / "report.json"
    assert main(["solve", model_path(name), "--json", str(out)]) == 0
    text = capsys.readouterr().out
    (measure,) = json.loads(out.read_text())["measures"]
    assert measure["ranks"] == ranks
    assert measure["flat_truncation"] == truncation
    shown = "none" if truncation is None else truncation
    assert (
        f"Measure 1: ranks by degree = {_ranks_text(ranks)}, "
        f"flat truncation = {shown}"
    ) in text


@pytest.mark.parametrize(
    "name,order,symmetry,line",
    [
        (
            "camel.gpm", 3,
            {"generators": [["x1", "x2"]], "pinned": 12, "blocks": [4, 6]},
            "Measure 1: sign flips = x1,x2, pinned moments = 12, blocks = 4x4+6x6",
        ),
        ("quadratic3.gpm", 2, None, "Measure 1: sign symmetry = none"),
    ],
)
def test_solve_reports_the_sign_split(tmp_path, capsys, name, order, symmetry, line):
    # camel is invariant under (x1, x2) -> -(x1, x2): its 10x10 moment
    # matrix reaches the solver as the even (4) and odd (6) blocks;
    # quadratic3 has linear terms and no flip
    out = tmp_path / "report.json"
    assert main(["solve", model_path(name), "--order", str(order), "--json", str(out)]) == 0
    text = capsys.readouterr().out
    (measure,) = json.loads(out.read_text())["measures"]
    assert measure["symmetry"] == symmetry
    assert line in text.splitlines()


@pytest.mark.parametrize(
    "name,order,permutations,line",
    [
        (
            "maxcut_sub.gpm", 3,
            {
                "generators": [
                    [["x(2)", "x(9)"], ["x(3)", "x(8)"], ["x(4)", "x(7)"], ["x(5)", "x(6)"]],
                    [["x(1)", "x(2)", "x(3)", "x(4)", "x(5)", "x(6)", "x(7)", "x(8)", "x(9)"]],
                ],
                "moments": 246,
                "orbits": 21,
            },
            "Measure 1: permutations = (x(2) x(9))(x(3) x(8))(x(4) x(7))(x(5) x(6)); "
            "(x(1) x(2) x(3) x(4) x(5) x(6) x(7) x(8) x(9)), moments = 246, orbits = 21",
        ),
        ("camel.gpm", 3, None, "Measure 1: permutation symmetry = none"),
    ],
)
def test_solve_reports_the_orbit_reduction(tmp_path, capsys, name, order, permutations, line):
    # the antiweb graph's reflection and rotation generate its 18
    # automorphisms; the 246 moments no sign flip pins fall into 21
    # orbits.  camel's x1^2 and x2^2 have different coefficients
    out = tmp_path / "report.json"
    assert main(["solve", model_path(name), "--order", str(order), "--json", str(out)]) == 0
    text = capsys.readouterr().out
    (measure,) = json.loads(out.read_text())["measures"]
    assert measure["permutations"] == permutations
    assert line in text.splitlines()


def test_solve_reports_the_blocks_the_solver_worked_on(tmp_path, capsys):
    # the rotation splits the 93-order block of the odd moments into its
    # symmetry-adapted blocks; the 37-order one is left whole, as its
    # split would save less than the blocks it adds cost
    out = tmp_path / "report.json"
    assert main(["solve", model_path("maxcut_sub.gpm"), "--order", "3", "--json", str(out)]) == 0
    text = capsys.readouterr().out
    report = json.loads(out.read_text())
    assert report["solver"]["blocks"] == [37, 20, 22, 20, 8, 20, 3]
    (measure,) = report["measures"]
    assert measure["symmetry"]["blocks"] == [37, 93]
    assert "  PSD blocks       = 37x37+20x20+22x22+20x20+8x8+20x20+3x3" in text.splitlines()


@pytest.mark.parametrize(
    "text",
    [
        None,  # models/rational.gpm
        "var x;\nmin mom(x);\nmom(x) == 0.5;\nmom(x^2) <= 1;\n",
        "var x;\nmax mom(x);\nmass(x) == 1;\nmom(x^2) <= 1;\n",
    ],
)
def test_solver_objectives_are_in_model_terms(tmp_path, capsys, text):
    # primal and dual objectives carry the model's sign and offset
    path = model_path("rational.gpm") if text is None else write(tmp_path, "m.gpm", text)
    out = tmp_path / "report.json"
    assert main(["solve", path, "--json", str(out)]) == 0
    capsys.readouterr()
    report = json.loads(out.read_text())
    objective = report["objective"]
    tol = report["solver"]["gap"] * (1.0 + 2.0 * abs(objective)) + 1e-12
    assert abs(objective) > 0.3
    for key in ("primal_objective", "dual_objective"):
        assert abs(report["solver"][key] - objective) <= tol, key


def test_inconsistent_moments_report_one_status(tmp_path, capsys):
    # no moment vector exists in any model: the IPM finds that on the
    # first, presolve on the equalities facial reduction adds to the
    # second, and the cone check of the fully pinned moments on the third
    statuses = []
    for name, text in [
        ("moment.gpm", "var x;\nmin mom(x);\nmom(x^2) == -1;\n"),
        ("support.gpm", "var x;\nmin x;\nx^2 <= -1;\n"),
        ("pinned.gpm",
         "var x;\nmin mom(x);\nmass(x) == 1;\nmom(x) == 1;\nmom(x^2) == 0.5;\n"),
    ]:
        out = tmp_path / f"{name}.json"
        assert main(["solve", write(tmp_path, name, text), "--json", str(out)]) == 4
        report = json.loads(out.read_text())
        assert report["status"] == -1
        assert report["measures"][0]["ranks"] is None
        assert report["measures"][0]["flat_truncation"] is None
        assert report["measures"][0]["extracted_at"] is None
        statuses.append(report["solver"]["status"])
    capsys.readouterr()
    assert statuses == ["unbounded", "unbounded", "unbounded"]


def conic_of(name, order=None):
    with open(model_path(name)) as fh:
        return to_conic(assemble(parse_model(fh.read()), order))


def test_export_sdpa_round_trip_and_offset_note(tmp_path, capsys):
    out = tmp_path / "rational.dat-s"
    assert main(["export", model_path("rational.gpm"), "--format", "sdpa",
                 "-o", str(out)]) == 0
    assert "objective offset" in capsys.readouterr().err
    expected = presolve_eliminate_equalities(conic_of("rational.gpm")).problem
    assert expected.offset != 0.0
    back = import_sdpa(out)
    assert back.cone == expected.cone
    assert np.array_equal(back.b, expected.b)
    assert np.array_equal(back.c, expected.c)
    assert np.array_equal(back.A.toarray(), expected.A.toarray())


def test_export_json_round_trip(tmp_path, capsys):
    out = tmp_path / "quadratic3.json"
    assert main(["export", model_path("quadratic3.gpm"), "--order", "2",
                 "--format", "json", "-o", str(out)]) == 0
    assert capsys.readouterr().err == ""
    expected = conic_of("quadratic3.gpm", 2)
    back = import_json(out)
    assert back.cone == expected.cone
    assert (back.sense, back.offset) == (expected.sense, expected.offset)
    assert np.array_equal(back.b, expected.b)
    assert np.array_equal(back.c, expected.c)
    assert np.array_equal(back.A.toarray(), expected.A.toarray())
