"""tools/conic_digest.py, whose digests back every bit-identity claim,
tools/bench_rows.py, which writes the committed BENCH rows, and
tools/ulp_draws.py, which counts outcomes under 1-ulp moves."""

import hashlib
import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import gpmkit.conic as conic_module
from gpmkit.cli import cmd_export
from gpmkit.relaxation import assemble

from conftest import TOOLS_DIR, load_tool, model_path

HEX = "[0-9a-f]{64}"


@pytest.fixture(scope="module")
def conic_digest():
    return load_tool("conic_digest")


def test_solve_digest_is_the_same_on_a_second_run(conic_digest):
    solve, drop = conic_module.solve, conic_module._drop_forced_entries
    first = conic_digest.solve_digest("camel", 3, 0)
    # the recording wrappers are removed
    assert conic_module.solve is solve and conic_module._drop_forced_entries is drop
    # the top-level call drops 6 rows and 27 columns, the face solve none
    assert re.fullmatch(
        f"camel-3 seed 0 status 1 top {HEX} ipm x2 {HEX} "
        f"calls solved/12,solved/11 dropped 6x27,0x0 outcome {HEX}",
        first,
    )
    assert conic_digest.solve_digest("camel", 3, 0) == first


def test_digest_covers_the_conic_form_and_its_presolve(conic_digest):
    lines = conic_digest.digest("rational", 1)
    assert len(lines) == 2
    assert re.fullmatch(f"rational-1 {HEX}", lines[0])
    assert re.fullmatch(f"rational-1 presolve {HEX}", lines[1])


@pytest.mark.parametrize("model,order,fmt", [("camel", 3, "json"), ("rational", 1, "sdpa")])
def test_export_digest_hashes_the_exported_file(
    conic_digest, tmp_path, capsys, model, order, fmt
):
    line = conic_digest.export_digest(model, order, fmt)
    out = tmp_path / f"{model}.{fmt}"
    cmd_export(model_path(f"{model}.gpm"), fmt, str(out), order=order)
    capsys.readouterr()
    assert line == f"{model}-{order} {fmt} {hashlib.sha256(out.read_bytes()).hexdigest()}"


def test_digest_has_a_case_with_rows_of_several_coefficients(conic_digest):
    # the paper models give every moment-block row one coefficient, so
    # only a case like this one shows the order assembly stores them in
    (model, order), = [case for case in conic_digest.CASES if case[0] in conic_digest.SOURCES]
    msdp = assemble(conic_digest._load(model).problem, order)
    assert msdp.report.n_moment_substitutions == 1
    moment = next(block for block in msdp.blocks if block.kind == "moment")
    assert np.diff(moment.forms.coeffs.indptr).max() > 1
    assert re.fullmatch(f"{model}-{order} {HEX}", "\n".join(conic_digest.digest(model, order)))


def test_bench_rows_writes_one_row_per_instance(tmp_path):
    proc = subprocess.run(
        [sys.executable, os.path.join(TOOLS_DIR, "bench_rows.py"), "--label", "check",
         "--instances", "rational-1", "--out-dir", str(tmp_path)],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads((tmp_path / "BENCH_check.json").read_text())
    assert report["label"] == "check"
    assert report["env"]["OPENBLAS_NUM_THREADS"] == "1" and report["env"]["numpy"]
    (row,) = report["rows"]
    assert row["instance"] == "rational-1" and row["status"] == 1
    assert row["objective"] == pytest.approx(-1.0 / 3.0, abs=1e-6)
    (call,) = row["ipm"]
    assert call["status"] == "solved" and call["iterations"] > 0
    assert call["m"] > 0 and call["blocks"]
    assert call["dropped_rows"] == call["dropped_cols"] == 0
    # the stacks cover every block once, each of one order
    assert sorted(o for o, g, _ in call["stacks"] for _ in range(g)) == sorted(call["blocks"])
    assert {kind for *_, kind in call["stacks"]} <= {"csc", "dense", "sparse"}
    parts = [call[key] for key in ("schur_s", "factor_s", "step_s", "rest_s")]
    assert min(parts) >= 0 and sum(parts) == pytest.approx(call["seconds"])
    assert row["solve_s"] > 0 and row["peak_rss_mb"] > 0
    assert row["scipy_optimize_loaded"] is False


def test_ulp_draws_moves_a_quarter_of_the_entries_each_way(capsys):
    ulp_draws = load_tool("ulp_draws")
    solve = conic_module.solve
    problem = ulp_draws.top_level_input("rational-1")
    # the capturing wrapper is removed
    assert conic_module.solve is solve
    assert problem.m == 2
    A = problem.A
    moved = ulp_draws.perturbed(problem, 3).A
    assert (moved.indptr == A.indptr).all() and (moved.indices == A.indices).all()
    rng = np.random.default_rng(3)
    change = rng.random(A.nnz) < 0.5
    up = rng.random(A.nnz) < 0.5
    # 8 entries: 2 stay, 2 move up and 4 down
    assert A.nnz == 8 and (change & up).sum() == 2 and (change & ~up).sum() == 4
    np.testing.assert_array_equal(moved.data[~change], A.data[~change])
    np.testing.assert_array_equal(moved.data[change & up], np.nextafter(A.data[change & up], np.inf))
    np.testing.assert_array_equal(moved.data[change & ~up], np.nextafter(A.data[change & ~up], -np.inf))
    assert ulp_draws.perturbed(problem, 3).A.data.tobytes() == moved.data.tobytes()
    ulp_draws.main(["--draws", "3", "rational-1"])
    line = capsys.readouterr().out.strip()
    assert re.fullmatch(r"rational-1 draws 3 solved 3 iterations mean \d+\.\d max \d+", line)
    assert ulp_draws.summary("x-1", [("solved", 10), ("inaccurate", 13), ("solved", 12)]) == (
        "x-1 draws 3 solved 2 inaccurate 1 iterations mean 11.7 max 13"
    )
