"""Conic solver against closed-form oracles and feasibility invariants."""

import importlib
import itertools
import logging
import math

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse

from gpmkit import (
    ConeSpec,
    ConicProblem,
    GPMProblem,
    ModelContext,
    SolverParams,
    assemble,
    mass,
    maximize,
    minimize,
    mmat_values,
    mom,
    presolve_eliminate_equalities,
    solve_conic,
    solve_gpm,
    to_conic,
)
import gpmkit.conic as conic_module
from gpmkit.certify import _face_problem
from gpmkit.conic import (
    ConicError,
    _Cones,
    _DenseStack,
    _SparseBlock,
    _drop_forced_entries,
    _inverse_factors,
    _reduce_zero_diagonals,
    _step_length,
    reduce_by_orbits,
    rotate_blocks,
    sign_flips,
    solve,
    split_by_pattern,
)
from gpmkit.dsl import parse_model
from gpmkit.formats import export_json, export_sdpa, import_json, import_sdpa
from gpmkit.relaxation import sign_classes

from conftest import ReferenceForms, camel_problem, load_tool, model_path, refuse_extraction


def _symmetrized(cols, s):
    """CSR rows of 0.5 (A_k + A_k') over the s*s entries of one block:
    the per-block reference ``_symmetrized_psd`` is held to."""
    A = scipy.sparse.csr_matrix(cols)
    swap = np.arange(s * s).reshape(s, s).T.reshape(-1)
    return 0.5 * (A + A[:, swap])


def sym_entry(n, i, j):
    """Row acting as the symmetrized unit functional on entry (i, j)."""
    E = np.zeros((n, n))
    E[i, j] += 0.5
    E[j, i] += 0.5
    return E.reshape(-1)


def test_trace_one_diagonal_objective():
    # min <diag(c), X> with tr X = 1 picks out the smallest c entry
    rng = np.random.default_rng(0)
    for _ in range(5):
        k = int(rng.integers(2, 5))
        d = rng.normal(size=k)
        c = np.diag(d).reshape(-1)
        A = np.eye(k).reshape(1, -1)
        problem = ConicProblem(
            A=A, b=np.array([1.0]), c=c, cone=ConeSpec(s=(k,))
        )
        sol = solve_conic(problem)
        assert sol.status == "solved"
        assert abs(sol.pobj - d.min()) < 1e-7
        assert abs(sol.dobj - d.min()) < 1e-7


def test_two_by_two_geometric_mean():
    # min X11 + X22 with X12 = 1: PSD forces X11*X22 >= 1, optimum 2
    A = sym_entry(2, 0, 1).reshape(1, -1)
    c = np.eye(2).reshape(-1)
    problem = ConicProblem(A=A, b=np.array([1.0]), c=c, cone=ConeSpec(s=(2,)))
    sol = solve_conic(problem)
    assert sol.status == "solved"
    assert abs(sol.pobj - 2.0) < 1e-7
    X = sol.x.reshape(2, 2)
    assert abs(X[0, 0] - 1.0) < 1e-5
    assert abs(X[0, 1] - 1.0) < 1e-5


def test_orthant_simplex_lp():
    rng = np.random.default_rng(1)
    c = rng.normal(size=6)
    A = np.ones((1, 6))
    problem = ConicProblem(A=A, b=np.array([1.0]), c=c, cone=ConeSpec(l=6))
    sol = solve_conic(problem)
    assert sol.status == "solved"
    assert abs(sol.pobj - c.min()) < 1e-7
    assert sol.x.min() > -1e-9


def random_feasible_sdp(rng):
    """Random cone problem with planted strictly feasible primal and dual."""
    l = int(rng.integers(0, 4))
    sizes = tuple(int(rng.integers(2, 5)) for _ in range(int(rng.integers(1, 3))))
    cone = ConeSpec(l=l, s=sizes)
    n = cone.total_length
    m = int(rng.integers(1, 7))

    rows = []
    for _ in range(m):
        parts = [rng.normal(size=l)]
        for k in sizes:
            S = rng.normal(size=(k, k))
            parts.append(((S + S.T) / 2).reshape(-1))
        rows.append(np.concatenate(parts))
    A = np.vstack(rows)

    def interior():
        parts = [rng.uniform(0.5, 1.5, size=l)]
        for k in sizes:
            G = rng.normal(size=(k, k))
            parts.append((G @ G.T + 0.5 * np.eye(k)).reshape(-1))
        return np.concatenate(parts)

    x0 = interior()
    z0 = interior()
    y0 = rng.normal(size=m)
    b = A @ x0
    c = A.T @ y0 + z0
    return ConicProblem(A=A, b=b, c=c, cone=cone), x0, y0


def in_cone_violation(cone, v):
    worst = 0.0
    if cone.l:
        worst = max(worst, float(-(v[: cone.l]).min(initial=0.0)))
    off = cone.l
    for k in cone.s:
        M = v[off : off + k * k].reshape(k, k)
        worst = max(worst, float(-np.linalg.eigvalsh((M + M.T) / 2).min()))
        off += k * k
    return worst


def test_random_sdp_duality_and_residuals():
    rng = np.random.default_rng(20240916)
    for case in range(50):
        problem, x0, y0 = random_feasible_sdp(rng)
        sol = solve_conic(problem, SolverParams(eps=1e-7))
        assert sol.status == "solved", (case, sol.status, sol.message)
        bscale = 1.0 + float(np.abs(problem.b).max())
        cscale = 1.0 + float(np.abs(problem.c).max())
        gap_scale = 1.0 + abs(sol.pobj) + abs(sol.dobj)
        # feasibility of the returned pair
        assert np.abs(problem.A @ sol.x - problem.b).max() < 1e-6 * bscale
        dres = problem.c - problem.A.T @ sol.y - sol.z
        assert np.abs(dres).max() < 1e-6 * cscale
        assert in_cone_violation(problem.cone, sol.x) < 1e-7
        assert in_cone_violation(problem.cone, sol.z) < 1e-7
        # weak duality, and the planted pair sandwiches the optimum
        assert sol.pobj - sol.dobj > -1e-6 * gap_scale
        assert sol.pobj < problem.c @ x0 + 1e-6 * gap_scale
        assert sol.dobj > problem.b @ y0 - 1e-6 * gap_scale
        assert abs(sol.pobj - sol.dobj) < 1e-6 * gap_scale


def test_infeasible_orthant():
    problem = ConicProblem(
        A=np.array([[1.0]]), b=np.array([-1.0]), c=np.array([1.0]),
        cone=ConeSpec(l=1),
    )
    sol = solve_conic(problem)
    assert sol.status == "infeasible"


def test_unbounded_direction():
    # x1 = x2 free along the diagonal with strictly decreasing objective
    problem = ConicProblem(
        A=np.array([[1.0, -1.0]]), b=np.array([0.0]),
        c=np.array([-1.0, 0.0]), cone=ConeSpec(l=2),
    )
    sol = solve_conic(problem)
    assert sol.status == "unbounded"


def test_solve_rejects_free_cone():
    problem = ConicProblem(
        A=np.array([[1.0, 1.0]]), b=np.array([1.0]),
        c=np.array([0.0, 1.0]), cone=ConeSpec(f=1, l=1),
    )
    with pytest.raises(ConicError):
        solve(problem)
    # the driver presolves the free column away instead
    sol = solve_conic(problem)
    assert sol.status == "solved"


def trace_problem(**changes):
    """min <C, X> s.t. tr X = 1 over one 2x2 block, with fields replaced."""
    fields = dict(
        A=np.eye(2).reshape(1, -1), b=np.array([1.0]),
        c=np.array([1.0, 0.5, 0.5, 2.0]), cone=ConeSpec(s=(2,)),
    )
    fields.update(changes)
    return ConicProblem(**fields)


def test_problem_with_c_one_entry_short_is_refused():
    # solve_conic used to fail inside with an IndexError
    with pytest.raises(ConicError, match="inconsistent dimensions"):
        trace_problem(c=np.array([1.0, 0.5, 0.5]))


def test_problem_with_b_too_long_is_refused():
    # solve_conic used to fail inside linprog with a ValueError
    with pytest.raises(ConicError, match="inconsistent dimensions"):
        trace_problem(b=np.array([1.0, 2.0]))


def test_problem_stores_a_as_float64_csc_and_b_c_as_float64():
    problem = trace_problem(
        A=scipy.sparse.csr_matrix(np.array([[1, 0, 0, 1]])), b=[1], c=[1, 0, 0, 2]
    )
    assert problem.A.format == "csc" and problem.A.dtype == np.float64
    assert problem.b.dtype == problem.c.dtype == np.float64


@pytest.mark.parametrize("seed", range(4))
def test_cone_spec_maps_invert_each_other(seed):
    """entries undoes column and block_columns on every column, with
    blocks of orders 0 and 1 among the others."""
    rng = np.random.default_rng(seed)
    orders = [0, 1, *rng.integers(0, 6, size=3).tolist()]
    f, l = rng.integers(1, 4, size=2).tolist()
    cone = ConeSpec(f=f, l=l, s=tuple(rng.permutation(orders).tolist()))
    cols = np.arange(cone.total_length)
    k, i, j = cone.entries(cols)
    lead = cone.f + cone.l
    np.testing.assert_array_equal(k[:lead], -1)
    np.testing.assert_array_equal(i[:lead], cols[:lead] - cone.f)
    np.testing.assert_array_equal(j[:lead], i[:lead])
    np.testing.assert_array_equal(cone.column(k[lead:], i[lead:], j[lead:]), cols[lead:])
    for b, s in enumerate(cone.s):
        rows = np.sort(rng.choice(s, size=int(rng.integers(0, s + 1)), replace=False))
        for picked in (np.arange(s), rows):
            kb, ib, jb = cone.entries(cone.block_columns(b, picked))
            np.testing.assert_array_equal(kb, b)
            np.testing.assert_array_equal(ib, np.repeat(picked, picked.size))
            np.testing.assert_array_equal(jb, np.tile(picked, picked.size))
        np.testing.assert_array_equal(cone.diagonal(b), cone.column(b, np.arange(s), np.arange(s)))
    # the blocks tile the columns after the orthant, in order
    whole = [cone.block_columns(b, np.arange(s)) for b, s in enumerate(cone.s)]
    np.testing.assert_array_equal(np.concatenate([cols[:lead], *whole]), cols)


@pytest.mark.parametrize("eps", [0.0, -1.0, float("nan"), float("inf")])
def test_eps_validation(eps):
    with pytest.raises(ConicError):
        SolverParams(eps=eps)


def test_objective_value_sense_and_offset():
    problem = ConicProblem(
        A=np.eye(2), b=np.array([2.0, 3.0]), c=np.zeros(2),
        cone=ConeSpec(l=2), sense="max", offset=1.5,
    )
    y = np.array([1.0, 1.0])
    assert problem.objective_value(y) == pytest.approx(1.5 + 5.0)
    problem.sense = "min"
    assert problem.objective_value(y) == pytest.approx(1.5 - 5.0)


def presolve_invariants(problem, res):
    nf = problem.cone.f
    Af = np.asarray(scipy.sparse.csc_matrix(problem.A)[:, :nf].todense())
    assert np.abs(Af.T @ res.y0 - problem.c[:nf]).max() < 1e-9
    if res.N.shape[1]:
        assert np.abs(Af.T @ res.N).max() < 1e-9


def test_presolve_substitution_chain():
    # four equality rows: a pin, an alias onto the pin, an alias chain
    # and one row left for the reduced problem
    A = np.array([
        [2.0, 1.0, 0.0, 0.0, 1.0, 0.0],
        [0.0, 1.0, 1.0, 0.0, 0.0, 1.0],
        [0.0, 0.0, -1.0, 0.0, 1.0, 1.0],
        [0.0, 0.0, 0.0, 1.0, 1.0, 0.0],
    ])
    c = np.array([4.0, 5.0, 1.0, 0.5, 1.0, 1.0])
    b = np.array([1.0, 1.0, 1.0, 1.0])
    problem = ConicProblem(A=A, b=b, c=c, cone=ConeSpec(f=4, l=2))
    res = presolve_eliminate_equalities(problem)
    assert res.status == "ok"
    assert res.n_eliminated == 4
    assert res.problem.cone.f == 0
    assert res.problem.cone.l == 2
    # y0
    assert res.y0[0] == pytest.approx(2.0)  # 2 y1 = 4
    assert res.y0[1] == pytest.approx(3.0)  # y1 + y2 = 5
    assert res.y0[2] == pytest.approx(2.0)  # y2 - y3 = 1
    assert res.y0[3] == pytest.approx(0.5)  # y4 = 0.5
    assert res.N.shape == (4, 0)
    presolve_invariants(problem, res)


def test_presolve_leaves_coupled_rows_to_svd():
    rng = np.random.default_rng(5)
    m, nf, nl = 5, 3, 4
    Af = rng.normal(size=(m, nf))
    Al = rng.normal(size=(m, nl))
    ytrue = rng.normal(size=m)
    A = np.hstack([Af, Al])
    c = np.concatenate([Af.T @ ytrue, rng.uniform(1.0, 2.0, nl)])
    problem = ConicProblem(A=A, b=rng.normal(size=m), c=c,
                           cone=ConeSpec(f=nf, l=nl))
    res = presolve_eliminate_equalities(problem)
    assert res.status == "ok"
    assert res.problem.m == m - nf  # three independent dense rows
    assert res.N.shape == (m, m - nf)
    presolve_invariants(problem, res)
    # the reduced objective agrees with the original on the whole set
    t = rng.normal(size=res.problem.m)
    y = res.y0 + res.N @ t
    assert res.problem.objective_value(t) == pytest.approx(
        problem.objective_value(y)
    )


def _mixed_equality_system(rng, m=40, n_dense=6, n_free=2, n_rows=3):
    """Random consistent equality rows of every kind presolve resolves.

    Moments 0..n_dense-1 meet in n_rows dense rows (left to the SVD),
    the next n_free appear in no row, and each later moment j is either
    pinned by a singleton row or tied to an earlier moment i by a
    doubleton row.  Returns the conic problem and, per moment, the
    exact relation it obeys: ("root",), ("pin", value) or
    ("alias", i, shift, scale) for y_j = shift + scale * y_i.
    """
    y = rng.normal(size=m)
    cols, rhs, relation = [], [], [("root",)] * (n_dense + n_free)

    def coef():
        return rng.choice([-1.0, 1.0]) * rng.uniform(0.8, 1.25)

    for j in range(n_dense + n_free, m):
        col = np.zeros(m)
        if rng.random() < 0.3:
            col[j] = coef()
            relation.append(("pin", y[j]))
        else:
            i = int(rng.integers(0, j))
            col[i], col[j] = coef(), coef()
            d = col[i] * y[i] + col[j] * y[j]
            relation.append(("alias", i, d / col[j], -col[i] / col[j]))
        cols.append(col)
        rhs.append(col @ y)
    for _ in range(n_rows):
        col = np.zeros(m)
        col[:n_dense] = [coef() for _ in range(n_dense)]
        col[int(rng.integers(n_dense + n_free, m))] = coef()
        cols.append(col)
        rhs.append(col @ y)
    order = rng.permutation(len(cols))
    Af = np.array(cols)[order].T
    nl = 2
    A = np.hstack([Af, rng.normal(size=(m, nl))])
    c = np.concatenate([np.array(rhs)[order], rng.uniform(1.0, 2.0, nl)])
    problem = ConicProblem(A=A, b=rng.normal(size=m), c=c, cone=ConeSpec(f=Af.shape[1], l=nl))
    return problem, relation


@pytest.mark.parametrize("seed", range(6))
def test_presolve_lift_matches_entrywise_reference(seed):
    # the lift y = y0 + N t must follow each pin and alias entry by
    # entry from the root rows, which the SVD leftover block fills
    rng = np.random.default_rng(seed)
    problem, relation = _mixed_equality_system(rng)
    res = presolve_eliminate_equalities(problem)
    assert res.status == "ok"
    m, nf = problem.m, problem.cone.f
    N = res.N.toarray()
    assert N.shape == (m, 6 + 2 - 3)
    assert np.all(res.N.data != 0.0)

    # resolve every relation to (pinned value) or (root, shift, scale)
    resolved = []
    for j, rel in enumerate(relation):
        if rel[0] == "root":
            resolved.append(("root", j, 0.0, 1.0))
        elif rel[0] == "pin":
            resolved.append(("pin", rel[1]))
        else:
            _, i, shift, scale = rel
            base = resolved[i]
            if base[0] == "pin":
                resolved.append(("pin", shift + scale * base[1]))
            else:
                _, root, b, a = base
                resolved.append(("root", root, shift + scale * b, scale * a))
    y0_ref = np.zeros(m)
    N_ref = np.zeros_like(N)
    for j, rel in enumerate(resolved):
        if rel[0] == "pin":
            y0_ref[j] = rel[1]
            assert res.N[j].nnz == 0
            continue
        _, root, b, a = rel
        y0_ref[j] = b + a * res.y0[root]
        for t in range(N.shape[1]):
            N_ref[j, t] = a * N[root, t]
    assert np.abs(res.y0 - y0_ref).max() <= 1e-12
    assert np.abs(N - N_ref).max() <= 1e-12

    # the root rows are an orthonormal null-space basis of the dense rows
    roots = [j for j, rel in enumerate(relation) if rel[0] == "root"]
    assert np.abs(N[roots].T @ N[roots] - np.eye(N.shape[1])).max() <= 1e-12
    Af = problem.A[:, :nf]
    assert np.abs(Af.T @ res.y0 - problem.c[:nf]).max() <= 1e-12
    assert np.abs(Af.T @ N).max() <= 1e-12


def free_column_problem(rng, m=12, nf=8, l=2, s=3):
    """A strictly feasible problem with nf free columns among m rows.

    The planted free entries are of order 1e3 and the cone entries of
    order 1, so the right side presolve's lift solves for the free
    entries is large against the residual the inner solve leaves.
    """
    def pd():
        G = rng.normal(size=(s, s))
        return (G @ G.T + 0.5 * np.eye(s)).reshape(-1)

    A = np.vstack([
        np.concatenate([rng.normal(size=nf + l), (S + S.T).reshape(-1)])
        for S in rng.normal(size=(m, s, s))
    ])
    x0 = np.concatenate([1e3 * rng.normal(size=nf), rng.uniform(0.5, 1.5, l), pd()])
    z0 = np.concatenate([np.zeros(nf), rng.uniform(0.5, 1.5, l), pd()])
    c = A.T @ rng.normal(size=m) + z0
    return ConicProblem(A=A, b=A @ x0, c=c, cone=ConeSpec(f=nf, l=l, s=(s,)))


def _lifted_residual(problem, inner_problem, inner, lifted):
    """Absolute residuals ||b - Ax||_inf of the inner and the lifted point."""
    inner_res = np.abs(inner_problem.b - inner_problem.A @ inner.x).max()
    return inner_res, np.abs(problem.b - problem.A @ lifted.x).max()


@pytest.mark.parametrize("seed", range(8))
def test_presolve_lift_meets_the_rows_as_well_as_the_inner_solve(seed):
    # lsqr must not stop at a tolerance relative to its right side: the
    # lifted point misses A x = b by no more than a small multiple of
    # what the inner point misses its own rows by, plus rounding
    problem = free_column_problem(np.random.default_rng(seed))
    red = presolve_eliminate_equalities(problem)
    inner = solve(red.problem)
    lifted = conic_module.lift(problem, red, inner)
    inner_res, res = _lifted_residual(problem, red.problem, inner, lifted)
    floor = 100 * np.finfo(float).eps * np.abs(problem.b).max()
    assert res <= 10.0 * inner_res + floor, (res, inner_res)


def test_maxcut_nosub_lifted_point_meets_the_rows(monkeypatch):
    # presolve's right side reaches ~1e6 here, as X grows along the
    # kernel of the duplicate rows; the orbit and split lifts keep the
    # residual presolve's lift leaves
    calls = []
    solve_ipm = conic_module.solve

    def recording(problem, *args, **kwargs):
        sol = solve_ipm(problem, *args, **kwargs)
        calls.append((problem, sol))
        return sol

    monkeypatch.setattr(conic_module, "solve", recording)
    with open(model_path("maxcut_nosub.gpm")) as fh:
        sol = solve_gpm(parse_model(fh.read()), order=2)
    ((inner_problem, inner),) = calls
    problem = to_conic(sol.msdp)
    inner_res, res = _lifted_residual(problem, inner_problem, inner, sol.conic)
    assert res <= 10.0 * inner_res, (res, inner_res)


def test_presolve_inconsistent_rows():
    # two pins on the same dual variable with different values
    A = np.array([[2.0, 1.0, 1.0]])
    c = np.array([4.0, 1.0, 1.0])
    problem = ConicProblem(A=A, b=np.array([1.0]), c=c,
                           cone=ConeSpec(f=2, l=1))
    res = presolve_eliminate_equalities(problem)
    assert res.status == "infeasible"
    assert res.residual > 0.5


def test_presolve_consistent_duplicates():
    A = np.array([[2.0, 1.0, 1.0]])
    c = np.array([4.0, 2.0, 1.0])
    problem = ConicProblem(A=A, b=np.array([1.0]), c=c,
                           cone=ConeSpec(f=2, l=1))
    res = presolve_eliminate_equalities(problem)
    assert res.status == "ok"
    assert res.y0[0] == pytest.approx(2.0)


def equality_problem(m, rows):
    """Equality rows {i: coefficient}, rhs on m moments, plus two orthant columns."""
    rng = np.random.default_rng(len(rows))
    Af = np.zeros((m, len(rows)))
    for k, (coeffs, _) in enumerate(rows):
        for i, c in coeffs.items():
            Af[i, k] = c
    A = np.hstack([Af, rng.normal(size=(m, 2))])
    c = np.concatenate([[rhs for _, rhs in rows], rng.uniform(1.0, 2.0, 2)])
    return ConicProblem(A=A, b=rng.normal(size=m), c=c,
                        cone=ConeSpec(f=len(rows), l=2))


def substitution_pass(problem):
    """Stage-1 pass, checked against the SVD pass on the same rows.

    Both must parameterize the same set {y0 + N t} and give the same
    reduced objective and slacks on it.
    """
    res = conic_module._presolve_pass(problem, substitute=True)
    ref = conic_module._presolve_pass(problem, substitute=False)
    assert res.status == ref.status == "ok"
    N, Nr = res.N.toarray(), ref.N.toarray()
    assert N.shape == Nr.shape
    proj = Nr @ np.linalg.lstsq(Nr, N, rcond=None)[0] if Nr.shape[1] else 0.0 * N
    assert np.abs(proj - N).max(initial=0.0) <= 1e-9
    if N.shape[1]:
        assert np.linalg.matrix_rank(N) == N.shape[1]
    d = res.y0 - ref.y0
    if Nr.shape[1]:
        d = d - Nr @ np.linalg.lstsq(Nr, d, rcond=None)[0]
    assert np.abs(d).max() <= 1e-9
    nf = problem.cone.f
    A_rest = problem.A[:, nf:]
    rng = np.random.default_rng(1)
    for _ in range(3):
        t = rng.normal(size=N.shape[1])
        y = res.y0 + N @ t
        tr = np.linalg.lstsq(Nr, y - ref.y0, rcond=None)[0] if Nr.shape[1] else t[:0]
        for out, tt in ((res, t), (ref, tr)):
            assert out.problem.objective_value(tt) == pytest.approx(
                problem.objective_value(y), abs=1e-9
            )
            slack = out.problem.c - out.problem.A.T @ tt
            assert np.abs(slack - (problem.c[nf:] - A_rest.T @ y)).max() <= 1e-9
    return res


def test_presolve_drops_a_consistent_cycle():
    # y0 - y1 = 1, y1 - y2 = 2 and y2 - y0 = -3 close a cycle whose
    # third row adds nothing
    problem = equality_problem(4, [
        ({0: 1.0, 1: -1.0}, 1.0),
        ({1: 1.0, 2: -1.0}, 2.0),
        ({2: 1.0, 0: -1.0}, -3.0),
    ])
    res = substitution_pass(problem)
    assert res.N.shape == (4, 2)


def test_presolve_reports_an_inconsistent_cycle():
    # the three rows sum to 0 = 3
    problem = equality_problem(3, [
        ({0: 1.0, 1: -1.0}, 1.0),
        ({1: 1.0, 2: -1.0}, 1.0),
        ({2: 1.0, 0: -1.0}, 1.0),
    ])
    res = conic_module._presolve_pass(problem, substitute=True)
    assert res.status == "infeasible"
    assert res.residual == pytest.approx(3.0)
    assert conic_module._presolve_pass(problem, substitute=False).status == "infeasible"


def test_presolve_pins_a_cycle_whose_scales_do_not_multiply_to_one():
    # y0 = 2 y1, y1 = y2 and y2 = y0 + 1 leave y0 = -2, y1 = y2 = -1
    problem = equality_problem(4, [
        ({0: 1.0, 1: -2.0}, 0.0),
        ({1: 1.0, 2: -1.0}, 0.0),
        ({2: 1.0, 0: -1.0}, 1.0),
    ])
    res = substitution_pass(problem)
    assert res.y0[:3] == pytest.approx([-2.0, -1.0, -1.0])
    assert res.N.shape == (4, 1)
    assert res.N[:3].nnz == 0


@pytest.mark.parametrize("second", [3.375, 4.375])
def test_presolve_checks_two_pins_in_one_alias_component(second):
    # the doubletons alias y1 and y2 onto y0; only then do both 3-entry
    # rows resolve to singletons on y0, the second a check of the first
    problem = equality_problem(4, [
        ({0: 1.0, 1: -1.0}, 0.0),
        ({1: 2.0, 2: -1.0}, 0.0),
        ({0: 1.0, 1: 1.0, 2: 1.0}, 3.0),
        ({0: 2.0, 1: 0.5, 2: 1.0}, second),
    ])
    if second == 3.375:
        res = substitution_pass(problem)
        assert res.y0[:3] == pytest.approx([0.75, 0.75, 1.5])
        assert res.N.shape == (4, 1)
    else:
        res = conic_module._presolve_pass(problem, substitute=True)
        assert res.status == "infeasible"
        assert res.residual == pytest.approx(1.0)
        assert conic_module._presolve_pass(problem, substitute=False).status == "infeasible"


def test_presolve_pins_and_aliases_in_one_round():
    # y3 = 2 pins while y0 - y1 and y1 - 3 y2 alias in the same round;
    # y2 - y3 then pins the whole chain
    problem = equality_problem(5, [
        ({3: 1.0}, 2.0),
        ({0: 1.0, 1: -1.0}, 0.0),
        ({1: 1.0, 2: -3.0}, 1.0),
        ({2: 1.0, 3: -1.0}, 0.0),
    ])
    res = substitution_pass(problem)
    assert res.y0[:4] == pytest.approx([7.0, 7.0, 2.0, 2.0])
    assert res.N.shape == (5, 1)


def test_presolve_aliases_a_row_that_a_pin_makes_a_doubleton():
    # y0 = 2 turns y0 + y1 + 2 y2 = 5 into the alias y1 = 3 - 2 y2
    problem = equality_problem(4, [
        ({0: 1.0, 1: 1.0, 2: 2.0}, 5.0),
        ({0: 1.0}, 2.0),
    ])
    res = substitution_pass(problem)
    assert res.y0[0] == pytest.approx(2.0)
    assert res.N.shape == (4, 2)
    # y1 is the root of the merged pair and y2 its alias
    assert res.N[2].nnz == res.N[1].nnz == 1


def test_presolve_then_solve_matches_direct():
    # eliminate one equality and check the lifted solve agrees with
    # the closed form: min x2 + x3 on x2 + x3 = 1 shifted by the pin
    A = np.array([
        [1.0, 1.0, 0.0],
        [0.0, 1.0, 1.0],
    ])
    c = np.array([3.0, 1.0, 1.0])
    b = np.array([0.0, 1.0])
    problem = ConicProblem(A=A, b=b, c=c, cone=ConeSpec(f=1, l=2))
    sol = solve_conic(problem)
    assert sol.status == "solved"
    assert sol.y[0] == pytest.approx(3.0)  # pinned by the free column
    assert np.abs(problem.A @ sol.x - b).max() < 1e-7


def test_presolved_solve_reports_the_objectives_of_its_input():
    # rational-1 has equality rows: presolve moves b'y0 = 0.5 out of the
    # problem it solves, and both objectives must include it again
    with open(model_path("rational.gpm")) as fh:
        problem = to_conic(assemble(parse_model(fh.read()), 1))
    assert problem.cone.f
    sol = solve_conic(problem)
    assert sol.status == "solved"
    assert sol.pobj == pytest.approx(problem.c @ sol.x, abs=1e-8)
    assert sol.dobj == pytest.approx(problem.b @ sol.y, abs=1e-8)


def zero_diagonal_problem():
    """Dual slacks z_l = -y1 - y2, Z00 = y1, Z11 = y2, summing to 0."""
    A = np.zeros((2, 5))
    A[:, 0] = [1.0, 1.0]   # orthant slack
    A[:, 1] = [-1.0, 0.0]  # Z00
    A[:, 4] = [0.0, -1.0]  # Z11
    return ConicProblem(A=A, b=np.zeros(2), c=np.zeros(5), cone=ConeSpec(l=1, s=(2,)))


def second_block_problem():
    """y = (y1, y2, y3); slacks z_l = 1 - y1, Z1 = [[1 + y1, y2], [y2, 1 - y1]]
    and Z2 = [[y3, 0.5 - y2], [0.5 - y2, -y3]], max y1 - 0.2 y3."""
    A = np.zeros((3, 9))
    c = np.zeros(9)
    c[0] = 1.0
    A[0, 0] = 1.0
    c[1] = c[4] = 1.0
    A[0, 1], A[0, 4] = -1.0, 1.0
    A[1, 2] = A[1, 3] = -1.0
    A[2, 5], A[2, 8] = -1.0, 1.0
    c[6] = c[7] = 0.5
    A[1, 6] = A[1, 7] = 1.0
    b = np.array([1.0, 0.0, -0.2])
    return ConicProblem(A=A, b=b, c=c, cone=ConeSpec(l=1, s=(2, 2)))


def point_mass_problem():
    """A measure squeezed to the origin by x'x <= 0, with one moment
    equality: cone f = 1, l = 1, s = (3,)."""
    ctx = ModelContext()
    x = ctx.vars("x", 2)
    return to_conic(assemble(GPMProblem(
        minimize(mom(1 + x[0] + x[1])),
        [x[0] ** 2 + x[1] ** 2 <= 0, mom(x[0] + 2 * x[1]) == 0],
    )))


def test_facial_reduction_zero_diagonal():
    # the three slacks sum to zero identically, so all three are
    # certified zero on the dual set and the interior-point iteration
    # only sees the reduced problem
    problem = zero_diagonal_problem()
    red = _reduce_zero_diagonals(problem)
    assert red is not None
    sol = solve_conic(problem)
    assert sol.status == "solved"
    assert abs(sol.pobj) < 1e-8
    # the dual set is the single point y = 0
    assert np.abs(sol.y).max() < 1e-8


def test_facial_reduction_lifts_into_the_second_of_two_blocks():
    # Z2's diagonal sums to zero, so facial reduction forces Z2 = 0
    # (y2 = 0.5, y3 = 0) and max y1 subject to Z1 psd gives y1 = sqrt(3)/2
    problem = second_block_problem()
    A, b, c = problem.A.toarray(), problem.b, problem.c
    red = _reduce_zero_diagonals(problem)
    assert red.problem.cone == ConeSpec(f=3, l=1, s=(2,))
    sol = solve_conic(problem)
    assert sol.status == "solved"
    assert sol.y == pytest.approx([np.sqrt(0.75), 0.5, 0.0], abs=1e-7)
    assert np.abs(A @ sol.x - b).max() < 1e-9
    assert c @ sol.x == pytest.approx(sol.pobj, abs=1e-9)
    # reduced columns: 3 added pins, the orthant, then block 1's entries
    xr = solve_conic(red.problem).x
    expected = np.concatenate([xr[3:8], [xr[0], xr[1], xr[1], xr[2]]])
    assert np.array_equal(sol.x, expected)


def test_no_facial_reduction_with_interior():
    problem = ConicProblem(
        A=np.eye(2).reshape(1, -1), b=np.array([1.0]),
        c=np.arange(4.0), cone=ConeSpec(s=(2,)),
    )
    assert _reduce_zero_diagonals(problem) is None


def test_facial_reduction_then_presolve():
    # presolve runs first, so the reduction sees no free column; it adds
    # its pins to the free cone, so presolve runs again on its output and
    # the lifts chain
    problem = point_mass_problem()
    assert problem.cone == ConeSpec(f=1, l=1, s=(3,))
    with pytest.raises(ConicError, match="without free columns"):
        _reduce_zero_diagonals(problem)
    assert _reduce_zero_diagonals(presolve_eliminate_equalities(problem).problem) is not None
    sol = solve_conic(problem)
    assert sol.status == "solved"
    A = problem.A
    assert np.abs(A @ sol.x - problem.b).max() <= 1e-9
    assert problem.c @ sol.x == pytest.approx(sol.pobj, abs=1e-9)
    assert problem.b @ sol.y == pytest.approx(sol.dobj, abs=1e-9)
    np.testing.assert_array_equal(sol.z, problem.c - A.T @ sol.y)


def top_degree_free_problem():
    """min of a convex quadratic in two variables at order 2: the
    moments of degree 3 and 4 appear only in M_2, none in the objective."""
    ctx = ModelContext()
    x = ctx.vars("x", 2)
    return to_conic(assemble(GPMProblem(minimize(mom(x[0] ** 2 + x[1] ** 2 - x[0] * x[1] - x[0]))), 2))


def test_forced_entries_go_and_their_moments_are_undetermined(monkeypatch):
    # x1^4 and x2^4 sit on one diagonal of M_2 each, so they force the
    # rows x1^2 and x2^2 of M_2 to 0; then x1^2 x2^2 sits on one live
    # diagonal only and forces the row x1 x2: M_2 keeps 1, x1, x2, and
    # every moment of degree 3 and 4 is left in no live entry
    problem = top_degree_free_problem()
    assert problem.cone == ConeSpec(s=(6,)) and not problem.b[5:].any()
    red = _drop_forced_entries(problem)
    assert red.problem.cone == ConeSpec(s=(3,)) and red.problem.m == 5
    dropped = np.isnan(red.y0)
    np.testing.assert_array_equal(np.flatnonzero(dropped), np.arange(5, 14))
    # the rows that forced entries, x1^4, x1^2 x2^2, x2^4, give the
    # recession direction: the slack rises by >= 1 on each forced diagonal
    np.testing.assert_array_equal(np.flatnonzero(red.recession), [9, 11, 13])
    assert problem.b @ red.recession == 0.0
    rise = -(problem.A.T @ red.recession)
    kept = red.X @ np.ones(red.X.shape[1]) > 0
    diagonal = problem.cone.diagonal(0)
    assert (rise[diagonal[~kept[diagonal]]] >= 1.0).all() and not rise[kept].any()

    sol = solve_conic(problem)
    assert sol.status == "solved"
    np.testing.assert_array_equal(np.isnan(sol.y), dropped)
    assert not sol.x[~kept].any()
    assert np.abs(problem.A @ sol.x - problem.b).max() < 1e-9
    np.testing.assert_array_equal(sol.recession, red.recession)
    # 0 * NaN of the dropped rows does not reach either objective
    assert problem.objective_value(sol.y) == pytest.approx(-1.0 / 3.0, abs=1e-7)
    assert np.isfinite(sol.dobj) and np.isfinite(sol.pobj)
    monkeypatch.setattr(conic_module, "_drop_forced_entries", lambda problem: None)
    whole = solve_conic(problem)
    assert not np.isnan(whole.y).any()
    assert problem.objective_value(sol.y) == pytest.approx(
        problem.objective_value(whole.y), abs=1e-6
    )


@pytest.mark.parametrize("c11,status,message", [
    (1.0, "infeasible", "entries forced to 0 leave a row of A empty with b_k = 1"),
    (-1.0, "unbounded", "a cone entry no row touches has c_j = -1 < 0"),
])
def test_a_row_left_empty_with_b_nonzero_ends_the_solve(c11, status, message):
    # X_00 = 0 forces row and column 0 of X, which leaves 2 X_01 = 1
    # with no live entry: no x exists.  With c_11 < 0 the entry X_11,
    # which no row touches, is also a primal improving ray, so no y
    # exists either, which the solver reports first
    problem = ConicProblem(
        A=np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 1.0, 0.0]]), b=np.array([0.0, 1.0]),
        c=np.array([1.0, 0.0, 0.0, c11]), cone=ConeSpec(s=(2,)),
    )
    assert _drop_forced_entries(problem).status == status
    sol = solve_conic(problem)
    assert (sol.status, sol.iterations, sol.message) == (status, 0, message)


def test_no_forced_entry_on_the_max_cut_models():
    for name, order in [("maxcut_sub.gpm", 3), ("maxcut_nosub.gpm", 2)]:
        with open(model_path(name)) as fh:
            problem = presolve_eliminate_equalities(
                to_conic(assemble(parse_model(fh.read()), order))
            )
        problem = problem.problem if problem.problem is not None else problem
        assert _drop_forced_entries(problem) is None


def zero_sum_problem(rng, plant):
    """A random problem with integer data, PSD blocks symmetric; with
    ``plant``, a positive integer combination of some orthant and
    diagonal columns of [A; c'] is zero, so those slacks vanish on the
    whole dual set."""
    while True:
        cone = ConeSpec(l=int(rng.integers(0, 3)), s=tuple(rng.integers(1, 4, rng.integers(1, 3))))
        candidates = np.concatenate(
            [np.arange(cone.l)] + [cone.diagonal(k) for k in range(len(cone.s))]
        )
        if candidates.size >= 2:
            break
    m = int(rng.integers(2, 6))
    data = rng.integers(-2, 3, size=(m + 1, cone.total_length)) * (rng.random((m + 1, cone.total_length)) < 0.5)
    for k, order in enumerate(cone.s):
        i, j = np.triu_indices(order, 1)
        data[:, cone.column(k, j, i)] = data[:, cone.column(k, i, j)]
    if plant:
        zero = rng.choice(candidates, size=int(rng.integers(2, min(4, candidates.size) + 1)), replace=False)
        lam = rng.integers(1, 3, size=zero.size - 1)
        data[:, zero[-1]] = -data[:, zero[:-1]] @ lam
    return ConicProblem(A=data[:m], b=rng.standard_normal(m), c=data[m], cone=cone)


def test_sign_screen_never_rules_out_a_certificate(monkeypatch):
    """The screen keeps every column of each certificate the LP finds
    without it, and with it the reduction is the same: on the
    hand-made problems and on random ones with and without a planted
    zero-sum set of diagonals."""
    import scipy.optimize

    linprog, found = scipy.optimize.linprog, []

    def recording_linprog(*args, **kwargs):
        found.append(linprog(*args, **kwargs))
        return found[-1]

    monkeypatch.setattr(scipy.optimize, "linprog", recording_linprog)
    rng = np.random.default_rng(7)
    problems = [
        zero_diagonal_problem(), second_block_problem(),
        presolve_eliminate_equalities(point_mass_problem()).problem,
        trace_problem(),
    ] + [zero_sum_problem(rng, plant) for plant in (True, False) for _ in range(40)]
    outcomes = []
    for problem in problems:
        cone = problem.cone
        cols = np.concatenate([np.arange(cone.l)] + [cone.diagonal(k) for k in range(len(cone.s))])
        B = np.vstack([problem.A[:, cols].toarray(), problem.c[cols]])
        alive = conic_module._certificate_candidates(B)
        found.clear()
        with monkeypatch.context() as patch:
            patch.setattr(conic_module, "_certificate_candidates", lambda B: np.ones(B.shape[1], dtype=bool))
            unscreened = _reduce_zero_diagonals(problem)
        (res,) = found
        if res.success:
            assert not (res.x > 1e-6)[~alive].any()
        screened = _reduce_zero_diagonals(problem)
        assert (screened is None) == (unscreened is None)
        if screened is not None:
            assert screened.problem.cone == unscreened.problem.cone
            assert (screened.problem.A != unscreened.problem.A).nnz == 0
        outcomes.append((unscreened is not None, bool(alive.any())))
    # every planted problem keeps a certificate; most unplanted ones are
    # ruled out by the screen alone
    assert all(certified for certified, _ in outcomes[:3] + outcomes[4:44])
    assert sum(not alive for _, alive in outcomes[44:]) >= 10


def _lp_calls_per_solve(monkeypatch, name, order, seed=0):
    """LP calls of the facial reduction per solve_conic call of solve_gpm."""
    import scipy.optimize

    # the package rebinds the name `certify` to the function
    certify_module = importlib.import_module("gpmkit.certify")
    linprog, solve_conic = scipy.optimize.linprog, certify_module.solve_conic
    counts = []

    def counting_linprog(*args, **kwargs):
        counts[-1] += 1
        return linprog(*args, **kwargs)

    def counting_solve_conic(problem, params=None):
        counts.append(0)
        return solve_conic(problem, params)

    monkeypatch.setattr(scipy.optimize, "linprog", counting_linprog)
    monkeypatch.setattr(certify_module, "solve_conic", counting_solve_conic)
    with open(model_path(name)) as fh:
        sol = certify_module.solve_gpm(parse_model(fh.read(), name), order=order, seed=seed)
    assert sol.status >= 0
    return counts


@pytest.mark.parametrize(
    "name,order,lp_calls",
    [
        ("camel.gpm", 3, [0, 0]), ("camel.gpm", 4, [0, 0]), ("rational.gpm", 1, [0]),
        ("rational.gpm", 2, [0]), ("quadratic3.gpm", 1, [0]), ("quadratic3.gpm", 2, [0]),
        ("quadratic3.gpm", 3, [0]), ("quadratic3.gpm", 4, [0]), ("maxcut_sub.gpm", 3, [0]),
        ("maxcut_nosub.gpm", 2, [0]),
    ],
)
def test_no_facial_reduction_lp_on_the_paper_models(monkeypatch, name, order, lp_calls):
    # the sign screen rules out a certificate on every top-level problem
    # and on camel-3/4's re-centering face problems, whose slacks at the
    # point they are centered on are all positive
    assert _lp_calls_per_solve(monkeypatch, name, order) == lp_calls


def test_no_facial_reduction_lp_when_quadratic3_order_four_re_centers(monkeypatch):
    # with extraction refused below M_r, quadratic3-4's top-level point
    # is not certified and solve_gpm re-centers, around a point whose
    # undetermined moments moved along the recession direction
    refuse_extraction(monkeypatch)
    assert _lp_calls_per_solve(monkeypatch, "quadratic3.gpm", 4) == [0, 0]


def test_every_producer_hands_on_the_problem_layout(tmp_path):
    """to_conic, the reductions, the face problem and both readers all
    give A as float64 CSC and b, c as float64 vectors."""
    def layout(problem):
        return (problem.A.format, problem.A.dtype, problem.b.dtype, problem.c.dtype)

    want = ("csc", np.float64, np.float64, np.float64)
    with open(model_path("rational.gpm")) as fh:
        rational = to_conic(assemble(parse_model(fh.read())))
    camel_msdp = assemble(camel_problem()[1], 3)
    camel = to_conic(camel_msdp)
    classes = sign_classes(camel_msdp)
    orbits = reduce_by_orbits(camel, sign_flips(camel, classes.moments, classes.blocks)).problem
    point_mass = point_mass_problem()
    export_sdpa(camel, tmp_path / "camel.dat-s")
    export_json(rational, tmp_path / "rational.json")
    problems = {
        "to_conic": rational,
        "presolve": presolve_eliminate_equalities(rational).problem,
        "reduce_by_orbits": orbits,
        "split_by_pattern": split_by_pattern(orbits).problem,
        "_reduce_zero_diagonals": _reduce_zero_diagonals(
            presolve_eliminate_equalities(point_mass).problem
        ).problem,
        "_face_problem": _face_problem(
            camel, camel.cone.diagonal(0)[-3:], [(0, 1.0, 0.1)], -1.0, 0.1
        ),
        "import_sdpa": import_sdpa(tmp_path / "camel.dat-s"),
        "import_json": import_json(tmp_path / "rational.json"),
    }
    assert {name: layout(p) for name, p in problems.items()} == dict.fromkeys(problems, want)


def test_point_mass_support_solves():
    # squeeze a measure to the origin: x'x <= 0 forces a rank-one
    # moment matrix with zero diagonals, solvable only after reduction
    from gpmkit import GPMProblem, ModelContext, minimize, mom, solve_gpm

    ctx = ModelContext()
    x = ctx.vars("x", 2)
    problem = GPMProblem(
        minimize(mom(1 + x[0] + x[1])),
        [x[0] ** 2 + x[1] ** 2 <= 0],
    )
    sol = solve_gpm(problem)
    assert sol.status == 1
    assert sol.objective == pytest.approx(1.0, abs=1e-6)
    points, weights = sol.support(1)
    assert np.abs(points).max() < 1e-6


def test_to_conic_camel_shape():
    ctx, problem = camel_problem()
    msdp = assemble(problem, 3)
    conic = to_conic(msdp)
    assert conic.m == 27
    assert conic.cone.f == 0
    assert conic.cone.l == 0
    assert conic.cone.s == (10,)
    sol = solve_conic(conic)
    assert sol.status == "solved"
    assert conic.objective_value(sol.y) == pytest.approx(-1.0316, abs=1e-3)


# -- reference conic form, built one RefForm and one entry at a time


def _shifted(terms, t):
    return {tuple(a + b for a, b in zip(mono, t)): c for mono, c in terms.items()}


def _reference_dedup(forms, keep_infeasible):
    seen, out = set(), []
    for form in forms:
        if not form.coeffs and (form.const == 0.0 if keep_infeasible else form.const >= 0.0):
            continue
        key = (form.const, tuple(sorted(form.coeffs.items())))
        if key not in seen:
            seen.add(key)
            out.append(form)
    return out


def _reference_relaxation(msdp):
    """Reference forms of the relaxation, and its rows as RefForms."""
    problem, order = msdp.problem, msdp.order
    ref = ReferenceForms(problem, order)
    plan, index = ref.plan, ref.index
    eq, ineq = [], []
    for con in plan.support_inequalities:
        g = con.gform()
        v = math.ceil(g.degree / 2)
        reps = index.representatives[con.measure]
        if len([t for t in reps if sum(t) <= order - v]) <= 1:
            ineq.append(ref.form_of_poly(con.measure, g))
    for measure, g in plan.residual_support_equalities:
        v = math.ceil(g.degree / 2)
        terms = ref.exponents[measure].terms(g)
        for gamma in map(tuple, index.raw_exponents[measure].tolist()):
            if sum(gamma) <= 2 * (order - v):
                eq.append(ref.form_of_terms(measure, _shifted(terms, gamma)))
    for con in plan.kept_moment_constraints:
        form = ref.form_of_expression(con.residual())
        if con.rel == "==":
            eq.append(form)
        elif con.rel == ">=":
            ineq.append(form)
        else:
            ineq.append(form.scaled(-1.0))
    return ref, _reference_dedup(eq, True), _reference_dedup(ineq, False)


def _reference_entries(ref, block):
    """(i, j, form) of a block's upper triangle, from its basis monomials."""
    exponents = ref.exponents[block.measure]
    basis = list(map(tuple, block.basis.tolist()))
    g = None if block.source is None else exponents.terms(block.source.gform())
    for i, bi in enumerate(basis):
        for j in range(i, len(basis)):
            prod = tuple(a + b for a, b in zip(bi, basis[j]))
            if g is None:
                yield i, j, ref.form_of_exponents(block.measure, prod)
            else:
                yield i, j, ref.form_of_terms(block.measure, _shifted(g, prod))


def reference_conic(msdp):
    """The conic form of msdp by the per-entry COO construction."""
    ref, eq, ineq = _reference_relaxation(msdp)
    m = len(ref.var_of)
    cone = ConeSpec(f=len(eq), l=len(ineq), s=tuple(b.size for b in msdp.blocks))
    rows, cols, vals, cvals = [], [], [], []
    signed = [(form, 1.0) for form in eq] + [(form, -1.0) for form in ineq]
    for col, (form, sign) in enumerate(signed):
        for idx, coef in form.coeffs.items():
            rows.append(idx)
            cols.append(col)
            vals.append(sign * coef)
        cvals.append(-sign * form.const)
    for block, base in zip(msdp.blocks, cone.psd_starts):
        size = block.size
        centries = np.zeros((size, size))
        for i, j, form in _reference_entries(ref, block):
            centries[i, j] = centries[j, i] = form.const
            for idx, coef in form.coeffs.items():
                rows.append(idx)
                cols.append(base + i * size + j)
                vals.append(-coef)
                if i != j:
                    rows.append(idx)
                    cols.append(base + j * size + i)
                    vals.append(-coef)
        cvals.extend(centries.reshape(-1).tolist())
    A = scipy.sparse.csr_matrix((vals, (rows, cols)), shape=(m, cone.total_length), dtype=float)
    objective = ref.form_of_expression(msdp.problem.objective.expr)
    obj = np.zeros(m)
    for idx, coef in objective.coeffs.items():
        obj[idx] = coef
    b = obj if msdp.sense == "max" else -obj
    return ConicProblem(
        A=A, b=b, c=np.asarray(cvals), cone=cone, sense=msdp.sense, offset=objective.const
    )


def reference_mmat(msdp, y, measure):
    ref, _, _ = _reference_relaxation(msdp)
    (block,) = [b for b in msdp.blocks if b.kind == "moment" and b.measure is measure]
    M = np.zeros((block.size, block.size))
    for i, j, form in _reference_entries(ref, block):
        M[i, j] = M[j, i] = form.value(y)
    return M


def assert_same_bytes(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def assert_same_conic(got, want):
    assert (got.cone, got.sense, got.offset) == (want.cone, want.sense, want.offset)
    A, B = got.A.tocsr(), want.A.tocsr()
    assert A.shape == B.shape and A.has_canonical_format
    for a, b in ((A.indptr, B.indptr), (A.indices, B.indices), (A.data, B.data)):
        assert_same_bytes(a, b)
    assert_same_bytes(got.b, want.b)
    assert_same_bytes(got.c, want.c)


def random_gpm_problem(seed):
    """A problem with every kind of conic row, block and affine form.

    It has a multi-term substitution rule, residual support equalities
    (one repeated, one that the rule cancels), localizing blocks, an
    orthant row from a support inequality of degree 2r, moment bindings
    whose forms have several terms, moment rows of each relation and
    constant rows that hold; seeds 2 and 6 add a constant row that
    fails, odd seeds a second measure.
    """
    rng = np.random.default_rng(seed)
    order = 2 + seed % 2
    # not dyadic, so that sums of products depend on their order
    coeffs = [-1.3, -1.0, -0.7, 0.1, 0.3, 1.0, 2.9]

    def poly(xs, degree, nterms):
        p = 0.0 * xs[0]
        for _ in range(nterms):
            term = float(rng.choice(coeffs))
            for _ in range(int(rng.integers(0, degree + 1))):
                term = term * xs[int(rng.integers(len(xs)))]
            p = p + term
        return p

    ctx = ModelContext()
    x = list(ctx.vars("x", 3))
    a = x[:2] if seed % 2 else x
    cons = [
        a[0] ** 2 == 0.3 * a[0] + 0.7 * a[1] - 0.1,
        a[0] ** 2 - 0.3 * a[0] - 0.7 * a[1] + 0.1 == 0,
        2.0 * a[1] ** 2 - a[0] * a[1] + poly(a, 1, 2) == 0.75,
        2.0 * a[1] ** 2 - a[0] * a[1] + 1.0 == 0.75,
        2.0 * a[1] ** 2 - a[0] * a[1] + 1.0 == 0.75,
        a[0] * a[1] + poly(a, 1, 3) >= 0,
        1.0 - a[0] ** 2 - a[1] ** 2 >= 0,
        1.0 - a[1] ** (2 * order) >= 0,
        mass(ctx.measure(1)) == 1,
        mom(a[1]) == 0.3 + 0.7 * mom(a[0] * a[1]),
        mom(a[1] ** 2) == mom(a[0]) - 0.1 * mom(a[1]) + 1.3 * mom(a[1] ** 3),
        mom(a[0] ** 3 + poly(a, 2, 4)) >= -1.0,
        mom(a[1] ** 4 + poly(a, 3, 4)) <= 2.0,
        mom(a[0]) >= -1.0,
        mom(a[0]) >= -1.0,
        mom(a[0] ** 2 - 0.3 * a[0] - 0.7 * a[1]) >= -1.0,
    ]
    if seed % 4 == 2:
        cons.append(mom(a[0] ** 2 - 0.3 * a[0] - 0.7 * a[1]) == 0.0)  # constant, fails
    objective = mom(a[0] * a[1] ** 2 + poly(a, 2, 5))
    if seed % 2:
        ctx.new_measure([x[2]])
        cons += [
            1.0 - x[2] ** 2 >= 0,
            mass(ctx.measure(2)) == 0.5,
            mom(a[0] * a[1]) + mom(x[2] ** 2) == 0.4,
        ]
        objective = objective + mom(x[2] ** 2 + poly([x[2]], 1, 2))
    sense = maximize if seed % 3 == 0 else minimize
    return GPMProblem(sense(objective), cons), order


PAPER_CASES = [
    ("camel", 3), ("rational", 1), ("quadratic3", 1), ("quadratic3", 2),
    ("maxcut_sub", 2), ("maxcut_nosub", 2),
]


@pytest.mark.parametrize("name,order", PAPER_CASES)
def test_to_conic_matches_the_per_entry_reference_on_paper_models(name, order):
    with open(model_path(f"{name}.gpm")) as fh:
        msdp = assemble(parse_model(fh.read()), order)
    assert_same_conic(to_conic(msdp), reference_conic(msdp))
    y = np.random.default_rng(order).normal(size=msdp.n_vars)
    for measure in msdp.problem.measures:
        assert_same_bytes(mmat_values(msdp, y, measure), reference_mmat(msdp, y, measure))


@pytest.mark.parametrize("seed", range(8))
def test_to_conic_matches_the_per_entry_reference_on_random_problems(seed):
    problem, order = random_gpm_problem(seed)
    msdp = assemble(problem, order)
    kinds = [b.kind for b in msdp.blocks]
    assert kinds.count("moment") == len(problem.measures) and "localizing" in kinds
    assert len(msdp.lin_eq) and len(msdp.lin_ineq)
    assert msdp.report.n_moment_substitutions >= 2
    assert max(np.diff(b.forms.coeffs.indptr).max() for b in msdp.blocks) >= 2
    assert_same_conic(to_conic(msdp), reference_conic(msdp))
    y = np.random.default_rng(seed).normal(size=msdp.n_vars)
    for measure in problem.measures:
        assert_same_bytes(mmat_values(msdp, y, measure), reference_mmat(msdp, y, measure))


@pytest.mark.parametrize("seed", range(8))
def test_objective_and_bound_forms_match_the_reference_in_stored_order(seed):
    # b is dense, so only the rows show the order in which certify sums
    # the objective; odd seeds sum it over two measures
    problem, order = random_gpm_problem(seed)
    msdp = assemble(problem, order)
    ref = ReferenceForms(msdp.problem, msdp.order)
    assert list(msdp.index.bound) == list(ref.bound)
    pairs = [(msdp.objective, ref.form_of_expression(msdp.problem.objective.expr))]
    pairs += [(form, ref.bound[key]) for key, form in msdp.index.bound.items()]
    for rows, want in pairs:
        assert len(rows) == 1 and rows.const[0] == want.const
        got = zip(rows.coeffs.indices.tolist(), rows.coeffs.data.tolist())
        assert list(got) == list(want.coeffs.items())


def test_to_conic_matches_the_reference_when_codes_exceed_int64():
    # 3**44 > 2**63: monomial codes of order 1 over 45 variables are
    # Python ints, for the moment block and for the equality rows alike
    assert 3**44 > np.iinfo(np.int64).max
    ctx = ModelContext()
    x = ctx.vars("x", 45)
    problem = GPMProblem(
        minimize(mom(sum(x[i] * x[i + 1] for i in range(44)))),
        [
            x[0] + 0.3 * x[1] == 1.0,
            x[2] ** 2 == 0.7 * x[3] - 0.1,
            1.0 - x[6] ** 2 >= 0,
            mass(ctx.measure(1)) == 1,
            mom(x[4]) == 0.1 + 1.3 * mom(x[5] * x[7]),
        ],
    )
    msdp = assemble(problem, 1)
    assert msdp.report.block_sizes == [46]
    assert len(msdp.lin_eq) == 1 and len(msdp.lin_ineq) == 1
    assert_same_conic(to_conic(msdp), reference_conic(msdp))
    y = np.random.default_rng(0).normal(size=msdp.n_vars)
    measure = problem.measures[0]
    assert_same_bytes(mmat_values(msdp, y, measure), reference_mmat(msdp, y, measure))


def random_sparse_blocks_problem(rng, m=12, l=3, sizes=(5, 7)):
    """Conic data with sparse PSD block rows of every kind.

    Each block row is empty, or holds diagonal entries, off-diagonal
    entries given on one side only, and symmetric pairs with unequal
    values, so symmetrization has work to do.
    """
    cone = ConeSpec(l=l, s=sizes)
    A = np.zeros((m, cone.total_length))
    A[:, :l] = rng.normal(size=(m, l)) * (rng.random((m, l)) < 0.5)
    off = l
    for s in sizes:
        for k in range(m):
            if k % 4 == 1:
                continue  # empty in this block
            B = np.zeros((s, s))
            for _ in range(int(rng.integers(1, 4))):
                i, j = rng.integers(0, s, 2)
                B[i, j] += rng.normal()
                if rng.random() < 0.5:
                    B[j, i] += rng.normal()
            d = int(rng.integers(0, s))
            B[d, d] += rng.normal()
            A[k, off : off + s * s] = B.reshape(-1)
        off += s * s
    problem = ConicProblem(
        A=scipy.sparse.csr_matrix(A), b=rng.normal(size=m),
        c=rng.normal(size=cone.total_length), cone=cone,
    )
    return problem, A


def random_spd(rng, s):
    Q = rng.normal(size=(s, s))
    return Q @ Q.T + s * np.eye(s)


# (block orders, block sparse?, stack sums through its sparse columns?),
# the two choices by order: every block dense and summed densely or
# through its sparse columns, every block sparse, and orders (3, 2, 3, 4)
# with an order-3 stack over blocks 0 and 2 summed through its sparse
# columns, an order-2 stack summed densely and a sparse order-4 block
LAYOUTS = {
    "dense": ((5, 7), lambda s: False, lambda s: False),
    "csc": ((5, 7), lambda s: False, lambda s: True),
    "sparse": ((5, 7), lambda s: True, lambda s: False),
    "mixed": ((3, 2, 3, 4), lambda s: s == 4, lambda s: s == 3),
}


def cones_with_layout(monkeypatch, problem, sparse, accumulate):
    """_Cones of ``problem`` with the storage and the accumulation of
    each block chosen by its order."""
    storage = conic_module._storage
    monkeypatch.setattr(
        conic_module, "_storage",
        lambda m, s, nnz, r: (sparse(s), storage(m, s, nnz, r)[1]),
    )
    monkeypatch.setattr(
        conic_module, "_accumulates_sparse", lambda m, s, g, nnz: accumulate(s)
    )
    cones = _Cones(problem)
    for stack in cones.stacks:
        assert isinstance(stack, _SparseBlock) == sparse(stack.s)
        if not sparse(stack.s):
            assert (stack.csc is not None) == accumulate(stack.s)
    return cones


def stacked(cones, blocks):
    """Per-block arrays in cone order as one (g, ...) array per stack."""
    return [np.stack([blocks[j] for j in stack.index]) for stack in cones.stacks]


def test_sparse_and_dense_blocks_match_the_trace_formulas(monkeypatch):
    rng = np.random.default_rng(7)
    for layout, _ in itertools.product(LAYOUTS, range(5)):
        sizes, sparse, accumulate = LAYOUTS[layout]
        problem, A = random_sparse_blocks_problem(rng, sizes=sizes)
        cone, m = problem.cone, problem.m
        A_l = A[:, : cone.l]
        B_s, off = [], cone.l
        for s in cone.s:
            B = A[:, off : off + s * s].reshape(m, s, s)
            B_s.append(0.5 * (B + B.transpose(0, 2, 1)))
            off += s * s
        x_l, z_l = rng.random(cone.l) + 0.5, rng.random(cone.l) + 0.5
        X_s = [random_spd(rng, s) for s in cone.s]
        Zinv_s = [np.linalg.inv(random_spd(rng, s)) for s in cone.s]
        W_s = [rng.normal(size=(s, s)) for s in cone.s]
        w_l, y, v = rng.normal(size=cone.l), rng.normal(size=m), rng.normal(size=m)

        # the formulas entry by entry, from the dense matrices
        M_ref = (A_l * (x_l / z_l)) @ A_l.T
        AX_ref = A_l @ x_l
        rhs_ref = problem.b + A_l @ w_l
        for B, X, Zinv, W in zip(B_s, X_s, Zinv_s, W_s):
            for j in range(m):
                AX_ref[j] += np.trace(B[j] @ X)
                rhs_ref[j] += np.trace(B[j] @ (W + W.T)) / 2
                for k in range(m):
                    M_ref[j, k] += np.trace(B[j] @ Zinv @ B[k] @ X)
        At_ref = [np.einsum("k,kpq->pq", y, B) for B in B_s]

        cones = cones_with_layout(monkeypatch, problem, sparse, accumulate)
        if layout == "mixed":
            assert [stack.index for stack in cones.stacks] == [(0, 2), (1,), (3,)]
        Xs, Zinvs = stacked(cones, X_s), stacked(cones, Zinv_s)

        def close(got, want):
            scale = np.abs(want).max()
            assert np.abs(got - want).max() <= 1e-12 * scale, layout

        close(cones.schur_complement(x_l, z_l, Zinvs, Xs), M_ref)
        close(cones.schur_apply(x_l, z_l, Zinvs, Xs, v), M_ref @ v)
        close(cones.apply_A(x_l, Xs), AX_ref)
        close(cones.newton_rhs(problem.b, w_l, stacked(cones, W_s)), rhs_ref)
        At_l, At_s = cones.apply_At(y)
        close(At_l, A_l.T @ y)
        for got, want in zip(At_s, stacked(cones, At_ref)):
            close(got, want)
        for stack, B in zip(cones.stacks, stacked(cones, B_s)):
            close(stack.sq_norms, (B ** 2).sum(axis=(2, 3)))
        # a point given per stack comes back in the cone's column order
        assert np.array_equal(
            cones.vector(x_l, Xs), np.concatenate([x_l] + [X.reshape(-1) for X in X_s])
        )


def test_a_stack_of_non_adjacent_blocks_solves_in_cone_order(monkeypatch):
    # orders (3, 2, 3, 4) in the mixed layout, with planted strictly
    # feasible points: the solution's x and z meet the rows and the dual
    # constraints of the problem as given, block by block
    rng = np.random.default_rng(4)
    problem, A = random_sparse_blocks_problem(rng, m=8, sizes=LAYOUTS["mixed"][0])
    cone = problem.cone
    A[:, : cone.l] = rng.normal(size=(problem.m, cone.l))

    def interior():
        blocks = [random_spd(rng, s).reshape(-1) for s in cone.s]
        return np.concatenate([rng.uniform(0.5, 1.5, cone.l)] + blocks)

    x0, z0 = interior(), interior()
    problem = ConicProblem(
        A=scipy.sparse.csr_matrix(A), b=A @ x0,
        c=A.T @ rng.normal(size=problem.m) + z0, cone=cone,
    )
    _, sparse, accumulate = LAYOUTS["mixed"]
    cones_with_layout(monkeypatch, problem, sparse, accumulate)
    sol = solve(problem)
    assert sol.status == "solved"
    assert np.abs(A @ sol.x - problem.b).max() <= 1e-6 * (1.0 + np.abs(problem.b).max())
    resid = problem.c - A.T @ sol.y - sol.z
    for off, s in zip(cone.psd_starts, cone.s):
        R = resid[off : off + s * s].reshape(s, s)
        assert np.abs(R + R.T).max() <= 1e-6 * (1.0 + np.abs(problem.c).max())
        X = sol.x[off : off + s * s].reshape(s, s)
        assert np.array_equal(X, X.T) and np.linalg.eigvalsh(X).min() > 0


def test_stacks_hold_one_dense_copy_of_quadratic3_order_four(monkeypatch):
    # the IPM input of quadratic3-4: blocks of order 20, 10, then seven
    # of 20, all dense.  The dense data is one (g, s*s, m) tensor per
    # stack and nothing else of that size: 8 m sum(s^2) bytes, plus the
    # sparse columns of the order-20 stack, which accumulates through them
    with open(model_path("quadratic3.gpm")) as fh:
        conic = to_conic(assemble(parse_model(fh.read()), 4))
    inputs = []

    class Recorded(Exception):
        pass

    def recording_solve(problem, params=None):
        inputs.append(problem)
        raise Recorded

    monkeypatch.setattr(conic_module, "solve", recording_solve)
    with pytest.raises(Recorded):
        solve_conic(conic)
    (problem,) = inputs
    assert problem.cone.s == (20, 10) + (20,) * 7
    cones = _Cones(problem)
    m = problem.m
    assert [(stack.s, stack.index) for stack in cones.stacks] == [
        (20, (0,) + tuple(range(2, 9))), (10, (1,)),
    ]
    assert all(isinstance(stack, _DenseStack) for stack in cones.stacks)
    assert [stack.csc is not None for stack in cones.stacks] == [True, False]
    assert sum(stack.A.nbytes for stack in cones.stacks) == 8 * m * sum(
        s * s for s in problem.cone.s
    )
    for stack in cones.stacks:
        # the tensor and the (g, m) row norms are the only arrays a stack
        # owns; ``flat`` is a view
        owned = [
            name for name, value in vars(stack).items()
            if isinstance(value, np.ndarray) and value.base is None
        ]
        assert sorted(owned) == ["A", "sq_norms"]
        assert stack.flat.base is stack.A
        assert stack.sq_norms.shape == (stack.g, m)
    stack = cones.stacks[0]
    block_nnz = [
        _symmetrized(problem.A[:, off : off + 400], 20).nnz
        for off in (problem.cone.psd_starts[j] for j in stack.index)
    ]
    assert stack.csc.shape == (m, 8 * 400) and stack.csc.nnz == sum(block_nnz)
    assert [part.nnz for part in stack.block_csc] == block_nnz


def test_dense_blocks_equal_the_per_block_symmetrization(monkeypatch):
    # _Cones symmetrizes all PSD columns in one pass; every dense stack
    # (here one per block, the orders being distinct) must hold the
    # bytes, in its (g, s*s, m) layout, of symmetrizing its own columns, and _storage must see the nnz and r_k of that
    # block's CSR.  The 1x1 block takes scipy's sorted-sum path, and the
    # pair planted in row 0 cancels, so that entry is dropped
    rng = np.random.default_rng(11)
    storage = conic_module._storage
    seen = []

    def recording_storage(m, s, nnz, r):
        seen.append((nnz, r.copy()))
        return storage(m, s, nnz, r)

    monkeypatch.setattr(conic_module, "_storage", recording_storage)
    for _ in range(4):
        problem, A = random_sparse_blocks_problem(rng, sizes=(5, 1, 7))
        A[0, 3 + 1 * 5 + 2], A[0, 3 + 2 * 5 + 1] = 0.75, -0.75
        problem = ConicProblem(
            A=scipy.sparse.csr_matrix(A), b=problem.b, c=problem.c, cone=problem.cone
        )
        seen.clear()
        cones = _Cones(problem)
        cone = problem.cone
        assert [stack.index for stack in cones.stacks] == [(0,), (1,), (2,)]
        for stack, off, s, (nnz, r) in zip(cones.stacks, cone.psd_starts, cone.s, seen):
            sym = _symmetrized(problem.A[:, off : off + s * s], s)
            want = np.ascontiguousarray(sym.toarray().T).reshape(1, s * s, problem.m)
            assert isinstance(stack, _DenseStack)
            assert stack.A.strides == want.strides and stack.A.tobytes() == want.tobytes()
            row = np.repeat(np.arange(problem.m), np.diff(sym.indptr))
            pairs = np.unique(row * s + sym.indices // s)
            assert nnz == sym.nnz
            np.testing.assert_array_equal(r, np.bincount(pairs // s)[np.unique(pairs // s)])


def test_sparse_blocks_equal_the_per_block_symmetrization(monkeypatch):
    # with _storage choosing the sparse path for every block, each
    # _SparseBlock is its block's slice of the one-pass symmetrized
    # columns as CSR: the matrix of symmetrizing its own columns, bit for
    # bit, with the cancelled pair of row 0 dropped and each row's
    # entries in column order
    rng = np.random.default_rng(11)
    storage = conic_module._storage
    monkeypatch.setattr(
        conic_module, "_storage", lambda m, s, nnz, r: (True, storage(m, s, nnz, r)[1])
    )
    for _ in range(4):
        problem, A = random_sparse_blocks_problem(rng, sizes=(5, 1, 7))
        A[0, 3 + 1 * 5 + 2], A[0, 3 + 2 * 5 + 1] = 0.75, -0.75
        problem = ConicProblem(
            A=scipy.sparse.csr_matrix(A), b=problem.b, c=problem.c, cone=problem.cone
        )
        cones = _Cones(problem)
        cone = problem.cone
        assert [stack.index for stack in cones.stacks] == [(0,), (1,), (2,)]
        for block, off, s in zip(cones.stacks, cone.psd_starts, cone.s):
            want = _symmetrized(problem.A[:, off : off + s * s], s)
            assert isinstance(block, _SparseBlock)
            got = block.A
            assert got.format == "csr" and got.has_sorted_indices
            assert got.shape == want.shape and got.nnz == want.nnz
            assert got.toarray().tobytes() == want.toarray().tobytes()


def _sparse_rows_by_loop(sym, s):
    """(k, R_k, D_k) of every nonempty row, gathered one row at a time."""
    rows = []
    for k in range(sym.shape[0]):
        lo, hi = sym.indptr[k], sym.indptr[k + 1]
        if hi == lo:
            continue
        i, j = np.divmod(sym.indices[lo:hi], s)
        R = np.unique(i)
        D = np.zeros((R.size, R.size))
        D[np.searchsorted(R, i), np.searchsorted(R, j)] = sym.data[lo:hi]
        rows.append((k, R, D))
    return rows


@pytest.mark.parametrize("source", ["random", "maxcut_sub.gpm"])
def test_sparse_block_rows_equal_the_row_by_row_gather(source):
    if source == "random":
        rng = np.random.default_rng(3)
        problems = [random_sparse_blocks_problem(rng)[0] for _ in range(4)]
    else:
        with open(model_path(source)) as fh:
            problems = [to_conic(assemble(parse_model(fh.read()), 3))]
    for problem in problems:
        A = problem.A
        for off, s in zip(problem.cone.psd_starts, problem.cone.s):
            sym = _symmetrized(A[:, off : off + s * s], s)
            # an empty row, which gets no entry
            sym = scipy.sparse.vstack([sym, scipy.sparse.csr_matrix((1, s * s))], format="csr")
            got, want = _SparseBlock(sym, s, (0,)).rows, _sparse_rows_by_loop(sym, s)
            assert len(got) == len(want)
            for (k, R, D), (k0, R0, D0) in zip(got, want):
                assert k == k0 and R.dtype == R0.dtype and D.shape == D0.shape
                np.testing.assert_array_equal(R, R0)
                np.testing.assert_array_equal(D, D0)


def test_maxcut_order_two_solves_through_sparse_blocks():
    with open(model_path("maxcut_sub.gpm")) as fh:
        problem = to_conic(assemble(parse_model(fh.read()), 2))
    assert [type(b) for b in _Cones(problem).stacks] == [_SparseBlock]
    sol = solve_conic(problem)
    # the objective of the dense-block solver this path replaced; with
    # the refinement against the Schur operator the solve reaches eps
    assert (sol.status, sol.iterations) == ("solved", 15)
    assert problem.objective_value(sol.y) == pytest.approx(12.41413173295636, rel=1e-9)


def test_a_solve_short_of_eps_returns_its_best_iterate(monkeypatch):
    # a constructed run: a small LP whose n-th point reads a primal
    # residual larger by 50^(n-6) times the metric of its sixth point,
    # growth no rounding can undo.  The iterates stay those of the plain
    # solve, whose metric falls below the sixth point's only after it, so
    # the sixth point is the best, within 1e3*eps; the iteration limit
    # ends the solve two points later, and it returns the sixth
    problem = ConicProblem(
        A=np.array([[1.0, 1.0, 1.0]]), b=np.array([1.0]),
        c=np.array([1.0, 2.0, 3.0]), cone=ConeSpec(l=3),
    )
    sixth = max(solve(problem).history[5][2:])
    params = SolverParams(eps=sixth / 10.0)
    residuals, points = conic_module._residuals, []

    def growing_residuals(*args):
        rd_l, Rd_s, pinf, dinf, mu = residuals(*args)
        points.append(None)
        return rd_l, Rd_s, pinf + sixth * 50.0 ** (len(points) - 6), dinf, mu

    monkeypatch.setattr(conic_module, "_residuals", growing_residuals)
    monkeypatch.setattr(conic_module, "_MAX_ITER", 8)
    sol = solve(problem, params)
    assert (sol.status, sol.iterations, len(points)) == ("inaccurate", 8, 8)
    assert sol.message == "iteration limit (8) reached"
    metrics = [max(row[2:]) for row in sol.history]
    assert int(np.argmin(metrics)) == 5
    assert params.eps < metrics[5] <= 1e3 * params.eps < metrics[7]
    # the returned point is the best iterate, not the last one
    assert (sol.pobj, sol.dobj, sol.pinf, sol.dinf, sol.gap) == sol.history[5]


def test_maxcut_order_four_solves_under_one_ulp_moves_of_its_input():
    # the top-level input of maxcut_sub-4 ends near the rounding limit:
    # with cond M ~ 1e17, the step of iteration 10 raises the primal
    # residual up to a million-fold, to ~1e-9, and the next one reaches
    # eps.  Every draw of tools/ulp_draws.py must end solved
    ulp_draws = load_tool("ulp_draws")
    problem = ulp_draws.top_level_input("maxcut_sub-4")
    assert problem.m == 22 and max(problem.cone.s) == 36
    outcomes = ulp_draws.sweep(problem, 20)
    assert [status for status, _ in outcomes] == ["solved"] * 20, outcomes


def test_every_exit_short_of_solved_gives_a_reason(monkeypatch):
    # quadratic3-3 reaches 2.7e-8 at iteration 19, between eps and
    # 1e3*eps, so a limit of 19 iterations ends it inaccurate; with a
    # lower limit the same run ends in failure
    with open(model_path("quadratic3.gpm")) as fh:
        problem = to_conic(assemble(parse_model(fh.read()), 3))
    monkeypatch.setattr(conic_module, "_MAX_ITER", 19)
    sol = solve_conic(problem)
    assert (sol.status, sol.iterations) == ("inaccurate", 19)
    assert sol.message == "iteration limit (19) reached"
    monkeypatch.setattr(conic_module, "_MAX_ITER", 5)
    sol = solve_conic(problem)
    assert (sol.status, sol.iterations) == ("failed", 5)
    assert sol.message == "no convergence: iteration limit (5) reached"
    # both step lengths vanish on the first iteration
    monkeypatch.setattr(conic_module, "_step_length", lambda *args: 0.0)
    sol = solve_conic(problem)
    assert (sol.status, sol.iterations) == ("failed", 1)
    assert sol.message == "no convergence: step lengths below 1e-8"


def test_size_guard_counts_what_sparse_blocks_allocate():
    # m * s^2 = 3.2e8 dense entries: a dense (m, s, s) tensor is refused,
    # the sparse block stores a few entries per row and M is m x m
    rng = np.random.default_rng(3)
    m, s = 2000, 400
    rows = np.repeat(np.arange(m), 3)
    i, j = rng.integers(0, s, (2, rows.size))
    A = scipy.sparse.csr_matrix(
        (rng.normal(size=rows.size), (rows, i * s + j)), shape=(m, s * s)
    )
    problem = ConicProblem(
        A=A, b=np.ones(m), c=np.eye(s).reshape(-1), cone=ConeSpec(s=(s,))
    )
    cones = _Cones(problem)
    assert [type(b) for b in cones.stacks] == [_SparseBlock]


def reference_psd_step(X, dX):
    """Step to the PSD boundary through the scipy.linalg wrappers.

    Factors X (with the solver's jitter ladder), whitens dX with two
    triangular solves and takes -1 / min eig: the formula the solver
    evaluates from its stored factors.
    """
    if X.shape[0] == 0:
        return np.inf
    jitter = 0.0
    for _ in range(3):
        try:
            L = scipy.linalg.cholesky(X + jitter * np.eye(X.shape[0]), lower=True)
            break
        except scipy.linalg.LinAlgError:
            jitter = max(jitter * 100, 1e-14 * max(np.trace(X), 1.0))
    else:
        return 0.0
    W = scipy.linalg.solve_triangular(L, dX, lower=True)
    W = scipy.linalg.solve_triangular(L, W.T, lower=True)
    lam = scipy.linalg.eigvalsh(0.5 * (W + W.T), subset_by_index=[0, 0])[0]
    return np.inf if lam >= 0 else -1.0 / lam


def random_symmetric(rng, s):
    D = rng.normal(size=(s, s))
    return 0.5 * (D + D.T)


def stack_step(X, dX):
    """The solver's step length for one stack of blocks X along dX, both
    (g, s, s): the stack's inverse factors, then its step search."""
    none = np.zeros(0)
    return _step_length(none, [_inverse_factors(X)[0]], none, [dX])


def stack_reference(blocks):
    """The step of a stack of (X, dX) blocks by the per-block formula: that
    of its most binding block."""
    return min(reference_psd_step(X, dX) for X, dX in blocks)


def as_stack(blocks):
    return tuple(np.stack(parts) for parts in zip(*blocks))


# the stack's step comes from a batched inverse, product and eigvalsh,
# the reference from triangular solves and one syevr call per block
STEP_RTOL = 1e-10


@pytest.mark.parametrize("s", [1, 10, 35, 130])
def test_factored_step_equals_the_scipy_formula(s):
    rng = np.random.default_rng(s)
    blocks = []
    for _ in range(3):
        B = rng.normal(size=(s, s))
        X = B @ B.T + 1e-3 * np.eye(s)
        dX = random_symmetric(rng, s)
        blocks.append((X, dX))
        assert stack_step(X[None], dX[None]) == pytest.approx(
            reference_psd_step(X, dX), rel=STEP_RTOL
        )
    # the three blocks as one stack, factored in one call
    assert _inverse_factors(as_stack(blocks)[0])[1] is False
    assert stack_step(*as_stack(blocks)) == pytest.approx(stack_reference(blocks), rel=STEP_RTOL)


def test_factored_step_on_singular_indefinite_and_empty_blocks():
    rng = np.random.default_rng(5)

    def good():
        B = rng.normal(size=(6, 6))
        return B @ B.T + 1e-3 * np.eye(6), random_symmetric(rng, 6)

    # singular PSD: a zero row makes the bare factorization fail, the jitter
    # ladder's second try succeeds
    B = rng.normal(size=(6, 3))
    B[2] = 0.0
    X = B @ B.T
    with pytest.raises(scipy.linalg.LinAlgError):
        scipy.linalg.cholesky(X, lower=True)
    dX = random_symmetric(rng, 6)
    step = stack_step(X[None], dX[None])
    assert np.isfinite(step) and step == pytest.approx(reference_psd_step(X, dX), rel=STEP_RTOL)
    # in a stack of three, the whole stack falls back to block by block
    # and the singular block's jittered factor serves its step
    blocks = [good(), (X, 1e-3 * dX), good()]
    R, fell_back = _inverse_factors(as_stack(blocks)[0])
    assert fell_back and R.shape == (3, 6, 6)
    step = stack_step(*as_stack(blocks))
    assert np.isfinite(step) and step == pytest.approx(stack_reference(blocks), rel=STEP_RTOL)
    # indefinite: all three tries fail and the block allows no step, nor
    # does a stack that holds it
    X = np.diag([1.0, -1.0, 2.0])
    assert _inverse_factors(X[None]) == (None, True)
    assert stack_step(X[None], np.eye(3)[None]) == reference_psd_step(X, np.eye(3)) == 0.0
    blocks = [(np.eye(3), np.eye(3)), (X, np.eye(3)), (2.0 * np.eye(3), -np.eye(3))]
    assert stack_step(*as_stack(blocks)) == stack_reference(blocks) == 0.0
    # empty blocks: never binding, alone or three in a stack
    E = np.zeros((0, 0))
    assert stack_step(E[None], E[None]) == reference_psd_step(E, E) == np.inf
    assert stack_step(*as_stack([(E, E)] * 3)) == stack_reference([(E, E)] * 3) == np.inf
    with pytest.raises(ValueError):
        _inverse_factors(np.full((1, 2, 2), np.nan))
    with pytest.raises(ValueError):
        _inverse_factors(np.stack([np.eye(2), np.full((2, 2), np.nan), np.eye(2)]))


def test_step_search_factors_each_block_once_per_iteration(monkeypatch):
    ctx, problem = camel_problem()
    conic = to_conic(assemble(problem, 3))
    stacks, choleskys = [], []
    factor, cholesky = conic_module._inverse_factors, np.linalg.cholesky

    def counting_factor(S):
        stacks.append(S.shape)
        return factor(S)

    def counting_cholesky(S):
        choleskys.append(S.shape)
        return cholesky(S)

    monkeypatch.setattr(conic_module, "_inverse_factors", counting_factor)
    monkeypatch.setattr(np.linalg, "cholesky", counting_cholesky)
    sol = solve(conic)
    assert (sol.status, sol.iterations, sol.message) == ("solved", 17, "")
    # X and Z of every stack, on every iteration that takes a step, each
    # in one batched factorization
    shapes = {(stack.g, stack.s, stack.s) for stack in _Cones(conic).stacks}
    assert len(stacks) == 2 * len(shapes) * (sol.iterations - 1)
    assert set(stacks) == shapes
    assert choleskys == stacks
    # quadratic3 at order 2 reaches the solver as eight blocks of order 4
    # and one of order 1: two stacks, the eight blocks factored in one call
    stacks.clear()
    choleskys.clear()
    with open(model_path("quadratic3.gpm")) as fh:
        sol = solve_conic(to_conic(assemble(parse_model(fh.read()), 2)))
    assert sol.status == "solved"
    assert len(stacks) == 2 * 2 * (sol.iterations - 1)
    assert set(stacks) == {(8, 4, 4), (1, 1, 1)}
    assert choleskys == stacks


def test_accepted_steps_are_logged_at_debug(caplog):
    rng = np.random.default_rng(2)
    problem = random_feasible_sdp(rng)[0]
    with caplog.at_level(logging.DEBUG, logger="gpmkit.conic"):
        sol = solve(problem)
    assert sol.status == "solved"
    steps = [r.args for r in caplog.records if "step primal" in r.msg]
    assert [args[0] for args in steps] == list(range(1, sol.iterations))
    for _, ap, ad, sigma in steps:
        assert 0.0 <= ap <= 1.0 and 0.0 <= ad <= 1.0
        assert 0.0 <= sigma <= 1.0


def planted_problem(rng, sizes=(12, 20, 28), m=12, coupling=0.0):
    """One PSD block whose data is block-diagonal with blocks of ``sizes``
    in a random orthonormal basis Q, strictly feasible both ways.

    ``coupling`` puts that multiple of the largest entry on every entry
    between the first and the last planted block of row 0.  Returns the
    problem and the planted c block in the basis Q.
    """
    s = sum(sizes)
    Q, _ = np.linalg.qr(rng.normal(size=(s, s)))

    def planted(draw):
        return scipy.linalg.block_diag(*(draw(k) for k in sizes))

    def symmetric(k):
        S = rng.normal(size=(k, k))
        return S + S.T

    def spd(k):
        G = rng.normal(size=(k, k))
        return G @ G.T + 0.5 * np.eye(k)

    rows = [planted(symmetric) for _ in range(m)]
    if coupling:
        first, last = slice(0, sizes[0]), slice(s - sizes[-1], s)
        rows[0][first, last] = rows[0][last, first] = coupling * np.abs(rows[0]).max()
    A = np.array([(Q @ B @ Q.T).reshape(-1) for B in rows])
    x0 = (Q @ planted(spd) @ Q.T).reshape(-1)
    y0 = rng.normal(size=m)
    C = sum(y * B for y, B in zip(y0, rows)) + planted(spd)
    problem = ConicProblem(A=A, b=A @ x0, c=(Q @ C @ Q.T).reshape(-1), cone=ConeSpec(s=(s,)))
    return problem, C


def test_rotation_recovers_planted_blocks_and_solves_like_the_unrotated_problem(monkeypatch):
    problem, C = planted_problem(np.random.default_rng(4))
    red = rotate_blocks(problem)
    assert red is not None
    split = split_by_pattern(red.problem)
    assert sorted(split.problem.cone.s) == [12, 20, 28]
    # each block's c is similar to a planted one: the same spectrum
    cone = split.problem.cone
    got = sorted(
        np.linalg.eigvalsh(split.problem.c[cone.block_columns(k, np.arange(s))].reshape(s, s)).tolist()
        for k, s in enumerate(cone.s)
    )
    want = sorted(
        np.linalg.eigvalsh(C[a:b, a:b]).tolist() for a, b in ((0, 12), (12, 32), (32, 60))
    )
    for g, w in zip(got, want):
        np.testing.assert_allclose(g, w, rtol=0, atol=1e-9 * np.abs(C).max())

    calls = []
    solve_ipm = conic_module.solve

    def recording(p, *args, **kwargs):
        sol = solve_ipm(p, *args, **kwargs)
        calls.append((p, sol))
        return sol

    monkeypatch.setattr(conic_module, "solve", recording)
    sol = solve_conic(problem)
    ((inner_problem, inner),) = calls
    assert inner_problem.cone.s == split.problem.cone.s
    direct = solve_ipm(problem)
    assert sol.status == direct.status == "solved"
    assert sol.dobj == pytest.approx(direct.dobj, rel=1e-7)
    assert sol.pobj == pytest.approx(direct.pobj, rel=1e-7)
    inner_res, res = _lifted_residual(problem, inner_problem, inner, sol)
    assert res <= 10.0 * inner_res + 100 * np.finfo(float).eps * np.abs(problem.b).max()
    X = sol.x.reshape(60, 60)
    np.testing.assert_array_equal(X, X.T)
    assert np.linalg.eigvalsh(X).min() >= -1e-9 * np.abs(X).max()


def test_rotation_gate_refuses_a_coupling_above_its_tolerance():
    # 1e-8 of the largest entry on every entry between the first and the
    # last planted block of one row: in the basis the uncoupled data
    # gives, the gate finds it and leaves the block alone, while the
    # screen of the coupled data keeps the two blocks in one component
    rng = np.random.default_rng(conic_module._ROTATION_SEED)
    r = rng.standard_normal((2, 13))
    plain, coupled = (
        planted_problem(np.random.default_rng(4), coupling=coupling)[0] for coupling in (0.0, 1e-8)
    )
    V, label = conic_module._block_split(plain.A, plain.c.reshape(60, 60), r)
    for problem, gate in ((plain, True), (coupled, False)):
        rotated = conic_module._rotated_block(problem.A, problem.c.reshape(60, 60), V, label)
        assert (rotated is not None) == gate
    red = rotate_blocks(coupled)
    assert sorted(split_by_pattern(red.problem).problem.cone.s) == [20, 40]


@pytest.mark.parametrize("name,order,unsplit,blocks,free", [
    ("maxcut_nosub", 2, (46, 9), (46, 9), [5, 8, 8, 8, 8, 1, 2, 2, 2, 2]),
    ("maxcut_sub", 3, (37, 93), (37, 20, 22, 20, 8, 20, 3), [5, 8, 8, 8, 8, 3, 8, 20, 20, 20, 22]),
])
def test_rotation_splits_only_where_the_split_pays(monkeypatch, name, order, unsplit, blocks, free):
    # without the fixed cost per block, the 37- and 46-order blocks would
    # split into 5 + 4 x 8 (the 46 also dropping 9 directions without
    # data) and the 9-order one into 1 + 4 x 2; the split saves less than
    # the blocks it adds cost, so only the 93-order block splits
    seen = []

    def recording(p):
        seen.append(p)
        return rotate_blocks(p)

    monkeypatch.setattr(conic_module, "rotate_blocks", recording)
    with open(model_path(f"{name}.gpm")) as fh:
        sol = solve_gpm(parse_model(fh.read()), order=order)
    (problem,) = seen
    assert problem.cone.s == unsplit
    assert sol.conic.blocks == blocks
    monkeypatch.setattr(conic_module, "_BLOCK_COST", 0.0)
    red = rotate_blocks(problem)
    assert sorted(split_by_pattern(red.problem).problem.cone.s) == sorted(free)


def test_solve_conic_runs_each_reduction_once(monkeypatch):
    # the pattern split runs first and once more on the rotation's output
    # only; the rotation runs once, right before the interior-point solve
    calls = []
    for name in ("split_by_pattern", "_reduce_zero_diagonals",
                 "presolve_eliminate_equalities", "rotate_blocks", "solve"):
        def recording(problem, *args, _name=name, _fn=getattr(conic_module, name)):
            calls.append(_name)
            return _fn(problem, *args)

        monkeypatch.setattr(conic_module, name, recording)
    with open(model_path("maxcut_sub.gpm")) as fh:
        sol = solve_gpm(parse_model(fh.read()), order=3)
    assert sol.conic.status == "solved"
    assert calls == [
        "split_by_pattern", "_reduce_zero_diagonals", "rotate_blocks",
        "split_by_pattern", "solve",
    ]


def test_rotated_solves_repeat_bit_for_bit():
    outcomes = []
    for _ in range(2):
        with open(model_path("maxcut_sub.gpm")) as fh:
            sol = solve_gpm(parse_model(fh.read()), order=3)
        outcomes.append(
            repr((sol.status, sol.objective, sol.conic.blocks, sol.conic.iterations)).encode()
            + b"".join(np.ascontiguousarray(a).tobytes() for a in (
                sol.conic.x, sol.conic.y, sol.conic.z, np.asarray(sol.conic.history),
                *sol.moments.values(),
            ))
        )
    assert outcomes[0] == outcomes[1]
