"""Conic solver against closed-form oracles and feasibility invariants."""

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
    to_conic,
)
import gpmkit.conic as conic_module
from gpmkit.conic import (
    ConicError,
    _Cones,
    _DenseBlock,
    _SparseBlock,
    _psd_factor,
    _psd_step,
    _reduce_zero_diagonals,
    _symmetrized,
    solve,
)
from gpmkit.dsl import parse_model

from conftest import ReferenceForms, camel_problem, model_path


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


def test_facial_reduction_zero_diagonal():
    # dual slacks: z_l = -y1 - y2, Z00 = y1, Z11 = y2.  Their sum is
    # identically zero, so all three are certified zero on the dual set
    # and the interior-point iteration only sees the reduced problem
    A = np.zeros((2, 5))
    A[:, 0] = [1.0, 1.0]   # orthant slack
    A[:, 1] = [-1.0, 0.0]  # Z00
    A[:, 4] = [0.0, -1.0]  # Z11
    c = np.zeros(5)
    b = np.zeros(2)
    problem = ConicProblem(A=A, b=b, c=c, cone=ConeSpec(l=1, s=(2,)))
    red = _reduce_zero_diagonals(problem)
    assert red is not None
    sol = solve_conic(problem)
    assert sol.status == "solved"
    assert abs(sol.pobj) < 1e-8
    # the dual set is the single point y = 0
    assert np.abs(sol.y).max() < 1e-8


def test_facial_reduction_lifts_into_the_second_of_two_blocks():
    # y = (y1, y2, y3); slacks z_l = 1 - y1, Z1 = [[1 + y1, y2], [y2, 1 - y1]]
    # and Z2 = [[y3, 0.5 - y2], [0.5 - y2, -y3]].  Z2's diagonal sums to
    # zero, so facial reduction forces Z2 = 0 (y2 = 0.5, y3 = 0) and max y1
    # subject to Z1 psd gives y1 = sqrt(3)/2
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
    problem = ConicProblem(A=A, b=b, c=c, cone=ConeSpec(l=1, s=(2, 2)))
    red = _reduce_zero_diagonals(problem)
    assert red.kept_s == [[0, 1], []]
    assert red.added == [("s", 1, 0, 0), ("s", 1, 1, 0), ("s", 1, 1, 1)]
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
        A=np.eye(4).reshape(1, -1), b=np.array([1.0]),
        c=np.arange(4.0), cone=ConeSpec(s=(2,)),
    )
    assert _reduce_zero_diagonals(problem) is None


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


# -- reference conic form, built one LinForm and one entry at a time


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
    """Reference forms of the relaxation, and its rows as LinForms."""
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
    basis = [exponents.of(mono) for mono in block.basis]
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


def test_sparse_and_dense_blocks_match_the_trace_formulas():
    rng = np.random.default_rng(7)
    for _ in range(5):
        problem, A = random_sparse_blocks_problem(rng)
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
        w_l, y = rng.normal(size=cone.l), rng.normal(size=m)

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

        cones = _Cones(problem)
        A_csc = scipy.sparse.csc_matrix(problem.A)
        offs = np.cumsum((cone.l,) + tuple(s * s for s in cone.s))
        syms = [
            _symmetrized(A_csc[:, lo : lo + s * s], s)
            for lo, s in zip(offs, cone.s)
        ]
        for kind in (_DenseBlock, _SparseBlock):
            cones.blocks = [kind(sym, s) for sym, s in zip(syms, cone.s)]

            def close(got, want):
                scale = np.abs(want).max()
                assert np.abs(got - want).max() <= 1e-12 * scale, kind

            close(cones.schur_complement(x_l, z_l, Zinv_s, X_s), M_ref)
            close(cones.apply_A(x_l, X_s), AX_ref)
            close(cones.newton_rhs(problem.b, w_l, W_s), rhs_ref)
            At_l, At_s = cones.apply_At(y)
            close(At_l, A_l.T @ y)
            for got, want in zip(At_s, At_ref):
                close(got, want)
            for block, B in zip(cones.blocks, B_s):
                close(block.sq_norms, (B ** 2).sum(axis=(1, 2)))


def test_maxcut_order_two_solves_through_sparse_blocks():
    with open(model_path("maxcut_sub.gpm")) as fh:
        problem = to_conic(assemble(parse_model(fh.read()), 2))
    assert [type(b) for b in _Cones(problem).blocks] == [_SparseBlock]
    sol = solve_conic(problem)
    # status and objective of the dense-block solver this path replaced
    assert sol.status == "inaccurate"
    assert problem.objective_value(sol.y) == pytest.approx(12.41413173295636, rel=1e-9)
    # the best point, at iteration 14, is within 1e3*eps but not eps; the
    # residuals then grow, and the solve stops once they are 100x the
    # best instead of running on until M fails to factor (28 iterations)
    metrics = [max(row[2:]) for row in sol.history]
    best = int(np.argmin(metrics))
    assert len(sol.history) == sol.iterations <= best + 1 + 3
    assert metrics[-1] > 100.0 * metrics[best]
    assert sol.message.startswith("lost progress")
    # the returned point is the best iterate, not the last one
    assert (sol.pobj, sol.dobj, sol.pinf, sol.dinf, sol.gap) == sol.history[best]


def test_every_exit_short_of_solved_gives_a_reason(monkeypatch):
    # quadratic3-3 runs into the iteration limit with a best iterate
    # within 1e3*eps; with a lower limit the same run ends in failure
    with open(model_path("quadratic3.gpm")) as fh:
        problem = to_conic(assemble(parse_model(fh.read()), 3))
    sol = solve_conic(problem)
    assert (sol.status, sol.iterations) == ("inaccurate", 100)
    assert sol.message == "iteration limit (100) reached"
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
    assert [type(b) for b in cones.blocks] == [_SparseBlock]


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


@pytest.mark.parametrize("s", [1, 10, 35, 130])
def test_factored_step_equals_the_scipy_formula(s):
    rng = np.random.default_rng(s)
    for _ in range(3):
        B = rng.normal(size=(s, s))
        X = B @ B.T + 1e-3 * np.eye(s)
        dX = random_symmetric(rng, s)
        assert _psd_step(_psd_factor(X), dX) == reference_psd_step(X, dX)


def test_factored_step_on_singular_indefinite_and_empty_blocks():
    rng = np.random.default_rng(5)
    # singular PSD: a zero row makes the bare factorization fail, the jitter
    # ladder's second try succeeds
    B = rng.normal(size=(6, 3))
    B[2] = 0.0
    X = B @ B.T
    with pytest.raises(scipy.linalg.LinAlgError):
        scipy.linalg.cholesky(X, lower=True)
    dX = random_symmetric(rng, 6)
    step = _psd_step(_psd_factor(X), dX)
    assert np.isfinite(step) and step == reference_psd_step(X, dX)
    # indefinite: all three tries fail and the block allows no step
    X = np.diag([1.0, -1.0, 2.0])
    assert _psd_factor(X) is None
    assert _psd_step(_psd_factor(X), np.eye(3)) == reference_psd_step(X, np.eye(3)) == 0.0
    # empty block: never binding
    E = np.zeros((0, 0))
    assert _psd_step(_psd_factor(E), E) == reference_psd_step(E, E) == np.inf
    with pytest.raises(ValueError):
        _psd_factor(np.full((2, 2), np.nan))


def test_step_search_factors_each_block_once_per_iteration(monkeypatch):
    ctx, problem = camel_problem()
    conic = to_conic(assemble(problem, 3))
    shapes = []
    factor = conic_module._psd_factor

    def counting_factor(X):
        shapes.append(X.shape)
        return factor(X)

    monkeypatch.setattr(conic_module, "_psd_factor", counting_factor)
    sol = solve(conic)
    # reaches eps, so the lost-progress exit never fires
    assert (sol.status, sol.iterations, sol.message) == ("solved", 23, "")
    # X and Z of every block, on every iteration that takes a step
    assert len(shapes) == 2 * len(conic.cone.s) * (sol.iterations - 1)
    assert set(shapes) == {(s, s) for s in conic.cone.s}


def test_accepted_steps_are_logged_at_debug(caplog):
    rng = np.random.default_rng(2)
    problem = random_feasible_sdp(rng)[0]
    with caplog.at_level(logging.DEBUG, logger="gpmkit.conic"):
        sol = solve(problem)
    assert sol.status == "solved"
    steps = [r.args for r in caplog.records if "step primal" in r.msg]
    assert [args[0] for args in steps] == list(range(1, sol.iterations))
    for _, ap, ad, sigma, cuts in steps:
        assert 0.0 <= ap <= 1.0 and 0.0 <= ad <= 1.0
        assert 0.0 <= sigma <= 1.0
        assert cuts in range(4)
