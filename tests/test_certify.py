"""Certification and extraction against planted discrete measures.

The oracle plants atoms and weights, synthesizes the exact moment
vector by direct power sums, and requires the extraction machinery to
return the atoms it started from.
"""

import importlib
import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.sparse
from hypothesis import given, settings, strategies as st

from gpmkit import (
    GPMProblem,
    ModelContext,
    ModelError,
    SolverParams,
    assemble,
    certify,
    check_flatness,
    extract_points,
    minimize,
    mmat_values,
    mom,
    mvec,
    mvec_values,
    numeric_rank,
    solve_gpm,
)
from gpmkit.conic import to_conic
from gpmkit.dsl import parse_model
from gpmkit.polynomials import ExponentMap
from gpmkit.relaxation import moment_block

from conftest import (
    match_atoms,
    model_path,
    planted_instance,
    planted_moment_vector,
    quadratic3_problem,
    refuse_extraction,
)


def test_planted_measure_extraction_oracle():
    rng = np.random.default_rng(20240915)
    failures = []
    for case in range(100):
        nvars = 1 + case % 3
        natoms = 1 + (case // 3) % 3
        msdp, measure, points, weights, y = planted_instance(rng, nvars, natoms)
        ext = extract_points(msdp, y, measure)
        if not ext.success:
            failures.append((case, ext.message))
            continue
        dp, dw = match_atoms(points, weights, ext.points, ext.weights)
        if ext.rank != natoms or dp > 1e-6 or dw > 1e-6:
            failures.append((case, ext.rank, dp, dw))
    assert not failures, failures


def test_planted_measure_is_flat():
    rng = np.random.default_rng(7)
    msdp, measure, _, _, y = planted_instance(rng, nvars=2, natoms=3)
    flat = check_flatness(msdp, y, measure)
    assert flat.flat
    assert flat.rank == 3
    assert flat.rank_shifted == 3
    # ranks grow with the truncation degree and saturate at the atom count
    degrees = sorted(flat.ranks_by_degree)
    ranks = [flat.ranks_by_degree[d] for d in degrees]
    assert ranks == sorted(ranks)
    assert ranks[-1] == 3


def test_gaussian_moments_are_not_flat():
    # standard normal moments 1, 0, 1, 0, 3: full rank at every order,
    # so the rank keeps growing and no atomic representation exists
    ctx = ModelContext()
    x = ctx.var("x")
    problem = GPMProblem(minimize(mom(x)))
    msdp = assemble(problem, 2)
    measure = problem.measures[0]
    gauss = {0: 1.0, 1: 0.0, 2: 1.0, 3: 0.0, 4: 3.0}
    y = np.zeros(msdp.index.n_vars)
    for (_, t), k in msdp.index.var_of.items():
        y[k] = gauss[sum(t)]
    flat = check_flatness(msdp, y, measure)
    assert not flat.flat
    assert flat.rank == 3
    assert flat.rank_shifted == 2
    # extraction on such a vector may or may not find a consistent
    # surrogate, but it must report instead of raising
    ext = extract_points(msdp, y, measure)
    assert ext.success in (True, False)
    cert = certify(msdp, y)
    assert not cert.certified


@settings(max_examples=60, deadline=None)
@given(
    nvars=st.integers(min_value=1, max_value=3),
    points=st.lists(
        st.lists(
            st.floats(min_value=-2.0, max_value=2.0, allow_nan=False),
            min_size=3,
            max_size=3,
        ),
        min_size=1,
        max_size=4,
    ),
    raw_weights=st.lists(
        st.floats(min_value=0.05, max_value=2.0, allow_nan=False),
        min_size=4,
        max_size=4,
    ),
)
def test_discrete_moment_matrix_psd_rank_bounded(nvars, points, raw_weights):
    natoms = len(points)
    atoms = np.asarray(points, dtype=float)[:, :nvars]
    weights = np.asarray(raw_weights[:natoms], dtype=float)
    weights = weights / weights.sum()
    ctx = ModelContext()
    x = ctx.vars("x", nvars)
    problem = GPMProblem(minimize(mom(sum(x[i] for i in range(nvars)))))
    msdp = assemble(problem, 2)
    measure = problem.measures[0]
    y = planted_moment_vector(msdp, measure, atoms, weights)
    M = mmat_values(msdp, y, measure)
    evals = np.linalg.eigvalsh(M)
    scale = 1.0 + float(np.abs(M).max())
    assert evals.min() >= -1e-9 * scale
    assert numeric_rank(M, tol=1e-8) <= natoms


def test_numeric_rank():
    assert numeric_rank(np.zeros((3, 3))) == 0
    assert numeric_rank(np.eye(4)) == 4
    assert numeric_rank(np.diag([1.0, 1e-9])) == 1
    assert numeric_rank(np.diag([1.0, 0.5]), tol=0.9) == 1
    assert numeric_rank(np.zeros((0, 0))) == 0


def test_extraction_weights_report_mass():
    rng = np.random.default_rng(99)
    msdp, measure, points, weights, y = planted_instance(rng, 2, 2)
    ext = extract_points(msdp, y, measure)
    assert ext.success
    assert abs(ext.weights.sum() - 1.0) < 1e-8


def test_least_squares_weights_are_the_nnls_weights(monkeypatch):
    # on planted atoms, exact and with moments perturbed by 1e-6, the
    # least-squares weights are nonnegative and Phi has full column
    # rank, so they are the nonnegative least-squares weights
    from scipy.optimize import nnls

    certify_module = importlib.import_module("gpmkit.certify")
    atom_weights, seen = certify_module._atom_weights, []

    def recording(Phi, target):
        seen.append((Phi, target, *atom_weights(Phi, target)))
        return seen[-1][2:]

    monkeypatch.setattr(certify_module, "_atom_weights", recording)
    rng = np.random.default_rng(11)
    for case in range(30):
        msdp, measure, _, _, y = planted_instance(rng, 1 + case % 3, 1 + (case // 3) % 3)
        extract_points(msdp, y + (1e-6 * rng.standard_normal(y.size) if case % 2 else 0.0), measure)
    assert len(seen) >= 30
    for Phi, target, weights, residual in seen:
        assert np.linalg.matrix_rank(Phi) == Phi.shape[1]
        oracle, oracle_residual = nnls(Phi, target)
        assert np.abs(weights - oracle).max() <= 1e-12
        assert residual == pytest.approx(oracle_residual, abs=1e-12)


def test_extraction_kernels_match_their_loop_references(monkeypatch):
    # the echelon form's rank-one update forms the products and
    # differences of the column-by-column elimination, so its bits are
    # the same; Phi's power products multiply in variable order, not in
    # Monomial.eval's, so they agree to rounding
    def echelon_by_columns(V):
        U = np.array(V, dtype=float)
        pivots = []
        for c in range(U.shape[1]):
            col = np.abs(U[:, c])
            col[pivots] = 0.0
            r = int(np.flatnonzero(col > 1e-4 * col.max())[0])
            pivots.append(r)
            U[:, c] /= U[r, c]
            for c2 in range(U.shape[1]):
                if c2 != c:
                    U[:, c2] -= U[r, c2] * U[:, c]
        return U, pivots

    certify_module = importlib.import_module("gpmkit.certify")
    echelon, atom_weights, factored, fits = (
        certify_module._column_echelon, certify_module._atom_weights, [], []
    )

    def recording_echelon(V):
        factored.append((V, *echelon(V)))
        return factored[-1][1:]

    def recording_weights(Phi, target):
        fits.append((Phi, *atom_weights(Phi, target)))
        return fits[-1][1:]

    monkeypatch.setattr(certify_module, "_column_echelon", recording_echelon)
    monkeypatch.setattr(certify_module, "_atom_weights", recording_weights)
    rng = np.random.default_rng(17)
    for case in range(12):
        msdp, measure, _, _, y = planted_instance(rng, 1 + case % 3, 1 + (case // 3) % 3)
        ext = extract_points(msdp, y, measure)
        assert ext.success
        exps = msdp.index.exponents[measure]
        basis = moment_block(msdp, measure).basis[: len(fits[-1][0])]
        reference = np.array([
            [exps.monomial(tuple(t)).eval(dict(zip(measure.vars, point))) for point in ext.points]
            for t in basis.tolist()
        ])
        (Phi,) = [Phi for Phi, _, residual in fits if residual == ext.residual][:1]
        np.testing.assert_allclose(Phi, reference, rtol=1e-14, atol=0.0)
        fits.clear()
    V = rng.standard_normal((15, 6))
    factored.append((V, *echelon(V)))
    for V, R, pivots in factored:
        R_ref, pivots_ref = echelon_by_columns(V)
        assert pivots == pivots_ref and R.tobytes() == R_ref.tobytes()


def test_clipped_weights_never_overstate_the_fit():
    # where the least-squares weights go negative, clipping leaves them
    # nonnegative and the residual at least the nonnegative minimum
    from scipy.optimize import nnls

    certify_module = importlib.import_module("gpmkit.certify")
    rng = np.random.default_rng(5)
    clipped = 0
    for _ in range(40):
        Phi = rng.standard_normal((8, 3))
        target = Phi @ rng.uniform(-1.0, 1.0, 3) + 0.1 * rng.standard_normal(8)
        weights, residual = certify_module._atom_weights(Phi, target)
        assert (weights >= 0).all()
        assert residual == pytest.approx(np.linalg.norm(Phi @ weights - target), abs=1e-12)
        assert residual >= nnls(Phi, target)[1] - 1e-12
        clipped += bool((np.linalg.lstsq(Phi, target, rcond=None)[0] < 0).any())
    assert clipped >= 10


def test_solving_leaves_scipy_optimize_unloaded():
    # import gpmkit and certified solves load no scipy.optimize: the
    # screen rules the facial-reduction LP out on rational-1, and on the
    # re-centering face problems of camel-3 and of quadratic3-4 at
    # extraction seed 23, and the atom weights come from least squares
    import gpmkit

    code = (
        "import sys\n"
        "import gpmkit\n"
        "from gpmkit.dsl import parse_model\n"
        "for path, order, seed in [(sys.argv[1], 1, 0), (sys.argv[2], 3, 0), (sys.argv[3], 4, 23)]:\n"
        "    with open(path) as fh:\n"
        "        sol = gpmkit.solve_gpm(parse_model(fh.read(), path), order=order, seed=seed)\n"
        "    assert sol.status == 1, (path, sol.status)\n"
        "    assert 'scipy.optimize' not in sys.modules, path\n"
    )
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(gpmkit.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    models = [model_path(name) for name in ("rational.gpm", "camel.gpm", "quadratic3.gpm")]
    proc = subprocess.run(
        [sys.executable, "-c", code, *models],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("name,order,seed", [("camel.gpm", 3, 0), ("quadratic3.gpm", 4, 23)])
def test_centered_face_problem_leaves_no_facial_reduction_candidate(monkeypatch, name, order, seed):
    # _recenter centers the face problem at the top-level point, with its
    # undetermined moments moved along the recession direction, where
    # every orthant slack (the pins' tau, the bound's slack) and every
    # moment-matrix diagonal is positive: c, the row c' of [A; c'], has
    # one strict sign on every candidate column, so the screen leaves
    # none.  Extraction is refused below M_r, since quadratic3-4's
    # top-level point certifies from M_2 at every seed of 0-59 (camel-3
    # has no determined flat truncation to extract from at that point)
    certify_module = importlib.import_module("gpmkit.certify")
    conic_module = importlib.import_module("gpmkit.conic")
    refuse_extraction(monkeypatch)
    solve_conic, faces = certify_module.solve_conic, []

    def recording_solve_conic(problem, params=None):
        faces.append(problem)
        return solve_conic(problem, params)

    monkeypatch.setattr(certify_module, "solve_conic", recording_solve_conic)
    with open(model_path(name)) as fh:
        sol = certify_module.solve_gpm(parse_model(fh.read(), name), order=order, seed=seed)
    assert sol.status == 1
    _, face = faces
    cone = face.cone
    cols = np.concatenate(
        [cone.f + np.arange(cone.l)] + [cone.diagonal(k) for k in range(len(cone.s))]
    )
    assert (face.c[cols] > 0).all()
    B = np.vstack([face.A[:, cols].toarray(), face.c[cols]])
    assert not conic_module._certificate_candidates(B).any()


def test_no_determined_truncation_gives_no_certificate():
    # mom(x) is pinned and mom(x^2) bounded, but the mass appears only on
    # a diagonal of M_1: no data fixes it, so every M_t holds an
    # undetermined moment, and certify reports no certificate
    text = "var x;\nmin mom(x);\nmom(x) == 0.5;\nmom(x^2) <= 1;\n"
    sol = solve_gpm(parse_model(text, "<undetermined>"))
    assert sol.status == 0 and sol.objective == pytest.approx(0.5, abs=1e-8)
    flat = sol.certificate.flatness[1]
    assert flat.ranks_by_degree == {0: None, 1: None}
    assert not flat.flat and flat.truncation is None
    assert not sol.certificate.certified and sol.certificate.extractions == {}
    np.testing.assert_array_equal(np.isnan(sol.moments[1]), [True, False, False])


def test_certify_accepts_planted_vector():
    rng = np.random.default_rng(3)
    msdp, measure, points, weights, y = planted_instance(rng, 2, 2)
    cert = certify(msdp, y)
    assert cert.certified
    assert cert.objective_mismatch < 1e-8
    assert cert.infeasibility < 1e-8
    assert cert.flatness[measure.label].flat
    ext = cert.extractions[measure.label]
    dp, dw = match_atoms(points, weights, ext.points, ext.weights)
    assert dp < 1e-6 and dw < 1e-6


def test_certify_checks_support_feasibility():
    # plant an atom violating the stated support set: flatness and
    # extraction go through but the certificate must be withheld
    ctx = ModelContext()
    x = ctx.vars("x", 2)
    problem = GPMProblem(
        minimize(mom(x[0] + x[1])), [x[0] >= 0.5]
    )
    msdp = assemble(problem, 2)
    measure = problem.measures[0]
    points = np.array([[-0.8, 0.3]])
    weights = np.array([1.0])
    y = planted_moment_vector(msdp, measure, points, weights)
    cert = certify(msdp, y)
    assert not cert.certified
    assert cert.infeasibility > 0.1


def test_solve_gpm_trivial_quartic():
    ctx = ModelContext()
    x = ctx.var("x")
    problem = GPMProblem(minimize(mom((x - 1) ** 2 * (x + 1) ** 2)))
    sol = solve_gpm(problem)
    assert sol.status == 1
    assert abs(sol.objective) < 1e-6
    points, weights = sol.support(1)
    assert sorted(np.round(points[:, 0], 4)) == [-1.0, 1.0]
    assert abs(weights.sum() - 1.0) < 1e-6


def test_solve_gpm_uncertified_bound():
    ctx, problem = quadratic3_problem()
    sol = solve_gpm(problem, order=1, params=SolverParams(eps=1e-9))
    assert sol.status == 0
    assert abs(sol.objective - (-6.0)) < 1e-2
    with pytest.raises(ModelError):
        sol.support(1)


def test_support_unknown_label():
    ctx = ModelContext()
    x = ctx.var("x")
    problem = GPMProblem(minimize(mom(x ** 2)))
    sol = solve_gpm(problem)
    assert sol.status == 1
    with pytest.raises(ModelError):
        sol.support(2)


def test_support_of_an_uncertified_solve_is_not_an_earlier_solves_atoms():
    # the certified order-4 solve stores its atoms on the shared measure;
    # the order-1 bound that follows has none of its own
    with open(model_path("quadratic3.gpm")) as fh:
        problem = parse_model(fh.read(), "quadratic3.gpm")
    exact = solve_gpm(problem, order=4)
    assert exact.status == 1
    bound = solve_gpm(problem, order=1)
    assert bound.status == 0
    with pytest.raises(ModelError):
        bound.support(1)
    points, weights = exact.support(1)
    worst_point, _ = match_atoms([[2.0, 0.0, 0.0], [0.5, 0.0, 3.0]], [0.5, 0.5], points, weights)
    assert len(points) == 2 and worst_point < 1e-3
    assert np.array_equal(problem.measures[0].support_points, points)


def test_moments_stored_on_measures():
    ctx = ModelContext()
    x = ctx.var("x")
    problem = GPMProblem(minimize(mom((x - 0.25) ** 2)))
    sol = solve_gpm(problem)
    assert sol.status == 1
    measure = problem.measures[0]
    values = sol.moments[1]
    assert abs(values[0] - 1.0) < 1e-6
    assert abs(values[1] - 0.25) < 1e-4
    assert measure.moments is sol.moments[1]
    # one float per row of the raw exponents, in mvec order
    assert values.dtype == np.float64
    assert len(values) == len(mvec(sol.msdp, 1)) == len(sol.msdp.index.raw_exponents[measure])


def test_extraction_reduces_shifted_pivots_by_substitution_rules():
    # the pivots 1 and x1 times x1 give x1^2, which only the rule
    # x1^2 -> 1 brings back into the multilinear basis
    ctx = ModelContext()
    x = ctx.vars("x", 2)
    problem = GPMProblem(minimize(mom(x[0] * x[1])), [x[0] ** 2 == 1, x[1] ** 2 == 1])
    sol = solve_gpm(problem, order=2)
    assert sol.msdp.report.n_support_substitutions == 2
    assert sol.status == 1
    points, weights = sol.support(1)
    worst_point, worst_weight = match_atoms([[1.0, -1.0], [-1.0, 1.0]], [0.5, 0.5], points, weights)
    assert len(points) == 2
    assert worst_point < 1e-6 and worst_weight < 1e-6


def test_solve_gpm_makes_no_monomial_per_moment(monkeypatch):
    # the nine rules x(i)^2 -> 1, moments, blocks and extraction stay in
    # exponent tuples and rows, so neither order 2 (715 raw moments) nor
    # order 3 (5005) makes a Monomial; mvec, which lists the moments as
    # monomials, shows that the counter sees every call
    monomial = ExponentMap.monomial
    calls = []

    def counting_monomial(self, t):
        calls.append(t)
        return monomial(self, t)

    monkeypatch.setattr(ExponentMap, "monomial", counting_monomial)
    counts = []
    for order in (2, 3):
        with open(model_path("maxcut_sub.gpm")) as fh:
            problem = parse_model(fh.read(), "maxcut_sub.gpm")
        calls.clear()
        sol = solve_gpm(problem, order=order)
        counts.append(len(calls))
        moments = mvec(sol.msdp, 1)
        assert len(calls) == len(moments) == {2: 715, 3: 5005}[order]
    assert counts == [0, 0]


@pytest.mark.parametrize(
    "name,order,calls,status",
    [
        ("camel.gpm", 3, 2, 1),
        ("rational.gpm", 2, 1, 1),
        ("quadratic3.gpm", 1, 1, 0),
        ("quadratic3.gpm", 2, 1, 0),
        ("quadratic3.gpm", 3, 1, 0),
        ("quadratic3.gpm", 4, 1, 1),
        ("maxcut_sub.gpm", 2, 1, 0),
    ],
)
def test_recentering_runs_only_on_a_flat_truncation(
    monkeypatch, name, order, calls, status
):
    # the top-level solve, then one re-centering solve only when the
    # top-level point is not certified and every measure has a flat
    # truncation; the package rebinds the name `certify` to the
    # function, so the module whose `solve_conic` solve_gpm calls is
    # fetched with importlib
    certify_module = importlib.import_module("gpmkit.certify")
    solve_conic = certify_module.solve_conic
    seen = []

    def counting_solve_conic(problem, params=None):
        seen.append(problem)
        return solve_conic(problem, params)

    monkeypatch.setattr(certify_module, "solve_conic", counting_solve_conic)
    with open(model_path(name)) as fh:
        problem = parse_model(fh.read(), name)
    sol = certify_module.solve_gpm(problem, order=order)
    assert len(seen) == calls
    assert sol.status == status
    truncations = [f.truncation for f in sol.certificate.flatness.values()]
    if calls == 1 and status == 1:
        # certified at the top-level point from each flat truncation,
        # below the relaxation order (rational-2 at 1, quadratic3-4 at 2)
        degrees = [e.degree for e in sol.certificate.extractions.values()]
        assert degrees == truncations and max(degrees) < order
    elif calls == 1:
        assert truncations == [None] * len(truncations)
    else:
        assert None not in truncations


@pytest.mark.parametrize("order", [4, 5])
def test_camel_certifies_from_a_flat_truncation_at_half_the_data_degree(monkeypatch, order):
    # the top-level point leaves the moments of M_3 that hold x2^6 and
    # above undetermined, so it has no determined flat truncation with
    # 2t >= d = 6; the face solve fills them with a flat extension, whose
    # ranks read 1, 2, 2, 2 on to degree r, and M_r gives both atoms
    certify_module = importlib.import_module("gpmkit.certify")
    solve_conic = certify_module.solve_conic
    seen = []

    def counting_solve_conic(problem, params=None):
        seen.append(problem)
        return solve_conic(problem, params)

    monkeypatch.setattr(certify_module, "solve_conic", counting_solve_conic)
    with open(model_path("camel.gpm")) as fh:
        sol = certify_module.solve_gpm(parse_model(fh.read(), "camel.gpm"), order=order)
    assert len(seen) == 2
    assert sol.status == 1
    top = certify_module.certify(sol.msdp, sol.conic.y).flatness[1]
    assert [top.ranks_by_degree[t] for t in range(order + 1)] == [1, 2, 2] + [None] * (order - 2)
    assert np.isnan(sol.conic.y).any() and not np.isnan(sol.moments[1]).any()
    flat = sol.certificate.flatness[1]
    assert [flat.ranks_by_degree[t] for t in range(order + 1)] == [1] + [2] * order
    assert flat.flat and flat.truncation == 2
    assert sol.certificate.extractions[1].degree == order
    points, _ = sol.support(1)
    assert len(points) == 2
    for atom in [(0.0898, -0.7127), (-0.0898, 0.7127)]:
        assert min(np.max(np.abs(point - np.asarray(atom))) for point in points) < 1e-3


def _quadratic3_order_four():
    with open(model_path("quadratic3.gpm")) as fh:
        return parse_model(fh.read(), "quadratic3.gpm")


def _has_quadratic3_atoms(points):
    return len(points) == 2 and all(
        min(np.max(np.abs(p - np.asarray(atom))) for p in points) < 1e-3
        for atom in [(2.0, 0.0, 0.0), (0.5, 0.0, 3.0)]
    )


def test_quadratic3_order_four_re_centers_when_the_truncation_fails(monkeypatch):
    # with extraction refused on every truncation below M_r, the top-level
    # point is not certified from its flat M_2 nor from its flat M_3, the
    # largest truncation it determines, so solve_gpm re-centers, and the
    # face solve's point certifies from M_4 itself
    certify_module = importlib.import_module("gpmkit.certify")
    solve_conic = certify_module.solve_conic
    seen = []

    def counting_solve_conic(problem, params=None):
        seen.append(problem)
        return solve_conic(problem, params)

    monkeypatch.setattr(certify_module, "solve_conic", counting_solve_conic)
    degrees = refuse_extraction(monkeypatch)
    sol = certify_module.solve_gpm(_quadratic3_order_four(), order=4)
    assert len(seen) == 2
    assert degrees == [2, 3, 4]
    assert sol.status == 1
    assert sol.certificate.extractions[1].degree == 4
    assert _has_quadratic3_atoms(sol.support(1)[0])


def test_certify_moves_on_to_the_next_flat_truncation(monkeypatch):
    # with extraction refused at M_2 alone, quadratic3-4's top-level
    # point certifies from its next flat truncation, M_3, the largest it
    # determines, with no face solve
    certify_module = importlib.import_module("gpmkit.certify")
    solve_conic, seen = certify_module.solve_conic, []

    def counting_solve_conic(problem, params=None):
        seen.append(problem)
        return solve_conic(problem, params)

    monkeypatch.setattr(certify_module, "solve_conic", counting_solve_conic)
    degrees = refuse_extraction(monkeypatch, lambda t, order: t == 2)
    sol = certify_module.solve_gpm(_quadratic3_order_four(), order=4)
    assert len(seen) == 1 and degrees == [2, 3]
    assert sol.status == 1 and sol.certificate.extractions[1].degree == 3
    assert sol.certificate.flatness[1].ranks_by_degree[4] is None
    assert _has_quadratic3_atoms(sol.support(1)[0])


def inflated_instance(objective_degree):
    """Two planted atoms in two variables at order 3, with the moments
    x1^6 and x2^6 raised by 0.5: that adds a PSD diagonal term on the
    rows x1^3 and x2^3 of M_3, so the ranks by degree read 1, 2, 2, 4
    and the flat truncation is t = 2."""
    ctx = ModelContext()
    x = ctx.vars("x", 2)
    problem = GPMProblem(minimize(mom(x[0] ** objective_degree + x[1])))
    msdp = assemble(problem, 3)
    measure = problem.measures[0]
    points = np.array([[-0.6, 0.4], [0.5, 0.9]])
    weights = np.array([0.3, 0.7])
    y = planted_moment_vector(msdp, measure, points, weights)
    for (_, exps), k in msdp.index.var_of.items():
        if sorted(exps) == [0, 6]:
            y[k] += 0.5
    return msdp, measure, points, weights, y


@pytest.mark.parametrize("objective_degree", [1, 4])
def test_certify_extracts_planted_atoms_from_the_flat_truncation(objective_degree):
    # 2t = 4 >= d: the atoms come from M_2, and M_3's inflated diagonal
    # does not reach the objective
    msdp, measure, points, weights, y = inflated_instance(objective_degree)
    cert = certify(msdp, y)
    flat = cert.flatness[measure.label]
    assert flat.ranks_by_degree == {0: 1, 1: 2, 2: 2, 3: 4}
    assert not flat.flat and flat.truncation == 2
    ext = cert.extractions[measure.label]
    assert ext.success and ext.degree == 2 and ext.rank == 2
    dp, dw = match_atoms(points, weights, ext.points, ext.weights)
    assert dp < 1e-6 and dw < 1e-6
    assert cert.certified
    assert cert.objective_mismatch < 1e-8


@pytest.mark.parametrize("objective_degree", [5, 6])
def test_certify_does_not_extract_below_half_the_data_degree(objective_degree):
    # 2t = 4 < d: M_2 does not fix the moments the objective reads, so
    # nothing is extracted and the point is not certified
    msdp, measure, _, _, y = inflated_instance(objective_degree)
    cert = certify(msdp, y)
    assert cert.flatness[measure.label].truncation == 2
    assert cert.extractions == {}
    assert not cert.certified


def planted_flatness(points, weights, order, constraints=()):
    """FlatnessResult of the moment matrix of planted atoms on x[0..n)."""
    points = np.asarray(points, dtype=float)
    ctx = ModelContext()
    x = ctx.vars("x", points.shape[1])
    cons = [make(x) for make in constraints]
    problem = GPMProblem(minimize(mom(x[0])), cons)
    msdp = assemble(problem, order)
    measure = problem.measures[0]
    y = planted_moment_vector(msdp, measure, points, np.asarray(weights, float))
    certify_module = importlib.import_module("gpmkit.certify")
    block = moment_block(msdp, measure)
    return certify_module._flatness(msdp, block, mmat_values(msdp, y, measure))


@pytest.mark.parametrize("order", [1, 2, 3])
def test_dirac_measure_is_flat_at_v(order):
    flat = planted_flatness([[0.3, -0.6]], [1.0], order)
    assert flat.v == 1
    assert flat.truncation == 1
    assert set(flat.ranks_by_degree.values()) == {1}


@pytest.mark.parametrize("nvars", [1, 2])
def test_two_atoms_at_order_three_are_flat_at_two(nvars):
    points = [[-0.5, 0.2][:nvars], [0.7, -0.4][:nvars]]
    flat = planted_flatness(points, [0.4, 0.6], 3)
    assert flat.ranks_by_degree == {0: 1, 1: 2, 2: 2, 3: 2}
    assert flat.truncation == 2
    assert flat.flat


def test_rising_ranks_have_no_flat_truncation():
    # standard normal moments 1, 0, 1, 0, 3, 0, 15: rank rises to 4
    ctx = ModelContext()
    x = ctx.var("x")
    problem = GPMProblem(minimize(mom(x)))
    msdp = assemble(problem, 3)
    gauss = {0: 1.0, 1: 0.0, 2: 1.0, 3: 0.0, 4: 3.0, 5: 0.0, 6: 15.0}
    y = np.zeros(msdp.index.n_vars)
    for (_, t), k in msdp.index.var_of.items():
        y[k] = gauss[sum(t)]
    flat = check_flatness(msdp, y, problem.measures[0])
    assert flat.ranks_by_degree == {0: 1, 1: 2, 2: 3, 3: 4}
    assert flat.truncation is None
    assert not flat.flat


@pytest.mark.parametrize(
    "constraint",
    [lambda x: 1 - x[0] ** 3 >= 0, lambda x: 1 - x[0] ** 4 >= 0],
    ids=["degree3", "degree4"],
)
def test_flat_truncation_search_starts_at_v(constraint):
    # v = 2: a Dirac measure is flat at t = 2, not 1, and two atoms need
    # rank M_3 = rank M_1, so t = 3 where v = 1 would give t = 2
    dirac = planted_flatness([[0.3]], [1.0], 2, [constraint])
    assert dirac.v == 2 and dirac.truncation == 2
    pair = planted_flatness([[-0.5], [0.7]], [0.4, 0.6], 3, [constraint])
    assert pair.ranks_by_degree == {0: 1, 1: 2, 2: 2, 3: 2}
    assert pair.v == 2 and pair.truncation == 3


def test_moment_map_sends_dirac_moments_to_the_moved_dirac():
    # the u-moments of a Dirac at u go to the x-moments of the Dirac at
    # c + h u; the second variable stays (c = 0, h = 1), the third has a
    # zero center, and the map is triangular in grlex order
    from gpmkit.certify import _moment_map
    from gpmkit.polynomials import exponent_array

    exps = exponent_array(3, 6)
    center, half = np.array([1.5, 0.0, 0.0]), np.array([1.5, 1.0, 2.0])
    T = _moment_map(exps, center, half)
    entries = T.tocoo()
    assert np.all(entries.col <= entries.row)
    rng = np.random.default_rng(7)
    for u in rng.uniform(-1.0, 1.0, size=(5, 3)):
        x = center + half * u
        want = np.prod(x ** exps, axis=1)
        np.testing.assert_allclose(T @ np.prod(u ** exps, axis=1), want, rtol=1e-12, atol=1e-12)
    # an undetermined u-moment reaches only the x-moments that expand to
    # it: u(2) u(3) only those of x(1)^k x(2) x(3)
    y = np.prod(rng.uniform(-1.0, 1.0, 3) ** exps, axis=1)
    y[exps.tolist().index([0, 1, 1])] = np.nan
    undetermined = np.isnan(T @ y)
    assert undetermined.tolist() == [a[1:] == [1, 1] for a in exps.tolist()]
    identity = _moment_map(exps, np.zeros(3), np.ones(3))
    assert (identity != scipy.sparse.identity(len(exps))).nnz == 0


def test_quadratic3_moves_two_variables_and_reports_in_model_coordinates():
    # x(1) in [0, 2] and x(3) in [0, 3] move onto [-1, 1]; x(2) has no
    # upper bound and stays.  The atoms and the moments of degree <= 4,
    # those of the flat M_2 the atoms came from, are the model's
    with open(model_path("quadratic3.gpm")) as fh:
        problem = parse_model(fh.read(), "quadratic3.gpm")
    sol = solve_gpm(problem, order=4)
    assert sol.normalized == {1: {"x(1)": [1.0, 1.0], "x(3)": [1.5, 1.5]}}
    assert sol.status == 1
    measure = problem.measures[0]
    points, weights = sol.support(1)
    assert np.array_equal(measure.support_points, points)
    assert _has_quadratic3_atoms(points)
    exps = sol.msdp.index.raw_exponents[measure]
    low = exps.sum(axis=1) <= 4
    atoms = weights @ np.prod(points[:, None, :] ** exps[low], axis=2)
    np.testing.assert_allclose(sol.moments[1][low], atoms, rtol=1e-6, atol=1e-6)
    assert measure.moments is sol.moments[1]
    # nothing moves on rational-1, solved once: no report, and the
    # moments are those of the relaxation as solved
    with open(model_path("rational.gpm")) as fh:
        problem = parse_model(fh.read(), "rational.gpm")
    sol = solve_gpm(problem, order=1)
    assert sol.normalized == {1: None}
    assert np.array_equal(sol.moments[1], mvec_values(sol.msdp, sol.conic.y, 1))


def test_only_variables_bounded_on_both_sides_move():
    # x is already on [-1, 1]; y's tightest bounds are [0, 2]; z has one
    # affine bound (z^2 <= 1 is not affine); w is pinned (l = u)
    from gpmkit.certify import _boxes

    problem = parse_model(
        "var x; var y; var z; var w; min x + y + z + w;"
        "-1 <= x; x <= 1; 0 <= y; y <= 4; 2*y <= 4; z >= 0; z^2 <= 1; w == 0.5;"
    )
    moved, boxes = _boxes(problem)
    ((measure, (center, half)),) = boxes.items()
    assert center.tolist() == [0.0, 1.0, 0.0, 0.0] and half.tolist() == [1.0, 1.0, 1.0, 1.0]
    # y <= 4 reads 1 + y <= 4 in u
    y = measure.vars[1]
    assert [c.gform().eval({y: 0.0}) for c in moved.support_constraints[2:5]] == [1.0, 3.0, 2.0]
    # a problem where nothing moves is handed on as it is
    one_sided = parse_model("var x; min x^2; x >= 0;")
    assert _boxes(one_sided) == (one_sided, {})
