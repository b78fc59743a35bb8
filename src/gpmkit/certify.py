"""Optimality certificates and support extraction.

A relaxation is exact when the moment matrix satisfies the flat
extension condition rank M_r = rank M_{r-v}, with v the half-degree of
the deepest inequality on the measure (v = 1 when unconstrained).  The
moment vector is then the moment vector of a discrete measure, whose
atoms are recovered from a column echelon factorization of the moment
matrix: the pivot monomials index a basis on which multiplication by
each variable acts as a matrix, and the atoms are read off the shared
Schur vectors of a random combination of those operators.  Weights are
the least-squares fit of the atoms to the moment vector, clipped at 0;
where the fit is nonnegative and the atoms' moment columns are
independent, that is the nonnegative least-squares fit.

An interior-point solver returns a point in the relative interior of
the optimal face, where the top-degree moments of M_r are inflated and
the rank test can fail although a lower truncation is already flat
(rank M_t = rank M_{t-v} for some t <= r; Nie, Math. Program. 142,
2013).  The forced-entry reduction of ``solve_conic`` leaves the moments
that no feasible point of the sum-of-squares side constrains
undetermined (NaN), and only the truncations M_t that hold none of them
are determined; the ranks of the others are None.  certify tries, per
measure and in this order:

1. M_r, when it is determined and flat: extract the atoms from M_r at
   rank M_{r-v};
2. the flat truncations M_t with t >= max(v, ceil(d/2)), d the largest
   degree of the measure's polynomials in the objective and the moment
   constraints, in increasing order up to the largest determined one:
   extract from M_t at rank M_t.  By the flat extension theorem (Curto
   & Fialkow, 2005) the moments of degree <= 2t then come from an
   atomic measure, and 2t >= d makes those all the moments the data
   reads.  M_t holds only determined moments, and its flat extension
   to every degree (Laurent & Mourrain, Arch. Math. 93, 2009, state it
   for any basis connected to 1) gives values to the undetermined
   moments above degree 2t that match the atoms;
3. none: no certificate at this point.

A candidate counts only when its atoms pass the same feasibility and
objective checks, and the first one that does wins: at quadratic3-4 an
M_2 whose atoms break a support constraint can leave it to M_3.  When
none passes, and every measure has a flat truncation, solve_gpm
re-centers once: a face solve that pins the determined moments of
degree <= 2r-2 and minimizes the top-degree diagonal.  It leaves every
truncation of degree < r as it was, so it only pays when one of them
already shows flatness, and it fills the undetermined moments with a
minimal flat extension: that is how camel at orders 3-5, whose moments
x2^6 and above the data leave free, certifies.  It is skipped when some
measure has no flat truncation; on the paper models it never certified
such a point.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.linalg
import scipy.sparse

from .conic import (
    ConeSpec,
    ConicProblem,
    SolverParams,
    lift,
    permuted_columns,
    reduce_by_orbits,
    sign_flips,
    solve_conic,
    to_conic,
)
from .model import (
    GPMProblem,
    ModelError,
    MomentConstraint,
    MomentExpression,
    Objective,
    SupportConstraint,
)
from .polynomials import Monomial, Polynomial
from .relaxation import (
    assemble,
    mmat_values,
    moment_block,
    mvec_values,
    sign_classes,
    variable_permutations,
)

# singular values below _RANK_TOL times the largest count as zero; atoms
# may break support constraints and the objective by _FEAS_TOL (relative)
_RANK_TOL = 1e-3
_FEAS_TOL = 1e-4
# relative half-width of the pin boxes and objective slack of re-centering
_RECENTER_REL = 1e-5


def numeric_rank(matrix, tol=_RANK_TOL):
    """Rank by singular values above tol times the largest."""
    matrix = np.atleast_2d(np.asarray(matrix, dtype=float))
    if matrix.size == 0:
        return 0
    svals = scipy.linalg.svdvals(matrix)
    if svals[0] == 0.0:
        return 0
    return int(np.sum(svals > tol * svals[0]))


@dataclass
class FlatnessResult:
    """Rank pattern of one measure's moment matrix.

    ranks_by_degree maps each t in [0, r] to rank M_t, or to None when
    M_t holds an undetermined (NaN) moment; rank and rank_shifted are
    those of M_r and M_{r-v}, and flat is false unless M_r is
    determined.  truncation is the smallest t in [v, r] with rank M_t =
    rank M_{t-v} (a flat truncation), or None when the ranks rise at
    every such t where M_t is determined.
    """

    flat: bool
    rank: int
    rank_shifted: int
    v: int
    ranks_by_degree: dict
    truncation: int | None = None

    def flat_truncations(self, start):
        """The flat truncations t >= start with M_t determined, in
        increasing order."""
        ranks, v = self.ranks_by_degree, self.v
        return [
            t for t in range(max(start, v), len(ranks))
            if ranks[t] is not None and ranks[t] == ranks[t - v]
        ]


def _inequality_halfdegree(msdp, measure):
    v = 1
    for con in msdp.problem.support_constraints:
        if con.rel != "==" and con.measure is measure:
            v = max(v, math.ceil(con.gform().degree / 2))
    return v


def check_flatness(msdp, y, measure):
    """Evaluate the flat extension condition at the solution y."""
    block = moment_block(msdp, measure)
    return _flatness(msdp, block, mmat_values(msdp, y, block.measure))


def _flatness(msdp, block, M):
    """Rank pattern of the moment matrix M of a measure's moment block.

    Only the truncations M_t that hold no undetermined (NaN) moment are
    ranked.
    """
    v = _inequality_halfdegree(msdp, block.measure)
    # the basis is in grlex order, so M_d is the leading square of M
    ends = np.searchsorted(block.basis.sum(axis=1), np.arange(msdp.order + 1), side="right")
    ranks = {}
    for d, k in enumerate(ends.tolist()):
        M_d = M[:k, :k]
        ranks[d] = numeric_rank(M_d) if np.isfinite(M_d).all() else None
    rank = ranks[msdp.order]
    rank_shifted = ranks[max(msdp.order - v, 0)]
    flat = FlatnessResult(
        flat=rank is not None and rank == rank_shifted,
        rank=rank,
        rank_shifted=rank_shifted,
        v=v,
        ranks_by_degree=ranks,
    )
    flat.truncation = next(iter(flat.flat_truncations(v)), None)
    return flat


@dataclass
class ExtractionResult:
    """Atoms of one measure recovered from its moment matrix.

    degree is the t of the truncation M_t the atoms came from (the
    relaxation order r when M_r itself was factored).
    """

    success: bool
    points: np.ndarray = None
    weights: np.ndarray = None
    rank: int = 0
    residual: float = 0.0
    message: str = ""
    degree: int | None = None


def _column_echelon(V):
    """Column echelon form of V preferring low-degree pivot rows.

    Rows are ordered by graded lexicographic degree already; for each
    column the pivot is the first remaining row whose entry is within
    a relative tolerance of the column maximum.  Returns the reduced
    matrix R (with R[pivots] = I) and the pivot row indices.
    """
    U = np.array(V, dtype=float)
    pivots = []
    for c in range(U.shape[1]):
        col = np.abs(U[:, c])
        col[pivots] = 0.0
        if col.max() == 0.0:
            return None, None
        r = int(np.flatnonzero(col > 1e-4 * col.max())[0])
        pivots.append(r)
        U[:, c] /= U[r, c]
        # every other column c2 loses U[r, c2] times column c
        rest = np.arange(U.shape[1]) != c
        U[:, rest] -= np.outer(U[:, c], U[r, rest])
    return U, pivots


def extract_points(msdp, y, measure, seed=0):
    """Recover the atoms of a measure from its moment matrix at y.

    Requires the flatness rank as the factorization order.  Returns
    points with one atom per row (coordinates in the measure's variable
    order) and their weights.  Extraction can legitimately fail when
    the moment matrix is not the moment matrix of a measure; the result
    then reports success=False rather than raising.
    """
    block = moment_block(msdp, measure)
    M = mmat_values(msdp, y, block.measure)
    rho = _flatness(msdp, block, M).rank_shifted
    return _extract_at(msdp, block, M, msdp.order, rho, seed)


def _extract_at(msdp, block, M, t, rho, seed):
    """Atoms of a measure from the truncation M_t of its moment matrix M.

    The basis rows of degree <= t are a prefix of the grlex basis, so
    M_t is the leading square of M.
    """
    k = int(np.count_nonzero(block.basis.sum(axis=1) <= t))
    ext = _extract(msdp, block.measure, block.basis[:k], M[:k, :k], rho, seed)
    ext.degree = t
    return ext


def _extract(msdp, measure, basis, M, rho, seed):
    """Atoms of a measure from the moment matrix M over the exponent
    rows ``basis``, factored at rank rho.

    Three random combinations of the multiplication operators are tried;
    of those whose atoms fit the moments (``_atom_weights``), the one
    with the smallest residual wins.  The fit's matrix Phi holds each
    atom's basis monomials, each the product of the atom's coordinate
    powers in the measure's variable order.
    """
    if rho == 0:
        return ExtractionResult(success=False, message="moment matrix is zero")

    evals, evecs = scipy.linalg.eigh(M)
    idx = np.argsort(evals)[::-1][:rho]
    lead = np.clip(evals[idx], 0.0, None)
    V = evecs[:, idx] * np.sqrt(lead)

    R, pivots = _column_echelon(V)
    if R is None:
        return ExtractionResult(success=False, message="rank-deficient factorization")
    index = msdp.index
    nvars = len(measure.vars)
    # row k * rho + j: pivot row j times variable k
    unit = np.eye(nvars, dtype=np.int64)
    shifts = (basis[pivots] + unit[:, None, :]).reshape(nvars * rho, nvars)
    nf, is_rep = index.rep_forms(measure, shifts)
    inside = is_rep & (nf.indices < len(basis))
    if not inside.all():
        row = np.repeat(np.arange(len(shifts)), np.diff(nf.indptr))[~inside][0]
        shifted = index.exponents[measure].monomial(tuple(shifts[row].tolist()))
        return ExtractionResult(
            success=False,
            message=f"monomial {shifted!r} leaves the truncated basis",
        )
    nf.resize(len(shifts), len(basis))
    # each row summed from 0.0 over its normal form's terms, in order
    operators = (nf @ R).reshape(nvars, rho, rho)

    best = None
    rng = np.random.default_rng(seed)
    for _ in range(3):
        lam = rng.standard_normal(nvars)
        lam /= np.linalg.norm(lam)
        T, Q = scipy.linalg.schur(np.tensordot(lam, operators, axes=1), output="real")
        sub = np.abs(np.diag(T, -1)).max() if rho > 1 else 0.0
        if sub > _RANK_TOL * max(1.0, np.abs(T).max()):
            continue  # complex eigenvalues: try another combination
        # atom i, coordinate n: the diagonal entry i of Q' N_n Q
        points = np.einsum("ji,njk,ki->in", Q, operators, Q)
        # weights by least squares on the basis moments
        Phi = np.prod(points[None, :, :] ** basis[:, None, :], axis=2)
        target = M[:, 0]
        weights, residual = _atom_weights(Phi, target)
        scale = 1.0 + float(np.linalg.norm(target))
        fits = residual <= math.sqrt(_RANK_TOL) * scale
        if fits and (best is None or residual < best.residual):
            best = ExtractionResult(
                success=True,
                points=points,
                weights=weights,
                rank=rho,
                residual=residual,
            )
    if best is not None:
        return best
    return ExtractionResult(
        success=False,
        rank=rho,
        message="no consistent atomic measure found",
    )


def _atom_weights(Phi, target):
    """Weights w >= 0 with Phi w close to target, and |Phi w - target|.

    w is the least-squares solution clipped at 0, the residual that of
    the clipped w.  Where the least-squares solution is nonnegative and
    Phi has full column rank, w is the unique nonnegative least-squares
    minimizer; elsewhere the residual can only exceed its minimum, so a
    fit is never overstated.
    """
    weights = np.clip(np.linalg.lstsq(Phi, target, rcond=None)[0], 0.0, None)
    return weights, float(np.linalg.norm(Phi @ weights - target))


@dataclass
class Certificate:
    """Flatness and extraction outcome for every measure of a problem."""

    certified: bool
    flatness: dict
    extractions: dict
    objective_mismatch: float = 0.0
    infeasibility: float = 0.0


def _data_degree(msdp, measure):
    """Largest degree of the measure's polynomials in the objective and
    the moment constraints."""
    problem = msdp.problem
    exprs = [problem.objective.expr]
    for con in problem.moment_constraints:
        exprs.extend((con.lhs, con.rhs))
    return max(
        (poly.degree for expr in exprs for meas, poly in expr.terms_by_label() if meas is measure),
        default=0,
    )


def certify(msdp, y, seed=0):
    """Check flatness, extract atoms and verify them on all measures.

    Each measure's candidates are M_r when it is flat, then its flat
    truncations M_t with t >= max(v, ceil(d/2)) in increasing order, d
    the largest degree of its polynomials in the objective and the
    moment constraints (``_data_degree``), up to the largest M_t that
    holds no undetermined moment.  A smaller flat t, the
    ``FlatnessResult.truncation`` of camel-3 say, does not fix the
    moments the data reads.  A choice of one candidate per measure
    certifies when extraction succeeds on every measure, all extracted
    points are feasible for their support constraints and the
    objective recomputed from the atoms matches the SDP objective.  The
    choices are tried in order, the first measure's slowest, and the
    first that certifies wins; when none does, the first choice is
    reported.  Each moment matrix is built, and its ranks found, once,
    and each truncation is factored at most once.
    """
    flatness, candidates, extracted = {}, [], {}
    for measure in msdp.problem.measures:
        block = moment_block(msdp, measure)
        M = mmat_values(msdp, y, block.measure)
        flat = _flatness(msdp, block, M)
        flatness[measure.label] = flat
        start = math.ceil(_data_degree(msdp, measure) / 2)
        ts = [msdp.order] if flat.flat else []
        ts += [t for t in flat.flat_truncations(start) if t not in ts]
        # a flat M_t is factored at its rank, rank M_{t-v}
        candidates.append([(measure.label, block, M, t, flat.ranks_by_degree[t]) for t in ts])

    def extraction(label, block, M, t, rho):
        if (label, t) not in extracted:
            extracted[label, t] = _extract_at(msdp, block, M, t, rho, seed)
        return extracted[label, t]

    if not all(candidates):
        # a measure without a candidate leaves nothing to certify
        return Certificate(False, flatness, {
            picks[0][0]: extraction(*picks[0]) for picks in candidates if picks
        })
    first = None
    for choice in itertools.product(*candidates):
        extractions = {pick[0]: extraction(*pick) for pick in choice}
        if all(ext.success for ext in extractions.values()):
            infeas, mismatch = _atom_checks(msdp, y, extractions)
            cert = Certificate(
                bool(infeas <= _FEAS_TOL and mismatch <= _FEAS_TOL),
                flatness, extractions, mismatch, infeas,
            )
            if cert.certified:
                return cert
        else:
            cert = Certificate(False, flatness, extractions)
        first = first or cert
    return first


def _atom_checks(msdp, y, extractions):
    """The largest relative violation of a support constraint at the
    atoms, and the relative mismatch between the objective recomputed
    from the atoms and the SDP objective at y."""
    infeas = 0.0
    for con in msdp.problem.support_constraints:
        ext = extractions[con.measure.label]
        g = con.gform()
        for point in ext.points:
            value = g.eval(dict(zip(con.measure.vars, point)))
            violation = abs(value) if con.rel == "==" else max(0.0, -value)
            infeas = max(infeas, violation / (1.0 + abs(value)))

    expr = msdp.problem.objective.expr
    recomputed = expr.constant
    for measure, poly in expr.terms_by_label():
        ext = extractions[measure.label]
        for point, weight in zip(ext.points, ext.weights):
            recomputed += weight * poly.eval(dict(zip(measure.vars, point)))
    sdp_objective = (msdp.objective.coeffs @ y + msdp.objective.const)[0]
    return infeas, abs(recomputed - sdp_objective) / (1.0 + abs(sdp_objective))


@dataclass
class GPMSolution:
    """Outcome of solving a problem through its moment relaxation.

    status 1: the relaxation is exact, optimal measures were extracted
    and stored on the measures themselves.  status 0: the SDP was
    solved but exactness was not certified, so objective is only a
    bound.  status -1: the SDP could not be solved (infeasible,
    unbounded or numerical failure) and objective is None.

    ``moments`` maps each measure label to its moment vector, as
    ``mvec_values`` gives it: a float array in the grlex order of
    ``mvec`` and of ``msdp.index.raw_exponents[measure]``, NaN on the
    moments the solve left undetermined.  It is empty when the SDP was
    not solved.

    ``symmetry`` maps each measure label to None when no sign flip
    leaves its data unchanged, and otherwise to its flips (lists of
    variable names), the number of moments the orbit reduction pins to 0
    and the orders of its blocks' parity classes under the flips kept,
    which the pattern split of ``solve_conic`` hands to the solver as
    blocks (None when no flip was kept).  ``permutations`` maps each
    measure label to None when no permutation of its variables was
    found, and otherwise to its generators (each a list of cycles of
    variable names), the number of its moments no flip pins and the
    number of their orbits (None when no permutation was kept).

    ``normalized`` maps each measure label to None when none of its
    variables moved, and otherwise to {variable name: [c, h]} for each
    variable x that support constraints bound on both sides, l <= x <= u,
    and that was solved as u in [-1, 1] with x = c + h u (``_boxes``).
    ``msdp``, ``conic``, ``symmetry``, ``permutations`` and the ranks of
    the certificate are then those of the moved problem; its atoms, the
    measures' supports and ``moments`` are mapped back to the model's
    coordinates.
    """

    status: int
    objective: object
    order: int
    msdp: object
    conic: object
    certificate: object = None
    moments: dict = field(default_factory=dict)
    symmetry: dict = field(default_factory=dict)
    permutations: dict = field(default_factory=dict)
    normalized: dict = field(default_factory=dict)

    def support(self, label):
        """Atoms and weights this solve extracted for the measure with
        ``label``; ModelError unless the solve is certified (status 1).
        The measure's ``support_points`` may hold an earlier solve's."""
        if self.status != 1:
            raise ModelError("the solution is not certified and has no atoms")
        ext = self.certificate.extractions.get(label)
        if ext is None:
            raise ModelError(f"no measure with label {label}")
        return ext.points, ext.weights


def solve_gpm(problem, order=None, params=None, seed=0):
    """Assemble, solve and certify the moment relaxation of a problem.

    First every variable that support constraints affine in it alone
    bound on both sides, l <= x <= u with (l, u) != (-1, 1), is moved
    onto [-1, 1] by x = c + h u, c = (l + u) / 2 and h = (u - l) / 2
    (``_boxes``): the objective, the support constraints and the moment
    constraints are rewritten in u.  Hankel matrices in the monomial
    basis are well conditioned only near [-1, 1] (Beckermann, Numer.
    Math. 85, 2000), and an invertible affine change of variables maps
    each moment and localizing matrix by congruence, so every order's
    bound is unchanged.  The solve and certification run in u; the atoms
    go back through x = c + h u and the moments through the binomial
    map (``_moment_map``).  ``normalized`` reports the moves.

    The conic problem goes through the reductions in order: the orbit
    reduction (``sign_classes`` finds the sign flips and
    ``variable_permutations`` the permutations of the variables;
    ``reduce_by_orbits`` checks each as a signed permutation of the
    conic data, keeps one moment per orbit and pins to 0 the moments
    that some flip negates), then, inside the one ``solve_conic`` call,
    the pattern split, which splits the blocks by parity, zero-diagonal
    facial reduction, presolve and the block rotation, which splits
    every block whose data splits into its symmetry-adapted blocks.
    ``conic.lift`` maps each solution back, the last reduction first.
    ``symmetry`` and ``permutations`` report the orbit reduction per
    measure.

    Returns a GPMSolution; on certification the extracted supports are
    stored into the measures, so eval_on_support reads the minimizers
    directly.  Moment vectors are stored on the measures whenever the
    SDP was solved, NaN where the forced-entry reduction left a moment
    undetermined.  The solved point is certified from each measure's
    M_r when it is flat, else from a flat truncation M_t with 2t >= d
    (``certify``).  Only a point that neither certifies is re-centered
    (_recenter), and only when every measure has a flat truncation: the
    face solve moves only the top-degree part of each M_r, so a point
    whose ranks rise at every degree is reported as it is.  The face
    solve skips the orbit reduction.
    """
    params = params or SolverParams()
    problem, boxes = _boxes(problem)
    normalized = {
        m.label: {
            var.name: [c, h] for var, c, h in zip(m.vars, *(a.tolist() for a in boxes[m]))
            if (c, h) != (0.0, 1.0)
        } if m in boxes else None
        for m in problem.measures
    }
    msdp = assemble(problem, order)
    conic = to_conic(msdp)
    red, symmetry, permutations = _symmetry_reduction(msdp, conic)
    sol = solve_conic(conic if red is None else red.problem, params)
    if red is not None:
        sol = lift(conic, red, sol)
    if sol.status in ("infeasible", "unbounded", "failed"):
        return GPMSolution(
            status=-1, objective=None, order=msdp.order, msdp=msdp, conic=sol,
            symmetry=symmetry, permutations=permutations, normalized=normalized,
        )
    y = sol.y
    objective = conic.objective_value(y)
    cert = certify(msdp, y, seed=seed)
    if (
        not cert.certified
        and conic.cone.s
        and all(f.truncation is not None for f in cert.flatness.values())
    ):
        y, cert = _recenter(msdp, conic, sol, y, objective, cert, params, seed)
    moments = {}
    for measure in msdp.problem.measures:
        values = mvec_values(msdp, y, measure)
        if measure in boxes:
            exps = msdp.index.raw_exponents[measure]
            values = _moment_map(exps, *boxes[measure]) @ values
        measure.moments = moments[measure.label] = values
    for measure, (center, half) in boxes.items():
        ext = cert.extractions.get(measure.label)
        if ext is not None and ext.success:
            ext.points = center + half * ext.points
    status = 1 if cert.certified else 0
    if cert.certified:
        for measure in msdp.problem.measures:
            ext = cert.extractions[measure.label]
            measure.set_support(ext.points, ext.weights)
    return GPMSolution(
        status=status,
        objective=objective,
        order=msdp.order,
        msdp=msdp,
        conic=sol,
        certificate=cert,
        moments=moments,
        symmetry=symmetry,
        permutations=permutations,
        normalized=normalized,
    )


def _boxes(problem):
    """``problem`` with its bounded variables moved onto [-1, 1].

    A variable x moves when the support constraints affine in x alone
    give it a largest lower bound l and a smallest upper bound u with
    l < u and (l, u) != (-1, 1).  It is replaced by c + h x, c = (l + u)
    / 2 and h = (u - l) / 2, in the objective, the support constraints
    and the moment constraints; the variable object then stands for u.
    Returns the problem, itself when nothing moves, and a dict from each
    measure with a moved variable to (c, h), float arrays over its
    variables that hold 0 and 1 for the variables that stay.
    """
    lower, upper = {}, {}
    for con in problem.support_constraints:
        g = con.gform()
        if g.degree != 1 or len(g.variables()) != 1:
            continue
        (var,) = g.variables()
        a = g.coefficient(Monomial(((var, 1),)))
        bound = -g.constant_term / a
        if con.rel == "==" or a > 0:
            lower[var] = max(lower.get(var, -math.inf), bound)
        if con.rel == "==" or a < 0:
            upper[var] = min(upper.get(var, math.inf), bound)
    subs, boxes = {}, {}
    for measure in problem.measures:
        center, half = np.zeros(measure.nvars), np.ones(measure.nvars)
        for k, var in enumerate(measure.vars):
            l, u = lower.get(var, -math.inf), upper.get(var, math.inf)
            if -math.inf < l < u < math.inf and (l, u) != (-1.0, 1.0):
                center[k], half[k] = (l + u) / 2, (u - l) / 2
                subs[var] = Polynomial({Monomial(): center[k], Monomial(((var, 1),)): half[k]})
        if any(var in subs for var in measure.vars):
            boxes[measure] = center, half
    if not subs:
        return problem, boxes

    def moved(poly):
        if not any(var in subs for var in poly.variables()):
            return poly
        out = Polynomial()
        for mono, coeff in poly.terms.items():
            term = Polynomial.constant(coeff)
            for var, power in mono.exps:
                term = term * subs.get(var, Polynomial.variable(var)) ** power
            out = out + term
        return out

    def moved_expr(expr):
        return MomentExpression(expr.constant, {m: moved(p) for m, p in expr.terms.items()})

    objective = problem.objective
    return GPMProblem(
        Objective(objective.direction, moved_expr(objective.expr)),
        [SupportConstraint(moved(c.lhs), c.rel, moved(c.rhs)) for c in problem.support_constraints]
        + [
            MomentConstraint(moved_expr(c.lhs), c.rel, moved_expr(c.rhs), c.is_default_mass)
            for c in problem.moment_constraints
        ],
    ), boxes


def _moment_map(exps, center, half):
    """The matrix T with T y_u = y_x, x = center + half * u.

    ``exps`` are the exponent rows of both moment vectors, a set closed
    under lowering any exponent, like ``MomentIndex.raw_exponents``.
    Row a of T expands x^a = prod_i (c_i + h_i u_i)^a_i: the entry of
    each exponent row b <= a is prod_i C(a_i, b_i) c_i^(a_i - b_i)
    h_i^b_i.  T is sparse and triangular in grlex order, and it holds no
    zero entry, so an undetermined (NaN) u-moment makes undetermined
    exactly the x-moments whose expansion reads it.  It is the identity
    where no variable moves.
    """
    n, top = len(exps), int(exps.max(initial=0))
    binom = np.array([[math.comb(p, q) for q in range(top + 1)] for p in range(top + 1)], dtype=float)
    rows, beta, coeff = np.arange(n), exps.copy(), np.ones(n)
    for i in np.flatnonzero((center != 0.0) | (half != 1.0)).tolist():
        # each pair (a, b) expands into b_i = a_i, a_i - 1, ..., 0; with
        # c_i = 0 only b_i = a_i has a nonzero entry
        count = beta[:, i] + 1 if center[i] != 0.0 else np.ones(len(rows), dtype=np.int64)
        rows, beta, coeff = (np.repeat(v, count, axis=0) for v in (rows, beta, coeff))
        a = beta[:, i].copy()
        b = a - (np.arange(len(rows)) - np.repeat(np.cumsum(count) - count, count))
        beta[:, i] = b
        coeff = coeff * binom[a, b] * center[i] ** (a - b) * half[i] ** b
    position = {t: k for k, t in enumerate(map(tuple, exps.tolist()))}
    cols = [position[t] for t in map(tuple, beta.tolist())]
    return scipy.sparse.csr_matrix((coeff, (rows, cols)), shape=(n, n))


def _symmetry_reduction(msdp, conic):
    """The orbit reduction of ``conic`` and its report per measure.

    The generators are the sign flips, one per class bit of
    ``sign_classes``, then each variable permutation's moment and block
    maps as a row and a column permutation of ``conic``, signs +1.
    Returns the Reduction (None when nothing was found or every
    generator was refused) and the ``symmetry`` and ``permutations``
    dicts of ``GPMSolution``.
    """
    classes, perms = sign_classes(msdp), variable_permutations(msdp)
    generators, owners = [], []
    if classes is not None:
        generators = sign_flips(conic, classes.moments, classes.blocks)
        owners = [("flip", t) for t in range(len(generators))]
    if perms is not None:
        labels = [label for label, gens in perms.generators.items() for _ in gens]
        for label, pi, blocks in zip(labels, perms.moments, perms.blocks):
            sigma = permuted_columns(conic, pi, blocks)
            if sigma is not None:
                generators.append((pi, sigma, np.ones(conic.m), np.ones(conic.n)))
                owners.append(("perm", label))
    red = reduce_by_orbits(conic, generators)
    kept = set() if red is None else {owners[k] for k in red.kept}
    # a moment is held (not pinned) where its row of N is not empty
    held, orbit = np.ones(msdp.n_vars, dtype=bool), np.arange(msdp.n_vars)
    if red is not None:
        held = np.diff(red.N.indptr) > 0
        orbit[held] = red.N.indices
    symmetry, permutations, bit = {}, {}, 0
    for measure in msdp.problem.measures:
        numbers = msdp.index._numbers[measure]
        numbers = numbers[numbers >= 0]
        flips = [] if classes is None else classes.generators[measure.label]
        mask = sum(1 << t for t in range(bit, bit + len(flips)) if ("flip", t) in kept)
        bit += len(flips)
        symmetry[measure.label] = {
            "generators": [list(g) for g in flips],
            "pinned": int(np.count_nonzero(~held[numbers])) if mask else 0,
            "blocks": [
                size for block, rc in zip(msdp.blocks, classes.blocks) if block.measure is measure
                for size in _class_sizes(rc & mask)
            ] if mask else None,
        } if flips else None
        gens = [] if perms is None else perms.generators[measure.label]
        numbers = numbers[held[numbers]]
        permutations[measure.label] = {
            "generators": gens,
            "moments": int(numbers.size),
            "orbits": int(np.unique(orbit[numbers]).size) if ("perm", measure.label) in kept else None,
        } if gens else None
    return red, symmetry, permutations


def _class_sizes(rc):
    """Orders of the classes of a block's rows, by their smallest row."""
    _, first, sizes = np.unique(rc, return_index=True, return_counts=True)
    return sizes[np.argsort(first)].tolist()


def _recenter(msdp, conic, sol, y, objective, cert, params, seed):
    """Re-center a solved point on the optimal face to expose flatness.

    Top-degree moments only appear on the moment matrix diagonal, so on
    a degenerate face the solver can inflate them without cost.  One
    solve recomputes them as a minimal flat extension of the converged
    lower moments, each pinned within relative _RECENTER_REL.

    The face problem is solved in the coordinates t = y' - y, centered
    at the point y it refines: its c becomes c - A'y, and the solution
    lifts back as y + t.  At t = 0 its slacks are those of y: each pin's
    tau, the bound's slack and the diagonals of y's moment and
    localizing matrices, all strictly positive at an interior point.  So
    the row c' of [A; c'] has one strict sign on every column the
    zero-diagonal facial reduction could use, and its exact sign screen
    rules a certificate out with no LP: by Gordan's alternative a dual
    point with all those slacks > 0 and a certificate exclude each
    other.  Where a slack of y is 0, candidates survive and the LP runs.

    Only the determined moments are pinned.  Where y holds undetermined
    (NaN) moments, the center is not y but ``_recession_center``: y with
    those moments moved along the recession direction that the
    forced-entry reduction proved, far enough that every orthant entry
    and PSD diagonal of the dual slack is positive there too.  The face
    solve fills them with a minimal flat extension.

    The centered point replaces (y, cert) only if it is finite, keeps the
    objective within drift_tol and is certified itself.  solve_gpm calls
    it last, after certify found neither a flat M_r nor a flat
    truncation M_t with 2t >= d whose atoms pass the checks, and only
    when cert shows a flat truncation on every measure, since the
    pinned lower truncations keep their ranks.  That leaves a flat
    truncation below half the data degree (camel-3: t = 2, d = 6) or
    atoms from M_t that fail the feasibility or objective check.
    """
    low = 2 * msdp.order - 2
    degrees = np.empty(msdp.n_vars, dtype=np.int64)
    for (_, t), k in msdp.index.var_of.items():
        degrees[k] = sum(t)
    determined = ~np.isnan(y)
    lower = [(k, float(y[k])) for k in np.flatnonzero((degrees <= low) & determined).tolist()]
    top = _top_diagonal_positions(msdp, conic.cone)
    if not (lower and top):
        return y, cert
    center = y if determined.all() else _recession_center(conic, y, sol.recession)
    bound = float(conic.b @ center)
    floor = 10.0 * abs(sol.gap)
    pins = [(k, v, max(floor, _RECENTER_REL * (1.0 + abs(v)))) for k, v in lower]
    slack = max(floor, _RECENTER_REL * (1.0 + abs(bound)))
    face = _face_problem(conic, top, pins, bound, slack)
    # in t = y' - center: c - A'y' = (c - A'center) - A't
    face = replace(face, c=face.c - face.A.T @ center)
    t = solve_conic(face, SolverParams(eps=max(params.eps, 1e-7))).y
    if not np.all(np.isfinite(t)):
        return y, cert
    centered = center + t
    drift_tol = max(1e-5 * (1.0 + abs(objective)), 1e3 * abs(sol.gap))
    if abs(conic.objective_value(centered) - objective) > drift_tol:
        return y, cert
    # solver status on the sliver-thin face does not matter:
    # certification itself validates the centered point
    recert = certify(msdp, centered, seed=seed)
    return (centered, recert) if recert.certified else (y, cert)


def _recession_center(conic, y, d):
    """y with its undetermined (NaN) moments moved along the recession
    direction d of ``ConicSolution.recession``: from 0 by the smallest
    multiple of d that lifts every orthant entry and PSD diagonal of the
    dual slack that d raises to at least 1."""
    cone = conic.cone
    base = np.where(np.isnan(y), 0.0, y)
    cols = np.concatenate(
        [np.arange(cone.f, cone.f + cone.l)] + [cone.diagonal(j) for j in range(len(cone.s))]
    )
    z = (conic.c - conic.A.T @ base)[cols]
    rise = -(conic.A.T @ d)[cols]
    up = rise > 0
    return base + max(0.0, float(np.max((1.0 - z[up]) / rise[up], initial=0.0))) * d


def _top_diagonal_positions(msdp, cone):
    """x positions of top-degree moment-block diagonal entries."""
    out = []
    for j, block in enumerate(msdp.blocks):
        if block.kind == "moment":
            top = block.basis.sum(axis=1) == msdp.order
            out.extend(cone.diagonal(j)[top].tolist())
    return out


def _face_problem(conic, columns, pins, bound, slack):
    """Minimize the x entries at ``columns`` near the optimal face.

    The objective is the sum of those entries.  New orthant columns,
    placed after the existing ones, impose b'y >= bound - slack and hold
    y_k within value +- tau for every pin (k, value, tau).
    """
    m = conic.m
    b2 = np.asarray(conic.A[:, columns].sum(axis=1)).ravel()
    rows = list(np.nonzero(conic.b)[0])
    cols = [0] * len(rows)
    vals = [-conic.b[k] for k in rows]
    cvals = [slack - bound]
    for col, (k, value, tau) in enumerate(pins, start=1):
        rows.extend((k, k))
        cols.extend((2 * col - 1, 2 * col))
        vals.extend((1.0, -1.0))
        cvals.extend((value + tau, tau - value))
    extra = scipy.sparse.csc_matrix(
        (vals, (rows, cols)), shape=(m, len(cvals)), dtype=float
    )
    split = conic.cone.f + conic.cone.l
    A = scipy.sparse.hstack(
        [conic.A[:, :split], extra, conic.A[:, split:]], format="csc"
    )
    c = np.concatenate([conic.c[:split], cvals, conic.c[split:]])
    cone = ConeSpec(f=conic.cone.f, l=conic.cone.l + len(cvals), s=conic.cone.s)
    return ConicProblem(A=A, b=b2, c=c, cone=cone, sense="min", offset=0.0)
