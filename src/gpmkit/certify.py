"""Optimality certificates and support extraction.

A relaxation is exact when the moment matrix satisfies the flat
extension condition rank M_r = rank M_{r-v}, with v the half-degree of
the deepest inequality on the measure (v = 1 when unconstrained).  The
moment vector is then the moment vector of a discrete measure, whose
atoms are recovered from a column echelon factorization of the moment
matrix: the pivot monomials index a basis on which multiplication by
each variable acts as a matrix, and the atoms are read off the shared
Schur vectors of a random combination of those operators.  Weights are
recovered by nonnegative least squares against the moment vector.

An interior-point solver returns a point in the relative interior of
the optimal face, where the top-degree moments of M_r are inflated and
the rank test can fail although a lower truncation is already flat
(rank M_t = rank M_{t-v} for some t <= r; Nie, Math. Program. 142,
2013).  solve_gpm then
re-centers once: a face solve that pins the moments of degree <= 2r-2
and minimizes the top-degree diagonal.  It leaves every truncation of
degree < r as it was, so it only pays when one of them already shows
flatness.  It is skipped when some measure has no flat truncation; on
the paper models it never certified such a point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
import scipy.optimize
import scipy.sparse

from .conic import (
    ConeSpec,
    ConicProblem,
    SolverParams,
    lift_sign_split,
    solve_conic,
    split_by_sign,
    to_conic,
)
from .model import ModelError
from .polynomials import Monomial
from .relaxation import assemble, mmat_values, moment_block, sign_classes

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

    truncation is the smallest t in [v, r] with rank M_t = rank M_{t-v}
    (a flat truncation), or None when the ranks rise at every such t.
    """

    flat: bool
    rank: int
    rank_shifted: int
    v: int
    ranks_by_degree: dict
    truncation: int | None = None


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
    """Rank pattern of the moment matrix M of a measure's moment block."""
    v = _inequality_halfdegree(msdp, block.measure)
    degrees = [mono.degree for mono in block.basis]
    ranks = {}
    for d in range(msdp.order + 1):
        keep = [i for i, deg in enumerate(degrees) if deg <= d]
        ranks[d] = numeric_rank(M[np.ix_(keep, keep)])
    rank = ranks[msdp.order]
    rank_shifted = ranks[max(msdp.order - v, 0)]
    truncation = next(
        (t for t in range(v, msdp.order + 1) if ranks[t] == ranks[t - v]), None
    )
    return FlatnessResult(
        flat=rank == rank_shifted,
        rank=rank,
        rank_shifted=rank_shifted,
        v=v,
        ranks_by_degree=ranks,
        truncation=truncation,
    )


@dataclass
class ExtractionResult:
    """Atoms of one measure recovered from its moment matrix."""

    success: bool
    points: np.ndarray = None
    weights: np.ndarray = None
    rank: int = 0
    residual: float = 0.0
    message: str = ""


def _column_echelon(V):
    """Column echelon form of V preferring low-degree pivot rows.

    Rows are ordered by graded lexicographic degree already; for each
    column the pivot is the first remaining row whose entry is within
    a relative tolerance of the column maximum.  Returns the reduced
    matrix R (with R[pivots] = I) and the pivot row indices.
    """
    U = np.array(V, dtype=float)
    q, rho = U.shape
    pivots = []
    for c in range(rho):
        col = np.abs(U[:, c])
        col[pivots] = 0.0
        if col.max() == 0.0:
            return None, None
        threshold = 1e-4 * col.max()
        candidates = np.nonzero(col > threshold)[0]
        r = int(candidates[0])
        pivots.append(r)
        U[:, c] /= U[r, c]
        for c2 in range(rho):
            if c2 != c:
                U[:, c2] -= U[r, c2] * U[:, c]
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
    return _extract(msdp, block, M, _flatness(msdp, block, M).rank_shifted, seed)


def _extract(msdp, block, M, rho, seed):
    """Atoms of a measure from its moment matrix M, factored at rank rho."""
    measure = block.measure
    if rho == 0:
        return ExtractionResult(success=False, message="moment matrix is zero")

    evals, evecs = scipy.linalg.eigh(M)
    idx = np.argsort(evals)[::-1][:rho]
    lead = np.clip(evals[idx], 0.0, None)
    V = evecs[:, idx] * np.sqrt(lead)

    R, pivots = _column_echelon(V)
    if R is None:
        return ExtractionResult(success=False, message="rank-deficient factorization")
    basis_pos = {mono: i for i, mono in enumerate(block.basis)}
    pivot_monos = [block.basis[i] for i in pivots]

    def coords_of(poly):
        """Coordinates of a reduced polynomial in the pivot basis."""
        row = np.zeros(rho)
        for mono, coeff in poly.terms.items():
            pos = basis_pos.get(mono)
            if pos is None:
                return None
            row += coeff * R[pos]
        return row

    operators = []
    for var in measure.vars:
        N = np.zeros((rho, rho))
        for j, w in enumerate(pivot_monos):
            shifted = w.mul(Monomial(((var, 1),)))
            reduced = msdp.index.reduce(measure, shifted)
            row = coords_of(reduced)
            if row is None:
                return ExtractionResult(
                    success=False,
                    message=f"monomial {shifted!r} leaves the truncated basis",
                )
            N[j] = row
        operators.append(N)

    rng = np.random.default_rng(seed)
    for _ in range(3):
        lam = rng.standard_normal(len(operators))
        lam /= np.linalg.norm(lam)
        combined = sum(l * N for l, N in zip(lam, operators))
        T, Q = scipy.linalg.schur(np.asarray(combined), output="real")
        sub = np.abs(np.diag(T, -1)).max() if rho > 1 else 0.0
        if sub > _RANK_TOL * max(1.0, np.abs(T).max()):
            continue  # complex eigenvalues: try another combination
        points = np.zeros((rho, len(operators)))
        for k, N in enumerate(operators):
            points[:, k] = np.einsum("ij,jk,ki->i", Q.T, N, Q)
        # weights by nonnegative least squares on the basis moments
        Phi = np.zeros((len(block.basis), rho))
        for i, mono in enumerate(block.basis):
            for j in range(rho):
                Phi[i, j] = mono.eval(dict(zip(measure.vars, points[j])))
        target = M[:, 0]
        weights, residual = scipy.optimize.nnls(Phi, target)
        scale = 1.0 + float(np.linalg.norm(target))
        if residual <= math.sqrt(_RANK_TOL) * scale:
            return ExtractionResult(
                success=True,
                points=points,
                weights=weights,
                rank=rho,
                residual=residual,
            )
    return ExtractionResult(
        success=False,
        rank=rho,
        message="no consistent atomic measure found",
    )


@dataclass
class Certificate:
    """Flatness and extraction outcome for every measure of a problem."""

    certified: bool
    flatness: dict
    extractions: dict
    objective_mismatch: float = 0.0
    infeasibility: float = 0.0


def certify(msdp, y, seed=0):
    """Check flatness, extract atoms and verify them on all measures.

    Certification requires every measure flat, extraction successful,
    all extracted points feasible for their support constraints and the
    objective recomputed from the atoms to match the SDP objective.
    Each moment matrix is built, and its ranks found, once.
    """
    flatness = {}
    extractions = {}
    certified = True
    for measure in msdp.problem.measures:
        block = moment_block(msdp, measure)
        M = mmat_values(msdp, y, block.measure)
        flat = _flatness(msdp, block, M)
        flatness[measure.label] = flat
        if not flat.flat:
            certified = False
            continue
        ext = _extract(msdp, block, M, flat.rank_shifted, seed)
        extractions[measure.label] = ext
        if not ext.success:
            certified = False
    if not certified:
        return Certificate(False, flatness, extractions)

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
    sdp_objective = msdp.objective.value(y)
    mismatch = abs(recomputed - sdp_objective) / (1.0 + abs(sdp_objective))
    certified = bool(infeas <= _FEAS_TOL and mismatch <= _FEAS_TOL)
    return Certificate(certified, flatness, extractions, mismatch, infeas)


@dataclass
class GPMSolution:
    """Outcome of solving a problem through its moment relaxation.

    status 1: the relaxation is exact, optimal measures were extracted
    and stored on the measures themselves.  status 0: the SDP was
    solved but exactness was not certified, so objective is only a
    bound.  status -1: the SDP could not be solved (infeasible,
    unbounded or numerical failure) and objective is None.

    ``symmetry`` maps each measure label to None when no sign flip
    leaves its data unchanged, and otherwise to its flips (lists of
    variable names), the number of moments pinned to 0 and the orders
    of the blocks handed to the solver for it (None when not split).
    """

    status: int
    objective: object
    order: int
    msdp: object
    conic: object
    certificate: object = None
    moments: dict = field(default_factory=dict)
    symmetry: dict = field(default_factory=dict)

    def support(self, label):
        for measure in self.msdp.problem.measures:
            if measure.label == label:
                if measure.support_points is None:
                    raise ModelError("measure has no discrete support")
                return measure.support_points, measure.weights
        raise ModelError(f"no measure with label {label}")


def solve_gpm(problem, order=None, params=None, seed=0):
    """Assemble, solve and certify the moment relaxation of a problem.

    The conic problem goes through the reductions in order: the sign
    split (``sign_classes`` finds the flips, ``split_by_sign`` checks
    and applies them, ``lift_sign_split`` maps the solution back), then,
    inside ``solve_conic``, zero-diagonal facial reduction and presolve.
    ``symmetry`` reports the split per measure.

    Returns a GPMSolution; on certification the extracted supports are
    stored into the measures, so eval_on_support reads the minimizers
    directly.  Moment vectors are stored on the measures whenever the
    SDP was solved.  An uncertified point is re-centered (_recenter)
    only when every measure has a flat truncation: the face solve moves
    only the top-degree part of each M_r, so a point whose ranks rise
    at every degree is reported as it is.  The face solve is not split.
    """
    params = params or SolverParams()
    msdp = assemble(problem, order)
    conic = to_conic(msdp)
    classes = sign_classes(msdp)
    split = None if classes is None else split_by_sign(conic, classes.moments, classes.blocks)
    if split is None:
        sol = solve_conic(conic, params)
    else:
        sol = lift_sign_split(conic, split, solve_conic(split.problem, params))
    symmetry = _symmetry_report(msdp, classes, split)
    if sol.status in ("infeasible", "unbounded", "failed"):
        return GPMSolution(
            status=-1, objective=None, order=msdp.order, msdp=msdp, conic=sol,
            symmetry=symmetry,
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
        rows = msdp.index.rows(measure, msdp.index.raw_exponents[measure])
        values = dict(zip(msdp.index.raw[measure], (rows.coeffs @ y + rows.const).tolist()))
        measure.moments = values
        moments[measure.label] = values
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
    )


def _symmetry_report(msdp, classes, split):
    """Per measure label: its sign flips, pinned moments and split blocks.

    None for a measure whose flip group is trivial; otherwise a dict of
    the generators (flipped variable names), the number of moments
    pinned to 0 and the orders of the blocks its blocks split into, the
    last None (and no moment pinned) when the split was not applied.
    """
    report = {}
    for measure in msdp.problem.measures:
        gens = [] if classes is None else classes.generators[measure.label]
        if not gens:
            report[measure.label] = None
            continue
        pinned, blocks = 0, None
        if split is not None:
            pinned = sum(
                1 for (meas, _), k in msdp.index.var_of.items()
                if meas is measure and classes.moments[k]
            )
            blocks = [
                size for block, sizes in zip(msdp.blocks, split.sizes)
                if block.measure is measure for size in sizes
            ]
        report[measure.label] = {
            "generators": [list(g) for g in gens],
            "pinned": pinned,
            "blocks": blocks,
        }
    return report


def _recenter(msdp, conic, sol, y, objective, cert, params, seed):
    """Re-center a solved point on the optimal face to expose flatness.

    Top-degree moments only appear on the moment matrix diagonal, so on
    a degenerate face the solver can inflate them without cost.  One
    solve recomputes them as a minimal flat extension of the converged
    lower moments, each pinned within relative _RECENTER_REL.  The
    centered point replaces (y, cert) only if it is finite, keeps the
    objective within drift_tol and is certified itself.  solve_gpm calls
    it only when cert shows a flat truncation on every measure, since
    the pinned lower truncations keep their ranks.
    """
    low = 2 * msdp.order - 2
    lower = [
        (k, float(y[k]))
        for k, (_, mono) in enumerate(msdp.index.var_meaning)
        if mono.degree <= low
    ]
    top = _top_diagonal_positions(msdp, conic.cone)
    if not (lower and top):
        return y, cert
    bound = float(conic.b @ y)
    floor = 10.0 * abs(sol.gap)
    pins = [(k, v, max(floor, _RECENTER_REL * (1.0 + abs(v)))) for k, v in lower]
    slack = max(floor, _RECENTER_REL * (1.0 + abs(bound)))
    face = _face_problem(conic, top, pins, bound, slack)
    centered = solve_conic(face, SolverParams(eps=max(params.eps, 1e-7)))
    if not np.all(np.isfinite(centered.y)):
        return y, cert
    drift_tol = max(1e-5 * (1.0 + abs(objective)), 1e3 * abs(sol.gap))
    if abs(conic.objective_value(centered.y) - objective) > drift_tol:
        return y, cert
    # solver status on the sliver-thin face does not matter:
    # certification itself validates the centered point
    recert = certify(msdp, centered.y, seed=seed)
    return (centered.y, recert) if recert.certified else (y, cert)


def _top_diagonal_positions(msdp, cone):
    """x positions of top-degree moment-block diagonal entries."""
    out = []
    for j, block in enumerate(msdp.blocks):
        if block.kind == "moment":
            diagonal = cone.diagonal(j)
            out.extend(
                int(diagonal[i])
                for i, mono in enumerate(block.basis)
                if mono.degree == msdp.order
            )
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
    extra = scipy.sparse.csr_matrix(
        (vals, (rows, cols)), shape=(m, len(cvals)), dtype=float
    )
    split = conic.cone.f + conic.cone.l
    A = scipy.sparse.hstack(
        [conic.A[:, :split], extra, conic.A[:, split:]], format="csr"
    )
    c = np.concatenate([conic.c[:split], cvals, conic.c[split:]])
    cone = ConeSpec(f=conic.cone.f, l=conic.cone.l + len(cvals), s=conic.cone.s)
    return ConicProblem(A=A, b=b2, c=c, cone=cone, sense="min", offset=0.0)
