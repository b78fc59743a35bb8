"""Conic form and a primal-dual interior-point solver.

Problems are stored in the standard primal form

    min c'x   s.t.  A x = b,  x in K,

with K a product of a free cone (dimension f), a nonnegative orthant
(dimension l) and symmetric PSD blocks (orders s), each stored as its
s*s entries in row-major order.  The moments of a relaxation are the
dual variables y, and the dual slacks z = c - A'y carry the moment and
localizing matrices, so a moment SDP converts with one column per
scalar or matrix entry constraint.

Equality rows on the moments enter as free-cone columns and must be
eliminated by presolve before solving: the solver handles l and s cones
only.  Presolve parameterizes the affine solution set as y = y0 + N t
and rewrites the problem over t.

A moment SDP reaches the solver through three reductions, in this
order, each lifted back to the coordinates it started from:

1. the sign split (``split_by_sign``, applied by ``solve_gpm``): moments
   that a sign flip of the data negates are pinned to 0 and every PSD
   block splits into one block per parity class of its rows;
2. zero-diagonal facial reduction (``_reduce_zero_diagonals``): slacks
   certified zero on the whole dual set leave the cones;
3. presolve (``presolve_eliminate_equalities``): free columns go.

The solver keeps each PSD block of A, symmetrized, either as CSR rows
over its s*s entries or as a dense (m, s, s) tensor.  It picks one per
block from an nnz-based estimate of what forming that block's share of
the Schur complement costs each way: moment matrices whose rows touch
few entries go sparse, small or dense blocks stay dense.
"""

from __future__ import annotations

import functools
import logging
import math
from dataclasses import dataclass, field, replace
from itertools import accumulate

import numpy as np
import scipy.linalg
import scipy.optimize
import scipy.sparse
import scipy.sparse.csgraph
import scipy.sparse.linalg
from scipy.linalg.lapack import dpotrf, dsyevr, dsyevr_lwork, dtrtrs


_log = logging.getLogger(__name__)


class ConicError(ValueError):
    """Invalid conic problem or conversion."""


@dataclass(frozen=True)
class ConeSpec:
    """Dimensions of the cone product: free, orthant, PSD block orders.

    Columns run free, then orthant, then each PSD block of order s as
    its s*s entries, entry (i, j) at the block's start + i*s + j.
    """

    f: int = 0
    l: int = 0
    s: tuple = ()

    @property
    def total_length(self):
        return self.f + self.l + sum(k * k for k in self.s)

    @property
    def psd_starts(self):
        """Start column of each PSD block."""
        return tuple(accumulate((k * k for k in self.s), initial=self.f + self.l))[:-1]

    def diagonal(self, j):
        """Columns of the diagonal entries of PSD block j."""
        return self.psd_starts[j] + (self.s[j] + 1) * np.arange(self.s[j])

    @property
    def barrier_degree(self):
        return self.l + sum(self.s)


@dataclass
class ConicProblem:
    """min c'x s.t. Ax = b, x in K; moments are the dual variables y.

    ``sense`` and ``offset`` recover the original objective: the source
    problem's optimum is offset - b'y for a minimization and
    offset + b'y for a maximization.
    """

    A: object
    b: np.ndarray
    c: np.ndarray
    cone: ConeSpec
    sense: str = "min"
    offset: float = 0.0

    @property
    def m(self):
        return self.b.shape[0]

    @property
    def n(self):
        return self.c.shape[0]

    def objective_value(self, y):
        by = float(self.b @ y)
        return self.offset + (by if self.sense == "max" else -by)


@dataclass
class SolverParams:
    """Interior-point settings: eps, the termination tolerance (> 0)."""

    eps: float = 1e-9

    def __post_init__(self):
        if not (math.isfinite(self.eps) and self.eps > 0):
            raise ConicError(f"eps must be finite and positive, got {self.eps!r}")


@dataclass
class ConicSolution:
    """Solver outcome: iterates, residuals and a status string.

    status is one of 'solved', 'inaccurate', 'infeasible', 'unbounded',
    'failed'.  'solved' means max(pinf, dinf, gap) <= eps at the returned
    point.  'inaccurate' means the solve stopped short of eps and returns
    its best iterate, whose max(pinf, dinf, gap) is within 1e3 * eps;
    'failed' means not even that was reached.  'infeasible' means no x
    satisfies the constraints (the dual objective diverges); 'unbounded'
    means c'x is unbounded below.  message is empty on 'solved' and
    otherwise says why the solve stopped: the iteration limit, vanishing
    step lengths, lost progress, a failed factorization or a rejected
    step, or the ray found.  history rows are (pobj, dobj, pinf, dinf,
    gap) per iteration, the last one for the point the solve stopped at.
    """

    status: str
    x: np.ndarray
    y: np.ndarray
    z: np.ndarray
    pobj: float
    dobj: float
    pinf: float
    dinf: float
    gap: float
    iterations: int
    history: list = field(default_factory=list)
    message: str = ""


def to_conic(msdp):
    """Convert an assembled moment SDP to primal conic form.

    Equality rows become free columns with z = -(row value), inequality
    rows orthant columns with z = row value, and each symmetric block
    B(y) a PSD slack Z = C - sum_k y_k A_k with C the constant part of
    B and A_k minus its coefficient matrices.

    A is built transposed, one row per column of x: the equality rows,
    the negated inequality rows, then for each block the negated rows of
    its distinct forms, each entry (i, j) taking the row of its slot.
    """
    m = msdp.n_vars
    eq, ineq = msdp.lin_eq, msdp.lin_ineq
    cone = ConeSpec(
        f=len(eq),
        l=len(ineq),
        s=tuple(block.size for block in msdp.blocks),
    )
    columns = [eq.coeffs, -ineq.coeffs]
    cvals = [-eq.const, ineq.const]
    for block in msdp.blocks:
        slots = block.slot_matrix().reshape(-1)
        columns.append(-block.forms.coeffs[slots])
        cvals.append(block.forms.const[slots])
    A = scipy.sparse.vstack(columns, format="csr").T.tocsr()

    obj = np.zeros(m)
    for idx, coef in msdp.objective.coeffs.items():
        obj[idx] = coef
    sense = msdp.sense
    b = obj if sense == "max" else -obj
    return ConicProblem(
        A=A, b=b, c=np.concatenate(cvals), cone=cone, sense=sense,
        offset=msdp.objective.const,
    )


@dataclass
class PresolveResult:
    """Outcome of equality elimination.

    When status is 'ok', ``problem`` has no free cone and original
    moments are recovered as y = y0 + N t from the reduced dual t.
    When status is 'infeasible' the equality rows are contradictory and
    ``residual`` reports the violation.
    """

    problem: object
    y0: np.ndarray
    N: object
    status: str
    residual: float = 0.0
    n_eliminated: int = 0


# equality rows that y = y0 + N t misses by more than this are inconsistent
_PRESOLVE_TOL = 1e-9


def presolve_eliminate_equalities(problem):
    """Eliminate free-cone columns (equality rows on the moments).

    Stage 1 resolves singleton rows (pins) and homogeneous-or-not
    doubleton rows (affine aliases) by substitution, which covers the
    bulk of substitution-style equalities cheaply.  It works in rounds
    over the sparse rows: each round resolves every pending row through
    the current map y = shift + diag(scale) y_root at once, pins every
    singleton row and merges every doubleton row by connected
    components, each rooted at its smallest moment index.  Rows that
    close a cycle return to the next round, where they vanish, are
    checked for consistency or become pins.  Stage 2 applies a
    rank-revealing SVD to whatever dense coupling remains.

    Substitution chains can lose precision through cancellation, so the
    result is verified against every equality row; on failure the rows
    are resolved in one SVD pass instead.
    """
    problem = replace(problem, A=scipy.sparse.csc_matrix(problem.A))
    res = _presolve_pass(problem, substitute=True)
    if res.status != "ok" or problem.cone.f == 0:
        return res
    scale = 1.0 + float(np.abs(problem.c[: problem.cone.f]).max(initial=0.0))
    if _presolve_residual(problem, res) <= 1e-12 * scale:
        return res
    res2 = _presolve_pass(problem, substitute=False)
    if res2.status == "ok" and _presolve_residual(problem, res2) < _presolve_residual(problem, res):
        return res2
    return res


def _presolve_residual(problem, res):
    """Worst violation of the equality rows by the y = y0 + N t set."""
    nf = problem.cone.f
    Af = scipy.sparse.csc_matrix(problem.A)[:, :nf]
    r0 = float(np.abs(Af.T @ res.y0 - problem.c[:nf]).max(initial=0.0))
    r1 = float(np.abs((Af.T @ res.N).data).max(initial=0.0))
    return max(r0, r1)


def _infeasible(residual, nf):
    return PresolveResult(
        problem=None, y0=None, N=None, status="infeasible",
        residual=residual, n_eliminated=nf,
    )


def _substitute(rows, rhs, substitute):
    """Stage 1 of presolve: resolve pins and aliases in rounds.

    ``rows`` holds one equality row rows[k] . y = rhs[k] per CSR row.
    Returns the map y_i = shift_i + scale_i * y_root_of[i], the pinned
    roots and their values, the worst violation among rows that resolve
    to constants, and the rows left over, resolved onto the unpinned
    roots as a CSR matrix R and constants: R y_roots + const = 0.  With
    ``substitute`` false the rows are resolved once, all left over.
    """
    m = rows.shape[1]
    root_of = np.arange(m)
    scale = np.ones(m)
    shift = np.zeros(m)
    pinned = np.zeros(m, dtype=bool)
    pin = np.zeros(m)
    pending = np.arange(rows.shape[0])
    worst = 0.0
    while True:
        held = pinned[root_of]
        free = np.flatnonzero(~held)
        sub = rows[pending]
        R = sub @ scipy.sparse.csr_matrix(
            (scale[free], (free, root_of[free])), shape=(m, m)
        )
        R.eliminate_zeros()
        R.sort_indices()
        const = sub @ (shift + scale * np.where(held, pin[root_of], 0.0)) - rhs[pending]
        count = np.diff(R.indptr)
        gone = np.abs(const[count == 0])
        worst = max(worst, float(gone[gone > _PRESOLVE_TOL].max(initial=0.0)))
        if not substitute:
            break
        done = count == 0

        # singleton rows c y_r + const = 0 pin y_r; the first row per
        # root wins and the others come back as constants
        single = np.flatnonzero(count == 1)
        at = R.indptr[single]
        new_pins, first = np.unique(R.indices[at], return_index=True)
        single, at = single[first], at[first]
        pinned[new_pins] = True
        pin[new_pins] = -const[single] / R.data[at]
        done[single] = True

        # doubleton rows on roots i < j not pinned this round are edges
        pair = np.flatnonzero(count == 2)
        at = R.indptr[pair]
        i, j = R.indices[at].astype(np.int64), R.indices[at + 1].astype(np.int64)
        ok = ~(pinned[i] | pinned[j])
        pair, at, i, j = pair[ok], at[ok], i[ok], j[ok]
        _, first = np.unique(i * m + j, return_index=True)
        pair, at, i, j = pair[first], at[first], i[first], j[first]
        merged = _alias_roots(m, i, j, R.data[at], R.data[at + 1], const[pair])
        if merged is not None:
            tree, top, a, b = merged
            done[pair[tree]] = True
            moved = np.flatnonzero(top[root_of] != root_of)
            r = root_of[moved]
            shift[moved] += scale[moved] * b[r]
            scale[moved] *= a[r]
            root_of[moved] = top[r]

        if not (new_pins.size or merged is not None):
            break
        pending = pending[~done]
    left = count > 0
    return root_of, scale, shift, pinned, pin, worst, R[left], const[left]


def _alias_roots(m, i, j, ci, cj, const):
    """Merge roots along the doubleton rows ci y_i + cj y_j + const = 0.

    The rows, one per pair i < j, are the edges of a graph on the roots.
    Each connected component is rooted at its smallest index and spanned
    by a breadth-first tree.  Returns None without edges, else the mask
    of rows used as tree edges, the component root ``top`` of every node
    (itself outside the graph), and a, b with y_v = b_v + a_v * y_top[v].
    """
    if i.size == 0:
        return None
    _, label = scipy.sparse.csgraph.connected_components(
        scipy.sparse.csr_matrix((np.ones(i.size), (i, j)), shape=(m, m)), directed=False
    )
    _, tops = np.unique(label, return_index=True)
    tops = tops[np.bincount(label)[label[tops]] > 1]
    # a virtual node m links the component roots, so one traversal
    # spans every component
    graph = scipy.sparse.csr_matrix((
        np.ones(i.size + tops.size),
        (np.concatenate([i, np.full(tops.size, m)]), np.concatenate([j, tops])),
    ), shape=(m + 1, m + 1))
    order, pred = scipy.sparse.csgraph.breadth_first_order(graph, m, directed=False)
    nodes = order[1:].astype(np.int64)
    child = nodes[pred[nodes] != m]
    parent = np.arange(m)
    parent[child] = pred[child]
    # the edge row of each tree node: y_v = -const/c_v - (c_p/c_v) y_p
    lo, hi = np.minimum(child, parent[child]), np.maximum(child, parent[child])
    edge = np.searchsorted(i * m + j, lo * m + hi)
    tree = np.zeros(i.size, dtype=bool)
    tree[edge] = True
    is_hi = child == hi
    c_v = np.where(is_hi, cj[edge], ci[edge])
    c_p = np.where(is_hi, ci[edge], cj[edge])
    a = np.ones(m)
    b = np.zeros(m)
    a[child] = -c_p / c_v
    b[child] = -const[edge] / c_v
    # compose the steps up to the component root by pointer jumping
    top = parent.copy()
    while np.any(top[top] != top):
        b = b + a * b[top]
        a = a * a[top]
        top = top[top]
    return tree, top, a, b


def _presolve_pass(problem, substitute):
    m = problem.m
    nf = problem.cone.f
    A = scipy.sparse.csc_matrix(problem.A)
    root_of, a, bshift, is_pinned, pin, worst, R, const = _substitute(
        A[:, :nf].T.tocsr(), np.asarray(problem.c[:nf], dtype=float), substitute
    )
    if worst > _PRESOLVE_TOL:
        return _infeasible(worst, nf)
    roots = np.flatnonzero((root_of == np.arange(m)) & ~is_pinned)

    if R.shape[0]:
        E = R[:, roots].toarray()
        e = -const
        yp, *_ = np.linalg.lstsq(E, e, rcond=None)
        # refine: one lstsq pass on an ill-conditioned consistent system
        # leaves a residual near eps*cond(E), which pollutes recovered moments
        for _ in range(2):
            yp = yp + np.linalg.lstsq(E, e - E @ yp, rcond=None)[0]
        residual = float(np.linalg.norm(E @ yp - e))
        if residual > _PRESOLVE_TOL * (1.0 + np.linalg.norm(e)):
            return _infeasible(residual, nf)
        _, svals, Vt = np.linalg.svd(E)
        rank = int(np.sum(svals > max(E.shape) * np.finfo(float).eps * (svals[0] if svals.size else 0.0)))
        N2 = scipy.sparse.csr_matrix(Vt[rank:].T)
    else:
        yp = np.zeros(len(roots))
        N2 = scipy.sparse.identity(len(roots), format="csr")

    # y_i = bshift_i + a_i * y_root(i), the root pinned or y_root = yp + N2 t:
    # y0 = bshift + a * (pin or yp), N = diag(a) N2[root] on the free rows
    base = np.where(is_pinned, pin, 0.0)
    free = np.flatnonzero(~is_pinned[root_of])
    k = np.searchsorted(roots, root_of[free])
    base[root_of[free]] = yp[k]
    y0 = bshift + a * base[root_of]
    select = scipy.sparse.csr_matrix((a[free], (free, k)), shape=(m, len(roots)))
    N = (select @ N2).tocsr()
    N.eliminate_zeros()
    N.sort_indices()

    A_rest = A[:, nf:].tocsr()
    A_red = (N.T @ A_rest).tocsr()
    c_red = np.asarray(problem.c[nf:] - A_rest.T @ y0)
    b_red = np.asarray(N.T @ problem.b)
    by0 = float(problem.b @ y0)
    offset = problem.offset + (by0 if problem.sense == "max" else -by0)
    reduced = ConicProblem(
        A=A_red,
        b=b_red,
        c=c_red,
        cone=ConeSpec(f=0, l=problem.cone.l, s=problem.cone.s),
        sense=problem.sense,
        offset=offset,
    )
    return PresolveResult(
        problem=reduced, y0=y0, N=N, status="ok", n_eliminated=nf
    )


@dataclass
class SignSplit:
    """A conic problem cut down by a sign symmetry, and the map back.

    Row k of ``problem`` is row ``rows[k]`` of the original and column j
    is column ``cols[j]``; ``sizes`` lists, per original PSD block, the
    orders of the blocks it split into.
    """

    problem: ConicProblem
    rows: np.ndarray
    cols: np.ndarray
    sizes: list


def split_by_sign(problem, moment_class, block_classes):
    """Pin the non-invariant moments to 0 and split PSD blocks by class.

    ``moment_class`` gives a class (a bitmask, 0 for invariant) per row
    of A and ``block_classes`` one per row of each PSD block, as
    ``relaxation.sign_classes`` computes them.  Entry (i, j) of a block
    then has class c_i ^ c_j.  The split applies only when b is 0 on
    every pinned row (class != 0), every nonzero of A has the class of
    its column (a free column taking the one class of the rows it
    touches, an orthant column class 0), and c is 0 on every column of
    class != 0.  The data is then invariant under the flips, so
    averaging a dual point over them keeps it feasible and keeps b'y:
    restricting y to 0 at the pinned rows loses nothing.  The pinned
    rows and all columns of class != 0 go; what is left of each block
    is block-diagonal over its row classes, and each class becomes its
    own block, classes in increasing order.

    Returns None when the gate fails.
    """
    cone = problem.cone
    A = scipy.sparse.coo_matrix(problem.A)
    moment_class = np.asarray(moment_class, dtype=np.int64)
    col_class = np.zeros(problem.n, dtype=np.int64)
    free = A.col < cone.f
    np.maximum.at(col_class, A.col[free], moment_class[A.row[free]])
    for start, rc in zip(cone.psd_starts, block_classes):
        col_class[start:start + rc.size**2] = np.bitwise_xor.outer(rc, rc).reshape(-1)
    pinned = moment_class != 0
    if (
        np.any(problem.b[pinned])
        or np.any(moment_class[A.row] != col_class[A.col])
        or np.any(col_class[problem.c != 0])
    ):
        return None
    nfl = cone.f + cone.l
    cols = [np.flatnonzero(col_class[:nfl] == 0)]
    sizes = []
    for start, s, rc in zip(cone.psd_starts, cone.s, block_classes):
        parts = [np.flatnonzero(rc == v) for v in np.unique(rc)]
        cols.extend((start + np.add.outer(R * s, R)).reshape(-1) for R in parts)
        sizes.append(tuple(R.size for R in parts))
    cols = np.concatenate(cols)
    rows = np.flatnonzero(~pinned)
    nfree = int(np.count_nonzero(cols < cone.f))
    reduced = ConicProblem(
        A=scipy.sparse.csc_matrix(problem.A)[:, cols][rows].tocsr(),
        b=problem.b[rows],
        c=problem.c[cols],
        cone=ConeSpec(f=nfree, l=cone.l, s=tuple(n for p in sizes for n in p)),
        sense=problem.sense,
        offset=problem.offset,
    )
    return SignSplit(problem=reduced, rows=rows, cols=cols, sizes=sizes)


def lift_sign_split(problem, split, inner):
    """A solution of ``split.problem`` in the coordinates of ``problem``.

    y is 0 at the pinned rows, x is 0 at every dropped column (so each
    PSD block of X is block-diagonal over its classes) and z = c - A'y;
    the objectives are unchanged.
    """
    x = np.zeros(problem.n)
    x[split.cols] = inner.x
    y = np.zeros(problem.m)
    y[split.rows] = inner.y
    z = np.asarray(problem.c - problem.A.T @ y).reshape(-1)
    return replace(inner, x=x, y=y, z=z)


@dataclass
class _Reduction:
    """Facial reduction data: which slack positions were certified zero."""

    problem: ConicProblem
    kept_l: list
    kept_s: list
    added: list


def _reduce_zero_diagonals(problem):
    """Shrink cones along slacks that vanish on the whole dual set.

    A measure squeezed to a point mass (support like x'x <= 0) pins
    moment matrix diagonals at zero, so the dual cone has empty interior
    and the interior-point iteration cannot converge.  A nonnegative
    combination of orthant and psd-diagonal slack functionals that is
    identically zero certifies each participating slack as zero; the
    certified psd rows/cols are deleted and every deleted entry of
    c - A'y is pinned by a new equality column.  Returns None when no
    certificate exists.
    """
    cone = problem.cone
    if not cone.s:
        return None
    A = scipy.sparse.csc_matrix(problem.A)
    cols = [cone.f + p for p in range(cone.l)]
    kinds = [("l", p) for p in range(cone.l)]
    for j, size in enumerate(cone.s):
        cols.extend(cone.diagonal(j).tolist())
        kinds.extend(("s", j, d) for d in range(size))
    if not cols:
        return None
    # equality functionals (free columns) hold identically on the dual
    # set, so they may enter the certificate with free sign
    pick = cols + list(range(cone.f))
    A_eq = scipy.sparse.vstack(
        [A[:, pick], scipy.sparse.csr_matrix(problem.c[pick])], format="csc"
    )
    ncand = len(cols)
    res = scipy.optimize.linprog(
        c=np.concatenate([-np.ones(ncand), np.zeros(cone.f)]),
        A_eq=A_eq,
        b_eq=np.zeros(problem.m + 1),
        bounds=[(0.0, 1.0)] * ncand + [(None, None)] * cone.f,
        method="highs",
    )
    if not res.success or res.x is None:
        return None
    lam = np.asarray(res.x).copy()
    lam[:ncand] = np.where(lam[:ncand] > 1e-6, lam[:ncand], 0.0)
    if not lam[:ncand].any():
        return None
    # re-check the truncated certificate before trusting it
    scale_cert = float(lam[:ncand].sum()) + float(np.abs(lam[ncand:]).sum())
    if np.abs(A_eq @ lam).max() > 1e-7 * (1.0 + scale_cert):
        return None
    lam = lam[:ncand]
    forced_l = set()
    forced_s = [set() for _ in cone.s]
    for k in np.nonzero(lam)[0]:
        kind = kinds[k]
        if kind[0] == "l":
            forced_l.add(kind[1])
        else:
            forced_s[kind[1]].add(kind[2])

    added_cols = []
    added_c = []
    added = []
    kept_l = [p for p in range(cone.l) if p not in forced_l]
    for p in sorted(forced_l):
        added_cols.append(A[:, [cone.f + p]])
        added_c.append(float(problem.c[cone.f + p]))
        added.append(("l", p))
    kept_s = []
    keep_cols = [cone.f + p for p in kept_l]
    new_sizes = []
    for j, (off, size) in enumerate(zip(cone.psd_starts, cone.s)):
        D = forced_s[j]
        K = [i for i in range(size) if i not in D]
        kept_s.append(K)
        for d in sorted(D):
            for i in range(size):
                if i in D and i > d:
                    continue
                col = A[:, [off + d * size + i]]
                cval = float(problem.c[off + d * size + i])
                if i != d:
                    col = col + A[:, [off + i * size + d]]
                    cval += float(problem.c[off + i * size + d])
                added_cols.append(col)
                added_c.append(cval)
                added.append(("s", j, d, i))
        if K:
            new_sizes.append(len(K))
            keep_cols.extend(off + a * size + b for a in K for b in K)

    pieces = []
    if cone.f:
        pieces.append(A[:, :cone.f])
    pieces.extend(added_cols)
    if keep_cols:
        pieces.append(A[:, keep_cols])
    if not pieces:
        return None
    A_new = scipy.sparse.hstack(pieces, format="csr")
    c_new = np.concatenate(
        [problem.c[:cone.f], np.asarray(added_c), problem.c[keep_cols]]
    )
    reduced = ConicProblem(
        A=A_new,
        b=problem.b.copy(),
        c=c_new,
        cone=ConeSpec(f=cone.f + len(added), l=len(kept_l), s=tuple(new_sizes)),
        sense=problem.sense,
        offset=problem.offset,
    )
    return _Reduction(problem=reduced, kept_l=kept_l, kept_s=kept_s, added=added)


def _lift_reduction(problem, red, inner):
    """Map a solution of the reduced problem back to original coordinates."""
    cone = problem.cone
    starts = cone.psd_starts
    x = np.zeros(problem.n)
    xr = inner.x
    x[:cone.f] = xr[:cone.f]
    nadd = len(red.added)
    added_vals = xr[cone.f:cone.f + nadd]
    pos = cone.f + nadd
    kept_l = np.asarray(red.kept_l, dtype=np.intp)
    x[cone.f + kept_l] = xr[pos:pos + kept_l.size]
    pos += kept_l.size
    for start, size, K in zip(starts, cone.s, red.kept_s):
        K = np.asarray(K, dtype=np.intp)
        k = K.size
        x[start + np.add.outer(K * size, K)] = xr[pos:pos + k * k].reshape(k, k)
        pos += k * k
    # an added off-diagonal column is A_di + A_id, so both entries get its value
    for val, spec in zip(added_vals, red.added):
        if spec[0] == "l":
            x[cone.f + spec[1]] = val
        else:
            _, j, d, i = spec
            size = cone.s[j]
            x[starts[j] + d * size + i] = val
            x[starts[j] + i * size + d] = val
    z = np.asarray(problem.c - problem.A.T @ inner.y).reshape(-1)
    z[:cone.f] = 0.0
    return replace(inner, x=x, z=z)


# ---------------------------------------------------------------------------
# interior-point solver


# Cost model for choosing a PSD block's storage, in units of one flop of
# a large dense BLAS call.  Each nonempty row of a sparse block pays a
# fixed overhead for its gathers and calls, its two small matmuls, and a
# sparse product with the cache-hot G_k that runs at a far lower flop
# rate.  The constants were fitted to timings of both Schur formations
# on the blocks of the paper's models (m = 27..465, s = 4..130) and on
# random sparse blocks (m = 50..1000, s = 20..100), 1 BLAS thread on a
# 2-core x86-64 VM.  The fit underestimated the sparse/dense time ratio
# by up to 1.5x, so a block goes sparse only where the estimate saves
# more than that; near break-even the dense path is kept.
_SPARSE_ROW_COST = 4.5e5
_SMALL_FLOP_COST = 1.0
_ACCUMULATE_FLOP_COST = 20.0
_SPARSE_MARGIN = 1.5
# refuse problems whose solver data would exceed this many floats
_MAX_ENTRIES = 2.5e8


class _DenseBlock:
    """A PSD block's rows as a dense (m, s, s) tensor.

    ``A2`` is the same data viewed as an (m, s*s) matrix, for the
    products with X and y.
    """

    def __init__(self, sym, s):
        m = sym.shape[0]
        self.s = s
        # column-major: the layout fixes the summation order of the BLAS
        # calls below, and so every iterate of a dense-block solve
        self.A = sym.toarray(order="F").reshape(m, s, s)
        self.A2 = self.A.reshape(m, s * s)
        self.sq_norms = (self.A ** 2).sum(axis=(1, 2))

    def apply(self, X):
        return self.A2 @ X.reshape(-1)

    def adjoint(self, y):
        return (y @ self.A2).reshape(self.s, self.s)

    def add_schur(self, M, Zinv, X):
        m = self.A.shape[0]
        T = Zinv @ self.A @ X  # (m, s, s) batched
        M += self.A.reshape(m, -1) @ T.reshape(m, -1).T


class _SparseBlock:
    """A PSD block's rows as CSR over its s*s entries.

    Row k touches the rows and columns R_k of its s x s matrix A_k (the
    same set, A_k being symmetric), so Z^-1 A_k X = Z^-1[:, R_k]
    A_k[R_k, R_k] X[R_k, :] costs O(s^2 |R_k|) instead of O(s^3): the
    Schur formula of Fujisawa, Kojima and Nakata (1997) used by SDPA.
    """

    def __init__(self, sym, s):
        self.s = s
        self.A = sym
        self.sq_norms = np.asarray(sym.multiply(sym).sum(axis=1)).ravel()
        self.rows = []
        for k in range(sym.shape[0]):
            lo, hi = sym.indptr[k], sym.indptr[k + 1]
            if hi == lo:
                continue
            i, j = np.divmod(sym.indices[lo:hi], s)
            R = np.unique(i)
            D = np.zeros((R.size, R.size))
            D[np.searchsorted(R, i), np.searchsorted(R, j)] = sym.data[lo:hi]
            self.rows.append((k, R, D))

    def apply(self, X):
        return self.A @ X.reshape(-1)

    def adjoint(self, y):
        return (self.A.T @ y).reshape(self.s, self.s)

    def add_schur(self, M, Zinv, X):
        for k, R, D in self.rows:
            G = (Zinv[:, R] @ D) @ X[R]
            M[:, k] += self.A @ G.reshape(-1)


def _storage(sym, s):
    """Choose one block's representation: (sparse?, floats it keeps).

    Compares the cost model's estimates of the two Schur formations.  A
    block whose dense tensor alone would exceed the size limit is kept
    sparse whatever the estimate.  A sparse block keeps its CSR entries
    and the gathered r x r matrix of each nonempty row.
    """
    m = sym.shape[0]
    # r_k = |R_k| for every nonempty row k: distinct (row, matrix row) pairs
    row = np.repeat(np.arange(m), np.diff(sym.indptr))
    r = np.bincount(np.unique(row * s + sym.indices // s) // s).astype(float)
    r = r[r > 0]
    dense = m * (4.0 * s**3 + 2.0 * m * s * s)
    sparse = (
        r.size * _SPARSE_ROW_COST
        + _SMALL_FLOP_COST * float((2.0 * s * r * r + 2.0 * s * s * r).sum())
        + _ACCUMULATE_FLOP_COST * 2.0 * sym.nnz * r.size
    )
    if _SPARSE_MARGIN * sparse < dense or m * s * s > _MAX_ENTRIES:
        return True, sym.nnz + float((r * r).sum())
    return False, m * s * s


def _symmetrized(cols, s):
    """CSR rows of 0.5 (A_k + A_k') over the s*s entries of one block."""
    A = scipy.sparse.csr_matrix(cols)
    swap = np.arange(s * s).reshape(s, s).T.reshape(-1)
    return 0.5 * (A + A[:, swap])


class _Cones:
    """Per-cone views of the problem data for the solver.

    The orthant columns are a dense (m, l) array.  Each PSD block of A
    is symmetrized once into CSR rows over its s*s entries, then kept
    per block either as that CSR (``_SparseBlock``) or as a dense
    (m, s, s) tensor (``_DenseBlock``), whichever ``_storage`` estimates
    forms the block's share of the Schur complement faster.  Problems
    whose M, orthant columns and block data would exceed _MAX_ENTRIES
    floats are refused.
    """

    def __init__(self, problem):
        cone = problem.cone
        if cone.f:
            raise ConicError("free variables must be eliminated by presolve first")
        A = scipy.sparse.csc_matrix(problem.A)
        self.m = m = problem.m
        self.l = cone.l
        parts = []
        entries = m * m + m * cone.l  # M and the orthant columns
        for off, s in zip(cone.psd_starts, cone.s):
            sym = _symmetrized(A[:, off : off + s * s], s)
            sparse, floats = _storage(sym, s)
            entries += floats
            cblk = np.asarray(problem.c[off : off + s * s], dtype=float).reshape(s, s)
            parts.append((sym, s, sparse, 0.5 * (cblk + cblk.T)))
        if entries > _MAX_ENTRIES:
            raise ConicError("problem too large for the interior-point solver")
        self.A_l = A[:, : cone.l].toarray()
        self.c_l = np.asarray(problem.c[: cone.l], dtype=float)
        self.blocks = [
            (_SparseBlock if sparse else _DenseBlock)(sym, s)
            for sym, s, sparse, _ in parts
        ]
        self.c_s = [C for *_, C in parts]
        self.nu = cone.l + sum(cone.s)
        self.c_norm = math.sqrt(
            float(self.c_l @ self.c_l) + sum(float((c * c).sum()) for c in self.c_s)
        )

    def apply_A(self, x_l, X_s):
        """A(x): contract the primal point against every row."""
        out = self.A_l @ x_l if self.l else np.zeros(self.m)
        for block, X in zip(self.blocks, X_s):
            out = out + block.apply(X)
        return out

    def apply_At(self, y):
        """A'(y) per cone."""
        out_l = self.A_l.T @ y if self.l else np.zeros(0)
        return out_l, [block.adjoint(y) for block in self.blocks]

    def schur_complement(self, x_l, z_l, Zinv_s, X_s):
        """M_jk = A_j' diag(x/z) A_k + sum over blocks of tr(A_j Z^-1 A_k X)."""
        M = np.zeros((self.m, self.m))
        if self.l:
            d = x_l / z_l
            M += (self.A_l * d) @ self.A_l.T
        for block, Zinv, X in zip(self.blocks, Zinv_s, X_s):
            block.add_schur(M, Zinv, X)
        return 0.5 * (M + M.T)

    def newton_rhs(self, b, w_l, W_s):
        """b + A(w), each PSD part W symmetrized first."""
        rhs = b.copy()
        if self.l:
            rhs += self.A_l @ w_l
        for block, W in zip(self.blocks, W_s):
            rhs += block.apply(0.5 * (W + W.T))
        return rhs

    def inner(self, u_l, U_s, v_l, V_s):
        total = float(u_l @ v_l) if self.l else 0.0
        for U, V in zip(U_s, V_s):
            total += float((U * V).sum())
        return total


@functools.cache
def _syevr_work(n):
    """syevr's (lwork, liwork) for order n, as scipy.linalg.eigh queries them.

    syevr's default minimal workspace changes the last bit of some
    eigenvalues, and with them the iterates of the max-cut solves.
    """
    lwork, liwork, _ = dsyevr_lwork(n, lower=1)
    return int(lwork), int(liwork)


def _min_eig(M):
    """Smallest eigenvalue of the symmetric M (its lower triangle), 0 if empty.

    The LAPACK call scipy.linalg.eigvalsh(M, subset_by_index=[0, 0])
    makes, without its Python wrappers; non-finite input raises
    ValueError as it does there.
    """
    n = M.shape[0]
    if n == 0:
        return 0.0
    lwork, liwork = _syevr_work(n)
    w, _, _, _, info = dsyevr(
        np.asarray_chkfinite(M), compute_v=0, range="I", lower=1, il=1, iu=1,
        lwork=lwork, liwork=liwork,
    )
    if info:
        raise scipy.linalg.LinAlgError("syevr failed")
    return float(w[0])


def _alpha_orthant(x, dx):
    if x.size == 0:
        return np.inf
    mask = dx < 0
    if not mask.any():
        return np.inf
    return float(np.min(-x[mask] / dx[mask]))


def _psd_factor(X):
    """Lower Cholesky factor of the PSD block X, or None if it is not PD.

    A factorization that fails is retried twice with a growing diagonal
    jitter, so the factor may be that of X + jitter I.  Non-finite X
    raises ValueError, as scipy.linalg.cholesky does.
    """
    jitter = 0.0
    for _ in range(3):
        L, info = dpotrf(
            np.asarray_chkfinite(X + jitter * np.eye(X.shape[0])), lower=1, clean=1
        )
        if info == 0:
            return L
        jitter = max(jitter * 100, 1e-14 * max(np.trace(X), 1.0))
    return None


def _psd_step(L, dX):
    """Largest alpha with L L' + alpha dX still PSD, L from _psd_factor.

    That is -1 / min eig(L^-1 dX L^-T), inf if the direction never
    leaves the cone and 0 if the block has no factor.
    """
    if L is None:
        return 0.0
    if L.shape[0] == 0:
        return np.inf
    # potrf leaves a positive diagonal, so these solves cannot fail
    W, _ = dtrtrs(L, dX, lower=1)
    W, _ = dtrtrs(L, W.T, lower=1)
    lam = _min_eig(0.5 * (W + W.T))
    if lam >= 0:
        return np.inf
    return -1.0 / lam


def _step_length(x_l, L_s, dx_l, dX_s):
    """Largest step along (dx_l, dX_s) from the point whose PSD factors are L_s."""
    alpha = _alpha_orthant(x_l, dx_l)
    for L, dX in zip(L_s, dX_s):
        alpha = min(alpha, _psd_step(L, dX))
    return alpha


def _initial_point(cones, b):
    x_l = np.ones(cones.l)
    z_l = np.ones(cones.l)
    if cones.l:
        anorm = 1.0 + np.sqrt((cones.A_l ** 2).sum(axis=1))
        xi = max(10.0, math.sqrt(cones.l), float(np.max((1.0 + np.abs(b)) / anorm)))
        eta = max(
            10.0,
            math.sqrt(cones.l),
            (1.0 + float(np.linalg.norm(cones.c_l))) / math.sqrt(cones.l),
        )
        x_l *= xi
        z_l *= eta
    X_s, Z_s = [], []
    for block, Cblk in zip(cones.blocks, cones.c_s):
        s = Cblk.shape[0]
        fnorms = np.sqrt(block.sq_norms)
        anorm = 1.0 + fnorms
        xi = max(10.0, math.sqrt(s), s * float(np.max((1.0 + np.abs(b)) / anorm)))
        eta = max(
            10.0,
            math.sqrt(s),
            (1.0 + max(float(np.max(fnorms, initial=0.0)), float(np.linalg.norm(Cblk))))
            / math.sqrt(s),
        )
        X_s.append(xi * np.eye(s))
        Z_s.append(eta * np.eye(s))
    return x_l, X_s, z_l, Z_s


# iteration limit, the fraction of the distance to the cone boundary a
# step may take, and the relative floor of the Schur regularization
_MAX_ITER = 100
_STEP_FRACTION = 0.98
_REG_FLOOR = 1e-12
# a best iterate within _ACCEPT_FACTOR * eps is returned as 'inaccurate';
# once there is one, a point _LOST_FACTOR times worse ends the solve
_ACCEPT_FACTOR = 1e3
_LOST_FACTOR = 100.0


def _residuals(cones, b, x_l, X_s, y, z_l, Z_s):
    """Dual residuals per cone, scaled primal and dual infeasibility, mu.

    Returns (rd_l, Rd_s, pinf, dinf, mu) at the point: rd = c - A'y - z,
    pinf = |b - A(x)| / (1 + |b|), dinf = |rd| / (1 + |c|) and mu the
    complementarity x'z over the barrier degree.
    """
    rp = b - cones.apply_A(x_l, X_s)
    At_l, At_s = cones.apply_At(y)
    rd_l = cones.c_l - At_l - z_l
    Rd_s = [C - AtS - Z for C, AtS, Z in zip(cones.c_s, At_s, Z_s)]
    pinf = float(np.linalg.norm(rp)) / (1.0 + float(np.linalg.norm(b)))
    dinf = math.sqrt(
        float(rd_l @ rd_l) + sum(float((R * R).sum()) for R in Rd_s)
    ) / (1.0 + cones.c_norm)
    mu = cones.inner(x_l, X_s, z_l, Z_s) / cones.nu
    return rd_l, Rd_s, pinf, dinf, mu


def _without_iterations(problem, status, message="", dinf=0.0, z=None):
    """An outcome decided before any interior-point iteration."""
    return ConicSolution(
        status=status, x=np.zeros(problem.n), y=np.zeros(problem.m),
        z=np.zeros(problem.n) if z is None else z, pobj=0.0, dobj=0.0,
        pinf=0.0, dinf=dinf, gap=0.0, iterations=0, message=message,
    )


def solve(problem, params=None):
    """Solve a conic problem (orthant and PSD cones) to tolerance eps.

    HKM-scaled predictor-corrector path following: each iteration forms
    the Schur complement M_jk = tr(A_j Z^-1 A_k X) (plus the orthant
    diagonal term), factors it with escalating diagonal regularization
    if needed, and takes Mehrotra-corrected steps damped to
    _STEP_FRACTION of the distance to the cone boundary.

    M is summed block by block.  A dense block adds A_flat T_flat' with
    T_k = Z^-1 A_k X from one batched product; a sparse block gathers
    G_k = Z^-1[:, R_k] A_k[R_k, R_k] X[R_k, :] for each nonempty row k,
    R_k the rows A_k touches, and adds A G_k to column k of M.  The
    residuals and the Newton right-hand side use the same per-block
    data, so a block is never densified when it is stored sparse.

    Each iteration computes one Cholesky factor per PSD block of X and
    of Z (``_psd_factor``), once.  The step lengths of the predictor and
    of the corrector, primal and dual, all come from those factors:
    alpha = -1 / min eig(L^-1 dX L^-T).  Each accepted step is logged at
    DEBUG level with its primal and dual lengths, sigma and the number
    of 0.2 back-off cuts it took.

    The solve stops with 'solved' once max(pinf, dinf, gap) <= eps.  It
    also stops as soon as the best iterate so far is within
    _ACCEPT_FACTOR * eps and the current point's max(pinf, dinf, gap)
    is over _LOST_FACTOR times the best one ("lost progress"): past that
    point the iterations only drift away from a result that is already
    acceptable.  That exit, like the iteration limit, vanishing step
    lengths and the failure exits, returns the best iterate, as
    'inaccurate' if it is within _ACCEPT_FACTOR * eps and as 'failed'
    otherwise, unless a validated ray certifies infeasibility or
    unboundedness.
    """
    params = params or SolverParams()
    cones = _Cones(problem)
    b = np.asarray(problem.b, dtype=float)
    m = cones.m

    if cones.nu == 0:
        # no cone constraints at all: dual feasibility is unconstrained
        if np.linalg.norm(b) > params.eps:
            return _without_iterations(
                problem, "unbounded", "dual objective nonzero with empty cone"
            )
        return _without_iterations(problem, "solved")
    if m == 0:
        # fully pinned duals: just check the slacks are in the cone
        zmin = float(np.min(cones.c_l)) if cones.l else 0.0
        for Cblk in cones.c_s:
            zmin = min(zmin, _min_eig(Cblk))
        if zmin >= -params.eps:
            return _without_iterations(problem, "solved", z=problem.c.copy())
        # no moment vector exists, which the other paths report as a
        # primal improving ray
        return _without_iterations(
            problem, "unbounded", "pinned moments put the dual slack outside the cone",
            dinf=-zmin, z=problem.c.copy(),
        )

    x_l, X_s, z_l, Z_s = _initial_point(cones, b)
    y = np.zeros(m)
    point_residuals = _residuals(cones, b, x_l, X_s, y, z_l, Z_s)
    history = []
    best = None
    status = "failed"
    message = ""
    it = 0

    for it in range(1, _MAX_ITER + 1):
        rd_l, Rd_s, pinf, dinf, mu = point_residuals
        pobj = cones.inner(cones.c_l, cones.c_s, x_l, X_s)
        dobj = float(b @ y)
        gap = abs(pobj - dobj) / (1.0 + abs(pobj) + abs(dobj))
        history.append((pobj, dobj, pinf, dinf, gap))
        metric = max(pinf, dinf, gap)
        if best is None or metric < best[0]:
            best = (metric, x_l.copy(), [X.copy() for X in X_s],
                    y.copy(), z_l.copy(), [Z.copy() for Z in Z_s],
                    pobj, dobj, pinf, dinf, gap, it)
        _log.debug("it %3d  pobj %+.8e  dobj %+.8e  pinf %.2e  dinf %.2e  gap %.2e",
                   it, pobj, dobj, pinf, dinf, gap)
        if metric <= params.eps:
            status = "solved"
            break

        diverged = _divergence_status(cones, x_l, X_s, y, pobj, dobj)
        if diverged:
            status, message = diverged
            break
        if best[0] <= _ACCEPT_FACTOR * params.eps and metric > _LOST_FACTOR * best[0]:
            # the best iterate is already acceptable and this one is far
            # worse: the iterations left would only be thrown away
            status = "stalled"
            message = (f"lost progress: residual {metric:.1e} at iteration {it}, "
                       f"best {best[0]:.1e} at iteration {best[-1]}")
            break

        # HKM scaling data
        try:
            Zinv_s = [np.linalg.inv(Z) for Z in Z_s]
        except np.linalg.LinAlgError:
            status, message = "failed", "singular dual slack"
            break
        M = cones.schur_complement(x_l, z_l, Zinv_s, X_s)
        chol = _factor_with_regularization(M)
        if chol is None:
            status, message = "failed", "Schur complement factorization failed"
            break

        def schur_solve(rhs):
            # refine against the unregularized matrix: near the boundary
            # the factor carries a regularization shift
            dy = scipy.linalg.cho_solve(chol, rhs)
            for _ in range(2):
                resid = rhs - M @ dy
                dy = dy + scipy.linalg.cho_solve(chol, resid)
            return dy

        def solve_newton(sigma_mu, corr_l, corr_s):
            # rhs = b - sigma*mu*A(Z^-1) + A(Z^-1 Rd X) + A(corr)
            rhs = cones.newton_rhs(
                b,
                -sigma_mu / z_l + (x_l / z_l) * rd_l + corr_l,
                [
                    -sigma_mu * Zinv + Zinv @ Rd @ X + corr
                    for Zinv, X, Rd, corr in zip(Zinv_s, X_s, Rd_s, corr_s)
                ],
            )
            dy = schur_solve(rhs)
            dAt_l, dAt_s = cones.apply_At(dy)
            dz_l = rd_l - dAt_l
            dZ_s = [Rd - dAt for Rd, dAt in zip(Rd_s, dAt_s)]
            dx_l = (
                sigma_mu / z_l - x_l - (x_l / z_l) * dz_l - corr_l
                if cones.l
                else x_l
            )
            dX_s = []
            for Zinv, X, dZ, corr in zip(Zinv_s, X_s, dZ_s, corr_s):
                raw = sigma_mu * Zinv - X - Zinv @ dZ @ X - corr
                dX_s.append(0.5 * (raw + raw.T))
            return dx_l, dX_s, dy, dz_l, dZ_s

        zero_l = np.zeros(cones.l)
        zero_s = [np.zeros_like(X) for X in X_s]
        aff = solve_newton(0.0, zero_l, zero_s)
        if not _steps_finite(aff):
            status, message = "failed", "non-finite predictor step"
            break
        # one factor per PSD block of X and of Z serves all four step searches
        LX_s = [_psd_factor(X) for X in X_s]
        LZ_s = [_psd_factor(Z) for Z in Z_s]
        ap = _step_length(x_l, LX_s, aff[0], aff[1])
        ad = _step_length(z_l, LZ_s, aff[3], aff[4])
        ap_d = min(1.0, _STEP_FRACTION * ap)
        ad_d = min(1.0, _STEP_FRACTION * ad)
        mu_aff = cones.inner(
            x_l + ap_d * aff[0],
            [X + ap_d * dX for X, dX in zip(X_s, aff[1])],
            z_l + ad_d * aff[3],
            [Z + ad_d * dZ for Z, dZ in zip(Z_s, aff[4])],
        ) / cones.nu
        sigma = min(1.0, max(0.0, (mu_aff / mu))) ** 3

        corr_l = aff[0] * aff[3] / z_l if cones.l else zero_l
        corr_s = [
            Zinv @ dZ @ dX for Zinv, dZ, dX in zip(Zinv_s, aff[4], aff[1])
        ]
        step = solve_newton(sigma * mu, corr_l, corr_s)
        if not _steps_finite(step):
            step = aff  # fall back to the plain predictor
        ap = min(1.0, _STEP_FRACTION * _step_length(x_l, LX_s, step[0], step[1]))
        ad = min(1.0, _STEP_FRACTION * _step_length(z_l, LZ_s, step[3], step[4]))
        if ap < 1e-8 and ad < 1e-8:
            status, message = "stalled", "step lengths below 1e-8"
            break
        # reject steps whose residuals blow up: near a boundary optimum the
        # regularized Schur system can produce garbage directions
        accepted = False
        for cuts in range(4):
            x_n = x_l + ap * step[0]
            X_n = [X + ap * dX for X, dX in zip(X_s, step[1])]
            y_n = y + ad * step[2]
            z_n = z_l + ad * step[3]
            Z_n = [Z + ad * dZ for Z, dZ in zip(Z_s, step[4])]
            point_residuals = _residuals(cones, b, x_n, X_n, y_n, z_n, Z_n)
            *_, pinf_n, dinf_n, mu_n = point_residuals
            if (
                pinf_n <= 100.0 * pinf + 1e-12
                and dinf_n <= 100.0 * dinf + 1e-12
                and mu_n <= 100.0 * mu
            ):
                accepted = True
                break
            ap *= 0.2
            ad *= 0.2
        if not accepted:
            status, message = "stalled", "step rejected"
            break
        _log.debug("it %3d  step primal %.3e  dual %.3e  sigma %.3e  cuts %d",
                   it, ap, ad, sigma, cuts)
        x_l, X_s, y, z_l, Z_s = x_n, X_n, y_n, z_n, Z_n
    else:
        status, message = "maxiter", f"iteration limit ({_MAX_ITER}) reached"

    if status in ("maxiter", "stalled", "failed") and best is not None:
        # the last iterate carries any diverging ray; the best iterate is
        # the most accurate point.  A validated certificate wins.
        diverged = _divergence_status(cones, x_l, X_s, y, pobj, dobj, final=True)
        metric = best[0]
        if diverged is None:
            _, x_l, X_s, y, z_l, Z_s, pobj, dobj, pinf, dinf, gap, it_best = best
            diverged = _divergence_status(cones, x_l, X_s, y, pobj, dobj, final=True)
        if diverged:
            status, message = diverged
        elif metric <= _ACCEPT_FACTOR * params.eps:
            status = "inaccurate"
        elif status != "failed":
            status, message = "failed", f"no convergence: {message}"

    x = np.concatenate([x_l] + [X.reshape(-1) for X in X_s])
    z = np.concatenate([z_l] + [Z.reshape(-1) for Z in Z_s])
    return ConicSolution(
        status=status, x=x, y=y, z=z, pobj=pobj, dobj=dobj,
        pinf=pinf, dinf=dinf, gap=gap, iterations=it,
        history=history, message=message,
    )


def _steps_finite(step):
    dx_l, dX_s, dy, dz_l, dZ_s = step
    arrays = [dx_l, dy, dz_l] + list(dX_s) + list(dZ_s)
    return all(np.all(np.isfinite(a)) for a in arrays)


def _factor_with_regularization(M):
    reg = 0.0
    scale = max(float(np.trace(M)) / max(M.shape[0], 1), 1.0)
    for attempt in range(4):
        try:
            return scipy.linalg.cho_factor(
                M + reg * np.eye(M.shape[0]), lower=True
            )
        except scipy.linalg.LinAlgError:
            reg = max(_REG_FLOOR * scale, reg * 100.0, 1e-14 * scale)
    return None


def _divergence_status(cones, x_l, X_s, y, pobj, dobj, final=False):
    """Farkas-style checks: normalized rays certify infeasibility sides.

    During the iteration only clear blowups are inspected; once the
    solve has stopped (final) a scale-relative gap between the two
    objectives is enough to try for a certificate, whose validation
    stays strict either way.
    """
    tol = 1e-8
    dual_ray = dobj > 1.0 / tol or (dobj > 1e3 and np.linalg.norm(y) > 1e7)
    if final:
        dual_ray = dual_ray or dobj > 100.0 * (1.0 + abs(pobj))
    if dual_ray:
        yhat = y / dobj
        At_l, At_s = cones.apply_At(yhat)
        worst = float(np.max(At_l, initial=0.0))
        for AtS in At_s:
            worst = max(worst, _min_eig(-AtS) * -1.0 if AtS.size else 0.0)
        feas = max(worst, 0.0)
        if feas <= tol * (1.0 + float(np.linalg.norm(yhat))):
            return "infeasible", "dual improving ray found"
    primal_ray = pobj < -1.0 / tol
    if final:
        primal_ray = primal_ray or pobj < -100.0 * (1.0 + abs(dobj))
    if primal_ray:
        scale = -pobj
        xhat_l = x_l / scale
        Xhat_s = [X / scale for X in X_s]
        ray_res = float(np.linalg.norm(cones.apply_A(xhat_l, Xhat_s)))
        xnorm = math.sqrt(
            float(xhat_l @ xhat_l) + sum(float((X * X).sum()) for X in Xhat_s)
        )
        if ray_res <= tol * (1.0 + xnorm):
            return "unbounded", "primal improving ray found"
    return None


def solve_conic(problem, params=None):
    """Reduce, solve, and lift back to the coordinates of ``problem``.

    Of the three reductions of the module docstring, the sign split is
    applied by the caller, ``solve_gpm``, before this; here the
    zero-diagonal facial reduction runs first (solving the reduced
    problem recursively), then presolve of the free columns.

    Returns a ConicSolution in the coordinates of ``problem``: y holds
    all original dual (moment) variables, x all original primal entries
    with the free components recovered by least squares, and pobj/dobj
    are the objectives c'x and b'y of ``problem`` (history rows stay
    those of the solved problem).
    """
    params = params or SolverParams()
    red = _reduce_zero_diagonals(problem)
    if red is not None:
        inner = solve_conic(red.problem, params)
        return _lift_reduction(problem, red, inner)
    if problem.cone.f == 0:
        return solve(problem, params)
    pre = presolve_eliminate_equalities(problem)
    if pre.status == "infeasible":
        # no y solves A_f'y = c_f, so some free x_f has A_f x_f = 0 and
        # c_f'x_f < 0: a primal improving ray, which the IPM reports as
        # unbounded too.  The violated rows are dual constraints.
        return _without_iterations(
            problem, "unbounded", "inconsistent equality rows", dinf=pre.residual
        )
    inner = solve(pre.problem, params)
    y = pre.y0 + pre.N @ inner.y
    nf = problem.cone.f
    x = np.zeros(problem.n)
    x[nf:] = inner.x
    A = scipy.sparse.csc_matrix(problem.A)
    if nf:
        rhs = problem.b - A[:, nf:] @ inner.x
        x[:nf] = scipy.sparse.linalg.lsqr(A[:, :nf], rhs)[0]
    z = problem.c - problem.A.T @ y
    # presolve moved b'y0 out of both objectives; put it back
    shift = float(problem.b @ pre.y0)
    return replace(
        inner, x=x, y=y, z=np.asarray(z).reshape(-1),
        pobj=inner.pobj + shift, dobj=inner.dobj + shift,
    )
