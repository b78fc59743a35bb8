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

A moment SDP reaches the solver through six reductions, in this
order:

1. the orbit reduction (``reduce_by_orbits``, applied by ``solve_gpm``):
   under signed permutations that fix the data (``sign_flips`` and
   ``permuted_columns`` give them), the moments are restricted to one
   variable per orbit, an orbit that holds a moment together with its
   negative pinned to 0, with the cones unchanged;
2. the pattern split (``split_by_pattern``, first in ``solve_conic``):
   free and orthant columns without data go and every PSD block splits
   into the connected components of its entries with data, which
   turns the pins of step 1 into one block per parity class;
3. presolve (``presolve_eliminate_equalities``): free columns go;
4. zero-diagonal facial reduction (``_reduce_zero_diagonals``): slacks
   certified zero on the whole dual set leave the cones, pinned by
   free columns that the pattern split and presolve then take again;
   an exact screen of the signs of the data rules most problems out
   before the LP that looks for a certificate;
5. the forced-entry reduction (``_drop_forced_entries``), its primal
   twin: orthant entries and PSD rows and columns that a row of
   A x = b with b_k = 0 forces to 0 at every feasible x leave the
   cones, and rows of A left empty go, their moments left undetermined
   (NaN) with the recession direction that frees them;
6. the block rotation (``rotate_blocks``, right before the solver): a
   PSD block whose data splits in the eigenbasis of a random
   combination of it is rotated into that basis, where the pattern
   split of step 2 splits it, when the split saves more than the
   blocks it adds cost.

The first applies only where a check of the data, exact to the last
bit, shows the symmetry it uses; the second and the fifth involve no
tolerance.  The sixth is the only one that changes the data by a
tolerance: it rotates a block only when every rotated entry outside
the blocks it splits into is at most 1e-9 times the largest entry of
the block's data, and sets those entries to exactly 0.  Each returns a ``Reduction``: the
reduced problem and two linear maps back, y = y0 + N y_r for the
moments and x = X x_r for the primal entries.  One ``lift`` applies
them to a solution of the reduced problem, so a further reduction only
has to build its y0, N and X.

``ConicProblem`` owns the data layout: A is float64 CSC, its columns
the cone entries that every reduction slices, b and c float64 vectors.
Every consumer reads that as given; only the writers of ``formats``
convert A, once each, to the row order of their files.  ``ConeSpec``
owns the column map between PSD block entries and columns.

The solver keeps each PSD block of A, symmetrized, either as CSR rows
over its s*s entries or as dense data.  It picks one per block from an
nnz-based estimate of what forming that block's share of the Schur
complement costs each way: moment matrices whose rows touch few
entries go sparse, small or dense blocks stay dense.  The dense blocks
of one order, such as the localizing matrices of one relaxation order,
are one stack: one tensor, and one numpy call per stack for each
product of the iteration.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field, replace
from itertools import accumulate

import numpy as np
import scipy.sparse
import scipy.sparse.csgraph
import scipy.sparse.linalg
from scipy.linalg.lapack import dpotrf, dpotrs


_log = logging.getLogger(__name__)


class ConicError(ValueError):
    """Invalid conic problem or conversion."""


@dataclass(frozen=True)
class ConeSpec:
    """Dimensions of the cone product: free, orthant, PSD block orders.

    It owns the column layout: free, then orthant, then each PSD block
    of order s as its s*s entries, row-major with both triangles stored.
    ``column``, ``block_columns`` and ``entries`` map entries to columns.
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

    def column(self, k, i, j):
        """Column of entry (i, j) of PSD block k; k, i and j broadcast."""
        starts, sizes = (np.array(v, dtype=np.int64)[k] for v in (self.psd_starts, self.s))
        return starts + np.multiply(i, sizes) + j

    def block_columns(self, k, rows):
        """Columns of the rows x rows sub-block of PSD block k, row-major."""
        return self.column(k, rows[:, None], rows).reshape(-1)

    def entries(self, cols):
        """(k, i, j) of each column: entry (i, j) of PSD block k, or k = -1
        and i = j = column - f (the orthant entry) ahead of the blocks."""
        cols = np.asarray(cols, dtype=np.int64)
        k = np.searchsorted(self.psd_starts, cols, side="right") - 1
        i, j, psd = cols - self.f, cols - self.f, k >= 0
        start = self.column(k[psd], 0, 0)
        i[psd], j[psd] = np.divmod(cols[psd] - start, np.take(self.s, k[psd]))
        return k, i, j

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

    Construction fixes the layout: A becomes float64 CSC with sorted
    row indices, so every product with A sums in one order (a float64
    CSC argument is sorted in place, not copied), and b and c float64
    vectors.  ConicError if A, b, c and the cone disagree in shape.
    """

    A: object
    b: np.ndarray
    c: np.ndarray
    cone: ConeSpec
    sense: str = "min"
    offset: float = 0.0

    def __post_init__(self):
        self.A = scipy.sparse.csc_matrix(self.A, dtype=float)
        self.A.sort_indices()
        self.b = np.asarray(self.b, dtype=float)
        self.c = np.asarray(self.c, dtype=float)
        n = self.cone.total_length
        if self.b.ndim != 1 or self.c.shape != (n,) or self.A.shape != (self.b.size, n):
            raise ConicError(
                f"conic problem has inconsistent dimensions: A is {self.A.shape}, "
                f"b {self.b.shape} and c {self.c.shape}, the cone has {n} entries"
            )

    @property
    def m(self):
        return self.b.shape[0]

    @property
    def n(self):
        return self.c.shape[0]

    def objective_value(self, y):
        """The source objective at y; an undetermined (NaN) y_k with
        b_k = 0 does not enter it."""
        by = _objective_dot(self.b, y)
        return self.offset + (by if self.sense == "max" else -by)


def _objective_dot(b, y):
    """b'y over the rows with b_k != 0, so that the NaN of an
    undetermined y_k with b_k = 0 does not make it NaN."""
    used = b != 0
    return float(b[used] @ y[used])


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
    step lengths, a failed factorization or a non-finite step, or the
    ray found.  history rows are (pobj, dobj, pinf, dinf, gap) per
    iteration, the last one for the point the solve stopped at.
    blocks holds the PSD block orders of the problem the outcome was
    decided on, which ``solve_conic`` leaves as the interior-point solve
    saw them.  After a reduction's ``lift``, z is c - A'y on every
    column, free columns included.

    y is NaN on the moments that ``_drop_forced_entries`` left
    undetermined, and z on the entries they touch.  ``recession`` is
    then a direction d, 0 where y is determined and with b'd = 0, such
    that z - tau A'd, with y's NaN read as 0, is strictly positive on
    every orthant entry and PSD diagonal that the reduction dropped once
    tau is large enough: the dual recession direction that leaves those
    moments free.  It is None when y is determined.
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
    blocks: tuple = ()
    recession: object = None


def to_conic(msdp):
    """Convert an assembled moment SDP to primal conic form.

    Equality rows become free columns with z = -(row value), inequality
    rows orthant columns with z = row value, and each symmetric block
    B(y) a PSD slack Z = C - sum_k y_k A_k with C the constant part of
    B and A_k minus its coefficient matrices.

    A is built transposed, one CSR row per column of x, which makes A
    CSC: the equality rows, the negated inequality rows, then for each
    block the negated rows of its distinct forms, its slot matrix read
    in the row-major order of ``ConeSpec``.
    """
    eq, ineq = msdp.lin_eq, msdp.lin_ineq
    cone = ConeSpec(
        f=len(eq),
        l=len(ineq),
        s=tuple(block.size for block in msdp.blocks),
    )
    columns = [eq.coeffs, -ineq.coeffs]
    cvals = [-eq.const, ineq.const]
    for block in msdp.blocks:
        slots = block.slots.reshape(-1)
        columns.append(-block.forms.coeffs[slots])
        cvals.append(block.forms.const[slots])
    A = scipy.sparse.vstack(columns, format="csr").T

    obj = msdp.objective.coeffs.toarray()[0]
    sense = msdp.sense
    b = obj if sense == "max" else -obj
    return ConicProblem(
        A=A, b=b, c=np.concatenate(cvals), cone=cone, sense=sense,
        offset=float(msdp.objective.const[0]),
    )


@dataclass
class Reduction:
    """A reduced conic problem and the linear maps back to the original.

    A point (x_r, y_r) of ``problem`` maps to y = y0 + N y_r and
    x = X x_r, with N sparse and X sparse or, for the orbit average and
    the block rotation, a linear operator.  ``n_eliminated`` counts the
    leading free columns that presolve removed; X is zero on them and
    ``lift`` recovers them by least squares.  Presolve and the
    forced-entry reduction can end with status 'infeasible': the
    equality rows are contradictory, or a row of A left empty has
    b_k != 0; ``residual`` reports the violation and the problem and
    maps are None.  ``kept`` lists the generators the orbit reduction
    kept, by position.  The forced-entry reduction sets y0 to NaN on the
    rows it drops and gives their ``recession`` direction (see
    ``ConicSolution``).
    """

    problem: object
    y0: np.ndarray
    N: object
    X: object
    status: str = "ok"
    residual: float = 0.0
    n_eliminated: int = 0
    kept: tuple = ()
    recession: np.ndarray = None


def _selection(n, idx):
    """The n x len(idx) 0/1 matrix whose column k is unit vector idx[k]."""
    return scipy.sparse.csr_matrix(
        (np.ones(idx.size), (idx, np.arange(idx.size))), shape=(n, idx.size)
    )


def lift(problem, red, inner):
    """A solution of ``red.problem`` in the coordinates of ``problem``.

    y = y0 + N y_r and x = X x_r, the free entries presolve eliminated
    solved from A x = b by least squares to rounding accuracy, so x
    misses A x = b about as much as the inner x misses its own rows;
    z = c - A'y on every column, and both objectives gain back the b'y0
    the reduction moved into the offset.  Status, residuals and history
    stay those of ``inner``.  The recession direction maps as y does,
    without y0, and gains the reduction's own.
    """
    y = red.y0 + red.N @ inner.y
    recession = red.recession
    if inner.recession is not None:
        lifted = red.N @ inner.recession
        recession = lifted if recession is None else recession + lifted
    x = red.X @ inner.x
    nf = red.n_eliminated
    if nf:
        # no tolerance relative to the right side, which can be ~1e7 where
        # the inner residual is ~1e-8: lsqr runs until rounding stops it,
        # capped at 4x the min(A_f.shape) steps of exact arithmetic
        Af = problem.A[:, :nf]
        x[:nf] = scipy.sparse.linalg.lsqr(
            Af, problem.b - problem.A[:, nf:] @ x[nf:],
            atol=0.0, btol=0.0, iter_lim=4 * min(Af.shape) + 10,
        )[0]
    z = problem.c - problem.A.T @ y
    shift = _objective_dot(problem.b, red.y0)
    return replace(
        inner, x=x, y=y, z=z, pobj=inner.pobj + shift, dobj=inner.dobj + shift,
        recession=recession,
    )


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
    Af = problem.A[:, :nf]
    r0 = float(np.abs(Af.T @ res.y0 - problem.c[:nf]).max(initial=0.0))
    r1 = float(np.abs((Af.T @ res.N).data).max(initial=0.0))
    return max(r0, r1)


def _infeasible(residual, nf):
    return Reduction(
        problem=None, y0=None, N=None, X=None, status="infeasible",
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
    A = problem.A
    # the transpose of a CSC is CSR: one row per equality
    root_of, a, bshift, is_pinned, pin, worst, R, const = _substitute(
        A[:, :nf].T, problem.c[:nf], substitute
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

    # N.T is CSC, so the CSC A_rest enters the product and leaves it as CSC
    A_rest = A[:, nf:]
    by0 = float(problem.b @ y0)
    offset = problem.offset + (by0 if problem.sense == "max" else -by0)
    reduced = ConicProblem(
        A=N.T @ A_rest,
        b=N.T @ problem.b,
        c=problem.c[nf:] - A_rest.T @ y0,
        cone=ConeSpec(f=0, l=problem.cone.l, s=problem.cone.s),
        sense=problem.sense,
        offset=offset,
    )
    # X = [0; I] on the cone columns, as one diagonal
    X = scipy.sparse.eye(problem.n, problem.n - nf, k=-nf, format="dia")
    return Reduction(problem=reduced, y0=y0, N=N, X=X, n_eliminated=nf)


def sign_flips(problem, moment_class, block_classes):
    """The flips of ``relaxation.sign_classes`` as signed generators.

    ``moment_class`` holds a class bitmask per row of A, ``block_classes``
    one per row of each PSD block.  Bit t gives (pi, sigma, r, s) with pi
    and sigma the identity, r = -1 on the rows of class bit t, s = d_i d_j
    on block entry (i, j) with d = -1 on the block rows of bit t, s on a
    free column the sign of the rows it touches and +1 on an orthant
    column; ``reduce_by_orbits`` refuses the flip where the data break it.
    """
    A, cone = problem.A, problem.cone
    row, col = A.indices, np.repeat(np.arange(problem.n), np.diff(A.indptr))
    free = col < cone.f
    moment_class = np.asarray(moment_class, dtype=np.int64)
    bits = np.bitwise_or.reduce(np.concatenate([moment_class, *block_classes]))
    generators = []
    for t in range(int(bits).bit_length()):
        r = 1.0 - 2.0 * (moment_class >> t & 1)
        s = np.ones(problem.n)
        np.minimum.at(s, col[free], r[row[free]])
        for k, rc in enumerate(block_classes):
            d = 1.0 - 2.0 * (rc >> t & 1)
            s[cone.block_columns(k, np.arange(d.size))] = np.outer(d, d).reshape(-1)
        generators.append((np.arange(problem.m), np.arange(problem.n), r, s))
    return generators


def permuted_columns(problem, moments, blocks):
    """The column permutation that goes with a permutation of the moments.

    ``moments`` sends row k of A to row moments[k]; ``blocks`` holds one
    (target, rows) pair per PSD block, as ``relaxation.Permutations``
    lists them: entry (i, j) of block k goes to entry (rows[i], rows[j])
    of block target.  A free or orthant column goes to the column of the
    same kind that equals it with its rows permuted, with the same c,
    matched by sorted keys.  Returns sigma with column j going to column
    sigma[j], or None when some free or orthant column has no image.
    """
    cone = problem.cone
    sigma = np.empty(problem.n, dtype=np.int64)
    for k, (target, rows) in enumerate(blocks):
        sigma[cone.block_columns(k, np.arange(len(rows)))] = cone.column(
            target, rows[:, None], rows
        ).reshape(-1)
    for lo, hi in ((0, cone.f), (cone.f, cone.f + cone.l)):
        moved = problem.A[:, lo:hi]
        moved.indices = np.asarray(moments)[moved.indices]
        moved.sort_indices()
        image = _matching_columns(problem.A[:, lo:hi], moved, problem.c[lo:hi])
        if image is None:
            return None
        sigma[lo:hi] = lo + image
    return sigma


def _matching_columns(P, Q, c):
    """For each column of Q, the column of P equal to it, c included.

    P and Q are CSC with sorted row indices and the same entries of c.
    Columns are keyed by their c, row indices and value bits; equal keys of P and Q are paired in
    column order, so repeated columns still give a permutation.  None
    when the keys of P and Q are not the same multiset.
    """
    image = np.full(Q.shape[1], -1, dtype=np.int64)
    p_len, q_len = np.diff(P.indptr), np.diff(Q.indptr)
    for k in np.unique(np.concatenate((p_len, q_len))):
        p_sel, q_sel = np.flatnonzero(p_len == k), np.flatnonzero(q_len == k)
        if p_sel.size != q_sel.size:
            return None
        keys, orders = [], []
        for M, sel in ((P, p_sel), (Q, q_sel)):
            at = M.indptr[sel, None] + np.arange(k)
            key = np.column_stack((_bits(c[sel]), M.indices[at], _bits(M.data[at])))
            orders.append(np.lexsort(key.T[::-1]))
            keys.append(key[orders[-1]])
        if not np.array_equal(*keys):
            return None
        image[q_sel[orders[1]]] = p_sel[orders[0]]
    return image


def _bits(values):
    # adding 0.0 turns -0.0 into 0.0, so equal floats get equal bits
    return (values + 0.0).view(np.int64)


def reduce_by_orbits(problem, generators):
    """Restrict the moments to the orbits of signed permutations.

    ``generators`` holds (pi, sigma, r, s): row k of A goes to row pi[k]
    with sign r[k], column j to column sigma[j] with sign s[j], mapping
    each cone onto itself (PSD entries (i, j) by a signed permutation of
    rows and columns alike, sign d_i d_j; orthant entries with sign +1),
    as ``sign_flips`` and ``permuted_columns`` give them.  A generator is
    kept only when it fixes the data exactly: b[pi] r == b, c[sigma] s ==
    c and r_k s_j A[pi[k], sigma[j]] == A[k, j]; dropping the others
    leaves a subgroup.  Averaging a dual point over the group keeps it
    feasible and keeps b'y, so y may be fixed by the group: y = N t with
    N the signed orbit indicator, and an orbit that holds a row with its
    negative pinned to 0.  A_r = N'A, b_r = N'b, c and the cone stay; the
    columns only pinned rows touch are left empty for ``split_by_pattern``.

    The lift is the signed Reynolds average of x over the column orbits,
    the projection onto the vectors the group fixes: A commutes with the
    group and b is fixed, so A x = b, and x stays in the cone.  Returns
    the ``Reduction``, ``kept`` the positions of the generators kept, or
    None when none is kept or no row is pinned or shares an orbit.
    """
    A, b, c = problem.A, problem.b, problem.c
    kept = []
    for at, (pi, sigma, r, s) in enumerate(generators):
        P = A[pi][:, sigma]
        P.data *= r[P.indices] * np.repeat(s, np.diff(P.indptr))
        if not (np.any(b[pi] * r != b) or np.any(c[sigma] * s != c) or (P != A).nnz):
            kept.append(at)
    if not kept:
        return None
    gens = [generators[at] for at in kept]
    rows, row_sign = _signed_orbits(problem.m, [(pi, r) for pi, _, r, _ in gens])
    orbits = int(rows.max(initial=-1)) + 1
    if orbits == problem.m:
        return None
    cols, col_sign = _signed_orbits(problem.n, [(sigma, s) for _, sigma, _, s in gens])
    held = np.flatnonzero(rows >= 0)
    N = scipy.sparse.csr_matrix((row_sign[held], (held, rows[held])), shape=(problem.m, orbits))
    reduced = ConicProblem(
        A=N.T @ A, b=N.T @ b, c=c, cone=problem.cone,
        sense=problem.sense, offset=problem.offset,
    )
    on = np.flatnonzero(cols >= 0)
    label, sign = cols[on], col_sign[on]
    size = np.bincount(label)

    def average(x):
        out = np.zeros(problem.n)
        out[on] = sign * (np.bincount(label, weights=sign * x[on], minlength=size.size) / size)[label]
        return out

    X = scipy.sparse.linalg.LinearOperator((problem.n, problem.n), matvec=average, dtype=float)
    return Reduction(problem=reduced, y0=np.zeros(problem.m), N=N, X=X, kept=tuple(kept))


def _signed_orbits(n, maps):
    """Orbits of n points under signed permutations (perm, sign): point k
    goes to perm[k] with sign sign[k], so a fixed vector v has
    v[perm[k]] = sign[k] v[k], and ``_alias_roots`` walks these relations.
    Returns each point's orbit, numbered by its smallest point, and a with
    v = a * v[smallest]; the orbit is -1 where it holds a point with its
    negative, so that every fixed vector vanishes there.
    """
    src = np.tile(np.arange(n), len(maps))
    dst = np.concatenate([perm for perm, _ in maps]).astype(np.int64)
    sign = np.concatenate([s for _, s in maps]).astype(float)
    # each moved point gives the row ci v[i] + cj v[j] = 0 on i < j,
    # sorted by (i, j) for _alias_roots
    moved = np.flatnonzero(src != dst)
    i, j = np.minimum(src[moved], dst[moved]), np.maximum(src[moved], dst[moved])
    order = np.argsort(i * n + j)
    moved, i, j = moved[order], i[order], j[order]
    forward = src[moved] == i
    ci, cj = np.where(forward, -sign[moved], 1.0), np.where(forward, 1.0, -sign[moved])
    merged = _alias_roots(n, i, j, ci, cj, np.zeros(moved.size))
    top, a = (np.arange(n), np.ones(n)) if merged is None else merged[1:3]
    # an orbit is pinned where some relation, a loop included, fails
    pinned = np.zeros(n, dtype=bool)
    pinned[top[src[a[dst] != sign * a[src]]]] = True
    roots = np.flatnonzero((top == np.arange(n)) & ~pinned)
    number = np.full(n, -1, dtype=np.int64)
    number[roots] = np.arange(roots.size)
    return number[top], a


def split_by_pattern(problem):
    """Drop the columns without data and split PSD blocks by their pattern.

    An entry is live when A or c is nonzero on it; free and orthant
    columns that are not go.  Each PSD block splits into the connected
    components of the graph of its live entries on its rows, ordered by
    smallest row, and a component without a live entry goes.  The data
    being block-diagonal over the components, x and the dual slack are
    PSD exactly when each part is, and dropped entries lift to x = 0.
    Returns the ``Reduction``, y unchanged, or None when nothing changes.
    """
    cone = problem.cone
    A = problem.A
    live = problem.c != 0
    live[np.repeat(np.arange(problem.n), np.diff(A.indptr))[A.data != 0]] = True
    nfl = cone.f + cone.l
    cols = [np.flatnonzero(live[:nfl])]
    sizes = []
    for k, s in enumerate(cone.s):
        L = live[cone.block_columns(k, np.arange(s))].reshape(s, s)
        _, label = scipy.sparse.csgraph.connected_components(
            scipy.sparse.csr_matrix(L | L.T), directed=False
        )
        rows = np.argsort(label, kind="stable")
        parts = sorted(np.split(rows, np.flatnonzero(np.diff(label[rows])) + 1), key=lambda R: R[0])
        for R in parts:
            if R.size > 1 or L[R[0], R[0]]:
                cols.append(cone.block_columns(k, R))
                sizes.append(R.size)
    cols = np.concatenate(cols)
    if np.array_equal(cols, np.arange(problem.n)):
        return None
    f = int(np.count_nonzero(live[: cone.f]))
    reduced = ConicProblem(
        A=A[:, cols],
        b=problem.b,
        c=problem.c[cols],
        cone=ConeSpec(f=f, l=int(np.count_nonzero(live[:nfl])) - f, s=tuple(sizes)),
        sense=problem.sense,
        offset=problem.offset,
    )
    return Reduction(
        problem=reduced, y0=np.zeros(problem.m),
        N=scipy.sparse.identity(problem.m, format="csr"), X=_selection(problem.n, cols),
    )


# a rotated block entry outside the components is rounding when it is at
# most this times the largest entry of the block's data; the largest
# seen on the max-cut blocks is 1.6e-11, on maxcut_sub-5's 219-order one
_ROTATION_TOL = 1e-9
# seed of the random combinations, fixed so every run rotates alike
_ROTATION_SEED = 2010


def rotate_blocks(problem):
    """Rotate PSD blocks into the eigenbasis of their data where that splits them.

    The numerical block diagonalization of Murota, Kanno, Kojima and
    Kojima (Japan J. Indust. Appl. Math. 27, 2010), which needs no group:
    the eigenvectors V of a random combination of a block's data, and
    the components ``_block_split`` screens.  A block is rotated only
    when ``_rotated_block`` finds every entry of V'A_kV and V'CV outside
    those components at most _ROTATION_TOL times the block's largest
    entry; they are set to exactly 0, and the other blocks keep their
    columns as they are.  ``split_by_pattern`` on the result then finds the
    components, drops those without data and orders them.

    The data of a rotated block is that of the original one in the basis
    V, so x lifts as V X_r V' on each rotated block, a linear operator,
    and y is unchanged.  Returns the ``Reduction`` or None when no block
    is rotated.
    """
    cone, m = problem.cone, problem.m
    rng = np.random.default_rng(_ROTATION_SEED)
    c = problem.c.copy()
    pieces, rotations, start = [], [], 0
    for first, s in zip(cone.psd_starts, cone.s):
        # every block takes its draw, skipped or not, so the weights of
        # block k depend on k and m only
        r = rng.standard_normal((2, m + 1))
        cols = slice(first, first + s * s)
        blk, C = problem.A[:, cols], c[cols].reshape(s, s)
        split = _block_split(blk, C, r)
        rotated = None if split is None else _rotated_block(blk, C, *split)
        if rotated is None:
            continue
        pieces += [problem.A[:, start:first], rotated[0]]
        c[cols] = rotated[1]
        rotations.append((cols, split[0]))
        start = first + s * s
    if not rotations:
        return None
    pieces.append(problem.A[:, start:])
    reduced = ConicProblem(
        A=scipy.sparse.hstack(pieces, format="csc"), b=problem.b, c=c, cone=cone,
        sense=problem.sense, offset=problem.offset,
    )

    def rotate(x):
        out = np.array(x, dtype=float).reshape(-1)
        for cols, V in rotations:
            X = V @ out[cols].reshape(V.shape) @ V.T
            out[cols] = (0.5 * (X + X.T)).reshape(-1)
        return out

    X = scipy.sparse.linalg.LinearOperator((problem.n, problem.n), matvec=rotate, dtype=float)
    return Reduction(
        problem=reduced, y0=np.zeros(m), N=scipy.sparse.identity(m, format="csr"), X=X,
    )


def _block_split(blk, C, r):
    """Screen one block for a split that pays: (V, label) or None.

    ``blk`` holds the block's (m, s*s) columns of A and C its s x s part
    of c; the rows of r weight two combinations, G = sum_k r_k A_k +
    r_0 C and H alike.  V holds the eigenvectors of G and label the
    component of each in the pattern of V'HV (its entries above
    _ROTATION_TOL times the largest), -1 for a lone direction without
    data.  None when there is one component, or when the dense Schur
    estimate of the block less those of its components with data is not
    more than _BLOCK_COST for each block the split adds.
    """
    m, s = blk.shape[0], C.shape[0]
    G, H = ((blk.T @ w[1:]).reshape(s, s) + w[0] * C for w in r)
    w, V = np.linalg.eigh(G + G.T)
    W = np.abs(V.T @ (H + H.T) @ V)
    live = W > _ROTATION_TOL * W.max(initial=0.0)
    touched = live.any(axis=1)
    # the eigenvectors of a repeated eigenvalue are any basis of its
    # eigenspace, so each eigenspace stays in one component
    tie = np.flatnonzero(np.diff(w) <= _ROTATION_TOL * np.abs(w).max(initial=0.0))
    live[tie, tie + 1] = True
    n, label = scipy.sparse.csgraph.connected_components(
        scipy.sparse.csr_matrix(live), directed=False
    )
    sizes = np.bincount(label)
    data = np.bincount(label, weights=touched, minlength=n) > 0
    if n == 1 or not data.any():
        return None
    saving = _dense_schur_cost(m, s) - _dense_schur_cost(m, sizes[data]).sum()
    if saving <= _BLOCK_COST * (np.count_nonzero(data) - 1):
        return None
    return V, np.where(data[label], label, -1)


def _rotated_block(blk, C, V, label):
    """One block's data in the basis V: (its (m, s*s) CSC columns, its
    entries of c), or None when an entry outside the components of
    ``label`` exceeds _ROTATION_TOL times the largest entry of blk and C.

    Read as an (m*s, s) matrix, the CSR rows of the block give every
    A_k V in one sparse product, and one stacked GEMM every V'A_kV.
    The entries inside the components go into the CSC columns directly.
    """
    m, s = blk.shape[0], V.shape[0]
    entries = blk.tocoo()
    i, j = np.divmod(entries.col, s)
    rows = scipy.sparse.csr_matrix((entries.data, (entries.row * s + i, j)), shape=(m * s, s))
    T = (V.T @ (rows @ V).reshape(m, s, s)).reshape(m, s * s)
    Cr = (V.T @ C @ V).reshape(-1)
    inside = ((label[:, None] == label) & (label[:, None] >= 0)).reshape(-1)
    # the largest magnitude of each rotated entry over the rows and c
    size = np.maximum(np.abs(T).max(axis=0), np.abs(Cr))
    scale = max(float(np.abs(blk.data).max(initial=0.0)), float(np.abs(C).max()))
    if size[~inside].max(initial=0.0) > _ROTATION_TOL * scale:
        return None
    Cr[~inside] = 0.0
    cols = np.flatnonzero(inside)
    # row e of D is block column cols[e]; its nonzeros in row-major
    # order are the CSC entries in column order
    D = T[:, cols].T
    e, row = np.nonzero(D)
    count = np.zeros(s * s, dtype=np.int64)
    count[cols] = np.count_nonzero(D, axis=1)
    indptr = np.concatenate(([0], np.cumsum(count)))
    return scipy.sparse.csc_matrix((D[e, row], row, indptr), shape=(m, s * s)), Cr


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

    The problem has no free columns (``solve_conic`` runs presolve
    first), so a certificate is a vector lam >= 0 over the candidate
    columns with [A; c'] lam = 0.  Before the LP that looks for one,
    ``_certificate_candidates`` screens the signs of [A; c']; when no
    candidate survives, no certificate exists and no LP runs.  That is
    the case whenever c itself is > 0 on every candidate, i.e. y = 0 is
    a dual point with every candidate slack positive, as in the
    re-centering face problem, which ``certify._recenter`` centers at
    the interior point it refines.

    Reduced columns run pins, kept orthant, kept block entries; X maps
    each to its original column, an off-diagonal pin (d, i) to both
    (d, i) and (i, d), so A_r = A X and c_r = X'c.
    """
    cone = problem.cone
    if cone.f:
        raise ConicError("zero-diagonal reduction needs a problem without free columns")
    if not cone.s:
        return None
    A = problem.A
    cols = np.concatenate([np.arange(cone.l)] + [cone.diagonal(j) for j in range(len(cone.s))])
    A_eq = scipy.sparse.vstack(
        [A[:, cols], scipy.sparse.csr_matrix(problem.c[cols])], format="csc"
    )
    if not _certificate_candidates(A_eq).any():
        return None
    from scipy.optimize import linprog

    res = linprog(
        c=-np.ones(cols.size),
        A_eq=A_eq,
        b_eq=np.zeros(problem.m + 1),
        bounds=(0.0, 1.0),
        method="highs",
    )
    if not res.success or res.x is None:
        return None
    lam = np.where(res.x > 1e-6, res.x, 0.0)
    if not lam.any():
        return None
    # re-check the truncated certificate before trusting it
    if np.abs(A_eq @ lam).max() > 1e-7 * (1.0 + float(lam.sum())):
        return None
    forced = lam > 0

    # an orthant pin is its own mirror; a block pin (d, i) covers row d
    # of a forced diagonal, with i <= d where i is forced too
    pins = [np.flatnonzero(forced[:cone.l])]
    mirrors = list(pins)
    kept = [np.flatnonzero(~forced[:cone.l])]
    sizes = []
    blocks = np.split(forced[cone.l:], np.cumsum(cone.s)[:-1])
    for k, D in enumerate(blocks):
        d, i = np.nonzero(D[:, None] & (~D | np.tri(D.size, dtype=bool)))
        pins.append(cone.column(k, d, i))
        mirrors.append(cone.column(k, i, d))
        K = np.flatnonzero(~D)
        if K.size:
            sizes.append(K.size)
            kept.append(cone.block_columns(k, K))
    col = np.concatenate([*pins, *kept])
    mirror = np.concatenate([*mirrors, *kept])
    # 1 at each column's entry and its mirror, 2 summed where they coincide
    X = (_selection(problem.n, col) + _selection(problem.n, mirror)).sign()
    reduced = ConicProblem(
        A=A @ X,
        b=problem.b.copy(),
        c=X.T @ problem.c,
        cone=ConeSpec(f=sum(p.size for p in pins), l=kept[0].size, s=tuple(sizes)),
        sense=problem.sense,
        offset=problem.offset,
    )
    return Reduction(
        problem=reduced, y0=np.zeros(problem.m),
        N=scipy.sparse.identity(problem.m, format="csr"), X=X,
    )


def _certificate_candidates(B):
    """Columns of B that some lam >= 0 with B lam = 0 may use.

    A row of B whose entries on the remaining columns are all of one
    strict sign (zeros aside) forces lam to 0 on each column it touches;
    dropping those columns can leave further rows of one sign, so this
    repeats until no row is.  Only the signs of the stored entries count,
    with no tolerance.  Returns the mask of the columns left: every
    certificate is 0 off it.
    """
    B = scipy.sparse.csr_matrix(B)
    positive = (B > 0).astype(float)
    negative = (B < 0).astype(float)
    touches = (positive + negative).T
    alive = np.ones(B.shape[1], dtype=bool)
    while alive.any():
        one_sign = (positive @ alive > 0) != (negative @ alive > 0)
        gone = alive & (touches @ one_sign > 0)
        if not gone.any():
            break
        alive &= ~gone
    return alive


def _drop_forced_entries(problem):
    """Drop the cone entries that are 0 at every feasible x.

    The primal twin of ``_reduce_zero_diagonals``, and the
    diagonal-inconsistency reduction of sum-of-squares programs
    (Löfberg, IEEE Trans. Autom. Control 54, 2009).  A row k of A x = b
    with b_k = 0 whose live entries all sit on orthant columns or PSD
    diagonals, all of one strict sign, sums entries that are >= 0 on
    the cone to 0, so each of them is 0 at every feasible x; a forced
    diagonal forces its whole block row and column.  An entry is live
    until it is forced, and the rule repeats in rounds to a fixpoint.
    Only the signs of the stored entries count, with no tolerance, as in
    ``_certificate_candidates``.

    The forced orthant columns and block rows and columns go, and so do
    the rows of A left empty.  A row left empty with b_k != 0 proves
    that no x exists: the Reduction then has status 'infeasible' and
    ``residual`` the largest such |b_k|.  Where an orthant entry or PSD
    diagonal that no row touches has c_j < 0 as well, that entry is a
    primal improving ray and no y is dual feasible, which ``solve`` and
    the other exits of ``solve_conic`` report as 'unbounded'; the status
    is then 'unbounded' and ``residual`` the most negative such c_j.

    The reduced problem does not fix the moments of the rows it drops,
    so y0 is NaN there.  The rows that forced entries give the
    ``recession`` direction d: moving y_k against the sign of row k
    raises the dual slack on the entries it forced.  Each round is
    scaled, the last first, so that -A'd >= 1 on every entry it forced
    whatever the later rounds put there; they touch those entries only
    once they are forced.

    The problem has no free columns (``solve_conic`` runs presolve
    first).  Returns None when nothing is forced and no row is empty.
    """
    cone = problem.cone
    if cone.f:
        raise ConicError("forced-entry reduction needs a problem without free columns")
    m, n = problem.m, problem.n
    coo = problem.A.tocoo()
    stored = coo.data != 0
    row, col, val = coo.row[stored], coo.col[stored], coo.data[stored]
    # entries() gives i = j on the orthant, so i == j marks the entries
    # that are >= 0 on the cone; bi, bj number the rows of all blocks
    # in one range
    k, i, j = cone.entries(np.arange(n))
    psd = k >= 0
    first = np.cumsum((0,) + cone.s)[:-1].astype(np.int64)
    bi, bj = first[k[psd]] + i[psd], first[k[psd]] + j[psd]
    nonneg = (i == j)[col]
    positive = val > 0
    candidate = problem.b == 0
    alive = np.ones(n, dtype=bool)
    dead = np.zeros(sum(cone.s), dtype=bool)
    rounds = []
    while True:
        live = alive[col]
        on = live & nonneg
        pos = np.bincount(row[on & positive], minlength=m) > 0
        neg = np.bincount(row[on & ~positive], minlength=m) > 0
        other = np.bincount(row[live & ~nonneg], minlength=m) > 0
        forcing = candidate & ~other & (pos != neg)
        if not forcing.any():
            break
        forced = np.unique(col[on & forcing[row]])
        rounds.append((np.flatnonzero(forcing), forced))
        alive[forced] = False
        diagonal = forced[k[forced] >= 0]
        dead[first[k[diagonal]] + i[diagonal]] = True
        alive[psd] &= ~(dead[bi] | dead[bj])
    kept = np.bincount(row[alive[col]], minlength=m) > 0
    if not rounds and kept.all():
        return None
    empty = ~kept & (problem.b != 0)
    if empty.any():
        ray = (i == j) & (np.bincount(col, minlength=n) == 0) & (problem.c < 0)
        status, residual = (
            ("unbounded", float(problem.c[ray].min())) if ray.any()
            else ("infeasible", float(np.abs(problem.b[empty]).max()))
        )
        return Reduction(
            problem=None, y0=None, N=None, X=None, status=status, residual=residual,
        )

    cols, sizes = [np.flatnonzero(alive[: cone.l])], []
    for block, s in enumerate(cone.s):
        R = np.flatnonzero(~dead[first[block] : first[block] + s])
        if R.size:
            cols.append(cone.block_columns(block, R))
            sizes.append(R.size)
    cols, rows = np.concatenate(cols), np.flatnonzero(kept)
    reduced = ConicProblem(
        A=problem.A[:, cols][rows],
        b=problem.b[rows],
        c=problem.c[cols],
        cone=ConeSpec(l=cols.size - sum(s * s for s in sizes), s=tuple(sizes)),
        sense=problem.sense,
        offset=problem.offset,
    )
    d = np.zeros(m)
    rise = np.zeros(n)  # -A'd, the rise of the dual slack along d
    for forcing, forced in reversed(rounds):
        part = problem.A[forcing][:, forced]
        sign = np.sign(np.asarray(part.sum(axis=1)).ravel())
        weight = np.asarray(abs(part).sum(axis=0)).ravel()
        d[forcing] = -sign * max(1.0, float(np.max((1.0 - rise[forced]) / weight)))
        rise = -(problem.A.T @ d)
    return Reduction(
        problem=reduced, y0=np.where(kept, 0.0, np.nan), N=_selection(m, rows),
        X=_selection(n, cols), recession=d,
    )


# ---------------------------------------------------------------------------
# interior-point solver


# Cost model for choosing a PSD block's storage, in units of one flop of
# a large dense BLAS call.  Each nonempty row of a sparse block pays a
# fixed overhead for its gathers and calls, its two small matmuls at one
# unit per flop, and a sparse product with the cache-hot G_k that runs at
# a far lower flop rate.  The constants were fitted to timings of both
# Schur formations on the blocks of the paper's models (m = 27..465,
# s = 4..130) and on random sparse blocks (m = 50..1000, s = 20..100),
# 1 BLAS thread on a 2-core x86-64 VM.  The fit underestimated the sparse/dense time ratio
# by up to 1.5x, so a block goes sparse only where the estimate saves
# more than that; near break-even the dense path is kept.
_SPARSE_ROW_COST = 4.5e5
_ACCUMULATE_FLOP_COST = 20.0
_SPARSE_MARGIN = 1.5
# Fixed cost of one PSD block per iteration, in the unit of
# ``_dense_schur_cost``.  Measured on random strictly feasible problems
# with m = 21, 1 BLAS thread on a 2-core x86-64 VM, as the slope of
# solve's time per iteration over 1 to 64 blocks of order 2 over its
# slope over the dense estimate of one block of order 30 to 120.  Before
# the stacks that gave 2.4e6 to 2.8e6 (0.25-0.27 ms per block, 1.0e-10 s
# per flop).  With every per-block call made once per stack, three runs
# give 1.6e5 to 2.0e5 (0.009-0.013 ms per block, 5.8e-11 to 6.5e-11 s
# per flop); blocks of one order share a stack there, while the blocks
# a rotation splits off mostly form stacks of their own.
_BLOCK_COST = 2.5e6
# refuse problems whose solver data would exceed this many floats
_MAX_ENTRIES = 2.5e8


class _DenseStack:
    """Every dense PSD block of one order s, as one (g, s*s, m) tensor.

    ``A[b, i*s + j, k]`` is entry (i, j) of row k of the stack's block b,
    and ``index[b]`` is that block's number in the cone, so equal-order
    blocks share a stack wherever they sit in the cone.  ``flat`` views
    the data as one (g*s*s, m) matrix, for the products with X and y.
    ``csc`` holds the same rows as a CSC (m, g*s*s) matrix where adding
    the Schur share is estimated cheaper through them
    (``_accumulates_sparse``), and None otherwise; where it is there,
    the products with X and y go through it and its transpose ``csc_t``
    (a CSR view of the same arrays), and ``block_csc`` holds each
    block's columns of it.
    """

    def __init__(self, index, s, A, csc):
        self.index = index
        self.g = len(index)
        self.s = s
        self.A = A
        self.flat = A.reshape(self.g * s * s, A.shape[-1])
        self.csc = csc
        self.csc_t = None if csc is None else csc.T
        self.block_csc = None if csc is None else [
            csc[:, b * s * s : (b + 1) * s * s] for b in range(self.g)
        ]
        self.sq_norms = np.einsum("bem,bem->bm", A, A)

    def apply(self, X):
        x = X.reshape(-1)
        return x @ self.flat if self.csc is None else self.csc @ x

    def adjoint(self, y):
        Aty = self.flat @ y if self.csc is None else self.csc_t @ y
        return Aty.reshape(self.g, self.s, self.s)

    def add_schur(self, M, Zinv, X):
        # block by block: T_k = Z^-1 A_k X for every row k, laid out as
        # (entries, m) like the data (Z^-1 times the block's (s, s*m)
        # rows, then X' times each of the s (s, m) slices of that
        # product), and A_flat T_flat' through the block's CSC columns or
        # its dense data
        s, m = self.s, M.shape[0]
        for b, (A, Zi, Xb) in enumerate(zip(self.A, Zinv, X)):
            Y = Zi @ A.reshape(s, s * m)
            T = np.matmul(Xb.T, Y.reshape(s, s, m)).reshape(s * s, m)
            M += (A.T if self.csc is None else self.block_csc[b]) @ T


class _SparseBlock:
    """A PSD block's rows as CSR over its s*s entries: a stack of one.

    Row k touches the rows and columns R_k of its s x s matrix A_k (the
    same set, A_k being symmetric), so Z^-1 A_k X = Z^-1[:, R_k]
    A_k[R_k, R_k] X[R_k, :] costs O(s^2 |R_k|) instead of O(s^3): the
    Schur formula of Fujisawa, Kojima and Nakata (1997) used by SDPA.
    """

    def __init__(self, sym, s, index):
        self.index = index
        self.g = 1
        self.s = s
        self.A = sym
        self.sq_norms = np.asarray(sym.multiply(sym).sum(axis=1)).reshape(1, -1)
        # one pass over the CSR: the matrix rows each CSR row touches, as
        # an (m, s) mask, give every R_k at once, and an entry's place in
        # D_k is the rank of its matrix row and column among them
        m = sym.shape[0]
        row = np.repeat(np.arange(m), np.diff(sym.indptr))
        i, j = np.divmod(sym.indices, s)
        touched = np.zeros((m, s), dtype=bool)
        touched[row, i] = True
        rank = np.cumsum(touched, axis=1) - 1
        r = touched.sum(axis=1)
        start = np.concatenate(([0], np.cumsum(r)))
        offset = np.concatenate(([0], np.cumsum(r * r)))
        R = np.nonzero(touched)[1].astype(sym.indices.dtype)
        flat = np.zeros(offset[-1])
        flat[offset[row] + rank[row, i] * r[row] + rank[row, j]] = sym.data
        self.rows = [
            (k, R[start[k] : start[k + 1]], flat[offset[k] : offset[k + 1]].reshape(r[k], r[k]))
            for k in np.flatnonzero(r).tolist()
        ]

    def apply(self, X):
        return self.A @ X.reshape(-1)

    def adjoint(self, y):
        return (self.A.T @ y).reshape(1, self.s, self.s)

    def add_schur(self, M, Zinv, X):
        (Zinv,), (X,) = Zinv, X
        for k, R, D in self.rows:
            G = (Zinv[:, R] @ D) @ X[R]
            M[:, k] += self.A @ G.reshape(-1)


def _dense_schur_cost(m, s):
    """Flops of a dense block's share of the Schur complement, per
    iteration: T_k = Z^-1 A_k X for every row and A_flat T_flat'."""
    return m * (4.0 * s**3 + 2.0 * m * s * s)


def _storage(m, s, nnz, r):
    """Choose one block's representation: (sparse?, floats it keeps).

    nnz counts the block's symmetrized entries and r holds r_k = |R_k|
    for every nonempty row k.  Compares the cost model's estimates of
    the two Schur formations.  A block whose dense tensor alone would
    exceed the size limit is kept sparse whatever the estimate.  A
    sparse block keeps its CSR entries and the gathered r x r matrix of
    each nonempty row.
    """
    dense = _dense_schur_cost(m, s)
    sparse = (
        r.size * _SPARSE_ROW_COST
        + float((2.0 * s * r * r + 2.0 * s * s * r).sum())
        + _ACCUMULATE_FLOP_COST * 2.0 * nnz * r.size
    )
    if _SPARSE_MARGIN * sparse < dense or m * s * s > _MAX_ENTRIES:
        return True, nnz + float((r * r).sum())
    return False, m * s * s


def _accumulates_sparse(m, s, g, nnz):
    """Whether a dense stack adds A_flat T_flat' to M through its sparse rows.

    Compares that product's 2 nnz m flops, at the sparse product's cost
    per flop, with the dense product's 2 m^2 s^2 g.
    """
    return _ACCUMULATE_FLOP_COST * 2.0 * nnz * m < 2.0 * m * m * s * s * g


def _symmetrized_psd(A, cone):
    """0.5 (A_k + A_k') over all PSD columns of the CSC matrix A at once.

    Returns a CSC matrix whose columns are the PSD columns of A, so the
    entries of each block are one contiguous range.  Each entry is the
    sum of the entry and its mirror times 0.5, and sums that are exactly
    0 are dropped.
    """
    start = cone.f + cone.l
    P = A[:, start:]
    swap = [
        off - start + np.arange(s * s).reshape(s, s).T.reshape(-1)
        for off, s in zip(cone.psd_starts, cone.s)
    ]
    return 0.5 * (P + P[:, np.concatenate(swap)]) if swap else P


class _Cones:
    """Per-cone views of the problem data for the solver, in stacks.

    The orthant columns are a dense (m, l) array.  All PSD columns of A
    are symmetrized in one pass (``_symmetrized_psd``), and ``_storage``
    estimates for each block whether its share of the Schur complement
    forms faster from CSR rows or from dense data.  A block it keeps
    sparse is a ``_SparseBlock``, a stack of one: the block's slice of
    those columns as CSR, so each row holds its entries in column order
    and sums them in an order that depends on that block alone.  The
    dense blocks of one order form one ``_DenseStack``, filled straight
    from those entries; it keeps its columns of them too where
    ``_accumulates_sparse`` estimates the Schur accumulation cheaper
    through them.  The stacks come in the cone order of their first
    blocks.

    Every per-cone quantity of the solver (X, Z, Z^-1, C, the dual
    residual, the Newton terms and the inverse Cholesky factors) is one
    (g, s, s) array per stack, in ``stacks`` order, factored, inverted
    and step-searched in one call per stack; ``vector`` maps such a list
    back to the cone's column order.  Problems whose M, orthant columns
    and block data would exceed _MAX_ENTRIES floats are refused before
    any block is allocated.
    """

    def __init__(self, problem):
        cone = problem.cone
        if cone.f:
            raise ConicError("free variables must be eliminated by presolve first")
        A = problem.A
        self.m = m = problem.m
        self.l = cone.l
        self.nblocks = len(cone.s)
        sym = _symmetrized_psd(A, cone)
        groups = {}  # ("sparse", block) or ("dense", order): its blocks' entries
        entries = m * m + m * cone.l  # M and the orthant columns
        for j, (off, s) in enumerate(zip(cone.psd_starts, cone.s)):
            # the block's entries: column col of the block, row k of A
            ptr = sym.indptr[off - cone.l : off - cone.l + s * s + 1]
            col = np.repeat(np.arange(s * s), np.diff(ptr))
            k = sym.indices[ptr[0] : ptr[-1]]
            touched = np.zeros((s, m), dtype=bool)
            touched[col // s, k] = True
            r = touched.sum(axis=0).astype(float)
            sparse, floats = _storage(m, s, col.size, r[r > 0])
            entries += floats
            key = ("sparse", j) if sparse else ("dense", s)
            groups.setdefault(key, []).append((j, col, k, sym.data[ptr[0] : ptr[-1]]))
        through_csc = set()  # orders of the dense stacks that keep CSC rows too
        for (kind, order), members in groups.items():
            nnz = sum(col.size for _, col, _, _ in members)
            if kind == "dense" and _accumulates_sparse(m, order, len(members), nnz):
                through_csc.add(order)
                entries += nnz
        if entries > _MAX_ENTRIES:
            raise ConicError("problem too large for the interior-point solver")
        self.A_l = A[:, : cone.l].toarray()
        self.c_l = problem.c[: cone.l]
        self.stacks, self.c_s = [], []
        for (kind, _), members in groups.items():
            index = tuple(j for j, *_ in members)
            s = cone.s[index[0]]
            starts = [cone.psd_starts[j] for j in index]
            if kind == "sparse":
                lo = starts[0] - cone.l
                self.stacks.append(_SparseBlock(sym[:, lo : lo + s * s].tocsr(), s, index))
            else:
                data = np.zeros((len(index), s * s, m))
                for D, (_, col, k, values) in zip(data, members):
                    D[col, k] = values
                csc = None
                if s in through_csc:
                    cols = np.concatenate([np.arange(s * s) + off - cone.l for off in starts])
                    csc = sym[:, cols]
                self.stacks.append(_DenseStack(index, s, data, csc))
            C = np.stack([problem.c[off : off + s * s].reshape(s, s) for off in starts])
            self.c_s.append(0.5 * (C + C.swapaxes(-1, -2)))
        self.nu = cone.barrier_degree
        self.c_norm = math.sqrt(
            float(self.c_l @ self.c_l) + sum(float((c * c).sum()) for c in self.c_s)
        )

    def apply_A(self, x_l, X_s):
        """A(x): contract the primal point against every row."""
        out = self.A_l @ x_l if self.l else np.zeros(self.m)
        for stack, X in zip(self.stacks, X_s):
            out = out + stack.apply(X)
        return out

    def apply_At(self, y):
        """A'(y) per cone."""
        out_l = self.A_l.T @ y if self.l else np.zeros(0)
        return out_l, [stack.adjoint(y) for stack in self.stacks]

    def schur_complement(self, x_l, z_l, Zinv_s, X_s):
        """M_jk = A_j' diag(x/z) A_k + sum over blocks of tr(A_j Z^-1 A_k X)."""
        M = np.zeros((self.m, self.m))
        if self.l:
            d = x_l / z_l
            M += (self.A_l * d) @ self.A_l.T
        for stack, Zinv, X in zip(self.stacks, Zinv_s, X_s):
            stack.add_schur(M, Zinv, X)
        return 0.5 * (M + M.T)

    def schur_apply(self, x_l, z_l, Zinv_s, X_s, v):
        """M v without M: A(diag(x/z) A'v) + A(Z^-1 A'(v) X) per stack,
        summed as the residuals are."""
        At_l, At_s = self.apply_At(v)
        w_l = (x_l / z_l) * At_l if self.l else At_l
        return self.newton_rhs(
            np.zeros(self.m), w_l, [Zinv @ S @ X for Zinv, S, X in zip(Zinv_s, At_s, X_s)]
        )

    def newton_rhs(self, b, w_l, W_s):
        """b + A(w), each PSD part W symmetrized first."""
        rhs = b.copy()
        if self.l:
            rhs += self.A_l @ w_l
        for stack, W in zip(self.stacks, W_s):
            rhs += stack.apply(0.5 * (W + W.swapaxes(-1, -2)))
        return rhs

    def inner(self, u_l, U_s, v_l, V_s):
        total = float(u_l @ v_l) if self.l else 0.0
        for U, V in zip(U_s, V_s):
            total += float((U * V).sum())
        return total

    def vector(self, u_l, U_s):
        """The cone vector of a point given per stack: u_l, then every
        block's s*s entries in cone order."""
        parts = [None] * self.nblocks
        for stack, U in zip(self.stacks, U_s):
            for j, B in zip(stack.index, U):
                parts[j] = B.reshape(-1)
        return np.concatenate([u_l] + parts)


def _alpha_orthant(x, dx):
    if x.size == 0:
        return np.inf
    mask = dx < 0
    if not mask.any():
        return np.inf
    return float(np.min(-x[mask] / dx[mask]))


def _inverse_factors(S):
    """L^-1 for the lower Cholesky factor L of every block of the stack S,
    and whether the factorization fell back to block by block.

    One batched factorization and one batched inverse.  Only a stack
    whose batched factorization raises is factored block by block, each
    failing block retried twice with a growing diagonal jitter, so its
    factor may be that of S_b + jitter I; a block that fails all three
    tries leaves the stack no factor (None), which allows no step.
    Non-finite S raises ValueError.
    """
    S = np.asarray_chkfinite(S)
    try:
        return np.linalg.inv(np.linalg.cholesky(S)), False
    except np.linalg.LinAlgError:
        pass
    L = np.empty_like(S)
    for B, out in zip(S, L):
        jitter = 0.0
        for _ in range(3):
            try:
                out[...] = np.linalg.cholesky(B + jitter * np.eye(B.shape[0]))
                break
            except np.linalg.LinAlgError:
                jitter = max(jitter * 100, 1e-14 * max(np.trace(B), 1.0))
        else:
            return None, True
    return np.linalg.inv(L), True


def _step_length(x_l, R_s, dx_l, dX_s):
    """Largest step along (dx_l, dX_s) from the point whose PSD part has
    the inverse factors R_s (``_inverse_factors``), one per stack.

    A stack allows -1 / min eig(L^-1 dX L^-T) over its blocks, from one
    batched product and one batched eigvalsh: inf if the direction never
    leaves the cone, 0 if the stack has no factor.
    """
    alpha = _alpha_orthant(x_l, dx_l)
    for R, dX in zip(R_s, dX_s):
        if R is None:
            return 0.0
        W = R @ dX @ R.swapaxes(-1, -2)
        lam = float(np.linalg.eigvalsh(0.5 * (W + W.swapaxes(-1, -2))).min(initial=0.0))
        if lam < 0:
            alpha = min(alpha, -1.0 / lam)
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
    for stack, C in zip(cones.stacks, cones.c_s):
        # per block of the stack, from its rows' norms and its C
        s = stack.s
        fnorms = np.sqrt(stack.sq_norms)
        floor = max(10.0, math.sqrt(s))
        xi = np.maximum(floor, s * np.max((1.0 + np.abs(b)) / (1.0 + fnorms), axis=1))
        eta = np.maximum(
            floor,
            (1.0 + np.maximum(np.max(fnorms, axis=1, initial=0.0),
                              np.sqrt((C * C).sum(axis=(1, 2)))))
            / math.sqrt(s),
        )
        X_s.append(xi[:, None, None] * np.eye(s))
        Z_s.append(eta[:, None, None] * np.eye(s))
    return x_l, X_s, z_l, Z_s


# iteration limit, the fraction of the distance to the cone boundary a
# step may take, and the relative floor of the Schur regularization
_MAX_ITER = 100
_STEP_FRACTION = 0.98
_REG_FLOOR = 1e-12
# a solve that stops short of eps returns its best iterate, not its last,
# which near the rounding limit may have drifted off again; it is
# 'inaccurate' if within _ACCEPT_FACTOR * eps and 'failed' otherwise
_ACCEPT_FACTOR = 1e3


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
        blocks=problem.cone.s,
    )


def solve(problem, params=None):
    """Solve a conic problem (orthant and PSD cones) to tolerance eps.

    HKM-scaled predictor-corrector path following: each iteration forms
    the Schur complement M_jk = tr(A_j Z^-1 A_k X) (plus the orthant
    diagonal term), factors it with escalating diagonal regularization
    if needed, and takes Mehrotra-corrected steps damped to
    _STEP_FRACTION of the distance to the cone boundary.  The predictor's
    solve with M is refined twice against M.  The corrector's, the
    direction the step takes, is refined once against M and then twice
    against the operator M stands for (``_Cones.schur_apply``), whose
    residual is the primal residual the step leaves: near the optimum M
    is singular to working precision, and the rounding of its formation
    would otherwise grow the primal residual from step to step.

    The iterates and every other per-cone quantity are one (g, s, s)
    array per stack of ``_Cones``: all dense blocks of one order, or one
    sparse block.  M is summed stack by stack.  A dense stack forms
    T_k = Z^-1 A_k X and adds A_flat T_flat' block by block, through the
    block's sparse columns where that is estimated cheaper; a sparse
    block gathers G_k = Z^-1[:, R_k] A_k[R_k, R_k] X[R_k, :] for
    each nonempty row k, R_k the rows A_k touches, and adds A G_k to
    column k of M.  The residuals and the Newton right-hand side use the
    same per-stack data, so a block is never densified when it is
    stored sparse.  x and z come back in the cone's block order.

    Each iteration factors X and Z once, in one batched Cholesky
    factorization and one batched inverse per stack
    (``_inverse_factors``).  Z^-1 is L_Z^-T L_Z^-1, and the step lengths
    of the predictor and of the corrector, primal and dual, are alpha =
    -1 / min eig(L^-1 dX L^-T), one batched product and eigvalsh per
    stack.  The corrector step is taken as computed, damped to those
    lengths, and logged at DEBUG level with its primal and dual lengths
    and sigma.

    The solve stops with 'solved' once max(pinf, dinf, gap) <= eps.  The
    iteration limit, vanishing step lengths and the failure exits (a
    singular dual slack, a Schur complement that no regularization
    factors, a non-finite predictor or corrector step) return the best
    iterate, as 'inaccurate' if it is within _ACCEPT_FACTOR * eps and
    as 'failed' otherwise, unless a validated ray certifies
    infeasibility or unboundedness.
    """
    params = params or SolverParams()
    cones = _Cones(problem)
    b = problem.b
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
        zmin = min([np.min(cones.c_l, initial=0.0)]
                   + [np.linalg.eigvalsh(C).min(initial=0.0) for C in cones.c_s])
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
    history = []
    best = None
    status = "failed"
    message = ""
    it = 0

    for it in range(1, _MAX_ITER + 1):
        rd_l, Rd_s, pinf, dinf, mu = _residuals(cones, b, x_l, X_s, y, z_l, Z_s)
        pobj = cones.inner(cones.c_l, cones.c_s, x_l, X_s)
        dobj = float(b @ y)
        gap = abs(pobj - dobj) / (1.0 + abs(pobj) + abs(dobj))
        history.append((pobj, dobj, pinf, dinf, gap))
        metric = max(pinf, dinf, gap)
        if best is None or metric < best[0]:
            best = (metric, x_l.copy(), [X.copy() for X in X_s],
                    y.copy(), z_l.copy(), [Z.copy() for Z in Z_s],
                    pobj, dobj, pinf, dinf, gap)
        _log.debug("it %3d  pobj %+.8e  dobj %+.8e  pinf %.2e  dinf %.2e  gap %.2e",
                   it, pobj, dobj, pinf, dinf, gap)
        if metric <= params.eps:
            status = "solved"
            break

        diverged = _divergence_status(cones, x_l, X_s, y, pobj, dobj)
        if diverged:
            status, message = diverged
            break

        # one inverse factor per stack of X and of Z serves all four step
        # searches and the HKM scaling Z^-1, which a stack whose batched
        # factorization fell back takes from inv(Z) instead
        RX_s = [_inverse_factors(X)[0] for X in X_s]
        RZ_s, Zinv_s = [], []
        try:
            for Z in Z_s:
                R, fell_back = _inverse_factors(Z)
                RZ_s.append(R)
                Zinv_s.append(np.linalg.inv(Z) if fell_back else R.swapaxes(-1, -2) @ R)
        except np.linalg.LinAlgError:
            status, message = "failed", "singular dual slack"
            break
        M = cones.schur_complement(x_l, z_l, Zinv_s, X_s)
        chol = _factor_with_regularization(M)
        if chol is None:
            status, message = "failed", "Schur complement factorization failed"
            break

        def schur_solve(rhs, taken):
            # refine against the unregularized matrix: near the boundary
            # the factor carries a regularization shift
            dy = dpotrs(chol, rhs, lower=1)[0]
            dy = dy + dpotrs(chol, rhs - M @ dy, lower=1)[0]
            if not taken:
                return dy + dpotrs(chol, rhs - M @ dy, lower=1)[0]
            # the direction the step takes is refined against the
            # operator M stands for: the primal residual the step leaves
            # is its residual, not M's
            for _ in range(2):
                resid = rhs - cones.schur_apply(x_l, z_l, Zinv_s, X_s, dy)
                dy = dy + dpotrs(chol, resid, lower=1)[0]
            return dy

        def solve_newton(sigma_mu, corr_l, corr_s, taken):
            # rhs = b - sigma*mu*A(Z^-1) + A(Z^-1 Rd X) + A(corr)
            rhs = cones.newton_rhs(
                b,
                -sigma_mu / z_l + (x_l / z_l) * rd_l + corr_l,
                [
                    -sigma_mu * Zinv + Zinv @ Rd @ X + corr
                    for Zinv, X, Rd, corr in zip(Zinv_s, X_s, Rd_s, corr_s)
                ],
            )
            dy = schur_solve(rhs, taken)
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
                dX_s.append(0.5 * (raw + raw.swapaxes(-1, -2)))
            return dx_l, dX_s, dy, dz_l, dZ_s

        zero_l = np.zeros(cones.l)
        zero_s = [np.zeros_like(X) for X in X_s]
        aff = solve_newton(0.0, zero_l, zero_s, taken=False)
        if not _steps_finite(aff):
            status, message = "failed", "non-finite predictor step"
            break
        ap = _step_length(x_l, RX_s, aff[0], aff[1])
        ad = _step_length(z_l, RZ_s, aff[3], aff[4])
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
        step = solve_newton(sigma * mu, corr_l, corr_s, taken=True)
        if not _steps_finite(step):
            status, message = "failed", "non-finite corrector step"
            break
        ap = min(1.0, _STEP_FRACTION * _step_length(x_l, RX_s, step[0], step[1]))
        ad = min(1.0, _STEP_FRACTION * _step_length(z_l, RZ_s, step[3], step[4]))
        if ap < 1e-8 and ad < 1e-8:
            status, message = "stalled", "step lengths below 1e-8"
            break
        _log.debug("it %3d  step primal %.3e  dual %.3e  sigma %.3e", it, ap, ad, sigma)
        x_l = x_l + ap * step[0]
        X_s = [X + ap * dX for X, dX in zip(X_s, step[1])]
        y = y + ad * step[2]
        z_l = z_l + ad * step[3]
        Z_s = [Z + ad * dZ for Z, dZ in zip(Z_s, step[4])]
    else:
        status, message = "maxiter", f"iteration limit ({_MAX_ITER}) reached"

    if status in ("maxiter", "stalled", "failed") and best is not None:
        # the last iterate carries any diverging ray; the best iterate is
        # the most accurate point.  A validated certificate wins.
        diverged = _divergence_status(cones, x_l, X_s, y, pobj, dobj, final=True)
        metric = best[0]
        if diverged is None:
            _, x_l, X_s, y, z_l, Z_s, pobj, dobj, pinf, dinf, gap = best
            diverged = _divergence_status(cones, x_l, X_s, y, pobj, dobj, final=True)
        if diverged:
            status, message = diverged
        elif metric <= _ACCEPT_FACTOR * params.eps:
            status = "inaccurate"
        elif status != "failed":
            status, message = "failed", f"no convergence: {message}"

    return ConicSolution(
        status=status, x=cones.vector(x_l, X_s), y=y, z=cones.vector(z_l, Z_s), pobj=pobj, dobj=dobj,
        pinf=pinf, dinf=dinf, gap=gap, iterations=it,
        history=history, message=message, blocks=problem.cone.s,
    )


def _steps_finite(step):
    dx_l, dX_s, dy, dz_l, dZ_s = step
    arrays = [dx_l, dy, dz_l] + list(dX_s) + list(dZ_s)
    return all(np.all(np.isfinite(a)) for a in arrays)


def _factor_with_regularization(M):
    """potrf's lower factor of M + reg I, reg escalating over four tries,
    or None; solves with it go through potrs."""
    reg = 0.0
    scale = max(float(np.trace(M)) / max(M.shape[0], 1), 1.0)
    for attempt in range(4):
        L, info = dpotrf(M + reg * np.eye(M.shape[0]), lower=1, clean=0)
        if info == 0:
            return L
        reg = max(_REG_FLOOR * scale, reg * 100.0)
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
        feas = max([np.max(At_l, initial=0.0)]
                   + [np.linalg.eigvalsh(AtS).max(initial=0.0) for AtS in At_s])
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

    Of the six reductions of the module docstring, the orbit reduction
    is applied by the caller, ``solve_gpm``, before this.  Here the
    others run once each, in the order listed: the pattern split,
    presolve of the free columns, the zero-diagonal facial reduction,
    the forced-entry reduction and, right before the interior-point
    ``solve``, the block rotation, which mixes the diagonals the
    forced-entry reduction reads.  So neither facial reduction sees a
    free column, and where they do not fire the solver gets the problem
    it would get without them.  A zero-diagonal reduction that fires
    hands its problem, whose pins are free columns, to the pattern split
    and presolve again; a forced-entry reduction or a rotation that
    fires hands its problem to the pattern split again, which splits the
    blocks it changed.  A forced-entry reduction that finds a row of A
    left empty with b_k != 0 ends the solve with no iteration, as
    'infeasible', or as 'unbounded' where a cone entry no row touches
    has c_j < 0.  ``lift`` maps the result back through each reduction,
    the last first.

    Returns a ConicSolution in the coordinates of ``problem``: y holds
    all original dual (moment) variables, x all original primal entries,
    z = c - A'y, and pobj/dobj are the objectives c'x and b'y of
    ``problem`` (history rows and ``blocks`` stay those of the solved
    problem); y is NaN on the moments the forced-entry reduction left
    undetermined, and ``recession`` frees them.
    """
    params = params or SolverParams()
    steps, current = [], problem

    def reduce(step):
        nonlocal current
        red = step(current)
        if red is not None and red.status == "ok":
            steps.append((current, red))
            current = red.problem
        return red

    def eliminate():
        red = reduce(presolve_eliminate_equalities) if current.cone.f else None
        if red is None or red.status != "infeasible":
            return None
        # no y solves A_f'y = c_f, so some free x_f has A_f x_f = 0 and
        # c_f'x_f < 0: a primal improving ray, which the IPM reports as
        # unbounded too.  The violated rows are dual constraints.
        return _lift_steps(steps, _without_iterations(
            current, "unbounded", "inconsistent equality rows", dinf=red.residual
        ))

    reduce(split_by_pattern)
    unbounded = eliminate()
    if unbounded is None and reduce(_reduce_zero_diagonals) is not None:
        # its pins are free columns
        reduce(split_by_pattern)
        unbounded = eliminate()
    if unbounded is not None:
        return unbounded
    forced = reduce(_drop_forced_entries)
    if forced is not None and forced.status != "ok":
        message = (
            f"entries forced to 0 leave a row of A empty with b_k = {forced.residual:.3g}"
            if forced.status == "infeasible" else
            f"a cone entry no row touches has c_j = {forced.residual:.3g} < 0"
        )
        return _lift_steps(steps, _without_iterations(current, forced.status, message))
    if forced is not None:
        reduce(split_by_pattern)
    if reduce(rotate_blocks) is not None:
        reduce(split_by_pattern)
    return _lift_steps(steps, solve(current, params))


def _lift_steps(steps, sol):
    """``sol`` lifted through (problem, reduction) steps, the last first."""
    for problem, red in reversed(steps):
        sol = lift(problem, red, sol)
    return sol
