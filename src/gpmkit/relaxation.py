"""Moment relaxations of generalized problems of moments.

The relaxation of order r replaces each measure by its moments of
degree up to 2r.  Monomials play the role of indices: the moment matrix
of a measure collects moments of pairwise products of basis monomials
of degree up to r, and each support inequality g >= 0 contributes a
localizing matrix over the basis of degree up to r - ceil(deg g / 2).

Support equalities whose left-hand side is a single monic monomial act
as rewrite rules on monomials, eliminating moment variables before the
SDP is formed.  Moment equalities whose left-hand side is the moment of
a single monic monomial bind that moment variable to an affine form.
Everything else becomes linear equality or inequality rows.

Inside the relaxation a monomial of a measure is an exponent tuple over
that measure's variable list: a product is an elementwise sum, and
divisibility an elementwise comparison.  ``Monomial`` and
``Polynomial`` objects appear only at the boundary: model data is
converted once on the way in, and the basis, moment numbering and
reductions handed out are converted back, one ``Monomial`` per tuple.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from operator import add, le, sub

import numpy as np
import scipy.sparse

from .model import (
    GPMProblem,
    MomentConstraint,
    mass,
)
from .polynomials import (
    ExponentMap,
    Monomial,
    Polynomial,
    basis_size,
    exponent_tuples,
)


class AssemblyError(ValueError):
    """Invalid or impossible relaxation assembly."""


class LinForm:
    """An affine form const + sum coeffs[i] * y_i over moment variables."""

    __slots__ = ("const", "coeffs")

    def __init__(self, const=0.0, coeffs=None):
        self.const = float(const)
        self.coeffs = {i: float(c) for i, c in (coeffs or {}).items() if c != 0.0}

    def value(self, y):
        return self.const + sum(c * y[i] for i, c in self.coeffs.items())

    def scaled(self, factor):
        return LinForm(self.const * factor, {i: c * factor for i, c in self.coeffs.items()})

    def __repr__(self):
        terms = [f"{c:+g}*y{i}" for i, c in sorted(self.coeffs.items())]
        return f"LinForm({self.const:+g} {' '.join(terms)})"


@dataclass
class LinearRows:
    """Affine forms const[k] + coeffs[k] @ y, one per row.

    ``coeffs`` is a CSR matrix with one column per moment variable and no
    stored zeros; ``const`` holds the constant parts.
    """

    coeffs: object
    const: np.ndarray

    def __len__(self):
        return self.const.shape[0]


def form_rows(forms, n_vars):
    """The LinForms of a list as LinearRows, coefficients in dict order."""
    counts = np.fromiter((len(f.coeffs) for f in forms), dtype=np.int64, count=len(forms))
    indptr = np.concatenate(([0], np.cumsum(counts)))
    nnz = int(indptr[-1])
    chain = itertools.chain.from_iterable
    indices = np.fromiter(chain(f.coeffs for f in forms), dtype=np.int64, count=nnz)
    data = np.fromiter(chain(f.coeffs.values() for f in forms), dtype=float, count=nnz)
    coeffs = scipy.sparse.csr_matrix((data, indices, indptr), shape=(len(forms), n_vars))
    const = np.fromiter((f.const for f in forms), dtype=float, count=len(forms))
    return LinearRows(coeffs, const)


def _acc_form(const, coeffs, other, factor=1.0):
    """Accumulate factor * other into the (const, coeffs) builder pair."""
    const += factor * other.const
    for i, c in other.coeffs.items():
        coeffs[i] = coeffs.get(i, 0.0) + factor * c
    return const


@dataclass(frozen=True)
class SubstitutionRule:
    """Rewrite rule lhs -> rhs on monomials of one measure."""

    measure: object
    lhs: Monomial
    rhs: Polynomial

    def __repr__(self):
        return f"{self.lhs!r} -> {self.rhs!r} (measure {self.measure.label})"


class _CapExceeded(Exception):
    pass


def _divides(lhs, t):
    return all(map(le, lhs, t))


class _Rewriter:
    """Applies rewrite rules to exponent tuples with memoized normal forms.

    Rules are (lhs tuple, rhs term map) pairs, tried in ``sort_key``
    order of their left sides; a normal form is a term map from
    representative tuples to coefficients.  A rewrite producing a
    monomial above the degree cap abandons the chain for that monomial,
    which then stays a representative.  A shared step budget guards
    against nonterminating rule sets.
    """

    def __init__(self, exponents, rules, cap, budget):
        self.rules = sorted(rules, key=lambda r: exponents.sort_key(r[0]))
        self.cap = cap
        self.budget = budget
        self.memo = {}
        self._active = set()

    def reduce(self, mono):
        """Normal form of a tuple; the returned map must not be mutated."""
        hit = self.memo.get(mono)
        if hit is not None:
            return hit
        if mono in self._active:
            raise AssemblyError("substitution not terminating")
        for lhs, rhs in self.rules:
            if _divides(lhs, mono):
                break
        else:
            result = {mono: 1.0}
            self.memo[mono] = result
            return result
        self.budget[0] -= 1
        if self.budget[0] < 0:
            raise AssemblyError("substitution not terminating")
        quotient = tuple(map(sub, mono, lhs))
        self._active.add(mono)
        try:
            acc = {}
            for term, coeff in rhs.items():
                prod = tuple(map(add, term, quotient))
                if sum(prod) > self.cap:
                    raise _CapExceeded
                for tm, tc in self.reduce(prod).items():
                    acc[tm] = acc.get(tm, 0.0) + coeff * tc
            result = {tm: tc for tm, tc in acc.items() if tc != 0.0}
        except _CapExceeded:
            result = {mono: 1.0}
        finally:
            self._active.discard(mono)
        self.memo[mono] = result
        return result

    def reduce_terms(self, terms):
        acc = {}
        for mono, coeff in terms.items():
            for tm, tc in self.reduce(mono).items():
                acc[tm] = acc.get(tm, 0.0) + coeff * tc
        return {tm: tc for tm, tc in acc.items() if tc != 0.0}


@dataclass
class SubstitutionPlan:
    """Outcome of scanning constraints for substitution opportunities."""

    rules: list
    residual_support_equalities: list
    support_inequalities: list
    binding_candidates: list
    kept_moment_constraints: list
    n_support_substitutions: int = 0


def default_order(problem):
    """Smallest admissible relaxation order: half the max data degree."""
    degree = problem.objective.expr.degree
    for con in problem.support_constraints:
        degree = max(degree, con.degree)
    for con in problem.moment_constraints:
        degree = max(degree, con.degree)
    return max(1, math.ceil(degree / 2))


def apply_default_mass(problem):
    """Fix the mass to one for a single-measure problem.

    Applied when the problem references exactly one measure and no
    moment constraint mentions it, so the measure is normalized to a
    probability measure.  Returns the augmented problem and the list of
    measure labels whose mass was fixed.
    """
    if len(problem.measures) != 1:
        return problem, []
    measure = problem.measures[0]
    for con in problem.moment_constraints:
        if measure in con.measures():
            return problem, []
    extra = MomentConstraint(mass(measure), "==", 1.0, is_default_mass=True)
    augmented = GPMProblem(
        problem.objective,
        problem.support_constraints + problem.moment_constraints + [extra],
    )
    return augmented, [measure.label]


def _monic_monomial_of(poly):
    """The monomial m when poly is exactly 1.0 * m, else None."""
    terms = poly.terms
    if len(terms) != 1:
        return None
    (mono, coeff), = terms.items()
    if coeff != 1.0:
        return None
    return mono


def extract_substitution_rules(problem, order):
    """Scan constraints and split them into rules, bindings and rows.

    Support equalities with a monic monomial left-hand side of positive
    degree become rewrite rules (inter-reduced against each other, with
    rules that cannot terminate demoted to residual equalities).  Moment
    equalities whose left-hand side is the moment of a single monic
    monomial become binding candidates.  The rest is kept as explicit
    constraint rows.
    """
    cap = 2 * order
    rules_by_measure = {}
    residual = []
    inequalities = []
    n_subs = 0
    for con in problem.support_constraints:
        if con.rel != "==":
            inequalities.append(con)
            continue
        lhs_mono = _monic_monomial_of(con.lhs)
        if lhs_mono is None or lhs_mono.degree == 0 or con.rhs.degree > cap:
            residual.append((con.measure, con.gform()))
            continue
        table = rules_by_measure.setdefault(con.measure, {})
        if lhs_mono in table:
            if table[lhs_mono].equals(con.rhs):
                n_subs += 1
                continue
            raise AssemblyError("inconsistent substitutions")
        table[lhs_mono] = con.rhs
        n_subs += 1

    rules = []
    for measure, table in rules_by_measure.items():
        exponents = ExponentMap(measure.vars)
        table = {exponents.of(lhs): exponents.terms(rhs) for lhs, rhs in table.items()}
        budget = [10 * basis_size(len(measure.vars), cap)]
        kept, demoted = _inter_reduce(exponents, table, cap, budget)
        n_subs -= len(demoted)
        for lhs, rhs in demoted:
            residual.append(
                (measure, exponents.polynomial({lhs: 1.0}) - exponents.polynomial(rhs))
            )
        for lhs, rhs in kept.items():
            rules.append(
                SubstitutionRule(measure, exponents.monomial(lhs), exponents.polynomial(rhs))
            )

    bindings = []
    kept_moment = []
    for con in problem.moment_constraints:
        if con.rel == "==" and con.lhs.constant == 0.0 and len(con.lhs.terms) == 1:
            (measure, poly), = con.lhs.terms.items()
            mono = _monic_monomial_of(poly)
            if mono is not None and mono.degree <= cap:
                bindings.append((measure, mono, con.rhs, con))
                continue
        kept_moment.append(con)
    return SubstitutionPlan(
        rules=rules,
        residual_support_equalities=residual,
        support_inequalities=inequalities,
        binding_candidates=bindings,
        kept_moment_constraints=kept_moment,
        n_support_substitutions=n_subs,
    )


def _inter_reduce(exponents, table, cap, budget):
    """Reduce each rule's right side by the other rules until stable.

    ``table`` maps left-side tuples to right-side term maps.  A rule
    whose reduced right side still contains a monomial divisible by its
    own left side cannot terminate and is demoted; a rule whose right
    side reduces to its left side is a tautology and is dropped.
    """
    table = dict(table)
    demoted = []
    for _ in range(50):
        changed = False
        for lhs in sorted(table, key=exponents.sort_key):
            rhs = table[lhs]
            others = [(l, r) for l, r in table.items() if l != lhs]
            new_rhs = _Rewriter(exponents, others, cap, budget).reduce_terms(rhs)
            if new_rhs != rhs:
                table[lhs] = new_rhs
                changed = True
                rhs = new_rhs
            if rhs == {lhs: 1.0}:
                del table[lhs]
                changed = True
                continue
            if any(_divides(lhs, m) for m in rhs):
                del table[lhs]
                demoted.append((lhs, rhs))
                changed = True
        if not changed:
            return table, demoted
    raise AssemblyError("substitution not terminating")


class MomentIndex:
    """Numbering of reduced moments of all measures of a problem.

    Raw monomials of degree up to 2r are reduced to combinations of
    representative monomials; representatives either carry a moment
    variable or are bound to an affine form of other variables.  The
    representatives are the tuples no rule's left side divides, found
    by one array test, plus those a degree-raising rule leaves fixed at
    the degree cap; other tuples are reduced only when a form needs
    them.

    ``raw_exponents``, ``representatives`` and the keys of ``bound`` and
    ``var_of`` are exponent tuples (``exponents[measure]`` converts).
    ``raw``, ``var_meaning`` and ``reduce`` hand out ``Monomial``
    objects, built on first use.  The affine form of each raw monomial
    is memoized until the numbering or a binding changes.
    """

    def __init__(self, measures, order, rules):
        self.order = order
        self.measures = list(measures)
        self.exponents = {}
        self.rewriters = {}
        self.raw_exponents = {}
        self.representatives = {}
        self.bound = {}
        self.var_of = {}
        self._forms = {}
        self._raw = None
        self._var_meaning = None
        for measure in self.measures:
            exponents = ExponentMap(measure.vars)
            mrules = [
                (exponents.of(r.lhs), exponents.terms(r.rhs))
                for r in rules
                if r.measure is measure
            ]
            budget = [10 * basis_size(len(measure.vars), 2 * order)]
            rw = _Rewriter(exponents, mrules, 2 * order, budget)
            self.exponents[measure] = exponents
            self.rewriters[measure] = rw
            tuples = exponent_tuples(len(exponents.vars), 2 * order)
            self.raw_exponents[measure] = tuples
            self.representatives[measure] = _representatives(rw, tuples)

    def finalize_variables(self):
        """Number every unbound representative; call after bindings."""
        self.var_of = {}
        self._forms = {}
        self._var_meaning = None
        for measure in self.measures:
            for t in self.representatives[measure]:
                if (measure, t) not in self.bound:
                    self.var_of[(measure, t)] = len(self.var_of)

    def set_bound(self, key, form):
        """Bind the representative key = (measure, tuple) to an affine form."""
        self.bound[key] = form
        self._forms = {}

    @property
    def n_vars(self):
        return len(self.var_of)

    @property
    def raw(self):
        """Monomials of degree up to 2r of each measure, in grlex order."""
        if self._raw is None:
            self._raw = {
                m: [self.exponents[m].monomial(t) for t in tuples]
                for m, tuples in self.raw_exponents.items()
            }
        return self._raw

    @property
    def var_meaning(self):
        """(measure, monomial) of each moment variable, by number."""
        if self._var_meaning is None:
            self._var_meaning = [
                (m, self.exponents[m].monomial(t)) for m, t in self.var_of
            ]
        return self._var_meaning

    def reduce(self, measure, mono):
        """Reduced form of a monomial, as a polynomial in representatives."""
        exponents = self.exponents[measure]
        return exponents.polynomial(self.rewriters[measure].reduce(exponents.of(mono)))

    def form_of_monomial(self, measure, mono):
        """Affine form of the moment of a raw monomial."""
        return self.form_of_exponents(measure, self.exponents[measure].of(mono))

    def form_of_exponents(self, measure, t):
        """Affine form of the moment of a raw monomial given as a tuple."""
        form = self._forms.get((measure, t))
        if form is not None:
            return form
        const = 0.0
        coeffs = {}
        for rep, coeff in self.rewriters[measure].reduce(t).items():
            key = (measure, rep)
            bound = self.bound.get(key)
            if bound is not None:
                const = _acc_form(const, coeffs, bound, coeff)
            else:
                idx = self.var_of[key]
                coeffs[idx] = coeffs.get(idx, 0.0) + coeff
        form = self._forms[(measure, t)] = LinForm(const, coeffs)
        return form

    def form_of_poly(self, measure, poly):
        """Affine form of the moment of a polynomial of one measure."""
        return self.form_of_terms(measure, self.exponents[measure].terms(poly))

    def form_of_terms(self, measure, terms):
        """Affine form of the moment of a term map keyed by tuples."""
        const = 0.0
        coeffs = {}
        for t, coeff in terms.items():
            const = _acc_form(const, coeffs, self.form_of_exponents(measure, t), coeff)
        return LinForm(const, coeffs)

    def form_of_expression(self, expr):
        const = expr.constant
        coeffs = {}
        for measure, poly in expr.terms_by_label():
            if measure not in self.rewriters:
                raise AssemblyError(
                    f"expression references measure {measure.label}, "
                    "which is not part of the relaxation"
                )
            const = _acc_form(const, coeffs, self.form_of_poly(measure, poly), 1.0)
        return LinForm(const, coeffs)


def _is_fixpoint(terms, t):
    return len(terms) == 1 and terms.get(t) == 1.0


def _representatives(rw, tuples):
    """The tuples that ``rw`` reduces to themselves, in order.

    A tuple no left side divides is its own normal form.  One that a
    rule divides rewrites to other tuples unless a rewrite leaves the
    degree cap, which takes a right side of higher degree than its left
    side; only for such rule sets is ``reduce`` called on it.
    """
    if not rw.rules:
        return list(tuples)
    exps = np.array(tuples, dtype=np.int64).reshape(len(tuples), -1)
    divisible = np.zeros(len(tuples), dtype=bool)
    for lhs, _ in rw.rules:
        divisible |= (exps >= np.array(lhs, dtype=np.int64)).all(axis=1)
    growing = any(sum(t) > sum(lhs) for lhs, rhs in rw.rules for t in rhs)
    return [
        t for t, d in zip(tuples, divisible.tolist())
        if not d or (growing and _is_fixpoint(rw.reduce(t), t))
    ]


@dataclass
class Block:
    """One semidefinite block: a moment or localizing matrix.

    ``forms`` holds one LinForm per distinct product of two basis
    elements.  ``rows`` and ``cols`` list the upper triangle (i <= j)
    row by row, and ``slot`` the index into ``forms`` of each of those
    entries: the matrix is symmetric with entries (rows[k], cols[k]) and
    (cols[k], rows[k]) equal to forms[slot[k]](y).
    """

    kind: str
    measure: object
    basis: list
    rows: np.ndarray
    cols: np.ndarray
    slot: np.ndarray
    forms: list
    source: object = None

    @property
    def size(self):
        return len(self.basis)

    def slot_matrix(self):
        """The s x s array of each entry's index into ``forms``."""
        out = np.empty((self.size, self.size), dtype=self.slot.dtype)
        out[self.rows, self.cols] = self.slot
        out[self.cols, self.rows] = self.slot
        return out


@dataclass
class AssemblyReport:
    """Bookkeeping counts of one assembly, for logs and tests."""

    order: int
    measure_labels: list
    measure_nvars: dict
    total_monomials: int
    n_decision_vars: int
    n_support_constraints: int
    n_support_substitutions: int
    n_moment_constraints: int
    n_moment_substitutions: int
    default_mass_labels: list
    n_lin_eq: int
    n_lin_ineq: int
    block_sizes: list


@dataclass
class MomentSDP:
    """An assembled moment relaxation.

    Decision variables are the reduced moments, numbered by the index.
    The SDP constrains every block to be positive semidefinite, every
    row of ``lin_eq`` to vanish and every row of ``lin_ineq`` to be
    nonnegative, and optimizes the objective form.  Both are LinearRows:
    one CSR matrix of coefficients and one vector of constants, without
    repeated rows or constant rows that hold trivially.
    """

    problem: GPMProblem
    order: int
    index: MomentIndex
    blocks: list
    lin_eq: LinearRows
    lin_ineq: LinearRows
    objective: LinForm
    sense: str
    report: AssemblyReport

    @property
    def n_vars(self):
        return self.index.n_vars


def assemble(problem, order=None):
    """Assemble the moment SDP of the given order (default: smallest)."""
    r_min = default_order(problem)
    if order is None:
        order = r_min
    order = int(order)
    if order < r_min:
        raise AssemblyError("constraint degree exceeds relaxation order")

    problem, default_mass_labels = apply_default_mass(problem)
    n_user_moment_cons = len(
        [c for c in problem.moment_constraints if not c.is_default_mass]
    )
    plan = extract_substitution_rules(problem, order)
    index = MomentIndex(problem.measures, order, plan.rules)

    n_bindings = _resolve_bindings(index, plan)

    blocks = []
    for measure in problem.measures:
        basis = [t for t in index.representatives[measure] if sum(t) <= order]
        blocks.append(
            _block("moment", index, measure, basis,
                   lambda p: index.form_of_exponents(measure, p))
        )

    ineq_forms = []
    for con in plan.support_inequalities:
        measure = con.measure
        g = con.gform()
        v = math.ceil(g.degree / 2)
        g = index.exponents[measure].terms(g)
        basis = [t for t in index.representatives[measure] if sum(t) <= order - v]
        if len(basis) <= 1:
            ineq_forms.append(index.form_of_terms(measure, g))
            continue
        blocks.append(
            _block("localizing", index, measure, basis,
                   lambda p: index.form_of_terms(measure, _shifted(g, p)), source=con)
        )

    eq_parts = []
    raw = {}
    for measure, g in plan.residual_support_equalities:
        if measure not in raw:
            raw[measure] = _RawMoments(index, measure)
        eq_parts.append(raw[measure].shifted_rows(index.exponents[measure].terms(g), g.degree))

    eq_forms = []
    for con in plan.kept_moment_constraints:
        form = index.form_of_expression(con.residual())
        if con.rel == "==":
            eq_forms.append(form)
        elif con.rel == ">=":
            ineq_forms.append(form)
        else:
            ineq_forms.append(form.scaled(-1.0))
    eq_parts.append(form_rows(eq_forms, index.n_vars))

    lin_eq = _dedup_rows(_stacked(eq_parts), keep_infeasible=True)
    lin_ineq = _dedup_rows(form_rows(ineq_forms, index.n_vars), keep_infeasible=False)

    objective = index.form_of_expression(problem.objective.expr)
    report = AssemblyReport(
        order=order,
        measure_labels=[m.label for m in problem.measures],
        measure_nvars={m.label: len(m.vars) for m in problem.measures},
        total_monomials=sum(len(index.raw_exponents[m]) for m in problem.measures),
        n_decision_vars=index.n_vars,
        n_support_constraints=len(problem.support_constraints),
        n_support_substitutions=plan.n_support_substitutions,
        n_moment_constraints=n_user_moment_cons,
        n_moment_substitutions=n_bindings,
        default_mass_labels=default_mass_labels,
        n_lin_eq=len(lin_eq),
        n_lin_ineq=len(lin_ineq),
        block_sizes=[b.size for b in blocks],
    )
    return MomentSDP(
        problem=problem,
        order=order,
        index=index,
        blocks=blocks,
        lin_eq=lin_eq,
        lin_ineq=lin_ineq,
        objective=objective,
        sense=problem.objective.direction,
        report=report,
    )


def _shifted(terms, t):
    """The term map times the monomial t (no two products coincide)."""
    return {tuple(map(add, mono, t)): coeff for mono, coeff in terms.items()}


def _exponent_array(tuples, nvars):
    return np.array(tuples, dtype=np.int64).reshape(len(tuples), nvars)


def _codes(exps, radix):
    """Integer code sum_k e_k radix^k of each row of an exponent array.

    A radix above every exponent makes the code one-to-one.  Codes are
    int64 while radix**nvars fits, and Python ints otherwise.
    """
    nvars = exps.shape[1]
    dtype = np.int64 if radix**nvars <= np.iinfo(np.int64).max else object
    powers = np.array([radix**k for k in range(nvars)], dtype=dtype)
    return exps.astype(dtype) @ powers


def _block_entries(basis, form_of):
    """Upper triangle of a block over basis tuples, as arrays.

    Returns rows and cols (i <= j, row by row), each entry's slot and
    the forms.  ``form_of`` maps the product tuple of two basis elements
    to the entry's affine form; it is called once per distinct product,
    and entries with the same product share one slot.  Products are
    compared by an integer code in a radix above twice the largest basis
    degree: no digit of a product carries, so the code of a product is
    the sum of the codes.
    """
    exps = _exponent_array(basis, len(basis[0]))
    codes = _codes(exps, 2 * int(exps.sum(axis=1).max()) + 1)
    rows, cols = np.triu_indices(len(basis))
    _, first, slot = np.unique(
        codes[rows] + codes[cols], return_index=True, return_inverse=True
    )
    products = exps[rows[first]] + exps[cols[first]]
    forms = [form_of(p) for p in map(tuple, products.tolist())]
    return rows, cols, slot, forms


def _block(kind, index, measure, basis, form_of, source=None):
    monomial = index.exponents[measure].monomial
    rows, cols, slot, forms = _block_entries(basis, form_of)
    return Block(kind, measure, [monomial(t) for t in basis], rows, cols, slot, forms, source)


class _RawMoments:
    """The moments of a measure's raw monomials as LinearRows.

    Rows follow the grlex list ``index.raw_exponents[measure]`` of the
    monomials of degree up to 2r.  A monomial's row is found from its
    integer code in radix 2r + 1.
    """

    def __init__(self, index, measure):
        self.order = index.order
        self.nvars = len(measure.vars)
        tuples = index.raw_exponents[measure]
        self.rows = form_rows(
            [index.form_of_exponents(measure, t) for t in tuples], index.n_vars
        )
        self.radix = 2 * index.order + 1
        self.codes = _codes(_exponent_array(tuples, self.nvars), self.radix)
        self._perm = np.argsort(self.codes, kind="stable")
        self._sorted = self.codes[self._perm]

    def shifted_rows(self, terms, degree):
        """Rows of the moments of g x^gamma for gamma up to degree 2(r - v).

        ``terms`` is g as a term map, ``degree`` its degree and
        v = ceil(degree / 2).  One sparse product S @ rows gives every
        row: row gamma of S holds g's coefficients at the rows of
        gamma + t, in g's term order, so each coefficient is summed in
        the order ``form_of_terms`` sums it.  Zeros left by cancellation
        are dropped, as LinForm drops them.
        """
        # the grlex list of degree <= 2r starts with the degree <= d part
        n_gamma = basis_size(self.nvars, 2 * (self.order - math.ceil(degree / 2)))
        n_terms = len(terms)
        shifted = (
            self.codes[:n_gamma, None]
            + _codes(_exponent_array(list(terms), self.nvars), self.radix)[None, :]
        )
        S = scipy.sparse.csr_matrix(
            (
                np.tile(np.fromiter(terms.values(), dtype=float, count=n_terms), n_gamma),
                self._perm[np.searchsorted(self._sorted, shifted.reshape(-1))],
                np.arange(0, n_gamma * n_terms + 1, n_terms),
            ),
            shape=(n_gamma, len(self.rows)),
        )
        coeffs = S @ self.rows.coeffs
        coeffs.eliminate_zeros()
        return LinearRows(coeffs, S @ self.rows.const)


def _resolve_bindings(index, plan):
    """Turn binding candidates into bound affine forms on the index.

    Provisional variables number every representative; each candidate
    binds one of them to an affine form of the others, solving for the
    target when it appears on both sides.  Candidates that cannot bind
    (already-bound or non-representative targets, vanishing pivot) fall
    back to explicit equality rows.  Bound forms are renumbered once
    the unbound variables get their final numbers.
    """
    index.finalize_variables()
    provisional = list(index.var_of)
    n_bound = 0
    for measure, mono, rhs, con in plan.binding_candidates:
        t = index.exponents[measure].of(mono)
        key = (measure, t)
        if key in index.bound or not _is_fixpoint(index.rewriters[measure].reduce(t), t):
            plan.kept_moment_constraints.append(con)
            continue
        lhs_form = index.form_of_expression(con.lhs)
        rhs_form = index.form_of_expression(rhs)
        tvar = index.var_of[key]
        pivot = lhs_form.coeffs.get(tvar, 0.0) - rhs_form.coeffs.get(tvar, 0.0)
        if pivot == 0.0:
            plan.kept_moment_constraints.append(con)
            continue
        const = (rhs_form.const - lhs_form.const) / pivot
        coeffs = {}
        for i, c in rhs_form.coeffs.items():
            if i != tvar:
                coeffs[i] = coeffs.get(i, 0.0) + c / pivot
        for i, c in lhs_form.coeffs.items():
            if i != tvar:
                coeffs[i] = coeffs.get(i, 0.0) - c / pivot
        bound_form = LinForm(const, coeffs)
        # keep earlier bindings resolved in terms of unbound variables
        for other, form in list(index.bound.items()):
            c = form.coeffs.get(tvar)
            if c is not None:
                coeffs2 = {i: v for i, v in form.coeffs.items() if i != tvar}
                const2 = _acc_form(form.const, coeffs2, bound_form, c)
                index.set_bound(other, LinForm(const2, coeffs2))
        index.set_bound(key, bound_form)
        n_bound += 1

    index.finalize_variables()
    for key, form in list(index.bound.items()):
        coeffs = {index.var_of[provisional[i]]: c for i, c in form.coeffs.items()}
        index.set_bound(key, LinForm(form.const, coeffs))
    return n_bound


def _stacked(parts):
    """One LinearRows of the rows of several, in order."""
    return LinearRows(
        scipy.sparse.vstack([p.coeffs for p in parts], format="csr"),
        np.concatenate([p.const for p in parts]),
    )


def _float_bits(values):
    # adding 0.0 turns -0.0 into 0.0, so equal floats get equal bits
    return (values + 0.0).view(np.int64)


def _dedup_rows(rows, keep_infeasible):
    """Drop repeated rows and constant rows that hold, in first-occurrence order.

    A constant row holds when its constant is zero (equalities) or
    nonnegative (inequalities); a constant row that fails is kept, so
    that the conic problem carries the contradiction.  A row repeats an
    earlier one when constants and coefficients compare equal.  Rows
    with the same number of coefficients are compared at once, as
    integer keys of their constant, column indices and coefficient bits.
    """
    coeffs = rows.coeffs.sorted_indices()
    const = rows.const
    length = np.diff(coeffs.indptr)
    holds = const == 0.0 if keep_infeasible else const >= 0.0
    live = (length > 0) | ~holds
    keep = np.zeros(len(const), dtype=bool)
    for k in np.unique(length[live]):
        sel = np.flatnonzero(live & (length == k))
        at = coeffs.indptr[sel, None] + np.arange(k)
        key = np.column_stack(
            (_float_bits(const[sel]), coeffs.indices[at], _float_bits(coeffs.data[at]))
        )
        _, first = np.unique(key, axis=0, return_index=True)
        keep[sel[first]] = True
    return LinearRows(coeffs[keep], const[keep])


@dataclass
class SignClasses:
    """Parity classes of a relaxation's moments under its sign flips.

    A sign flip negates some variables of one measure.  The flips that
    leave every monomial of the data unchanged form a group; a monomial
    of degree vector a has class bit t set when the t-th generator g_t
    flips it (g_t . a odd), and class 0 means it is invariant.  Each
    measure's bits sit above the previous measure's, so classes of
    different measures never collide.

    ``generators`` maps each measure label to its flips, each a tuple of
    the flipped variable names (empty when the group is trivial).
    ``moments`` holds the class of every moment variable, ``blocks``
    that of every row of every block, in ``msdp.blocks`` order.
    """

    generators: dict
    moments: np.ndarray
    blocks: list


# classes are int64 bitmasks; generators past this many bits are dropped,
# which leaves a subgroup, and every classification under it stays valid
_CLASS_BITS = 62


def sign_classes(msdp):
    """Sign-flip classes of the moments and block rows of a relaxation.

    A measure's group is the GF(2) null space of the exponent parities
    of every monomial on it in the objective, the support constraints
    and the moment constraints.  Both sides of each substitution rule
    are among them, since rules come from support equalities, and a
    rewrite by rules that no flip changes keeps the class of a monomial.
    Returns None when every measure's group is trivial.
    """
    problem = msdp.problem
    index = msdp.index
    parities = {measure: set() for measure in index.measures}

    def note(measure, terms):
        parities[measure].update(_parity(t) for t in terms)

    exprs = [problem.objective.expr]
    for con in problem.moment_constraints:
        exprs.extend((con.lhs, con.rhs))
    for expr in exprs:
        for measure, poly in expr.terms_by_label():
            note(measure, index.exponents[measure].terms(poly))
    for con in problem.support_constraints:
        for poly in (con.lhs, con.rhs):
            note(con.measure, index.exponents[con.measure].terms(poly))

    generators = {}
    flips = {}
    shift = 0
    for measure in index.measures:
        gens = _flip_generators(parities[measure], len(measure.vars))
        gens = gens[: max(_CLASS_BITS - shift, 0)]
        generators[measure.label] = [
            tuple(v.name for k, v in enumerate(measure.vars) if g >> k & 1) for g in gens
        ]
        flips[measure] = (gens, shift)
        shift += len(gens)
    if shift == 0:
        return None

    def class_of(measure, t):
        gens, offset = flips[measure]
        p = _parity(t)
        return sum((bin(g & p).count("1") & 1) << (offset + k) for k, g in enumerate(gens))

    moments = np.zeros(index.n_vars, dtype=np.int64)
    for (measure, t), k in index.var_of.items():
        moments[k] = class_of(measure, t)
    blocks = [
        np.array(
            [class_of(block.measure, index.exponents[block.measure].of(mono))
             for mono in block.basis],
            dtype=np.int64,
        )
        for block in msdp.blocks
    ]
    return SignClasses(generators, moments, blocks)


def _parity(t):
    """Bitmask of the odd exponents of an exponent tuple."""
    return sum((e & 1) << k for k, e in enumerate(t))


def _flip_generators(parities, nvars):
    """Basis of the flips g (bitmasks) with g . p even for every parity p.

    Row-reduces the parities over GF(2), keeping the rows reduced at
    every pivot, then sets one non-pivot variable per generator; the
    basis depends only on the set of parities.
    """
    rows = {}  # pivot bit -> row, no row holding another row's pivot
    for p in sorted(parities):
        for bit, row in rows.items():
            if p >> bit & 1:
                p ^= row
        if not p:
            continue
        pivot = p.bit_length() - 1
        for bit, row in rows.items():
            if row >> pivot & 1:
                rows[bit] = row ^ p
        rows[pivot] = p
    gens = []
    for k in range(nvars):
        if k in rows:
            continue
        g = 1 << k
        for bit, row in rows.items():
            if row >> k & 1:
                g |= 1 << bit
        gens.append(g)
    return gens


def format_block_sizes(sizes):
    """Human-readable block size list, e.g. '35x35+8x(20x20)'."""
    if not sizes:
        return "none"
    parts = []
    for size, group in itertools.groupby(sizes):
        count = len(list(group))
        text = f"{size}x{size}"
        parts.append(text if count == 1 else f"{count}x({text})")
    return "+".join(parts)


def mvec(msdp, measure, degree=None):
    """Monic monomials indexing the moment vector of a measure."""
    measure = _resolve_measure(msdp, measure)
    if degree is None:
        degree = 2 * msdp.order
    out = []
    for mono in msdp.index.raw[measure]:
        if mono.degree <= degree:
            out.append(Polynomial({mono: 1.0}))
    arr = np.empty(len(out), dtype=object)
    for k, p in enumerate(out):
        arr[k] = p
    return arr


def mvec_values(msdp, y, measure, degree=None):
    """Numeric moment vector of a measure at the solution y."""
    measure = _resolve_measure(msdp, measure)
    if degree is None:
        degree = 2 * msdp.order
    values = [
        msdp.index.form_of_monomial(measure, mono).value(y)
        for mono in msdp.index.raw[measure]
        if mono.degree <= degree
    ]
    return np.asarray(values, dtype=float)


def moment_block(msdp, measure):
    """The moment matrix block of a measure, given by object or label."""
    measure = _resolve_measure(msdp, measure)
    for block in msdp.blocks:
        if block.kind == "moment" and block.measure is measure:
            return block
    raise AssemblyError(f"no moment matrix for measure {measure.label}")


def mmat_values(msdp, y, measure):
    """Numeric moment matrix of a measure at the solution y."""
    block = moment_block(msdp, measure)
    values = np.array([form.value(y) for form in block.forms], dtype=float)
    return values[block.slot_matrix()]


def expression_value(msdp, y, expr):
    """Numeric value of a moment expression at the solution y."""
    return msdp.index.form_of_expression(expr).value(y)


def _resolve_measure(msdp, measure):
    if isinstance(measure, int):
        for m in msdp.index.measures:
            if m.label == measure:
                return m
        raise AssemblyError(f"no measure with label {measure}")
    return measure
