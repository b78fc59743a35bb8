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

    @property
    def is_constant(self):
        return not self.coeffs

    @property
    def is_zero(self):
        return not self.coeffs and self.const == 0.0

    def value(self, y):
        return self.const + sum(c * y[i] for i, c in self.coeffs.items())

    def scaled(self, factor):
        return LinForm(self.const * factor, {i: c * factor for i, c in self.coeffs.items()})

    def key(self):
        return (self.const, tuple(sorted(self.coeffs.items())))

    def __repr__(self):
        terms = [f"{c:+g}*y{i}" for i, c in sorted(self.coeffs.items())]
        return f"LinForm({self.const:+g} {' '.join(terms)})"


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
    variable or are bound to an affine form of other variables.

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
            self.representatives[measure] = [
                t for t in tuples if _is_fixpoint(rw.reduce(t), t)
            ]

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


@dataclass
class Block:
    """One semidefinite block: a moment or localizing matrix.

    ``entries`` lists (i, j, form) for the upper triangle (i <= j); the
    matrix is symmetric with entry (i, j) equal to form(y).
    """

    kind: str
    measure: object
    basis: list
    entries: list
    source: object = None

    @property
    def size(self):
        return len(self.basis)


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
    equality form to vanish and every inequality form to be nonnegative,
    and optimizes the objective form.
    """

    problem: GPMProblem
    order: int
    index: MomentIndex
    blocks: list
    lin_eq: list
    lin_ineq: list
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
        entries = _block_entries(basis, lambda p: index.form_of_exponents(measure, p))
        blocks.append(_block("moment", index, measure, basis, entries))

    lin_eq = []
    lin_ineq = []
    for con in plan.support_inequalities:
        measure = con.measure
        g = con.gform()
        v = math.ceil(g.degree / 2)
        g = index.exponents[measure].terms(g)
        basis = [t for t in index.representatives[measure] if sum(t) <= order - v]
        if len(basis) <= 1:
            lin_ineq.append(index.form_of_terms(measure, g))
            continue
        entries = _block_entries(
            basis, lambda p: index.form_of_terms(measure, _shifted(g, p))
        )
        blocks.append(_block("localizing", index, measure, basis, entries, source=con))

    for measure, g in plan.residual_support_equalities:
        v = math.ceil(g.degree / 2)
        g = index.exponents[measure].terms(g)
        # the grlex list of degree <= 2r starts with the degree <= d part
        n_gamma = basis_size(len(measure.vars), 2 * (order - v))
        for gamma in index.raw_exponents[measure][:n_gamma]:
            lin_eq.append(index.form_of_terms(measure, _shifted(g, gamma)))

    for con in plan.kept_moment_constraints:
        form = index.form_of_expression(con.residual())
        if con.rel == "==":
            lin_eq.append(form)
        elif con.rel == ">=":
            lin_ineq.append(form)
        else:
            lin_ineq.append(form.scaled(-1.0))

    lin_eq = _dedup_rows(lin_eq, keep_infeasible=True)
    lin_ineq = _dedup_rows(lin_ineq, keep_infeasible=False)

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


def _block_entries(basis, form_of):
    """Upper-triangle (i, j, form) entries of a block over basis tuples.

    ``form_of`` maps the product tuple of two basis elements to the
    entry's affine form; entries with the same product share one form.
    Products are looked up by an integer code of the tuple in a radix
    above twice the largest basis degree: no digit of a product carries,
    so the code of a product is the sum of the codes.
    """
    radix = 2 * max(map(sum, basis), default=0) + 1
    codes = [sum(e * radix**k for k, e in enumerate(t)) for t in basis]
    forms = {}
    entries = []
    for i, ci in enumerate(codes):
        for j in range(i, len(basis)):
            form = forms.get(ci + codes[j])
            if form is None:
                form = forms[ci + codes[j]] = form_of(tuple(map(add, basis[i], basis[j])))
            entries.append((i, j, form))
    return entries


def _block(kind, index, measure, basis, entries, source=None):
    monomial = index.exponents[measure].monomial
    return Block(kind, measure, [monomial(t) for t in basis], entries, source)


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


def _dedup_rows(rows, keep_infeasible):
    seen = set()
    out = []
    for row in rows:
        if row.is_constant:
            feasible = row.const == 0.0 if keep_infeasible else row.const >= 0.0
            if feasible:
                continue
        key = row.key()
        if key in seen:
            continue
        seen.add(key)
        out.append(row)
    return out


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
    out = np.zeros((block.size, block.size))
    for i, j, form in block.entries:
        out[i, j] = out[j, i] = form.value(y)
    return out


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
