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
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .model import (
    GPMProblem,
    MomentConstraint,
    mass,
)
from .polynomials import (
    Monomial,
    Polynomial,
    basis_size,
    monomial_basis,
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


def _mono_sort_key(mono):
    """Deterministic graded order on monomials of any variable set."""
    return (mono.degree, tuple((v.uid, p) for v, p in mono.exps))


class _Rewriter:
    """Applies rewrite rules to monomials with memoized normal forms.

    A rewrite producing a monomial above the degree cap abandons the
    chain for that monomial, which then stays a representative.  A
    shared step budget guards against nonterminating rule sets.
    """

    def __init__(self, rules, cap, budget):
        self.rules = sorted(rules, key=lambda r: _mono_sort_key(r[0]))
        self.cap = cap
        self.budget = budget
        self.memo = {}
        self._active = set()

    def reduce(self, mono):
        hit = self.memo.get(mono)
        if hit is not None:
            return hit
        if mono in self._active:
            raise AssemblyError("substitution not terminating")
        applicable = None
        for lhs, rhs in self.rules:
            if lhs.divides(mono):
                applicable = (lhs, rhs)
                break
        if applicable is None:
            result = Polynomial({mono: 1.0})
            self.memo[mono] = result
            return result
        self.budget[0] -= 1
        if self.budget[0] < 0:
            raise AssemblyError("substitution not terminating")
        lhs, rhs = applicable
        quotient = mono.divide(lhs)
        self._active.add(mono)
        try:
            acc = {}
            for term, coeff in rhs.terms.items():
                prod = term.mul(quotient)
                if prod.degree > self.cap:
                    raise _CapExceeded
                sub = self.reduce(prod)
                for tm, tc in sub.terms.items():
                    acc[tm] = acc.get(tm, 0.0) + coeff * tc
            result = Polynomial(acc)
        except _CapExceeded:
            result = Polynomial({mono: 1.0})
        finally:
            self._active.discard(mono)
        self.memo[mono] = result
        return result

    def reduce_poly(self, poly):
        acc = {}
        for mono, coeff in poly.terms.items():
            sub = self.reduce(mono)
            for tm, tc in sub.terms.items():
                acc[tm] = acc.get(tm, 0.0) + coeff * tc
        return Polynomial(acc)


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
        budget = [10 * basis_size(len(measure.vars), cap)]
        kept, demoted = _inter_reduce(table, cap, budget)
        n_subs -= len(demoted)
        for lhs_mono, rhs in demoted:
            residual.append((measure, Polynomial({lhs_mono: 1.0}) - rhs))
        for lhs_mono, rhs in kept.items():
            rules.append(SubstitutionRule(measure, lhs_mono, rhs))

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


def _inter_reduce(table, cap, budget):
    """Reduce each rule's right side by the other rules until stable.

    A rule whose reduced right side still contains a monomial divisible
    by its own left side cannot terminate and is demoted; a rule whose
    right side reduces to its left side is a tautology and is dropped.
    """
    table = dict(table)
    demoted = []
    for _ in range(50):
        changed = False
        for lhs in sorted(table, key=_mono_sort_key):
            rhs = table[lhs]
            others = [(l, r) for l, r in table.items() if l is not lhs]
            new_rhs = _Rewriter(others, cap, budget).reduce_poly(rhs)
            if not new_rhs.equals(rhs):
                table[lhs] = new_rhs
                changed = True
                rhs = new_rhs
            if rhs.equals(Polynomial({lhs: 1.0})):
                del table[lhs]
                changed = True
                continue
            if any(lhs.divides(m) for m in rhs.terms):
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
    """

    def __init__(self, measures, order, rules):
        self.order = order
        self.measures = list(measures)
        self.rewriters = {}
        self.raw = {}
        self.representatives = {}
        self.bound = {}
        self.var_of = {}
        self.var_meaning = []
        for measure in self.measures:
            mrules = [(r.lhs, r.rhs) for r in rules if r.measure is measure]
            budget = [10 * basis_size(len(measure.vars), 2 * order)]
            rw = _Rewriter(mrules, 2 * order, budget)
            self.rewriters[measure] = rw
            monos = monomial_basis(measure.vars, 2 * order)
            self.raw[measure] = monos
            reps = [m for m in monos if _is_fixpoint(rw.reduce(m), m)]
            self.representatives[measure] = reps

    def finalize_variables(self):
        """Number every unbound representative; call after bindings."""
        self.var_of = {}
        self.var_meaning = []
        for measure in self.measures:
            for mono in self.representatives[measure]:
                if (measure, mono) in self.bound:
                    continue
                self.var_of[(measure, mono)] = len(self.var_meaning)
                self.var_meaning.append((measure, mono))

    @property
    def n_vars(self):
        return len(self.var_meaning)

    def reduce(self, measure, mono):
        return self.rewriters[measure].reduce(mono)

    def form_of_monomial(self, measure, mono):
        """Affine form of the moment of a raw monomial."""
        const = 0.0
        coeffs = {}
        for rep, coeff in self.reduce(measure, mono).terms.items():
            key = (measure, rep)
            bound = self.bound.get(key)
            if bound is not None:
                const = _acc_form(const, coeffs, bound, coeff)
            else:
                idx = self.var_of[key]
                coeffs[idx] = coeffs.get(idx, 0.0) + coeff
        return LinForm(const, coeffs)

    def form_of_poly(self, measure, poly):
        """Affine form of the moment of a polynomial of one measure."""
        const = 0.0
        coeffs = {}
        for mono, coeff in poly.terms.items():
            const = _acc_form(const, coeffs, self.form_of_monomial(measure, mono), coeff)
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


def _is_fixpoint(poly, mono):
    terms = poly.terms
    return len(terms) == 1 and terms.get(mono) == 1.0


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
        basis = [m for m in index.representatives[measure] if m.degree <= order]
        entries = []
        for i in range(len(basis)):
            for j in range(i, len(basis)):
                entries.append(
                    (i, j, index.form_of_monomial(measure, basis[i].mul(basis[j])))
                )
        blocks.append(Block("moment", measure, basis, entries))

    lin_eq = []
    lin_ineq = []
    for con in plan.support_inequalities:
        g = con.gform()
        v = math.ceil(g.degree / 2)
        basis = [
            m for m in index.representatives[con.measure] if m.degree <= order - v
        ]
        if len(basis) <= 1:
            lin_ineq.append(index.form_of_poly(con.measure, g))
            continue
        entries = []
        for i in range(len(basis)):
            for j in range(i, len(basis)):
                prod = g * Polynomial({basis[i].mul(basis[j]): 1.0})
                entries.append((i, j, index.form_of_poly(con.measure, prod)))
        blocks.append(Block("localizing", con.measure, basis, entries, source=con))

    for measure, g in plan.residual_support_equalities:
        v = math.ceil(g.degree / 2)
        for gamma in monomial_basis(measure.vars, 2 * (order - v)):
            prod = g * Polynomial({gamma: 1.0})
            lin_eq.append(index.form_of_poly(measure, prod))

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
        total_monomials=sum(len(index.raw[m]) for m in problem.measures),
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
    provisional = index.var_meaning
    n_bound = 0
    for measure, mono, rhs, con in plan.binding_candidates:
        key = (measure, mono)
        if key in index.bound or not _is_fixpoint(index.reduce(measure, mono), mono):
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
                index.bound[other] = LinForm(const2, coeffs2)
        index.bound[key] = bound_form
        n_bound += 1

    index.finalize_variables()
    for key, form in index.bound.items():
        index.bound[key] = LinForm(
            form.const,
            {index.var_of[provisional[i]]: c for i, c in form.coeffs.items()},
        )
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
