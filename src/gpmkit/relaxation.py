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

Inside the relaxation a monomial of a measure is an exponent row over
that measure's variable list: a product is an elementwise sum, and
divisibility an elementwise comparison.  Whole arrays of rows are
handled at once.  ``MomentIndex.rows`` turns an array of exponent rows
into the affine forms of their moments, as LinearRows (CSR coefficients
and a constant vector), with the normal forms under the rewrite rules
computed wave by wave for the whole array; every block, row and moment
vector takes its forms from it.  ``Monomial`` and ``Polynomial``
objects appear only at the boundary: model data is converted once on
the way in, and the basis, moment numbering and reductions handed out
are converted back, one ``Monomial`` per tuple.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from operator import le

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
    exponent_array,
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


def _ranges(starts, lengths):
    """Concatenated aranges starts[k] .. starts[k] + lengths[k] - 1."""
    total = int(lengths.sum())
    offsets = np.repeat(np.cumsum(lengths) - lengths, lengths)
    return np.repeat(starts, lengths) + (np.arange(total) - offsets)


def _ordered_product(A, B):
    """A @ B for CSR matrices, summed the way term maps are accumulated.

    Entry (i, k) is summed from 0.0 in sequence over row i of A in
    stored order and, for each of its entries j, row j of B in stored
    order; row i lists its columns in order of first appearance and
    drops exact zeros.  This is how a term map or an affine form is
    accumulated one term at a time, so a product of rows kept in that
    order gives the same floats in the same order.
    """
    a_len = np.diff(A.indptr)
    b_len = np.diff(B.indptr)[A.indices]
    src = np.repeat(np.arange(A.nnz), b_len)
    pos = _ranges(B.indptr[A.indices], b_len)
    row = np.repeat(np.repeat(np.arange(A.shape[0]), a_len), b_len)
    col = B.indices[pos]
    # np.bincount adds its weights in input order, starting from 0.0
    _, first, group = np.unique(
        row * B.shape[1] + col, return_index=True, return_inverse=True
    )
    sums = np.bincount(group, weights=A.data[src] * B.data[pos], minlength=len(first))
    order = np.argsort(first)
    order = order[sums[order] != 0.0]
    counts = np.bincount(row[first[order]], minlength=A.shape[0])
    return scipy.sparse.csr_matrix(
        (sums[order], col[first[order]], np.concatenate(([0], np.cumsum(counts)))),
        shape=(A.shape[0], B.shape[1]),
    )


def _term_row(coeffs):
    """A 1 x n CSR row of the given coefficients, in order."""
    n = len(coeffs)
    return scipy.sparse.csr_matrix(
        (np.asarray(coeffs, dtype=float), np.arange(n), [0, n]), shape=(1, n)
    )


class _Rules:
    """The rewrite rules of one measure, as arrays.

    Rules are (lhs tuple, rhs term map) pairs, tried in ``sort_key``
    order of their left sides.  ``normal_forms`` rewrites a whole array
    of exponent rows wave by wave: each wave applies, to every tuple met
    for the first time, the first rule whose left side divides it.  A
    rewrite producing a monomial above the degree cap abandons the chain
    for that tuple, which then stays a representative.  The normal forms
    are then composed from the last wave back, one sparse product per
    wave, in the order a term-by-term recursion sums them.
    """

    def __init__(self, exponents, rules, cap):
        rules = sorted(rules, key=lambda r: exponents.sort_key(r[0]))
        nvars = len(exponents.vars)
        self.nvars = nvars
        self.cap = cap
        self.radix = cap + 1
        self.steps = 10 * basis_size(nvars, cap)
        self.lhs = _exponent_array([lhs for lhs, _ in rules], nvars)
        self.ptr = np.cumsum([0] + [len(rhs) for _, rhs in rules])
        self.terms = _exponent_array([t for _, rhs in rules for t in rhs], nvars)
        self.coeffs = np.array([c for _, rhs in rules for c in rhs.values()], dtype=float)
        lhs_degree = np.repeat(self.lhs.sum(axis=1), np.diff(self.ptr))
        self.growing = bool((self.terms.sum(axis=1) > lhs_degree).any())

    def check_degree(self, exps):
        """Reject exponent rows above the cap, which codes cannot tell apart."""
        if len(exps) and exps.sum(axis=1).max() > self.cap:
            raise AssemblyError(f"moment of degree above {self.cap}, twice the relaxation order")

    def first_divisor(self, exps):
        """Index of the first rule whose left side divides each row, or -1."""
        if not len(self.lhs):
            return np.full(len(exps), -1)
        divides = (exps[:, None, :] >= self.lhs[None, :, :]).all(axis=2)
        return np.where(divides.any(axis=1), divides.argmax(axis=1), -1)

    def normal_forms(self, exps, budget=None):
        """Normal forms of the rows of exps, of degree at most the cap.

        Returns (nf, terminals): row i of the CSR matrix nf holds the
        normal form of row i of exps over the rows of ``terminals``, in
        the order in which a term-by-term recursion first meets them.
        ``budget`` is a one-element list of rewrite steps left, shared
        between calls (by default a fresh one); a step is one tuple that
        a rule divides.  A rule set that runs out of steps or rewrites a
        tuple back into itself raises AssemblyError.
        """
        if budget is None:
            budget = [self.steps]
        if not len(exps):
            return scipy.sparse.csr_matrix((0, 0)), exps
        self.check_degree(exps)
        codes = _codes(exps, self.radix)
        known, first, inverse = np.unique(codes, return_index=True, return_inverse=True)
        ids = np.arange(len(known))
        waves = [exps[first]]
        terminal, parents, children, coeffs = [], [], [], []
        start = 0
        while len(waves[-1]):
            wave = waves[-1]
            rule = self.first_divisor(wave)
            rewritten = rule >= 0
            budget[0] -= int(rewritten.sum())
            if budget[0] < 0:
                raise AssemblyError("substitution not terminating")
            rule = rule[rewritten]
            nterms = self.ptr[rule + 1] - self.ptr[rule]
            term = _ranges(self.ptr[rule], nterms)
            seg = np.repeat(np.arange(len(rule)), nterms)
            prods = self.terms[term] + (wave[rewritten] - self.lhs[rule])[seg]
            # a tuple whose rewrite leaves the cap stays a representative;
            # the products before the first one above the cap are visited
            above = prods.sum(axis=1) > self.cap
            at = np.arange(len(seg)) - np.repeat(np.cumsum(nterms) - nterms, nterms)
            first_above = np.full(len(rule), len(self.coeffs))  # past every term
            np.minimum.at(first_above, seg[above], at[above])
            visit = at < first_above[seg]
            stays = ~rewritten
            stays[rewritten] = np.bincount(seg[above], minlength=len(rule)) > 0
            terminal.append(stays)
            wave_ids = start + np.arange(len(wave))
            start += len(wave)
            prods = prods[visit]
            prod_codes = _codes(prods, self.radix)
            at_known = np.searchsorted(known, prod_codes).clip(max=len(known) - 1)
            found = known[at_known] == prod_codes
            new, new_first, new_inverse = np.unique(
                prod_codes[~found], return_index=True, return_inverse=True
            )
            child = np.empty(len(prod_codes), dtype=np.int64)
            child[found] = ids[at_known[found]]
            child[~found] = start + new_inverse
            waves.append(prods[~found][new_first])
            parents.append(wave_ids[rewritten][seg[visit]])
            children.append(child)
            coeffs.append(self.coeffs[term[visit]])
            merged = np.concatenate((known, new))
            order = np.argsort(merged, kind="stable")
            known = merged[order]
            ids = np.concatenate((ids, start + np.arange(len(new))))[order]
        nodes = np.concatenate(waves)
        nf, pos, tids = _compose(
            np.concatenate(terminal), np.concatenate(parents),
            np.concatenate(children), np.concatenate(coeffs),
        )
        return nf[pos[inverse]], nodes[tids]

    def reduce_terms(self, terms, budget=None):
        """Normal form of a term map keyed by tuples, as a term map."""
        if not terms:
            return {}
        exps = _exponent_array(list(terms), self.nvars)
        nf, terminals = self.normal_forms(exps, budget)
        row = _ordered_product(_term_row(list(terms.values())), nf)
        return dict(zip(map(tuple, terminals[row.indices].tolist()), row.data.tolist()))


def _compose(terminal, parents, children, coeffs):
    """Normal forms of the nodes of a rewrite graph, over its terminals.

    Edge k takes node parents[k] to coeffs[k] times node children[k];
    edges are grouped by parent, in the order of the rule's right side.
    A terminal node is its own normal form; any other is the combination
    of its children's.  Nodes are ordered by height above the terminals
    (a node waits until all its children are done, so a cycle leaves
    nodes behind and raises AssemblyError), and each height is one
    ordered sparse product with the normal forms below it.  Returns the
    stacked CSR rows, the row of each node in them and the terminal ids.
    """
    n = len(terminal)
    edge_ptr = np.concatenate(([0], np.cumsum(np.bincount(parents, minlength=n))))
    by_child = np.argsort(children, kind="stable")
    child_ptr = np.concatenate(([0], np.cumsum(np.bincount(children, minlength=n))))
    pending = np.diff(edge_ptr)
    height = np.full(n, -1)
    ready = np.flatnonzero(pending == 0)
    h = 0
    while len(ready):
        height[ready] = h
        into = by_child[_ranges(child_ptr[ready], child_ptr[ready + 1] - child_ptr[ready])]
        done = np.bincount(parents[into], minlength=n)
        pending = pending - done
        ready = np.flatnonzero((pending == 0) & (done > 0))
        h += 1
    if (height < 0).any():
        raise AssemblyError("substitution not terminating")
    tids = np.flatnonzero(terminal)
    pos = np.full(n, -1)
    pos[tids] = np.arange(len(tids))
    nf = scipy.sparse.identity(len(tids), format="csr")
    inner = np.flatnonzero(~terminal)
    for level in np.unique(height[inner]):
        group = inner[height[inner] == level]
        lengths = edge_ptr[group + 1] - edge_ptr[group]
        edges = _ranges(edge_ptr[group], lengths)
        step = scipy.sparse.csr_matrix(
            (coeffs[edges], pos[children[edges]], np.concatenate(([0], np.cumsum(lengths)))),
            shape=(len(group), nf.shape[0]),
        )
        pos[group] = nf.shape[0] + np.arange(len(group))
        nf = scipy.sparse.vstack([nf, _ordered_product(step, nf)], format="csr")
    return nf, pos, tids


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
            new_rhs = _Rules(exponents, others, cap).reduce_terms(rhs, budget)
            if new_rhs != rhs:
                table[lhs] = new_rhs
                changed = True
                rhs = new_rhs
            if rhs == {lhs: 1.0}:
                del table[lhs]
                changed = True
                continue
            if any(all(map(le, lhs, m)) for m in rhs):
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
    the degree cap.

    ``rows`` is the one way to the affine forms of moments: it takes an
    array of exponent rows and returns all their forms at once as
    LinearRows.  A row no rule divides is found by a sorted-code lookup
    into the representatives' rows, a unit row or the bound form; any
    other row goes through the batched normal forms of ``_Rules`` first.
    Nothing is kept per tuple: only the representatives' rows, until
    the numbering or a binding changes.

    ``raw_exponents`` holds each measure's exponent rows of degree up to
    2r in grlex order, as an int64 array.  ``representatives`` and the
    keys of ``bound`` and ``var_of`` are exponent tuples
    (``exponents[measure]`` converts).  ``raw``, ``var_meaning`` and
    ``reduce`` hand out ``Monomial`` objects, built on first use.
    """

    def __init__(self, measures, order, rules):
        self.order = order
        self.measures = list(measures)
        self.exponents = {}
        self.rules = {}
        self.raw_exponents = {}
        self.bound = {}
        self._reps = {}
        self._numbers = {}
        self._n_vars = 0
        self._var_of = None
        self._rep_rows = {}
        self._raw = None
        self._representatives = None
        self._var_meaning = None
        for measure in self.measures:
            exponents = ExponentMap(measure.vars)
            mrules = _Rules(
                exponents,
                [(exponents.of(r.lhs), exponents.terms(r.rhs)) for r in rules if r.measure is measure],
                2 * order,
            )
            raw = exponent_array(len(measure.vars), 2 * order)
            reps = raw[_representatives(mrules, raw)]
            codes = _codes(reps, mrules.radix)
            by_code = np.argsort(codes)
            self.exponents[measure] = exponents
            self.rules[measure] = mrules
            self.raw_exponents[measure] = raw
            self._reps[measure] = (reps, codes[by_code], by_code)

    def finalize_variables(self):
        """Number every unbound representative; call after bindings."""
        self._var_of = None
        self._rep_rows = {}
        self._var_meaning = None
        self._n_vars = 0
        for measure in self.measures:
            free = np.ones(len(self._reps[measure][0]), dtype=bool)
            free[self._bound_positions(measure)] = False
            numbers = self._n_vars + np.cumsum(free) - 1
            self._numbers[measure] = np.where(free, numbers, -1)
            self._n_vars += int(free.sum())

    def set_bound(self, key, form):
        """Bind the representative key = (measure, tuple) to an affine form."""
        self.bound[key] = form
        self._rep_rows = {}

    @property
    def n_vars(self):
        return self._n_vars

    @property
    def var_of(self):
        """Number of the moment variable of each unbound (measure, tuple)."""
        if self._var_of is None:
            self._var_of = {}
            for measure, numbers in self._numbers.items():
                free = numbers >= 0
                keys = zip(itertools.repeat(measure), self.representatives[measure])
                self._var_of.update(
                    zip(itertools.compress(keys, free.tolist()), numbers[free].tolist())
                )
        return self._var_of

    @property
    def raw(self):
        """Monomials of degree up to 2r of each measure, in grlex order."""
        if self._raw is None:
            self._raw = {
                m: [self.exponents[m].monomial(t) for t in map(tuple, exps.tolist())]
                for m, exps in self.raw_exponents.items()
            }
        return self._raw

    @property
    def representatives(self):
        """Representative tuples of each measure, in grlex order."""
        if self._representatives is None:
            self._representatives = {
                m: list(map(tuple, reps.tolist())) for m, (reps, _, _) in self._reps.items()
            }
        return self._representatives

    @property
    def var_meaning(self):
        """(measure, monomial) of each moment variable, by number."""
        if self._var_meaning is None:
            self._var_meaning = [
                (m, self.exponents[m].monomial(t)) for m, t in self.var_of
            ]
        return self._var_meaning

    def basis(self, measure, degree):
        """Exponent rows of the representatives of degree at most ``degree``."""
        reps = self._reps[measure][0]
        return reps[reps.sum(axis=1) <= degree]

    def rep_lookup(self, measure, exps):
        """Position of each exponent row among the representatives, and
        whether it is one (the position is meaningless where it is not)."""
        _, codes, by_code = self._reps[measure]
        want = _codes(exps, self.rules[measure].radix)
        at = np.searchsorted(codes, want).clip(max=max(len(codes) - 1, 0))
        return by_code[at], codes[at] == want

    def _bound_positions(self, measure):
        keys = [t for m, t in self.bound if m is measure]
        at, _ = self.rep_lookup(measure, _exponent_array(keys, len(measure.vars)))
        return at

    def _representative_rows(self, measure):
        """LinearRows of the representatives: unit rows, bound forms where bound."""
        rows = self._rep_rows.get(measure)
        if rows is not None:
            return rows
        reps = self._reps[measure][0]
        at = self._bound_positions(measure).tolist()
        forms = [form for (m, _), form in self.bound.items() if m is measure]
        lengths = np.ones(len(reps), dtype=np.int64)
        lengths[at] = [len(f.coeffs) for f in forms]
        indptr = np.concatenate(([0], np.cumsum(lengths)))
        indices = np.empty(indptr[-1], dtype=np.int64)
        data = np.ones(indptr[-1])
        const = np.zeros(len(reps))
        free = lengths == 1
        free[at] = False
        indices[indptr[:-1][free]] = self._numbers[measure][free]
        for k, form in zip(at, forms):
            indices[indptr[k]:indptr[k + 1]] = list(form.coeffs)
            data[indptr[k]:indptr[k + 1]] = list(form.coeffs.values())
            const[k] = form.const
        rows = LinearRows(
            scipy.sparse.csr_matrix((data, indices, indptr), shape=(len(reps), self.n_vars)),
            const,
        )
        self._rep_rows[measure] = rows
        return rows

    def rows(self, measure, exps):
        """Affine forms of the moments of exponent rows, as LinearRows.

        Row i is the form of row i of exps (degree at most 2r): its
        normal form over the representatives times their rows.  Both
        products run in the order of a term-by-term accumulation, so a
        row lists its coefficients as such a sum first meets them.
        """
        reps = self._representative_rows(measure)
        rules = self.rules[measure]
        rules.check_degree(exps)
        if (rules.first_divisor(exps) < 0).all():
            at, _ = self.rep_lookup(measure, exps)
            # 0.0 + const, as a sum over the normal form {t: 1.0} gives it
            return LinearRows(reps.coeffs[at], reps.const[at] + 0.0)
        nf, terminals = rules.normal_forms(exps)
        at, _ = self.rep_lookup(measure, terminals)
        nf = scipy.sparse.csr_matrix(
            (nf.data, at[nf.indices], nf.indptr), shape=(len(exps), len(reps.const))
        )
        return LinearRows(_ordered_product(nf, reps.coeffs), nf @ reps.const)

    def shifted_rows(self, measure, terms, shifts):
        """Rows of the moments of g x^s for each exponent row s of shifts.

        ``terms`` is g as a term map.  One sparse product S @ rows gives
        every row: row s of S holds g's coefficients at the rows of
        s + t, in g's term order, so each coefficient is summed in the
        order ``form_of_terms`` sums it.  Zeros left by cancellation are
        dropped, as LinForm drops them.
        """
        nvars = len(measure.vars)
        n_terms = len(terms)
        prods = shifts[:, None, :] + _exponent_array(list(terms), nvars)[None, :, :]
        prods = prods.reshape(-1, nvars)
        _, first, inverse = np.unique(
            _codes(prods, self.rules[measure].radix), return_index=True, return_inverse=True
        )
        rows = self.rows(measure, prods[first])
        S = scipy.sparse.csr_matrix(
            (
                np.tile(np.fromiter(terms.values(), dtype=float, count=n_terms), len(shifts)),
                inverse,
                np.arange(len(shifts) + 1) * n_terms,
            ),
            shape=(len(shifts), len(first)),
        )
        coeffs = S @ rows.coeffs
        coeffs.eliminate_zeros()
        return LinearRows(coeffs, S @ rows.const)

    def reduce(self, measure, mono):
        """Reduced form of a monomial, as a polynomial in representatives."""
        exponents = self.exponents[measure]
        return exponents.polynomial(self.rules[measure].reduce_terms({exponents.of(mono): 1.0}))

    def form_of_terms(self, measure, terms):
        """Affine form of the moment of a term map keyed by tuples."""
        if not terms:
            return LinForm()
        rows = self.rows(measure, _exponent_array(list(terms), len(measure.vars)))
        head = _term_row(list(terms.values()))
        coeffs = _ordered_product(head, rows.coeffs)
        const = (head @ rows.const)[0]
        return LinForm(const, dict(zip(coeffs.indices.tolist(), coeffs.data.tolist())))

    def form_of_expression(self, expr):
        const = expr.constant
        coeffs = {}
        for measure, poly in expr.terms_by_label():
            if measure not in self.rules:
                raise AssemblyError(
                    f"expression references measure {measure.label}, "
                    "which is not part of the relaxation"
                )
            form = self.form_of_terms(measure, self.exponents[measure].terms(poly))
            const = _acc_form(const, coeffs, form, 1.0)
        return LinForm(const, coeffs)


def _representatives(rules, exps):
    """Mask of the exponent rows that ``rules`` reduce to themselves.

    A row no left side divides is its own normal form.  One that a rule
    divides rewrites to other tuples unless a rewrite leaves the degree
    cap, which takes a right side of higher degree than its left side;
    only for such rule sets are normal forms computed.
    """
    keep = rules.first_divisor(exps) < 0
    if rules.growing and not keep.all():
        rest = np.flatnonzero(~keep)
        nf, terminals = rules.normal_forms(exps[rest])
        unit = np.diff(nf.indptr) == 1
        head = nf.indptr[:-1][unit]
        same = (nf.data[head] == 1.0) & (
            terminals[nf.indices[head]] == exps[rest[unit]]
        ).all(axis=1)
        keep[rest[unit][same]] = True
    return keep


@dataclass
class Block:
    """One semidefinite block: a moment or localizing matrix.

    ``forms`` is LinearRows with one row per distinct product of two
    basis elements.  ``rows`` and ``cols`` list the upper triangle
    (i <= j) row by row, and ``slot`` the row of ``forms`` of each of
    those entries: the matrix is symmetric with entries (rows[k],
    cols[k]) and (cols[k], rows[k]) equal to row slot[k] of forms at y.
    """

    kind: str
    measure: object
    basis: list
    rows: np.ndarray
    cols: np.ndarray
    slot: np.ndarray
    forms: LinearRows
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
        basis = index.basis(measure, order)
        rows, cols, slot, products = _block_entries(basis)
        forms = index.rows(measure, products)
        blocks.append(_block("moment", index, measure, basis, rows, cols, slot, forms))

    ineq_forms = []
    for con in plan.support_inequalities:
        measure = con.measure
        g = con.gform()
        terms = index.exponents[measure].terms(g)
        basis = index.basis(measure, order - math.ceil(g.degree / 2))
        if len(basis) <= 1:
            ineq_forms.append(index.form_of_terms(measure, terms))
            continue
        rows, cols, slot, products = _block_entries(basis)
        forms = index.shifted_rows(measure, terms, products)
        blocks.append(
            _block("localizing", index, measure, basis, rows, cols, slot, forms, source=con)
        )

    eq_parts = []
    for measure, g in plan.residual_support_equalities:
        # the grlex list of degree <= 2r starts with the degree <= d part
        d = 2 * (order - math.ceil(g.degree / 2))
        shifts = index.raw_exponents[measure][: basis_size(len(measure.vars), d)]
        eq_parts.append(index.shifted_rows(measure, index.exponents[measure].terms(g), shifts))

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


def _block_entries(basis):
    """Upper triangle of a block over a basis of exponent rows, as arrays.

    Returns rows and cols (i <= j, row by row), each entry's slot and
    the exponent rows of the distinct products, one per slot; entries
    with the same product share one slot.  Products are compared by an
    integer code in a radix above twice the largest basis degree: no
    digit of a product carries, so the code of a product is the sum of
    the codes.
    """
    codes = _codes(basis, 2 * int(basis.sum(axis=1).max()) + 1)
    rows, cols = np.triu_indices(len(basis))
    _, first, slot = np.unique(
        codes[rows] + codes[cols], return_index=True, return_inverse=True
    )
    return rows, cols, slot, basis[rows[first]] + basis[cols[first]]


def _block(kind, index, measure, basis, rows, cols, slot, forms, source=None):
    monomial = index.exponents[measure].monomial
    monos = [monomial(t) for t in map(tuple, basis.tolist())]
    return Block(kind, measure, monos, rows, cols, slot, forms, source)


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
    n_bound = 0
    for measure, mono, rhs, con in plan.binding_candidates:
        t = index.exponents[measure].of(mono)
        key = (measure, t)
        at, is_rep = index.rep_lookup(measure, _exponent_array([t], len(t)))
        if key in index.bound or not is_rep[0]:
            plan.kept_moment_constraints.append(con)
            continue
        lhs_form = index.form_of_expression(con.lhs)
        rhs_form = index.form_of_expression(rhs)
        tvar = int(index._numbers[measure][at[0]])
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

    # provisional variable i is the i-th representative of all measures
    index.finalize_variables()
    final = np.concatenate([index._numbers[m] for m in index.measures]).tolist()
    for key, form in list(index.bound.items()):
        coeffs = {final[i]: c for i, c in form.coeffs.items()}
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
    exps = msdp.index.raw_exponents[measure]
    rows = msdp.index.rows(measure, exps[exps.sum(axis=1) <= degree])
    return rows.coeffs @ y + rows.const


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
    values = block.forms.coeffs @ y + block.forms.const
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
