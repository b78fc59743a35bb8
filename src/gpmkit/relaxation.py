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
handled at once; rewrite rules are exponent tuples from
``extract_substitution_rules`` on.  Affine forms are LinearRows (CSR
coefficients and a constant vector) only: the objective, a moment
constraint and a bound moment are one row each.  ``MomentIndex.rows``
turns an array of exponent rows into the forms of their moments, with
the normal forms under the rewrite rules computed wave by wave for the
whole array; every block, row and moment vector takes its forms from
it.  ``Monomial`` and ``Polynomial`` objects appear only at the
boundary: model data is converted once on the way in.  What assembly
hands out stays in exponent rows: each measure's raw rows of degree up
to 2r in grlex order (``MomentIndex.raw_exponents``), which ``mvec``
lists as monomials and ``mvec_values`` evaluates in the same order, and
each block's basis, an int64 array of grlex-ordered rows that index its
rows and columns.
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
    measure_with_label,
)
from .polynomials import (
    ExponentMap,
    Polynomial,
    basis_size,
    exponent_array,
)


class AssemblyError(ValueError):
    """Invalid or impossible relaxation assembly."""


@dataclass
class LinearRows:
    """Affine forms const[k] + coeffs[k] @ y, one per row.

    ``coeffs`` is a CSR matrix with one column per moment variable and no
    stored zeros; ``const`` holds the constant parts.  This is the one
    affine-form type of a relaxation: a single form (the objective, a
    moment constraint, a bound moment) is one row.
    """

    coeffs: object
    const: np.ndarray

    def __len__(self):
        return self.const.shape[0]


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
        first = np.full(len(exps), -1)
        # the last rule first, so that the first one to divide a row wins
        for k in range(len(self.lhs) - 1, -1, -1):
            at = np.flatnonzero(self.lhs[k])
            first[(exps[:, at] >= self.lhs[k, at]).all(axis=1)] = k
        return first

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
    """Outcome of scanning constraints for substitution opportunities.

    ``rules`` maps a measure to its inter-reduced rewrite rules: left-side
    exponent tuples to right sides as term maps keyed by tuples.
    """

    rules: dict
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

    rules = {}
    for measure, table in rules_by_measure.items():
        exponents = ExponentMap(measure.vars)
        table = {exponents.of(lhs): exponents.terms(rhs) for lhs, rhs in table.items()}
        budget = [10 * basis_size(len(measure.vars), cap)]
        rules[measure], demoted = _inter_reduce(exponents, table, cap, budget)
        n_subs -= len(demoted)
        for lhs, rhs in demoted:
            residual.append(
                (measure, exponents.polynomial({lhs: 1.0}) - exponents.polynomial(rhs))
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
    variable or are bound to an affine form of other variables (a
    one-row LinearRows in ``bound``).  ``rules`` is
    ``SubstitutionPlan.rules``, each measure's table of tuples.  The
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
    2r in grlex order, as an int64 array: the order of ``mvec``,
    ``mvec_values`` and the solved moment vectors.  ``basis`` returns
    its leading representatives, the grlex-ordered rows of a block
    basis.  ``representatives`` and the keys of ``bound`` and ``var_of``
    are exponent tuples (``exponents[measure]`` converts); ``var_of``
    is the one lookup from a (measure, tuple) to its variable number.
    """

    def __init__(self, measures, order, rules):
        self.order = order
        self.measures = list(measures)
        self.exponents = {}
        self.rules = {}
        self.raw_exponents = {}
        self.bound = {}
        self._reps = {}
        self._raw_codes = {}
        self._numbers = {}
        self._n_vars = 0
        self._var_of = None
        self._rep_rows = {}
        self._representatives = None
        for measure in self.measures:
            exponents = ExponentMap(measure.vars)
            mrules = _Rules(exponents, rules.get(measure, {}).items(), 2 * order)
            raw = exponent_array(len(measure.vars), 2 * order)
            codes = _codes(raw, mrules.radix)
            by_code = np.argsort(codes)
            is_rep = _representatives(mrules, raw)
            # the representatives in code order, by position among them
            rep_by_code = by_code[is_rep[by_code]]
            self.exponents[measure] = exponents
            self.rules[measure] = mrules
            self.raw_exponents[measure] = raw
            self._raw_codes[measure] = (codes[by_code], by_code)
            self._reps[measure] = (
                raw[is_rep], codes[rep_by_code], (np.cumsum(is_rep) - 1)[rep_by_code]
            )

    def finalize_variables(self):
        """Number every unbound representative; call after bindings."""
        self._var_of = None
        self._rep_rows = {}
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
    def representatives(self):
        """Representative tuples of each measure, in grlex order."""
        if self._representatives is None:
            self._representatives = {
                m: list(map(tuple, reps.tolist())) for m, (reps, _, _) in self._reps.items()
            }
        return self._representatives

    def basis(self, measure, degree):
        """Exponent rows of the representatives of degree at most ``degree``,
        in grlex order."""
        reps = self._reps[measure][0]
        return reps[reps.sum(axis=1) <= degree]

    def rep_lookup(self, measure, exps):
        """Position of each exponent row among the representatives, and
        whether it is one (the position is meaningless where it is not)."""
        _, codes, by_code = self._reps[measure]
        want = self.codes(measure, exps)
        at = np.searchsorted(codes, want).clip(max=max(len(codes) - 1, 0))
        return by_code[at], codes[at] == want

    def codes(self, measure, exps):
        """Integer code of each exponent row; codes of degree <= 2r add
        as their exponent rows do, since no digit carries."""
        return _codes(exps, self.rules[measure].radix)

    def distinct(self, measure, codes):
        """The distinct exponent rows among codes of degree <= 2r, in code
        order, and the position of each code among them.

        The rows are looked up in the sorted codes of all rows of degree
        <= 2r, so no first occurrences are needed, and np.unique skips
        the stable sort they take.
        """
        codes, inverse = np.unique(codes, return_inverse=True)
        table, by_code = self._raw_codes[measure]
        return self.raw_exponents[measure][by_code[np.searchsorted(table, codes)]], inverse

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
        at = self._bound_positions(measure)
        bound = _stacked([f for (m, _), f in self.bound.items() if m is measure], self.n_vars)
        lengths = np.ones(len(reps), dtype=np.int64)
        lengths[at] = np.diff(bound.coeffs.indptr)
        indptr = np.concatenate(([0], np.cumsum(lengths)))
        indices = np.empty(indptr[-1], dtype=np.int64)
        data = np.ones(indptr[-1])
        const = np.zeros(len(reps))
        free = lengths == 1
        free[at] = False
        indices[indptr[:-1][free]] = self._numbers[measure][free]
        slots = _ranges(indptr[at], lengths[at])
        indices[slots] = bound.coeffs.indices
        data[slots] = bound.coeffs.data
        const[at] = bound.const
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
        nf, _ = self.rep_forms(measure, exps)
        return LinearRows(_ordered_product(nf, reps.coeffs), nf @ reps.const)

    def rep_forms(self, measure, exps):
        """Normal forms of exponent rows over the representatives.

        Returns (nf, is_rep): row i of the CSR matrix nf is the normal
        form of row i of exps (degree at most 2r), its columns the grlex
        positions of the representatives, so the basis of degree d is
        the columns below ``len(basis(measure, d))``.  is_rep flags, per
        stored entry, a term that is a representative; the column of any
        other is meaningless.
        """
        nf, terminals = self.rules[measure].normal_forms(exps)
        at, is_rep = self.rep_lookup(measure, terminals)
        is_rep = is_rep[nf.indices]
        nf = scipy.sparse.csr_matrix(
            (nf.data, at[nf.indices], nf.indptr),
            shape=(len(exps), len(self._reps[measure][0])),
        )
        return nf, is_rep

    def shifted_rows(self, measure, terms, shifts):
        """Rows of the moments of g x^s for each exponent row s of shifts.

        ``terms`` is g as a term map.  One sparse product S @ rows gives
        every row: row s of S holds g's coefficients at the rows of
        s + t, in g's term order, so each coefficient is summed from 0.0
        over g's terms in that order, as a term-by-term accumulation
        sums it.  Zeros left by cancellation are dropped.  The zero
        shift gives the form of g itself, a 1x1 localizer's one row.
        """
        n_terms = len(terms)
        term_exps = _exponent_array(list(terms), len(measure.vars))
        # s + t has degree at most 2r, so its code is the sum of codes
        self.rules[measure].check_degree(shifts + term_exps[term_exps.sum(axis=1).argmax()])
        codes = self.codes(measure, shifts)[:, None] + self.codes(measure, term_exps)
        prods, inverse = self.distinct(measure, codes.reshape(-1))
        rows = self.rows(measure, prods)
        S = scipy.sparse.csr_matrix(
            (
                np.tile(np.fromiter(terms.values(), dtype=float, count=n_terms), len(shifts)),
                inverse,
                np.arange(len(shifts) + 1) * n_terms,
            ),
            shape=(len(shifts), len(prods)),
        )
        coeffs = S @ rows.coeffs
        coeffs.eliminate_zeros()
        return LinearRows(coeffs, S @ rows.const)

    def form_of_expression(self, expr):
        """Affine form of a moment expression, as one-row LinearRows.

        Each measure's polynomial is summed over its terms' rows in term
        order; the measures' rows are then summed in label order, the
        constant from ``expr.constant`` on.
        """
        const = expr.constant
        parts = []
        for measure, poly in expr.terms_by_label():
            if measure not in self.rules:
                raise AssemblyError(
                    f"expression references measure {measure.label}, "
                    "which is not part of the relaxation"
                )
            terms = self.exponents[measure].terms(poly)
            rows = self.rows(measure, _exponent_array(list(terms), len(measure.vars)))
            head = _term_row(list(terms.values()))
            parts.append(LinearRows(_ordered_product(head, rows.coeffs), head @ rows.const))
            const += parts[-1].const[0]
        ones = _term_row(np.ones(len(parts)))
        coeffs = _ordered_product(ones, _stacked(parts, self.n_vars).coeffs)
        return LinearRows(coeffs, np.array([const]))


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

    ``basis`` holds the exponent rows over the measure's variable list
    that index the block's rows and columns, as an int64 array in grlex
    order (``MomentIndex.basis``).  ``forms`` is LinearRows with one row
    per distinct product of two basis elements, and ``slots`` the
    symmetric s x s array of each entry's row of ``forms``: entry (i, j)
    of the matrix at y is row slots[i, j] of forms at y.
    """

    kind: str
    measure: object
    basis: np.ndarray
    slots: np.ndarray
    forms: LinearRows
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
    row of ``lin_eq`` to vanish and every row of ``lin_ineq`` to be
    nonnegative, and optimizes the objective form.  Both are LinearRows:
    one CSR matrix of coefficients and one vector of constants, without
    repeated rows or constant rows that hold trivially.  ``objective``
    is one-row LinearRows too, its coefficients in the order in which
    a term-by-term accumulation first meets them.
    """

    problem: GPMProblem
    order: int
    index: MomentIndex
    blocks: list
    lin_eq: LinearRows
    lin_ineq: LinearRows
    objective: LinearRows
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
        slots, products = _block_entries(index, measure, basis)
        forms = index.rows(measure, products)
        blocks.append(Block("moment", measure, basis, slots, forms))

    ineq_parts = []
    for con in plan.support_inequalities:
        measure = con.measure
        g = con.gform()
        terms = index.exponents[measure].terms(g)
        basis = index.basis(measure, order - math.ceil(g.degree / 2))
        slots, products = _block_entries(index, measure, basis)
        forms = index.shifted_rows(measure, terms, products)
        if len(basis) == 1:
            # a 1x1 localizer, the zero shift: one orthant row g
            ineq_parts.append(forms)
            continue
        blocks.append(
            Block("localizing", measure, basis, slots, forms, source=con)
        )

    eq_parts = []
    for measure, g in plan.residual_support_equalities:
        # the grlex list of degree <= 2r starts with the degree <= d part
        d = 2 * (order - math.ceil(g.degree / 2))
        shifts = index.raw_exponents[measure][: basis_size(len(measure.vars), d)]
        eq_parts.append(index.shifted_rows(measure, index.exponents[measure].terms(g), shifts))

    for con in plan.kept_moment_constraints:
        form = index.form_of_expression(con.residual())
        if con.rel == "==":
            eq_parts.append(form)
        elif con.rel == ">=":
            ineq_parts.append(form)
        else:
            ineq_parts.append(LinearRows(-form.coeffs, -form.const))

    lin_eq = _dedup_rows(_stacked(eq_parts, index.n_vars), keep_infeasible=True)
    lin_ineq = _dedup_rows(_stacked(ineq_parts, index.n_vars), keep_infeasible=False)

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


def _block_entries(index, measure, basis):
    """Slot matrix of a block over a basis of exponent rows.

    Returns the symmetric s x s array of each entry's slot and the
    exponent rows of the distinct products in code order, one per slot;
    entries with the same product share one slot.  The code of a
    product is the sum of the codes of its factors.
    """
    codes = index.codes(measure, basis)
    rows, cols = np.triu_indices(len(basis))
    products, slot = index.distinct(measure, codes[rows] + codes[cols])
    slots = np.empty((len(basis), len(basis)), dtype=slot.dtype)
    slots[rows, cols] = slot
    slots[cols, rows] = slot
    return slots, products


def _resolve_bindings(index, plan):
    """Turn binding candidates into bound affine forms (one-row LinearRows).

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
        pivot = lhs_form.coeffs[0, tvar] - rhs_form.coeffs[0, tvar]
        if pivot == 0.0:
            plan.kept_moment_constraints.append(con)
            continue
        # c / pivot per side, the right side first; the target's own
        # column is zeroed, sums to 0.0 and drops out
        sides = scipy.sparse.vstack([rhs_form.coeffs, lhs_form.coeffs], format="csr")
        sides.data = np.where(sides.indices == tvar, 0.0, sides.data / pivot)
        bound_form = LinearRows(
            _ordered_product(_term_row([1.0, -1.0]), sides),
            (rhs_form.const - lhs_form.const) / pivot,
        )
        # keep earlier bindings resolved in terms of unbound variables
        for other, form in list(index.bound.items()):
            hit = form.coeffs.indices == tvar
            if hit.any():
                c = form.coeffs.data[hit][0]
                rest = form.coeffs.copy()
                rest.data[hit] = 0.0
                both = scipy.sparse.vstack([rest, bound_form.coeffs], format="csr")
                index.set_bound(other, LinearRows(
                    _ordered_product(_term_row([1.0, c]), both),
                    form.const + c * bound_form.const,
                ))
        index.set_bound(key, bound_form)
        n_bound += 1

    # provisional variable i is the i-th representative of all measures
    index.finalize_variables()
    final = np.concatenate([index._numbers[m] for m in index.measures])
    for key, form in list(index.bound.items()):
        coeffs = scipy.sparse.csr_matrix(
            (form.coeffs.data, final[form.coeffs.indices], form.coeffs.indptr),
            shape=(1, index.n_vars),
        )
        index.set_bound(key, LinearRows(coeffs, form.const))
    return n_bound


def _stacked(parts, n_vars):
    """One LinearRows of the rows of several, in order, over n_vars variables."""
    coeffs = [scipy.sparse.csr_matrix((0, n_vars))] + [p.coeffs for p in parts]
    const = np.concatenate([np.zeros(0)] + [p.const for p in parts])
    return LinearRows(scipy.sparse.vstack(coeffs, format="csr"), const)


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
    integer keys of their constant, column indices and coefficient bits:
    a stable sort of the keys puts each run of equal rows in row order,
    and the first row of each run is kept.
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
        order = np.lexsort(key.T)
        key = key[order]
        starts = np.concatenate(([True], (key[1:] != key[:-1]).any(axis=1)))
        keep[sel[order[starts]]] = True
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

    def classes_of(measure, exps):
        """Class of each exponent row, from the parities of its exponents."""
        gens, offset = flips[measure]
        flipped = np.array(
            [[g >> k & 1 for g in gens] for k in range(len(measure.vars))], dtype=np.int64
        ).reshape(len(measure.vars), len(gens))
        bits = np.left_shift(1, np.arange(offset, offset + len(gens), dtype=np.int64))
        return ((exps & 1) @ flipped % 2) @ bits

    moments = np.zeros(index.n_vars, dtype=np.int64)
    for measure in index.measures:
        numbers = index._numbers[measure]
        free = numbers >= 0
        moments[numbers[free]] = classes_of(measure, index._reps[measure][0][free])
    blocks = [classes_of(block.measure, block.basis) for block in msdp.blocks]
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


@dataclass
class Permutations:
    """Variable permutations that fix a relaxation's data, and their action.

    A generator p of one measure maps its variable k to variable p[k],
    and so the exponent row e to the row e' with e'[p[k]] = e[k].  It
    maps the objective onto itself and the sets of support and of moment
    constraints onto themselves, so it permutes the moment variables and
    maps every block of its measure onto a block of the same order: the
    moment matrix onto itself, a localizing matrix onto that of the image
    constraint.  Blocks of other measures stay where they are.

    ``generators`` maps each measure label to its generators, each as
    its nontrivial cycles of variable names (empty when none was found).
    ``moments`` holds one array per generator, over all measures:
    moment variable k goes to moments[g][k].  ``blocks`` holds per
    generator one (target, rows) pair per block of ``msdp.blocks``: row
    i of the block goes to row rows[i] of block target.
    """

    generators: dict
    moments: list
    blocks: list


# refinements the automorphism search may spend per measure; when they
# run out the generators found so far are kept, which leaves a subgroup
_SEARCH_BUDGET = 2000


def variable_permutations(msdp):
    """Generators of each measure's permutations that fix the data.

    The data are the objective, the support constraints as a set and the
    moment constraints as a set, each compared exactly (relation, both
    sides, every coefficient).  The group is never enumerated: ``_automorphisms`` returns generators
    only.  A generator that does not map the representatives and block
    bases onto themselves (a rule set whose normal forms depend on the
    variable order) is dropped, which again leaves a subgroup.  Returns
    None when no measure has a generator.
    """
    index = msdp.index
    generators, moments, blocks = {}, [], []
    for measure in index.measures:
        items, support = _data_items(msdp.problem, index, measure)
        names = [v.name for v in measure.vars]
        generators[measure.label] = []
        for perm in _automorphisms(len(names), items):
            action = _permutation_action(msdp, measure, perm, items, support)
            if action is None:
                continue
            moments.append(action[0])
            blocks.append(action[1])
            generators[measure.label].append(
                [[names[k] for k in cycle] for cycle in _cycles(perm)]
            )
    if not moments:
        return None
    return Permutations(generators, moments, blocks)


def _data_items(problem, index, measure):
    """The data a permutation of a measure's variables must fix, as items.

    An item is (label, terms): terms is a tuple of (side, support,
    coefficient) over the measure's part of one datum, the support of a
    monomial being its (variable, exponent) pairs of positive exponent,
    and label an int that stands for everything a permutation leaves
    alone (the kind of datum, its relation, constants, other measures'
    parts).  Also returns the position among the items of each support
    constraint on the measure, so that localizing blocks can follow
    their constraint.
    """
    raw, support = [], {}

    def terms_of(meas, poly):
        return sorted(index.exponents[meas].terms(poly).items())

    def add(tag, sides, others=()):
        terms = tuple(
            (side, tuple((k, e) for k, e in enumerate(t) if e), c)
            for side, poly in sides
            for t, c in terms_of(measure, poly)
        )
        if terms:
            raw.append(((tag, tuple(others)), terms))
        return bool(terms)

    def parts(exprs):
        # the measure's parts, and every other measure's as fixed data
        mine, others = [], []
        for side, expr in enumerate(exprs):
            for meas, poly in expr.terms_by_label():
                if meas is measure:
                    mine.append((side, poly))
                else:
                    others.append((side, meas.label, tuple(terms_of(meas, poly))))
        return mine, others

    objective = problem.objective
    add(("objective", objective.direction, objective.expr.constant), *parts((objective.expr,)))
    for con in problem.moment_constraints:
        add(("moment", con.rel, con.lhs.constant, con.rhs.constant), *parts((con.lhs, con.rhs)))
    for con in problem.support_constraints:
        if con.measure is measure and add(("support", con.rel), enumerate((con.lhs, con.rhs))):
            support[len(raw) - 1] = con
    labels = {label: k for k, label in enumerate(sorted({label for label, _ in raw}))}
    return [(labels[label], terms) for label, terms in raw], support


def _refine(colors, items):
    """Refine a coloring of the variables until it is stable.

    A term's key is its side, its coefficient and the colors and
    exponents of its variables; an item's is its label and the sorted
    keys of its terms.  A variable's signature collects, for every term
    it occurs in, the item's key, the term's key and its own exponent.
    Item keys and colors are ranks among the sorted distinct values, so
    they depend on the data alone, not on the numbering of the
    variables.  Returns the colors and the trace of signature lists,
    equal for nodes a permutation maps onto each other.
    """
    trace = []
    n_colors = len(set(colors))
    while True:
        keyed = []
        for label, terms in items:
            keys = [
                (side, coeff, tuple(sorted((colors[k], e) for k, e in supp)))
                for side, supp, coeff in terms
            ]
            keyed.append(((label, tuple(sorted(keys))), keys, terms))
        whole = {w: r for r, w in enumerate(sorted({w for w, _, _ in keyed}))}
        sigs = [[] for _ in colors]
        for w, keys, terms in keyed:
            w = whole[w]
            for key, (_, supp, _) in zip(keys, terms):
                for k, e in supp:
                    sigs[k].append((w, key, e))
        full = [(colors[k], tuple(sorted(sig))) for k, sig in enumerate(sigs)]
        distinct = sorted(set(full))
        trace.append(distinct)
        rank = {sig: r for r, sig in enumerate(distinct)}
        colors = [rank[sig] for sig in full]
        if len(distinct) == n_colors:
            return colors, trace
        n_colors = len(distinct)


def _individualized(colors, v):
    """The coloring with v split off from its cell."""
    return [2 * c + (k == v) for k, c in enumerate(colors)]


def _target_cell(colors):
    """The color of the smallest cell of more than one variable, or None."""
    counts = {}
    for c in colors:
        counts[c] = counts.get(c, 0) + 1
    cells = [(size, c) for c, size in counts.items() if size > 1]
    return min(cells)[1] if cells else None


def _automorphisms(nvars, items, budget=_SEARCH_BUDGET):
    """Generators of the variable permutations that map items onto themselves.

    Individualization and refinement: the first path individualizes the
    smallest variable of the target cell at each level down to a
    discrete coloring, which fixes a base b_1, b_2, ...  Then, from the
    deepest level up, every variable v of the cell of b_i that is not yet
    in the orbit of b_i under the generators found so far (all of them
    fix b_1 .. b_i-1) is tried: a depth-first search for a permutation
    that fixes b_1 .. b_i-1 and maps b_i to v, along nodes whose refinement
    traces equal the first path's.  A leaf is checked exactly against the
    items.  The generators returned generate the whole group unless the
    budget of refinements ran out first.
    """
    want = _item_counts(items)
    left = [_refine([0] * nvars, items)]
    base = []
    spent = 1
    while (cell := _target_cell(left[-1][0])) is not None:
        colors = left[-1][0]
        base.append(min(k for k in range(nvars) if colors[k] == cell))
        left.append(_refine(_individualized(colors, base[-1]), items))
        spent += 1
    gens = []

    def descend(level, node):
        nonlocal spent
        colors, trace = node
        if trace != left[level][1]:
            return None
        if level == len(base):
            perm = [0] * nvars
            by_color = {c: k for k, c in enumerate(colors)}
            for k, c in enumerate(left[level][0]):
                perm[k] = by_color[c]
            return perm if _item_counts(items, perm) == want else None
        cell = left[level][0][base[level]]
        for w in (k for k in range(nvars) if colors[k] == cell):
            if spent >= budget:
                return None
            spent += 1
            found = descend(level + 1, _refine(_individualized(colors, w), items))
            if found is not None:
                return found
        return None

    for level in range(len(base) - 1, -1, -1):
        colors = left[level][0]
        b = base[level]
        for v in range(nvars):
            if colors[v] != colors[b] or v in _orbit(b, gens):
                continue
            if spent >= budget:
                return gens
            spent += 1
            found = descend(level + 1, _refine(_individualized(colors, v), items))
            if found is not None:
                gens.append(found)
    return gens


def _item_counts(items, perm=None):
    """The items as a multiset, their variables renamed by perm."""
    counts = {}
    for label, terms in items:
        if perm is not None:
            terms = _permuted(terms, perm)
        key = (label, frozenset(terms))
        counts[key] = counts.get(key, 0) + 1
    return counts


def _permuted(terms, perm):
    """Terms with variable k renamed perm[k]."""
    return [
        (side, tuple(sorted((perm[k], e) for k, e in supp)), c) for side, supp, c in terms
    ]


def _orbit(v, gens):
    """The orbit of v under the group the permutations gens generate."""
    seen = {v}
    todo = [v]
    while todo:
        u = todo.pop()
        for g in gens:
            if g[u] not in seen:
                seen.add(g[u])
                todo.append(g[u])
    return seen


def _cycles(perm):
    """The cycles of length > 1 of a permutation, each from its smallest entry."""
    seen = set()
    out = []
    for start in range(len(perm)):
        if start in seen:
            continue
        cycle = [start]
        seen.add(start)
        while perm[cycle[-1]] != start:
            cycle.append(perm[cycle[-1]])
            seen.add(cycle[-1])
        if len(cycle) > 1:
            out.append(cycle)
    return out


def _permutation_action(msdp, measure, perm, items, support):
    """The moment permutation and block maps of one generator, or None.

    Each free representative's exponent row is permuted and looked up by
    code; it has to land on a free representative.  Each block basis of
    the measure is permuted and looked up in the target block's basis,
    the moment matrix in itself and a localizing matrix in that of the
    constraint its own maps to.  None when a lookup misses.
    """
    index = msdp.index
    pinv = np.argsort(perm)
    numbers = index._numbers[measure]
    free = numbers >= 0
    at, is_rep = index.rep_lookup(measure, index._reps[measure][0][free][:, pinv])
    if not is_rep.all() or (numbers[at] < 0).any():
        return None
    moments = np.arange(index.n_vars)
    moments[numbers[free]] = numbers[at]

    # where each support constraint goes: to an equal item of the images
    image = {}
    position = {}
    for k, (label, terms) in enumerate(items):
        position.setdefault((label, frozenset(terms)), []).append(k)
    for k, con in support.items():
        label, terms = items[k]
        image[con] = support[position[(label, frozenset(_permuted(terms, perm)))].pop()]
    block_of = {
        block.source: j for j, block in enumerate(msdp.blocks) if block.kind == "localizing"
    }

    maps = []
    for j, block in enumerate(msdp.blocks):
        if block.measure is not measure:
            maps.append((j, np.arange(block.size)))
            continue
        target = j if block.kind == "moment" else block_of.get(image[block.source])
        if target is None:
            return None
        basis = msdp.blocks[target].basis
        codes = index.codes(measure, basis)
        order = np.argsort(codes)
        want = index.codes(measure, block.basis[:, pinv])
        pos = np.searchsorted(codes[order], want).clip(max=len(codes) - 1)
        if len(basis) != block.size or (codes[order][pos] != want).any():
            return None
        maps.append((target, order[pos]))
    return moments, maps


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


def _raw_rows(msdp, measure, degree):
    exps = msdp.index.raw_exponents[measure]
    return exps if degree is None else exps[exps.sum(axis=1) <= degree]


def mvec(msdp, measure, degree=None):
    """Monic monomials indexing the moment vector of a measure.

    One object array entry per row of ``index.raw_exponents[measure]``
    of degree at most ``degree`` (default 2r), in that grlex order, the
    order of ``mvec_values``.
    """
    measure = _resolve_measure(msdp, measure)
    monomial = msdp.index.exponents[measure].monomial
    exps = _raw_rows(msdp, measure, degree)
    out = np.empty(len(exps), dtype=object)
    for k, t in enumerate(map(tuple, exps.tolist())):
        out[k] = Polynomial({monomial(t): 1.0})
    return out


def mvec_values(msdp, y, measure, degree=None):
    """Numeric moment vector of a measure at the solution y.

    A float array aligned with ``mvec``: entry k is the moment of row k
    of ``index.raw_exponents[measure]`` (degree at most ``degree``,
    default 2r), in grlex order.
    """
    measure = _resolve_measure(msdp, measure)
    rows = msdp.index.rows(measure, _raw_rows(msdp, measure, degree))
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
    return values[block.slots]


def expression_value(msdp, y, expr):
    """Numeric value of a moment expression at the solution y."""
    form = msdp.index.form_of_expression(expr)
    return (form.coeffs @ y + form.const)[0]


def _resolve_measure(msdp, measure):
    if isinstance(measure, int):
        found = measure_with_label(msdp.index.measures, measure)
        if found is None:
            raise AssemblyError(f"no measure with label {measure}")
        return found
    return measure
