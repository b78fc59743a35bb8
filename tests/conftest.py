"""Shared fixtures and independent oracles for the test suite.

The oracles compute expected values through elementary arithmetic only
(explicit power products, combinatorics), never through the code paths
they are meant to check.
"""

import importlib
import importlib.util
import math
import os
from operator import add, le, sub

import numpy as np
import pytest

from gpmkit import GPMProblem, ModelContext, assemble, minimize, mom
from gpmkit.polynomials import basis_size
from gpmkit.relaxation import (
    AssemblyError,
    MomentIndex,
    extract_substitution_rules,
)

MODELS_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "models")
TOOLS_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "tools")


@pytest.fixture
def models_dir():
    return os.path.abspath(MODELS_DIR)


def model_path(name):
    return os.path.abspath(os.path.join(MODELS_DIR, name))


def load_tool(name):
    """The module of the script tools/<name>.py, loaded by path."""
    spec = importlib.util.spec_from_file_location(name, os.path.join(TOOLS_DIR, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def refuse_extraction(monkeypatch, refused=lambda t, order: t < order):
    """Make extraction fail on every truncation M_t for which
    ``refused(t, order)`` holds, by default every t below the relaxation
    order, so that a point certifies only from M_r itself; returns the
    list of the degrees t extraction was asked for."""
    # the package rebinds the name `certify` to the function
    certify_module = importlib.import_module("gpmkit.certify")
    extract, degrees = certify_module._extract, []

    def refusing_extract(msdp, measure, basis, M, rho, seed):
        degrees.append(int(basis.sum(axis=1).max()))
        if refused(degrees[-1], msdp.order):
            return certify_module.ExtractionResult(success=False, message="refused")
        return extract(msdp, measure, basis, M, rho, seed)

    monkeypatch.setattr(certify_module, "_extract", refusing_extract)
    return degrees


def camel_problem():
    """Six-hump camel back; two global minima at +-(0.0898, -0.7127)."""
    ctx = ModelContext()
    x1 = ctx.var("x1")
    x2 = ctx.var("x2")
    obj = (
        4 * x1 ** 2
        + x1 * x2
        - 4 * x2 ** 2
        - 2.1 * x1 ** 4
        + 4 * x2 ** 4
        + x1 ** 6 * (1.0 / 3.0)
    )
    return ctx, GPMProblem(minimize(mom(obj)))


def quadratic3_problem():
    """Nonconvex quadratic with known hierarchy -6, -5.69, -4.07, -4."""
    ctx = ModelContext()
    x = ctx.vars("x", 3)
    g0 = -2 * x[0] + x[1] - x[2]
    cons = [
        24 - 20 * x[0] + 9 * x[1] - 13 * x[2]
        + 4 * x[0] ** 2 - 4 * x[0] * x[1] + 4 * x[0] * x[2]
        + 2 * x[1] ** 2 - 2 * x[1] * x[2] + 2 * x[2] ** 2 >= 0,
        x[0] + x[1] + x[2] <= 4,
        3 * x[1] + x[2] <= 6,
        0 <= x[0],
        x[0] <= 2,
        0 <= x[1],
        0 <= x[2],
        x[2] <= 3,
    ]
    return ctx, GPMProblem(minimize(mom(g0)), cons)


def binom(n, k):
    return math.comb(n, k)


def raw_moment(exps, points, weights):
    """Moment of one exponent tuple of a discrete measure, by direct powers."""
    total = 0.0
    for point, weight in zip(points, weights):
        value = 1.0
        for coord, power in zip(point, exps):
            if power:
                value *= float(coord) ** power
        total += float(weight) * value
    return total


def planted_moment_vector(msdp, measure, points, weights):
    """Decision vector y whose moments are those of the planted atoms."""
    y = np.zeros(msdp.index.n_vars)
    for (meas, exps), k in msdp.index.var_of.items():
        assert meas is measure
        y[k] = raw_moment(exps, points, weights)
    return y


def separated_points(rng, natoms, nvars, gap=0.5):
    """Random atoms in [-1, 1]^n with pairwise distance at least gap."""
    while True:
        points = rng.uniform(-1.0, 1.0, size=(natoms, nvars))
        ok = True
        for i in range(natoms):
            for j in range(i + 1, natoms):
                if np.linalg.norm(points[i] - points[j]) < gap:
                    ok = False
        if ok:
            return points


def planted_instance(rng, nvars, natoms):
    """A moment relaxation plus the exact moment vector of known atoms.

    The order is chosen so that the truncated basis one degree below
    already spans the atoms, which makes the moment matrix flat.
    """
    ctx = ModelContext()
    x = ctx.vars("x", nvars)
    problem = GPMProblem(minimize(mom(sum(x[i] for i in range(nvars)))))
    order = natoms if nvars == 1 else 2
    order = max(order, 1)
    msdp = assemble(problem, order)
    measure = problem.measures[0]
    points = separated_points(rng, natoms, nvars)
    weights = rng.uniform(0.5, 1.5, size=natoms)
    weights /= weights.sum()
    y = planted_moment_vector(msdp, measure, points, weights)
    return msdp, measure, points, weights, y


def match_atoms(planted_points, planted_weights, points, weights):
    """Greedy nearest matching; returns worst point and weight errors."""
    points = np.asarray(points, dtype=float)
    weights = np.asarray(weights, dtype=float)
    worst_point = 0.0
    worst_weight = 0.0
    used = set()
    for p, w in zip(planted_points, planted_weights):
        dists = np.linalg.norm(points - p, axis=1)
        for idx in used:
            dists[idx] = np.inf
        k = int(np.argmin(dists))
        used.add(k)
        worst_point = max(worst_point, float(dists[k]))
        worst_weight = max(worst_weight, abs(float(weights[k]) - float(w)))
    return worst_point, worst_weight


# -- the reference for normal forms and affine forms: rewrite rules applied
# -- one tuple at a time, and forms accumulated one term at a time


class _CapExceeded(Exception):
    pass


def _divides(lhs, t):
    return all(map(le, lhs, t))


class ReferenceRewriter:
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


def reference_inter_reduce(exponents, table, cap, budget):
    """Each rule's right side reduced by the others until stable."""
    table = dict(table)
    demoted = []
    for _ in range(50):
        changed = False
        for lhs in sorted(table, key=exponents.sort_key):
            rhs = table[lhs]
            others = [(l, r) for l, r in table.items() if l != lhs]
            new_rhs = ReferenceRewriter(exponents, others, cap, budget).reduce_terms(rhs)
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


class RefForm:
    """An affine form const + sum coeffs[i] * y_i, its coefficients a dict
    without zeros, in the order they were first added."""

    def __init__(self, const=0.0, coeffs=None):
        self.const = float(const)
        self.coeffs = {i: float(c) for i, c in (coeffs or {}).items() if c != 0.0}

    def value(self, y):
        return self.const + sum(c * y[i] for i, c in self.coeffs.items())

    def scaled(self, factor):
        return RefForm(self.const * factor, {i: c * factor for i, c in self.coeffs.items()})


def _accumulate(const, coeffs, form, factor):
    const += factor * form.const
    for i, c in form.coeffs.items():
        coeffs[i] = coeffs.get(i, 0.0) + factor * c
    return const


class ReferenceForms:
    """Affine forms of a relaxation's moments, one tuple at a time.

    Takes the substitution plan from extract_substitution_rules and the
    representatives from a fresh MomentIndex (the rules' inter-reduction
    and the representatives are checked against the references above on
    their own).  Numbers the moments and resolves the moment bindings
    again, and builds every form as a RefForm from the normal forms of
    ReferenceRewriter, accumulating one term at a time.  ``plan`` ends
    up with the bindings that fell back to rows.
    """

    def __init__(self, problem, order):
        self.order = order
        self.plan = extract_substitution_rules(problem, order)
        self.index = MomentIndex(problem.measures, order, self.plan.rules)
        self.exponents = self.index.exponents
        self.rewriters = {}
        for measure in self.index.measures:
            exponents = self.exponents[measure]
            rules = list(self.plan.rules.get(measure, {}).items())
            budget = [10 * basis_size(len(measure.vars), 2 * order)]
            self.rewriters[measure] = ReferenceRewriter(exponents, rules, 2 * order, budget)
        self.bound = {}
        self.n_bindings = self._resolve_bindings()

    def _number(self):
        self.var_of = {}
        for measure in self.index.measures:
            for t in self.index.representatives[measure]:
                if (measure, t) not in self.bound:
                    self.var_of[(measure, t)] = len(self.var_of)

    def form_of_exponents(self, measure, t):
        const, coeffs = 0.0, {}
        for rep, coeff in self.rewriters[measure].reduce(t).items():
            bound = self.bound.get((measure, rep))
            if bound is not None:
                const = _accumulate(const, coeffs, bound, coeff)
            else:
                idx = self.var_of[(measure, rep)]
                coeffs[idx] = coeffs.get(idx, 0.0) + coeff
        return RefForm(const, coeffs)

    def form_of_terms(self, measure, terms):
        const, coeffs = 0.0, {}
        for t, coeff in terms.items():
            const = _accumulate(const, coeffs, self.form_of_exponents(measure, t), coeff)
        return RefForm(const, coeffs)

    def form_of_poly(self, measure, poly):
        return self.form_of_terms(measure, self.exponents[measure].terms(poly))

    def form_of_expression(self, expr):
        const, coeffs = expr.constant, {}
        for measure, poly in expr.terms_by_label():
            const = _accumulate(const, coeffs, self.form_of_poly(measure, poly), 1.0)
        return RefForm(const, coeffs)

    def _resolve_bindings(self):
        self._number()
        provisional = list(self.var_of)
        n_bound = 0
        for measure, mono, rhs, con in self.plan.binding_candidates:
            t = self.exponents[measure].of(mono)
            key = (measure, t)
            if key in self.bound or self.rewriters[measure].reduce(t) != {t: 1.0}:
                self.plan.kept_moment_constraints.append(con)
                continue
            lhs_form = self.form_of_expression(con.lhs)
            rhs_form = self.form_of_expression(rhs)
            tvar = self.var_of[key]
            pivot = lhs_form.coeffs.get(tvar, 0.0) - rhs_form.coeffs.get(tvar, 0.0)
            if pivot == 0.0:
                self.plan.kept_moment_constraints.append(con)
                continue
            coeffs = {}
            for i, c in rhs_form.coeffs.items():
                if i != tvar:
                    coeffs[i] = coeffs.get(i, 0.0) + c / pivot
            for i, c in lhs_form.coeffs.items():
                if i != tvar:
                    coeffs[i] = coeffs.get(i, 0.0) - c / pivot
            bound_form = RefForm((rhs_form.const - lhs_form.const) / pivot, coeffs)
            for other, form in list(self.bound.items()):
                c = form.coeffs.get(tvar)
                if c is not None:
                    rest = {i: v for i, v in form.coeffs.items() if i != tvar}
                    self.bound[other] = RefForm(
                        _accumulate(form.const, rest, bound_form, c), rest
                    )
            self.bound[key] = bound_form
            n_bound += 1
        self._number()
        for key, form in list(self.bound.items()):
            coeffs = {self.var_of[provisional[i]]: c for i, c in form.coeffs.items()}
            self.bound[key] = RefForm(form.const, coeffs)
        return n_bound
