"""Measures, moment expressions and problem statements.

A model is a set of measures, each owning scalar variables.  Moment
expressions are affine combinations of moments: a constant plus, per
measure, the integral of a polynomial against that measure.  The mass
of a measure is the moment of its unit polynomial.  Problems combine a
moment objective with support constraints (pointwise polynomial
constraints on the support of one measure) and moment constraints
(affine constraints coupling moments of any measures).
"""

from __future__ import annotations

import numpy as np

from .polynomials import (
    Monomial,
    PolyError,
    Polynomial,
    VarRef,
    _broadcast,
    as_polynomial,
    varref_list,
)


class ModelError(ValueError):
    """Invalid model construction."""


class Measure:
    """A measure with an ordered list of variables spanning its support.

    ``support_points`` and ``weights`` describe a discrete measure, a
    sum of weighted Dirac atoms.  They are evaluation data: assembling a
    relaxation ignores them, and solving overwrites them with extracted
    atoms when optimality is certified.  ``moments`` holds the truncated
    moment vector of the most recent relaxation solution, a float array
    in the order of ``mvec``.
    """

    def __init__(self, context, label, variables):
        self.context = context
        self.label = label
        self.vars = list(variables)
        self.support_points = None
        self.weights = None
        self.moments = None

    @property
    def nvars(self):
        return len(self.vars)

    def unit(self):
        """The constant-one polynomial tagged with this measure."""
        one = Polynomial.constant(1.0)
        one.measure_hint = self
        return one

    def set_support(self, points, weights=None):
        points = np.atleast_2d(np.asarray(points, dtype=float))
        if points.shape[1] != self.nvars:
            raise ModelError(
                f"support points have {points.shape[1]} coordinates, "
                f"measure {self.label} has {self.nvars} variables"
            )
        npoints = points.shape[0]
        if weights is None:
            weights = np.full(npoints, 1.0 / npoints)
        else:
            weights = np.asarray(weights, dtype=float).reshape(-1)
            if weights.shape[0] != npoints:
                raise ModelError("one weight per support point is required")
            if np.any(weights < 0):
                raise ModelError("weights must be nonnegative")
        self.support_points = points
        self.weights = weights

    def clear_support(self):
        self.support_points = None
        self.weights = None

    def __repr__(self):
        names = ",".join(v.name for v in self.vars)
        text = f"measure {self.label} on {self.nvars} variable(s): {names}"
        if self.support_points is not None:
            text += f"; discrete support on {self.support_points.shape[0]} point(s)"
        return text


class ModelContext:
    """Factory and registry for variables and measures.

    Newly declared variables join the most recently created measure;
    ``new_measure`` regroups existing variables into a fresh measure.
    Labels increase monotonically and are never reused, and a measure
    emptied by regrouping is dropped from the registry.
    """

    def __init__(self):
        self.measures = []
        self._next_label = 1
        self._names = set()

    def _current_measure(self):
        if not self.measures:
            measure = Measure(self, self._next_label, [])
            self._next_label += 1
            self.measures.append(measure)
        return self.measures[-1]

    def _new_var(self, name, measure):
        if name in self._names:
            raise ModelError(f"duplicate variable name: {name}")
        self._names.add(name)
        var = VarRef(name, measure)
        measure.vars.append(var)
        return var

    def var(self, name):
        """Declare one scalar variable, returned as a polynomial."""
        measure = self._current_measure()
        return Polynomial.variable(self._new_var(name, measure))

    def vars(self, name, rows, cols=None):
        """Declare a vector or matrix of variables named name(i) / name(i,j)."""
        measure = self._current_measure()
        if cols is None:
            out = np.empty(rows, dtype=object)
            for i in range(rows):
                out[i] = Polynomial.variable(self._new_var(f"{name}({i + 1})", measure))
        else:
            out = np.empty((rows, cols), dtype=object)
            for i in range(rows):
                for j in range(cols):
                    out[i, j] = Polynomial.variable(
                        self._new_var(f"{name}({i + 1},{j + 1})", measure)
                    )
        return out

    def new_measure(self, variables):
        """Regroup the given variables into a new measure."""
        varlist = varref_list(variables)
        if not varlist:
            raise ModelError("new_measure requires at least one variable")
        if len(set(v.uid for v in varlist)) != len(varlist):
            raise ModelError("duplicate variable in new_measure")
        measure = Measure(self, self._next_label, [])
        self._next_label += 1
        for var in varlist:
            old = var.measure
            if old is not None:
                old.vars.remove(var)
                if not old.vars and old in self.measures:
                    self.measures.remove(old)
            var.measure = measure
            measure.vars.append(var)
        self.measures.append(measure)
        return measure

    def measure(self, label):
        measure = measure_with_label(self.measures, label)
        if measure is None:
            raise ModelError(f"no measure with label {label}")
        return measure

    def mass(self, target):
        if isinstance(target, int):
            target = self.measure(target)
        return mass(target)

    def assign(self, variables, values, weights=None):
        """Give the measure of the variables a discrete support.

        ``values`` holds one point per row, coordinates ordered as the
        variables are passed; a flat array is a single point.  Default
        weights are uniform 1/N, a probability measure.
        """
        varlist = varref_list(variables)
        measure = _unique_measure_of_vars(varlist)
        if set(v.uid for v in varlist) != set(v.uid for v in measure.vars):
            raise ModelError(
                f"assign must cover all variables of measure {measure.label}"
            )
        values = np.asarray(values, dtype=float)
        if values.ndim == 0:
            values = values.reshape(1, 1)
        elif values.ndim == 1:
            values = values.reshape(1, -1)
        if values.shape[1] != len(varlist):
            raise ModelError(
                f"points have {values.shape[1]} coordinates, expected {len(varlist)}"
            )
        order = [varlist.index(v) for v in measure.vars]
        measure.set_support(values[:, order], weights)
        return measure


def measure_with_label(measures, label):
    """The measure of the list with the given label, or None."""
    return next((m for m in measures if m.label == label), None)


def _unique_measure_of_vars(varlist):
    measures = []
    for v in varlist:
        if v.measure is None:
            raise ModelError(f"variable {v.name} is not attached to a measure")
        if v.measure not in measures:
            measures.append(v.measure)
    if len(measures) != 1:
        raise ModelError("variables from several measures")
    return measures[0]


class MomentExpression:
    """An affine expression in moments: constant + sum of mom terms.

    Stored per measure as the polynomial integrated against it.  Linear
    in the measures by construction; products of moment expressions are
    rejected.
    """

    __slots__ = ("constant", "_terms")
    __array_ufunc__ = None
    __array_priority__ = 1000

    def __init__(self, constant=0.0, terms=None):
        self.constant = float(constant)
        data = {}
        if terms:
            for measure, poly in terms.items():
                if not poly.is_zero:
                    data[measure] = poly
        self._terms = data

    @property
    def terms(self):
        return dict(self._terms)

    def terms_by_label(self):
        return sorted(self._terms.items(), key=lambda kv: kv[0].label)

    @property
    def degree(self):
        if not self._terms:
            return 0
        return max(p.degree for p in self._terms.values())

    def measures(self):
        return [m for m, _ in self.terms_by_label()]

    @property
    def is_constant(self):
        return not self._terms

    def equals(self, other):
        """Structural equality: same constant, same polynomial per measure."""
        other = as_moment_expression(other)
        if self.constant != other.constant:
            return False
        if set(id(m) for m in self._terms) != set(id(m) for m in other._terms):
            return False
        return all(p.equals(other._terms[m]) for m, p in self._terms.items())

    def _combine(self, other, sign):
        terms = dict(self._terms)
        for measure, poly in other._terms.items():
            base = terms.get(measure, Polynomial())
            terms[measure] = base._combine(poly, sign)
        return MomentExpression(self.constant + sign * other.constant, terms)

    def __add__(self, other):
        if isinstance(other, np.ndarray):
            return _broadcast(other, lambda e: self + e)
        other = as_moment_expression(other)
        return self._combine(other, 1.0)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, np.ndarray):
            return _broadcast(other, lambda e: self - e)
        other = as_moment_expression(other)
        return self._combine(other, -1.0)

    def __rsub__(self, other):
        return as_moment_expression(other) - self

    def __neg__(self):
        return MomentExpression(
            -self.constant, {m: -p for m, p in self._terms.items()}
        )

    def __pos__(self):
        return self

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return MomentExpression(
                self.constant * other, {m: p * other for m, p in self._terms.items()}
            )
        raise ModelError("Invalid moment product")

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, float)):
            return self * (1.0 / other)
        raise ModelError("Invalid moment product")

    def __eq__(self, other):
        return relate(self, "==", other)

    def __le__(self, other):
        return relate(self, "<=", other)

    def __ge__(self, other):
        return relate(self, ">=", other)

    def __lt__(self, other):
        raise ModelError("strict inequalities are not supported")

    __gt__ = __lt__

    __hash__ = object.__hash__

    def __repr__(self):
        parts = []
        for measure, poly in self.terms_by_label():
            parts.append(f"I[{poly!r}]d[{measure.label}]")
        if self.constant != 0.0 or not parts:
            parts.append(repr(self.constant))
        return " + ".join(parts)


def as_moment_expression(value):
    if isinstance(value, MomentExpression):
        return value
    if isinstance(value, (int, float, np.integer, np.floating)):
        return MomentExpression(float(value))
    if isinstance(value, Polynomial):
        raise ModelError(
            "cannot combine a polynomial with a moment expression; apply mom() first"
        )
    raise ModelError(f"cannot interpret {value!r} as a moment expression")


def mom(target):
    """The moment of a polynomial with respect to its measure.

    The zero polynomial gives the zero moment expression.  Any other
    polynomial must reference exactly one measure; a nonzero constant
    only qualifies when tagged by Measure.unit().  Arrays broadcast
    entrywise.
    """
    if isinstance(target, np.ndarray):
        return _broadcast(target, mom)
    poly = as_polynomial(target)
    if poly.is_zero:
        return MomentExpression(0.0)
    measures = poly.measures()
    if not measures:
        hint = getattr(poly, "measure_hint", None)
        if hint is not None:
            return MomentExpression(0.0, {hint: poly})
        raise ModelError("Invalid partitioning of measures in moments")
    if len(measures) != 1:
        raise ModelError("Invalid partitioning of measures in moments")
    return MomentExpression(0.0, {measures[0]: poly})


def mass(target):
    """The mass of a measure: the moment of its unit polynomial."""
    if isinstance(target, Measure):
        return mom(target.unit())
    varlist = varref_list(target)
    measure = _unique_measure_of_vars(varlist)
    return mom(measure.unit())


class SupportConstraint:
    """A pointwise polynomial constraint on the support of one measure."""

    def __init__(self, lhs, rel, rhs):
        if rel not in ("==", "<=", ">="):
            raise ModelError(f"unsupported relation: {rel}")
        self.lhs = as_polynomial(lhs)
        self.rhs = as_polynomial(rhs)
        self.rel = rel
        measures = []
        for poly in (self.lhs, self.rhs):
            for m in poly.measures():
                if m not in measures:
                    measures.append(m)
        if len(measures) != 1:
            raise ModelError("Invalid reference to several measures")
        self.measure = measures[0]

    @property
    def degree(self):
        return max(self.lhs.degree, self.rhs.degree)

    def residual(self):
        """lhs - rhs, the polynomial constrained to be (rel) zero."""
        return self.lhs - self.rhs

    def gform(self):
        """The constraint as g == 0 or g >= 0."""
        if self.rel == "<=":
            return self.rhs - self.lhs
        return self.lhs - self.rhs

    def __repr__(self):
        return f"{self.lhs!r} {self.rel} {self.rhs!r}"


class MomentConstraint:
    """An affine constraint on moments, possibly across measures."""

    def __init__(self, lhs, rel, rhs, is_default_mass=False):
        if rel not in ("==", "<=", ">="):
            raise ModelError(f"unsupported relation: {rel}")
        self.lhs = as_moment_expression(lhs)
        self.rhs = as_moment_expression(rhs)
        self.rel = rel
        self.is_default_mass = is_default_mass

    @property
    def degree(self):
        return max(self.lhs.degree, self.rhs.degree)

    def measures(self):
        out = []
        for expr in (self.lhs, self.rhs):
            for m in expr.measures():
                if m not in out:
                    out.append(m)
        return sorted(out, key=lambda m: m.label)

    def residual(self):
        """lhs - rhs, the moment expression constrained to be (rel) zero."""
        return self.lhs - self.rhs

    def __repr__(self):
        return f"{self.lhs!r} {self.rel} {self.rhs!r}"


def relate(lhs, rel, rhs):
    """Build the constraint lhs (rel) rhs, classified by operand types."""
    if isinstance(lhs, np.ndarray) or isinstance(rhs, np.ndarray):
        raise ModelError(
            "array operands: use support_constraint or moment_constraint"
        )
    if isinstance(lhs, MomentExpression) or isinstance(rhs, MomentExpression):
        return MomentConstraint(lhs, rel, rhs)
    return SupportConstraint(lhs, rel, rhs)


def _broadcast_pairs(lhs, rhs):
    lhs_arr = np.asarray(lhs, dtype=object)
    rhs_arr = np.asarray(rhs, dtype=object)
    shape = np.broadcast_shapes(lhs_arr.shape, rhs_arr.shape)
    lhs_arr = np.broadcast_to(lhs_arr, shape)
    rhs_arr = np.broadcast_to(rhs_arr, shape)
    return zip(lhs_arr.reshape(-1).tolist(), rhs_arr.reshape(-1).tolist())


def support_constraint(lhs, rel, rhs):
    """Entrywise support constraints; returns a flat list."""
    return [SupportConstraint(a, rel, b) for a, b in _broadcast_pairs(lhs, rhs)]


def moment_constraint(lhs, rel, rhs):
    """Entrywise moment constraints; returns a flat list."""
    return [MomentConstraint(a, rel, b) for a, b in _broadcast_pairs(lhs, rhs)]


class Objective:
    def __init__(self, direction, expr):
        if direction not in ("min", "max"):
            raise ModelError(f"unsupported direction: {direction}")
        expr = as_moment_expression(expr)
        if expr.is_constant:
            raise ModelError("objective references no measure")
        self.direction = direction
        self.expr = expr

    def __repr__(self):
        return f"{self.direction} {self.expr!r}"


def minimize(target):
    """Minimization objective; a polynomial is shorthand for its moment."""
    if isinstance(target, Polynomial):
        target = mom(target)
    return Objective("min", target)


def maximize(target):
    if isinstance(target, Polynomial):
        target = mom(target)
    return Objective("max", target)


def _flatten_constraints(items, out):
    if isinstance(items, (SupportConstraint, MomentConstraint)):
        out.append(items)
        return
    if isinstance(items, np.ndarray):
        items = items.reshape(-1).tolist()
    elif not isinstance(items, (list, tuple)):
        raise ModelError(f"not a constraint: {items!r}")
    for item in items:
        _flatten_constraints(item, out)


class GPMProblem:
    """A generalized problem of moments.

    Collects an objective with support and moment constraints, checks
    that every referenced measure belongs to one shared model context.
    """

    def __init__(self, objective, constraints=()):
        if not isinstance(objective, Objective):
            raise ModelError("objective must be built with minimize() or maximize()")
        flat = []
        _flatten_constraints(list(constraints), flat)
        self.objective = objective
        self.support_constraints = [
            c for c in flat if isinstance(c, SupportConstraint)
        ]
        self.moment_constraints = [
            c for c in flat if isinstance(c, MomentConstraint)
        ]
        measures = []
        for m in objective.expr.measures():
            if m not in measures:
                measures.append(m)
        for con in self.support_constraints:
            if con.measure not in measures:
                measures.append(con.measure)
        for con in self.moment_constraints:
            for m in con.measures():
                if m not in measures:
                    measures.append(m)
        contexts = []
        for m in measures:
            if m.context not in contexts:
                contexts.append(m.context)
        if len(contexts) != 1:
            raise ModelError("measures come from different model contexts")
        self.context = contexts[0]
        for m in measures:
            if m not in self.context.measures:
                raise ModelError(f"measure {m.label} is empty or was regrouped away")
        self.measures = sorted(measures, key=lambda m: m.label)

    def __repr__(self):
        return (
            f"GPM with {len(self.measures)} measure(s), "
            f"{len(self.support_constraints)} support constraint(s), "
            f"{len(self.moment_constraints)} moment constraint(s)"
        )


def eval_on_support(target, measure=None):
    """Evaluate on discrete supports.

    A Measure gives its support coordinates, one point per row.  A
    polynomial gives its values on the support of its measure, one per
    point.  Arrays of polynomials evaluate entrywise with the point
    dimension first.  A moment expression integrates each term against
    the discrete measure and returns a scalar.
    """
    if isinstance(target, Measure):
        _require_support(target)
        return np.array(target.support_points, copy=True)
    if isinstance(target, MomentExpression):
        total = target.constant
        for m, poly in target.terms_by_label():
            _require_support(m)
            for point, weight in zip(m.support_points, m.weights):
                total += weight * poly.eval(dict(zip(m.vars, point)))
        return total
    if isinstance(target, np.ndarray):
        polys = [as_polynomial(p) for p in target.reshape(-1).tolist()]
        if measure is None:
            measure = _unique_measure_of_polys(polys)
        entries = [eval_on_support(p, measure) for p in polys]
        stacked = np.stack(entries, axis=-1)
        return stacked.reshape(stacked.shape[:1] + target.shape)
    poly = as_polynomial(target)
    if measure is None:
        measure = _unique_measure_of_polys([poly])
    _require_support(measure)
    values = [
        poly.eval(dict(zip(measure.vars, point)))
        for point in measure.support_points
    ]
    return np.asarray(values, dtype=float)


def _unique_measure_of_polys(polys):
    measures = []
    for poly in polys:
        for m in poly.measures():
            if m not in measures:
                measures.append(m)
    if len(measures) > 1:
        raise ModelError(
            "polynomial references several measures; pass the measure explicitly"
        )
    if not measures:
        raise ModelError("constant polynomial: pass the measure explicitly")
    return measures[0]


def _require_support(measure):
    if measure.support_points is None:
        raise ModelError("measure has no discrete support")
