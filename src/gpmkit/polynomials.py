"""Sparse multivariate polynomials over measure-tagged variables.

Variables are scalar symbols attached to a measure.  A monomial is a
product of variable powers, a polynomial a finite real combination of
monomials stored sparsely by exponent.  All arithmetic is exact on the
sparse structure; coefficients are floats.

``Monomial`` and ``Polynomial`` are the modeling representation: they
mix variables of any measure and key a monomial by its variables.  The
relaxation works on the monomials of one measure at a time and writes
them as exponent tuples over that measure's variable list;
``ExponentMap`` converts between the two, and ``exponent_array`` and
``exponent_tuples`` list the tuples in grlex order.

Monomials are ordered by graded lexicographic order: lower total degree
first, ties broken lexicographically on the exponent vector over the
variable list (earlier variables dominate).  For two variables this
yields 1, x1, x2, x1^2, x1*x2, x2^2, ...
"""

from __future__ import annotations

import itertools
import math
from typing import Iterable, Mapping

import numpy as np

_UID = itertools.count()


class PolyError(ValueError):
    """Invalid polynomial construction or operation."""


class VarRef:
    """A scalar variable symbol.

    Identity is the symbol: two VarRef objects are the same variable only
    if they are the same object.  ``measure`` is maintained by the model
    layer and may be reassigned when variables move between measures.
    """

    __slots__ = ("name", "uid", "measure")

    def __init__(self, name, measure=None):
        self.name = str(name)
        self.uid = next(_UID)
        self.measure = measure

    @property
    def index(self):
        """Position of this variable inside its measure's variable list."""
        if self.measure is None:
            raise PolyError(f"variable {self.name} is not attached to a measure")
        return self.measure.vars.index(self)

    def __repr__(self):
        return self.name


class Monomial:
    """A product of variable powers, canonically sorted by variable uid.

    ``exps`` holds (variable, power) pairs with positive powers in uid
    order, so equal monomials have equal tuples whatever variables and
    measures they mix.
    """

    __slots__ = ("exps", "_hash")

    def __init__(self, exps=()):
        items = []
        for var, power in exps:
            power = int(power)
            if power < 0:
                raise PolyError("negative exponent in monomial")
            if power > 0:
                items.append((var, power))
        items.sort(key=lambda vp: vp[0].uid)
        uids = [v.uid for v, _ in items]
        if len(set(uids)) != len(uids):
            merged = {}
            for var, power in items:
                merged[var] = merged.get(var, 0) + power
            items = sorted(merged.items(), key=lambda vp: vp[0].uid)
        self.exps = tuple(items)
        self._hash = hash(tuple((v.uid, p) for v, p in self.exps))

    @classmethod
    def from_canonical(cls, exps):
        """Monomial from (variable, power) pairs already in canonical form.

        ``exps`` must hold positive powers of distinct variables in uid
        order; nothing is checked, so ``ExponentMap`` skips the sort and
        merge of the constructor.
        """
        self = object.__new__(cls)
        self.exps = exps
        self._hash = hash(tuple((v.uid, p) for v, p in exps))
        return self

    @property
    def degree(self):
        return sum(p for _, p in self.exps)

    @property
    def is_constant(self):
        return not self.exps

    def variables(self):
        return tuple(v for v, _ in self.exps)

    def exponent(self, var):
        for v, p in self.exps:
            if v is var:
                return p
        return 0

    def mul(self, other):
        return Monomial(self.exps + other.exps)

    def eval(self, point):
        value = 1.0
        for v, p in self.exps:
            if v not in point:
                raise PolyError(f"unassigned variable: {v.name}")
            value *= point[v] ** p
        return value

    def diff(self, var):
        """Return (k, m) with d/dvar of self equal to k * m."""
        p = self.exponent(var)
        if p == 0:
            return 0, Monomial()
        rest = [(v, q) for v, q in self.exps if v is not var]
        rest.append((var, p - 1))
        return p, Monomial(rest)

    def __eq__(self, other):
        if not isinstance(other, Monomial):
            return NotImplemented
        # exps is canonical (uid-sorted, merged) and VarRef equality is
        # identity, so the tuples compare directly
        return self.exps == other.exps

    def __hash__(self):
        return self._hash

    def __repr__(self):
        if not self.exps:
            return "1"
        parts = []
        for v, p in self.exps:
            parts.append(v.name if p == 1 else f"{v.name}^{p}")
        return "".join(parts)


def grlex_key(monomial, varlist):
    """Sort key for graded lexicographic order over ``varlist``."""
    return (monomial.degree, tuple(-monomial.exponent(v) for v in varlist))


def _format_coeff(c):
    if c == int(c) and abs(c) < 1e15:
        return str(int(c))
    return f"{c:.5g}"


class Polynomial:
    """A real polynomial stored as a map from monomials to coefficients.

    Zero coefficients are dropped on construction, so structural equality
    of the term maps is canonical.  Comparison operators (==, <=, >=) do
    not test equality; they build constraints for the modeling layer.
    """

    __slots__ = ("_terms", "measure_hint")
    __array_ufunc__ = None
    __array_priority__ = 1000

    def __init__(self, terms=None):
        self.measure_hint = None
        data = {}
        if terms:
            for mono, coeff in terms.items():
                coeff = float(coeff)
                if coeff != 0.0:
                    data[mono] = data.get(mono, 0.0) + coeff
                    if data[mono] == 0.0:
                        del data[mono]
        self._terms = data

    @classmethod
    def constant(cls, value):
        return cls({Monomial(): float(value)})

    @classmethod
    def variable(cls, var):
        return cls({Monomial(((var, 1),)): 1.0})

    @property
    def terms(self):
        return dict(self._terms)

    @property
    def degree(self):
        if not self._terms:
            return 0
        return max(m.degree for m in self._terms)

    @property
    def is_zero(self):
        return not self._terms

    @property
    def is_constant(self):
        return all(m.is_constant for m in self._terms)

    @property
    def constant_term(self):
        return self._terms.get(Monomial(), 0.0)

    def coefficient(self, monomial):
        return self._terms.get(monomial, 0.0)

    def variables(self):
        seen = {}
        for mono in self._terms:
            for v in mono.variables():
                seen[v.uid] = v
        return tuple(seen[u] for u in sorted(seen))

    def measures(self):
        out = []
        for v in self.variables():
            if v.measure is None:
                raise PolyError(f"variable {v.name} is not attached to a measure")
            if v.measure not in out:
                out.append(v.measure)
        return out

    def equals(self, other):
        """Structural equality of canonical term maps (exact coefficients)."""
        return self._terms == as_polynomial(other)._terms

    def eval(self, point):
        point = _normalize_point(point)
        return sum(c * m.eval(point) for m, c in self._terms.items())

    def diff(self, var):
        var = as_varref(var)
        out = {}
        for mono, coeff in self._terms.items():
            k, dm = mono.diff(var)
            if k:
                out[dm] = out.get(dm, 0.0) + k * coeff
        return Polynomial(out)

    def _combine(self, other, sign):
        data = dict(self._terms)
        for mono, coeff in other._terms.items():
            data[mono] = data.get(mono, 0.0) + sign * coeff
        return Polynomial(data)

    def __add__(self, other):
        if isinstance(other, np.ndarray):
            return _broadcast(other, lambda p: self + p)
        if isinstance(other, (int, float)):
            other = Polynomial.constant(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self._combine(other, 1.0)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, np.ndarray):
            return _broadcast(other, lambda p: self - p)
        if isinstance(other, (int, float)):
            other = Polynomial.constant(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self._combine(other, -1.0)

    def __rsub__(self, other):
        if isinstance(other, np.ndarray):
            return _broadcast(other, lambda p: p - self)
        if isinstance(other, (int, float)):
            return Polynomial.constant(other) - self
        return NotImplemented

    def __neg__(self):
        return Polynomial({m: -c for m, c in self._terms.items()})

    def __pos__(self):
        return self

    def __mul__(self, other):
        if isinstance(other, np.ndarray):
            return _broadcast(other, lambda p: self * p)
        if isinstance(other, (int, float)):
            return Polynomial({m: c * other for m, c in self._terms.items()})
        if not isinstance(other, Polynomial):
            return NotImplemented
        out = {}
        for m1, c1 in self._terms.items():
            for m2, c2 in other._terms.items():
                prod = m1.mul(m2)
                out[prod] = out.get(prod, 0.0) + c1 * c2
        return Polynomial(out)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, float)):
            return self * (1.0 / other)
        return NotImplemented

    def __pow__(self, exponent):
        if not isinstance(exponent, int) or exponent < 0:
            raise PolyError("polynomial powers must be nonnegative integers")
        result = Polynomial.constant(1.0)
        for _ in range(exponent):
            result = result * self
        return result

    def __eq__(self, other):
        from .model import relate
        return relate(self, "==", other)

    def __le__(self, other):
        from .model import relate
        return relate(self, "<=", other)

    def __ge__(self, other):
        from .model import relate
        return relate(self, ">=", other)

    def __lt__(self, other):
        raise PolyError("strict inequalities are not supported")

    __gt__ = __lt__

    __hash__ = object.__hash__

    def __repr__(self):
        if not self._terms:
            return "0"
        varlist = self.variables()
        parts = []
        for mono in sorted(self._terms, key=lambda m: grlex_key(m, varlist)):
            coeff = self._terms[mono]
            body = _format_coeff(abs(coeff))
            if not mono.is_constant:
                body = repr(mono) if abs(coeff) == 1.0 else body + repr(mono)
            if not parts:
                parts.append(body if coeff > 0 else "-" + body)
            else:
                parts.append(("+" if coeff > 0 else "-") + body)
        return "".join(parts)


def _broadcast(array, fn):
    out = np.empty(array.shape, dtype=object)
    flat = out.reshape(-1)
    for k, item in enumerate(np.asarray(array, dtype=object).reshape(-1)):
        flat[k] = fn(item)
    return out if array.shape else flat[0]


def as_polynomial(value):
    """Coerce a number or polynomial to a Polynomial."""
    if isinstance(value, Polynomial):
        return value
    if isinstance(value, (int, float, np.integer, np.floating)):
        return Polynomial.constant(float(value))
    raise PolyError(f"cannot interpret {value!r} as a polynomial")


def as_varref(target):
    """Coerce a VarRef or a single-variable monic polynomial to a VarRef."""
    if isinstance(target, VarRef):
        return target
    if isinstance(target, Polynomial):
        terms = target._terms
        if len(terms) == 1:
            (mono, coeff), = terms.items()
            if coeff == 1.0 and len(mono.exps) == 1 and mono.exps[0][1] == 1:
                return mono.exps[0][0]
    raise PolyError(f"expected a variable, got {target!r}")


def varref_list(targets):
    """Flatten variables / variable polynomials / arrays into VarRef list."""
    if isinstance(targets, (VarRef, Polynomial)):
        return [as_varref(targets)]
    if isinstance(targets, np.ndarray):
        targets = targets.reshape(-1).tolist()
    out = []
    for item in targets:
        out.extend(varref_list(item))
    return out


def _normalize_point(point):
    out = {}
    for key, value in point.items():
        out[as_varref(key)] = float(value)
    return out


def basis_size(nvars, degree):
    """Number of monomials in nvars variables of total degree <= degree."""
    return math.comb(nvars + degree, nvars)


def monomials(variables, degree):
    """All monomials in the given variables up to total degree ``degree``.

    Returns a 1-d object array of monic polynomials in graded
    lexicographic order, starting with the constant 1.  All variables
    must belong to the same measure.
    """
    varlist = varref_list(variables)
    if not varlist:
        raise PolyError("monomials requires at least one variable")
    if len(set(v.uid for v in varlist)) != len(varlist):
        raise PolyError("duplicate variable in monomial basis")
    measures = {id(v.measure): v.measure for v in varlist}
    if len(measures) > 1:
        raise PolyError("variables from several measures")
    degree = int(degree)
    if degree < 0:
        raise PolyError("degree must be nonnegative")
    tuples = exponent_tuples(len(varlist), degree)
    emap = ExponentMap(varlist)
    measure = next(iter(measures.values()), None)
    out = np.empty(len(tuples), dtype=object)
    for k, t in enumerate(tuples):
        mono = emap.monomial(t)
        poly = Polynomial({mono: 1.0})
        if mono.is_constant and measure is not None:
            # keep the constant attached to the basis measure so that
            # mom() on the vector stays well defined
            poly.measure_hint = measure
        out[k] = poly
    return out


class ExponentMap:
    """Exponent tuples over a fixed VarRef list, and back to monomials.

    Converts monomials and polynomials (term maps keyed by ``Monomial``)
    to tuples and term maps keyed by tuples, and back.  Each tuple is
    turned into a ``Monomial`` at most once.
    """

    def __init__(self, varlist):
        self.vars = tuple(varlist)
        self.pos = {v: k for k, v in enumerate(self.vars)}
        self.by_uid = sorted(range(len(self.vars)), key=lambda k: self.vars[k].uid)
        self._monos = {}

    def of(self, mono):
        exps = [0] * len(self.vars)
        for v, p in mono.exps:
            k = self.pos.get(v)
            if k is None:
                raise PolyError(f"variable {v.name} is not in the list {self.vars}")
            exps[k] = p
        return tuple(exps)

    def terms(self, poly):
        return {self.of(mono): coeff for mono, coeff in poly.terms.items()}

    def monomial(self, t):
        mono = self._monos.get(t)
        if mono is None:
            mono = Monomial.from_canonical(
                tuple((self.vars[k], t[k]) for k in self.by_uid if t[k])
            )
            self._monos[t] = mono
        return mono

    def polynomial(self, terms):
        return Polynomial({self.monomial(t): c for t, c in terms.items()})

    def sort_key(self, t):
        """Deterministic graded order: degree, then (uid, power) pairs."""
        return (sum(t), tuple((self.vars[k].uid, t[k]) for k in self.by_uid if t[k]))


def exponent_array(nvars, degree):
    """Exponent vectors of total degree <= degree as int64 rows, in grlex order.

    Rows come by total degree, then lexicographically descending, so
    (1, 0) (x1) comes before (0, 1) (x2).  This matches ``grlex_key``
    over the same variable list.  ``exact[d]`` holds the rows of degree
    exactly d over the last k variables, in order; one more variable
    puts each leading exponent e = d, ..., 0 before ``exact[d - e]``.
    """
    if nvars == 0:
        return np.zeros((1, 0), dtype=np.int64)
    exact = [np.full((1, 1), d, dtype=np.int64) for d in range(degree + 1)]
    for k in range(2, nvars + 1):
        longer = []
        for d in range(degree + 1):
            tails = exact[: d + 1]
            rows = np.empty((sum(map(len, tails)), k), dtype=np.int64)
            rows[:, 0] = np.repeat(np.arange(d, -1, -1), list(map(len, tails)))
            rows[:, 1:] = np.concatenate(tails)
            longer.append(rows)
        exact = longer
    return np.concatenate(exact)


def exponent_tuples(nvars, degree):
    """The rows of ``exponent_array`` as tuples of ints, in grlex order."""
    return list(map(tuple, exponent_array(nvars, degree).tolist()))


def diff(target, variables):
    """Differentiate a polynomial or polynomial array.

    With a scalar polynomial and a single variable the result is a
    polynomial.  Otherwise the result is a 2-d object array whose rows
    follow the flattened entries of ``target`` and whose columns follow
    the variables (a Jacobian for vector arguments).
    """
    scalar_target = isinstance(target, Polynomial)
    scalar_var = isinstance(variables, (VarRef, Polynomial))
    if scalar_target and scalar_var:
        return target.diff(as_varref(variables))
    if scalar_target:
        entries = [target]
    else:
        entries = [as_polynomial(p) for p in np.asarray(target, dtype=object).reshape(-1)]
    varlist = varref_list(variables)
    out = np.empty((len(entries), len(varlist)), dtype=object)
    for i, poly in enumerate(entries):
        for j, var in enumerate(varlist):
            out[i, j] = poly.diff(var)
    return out
