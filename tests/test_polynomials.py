"""Polynomial ring arithmetic against evaluation and finite differences.

Evaluation at random points is a ring homomorphism, so arithmetic on
coefficients must commute with arithmetic on floats; derivatives must
match central finite differences of the evaluated function.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gpmkit import (
    ModelContext,
    PolyError,
    Polynomial,
    basis_size,
    diff,
    grlex_key,
    monomials,
)

from gpmkit.polynomials import ExponentMap, Monomial, as_varref, exponent_tuples

from conftest import binom, camel_problem


def fresh_vars(n=2):
    ctx = ModelContext()
    return ctx, [ctx.var(f"x{i + 1}") for i in range(n)]


def poly_from_terms(xs, terms):
    """Build sum of c * x1^a * x2^b from (a, b, c) triples."""
    p = Polynomial()
    for a, b, c in terms:
        p = p + c * xs[0] ** a * xs[1] ** b
    return p


term_lists = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=3),
        st.integers(min_value=0, max_value=3),
        st.integers(min_value=-5, max_value=5),
    ),
    max_size=5,
)


@settings(max_examples=150, deadline=None)
@given(t1=term_lists, t2=term_lists)
def test_evaluation_is_ring_homomorphism(t1, t2):
    ctx, xs = fresh_vars()
    p, q = poly_from_terms(xs, t1), poly_from_terms(xs, t2)
    rng = np.random.default_rng(0)
    for _ in range(3):
        point = dict(zip(xs, rng.uniform(-1.5, 1.5, size=2)))
        pv, qv = p.eval(point), q.eval(point)
        scale = 1.0 + abs(pv) + abs(qv) + abs(pv * qv)
        assert abs((p + q).eval(point) - (pv + qv)) < 1e-12 * scale
        assert abs((p - q).eval(point) - (pv - qv)) < 1e-12 * scale
        assert abs((p * q).eval(point) - pv * qv) < 1e-10 * scale


@settings(max_examples=100, deadline=None)
@given(t1=term_lists, t2=term_lists)
def test_ring_axioms_exact_on_integer_coefficients(t1, t2):
    ctx, xs = fresh_vars()
    p, q = poly_from_terms(xs, t1), poly_from_terms(xs, t2)
    assert (p * q).equals(q * p)
    assert (p + q).equals(q + p)
    assert ((p + q) * xs[0]).equals(p * xs[0] + q * xs[0])
    assert (p * (q * xs[1])).equals((p * q) * xs[1])
    assert (p + Polynomial()).equals(p)
    assert (p * 1.0).equals(p)
    assert (p * 0.0).is_zero


@settings(max_examples=100, deadline=None)
@given(t=term_lists, var_idx=st.integers(min_value=0, max_value=1))
def test_derivative_matches_finite_differences(t, var_idx):
    ctx, xs = fresh_vars()
    p = poly_from_terms(xs, t)
    dp = diff(p, xs[var_idx])
    rng = np.random.default_rng(1)
    h = 1e-5
    for _ in range(3):
        coords = rng.uniform(-1.0, 1.0, size=2)
        up = coords.copy()
        up[var_idx] += h
        down = coords.copy()
        down[var_idx] -= h
        fd = (p.eval(dict(zip(xs, up))) - p.eval(dict(zip(xs, down)))) / (2 * h)
        exact = dp.eval(dict(zip(xs, coords)))
        assert abs(fd - exact) < 1e-6 * (1.0 + abs(exact))


@settings(max_examples=60, deadline=None)
@given(t1=term_lists, t2=term_lists)
def test_derivative_product_rule(t1, t2):
    ctx, xs = fresh_vars()
    p, q = poly_from_terms(xs, t1), poly_from_terms(xs, t2)
    lhs = diff(p * q, xs[0])
    rhs = diff(p, xs[0]) * q + p * diff(q, xs[0])
    assert lhs.equals(rhs)


def test_diff_jacobian_layout():
    ctx, xs = fresh_vars()
    basis = monomials(xs, 2)
    jac = diff(basis, xs)
    assert jac.shape == (6, 2)
    # d(x1^2)/dx1 = 2 x1, d(x1^2)/dx2 = 0
    assert repr(jac[3][0]) == "2x1"
    assert jac[3][1].is_zero


def test_basis_sizes():
    assert basis_size(3, 2) == 10
    assert basis_size(2, 6) == 28
    assert basis_size(9, 6) == 5005
    for n in range(1, 5):
        for d in range(0, 5):
            assert basis_size(n, d) == binom(n + d, d)


def test_monomials_graded_lex_order():
    ctx, xs = fresh_vars()
    basis = monomials(xs, 3)
    assert len(basis) == basis_size(2, 3)
    assert basis[0].is_constant
    assert repr(basis[1]) == "x1"
    varrefs = [p.measures()[0].vars for p in basis[1:2]][0]
    keys = [grlex_key(next(iter(p.terms)), varrefs) for p in basis]
    assert keys == sorted(keys)
    degrees = [p.degree for p in basis]
    assert degrees == sorted(degrees)


def test_exponent_map_round_trip_in_any_variable_order():
    # tuples follow the given list while monomials stay uid-canonical
    ctx, xs = fresh_vars(3)
    varrefs = [as_varref(x) for x in reversed(xs)]
    emap = ExponentMap(varrefs)
    tuples = exponent_tuples(3, 3)
    assert len(tuples) == basis_size(3, 3)
    for t in tuples:
        mono = Monomial(tuple(zip(varrefs, t)))
        built = emap.monomial(t)
        assert built == mono and built.exps == mono.exps and hash(built) == hash(mono)
        assert emap.of(mono) == t
    basis = monomials(list(reversed(xs)), 3)
    keys = [grlex_key(next(iter(p.terms)), varrefs) for p in basis]
    assert keys == sorted(keys)
    assert [emap.of(next(iter(p.terms))) for p in basis] == tuples
    other = ModelContext().var("y")
    with pytest.raises(PolyError):
        emap.of(next(iter(other.terms)))


def test_monomials_input_validation():
    ctx, xs = fresh_vars()
    with pytest.raises(PolyError):
        monomials([], 2)
    with pytest.raises(PolyError):
        monomials([xs[0], xs[0]], 2)
    with pytest.raises(PolyError):
        monomials(xs, -1)
    ctx2 = ModelContext()
    z = ctx2.var("z")
    w = ctx2.var("w")
    ctx2.new_measure([z])  # split z away from w's measure
    with pytest.raises(PolyError):
        monomials([z, w], 1)


def test_repr_formats():
    ctx, problem = camel_problem()
    poly = problem.objective.expr.terms_by_label()[0][1]
    assert repr(poly) == "4x1^2+x1x2-4x2^2-2.1x1^4+4x2^4+0.33333x1^6"
    ctx2, xs = fresh_vars()
    assert repr(Polynomial()) == "0"
    assert repr(xs[0] - xs[0] + 1.0) == "1"
    assert repr(-xs[0]) == "-x1"


def test_power_and_relation_errors():
    ctx, xs = fresh_vars()
    with pytest.raises(PolyError):
        xs[0] ** -1
    with pytest.raises(PolyError):
        xs[0] ** 0.5
    with pytest.raises(PolyError):
        xs[0] < xs[1]
    with pytest.raises(PolyError):
        xs[0] > 1.0


def test_eval_requires_all_variables():
    ctx, xs = fresh_vars()
    p = xs[0] * xs[1]
    with pytest.raises(PolyError):
        p.eval({xs[0]: 1.0})


def test_division_by_constant_only():
    ctx, xs = fresh_vars()
    p = (xs[0] ** 2 + 2.0) / 2
    point = {xs[0]: 3.0, xs[1]: 0.0}
    assert p.eval(point) == pytest.approx(5.5)
    with pytest.raises(TypeError):
        xs[0] / xs[1]


def test_degree_and_constant_properties():
    ctx, xs = fresh_vars()
    p = 2 * xs[0] ** 3 * xs[1] + 1.0
    assert p.degree == 4
    assert not p.is_constant
    assert p.constant_term == 1.0
    zero = xs[0] - xs[0]
    assert zero.is_zero
    assert zero.degree == 0
